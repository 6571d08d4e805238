"""Benchmark of the swiptrelay command line.

    python3 bench/run.py --workload srs-run --seed 777 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
The load is a closed loop: one caller runs one operation at a time until
--seconds have passed. An operation is one fresh child process
(bench/child.py) that imports swiptrelay.cli, builds the parser and runs
the workload's command(s) through swiptrelay.cli.main. --seed is passed to
the CLI as --seed.

Workloads:

  srs-run       run --policy srs --n 5 --eta 0.5 --rate 1.0 (20000 messages)
  mrs-compare   compare --n 10 --eta 0.05 --workers 2 --messages 2000
  trace-replay  run --policy mrs --m 4 --n 10 --eta 0.05 --messages 10000
                --trace T, then replay T

--trace 0 reports the end-to-end metrics, each the median over the
operations of the run. --trace 1 alternates untraced and traced operations
(bench/tracer.py wraps each module's public functions in the child) and
reports the per-layer metrics, the tracing overhead and the ROADMAP
baseline table (bench/table.py).

Correctness: before the timed loop one untimed reference operation runs
with --workers 1. Every timed operation must exit 0, write a CSV whose
rows are self-consistent and whose sha256 equals the committed digest
(bench/expected.json, for the seeds listed there) or else the reference's,
and replay must report ok. A failed check counts the operation as failed.
The manifest is not checked: it carries a creation timestamp.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --write-expected regenerates
bench/expected.json from the current src/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 777
HELD_OUT_SEED = 4242
OP_TIMEOUT_S = 60
Z = 3.0  # the CLI's default halfwidth multiplier

END_TO_END = {
    "wall_s": "s",
    "slots_per_s": "slots/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]  # CLI flags of the first command, seed and size aside
    messages: int
    tiny_messages: int
    points: int  # grid points one pass simulates
    rows: int  # CSV rows
    replay: bool = False
    workers: int = 1

    def slots(self, messages: int) -> int:
        """Config slots per operation: n_slots plus the drain slot, summed
        over grid points; replay re-steps every slot once more."""
        return self.points * (messages + 1) * (2 if self.replay else 1)


WORKLOADS = {
    "srs-run": Workload(
        ("run", "--policy", "srs", "--n", "5", "--eta", "0.5", "--rate", "1.0"),
        messages=20000, tiny_messages=400, points=1, rows=1,
    ),
    # opt-m over M = 1..10, then srs, mrs(1) and mrs(M*) over 5 rates
    "mrs-compare": Workload(
        ("compare", "--n", "10", "--eta", "0.05"),
        messages=2000, tiny_messages=100, points=10 + 3 * 5, rows=15, workers=2,
    ),
    "trace-replay": Workload(
        ("run", "--policy", "mrs", "--m", "4", "--n", "10", "--eta", "0.05"),
        messages=10000, tiny_messages=200, points=1, rows=1, replay=True,
    ),
}


@dataclass(frozen=True)
class Paths:
    work: Path

    @property
    def csv(self) -> Path:
        return self.work / "out.csv"

    @property
    def trace(self) -> Path:
        return self.work / "trace.jsonl"

    @property
    def result(self) -> Path:
        return self.work / "result.json"

    @property
    def spans(self) -> Path:
        return self.work / "spans"

    def outputs(self) -> list[Path]:
        return [self.csv, self.csv.with_name(self.csv.name + ".manifest.json"), self.trace]


def commands(wl: Workload, seed: int, messages: int, paths: Paths, workers: int) -> list[list[str]]:
    argv = [*wl.command, "--seed", str(seed), "--messages", str(messages), "--out", str(paths.csv)]
    if wl.workers > 1:
        argv += ["--workers", str(workers)]
    if wl.replay:
        return [argv + ["--trace", str(paths.trace)], ["replay", str(paths.trace)]]
    return [argv]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SWIPTRELAY_OUTDIR")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    return env


def run_child(argv: list[str], cwd: Path) -> str | None:
    """Run a Python child to completion; returns an error text or None."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=cwd, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return f"timed out after {OP_TIMEOUT_S} s"
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {err.strip()[-500:]}"
    return None


def run_op(cmds: list[list[str]], paths: Paths, traced: bool = False) -> dict:
    """One operation in a fresh child; returns its measurements or an error."""
    for path in [*paths.outputs(), paths.result]:
        path.unlink(missing_ok=True)
    spec = {"commands": cmds, "src": str(SRC), "result": str(paths.result)}
    if traced:
        shutil.rmtree(paths.spans, ignore_errors=True)
        paths.spans.mkdir()
        spec["trace_dir"] = str(paths.spans)
    error = run_child([str(BENCH / "child.py"), json.dumps(spec)], paths.work)
    if error is not None:
        return {"error": error}
    return json.loads(paths.result.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_problem(text: str, wl: Workload, messages: int) -> str | None:
    """Checks that every row is self-consistent: messages as configured,
    p_out = outages / messages and the z-sigma binomial halfwidth."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != wl.rows:
        return f"{len(rows)} CSV rows, expected {wl.rows}"
    for row in rows:
        try:
            count, outages = int(row["messages"]), int(row["outages"])
        except (KeyError, TypeError, ValueError):
            return f"unreadable CSV row {row}"
        p_hat = outages / count
        halfwidth = Z * math.sqrt(p_hat * (1.0 - p_hat) / count)
        if count != messages or row["p_out"] != repr(p_hat) or row["ci_halfwidth"] != repr(halfwidth):
            return f"inconsistent CSV row {row}"
    return None


def check_op(op: dict, wl: Workload, messages: int, paths: Paths, expected: dict | None) -> str | None:
    """Why the operation failed, or None when its outputs are correct.
    expected holds the CSV digest and the replay verdict; without it only
    self-consistency, exit codes and an ok replay are checked."""
    if "error" in op:
        return op["error"]
    if any(code != 0 for code in op["codes"]):
        return f"exit codes {op['codes']}"
    if not paths.csv.exists():
        return "no CSV written"
    problem = csv_problem(paths.csv.read_text(), wl, messages)
    if problem:
        return problem
    if expected is not None and sha256(paths.csv) != expected["csv_sha256"]:
        return "CSV digest differs from the expected one"
    verdict = expected.get("replay", "ok") if expected else "ok"
    if wl.replay and f"replay {verdict}" not in op["stdout"]:
        return f"replay did not report {verdict}"
    return None


def trace_slots(paths: Paths) -> int:
    with open(paths.trace, "rb") as fh:
        return sum(1 for _ in fh) - 1  # the first line is the config header


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed diagnostic,
    never used to rescale a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end(ops: list[dict], slots: int) -> dict[str, list[float]]:
    samples = {name: [] for name in END_TO_END}
    for op in ops:
        for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            samples[name].append(op[name])
        samples["slots_per_s"].append(slots / op["wall_s"])
    return samples


# -- per-layer metrics ------------------------------------------------------

LAYER_UNITS = {
    "channel.draw_calls": "count",
    "channel.draw_us_per_slot": "us",
    "channel.draw_us_per_slot.single": "us",
    "channel.draw_us_per_slot.block4096": "us",
    "relay.harvest_calls": "count",
    "relay.credit_calls": "count",
    "relay.debit_calls": "count",
    "relay.debit_ok_ratio": "ratio",
    "relay.state_objects": "count",
    "relay.us_per_slot": "us",
    "policies.srs_select.calls": "count",
    "policies.mrs_preselect.calls": "count",
    "policies.mrs_final_select.calls": "count",
    "policies.final_select_feasible_ratio": "ratio",
    "policies.us_per_slot": "us",
    "engine.run_trial.calls": "count",
    "engine.us_per_slot": "us",
    "engine.self_us_per_slot": "us",
    "engine.trace_us_per_slot": "us",
    "engine.replay_us_per_slot": "us",
    "engine.trace_bytes_per_slot": "B",
    "engine.us_per_slot.srs_n1_framed": "us",
    "engine.us_per_slot.srs_n5_pipelined": "us",
    "engine.us_per_slot.mrs_n10_m4": "us",
    "engine.us_per_slot.mrs_n20_m10": "us",
    "harness.points": "count",
    "harness.gain_fields": "count",
    "harness.crn_share": "ratio",
    "harness.sweep_calls": "count",
    "harness.pool_busy_ratio": "ratio",
    "harness.serial_fallback": "flag",
    "harness.aggregate_us_per_message": "us",
    "harness.pool_overhead_ms_per_job": "ms",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
    "trace.absent_wrappers": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(op: dict, paths: Paths) -> dict[str, float]:
    """Per-layer figures of one traced operation. Times are per config slot
    or per message; counts are per operation."""
    layers = op["layers"]
    spans, counts = layers["spans"], layers["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        _, total_, child = spans.get(name, [0, 0.0, 0.0])
        return total_ - child

    def layer_total(layer):
        return sum(span[1] for name, span in spans.items() if name.startswith(layer + "."))

    replayed = trace_slots(paths) if paths.trace.exists() else 0
    trial_slots = counts.get("trial_slots", 0)
    all_slots = trial_slots + replayed
    points = calls("harness.estimate_outage")
    csv_bytes = sum(p.stat().st_size for p in paths.outputs()[:2] if p.exists())
    return {
        "channel.draw_calls": calls("channel.draw"),
        "channel.draw_us_per_slot": _ratio(total("channel.draw"), trial_slots) * 1e6,
        "relay.harvest_calls": calls("relay.harvest_amount"),
        "relay.credit_calls": calls("relay.credit"),
        "relay.debit_calls": calls("relay.debit_for_tx"),
        "relay.debit_ok_ratio": _ratio(counts.get("debit_ok", 0), calls("relay.debit_for_tx")),
        "relay.state_objects": calls("relay.RelayState"),
        "relay.us_per_slot": _ratio(layer_total("relay"), all_slots) * 1e6,
        "policies.srs_select.calls": calls("policies.srs_select"),
        "policies.mrs_preselect.calls": calls("policies.mrs_preselect"),
        "policies.mrs_final_select.calls": calls("policies.mrs_final_select"),
        "policies.final_select_feasible_ratio": _ratio(
            counts.get("final_feasible", 0), calls("policies.mrs_final_select")),
        "policies.us_per_slot": _ratio(layer_total("policies"), all_slots) * 1e6,
        "engine.run_trial.calls": calls("engine.run_trial"),
        "engine.us_per_slot": _ratio(total("engine.run_trial"), trial_slots) * 1e6,
        "engine.self_us_per_slot": _ratio(own("engine.run_trial"), trial_slots) * 1e6,
        "engine.trace_us_per_slot": _ratio(
            counts.get("traced_trial_s", 0) - counts.get("twin_trial_s", 0),
            counts.get("traced_trial_slots", 0)) * 1e6,
        "engine.replay_us_per_slot": _ratio(total("engine.replay_check"), replayed) * 1e6,
        "engine.trace_bytes_per_slot": _ratio(
            paths.trace.stat().st_size if replayed else 0, replayed),
        "harness.points": points,
        "harness.gain_fields": layers["gain_fields"],
        "harness.crn_share": _ratio(points, layers["gain_fields"]),
        "harness.sweep_calls": counts.get("pool_starts", 0),
        "harness.pool_busy_ratio": _ratio(counts.get("pool_job_s", 0), counts.get("pool_capacity_s", 0)),
        "harness.serial_fallback": counts.get("serial_fallback", 0),
        "harness.aggregate_us_per_message": _ratio(
            own("harness.estimate_outage"), counts.get("messages", 0)) * 1e6,
        "cli.self_s": own("cli.main"),
        "cli.output_bytes": csv_bytes,
    }


def run_table(paths: Paths, tiny: bool) -> dict:
    result = paths.work / "table.json"
    argv = [str(BENCH / "table.py"), str(result)] + (["--tiny"] if tiny else [])
    error = run_child(argv, paths.work)
    if error is not None:
        raise RuntimeError(f"baseline table failed: {error}")
    return json.loads(result.read_text())


# -- main ---------------------------------------------------------------------

def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def reference(wl: Workload, seed: int, messages: int, paths: Paths) -> tuple[dict, str]:
    """Untimed serial operation; also warms the file cache and bytecode."""
    op = run_op(commands(wl, seed, messages, paths, workers=1), paths)
    problem = check_op(op, wl, messages, paths, None)
    if problem:
        raise RuntimeError(f"reference operation failed: {problem}")
    return op, sha256(paths.csv)


def write_expected() -> int:
    expected = {}
    for name, wl in WORKLOADS.items():
        paths = Paths(WORK / name)
        paths.work.mkdir(parents=True, exist_ok=True)
        expected[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            _, digest = reference(wl, seed, wl.messages, paths)
            entry = {"messages": wl.messages, "csv_sha256": digest}
            if wl.replay:
                entry["replay"] = "ok"
            expected[name][str(seed)] = entry
            print(f"{name} seed {seed}: {digest}")
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


def print_table(title: str, samples: dict[str, list[float]], units: dict[str, str]) -> None:
    print(title)
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<40} {med:>14.6g} {units[name]:<8} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--write-expected", action="store_true",
                        help=f"regenerate {EXPECTED.name} for seeds {DEFAULT_SEED} and {HELD_OUT_SEED}")
    args = parser.parse_args(argv)

    if not (SRC / "swiptrelay" / "cli.py").is_file():
        print(f"error: no swiptrelay sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload]
    messages = wl.tiny_messages if args.tiny else wl.messages
    slots = wl.slots(messages)
    paths = Paths(WORK / args.workload)
    paths.work.mkdir(parents=True, exist_ok=True)

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "messages": messages,
        "config_slots_per_op": slots,
        "commit": commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "calibration_s": calibrate(),
    }
    try:
        ref_op, digest = reference(wl, args.seed, messages, paths)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts["numpy"] = ref_op["numpy"]
    expected = None if args.tiny else load_expected().get(args.workload, {}).get(str(args.seed))
    if expected is not None and expected["messages"] == messages:
        if expected["csv_sha256"] != digest:
            print("reference CSV differs from the committed digest", file=sys.stderr)
        facts["digest_source"] = "committed"
    else:
        expected = {"csv_sha256": digest, "replay": "ok"}
        facts["digest_source"] = "reference"

    cmds = commands(wl, args.seed, messages, paths, wl.workers)
    plain, traced, failures = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        use_trace = args.trace == 1 and len(traced) < len(plain)
        op = run_op(cmds, paths, traced=use_trace)
        problem = check_op(op, wl, messages, paths, expected)
        if problem:
            failures.append(problem)
            print(f"operation failed: {problem}", file=sys.stderr)
        elif use_trace:
            op["layer_metrics"] = layer_metrics(op, paths)
        elif wl.replay:
            op["trace_bytes_per_slot"] = paths.trace.stat().st_size / trace_slots(paths)
        (traced if use_trace else plain).append(op)
        if time.perf_counter() >= deadline and (args.trace == 0 or traced):
            break

    attempted = len(plain) + len(traced)
    print(f"facts {json.dumps(facts)}")
    print(f"{args.workload}: {attempted} operations, {len(failures)} failed, "
          f"error_rate {len(failures) / attempted:.6g}")
    measured = [op for op in plain if "wall_s" in op]
    samples = end_to_end(measured, slots) if measured else {}
    if samples:
        print_table("end to end (untraced operations)", samples, END_TO_END)
    if wl.replay:
        per_slot = [op["trace_bytes_per_slot"] for op in measured if "trace_bytes_per_slot" in op]
        if per_slot:
            print(f"  trace_bytes_per_slot {statistics.median(per_slot):.6g} B n={len(per_slot)}")

    metrics = {}
    if args.trace == 0:
        if not samples:
            print("error: no operation produced measurements", file=sys.stderr)
            return 1
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    else:
        good_traced = [op for op in traced if "layer_metrics" in op]
        if not good_traced or not samples:
            print("error: no traced operation succeeded", file=sys.stderr)
            return 1
        layer_samples = {name: [op["layer_metrics"][name] for op in good_traced]
                         for name in good_traced[0]["layer_metrics"]}
        layer_samples["trace.overhead_s"] = [
            statistics.median(op["wall_s"] for op in good_traced)
            - statistics.median(samples["wall_s"])
        ]
        try:
            table = run_table(paths, args.tiny)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name, value in table["metrics"].items():
            layer_samples[name] = [value]
        absent = good_traced[0]["absent"] + table["absent"]
        layer_samples["trace.absent_wrappers"] = [len(absent)]
        print_table("per layer (traced operations)", layer_samples, LAYER_UNITS)
        print(f"absent {json.dumps(absent)}")
        for name, unit in LAYER_UNITS.items():
            values = layer_samples.get(name, [0.0])
            metrics[name] = {"value": statistics.median(values), "unit": unit}

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
