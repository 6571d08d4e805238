"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench(*args) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "0.1", "--tiny", *args],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        result = _bench("--workload", workload, "--seed", "5", "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == {metric["name"]: metric["unit"] for metric in listed}


def test_corrupted_output_counts_as_failed(monkeypatch):
    real_run_op = run.run_op
    calls = []

    def corrupting_run_op(cmds, paths, traced=False):
        op = real_run_op(cmds, paths, traced)
        calls.append(op)
        if len(calls) > 1:  # leave the reference operation intact
            with open(paths.csv, "a") as fh:
                fh.write("\n")
        return op

    monkeypatch.setattr(run, "run_op", corrupting_run_op)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "srs-run", "--seconds", "0.1", "--tiny"])
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["attempted"] == len(calls) - 1 >= 1
    assert result["failed"] == result["attempted"]


def test_missing_wrapped_function_is_reported_absent(tmp_path):
    script = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import swiptrelay.channel, swiptrelay.cli
from tracer import Tracer
del swiptrelay.channel.gain_from_uniform
tracer = Tracer({str(tmp_path)!r})
absent = tracer.install()
code = swiptrelay.cli.main(["run", "--messages", "50", "--out", {str(tmp_path / "out.csv")!r}])
print(json.dumps({{"absent": absent, "code": code,
                  "calls": tracer.report()["spans"]["engine.run_trial"][0]}}))
"""
    env = run.child_env()
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report == {"absent": ["swiptrelay.channel.gain_from_uniform"], "code": 0, "calls": 1}
