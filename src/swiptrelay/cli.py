"""Command-line front end.

Subcommands: run (single estimate), sweep (parameter grid), opt-m
(pre-selection size search), compare (policy ordering report), replay
(re-verify a trace file). Parameters merge defaults <- config file <-
flags, rightmost wins. Every table written gets a sidecar manifest;
feeding that manifest back through --config reproduces the table byte
for byte.

Exit codes: 0 success, 1 bad input, a failed replay or a run too large
for memory, 2 a broken internal invariant.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

from swiptrelay import __version__
from swiptrelay.engine import (
    MRS,
    PERIOD,
    SRS,
    Outcome,
    SimConfig,
    replay_check,
    slots_for_messages,
)
from swiptrelay.errors import ConfigError, InvariantError
from swiptrelay.harness import (
    SweepSpec,
    compare_policies,
    estimate_outage,
    optimize_m,
    sweep,
)

CSV_COLUMNS = (
    "policy", "n", "m", "eta", "rate", "sigma2", "ps_dbw", "pr_dbw",
    "schedule", "seed", "messages", "outages", "p_out", "ci_halfwidth",
)

# every subcommand that runs a scenario (all but replay)
_ALL = ("run", "sweep", "opt-m", "compare")


def _bool(value) -> bool:
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(value)


def _items(elem):
    """Parser of a comma-separated text or a JSON list into a non-empty list."""
    def parse(value):
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        items = [elem(str(item)) for item in value]
        if not items:
            raise ValueError("empty list")
        return items
    return parse


class Param(NamedTuple):
    """One parameter of the table that drives flags, config keys and rows.

    The flag is --key with dashes (crn is the one inverted flag, --no-crn);
    config files accept key dashed or not. parse takes text (or a JSON
    list, for list keys) and returns the canonical value; a tuple of
    strings instead names the allowed choices. A config-file null is taken
    only when default is None. field is the SimConfig field the key sets.
    """

    key: str
    parse: Callable | tuple
    default: object
    commands: tuple[str, ...]
    field: str | None
    help: str


# the manifest's params are in this order; CSV_COLUMNS keeps its own
PARAMS = (
    Param("policy", (SRS, MRS), SRS, _ALL, "policy", "relay selection policy"),
    Param("n", int, 5, _ALL, "n_relays", "number of relays"),
    Param("m", int, None, _ALL, "m", "mrs pre-selection size"),
    Param("rate", float, 1.0, _ALL, "target_rate", "target rate, bits/s/Hz"),
    Param("eta", float, 0.5, _ALL, "eta", "harvest efficiency in [0, 1]"),
    Param("sigma2", float, 1.0, _ALL, "noise_var", "noise variance, watts"),
    Param("ps_dbw", float, 10.0, _ALL, "source_power_dbw", "source power, dBW"),
    Param("pr_dbw", float, 10.0, _ALL, "relay_power_dbw", "srs relay power, dBW"),
    Param("distance", float, 1.0, _ALL, "distance", "relay distance, meters"),
    Param("slot_duration", float, 1.0, _ALL, "slot_duration", "slot length, seconds"),
    Param("initial_energy", float, None, _ALL, "initial_energy", "joules per relay"),
    Param("sense_threshold", float, 0.0, _ALL, "sense_threshold",
          "sensing threshold, joules"),
    Param("messages", int, 20000, _ALL, None, "post-warmup messages"),
    Param("warmup", int, 0, _ALL, "warmup_slots", "warmup slots to discard"),
    Param("seed", int, 0, _ALL, "seed", "base seed"),
    Param("schedule", tuple(PERIOD), SimConfig.schedule, _ALL, "schedule",
          "slot schedule"),
    Param("rates", _items(float), None, ("sweep", "compare"), None,
          "comma-separated rate axis"),
    Param("etas", _items(float), None, ("sweep",), None, "comma-separated eta axis"),
    Param("ns", _items(int), None, ("sweep",), None, "comma-separated relay-count axis"),
    Param("ms", _items(int), None, ("sweep", "opt-m"), None,
          "comma-separated pre-selection sizes (mrs)"),
    Param("n_points", int, 5, ("compare",), None, "rate grid size if --rates unset"),
    Param("z", float, 3.0, _ALL, None, "CI width in binomial sigmas"),
    Param("workers", int, 1, ("sweep", "opt-m", "compare"), None, "worker processes"),
    Param("crn", _bool, True, ("sweep",), None, "independent seeds per grid point"),
    Param("format", ("csv", "json"), "csv", _ALL, None, "result table format"),
    Param("out", str, None, _ALL, None, "result table destination"),
)
_BY_KEY = {p.key: p for p in PARAMS}
# the scenario columns of CSV_COLUMNS and the SimConfig fields they show
_ROW_FIELDS = {col: _BY_KEY[col].field for col in CSV_COLUMNS
               if col in _BY_KEY and _BY_KEY[col].field}


def _convert(param: Param, value):
    """Coerce a flag, config-file or manifest value to the key's canonical type."""
    if value is None:
        if param.default is None:
            return None
        raise ConfigError(f"{param.key} must not be null")
    try:
        if isinstance(param.parse, tuple):
            if value not in param.parse:
                raise ValueError(value)
            return value
        return param.parse(value if isinstance(value, list) else str(value))
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for {param.key}: {value!r}") from None


def _read_config_file(path: str) -> dict:
    """Flat key = value text, or a JSON manifest (its params block is used)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from None
        params = data.get("params", data)
        if not isinstance(params, dict):
            raise ConfigError(f"config file {path}: params must be an object")
        return {str(k).replace("-", "_"): v for k, v in params.items()}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config file {path} line {lineno}: expected key = value")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve_params(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults <- config file <- command-line flags."""
    params = {p.key: p.default for p in PARAMS if command in p.commands}
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in params:
                raise ConfigError(f"unknown config key: {key}")
            params[key] = _convert(_BY_KEY[key], value)
    for key in params:
        value = getattr(args, key)
        if value is not None:
            params[key] = _convert(_BY_KEY[key], value)
    return params


def _config_from_params(params: dict, **first) -> SimConfig:
    """The base config; first sets fields to the command's first grid
    point, so no value that no point runs is checked. params keep their
    values, so the manifest still does."""
    n_slots = slots_for_messages(
        params["messages"], params["warmup"], params["schedule"]
    )
    fields = {p.field: params[p.key] for p in PARAMS if p.field}
    return SimConfig(n_slots=n_slots, **{**fields, **first})


def _row(config: SimConfig, estimate) -> dict:
    row = {col: getattr(config, field) for col, field in _ROW_FIELDS.items()}
    row.update(messages=estimate.messages, outages=estimate.outages,
               p_out=estimate.p_hat, ci_halfwidth=estimate.ci_halfwidth)
    return row


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _output_path(name: str) -> Path:
    """Place a relative path under SWIPTRELAY_OUTDIR. The writer creates
    a missing directory, once the run has passed validation."""
    path = Path(name)
    root = os.environ.get("SWIPTRELAY_OUTDIR")
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _manifest(command: str, params: dict, outputs: list[str]) -> dict:
    return {
        "tool": "swiptrelay",
        "version": __version__,
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "seed": params["seed"],
        "params": params,
        "outputs": outputs,
    }


def _write_table(command: str, params: dict, rows: list[dict],
                 extra: dict | None = None, other_outputs: tuple[str, ...] = ()) -> Path:
    """Write the result table plus its sidecar manifest."""
    if not rows:
        raise InvariantError(f"{command} produced an empty table")
    out = _output_path(params["out"] or f"{command}.{params['format']}")
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(command, params, [str(out), *other_outputs])
    if params["format"] == "csv":
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_cell(row[col]) for col in CSV_COLUMNS])
    else:
        payload = {"manifest": manifest, "results": rows}
        if extra:
            payload.update(extra)
        with open(out, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    sidecar = out.with_name(out.name + ".manifest.json")
    with open(sidecar, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return out


def _cmd_run(args) -> int:
    params = _resolve_params(args, "run")
    config = _config_from_params(params)
    trace = str(_output_path(args.trace)) if args.trace else None
    est = estimate_outage(config, z=params["z"], trace_path=trace)
    out = _write_table("run", params, [_row(config, est)],
                       other_outputs=(trace,) if trace else ())
    print(
        f"p_out={est.p_hat!r} ci_halfwidth={est.ci_halfwidth!r} "
        f"({est.outages}/{est.messages} outages)"
    )
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    params = _resolve_params(args, "sweep")
    axes = {"n_relays": params["ns"], "eta": params["etas"], "target_rate": params["rates"],
            "m": params["ms"] if params["policy"] == MRS else None}
    base = _config_from_params(params, **{field: axis[0] for field, axis in axes.items() if axis})
    results = sweep(SweepSpec(
        base=base, rates=params["rates"], etas=params["etas"], n_relays=params["ns"],
        ms=params["ms"], z=params["z"], crn=params["crn"], workers=params["workers"],
    ))
    rows = [_row(r.config, r.estimate) for r in results]
    out = _write_table("sweep", params, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _cmd_opt_m(args) -> int:
    params = _resolve_params(args, "opt-m")
    base = _config_from_params(params, policy=MRS, m=(params["ms"] or [1])[0])
    star = optimize_m(base, m_values=params["ms"], z=params["z"], workers=params["workers"])
    rows = [_row(r.config, r.estimate) for r in star.results]
    out = _write_table("opt-m", params, rows, extra={"m_star": star.m_star})
    for r in star.results:
        print(
            f"m={r.config.m:<3d} p_out={r.estimate.p_hat:.6f} "
            f"ci_halfwidth={r.estimate.ci_halfwidth:.6f}"
        )
    print(f"m_star={star.m_star}")
    print(f"wrote {out}")
    return 0


def _cmd_compare(args) -> int:
    params = _resolve_params(args, "compare")
    base = _config_from_params(params, policy=MRS, m=1)  # its mrs grid runs M = 1..n
    report = compare_policies(base, rates=params["rates"], n_points=params["n_points"],
                              z=params["z"], workers=params["workers"])
    results = report.srs + report.mrs_single + report.mrs_star
    rows = [_row(r.config, r.estimate) for r in results]
    extra = {
        "m_star": report.m_star,
        "mrs_single_not_worse": report.mrs_single_not_worse,
        "mrs_star_not_worse": report.mrs_star_not_worse,
        "consistent": report.consistent,
    }
    out = _write_table("compare", params, rows, extra=extra)
    print(f"m_star={report.m_star}")
    print("rate      srs         mrs(1)      mrs(m*)     ordering")
    for i, rate in enumerate(report.rates):
        marks = "/".join("ok" if ok else "VIOLATED" for ok in
                         (report.mrs_single_not_worse[i], report.mrs_star_not_worse[i]))
        print(
            f"{rate:<8.3f}  {report.srs[i].estimate.p_hat:<10.6f}  "
            f"{report.mrs_single[i].estimate.p_hat:<10.6f}  "
            f"{report.mrs_star[i].estimate.p_hat:<10.6f}  {marks}"
        )
    print(f"ordering consistent: {report.consistent}")
    print(f"wrote {out}")
    return 0


def _cmd_replay(args) -> int:
    result = replay_check(args.trace)
    if result.ok:
        messages = sum(result.tally.values())
        outages = messages - result.tally[Outcome.SUCCESS]
        print(f"replay ok: {args.trace} ({outages}/{messages} outages)")
        return 0
    where = "" if result.divergent_slot is None else f" at slot {result.divergent_slot}"
    print(f"replay failed{where}: {result.detail}", file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for broken
    invariants, so usage errors exit 1 instead."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swiptrelay",
                     description="Outage simulator for RF-powered relay selection.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": (_cmd_run, "single outage estimate"),
        "sweep": (_cmd_sweep, "estimate over a parameter grid"),
        "opt-m": (_cmd_opt_m, "search the best mrs pre-selection size"),
        "compare": (_cmd_compare, "srs vs mrs(1) vs mrs(m_star) vs rate"),
    }
    for command, (handler, text) in commands.items():
        p_cmd = sub.add_parser(command, help=text)
        p_cmd.add_argument("--config", metavar="PATH",
                           help="key = value file or a previously written manifest")
        for param in PARAMS:
            if command not in param.commands:
                continue
            if param.key == "crn":
                p_cmd.add_argument("--no-crn", dest="crn", action="store_const",
                                   const=False, help=param.help)
                continue
            # values stay text: _resolve_params converts them as it does a
            # config file's, so a bad one is a ConfigError naming the key
            choices = param.parse if isinstance(param.parse, tuple) else None
            p_cmd.add_argument("--" + param.key.replace("_", "-"), choices=choices,
                               help=param.help)
        if command == "run":
            p_cmd.add_argument("--trace", metavar="PATH", help="write a replayable trace")
        p_cmd.set_defaults(func=handler)

    p_replay = sub.add_parser("replay", help="re-verify a trace file")
    p_replay.add_argument("trace", help="trace file from run --trace")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"swiptrelay: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a bare MemoryError has no message of its own
        detail = f": {exc}" if str(exc) else ""
        print(f"swiptrelay: error: out of memory{detail}", file=sys.stderr)
        return 1
    except (InvariantError, AssertionError) as exc:
        print(f"swiptrelay: internal error: {exc}", file=sys.stderr)
        return 2
