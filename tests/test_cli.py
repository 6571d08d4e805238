"""Command-line behavior: parsing, merging, output formats, exit codes."""

import base64
import csv
import hashlib
import json
import math
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swiptrelay.cli import (
    CSV_COLUMNS,
    PARAMS,
    _convert,
    _resolve_params,
    build_parser,
    main,
)
from swiptrelay.engine import SimConfig
from swiptrelay.errors import ConfigError, InvariantError


DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- validation and exit codes ----------------------------------------------


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--frobnicate")
    assert exc.value.code == 1


def test_non_integer_relay_count_exits_1(capsys):
    # a flag converts as a config-file value does: a ConfigError naming the key
    assert run_cli("run", "--n", "five") == 1
    assert "invalid value for n: 'five'" in capsys.readouterr().err


def test_missing_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 1


def test_mrs_without_m_names_the_key(capsys):
    assert run_cli("run", "--policy", "mrs") == 1
    assert "m required for mrs" in capsys.readouterr().err


def test_out_of_range_eta_names_the_key(capsys):
    assert run_cli("run", "--eta", "1.5") == 1
    err = capsys.readouterr().err
    assert "eta" in err and "1.5" in err


def test_m_with_srs_names_the_key(capsys):
    assert run_cli("run", "--policy", "srs", "--m", "2") == 1
    assert "m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,key",
    [
        ("--sigma2", "nan", "noise_var"),
        ("--initial-energy", "inf", "initial_energy"),
        ("--distance", "nan", "distance"),
        ("--sense-threshold", "nan", "sense_threshold"),
        ("--slot-duration", "inf", "slot_duration"),
    ],
)
def test_non_finite_value_names_the_key(tmp_path, capsys, flag, value, key):
    out = tmp_path / "r.csv"
    assert run_cli("run", flag, value, "--messages", "10", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,key",
    [
        (("run", "--z", "nan"), "z"),
        (("sweep", "--rates", "0.5,1.0", "--z", "inf"), "z"),
        (("run", "--ps-dbw", "4000"), "source_power_dbw"),
        (("run", "--ps-dbw", "-4000"), "source_power_dbw"),
        (("run", "--pr-dbw", "-4000"), "relay_power_dbw"),
        (("run", "--distance", "1e-200"), "distance"),
        (("run", "--rate", "600"), "target_rate"),
        (("sweep", "--rates", "1.0,600"), "target_rate"),
        (("run", "--pr-dbw", "3000", "--slot-duration", "1e300"), "slot_duration"),
        (("run", "--sigma2", "1e300", "--distance", "1e150"), "noise_var"),
        (("compare", "--sigma2", "1e300", "--distance", "1e150"), "noise_var"),
        # a count no run could reach names the count, not the physics
        (("run", "--messages", "1" + "0" * 400), "messages out of range"),
        (("sweep", "--rates", "0.5,1.0", "--messages", "1" + "0" * 400),
         "messages out of range"),
    ],
)
def test_out_of_range_value_names_the_key(tmp_path, capsys, argv, key):
    out = tmp_path / "r.csv"
    messages = () if "--messages" in argv else ("--messages", "10")
    assert run_cli(*argv, *messages, "--out", str(out)) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_internal_error_exits_2(tmp_path, monkeypatch, capsys):
    def boom(*a, **kw):
        raise InvariantError("engine corrupted")

    monkeypatch.setattr("swiptrelay.cli.estimate_outage", boom)
    rc = run_cli("run", "--messages", "10", "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 745. GiB")])
def test_a_run_too_large_for_memory_exits_1(tmp_path, monkeypatch, capsys, error):
    def boom(*a, **kw):
        raise error

    monkeypatch.setattr("swiptrelay.cli.compare_policies", boom)
    rc = run_cli("compare", "--n", "3", "--messages", "10", "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("swiptrelay: error: out of memory")
    assert str(error) in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_destination_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = run_cli("run", "--messages", "10", "--out", str(blocker / "x.csv"))
    assert rc == 1


# -- run: output format and reproducibility ---------------------------------


def test_run_writes_exact_csv_shape(tmp_path):
    out = tmp_path / "r.csv"
    rc = run_cli("run", "--policy", "srs", "--n", "5", "--eta", "0.5",
                 "--rate", "1.0", "--messages", "400", "--seed", "7",
                 "--out", str(out))
    assert rc == 0
    text = out.read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    row = read_rows(out)[0]
    assert row["policy"] == "srs"
    assert row["m"] == ""          # no pre-selection size under srs
    assert row["n"] == "5"
    assert row["messages"] == "400"
    assert int(row["outages"]) == round(float(row["p_out"]) * 400)


def test_run_csv_round_trips_floats(tmp_path):
    out = tmp_path / "r.csv"
    run_cli("run", "--messages", "300", "--seed", "3", "--out", str(out))
    row = read_rows(out)[0]
    p = float(row["p_out"])
    ci = float(row["ci_halfwidth"])
    out2 = tmp_path / "r2.csv"
    run_cli("run", "--messages", "300", "--seed", "3", "--out", str(out2))
    row2 = read_rows(out2)[0]
    assert float(row2["p_out"]) == p
    assert float(row2["ci_halfwidth"]) == ci


def test_identical_invocations_are_byte_identical(tmp_path):
    args = ("run", "--policy", "mrs", "--m", "2", "--n", "4",
            "--messages", "300", "--seed", "9")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_manifest_sidecar(tmp_path):
    out = tmp_path / "r.csv"
    run_cli("run", "--messages", "200", "--seed", "4", "--out", str(out))
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["tool"] == "swiptrelay"
    assert manifest["command"] == "run"
    assert manifest["seed"] == 4
    assert manifest["params"]["messages"] == 200
    assert str(out) in manifest["outputs"]


def test_rerun_from_manifest_reproduces_csv(tmp_path):
    out = tmp_path / "r.csv"
    run_cli("run", "--eta", "0.3", "--messages", "250", "--seed", "12",
            "--out", str(out))
    sidecar = tmp_path / "r.csv.manifest.json"
    out2 = tmp_path / "again.csv"
    rc = run_cli("run", "--config", str(sidecar), "--out", str(out2))
    assert rc == 0
    assert out.read_bytes() == out2.read_bytes()


def test_run_json_format(tmp_path):
    out = tmp_path / "r.json"
    run_cli("run", "--messages", "200", "--seed", "4", "--format", "json",
            "--out", str(out))
    payload = json.loads(out.read_text())
    assert payload["manifest"]["command"] == "run"
    (row,) = payload["results"]
    assert set(row) == set(CSV_COLUMNS)
    assert row["m"] is None
    assert isinstance(row["p_out"], float)


def test_run_trace_then_replay(tmp_path):
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--messages", "120", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    assert run_cli("replay", str(trace)) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("--policy", "srs", "--n", "5", "--schedule", "framed", "--warmup", "11"),
        ("--policy", "mrs", "--m", "4", "--n", "10", "--eta", "0.05"),
    ],
    ids=["srs-framed-warmup", "mrs"],
)
def test_replay_reports_the_outages_of_the_csv_row(tmp_path, capsys, argv):
    trace = tmp_path / "t.jsonl"
    run_cli("run", *argv, "--messages", "500", "--out", str(tmp_path / "r.csv"),
            "--trace", str(trace))
    [row] = read_rows(tmp_path / "r.csv")
    capsys.readouterr()
    assert run_cli("replay", str(trace)) == 0
    out = capsys.readouterr().out
    assert out == f"replay ok: {trace} ({row['outages']}/{row['messages']} outages)\n"
    assert row["messages"] == "500" and 0 < int(row["outages"]) < 500


# -- config files ------------------------------------------------------------


# one canonical text spelling and parsed value per table key
SAMPLES = {
    "policy": ("mrs", "mrs"), "n": ("3", 3), "m": ("2", 2), "rate": ("0.25", 0.25),
    "eta": ("0.125", 0.125), "sigma2": ("2.5", 2.5), "ps_dbw": ("12", 12.0),
    "pr_dbw": ("-3", -3.0), "distance": ("1.5", 1.5), "slot_duration": ("0.5", 0.5),
    "initial_energy": ("7", 7.0), "sense_threshold": ("0.01", 0.01),
    "messages": ("90", 90), "warmup": ("4", 4), "seed": ("11", 11),
    "schedule": ("framed", "framed"), "rates": ("0.5, 1", [0.5, 1.0]),
    "etas": ("0.1,0.2", [0.1, 0.2]), "ns": ("2,4", [2, 4]), "ms": ("1,3", [1, 3]),
    "n_points": ("4", 4), "z": ("2", 2.0), "workers": ("2", 2),
    "crn": ("false", False), "format": ("json", "json"), "out": ("o.csv", "o.csv"),
}
COMMANDS = ("run", "sweep", "opt-m", "compare")


def test_param_table_sets_each_simconfig_field_once():
    assert [p.key for p in PARAMS] == list(SAMPLES)
    set_fields = sorted(p.field for p in PARAMS if p.field)
    assert set_fields == sorted(f.name for f in fields(SimConfig) if f.name != "n_slots")
    defaults = {f.name: f.default for f in fields(SimConfig)}
    assert {p.key: p.default for p in PARAMS if p.field} == {
        p.key: defaults[p.field] for p in PARAMS if p.field}
    nullable = {p.key for p in PARAMS if p.default is None}
    assert nullable == {"m", "initial_energy", "out", "rates", "etas", "ns", "ms"}


@pytest.mark.parametrize("param", PARAMS, ids=lambda p: p.key)
def test_param_is_a_flag_and_config_key_of_its_commands(tmp_path, param):
    text, value = SAMPLES[param.key]
    flag = ["--" + param.key.replace("_", "-"), text]
    if param.key == "crn":
        flag = ["--no-crn"]
    for command in COMMANDS:
        if command not in param.commands:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, *flag])
            continue
        args = build_parser().parse_args([command, *flag])
        assert _resolve_params(args, command)[param.key] == value
        for key in {param.key, param.key.replace("_", "-")}:
            conf = tmp_path / "c.conf"
            conf.write_text(f"{key} = {text}\n")
            args = build_parser().parse_args([command, "--config", str(conf)])
            assert _resolve_params(args, command)[param.key] == value


@pytest.mark.parametrize(
    "param", [p for p in PARAMS if p.default is not None], ids=lambda p: p.key
)
def test_config_null_is_refused_for_non_nullable_keys(tmp_path, capsys, param):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"params": {param.key: None}}))
    out = tmp_path / "r.csv"
    assert run_cli(param.commands[0], "--config", str(conf), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert param.key in err and "null" in err
    assert not out.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@given(param=st.sampled_from(PARAMS), value=JSON_VALUES)
def test_any_manifest_value_converts_or_names_the_key(param, value):
    try:
        _convert(param, value)
    except ConfigError as exc:
        assert param.key in str(exc)


def test_config_null_is_taken_for_nullable_keys(tmp_path, monkeypatch):
    monkeypatch.setenv("SWIPTRELAY_OUTDIR", str(tmp_path))
    conf = tmp_path / "c.json"
    nulls = dict.fromkeys(["m", "initial_energy", "out", "rates", "etas", "ns", "ms"])
    conf.write_text(json.dumps({"params": {**nulls, "messages": 40}}))
    assert run_cli("sweep", "--config", str(conf)) == 0
    assert len(read_rows(tmp_path / "sweep.csv")) == 1


def test_config_file_merging_and_flag_precedence(tmp_path):
    conf = tmp_path / "scenario.conf"
    conf.write_text(
        "# reference scenario\n"
        "policy = mrs\n"
        "m = 2\n"
        "n = 6\n"
        "eta = 0.25\n"
        "rate = 1.5\n"
        "seed = 10\n"
    )
    out = tmp_path / "r.csv"
    run_cli("run", "--config", str(conf), "--rate", "0.75",
            "--messages", "200", "--out", str(out))
    row = read_rows(out)[0]
    assert row["policy"] == "mrs" and row["m"] == "2" and row["n"] == "6"
    assert float(row["eta"]) == 0.25
    assert float(row["rate"]) == 0.75   # flag beats file
    assert row["seed"] == "10"


def test_config_file_accepts_dashed_keys(tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text("ps-dbw = 13\nslot-duration = 1.0\n")
    out = tmp_path / "r.csv"
    assert run_cli("run", "--config", str(conf), "--messages", "100",
                   "--out", str(out)) == 0
    assert float(read_rows(out)[0]["ps_dbw"]) == 13.0


def test_config_file_unknown_key_exits_1(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("fading = rician\n")
    assert run_cli("run", "--config", str(conf)) == 1
    assert "fading" in capsys.readouterr().err


def test_config_file_bad_value_names_key(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("eta = warm\n")
    assert run_cli("run", "--config", str(conf)) == 1
    assert "eta" in capsys.readouterr().err


def test_config_file_missing_exits_1(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "absent.conf")) == 1


def test_config_file_malformed_line_exits_1(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("eta 0.5\n")
    assert run_cli("run", "--config", str(conf)) == 1
    assert "key = value" in capsys.readouterr().err


def test_config_file_not_utf8_exits_1(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_bytes(b"\xff\xfen = 3\n")
    assert run_cli("run", "--config", str(conf)) == 1
    err = capsys.readouterr().err
    assert f"cannot read config file {conf}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [('{"params": {"n": 3', "invalid JSON"), ('{"params": [3]}', "params must be an object")],
    ids=["unparsed", "params-not-object"],
)
def test_config_file_bad_json_exits_1(tmp_path, capsys, text, message):
    conf = tmp_path / "c.json"
    conf.write_text(text)
    assert run_cli("run", "--config", str(conf)) == 1
    err = capsys.readouterr().err
    assert f"config file {conf}: {message}" in err
    assert "Traceback" not in err


def test_config_file_bad_bool_names_key(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("crn = maybe\n")
    assert run_cli("sweep", "--config", str(conf), "--messages", "50",
                   "--out", str(tmp_path / "s.csv")) == 1
    err = capsys.readouterr().err
    assert "invalid value for crn: 'maybe'" in err
    assert "Traceback" not in err


# -- sweep, opt-m, compare ---------------------------------------------------


def test_sweep_rows_in_axis_order(tmp_path):
    out = tmp_path / "s.csv"
    rc = run_cli("sweep", "--policy", "mrs", "--m", "1", "--ms", "1,2",
                 "--rates", "0.5,1.0,1.5", "--messages", "200",
                 "--seed", "6", "--out", str(out))
    assert rc == 0
    rows = read_rows(out)
    assert [(r["m"], r["rate"]) for r in rows] == [
        ("1", "0.5"), ("1", "1.0"), ("1", "1.5"),
        ("2", "0.5"), ("2", "1.0"), ("2", "1.5"),
    ]
    # common random numbers: one derived seed for the whole grid
    assert len({r["seed"] for r in rows}) == 1


def test_sweep_no_crn_flag(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("sweep", "--rates", "0.5,1.0", "--no-crn", "--messages", "100",
            "--seed", "6", "--out", str(out))
    rows = read_rows(out)
    assert len({r["seed"] for r in rows}) == 2


def test_sweep_ms_requires_mrs(capsys):
    assert run_cli("sweep", "--ms", "1,2", "--messages", "100") == 1
    assert "mrs" in capsys.readouterr().err


def test_sweep_empty_axis_exits_1(tmp_path, capsys):
    assert run_cli("sweep", "--rates", ",", "--messages", "100",
                   "--out", str(tmp_path / "s.csv")) == 1
    assert "rates" in capsys.readouterr().err


def test_sweep_worker_count_does_not_change_bytes(tmp_path):
    outs = []
    for w in ("1", "3"):
        out = tmp_path / f"w{w}.csv"
        run_cli("sweep", "--rates", "0.5,1.0", "--messages", "150",
                "--seed", "2", "--workers", w, "--out", str(out))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("crn", [True, False])
def test_sweep_over_several_gain_fields_is_worker_independent(tmp_path, crn):
    # four (n, eta) gain fields: the pool path, batched with crn and one
    # scalar job per point without it
    outs = []
    for w in ("1", "2"):
        out = tmp_path / f"w{w}.csv"
        rc = run_cli("sweep", "--policy", "mrs", "--m", "1", "--ns", "3,5",
                     "--etas", "0.05,0.5", "--rates", "0.5,1.5", "--ms", "1,2",
                     "--messages", "150", "--seed", "9", "--workers", w,
                     *([] if crn else ["--no-crn"]), "--out", str(out))
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = read_rows(tmp_path / "w1.csv")
    assert len(rows) == 16
    assert len({r["seed"] for r in rows}) == (4 if crn else 16)


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--policy", "mrs", "--m", "1", "--ns", "2,3", "--etas", "0.1,0.5",
         "--rates", "0.5,1.5", "--ms", "1,2", "--no-crn", "--messages", "60",
         "--seed", "4"),
        ("opt-m", "--n", "3", "--ms", "1,3", "--eta", "0.2", "--messages", "100",
         "--seed", "2"),
        ("compare", "--n", "3", "--eta", "0.3", "--n-points", "3",
         "--messages", "80", "--seed", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_rerun_from_manifest_reproduces_csv_for_every_table_command(tmp_path, argv):
    out = tmp_path / "first.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    sidecar = tmp_path / "first.csv.manifest.json"
    again = tmp_path / "again.csv"
    assert run_cli(argv[0], "--config", str(sidecar), "--out", str(again)) == 0
    assert out.read_bytes() == again.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--policy", "mrs", "--n", "5", "--ms", "1,3", "--rates", "0.5,2.0"),
        ("opt-m", "--policy", "mrs", "--n", "5"),
        ("compare", "--policy", "mrs", "--n", "5"),
    ],
    ids=lambda argv: argv[0],
)
def test_mrs_table_commands_run_without_m(tmp_path, argv):
    """Each of these commands sets every point's M, so --m may be unset: the
    table equals the one with --m set to the first M run, and the manifest,
    whose m stays null, reproduces it."""
    out, with_m, again = (tmp_path / f"{name}.csv" for name in ("out", "with_m", "again"))
    assert run_cli(*argv, "--messages", "60", "--out", str(out)) == 0
    assert run_cli(*argv, "--m", "1", "--messages", "60", "--out", str(with_m)) == 0
    assert out.read_bytes() == with_m.read_bytes()
    sidecar = tmp_path / "out.csv.manifest.json"
    assert json.loads(sidecar.read_text())["params"]["m"] is None
    assert run_cli(argv[0], "--config", str(sidecar), "--out", str(again)) == 0
    assert out.read_bytes() == again.read_bytes()


@pytest.mark.parametrize(
    "argv, valid",
    [
        (("--policy", "mrs", "--ns", "10", "--ms", "7"), ("--n", "10")),
        (("--eta", "2", "--etas", "0.1,0.5"), ("--eta", "0.1")),
        (("--rate", "600", "--rates", "1,2"), ("--rate", "1")),
    ],
    ids=["ns", "etas", "rates"],
)
def test_sweep_base_config_is_its_first_grid_point(tmp_path, argv, valid):
    """A sweep checks no base value that its axes replace: the table equals
    the one with valid base flags, and the manifest, which keeps the flags
    as given, reproduces it."""
    out, ref, again = (tmp_path / f"{name}.csv" for name in ("out", "ref", "again"))
    assert run_cli("sweep", *argv, "--messages", "60", "--out", str(out)) == 0
    assert run_cli("sweep", *argv, *valid, "--messages", "60", "--out", str(ref)) == 0
    assert out.read_bytes() == ref.read_bytes()
    sidecar = tmp_path / "out.csv.manifest.json"
    assert run_cli("sweep", "--config", str(sidecar), "--out", str(again)) == 0
    assert out.read_bytes() == again.read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--policy", "mrs", "--ns", "3,10", "--ms", "7"), "m must be an integer"),
        (("--policy", "srs", "--ms", "1,2"), "ms axis requires policy 'mrs'"),
    ],
    ids=["m-above-a-grid-n", "ms-without-mrs"],
)
def test_sweep_refuses_a_grid_point_that_cannot_run(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert run_cli("sweep", *argv, "--messages", "60", "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("opt-m", "--n", "5"), ("--policy", "mrs", "--m", "9")),
        (("opt-m", "--n", "5"), ("--policy", "srs", "--m", "2")),
        (("compare", "--n", "5"), ("--m", "9")),
    ],
    ids=["opt-m-mrs-m-above-n", "opt-m-srs-with-m", "compare-m-above-n"],
)
def test_opt_m_and_compare_base_config_is_their_first_grid_point(tmp_path, argv, flags):
    """opt-m and compare run mrs at each M they search, so they check no
    --policy or --m: the table equals the one without those flags, and the
    manifest, which keeps the flags as given, reproduces it."""
    out, ref, again = (tmp_path / f"{name}.csv" for name in ("out", "ref", "again"))
    assert run_cli(*argv, *flags, "--messages", "60", "--out", str(out)) == 0
    assert run_cli(*argv, "--messages", "60", "--out", str(ref)) == 0
    assert out.read_bytes() == ref.read_bytes()
    sidecar = tmp_path / "out.csv.manifest.json"
    assert json.loads(sidecar.read_text())["params"]["m"] == int(flags[-1])
    assert run_cli(argv[0], "--config", str(sidecar), "--out", str(again)) == 0
    assert out.read_bytes() == again.read_bytes()


def test_opt_m_refuses_a_size_above_the_relay_count(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_cli("opt-m", "--n", "5", "--ms", "7", "--messages", "60", "--out", str(out)) == 1
    assert "m must be an integer in [1, n_relays], got 7" in capsys.readouterr().err
    assert not out.exists()


def test_opt_m_reports_m_star(tmp_path, capsys):
    out = tmp_path / "o.json"
    rc = run_cli("opt-m", "--n", "4", "--eta", "0.1", "--messages", "300",
                 "--seed", "3", "--format", "json", "--out", str(out))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "m_star=" in stdout
    payload = json.loads(out.read_text())
    ms = [row["m"] for row in payload["results"]]
    assert ms == [1, 2, 3, 4]
    best = min(payload["results"], key=lambda r: (r["p_out"], r["m"]))
    assert payload["m_star"] == best["m"]


def test_compare_emits_three_curves(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = run_cli("compare", "--n", "4", "--eta", "0.3", "--rates", "0.5,1.0",
                 "--messages", "200", "--seed", "3", "--out", str(out))
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 6
    assert [r["policy"] for r in rows] == ["srs"] * 2 + ["mrs"] * 4
    assert "ordering consistent" in capsys.readouterr().out


def test_compare_worker_count_does_not_change_bytes(tmp_path):
    outs = []
    for w in ("1", "2"):
        out = tmp_path / f"w{w}.csv"
        assert run_cli("compare", "--n", "6", "--messages", "300", "--workers", w,
                       "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_SMALL = ("--n", "6", "--eta", "0.1", "--messages", "300", "--seed", "5")


# sha256 of each table, recorded with the code that ran opt-m and the three
# compare curves as four separate sweeps. A JSON table's manifest has its
# "created" line dropped; the manifest's paths are relative.
@pytest.mark.parametrize(
    "argv,fmt,digest",
    [
        (("compare", *_SMALL), "csv",
         "9c6ebf634c0416f724738079cd11e3c8090e41602035b52c5eb5c5082bde3a90"),
        (("compare", *_SMALL), "json",
         "63108ec4c9a51c8be52852a0287c5e9a3e07f744a1905fa0ecd5b1a875efa2ae"),
        # a rate list without the base rate 1.0, where M* is chosen
        (("compare", *_SMALL, "--rates", "0.7,1.3"), "csv",
         "49c5a6d7bce6b7140bbba06f978aa54b57490be546489e47d861427cebfa3aef"),
        (("compare", *_SMALL, "--rates", "0.7,1.3"), "json",
         "97795ba6c99bedf050e7ed7081c42bf4b577b88909a30ba347e36170717780a7"),
        (("opt-m", *_SMALL, "--ms", "2,4,5"), "csv",
         "40d724889ce4dc180afd3b2ce94759d62c7fec28334c1339ee468faf18eac87a"),
        (("opt-m", *_SMALL, "--ms", "2,4,5"), "json",
         "f4d0c25b51bcd263772565be858f749304fff0820d0e083e232088e2eb5547f8"),
    ],
    ids=["compare-csv", "compare-json", "compare-rates-csv", "compare-rates-json",
         "opt-m-csv", "opt-m-json"],
)
def test_compare_and_opt_m_tables_are_pinned(tmp_path, monkeypatch, argv, fmt, digest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SWIPTRELAY_OUTDIR", raising=False)
    assert run_cli(*argv, "--format", fmt, "--out", f"t.{fmt}") == 0
    lines = (tmp_path / f"t.{fmt}").read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if b'"created":' not in line)
    assert hashlib.sha256(kept).hexdigest() == digest


# -- output directory handling ----------------------------------------------


def test_outdir_env_var_receives_relative_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("SWIPTRELAY_OUTDIR", str(tmp_path / "results"))
    run_cli("run", "--messages", "100", "--seed", "1", "--out", "r.csv")
    assert (tmp_path / "results" / "r.csv").exists()
    assert (tmp_path / "results" / "r.csv.manifest.json").exists()


def test_default_output_name_is_command_based(tmp_path, monkeypatch):
    monkeypatch.setenv("SWIPTRELAY_OUTDIR", str(tmp_path))
    run_cli("run", "--messages", "100", "--seed", "1")
    assert (tmp_path / "run.csv").exists()


def test_absolute_out_ignores_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SWIPTRELAY_OUTDIR", str(tmp_path / "elsewhere"))
    out = tmp_path / "direct.csv"
    run_cli("run", "--messages", "100", "--seed", "1", "--out", str(out))
    assert out.exists()


def test_trace_into_a_missing_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("SWIPTRELAY_OUTDIR", str(tmp_path / "results"))
    rc = run_cli("run", "--messages", "60", "--seed", "5", "--out", "r.csv",
                 "--trace", "sub/t.jsonl")
    assert rc == 0
    trace = tmp_path / "results" / "sub" / "t.jsonl"
    manifest = json.loads((tmp_path / "results" / "r.csv.manifest.json").read_text())
    assert manifest["outputs"][1] == str(trace)
    assert run_cli("replay", str(trace)) == 0


def test_refused_run_creates_no_trace_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--messages", "60", "--z", "nan", "--trace", "sub/t.jsonl") == 1
    assert list(tmp_path.iterdir()) == []


def test_replay_missing_file_exits_1(tmp_path):
    assert run_cli("replay", str(tmp_path / "no-such-trace.jsonl")) == 1


def test_replay_tampered_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--messages", "80", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    lines = trace.read_text().splitlines()
    rec = json.loads(lines[3])
    # format 2 packs the batteries as base64 of little-endian float64s
    battery = np.frombuffer(base64.b64decode(rec["battery"]), "<f8") + 1.0
    rec["battery"] = base64.b64encode(battery.astype("<f8").tobytes()).decode()
    lines[3] = json.dumps(rec)
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(trace)) == 1
    assert "slot" in capsys.readouterr().err


def _unread_g_ld(rec, value):
    """rec as a JSON line, with every packed g_ld entry but the forwarder's
    set to value."""
    gains = np.frombuffer(base64.b64decode(rec["gains"]), "<f8").copy()
    n = len(gains) // 2
    unread = [rid != rec["forwarder"] for rid in range(n)]
    gains[n:][unread] = value
    return json.dumps({**rec, "gains": base64.b64encode(gains.astype("<f8").tobytes()).decode()})


@pytest.mark.parametrize(
    "bad_line",
    [
        "not json",
        # one packed float, 1.0, where the default run has 10
        '{"slot": 2, "gains": "AAAAAAAA8D8="}',
        '{"slot": 2, "gains": null}',
        '{"slot": 2, "gains": "not base64"}',
        # a gain that no rule of the slot reads: any g_ld but the forwarder's
        pytest.param(lambda rec: _unread_g_ld(rec, math.nan), id="unread g_ld NaN"),
    ],
)
def test_replay_malformed_record_exits_1(tmp_path, capsys, bad_line):
    trace = tmp_path / "t.jsonl"
    shutil.copyfile(DATA / "trace_v2_srs_framed.jsonl", trace)
    lines = trace.read_text().splitlines()
    if callable(bad_line):
        bad_line = bad_line(json.loads(lines[3]))
    lines[3] = bad_line   # the record of slot 2
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(trace)) == 1
    assert "replay failed at slot 2: malformed record" in capsys.readouterr().err


def test_replay_record_past_the_end_exits_1(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--messages", "80", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    lines = trace.read_text().splitlines()
    # after the drain slot 80, which forwards the last message
    lines.append(json.dumps({**json.loads(lines[-1]), "slot": 81}))
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("replay", str(trace)) == 1
    err = capsys.readouterr().err
    assert "replay failed at slot 81: record past the end of the run" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kept,slot", [(21, 20), (1, 0)], ids=["cut", "header only"])
def test_replay_of_a_truncated_trace_exits_1(tmp_path, capsys, kept, slot):
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--policy", "srs", "--n", "3", "--schedule", "framed", "--messages", "50",
            "--seed", "5", "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    lines = trace.read_text().splitlines()
    assert len(lines) == 101
    # the first kept - 1 slots, cut after a forward: no message is pending
    trace.write_text("\n".join(lines[:kept]) + "\n")
    capsys.readouterr()
    assert run_cli("replay", str(trace)) == 1
    err = capsys.readouterr().err
    assert f"replay failed at slot {slot}: trace ends at slot {slot} of 100" in err
    assert "Traceback" not in err


def test_replay_of_a_line_that_is_not_utf8_exits_1(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--messages", "80", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    with open(trace, "ab") as fh:
        fh.write(b'\xff\xfe{"slot": 2}\n')
    capsys.readouterr()
    assert run_cli("replay", str(trace)) == 1
    err = capsys.readouterr().err
    assert "replay failed at slot 81: malformed record (UnicodeDecodeError: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key,retype",
    [
        ("slot", lambda slot: True if slot == 1 else None),
        ("forwarder", lambda fwd: None if fwd is None else float(fwd)),
        ("designated", lambda ids: [float(i) for i in ids] or None),
    ],
)
def test_replay_tells_json_types_apart_exits_1(tmp_path, capsys, key, retype):
    """A record whose ids are == to the recomputed ones but of another JSON
    type (true for 1, 1.0 for 1) fails replay."""
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--messages", "80", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    lines = trace.read_text().splitlines()
    for i, rec in enumerate(map(json.loads, lines[1:]), 1):
        value = retype(rec[key])
        if value is not None:
            lines[i] = json.dumps({**rec, key: value})
            break
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("replay", str(trace)) == 1
    err = capsys.readouterr().err
    assert f"replay failed at slot {rec['slot']}: " in err
    assert "Traceback" not in err


def test_replay_non_numeric_header_value_exits_1(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--messages", "80", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["target_rate"] = "abc"
    lines[0] = json.dumps(header)
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(trace)) == 1
    err = capsys.readouterr().err
    assert "target_rate must be a number" in err
    assert "Traceback" not in err
