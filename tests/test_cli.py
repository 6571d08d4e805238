"""Command-line behavior: parsing, merging, output formats, exit codes."""

import csv
import json

import pytest

from swiptrelay.cli import CSV_COLUMNS, main
from swiptrelay.errors import InvariantError


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


def test_non_integer_relay_count_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--n", "five")
    assert exc.value.code == 1


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


def test_internal_error_exits_2(tmp_path, monkeypatch, capsys):
    def boom(*a, **kw):
        raise InvariantError("engine corrupted")

    monkeypatch.setattr("swiptrelay.cli.estimate_outage", boom)
    rc = run_cli("run", "--messages", "10", "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


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


# -- config files ------------------------------------------------------------


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


def test_replay_missing_file_exits_1(tmp_path):
    assert run_cli("replay", str(tmp_path / "no-such-trace.jsonl")) == 1


def test_replay_tampered_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--messages", "80", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    lines = trace.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["battery"] = [b + 1.0 for b in rec["battery"]]
    lines[3] = json.dumps(rec)
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(trace)) == 1
    assert "slot" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", ["not json", '{"slot": 2, "g_ld": [1.0]}'])
def test_replay_malformed_record_exits_1(tmp_path, capsys, bad_line):
    trace = tmp_path / "t.jsonl"
    run_cli("run", "--messages", "80", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--trace", str(trace))
    lines = trace.read_text().splitlines()
    lines[3] = bad_line   # the record of slot 2
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(trace)) == 1
    assert "replay failed at slot 2: malformed record" in capsys.readouterr().err
