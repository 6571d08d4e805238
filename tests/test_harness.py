"""Estimation, sweep grids, seed derivation, M* search, policy comparison."""

import concurrent.futures.process
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from swiptrelay import harness
from swiptrelay.engine import (
    BATCH_AXES,
    Outcome,
    SimConfig,
    run_batch,
    run_trial,
    slots_for_messages,
)
from swiptrelay.errors import ConfigError
from swiptrelay.harness import (
    SweepResult,
    SweepSpec,
    compare_policies,
    derive_seed,
    estimate_outage,
    optimize_m,
    sweep,
)

FRAMED_1 = SimConfig(n_relays=1, schedule="framed", initial_energy=1e12)


def test_estimate_matches_manual_count(tmp_path):
    cfg = replace(FRAMED_1, n_slots=2000, seed=6)
    est = estimate_outage(cfg)
    # count each message's outcome as the trace records it
    trace = tmp_path / "t.jsonl"
    run_trial(cfg, trace_path=trace)
    outages = sum(
        result != Outcome.SUCCESS.value
        for line in trace.read_text().splitlines()[1:]
        for _, result in json.loads(line)["outcomes"]
    )
    assert est.messages == 1000
    assert est.outages == outages
    assert est.p_hat == outages / 1000
    expect_ci = 3.0 * math.sqrt(est.p_hat * (1 - est.p_hat) / 1000)
    assert est.ci_halfwidth == pytest.approx(expect_ci)


def test_estimate_z_scales_halfwidth():
    cfg = replace(FRAMED_1, n_slots=1000, seed=6)
    e1 = estimate_outage(cfg, z=1.0)
    e2 = estimate_outage(cfg, z=2.0)
    assert e2.ci_halfwidth == pytest.approx(2.0 * e1.ci_halfwidth)
    with pytest.raises(ConfigError, match="z"):
        estimate_outage(cfg, z=0.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -1.0])
def test_estimate_and_sweep_refuse_a_non_finite_or_non_positive_z(z):
    cfg = replace(FRAMED_1, n_slots=20)
    with pytest.raises(ConfigError, match="z must be finite and > 0"):
        estimate_outage(cfg, z=z)
    with pytest.raises(ConfigError, match="z must be finite and > 0"):
        sweep(_spec(z=z))


def test_estimate_rejects_zero_message_budget():
    # two framed slots broadcast once, and the warmup swallows it: such a
    # config is refused on construction, so no estimate can be asked of it
    with pytest.raises(ConfigError, match="messages"):
        estimate_outage(SimConfig(n_slots=2, warmup_slots=1, schedule="framed"))


def test_derive_seed_is_stable_and_key_sensitive():
    a = derive_seed(42, (0, 1))
    assert a == derive_seed(42, (0, 1))
    assert a != derive_seed(42, (1, 0))
    assert a != derive_seed(43, (0, 1))
    assert 0 <= a < 2**64


def _spec(base=SimConfig(seed=5), **kw):
    # every base here is pipelined without warmup: 300 slots, 300 messages
    return SweepSpec(replace(base, n_slots=300), **kw)


def test_sweep_grid_order_rate_fastest():
    spec = _spec(rates=[0.5, 1.0], etas=[0.1, 0.2])
    results = sweep(spec)
    combos = [(r.config.eta, r.config.target_rate) for r in results]
    assert combos == [(0.1, 0.5), (0.1, 1.0), (0.2, 0.5), (0.2, 1.0)]
    assert all(r.config.message_count() == 300 for r in results)


def test_sweep_crn_shares_seeds_along_rate_and_m_axes():
    base = SimConfig(policy="mrs", m=1, seed=5)
    results = sweep(_spec(base=base, rates=[0.5, 1.0], ms=[1, 2]))
    seeds = {r.config.seed for r in results}
    assert len(seeds) == 1  # one gain field for the whole comparison
    results = sweep(_spec(rates=[0.5], etas=[0.1, 0.2]))
    assert len({r.config.seed for r in results}) == 2  # eta axis not coupled


def test_sweep_without_crn_gives_independent_seeds():
    base = SimConfig(policy="mrs", m=1, seed=5)
    results = sweep(_spec(base=base, rates=[0.5, 1.0], ms=[1, 2], crn=False))
    assert len({r.config.seed for r in results}) == 4


@pytest.mark.parametrize("crn", [True, False])
def test_sweep_grid_seed_keys(crn):
    """In grid order, a point's seed is derived from its (n, eta) indices
    under crn, whose rate and m axes share a gain field, and from all four
    of its indices without."""
    base = SimConfig(policy="mrs", m=1, seed=5)
    axes = dict(n_relays=[3, 4], etas=[0.1, 0.2], ms=[1, 2], rates=[0.5, 1.0])
    configs = harness._grid_configs(_spec(base=base, crn=crn, **axes))
    want = []
    for i_n, n in enumerate(axes["n_relays"]):
        for i_eta, eta in enumerate(axes["etas"]):
            for i_m, m in enumerate(axes["ms"]):
                for i_rate, rate in enumerate(axes["rates"]):
                    key = (i_n, i_eta) if crn else (i_n, i_eta, i_m, i_rate)
                    want.append((n, eta, m, rate, derive_seed(5, key)))
    got = [(c.n_relays, c.eta, c.m, c.target_rate, c.seed) for c in configs]
    assert got == want


def test_sweep_jobs_are_runs_of_adjacent_grid_points(monkeypatch):
    """The grid's last axes are BATCH_AXES, so a gain field's points are
    adjacent in grid order: 2 etas x 3 rates x 2 ms make two jobs of six."""
    assert [field for _, field in harness._GRID_AXES[-len(BATCH_AXES):]] == list(BATCH_AXES)
    jobs = []
    estimate_job = harness._estimate_job

    def counting_estimate_job(job):
        jobs.append(job[0])
        return estimate_job(job)

    monkeypatch.setattr(harness, "_estimate_job", counting_estimate_job)
    base = SimConfig(n_relays=3, policy="mrs", m=1, seed=5)
    results = sweep(_spec(base=base, etas=[0.1, 0.5], rates=[0.5, 1.0, 2.0], ms=[1, 2]))
    assert len(jobs) == 2
    assert [r.config for r in results] == jobs[0] + jobs[1]
    assert results == [SweepResult(r.config, estimate_outage(r.config)) for r in results]


def test_sweep_results_independent_of_worker_count():
    spec1 = _spec(rates=[0.5, 1.0, 1.5], workers=1)
    spec4 = _spec(rates=[0.5, 1.0, 1.5], workers=4)
    assert sweep(spec1) == sweep(spec4)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("policy", ["srs", "mrs"])
def test_sweep_groups_match_scalar_estimates(policy, workers):
    # two relay counts x two etas: four gain fields of six points each
    base = SimConfig(policy=policy, m=1 if policy == "mrs" else None, seed=5)
    spec = _spec(base=base, n_relays=[3, 5], etas=[0.05, 0.5], rates=[0.5, 1.0, 2.0],
                 ms=[1, 3] if policy == "mrs" else None, workers=workers)
    results = sweep(spec)
    assert len(results) == (24 if policy == "mrs" else 12)
    assert results == [SweepResult(r.config, estimate_outage(r.config)) for r in results]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sweep_runs_small_groups_as_separate_scalar_runs(monkeypatch, k):
    # mrs lockstep pays off from three points, srs from four
    assert harness.SCALAR_GROUP == {"srs": 3, "mrs": 2}
    calls = []

    def counting(engine, run):
        def wrapper(arg, **kwargs):
            calls.append(engine)
            return run(arg, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "run_trial", counting("scalar", run_trial))
    monkeypatch.setattr(harness, "run_batch", counting("lockstep", run_batch))
    rates = [0.5 + 0.25 * i for i in range(k)]
    for base in (SimConfig(seed=5), SimConfig(n_relays=3, policy="mrs", m=2, seed=5)):
        calls.clear()
        results = sweep(_spec(base=base, rates=rates))
        scalar = k <= harness.SCALAR_GROUP[base.policy]
        assert calls == (["scalar"] * k if scalar else ["lockstep"])
        assert results == [SweepResult(r.config, estimate_outage(r.config)) for r in results]


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_sweep_runs_a_single_gain_field_in_process(monkeypatch):
    # sweep imports the pool from here when it starts one
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", _no_pool)
    base = SimConfig(policy="mrs", m=1, seed=5)
    results = sweep(_spec(base=base, rates=[0.5, 1.0], ms=[1, 2], workers=4))
    assert len(results) == 4


def test_sweep_pool_failure_falls_back_serially_and_says_so(monkeypatch, caplog):
    spec = _spec(etas=[0.1, 0.2], rates=[0.5, 1.0], workers=2)
    expected = sweep(replace(spec, workers=1))

    def refuse(*args, **kwargs):
        raise OSError("subprocesses are forbidden here")

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", refuse)
    with caplog.at_level(logging.WARNING, logger="swiptrelay.harness"):
        assert sweep(spec) == expected
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "OSError" in warnings[0].getMessage()
    assert "subprocesses are forbidden here" in warnings[0].getMessage()


def test_sweep_ms_axis_requires_mrs():
    with pytest.raises(ConfigError, match="mrs"):
        sweep(_spec(ms=[1, 2]))


def test_sweep_validates_harness_knobs():
    with pytest.raises(ConfigError, match="messages"):
        sweep(_spec(messages=0))
    with pytest.raises(ConfigError, match="workers"):
        sweep(_spec(workers=0))


# each harness knob's entry points, called with the knob set to a value
SMALL = SimConfig(n_relays=2, n_slots=20)
KNOB_CALLS = {
    "z": [lambda z: estimate_outage(SMALL, z=z), lambda z: sweep(SweepSpec(SMALL, [1.0], z=z))],
    "workers": [lambda w: sweep(SweepSpec(SMALL, [1.0], workers=w))],
    "n_points": [lambda n: compare_policies(SMALL, n_points=n)],
}


@pytest.mark.parametrize(
    "knob, value, refusal",
    [
        ("workers", True, "workers must be a number, got True"),
        ("workers", np.int64(2), "workers must be a Python int, got 2 (int64)"),
        ("z", True, "z must be a number, got True"),
        ("z", "3", "z must be a number, got '3'"),
        ("z", None, "z must be a number, got None"),
        ("z", 10**400, f"z must be finite and > 0, got {10**400}"),
        ("n_points", 2.5, "n_points must be an integer, got 2.5"),
        ("n_points", "5", "n_points must be a number, got '5'"),
        ("n_points", True, "n_points must be a number, got True"),
    ],
    ids=["workers-bool", "workers-int64", "z-bool", "z-str", "z-None", "z-huge-int",
         "n_points-float", "n_points-str", "n_points-bool"],
)
def test_harness_knobs_refuse_what_a_config_field_refuses(knob, value, refusal):
    for call in KNOB_CALLS[knob]:
        with pytest.raises(ConfigError) as refused:
            call(value)
        assert str(refused.value) == refusal


@pytest.mark.parametrize(
    "key, edge, past",
    [
        ("eta", 0.0, -5e-324),
        ("eta", 1.0, math.nextafter(1.0, 2.0)),
        ("target_rate", 0.0, -5e-324),
        ("initial_energy", 0.0, -5e-324),
        ("sense_threshold", 0.0, -5e-324),
        ("warmup_slots", 0, -1),
        ("seed", 2**64 - 1, 2**64),
        ("n_slots", 2**53, 2**53 + 1),
        ("n_relays", 1, 0),
        ("z", 5e-324, 0.0),
        ("workers", 1, 0),
        ("n_points", 2, 1),
    ],
)
def test_each_bound_accepts_its_edge_and_refuses_the_next_value(key, edge, past):
    calls = KNOB_CALLS.get(key, [lambda value: SimConfig(**{key: value})])
    for call in calls:
        call(edge)
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            call(past)


@pytest.mark.parametrize(
    "messages, kind", [(True, "bool"), (1.5, "float"), (2.0, "float"), (np.int64(2), "int64"),
                       ("3", "str")],
)
def test_a_message_count_that_is_not_an_int_is_refused_naming_messages(messages, kind):
    refusal = rf"^messages must be a Python int, got {messages} \({kind}\)$"
    with pytest.raises(ConfigError, match=refusal):
        slots_for_messages(messages, 0, "pipelined")
    with pytest.raises(ConfigError, match=refusal):
        SweepSpec(SimConfig(n_slots=10), messages=messages)
    with pytest.raises(ConfigError, match=r"^messages must be >= 1, got 0$"):
        slots_for_messages(0, 0, "framed")


def test_sweep_messages_sets_the_base_run_length():
    base = SimConfig(n_relays=3, schedule="framed", warmup_slots=9, seed=5)
    spec = SweepSpec(base, rates=[0.5, 1.0], messages=150)
    assert spec.base == replace(base, n_slots=slots_for_messages(150, 9, "framed"))
    assert replace(spec, workers=2).base == spec.base
    assert all(r.estimate.messages == 150 for r in sweep(spec))


def test_harness_reads_the_run_length_from_the_base():
    base = SimConfig(n_relays=3, eta=0.2, schedule="framed", warmup_slots=9,
                     n_slots=slots_for_messages(150, 9, "framed"), seed=5)
    star = optimize_m(base)
    report = compare_policies(base, rates=[0.5, 1.0])
    rows = [*sweep(SweepSpec(base, rates=[0.5, 1.0], etas=[0.2, 0.5])), *star.results,
            *report.srs, *report.mrs_single, *report.mrs_star]
    assert len(rows) == 4 + 3 + 3 * 2
    for row in rows:
        assert row.estimate.messages == 150
        assert row.estimate == estimate_outage(row.config)


def test_an_empty_run_is_refused_before_anything_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(harness, "run_trial", refuse)
    monkeypatch.setattr(harness, "run_batch", refuse)
    # two framed slots broadcast once, and the warmup swallows it: the base
    # is refused on construction, before any of these is called
    for run in (lambda base: sweep(SweepSpec(base, rates=[0.5, 1.0])), optimize_m,
                compare_policies):
        with pytest.raises(ConfigError, match="messages"):
            run(SimConfig(n_slots=2, warmup_slots=1, schedule="framed"))


@pytest.mark.parametrize("axis", ["rates", "etas", "n_relays", "ms"])
def test_sweep_refuses_an_empty_axis(axis):
    base = SimConfig(n_relays=3, policy="mrs", m=1, n_slots=100)
    with pytest.raises(ConfigError, match=f"^{axis} must be non-empty$"):
        sweep(SweepSpec(base=base, **{axis: []}))
    # compare's srs curve is a sweep over its rates
    if axis == "rates":
        with pytest.raises(ConfigError, match="^rates must be non-empty$"):
            compare_policies(base, rates=[])


def test_compare_refuses_empty_rates_before_it_runs_anything(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(harness, "run_trial", refuse)
    monkeypatch.setattr(harness, "run_batch", refuse)
    base = SimConfig(n_relays=3, policy="mrs", m=1, n_slots=100)
    with pytest.raises(ConfigError, match="^rates must be non-empty$"):
        compare_policies(base, rates=[])
    with pytest.raises(ConfigError, match="^n_points must be >= 2, got 1$"):
        compare_policies(base, n_points=1)


@pytest.mark.parametrize("rates, bad", [([True, "2"], True), ([1.0, "2"], "2")])
def test_compare_refuses_a_rate_that_a_sweep_refuses(monkeypatch, rates, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(harness, "run_trial", refuse)
    monkeypatch.setattr(harness, "run_batch", refuse)
    for call in (lambda: compare_policies(SMALL, rates=rates),
                 lambda: sweep(SweepSpec(SMALL, rates=[bad]))):
        with pytest.raises(ConfigError) as refused:
            call()
        assert str(refused.value) == f"target_rate must be a number, got {bad!r}"


def test_optimize_m_names_the_type_of_a_numpy_size():
    base = SimConfig(n_relays=3, n_slots=100)
    with pytest.raises(ConfigError, match=r"^m must be a Python int, got 1 \(int64\)$"):
        optimize_m(base, m_values=np.arange(1, 3, dtype=np.int64))


def test_optimize_m_is_consistent_with_its_own_table():
    base = SimConfig(n_relays=6, policy="mrs", m=1, eta=0.1, n_slots=2000, seed=8)
    star = optimize_m(base)
    assert len(star.results) == 6
    assert [r.config.m for r in star.results] == [1, 2, 3, 4, 5, 6]
    best_p = min(r.estimate.p_hat for r in star.results)
    arg = [r.config.m for r in star.results if r.estimate.p_hat == best_p]
    assert star.m_star == min(arg)


def test_optimize_m_tie_breaks_to_smaller_m():
    # unlimited energy at a tiny rate: several sizes reach zero outage
    base = SimConfig(n_relays=6, policy="mrs", m=1, target_rate=0.05, n_slots=1000,
                     schedule="framed", initial_energy=1e12, seed=8)  # 500 messages
    star = optimize_m(base, m_values=[3, 4, 5])
    ps = [r.estimate.p_hat for r in star.results]
    assert ps == [0.0, 0.0, 0.0]  # tie premise; seeds are fixed
    assert star.m_star == 3


def test_optimize_m_accepts_srs_flavored_base():
    base = SimConfig(n_relays=4, n_slots=500, seed=9)  # policy srs, m None
    star = optimize_m(base)
    assert 1 <= star.m_star <= 4
    assert all(r.config.policy == "mrs" for r in star.results)


def test_optimize_m_rejects_empty_m_values():
    with pytest.raises(ConfigError, match="m_values"):
        optimize_m(SimConfig(), m_values=[])


def test_ci_coverage_on_closed_form_configuration():
    """The z = 3 interval covers the known value in >= 99 of 100 seeds."""
    truth = 1.0 - math.exp(-0.6)
    inside = 0
    for seed in range(100):
        cfg = replace(FRAMED_1, n_slots=10_000, seed=seed)
        est = estimate_outage(cfg)
        if abs(est.p_hat - truth) <= est.ci_halfwidth:
            inside += 1
    assert inside >= 99


def test_compare_policies_structure_and_pairing():
    base = SimConfig(n_relays=4, eta=0.3, n_slots=500, seed=4)
    report = compare_policies(base, rates=[0.5, 1.0])
    assert report.rates == [0.5, 1.0]
    for curve in (report.srs, report.mrs_single, report.mrs_star):
        assert [r.config.target_rate for r in curve] == [0.5, 1.0]
    assert all(r.config.policy == "srs" for r in report.srs)
    assert all(r.config.m == 1 for r in report.mrs_single)
    assert all(r.config.m == report.m_star for r in report.mrs_star)
    # paired comparison: every curve shares the per-point seed
    seeds = {r.config.seed for curve in (report.srs, report.mrs_single,
                                         report.mrs_star) for r in curve}
    assert len(seeds) == 1
    assert len(report.mrs_single_not_worse) == 2
    assert len(report.mrs_star_not_worse) == 2


@pytest.mark.parametrize("rates", [[0.5, 1.0], [0.7, 1.3]], ids=["with-base", "without-base"])
def test_compare_policies_runs_one_mrs_grid_and_the_srs_curve(monkeypatch, rates):
    groups = []
    estimate_job = harness._estimate_job

    def counting_estimate_job(job):
        groups.append(sorted({(c.policy, c.m, c.target_rate) for c in job[0]}))
        return estimate_job(job)

    monkeypatch.setattr(harness, "_estimate_job", counting_estimate_job)
    base = SimConfig(n_relays=4, eta=0.3, n_slots=300, seed=4)
    report = compare_policies(base, rates=rates)
    grid_rates = sorted({*rates, 1.0})
    assert groups == [
        [("mrs", m, r) for m in range(1, 5) for r in grid_rates],
        [("srs", None, r) for r in rates],
    ]
    assert report.rates == rates  # the base-rate column is not emitted
    assert all(len(curve) == 2 for curve in (report.srs, report.mrs_single, report.mrs_star))


@pytest.mark.parametrize("rates", [None, [0.7, 1.3]])
def test_compare_policies_picks_the_m_star_of_optimize_m(rates):
    base = SimConfig(n_relays=6, eta=0.1, n_slots=1000, seed=8)
    report = compare_policies(base, rates=rates)
    star = optimize_m(base)
    assert report.m_star == star.m_star
    # the mrs curves hold the configs a sweep of one curve would run
    for curve, m in ((report.mrs_single, 1), (report.mrs_star, star.m_star)):
        spec = SweepSpec(base=replace(base, policy="mrs", m=m), rates=report.rates)
        assert curve == sweep(spec)


def test_compare_policies_default_rate_grid():
    report = compare_policies(SimConfig(n_relays=3, n_slots=300, seed=4), n_points=3)
    assert report.rates == [0.5, 1.5, 2.5]
    with pytest.raises(ConfigError, match="n_points"):
        compare_policies(SimConfig(n_slots=300), n_points=1)


def test_compare_policies_ordering_holds_on_reference_scenario():
    base = SimConfig(n_relays=10, eta=0.05, n_slots=3000, seed=31)
    report = compare_policies(base)
    assert report.consistent
