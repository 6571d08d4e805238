"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and
asserts the same condition. Statistical checks run at 20000 messages with
fixed seeds, so every verdict here is reproducible bit for bit.

Closed-form reference values, Framed schedule, P_s = P_r = 10 W,
sigma2 = 1, d = 1, R = 1, unlimited energy: each hop fails when its
exponential(1) gain falls below theta = (2^{2R} - 1) sigma2 d^2 / P = 0.3,
so the single-relay outage is 1 - e^{-0.6} and the M-listener outage is
(1 - e^{-0.3})^M.
"""

import math
import random
import time
from dataclasses import replace
from typing import NamedTuple

from oracles import (
    inversion_power,
    mrs_preselect,
    srs_energy_balance,
    srs_select,
    srs_single_relay_framed,
)
from swiptrelay.cli import main
from swiptrelay.engine import (
    Outcome,
    SimConfig,
    mrs_final_select,
    replay_check,
    run_trial,
    slots_for_messages,
)
from swiptrelay.harness import (
    SweepSpec,
    compare_policies,
    estimate_outage,
    optimize_m,
    sweep,
)

MESSAGES = 20000
SRS_TRUTH = 1.0 - math.exp(-0.6)                   # 0.45118836...
MRS_TRUTH = {m: (1.0 - math.exp(-0.3)) ** m for m in (1, 2, 4)}
UNLIMITED = 1e12  # joules; batteries never bind

# pinned tolerances: 3 binomial standard errors at the true value
SRS_TOL = 3.0 * math.sqrt(SRS_TRUTH * (1.0 - SRS_TRUTH) / MESSAGES)   # 0.01056
MRS_TOL = {
    m: 3.0 * math.sqrt(p * (1.0 - p) / MESSAGES) for m, p in MRS_TRUTH.items()
}

RATE_GRID = [0.1, 0.5, 1.0, 1.5, 2.0]
TREND_PAIRS = [(5, 0.5), (5, 0.4), (5, 0.2), (5, 0.02), (20, 0.02)]


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_1_srs_closed_form_oracle():
    """Single-relay fixed-power outage matches 1 - e^{-0.6} within 3 SE."""
    cfg = SimConfig(n_relays=1, policy="srs", schedule="framed",
                    initial_energy=UNLIMITED, n_slots=2 * MESSAGES, seed=2001)
    start = time.perf_counter()
    est = estimate_outage(cfg)
    elapsed = time.perf_counter() - start
    err = abs(est.p_hat - SRS_TRUTH)
    verdict(
        "srs closed-form oracle",
        est.messages == MESSAGES and err <= SRS_TOL and elapsed < 1.0,
        f"p_hat={est.p_hat:.5f} truth={SRS_TRUTH:.5f} |err|={err:.5f} "
        f"tol={SRS_TOL:.5f} time={elapsed:.2f}s",
    )


def test_2_mrs_closed_form_oracle():
    """M listeners fail independently: outage (1 - e^{-0.3})^M within 3 SE."""
    details = []
    ok = True
    for m in (1, 2, 4):
        cfg = SimConfig(n_relays=5, policy="mrs", m=m, schedule="framed",
                        initial_energy=UNLIMITED, n_slots=2 * MESSAGES,
                        seed=2100 + m)
        start = time.perf_counter()
        est = estimate_outage(cfg)
        elapsed = time.perf_counter() - start
        err = abs(est.p_hat - MRS_TRUTH[m])
        ok = ok and err <= MRS_TOL[m] and elapsed < 1.0
        details.append(f"M={m}: |{est.p_hat:.5f}-{MRS_TRUTH[m]:.5f}|"
                       f"<={MRS_TOL[m]:.5f} ({elapsed:.2f}s)")
    verdict("mrs closed-form oracle", ok, "; ".join(details))


def test_2b_srs_renewal_oracle_where_energy_binds():
    """One srs relay on the framed schedule with a finite battery: outage and
    the NO_CANDIDATE share match the renewal-reward oracle within 3 SE."""
    messages, warmup = 100000, 4000  # the warmup forgets the initial battery
    details = []
    ok = True
    for eta in (0.1, 0.5, 1.0):
        cfg = SimConfig(n_relays=1, policy="srs", schedule="framed", eta=eta, seed=11,
                        warmup_slots=warmup,
                        n_slots=slots_for_messages(messages, warmup, "framed"))
        tally = run_trial(cfg)
        ok = ok and sum(tally.values()) == messages
        truths = srs_single_relay_framed(cfg)
        shares = (1.0 - tally[Outcome.SUCCESS] / messages,
                  tally[Outcome.NO_CANDIDATE] / messages)
        for name, share, truth in zip(("p_out", "no_candidate"), shares, truths):
            tol = 3.0 * math.sqrt(truth * (1.0 - truth) / messages)
            ok = ok and abs(share - truth) <= tol
            details.append(f"eta={eta} {name}: |{share:.5f}-{truth:.5f}|<={tol:.5f}")
    verdict("srs renewal-reward oracle, energy binding", ok, "; ".join(details))


def test_2c_srs_energy_balance_oracle_where_batteries_couple():
    """srs with 2 to 20 relays that compete for the listener slot: outage
    and the NO_CANDIDATE share match the energy-balance law within 3 Wald
    SE, on both schedules, with a sense threshold and with Pr != Ps. At
    N = 1 framed the law is the renewal-reward oracle of test_2b."""
    for eta in (0.1, 0.5, 1.0):
        one = SimConfig(n_relays=1, schedule="framed", eta=eta)
        law, renewal = srs_energy_balance(one), srs_single_relay_framed(one)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(law, renewal))
    messages, warmup = 60000, 20000  # the warmup forgets the initial batteries
    cases = [
        dict(n_relays=2, eta=0.3, schedule="pipelined"),
        dict(n_relays=5, eta=0.1, schedule="framed"),
        dict(n_relays=20, eta=0.03, sense_threshold=0.05, schedule="pipelined"),
        dict(n_relays=5, eta=0.1, relay_power_dbw=12.0, schedule="pipelined"),
        dict(n_relays=5, eta=0.1, relay_power_dbw=8.0, schedule="framed"),
    ]
    details = []
    ok = True
    for case in cases:
        cfg = SimConfig(policy="srs", seed=1, warmup_slots=warmup,
                        n_slots=slots_for_messages(messages, warmup, case["schedule"]), **case)
        truths = srs_energy_balance(cfg)
        ok = ok and 1.0 - truths[1] <= 0.9  # P_c stays clear of the edge where batteries grow
        tally = run_trial(cfg)
        ok = ok and sum(tally.values()) == messages
        shares = (1.0 - tally[Outcome.SUCCESS] / messages,
                  tally[Outcome.NO_CANDIDATE] / messages)
        for name, share, truth in zip(("p_out", "no_candidate"), shares, truths):
            se = math.sqrt(share * (1.0 - share) / messages)
            ok = ok and abs(share - truth) <= 3.0 * se
            label = " ".join(f"{key}={value}" for key, value in case.items())
            details.append(f"{label} {name}: {(share - truth) / se:+.2f} SE")
    verdict("srs energy-balance oracle, batteries coupled", ok, "; ".join(details))


def test_3_outage_trends_vs_rate_eta_n():
    """Outage grows with rate; scarce harvests floor it; more relays help."""
    start = time.perf_counter()
    base = SimConfig(policy="srs", n_slots=MESSAGES, seed=12345)
    curves = {}
    for n, eta in TREND_PAIRS:
        spec = SweepSpec(base=replace(base, n_relays=n, eta=eta), rates=RATE_GRID)
        curves[(n, eta)] = [r.estimate for r in sweep(spec)]
    # energy-unconstrained reference at the smallest rate, same gain field
    # (one shared derived seed), isolating the battery-induced excess
    ref_spec = SweepSpec(base=replace(base, n_relays=5, initial_energy=UNLIMITED),
                         rates=[RATE_GRID[0]])
    ref = sweep(ref_spec)[0].estimate
    elapsed = time.perf_counter() - start

    mono_ok = True
    for key, ests in curves.items():
        ps = [e.p_hat for e in ests]
        if any(ps[i] > ps[i + 1] for i in range(len(ps) - 1)):
            mono_ok = False
    verdict("outage monotone in rate (all N, eta)", mono_ok and elapsed < 60.0,
            f"grids={len(curves)}x{len(RATE_GRID)} time={elapsed:.1f}s")

    a, b = curves[(5, 0.5)][0], curves[(5, 0.4)][0]
    gap = abs(a.p_hat - b.p_hat)
    budget = a.ci_halfwidth + b.ci_halfwidth
    verdict("eta 0.5 vs 0.4 indistinguishable at small rate", gap <= budget,
            f"|{a.p_hat:.4f}-{b.p_hat:.4f}|={gap:.4f} <= {budget:.4f}")

    scarce, rich = curves[(5, 0.2)][0], curves[(5, 0.5)][0]
    excess_scarce = scarce.p_hat - ref.p_hat
    excess_rich = rich.p_hat - ref.p_hat
    floor_ok = (
        excess_scarce > scarce.ci_halfwidth + ref.ci_halfwidth
        and excess_rich <= rich.ci_halfwidth + ref.ci_halfwidth
    )
    verdict("eta 0.2 floors at small rate, eta 0.5 does not", floor_ok,
            f"excess(0.2)={excess_scarce:.4f} excess(0.5)={excess_rich:.4f} "
            f"reference={ref.p_hat:.4f}")

    few, many = curves[(5, 0.02)][0], curves[(20, 0.02)][0]
    sep_ok = many.p_hat + many.ci_halfwidth < few.p_hat - few.ci_halfwidth
    verdict("more relays lower the eta 0.02 floor", sep_ok,
            f"N=20: {many.p_hat:.4f}+{many.ci_halfwidth:.4f} < "
            f"N=5: {few.p_hat:.4f}-{few.ci_halfwidth:.4f}")


def test_4_preselection_size_sweet_spot():
    """An interior listener-count M* beats both extremes, CIs disjoint."""
    start = time.perf_counter()
    base = SimConfig(n_relays=10, policy="mrs", m=1, eta=0.05,
                     target_rate=1.0, n_slots=MESSAGES, seed=777)
    star = optimize_m(base)
    elapsed = time.perf_counter() - start
    by_m = {r.config.m: r.estimate for r in star.results}
    best, lo, hi = by_m[star.m_star], by_m[1], by_m[10]
    interior = 1 < star.m_star < 10
    beats_lo = best.p_hat + best.ci_halfwidth < lo.p_hat - lo.ci_halfwidth
    beats_hi = best.p_hat + best.ci_halfwidth < hi.p_hat - hi.ci_halfwidth
    verdict(
        "interior pre-selection optimum",
        interior and beats_lo and beats_hi and elapsed < 60.0,
        f"m_star={star.m_star} p={best.p_hat:.4f} vs M=1 {lo.p_hat:.4f} "
        f"and M=10 {hi.p_hat:.4f} time={elapsed:.1f}s",
    )


def test_5_policy_ordering_across_rates():
    """mrs(1) never worse than srs, mrs(M*) never worse than mrs(1)."""
    start = time.perf_counter()
    base = SimConfig(n_relays=10, eta=0.05, n_slots=MESSAGES, seed=777)
    report = compare_policies(base)   # 5-point rate grid
    elapsed = time.perf_counter() - start
    verdict(
        "policy ordering across the rate grid",
        len(report.rates) >= 5 and report.consistent and elapsed < 60.0,
        f"m_star={report.m_star} rates={report.rates} "
        f"single_ok={report.mrs_single_not_worse} "
        f"star_ok={report.mrs_star_not_worse} time={elapsed:.1f}s",
    )


class Candidate(NamedTuple):
    """One relay as the brute-force oracles see it."""

    id: int
    battery: float
    available: bool


def _brute_srs(view, cost):
    eligible = [c for c in view if c.available and c.battery >= cost]
    return max(eligible, key=lambda c: (c.battery, -c.id)).id if eligible else None


def _brute_preselect(view, m):
    ranked = sorted([c for c in view if c.available],
                    key=lambda c: (-c.battery, c.id))
    return {c.id for c in ranked[:m]}


def _brute_final(decoded, view, gains, rate):
    batteries = {c.id: c.battery for c in view}
    feasible = []
    for rid in decoded:
        cost = inversion_power(rate, gains[rid], 1.0, 1.0)
        if batteries[rid] >= cost:
            feasible.append((batteries[rid] - cost, -rid, rid))
    if not feasible:
        return None
    return max(feasible)[2]


def test_6_invariant_suite():
    """Energy ledger, battery sign, single transmitter; selections vs brute force."""
    rng = random.Random(606)
    slots = 0
    configs = 0
    while slots < 100_000:
        n = rng.randint(1, 12)
        policy = rng.choice(["srs", "mrs"])
        cfg = SimConfig(
            n_relays=n,
            policy=policy,
            m=rng.randint(1, n) if policy == "mrs" else None,
            target_rate=rng.choice([0.1, 0.5, 1.0, 2.0, 3.0]),
            eta=rng.choice([0.02, 0.1, 0.5, 1.0]),
            source_power_dbw=rng.choice([0.0, 10.0, 13.0]),
            relay_power_dbw=rng.choice([0.0, 10.0]),
            distance=rng.choice([1.0, 2.0]),
            slot_duration=rng.choice([0.5, 1.0, 2.0]),
            initial_energy=rng.choice([None, 0.0, 5.0, 50.0]),
            sense_threshold=rng.choice([0.0, 0.5]),
            n_slots=5000,
            seed=rng.randrange(2**32),
            schedule=rng.choice(["pipelined", "framed"]),
        )
        # every slot asserts the 1e-9 ledger, non-negative batteries,
        # and the single-transmitter rule
        run_trial(cfg, check_invariants=True)
        slots += cfg.n_slots + 1   # possible drain slot
        configs += 1
    verdict("slot invariants on randomized runs", True,
            f"{slots} slots across {configs} configs, ledger within 1e-9")

    mismatches = 0
    for _ in range(10_000):
        n = rng.randint(1, 8)
        view = [
            Candidate(i, rng.choice([0.0, 1.0, 2.0, rng.uniform(0, 10)]),
                      rng.random() < 0.8)
            for i in range(n)
        ]
        battery = [c.battery for c in view]
        busy = {c.id for c in view if not c.available}
        cost = rng.choice([0.0, 1.0, 2.0, rng.uniform(0, 12)])
        m = rng.randint(1, n)
        decoded = [c.id for c in view if rng.random() < 0.5]
        gains = [rng.choice([0.0, 0.3, rng.uniform(0, 5)]) for c in view]
        rate = rng.choice([0.5, 1.0, 2.0])
        energy = [inversion_power(rate, g, 1.0, 1.0) for g in gains]
        got = mrs_final_select(decoded, battery, energy)
        if (
            srs_select(battery, cost, busy) != _brute_srs(view, cost)
            or mrs_preselect(battery, m, busy) != sorted(_brute_preselect(view, m))
            or got != _brute_final(decoded, view, gains, rate)
        ):
            mismatches += 1
    verdict("selection rules match brute force", mismatches == 0,
            f"10000 instances (N <= 8), {mismatches} mismatches")


def test_7_determinism_and_replay(tmp_path):
    """Same config, same bytes: across reruns, worker counts, and replays."""
    run_args = ["run", "--policy", "mrs", "--m", "3", "--n", "6",
                "--eta", "0.2", "--messages", "1500", "--seed", "41"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*run_args, "--out", str(a)]) == 0
    assert main([*run_args, "--out", str(b)]) == 0
    rerun_ok = a.read_bytes() == b.read_bytes()

    sweep_args = ["sweep", "--policy", "mrs", "--m", "1", "--n", "6",
                  "--rates", "0.5,1.0,1.5,2.0", "--ms", "1,3,6",
                  "--messages", "1500", "--seed", "41"]
    blobs = []
    for w in ("1", "4", "8"):
        out = tmp_path / f"w{w}.csv"
        assert main([*sweep_args, "--workers", w, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    workers_ok = blobs[0] == blobs[1] == blobs[2]

    traces_ok = True
    scenarios = [
        ["--policy", "srs", "--n", "4"],
        ["--policy", "mrs", "--m", "2", "--n", "4"],
        ["--policy", "srs", "--n", "1", "--schedule", "framed"],
        ["--policy", "mrs", "--m", "3", "--n", "5", "--schedule", "framed"],
    ]
    for i, extra in enumerate(scenarios):
        trace = tmp_path / f"trace{i}.jsonl"
        out = tmp_path / f"t{i}.csv"
        assert main(["run", *extra, "--messages", "800", "--seed", str(50 + i),
                     "--out", str(out), "--trace", str(trace)]) == 0
        result = replay_check(trace)
        traces_ok = traces_ok and result.ok and main(["replay", str(trace)]) == 0

    verdict(
        "deterministic outputs and verified traces",
        rerun_ok and workers_ok and traces_ok,
        f"rerun={rerun_ok} workers_1_4_8={workers_ok} "
        f"replayed={len(scenarios)} traces ok={traces_ok}",
    )
