"""Outage estimation, parameter sweeps, and policy comparison.

Sweeps derive one child seed per grid point from the base seed, so results
do not depend on evaluation order or worker count. With crn=True (the
default) the derived seed ignores the axes of engine.BATCH_AXES, rate and
pre-selection size: every point along those axes then sees the identical
channel-gain field, which turns curve comparisons into paired ones and
makes the expected monotonic trends hold sharply at finite sample sizes.

A sweep runs as one job per gain field: the grid points that differ only
in rate and pre-selection size. A job of up to SCALAR_GROUP[policy] points
runs each on the scalar engine (engine.run_trial), which is faster there;
a larger one steps its points in lockstep (engine.run_batch). Jobs go to a
process pool only when there are two or more of them and more than one
worker; otherwise they run in this process. The pool machinery
(concurrent.futures, multiprocessing, logging) is imported only when a
sweep starts a pool, so no other command or caller loads it.
compare_policies is one mrs sweep over M = 1..N x rates (M* and both mrs
curves) plus the srs curve: two jobs on one gain field.

Every grid point runs for its base config's n_slots, as estimate_outage
does; engine.slots_for_messages turns a message budget into n_slots.

Both engines return a count of each Outcome per config, and _summarize is
the one place that turns such a count into an OutageEstimate. Configs
arrive validated: a SimConfig is checked when it is constructed, a run
with no post-warmup message included; the harness checks its own knobs
with engine.check_number, the rule a SimConfig's fields pass.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import InitVar, dataclass, replace
from typing import Sequence

import numpy as np

from swiptrelay.engine import (
    BATCH_AXES,
    MRS,
    POSITIVE_INT,
    SRS,
    Outcome,
    SimConfig,
    batch_key,
    check_number,
    run_batch,
    run_trial,
    slots_for_messages,
)
from swiptrelay.errors import ConfigError

# per policy, the largest job that runs as separate run_trial calls: on a
# 2-core VM a lockstep run of K = 2, 3, 4, 5 points costs 4.0x, 2.7x, 2.1x,
# 1.75x (srs, N = 5) and 2.1x, 1.43x, 1.08x, 0.92x (mrs, N = 10, M = 4)
# the K scalar runs; the break-even K falls as N grows (mrs, N = 20,
# M = 10: 0.92x at K = 3), so no one threshold fits every N (both wait
# for a bench workload of small groups that varies N)
SCALAR_GROUP = {SRS: 3, MRS: 2}

# a CI width in sigmas; an int past the largest float would overflow it
_Z = (lambda z: 0 < z <= sys.float_info.max, "finite and > 0")


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage probability with a z-sigma binomial halfwidth."""

    outages: int
    messages: int
    p_hat: float
    ci_halfwidth: float


def estimate_outage(
    config: SimConfig, z: float = 3.0, trace_path=None
) -> OutageEstimate:
    """Run one trial and summarize its post-warmup outage count."""
    check_number("z", z, False, _Z)
    return _summarize(run_trial(config, trace_path=trace_path), z)


def _summarize(tally: dict[Outcome, int], z: float) -> OutageEstimate:
    """Outage estimate from one config's count of each Outcome."""
    messages = sum(tally.values())
    outages = messages - tally[Outcome.SUCCESS]
    p_hat = outages / messages
    halfwidth = z * math.sqrt(p_hat * (1.0 - p_hat) / messages)
    return OutageEstimate(outages, messages, p_hat, halfwidth)


def derive_seed(base_seed: int, key: Sequence[int]) -> int:
    """Child seed for one grid point; stable in base seed and coordinates."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass
class SweepSpec:
    """A grid of scenarios around a base config.

    Axes left as None stay at the base value. Grid order is n_relays,
    then eta, then m, then rate (rate varies fastest). Every point keeps
    the base's n_slots, warmup_slots and schedule; messages, if given,
    sets the base's n_slots to the slots that many messages take.
    """

    base: SimConfig
    rates: Sequence[float] | None = None
    etas: Sequence[float] | None = None
    n_relays: Sequence[int] | None = None
    ms: Sequence[int] | None = None
    messages: InitVar[int | None] = None
    z: float = 3.0
    crn: bool = True   # share gain fields across the rate and m axes
    workers: int = 1

    def __post_init__(self, messages: int | None) -> None:
        if messages is not None:
            b = self.base
            self.base = replace(b, n_slots=slots_for_messages(messages, b.warmup_slots, b.schedule))


@dataclass(frozen=True)
class SweepResult:
    """One grid point: the exact config that ran and its estimate."""

    config: SimConfig
    estimate: OutageEstimate


# the grid's axes in grid order: each SweepSpec name and the field it sets
_GRID_AXES = (("n_relays", "n_relays"), ("etas", "eta"), ("ms", "m"), ("rates", "target_rate"))


def _grid_configs(spec: SweepSpec) -> list[SimConfig]:
    base = spec.base
    check_number("z", spec.z, False, _Z)
    check_number("workers", spec.workers, True, POSITIVE_INT)
    if spec.ms is not None and base.policy != MRS:
        raise ConfigError("ms axis requires policy 'mrs'")
    axes = []
    for name, field in _GRID_AXES:
        values = getattr(spec, name)
        axes.append([getattr(base, field)] if values is None else list(values))
        if not axes[-1]:
            raise ConfigError(f"{name} must be non-empty")
    # a seed key indexes every axis but, under crn, those sharing a gain field
    keyed = [not (spec.crn and field in BATCH_AXES) for _, field in _GRID_AXES]
    configs = []
    for point in itertools.product(*map(enumerate, axes)):
        key = [i for (i, _), use in zip(point, keyed) if use]
        values = {field: value for (_, field), (_, value) in zip(_GRID_AXES, point)}
        configs.append(replace(base, **values, seed=derive_seed(base.seed, key)))
    return configs


def _estimate_job(args: tuple[list[SimConfig], float]) -> list[OutageEstimate]:
    """Estimates for configs that share one gain field."""
    configs, z = args
    if len(configs) <= SCALAR_GROUP[configs[0].policy]:
        tallies = [run_trial(config) for config in configs]
    else:
        tallies = run_batch(configs)
    return [_summarize(tally, z) for tally in tallies]


def sweep(spec: SweepSpec) -> list[SweepResult]:
    """Estimate outage over the grid; result order matches grid order."""
    configs = _grid_configs(spec)
    # _GRID_AXES ends with BATCH_AXES, so a gain field's points are adjacent
    jobs = [(list(group), spec.z) for _, group in itertools.groupby(configs, batch_key)]
    if len(jobs) > 1 and spec.workers > 1:
        import logging
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=min(spec.workers, len(jobs))) as pool:
                per_job = list(pool.map(_estimate_job, jobs))
        except (OSError, BrokenProcessPool) as exc:
            # sandboxed environments may forbid subprocesses; results are
            # per-config deterministic, so serial execution is equivalent
            logging.getLogger(__name__).warning(
                "process pool failed (%s: %s); running %d jobs serially",
                type(exc).__name__, exc, len(jobs),
            )
            per_job = [_estimate_job(job) for job in jobs]
    else:
        per_job = [_estimate_job(job) for job in jobs]
    estimates = itertools.chain.from_iterable(per_job)
    return [SweepResult(cfg, est) for cfg, est in zip(configs, estimates)]


@dataclass(frozen=True)
class MStarResult:
    """Best pre-selection size and the per-size estimates behind it."""

    m_star: int
    results: list[SweepResult]


def _mrs_grid(base: SimConfig, ms: Sequence[int], rates: list[float], z: float,
              workers: int) -> tuple[int, list[list[SweepResult]]]:
    """One mrs sweep over ms x rates on one gain field. Returns M*, the size
    of least outage at base.target_rate (one of rates), and each size's row."""
    results = sweep(SweepSpec(base=replace(base, policy=MRS, m=ms[0]), rates=rates, ms=ms,
                              z=z, workers=workers))
    rows = [results[i:i + len(rates)] for i in range(0, len(results), len(rates))]
    at_base = rates.index(base.target_rate)
    best = min(range(len(ms)), key=lambda i: (rows[i][at_base].estimate.p_hat, ms[i]))
    return ms[best], rows


def optimize_m(
    base: SimConfig,
    m_values: Sequence[int] | None = None,
    z: float = 3.0,
    workers: int = 1,
) -> MStarResult:
    """Search pre-selection sizes for the lowest estimated outage.

    All sizes share one gain field (paired comparison); ties go to the
    smaller size, which also costs less coordination.
    """
    if m_values is None:
        m_values = range(1, base.n_relays + 1)
    m_values = list(m_values)
    if not m_values:
        raise ConfigError("m_values must be non-empty")
    m_star, rows = _mrs_grid(base, m_values, [base.target_rate], z, workers)
    return MStarResult(m_star, [row[0] for row in rows])


@dataclass(frozen=True)
class PolicyComparison:
    """Paired outage curves for the three selection variants."""

    rates: list[float]
    m_star: int
    srs: list[SweepResult]
    mrs_single: list[SweepResult]
    mrs_star: list[SweepResult]
    # per rate: estimate orderings hold up to the summed ci halfwidths
    mrs_single_not_worse: list[bool]
    mrs_star_not_worse: list[bool]

    @property
    def consistent(self) -> bool:
        return all(self.mrs_single_not_worse) and all(self.mrs_star_not_worse)


def compare_policies(
    base: SimConfig,
    rates: Sequence[float] | None = None,
    n_points: int = 5,
    z: float = 3.0,
    workers: int = 1,
) -> PolicyComparison:
    """Estimate outage vs rate for srs, mrs with M=1, and mrs with M=M*.

    One mrs sweep over M = 1..N x the rates gives M*, chosen at the base
    config's target rate (a column added if the rates lack it), and both
    mrs curves; one srs sweep gives the srs curve. Every point shares one
    gain field, so ordering checks are paired, and each config is the one
    optimize_m or a sweep of one curve would run.
    """
    if rates is None:
        check_number("n_points", n_points, True, (lambda n: isinstance(n, int), "an integer"),
                     (lambda n: n >= 2, ">= 2"))
        rates = np.linspace(0.5, 2.5, n_points).tolist()
    # refused as a sweep refuses it; float() keeps an int rate's CSV bytes
    rates = [float(check_number("target_rate", r, False)) for r in rates]
    if not rates:
        raise ConfigError("rates must be non-empty")
    grid_rates = rates if base.target_rate in rates else [*rates, base.target_rate]
    m_star, rows = _mrs_grid(base, range(1, base.n_relays + 1), grid_rates, z, workers)
    single, star = rows[0][:len(rates)], rows[m_star - 1][:len(rates)]
    srs = sweep(SweepSpec(replace(base, policy=SRS, m=None), rates, z=z, workers=workers))
    single_ok, star_ok = [], []
    for point in zip(srs, single, star):
        p_srs, p_one, p_star = (r.estimate for r in point)
        single_ok.append(p_one.p_hat <= p_srs.p_hat + p_one.ci_halfwidth + p_srs.ci_halfwidth)
        star_ok.append(p_star.p_hat <= p_one.p_hat + p_star.ci_halfwidth + p_one.ci_halfwidth)
    return PolicyComparison(rates=rates, m_star=m_star, srs=srs, mrs_single=single,
                            mrs_star=star, mrs_single_not_worse=single_ok,
                            mrs_star_not_worse=star_ok)
