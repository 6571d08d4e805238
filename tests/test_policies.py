"""Selection rules against plain brute-force enumerations.

The brute-force versions below re-derive each selection from its definition
with no shared code, so a bug in the fast path cannot hide in both.
"""

import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import advance, inversion_power, mrs_preselect, srs_select
from swiptrelay.channel import inversion_numerator
from swiptrelay.engine import SimConfig, _constants, _Trial, mrs_final_select


class Candidate(NamedTuple):
    """One relay as the brute-force oracles see it."""

    id: int
    battery: float
    available: bool


def _split(view):
    """The view as the selection rules take it: batteries by id, busy ids."""
    battery = [c.battery for c in sorted(view, key=lambda c: c.id)]
    return battery, {c.id for c in view if not c.available}


def brute_srs(view, fixed_cost):
    eligible = [c for c in view if c.available and c.battery >= fixed_cost]
    if not eligible:
        return None
    best = max(eligible, key=lambda c: (c.battery, -c.id))
    return best.id


def brute_preselect(view, m):
    ranked = sorted(
        [c for c in view if c.available], key=lambda c: (-c.battery, c.id)
    )
    return {c.id for c in ranked[:m]}


def brute_final(decoded_ids, view, gains, rate, sigma2, d, t):
    batteries = {c.id: c.battery for c in view}
    feasible = []
    for rid in decoded_ids:
        cost = inversion_power(rate, gains[rid], sigma2, d) * t
        if batteries[rid] >= cost:
            feasible.append((batteries[rid] - cost, -rid, rid, cost))
    if not feasible:
        return None
    margin, _, rid, cost = max(feasible)
    return rid, cost


def _random_view(rng, n):
    # coarse batteries force frequent exact ties
    return [
        Candidate(i, rng.choice([0.0, 1.0, 2.0, 5.0, rng.uniform(0, 10)]),
                  rng.random() < 0.8)
        for i in range(n)
    ]


def test_srs_picks_richest_affordable():
    assert srs_select([5.0, 9.0, 7.0], 6.0) == 1


def test_srs_skips_unavailable_and_poor():
    battery = [9.0, 3.0, 7.0]
    assert srs_select(battery, 5.0, busy={0}) == 2
    assert srs_select(battery, 8.0, busy={0}) is None


def test_srs_tie_breaks_to_lowest_id():
    battery = [5.0, 5.0, 5.0]
    assert srs_select(battery, 1.0) == 0
    assert srs_select(battery, 1.0, busy={0}) == 1


def test_srs_exact_affordability_counts():
    assert srs_select([5.0], 5.0) == 0


def test_preselect_takes_m_richest():
    assert mrs_preselect([1.0, 9.0, 4.0, 6.0], 2) == [1, 3]


def test_preselect_boundary_tie_to_lowest_id():
    assert mrs_preselect([5.0, 5.0, 9.0], 2) == [0, 2]


def test_preselect_clamps_to_available():
    assert mrs_preselect([5.0, 3.0], 2, busy={0}) == [1]


def _energy(gains, rate=1.0, slot_duration=1.0):
    """Each relay's inversion energy at unit noise and distance."""
    return [inversion_power(rate, g, 1.0, 1.0) * slot_duration for g in gains]


def test_final_select_maximizes_post_tx_margin():
    battery = [20.0, 20.0]
    gains = [0.3, 3.0]  # costs 10 and 1 at R = 1
    assert _energy(gains) == [pytest.approx(10.0), 1.0]
    assert mrs_final_select([0, 1], battery, _energy(gains)) == 1


def test_final_select_margin_beats_raw_battery():
    # relay 0 is richer but its inversion cost eats the advantage
    battery = [15.0, 12.0]
    gains = [0.3, 3.0]  # costs 10 and 1: margins 5 vs 11
    assert mrs_final_select([0, 1], battery, _energy(gains)) == 1


def test_final_select_skips_unaffordable_and_zero_gain():
    battery = [5.0, 30.0]
    gains = [0.3, 0.0]  # 0 cannot pay 10; 1 needs infinite power
    assert mrs_final_select([0, 1], battery, _energy(gains)) is None


def test_final_select_zero_gain_at_an_underflowing_rate():
    # the numerator underflows to 0, but the rate is not 0: the engine's
    # slot terms give a zero gain infinite power, which no decoder can pay
    assert inversion_numerator(1e-320, 1.0, 1.0) == 0.0
    for rate, want_energy, want_pick in ((1e-320, math.inf, None), (0.0, 0.0, 0)):
        trial = _Trial(SimConfig(n_relays=1, policy="mrs", m=1, target_rate=rate))
        _, _, _, power, energy = trial.slot_terms(np.array([[1.0, 0.0]]))[0]
        assert power == energy == [want_energy]
        assert mrs_final_select([0], [0.0], energy) == want_pick


def test_final_select_empty_decoders():
    assert mrs_final_select([], [], []) is None


def test_final_select_tie_breaks_to_lowest_id():
    battery = [20.0, 20.0]
    gains = [1.0, 1.0]
    assert mrs_final_select([1, 0], battery, _energy(gains)) == 0


def test_final_select_scales_cost_with_slot_duration():
    battery = [5.0]
    gains = [3.0]
    # power 1 W: affordable for 1 s (cost 1 J), not for 6 s (cost 6 J)
    assert mrs_final_select([0], battery, _energy(gains, slot_duration=1.0)) == 0
    assert mrs_final_select([0], battery, _energy(gains, slot_duration=6.0)) is None


def test_selection_matches_brute_force_on_random_instances():
    """10^4 random instances with N <= 8, exercising ties and edge cases."""
    rng = random.Random(20240817)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        view = _random_view(rng, n)
        battery, busy = _split(view)
        cost = rng.choice([0.0, 1.0, 2.0, 5.0, rng.uniform(0, 12)])
        assert srs_select(battery, cost, busy) == brute_srs(view, cost)

        m = rng.randint(1, n)
        assert mrs_preselect(battery, m, busy) == sorted(brute_preselect(view, m))

        decoded = [c.id for c in view if rng.random() < 0.5]
        gains = [rng.choice([0.0, 0.3, 1.0, rng.uniform(0, 5)]) for c in view]
        rate = rng.choice([0.5, 1.0, 2.0])
        got = mrs_final_select(decoded, battery, _energy(gains, rate))
        want = brute_final(decoded, view, gains, rate, 1.0, 1.0, 1.0)
        assert got == (None if want is None else want[0])


@given(
    batteries=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8
    ),
    cost=st.floats(min_value=0.0, max_value=120.0),
)
def test_srs_selection_is_order_invariant(batteries, cost):
    """Relabeling the relays never changes the selected battery."""
    pick = srs_select(batteries, cost)
    mirrored = batteries[::-1]
    mirrored_pick = srs_select(mirrored, cost)
    assert (mirrored_pick is None) == (pick is None)
    if pick is not None:
        assert batteries[pick] >= cost
        assert mirrored[mirrored_pick] == batteries[pick]


@given(
    batteries=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8
    ),
    m=st.integers(min_value=1, max_value=8),
)
def test_preselect_never_drops_a_strictly_richer_relay(batteries, m):
    chosen = mrs_preselect(batteries, m)
    assert len(chosen) == min(m, len(batteries))
    assert chosen == sorted(chosen)
    floor = min((batteries[i] for i in chosen), default=-math.inf)
    for rid, battery in enumerate(batteries):
        if rid not in chosen:
            assert battery <= floor


@st.composite
def designate_cases(draw):
    """A pipelined slot's batteries before FORWARD, tied often and at or one
    ulp either side of the fixed srs cost, with the relay that forwards
    this slot, if any."""
    n = draw(st.integers(1, 8))
    policy = draw(st.sampled_from(["srs", "mrs"]))
    m = draw(st.integers(1, n)) if policy == "mrs" else None
    cfg = SimConfig(n_relays=n, policy=policy, m=m, n_slots=4)
    cost = _constants(cfg).fixed_cost
    values = [0.0, math.nextafter(cost, 0.0), cost, math.nextafter(cost, math.inf), 25.0]
    battery = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    # an srs forwarder was designated because it could pay
    payers = [rid for rid, b in enumerate(battery) if policy == "mrs" or b >= cost]
    forwarder = draw(st.none() | st.sampled_from(payers)) if payers else None
    return cfg, battery, forwarder


@settings(max_examples=300, deadline=None)
@given(case=designate_cases())
def test_the_engine_designates_as_the_public_rules(case):
    """One slot through the engine designates what srs_select or
    mrs_preselect picks from the batteries after its FORWARD, the forwarder
    busy: the N = 1 relay that forwards leaves no listener."""
    cfg, battery, forwarder = case
    n = cfg.n_relays
    trial = _Trial(cfg)
    trial.battery[:] = battery
    if forwarder is not None:  # message 0 awaits its forward by this decoder
        trial.pending, trial.next_message = (0, (forwarder,)), 1
    gains = [9.0] * n  # every listener decodes; an mrs forward costs 1/3 J
    _, paid_by, _, designated, decoded = advance(trial, 1, gains, gains)
    after = list(battery)
    busy = ()
    if paid_by is not None:
        energy = trial.slot_terms(np.array([gains + gains]))[0][4]
        after[paid_by] -= energy[paid_by]
        busy = (paid_by,)
    if cfg.policy == "srs":
        assert paid_by == forwarder
        pick = srs_select(after, _constants(cfg).fixed_cost, busy)
        assert designated == ([] if pick is None else [pick])
    else:
        assert designated == mrs_preselect(after, cfg.m, busy)
    assert decoded == designated
