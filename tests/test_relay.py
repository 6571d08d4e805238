"""The relay battery ledger, driven through the engine.

Each relay is one float in _Trial.battery. In a broadcast slot an idle
relay gains eta * Ps * g * slot_duration / d^2 (nothing below the sense
threshold); the forwarder pays its transmission energy and harvests
nothing; listeners neither pay nor harvest. At the default operating point
(eta = 0.5, Ps = Pr = 10 W, sigma2 = 1, d = 1, R = 1) an idle relay gains
5 * g joules, the srs forward costs 10 J, and the mrs forward costs 3 / g_ld.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import advance, step
from swiptrelay.engine import Outcome, SimConfig, _Trial

HI = 9.0   # comfortably above every threshold used here
LO = 0.01  # comfortably below


def _idle(**kw):
    """srs trial in which nobody can pay, so every relay harvests."""
    kw.setdefault("n_relays", 2)
    kw.setdefault("initial_energy", 0.0)
    return _Trial(SimConfig(policy="srs", schedule="pipelined", **kw).validate())


def _battery_after(trial, g_sl):
    resolved, rec = step(trial, 0, g_sl, [HI] * len(g_sl), check=True)
    assert resolved == [(0, Outcome.NO_CANDIDATE)]
    return rec["battery"]


def test_harvest_amount_known_point():
    # 0.5 * 10 W * 0.3 * 1 s / 1 m^2 = 1.5 J; a zero gain yields nothing
    assert _battery_after(_idle(), [0.3, 0.0]) == [pytest.approx(1.5), 0.0]


def test_harvest_amount_distance_and_duration():
    trial = _idle(slot_duration=2.0, distance=2.0)
    assert _battery_after(trial, [0.3, 0.0]) == [pytest.approx(0.5 * 10 * 0.3 * 2.0 / 4.0), 0.0]


def test_harvest_sense_threshold_gates_small_signals():
    trial = _idle(n_relays=3, sense_threshold=1.0)
    # 0.5 J is below the threshold; 5 * 0.2 is exactly 1.0 J and is kept
    assert _battery_after(trial, [0.1, 0.2, 0.3]) == [0.0, 1.0, pytest.approx(1.5)]


def test_eta_zero_harvests_nothing():
    # eta = 0 is a legal degenerate scenario (nothing ever harvested)
    assert _battery_after(_idle(eta=0.0), [5.0, HI]) == [0.0, 0.0]


def test_credit_accumulates():
    trial = _idle()
    for slot, gain in enumerate((0.5, 0.0, 0.2)):
        _, rec = step(trial, slot, [gain, 0.0], [HI, HI], check=True)
    assert rec["battery"] == [pytest.approx(5.0 * 0.7), 0.0]


def test_credit_rejects_transmitting_relay():
    """The pipelined forwarder misses the broadcast and harvests nothing."""
    trial = _Trial(SimConfig(n_relays=3, schedule="pipelined").validate())
    advance(trial, 0, [0.5, 0.4, 0.2], [HI] * 3, check=True)   # relay 0 listens
    resolved, rec = step(trial, 1, [HI] * 3, [HI] * 3, check=True)
    assert resolved == [(0, Outcome.SUCCESS)]
    assert (rec["forwarder"], rec["designated"]) == (0, [1])
    # forwarder: 100 - 10, no harvest; listener 1: as after slot 0; idle 2 gains 5 * HI
    assert rec["battery"] == [90.0, 102.0, pytest.approx(101.0 + 5.0 * HI)]


@settings(max_examples=30, deadline=None)
@given(
    gains=st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3),
    eta=st.floats(0.0, 1.0),
    sense=st.sampled_from([0.0, 0.5, 5.0]),
)
def test_credit_rejects_negative_amount(gains, eta, sense):
    """A harvest never lowers a battery."""
    trial = _idle(n_relays=3, eta=eta, sense_threshold=sense)
    assert all(b >= 0.0 for b in _battery_after(trial, gains))


def test_debit_spends_when_affordable():
    # mrs pays its inversion energy: power 3 / 0.5 = 6 W for 0.5 s
    trial = _Trial(SimConfig(n_relays=2, policy="mrs", m=1, eta=0.0, slot_duration=0.5,
                             schedule="framed").validate())
    advance(trial, 0, [0.5, LO], [HI, HI])
    resolved, rec = step(trial, 1, [LO, LO], [0.5, HI], check=True)
    assert resolved == [(0, Outcome.SUCCESS)]
    assert rec["tx_power"] == 6.0
    assert rec["battery"] == [50.0 - 3.0, 50.0]


def test_debit_allows_exact_sufficiency():
    trial = _Trial(SimConfig(n_relays=2, policy="mrs", m=1, eta=0.0, initial_energy=6.0,
                             schedule="framed").validate())
    advance(trial, 0, [0.5, LO], [HI, HI])
    resolved, rec = step(trial, 1, [LO, LO], [0.5, HI], check=True)
    assert resolved == [(0, Outcome.SUCCESS)]
    assert rec["battery"] == [0.0, 6.0]


def test_debit_refuses_and_leaves_battery_untouched():
    trial = _Trial(SimConfig(n_relays=2, policy="mrs", m=1, eta=0.0, initial_energy=6.0,
                             schedule="framed").validate())
    advance(trial, 0, [0.5, LO], [HI, HI])
    # cost 3 / 0.4999999 is a hair above the 6 J battery
    resolved, rec = step(trial, 1, [LO, LO], [0.4999999, HI], check=True)
    assert resolved == [(0, Outcome.NO_FEASIBLE_POWER)]
    assert rec["forwarder"] is None
    assert rec["battery"] == [6.0, 6.0]


def test_debit_rejects_negative_cost():
    """At rate 0 the inversion power is 0: the forward spends nothing."""
    trial = _Trial(SimConfig(n_relays=2, policy="mrs", m=1, eta=0.0, target_rate=0.0,
                             initial_energy=0.0, schedule="framed").validate())
    advance(trial, 0, [LO, LO], [HI, HI])
    resolved, rec = step(trial, 1, [LO, LO], [LO, HI], check=True)
    assert resolved == [(0, Outcome.SUCCESS)]
    assert (rec["forwarder"], rec["tx_power"], rec["battery"]) == (0, 0.0, [0.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(["srs", "mrs"]),
    initial_energy=st.sampled_from([0.0, 3.0, 10.0, 20.0]),
    eta=st.sampled_from([0.0, 0.05, 0.5]),
    rate=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    gains=st.lists(st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6),
                   min_size=1, max_size=30),
)
def test_battery_never_goes_negative(policy, initial_energy, eta, rate, gains):
    """Harvests and forwards over any gains leave every battery >= 0."""
    cfg = SimConfig(n_relays=3, policy=policy, m=2 if policy == "mrs" else None,
                    initial_energy=initial_energy, eta=eta, target_rate=rate,
                    n_slots=len(gains)).validate()
    trial = _Trial(cfg)
    for slot, row in enumerate(gains + [[0.0] * 6]):
        _, rec = step(trial, slot, row[:3], row[3:], check=True)
        assert min(rec["battery"]) >= 0.0
