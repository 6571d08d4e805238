"""Slot semantics, message accounting, determinism, and trace replay.

Micro-scenarios step _Trial.run one slot at a time on hand-picked gains
(oracles.advance) and read each slot's trace record from oracles.record.
At the default operating point (R = 1, P = 10 W, sigma2 = 1, d = 1) the
decode and forward gain thresholds are both 0.3, the srs transmission
costs 10 J, the default battery starts at 100 J, and an idle relay
harvests 5 * gain joules per broadcast.
"""

import base64
import json
import math
import shutil
import tempfile
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import advance, step
from swiptrelay import engine
from swiptrelay.channel import MAX_GAIN, draw_gain, gain_stream
from swiptrelay.engine import (
    GAIN_ULPS,
    Outcome,
    ReplayResult,
    SimConfig,
    _constants,
    _gain_draws,
    _Trial,
    replay_check,
    run_batch,
    run_trial,
    slots_for_messages,
)
from swiptrelay.errors import ConfigError, InvariantError

HI = 9.0   # comfortably above every threshold used here
LO = 0.01  # comfortably below


def srs_cfg(**kw):
    kw.setdefault("n_relays", 2)
    kw.setdefault("schedule", "framed")
    return SimConfig(policy="srs", **kw).validate()


def mrs_cfg(**kw):
    kw.setdefault("n_relays", 3)
    kw.setdefault("m", 2)
    kw.setdefault("schedule", "framed")
    return SimConfig(policy="mrs", **kw).validate()


# -- config validation and accounting ---------------------------------------


@pytest.mark.parametrize(
    "kw,key",
    [
        (dict(n_relays=0), "n_relays"),
        (dict(policy="both"), "policy"),
        (dict(policy="mrs"), "m"),
        (dict(policy="mrs", m=0), "m"),
        (dict(policy="mrs", m=6), "m"),
        (dict(policy="srs", m=2), "m"),
        (dict(target_rate=-1.0), "target_rate"),
        (dict(eta=1.5), "eta"),
        (dict(eta=-0.01), "eta"),
        (dict(noise_var=0.0), "noise_var"),
        (dict(distance=0.0), "distance"),
        (dict(slot_duration=0.0), "slot_duration"),
        (dict(initial_energy=-1.0), "initial_energy"),
        (dict(sense_threshold=-1.0), "sense_threshold"),
        (dict(n_slots=0), "n_slots"),
        (dict(warmup_slots=-1), "warmup_slots"),
        (dict(n_slots=10, warmup_slots=10), "warmup_slots"),
        (dict(seed=-1), "seed"),
        (dict(seed=2**64), "seed"),
        (dict(schedule="duplex"), "schedule"),
        # not a number, or a bool, where a number belongs
        (dict(target_rate="abc"), "target_rate must be a number"),
        (dict(eta=None), "eta must be a number"),
        (dict(distance=[1.0]), "distance must be a number"),
        (dict(n_relays=True), "n_relays must be a number"),
        (dict(policy="mrs", m=False), "m must be a number"),
        (dict(initial_energy="5"), "initial_energy must be a number"),
        (dict(seed="1"), "seed must be a number"),
        # a count too large to run, refused as such
        (dict(n_slots=10**400), "n_slots must be at most"),
        # two framed slots broadcast once, and the warmup swallows it
        (dict(n_slots=2, warmup_slots=1, schedule="framed"), "warmup_slots out of range"),
        # the message count reads the schedule, so a bad one is named first
        (dict(n_slots=2, warmup_slots=1, schedule="duplex"), "^schedule"),
        # an unhashable value is refused, not a TypeError
        (dict(schedule=["framed"]), "^schedule"),
        # negative values past a bound of 0
        (dict(eta=-0.1), "eta"),
        (dict(noise_var=-1.0), "noise_var"),
        (dict(distance=-2.0), "distance"),
    ],
)
def test_config_validation_names_offending_key(kw, key):
    with pytest.raises(ConfigError, match=key):
        SimConfig(**kw).validate()


# each integer field's refusal of a Python float, byte for byte
INT_REFUSALS = {
    "n_relays": "n_relays must be a positive integer, got 2.5",
    "m": "m must be an integer in [1, n_relays], got 2.5",
    "n_slots": "n_slots must be a positive integer, got 2.5",
    "warmup_slots": "warmup_slots must be a non-negative integer, got 2.5",
    "seed": "seed must be a 64-bit unsigned integer, got 2.5",
}


@pytest.mark.parametrize("key", INT_REFUSALS)
def test_config_validation_names_the_type_of_a_numpy_integer(key):
    # numpy's int64 prints as bare digits, which would read as a refused
    # valid count: the refusal names its type
    kw = dict(policy="mrs", m=1)
    with pytest.raises(ConfigError, match=rf"^{key} must be a Python int, got 1 \(int64\)$"):
        SimConfig(**{**kw, key: np.int64(1)})
    with pytest.raises(ConfigError) as refused:
        SimConfig(**{**kw, key: 2.5})
    assert str(refused.value) == INT_REFUSALS[key]


NUMBER_FIELDS = [f.name for f in fields(SimConfig) if f.type != "str"]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("key", NUMBER_FIELDS)
def test_config_validation_names_the_key_of_an_integer_too_long_to_print(key, sign):
    # str() of an int over 4300 digits raises ValueError; the refusal must not
    kw = {key: sign * 10**5000}
    if key == "m":
        kw["policy"] = "mrs"
    with pytest.raises(ConfigError, match=f"^{key} out of range: an integer of 16610 bits$"):
        SimConfig(**kw)


FLOAT_FIELDS = [f.name for f in fields(SimConfig) if "float" in str(f.type)]


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf,
     # a Real that is not a float: each slipped past a float-only check
     pytest.param(np.float32("nan"), id="float32-nan"),
     pytest.param(np.float32("inf"), id="float32-inf")],
)
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_config_validation_refuses_non_finite_floats(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        SimConfig(**{key: value}).validate()


@pytest.mark.parametrize(
    "kw,key",
    [
        (dict(source_power_dbw=4000.0), "source_power_dbw"),    # watts overflow
        (dict(source_power_dbw=-4000.0), "source_power_dbw"),   # watts underflow to 0
        (dict(relay_power_dbw=-4000.0), "relay_power_dbw"),
        (dict(distance=1e-200), "distance"),                    # square underflows to 0
        (dict(distance=1e200), "distance"),                     # square overflows
        (dict(target_rate=600.0), "target_rate"),               # 2**(2R) overflows
    ],
)
def test_config_validation_refuses_out_of_range_derived_constants(kw, key):
    with pytest.raises(ConfigError, match=key):
        SimConfig(**kw).validate()


@pytest.mark.parametrize(
    "kw,key",
    [
        (dict(relay_power_dbw=3000.0, slot_duration=1e300), "slot_duration"),  # fixed cost
        (dict(noise_var=1e300, distance=1e150), "noise_var"),   # inversion numerator
        (dict(target_rate=500.0, source_power_dbw=-100.0), "source_power_dbw"),  # threshold
        (dict(target_rate=500.0, relay_power_dbw=-100.0), "relay_power_dbw"),
        (dict(relay_power_dbw=3080.0), "initial_energy"),       # 10 x 1e308 J
        # one harvest of a large gain overflows a battery
        (dict(source_power_dbw=3080.0),
         "eta, source_power_dbw, slot_duration, distance and n_slots"),
    ],
)
def test_config_validation_refuses_non_finite_engine_constants(kw, key):
    with pytest.raises(ConfigError, match=key):
        SimConfig(**kw).validate()
    with pytest.raises(ConfigError, match=key):
        run_trial(SimConfig(n_slots=5, **kw))


def test_config_validation_accepts_extreme_but_representable_values():
    # the short slot keeps 1e300 W over a 1e-300 path loss from filling a
    # battery past the largest float
    cfg = SimConfig(source_power_dbw=3000.0, relay_power_dbw=-3000.0,
                    distance=1e-150, target_rate=500.0, slot_duration=1e-300,
                    n_slots=20).validate()
    assert sum(run_trial(cfg).values()) == cfg.broadcasts(cfg.n_slots)


def test_config_is_validated_on_construction_and_replace():
    with pytest.raises(ConfigError, match="eta"):
        SimConfig(eta=1.5)
    with pytest.raises(ConfigError, match="warmup_slots"):
        SimConfig.from_dict({"n_slots": 5, "warmup_slots": 5})
    cfg = SimConfig(n_slots=100)
    for kw, key in (
        (dict(eta=1.5), "eta"),
        (dict(policy="mrs"), "m"),
        (dict(n_slots=0), "n_slots"),
        (dict(warmup_slots=100), "warmup_slots"),
        (dict(distance=math.nan), "distance"),
        (dict(source_power_dbw=3080.0), "source_power_dbw"),
    ):
        with pytest.raises(ConfigError, match=key):
            replace(cfg, **kw)
    assert replace(cfg, policy="mrs", m=2).m == 2


def test_config_is_frozen():
    cfg = SimConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.eta = 1.5
    with pytest.raises(FrozenInstanceError):
        cfg.n_slots = 0
    assert cfg == SimConfig()


def test_config_derived_quantities():
    k = _constants(SimConfig())
    assert k.harvest_scale == pytest.approx(0.5 * 10.0)  # eta x source power
    assert k.tx_power == pytest.approx(10.0)
    assert k.fixed_cost == pytest.approx(10.0)
    assert k.initial_energy == pytest.approx(100.0)  # 10 transmissions
    assert _constants(SimConfig(initial_energy=7.0)).initial_energy == 7.0


def test_message_accounting_pipelined():
    cfg = SimConfig(n_slots=6, warmup_slots=3)
    assert cfg.broadcasts(cfg.n_slots) == 6
    assert cfg.message_count() == 3
    assert slots_for_messages(3, 3, "pipelined") == 6


@pytest.mark.parametrize("schedule", ["duplex", ["framed"]])
def test_slots_for_messages_refuses_an_unknown_schedule(schedule):
    with pytest.raises(ConfigError, match="^schedule must be 'pipelined' or 'framed', got "):
        slots_for_messages(3, 0, schedule)


def test_message_accounting_framed():
    cfg = SimConfig(n_slots=8, warmup_slots=3, schedule="framed")
    assert cfg.broadcasts(cfg.n_slots) == 4       # broadcasts on slots 0, 2, 4, 6
    assert cfg.broadcasts(cfg.warmup_slots) == 2  # slots 0 and 2 fall in the warmup
    assert cfg.message_count() == 2
    for messages in (1, 2, 7):
        for warmup in (0, 1, 4):
            n_slots = slots_for_messages(messages, warmup, "framed")
            got = SimConfig(n_slots=n_slots, warmup_slots=warmup, schedule="framed")
            assert got.message_count() == messages


def test_config_round_trips_through_dict():
    cfg = mrs_cfg(seed=9, eta=0.25)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError, match="bogus"):
        SimConfig.from_dict({"bogus": 1})


# -- srs slot semantics ------------------------------------------------------


def test_srs_designates_then_forwards_and_debits():
    trial = _Trial(srs_cfg())
    resolved, rec = step(trial, 0, [0.5, 0.2], [HI, HI])
    assert resolved == []
    assert rec["designated"] == [0]      # battery tie breaks to id 0
    assert rec["decoded"] == [0]         # 0.5 >= 0.3
    assert rec["battery"] == [100.0, 101.0]  # listener no harvest; idle +5*0.2

    resolved, rec = step(trial, 1, [LO, LO], [0.5, HI])
    assert resolved == [(0, Outcome.SUCCESS)]
    assert rec["forwarder"] == 0
    assert rec["tx_power"] == 10.0
    assert rec["battery"] == [90.0, 101.0]  # fixed 10 J spent; no broadcast slot


def test_srs_relay_decode_failure_spends_nothing():
    trial = _Trial(srs_cfg())
    resolved, rec = step(trial, 0, [LO, 0.2], [HI, HI])
    # outage resolves immediately, "without making a transmission"
    assert resolved == [(0, Outcome.DECODE_FAIL)]
    assert rec["battery"] == [100.0, 101.0]
    assert trial.pending is None


def test_srs_destination_failure_still_spends_energy():
    trial = _Trial(srs_cfg())
    advance(trial, 0, [0.5, 0.2], [HI, HI])
    resolved, rec = step(trial, 1, [LO, LO], [0.29, HI])
    assert resolved == [(0, Outcome.DECODE_FAIL)]
    assert rec["battery"] == [90.0, 101.0]  # relay lacked CSI, energy is gone


def test_srs_no_candidate_when_nobody_can_pay():
    trial = _Trial(srs_cfg(initial_energy=9.9))
    resolved, rec = step(trial, 0, [0.4, 0.2], [HI, HI])
    assert resolved == [(0, Outcome.NO_CANDIDATE)]
    assert rec["designated"] == []
    # with no listener, every relay harvests
    assert rec["battery"] == [pytest.approx(9.9 + 2.0), pytest.approx(9.9 + 1.0)]


def test_srs_exact_battery_is_enough():
    trial = _Trial(srs_cfg(initial_energy=10.0, eta=0.0))
    advance(trial, 0, [0.5, 0.2], [HI, HI])
    resolved, rec = step(trial, 1, [LO, LO], [HI, HI])
    assert resolved == [(0, Outcome.SUCCESS)]
    assert rec["battery"] == [0.0, 10.0]


def test_pipelined_forwarder_misses_the_next_broadcast():
    trial = _Trial(srs_cfg(schedule="pipelined"))
    advance(trial, 0, [0.5, 0.2], [HI, HI])
    resolved, rec = step(trial, 1, [0.5, 0.4], [HI, HI])
    # relay 0 forwards message 0 and is excluded from designation
    assert (0, Outcome.SUCCESS) in resolved
    assert rec["forwarder"] == 0
    assert rec["designated"] == [1]


# -- mrs slot semantics ------------------------------------------------------


def test_mrs_preselects_listeners_and_inverts_power():
    trial = _Trial(mrs_cfg())
    resolved, rec = step(trial, 0, [0.5, LO, 0.4], [HI, HI, HI])
    assert resolved == []
    assert rec["designated"] == [0, 1]   # ties break low; relay 2 harvests
    assert rec["decoded"] == [0]
    assert rec["battery"] == [100.0, 100.0, 102.0]

    resolved, rec = step(trial, 1, [LO, LO, LO], [1.0, HI, HI])
    assert resolved == [(0, Outcome.SUCCESS)]
    assert rec["forwarder"] == 0
    assert rec["tx_power"] == pytest.approx(3.0)   # (2^2-1)/1.0
    assert rec["battery"] == [97.0, 100.0, 102.0]


def test_mrs_picks_decoder_with_best_post_tx_margin():
    trial = _Trial(mrs_cfg())
    advance(trial, 0, [0.5, 0.5, LO], [HI, HI, HI])
    # costs: relay 0 pays 3/0.3 = 10, relay 1 pays 3/3.0 = 1
    resolved, rec = step(trial, 1, [LO, LO, LO], [0.3, 3.0, HI])
    assert resolved == [(0, Outcome.SUCCESS)]
    assert rec["forwarder"] == 1
    assert rec["battery"] == [100.0, 99.0, pytest.approx(100.05)]


def test_mrs_empty_decode_set_is_an_outage():
    trial = _Trial(mrs_cfg())
    advance(trial, 0, [LO, LO, 0.4], [HI, HI, HI])
    resolved, rec = step(trial, 1, [LO, LO, LO], [HI, HI, HI])
    assert resolved == [(0, Outcome.NO_DECODER)]
    assert rec["forwarder"] is None
    assert rec["battery"] == [100.0, 100.0, 102.0]


def test_mrs_unaffordable_inversion_is_an_outage_without_spending():
    trial = _Trial(mrs_cfg(initial_energy=1.0))
    advance(trial, 0, [0.5, 0.5, LO], [HI, HI, HI])
    # both decoders need 3/0.1 = 30 J against 1 J batteries
    resolved, rec = step(trial, 1, [LO, LO, LO], [0.1, 0.1, HI])
    assert resolved == [(0, Outcome.NO_FEASIBLE_POWER)]
    assert rec["battery"][0] == 1.0 and rec["battery"][1] == 1.0


def test_mrs_zero_destination_gain_is_infeasible_not_fatal():
    trial = _Trial(mrs_cfg(m=1))
    advance(trial, 0, [0.5, LO, LO], [HI, HI, HI])
    resolved = advance(trial, 1, [LO, LO, LO], [0.0, HI, HI])[0]
    assert resolved == [(0, Outcome.NO_FEASIBLE_POWER)]


@pytest.mark.parametrize("rate,outcome,forwarder,power", [
    (0.0, Outcome.SUCCESS, 0, 0.0),
    (1e-320, Outcome.NO_FEASIBLE_POWER, None, None),
])
def test_mrs_zero_gain_at_an_underflowing_rate(rate, outcome, forwarder, power):
    """At rate 1e-320 the inversion numerator underflows to 0, as at rate
    0, yet a zero gain still needs infinite power: only rate 0 forwards a
    lone decoder's message over it, for free."""
    trial = _Trial(mrs_cfg(m=1, target_rate=rate, initial_energy=0.0))
    advance(trial, 0, [0.5, LO, LO], [HI, HI, HI])
    resolved, rec = step(trial, 1, [LO, LO, LO], [0.0, HI, HI])
    assert resolved == [(0, outcome)]
    assert (rec["forwarder"], rec["tx_power"]) == (forwarder, power)


def test_mrs_gamma_members_do_not_harvest():
    trial = _Trial(mrs_cfg(m=3))
    _, rec = step(trial, 0, [HI, HI, HI], [HI, HI, HI])
    # every relay listens, so nobody harvests despite huge gains
    assert rec["battery"] == [100.0, 100.0, 100.0]


# -- schedules, warmup, determinism -----------------------------------------


def _message_outcomes(cfg, trace):
    """(message, Outcome) of each post-warmup message in resolution order,
    read from the trace of a run, after checking them against its count."""
    tally = run_trial(cfg, trace_path=trace)
    warmup = cfg.broadcasts(cfg.warmup_slots)
    pairs = [
        (msg, Outcome(value))
        for line in trace.read_text().splitlines()[1:]
        for msg, value in json.loads(line)["outcomes"]
        if msg >= warmup
    ]
    assert tally == {outcome: sum(r is outcome for _, r in pairs) for outcome in Outcome}
    return pairs


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_slots=300, seed=3),
        dict(n_slots=301, seed=4, schedule="framed"),
        dict(n_slots=300, warmup_slots=57, seed=5, eta=0.05),
        dict(n_slots=301, warmup_slots=57, seed=6, schedule="framed"),
        dict(n_relays=4, policy="mrs", m=2, n_slots=300, warmup_slots=20, seed=7, eta=0.05),
    ],
)
def test_run_trial_counts_every_post_warmup_message(kw):
    cfg = SimConfig(**kw)
    tally = run_trial(cfg)
    assert list(tally) == list(Outcome)
    assert all(type(count) is int for count in tally.values())
    assert sum(tally.values()) == cfg.message_count()


def test_pipelined_yields_one_message_per_slot(tmp_path):
    outcomes = _message_outcomes(SimConfig(n_slots=7, seed=1), tmp_path / "t.jsonl")
    assert [msg for msg, _ in outcomes] == list(range(7))


def test_framed_yields_one_message_per_two_slots(tmp_path):
    cfg = SimConfig(n_slots=8, seed=1, schedule="framed")
    assert [msg for msg, _ in _message_outcomes(cfg, tmp_path / "t.jsonl")] == list(range(4))


def test_framed_odd_slot_count_drains_the_last_message(tmp_path):
    trace = tmp_path / "t.jsonl"
    # target_rate 0 makes the decode certain, so the broadcast always
    # leaves a pending message for the drain slot to resolve
    cfg = SimConfig(n_slots=1, seed=3, schedule="framed", n_relays=1,
                    initial_energy=1e6, target_rate=0.0)
    assert sum(run_trial(cfg, trace_path=trace).values()) == 1
    lines = trace.read_text().splitlines()
    # header + broadcast slot + forward-only drain slot
    assert len(lines) == 3
    assert json.loads(lines[2])["slot"] == 1
    assert replay_check(trace).ok


def test_warmup_discards_early_messages(tmp_path):
    cfg = SimConfig(n_slots=10, warmup_slots=4, seed=2)
    outcomes = _message_outcomes(cfg, tmp_path / "p.jsonl")
    assert [msg for msg, _ in outcomes] == [4, 5, 6, 7, 8, 9]
    framed = SimConfig(n_slots=10, warmup_slots=3, seed=2, schedule="framed")
    assert [msg for msg, _ in _message_outcomes(framed, tmp_path / "f.jsonl")] == [2, 3, 4]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3),
    policy=st.sampled_from(["srs", "mrs"]),
    schedule=st.sampled_from(["pipelined", "framed"]),
    n_slots=st.integers(1, 60),
    data=st.data(),
)
def test_a_traced_run_resolves_each_broadcast_once(n, policy, schedule, n_slots, data):
    """The count of broadcasts is the loop's: a run resolves exactly the
    messages 0 .. broadcasts(n_slots) - 1, and tallies message_count()."""
    # every warmup that leaves a post-warmup message: a framed run of even
    # n_slots broadcasts last in slot n_slots - 2
    last_warmup = n_slots - 1 if schedule == "pipelined" else (n_slots - 1) // 2 * 2
    cfg = SimConfig(
        n_relays=n, policy=policy, m=1 if policy == "mrs" else None, schedule=schedule,
        n_slots=n_slots, warmup_slots=data.draw(st.integers(0, last_warmup)),
        eta=data.draw(st.sampled_from([0.02, 0.5])), seed=data.draw(st.integers(0, 2**32)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "t.jsonl"
        tally = run_trial(cfg, trace_path=trace)
        records = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
    resolved = sorted(msg for rec in records for msg, _ in rec["outcomes"])
    assert resolved == list(range(cfg.broadcasts(cfg.n_slots)))
    assert sum(tally.values()) == cfg.message_count()


def test_run_trial_is_deterministic(tmp_path):
    cfg = mrs_cfg(n_slots=400, seed=77, schedule="pipelined")
    assert run_trial(cfg) == run_trial(cfg)
    a = _message_outcomes(cfg, tmp_path / "a.jsonl")
    assert a == _message_outcomes(cfg, tmp_path / "b.jsonl")


def test_different_seeds_differ(tmp_path):
    a = _message_outcomes(SimConfig(n_slots=200, seed=1), tmp_path / "a.jsonl")
    b = _message_outcomes(SimConfig(n_slots=200, seed=2), tmp_path / "b.jsonl")
    assert a != b


def test_same_seed_same_gain_field_across_rates(tmp_path):
    """Changing the target rate must not perturb the drawn channel gains."""
    gains = {}
    for rate in (0.5, 2.0):
        cfg = SimConfig(n_slots=50, seed=5, target_rate=rate)
        gains[rate] = np.concatenate(list(_gain_draws(cfg)))
        # replay steps on these rows, so an ok replay ties the run to them
        trace = tmp_path / f"r{rate}.jsonl"
        run_trial(cfg, trace_path=trace)
        assert replay_check(trace).ok
    assert gains[0.5].tobytes() == gains[2.0].tobytes()


def test_per_message_outage_monotone_in_rate_when_selection_is_fixed(tmp_path):
    """Framed single-relay: each message is an isolated two-hop threshold
    test, so raising the rate can only turn successes into outages."""
    fails = {}
    for rate in (0.5, 1.0, 2.0):
        cfg = SimConfig(n_relays=1, n_slots=4000, seed=11, schedule="framed",
                        initial_energy=1e12, target_rate=rate)
        outcomes = _message_outcomes(cfg, tmp_path / f"{rate}.jsonl")
        assert [msg for msg, _ in outcomes] == list(range(2000))
        fails[rate] = [result is not Outcome.SUCCESS for _, result in outcomes]
    for lo, hi in ((0.5, 1.0), (1.0, 2.0)):
        assert all(a <= b for a, b in zip(fails[lo], fails[hi]))


def test_aggregate_outage_monotone_in_rate_with_battery_feedback():
    rates = (0.5, 1.0, 2.0)
    cfg = lambda r: SimConfig(n_relays=3, n_slots=4000, seed=13, target_rate=r)
    ps = [(4000 - run_trial(cfg(r))[Outcome.SUCCESS]) / 4000 for r in rates]
    assert ps[0] <= ps[1] <= ps[2]


# -- invariant (debug) mode --------------------------------------------------


def test_check_invariants_accepts_normal_runs():
    for cfg in (
        srs_cfg(n_slots=600, seed=21, schedule="pipelined"),
        mrs_cfg(n_slots=600, seed=22, schedule="pipelined"),
        srs_cfg(n_slots=600, seed=23, eta=0.02),
        mrs_cfg(n_slots=601, seed=24, initial_energy=1.0),
    ):
        run_trial(cfg, check_invariants=True)


def test_check_invariants_flags_corrupted_battery():
    trial = _Trial(srs_cfg())
    trial.battery[0] = -5.0
    with pytest.raises(InvariantError, match="negative"):
        advance(trial, 0, [0.5, 0.5], [HI, HI], check=True)


def test_unaffordable_forward_is_an_invariant_error():
    """srs and mrs share one debit site, which refuses to overdraw."""
    trial = _Trial(srs_cfg())
    advance(trial, 0, [0.5, LO], [HI, HI])
    trial.battery[0] = 9.5   # below the 10 J it was designated with
    with pytest.raises(InvariantError, match="cannot pay"):
        advance(trial, 1, [LO, LO], [HI, HI])

    trial = _Trial(mrs_cfg())
    advance(trial, 0, [0.5, LO, LO], [HI, HI, HI])
    # relay 0's inversion energy at this gain is 3e6 J, far above its battery
    with mock.patch.object(engine, "mrs_final_select", return_value=0):
        with pytest.raises(InvariantError, match="cannot pay"):
            advance(trial, 1, [LO] * 3, [1e-6, HI, HI])


def test_a_traced_run_that_cannot_pay_keeps_every_slot_it_stepped(tmp_path):
    """The trace of a run that fails a check ends at the slot before it,
    also where that slot lies inside a gain block."""
    real, calls = engine.mrs_final_select, iter(range(10**9))

    def overdraw(decoders, battery, energy):
        if next(calls) >= 300:  # past the first gain block
            for rid, (stored, cost) in enumerate(zip(battery, energy)):
                if stored < cost:
                    return rid
        return real(decoders, battery, energy)

    path = tmp_path / "trace.jsonl"
    cfg = mrs_cfg(schedule="pipelined", n_slots=600, seed=31)
    with mock.patch.object(engine, "mrs_final_select", side_effect=overdraw):
        with pytest.raises(InvariantError, match="cannot pay") as failure:
            run_trial(cfg, trace_path=path)
    failed = int(str(failure.value).split(":")[0].removeprefix("slot "))
    assert failed % engine.GAIN_BLOCK
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert [rec["slot"] for rec in records] == list(range(failed))


# Per-Outcome tallies recorded with the per-relay engine this one replaced,
# in Outcome order (success, no_candidate, decode_fail, no_decoder,
# no_feasible_power). Counts, not trace digests: the gains in a trace are
# printed in full and may differ in the last bit between numpy builds.
PINNED_TALLIES = [
    (dict(n_relays=5, policy="srs", n_slots=1500, seed=11),
     [(None, 1.0, [852, 0, 648, 0, 0])]),
    (dict(n_relays=3, policy="srs", schedule="framed", n_slots=1500, warmup_slots=101,
          eta=0.1, seed=12),
     [(None, 0.5, [171, 484, 44, 0, 0]), (None, 1.5, [84, 315, 300, 0, 0])]),
    (dict(n_relays=4, policy="srs", eta=0.0, initial_energy=200.0, n_slots=1500, seed=13),
     [(None, 0.0, [80, 1420, 0, 0, 0]), (None, 1.0, [61, 1388, 51, 0, 0])]),
    (dict(n_relays=5, policy="srs", sense_threshold=0.5, eta=0.05, n_slots=1500,
          warmup_slots=300, seed=14),
     [(None, 1.0, [165, 935, 100, 0, 0])]),
    (dict(n_relays=6, policy="mrs", eta=0.05, n_slots=1500, seed=15),
     [(1, 1.0, [869, 0, 0, 409, 222]), (3, 1.0, [1004, 0, 0, 31, 465]),
      (3, 2.0, [288, 0, 0, 695, 517])]),
    (dict(n_relays=4, policy="mrs", m=2, schedule="framed", sense_threshold=0.5, eta=0.2,
          n_slots=1501, seed=16),
     [(2, 1.0, [665, 0, 0, 46, 40])]),
    (dict(n_relays=5, policy="mrs", eta=0.0, initial_energy=30.0, n_slots=1500,
          warmup_slots=200, seed=17),
     [(2, 0.0, [1300, 0, 0, 0, 0]), (4, 1.5, [2, 0, 0, 89, 1209])]),
    (dict(n_relays=3, policy="mrs", schedule="framed", eta=0.02, slot_duration=0.5,
          distance=1.3, n_slots=1500, seed=18),
     [(1, 0.5, [235, 0, 0, 104, 411]), (3, 0.5, [137, 0, 0, 0, 613]),
      (2, 1.0, [82, 0, 0, 105, 563])]),
]


@pytest.mark.parametrize("base,rows", PINNED_TALLIES)
def test_outcome_tallies_are_pinned(base, rows):
    configs = [SimConfig(**{**base, "m": m, "target_rate": rate}) for m, rate, _ in rows]
    for cfg, counts, (_, _, pinned) in zip(configs, run_batch(configs), rows):
        expected = dict(zip(Outcome, pinned))
        assert run_trial(cfg) == expected
        assert counts == expected


# -- traces and replay -------------------------------------------------------


def _write_trace(tmp_path, name="trace.jsonl", **kw):
    kw.setdefault("n_slots", 60)
    kw.setdefault("seed", 31)
    cfg = mrs_cfg(schedule="pipelined", **kw)
    path = tmp_path / name
    run_trial(cfg, trace_path=path)
    return path


# committed traces, drawn on one CPU (see data/README.md)
V2_MRS = "trace_v2_mrs.jsonl"  # the run of _write_trace()
V2_SRS_FRAMED = "trace_v2_srs_framed.jsonl"


def _fixture(tmp_path, name=V2_MRS):
    path = tmp_path / name
    shutil.copyfile(Path(__file__).parent / "data" / name, path)
    return path


def _edit_trace(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _floats(packed):
    """A record's packed batteries or gains as a list of floats."""
    return np.frombuffer(base64.b64decode(packed), "<f8").tolist()


def _packed(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def _ulps_up(value, ulps):
    for _ in range(ulps):
        value = math.nextafter(value, math.inf)
    return value


def test_trace_bytes_are_reproducible(tmp_path):
    a = _write_trace(tmp_path, "a.jsonl")
    b = _write_trace(tmp_path, "b.jsonl")
    assert a.read_bytes() == b.read_bytes()


def test_replay_accepts_own_trace(tmp_path):
    result = replay_check(_write_trace(tmp_path))
    assert result.ok
    assert result.divergent_slot is None
    assert result.tally == run_trial(mrs_cfg(schedule="pipelined", n_slots=60, seed=31))


def test_replay_rejects_tampered_battery(tmp_path):
    path = _write_trace(tmp_path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[10])
    battery = _floats(rec["battery"])
    battery[0] += 1.0
    rec["battery"] = _packed(battery)
    lines[10] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == rec["slot"]
    assert "battery" in result.detail


def test_replay_names_the_first_of_two_divergent_slots(tmp_path):
    path = _write_trace(tmp_path)
    lines = path.read_text().splitlines()
    for i in (10, 20):
        rec = json.loads(lines[i])
        battery = _floats(rec["battery"])
        battery[0] += 1.0
        rec["battery"] = _packed(battery)
        lines[i] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == json.loads(lines[10])["slot"]
    assert "battery" in result.detail


def test_replay_rejects_tampered_gain(tmp_path):
    path = _fixture(tmp_path)
    lines = path.read_text().splitlines()
    # tamper the source gain of an idle relay: its harvest credit, and so
    # its recorded battery, can no longer be reproduced
    for i, line in enumerate(lines[1:], 1):
        rec = json.loads(line)
        idle = set(range(3)) - set(rec["designated"]) - {rec["forwarder"]}
        if idle:
            gains = _floats(rec["gains"])
            gains[min(idle)] += 5.0  # g_sl comes first
            rec["gains"] = _packed(gains)
            lines[i] = json.dumps(rec)
            break
    path.write_text("\n".join(lines) + "\n")
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == rec["slot"]


def test_replay_rejects_truncated_trace(tmp_path):
    path = _write_trace(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    result = replay_check(path)
    assert not result.ok
    assert "unresolved" in result.detail


@pytest.mark.parametrize("kept,slot", [(21, 20), (1, 0)], ids=["cut", "header only"])
def test_replay_rejects_a_trace_cut_where_no_message_is_pending(tmp_path, kept, slot):
    path = tmp_path / "t.jsonl"
    run_trial(srs_cfg(n_relays=3, n_slots=100, seed=5), trace_path=path)
    lines = path.read_text().splitlines()
    # slot 19 is a framed forward slot: nothing is pending after it
    assert json.loads(lines[20])["slot"] == 19
    path.write_text("\n".join(lines[:kept]) + "\n")
    result = replay_check(path)
    assert not result.ok
    assert (result.divergent_slot, result.detail) == (slot, f"trace ends at slot {slot} of 100")


def test_replay_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"slot": 0}\n')
    assert not replay_check(path).ok
    path.write_text("")
    assert not replay_check(path).ok


def _unread(rec, prev, value):
    """rec's packed gains with value in every g_ld entry no rule reads: an
    mrs forward reads the g_ld of the previous slot's decoders only."""
    gains = _floats(rec["gains"])
    n = len(gains) // 2
    g_ld = [g if rid in prev["decoded"] else value for rid, g in enumerate(gains[n:])]
    return _packed(gains[:n] + g_ld)


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec, prev: "not json",
        lambda rec, prev: json.dumps({k: v for k, v in rec.items() if k != "gains"}),
        lambda rec, prev: json.dumps({**rec, "gains": _packed(_floats(rec["gains"])[:-1])}),
        lambda rec, prev: json.dumps([rec]),
        lambda rec, prev: json.dumps({**rec, "gains": None}),
        lambda rec, prev: json.dumps({**rec, "gains": "?" * len(rec["gains"])}),
        lambda rec, prev: json.dumps({**rec, "gains": _floats(rec["gains"])}),
        # gains that no rule of this slot reads
        lambda rec, prev: json.dumps({**rec, "gains": _unread(rec, prev, math.inf)}),
        lambda rec, prev: json.dumps({**rec, "gains": _unread(rec, prev, math.nan)}),
        lambda rec, prev: json.dumps({**rec, "gains": _unread(rec, prev, -math.inf)}),
        # slots that == calls equal to 4
        lambda rec, prev: json.dumps({**rec, "slot": 4.0}),
        lambda rec, prev: json.dumps({**rec, "slot": True, "forwarder": None}),
    ],
)
def test_replay_reports_malformed_records(tmp_path, edit):
    path = _fixture(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = edit(json.loads(lines[5]), json.loads(lines[4]))   # the record of slot 4
    path.write_text("\n".join(lines) + "\n")
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == 4
    assert "malformed record" in result.detail


def test_replay_reports_malformed_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    for header in ("not json", "[1, 2]", '{"kind": "config"}'):
        path.write_text(header + "\n")
        result = replay_check(path)
        assert not result.ok and result.detail == "missing config header"


def test_trace_records_pack_batteries_and_gains(tmp_path):
    lines = _write_trace(tmp_path).read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == 2
    cfg = SimConfig.from_dict(header["config"])
    rows = np.concatenate(list(_gain_draws(cfg)))
    trial = _Trial(cfg)
    for line, row in zip(lines[1:], rows):
        rec = json.loads(line)
        assert "g_sl" not in rec and "g_ld" not in rec
        assert _floats(rec["gains"]) == row.tolist()
        _, stepped = step(trial, rec["slot"], row[:3].tolist(), row[3:].tolist())
        assert _floats(rec["battery"]) == stepped["battery"]


def _nudge_gain(line, key, ulps):
    """line with the last g_sl or g_ld entry moved up by ulps."""
    rec = json.loads(line)
    gains = _floats(rec["gains"])
    i = len(gains) // 2 - 1 if key == "g_sl" else -1
    gains[i] = _ulps_up(gains[i], ulps)
    rec["gains"] = _packed(gains)
    return json.dumps(rec)


@pytest.mark.parametrize("name", [V2_MRS, V2_SRS_FRAMED, None])
@pytest.mark.parametrize("key", ["g_sl", "g_ld"])
def test_replay_checks_the_gains_against_the_seed(tmp_path, name, key):
    """A recorded gain off the seed's draw by more than GAIN_ULPS diverges,
    read or not; 64 ulps stays off when the CPU that checks the trace
    rounds the draw differently from the one that wrote it."""
    path = _fixture(tmp_path, name) if name else _write_trace(tmp_path)

    def edit(lines):
        lines[8] = _nudge_gain(lines[8], key, 64)

    _edit_trace(path, edit)
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == 7
    n = json.loads(path.read_text().splitlines()[0])["config"]["n_relays"]
    assert result.detail.startswith(f"{key}[{n - 1}]: recorded")
    assert "ulps from the seed's draw" in result.detail


def _draws_off_by(ulps):
    """Patch replay's redraw to round a third of the gains ulps higher, as
    numpy on another CPU might."""
    real = engine.draw_gain

    def draw(rng, size):
        gains = real(rng, size)
        gains.view(np.int64)[..., ::3] += ulps
        return gains

    return mock.patch.object(engine, "draw_gain", draw)


@pytest.mark.parametrize("name", [V2_MRS, V2_SRS_FRAMED, None])
def test_replay_moves_between_cpus_that_round_the_draws_differently(tmp_path, name):
    path = _fixture(tmp_path, name) if name else _write_trace(tmp_path)
    # the committed traces may come from another CPU already, 1 ulp off
    with _draws_off_by(GAIN_ULPS - 1):
        assert replay_check(path).ok
    with _draws_off_by(GAIN_ULPS + 2):
        result = replay_check(path)
    assert not result.ok and result.divergent_slot == 0
    assert "ulps from the seed's draw" in result.detail


def _set_seed(lines):
    header = json.loads(lines[0])
    header["config"]["seed"] += 1
    lines[0] = json.dumps(header)


def _append_past_the_end(lines):
    rec = json.loads(lines[-1])
    lines.append(json.dumps({**rec, "slot": rec["slot"] + 1}))


@pytest.mark.parametrize(
    "edit,slot,detail",
    [
        (_set_seed, 0, "ulps from the seed's draw"),
        (lambda lines: lines.pop(11), 11, "expected slot 10"),
        (lambda lines: lines.insert(11, lines[11]), 10, "expected slot 11"),
        # slot 60 is the drain slot: the redraw has no row past it
        (_append_past_the_end, 61, "record past the end of the run"),
    ],
    ids=["seed", "dropped record", "repeated record", "extra record"],
)
def test_replay_rejects_tampered_format_2_traces(tmp_path, edit, slot, detail):
    path = _write_trace(tmp_path)
    _edit_trace(path, edit)
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == slot
    assert detail in result.detail


def test_replay_rejects_a_slot_the_run_never_stepped(tmp_path):
    """A framed run of even length ends with its last forward, with no drain
    slot; a record for slot n_slots that repeats the unchanged state would
    replay bit-exactly, so its slot alone must refuse it."""
    path = tmp_path / "t.jsonl"
    run_trial(srs_cfg(n_slots=10, seed=1), trace_path=path)

    def edit(lines):
        last = json.loads(lines[-1])
        assert last["slot"] == 9
        lines.append(json.dumps({**last, "slot": 10, "forwarder": None, "tx_power": None,
                                 "designated": [], "decoded": [], "outcomes": []}))

    _edit_trace(path, edit)
    result = replay_check(path)
    assert not result.ok
    assert (result.divergent_slot, result.detail) == (10, "record past the end of the run")


_NO_FORMAT = object()


@pytest.mark.parametrize(
    "value", [3, 0, True, 2.0, "2", None, pytest.param(_NO_FORMAT, id="missing")]
)
def test_replay_refuses_an_unknown_trace_format(tmp_path, value):
    """Only format 2 replays; a header without "format" is format 1's,
    which held the floats as JSON numbers."""
    path = _write_trace(tmp_path)

    def edit(lines):
        header = json.loads(lines[0])
        if value is _NO_FORMAT:
            del header["format"]
        else:
            header["format"] = value
        lines[0] = json.dumps(header)

    _edit_trace(path, edit)
    shown = 1 if value is _NO_FORMAT else value
    assert replay_check(path) == ReplayResult(False, None, f"unknown trace format {shown!r}")


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec: {k: v for k, v in rec.items() if k != "gains"},
        lambda rec: {**rec, "gains": _floats(rec["gains"])},
        lambda rec: {**rec, "gains": "*" + rec["gains"][1:]},
        lambda rec: {**rec, "gains": _packed(_floats(rec["gains"])[:-1])},
        lambda rec: {**rec, "gains": _packed([math.nan] + _floats(rec["gains"])[1:])},
        lambda rec: {**rec, "gains": _packed([math.inf] + _floats(rec["gains"])[1:])},
    ],
    ids=["missing", "list", "not base64", "short", "nan", "inf"],
)
def test_replay_reports_malformed_format_2_gains(tmp_path, edit):
    path = _write_trace(tmp_path)

    def edit_slot_4(lines):
        lines[5] = json.dumps(edit(json.loads(lines[5])))

    _edit_trace(path, edit_slot_4)
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == 4
    assert "malformed record" in result.detail


def _replay_peak_bytes(tmp_path, n_slots):
    path = tmp_path / f"t{n_slots}.jsonl"
    run_trial(SimConfig(n_relays=2, n_slots=n_slots, seed=3), trace_path=path)
    tracemalloc.start()
    try:
        assert replay_check(path).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replay_memory_does_not_grow_with_the_trace_length(tmp_path):
    # the trace is read line by line and the gains redrawn block by block
    with mock.patch.object(engine, "GAIN_BLOCK", 16):
        short, long = _replay_peak_bytes(tmp_path, 500), _replay_peak_bytes(tmp_path, 4000)
    # holding the lines of the long trace would add about 900 kB
    assert long - short < 50_000


# values that == calls equal to the recorded ones: True == 1 == 1.0, -0.0 == 0.0
_RETYPED = {
    "slot": (lambda rec: rec["slot"] == 1, lambda slot: True),
    "forwarder": (lambda rec: rec["forwarder"] is not None, float),
    "tx_power": (lambda rec: rec["tx_power"] == 0.0, lambda power: -0.0),
    "designated": (lambda rec: rec["designated"], lambda ids: [float(i) for i in ids]),
    "outcomes": (lambda rec: rec["outcomes"], lambda pairs: [[float(m), o] for m, o in pairs]),
}


@pytest.mark.parametrize("key", list(_RETYPED))
def test_replay_tells_json_types_apart(tmp_path, key):
    """A record matches only in value, sign and JSON type: true is not 1,
    1 is not 1.0, and -0.0 is not 0.0."""
    # only rate 0 forwards at power 0.0
    path = _write_trace(tmp_path, target_rate=0.0 if key == "tx_power" else 1.0)
    applies, retype = _RETYPED[key]
    found = []

    def edit(lines):
        i, rec = next((i, rec) for i, rec in enumerate(map(json.loads, lines[1:]), 1)
                      if applies(rec))
        found.append(rec["slot"])
        rec[key] = retype(rec[key])
        lines[i] = json.dumps(rec)

    _edit_trace(path, edit)
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == found[0]
    if key == "slot":
        assert result.detail == "malformed record (TypeError: slot must be an integer, got True)"
    else:
        assert result.detail.startswith(f"{key}: recomputed ")


def test_replay_of_an_unchanged_trace_parses_no_record(tmp_path):
    """A format 2 trace that matches run_trial's lines byte for byte is ok
    without parsing a record: json.loads reads the header alone."""
    path = _write_trace(tmp_path)
    with mock.patch("json.loads", wraps=json.loads) as loads:
        assert replay_check(path).ok
    assert loads.call_count == 1


@pytest.mark.parametrize("ulps", [1, 2, 3])
def test_replay_of_a_trace_drawn_a_few_ulps_off_takes_the_record_verifier(tmp_path, ulps):
    """A trace written on a CPU whose log1p rounds differently differs from
    the lines drawn here in every record; each is parsed and checked, and
    the trace is ok."""
    with _draws_off_by(ulps):
        path = _write_trace(tmp_path)
    with mock.patch("json.loads", wraps=json.loads) as loads:
        assert replay_check(path).ok
    assert loads.call_count == len(path.read_text().splitlines())  # the header and each record


def _compact(line):
    return json.dumps(json.loads(line), separators=(",", ":"))


def _gains_last_keys_reversed(line):
    """The record with its other keys in reverse order: the line still ends
    with the drawn gains, so replay steps on them before it parses."""
    rec = json.loads(line)
    gains = rec.pop("gains")
    return json.dumps({**dict(reversed(rec.items())), "gains": gains})


@pytest.mark.parametrize("reserialize", [_compact, _gains_last_keys_reversed])
def test_replay_parses_only_the_record_that_differs(tmp_path, reserialize):
    """The same record in other bytes is parsed and checked, and the lines
    after it are compared unparsed: one pass, with no second run."""
    path = _write_trace(tmp_path)

    def edit(lines):
        lines[30] = reserialize(lines[30])

    _edit_trace(path, edit)
    with mock.patch("json.loads", wraps=json.loads) as loads:
        assert replay_check(path).ok
    assert loads.call_count == 2  # the header and that record


@pytest.mark.parametrize("reserialize", [_compact, _gains_last_keys_reversed])
def test_replay_diverges_at_a_tampered_battery_after_a_reserialized_record(
    tmp_path, reserialize
):
    """The tampered record is in other bytes too: whether it is parsed
    before or after its step, its fields are compared."""
    path = _write_trace(tmp_path)

    def edit(lines):
        lines[30] = reserialize(lines[30])
        rec = json.loads(lines[40])
        rec["battery"] = _packed([b + 1.0 for b in _floats(rec["battery"])])
        lines[40] = reserialize(json.dumps(rec))

    _edit_trace(path, edit)
    result = replay_check(path)
    assert not result.ok
    assert result.divergent_slot == 39
    assert result.detail.startswith("battery: recomputed ")


@pytest.mark.parametrize("line", [0, 5, None], ids=["header", "record", "appended"])
def test_replay_reports_a_line_that_is_not_utf8(tmp_path, line):
    path = _write_trace(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    bad = b'\xff\xfe{"slot": 2}\n'
    if line is None:
        lines.append(bad)
    else:
        lines[line] = bad
    path.write_bytes(b"".join(lines))
    result = replay_check(path)
    assert not result.ok
    if line == 0:
        assert result == ReplayResult(False, None, "missing config header")
    else:
        assert result.divergent_slot == (line or len(lines) - 1) - 1
        assert result.detail.startswith("malformed record (UnicodeDecodeError: ")


def _json_lines(cfg):
    """cfg's trace record lines as json.dumps writes the oracle's records,
    with the batteries and gains packed: the reference for run_trial's
    template."""
    n = cfg.n_relays
    trial = _Trial(cfg)
    rows = np.concatenate(list(_gain_draws(cfg))).tolist()
    lines = []
    for slot, row in enumerate(rows):
        if slot >= cfg.n_slots and trial.pending is None:
            break
        _, rec = step(trial, slot, row[:n], row[n:])
        rec["battery"] = _packed(rec["battery"])
        rec["gains"] = _packed(row)
        lines.append(json.dumps(rec) + "\n")
    return lines


def _trace_record_lines(cfg, path):
    """The record lines run_trial writes for cfg, read back as bytes."""
    run_trial(cfg, trace_path=path)
    return [line.decode() for line in path.read_bytes().splitlines(keepends=True)[1:]]


def _drains(cfg, recs):
    return recs[-1]["slot"] == cfg.n_slots


@pytest.mark.parametrize(
    "kw,covers",
    [
        # every trace starts with a null forwarder; srs slots that resolve
        # the forwarded message and a failed or unserved broadcast
        (dict(policy="srs", n_relays=5, eta=0.02, schedule="pipelined", n_slots=300, seed=1),
         lambda cfg, recs: any(len(rec["outcomes"]) == 2 for rec in recs)),
        (dict(policy="srs", n_relays=2, schedule="framed", n_slots=61, warmup_slots=11, seed=4),
         _drains),
        (dict(policy="mrs", m=4, n_relays=10, eta=0.05, target_rate=0.0, n_slots=200, seed=2),
         lambda cfg, recs: any(rec["tx_power"] == 0.0 for rec in recs)),
        (dict(policy="mrs", m=1, n_relays=1, schedule="framed", n_slots=101, warmup_slots=7,
              seed=3), _drains),
        (dict(policy="srs", n_relays=1, sense_threshold=0.3, n_slots=100, seed=4),
         lambda cfg, recs: recs[0]["forwarder"] is None),
    ],
    ids=["srs-two-outcomes", "srs-framed-drain", "mrs-rate-0", "mrs-n1-framed-drain", "srs-n1"],
)
def test_trace_lines_are_json_dumps_of_the_records(tmp_path, kw, covers):
    cfg = SimConfig(**kw)
    expected = _json_lines(cfg)
    assert _trace_record_lines(cfg, tmp_path / "t.jsonl") == expected
    assert covers(cfg, [json.loads(line) for line in expected])


@pytest.mark.parametrize(
    "kw,covers",
    [
        (dict(policy="srs", n_relays=2, schedule="framed", n_slots=61, warmup_slots=11, seed=4),
         _drains),
        # the only relay forwards, so no relay is left to listen
        (dict(policy="srs", n_relays=1, n_slots=600, seed=5),
         lambda cfg, recs: any(rec["forwarder"] == 0 and not rec["designated"] for rec in recs)),
        (dict(policy="mrs", m=2, n_relays=4, eta=0.05, target_rate=0.0, n_slots=300, seed=6),
         lambda cfg, recs: any(rec["tx_power"] == 0.0 for rec in recs)),
    ],
    ids=["srs-framed-warmup-drain", "srs-n1-pipelined", "mrs-rate-0"],
)
def test_gain_block_size_changes_no_trace_byte_tally_or_replay(tmp_path, kw, covers):
    """The state a run carries from one gain block to the next: the trace,
    the tally and the replay verdict are the same at any block size, and a
    trace written at one block size replays at every other."""
    cfg = SimConfig(**kw)
    blocks = (1, 7, 256)
    runs = []
    for block in blocks:
        path = tmp_path / f"t{block}.jsonl"
        with mock.patch.object(engine, "GAIN_BLOCK", block):
            runs.append((path, run_trial(cfg, trace_path=path)))
    first, tally = runs[0][0].read_bytes(), runs[0][1]
    assert all(path.read_bytes() == first and got == tally for path, got in runs)
    assert covers(cfg, [json.loads(line) for line in first.splitlines()[1:]])
    for path, _ in runs:
        for block in blocks:
            with mock.patch.object(engine, "GAIN_BLOCK", block):
                assert replay_check(path) == ReplayResult(True, tally=tally)


def test_traced_run_checks_the_ledger_every_slot(tmp_path):
    cfg = mrs_cfg(n_slots=61, seed=9)
    with mock.patch.object(_Trial, "_check_slot", autospec=True) as check:
        run_trial(cfg, trace_path=tmp_path / "t.jsonl", check_invariants=True)
    assert check.call_count == cfg.n_slots + 1   # the framed run's drain slot too


# -- gain blocks and the lockstep batch engine --------------------------------


@pytest.mark.parametrize("n", [1, 5, 10, 20])
def test_block_draws_equal_per_slot_draws(n):
    cfg = SimConfig(n_relays=n, n_slots=5000, seed=12)
    rng = gain_stream(cfg.seed)
    per_slot = np.array([-np.log1p(-rng.random(2 * n)) for _ in range(cfg.n_slots + 1)])
    blocks = list(_gain_draws(cfg))
    assert [len(block) for block in blocks] == [256] * 19 + [137]  # crosses block boundaries
    drawn = np.concatenate(blocks)
    assert drawn.tobytes() == per_slot.tobytes()


@st.composite
def gain_field_groups(draw):
    """One to six configs that share a gain field and every field but m and
    target_rate, over both policies and schedules and the edge values. The
    warmup leaves a post-warmup message: a framed run of even n_slots
    broadcasts last in slot n_slots - 2."""
    n = draw(st.integers(1, 8))
    policy = draw(st.sampled_from(["srs", "mrs"]))
    n_slots = draw(st.integers(1, 120))
    schedule = draw(st.sampled_from(["pipelined", "framed"]))
    last_warmup = n_slots - 1 if schedule == "pipelined" else (n_slots - 1) // 2 * 2
    base = SimConfig(
        n_relays=n,
        policy=policy,
        m=1 if policy == "mrs" else None,
        eta=draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0])),
        source_power_dbw=draw(st.sampled_from([0.0, 10.0, 13.0])),
        relay_power_dbw=draw(st.sampled_from([0.0, 10.0])),
        noise_var=draw(st.sampled_from([0.5, 1.0])),
        distance=draw(st.sampled_from([1.0, 1.3, 2.0])),
        slot_duration=draw(st.sampled_from([0.5, 0.7, 1.0, 2.0])),
        initial_energy=draw(st.sampled_from([None, 0.0, 5.0, 50.0])),
        sense_threshold=draw(st.sampled_from([0.0, 0.5])),
        n_slots=n_slots,
        warmup_slots=draw(st.integers(0, last_warmup)),
        seed=draw(st.integers(0, 2**32)),
        schedule=schedule,
    )
    rate = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0))
    m = st.integers(1, n) if policy == "mrs" else st.none()
    rows = draw(st.lists(st.tuples(m, rate), min_size=1, max_size=6))
    return [replace(base, m=row_m, target_rate=row_rate) for row_m, row_rate in rows]


def _coarse_draw(rng, size):
    """Gains snapped down to multiples of 0.5: zero gains and exact ties in
    battery, cost and margin become common, where real draws almost never
    produce them."""
    return np.floor(draw_gain(rng, size) * 2.0) / 2.0


@settings(max_examples=200, deadline=None)
@given(
    configs=gain_field_groups(),
    block=st.sampled_from([1, 7, engine.GAIN_BLOCK]),
    chunk=st.sampled_from([1, 7, engine.CHUNK]),
    draw=st.sampled_from([draw_gain, _coarse_draw]),
)
def test_run_batch_counts_equal_run_trial_tallies(configs, block, chunk, draw):
    # chunk and block edges fall anywhere, a framed broadcast and its
    # forward across them included
    with mock.patch.object(engine, "GAIN_BLOCK", block), mock.patch.object(
        engine, "CHUNK", chunk
    ), mock.patch.object(engine, "draw_gain", draw):
        batch = run_batch(configs)
        tallies = [run_trial(cfg) for cfg in configs]
    assert batch == tallies


@settings(max_examples=100, deadline=None)
@given(configs=gain_field_groups(), draw=st.sampled_from([draw_gain, _coarse_draw]))
def test_trace_lines_are_json_dumps_of_random_configs(configs, draw):
    """The trace template against json.dumps, on the configs of the run_batch
    test: zero and tied gains, rate 0, warmup, both schedules, N = 1."""
    with mock.patch.object(engine, "draw_gain", draw), tempfile.TemporaryDirectory() as tmp:
        for cfg in configs:
            assert _trace_record_lines(cfg, Path(tmp) / "t.jsonl") == _json_lines(cfg)


@pytest.mark.parametrize("block", [1, 2, 5, 16])
@pytest.mark.parametrize(
    "kw",
    [
        # odd warmups and slot counts put a framed broadcast and its forward
        # in different blocks, and cut the warmup mid-block
        dict(policy="srs", schedule="framed", n_slots=61, warmup_slots=13),
        dict(policy="srs", schedule="pipelined", n_slots=60, warmup_slots=21),
        dict(policy="mrs", m=1, schedule="framed", n_slots=60, warmup_slots=19),
        dict(policy="mrs", m=1, schedule="pipelined", n_slots=61, warmup_slots=16),
    ],
    ids=["srs-framed", "srs-pipelined", "mrs-framed", "mrs-pipelined"],
)
def test_run_batch_tallies_each_gain_block_like_run_trial(kw, block):
    base = SimConfig(n_relays=4, eta=0.1, initial_energy=20.0, seed=23, **kw)
    ms = [1, 2, 4] if base.policy == "mrs" else [None]
    configs = [replace(base, m=m, target_rate=rate) for m in ms for rate in (0.3, 1.0, 2.0)]
    tallies = [run_trial(cfg) for cfg in configs]
    assert all(sum(counts.values()) == base.message_count() for counts in tallies)
    # the costs and masks of CHUNK slots, split within each block
    for chunk in (1, 7, engine.CHUNK):
        with mock.patch.object(engine, "GAIN_BLOCK", block), mock.patch.object(
            engine, "CHUNK", chunk
        ):
            assert run_batch(configs) == tallies


def test_run_batch_zero_gains_at_an_underflowing_rate():
    """Both engines agree where the numerator underflows to 0: rate 0
    forwards every message, rate 1e-320 refuses decoders with a zero gain."""
    base = SimConfig(n_relays=3, policy="mrs", m=2, initial_energy=0.0, n_slots=400, seed=3)
    configs = [replace(base, target_rate=rate) for rate in (0.0, 1e-320)]
    with mock.patch.object(engine, "draw_gain", _coarse_draw):
        tallies = [run_trial(cfg) for cfg in configs]
        assert run_batch(configs) == tallies
    assert tallies[0][Outcome.SUCCESS] == 400
    assert tallies[1][Outcome.NO_FEASIBLE_POWER] > 0
    assert tallies[1][Outcome.SUCCESS] + tallies[1][Outcome.NO_FEASIBLE_POWER] == 400


@pytest.mark.parametrize(
    "kw",
    [
        dict(policy="srs"),
        dict(policy="srs", target_rate=0.0),
        dict(policy="srs", sense_threshold=0.3, slot_duration=0.7, distance=1.3),
        dict(policy="mrs", m=2),
        dict(policy="mrs", m=2, target_rate=0.0),
        dict(policy="mrs", m=2, target_rate=1e-320),
        dict(policy="mrs", m=2, sense_threshold=0.3, slot_duration=0.7, noise_var=0.5),
    ],
    ids=["srs", "srs-rate0", "srs-threshold", "mrs", "mrs-rate0", "mrs-rate1e-320",
         "mrs-threshold"],
)
def test_slot_terms_equal_the_pure_python_reference(kw):
    cfg = SimConfig(n_relays=4, eta=0.3, **kw)
    rng = np.random.default_rng(5)
    gains = draw_gain(rng, (300, 8))
    gains[rng.random(gains.shape) < 0.1] = 0.0
    gains[rng.random(gains.shape) < 0.05] = MAX_GAIN
    # a sense threshold equal to the harvest of MAX_GAIN keeps that harvest
    max_harvest = oracles.slot_terms(cfg, [MAX_GAIN], [MAX_GAIN])[0][0]
    for config in (cfg, replace(cfg, sense_threshold=max_harvest)):
        # the mrs power of a slot stays a numpy row; tolist keeps its bits
        got = [(h, d, a, np.asarray(p).tolist(), e)
               for h, d, a, p, e in _Trial(config).slot_terms(gains)]
        want = [oracles.slot_terms(config, row[:4], row[4:]) for row in gains.tolist()]
        # repr also tells the float and bool types and -0.0 apart
        assert repr(got) == repr(want)


@pytest.mark.parametrize("policy", ["srs", "mrs"])
@pytest.mark.parametrize(
    "kw", [{}, dict(sense_threshold=0.3, slot_duration=0.7, noise_var=0.5)],
    ids=["default", "threshold"],
)
def test_lockstep_slot_terms_equal_the_pure_python_reference(policy, kw):
    """run_batch's terms, _harvest on the shared constants and _link_terms
    on (K, 1) columns of per-config constants, equal the reference's for
    each row's config, bit for bit, zero gains and a rate whose inversion
    numerator underflows to 0 included."""
    base = SimConfig(n_relays=4, eta=0.3, policy=policy, m=2 if policy == "mrs" else None, **kw)
    configs = [replace(base, target_rate=rate) for rate in (0.0, 1e-17, 1.0, 3.0)]
    rows = [_constants(c) for c in configs]
    columns = engine._Constants(*np.array(rows).T[:, :, None])
    rng = np.random.default_rng(9)
    gains = draw_gain(rng, (200, 8))
    gains[rng.random(gains.shape) < 0.1] = 0.0
    harvest = engine._harvest(base, rows[0], gains[:, :4]).tolist()
    decodes, link, energy = engine._link_terms(
        base, columns, gains[:, None, :4], gains[:, None, 4:]
    )
    assert decodes.shape == link.shape == (200, len(configs), 4)
    # srs pays the fixed cost, which _link_terms leaves to the constants
    assert energy is None if policy == "srs" else energy.shape == link.shape
    for r, config in enumerate(configs):
        got, want = [], []
        for s, row in enumerate(gains.tolist()):
            h, d, a, p, e = oracles.slot_terms(config, row[:4], row[4:])
            got.append((harvest[s], decodes[s, r].tolist(), link[s, r].tolist()))
            if policy == "srs":
                want.append((h, d, a))
            else:
                got[-1] += (energy[s, r].tolist(),)
                want.append((h, d, p, e))
        # repr also tells the float and bool types and -0.0 apart
        assert repr(got) == repr(want)


@pytest.mark.parametrize("schedule", ["pipelined", "framed"])
@pytest.mark.parametrize(
    "n_slots",
    [engine.GAIN_BLOCK - 1, engine.GAIN_BLOCK, engine.GAIN_BLOCK + 1, 16 * engine.GAIN_BLOCK + 1],
)
def test_engines_and_replay_agree_across_chunk_edges(tmp_path, n_slots, schedule):
    """run_trial, its trace's replay and run_batch count alike where the
    run's slots (n_slots and the drain slot) end at, or cross, the edge of a
    gain block, whose slot terms _Trial derives in one call."""
    for kw in (dict(policy="srs", eta=0.3), dict(policy="mrs", m=2, eta=0.05)):
        base = SimConfig(n_relays=4, initial_energy=5.0, n_slots=n_slots, warmup_slots=7,
                         schedule=schedule, seed=41, **kw)
        configs = [replace(base, target_rate=rate) for rate in (0.5, 1.5)]
        tallies = []
        for cfg in configs:
            trace = tmp_path / "t.jsonl"
            tally = run_trial(cfg, trace_path=trace)
            assert sum(tally.values()) == cfg.message_count()
            assert replay_check(trace).tally == tally == run_trial(cfg)
            tallies.append(tally)
        assert run_batch(configs) == tallies


def test_run_trial_memory_holds_one_chunk_of_slot_terms():
    """An mrs N = 10 run over 8192 slots peaks near 0.4 MiB: slot terms are
    Python floats one GAIN_BLOCK of slots at a time. A 4096-slot block of
    them would take about 7 MiB."""
    cfg = SimConfig(n_relays=10, policy="mrs", m=4, eta=0.05, n_slots=8192, seed=7)
    run_trial(cfg)  # numpy's one-time allocations are not the run's
    tracemalloc.start()
    try:
        run_trial(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _run_batch_peak_bytes(n_slots):
    configs = [SimConfig(n_relays=2, n_slots=n_slots, target_rate=0.01 * i, seed=3)
               for i in range(100)]
    tracemalloc.start()
    try:
        run_batch(configs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_batch_memory_does_not_grow_with_the_message_count():
    # outcome codes are kept for one gain block at a time, not for the run
    with mock.patch.object(engine, "GAIN_BLOCK", 16):
        short, long = _run_batch_peak_bytes(500), _run_batch_peak_bytes(4000)
    # one int8 code per message and config would add 350 kB to the long run
    assert long - short < 50_000


def test_run_batch_memory_on_the_compare_grid():
    """compare's mrs grid, M = 1..10 x 5 rates at N = 10 over 2000 slots,
    peaks near 0.5 MiB: its per-message flags and codes are bool and int8,
    kept for one 256-slot gain block. With 2000-slot blocks it peaked near
    1.1 MiB, and int64 codes, which np.where makes of Python-int codes,
    added 0.8 MiB."""
    base = SimConfig(n_relays=10, policy="mrs", m=1, eta=0.05, n_slots=2000, seed=7)
    configs = [replace(base, m=m, target_rate=rate)
               for m in range(1, 11) for rate in (0.5, 1.0, 1.5, 2.0, 2.5)]
    run_batch(configs)  # numpy's one-time allocations are not the run's
    tracemalloc.start()
    try:
        run_batch(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_run_batch_is_silent_where_an_inversion_cost_overflows():
    """A finite inversion power times a long slot overflows to an infinite
    cost, which no battery pays: run_batch warns of it no more than
    run_trial does, and counts alike."""
    base = SimConfig(n_relays=3, policy="mrs", m=1, slot_duration=1e5, eta=1e-300,
                     initial_energy=1.0, n_slots=300)
    configs = [replace(base, m=m, target_rate=rate) for m in (1, 2) for rate in (505.0, 506.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_batch(configs) == [run_trial(cfg) for cfg in configs]


def test_run_batch_refuses_configs_outside_one_gain_field():
    with pytest.raises(ConfigError, match="m and target_rate"):
        run_batch([SimConfig(seed=1), SimConfig(seed=2)])
    with pytest.raises(ConfigError, match="m and target_rate"):
        run_batch([SimConfig(eta=0.1), SimConfig(eta=0.2)])
    with pytest.raises(ConfigError, match="at least one"):
        run_batch([])
