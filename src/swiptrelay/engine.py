"""Slot-by-slot simulation of the relay network.

Each slot runs a fixed sequence of phases:

1. FORWARD: the decoder of the previous broadcast that keeps the largest
   battery margin after paying its transmit cost, if that margin is >= 0,
   transmits to the destination now and is unavailable for anything else
   this slot. "srs" has no destination-link CSI: its cost is fixed and the
   message fails if the destination link rate falls short. "mrs" has
   fresh destination CSI: its cost is the channel-inversion energy, so a
   forward always succeeds.
2. DESIGNATE: the M energy-richest non-transmitting relays listen to this
   slot's broadcast. "srs" commits to its one relay here, before the
   broadcast: M = 1, and only a relay that can pay the fixed cost.
3. BROADCAST: the source transmits. Listeners attempt to decode; idle
   relays harvest the RF energy instead. Listening and transmitting relays
   harvest nothing. The decode results carry to the next slot's FORWARD
   phase.

Every tie breaks toward the lowest relay id, so runs are reproducible.

Under the default "pipelined" schedule the source broadcasts every slot
(the previous forwarder simply misses the current broadcast, mimicking
full duplex). Under "framed", broadcasts happen on even slots and forwards
on odd slots only, one message per two slots with no overlap, which makes
outage probabilities exactly computable and is used for oracle validation.
PERIOD is the one place a schedule lives: a schedule broadcasts in the
slots where slot % PERIOD[schedule] == 0, and SimConfig.broadcasts,
slots_for_messages and both engines' slot loops read it.

Every slot consumes exactly 2N uniform draws (N source->relay gains, then
N relay->destination gains) no matter what the policy does with them, so a
seed fully determines the gain field and common-random-number couplings
across parameter values are exact. Gains are drawn GAIN_BLOCK slots at a
time, which yields the same values as slot-by-slot draws.

A trace is JSON lines: a config header, then one record per stepped slot
with the forwarder, its transmit power, the designated and decoded relays,
the resolved outcomes, the batteries after the slot and the slot's gains.
The header's "format": 2 says that the batteries and the gains are packed
as base64 of little-endian float64s, exact and cheap to write and read.
run_trial writes each record line from one template (_trace_line), whose
bytes are those of json.dumps of the record, a gain block's lines at a
time; replay_check steps each record once more, reading its line just
before the slot, and checks it against that template, or, where the
bytes differ, field by field (see its docstring).

Two engines step this state machine, and both return the same shape: a
count of each Outcome over the post-warmup messages, every key present.
Both take what does not read a battery from _harvest and _link_terms
(whose mrs half is _inversion): per relay its harvest if idle, whether it
decodes, and whether its srs forward arrives or its mrs forward's
inversion power and energy, the zero-gain rule included. _Trial (via run_trial) runs one config on
battery floats; it alone writes and replays traces and checks the
per-slot energy ledger. Its slot_terms derives a gain block at a time,
and one slot loop, run, does the battery work for untraced, traced,
checked and replayed runs alike, keeping the state in locals for a call's
slots: a traced run's gain block, or a whole untraced run or replay. srs
is the M = 1 case there: one FORWARD debits srs's single pending decoder
or mrs_final_select's pick, and succeeds if the forward arrives.
DESIGNATE is one rule in both engines, a stable ranking by battery: the m
richest free relays listen, m = 1 for srs, whose listener must also
afford the fixed cost.
run_batch runs K configs that share one gain field and differ only in
policy and BATCH_AXES (m and target_rate) in lockstep, on one path too:
constants are (K, 1) columns, batteries and decoder sets rows of (K, N)
arrays, each row carries its policy, and every row equals run_trial's
count. The harness picks the engine by group size (harness.SCALAR_GROUP).
"""

from __future__ import annotations

import base64
import binascii
import enum
import functools
import itertools
import json
import math
import numbers
import struct
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from swiptrelay import __version__
from swiptrelay.channel import (
    MAX_GAIN,
    PATH_LOSS_EXP,
    dbw_to_watts,
    draw_gain,
    gain_stream,
    inversion_numerator,
)
from swiptrelay.errors import ConfigError, InvariantError

SRS = "srs"
MRS = "mrs"
PIPELINED = "pipelined"
FRAMED = "framed"
PERIOD = {PIPELINED: 1, FRAMED: 2}  # a schedule broadcasts in the slots where slot % period == 0

LEDGER_TOL = 1e-9  # absolute per-slot energy-balance tolerance in debug mode
GAIN_BLOCK = 256  # slots of gains drawn, and of _Trial's slot terms derived, per call
CHUNK = 16  # slots of run_batch's costs and masks computed per numpy call
MAX_SLOTS = 2**53  # the largest count a float holds exactly
TRACE_FORMAT = 2  # the one trace format: floats packed as base64
# how far a recorded gain may lie from replay's draw of it: numpy tests its
# float64 log1p to 1 ulp on every CPU path, so two CPUs may differ by 2
GAIN_ULPS = 4


class Outcome(enum.Enum):
    """Result of one message attempt."""

    SUCCESS = "success"
    # srs: no relay could afford one fixed-power transmission
    NO_CANDIDATE = "no_candidate"
    # srs: a rate-threshold decode failed, at the relay or at the destination
    DECODE_FAIL = "decode_fail"
    # mrs: no designated listener decoded the broadcast
    NO_DECODER = "no_decoder"
    # mrs: decoders exist but none can afford its inversion energy
    NO_FEASIBLE_POWER = "no_feasible_power"

    # members are singletons: an identity hash counts them without Enum's
    # Python-level __hash__
    __hash__ = object.__hash__


def check_number(key: str, value, integer: bool, *rules):
    """Return value, the number named key, or refuse it with a ConfigError,
    the one rule for a single value: a bool or what is not a real number, an
    int too long to print, a type not built in where integer asks for a
    Python int, then what a (test, bound) rule fails, as "<key> must be
    <bound>, got <value>" (a rule whose third item is True omits the value)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:  # the messages print the value: str() refuses an int of over 4300 digits
        str(value)
    except ValueError:
        raise ConfigError(f"{key} out of range: an integer of {value.bit_length()} bits") from None
    kind = type(value)  # numpy's int64 prints like an int: name it (a NaN is _FINITE's)
    if integer and kind is not float and not isinstance(value, int) and math.isfinite(value):
        raise ConfigError(f"{key} must be a Python int, got {value} ({kind.__name__})")
    for test, bound, *no_value in rules:
        if not test(value):
            raise ConfigError(f"{key} must be {bound}" + ("" if no_value else f", got {value}"))
    return value


# NaN slips through every range test, and inf through most; an int is
# finite, and math.isfinite overflows on a large one
_FINITE = (lambda v: isinstance(v, int) or math.isfinite(v), "finite")
# a float field's _FINITE, which an int that no float holds fails too
FINITE_FLOAT = (lambda v: abs(v) <= sys.float_info.max if isinstance(v, int) else math.isfinite(v),
                "finite")
POSITIVE_INT = (lambda v: isinstance(v, int) and v >= 1, "a positive integer")
_POSITIVE = (lambda v: v > 0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")


def _derived(derive, what: str) -> tuple:
    """The rule that derive(float(v)), a constant the engines use, is in
    (0, inf): in float64, as the engines derive it from the stored value."""
    def test(v) -> bool:
        try:
            return 0.0 < derive(float(v)) < math.inf
        except OverflowError:
            return False
    return test, f"a value whose {what} is a float in (0, inf)"


_WATTS = _derived(dbw_to_watts, "power in watts")
# each SimConfig number field's rules after its finiteness rule
_RULES = {
    "n_relays": (POSITIVE_INT,),
    "target_rate": (_NON_NEGATIVE, _derived(lambda r: 2.0 ** (2.0 * r), "2**(2 * rate)")),
    "eta": ((lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),),
    "source_power_dbw": (_WATTS,),
    "relay_power_dbw": (_WATTS,),
    "noise_var": (_POSITIVE,),
    "distance": (_POSITIVE, _derived(lambda d: d**PATH_LOSS_EXP, "square")),
    "slot_duration": (_POSITIVE,),
    "initial_energy": (_NON_NEGATIVE,),
    "sense_threshold": (_NON_NEGATIVE,),
    "n_slots": (POSITIVE_INT, (lambda v: v <= MAX_SLOTS, "at most 2**53", True)),
    "warmup_slots": ((lambda v: isinstance(v, int) and v >= 0, "a non-negative integer"),),
    "seed": ((lambda v: isinstance(v, int) and 0 <= v < 2**64, "a 64-bit unsigned integer"),),
}


@dataclass(frozen=True)
class SimConfig:
    """All scenario parameters for one simulation run.

    Power levels are accepted in dBW (the conventional unit for these
    scenarios) and converted once; everything internal is watts/joules.
    initial_energy None means ten fixed-power transmissions' worth.

    A config is frozen and validated on construction, so every instance,
    each one dataclasses.replace makes included, has passed validate(),
    which runs check_number on each number field in field order first, with
    its _RULES (finiteness, range, derived constants), then the rest. A
    float field stores float(value) for any value but a Python int, which
    computes exactly as given.
    """

    n_relays: int = 5
    policy: str = SRS
    m: int | None = None            # mrs pre-selection size
    target_rate: float = 1.0        # bits/s/Hz
    eta: float = 0.5                # harvest conversion efficiency
    source_power_dbw: float = 10.0
    relay_power_dbw: float = 10.0   # fixed srs transmit power
    noise_var: float = 1.0          # watts
    distance: float = 1.0           # meters, same for every relay
    slot_duration: float = 1.0      # seconds
    initial_energy: float | None = None  # joules per relay
    sense_threshold: float = 0.0    # joules
    n_slots: int = 20000
    warmup_slots: int = 0
    seed: int = 0
    schedule: str = PIPELINED

    def __post_init__(self):
        self.validate()

    def validate(self) -> "SimConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "str" and not (value is None and f.default is None):
                integer = "int" in f.type
                check_number(f.name, value, integer, _FINITE if integer else FINITE_FLOAT,
                             *_RULES.get(f.name, ()))
                if not (integer or isinstance(value, int)):
                    # a numpy float32 would make the engines compute in float32
                    object.__setattr__(self, f.name, float(value))
        _check_choice("policy", self.policy, (SRS, MRS))
        mrs = self.policy == MRS
        if (self.m is None) == mrs:
            raise ConfigError("m required for mrs" if mrs else "m is only valid for policy 'mrs'")
        if mrs:
            check_number("m", self.m, True,
                         (lambda m: isinstance(m, int) and 1 <= m <= self.n_relays,
                          "an integer in [1, n_relays]"))
        _check_choice("schedule", self.schedule, PERIOD)
        if self.message_count() < 1:
            raise ConfigError(
                f"warmup_slots out of range: {self.warmup_slots} of {self.n_slots} "
                f"{self.schedule} slots leave no post-warmup messages"
            )
        # finite factors can still multiply out to inf
        k = _constants(self)
        for name, keys in _CONSTANT_KEYS.items():
            value = getattr(k, name)
            if not math.isfinite(value):
                raise ConfigError(
                    f"{keys} out of range: together they make {name} overflow to {value}"
                )
        # the most a battery can hold: every slot harvests the largest gain
        peak = k.initial_energy + (
            (self.n_slots + 1) * k.harvest_scale * MAX_GAIN * self.slot_duration / k.path_loss
        )
        if not math.isfinite(peak):
            raise ConfigError(
                "eta, source_power_dbw, slot_duration, distance and n_slots out of range: "
                "together they let a battery overflow to inf"
            )
        return self

    # -- message accounting ------------------------------------------------

    def broadcasts(self, slots: int) -> int:
        """Messages broadcast in slots 0 .. slots - 1 (every one gets an
        outcome): ceil(slots / PERIOD[schedule])."""
        return -(-slots // PERIOD[self.schedule])

    def message_count(self) -> int:
        """Post-warmup messages this run will produce."""
        return self.broadcasts(self.n_slots) - self.broadcasts(self.warmup_slots)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
        return cls(**data)


def _check_choice(key: str, value, choices):
    """Return value if it is one of choices, else refuse it naming key."""
    if value not in tuple(choices):  # a tuple: an unhashable value is refused too
        raise ConfigError(f"{key} must be {' or '.join(map(repr, choices))}, got {value!r}")
    return value


class _Constants(NamedTuple):
    """The floats both engines derive from a config. Each is computed here
    once, in one operation order, so the engines agree bit for bit."""

    numerator: float       # inversion power x gain that meets target_rate
    decode_min: float      # least g_sl at which a listener decodes
    forward_min: float     # least g_ld at which a fixed-power forward arrives
    tx_power: float        # watts per srs forward
    fixed_cost: float      # joules per srs forward
    harvest_scale: float   # a harvest is harvest_scale * g * slot_duration / path_loss
    path_loss: float
    initial_energy: float  # joules per relay
    zero_gain_power: float  # an inversion over g_ld = 0: 0 at rate 0, else inf


# the keys each finite constant derives from, for validate's messages
_CONSTANT_KEYS = {
    "numerator": "target_rate, noise_var and distance",
    "decode_min": "target_rate, noise_var, distance and source_power_dbw",
    "forward_min": "target_rate, noise_var, distance and relay_power_dbw",
    "tx_power": "relay_power_dbw",
    "fixed_cost": "relay_power_dbw and slot_duration",
    "harvest_scale": "eta and source_power_dbw",
    "path_loss": "distance",
    "initial_energy": "initial_energy, relay_power_dbw and slot_duration",
}


def _constants(config: SimConfig) -> _Constants:
    source_power = dbw_to_watts(config.source_power_dbw)
    relay_power = dbw_to_watts(config.relay_power_dbw)
    fixed_cost = relay_power * config.slot_duration
    # "link rate >= target rate" as a gain threshold: numerator / power
    numerator = inversion_numerator(config.target_rate, config.noise_var, config.distance)
    return _Constants(
        numerator=numerator,
        decode_min=numerator / source_power,
        forward_min=numerator / relay_power,
        tx_power=relay_power,
        fixed_cost=fixed_cost,
        harvest_scale=config.eta * source_power,
        path_loss=config.distance**PATH_LOSS_EXP,
        initial_energy=(
            10.0 * fixed_cost if config.initial_energy is None else config.initial_energy
        ),
        zero_gain_power=0.0 if config.target_rate == 0 else math.inf,
    )


def _harvest(config: SimConfig, k: _Constants, g_sl: np.ndarray) -> np.ndarray:
    """Each relay's harvest from its g_sl if idle, 0 below the sense threshold."""
    harvest = k.harvest_scale * g_sl * config.slot_duration / k.path_loss
    harvest[harvest < config.sense_threshold] = 0.0
    return harvest


def _link_terms(config: SimConfig, k: _Constants, g_sl, g_ld) -> tuple:
    """Whether each listener decodes; whether its srs forward arrives, or its
    mrs forward's inversion power; and that mrs forward's energy, None for
    srs, whose forward costs k.fixed_cost. k holds floats or (K, 1) columns."""
    decodes = g_sl >= k.decode_min
    if config.policy == SRS:
        return decodes, g_ld >= k.forward_min, None
    return decodes, *_inversion(config, k, g_ld)


def _inversion(config: SimConfig, k: _Constants, g_ld) -> tuple:
    """Each mrs forward's inversion power over g_ld, and its energy."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        power = k.numerator / g_ld
        # 0 / 0 is nan, which would win a margin's argmax: the numerator is 0
        # at rate 0 and where it underflows (numerator / 0 is inf already)
        np.copyto(power, k.zero_gain_power, where=g_ld == 0)
        return power, power * config.slot_duration  # a finite power may cost inf J


def slots_for_messages(messages: int, warmup_slots: int, schedule: str) -> int:
    """Slot count that yields exactly `messages` post-warmup messages."""
    check_number("messages", messages, True, POSITIVE_INT)
    slots = warmup_slots + messages * PERIOD[_check_choice("schedule", schedule, PERIOD)]
    if slots > MAX_SLOTS:
        raise ConfigError("messages out of range: with the warmup they take more than 2**53 slots")
    return slots


def _gain_draws(config: SimConfig):
    """Yield the run's gains GAIN_BLOCK slots at a time, as (block, 2N)
    arrays of little-endian float64s, each row a slot's g_sl then g_ld.

    The blocks cover slots 0 to n_slots, the possible drain slot included,
    and hold the values that 2N draws per slot would give. _Trial turns one
    block at a time into Python floats, which keeps peak memory down.
    """
    rng = gain_stream(config.seed)
    left = config.n_slots + 1
    while left > 0:
        block = min(GAIN_BLOCK, left)
        yield draw_gain(rng, (block, 2 * config.n_relays)).astype("<f8", copy=False)
        left -= block


def _unpack(text, count: int) -> list:
    """The count finite floats packed in text as base64 of their
    little-endian float64 bytes; a ValueError or TypeError refuses anything
    else."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * count:
        raise ValueError(f"packed floats must be {count} float64s")
    values = list(struct.unpack(f"<{count}d", raw))
    if not all(map(math.isfinite, values)):
        raise ValueError("packed floats must be finite")
    return values


def mrs_final_select(
    decoded_ids: Sequence[int], battery: Sequence[float], energy: Sequence[float]
) -> int | None:
    """Pick the forwarding relay among the decoders, given destination CSI.

    energy is indexed by relay id: each relay's channel-inversion transmit
    energy for its own destination gain, inf where a zero gain makes it
    infeasible. The pick maximizes battery minus energy over the decoders
    that can afford it. Returns the relay id, or None when no decoder
    exists or none can pay.
    """
    best = None
    best_margin = None
    for rid in sorted(decoded_ids):
        stored, cost = battery[rid], energy[rid]
        if stored < cost:
            continue
        margin = stored - cost
        if best_margin is None or margin > best_margin:
            best, best_margin = rid, margin
    return best


class _Trial:
    """Mutable state for one run; run() steps it a batch of slots per call.

    The state is one battery per relay and the message awaiting its
    FORWARD phase, as (message, decoder ids); srs keeps its single
    designated decoder there. tally counts each post-warmup Outcome.
    """

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.const = k = _constants(config)
        self.battery = [k.initial_energy] * config.n_relays
        self.pending: tuple[int, list[int]] | None = None
        self.next_message = 0
        self.tally = dict.fromkeys(Outcome, 0)
        # slot_terms' constant rows: made per block, they cost a GC pass per block
        rows = [[True]] if config.policy == MRS else [[k.tx_power], [k.fixed_cost]]
        self.same_rows = [itertools.repeat(row * config.n_relays) for row in rows]

    def slot_terms(self, gains: np.ndarray) -> list[tuple]:
        """Each slot's terms that read no battery, from gains, rows of g_sl
        then g_ld, as run_batch derives them (_harvest, _link_terms): per
        relay its harvest if idle, whether it decodes, whether its forward
        arrives (always for mrs), and its forward's power and energy (fixed
        for srs, the inversion's for mrs)."""
        cfg, k, n = self.cfg, self.const, self.cfg.n_relays
        decodes, link, energy = _link_terms(cfg, k, gains[:, :n], gains[:, n:])
        terms = [_harvest(cfg, k, gains[:, :n]).tolist(), decodes.tolist()]
        if cfg.policy == MRS:
            # run reads a power only for a trace, the forwarder's: rows stay numpy
            terms += [*self.same_rows, link, energy.tolist()]
        else:
            terms += [link.tolist(), *self.same_rows]
        return list(zip(*terms))

    def run(self, slot: int, terms, record=None, check: bool = False) -> int:
        """Step the slots from slot on, one per slot_terms tuple of terms,
        until terms run out or the run ends; returns the next slot. record,
        if set, is called after each slot with the slot, its resolved
        (message, Outcome) pairs, the forwarder, its transmit power and the
        sorted designated and decoded ids (built for it alone), self.battery
        then holding the batteries after it. check checks each slot's ledger
        and invariants."""
        cfg, battery, tally = self.cfg, self.battery, self.tally
        n_slots, fixed_cost = cfg.n_slots, self.const.fixed_cost
        mrs, period = cfg.policy == MRS, PERIOD[cfg.schedule]
        warmup = cfg.broadcasts(cfg.warmup_slots)  # messages below it go untallied
        m, ids, stored = cfg.m if mrs else 1, range(cfg.n_relays), battery.__getitem__
        pending, message = self.pending, self.next_message
        for harvest, decodes, arrives, power, energy in terms:
            if check:
                energy_before, harvested, debited = sum(battery), 0.0, 0.0
            if record:
                resolved, tx_power = [], None
            forwarder = None
            # 1. FORWARD the message broadcast last slot (under "framed" an
            # even one, so this slot is odd or the drain slot)
            if pending is not None:
                msg, decoders = pending
                pending = None
                # srs keeps its single decoder pending, which could pay at designation
                forwarder = mrs_final_select(decoders, battery, energy) if mrs else decoders[0]
                if forwarder is None:
                    outcome = Outcome.NO_FEASIBLE_POWER if decoders else Outcome.NO_DECODER
                else:
                    debited = energy[forwarder]
                    if battery[forwarder] < debited:
                        raise InvariantError(
                            f"slot {slot}: forwarder {forwarder} cannot pay {debited} J"
                        )
                    battery[forwarder] -= debited
                    outcome = Outcome.SUCCESS if arrives[forwarder] else Outcome.DECODE_FAIL
                    if record:
                        tx_power = float(power[forwarder])
                if msg >= warmup:
                    tally[outcome] += 1
                if record:
                    resolved.append((msg, outcome))
            # 2. DESIGNATE the m richest free relays, equal batteries in id
            # order (a stable sort); srs's listener must afford its forward
            if slot < n_slots and not slot % period:
                ranked = sorted(ids, key=stored, reverse=True)
                if forwarder is not None:
                    ranked.remove(forwarder)
                listeners = ranked[:m]
                if not mrs and listeners and battery[listeners[0]] < fixed_cost:
                    listeners = []  # the richest cannot pay, so none can
                if record:
                    listeners.sort()
                # a loop: a comprehension's function object each slot would
                # tip gen 0, which holds a block's terms, into a GC pass a block
                decoded = []
                for rid in listeners:
                    if decodes[rid]:
                        decoded.append(rid)
                # 3. BROADCAST: idle relays harvest; listeners and the forwarder do not
                del ranked[:len(listeners)]
                for rid in ranked:
                    battery[rid] += harvest[rid]
                if check:
                    harvested = sum([harvest[rid] for rid in ranked])
                if mrs or decoded:
                    pending = (message, decoded)
                else:  # srs: its listener did not decode, or no relay could pay
                    outcome = Outcome.DECODE_FAIL if listeners else Outcome.NO_CANDIDATE
                    if message >= warmup:
                        tally[outcome] += 1
                    if record:
                        resolved.append((message, outcome))
                message += 1
            else:
                listeners = decoded = []
            if check:
                self._check_slot(slot, energy_before, harvested, debited, forwarder, listeners)
            if record:
                record(slot, resolved, forwarder, tx_power, listeners, decoded)
            slot += 1
            # the slot after the last one is the forward-only drain slot
            if slot >= n_slots and pending is None:
                break
        self.pending, self.next_message = pending, message
        return slot

    def _check_slot(self, slot, energy_before, harvested, debited, forwarder, designated):
        # one forwarder variable: at most one relay transmits per slot
        if forwarder is not None and forwarder in designated:
            raise InvariantError(f"slot {slot}: transmitter {forwarder} was designated")
        for rid, battery in enumerate(self.battery):
            if battery < 0:
                raise InvariantError(f"slot {slot}: relay {rid} battery negative ({battery})")
        balance = sum(self.battery) - energy_before - harvested + debited
        if abs(balance) > LEDGER_TOL:
            raise InvariantError(f"slot {slot}: energy ledger off by {balance}")


# a trace record's JSON outcome pair, after the message id
_OUTCOME_TAILS = {res: f', "{res.value}"]' for res in Outcome}
# the end of _trace_line's template: a record line ends with its
# gains, so replay can find them unparsed
_GAINS_TAIL = b', "gains": "%s"}\n'
# bytes as base64 on one line; a partial adds no Python frame per call
_b64 = functools.partial(binascii.b2a_base64, newline=False)


def _gains_texts(rows: np.ndarray) -> list[bytes]:
    """Each slot's gains in a gain block, packed: one binascii call a row."""
    raw, width = memoryview(rows).cast("B"), 8 * rows.shape[1]
    return [_b64(raw[i:i + width]) for i in range(0, len(raw), width)]


def _trace_line(slot, resolved, forwarder, tx_power, designated, decoded,
                battery: str, gains: str) -> str:
    """The format 2 trace line of a slot that _Trial.run recorded, battery
    and gains packed as base64 of little-endian float64s: the bytes of
    json.dumps(record) + "\n", as ids are Python ints and lists of them,
    whose repr is their JSON, and tx_power is always finite, so its repr is
    too."""
    outcomes = ", ".join([f"[{msg}{_OUTCOME_TAILS[res]}" for msg, res in resolved])
    return (
        f'{{"slot": {slot}, '
        f'"forwarder": {"null" if forwarder is None else forwarder}, '
        f'"tx_power": {"null" if tx_power is None else repr(tx_power)}, '
        f'"designated": {designated!r}, "decoded": {decoded!r}, '
        f'"outcomes": [{outcomes}], "battery": "{battery}", "gains": "{gains}"}}\n'
    )


def run_trial(
    config: SimConfig,
    *,
    trace_path=None,
    check_invariants: bool = False,
) -> dict[Outcome, int]:
    """Simulate one seeded run and count its post-warmup message outcomes.

    Returns the count of each Outcome, every key present: the shape of one
    run_batch row. Output is a pure function of the config (seed included).
    With trace_path set, a format 2 trace is written for later replay_check:
    the config header, then one JSON record per slot with the batteries and
    gains packed, written a gain block at a time; its outcomes field holds
    each message's resolution.
    """
    trial = _Trial(config)
    if trace_path is None:
        blocks = map(trial.slot_terms, _gain_draws(config))
        trial.run(0, itertools.chain.from_iterable(blocks), None, check_invariants)
        return trial.tally
    Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
    pack_battery = struct.Struct(f"<{config.n_relays}d").pack
    battery, lines = trial.battery, []

    def record(slot, *fields):
        packed = _b64(pack_battery(*battery)).decode()
        lines.append(_trace_line(slot, *fields, packed, texts[slot - first].decode()))

    with open(trace_path, "w", newline="\n") as writer:
        header = {"kind": "config", "version": __version__, "format": TRACE_FORMAT,
                  "config": config.to_dict()}
        writer.write(json.dumps(header) + "\n")
        slot = 0
        for rows in _gain_draws(config):
            if slot >= config.n_slots and trial.pending is None:
                break
            first, texts = slot, _gains_texts(rows)
            try:
                slot = trial.run(slot, trial.slot_terms(rows), record, check_invariants)
            finally:  # a failed check leaves the trace at the last slot stepped
                writer.write("".join(lines))
                lines.clear()
    return trial.tally


BATCH_AXES = ("m", "target_rate")
_OUTCOMES = tuple(Outcome)
# int8, so that codes built from them stay int8
_SUCCESS, _NO_CANDIDATE, _DECODE_FAIL, _NO_DECODER, _NO_FEASIBLE = map(
    np.int8, range(len(_OUTCOMES))
)


def batch_key(config: SimConfig) -> tuple:
    """Every field but policy, m and target_rate: configs with equal keys
    share a gain field and can run in one run_batch."""
    return tuple(
        getattr(config, f.name) for f in fields(config)
        if f.name != "policy" and f.name not in BATCH_AXES
    )


def run_batch(configs: Sequence[SimConfig]) -> list[dict[Outcome, int]]:
    """Simulate configs that differ only in policy, m and target_rate, in
    lockstep.

    Returns, per config, the count of each Outcome over its post-warmup
    messages: exactly run_trial(config): its slot terms are _link_terms'
    tests and _harvest's and _inversion's floats, on _Trial's constants as
    (K, 1) columns, and ties break toward the lowest relay id as in _Trial. Each row carries its
    policy: an srs row pays fixed_cost, has M = 1, listens only where its
    relay can pay and succeeds only where the forward arrives; an mrs row
    pays the inversion energy.

    What does not read the batteries (inversion costs, decode masks) is
    derived for CHUNK slots at a time; each slot then makes one numpy call
    per battery-dependent step. Outcomes are kept as per-message flags and
    turned into codes once per gain block, where each srs forward's arrival
    is read off the payer stored for its message.
    """
    if not configs:
        raise ConfigError("run_batch needs at least one config")
    first = configs[0]
    key = batch_key(first)
    for cfg in configs[1:]:
        if batch_key(cfg) != key:
            raise ConfigError("run_batch configs may differ only in policy, m and target_rate")
    k, n = len(configs), first.n_relays
    period, n_slots = PERIOD[first.schedule], first.n_slots
    is_srs = np.array([c.policy == SRS for c in configs])
    srs_rows = np.flatnonzero(is_srs)
    rows = [_constants(c) for c in configs]
    columns = _Constants(*np.array(rows).T[:, :, None])  # each a (K, 1) column
    shared = rows[0]
    fixed_cost = shared.fixed_cost
    forward_min = columns.forward_min[srs_rows, 0]  # read at block end
    # the relay at rank r of a row's order listens iff r < m, 1 for srs
    top = np.arange(n) < np.array([[1 if c.policy == SRS else c.m] for c in configs])
    # a relay listens iff its rank is below its row's bound: a busy relay
    # ranks +inf, a free one -battery, and -battery < nextafter(-fixed_cost,
    # inf) iff battery >= fixed_cost, so an srs listener can pay its forward
    bound = np.full((k, n), np.inf)
    bound[srs_rows] = math.nextafter(-fixed_cost, math.inf)
    # per row, the code of a failed message that had a listener (srs) or a
    # decoder (mrs), and of one that had none
    tried_fail = np.where(is_srs, _DECODE_FAIL, _NO_FEASIBLE).astype(np.int8)
    untried_fail = np.where(is_srs, _NO_CANDIDATE, _NO_DECODER).astype(np.int8)
    # each slot of a chunk pays the fixed cost; mrs rows replace it per chunk
    costs = [fixed_cost] * CHUNK

    battery = np.full((k, n), shared.initial_energy)
    # battery[row, relay] is battery_cells[offsets[row] + relay]
    battery_cells = battery.reshape(-1)
    offsets = np.arange(0, k * n, n)
    row_cells = np.repeat(offsets, n).reshape(k, n)  # offsets[:, None], in full
    # a broadcast's listeners, then those that decoded (read by the next FORWARD)
    heard = np.zeros((2, k, n), bool)
    listening, decoders = heard
    listening_cells = listening.reshape(-1)
    rank = np.empty((k, n))
    rank_cells = rank.reshape(-1)
    idle = np.empty((k, n), bool)  # neither listening nor forwarding
    idle_cells = idle.reshape(-1)
    # where's fill value, in full: numpy broadcasts a scalar more slowly
    minus_inf = np.full((k, n), -np.inf)
    nobody = offsets[:0]  # the cells that pay in a slot without a forward
    every = np.ones(n, bool)  # heard @ every: bool matmul, any along a row
    # the pending message is always the last one broadcast: message - 1
    pending = False
    # one gain block's per-message flags: row i is message held + i
    flag_rows = (min(GAIN_BLOCK, n_slots) + 1, k)
    succeeded = np.zeros(flag_rows, bool)   # paid, and for srs (at block end) arrived
    # had a listener, and had a decoder: a failed srs message was tried if
    # it had a listener, an mrs one if it had a decoder
    tried = np.zeros((flag_rows[0], 2, k), bool)
    payers = np.zeros(flag_rows, np.intp)   # the best decoder: the relay that paid, if any
    counts = np.zeros((k, len(_OUTCOMES)), np.int64)
    # row r's outcome codes count at r * len(_OUTCOMES) + code
    code_base = np.arange(0, counts.size, len(_OUTCOMES))
    warmup = first.broadcasts(first.warmup_slots)
    message = held = slot = forwards = 0
    for gains in _gain_draws(first):
        harvest = _harvest(first, shared, gains[:, :n])
        g_sl, g_ld = gains[:, None, :n], gains[:, None, n:]  # slot, row, relay
        start = slot
        for b in range(len(gains)):
            if slot >= n_slots and not pending:
                break
            j = b % CHUNK
            if j == 0:
                chunk = slice(b, b + CHUNK)
                decodes = g_sl[chunk] >= columns.decode_min
                if srs_rows.size < k:
                    costs = _inversion(first, columns, g_ld[chunk])[1]
                    costs[:, srs_rows] = fixed_cost
            paid = nobody
            # 1. FORWARD
            if pending:
                row = message - 1 - held
                # each decoder's battery left after its forward, -inf for
                # the others
                margin = np.where(decoders, battery - costs[j], minus_inf)
                payer = offsets + margin.argmax(1, out=payers[row])
                # the best decoder pays iff its margin is >= 0, so no payer
                # overdraws; a message without decoders is not forwarded
                best = margin.take(payer)
                pays = np.greater_equal(best, 0.0, out=succeeded[row])
                paid = payer[pays]
                battery_cells[paid] = best[pays]
                forwards += 1
                pending = False
            # 2. DESIGNATE + 3. BROADCAST
            if slot < n_slots and not slot % period:
                row = message - held
                np.negative(battery, out=rank)
                rank_cells[paid] = np.inf  # the forwarder is busy
                # stable: equal batteries rank by relay id
                listening_cells[rank.argsort(1, kind="stable") + row_cells] = top
                listening &= rank < bound
                np.logical_and(listening, decodes[j], out=decoders)
                np.matmul(heard, every, out=tried[row])
                pending = True
                # idle relays harvest; listeners and the forwarder do not
                np.logical_not(listening, out=idle)
                idle_cells[paid] = False
                # a busy relay adds harvest * False, +0.0: its battery stays
                battery += harvest[b] * idle
                message += 1
            slot += 1
        # tally the resolved messages; a pending one moves to row 0
        last = message - 1 if pending else message
        counted = slice(max(warmup - held, 0), last - held)
        if forwards != last:  # each message broadcast but the pending one forwarded
            raise InvariantError("a message was left without an outcome")
        if srs_rows.size:
            # a fixed-power forward must also arrive: message held + i,
            # broadcast in slot (held + i) * period, forwards in the next
            sent = np.arange(held + counted.start, held + counted.stop) * period + 1 - start
            relays = payers[counted][:, srs_rows]
            succeeded[counted, srs_rows] &= gains[sent[:, None], n + relays] >= forward_min
        had = np.where(is_srs, tried[counted, 0], tried[counted, 1])
        codes = np.where(had, tried_fail, untried_fail)
        np.copyto(codes, _SUCCESS, where=succeeded[counted])
        counts += np.bincount((codes + code_base).ravel(), minlength=counts.size).reshape(k, -1)
        # every other row is written before it is read again
        if pending:
            tried[0] = tried[last - held]
        held = last
    return [dict(zip(_OUTCOMES, row)) for row in counts.tolist()]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of re-running a trace through the update rules."""

    ok: bool
    divergent_slot: int | None = None
    detail: str = ""
    tally: dict[Outcome, int] | None = None  # run_trial's count, when ok


_REPLAY_FIELDS = ("forwarder", "tx_power", "designated", "decoded", "outcomes", "battery")


class _Refused(Exception):
    """Stops a replay; its one argument is the ReplayResult that refuses."""


def _malformed(slot: int, exc: Exception) -> _Refused:
    return _Refused(ReplayResult(False, slot, f"malformed record ({type(exc).__name__}: {exc})"))


def _gain_mismatch(recorded: list, drawn: list, n: int) -> str | None:
    """Where a recorded gain lies more than GAIN_ULPS from the seed's draw."""
    count = len(drawn)
    # for finite floats of one sign, the gap of their bit patterns counts ulps
    bits = struct.Struct(f"<{count}q").unpack
    pack = struct.Struct(f"<{count}d").pack
    for i, (a, b) in enumerate(zip(bits(pack(*recorded)), bits(pack(*drawn)))):
        if abs(a - b) > GAIN_ULPS:
            key = "g_sl" if i < n else "g_ld"
            return (
                f"{key}[{i % n}]: recorded {recorded[i]!r} is {abs(a - b)} ulps"
                f" from the seed's draw {drawn[i]!r}"
            )
    return None


def _parse_record(line: bytes, slot: int, drawn: list | None, n: int):
    """Parse the record line of a slot and check it as far as the step: its
    slot number, and its 2n packed gains against drawn, the seed's draw for
    the slot, or None past the end of the run. Returns (record, gains), or
    raises _Refused."""
    try:
        rec = json.loads(line.decode())
        recorded_slot = rec["slot"]
        if type(recorded_slot) is not int:
            raise TypeError(f"slot must be an integer, got {recorded_slot!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise _malformed(slot, exc)
    if recorded_slot != slot:
        raise _Refused(ReplayResult(False, recorded_slot, f"expected slot {slot}"))
    if drawn is None:
        raise _Refused(ReplayResult(False, slot, "record past the end of the run"))
    try:
        gains = _unpack(rec["gains"], 2 * n)
    except (ValueError, KeyError, TypeError) as exc:
        raise _malformed(slot, exc)
    if gains != drawn:
        mismatch = _gain_mismatch(gains, drawn, n)
        if mismatch is not None:
            raise _Refused(ReplayResult(False, slot, mismatch))
    return rec, gains


def replay_check(trace_path) -> ReplayResult:
    """Recompute every state transition of a format 2 trace on its gains.

    The file is read once, one line at a time, each line just before
    _Trial.run steps its slot, and each record is stepped once. A line that
    ends with the seed's draw for its slot, drawn again as run_trial draws
    it, is stepped on that draw unparsed. Any other line is parsed, and its
    gains must lie within GAIN_ULPS of the draw (numpy's log1p rounds
    differently on some CPUs). Each line must then equal the one run_trial
    writes for its step and gains; a line that does not is compared field by
    field, bit-exactly and in JSON type, to name the field that diverged.
    Returns ok=True iff every record matches and the records reach the end
    of the run; otherwise the first divergent slot.
    """
    with open(trace_path, "rb") as fh:
        first = fh.readline()
        if not first:
            return ReplayResult(False, None, "empty trace")
        try:
            header = json.loads(first.decode())
            config_data = header["config"] if header.get("kind") == "config" else None
        except (ValueError, KeyError, AttributeError):
            config_data = None
        if not isinstance(config_data, dict):
            return ReplayResult(False, None, "missing config header")
        # no "format" is format 1; exactly: true and 2.0 compare equal to 1, 2
        trace_format = header.get("format", 1)
        if type(trace_format) is not int or trace_format != TRACE_FORMAT:
            return ReplayResult(False, None, f"unknown trace format {trace_format!r}")
        config = SimConfig.from_dict(config_data)
        n, n_slots = config.n_relays, config.n_slots
        pack_battery = struct.Struct(f"<{n}d").pack
        trial = _Trial(config)
        battery = trial.battery
        # the line of the slot being stepped: its bytes, its gains text, its
        # record if parsed, and the seed's gain row
        line = gains = rec = row = None

        def read_lines():
            """Read each slot's line before it is stepped; yield its terms, of
            the seed's draw or of the line's gains where they differ."""
            nonlocal line, gains, rec, row
            slot = 0
            for rows in _gain_draws(config):
                for row, terms, gains in zip(rows, trial.slot_terms(rows), _gains_texts(rows)):
                    if not (line := fh.readline()):
                        return
                    rec = None
                    # the ", " before the tail leaves its quotes unescaped, and
                    # json.loads keeps the last of repeated keys: a line that
                    # ends with the tail and parses holds exactly these gains
                    if not line.endswith(_GAINS_TAIL % gains):
                        drawn = row.tolist()
                        rec, recorded = _parse_record(line, slot, drawn, n)
                        if recorded != drawn:  # equal gains give the drawn terms
                            terms = trial.slot_terms(np.array([recorded]))[0]
                        gains = rec["gains"].encode()  # the record's own, checked
                    yield terms
                    slot += 1

        def compare(slot, *fields):
            """Refuse a line unlike run_trial's that differs in a field."""
            nonlocal rec
            packed = _b64(pack_battery(*battery)).decode()
            if line == _trace_line(slot, *fields, packed, gains.decode()).encode():
                return
            if rec is None:
                rec = _parse_record(line, slot, row.tolist(), n)[0]
            resolved, forwarder, tx_power, designated, decoded = fields
            outcomes = [[msg, res.value] for msg, res in resolved]
            computed = (forwarder, tx_power, designated, decoded, outcomes, packed)
            # repr keeps apart what == equates: true, 1 and 1.0, and -0.0 and 0.0
            for key, value in zip(_REPLAY_FIELDS, computed):
                if repr(value) != repr(rec.get(key)):
                    raise _Refused(ReplayResult(
                        False, slot, f"{key}: recomputed {value!r} != recorded {rec.get(key)!r}"
                    ))

        try:
            slot = trial.run(0, read_lines(), compare)
            # run_trial stops after the last slot, or after the drain slot
            # that resolves the last message: any line past the end is refused
            line = fh.readline()
            if line:
                _parse_record(line, slot, None, n)
        except _Refused as refused:
            return refused.args[0]
    if trial.pending is not None:
        return ReplayResult(False, slot, "trace ends with an unresolved message")
    # a trace cut where no message is pending steps cleanly up to its cut
    if slot < n_slots:
        return ReplayResult(False, slot, f"trace ends at slot {slot} of {n_slots}")
    return ReplayResult(True, tally=trial.tally)
