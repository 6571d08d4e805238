"""References the engines never evaluate, kept as test oracles: textbook
link formulas (the engines compare gains with thresholds instead of taking
logs), the DESIGNATE rules one relay at a time (the engines rank batteries
instead), a slot's battery-free terms derived one relay at a time in plain
Python, the renewal-reward outage of one srs relay whose battery binds,
the energy-balance outage of srs at any N where batteries bind, and a
slot's trace record as a dict, which json.dumps turns into the bytes
run_trial's line template must write.
"""

import math
from typing import Collection, Sequence

import numpy as np

from swiptrelay.channel import PATH_LOSS_EXP, dbw_to_watts, inversion_numerator


def link_rate(
    gain_sq: float, tx_power: float, noise_var: float = 1.0, distance: float = 1.0
) -> float:
    """Spectral efficiency of one hop in bits/s/Hz.

    The 1/2 factor accounts for the two orthogonal slots a message occupies
    (source->relay, then relay->destination).
    """
    snr = gain_sq * tx_power / (noise_var * distance**PATH_LOSS_EXP)
    return 0.5 * math.log2(1.0 + snr)


def inversion_power(
    target_rate: float, gain_sq: float, noise_var: float, distance: float
) -> float:
    """Transmit power that makes the instantaneous link rate exactly target_rate.

    A zero gain needs infinite power; returns inf so callers treat the relay
    as infeasible.
    """
    if target_rate == 0:
        return 0.0
    if gain_sq == 0:
        return math.inf
    return inversion_numerator(target_rate, noise_var, distance) / gain_sq


def srs_select(
    battery: Sequence[float], fixed_cost: float, busy: Collection[int] = ()
) -> int | None:
    """Relay with the most stored energy among those able to pay fixed_cost.

    Relays in busy are skipped. Returns None when no other relay can afford
    the transmission (all relays then stay free to harvest).
    """
    best = None
    for rid, stored in enumerate(battery):
        if rid in busy or stored < fixed_cost:
            continue
        if best is None or stored > battery[best]:
            best = rid
    return best


def mrs_preselect(
    battery: Sequence[float], m: int, busy: Collection[int] = ()
) -> list[int]:
    """Sorted ids of the m relays not in busy with the largest stored energy.

    Ties at the boundary go to lower ids. When fewer than m relays are
    free (one may be transmitting), all free relays are taken.
    """
    # a stable sort keeps equal batteries in ascending id order
    ranked = sorted(range(len(battery)), key=battery.__getitem__, reverse=True)
    if busy:
        ranked = [rid for rid in ranked if rid not in busy]
    return sorted(ranked[:m])


def slot_terms(config, g_sl, g_ld) -> tuple:
    """One slot's (harvest, decodes, arrives, power, energy), as
    _Trial.slot_terms gives them for a row of gains; each relay's term is a
    float or bool of its own. srs pays the fixed power and cost, and its
    forward arrives iff the fixed-power link meets the rate; mrs pays the
    inversion power and energy, and its forward always arrives."""
    source_power = dbw_to_watts(config.source_power_dbw)
    numerator = inversion_numerator(config.target_rate, config.noise_var, config.distance)
    harvest = []
    for gain in g_sl:
        amount = (config.eta * source_power * gain * config.slot_duration
                  / config.distance**PATH_LOSS_EXP)
        harvest.append(0.0 if amount < config.sense_threshold else amount)
    decodes = [gain >= numerator / source_power for gain in g_sl]
    if config.policy == "srs":
        relay_power = dbw_to_watts(config.relay_power_dbw)
        arrives = [gain >= numerator / relay_power for gain in g_ld]
        power = [relay_power for _ in g_ld]
        return harvest, decodes, arrives, power, [p * config.slot_duration for p in power]
    power = [inversion_power(config.target_rate, gain, config.noise_var, config.distance)
             for gain in g_ld]
    return harvest, decodes, [True for _ in g_ld], power, [p * config.slot_duration for p in power]


def srs_single_relay_framed(config) -> tuple[float, float]:
    """Outage probability and NO_CANDIDATE share of srs with one relay on
    the framed schedule at sense threshold 0, where the battery binds.

    Write c for the fixed cost and s for the mean harvest of an idle
    broadcast slot; a = e^{-c/s}. Below c every message is NO_CANDIDATE and
    the relay harvests an Exp(mean s) amount, so it crosses c by an
    overshoot Y that is again Exp(mean s). From c + Y it forwards
    K = floor(1 + Y/c) times, E[K] = 1/(1 - a), each after a geometric
    number of broadcasts (decode probability p_d), and keeps Y mod c, whose
    mean is s - c a/(1 - a) whatever came before: the cycles after the first
    are i.i.d. A cycle then holds E[H] = 1 + (c - E[Y mod c])/s
    NO_CANDIDATE messages, and by renewal-reward (Ross, Stochastic
    Processes, ch. 3) the outage is 1 - q E[K]/(E[H] + E[K]/p_d), with q the
    chance that a fixed-power forward arrives, and the NO_CANDIDATE share is
    E[H]/(E[H] + E[K]/p_d)."""
    source_power = dbw_to_watts(config.source_power_dbw)
    relay_power = dbw_to_watts(config.relay_power_dbw)
    numerator = inversion_numerator(config.target_rate, config.noise_var, config.distance)
    cost = relay_power * config.slot_duration
    harvest = (config.eta * source_power * config.slot_duration
               / config.distance**PATH_LOSS_EXP)
    p_d, q = math.exp(-numerator / source_power), math.exp(-numerator / relay_power)
    a = math.exp(-cost / harvest)
    forwards = 1.0 / (1.0 - a)
    remainder = harvest - cost * a / (1.0 - a)
    short = 1.0 + (cost - remainder) / harvest
    cycle = short + forwards / p_d
    return 1.0 - q * forwards / cycle, short / cycle


def srs_energy_balance(config) -> tuple[float, float]:
    """Stationary outage probability and NO_CANDIDATE share of srs with any
    number of relays N, where batteries bind.

    Write eta for one idle relay's mean harvest per broadcast, in fixed
    costs: an Exp(mean u) amount kept only at or above the sense threshold
    s has mean u (1 + t) e^{-t}, t = s/u. Let P_c be the share of messages
    with a listener. A listener decodes with probability p_d and then
    forwards, paying one fixed cost; every other relay that neither
    listens nor forwards in a broadcast slot harvests. Batteries are
    unbounded, so in stationarity energy in equals energy out per message:
    eta (N - P_c) = P_c p_d framed, and eta (N - P_c - P_c p_d) = P_c p_d
    pipelined, where the previous message's forwarder misses the broadcast.
    So P_c = N eta / (p_d + eta) framed and N eta / (p_d + eta (1 + p_d))
    pipelined while that is below 1; above it batteries grow and P_c is 1.
    The outage is 1 - P_c p_d q, with q the chance that a fixed-power
    forward arrives, and the NO_CANDIDATE share is 1 - P_c. The balance
    reads only "a relay listens whenever some free relay can pay", so it
    holds whatever the ranking rule and the initial energy."""
    source_power = dbw_to_watts(config.source_power_dbw)
    relay_power = dbw_to_watts(config.relay_power_dbw)
    numerator = inversion_numerator(config.target_rate, config.noise_var, config.distance)
    p_d, q = math.exp(-numerator / source_power), math.exp(-numerator / relay_power)
    u = config.eta * source_power * config.slot_duration / config.distance**PATH_LOSS_EXP
    t = config.sense_threshold / u
    eta = u * (1.0 + t) * math.exp(-t) / (relay_power * config.slot_duration)
    spent = p_d + eta * (1.0 if config.schedule == "framed" else 1.0 + p_d)
    listens = min(1.0, config.n_relays * eta / spent)
    return 1.0 - listens * p_d * q, 1.0 - listens


def record(slot: int, fields: tuple, battery) -> dict:
    """The trace record of a slot that _Trial.run stepped and recorded
    fields for, with the batteries after it unpacked."""
    resolved, forwarder, tx_power, designated, decoded = fields
    return {
        "slot": slot,
        "forwarder": forwarder,
        "tx_power": tx_power,
        "designated": designated,
        "decoded": decoded,
        "outcomes": [[msg, res.value] for msg, res in resolved],
        "battery": list(battery),
    }


def advance(trial, slot: int, g_sl, g_ld, check: bool = False) -> tuple:
    """Step trial one slot on hand-picked gains, through the engine's slot
    terms of a 1-row gain array; returns the fields run records for it:
    the resolved (message, Outcome) pairs, the forwarder, its transmit
    power, and the designated and decoded ids."""
    terms = trial.slot_terms(np.array([[*g_sl, *g_ld]], dtype=float))
    recorded = []
    trial.run(slot, terms, lambda _, *fields: recorded.append(fields), check)
    return recorded[0]


def step(trial, slot: int, g_sl, g_ld, check: bool = False) -> tuple[list, dict]:
    """Step trial one slot; returns its resolved (message, Outcome) pairs and
    its record."""
    fields = advance(trial, slot, g_sl, g_ld, check)
    return fields[0], record(slot, fields, trial.battery)
