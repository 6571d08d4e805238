"""References the engines never evaluate, kept as test oracles: textbook
link formulas (the engines compare gains with thresholds instead of taking
logs), a slot's battery-free terms derived one relay at a time in plain
Python, and a slot's trace record as a dict, which json.dumps turns into
the bytes run_trial's line template must write.
"""

import math

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


def slot_terms(config, g_sl, g_ld) -> tuple:
    """One slot's (harvest, decodes, arrives, power, energy), as
    _Trial.slot_terms gives them for a row of gains, with None for the
    other policy's terms; each relay's term is a float or bool of its own."""
    source_power = dbw_to_watts(config.source_power_dbw)
    numerator = inversion_numerator(config.target_rate, config.noise_var, config.distance)
    harvest = []
    for gain in g_sl:
        amount = (config.eta * source_power * gain * config.slot_duration
                  / config.distance**PATH_LOSS_EXP)
        harvest.append(0.0 if amount < config.sense_threshold else amount)
    decodes = [gain >= numerator / source_power for gain in g_sl]
    if config.policy == "srs":
        forward_min = numerator / dbw_to_watts(config.relay_power_dbw)
        return harvest, decodes, [gain >= forward_min for gain in g_ld], None, None
    power = [inversion_power(config.target_rate, gain, config.noise_var, config.distance)
             for gain in g_ld]
    return harvest, decodes, None, power, [p * config.slot_duration for p in power]


def record(slot: int, fields: tuple, battery) -> dict:
    """The trace record of a slot that _Trial.step stepped and returned
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
    terms of a 1-row gain array; returns the step's fields."""
    terms = trial.slot_terms(np.array([[*g_sl, *g_ld]], dtype=float))[0]
    return trial.step(slot, terms, check)


def step(trial, slot: int, g_sl, g_ld, check: bool = False) -> tuple[list, dict]:
    """Step trial one slot; returns its resolved (message, Outcome) pairs and
    its record."""
    fields = advance(trial, slot, g_sl, g_ld, check)
    return fields[0], record(slot, fields, trial.battery)
