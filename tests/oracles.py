"""References the engines never evaluate, kept as test oracles: textbook
link formulas (the engines compare gains with thresholds instead of taking
logs) and a slot's trace record as a dict, which json.dumps turns into the
bytes run_trial's line template must write.
"""

import math

from swiptrelay.channel import PATH_LOSS_EXP, inversion_numerator


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


def step(trial, slot: int, g_sl, g_ld, check: bool = False) -> tuple[list, dict]:
    """Step trial one slot; returns its resolved (message, Outcome) pairs and
    its record."""
    fields = trial.step(slot, g_sl, g_ld, check)
    return fields[0], record(slot, fields, trial.battery)
