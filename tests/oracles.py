"""Textbook link formulas that the engines never evaluate, kept as test
oracles: the engines compare gains with thresholds instead of taking logs.
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
