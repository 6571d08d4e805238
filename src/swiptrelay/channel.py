"""Rayleigh block-fading channel model: gain draws, link rates, inversion power.

Channels are represented by their squared magnitude |h|^2, which for a
Rayleigh amplitude with mean-1 power is exponentially distributed with mean 1.
Gains are drawn by inverse CDF (-ln(1-u)) so that a given (seed, draw index)
always maps to the same value, independent of how the caller's control flow
branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swiptrelay.errors import ConfigError

# Received power falls off as distance^2; the model hard-codes this exponent.
PATH_LOSS_EXP = 2


@dataclass(frozen=True)
class LinkBudget:
    """Everything besides fading needed to turn a gain into a rate.

    tx_power and noise_var are in watts, distance in meters.
    """

    tx_power: float
    noise_var: float = 1.0
    distance: float = 1.0

    def __post_init__(self):
        if self.tx_power < 0:
            raise ConfigError(f"tx_power must be >= 0, got {self.tx_power}")
        if self.noise_var <= 0:
            raise ConfigError(f"noise_var must be > 0, got {self.noise_var}")
        if self.distance <= 0:
            raise ConfigError(f"distance must be > 0, got {self.distance}")


def dbw_to_watts(x: float) -> float:
    """Convert a power level in dBW to watts (10 dBW -> 10 W)."""
    return 10.0 ** (x / 10.0)


def gain_from_uniform(u):
    """Inverse CDF of the unit-mean exponential: u in (0, 1] -> -ln(u)."""
    return -np.log(u) if isinstance(u, np.ndarray) else -math.log(u)


def gain_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for one trial/replication.

    Streams derived from the same seed but different stream indices are
    statistically independent (SeedSequence spawn keys).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def draw_gain(rng: np.random.Generator, size: int | None = None):
    """Draw i.i.d. squared channel gains |h|^2 ~ Exp(mean 1).

    rng.random() is uniform on [0, 1); 1-u lands on (0, 1] so the log is
    always finite. Returns a float, or an ndarray when size is given.
    """
    if size is None:
        return -math.log1p(-rng.random())
    # in place: one buffer per block rather than a temporary per operation
    gains = rng.random(size)
    np.log1p(np.negative(gains, out=gains), out=gains)
    return np.negative(gains, out=gains)


def link_rate(gain_sq: float, budget: LinkBudget) -> float:
    """Spectral efficiency of one hop in bits/s/Hz.

    The 1/2 factor accounts for the two orthogonal slots a message occupies
    (source->relay, then relay->destination).
    """
    snr = gain_sq * budget.tx_power / (budget.noise_var * budget.distance**PATH_LOSS_EXP)
    return 0.5 * math.log2(1.0 + snr)


def min_gain_for_rate(target_rate: float, budget: LinkBudget) -> float:
    """Smallest |h|^2 at which link_rate reaches target_rate.

    link_rate(g, budget) >= R  <=>  g >= min_gain_for_rate(R, budget),
    which lets the hot loop test decodability without logs.
    """
    return (
        (2.0 ** (2.0 * target_rate) - 1.0)
        * budget.noise_var
        * budget.distance**PATH_LOSS_EXP
        / budget.tx_power
    )


def inversion_numerator(target_rate: float, noise_var: float, distance: float) -> float:
    """Power times gain that meets target_rate: inversion_power = this / gain."""
    return (2.0 ** (2.0 * target_rate) - 1.0) * noise_var * distance**PATH_LOSS_EXP


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
