"""Rayleigh block-fading channel model: gain draws and the link budget.

Channels are represented by their squared magnitude |h|^2, which for a
Rayleigh amplitude with mean-1 power is exponentially distributed with mean 1.
Gains are drawn by inverse CDF (-ln(1-u)) so that a given (seed, draw index)
always maps to the same value, independent of how the caller's control flow
branches.
"""

from __future__ import annotations

import math

import numpy as np

# Received power falls off as distance^2; the model hard-codes this exponent.
PATH_LOSS_EXP = 2
# The largest gain draw_gain returns: -ln(1 - u) at u = 1 - 2**-53.
MAX_GAIN = 53 * math.log(2)


def dbw_to_watts(x: float) -> float:
    """Convert a power level in dBW to watts (10 dBW -> 10 W)."""
    return 10.0 ** (x / 10.0)


def gain_from_uniform(u):
    """Inverse CDF of the unit-mean exponential: u in (0, 1] -> -ln(u)."""
    return -np.log(u) if isinstance(u, np.ndarray) else -math.log(u)


def gain_stream(seed: int) -> np.random.Generator:
    """Reproducible generator of one run's gain field."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))


def draw_gain(rng: np.random.Generator, size) -> np.ndarray:
    """Draw an array of i.i.d. squared channel gains |h|^2 ~ Exp(mean 1).

    rng.random() is uniform on [0, 1); 1-u lands on (0, 1] so the log is
    always finite.
    """
    # in place: one buffer per block rather than a temporary per operation
    gains = rng.random(size)
    np.log1p(np.negative(gains, out=gains), out=gains)
    return np.negative(gains, out=gains)


def inversion_numerator(target_rate: float, noise_var: float, distance: float) -> float:
    """Power times gain that meets target_rate.

    A hop carries 0.5 * log2(1 + g P / (sigma2 d^2)) bits/s/Hz, so this over
    a gain is the channel-inversion power and over a power the least gain.
    """
    return (2.0 ** (2.0 * target_rate) - 1.0) * noise_var * distance**PATH_LOSS_EXP
