import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import inversion_power, link_rate
from swiptrelay.channel import (
    dbw_to_watts,
    draw_gain,
    gain_from_uniform,
    gain_stream,
)
from swiptrelay.engine import SimConfig, _constants
from swiptrelay.errors import ConfigError


def test_dbw_to_watts():
    assert dbw_to_watts(0.0) == 1.0
    assert dbw_to_watts(10.0) == pytest.approx(10.0)
    assert dbw_to_watts(20.0) == pytest.approx(100.0)
    assert dbw_to_watts(-10.0) == pytest.approx(0.1)


def test_gain_from_uniform_endpoints():
    assert gain_from_uniform(1.0) == 0.0
    assert gain_from_uniform(math.exp(-1.0)) == pytest.approx(1.0)
    arr = gain_from_uniform(np.array([1.0, math.exp(-2.0)]))
    assert arr[0] == 0.0 and arr[1] == pytest.approx(2.0)


def test_gain_stream_deterministic_and_separated():
    a = draw_gain(gain_stream(123), size=16)
    b = draw_gain(gain_stream(123), size=16)
    c = draw_gain(gain_stream(124), size=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # the stream every gain field has been drawn from: spawn key (0,)
    seq = np.random.SeedSequence(123, spawn_key=(0,))
    u = np.random.Generator(np.random.PCG64(seq)).random(16)
    assert a.tobytes() == (-np.log1p(-u)).tobytes()


def test_draw_gain_is_unit_mean_exponential():
    g = draw_gain(gain_stream(2024), size=200_000)
    assert g.min() >= 0.0
    assert g.mean() == pytest.approx(1.0, abs=0.01)
    # P(g > 1) = 1/e for a unit-mean exponential
    assert (g > 1.0).mean() == pytest.approx(math.exp(-1.0), abs=0.01)


def test_link_rate_known_point():
    # g = 0.3, P = 10, sigma2 = 1, d = 1: 0.5 * log2(1 + 3) = 1 exactly
    assert link_rate(0.3, 10.0) == pytest.approx(1.0)
    assert link_rate(0.0, 10.0) == 0.0


def test_link_rate_monotone_in_gain_and_power():
    assert link_rate(0.5, 10.0) > link_rate(0.4, 10.0)
    assert link_rate(0.4, 20.0) > link_rate(0.4, 10.0)


def test_link_rate_distance_attenuation():
    # squared-distance path loss: same rate needs 4x the gain at d = 2
    assert link_rate(1.2, 10.0, distance=2.0) == pytest.approx(link_rate(0.3, 10.0))


def test_min_gain_for_rate_inverts_link_rate():
    """The engines' decode and forward gain thresholds sit exactly where
    link_rate reaches the target rate."""
    kw = dict(noise_var=2.0, distance=1.5, source_power_dbw=10.0, relay_power_dbw=13.0)
    for rate in (0.25, 1.0, 2.0, 3.5):
        cfg = SimConfig(target_rate=rate, **kw).validate()
        k = _constants(cfg)
        assert link_rate(k.decode_min, dbw_to_watts(10.0), 2.0, 1.5) == pytest.approx(rate)
        assert link_rate(k.forward_min, k.tx_power, 2.0, 1.5) == pytest.approx(rate)
    k = _constants(SimConfig(target_rate=0.0, **kw))
    assert k.decode_min == k.forward_min == 0.0


def test_min_gain_known_point():
    k = _constants(SimConfig())
    assert k.decode_min == k.forward_min == pytest.approx(0.3)


def test_inversion_power_known_point():
    # (2^2 - 1) * 1 * 1 / 0.3 = 10
    assert inversion_power(1.0, 0.3, 1.0, 1.0) == pytest.approx(10.0)


def test_inversion_power_edge_cases():
    assert inversion_power(0.0, 0.5, 1.0, 1.0) == 0.0
    assert inversion_power(1.0, 0.0, 1.0, 1.0) == math.inf


@given(
    gain=st.floats(min_value=1e-6, max_value=50.0),
    rate=st.floats(min_value=0.01, max_value=8.0),
)
def test_inversion_power_achieves_target_rate(gain, rate):
    """Transmitting at the inversion power meets the rate exactly."""
    power = inversion_power(rate, gain, 1.0, 1.0)
    achieved = link_rate(gain, power)
    assert achieved == pytest.approx(rate, rel=1e-9)


def test_link_budget_validation():
    for kw, key in (
        (dict(noise_var=0.0), "noise_var"),
        (dict(noise_var=-1.0), "noise_var"),
        (dict(distance=0.0), "distance"),
        (dict(distance=-2.0), "distance"),
    ):
        with pytest.raises(ConfigError, match=key):
            SimConfig(**kw).validate()
