"""The ROADMAP baseline table, measured in process without wrappers.

Usage: python3 table.py RESULT_JSON [--tiny]

Writes {"metrics": {name: value}, "absent": [...]} with:

- engine.us_per_slot.<scenario>: run_trial time per config slot
  (n_slots + the drain slot) for the four ROADMAP scenarios;
- channel.draw_us_per_slot.single / .block4096: draw_gain for the 2N = 20
  gains of one N=10 slot, drawn slot by slot or in blocks of 4096 slots;
- harness.pool_overhead_ms_per_job: sweep on a tiny grid at workers=2
  minus workers=1, per job.

Each figure is the median of REPEATS timings.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

REPEATS = 3
SCENARIOS = {
    "srs_n1_framed": dict(n_relays=1, policy="srs", eta=0.5, schedule="framed"),
    "srs_n5_pipelined": dict(n_relays=5, policy="srs", eta=0.5),
    "mrs_n10_m4": dict(n_relays=10, policy="mrs", m=4, eta=0.05),
    "mrs_n20_m10": dict(n_relays=20, policy="mrs", m=10, eta=0.05),
}
BLOCK = 4096
DRAW_RELAYS = 10


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(tiny: bool) -> dict:
    from swiptrelay import channel, harness
    from swiptrelay.engine import SimConfig, run_trial

    metrics, absent = {}, []
    n_slots = 200 if tiny else 4000
    for label, params in SCENARIOS.items():
        config = SimConfig(n_slots=n_slots, seed=777, **params)
        elapsed = _median_time(lambda: run_trial(config))
        metrics[f"engine.us_per_slot.{label}"] = elapsed / (n_slots + 1) * 1e6

    draw_gain = getattr(channel, "draw_gain", None)
    if draw_gain is None:
        absent.append("swiptrelay.channel.draw_gain")
    else:
        blocks = 1 if tiny else 4
        slots = blocks * BLOCK
        width = 2 * DRAW_RELAYS

        def single():
            rng = channel.gain_stream(777)
            for _ in range(slots):
                draw_gain(rng, width)

        def block():
            rng = channel.gain_stream(777)
            for _ in range(blocks):
                draw_gain(rng, (BLOCK, width))

        metrics["channel.draw_us_per_slot.single"] = _median_time(single) / slots * 1e6
        metrics["channel.draw_us_per_slot.block4096"] = _median_time(block) / slots * 1e6

    base = SimConfig(n_relays=5, seed=777)
    rates = [0.5, 1.0, 1.5, 2.0]
    messages = 50 if tiny else 200
    spec = harness.SweepSpec(base=base, rates=rates, messages=messages)
    serial = _median_time(lambda: harness.sweep(spec))
    pooled = _median_time(lambda: harness.sweep(replace(spec, workers=2)))
    metrics["harness.pool_overhead_ms_per_job"] = (pooled - serial) / len(rates) * 1e3
    return {"metrics": metrics, "absent": absent}


if __name__ == "__main__":
    result = measure("--tiny" in sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(result))
