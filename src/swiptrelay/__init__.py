"""Monte Carlo simulator for outage probability of RF-powered
decode-and-forward relay selection."""

__version__ = "0.1.0"

import os

# nothing in swiptrelay calls BLAS, yet OpenBLAS starts a thread per core
# when numpy loads, each spinning for about 0.1 s of CPU before it sleeps;
# a value already set is kept, and a numpy loaded earlier is not affected
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from swiptrelay.channel import (
    dbw_to_watts,
    draw_gain,
    gain_stream,
)
from swiptrelay.engine import (
    Outcome,
    ReplayResult,
    SimConfig,
    mrs_final_select,
    replay_check,
    run_batch,
    run_trial,
    slots_for_messages,
)
from swiptrelay.errors import ConfigError, InvariantError
from swiptrelay.harness import (
    MStarResult,
    OutageEstimate,
    PolicyComparison,
    SweepResult,
    SweepSpec,
    compare_policies,
    estimate_outage,
    optimize_m,
    sweep,
)

__all__ = [
    "ConfigError",
    "InvariantError",
    "MStarResult",
    "OutageEstimate",
    "Outcome",
    "PolicyComparison",
    "ReplayResult",
    "SimConfig",
    "SweepResult",
    "SweepSpec",
    "__version__",
    "compare_policies",
    "dbw_to_watts",
    "draw_gain",
    "estimate_outage",
    "gain_stream",
    "mrs_final_select",
    "optimize_m",
    "replay_check",
    "run_batch",
    "run_trial",
    "slots_for_messages",
    "sweep",
]
