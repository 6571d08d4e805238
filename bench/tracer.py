"""Layer spans for the traced benchmark run.

A Tracer replaces the public functions of each swiptrelay module with
timing wrappers, at every place the package binds them, and records per
wrapped name the call count, the total time and the time spent in wrapped
callees (so self time = total - child). Only the traced run imports this
module; the timed runs call the program unwrapped.

Names that no longer exist (ROADMAP items 2 and 3 delete or inline several)
are reported as absent instead of failing the run.

Pool workers are forked from the traced process, so they inherit the
wrappers. The pool job wrapper resets the worker's stats before each job
and writes them to a file afterwards; the parent merges those files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

# (layer, module whose binding the callers look up, name)
SPECS = (
    ("channel", "swiptrelay.engine", "gain_stream"),
    ("channel", "swiptrelay.channel", "gain_from_uniform"),
    ("relay", "swiptrelay.engine", "RelayState"),
    ("relay", "swiptrelay.engine", "harvest_amount"),
    ("relay", "swiptrelay.engine", "credit"),
    ("relay", "swiptrelay.engine", "debit_for_tx"),
    ("policies", "swiptrelay.engine", "srs_select"),
    ("policies", "swiptrelay.engine", "mrs_preselect"),
    ("policies", "swiptrelay.engine", "mrs_final_select"),
    ("engine", "swiptrelay.harness", "run_trial"),
    ("engine", "swiptrelay.cli", "replay_check"),
    ("harness", "swiptrelay.harness", "estimate_outage"),
    ("harness", "swiptrelay.harness", "sweep"),
    ("harness", "swiptrelay.harness", "optimize_m"),
    ("harness", "swiptrelay.harness", "compare_policies"),
    ("harness", "swiptrelay.harness", "_estimate_job"),
    ("harness", "swiptrelay.harness", "ProcessPoolExecutor"),
    ("cli", "swiptrelay.cli", "main"),
)

DRAW = "channel.draw"


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class _DrawProxy:
    """Stands in for the generator gain_stream returns; times random()."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def random(self, *args, **kwargs):
        return self._tracer.call(DRAW, self._rng.random, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = Path(worker_dir)
        self.root_pid = os.getpid()
        self.absent: list[str] = []
        self.wrapped: dict[str, object] = {}
        self._jobs = 0
        self.reset()

    def reset(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.counts: dict[str, float] = {}
        self.seeds: set[int] = set()
        self.traced_configs: list = []
        self._stack: list[list[float]] = []
        self._sweep_workers = 1

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            span = self.spans.setdefault(name, [0, 0.0, 0.0])
            span[0] += 1
            span[1] += elapsed
            span[2] += frame[0]

    def _timed(self, name, fn, args, kwargs):
        """Like call(), but also returns the span's own duration."""
        before = self.spans.get(name, [0, 0.0, 0.0])[1]
        result = self.call(name, fn, args, kwargs)
        return result, self.spans[name][1] - before

    # -- wrappers with per-name bookkeeping ----------------------------------

    def _wrapper(self, layer, name, orig):
        key = f"{layer}.{name}"
        tracer = self

        if name == "gain_stream":
            def wrapper(*args, **kwargs):
                return _DrawProxy(tracer.call(key, orig, args, kwargs), tracer)
        elif name == "debit_for_tx":
            def wrapper(*args, **kwargs):
                result = tracer.call(key, orig, args, kwargs)
                tracer.count("debit_ok", result is not None)
                return result
        elif name == "mrs_final_select":
            def wrapper(*args, **kwargs):
                result = tracer.call(key, orig, args, kwargs)
                tracer.count("final_feasible", result is not None)
                return result
        elif name == "run_trial":
            def wrapper(*args, **kwargs):
                config = _arg(args, kwargs, 0, "config")
                traced = kwargs.get("trace_path") is not None
                result, elapsed = tracer._timed(key, orig, args, kwargs)
                tracer.count("trial_slots", config.n_slots + 1)
                if traced:
                    tracer.count("traced_trial_s", elapsed)
                    tracer.count("traced_trial_slots", config.n_slots + 1)
                    tracer.traced_configs.append(config)
                return result
        elif name == "estimate_outage":
            def wrapper(*args, **kwargs):
                if os.getpid() == tracer.root_pid and tracer._sweep_workers > 1:
                    tracer.counts["serial_fallback"] = 1
                config = _arg(args, kwargs, 0, "config")
                result = tracer.call(key, orig, args, kwargs)
                tracer.seeds.add(config.seed)
                tracer.count("messages", result.messages)
                return result
        elif name == "sweep":
            def wrapper(*args, **kwargs):
                workers = getattr(_arg(args, kwargs, 0, "spec"), "workers", 1)
                outer, tracer._sweep_workers = tracer._sweep_workers, workers
                try:
                    result, elapsed = tracer._timed(key, orig, args, kwargs)
                finally:
                    tracer._sweep_workers = outer
                if workers > 1:
                    tracer.count("pool_capacity_s", workers * elapsed)
                return result
        elif name == "_estimate_job":
            def wrapper(*args, **kwargs):
                if os.getpid() == tracer.root_pid:
                    return tracer.call(key, orig, args, kwargs)
                tracer.reset()
                result, elapsed = tracer._timed(key, orig, args, kwargs)
                tracer.count("pool_job_s", elapsed)
                tracer._dump_worker()
                return result
        elif name == "ProcessPoolExecutor":
            class wrapper(orig):
                def __init__(self, *args, **kwargs):
                    tracer.count("pool_starts")
                    super().__init__(*args, **kwargs)
            return wrapper
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(key, orig, args, kwargs)
        return functools.wraps(orig)(wrapper)

    def install(self, specs=SPECS):
        """Wrap every spec'd name that exists; returns the absent ones."""
        for layer, module_name, name in specs:
            module = importlib.import_module(module_name)
            orig = getattr(module, name, None)
            if orig is None:
                self.absent.append(f"{module_name}.{name}")
                continue
            wrapper = self._wrapper(layer, name, orig)
            self.wrapped[name] = wrapper
            if inspect.isclass(orig):
                # classes are replaced only where the caller looks them up
                setattr(module, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "swiptrelay" and not mod_name.startswith("swiptrelay."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
        return self.absent

    # -- pool workers --------------------------------------------------------

    def _state(self):
        return {"spans": self.spans, "counts": self.counts, "seeds": sorted(self.seeds)}

    def _dump_worker(self):
        self._jobs += 1
        path = self.worker_dir / f"worker-{os.getpid()}-{self._jobs}.json"
        path.write_text(json.dumps(self._state()))

    def merge_workers(self):
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            state = json.loads(path.read_text())
            path.unlink()
            for name, (calls, total, child) in state["spans"].items():
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += calls
                span[1] += total
                span[2] += child
            for key, value in state["counts"].items():
                self.count(key, value)
            self.seeds.update(state["seeds"])

    # -- trace-write twin ----------------------------------------------------

    def run_twins(self):
        """Re-run each trace-writing trial without its trace; the stats are
        left as they were, and the twins' summed run_trial time is counted
        as twin_trial_s."""
        run_trial = self.wrapped.get("run_trial")
        if run_trial is None:
            return
        configs, saved = self.traced_configs, self._state()
        saved = json.loads(json.dumps(saved))
        twin_s = 0.0
        for config in configs:
            before = self.spans.get("engine.run_trial", [0, 0.0, 0.0])[1]
            run_trial(config)
            twin_s += self.spans["engine.run_trial"][1] - before
        self.spans, self.counts = saved["spans"], saved["counts"]
        self.count("twin_trial_s", twin_s)

    def report(self) -> dict:
        state = self._state()
        state["gain_fields"] = len(self.seeds)
        del state["seeds"]
        return state
