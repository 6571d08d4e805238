"""One benchmark operation in a fresh process.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds "commands" (a list of argv lists for swiptrelay.cli.main),
"src" (the checkout's src directory, which swiptrelay must come from),
"result" (where to write the measurements as JSON) and, for a traced
operation, "trace_dir" (scratch directory for the pool workers' spans).

Measured here: setup_s (import swiptrelay.cli and build its parser),
wall_s (the main() calls, back to back), cpu_s (user + system of this
process and of the pool workers it waited for) and peak_rss_mb (this
process's peak plus the largest peak among those workers).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import swiptrelay.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"swiptrelay imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec.get("trace_dir"):
        from tracer import Tracer

        tracer = Tracer(spec["trace_dir"])
        tracer.install()

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = io.StringIO()
    codes = []
    wall_start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        for argv in spec["commands"]:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 1)
    wall_s = time.perf_counter() - wall_start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    import numpy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self_after) - _cpu(self_before)
        + _cpu(children_after) - _cpu(children_before),
        "peak_rss_mb": (self_after.ru_maxrss + children_after.ru_maxrss) / 1024.0,
        "codes": codes,
        "stdout": out.getvalue(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.merge_workers()
        tracer.run_twins()
        result["layers"] = tracer.report()
        result["absent"] = tracer.absent
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
