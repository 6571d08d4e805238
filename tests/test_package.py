"""The public surface: what `import swiptrelay` exports and what it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import swiptrelay
from swiptrelay import engine


def test_the_public_names_are_sorted_unique_and_resolve():
    names = swiptrelay.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(swiptrelay, name), name
    namespace = {}
    exec("from swiptrelay import *", namespace)
    assert set(names) <= set(namespace)
    assert swiptrelay.mrs_final_select is engine.mrs_final_select
    assert not {"srs_select", "mrs_preselect"} & set(dir(swiptrelay))


# run in a fresh interpreter: each command, then the modules it has loaded
_COMMANDS = """
import json, sys
from swiptrelay.cli import main

POOL = ("concurrent.futures", "multiprocessing", "logging")
steps = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    steps.append([argv[0], code, [name for name in POOL if name in sys.modules]])
with open("steps.json", "w") as fh:
    json.dump(steps, fh)
"""


def test_only_a_sweep_that_starts_a_pool_loads_the_pool_machinery(tmp_path):
    small = ["--n", "4", "--messages", "100"]
    sweep = ["sweep", "--etas", "0.1,0.5", *small]
    commands = [
        ["run", *small, "--out", "run.csv"],
        ["run", *small, "--out", "traced.csv", "--trace", "t.jsonl"],
        ["replay", "t.jsonl"],
        ["opt-m", *small, "--out", "opt.csv"],
        ["compare", *small, "--workers", "2", "--out", "compare.csv"],
        [*sweep, "--workers", "1", "--out", "serial.csv"],
        [*sweep, "--workers", "2", "--out", "pooled.csv"],
    ]
    src = str(Path(swiptrelay.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _COMMANDS, json.dumps(commands)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    steps = json.loads((tmp_path / "steps.json").read_text())
    assert [(name, code) for name, code, _ in steps] == [(argv[0], 0) for argv in commands]
    assert [loaded for _, _, loaded in steps[:-1]] == [[]] * (len(commands) - 1)
    assert steps[-1][2] == ["concurrent.futures", "multiprocessing", "logging"]
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()



# a fresh interpreter: OpenBLAS's thread count after `import swiptrelay`,
# then the threads the process runs (1 where /proc does not list them)
_BLAS = """
import os
import swiptrelay
tasks = "/proc/self/task"
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)
"""


def test_import_keeps_openblas_to_one_thread_unless_told_otherwise(tmp_path):
    src = str(Path(swiptrelay.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    seen = []
    for given in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        done = subprocess.run([sys.executable, "-c", _BLAS], cwd=tmp_path,
                              env={**env, **given, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        seen.append(done.stdout.split())
    assert seen[0] == ["1", "1"]
    assert seen[1][0] == "2"
