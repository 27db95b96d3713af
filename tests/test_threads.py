"""Importing ``ckom`` runs OpenBLAS on one thread per process, unless the user
chose a count with ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.

OpenBLAS fixes its thread count when numpy loads, so every case starts a fresh
interpreter with a clean environment and reads the counts back from numpy's
and scipy's OpenBLAS through ctypes.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")

# Prints {"numpy": n, "scipy": n}, the thread counts of the two OpenBLAS
# libraries; with the argument "pool", a list of [pid, counts] from the
# workers of cli._pool_map(..., jobs=2) instead.
_PROBE = """
import ctypes, glob, json, os, sys
import ckom.cli
import numpy, scipy

SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")

def blas_threads():
    counts = {}
    for package in (numpy, scipy):
        libs = glob.glob(os.path.join(os.path.dirname(package.__file__), os.pardir,
                                      package.__name__ + ".libs", "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            func = next((getattr(lib, s) for s in SYMBOLS if hasattr(lib, s)), None)
            if func is not None:
                func.restype = ctypes.c_int
                counts[package.__name__] = int(func())
    return counts

def worker_threads(_task):
    return [os.getpid(), blas_threads()]

if sys.argv[1:] == ["pool"]:
    workers = ckom.cli._pool_map(worker_threads, [0, 1], 2)
    assert all(pid != os.getpid() for pid, _counts in workers), "ran in the parent"
    print(json.dumps(workers))
else:
    print(json.dumps(blas_threads()))
"""


def probe(*args, **thread_env):
    """Output of _PROBE in a fresh interpreter whose only thread variables are
    ``thread_env``; skips where the OpenBLAS counts cannot be read."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = SRC
    env.update(thread_env)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    counts = [c for _pid, c in result] if args else [result]
    if any(set(c) != {"numpy", "scipy"} for c in counts):
        pytest.skip("numpy's or scipy's OpenBLAS thread count is not readable")
    return result


def _needs_two_cores():
    # OpenBLAS caps its thread count at the cores the process may use
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two cores to tell a chosen count from the cap")


def test_one_thread_by_default():
    assert probe() == {"numpy": 1, "scipy": 1}


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_chosen_count_wins(variable):
    _needs_two_cores()
    assert probe(**{variable: "2"}) == {"numpy": 2, "scipy": 2}


def test_pool_workers_run_one_thread():
    workers = probe("pool")
    assert len(workers) == 2
    assert all(counts == {"numpy": 1, "scipy": 1} for _pid, counts in workers)
