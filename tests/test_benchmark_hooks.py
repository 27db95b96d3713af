"""The names the benchmark's tracer wraps and calls exist in ``ckom``.

``perfbench/traced.py`` replaces ``(module, attribute)`` entry points and the
process-pool tasks of the CLI by name, and its probe calls two CLI helpers
directly. A rename in the program would break the traced benchmark without
failing any other test; these tests read the tracer's tables and make the
probe's CLI calls on a small space.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from ckom import HilbertSpec, SystemParams, cli

TRACED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "traced.py")


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines tables and classes only
    return module


def test_entry_points_exist(traced):
    for mod_name, attr in traced.ENTRY_POINTS:
        module = importlib.import_module(f"ckom.{mod_name}")
        assert callable(getattr(module, attr, None)), f"ckom.{mod_name}.{attr}"
    # the tracer also counts right-hand sides through lindblad's solve_ivp
    assert callable(importlib.import_module("ckom.lindblad").solve_ivp)


def test_pool_tasks_exist(traced):
    for attr in traced.POOL_TASKS:
        assert callable(getattr(cli, attr, None)), f"ckom.cli.{attr}"


def test_probe_cli_calls():
    # the probe's calls, in its call forms, on a 3 x 12 space
    params = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001, drive_amp=0.001,
                          delta_c=0.594)
    numeric = cli._pool_map(cli._g2_numeric_task, [(params, 3, 12, "ladder")] * 2, 1)
    analytic = cli.g2_analytic_sweep(params, HilbertSpec(n_cav=3, n_mech=12), [0.5, 0.6])
    assert [err for _g2, err in numeric] == ["", ""]
    g2_numeric = np.array([g2 for g2, _err in numeric])
    assert np.all(np.isfinite(g2_numeric)) and g2_numeric[0] == g2_numeric[1]
    # 12 phonons are too few for the exact sideband sum at every detuning;
    # a point either has its statistics or says why not
    assert len(analytic) == 2
    for stats, err in analytic:
        assert (stats is None) == bool(err)
        assert stats is None or np.isfinite(stats.g2)
