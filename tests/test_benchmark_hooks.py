"""The names the benchmark's tracer wraps and calls exist in ``ckom``.

``perfbench/traced.py`` replaces ``(module, attribute)`` entry points and the
process-pool tasks of the CLI by name, and its probe calls two CLI helpers
directly; its phase-space check conditions a state through the library and
probes the fidelity, Wigner and quadrature calls on it. A
rename in the program would break the benchmark without failing any other
test; these tests read the tracer's tables and make those calls on a small
space.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from ckom import (HilbertSpec, SystemParams, cli, condition_open_system, detection_time,
                  evolve, fidelity_vs_target, initial_superposition_density, make_lindblad,
                  quadrature_dist_numeric, wigner_numeric)

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


@pytest.mark.parametrize("argv", [
    ["table1", "--detuning-min", "-0.5", "--detuning-max", "0.5", "--detuning-step", "0.25"],
    ["blockade-sweep", "--numeric", "--detuning-min", "-0.5", "--detuning-max", "0.5",
     "--detuning-step", "0.25"],
    ["blockade-map", "--numeric", "--g0-steps", "2", "--gck-steps", "2"]])
def test_pool_workers_are_traced(traced, argv, monkeypatch, tmp_path):
    # the tracer counts pool busy time only in the tasks it wraps by name:
    # every worker a blockade command hands to the pool must be one of them
    workers = []

    def pool_map(worker, tasks, jobs):
        workers.append(worker)
        return [worker(task) for task in tasks]

    monkeypatch.setattr(cli, "_pool_map", pool_map)
    assert cli.main([*argv, "--n-cav", "3", "--n-mech", "12",
                     "--out", str(tmp_path / "out.csv")]) == 0
    assert workers
    for worker in workers:
        assert worker.__name__ in traced.POOL_TASKS
        assert getattr(cli, worker.__name__) is worker


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


@pytest.fixture(scope="module")
def conditioned():
    # the lab-frame state at t_s conditioned on both branches, on a 2 x 20 space
    params = SystemParams(g0=0.6, g_ck=0.15, kappa=0.1, gamma_m=0.01, omega_c=0.0)
    spec = HilbertSpec(n_cav=2, n_mech=20)
    t_s = detection_time(params)
    ls = make_lindblad(params, spec, frame="lab")
    dm = evolve(ls, initial_superposition_density(spec), np.array([0.0, t_s]))[-1]
    return params, t_s, condition_open_system(dm, t_s)


def test_phase_space_conditioning_call(conditioned):
    # the phase-space check's call form: the plus branch picked by .sign
    _params, _t_s, branches = conditioned
    plus = [c for c in branches if c.sign == "plus"]
    assert len(plus) == 1
    rho_b = plus[0].rho_b
    assert rho_b.shape == (20, 20)
    assert np.abs(rho_b - rho_b.conj().T).max() < 1e-12
    assert abs(np.trace(rho_b) - 1.0) < 1e-12


def test_probe_library_calls(conditioned):
    # the probe's library calls in their call forms, and the result fields
    # the tracer reads (Tracer._after_wigner counts wigner_numeric(...).values)
    params, t_s, (plus, _minus) = conditioned
    fidelity = fidelity_vs_target(plus, t_s, params)
    assert np.isfinite(fidelity) and 0.0 < fidelity <= 1.0
    re, im = np.linspace(-1.0, 2.0, 5), np.linspace(-1.0, 1.0, 4)
    assert wigner_numeric(plus.rho_b, re, im).values.size == re.size * im.size
    x = np.linspace(-3.0, 3.0, 51)
    assert quadrature_dist_numeric(plus.rho_b, 0.0, x).values.shape == x.shape
