"""Importing ``ckom`` and running its commands loads no scipy module.

Every command starts a fresh interpreter, where importing scipy costs more
than most commands compute. Only the ``direct`` steady state imports scipy,
where it is called. Each case runs a fresh interpreter with a clean
environment, so that neither this suite nor a startup hook has loaded scipy
beforehand.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints {stage: [the scipy modules loaded after it]} for the import of
# ckom.cli and then for each command, run in-process on a tiny grid
_PROBE = """
import contextlib, io, json, os, sys, tempfile
import ckom.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

_BLOCKADE = ["--n-cav", "3", "--n-mech", "8"]
_OPEN = ["--n-cav", "2", "--n-mech", "20", "--omega-c", "5.0", "--g0", "0.6", "--g-ck", "0.15"]
RUNS = {
    "blockade-sweep": ["blockade-sweep", "--numeric", *_BLOCKADE, "--detuning-min", "0",
                       "--detuning-max", "0.1", "--detuning-step", "0.1"],
    "blockade-map": ["blockade-map", "--numeric", "--jobs", "1", *_BLOCKADE,
                     "--g0-steps", "2", "--gck-steps", "2"],
    "table1": ["table1", *_BLOCKADE, "--detuning-min", "-0.5", "--detuning-max", "0.5",
               "--detuning-step", "0.1"],
    "cat": ["cat", "--mode", "open", "--t-steps", "3", *_OPEN],
    "wigner": ["wigner", "--numeric", "--n-re", "3", "--n-im", "3", *_OPEN],
    "quadrature": ["quadrature", "--numeric", "--n-x", "5", *_OPEN],
    "verify": ["verify"],
}
loaded = {"import": scipy_modules()}
with tempfile.TemporaryDirectory() as tmp:
    for name, argv in RUNS.items():
        out = [] if name == "verify" else ["--out", os.path.join(tmp, name + ".csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ckom.cli.main(argv + out)
        assert rc == 0, (name, rc)
        loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""

# Prints the scipy modules loaded by the direct steady state, and checks its
# result and that expm refuses a non-Hermitian matrix
_ON_CALL = """
import json, sys
import numpy as np
from ckom import HilbertSpec, SystemParams, expm, make_lindblad, observables, steady_state

spec = HilbertSpec(3, 8)
p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001, drive_amp=0.001, delta_c=0.3)
ls = make_lindblad(p, spec)
direct = steady_state(ls, "direct")
assert abs(observables(direct)["g2"] - observables(steady_state(ls))["g2"]) < 1e-6
shear = np.array([[0.0, 1.0], [0.0, 0.0]])
try:
    expm(shear, 2.0)
except ValueError:
    pass
else:
    raise AssertionError("expm took a non-Hermitian matrix")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def run_clean(code):
    """stdout of ``code`` in a fresh interpreter whose environment holds only
    PATH and PYTHONPATH, parsed as JSON."""
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_load_no_scipy():
    loaded = run_clean(_PROBE)
    assert list(loaded) == ["import", "blockade-sweep", "blockade-map", "table1", "cat",
                            "wigner", "quadrature", "verify"]
    assert {stage: mods for stage, mods in loaded.items() if mods} == {}


def test_direct_solve_imports_scipy_on_call():
    loaded = run_clean(_ON_CALL)
    assert "scipy.sparse.linalg" in loaded
    assert "scipy.integrate" not in loaded
