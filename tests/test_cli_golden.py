"""Golden outputs of every ``ckom`` command on reduced grids.

Each case runs the command in-process and compares every CSV it writes with
the file of the same name under ``tests/golden/``: comment lines, headers and
text fields exactly, numbers to 1e-8 relative (the CSV prints 9 significant
digits).

After a deliberate change of the outputs, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import math
import os
import shutil
import sys
import tempfile

import pytest

from ckom.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_BLOCKADE = ["--n-cav", "3", "--n-mech", "16"]
_TABLE1 = _BLOCKADE + ["--detuning-min", "-1.5", "--detuning-max", "0.8",
                       "--detuning-step", "0.05"]
_MAP = _BLOCKADE + ["--g0-min", "0.4", "--g0-max", "0.8", "--g0-steps", "3",
                    "--gck-min", "0.0", "--gck-max", "0.6", "--gck-steps", "4"]
_OPEN = ["--n-cav", "2", "--n-mech", "30", "--omega-c", "5.0"]
_WIGNER = ["--re-min", "-1.0", "--re-max", "2.0", "--n-re", "7",
           "--im-min", "-1.5", "--im-max", "1.5", "--n-im", "5"]
_QUAD = ["--x-min", "-2.0", "--x-max", "4.0", "--n-x", "25"]

# case name -> (argv without --out, config file contents or None)
CASES = {
    "table1_analytic": (["table1", "--analytic"] + _TABLE1, None),
    "table1_numeric": (["table1"] + _TABLE1, None),
    "sweep_numeric": (["blockade-sweep", "--numeric"] + _BLOCKADE
                      + ["--detuning-min", "-0.5", "--detuning-max", "0.8",
                         "--detuning-step", "0.1"], None),
    # g_ck beyond omega_m / 2: every exact-sideband point fails
    "sweep_fail": (["blockade-sweep", "--numeric", "--g-ck", "0.6"] + _BLOCKADE
                   + ["--detuning-min", "0.0", "--detuning-max", "0.1",
                      "--detuning-step", "0.05"], None),
    "map_analytic": (["blockade-map"] + _MAP, None),
    "map_numeric": (["blockade-map", "--numeric", "--jobs", "2"] + _MAP, None),
    "cat_closed": (["cat", "--t-steps", "21"], None),
    "cat_open": (["cat", "--mode", "open", "--t-steps", "5"] + _OPEN,
                 {"g0": 0.6, "g_ck": 0.15, "kappa_list": [0.05, 0.1]}),
    "wigner_analytic": (["wigner"] + _WIGNER, None),
    "wigner_numeric": (["wigner", "--numeric", "--branch", "minus"] + _OPEN + _WIGNER,
                       {"g0": 0.6, "g_ck": 0.15}),
    "quadrature_analytic": (["quadrature"] + _QUAD, None),
    "quadrature_numeric": (["quadrature", "--numeric"] + _OPEN + _QUAD,
                           {"g0": 0.6, "g_ck": 0.15}),
}


def run_case(name, out_dir):
    """Run one case with its outputs in out_dir; returns the exit code."""
    argv, config = CASES[name]
    argv = argv + ["--out", os.path.join(out_dir, f"{name}.csv")]
    if config is not None:
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        argv += ["--config", path]
    return main(argv)


def _outputs(directory, name):
    return sorted(f for f in os.listdir(directory)
                  if f.startswith(f"{name}.") and f.endswith(".csv"))


def _same_field(got, want):
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(g, w, rel_tol=1e-8)


def _compare(got_path, want_path):
    with open(got_path) as handle:
        got = handle.read().splitlines()
    with open(want_path) as handle:
        want = handle.read().splitlines()
    assert len(got) == len(want), f"{got_path}: {len(got)} lines, golden {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if w.startswith("#") or g == w:
            assert g == w, f"line {k + 1}: {g!r} != {w!r}"
            continue
        g_fields, w_fields = g.split(","), w.split(",")
        assert len(g_fields) == len(w_fields), f"line {k + 1}: {g!r} != {w!r}"
        for gf, wf in zip(g_fields, w_fields):
            assert _same_field(gf, wf), f"line {k + 1}: {gf!r} != {wf!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    assert run_case(name, str(tmp_path)) == 0
    produced = _outputs(str(tmp_path), name)
    assert produced == _outputs(GOLDEN, name)
    for fname in produced:
        _compare(str(tmp_path / fname), os.path.join(GOLDEN, fname))


def _regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            if run_case(name, tmp) != 0:
                raise SystemExit(f"case {name} failed")
            for stale in _outputs(GOLDEN, name):
                os.remove(os.path.join(GOLDEN, stale))
            for fname in _outputs(tmp, name):
                shutil.move(os.path.join(tmp, fname), os.path.join(GOLDEN, fname))
        print(f"wrote {name}")


if __name__ == "__main__":
    sys.exit(_regenerate())
