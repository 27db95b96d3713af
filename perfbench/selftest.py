"""Quick self-test of the benchmark at tiny sizes (about a minute):

    python3 perfbench/selftest.py

For every workload, in both modes, it runs perfbench/run.py at reduced sizes
and checks that the last line names every metric of BENCHMARK.json with its
unit, that every output check of the workload ran and passed, and that no
operation failed. It then checks that each output check rejects a damaged
output, and that the benchmark refuses to run where the program's sources
are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from run import child_env  # noqa: E402
from workloads import WORKLOADS, read_csv  # noqa: E402


def _origin_row(bench):
    c = bench.config
    re_axis = np.linspace(c["re_min"], c["re_max"], c["n_re"])
    im_axis = np.linspace(c["im_min"], c["im_max"], c["n_im"])
    return int(np.argmin(np.abs(re_axis))) * c["n_im"] + int(np.argmin(np.abs(im_axis)))


# one damaged output per file, (file, column, row, factor): the row is a
# function of the workload, None for the middle row or "all"; some check must
# notice each
DAMAGE = {
    "sweep": [("sweep.csv", "g2_numeric", lambda b: b.probes["dip"], 1.001)],
    "map": [("map.csv", "g2", lambda b: b.probe, 1.001),
            ("map.locus.csv", "g0_locus", None, 1.001)],
    "cat-open": [("cat.csv", "p_plus", None, 1.01),
                 ("cat.snapshot.csv", "f_plus", lambda b: 1, 2.0)],
    "phase-space": [("wigner.csv", "w", _origin_row, 1.001),
                    ("quadrature.csv", "p", "all", 1.01)],
}


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def run_bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_output(workload, trace, spec):
    proc = run_bench(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metrics {got} != {want}")
    for name, value in result["metrics"].items():
        if not isinstance(value["value"], (int, float)):
            fail(f"{workload}: {name} = {value['value']!r}")
        if not trace and value["value"] <= 0:
            fail(f"{workload}: end-to-end {name} = {value['value']}")
    ran = {line.split()[2].rstrip(":") for line in lines if line.startswith("# PASS ")}
    if ran != set(WORKLOADS[workload].check_names):
        fail(f"{workload}: checks passed {sorted(ran)}; expected {WORKLOADS[workload].check_names}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: {lines[-1]}")
    print(f"ok   {workload} trace {trace}: {len(got)} metrics, checks {sorted(ran)}")


def damage(path, column, row, factor):
    """Scale values of a CSV column in place."""
    _echo, header, cols = read_csv(path)
    with open(path) as handle:
        lines = handle.read().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    n = len(cols[column])
    rows = range(n) if row == "all" else [n // 2 if row is None else row]
    k = header.index(column)
    for r in rows:
        cells = lines[first + r].split(",")
        cells[k] = repr(float(cells[k]) * factor)
        lines[first + r] = ",".join(cells)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def check_damage(workload):
    bench = WORKLOADS[workload](7, tiny=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        for args in bench.commands(tmp):
            subprocess.run([sys.executable, "-m", "ckom.cli", *args], cwd=ROOT, env=child_env(),
                           check=True, capture_output=True, timeout=600)
        if not all(c["ok"] for c in bench.check(tmp)):
            fail(f"{workload}: checks fail on undamaged output")
        for name, column, row, factor in DAMAGE[workload]:
            with open(os.path.join(tmp, name)) as handle:
                pristine = handle.read()
            damage(os.path.join(tmp, name), column, row(bench) if callable(row) else row, factor)
            caught = [c["name"] for c in bench.check(tmp) if not c["ok"]]
            if not caught:
                fail(f"{workload}: no check noticed {column} x {factor} in {name}")
            print(f"ok   {workload}: {column} x {factor} in {name} caught by {caught}")
            with open(os.path.join(tmp, name), "w") as handle:
                handle.write(pristine)


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("out"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        proc = run_bench("sweep", 0, cwd=tmp)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok   refuses to run without src/ckom")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace, spec)
        check_damage(workload)
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
