"""Reference figures, measured once rather than as workloads (about 45 min
on 2 cores):

    python3 perfbench/reference.py [label ...]

Times each ``ckom`` command at its defaults, the tier-1 test suite, and the
map at ``--jobs 1``, ``--jobs 2`` and ``--jobs 2`` with one OpenBLAS thread
per process, each with its wall time and peak memory. Results go to
perfbench/out/reference.json; README.md quotes them. Pass labels to run only
some of them.
"""

import json
import os
import sys
import tempfile

from run import OUT, environment, run_command
from workloads import Map

PY = sys.executable


def cases(tmp):
    out = lambda name: os.path.join(tmp, name)  # noqa: E731
    ckom = [PY, "-m", "ckom.cli"]
    map_config = os.path.join(tmp, "map48.json")
    config = Map(1).config
    with open(map_config, "w") as handle:
        json.dump(config, handle)
    map48 = ckom + ["blockade-map", "--numeric", "--config", map_config, "--out", out("m.csv")]
    return [
        ("table1", ckom + ["table1", "--out", out("t.csv")], {}),
        ("table1 --analytic", ckom + ["table1", "--analytic", "--out", out("t.csv")], {}),
        ("blockade-sweep", ckom + ["blockade-sweep", "--out", out("s.csv")], {}),
        ("blockade-map", ckom + ["blockade-map", "--out", out("m.csv")], {}),
        ("cat", ckom + ["cat", "--out", out("c.csv")], {}),
        ("cat --mode open", ckom + ["cat", "--mode", "open", "--out", out("c.csv")], {}),
        ("wigner", ckom + ["wigner", "--out", out("w.csv")], {}),
        ("wigner --numeric", ckom + ["wigner", "--numeric", "--out", out("w.csv")], {}),
        ("quadrature", ckom + ["quadrature", "--out", out("q.csv")], {}),
        ("quadrature --numeric", ckom + ["quadrature", "--numeric", "--out", out("q.csv")], {}),
        ("verify", ckom + ["verify"], {}),
        ("map48 --jobs 1", map48 + ["--jobs", "1"], {}),
        ("map48 --jobs 2", map48 + ["--jobs", "2"], {}),
        ("map48 --jobs 2, OPENBLAS_NUM_THREADS=1", map48 + ["--jobs", "2"],
         {"OPENBLAS_NUM_THREADS": "1"}),
        ("tier-1 tests", [PY, "-m", "pytest", "-q", "--continue-on-collection-errors"], {}),
    ]


def main(labels):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "reference.json")
    results = {}
    if os.path.exists(path):
        with open(path) as handle:
            results = json.load(handle)["results"]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        log = os.path.join(tmp, "commands.log")
        for label, argv, extra_env in cases(tmp):
            if labels and label not in labels:
                continue
            code, wall, peak_kb = run_command(argv, log, timeout=3600, extra_env=extra_env)
            results[label] = {"exit": code, "wall_s": round(wall, 2),
                              "peak_rss_mb": round(peak_kb * 1024 / 1e6, 1)}
            if label == "tier-1 tests":
                with open(log) as handle:
                    results[label]["summary"] = handle.read().strip().splitlines()[-1]
            print(f"{label}: {results[label]}", flush=True)
            with open(path, "w") as handle:
                json.dump({"environment": environment(), "results": results}, handle, indent=1)


if __name__ == "__main__":
    main(sys.argv[1:])
