"""Benchmark of the ckom command line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Runs whole rounds of one workload's ``ckom`` commands (from the
checkout's ``src``) until ``--seconds`` have passed, checks the outputs of the
first round, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json, measured with nothing wrapped; with
``--trace 1`` the commands run under ``perfbench/traced.py`` and the metrics
are the per-layer ones. See perfbench/README.md.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_LAUNCHES = 5
COMMAND_TIMEOUT_S = 120.0
SAMPLE_PERIOD_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # reduced sizes for perfbench/selftest.py; never used for figures
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- environment

def child_env():
    """The user's environment plus the checkout's sources on the path; BLAS
    threading is left as found."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def cpu_steal_s():
    """Seconds of CPU time the hypervisor took from this machine so far."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# ------------------------------------------------------------ running commands

def _children_of(pids):
    found = set()
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) in pids:
            found.add(int(stat.split("/")[2]))
    return found


def _hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler(threading.Thread):
    """Peak resident memory of a process tree: the sum over its processes of
    each one's high-water mark (VmHWM), polled until stopped."""

    def __init__(self, root_pid):
        super().__init__(daemon=True)
        self.root = root_pid
        self.hwm = {}
        self._done = threading.Event()

    def run(self):
        while not self._done.is_set():
            pids = {self.root} | set(self.hwm)
            pids |= _children_of(pids)
            for pid in pids:
                self.hwm[pid] = max(self.hwm.get(pid, 0), _hwm_kb(pid))
            self._done.wait(SAMPLE_PERIOD_S)

    def stop(self):
        self._done.set()
        self.join()
        return sum(self.hwm.values())


def run_command(argv, log_path, timeout=COMMAND_TIMEOUT_S, extra_env=None):
    """Run one command to its end, killing its process group after
    ``timeout`` seconds; returns (exit code, wall s, peak RSS kB)."""
    with open(log_path, "ab") as log:
        log.write(("$ " + " ".join(argv) + "\n").encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env={**child_env(), **(extra_env or {})},
                                stdout=log, stderr=log,
                                start_new_session=True)
        sampler = RssSampler(proc.pid)
        sampler.start()
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            # interrupted, e.g. by SIGTERM: the command goes down with the run
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            tree_kb = sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            # a killed command may leave pool workers behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, wall, max(usage.ru_maxrss, tree_kb)


def measure_setup(log_path):
    """Median wall time of a fresh interpreter importing ckom.cli."""
    walls = []
    for _ in range(SETUP_LAUNCHES):
        code, wall, _kb = run_command([sys.executable, "-c", "import ckom.cli"], log_path)
        if code != 0:
            raise RuntimeError(f"importing ckom.cli failed; see {log_path}")
        walls.append(wall)
    return statistics.median(walls)


# ------------------------------------------------------------------ the run

def run_rounds(workload, seconds, trace, run_dir, log_path):
    rounds = []
    start = time.perf_counter()
    while True:
        round_dir = os.path.join(run_dir, f"round{len(rounds)}")
        os.makedirs(round_dir)
        walls, peaks, codes, trace_dirs = [], [], [], []
        for k, ckom_args in enumerate(workload.commands(round_dir)):
            if trace:
                trace_dir = os.path.join(round_dir, f"trace{k}")
                trace_dirs.append(trace_dir)
                argv = [sys.executable, os.path.join(HERE, "traced.py"), trace_dir, "--", *ckom_args]
            else:
                argv = [sys.executable, "-m", "ckom.cli", *ckom_args]
            code, wall, peak_kb = run_command(argv, log_path)
            walls.append(wall)
            peaks.append(peak_kb)
            codes.append(code)
        attempted, failed = workload.tally(round_dir, codes)
        rounds.append({"dir": round_dir, "walls": walls, "peaks_kb": peaks, "codes": codes,
                       "attempted": attempted, "failed": failed, "trace_dirs": trace_dirs})
        if time.perf_counter() - start >= seconds:
            return rounds


def end_to_end_metrics(workload, rounds, setup_s):
    # the work of a round is done by its first command (the wigner command in
    # phase-space, where quadrature follows)
    rate_walls = [r["walls"][0] for r in rounds]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r["walls"]) for r in rounds),
        "peak_rss_mb": statistics.median(max(r["peaks_kb"]) * 1024 / 1e6 for r in rounds),
        "work_per_s": statistics.median(workload.work / w for w in rate_walls),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ckom", "cli.py")):
        print(f"perfbench: no ckom sources under {SRC}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import traced
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(run_dir)
    log_path = os.path.join(run_dir, "commands.log")
    env = environment()
    steal_start = cpu_steal_s()
    try:
        setup_s = None if args.trace else measure_setup(log_path)
        rounds = run_rounds(workload, args.seconds, args.trace, run_dir, log_path)
        failed_all = rounds[0]["failed"] == rounds[0]["attempted"]
        checks = [] if failed_all else workload.check(rounds[0]["dir"])
        ran = {c["name"] for c in checks}
        correct = bool(checks) and all(c["ok"] for c in checks) and ran == set(workload.check_names)
        if args.trace:
            metrics = traced.layer_metrics([d for r in rounds for d in r["trace_dirs"]],
                                           len(rounds), run_dir)
        else:
            metrics = end_to_end_metrics(workload, rounds, setup_s)
    except BaseException:
        print(f"perfbench: run failed; command output in {log_path}", file=sys.stderr)
        raise
    steal = cpu_steal_s() - steal_start
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env, "cpu_steal_s": steal,
        "rounds": [{k: r[k] for k in ("walls", "peaks_kb", "codes", "attempted", "failed")}
                   for r in rounds],
        "checks": checks, "result": result,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    if result["failed"]:
        with open(log_path) as handle:
            sys.stderr.write(handle.read()[-4000:])
    shutil.rmtree(run_dir)

    print("# environment " + json.dumps(env))
    for c in checks:
        print(f"# {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"# {len(rounds)} rounds, round walls " + " ".join(f"{sum(r['walls']):.3f}" for r in rounds)
          + f"; cpu steal {steal:.2f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
