"""Per-layer tracing of the ckom program, from outside the program.

``Tracer.install()`` replaces the public entry points of each ``ckom`` module
(and every ``from .x import name`` copy of them inside the package) with
wrappers that record the wall time of each call. The program's own files are
not changed.

Run as a script, it executes one ``ckom`` command with the wrappers in place
and writes the records to a directory:

    python3 perfbench/traced.py TRACE_DIR -- blockade-map --numeric --jobs 2 ...

Pool workers are forked from the traced process, so they inherit the wrappers;
each worker rewrites its own records file after every task it completes,
because workers leave through ``os._exit`` and run no exit hooks.
"""

import functools
import glob
import json
import os
import statistics
import sys
import time

# (module, attribute) pairs that are wrapped; the record name is
# "<module>.<attribute>" without the leading underscore.
ENTRY_POINTS = (
    ("lindblad", "make_lindblad"),
    ("lindblad", "steady_state"),
    ("lindblad", "evolve"),
    ("quasiprob", "wigner_numeric"),
    ("quasiprob", "quadrature_dist_numeric"),
    ("specfun", "displacement_matrix"),
    ("blockade", "photon_stats_exact"),
    ("catstate", "condition_open_system"),
    ("catstate", "fidelity_vs_target"),
    ("cli", "_pool_map"),
    ("cli", "g2_analytic_sweep"),
    ("cli", "write_csv"),
)
# worker functions handed to the process pool; their time is the pool's busy time
POOL_TASKS = ("_g2_numeric_task", "_map_task")


class Tracer:
    """In-memory call records of one process: durations per entry point,
    the solve_ivp evaluation count, pool sizes and CSV bytes."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.main_pid = self.pid
        self._reset()

    def _reset(self):
        self.times = {}          # name -> list of seconds per call
        self.counts = {}         # name -> integer total
        self.pools = []          # (jobs, wall seconds) per pool map
        self.rhs_case = None     # (LindbladSpec, state) first seen by the program
        self.rhs_us = None

    def _own(self):
        # a forked worker starts from a copy of its parent's records
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._reset()

    def add_time(self, name, seconds):
        self._own()
        self.times.setdefault(name, []).append(seconds)

    def add_count(self, name, n):
        self._own()
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def _wrap(self, name, func, after=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            self.add_time(name, time.perf_counter() - start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        import ckom.cli  # imports every module of the package

        modules = [m for k, m in sys.modules.items() if k == "ckom" or k.startswith("ckom.")]
        hooks = {
            "lindblad.evolve": self._after_evolve,
            "lindblad.steady_state": self._after_steady,
            "quasiprob.wigner_numeric": self._after_wigner,
            "cli.pool_map": self._after_pool_map,
            "cli.write_csv": self._after_write_csv,
        }
        for mod_name, attr in ENTRY_POINTS:
            func = getattr(sys.modules[f"ckom.{mod_name}"], attr)
            name = f"{mod_name}.{attr.lstrip('_')}"
            wrapper = self._wrap(name, func, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapper)
        # solve_ivp is scipy's; its result counts the right-hand-side evaluations
        ckom.lindblad.solve_ivp = self._wrap("lindblad.solve_ivp", ckom.lindblad.solve_ivp,
                                             self._after_solve_ivp)
        # pickled by name as ckom.cli.<task>, which then resolves to the wrapper
        for attr in POOL_TASKS:
            setattr(ckom.cli, attr, self._wrap("cli.pool_task", getattr(ckom.cli, attr),
                                               self._after_task))

    def _after_evolve(self, args, result):
        if self.rhs_case is None:
            self.rhs_case = (args[0], args[1])

    def _after_steady(self, args, result):
        if self.rhs_case is None:
            self.rhs_case = (args[0], result)

    def _after_solve_ivp(self, args, result):
        self.add_count("lindblad.evolve.nfev", result.nfev)

    def _after_wigner(self, args, result):
        self.add_count("quasiprob.wigner_numeric.points", result.values.size)

    def _after_pool_map(self, args, result):
        _worker, _tasks, jobs = args
        self.pools.append((max(int(jobs), 1), self.times["cli.pool_map"][-1]))

    def _after_write_csv(self, args, result):
        self.add_count("cli.csv_bytes", os.path.getsize(args[0]))

    def _after_task(self, args, result):
        if os.getpid() != self.main_pid:
            self.dump()

    def _time_rhs(self, repeats=20):
        """Median microseconds of one apply_liouvillian on the first state
        the program evolved or solved for. Measured once, in the main process
        only: in a pool worker the other workers would be timed with it."""
        if self.rhs_case is None or self.rhs_us is not None or os.getpid() != self.main_pid:
            return
        from ckom.lindblad import apply_liouvillian

        ls, state = self.rhs_case
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            apply_liouvillian(ls, state)
            samples.append(time.perf_counter() - start)
        samples.sort()
        self.rhs_us = 1e6 * samples[len(samples) // 2]

    def records(self):
        self._time_rhs()
        return {"times": self.times, "counts": self.counts, "pools": self.pools,
                "rhs_us": self.rhs_us}

    def dump(self):
        role = "main" if os.getpid() == self.main_pid else "worker"
        path = os.path.join(self.out_dir, f"{role}-{os.getpid()}.json")
        data = self.records()
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(data, handle)
        os.replace(tmp, path)


def merge(trace_dirs):
    """Records of every process of the traced commands, merged; the RHS
    timing is the median of the processes that measured one."""
    merged = {"times": {}, "counts": {}, "pools": [], "rhs_us": None}
    rhs = []
    for path in sorted(p for d in trace_dirs for p in glob.glob(os.path.join(d, "*.json"))):
        with open(path) as handle:
            data = json.load(handle)
        for key, values in data["times"].items():
            merged["times"].setdefault(key, []).extend(values)
        for key, n in data["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + n
        merged["pools"].extend(data["pools"])
        if data["rhs_us"] is not None:
            rhs.append(data["rhs_us"])
    if rhs:
        merged["rhs_us"] = statistics.median(rhs)
    return merged


# (metric, unit, better) of every per-layer metric, in BENCHMARK.json's order
LAYER_METRICS = (
    ("lindblad.steady_state.calls", "count", "lower"),
    ("lindblad.steady_state.ms", "ms", "lower"),
    ("lindblad.steady_state.max_ms", "ms", "lower"),
    ("lindblad.make_lindblad.ms", "ms", "lower"),
    ("lindblad.evolve.calls", "count", "lower"),
    ("lindblad.evolve.s", "s", "lower"),
    ("lindblad.evolve.nfev", "count", "lower"),
    ("lindblad.rhs.us", "us", "lower"),
    ("quasiprob.wigner_numeric.s", "s", "lower"),
    ("quasiprob.wigner_numeric.us_per_point", "us", "lower"),
    ("quasiprob.quadrature_dist_numeric.ms", "ms", "lower"),
    ("specfun.displacement_matrix.calls", "count", "lower"),
    ("specfun.displacement_matrix.us", "us", "lower"),
    ("blockade.photon_stats_exact.calls", "count", "lower"),
    ("blockade.photon_stats_exact.us", "us", "lower"),
    ("catstate.condition_open_system.calls", "count", "lower"),
    ("catstate.condition_open_system.ms", "ms", "lower"),
    ("catstate.fidelity_vs_target.calls", "count", "lower"),
    ("catstate.fidelity_vs_target.ms", "ms", "lower"),
    ("cli.pool_map.s", "s", "lower"),
    ("cli.pool.busy_share", "fraction", "higher"),
    ("cli.g2_analytic_sweep.ms", "ms", "lower"),
    ("cli.write_csv.ms", "ms", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
)
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _summarise(records, rounds):
    """Metric values from merged records; None where the layer never ran."""
    times, counts = records["times"], records["counts"]
    entry_names = {f"{module}.{attr.lstrip('_')}" for module, attr in ENTRY_POINTS}
    out = {}
    for metric, _unit, _better in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        calls = times.get(layer, [])
        if layer not in entry_names:
            continue
        if stat == "calls":
            out[metric] = len(calls) / rounds
        elif stat == "max_ms":
            out[metric] = 1e3 * max(calls) if calls else None
        elif stat in _SCALE:
            out[metric] = _SCALE[stat] * statistics.median(calls) if calls else None
    out["lindblad.evolve.nfev"] = counts.get("lindblad.evolve.nfev", 0) / rounds
    out["lindblad.rhs.us"] = records["rhs_us"]
    points = counts.get("quasiprob.wigner_numeric.points", 0)
    wig = times.get("quasiprob.wigner_numeric", ())
    out["quasiprob.wigner_numeric.us_per_point"] = 1e6 * sum(wig) / points if points else None
    capacity = sum(jobs * wall for jobs, wall in records["pools"])
    busy = sum(times.get("cli.pool_task", ()))
    out["cli.pool.busy_share"] = busy / capacity if capacity else None
    out["cli.csv_bytes"] = counts.get("cli.csv_bytes", 0) / rounds
    return out


def probe_layers(scratch_dir):
    """Every wrapped entry point called once on small fixed inputs, in this
    process; gives a timing to the layers a workload's commands never reach."""
    import numpy as np

    tracer = Tracer(scratch_dir)
    tracer.install()
    from ckom import blockade, catstate, cli, lindblad, quasiprob
    from ckom.model import SystemParams
    from ckom.operators import HilbertSpec

    params = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001, drive_amp=0.001,
                          delta_c=0.594)
    spec = HilbertSpec(n_cav=4, n_mech=30)
    cli._pool_map(cli._g2_numeric_task, [(params, 4, 30, "ladder")] * 2, 1)
    cli.g2_analytic_sweep(params, spec, [0.5, 0.6])
    blockade.photon_stats_exact(params, spec)

    cat = SystemParams(g0=0.5, g_ck=0.125, kappa=0.1, gamma_m=0.01, omega_c=10.0)
    cat_spec = HilbertSpec(n_cav=2, n_mech=20)
    t = np.pi / (1.0 - cat.g_ck)
    ls = lindblad.make_lindblad(cat, cat_spec, frame="lab")
    dm = lindblad.evolve(ls, catstate.initial_superposition_density(cat_spec), [0.0, t])[-1]
    plus = catstate.condition_open_system(dm, t)[0]
    catstate.fidelity_vs_target(plus, t, cat)
    quasiprob.wigner_numeric(plus.rho_b, np.linspace(-1.0, 2.0, 5), np.linspace(-1.0, 1.0, 5))
    quasiprob.quadrature_dist_numeric(plus.rho_b, 0.0, np.linspace(-3.0, 3.0, 51))
    cli.write_csv(os.path.join(scratch_dir, "probe.csv"), {}, ["x"], [[1.0]])
    return _summarise(tracer.records(), 1)


def layer_metrics(trace_dirs, rounds, scratch_dir):
    """Per-layer metrics of a traced run. Call counts are per round and stay
    0 for layers the workload's commands never reach; those layers' timings
    come from probe_layers instead, so no timing reads 0."""
    values = _summarise(merge(trace_dirs), rounds)
    if any(v is None for v in values.values()):
        probed = probe_layers(scratch_dir)
        values = {k: probed[k] if v is None else v for k, v in values.items()}
    return {metric: {"value": values[metric], "unit": unit} for metric, unit, _b in LAYER_METRICS}

def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py TRACE_DIR -- <ckom arguments>", file=sys.stderr)
        return 1
    trace_dir, ckom_args = argv[0], argv[2:]
    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer(trace_dir)
    tracer.install()
    import ckom.cli

    code = ckom.cli.main(ckom_args)
    tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
