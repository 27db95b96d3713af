"""Command-line front end: figure/table reproduction as CSV files.

Every command reads a flat JSON config (``--config``), applies flag
overrides, echoes the fully resolved configuration as a comment block at the
top of each CSV, and writes deterministic output (no randomness, no clocks).
The commands are one table, ``COMMANDS``: each command's defaults list the
config keys it reads, and its flags are built from them.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification
failure.
"""

import argparse
import dataclasses
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

from . import blockade, catstate, quasiprob
from .model import SystemParams, delta_m, optimal_detuning, resonance_curve_g0
from .operators import HilbertSpec, build_h_gom, expm, propagator_factored, propagator_factors
from .specfun import displacement_matrix, safe_interior_dim
from .lindblad import make_lindblad, steady_state, evolve, observables
from .errors import DegenerateBranch, NumericalError

_NUMERICAL_ERRORS = (NumericalError, np.linalg.LinAlgError)

# Each command's defaults hold exactly the config keys it reads: one flag per
# key, typed by the default value, and the CSV echoes nothing it ignored.
_BLOCKADE_PHYSICS = {
    "kappa": 0.1,
    "gamma_m": 0.001,
    "nbar_m": 0.0,
    "drive_amp": 0.001,
    "omega_m": 1.0,
    "n_cav": 4,
    "n_mech": 30,
}

# every detuning point sets delta_c; the rotating frame never reads omega_c
SWEEP_DEFAULTS = {
    "g0": 0.7,
    "g_ck": 0.175,
    **_BLOCKADE_PHYSICS,
    "detuning_min": -4.0, "detuning_max": 2.0, "detuning_step": 0.005,
}

# the axes set g0 and g_ck, and each point's delta_c is delta_1
MAP_DEFAULTS = {
    **_BLOCKADE_PHYSICS,
    "g0_min": 0.05, "g0_max": 1.3, "g0_steps": 126,
    "gck_min": 0.0, "gck_max": 0.4, "gck_steps": 81,
    "locus_n_max": 6,
}

# verify checks the closed cat system; the cat commands add its dissipation
# and cutoffs, and run in the undriven lab frame (no delta_c or drive_amp)
VERIFY_DEFAULTS = {"g0": 1.2, "g_ck": 0.3, "omega_c": 100.0, "omega_m": 1.0}

_CAT_COMMON = {
    **VERIFY_DEFAULTS,
    "kappa": 0.1,
    "gamma_m": 0.01,
    "nbar_m": 0.0,
    "n_cav": 2,
    "n_mech": 60,
    "time": None,
}

CAT_DEFAULTS = {**_CAT_COMMON, "t_max": None, "t_steps": 201}

WIGNER_DEFAULTS = {
    **_CAT_COMMON,
    "omega_c": 1000.0,
    "re_min": -2.0, "re_max": 5.0, "n_re": 141,
    "im_min": -3.5, "im_max": 3.5, "n_im": 141,
}

QUADRATURE_DEFAULTS = {
    **_CAT_COMMON,
    "omega_c": 1000.0,
    "x_min": -4.0, "x_max": 7.0, "n_x": 551,
    "theta": "auto",
}

_PARAM_KEYS = tuple(field.name for field in dataclasses.fields(SystemParams))


def _number_or_auto(text):
    return text if text == "auto" else float(text)


def _key_type(default):
    """Type of a config key's flag: int for integer defaults, a number or
    "auto" for "auto", float otherwise (None included)."""
    if isinstance(default, int):
        return int
    return _number_or_auto if default == "auto" else float


def _usage_error(message):
    print(f"ckom: error: {message}", file=sys.stderr)
    raise SystemExit(1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value):
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def write_csv(path, config, header, rows):
    with open(path, "w", newline="") as handle:
        for key in sorted(config):
            handle.write(f"# {key} = {config[key]}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def resolve_config(defaults, args):
    """Defaults, overridden by the --config file, overridden by flags. A file
    value of a defaults key is converted as its flag's text would be (null
    only where the default is None); other file keys pass through unread,
    but echoed."""
    config = dict(defaults)
    if args.config:
        with open(args.config) as handle:
            config.update(json.load(handle))
    for key, default in defaults.items():
        if config[key] is not None or default is not None:
            try:
                config[key] = _key_type(default)(str(config[key]))
            except ValueError as exc:
                _usage_error(f"config key {key}: {exc}")
        flag = getattr(args, key)
        if flag is not None:
            config[key] = flag
    return config


def _axis(config, name, count):
    """Sample axis from the config keys <name>_min, <name>_max and count."""
    return np.linspace(config[f"{name}_min"], config[f"{name}_max"], config[count])


def _pool_map(worker, tasks, jobs):
    if jobs <= 1:
        return [worker(task) for task in tasks]
    chunk = max(1, len(tasks) // (8 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def _attempt(func, *args, failed=np.nan):
    """(func(*args), "") or, on a numerical failure, (failed, the error):
    one point of a sweep fails without stopping the others."""
    try:
        return func(*args), ""
    except _NUMERICAL_ERRORS as exc:
        return failed, _failure(exc)


def _require_decay(params):
    """Every blockade result is a driven steady state, so needs kappa > 0."""
    if params.kappa <= 0:
        _usage_error(f"kappa = {params.kappa:g}: the driven steady state needs kappa > 0")


def _steady_g2(params, n_cav, n_mech, method):
    """g2 of the driven steady state at one parameter point."""
    ls = make_lindblad(params, HilbertSpec(n_cav=n_cav, n_mech=n_mech), frame="rotating")
    return observables(steady_state(ls, method=method))["g2"]


def _g2_numeric_task(task):
    """(g2, error) at one detuning; task = (params, n_cav, n_mech, method)."""
    return _attempt(_steady_g2, *task)


def g2_numeric_sweep(params, n_cav, n_mech, detunings, jobs=1):
    """Master-equation g2(delta_c) over a detuning grid (parallel over points)."""
    tasks = [
        (params.replace(delta_c=float(dc)), n_cav, n_mech, "ladder") for dc in detunings
    ]
    return _pool_map(_g2_numeric_task, tasks, jobs)


def g2_analytic_sweep(params, spec, detunings):
    return [_attempt(blockade.photon_stats_exact, params.replace(delta_c=float(dc)), spec,
                     failed=None) for dc in detunings]


def local_extrema(x, y, kind):
    """Locations of strict local minima (kind "min") or maxima ("max") of a
    sampled curve; a point next to a NaN compares false, so is never one."""
    x, y = np.asarray(x), np.asarray(y)
    if kind == "max":
        y = -y
    mid = y[1:-1]
    return x[1:-1][(mid < y[:-2]) & (mid < y[2:])]


def _nearest(candidates, value):
    if candidates.size == 0:
        return np.nan
    return float(candidates[np.argmin(np.abs(candidates - value))])


def _detuning_sweep(args, config, params, spec, numeric):
    """Detuning grid, the exact-sideband (stats, error) at each point and,
    when numeric, the master-equation (g2, error) at each point (else None).

    The grid must step from detuning_min to detuning_max in whole steps;
    anything else is a usage error (exit 1), not a silently rescaled step.
    """
    lo, hi, step = (config[f"detuning_{key}"] for key in ("min", "max", "step"))
    if step <= 0:
        _usage_error(f"detuning_step = {step:g} must be positive")
    if hi < lo:
        _usage_error(f"detuning_max = {hi:g} is below detuning_min = {lo:g}")
    steps = (hi - lo) / step
    if abs(steps - round(steps)) > 1e-9:
        _usage_error(f"detuning_step = {step:g} does not divide "
                     f"detuning_max - detuning_min = {hi:g} - {lo:g}")
    detunings = np.linspace(lo, hi, int(round(steps)) + 1)
    _require_decay(params)
    config["numeric"] = numeric
    analytic = g2_analytic_sweep(params, spec, detunings)
    if not numeric:
        return detunings, analytic, None
    return detunings, analytic, g2_numeric_sweep(
        params, spec.n_cav, spec.n_mech, detunings, jobs=args.jobs
    )


def cmd_table1(args, config, params, spec):
    predicted = [(kind, n, optimal_detuning(kind, n, params))
                 for kind, ns in (("single", range(6)), ("two-photon", (0, 1, 2, 3, 5, 8)))
                 for n in ns]
    detunings, analytic, numeric = _detuning_sweep(args, config, params, spec,
                                                   not args.analytic)
    curves = [np.array([s.g2 if s is not None else np.nan for s, _err in analytic])]
    header = ["kind", "n", "predicted", "detected_analytic", "delta_analytic"]
    if numeric is not None:
        curves.append(np.array([val for val, _err in numeric]))
        header += ["detected_numeric", "delta_numeric"]
    # single-photon resonances are g2 dips, two-photon resonances g2 peaks
    found = [{"single": local_extrema(detunings, g2, "min"),
              "two-photon": local_extrema(detunings, g2, "max")} for g2 in curves]

    rows = []
    for kind, n, pred in predicted:
        row = [kind, n, pred]
        for extrema in found:
            det = _nearest(extrema[kind], pred)
            row += [det, det - pred]
        rows.append(row)
    write_csv(args.out, config, header, rows)
    return 0


def cmd_blockade_sweep(args, config, params, spec):
    detunings, analytic, numeric = _detuning_sweep(args, config, params, spec,
                                                   bool(args.numeric))
    rows = []
    for i, dc in enumerate(detunings):
        stats, err = analytic[i]
        point = params.replace(delta_c=float(dc))
        g2_ld, err_ld = _attempt(lambda: blockade.photon_stats_lamb_dicke(point).g2)
        err = err or err_ld
        probs = [np.nan] * 4 if stats is None else [stats.p0, stats.p1, stats.p2, stats.g2]
        row = [dc, *probs, g2_ld]
        if numeric is not None:
            g2_n, err_n = numeric[i]
            row.append(g2_n)
            err = err or err_n
        rows.append(row + [err])

    header = ["delta_c", "p0", "p1", "p2", "g2_analytic", "g2_lamb_dicke"]
    header += ["error"] if numeric is None else ["g2_numeric", "error"]
    write_csv(args.out, config, header, rows)
    return 0


def _map_task(task):
    """(g2, error) at the single-photon resonance of one (g0, g_ck) point;
    task = (params, n_cav, n_mech, numeric)."""
    params, n_cav, n_mech, numeric = task

    def g2():
        point = params.replace(delta_c=delta_m(1, params))
        if numeric:
            return _steady_g2(point, n_cav, n_mech, "ladder")
        return blockade.photon_stats_exact(point, HilbertSpec(n_cav=n_cav, n_mech=n_mech)).g2

    return _attempt(g2)


def cmd_blockade_map(args, config, params, spec):
    _require_decay(params)
    gck_axis = _axis(config, "gck", "gck_steps")
    points = [(g0, gck) for g0 in _axis(config, "g0", "g0_steps") for gck in gck_axis]
    tasks = [
        (params.replace(g0=float(g0), g_ck=float(gck)), spec.n_cav, spec.n_mech,
         bool(args.numeric))
        for g0, gck in points
    ]
    results = _pool_map(_map_task, tasks, args.jobs)
    config["numeric"] = bool(args.numeric)
    write_csv(args.out, config, ["g0", "g_ck", "g2", "error"],
              [[*point, *result] for point, result in zip(points, results)])

    locus_rows = []
    for n in range(1, config["locus_n_max"] + 1):
        for gck in gck_axis:
            try:
                locus_rows.append([n, gck, resonance_curve_g0(n, float(gck), params.omega_m)])
            except ValueError:
                continue
    write_csv(_derived_path(args.out, "locus"), config, ["n", "g_ck", "g0_locus"], locus_rows)
    return 0


def _derived_path(path, tag):
    return f"{path}.{tag}.csv" if not path.endswith(".csv") else f"{path[:-4]}.{tag}.csv"


def _non_negative(config, key, default=None):
    """The config's ``key``, ``default`` when unset, resolved into the config
    so the CSV echoes it. The cat starts at t = 0: a negative time, t_max or
    t_steps is a usage error."""
    value = config[key] = default if config[key] is None else config[key]
    if value < 0:
        _usage_error(f"{key} = {value:g} must be non-negative")
    return value


def cmd_cat(args, config, params, spec):
    t_s = catstate.detection_time(params)
    t_max = _non_negative(config, "t_max", 2.0 * t_s)
    t_grid = np.linspace(0.0, t_max, _non_negative(config, "t_steps"))
    t_snap = _non_negative(config, "time", t_s)
    snap_path = _derived_path(args.out, "snapshot")

    if args.mode == "closed":
        def closed_row(t):
            snap = catstate.cat_snapshot(t, params)
            return [t, abs(snap.beta), snap.theta, snap.prob_plus, snap.prob_minus]

        header = ["t", "abs_beta", "theta", "p_plus", "p_minus"]
        write_csv(args.out, config, header, [closed_row(t) for t in t_grid])
        write_csv(snap_path, config, header, [closed_row(t_snap)])
        return 0

    rho0 = catstate.initial_superposition_density(spec)
    # rho0 is the state at t = 0, whichever times are reported
    eval_times = np.unique(np.concatenate([[0.0], t_grid, [t_snap]]))
    # a <rate>_list config key sweeps that rate
    rates = [[float(v) for v in np.atleast_1d(config.get(f"{key}_list", config[key]))]
             for key in ("kappa", "gamma_m", "nbar_m")]
    rows = []
    snap_rows = []
    for kap, gam, nbar in itertools.product(*rates):
        point = params.replace(kappa=kap, gamma_m=gam, nbar_m=nbar)
        states = evolve(make_lindblad(point, spec, frame="lab"), rho0, eval_times)
        for t, dm in zip(eval_times, states):
            branches = catstate.condition_open_system(dm, t)
            row = [kap, gam, nbar, t, *(cond.prob for cond in branches)]
            for cond in branches:  # a degenerate branch leaves only its own fidelity empty
                try:
                    row.append(catstate.fidelity_vs_target(cond, t, point))
                except DegenerateBranch:
                    row.append(np.nan)
            if t in t_grid:
                rows.append(row)
            if t == t_snap:
                snap_rows.append(row)
    header = ["kappa", "gamma_m", "nbar_m", "t", "p_plus", "p_minus", "f_plus", "f_minus"]
    write_csv(args.out, config, header, rows)
    write_csv(snap_path, config, header, snap_rows)
    return 0


def _snapshot(args, config, params, spec):
    """Snapshot time (default t_s), echoed with the branch and --numeric,
    and with --numeric the open-system state conditioned on the branch at
    that time (else None)."""
    t = _non_negative(config, "time", catstate.detection_time(params))
    config.update(branch=args.branch, numeric=bool(args.numeric))
    if not args.numeric:
        return t, None
    ls = make_lindblad(params, spec, frame="lab")
    dm = evolve(ls, catstate.initial_superposition_density(spec), np.array([0.0, t]))[-1]
    return t, next(cond for cond in catstate.condition_open_system(dm, t)
                   if cond.sign == args.branch)


def cmd_wigner(args, config, params, spec):
    t, cond = _snapshot(args, config, params, spec)
    re_axis = _axis(config, "re", "n_re")
    im_axis = _axis(config, "im", "n_im")
    if cond is None:
        grid = quasiprob.wigner_cat_analytic(t, args.branch, params, re_axis, im_axis)
    else:
        grid = quasiprob.wigner_numeric(cond.rho_b, re_axis, im_axis)

    rows = [
        [re, im, w]
        for re, line in zip(re_axis, grid.values)
        for im, w in zip(im_axis, line)
    ]
    write_csv(args.out, config, ["re_eta", "im_eta", "w"], rows)
    return 0


def cmd_quadrature(args, config, params, spec):
    t, cond = _snapshot(args, config, params, spec)
    x_axis = _axis(config, "x", "n_x")
    if config["theta"] == "auto":  # perpendicular to the cat's displacement beta(t)
        config["theta"] = np.angle(catstate.beta_theta(t, params)[0]) - np.pi / 2.0
    theta = config["theta"] = float(config["theta"])
    if cond is None:
        grid = quasiprob.quadrature_dist_cat(t, args.branch, theta, params, x_axis)
    else:
        grid = quasiprob.quadrature_dist_numeric(cond.rho_b, theta, x_axis)

    write_csv(args.out, config, ["x", "p"], zip(x_axis, grid.values))
    return 0


def _verify_propagator(params, n_mech, n_oracle, times, tol):
    """Factored propagator against the dense matrix exponential, with the
    exponential evaluated in a truncation large enough to contain every
    displaced sector; entries compared on the retained block."""
    spec = HilbertSpec(n_cav=3, n_mech=n_mech)
    big = HilbertSpec(n_cav=3, n_mech=n_oracle)
    h_big = build_h_gom(big, params)
    worst = 0.0
    worst_flipped = np.inf
    keep = np.concatenate([m * n_oracle + np.arange(n_mech) for m in range(3)])
    for t in times:
        u_fact = propagator_factored(t, params, spec)
        u_oracle = expm(h_big, -1j * t)[np.ix_(keep, keep)]
        worst = max(worst, float(np.abs(u_fact - u_oracle).max()))
        if t > 0:
            factors = propagator_factors(t, params, spec)
            u_flip = u_fact.copy()
            for m in range(3):
                u_flip[spec.block(m), spec.block(m)] *= np.exp(2j * factors.nu[m] * m**3)
            worst_flipped = min(
                worst_flipped, float(np.abs(u_flip - u_oracle).max())
            )
    return worst < tol and worst_flipped > tol, worst, worst_flipped


def cmd_verify(args, config, cat_params, spec):
    checks = []

    # factored propagator vs dense exponential, plus sign sensitivity
    params = SystemParams(g0=0.8, g_ck=0.2)
    times = np.linspace(0.0, 2.0 * np.pi / 0.8, 8)
    ok, worst, worst_flipped = _verify_propagator(
        params, n_mech=40, n_oracle=170, times=times, tol=1e-6
    )
    checks.append(("propagator-vs-expm", ok,
                   f"max dev {worst:.2e}; sign-flip control dev {worst_flipped:.2e}"))

    # unitarity of the factored propagator on a displacement-safe block
    spec = HilbertSpec(n_cav=2, n_mech=120)
    t_s = catstate.detection_time(cat_params)
    u = propagator_factored(t_s, cat_params, spec)
    lam = propagator_factors(t_s, cat_params, spec).lam
    k = safe_interior_dim(abs(lam[1]), spec.n_mech)
    keep = np.concatenate([m * spec.n_mech + np.arange(k) for m in range(2)])
    gram = (u.conj().T @ u)[np.ix_(keep, keep)]
    dev_unit = float(np.abs(gram - np.eye(keep.size)).max())
    checks.append(("propagator-unitarity", dev_unit < 1e-8, f"max dev {dev_unit:.2e}"))

    # Franck-Condon completeness: displaced-state rows resolve to unit weight
    x = 2.0 * cat_params.g0 / (cat_params.omega_m - cat_params.g_ck)
    disp = displacement_matrix(x, 240)
    row_norms = np.sum(np.abs(disp[:40, :]) ** 2, axis=1)
    dev_complete = float(np.abs(row_norms - 1.0).max())
    checks.append(("franck-condon-completeness", dev_complete < 1e-8,
                   f"max dev {dev_complete:.2e}"))

    # Wigner marginal vs quadrature distribution for the detected cat
    vec = catstate.cat_state_vector(t_s, "plus", cat_params, 60)
    rho_b = np.outer(vec, vec.conj())
    beta, _ = catstate.beta_theta(t_s, cat_params)
    theta0 = float(np.angle(beta) - np.pi / 2.0)
    x_axis = np.linspace(-3.0, 6.0, 61)
    marg = quasiprob.wigner_marginal(rho_b, theta0, x_axis, v_half_width=5.0, n_v=201)
    quad = quasiprob.quadrature_dist_cat(t_s, "plus", theta0, cat_params, x_axis)
    dev_marg = float(np.abs(marg.values - quad.values).max())
    checks.append(("wigner-marginal", dev_marg < 1e-3, f"max dev {dev_marg:.2e}"))

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _name, ok, _detail in checks) else 3


class Command(NamedTuple):
    """One ``ckom`` command. It takes --config, a flag per key of
    ``defaults``, --out when it writes a CSV, and ``flags``, its mode options
    as (option string, add_argument keywords)."""

    handler: Callable
    defaults: dict
    help: str
    flags: tuple = ()
    writes_csv: bool = True


_JOBS = ("--jobs", {"type": int, "default": 1, "help": "worker processes for sweeps"})
_NUMERIC = ("--numeric", {"action": "store_true", "help": "use the master-equation route"})
_BRANCH = ("--branch", {"choices": ["plus", "minus"], "default": "plus"})

COMMANDS = {
    "table1": Command(
        cmd_table1, SWEEP_DEFAULTS, "predicted vs detected resonance detunings",
        (_JOBS, ("--analytic", {"action": "store_true",
                                "help": "skip the master-equation sweep"}))),
    "blockade-sweep": Command(
        cmd_blockade_sweep, SWEEP_DEFAULTS, "photon statistics vs drive detuning",
        (_JOBS, _NUMERIC)),
    "blockade-map": Command(
        cmd_blockade_map, MAP_DEFAULTS, "g2 over the (g0, g_ck) plane", (_JOBS, _NUMERIC)),
    "cat": Command(
        cmd_cat, CAT_DEFAULTS, "cat-state probabilities and fidelities",
        (("--mode", {"choices": ["closed", "open"], "default": "closed"}),)),
    "wigner": Command(
        cmd_wigner, WIGNER_DEFAULTS, "mechanical Wigner function", (_NUMERIC, _BRANCH)),
    "quadrature": Command(
        cmd_quadrature, QUADRATURE_DEFAULTS, "rotated-quadrature distribution",
        (_NUMERIC, _BRANCH)),
    "verify": Command(cmd_verify, VERIFY_DEFAULTS, "run the numerical self-checks",
                      writes_csv=False),
}


def _build_parser():
    parser = _Parser(prog="ckom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file with flat keys")
        if command.writes_csv:
            p.add_argument("--out", default=f"{name.replace('-', '_')}.csv",
                           help="output CSV path")
        for flag, options in command.flags:
            p.add_argument(flag, **options)
        for key, default in command.defaults.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_key_type(default))
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = resolve_config(command.defaults, args)
        try:
            # parameters the command does not read keep the dataclass defaults
            params = SystemParams(**{k: config[k] for k in _PARAM_KEYS if k in command.defaults})
            spec = (HilbertSpec(n_cav=config["n_cav"], n_mech=config["n_mech"])
                    if "n_cav" in command.defaults else None)
        except ValueError as exc:
            _usage_error(str(exc))
        return command.handler(args, config, params, spec)
    except _NUMERICAL_ERRORS as exc:
        print(f"ckom: numerical failure: {_failure(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
