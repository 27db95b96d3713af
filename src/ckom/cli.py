"""Command-line front end: figure/table reproduction as CSV files.

Every command reads a flat JSON config (``--config``), applies flag
overrides, echoes the fully resolved configuration as a comment block at the
top of each CSV, and writes deterministic output (no randomness, no clocks).

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification
failure.
"""

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import blockade, catstate, quasiprob
from .model import SystemParams, delta_m, optimal_detuning, resonance_curve_g0
from .operators import HilbertSpec, build_h_gom, expm, propagator_factored, propagator_factors
from .specfun import displacement_matrix, safe_interior_dim
from .lindblad import make_lindblad, steady_state, evolve, observables
from .errors import (
    DegenerateBranch,
    DegenerateCat,
    NonConvergedSum,
    NonConvergence,
    SingularDenominator,
    StepSizeUnderflow,
    TruncationLoss,
    ZeroPhotonNumber,
)

_NUMERICAL_ERRORS = (
    DegenerateBranch,
    DegenerateCat,
    NonConvergedSum,
    NonConvergence,
    SingularDenominator,
    StepSizeUnderflow,
    TruncationLoss,
    ZeroPhotonNumber,
    np.linalg.LinAlgError,
)

BLOCKADE_DEFAULTS = {
    "g0": 0.7,
    "g_ck": 0.175,
    "kappa": 0.1,
    "gamma_m": 0.001,
    "nbar_m": 0.0,
    "delta_c": 0.594,
    "drive_amp": 0.001,
    "omega_c": 100.0,
    "omega_m": 1.0,
    "n_cav": 4,
    "n_mech": 30,
    "detuning_min": -4.0,
    "detuning_max": 2.0,
    "detuning_step": 0.005,
    "g0_min": 0.05,
    "g0_max": 1.3,
    "g0_steps": 126,
    "gck_min": 0.0,
    "gck_max": 0.4,
    "gck_steps": 81,
    "locus_n_max": 6,
}

CAT_DEFAULTS = {
    "g0": 1.2,
    "g_ck": 0.3,
    "kappa": 0.1,
    "gamma_m": 0.01,
    "nbar_m": 0.0,
    "delta_c": 0.0,
    "drive_amp": 0.0,
    "omega_c": 100.0,
    "omega_m": 1.0,
    "n_cav": 2,
    "n_mech": 60,
    "t_max": None,
    "t_steps": 201,
    "time": None,
    "re_min": -2.0,
    "re_max": 5.0,
    "n_re": 141,
    "im_min": -3.5,
    "im_max": 3.5,
    "n_im": 141,
    "x_min": -4.0,
    "x_max": 7.0,
    "n_x": 551,
    "theta": "auto",
}

PHASESPACE_DEFAULTS = {**CAT_DEFAULTS, "omega_c": 1000.0}

_PARAM_KEYS = (
    "g0",
    "g_ck",
    "kappa",
    "gamma_m",
    "nbar_m",
    "delta_c",
    "drive_amp",
    "omega_c",
    "omega_m",
)


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
    value = float(value)
    if np.isnan(value):
        return "nan"
    return f"{value:.9g}"


def write_csv(path, config, header, rows):
    with open(path, "w", newline="") as handle:
        for key in sorted(config):
            handle.write(f"# {key} = {config[key]}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def resolve_config(defaults, args):
    config = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as handle:
            config.update(json.load(handle))
    for key in config:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
    return config


def params_from_config(config):
    return SystemParams(**{k: float(config[k]) for k in _PARAM_KEYS})


def spec_from_config(config):
    return HilbertSpec(n_cav=int(config["n_cav"]), n_mech=int(config["n_mech"]))


def _pool_map(worker, tasks, jobs):
    if jobs <= 1:
        return [worker(task) for task in tasks]
    chunk = max(1, len(tasks) // (8 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def _steady_g2(params, n_cav, n_mech, method):
    """(g2, error) of the driven steady state at one parameter point;
    NaN-and-continue on failure."""
    try:
        ls = make_lindblad(params, HilbertSpec(n_cav=n_cav, n_mech=n_mech), frame="rotating")
        return observables(steady_state(ls, method=method))["g2"], ""
    except _NUMERICAL_ERRORS as exc:
        return np.nan, _failure(exc)


def _g2_numeric_task(task):
    """Steady-state g2 at one detuning; task = (params, n_cav, n_mech, method)."""
    return _steady_g2(*task)


def g2_numeric_sweep(params, n_cav, n_mech, detunings, method="ladder", jobs=1):
    """Master-equation g2(delta_c) over a detuning grid (parallel over points)."""
    tasks = [
        (params.replace(delta_c=float(dc)), n_cav, n_mech, method) for dc in detunings
    ]
    return _pool_map(_g2_numeric_task, tasks, jobs)


def g2_analytic_sweep(params, spec, detunings):
    out = []
    for dc in detunings:
        try:
            stats = blockade.photon_stats_exact(params.replace(delta_c=float(dc)), spec)
            out.append((stats, ""))
        except _NUMERICAL_ERRORS as exc:
            out.append((None, _failure(exc)))
    return out


def local_extrema(x, y, kind):
    """Locations of strict local minima or maxima of a sampled curve
    (NaN-bearing neighborhoods are skipped)."""
    locs = []
    for i in range(1, len(y) - 1):
        window = y[i - 1 : i + 2]
        if np.any(np.isnan(window)):
            continue
        if kind == "min" and y[i] < y[i - 1] and y[i] < y[i + 1]:
            locs.append(x[i])
        if kind == "max" and y[i] > y[i - 1] and y[i] > y[i + 1]:
            locs.append(x[i])
    return np.array(locs)


def _nearest(candidates, value):
    if candidates.size == 0:
        return np.nan
    return float(candidates[np.argmin(np.abs(candidates - value))])


def _detuning_grid(config):
    lo = float(config["detuning_min"])
    hi = float(config["detuning_max"])
    step = float(config["detuning_step"])
    n = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, n)


def cmd_table1(args):
    config = resolve_config(BLOCKADE_DEFAULTS, args)
    params = params_from_config(config)
    spec = spec_from_config(config)
    single_n = list(range(6))
    two_n = [0, 1, 2, 3, 5, 8]
    predicted = [("single", n, optimal_detuning("single", n, params)) for n in single_n]
    predicted += [("two-photon", n, optimal_detuning("two-photon", n, params)) for n in two_n]

    detunings = _detuning_grid(config)
    analytic = g2_analytic_sweep(params, spec, detunings)
    g2_a = np.array([s.g2 if s is not None else np.nan for s, _err in analytic])
    dips_a = local_extrema(detunings, g2_a, "min")
    peaks_a = local_extrema(detunings, g2_a, "max")

    run_numeric = not args.analytic
    if run_numeric:
        numeric = g2_numeric_sweep(params, spec.n_cav, spec.n_mech, detunings, jobs=args.jobs)
        g2_n = np.array([val for val, _err in numeric])
        dips_n = local_extrema(detunings, g2_n, "min")
        peaks_n = local_extrema(detunings, g2_n, "max")

    rows = []
    for kind, n, pred in predicted:
        pool_a = dips_a if kind == "single" else peaks_a
        det_a = _nearest(pool_a, pred)
        row = [kind, n, pred, det_a, det_a - pred]
        if run_numeric:
            pool_n = dips_n if kind == "single" else peaks_n
            det_n = _nearest(pool_n, pred)
            row += [det_n, det_n - pred]
        rows.append(row)

    header = ["kind", "n", "predicted", "detected_analytic", "delta_analytic"]
    if run_numeric:
        header += ["detected_numeric", "delta_numeric"]
    config["numeric"] = run_numeric
    write_csv(args.out, config, header, rows)
    return 0


def cmd_blockade_sweep(args):
    config = resolve_config(BLOCKADE_DEFAULTS, args)
    params = params_from_config(config)
    spec = spec_from_config(config)
    detunings = _detuning_grid(config)

    analytic = g2_analytic_sweep(params, spec, detunings)
    numeric = None
    if args.numeric:
        numeric = g2_numeric_sweep(params, spec.n_cav, spec.n_mech, detunings, jobs=args.jobs)

    rows = []
    for i, dc in enumerate(detunings):
        stats, err = analytic[i]
        point = params.replace(delta_c=float(dc))
        try:
            g2_ld = blockade.photon_stats_lamb_dicke(point).g2
        except _NUMERICAL_ERRORS as exc:
            g2_ld = np.nan
            err = err or _failure(exc)
        if stats is None:
            row = [dc, np.nan, np.nan, np.nan, np.nan, g2_ld]
        else:
            row = [dc, stats.p0, stats.p1, stats.p2, stats.g2, g2_ld]
        if numeric is not None:
            g2_n, err_n = numeric[i]
            row.append(g2_n)
            err = err or err_n
        row.append(err)
        rows.append(row)

    header = ["delta_c", "p0", "p1", "p2", "g2_analytic", "g2_lamb_dicke"]
    if numeric is not None:
        header.append("g2_numeric")
    header.append("error")
    config["numeric"] = bool(args.numeric)
    write_csv(args.out, config, header, rows)
    return 0


def _map_task(task):
    """g2 at the single-photon resonance of one (g0, g_ck) point;
    task = (params, n_cav, n_mech, numeric)."""
    params, n_cav, n_mech, numeric = task
    try:
        params = params.replace(delta_c=delta_m(1, params))
        if not numeric:
            spec = HilbertSpec(n_cav=n_cav, n_mech=n_mech)
            return blockade.photon_stats_exact(params, spec).g2, ""
    except _NUMERICAL_ERRORS as exc:
        return np.nan, _failure(exc)
    return _steady_g2(params, n_cav, n_mech, "ladder")


def cmd_blockade_map(args):
    config = resolve_config(BLOCKADE_DEFAULTS, args)
    params = params_from_config(config)
    spec = spec_from_config(config)
    g0_axis = np.linspace(float(config["g0_min"]), float(config["g0_max"]), int(config["g0_steps"]))
    gck_axis = np.linspace(float(config["gck_min"]), float(config["gck_max"]), int(config["gck_steps"]))

    tasks = [
        (params.replace(g0=float(g0), g_ck=float(gck)), spec.n_cav, spec.n_mech,
         bool(args.numeric))
        for g0 in g0_axis
        for gck in gck_axis
    ]
    results = _pool_map(_map_task, tasks, args.jobs)
    rows = []
    k = 0
    for g0 in g0_axis:
        for gck in gck_axis:
            g2, err = results[k]
            rows.append([g0, gck, g2, err])
            k += 1
    config["numeric"] = bool(args.numeric)
    write_csv(args.out, config, ["g0", "g_ck", "g2", "error"], rows)

    locus_rows = []
    for n in range(1, int(config["locus_n_max"]) + 1):
        for gck in gck_axis:
            try:
                locus_rows.append([n, gck, resonance_curve_g0(n, float(gck), params.omega_m)])
            except ValueError:
                continue
    write_csv(_derived_path(args.out, "locus"), config, ["n", "g_ck", "g0_locus"], locus_rows)
    return 0


def _derived_path(path, tag):
    return f"{path}.{tag}.csv" if not path.endswith(".csv") else f"{path[:-4]}.{tag}.csv"


def _time_grid(config, params):
    t_max = config.get("t_max")
    if t_max is None:
        t_max = 2.0 * catstate.detection_time(params)
    return np.linspace(0.0, float(t_max), int(config["t_steps"]))


def _dissipation_settings(config):
    def as_list(key):
        val = config.get(f"{key}_list", config[key])
        return [float(v) for v in np.atleast_1d(val)]

    settings = []
    for kap in as_list("kappa"):
        for gam in as_list("gamma_m"):
            for nbar in as_list("nbar_m"):
                settings.append((kap, gam, nbar))
    return settings


def cmd_cat(args):
    config = resolve_config(CAT_DEFAULTS, args)
    params = params_from_config(config)
    spec = spec_from_config(config)
    t_grid = _time_grid(config, params)
    t_snap = config["time"]
    t_snap = catstate.detection_time(params) if t_snap is None else float(t_snap)

    if args.mode == "closed":
        rows = []
        for t in t_grid:
            snap = catstate.cat_snapshot(t, params)
            rows.append([t, abs(snap.beta), snap.theta, snap.prob_plus, snap.prob_minus])
        write_csv(args.out, config,
                  ["t", "abs_beta", "theta", "p_plus", "p_minus"], rows)
        snap = catstate.cat_snapshot(t_snap, params)
        write_csv(_derived_path(args.out, "snapshot"), config,
                  ["t", "abs_beta", "theta", "p_plus", "p_minus"],
                  [[t_snap, abs(snap.beta), snap.theta, snap.prob_plus, snap.prob_minus]])
        return 0

    rows = []
    snap_rows = []
    for kap, gam, nbar in _dissipation_settings(config):
        point = params.replace(kappa=kap, gamma_m=gam, nbar_m=nbar)
        ls = make_lindblad(point, spec, frame="lab")
        rho0 = catstate.initial_superposition_density(spec)
        eval_times = np.unique(np.concatenate([t_grid, [t_snap]]))
        states = evolve(ls, rho0, eval_times)
        for t, dm in zip(eval_times, states):
            p_plus, p_minus = catstate.branch_probabilities(dm)
            fids = {"plus": np.nan, "minus": np.nan}
            try:
                for cond in catstate.condition_open_system(dm, t):
                    fids[cond.sign] = catstate.fidelity_vs_target(cond, t, point)
            except (DegenerateBranch, DegenerateCat):
                pass
            row = [kap, gam, nbar, t, p_plus, p_minus, fids["plus"], fids["minus"]]
            if t in t_grid:
                rows.append(row)
            if t == t_snap:
                snap_rows.append(row)
    header = ["kappa", "gamma_m", "nbar_m", "t", "p_plus", "p_minus", "f_plus", "f_minus"]
    write_csv(args.out, config, header, rows)
    write_csv(_derived_path(args.out, "snapshot"), config, header, snap_rows)
    return 0


def _conditioned_state(params, spec, t, branch):
    ls = make_lindblad(params, spec, frame="lab")
    rho0 = catstate.initial_superposition_density(spec)
    dm = evolve(ls, rho0, np.array([0.0, t]))[-1]
    for cond in catstate.condition_open_system(dm, t):
        if cond.sign == branch:
            return cond
    raise DegenerateBranch(branch)


def cmd_wigner(args):
    config = resolve_config(PHASESPACE_DEFAULTS, args)
    params = params_from_config(config)
    spec = spec_from_config(config)
    t = config["time"]
    t = catstate.detection_time(params) if t is None else float(t)
    re_axis = np.linspace(float(config["re_min"]), float(config["re_max"]), int(config["n_re"]))
    im_axis = np.linspace(float(config["im_min"]), float(config["im_max"]), int(config["n_im"]))

    if args.numeric:
        cond = _conditioned_state(params, spec, t, args.branch)
        grid = quasiprob.wigner_numeric(cond.rho_b, re_axis, im_axis)
    else:
        grid = quasiprob.wigner_cat_analytic(t, args.branch, params, re_axis, im_axis)

    rows = [
        [re_axis[i], im_axis[j], grid.values[i, j]]
        for i in range(re_axis.size)
        for j in range(im_axis.size)
    ]
    config.update(time=t, branch=args.branch, numeric=bool(args.numeric))
    write_csv(args.out, config, ["re_eta", "im_eta", "w"], rows)
    return 0


def cmd_quadrature(args):
    config = resolve_config(PHASESPACE_DEFAULTS, args)
    params = params_from_config(config)
    spec = spec_from_config(config)
    t = config["time"]
    t = catstate.detection_time(params) if t is None else float(t)
    x_axis = np.linspace(float(config["x_min"]), float(config["x_max"]), int(config["n_x"]))
    theta = config["theta"]
    if theta == "auto":
        beta, _ = catstate.beta_theta(t, params)
        theta = float(np.angle(beta) - np.pi / 2.0)
    else:
        theta = float(theta)

    if args.numeric:
        cond = _conditioned_state(params, spec, t, args.branch)
        grid = quasiprob.quadrature_dist_numeric(cond.rho_b, theta, x_axis)
    else:
        grid = quasiprob.quadrature_dist_cat(t, args.branch, theta, params, x_axis)

    rows = [[x_axis[i], grid.values[i]] for i in range(x_axis.size)]
    config.update(time=t, branch=args.branch, theta=theta, numeric=bool(args.numeric))
    write_csv(args.out, config, ["x", "p"], rows)
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
        u_fact = propagator_factored(t, params, spec).matrix
        u_oracle = expm(h_big, -1j * t).matrix[np.ix_(keep, keep)]
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


def cmd_verify(args):
    config = resolve_config(CAT_DEFAULTS, args)
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
    cat_params = params_from_config(config)
    spec = HilbertSpec(n_cav=2, n_mech=120)
    t_s = catstate.detection_time(cat_params)
    u = propagator_factored(t_s, cat_params, spec).matrix
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

    all_ok = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 3


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file with flat keys")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    for key in _PARAM_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    parser.add_argument("--n-cav", type=int, dest="n_cav")
    parser.add_argument("--n-mech", type=int, dest="n_mech")


def _build_parser():
    parser = _Parser(prog="ckom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="predicted vs detected resonance detunings")
    _add_common(p)
    p.add_argument("--analytic", action="store_true",
                   help="skip the master-equation sweep")
    for key in ("detuning_min", "detuning_max", "detuning_step"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.set_defaults(func=cmd_table1, default_out="table1.csv")

    p = sub.add_parser("blockade-sweep", help="photon statistics vs drive detuning")
    _add_common(p)
    p.add_argument("--numeric", action="store_true",
                   help="add the master-equation g2 column")
    for key in ("detuning_min", "detuning_max", "detuning_step"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.set_defaults(func=cmd_blockade_sweep, default_out="blockade_sweep.csv")

    p = sub.add_parser("blockade-map", help="g2 over the (g0, g_ck) plane")
    _add_common(p)
    p.add_argument("--numeric", action="store_true")
    for key in ("g0_min", "g0_max", "gck_min", "gck_max"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    for key in ("g0_steps", "gck_steps", "locus_n_max"):
        p.add_argument(f"--{key.replace('_', '-')}", type=int, dest=key)
    p.set_defaults(func=cmd_blockade_map, default_out="blockade_map.csv")

    p = sub.add_parser("cat", help="cat-state probabilities and fidelities")
    _add_common(p)
    p.add_argument("--mode", choices=["closed", "open"], default="closed")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--t-steps", type=int, dest="t_steps")
    p.add_argument("--time", type=float, dest="time", help="snapshot time (default t_s)")
    p.set_defaults(func=cmd_cat, default_out="cat.csv")

    p = sub.add_parser("wigner", help="mechanical Wigner function")
    _add_common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--numeric", action="store_true")
    group.add_argument("--analytic", action="store_true")
    p.add_argument("--branch", choices=["plus", "minus"], default="plus")
    p.add_argument("--time", type=float, dest="time")
    for key in ("re_min", "re_max", "im_min", "im_max"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    for key in ("n_re", "n_im"):
        p.add_argument(f"--{key.replace('_', '-')}", type=int, dest=key)
    p.set_defaults(func=cmd_wigner, default_out="wigner.csv")

    p = sub.add_parser("quadrature", help="rotated-quadrature distribution")
    _add_common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--numeric", action="store_true")
    group.add_argument("--analytic", action="store_true")
    p.add_argument("--branch", choices=["plus", "minus"], default="plus")
    p.add_argument("--time", type=float, dest="time")
    p.add_argument("--theta", dest="theta", help="rotation angle or 'auto'")
    for key in ("x_min", "x_max"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.add_argument("--n-x", type=int, dest="n_x")
    p.set_defaults(func=cmd_quadrature, default_out="quadrature.csv")

    p = sub.add_parser("verify", help="run the numerical self-checks")
    _add_common(p)
    p.set_defaults(func=cmd_verify, default_out=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) is None:
        args.out = args.default_out
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"ckom: numerical failure: {_failure(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
