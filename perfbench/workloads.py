"""Inputs, ``ckom`` commands and output checks of the benchmark's workloads.

Each workload turns a seed into the config file and flags that one round of
``ckom`` commands receives. After a round it counts the operations attempted
and failed from the CSV outputs, and it checks those outputs against
independent computations or against properties the method must have. The
closed forms used by the checks are coded here from the paper's formulas,
not taken from the program.
"""

import json
import math
import os

import numpy as np

# Blockade physics of the paper's Table 1 on the default 4 x 30 space.
BLOCKADE_PHYSICS = {
    "g0": 0.7, "g_ck": 0.175, "kappa": 0.1, "gamma_m": 0.001, "nbar_m": 0.0,
    "drive_amp": 0.001, "omega_c": 100.0, "omega_m": 1.0,
}
# Cat physics: g0 = 1.2, g_ck = g0/4, lab frame omega_c = 100.
CAT_PHYSICS = {
    "g0": 1.2, "g_ck": 0.3, "kappa": 0.1, "gamma_m": 0.01, "nbar_m": 0.0,
    "delta_c": 0.0, "drive_amp": 0.0, "omega_c": 100.0, "omega_m": 1.0,
}

# Relative g2 agreement of the program's ladder solve and the global direct
# solve. They agree to 1e-14 at most detunings, but to only 2.3e-6 near
# delta_c = -1.23 and -0.63 and 1.8e-6 at -1.19, where the two-photon
# population is about 1e-9 of the vacuum's.
G2_DIRECT_RTOL = 1e-5
# |2 delta_1 - (delta_2 - n (omega_m - 2 g_ck))| relative to delta_2; the CSV
# prints g0 to nine significant digits.
LOCUS_RTOL = 1e-7
# P+ + P- = 1 up to the CSV's nine printed digits.
PROB_SUM_TOL = 5e-9
# |P+- - closed form| with the photon coherence damped by exp(-kappa t / 2);
# what remains is mechanical damping (gamma_m = 0.01) acting on |beta>.
CLOSED_FORM_TOL = 2e-3
FIDELITY_CEIL = 1.0 + 1e-8
WIGNER_NORM_TOL = 1e-5
WIGNER_POINT_TOL = 1e-7
MARGINAL_TOL = 1e-4


def shift(m, g0, g_ck, omega_m=1.0):
    """m-photon energy shift delta_m = g0^2 m^2 / (omega_m - m g_ck)."""
    return g0**2 * m**2 / (omega_m - m * g_ck)


def beta_theta(t, g0, g_ck, omega_c, omega_m=1.0):
    """Displacement beta(t) and phase theta(t) of the one-photon branch."""
    w = omega_m - g_ck
    beta = g0 * (1.0 - np.exp(-1j * w * t)) / w
    theta = -omega_c * t + g0**2 * (w * t - np.sin(w * t)) / w**2
    return beta, theta


def read_csv(path):
    """(echoed config, header, columns) of a ckom CSV; values stay strings."""
    echo, header, rows = {}, None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                echo[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    columns = {name: [row[k] for row in rows] for k, name in enumerate(header or [])}
    return echo, header, columns


def floats(values):
    return np.array([float(v) if v else math.nan for v in values])


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _ckom_params(config, **changes):
    from ckom import SystemParams

    keys = ("g0", "g_ck", "kappa", "gamma_m", "nbar_m", "delta_c", "drive_amp",
            "omega_c", "omega_m")
    values = {k: float(config.get(k, 0.0)) for k in keys}
    values.update(changes)
    return SystemParams(**values)


def direct_g2(config, **changes):
    """g2 of the steady state by the global vectorized-Liouvillian solve."""
    from ckom import HilbertSpec, make_lindblad, observables, steady_state

    spec = HilbertSpec(n_cav=int(config["n_cav"]), n_mech=int(config["n_mech"]))
    ls = make_lindblad(_ckom_params(config, **changes), spec, frame="rotating")
    return observables(steady_state(ls, method="direct"))["g2"]


class Workload:
    """One round of ckom commands generated from a seed."""

    name = ""
    check_names = ()

    def write_config(self, round_dir):
        path = os.path.join(round_dir, "config.json")
        with open(path, "w") as handle:
            json.dump(self.config, handle, indent=1)
        return path

    def commands(self, round_dir):
        """ckom argument lists of one round."""
        raise NotImplementedError

    def tally(self, round_dir, exit_codes):
        """(attempted, failed) operations of one finished round."""
        raise NotImplementedError

    def check(self, round_dir):
        """Output checks of one finished round, as a list of check dicts."""
        raise NotImplementedError


class Sweep(Workload):
    """blockade-sweep --numeric --jobs 1 over a detuning grid across the
    dips and peaks of Table 1; the seed sets the grid's sub-step offset."""

    name = "sweep"
    check_names = ("sweep.rows", "sweep.direct_dip", "sweep.direct_peak")

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 1])
        n_cav, n_mech, n, step = (3, 30, 6, 0.6) if tiny else (4, 30, 28, 0.2)
        lo = -3.7 + float(rng.uniform(0.0, step))
        hi = lo + (n - 1) * step
        self.grid = np.linspace(lo, hi, n)
        self.config = dict(BLOCKADE_PHYSICS, n_cav=n_cav, n_mech=n_mech,
                           detuning_min=lo, detuning_max=hi, detuning_step=step)
        g0, g_ck = self.config["g0"], self.config["g_ck"]
        dips = [shift(1, g0, g_ck) - k * (1.0 - g_ck) for k in range(6)]
        peaks = [(shift(2, g0, g_ck) - k * (1.0 - 2.0 * g_ck)) / 2.0 for k in (0, 1, 2, 3, 5, 8)]
        self.probes = {}
        for label, features in (("dip", dips), ("peak", peaks)):
            inside = [f for f in features if lo <= f <= hi]
            target = inside[int(rng.integers(len(inside)))]
            self.probes[label] = int(np.argmin(np.abs(self.grid - target)))
        self.work = float(n)

    def commands(self, round_dir):
        return [["blockade-sweep", "--numeric", "--jobs", "1",
                 "--config", self.write_config(round_dir),
                 "--out", os.path.join(round_dir, "sweep.csv")]]

    def _columns(self, round_dir):
        _echo, _header, cols = read_csv(os.path.join(round_dir, "sweep.csv"))
        return cols

    def tally(self, round_dir, exit_codes):
        n = self.grid.size
        if exit_codes[0] != 0:
            return n, n
        cols = self._columns(round_dir)
        bad = sum(1 for g, e in zip(floats(cols["g2_numeric"]), cols["error"])
                  if e or not np.isfinite(g))
        return n, bad

    def check(self, round_dir):
        cols = self._columns(round_dir)
        dc = floats(cols["delta_c"])
        g2 = floats(cols["g2_numeric"])
        ok = (dc.size == self.grid.size and np.allclose(dc, self.grid, rtol=0, atol=1e-8)
              and np.all(np.isfinite(g2)) and not any(cols["error"]))
        out = [_check("sweep.rows", ok, f"{dc.size} rows, grid and finite g2 with empty error: {ok}")]
        for label, k in self.probes.items():
            ref = direct_g2(self.config, delta_c=float(self.grid[k]))
            rel = abs(g2[k] - ref) / abs(ref)
            out.append(_check(f"sweep.direct_{label}", rel <= G2_DIRECT_RTOL,
                              f"delta_c={self.grid[k]:.4f} ladder {g2[k]:.9g} direct {ref:.9g} rel {rel:.1e}"))
        return out


class Map(Workload):
    """blockade-map --numeric --jobs 2 on a reduced (g0, g_ck) grid; the seed
    sets the extent of both axes."""

    name = "map"
    check_names = ("map.rows", "map.direct", "map.locus")

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 2])
        n_cav, n_mech, n_g0, n_gck = (3, 30, 2, 2) if tiny else (4, 30, 8, 6)
        g0_max = float(rng.uniform(1.15, 1.3))
        gck_max = float(rng.uniform(0.28, 0.32))
        self.g0_axis = np.linspace(0.05, g0_max, n_g0)
        self.gck_axis = np.linspace(0.0, gck_max, n_gck)
        self.config = dict(BLOCKADE_PHYSICS, n_cav=n_cav, n_mech=n_mech,
                           g0_min=0.05, g0_max=g0_max, g0_steps=n_g0,
                           gck_min=0.0, gck_max=gck_max, gck_steps=n_gck, locus_n_max=6)
        self.probe = int(rng.integers(n_g0 * n_gck))
        self.work = float(n_g0 * n_gck)

    def commands(self, round_dir):
        return [["blockade-map", "--numeric", "--jobs", "2",
                 "--config", self.write_config(round_dir),
                 "--out", os.path.join(round_dir, "map.csv")]]

    def tally(self, round_dir, exit_codes):
        n = int(self.work)
        if exit_codes[0] != 0:
            return n, n
        _echo, _header, cols = read_csv(os.path.join(round_dir, "map.csv"))
        bad = sum(1 for g, e in zip(floats(cols["g2"]), cols["error"]) if e or not np.isfinite(g))
        return n, bad

    def check(self, round_dir):
        _echo, _header, cols = read_csv(os.path.join(round_dir, "map.csv"))
        g0 = floats(cols["g0"])
        gck = floats(cols["g_ck"])
        g2 = floats(cols["g2"])
        want_g0 = np.repeat(self.g0_axis, self.gck_axis.size)
        want_gck = np.tile(self.gck_axis, self.g0_axis.size)
        ok = (g2.size == want_g0.size and np.allclose(g0, want_g0, rtol=1e-8, atol=0)
              and np.allclose(gck, want_gck, rtol=1e-8, atol=1e-12)
              and np.all(np.isfinite(g2)) and not any(cols["error"]))
        out = [_check("map.rows", ok, f"{g2.size} rows, axes and finite g2 with empty error: {ok}")]

        k = self.probe
        point = {"g0": float(want_g0[k]), "g_ck": float(want_gck[k])}
        point["delta_c"] = shift(1, point["g0"], point["g_ck"])
        ref = direct_g2(self.config, **point)
        rel = abs(g2[k] - ref) / abs(ref)
        out.append(_check("map.direct", rel <= G2_DIRECT_RTOL,
                          f"g0={point['g0']:.4f} g_ck={point['g_ck']:.4f} ladder {g2[k]:.9g} "
                          f"direct {ref:.9g} rel {rel:.1e}"))

        _echo, _header, loc = read_csv(os.path.join(round_dir, "map.locus.csv"))
        n = floats(loc["n"])
        l_gck = floats(loc["g_ck"])
        l_g0 = floats(loc["g0_locus"])
        d1 = shift(1, l_g0, l_gck)
        d2 = shift(2, l_g0, l_gck)
        mismatch = np.abs(2.0 * d1 - (d2 - n * (1.0 - 2.0 * l_gck))) / np.maximum(d2, 1e-300)
        want_rows = int(self.config["locus_n_max"]) * self.gck_axis.size
        worst = float(mismatch.max()) if mismatch.size else math.inf
        out.append(_check("map.locus", n.size == want_rows and worst <= LOCUS_RTOL,
                          f"{n.size}/{want_rows} rows, worst resonance mismatch {worst:.1e}"))
        return out


class CatOpen(Workload):
    """cat --mode open in the lab frame (omega_c = 100) on 2 x 40 up to t_s,
    for two cavity decay rates drawn from the seed."""

    name = "cat-open"
    check_names = ("cat.rows", "cat.probability_sum", "cat.fidelity_range",
                   "cat.fidelity_falls_with_kappa", "cat.closed_form")

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 3])
        k1 = float(rng.uniform(0.05, 0.1))
        k2 = k1 + float(rng.uniform(0.1, 0.2))
        physics = dict(CAT_PHYSICS)
        n_mech, t_steps = 40, 31
        if tiny:
            physics.update(g0=0.5, g_ck=0.125, omega_c=10.0)
            n_mech, t_steps = 24, 11
        self.kappas = [k1, k2]
        self.t_s = math.pi / (physics["omega_m"] - physics["g_ck"])
        self.config = dict(physics, kappa=k1, kappa_list=self.kappas, n_cav=2,
                           n_mech=n_mech, t_max=self.t_s, t_steps=t_steps)
        self.work = self.t_s * len(self.kappas)

    def commands(self, round_dir):
        return [["cat", "--mode", "open", "--config", self.write_config(round_dir),
                 "--out", os.path.join(round_dir, "cat.csv")]]

    def tally(self, round_dir, exit_codes):
        n = len(self.kappas)
        if exit_codes[0] != 0:
            return n, n
        _echo, _header, cols = read_csv(os.path.join(round_dir, "cat.csv"))
        kap = floats(cols["kappa"])
        probs = floats(cols["p_plus"]) + floats(cols["p_minus"])
        rows = [np.isclose(kap, k, rtol=1e-8) for k in self.kappas]
        bad = sum(1 for sel in rows if not sel.any() or not np.isfinite(probs[sel]).all())
        return n, bad

    def check(self, round_dir):
        c = self.config
        _echo, _header, cols = read_csv(os.path.join(round_dir, "cat.csv"))
        kap, t = floats(cols["kappa"]), floats(cols["t"])
        pp, pm = floats(cols["p_plus"]), floats(cols["p_minus"])
        fp, fm = floats(cols["f_plus"]), floats(cols["f_minus"])
        want = len(self.kappas) * int(c["t_steps"])
        out = [_check("cat.rows", t.size == want and np.all(np.isfinite(pp + pm)),
                      f"{t.size}/{want} rows with finite P+-")]

        dev = float(np.abs(pp + pm - 1.0).max())
        out.append(_check("cat.probability_sum", dev <= PROB_SUM_TOL, f"max |P+ + P- - 1| = {dev:.1e}"))

        fids = np.concatenate([fp, fm])
        degenerate = np.concatenate([np.minimum(pp, pm)] * 2) < 1e-9
        finite = np.isfinite(fids)
        in_range = np.all((fids[finite] > 0.0) & (fids[finite] <= FIDELITY_CEIL))
        ok = in_range and np.all(finite | degenerate) and finite.sum() > 0
        out.append(_check("cat.fidelity_range", ok,
                          f"{finite.sum()} fidelities in (0, 1], {(~finite).sum()} undefined at P = 0"))

        _echo, _header, snap = read_csv(os.path.join(round_dir, "cat.snapshot.csv"))
        s_kap = floats(snap["kappa"])
        order = np.argsort(s_kap)
        ok = s_kap.size == len(self.kappas)
        for col in ("f_plus", "f_minus"):
            f = floats(snap[col])[order]
            ok = ok and bool(np.all(np.isfinite(f)) and np.all(np.diff(f) < 0))
        out.append(_check("cat.fidelity_falls_with_kappa", ok,
                          "f(t_s) by kappa: " + ", ".join(
                              f"{k:.3f}: {a}/{b}" for k, a, b in
                              zip(s_kap, snap["f_plus"], snap["f_minus"]))))

        beta, theta = beta_theta(t, c["g0"], c["g_ck"], c["omega_c"], c["omega_m"])
        interference = np.exp(-0.5 * kap * t) * np.cos(theta) * np.exp(-0.5 * np.abs(beta) ** 2)
        dev = float(max(np.abs(pp - 0.5 * (1 + interference)).max(),
                        np.abs(pm - 0.5 * (1 - interference)).max()))
        out.append(_check("cat.closed_form", dev <= CLOSED_FORM_TOL,
                          f"max |P+- - closed form| = {dev:.1e}"))
        return out


class PhaseSpace(Workload):
    """wigner --numeric and quadrature --numeric at omega_c = 0 on 2 x 60 with
    a 141 x 141 grid; the seed sets kappa and shifts the grid window."""

    name = "phase-space"
    check_names = ("phase.rows", "phase.wigner_normalised", "phase.parity_displacement",
                   "phase.marginal_matches_quadrature")

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 4])
        kappa = float(rng.uniform(0.05, 0.15))
        s_re, s_im = (float(v) for v in rng.uniform(-0.1, 0.1, 2))
        physics = dict(CAT_PHYSICS, kappa=kappa, omega_c=0.0)
        n_mech, n_grid, n_x = 60, 141, 551
        if tiny:
            physics.update(g0=0.6, g_ck=0.15)
            n_mech, n_grid, n_x = 30, 25, 101
        self.config = dict(physics, n_cav=2, n_mech=n_mech,
                           re_min=-4.0 + s_re, re_max=6.5 + s_re, n_re=n_grid,
                           im_min=-5.5 + s_im, im_max=4.5 + s_im, n_im=n_grid,
                           x_min=-4.0, x_max=7.0, n_x=n_x)
        self.t_s = math.pi / (physics["omega_m"] - physics["g_ck"])
        self.sample_seed = [seed, 5]
        self.work = float(n_grid * n_grid)
        self.rho_b = None

    def commands(self, round_dir):
        cfg = self.write_config(round_dir)
        return [["wigner", "--numeric", "--omega-c", "0", "--config", cfg,
                 "--out", os.path.join(round_dir, "wigner.csv")],
                ["quadrature", "--numeric", "--omega-c", "0", "--config", cfg,
                 "--out", os.path.join(round_dir, "quadrature.csv")]]

    def tally(self, round_dir, exit_codes):
        return len(exit_codes), sum(1 for code in exit_codes if code != 0)

    def _library_state(self):
        """Conditioned mechanical state from the library, as the command
        computes it; evaluated outside the timed region."""
        if self.rho_b is None:
            from ckom import (HilbertSpec, condition_open_system, evolve,
                              initial_superposition_density, make_lindblad)

            spec = HilbertSpec(n_cav=2, n_mech=int(self.config["n_mech"]))
            ls = make_lindblad(_ckom_params(self.config), spec, frame="lab")
            dm = evolve(ls, initial_superposition_density(spec), np.array([0.0, self.t_s]))[-1]
            plus = [c for c in condition_open_system(dm, self.t_s) if c.sign == "plus"]
            self.rho_b = plus[0].rho_b
        return self.rho_b

    def check(self, round_dir):
        from scipy.interpolate import CubicSpline
        from scipy.linalg import expm

        c = self.config
        _echo, _header, wcols = read_csv(os.path.join(round_dir, "wigner.csv"))
        q_echo, _header, qcols = read_csv(os.path.join(round_dir, "quadrature.csv"))
        n_re, n_im = int(c["n_re"]), int(c["n_im"])
        re_axis = np.linspace(c["re_min"], c["re_max"], n_re)
        im_axis = np.linspace(c["im_min"], c["im_max"], n_im)
        w = floats(wcols["w"])
        x, p = floats(qcols["x"]), floats(qcols["p"])
        ok = (w.size == n_re * n_im and np.all(np.isfinite(w))
              and x.size == int(c["n_x"]) and np.all(np.isfinite(p))
              and np.allclose(floats(wcols["re_eta"]), np.repeat(re_axis, n_im), atol=1e-8)
              and np.allclose(floats(wcols["im_eta"]), np.tile(im_axis, n_re), atol=1e-8))
        out = [_check("phase.rows", ok, f"{w.size} Wigner and {x.size} quadrature rows, finite: {ok}")]
        grid = w.reshape(n_re, n_im)

        norm = float(np.trapezoid(np.trapezoid(grid, im_axis, axis=1), re_axis))
        out.append(_check("phase.wigner_normalised", abs(norm - 1.0) <= WIGNER_NORM_TOL,
                          f"integral {norm:.8f}"))

        # (2/pi) sum_l (-1)^l <l| D+(eta) rho D(eta) |l>, D by expm on a larger cutoff
        rho_b = self._library_state()
        big = 4 * rho_b.shape[0]
        b = np.diag(np.sqrt(np.arange(1.0, big)), 1)
        rho = np.zeros((big, big), dtype=complex)
        rho[: rho_b.shape[0], : rho_b.shape[0]] = rho_b
        parity = (-1.0) ** np.arange(big)
        rng = np.random.default_rng(self.sample_seed)
        beta, _theta = beta_theta(self.t_s, c["g0"], c["g_ck"], c["omega_c"], c["omega_m"])
        targets = [0.0, beta, beta / 2.0] + list(
            rng.uniform(re_axis[0], re_axis[-1], 5) + 1j * rng.uniform(im_axis[0], im_axis[-1], 5))
        worst = 0.0
        for eta in targets:
            i = int(np.argmin(np.abs(re_axis - eta.real)))
            j = int(np.argmin(np.abs(im_axis - eta.imag)))
            eta = re_axis[i] + 1j * im_axis[j]
            d = expm(eta * b.T - np.conj(eta) * b)
            sandwich = d.conj().T @ rho @ d
            ref = (2.0 / np.pi) * float(np.sum(parity * np.diag(sandwich).real))
            worst = max(worst, abs(grid[i, j] - ref))
        out.append(_check("phase.parity_displacement", worst <= WIGNER_POINT_TOL,
                          f"{len(targets)} points, max |W - parity-displacement| = {worst:.1e}"))

        # the quadrature angle is arg(beta(t_s)) - pi/2 = -pi/2: the marginal
        # integrates Re(eta) out, P(q) at q = -sqrt(2) Im(eta)
        theta_q = float(np.angle(beta) - np.pi / 2.0)
        echoed = float(q_echo.get("theta", "nan"))
        marg_q = -np.sqrt(2.0) * im_axis
        marg_p = np.trapezoid(grid, re_axis, axis=0) / np.sqrt(2.0)
        inside = (marg_q >= x.min()) & (marg_q <= x.max())
        spline = CubicSpline(x, p)
        dev = float(np.abs(marg_p[inside] - spline(marg_q[inside])).max())
        ok = abs(theta_q + np.pi / 2.0) < 1e-9 and abs(echoed - theta_q) < 1e-8 and dev <= MARGINAL_TOL
        out.append(_check("phase.marginal_matches_quadrature", ok,
                          f"theta {echoed:.9f}, {inside.sum()} points, max dev {dev:.1e}"))
        return out


WORKLOADS = {cls.name: cls for cls in (Sweep, Map, CatOpen, PhaseSpace)}
