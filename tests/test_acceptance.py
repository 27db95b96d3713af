"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s`` to see them as they complete).

The expensive shared computations (the master-equation detuning sweep and the
dissipation-series evolutions) live in module-scoped fixtures.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from ckom.model import SystemParams, optimal_detuning, resonance_curve_g0, delta_m
from ckom.operators import HilbertSpec, build_h_sectors, propagator_factored
from ckom import blockade, catstate, quasiprob
from ckom.lindblad import evolve, make_lindblad, observables, steady_state
from ckom.cli import g2_grid, local_extrema, _nearest

BLOCKADE = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001, drive_amp=0.001)
BLOCKADE_SPEC = HilbertSpec(4, 30)
CAT = SystemParams(g0=1.2, g_ck=0.3, omega_c=100.0, gamma_m=0.01, kappa=0.1)
CAT_SPEC = HilbertSpec(2, 60)
T_S = np.pi / 0.7

TABLE_SINGLE = [0.594, -0.231, -1.056, -1.881, -2.706, -3.531]
TABLE_TWO_N = [0, 1, 2, 3, 5, 8]
TABLE_TWO = [1.508, 1.183, 0.858, 0.533, -0.117, -1.092]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def numeric_sweep():
    detunings = np.round(np.arange(-3.7, 1.7 + 1e-9, 0.005), 10)
    t0 = time.time()
    points = [BLOCKADE.replace(delta_c=float(dc)) for dc in detunings]
    results = g2_grid(points, BLOCKADE_SPEC, True, jobs=2)
    elapsed = time.time() - t0
    g2 = np.array([val for val, _err in results])
    errors = [err for _val, err in results if err]
    assert not errors, f"sweep points failed: {errors[:3]}"
    print(f"\n[steady-state sweep: {detunings.size} points in {elapsed:.0f} s]")
    return detunings, g2


@pytest.fixture(scope="module")
def dissipation_runs():
    """Conditioned states and fidelities at t_s for the dissipation series."""
    settings = [
        (0.01, 0.01, 0.0), (0.05, 0.01, 0.0), (0.1, 0.01, 0.0),
        (0.1, 0.05, 0.0), (0.1, 0.1, 0.0),
        (0.1, 0.01, 1.0), (0.1, 0.01, 3.0), (0.1, 0.01, 5.0),
        (0.5, 0.01, 0.0),
    ]
    out = {}
    for kappa, gamma, nbar in settings:
        p = CAT.replace(kappa=kappa, gamma_m=gamma, nbar_m=nbar)
        ls = make_lindblad(p, CAT_SPEC, frame="lab")
        dm = evolve(ls, catstate.initial_superposition_density(CAT_SPEC),
                    np.array([0.0, T_S]))[-1]
        conds = catstate.condition_open_system(dm, T_S)
        fids = {c.sign: catstate.fidelity_vs_target(c, T_S, p) for c in conds}
        probs = {c.sign: c.prob for c in conds}
        rho_plus = conds[0].rho_b
        out[(kappa, gamma, nbar)] = {"f": fids, "p": probs, "rho_plus": rho_plus}
    return out


class TestCriterion1:
    def test_predicted_detunings(self):
        singles = [optimal_detuning("single", n, BLOCKADE) for n in range(6)]
        twos = [optimal_detuning("two-photon", n, BLOCKADE) for n in TABLE_TWO_N]
        dev_s = np.abs(np.array(singles) - TABLE_SINGLE).max()
        dev_t = np.abs(np.array(twos) - TABLE_TWO).max()
        ok = dev_s <= 1e-3 and dev_t <= 1e-3
        assert report("1a (predicted detunings +-0.001)", ok,
                      f"max dev single {dev_s:.2e}, two-photon {dev_t:.2e}")

    def test_detected_extrema(self, numeric_sweep):
        detunings, g2 = numeric_sweep
        dips = local_extrema(detunings, g2, "min")
        peaks = local_extrema(detunings, g2, "max")
        lines = []
        worst = 0.0
        for ref in TABLE_SINGLE:
            off = _nearest(dips, ref) - ref
            worst = max(worst, abs(off))
            lines.append(f"dip {ref:+.3f}: offset {off:+.4f}")
        for ref in TABLE_TWO:
            off = _nearest(peaks, ref) - ref
            worst = max(worst, abs(off))
            lines.append(f"peak {ref:+.3f}: offset {off:+.4f}")
        detail = "; ".join(lines)
        ok = worst <= 0.02
        report("1b (detected dips/peaks +-0.02)", ok, f"worst {worst:.4f}")
        assert ok, (
            "detected g2 extrema vs predicted transition detunings:\n  "
            + "\n  ".join(lines)
            + "\nsee notes/decisions.md: the g2 dip next to the overlapping "
            "two-photon peak is pulled beyond the stated tolerance"
        )


class TestCriterion2:
    def test_propagator_equivalence(self):
        p = SystemParams(g0=1.2, g_ck=0.3, omega_c=0.0)
        spec = HilbertSpec(3, 60)
        times = np.linspace(0.0, 2.0 * np.pi / 0.7, 20)
        keep = 49  # n <= 48

        # oracle cutoff per the truncation-monotonicity bound 4 max(m|lam|)^2 + 20
        disp_max = max(
            m * abs(2.0 * p.g0 / (p.omega_m - m * p.g_ck)) for m in range(3)
        )
        n_oracle = int(4.0 * disp_max**2 + 20.0)
        big = HilbertSpec(3, n_oracle)
        # the Hamiltonian conserves a+a: its photon-number sectors
        eig_blocks = [sla.eigh(h_m) for h_m in build_h_sectors(big, p)]

        worst = 0.0
        worst_consistency = 0.0
        for t in times:
            u_small = propagator_factored(t, p, spec)
            u_check = propagator_factored(t, p, HilbertSpec(3, n_oracle))
            for m in range(3):
                blk = u_small[spec.block(m), spec.block(m)][:keep, :keep]
                blk_big = u_check[big.block(m), big.block(m)][:keep, :keep]
                worst_consistency = max(worst_consistency, np.abs(blk - blk_big).max())
                w, v = eig_blocks[m]
                u_oracle = (v[:keep, :] * np.exp(-1j * w * t)) @ v.conj().T[:, :keep]
                worst = max(worst, float(np.abs(blk - u_oracle).max()))
        # the compared factored entries do not depend on the cutoff
        assert worst_consistency < 1e-12
        ok = worst <= 1e-6
        assert report("2 (factored propagator vs expm, 1e-6)", ok,
                      f"max entry deviation {worst:.2e} over 20 times, "
                      f"oracle cutoff {n_oracle}")


class TestCriterion3:
    def test_product_identity_and_spr_value(self):
        # Lamb-Dicke g2 at the single- and two-photon resonances
        def g2_spr_tpr(p):
            return [blockade.photon_stats_lamb_dicke(p.replace(delta_c=dc)).g2
                    for dc in (delta_m(1, p), delta_m(2, p) / 2.0)]

        prods = []
        for g0, g_ck, kappa in [(0.7, 0.175, 0.1), (0.5, 0.1, 0.2), (1.2, 0.3, 0.05)]:
            spr, tpr = g2_spr_tpr(SystemParams(g0=g0, g_ck=g_ck, kappa=kappa))
            prods.append(spr * tpr)
        dev_prod = np.abs(np.array(prods) - 1.0).max()
        spr = g2_spr_tpr(BLOCKADE)[0]
        dev_spr = abs(spr - 0.0029853)
        ok = dev_prod <= 1e-12 and dev_spr <= 1e-6
        assert report("3a (spr*tpr = 1 to 1e-12; spr value +-1e-6)", ok,
                      f"product dev {dev_prod:.1e}, spr {spr:.7f}")

    def test_exact_converges_to_lamb_dicke(self):
        p = SystemParams(g0=0.02, g_ck=0.005, kappa=0.1, drive_amp=1e-4)
        from ckom.model import xi_m

        assert xi_m(2, p) < 0.1
        p = p.replace(delta_c=delta_m(1, p))
        exact = blockade.photon_stats_exact(p, HilbertSpec(4, 20)).g2
        approx = blockade.photon_stats_lamb_dicke(p).g2
        rel = abs(exact - approx) / approx
        ok = rel <= 0.05
        assert report("3b (exact vs Lamb-Dicke within 5% at xi<0.1)", ok,
                      f"relative difference {rel:.3%}")


class TestCriterion4:
    def test_locus_alignment(self):
        worst = 0.0
        for n in (1, 2, 3):
            for g_ck in (0.0, 0.1, 0.2):
                g0 = resonance_curve_g0(n, g_ck)
                p = SystemParams(g0=g0, g_ck=g_ck)
                gap = abs(
                    optimal_detuning("single", 0, p) - optimal_detuning("two-photon", n, p)
                )
                worst = max(worst, gap)
        exact_zero = max(abs(resonance_curve_g0(n, 0.0) - np.sqrt(n / 2.0)) for n in (1, 2, 3))
        ok = worst <= 1e-12 and exact_zero == 0.0
        assert report("4 (resonance locus, 1e-12 coincidence)", ok,
                      f"worst detuning gap {worst:.1e}, g_ck=0 exactness {exact_zero:.1e}")


class TestCriterion5:
    def test_closed_system_pipeline(self):
        p = CAT.replace(kappa=0.0, gamma_m=0.0, nbar_m=0.0)
        ls = make_lindblad(p, CAT_SPEC, frame="lab")
        t_grid = np.linspace(0.0, 2.0 * T_S, 15)
        states = evolve(ls, catstate.initial_superposition_density(CAT_SPEC), t_grid,
                        rtol=1e-10, atol=1e-12)
        worst_p = 0.0
        worst_f = 0.0
        worst_sum = 0.0
        for t, dm in zip(t_grid[1:], states[1:]):
            branches = catstate.condition_open_system(dm, t)
            p_plus, p_minus = (cond.prob for cond in branches)
            snap = catstate.cat_snapshot(t, p)
            worst_p = max(worst_p, abs(p_plus - snap.prob_plus),
                          abs(p_minus - snap.prob_minus))
            worst_sum = max(worst_sum, abs(p_plus + p_minus - 1.0))
            for cond in branches:
                worst_f = max(worst_f, abs(catstate.fidelity_vs_target(cond, t, p) - 1.0))
        beta, _ = catstate.beta_theta(T_S, p)
        beta_dev = abs(abs(beta) - 3.428571428571428)
        ok = (worst_p <= 1e-6 and worst_f <= 1e-6 and worst_sum <= 1e-8
              and beta_dev <= 1e-9 and abs(beta) > 3.0)
        assert report("5 (closed-limit conditioning, 1e-6)", ok,
                      f"worst dP {worst_p:.1e}, worst 1-F {worst_f:.1e}, "
                      f"P sum dev {worst_sum:.1e}, |beta(t_s)| dev {beta_dev:.1e}")


class TestCriterion6:
    def test_wigner_cross_validation(self):
        re_axis, im_axis = np.linspace(-2, 5, 141), np.linspace(-3.5, 3.5, 141)
        worst = 0.0
        for sign in ("plus", "minus"):
            analytic = quasiprob.wigner_cat_analytic(T_S, sign, CAT, re_axis, im_axis)
            vec = catstate.cat_state_vector(T_S, sign, CAT, CAT_SPEC.n_mech)
            numeric = quasiprob.wigner_numeric(np.outer(vec, vec.conj()), re_axis, im_axis)
            worst = max(worst, float(np.abs(analytic.values - numeric.values).max()))

        # normalization judged on a grid covering the state plus five widths
        wide_re, wide_im = np.linspace(-3.0, 6.5, 191), np.linspace(-3.0, 3.0, 121)
        wide = quasiprob.wigner_cat_analytic(T_S, "plus", CAT, wide_re, wide_im)
        norm_dev = abs(np.trapezoid(np.trapezoid(wide.values, wide_im, axis=1), wide_re) - 1.0)

        vec = catstate.cat_state_vector(T_S, "plus", CAT, CAT_SPEC.n_mech)
        rho_cat = np.outer(vec, vec.conj())
        rho_vac = np.zeros((40, 40), dtype=complex)
        rho_vac[0, 0] = 1.0
        alpha_vec = catstate.coherent_coefficients(1.1 - 0.7j, 40)
        rho_coh = np.outer(alpha_vec, alpha_vec.conj())
        theta = 0.55
        x_axis = np.linspace(-2.5, 4.0, 27)
        worst_marg = 0.0
        for rho in (rho_vac, rho_coh, rho_cat):
            marg = quasiprob.wigner_marginal(rho, theta, x_axis, v_half_width=5.5, n_v=221)
            quad = quasiprob.quadrature_dist_numeric(rho, theta, x_axis)
            worst_marg = max(worst_marg, float(np.abs(marg.values - quad.values).max()))

        ok = worst <= 1e-6 and norm_dev <= 1e-4 and worst_marg <= 1e-3
        assert report("6 (Wigner cross-validation)", ok,
                      f"analytic-numeric max dev {worst:.1e}, integral dev {norm_dev:.1e}, "
                      f"marginal dev {worst_marg:.1e}")


class TestCriterion7:
    def test_fidelity_orderings(self, dissipation_runs):
        runs = dissipation_runs
        series = {
            "kappa": [(0.01, 0.01, 0.0), (0.05, 0.01, 0.0), (0.1, 0.01, 0.0)],
            "gamma": [(0.1, 0.01, 0.0), (0.1, 0.05, 0.0), (0.1, 0.1, 0.0)],
            "nbar": [(0.1, 0.01, 1.0), (0.1, 0.01, 3.0), (0.1, 0.01, 5.0)],
        }
        ok = True
        details = []
        for label, keys in series.items():
            for sign in ("plus", "minus"):
                fids = [runs[k]["f"][sign] for k in keys]
                mono = all(b < a for a, b in zip(fids, fids[1:]))
                ok = ok and mono
                details.append(f"{label}/{sign}: " + ">".join(f"{f:.4f}" for f in fids))
        assert report("7a (fidelity strictly decreasing)", ok, "; ".join(details))

    def test_probabilities_insensitive(self, dissipation_runs):
        runs = dissipation_runs
        keys = [k for k in runs if k != (0.5, 0.01, 0.0)]
        spread_plus = np.ptp([runs[k]["p"]["plus"] for k in keys])
        spread_minus = np.ptp([runs[k]["p"]["minus"] for k in keys])
        ok = spread_plus < 0.02 and spread_minus < 0.02
        assert report("7b (P(t_s) spread < 0.02)", ok,
                      f"spread plus {spread_plus:.4f}, minus {spread_minus:.4f}")

    def test_fringe_and_oscillation_contrast(self, dissipation_runs):
        runs = dissipation_runs
        beta, _ = catstate.beta_theta(T_S, CAT)
        midline = abs(beta) / 2.0 + 1j * np.linspace(-1.2, 1.2, 121)
        theta0 = float(np.angle(beta) - np.pi / 2.0)
        x_axis = np.linspace(-3.0, 3.0, 301)
        contrasts = []
        oscillations = []
        for kappa in (0.01, 0.1, 0.5):
            rho = runs[(kappa, 0.01, 0.0)]["rho_plus"]
            w = quasiprob.wigner_numeric_points(rho, midline)
            contrasts.append(float(w.max() - w.min()))
            quad = quasiprob.quadrature_dist_numeric(rho, theta0, x_axis)
            oscillations.append(float(np.sum(np.abs(np.diff(quad.values)))))
        ok = (all(b < a for a, b in zip(contrasts, contrasts[1:]))
              and all(b < a for a, b in zip(oscillations, oscillations[1:])))
        assert report("7c (fringe contrast and oscillation decrease with kappa)", ok,
                      f"contrasts {contrasts}, oscillation TV {oscillations}")


class TestCriterion8:
    def test_analytic_numeric_factor_at_dips(self):
        # n_mech = 45, not the sweep's 30: the deepest dip coincides with a
        # two-photon resonance into a 13-phonon displaced state whose support
        # reaches ~33 levels, and the master-equation p2 is only converged
        # once that state fits (30 -> 45 moves p2 by 3x; 45 -> 60 by < 1e-6)
        spec = HilbertSpec(4, 45)
        worst_ratio = 1.0
        ratios = []
        for n in range(6):
            p = BLOCKADE.replace(delta_c=optimal_detuning("single", n, BLOCKADE))
            ls = make_lindblad(p, spec, frame="rotating")
            numeric = observables(steady_state(ls, method="ladder"))["g2"]
            analytic = blockade.photon_stats_exact(p, spec).g2
            ratio = max(numeric / analytic, analytic / numeric)
            ratios.append(f"d{n}:{ratio:.3f}")
            worst_ratio = max(worst_ratio, ratio)
        ok = worst_ratio < 1.5
        assert report("8 (analytic/numeric within factor 1.5 at the six dips)", ok,
                      f"ratios {', '.join(ratios)}")
