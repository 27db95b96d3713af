"""Phase-space distributions: analytic vs Fock-basis numeric cross-checks,
normalization, bounds, and the tomographic marginal identity."""

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings, strategies as st

from ckom.model import SystemParams
from ckom import catstate, quasiprob
from ckom.specfun import displacement_matrix, log_factorial
from ckom.errors import TruncationLoss

CAT = SystemParams(g0=1.2, g_ck=0.3, omega_c=100.0)
T_S = np.pi / 0.7


def coherent_density(alpha, dim):
    vec = catstate.coherent_coefficients(alpha, dim)
    return np.outer(vec, vec.conj())


def thermal_density(nbar, dim):
    weights = (nbar / (1.0 + nbar)) ** np.arange(dim) / (1.0 + nbar)
    return np.diag(weights / weights.sum()).astype(complex)


class TestOscillatorTable:
    def test_matches_hermite_form(self):
        x = np.linspace(-2.5, 2.5, 11)
        table = quasiprob.oscillator_table(x, 14)
        for n in (0, 1, 5, 13):
            ref = (
                scipy.special.eval_hermite(n, x)
                * np.exp(-0.5 * x**2)
                / np.sqrt(np.sqrt(np.pi) * 2.0**n * np.exp(log_factorial(n)))
            )
            assert np.allclose(table[n], ref, rtol=1e-10, atol=1e-14)

    def test_orthonormal(self):
        x = np.linspace(-12.0, 12.0, 3001)
        table = quasiprob.oscillator_table(x, 12)
        gram = np.trapezoid(table[:, None, :] * table[None, :, :], x, axis=2)
        assert np.abs(gram - np.eye(12)).max() < 1e-7


class TestWignerAnalytic:
    def test_vacuum_peak_value(self):
        p = CAT
        grid = quasiprob.wigner_cat_analytic(0.0, "plus", p,
                                             np.linspace(-3, 3, 61), np.linspace(-3, 3, 61))
        assert np.isclose(grid.values.max(), 2.0 / np.pi, rtol=1e-10)
        assert np.isclose(grid.values[30, 30], 0.6366198, atol=1e-7)

    def test_normalization_on_wide_grid(self):
        re = np.linspace(-3.0, 6.5, 191)
        im = np.linspace(-3.0, 3.0, 121)
        for sign in ("plus", "minus"):
            grid = quasiprob.wigner_cat_analytic(T_S, sign, CAT, re, im)
            integral = np.trapezoid(np.trapezoid(grid.values, im, axis=1), re)
            assert abs(integral - 1.0) < 1e-4

    def test_two_peaks_and_interference(self):
        beta, _ = catstate.beta_theta(T_S, CAT)
        re = np.linspace(-1.5, 5.0, 261)
        grid = quasiprob.wigner_cat_analytic(T_S, "plus", CAT, re, np.array([0.0]))
        vals = grid.values[:, 0]
        peaks = [re[i] for i in range(1, len(vals) - 1)
                 if vals[i] > vals[i - 1] and vals[i] > vals[i + 1] and vals[i] > 0.2]
        assert any(abs(pk) < 0.06 for pk in peaks)
        assert any(abs(pk - abs(beta)) < 0.06 for pk in peaks)
        # fringes oscillate perpendicular to the peak separation: scan the
        # midline between the peaks and require genuine negativity
        im = np.linspace(-1.2, 1.2, 241)
        mid = quasiprob.wigner_cat_analytic(
            T_S, "plus", CAT, np.array([abs(beta) / 2.0]), im
        ).values[0]
        assert mid.min() < -0.1
        assert mid.max() > 0.1

    def test_bounded_by_two_over_pi(self):
        re = np.linspace(-2.0, 5.0, 71)
        im = np.linspace(-3.5, 3.5, 71)
        for sign in ("plus", "minus"):
            grid = quasiprob.wigner_cat_analytic(T_S, sign, CAT, re, im)
            assert np.abs(grid.values).max() <= 2.0 / np.pi + 1e-6


class TestWignerNumeric:
    def test_vacuum_matches_analytic(self):
        rho = np.zeros((30, 30), dtype=complex)
        rho[0, 0] = 1.0
        re = np.linspace(-2.0, 2.0, 21)
        im = np.linspace(-2.0, 2.0, 21)
        numeric = quasiprob.wigner_numeric(rho, re, im)
        analytic = quasiprob.wigner_cat_analytic(0.0, "plus", CAT, re, im)
        assert np.abs(numeric.values - analytic.values).max() < 1e-8

    def test_pure_cat_matches_analytic(self):
        vec = catstate.cat_state_vector(T_S, "plus", CAT, 60)
        rho = np.outer(vec, vec.conj())
        re = np.linspace(-1.0, 4.5, 23)
        im = np.linspace(-2.0, 2.0, 17)
        numeric = quasiprob.wigner_numeric(rho, re, im)
        analytic = quasiprob.wigner_cat_analytic(T_S, "plus", CAT, re, im)
        assert np.abs(numeric.values - analytic.values).max() < 1e-6

    def test_reduction_matches_literal_parity_sandwich(self):
        # oracle: the unreduced double sum (2/pi) sum_l (-1)^l <l|D+ rho D|l>,
        # evaluated with enough headroom above the state's support; also checks
        # the trace stays real for Hermitian input
        vec = catstate.cat_state_vector(T_S, "minus", CAT, 60)
        dim = 140
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:60, :60] = np.outer(vec, vec.conj())
        signs = (-1.0) ** np.arange(dim)
        for eta in (0.3 + 0.2j, 1.7 - 0.9j, 3.4 + 0.0j):
            disp = displacement_matrix(eta, dim)
            val = (2.0 / np.pi) * np.sum(signs * np.einsum("jl,jl->l", disp.conj(), rho @ disp))
            assert abs(val.imag) < 1e-10
            reduced = quasiprob.wigner_numeric_points(rho, np.array([eta]))[0]
            assert np.isclose(reduced, val.real, rtol=0, atol=1e-9)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(support=st.integers(1, 12), headroom=st.integers(10, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_grid_form_matches_per_point_trace(self, support, headroom, seed):
        # oracle: (2/pi) Tr[diag((-1)^j) rho D(2 eta)] one point at a time, for
        # a random Hermitian rho well inside the cutoff, at eta = 0, on the
        # circle |eta| = 8.5 (about the far corner of perfbench's phase-space
        # grid) and at random points inside it
        rng = np.random.default_rng(seed)
        dim = support + headroom
        a = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:support, :support] = (a + a.conj().T) / 2.0
        radius = 8.5 * np.concatenate([[0.0, 1.0], np.sqrt(rng.uniform(size=30))])
        eta = radius * np.exp(2j * np.pi * rng.uniform(size=radius.size))
        signs = ((-1.0) ** np.arange(dim))[:, None]
        oracle = [(2.0 / np.pi) * np.einsum("jl,lj->", signs * rho,
                                            displacement_matrix(2.0 * point, dim)).real
                  for point in eta]
        grid = quasiprob.wigner_numeric_points(rho, eta)
        assert np.abs(grid - oracle).max() < 1e-12

    def test_non_hermitian_input_is_caught(self):
        # only rho_{0,1} set: the trace picks it up through the upper side of
        # the first diagonal, with nothing on the lower side to cancel it
        rho = np.zeros((20, 20), dtype=complex)
        rho[0, 0] = rho[1, 1] = 0.5
        rho[0, 1] = 0.3
        with pytest.raises(TruncationLoss, match="imaginary part"):
            quasiprob.wigner_numeric(rho, np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))

    def test_truncation_guard(self):
        rho = thermal_density(8.0, 12)  # heavy tail at a tiny cutoff
        with pytest.raises(TruncationLoss):
            quasiprob.wigner_numeric(rho, np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))


class TestQuadrature:
    def test_vacuum_distribution(self):
        p = CAT
        x = np.linspace(-4.0, 4.0, 161)
        grid = quasiprob.quadrature_dist_cat(0.0, "plus", 0.3, p, x)
        ref = np.exp(-(x**2)) / np.sqrt(np.pi)
        assert np.abs(grid.values - ref).max() < 1e-12
        assert np.isclose(grid.values[80], 0.5641896, atol=1e-7)

    def test_normalization(self):
        x = np.linspace(-6.0, 9.0, 1501)
        beta, _ = catstate.beta_theta(T_S, CAT)
        theta0 = float(np.angle(beta) - np.pi / 2.0)
        for sign in ("plus", "minus"):
            grid = quasiprob.quadrature_dist_cat(T_S, sign, theta0, CAT, x)
            assert abs(np.trapezoid(grid.values, x) - 1.0) < 1e-4

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 12.0), theta=st.floats(-np.pi, np.pi),
           sign=st.sampled_from(["plus", "minus"]), g0=st.floats(0.1, 1.5),
           g_ck=st.floats(0.0, 0.4))
    def test_numeric_matches_cat_closed_form(self, t, theta, sign, g0, g_ck):
        # the closed form from coherent wavefunctions against the Fock sum of
        # the same branch; |beta| <= 2 g0 / (omega_m - g_ck) = 5, so 120
        # levels hold it far below double precision. A nearly degenerate
        # branch (P < 1e-3) would amplify roundoff by N^2 and is left out.
        p = SystemParams(g0=g0, g_ck=g_ck, omega_c=1000.0)
        snap = catstate.cat_snapshot(t, p)
        assume((snap.prob_plus if sign == "plus" else snap.prob_minus) > 1e-3)
        vec = catstate.cat_state_vector(t, sign, p, 120)
        x = np.linspace(-9.0, 9.0, 181)
        numeric = quasiprob.quadrature_dist_numeric(np.outer(vec, vec.conj()), theta, x)
        closed = quasiprob.quadrature_dist_cat(t, sign, theta, p, x)
        assert np.abs(numeric.values - closed.values).max() < 1e-12

    def test_thermal_state_is_theta_independent_gaussian(self):
        nbar = 1.0
        rho = thermal_density(nbar, 40)
        x = np.linspace(-5.0, 5.0, 401)
        grids = [quasiprob.quadrature_dist_numeric(rho, th, x) for th in (0.0, 0.9, 2.2)]
        var = nbar + 0.5
        ref = np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        for grid in grids:
            assert np.abs(grid.values - ref).max() < 1e-8

    def test_theta_periodicity(self):
        vec = catstate.cat_state_vector(T_S, "plus", CAT, 60)
        rho = np.outer(vec, vec.conj())
        x = np.linspace(-2.0, 4.0, 101)
        a = quasiprob.quadrature_dist_numeric(rho, 0.7, x)
        b = quasiprob.quadrature_dist_numeric(rho, 0.7 + 2.0 * np.pi, x)
        assert np.abs(a.values - b.values).max() < 1e-12

    def test_fringes_strengthen_with_cross_kerr(self):
        x = np.linspace(-3.0, 3.0, 301)
        amplitudes = []
        for g_ck in (0.0, 0.3):
            p = SystemParams(g0=1.2, g_ck=g_ck, omega_c=1000.0)
            t_s = catstate.detection_time(p)
            beta, _ = catstate.beta_theta(t_s, p)
            theta0 = float(np.angle(beta) - np.pi / 2.0)
            grid = quasiprob.quadrature_dist_cat(t_s, "plus", theta0, p, x)
            amplitudes.append(np.sum(np.abs(np.diff(grid.values))))
        assert amplitudes[1] > amplitudes[0]


class TestMarginalIdentity:
    @pytest.mark.parametrize(
        "rho_builder,label",
        [
            (lambda: np.diag([1.0] + [0.0] * 39).astype(complex), "vacuum"),
            (lambda: coherent_density(1.1 - 0.7j, 40), "coherent"),
            (
                lambda: np.outer(
                    catstate.cat_state_vector(T_S, "plus", CAT, 60),
                    catstate.cat_state_vector(T_S, "plus", CAT, 60).conj(),
                ),
                "cat",
            ),
        ],
    )
    def test_wigner_marginal_matches_quadrature(self, rho_builder, label):
        rho = rho_builder()
        theta = 0.55
        x = np.linspace(-2.5, 4.0, 27)
        marg = quasiprob.wigner_marginal(rho, theta, x, v_half_width=5.5, n_v=221)
        quad = quasiprob.quadrature_dist_numeric(rho, theta, x)
        assert np.abs(marg.values - quad.values).max() < 1e-3
