"""Cat-state snapshots, the propagator consistency check, and open-system
conditioning with fidelities."""

import numpy as np
import pytest

from ckom.model import SystemParams
from ckom.operators import HilbertSpec, propagator_factored
from ckom import catstate, quasiprob
from ckom.lindblad import make_lindblad, evolve
from ckom.errors import DegenerateBranch, TruncationLoss

CAT = SystemParams(g0=1.2, g_ck=0.3, omega_c=100.0)
T_S = np.pi / 0.7


def paper_norms(t, params):
    """N_pm = (4 P_pm)^{-1/2} from the paper's P_pm = (1 +/- cos(theta) e^{-|beta|^2/2}) / 2."""
    beta, theta = catstate.beta_theta(t, params)
    overlap = np.cos(theta) * np.exp(-0.5 * abs(beta) ** 2)
    return (2.0 * (1.0 + overlap)) ** -0.5, (2.0 * (1.0 - overlap)) ** -0.5


class TestBetaTheta:
    def test_zero_time(self):
        beta, theta = catstate.beta_theta(0.0, CAT)
        assert beta == 0.0 and theta == 0.0

    def test_maximal_displacement(self):
        beta, _ = catstate.beta_theta(T_S, CAT)
        assert np.isclose(abs(beta), 2.0 * 1.2 / 0.7, rtol=1e-12)
        assert abs(beta) > 3.0

    def test_full_revival(self):
        beta, _ = catstate.beta_theta(2.0 * T_S, CAT)
        assert abs(beta) < 1e-12

    def test_periodicity_of_magnitude(self):
        period = 2.0 * np.pi / 0.7
        for t in (0.6, 1.9, 3.4):
            b1, _ = catstate.beta_theta(t, CAT)
            b2, _ = catstate.beta_theta(t + period, CAT)
            assert np.isclose(abs(b1), abs(b2), atol=1e-12)

    def test_displacement_grows_with_cross_kerr(self):
        betas = [
            abs(catstate.beta_theta(catstate.detection_time(p), p)[0])
            for p in (
                SystemParams(g0=1.2, g_ck=0.0),
                SystemParams(g0=1.2, g_ck=0.2),
                SystemParams(g0=1.2, g_ck=0.4),
                SystemParams(g0=1.2, g_ck=0.6),
            )
        ]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))

    def test_detection_time(self):
        assert np.isclose(catstate.detection_time(CAT), T_S, rtol=1e-14)


class TestSnapshot:
    def test_initial_state_detects_plus(self):
        snap = catstate.cat_snapshot(0.0, CAT)
        assert snap.prob_plus == 1.0 and snap.prob_minus == 0.0

    def test_degenerate_branch_raises_when_required(self):
        # the ideal minus branch has no state at t = 0, on every closed-form route
        calls = (
            lambda sign, t: catstate.cat_state_vector(t, sign, CAT, 20),
            lambda sign, t: quasiprob.wigner_cat_analytic(t, sign, CAT, np.zeros(1), np.zeros(1)),
            lambda sign, t: quasiprob.quadrature_dist_cat(t, sign, 0.0, CAT, np.zeros(1)),
        )
        for call in calls:
            with pytest.raises(DegenerateBranch):
                call("minus", 0.0)
            with pytest.raises(ValueError):
                call("plu", T_S)

    def test_probabilities_sum_to_one(self):
        for t in np.linspace(0.0, 2.0 * T_S, 17):
            snap = catstate.cat_snapshot(t, CAT)
            assert np.isclose(snap.prob_plus + snap.prob_minus, 1.0, rtol=1e-14)

    def test_norm_probability_identity(self):
        # P_pm = 1/(4 N_pm^2) wherever the branch is nondegenerate: the
        # vector is N_pm (|0> +/- e^{i theta} |beta>) with the paper's N_pm
        for t in (0.4, 1.1, T_S, 5.5):
            snap = catstate.cat_snapshot(t, CAT)
            coherent = catstate.coherent_coefficients(snap.beta, 60)
            norm_plus, norm_minus = paper_norms(t, CAT)
            for sign, s, prob, norm in (("plus", 1.0, snap.prob_plus, norm_plus),
                                        ("minus", -1.0, snap.prob_minus, norm_minus)):
                assert np.isclose(prob, 0.25 / norm**2, rtol=1e-12)
                raw = s * np.exp(1j * snap.theta) * coherent
                raw[0] += 1.0
                vec = catstate.cat_state_vector(t, sign, CAT, 60)
                assert np.abs(vec - norm * raw).max() < 1e-12

    def test_balanced_at_detection_time(self):
        snap = catstate.cat_snapshot(T_S, CAT)
        assert abs(snap.prob_plus - 0.5) < 3e-3
        assert abs(snap.prob_minus - 0.5) < 3e-3


class TestCatVector:
    def test_plus_branch_at_zero_time_is_vacuum(self):
        vec = catstate.cat_state_vector(0.0, "plus", CAT, 20)
        assert np.isclose(vec[0], 1.0, rtol=1e-12)
        assert np.abs(vec[1:]).max() < 1e-15

    def test_normalized(self):
        for sign in ("plus", "minus"):
            vec = catstate.cat_state_vector(T_S, sign, CAT, 60)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-10

    def test_branch_overlap_against_direct_inner_product(self):
        # <Phi+|Phi-> = -2i N+ N- sin(theta) e^{-|beta|^2/2}
        for t in (0.9, 2.2, T_S):
            vp = catstate.cat_state_vector(t, "plus", CAT, 60)
            vm = catstate.cat_state_vector(t, "minus", CAT, 60)
            beta, theta = catstate.beta_theta(t, CAT)
            norm_plus, norm_minus = paper_norms(t, CAT)
            expected = (
                -2j
                * norm_plus
                * norm_minus
                * np.sin(theta)
                * np.exp(-0.5 * abs(beta) ** 2)
            )
            assert np.isclose(np.vdot(vp, vm), expected, rtol=0, atol=1e-10)

    def test_truncation_guard(self):
        with pytest.raises(TruncationLoss):
            catstate.cat_state_vector(T_S, "plus", CAT, 14)

    def test_coherent_coefficients_match_factorials(self):
        beta = 1.3 - 0.4j
        coeff = catstate.coherent_coefficients(beta, 12)
        from math import factorial

        for n in range(12):
            ref = beta**n * np.exp(-0.5 * abs(beta) ** 2) / np.sqrt(factorial(n))
            assert np.isclose(coeff[n], ref, rtol=1e-12)


def closed_evolution(t, params, spec):
    """Factored propagator applied to (|0>_a + |1>_a)|0>_b / sqrt(2), against
    the analytic branch form [|0,0> + e^{i theta} |1>|beta>] / sqrt(2):
    returns the largest coefficient deviation and the one-photon norm."""
    psi0 = np.zeros(spec.dim, dtype=complex)
    psi0[[spec.index(0, 0), spec.index(1, 0)]] = 1.0 / np.sqrt(2.0)
    evolved = propagator_factored(t, params, spec) @ psi0
    snap = catstate.cat_snapshot(t, params)
    expected = np.zeros(spec.dim, dtype=complex)
    expected[spec.index(0, 0)] = 1.0 / np.sqrt(2.0)
    expected[spec.block(1)] = (np.exp(1j * snap.theta) / np.sqrt(2.0)
                               * catstate.coherent_coefficients(snap.beta, spec.n_mech))
    return np.abs(evolved - expected).max(), np.linalg.norm(evolved[spec.block(1)])


class TestClosedEvolution:
    def test_identity_at_zero_time(self):
        deviation, _ = closed_evolution(0.0, CAT, HilbertSpec(2, 30))
        assert deviation < 1e-14

    def test_at_detection_time(self):
        deviation, _ = closed_evolution(T_S, CAT, HilbertSpec(2, 60))
        assert deviation < 1e-8

    def test_single_photon_branch_weight_conserved(self):
        for t in (0.7, 2.9, T_S):
            _, one_photon_norm = closed_evolution(t, CAT, HilbertSpec(2, 60))
            assert abs(one_photon_norm - 1.0 / np.sqrt(2.0)) < 1e-9


class TestConditioning:
    @pytest.fixture(scope="class")
    def closed_run(self):
        spec = HilbertSpec(2, 60)
        p = CAT.replace(kappa=0.0, gamma_m=0.0)
        ls = make_lindblad(p, spec, frame="lab")
        t_grid = np.linspace(0.0, 2.0 * T_S, 9)
        states = evolve(ls, catstate.initial_superposition_density(spec), t_grid,
                        rtol=1e-10, atol=1e-12)
        return p, t_grid[1:], states[1:]

    def test_closed_probabilities_match_analytics(self, closed_run):
        p, t_grid, states = closed_run
        for t, dm in zip(t_grid, states):
            p_plus, p_minus = (cond.prob for cond in catstate.condition_open_system(dm, t))
            snap = catstate.cat_snapshot(t, p)
            assert abs(p_plus - snap.prob_plus) < 1e-6
            assert abs(p_minus - snap.prob_minus) < 1e-6
            assert np.isclose(p_plus + p_minus, 1.0, atol=1e-8)

    def test_closed_fidelity_is_unity(self, closed_run):
        p, t_grid, states = closed_run
        for t, dm in zip(t_grid, states):
            for cond in catstate.condition_open_system(dm, t):
                fid = catstate.fidelity_vs_target(cond, t, p)
                assert abs(fid - 1.0) < 1e-6

    def test_probabilities_sum_to_one_any_state(self, closed_run):
        _p, t_grid, states = closed_run
        for dm in states:
            p_plus, p_minus = (cond.prob for cond in catstate.condition_open_system(dm))
            assert np.isclose(p_plus + p_minus, 1.0, atol=1e-8)

    def test_degenerate_branch_at_zero_time(self):
        # the minus branch has no state at t = 0; the plus branch is the vacuum
        spec = HilbertSpec(2, 10)
        dm = catstate.initial_superposition_density(spec)
        plus, minus = catstate.condition_open_system(dm, 0.0)
        assert (plus.sign, minus.sign, minus.prob) == ("plus", "minus", 0.0)
        assert np.isclose(plus.prob, 1.0, rtol=1e-15)
        assert np.isclose(catstate.fidelity_vs_target(plus, 0.0, CAT), 1.0, rtol=1e-15)
        with pytest.raises(DegenerateBranch):
            minus.rho_b
        with pytest.raises(DegenerateBranch):
            catstate.fidelity_vs_target(minus, 0.0, CAT)

    def test_fidelity_closed_form_equals_direct_contraction(self):
        spec = HilbertSpec(2, 60)
        p = CAT.replace(kappa=0.05, gamma_m=0.01)
        ls = make_lindblad(p, spec, frame="lab")
        dm = evolve(ls, catstate.initial_superposition_density(spec), np.array([0.0, T_S]))[-1]
        for cond in catstate.condition_open_system(dm, T_S):
            fid = catstate.fidelity_vs_target(cond, T_S, p)
            vec = catstate.cat_state_vector(T_S, cond.sign, p, spec.n_mech)
            direct = np.real(vec.conj() @ cond.rho_b @ vec)
            assert np.isclose(fid, direct, rtol=1e-10)
            assert 0.0 <= fid <= 1.0 + 1e-12

    def test_fidelity_decreases_with_cavity_decay(self):
        spec = HilbertSpec(2, 60)
        fids = []
        for kappa in (0.01, 0.1):
            p = CAT.replace(kappa=kappa, gamma_m=0.01)
            ls = make_lindblad(p, spec, frame="lab")
            dm = evolve(ls, catstate.initial_superposition_density(spec),
                        np.array([0.0, T_S]))[-1]
            cond = catstate.condition_open_system(dm, T_S)[0]
            fids.append(catstate.fidelity_vs_target(cond, T_S, p))
        assert fids[1] < fids[0] <= 1.0
