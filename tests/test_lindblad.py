"""Master-equation machinery: generator structure, integration quality,
steady-state solvers (all three methods against each other), observables."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from ckom.model import SystemParams
from ckom.operators import HilbertSpec, build_h_driven, build_mode_operators, expm
from ckom import lindblad
from ckom.lindblad import (
    DensityMatrix,
    apply_liouvillian,
    evolve,
    make_lindblad,
    observables,
    steady_state,
    vacuum_density,
)
from ckom.errors import NonConvergence, ZeroPhotonNumber


def fock_density(spec, m, n):
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[spec.index(m, n), spec.index(m, n)] = 1.0
    return DensityMatrix(spec, rho)


class TestLiouvillian:
    def test_vacuum_is_fixed_point_without_drive(self):
        spec = HilbertSpec(3, 5)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.2, gamma_m=0.01, delta_c=0.7)
        ls = make_lindblad(p, spec, frame="rotating")
        drho = apply_liouvillian(ls, vacuum_density(spec))
        assert np.abs(drho).max() < 1e-14

    def test_trace_is_conserved(self):
        spec = HilbertSpec(3, 6)
        p = SystemParams(g0=0.4, g_ck=0.1, kappa=0.15, gamma_m=0.02, nbar_m=0.4,
                         drive_amp=0.03, delta_c=-0.2)
        ls = make_lindblad(p, spec, frame="rotating")
        # deterministic dense test state
        base = np.arange(spec.dim, dtype=float)
        rho = np.outer(np.exp(-0.1 * base), np.exp(-0.1 * base)) + 0.3j * (
            np.outer(base, base**2) - np.outer(base**2, base)
        ) / spec.dim**3
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        drho = apply_liouvillian(ls, rho)
        assert abs(np.trace(drho)) < 1e-14

    def test_cavity_population_decay_rate(self):
        spec = HilbertSpec(3, 4)
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=0.37)
        ls = make_lindblad(p, spec, frame="rotating")
        drho = apply_liouvillian(ls, fock_density(spec, 1, 0))
        ddt_n = np.trace(
            build_mode_operators(spec).n_a @ drho
        ).real
        assert np.isclose(ddt_n, -0.37, rtol=1e-12)

    def test_rates_recorded_by_name(self):
        spec = HilbertSpec(2, 4)
        p = SystemParams(kappa=0.3, gamma_m=0.02, nbar_m=0.5)
        ls = make_lindblad(p, spec, frame="rotating")
        assert (ls.kappa, ls.gamma_down, ls.gamma_up) == (0.3, 0.02 * 1.5, 0.02 * 0.5)
        assert [rate for _o, rate in ls.channels] == [ls.kappa, ls.gamma_down, ls.gamma_up]

    def test_dimension_mismatch(self):
        spec = HilbertSpec(3, 4)
        ls = make_lindblad(SystemParams(kappa=0.1), spec, frame="rotating")
        with pytest.raises(ValueError):
            apply_liouvillian(ls, np.eye(5))


class TestEvolve:
    def test_unitary_limit_matches_expm(self):
        spec = HilbertSpec(2, 14)
        p = SystemParams(g0=0.5, g_ck=0.1, kappa=0.0, gamma_m=0.0, drive_amp=0.02,
                         delta_c=0.3)
        ls = make_lindblad(p, spec, frame="rotating")
        psi0 = np.zeros(spec.dim, dtype=complex)
        psi0[spec.index(0, 0)] = 1.0
        rho0 = DensityMatrix(spec, np.outer(psi0, psi0.conj()))
        t = 4.0
        rho_t = evolve(ls, rho0, np.array([0.0, t]))[-1].rho
        u = expm(build_h_driven(spec, p), -1j * t).matrix
        psi_t = u @ psi0
        fidelity = np.real(psi_t.conj() @ rho_t @ psi_t)
        assert fidelity >= 1.0 - 1e-8

    def test_pure_cavity_decay_curve(self):
        spec = HilbertSpec(3, 3)
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=0.25)
        ls = make_lindblad(p, spec, frame="rotating")
        t_grid = np.linspace(0.0, 8.0, 9)
        states = evolve(ls, fock_density(spec, 1, 0), t_grid)
        n_a = build_mode_operators(spec).n_a
        pops = [np.trace(n_a @ dm.rho).real for dm in states]
        assert np.allclose(pops, np.exp(-0.25 * t_grid), atol=1e-7)

    def test_trace_hermiticity_positivity_along_trajectory(self):
        spec = HilbertSpec(2, 8)
        p = SystemParams(g0=0.6, g_ck=0.15, kappa=0.1, gamma_m=0.02, nbar_m=0.5,
                         drive_amp=0.01, delta_c=0.2)
        ls = make_lindblad(p, spec, frame="rotating")
        t_grid = np.linspace(0.0, 100.0, 11)
        states = evolve(ls, vacuum_density(spec), t_grid)
        for dm in states:
            assert abs(np.trace(dm.rho).real - 1.0) < 1e-8
            assert np.abs(dm.rho - dm.rho.conj().T).max() < 1e-10
            assert sla.eigvalsh(dm.rho).min() >= -1e-8


class TestSteadyState:
    def test_vacuum_without_drive(self):
        spec = HilbertSpec(3, 5)
        p = SystemParams(g0=0.4, g_ck=0.1, kappa=0.2, gamma_m=0.01, delta_c=0.3)
        for method in ("evolve", "direct", "ladder"):
            rho = steady_state(make_lindblad(p, spec, frame="rotating"), method=method)
            assert abs(rho.rho[0, 0].real - 1.0) < 1e-8

    def test_degenerate_drive_free_case(self):
        # without drive and mechanical damping the 0-photon sector is
        # dissipation-free: the direct solve must refuse, the other methods
        # still land on the vacuum they start from
        spec = HilbertSpec(3, 5)
        p = SystemParams(g0=0.4, g_ck=0.1, kappa=0.2, gamma_m=0.0, delta_c=0.3)
        ls = make_lindblad(p, spec, frame="rotating")
        with pytest.raises(NonConvergence):
            steady_state(ls, method="direct")
        for method in ("evolve", "ladder"):
            rho = steady_state(ls, method=method)
            assert abs(rho.rho[0, 0].real - 1.0) < 1e-8

    def test_thermal_mechanical_occupation(self):
        spec = HilbertSpec(2, 24)
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=0.2, gamma_m=0.05, nbar_m=0.7)
        for method in ("direct", "ladder"):
            ls = make_lindblad(p, spec, frame="rotating")
            rho = steady_state(ls, method=method)
            n_b = build_mode_operators(spec).n_b
            assert abs(np.trace(n_b @ rho.rho).real - 0.7) < 1e-6

    def test_methods_agree_at_blockade_parameters(self):
        spec = HilbertSpec(3, 12)
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001,
                         drive_amp=0.001, delta_c=0.594)
        ls = make_lindblad(p, spec, frame="rotating")
        direct = steady_state(ls, method="direct")
        ladder = steady_state(ls, method="ladder")
        assert np.abs(direct.rho - ladder.rho).max() < 1e-12
        for dm in (direct, ladder):
            assert np.abs(apply_liouvillian(ls, dm)).max() < 1e-9
            assert abs(np.trace(dm.rho).real - 1.0) < 1e-12

    @pytest.mark.parametrize("delta_c", [-2.0, 0.0])
    def test_ladder_g2_matches_direct_at_blockade_physics(self, delta_c):
        # the paper's 4 x 30 blockade model; ladder and direct agree to ~1e-13
        spec = HilbertSpec(4, 30)
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001,
                         drive_amp=0.001, delta_c=delta_c)
        ls = make_lindblad(p, spec, frame="rotating")
        ladder = observables(steady_state(ls, method="ladder"))["g2"]
        direct = observables(steady_state(ls, method="direct"))["g2"]
        assert abs(ladder / direct - 1.0) < 1e-9

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        g0=st.floats(0.0, 1.0),
        g_ck=st.floats(0.0, 0.3),
        kappa=st.floats(0.05, 0.5),
        gamma_m=st.floats(1e-3, 0.1),
        nbar_m=st.floats(0.0, 1.0),
        drive_amp=st.floats(0.0, 0.01),
        delta_c=st.floats(-3.0, 2.0),
    )
    def test_ladder_matches_direct_property(self, **physics):
        ls = make_lindblad(SystemParams(**physics), HilbertSpec(3, 12), frame="rotating")
        ladder = steady_state(ls, method="ladder")
        direct = steady_state(ls, method="direct")
        assert np.abs(ladder.rho - direct.rho).max() < 1e-12

    def test_ladder_unsettled_iteration_is_not_returned(self):
        # mechanical damping comparable to kappa: the block iteration is still
        # 6e-12 off after its 200 sweeps, above the agreement the property
        # test above asks for; steady_state must not return that state
        spec = HilbertSpec(3, 12)
        p = SystemParams(g0=0.634, g_ck=0.228, kappa=0.0814, gamma_m=0.0962,
                         nbar_m=0.958, drive_amp=0.00417, delta_c=-0.652)
        ls = make_lindblad(p, spec, frame="rotating")
        ladder = steady_state(ls, method="ladder")
        direct = steady_state(ls, method="direct")
        assert np.abs(ladder.rho - direct.rho).max() < 1e-12

    def test_unknown_method(self):
        ls = make_lindblad(SystemParams(kappa=0.1, gamma_m=0.01), HilbertSpec(2, 4))
        with pytest.raises(ValueError, match="unknown steady-state method"):
            steady_state(ls, method="cycle")

    def test_ladder_resolves_far_detuned_populations(self):
        # at large detuning the two-photon population sits near 1e-13, far
        # below what a residual-bounded global solve can resolve; the block
        # ladder keeps per-block relative precision and must agree with the
        # gamma-free perturbative statistics to the sideband-width level
        from ckom.blockade import photon_stats_exact

        spec = HilbertSpec(4, 30)
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001,
                         drive_amp=0.001, delta_c=-3.586)
        ls = make_lindblad(p, spec, frame="rotating")
        obs = observables(steady_state(ls, method="ladder"))
        assert obs["p2"] > 0
        ana = photon_stats_exact(p, spec)
        assert abs(obs["g2"] / ana.g2 - 1.0) < 0.1

    def test_ladder_thermal_occupation(self):
        spec = HilbertSpec(2, 24)
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=0.2, gamma_m=0.05, nbar_m=0.7,
                         drive_amp=0.002)
        ls = make_lindblad(p, spec, frame="rotating")
        rho = steady_state(ls, method="ladder")
        n_b = build_mode_operators(spec).n_b
        assert abs(np.trace(n_b @ rho.rho).real - 0.7) < 1e-6

    def test_integration_method_matches_direct(self):
        # gamma sets the slowest relaxation; keep it fast enough to settle
        # inside the 200/kappa integration budget
        spec = HilbertSpec(2, 6)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.3, gamma_m=0.15, nbar_m=0.2,
                         drive_amp=0.02, delta_c=0.1)
        ls = make_lindblad(p, spec, frame="rotating")
        via_evolve = steady_state(ls, method="evolve")
        via_direct = steady_state(ls, method="direct")
        assert np.abs(via_evolve.rho - via_direct.rho).max() < 1e-7

    def test_kappa_required(self):
        spec = HilbertSpec(2, 4)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.0, drive_amp=0.01)
        with pytest.raises(ValueError):
            steady_state(make_lindblad(p, spec, frame="rotating"))

    def test_nonconvergence_budget(self):
        # mechanical thermalization much slower than 200/kappa windows can see
        spec = HilbertSpec(2, 4)
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=50.0, gamma_m=1e-4, nbar_m=1.0)
        ls = make_lindblad(p, spec, frame="rotating")
        with pytest.raises(NonConvergence):
            steady_state(ls, method="evolve")


class TestObservables:
    def test_fock_state(self):
        spec = HilbertSpec(3, 4)
        obs = observables(fock_density(spec, 1, 2))
        assert obs["p1"] == 1.0 and obs["p0"] == 0.0
        assert obs["g2"] == 0.0
        assert obs["n_phonon"] == 2.0

    def test_vacuum_has_no_g2(self):
        spec = HilbertSpec(3, 4)
        with pytest.raises(ZeroPhotonNumber):
            observables(vacuum_density(spec))

    def test_driven_empty_cavity_is_coherent(self):
        spec = HilbertSpec(6, 2)
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=0.1, drive_amp=0.002, delta_c=0.0)
        ls = make_lindblad(p, spec, frame="rotating")
        obs = observables(steady_state(ls, method="direct"))
        assert abs(obs["g2"] - 1.0) < 1e-3

    def test_blockade_dip_against_perturbative_value(self):
        from ckom.blockade import photon_stats_exact

        spec = HilbertSpec(4, 30)
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001,
                         drive_amp=0.001, delta_c=0.594)
        ls = make_lindblad(p, spec, frame="rotating")
        numeric = observables(steady_state(ls, method="ladder"))["g2"]
        analytic = photon_stats_exact(p, spec).g2
        assert numeric < 1.0
        assert max(numeric / analytic, analytic / numeric) < 1.5
