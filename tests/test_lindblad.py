"""Master-equation machinery: generator structure, integration quality,
steady-state solvers (ladder, direct and long-time integration against each
other), observables."""

import dataclasses

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from ckom.model import SystemParams
from ckom.operators import (HilbertSpec, build_h_sectors, build_mode_operators, destroy, expm,
                            propagator_factored)
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
from ckom.errors import NonConvergence, StepSizeUnderflow, ZeroPhotonNumber


def fock_density(spec, m, n):
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[spec.index(m, n), spec.index(m, n)] = 1.0
    return DensityMatrix(spec, rho)


def full_hamiltonian(ls):
    """H = sum_m |m><m| (x) H_m + omega_c a+a + drive (a+ + a) from Kronecker
    products and the full-space mode operators."""
    ops = build_mode_operators(ls.spec)
    proj = np.eye(ls.spec.n_cav)
    return (sum(np.kron(np.diag(proj[m]), h_m) for m, h_m in enumerate(ls.sectors))
            + ls.omega_c * ops.n_a + ls.drive * (ops.a_dag + ops.a))


def full_space_liouvillian(ls):
    """Dense vectorized Liouvillian (row-major vec, no trace row) of
    -i[H, .] + kappa D[a] + gamma_down D[b] + gamma_up D[b+], built from the
    full-space mode operators, independently of the block form."""
    ops = build_mode_operators(ls.spec)
    eye = np.eye(ls.spec.dim)
    h = full_hamiltonian(ls)
    liou = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for o, rate in ((ops.a, ls.kappa), (ops.b, ls.gamma_down), (ops.b_dag, ls.gamma_up)):
        oo = o.conj().T @ o
        liou += rate * (np.kron(o, o.conj()) - 0.5 * np.kron(oo, eye) - 0.5 * np.kron(eye, oo.T))
    return liou


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
        spec = HilbertSpec(3, 4)
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.3, gamma_m=0.02, nbar_m=0.5,
                         delta_c=0.4, drive_amp=-0.01, omega_c=77.0)
        ls = make_lindblad(p, spec, frame="rotating")
        assert (ls.kappa, ls.gamma_down, ls.gamma_up) == (0.3, 0.02 * 1.5, 0.02 * 0.5)
        # the frame's a+a frequency is recorded once, in omega_c, not in the
        # sectors: delta_c in the rotating frame, omega_c in the lab frame
        assert (ls.drive, ls.omega_c) == (-0.01, 0.4)
        lab = make_lindblad(p, spec, frame="lab")
        assert (lab.drive, lab.omega_c) == (0.0, 77.0)
        assert np.array_equal(lab.sectors, build_h_sectors(spec, p.replace(omega_c=0.0)))
        assert np.array_equal(ls.sectors, lab.sectors)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        n_cav=st.integers(2, 4),
        n_mech=st.integers(2, 6),
        frame=st.sampled_from(["rotating", "lab"]),
        g0=st.floats(0.0, 1.0),
        g_ck=st.floats(0.0, 0.3),
        kappa=st.floats(0.05, 0.5),
        gamma_m=st.floats(1e-3, 0.1),
        nbar_m=st.floats(0.01, 1.0),
        drive_amp=st.floats(1e-3, 0.1),
        delta_c=st.floats(-3.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_form_matches_full_space_liouvillian(self, n_cav, n_mech, frame, seed,
                                                       **physics):
        # the direct route's vectorized Liouvillian, built from the full-space
        # a, b and b+, applied to vec(rho) of a non-Hermitian rho; its first
        # row is the trace constraint, so drho[0, 0] is pinned by trace
        # conservation instead
        spec = HilbertSpec(n_cav, n_mech)
        ls = make_lindblad(SystemParams(**physics), spec, frame=frame)
        rng = np.random.default_rng(seed)
        rho = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
        ops = build_mode_operators(spec)
        liou = lindblad._constrained_liouvillian(
            full_hamiltonian(ls),
            ((ops.a, ls.kappa), (ops.b, ls.gamma_down), (ops.b_dag, ls.gamma_up)),
        ).tocsr()
        want = liou @ rho.ravel()
        got = apply_liouvillian(ls, rho)
        scale = np.abs(want[1:]).max()
        assert np.abs(got.ravel()[1:] - want[1:]).max() <= 1e-13 * scale
        assert abs(np.trace(got)) <= 1e-13 * scale
        assert want[0] == pytest.approx(np.trace(rho), rel=1e-13)

    def test_dimension_mismatch(self):
        spec = HilbertSpec(3, 4)
        ls = make_lindblad(SystemParams(kappa=0.1), spec, frame="rotating")
        with pytest.raises(ValueError):
            apply_liouvillian(ls, np.eye(5))

    @staticmethod
    def _lindblad_case(case):
        cat = SystemParams(g0=1.2, g_ck=0.3, kappa=0.1, gamma_m=0.01)
        blockade = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001, nbar_m=0.3,
                                drive_amp=0.01, delta_c=-1.2)
        if case == "lab-2x60-wc0":
            return make_lindblad(cat.replace(omega_c=0.0), HilbertSpec(2, 60), frame="lab")
        if case == "lab-2x60-wc100":
            return make_lindblad(cat.replace(omega_c=100.0), HilbertSpec(2, 60), frame="lab")
        ls = make_lindblad(blockade, HilbertSpec(4, 30), frame="rotating")
        if case == "rotating-4x30":
            return ls
        # a dense Hermitian sector Hamiltonian: every offset inside each
        # photon-number block is occupied, not only the tridiagonal ones
        spec = ls.spec
        rng = np.random.default_rng(7)
        h = ls.sectors.astype(complex)
        for m in range(spec.n_cav):
            x = rng.normal(size=(spec.n_mech,) * 2) + 1j * rng.normal(size=(spec.n_mech,) * 2)
            h[m] += 0.05 * (x + x.conj().T)
        return dataclasses.replace(ls, sectors=h)

    @pytest.mark.parametrize("case", ["lab-2x60-wc0", "lab-2x60-wc100", "rotating-4x30",
                                      "dense-sector-h"])
    def test_banded_apply_matches_block_form(self, case):
        # the block form the ladder iterates, block by block: G_m x + x G_mp^+
        # + rest; apply evaluates the same terms by diagonals of the whole
        # matrix, so the two differ by the summation order alone
        ls = self._lindblad_case(case)
        gen = lindblad._BlockGenerator(ls)
        spec = ls.spec
        rng = np.random.default_rng(11)
        rho = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
        v = spec.blocks(rho)
        want = np.empty_like(rho)
        for m in range(spec.n_cav):
            for mp in range(spec.n_cav):
                x = v[m, :, mp, :]
                spec.blocks(want)[m, :, mp, :] = (gen.drift[m] @ x + x @ gen.drift[mp].conj().T
                                                  + gen.rest(v, m, mp))
        got = gen.apply(rho)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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
        u = expm(full_hamiltonian(ls), -1j * t)
        psi_t = u @ psi0
        fidelity = np.real(psi_t.conj() @ rho_t @ psi_t)
        assert fidelity >= 1.0 - 1e-8

    @pytest.mark.parametrize("t_grid", [[0.0], [0.0, 0.0], [1.5, 1.5, 1.5]])
    def test_grid_that_does_not_advance_returns_initial_state(self, t_grid):
        spec = HilbertSpec(2, 6)
        p = SystemParams(g0=0.6, g_ck=0.15, omega_c=5.0, kappa=0.1, gamma_m=0.02)
        rho0 = 2.0 * fock_density(spec, 1, 2).rho  # returned trace-normalized
        states = evolve(make_lindblad(p, spec, frame="lab"), rho0, t_grid)
        assert len(states) == len(t_grid)
        for dm in states:
            assert np.array_equal(dm.rho, fock_density(spec, 1, 2).rho)

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

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(
        n_cav=st.integers(2, 3),
        n_mech=st.integers(8, 10),
        omega_c=st.floats(0.0, 1000.0),
        g0=st.floats(0.0, 1.2),
        g_ck=st.floats(0.0, 0.3),
        kappa=st.floats(0.01, 0.5),
        gamma_m=st.floats(1e-3, 0.1),
        nbar_m=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lab_frame_matches_liouvillian_exponential(self, n_cav, n_mech, seed, **physics):
        # evolve integrates without omega_c a+a and puts its phase back per
        # block; the reference is expm(L t) vec(rho0) of the full-space
        # Liouvillian, omega_c included, at three times up to t_s
        spec = HilbertSpec(n_cav, n_mech)
        p = SystemParams(**physics)
        ls = make_lindblad(p, spec, frame="lab")
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
        rho0 = x @ x.conj().T
        rho0 /= np.trace(rho0).real
        t_grid = np.pi / (1.0 - p.g_ck) * np.arange(4) / 3.0
        states = evolve(ls, rho0, t_grid)
        step = sla.expm(full_space_liouvillian(ls) * t_grid[1])
        want = rho0.ravel()
        for dm in states[1:]:
            want = step @ want
            assert np.abs(dm.rho.ravel() - want).max() < 1e-8

    def test_closed_lab_frame_matches_factored_propagator(self):
        # omega_c = 100 puts a fast e^{-i omega_c t} on the cavity coherence;
        # the factored propagator is exact, so U rho0 U+ is the reference
        spec = HilbertSpec(2, 60)
        p = SystemParams(g0=1.2, g_ck=0.3, omega_c=100.0, kappa=0.0, gamma_m=0.0)
        rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
        cat = [spec.index(0, 0), spec.index(1, 0)]
        rho0[np.ix_(cat, cat)] = 0.5
        t_grid = np.pi / 0.7 * np.array([0.0, 0.25, 0.6, 1.0])
        states = evolve(make_lindblad(p, spec, frame="lab"), rho0, t_grid)
        for t, dm in zip(t_grid[1:], states[1:]):
            u = propagator_factored(t, p, spec)
            assert np.abs(dm.rho - u @ rho0 @ u.conj().T).max() < 1e-7

    def test_driven_frame_is_integrated(self):
        # the drive does not commute with omega_c a+a, so its flow cannot be
        # put back in closed form: a driven spec is integrated with omega_c
        # in its drifts
        spec = HilbertSpec(3, 6)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.1, gamma_m=0.05, drive_amp=0.05)
        framed = dataclasses.replace(make_lindblad(p, spec, frame="rotating"), omega_c=3.0)
        got = evolve(framed, vacuum_density(spec), np.array([0.0, 2.0]))[-1].rho
        want = sla.expm(full_space_liouvillian(framed) * 2.0) @ vacuum_density(spec).rho.ravel()
        assert np.abs(got.ravel() - want).max() < 1e-7

    @pytest.mark.parametrize("where", ["hamiltonian", "rho0"])
    def test_nan_ends_in_step_size_underflow(self, where):
        # a NaN error norm defeats the step-size controller: scipy's RK45
        # shrank a NaN step forever; the integrator now fails at once
        spec = HilbertSpec(2, 6)
        p = SystemParams(g0=0.6, g_ck=0.15, omega_c=5.0, kappa=0.1, gamma_m=0.02)
        ls = make_lindblad(p, spec, frame="lab")
        rho0 = fock_density(spec, 1, 2).rho
        if where == "hamiltonian":
            h = ls.sectors.copy()
            h[1, 1, 1] = np.nan
            ls = dataclasses.replace(ls, sectors=h)
        else:
            rho0 = rho0.copy()
            rho0[0, 0] = np.nan
        with pytest.raises(StepSizeUnderflow, match="not finite"):
            evolve(ls, rho0, np.array([0.0, 1.0]))


class TestSolveIvp:
    """``lindblad.solve_ivp`` takes the steps of scipy's RK45, so the master-
    equation outputs do not depend on which of the two integrates them."""

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 12),
        decay=st.floats(0.01, 2.0),
        freq=st.floats(0.0, 20.0),
        t0=st.floats(-5.0, 5.0),
        span=st.floats(0.5, 30.0),
        n_eval=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_rk45(self, n, decay, freq, t0, span, n_eval, seed):
        # dy/dt = M y with a decaying, rotating spectrum in a skewed basis;
        # t_eval starts at t0 and crowds three points into the first step
        rng = np.random.default_rng(seed)
        lam = -decay * rng.uniform(0.1, 1.0, n) + 1j * freq * rng.uniform(-1.0, 1.0, n)
        v = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        m = v @ np.diag(lam) @ np.linalg.inv(v)
        y0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        t1 = t0 + span
        inside = np.sort(rng.uniform(t0 + 1e-5, t1, n_eval))
        t_eval = np.unique(np.concatenate([t0 + np.array([0.0, 1e-6, 2e-6, 3e-6]), inside, [t1]]))
        ours = lindblad.solve_ivp(lambda _t, y: m @ y, (t0, t1), y0, t_eval=t_eval,
                                  rtol=1e-8, atol=1e-10)
        ref = scipy.integrate.solve_ivp(lambda _t, y: m @ y, (t0, t1), y0, t_eval=t_eval,
                                        method="RK45", rtol=1e-8, atol=1e-10)
        assert ref.success
        assert ours.nfev == ref.nfev
        assert ours.y.shape == ref.y.shape == (n, t_eval.size)
        assert np.abs(ours.y - ref.y).max() <= 1e-12 * np.abs(ref.y).max()

    def test_result_fields(self):
        # the benchmark's tracer reads .nfev; evolve reads .y
        res = lindblad.solve_ivp(lambda _t, y: -y, (0.0, 1.0), np.array([1.0 + 0j]),
                                 t_eval=np.array([0.0, 0.5, 1.0]), rtol=1e-8, atol=1e-10)
        assert res.nfev > 2
        assert np.allclose(res.y[0], np.exp(-np.array([0.0, 0.5, 1.0])), rtol=1e-7)

    @pytest.mark.parametrize("t_span, t_eval", [
        ((1.0, 0.0), [1.0, 0.0]), ((0.0, 1.0), [0.0, 0.7, 0.5, 1.0]),
        ((0.0, 1.0), [-0.1, 1.0]), ((0.0, 1.0), [0.0, 1.5])])
    def test_t_eval_must_increase_within_the_span(self, t_span, t_eval):
        # forward only: backward integration of a dissipative generator is unstable
        with pytest.raises(ValueError, match="t_eval must increase"):
            lindblad.solve_ivp(lambda _t, y: -y, t_span, np.ones(1, dtype=complex),
                               t_eval=np.array(t_eval))


class TestSteadyState:
    def test_vacuum_without_drive(self):
        spec = HilbertSpec(3, 5)
        p = SystemParams(g0=0.4, g_ck=0.1, kappa=0.2, gamma_m=0.01, delta_c=0.3)
        for method in ("direct", "ladder"):
            rho = steady_state(make_lindblad(p, spec, frame="rotating"), method=method)
            assert abs(rho.rho[0, 0].real - 1.0) < 1e-8

    def test_degenerate_drive_free_case(self):
        # without drive and mechanical damping the 0-photon sector is
        # dissipation-free: the direct solve must refuse, the ladder still
        # returns the dark vacuum
        spec = HilbertSpec(3, 5)
        p = SystemParams(g0=0.4, g_ck=0.1, kappa=0.2, gamma_m=0.0, delta_c=0.3)
        ls = make_lindblad(p, spec, frame="rotating")
        with pytest.raises(NonConvergence):
            steady_state(ls, method="direct")
        rho = steady_state(ls, method="ladder")
        assert abs(rho.rho[0, 0].real - 1.0) < 1e-8

    def test_thermal_mechanical_occupation(self):
        spec = HilbertSpec(2, 24)
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=0.2, gamma_m=0.05, nbar_m=0.7)
        for method in ("direct", "ladder"):
            ls = make_lindblad(p, spec, frame="rotating")
            rho = steady_state(ls, method=method)
            ops = build_mode_operators(spec)
            assert abs(np.trace(ops.b_dag @ ops.b @ rho.rho).real - 0.7) < 1e-6

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

    @pytest.mark.parametrize("delta_c", [-2.0, 0.0, -1.234, -0.634, -1.121, -1.192, 0.594])
    def test_ladder_g2_matches_direct_at_blockade_physics(self, delta_c):
        # the paper's 4 x 30 blockade model; the two-photon block sits near
        # 1e-12 here, and direct resolves it only with its refinement steps
        spec = HilbertSpec(4, 30)
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001,
                         drive_amp=0.001, delta_c=delta_c)
        ls = make_lindblad(p, spec, frame="rotating")
        ladder = observables(steady_state(ls, method="ladder"))["g2"]
        direct = observables(steady_state(ls, method="direct"))["g2"]
        assert abs(ladder / direct - 1.0) < 1e-11

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
        # test above asks for; steady_state must not return that state, and
        # must say why (direct still solves it)
        spec = HilbertSpec(3, 12)
        p = SystemParams(g0=0.634, g_ck=0.228, kappa=0.0814, gamma_m=0.0962,
                         nbar_m=0.958, drive_amp=0.00417, delta_c=-0.652)
        ls = make_lindblad(p, spec, frame="rotating")
        with pytest.raises(NonConvergence, match="not settled after 200 sweeps"):
            steady_state(ls, method="ladder")
        direct = steady_state(ls, method="direct")
        assert np.abs(apply_liouvillian(ls, direct)).max() < 1e-9

    def test_strong_drive_is_named(self):
        # the contraction test reads |Omega|: a negative drive is as strong
        spec = HilbertSpec(3, 6)
        for drive_amp in (0.2, -0.2):
            p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.1, gamma_m=0.05, drive_amp=drive_amp)
            ls = make_lindblad(p, spec, frame="rotating")
            with pytest.raises(NonConvergence, match="drive too strong"):
                steady_state(ls, method="ladder")

    def test_non_diagonal_vacuum_hamiltonian_is_named(self):
        # a static force on the mechanics in the photon vacuum couples the
        # diagonal offsets the ladder's vacuum solve splits apart; without
        # drive it also lifts the vacuum, which is then not dark
        spec = HilbertSpec(3, 6)
        b = destroy(spec.n_mech)
        for drive_amp in (0.01, 0.0):
            p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.1, gamma_m=0.05, drive_amp=drive_amp)
            ls = make_lindblad(p, spec, frame="rotating")
            h = ls.sectors.astype(complex)
            h[0] += 0.02 * (b + b.conj().T)
            ls = dataclasses.replace(ls, sectors=h)
            with pytest.raises(NonConvergence, match="photon-vacuum Hamiltonian is not diagonal"):
                steady_state(ls)

    def test_residual_gate_names_its_reason(self, monkeypatch):
        # an iteration that settles on a state slightly off the steady state:
        # the gate checks that state against the generator and refuses it
        iterate = lindblad._ladder_iterate

        def perturbed(*args):
            rho = iterate(*args)
            rho[0, 0] += 1e-6
            rho[-1, -1] -= 1e-6
            return rho

        monkeypatch.setattr(lindblad, "_ladder_iterate", perturbed)
        spec = HilbertSpec(3, 6)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.1, gamma_m=0.05, drive_amp=0.01)
        with pytest.raises(NonConvergence, match=r"residual \S+ above 1e-9"):
            steady_state(make_lindblad(p, spec, frame="rotating"))

    def test_ladder_in_a_driven_frame_matches_direct(self):
        # omega_c != 0 with drive: the ladder iterates and gates the one
        # generator that carries omega_c in its drifts
        spec = HilbertSpec(3, 12)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.1, gamma_m=0.05, drive_amp=0.01)
        ls = dataclasses.replace(make_lindblad(p, spec, frame="rotating"), omega_c=3.0)
        ladder = observables(steady_state(ls, method="ladder"))["g2"]
        direct = observables(steady_state(ls, method="direct"))["g2"]
        assert abs(ladder / direct - 1.0) < 1e-10

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
        ops = build_mode_operators(spec)
        assert abs(np.trace(ops.b_dag @ ops.b @ rho.rho).real - 0.7) < 1e-6

    def test_integration_method_matches_direct(self):
        # long-time integration from the vacuum as the oracle; gamma sets the
        # slowest relaxation, fast enough to settle well inside 200/kappa
        spec = HilbertSpec(2, 6)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.3, gamma_m=0.15, nbar_m=0.2,
                         drive_amp=0.02, delta_c=0.1)
        ls = make_lindblad(p, spec, frame="rotating")
        t_grid = np.array([0.0, 200.0 / p.kappa])
        via_evolve = evolve(ls, vacuum_density(spec), t_grid, rtol=1e-10, atol=1e-12)[-1]
        assert np.abs(apply_liouvillian(ls, via_evolve)).max() < 1e-9
        via_direct = steady_state(ls, method="direct")
        assert np.abs(via_evolve.rho - via_direct.rho).max() < 1e-7

    def test_kappa_required(self):
        spec = HilbertSpec(2, 4)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.0, drive_amp=0.01)
        with pytest.raises(ValueError):
            steady_state(make_lindblad(p, spec, frame="rotating"))


class TestDetunedSteadyState:
    """``detuned_steady_state``: the ladder along a detuning sweep, set up
    once at delta_c = 0, against ``steady_state`` solved point by point."""

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        n_cav=st.integers(3, 4),
        n_mech=st.integers(12, 20),
        g0=st.floats(0.0, 1.0),
        g_ck=st.floats(0.0, 0.3),
        kappa=st.floats(0.05, 0.5),
        gamma_m=st.floats(1e-3, 0.1),
        nbar_m=st.floats(0.0, 1.0),
        drive_amp=st.floats(1e-4, 0.01),
        detunings=st.lists(st.floats(-3.0, 2.0), min_size=1, max_size=4),
    )
    def test_hoisted_sweep_matches_point_by_point(self, n_cav, n_mech, detunings, **physics):
        # the shifted eigenvalues change only roundoff: 9.3e-13 was the largest
        # deviation in g2 over 450 random points of this range; where the
        # ladder does not settle, both routes say so with the same reason
        p = SystemParams(**physics)
        spec = HilbertSpec(n_cav, n_mech)
        solve = lindblad.detuned_steady_state(make_lindblad(p, spec))
        for dc in detunings:
            try:
                hoisted = observables(solve(dc))["g2"]
            except NonConvergence as exc:
                with pytest.raises(NonConvergence) as point_exc:
                    steady_state(make_lindblad(p.replace(delta_c=dc), spec))
                assert str(point_exc.value) == str(exc)
                continue
            point = steady_state(make_lindblad(p.replace(delta_c=dc), spec))
            assert abs(hoisted / observables(point)["g2"] - 1.0) < 1e-10

    def test_detuned_sectors_are_make_lindblads(self):
        # the hoisted state at each delta_c is a steady state of
        # make_lindblad's generator at that delta_c, to the residual gate
        spec = HilbertSpec(3, 6)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.1, gamma_m=0.05, drive_amp=0.01)
        solve = lindblad.detuned_steady_state(make_lindblad(p, spec))
        for dc in (-1.3, 0.0, 0.7):
            ls = make_lindblad(p.replace(delta_c=dc), spec)
            assert np.abs(apply_liouvillian(ls, solve(dc))).max() < 1e-9

    def test_one_generator_per_sweep(self, monkeypatch):
        # the set-up, every point's iteration and every residual gate share
        # one block generator of ls; no point copies the sectors into its own
        built = []

        class Counted(lindblad._BlockGenerator):
            def __init__(self, ls):
                built.append(ls)
                super().__init__(ls)

        monkeypatch.setattr(lindblad, "_BlockGenerator", Counted)
        p = SystemParams(g0=0.3, g_ck=0.05, kappa=0.1, gamma_m=0.05, drive_amp=0.01)
        ls = make_lindblad(p, HilbertSpec(3, 6))
        solve = lindblad.detuned_steady_state(ls)
        for dc in (-1.3, 0.0, 0.7):
            solve(dc)
        assert len(built) == 1 and built[0] is ls

    def test_every_unsettled_point_raises(self):
        # the unsettled case of TestSteadyState, at its detuning and another:
        # each point of the sweep raises on its own
        spec = HilbertSpec(3, 12)
        p = SystemParams(g0=0.634, g_ck=0.228, kappa=0.0814, gamma_m=0.0962,
                         nbar_m=0.958, drive_amp=0.00417)
        solve = lindblad.detuned_steady_state(make_lindblad(p, spec))
        for dc in (-0.652, 0.3):
            with pytest.raises(NonConvergence, match="not settled after 200 sweeps"):
                solve(dc)

    def test_obstacle_raises_at_every_point_not_at_set_up(self):
        # a map point without mechanical damping must still reach the CLI's
        # per-point error handling, so the set-up itself does not raise
        ls = make_lindblad(SystemParams(kappa=0.1, gamma_m=0.0, drive_amp=0.001),
                           HilbertSpec(3, 6))
        solve = lindblad.detuned_steady_state(ls)
        for dc in (-0.5, 0.3):
            with pytest.raises(NonConvergence, match="no mechanical damping"):
                solve(dc)

    def test_dark_vacuum_at_every_detuning(self):
        spec = HilbertSpec(3, 5)
        p = SystemParams(g0=0.4, g_ck=0.1, kappa=0.2, gamma_m=0.0)
        solve = lindblad.detuned_steady_state(make_lindblad(p, spec))
        for dc in (-0.5, 0.3):
            assert np.array_equal(solve(dc).rho, vacuum_density(spec).rho)

    def test_kappa_required(self):
        ls = make_lindblad(SystemParams(kappa=0.0, drive_amp=0.01), HilbertSpec(2, 4))
        with pytest.raises(ValueError, match="kappa > 0"):
            lindblad.detuned_steady_state(ls)


class TestVacuumSolver:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        n_mech=st.integers(2, 20),
        omega_m=st.floats(0.5, 2.0),
        gamma_down=st.floats(1e-4, 0.1),
        up_share=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_offset_solve_matches_dense_solve(self, n_mech, omega_m, gamma_down, up_share,
                                              seed):
        # the vacuum block solved one diagonal offset at a time against a
        # dense solve of its trace-constrained vectorized Liouvillian
        gamma_up = up_share * gamma_down
        h00 = omega_m * np.diag(np.arange(n_mech)).astype(complex)
        b = destroy(n_mech)
        dense = lindblad._constrained_liouvillian(
            h00, ((b, gamma_down), (b.conj().T, gamma_up))).toarray()
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=(n_mech, n_mech)) + 1j * rng.normal(size=(n_mech, n_mech))
        want = sla.solve(dense, rhs.ravel()).reshape(n_mech, n_mech)
        got = lindblad._vacuum_solver(np.diagonal(h00), gamma_down, gamma_up)(rhs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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
