"""Hilbert-space builders, the Hamiltonian's photon-number sectors and the
factored propagator.

The sectors are checked against the full-space Hamiltonian built from
Kronecker products of the mode operators, and the factored form against
dense matrix exponentials of the sectors; wherever a
truncated operator is compared entrywise, the compared block is sized so the
displaced sectors stay inside the cutoff (a displaced Fock state |l> reaches
up to about l + 2|x|sqrt(l) + |x|^2).
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from ckom.model import SystemParams, delta_m, effective_mech_freq
from ckom import lindblad, operators
from ckom.operators import HilbertSpec
from ckom.specfun import displacement_matrix, safe_interior_dim

FIG2 = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1)
CAT = SystemParams(g0=1.2, g_ck=0.3, omega_c=0.0)


def kron_hamiltonian(spec, params):
    """Lab-frame H = omega_c a+a + omega_m b+b - g0 a+a (b+ + b) - g_ck a+a b+b
    on the full space, from the Kronecker-product mode operators: the oracle
    of the sector builder."""
    ops = operators.build_mode_operators(spec)
    n_b = ops.b_dag @ ops.b
    return (params.omega_c * ops.n_a + params.omega_m * n_b
            - params.g0 * ops.n_a @ (ops.b_dag + ops.b) - params.g_ck * ops.n_a @ n_b)


class TestModeOperators:
    def test_ladder_element(self):
        spec = HilbertSpec(3, 5)
        ops = operators.build_mode_operators(spec)
        assert ops.a[spec.index(0, 0), spec.index(1, 0)] == 1.0
        assert ops.b[spec.index(2, 1), spec.index(2, 2)] == np.sqrt(2.0)

    def test_number_operator_blocks(self):
        spec = HilbertSpec(4, 6)
        ops = operators.build_mode_operators(spec)
        diag = np.diagonal(ops.n_a).real
        expected = np.repeat(np.arange(4), 6)
        assert np.allclose(diag, expected, atol=1e-14)

    def test_commutator_truncation_artifact(self):
        spec = HilbertSpec(4, 3)
        ops = operators.build_mode_operators(spec)
        comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
        expected = np.eye(spec.dim)
        # the top photon sector picks up -(n_cav - 1) instead of +1
        expected[spec.block(3), spec.block(3)] = -3 * np.eye(3)
        assert np.allclose(comm, expected, atol=1e-14)


class TestHamiltonians:
    def test_decoupled_limit_is_diagonal(self):
        spec = HilbertSpec(3, 4)
        p = SystemParams(g0=0.0, g_ck=0.0, omega_c=2.5)
        h = operators.build_h_sectors(spec, p)
        assert h.shape == (3, 4, 4)
        for m in range(3):
            assert np.array_equal(h[m], np.diag(2.5 * m + np.arange(4.0)))

    def test_hermitian_and_photon_conserving(self):
        # one real symmetric block per photon number: a+a is conserved by
        # construction, and the oracle test below checks that the full-space
        # H couples no two photon numbers
        spec = HilbertSpec(4, 10)
        h = operators.build_h_sectors(spec, FIG2)
        assert h.shape == (4, 10, 10) and h.dtype == float
        assert np.array_equal(h, h.transpose(0, 2, 1))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        n_cav=st.integers(2, 5),
        n_mech=st.integers(2, 12),
        omega_c=st.floats(-5.0, 1000.0),
        omega_m=st.floats(0.5, 2.0),
        g0=st.floats(0.0, 2.0),
        g_ck=st.floats(0.0, 0.3),
    )
    def test_sectors_match_kron_oracle(self, n_cav, n_mech, **physics):
        spec = HilbertSpec(n_cav, n_mech)
        p = SystemParams(**physics)
        full = spec.blocks(kron_hamiltonian(spec, p))
        h = operators.build_h_sectors(spec, p)
        scale = np.abs(full).max()
        for m in range(n_cav):
            for mp in range(n_cav):
                if mp != m:
                    assert not full[m, :, mp, :].any()
            assert np.abs(h[m] - full[m, :, m, :]).max() <= 1e-13 * scale

    def test_direct_solver_hamiltonian_matches_kron_oracle(self):
        # the full-space H the direct steady state assembles from the sectors:
        # the oracle at the detuning plus the drive in the rotating frame, the
        # oracle itself (omega_c a+a included) in the lab frame
        spec = HilbertSpec(3, 12)
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001, drive_amp=0.03,
                         delta_c=-0.4, omega_c=100.0)
        ops = operators.build_mode_operators(spec)
        for frame, want in [
            ("rotating", kron_hamiltonian(spec, p.replace(omega_c=p.delta_c))
             + p.drive_amp * (ops.a_dag + ops.a)),
            ("lab", kron_hamiltonian(spec, p)),
        ]:
            got = lindblad._full_hamiltonian(lindblad.make_lindblad(p, spec, frame=frame), ops)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_block_eigenvalues_match_closed_form(self):
        spec = HilbertSpec(4, 60)
        p = FIG2.replace(omega_c=3.0)
        h = operators.build_h_sectors(spec, p)
        # the m-photon sector is a displaced oscillator; its converged range
        # shrinks with the displacement xi_m (2.15 for m = 2)
        for m, n_check in [(0, 30), (1, 30), (2, 18)]:
            ev = np.sort(sla.eigvalsh(h[m]))
            # lab-frame eigenvalues m omega_c + (omega_m - m g_ck) n - delta_m
            n = np.arange(n_check)
            ref = m * p.omega_c + effective_mech_freq(m, p) * n - delta_m(m, p)
            assert np.abs(ev[:n_check] - ref).max() < 1e-8

    def test_coupling_matrix_element(self):
        spec = HilbertSpec(4, 8)
        h = operators.build_h_sectors(spec, FIG2)
        for m in range(4):
            for n in range(7):
                assert np.isclose(h[m, n + 1, n], -FIG2.g0 * m * np.sqrt(n + 1.0), rtol=1e-14)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(operators.expm(np.zeros((4, 4))), np.eye(4))

    def test_phase(self):
        res = operators.expm(np.diag([1.0 + 0j]), 1j * np.pi)
        assert np.isclose(res[0, 0], -1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            operators.expm(np.zeros((2, 3)))

    def test_displacement_generator_matches_closed_form(self):
        # cross-module oracle: expm of x(b+ - b) = -i (i x (b+ - b)), the
        # latter Hermitian, against the Fock elements
        x = 0.9
        dim = 80
        b = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
        via_expm = operators.expm(1j * x * (b.conj().T - b), -1j)
        closed = displacement_matrix(x, dim)
        k = safe_interior_dim(x, dim)
        assert np.abs(via_expm[:k, :k] - closed[:k, :k]).max() < 1e-8

    def test_expm_unitary_on_plain_hamiltonian(self):
        spec = HilbertSpec(2, 3)
        h = kron_hamiltonian(spec, FIG2)
        assert isinstance(h, np.ndarray)
        res = operators.expm(h, -1j * 0.3)
        assert np.allclose(res @ res.conj().T, np.eye(spec.dim), atol=1e-12)


class TestPropagatorFactors:
    def test_zero_time(self):
        spec = HilbertSpec(3, 4)
        f = operators.propagator_factors(0.0, CAT, spec.n_cav)
        assert np.allclose(f.mu, 0.0) and np.allclose(f.nu, 0.0) and np.allclose(f.lam, 0.0)

    def test_empty_cavity_factor(self):
        spec = HilbertSpec(3, 4)
        t = 0.8
        f = operators.propagator_factors(t, CAT, spec.n_cav)
        expected = CAT.g0 * (1.0 - np.exp(-1j * CAT.omega_m * t)) / CAT.omega_m
        assert np.isclose(f.lam[0], expected, rtol=1e-14)

    def test_half_period_displacement(self):
        spec = HilbertSpec(2, 4)
        t = np.pi / 0.7
        f = operators.propagator_factors(t, CAT, spec.n_cav)
        assert np.isclose(f.lam[1], 2.0 * 1.2 / 0.7, rtol=1e-12)
        assert abs(f.lam[1].imag) < 1e-12

    def test_nu_is_linear_in_time(self):
        spec = HilbertSpec(3, 4)
        f1 = operators.propagator_factors(0.7, CAT, spec.n_cav)
        f2 = operators.propagator_factors(1.4, CAT, spec.n_cav)
        assert np.allclose(2.0 * f1.nu, f2.nu, rtol=1e-14)

    def test_lambda_vanishes_at_full_revival(self):
        spec = HilbertSpec(2, 4)
        t = 2.0 * np.pi / (CAT.omega_m - CAT.g_ck)
        f = operators.propagator_factors(t, CAT, spec.n_cav)
        assert abs(f.lam[1]) < 1e-13


class TestPropagatorFactored:
    def test_identity_at_zero_time(self):
        spec = HilbertSpec(3, 20)
        u = operators.propagator_factored(0.0, CAT, spec)
        assert np.allclose(u, np.eye(spec.dim), atol=1e-14)

    def test_block_diagonal_in_photon_number(self):
        spec = HilbertSpec(3, 12)
        u = operators.propagator_factored(0.9, CAT, spec)
        mask = np.ones_like(u, dtype=bool)
        for m in range(3):
            mask[spec.block(m), spec.block(m)] = False
        assert np.abs(u[mask]).max() == 0.0

    def test_unitary_on_displacement_safe_block(self):
        spec = HilbertSpec(2, 120)
        t = np.pi / 0.7
        u = operators.propagator_factored(t, CAT, spec)
        lam = operators.propagator_factors(t, CAT, spec.n_cav).lam
        k = safe_interior_dim(abs(lam[1]), spec.n_mech)
        keep = np.concatenate([m * spec.n_mech + np.arange(k) for m in range(2)])
        gram = (u.conj().T @ u)[np.ix_(keep, keep)]
        assert np.abs(gram - np.eye(keep.size)).max() < 1e-8

    def test_retained_entries_independent_of_cutoff(self):
        small = HilbertSpec(3, 40)
        large = HilbertSpec(3, 90)
        t = 1.3
        u_small = operators.propagator_factored(t, CAT, small)
        u_large = operators.propagator_factored(t, CAT, large)
        for m in range(3):
            blk_s = u_small[small.block(m), small.block(m)]
            blk_l = u_large[large.block(m), large.block(m)][:40, :40]
            assert np.abs(blk_s - blk_l).max() < 1e-14

    def test_against_expm_moderate_coupling(self):
        # full-matrix comparison in one shared space; couplings small enough
        # that every displaced sector fits far below the cutoff
        p = SystemParams(g0=0.3, g_ck=0.075, omega_c=1.7)
        spec = HilbertSpec(3, 60)
        h = kron_hamiltonian(spec, p)
        keep = np.r_[0:20, 60:80, 120:140]
        for t in np.linspace(0.1, 2 * np.pi / 0.925, 5):
            u_fact = operators.propagator_factored(t, p, spec)
            u_ref = operators.expm(h, -1j * t)
            assert np.abs((u_fact - u_ref)[np.ix_(keep, keep)]).max() < 1e-8

    def test_against_expm_strong_coupling_oracle_space(self):
        # the m = 2 displacement reaches 12 at these couplings, so the dense
        # exponential is evaluated in a sector-sized larger space and cropped
        p = CAT
        n_keep = 30
        t = 2.2
        spec = HilbertSpec(3, n_keep)
        u_fact = operators.propagator_factored(t, p, spec)
        worst = 0.0
        for m in range(3):
            disp_max = 2.0 * m * p.g0 / (p.omega_m - m * p.g_ck)
            n_oracle = int(4.0 * disp_max**2 + 40.0)
            b = np.diag(np.sqrt(np.arange(1.0, n_oracle)), 1).astype(complex)
            h_blk = (
                p.omega_c * m * np.eye(n_oracle)
                + (p.omega_m - m * p.g_ck) * (b.conj().T @ b)
                - p.g0 * m * (b + b.conj().T)
            )
            u_blk = operators.expm(h_blk, -1j * t)[:n_keep, :n_keep]
            dev = np.abs(u_fact[spec.block(m), spec.block(m)] - u_blk).max()
            worst = max(worst, dev)
        assert worst < 1e-8

    def test_composition_one_parameter_group(self):
        spec = HilbertSpec(2, 250)
        t1, t2 = 1.1, 2.3
        u1 = operators.propagator_factored(t1, CAT, spec)
        u2 = operators.propagator_factored(t2, CAT, spec)
        u12 = operators.propagator_factored(t1 + t2, CAT, spec)
        keep = np.concatenate([m * 250 + np.arange(49) for m in range(2)])
        prod = (u1 @ u2)[np.ix_(keep, keep)]
        assert np.abs(prod - u12[np.ix_(keep, keep)]).max() < 1e-6

    def test_flipped_cubic_phase_breaks_equivalence(self):
        # sensitivity control: the sign of the cubic phase matters
        p = SystemParams(g0=0.3, g_ck=0.075, omega_c=1.7)
        spec = HilbertSpec(3, 40)
        t = 1.9
        h = kron_hamiltonian(spec, p)
        u_ref = operators.expm(h, -1j * t)
        u = operators.propagator_factored(t, p, spec)
        f = operators.propagator_factors(t, p, spec.n_cav)
        for m in range(3):
            u[spec.block(m), spec.block(m)] *= np.exp(2j * f.nu[m] * m**3)
        keep = np.r_[0:20, 40:60, 80:100]
        assert np.abs((u - u_ref)[np.ix_(keep, keep)]).max() > 1e-4
