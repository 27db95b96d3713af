"""Truncated two-mode Hilbert space, Hamiltonians, and the factored propagator.

Tensor ordering is cavity-major: basis index i = m * n_mech + n, so photon-
number sectors are contiguous blocks. Matrices are dense complex; the largest
spaces used by the command-line runs are a few hundred dimensions.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .model import effective_mech_freq
from .specfun import displacement_matrix


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation of the two-mode Fock space.

    ``n_cav`` and ``n_mech`` are the number of retained levels, so occupations
    run over 0 .. n_cav-1 and 0 .. n_mech-1.
    """

    n_cav: int
    n_mech: int

    def __post_init__(self):
        if self.n_cav < 2 or self.n_mech < 2:
            raise ValueError("need at least two levels per mode")

    @property
    def dim(self):
        return self.n_cav * self.n_mech

    def index(self, m, n):
        return m * self.n_mech + n

    def block(self, m):
        """Slice selecting the m-photon sector."""
        return slice(m * self.n_mech, (m + 1) * self.n_mech)

    def blocks(self, mat):
        """View of a dim x dim matrix as (n_cav, n_mech, n_cav, n_mech):
        ``[m, :, mp, :]`` is its photon-number block (m, mp)."""
        return mat.reshape(self.n_cav, self.n_mech, self.n_cav, self.n_mech)


@dataclass(frozen=True)
class ModeOperators:
    a: np.ndarray
    a_dag: np.ndarray
    b: np.ndarray
    b_dag: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray


@dataclass(frozen=True)
class PropagatorFactors:
    """Per-photon-number ingredients of the factored evolution operator."""

    t: float
    mu: np.ndarray      # real, phase of the (a+a)^2 factor
    nu: np.ndarray      # real, phase of the (a+a)^3 factor
    lam: np.ndarray     # complex, mechanical displacement is m * lam[m]


def destroy(dim):
    """Truncated single-mode lowering operator."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def build_mode_operators(spec):
    a1 = destroy(spec.n_cav)
    b1 = destroy(spec.n_mech)
    ia = np.eye(spec.n_cav)
    ib = np.eye(spec.n_mech)
    a = np.kron(a1, ib)
    b = np.kron(ia, b1)
    return ModeOperators(
        a=a,
        a_dag=a.conj().T,
        b=b,
        b_dag=b.conj().T,
        n_a=a.conj().T @ a,
        n_b=b.conj().T @ b,
    )


def build_h_gom(spec, params):
    """Lab-frame Hamiltonian
    omega_c a+a + omega_m b+b - g0 a+a (b+ + b) - g_ck a+a b+b.
    """
    ops = build_mode_operators(spec)
    return (
        params.omega_c * ops.n_a
        + params.omega_m * ops.n_b
        - params.g0 * ops.n_a @ (ops.b_dag + ops.b)
        - params.g_ck * ops.n_a @ ops.n_b
    )


def expm(mat, scalar=1.0):
    """Matrix exponential of scalar * mat.

    Hermitian inputs (with real or purely imaginary scalar) go through an
    eigendecomposition; everything else uses scaling-and-squaring Pade.
    """
    mat = np.asarray(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix exponential needs a square matrix")
    herm = np.abs(mat - mat.conj().T).max() <= 1e-13 * max(np.abs(mat).max(), 1.0)
    if herm:
        w, v = sla.eigh(mat)
        return (v * np.exp(scalar * w)) @ v.conj().T
    return sla.expm(scalar * mat)


def propagator_factors(t, params, spec):
    """mu_m, nu_m, lambda_m for every photon number m < n_cav at time t."""
    m = np.arange(spec.n_cav)
    w = np.array([effective_mech_freq(int(mm), params) for mm in m])
    g0 = params.g0
    mu = g0**2 * (params.omega_m * t - np.sin(w * t)) / w**2
    nu = params.g_ck * g0**2 * t / w**2
    lam = g0 * (1.0 - np.exp(1j * (m * params.g_ck - params.omega_m) * t)) / w
    return PropagatorFactors(t=t, mu=mu, nu=nu, lam=lam)


def propagator_factored(t, params, spec):
    """Evolution operator of the undriven system in factored form,

        U(t) = e^{-i omega_c t a+a} e^{i mu (a+a)^2} e^{-i nu (a+a)^3}
               e^{a+a (lam b+ - lam* b)} e^{i(g_ck a+a - omega_m) t b+b},

    assembled block-by-block in photon number. The mechanical displacement on
    block m has amplitude m*lam[m] and is built from the exact Fock matrix
    elements, so the retained entries are independent of the cutoff.
    """
    f = propagator_factors(t, params, spec)
    nm = spec.n_mech
    u = np.zeros((spec.dim, spec.dim), dtype=complex)
    rot_freqs = np.arange(nm)
    for m in range(spec.n_cav):
        phase = np.exp(
            -1j * params.omega_c * t * m + 1j * f.mu[m] * m**2 - 1j * f.nu[m] * m**3
        )
        disp = displacement_matrix(m * f.lam[m], nm)
        rot = np.exp(1j * (m * params.g_ck - params.omega_m) * t * rot_freqs)
        u[spec.block(m), spec.block(m)] = phase * (disp * rot[None, :])
    return u
