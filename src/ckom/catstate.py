"""Mechanical cat-state generation: closed-form snapshots and open-system
conditioning with fidelities.

The protocol starts from (|0>_a + |1>_a) |0>_b / sqrt(2); detecting the cavity
in |+/-> collapses the mechanics onto N_pm (|0> +/- e^{i theta} |beta>).
"""

from dataclasses import dataclass

import numpy as np

from .model import effective_mech_freq
from .lindblad import DensityMatrix
from .operators import propagator_factors
from .errors import DegenerateBranch, TruncationLoss

_DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True)
class CatSnapshot:
    """Closed-system cat-state data at one time."""

    t: float
    beta: complex
    theta: float
    prob_plus: float
    prob_minus: float


@dataclass(frozen=True)
class ConditionalState:
    """One branch of a cavity |+/-> detection: its probability ``prob`` and
    Theta = rho_b * 2 prob. A branch of probability below 1e-12 has no
    conditioned state; reading its ``rho_b`` raises DegenerateBranch."""

    sign: str
    t: float
    prob: float
    theta_mat: np.ndarray

    @property
    def rho_b(self):
        """Conditioned mechanical density matrix Theta / (2 prob), Hermitian."""
        if self.prob < _DEGENERACY_FLOOR:
            raise DegenerateBranch(
                f"{self.sign} branch probability {self.prob:.2e} at t = {self.t}"
            )
        rho_b = self.theta_mat / (2.0 * self.prob)
        return 0.5 * (rho_b + rho_b.conj().T)


def detection_time(params):
    """First time of maximal mechanical displacement, pi/(omega_m - g_ck)."""
    return np.pi / effective_mech_freq(1, params)


def beta_theta(t, params):
    """Mechanical displacement beta(t) = lambda_1 and accumulated phase
    theta(t) = -omega_c t + mu_1 - nu_1 of the single-photon branch."""
    f = propagator_factors(t, params, 2)
    return complex(f.lam[1]), float(-params.omega_c * t + f.mu[1] - f.nu[1])


def cat_snapshot(t, params):
    """beta, theta and the detection probabilities
    P_pm = (1 +/- cos(theta) e^{-|beta|^2/2}) / 2 of both cat branches at
    time t, defined at every t (P_- = 0 at t = 0)."""
    beta, theta = beta_theta(t, params)
    overlap = np.cos(theta) * np.exp(-0.5 * abs(beta) ** 2)
    return CatSnapshot(t=t, beta=beta, theta=theta,
                       prob_plus=0.5 * (1.0 + overlap), prob_minus=0.5 * (1.0 - overlap))


def _ideal_branch(t, sign, params):
    """(s, beta, theta, N) of the ideal branch N (|0> + s e^{i theta} |beta>)
    with N = (4 P)^{-1/2}; raises DegenerateBranch where P is below 1e-12."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {sign!r}")
    snap = cat_snapshot(t, params)
    s, prob = (1.0, snap.prob_plus) if sign == "plus" else (-1.0, snap.prob_minus)
    if prob < _DEGENERACY_FLOOR:
        raise DegenerateBranch(f"ideal {sign} branch probability {prob:.2e} at t = {t}")
    return s, snap.beta, snap.theta, (4.0 * prob) ** -0.5


def coherent_coefficients(beta, n_mech):
    """Fock coefficients beta^n e^{-|beta|^2/2} / sqrt(n!), by cumulative
    product (no large factorials ever materialize)."""
    steps = np.ones(n_mech, dtype=complex)
    if n_mech > 1:
        steps[1:] = beta / np.sqrt(np.arange(1, n_mech))
    return np.cumprod(steps) * np.exp(-0.5 * abs(beta) ** 2)


def cat_state_vector(t, sign, params, n_mech):
    """Normalized Fock-space vector N_pm (|0> +/- e^{i theta} |beta>) on
    n_mech levels. Raises DegenerateBranch where the branch vanishes and
    TruncationLoss where |beta> does not fit in n_mech levels."""
    s, beta, theta, norm = _ideal_branch(t, sign, params)
    coeff = coherent_coefficients(beta, n_mech)
    tail = 1.0 - float(np.sum(np.abs(coeff) ** 2))
    if tail > 1e-8:
        raise TruncationLoss(
            f"coherent tail beyond n_mech={n_mech} carries {tail:.2e} probability"
        )
    vec = s * np.exp(1j * theta) * coeff
    vec[0] += 1.0
    return norm * vec


def initial_superposition_density(spec):
    """Density matrix of (|0>_a + |1>_a)|0>_b / sqrt(2)."""
    psi = np.zeros(spec.dim, dtype=complex)
    psi[spec.index(0, 0)] = 1.0 / np.sqrt(2.0)
    psi[spec.index(1, 0)] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(spec, np.outer(psi, psi.conj()))


def condition_open_system(dm, t=np.nan):
    """Both branches of a cavity |+/-> detection on a full cavity-mechanics
    state, (plus, minus).

    Theta^pm_{jk} = rho_{0j,0k} + rho_{1j,1k} +/- (rho_{0j,1k} + rho_{1j,0k});
    each branch has probability P_pm = sum_j Theta^pm_{jj} / 2, defined for
    any state, and conditioned mechanical state Theta^pm / (2 P_pm). A branch
    with P_pm below 1e-12 is still returned, with its probability; only
    reading its ``rho_b`` raises DegenerateBranch.
    """
    spec = dm.spec
    if spec.n_cav < 2:
        raise ValueError("conditioning needs at least the 0- and 1-photon sectors")
    blocks = spec.blocks(dm.rho)
    diag = blocks[0, :, 0, :] + blocks[1, :, 1, :]
    cross = blocks[0, :, 1, :] + blocks[1, :, 0, :]
    return tuple(
        ConditionalState(sign=sign, t=t, prob=0.5 * float(np.trace(theta_mat).real),
                         theta_mat=theta_mat)
        for sign, theta_mat in (("plus", diag + cross), ("minus", diag - cross))
    )


def fidelity_vs_target(cond, t, params):
    """Fidelity <Phi|rho_b|Phi> of a conditioned state with its ideal cat
    branch, Phi = cat_state_vector(t, cond.sign, params, n) on the cutoff n
    of rho_b. Raises DegenerateBranch where either the conditioned branch or
    the ideal one has probability below 1e-12."""
    rho_b = cond.rho_b
    vec = cat_state_vector(t, cond.sign, params, rho_b.shape[0])
    return float(np.real(vec.conj() @ rho_b @ vec))
