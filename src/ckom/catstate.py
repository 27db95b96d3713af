"""Mechanical cat-state generation: closed-form snapshots and open-system
conditioning with fidelities.

The protocol starts from (|0>_a + |1>_a) |0>_b / sqrt(2); detecting the cavity
in |+/-> collapses the mechanics onto N_pm (|0> +/- e^{i theta} |beta>).
"""

from dataclasses import dataclass

import numpy as np

from .model import effective_mech_freq
from .lindblad import DensityMatrix
from .errors import DegenerateBranch, DegenerateCat, TruncationLoss

_DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True)
class CatSnapshot:
    """Closed-system cat-state data at one time."""

    t: float
    beta: complex
    theta: float
    norm_plus: float
    norm_minus: float
    prob_plus: float
    prob_minus: float

    def norm(self, sign):
        return self.norm_plus if sign == "plus" else self.norm_minus

    def prob(self, sign):
        return self.prob_plus if sign == "plus" else self.prob_minus


@dataclass
class ConditionalState:
    """Mechanical state conditioned on a cavity |+/-> detection."""

    sign: str
    t: float
    rho_b: np.ndarray
    prob: float


def detection_time(params):
    """First time of maximal mechanical displacement, pi/(omega_m - g_ck)."""
    return np.pi / effective_mech_freq(1, params)


def beta_theta(t, params):
    """Mechanical displacement beta(t) and accumulated phase theta(t) of the
    single-photon branch."""
    w = effective_mech_freq(1, params)
    beta = params.g0 * (1.0 - np.exp(1j * (params.g_ck - params.omega_m) * t)) / w
    theta = -params.omega_c * t + params.g0**2 * (w * t - np.sin(w * t)) / w**2
    return complex(beta), float(theta)


def _sign_factor(sign):
    if sign == "plus":
        return 1.0
    if sign == "minus":
        return -1.0
    raise ValueError(f"branch must be 'plus' or 'minus', got {sign!r}")


def cat_snapshot(t, params, require=None):
    """Norms and detection probabilities of both cat branches at time t.

    A branch whose norm diverges (probability exactly 0, e.g. the minus
    branch at t = 0) is reported with ``inf`` norm; pass ``require`` to raise
    DegenerateCat when that branch is the one you need.
    """
    beta, theta = beta_theta(t, params)
    overlap = np.cos(theta) * np.exp(-0.5 * abs(beta) ** 2)
    norms = {}
    probs = {}
    for sign in ("plus", "minus"):
        s = _sign_factor(sign)
        val = 1.0 + s * overlap
        probs[sign] = 0.5 * val
        norms[sign] = (2.0 * val) ** -0.5 if val > _DEGENERACY_FLOOR else np.inf
    if require is not None and not np.isfinite(norms[require]):
        raise DegenerateCat(f"{require} branch has vanishing norm at t = {t}")
    return CatSnapshot(
        t=t,
        beta=beta,
        theta=theta,
        norm_plus=norms["plus"],
        norm_minus=norms["minus"],
        prob_plus=probs["plus"],
        prob_minus=probs["minus"],
    )


def coherent_coefficients(beta, n_mech):
    """Fock coefficients beta^n e^{-|beta|^2/2} / sqrt(n!), by cumulative
    product (no large factorials ever materialize)."""
    steps = np.ones(n_mech, dtype=complex)
    if n_mech > 1:
        steps[1:] = beta / np.sqrt(np.arange(1, n_mech))
    return np.cumprod(steps) * np.exp(-0.5 * abs(beta) ** 2)


def _coherent_tail_check(coeff, n_mech):
    tail = 1.0 - float(np.sum(np.abs(coeff) ** 2))
    if tail > 1e-8:
        raise TruncationLoss(
            f"coherent tail beyond n_mech={n_mech} carries {tail:.2e} probability"
        )


def cat_state_vector(t, sign, params, n_mech):
    """Normalized Fock-space vector N_pm (|0> +/- e^{i theta} |beta>)."""
    snap = cat_snapshot(t, params, require=sign)
    coeff = coherent_coefficients(snap.beta, n_mech)
    _coherent_tail_check(coeff, n_mech)
    vec = _sign_factor(sign) * np.exp(1j * snap.theta) * coeff
    vec[0] += 1.0
    return snap.norm(sign) * vec


def initial_superposition_density(spec):
    """Density matrix of (|0>_a + |1>_a)|0>_b / sqrt(2)."""
    psi = np.zeros(spec.dim, dtype=complex)
    psi[spec.index(0, 0)] = 1.0 / np.sqrt(2.0)
    psi[spec.index(1, 0)] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(spec, np.outer(psi, psi.conj()))


def _theta_matrices(dm):
    spec = dm.spec
    if spec.n_cav < 2:
        raise ValueError("conditioning needs at least the 0- and 1-photon sectors")
    blocks = spec.blocks(dm.rho)
    diag = blocks[0, :, 0, :] + blocks[1, :, 1, :]
    cross = blocks[0, :, 1, :] + blocks[1, :, 0, :]
    return diag + cross, diag - cross


def branch_probabilities(dm):
    """Detection probabilities (P_plus, P_minus) of a cavity |+/-> measurement,
    defined for any state (degenerate branches included)."""
    theta_plus, theta_minus = _theta_matrices(dm)
    return (
        0.5 * float(np.trace(theta_plus).real),
        0.5 * float(np.trace(theta_minus).real),
    )


def condition_open_system(dm, t=np.nan):
    """Condition a full cavity-mechanics state on cavity |+/-> detection.

    Theta^pm_{jk} = rho_{0j,0k} + rho_{1j,1k} +/- (rho_{0j,1k} + rho_{1j,0k});
    the measurement probabilities are P_pm = sum_j Theta^pm_{jj} / 2 and the
    conditioned mechanical matrices Theta^pm / (2 P_pm).
    """
    out = []
    for sign, theta_mat in zip(("plus", "minus"), _theta_matrices(dm)):
        prob = 0.5 * float(np.trace(theta_mat).real)
        if prob < _DEGENERACY_FLOOR:
            raise DegenerateBranch(f"{sign} branch probability {prob:.2e} at t = {t}")
        rho_b = theta_mat / (2.0 * prob)
        rho_b = 0.5 * (rho_b + rho_b.conj().T)
        out.append(ConditionalState(sign=sign, t=t, rho_b=rho_b, prob=prob))
    return tuple(out)


def fidelity_vs_target(cond, t, params):
    """Overlap <Phi_pm(t)| rho_b |Phi_pm(t)> with the ideal cat branch,
    evaluated as the explicit double sum over the conditioned matrix with
    coherent-state coefficients."""
    snap = cat_snapshot(t, params, require=cond.sign)
    n_mech = cond.rho_b.shape[0]
    coeff = coherent_coefficients(snap.beta, n_mech)
    _coherent_tail_check(coeff, n_mech)
    bra = _sign_factor(cond.sign) * np.exp(-1j * snap.theta) * coeff.conj()
    bra[0] += 1.0
    bra *= snap.norm(cond.sign)
    return float(np.einsum("j,jk,k->", bra, cond.rho_b, bra.conj()).real)
