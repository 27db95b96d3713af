"""Weak-driving perturbative photon statistics.

The long-time amplitudes keep every phonon sideband up to the mechanical
cutoff (valid at arbitrarily strong coupling); the Lamb-Dicke variants keep
only the zeroth sideband and reduce to closed Lorentzian forms.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .model import delta_m, effective_mech_freq, xi_m
from .specfun import displacement_matrix
from .errors import NonConvergedSum, ZeroPhotonNumber


@dataclass(frozen=True)
class PhotonStats:
    """Photon probabilities and the equal-time correlation g2 = 2 P2 / P1^2."""

    p0: float
    p1: float
    p2: float
    g2: float


@dataclass(frozen=True)
class AmplitudeTable:
    """Long-time one- and two-photon amplitudes over the phonon sideband
    index, global phases dropped (only the moduli enter the photon
    statistics)."""

    c1: np.ndarray
    c2: np.ndarray


def _check_tail(weights, label):
    """Raise if the last 10% of sideband terms still carry weight."""
    total = float(np.sum(weights))
    if total == 0.0:
        return
    k = max(int(np.ceil(0.1 * weights.size)), 1)
    if float(np.sum(weights[-k:])) > 1e-8 * total:
        raise NonConvergedSum(
            f"{label}: last {k} sideband terms exceed 1e-8 of the total; "
            "increase n_mech"
        )


def longtime_amplitudes(params, spec):
    """Long-time perturbative amplitudes for the driven cavity, starting from
    the empty cavity with the mechanics in its ground state.

    Returns an AmplitudeTable with c1, c2 the one- and two-photon sideband
    amplitudes, the resonance denominators broadened by kappa/2 and kappa;
    the vacuum amplitude stays delta_{n,0} at this order. Raises ValueError
    without cavity decay, where they have no long-time limit.
    """
    if params.kappa <= 0:
        raise ValueError("long-time amplitudes need kappa > 0")
    if abs(params.drive_amp) / params.kappa > 0.1:
        warnings.warn(
            "|drive_amp|/kappa > 0.1: the weak-driving expansion is unreliable",
            stacklevel=2,
        )
    nm = spec.n_mech
    n = np.arange(nm)
    om = params.drive_amp
    dc = params.delta_c
    w1 = effective_mech_freq(1, params)
    w2 = effective_mech_freq(2, params)
    d1 = delta_m(1, params)
    d2 = delta_m(2, params)

    # <n-tilde(1)|0> and <n-tilde(2)|l-tilde(1)> via exact displacement elements
    fc10 = displacement_matrix(-xi_m(1, params), nm)[:, 0]
    fc21 = displacement_matrix(xi_m(1, params) - xi_m(2, params), nm)

    den1 = dc + n * w1 - d1 - 0.5j * params.kappa
    c1 = -om * fc10 / den1

    den2 = 2.0 * dc + n * w2 - d2 - 1j * params.kappa
    c2 = np.sqrt(2.0) * om**2 * (fc21 @ (fc10 / den1)) / den2

    _check_tail(np.abs(c1) ** 2, "one-photon amplitudes")
    _check_tail(np.abs(c2) ** 2, "two-photon amplitudes")
    _check_tail(np.abs(fc10 / den1) ** 2, "intermediate sideband sum")
    return AmplitudeTable(c1=c1, c2=c2)


def photon_stats_exact(params, spec):
    """Exact-sideband P1, P2 and g2 from the long-time amplitudes."""
    amps = longtime_amplitudes(params, spec)
    p1 = float(np.sum(np.abs(amps.c1) ** 2))
    if p1 == 0.0:
        raise ZeroPhotonNumber("one-photon probability is 0; g2 undefined")
    p2 = float(np.sum(np.abs(amps.c2) ** 2))
    return PhotonStats(p0=1.0, p1=p1, p2=p2, g2=2.0 * p2 / p1**2)


def photon_stats_lamb_dicke(params):
    """Zeroth-sideband closed forms,

        P1 = Omega^2 / [(dc - d1)^2 + kappa^2/4],
        P2 = 2 Omega^4 / {[(2dc - d2)^2 + kappa^2][(dc - d1)^2 + kappa^2/4]},
        g2 = [4(dc - d1)^2 + kappa^2] / [(2dc - d2)^2 + kappa^2].
    """
    dc = params.delta_c
    k = params.kappa
    d1 = delta_m(1, params)
    d2 = delta_m(2, params)
    lor1 = (dc - d1) ** 2 + k**2 / 4.0
    lor2 = (2.0 * dc - d2) ** 2 + k**2
    p1 = params.drive_amp**2 / lor1
    p2 = 2.0 * params.drive_amp**4 / (lor2 * lor1)
    g2 = (4.0 * (dc - d1) ** 2 + k**2) / lor2
    return PhotonStats(p0=1.0, p1=p1, p2=p2, g2=g2)

