"""Weak-driving perturbative photon statistics.

The exact-sideband statistics keep every phonon sideband of the long-time
amplitudes up to the mechanical cutoff (valid at arbitrarily strong
coupling); the Lamb-Dicke variant keeps only the zeroth sideband and reduces
to closed Lorentzian forms.
"""

import warnings
from dataclasses import dataclass
from functools import cache, partial

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


def _sideband_overlaps(params, nm):
    """The factors of the amplitudes that do not depend on delta_c: the
    sector frequencies w1, w2, the shifts d1, d2, and the overlaps
    fc10 = <n-tilde(1)|0> and fc21 = <n-tilde(2)|l-tilde(1)> from exact
    displacement elements."""
    w1 = effective_mech_freq(1, params)
    w2 = effective_mech_freq(2, params)
    d1 = delta_m(1, params)
    d2 = delta_m(2, params)
    fc10 = displacement_matrix(-xi_m(1, params), nm)[:, 0]
    fc21 = displacement_matrix(xi_m(1, params) - xi_m(2, params), nm)
    return w1, w2, d1, d2, fc10, fc21


def detuned_photon_stats(params, spec):
    """Exact-sideband P1, P2 and g2 of ``params`` as a function
    ``stats(delta_c) -> PhotonStats`` of the drive detuning.

    They come from the long-time amplitudes c1, c2 of the cavity started
    empty with the mechanics in its ground state, their resonance
    denominators broadened by kappa/2 and kappa. delta_c enters only the
    denominators, so the sideband overlaps are computed by the first call
    that succeeds and kept. Raises ValueError without cavity decay, where
    the amplitudes have no long-time limit.
    """
    if params.kappa <= 0:
        raise ValueError("long-time amplitudes need kappa > 0")
    if abs(params.drive_amp) / params.kappa > 0.1:
        warnings.warn(
            "|drive_amp|/kappa > 0.1: the weak-driving expansion is unreliable",
            stacklevel=2,
        )
    overlaps = cache(partial(_sideband_overlaps, params, spec.n_mech))
    n = np.arange(spec.n_mech)
    om = params.drive_amp

    def stats(dc):
        w1, w2, d1, d2, fc10, fc21 = overlaps()
        den1 = dc + n * w1 - d1 - 0.5j * params.kappa
        c1 = -om * fc10 / den1

        den2 = 2.0 * dc + n * w2 - d2 - 1j * params.kappa
        c2 = np.sqrt(2.0) * om**2 * (fc21 @ (fc10 / den1)) / den2

        _check_tail(np.abs(c1) ** 2, "one-photon amplitudes")
        _check_tail(np.abs(c2) ** 2, "two-photon amplitudes")
        _check_tail(np.abs(fc10 / den1) ** 2, "intermediate sideband sum")
        p1 = float(np.sum(np.abs(c1) ** 2))
        if p1 == 0.0:
            raise ZeroPhotonNumber("one-photon probability is 0; g2 undefined")
        p2 = float(np.sum(np.abs(c2) ** 2))
        return PhotonStats(p0=1.0, p1=p1, p2=p2, g2=2.0 * p2 / p1**2)

    return stats


def photon_stats_exact(params, spec):
    """``detuned_photon_stats`` at the drive detuning of ``params``."""
    return detuned_photon_stats(params, spec)(params.delta_c)


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

