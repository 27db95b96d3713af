"""Physical parameters and closed-form spectral quantities of the undriven system.

Everything is expressed in units of the mechanical frequency, so ``omega_m = 1``
is the canonical choice and all couplings/rates are ratios.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularDenominator


@dataclass(frozen=True)
class SystemParams:
    """All rates and frequencies of the cavity-mechanics system.

    Parameters
    ----------
    g0 : float
        Single-photon optomechanical coupling strength.
    g_ck : float
        Cross-Kerr coupling strength (shifts the mechanical frequency by
        -g_ck per cavity photon).
    kappa : float
        Cavity-field decay rate.
    gamma_m : float
        Mechanical decay rate.
    nbar_m : float
        Mean thermal phonon number of the mechanical bath (direct input,
        no temperature conversion).
    delta_c : float
        Cavity-drive detuning omega_c - omega_d (rotating frame).
    drive_amp : float
        Cavity drive strength Omega.
    omega_c : float
        Bare cavity frequency. Only enters lab-frame quantities (the fast
        phase of the cat-state superposition); rotating-frame dynamics use
        ``delta_c`` instead.
    omega_m : float
        Mechanical frequency, the unit of everything else.
    """

    g0: float = 0.0
    g_ck: float = 0.0
    kappa: float = 0.0
    gamma_m: float = 0.0
    nbar_m: float = 0.0
    delta_c: float = 0.0
    drive_amp: float = 0.0
    omega_c: float = 100.0
    omega_m: float = 1.0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} = {value} must be finite")
        if self.omega_m <= 0:
            raise ValueError("omega_m must be positive")
        for name in ("kappa", "gamma_m", "nbar_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)


def effective_mech_freq(m, params):
    """Mechanical frequency seen by the m-photon sector, omega_m - m*g_ck."""
    w = params.omega_m - m * params.g_ck
    if w <= 0:
        raise SingularDenominator(
            f"omega_m - m*g_ck = {w} for m = {m}; the m-photon sector is unstable"
        )
    return w


def xi_m(m, params):
    """m-photon induced mechanical displacement m*g0 / (omega_m - m*g_ck)."""
    return m * params.g0 / effective_mech_freq(m, params)


def delta_m(m, params):
    """m-photon energy shift g0^2 m^2 / (omega_m - m*g_ck)."""
    return params.g0**2 * m**2 / effective_mech_freq(m, params)


def optimal_detuning(kind, n, params):
    """Drive detuning that makes the n-th sideband transition resonant.

    ``kind="single"`` targets |0,0> -> |1, n-tilde(1)>:
        delta_c = delta_m(1) - n*(omega_m - g_ck).
    ``kind="two-photon"`` targets |0,0> -> |2, n-tilde(2)>:
        delta_c = [delta_m(2) - n*(omega_m - 2 g_ck)] / 2.
    """
    if kind == "single":
        return delta_m(1, params) - n * effective_mech_freq(1, params)
    if kind == "two-photon":
        return (delta_m(2, params) - n * effective_mech_freq(2, params)) / 2.0
    raise ValueError(f"unknown resonance kind {kind!r}")


def resonance_curve_g0(n, g_ck, omega_m=1.0):
    """Coupling g0 at which the one-photon dip coincides with the n-th
    two-photon peak:  g0/omega_m = sqrt[(n/2)(1 - 2 g_ck/omega_m)^2 (1 - g_ck/omega_m)].
    """
    r = g_ck / omega_m
    if 1.0 - 2.0 * r <= 0:
        raise ValueError(f"g_ck/omega_m = {r} is outside the domain [0, 1/2)")
    if r < 0:
        raise ValueError("g_ck must be non-negative")
    return omega_m * np.sqrt((n / 2.0) * (1.0 - 2.0 * r) ** 2 * (1.0 - r))
