"""Wigner functions and rotated-quadrature distributions for the mechanics.

The pure cat branches have closed forms built from coherent states alone; the
numeric routes work for any mechanical density matrix (in particular the
open-system conditioned ones) through exact displacement matrix elements and
oscillator eigenfunctions evaluated by stable recurrences.

Conventions: W(eta) = (2/pi) Tr[rho D(eta) e^{i pi b+b} D+(eta)] with measure
d(Re eta) d(Im eta), so the Wigner function integrates to 1; the quadrature
is X(theta) = (b e^{-i theta} + b+ e^{i theta})/sqrt(2).
"""

from dataclasses import dataclass

import numpy as np

from .catstate import _ideal_branch
from .specfun import laguerre_rows, log_factorial
from .errors import TruncationLoss


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Sampled Wigner function or quadrature distribution on the caller's axes."""

    values: np.ndarray             # (n_re, n_im) for wigner, (n_x,) for quadrature


def wigner_cat_analytic(t, sign, params, re_axis, im_axis):
    """Analytic cat-branch Wigner function on the grid re_axis x im_axis."""
    s, beta, theta, norm = _ideal_branch(t, sign, params)
    eta = re_axis[:, None] + 1j * im_axis[None, :]
    gauss0 = np.exp(-2.0 * np.abs(eta) ** 2)
    gauss1 = np.exp(-2.0 * np.abs(beta - eta) ** 2)
    cross = np.exp(-0.5 * abs(beta) ** 2 + 2.0 * np.conj(beta) * eta - 2.0 * np.abs(eta) ** 2)
    interference = 2.0 * np.real(np.exp(-1j * theta) * cross)
    return PhaseSpaceGrid(values=(2.0 * norm**2 / np.pi) * (gauss0 + gauss1 + s * interference))


def quadrature_dist_cat(t, sign, theta, params, x_axis):
    """Distribution of the rotated quadrature X(theta) for a pure cat branch,
    |N (psi_0(x) + s e^{i theta_c} psi_alpha(x))|^2. X(theta) sees |beta> as
    |alpha>, alpha = beta e^{-i theta}, whose wavefunction follows from the
    Hermite generating function,
        psi_alpha(x) = pi^{-1/4} exp(-x^2/2 + sqrt(2) alpha x - alpha^2/2 - |alpha|^2/2),
    with modulus a Gaussian about sqrt(2) Re alpha: no cutoff enters."""
    s, beta, theta_c, norm = _ideal_branch(t, sign, params)
    x = np.asarray(x_axis, dtype=float)

    def psi(alpha):
        return np.pi**-0.25 * np.exp(-0.5 * x**2 + np.sqrt(2.0) * alpha * x
                                     - 0.5 * alpha**2 - 0.5 * abs(alpha) ** 2)

    amp = psi(0.0) + s * np.exp(1j * theta_c) * psi(beta * np.exp(-1j * theta))
    return PhaseSpaceGrid(values=np.abs(norm * amp) ** 2)


def _check_truncation(rho_b):
    top = float(rho_b[-1, -1].real)
    if top > 1e-6:
        raise TruncationLoss(
            f"top mechanical level holds {top:.2e} population; increase n_mech"
        )


def wigner_numeric_points(rho_b, eta):
    """Fock-basis Wigner function of a mechanical density matrix,
    W(eta) = (2/pi) sum_l (-1)^l <l| D+(eta) rho D(eta) |l>.

    Since the parity flips displacements, the sandwich collapses exactly to
    (2/pi) Tr[diag((-1)^j) rho D(2 eta)], free of truncation error whenever
    the state fits inside the cutoff. With x = 2 eta, the elements of D(x)
    split the trace into one sum per diagonal d of rho,
        e^{-|x|^2/2} sum_j (-1)^j sqrt(j!/(j+d)!) L_j^d(|x|^2)
                     [x^d rho_{j,j+d} + x*^d rho_{j+d,j}],
    each with one Laguerre recurrence over all points at once. Both sides of
    each diagonal are summed, so a non-Hermitian rho shows as an imaginary part.
    """
    rho_b = np.asarray(rho_b)
    _check_truncation(rho_b)
    dim = rho_b.shape[0]
    eta = np.asarray(eta, dtype=complex)
    x = 2.0 * eta.ravel()
    r2 = np.abs(x) ** 2
    lf = log_factorial(np.arange(dim))
    signs = (-1.0) ** np.arange(dim)
    vals = np.zeros(x.size, dtype=complex)
    x_pow = np.exp(-0.5 * r2).astype(complex)  # x^d e^{-|x|^2/2}
    for d in range(dim):
        weight = signs[: dim - d] * np.exp(0.5 * (lf[: dim - d] - lf[d:]))
        coef = weight * np.array([np.diagonal(rho_b, d), np.diagonal(rho_b, -d)])
        sums = np.zeros((2, x.size), dtype=complex)
        for j, lag in enumerate(laguerre_rows(d, r2, dim - d)):
            sums += coef[:, j, None] * lag
        vals += x_pow * sums[0]
        if d:
            vals += x_pow.conj() * sums[1]
        x_pow *= x
    vals *= 2.0 / np.pi
    worst_imag = float(np.abs(vals.imag).max())
    if worst_imag > 1e-8:
        raise TruncationLoss(
            f"Wigner values acquired imaginary part {worst_imag:.2e}; state not "
            "Hermitian or not contained in the cutoff"
        )
    return vals.real.reshape(eta.shape)


def wigner_numeric(rho_b, re_axis, im_axis):
    eta = re_axis[:, None] + 1j * im_axis[None, :]
    vals = wigner_numeric_points(rho_b, eta)
    return PhaseSpaceGrid(values=vals)


def oscillator_table(x, n_levels):
    """Harmonic-oscillator eigenfunctions psi_n(x) = H_n(x) e^{-x^2/2} /
    sqrt(sqrt(pi) 2^n n!) for n < n_levels, by the normalized recurrence
    (equivalent to the Hermite-polynomial form but immune to overflow)."""
    x = np.asarray(x, dtype=float)
    table = np.empty((n_levels, x.size))
    table[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
    if n_levels > 1:
        table[1] = np.sqrt(2.0) * x * table[0]
        for j in range(1, n_levels - 1):
            table[j + 1] = np.sqrt(2.0 / (j + 1)) * x * table[j] - np.sqrt(
                j / (j + 1.0)
            ) * table[j - 1]
    return table


def quadrature_dist_numeric(rho_b, theta, x_axis):
    """Quadrature distribution of an arbitrary mechanical density matrix via
    <X(theta)|j> = psi_j(X) e^{-i j theta} overlaps."""
    rho_b = np.asarray(rho_b)
    _check_truncation(rho_b)
    dim = rho_b.shape[0]
    phi = oscillator_table(x_axis, dim) * np.exp(-1j * theta * np.arange(dim))[:, None]
    vals = np.einsum("jx,jk,kx->x", phi, rho_b, phi.conj()).real
    return PhaseSpaceGrid(values=vals)


def wigner_marginal(rho_b, theta, x_axis, v_half_width=6.0, n_v=361):
    """Quadrature distribution obtained by integrating the numeric Wigner
    function along the direction perpendicular to theta (tomographic identity,
    used as a cross-check): P(q) = 2^{-1/2} integral W(e^{i theta}(u + i v)) dv
    with u = q/sqrt(2)."""
    rho_b = np.asarray(rho_b)
    v = np.linspace(-v_half_width, v_half_width, n_v)
    u = np.asarray(x_axis, dtype=float) / np.sqrt(2.0)
    eta = np.exp(1j * theta) * (u[:, None] + 1j * v[None, :])
    w = wigner_numeric_points(rho_b, eta)
    vals = np.trapezoid(w, v, axis=1) / np.sqrt(2.0)
    return PhaseSpaceGrid(values=vals)
