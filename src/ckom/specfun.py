"""Special functions and Fock-space matrix elements used throughout.

All of these are pure functions; the displacement matrix elements are the
exact (untruncated) values, so matrices built from them do not depend on any
cutoff except through their shape.
"""

import numpy as np
from scipy.special import gammaln


def log_factorial(n):
    """ln(n!) for non-negative integer n (scalar or array)."""
    return gammaln(np.asarray(n) + 1.0)


def laguerre_rows(k, r2, n):
    """Yield L_j^k(r2) for j = 0 .. n-1 by the forward three-term recurrence,
    broadcast over the order k and the argument r2."""
    prev = np.ones(np.broadcast(k, r2).shape)
    yield prev
    if n > 1:
        cur = 1.0 + k - r2
        yield cur
        for j in range(1, n - 1):
            prev, cur = cur, ((2 * j + 1 + k - r2) * cur - (j + k) * prev) / (j + 1)
            yield cur


def displacement_matrix(x, dim):
    """Matrix [<n|D(x)|l>] for n, l < dim, vectorized over the whole table."""
    x = complex(x)
    if x == 0:
        return np.eye(dim, dtype=complex)
    r2 = abs(x) ** 2
    # lag[j, k] = L_j^k(r2) on the j + k < dim triangle read below; the rest overflows
    k = np.arange(dim, dtype=float)
    lag = np.zeros((dim, dim))
    lag[0], lag[1:2, :-1] = 1.0, 1.0 + k[:-1] - r2
    for j in range(1, dim - 1):
        w = dim - j - 1
        lag[j + 1, :w] = ((2 * j + 1 + k[:w] - r2) * lag[j, :w]
                          - (j + k[:w]) * lag[j - 1, :w]) / (j + 1)

    lf = log_factorial(np.arange(dim))
    n_idx, l_idx = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    lo = np.minimum(n_idx, l_idx)
    dd = np.abs(n_idx - l_idx)
    mag = np.exp(0.5 * (lf[lo] - lf[lo + dd]) + dd * np.log(abs(x)) - r2 / 2)
    phase_up = -np.conj(x) / abs(x)   # l >= n branch
    phase_dn = x / abs(x)             # n > l branch
    phase = np.where(l_idx >= n_idx, phase_up ** dd, phase_dn ** dd)
    return mag * phase * lag[lo, dd]


def safe_interior_dim(x, dim):
    """Largest k such that the truncated displacement matrix for amplitude x
    is reliably unitary on its leading k x k block (deviation below ~1e-8).

    A Fock state |l> displaced by x spreads up to about l + 2|x|sqrt(l) + |x|^2,
    so the usable block shrinks with both |x| and the proximity to the cutoff.
    """
    s = np.sqrt(max(dim - 18.0 - 2.0 * abs(x), 1.0)) - abs(x)
    return max(int(np.floor(s * s)), 0) if s > 0 else 0

