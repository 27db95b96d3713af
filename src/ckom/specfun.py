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


def laguerre_assoc(n, k, x):
    """Associated Laguerre polynomial L_n^k(x) by the three-term recurrence.

    Stable for degrees up to a few hundred; ``x`` may be a scalar or array.
    """
    if n < 0:
        raise ValueError("degree n must be non-negative")
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    if n == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l_cur = 1.0 + k - x
    for j in range(1, n):
        l_prev, l_cur = l_cur, ((2 * j + 1 + k - x) * l_cur - (j + k) * l_prev) / (j + 1)
    return l_cur if l_cur.ndim else float(l_cur)


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x) via H_{j+1} = 2x H_j - 2j H_{j-1}."""
    if n < 0:
        raise ValueError("degree n must be non-negative")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h_cur = 2.0 * x
    for j in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * j * h_prev
    return h_cur if h_cur.ndim else float(h_cur)


def displacement_element(n, l, x):
    """Exact Fock matrix element <n| D(x) |l> of the displacement operator
    D(x) = exp(x b+ - x* b).

    The sqrt(n!/l!) prefactor and |x|^|n-l| are combined in log space so the
    result stays finite for indices of a few hundred.
    """
    if n < 0 or l < 0:
        raise ValueError("Fock indices must be non-negative")
    x = complex(x)
    if x == 0:
        return 1.0 + 0.0j if n == l else 0.0 + 0.0j
    r2 = abs(x) ** 2
    if l >= n:
        d = l - n
        phase = (-np.conj(x) / abs(x)) ** d
        lag = laguerre_assoc(n, d, r2)
        log_mag = 0.5 * (log_factorial(n) - log_factorial(l)) + d * np.log(abs(x)) - r2 / 2
    else:
        d = n - l
        phase = (x / abs(x)) ** d
        lag = laguerre_assoc(l, d, r2)
        log_mag = 0.5 * (log_factorial(l) - log_factorial(n)) + d * np.log(abs(x)) - r2 / 2
    return complex(phase * lag * np.exp(log_mag))


def displacement_matrix(x, dim):
    """Matrix [<n|D(x)|l>] for n, l < dim, vectorized over the whole table."""
    x = complex(x)
    if x == 0:
        return np.eye(dim, dtype=complex)
    r2 = abs(x) ** 2
    # Laguerre table lag[j, k] = L_j^k(r2), recurrence in j for all k at once
    ks = np.arange(dim, dtype=float)
    lag = np.empty((dim, dim))
    lag[0] = 1.0
    if dim > 1:
        lag[1] = 1.0 + ks - r2
        for j in range(1, dim - 1):
            lag[j + 1] = ((2 * j + 1 + ks - r2) * lag[j] - (j + ks) * lag[j - 1]) / (j + 1)

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

