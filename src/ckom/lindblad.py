"""Open-system dynamics: master-equation integration, steady states, observables.

The master equation is
    drho/dt = -i[H, rho] + kappa D[a] + gamma_m (nbar+1) D[b] + gamma_m nbar D[b+]
with D[o] rho = o rho o+ - (o+o rho + rho o+o)/2. Time evolution and the
ladder steady state use its photon-number block form (``_BlockGenerator``);
the direct steady state builds it from the full-space operators instead.
``steady_state`` has one method per role: ``ladder`` for every sweep and
``direct`` as its fallback and independent reference.

Everything here runs on numpy: time evolution uses ``solve_ivp``, a port of
scipy's RK45, and only the direct steady state imports ``scipy.sparse``.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .operators import HilbertSpec, build_h_gom, build_mode_operators, destroy
from .errors import NonConvergence, SolverFallback, StepSizeUnderflow, ZeroPhotonNumber


@dataclass(frozen=True)
class DensityMatrix:
    spec: HilbertSpec
    rho: np.ndarray


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian ``hamiltonian`` + ``drive`` (a+ + a) on ``spec``, the matrix
    its photon-number-conserving part, and the rates of the decay channels:
    ``kappa`` on a, ``gamma_down`` = gamma_m (nbar+1) on b and ``gamma_up`` =
    gamma_m nbar on b+. ``omega_c`` is the frame's a+a frequency: 0 in the
    rotating frame, whose drive does not commute with a+a."""

    spec: HilbertSpec
    hamiltonian: np.ndarray
    drive: float
    kappa: float
    gamma_down: float
    gamma_up: float
    omega_c: float


def make_lindblad(params, spec, frame="rotating"):
    """Standard dissipation channels around the rotating-frame Hamiltonian,
    detuned by delta_c and driven by drive_amp (``frame="rotating"``), or the
    undriven lab-frame one (``frame="lab"``, used for the cat-state runs)."""
    if frame == "rotating":
        h = build_h_gom(spec, params.replace(omega_c=params.delta_c))
        drive, omega_c = params.drive_amp, 0.0
    elif frame == "lab":
        h, drive, omega_c = build_h_gom(spec, params), 0.0, params.omega_c
    else:
        raise ValueError(f"unknown frame {frame!r}")
    return LindbladSpec(spec=spec, hamiltonian=h, drive=drive, kappa=params.kappa,
                        gamma_down=params.gamma_m * (params.nbar_m + 1.0),
                        gamma_up=params.gamma_m * params.nbar_m, omega_c=omega_c)


def vacuum_density(spec):
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(spec, rho)


def _as_matrix(rho):
    return rho.rho if isinstance(rho, DensityMatrix) else np.asarray(rho)


class _BlockGenerator:
    """The master equation on the photon-number blocks rho^{m mp} of rho.

    The drive couples only neighbouring photon numbers and each channel maps
    a block only onto its neighbours, so

        d rho^{m mp}/dt = G_m rho^{m mp} + rho^{m mp} G_mp^+ + rest(m, mp)
                          - i omega_c (m - mp) rho^{m mp}

    with the sector drifts G_m = -i (H_mm - omega_c m) - kappa m/2 -
    (gamma_down b+b + gamma_up b b+)/2, and ``rest`` the drive couplings
    Omega sqrt(m+1), the photon feed-down kappa sqrt((m+1)(mp+1)) rho^{m+1,mp+1}
    and the mechanical jumps gamma_down b rho^{m mp} b+ + gamma_up b+ rho^{m mp} b.
    The frame's omega_c a+a commutes with all else: ``apply`` leaves its rate
    ``frame_rate`` out, and ``evolve`` applies its flow in closed form.
    ``apply`` evaluates these terms by diagonals (``_bands``), the ladder by blocks.
    """

    def __init__(self, ls):
        self.spec = spec = ls.spec
        self.kappa, self.gamma_down, self.gamma_up = ls.kappa, ls.gamma_down, ls.gamma_up
        h = spec.blocks(ls.hamiltonian)
        b = destroy(spec.n_mech)
        damp = 0.5 * (ls.gamma_down * (b.conj().T @ b) + ls.gamma_up * (b @ b.conj().T))
        eye = np.eye(spec.n_mech)
        w = ls.omega_c * np.arange(spec.n_cav)
        self.frame_rate = -1j * (w[:, None, None, None] - w[None, None, :, None])
        self.drift = [-1j * (h[m, :, m, :] - w[m] * eye) - 0.5 * ls.kappa * m * eye - damp
                      for m in range(spec.n_cav)]
        self.drive = ls.drive * np.sqrt(np.arange(1.0, spec.n_cav))  # <m+1|H|m>
        self.mech_root = np.sqrt(np.arange(1.0, spec.n_mech))  # <q|b|q+1>
        self.jump_weight = np.outer(self.mech_root, self.mech_root)

    def rest(self, v, m, mp):
        """Drive couplings, feed-down and mechanical jumps of block (m, mp),
        read from the block view ``v`` of rho."""
        last = self.spec.n_cav - 1
        x = v[m, :, mp, :]
        r = np.zeros(x.shape, dtype=complex)
        if m > 0:
            r -= 1j * (self.drive[m - 1] * v[m - 1, :, mp, :])
        if m < last:
            r -= 1j * (self.drive[m] * v[m + 1, :, mp, :])
        if mp > 0:
            r += 1j * (self.drive[mp - 1] * v[m, :, mp - 1, :])
        if mp < last:
            r += 1j * (self.drive[mp] * v[m, :, mp + 1, :])
        if m < last and mp < last:
            r += self.kappa * np.sqrt((m + 1.0) * (mp + 1.0)) * v[m + 1, :, mp + 1, :]
        # b x b+ and b+ x b shift x one step along the diagonal
        r[:-1, :-1] += self.gamma_down * self.jump_weight * x[1:, 1:]
        r[1:, 1:] += self.gamma_up * self.jump_weight * x[:-1, :-1]
        return r

    @cached_property
    def _bands(self):
        """The terms of ``drift`` and ``rest`` as K rho + rho K+ + sum_c J_c rho J_c+
        by nonzero diagonals: K's at the drift blocks' offsets and +-n_mech (the
        drive), and the weights of the jumps a, b, b+ (offsets n_mech, 1, -1)."""
        nc, nm, dim = self.spec.n_cav, self.spec.n_mech, self.spec.dim
        g, q = np.array(self.drift), np.arange(nm)
        diags = {}  # offset o: K[i, i + o] for every i
        rows, cols = np.nonzero(np.any(g != 0, axis=0))
        for o in sorted(set((cols - rows).tolist())):
            inside = (q + o >= 0) & (q + o < nm)
            diags[o] = (g[:, q, np.clip(q + o, 0, nm - 1)] * inside).ravel()
        if self.drive.any():
            step, pad = np.repeat(-1j * self.drive, nm), np.zeros(nm)
            diags[nm], diags[-nm] = np.append(step, pad), np.append(pad, step)
        k0 = diags.pop(0, np.zeros(dim))
        cav = np.append(np.repeat(np.sqrt(np.arange(1.0, nc)), nm), np.zeros(nm))  # a[i, i + nm]
        down = np.tile(np.append(self.mech_root, 0.0), nc)  # b[i, i + 1]
        up = np.append(0.0, down[:-1])  # b+[i, i - 1]
        jumps = [(o * (dim + 1), np.outer(rate * w, w).ravel()) for o, rate, w in
                 ((nm, self.kappa, cav), (1, self.gamma_down, down), (-1, self.gamma_up, up))
                 if rate != 0.0]
        return np.add.outer(k0, k0.conj()).ravel(), list(diags.items()), jumps

    def apply(self, rho):
        """d rho/dt of a full matrix without the frame rate, by diagonals."""
        diag0, diags, jumps = self._bands
        dim = rho.shape[0]
        r = rho.ravel()
        flat = diag0 * r
        out = flat.reshape(rho.shape)
        for o, k in diags:
            lo, hi, kc = max(0, -o), dim - max(0, o), k.conj()  # i with i + o inside rho
            out[lo:hi] += k[lo:hi, None] * rho[lo + o:hi + o]  # K rho: rows shifted by o
            # rho K+: columns shifted by o, as r shifted by o (kc[j] = 0 where j + o
            # wraps a row) on all rows but the one it would take out of rho
            full, part = (slice(1, dim), 0) if o < 0 else (slice(0, dim - 1), dim - 1)
            out[full] += r[full.start * dim + o:full.stop * dim + o].reshape(-1, dim) * kc
            out[part, lo:hi] += rho[part, lo + o:hi + o] * kc[lo:hi]
        for s, w in jumps:  # J rho J+: rows and columns shifted by o, r by o (dim + 1)
            lo, hi = max(0, -s), r.size - max(0, s)
            flat[lo:hi] += w[lo:hi] * r[lo + s:hi + s]
        return out

    def liouvillian(self, rho):
        """d rho/dt of a full matrix, frame rate included."""
        return self.apply(rho) + (self.frame_rate * self.spec.blocks(rho)).reshape(rho.shape)


def _constrained_liouvillian(h, jumps):
    """Sparse vectorized Liouvillian of -i[h, .] + sum rate D[o] over the
    (o, rate) pairs in ``jumps`` (row-major vec convention), with its first
    row replaced by the trace constraint."""
    import scipy.sparse as sp

    d = h.shape[0]
    h = sp.csr_matrix(h)
    eye = sp.identity(d, format="csr")
    liou = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for o, rate in jumps:
        if rate == 0.0:
            continue
        os = sp.csr_matrix(o)
        oo = (os.conj().T @ os).tocsr()
        liou = liou + rate * (
            sp.kron(os, os.conj()) - 0.5 * sp.kron(oo, eye) - 0.5 * sp.kron(eye, oo.T)
        )
    liou = liou.tolil()
    trace_row = np.zeros(d * d)
    trace_row[np.arange(d) * (d + 1)] = 1.0
    liou[0, :] = trace_row
    return liou


def apply_liouvillian(ls, rho):
    """Right-hand side drho/dt for a density matrix (returns a plain matrix)."""
    r = _as_matrix(rho)
    h = ls.hamiltonian
    if r.shape != h.shape:
        raise ValueError(f"density matrix shape {r.shape} != Hamiltonian {h.shape}")
    return _BlockGenerator(ls).liouvillian(r)


# Dormand-Prince 5(4) (Dormand & Prince 1980) with Shampine's 4th-order dense
# output (Math. Comp. 46, 135 (1986)): the tableau of scipy's RK45
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


class IvpResult(NamedTuple):
    y: np.ndarray  # (len(y0), len(t_eval)); None when the integration failed
    nfev: int
    success: bool
    message: str


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, t_eval, rtol=1e-3, atol=1e-6):
    """y at the increasing times ``t_eval`` in ``t_span`` = (t0, t1), t1 > t0,
    for dy/dt = fun(t, y), y(t0) = y0, by adaptive Dormand-Prince 5(4) steps.

    It takes the steps of ``scipy.integrate.solve_ivp(method="RK45")``: the
    same initial step (Hairer, Norsett & Wanner, Sec. II.4), RMS error norm,
    controller and dense output. It fails (``success`` False) when y0 or its
    derivative, the error norm or the step is not finite (scipy's controller
    would retry a NaN step forever) or the step falls below ten spacings of t.
    """
    t, t_end = map(float, t_span)
    t_eval = np.asarray(t_eval, dtype=float)
    if not t < t_end or t_eval[0] < t or t_eval[-1] > t_end or np.any(np.diff(t_eval) < 0):
        raise ValueError("t_eval must increase within t_span = (t0, t1), t1 > t0")
    y = np.asarray(y0)
    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    f = rhs(t, y)
    if not (np.isfinite(y).all() and np.isfinite(f).all()):
        return IvpResult(None, nfev, False, "initial state or its derivative is not finite")
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = _rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_end - t)

    k = np.empty((7, y.size), dtype=y.dtype)
    ys, i_eval = [], 0
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not min_step <= h_abs < np.inf:  # NaN fails here too
                return IvpResult(None, nfev, False, f"step size {h_abs:.3g} is below "
                                 f"{min_step:.3g} or not finite")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            k[0] = f
            for s in range(1, 6):
                k[s] = rhs(t + _DP_C[s] * h, y + (_DP_A[s, :s] @ k[:s]) * h)
            y_new = y + h * (_DP_B @ k[:-1])
            k[-1] = f_new = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms((_DP_E @ k) * h / scale)
            if not np.isfinite(error_norm):
                return IvpResult(None, nfev, False, f"error norm {error_norm} is not finite")
            if error_norm < 1:
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
        h_abs *= min(1, factor) if rejected else factor
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        # every t_eval up to and including the new t, from the step's interpolant
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i_eval:
            x = (t_eval[i_eval:i_new] - t_old) / (t - t_old)
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            ys.append((t - t_old) * ((_DP_P.T @ k).T @ p) + y_old[:, None])
            i_eval = i_new
    return IvpResult(np.hstack(ys), nfev, True, "reached the end of the interval")


def evolve(ls, rho0, t_grid, rtol=1e-8, atol=1e-10):
    """Integrate the master equation over t_grid with ``solve_ivp``, the
    adaptive Dormand-Prince 5(4) pair of scipy's RK45.

    The integrator runs without the frame's omega_c a+a term, whose phase
    each reported state gets back exactly. The raw integrator state is never
    renormalized; the returned matrices are symmetrized and trace-normalized.
    A grid that does not advance (every time equal to t_grid[0]) returns the
    initial state at each time, without integrating. A failed integration,
    a NaN in the generator or in rho0 included, raises StepSizeUnderflow.
    """
    d = ls.spec.dim
    r0 = _as_matrix(rho0).astype(complex)
    t_grid = np.asarray(t_grid, dtype=float)
    gen = _BlockGenerator(ls)
    if t_grid[-1] == t_grid[0]:
        y = np.repeat(r0.reshape(-1, 1), t_grid.size, axis=1)
    else:
        sol = solve_ivp(
            lambda _t, y: gen.apply(y.reshape(d, d)).ravel(),
            (t_grid[0], t_grid[-1]),
            r0.ravel(),
            t_eval=t_grid,
            rtol=rtol,
            atol=atol,
        )
        if not sol.success:
            raise StepSizeUnderflow(f"master-equation integration failed: {sol.message}")
        y = sol.y

    states = []
    for k in range(t_grid.size):
        r = y[:, k].reshape(d, d)
        drift = np.abs(r - r.conj().T).max()
        if drift > 1e-7:
            raise StepSizeUnderflow(
                f"hermiticity drift {drift:.2e} at t={t_grid[k]}; tolerances too loose"
            )
        phase = np.exp(gen.frame_rate * (t_grid[k] - t_grid[0]))
        r = (ls.spec.blocks(r) * phase).reshape(d, d)
        r = 0.5 * (r + r.conj().T)
        states.append(DensityMatrix(ls.spec, r / np.trace(r).real))
    return states


def _steady_direct(ls):
    """Null vector of the vectorized Liouvillian with the trace constraint,
    built from the full-space mode operators, drive included, independently
    of the block form."""
    import scipy.sparse.linalg as spla

    d = ls.spec.dim
    ops = build_mode_operators(ls.spec)
    liou = _constrained_liouvillian(
        ls.hamiltonian + ls.drive * (ops.a_dag + ops.a),
        ((ops.a, ls.kappa), (ops.b, ls.gamma_down), (ops.b_dag, ls.gamma_up)))
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    liou = liou.tocsc()
    try:
        lu = spla.splu(liou)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NonConvergence(
            "vectorized Liouvillian is singular; the steady state is not unique"
        ) from exc
    x = lu.solve(rhs)
    # iterative refinement with the same factors: the weak-drive blocks sit
    # near 1e-12 and would otherwise carry the solve's backward error
    for _ in range(2):
        x += lu.solve(rhs - liou @ x)
    rho = x.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = DensityMatrix(ls.spec, rho / np.trace(rho).real)
    resid = np.abs(apply_liouvillian(ls, rho)).max()
    if resid > 1e-9:
        raise NonConvergence(f"direct steady-state residual {resid:.2e} exceeds 1e-9")
    return rho


def _vacuum_solver(energies, gamma_down, gamma_up):
    """Solver of the photon-vacuum block's equation
    -i[H_00, X] + gamma_down D[b]X + gamma_up D[b+]X = R for H_00 =
    diag(energies), with the (0, 0) equation replaced by Tr X = R[0, 0].

    With H_00 diagonal, every term keeps the offset k = i - j of X_ij fixed,
    so the block splits into 2 n - 1 tridiagonal systems along the diagonals
    of X; only k = 0 carries the trace row. They are padded to n unknowns
    and inverted once as one stack; ``solve`` gathers the diagonals of R,
    applies the inverses and scatters the result back.
    """
    n = energies.size
    q = np.arange(n)  # position along a diagonal
    k = np.arange(1 - n, n)[:, None]
    i, j = q + np.maximum(k, 0), q + np.maximum(-k, 0)
    valid = q < n - np.abs(k)
    idx = np.where(valid, i * n + j, n * n)  # padding reads and writes a spare slot
    i, j = np.minimum(i, n - 1), np.minimum(j, n - 1)
    up_occ = np.where(q < n - 1, q + 1.0, 0.0)  # diagonal of the truncated b b+
    diag = (-1j * (energies[i] - energies[j]) - 0.5 * gamma_down * (i + j)
            - 0.5 * gamma_up * (up_occ[i] + up_occ[j]))
    mat = np.zeros((2 * n - 1, n, n), dtype=complex)
    mat[:, q, q] = np.where(valid, diag, 1.0)
    # b X b+ feeds position q from q + 1, b+ X b feeds q + 1 from q
    weight = valid[:, 1:] * np.sqrt(i[:, 1:] * j[:, 1:])
    mat[:, q[:-1], q[1:]] = gamma_down * weight
    mat[:, q[1:], q[:-1]] = gamma_up * weight
    mat[n - 1, 0, :] = 1.0  # k = 0, position 0: the trace row
    inv = np.linalg.inv(mat)

    def solve(rhs):
        flat = np.append(rhs.ravel(), 0.0)
        flat[idx] = (inv @ flat[idx][:, :, None])[:, :, 0]
        return flat[:-1].reshape(n, n)

    return solve


def _steady_ladder(ls, max_sweeps=200):
    """Steady state solved block-by-block in the photon indices.

    At weak drive the block magnitudes fall off as Omega^{m+m'}, so a global
    solve loses the tiny high-photon blocks to roundoff of the large ones.
    Here each block of the block form is solved at its own scale: its drift
    is inverted as a Sylvester equation in the eigenbases of the sector
    drifts, while the rest (drive couplings, photon feed-down, mechanical
    jumps) is iterated Gauss-Seidel style to convergence. The photon-vacuum
    block, whose drift alone is singular, is solved with its mechanical
    jumps and a trace constraint, one diagonal offset at a time
    (``_vacuum_solver``); both it and the sector drifts are set up per solve.

    Needs mechanical damping (the vacuum-block dissipator must have a unique
    fixed point), a diagonal H_00 and a drive weaker than the cavity
    linewidth (contraction of the hierarchy). Returns (state, None), or
    (None, the reason) when these fail, the Gauss-Seidel sweeps have not
    settled within ``max_sweeps`` or the residual |d rho/dt| exceeds 1e-9.
    """
    spec = ls.spec
    nc = spec.n_cav
    if ls.gamma_down <= 0.0:
        return None, "no mechanical damping"
    h00 = spec.blocks(ls.hamiltonian)[0, :, 0, :]
    energies = np.diagonal(h00)
    if np.count_nonzero(h00 - np.diag(energies)):
        return None, "photon-vacuum Hamiltonian is not diagonal"
    if abs(ls.drive) * np.sqrt(nc - 1.0) > 0.5 * ls.kappa * nc:
        return None, "drive too strong for the contraction test"
    gen = _BlockGenerator(ls)

    eig = []
    for g in gen.drift:
        lam, v = np.linalg.eig(g)
        eig.append((lam, v, np.linalg.inv(v)))
    solve00 = _vacuum_solver(energies, ls.gamma_down, ls.gamma_up)

    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[0, 0] = 1.0
    blocks = spec.blocks(rho)
    order = sorted(
        ((m, mp) for m in range(nc) for mp in range(m, nc)), key=lambda t: t[0] + t[1]
    )
    for _ in range(max_sweeps):
        delta = 0.0
        scale = 0.0
        for m, mp in order:
            prev = blocks[m, :, mp, :].copy()
            if m == 0 and mp == 0:
                # zeroed first, so rest holds only the neighbours' terms; the
                # block's own mechanical jumps are in solve00
                blocks[0, :, 0, :] = 0.0
                rhs = -gen.rest(blocks, 0, 0)
                rhs[0, 0] = 1.0 - sum(np.trace(blocks[k, :, k, :]).real for k in range(1, nc))
                new = solve00(rhs)
            else:
                q = -gen.rest(blocks, m, mp)
                lam_m, v_m, vinv_m = eig[m]
                lam_p, v_p, vinv_p = eig[mp]
                q_t = vinv_m @ q @ vinv_p.conj().T
                x_t = q_t / (lam_m[:, None] + lam_p[None, :].conj())
                new = v_m @ x_t @ v_p.conj().T
            delta = max(delta, np.abs(new - prev).max())
            scale = max(scale, np.abs(new).max())
            blocks[m, :, mp, :] = new
            if mp != m:
                blocks[mp, :, m, :] = new.conj().T
        if delta <= 1e-15 * max(scale, 1.0):
            break
    else:
        return None, f"not settled after {max_sweeps} sweeps"
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    del eig, solve00  # freed before the residual's tables: a lower peak memory
    resid = np.abs(gen.liouvillian(rho)).max()
    if not resid < 1e-9:
        return None, f"residual {resid:.2e} above 1e-9"
    return DensityMatrix(spec, rho), None


def steady_state(ls, method="ladder"):
    """Steady state of the master equation, by one of two methods.

    ``"ladder"`` (default) solves the photon-block hierarchy at per-block
    precision. It is the method for weak-drive sweeps, where the high-photon
    populations sit far below the roundoff floor of any global solve. When
    its preconditions fail (no mechanical damping, a non-diagonal H_00, a
    drive too strong for the hierarchy to contract), its iteration does not
    settle or its residual exceeds 1e-9, it warns ``SolverFallback`` with the
    reason and falls back to ``"direct"``. Without drive and thermal phonons
    the vacuum is dark and is returned as the exact fixed point.

    ``"direct"`` solves the vectorized Liouvillian null space with a trace
    constraint, refined iteratively: the general solver for any regime with
    a unique steady state, and the independent reference for the ladder.
    """
    if ls.kappa <= 0:
        raise ValueError("a unique driven steady state needs kappa > 0")
    if method == "direct":
        return _steady_direct(ls)
    if method == "ladder":
        # a and b annihilate the vacuum; only the drive, b+ and a force on
        # the mechanics in the photon vacuum (hamiltonian row 0) lift it
        if ls.drive == 0.0 and ls.gamma_up == 0.0 and not ls.hamiltonian[0, 1:].any():
            return vacuum_density(ls.spec)  # vacuum is dark: exact fixed point
        rho, reason = _steady_ladder(ls)
        if rho is not None:
            return rho
        warnings.warn(f"ladder falls back to direct: {reason}", SolverFallback, stacklevel=2)
        return _steady_direct(ls)
    raise ValueError(f"unknown steady-state method {method!r}")


def observables(dm):
    """Photon-number probabilities, mode occupations and g2 from a state."""
    spec = dm.spec
    blocks = spec.blocks(dm.rho)
    p = np.array([np.trace(blocks[m, :, m, :]).real for m in range(spec.n_cav)])
    m_idx = np.arange(spec.n_cav)
    n_photon = float(np.sum(p * m_idx))
    n_phonon = float(
        sum(np.sum(np.diagonal(blocks[m, :, m, :]).real * np.arange(spec.n_mech))
            for m in range(spec.n_cav))
    )
    out = {
        "p0": float(p[0]),
        "p1": float(p[1]) if spec.n_cav > 1 else 0.0,
        "p2": float(p[2]) if spec.n_cav > 2 else 0.0,
        "n_photon": n_photon,
        "n_phonon": n_phonon,
    }
    if n_photon < 1e-14:
        raise ZeroPhotonNumber("mean photon number below 1e-14; g2 undefined")
    out["g2"] = float(np.sum(p * m_idx * (m_idx - 1))) / n_photon**2
    return out
