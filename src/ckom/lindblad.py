"""Open-system dynamics: master-equation integration, steady states, observables.

The master equation is
    drho/dt = -i[H, rho] + kappa D[a] + gamma_m (nbar+1) D[b] + gamma_m nbar D[b+]
with D[o] rho = o rho o+ - (o+o rho + rho o+o)/2.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .operators import HilbertSpec, Operator, build_h_driven, build_h_gom, build_mode_operators
from .errors import NonConvergence, StepSizeUnderflow, ZeroPhotonNumber


@dataclass(frozen=True)
class DensityMatrix:
    spec: HilbertSpec
    rho: np.ndarray


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian plus decay channels as (jump operator, rate) pairs.

    The rates of the standard channels are also kept by name: ``kappa`` on
    a, ``gamma_down`` = gamma_m (nbar+1) on b and ``gamma_up`` = gamma_m nbar
    on b+.
    """

    hamiltonian: Operator
    channels: tuple
    kappa: float
    gamma_down: float
    gamma_up: float

    @property
    def spec(self):
        return self.hamiltonian.spec


def make_lindblad(params, spec, frame="rotating"):
    """Standard dissipation channels around the driven rotating-frame
    Hamiltonian (``frame="rotating"``) or the undriven lab-frame one
    (``frame="lab"``, used for the cat-state runs)."""
    ops = build_mode_operators(spec)
    if frame == "rotating":
        h = build_h_driven(spec, params)
    elif frame == "lab":
        h = build_h_gom(spec, params)
    else:
        raise ValueError(f"unknown frame {frame!r}")
    gamma_down = params.gamma_m * (params.nbar_m + 1.0)
    gamma_up = params.gamma_m * params.nbar_m
    channels = ((ops.a, params.kappa), (ops.b, gamma_down), (ops.b_dag, gamma_up))
    return LindbladSpec(hamiltonian=h, channels=channels, kappa=params.kappa,
                        gamma_down=gamma_down, gamma_up=gamma_up)


def vacuum_density(spec):
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(spec, rho)


def _as_matrix(rho):
    return rho.rho if isinstance(rho, DensityMatrix) else np.asarray(rho)


def apply_liouvillian(ls, rho):
    """Right-hand side drho/dt for a density matrix (returns a plain matrix)."""
    r = _as_matrix(rho)
    h = ls.hamiltonian.matrix
    if r.shape != h.shape:
        raise ValueError(f"density matrix shape {r.shape} != Hamiltonian {h.shape}")
    out = -1j * (h @ r - r @ h)
    for o, rate in ls.channels:
        if rate == 0.0:
            continue
        odag = o.conj().T
        oo = odag @ o
        out += rate * (o @ r @ odag - 0.5 * (oo @ r + r @ oo))
    return out


def evolve(ls, rho0, t_grid, rtol=1e-8, atol=1e-10):
    """Integrate the master equation over t_grid with an adaptive embedded
    Runge-Kutta 4/5 pair.

    The raw integrator state is never renormalized; the returned matrices are
    symmetrized and trace-normalized for reporting.
    """
    d = ls.spec.dim
    r0 = _as_matrix(rho0).astype(complex)
    t_grid = np.asarray(t_grid, dtype=float)
    h = ls.hamiltonian.matrix
    chans = [
        (o, o.conj().T, rate * (o.conj().T @ o))
        for o, rate in ls.channels
        if rate > 0.0
    ]
    rates = [rate for _o, rate in ls.channels if rate > 0.0]

    def rhs(_t, y):
        r = y.reshape(d, d)
        out = -1j * (h @ r - r @ h)
        for (o, odag, oo), rate in zip(chans, rates):
            out += rate * (o @ r @ odag)
            out -= 0.5 * (oo @ r + r @ oo)
        return out.ravel()

    sol = solve_ivp(
        rhs,
        (t_grid[0], t_grid[-1]),
        r0.ravel(),
        t_eval=t_grid,
        method="RK45",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise StepSizeUnderflow(f"master-equation integration failed: {sol.message}")

    states = []
    for k in range(t_grid.size):
        r = sol.y[:, k].reshape(d, d)
        drift = np.abs(r - r.conj().T).max()
        if drift > 1e-7:
            raise StepSizeUnderflow(
                f"hermiticity drift {drift:.2e} at t={t_grid[k]}; tolerances too loose"
            )
        r = 0.5 * (r + r.conj().T)
        states.append(DensityMatrix(ls.spec, r / np.trace(r).real))
    return states


def _steady_by_integration(ls, t_max):
    if ls.kappa <= 0:
        raise ValueError("steady state by integration needs kappa > 0")
    window = 10.0 / ls.kappa
    if t_max is None:
        t_max = 200.0 / ls.kappa
    rho = vacuum_density(ls.spec)
    t = 0.0
    while t < t_max:
        prev = rho.rho
        # tighter than the plain evolve defaults: the convergence thresholds
        # sit below the 1e-8 integration floor
        rho = evolve(ls, rho, np.array([0.0, window]), rtol=1e-10, atol=1e-12)[-1]
        t += window
        resid = np.abs(apply_liouvillian(ls, rho)).max()
        if resid < 1e-10:
            return rho
        if np.abs(rho.rho - prev).max() < 1e-10 and resid < 1e-9:
            return rho
    raise NonConvergence(f"no steady state after t = {t_max:g} (residual window 10/kappa)")


def _steady_direct(ls):
    """Null vector of the vectorized Liouvillian, with the first row replaced
    by the trace constraint (row-major vec convention)."""
    d = ls.spec.dim
    h = sp.csr_matrix(ls.hamiltonian.matrix)
    eye = sp.identity(d, format="csr")
    liou = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for o, rate in ls.channels:
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
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = spla.spsolve(liou.tocsc(), rhs)
    if not np.all(np.isfinite(x)):
        raise NonConvergence(
            "vectorized Liouvillian solve is singular; the steady state is not unique"
        )
    rho = x.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = DensityMatrix(ls.spec, rho / np.trace(rho).real)
    resid = np.abs(apply_liouvillian(ls, rho)).max()
    if resid > 1e-9:
        raise NonConvergence(f"direct steady-state residual {resid:.2e} exceeds 1e-9")
    return rho


def _steady_ladder(ls, max_sweeps=200):
    """Steady state solved block-by-block in the photon indices.

    The density matrix splits into mechanical blocks rho^{m m'}; at weak
    drive the block magnitudes fall off as Omega^{m+m'}, so a global solve
    loses the tiny high-photon blocks to roundoff of the large ones. Here
    each block is solved at its own scale: the block drift is inverted as a
    Sylvester equation in the eigenbasis of the per-sector non-Hermitian
    drift, while the drive couplings, the photon-decay feed-down and the
    mechanical jump terms are iterated Gauss-Seidel style to convergence.
    The photon-vacuum block, whose drift alone is singular, is solved with
    its full mechanical dissipator and a trace constraint.

    Needs mechanical damping (the vacuum-block dissipator must have a unique
    fixed point) and a drive weaker than the cavity linewidth (contraction of
    the hierarchy); returns None otherwise, and when the Gauss-Seidel
    sweeps have not settled within ``max_sweeps``.
    """
    spec = ls.spec
    nc, nm = spec.n_cav, spec.n_mech
    h = ls.hamiltonian.matrix
    kappa, g_dn, g_up = ls.kappa, ls.gamma_down, ls.gamma_up
    if g_dn <= 0.0:
        return None
    b = np.diag(np.sqrt(np.arange(1.0, nm)), 1).astype(complex)
    b_dag = b.conj().T
    n_b = b_dag @ b
    bbd = b @ b_dag

    h_blk = [h[spec.block(m), spec.block(m)] for m in range(nc)]
    d_up = [h[spec.block(m), spec.block(m + 1)] for m in range(nc - 1)]
    if max(np.abs(d).max() for d in d_up) > 0.5 * kappa * nc:
        return None  # hierarchy not contracting at this drive strength

    mech_damp = 0.5 * (g_dn * n_b + g_up * bbd)
    eig = []
    for m in range(nc):
        g = -1j * h_blk[m] - 0.5 * kappa * m * np.eye(nm) - mech_damp
        lam, v = sla.eig(g)
        eig.append((lam, v, sla.inv(v)))

    # photon-vacuum block: full mechanical Lindblad + trace constraint
    eye = np.eye(nm)
    l00 = (
        -1j * (np.kron(h_blk[0], eye) - np.kron(eye, h_blk[0].T))
        + g_dn * (np.kron(b, b.conj()) - 0.5 * (np.kron(n_b, eye) + np.kron(eye, n_b.T)))
        + g_up * (np.kron(b_dag, b_dag.conj()) - 0.5 * (np.kron(bbd, eye) + np.kron(eye, bbd.T)))
    )
    l00[0, :] = 0.0
    l00[0, np.arange(nm) * (nm + 1)] = 1.0
    lu00 = sla.lu_factor(l00)

    rho = [[np.zeros((nm, nm), dtype=complex) for _ in range(nc)] for _ in range(nc)]
    rho[0][0][0, 0] = 1.0

    def mech_jumps(x):
        return g_dn * (b @ x @ b_dag) + g_up * (b_dag @ x @ b)

    def coupling(m, mp):
        r = np.zeros((nm, nm), dtype=complex)
        if m > 0:
            r += -1j * (d_up[m - 1].conj().T @ rho[m - 1][mp])
        if m < nc - 1:
            r += -1j * (d_up[m] @ rho[m + 1][mp])
        if mp > 0:
            r += 1j * (rho[m][mp - 1] @ d_up[mp - 1])
        if mp < nc - 1:
            r += 1j * (rho[m][mp + 1] @ d_up[mp].conj().T)
        if m < nc - 1 and mp < nc - 1:
            r += kappa * np.sqrt((m + 1.0) * (mp + 1.0)) * rho[m + 1][mp + 1]
        return r

    order = sorted(
        ((m, mp) for m in range(nc) for mp in range(m, nc)), key=lambda t: t[0] + t[1]
    )
    for _ in range(max_sweeps):
        delta = 0.0
        scale = 0.0
        for m, mp in order:
            if m == 0 and mp == 0:
                trace_target = 1.0 - sum(np.trace(rho[k][k]).real for k in range(1, nc))
                rhs = -coupling(0, 0).ravel()
                rhs[0] = trace_target
                new = sla.lu_solve(lu00, rhs).reshape(nm, nm)
            else:
                q = -coupling(m, mp) - mech_jumps(rho[m][mp])
                lam_m, v_m, vinv_m = eig[m]
                lam_p, v_p, vinv_p = eig[mp]
                q_t = vinv_m @ q @ vinv_p.conj().T
                x_t = q_t / (lam_m[:, None] + lam_p[None, :].conj())
                new = v_m @ x_t @ v_p.conj().T
            delta = max(delta, np.abs(new - rho[m][mp]).max())
            scale = max(scale, np.abs(new).max())
            rho[m][mp] = new
            if mp != m:
                rho[mp][m] = new.conj().T
        if delta <= 1e-15 * max(scale, 1.0):
            break
    else:
        return None  # the hierarchy iteration has not settled
    full = np.block(rho)
    full = 0.5 * (full + full.conj().T)
    return DensityMatrix(spec, full / np.trace(full).real)


def steady_state(ls, method="evolve", t_max=None):
    """Steady state of the master equation, by one of three methods.

    ``"ladder"`` solves the photon-block hierarchy at per-block precision.
    It is the method for weak-drive sweeps, where the high-photon
    populations sit far below the roundoff floor of any global solve. When
    its preconditions fail (no mechanical damping, a drive too strong for
    the hierarchy to contract), its iteration does not settle or its
    residual exceeds 1e-9, it falls back to ``"direct"``. Without drive
    and thermal phonons the vacuum is dark and is returned as the exact
    fixed point.

    ``"direct"`` solves the vectorized Liouvillian null space with a trace
    constraint: the general solver for any regime with a unique steady state.

    ``"evolve"`` (default) integrates from the vacuum until the residual
    settles. It is slow and serves as the independent oracle for the other
    two.
    """
    if ls.kappa <= 0:
        raise ValueError("a unique driven steady state needs kappa > 0")
    if method == "evolve":
        return _steady_by_integration(ls, t_max)
    if method == "direct":
        return _steady_direct(ls)
    if method == "ladder":
        # a and b annihilate the vacuum; only the drive and b+ lift it
        drive_free = np.abs(ls.hamiltonian.matrix[0, 1:]).max() == 0.0
        if drive_free and ls.gamma_up == 0.0:
            return vacuum_density(ls.spec)  # vacuum is dark: exact fixed point
        rho = _steady_ladder(ls)
        if rho is not None and np.abs(apply_liouvillian(ls, rho)).max() < 1e-9:
            return rho
        return _steady_direct(ls)
    raise ValueError(f"unknown steady-state method {method!r}")


def observables(dm):
    """Photon-number probabilities, mode occupations and g2 from a state."""
    spec = dm.spec
    blocks = dm.rho.reshape(spec.n_cav, spec.n_mech, spec.n_cav, spec.n_mech)
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
