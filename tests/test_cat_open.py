"""The open-system cat at nbar = 0 against its closed form.

With no drive and the initial state (|0> + |1>)|0>/sqrt(2), only the photon
blocks 00, 01 and 11 are populated. At nbar = 0 the mechanical damping maps
coherent states to coherent states and kappa a rho a+ is a single jump from
the one-photon sector to the vacuum, so every block stays a sum of coherent
outer products (the mirror-cat decoherence of Bose, Jacobs & Knight, PRA 56,
4175 (1997), with the cross-Kerr shift of the sector frequency). With
z = i(omega_m - g_ck) + gamma_m/2 and beta(t) = (i g0/z)(1 - e^{-zt}), in the
lab frame and with rho01 = <0|_a rho |1>_a:

    rho11 = e^{-kappa t}/2 |beta><beta|,
    rho01 = c |0><beta|,
            c = exp(i omega_c t - kappa t/2 - i g0 int_0^t beta* ds + |beta|^2/2)/2,
    rho00 = |0><0|/2 + int_0^t (kappa/2) e^{-kappa s} |phi_s><phi_s| ds,
            phi_s = beta(s) e^{-(i omega_m + gamma_m/2)(t - s)},

with the feed-down integral taken by a 400-node Gauss-Legendre rule. Every
number of ``cat --mode open`` and of the ``--numeric`` phase-space routes
follows from coherent-state overlaps and wavefunctions, without a Fock
cutoff or a time step.
"""

import numpy as np
import pytest

from ckom import catstate
from ckom.cli import main
from ckom.lindblad import evolve, make_lindblad
from ckom.model import SystemParams
from ckom.operators import HilbertSpec

CAT = SystemParams(g0=1.2, g_ck=0.3, omega_c=100.0)
T_S = np.pi / 0.7
RATES = [(0.1, 0.01), (0.5, 0.01), (0.1, 0.1)]  # (kappa, gamma_m)


def open_cat_blocks(t, params, nodes=400):
    """The blocks "00", "11" and "01" at time t, each a list of terms
    (w, a, b) that stand for w |a><b| with normalized coherent states."""
    g0, kappa, gamma = params.g0, params.kappa, params.gamma_m
    z = 1j * (params.omega_m - params.g_ck) + 0.5 * gamma

    def beta(s):
        return (1j * g0 / z) * (1.0 - np.exp(-z * s))

    b = beta(t)
    int_beta = (1j * g0 / z) * (t - (1.0 - np.exp(-z * t)) / z)
    c = 0.5 * np.exp(1j * params.omega_c * t - 0.5 * kappa * t
                     - 1j * g0 * np.conj(int_beta) + 0.5 * abs(b) ** 2)
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * t * (x + 1.0)
    phi = beta(s) * np.exp(-(1j * params.omega_m + 0.5 * gamma) * (t - s))
    feed = 0.25 * t * kappa * w * np.exp(-kappa * s)
    return {"00": [(0.5, 0.0, 0.0)] + list(zip(feed, phi, phi)),
            "11": [(0.5 * np.exp(-kappa * t), b, b)],
            "01": [(c, 0.0, b)]}


def overlap(a, b):
    """<b|a> of two coherent states."""
    return np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(b) * a)


def fock(terms, n_mech):
    return sum(w * np.outer(catstate.coherent_coefficients(a, n_mech),
                            catstate.coherent_coefficients(b, n_mech).conj())
               for w, a, b in terms)


def open_cat_density(t, params, n_mech):
    """The full cavity-mechanics density matrix on 2 x n_mech."""
    blocks = {key: fock(terms, n_mech) for key, terms in open_cat_blocks(t, params).items()}
    return np.block([[blocks["00"], blocks["01"]], [blocks["01"].conj().T, blocks["11"]]])


def branch_terms(t, params, sign):
    """(P, terms of Theta) of a cavity |+/-> detection, Theta = rho00 + rho11
    +/- (rho01 + rho10); the conditioned state is rho_b = Theta / (2 P)."""
    blocks = open_cat_blocks(t, params)
    s = 1.0 if sign == "plus" else -1.0
    theta = (blocks["00"] + blocks["11"]
             + [(s * w, a, b) for w, a, b in blocks["01"]]
             + [(s * np.conj(w), b, a) for w, a, b in blocks["01"]])
    return 0.5 * sum(w * overlap(a, b) for w, a, b in theta).real, theta


def wavefunction(alpha, x):
    """<x|alpha> of a coherent state: a Gaussian of unit width about
    sqrt(2) Re alpha with a linear phase."""
    re, im = alpha.real, alpha.imag
    return np.pi**-0.25 * np.exp(-0.5 * (x - np.sqrt(2.0) * re) ** 2
                                 + 1j * (np.sqrt(2.0) * im * x - re * im))


def wigner_of(terms, eta):
    # W of |a><b| is (2/pi) <b|a> exp(-2 (eta - a)(eta* - b*))
    return sum(w * (2.0 / np.pi) * overlap(a, b)
               * np.exp(-2.0 * (eta - a) * (np.conj(eta) - np.conj(b)))
               for w, a, b in terms).real


def quadrature_of(terms, theta, x):
    rot = np.exp(-1j * theta)
    return sum(w * wavefunction(a * rot, x) * np.conj(wavefunction(b * rot, x))
               for w, a, b in terms).real


def read_rows(path):
    with open(path) as handle:
        return np.genfromtxt([line for line in handle if not line.startswith("#")],
                             delimiter=",", names=True)


class TestOracle:
    def test_closed_limit_is_the_propagated_cat(self):
        # kappa = gamma_m = 0: rho01 = e^{-i theta}/2 |0><beta| with beta and
        # theta from the factored propagator, and no feed-down
        p = CAT.replace(kappa=0.0, gamma_m=0.0)
        for t in (0.3 * T_S, T_S, 1.7 * T_S):
            beta, theta = catstate.beta_theta(t, p)
            blocks = open_cat_blocks(t, p)
            (c, zero, b), = blocks["01"]
            assert zero == 0.0 and abs(b - beta) < 1e-13
            assert abs(c - 0.5 * np.exp(-1j * theta)) < 1e-12
            assert all(w == 0.0 for w, _a, _b in blocks["00"][1:])

    @pytest.mark.parametrize("kappa,gamma_m", RATES)
    def test_trace_is_one(self, kappa, gamma_m):
        p = CAT.replace(kappa=kappa, gamma_m=gamma_m)
        for t in (0.3 * T_S, 2.0 * T_S):
            assert abs(sum(branch_terms(t, p, sign)[0] for sign in ("plus", "minus")) - 1) < 1e-13


@pytest.mark.parametrize("kappa,gamma_m", RATES)
def test_evolve_matches_closed_form(kappa, gamma_m):
    # evolve runs at rtol 1e-8; on 2 x 60 the whole rho agrees to 4.4e-8
    p = CAT.replace(kappa=kappa, gamma_m=gamma_m)
    spec = HilbertSpec(n_cav=2, n_mech=60)
    times = np.array([0.0, 0.3, 1.0, 2.0]) * T_S
    states = evolve(make_lindblad(p, spec, frame="lab"),
                    catstate.initial_superposition_density(spec), times)
    for t, dm in zip(times, states):
        assert np.abs(dm.rho - open_cat_density(t, p, spec.n_mech)).max() < 2e-7


def test_cat_open_rows_match_closed_form(tmp_path):
    # P = (1 +/- 2 Re c <beta|0>)/2 needs no cutoff; f = <Phi|rho_b|Phi> with
    # the ideal branch on the CLI's 60 levels. Measured: 1.2e-9 (P) and 2.8e-8
    # (f) at most.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kappa_list": [0.1, 0.5], "gamma_m_list": [0.01, 0.1]}')
    out = tmp_path / "cat.csv"
    assert main(["cat", "--mode", "open", "--t-steps", "4", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows.size == 16
    for row in rows:
        p = CAT.replace(kappa=float(row["kappa"]), gamma_m=float(row["gamma_m"]))
        t = float(row["t"])
        for sign in ("plus", "minus"):
            prob, terms = branch_terms(t, p, sign)
            assert abs(row[f"p_{sign}"] - prob) < 1e-7
            if prob < 1e-12:  # the minus branch at t = 0
                assert np.isnan(row[f"f_{sign}"])
                continue
            vec = catstate.cat_state_vector(t, sign, p, 60)
            fid = (vec.conj() @ fock(terms, 60) @ vec).real / (2.0 * prob)
            assert abs(row[f"f_{sign}"] - fid) < 1e-7


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_numeric_phase_space_matches_closed_form(sign, tmp_path):
    # the conditioned rho_b of wigner/quadrature --numeric at t_s against the
    # Wigner function and quadrature distribution of its coherent terms.
    # Measured: 1.6e-8 (Wigner) and 9.7e-9 (quadrature) at most.
    rates = ["--kappa", "0.5", "--gamma-m", "0.1"]
    wig, quad = tmp_path / "w.csv", tmp_path / "q.csv"
    assert main(["wigner", "--numeric", "--branch", sign, *rates,
                 "--re-min", "-1.5", "--re-max", "4.0", "--n-re", "12",
                 "--im-min", "-2.0", "--im-max", "2.0", "--n-im", "9",
                 "--out", str(wig)]) == 0
    assert main(["quadrature", "--numeric", "--branch", sign, *rates,
                 "--x-min", "-3.0", "--x-max", "6.0", "--n-x", "37", "--out", str(quad)]) == 0
    p = CAT.replace(omega_c=1000.0, kappa=0.5, gamma_m=0.1)
    prob, terms = branch_terms(T_S, p, sign)
    w = read_rows(wig)
    eta = w["re_eta"] + 1j * w["im_eta"]
    assert np.abs(w["w"] - wigner_of(terms, eta) / (2.0 * prob)).max() < 1e-7
    q = read_rows(quad)
    theta = float(np.angle(catstate.beta_theta(T_S, p)[0]) - np.pi / 2.0)
    assert np.abs(q["p"] - quadrature_of(terms, theta, q["x"]) / (2.0 * prob)).max() < 1e-7
