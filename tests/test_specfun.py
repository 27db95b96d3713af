"""Special functions against independent oracles (scipy.special, truncated
matrix exponentials in oversized spaces, hand-expanded polynomials)."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.special

from ckom import specfun


def expm_displacement(x, dim):
    """Oracle: exponentiate the truncated generator x b+ - x* b directly."""
    b = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    return sla.expm(x * b.conj().T - np.conj(x) * b)


def closed_form_element(n, l, x):
    """Oracle: <n|D(x)|l> from scipy's generalized Laguerre polynomial."""
    lo, d = min(n, l), abs(n - l)
    phase = (x / abs(x)) ** d if n >= l else (-np.conj(x) / abs(x)) ** d
    log_mag = 0.5 * (scipy.special.gammaln(lo + 1.0) - scipy.special.gammaln(lo + d + 1.0))
    log_mag += d * np.log(abs(x)) - abs(x) ** 2 / 2
    return phase * np.exp(log_mag) * scipy.special.eval_genlaguerre(lo, d, abs(x) ** 2)


class TestScalars:
    def test_log_factorial_trivial(self):
        assert specfun.log_factorial(0) == 0.0
        assert specfun.log_factorial(1) == 0.0

    def test_log_factorial_exact_integer(self):
        assert np.isclose(specfun.log_factorial(10), np.log(3628800.0), rtol=1e-14)

    def test_log_factorial_accuracy_large(self):
        n = np.arange(0, 401)
        ours = specfun.log_factorial(n)
        ref = scipy.special.gammaln(n + 1.0)
        assert np.allclose(ours, ref, rtol=1e-12)

    # the associated Laguerre polynomials L_n^k(|x|^2) live in the table of
    # displacement_matrix: <n+k| D(x) |n> = sqrt(n!/(n+k)!) x^k e^{-|x|^2/2} L_n^k(|x|^2)
    def test_laguerre_trivials(self):
        # L_0^7 = 1: <7|D(y)|0> is the coherent amplitude y^7 e^{-y^2/2} / sqrt(7!)
        y = np.sqrt(3.3)
        assert np.isclose(specfun.displacement_matrix(y, 8)[7, 0],
                          y**7 * np.exp(-1.65) / np.sqrt(5040.0), rtol=1e-14)
        # L_1^0(1) = 0: <1|D(1)|1> vanishes
        assert abs(specfun.displacement_matrix(1.0, 2)[1, 1]) < 1e-15

    def test_laguerre_hand_expansion(self):
        # L_2^1(x) = x^2/2 - 3x + 3 = 1.625 at x = 0.5
        y = np.sqrt(0.5)
        expected = np.sqrt(2.0 / 6.0) * y * np.exp(-0.25) * 1.625
        assert np.isclose(specfun.displacement_matrix(y, 4)[3, 2], expected, rtol=1e-14)

    @pytest.mark.parametrize("n,k", [(3, 0), (10, 4), (40, 11), (59, 20)])
    @pytest.mark.parametrize("x", [0.1, 2.0, 17.0, 37.0])
    def test_laguerre_vs_scipy(self, n, k, x):
        y = np.sqrt(x)
        ref = closed_form_element(n + k, n, y)
        assert np.isclose(specfun.displacement_matrix(y, n + k + 1)[n + k, n], ref, rtol=1e-10)


class TestDisplacementElement:
    def test_zero_displacement_is_identity(self):
        assert np.array_equal(specfun.displacement_matrix(0.0, 6), np.eye(6))

    def test_vacuum_overlap(self):
        # <0|D(1)|0> = e^{-1/2}
        val = specfun.displacement_matrix(1.0, 4)[0, 0]
        assert np.isclose(val, np.exp(-0.5), rtol=1e-14)
        assert np.isclose(val, 0.60653066, atol=1e-8)

    def test_one_zero_element(self):
        # <1|D(0.5)|0> = 0.5 e^{-0.125}
        val = specfun.displacement_matrix(0.5, 4)[1, 0]
        assert np.isclose(val, 0.5 * np.exp(-0.125), rtol=1e-14)
        assert np.isclose(val, 0.44124845, atol=1e-8)

    @pytest.mark.parametrize("x", [0.3, 1.2, 0.7 + 0.4j, -2.1 + 1.3j, 3.4j])
    def test_against_expm_oracle(self, x):
        dim, big = 24, 120
        oracle = expm_displacement(x, big)[:dim, :dim]
        assert np.abs(specfun.displacement_matrix(x, dim) - oracle).max() < 1e-10

    def test_matrix_matches_elements(self):
        x = 1.1 - 0.6j
        mat = specfun.displacement_matrix(x, 18)
        for n in range(18):
            for l in range(18):
                assert np.isclose(mat[n, l], closed_form_element(n, l, x), rtol=1e-12, atol=1e-300)

    def test_symmetry(self):
        # <n|D(x)|l> = conj(<l|D(-x)|n>)
        for x in [0.8, 1.5 - 0.9j, -0.4 + 2.2j]:
            mat = specfun.displacement_matrix(x, 12)
            flipped = specfun.displacement_matrix(-x, 12).conj().T
            assert np.allclose(mat, flipped, rtol=1e-12, atol=1e-300)

    # dim 596 is the cutoff of the propagator oracle in the acceptance tests
    @pytest.mark.parametrize("x,dim", [(0.5, 30), (1.0, 60), (2.0, 60), (3.43, 120),
                                       (0.05, 596), (6.8, 596)])
    def test_unitarity_on_safe_interior(self, x, dim):
        mat = specfun.displacement_matrix(x, dim)
        k = specfun.safe_interior_dim(x, dim)
        assert k >= 2
        gram = mat.conj().T @ mat
        assert np.abs(gram[:k, :k] - np.eye(k)).max() <= 1e-8

    def test_completeness_rows(self):
        # sum_l |<n|D(x)|l>|^2 = 1 with a sufficient cutoff
        x = 3.43
        mat = specfun.displacement_matrix(x, 200)
        row_weight = np.sum(np.abs(mat[:40, :]) ** 2, axis=1)
        assert np.abs(row_weight - 1.0).max() <= 1e-8

