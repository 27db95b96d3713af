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

    def test_laguerre_trivials(self):
        assert specfun.laguerre_assoc(0, 7, 3.3) == 1.0
        assert np.isclose(specfun.laguerre_assoc(1, 0, 1.0), 0.0, atol=1e-15)

    def test_laguerre_hand_expansion(self):
        # L_2^1(x) = x^2/2 - 3x + 3 at x = 0.5
        assert np.isclose(specfun.laguerre_assoc(2, 1, 0.5), 1.625, rtol=1e-14)

    @pytest.mark.parametrize("n,k", [(3, 0), (10, 4), (40, 11), (59, 20)])
    @pytest.mark.parametrize("x", [0.1, 2.0, 17.0, 37.0])
    def test_laguerre_vs_scipy(self, n, k, x):
        ref = scipy.special.eval_genlaguerre(n, k, x)
        assert np.isclose(specfun.laguerre_assoc(n, k, x), ref, rtol=1e-10)

    def test_hermite_trivials(self):
        assert specfun.hermite(0, 12.3) == 1.0
        assert np.isclose(specfun.hermite(1, 0.5), 1.0, rtol=1e-15)

    def test_hermite_hand_expansion(self):
        # H_3(x) = 8x^3 - 12x at x = 1
        assert np.isclose(specfun.hermite(3, 1.0), -4.0, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 17, 31])
    def test_hermite_vs_scipy(self, n):
        x = np.linspace(-3.0, 3.0, 7)
        ref = scipy.special.eval_hermite(n, x)
        assert np.allclose(specfun.hermite(n, x), ref, rtol=1e-10)


class TestDisplacementElement:
    def test_zero_displacement_is_identity(self):
        for n, l in [(0, 0), (3, 3), (2, 5)]:
            expected = 1.0 if n == l else 0.0
            assert specfun.displacement_element(n, l, 0.0) == expected

    def test_vacuum_overlap(self):
        # <0|D(1)|0> = e^{-1/2}
        val = specfun.displacement_element(0, 0, 1.0)
        assert np.isclose(val, np.exp(-0.5), rtol=1e-14)
        assert np.isclose(val, 0.60653066, atol=1e-8)

    def test_one_zero_element(self):
        # <1|D(0.5)|0> = 0.5 e^{-0.125}
        val = specfun.displacement_element(1, 0, 0.5)
        assert np.isclose(val, 0.5 * np.exp(-0.125), rtol=1e-14)
        assert np.isclose(val, 0.44124845, atol=1e-8)

    @pytest.mark.parametrize("x", [0.3, 1.2, 0.7 + 0.4j, -2.1 + 1.3j, 3.4j])
    def test_against_expm_oracle(self, x):
        dim, big = 24, 120
        oracle = expm_displacement(x, big)[:dim, :dim]
        ours = np.array(
            [[specfun.displacement_element(n, l, x) for l in range(dim)] for n in range(dim)]
        )
        assert np.abs(ours - oracle).max() < 1e-10

    def test_matrix_matches_elements(self):
        x = 1.1 - 0.6j
        mat = specfun.displacement_matrix(x, 18)
        for n in range(18):
            for l in range(18):
                assert np.isclose(mat[n, l], specfun.displacement_element(n, l, x), rtol=1e-12, atol=1e-300)

    def test_symmetry(self):
        # <n|D(x)|l> = conj(<l|D(-x)|n>)
        for x in [0.8, 1.5 - 0.9j, -0.4 + 2.2j]:
            for n, l in [(0, 3), (5, 2), (7, 7), (11, 4)]:
                lhs = specfun.displacement_element(n, l, x)
                rhs = np.conj(specfun.displacement_element(l, n, -x))
                assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("x,dim", [(0.5, 30), (1.0, 60), (2.0, 60), (3.43, 120)])
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

