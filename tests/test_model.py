"""Closed-form spectral quantities: displacements, shifts, optimal detunings,
and the simultaneous-resonance locus."""

import numpy as np
import pytest

from ckom import model
from ckom.model import SystemParams
from ckom.errors import SingularDenominator

FIG2 = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1)

TABLE_SINGLE = [0.594, -0.231, -1.056, -1.881, -2.706, -3.531]
TABLE_TWO = {0: 1.508, 1: 1.183, 2: 0.858, 3: 0.533, 5: -0.117, 8: -1.092}


class TestParams:
    def test_rates_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SystemParams(kappa=-0.1)
        with pytest.raises(ValueError):
            SystemParams(omega_m=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["g0", "kappa", "nbar_m", "omega_c", "omega_m"])
    def test_fields_must_be_finite(self, name, value):
        # nan < 0 is false, so the sign checks alone let NaN through
        with pytest.raises(ValueError, match=f"{name} = .* must be finite"):
            SystemParams(**{name: value})

    def test_replace(self):
        p = FIG2.replace(delta_c=0.5)
        assert p.delta_c == 0.5 and p.g0 == FIG2.g0


class TestDisplacementAndShift:
    def test_no_photon_no_force(self):
        assert model.xi_m(0, FIG2) == 0.0
        assert model.delta_m(0, FIG2) == 0.0

    def test_xi_exact_rational(self):
        assert np.isclose(model.xi_m(1, FIG2), 28.0 / 33.0, rtol=1e-15)

    def test_xi_reduces_without_cross_kerr(self):
        p = SystemParams(g0=0.7, g_ck=0.0)
        assert model.xi_m(1, p) == 0.7

    def test_delta_matches_optimal_detunings(self):
        assert np.isclose(model.delta_m(1, FIG2), 0.594, atol=1e-3)
        assert np.isclose(model.delta_m(2, FIG2) / 2.0, 1.508, atol=1e-3)

    def test_singularity_guard(self):
        with pytest.raises(SingularDenominator):
            model.xi_m(4, SystemParams(g0=0.7, g_ck=0.25))

    def test_g_ck_to_zero_limits(self):
        p = SystemParams(g0=0.37, g_ck=0.0)
        for m in range(1, 4):
            assert np.isclose(model.xi_m(m, p), m * 0.37, rtol=1e-15)
            assert np.isclose(model.delta_m(m, p), m**2 * 0.37**2, rtol=1e-15)


def eigen_energy(m, n, params, frame="lab"):
    """Eigenvalue of the (m photons, n phonons) eigenstate of the undriven
    system: m*omega_c + (omega_m - m*g_ck)*n - delta_m in the lab frame,
    with omega_c replaced by the drive detuning delta_c in the rotating one."""
    if frame == "lab":
        base = params.omega_c
    elif frame == "rotating":
        base = params.delta_c
    else:
        raise ValueError(f"unknown frame {frame!r}")
    return m * base + model.effective_mech_freq(m, params) * n - model.delta_m(m, params)


class TestEigenEnergy:
    def test_free_oscillator_sector(self):
        for n in range(4):
            assert eigen_energy(0, n, FIG2) == n * FIG2.omega_m

    def test_rotating_frame_zeros_at_resonances(self):
        p = FIG2.replace(delta_c=model.optimal_detuning("single", 1, FIG2))
        assert abs(eigen_energy(1, 1, p, frame="rotating")) < 1e-12
        p = FIG2.replace(delta_c=model.optimal_detuning("two-photon", 1, FIG2))
        assert abs(eigen_energy(2, 1, p, frame="rotating")) < 1e-12

    def test_lab_vs_rotating(self):
        p = FIG2.replace(delta_c=-0.3, omega_c=57.0)
        lab = eigen_energy(2, 3, p, frame="lab")
        rot = eigen_energy(2, 3, p, frame="rotating")
        assert np.isclose(lab - rot, 2 * (57.0 + 0.3), rtol=1e-12)

    def test_unknown_frame(self):
        with pytest.raises(ValueError):
            eigen_energy(0, 0, FIG2, frame="galilean")


class TestOptimalDetunings:
    def test_table_single_photon_row(self):
        for n, ref in enumerate(TABLE_SINGLE):
            assert abs(model.optimal_detuning("single", n, FIG2) - ref) < 1e-3

    def test_table_two_photon_row(self):
        for n, ref in TABLE_TWO.items():
            assert abs(model.optimal_detuning("two-photon", n, FIG2) - ref) < 1e-3

    def test_standard_kerr_shift(self):
        p = SystemParams(g0=0.7, g_ck=0.0)
        assert np.isclose(model.optimal_detuning("single", 0, p), 0.49, rtol=1e-15)

    def test_spacing(self):
        singles = [model.optimal_detuning("single", n, FIG2) for n in range(6)]
        steps = np.diff(singles)
        assert np.allclose(steps, -(FIG2.omega_m - FIG2.g_ck), rtol=1e-12)
        twos = [model.optimal_detuning("two-photon", n, FIG2) for n in range(6)]
        assert np.allclose(np.diff(twos), -(FIG2.omega_m - 2 * FIG2.g_ck) / 2, rtol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model.optimal_detuning("three-photon", 0, FIG2)


class TestResonanceCurve:
    def test_without_cross_kerr(self):
        assert model.resonance_curve_g0(2, 0.0) == 1.0
        assert np.isclose(model.resonance_curve_g0(1, 0.0), np.sqrt(0.5), rtol=1e-15)

    def test_hand_value(self):
        # sqrt(0.5 * 0.8^2 * 0.9)
        assert np.isclose(model.resonance_curve_g0(1, 0.1), 0.5366563, atol=1e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            model.resonance_curve_g0(1, 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("g_ck", [0.0, 0.1, 0.2])
    def test_simultaneous_resonance(self, n, g_ck):
        # on the locus the one-photon dip coincides with the n-th two-photon peak
        g0 = model.resonance_curve_g0(n, g_ck)
        p = SystemParams(g0=g0, g_ck=g_ck)
        single = model.optimal_detuning("single", 0, p)
        two = model.optimal_detuning("two-photon", n, p)
        assert abs(single - two) < 1e-12
