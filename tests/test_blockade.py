"""Weak-driving photon statistics: closed forms by hand, exact sums against
their structural limits, and resonance structure against the spectral module."""

import numpy as np
import pytest

from ckom.model import SystemParams, delta_m, optimal_detuning, resonance_curve_g0
from ckom.operators import HilbertSpec
from ckom import blockade
from ckom.errors import NonConvergedSum, ZeroPhotonNumber

FIG2 = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001, drive_amp=0.001)
SPEC = HilbertSpec(4, 30)

TABLE_SINGLE = [0.594, -0.231, -1.056, -1.881, -2.706, -3.531]
TABLE_TWO = [1.508, 1.183, 0.858, 0.533, -0.117, -1.092]


def g2_at_resonances(p):
    """Lamb-Dicke g2 at the single-photon (dc = delta_1) and two-photon
    (dc = delta_2 / 2) resonances."""
    return tuple(blockade.photon_stats_lamb_dicke(p.replace(delta_c=dc)).g2
                 for dc in (delta_m(1, p), delta_m(2, p) / 2.0))


def g2_resonance_closed_forms(p):
    """The paper's closed forms of those two values: kappa^2 / [(2 d1 - d2)^2
    + kappa^2] and its inverse [(d2 - 2 d1)^2 + kappa^2] / kappa^2."""
    d1, d2, k = delta_m(1, p), delta_m(2, p), p.kappa
    return k**2 / ((2.0 * d1 - d2) ** 2 + k**2), ((d2 - 2.0 * d1) ** 2 + k**2) / k**2


class TestAmplitudes:
    def test_empty_cavity_lorentzian(self):
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=0.1, drive_amp=0.001, delta_c=0.23)
        amps = blockade.longtime_amplitudes(p, SPEC)
        expected = -0.001 / (0.23 - 0.05j)
        assert np.isclose(amps.c1[0], expected, rtol=1e-12)
        assert np.abs(amps.c1[1:]).max() < 1e-15

    def test_normalization_near_unity(self):
        p = FIG2.replace(delta_c=0.594)
        amps = blockade.longtime_amplitudes(p, SPEC)
        # the vacuum amplitude is delta_{n,0}
        norm = 1.0 + np.sum(np.abs(amps.c1) ** 2) + np.sum(np.abs(amps.c2) ** 2)
        assert abs(norm - 1.0) < 1e-3   # O((drive/kappa)^2)

    def test_tail_convergence_guard(self):
        # a tiny mechanical cutoff cannot hold the sidebands at strong coupling
        tight = HilbertSpec(4, 4)
        strong = SystemParams(g0=2.0, g_ck=0.2, kappa=0.1, drive_amp=0.001, delta_c=0.0)
        with pytest.raises(NonConvergedSum):
            blockade.longtime_amplitudes(strong, tight)

    def test_needs_cavity_decay(self):
        with pytest.raises(ValueError, match="kappa > 0"):
            blockade.longtime_amplitudes(FIG2.replace(kappa=0.0, delta_c=0.49), SPEC)

    def test_undriven_g2_is_named_error(self):
        with pytest.raises(ZeroPhotonNumber):
            blockade.photon_stats_exact(FIG2.replace(drive_amp=0.0, delta_c=0.594), SPEC)

    def test_weak_driving_warning(self):
        for drive_amp in (0.05, -0.05):
            with pytest.warns(UserWarning, match="weak-driving expansion"):
                blockade.longtime_amplitudes(FIG2.replace(drive_amp=drive_amp), SPEC)

    def test_p1_peaks_at_single_photon_resonances(self):
        detunings = np.arange(-4.0, 1.5, 0.005)
        p1 = np.array(
            [blockade.photon_stats_exact(FIG2.replace(delta_c=d), SPEC).p1 for d in detunings]
        )
        maxima = detunings[
            [i for i in range(1, len(p1) - 1) if p1[i] > p1[i - 1] and p1[i] > p1[i + 1]]
        ]
        for ref in TABLE_SINGLE:
            assert np.abs(maxima - ref).min() < 0.01


class TestExactStats:
    def test_probability_ordering(self):
        stats = blockade.photon_stats_exact(FIG2.replace(delta_c=0.594), SPEC)
        assert stats.p0 > stats.p1 > stats.p2 > 0

    def test_coherent_limit(self):
        p = SystemParams(g0=0.0, g_ck=0.0, kappa=0.1, drive_amp=0.001, delta_c=0.3)
        stats = blockade.photon_stats_exact(p, SPEC)
        assert np.isclose(stats.g2, 1.0, atol=1e-9)

    def test_invariant_under_cutoff_growth(self):
        p = FIG2.replace(delta_c=0.594)
        a = blockade.photon_stats_exact(p, HilbertSpec(4, 30))
        b = blockade.photon_stats_exact(p, HilbertSpec(4, 40))
        assert abs(a.p1 - b.p1) / b.p1 < 1e-6
        assert abs(a.p2 - b.p2) / b.p2 < 1e-6

    def test_dips_and_peaks_match_spectral_predictions(self):
        detunings = np.arange(-4.0, 2.0, 0.005)
        g2 = np.array(
            [blockade.photon_stats_exact(FIG2.replace(delta_c=d), SPEC).g2 for d in detunings]
        )
        mins = detunings[
            [i for i in range(1, len(g2) - 1) if g2[i] < g2[i - 1] and g2[i] < g2[i + 1]]
        ]
        maxs = detunings[
            [i for i in range(1, len(g2) - 1) if g2[i] > g2[i - 1] and g2[i] > g2[i + 1]]
        ]
        for ref in TABLE_SINGLE:
            assert np.abs(mins - ref).min() <= 0.005 + 1e-12
        for ref in TABLE_TWO:
            assert np.abs(maxs - ref).min() <= 0.005 + 1e-12

    def test_matches_lamb_dicke_at_weak_coupling(self):
        p = SystemParams(g0=0.02, g_ck=0.005, kappa=0.1, drive_amp=1e-4)
        p = p.replace(delta_c=delta_m(1, p))
        exact = blockade.photon_stats_exact(p, HilbertSpec(4, 20))
        approx = blockade.photon_stats_lamb_dicke(p)
        assert abs(exact.g2 - approx.g2) / approx.g2 < 0.05

    def test_resonance_curve_alignment(self):
        # peaks of g2(g0) at single-photon-resonant driving sit on the locus
        g_ck = 0.1
        g0_axis = np.arange(0.3, 1.05, 0.002)
        g2 = []
        for g0 in g0_axis:
            p = SystemParams(g0=g0, g_ck=g_ck, kappa=0.1, drive_amp=0.001)
            p = p.replace(delta_c=delta_m(1, p))
            g2.append(blockade.photon_stats_exact(p, HilbertSpec(4, 40)).g2)
        g2 = np.array(g2)
        maxima = g0_axis[
            [i for i in range(1, len(g2) - 1) if g2[i] > g2[i - 1] and g2[i] > g2[i + 1]]
        ]
        for n in (1, 2):
            locus = resonance_curve_g0(n, g_ck)
            assert np.abs(maxima - locus).min() < 0.01


class TestLambDicke:
    def test_spr_hand_values(self):
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1)
        assert np.isclose(g2_at_resonances(p)[0], 0.0029853, atol=1e-6)
        p0 = SystemParams(g0=0.7, g_ck=0.0, kappa=0.1)
        # kappa^2 / [(2 d1 - d2)^2 + kappa^2] = 0.01 / 0.9704
        assert np.isclose(g2_at_resonances(p0)[0], 0.01 / 0.9704, rtol=1e-12)

    def test_tpr_hand_value(self):
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1)
        assert np.isclose(g2_at_resonances(p)[1], 334.98, atol=0.01)

    def test_closed_form_matches_resonance_special_cases(self):
        for g0, g_ck, kappa in [(0.7, 0.175, 0.1), (0.5, 0.0, 0.2), (1.1, 0.3, 0.05)]:
            p = SystemParams(g0=g0, g_ck=g_ck, kappa=kappa, drive_amp=0.001)
            assert np.allclose(g2_at_resonances(p), g2_resonance_closed_forms(p),
                               rtol=1e-12, atol=0.0)

    def test_spr_tpr_product_identity(self):
        for g0, g_ck, kappa in [(0.7, 0.175, 0.1), (0.5, 0.0, 0.2), (1.1, 0.3, 0.05)]:
            spr, tpr = g2_at_resonances(SystemParams(g0=g0, g_ck=g_ck, kappa=kappa))
            assert abs(spr * tpr - 1.0) < 1e-12

    def test_sub_poissonian_at_spr(self):
        p = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1)
        assert g2_at_resonances(p)[0] < 1.0

    def test_g2_is_drive_independent(self):
        p1 = FIG2.replace(delta_c=0.4)
        p2 = FIG2.replace(delta_c=0.4, drive_amp=0.0005)
        assert np.isclose(
            blockade.photon_stats_lamb_dicke(p1).g2,
            blockade.photon_stats_lamb_dicke(p2).g2,
            rtol=1e-14,
        )
        assert np.isclose(
            blockade.photon_stats_exact(p1, SPEC).g2,
            blockade.photon_stats_exact(p2, SPEC).g2,
            rtol=1e-10,
        )

    def test_single_photon_detunings_minimize_lamb_dicke_g2(self):
        p = FIG2
        spr = blockade.photon_stats_lamb_dicke(p.replace(delta_c=optimal_detuning("single", 0, p)))
        off = blockade.photon_stats_lamb_dicke(p.replace(delta_c=0.3))
        assert spr.g2 < off.g2
