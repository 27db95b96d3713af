"""Command-line surface: CSV shape, config echo/override, determinism,
exit codes."""

import json

import numpy as np
import pytest

from ckom.cli import main


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def column(header, rows, name, as_float=True):
    i = header.index(name)
    vals = [row[i] for row in rows]
    return np.array([float(v) for v in vals]) if as_float else vals


class TestTable1:
    def test_analytic_run(self, tmp_path):
        out = tmp_path / "table1.csv"
        rc = main(["table1", "--analytic", "--out", str(out),
                   "--detuning-min", "-3.7", "--detuning-max", "1.7"])
        assert rc == 0
        comments, header, rows = read_csv(out)
        assert any("g0 = 0.7" in c for c in comments)
        assert header[:3] == ["kind", "n", "predicted"]
        predicted = column(header, rows, "predicted")
        kinds = column(header, rows, "kind", as_float=False)
        singles = predicted[[k == "single" for k in kinds]]
        assert np.allclose(
            singles, [0.594, -0.231, -1.056, -1.881, -2.706, -3.531], atol=1e-3
        )
        twos = predicted[[k == "two-photon" for k in kinds]]
        assert np.isclose(twos[-1], -1.092, atol=1e-3)
        deltas = column(header, rows, "delta_analytic")
        assert np.abs(deltas).max() < 0.05

    def test_zero_cross_kerr_single_prediction(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["table1", "--analytic", "--out", str(out), "--g-ck", "0.0",
              "--detuning-min", "-3.0", "--detuning-max", "1.0"])
        _c, header, rows = read_csv(out)
        predicted = column(header, rows, "predicted")
        assert np.isclose(predicted[0], 0.49, atol=1e-9)  # g0^2/omega_m


class TestBlockadeSweep:
    def test_columns_and_empty_cavity_sanity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["blockade-sweep", "--out", str(out), "--g0", "0.0", "--g-ck", "0.0",
                   "--detuning-min", "-0.4", "--detuning-max", "0.4",
                   "--detuning-step", "0.1"])
        assert rc == 0
        _c, header, rows = read_csv(out)
        assert header[:6] == ["delta_c", "p0", "p1", "p2", "g2_analytic", "g2_lamb_dicke"]
        g2 = column(header, rows, "g2_analytic")
        assert np.allclose(g2, 1.0, atol=1e-6)

    def test_deterministic_output(self, tmp_path):
        args = ["blockade-sweep", "--detuning-min", "-0.2", "--detuning-max", "0.2",
                "--detuning-step", "0.05"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_numeric_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["blockade-sweep", "--numeric", "--out", str(out),
                   "--n-mech", "20", "--detuning-min", "0.58", "--detuning-max", "0.62",
                   "--detuning-step", "0.02"])
        assert rc == 0
        _c, header, rows = read_csv(out)
        g2n = column(header, rows, "g2_numeric")
        g2a = column(header, rows, "g2_analytic")
        assert np.all(g2n > 0)
        assert np.all(np.maximum(g2n / g2a, g2a / g2n) < 1.5)

    def test_nan_and_continue(self, tmp_path):
        # g_ck beyond omega_m/m_max: every point fails but the run completes
        out = tmp_path / "sweep.csv"
        rc = main(["blockade-sweep", "--out", str(out), "--g-ck", "0.6",
                   "--detuning-min", "0.0", "--detuning-max", "0.1",
                   "--detuning-step", "0.05"])
        assert rc == 0
        _c, header, rows = read_csv(out)
        g2 = column(header, rows, "g2_analytic")
        assert np.all(np.isnan(g2))
        errors = column(header, rows, "error", as_float=False)
        assert all("SingularDenominator" in e for e in errors)


class TestBlockadeMap:
    def test_map_and_locus_files(self, tmp_path):
        out = tmp_path / "map.csv"
        rc = main(["blockade-map", "--out", str(out), "--g0-steps", "4",
                   "--gck-steps", "3", "--g0-min", "0.4", "--g0-max", "0.8",
                   "--gck-min", "0.0", "--gck-max", "0.2", "--n-mech", "20"])
        assert rc == 0
        _c, header, rows = read_csv(out)
        assert header == ["g0", "g_ck", "g2", "error"]
        assert len(rows) == 12
        _c2, header2, rows2 = read_csv(tmp_path / "map.locus.csv")
        locus = column(header2, rows2, "g0_locus")
        n_col = column(header2, rows2, "n")
        g_ck = column(header2, rows2, "g_ck")
        ref = locus[(n_col == 2) & (g_ck == 0.0)]
        assert np.isclose(ref[0], 1.0, atol=1e-12)


class TestCat:
    def test_closed_mode(self, tmp_path):
        out = tmp_path / "cat.csv"
        rc = main(["cat", "--mode", "closed", "--out", str(out), "--t-steps", "41"])
        assert rc == 0
        _c, header, rows = read_csv(out)
        assert header == ["t", "abs_beta", "theta", "p_plus", "p_minus"]
        ab = column(header, rows, "abs_beta")
        assert np.isclose(ab.max(), 3.4285714, atol=1e-4)
        p_sum = column(header, rows, "p_plus") + column(header, rows, "p_minus")
        assert np.allclose(p_sum, 1.0, atol=1e-12)
        _c3, h3, r3 = read_csv(tmp_path / "cat.snapshot.csv")
        assert np.isclose(column(h3, r3, "abs_beta")[0], 3.4285714, atol=1e-6)

    def test_open_mode_small(self, tmp_path):
        out = tmp_path / "cat.csv"
        rc = main(["cat", "--mode", "open", "--out", str(out), "--t-steps", "5",
                   "--n-mech", "40", "--kappa", "0.1", "--gamma-m", "0.01",
                   "--omega-c", "5.0"])
        assert rc == 0
        _c, header, rows = read_csv(out)
        p_plus = column(header, rows, "p_plus")
        p_minus = column(header, rows, "p_minus")
        assert np.allclose(p_plus + p_minus, 1.0, atol=1e-7)
        f_plus = column(header, rows, "f_plus")
        assert np.isnan(f_plus[0])          # minus branch degenerate at t=0
        assert np.all(f_plus[1:] <= 1.0 + 1e-9)
        _c3, h3, r3 = read_csv(tmp_path / "cat.snapshot.csv")
        assert len(r3) == 1
        assert 0.0 < column(h3, r3, "f_plus")[0] <= 1.0


class TestPhaseSpace:
    def test_wigner_vacuum_value(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["wigner", "--out", str(out), "--time", "0.0",
                   "--re-min", "-1.0", "--re-max", "1.0", "--n-re", "3",
                   "--im-min", "-1.0", "--im-max", "1.0", "--n-im", "3"])
        assert rc == 0
        _c, header, rows = read_csv(out)
        assert header == ["re_eta", "im_eta", "w"]
        re = column(header, rows, "re_eta")
        im = column(header, rows, "im_eta")
        w = column(header, rows, "w")
        center = w[(re == 0.0) & (im == 0.0)]
        assert np.isclose(center[0], 0.63662, atol=1e-5)

    def test_quadrature_analytic_vs_numeric_roundtrip(self, tmp_path):
        common = ["--x-min", "-2.0", "--x-max", "4.0", "--n-x", "31",
                  "--omega-c", "5.0", "--kappa", "0.0", "--gamma-m", "0.0",
                  "--n-mech", "60"]
        out_a = tmp_path / "qa.csv"
        out_n = tmp_path / "qn.csv"
        assert main(["quadrature", "--out", str(out_a)] + common) == 0
        assert main(["quadrature", "--numeric", "--out", str(out_n)] + common) == 0
        _ca, ha, ra = read_csv(out_a)
        _cn, hn, rn = read_csv(out_n)
        pa = column(ha, ra, "p")
        pn = column(hn, rn, "p")
        assert np.abs(pa - pn).max() < 1e-5

    def test_theta_echoed_in_config(self, tmp_path):
        out = tmp_path / "q.csv"
        main(["quadrature", "--out", str(out), "--x-min", "-1.0", "--x-max", "1.0",
              "--n-x", "3"])
        comments, _h, _r = read_csv(out)
        assert any("theta = " in c and "auto" not in c for c in comments)


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g0": 0.5, "g_ck": 0.1}))
        out = tmp_path / "t.csv"
        main(["table1", "--analytic", "--config", str(cfg), "--g-ck", "0.0",
              "--out", str(out), "--detuning-min", "-2.0", "--detuning-max", "0.8"])
        comments, header, rows = read_csv(out)
        assert any("g0 = 0.5" in c for c in comments)
        assert any("g_ck = 0.0" in c for c in comments)
        predicted = column(header, rows, "predicted")
        assert np.isclose(predicted[0], 0.25, atol=1e-12)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["table1", "--no-such-flag"])
        assert err.value.code == 1

    def test_unknown_command_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_steady_method_flag_is_gone(self):
        # every sweep uses the ladder solver; there is no solver choice
        with pytest.raises(SystemExit) as err:
            main(["blockade-sweep", "--steady-method", "ladder"])
        assert err.value.code == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        # cat run with a cutoff far too small for the displacement
        rc = main(["cat", "--mode", "open", "--out", str(tmp_path / "c.csv"),
                   "--n-mech", "8", "--t-steps", "3", "--omega-c", "5.0"])
        assert rc == 2


class TestVerify:
    def test_verify_passes(self, capsys):
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out
