"""Command-line surface: CSV shape, config echo/override, determinism,
exit codes."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ckom import HilbertSpec, SystemParams, blockade, cli
from ckom.cli import COMMANDS, _build_parser, local_extrema, main
from ckom.errors import NonConvergedSum


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


def _extrema_loop(x, y, kind):
    """Point-by-point reference for local_extrema."""
    locs = []
    for i in range(1, len(y) - 1):
        if np.any(np.isnan(y[i - 1 : i + 2])):
            continue
        if kind == "min" and y[i] < y[i - 1] and y[i] < y[i + 1]:
            locs.append(x[i])
        if kind == "max" and y[i] > y[i - 1] and y[i] > y[i + 1]:
            locs.append(x[i])
    return np.array(locs)


def test_local_extrema_matches_point_by_point_reference():
    # ties, NaN neighbourhoods and curves too short to have an interior
    rng = np.random.default_rng(0)
    for n in (0, 1, 2, 3, 40):
        for _ in range(25):
            x = np.linspace(-1.0, 1.0, n)
            y = rng.integers(0, 4, n).astype(float)
            y[rng.random(n) < 0.15] = np.nan
            for kind in ("min", "max"):
                assert np.array_equal(local_extrema(x, y, kind), _extrema_loop(x, y, kind))


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

    @pytest.mark.parametrize("command", ["table1", "blockade-sweep"])
    def test_step_must_divide_the_range(self, command, tmp_path, capsys):
        # a step of 0.3 cannot reach 0 from -1; it used to be rescaled to 1/3
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as err:
            main([command, "--detuning-min", "-1", "--detuning-max", "0",
                  "--detuning-step", "0.3", "--out", str(out)])
        assert err.value.code == 1
        message = capsys.readouterr().err
        for key in ("detuning_min", "detuning_max", "detuning_step"):
            assert key in message
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--detuning-step", "0"], "detuning_step = 0 must be positive"),
        (["--detuning-step", "-0.5"], "detuning_step = -0.5 must be positive"),
        (["--detuning-min", "1", "--detuning-max", "-1"], "detuning_max = -1 is below")])
    def test_step_must_be_positive_and_range_ordered(self, flags, message, tmp_path, capsys):
        # a zero step used to end in ZeroDivisionError, a reversed range in
        # numpy's ValueError for a negative sample count
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as err:
            main(["table1", "--analytic", *flags, "--out", str(out)])
        assert err.value.code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["blockade-sweep", "--numeric"], ["table1"],
        ["blockade-map", "--numeric", "--jobs", "2"],
        ["blockade-sweep"], ["blockade-map"], ["table1", "--analytic"]])
    def test_blockade_routes_need_decay(self, argv, tmp_path, capsys):
        # a unique driven steady state needs kappa > 0, on the master-equation
        # and the analytic route alike; refused before any point
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--kappa", "0", "--out", str(out)])
        assert err.value.code == 1
        assert "ckom: error: kappa = 0" in capsys.readouterr().err
        assert not out.exists()

    _SHORT_DETUNINGS = ["--detuning-min", "-1.1", "--detuning-max", "-1.0",
                        "--detuning-step", "0.05"]

    @pytest.mark.parametrize("argv", [
        ["blockade-sweep", "--numeric", *_SHORT_DETUNINGS], ["table1", *_SHORT_DETUNINGS],
        ["blockade-map", "--numeric", "--g0-steps", "2", "--gck-steps", "2"]])
    def test_master_equation_routes_need_two_photons(self, argv, tmp_path, capsys):
        # g2 reads the two-photon sector, which n_cav = 2 leaves out: refused
        # before any point instead of a column of g2 = 0
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--n-cav", "2", "--out", str(out)])
        assert err.value.code == 1
        assert "ckom: error: n_cav = 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["blockade-sweep", "--detuning-min", "0.5", "--detuning-max", "0.6"],
        ["blockade-map", "--g0-steps", "2", "--gck-steps", "2", "--n-mech", "20"]])
    def test_undriven_points_name_zero_photon_number(self, argv, tmp_path):
        # without drive P1 = 0 and g2 = 2 P2 / P1^2 is undefined: each point
        # says so and the run completes
        out = tmp_path / "out.csv"
        assert main(argv + ["--drive-amp", "0", "--out", str(out)]) == 0
        _c, header, rows = read_csv(out)
        errors = column(header, rows, "error", as_float=False)
        assert rows and all(e.startswith("ZeroPhotonNumber: ") for e in errors)

    def test_undriven_table_finds_no_resonance(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table1", "--analytic", "--drive-amp", "0", "--out", str(out)]) == 0
        _c, header, rows = read_csv(out)
        assert np.all(np.isnan(column(header, rows, "detected_analytic")))

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

    def test_every_failed_route_is_named(self, tmp_path):
        # a drive too strong for both the sideband sums and the ladder: the
        # error column names each route's failure once, in column order
        out = tmp_path / "sweep.csv"
        with pytest.warns(UserWarning, match="weak-driving"):
            rc = main(["blockade-sweep", "--numeric", "--drive-amp", "0.2", "--n-cav", "3",
                       "--n-mech", "12", "--detuning-min", "-1", "--detuning-max", "1",
                       "--detuning-step", "1", "--out", str(out)])
        assert rc == 0
        _c, header, rows = read_csv(out)
        assert np.all(np.isnan(column(header, rows, "g2_numeric")))
        for err in column(header, rows, "error", as_float=False):
            analytic, numeric = err.split(" | ")
            assert analytic.startswith("NonConvergedSum: ")
            assert numeric == "NonConvergence: ladder: drive too strong for the contraction test"


class TestDetuningSweeps:
    """The grid driver against its per-point forms."""

    PARAMS = SystemParams(g0=0.7, g_ck=0.175, kappa=0.1, gamma_m=0.001, drive_amp=0.001)
    SPEC = HilbertSpec(3, 12)

    def sweep(self, detunings, params=PARAMS, jobs=1):
        points = [params.replace(delta_c=float(dc)) for dc in detunings]
        return cli.g2_grid(points, self.SPEC, True, jobs)

    def test_numeric_sweep_does_not_depend_on_jobs(self):
        # every chunk sets its ladder up at delta_c = 0, so the split is invisible
        detunings = np.linspace(-1.5, 0.7, 9)
        serial = self.sweep(detunings, jobs=1)
        pooled = self.sweep(detunings, jobs=2)
        assert serial == pooled
        assert all(err == "" for _g2, err in serial)

    def test_failed_point_leaves_its_neighbours(self):
        # at drive 1e-7 the cavity far off resonance holds under 1e-14 photons
        params = self.PARAMS.replace(drive_amp=1e-7)
        rows = self.sweep([0.594, -3.0, 0.6], params)
        assert np.isnan(rows[1][0])
        assert rows[1][1].startswith("ZeroPhotonNumber: ")
        assert [rows[0], rows[2]] == self.sweep([0.594, 0.6], params)

    def test_numeric_sweep_matches_its_point_task(self):
        # the probe's one-point task and the sweep agree to roundoff
        detunings = [-1.2, 0.1, 0.594]
        rows = self.sweep(detunings)
        for dc, (g2, err) in zip(detunings, rows):
            point, point_err = cli._g2_numeric_task(
                (self.PARAMS.replace(delta_c=dc), 3, 12, "ladder"))
            assert err == point_err == ""
            assert abs(g2 / point - 1.0) < 1e-10

    @pytest.mark.parametrize("route", [[], ["--numeric"]])
    def test_map_rows_do_not_depend_on_jobs(self, route, tmp_path):
        # one set-up per point, and the rows without delta_1 (g_ck = 1) kept
        # in place between the chunks of the pool
        rows = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"map{jobs}.csv"
            assert main(["blockade-map", *route, "--jobs", jobs, "--n-cav", "3",
                         "--n-mech", "12", "--g0-min", "0.3", "--g0-max", "0.7",
                         "--g0-steps", "3", "--gck-min", "0.0", "--gck-max", "1.0",
                         "--gck-steps", "5", "--out", str(out)]) == 0
            _c, header, rows[jobs] = read_csv(out)
        assert rows["1"] == rows["2"]
        g_ck, g2 = column(header, rows["1"], "g_ck"), column(header, rows["1"], "g2")
        errors = column(header, rows["1"], "error", as_float=False)
        assert all(("for m = 1;" in err) == (gck == 1.0) for gck, err in zip(g_ck, errors))
        assert np.isfinite(g2).sum() >= 3

    def test_analytic_sweep_matches_point_by_point(self):
        # 20 phonons hold the two-photon sidebands at 32 of these 51
        # detunings (12, as in the benchmark probe's case, at none): the
        # sweep must fail on exactly the points photon_stats_exact raises on
        spec = HilbertSpec(3, 20)
        detunings = np.linspace(-3.5, 1.5, 51)
        rows = cli.g2_analytic_sweep(self.PARAMS, spec, detunings)
        failed = 0
        for dc, (stats, err) in zip(detunings, rows):
            try:
                want = blockade.photon_stats_exact(self.PARAMS.replace(delta_c=float(dc)), spec)
            except NonConvergedSum as exc:
                assert stats is None and err == f"NonConvergedSum: {exc}"
                failed += 1
                continue
            assert err == ""
            for field in ("p1", "p2", "g2"):
                got, ref = getattr(stats, field), getattr(want, field)
                assert abs(got - ref) <= 1e-14 * abs(ref)
        assert 0 < failed < detunings.size


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

    @pytest.mark.parametrize("route", [[], ["--numeric"]])
    def test_points_without_single_photon_resonance_keep_their_error(self, route, tmp_path):
        # g_ck >= omega_m leaves the one-photon sector without delta_1: those
        # rows name it on both routes instead of solving at another detuning
        out = tmp_path / "map.csv"
        assert main(["blockade-map", *route, "--n-cav", "3", "--n-mech", "12",
                     "--g0-min", "0.3", "--g0-max", "0.4", "--g0-steps", "2",
                     "--gck-min", "0.9", "--gck-max", "1.1", "--gck-steps", "3",
                     "--out", str(out)]) == 0
        _c, header, rows = read_csv(out)
        g_ck, g2 = column(header, rows, "g_ck"), column(header, rows, "g2")
        errors = column(header, rows, "error", as_float=False)
        assert sorted(set(g_ck)) == [0.9, 1.0, 1.1]
        want = {1.0: "0.0", 1.1: "-0.10000000000000009"}
        for gck, value, err in zip(g_ck, g2, errors):
            if gck in want:
                assert np.isnan(value)
                assert err == (f"SingularDenominator: omega_m - m*g_ck = {want[gck]} "
                               "for m = 1; the m-photon sector is unstable")


    def test_undamped_mechanics_are_error_rows(self, tmp_path):
        # the ladder needs mechanical damping; without it each point is an
        # error row and the map completes
        out = tmp_path / "map.csv"
        assert main(["blockade-map", "--numeric", "--gamma-m", "0", "--n-cav", "3",
                     "--n-mech", "12", "--g0-steps", "2", "--gck-steps", "2",
                     "--out", str(out)]) == 0
        _c, header, rows = read_csv(out)
        assert len(rows) == 4
        assert np.all(np.isnan(column(header, rows, "g2")))
        for err in column(header, rows, "error", as_float=False):
            assert err.startswith("NonConvergence:") and "no mechanical damping" in err


def fake_pool(monkeypatch):
    """Replace the process pool by one that starts no process and runs each
    task here; returns the list of max_workers it was asked for."""
    pools = []

    class FakeExecutor:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakeExecutor)
    return pools


class TestJobs:
    @pytest.mark.parametrize("command", ["table1", "blockade-sweep", "blockade-map"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_fewer_than_one_worker_is_usage_error(self, command, jobs, tmp_path, capsys):
        # a count below 1 names the flag; it is not taken as a serial run
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main([command, "--jobs", jobs, "--out", str(out)])
        assert err.value.code == 1
        assert f"--jobs = {jobs} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_at_most_one_worker_per_task(self, monkeypatch):
        # the pool starts all max_workers processes at once, so the count
        # must not exceed the tasks; this fake pool starts none
        pools = fake_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert cli._pool_map(abs, [-1, -2, -3], 8) == [1, 2, 3]
        assert cli._pool_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert pools == [3, 2]
        # one task or none: no pool at all
        assert cli._pool_map(abs, [-4], 8) == [4]
        assert cli._pool_map(abs, [], 8) == []
        assert pools == [3, 2]

    def test_at_most_one_worker_per_core(self, monkeypatch, tmp_path):
        # --jobs 5000 on the default map (10206 points) must not fork 5000
        # workers; an unknown core count counts as one core
        pools = fake_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert cli._pool_map(abs, list(range(-10, 0)), 5000) == list(range(10, 0, -1))
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._pool_map(abs, [-1, -2], 5000) == [1, 2]
        assert pools == [4]
        # through a command, with the same rows as a serial run
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        grid = ["blockade-map", "--g0-steps", "3", "--gck-steps", "2", "--locus-n-max", "1"]
        for jobs in ("5000", "1"):
            assert main([*grid, "--jobs", jobs, "--out", str(tmp_path / f"{jobs}.csv")]) == 0
        assert pools == [4, 2]
        assert (tmp_path / "5000.csv").read_text() == (tmp_path / "1.csv").read_text()


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
        # at t = 0 the minus branch is degenerate and the plus branch the vacuum
        assert np.isclose(f_plus[0], 1.0, rtol=1e-12)
        assert np.isnan(column(header, rows, "f_minus")[0])
        assert np.all(f_plus <= 1.0 + 1e-9)
        _c3, h3, r3 = read_csv(tmp_path / "cat.snapshot.csv")
        assert len(r3) == 1
        assert 0.0 < column(h3, r3, "f_plus")[0] <= 1.0

    def test_open_evolution_starts_at_zero_time(self, tmp_path):
        # rho0 is the state at t = 0 however few grid times are asked for:
        # without a grid, the snapshot at t_s still evolves from t = 0
        argv = ["cat", "--mode", "open", "--n-mech", "20", "--omega-c", "5",
                "--g0", "0.5", "--g-ck", "0.1"]
        snapshots = []
        for steps in ("0", "3"):
            out = tmp_path / f"cat{steps}.csv"
            assert main(argv + ["--t-steps", steps, "--out", str(out)]) == 0
            _c, header, rows = read_csv(tmp_path / f"cat{steps}.snapshot.csv")
            snapshots.append(np.array([[float(v) for v in row] for row in rows]))
        assert len(read_csv(tmp_path / "cat0.csv")[2]) == 0
        assert snapshots[0].shape == snapshots[1].shape == (1, len(header))
        assert np.allclose(snapshots[0], snapshots[1], rtol=0, atol=1e-7)
        assert snapshots[0][0, header.index("p_plus")] < 0.5

    @pytest.mark.parametrize("argv", [
        ["cat", "--mode", "open", "--time", "-1"], ["cat", "--mode", "open", "--t-max", "-1"],
        ["cat", "--t-steps", "-1"], ["cat", "--time", "-1"],
        ["wigner", "--numeric", "--time", "-1"], ["quadrature", "--time", "-1"]])
    def test_negative_times_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--n-mech", "20", "--out", str(out)])
        assert err.value.code == 1
        assert "ckom: error:" in capsys.readouterr().err
        assert not out.exists()


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

    def test_numeric_wigner_at_zero_time(self, tmp_path, capsys):
        # the plus branch of the initial state is the mechanical vacuum; the
        # minus branch has probability 0 and no state
        argv = ["wigner", "--numeric", "--time", "0", "--n-mech", "10",
                "--re-min", "-1.0", "--re-max", "1.5", "--n-re", "6",
                "--im-min", "-1.0", "--im-max", "1.0", "--n-im", "5"]
        out = tmp_path / "w.csv"
        assert main(argv + ["--branch", "plus", "--out", str(out)]) == 0
        _c, header, rows = read_csv(out)
        eta2 = column(header, rows, "re_eta") ** 2 + column(header, rows, "im_eta") ** 2
        vacuum = 2.0 / np.pi * np.exp(-2.0 * eta2)
        # equal to all 9 printed digits
        assert column(header, rows, "w", as_float=False) == [f"{w:.9g}" for w in vacuum]
        assert main(argv + ["--branch", "minus", "--out", str(tmp_path / "m.csv")]) == 2
        assert "DegenerateBranch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["wigner", "quadrature"])
    def test_closed_form_degenerate_branch_names_one_error(self, command, tmp_path, capsys):
        # the ideal minus branch vanishes at t = 0; the closed-form route names
        # the same error as the conditioned branch of --numeric
        argv = [command, "--time", "0", "--branch", "minus", "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 2
        assert "DegenerateBranch" in capsys.readouterr().err

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


# (command, flag) of config keys the command never reads; none has a flag
_UNREAD_FLAGS = (
    [("table1", "--delta-c"), ("table1", "--omega-c"),
     ("blockade-sweep", "--delta-c"), ("blockade-sweep", "--omega-c"),
     ("blockade-map", "--g0"), ("blockade-map", "--g-ck"),
     ("blockade-map", "--delta-c"), ("blockade-map", "--omega-c")]
    + [(command, flag) for command in ("cat", "wigner", "quadrature")
       for flag in ("--delta-c", "--drive-amp")]
    + [("verify", flag) for flag in ("--kappa", "--gamma-m", "--nbar-m", "--delta-c",
                                     "--drive-amp", "--n-cav", "--n-mech", "--out")]
)


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

    @pytest.mark.parametrize("argv", [
        ["wigner", "--analytic"], ["quadrature", "--analytic"],
        ["cat", "--jobs", "2"], ["verify", "--jobs", "2"],
        ["cat", "--t-steps", "2.5"], ["quadrature", "--theta", "abc"],
        *([command, flag, "1"] for command, flag in _UNREAD_FLAGS)])
    def test_removed_options_and_integer_flags(self, argv):
        # the analytic route is the default without --numeric, only the
        # sweeping commands take --jobs, no command has a flag for a key it
        # does not read; count flags take integers, --theta a number or auto
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--omega-m", "0"], "omega_m must be positive"),
        (["cat", "--kappa", "-1"], "kappa must be non-negative"),
        (["wigner", "--nbar-m", "-0.1"], "nbar_m must be non-negative"),
        (["quadrature", "--n-mech", "1"], "need at least two levels per mode")])
    def test_out_of_range_parameters_are_usage_errors(self, argv, message, tmp_path, capsys):
        # SystemParams and HilbertSpec reject these; that used to end in a
        # ValueError traceback
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main(argv + (["--out", str(out)] if argv[0] != "verify" else []))
        assert err.value.code == 1
        assert f"ckom: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, key", [({"t_steps": 3.7}, "t_steps"),
                                             ({"n_mech": "abc"}, "n_mech"),
                                             ({"kappa": None}, "kappa")])
    def test_config_values_are_typed_like_their_flags(self, config, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "cat.csv"
        with pytest.raises(SystemExit) as err:
            main(["cat", "--config", str(cfg), "--out", str(out)])
        assert err.value.code == 1
        assert f"config key {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cat", "--mode", "open", "--kappa", "nan", "--n-mech", "12", "--t-steps", "3"],
        ["blockade-sweep", "--numeric", "--kappa", "nan", "--n-cav", "3", "--n-mech", "8",
         "--detuning-min", "0", "--detuning-max", "0.1", "--detuning-step", "0.1"]])
    def test_nan_rate_is_a_usage_error_not_a_hang(self, argv, tmp_path):
        # the cat run used to spin in RK45 on a NaN step, the sweep to end
        # in a traceback from scipy's check_finite
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-m", "ckom.cli", *argv,
                               "--out", str(tmp_path / "out.csv")],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == "ckom: error: kappa = nan must be finite\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv, config, key", [
        (["table1", "--detuning-step", "inf"], None, "detuning_step"),
        (["blockade-map", "--g0-max=-inf"], None, "g0_max"),
        (["quadrature", "--theta", "nan"], None, "theta"),
        (["cat", "--time", "inf"], None, "time"),
        (["wigner"], {"re_min": float("nan")}, "re_min"),
        (["verify"], {"g0": float("inf")}, "g0"),
        (["cat", "--mode", "open"], {"kappa_list": [0.1, float("nan")]}, "kappa")])
    def test_non_finite_numbers_are_usage_errors(self, argv, config, key, tmp_path, capsys):
        # from a flag or from the config file (json reads NaN and Infinity),
        # including a <rate>_list of cat --mode open
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main(argv + (["--out", str(out)] if argv[0] != "verify" else []))
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith(f"ckom: error: {key} = ")
        assert not out.exists()

    def test_unread_config_keys_are_echoed_and_ignored(self, tmp_path):
        # null keeps the resolved time and t_max; keys cat does not read
        # (another command's, or the rate lists of --mode open) pass through
        unread = {"delta_c": 3.0, "drive_amp": 1.0, "n_re": "x", "kappa_list": [0.1, 0.2]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"time": None, "t_max": None, "t_steps": 5, **unread}))
        out_cfg, out_flags = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["cat", "--config", str(cfg), "--out", str(out_cfg)]) == 0
        assert main(["cat", "--t-steps", "5", "--out", str(out_flags)]) == 0
        comments, header, rows = read_csv(out_cfg)
        for key, value in unread.items():
            assert f"# {key} = {value}" in comments
        assert (header, rows) == read_csv(out_flags)[1:]
        assert len(rows) == 5

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


_COMMON_OPTIONS = {"--config"}
_VERIFY_OPTIONS = {"--g0", "--g-ck", "--omega-c", "--omega-m"}
_BLOCKADE_OPTIONS = {"--out", "--jobs", "--kappa", "--gamma-m", "--nbar-m", "--drive-amp",
                     "--omega-m", "--n-cav", "--n-mech"}
_SWEEP_OPTIONS = _BLOCKADE_OPTIONS | {"--g0", "--g-ck", "--detuning-min", "--detuning-max",
                                      "--detuning-step"}
_CAT_OPTIONS = _VERIFY_OPTIONS | {"--out", "--kappa", "--gamma-m", "--nbar-m", "--n-cav",
                                  "--n-mech", "--time"}
_COMMAND_OPTIONS = {
    "table1": _SWEEP_OPTIONS | {"--analytic"},
    "blockade-sweep": _SWEEP_OPTIONS | {"--numeric"},
    "blockade-map": _BLOCKADE_OPTIONS | {"--numeric", "--g0-min", "--g0-max", "--g0-steps",
                                         "--gck-min", "--gck-max", "--gck-steps",
                                         "--locus-n-max"},
    "cat": _CAT_OPTIONS | {"--mode", "--t-max", "--t-steps"},
    "wigner": _CAT_OPTIONS | {"--numeric", "--branch", "--re-min", "--re-max", "--n-re",
                              "--im-min", "--im-max", "--n-im"},
    "quadrature": _CAT_OPTIONS | {"--numeric", "--branch", "--theta", "--x-min", "--x-max",
                                  "--n-x"},
    "verify": _VERIFY_OPTIONS,
}


def _subparsers():
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestOptions:
    def test_option_strings_of_every_command(self):
        sub = _subparsers()
        assert set(sub) == set(_COMMAND_OPTIONS)
        n_flags = 0
        for name, parser in sub.items():
            options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            assert options == _COMMON_OPTIONS | _COMMAND_OPTIONS[name], name
            n_flags += len(options)
        assert n_flags == 108

    def test_value_flags_are_the_defaults_keys(self):
        # one flag per key a command reads, an integer flag for an integer
        # default; --config, --out and the mode flags set no config key
        for name, parser in _subparsers().items():
            command = COMMANDS[name]
            other = {"-h", "--config", "--out"} | {flag for flag, _ in command.flags}
            keyed = {a.dest: a for a in parser._actions if a.option_strings[0] not in other}
            assert set(keyed) == set(command.defaults), name
            for key, default in command.defaults.items():
                assert keyed[key].option_strings == [f"--{key.replace('_', '-')}"]
                assert (keyed[key].type is int) == isinstance(default, int), key
