import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from forestpanel import cli
from forestpanel.cli import ESTIMATORS, main
from forestpanel.dgp import (
    DGPConfig,
    DGPError,
    GridDGPConfig,
    replication_seed,
    simulate_disturbance_grid,
    simulate_dynamic_panel,
)
from forestpanel.diagnostics import DiagnosticError
from forestpanel.estimators import EstimationError
from forestpanel.gmm import GmmOptions
from forestpanel.ingest import write_panel_csv, write_pixel_grid_csv
from forestpanel.panel import Grid, PanelDataset, PanelError


def write_log_panel(path, N=30, T=10, rho=0.3, beta=1.0, sigma_u=0.5, seed=80):
    cfg = DGPConfig(n_regions=N, n_years=T, rho=rho, beta=beta,
                    sigma_alpha=1.0, sigma_u=sigma_u, seed=seed)
    panel, _ = simulate_dynamic_panel(cfg)
    write_panel_csv(panel, path)
    return panel


def reject_constant(constant):
    raise ValueError(f"{constant} is not a JSON number")


def read_json(path):
    """An output file's JSON, read strictly: NaN and Infinity are not JSON."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)


def read_all_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestIngest:
    def test_toy_pixel_grid(self, tmp_path):
        (tmp_path / "pixels.csv").write_text(
            "pixel,region,biomass,area,canopy\n"
            "p1,A,10.0,1.0,80\np2,A,20.0,1.0,80\np3,A,30.0,1.0,80\n"
        )
        (tmp_path / "events.csv").write_text("pixel,year\np1,2001\np3,2001\n")
        out = tmp_path / "out"
        code = main([
            "ingest", "--pixels", str(tmp_path / "pixels.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--theta", "1.0", "--out", str(out),
        ])
        assert code == 0
        summary = read_json(out / "summary.json")
        # hand sums: L = 2 ha, E = 10 + 30 = 40
        assert summary["variables"]["L"]["max"] == 2.0
        assert summary["variables"]["E"]["max"] == 40.0
        assert (out / "panel.csv").exists()
        assert (out / "manifest.json").exists()

    def test_panel_passthrough_round_trip(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src)
        out = tmp_path / "out"
        assert main(["ingest", "--panel", str(src), "--out", str(out)]) == 0
        assert (out / "panel.csv").read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("extra", [
        ["--pixels", "px.csv"],
        ["--events", "ev.csv"],
        ["--pixels", "px.csv", "--events", "ev.csv"],
    ])
    def test_panel_with_pixel_inputs_is_an_error(self, tmp_path, capsys, extra):
        # one source per run, so the manifest names only the input that was read
        src = tmp_path / "panel.csv"
        write_log_panel(src)
        out = tmp_path / "out"
        assert main(["ingest", "--panel", str(src), *extra, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--panel" in err and extra[0] in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--theta", "2"], "--theta"),
        (["--canopy-threshold", "90"], "--canopy-threshold"),
        (["--theta", "2", "--canopy-threshold", "90"], "--canopy-threshold, --theta"),
    ], ids=["theta", "canopy", "both"])
    def test_panel_with_pixel_flags_is_an_error(self, tmp_path, capsys, flags, named):
        # a passthrough applies neither flag, so the manifest must not record one
        src = tmp_path / "panel.csv"
        write_log_panel(src)
        out = tmp_path / "out"
        assert main(["ingest", "--panel", str(src), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {named}: read only with --pixels and --events, not with --panel\n")
        assert not out.exists()

    def test_panel_with_default_pixel_flags_runs(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src)
        out = tmp_path / "out"
        assert main(["ingest", "--panel", str(src), "--canopy-threshold", "30",
                     "--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["config"]["canopy_threshold"] == 30

    def test_bad_input_exits_nonzero(self, tmp_path):
        bad = tmp_path / "panel.csv"
        bad.write_text("region,year,L\nA,2001,not-a-number\n")
        assert main(["ingest", "--panel", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_oversize_panel_field_exits_with_line(self, tmp_path, capsys):
        bad = tmp_path / "panel.csv"
        bad.write_text("region,year,L\nA,2001,1\nA,2002," + "9" * 200_000 + "\n")
        assert main(["ingest", "--panel", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:3: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("pixels, events, where", [
        # a short row used to escape as an uncaught TypeError
        ("p1,A,10.0,1.0,80\np2,A,20.0\n", "p1,2001\n", "pixels.csv:3: expected at least 5 fields"),
        ("p1,A,10.0,1.0,80\n", "p1,2001\np1\n", "events.csv:3: expected at least 2 fields"),
        # non-finite attributes used to pass validation
        ("p1,A,10.0,1.0,80\np2,A,20.0,inf,80\n", "p1,2001\n", "pixels.csv:3: pixel p2: non-finite area"),
        ("p1,A,nan,1.0,80\n", "p1,2001\n", "pixels.csv:2: pixel p1: non-finite biomass"),
        # a year beyond int64 used to end ingest with an OverflowError, and a
        # typo year used to stretch the panel over thousands of empty years
        ("p1,A,10.0,1.0,80\np2,A,20.0,1.0,80\n", "p1,2001\np2,99999999999999999999\n",
         "events.csv:3: event year 99999999999999999999 outside 1000-9999"),
        ("p1,A,10.0,1.0,80\np2,A,20.0,1.0,80\n", "p1,2001\np2,20011\n",
         "events.csv:3: event year 20011 outside 1000-9999"),
        # a field beyond the csv module's limit used to escape as a csv.Error
        ("p1,A,10.0,1.0,80\np2,A," + "9" * 200_000 + ",1.0,80\n", "p1,2001\n",
         "pixels.csv:3: field larger than field limit (131072)"),
    ], ids=["short-pixel-row", "short-event-row", "inf-area", "nan-biomass",
            "year-beyond-int64", "typo-year", "oversize-field"])
    def test_malformed_pixel_files_exit_with_line(self, tmp_path, capsys, pixels, events, where):
        (tmp_path / "pixels.csv").write_text("pixel,region,biomass,area,canopy\n" + pixels)
        (tmp_path / "events.csv").write_text("pixel,year\n" + events)
        code = main([
            "ingest", "--pixels", str(tmp_path / "pixels.csv"),
            "--events", str(tmp_path / "events.csv"), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_is_named(self, tmp_path, capsys, theta):
        (tmp_path / "pixels.csv").write_text("pixel,region,biomass,area,canopy\np1,A,10.0,1.0,80\n")
        (tmp_path / "events.csv").write_text("pixel,year\np1,2001\n")
        code = main([
            "ingest", "--pixels", str(tmp_path / "pixels.csv"),
            "--events", str(tmp_path / "events.csv"), "--theta", theta,
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: theta must be finite, got {theta}\n"

    def test_simulated_grid_skewness(self, tmp_path):
        from forestpanel.dgp import GridDGPConfig, simulate_disturbance_grid
        from forestpanel.ingest import write_pixel_grid_csv

        grid = simulate_disturbance_grid(
            GridDGPConfig(n_regions=60, pixels_per_region=200, n_years=10, seed=81)
        )
        write_pixel_grid_csv(grid, tmp_path / "pixels.csv", tmp_path / "events.csv")
        out = tmp_path / "out"
        assert main([
            "ingest", "--pixels", str(tmp_path / "pixels.csv"),
            "--events", str(tmp_path / "events.csv"), "--out", str(out),
        ]) == 0
        stats = read_json(out / "summary.json")["variables"]["L"]
        assert stats["max"] > 10 * stats["median"]

    def ingest_toy(self, tmp_path, pixels, events, threshold):
        (tmp_path / "pixels.csv").write_text("pixel,region,biomass,area,canopy\n" + pixels)
        (tmp_path / "events.csv").write_text("pixel,year\n" + events)
        out = tmp_path / f"out-{threshold}"
        assert main(["ingest", "--pixels", str(tmp_path / "pixels.csv"),
                     "--events", str(tmp_path / "events.csv"),
                     "--canopy-threshold", threshold, "--theta", "1", "--out", str(out)]) == 0
        return out

    def test_canopy_threshold_keeps_the_year_span(self, tmp_path, capsys):
        # the threshold drops the only losses of 2001 and 2004; those years
        # stay in the panel as zeros, as 2002 and 2003 do where a region
        # lost nothing it kept
        pixels = "p1,A,1,1,90\np2,A,1,1,10\np3,B,1,1,90\np4,B,1,1,10\n"
        events = "p2,2001\np1,2002\np3,2003\np4,2004\n"
        out = self.ingest_toy(tmp_path, pixels, events, "30")
        assert (out / "panel.csv").read_bytes().decode() == (
            "region,year,L,E\r\n"
            "A,2001,0.0,0.0\r\nA,2002,1.0,1.0\r\nA,2003,0.0,0.0\r\nA,2004,0.0,0.0\r\n"
            "B,2001,0.0,0.0\r\nB,2002,0.0,0.0\r\nB,2003,1.0,1.0\r\nB,2004,0.0,0.0\r\n"
        )
        self.ingest_toy(tmp_path, pixels, events, "0")
        assert capsys.readouterr().out == (
            "ingest: 2 regions x 4 years, 0 dropped\ningest: 2 regions x 4 years, 0 dropped\n")

    def test_region_without_kept_pixels_is_reported_dropped(self, tmp_path, capsys):
        # C and A keep no pixel at threshold 50: named in label order and
        # counted, while panel.csv holds B alone
        pixels = "c1,C,1,1,5\nb1,B,1,1,90\na1,A,1,1,40\na2,A,1,1,10\n"
        out = self.ingest_toy(tmp_path, pixels, "c1,2001\nb1,2001\na1,2001\n", "50")
        assert read_json(out / "summary.json")["dropped_regions"] == ["A", "C"]
        assert capsys.readouterr().out == "ingest: 1 regions x 1 years, 2 dropped\n"
        assert (out / "panel.csv").read_bytes() == b"region,year,L,E\r\nB,2001,1.0,1.0\r\n"

    @pytest.mark.parametrize("events, message", [
        ("p2,2001\n", "canopy threshold 30 keeps none of the pixel grid's 1 loss events"),
        ("", "pixel grid has no loss events"),
    ], ids=["threshold-keeps-none", "grid-has-none"])
    def test_no_kept_loss_event_names_its_cause(self, tmp_path, capsys, events, message):
        # the one loss falls on p2, below the default threshold 30: the
        # threshold is named, not the grid; a grid without events is the grid's
        (tmp_path / "pixels.csv").write_text(
            "pixel,region,biomass,area,canopy\np1,A,1,1,90\np2,A,1,1,10\n")
        (tmp_path / "events.csv").write_text("pixel,year\n" + events)
        out = tmp_path / "out"
        assert main(["ingest", "--pixels", str(tmp_path / "pixels.csv"),
                     "--events", str(tmp_path / "events.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestEstimate:
    def test_noise_free_fe2w(self, tmp_path):
        rng = np.random.default_rng(82)
        x = rng.normal(size=(8, 6))
        alpha = rng.normal(size=(8, 1))
        panel = PanelDataset(
            tuple(f"r{i}" for i in range(8)), tuple(range(2001, 2007)),
            {"l": Grid.full(x), "e": Grid.full(alpha + 2.0 * x)},
        )
        src = tmp_path / "panel.csv"
        write_panel_csv(panel, src)
        out = tmp_path / "out"
        code = main(["estimate", "--panel", str(src), "--estimator", "fe2w",
                     "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        coef = report["fits"]["fe2w"]["coefficients"][0]
        assert coef["name"] == "l"
        assert coef["estimate"] == pytest.approx(2.0, abs=1e-8)

    def test_all_estimators_with_diagnostics(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=60, T=9, seed=83)
        out = tmp_path / "out"
        code = main(["estimate", "--panel", str(src), "--estimator", "all",
                     "--two-step", "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        assert set(report["fits"]) == {"pooled", "fe2w", "lsdv", "diffgmm", "sysgmm"}
        assert "hansen_j" in report["diagnostics"]["diffgmm"]
        assert "within_r2" in report["diagnostics"]["fe2w"]
        tags = {row["estimator"] for row in report["elasticity"]}
        assert {"lsdv", "diffgmm", "sysgmm", "fe2w"} <= tags

    @pytest.mark.parametrize("estimator, n_regions, entries", [
        ("diffgmm", 30, {"ar1_error": "too few differenced periods (1) for AR(1)",
                         "ar2_error": "too few differenced periods (1) for AR(2)",
                         "durbin_watson_error": "too few residual periods (1) for Durbin-Watson"}),
        ("pooled", 2, {"jarque_bera_error": "need at least 8 residuals"}),
    ], ids=["diffgmm-one-differenced-period", "pooled-six-residuals"])
    def test_diagnostic_that_cannot_run_is_named(self, tmp_path, capsys, estimator, n_regions,
                                                 entries):
        # three years: a difference-GMM fit keeps one differenced period, and
        # a pooled fit on two regions has six residuals; the run still succeeds
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=n_regions, T=3, seed=96)
        out = tmp_path / "out"
        assert main(["estimate", "--estimator", estimator, "--panel", str(src),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        bundle = read_json(out / "report.json")["diagnostics"][estimator]
        assert {name: bundle.get(name) for name in entries} == entries
        assert not {name.removesuffix("_error") for name in entries} & set(bundle)

    def test_just_identified_j_is_exactly_zero(self, tmp_path):
        # the three-year difference-GMM fit has one instrument per coefficient,
        # so its moments are zero by construction, not up to rounding
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=30, T=3, seed=96)
        out = tmp_path / "out"
        assert main(["estimate", "--estimator", "diffgmm", "--panel", str(src),
                     "--out", str(out)]) == 0
        assert read_json(out / "report.json")["diagnostics"]["diffgmm"]["hansen_j"] == {
            "statistic": 0.0, "p_value": 1.0, "df": 0,
            "note": "just-identified: J is identically zero"}

    def test_uncollapsed_estimate_peak_memory(self, tmp_path, capsys):
        # N = 1000, T = 23, two-step: the five fits, their diagnostics and the
        # panel load, traced end to end. Keeping all five fits, each GMM fit
        # with its (N, K) scores, until the report was written peaked at 16.6 MB
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=1000, T=23, seed=1)
        tracemalloc.start()
        try:
            code = main(["estimate", "--panel", str(src), "--two-step",
                         "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out.count("\n") == len(ESTIMATORS)
        assert peak <= 13e6

    @pytest.mark.parametrize("command", [
        ["estimate", "--two-step"],
        ["robustness", "--estimator", "sysgmm", "--regions", "R0000,R0003,R0004"],
    ], ids=["estimate", "robustness"])
    def test_no_earlier_fit_is_held_while_a_later_one_runs(self, tmp_path, monkeypatch,
                                                           command):
        # the scores and residuals of each fit are released once the fit is
        # reduced to its report entries. With two CPUs estimate fits pooled,
        # fe2w and lsdv in a forked helper: there the check runs on the
        # helper's own copy of earlier, and each fit is counted in a file
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=30, T=8, seed=96)
        earlier, fits = [], tmp_path / "fits.txt"
        fits.touch()

        def tracked(fit):
            def run(*args, **kwargs):
                assert all(ref() is None for ref in earlier)
                result = fit(*args, **kwargs)
                with fits.open("a", encoding="utf-8") as handle:
                    handle.write(f"{result.estimator_tag}\n")
                earlier.extend(weakref.ref(part) for part in (result.residual_grid, result.gmm)
                               if part is not None)
                return result
            return run

        for name in ("fit_pooled_ols", "fit_twoway_fe", "fit_dynamic_lsdv",
                     "fit_diff_gmm", "fit_sys_gmm"):
            monkeypatch.setattr(cli, name, tracked(getattr(cli, name)))
        out = tmp_path / "out"
        assert main([command[0], "--panel", str(src), *command[1:], "--out", str(out)]) == 0
        assert len(fits.read_text(encoding="utf-8").splitlines()) == (
            5 if command[0] == "estimate" else 2)
        assert earlier and all(ref() is None for ref in earlier)

    def test_scatter_rows_equal_n_obs(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=20, T=8, seed=84)
        out = tmp_path / "out"
        assert main(["estimate", "--panel", str(src), "--estimator", "fe2w",
                     "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        n_obs = report["fits"]["fe2w"]["n_obs"]
        lines = (out / "scatter.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == n_obs

    def test_single_estimator_matches_all(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=40, T=8, seed=90)
        assert main(["estimate", "--panel", str(src), "--estimator", "all",
                     "--two-step", "--out", str(tmp_path / "all")]) == 0
        fits = read_json(tmp_path / "all" / "report.json")["fits"]
        assert set(fits) == set(ESTIMATORS)
        # elasticity rows follow the fit order of the registry
        rows = (tmp_path / "all" / "elasticity.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == list(ESTIMATORS)
        for name in ESTIMATORS:
            out = tmp_path / name
            two_step = ["--two-step"] if ESTIMATORS[name].gmm else []
            assert main(["estimate", "--panel", str(src), "--estimator", name,
                         *two_step, "--out", str(out)]) == 0
            single = read_json(out / "report.json")["fits"]
            assert single == {name: fits[name]}

    def test_levels_pathway(self, tmp_path):
        rng = np.random.default_rng(85)
        L = rng.uniform(0, 100, size=(10, 6))
        E = 3.0 * L + rng.uniform(0, 1, size=(10, 6))
        panel = PanelDataset(
            tuple(f"r{i}" for i in range(10)), tuple(range(2001, 2007)),
            {"L": Grid.full(L), "E": Grid.full(E)},
        )
        src = tmp_path / "panel.csv"
        write_panel_csv(panel, src)
        for flag, out_name in ((["--levels"], "lev"), ([], "log")):
            out = tmp_path / out_name
            assert main(["estimate", "--panel", str(src), "--estimator", "fe2w",
                         *flag, "--out", str(out)]) == 0
        lev = read_json(tmp_path / "lev" / "report.json")
        log = read_json(tmp_path / "log" / "report.json")
        b_lev = lev["fits"]["fe2w"]["coefficients"][0]["estimate"]
        b_log = log["fits"]["fe2w"]["coefficients"][0]["estimate"]
        assert b_lev == pytest.approx(3.0, abs=0.05)
        assert b_lev != b_log


    @pytest.mark.parametrize("command, estimator, flags, named", [
        ("estimate", "fe2w", ["--min-lag", "1"], "--min-lag"),
        ("estimate", "lsdv", ["--max-lag", "3"], "--max-lag"),
        ("estimate", "pooled", ["--two-step"], "--two-step"),
        ("robustness", "fe2w", ["--two-step", "--collapse"], "--collapse, --two-step"),
    ], ids=["estimate-min-lag", "estimate-max-lag", "estimate-two-step", "robustness-both"])
    def test_gmm_flags_without_gmm_fit_are_an_error(self, tmp_path, capsys, command,
                                                    estimator, flags, named):
        src = tmp_path / "panel.csv"
        write_log_panel(src, seed=84)
        out = tmp_path / "out"
        assert main([command, "--panel", str(src), "--estimator", estimator, *flags,
                     "--levels", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {named}: read only by the GMM estimators, and none runs\n")
        assert not out.exists()


# ROADMAP item 13: the elasticities should not depend on the units of L and
# E. log(x + 1) is not log(x) + a constant, so today they do.
ITEM_13 = "item 13: log(1 + x) of L and E makes the elasticities depend on their units"


class TestUnitInvariance:
    """Every registry estimator, fitted as ``estimate`` fits it on a panel
    without zeros, gives the same short-run, persistence and long-run figures
    whatever the units of L and E (strict xfail: the fix removes the markers)."""

    @staticmethod
    def figures(tag, scale):
        levels, _ = simulate_dynamic_panel(DGPConfig(n_regions=40, n_years=10, rho=0.4,
                                                     beta=0.8, sigma_alpha=1.0, seed=97))
        panel = PanelDataset(levels.regions, levels.years, {
            name: Grid.full(scale * np.exp(levels.var(name.lower()).values))
            for name in ("L", "E")})
        args = cli.build_parser().parse_args(["estimate", "--panel", "p.csv", "--out", "o"])
        options = cli._gmm_options(args, ESTIMATORS, year_dummies=True)
        panel, x, y = cli._log_variables(panel, False)
        report = cli._elasticity(tag, ESTIMATORS[tag].fit(panel, x, y, options), x, y)
        return report.short_run, report.persistence, report.long_run

    @pytest.mark.parametrize("tag", [
        pytest.param(tag, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason=ITEM_13 + ("; item 1: with year dummies the level equations fit no "
                              "const to absorb a change of units" if tag == "sysgmm" else "")))
        for tag in ESTIMATORS])
    def test_elasticities_do_not_depend_on_units(self, tag):
        base = self.figures(tag, 1.0)
        for scale in (1e-3, 1e4):
            assert self.figures(tag, scale) == pytest.approx(base, rel=1e-9), scale


class TestGmmOptions:
    """``GmmOptions`` is the one home of the GMM settings: the CLI flags are its
    fields, and each run builds it once, before it loads a panel or fits."""

    REQUIRED = {"estimate": ["--panel", "p.csv"], "robustness": ["--panel", "p.csv"],
                "montecarlo": ["--preset", "nickell-demo"]}

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_gmm_flags_are_option_fields_with_their_defaults(self, command):
        args = cli.build_parser().parse_args([command, *self.REQUIRED[command], "--out", "o"])
        dests = ("min_lag", "max_lag", "collapse", "two_step")  # --min-lag ... --two-step
        assert sorted(cli._GMM_FLAGS) == sorted(dests)
        for dest in dests:
            assert getattr(args, dest) == getattr(GmmOptions(), dest), dest

    def test_montecarlo_builds_options_once(self, tmp_path, monkeypatch):
        built = []
        post_init = GmmOptions.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(GmmOptions, "__post_init__", counted)
        assert main(["montecarlo", "--preset", "nickell-demo", "--reps", "20", "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1

    def test_lag_chain_error_comes_before_the_panel_load(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["robustness", "--panel", str(tmp_path / "missing.csv"),
                     "--estimator", "sysgmm", "--exclude-years", "2005",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: year exclusion breaks the GMM lag chain; use fe2w or lsdv\n")
        assert not out.exists()


def run_fresh(*args, **env_vars):
    """``python *args`` in a fresh process that imports this forestpanel, with
    Python's default warning filters and the environment variables ``env_vars``."""
    import forestpanel

    env = dict(os.environ, **env_vars)
    env.pop("PYTHONWARNINGS", None)
    package_root = str(Path(forestpanel.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


# runs main in a fresh process, then prints its exit code and the scipy modules loaded
SCIPY_MODULES = """
import json, sys
from forestpanel.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


class TestColdStart:
    def test_scipy_stats_is_never_imported(self, tmp_path):
        """Neither the import of the CLI nor a run that reports p-values loads
        scipy.stats, whose import alone outlasts an estimate run."""
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=40, T=8, seed=85)
        script = f"""
import json, sys
from forestpanel.cli import main
seen = ["scipy.stats" in sys.modules]
assert main(["estimate", "--panel", {str(src)!r}, "--two-step",
             "--out", {str(tmp_path / "est")!r}]) == 0
seen.append("scipy.stats" in sys.modules)
assert main(["montecarlo", "--preset", "nickell-demo", "--reps", "2",
             "--out", {str(tmp_path / "mc")!r}]) == 0
seen.append(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "stats"]))
print(json.dumps(seen))
"""
        done = run_fresh("-c", script)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [False, False, []]
        report = read_json(tmp_path / "est" / "report.json")
        assert "hansen_j" in report["diagnostics"]["sysgmm"]

    @pytest.mark.parametrize("command", ["ingest", "montecarlo"])
    def test_run_without_p_values_loads_no_scipy(self, tmp_path, command):
        """ingest and montecarlo report no p-value, so their processes load
        no scipy module at all."""
        from forestpanel.dgp import GridDGPConfig, simulate_disturbance_grid
        from forestpanel.ingest import write_pixel_grid_csv

        if command == "ingest":
            grid = simulate_disturbance_grid(
                GridDGPConfig(n_regions=20, pixels_per_region=50, n_years=8, seed=85))
            write_pixel_grid_csv(grid, tmp_path / "pixels.csv", tmp_path / "events.csv")
            argv = ["ingest", "--pixels", str(tmp_path / "pixels.csv"),
                    "--events", str(tmp_path / "events.csv")]
        else:
            argv = ["montecarlo", "--preset", "nickell-demo", "--reps", "2"]
        done = run_fresh("-c", SCIPY_MODULES, *argv, "--out", str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]

    def test_estimate_loads_only_scipy_special(self, tmp_path):
        """p-values come from scipy.special, loaded at the first one, and the
        least-squares solves are numpy's: an estimate run loads exactly the
        scipy modules that ``import scipy.special`` loads: on recent releases
        that leaves out scipy.linalg, which older ones import there."""
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=40, T=8, seed=85)
        done = run_fresh("-c", SCIPY_MODULES, "estimate", "--panel", str(src), "--two-step",
                         "--out", str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        special = run_fresh("-c", "import json, sys, scipy.special; print(json.dumps(sorted("
                            "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
        assert code == 0 and "scipy.special" in loaded
        assert loaded == json.loads(special.stdout)
        assert not [m for m in loaded if m.split(".")[:2] == ["scipy", "stats"]]


class TestBlasThreads:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs 2 CPUs to run 2 BLAS threads")
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # left at 2 threads, OpenBLAS splits the sums of this panel's GMM
        # products in another order; main runs every subcommand at one
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=50, T=23, seed=3)
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            done = run_fresh("-m", "forestpanel.cli", "estimate", "--panel", str(src),
                             "--estimator", "all", "--two-step", "--out", str(out),
                             OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            runs.append((read_all_bytes(out), done.stdout))
        assert set(runs[0][0]) == {"report.json", "elasticity.csv", "scatter.csv",
                                   "manifest.json"}
        assert runs[0] == runs[1]


# each registry estimator's fit function, by the name cli looks it up under
FIT_FUNCTIONS = {"pooled": "fit_pooled_ols", "fe2w": "fit_twoway_fe", "lsdv": "fit_dynamic_lsdv",
                 "diffgmm": "fit_diff_gmm", "sysgmm": "fit_sys_gmm"}
HAS_TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
ONE_CPU = pytest.mark.parametrize("one_cpu", [True, False], ids=["one-cpu", "all-cpus"])


def run_on(one_cpu, capsys, argv):
    """``main(argv)``, with the process's affinity read as one CPU or as it
    is; returns the exit code, stdout and stderr."""
    with pytest.MonkeyPatch.context() as patch:
        if one_cpu:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code = main(argv)
    return (code, *capsys.readouterr())


class TestLanes:
    """With two CPUs, estimate fits the GMM estimators in its own process and
    the others, and scatter.csv, in one forked helper; on one CPU it takes
    every step in one process. Either way a run writes, prints, warns and
    fails alike, and leaves no process behind."""

    @pytest.fixture
    def argv(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=50, T=23, seed=3)
        return ["estimate", "--panel", str(src), "--estimator", "all", "--two-step",
                "--out", str(tmp_path / "out")]

    def patch_fits(self, monkeypatch, wrap, tags=FIT_FUNCTIONS):
        for tag in tags:
            name = FIT_FUNCTIONS[tag]
            monkeypatch.setattr(cli, name, wrap(tag, getattr(cli, name)))

    def test_one_cpu_and_all_cpus_give_the_same_bytes(self, tmp_path, capsys, argv):
        runs = []
        for one_cpu in (True, False):
            out = tmp_path / f"one-cpu-{one_cpu}"
            code, stdout, stderr = run_on(one_cpu, capsys, [*argv, "--out", str(out)])
            assert code == 0
            runs.append((read_all_bytes(out), stdout, stderr))
        assert set(runs[0][0]) == {"report.json", "elasticity.csv", "scatter.csv",
                                   "manifest.json"}
        assert runs[0][1].count("\n") == len(ESTIMATORS)
        assert runs[0] == runs[1]

    @pytest.mark.skipif(not HAS_TWO_CPUS, reason="the helper runs only with 2 CPUs")
    def test_helper_fits_every_non_gmm_estimator(self, tmp_path, monkeypatch, argv):
        pids = tmp_path / "pids.txt"

        def logged(tag, fit):
            def run(*args, **kwargs):
                with pids.open("a", encoding="utf-8") as handle:
                    handle.write(f"{tag} {os.getpid()}\n")
                return fit(*args, **kwargs)
            return run

        self.patch_fits(monkeypatch, logged)
        assert main(argv) == 0
        ran = dict(line.split() for line in pids.read_text(encoding="utf-8").splitlines())
        assert set(ran) == set(ESTIMATORS)
        helper = {ran[tag] for tag in ESTIMATORS if not ESTIMATORS[tag].gmm}
        assert len(helper) == 1 and str(os.getpid()) not in helper
        assert {ran["diffgmm"], ran["sysgmm"]} == {str(os.getpid())}

    @ONE_CPU
    @pytest.mark.parametrize("action, shown", [("always", list(ESTIMATORS)), ("default", ["pooled"])])
    def test_warnings_are_issued_in_registry_order(self, monkeypatch, capsys, argv, one_cpu,
                                                   action, shown):
        # each fit warns from the same line; under "default" a warning shows
        # once per run, whichever process raised it
        def warning(tag, fit):
            def run(*args, **kwargs):
                warnings.warn("fitted" if action == "default" else f"{tag} fitted", UserWarning)
                return fit(*args, **kwargs)
            return run

        self.patch_fits(monkeypatch, warning)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, UserWarning)
            assert run_on(one_cpu, capsys, argv)[0] == 0
        caught = [w for w in caught if w.category is UserWarning]
        assert [str(w.message) for w in caught] == (
            [f"{tag} fitted" for tag in shown] if action == "always" else ["fitted"])
        assert {Path(w.filename).name for w in caught} == {Path(__file__).name}

    @ONE_CPU
    @pytest.mark.parametrize("failing, named", [
        (("pooled", "sysgmm"), "pooled"),
        (("lsdv", "diffgmm"), "lsdv"),
        (("diffgmm",), "diffgmm"),
        (("fe2w",), "fe2w"),
    ], ids=["pooled-and-sysgmm", "lsdv-and-diffgmm", "diffgmm", "fe2w"])
    def test_first_failure_in_registry_order_is_named(self, tmp_path, monkeypatch, capsys,
                                                      argv, one_cpu, failing, named):
        def failing_fit(tag, fit):
            def run(*args, **kwargs):
                raise EstimationError(f"{tag} failed")
            return run

        self.patch_fits(monkeypatch, failing_fit, failing)
        assert run_on(one_cpu, capsys, argv) == (1, "", f"error: {named} failed\n")
        assert not (tmp_path / "out").exists()

    @ONE_CPU
    @pytest.mark.parametrize("raised", [ValueError, RuntimeWarning])
    def test_exception_of_a_helper_fit_keeps_its_type(self, tmp_path, monkeypatch, capsys, argv,
                                                      one_cpu, raised):
        # a bare ValueError is a bug; so is a warning the caller's filters
        # turn into an error. Either propagates out of main as itself
        def bug(*args, **kwargs):
            if raised is ValueError:
                raise ValueError("bug in a fit")
            np.float64(1e308) * 10.0

        monkeypatch.setattr(cli, "fit_pooled_ols", bug)
        with warnings.catch_warnings(), pytest.raises(raised) as excinfo:
            warnings.simplefilter("error", RuntimeWarning)
            run_on(one_cpu, capsys, argv)
        assert str(excinfo.value) == ("bug in a fit" if raised is ValueError
                                      else "overflow encountered in scalar multiply")
        if HAS_TWO_CPUS and not one_cpu:  # caused by its traceback in the helper
            assert "in bug\n" in str(excinfo.value.__cause__)
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not HAS_TWO_CPUS, reason="the helper runs only with 2 CPUs")
    def test_exception_pickle_cannot_carry_comes_as_its_traceback(self, monkeypatch, argv):
        class Local(Exception):  # pickle cannot name a class defined in a function
            pass

        def bug(*args, **kwargs):
            raise Local("a fit's bug")

        monkeypatch.setattr(cli, "fit_dynamic_lsdv", bug)
        with pytest.raises(RuntimeError, match="Local: a fit's bug"):
            main(argv)

    @pytest.mark.parametrize("outcome", [
        "success", "helper-error", "parent-error", "output-error", "bug", "interrupt",
        # on one CPU this process fits pooled itself, and the exit would end it
        pytest.param("helper-exit", marks=pytest.mark.skipif(
            not HAS_TWO_CPUS, reason="the helper runs only with 2 CPUs")),
    ])
    def test_no_process_is_left(self, monkeypatch, argv, outcome):
        parent = os.getpid()

        def fail(error):
            def wrap(tag, fit):
                def run(*args, **kwargs):
                    raise error
                return run
            return wrap

        def infinite(tag, fit):  # a coefficient JSON cannot hold
            def run(*args, **kwargs):
                result = fit(*args, **kwargs)
                return replace(result, coefficients={**result.coefficients, "l": np.inf})
            return run

        def exits(tag, fit):  # without sending its steps
            def run(*args, **kwargs):
                os._exit(3)
            return run

        def stalled(tag, fit):  # in the helper, until it is stopped
            def run(*args, **kwargs):
                if os.getpid() != parent:
                    time.sleep(60)
                return fit(*args, **kwargs)
            return run

        wraps = {"helper-error": [(fail(EstimationError("typed")), ("lsdv",))],
                 "parent-error": [(fail(EstimationError("typed")), ("sysgmm",))],
                 "output-error": [(infinite, ("fe2w",))],
                 "bug": [(fail(ZeroDivisionError("bug")), ("fe2w",))],
                 "interrupt": [(stalled, ("pooled",)), (fail(KeyboardInterrupt()), ("diffgmm",))],
                 "helper-exit": [(exits, ("pooled",))]}
        for wrap, tags in wraps.get(outcome, []):
            self.patch_fits(monkeypatch, wrap, tags)
        raised = {"bug": ZeroDivisionError, "interrupt": KeyboardInterrupt,
                  "helper-exit": RuntimeError}.get(outcome)
        start = time.perf_counter()
        if raised:
            with pytest.raises(raised) as excinfo:
                main(argv)
            if outcome == "helper-exit":
                assert "exited with code 3" in str(excinfo.value)
        else:
            assert main(argv) == (0 if outcome == "success" else 1)
        assert time.perf_counter() - start < 30
        # a helper that exited but was never joined is still a child here
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert multiprocessing.active_children() == []


class TestRobustness:
    def test_full_region_subset_is_noop(self, tmp_path):
        src = tmp_path / "panel.csv"
        panel = write_log_panel(src, N=15, T=8, seed=86)
        out = tmp_path / "out"
        code = main(["robustness", "--panel", str(src), "--estimator", "fe2w",
                     "--regions", ",".join(panel.regions), "--out", str(out)])
        assert code == 0
        table = read_json(out / "report.json")["robustness"]
        base = table[0]["coefficients"][0]["estimate"]
        subset = table[1]["coefficients"][0]["estimate"]
        assert subset == pytest.approx(base, abs=1e-12)

    def test_year_exclusion(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=25, T=10, seed=87)
        out = tmp_path / "out"
        code = main(["robustness", "--panel", str(src), "--estimator", "fe2w",
                     "--exclude-years", "2004,2007", "--out", str(out)])
        assert code == 0
        table = read_json(out / "report.json")["robustness"]
        assert table[0]["n_obs"] > table[1]["n_obs"]

    def test_no_filter_is_an_error(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src, seed=88)
        assert main(["robustness", "--panel", str(src),
                     "--out", str(tmp_path / "out")]) == 1

    def test_emptying_filter_is_an_error(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_log_panel(src, seed=89)
        assert main(["robustness", "--panel", str(src), "--regions", "nope",
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("estimator", ["fe2w", "lsdv", "sysgmm"])
    def test_region_subset_is_fitted_in_the_panels_order(self, tmp_path, estimator):
        # the same names in another order fit the same panel, to the bit;
        # the variation keeps the names as they were given
        src = tmp_path / "panel.csv"
        write_log_panel(src, N=30, T=10, seed=4)
        names = ["R0011", "R0003", "R0007", "R0020", "R0001", "R0015"]
        rows = []
        for form, order in (("typed", names), ("sorted", sorted(names))):
            out = tmp_path / form
            assert main(["robustness", "--panel", str(src), "--estimator", estimator,
                         "--regions", ",".join(order), "--out", str(out)]) == 0
            row = read_json(out / "report.json")["robustness"][1]
            assert row.pop("variation") == f"regions={order}"
            rows.append(row)
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("regions, message", [
        (["R0001", "nope"], r"^unknown regions: \['nope'\]$"),
        (["R0003", "R0001", "R0003"], "^region identifiers must be unique$"),
    ], ids=["unknown", "repeated"])
    def test_bad_region_subset_is_named(self, regions, message):
        panel, _ = simulate_dynamic_panel(DGPConfig(n_regions=5, n_years=4, rho=0.3, beta=1.0))
        with pytest.raises(PanelError, match=message):
            cli._subset_regions(panel, regions)

    @pytest.mark.parametrize("flag", ["--regions", "--exclude-years"])
    @pytest.mark.parametrize("text", [",", ""], ids=["comma", "blank"])
    def test_empty_list_is_a_usage_error(self, tmp_path, capsys, flag, text):
        # a list of no item is not read as no filter: with --levels, the run
        # would fit every region and exit 0
        src = tmp_path / "panel.csv"
        write_log_panel(src, seed=89)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(["robustness", "--panel", str(src), flag, text, "--levels", "--out", str(out)])
        assert exited.value.code == 2
        assert f"error: argument {flag}: empty list: {text!r}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["x", "2003,20x4"])
    def test_bad_year_is_a_usage_error(self, tmp_path, capsys, text):
        # the message names the item, never the parser's internal function
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(["robustness", "--panel", str(tmp_path / "panel.csv"), "--exclude-years", text,
                  "--out", str(out)])
        assert exited.value.code == 2
        bad = text.split(",")[-1]
        assert capsys.readouterr().err.endswith(
            f"error: argument --exclude-years: not a year: {bad!r}\n")
        assert not out.exists()


class TestErrorHandling:
    def test_bare_value_error_is_a_bug_and_propagates(self, tmp_path, monkeypatch):
        src = tmp_path / "panel.csv"
        write_log_panel(src, seed=90)

        def buggy_fit(*args, **kwargs):
            raise ValueError("bug in a fit")

        monkeypatch.setattr(cli, "fit_twoway_fe", buggy_fit)
        with pytest.raises(ValueError, match="bug in a fit"):
            main(["estimate", "--panel", str(src), "--estimator", "fe2w",
                  "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("error", [DGPError, DiagnosticError, np.linalg.LinAlgError])
    def test_typed_error_exits_one(self, tmp_path, capsys, monkeypatch, error):
        src = tmp_path / "panel.csv"
        write_log_panel(src, seed=91)

        def failing_fit(*args, **kwargs):
            raise error("typed failure")

        monkeypatch.setattr(cli, "fit_twoway_fe", failing_fit)
        assert main(["estimate", "--panel", str(src), "--estimator", "fe2w",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: typed failure\n"

    @pytest.mark.parametrize("later_fails", [True, False])
    def test_every_fit_runs_before_an_elasticity_fails(self, tmp_path, capsys, monkeypatch,
                                                       later_fails):
        # lsdv returns a unit root, whose long-run elasticity is undefined; a
        # later fit that fails names its own error first
        src = tmp_path / "panel.csv"
        write_log_panel(src, seed=97)
        lsdv, diffgmm = cli.fit_dynamic_lsdv, cli.fit_diff_gmm

        def unit_root(*args, **kwargs):
            fit = lsdv(*args, **kwargs)
            return replace(fit, coefficients={**fit.coefficients, "e_l1": 1.0})

        def failing(*args, **kwargs):
            if later_fails:
                raise EstimationError("later fit failed")
            return diffgmm(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_dynamic_lsdv", unit_root)
        monkeypatch.setattr(cli, "fit_diff_gmm", failing)
        out = tmp_path / "out"
        assert main(["estimate", "--panel", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: later fit failed\n" if later_fails
            else "error: unit root: long-run elasticity undefined\n")
        assert not out.exists()

    def test_input_not_utf8_exits_one(self, tmp_path, capsys):
        src = tmp_path / "panel.csv"
        src.write_bytes(b"region,year,L,E\nR\xff,2001,1.0,2.0\n")
        assert main(["estimate", "--panel", str(src), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("command, message", [
        (["robustness", "--panel", "{good}"], "robustness needs a filter"),
        (["estimate", "--panel", "{bad}"], "bad.csv:3: duplicate row for (A, 2001)"),
        (["ingest", "--panel", "{bad}"], "bad.csv:3: duplicate row for (A, 2001)"),
        (["montecarlo", "--preset", "nickell-demo", "--reps", "1"],
         "need at least 2 replications"),
        (["estimate", "--estimator", "lsdv", "--panel", "{one}"],
         "regressor 'e_l1' has no within variation"),
        (["estimate", "--levels", "--panel", "{good}"],
         "levels pathway needs variables 'L' and 'E'"),
        (["estimate", "--panel", "{other}"], "panel must contain variables L/E or l/e"),
        (["robustness", "--panel", "{good}", "--exclude-years", "1999"],
         "excluded years not in panel: [1999]"),
        (["ingest", "--pixels", "{pixels}"], "ingest needs --panel or both --pixels and --events"),
        # the pixel files exist and are good, so the threshold is what is named
        (["ingest", "--pixels", "{pixels}", "--events", "{events}", "--canopy-threshold", "101"],
         "canopy threshold must lie in [0, 100]"),
        (["ingest", "--panel", "{empty}"], "empty.csv: empty file"),
    ], ids=["robustness-filter", "estimate-load", "ingest-load", "montecarlo-reps", "lsdv-fit",
            "estimate-levels", "estimate-variables", "robustness-years",
            "ingest-pixels-without-events", "ingest-threshold-above-100", "ingest-empty-panel"])
    def test_rejected_run_leaves_no_output_directory(self, tmp_path, capsys, command, message):
        write_log_panel(tmp_path / "good.csv", seed=92)
        write_log_panel(tmp_path / "one.csv", N=1, seed=93)
        (tmp_path / "bad.csv").write_text("region,year,l,e\nA,2001,1,1\nA,2001,2,2\n")
        (tmp_path / "other.csv").write_text("region,year,L,e\nA,2001,1,1\nA,2002,2,2\n")
        (tmp_path / "pixels.csv").write_text("pixel,region,biomass,area,canopy\np1,A,1,1,50\n")
        (tmp_path / "events.csv").write_text("pixel,year\np1,2001\n")
        (tmp_path / "empty.csv").write_text("")
        inputs = {name: tmp_path / f"{name}.csv"
                  for name in ("good", "bad", "one", "other", "pixels", "events", "empty")}
        out = tmp_path / "out"
        assert main([arg.format(**inputs) for arg in command] + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_panel_column_named_like_the_lag_is_rejected_by_lsdv(self, tmp_path, capsys):
        # lsdv derives e_l1 from e, as GMM does, and never fits the panel's
        # own e_l1 column under that name
        rng = np.random.default_rng(95)
        levels = {"L": rng.uniform(1, 2, (40, 8)), "E": rng.uniform(1, 2, (40, 8)),
                  "e_l1": rng.normal(size=(40, 8))}
        panel = PanelDataset(tuple(f"r{i:02d}" for i in range(40)), tuple(range(2001, 2009)),
                             {name: Grid.full(v) for name, v in levels.items()})
        src = tmp_path / "panel.csv"
        write_panel_csv(panel, src)
        out = tmp_path / "out"
        command = ["estimate", "--panel", str(src), "--out", str(out)]
        assert main([*command, "--estimator", "lsdv"]) == 1
        assert capsys.readouterr().err == "error: variable 'e_l1' already exists (write-once)\n"
        assert not out.exists()
        assert main([*command, "--estimator", "diffgmm"]) == 0

    @pytest.mark.parametrize("flag", ["-v", "-vv", "--verbose"])
    def test_verbose_is_a_usage_error(self, tmp_path, capsys, flag):
        # no option reads it, so argparse rejects it and no manifest names it
        src = tmp_path / "panel.csv"
        write_log_panel(src, seed=94)
        out = tmp_path / "out"
        command = ["estimate", "--estimator", "fe2w", "--panel", str(src), "--out", str(out)]
        with pytest.raises(SystemExit) as exited:
            main([*command, flag])
        assert exited.value.code == 2
        assert f"error: unrecognized arguments: {flag}\n" in capsys.readouterr().err
        assert not out.exists()
        assert main(command) == 0
        assert "verbose" not in read_json(out / "manifest.json")["config"]


# region A loses 1e308 twice: a two-way demeaning of its levels overflows,
# and so does the variance of L and of E
OVERFLOWING_PANEL = ("region,year,L,E\nA,2001,1e308,1e308\nA,2002,0,2\nA,2003,1e308,1\n"
                     "B,2001,0,2\nB,2002,1,1\nB,2003,3,3\n")
NOT_JSON = "a number is NaN or infinite, which JSON cannot hold"


class TestRowOrder:
    """A panel CSV gives the same bytes whatever the order of its rows: the
    panel builder takes its regions, and its dropped regions, in label order."""

    @pytest.mark.parametrize("command", [
        ["ingest"],
        ["estimate", "--estimator", "all", "--two-step", "--collapse"],
        ["robustness", "--estimator", "lsdv", "--exclude-years", "2004",
         "--regions", "R0011,R0003,R0007"],
    ], ids=["ingest", "estimate", "robustness"])
    def test_shuffled_panel_gives_the_same_bytes(self, tmp_path, capsys, command):
        path = tmp_path / "panel.csv"
        write_log_panel(path, N=24, T=8, seed=97)
        header, *rows = path.read_text(encoding="utf-8").splitlines(True)
        # two regions lack a year, so both are dropped and listed
        rows = [row for row in rows if not row.startswith(("R0005,2003,", "R0002,2006,"))]
        runs = []
        for form, order in (("ordered", range(len(rows))),
                            ("shuffled", np.random.default_rng(97).permutation(len(rows)))):
            lines = [rows[k] for k in order]
            if form == "shuffled":
                regions = [row.split(",")[0] for row in lines]
                assert list(dict.fromkeys(regions)) != sorted(set(regions))
            # one input path, so the manifests name the same file
            path.write_text(header + "".join(lines), encoding="utf-8")
            out = tmp_path / form
            assert main([command[0], "--panel", str(path), *command[1:],
                         "--out", str(out)]) == 0
            runs.append((read_all_bytes(out), capsys.readouterr()))
        assert runs[0] == runs[1]
        if command[0] == "ingest":
            assert read_json(tmp_path / "shuffled" / "summary.json")["dropped_regions"] == [
                "R0002", "R0005"]

    def test_shuffled_pixel_files_give_the_same_bytes(self, tmp_path, capsys):
        # the grid takes its regions in label order, so pixel and event rows
        # whose regions are first seen in another order ingest to the same
        # files, dropped regions included, and estimate the same from them
        grid = simulate_disturbance_grid(GridDGPConfig(n_regions=30, pixels_per_region=6,
                                                       n_years=8, ignition_rate=1.0, seed=5))
        paths = tmp_path / "pixels.csv", tmp_path / "events.csv"
        write_pixel_grid_csv(grid, *paths)
        files = [path.read_text(encoding="utf-8").splitlines(True) for path in paths]
        rng = np.random.default_rng(5)
        panel = tmp_path / "panel.csv"
        runs = []
        for form in ("ordered", "shuffled"):
            if form == "shuffled":
                # the same input paths, so the manifests name the same files
                for path, (header, *rows) in zip(paths, files):
                    lines = [rows[k] for k in rng.permutation(len(rows))]
                    path.write_text(header + "".join(lines), encoding="utf-8")
                pixels = paths[0].read_text(encoding="utf-8").splitlines()[1:]
                regions = [line.split(",")[1] for line in pixels]
                assert list(dict.fromkeys(regions)) != sorted(set(regions))
            ingested, estimated = tmp_path / f"{form}-ingest", tmp_path / f"{form}-estimate"
            assert main(["ingest", "--pixels", str(paths[0]), "--events", str(paths[1]),
                         "--canopy-threshold", "70", "--out", str(ingested)]) == 0
            panel.write_bytes((ingested / "panel.csv").read_bytes())  # one path for estimate
            assert main(["estimate", "--panel", str(panel), "--estimator", "all", "--two-step",
                         "--collapse", "--out", str(estimated)]) == 0
            runs.append((read_all_bytes(ingested), read_all_bytes(estimated),
                         capsys.readouterr()))
        assert runs[0] == runs[1]
        dropped = read_json(tmp_path / "shuffled-ingest" / "summary.json")["dropped_regions"]
        assert dropped and dropped == sorted(dropped)


class TestOutputStep:
    """Each subcommand returns its files and stdout lines and writes nothing;
    ``main`` renders every JSON payload strictly, and only then creates the
    output directory, writes the files and a manifest, and prints the lines."""

    @pytest.mark.parametrize("command, files", [
        (["ingest", "--panel", "{panel}"], {"panel.csv", "summary.json"}),
        (["estimate", "--panel", "{panel}", "--estimator", "fe2w"],
         {"report.json", "elasticity.csv", "scatter.csv"}),
        (["estimate", "--panel", "{panel}", "--estimator", "lsdv"],
         {"report.json", "elasticity.csv"}),
        (["estimate", "--panel", "{panel}", "--collapse"],
         {"report.json", "elasticity.csv", "scatter.csv"}),
        (["robustness", "--panel", "{panel}", "--exclude-years", "2004"], {"report.json"}),
        (["montecarlo", "--preset", "nickell-demo", "--reps", "2"],
         {"montecarlo.json", "montecarlo.csv"}),
    ], ids=["ingest", "estimate-fe2w", "estimate-lsdv", "estimate-all", "robustness",
            "montecarlo"])
    def test_each_subcommand_leaves_exactly_its_files(self, tmp_path, capsys, command, files):
        write_log_panel(tmp_path / "panel.csv", seed=98)
        out = tmp_path / "out"
        argv = [arg.format(panel=tmp_path / "panel.csv") for arg in command] + ["--out", str(out)]
        args = cli.build_parser().parse_args(argv)
        returned, lines = args.func(args)
        assert set(returned) == files and lines
        assert not out.exists()
        assert main(argv) == 0
        assert {path.name for path in out.iterdir()} == files | {"manifest.json"}
        for name in files | {"manifest.json"}:
            if name.endswith(".json"):
                read_json(out / name)
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)

    # each overflow warns where it happens; what is checked is what follows it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, message", [
        (["estimate", "--levels", "--estimator", "fe2w"],
         "least-squares design or response is not finite (inf, NaN or overflow)"),
        (["robustness", "--estimator", "fe2w", "--levels"],
         "least-squares design or response is not finite (inf, NaN or overflow)"),
        (["ingest"], f"summary.json: {NOT_JSON}"),
    ], ids=["estimate", "robustness", "ingest"])
    def test_overflowing_panel_is_rejected(self, tmp_path, capsys, command, message):
        (tmp_path / "pos.csv").write_text(OVERFLOWING_PANEL)
        out = tmp_path / "out"
        assert main([command[0], "--panel", str(tmp_path / "pos.csv"), *command[1:],
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("estimator", ["fe2w", "lsdv"])
    def test_non_finite_report_is_rejected(self, tmp_path, capsys, estimator):
        # levels near 1e160 fit, but their squares overflow, so the clustered
        # covariance and the within R2 are not finite
        rng = np.random.default_rng(99)
        panel = PanelDataset(tuple(f"r{i:02d}" for i in range(30)), tuple(range(2001, 2007)),
                             {name: Grid.full(rng.uniform(1, 2, (30, 6)) * 1e160)
                              for name in ("L", "E")})
        write_panel_csv(panel, tmp_path / "big.csv")
        out = tmp_path / "out"
        assert main(["estimate", "--panel", str(tmp_path / "big.csv"), "--levels",
                     "--estimator", estimator, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: report.json: {NOT_JSON}\n")
        assert not out.exists()

    @pytest.mark.parametrize("rows", [OVERFLOWING_PANEL, None], ids=["1e308", "1e160"])
    def test_rejected_run_prints_only_its_error_line(self, tmp_path, rows):
        # numpy warns at each overflow before the typed error is raised; in a
        # fresh process, with the default warning filters, no warning line
        # (an install path and a source line) comes before the error line
        if rows is None:
            rng = np.random.default_rng(99)
            panel = PanelDataset(tuple(f"r{i:02d}" for i in range(30)),
                                 tuple(range(2001, 2007)),
                                 {name: Grid.full(rng.uniform(1, 2, (30, 6)) * 1e160)
                                  for name in ("L", "E")})
            write_panel_csv(panel, tmp_path / "levels.csv")
            message = f"report.json: {NOT_JSON}"
        else:
            (tmp_path / "levels.csv").write_text(rows)
            message = "least-squares design or response is not finite (inf, NaN or overflow)"
        out = tmp_path / "out"
        done = run_fresh("-m", "forestpanel.cli", "estimate", "--panel",
                         str(tmp_path / "levels.csv"), "--levels", "--estimator", "fe2w",
                         "--out", str(out))
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("reject", [False, True])
    def test_stderr_is_shown_only_for_a_run_that_succeeds(self, tmp_path, reject):
        # a subcommand that prints to stderr and warns: a run that succeeds
        # shows both, in order, as they happened; a rejected one neither
        script = """
import sys, warnings
from forestpanel import cli
from forestpanel.estimators import EstimationError
def noisy(args):
    print("note", file=sys.stderr)
    warnings.warn("kept", RuntimeWarning)
    if args.panel == "reject":
        raise EstimationError("typed failure")
    return {}, ["done"]
cli.cmd_ingest = noisy
sys.exit(cli.main(sys.argv[1:]))
"""
        out = tmp_path / "out"
        done = run_fresh("-c", script, "ingest", "--panel", "reject" if reject else "keep",
                         "--out", str(out))
        if reject:
            assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: typed failure\n")
            assert not out.exists()
        else:
            assert (done.returncode, done.stdout) == (0, "done\n")
            note, warning = done.stderr.split("\n", 1)
            assert note == "note" and "RuntimeWarning: kept\n" in warning
            assert (out / "manifest.json").exists()

    def test_callers_warning_filters_still_apply(self, tmp_path, monkeypatch):
        # a warning that the caller's filters turn into an error is a bug of
        # the run, raised out of main, not a rejection
        def warns(args):
            np.float64(1e308) * 10.0
            return {}, []

        monkeypatch.setattr(cli, "cmd_ingest", warns)
        with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="overflow"):
            warnings.simplefilter("error", RuntimeWarning)
            main(["ingest", "--panel", "unread.csv", "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


class TestMonteCarloCommand:
    def test_smoke_run_two_reps(self, tmp_path):
        config = {
            "dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0,
                    "sigma_alpha": 1.0, "sigma_u": 1.0},
            "estimators": ["lsdv"],
            "replications": 2,
        }
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "montecarlo.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 2

    def test_nickell_preset_signs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["montecarlo", "--preset", "nickell-demo", "--reps", "25",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        results = read_json(out / "montecarlo.json")["results"]
        lsdv_rho = results["lsdv"]["aggregates"]["e_l1"]["mean"]
        gmm_rho = results["diffgmm"]["aggregates"]["e_l1"]["mean"]
        assert lsdv_rho < 0.45
        assert abs(gmm_rho - 0.5) < abs(lsdv_rho - 0.5)

    def test_every_registry_estimator_runs(self, tmp_path):
        config = {
            "dgp": {"n_regions": 30, "n_years": 6, "rho": 0.3, "beta": 1.0,
                    "sigma_alpha": 1.0, "sigma_u": 1.0},
            "estimators": list(ESTIMATORS),
            "replications": 2,
        }
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--seed", "3", "--out", str(out)]) == 0
        results = read_json(out / "montecarlo.json")["results"]
        assert set(results) == set(ESTIMATORS)
        for name, res in results.items():
            assert (res["failed"], res["completed"]) == (0, 2), name
            assert ("e_l1" in res["aggregates"]) == ESTIMATORS[name].dynamic

    @pytest.mark.parametrize("estimators", [["lsdv", "diffgmn"], ["all"]])
    def test_unknown_estimator_is_an_error(self, tmp_path, capsys, estimators):
        config = {
            "dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0},
            "estimators": estimators,
            "replications": 2,
        }
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown estimators") and "sysgmm" in err
        assert not (out / "montecarlo.json").exists()

    @pytest.mark.parametrize("config, message", [
        ({"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0,
                  "sigma_alfa": 1.0}}, "unknown dgp keys: ['sigma_alfa']"),
        ({"dgp": {"n_regions": 20, "n_years": 6, "beta": 1.0}},
         "dgp block lacks required keys: ['rho']"),
        ({"estimators": ["lsdv"]}, "montecarlo config needs a 'dgp' object"),
        # json writes these as the NaN and Infinity its reader accepts
        ({"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0,
                  "sigma_u": float("nan")}, "estimators": ["lsdv"]},
         "sigma_u must be finite, got nan"),
        ({"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": float("inf")},
          "estimators": ["lsdv"]}, "beta must be finite, got inf"),
        # a design no replication can draw is named before any worker starts
        ({"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0,
                  "error_law": "heavy_tail", "tail_index": 0.0}, "estimators": ["lsdv"]},
         "tail_index must be > 0 for heavy-tailed errors"),
        # years no CSV loader would read back
        ({"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0, "start_year": 998},
          "estimators": ["lsdv"]}, "start_year 998 with n_years 6 gives years outside 1000-9999"),
        ({"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0, "start_year": 9995},
          "estimators": ["lsdv"]},
         "start_year 9995 with n_years 6 gives years outside 1000-9999"),
    ], ids=["unknown-key", "missing-rho", "missing-dgp", "sigma-u-nan", "beta-inf",
            "heavy-tail-index-zero", "start-year-low", "start-year-high"])
    def test_malformed_dgp_block_is_an_error(self, tmp_path, capsys, config, message):
        (tmp_path / "mc.json").write_text(json.dumps({**config, "replications": 2}))
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--seed", "1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--min-lag", "min_lag must be >= 2 for valid moment conditions"),
        ("--max-lag", "max_lag must be >= min_lag"),
    ], ids=["min-lag", "max-lag"])
    def test_bad_gmm_flag_is_an_error(self, tmp_path, capsys, flag, message):
        out = tmp_path / "out"
        assert main(["montecarlo", "--preset", "nickell-demo", "--reps", "2", flag, "1",
                     "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "montecarlo.json").exists()

    def test_no_completed_replication_writes_no_nan(self, tmp_path, capsys, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise EstimationError("stub failure")

        monkeypatch.setattr(cli, "fit_diff_gmm", failing_fit)
        out = tmp_path / "out"
        assert main(["montecarlo", "--preset", "nickell-demo", "--reps", "2",
                     "--seed", "1", "--out", str(out)]) == 0

        results = read_json(out / "montecarlo.json")["results"]
        assert (results["diffgmm"]["completed"], results["diffgmm"]["failed"]) == (0, 2)
        for agg in results["diffgmm"]["aggregates"].values():
            assert agg["mean"] is agg["bias"] is agg["rmse"] is agg["coverage"] is None
        assert results["lsdv"]["completed"] == 2
        captured = capsys.readouterr()
        assert "diffgmm: no replication completed (2 failed)" in captured.out
        assert captured.err == "diffgmm: 2 failed (EstimationError: 2)\n"

    def test_one_region_gmm_replications_fail_by_name(self, tmp_path, capsys):
        config = {"dgp": {"n_regions": 1, "n_years": 6, "rho": 0.5, "beta": 1.0},
                  "estimators": ["diffgmm"], "replications": 2}
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--out", str(out)]) == 0
        results = read_json(out / "montecarlo.json")["results"]
        assert (results["diffgmm"]["completed"], results["diffgmm"]["failed"]) == (0, 2)
        captured = capsys.readouterr()
        assert "diffgmm: no replication completed (2 failed)" in captured.out
        assert captured.err == "diffgmm: 2 failed (EstimationError: 2)\n"

    def test_rep_column_names_the_replication(self, tmp_path, monkeypatch):
        # the stub fails on the replication-0 panel, whichever worker fits it
        fit_diff_gmm = cli.fit_diff_gmm
        dgp = {"n_regions": 30, "n_years": 6, "rho": 0.3, "beta": 1.0}
        first, _ = simulate_dynamic_panel(DGPConfig(**dgp, seed=replication_seed(1, 0)))

        def fails_at_zero(panel, *args, **kwargs):
            if np.array_equal(panel.var("e").values, first.var("e").values):
                raise EstimationError("stub failure at r=0")
            return fit_diff_gmm(panel, *args, **kwargs)

        monkeypatch.setattr(cli, "fit_diff_gmm", fails_at_zero)
        config = {"dgp": dgp, "estimators": ["lsdv", "diffgmm"], "replications": 3}
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--seed", "1", "--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in
                (out / "montecarlo.csv").read_text().splitlines()[1:]]
        assert rows == [["lsdv", "0"], ["lsdv", "1"], ["lsdv", "2"],
                        ["diffgmm", "1"], ["diffgmm", "2"]]

    @pytest.mark.parametrize("flags, replications, message", [
        (["--reps", "0"], 3, "need at least 2 replications"),
        ([], 2.5, "config key 'replications' must be an integer, got 2.5"),
        ([], True, "config key 'replications' must be an integer, got True"),
        ([], "3", "config key 'replications' must be an integer, got '3'"),
    ], ids=["reps-zero", "float", "bool", "string"])
    def test_bad_replication_count_is_an_error(self, tmp_path, capsys, flags, replications,
                                               message):
        config = {"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0},
                  "estimators": ["lsdv"], "replications": replications}
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"), *flags,
                     "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "montecarlo.json").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"estimators": 5}, "config key 'estimators' must name estimators as strings, got 5"),
        ({"estimators": "lsdv"},
         "config key 'estimators' must name estimators as strings, got 'lsdv'"),
        ({"estimator": ["lsdv"]},
         "unknown config keys: ['estimator']; "
         "montecarlo accepts ['dgp', 'estimators', 'replications']"),
        ({"dgp": {"n_regions": "50"}}, "dgp key 'n_regions' must be an integer, got '50'"),
        ({"dgp": {"n_regions": True}}, "dgp key 'n_regions' must be an integer, got True"),
        ({"dgp": {"rho": "0.5"}}, "dgp key 'rho' must be a number, got '0.5'"),
        ({"dgp": {"seed": 1.5}}, "dgp key 'seed' must be an integer, got 1.5"),
        ({"dgp": {"error_law": 3}}, "dgp key 'error_law' must be a string, got 3"),
    ], ids=["estimators-int", "estimators-str", "estimator-list", "n-regions-str",
            "n-regions-bool", "rho-str", "seed-float", "error-law-int"])
    def test_config_type_error_is_named(self, tmp_path, capsys, changes, message):
        dgp = {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0,
               **changes.get("dgp", {})}
        config = {"replications": 2, **changes, "dgp": dgp}
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert err == f"error: {message}\n"
        assert not (out / "montecarlo.json").exists()

    def test_one_study_equals_single_estimator_runs(self, tmp_path):
        dgp = {"n_regions": 40, "n_years": 6, "rho": 0.5, "beta": 1.0,
               "sigma_alpha": 1.0, "sigma_u": 1.0}
        runs = {}
        for tag, estimators in (("both", ["lsdv", "diffgmm"]),
                                ("lsdv", ["lsdv"]), ("diffgmm", ["diffgmm"])):
            (tmp_path / f"{tag}.json").write_text(
                json.dumps({"dgp": dgp, "estimators": estimators, "replications": 4}))
            out = tmp_path / tag
            two_step = ["--two-step"] if "diffgmm" in estimators else []
            assert main(["montecarlo", "--config", str(tmp_path / f"{tag}.json"),
                         *two_step, "--seed", "5", "--out", str(out)]) == 0
            results = read_json(out / "montecarlo.json")["results"]
            rows = (out / "montecarlo.csv").read_text().splitlines()
            runs[tag] = results, rows
        both_results, both_rows = runs["both"]
        for name in ("lsdv", "diffgmm"):
            assert both_results[name] == runs[name][0][name]
        # both estimators are dynamic, so the headers agree; rows run estimator then rep
        header, lsdv_rows = runs["lsdv"][1][0], runs["lsdv"][1][1:]
        assert runs["diffgmm"][1][0] == header
        assert both_rows == [header, *lsdv_rows, *runs["diffgmm"][1][1:]]

    @pytest.mark.parametrize("changes, message", [
        ({"replication": 3}, "unknown config keys: ['replication']"),
        ({"estimator": "diffgmm"}, "unknown config keys: ['estimator']"),
        ({"estimators": []}, "config key 'estimators' must name at least one estimator"),
        ({"estimators": None}, "config key 'estimators' must name estimators as strings, "
                               "got None"),
    ], ids=["typo-key", "singular-key", "empty-list", "null"])
    def test_config_keys_are_checked(self, tmp_path, capsys, changes, message):
        config = {"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0},
                  "estimators": ["lsdv"], "replications": 2, **changes}
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    def test_gmm_flag_without_gmm_estimator_is_an_error(self, tmp_path, capsys):
        config = {"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0},
                  "estimators": ["lsdv", "fe2w"], "replications": 2}
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"), "--two-step",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --two-step: read only by the GMM estimators, and none runs\n")
        assert not out.exists()

    def test_repeated_estimator_is_an_error(self, tmp_path, capsys):
        config = {"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0},
                  "estimators": ["lsdv", "fe2w", "lsdv"], "replications": 2}
        (tmp_path / "mc.json").write_text(json.dumps(config))
        assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: estimators listed more than once: ['lsdv']\n"

    def test_config_and_preset_are_exclusive(self, tmp_path, capsys):
        # neither source may silently override the other
        config = {"dgp": {"n_regions": 20, "n_years": 6, "rho": 0.2, "beta": 1.0},
                  "estimators": ["lsdv"], "replications": 2}
        (tmp_path / "mc.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                  "--preset", "nickell-demo", "--reps", "2", "--out", str(out)])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "--config" in err and "--preset" in err and "not allowed with" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_or_preset_is_required(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main(["montecarlo", "--reps", "2", "--out", str(out)])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "one of the arguments --config --preset is required" in err
        assert not out.exists()

    def test_malformed_config_json_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        path.write_text('{"dgp": {"n_regions": 20,}')
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed JSON: ")
        assert not (out / "montecarlo.json").exists()

    def test_default_seed_is_the_dgp_default(self, tmp_path):
        config = {
            "dgp": {"n_regions": 15, "n_years": 6, "rho": 0.2, "beta": 1.0},
            "estimators": ["lsdv"],
            "replications": 2,
        }
        (tmp_path / "mc.json").write_text(json.dumps(config))
        for name, seed in (("none", []), ("zero", ["--seed", "0"])):
            assert main(["montecarlo", "--config", str(tmp_path / "mc.json"), *seed,
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "none" / "montecarlo.json").read_bytes()
                == (tmp_path / "zero" / "montecarlo.json").read_bytes())

    def test_same_seed_byte_identical(self, tmp_path):
        config = {
            "dgp": {"n_regions": 15, "n_years": 6, "rho": 0.2, "beta": 1.0,
                    "sigma_u": 1.0},
            "estimators": ["fe2w"],
            "replications": 3,
        }
        (tmp_path / "mc.json").write_text(json.dumps(config))
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["montecarlo", "--config", str(tmp_path / "mc.json"),
                         "--seed", "7", "--out", str(out)]) == 0
            outputs.append(read_all_bytes(out))
        assert outputs[0] == outputs[1]
