import ctypes
import dataclasses
import functools
import hashlib
import itertools
import multiprocessing
import os
import signal
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_ingest import assert_same_grid

from forestpanel import cli, dgp
from forestpanel.cli import ESTIMATORS
from forestpanel.dgp import (
    DGPConfig,
    DGPError,
    GridDGPConfig,
    monte_carlo,
    replication_seed,
    simulate_disturbance_grid,
    simulate_dynamic_panel,
)
from forestpanel.estimators import (
    EstimationError,
    FitResult,
    RegressionSpec,
    fit_dynamic_lsdv,
    fit_twoway_fe,
    lagged_name,
)
from forestpanel.gmm import GmmOptions, fit_diff_gmm
from forestpanel.ingest import (
    EmissionFactors,
    load_panel_csv,
    load_pixel_grid_csv,
    pixel_panel,
    write_panel_csv,
    write_pixel_grid_csv,
)


class TestDGPConfigValidation:
    def test_rho_bounds(self):
        with pytest.raises(DGPError):
            DGPConfig(n_regions=5, n_years=5, rho=1.0, beta=1.0)

    def test_negative_sigma(self):
        with pytest.raises(DGPError):
            DGPConfig(n_regions=5, n_years=5, rho=0.0, beta=1.0, sigma_u=-1.0)

    def test_burn_in_floor(self):
        with pytest.raises(DGPError):
            DGPConfig(n_regions=5, n_years=5, rho=0.0, beta=1.0, burn_in=10)

    def test_unknown_process(self):
        with pytest.raises(DGPError):
            DGPConfig(n_regions=5, n_years=5, rho=0.0, beta=1.0,
                      regressor_process="brownian")

    def test_negative_seed(self):
        with pytest.raises(DGPError, match="seed must be nonnegative"):
            DGPConfig(n_regions=5, n_years=5, rho=0.0, beta=1.0, seed=-1)

    @pytest.mark.parametrize("n_regions, n_years", [(0, 5), (5, 0)])
    def test_empty_panel(self, n_regions, n_years):
        with pytest.raises(DGPError, match=r"^need at least one region and one year$"):
            DGPConfig(n_regions=n_regions, n_years=n_years, rho=0.0, beta=1.0)

    def test_unknown_error_law(self):
        with pytest.raises(DGPError, match=r"^unknown error law 'cauchy'$"):
            DGPConfig(n_regions=5, n_years=5, rho=0.0, beta=1.0, error_law="cauchy")

    @pytest.mark.parametrize("tail_index", [0.0, -1.5])
    def test_heavy_tail_needs_positive_tail_index(self, tail_index):
        with pytest.raises(DGPError, match=r"^tail_index must be > 0 for heavy-tailed errors$"):
            DGPConfig(n_regions=5, n_years=5, rho=0.0, beta=1.0,
                      error_law="heavy_tail", tail_index=tail_index)

    @pytest.mark.parametrize("field, value", [
        ("sigma_u", float("nan")), ("beta", float("inf")), ("sigma_x", float("nan")),
        # fields the default processes never read are checked too
        ("regressor_param", float("nan")), ("tail_index", float("-inf")),
        ("beta", 10 ** 400),
    ], ids=["sigma-u-nan", "beta-inf", "sigma-x-nan", "unread-param-nan",
            "unread-tail-index-inf", "beta-beyond-float"])
    def test_non_finite_float_is_named(self, field, value):
        with pytest.raises(DGPError, match=rf"^{field} must be finite, got "):
            DGPConfig(n_regions=5, n_years=5, **{"rho": 0.0, "beta": 1.0, field: value})

    @pytest.mark.parametrize("phi", [1.0, -1.2, float("nan")])
    def test_ar1_coefficient_checked_at_construction(self, phi):
        with pytest.raises(DGPError, match=r"^\|ar1 coefficient\| must be < 1$"):
            DGPConfig(n_regions=5, n_years=5, rho=0.0, beta=1.0,
                      regressor_process="ar1", regressor_param=phi)

    @pytest.mark.parametrize("start_year", [999, 9997])
    def test_years_outside_the_loaders_range_are_named(self, start_year):
        with pytest.raises(DGPError, match=rf"^start_year {start_year} with n_years 4 gives "
                                           r"years outside 1000-9999$"):
            DGPConfig(n_regions=5, n_years=4, rho=0.0, beta=1.0, start_year=start_year)

    @pytest.mark.parametrize("start_year", [1000, 9996])
    def test_years_at_the_range_ends_load(self, tmp_path, start_year):
        cfg = DGPConfig(n_regions=3, n_years=4, rho=0.0, beta=1.0, start_year=start_year)
        panel, _ = simulate_dynamic_panel(cfg)
        write_panel_csv(panel, tmp_path / "panel.csv")
        assert load_panel_csv(tmp_path / "panel.csv")[0].years == panel.years


class TestSimulateDynamicPanel:
    def test_recursion_collapses_without_noise(self):
        cfg = DGPConfig(n_regions=10, n_years=6, rho=0.0, beta=2.0,
                        sigma_alpha=0.0, sigma_gamma=0.0, sigma_u=0.0, seed=1)
        panel, truth = simulate_dynamic_panel(cfg)
        assert np.allclose(
            panel.var("e").values, 2.0 * panel.var("l").values, atol=1e-12
        )
        assert truth.beta == 2.0

    def test_stationary_variance(self):
        cfg = DGPConfig(n_regions=2000, n_years=50, rho=0.5, beta=1.0,
                        sigma_x=0.0, sigma_u=1.0, seed=2)
        panel, _ = simulate_dynamic_panel(cfg)
        e = panel.var("e").values
        target = 1.0 / (1 - 0.25)
        assert abs(e.var() / target - 1.0) < 0.05

    def test_lag1_autocorrelation_converges_to_rho(self):
        cfg = DGPConfig(n_regions=2000, n_years=50, rho=0.6, beta=1.0,
                        sigma_x=0.0, sigma_u=1.0, seed=3)
        panel, _ = simulate_dynamic_panel(cfg)
        e = panel.var("e").values
        corr = np.corrcoef(e[:, 1:].ravel(), e[:, :-1].ravel())[0, 1]
        assert abs(corr - 0.6) < 0.02

    def test_same_seed_bit_identical(self):
        cfg = DGPConfig(n_regions=30, n_years=10, rho=0.3, beta=1.0,
                        sigma_alpha=1.0, sigma_u=1.0, seed=4)
        a, _ = simulate_dynamic_panel(cfg)
        b, _ = simulate_dynamic_panel(cfg)
        assert np.array_equal(a.var("e").values, b.var("e").values)
        assert np.array_equal(a.var("l").values, b.var("l").values)

    def test_regressor_correlated_with_alpha_biases_pooled(self):
        # the omitted-heterogeneity demo: FE ignores alpha, pooled cannot
        from forestpanel.estimators import CONST, fit_pooled_ols

        cfg = DGPConfig(n_regions=400, n_years=10, rho=0.0, beta=1.0,
                        sigma_alpha=2.0, sigma_u=0.5,
                        regressor_process="correlated_with_alpha",
                        regressor_param=0.8, seed=5)
        panel, _ = simulate_dynamic_panel(cfg)
        pooled = fit_pooled_ols(panel, RegressionSpec("e", (CONST, "l")))
        spec = RegressionSpec("e", ("l",))
        fe = fit_twoway_fe(panel, spec)
        assert abs(fe.coefficients["l"] - 1.0) < 0.05
        assert abs(pooled.coefficients["l"] - 1.0) > 0.3

    def test_ar1_regressor_process(self):
        cfg = DGPConfig(n_regions=1500, n_years=40, rho=0.0, beta=0.0,
                        regressor_process="ar1", regressor_param=0.7,
                        sigma_x=1.0, seed=6)
        panel, _ = simulate_dynamic_panel(cfg)
        x = panel.var("l").values
        corr = np.corrcoef(x[:, 1:].ravel(), x[:, :-1].ravel())[0, 1]
        assert abs(corr - 0.7) < 0.02

    @pytest.mark.parametrize("rho", [-0.7, -0.2, 0.0, 0.6])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (6, 1), (9, 4)], ids=str)
    def test_bit_identical_to_region_major_loop(self, rho, shape):
        # the time-major recursion keeps the operation order and the signed
        # zeros of the loop over (N, total) columns that it replaced
        def region_major(config):
            rng = np.random.default_rng(config.seed)
            N, T, B = config.n_regions, config.n_years, config.burn_in
            total = B + T
            alpha = config.sigma_alpha * rng.standard_normal(N)
            gamma_all = config.sigma_gamma * rng.standard_normal(total)
            if config.regressor_process == "iid_normal":
                x = config.sigma_x * rng.standard_normal((N, total))
            elif config.regressor_process == "ar1":
                phi = config.regressor_param
                innov = config.sigma_x * rng.standard_normal((N, total))
                x = np.zeros((N, total))
                x[:, 0] = innov[:, 0] / np.sqrt(1 - phi**2)
                for t in range(1, total):
                    x[:, t] = phi * x[:, t - 1] + innov[:, t]
            else:
                noise = config.sigma_x * rng.standard_normal((N, total))
                x = config.regressor_param * alpha[:, None] + noise
            u = config.sigma_u * dgp._draw_errors(rng, config.error_law, config.tail_index,
                                                  (N, total))
            e = np.zeros((N, total))
            prev = np.zeros(N)
            for t in range(total):
                prev = alpha + gamma_all[t] + config.rho * prev + config.beta * x[:, t] + u[:, t]
                e[:, t] = prev
            return x[:, B:], e[:, B:]

        N, T = shape
        sigmas = [dict(sigma_alpha=1.0, sigma_gamma=0.5, sigma_u=1.0),
                  dict(sigma_alpha=0.0, sigma_gamma=0.0, sigma_u=0.0),
                  dict(sigma_alpha=0.0, sigma_gamma=0.0, sigma_u=0.0, sigma_x=0.0, beta=-1.0),
                  dict(sigma_alpha=2.0, sigma_gamma=0.0, sigma_u=0.0)]
        laws = [dict(), dict(regressor_process="ar1", regressor_param=-0.5),
                dict(regressor_process="correlated_with_alpha", regressor_param=0.8),
                dict(error_law="heavy_tail", tail_index=1.2)]
        for seed, (sigma, law) in enumerate(itertools.product(sigmas, laws)):
            fields = {"n_regions": N, "n_years": T, "rho": rho, "beta": 0.7, "seed": seed,
                      **sigma, **law}
            config = DGPConfig(**fields)
            panel, _ = simulate_dynamic_panel(config)
            x, e = region_major(config)
            assert panel.var("l").values.tobytes() == x.tobytes(), fields
            assert panel.var("e").values.tobytes() == e.tobytes(), fields


class TestGridDGPConfigValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -5.0])
    @pytest.mark.parametrize("field", ["ignition_rate", "event_min_pixels"])
    def test_rate_and_event_size_finite_nonnegative(self, field, value):
        with pytest.raises(DGPError, match=rf"^{field} must be finite and >= 0, got "):
            GridDGPConfig(**{field: value})

    def test_rate_at_most_numpy_poisson_limit(self):
        # built only: no grid is simulated at these rates
        above = float(np.nextafter(dgp.POISSON_LAM_MAX, np.inf))
        limit = GridDGPConfig(ignition_rate=dgp.POISSON_LAM_MAX).ignition_rate
        assert limit == 9.223372006484771e18
        with pytest.raises(DGPError, match=r"^ignition_rate must be at most "
                                           r"9\.223372006484771e\+18, got 9\.223372006484772e\+18$"):
            GridDGPConfig(ignition_rate=above)
        # the limit is numpy's: one draw at it works, one just above it fails
        rng = np.random.default_rng(0)
        assert rng.poisson(dgp.POISSON_LAM_MAX) >= 0
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(above)

    def test_negative_seed(self):
        with pytest.raises(DGPError, match=r"^seed must be nonnegative$"):
            GridDGPConfig(seed=-1)

    @pytest.mark.parametrize("field", ["n_regions", "pixels_per_region", "n_years"])
    def test_counts_must_be_positive(self, field):
        with pytest.raises(DGPError, match=r"^counts must be positive$"):
            GridDGPConfig(**{field: 0})

    @pytest.mark.parametrize("start_year", [998, 9978])
    def test_years_outside_the_loaders_range_are_named(self, start_year):
        with pytest.raises(DGPError, match=rf"^start_year {start_year} with n_years 23 gives "
                                           r"years outside 1000-9999$"):
            GridDGPConfig(start_year=start_year)

    @pytest.mark.parametrize("start_year", [1000, 9977])
    def test_years_at_the_range_ends_load(self, tmp_path, start_year):
        cfg = GridDGPConfig(n_regions=3, pixels_per_region=20, ignition_rate=2.0, seed=4,
                            start_year=start_year)
        grid = simulate_disturbance_grid(cfg)
        assert grid.event_year.min() >= 1000 and grid.event_year.max() <= 9999
        paths = tmp_path / "pixels.csv", tmp_path / "events.csv"
        write_pixel_grid_csv(grid, *paths)
        assert_same_grid(load_pixel_grid_csv(*paths), grid)

    @pytest.mark.parametrize("field", ["biomass_log_mean", "biomass_log_sigma",
                                       "event_tail_index", "pixel_area"])
    def test_landscape_is_no_field(self, field):
        assert len(dataclasses.fields(GridDGPConfig)) == 7
        with pytest.raises(TypeError):
            GridDGPConfig(**{field: 1.0})


class TestDisturbanceGrid:
    def test_no_ignitions_no_events(self):
        cfg = GridDGPConfig(n_regions=5, pixels_per_region=10, n_years=5,
                            ignition_rate=0.0, seed=7)
        grid = simulate_disturbance_grid(cfg)
        assert grid.loss_events == frozenset()

    def test_pixel_lost_at_most_once(self):
        cfg = GridDGPConfig(n_regions=1, pixels_per_region=1, n_years=10,
                            ignition_rate=5.0, seed=8)
        grid = simulate_disturbance_grid(cfg)
        assert len(grid.loss_events) <= 1

    def test_truncation_never_raises(self):
        cfg = GridDGPConfig(n_regions=3, pixels_per_region=5, n_years=10,
                            ignition_rate=4.0, event_min_pixels=10.0, seed=9)
        grid = simulate_disturbance_grid(cfg)
        assert len(grid.loss_events) <= 15

    def test_event_size_beyond_float_range_takes_the_region(self):
        # the event size event_min_pixels * (pareto + 1) overflows to infinity
        cfg = GridDGPConfig(n_regions=3, pixels_per_region=5, n_years=2,
                            ignition_rate=4.0, event_min_pixels=sys.float_info.max, seed=9)
        assert len(simulate_disturbance_grid(cfg).event_pixel) == 15

    def test_zero_event_size_loses_nothing(self):
        cfg = GridDGPConfig(n_regions=3, pixels_per_region=5, n_years=4,
                            ignition_rate=4.0, event_min_pixels=0.0, seed=9)
        assert len(simulate_disturbance_grid(cfg).event_pixel) == 0

    def test_loss_conservation(self):
        cfg = GridDGPConfig(n_regions=10, pixels_per_region=50, n_years=23,
                            ignition_rate=2.0, seed=10)
        grid = simulate_disturbance_grid(cfg)
        years = range(cfg.start_year, cfg.start_year + cfg.n_years)
        panel = pixel_panel(grid, EmissionFactors(), years)
        per_region_loss = panel.var("L").values.sum(axis=1)
        assert np.all(per_region_loss <= cfg.pixels_per_region * dgp.PIXEL_AREA + 1e-9)

    def test_heavy_tail_shape_at_defaults(self):
        cfg = GridDGPConfig(seed=11)
        grid = simulate_disturbance_grid(cfg)
        years = range(cfg.start_year, cfg.start_year + cfg.n_years)
        loss = pixel_panel(grid, EmissionFactors(), years).var("L").values.ravel()
        centered = loss - loss.mean()
        skewness = np.mean(centered**3) / np.mean(centered**2) ** 1.5
        assert skewness > 2.0
        assert loss.max() / loss.mean() > 30.0

    def test_same_seed_identical(self):
        cfg = GridDGPConfig(n_regions=4, pixels_per_region=20, n_years=6, seed=12)
        assert_same_grid(simulate_disturbance_grid(cfg), simulate_disturbance_grid(cfg))

    @staticmethod
    def column_digest(grid):
        """The sizes and a digest of every column of ``grid``."""
        digest = hashlib.sha256()
        digest.update("\n".join(grid.pixel_ids.tolist()).encode())
        digest.update("\n".join(grid.regions).encode())
        for name, dtype in (("region_code", "<i8"), ("biomass", "<f8"), ("area", "<f8"),
                            ("canopy", "<f8"), ("event_pixel", "<i8"), ("event_year", "<i8")):
            digest.update(np.ascontiguousarray(getattr(grid, name), dtype=dtype).tobytes())
        return len(grid.pixel_ids), len(grid.event_pixel), digest.hexdigest()

    def test_columns_pinned_at_seed_11(self):
        # drawing in another order, or adding or dropping a draw, changes the digest
        assert self.column_digest(simulate_disturbance_grid(GridDGPConfig(seed=11))) == (
            80000, 13132, "f83c413722cd128d57eb0baeeca68d32567cf7cf378a15eb6a8463f72dec4c12"
        )

    @pytest.mark.parametrize("config, expected", [
        (GridDGPConfig(n_regions=50, pixels_per_region=40, n_years=23, seed=3),
         (2000, 1928, "3adc8dae571807ec1b1be5ba67042eb576402f694bdad490b7bcdaa96608544a")),
        # events of at least 8 pixels empty every region's pool: truncated
        # events, and region-years that stop drawing once the pool is empty
        (GridDGPConfig(n_regions=50, pixels_per_region=40, n_years=23, event_min_pixels=8.0,
                       seed=3),
         (2000, 2000, "818a8c122643576626fb5548a20f3bc7c7a70111f9691d96952ff8067dfc0228")),
    ], ids=["seed-3", "truncated"])
    def test_columns_pinned(self, config, expected):
        # digests of the grids drawn when the pools held pixel id strings
        assert self.column_digest(simulate_disturbance_grid(config)) == expected


class TestMonteCarlo:
    CFG = DGPConfig(n_regions=50, n_years=8, rho=0.2, beta=1.0,
                    sigma_alpha=1.0, sigma_u=1.0, seed=13)

    def test_truth_returning_stub(self):
        def oracle_estimator(panel):
            return FitResult(
                estimator_tag="stub",
                coef_names=("l",),
                coefficients={"l": 1.0},
                vcov=np.array([[1e-6]]),
                n_obs=panel.N * panel.T,
            )

        study = monte_carlo(self.CFG, {"stub": (oracle_estimator, {"l": 1.0})},
                            replications=10).studies["stub"]
        agg = study.aggregates()["l"]
        assert agg["bias"] == 0.0
        assert agg["rmse"] == 0.0
        assert agg["coverage"] == 1.0

    def test_fe_bias_and_coverage(self):
        cfg = DGPConfig(n_regions=200, n_years=23, rho=0.0, beta=1.0,
                        sigma_alpha=1.0, sigma_gamma=0.5, sigma_u=1.0, seed=14)
        spec = RegressionSpec("e", ("l",))
        study = monte_carlo(cfg, {"fe2w": (lambda p: fit_twoway_fe(p, spec), {"l": 1.0})},
                            200).studies["fe2w"]
        agg = study.aggregates()["l"]
        assert abs(agg["bias"]) < 0.01
        assert 0.90 <= agg["coverage"] <= 0.98

    def test_failures_recorded_not_dropped(self):
        calls = {"n": 0}

        def flaky(panel):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise EstimationError("boom")
            return FitResult("stub", ("l",), {"l": 1.0}, np.array([[1e-6]]), 1)

        study = monte_carlo(self.CFG, {"flaky": (flaky, {"l": 1.0})},
                            replications=6).studies["flaky"]
        assert study.n_failed == 3
        assert len(study.rows) == 3
        assert all(msg == "boom" for _, _, msg in study.failures)

    def test_unexpected_exception_propagates(self):
        def buggy(panel):
            raise RuntimeError("bug in the estimator")

        with pytest.raises(RuntimeError, match="bug in the estimator"):
            monte_carlo(self.CFG, {"buggy": (buggy, {"l": 1.0})}, replications=2)

    def test_no_completed_replication_aggregates_to_none(self):
        def failing(panel):
            raise EstimationError("always")

        study = monte_carlo(self.CFG, {"failing": (failing, {"l": 1.0})},
                            replications=3).studies["failing"]
        assert study.n_failed == 3
        assert study.aggregates() == {"l": {"truth": 1.0, "mean": None, "bias": None,
                                            "rmse": None, "coverage": None}}

    def test_aggregates_match_hand_recomputation(self):
        rng = np.random.default_rng(15)
        draws = iter(rng.normal(1.0, 0.1, size=8).tolist())

        def noisy(panel):
            value = next(draws)
            return FitResult("stub", ("l",), {"l": value}, np.array([[0.01]]), 1)

        study = monte_carlo(self.CFG, {"noisy": (noisy, {"l": 1.0})},
                            replications=8).studies["noisy"]
        est = np.array([row["l_estimate"] for row in study.rows])
        agg = study.aggregates()["l"]
        assert agg["mean"] == pytest.approx(est.mean(), abs=1e-15)
        assert agg["bias"] == pytest.approx(est.mean() - 1.0, abs=1e-15)
        assert agg["rmse"] == pytest.approx(np.sqrt(np.mean((est - 1.0) ** 2)), abs=1e-15)
        covered = np.abs(est - 1.0) <= 1.96 * 0.1
        assert agg["coverage"] == pytest.approx(covered.mean(), abs=1e-15)

    def test_sub_seeds_order_independent(self):
        # replication r depends only on (seed, r), not on earlier replications
        seeds_forward = [replication_seed(99, r) for r in range(5)]
        assert replication_seed(99, 3) == seeds_forward[3]
        assert len(set(seeds_forward)) == 5

    def test_minimum_replications(self):
        with pytest.raises(DGPError):
            monte_carlo(self.CFG, {"stub": (lambda p: None, {"l": 1.0})}, replications=1)

    def test_per_rep_rows_shape(self):
        def stub(panel):
            return FitResult("stub", ("l",), {"l": 1.0}, np.array([[0.01]]), 1)

        study = monte_carlo(self.CFG, {"stub": (stub, {"l": 1.0})},
                            replications=3).studies["stub"]
        rows = study.rows
        assert len(rows) == 3
        assert set(rows[0]) == {"rep", "l_estimate", "l_se"}
        assert [row["rep"] for row in rows] == [0, 1, 2]


def stub_fit(panel):
    return FitResult("stub", ("l",), {"l": 1.0}, np.array([[1e-6]]), 1)


def fails_on_even_replications():
    """A stub fit that raises on replications 0, 2, 4, ...; it is called once
    per replication, in order, so its call count is the replication index."""
    calls = {"r": -1}

    def fit(panel):
        calls["r"] += 1
        if calls["r"] % 2 == 0:
            raise EstimationError(f"even {calls['r']}")
        return stub_fit(panel)

    return fit


class TestSharedDraw:
    CFG = DGPConfig(n_regions=40, n_years=7, rho=0.4, beta=1.0,
                    sigma_alpha=1.0, sigma_u=1.0, seed=16)
    SPEC = RegressionSpec("e", ("l",))
    DYNAMIC = {"l": 1.0, lagged_name("e"): 0.4}

    def estimands(self):
        return {
            "fe2w": (lambda p: fit_twoway_fe(p, self.SPEC), {"l": 1.0}),
            "lsdv": (lambda p: fit_dynamic_lsdv(p, self.SPEC), self.DYNAMIC),
            "diffgmm": (lambda p: fit_diff_gmm(p, self.SPEC, GmmOptions(two_step=True)),
                        self.DYNAMIC),
        }

    def test_one_draw_per_replication(self, monkeypatch):
        calls = []
        simulate = dgp.simulate_dynamic_panel

        def counting(config, *args, **kwargs):
            calls.append(config.seed)
            return simulate(config, *args, **kwargs)

        monkeypatch.setattr(dgp, "simulate_dynamic_panel", counting)
        run = monte_carlo(self.CFG, self.estimands(), replications=5)
        assert calls == [replication_seed(self.CFG.seed, r) for r in range(5)]
        assert list(run.studies) == ["fe2w", "lsdv", "diffgmm"]
        assert all(len(study.rows) == 5 for study in run.studies.values())

    def test_failure_stays_with_its_estimator(self):
        run = monte_carlo(self.CFG, {"flaky": (fails_on_even_replications(), {"l": 1.0}),
                                     "steady": (stub_fit, {"l": 1.0})},
                          replications=5)
        flaky, steady = run.studies["flaky"], run.studies["steady"]
        assert flaky.failures == [(0, "EstimationError", "even 0"),
                                  (2, "EstimationError", "even 2"),
                                  (4, "EstimationError", "even 4")]
        assert [row["rep"] for row in flaky.rows] == [1, 3]
        assert steady.failures == []
        assert [row["rep"] for row in steady.rows] == [0, 1, 2, 3, 4]
        assert run.n_failed == 3
        assert flaky.failure_counts() == {"EstimationError": 3}

    def test_each_study_equals_its_solo_run(self):
        estimands = self.estimands()
        estimands["flaky"] = (fails_on_even_replications(), {"l": 1.0})
        shared = monte_carlo(self.CFG, estimands, replications=4)
        solo_estimands = {**self.estimands(),
                          "flaky": (fails_on_even_replications(), {"l": 1.0})}
        for name, estimand in solo_estimands.items():
            solo = monte_carlo(self.CFG, {name: estimand}, replications=4).studies[name]
            study = shared.studies[name]
            assert study.rows == solo.rows, name
            assert study.failures == solo.failures, name
            assert study.truth == solo.truth and list(study.truth) == list(solo.truth)

    def test_no_estimator_is_an_error(self):
        with pytest.raises(DGPError, match="at least one estimator"):
            monte_carlo(self.CFG, {}, replications=2)


def local_exception():
    class Local(Exception):  # pickle cannot name a class defined in a function
        pass

    return Local


def assert_no_child_is_left():
    # a helper that exited but was never joined is still a child here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []


class TestWorkers:
    # heavy tails make some GMM system matrices singular: 11 of 12 diff-GMM
    # and 8 of 12 sys-GMM replications complete
    CFG = DGPConfig(n_regions=12, n_years=7, rho=0.5, beta=1.0, sigma_alpha=1.0,
                    sigma_gamma=1.0, error_law="heavy_tail", tail_index=0.4, seed=3)

    def registry_estimands(self):
        options = GmmOptions(collapse=True, two_step=True, year_dummies=False)
        estimands = {}
        for name, estimator in ESTIMATORS.items():
            truth = {"l": 1.0, lagged_name("e"): 0.5} if estimator.dynamic else {"l": 1.0}
            estimands[name] = (functools.partial(estimator.fit, x="l", y="e", options=options),
                               truth)
        return estimands

    # 12 replications in even lanes, uneven ones (2, 2, 2, 3, 3), and one
    # lane per replication when there are more workers than replications
    @pytest.mark.parametrize("workers", [2, 3, 5, 13])
    def test_two_workers_equal_one(self, workers):
        serial = monte_carlo(self.CFG, self.registry_estimands(), replications=12)
        forked = monte_carlo(self.CFG, self.registry_estimands(), replications=12,
                             workers=workers)
        assert_no_child_is_left()
        assert {name: len(study.rows) for name, study in serial.studies.items()} == {
            "pooled": 12, "fe2w": 12, "lsdv": 12, "diffgmm": 11, "sysgmm": 8}
        assert list(forked.studies) == list(serial.studies)
        for name, study in serial.studies.items():
            twin = forked.studies[name]
            assert twin.rows == study.rows, name
            assert twin.failures == study.failures, name
            assert twin.truth == study.truth and list(twin.truth) == list(study.truth)
            assert twin.to_json_dict() == study.to_json_dict(), name

    # an exception that pickle cannot carry comes as a RuntimeError of its
    # traceback text
    @pytest.mark.parametrize("raised", [RuntimeError, local_exception()],
                             ids=["RuntimeError", "unpicklable"])
    def test_worker_exception_reaches_the_caller(self, raised):
        def buggy(panel):
            raise raised("bug in the estimator")

        with pytest.raises(RuntimeError, match="bug in the estimator") as excinfo:
            monte_carlo(self.CFG, {"buggy": (buggy, {"l": 1.0})}, replications=4, workers=2)
        assert type(excinfo.value) is RuntimeError
        if raised is not RuntimeError:
            assert "Local: bug in the estimator" in str(excinfo.value)
            assert "in buggy\n" in str(excinfo.value)
        assert_no_child_is_left()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_no_worker_is_an_error(self, workers):
        with pytest.raises(DGPError, match="at least one worker"):
            monte_carlo(self.CFG, {"stub": (stub_fit, {"l": 1.0})}, replications=2,
                        workers=workers)

    def test_helper_that_dies_is_named(self):
        def dies(panel):
            os._exit(3)

        with pytest.raises(RuntimeError, match="exited with code 3"):
            monte_carlo(self.CFG, {"dies": (dies, {"l": 1.0})}, replications=4, workers=2)
        assert_no_child_is_left()

    def test_interrupt_stops_the_helpers(self):
        # the interrupt comes while this process waits for its helpers; it
        # must stop them, not wait for each replication's 20 s
        def slow(panel):
            time.sleep(20)
            return stub_fit(panel)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                monte_carlo(self.CFG, {"slow": (slow, {"l": 1.0})}, replications=4, workers=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 30
        assert_no_child_is_left()

    def test_worker_warnings_reach_the_caller_in_order_of_r(self):
        # a forked worker's own stderr is not the caller's, so each
        # replication's warnings come back with its outcome
        def warns(panel):
            warnings.warn(f"stub fit, e[0, 0] = {panel.var('e').values[0, 0]!r}", UserWarning)
            warnings.warn("the same text in every replication", UserWarning)
            return FitResult("stub", ("l",), {"l": 1.0}, np.array([[1.0]]), 1)

        def recorded(workers, action):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                monte_carlo(self.CFG, {"warns": (warns, {"l": 1.0})}, replications=6,
                            workers=workers)
            return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

        # "default" shows the repeated text once per run, as a serial run
        # without recording would
        for action, count in (("always", 12), ("default", 7)):
            serial = recorded(1, action)
            assert len(serial) == count
            assert serial[0][0].startswith("stub fit, e[0, 0] = ")
            assert serial[1][0] == "the same text in every replication"
            assert recorded(2, action) == serial, action
        assert multiprocessing.active_children() == []

    def test_each_worker_runs_one_blas_thread(self):
        libs = sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"))
        if not libs:
            pytest.skip("numpy bundles no OpenBLAS")
        library = ctypes.CDLL(str(libs[0]))
        getter = next(getattr(library, name) for name in
                      ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")
                      if hasattr(library, name))
        getter.restype = ctypes.c_int

        def blas_threads(panel):
            return FitResult("stub", ("l",), {"l": float(getter())}, np.array([[1.0]]), 1)

        # the setting cli.main makes before any subcommand runs; forked
        # workers inherit it
        cli._one_blas_thread()
        run = monte_carlo(self.CFG, {"threads": (blas_threads, {"l": 1.0})}, replications=4,
                          workers=2)
        assert [row["l_estimate"] for row in run.studies["threads"].rows] == [1.0] * 4
