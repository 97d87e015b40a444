import dataclasses

import numpy as np
import pytest

from forestpanel import (
    DGPConfig,
    DGPError,
    EstimationError,
    FitResult,
    GridDGPConfig,
    RegressionSpec,
    aggregate_loss,
    fit_twoway_fe,
    monte_carlo,
    replication_seed,
    simulate_disturbance_grid,
    simulate_dynamic_panel,
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
        from forestpanel import CONST, fit_pooled_ols

        cfg = DGPConfig(n_regions=400, n_years=10, rho=0.0, beta=1.0,
                        sigma_alpha=2.0, sigma_u=0.5,
                        regressor_process="correlated_with_alpha",
                        regressor_param=0.8, seed=5)
        panel, _ = simulate_dynamic_panel(cfg)
        pooled = fit_pooled_ols(panel, RegressionSpec("e", (CONST, "l")))
        spec = RegressionSpec("e", ("l",), include_region_effects=True,
                              include_time_effects=True)
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

    def test_loss_conservation(self):
        cfg = GridDGPConfig(n_regions=10, pixels_per_region=50, n_years=23,
                            ignition_rate=2.0, seed=10)
        grid = simulate_disturbance_grid(cfg)
        years = range(cfg.start_year, cfg.start_year + cfg.n_years)
        panel = aggregate_loss(grid, years)
        per_region_loss = panel.var("value").values.sum(axis=1)
        assert np.all(per_region_loss <= cfg.pixels_per_region * cfg.pixel_area + 1e-9)

    def test_heavy_tail_shape_at_defaults(self):
        cfg = GridDGPConfig(seed=11)
        grid = simulate_disturbance_grid(cfg)
        years = range(cfg.start_year, cfg.start_year + cfg.n_years)
        loss = aggregate_loss(grid, years).var("value").values.ravel()
        centered = loss - loss.mean()
        skewness = np.mean(centered**3) / np.mean(centered**2) ** 1.5
        assert skewness > 2.0
        assert loss.max() / loss.mean() > 30.0

    def test_same_seed_identical(self):
        cfg = GridDGPConfig(n_regions=4, pixels_per_region=20, n_years=6, seed=12)
        assert simulate_disturbance_grid(cfg) == simulate_disturbance_grid(cfg)


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

        study = monte_carlo(self.CFG, oracle_estimator, {"l": 1.0}, replications=10)
        agg = study.aggregates()["l"]
        assert agg["bias"] == 0.0
        assert agg["rmse"] == 0.0
        assert agg["coverage"] == 1.0

    def test_fe_bias_and_coverage(self):
        cfg = DGPConfig(n_regions=200, n_years=23, rho=0.0, beta=1.0,
                        sigma_alpha=1.0, sigma_gamma=0.5, sigma_u=1.0, seed=14)
        spec = RegressionSpec("e", ("l",), include_region_effects=True,
                              include_time_effects=True)
        study = monte_carlo(cfg, lambda p: fit_twoway_fe(p, spec), {"l": 1.0}, 200)
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

        study = monte_carlo(self.CFG, flaky, {"l": 1.0}, replications=6)
        assert study.n_failed == 3
        assert len(study.estimates) == 3
        assert all("boom" in msg for _, msg in study.failures)

    def test_unexpected_exception_propagates(self):
        def buggy(panel):
            raise RuntimeError("bug in the estimator")

        with pytest.raises(RuntimeError, match="bug in the estimator"):
            monte_carlo(self.CFG, buggy, {"l": 1.0}, replications=2)

    def test_no_completed_replication_aggregates_to_none(self):
        def failing(panel):
            raise EstimationError("always")

        study = monte_carlo(self.CFG, failing, {"l": 1.0}, replications=3)
        assert study.n_failed == 3
        assert study.aggregates() == {"l": {"truth": 1.0, "mean": None, "bias": None,
                                            "rmse": None, "coverage": None}}

    def test_aggregates_match_hand_recomputation(self):
        rng = np.random.default_rng(15)
        draws = iter(rng.normal(1.0, 0.1, size=8).tolist())

        def noisy(panel):
            value = next(draws)
            return FitResult("stub", ("l",), {"l": value}, np.array([[0.01]]), 1)

        study = monte_carlo(self.CFG, noisy, {"l": 1.0}, replications=8)
        est = np.array([rep["l"] for rep in study.estimates])
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
            monte_carlo(self.CFG, lambda p: None, {"l": 1.0}, replications=1)

    def test_per_rep_rows_shape(self):
        def stub(panel):
            return FitResult("stub", ("l",), {"l": 1.0}, np.array([[0.01]]), 1)

        study = monte_carlo(self.CFG, stub, {"l": 1.0}, replications=3)
        rows = study.per_rep_rows()
        assert len(rows) == 3
        assert set(rows[0]) == {"rep", "l_estimate", "l_se"}
