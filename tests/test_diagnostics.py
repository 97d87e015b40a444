import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestpanel.dgp import DGPConfig, replication_seed, simulate_dynamic_panel
from forestpanel.diagnostics import (
    DiagnosticError,
    ar_test,
    diagnostic_bundle,
    durbin_watson,
    hansen_j,
    jarque_bera,
)
from forestpanel.estimators import FitResult, RegressionSpec, fit_twoway_fe
from forestpanel.gmm import GmmInternals, GmmOptions, fit_diff_gmm
from forestpanel.panel import Grid

SPEC = RegressionSpec("e", ("l",))


def gmm_stub(diff_residuals):
    """FitResult carrying only the differenced residuals the AR test reads."""
    d = np.asarray(diff_residuals, float)
    return FitResult(
        estimator_tag="diff_gmm",
        coef_names=("x",),
        coefficients={"x": 0.0},
        vcov=np.eye(1),
        n_obs=d.size,
        residual_grid=Grid.full(d),
        gmm=GmmInternals(scores=np.zeros((d.shape[0], 1))),
    )


def simulated_gmm_fit(seed=50, rho=0.4, N=200, T=7, two_step=True, collapse=False):
    cfg = DGPConfig(n_regions=N, n_years=T, rho=rho, beta=1.0,
                    sigma_alpha=1.0, sigma_u=1.0, seed=seed)
    panel, _ = simulate_dynamic_panel(cfg)
    return fit_diff_gmm(panel, SPEC, GmmOptions(two_step=two_step, collapse=collapse))


def within_fit():
    cfg = DGPConfig(n_regions=30, n_years=6, rho=0.0, beta=1.0, seed=49)
    return fit_twoway_fe(simulate_dynamic_panel(cfg)[0], SPEC)


class TestArTest:
    def test_zero_residuals_degenerate(self):
        with pytest.raises(DiagnosticError, match="degenerate"):
            ar_test(gmm_stub(np.zeros((5, 4))), 1)

    def test_too_few_periods(self):
        with pytest.raises(DiagnosticError):
            ar_test(gmm_stub(np.ones((5, 2))), 2)

    def test_order_validation(self):
        with pytest.raises(DiagnosticError):
            ar_test(gmm_stub(np.ones((5, 4))), 3)

    def test_within_fit_is_rejected(self):
        with pytest.raises(DiagnosticError,
                           match=r"^AR test needs a GMM fit with retained residuals$"):
            ar_test(within_fit(), 2)

    def test_differencing_induces_negative_ar1(self):
        fit = simulated_gmm_fit(seed=51)
        result = ar_test(fit, 1)
        assert result.statistic < -2.0
        assert result.p_value < 0.05

    def test_statistic_matches_hand_formula(self):
        rng = np.random.default_rng(52)
        d = rng.normal(size=(6, 5))
        result = ar_test(gmm_stub(d), 2)
        a = np.array([d[i, 2:] @ d[i, :-2] for i in range(6)])
        assert result.statistic == pytest.approx(a.sum() / np.sqrt((a**2).sum()), abs=1e-12)

    def test_invariant_under_within_region_reversal(self):
        # the summed adjacent-product statistic is symmetric under reversal
        rng = np.random.default_rng(53)
        d = rng.normal(size=(4, 6))
        forward = ar_test(gmm_stub(d), 1).statistic
        backward = ar_test(gmm_stub(d[:, ::-1].copy()), 1).statistic
        assert backward == pytest.approx(forward, abs=1e-12)

    def test_sign_flips_under_alternating_modulation(self):
        # crafted antisymmetry: negating every other period flips lag-1 products
        rng = np.random.default_rng(54)
        d = rng.normal(size=(4, 6))
        modulated = d * ((-1.0) ** np.arange(6))
        assert ar_test(gmm_stub(modulated), 1).statistic == pytest.approx(
            -ar_test(gmm_stub(d), 1).statistic, abs=1e-12
        )


class TestHansenJ:
    def test_just_identified_is_zero(self):
        cfg = DGPConfig(n_regions=100, n_years=5, rho=0.4, beta=1.0,
                        sigma_alpha=1.0, sigma_u=0.8, seed=55)
        panel, _ = simulate_dynamic_panel(cfg)
        fit = fit_diff_gmm(panel, SPEC, GmmOptions(min_lag=2, max_lag=2, collapse=True))
        assert fit.gmm.n_instruments == len(fit.coef_names)
        result = hansen_j(fit)
        assert result.statistic == 0.0
        assert result.df == 0

    def test_within_fit_is_rejected(self):
        with pytest.raises(DiagnosticError,
                           match=r"^J test needs a GMM fit with retained instruments$"):
            hansen_j(within_fit())

    def test_nonnegative(self):
        for seed in range(56, 60):
            assert hansen_j(simulated_gmm_fit(seed=seed)).statistic >= 0.0

    def test_invalid_instruments_detected(self):
        # MA(1) errors violate the s>=2 level orthogonality conditions
        rejections = 0
        R = 40
        for r in range(R):
            rng = np.random.default_rng(replication_seed(61, r))
            N, T = 400, 7
            alpha = rng.normal(size=N)
            x = rng.normal(size=(N, T + 1))
            v = rng.normal(size=(N, T + 2))
            u = v[:, 1:] + 0.6 * v[:, :-1]  # serially correlated error
            e = np.zeros((N, T + 1))
            prev = np.zeros(N)
            for t in range(T + 1):
                prev = alpha + 0.4 * prev + x[:, t] + u[:, t]
                e[:, t] = prev
            from forestpanel.panel import Grid, PanelDataset

            panel = PanelDataset(
                tuple(f"r{i}" for i in range(N)),
                tuple(range(2001, 2001 + T)),
                {"e": Grid.full(e[:, 1:]), "l": Grid.full(x[:, 1:])},
            )
            fit = fit_diff_gmm(panel, SPEC, GmmOptions(two_step=True))
            if hansen_j(fit).p_value < 0.05:
                rejections += 1
        assert rejections / R > 0.5


def rows_grid(series):
    """Residual grid with one region per equal-length series."""
    return Grid.full(np.vstack(series))


class TestDurbinWatson:
    def test_constant_residuals(self):
        assert durbin_watson(rows_grid([np.array([1.0, 1.0, 1.0, 1.0])])) == 0.0

    def test_alternating_residuals(self):
        assert durbin_watson(rows_grid([np.array([1.0, -1.0, 1.0, -1.0])])) == pytest.approx(3.0)

    def test_white_noise_near_two(self):
        rng = np.random.default_rng(62)
        series = [rng.normal(size=500) for _ in range(20)]
        assert 1.8 < durbin_watson(rows_grid(series)) < 2.2

    def test_scale_invariant(self):
        rng = np.random.default_rng(63)
        series = [rng.normal(size=30) for _ in range(3)]
        base = durbin_watson(rows_grid(series))
        scaled = durbin_watson(rows_grid([7.7 * s for s in series]))
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DiagnosticError):
            durbin_watson(rows_grid([np.zeros(5)]))

    def test_pooled_across_regions(self):
        a, b = np.array([1.0, 2.0, 4.0]), np.array([2.0, -1.0, 3.0])
        num = np.sum(np.diff(a) ** 2) + np.sum(np.diff(b) ** 2)
        den = a @ a + b @ b
        assert durbin_watson(rows_grid([a, b])) == pytest.approx(num / den, abs=1e-12)
        # a masked year holding junk is skipped, its neighbours differenced
        values = np.insert(np.vstack([a, b]), 1, 99.0, axis=1)
        available = np.ones(values.shape[1], dtype=bool)
        available[1] = False
        assert durbin_watson(Grid(values, available)) == durbin_watson(rows_grid([a, b]))

    def test_range(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            value = durbin_watson(rows_grid([rng.normal(size=50)]))
            assert 0.0 <= value <= 4.0

    @staticmethod
    def per_region_oracle(grid):
        """The per-region loop the columnar statistic replaced; None where the
        statistic is undefined: no region has two periods, or every residual
        is zero."""
        num = den = 0.0
        for i in range(grid.shape[0]):
            r = grid.values[i][grid.available]
            den += float(r @ r)
            if r.size >= 2:
                d = np.diff(r)
                num += float(d @ d)
        if grid.available.sum() < 2 or den == 0.0:
            return None
        return num / den

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 9)),
        seed=st.integers(0, 2**32 - 1),
        p_masked=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
        interior_year=st.booleans(),
    )
    def test_matches_per_region_loop(self, shape, seed, p_masked, interior_year):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=shape) * rng.choice([0.0, 1.0, 1e3], size=shape)
        available = rng.random(shape[1]) >= p_masked
        if interior_year and shape[1] >= 3:
            available[shape[1] // 2] = False  # a masked interior year, bridged
        # junk placeholders in the masked years
        values[:, ~available] = rng.normal(size=(shape[0], int((~available).sum()))) * 1e6
        grid = Grid(values, available)
        expected = self.per_region_oracle(grid)
        if expected is None:
            with pytest.raises(DiagnosticError):
                durbin_watson(grid)
        else:
            assert durbin_watson(grid) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def exact_normal_moments_sample():
    """Symmetric 10-point sample with skewness exactly 0 and kurtosis exactly 3."""
    c = np.sqrt(6 + np.sqrt(50))
    return np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, c, -c])


class TestJarqueBera:
    def test_zero_at_exact_normal_moments(self):
        sample = exact_normal_moments_sample()
        result = jarque_bera(sample)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-10)

    def test_small_sample_rejected(self):
        with pytest.raises(DiagnosticError):
            jarque_bera(np.ones(5) + np.arange(5))

    def test_zero_variance_rejected(self):
        with pytest.raises(DiagnosticError):
            jarque_bera(np.full(10, 3.3))

    def test_heavy_tails_detected(self):
        cfg = DGPConfig(n_regions=250, n_years=20, rho=0.0, beta=0.0,
                        sigma_u=1.0, error_law="heavy_tail", tail_index=1.5, seed=65)
        panel, _ = simulate_dynamic_panel(cfg)
        resid = panel.var("e").values.ravel()
        assert resid.size >= 5000
        assert jarque_bera(resid).p_value < 0.001

    def test_size_under_normality(self):
        rng = np.random.default_rng(66)
        rejections = sum(
            jarque_bera(rng.standard_normal(10_000)).p_value < 0.05 for _ in range(200)
        )
        assert 0.02 <= rejections / 200 <= 0.09

    def test_affine_invariance(self):
        rng = np.random.default_rng(67)
        x = rng.gamma(2.0, size=500)
        base = jarque_bera(x).statistic
        moved = jarque_bera(3.0 * x - 11.0).statistic
        assert moved == pytest.approx(base, abs=1e-8)


class TestWithinR2:
    @staticmethod
    def fe_fit(x, y):
        from forestpanel.panel import Grid, PanelDataset

        panel = PanelDataset(
            tuple(f"r{i}" for i in range(x.shape[0])),
            tuple(range(2001, 2001 + x.shape[1])),
            {"x": Grid.full(x), "y": Grid.full(y)},
        )
        spec = RegressionSpec("y", ("x",))
        return fit_twoway_fe(panel, spec)

    def test_perfect_fit(self):
        rng = np.random.default_rng(68)
        x = rng.normal(size=(5, 6))
        alpha = rng.normal(size=(5, 1))
        fit = self.fe_fit(x, alpha + 2.0 * x)
        assert fit.within_r2 == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_regressor(self):
        rng = np.random.default_rng(69)
        x = rng.normal(size=(40, 20))
        y = rng.normal(size=(40, 20))
        assert self.fe_fit(x, y).within_r2 < 0.05


class TestDiagnosticBundle:
    def test_gmm_bundle_contents(self):
        bundle = diagnostic_bundle(simulated_gmm_fit(seed=70))
        assert {"ar1", "ar2", "hansen_j"} <= set(bundle)

    def test_within_bundle_contents(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(6, 8))
        y = 1.5 * x + rng.normal(size=(6, 8))
        bundle = diagnostic_bundle(TestWithinR2.fe_fit(x, y))
        assert {"within_r2", "durbin_watson", "jarque_bera"} <= set(bundle)


class TestPValueParity:
    """Every reported p-value is bit for bit the scipy.stats value, although
    the package takes its tails from scipy.special and never imports it."""

    GRID = (0.0, 1e-300, 8.3, 37.5, 40.0, 1e6, np.inf)
    DFS = (1, 2, 41, 276)

    def test_coefficient_p_values_on_the_grid(self):
        from scipy import stats

        for se in (1.0, 0.37, 2.5e3):
            names = tuple(f"b{i}" for i in range(2 * len(self.GRID)))
            est = [sign * se * x for sign in (1.0, -1.0) for x in self.GRID]
            fit = FitResult("stub", names, dict(zip(names, est)),
                            np.eye(len(names)) * se**2, n_obs=10)
            ps = fit.p_values()
            assert fit.std_errors() == dict.fromkeys(names, se)
            for name, b in zip(names, est):
                assert ps[name] == float(2.0 * stats.norm.sf(abs(b) / se)), (se, b)

    def test_tails_on_the_grid(self):
        from scipy import stats

        from forestpanel.diagnostics import _chi2_sf
        from forestpanel.estimators import normal_p_value

        for x in self.GRID:
            assert normal_p_value(x) == normal_p_value(-x) == float(2.0 * stats.norm.sf(x))
            for df in self.DFS:
                assert _chi2_sf(x, df) == float(stats.chi2.sf(x, df)), (x, df)

    @pytest.mark.parametrize("x", [-1e-12, -0.0, -37.5, -np.inf])
    def test_negative_chi_square_statistic_has_p_one(self, x):
        from scipy import stats

        from forestpanel.diagnostics import _chi2_sf

        for df in self.DFS:
            assert _chi2_sf(x, df) == 1.0 == stats.chi2.sf(x, df)

    def test_reported_tests_match_scipy_stats(self):
        from scipy import stats

        rng = np.random.default_rng(68)
        ar = [ar_test(fit, m) for m in (1, 2) for fit in (
            simulated_gmm_fit(seed=69), simulated_gmm_fit(seed=70, collapse=True),
            gmm_stub(rng.normal(size=(30, 6))),
            gmm_stub(np.cumsum(rng.normal(size=(400, 8)), axis=1)),
            gmm_stub(1.0 + 0.01 * rng.normal(size=(2000, 5))),  # z near sqrt(2000)
        )]
        assert min(r.p_value for r in ar) == 0.0 and max(r.p_value for r in ar) > 0.05
        for r in ar:
            assert r.p_value == float(2.0 * stats.norm.sf(abs(r.statistic)))

        j_tests = [hansen_j(simulated_gmm_fit(seed=71))]
        for df in self.DFS:
            names = tuple(f"b{i}" for i in range(4))
            stub = FitResult("stub", names, dict.fromkeys(names, 0.0), np.eye(4), n_obs=400,
                             gmm=GmmInternals(scores=rng.normal(0.1, 1.0, (400, df + 4))))
            j_tests.append(hansen_j(stub))
        assert [r.df for r in j_tests[1:]] == list(self.DFS)
        jb_tests = [jarque_bera(sample) for sample in (
            exact_normal_moments_sample(), rng.standard_normal(500),
            rng.standard_cauchy(20_000), np.r_[np.zeros(10_000), 1.0, -1.0],
        )]
        assert jb_tests[-1].statistic > 1e6
        for r in j_tests + jb_tests:
            assert r.p_value == float(stats.chi2.sf(r.statistic, r.df))
