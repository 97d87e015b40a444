import dataclasses
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from forestpanel.dgp import DGPConfig, monte_carlo, replication_seed, simulate_dynamic_panel
from forestpanel.diagnostics import hansen_j
from forestpanel.estimators import CONST, EstimationError, RegressionSpec
from forestpanel.gmm import (
    _BLOCK_REGIONS as BLOCK,
    GmmOptions,
    InstrumentSet,
    build_ab_instruments,
    fit_diff_gmm,
    fit_sys_gmm,
    symmetric_factor,
)
from forestpanel.panel import Grid, PanelDataset, lag


def make_panel(y, x=None):
    y = np.asarray(y, float)
    N, T = y.shape
    variables = {"e": Grid.full(y)}
    if x is not None:
        variables["l"] = Grid.full(np.asarray(x, float))
    return PanelDataset(
        tuple(f"r{i}" for i in range(N)), tuple(range(2001, 2001 + T)), variables
    )


SPEC = RegressionSpec("e", ("l",))


class TestInstrumentLayout:
    def test_uncollapsed_counts_T4(self):
        panel = make_panel(np.arange(8.0).reshape(2, 4))
        instruments = build_ab_instruments(panel, "e", GmmOptions(min_lag=2))
        # t=3 has one lag (s=2), t=4 has two (s=2,3): 3 columns total
        assert instruments.n_columns == 3
        Z = dense_instruments(instruments, 2)
        assert Z.shape == (2, 2, 3)
        # period blocks are zero-filled outside their own period
        assert np.all(Z[:, 0, 1:] == 0.0)

    def test_collapsed_counts_T4(self):
        panel = make_panel(np.arange(8.0).reshape(2, 4))
        instruments = build_ab_instruments(panel, "e", GmmOptions(min_lag=2, collapse=True))
        assert instruments.n_columns == 2
        # column c repeats the level lagged s = 2 + c down the periods t = 2, 3
        # (0-based) that reach back that far; elsewhere it is zero
        y = panel.var("e").values
        Z = dense_instruments(instruments, 2)
        assert Z[:, :, 0].tolist() == y[:, [0, 1]].tolist()
        assert Z[:, :, 1].tolist() == [[0.0, y0] for y0 in y[:, 0]]

    def test_T2_errors(self):
        panel = make_panel(np.arange(4.0).reshape(2, 2))
        with pytest.raises(EstimationError):
            build_ab_instruments(panel, "e", GmmOptions())

    @pytest.mark.parametrize("build", [
        lambda panel: build_ab_instruments(panel, "e", GmmOptions()),
        lambda panel: fit_diff_gmm(panel, SPEC, GmmOptions()),
        lambda panel: fit_sys_gmm(panel, SPEC, GmmOptions()),
    ], ids=["instruments", "diffgmm", "sysgmm"])
    def test_one_T_error_for_gmm(self, build):
        panel = make_panel(np.arange(4.0).reshape(2, 2), np.ones((2, 2)))
        with pytest.raises(EstimationError, match=r"^GMM needs T >= 3$"):
            build(panel)

    def test_values_are_lagged_levels(self):
        y = np.array([[10.0, 20.0, 30.0, 40.0]])
        panel = make_panel(y)
        instruments = build_ab_instruments(panel, "e", GmmOptions())
        # row for t=2 (0-based): level y_0; row for t=3: levels y_1, y_0
        Z = dense_instruments(instruments, 2)
        assert Z[0, 0].tolist() == [10.0, 0.0, 0.0]
        assert Z[0, 1].tolist() == [0.0, 20.0, 10.0]

    def test_max_lag_cap(self):
        panel = make_panel(np.arange(12.0).reshape(2, 6))
        capped = build_ab_instruments(panel, "e", GmmOptions(min_lag=2, max_lag=2))
        # one column per period t=3..6
        assert capped.n_columns == 4

    def test_bad_options(self):
        with pytest.raises(EstimationError):
            GmmOptions(min_lag=1)
        with pytest.raises(EstimationError):
            GmmOptions(min_lag=3, max_lag=2)

    @pytest.mark.parametrize("T", range(3, 10))
    def test_equals_two_branch_builder(self, T):
        # every lag range, reachable or empty, collapsed or not: the same
        # width, the same dense blocks, the same error text
        panel = make_panel(np.random.default_rng(T).standard_normal((3, T)))
        for min_lag in range(2, T + 2):
            for max_lag in [None, *range(min_lag, T + 1)]:
                for collapse in (False, True):
                    options = GmmOptions(min_lag=min_lag, max_lag=max_lag, collapse=collapse)
                    try:
                        expected = two_branch_ab_instruments(panel, "e", options)
                    except EstimationError as exc:
                        with pytest.raises(EstimationError, match=f"^{exc}$"):
                            build_ab_instruments(panel, "e", options)
                        continue
                    got = build_ab_instruments(panel, "e", options)
                    assert got.n_columns == expected.n_columns, options
                    assert np.array_equal(dense_instruments(got, T - 2),
                                          dense_instruments(expected, T - 2)), options


def two_branch_ab_instruments(panel, response, options):
    """The lagged-level builder as it was written with one branch per
    layout, each working out its own cells: the oracle of the one-list rule."""
    grid = panel.var(response)
    if not grid.available.all():
        raise EstimationError(f"response {response!r} must be fully available")
    y = grid.values
    T = y.shape[1]
    if T < 3:
        raise EstimationError("GMM needs T >= 3")
    periods = range(2, T)
    s_max_global = (T - 1) if options.max_lag is None else min(options.max_lag, T - 1)
    if options.collapse:
        lags = [s for s in range(options.min_lag, s_max_global + 1)]
        if not lags:
            raise EstimationError("no usable instruments for the given lag range")
        # (period index, column, source year index) of every cell
        cells = [(p, c, t - s) for c, s in enumerate(lags)
                 for p, t in enumerate(periods) if t - s >= 0]
        n_columns = len(lags)
    else:
        cols: list[tuple[int, int]] = []  # (period index, lag distance)
        for p, t in enumerate(periods):
            s_hi = min(s_max_global, t)
            cols.extend((p, s) for s in range(options.min_lag, s_hi + 1))
        if not cols:
            raise EstimationError("no usable instruments for the given lag range")
        cells = [(p, c, periods[p] - s) for c, (p, s) in enumerate(cols)]
        n_columns = len(cols)
    rows, columns, source = np.array(cells, dtype=np.intp).T
    return InstrumentSet(y[:, source], rows, columns, n_columns)


def noise_free_panel(rho=0.3, beta=1.0, sigma_alpha=1.0, seed=21, N=40, T=8):
    cfg = DGPConfig(n_regions=N, n_years=T, rho=rho, beta=beta,
                    sigma_alpha=sigma_alpha, sigma_u=0.0, seed=seed)
    panel, _ = simulate_dynamic_panel(cfg)
    return panel


class TestDiffGmm:
    def test_noise_free_exact(self):
        fit = fit_diff_gmm(noise_free_panel(), SPEC, GmmOptions(two_step=True))
        assert fit.coefficients["e_l1"] == pytest.approx(0.3, abs=1e-6)
        assert fit.coefficients["l"] == pytest.approx(1.0, abs=1e-6)

    def test_just_identified_matches_iv_oracle(self):
        cfg = DGPConfig(n_regions=60, n_years=5, rho=0.4, beta=1.0,
                        sigma_alpha=1.0, sigma_u=0.7, seed=22)
        panel, _ = simulate_dynamic_panel(cfg)
        options = GmmOptions(min_lag=2, max_lag=2, collapse=True)
        fit = fit_diff_gmm(panel, SPEC, options)
        # independent 2SLS oracle built with explicit loops
        y = panel.var("e").values
        x = panel.var("l").values
        Zc, Xc, yc = [], [], []
        for i in range(panel.N):
            for t in range(2, panel.T):
                Zc.append([y[i, t - 2], x[i, t] - x[i, t - 1]])
                Xc.append([y[i, t - 1] - y[i, t - 2], x[i, t] - x[i, t - 1]])
                yc.append(y[i, t] - y[i, t - 1])
        Z, X, yv = np.array(Zc), np.array(Xc), np.array(yc)
        oracle = np.linalg.solve(Z.T @ X, Z.T @ yv)
        got = np.array([fit.coefficients["e_l1"], fit.coefficients["l"]])
        assert np.abs(got - oracle).max() < 1e-8

    def test_monte_carlo_recovery(self):
        cfg = DGPConfig(n_regions=300, n_years=10, rho=0.5, beta=1.0,
                        sigma_alpha=1.0, sigma_u=1.0, seed=23)
        rhos, betas = [], []
        for r in range(40):
            sub = dataclasses.replace(cfg, seed=replication_seed(cfg.seed, r))
            panel, _ = simulate_dynamic_panel(sub)
            fit = fit_diff_gmm(panel, SPEC, GmmOptions())
            rhos.append(fit.coefficients["e_l1"])
            betas.append(fit.coefficients["l"])
        assert abs(np.mean(rhos) - 0.5) < 0.05
        assert abs(np.mean(betas) - 1.0) < 0.05

    def test_rmse_shrinks_with_N(self):
        def rmse(N):
            cfg = DGPConfig(n_regions=N, n_years=7, rho=0.5, beta=1.0,
                            sigma_alpha=1.0, sigma_u=1.0, seed=24)
            errs = []
            for r in range(30):
                sub = dataclasses.replace(cfg, seed=replication_seed(cfg.seed, r))
                panel, _ = simulate_dynamic_panel(sub)
                fit = fit_diff_gmm(panel, SPEC, GmmOptions())
                errs.append(fit.coefficients["e_l1"] - 0.5)
            return np.sqrt(np.mean(np.square(errs)))

        assert rmse(800) < rmse(100)

    def test_too_many_instruments_warning(self):
        panel = noise_free_panel(sigma_alpha=0.5, N=10, T=10, seed=25)
        fit = fit_diff_gmm(panel, SPEC, GmmOptions())
        assert any("too many instruments" in w for w in fit.warnings)

    def test_time_effects_enter_as_indicators(self):
        cfg = DGPConfig(n_regions=50, n_years=7, rho=0.2, beta=1.0,
                        sigma_alpha=1.0, sigma_gamma=0.8, sigma_u=0.0, seed=26)
        panel, _ = simulate_dynamic_panel(cfg)
        fit = fit_diff_gmm(panel, SPEC, GmmOptions(year_dummies=True))
        assert fit.coefficients["e_l1"] == pytest.approx(0.2, abs=1e-6)
        assert fit.coefficients["l"] == pytest.approx(1.0, abs=1e-6)
        assert any(name.startswith("year_") for name in fit.coef_names)

    def test_vcov_symmetric_psd(self):
        cfg = DGPConfig(n_regions=120, n_years=7, rho=0.3, beta=1.0,
                        sigma_alpha=1.0, sigma_u=1.0, seed=27)
        panel, _ = simulate_dynamic_panel(cfg)
        for two_step in (False, True):
            fit = fit_diff_gmm(panel, SPEC, GmmOptions(two_step=two_step))
            assert np.abs(fit.vcov - fit.vcov.T).max() < 1e-12
            assert np.linalg.eigvalsh(fit.vcov).min() > -1e-10


class TestSysGmm:
    def test_noise_free_exact(self):
        panel = noise_free_panel(sigma_alpha=0.0, seed=28)
        fit = fit_sys_gmm(panel, SPEC, GmmOptions(two_step=True))
        assert fit.coefficients["e_l1"] == pytest.approx(0.3, abs=1e-6)
        assert fit.coefficients["l"] == pytest.approx(1.0, abs=1e-6)

    def test_collapse_changes_count_not_noise_free_estimate(self):
        panel = noise_free_panel(sigma_alpha=0.0, N=50, T=7, seed=29)
        full = fit_sys_gmm(panel, SPEC, GmmOptions(collapse=False))
        folded = fit_sys_gmm(panel, SPEC, GmmOptions(collapse=True))
        assert full.gmm.n_instruments > folded.gmm.n_instruments
        for name in ("e_l1", "l"):
            assert folded.coefficients[name] == pytest.approx(
                full.coefficients[name], abs=1e-8
            )

    def test_near_unit_root_beats_difference_gmm(self):
        cfg = DGPConfig(n_regions=500, n_years=8, rho=0.9, beta=1.0,
                        sigma_alpha=1.0, sigma_u=1.0, seed=30)
        diff_bias, sys_bias = [], []
        for r in range(40):
            sub = dataclasses.replace(cfg, seed=replication_seed(cfg.seed, r))
            panel, _ = simulate_dynamic_panel(sub)
            diff_bias.append(
                fit_diff_gmm(panel, SPEC, GmmOptions()).coefficients["e_l1"] - 0.9
            )
            sys_bias.append(
                fit_sys_gmm(panel, SPEC, GmmOptions()).coefficients["e_l1"] - 0.9
            )
        assert abs(np.mean(sys_bias)) < abs(np.mean(diff_bias))

    def test_level_rows_double_observation_count(self):
        panel = noise_free_panel(N=20, T=6, seed=31)
        diff = fit_diff_gmm(panel, SPEC, GmmOptions())
        system = fit_sys_gmm(panel, SPEC, GmmOptions())
        assert system.n_obs == 2 * diff.n_obs
        assert system.estimator_tag == "sys_gmm"


class TestSysGmmConsistency:
    """Designs on which system GMM should recover the truth and, as fitted
    today, does not (strict xfail: a fix must remove the marker). Difference
    GMM on the same design is the control."""

    @pytest.mark.parametrize("fit", [
        fit_diff_gmm,
        pytest.param(fit_sys_gmm, marks=pytest.mark.xfail(
            reason="with year dummies the level equations fit no const, so their "
                   "residual keeps gamma_1 + mean(alpha)")),
    ])
    def test_noise_free_with_year_dummies(self, fit):
        for seed, two_step, collapse in itertools.product((26, 27), (False, True), (False, True)):
            cfg = DGPConfig(n_regions=50, n_years=7, rho=0.2, beta=1.0, sigma_alpha=0.0,
                            sigma_gamma=0.8, sigma_u=0.0, seed=seed)
            options = GmmOptions(two_step=two_step, collapse=collapse, year_dummies=True)
            coefs = fit(simulate_dynamic_panel(cfg)[0], SPEC, options).coefficients
            assert coefs["e_l1"] == pytest.approx(0.2, abs=1e-6), (seed, options)
            assert coefs["l"] == pytest.approx(1.0, abs=1e-6), (seed, options)

    @pytest.mark.parametrize("fit", [
        fit_diff_gmm,
        pytest.param(fit_sys_gmm, marks=pytest.mark.xfail(
            reason="the level rows instrument the regressor with its level, "
                   "which is correlated with the region effect")),
    ])
    def test_regressor_correlated_with_region_effect(self, fit):
        cfg = DGPConfig(n_regions=200, n_years=10, rho=0.5, beta=1.0, sigma_alpha=1.0,
                        sigma_u=1.0, regressor_process="correlated_with_alpha",
                        regressor_param=1.0, seed=1)
        options = GmmOptions(collapse=True)
        run = monte_carlo(cfg, {"gmm": (lambda panel: fit(panel, SPEC, options),
                                        {"e_l1": 0.5})}, 200)
        rho = run.studies["gmm"].aggregates()["e_l1"]
        assert abs(rho["mean"] - 0.5) < 0.02
        assert 0.90 <= rho["coverage"] <= 0.985


class TestRegressorAvailability:
    # the first differenced equation (0-based year 2) also reads year 1
    @pytest.mark.parametrize("fit", [fit_diff_gmm, fit_sys_gmm])
    def test_lag2_regressor_rejected(self, fit):
        panel = noise_free_panel(N=20, T=6, seed=32)
        panel = panel.with_variable("l_l2", lag(panel, "l", 2))
        spec = dataclasses.replace(SPEC, regressors=("l_l2",))
        with pytest.raises(EstimationError, match="regressor 'l_l2' unavailable in estimation years"):
            fit(panel, spec, GmmOptions())

    @pytest.mark.parametrize("fit", [fit_diff_gmm, fit_sys_gmm])
    def test_const_is_reserved(self, fit):
        panel = noise_free_panel(N=20, T=6, seed=32)
        rng = np.random.default_rng(32)
        panel = panel.with_variable(CONST, Grid.full(rng.standard_normal((20, 6))))
        spec = dataclasses.replace(SPEC, regressors=("l", CONST))
        with pytest.raises(EstimationError, match=r"^const is absorbed by the fixed effects$"):
            fit(panel, spec, GmmOptions())

    @pytest.mark.parametrize("fit", [fit_diff_gmm, fit_sys_gmm])
    def test_lag1_regressor_accepted(self, fit):
        panel = noise_free_panel(N=20, T=6, seed=32)
        panel = panel.with_variable("l_l1", lag(panel, "l", 1))
        spec = dataclasses.replace(SPEC, regressors=("l_l1",))
        assert np.isfinite(fit(panel, spec, GmmOptions()).coefficients["l_l1"])


class TestOneRegion:
    @staticmethod
    def one_region_panel():
        cfg = DGPConfig(n_regions=1, n_years=6, rho=0.5, beta=1.0, seed=33)
        return simulate_dynamic_panel(cfg)[0]

    @pytest.mark.parametrize("fit", [fit_diff_gmm, fit_sys_gmm])
    def test_one_step_vcov_needs_two_regions(self, fit):
        # the clustered sandwich scales by N / (N - 1)
        with pytest.raises(EstimationError,
                           match="^clustered GMM covariance needs at least 2 regions$"):
            fit(self.one_region_panel(), SPEC, GmmOptions())

    @pytest.mark.parametrize("fit", [fit_diff_gmm, fit_sys_gmm])
    @pytest.mark.parametrize("options", [GmmOptions(two_step=True),
                                         GmmOptions(year_dummies=True)])
    def test_singular_one_region_system_keeps_its_error(self, fit, options):
        with pytest.raises(EstimationError, match="^GMM system matrix is singular$"):
            fit(self.one_region_panel(), SPEC, options)


# ---------------------------------------------------------------------------
# dense oracle: the moment algebra over an explicit (N, rows, K) instrument
# tensor, with the Arellano-Bond block built by loops

def dense_instruments(instruments, n_periods):
    """The dense (N, periods, columns) blocks of an InstrumentSet's cells."""
    Z = np.zeros((instruments.values.shape[0], n_periods, instruments.n_columns))
    Z[:, instruments.rows, instruments.cols] = instruments.values
    return Z


def dense_gmm_oracle(panel, spec, options, level):
    """Coefficients, vcov, Hansen J, warnings and K from dense einsums."""
    lag_name = f"{spec.response}_l1"
    exog = tuple(r for r in spec.regressors if r != lag_name)
    y = panel.var(spec.response).values
    N, T = y.shape
    periods = list(range(2, T))
    P = len(periods)
    Xg = [panel.var(name).values for name in exog]
    dummy_years = periods if options.year_dummies else []
    include_const = level and not options.year_dummies
    k = 1 + len(exog) + len(dummy_years) + int(include_const)

    Xd, yd = np.zeros((N, P, k)), np.zeros((N, P))
    Xl, yl = np.zeros((N, P, k)), np.zeros((N, P))
    for p, t in enumerate(periods):
        yd[:, p] = y[:, t] - y[:, t - 1]
        Xd[:, p, 0] = y[:, t - 1] - y[:, t - 2]
        yl[:, p] = y[:, t]
        Xl[:, p, 0] = y[:, t - 1]
        for j, xv in enumerate(Xg):
            Xd[:, p, 1 + j] = xv[:, t] - xv[:, t - 1]
            Xl[:, p, 1 + j] = xv[:, t]
        for d, s in enumerate(dummy_years):
            Xd[:, p, 1 + len(exog) + d] = float(t == s) - float(t == s + 1)
            Xl[:, p, 1 + len(exog) + d] = float(t == s)
        if include_const:
            Xl[:, p, k - 1] = 1.0

    s_max = T - 1 if options.max_lag is None else min(options.max_lag, T - 1)
    if options.collapse:
        lags = range(options.min_lag, s_max + 1)
        Zab = np.zeros((N, P, len(lags)))
        for p, t in enumerate(periods):
            for c, s in enumerate(lags):
                if t - s >= 0:
                    Zab[:, p, c] = y[:, t - s]
    else:
        cols = [(p, s) for p, t in enumerate(periods)
                for s in range(options.min_lag, min(s_max, t) + 1)]
        Zab = np.zeros((N, P, len(cols)))
        for c, (p, s) in enumerate(cols):
            Zab[:, p, c] = y[:, periods[p] - s]
    exo_d = Xd[:, :, 1:1 + len(exog) + len(dummy_years)]
    if level:
        dy_lag = Xd[:, :, 0]
        Zlev = dy_lag[:, :, None] if options.collapse else np.einsum(
            "np,pq->npq", dy_lag, np.eye(P))
        exo_l = Xl[:, :, 1:]
        diff_part = np.concatenate([Zab, exo_d], axis=2)
        lev_part = np.concatenate([Zlev, exo_l], axis=2)
        Z = np.zeros((N, 2 * P, diff_part.shape[2] + lev_part.shape[2]))
        Z[:, :P, :diff_part.shape[2]] = diff_part
        Z[:, P:, diff_part.shape[2]:] = lev_part
        X, yv = np.concatenate([Xd, Xl], axis=1), np.concatenate([yd, yl], axis=1)
    else:
        Z, X, yv = np.concatenate([Zab, exo_d], axis=2), Xd, yd
    rows, K = Z.shape[1], Z.shape[2]

    warnings = []
    if K >= N:
        warnings.append(f"too many instruments: {K} columns for {N} regions")
    H = np.zeros((rows, rows))
    H[:P, :P] = 2.0 * np.eye(P) - np.eye(P, k=1) - np.eye(P, k=-1)
    if level:
        H[P:, P:] = np.eye(P)
    Mzx = np.einsum("nrK,nrk->Kk", Z, X)
    mzy = np.einsum("nrK,nr->K", Z, yv)

    def weight_inverse(M):
        if np.linalg.matrix_rank(M) < M.shape[0]:
            warnings.append("singular weighting matrix: pseudo-inverse fallback")
            return np.linalg.pinv(M)
        return np.linalg.inv(M)

    def solve_theta(Wm):
        return np.linalg.solve(Mzx.T @ Wm @ Mzx, Mzx.T @ Wm @ mzy)

    ZH = np.einsum("nrK,rs->nsK", Z, H)
    W = weight_inverse(np.einsum("nsK,nsJ->KJ", ZH, Z))
    theta = solve_theta(W)
    u = yv - np.einsum("nrk,k->nr", X, theta)
    if options.two_step:
        zu = np.einsum("nrK,nr->nK", Z, u)
        W = weight_inverse(zu.T @ zu)
        theta = solve_theta(W)
        u = yv - np.einsum("nrk,k->nr", X, theta)
    zu = np.einsum("nrK,nr->nK", Z, u)
    S = zu.T @ zu
    Ainv = np.linalg.pinv(Mzx.T @ W @ Mzx)
    vcov = (N / (N - 1)) * Ainv @ (Mzx.T @ W @ S @ W @ Mzx) @ Ainv
    g = zu.sum(axis=0)
    J = float(g @ np.linalg.pinv(S) @ g)
    return theta, 0.5 * (vcov + vcov.T), J, warnings, K


def assert_matches_oracle(fit, panel, spec, options, level):
    theta, vcov, J, warnings, K = dense_gmm_oracle(panel, spec, options, level)
    got = np.array([fit.coefficients[n] for n in fit.coef_names])
    scale = np.abs(theta).max()
    assert np.abs(got - theta).max() <= 1e-10 * scale
    assert np.abs(fit.vcov - vcov).max() <= 1e-10 * np.abs(vcov).max()
    assert hansen_j(fit).statistic == pytest.approx(J, rel=1e-10)
    assert list(fit.warnings) == warnings
    assert fit.gmm.n_instruments == K


def gmm_panel(N=60, T=7, seed=40):
    cfg = DGPConfig(n_regions=N, n_years=T, rho=0.5, beta=1.0, sigma_alpha=1.0,
                    sigma_gamma=0.5, sigma_u=1.0, seed=seed)
    return simulate_dynamic_panel(cfg)[0]


CONFIGS = [
    (level, collapse, steps, dummies)
    for level in (False, True)
    for collapse in (True, False)
    for steps in (1, 2)
    for dummies in (False, True)
]


class TestMomentEngine:
    @pytest.mark.parametrize("level,collapse,steps,dummies", CONFIGS)
    def test_matches_dense_oracle(self, level, collapse, steps, dummies):
        panel = gmm_panel()
        options = GmmOptions(collapse=collapse, two_step=steps == 2, year_dummies=dummies)
        fit = (fit_sys_gmm if level else fit_diff_gmm)(panel, SPEC, options)
        assert_matches_oracle(fit, panel, SPEC, options, level)
        N, K = panel.N, fit.gmm.n_instruments
        for value in vars(fit.gmm).values():
            assert np.size(value) <= N * K

    @pytest.mark.parametrize("level,collapse,steps,dummies", CONFIGS)
    def test_dropped_self_instrument_cell_keeps_its_column(self, level, collapse, steps,
                                                           dummies):
        # l is flat from year 3 to 4, so its differenced self-instrument cell
        # at year 4 is zero in every region and is not kept; its column still
        # counts in K, as in the dense oracle
        panel = gmm_panel()
        x = panel.var("l").values.copy()
        x[:, 4] = x[:, 3]
        panel = PanelDataset(panel.regions, panel.years,
                             {"e": panel.var("e"), "l": Grid.full(x)})
        options = GmmOptions(collapse=collapse, two_step=steps == 2, year_dummies=dummies)
        fit = (fit_sys_gmm if level else fit_diff_gmm)(panel, SPEC, options)
        assert_matches_oracle(fit, panel, SPEC, options, level)

    @pytest.mark.parametrize("level,collapse,dummies",
                             sorted({(lv, c, d) for lv, c, _, d in CONFIGS}))
    def test_columns_sum_cells_like_one_reduceat(self, monkeypatch, level, collapse, dummies):
        # the reference sums every column, one cell or many, in one reduceat
        from forestpanel import gmm

        made = []
        init = gmm._Instruments.__init__

        def record(self, *args):
            init(self, *args)
            made.append(self)

        monkeypatch.setattr(gmm._Instruments, "__init__", record)
        panel = gmm_panel()
        options = GmmOptions(collapse=collapse, year_dummies=dummies)
        (fit_sys_gmm if level else fit_diff_gmm)(panel, SPEC, options)
        (Z,) = made
        starts = np.flatnonzero(np.diff(Z.cols, prepend=-1))
        sizes = np.diff(starts, append=Z.cols.size)
        assert (sizes == 1).any() and (sizes > 1).any()

        def reference(W):
            out = np.zeros(W.shape[:-1] + (Z.n_columns,))
            out[..., Z.cols[starts]] = np.add.reduceat(W, starts, axis=-1)
            return out

        rng = np.random.default_rng(43)
        W = rng.normal(size=(panel.N, Z.cols.size))
        G = rng.normal(size=(Z.cols.size, Z.cols.size))
        assert np.array_equal(Z._to_columns(W), reference(W))
        assert np.array_equal(Z._to_columns(Z._to_columns(G).T), reference(reference(G).T))

    @pytest.mark.parametrize("n_regions", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("level,collapse,dummies",
                             sorted({(lv, c, d) for lv, c, _, d in CONFIGS}))
    @pytest.mark.parametrize("spec", [SPEC, RegressionSpec("e", ("e_l1",))])
    def test_split_design_gives_the_dense_bits(self, monkeypatch, n_regions, level, collapse,
                                               dummies, spec):
        # the residual, blocked by regions, and Z'X, one row at a time from a
        # buffer, against the same products on the dense (N, rows, k) design.
        # Without exogenous regressors k can be 1 and a row can hold one cell
        from forestpanel import gmm

        designs, made = [], []
        design_init, init = gmm._Design.__init__, gmm._Instruments.__init__

        def record_design(self, *args):
            design_init(self, *args)
            designs.append(self)

        class Built(Exception):
            pass

        def record_and_stop(self, *args):
            init(self, *args)
            made.append(self)
            raise Built

        monkeypatch.setattr(gmm._Design, "__init__", record_design)
        monkeypatch.setattr(gmm._Instruments, "__init__", record_and_stop)
        panel = gmm_panel(N=n_regions, seed=44)
        options = GmmOptions(collapse=collapse, year_dummies=dummies)
        with pytest.raises(Built):
            (fit_sys_gmm if level else fit_diff_gmm)(panel, spec, options)
        (Z,), X = made, designs[-1]  # the design the instruments were built from
        N, rows, _ = X.varying.shape
        dense = np.concatenate(
            [X.varying, np.broadcast_to(X.shared, (N, rows, X.shared.shape[1]))], axis=2)
        rng = np.random.default_rng(45)
        theta, y = rng.normal(size=dense.shape[2]), rng.normal(size=(N, rows))
        assert np.array_equal(X.residual(y, theta), y - dense @ theta)

        def per_row(dense):
            G = np.empty((Z.values.shape[1], dense.shape[2]))
            for r, cells in enumerate(Z._row_cells):
                G[cells] = Z.values[:, cells].T @ dense[:, r]
            return Z._to_columns(G.T).T

        assert np.array_equal(Z.cross(X), per_row(dense))
        Y = gmm._Design(y[:, :, None], np.empty((rows, 0)))
        assert np.array_equal(Z.cross(Y), per_row(y[:, :, None]))

    @pytest.mark.parametrize("fit,bound_mb", [(fit_diff_gmm, 12), (fit_sys_gmm, 16)])
    def test_uncollapsed_fit_peak_memory(self, fit, bound_mb):
        # N = 1000, T = 23, two-step, year dummies: the dense (N, rows, k)
        # design alone held 8 MB (diff) and 16 MB (sys) before the fit returned
        cfg = DGPConfig(n_regions=1000, n_years=23, rho=0.5, beta=1.0, sigma_alpha=1.0,
                        sigma_u=1.0, seed=1)
        panel = simulate_dynamic_panel(cfg)[0]
        options = GmmOptions(two_step=True, year_dummies=True)
        tracemalloc.start()
        try:
            result = fit(panel, SPEC, options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.gmm.n_instruments == (296 if fit is fit_sys_gmm else 253)
        assert peak <= bound_mb * 1e6

    @pytest.mark.parametrize("level", [False, True])
    def test_max_lag_matches_dense_oracle(self, level):
        panel = gmm_panel(T=9, seed=41)
        options = GmmOptions(min_lag=2, max_lag=3, two_step=True)
        fit = (fit_sys_gmm if level else fit_diff_gmm)(panel, SPEC, options)
        assert_matches_oracle(fit, panel, SPEC, options, level)

    def test_pinv_fallback_matches_dense_oracle(self):
        # with year dummies the differenced residuals are differences of the
        # level residuals, so the two-step sys-GMM score covariance is singular
        panel = gmm_panel(N=200, T=8, seed=42)
        options = GmmOptions(two_step=True, year_dummies=True)
        fit = fit_sys_gmm(panel, SPEC, options)
        assert "singular weighting matrix: pseudo-inverse fallback" in fit.warnings
        assert_matches_oracle(fit, panel, SPEC, options, level=True)


def planted_psd(rng, n, rank, tiny=None):
    """A random n x n PSD matrix with an exact null space of size n - rank.

    A generic positive definite block, eigenvalues spread over [1, 1e6], sits
    with ``tiny`` times its largest eigenvalue (if given, as one more
    eigenvalue) and zero rows and columns in a shuffled order. The zero rows
    make the null space exact, so eigh and SVD both find its eigenvalues as
    rounding noise far below either numpy cutoff.
    """
    Q, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
    block = (Q * np.logspace(0, 6, rank)) @ Q.T
    M = np.zeros((n, n))
    M[:rank, :rank] = 0.5 * (block + block.T)
    if tiny is not None:
        M[rank, rank] = tiny * np.abs(np.linalg.eigvalsh(M)).max()
    order = rng.permutation(n)
    return M[np.ix_(order, order)]


class TestSymmetricFactor:
    @pytest.mark.parametrize("n, rank", [(1, 1), (5, 5), (5, 3), (40, 40), (40, 31), (120, 97)])
    def test_rank_and_pinv_match_numpy(self, n, rank):
        rng = np.random.default_rng(n + rank)
        M = planted_psd(rng, n, rank)
        got_rank, V, lam = symmetric_factor(M)
        assert got_rank == np.linalg.matrix_rank(M) == rank
        assert lam.size == rank
        B = rng.normal(size=(n, 3))
        want = np.linalg.pinv(M) @ B
        assert np.abs(V @ ((V.T @ B) / lam[:, None]) - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("tiny", [3e-15, 8e-15])
    def test_eigenvalue_between_the_cutoffs(self, tiny):
        # above pinv's 1e-15 * max but below matrix_rank's n * eps * max (n = 60):
        # the rank leaves it out, the pseudo-inverse keeps it
        n, rank = 60, 50
        assert 1e-15 < tiny < n * np.finfo(float).eps
        rng = np.random.default_rng(5)
        M = planted_psd(rng, n, rank, tiny=tiny)
        got_rank, V, lam = symmetric_factor(M)
        assert got_rank == np.linalg.matrix_rank(M) == rank
        # pinv keeps the same eigenvalues, tiny included. Their action is not
        # compared: an eigenvalue eps * max / tiny, a few percent, away from the
        # null space has an eigenvector that eigh and SVD each find only to
        # that relative accuracy, and its 1/tiny term dominates the action
        singular = np.linalg.svd(M, compute_uv=False)
        kept = np.sort(singular[singular > 1e-15 * singular.max()])
        assert kept.size == lam.size == rank + 1
        assert np.allclose(np.sort(np.abs(lam)), kept, rtol=0.1, atol=0)
        assert np.allclose(np.sort(lam)[1:], kept[1:], rtol=1e-9, atol=0)

    def test_zero_matrix(self):
        rank, V, lam = symmetric_factor(np.zeros((4, 4)))
        assert rank == np.linalg.matrix_rank(np.zeros((4, 4))) == 0
        assert V.shape == (4, 0) and lam.size == 0

    def test_two_step_fit_and_j_use_no_svd(self, monkeypatch):
        # the pinv fixture: sys-GMM, year dummies, a singular two-step weight
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD-based routine was called")

        impl = sys.modules[np.linalg.svd.__module__]  # where matrix_rank and pinv find svd
        for name in ("svd", "matrix_rank", "pinv", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
            monkeypatch.setattr(impl, name, refuse)
        panel = gmm_panel(N=200, T=8, seed=42)
        options = GmmOptions(two_step=True, year_dummies=True)
        fit = fit_sys_gmm(panel, SPEC, options)
        assert "singular weighting matrix: pseudo-inverse fallback" in fit.warnings
        assert hansen_j(fit).statistic > 0
        monkeypatch.undo()
        assert_matches_oracle(fit, panel, SPEC, options, level=True)
