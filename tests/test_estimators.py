import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from forestpanel.dgp import DGPConfig, simulate_dynamic_panel
from forestpanel.estimators import (
    CONST,
    EstimationError,
    FitResult,
    RegressionSpec,
    cluster_robust_vcov,
    fit_dynamic_lsdv,
    fit_pooled_ols,
    fit_twoway_fe,
    long_run_elasticity,
    qr_lstsq,
)
from forestpanel.panel import Grid, PanelDataset, PanelError, demean_twoway_values, lag


def panel_from(**variables):
    arrays = {k: np.asarray(v, float) for k, v in variables.items()}
    N, T = next(iter(arrays.values())).shape
    return PanelDataset(
        tuple(f"r{i}" for i in range(N)),
        tuple(range(2001, 2001 + T)),
        {k: Grid.full(v) for k, v in arrays.items()},
    )


def dummy_ols_oracle(panel, response, regressors):
    """Pooled OLS with explicit region and year indicator columns."""
    N, T = panel.N, panel.T
    y = panel.var(response).values.ravel()
    cols = [panel.var(r).values.ravel() for r in regressors]
    X = [np.column_stack(cols), np.ones((N * T, 1))]
    region = np.repeat(np.arange(N), T)
    year = np.tile(np.arange(T), N)
    for i in range(1, N):
        X.append((region == i).astype(float)[:, None])
    for j in range(1, T):
        X.append((year == j).astype(float)[:, None])
    X = np.hstack(X)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta[: len(regressors)]


class TestPooledOls:
    def test_noise_free_line(self):
        x = np.arange(1.0, 13.0).reshape(3, 4)
        panel = panel_from(x=x, y=2.0 * x)
        fit = fit_pooled_ols(panel, RegressionSpec("y", ("x",)))
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-12)

    def test_intercept_only(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        panel = panel_from(y=y)
        fit = fit_pooled_ols(panel, RegressionSpec("y", (CONST,)))
        assert fit.coefficients[CONST] == pytest.approx(2.5, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(30)
        x1, x2 = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        y = 1.5 * x1 - 0.5 * x2 + rng.normal(size=(5, 6))
        panel = panel_from(x1=x1, x2=x2, y=y)
        fit = fit_pooled_ols(panel, RegressionSpec("y", (CONST, "x1", "x2")))
        # independent small-scale solver: explicit normal equations
        X = np.column_stack([np.ones(30), x1.ravel(), x2.ravel()])
        oracle = np.linalg.solve(X.T @ X, X.T @ y.ravel())
        got = [fit.coefficients[CONST], fit.coefficients["x1"], fit.coefficients["x2"]]
        assert np.abs(np.array(got) - oracle).max() < 1e-8

    def test_rank_deficient_names_columns(self):
        x = np.arange(12.0).reshape(3, 4)
        panel = panel_from(x=x, x_copy=x, y=2 * x)
        with pytest.raises(EstimationError, match="x_copy|x"):
            fit_pooled_ols(panel, RegressionSpec("y", ("x", "x_copy")))

    @pytest.mark.parametrize("scale", [1e10, 1e11, 1e14])
    def test_badly_scaled_full_rank_design_fits(self, scale):
        # rank is judged column by column: const and L differ in scale by 1e11,
        # yet each keeps its own norm in R's diagonal (ratios 1.0 and about 0.18)
        rng = np.random.default_rng(35)
        L = rng.uniform(1, 2, (30, 6)) * scale
        panel = panel_from(L=L, E=2 * L + rng.normal(size=(30, 6)) * 1e-2 * scale)
        fit = fit_pooled_ols(panel, RegressionSpec("E", (CONST, "L")))
        assert fit.coefficients["L"] == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("scale", [1.0, 1e11])
    def test_duplicated_column_is_named(self, scale):
        rng = np.random.default_rng(36)
        L = rng.uniform(1, 2, (30, 6)) * scale
        panel = panel_from(L=L, L_copy=L, E=2 * L + rng.normal(size=(30, 6)))
        with pytest.raises(EstimationError,
                           match=r"^rank-deficient design; collinear columns: \['L_copy'\]$"):
            fit_pooled_ols(panel, RegressionSpec("E", (CONST, "L", "L_copy")))

    def test_too_few_observations(self):
        panel = panel_from(x=[[1.0, 2.0]], y=[[1.0, 3.0]])
        with pytest.raises(EstimationError,
                           match=r"^not enough complete observations for pooled OLS$"):
            fit_pooled_ols(panel, RegressionSpec("y", (CONST, "x")))


class TestTwowayFe:
    @staticmethod
    def spec(*regs):
        return RegressionSpec("y", regs)

    def test_exact_construction(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(4, 6))
        alpha = rng.normal(size=(4, 1))
        panel = panel_from(x=x, y=alpha + 2.0 * x)
        fit = fit_twoway_fe(panel, self.spec("x"))
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-10)

    def test_no_within_variation(self):
        x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 5))
        panel = panel_from(x=x, y=np.random.default_rng(0).normal(size=(3, 5)))
        with pytest.raises(EstimationError, match="within variation"):
            fit_twoway_fe(panel, self.spec("x"))

    def test_two_by_two_panel_has_no_residual_dof(self):
        # 4 cells less 1 slope and N + T - 1 = 3 absorbed effects leave none
        rng = np.random.default_rng(37)
        panel = panel_from(x=rng.normal(size=(2, 2)), y=rng.normal(size=(2, 2)))
        with pytest.raises(EstimationError,
                           match=r"^no residual degrees of freedom for the clustered vcov$"):
            fit_twoway_fe(panel, self.spec("x"))

    @pytest.mark.parametrize("fit", [fit_twoway_fe, fit_dynamic_lsdv])
    def test_const_is_rejected(self, fit):
        rng = np.random.default_rng(38)
        panel = panel_from(x=rng.normal(size=(4, 5)), y=rng.normal(size=(4, 5)))
        with pytest.raises(EstimationError, match=r"^const is absorbed by the fixed effects$"):
            fit(panel, self.spec(CONST, "x"))

    def test_one_available_year_is_rejected(self):
        rng = np.random.default_rng(39)
        available = np.array([False, True, False, False])
        panel = panel_from(y=rng.normal(size=(4, 4))).with_variable(
            "x", Grid(np.where(available, rng.normal(size=(4, 4)), 0.0), available))
        with pytest.raises(EstimationError,
                           match=r"^need at least 2 complete years for the within fit$"):
            fit_twoway_fe(panel, self.spec("x"))

    def test_matches_dummy_variable_oracle(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(6, 5))
        y = rng.normal(size=(6, 5))
        panel = panel_from(x=x, y=y)
        fit = fit_twoway_fe(panel, self.spec("x"))
        oracle = dummy_ols_oracle(panel, "y", ["x"])
        assert abs(fit.coefficients["x"] - oracle[0]) < 1e-8

    def test_fe_equivalence_over_random_panels(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            N, T = int(rng.integers(3, 11)), int(rng.integers(3, 9))
            x = rng.normal(size=(N, T))
            z = rng.normal(size=(N, T))
            y = rng.normal(size=(N, T))
            panel = panel_from(x=x, z=z, y=y)
            fit = fit_twoway_fe(panel, self.spec("x", "z"))
            oracle = dummy_ols_oracle(panel, "y", ["x", "z"])
            got = np.array([fit.coefficients["x"], fit.coefficients["z"]])
            assert np.abs(got - oracle).max() < 1e-8

    def test_log_scale_equivariance(self):
        # pure log-log specification on exact logs: rescaling levels by c
        # shifts the log regressor by log(c), absorbed by the fixed effects
        rng = np.random.default_rng(34)
        levels = rng.lognormal(3.0, 1.0, size=(5, 7))
        y = rng.normal(size=(5, 7))
        for c in (1.0, 7.3):
            panel = panel_from(x=np.log(c * levels), y=y)
            fit = fit_twoway_fe(panel, self.spec("x"))
            if c == 1.0:
                base = fit.coefficients["x"]
        assert fit.coefficients["x"] == pytest.approx(base, abs=1e-10)


class TestDynamicLsdv:
    def test_no_dynamics_noise_free(self):
        cfg = DGPConfig(n_regions=20, n_years=8, rho=0.0, beta=1.0,
                        sigma_alpha=1.0, sigma_gamma=0.5, sigma_u=0.0, seed=9)
        panel, _ = simulate_dynamic_panel(cfg)
        spec = RegressionSpec("e", ("l",))
        fit = fit_dynamic_lsdv(panel, spec)
        assert abs(fit.coefficients["e_l1"]) < 1e-8
        assert fit.coefficients["l"] == pytest.approx(1.0, abs=1e-8)
        assert any("bias" in w for w in fit.warnings)

    def test_too_short(self):
        panel = panel_from(x=np.ones((3, 2)), y=np.zeros((3, 2)))
        spec = RegressionSpec("y", ("x",))
        with pytest.raises(EstimationError):
            fit_dynamic_lsdv(panel, spec)

    def test_panel_column_named_like_the_lag_is_rejected(self):
        # the lag is always derived from the response, as GMM derives it, so
        # a panel's own e_l1 column is never fitted in its place
        cfg = DGPConfig(n_regions=20, n_years=6, rho=0.3, beta=1.0, seed=11)
        panel, _ = simulate_dynamic_panel(cfg)
        panel = panel.with_variable("e_l1", Grid.full(np.ones((panel.N, panel.T))))
        with pytest.raises(PanelError, match=r"^variable 'e_l1' already exists \(write-once\)$"):
            fit_dynamic_lsdv(panel, RegressionSpec("e", ("l",)))

    def test_downward_bias_direction(self):
        # small paired check; the full-scale version runs in the acceptance suite
        cfg = DGPConfig(n_regions=300, n_years=6, rho=0.5, beta=1.0,
                        sigma_alpha=1.0, sigma_u=1.0, seed=10)
        spec = RegressionSpec("e", ("l",))
        rhos = []
        for r in range(40):
            sub = dataclasses.replace(cfg, seed=cfg.seed + 1000 + r)
            panel, _ = simulate_dynamic_panel(sub)
            rhos.append(fit_dynamic_lsdv(panel, spec).coefficients["e_l1"])
        assert np.mean(rhos) < 0.45


class TestClusterRobustVcov:
    def test_singleton_clusters_match_hc(self):
        rng = np.random.default_rng(40)
        X = np.column_stack([np.ones(60), rng.normal(size=60)])
        resid = rng.normal(size=60)
        clusters = np.arange(60)
        vcov = cluster_robust_vcov(X, resid, clusters)
        xtx_inv = np.linalg.inv(X.T @ X)
        meat = X.T @ np.diag(resid**2) @ X
        n, k, G = 60, 2, 60
        expected = (G / (G - 1)) * ((n - 1) / (n - k)) * xtx_inv @ meat @ xtx_inv
        assert np.abs(vcov - expected).max() < 1e-10

    def test_brute_force_cluster_sum(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(30, 3))
        resid = rng.normal(size=30)
        clusters = rng.integers(0, 5, size=30)
        vcov = cluster_robust_vcov(X, resid, clusters)
        xtx_inv = np.linalg.inv(X.T @ X)
        meat = np.zeros((3, 3))
        for g in range(5):
            s = np.zeros(3)
            for i in range(30):
                if clusters[i] == g:
                    s += X[i] * resid[i]
            meat += np.outer(s, s)
        expected = (5 / 4) * (29 / 27) * xtx_inv @ meat @ xtx_inv
        assert np.abs(vcov - expected).max() < 1e-10

    def test_duplicated_clusters_leave_coefficients_unchanged(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 5))
        y = 1.2 * x + rng.normal(size=(4, 5))
        base = fit_pooled_ols(panel_from(x=x, y=y), RegressionSpec("y", (CONST, "x")))
        doubled = fit_pooled_ols(
            panel_from(x=np.vstack([x, x]), y=np.vstack([y, y])),
            RegressionSpec("y", (CONST, "x")),
        )
        assert doubled.coefficients["x"] == pytest.approx(base.coefficients["x"], abs=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(EstimationError):
            cluster_robust_vcov(np.ones((4, 1)), np.ones(4), np.zeros(4))

    @pytest.mark.parametrize("zero", [0, 1, 2])
    def test_all_zero_column_is_a_linear_algebra_error(self, zero):
        # the unfactored path takes its own QR, whose R has an exact zero on
        # the diagonal; inverting it is a typed error, never a silent inf
        rng = np.random.default_rng(49)
        X = rng.normal(size=(40, 3))
        X[:, zero] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            cluster_robust_vcov(X, rng.normal(size=40), np.repeat(np.arange(10), 4))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(50, 4))
        vcov = cluster_robust_vcov(X, rng.normal(size=50), rng.integers(0, 8, 50))
        assert np.abs(vcov - vcov.T).max() < 1e-12
        assert np.linalg.eigvalsh(vcov).min() > -1e-10

    @pytest.mark.parametrize("layout", ["unbalanced", "non_contiguous", "unsorted", "strings"])
    def test_matches_loop_per_cluster_oracle(self, layout):
        rng = np.random.default_rng(44)
        sizes = rng.integers(1, 40, size=25)
        clusters = np.repeat(np.arange(25), sizes)  # sorted blocks of unequal size
        n = clusters.size
        if layout == "non_contiguous":  # labels with gaps, rows of a cluster scattered
            clusters = rng.choice(np.arange(3, 3000, 97), size=n)
        elif layout == "unsorted":
            clusters = rng.permutation(clusters)
        elif layout == "strings":
            clusters = np.array([f"county-{c:02d}" for c in rng.permutation(clusters)])
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        resid = rng.normal(size=n)

        # reference: one boolean mask and one outer product per cluster
        _, R = np.linalg.qr(X)
        Rinv = np.linalg.inv(R)
        bread = Rinv @ Rinv.T
        labels = np.unique(clusters)
        meat = np.zeros((3, 3))
        for g in labels:
            score = X[clusters == g].T @ resid[clusters == g]
            meat += np.outer(score, score)
        G, dof_absorbed = labels.size, 5
        factor = (G / (G - 1)) * ((n - 1) / (n - 3 - dof_absorbed))
        expected = factor * bread @ meat @ bread

        vcov = cluster_robust_vcov(X, resid, clusters, dof_absorbed=dof_absorbed)
        assert np.abs(vcov - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_bit_identical_to_scatter_add_form(self):
        # the per-column bincount sums each cluster from 0.0 in input order,
        # as the np.add.at scatter over the full score matrix did
        def scatter_add_vcov(X, residuals, clusters, dof_absorbed):
            n, k = X.shape
            labels, inverse = np.unique(clusters, return_inverse=True)
            G = labels.size
            _, R = np.linalg.qr(X)
            Rinv = solve_triangular(R, np.eye(k))
            xtx_inv = Rinv @ Rinv.T
            scores = np.zeros((G, k))
            np.add.at(scores, inverse, X * residuals[:, None])
            meat = scores.T @ scores
            factor = (G / (G - 1)) * ((n - 1) / (n - k - dof_absorbed))
            vcov = factor * xtx_inv @ meat @ xtx_inv
            return 0.5 * (vcov + vcov.T)

        rng = np.random.default_rng(45)
        for _ in range(100):
            n, k = int(rng.integers(8, 400)), int(rng.integers(1, 6))
            G = int(rng.integers(2, n // 2 + 2))
            clusters = rng.integers(0, G, size=n)
            if rng.random() < 0.5:
                clusters = np.sort(clusters)
            X = rng.normal(size=(n, k)) * rng.lognormal(0.0, 2.0, size=k)
            resid = rng.standard_t(3, size=n)
            if np.unique(clusters).size < 2 or n - k - 1 <= 0:
                continue
            got = cluster_robust_vcov(X, resid, clusters, dof_absorbed=1)
            assert got.tobytes() == scatter_add_vcov(X, resid, clusters, 1).tobytes()


def masked_year_panel():
    # "m" lacks the years 2001 and 2004, so every fit that reads it uses 5 of
    # its 7 years; "e_l1" lacks 2001, as dynamic LSDV's lag does
    panel, _ = simulate_dynamic_panel(
        DGPConfig(n_regions=30, n_years=7, rho=0.4, beta=1.0, sigma_alpha=1.0, seed=46))
    available = np.ones(panel.T, dtype=bool)
    available[[0, 3]] = False
    values = np.random.default_rng(46).normal(size=(panel.N, panel.T))
    return panel.with_variable("m", Grid(np.where(available, values, 0.0), available))


def mc_nickell_panel():
    return simulate_dynamic_panel(
        DGPConfig(n_regions=500, n_years=6, rho=0.5, beta=1.0, sigma_alpha=1.0, seed=47))[0]


class TestSharedFactor:
    """Each least-squares fit hands its QR factor and region codes to
    ``cluster_robust_vcov``; the vcov must keep the bits of the public call."""

    @pytest.mark.parametrize("make_panel", [masked_year_panel, mc_nickell_panel])
    @pytest.mark.parametrize("tag", ["pooled", "fe2w", "lsdv"])
    def test_vcov_is_the_public_routines(self, make_panel, tag):
        panel = make_panel()
        regressors = ("l", "m") if "m" in panel.variables else ("l",)
        if tag == "pooled":
            fit = fit_pooled_ols(panel, RegressionSpec("e", (CONST, *regressors)))
        elif tag == "fe2w":
            fit = fit_twoway_fe(panel, RegressionSpec("e", regressors))
        else:
            fit = fit_dynamic_lsdv(panel, RegressionSpec("e", regressors))
            panel = panel.with_variable("e_l1", lag(panel, "e", 1))
        # X and the residuals as the fit builds them
        grids = [Grid.full(np.ones((panel.N, panel.T))) if n == CONST else panel.var(n)
                 for n in ("e", *fit.coef_names)]
        mask = np.logical_and.reduce([g.available for g in grids])
        cols = [g.values[:, mask] for g in grids]
        if tag != "pooled":
            cols = [demean_twoway_values(c) for c in cols]
        y, X = cols[0].ravel(), np.column_stack([c.ravel() for c in cols[1:]])
        resid = y - X @ np.array([fit.coefficients[n] for n in fit.coef_names])
        N, Ts = panel.N, int(mask.sum())
        assert np.array_equal(fit.residual_grid.values[:, mask].ravel(), resid)
        dof_absorbed = 0 if tag == "pooled" else N + Ts - 1
        want = cluster_robust_vcov(X, resid, np.repeat(np.arange(N), Ts), dof_absorbed)
        assert np.array_equal(fit.vcov, want)
        assert Ts == (5 if "m" in panel.variables else 6 - (tag == "lsdv"))


def triangular_design(rng, kind, n, k):
    """An n x k design: standard normal, with column scales exp(N(0, 3)), or
    near-collinear (each column the one before it plus 1e-6 noise)."""
    X = rng.normal(size=(n, k))
    if kind == "badly-scaled":
        X *= np.exp(rng.normal(0.0, 3.0, size=k))
    elif kind == "near-collinear":
        X[:, 1:] = X[:, :1] + 1e-6 * X[:, 1:]
    return X


class TestTriangularSolves:
    """numpy's back-substitution and inverse on the R that ``np.linalg.qr``
    returns keep the bits of scipy's triangular solve up to 64 columns."""

    @pytest.mark.parametrize("kind", ["random", "badly-scaled", "near-collinear"])
    def test_back_substitution_has_scipys_bits(self, kind):
        rng = np.random.default_rng(50)
        for k in range(1, 65):
            for _ in range(3):
                n = k + int(rng.integers(1, 2 * k + 10))
                X = triangular_design(rng, kind, n, k)
                y = X @ rng.normal(size=k) + rng.normal(size=n)
                Q, R = np.linalg.qr(X)
                beta, factor = qr_lstsq(X, y, [f"x{j}" for j in range(k)])
                assert factor.tobytes() == R.tobytes()
                assert beta.tobytes() == solve_triangular(R, Q.T @ y).tobytes(), (kind, n, k)

    def test_inverse_has_scipys_bits(self):
        rng = np.random.default_rng(51)
        for k in [*range(1, 65), 65, 100, 128, 200, 256, 300]:
            kind = ("random", "badly-scaled", "near-collinear")[k % 3]
            _, R = np.linalg.qr(triangular_design(rng, kind, k + 20, k))
            assert np.linalg.inv(R).tobytes() == solve_triangular(R, np.eye(k)).tobytes(), k

    @pytest.mark.parametrize("k", [65, 128])
    def test_wide_design_agrees_with_lstsq(self, k):
        # past 64 columns the bits may differ from scipy's; the values agree
        rng = np.random.default_rng(k)
        X = rng.normal(size=(3 * k, k))
        y = X @ rng.normal(size=k) + rng.normal(size=3 * k)
        beta, _ = qr_lstsq(X, y, [f"x{j}" for j in range(k)])
        expected = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.abs(beta - expected).max() <= 1e-10 * np.abs(expected).max()


class TestNonFiniteSystem:
    """A least-squares system that holds or overflows to an infinity or a NaN
    is a typed error, raised before any solve."""

    @staticmethod
    def overflowing_panel():
        # region r0 loses 1e308 three times, so its sums over years overflow,
        # and with r1's one the norm of each column does too
        rng = np.random.default_rng(48)
        L, E = rng.uniform(0, 3, (2, 3, 5))
        L[0, [0, 2, 4]] = E[0, [0, 2, 4]] = L[1, 0] = E[1, 0] = 1e308
        return panel_from(L=L, E=E)

    # the overflow warns where it happens; what is checked is what follows it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fit, regressors", [
        (fit_pooled_ols, (CONST, "L")), (fit_twoway_fe, ("L",)), (fit_dynamic_lsdv, ("L",)),
    ], ids=["pooled", "fe2w", "lsdv"])
    def test_overflow_is_an_estimation_error(self, fit, regressors):
        with pytest.raises(EstimationError, match=r"^least-squares design or response is not "
                                                  r"finite \(inf, NaN or overflow\)$"):
            fit(self.overflowing_panel(), RegressionSpec("E", regressors))


def stub_fit(beta, rho, vcov=None):
    names = ("l", "e_l1")
    vcov = np.eye(2) * 1e-4 if vcov is None else vcov
    return FitResult(
        estimator_tag="lsdv_dynamic",
        coef_names=names,
        coefficients={"l": beta, "e_l1": rho},
        vcov=vcov,
        n_obs=100,
    )


class TestLongRunElasticity:
    def test_reported_magnitudes(self):
        report = long_run_elasticity(stub_fit(1.3210, -0.0110), "l", "e_l1")
        assert report.long_run == pytest.approx(1.3066, abs=5e-4)

    def test_no_persistence(self):
        report = long_run_elasticity(stub_fit(0.9, 0.0), "l", "e_l1")
        assert report.long_run == 0.9

    def test_hand_arithmetic(self):
        report = long_run_elasticity(stub_fit(0.5, 0.5), "l", "e_l1")
        assert report.long_run == pytest.approx(1.0, abs=1e-12)

    def test_static_fit_has_no_persistence(self):
        x = np.arange(1.0, 13.0).reshape(3, 4)
        fit = fit_pooled_ols(panel_from(x=x, y=2.0 * x), RegressionSpec("y", ("x",)))
        with pytest.raises(EstimationError, match=r"^coefficient 'y_l1' not in fit$"):
            long_run_elasticity(fit, "x", "y_l1")

    def test_unit_root_rejected(self):
        with pytest.raises(EstimationError, match="unit root"):
            long_run_elasticity(stub_fit(1.0, 1.0 - 1e-10), "l", "e_l1")

    def test_monotone_in_persistence(self):
        values = [
            long_run_elasticity(stub_fit(0.8, rho), "l", "e_l1").long_run
            for rho in np.linspace(-0.95, 0.95, 25)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_delta_method_gradient(self):
        vcov = np.array([[0.04, 0.01], [0.01, 0.09]])
        beta, rho = 1.2, 0.4
        report = long_run_elasticity(stub_fit(beta, rho, vcov), "l", "e_l1")
        grad = np.array([1 / (1 - rho), beta / (1 - rho) ** 2])
        assert report.long_run_se == pytest.approx(np.sqrt(grad @ vcov @ grad), abs=1e-12)


class TestFitResultSerialization:
    def test_coefficient_table_fields(self):
        fit = stub_fit(1.0, 0.3)
        table = fit.coefficient_table()
        assert [row["name"] for row in table] == ["l", "e_l1"]
        assert set(table[0]) == {"name", "estimate", "std_error", "p_value"}
        payload = fit.to_json_dict()
        assert payload["estimator"] == "lsdv_dynamic"
        assert payload["n_obs"] == 100
