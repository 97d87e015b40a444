"""Least-squares panel estimators with cluster-robust inference.

Covers pooled OLS, the two-way within estimator, dynamic LSDV and the
long-run elasticity transform. GMM estimators live in :mod:`forestpanel.gmm`
and share the FitResult container defined here.

Each estimator owns its effects: pooled OLS absorbs none (give it ``const``
for an intercept), the within fits absorb region and year effects, and GMM
differences out the region effects. A ``RegressionSpec`` only names the
response and the regressors.

Coefficient p-values are two-sided normal tails from ``scipy.special.ndtr``
(``normal_p_value``), imported at the first one. The triangular solves are
numpy's, a back-substitution by 1-D dots and ``np.linalg.inv``, with the bits
of scipy's on the R of ``np.linalg.qr`` up to 64 columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .panel import Grid, PanelDataset, demean_twoway_values, lag

CONST = "const"  # reserved regressor name mapping to a column of ones


def scipy_special():  # the one import of scipy: ingest and montecarlo load none
    from scipy import special
    return special


def normal_p_value(z: float) -> float:
    """Two-sided standard normal p-value 2 * P(Z > |z|), by the ufunc that
    ``scipy.stats.norm.sf`` evaluates, so bit for bit its value."""
    return float(2.0 * scipy_special().ndtr(-abs(z)))


class EstimationError(ValueError):
    """Estimation cannot proceed (rank deficiency, bad sample, bad spec)."""


@dataclass(frozen=True)
class RegressionSpec:
    """What to regress on what. The estimator decides which effects to absorb."""

    response: str
    regressors: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        if not self.regressors:
            raise EstimationError("regressor list must be nonempty")
        if self.response in self.regressors:
            raise EstimationError("response cannot appear among regressors")


@dataclass(frozen=True)
class FitResult:
    """Coefficients, clustered covariance, residuals, and fit statistics.

    ``residual_grid`` is the one copy of the residuals, available at the cells
    of the estimation sample; for GMM those are the differenced-equation
    residuals at their periods. Every diagnostic reads it.
    """

    estimator_tag: str
    coef_names: tuple[str, ...]
    coefficients: dict[str, float]
    vcov: np.ndarray
    n_obs: int
    residual_grid: Grid | None = None
    within_r2: float | None = None
    warnings: tuple[str, ...] = ()
    gmm: Any = None

    def std_errors(self) -> dict[str, float]:
        se = np.sqrt(np.clip(np.diag(self.vcov), 0.0, None))
        return dict(zip(self.coef_names, se.tolist()))

    def p_values(self) -> dict[str, float]:
        out = {}
        for name, se in self.std_errors().items():
            est = self.coefficients[name]
            if se == 0:
                out[name] = 0.0 if est != 0 else 1.0
            else:
                out[name] = normal_p_value(est / se)
        return out

    def coefficient_table(self) -> list[dict[str, float]]:
        ses, ps = self.std_errors(), self.p_values()
        return [
            {
                "name": name,
                "estimate": self.coefficients[name],
                "std_error": ses[name],
                "p_value": ps[name],
            }
            for name in self.coef_names
        ]

    def to_json_dict(self) -> dict:
        out = {
            "estimator": self.estimator_tag,
            "n_obs": self.n_obs,
            "coefficients": self.coefficient_table(),
            "warnings": list(self.warnings),
        }
        if self.within_r2 is not None:
            out["within_r2"] = self.within_r2
        if self.gmm is not None:
            out["n_instruments"] = int(self.gmm.n_instruments)
        return out


@dataclass(frozen=True)
class ElasticityReport:
    """Short-run, persistence, and implied long-run elasticity."""

    short_run: float
    persistence: float
    long_run: float
    long_run_se: float

    def to_json_dict(self) -> dict:
        return {
            "short_run": self.short_run,
            "persistence": self.persistence,
            "long_run": self.long_run,
            "long_run_se": self.long_run_se,
        }


# ---------------------------------------------------------------------------
# numerical core

def qr_lstsq(
    X: np.ndarray, y: np.ndarray, names: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Least squares through a QR factorization, never the normal equations.

    Returns the coefficients and the R factor, which ``cluster_robust_vcov``
    takes so that a fit factors its design once. A non-finite X or y, which
    carries into R or Q'y, or an overflow in either, is an ``EstimationError``.
    Column j is collinear with the columns before it when |R_jj| is at most
    1e-10 of the norm of R's column j, which is the norm of X's column j, so
    the rank does not depend on the columns' units. The norm is taken by
    ``np.hypot``, which does not overflow where the squares would. Past
    64 columns, the coefficients may differ in the last bits from scipy's.
    """
    Q, R = np.linalg.qr(X)
    Qty = Q.T @ y
    if not (np.isfinite(R).all() and np.isfinite(Qty).all()):
        raise EstimationError("least-squares design or response is not finite "
                              "(inf, NaN or overflow)")
    collinear = np.abs(np.diag(R)) <= 1e-10 * np.hypot.reduce(R, axis=0)
    if not collinear.size or collinear.any():
        bad = [name for name, flag in zip(names, collinear.tolist()) if flag]
        raise EstimationError(f"rank-deficient design; collinear columns: {bad or names}")
    for i in reversed(range(Qty.size)):  # back-substitution, in place
        Qty[i] = (Qty[i] - R[i, i + 1:] @ Qty[i + 1:]) / R[i, i]
    return Qty, R


def cluster_robust_vcov(
    X: np.ndarray,
    residuals: np.ndarray,
    clusters: Sequence,
    dof_absorbed: int = 0,
    factored: tuple[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Clustered sandwich covariance with the standard small-sample factor.

    ``dof_absorbed`` counts effects removed before X was formed (e.g. the
    N + T - 1 absorbed fixed effects of a two-way within fit). A fit that
    has factored X passes ``factored = (G, R)``: its ``clusters`` are the
    codes 0 .. G - 1, each used, and R is the factor ``qr_lstsq`` returned.
    That skips the sort that labels the clusters and a second QR, and gives
    the bits of the call without it.
    """
    X = np.asarray(X, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    n, k = X.shape
    if factored is None:
        labels, inverse = np.unique(np.asarray(clusters), return_inverse=True)
        G, R = labels.size, np.linalg.qr(X)[1]
    else:
        inverse, (G, R) = clusters, factored
    if G < 2:
        raise EstimationError("cluster-robust covariance needs at least 2 clusters")
    Rinv = np.linalg.inv(R)
    xtx_inv = Rinv @ Rinv.T
    # per-cluster scores X_g' u_g: each column summed by cluster from 0.0,
    # in input order
    scores = np.column_stack([
        np.bincount(inverse, weights=X[:, j] * residuals, minlength=G) for j in range(k)
    ])
    meat = scores.T @ scores
    df = n - k - dof_absorbed
    if df <= 0:
        raise EstimationError("no residual degrees of freedom for the clustered vcov")
    factor = (G / (G - 1)) * ((n - 1) / df)
    vcov = factor * xtx_inv @ meat @ xtx_inv
    return 0.5 * (vcov + vcov.T)


def _gather(panel: PanelDataset, names: Sequence[str]) -> tuple[dict[str, Grid], np.ndarray]:
    """The grids of ``names`` and the mask of the years where all are available."""
    ones = None
    grids = {}
    for name in names:
        if name == CONST:
            if ones is None:
                ones = Grid.full(np.ones((panel.N, panel.T)))
            grids[name] = ones
        else:
            grids[name] = panel.var(name)
    return grids, np.logical_and.reduce([grid.available for grid in grids.values()])


def fit_pooled_ols(panel: PanelDataset, spec: RegressionSpec) -> FitResult:
    """Pooled OLS over all available cells, clustered by region.

    Use the reserved regressor name ``const`` for an intercept column.
    """
    names = [spec.response, *spec.regressors]
    grids, year_mask = _gather(panel, names)
    N, Ts = panel.N, int(year_mask.sum())
    if N * Ts <= len(spec.regressors):
        raise EstimationError("not enough complete observations for pooled OLS")
    y = grids[spec.response].values[:, year_mask].ravel()
    X = np.column_stack([grids[n].values[:, year_mask].ravel() for n in spec.regressors])
    beta, R = qr_lstsq(X, y, spec.regressors)
    resid = y - X @ beta
    vcov = cluster_robust_vcov(X, resid, np.repeat(np.arange(N), Ts), factored=(N, R))
    return FitResult(
        estimator_tag="pooled",
        coef_names=tuple(spec.regressors),
        coefficients=dict(zip(spec.regressors, beta.tolist())),
        vcov=vcov,
        n_obs=N * Ts,
        residual_grid=Grid.at_years(resid.reshape(N, Ts), year_mask),
    )


def _within_fit(
    panel: PanelDataset,
    spec: RegressionSpec,
    tag: str,
    extra_warnings: tuple[str, ...] = (),
) -> FitResult:
    if CONST in spec.regressors:
        raise EstimationError("const is absorbed by the fixed effects")
    names = [spec.response, *spec.regressors]
    grids, year_mask = _gather(panel, names)
    Ts = int(year_mask.sum())
    if Ts < 2:
        raise EstimationError("need at least 2 complete years for the within fit")
    N = panel.N
    y_til = demean_twoway_values(grids[spec.response].values[:, year_mask])
    cols = []
    for name in spec.regressors:
        col = demean_twoway_values(grids[name].values[:, year_mask])
        scale = max(np.abs(grids[name].values[:, year_mask]).max(), 1.0)
        if np.abs(col).max() <= 1e-12 * scale:
            raise EstimationError(f"regressor {name!r} has no within variation")
        cols.append(col.ravel())
    X = np.column_stack(cols)
    y = y_til.ravel()
    beta, R = qr_lstsq(X, y, spec.regressors)
    resid = y - X @ beta
    tss = float(y @ y)
    rss = float(resid @ resid)
    vcov = cluster_robust_vcov(X, resid, np.repeat(np.arange(N), Ts), dof_absorbed=N + Ts - 1,
                               factored=(N, R))
    return FitResult(
        estimator_tag=tag,
        coef_names=tuple(spec.regressors),
        coefficients=dict(zip(spec.regressors, beta.tolist())),
        vcov=vcov,
        n_obs=N * Ts,
        residual_grid=Grid.at_years(resid.reshape(N, Ts), year_mask),
        within_r2=1.0 - rss / tss if tss > 0 else None,
        warnings=extra_warnings,
    )


def fit_twoway_fe(panel: PanelDataset, spec: RegressionSpec) -> FitResult:
    """Two-way within estimator: double-demean, absorbing region and year
    effects, then least squares."""
    return _within_fit(panel, spec, "fe2w")


def lagged_name(response: str) -> str:
    return f"{response}_l1"


def fit_dynamic_lsdv(panel: PanelDataset, spec: RegressionSpec) -> FitResult:
    """Within fit of the dynamic model (lagged response added as a regressor).

    The lagged-response coefficient from a within fit is biased for small T
    (the finite-T dynamic-panel bias); the result carries a warning flag, and
    the GMM estimators are the bias-robust alternatives.
    """
    if panel.T < 3:
        raise EstimationError("dynamic LSDV needs T >= 3")
    # derived here, never read from the panel: GMM derives its own lag the
    # same way, so a panel's own column of that name is rejected (write-once)
    lag_name = lagged_name(spec.response)
    panel = panel.with_variable(lag_name, lag(panel, spec.response, 1))
    regressors = (lag_name, *(r for r in spec.regressors if r != lag_name))
    return _within_fit(
        panel,
        RegressionSpec(spec.response, regressors),
        "lsdv_dynamic",
        extra_warnings=(
            "finite-T bias: within estimates of the lagged-response "
            "coefficient are biased; compare against GMM",
        ),
    )


def long_run_elasticity(
    fit: FitResult, beta_name: str, rho_name: str
) -> ElasticityReport:
    """beta / (1 - rho) with a delta-method standard error."""
    for name in (beta_name, rho_name):
        if name not in fit.coefficients:
            raise EstimationError(f"coefficient {name!r} not in fit")
    beta = fit.coefficients[beta_name]
    rho = fit.coefficients[rho_name]
    denom = 1.0 - rho
    if abs(denom) <= 1e-8:
        raise EstimationError("unit root: long-run elasticity undefined")
    long_run = beta / denom
    bi = fit.coef_names.index(beta_name)
    ri = fit.coef_names.index(rho_name)
    sub = fit.vcov[np.ix_([bi, ri], [bi, ri])]
    grad = np.array([1.0 / denom, beta / denom**2])
    var = float(grad @ sub @ grad)
    return ElasticityReport(
        short_run=beta,
        persistence=rho,
        long_run=long_run,
        long_run_se=math.sqrt(max(var, 0.0)),
    )
