"""Least-squares panel estimators with cluster-robust inference.

Covers pooled OLS, the two-way within estimator, dynamic LSDV and the
long-run elasticity transform. GMM estimators live in :mod:`forestpanel.gmm`
and share the FitResult container defined here.

Each estimator owns its effects: pooled OLS absorbs none (give it ``const``
for an intercept), the within fits absorb region and year effects, and GMM
differences out the region effects. A ``RegressionSpec`` only names the
response and the regressors.

Coefficient p-values are two-sided normal tails from ``scipy.special.ndtr``,
the ufunc behind ``scipy.stats.norm.sf``, so the package never pays the import
of ``scipy.stats``; ``normal_p_value`` is the one place they are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from scipy import special
from scipy.linalg import solve_triangular

from .panel import Grid, PanelDataset, demean_twoway_values, lag

CONST = "const"  # reserved regressor name mapping to a column of ones


def normal_p_value(z: float) -> float:
    """Two-sided standard normal p-value 2 * P(Z > |z|), by the ufunc that
    ``scipy.stats.norm.sf`` evaluates, so bit for bit its value."""
    return float(2.0 * special.ndtr(-abs(z)))


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

def qr_lstsq(X: np.ndarray, y: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Least squares through a QR factorization, never the normal equations."""
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    scale = diag.max() if diag.size else 0.0
    bad = [names[i] for i in range(len(names)) if diag[i] <= scale * 1e-10]
    if scale == 0.0 or bad:
        raise EstimationError(f"rank-deficient design; collinear columns: {bad or names}")
    return solve_triangular(R, Q.T @ y)


def cluster_robust_vcov(
    X: np.ndarray,
    residuals: np.ndarray,
    clusters: Sequence,
    dof_absorbed: int = 0,
) -> np.ndarray:
    """Clustered sandwich covariance with the standard small-sample factor.

    ``dof_absorbed`` counts effects removed before X was formed (e.g. the
    N + T - 1 absorbed fixed effects of a two-way within fit).
    """
    X = np.asarray(X, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    clusters = np.asarray(clusters)
    n, k = X.shape
    labels, inverse = np.unique(clusters, return_inverse=True)
    G = labels.size
    if G < 2:
        raise EstimationError("cluster-robust covariance needs at least 2 clusters")
    _, R = np.linalg.qr(X)
    Rinv = solve_triangular(R, np.eye(k))
    xtx_inv = Rinv @ Rinv.T
    # per-cluster scores X_g' u_g in one scatter-add over the cluster index
    scores = np.zeros((G, k))
    np.add.at(scores, inverse, X * residuals[:, None])
    meat = scores.T @ scores
    df = n - k - dof_absorbed
    if df <= 0:
        raise EstimationError("no residual degrees of freedom for the clustered vcov")
    factor = (G / (G - 1)) * ((n - 1) / df)
    vcov = factor * xtx_inv @ meat @ xtx_inv
    return 0.5 * (vcov + vcov.T)


def _gather(panel: PanelDataset, names: Sequence[str]) -> dict[str, Grid]:
    ones = None
    grids = {}
    for name in names:
        if name == CONST:
            if ones is None:
                ones = Grid.full(np.ones((panel.N, panel.T)))
            grids[name] = ones
        else:
            grids[name] = panel.var(name)
    return grids


def fit_pooled_ols(panel: PanelDataset, spec: RegressionSpec) -> FitResult:
    """Pooled OLS over all available cells, clustered by region.

    Use the reserved regressor name ``const`` for an intercept column.
    """
    names = [spec.response, *spec.regressors]
    grids = _gather(panel, names)
    avail = np.logical_and.reduce([grids[n].available for n in names])
    if avail.sum() <= len(spec.regressors):
        raise EstimationError("not enough complete observations for pooled OLS")
    y = grids[spec.response].values[avail]
    X = np.column_stack([grids[n].values[avail] for n in spec.regressors])
    beta = qr_lstsq(X, y, spec.regressors)
    resid = y - X @ beta
    region_ids = np.broadcast_to(
        np.arange(panel.N)[:, None], (panel.N, panel.T)
    )[avail]
    vcov = cluster_robust_vcov(X, resid, region_ids)
    res_values = np.zeros((panel.N, panel.T))
    res_values[avail] = resid
    return FitResult(
        estimator_tag="pooled",
        coef_names=tuple(spec.regressors),
        coefficients=dict(zip(spec.regressors, beta.tolist())),
        vcov=vcov,
        n_obs=int(avail.sum()),
        residual_grid=Grid(res_values, avail),
    )


def _complete_years(panel: PanelDataset, grids: dict[str, Grid]) -> np.ndarray:
    """Boolean mask of years where every variable is available for every region."""
    mask = np.ones(panel.T, dtype=bool)
    for grid in grids.values():
        mask &= grid.available.all(axis=0)
    return mask


def _within_fit(
    panel: PanelDataset,
    spec: RegressionSpec,
    tag: str,
    extra_warnings: tuple[str, ...] = (),
) -> FitResult:
    if CONST in spec.regressors:
        raise EstimationError("const is absorbed by the fixed effects")
    names = [spec.response, *spec.regressors]
    grids = _gather(panel, names)
    year_mask = _complete_years(panel, grids)
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
    beta = qr_lstsq(X, y, spec.regressors)
    resid = y - X @ beta
    k = len(spec.regressors)
    tss = float(y @ y)
    rss = float(resid @ resid)
    region_ids = np.repeat(np.arange(N), Ts)
    vcov = cluster_robust_vcov(X, resid, region_ids, dof_absorbed=N + Ts - 1)
    avail = np.zeros((N, panel.T), dtype=bool)
    avail[:, year_mask] = True
    res_values = np.zeros((N, panel.T))
    res_values[:, year_mask] = resid.reshape(N, Ts)
    return FitResult(
        estimator_tag=tag,
        coef_names=tuple(spec.regressors),
        coefficients=dict(zip(spec.regressors, beta.tolist())),
        vcov=vcov,
        n_obs=N * Ts,
        residual_grid=Grid(res_values, avail),
        within_r2=1.0 - rss / tss if tss > 0 else None,
        warnings=extra_warnings,
    )


def fit_twoway_fe(panel: PanelDataset, spec: RegressionSpec) -> FitResult:
    """Two-way within estimator: double-demean, absorbing region and year
    effects, then least squares."""
    return _within_fit(panel, spec, "fe2w")


def lagged_name(response: str, k: int = 1) -> str:
    return f"{response}_l{k}"


def _with_lagged_response(panel: PanelDataset, response: str) -> tuple[PanelDataset, str]:
    name = lagged_name(response)
    if name not in panel.variables:
        panel = panel.with_variable(name, lag(panel, response, 1))
    return panel, name


def fit_dynamic_lsdv(panel: PanelDataset, spec: RegressionSpec) -> FitResult:
    """Within fit of the dynamic model (lagged response added as a regressor).

    The lagged-response coefficient from a within fit is biased for small T
    (the finite-T dynamic-panel bias); the result carries a warning flag, and
    the GMM estimators are the bias-robust alternatives.
    """
    if panel.T < 3:
        raise EstimationError("dynamic LSDV needs T >= 3")
    panel, lag_name = _with_lagged_response(panel, spec.response)
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
