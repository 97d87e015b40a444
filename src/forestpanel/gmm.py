"""Dynamic panel GMM: lagged-level instruments for the differenced equation,
optionally stacked with level equations instrumented by lagged differences.

Moment conditions: levels dated t-s with s >= 2 are orthogonal to the
differenced error, which identifies the persistence coefficient that the
within estimator gets wrong for small T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (
    EstimationError,
    FitResult,
    RegressionSpec,
    lagged_name,
)
from .panel import Grid, PanelDataset


@dataclass(frozen=True)
class GmmOptions:
    """Instrument layout and weighting choices."""

    min_lag: int = 2
    max_lag: int | None = None
    collapse: bool = False
    steps: int = 1

    def __post_init__(self):
        if self.min_lag < 2:
            raise EstimationError("min_lag must be >= 2 for valid moment conditions")
        if self.max_lag is not None and self.max_lag < self.min_lag:
            raise EstimationError("max_lag must be >= min_lag")
        if self.steps not in (1, 2):
            raise EstimationError("steps must be 1 or 2")


@dataclass(frozen=True)
class InstrumentSet:
    """Per-region instrument blocks for the differenced equation.

    ``matrices`` has shape (N, periods, columns); rows line up with the
    differenced periods in ``period_years``. Missing instruments are
    zero-filled inside the standard per-period block layout.
    """

    matrices: np.ndarray
    labels: tuple[str, ...]
    period_years: tuple[int, ...]

    @property
    def n_columns(self) -> int:
        return self.matrices.shape[2]


@dataclass(frozen=True)
class GmmInternals:
    """Moment-level pieces retained for the post-estimation tests."""

    instruments: np.ndarray       # (N, rows, K), stacked diff + level rows
    residuals: np.ndarray         # (N, rows) at the final estimates
    diff_residuals: np.ndarray    # (N, P) differenced-equation part
    period_years: tuple[int, ...]
    weight: np.ndarray            # (K, K) weighting used in estimation
    n_instruments: int
    n_coef: int


def _diff_periods(T: int) -> list[int]:
    # 0-based year indices where a differenced equation has s >= 2 instruments
    return list(range(2, T))


def build_ab_instruments(
    panel: PanelDataset, response: str, options: GmmOptions
) -> InstrumentSet:
    """Lagged-level instrument blocks for the differenced equation.

    Uncollapsed: one column per (period, lag distance), zero outside its
    period block. Collapsed: one column per lag distance across all periods.
    """
    grid = panel.var(response)
    if not grid.available.all():
        raise EstimationError(f"response {response!r} must be fully available")
    y = grid.values
    N, T = y.shape
    periods = _diff_periods(T)
    if not periods:
        raise EstimationError(f"T={T} too small: no period has a lag s >= 2")
    s_max_global = (T - 1) if options.max_lag is None else min(options.max_lag, T - 1)
    if options.collapse:
        lags = [s for s in range(options.min_lag, s_max_global + 1)]
        if not lags:
            raise EstimationError("no usable instruments for the given lag range")
        Z = np.zeros((N, len(periods), len(lags)))
        for p, t in enumerate(periods):
            for c, s in enumerate(lags):
                if t - s >= 0:
                    Z[:, p, c] = y[:, t - s]
        labels = tuple(f"lev_l{s}" for s in lags)
    else:
        cols: list[tuple[int, int]] = []  # (period index, lag distance)
        for p, t in enumerate(periods):
            s_hi = min(s_max_global, t)
            cols.extend((p, s) for s in range(options.min_lag, s_hi + 1))
        if not cols:
            raise EstimationError("no usable instruments for the given lag range")
        Z = np.zeros((N, len(periods), len(cols)))
        for c, (p, s) in enumerate(cols):
            t = periods[p]
            Z[:, p, c] = y[:, t - s]
        labels = tuple(f"t{panel.years[periods[p]]}_lev_l{s}" for p, s in cols)
    return InstrumentSet(Z, labels, tuple(panel.years[t] for t in periods))


def _fit_gmm(
    panel: PanelDataset, spec: RegressionSpec, options: GmmOptions, level: bool
) -> FitResult:
    response = spec.response
    lag_name = lagged_name(response)
    exog = tuple(r for r in spec.regressors if r != lag_name)
    y_grid = panel.var(response)
    if not y_grid.available.all():
        raise EstimationError(f"response {response!r} must be fully available")
    y = y_grid.values
    N, T = y.shape
    if T < 3:
        raise EstimationError("GMM needs T >= 3")
    periods = _diff_periods(T)
    P = len(periods)

    Xg = []
    for name in exog:
        g = panel.var(name)
        if not g.available[:, periods].all():
            raise EstimationError(f"regressor {name!r} unavailable in estimation years")
        Xg.append(g.values)

    coef_names = [lag_name, *exog]
    dummy_years = periods if spec.include_time_effects else []
    coef_names += [f"year_{panel.years[t]}" for t in dummy_years]
    # with time dummies the level-equation intercepts are already spanned
    include_const = level and not spec.include_time_effects
    if include_const:
        coef_names.append("const")
    k = len(coef_names)

    # differenced-equation rows
    Xd = np.zeros((N, P, k))
    yd = np.zeros((N, P))
    for p, t in enumerate(periods):
        yd[:, p] = y[:, t] - y[:, t - 1]
        Xd[:, p, 0] = y[:, t - 1] - y[:, t - 2]
        for j, xv in enumerate(Xg):
            Xd[:, p, 1 + j] = xv[:, t] - xv[:, t - 1]
        for d, s in enumerate(dummy_years):
            Xd[:, p, 1 + len(exog) + d] = float(t == s) - float(t == s + 1)
        # const column differences to zero

    ab = build_ab_instruments(panel, response, options)
    K_ab = ab.n_columns
    exo_d = Xd[:, :, 1 : 1 + len(exog) + len(dummy_years)]
    m_exo_d = exo_d.shape[2]

    if not level:
        rows = P
        K = K_ab + m_exo_d
        Z = np.zeros((N, rows, K))
        Z[:, :, :K_ab] = ab.matrices
        Z[:, :, K_ab:] = exo_d
        X_all, y_all = Xd, yd
    else:
        # level-equation rows share the coefficient vector
        Xl = np.zeros((N, P, k))
        yl = np.zeros((N, P))
        for p, t in enumerate(periods):
            yl[:, p] = y[:, t]
            Xl[:, p, 0] = y[:, t - 1]
            for j, xv in enumerate(Xg):
                Xl[:, p, 1 + j] = xv[:, t]
            for d, s in enumerate(dummy_years):
                Xl[:, p, 1 + len(exog) + d] = float(t == s)
            if include_const:
                Xl[:, p, k - 1] = 1.0
        dy_lag = np.zeros((N, P))
        for p, t in enumerate(periods):
            dy_lag[:, p] = y[:, t - 1] - y[:, t - 2]
        if options.collapse:
            Zlev = dy_lag[:, :, None]
        else:
            Zlev = np.zeros((N, P, P))
            for p in range(P):
                Zlev[:, p, p] = dy_lag[:, p]
        K_lev = Zlev.shape[2]
        exo_l = Xl[:, :, 1:]  # exogenous regressors, dummies, const self-instrument
        m_exo_l = exo_l.shape[2]
        rows = 2 * P
        K = K_ab + m_exo_d + K_lev + m_exo_l
        Z = np.zeros((N, rows, K))
        Z[:, :P, :K_ab] = ab.matrices
        Z[:, :P, K_ab : K_ab + m_exo_d] = exo_d
        Z[:, P:, K_ab + m_exo_d : K_ab + m_exo_d + K_lev] = Zlev
        Z[:, P:, K_ab + m_exo_d + K_lev :] = exo_l
        X_all = np.concatenate([Xd, Xl], axis=1)
        y_all = np.concatenate([yd, yl], axis=1)

    warnings: list[str] = []
    if K >= N:
        warnings.append(f"too many instruments: {K} columns for {N} regions")
    if K < k:
        raise EstimationError(f"underidentified: {K} instruments for {k} coefficients")

    # one-step weighting: tridiagonal band for differenced rows, identity for levels
    H = np.zeros((rows, rows))
    Hd = 2.0 * np.eye(P) - np.eye(P, k=1) - np.eye(P, k=-1)
    H[:P, :P] = Hd
    if level:
        H[P:, P:] = np.eye(P)

    Mzx = np.einsum("nrK,nrk->Kk", Z, X_all)
    mzy = np.einsum("nrK,nr->K", Z, y_all)

    def weight_inverse(M):
        if np.linalg.matrix_rank(M) < M.shape[0]:
            warnings.append("singular weighting matrix: pseudo-inverse fallback")
            return np.linalg.pinv(M)
        return np.linalg.inv(M)

    ZH = np.einsum("nrK,rs->nsK", Z, H)
    W = weight_inverse(np.einsum("nsK,nsJ->KJ", ZH, Z))

    def solve_theta(Wm):
        A = Mzx.T @ Wm @ Mzx
        b = Mzx.T @ Wm @ mzy
        if np.linalg.matrix_rank(A) < A.shape[0]:
            raise EstimationError("GMM system matrix is singular")
        return np.linalg.solve(A, b)

    theta = solve_theta(W)
    u = y_all - np.einsum("nrk,k->nr", X_all, theta)
    if options.steps == 2:
        zu = np.einsum("nrK,nr->nK", Z, u)
        S1 = zu.T @ zu
        if np.trace(S1) <= 1e-12 * max(1.0, float(np.abs(Z).max()) ** 2):
            warnings.append(
                "degenerate first-step residuals: kept one-step weighting"
            )
        else:
            W = weight_inverse(S1)
            theta = solve_theta(W)
            u = y_all - np.einsum("nrk,k->nr", X_all, theta)

    # clustered GMM sandwich
    zu = np.einsum("nrK,nr->nK", Z, u)
    S = zu.T @ zu
    A = Mzx.T @ W @ Mzx
    B = Mzx.T @ W @ S @ W @ Mzx
    Ainv = np.linalg.pinv(A)
    vcov = (N / (N - 1)) * Ainv @ B @ Ainv
    vcov = 0.5 * (vcov + vcov.T)

    diff_resid = u[:, :P]
    res_values = np.zeros((N, T))
    avail = np.zeros((N, T), dtype=bool)
    res_values[:, periods] = diff_resid
    avail[:, periods] = True
    internals = GmmInternals(
        instruments=Z,
        residuals=u,
        diff_residuals=diff_resid,
        period_years=ab.period_years,
        weight=W,
        n_instruments=K,
        n_coef=k,
    )
    return FitResult(
        estimator_tag="sys_gmm" if level else "diff_gmm",
        coef_names=tuple(coef_names),
        coefficients=dict(zip(coef_names, theta.tolist())),
        vcov=vcov,
        n_obs=N * rows,
        residual_grid=Grid(res_values, avail),
        regions=panel.regions,
        warnings=tuple(warnings),
        gmm=internals,
    )


def fit_diff_gmm(
    panel: PanelDataset, spec: RegressionSpec, options: GmmOptions = GmmOptions()
) -> FitResult:
    """Difference GMM for the dynamic model: first-difference out the region
    effects and instrument the lagged differenced response with lagged levels."""
    return _fit_gmm(panel, spec, options, level=False)


def fit_sys_gmm(
    panel: PanelDataset, spec: RegressionSpec, options: GmmOptions = GmmOptions()
) -> FitResult:
    """System GMM: differenced equations stacked with level equations
    instrumented by the lagged first difference of the response."""
    return _fit_gmm(panel, spec, options, level=True)
