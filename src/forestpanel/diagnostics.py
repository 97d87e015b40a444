"""Specification tests: serial-correlation z-tests on differenced residuals,
the overidentification J test, pooled Durbin-Watson, Jarque-Bera, within R2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .estimators import FitResult


class DiagnosticError(ValueError):
    """Test cannot be computed on the given input."""


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df: int | None
    verdict_note: str

    def to_json_dict(self) -> dict:
        out = {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "note": self.verdict_note,
        }
        if self.df is not None:
            out["df"] = self.df
        return out


def _verdict(p: float, what: str) -> str:
    return (
        f"reject {what} at 5%" if p < 0.05 else f"fail to reject {what} at 5%"
    )


def ar_test(gmm_fit: FitResult, order: int) -> TestResult:
    """Serial-correlation z-test of order m on the differenced residuals.

    Per-region covariance contributions are summed and self-normalized; the
    reference distribution is standard normal. Order-1 correlation is expected
    by construction of differencing; order-2 correlation signals invalid
    instruments.
    """
    if order not in (1, 2):
        raise DiagnosticError("order must be 1 or 2")
    if gmm_fit.gmm is None:
        raise DiagnosticError("AR test needs a GMM fit with retained residuals")
    d = gmm_fit.gmm.diff_residuals
    P = d.shape[1]
    if P <= order:
        raise DiagnosticError(f"too few differenced periods ({P}) for AR({order})")
    a = np.einsum("nt,nt->n", d[:, order:], d[:, :-order])
    denom = float(np.sqrt(np.sum(a**2)))
    if denom <= 1e-300:
        raise DiagnosticError("degenerate residual variance")
    z = float(np.sum(a)) / denom
    p = float(2.0 * stats.norm.sf(abs(z)))
    return TestResult(z, p, None, _verdict(p, f"no AR({order})"))


def hansen_j(gmm_fit: FitResult) -> TestResult:
    """Overidentification J statistic with the efficient clustered weighting."""
    if gmm_fit.gmm is None:
        raise DiagnosticError("J test needs a GMM fit with retained instruments")
    internals = gmm_fit.gmm
    zu = internals.scores
    g = zu.sum(axis=0)
    S = zu.T @ zu
    J = float(g @ np.linalg.pinv(S) @ g)
    df = internals.n_instruments - internals.n_coef
    if df <= 0:
        return TestResult(J, 1.0, 0, "just-identified: J is identically zero")
    p = float(stats.chi2.sf(J, df))
    return TestResult(J, p, df, _verdict(p, "instrument validity"))


def durbin_watson(residuals_by_region) -> float:
    """Pooled panel Durbin-Watson: within-region squared-difference sums over
    the pooled squared-residual sum."""
    if isinstance(residuals_by_region, np.ndarray) and residuals_by_region.ndim == 2:
        series = [row for row in residuals_by_region]
    else:
        series = [np.asarray(r, dtype=float) for r in residuals_by_region]
    num = 0.0
    den = 0.0
    total = 0
    for r in series:
        total += r.size
        den += float(r @ r)
        if r.size >= 2:
            d = np.diff(r)
            num += float(d @ d)
    if total < 2:
        raise DiagnosticError("need at least 2 residuals")
    if den == 0.0:
        raise DiagnosticError("all residuals are zero: statistic undefined")
    return num / den


def jarque_bera(residuals) -> TestResult:
    """Moment-based normality test; chi-square(2) reference distribution."""
    x = np.asarray(residuals, dtype=float).ravel()
    n = x.size
    if n < 8:
        raise DiagnosticError("need at least 8 residuals")
    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DiagnosticError("zero variance sample")
    skew = float(np.mean(centered**3)) / m2**1.5
    kurt = float(np.mean(centered**4)) / m2**2
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    p = float(stats.chi2.sf(jb, 2))
    return TestResult(jb, p, 2, _verdict(p, "normality"))


def within_r2(fit: FitResult) -> float:
    """1 - RSS/TSS of the demeaned response, from a within-transformed fit."""
    if fit.within_r2 is None:
        raise DiagnosticError(
            "no within R2: fit not on within-transformed data, or zero total sum of squares"
        )
    return fit.within_r2


def diagnostic_bundle(fit: FitResult) -> dict:
    """All diagnostics applicable to one fit, as a JSON-ready mapping."""
    out: dict = {}
    if fit.within_r2 is not None:
        out["within_r2"] = fit.within_r2
    if fit.residual_grid is not None:
        rows = fit.residual_rows()
        flat = np.concatenate([r for r in rows if r.size]) if rows else np.array([])
        try:
            out["durbin_watson"] = durbin_watson(rows)
        except DiagnosticError as exc:
            out["durbin_watson_error"] = str(exc)
        try:
            out["jarque_bera"] = jarque_bera(flat).to_json_dict()
        except DiagnosticError as exc:
            out["jarque_bera_error"] = str(exc)
    if fit.gmm is not None:
        for m in (1, 2):
            try:
                out[f"ar{m}"] = ar_test(fit, m).to_json_dict()
            except DiagnosticError as exc:
                out[f"ar{m}_error"] = str(exc)
        out["hansen_j"] = hansen_j(fit).to_json_dict()
    return out
