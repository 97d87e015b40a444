"""Specification tests: serial-correlation z-tests on differenced residuals,
the overidentification J test, pooled Durbin-Watson and Jarque-Bera, bundled
with a within fit's R2.

P-values come from the ``scipy.special`` ufuncs that ``scipy.stats`` itself
evaluates, bit for bit: ``ndtr(-|z|)`` is the normal tail ``norm.sf(|z|)``
(``estimators.normal_p_value``), and ``chdtrc(df, x)`` the chi-square tail
``chi2.sf(x, df)`` (``_chi2_sf``). ``scipy.special`` is loaded at the first
tail, and ``scipy.stats``, whose import alone outlasts an estimate run, never.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import FitResult, normal_p_value, scipy_special
from .gmm import symmetric_factor
from .panel import Grid


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


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail, as ``scipy.stats.chi2.sf`` evaluates it: the
    ``chdtrc`` ufunc on the support, and 1.0 below it, where ``chdtrc`` gives
    nan (a statistic that rounding pushed below zero keeps its p-value)."""
    return 1.0 if x < 0 else float(scipy_special().chdtrc(df, x))


def _verdict(p: float, what: str) -> str:
    return (
        f"reject {what} at 5%" if p < 0.05 else f"fail to reject {what} at 5%"
    )


def ar_test(gmm_fit: FitResult, order: int) -> TestResult:
    """Serial-correlation z-test of order m on the differenced residuals.

    Reads the available years of the fit's ``residual_grid``, which for a GMM
    fit are its differenced periods. Per-region covariance contributions
    are summed and self-normalized; the reference distribution is standard
    normal. Order-1 correlation is expected by construction of differencing;
    order-2 correlation signals invalid instruments.
    """
    if order not in (1, 2):
        raise DiagnosticError("order must be 1 or 2")
    grid = gmm_fit.residual_grid
    if gmm_fit.gmm is None or grid is None:
        raise DiagnosticError("AR test needs a GMM fit with retained residuals")
    d = grid.values[:, grid.available]
    P = d.shape[1]
    if P <= order:
        raise DiagnosticError(f"too few differenced periods ({P}) for AR({order})")
    a = np.einsum("nt,nt->n", d[:, order:], d[:, :-order])
    denom = float(np.sqrt(np.sum(a**2)))
    if denom <= 1e-300:
        raise DiagnosticError("degenerate residual variance")
    z = float(np.sum(a)) / denom
    p = normal_p_value(z)
    return TestResult(z, p, None, _verdict(p, f"no AR({order})"))


def hansen_j(gmm_fit: FitResult) -> TestResult:
    """Overidentification J statistic with the efficient clustered weighting.

    J = g' S^+ g for the summed scores g and S = sum_i (Z_i'u_i)(Z_i'u_i)',
    read from one eigendecomposition of S as the sum of (v'g)^2 / lambda over
    the eigenpairs that ``np.linalg.pinv``'s cutoff keeps. A just-identified
    fit sets every moment to zero, so its J is 0.0, not the rounding residue
    that formula would leave.
    """
    if gmm_fit.gmm is None:
        raise DiagnosticError("J test needs a GMM fit with retained instruments")
    df = gmm_fit.gmm.n_instruments - len(gmm_fit.coef_names)
    if df <= 0:
        return TestResult(0.0, 1.0, 0, "just-identified: J is identically zero")
    zu = gmm_fit.gmm.scores
    g = zu.sum(axis=0)
    _, V, lam = symmetric_factor(zu.T @ zu)
    J = float(np.sum((V.T @ g) ** 2 / lam))
    p = _chi2_sf(J, df)
    return TestResult(J, p, df, _verdict(p, "instrument validity"))


def durbin_watson(residuals: Grid) -> float:
    """Pooled panel Durbin-Watson: within-region squared-difference sums over
    the pooled squared-residual sum.

    A region's series is its residuals in the available years, so a masked
    year is bridged: the years on either side of it are differenced. The grid
    is balanced, so either every region has two such years or none has, and
    then the statistic is undefined.
    """
    r = residuals.values[:, residuals.available]
    if r.shape[1] < 2:
        raise DiagnosticError(f"too few residual periods ({r.shape[1]}) for Durbin-Watson")
    den = float(r.ravel() @ r.ravel())
    if den == 0.0:
        raise DiagnosticError("all residuals are zero: statistic undefined")
    d = np.diff(r, axis=1).ravel()
    return float(d @ d) / den


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
    p = _chi2_sf(jb, 2)
    return TestResult(jb, p, 2, _verdict(p, "normality"))


def diagnostic_bundle(fit: FitResult) -> dict:
    """All diagnostics applicable to one fit, as a JSON-ready mapping."""
    out: dict = {}
    if fit.within_r2 is not None:
        out["within_r2"] = fit.within_r2
    grid = fit.residual_grid
    if grid is not None:
        try:
            out["durbin_watson"] = durbin_watson(grid)
        except DiagnosticError as exc:
            out["durbin_watson_error"] = str(exc)
        try:
            out["jarque_bera"] = jarque_bera(grid.values[:, grid.available]).to_json_dict()
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
