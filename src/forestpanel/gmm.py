"""Dynamic panel GMM: lagged-level instruments for the differenced equation,
optionally stacked with level equations instrumented by lagged differences.

Moment conditions: levels dated t-s with s >= 2 are orthogonal to the
differenced error, which identifies the persistence coefficient that the
within estimator gets wrong for small T.

Every region's instrument matrix Z_i (equation rows x K columns) has the same
sparsity pattern. An uncollapsed lag block holds one cell per (period, lag)
column, a collapsed lag column repeats one lag down the rows, the level block
of system GMM is diagonal (one column when collapsed), and the exogenous
regressors and year dummies instrument themselves in their own rows. So Z is
kept as that shared list of (row, column) cells plus an (N, cells) array of
values, and Z'X, Z'y, Z'HZ and the per-region scores Z_i'u_i are formed from
it. No (N, rows, K) array is built.

Nor is the (N, rows, k) design. The regressors X_i come in two parts: the m
columns that vary by region (the lagged response and the exogenous
regressors), an (N, rows, m) array, and the year-dummy and ``const`` columns,
one (rows, k - m) matrix that every region shares. Z'X is formed one equation
row at a time, and the residual y - X theta and the scores Z_i'u_i one block
of ``_BLOCK_REGIONS`` regions at a time; a design without shared columns is
read as it is, for Z'X and the residual alike. Each instrument block's
values are written once, straight to their columns of the (N, cells) array.
So the fit holds O(N * (cells + rows * m + K) + cells^2 + _BLOCK_REGIONS *
(rows * k + cells)) numbers, where cells is about K plus rows times the
number of exogenous regressors, and the (N, cells) values are held at most
twice: as the blocks and as the array they are written to.

Each symmetric matrix of the fit is decomposed once, by ``np.linalg.eigh`` in
``symmetric_factor``: the one-step weight sum_i Z_i'H Z_i, the two-step score
covariance S1, and the system matrix A = Mzx'W Mzx of each step. Its
eigenvalues give the rank with ``np.linalg.matrix_rank``'s tolerance
n * eps * max|lambda|, which decides the pseudo-inverse fallback of a weight
and the singular-system error, and the eigenpairs kept by ``np.linalg.pinv``'s
cutoff 1e-15 * max|lambda|, which apply the (pseudo-)inverse. W itself is never
formed: only the K x k product W Mzx, which the sandwich reuses with A's
factor. ``hansen_j`` reads its J statistic from the same kind of factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (
    CONST,
    EstimationError,
    FitResult,
    RegressionSpec,
    lagged_name,
)
from .panel import Grid, PanelDataset


@dataclass(frozen=True)
class GmmOptions:
    """Instrument layout, weighting, and whether to fit year dummies.

    Differencing removes the region effects. With ``year_dummies`` each year
    that has a differenced equation gets a dummy, which instruments itself;
    without them, system GMM fits a level-equation ``const``. The other
    fields are the command line's GMM flags, with the same names and defaults.
    """

    min_lag: int = 2
    max_lag: int | None = None
    collapse: bool = False
    two_step: bool = False
    year_dummies: bool = False

    def __post_init__(self):
        if self.min_lag < 2:
            raise EstimationError("min_lag must be >= 2 for valid moment conditions")
        if self.max_lag is not None and self.max_lag < self.min_lag:
            raise EstimationError("max_lag must be >= min_lag")


@dataclass(frozen=True)
class InstrumentSet:
    """Any block of a fit's instruments, as one cell pattern shared by every
    region, with block-local columns and its own width ``n_columns``.

    Cell e holds ``values[:, e]`` at (equation row ``rows[e]``, column
    ``cols[e]``) of each region's block; every other entry is zero, and a
    column may hold no cell. Row p is the p-th differenced period, year index
    p + 2, and row P + p the level equation of that year in system GMM.
    """

    values: np.ndarray  # (N, cells)
    rows: np.ndarray    # (cells,)
    cols: np.ndarray    # (cells,) in [0, n_columns)
    n_columns: int


@dataclass(frozen=True)
class GmmInternals:
    """The per-region moments Z_i'u_i (N, K) at the final estimates, which the
    J test reads. The differenced residuals the AR tests read are the fit's
    ``residual_grid``, and the coefficient count is ``len(fit.coef_names)``."""

    scores: np.ndarray

    @property
    def n_instruments(self) -> int:
        return self.scores.shape[1]


_EPS = np.finfo(float).eps


def symmetric_factor(M: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """One eigendecomposition of the symmetric matrix M, read two ways.

    Returns the numerical rank of M with ``np.linalg.matrix_rank``'s tolerance
    (eigenvalues larger than n * eps * max|lambda| in size), and the
    eigenvectors V and eigenvalues lam that ``np.linalg.pinv``'s cutoff keeps
    (larger than 1e-15 * max|lambda| in size), so that pinv(M) is
    ``(V / lam) @ V.T``. When the rank is full every eigenpair is kept and
    that product is the inverse. The singular values of a symmetric matrix are
    the sizes of its eigenvalues, so both decisions are numpy's.
    """
    lam, V = np.linalg.eigh(M)
    size = np.abs(lam)
    top = size.max(initial=0.0)
    rank = int(np.count_nonzero(size > top * M.shape[0] * _EPS))
    kept = size > 1e-15 * top
    return rank, V[:, kept], lam[kept]


# regions per block of the residual y - X theta, whose dense (regions, rows, k)
# design is built one block at a time
_BLOCK_REGIONS = 256


@dataclass(frozen=True)
class _Design:
    """The regressors X_i (rows x k) of every region, in two parts: the first
    m columns vary by region, the other k - m are the same in every region.

    Matmul of a C-ordered (regions, rows, k) stack by a vector runs one product
    per region, so the residual of each block of regions has the bits of the
    product over the whole dense design.
    """

    varying: np.ndarray  # (N, rows, m)
    shared: np.ndarray   # (rows, k - m)

    def residual(self, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """y - X theta for y of shape (N, rows): from ``varying`` alone when
        there are no shared columns, else one block of regions at a time."""
        N, rows, m = self.varying.shape
        if not self.shared.shape[1]:
            return y - self.varying @ theta
        dense = np.empty((min(N, _BLOCK_REGIONS), rows, m + self.shared.shape[1]))
        dense[:, :, m:] = self.shared
        u = np.empty((N, rows))
        for lo in range(0, N, _BLOCK_REGIONS):
            hi = min(lo + _BLOCK_REGIONS, N)
            block = dense[:hi - lo]
            block[:, :, :m] = self.varying[lo:hi]
            u[lo:hi] = y[lo:hi] - block @ theta
        return u


def build_ab_instruments(
    panel: PanelDataset, response: str, options: GmmOptions
) -> InstrumentSet:
    """Lagged-level instrument blocks for the differenced equation, whose
    periods are the years 2..T-1 (0-based), and the one place that checks the
    response is available in every year, T >= 3 and the lag range is not empty.

    Period p (year p + 2) holds the levels of years p + 2 - s for s from
    ``min_lag`` to the cap, at most p + 2. Collapsing keeps these cells and
    only numbers them by lag distance, one column per s, not one per cell.
    """
    grid = panel.var(response)
    if not grid.available.all():
        raise EstimationError(f"response {response!r} must be fully available")
    y = grid.values
    T = y.shape[1]
    if T < 3:
        raise EstimationError("GMM needs T >= 3")
    s_max = (T - 1) if options.max_lag is None else min(options.max_lag, T - 1)
    cells = [(p, s) for p in range(T - 2)
             for s in range(options.min_lag, min(s_max, p + 2) + 1)]
    if not cells:
        raise EstimationError("no usable instruments for the given lag range")
    rows, lags = np.array(cells, dtype=np.intp).T
    if options.collapse:
        cols, n_columns = lags - options.min_lag, s_max - options.min_lag + 1
    else:
        cols, n_columns = np.arange(len(cells)), len(cells)
    return InstrumentSet(y[:, rows + 2 - lags], rows, cols, n_columns)


class _Instruments:
    """The stacked instrument matrices Z_i of one fit, as cells shared by
    every region: cell e holds ``values[:, e]`` at (``rows[e]``, ``cols[e]``).
    The blocks' columns are placed side by side in block order."""

    def __init__(self, blocks: list[InstrumentSet], n_rows: int):
        col0 = np.cumsum([0, *(b.n_columns for b in blocks)])
        rows = np.concatenate([b.rows for b in blocks])
        cols = np.concatenate([b.cols + c for b, c in zip(blocks, col0)])
        order = np.lexsort((rows, cols))  # each column contiguous, for reduceat
        self.rows, self.cols = rows[order], cols[order]
        # each block's cells go straight to their places in column order; each
        # cell's values are contiguous (Fortran order), as a column gather's are
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        self.values = np.empty((blocks[0].values.shape[0], order.size), order="F")
        for b, lo in zip(blocks, np.cumsum([0, *(b.rows.size for b in blocks)])):
            self.values[:, place[lo:lo + b.rows.size]] = b.values
        self.n_columns = int(col0[-1])
        self._row_cells = [np.flatnonzero(self.rows == r) for r in range(n_rows)]
        # a column of one cell is a copy of it (every uncollapsed lag column);
        # the cells of the others are gathered and summed as reduceat segments
        starts = np.flatnonzero(np.diff(self.cols, prepend=-1))
        sizes = np.diff(starts, append=self.cols.size)
        one = sizes == 1
        self._single_cells = starts[one]
        self._single_cols = self.cols[self._single_cells]
        self._multi_cells = np.flatnonzero(np.repeat(~one, sizes))
        self._multi_starts = np.cumsum(sizes[~one]) - sizes[~one]
        self._multi_cols = self.cols[starts[~one]]

    def _to_columns(self, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sum the last (cell) axis of W into instrument columns, written to
        ``out`` if given, whose columns that hold no cell must be zero."""
        if out is None:
            out = np.zeros(W.shape[:-1] + (self.n_columns,))
        out[..., self._single_cols] = W[..., self._single_cells]
        out[..., self._multi_cols] = np.add.reduceat(
            W[..., self._multi_cells], self._multi_starts, axis=-1
        )
        return out

    def scores(self, u: np.ndarray) -> np.ndarray:
        """(N, K) per-region Z_i'u_i for residuals u of shape (N, rows), one
        block of ``_BLOCK_REGIONS`` regions at a time; a region's sums do not
        depend on the block it is in."""
        out = np.zeros((u.shape[0], self.n_columns))
        for lo in range(0, u.shape[0], _BLOCK_REGIONS):
            block = slice(lo, lo + _BLOCK_REGIONS)
            W = u[block, self.rows]
            W *= self.values[block]
            self._to_columns(W, out[block])
        return out

    def cross(self, X: _Design) -> np.ndarray:
        """sum_i Z_i'X_i: one product per row, with that row's (N, k)
        regressors read from ``varying`` when the design has no shared
        columns, and otherwise filled from both parts of the design."""
        (N, rows, m), k = X.varying.shape, X.varying.shape[2] + X.shared.shape[1]
        G = np.empty((self.values.shape[1], k))
        if k > m:
            # the buffer is strided like a row of the dense (N, rows, k)
            # design, and contiguous like it when rows == 1: for a row of one
            # cell matmul runs a BLAS dot or gemv, whose bits depend on that
            # contiguity
            row = np.empty((N, k + (rows > 1)))[:, :k]
        for r, cells in enumerate(self._row_cells):
            operand = X.varying[:, r]
            if k > m:
                row[:, :m] = operand
                row[:, m:] = X.shared[r]
                operand = row
            G[cells] = self.values[:, cells].T @ operand
        return self._to_columns(G.T).T

    def gram(self, H: np.ndarray) -> np.ndarray:
        """sum_i Z_i'H Z_i for a (rows, rows) matrix H."""
        G = (self.values.T @ self.values) * H[np.ix_(self.rows, self.rows)]
        return self._to_columns(self._to_columns(G).T)


def _fit_gmm(
    panel: PanelDataset, spec: RegressionSpec, options: GmmOptions, level: bool
) -> FitResult:
    if CONST in spec.regressors:
        raise EstimationError("const is absorbed by the fixed effects")
    response = spec.response
    lag_name = lagged_name(response)
    exog = tuple(r for r in spec.regressors if r != lag_name)
    ab = build_ab_instruments(panel, response, options)
    y = panel.var(response).values
    N, T = y.shape
    P = T - 2  # the differenced periods are the years 2..T-1

    coef_names = [lag_name, *exog]
    dummy_years = range(2, T) if options.year_dummies else []
    coef_names += [f"year_{panel.years[t]}" for t in dummy_years]
    # with year dummies the level-equation intercepts are already spanned
    include_const = level and not options.year_dummies
    if include_const:
        coef_names.append(CONST)
    k = len(coef_names)

    # level regressors in coefficient order, year 0 never read: the lagged
    # response and the exogenous regressors vary by region, the year dummies
    # and const do not
    m = 1 + len(exog)
    varying = np.zeros((N, T, m))
    varying[:, 1:, 0] = y[:, :-1]
    for j, name in enumerate(exog, start=1):
        g = panel.var(name)
        # the first differenced equation also reads the year before it
        if not g.available[1:].all():
            raise EstimationError(f"regressor {name!r} unavailable in estimation years")
        varying[:, :, j] = g.values
    shared = np.zeros((T, k - m))
    for d, t in enumerate(dummy_years):
        shared[t, d] = 1.0
    if include_const:
        shared[:, -1] = 1.0
    # differenced equations at the periods, from the same regressors
    Xd = _Design(varying[:, 2:] - varying[:, 1:-1], shared[2:] - shared[1:-1])
    yd = y[:, 2:] - y[:, 1:-1]

    if not level:
        rows = P
        X, y_all = Xd, yd
    else:
        rows = 2 * P
        # level-equation rows share the coefficient vector
        X = _Design(np.concatenate([Xd.varying, varying[:, 2:]], axis=1),
                    np.concatenate([Xd.shared, shared[2:]]))
        y_all = np.concatenate([yd, y[:, 2:]], axis=1)

    def own_rows(lo, hi, n_shared):
        # the exogenous regressors and the first n_shared shared columns as
        # instruments of rows lo..hi-1, at their non-zero cells; a part
        # without columns adds no block
        blocks = []
        if m > 1:
            exo = X.varying[:, lo:hi, 1:]
            r, j = np.nonzero(np.any(exo != 0, axis=0))
            blocks.append(InstrumentSet(exo[:, r, j], lo + r, j, m - 1))
        if n_shared:
            r, j = np.nonzero(X.shared[lo:hi, :n_shared])
            blocks.append(InstrumentSet(np.broadcast_to(X.shared[lo + r, j], (N, r.size)),
                                        lo + r, j, n_shared))
        return blocks

    # column order: lag levels, differenced exogenous, [lagged differences, level exogenous]
    blocks = [ab, *own_rows(0, P, len(dummy_years))]
    del ab
    if level:
        lev_cols = np.zeros(P, dtype=np.intp) if options.collapse else np.arange(P)
        blocks.append(InstrumentSet(Xd.varying[:, :, 0], P + np.arange(P), lev_cols,
                                    1 if options.collapse else P))
        # exogenous regressors, dummies and const instrument themselves
        blocks += own_rows(P, rows, k - m)
    Z = _Instruments(blocks, rows)
    del blocks
    K = Z.n_columns

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

    Mzx = Z.cross(X)
    mzy = Z.cross(_Design(y_all[:, :, None], np.empty((rows, 0))))[:, 0]

    def solve(M):
        # the weights W = pinv(M) = V diag(1/lam) V' stay factored: only the
        # K x k product W Mzx is formed
        rank, V, lam = symmetric_factor(M)
        if rank < M.shape[0]:
            warnings.append("singular weighting matrix: pseudo-inverse fallback")
        WM = V @ ((V.T @ Mzx) / lam[:, None])
        rank, VA, lamA = symmetric_factor(Mzx.T @ WM)
        if rank < k:
            raise EstimationError("GMM system matrix is singular")
        Ainv = (VA / lamA) @ VA.T
        return Ainv @ (WM.T @ mzy), WM, Ainv

    theta, WM, Ainv = solve(Z.gram(H))
    u = X.residual(y_all, theta)
    if options.two_step:
        zu = Z.scores(u)
        S1 = zu.T @ zu
        del zu
        # the largest |value|, without an (N, cells) array of sizes
        top = max(float(Z.values.max()), -float(Z.values.min()))
        if np.trace(S1) <= 1e-12 * max(1.0, top) ** 2:
            warnings.append(
                "degenerate first-step residuals: kept one-step weighting"
            )
        else:
            theta, WM, Ainv = solve(S1)
            u = X.residual(y_all, theta)

    # clustered GMM sandwich A^-1 B A^-1, with B = (W Mzx)' S (W Mzx) and S = zu'zu
    if N < 2:
        raise EstimationError("clustered GMM covariance needs at least 2 regions")
    zu = Z.scores(u)
    C = (zu @ WM) @ Ainv
    vcov = (N / (N - 1)) * C.T @ C
    vcov = 0.5 * (vcov + vcov.T)

    return FitResult(
        estimator_tag="sys_gmm" if level else "diff_gmm",
        coef_names=tuple(coef_names),
        coefficients=dict(zip(coef_names, theta.tolist())),
        vcov=vcov,
        n_obs=N * rows,
        # the differenced-equation residuals, at their periods
        residual_grid=Grid.at_years(u[:, :P], np.arange(T) >= 2),
        warnings=tuple(warnings),
        gmm=GmmInternals(zu),
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
