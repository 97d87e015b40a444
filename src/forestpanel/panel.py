"""Balanced region-by-year panel data model and deterministic transformations.

The panel is the currency every other module trades in: a set of named
N x T variable grids over the same ordered regions and consecutive years.
A balanced panel can only lack whole years, so each grid flags its available
years. Derived grids (lags, interactions) clear the years they cannot fill,
and invalid cells can never leak into an estimation sample. ``build_panel``
is the one panel builder: it balances a block of (region, year) rows, which
the panel CSV loader reads and checks for repeated pairs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np


class PanelError(ValueError):
    """Invalid panel construction or transformation."""


@dataclass(frozen=True)
class Grid:
    """An N x T grid of values with one availability flag per year column.

    The years with ``available == False`` hold placeholder values in every
    region and must be dropped (never imputed) by any consumer.
    """

    values: np.ndarray
    available: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        available = np.asarray(self.available, dtype=bool)
        if values.ndim != 2:
            raise PanelError("grid values must be a 2-D (region x year) array")
        if available.shape != values.shape[1:]:
            raise PanelError("grid availability needs one flag per year column")
        # a full grid is checked in place: indexing by an all-True mask copies it
        finite = np.isfinite(values if available.all() else values[:, available])
        if not finite.all():
            raise PanelError("grid contains non-finite values in available cells")
        values = values.copy()
        available = available.copy()
        values.setflags(write=False)
        available.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "available", available)

    @classmethod
    def full(cls, values) -> "Grid":
        values = np.asarray(values, dtype=float)
        return cls(values, np.ones(values.shape[1:], dtype=bool))

    @classmethod
    def at_years(cls, columns, available) -> "Grid":
        """The grid holding the N x Ts ``columns`` at the Ts years flagged in
        ``available``; the other years hold zeros."""
        values = np.zeros((len(columns), len(available)))
        values[:, available] = columns
        return cls(values, available)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class PanelDataset:
    """Immutable balanced panel: ordered regions, consecutive years, named grids."""

    regions: tuple[str, ...]
    years: tuple[int, ...]
    variables: Mapping[str, Grid] = field(default_factory=dict)

    def __post_init__(self):
        regions = tuple(map(str, self.regions))
        years = tuple(int(y) for y in self.years)
        if len(set(regions)) != len(regions):
            raise PanelError("region identifiers must be unique")
        if not regions or not years:
            raise PanelError("panel needs at least one region and one year")
        if any(b - a != 1 for a, b in zip(years, years[1:])):
            raise PanelError("years must be strictly consecutive integers")
        variables = dict(self.variables)
        for name, grid in variables.items():
            _check_shape(name, grid, (len(regions), len(years)))
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "variables", MappingProxyType(variables))

    @property
    def N(self) -> int:
        return len(self.regions)

    @property
    def T(self) -> int:
        return len(self.years)

    def var(self, name: str) -> Grid:
        try:
            return self.variables[name]
        except KeyError:
            raise PanelError(f"unknown variable {name!r}") from None

    def with_variable(self, name: str, grid: Grid) -> "PanelDataset":
        """Return a new panel with one extra variable. Names are write-once.

        The regions, years and grids it inherits were checked when this panel
        was made, so only the new grid's shape is checked.
        """
        if name in self.variables:
            raise PanelError(f"variable {name!r} already exists (write-once)")
        _check_shape(name, grid, (self.N, self.T))
        panel = object.__new__(PanelDataset)
        object.__setattr__(panel, "regions", self.regions)
        object.__setattr__(panel, "years", self.years)
        object.__setattr__(panel, "variables", MappingProxyType({**self.variables, name: grid}))
        return panel


def _check_shape(name: str, grid: Grid, shape: tuple[int, int]) -> None:
    if grid.shape != shape:
        raise PanelError(f"variable {name!r} has shape {grid.shape}, expected {shape}")


def check_codes(what: str, codes: np.ndarray, stop: int, error=PanelError, start: int = 0) -> None:
    """Raise ``error`` naming a code of ``codes`` outside [start, stop): the
    least one if it lies below, else the greatest."""
    if len(codes):
        for code in (int(codes.min()), int(codes.max())):
            if not start <= code < stop:
                raise error(f"{what} {code} outside [{start}, {stop})")


def build_panel(
    regions: tuple[str, ...],
    names: tuple[str, ...],
    region_code: np.ndarray,
    years: np.ndarray,
    values: np.ndarray,
) -> tuple[PanelDataset, list[str]]:
    """The balanced panel of a block of (region, year) rows.

    Row c of the (rows, V) block ``values`` holds the variables ``names`` of
    region ``regions[region_code[c]]`` in year ``years[c]``. No (region, year)
    pair may repeat; the caller checks that. A code outside the labels is a
    ``PanelError``. Variables keep the order given, and regions come in
    sorted label order, so the panel, and every fit and file made of it,
    depends on the set of rows and not on their order. The panel spans the
    observed years, and a region without a row in every year of the span is
    dropped. Returns the panel together with the list of dropped regions, in
    label order too. Each variable's grid is filled straight from its column
    of the block, one variable at a time. The panel CSV loader builds its
    panel here.
    """
    if not len(years):
        raise PanelError("no input rows")
    check_codes("region code", region_code, len(regions))
    first_year = int(years.min())
    span = tuple(range(first_year, int(years.max()) + 1))
    T = len(span)
    # rows are distinct and inside the span, so a region is complete iff it has T rows
    complete = np.bincount(region_code, minlength=len(regions)) == T
    by_label = sorted(range(len(regions)), key=regions.__getitem__)
    ok = complete.tolist()
    kept = [regions[c] for c in by_label if ok[c]]
    dropped = [regions[c] for c in by_label if not ok[c]]
    if not kept:
        raise PanelError("no region has a complete year series over the observed span")

    # each code's rank among the kept regions in label order, and each row's
    # position in the flat (kept region, year) order
    kept_row = np.empty(len(regions), dtype=np.intp)
    kept_row[by_label] = np.cumsum(complete[by_label]) - 1
    cell = kept_row[region_code]
    cell *= T
    cell += years
    cell -= first_year
    if len(kept) < len(regions):
        take = complete[region_code]
        cell, values = cell[take], values[take]
    variables = {}
    for k, name in enumerate(names):
        grid = np.empty((len(kept), T))
        grid.ravel()[cell] = values[:, k]
        variables[name] = Grid.full(grid)
    return PanelDataset(tuple(kept), span, variables), dropped


def region_year_rows(regions, years, columns) -> Iterator[str]:
    """The CSV text of the ``region,year,value,...`` rows of the N x T ``columns``,
    one string per region.

    Rows come region by region, each region's years in order, and end in
    ``\\r\\n`` as ``csv.writer``'s do. A value is written as its ``repr``, the
    shortest text that reads back to the same double, so written values
    round-trip bit for bit; such a text and a year never need quoting. The
    region label is quoted once per region, by ``csv.writer``. A region's values
    are formatted only when its string is reached, so no text of every row is
    held.
    """
    row = ",{}" + ",{!r}" * len(columns) + "\r\n"
    for region, *values in zip(regions, *columns):
        # the label is literal text of the row template, so its braces are doubled
        label = _csv_field(region).replace("{", "{{").replace("}", "}}")
        yield "".join(map((label + row).format, years, *(v.tolist() for v in values)))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    buffer = io.StringIO()
    # a second, empty field keeps a lone empty label unquoted; the writer's own
    # line terminator decides whether a label with a line break is quoted
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[:-3]  # drop ",\r\n"


# ---------------------------------------------------------------------------
# transformations

def log1(x):
    """Natural log of (x + 1); defined for x >= 0 so zero maps to zero."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise PanelError("log1 requires nonnegative input")
    return np.log1p(arr)


def log1_grid(panel: PanelDataset, var: str) -> Grid:
    grid = panel.var(var)
    values = grid.values.copy()
    values[:, grid.available] = log1(values[:, grid.available])
    return Grid(values, grid.available)


def demean_twoway_values(values: np.ndarray) -> np.ndarray:
    """x_it - xbar_i - xbar_t + xbar, exact for balanced grids."""
    values = np.asarray(values, dtype=float)
    return (
        values
        - values.mean(axis=1, keepdims=True)
        - values.mean(axis=0, keepdims=True)
        + values.mean()
    )


def lag(panel: PanelDataset, var: str, k: int = 1) -> Grid:
    """Shift a variable k years back; the first k years are flagged unavailable."""
    if k < 1:
        raise PanelError("lag order must be >= 1")
    if k >= panel.T:
        raise PanelError(f"lag order {k} >= panel length T={panel.T}")
    grid = panel.var(var)
    values = np.zeros_like(grid.values)
    available = np.zeros_like(grid.available)
    values[:, k:] = grid.values[:, :-k]
    available[k:] = grid.available[:-k]
    return Grid(values, available)


def interact(panel: PanelDataset, var_a: str, var_b: str) -> Grid:
    """Cellwise product; availability is the intersection of both inputs."""
    a, b = panel.var(var_a), panel.var(var_b)
    available = a.available & b.available
    values = np.where(available, a.values * b.values, 0.0)
    return Grid(values, available)

