"""Data ingestion: panel CSV loading, pixel-grid aggregation, summary statistics.

Pixel grids stand in for classified satellite rasters: each pixel carries a
region id, biomass carbon density, area, and canopy density, plus a set of
(pixel, year) loss events. Zonal aggregation turns those into the panel's
loss-area and emission variables.

A ``PixelGrid`` is built one way, from columns: the CSV loader and the
simulator pass one list or array per attribute, and ``filter_canopy`` and the
aggregations work on those columns. One vectorised rule, ``_first_bad_pixel``,
decides which pixel values are valid, for the constructor and for the
loader's line-numbered errors alike.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .panel import Grid, PanelDataset, PanelError, build_panel

# CO2/C molecular mass ratio; the conventional carbon-to-CO2e factor.
DEFAULT_THETA = 44.0 / 12.0


class LoadError(ValueError):
    """Malformed input file."""


class Pixel(NamedTuple):
    """One row of ``PixelGrid.pixels``; the grid validates its columns, not this."""

    pixel_id: str
    region: str
    biomass_density: float  # Mg C per hectare
    pixel_area: float       # hectares
    canopy_density: float   # percent, 0..100


def _first_bad_pixel(ids, biomass, area, canopy) -> tuple[int, str] | None:
    """The first row that breaks a pixel rule, with its message; None if none does.

    Within a row the rules are checked in the order listed. NaN fails every
    comparison, so only the non-finite rules name it.
    """
    rules = (
        (~np.isfinite(biomass), "non-finite biomass density"),
        (~np.isfinite(area), "non-finite area"),
        (~np.isfinite(canopy), "non-finite canopy density"),
        (biomass < 0, "negative biomass density"),
        (area <= 0, "nonpositive area"),
        ((canopy < 0) | (canopy > 100), "canopy density outside [0, 100]"),
    )
    broken = np.vstack([mask for mask, _ in rules])
    bad = broken.any(axis=0)
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, f"pixel {ids[row]}: {rules[int(np.argmax(broken[:, row]))][1]}"


class PixelGrid:
    """Pixels plus the set of (pixel_id, year) loss events, stored as columns.

    ``PixelGrid(pixel_ids, regions, biomass, area, canopy, loss_events)`` takes
    one entry per pixel in each column (its id, its region label, biomass
    carbon density in Mg C/ha, area in hectares, canopy density in percent)
    and any iterable of (pixel_id, year) loss events. It raises ``LoadError``
    for the first pixel with a non-finite attribute, negative biomass,
    nonpositive area or canopy outside [0, 100], for a repeated pixel id, and
    for an event naming an unknown pixel or a pixel lost twice. Exact repeats
    of an event collapse, as in a set.

    Stored: ``pixel_ids`` (object array of str), ``region_code`` (index into
    ``regions``, the regions in first-seen pixel order), and the float arrays
    ``biomass``, ``area`` and ``canopy``. Loss events are two parallel arrays,
    ``event_pixel`` (a pixel row) and ``event_year``, sorted once by
    (pixel_id, year). Aggregates sum in that order, so results are
    bit-identical across runs and across the CSV round trip. Every column is
    read-only, and a grid is not hashable. A float64 array passed in is kept
    as the column, not copied, so it becomes read-only too.

    ``pixels`` and ``loss_events`` are object views rebuilt from the columns
    on every access.
    """

    def __init__(self, pixel_ids: Sequence[str], regions: Sequence[str], biomass, area, canopy,
                 loss_events: Iterable[tuple[str, int]]):
        biomass, area, canopy = (np.asarray(c, dtype=float) for c in (biomass, area, canopy))
        if not len(pixel_ids) == len(regions) == len(biomass) == len(area) == len(canopy):
            raise LoadError("pixel columns differ in length")
        fault = _first_bad_pixel(pixel_ids, biomass, area, canopy)
        if fault is not None:
            raise LoadError(fault[1])
        row_of = dict(zip(pixel_ids, range(len(pixel_ids))))
        if len(row_of) != len(pixel_ids):
            raise LoadError("duplicate pixel ids")
        # sorted, with exact repeats dropped as from a set
        events = list(dict.fromkeys(sorted(loss_events)))
        event_pixel = np.fromiter(
            map(row_of.get, map(itemgetter(0), events), repeat(-1)), dtype=np.intp, count=len(events)
        )
        bad = event_pixel < 0
        bad[1:] |= event_pixel[1:] == event_pixel[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            pixel_id = events[i][0]
            if event_pixel[i] < 0:
                raise LoadError(f"loss event references unknown pixel {pixel_id!r}")
            raise LoadError(f"pixel {pixel_id!r} lost more than once")
        code_of = {r: i for i, r in enumerate(dict.fromkeys(regions))}
        self._store(
            np.array(pixel_ids, dtype=object),
            tuple(code_of),
            np.fromiter(map(code_of.__getitem__, regions), dtype=np.intp, count=len(regions)),
            biomass, area, canopy,
            event_pixel,
            np.fromiter(map(itemgetter(1), events), dtype=np.int64, count=len(events)),
        )

    def _store(self, pixel_ids, regions, region_code, biomass, area, canopy,
               event_pixel, event_year) -> None:
        self.regions: tuple[str, ...] = regions
        for name, column in (
            ("pixel_ids", pixel_ids), ("region_code", region_code), ("biomass", biomass),
            ("area", area), ("canopy", canopy), ("event_pixel", event_pixel),
            ("event_year", event_year),
        ):
            column.setflags(write=False)
            setattr(self, name, column)

    def _subset(self, keep: np.ndarray) -> "PixelGrid":
        """The pixels where the boolean row mask ``keep`` holds, with their events."""
        codes = self.region_code[keep]
        present, first = np.unique(codes, return_index=True)
        order = present[np.argsort(first)]  # first-seen order among kept pixels
        recode = np.empty(len(self.regions), dtype=np.intp)
        recode[order] = np.arange(order.size)
        new_row = np.cumsum(keep) - 1
        kept_events = keep[self.event_pixel]
        grid = PixelGrid.__new__(PixelGrid)
        grid._store(
            self.pixel_ids[keep],
            tuple(self.regions[c] for c in order),
            recode[codes],
            self.biomass[keep], self.area[keep], self.canopy[keep],
            new_row[self.event_pixel[kept_events]],
            self.event_year[kept_events],
        )
        return grid

    @property
    def pixels(self) -> tuple[Pixel, ...]:
        return tuple(map(
            Pixel,
            self.pixel_ids.tolist(),
            [self.regions[c] for c in self.region_code.tolist()],
            self.biomass.tolist(), self.area.tolist(), self.canopy.tolist(),
        ))

    @property
    def loss_events(self) -> frozenset[tuple[str, int]]:
        return frozenset(zip(self.pixel_ids[self.event_pixel].tolist(), self.event_year.tolist()))

    def __eq__(self, other):
        if not isinstance(other, PixelGrid):
            return NotImplemented
        return self.regions == other.regions and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("pixel_ids", "region_code", "biomass", "area", "canopy",
                         "event_pixel", "event_year")
        )

    __hash__ = None  # nothing hashes a grid; a hash would have to build both views

    def __repr__(self):
        return (f"PixelGrid({len(self.pixel_ids)} pixels, {len(self.event_pixel)} loss events, "
                f"{len(self.regions)} regions)")


@dataclass(frozen=True)
class EmissionFactors:
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.theta <= 0:
            raise LoadError("theta must be positive")


def filter_canopy(grid: PixelGrid, threshold: float) -> PixelGrid:
    """Keep pixels with canopy density >= threshold (inclusive boundary)."""
    if not 0 <= threshold <= 100:
        raise LoadError("canopy threshold must lie in [0, 100]")
    return grid._subset(grid.canopy >= threshold)


def _aggregate(grid: PixelGrid, years: Sequence[int], per_pixel: dict[str, np.ndarray]) -> PanelDataset:
    """Sum each per-pixel weight over the loss events into a region x year grid.

    One ``np.bincount`` per variable over the (region, year) cell index.
    bincount adds weights in input order, so every cell is summed in the
    grid's fixed (pixel_id, year) event order.
    """
    if len(grid.pixel_ids) == 0:
        raise LoadError("empty pixel grid")
    span = PanelDataset(grid.regions, tuple(int(y) for y in years))  # validates the years
    N, T = span.N, span.T
    col = grid.event_year - span.years[0]
    counted = (col >= 0) & (col < T)
    rows = grid.event_pixel[counted]
    cell = grid.region_code[rows] * T + col[counted]
    variables = {
        name: Grid.full(np.bincount(cell, weights=weight[rows], minlength=N * T).reshape(N, T))
        for name, weight in per_pixel.items()
    }
    return PanelDataset(span.regions, span.years, variables)


def _carbon_mass(grid: PixelGrid, factors: EmissionFactors) -> np.ndarray:
    """Per-pixel emissions if lost: biomass x area x theta, in that order."""
    return grid.biomass * grid.area * factors.theta


def aggregate_loss(grid: PixelGrid, years: Sequence[int]) -> PanelDataset:
    """Annual loss area per region (hectares); zero where nothing was lost."""
    return _aggregate(grid, years, {"value": grid.area})


def aggregate_emissions(
    grid: PixelGrid, factors: EmissionFactors, years: Sequence[int]
) -> PanelDataset:
    """Annual emissions per region: sum of lost-pixel carbon mass times theta."""
    return _aggregate(grid, years, {"value": _carbon_mass(grid, factors)})


def pixel_panel(
    grid: PixelGrid,
    factors: EmissionFactors,
    years: Sequence[int],
    loss_name: str = "L",
    emissions_name: str = "E",
) -> PanelDataset:
    """Loss and emission variables aggregated into one panel."""
    return _aggregate(grid, years, {
        loss_name: grid.area,
        emissions_name: _carbon_mass(grid, factors),
    })


# ---------------------------------------------------------------------------
# CSV interfaces

def _bounded_year(year: int, what: str) -> int:
    """``year``, or a ValueError naming it ``what`` if it is outside 1000-9999."""
    if not 1000 <= year <= 9999:
        raise ValueError(f"{what} {year} outside 1000-9999")
    return year


def load_panel_csv(path) -> tuple[PanelDataset, list[str]]:
    """Load a `region,year,<var>,...` CSV into a balanced panel.

    Returns the panel and the list of regions dropped for incompleteness.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "region" or header[1] != "year":
            raise LoadError(f"{path}: header must start with 'region,year,'")
        var_names = header[2:]
        rows: list[tuple[str, int, str, float]] = []
        seen: set[tuple[str, int]] = set()
        for record in reader:
            if not record:
                continue
            lineno = reader.line_num  # a quoted field may span lines
            if len(record) != len(header):
                raise LoadError(f"{path}:{lineno}: expected {len(header)} fields")
            region = record[0]
            try:
                year = int(record[1])
            except ValueError:
                raise LoadError(f"{path}:{lineno}: bad year {record[1]!r}") from None
            try:
                _bounded_year(year, "year")
            except ValueError as exc:
                raise LoadError(f"{path}:{lineno}: {exc}") from None
            if (region, year) in seen:
                raise LoadError(f"{path}:{lineno}: duplicate row for ({region}, {year})")
            seen.add((region, year))
            for name, text in zip(var_names, record[2:]):
                try:
                    value = float(text)
                except ValueError:
                    raise LoadError(
                        f"{path}:{lineno}: malformed number {text!r} for {name}"
                    ) from None
                rows.append((region, year, name, value))
    try:
        return build_panel(rows)
    except PanelError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Write a fully available panel back to the `region,year,...` layout."""
    names = list(panel.variables)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["region", "year"] + names)
        for i, region in enumerate(panel.regions):
            for j, year in enumerate(panel.years):
                row = [region, year]
                for name in names:
                    grid = panel.variables[name]
                    if not grid.available[i, j]:
                        raise LoadError(
                            f"variable {name!r} unavailable at ({region}, {year})"
                        )
                    row.append(repr(float(grid.values[i, j])))
                writer.writerow(row)


def _convert_prefix(texts: list[str], convert) -> tuple[list, ValueError | None]:
    """Convert texts up to the first failure; return the values and that error."""
    values: list = []
    try:
        values.extend(map(convert, texts))  # keeps the items converted before a failure
    except ValueError as exc:
        return values, exc
    return values, None


def _file_line(path, row: int) -> int:
    """The file line of data row ``row`` (0-based, blank lines not rows)."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)  # the header
        for _ in islice(filter(None, reader), row + 1):
            pass
        return reader.line_num


def _read_columns(path, converters: dict) -> tuple[list[list], LoadError | None]:
    """Parse the named columns of a CSV file, one list per column.

    ``converters`` maps each required header name to the function that parses
    its fields. Rows are read up to the first one that is too short or fails a
    conversion; the columns returned all stop there, together with the error
    naming that row's ``path:line`` (None if every row parsed). The caller
    raises it unless it finds an earlier bad row. Blank lines are skipped as
    rows but counted as lines, and a repeated header name means its last
    column, as with ``csv.DictReader``.
    """
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or not set(converters) <= set(header):
            raise LoadError(f"{path}: header must contain {sorted(converters)}")
        rows = list(filter(None, reader))
    position = {name: i for i, name in enumerate(header)}
    index = [position[name] for name in converters]
    width = max(index) + 1
    stop, message = len(rows), None
    lengths = list(map(len, rows))
    if lengths and min(lengths) < width:
        stop = next(i for i, n in enumerate(lengths) if n < width)
        message = f"expected at least {width} fields, got {lengths[stop]}"
    columns = []
    for i, convert in zip(index, converters.values()):
        # a later column takes over only at an earlier row, as fields parse left to right
        values, exc = _convert_prefix(list(map(itemgetter(i), rows[:stop])), convert)
        if exc is not None:
            stop, message = len(values), str(exc)
        columns.append(values)
    # only a file that failed is read again, to find the line of its bad row
    error = None if message is None else LoadError(f"{path}:{_file_line(path, stop)}: {message}")
    return [column[:stop] for column in columns], error


def _event_year(text: str) -> int:
    return _bounded_year(int(text), "event year")


def load_pixel_grid_csv(pixels_path, events_path) -> PixelGrid:
    """Load the `pixels.csv` / `loss_events.csv` pair."""
    (ids, regions, *attributes), error = _read_columns(
        pixels_path,
        {"pixel": str, "region": str, "biomass": float, "area": float, "canopy": float},
    )
    biomass, area, canopy = (np.array(a, dtype=float) for a in attributes)
    fault = _first_bad_pixel(ids, biomass, area, canopy)
    if fault is not None:  # checked first: a bad value may sit above the row that failed to parse
        row, message = fault
        raise LoadError(f"{pixels_path}:{_file_line(pixels_path, row)}: {message}")
    if error is not None:
        raise error
    (event_ids, event_years), error = _read_columns(events_path, {"pixel": str, "year": _event_year})
    if error is not None:
        raise error
    return PixelGrid(ids, regions, biomass, area, canopy, zip(event_ids, event_years))


def write_pixel_grid_csv(grid: PixelGrid, pixels_path, events_path) -> None:
    with Path(pixels_path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pixel", "region", "biomass", "area", "canopy"])
        writer.writerows(zip(
            grid.pixel_ids.tolist(),
            [grid.regions[c] for c in grid.region_code.tolist()],
            map(repr, grid.biomass.tolist()),
            map(repr, grid.area.tolist()),
            map(repr, grid.canopy.tolist()),
        ))
    with Path(events_path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pixel", "year"])
        writer.writerows(zip(grid.pixel_ids[grid.event_pixel].tolist(), grid.event_year.tolist()))


# ---------------------------------------------------------------------------
# summary statistics

def summary_stats(panel: PanelDataset, var: str) -> dict[str, float]:
    """Mean/std/min/median/max over all available cells of one variable."""
    grid = panel.var(var)
    x = grid.values[grid.available]
    return {
        "mean": float(np.mean(x)),
        "std": float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
        "min": float(np.min(x)),
        "median": float(np.median(x)),
        "max": float(np.max(x)),
    }
