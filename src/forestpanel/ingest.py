"""Data ingestion: panel CSV loading, pixel-grid aggregation, summary statistics.

Pixel grids stand in for classified satellite rasters: each pixel carries a
region id, biomass carbon density, area, and canopy density, plus a set of
(pixel, year) loss events. Zonal aggregation, ``pixel_panel``, turns those
into the panel's loss-area and emission variables ``L`` and ``E``.

A ``PixelGrid`` holds columns: the CSV loader and the simulator pass its
constructor one list or array per attribute, ``filter_canopy`` takes rows of
a built grid past the constructor (``_subset``), and ``pixel_panel`` works on
the columns. One vectorised rule, ``_first_bad_pixel``, decides which pixel
values are valid, for the constructor and for the loader's line-numbered
errors alike.

Both CSV loaders read a file in blocks of a few thousand lines, through one
block reader, ``_column_blocks``. Each block's fields become float64, int64
or object arrays at once, and the block's text is dropped before the next
block is read, except the fields kept as text: pixel ids and region labels.
A block is parsed by numpy's C reader, ``np.loadtxt``, when it is ASCII and
holds no quote, no U+001C-U+001F separator, no NUL and no line longer than
the csv module's field limit. A block that fails those screens, or that
numpy rejects or warns about, and the rest of the file go through
``csv.reader`` and Python's ``float`` and ``int``, which alone decide whether
the file converts. A year column's range rule is checked on each block. The
block pass only asks whether a file is valid. A file that is not is read a
second time, row by row, by ``_first_fault``, with the loader's per-row
rule, to name its first bad row's ``path:line``. The panel writer formats
one region's rows at a time.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .panel import Grid, PanelDataset, PanelError, panel_from_cells, region_year_rows

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


# one loss event as the constructor reads it
_EVENT = np.dtype([("pixel", object), ("year", np.int64)])


class PixelGrid:
    """Pixels plus the set of (pixel_id, year) loss events, stored as columns.

    ``PixelGrid(pixel_ids, regions, biomass, area, canopy, loss_events)`` takes
    one entry per pixel in each column (its id, its region label, biomass
    carbon density in Mg C/ha, area in hectares, canopy density in percent)
    and any iterable of (pixel_id, year) loss-event tuples. It raises ``LoadError``
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
    read-only, and a grid is not hashable. A float64 array, or an object array
    of pixel ids, passed in is kept as the column, not copied, so it becomes
    read-only too.

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
        pixel_ids = np.asarray(pixel_ids, dtype=object)
        ids = pixel_ids.tolist()
        row_of = dict(zip(ids, range(len(ids))))
        if len(row_of) != len(ids):
            raise LoadError("duplicate pixel ids")
        events = np.fromiter(loss_events, dtype=_EVENT)
        event_pixel = np.fromiter(map(row_of.get, events["pixel"], repeat(-1)),
                                  dtype=np.intp, count=len(events))
        del row_of
        unknown = event_pixel < 0
        event_pixel, event_year = event_pixel[~unknown], events["year"][~unknown]
        # the rank of each lost pixel's id among the lost pixels' ids
        lost = np.unique(event_pixel)
        id_rank = np.empty(len(ids), dtype=np.intp)
        id_rank[sorted(lost.tolist(), key=ids.__getitem__)] = np.arange(len(lost))
        # sorted by (pixel_id, year), with exact repeats dropped as from a set
        order = np.lexsort((event_year, id_rank[event_pixel]))
        event_pixel, event_year = event_pixel[order], event_year[order]
        new = np.ones(len(event_pixel), dtype=bool)
        new[1:] = (event_pixel[1:] != event_pixel[:-1]) | (event_year[1:] != event_year[:-1])
        event_pixel, event_year = event_pixel[new], event_year[new]
        twice = event_pixel[1:][event_pixel[1:] == event_pixel[:-1]]
        if unknown.any() or twice.size:
            # the fault of the smallest offending pixel id
            stranger = min(events["pixel"][unknown], default=None)
            if stranger is not None and (not twice.size or stranger < ids[twice[0]]):
                raise LoadError(f"loss event references unknown pixel {stranger!r}")
            raise LoadError(f"pixel {ids[twice[0]]!r} lost more than once")
        code_of = {r: i for i, r in enumerate(dict.fromkeys(regions))}
        self._store(
            pixel_ids,
            tuple(code_of),
            np.fromiter(map(code_of.__getitem__, regions), dtype=np.intp, count=len(regions)),
            biomass, area, canopy,
            event_pixel,
            event_year,
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
        if not math.isfinite(self.theta):
            raise LoadError(f"theta must be finite, got {self.theta!r}")
        if self.theta <= 0:
            raise LoadError("theta must be positive")


def filter_canopy(grid: PixelGrid, threshold: float) -> PixelGrid:
    """Keep pixels with canopy density >= threshold (inclusive boundary)."""
    if not 0 <= threshold <= 100:
        raise LoadError("canopy threshold must lie in [0, 100]")
    return grid._subset(grid.canopy >= threshold)


def pixel_panel(grid: PixelGrid, factors: EmissionFactors, years: Sequence[int]) -> PanelDataset:
    """Annual loss area ``L`` (hectares) and emissions ``E`` per region over ``years``.

    A lost pixel adds its area to ``L`` and its carbon mass, biomass x area x
    theta in that order, to ``E``; a cell where nothing was lost is zero, and
    events outside ``years`` are not counted. One ``np.bincount`` per variable
    over the (region, year) cell index: bincount adds weights in input order,
    so every cell is summed in the grid's fixed (pixel_id, year) event order.
    """
    if len(grid.pixel_ids) == 0:
        raise LoadError("empty pixel grid")
    span = PanelDataset(grid.regions, tuple(int(y) for y in years))  # validates the years
    N, T = span.N, span.T
    col = grid.event_year - span.years[0]
    counted = (col >= 0) & (col < T)
    rows = grid.event_pixel[counted]
    cell = grid.region_code[rows] * T + col[counted]
    per_pixel = {"L": grid.area, "E": grid.biomass * grid.area * factors.theta}
    variables = {
        name: Grid.full(np.bincount(cell, weights=weight[rows], minlength=N * T).reshape(N, T))
        for name, weight in per_pixel.items()
    }
    return PanelDataset(span.regions, span.years, variables)


# ---------------------------------------------------------------------------
# CSV interfaces

# Lines (or, once a file falls back to the csv module, rows) parsed at a time.
# Each block's fields are converted to columns before the next block is read,
# so a load holds one block of text, never the file.
_BLOCK_ROWS = 4096


def _header(reader, path) -> list[str] | None:
    """The first row of ``reader``; None for an empty file."""
    try:
        return next(reader, None)
    except csv.Error as exc:
        raise LoadError(f"{path}:{reader.line_num}: {exc}") from exc


def _outside_years(year):
    """Where ``year``, an int or an int64 array, lies outside 1000-9999."""
    return (year < 1000) | (year > 9999)


# A quote, which numpy would keep in a quoted field; the separators
# \x1c-\x1f, which numpy's number parsers skip as whitespace and float() and
# int() reject; and NUL, which the csv module of Python 3.10 rejects.
_NOT_FOR_NUMPY = '"\x1c\x1d\x1e\x1f\x00'
# how the csv path converts a field of each column dtype kind
_CONVERT = {"O": str, "i": int, "f": float}


def _column_blocks(handle, dtypes, usecols=None, years=()) -> Iterator[list[np.ndarray]]:
    """The rest of ``handle``, block by block, as one array per entry of ``dtypes``.

    A column of dtype object holds its fields as text, one of int64 or
    float64 their values as ``int`` or ``float`` reads them. With ``usecols``
    None a row has exactly one field per column; otherwise column j is field
    ``usecols[j]``, and a row may hold more fields but none fewer than it
    needs. Each value of a column listed in ``years`` lies in 1000-9999. A
    block that breaks any of these rules raises ValueError, OverflowError or
    csv.Error; the blocks before it were yielded.
    """
    for columns in _parsed_blocks(handle, dtypes, usecols):
        if any(_outside_years(columns[j]).any() for j in years):
            raise ValueError("year outside 1000-9999")
        yield columns


def _parsed_blocks(handle, dtypes, usecols) -> Iterator[list[np.ndarray]]:
    """``_column_blocks`` without its year rule.

    Each block of ``_BLOCK_ROWS`` lines is parsed by one ``np.loadtxt`` call,
    numpy's C reader, if it passes three screens. It is ASCII: numpy's integer
    parser calls C's ``isdigit`` on each character, which is undefined beyond
    ASCII, and a year field holding U+E0001 crashed the interpreter (numpy
    2.4). It holds no character of ``_NOT_FOR_NUMPY``. No line is longer than
    ``csv.field_size_limit()``, which numpy does not enforce. On such a block,
    whatever numpy accepts ``int``, ``float`` and ``str`` accept with the same
    value, but numpy rejects some fields they take, such as ``1_0``. Older
    numpy releases, from 1.23, read an int field such as ``2001.5`` through
    float with only a DeprecationWarning; that warning is a rejection. So a
    block that fails a screen, or that numpy rejects, and every block after it
    are read by ``csv.reader`` and ``int``, ``float`` and ``str`` instead,
    ``_BLOCK_ROWS`` rows at a time with blank lines skipped, and only those
    decide whether the file converts.
    """
    dtype = np.dtype([(f"f{j}", d) for j, d in enumerate(dtypes)])
    limit = csv.field_size_limit()
    while lines := list(islice(handle, _BLOCK_ROWS)):
        text = "".join(lines)
        if not text.strip("\r\n"):
            continue  # blank lines only, which numpy would warn about
        screened = (text.isascii() and not any(c in text for c in _NOT_FOR_NUMPY)
                    and max(map(len, lines)) <= limit)
        del text
        if not screened:
            break
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                block = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                   quotechar=None, ndmin=1, usecols=usecols)
        except (ValueError, DeprecationWarning):
            break
        del lines
        # copies: a field's view would keep the whole block and its text alive
        columns = [block[name].copy() for name in dtype.names]
        del block
        yield columns
    else:
        return
    rows = filter(None, csv.reader(chain(lines, handle)))
    index = range(len(dtypes)) if usecols is None else usecols
    width = len(dtypes) if usecols is None else max(usecols) + 1
    converts = [_CONVERT[np.dtype(d).kind] for d in dtypes]
    while block := list(islice(rows, _BLOCK_ROWS)):
        lengths = set(map(len, block))
        if min(lengths) < width or usecols is None and lengths != {width}:
            raise ValueError(f"expected {width} fields")
        columns = [np.fromiter(map(convert, map(itemgetter(i), block)), d, len(block))
                   for i, convert, d in zip(index, converts, dtypes)]
        del block
        yield columns


def _first_fault(path, rule) -> LoadError:
    """The error naming the ``path:line`` of the first data row that breaks ``rule``.

    Only a file that a loader rejected is read this second time, row by row.
    ``rule(row)`` returns the row's fault message, or None for a good row; a
    row the csv module cannot read, such as one with an oversize field, is a
    fault too. Blank lines are skipped as rows but counted as lines. A
    rejected file in which every row passes is a bug, and raises.
    """
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            next(reader)  # the header
            for row in filter(None, reader):
                message = rule(row)
                if message is not None:
                    return LoadError(f"{path}:{reader.line_num}: {message}")
        except csv.Error as exc:
            return LoadError(f"{path}:{reader.line_num}: {exc}")
    raise RuntimeError(f"{path}: rejected, but no row breaks the loader's rule")


def load_panel_csv(path) -> tuple[PanelDataset, list[str]]:
    """Load a `region,year,<var>,...` CSV into a balanced panel.

    Returns the panel and the list of regions dropped for incompleteness. The
    header must name each variable once. A row fails for, in this order, its
    field count, a year that is no integer or lies outside 1000-9999, a
    (region, year) pair seen before, and a malformed number, checked in header
    order; the first row that fails, or that the csv module cannot read, names
    its ``path:line``. The file is read in blocks by ``_column_blocks``, so
    only one block of text is held at a time; each block becomes object, int64
    and float64 columns at once, by numpy's C reader where the block passes
    its screens and by ``csv.reader`` from the first block that does not. The
    rows' region codes, years and (rows, V) block of values are what
    ``panel_from_cells`` takes, and the repeated (region, year) check here is
    the only one. A file that fails anywhere is read again, row by row, to
    find its first bad row; the block pass's columns are gone by then, and the
    re-read keeps each (region, year) pair seen as one int.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = _header(reader, path)
        if header is None:
            raise LoadError(f"{path}: empty file")
        if len(header) < 3 or header[0] != "region" or header[1] != "year":
            raise LoadError(f"{path}: header must start with 'region,year,'")
        names = header[2:]
        repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
        if repeated:
            raise LoadError(f"{path}: header repeats column {repeated[0]!r}")
        columns = _panel_columns(handle, len(names))
    if columns is None:
        code: dict[str, int] = {}  # region -> index, in first-seen order
        seen: set[int] = set()  # each (region, year) pair as index * 10000 + year

        def rule(row):
            if len(row) != len(header):
                return f"expected {len(header)} fields"
            try:
                year = int(row[1])
            except ValueError:
                return f"bad year {row[1]!r}"
            if _outside_years(year):
                return f"year {year} outside 1000-9999"
            key = code.setdefault(row[0], len(code)) * 10000 + year
            if key in seen:
                return f"duplicate row for ({row[0]}, {year})"
            seen.add(key)
            for name, text in zip(names, row[2:]):
                try:
                    float(text)
                except ValueError:
                    return f"malformed number {text!r} for {name}"
            return None

        raise _first_fault(path, rule)
    try:
        return panel_from_cells(columns[0], tuple(names), *columns[1:])
    except PanelError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def _panel_columns(
    handle, n_names: int
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray] | None:
    """The data rows of a panel file as the regions in first-seen order, each
    row's region code and year, and the (rows, n_names) block of its values;
    None if a block does not convert or a (region, year) pair repeats.

    The blocks' columns are joined one at a time, each list of chunks dropped
    once joined, and all of them are gone when this returns.
    """
    code: dict[str, int] = {}  # region -> index, in first-seen order
    codes, years = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.int64)]
    blocks = [np.empty((0, n_names))]
    try:
        dtypes = [object, np.int64] + [float] * n_names
        for regions, block_years, *values in _column_blocks(handle, dtypes, years=[1]):
            for region in dict.fromkeys(regions.tolist()):
                code.setdefault(region, len(code))
            codes.append(np.fromiter(map(code.__getitem__, regions), np.intp, len(regions)))
            years.append(block_years)
            blocks.append(np.column_stack(values))
    except (ValueError, OverflowError, csv.Error):  # OverflowError: a year beyond int64
        return None
    region_code = np.concatenate(codes)
    del codes
    year = np.concatenate(years)
    del years
    # return_index keeps np.unique on its sort path, several times faster here
    if np.unique(region_code * 10000 + year, return_index=True)[1].size != year.size:
        return None
    values = np.concatenate(blocks)
    del blocks
    return tuple(code), region_code, year, values


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Write a fully available panel back to the `region,year,...` layout."""
    names = list(panel.variables)
    grids = [panel.variables[name] for name in names]
    # the first unavailable cell in row order (the first region at the earliest
    # masked year), then in variable order
    missing = [(int(np.argmax(~g.available)), k)
               for k, g in enumerate(grids) if not g.available.all()]
    if missing:
        j, k = min(missing)
        region, year = panel.regions[0], panel.years[j]
        raise LoadError(f"variable {names[k]!r} unavailable at ({region}, {year})")
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(["region", "year"] + names)
        handle.writelines(region_year_rows(panel.regions, panel.years, [g.values for g in grids]))


def _event_year(text: str) -> int:
    """An event year field as an int; a ValueError unless it lies in 1000-9999."""
    year = int(text)
    if _outside_years(year):
        raise ValueError(f"event year {year} outside 1000-9999")
    return year


# required columns of the pixel and event files: header name -> (convert, dtype)
_PIXEL_COLUMNS = {"pixel": (str, object), "region": (str, object), "biomass": (float, float),
                  "area": (float, float), "canopy": (float, float)}
_EVENT_COLUMNS = {"pixel": (str, object), "year": (_event_year, np.int64)}


def _read_columns(path, converters: dict, check=lambda *columns: None) -> list[np.ndarray]:
    """The named columns of a CSV file, one array per column.

    ``converters`` maps each required header name to a (convert, dtype) pair:
    a column's values form one ``dtype`` array (object, int64 or float64),
    and ``convert`` turns one field into its value or raises ValueError. A
    column named ``year`` holds years, each in 1000-9999, and ``convert``
    accepts just the fields that ``str``, ``int`` or ``float`` reads for the
    dtype, within that rule. ``check(*columns)`` finds the first row whose
    values break a rule, as ``_first_bad_pixel`` does, or returns None. The
    file is read in blocks by ``_column_blocks``, so only one block of text
    is held at a time, and each block's fields are converted at once: by
    numpy's C reader where the block passes its screens, and by
    ``csv.reader`` from the first block that does not. A file that fails
    anywhere is read again, row by row, with ``convert``, and
    raises the ``LoadError`` naming the ``path:line`` of its first row that is
    too short for the columns, that a converter rejects (in ``converters``
    order), that ``check`` rejects, or that the csv module cannot read;
    ``check`` runs once, on the rows before the first that fails in any other
    way. Blank lines are skipped as rows but counted as lines, and a repeated
    header name means its last column, as with ``csv.DictReader``.
    """
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = _header(reader, path)
        if header is None or not set(converters) <= set(header):
            raise LoadError(f"{path}: header must contain {sorted(converters)}")
        position = {name: i for i, name in enumerate(header)}
        index = [position[name] for name in converters]
        width = max(index) + 1
        chunks = [[np.empty(0, dtype)] for _, dtype in converters.values()]
        converted = False  # until every block converts
        try:
            dtypes = [dtype for _, dtype in converters.values()]
            years = [j for j, name in enumerate(converters) if name == "year"]
            for block in _column_blocks(handle, dtypes, index, years):
                for chunk, column in zip(chunks, block):
                    chunk.append(column)
            converted = True
        except (ValueError, OverflowError, csv.Error):  # OverflowError: a year beyond int64
            pass
    parse_fault = None
    if not converted:
        # the rows before the first one that is short, unconvertible or
        # unreadable; a value fault among them comes before that row's fault.
        # Each _BLOCK_ROWS of them become one array per column, so at most one
        # block of rows is held as lists
        chunks = [[np.empty(0, dtype)] for _, dtype in converters.values()]
        rows = []

        def flush():
            for j, ((_, dtype), chunk) in enumerate(zip(converters.values(), chunks)):
                chunk.append(np.fromiter(map(itemgetter(j), rows), dtype, len(rows)))
            rows.clear()

        def convert_row(row):
            if len(row) < width:
                return f"expected at least {width} fields, got {len(row)}"
            try:
                rows.append([convert(row[i])
                             for i, (convert, _) in zip(index, converters.values())])
            except ValueError as exc:
                return str(exc)
            if len(rows) == _BLOCK_ROWS:
                flush()
            return None

        parse_fault = _first_fault(path, convert_row)
        flush()
    columns = [np.concatenate(chunk) for chunk in chunks]
    fault = check(*columns)
    if fault is not None:  # the value rule's row index names the line
        row_numbers = count()
        raise _first_fault(path, lambda row: fault[1] if next(row_numbers) == fault[0] else None)
    if parse_fault is not None:
        raise parse_fault
    return columns


def load_pixel_grid_csv(pixels_path, events_path) -> PixelGrid:
    """Load the `pixels.csv` / `loss_events.csv` pair."""
    ids, regions, biomass, area, canopy = _read_columns(
        pixels_path, _PIXEL_COLUMNS, lambda ids, _, *values: _first_bad_pixel(ids, *values)
    )
    event_ids, event_years = _read_columns(events_path, _EVENT_COLUMNS)
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
    x = grid.values[:, grid.available].ravel()
    return {
        "mean": float(np.mean(x)),
        "std": float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
        "min": float(np.min(x)),
        "median": float(np.median(x)),
        "max": float(np.max(x)),
    }
