"""Data ingestion: panel CSV loading, pixel-grid aggregation, summary statistics.

Pixel grids stand in for classified satellite rasters: each pixel carries a
region id, biomass carbon density, area, and canopy density, plus a set of
(pixel, year) loss events. Zonal aggregation, ``pixel_panel``, turns those
into the panel's loss-area and emission variables ``L`` and ``E``.

A ``PixelGrid`` holds columns, and its one constructor takes them coded:
region codes and each event's pixel row. Its two callers are the CSV loader
and the simulator; ``filter_canopy`` takes rows of a built grid past it
(``_subset``), and ``pixel_panel`` works on the columns. The constructor puts
the regions in label order, so a grid's region order, and that of every
panel and file made of it, is decided there alone. One vectorised rule,
``_first_bad_pixel``, decides which pixel values are valid, for the
constructor and for the loader's line-numbered errors alike. The loader's
join, ``_RowJoin``, turns event ids into pixel rows: it finds each id's hash
among the pixel ids' sorted hashes and checks the id itself, and holds no
dict from id to row unless two pixel ids share a hash.

Both CSV loaders read a file's data rows in one block pass,
``_column_blocks``, a few thousand lines at a time. Each block's fields become
float64, int64 or object arrays at once, each column passes through the
loader's encoder (region labels become codes, event ids pixel rows), and the
block's text is dropped before the next block is read; of its text fields,
only pixel ids are kept as text. Each column is joined once, at the end.
A block is parsed by numpy's C reader, ``np.loadtxt``, when it is ASCII and
holds no quote, no U+001C-U+001F separator, no NUL and no line longer than
the csv module's field limit. A block that fails those screens, or that
numpy rejects or warns about, and the rest of the file go through
``csv.reader`` and Python's ``float`` and ``int``, which alone decide whether
the file converts. A year column's range rule is checked on each block. The
block pass only asks whether a file is valid. A file that is not is read a
second time, row by row, by ``_first_fault``, with the loader's per-row
rule, to name its first bad row's ``path:line``. The panel loader hands
its rows to ``panel.build_panel``, which balances them. The panel writer
formats one region's rows at a time.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .panel import Grid, PanelDataset, PanelError, build_panel, check_codes, region_year_rows

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


def _codes(labels, code: dict) -> np.ndarray:
    """Each label's index in ``code``, which takes new labels in first-seen order."""
    for label in dict.fromkeys(labels):
        code.setdefault(label, len(code))
    return np.fromiter(map(code.__getitem__, labels), np.intp, len(labels))


def _id_hashes(ids) -> np.ndarray:
    """Each id's ``hash``, as one int64 array."""
    return np.fromiter(map(hash, ids), np.int64, len(ids))


class _RowJoin:
    """The join of event ids to the rows of the pixel ids ``ids``.

    Called on a block of event ids, it returns each id's pixel row, or -1 for
    an id no pixel has, which it keeps in ``strangers``. Each pixel id is
    hashed once; the hashes are sorted, with the rows in that order, and a
    block's hashes are found among them by ``np.searchsorted``. Equal ids hash
    alike, so when no two pixel ids share a hash, the row found is the only
    candidate, and it counts if its id equals the event's. That holds 16 bytes
    a pixel, where a dict from id to row held about 70. An empty grid, or one
    where two pixel ids share a hash (a repeated id, ``repeated_id``, or a
    true collision), is joined through ``dict(zip(ids, range(n)))``.
    """

    def __init__(self, ids: np.ndarray):
        self.ids, self.strangers, self.row_of = ids, [], None
        self.hashes = _id_hashes(ids)
        self.order = np.argsort(self.hashes)
        self.hashes.sort()
        if not len(ids) or (self.hashes[1:] == self.hashes[:-1]).any():
            self.row_of = dict(zip(ids, range(len(ids))))
        self.repeated_id = self.row_of is not None and len(self.row_of) != len(ids)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        if self.row_of is not None:
            rows = np.fromiter(map(self.row_of.get, block, repeat(-1)), np.intp, len(block))
        else:
            at = np.searchsorted(self.hashes, _id_hashes(block))
            rows = self.order[np.minimum(at, len(self.order) - 1)]
            rows[self.ids[rows] != block] = -1
        self.strangers.extend(block[rows < 0].tolist())
        return rows

    @property
    def stranger(self):
        """The least event id that names no pixel; None if every one does."""
        return min(self.strangers, default=None)


# the stored columns of a PixelGrid, as ``_store`` takes them
_COLUMNS = ("pixel_ids", "region_code", "biomass", "area", "canopy", "event_pixel", "event_year")


class PixelGrid:
    """Pixels plus the set of (pixel_id, year) loss events, stored as columns.

    ``PixelGrid(pixel_ids, regions, region_code, biomass, area, canopy,
    event_pixel, event_year)`` takes coded columns, as arrays: per pixel, its
    id, its region as an index into the tuple of labels ``regions``, biomass
    carbon density in Mg C/ha, area in hectares and canopy density in
    percent; per loss event, its pixel's row, or -1 for an event that names
    no pixel, and its year. The CSV loader and the simulator build every grid
    here, and ``filter_canopy`` takes rows of a built grid past it
    (``_subset``). It raises ``LoadError`` for pixel columns, or event
    columns, of unequal length, for a region code or an event row outside
    its range (an event row of -1 needs ``stranger``), for the first pixel
    with a non-finite attribute, negative biomass, nonpositive area or
    canopy outside [0, 100], and for an event naming an unknown pixel or a
    pixel lost twice, whichever has the smaller pixel id. Exact repeats of
    an event collapse, as in a set. The one keyword, ``stranger``, is the
    least event id that names no pixel, which the caller finds while coding
    the events. Repeated pixel ids are not checked here:
    ``load_pixel_grid_csv`` rejects them itself. The pixel values are always
    checked here, also when the loader has checked them for its
    line-numbered error.

    Stored: ``pixel_ids`` (object array of str), ``regions`` in sorted label
    order with ``region_code`` recoded to match, so that region order, and
    every panel made of the grid, does not depend on the order of the input
    rows, and the float arrays ``biomass``, ``area`` and ``canopy``. Loss
    events are ``event_pixel`` and ``event_year``, sorted once by (pixel_id,
    year). Aggregates sum in that order, so results are bit-identical across
    runs and across the CSV round trip. Every column is read-only. A float64
    array, or an object array of pixel ids, passed in is kept as the column,
    not copied, so it becomes read-only too.

    ``pixels`` and ``loss_events`` are object views rebuilt from the columns
    on every access.
    """

    def __init__(self, pixel_ids, regions, region_code, biomass, area, canopy, event_pixel,
                 event_year, *, stranger=None):
        pixel_ids = np.asarray(pixel_ids, dtype=object)
        if not len(pixel_ids) == len(region_code) == len(biomass) == len(area) == len(canopy):
            raise LoadError("pixel columns differ in length")
        if len(event_pixel) != len(event_year):
            raise LoadError("event columns differ in length")
        check_codes("region code", region_code, len(regions), LoadError)
        # -1 marks an event that names no pixel, and only the caller's
        # ``stranger`` can name it
        check_codes("event row", event_pixel, len(pixel_ids), LoadError,
                    -1 if stranger is not None else 0)
        if fault := _first_bad_pixel(pixel_ids, biomass, area, canopy):
            raise LoadError(fault[1])
        unknown = event_pixel < 0
        event_pixel, event_year = event_pixel[~unknown], event_year[~unknown]
        # the lost pixels in row order, and the rank of each one's id among theirs
        lost = np.flatnonzero(np.bincount(event_pixel, minlength=len(pixel_ids)))
        id_rank = np.empty(len(pixel_ids), dtype=np.intp)
        id_rank[lost[np.argsort(pixel_ids[lost], kind="stable")]] = np.arange(lost.size)
        # sorted by (pixel_id, year), with exact repeats dropped as from a set
        order = np.lexsort((event_year, id_rank[event_pixel]))
        event_pixel, event_year = event_pixel[order], event_year[order]
        new = np.ones(len(event_pixel), dtype=bool)
        new[1:] = (event_pixel[1:] != event_pixel[:-1]) | (event_year[1:] != event_year[:-1])
        event_pixel, event_year = event_pixel[new], event_year[new]
        twice = event_pixel[1:][event_pixel[1:] == event_pixel[:-1]]
        if unknown.any() or twice.size:
            # the fault of the smallest offending pixel id
            if stranger is not None and (not twice.size or stranger < pixel_ids[twice[0]]):
                raise LoadError(f"loss event references unknown pixel {stranger!r}")
            raise LoadError(f"pixel {pixel_ids[twice[0]]!r} lost more than once")
        # each region's rank in label order becomes its code
        by_label = sorted(range(len(regions)), key=regions.__getitem__)
        rank = np.empty(len(regions), dtype=np.intp)
        rank[by_label] = np.arange(len(regions))
        self._store(tuple(regions[c] for c in by_label), pixel_ids, rank[region_code],
                    biomass, area, canopy, event_pixel, event_year)

    def _store(self, regions: tuple[str, ...], *columns: np.ndarray) -> "PixelGrid":
        """Keep ``regions`` and the ``_COLUMNS``, in that order, read-only."""
        self.regions = regions
        for name, column in zip(_COLUMNS, columns, strict=True):
            column.setflags(write=False)
            setattr(self, name, column)
        return self

    def _subset(self, keep: np.ndarray) -> "PixelGrid":
        """The pixels where the boolean row mask ``keep`` holds, with their
        events, and the regions that keep a pixel, in the grid's order."""
        codes = self.region_code[keep]
        present = np.bincount(codes, minlength=len(self.regions)) > 0
        new_code = np.cumsum(present) - 1
        new_row = np.cumsum(keep) - 1
        kept_events = keep[self.event_pixel]
        return PixelGrid.__new__(PixelGrid)._store(
            tuple(compress(self.regions, present)),
            self.pixel_ids[keep],
            new_code[codes],
            self.biomass[keep], self.area[keep], self.canopy[keep],
            new_row[self.event_pixel[kept_events]],
            self.event_year[kept_events],
        )

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


def _column_blocks(handle, dtypes, usecols, years, encoders) -> list[np.ndarray] | None:
    """The rest of ``handle`` as one array per entry of ``dtypes``; None if
    a block breaks a rule. Both CSV loaders read their data rows here.

    A column of dtype object holds its fields as text, one of int64 or
    float64 their values as ``int`` or ``float`` reads them. With ``usecols``
    None a row has exactly one field per column; otherwise column j is field
    ``usecols[j]``, and a row may hold more fields but none fewer than it
    needs. Each value of a column listed in ``years`` lies in 1000-9999.
    Column j of each block is kept as ``encoders[j]`` returns it, and each
    column's blocks are joined once, at the end.

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
    chunks = [[encode(np.empty(0, d))] for encode, d in zip(encoders, dtypes)]

    def keep(columns):
        if any(_outside_years(columns[j]).any() for j in years):
            raise ValueError("year outside 1000-9999")
        for chunk, encode, column in zip(chunks, encoders, columns):
            chunk.append(encode(column))

    try:
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
            keep([block[name].copy() for name in dtype.names])
            del block
        # the block numpy did not read and the rest of the file; none if it read all
        rows = filter(None, csv.reader(chain(lines, handle))) if lines else ()
        index = range(len(dtypes)) if usecols is None else usecols
        width = len(dtypes) if usecols is None else max(usecols) + 1
        converts = [_CONVERT[np.dtype(d).kind] for d in dtypes]
        while block := list(islice(rows, _BLOCK_ROWS)):
            lengths = set(map(len, block))
            if min(lengths) < width or usecols is None and lengths != {width}:
                return None
            keep([np.fromiter(map(convert, map(itemgetter(i), block)), d, len(block))
                  for i, convert, d in zip(index, converts, dtypes)])
            del block
    except (ValueError, OverflowError, csv.Error):  # OverflowError: a year beyond int64
        return None
    # each column's chunks are dropped as soon as it is joined
    return [np.concatenate(chunks.pop(0)) for _ in dtypes]


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
    (region, year) pair seen before, and a malformed or non-finite number
    (``nan``, ``inf``, or ``1e400``, which overflows), checked in header
    order, also in a region that would be dropped; the first row that fails,
    or that the csv module cannot read, names its ``path:line``. The data
    rows are read by ``_column_blocks``, which codes each block's regions in
    first-seen order as it is read. The repeated (region, year) and finite
    value checks run here, once, on the joined columns, and the value
    columns are stacked once into the (rows, V) block that
    ``panel.build_panel`` takes, which puts the regions in label order.
    A file that fails anywhere is read again, row by row, to find its first
    bad row; the block pass's columns are gone by then, and the re-read keeps
    each (region, year) pair seen as one int.
    """
    path = Path(path)
    code: dict[str, int] = {}  # region -> index, in first-seen order
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
        columns = _column_blocks(
            handle, [object, np.int64] + [float] * len(names), None, [1],
            [lambda labels: _codes(labels, code)] + [np.asarray] * (len(names) + 1))
    if columns is not None:
        region_code, year, *values = columns
        del columns
        # return_index keeps np.unique on its sort path, several times faster here
        if (np.unique(region_code * 10000 + year, return_index=True)[1].size == year.size
                and all(np.isfinite(column).all() for column in values)):
            values = np.column_stack(values)  # the list drops the 1-D columns
            try:
                return build_panel(tuple(code), tuple(names), region_code, year, values)
            except PanelError as exc:
                raise LoadError(f"{path}: {exc}") from exc
        del region_code, year, values  # gone before the row-by-row re-read
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
                value = float(text)
            except ValueError:
                return f"malformed number {text!r} for {name}"
            if not math.isfinite(value):
                return f"non-finite number {text!r} for {name}"
        return None

    raise _first_fault(path, rule)


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


def _read_columns(path, converters: dict, check=lambda *columns: None,
                  encode: dict | None = None) -> list[np.ndarray]:
    """The named columns of a CSV file, one array per column.

    ``converters`` maps each required header name to a (convert, dtype) pair:
    a column's values form one ``dtype`` array (object, int64 or float64),
    and ``convert`` turns one field into its value or raises ValueError. A
    column named ``year`` holds years, each in 1000-9999, and ``convert``
    accepts just the fields that ``str``, ``int`` or ``float`` reads for the
    dtype, within that rule. ``check(*columns)`` finds the first row whose
    values break a rule, as ``_first_bad_pixel`` does, or returns None. The
    data rows are read by ``_column_blocks``, the block pass the panel loader
    uses too, which returns the joined columns. A file that fails
    anywhere is read again, row by row, with ``convert``, and
    raises the ``LoadError`` naming the ``path:line`` of its first row that is
    too short for the columns, that a converter rejects (in ``converters``
    order), that ``check`` rejects, or that the csv module cannot read;
    ``check`` runs once, on the rows before the first that fails in any other
    way. Blank lines are skipped as rows but counted as lines, and a repeated
    header name means its last column, as with ``csv.DictReader``.

    ``encode`` maps a header name to a function of its column's blocks, whose
    results are kept in their place, by the block pass and the re-read alike.
    """
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = _header(reader, path)
        if header is None or not set(converters) <= set(header):
            raise LoadError(f"{path}: header must contain {sorted(converters)}")
        position = {name: i for i, name in enumerate(header)}
        index = [position[name] for name in converters]
        width = max(index) + 1
        dtypes = [dtype for _, dtype in converters.values()]
        encoders = [(encode or {}).get(name, np.asarray) for name in converters]
        years = [j for j, name in enumerate(converters) if name == "year"]
        columns = _column_blocks(handle, dtypes, index, years, encoders)
    parse_fault = None
    if columns is None:
        # the rows before the first one that is short, unconvertible or
        # unreadable; a value fault among them comes before that row's fault.
        # Each _BLOCK_ROWS of them become one array per column, so at most one
        # block of rows is held as lists
        chunks = [[f(np.empty(0, dtype))] for f, dtype in zip(encoders, dtypes)]
        rows = []

        def flush():
            for j, (f, dtype, chunk) in enumerate(zip(encoders, dtypes, chunks)):
                chunk.append(f(np.fromiter(map(itemgetter(j), rows), dtype, len(rows))))
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
    """Load the `pixels.csv` / `loss_events.csv` pair. Each block's region
    labels become codes, and its event ids pixel rows, as soon as it is read.
    The pixel ids are hashed once for ``_RowJoin``, whose sorted hashes and
    rows, 16 bytes a pixel, are the join's whole cost unless two ids share a
    hash; they are dropped before the grid is checked. A repeated pixel id
    raises ``LoadError("duplicate pixel ids")`` once the events file is read,
    ahead of the grid's event checks; its earlier checks already hold for
    the loader's columns."""
    code: dict[str, int] = {}
    ids, region_code, biomass, area, canopy = _read_columns(
        pixels_path, _PIXEL_COLUMNS, lambda ids, _, *values: _first_bad_pixel(ids, *values),
        encode={"region": lambda labels: _codes(labels, code)})
    join = _RowJoin(ids)
    event_pixel, event_year = _read_columns(events_path, _EVENT_COLUMNS, encode={"pixel": join})
    if join.repeated_id:
        raise LoadError("duplicate pixel ids")
    stranger = join.stranger
    del join  # its hashes and rows, 16 B a pixel, go before the grid's checks run
    return PixelGrid(ids, tuple(code), region_code, biomass, area, canopy, event_pixel,
                     event_year, stranger=stranger)


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
    """Mean/std/min/median/max over all available cells of one variable.

    The cells are taken region by region in the panel's order, years
    ascending. ``load_panel_csv`` and ``pixel_panel`` give panels whose
    regions come in label order, so the sums do not depend on the order of
    the input rows.
    """
    grid = panel.var(var)
    x = grid.values[:, grid.available].ravel()
    return {
        "mean": float(np.mean(x)),
        "std": float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
        "min": float(np.min(x)),
        "median": float(np.median(x)),
        "max": float(np.max(x)),
    }
