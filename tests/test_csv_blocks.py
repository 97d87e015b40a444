"""The block CSV readers and column writers against the row-by-row code they replaced.

Each oracle below is the earlier implementation, kept verbatim: the panel
loader parsed the file row by row into (region, year, variable, value) tuples
and assembled them with the tuple-based builder that survives here only as
``old_build_panel``, whose regions now come in sorted label order, as
``build_panel``'s do; ``_read_columns``
held every row of the file as a list before converting each column, and
returned the columns up to the first bad row with that row's error; the pixel
loader checked the values of those columns before raising the error; the
``PixelGrid`` constructor from strings sorted its events as tuples and found
their pixels with a dict, and ``old_grid`` holds the columns it stored, with
the regions in label order; the panel and scatter writers formatted one cell
at a time. The loaders must give an equal panel, grid or columns, or raise
the same ``LoadError`` text, and the writers must write the same bytes. The
two CSV oracles read with ``csv.reader`` and Python's ``float`` and ``int``
only, so they also stand for the fallback of the loaders' numpy pass; a row
the csv module cannot read ends either oracle's file with the error naming
its line.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import contextmanager
from functools import partial
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestpanel import cli, ingest
from forestpanel.dgp import GridDGPConfig, simulate_disturbance_grid
from forestpanel.ingest import LoadError, write_panel_csv, write_pixel_grid_csv
from forestpanel.panel import (
    Grid,
    PanelDataset,
    PanelError,
    demean_twoway_values,
)


# ---------------------------------------------------------------------------
# oracles: the row-by-row implementations

def old_build_panel(rows):
    rows = list(rows)
    if not rows:
        raise PanelError("no input rows")
    n = len(rows)
    regions = list(map(str, map(itemgetter(0), rows)))
    names = list(map(str, map(itemgetter(2), rows)))
    years_seen = np.fromiter(map(int, map(itemgetter(1), rows)), dtype=np.int64, count=n)
    values = np.fromiter(map(float, map(itemgetter(3), rows)), dtype=float, count=n)
    region_index = {r: i for i, r in enumerate(sorted(set(regions)))}
    var_index = {v: k for k, v in enumerate(dict.fromkeys(names))}
    ri = np.fromiter(map(region_index.__getitem__, regions), dtype=np.intp, count=n)
    vi = np.fromiter(map(var_index.__getitem__, names), dtype=np.intp, count=n)
    first_year = int(years_seen.min())
    years = tuple(range(first_year, int(years_seen.max()) + 1))
    R, T, V = len(region_index), len(years), len(var_index)
    yi = years_seen - first_year

    cell = (ri * T + yi) * V + vi
    _, first_row = np.unique(cell, return_index=True)
    if first_row.size != n:
        repeat = np.ones(n, dtype=bool)
        repeat[first_row] = False
        i = int(np.argmax(repeat))
        raise PanelError(
            f"duplicate cell for region={regions[i]} year={int(years_seen[i])} variable={names[i]}"
        )
    complete = np.bincount(ri, minlength=R) == T * V
    kept = [r for r, ok in zip(region_index, complete.tolist()) if ok]
    dropped = [r for r, ok in zip(region_index, complete.tolist()) if not ok]
    if not kept:
        raise PanelError("no region has a complete year series over the observed span")

    take = complete[ri]
    kept_row = np.cumsum(complete) - 1
    grids = np.empty((V, len(kept), T))
    grids[vi[take], kept_row[ri[take]], yi[take]] = values[take]
    variables = {v: Grid.full(grids[k]) for v, k in var_index.items()}
    return PanelDataset(tuple(kept), years, variables), dropped


def _bounded_year(year, what):
    if not 1000 <= year <= 9999:
        raise ValueError(f"{what} {year} outside 1000-9999")
    return year


def _readable(reader, path):
    """``reader``'s rows; a row the csv module cannot read is the LoadError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise LoadError(f"{path}:{reader.line_num}: {exc}") from None


def old_load_panel_csv(path):
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
        rows = []
        seen = set()
        for record in _readable(reader, path):
            if not record:
                continue
            lineno = reader.line_num
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
        return old_build_panel(rows)
    except PanelError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def _convert_prefix(texts, convert):
    values = []
    try:
        values.extend(map(convert, texts))
    except ValueError as exc:
        return values, exc
    return values, None


def _file_line(path, row):
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for _ in islice(filter(None, reader), row + 1):
            pass
        return reader.line_num


def old_read_columns(path, converters):
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or not set(converters) <= set(header):
            raise LoadError(f"{path}: header must contain {sorted(converters)}")
        rows, unreadable = [], None
        try:
            for row in filter(None, reader):
                rows.append(row)
        except csv.Error as exc:  # the file ends, for the oracle, before this row
            unreadable = LoadError(f"{path}:{reader.line_num}: {exc}")
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
        values, exc = _convert_prefix(list(map(itemgetter(i), rows[:stop])), convert)
        if exc is not None:
            stop, message = len(values), str(exc)
        columns.append(values)
    error = unreadable if message is None else LoadError(
        f"{path}:{_file_line(path, stop)}: {message}")
    return [column[:stop] for column in columns], error


def _event_year(text):
    return _bounded_year(int(text), "event year")


def old_event_columns(pixel_ids, loss_events):
    """(event_pixel, event_year) as the dict-and-sorted() constructor built them."""
    row_of = dict(zip(pixel_ids, range(len(pixel_ids))))
    if len(row_of) != len(pixel_ids):
        raise LoadError("duplicate pixel ids")
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
    return event_pixel, np.fromiter(map(itemgetter(1), events), dtype=np.int64, count=len(events))


def old_grid(pixel_ids, regions, biomass, area, canopy, loss_events):
    """The columns of a grid, as the constructor from strings stored them, with
    the regions in label order; its pixel values are not checked, and its
    events are coded, and their faults raised, by ``old_event_columns``."""
    labels = sorted(set(regions))
    code = {label: c for c, label in enumerate(labels)}
    event_pixel, event_year = old_event_columns(list(pixel_ids), loss_events)
    return SimpleNamespace(
        regions=tuple(labels),
        pixel_ids=np.array(list(pixel_ids), dtype=object),
        region_code=np.array([code[r] for r in regions], dtype=np.intp),
        biomass=np.array(biomass, dtype=float),
        area=np.array(area, dtype=float),
        canopy=np.array(canopy, dtype=float),
        event_pixel=event_pixel,
        event_year=event_year,
    )


def old_write_panel_csv(panel, path):
    names = list(panel.variables)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["region", "year"] + names)
        for i, region in enumerate(panel.regions):
            for j, year in enumerate(panel.years):
                row = [region, year]
                for name in names:
                    grid = panel.variables[name]
                    if not grid.available[j]:
                        raise LoadError(
                            f"variable {name!r} unavailable at ({region}, {year})"
                        )
                    row.append(repr(float(grid.values[i, j])))
                writer.writerow(row)


def old_scatter_rows(panel, x, y):
    gx, gy = panel.var(x), panel.var(y)
    mask = gx.available & gy.available
    dx = demean_twoway_values(gx.values[:, mask])
    dy = demean_twoway_values(gy.values[:, mask])
    years = [panel.years[j] for j in range(panel.T) if mask[j]]
    rows = []
    for i, region in enumerate(panel.regions):
        for j, year in enumerate(years):
            rows.append([region, year, repr(float(dx[i, j])), repr(float(dy[i, j]))])
    return rows


def old_write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# generated files

REGIONS = ["A", "B", "C", "a,b", 'q"t', "x\ny", " A "]
VARIABLES = ["L", "E", "x,y", "v\nw"]
# fields that parse differently or not at all: digit separators, non-ASCII
# digits, padding, years out of range or beyond int64, empty and non-finite,
# years written as floats, a mid-field quote, the U+001C separator that
# numpy's number parsers skip as whitespace, a NUL, and a plane-14 character
# in a year
ODD_FIELDS = ["2_002", "٢٠٠١", " 2002 ", "\t2002\t", "999", "10000",
              "300000000000000000", "99999999999999999999", "", "abc", "nan", "inf",
              "infinity", " -Inf ", "NaN", "\t2.5\t", "1_0", "1e400", "-0.0", "2001.0",
              "2001.5", "2e3", 'a"b', "1\x1c", "1\x00", "\U000e0001"]
# a whitespace-only line is a one-field row, so it is drawn rarely
BLANK_LINES = ["\n", "\r\n"] * 4 + ["  \n", " \t\r\n"]
NUMBERS = st.floats(-1e6, 1e6).map(repr)


@st.composite
def csv_text(draw, header, rows):
    """``rows`` written as CSV with random line ends and blank lines between them.

    One data row in four is written raw, its fields joined by commas, so a
    quote or a comma inside a field reaches the file unquoted.
    """
    out = io.StringIO()
    for i, row in enumerate([header, *rows]):
        end = draw(st.sampled_from(["\n", "\r\n"]))
        if i and draw(st.integers(0, 3)) == 0:
            out.write(",".join(row) + end)
        else:
            csv.writer(out, lineterminator=end).writerow(row)
        if draw(st.integers(0, 5)) == 0:
            out.write(draw(st.sampled_from(BLANK_LINES)))
    return out.getvalue()


# the field size limit a test lowers: 20 characters passes short fields and
# rejects long numbers, while most lines exceed it
LIMITS = st.sampled_from([None, 20])


@contextmanager
def field_size_limit(limit):
    """The csv module's field size limit set to ``limit`` (None: left as it is)."""
    old = csv.field_size_limit() if limit is None else csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@st.composite
def mutated(draw, rows):
    """``rows`` with up to four faults: odd fields, short, long, repeated or missing rows."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["field"] * 3 + ["short", "long", "repeat", "drop"]))
        if kind == "field" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "short":
            rows[i] = rows[i][:draw(st.integers(0, max(len(rows[i]) - 1, 0)))]
        elif kind == "long":
            rows[i].append(draw(st.sampled_from(ODD_FIELDS + ["1"])))
        elif kind == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        else:
            del rows[i]
    return rows


@st.composite
def panel_files(draw):
    names = draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3, unique=True))
    regions = draw(st.lists(st.sampled_from(REGIONS), min_size=1, max_size=3, unique=True))
    first = draw(st.sampled_from([1000, 2001, 2001, 9997]))  # spans reach 1000 or pass 9999
    years = range(first, first + draw(st.integers(1, 4)))
    rows = [[r, str(y), *(draw(NUMBERS) for _ in names)] for r in regions for y in years]
    rows = draw(mutated(draw(st.permutations(rows))))
    return draw(csv_text(["region", "year", *names], rows))


PIXEL_COLUMNS = ["pixel", "region", "biomass", "area", "canopy"]
OLD_PIXELS = {"pixel": str, "region": str, "biomass": float, "area": float, "canopy": float}
OLD_EVENTS = {"pixel": str, "year": _event_year}


@st.composite
def column_files(draw):
    """A pixel or event file: required columns in any order, maybe an extra or repeated one."""
    events = draw(st.booleans())
    header = draw(st.permutations(["pixel", "year"] if events else PIXEL_COLUMNS))
    header += draw(st.lists(st.sampled_from(["note", *header]), max_size=2))
    field = st.sampled_from(["1000", "2001", "2002", "9999"]) if events else NUMBERS
    rows = [[f"p{i}" if name == "pixel" else draw(field) for name in header]
            for i in range(draw(st.integers(0, 10)))]
    rows = draw(mutated(rows))
    return events, draw(csv_text(header, rows))


def outcome(load, *args):
    try:
        return load(*args)
    except LoadError as exc:
        return f"LoadError: {exc}"


def panel_key(result):
    if isinstance(result, str):
        return result
    panel, dropped = result
    return (panel.regions, panel.years, dropped, [
        (name, grid.values.tobytes(), grid.available.tobytes())
        for name, grid in panel.variables.items()
    ])


def columns_key(result):
    """A read's error text if it reports one, else its columns as reprs.

    The oracle returns (prefix columns, error); the loader raises that error
    and returns the columns only of a file that reads whole.
    """
    if isinstance(result, str):
        return result
    if isinstance(result, tuple):
        result, error = result
        if error is not None:
            return f"LoadError: {error}"
    return [list(map(repr, c.tolist() if isinstance(c, np.ndarray) else c)) for c in result]


def grid_key(result):
    """A grid's regions and its columns, each with its dtype; an error's text."""
    if isinstance(result, str):
        return result
    return result.regions, [(getattr(result, name).dtype, getattr(result, name).tolist())
                            for name in ingest._COLUMNS]


# ---------------------------------------------------------------------------
# tests

@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


@settings(max_examples=300, deadline=None)
@given(text=panel_files(), block=st.sampled_from([1, 3, ingest._BLOCK_ROWS]), limit=LIMITS)
def test_panel_loader_matches_row_by_row(work, text, block, limit):
    path = work / "panel.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with field_size_limit(limit):
        expected = panel_key(outcome(old_load_panel_csv, path))
        with mock.patch.object(ingest, "_BLOCK_ROWS", block):
            assert panel_key(outcome(ingest.load_panel_csv, path)) == expected


@settings(max_examples=300, deadline=None)
@given(file=column_files(), block=st.sampled_from([1, 3, ingest._BLOCK_ROWS]), limit=LIMITS)
def test_read_columns_matches_whole_file_read(work, file, block, limit):
    events, text = file
    path = work / "columns.csv"
    path.write_text(text, encoding="utf-8", newline="")
    old, new = ((OLD_EVENTS, ingest._EVENT_COLUMNS) if events
                else (OLD_PIXELS, ingest._PIXEL_COLUMNS))
    with field_size_limit(limit):
        expected = columns_key(outcome(old_read_columns, path, old))
        with mock.patch.object(ingest, "_BLOCK_ROWS", block):
            assert columns_key(outcome(ingest._read_columns, path, new)) == expected


GOOD_ROWS = [f"R,{2001 + i},1" for i in range(7)]


@pytest.mark.parametrize("first_bad", [1, 2, 3, 4])  # the block boundary lies after row 2
@pytest.mark.parametrize("fault", [
    "R,20x1,1", "R,999,1", "R,2011,abc", "R,2011", "R,2011,1,1",
    "R,2001,1", "R,2001,abc",  # a repeat of row 0; the repeat is named before the number
])
def test_first_bad_row_beside_a_block_boundary(work, first_bad, fault):
    rows = list(GOOD_ROWS)
    rows[first_bad] = fault
    rows[6] = "R,2007,x"  # a later bad row, in the third block, never wins
    path = work / "boundary.csv"
    path.write_text("region,year,L\n" + "\n".join(rows) + "\n")
    expected = outcome(old_load_panel_csv, path)
    assert isinstance(expected, str)
    with mock.patch.object(ingest, "_BLOCK_ROWS", 3):
        assert outcome(ingest.load_panel_csv, path) == expected
        pixel_path = work / "boundary_pixels.csv"
        pixel_path.write_text("pixel,region,biomass\n" + "\n".join(
            f"p{i},{row}" for i, row in enumerate(rows)) + "\n")
        columns = {"pixel": str, "region": str, "biomass": float}
        expected = columns_key(outcome(old_read_columns, pixel_path, columns))
        columns = {"pixel": (str, object), "region": (str, object), "biomass": (float, float)}
        assert columns_key(outcome(ingest._read_columns, pixel_path, columns)) == expected


@pytest.mark.parametrize("field", ODD_FIELDS)
def test_odd_field_in_each_column_matches_row_by_row(work, field):
    # an otherwise good file of three two-line blocks, written raw, with
    # ``field`` as every region label or pixel id, or as one year or number
    # in the middle block: numpy must not read a field that float() or int()
    # reads otherwise
    def write(name, header, rows):
        (work / name).write_text(header + "".join(",".join(row) + "\n" for row in rows),
                                 encoding="utf-8", newline="")
        return work / name

    panel_rows = [["R", str(2001 + i), f"{i}.5"] for i in range(6)]
    pixel_rows = [[f"p{i}", "R", f"{i}.5", "1", "50"] for i in range(6)]
    event_rows = [[f"p{i}", str(2001 + i)] for i in range(6)]
    cases = []
    for column in range(3):
        rows = [list(row) for row in panel_rows]
        for row in rows if column == 0 else rows[3:4]:
            row[column] = field
        cases.append((old_load_panel_csv, ingest.load_panel_csv, panel_key,
                      write("odd_panel.csv", "region,year,L\n", rows)))
    for rows, column in ((pixel_rows, 0), (pixel_rows, 1), (pixel_rows, 2), (event_rows, 1)):
        rows = [list(row) for row in rows]
        for row in rows if column < 2 else rows[3:4]:
            row[column] = field
        header, old, new = (("pixel,year\n", OLD_EVENTS, ingest._EVENT_COLUMNS) if len(rows[0]) == 2
                            else (",".join(PIXEL_COLUMNS) + "\n", OLD_PIXELS,
                                  ingest._PIXEL_COLUMNS))
        cases.append((partial(old_read_columns, converters=old),
                      partial(ingest._read_columns, converters=new), columns_key,
                      write("odd_columns.csv", header, rows)))
    with mock.patch.object(ingest, "_BLOCK_ROWS", 2):
        for old_load, load, key, path in cases:
            expected = key(outcome(old_load, path))
            assert key(outcome(load, path)) == expected, path.read_text(encoding="utf-8")


class RowPath:
    """``csv.reader`` that records the rows each reader it makes has yielded."""

    def __init__(self, monkeypatch):
        self.readers = []
        real = csv.reader

        def reader(lines):
            rows = []
            self.readers.append(rows)
            for row in real(lines):
                rows.append(row)
                yield row

        monkeypatch.setattr(csv, "reader", reader)


@pytest.mark.parametrize("loader", ["panel", "pixels"])
def test_numpy_reads_each_block_before_the_first_quote(work, monkeypatch, loader):
    # three blocks of three lines. A plain file is read by numpy alone: the
    # only csv.reader reads the header. A quoted field in the middle of the
    # second block sends that whole block, and the third, to the csv module
    if loader == "panel":
        header, load = "region,year,L\n", ingest.load_panel_csv
        rows = [[f"R{i // 3}", str(2001 + i % 3), f"{i}.5"] for i in range(9)]
    else:
        header = "pixel,region,biomass,area,canopy\n"
        load = partial(ingest._read_columns, converters=ingest._PIXEL_COLUMNS)
        rows = [[f"p{i}", f"R{i // 3}", f"{i}.5", "0.09", "50"] for i in range(9)]
    plain, quoted = work / "plain.csv", work / "quoted.csv"
    lines = [",".join(row) + "\n" for row in rows]
    plain.write_text(header + "".join(lines))
    lines[4] = lines[4].replace(rows[4][1], f'"{rows[4][1]}"', 1)
    quoted.write_text(header + "".join(lines))
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 3)
    row_path = RowPath(monkeypatch)
    key = panel_key if loader == "panel" else columns_key
    expected = key(load(plain))
    assert row_path.readers == [[header.strip().split(",")]]
    row_path.readers.clear()
    assert key(load(quoted)) == expected
    assert row_path.readers == [[header.strip().split(",")], rows[3:]]


def test_nul_sends_its_block_to_the_csv_module(work, monkeypatch):
    # numpy reads a NUL in a text field, which the csv module of Python 3.10
    # rejects, so from the block holding one the csv module decides
    rows = [[f"R{i // 3}", str(2001 + i % 3), f"{i}.5"] for i in range(9)]
    rows[4][0] = "R1\x00"
    path = work / "nul.csv"
    path.write_text("region,year,L\n" + "".join(",".join(row) + "\n" for row in rows))
    expected = panel_key(outcome(old_load_panel_csv, path))
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 3)
    row_path = RowPath(monkeypatch)
    assert panel_key(outcome(ingest.load_panel_csv, path)) == expected
    assert row_path.readers[1] == rows[3:]


@pytest.mark.parametrize("year", ["2004", "2004.5", "2004.0", "2e3"])
def test_int_read_through_float_with_a_warning_is_a_rejection(work, monkeypatch, year):
    # numpy from 1.23 until its deprecation expired read an int field that
    # only float() reads, such as 2004.5, as the truncated float, with only a
    # DeprecationWarning, which Python ignores by default outside __main__.
    # Emulated here, the warning must send the block to the csv module, which
    # rejects the field
    real = np.loadtxt

    def loadtxt(lines, dtype, **kwargs):
        as_float = np.dtype([(name, float if dtype[name] == np.int64 else dtype[name])
                             for name in dtype.names])
        block = real(lines, dtype=as_float, **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return block.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    rows = [["R", str(2001 + i), f"{i}.5"] for i in range(6)]
    rows[3][1] = year
    panel = work / "float_year.csv"
    panel.write_text("region,year,L\n" + "".join(",".join(row) + "\n" for row in rows))
    events = work / "float_year_events.csv"
    events.write_text("pixel,year\n" + "".join(f"p{i},{row[1]}\n" for i, row in enumerate(rows)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        assert panel_key(outcome(ingest.load_panel_csv, panel)) == panel_key(
            outcome(old_load_panel_csv, panel))
        assert columns_key(outcome(ingest._read_columns, events, ingest._EVENT_COLUMNS)) == (
            columns_key(outcome(old_read_columns, events, OLD_EVENTS)))
        if year != "2004":
            with pytest.raises(LoadError, match="float_year.csv:5: bad year"):
                ingest.load_panel_csv(panel)


def test_rejected_file_without_a_bad_row_is_a_bug(work):
    # the block pass and the row rule disagreeing must not load the file or
    # pass for an input error
    path = work / "good.csv"
    path.write_text("region,year,L\nA,2001,1\n")
    with pytest.raises(RuntimeError, match="no row breaks"):
        ingest._first_fault(path, lambda row: None)


def old_load_pixels(path):
    """The pixel file as the loader read it: the value rule on the oracle's
    prefix columns first, then the oracle's parse error."""
    (ids, regions, *columns), error = old_read_columns(path, OLD_PIXELS)
    values = [np.array(column, dtype=float) for column in columns]
    fault = ingest._first_bad_pixel(ids, *values)
    if fault is not None:
        row, message = fault
        raise LoadError(f"{path}:{_file_line(path, row)}: {message}")
    if error is not None:
        raise error
    return old_grid(ids, regions, *values, ())


PIXEL_FIELDS = st.sampled_from(["1.5", "0", "-1", "100", "101", "nan", "inf", "abc", ""])


@st.composite
def pixel_files(draw):
    """A pixel file whose numbers may break a value rule, fail to parse, or both."""
    header = draw(st.permutations(PIXEL_COLUMNS))
    fields = {"region": st.sampled_from(REGIONS), "biomass": PIXEL_FIELDS,
              "area": PIXEL_FIELDS, "canopy": PIXEL_FIELDS}
    rows = [[f"p{i}" if name == "pixel" else draw(fields[name]) for name in header]
            for i in range(draw(st.integers(0, 10)))]
    return draw(csv_text(header, draw(mutated(rows))))


@settings(max_examples=300, deadline=None)
@given(text=pixel_files(), block=st.sampled_from([1, 3, ingest._BLOCK_ROWS]), limit=LIMITS)
def test_pixel_loader_matches_prefix_then_value_rule(work, text, block, limit):
    pixels, events = work / "pixels.csv", work / "events.csv"
    pixels.write_text(text, encoding="utf-8", newline="")
    events.write_text("pixel,year\n")
    with field_size_limit(limit):
        expected = outcome(old_load_pixels, pixels)
        with mock.patch.object(ingest, "_BLOCK_ROWS", block):
            assert grid_key(outcome(ingest.load_pixel_grid_csv, pixels, events)) == grid_key(
                expected)


@settings(max_examples=300, deadline=None)
@given(
    pixel_ids=st.lists(st.text("ab", max_size=3), max_size=6),
    events=st.lists(st.tuples(st.text("abc", max_size=3), st.integers(2001, 2004)), max_size=8),
)
def test_grid_events_match_dict_and_sort(work, pixel_ids, events):
    expected = outcome(old_event_columns, pixel_ids, events)
    paths = work / "pixels.csv", work / "events.csv"
    for path, header, rows in (
            (paths[0], PIXEL_COLUMNS, [[pixel_id, "A", 1.0, 1.0, 50.0] for pixel_id in pixel_ids]),
            (paths[1], ["pixel", "year"], events)):
        with path.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *rows])
    grid = outcome(ingest.load_pixel_grid_csv, *paths)
    if isinstance(expected, str):
        assert grid == expected
    else:
        assert grid.event_pixel.tolist() == expected[0].tolist()
        assert grid.event_year.tolist() == expected[1].tolist()


def test_ingest_ignores_pixel_order_within_regions(tmp_path):
    # the events are summed in (pixel_id, year) order whatever the row order of
    # the pixels, so ids that arrive unsorted give the same bytes
    grid = simulate_disturbance_grid(GridDGPConfig(n_regions=8, pixels_per_region=60,
                                                   n_years=9, seed=4))
    write_pixel_grid_csv(grid, tmp_path / "pixels.csv", tmp_path / "events.csv")
    header, *rows = (tmp_path / "pixels.csv").read_text(encoding="utf-8").splitlines(True)
    by_region: dict[str, list[str]] = {}
    for row in rows:
        by_region.setdefault(row.split(",")[1], []).append(row)
    rng = np.random.default_rng(4)
    permuted = [row for group in by_region.values() for row in rng.permutation(group)]
    ids = [row.split(",")[0] for row in permuted]
    assert ids != sorted(ids)
    (tmp_path / "permuted.csv").write_text(header + "".join(permuted), encoding="utf-8")
    for name in ("pixels", "permuted"):
        assert cli.main(["ingest", "--pixels", str(tmp_path / f"{name}.csv"),
                         "--events", str(tmp_path / "events.csv"),
                         "--out", str(tmp_path / f"out-{name}")]) == 0
    for output in ("panel.csv", "summary.json"):
        assert ((tmp_path / "out-permuted" / output).read_bytes()
                == (tmp_path / "out-pixels" / output).read_bytes())


PANEL_VALUES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1 / 3])


@st.composite
def panels(draw, names, masked):
    """A panel of ``names`` over 1-4 regions and 1-4 years, each year masked at rate ``masked``."""
    regions = tuple(draw(st.lists(st.sampled_from(REGIONS), min_size=1, max_size=4, unique=True)))
    years = tuple(range(2001, 2001 + draw(st.integers(1, 4))))
    shape = (len(regions), len(years))
    variables = {}
    for name in names:
        values = np.array(draw(st.lists(PANEL_VALUES, min_size=shape[0] * shape[1],
                                        max_size=shape[0] * shape[1]))).reshape(shape)
        available = np.array([draw(st.floats(0, 1)) >= masked for _ in years])
        variables[name] = Grid(values, available)
    return PanelDataset(regions, years, variables)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_panel_writer_matches_per_cell_writer(work, data):
    names = data.draw(st.lists(st.sampled_from(VARIABLES), max_size=3, unique=True))
    panel = data.draw(panels(names, masked=data.draw(st.sampled_from([0.0, 0.05]))))
    expected = outcome(old_write_panel_csv, panel, work / "old.csv")
    result = outcome(write_panel_csv, panel, work / "new.csv")
    if isinstance(expected, str):
        assert result == expected
    else:
        assert (work / "new.csv").read_bytes() == (work / "old.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scatter_matches_per_cell_writer(work, data):
    panel = data.draw(panels(["l", "e"], masked=0.1))
    complete = panel.var("l").available & panel.var("e").available
    if not complete.any():
        return  # no complete year: the fe2w fit that precedes scatter.csv fails first
    header = ["region", "year", "l_demeaned", "e_demeaned"]
    old_write_csv(work / "old_scatter.csv", header, old_scatter_rows(panel, "l", "e"))
    assert cli._scatter_text(panel, "l", "e").encode() == (work / "old_scatter.csv").read_bytes()


# labels the generated panels above do not draw: the region writer fills a
# format template with each label, and quotes it apart from its rows
ODD_LABELS = ["", "{}", "{0}", "{x!r}", "}{", "a{b}c", "\r", "x\r\ny", " pad ", '"', "é"]


@pytest.mark.parametrize("label", ODD_LABELS)
def test_writers_quote_odd_labels_like_csv_writer(work, label):
    values = np.array([[1.5, -0.0], [5e-324, 1 / 3]])
    panel = PanelDataset((label, "B"), (2001, 2002), {"l": Grid.full(values),
                                                      "e": Grid.full(values[::-1])})
    old_write_panel_csv(panel, work / "old.csv")
    write_panel_csv(panel, work / "new.csv")
    assert (work / "new.csv").read_bytes() == (work / "old.csv").read_bytes()
    header = ["region", "year", "l_demeaned", "e_demeaned"]
    old_write_csv(work / "old_scatter.csv", header, old_scatter_rows(panel, "l", "e"))
    assert cli._scatter_text(panel, "l", "e").encode() == (work / "old_scatter.csv").read_bytes()
