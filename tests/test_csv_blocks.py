"""The block CSV readers and column writers against the row-by-row code they replaced.

Each oracle below is the earlier implementation, kept verbatim: the panel
loader parsed the file row by row into (region, year, variable, value) tuples
and assembled them with the tuple-based ``build_panel``; ``_read_columns``
held every row of the file as a list before converting each column, and
returned the columns up to the first bad row with that row's error; the pixel
loader checked the values of those columns before raising the error; the
``PixelGrid`` constructor sorted its events as tuples and found their pixels
with a dict; the panel and scatter writers formatted one cell at a time. The
loaders must give an equal panel, grid or columns, or raise the same
``LoadError`` text, and the writers must write the same bytes.
"""

from __future__ import annotations

import csv
import io
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestpanel import cli, ingest
from forestpanel.dgp import GridDGPConfig, simulate_disturbance_grid
from forestpanel.ingest import LoadError, PixelGrid, write_panel_csv, write_pixel_grid_csv
from forestpanel.panel import Grid, PanelDataset, PanelError, demean_twoway_values


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
    region_index = {r: i for i, r in enumerate(dict.fromkeys(regions))}
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
        for record in reader:
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
        values, exc = _convert_prefix(list(map(itemgetter(i), rows[:stop])), convert)
        if exc is not None:
            stop, message = len(values), str(exc)
        columns.append(values)
    error = None if message is None else LoadError(f"{path}:{_file_line(path, stop)}: {message}")
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

REGIONS = ["A", "B", "C", "a,b", 'q"t', "x\ny"]
VARIABLES = ["L", "E", "x,y", "v\nw"]
# fields that parse differently or not at all: digit separators, non-ASCII
# digits, padding, years out of range or beyond int64, empty and non-finite
ODD_FIELDS = ["2_002", "٢٠٠١", " 2002 ", "999", "10000",
              "300000000000000000", "99999999999999999999", "", "abc", "nan", "inf",
              "1_0", "1e400", "-0.0", "2001.0"]
# a whitespace-only line is a one-field row, so it is drawn rarely
BLANK_LINES = ["\n", "\r\n"] * 4 + ["  \n", " \t\r\n"]
NUMBERS = st.floats(-1e6, 1e6).map(repr)


@st.composite
def csv_text(draw, header, rows):
    """``rows`` written as CSV with random line ends and blank lines between them."""
    out = io.StringIO()
    for row in [header, *rows]:
        csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerow(row)
        if draw(st.integers(0, 5)) == 0:
            out.write(draw(st.sampled_from(BLANK_LINES)))
    return out.getvalue()


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


# ---------------------------------------------------------------------------
# tests

@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


@settings(max_examples=300, deadline=None)
@given(text=panel_files(), block=st.sampled_from([1, 3, ingest._BLOCK_ROWS]))
def test_panel_loader_matches_row_by_row(work, text, block):
    path = work / "panel.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = panel_key(outcome(old_load_panel_csv, path))
    with mock.patch.object(ingest, "_BLOCK_ROWS", block):
        assert panel_key(outcome(ingest.load_panel_csv, path)) == expected


@settings(max_examples=300, deadline=None)
@given(file=column_files(), block=st.sampled_from([1, 3, ingest._BLOCK_ROWS]))
def test_read_columns_matches_whole_file_read(work, file, block):
    events, text = file
    path = work / "columns.csv"
    path.write_text(text, encoding="utf-8", newline="")
    old, new = ((OLD_EVENTS, ingest._EVENT_COLUMNS) if events
                else (OLD_PIXELS, ingest._PIXEL_COLUMNS))
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
    return PixelGrid(ids, regions, *values, ())


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
@given(text=pixel_files(), block=st.sampled_from([1, 3, ingest._BLOCK_ROWS]))
def test_pixel_loader_matches_prefix_then_value_rule(work, text, block):
    pixels, events = work / "pixels.csv", work / "events.csv"
    pixels.write_text(text, encoding="utf-8", newline="")
    events.write_text("pixel,year\n")
    expected = outcome(old_load_pixels, pixels)
    with mock.patch.object(ingest, "_BLOCK_ROWS", block):
        assert outcome(ingest.load_pixel_grid_csv, pixels, events) == expected


@settings(max_examples=300, deadline=None)
@given(
    pixel_ids=st.lists(st.text("ab", max_size=3), max_size=6),
    events=st.lists(st.tuples(st.text("abc", max_size=3), st.integers(2001, 2004)), max_size=8),
)
def test_grid_events_match_dict_and_sort(pixel_ids, events):
    n = len(pixel_ids)
    expected = outcome(old_event_columns, pixel_ids, events)
    grid = outcome(PixelGrid, pixel_ids, ["A"] * n, [1.0] * n, [1.0] * n, [50.0] * n, iter(events))
    if isinstance(expected, str):
        assert grid == expected
    else:
        assert grid.event_pixel.tolist() == expected[0].tolist()
        assert grid.event_year.tolist() == expected[1].tolist()


def test_ingest_ignores_pixel_order_within_regions(tmp_path):
    # the events are summed in (pixel_id, year) order whatever the row order of
    # the pixels, so ids that arrive unsorted give the same bytes, as long as
    # the regions are first seen in the same order
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
    cli._write_scatter(work / "new_scatter.csv", panel, "l", "e")
    assert (work / "new_scatter.csv").read_bytes() == (work / "old_scatter.csv").read_bytes()


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
    cli._write_scatter(work / "new_scatter.csv", panel, "l", "e")
    assert (work / "new_scatter.csv").read_bytes() == (work / "old_scatter.csv").read_bytes()
