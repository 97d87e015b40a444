import csv
import itertools
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_csv_blocks import old_grid

from forestpanel import cli, ingest
from forestpanel.dgp import (
    DGPConfig,
    GridDGPConfig,
    simulate_disturbance_grid,
    simulate_dynamic_panel,
)
from forestpanel.ingest import (
    EmissionFactors,
    LoadError,
    Pixel,
    PixelGrid,
    filter_canopy,
    load_panel_csv,
    load_pixel_grid_csv,
    pixel_panel,
    summary_stats,
    write_panel_csv,
    write_pixel_grid_csv,
)


def write_grid_files(directory, pixel_rows, events):
    """The pixel and event files of raw rows, in the layout of ``write_pixel_grid_csv``."""
    with (directory / "pixels.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pixel", "region", "biomass", "area", "canopy"])
        writer.writerows([pixel_id, region, *map(repr, values)]
                         for pixel_id, region, *values in pixel_rows)
    with (directory / "events.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pixel", "year"])
        writer.writerows(events)
    return directory / "pixels.csv", directory / "events.csv"


def grid_of(pixel_rows, events):
    """The grid the CSV loader reads from (pixel_id, region, biomass, area,
    canopy) rows and (pixel_id, year) events."""
    with tempfile.TemporaryDirectory() as directory:
        return load_pixel_grid_csv(*write_grid_files(Path(directory), pixel_rows, events))


def oracle_grid(pixel_rows, events):
    """``old_grid`` of (pixel_id, region, biomass, area, canopy) rows."""
    return old_grid(*(zip(*pixel_rows) if pixel_rows else [()] * 5), events)


@pytest.fixture
def toy_grid():
    return grid_of(
        [
            ("p1", "A", 10.0, 1.0, 80.0),
            ("p2", "A", 20.0, 1.0, 50.0),
            ("p3", "B", 30.0, 1.0, 95.0),
        ],
        [("p1", 2001), ("p3", 2001)],
    )


class TestFilterCanopy:
    def test_zero_threshold_is_identity(self, toy_grid):
        assert_same_grid(filter_canopy(toy_grid, 0.0), toy_grid)

    def test_all_below_threshold(self):
        grid = grid_of([("p1", "A", 1.0, 1.0, 20.0), ("p2", "A", 1.0, 1.0, 20.0)], [])
        assert filter_canopy(grid, 30.0).pixels == ()

    def test_boundary_inclusive(self):
        grid = grid_of(
            [("p1", "A", 1, 1, 25.0), ("p2", "A", 1, 1, 30.0), ("p3", "A", 1, 1, 80.0)],
            [],
        )
        kept = {p.pixel_id for p in filter_canopy(grid, 30.0).pixels}
        assert kept == {"p2", "p3"}

    def test_events_of_removed_pixels_removed(self, toy_grid):
        filtered = filter_canopy(toy_grid, 60.0)
        assert filtered.loss_events == {("p1", 2001), ("p3", 2001)}
        filtered = filter_canopy(toy_grid, 90.0)
        assert filtered.loss_events == {("p3", 2001)}


class TestAggregateLoss:
    def test_no_events(self, toy_grid):
        grid = grid_of(toy_grid.pixels, [])
        panel = pixel_panel(grid, EmissionFactors(), [2001, 2002])
        assert np.all(panel.var("L").values == 0.0)

    def test_empty_grid_is_rejected(self, toy_grid):
        with pytest.raises(LoadError, match="^empty pixel grid$"):
            pixel_panel(filter_canopy(toy_grid, 100.0), EmissionFactors(), [2001])

    def test_direct_sum(self):
        grid = grid_of(
            [("p1", "A", 1, 0.09, 80), ("p2", "A", 1, 0.09, 80)],
            [("p1", 2005), ("p2", 2005)],
        )
        panel = pixel_panel(grid, EmissionFactors(), [2005])
        assert panel.var("L").values[0, 0] == pytest.approx(0.18)

    def test_matches_brute_force_tally(self):
        rng = np.random.default_rng(99)
        pixels = []
        for i in range(200):
            region = f"R{rng.integers(0, 5)}"
            pixels.append((f"p{i}", region, float(rng.uniform(1, 50)),
                           float(rng.uniform(0.05, 0.2)), float(rng.uniform(0, 100))))
        lost = rng.choice(200, size=80, replace=False)
        events = [(f"p{i}", int(2001 + rng.integers(0, 5))) for i in lost]
        grid = grid_of(pixels, events)
        years = list(range(2001, 2006))
        panel = pixel_panel(grid, EmissionFactors(), years)
        # brute force: iterate pixels, tally independently
        by_id = {p[0]: p for p in pixels}
        for i, region in enumerate(panel.regions):
            for j, year in enumerate(years):
                expected = sum(
                    by_id[pid][3]
                    for pid, yr in events
                    if yr == year and by_id[pid][1] == region
                )
                assert panel.var("L").values[i, j] == pytest.approx(expected, abs=1e-12)


class TestAggregateEmissions:
    def test_direct_evaluation(self):
        grid = grid_of(
            [("p1", "A", 10, 1, 80), ("p2", "A", 20, 1, 80), ("p3", "A", 30, 1, 80)],
            [("p1", 2001), ("p3", 2001)],
        )
        panel = pixel_panel(grid, EmissionFactors(theta=1.0), [2001])
        assert panel.var("E").values[0, 0] == pytest.approx(40.0)

    def test_theta_zero_invalid(self):
        with pytest.raises(LoadError):
            EmissionFactors(theta=0.0)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_theta_invalid(self, theta):
        with pytest.raises(LoadError, match="theta must be finite"):
            EmissionFactors(theta=theta)

    def test_tiny_theta_scales_to_zero(self):
        grid = grid_of([("p1", "A", 10, 1, 80)], [("p1", 2001)])
        tiny = pixel_panel(grid, EmissionFactors(theta=1e-300), [2001])
        assert tiny.var("E").values[0, 0] == pytest.approx(0.0, abs=1e-290)

    def test_molecular_factor_hand_arithmetic(self):
        grid = grid_of(
            [("p1", "A", 100, 1, 80), ("p2", "A", 50, 1, 80)],
            [("p1", 2001), ("p2", 2001)],
        )
        panel = pixel_panel(grid, EmissionFactors(theta=44 / 12), [2001])
        assert panel.var("E").values[0, 0] == pytest.approx(550.0)

    def test_theta_scaling(self):
        rng = np.random.default_rng(4)
        pixels = [(f"p{i}", f"R{i % 3}", float(rng.uniform(1, 99)), 0.09, 80.0) for i in range(30)]
        events = [(f"p{i}", 2001 + i % 4) for i in range(0, 30, 2)]
        grid = grid_of(pixels, events)
        years = range(2001, 2005)
        base = pixel_panel(grid, EmissionFactors(theta=1.0), years)
        scaled = pixel_panel(grid, EmissionFactors(theta=3.5), years)
        assert np.abs(scaled.var("E").values - 3.5 * base.var("E").values).max() < 1e-10

    def test_partition_additivity(self):
        rng = np.random.default_rng(5)
        pixels = [(f"p{i}", f"R{i % 2}", float(rng.uniform(1, 99)), 0.09, 80.0) for i in range(40)]
        events = [(f"p{i}", 2001 + i % 3) for i in range(0, 40, 3)]
        half_a, half_b = pixels[:20], pixels[20:]
        ids_a = {p[0] for p in half_a}
        years = range(2001, 2004)
        factors = EmissionFactors()
        full = pixel_panel(grid_of(pixels, events), factors, years)
        part_a = pixel_panel(
            grid_of(half_a, [e for e in events if e[0] in ids_a]), factors, years
        )
        part_b = pixel_panel(
            grid_of(half_b, [e for e in events if e[0] not in ids_a]), factors, years
        )
        combined = np.zeros_like(full.var("E").values)
        for part in (part_a, part_b):
            for i, region in enumerate(part.regions):
                combined[full.regions.index(region)] += part.var("E").values[i]
        assert np.abs(full.var("E").values - combined).max() < 1e-10

    def test_support_agreement(self):
        rng = np.random.default_rng(6)
        pixels = [(f"p{i}", f"R{i % 3}", float(rng.uniform(1, 99)), 0.09, 80.0) for i in range(30)]
        events = [(f"p{i}", 2001 + i % 4) for i in range(0, 30, 2)]
        grid = grid_of(pixels, events)
        years = range(2001, 2005)
        panel = pixel_panel(grid, EmissionFactors(), years)
        E = panel.var("E").values
        L = panel.var("L").values
        assert np.all(L[E > 0] > 0)


class TestPixelPanelOracle:
    @pytest.mark.parametrize("threshold", [0.0, 40.0])
    def test_matches_per_event_loop_bitwise(self, threshold):
        rng = np.random.default_rng(14)
        specs = [
            (f"p{i}", f"R{rng.integers(0, 7)}", float(rng.lognormal(4.0, 0.8)),
             float(rng.uniform(0.05, 0.2)), float(rng.uniform(0, 100)))
            for i in rng.permutation(500)
        ]
        events = [(specs[k][0], int(rng.integers(2001, 2011)))
                  for k in rng.choice(500, size=300, replace=False)]
        grid = filter_canopy(grid_of(specs, events), threshold)
        years = range(2002, 2010)  # events in 2001 and 2010 fall outside
        theta = 44.0 / 12.0
        panel = pixel_panel(grid, EmissionFactors(theta), years)

        # reference: one += per loss event, in sorted (pixel_id, year) order,
        # into the kept regions in label order
        kept = [spec for spec in specs if spec[4] >= threshold]
        by_id = {spec[0]: spec for spec in kept}
        regions = sorted({spec[1] for spec in kept})
        L = np.zeros((len(regions), len(years)))
        E = np.zeros_like(L)
        for pixel_id, year in sorted(events):
            if pixel_id not in by_id or year not in years:
                continue
            _, region, biomass, area, _ = by_id[pixel_id]
            cell = regions.index(region), year - years[0]
            L[cell] += area
            E[cell] += biomass * area * theta
        assert panel.regions == tuple(regions)
        assert np.array_equal(panel.var("L").values, L)
        assert np.array_equal(panel.var("E").values, E)


class TestPixelGridInvariants:
    def test_pixel_lost_at_most_once(self):
        with pytest.raises(LoadError):
            grid_of([("p1", "A", 1, 1, 80)], [("p1", 2001), ("p1", 2002)])

    def test_unknown_pixel_event(self):
        with pytest.raises(LoadError):
            grid_of([("p1", "A", 1, 1, 80)], [("p2", 2001)])

    def test_bad_pixel_fields(self):
        nan, inf = float("nan"), float("inf")
        for bad, message in (
            ((-1.0, 1.0, 50.0), "negative biomass density"),
            ((1.0, 0.0, 50.0), "nonpositive area"),
            ((1.0, 1.0, 101.0), r"canopy density outside \[0, 100\]"),
            ((nan, 1.0, 50.0), "non-finite biomass density"),
            ((1.0, inf, 50.0), "non-finite area"),
            ((1.0, 1.0, nan), "non-finite canopy density"),
            # several faults in one pixel: the first rule in this order names it
            ((nan, -1.0, 500.0), "non-finite biomass density"),
            ((-1.0, 0.0, 500.0), "negative biomass density"),
            ((1.0, -inf, 500.0), "non-finite area"),
        ):
            with pytest.raises(LoadError, match=f"^pixel p: {message}$"):
                PixelGrid(np.array(["ok", "p"], dtype=object), ("A",), np.zeros(2, np.intp),
                          *np.array([(1.0, 1.0, 50.0), bad]).T, np.zeros(0, np.intp),
                          np.zeros(0, np.int64))
            # the loader names the pixel's line too
            with pytest.raises(LoadError, match=f"pixels.csv:3: pixel p: {message}$"):
                grid_of([("ok", "A", 1.0, 1.0, 50.0), ("p", "A", *bad)], [])

    def test_columns_of_unequal_length(self):
        with pytest.raises(LoadError, match="differ in length"):
            PixelGrid(np.array(["p1", "p2"], dtype=object), ("A",), np.zeros(1, np.intp),
                      np.ones(2), np.ones(2), np.full(2, 50.0), np.zeros(0, np.intp),
                      np.zeros(0, np.int64))

    @pytest.mark.parametrize("region_code, event_pixel, event_year, stranger, message", [
        ([0, 1, -1], [0], [2001], None, r"region code -1 outside \[0, 2\)"),
        ([0, 1, 2], [0], [2001], None, r"region code 2 outside \[0, 2\)"),
        ([0, 1, 1], [0, 3], [2001] * 2, None, r"event row 3 outside \[0, 3\)"),
        ([0, 1, 1], [-1, 0], [2001] * 2, None, r"event row -1 outside \[0, 3\)"),
        ([0, 1, 1], [-2, 0], [2001] * 2, "z", r"event row -2 outside \[-1, 3\)"),
        ([0, 1, 1], [-1, 0], [2001] * 2, "z", "loss event references unknown pixel 'z'"),
        ([0, 1, 1], [0, 1], [2001], None, "event columns differ in length"),
    ], ids=["region-below", "region-past-end", "event-past-end", "unknown-without-stranger",
            "event-below-unknown", "unknown-with-stranger", "event-columns-unequal"])
    def test_codes_outside_their_range_are_named(self, region_code, event_pixel, event_year,
                                                 stranger, message):
        # a code the columns cannot store is never wrapped or indexed past the
        # end, and neither is an event column longer than the other
        with pytest.raises(LoadError, match=f"^{message}$"):
            PixelGrid(np.array(["a", "b", "c"], dtype=object), ("A", "B"),
                      np.array(region_code, np.intp), np.ones(3), np.ones(3), np.full(3, 50.0),
                      np.array(event_pixel, np.intp), np.array(event_year), stranger=stranger)

    def test_object_views_match_columns(self, toy_grid):
        # the benchmark counts pixels and events through these views
        for grid in (toy_grid, filter_canopy(toy_grid, 60.0)):
            assert grid.pixels == tuple(
                Pixel(pixel_id, grid.regions[code], biomass, area, canopy)
                for pixel_id, code, biomass, area, canopy in zip(
                    grid.pixel_ids, grid.region_code, grid.biomass, grid.area, grid.canopy)
            )
            assert grid.loss_events == frozenset(
                zip(grid.pixel_ids[grid.event_pixel], grid.event_year.tolist())
            )
            assert len(grid.loss_events) == len(grid.event_pixel)
        assert toy_grid.pixels[2] == ("p3", "B", 30.0, 1.0, 95.0)
        assert filter_canopy(toy_grid, 60.0).loss_events == {("p1", 2001), ("p3", 2001)}

    def test_columns_read_only(self):
        biomass = np.array([1.0, 2.0])
        grid = PixelGrid(np.array(["a", "b"], dtype=object), ("A",), np.zeros(2, np.intp),
                         biomass, np.ones(2), np.full(2, 50.0), np.zeros(1, np.intp),
                         np.array([2001]))
        for column in (biomass, grid.area, grid.pixel_ids, grid.region_code, grid.event_year):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]

    def test_regions_in_label_order(self):
        # regions first seen as C, A, B; B's pixels fall below the threshold
        grid = grid_of([("p1", "C", 1, 1, 80), ("p2", "A", 1, 1, 80), ("p3", "B", 1, 1, 10),
                        ("p4", "C", 1, 1, 80), ("p5", "B", 1, 1, 20)], [("p4", 2001)])
        assert grid.regions == ("A", "B", "C")
        assert [grid.regions[c] for c in grid.region_code] == ["C", "A", "B", "C", "B"]
        filtered = filter_canopy(grid, 50.0)
        assert filtered.regions == ("A", "C")
        assert [filtered.regions[c] for c in filtered.region_code] == ["C", "A", "C"]
        assert filtered.loss_events == {("p4", 2001)}
        simulated = simulate_disturbance_grid(GridDGPConfig(n_regions=12, pixels_per_region=3,
                                                            n_years=2, seed=1))
        assert simulated.regions == tuple(sorted(simulated.regions))
        assert len(simulated.regions) == 12


GRID_COLUMNS = ("pixel_ids", "region_code", "biomass", "area", "canopy", "event_pixel",
                "event_year")


def grid_or_error(build, *args):
    """``build(*args)``, or the text of the LoadError it raises."""
    try:
        return build(*args)
    except LoadError as exc:
        return f"LoadError: {exc}"


def assert_same_grid(got, expected):
    """Equal regions, and equal columns of equal dtypes; or equal error texts."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert got.regions == expected.regions
    for name in GRID_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        assert getattr(got, name).dtype == getattr(expected, name).dtype, name


# labels that numpy's reader passes to the csv module: a quote, a comma,
# text beyond ASCII; and plain ones, which it reads itself
ID_STEMS = ["p", "P", "q\"", "a,b", "é", "東"]
REGION_LABELS = ["A", "B", "R\"1", "R,2", "Rø", "東京"]


@st.composite
def grid_inputs(draw):
    """Pixel rows and events, shuffled, that may repeat an event exactly or
    hold a grid-level fault: a repeated pixel id, an event naming an unknown
    pixel, a pixel lost twice."""
    n = draw(st.integers(0, 9))
    stems = st.sampled_from(ID_STEMS)
    ids = [f"{draw(stems)}{i}" for i in range(n)]
    if n and draw(st.booleans()):  # a repeated pixel id
        ids[draw(st.integers(0, n - 1))] = ids[draw(st.integers(0, n - 1))]
    values = st.tuples(st.floats(0, 500), st.floats(0.01, 2), st.floats(0, 100))
    rows = [(pixel_id, draw(st.sampled_from(REGION_LABELS)), *draw(values)) for pixel_id in ids]
    # each lost pixel loses once, in a year of its own
    lost = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    events = [(pixel_id, draw(st.integers(2001, 2004))) for pixel_id in lost]
    events += draw(st.lists(st.sampled_from(events), max_size=3)) if events else []  # repeats
    if draw(st.booleans()):  # a pixel lost twice, or an unknown pixel
        events.append((draw(st.sampled_from(ids + [f"{draw(stems)}{n + 1}", "zz", "0"])),
                       draw(st.integers(2001, 2004))))
    return draw(st.permutations(rows)), draw(st.permutations(events))


class TestOneConstructionPath:
    """The CSV loader and the simulator build every grid through one
    constructor, and give the columns and faults of ``old_grid``, the
    from-strings constructor's oracle with its regions in label order."""

    @settings(max_examples=200, deadline=None)
    @given(case=grid_inputs())
    def test_loader_equals_constructor(self, tmp_path_factory, case):
        pixel_rows, events = case
        expected = grid_or_error(oracle_grid, pixel_rows, events)
        paths = write_grid_files(tmp_path_factory.mktemp("grid"), pixel_rows, events)
        loaded = grid_or_error(load_pixel_grid_csv, *paths)
        assert_same_grid(loaded, expected)
        if not isinstance(loaded, str):
            # and the files the writer makes of the grid load back to it
            write_pixel_grid_csv(loaded, *paths)
            assert_same_grid(load_pixel_grid_csv(*paths), expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_simulator_equals_constructor_and_loader(self, tmp_path, seed):
        grid = simulate_disturbance_grid(
            GridDGPConfig(n_regions=6, pixels_per_region=30, n_years=8, ignition_rate=1.5,
                          seed=seed))
        assert_same_grid(grid, oracle_grid(grid.pixels, grid.loss_events))
        # shuffled rows keep the pixel order they are read in, and the events'
        # (pixel_id, year) order
        rng = np.random.default_rng(seed)
        pixels = [grid.pixels[i] for i in rng.permutation(len(grid.pixel_ids))]
        events = sorted(grid.loss_events)
        events = [events[i] for i in rng.permutation(len(events))]
        shuffled = load_pixel_grid_csv(*write_grid_files(tmp_path, pixels, events))
        assert_same_grid(shuffled, oracle_grid(pixels, events))
        assert shuffled.regions == grid.regions
        assert shuffled.pixels == tuple(pixels)
        assert shuffled.loss_events == grid.loss_events
        assert np.array_equal(shuffled.pixel_ids[shuffled.event_pixel],
                              grid.pixel_ids[grid.event_pixel])
        assert np.array_equal(shuffled.event_year, grid.event_year)

    @pytest.mark.parametrize("events, message", [
        # the smaller pixel id names the fault, whichever fault it is
        ([("b", 2001), ("b", 2002), ("c", 2001)], "pixel 'b' lost more than once"),
        ([("b", 2001), ("b", 2002), ("a0", 2001)], "loss event references unknown pixel 'a0'"),
        ([("c", 2001), ("zz", 2003), ("c", 2002)], "pixel 'c' lost more than once"),
        ([("c", 2001), ("c", 2001)], None),  # an exact repeat collapses
    ], ids=["twice-before-unknown", "unknown-before-twice", "unknown-after-twice", "repeat"])
    def test_grid_faults(self, tmp_path, events, message):
        pixel_rows = [("c", "A", 1.0, 1.0, 50.0), ("b", "A", 1.0, 1.0, 50.0)]
        expected = grid_or_error(oracle_grid, pixel_rows, events)
        assert expected == f"LoadError: {message}" if message else len(expected.event_year) == 1
        paths = write_grid_files(tmp_path, pixel_rows, events)
        assert_same_grid(grid_or_error(load_pixel_grid_csv, *paths), expected)

    @settings(max_examples=100, deadline=None)
    @given(case=grid_inputs())
    def test_colliding_hashes_join_as_distinct_ones_do(self, tmp_path_factory, case):
        # every id hashing alike sends the join to its dict: the loader must
        # give the grids and fault texts of the hash path
        pixel_rows, events = case
        paths = write_grid_files(tmp_path_factory.mktemp("grid"), pixel_rows, events)
        expected = grid_or_error(load_pixel_grid_csv, *paths)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_id_hashes", lambda ids: np.zeros(len(ids), np.int64))
            if len(pixel_rows) > 1:
                ids = np.array([row[0] for row in pixel_rows], dtype=object)
                assert ingest._RowJoin(ids).row_of is not None
            assert_same_grid(grid_or_error(load_pixel_grid_csv, *paths), expected)

    def test_event_sharing_a_pixels_hash_is_a_stranger(self, monkeypatch):
        # "zz" lands on "b"'s row and "c" past the last hash, but neither id
        # equals that row's, so both name no pixel
        fake = {"a": 1, "b": 2, "zz": 2, "c": 5, "0": 0}
        monkeypatch.setattr(ingest, "_id_hashes",
                            lambda ids: np.fromiter(map(fake.get, ids), np.int64, len(ids)))
        join = ingest._RowJoin(np.array(["b", "a"], dtype=object))
        assert join.row_of is None
        rows = join(np.array(["a", "zz", "b", "c", "0"], dtype=object))
        assert rows.tolist() == [1, -1, 0, -1, -1]
        assert (join.strangers, join.stranger, join.repeated_id) == (["zz", "c", "0"], "0", False)
        with pytest.raises(LoadError, match="^loss event references unknown pixel 'zz'$"):
            grid_of([("b", "A", 1.0, 1.0, 50.0), ("a", "A", 1.0, 1.0, 50.0)],
                    [("a", 2001), ("zz", 2002)])

    def test_event_line_fault_comes_before_a_repeated_pixel_id(self, tmp_path):
        pixel_rows = [("p1", "A", 1.0, 1.0, 50.0), ("p1", "A", 1.0, 1.0, 50.0)]
        paths = write_grid_files(tmp_path, pixel_rows, [("p1", 2001), ("p1", "20x2")])
        with pytest.raises(LoadError, match=r"events\.csv:3: invalid literal"):
            load_pixel_grid_csv(*paths)
        paths = write_grid_files(tmp_path, pixel_rows, [("p1", 2001)])
        with pytest.raises(LoadError, match="^duplicate pixel ids$"):
            load_pixel_grid_csv(*paths)
        # a repeated id comes before an event that names no pixel
        paths = write_grid_files(tmp_path, pixel_rows, [("p0", 2001), ("p1", 2002)])
        with pytest.raises(LoadError, match="^duplicate pixel ids$"):
            load_pixel_grid_csv(*paths)

    def test_good_load_checks_values_in_loader_and_grid(self, tmp_path, monkeypatch):
        # once each, over all pixels: the loader's check names a bad line,
        # and the grid checks every grid it builds
        calls = []
        first_bad_pixel = ingest._first_bad_pixel

        def counted(*columns):
            calls.append(len(columns[0]))
            return first_bad_pixel(*columns)

        grid = simulate_disturbance_grid(GridDGPConfig(n_regions=5, pixels_per_region=20,
                                                       n_years=6, seed=2))
        write_pixel_grid_csv(grid, tmp_path / "pixels.csv", tmp_path / "events.csv")
        monkeypatch.setattr(ingest, "_first_bad_pixel", counted)
        assert_same_grid(load_pixel_grid_csv(tmp_path / "pixels.csv", tmp_path / "events.csv"),
                         grid)
        assert calls == [100, 100]


class TestPanelCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "region,year,L\nA,2001,1.5\nA,2002,2.5\nB,2001,3.5\nB,2002,4.5\n"
        )
        panel, dropped = load_panel_csv(path)
        assert (panel.N, panel.T) == (2, 2)
        assert dropped == []

    def test_duplicate_row_names_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("region,year,L\nA,2001,1\nA,2001,2\n")
        with pytest.raises(LoadError, match=":3"):
            load_panel_csv(path)

    def test_malformed_number_names_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("region,year,L\nA,2001,abc\n")
        with pytest.raises(LoadError, match=":2"):
            load_panel_csv(path)
        # a quoted field spanning two lines moves the bad row to line 4
        path.write_text('region,year,L\n"A\nB",2001,1\nA,2001,abc\n')
        with pytest.raises(LoadError, match="panel.csv:4: malformed number 'abc'"):
            load_panel_csv(path)
        # a year outside 1000-9999 would span an unbounded year range
        for year in ("300000000000000000", "999", "10000"):
            path.write_text(f"region,year,L\nA,2001,1\nA,{year},2\n")
            with pytest.raises(LoadError, match=f"panel.csv:3: year {year} outside 1000-9999"):
                load_panel_csv(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_number_names_line(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_text(f"region,year,L,E\nA,2001,1,1\nA,2002,{text},1\n")
        with pytest.raises(LoadError, match=f"panel.csv:3: non-finite number '{text}' for L$"):
            load_panel_csv(path)
        # checked in header order with the malformed number, and also in a
        # region that would be dropped for a missing year
        path.write_text(f"region,year,L,E\nA,2001,1,1\nA,2002,1,1\nB,2001,abc,{text}\n"
                        f"B,2002,1,1\nC,2001,1,{text}\n")
        with pytest.raises(LoadError, match="panel.csv:4: malformed number 'abc' for L$"):
            load_panel_csv(path)
        path.write_text(f"region,year,L,E\nA,2001,1,1\nA,2002,1,1\nC,2001,1,{text}\n")
        with pytest.raises(LoadError, match=f"panel.csv:4: non-finite number '{text}' for E$"):
            load_panel_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("county,yr,L\nA,2001,1\n")
        with pytest.raises(LoadError, match="header"):
            load_panel_csv(path)

    def test_repeated_variable_is_a_header_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        # the first data row is bad too: the header is checked before any row
        path.write_text("region,year,L,E,L\nA,20x1,1,2,3\n")
        with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: header repeats column 'L'$"):
            load_panel_csv(path)

    def test_drop_report(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "region,year,L\nA,2001,1\nA,2002,2\nB,2001,3\nB,2002,4\nC,2001,5\n"
        )
        panel, dropped = load_panel_csv(path)
        assert dropped == ["C"]
        assert set(panel.regions) == {"A", "B"}

    def test_round_trip_bit_equal(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "panel.csv"
        rows = "region,year,L,E\n" + "".join(
            f"R{i},{2001 + j},{rng.uniform(0, 1e6)!r},{rng.uniform(0, 1e8)!r}\n"
            for i in range(4)
            for j in range(5)
        )
        path.write_text(rows)
        panel, _ = load_panel_csv(path)
        out = tmp_path / "copy.csv"
        write_panel_csv(panel, out)
        reloaded, _ = load_panel_csv(out)
        for name in panel.variables:
            assert np.array_equal(
                panel.var(name).values, reloaded.var(name).values
            )

    def test_pixel_grid_csv_round_trip(self, tmp_path, toy_grid=None):
        grid = grid_of(
            [("p1", "A", 10.5, 0.09, 80.0), ("p2", "B", 20.25, 0.09, 45.0)],
            [("p1", 2003)],
        )
        write_pixel_grid_csv(grid, tmp_path / "pixels.csv", tmp_path / "events.csv")
        reloaded = load_pixel_grid_csv(tmp_path / "pixels.csv", tmp_path / "events.csv")
        assert_same_grid(reloaded, grid)
        assert reloaded.regions == ("A", "B")
        assert reloaded.pixel_ids.tolist() == ["p1", "p2"]
        assert reloaded.biomass.tolist() == [10.5, 20.25]
        assert reloaded.event_year.tolist() == [2003]

    @pytest.mark.parametrize("rows, line, message", [
        # the first bad line wins, whatever is wrong with it
        (["p1,A,1,1,50", "p2,A,-1,1,50", "p3,A,x,1,50"], 3, "negative biomass"),
        (["p1,A,1,1,50", "p2,A,1,x,50", "p3,A,1,1,500"], 3, "could not convert"),
        (["p1,A,1,1,50", "p2,A,1,1,50", "p3,A,1"], 4, "expected at least 5 fields"),
        (["p1,A,1,1,50", "p2,A,1,inf,50"], 3, "non-finite area"),
        (["p1,A,1,1,nan"], 2, "non-finite canopy"),
        # blank lines are not rows but still count as lines
        (["p1,A,1,1,50", "", "p3,A,-1,1,50"], 4, "negative biomass"),
        (["p1,A,1,1,50", "", "p3,A,x,1,50"], 4, "could not convert"),
        (["", "p1,A,1,1,50", "", "", "p4,A,1"], 6, "expected at least 5 fields"),
    ])
    def test_pixel_errors_name_first_bad_line(self, tmp_path, rows, line, message):
        (tmp_path / "pixels.csv").write_text(
            "pixel,region,biomass,area,canopy\n" + "\n".join(rows) + "\n"
        )
        (tmp_path / "events.csv").write_text("pixel,year\n")
        with pytest.raises(LoadError, match=f"pixels.csv:{line}: .*{message}"):
            load_pixel_grid_csv(tmp_path / "pixels.csv", tmp_path / "events.csv")

    @pytest.mark.parametrize("last, message", [
        ("101", "pixel p999: canopy density outside [0, 100]"),
        ("abc", "could not convert string to float: 'abc'"),
    ], ids=["value-fault", "parse-fault"])
    def test_rejected_pixel_file_checks_values_at_most_twice(self, tmp_path, monkeypatch,
                                                            last, message):
        # the re-read that names the bad line checks the rows' values at once,
        # not one row at a time
        rows = [f"p{i},A,1,1,{last if i == 999 else 50}" for i in range(1000)]
        (tmp_path / "pixels.csv").write_text(
            "pixel,region,biomass,area,canopy\n" + "\n".join(rows) + "\n"
        )
        (tmp_path / "events.csv").write_text("pixel,year\n")
        calls = []
        first_bad_pixel = ingest._first_bad_pixel

        def counted(*columns):
            calls.append(len(columns[0]))
            return first_bad_pixel(*columns)

        monkeypatch.setattr(ingest, "_first_bad_pixel", counted)
        with pytest.raises(LoadError, match=re.escape(f"pixels.csv:1001: {message}")):
            load_pixel_grid_csv(tmp_path / "pixels.csv", tmp_path / "events.csv")
        assert 1 <= len(calls) <= 2

    def test_event_file_checks(self, tmp_path):
        (tmp_path / "pixels.csv").write_text(
            "pixel,region,biomass,area,canopy\np1,A,1,1,50\np2,A,1,1,50\n"
        )
        events = tmp_path / "events.csv"
        events.write_text("pixel,year\np1,2001\np1,2001\n")  # exact repeats collapse
        grid = load_pixel_grid_csv(tmp_path / "pixels.csv", events)
        assert grid.loss_events == {("p1", 2001)}
        for text, message in (
            ("pixel,year\np1,2001\np2,20x2\n", "events.csv:3: invalid literal"),
            ("pixel,year\np1,2001\np2\n", "events.csv:3: expected at least 2 fields"),
            ("pixel,year\np1,2001\np1,2002\n", "'p1' lost more than once"),
            ("pixel,year\np9,2001\n", "unknown pixel 'p9'"),
        ):
            events.write_text(text)
            with pytest.raises(LoadError, match=message):
                load_pixel_grid_csv(tmp_path / "pixels.csv", events)


OVERSIZE = "9" * 200_000  # beyond the csv module's default field limit of 131072


class TestUnreadableRow:
    """A row the csv module cannot read is a line-numbered LoadError, and a bad
    row above it, even in the same block, is reported instead."""

    @pytest.fixture(params=[1, 3, ingest._BLOCK_ROWS])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", request.param)

    @pytest.mark.parametrize("rows, message", [
        (["A,2001,1", f"B,2001,{OVERSIZE}"], "panel.csv:3: field larger than field limit"),
        (["A,2001,abc", f"B,2001,{OVERSIZE}"], "panel.csv:2: malformed number 'abc' for L"),
        (["A,2001,1", "A,2001,2", f"B,2001,{OVERSIZE}"], "panel.csv:3: duplicate row for"),
        (["A,2001,1", "", f'B,2001,"1\n{OVERSIZE}"'], "panel.csv:5: field larger than field limit"),
    ])
    def test_panel_loader(self, tmp_path, block_rows, rows, message):
        path = tmp_path / "panel.csv"
        path.write_text("region,year,L\n" + "\n".join(rows) + "\n")
        with pytest.raises(LoadError, match=f"^{re.escape(str(tmp_path))}/{message}"):
            load_panel_csv(path)

    def test_panel_header(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(f"region,year,{OVERSIZE}\nA,2001,1\n")
        with pytest.raises(LoadError, match="panel.csv:1: field larger than field limit"):
            load_panel_csv(path)

    @pytest.mark.parametrize("rows, message", [
        (["p1,A,1,1,50", f"p2,A,1,{OVERSIZE},50"], "pixels.csv:3: field larger than field limit"),
        (["p1,A,x,1,50", f"p2,A,1,{OVERSIZE},50"], "pixels.csv:2: could not convert"),
        (["p1,A,-1,1,50", f"p2,A,1,{OVERSIZE},50"], "pixels.csv:2: pixel p1: negative biomass"),
        ([f"{OVERSIZE},A,1,1,50"], "pixels.csv:2: field larger than field limit"),
    ])
    def test_pixel_loader(self, tmp_path, block_rows, rows, message):
        (tmp_path / "pixels.csv").write_text(
            "pixel,region,biomass,area,canopy\n" + "\n".join(rows) + "\n"
        )
        (tmp_path / "events.csv").write_text("pixel,year\n")
        with pytest.raises(LoadError, match=message):
            load_pixel_grid_csv(tmp_path / "pixels.csv", tmp_path / "events.csv")

    @pytest.mark.parametrize("text, message", [
        (f"pixel,year\np1,2001\np1,{OVERSIZE}\n", "events.csv:3: field larger than field limit"),
        (f"pixel,year\np1,20x1\np1,{OVERSIZE}\n", "events.csv:2: invalid literal"),
        (f"pixel,{OVERSIZE}\n", "events.csv:1: field larger than field limit"),
    ])
    def test_event_loader(self, tmp_path, block_rows, text, message):
        (tmp_path / "pixels.csv").write_text("pixel,region,biomass,area,canopy\np1,A,1,1,50\n")
        (tmp_path / "events.csv").write_text(text)
        with pytest.raises(LoadError, match=message):
            load_pixel_grid_csv(tmp_path / "pixels.csv", tmp_path / "events.csv")


@pytest.fixture
def pixel_files_20k(tmp_path):
    grid = simulate_disturbance_grid(
        GridDGPConfig(n_regions=200, pixels_per_region=100, n_years=23, seed=3)
    )
    write_pixel_grid_csv(grid, tmp_path / "pixels.csv", tmp_path / "events.csv")
    return grid, tmp_path / "pixels.csv", tmp_path / "events.csv"


def test_pixel_load_peak_memory_per_pixel(pixel_files_20k):
    # The loader converts each block of rows to columns before reading the
    # next, so no file is held whole as rows of strings. A whole-file read
    # peaked at 594 B/pixel here; reading in blocks, near 276; coding each
    # block's region labels and joining each block of event ids to pixel
    # rows at once, without a string per pixel region or per event, 205;
    # joining event ids through sorted id hashes, not an id-to-row dict, 155,
    # which the one constructor's sort of the region labels keeps.
    grid, pixels, events = pixel_files_20k
    tracemalloc.start()
    try:
        loaded = load_pixel_grid_csv(pixels, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_grid(loaded, grid)
    assert peak / len(grid.pixel_ids) < 175


def test_ingest_call_peak_memory_per_pixel(pixel_files_20k):
    # the whole ingest subcommand, which holds the loaded and the filtered
    # grid together, peaks near the load: 276 B/pixel when the grid was built
    # from strings, 205 from coded columns, 161 with the hash join, where
    # filtering the loaded grid, not the load, sets the peak. The filter finds
    # the regions it keeps with np.bincount: np.unique, which keeps about
    # 1.1 MB allocated after its first call on numpy 2.4, peaked at 216
    grid, pixels, events = pixel_files_20k
    args = cli.build_parser().parse_args(
        ["ingest", "--pixels", str(pixels), "--events", str(events), "--out", "unused"])
    tracemalloc.start()
    try:
        files, lines = cli.cmd_ingest(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == ["ingest: 200 regions x 23 years, 0 dropped"]
    assert peak / len(grid.pixel_ids) < 175


def test_rejected_pixel_file_peaks_near_a_good_one(tmp_path):
    # A file rejected at its last row is read again row by row to name that
    # row; the re-read converts each block of rows to columns, so it never
    # holds every row as a list. Holding them all peaked 2.3x a good read.
    rows = [f"p{i},R{i % 7},{1.5 + i!r},0.09,{i % 101}\n" for i in range(10 * ingest._BLOCK_ROWS)]
    header = "pixel,region,biomass,area,canopy\n"
    (tmp_path / "good.csv").write_text(header + "".join(rows))
    (tmp_path / "bad.csv").write_text(header + "".join(rows[:-1]) + "p,R0,1.0,0.09,abc\n")

    def peak(name):
        tracemalloc.start()
        try:
            ingest._read_columns(tmp_path / name, ingest._PIXEL_COLUMNS)
        except LoadError as exc:
            assert str(exc).startswith(f"{tmp_path / name}:{len(rows) + 1}: ")
        finally:
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return top

    good = peak("good.csv")
    assert peak("bad.csv") <= 1.25 * good


def test_panel_load_peak_memory_per_row(tmp_path):
    # Each block becomes columns before the next is read, and each variable's
    # grid is filled straight from the (rows, V) value block. The row-by-row
    # loader that built (region, year, variable, value) tuples peaked at
    # 702 B/row on this file; reading in blocks but passing N*T*V-long cell
    # columns to the panel builder peaked near 290; now near 100.
    panel, _ = simulate_dynamic_panel(DGPConfig(n_regions=1000, n_years=23, rho=0.5, beta=1.0,
                                                seed=3))
    write_panel_csv(panel, tmp_path / "panel.csv")
    tracemalloc.start()
    try:
        loaded, dropped = load_panel_csv(tmp_path / "panel.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dropped == [] and loaded.regions == panel.regions
    assert peak / (panel.N * panel.T) < 200


def test_rejected_panel_file_peaks_near_a_good_one(tmp_path):
    # A file rejected at its last row is read again row by row, keeping only
    # the (region, year) pairs seen, so its peak stays near a good load's
    rows = [f"R{i // 23},{2001 + i % 23},{1.5 + i!r},{0.25 * i!r}\n"
            for i in range(10 * ingest._BLOCK_ROWS)]
    header = "region,year,l,e\n"
    (tmp_path / "good.csv").write_text(header + "".join(rows))
    (tmp_path / "bad.csv").write_text(header + "".join(rows[:-1]) + rows[-1][:-3] + "abc\n")

    def peak(name):
        tracemalloc.start()
        try:
            load_panel_csv(tmp_path / name)
        except LoadError as exc:
            assert str(exc).startswith(f"{tmp_path / name}:{len(rows) + 1}: malformed number")
        finally:
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return top

    good = peak("good.csv")
    assert peak("bad.csv") <= 1.25 * good


class TestSummaryStats:
    def make(self, values):
        from forestpanel.panel import Grid, PanelDataset

        arr = np.asarray(values, float).reshape(1, -1)
        return PanelDataset(("A",), tuple(range(2001, 2001 + arr.shape[1])),
                            {"x": Grid.full(arr)})

    def test_constant(self):
        stats = summary_stats(self.make([7, 7, 7]), "x")
        assert stats == {"mean": 7.0, "std": 0.0, "min": 7.0, "median": 7.0, "max": 7.0}

    def test_median_odd(self):
        assert summary_stats(self.make([0, 75, 100]), "x")["median"] == 75.0

    def test_hand_computation(self):
        stats = summary_stats(self.make([1, 2, 3, 4]), "x")
        assert stats["mean"] == 2.5
        assert stats["std"] == pytest.approx(np.sqrt(5 / 3), abs=1e-12)
        assert stats["median"] == 2.5
        assert (stats["min"], stats["max"]) == (1.0, 4.0)

    def test_cells_are_summed_in_region_label_order(self, tmp_path):
        # 1e16 + 1 rounds back to 1e16, so a sum in row order depends on which
        # region's rows come first; every file order gives the sorted order's
        cells = {"A": ["1e16", "1"], "B": ["1", "1"], "C": ["-1e16", "1"]}
        summaries = []
        for regions in itertools.permutations(cells):
            path = tmp_path / f"{''.join(regions)}.csv"
            path.write_text("region,year,x\n" + "".join(
                f"{r},{2001 + j},{v}\n" for r in regions for j, v in enumerate(cells[r])))
            panel, _ = load_panel_csv(path)
            assert panel.regions == ("A", "B", "C")
            summaries.append(summary_stats(panel, "x"))
        # A, B, C: 1e16 + 1 + 1 + 1 - 1e16 + 1 = 1
        assert summaries[0]["mean"] == 1 / 6
        assert all(s == summaries[0] for s in summaries)
