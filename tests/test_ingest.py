import re
import tracemalloc

import numpy as np
import pytest

from forestpanel import ingest
from forestpanel.dgp import GridDGPConfig, simulate_disturbance_grid
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


def grid_of(pixel_specs, events):
    """A grid from (pixel_id, region, biomass, area, canopy) rows."""
    return PixelGrid(*zip(*pixel_specs), events)


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
        assert filter_canopy(toy_grid, 0.0) == toy_grid

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

        # reference: one += per loss event, in sorted (pixel_id, year) order
        kept = [spec for spec in specs if spec[4] >= threshold]
        by_id = {spec[0]: spec for spec in kept}
        regions = []
        for spec in kept:
            if spec[1] not in regions:
                regions.append(spec[1])
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
                grid_of([("ok", "A", 1.0, 1.0, 50.0), ("p", "A", *bad)], [])

    def test_columns_of_unequal_length(self):
        with pytest.raises(LoadError, match="differ in length"):
            PixelGrid(["p1", "p2"], ["A"], [1.0, 1.0], [1.0, 1.0], [50.0, 50.0], [])

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

    def test_columns_read_only_and_grid_unhashable(self):
        biomass = np.array([1.0, 2.0])
        grid = PixelGrid(["a", "b"], ["A", "A"], biomass, [1, 1], [50, 50], [("a", 2001)])
        for column in (biomass, grid.area, grid.pixel_ids, grid.event_year):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]
        with pytest.raises(TypeError):
            hash(grid)


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
        assert reloaded == grid
        assert reloaded.regions == grid.regions == ("A", "B")
        for name in ("pixel_ids", "region_code", "biomass", "area", "canopy",
                     "event_pixel", "event_year"):
            assert np.array_equal(getattr(reloaded, name), getattr(grid, name)), name
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


def test_pixel_load_peak_memory_per_pixel(tmp_path):
    # The loader converts each block of rows to columns before reading the
    # next, so no file is held whole as rows of strings. A whole-file read
    # peaked at 594 B/pixel here; reading in blocks peaks near 270.
    grid = simulate_disturbance_grid(
        GridDGPConfig(n_regions=200, pixels_per_region=100, n_years=23, seed=3)
    )
    write_pixel_grid_csv(grid, tmp_path / "pixels.csv", tmp_path / "events.csv")
    tracemalloc.start()
    try:
        loaded = load_pixel_grid_csv(tmp_path / "pixels.csv", tmp_path / "events.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == grid
    assert peak / len(grid.pixel_ids) < 400


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
