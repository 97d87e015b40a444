import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from forestpanel.cli import ESTIMATORS
from forestpanel.dgp import DGPConfig, simulate_dynamic_panel
from forestpanel.gmm import GmmOptions
from forestpanel.panel import (
    Grid,
    PanelDataset,
    PanelError,
    build_panel,
    demean_twoway_values,
    interact,
    lag,
    log1,
)

# ln(651812), frozen from a 30-digit evaluation (paper's max loss plus one)
LOG_651812 = 13.3875114557715111


def rows_for(regions, years, variables):
    out = []
    for r in regions:
        for y in years:
            for v, grids in variables.items():
                out.append((r, y, v, grids[r][y]))
    return out


def make_panel(values, years_start=2001, extra=None):
    values = np.asarray(values, dtype=float)
    N, T = values.shape
    variables = {"x": Grid.full(values)}
    if extra:
        variables.update({k: Grid.full(np.asarray(v, float)) for k, v in extra.items()})
    return PanelDataset(
        tuple(f"r{i}" for i in range(N)),
        tuple(range(years_start, years_start + T)),
        variables,
    )


class TestBuildPanel:
    def test_complete_input(self):
        rows = [("A", 2001, "x", 1.0), ("A", 2002, "x", 2.0),
                ("B", 2001, "x", 3.0), ("B", 2002, "x", 4.0)]
        panel, dropped = build_panel(rows)
        assert (panel.N, panel.T) == (2, 2)
        assert dropped == []

    def test_incomplete_region_dropped(self):
        rows = [("A", 2001, "x", 1.0), ("A", 2002, "x", 2.0),
                ("B", 2001, "x", 3.0)]
        panel, dropped = build_panel(rows)
        assert panel.N == 1
        assert dropped == ["B"]

    def test_23_year_panel_with_one_gap(self):
        # enumerate cells by hand: region C misses 2017, so C is dropped
        rows = []
        for region in ("A", "B", "C"):
            for year in range(2001, 2024):
                if region == "C" and year == 2017:
                    continue
                rows.append((region, year, "x", float(year)))
        panel, dropped = build_panel(rows)
        assert (panel.N, panel.T) == (2, 23)
        assert dropped == ["C"]

    def test_empty_input(self):
        with pytest.raises(PanelError):
            build_panel([])

    def test_zero_survivors(self):
        rows = [("A", 2001, "x", 1.0), ("B", 2002, "x", 2.0)]
        with pytest.raises(PanelError):
            build_panel(rows)

    def test_duplicate_cell(self):
        with pytest.raises(PanelError, match="duplicate"):
            build_panel([("A", 2001, "x", 1.0), ("A", 2001, "x", 2.0)])

    def test_first_seen_order_and_drops_with_shuffled_rows(self):
        rng = np.random.default_rng(12)
        names = [f"R{i}" for i in rng.permutation(2000)]
        incomplete = set(rng.choice(names, size=50, replace=False).tolist())
        rows = [
            (r, y, v, float(rng.random()))
            for r in names for y in range(2001, 2024) for v in ("L", "E")
            if not (r in incomplete and y == 2010 and v == "E")
        ]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        panel, dropped = build_panel(rows)

        def first_seen(items):
            order, seen = [], set()
            for item in items:
                if item not in seen:
                    seen.add(item)
                    order.append(item)
            return order

        regions = first_seen(row[0] for row in rows)
        assert list(panel.regions) == [r for r in regions if r not in incomplete]
        assert dropped == [r for r in regions if r in incomplete]
        assert list(panel.variables) == first_seen(row[2] for row in rows)
        assert panel.years == tuple(range(2001, 2024))
        index = {r: i for i, r in enumerate(panel.regions)}
        for r, y, v, value in rows:
            if r in index:
                assert panel.var(v).values[index[r], y - 2001] == value

    def test_balancing_idempotent(self):
        rows = rows_for(
            ["A", "B"], [2001, 2002], {"x": {"A": {2001: 1, 2002: 2}, "B": {2001: 3, 2002: 4}}}
        )
        panel, dropped = build_panel(rows)
        rebuilt_rows = [
            (r, y, "x", panel.var("x").values[i, j])
            for i, r in enumerate(panel.regions)
            for j, y in enumerate(panel.years)
        ]
        _, dropped2 = build_panel(rebuilt_rows)
        assert dropped2 == []


class TestLog1:
    def test_zero(self):
        assert log1(0.0) == 0.0

    def test_inverse_of_exp(self):
        assert log1(np.e - 1) == pytest.approx(1.0, abs=1e-12)

    def test_paper_max_loss(self):
        assert log1(651811.0) == pytest.approx(LOG_651812, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(PanelError):
            log1(-0.5)

    @given(st.tuples(st.floats(0, 1e12), st.floats(0, 1e12)).filter(lambda p: p[0] != p[1]))
    def test_strictly_increasing(self, pair):
        lo, hi = sorted(pair)
        assert log1(lo) <= log1(hi)
        # log1(hi) - log1(lo) >= (hi - lo) / (1 + hi); above a few ulps of
        # log1(hi) the gap survives rounding, below it the two may be equal
        # (1e12 and its predecessor both give 27.63102111592955)
        if (hi - lo) / (1.0 + hi) > 4 * math.ulp(log1(hi)):
            assert log1(lo) < log1(hi)


class TestDemeanTwoway:
    def test_additively_separable_grid(self):
        assert np.allclose(demean_twoway_values([[1, 2], [3, 4]]), 0.0, atol=1e-12)

    def test_constant_grid(self):
        assert np.allclose(demean_twoway_values(np.full((3, 4), 7.25)), 0.0, atol=1e-12)

    def test_matches_dummy_regression_oracle(self):
        rng = np.random.default_rng(1234)
        values = rng.normal(size=(5, 7))
        out = demean_twoway_values(values)
        # oracle: residuals from OLS on region and year indicators
        N, T = values.shape
        rows = []
        for i in range(N):
            for j in range(T):
                reg = np.zeros(N - 1)
                yr = np.zeros(T - 1)
                if i > 0:
                    reg[i - 1] = 1
                if j > 0:
                    yr[j - 1] = 1
                rows.append(np.concatenate([[1.0], reg, yr]))
        X = np.array(rows)
        y = values.ravel()
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = (y - X @ beta).reshape(N, T)
        assert np.abs(out - resid).max() < 1e-8

    def test_zero_margins(self):
        rng = np.random.default_rng(7)
        out = demean_twoway_values(rng.normal(size=(6, 9)) * 100)
        assert np.abs(out.sum(axis=0)).max() < 1e-10
        assert np.abs(out.sum(axis=1)).max() < 1e-10

    def test_projection_idempotent(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(4, 6))
        once = demean_twoway_values(values)
        twice = demean_twoway_values(once)
        assert np.abs(once - twice).max() < 1e-12


class TestLagDiff:
    def test_lag_shift(self):
        panel = make_panel([[1, 2, 3]])
        grid = lag(panel, "x", 1)
        assert not grid.available[0]
        assert grid.available[1:].all()
        assert grid.values[0, 1] == 1 and grid.values[0, 2] == 2

    def test_lag_too_long(self):
        with pytest.raises(PanelError):
            lag(make_panel([[1, 2, 3]]), "x", 3)


class TestInteract:
    def test_constant_moderator(self):
        panel = make_panel([[1, 2]], extra={"z": [[3, 3]]})
        assert interact(panel, "x", "z").values.tolist() == [[3.0, 6.0]]

    def test_zero_moderator(self):
        panel = make_panel([[5, 9]], extra={"z": [[0, 0]]})
        assert np.allclose(interact(panel, "x", "z").values, 0.0)

    def test_elementwise_product_oracle(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        panel = make_panel(a, extra={"z": b})
        assert np.allclose(interact(panel, "x", "z").values, a * b)

    def test_inherits_availability(self):
        panel = make_panel([[1, 2, 3]], extra={"z": [[2, 2, 2]]})
        lagged = panel.with_variable("x_l1", lag(panel, "x", 1))
        out = interact(lagged, "x_l1", "z")
        assert not out.available[0] and out.available[1:].all()


class TestYearMask:
    """A grid flags its years, not its cells: a balanced panel can only lack whole years."""

    def test_cell_mask_rejected(self):
        values = np.ones((2, 3))
        with pytest.raises(PanelError, match="one flag per year"):
            Grid(values, np.ones(values.shape, dtype=bool))

    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_wrong_length_rejected(self, length):
        with pytest.raises(PanelError, match="one flag per year"):
            Grid(np.ones((2, 3)), np.ones(length, dtype=bool))

    def test_full_flags_every_year(self):
        assert Grid.full(np.ones((2, 3))).available.shape == (3,)

    def test_non_finite_only_in_masked_years(self):
        values = np.ones((2, 3))
        values[1, 1] = np.nan
        Grid(values, np.array([True, False, True]))
        with pytest.raises(PanelError, match="non-finite"):
            Grid(values, np.array([False, True, True]))

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_fit_residuals_flag_years(self, name):
        panel, _ = simulate_dynamic_panel(
            DGPConfig(n_regions=30, n_years=7, rho=0.4, beta=1.0, sigma_alpha=1.0, seed=5)
        )
        fit = ESTIMATORS[name].fit(panel, "l", "e", GmmOptions())
        available = fit.residual_grid.available
        assert available.shape == (panel.T,)
        if name in ("pooled", "fe2w", "lsdv"):
            assert fit.n_obs == panel.N * available.sum()


class TestDatasetInvariants:
    def test_years_must_be_consecutive(self):
        with pytest.raises(PanelError):
            PanelDataset(("a",), (2001, 2003), {})

    def test_regions_unique(self):
        with pytest.raises(PanelError):
            PanelDataset(("a", "a"), (2001,), {})

    def test_write_once(self):
        panel = make_panel([[1, 2]])
        with pytest.raises(PanelError):
            panel.with_variable("x", Grid.full([[0, 0]]))

    def test_grids_immutable(self):
        panel = make_panel([[1, 2]])
        with pytest.raises(ValueError):
            panel.var("x").values[0, 0] = 9.0

