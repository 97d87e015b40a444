"""The README's library example runs as written against the current API, and
the package namespace holds only the modules that define that API."""

import re
import types
from pathlib import Path

import forestpanel
from forestpanel.dgp import GridDGPConfig, simulate_disturbance_grid
from forestpanel.ingest import EmissionFactors, pixel_panel, write_panel_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    grid = simulate_disturbance_grid(
        GridDGPConfig(n_regions=60, pixels_per_region=200, n_years=10, seed=81)
    )
    years = range(int(grid.event_year.min()), int(grid.event_year.max()) + 1)
    panel = pixel_panel(grid, EmissionFactors(), years)
    assert min(panel.var(n).values.min() for n in ("L", "E")) >= 0.0
    write_panel_csv(panel, tmp_path / "panel.csv")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert scope["fit"].estimator_tag == "lsdv_dynamic"
    assert scope["gmm"].estimator_tag == "sys_gmm"
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_package_holds_only_modules():
    # each public name has one home, its module; the package re-exports none
    public = {n: v for n, v in vars(forestpanel).items() if not n.startswith("_")}
    assert {n for n, v in public.items() if not isinstance(v, types.ModuleType)} == set()
    assert {"dgp", "diagnostics", "estimators", "gmm", "ingest", "panel"} <= set(public)
