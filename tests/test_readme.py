"""The README's library example runs as written against the current API."""

import re
from pathlib import Path

from forestpanel import (
    EmissionFactors,
    GridDGPConfig,
    pixel_panel,
    simulate_disturbance_grid,
    write_panel_csv,
)

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
