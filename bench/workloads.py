"""Workload definitions: seeded input generation and the timed CLI job.

Each workload is one closed loop in one process: the benchmark calls
``forestpanel.cli.main`` and starts the next call when the previous one
returns. The program sees only the files written by ``generate`` and the
command-line flags returned by ``job``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from forestpanel import dgp
from forestpanel.dgp import DGPConfig, GridDGPConfig
# bound by name on purpose: the CSV writers called while generating inputs
# stay outside the traced layers, while the dgp generators, looked up on the
# module at call time, are traced
from forestpanel.ingest import write_panel_csv, write_pixel_grid_csv

# pipeline-large: 1000 regions x 100 pixels x 23 years (100k pixels, ~60k
# loss events). Half the regions of the paper's regional scale, so that one
# run of every workload fits the benchmark's time budget; the N-quadratic
# loops still lead their calls at this size.
GRID = dict(n_regions=1000, pixels_per_region=100, n_years=23)
CANOPY_THRESHOLD = 30
# gmm-uncollapsed: the dynamic panel behind the paper's GMM ladder.
DYNAMIC = dict(n_regions=1000, n_years=23, rho=0.5, beta=1.0, sigma_alpha=1.0, sigma_u=1.0)


@dataclass(frozen=True)
class Step:
    """One timed CLI call: its subcommand name, arguments and output files."""

    name: str
    argv: tuple[str, ...]
    out: Path
    checked: tuple[str, ...]  # output files compared against the reference


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, int], dict]  # writes the inputs, returns facts about them
    job: Callable[[Path, int], list[Step]]
    # what the outputs must show whatever the seed: N, T, instrument counts,
    # replications, and the canopy threshold the ingest check applies
    shape: dict


def _excluded_years(seed: int, start: int, n_years: int) -> list[int]:
    # two interior years, so the lag chain keeps complete years on both sides
    rng = np.random.default_rng([seed, 1])
    picks = rng.choice(np.arange(start + 2, start + n_years - 1), size=2, replace=False)
    return sorted(int(y) for y in picks)


def _generate_grid(work: Path, seed: int) -> dict:
    grid = dgp.simulate_disturbance_grid(GridDGPConfig(**GRID, seed=seed))
    write_pixel_grid_csv(grid, work / "pixels.csv", work / "events.csv")
    return {
        "pixels": len(grid.pixels),
        "pixels_kept": sum(p.canopy_density >= CANOPY_THRESHOLD for p in grid.pixels),
        "events": len(grid.loss_events),
    }


def _pipeline_job(work: Path, seed: int) -> list[Step]:
    out = work / "out"
    panel = str(out / "ingest" / "panel.csv")
    years = _excluded_years(seed, GridDGPConfig.start_year, GRID["n_years"])
    return [
        Step("ingest",
             ("ingest", "--pixels", str(work / "pixels.csv"), "--events", str(work / "events.csv"),
              "--canopy-threshold", str(CANOPY_THRESHOLD), "--out", str(out / "ingest")),
             out / "ingest", ("summary.json", "panel.csv")),
        Step("estimate",
             ("estimate", "--panel", panel, "--collapse", "--two-step",
              "--out", str(out / "estimate")),
             out / "estimate", ("report.json", "elasticity.csv", "scatter.csv")),
        Step("robustness",
             ("robustness", "--panel", panel, "--estimator", "lsdv",
              "--exclude-years", ",".join(map(str, years)), "--levels",
              "--out", str(out / "robustness")),
             out / "robustness", ("report.json",)),
    ]


def _generate_dynamic(work: Path, seed: int) -> dict:
    panel, _ = dgp.simulate_dynamic_panel(DGPConfig(**DYNAMIC, seed=seed))
    write_panel_csv(panel, work / "panel.csv")
    return {"N": panel.N, "T": panel.T, "panel_rows": panel.N * panel.T}


def _gmm_job(work: Path, seed: int) -> list[Step]:
    out = work / "out" / "estimate"
    return [
        Step("estimate",
             ("estimate", "--panel", str(work / "panel.csv"), "--two-step", "--out", str(out)),
             out, ("report.json", "elasticity.csv", "scatter.csv")),
    ]


def _generate_nothing(work: Path, seed: int) -> dict:
    return {}


def _mc_job(work: Path, seed: int) -> list[Step]:
    out = work / "out" / "montecarlo"
    return [
        Step("montecarlo",
             ("montecarlo", "--preset", "nickell-demo", "--two-step", "--seed", str(seed),
              "--out", str(out)),
             out, ("montecarlo.json", "montecarlo.csv")),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-large", _generate_grid, _pipeline_job,
                 {"N": 1000, "T": 23, "K": {"diffgmm": 43, "sysgmm": 66},
                  "canopy_threshold": CANOPY_THRESHOLD}),
        Workload("gmm-uncollapsed", _generate_dynamic, _gmm_job,
                 {"N": 1000, "T": 23, "K": {"diffgmm": 253, "sysgmm": 296}}),
        Workload("mc-nickell", _generate_nothing, _mc_job,
                 {"N": 500, "T": 6, "replications": 200, "estimators": ["diffgmm", "lsdv"]}),
    )
}
