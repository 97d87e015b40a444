"""Command-line entry point: ingest, estimate, robustness, montecarlo.

Every run writes a manifest with the fully resolved configuration and seed;
rerunning from the same manifest reproduces output files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .diagnostics import DiagnosticError, diagnostic_bundle
from .dgp import DGPConfig, DGPError, monte_carlo
from .estimators import (
    CONST,
    EstimationError,
    FitResult,
    RegressionSpec,
    fit_dynamic_lsdv,
    fit_pooled_ols,
    fit_twoway_fe,
    lagged_name,
    long_run_elasticity,
)
from .gmm import GmmOptions, fit_diff_gmm, fit_sys_gmm
from .ingest import (
    DEFAULT_THETA,
    EmissionFactors,
    LoadError,
    filter_canopy,
    load_panel_csv,
    load_pixel_grid_csv,
    pixel_panel,
    summary_stats,
    write_panel_csv,
)
from .panel import (
    Grid,
    PanelDataset,
    PanelError,
    demean_twoway_values,
    log1_grid,
    region_year_rows,
)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(out: Path, subcommand: str, args: argparse.Namespace) -> None:
    # the output directory is where files land, not part of the run
    # configuration, so it stays out of the manifest
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")
    }
    _write_json(
        out / "manifest.json",
        {
            "tool": "forestpanel",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "seed": getattr(args, "seed", None),
        },
    )


def _log_variables(panel: PanelDataset, use_levels: bool) -> tuple[PanelDataset, str, str]:
    """Resolve the (regressor, response) pair, log-transforming levels.

    Panels carrying level variables L and E get log1 counterparts l and e;
    panels that already carry l and e are used as-is. With ``use_levels`` the
    raw L and E columns enter the regressions directly.
    """
    names = set(panel.variables)
    if use_levels:
        if {"L", "E"} <= names:
            return panel, "L", "E"
        raise PanelError("levels pathway needs variables 'L' and 'E'")
    if {"l", "e"} <= names:
        return panel, "l", "e"
    if {"L", "E"} <= names:
        panel = panel.with_variable("l", log1_grid(panel, "L"))
        panel = panel.with_variable("e", log1_grid(panel, "E"))
        return panel, "l", "e"
    raise PanelError("panel must contain variables L/E or l/e")


class Estimator(NamedTuple):
    dynamic: bool  # also fits the lagged response, whose Monte Carlo truth is rho
    fit: Callable[..., FitResult]  # (panel, x, y, args, gmm_year_dummies) -> FitResult
    gmm: bool = False  # reads the GMM flags


def _gmm_options(args, year_dummies: bool) -> GmmOptions:
    return GmmOptions(args.min_lag, args.max_lag, args.collapse, 2 if args.two_step else 1,
                      year_dummies)


def _gmm(level: bool):
    def fit(panel, x, y, args, gmm_year_dummies):
        spec, options = RegressionSpec(y, (x,)), _gmm_options(args, gmm_year_dummies)
        return fit_sys_gmm(panel, spec, options) if level else fit_diff_gmm(panel, spec, options)

    return fit


# The estimator ladder, in fit order. Each fit owns its effects; whether GMM
# fits carry year dummies is the caller's explicit choice. The entries look
# their fit function up by module-global name at call time, so rebinding a
# module attribute (as a tracer does) reaches every fit.
ESTIMATORS = {
    "pooled": Estimator(False, lambda panel, x, y, *_:
                        fit_pooled_ols(panel, RegressionSpec(y, (CONST, x)))),
    "fe2w": Estimator(False, lambda panel, x, y, *_:
                      fit_twoway_fe(panel, RegressionSpec(y, (x,)))),
    "lsdv": Estimator(True, lambda panel, x, y, *_:
                      fit_dynamic_lsdv(panel, RegressionSpec(y, (x,)))),
    "diffgmm": Estimator(True, _gmm(level=False), gmm=True),
    "sysgmm": Estimator(True, _gmm(level=True), gmm=True),
}
ESTIMATOR_CHOICES = (*ESTIMATORS, "all")


def _fit(name: str, panel: PanelDataset, x: str, y: str, args, *,
         gmm_year_dummies: bool) -> FitResult:
    """Fit registry estimator ``name`` of y on x."""
    return ESTIMATORS[name].fit(panel, x, y, args, gmm_year_dummies)


def _elasticity_rows(fits, x: str, y: str):
    rows = []
    rho_name = lagged_name(y)
    for tag, fit in fits.items():
        if x in fit.coefficients and rho_name in fit.coefficients:
            report = long_run_elasticity(fit, x, rho_name)
            rows.append({"estimator": tag, **report.to_json_dict()})
        elif x in fit.coefficients:
            rows.append(
                {
                    "estimator": tag,
                    "short_run": fit.coefficients[x],
                    "persistence": 0.0,
                    "long_run": fit.coefficients[x],
                    "long_run_se": fit.std_errors()[x],
                }
            )
    return rows


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args) -> int:
    if args.panel and (args.pixels or args.events):
        raise LoadError("ingest takes --panel or --pixels with --events, not both")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.panel:
        panel, dropped = load_panel_csv(args.panel)
    elif args.pixels and args.events:
        grid = load_pixel_grid_csv(args.pixels, args.events)
        grid = filter_canopy(grid, args.canopy_threshold)
        if grid.event_year.size == 0:
            raise LoadError("pixel grid has no loss events")
        years = range(int(grid.event_year.min()), int(grid.event_year.max()) + 1)
        panel = pixel_panel(grid, EmissionFactors(args.theta), years)
        dropped = []
    else:
        raise LoadError("ingest needs --panel or both --pixels and --events")
    write_panel_csv(panel, out / "panel.csv")
    _write_json(
        out / "summary.json",
        {
            "n_regions": panel.N,
            "n_years": panel.T,
            "dropped_regions": dropped,
            "variables": {name: summary_stats(panel, name) for name in panel.variables},
        },
    )
    _write_manifest(out, "ingest", args)
    print(f"ingest: {panel.N} regions x {panel.T} years, {len(dropped)} dropped")
    return 0


def _write_scatter(path: Path, panel: PanelDataset, x: str, y: str) -> None:
    """``scatter.csv``: x and y two-way demeaned over the years where both are complete."""
    gx, gy = panel.var(x), panel.var(y)
    mask = (gx.available & gy.available).all(axis=0)
    dx = demean_twoway_values(gx.values[:, mask])
    dy = demean_twoway_values(gy.values[:, mask])
    years = [panel.years[j] for j in range(panel.T) if mask[j]]
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(["region", "year", f"{x}_demeaned", f"{y}_demeaned"])
        handle.writelines(region_year_rows(panel.regions, years, (dx, dy)))


def cmd_estimate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    panel, _ = load_panel_csv(args.panel)
    panel, x, y = _log_variables(panel, args.levels)
    names = ESTIMATORS if args.estimator == "all" else (args.estimator,)
    fits = {name: _fit(name, panel, x, y, args, gmm_year_dummies=True) for name in names}
    elasticity = _elasticity_rows(fits, x, y)
    report = {
        "fits": {tag: fit.to_json_dict() for tag, fit in fits.items()},
        "diagnostics": {tag: diagnostic_bundle(fit) for tag, fit in fits.items()},
        "elasticity": elasticity,
    }
    _write_json(out / "report.json", report)
    _write_csv(
        out / "elasticity.csv",
        ["estimator", "short_run", "persistence", "long_run", "long_run_se"],
        [
            [r["estimator"], repr(float(r["short_run"])), repr(float(r["persistence"])),
             repr(float(r["long_run"])), repr(float(r["long_run_se"]))]
            for r in elasticity
        ],
    )
    if "fe2w" in fits:
        _write_scatter(out / "scatter.csv", panel, x, y)
    _write_manifest(out, "estimate", args)
    for tag, fit in fits.items():
        coefs = ", ".join(f"{n}={v:.4f}" for n, v in list(fit.coefficients.items())[:3])
        print(f"{tag}: {coefs} (n={fit.n_obs})")
    return 0


def _mask_years(panel: PanelDataset, excluded: set[int]) -> PanelDataset:
    bad = excluded - set(panel.years)
    if bad:
        raise PanelError(f"excluded years not in panel: {sorted(bad)}")
    cols = [j for j, year in enumerate(panel.years) if year in excluded]
    variables = {}
    for name, grid in panel.variables.items():
        avail = grid.available.copy()
        avail[:, cols] = False
        variables[name] = Grid(grid.values, avail)
    return PanelDataset(panel.regions, panel.years, variables)


def _subset_regions(panel: PanelDataset, keep: list[str]) -> PanelDataset:
    position = {r: i for i, r in enumerate(panel.regions)}
    missing = [r for r in keep if r not in position]
    if missing:
        raise PanelError(f"unknown regions: {missing}")
    if not keep:
        raise PanelError("region subset is empty")
    idx = [position[r] for r in keep]
    variables = {
        name: Grid(grid.values[idx], grid.available[idx])
        for name, grid in panel.variables.items()
    }
    return PanelDataset(tuple(keep), panel.years, variables)


def cmd_robustness(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    excluded = set(args.exclude_years or [])
    regions = args.regions or []
    if not excluded and not regions and not args.levels:
        raise PanelError("robustness needs a filter (--exclude-years, --regions) or --levels")
    base_panel, _ = load_panel_csv(args.panel)
    if ESTIMATORS[args.estimator].gmm and excluded:
        raise EstimationError("year exclusion breaks the GMM lag chain; use fe2w or lsdv")

    def run(panel, use_levels):
        panel, x, y = _log_variables(panel, use_levels)
        return _fit(args.estimator, panel, x, y, args, gmm_year_dummies=True)

    columns = [("base", run(base_panel, False))]
    if excluded:
        columns.append(
            (f"exclude_years={sorted(excluded)}", run(_mask_years(base_panel, excluded), False))
        )
    if regions:
        columns.append((f"regions={regions}", run(_subset_regions(base_panel, regions), False)))
    if args.levels:
        columns.append(("levels", run(base_panel, True)))

    table = []
    for label, fit in columns:
        table.append(
            {
                "variation": label,
                "estimator": fit.estimator_tag,
                "n_obs": fit.n_obs,
                "coefficients": fit.coefficient_table(),
            }
        )
    _write_json(out / "report.json", {"robustness": table})
    _write_manifest(out, "robustness", args)
    for entry in table:
        lead = entry["coefficients"][0]
        print(f"{entry['variation']}: {lead['name']}={lead['estimate']:.4f}")
    return 0


_PRESETS = {
    "nickell-demo": {
        "dgp": {
            "n_regions": 500,
            "n_years": 6,
            "rho": 0.5,
            "beta": 1.0,
            "sigma_alpha": 1.0,
            "sigma_u": 1.0,
        },
        "estimators": ["lsdv", "diffgmm"],
        "replications": 200,
    }
}


def cmd_montecarlo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.preset:
        config = _PRESETS[args.preset]
    else:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DGPError(f"{args.config}: malformed JSON: {exc}") from None
    if not isinstance(config, dict) or not isinstance(config.get("dgp"), dict):
        raise DGPError("montecarlo config needs a 'dgp' object")
    dgp_fields = dict(config["dgp"])
    if args.seed is not None:
        dgp_fields["seed"] = args.seed
    dgp_fields.setdefault("seed", DGPConfig.seed)
    dgp = DGPConfig.from_mapping(dgp_fields)
    reps = config.get("replications", 100) if args.reps is None else args.reps
    if isinstance(reps, bool) or not isinstance(reps, int):
        raise DGPError(f"config key 'replications' must be an integer, got {reps!r}")
    estimators = config.get("estimators") or [config.get("estimator", "lsdv")]
    if not isinstance(estimators, list) or not all(isinstance(n, str) for n in estimators):
        key = "estimators" if config.get("estimators") else "estimator"
        raise EstimationError(
            f"config key {key!r} must name estimators as strings, got {config[key]!r}"
        )
    unknown = [name for name in estimators if name not in ESTIMATORS]
    if unknown:
        raise EstimationError(
            f"unknown estimators {unknown}; montecarlo accepts {list(ESTIMATORS)}"
        )
    repeated = sorted({name for name in estimators if estimators.count(name) > 1})
    if repeated:
        raise EstimationError(f"estimators listed more than once: {repeated}")
    if any(ESTIMATORS[name].gmm for name in estimators):
        _gmm_options(args, year_dummies=False)  # a bad GMM flag fails the run, not every rep
    estimands = {}
    for name in estimators:
        truth = {"l": dgp.beta}
        if ESTIMATORS[name].dynamic:
            truth[lagged_name("e")] = dgp.rho
        # unlike estimate and robustness, GMM replications fit no year dummies
        fit = partial(_fit, name, x="l", y="e", args=args, gmm_year_dummies=False)
        estimands[name] = (fit, truth)
    run = monte_carlo(dgp, estimands, reps)
    results = {name: study.to_json_dict() for name, study in run.studies.items()}
    all_rows = [
        {"estimator": name, **row}
        for name, study in run.studies.items()
        for row in study.per_rep_rows()
    ]
    _write_json(out / "montecarlo.json", {"dgp": sorted(dgp_fields.items()), "results": results})
    value_fields = sorted({k for r in all_rows for k in r} - {"estimator", "rep"})
    fieldnames = ["estimator", "rep"] + value_fields
    _write_csv(
        out / "montecarlo.csv",
        fieldnames,
        [
            [
                repr(float(r[f])) if isinstance(r.get(f), float) else r.get(f, "")
                for f in fieldnames
            ]
            for r in all_rows
        ],
    )
    _write_manifest(out, "montecarlo", args)
    for name, res in results.items():
        if not res["completed"]:
            print(f"{name}: no replication completed ({res['failed']} failed)")
            continue
        agg = res["aggregates"]
        lead = lagged_name("e") if lagged_name("e") in agg else "l"
        print(f"{name}: mean {lead}_hat={agg[lead]['mean']:.4f} (truth {agg[lead]['truth']})")
    for name, study in run.studies.items():
        if study.failures:
            kinds = ", ".join(f"{kind}: {n}" for kind, n in sorted(study.failure_counts().items()))
            print(f"{name}: {study.n_failed} failed ({kinds})", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _str_list(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestpanel",
        description="Dynamic panel elasticity toolkit: ingest, estimate, robustness, montecarlo",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("-v", "--verbose", action="count", default=0)

    p_ingest = sub.add_parser("ingest", help="build a balanced panel and summary stats")
    p_ingest.add_argument("--panel", help="panel CSV passthrough")
    p_ingest.add_argument("--pixels", help="pixels.csv (pixel,region,biomass,area,canopy)")
    p_ingest.add_argument("--events", help="loss_events.csv (pixel,year)")
    p_ingest.add_argument("--canopy-threshold", type=float, default=30.0)
    p_ingest.add_argument("--theta", type=float, default=DEFAULT_THETA)
    common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    def gmm_flags(p):
        p.add_argument("--min-lag", type=int, default=2)
        p.add_argument("--max-lag", type=int, default=None)
        p.add_argument("--collapse", action="store_true")
        p.add_argument("--two-step", action="store_true")

    p_est = sub.add_parser("estimate", help="run estimators, diagnostics, elasticities")
    p_est.add_argument("--panel", required=True)
    p_est.add_argument("--estimator", choices=ESTIMATOR_CHOICES, default="all")
    gmm_flags(p_est)
    p_est.add_argument("--levels", action="store_true", help="levels instead of log1")
    common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_rob = sub.add_parser("robustness", help="side-by-side variation table")
    p_rob.add_argument("--panel", required=True)
    p_rob.add_argument("--estimator", choices=tuple(ESTIMATORS), default="fe2w")
    gmm_flags(p_rob)
    p_rob.add_argument("--levels", action="store_true", help="levels instead of log1")
    p_rob.add_argument("--exclude-years", type=_int_list, default=None)
    p_rob.add_argument("--regions", type=_str_list, default=None)
    common(p_rob)
    p_rob.set_defaults(func=cmd_robustness)

    p_mc = sub.add_parser("montecarlo", help="simulation study from a DGP config")
    source = p_mc.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON file with dgp/estimators/replications")
    source.add_argument("--preset", choices=sorted(_PRESETS))
    p_mc.add_argument("--reps", type=int, default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    gmm_flags(p_mc)
    common(p_mc)
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # input and numerical errors only (UnicodeDecodeError: an input file that is
    # not UTF-8); any other exception is a bug and propagates
    try:
        return args.func(args)
    except (PanelError, LoadError, EstimationError, DGPError, DiagnosticError,
            np.linalg.LinAlgError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
