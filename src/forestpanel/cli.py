"""Command-line entry point: ingest, estimate, robustness, montecarlo.

Each subcommand returns its files by name, each a JSON payload or a writer
that takes the file's path, and the lines it prints; ``main`` alone writes
them. It adds ``manifest.json``, the fully resolved configuration and seed,
renders every JSON payload, and only then creates the output directory,
writes the files and prints the lines, so a rejected run (a failed check or
fit, or a NaN or infinity, which JSON cannot hold) writes nothing. Rerunning
from the same manifest reproduces output files byte for byte, at any BLAS
thread count or number of cores: ``main`` runs every subcommand, and its
Monte Carlo workers, at one BLAS thread. When the process may run on two
CPUs, ``estimate`` fits the GMM estimators itself while one forked helper
fits the others and renders ``scatter.csv``; it takes each step's entries,
warnings and error in registry order, so a run pinned to one CPU, which
takes every step itself, writes, prints and fails alike. A flag that no fit
of a run reads must stay at its default, so the manifest records only
settings that were applied.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import multiprocessing
import os
import pickle
import sys
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .diagnostics import DiagnosticError, diagnostic_bundle
from .dgp import (
    DGPConfig,
    DGPError,
    RecordedWarning,
    monte_carlo,
    record_warnings,
    reissue_warnings,
)
from .estimators import (
    CONST,
    ElasticityReport,
    EstimationError,
    FitResult,
    RegressionSpec,
    fit_dynamic_lsdv,
    fit_pooled_ols,
    fit_twoway_fe,
    lagged_name,
    long_run_elasticity,
    scipy_special,
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


class OutputError(Exception):
    """An output that its file format cannot hold."""


def _json_writer(name: str, payload: dict) -> Callable[[Path], None]:
    """A writer of ``payload`` as JSON text, rendered now, so that a payload
    JSON cannot hold fails the run before any file is written."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # a NaN or an infinity, which allow_nan=False rejects
        raise OutputError(f"{name}: a number is NaN or infinite, "
                          "which JSON cannot hold") from None
    return partial(Path.write_text, data=text, encoding="utf-8")


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
    fit: Callable[..., FitResult]  # (panel, x, y, options: GmmOptions | None) -> FitResult
    gmm: bool = False  # reads the GMM options; the other fits ignore them


# Flags that only some runs read, by argparse destination, with their defaults.
# A run that reads none of a group rejects any of them set off its default.
_PIXEL_FLAGS = {"canopy_threshold": 30.0, "theta": DEFAULT_THETA}
_GMM_FLAGS = {name: getattr(GmmOptions, name)
              for name in ("min_lag", "max_lag", "collapse", "two_step")}


def _unread_flags(args, defaults: dict) -> str:
    """The flags of ``defaults`` that ``args`` sets off their default, as typed."""
    return ", ".join("--" + dest.replace("_", "-") for dest, default in defaults.items()
                     if getattr(args, dest) != default)


def _gmm_options(args, names, year_dummies: bool) -> GmmOptions | None:
    """The GMM options of a run that fits the estimators ``names``, built
    before any fit so that a bad GMM flag fails the run. None when no GMM
    estimator runs; then a GMM flag set off its default is an error."""
    if any(ESTIMATORS[name].gmm for name in names):
        return GmmOptions(**{name: getattr(args, name) for name in _GMM_FLAGS},
                          year_dummies=year_dummies)
    if unread := _unread_flags(args, _GMM_FLAGS):
        raise EstimationError(f"{unread}: read only by the GMM estimators, and none runs")
    return None


# The estimator ladder, in fit order. Each fit owns its effects; whether GMM
# fits carry year dummies is the caller's choice, made in its GMM options. The
# entries look their fit function up by module-global name at call time, so
# rebinding a module attribute (as a tracer does) reaches every fit.
ESTIMATORS = {
    "pooled": Estimator(False, lambda panel, x, y, options:
                        fit_pooled_ols(panel, RegressionSpec(y, (CONST, x)))),
    "fe2w": Estimator(False, lambda panel, x, y, options:
                      fit_twoway_fe(panel, RegressionSpec(y, (x,)))),
    "lsdv": Estimator(True, lambda panel, x, y, options:
                      fit_dynamic_lsdv(panel, RegressionSpec(y, (x,)))),
    "diffgmm": Estimator(True, lambda panel, x, y, options:
                         fit_diff_gmm(panel, RegressionSpec(y, (x,)), options), gmm=True),
    "sysgmm": Estimator(True, lambda panel, x, y, options:
                        fit_sys_gmm(panel, RegressionSpec(y, (x,)), options), gmm=True),
}
ESTIMATOR_CHOICES = (*ESTIMATORS, "all")


def _elasticity(tag: str, fit: FitResult, x: str, y: str) -> ElasticityReport:
    """A dynamic fit's long-run elasticity; a static fit's is its short-run one."""
    if ESTIMATORS[tag].dynamic:
        return long_run_elasticity(fit, x, lagged_name(y))
    beta = fit.coefficients[x]
    return ElasticityReport(beta, 0.0, beta, fit.std_errors()[x])


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args) -> tuple[dict, list[str]]:
    if args.panel and (args.pixels or args.events):
        raise LoadError("ingest takes --panel or --pixels with --events, not both")
    if args.panel and (unread := _unread_flags(args, _PIXEL_FLAGS)):
        raise LoadError(f"{unread}: read only with --pixels and --events, not with --panel")
    if args.panel:
        panel, dropped = load_panel_csv(args.panel)
    elif args.pixels and args.events:
        loaded = load_pixel_grid_csv(args.pixels, args.events)
        grid = filter_canopy(loaded, args.canopy_threshold)
        if loaded.event_year.size == 0:
            raise LoadError("pixel grid has no loss events")
        if grid.event_year.size == 0:
            raise LoadError(f"canopy threshold {args.canopy_threshold:g} keeps none of the "
                            f"pixel grid's {loaded.event_year.size} loss events")
        # the loaded grid's span, so a year whose every loss falls below the
        # threshold is a zero at every threshold, never dropped
        years = range(int(loaded.event_year.min()), int(loaded.event_year.max()) + 1)
        # the regions that keep no pixel, in the grid's label order
        kept = set(grid.regions)
        dropped = [region for region in loaded.regions if region not in kept]
        del loaded
        panel = pixel_panel(grid, EmissionFactors(args.theta), years)
    else:
        raise LoadError("ingest needs --panel or both --pixels and --events")
    summary = {
        "n_regions": panel.N,
        "n_years": panel.T,
        "dropped_regions": dropped,
        "variables": {name: summary_stats(panel, name) for name in panel.variables},
    }
    return ({"panel.csv": partial(write_panel_csv, panel), "summary.json": summary},
            [f"ingest: {panel.N} regions x {panel.T} years, {len(dropped)} dropped"])


def _scatter_text(panel: PanelDataset, x: str, y: str) -> str:
    """``scatter.csv``: x and y two-way demeaned over the years where both are complete."""
    gx, gy = panel.var(x), panel.var(y)
    mask = gx.available & gy.available
    dx = demean_twoway_values(gx.values[:, mask])
    dy = demean_twoway_values(gy.values[:, mask])
    years = [panel.years[j] for j in range(panel.T) if mask[j]]
    header = io.StringIO()
    csv.writer(header).writerow(["region", "year", f"{x}_demeaned", f"{y}_demeaned"])
    return "".join([header.getvalue(), *region_year_rows(panel.regions, years, (dx, dy))])


class _Entries(NamedTuple):
    """What an estimate run keeps of one fit: its JSON, its diagnostics, its
    stdout line, and, for the elasticity, the fit without residuals or GMM
    scores."""
    fit: dict
    diagnostics: dict
    line: str
    estimate: FitResult


def _fit_entries(tag: str, panel: PanelDataset, x: str, y: str,
                 options: GmmOptions | None) -> _Entries:
    """Fit ``tag`` and reduce it to its report entries, so that its scores and
    residuals are released as soon as it returns."""
    fit = ESTIMATORS[tag].fit(panel, x, y, options)
    coefs = ", ".join(f"{n}={v:.4f}" for n, v in list(fit.coefficients.items())[:3])
    return _Entries(fit.to_json_dict(), diagnostic_bundle(fit),
                    f"{tag}: {coefs} (n={fit.n_obs})",
                    replace(fit, residual_grid=None, gmm=None))


class _Step(NamedTuple):
    """One step of an estimate lane: its value (a fit's entries or the text of
    scatter.csv), the warnings it raised, and the exception that stopped it."""
    value: _Entries | str | None
    caught: list[RecordedWarning]
    error: Exception | None = None


def _estimate_lane(panel: PanelDataset, x: str, y: str, options: GmmOptions | None,
                   tags, scatter: bool) -> list[_Step]:
    """Fit ``tags`` in order, then, with ``scatter``, render scatter.csv: one
    step each, recorded with its warnings. The first step that raises ends the
    lane, as it would end a run that took the steps one by one."""
    work = [partial(_fit_entries, tag, panel, x, y, options) for tag in tags]
    if scatter:
        work.append(partial(_scatter_text, panel, x, y))
    steps = []
    for run in work:
        try:
            with record_warnings() as caught:
                value = run()
        except Exception as exc:  # raised again by the run, in registry order
            steps.append(_Step(None, caught, exc))
            break
        steps.append(_Step(value, caught))
    return steps


class _HelperTraceback(Exception):
    """The traceback, as text, of an exception raised in the helper process;
    the cause of that exception where it is raised again."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _send_steps(send, lane: Callable[[], list[_Step]]) -> None:
    """The helper process: run ``lane`` and send its steps, with the traceback
    text of the exception that ended it. An exception that pickle cannot carry
    is sent as a RuntimeError of that text."""
    steps = lane()
    text = None
    if (error := steps[-1].error) is not None:
        text = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            steps[-1] = steps[-1]._replace(error=RuntimeError(text))
    send.send((steps, text))


@contextlib.contextmanager
def _helper_process(lane: Callable[[], list[_Step]]):
    """Run ``lane`` in one forked helper process while the block runs, and
    yield a function that waits for the lane's steps. Leaving the block joins
    the helper; a block that raised stops it first."""
    context = multiprocessing.get_context("fork")  # the lane is never pickled
    receive, send = context.Pipe(duplex=False)
    helper = context.Process(target=_send_steps, args=(send, lane))
    helper.start()
    send.close()

    def steps() -> list[_Step]:
        try:
            steps, text = receive.recv()
        except EOFError:
            helper.join()
            raise RuntimeError(f"the helper process exited with code {helper.exitcode} "
                               "before it sent its fits") from None
        if text is not None:
            steps[-1].error.__cause__ = _HelperTraceback(text)
        return steps

    try:
        yield steps
    except BaseException:
        helper.terminate()
        raise
    finally:
        receive.close()
        helper.join()


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def cmd_estimate(args) -> tuple[dict, list[str]]:
    names = ESTIMATORS if args.estimator == "all" else (args.estimator,)
    options = _gmm_options(args, names, year_dummies=True)
    panel, _ = load_panel_csv(args.panel)
    panel, x, y = _log_variables(panel, args.levels)
    scipy_special()  # every fit's p-values; loaded once, before any fork
    # The GMM fits run here, and with two CPUs a forked helper runs the other
    # fits and renders scatter.csv meanwhile; it sends back only their report
    # entries. Each lane stops at its first exception. The steps are taken in
    # registry order, their warnings issued again as they come, so a run
    # names the error, and warns, as one that took the steps one by one.
    lane = partial(_estimate_lane, panel, x, y, options)
    scatter = "fe2w" in names
    helper_tags = [tag for tag in names if not ESTIMATORS[tag].gmm]
    gmm_tags = [tag for tag in names if ESTIMATORS[tag].gmm]
    if helper_tags and gmm_tags and _cpus() > 1:
        with _helper_process(partial(lane, helper_tags, scatter)) as helper:
            gmm_steps = lane(gmm_tags, False)
            helper_steps = helper()
        steps = {**dict(zip([*helper_tags, "scatter.csv"], helper_steps)),
                 **dict(zip(gmm_tags, gmm_steps))}
    else:
        steps = dict(zip([*names, "scatter.csv"], lane(names, scatter)))
    registry: dict = {}

    def take(name: str):
        # a step absent from its lane follows one that raised, which is taken first
        step = steps[name]
        reissue_warnings(step.caught, registry)
        if step.error is not None:
            raise step.error
        return step.value

    entries = {tag: take(tag) for tag in names}
    # the elasticities, which may fail, are taken once every fit has run
    elasticity = {tag: _elasticity(tag, entry.estimate, x, y).to_json_dict()
                  for tag, entry in entries.items()}
    files = {
        "report.json": {
            "fits": {tag: entry.fit for tag, entry in entries.items()},
            "diagnostics": {tag: entry.diagnostics for tag, entry in entries.items()},
            "elasticity": [{"estimator": tag, **row} for tag, row in elasticity.items()],
        },
        "elasticity.csv": partial(
            _write_csv,
            header=["estimator", "short_run", "persistence", "long_run", "long_run_se"],
            rows=[[tag, *(repr(float(v)) for v in row.values())]
                  for tag, row in elasticity.items()],
        ),
    }
    if scatter:
        files["scatter.csv"] = partial(Path.write_text, data=take("scatter.csv"),
                                       encoding="utf-8", newline="")
    return files, [entry.line for entry in entries.values()]


def _mask_years(panel: PanelDataset, excluded: set[int]) -> PanelDataset:
    bad = excluded - set(panel.years)
    if bad:
        raise PanelError(f"excluded years not in panel: {sorted(bad)}")
    kept = np.array([year not in excluded for year in panel.years])
    variables = {name: Grid(g.values, g.available & kept) for name, g in panel.variables.items()}
    return PanelDataset(panel.regions, panel.years, variables)


def _subset_regions(panel: PanelDataset, keep: list[str]) -> PanelDataset:
    """The regions named in ``keep``, in the panel's order, so that the names
    in another order fit the same panel; a repeated name is an error."""
    position = {r: i for i, r in enumerate(panel.regions)}
    missing = [r for r in keep if r not in position]
    if missing:
        raise PanelError(f"unknown regions: {missing}")
    idx = sorted(position[r] for r in keep)
    variables = {name: Grid(g.values[idx], g.available) for name, g in panel.variables.items()}
    return PanelDataset(tuple(panel.regions[i] for i in idx), panel.years, variables)


def cmd_robustness(args) -> tuple[dict, list[str]]:
    options = _gmm_options(args, (args.estimator,), year_dummies=True)
    excluded = set(args.exclude_years or [])
    regions = args.regions or []
    if not excluded and not regions and not args.levels:
        raise PanelError("robustness needs a filter (--exclude-years, --regions) or --levels")
    if options is not None and excluded:
        raise EstimationError("year exclusion breaks the GMM lag chain; use fe2w or lsdv")
    base_panel, _ = load_panel_csv(args.panel)
    fit = ESTIMATORS[args.estimator].fit
    table = []

    def add(label: str, result: FitResult) -> None:
        # only the table entry is kept, so no earlier fit is held by a later one
        table.append({"variation": label, "estimator": result.estimator_tag,
                      "n_obs": result.n_obs, "coefficients": result.coefficient_table()})

    # masked years keep values, logged or not, that no fit reads
    panel, x, y = _log_variables(base_panel, False)
    add("base", fit(panel, x, y, options))
    if excluded:
        add(f"exclude_years={sorted(excluded)}", fit(_mask_years(panel, excluded), x, y, options))
    if regions:
        add(f"regions={regions}", fit(_subset_regions(panel, regions), x, y, options))
    if args.levels:
        add("levels", fit(*_log_variables(base_panel, True), options))
    lines = []
    for entry in table:
        lead = entry["coefficients"][0]
        lines.append(f"{entry['variation']}: {lead['name']}={lead['estimate']:.4f}")
    return {"report.json": {"robustness": table}}, lines


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
_CONFIG_KEYS = ("dgp", "estimators", "replications")


def cmd_montecarlo(args) -> tuple[dict, list[str]]:
    if args.preset:
        config = _PRESETS[args.preset]
    else:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DGPError(f"{args.config}: malformed JSON: {exc}") from None
    if not isinstance(config, dict) or not isinstance(config.get("dgp"), dict):
        raise DGPError("montecarlo config needs a 'dgp' object")
    unknown = sorted(set(config) - set(_CONFIG_KEYS))
    if unknown:
        raise DGPError(f"unknown config keys: {unknown}; montecarlo accepts {list(_CONFIG_KEYS)}")
    dgp_fields = dict(config["dgp"])
    if args.seed is not None:
        dgp_fields["seed"] = args.seed
    dgp_fields.setdefault("seed", DGPConfig.seed)
    dgp = DGPConfig.from_mapping(dgp_fields)
    reps = config.get("replications", 100) if args.reps is None else args.reps
    if isinstance(reps, bool) or not isinstance(reps, int):
        raise DGPError(f"config key 'replications' must be an integer, got {reps!r}")
    estimators = config.get("estimators", [])
    if not isinstance(estimators, list) or not all(isinstance(n, str) for n in estimators):
        raise EstimationError(
            f"config key 'estimators' must name estimators as strings, got {estimators!r}"
        )
    if not estimators:
        raise EstimationError("config key 'estimators' must name at least one estimator")
    unknown = [name for name in estimators if name not in ESTIMATORS]
    if unknown:
        raise EstimationError(
            f"unknown estimators {unknown}; montecarlo accepts {list(ESTIMATORS)}"
        )
    repeated = sorted({name for name in estimators if estimators.count(name) > 1})
    if repeated:
        raise EstimationError(f"estimators listed more than once: {repeated}")
    # unlike estimate and robustness, GMM replications fit no year dummies
    options = _gmm_options(args, estimators, year_dummies=False)
    estimands = {}
    for name in estimators:
        truth = {"l": dgp.beta}
        if ESTIMATORS[name].dynamic:
            truth[lagged_name("e")] = dgp.rho
        estimands[name] = (partial(ESTIMATORS[name].fit, x="l", y="e", options=options), truth)
    # registry fits are functions of their panel, so replications may run in
    # one forked worker per CPU this process may use; outputs do not change
    run = monte_carlo(dgp, estimands, reps, _cpus())
    results = {name: study.to_json_dict() for name, study in run.studies.items()}
    all_rows = [{"estimator": name, **row}
                for name, study in run.studies.items() for row in study.rows]
    value_fields = sorted({k for r in all_rows for k in r} - {"estimator", "rep"})
    fieldnames = ["estimator", "rep"] + value_fields
    csv_rows = [
        [repr(float(r[f])) if isinstance(r.get(f), float) else r.get(f, "") for f in fieldnames]
        for r in all_rows
    ]
    lines = []
    for name, res in results.items():
        if not res["completed"]:
            lines.append(f"{name}: no replication completed ({res['failed']} failed)")
            continue
        agg = res["aggregates"]
        lead = lagged_name("e") if ESTIMATORS[name].dynamic else "l"
        lines.append(f"{name}: mean {lead}_hat={agg[lead]['mean']:.4f} "
                     f"(truth {agg[lead]['truth']})")
    for name, study in run.studies.items():
        if study.failures:
            kinds = ", ".join(f"{kind}: {n}" for kind, n in sorted(study.failure_counts().items()))
            print(f"{name}: {study.n_failed} failed ({kinds})", file=sys.stderr)
    return ({"montecarlo.json": {"dgp": sorted(dgp_fields.items()), "results": results},
             "montecarlo.csv": partial(_write_csv, header=fieldnames, rows=csv_rows)}, lines)


# ---------------------------------------------------------------------------
# argument parsing

def _str_list(text: str) -> list[str]:
    """The comma-separated items of ``text``; a list of none is a usage error,
    which argparse reports naming the flag (exit 2)."""
    items = [part for part in text.split(",") if part]
    if not items:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return items


def _year(text: str) -> int:
    """One year of a list; an item that ``int`` cannot read is a usage error
    that names the item, which argparse reports naming the flag (exit 2)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a year: {text!r}") from None


def _int_list(text: str) -> list[int]:
    return [_year(part) for part in _str_list(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestpanel",
        description="Dynamic panel elasticity toolkit: ingest, estimate, robustness, montecarlo",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")

    p_ingest = sub.add_parser("ingest", help="build a balanced panel and summary stats")
    p_ingest.add_argument("--panel", help="panel CSV passthrough")
    p_ingest.add_argument("--pixels", help="pixels.csv (pixel,region,biomass,area,canopy)")
    p_ingest.add_argument("--events", help="loss_events.csv (pixel,year)")
    p_ingest.add_argument("--canopy-threshold", type=float,
                          default=_PIXEL_FLAGS["canopy_threshold"])
    p_ingest.add_argument("--theta", type=float, default=_PIXEL_FLAGS["theta"])
    common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    def gmm_flags(p):
        p.add_argument("--min-lag", type=int, default=_GMM_FLAGS["min_lag"])
        p.add_argument("--max-lag", type=int, default=_GMM_FLAGS["max_lag"])
        p.add_argument("--collapse", action="store_true", default=_GMM_FLAGS["collapse"])
        p.add_argument("--two-step", action="store_true", default=_GMM_FLAGS["two_step"])

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


# the entry points by which an OpenBLAS build sets its thread count
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Set each OpenBLAS the process has loaded to one thread. A threaded
    product splits its sums by the host's cores, so the bits of a fit would
    depend on them; forked Monte Carlo workers inherit the setting. numpy's
    OpenBLAS runs every product; scipy's, loaded later with the p-value
    ufuncs, runs none. Without /proc, BLAS keeps its threads. Setting it
    again changes nothing."""
    paths = set()
    with contextlib.suppress(OSError), open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:  # e.g. a library file replaced since it was mapped
            continue
        for symbol in _BLAS_THREAD_SETTERS:
            if hasattr(library, symbol):
                getattr(library, symbol)(1)
                break


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _one_blas_thread()  # every subcommand, before it loads or fits anything
    # input, numerical and output errors only (UnicodeDecodeError: an input
    # file that is not UTF-8); any other exception is a bug and propagates
    held = io.StringIO()  # the run's stderr: a rejected run's is its error line alone
    try:
        with contextlib.redirect_stderr(held):
            files, lines = args.func(args)
            # the output directory is where files land, not part of the run
            # configuration, so it stays out of the manifest
            config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
            files["manifest.json"] = {"tool": "forestpanel", "version": __version__,
                                      "subcommand": args.subcommand, "config": config,
                                      "seed": getattr(args, "seed", None)}
            writers = {name: _json_writer(name, payload) if isinstance(payload, dict)
                       else payload for name, payload in files.items()}
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, write in writers.items():
                write(out / name)
    except (PanelError, LoadError, EstimationError, DGPError, DiagnosticError, OutputError,
            np.linalg.LinAlgError, UnicodeDecodeError, OSError) as exc:
        held = io.StringIO(f"error: {exc}\n")
        return 1
    finally:
        sys.stderr.write(held.getvalue())
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
