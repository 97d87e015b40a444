"""Simulation: dynamic panel data with known parameters, synthetic pixel
disturbance grids, and the Monte Carlo harness used to validate estimators.

Every draw is reproducible from the config seed. Replication r of a Monte
Carlo study draws one panel from the sub-seed of (seed, r), so replications
are independent of execution order and worker count, and every estimator of
the study is fitted on that same panel. A study run in worker processes
returns what a serial run returns, provided each estimand is a function of
its panel alone.
"""

from __future__ import annotations

import ctypes
import dataclasses
import multiprocessing
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .estimators import EstimationError, FitResult
from .ingest import PixelGrid
from .panel import Grid, PanelDataset, PanelError


class DGPError(ValueError):
    """Invalid simulation configuration."""


REGRESSOR_PROCESSES = ("iid_normal", "ar1", "correlated_with_alpha")
ERROR_LAWS = ("normal", "heavy_tail")
BIOMASS_LOG_MEAN = 4.0    # disturbance grid landscape: lognormal biomass, Mg C / ha
BIOMASS_LOG_SIGMA = 0.75
EVENT_TAIL_INDEX = 1.5    # Pareto tail of event size (pixels)
PIXEL_AREA = 0.09         # hectares; one 30 m pixel


@dataclass(frozen=True)
class DGPConfig:
    """Ground truth for the dynamic panel recursion."""

    n_regions: int
    n_years: int
    rho: float
    beta: float
    sigma_alpha: float = 0.0
    sigma_gamma: float = 0.0
    sigma_u: float = 1.0
    regressor_process: str = "iid_normal"
    regressor_param: float = 0.0   # AR coefficient, or loading on alpha
    sigma_x: float = 1.0
    error_law: str = "normal"
    tail_index: float = 1.5
    burn_in: int = 50
    seed: int = 0
    start_year: int = 2001

    def __post_init__(self):
        if self.n_regions < 1 or self.n_years < 1:
            raise DGPError("need at least one region and one year")
        if not abs(self.rho) < 1:
            raise DGPError("|rho| must be < 1 for stationarity")
        if min(self.sigma_alpha, self.sigma_gamma, self.sigma_u, self.sigma_x) < 0:
            raise DGPError("standard deviations must be nonnegative")
        if self.regressor_process not in REGRESSOR_PROCESSES:
            raise DGPError(f"unknown regressor process {self.regressor_process!r}")
        if self.error_law not in ERROR_LAWS:
            raise DGPError(f"unknown error law {self.error_law!r}")
        if self.burn_in < 50:
            raise DGPError("burn_in must be >= 50")
        if self.seed < 0:
            raise DGPError("seed must be nonnegative")
        if self.regressor_process == "ar1" and not abs(self.regressor_param) < 1:
            raise DGPError("|ar1 coefficient| must be < 1")
        for f in dataclasses.fields(self):
            # NaN fails the comparison, and so does an int too large for a float
            if f.type == "float" and not abs(getattr(self, f.name)) <= sys.float_info.max:
                raise DGPError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.error_law == "heavy_tail" and self.tail_index <= 0:
            raise DGPError("tail_index must be > 0 for heavy-tailed errors")

    @classmethod
    def from_mapping(cls, fields: Mapping) -> "DGPConfig":
        """Build from a JSON object, naming any unknown or missing key and any
        value of the wrong JSON type."""
        known = dataclasses.fields(cls)
        unknown = sorted(set(fields) - {f.name for f in known})
        if unknown:
            raise DGPError(f"unknown dgp keys: {unknown}")
        missing = [f.name for f in known
                   if f.default is dataclasses.MISSING and f.name not in fields]
        if missing:
            raise DGPError(f"dgp block lacks required keys: {missing}")
        for f in known:
            if f.name not in fields:
                continue
            value = fields[f.name]
            types, what = _JSON_TYPES[f.type]
            # a JSON true or false is a Python int, but no count or parameter
            if isinstance(value, bool) or not isinstance(value, types):
                raise DGPError(f"dgp key {f.name!r} must be {what}, got {value!r}")
        return cls(**fields)


# the JSON values a field accepts, by its annotation (a string under
# postponed annotations): a float is no count, and a number no name
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


@dataclass(frozen=True)
class PanelTruth:
    rho: float
    beta: float
    alpha: np.ndarray
    gamma: np.ndarray
    config: DGPConfig


def _draw_errors(rng, law: str, tail_index: float, size) -> np.ndarray:
    if law == "normal":
        return rng.standard_normal(size)
    # symmetric Pareto-tailed shocks: sign * (pareto + 1), centered
    magnitude = rng.pareto(tail_index, size) + 1.0
    sign = rng.choice([-1.0, 1.0], size=size)
    return magnitude * sign


@lru_cache(maxsize=8)
def _region_labels(n: int) -> tuple[str, ...]:
    return tuple(f"R{i:04d}" for i in range(n))


def simulate_dynamic_panel(config: DGPConfig) -> tuple[PanelDataset, PanelTruth]:
    """Simulate the autoregressive panel recursion after a burn-in window: the
    regressor is ``l`` and the response ``e``."""
    rng = np.random.default_rng(config.seed)
    N, T, B = config.n_regions, config.n_years, config.burn_in
    total = B + T
    alpha = config.sigma_alpha * rng.standard_normal(N)
    gamma_all = config.sigma_gamma * rng.standard_normal(total)

    if config.regressor_process == "iid_normal":
        x = config.sigma_x * rng.standard_normal((N, total))
    elif config.regressor_process == "ar1":
        phi = config.regressor_param
        innov = config.sigma_x * rng.standard_normal((N, total))
        x = np.zeros((N, total))
        x[:, 0] = innov[:, 0] / np.sqrt(1 - phi**2)
        for t in range(1, total):
            x[:, t] = phi * x[:, t - 1] + innov[:, t]
    else:
        noise = config.sigma_x * rng.standard_normal((N, total))
        x = config.regressor_param * alpha[:, None] + noise

    u = config.sigma_u * _draw_errors(rng, config.error_law, config.tail_index, (N, total))
    # time-major: row t of e starts as alpha + gamma_t and takes the other
    # terms in place, in the order (((alpha + gamma_t) + rho * e_{t-1})
    # + beta * x_t) + u_t; the first row adds rho * 0, a zero signed as rho is
    e = alpha + gamma_all[:, None]
    beta_x = np.ascontiguousarray((config.beta * x).T)
    u = np.ascontiguousarray(u.T)
    prev = np.zeros(N)
    for t in range(total):
        row = e[t]
        row += config.rho * prev
        row += beta_x[t]
        row += u[t]
        prev = row

    years = tuple(range(config.start_year, config.start_year + T))
    panel = PanelDataset(
        _region_labels(N), years,
        {"l": Grid.full(x[:, B:]), "e": Grid.full(np.ascontiguousarray(e[B:].T))},
    )
    return panel, PanelTruth(config.rho, config.beta, alpha, gamma_all[B:], config)


# ---------------------------------------------------------------------------
# synthetic disturbance grids

@dataclass(frozen=True)
class GridDGPConfig:
    """Synthetic pixel landscape, on the module's landscape constants, with
    episodic, heavy-tailed loss events; every field is checked before any draw."""

    n_regions: int = 200
    pixels_per_region: int = 400
    n_years: int = 23
    ignition_rate: float = 0.8       # expected events per region-year
    event_min_pixels: float = 1.0
    seed: int = 0
    start_year: int = 2001

    def __post_init__(self):
        if min(self.n_regions, self.pixels_per_region, self.n_years) < 1:
            raise DGPError("counts must be positive")
        for name in ("ignition_rate", "event_min_pixels"):
            if not 0 <= getattr(self, name) <= sys.float_info.max:
                raise DGPError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise DGPError("seed must be nonnegative")


def simulate_disturbance_grid(config: GridDGPConfig) -> PixelGrid:
    """Draw biomass from a lognormal law and loss events from a Poisson
    ignition process with Pareto-sized pixel batches.

    A pixel is lost at most once; an event that demands more pixels than
    remain in its region is truncated, never an error. The random draws come
    in a fixed order (each region's biomass, then its canopy; then each
    region-year's events), so a seed always gives the same grid.
    """
    rng = np.random.default_rng(config.seed)
    n = config.pixels_per_region
    regions = [f"R{i:04d}" for i in range(config.n_regions)]
    draws = [
        (rng.lognormal(BIOMASS_LOG_MEAN, BIOMASS_LOG_SIGMA, n),
         rng.uniform(0.0, 100.0, n))
        for _ in regions
    ]
    pixel_ids = [f"{region}:P{j:05d}" for region in regions for j in range(n)]

    events: list[tuple[str, int]] = []
    years = range(config.start_year, config.start_year + config.n_years)
    for i in range(config.n_regions):
        pool = pixel_ids[i * n:(i + 1) * n]
        for year in years:
            n_events = rng.poisson(config.ignition_rate)
            for _ in range(n_events):
                want = np.ceil(config.event_min_pixels * (rng.pareto(EVENT_TAIL_INDEX) + 1.0))
                take = int(min(want, len(pool)))  # want is infinite past the float range
                if take == 0:
                    break
                chosen = rng.choice(len(pool), size=take, replace=False)
                for idx in sorted(chosen, reverse=True):
                    events.append((pool.pop(idx), year))
    return PixelGrid(
        pixel_ids,
        [region for region in regions for _ in range(n)],
        np.concatenate([biomass for biomass, _ in draws]),
        np.full(len(pixel_ids), PIXEL_AREA),
        np.concatenate([canopy for _, canopy in draws]),
        events,
    )


# ---------------------------------------------------------------------------
# Monte Carlo harness

def replication_seed(seed: int, r: int) -> int:
    """Deterministic sub-seed for replication r, independent of other reps."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


@dataclass(frozen=True)
class MonteCarloStudy:
    """One estimator's replications, and their bias, RMSE and coverage.

    ``rows`` holds one row per completed replication, in order of r, as
    ``montecarlo.csv`` writes it: ``rep`` (the replication r), then
    ``{name}_estimate`` and ``{name}_se`` for each parameter name of
    ``truth``, in its order. ``failures`` holds one (r, exception type name,
    message) triple per failed replication.
    """

    truth: dict[str, float]
    replications: int
    rows: list[dict]
    failures: list[tuple[int, str, str]]

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def failure_counts(self) -> Counter:
        """Failed replications counted by exception type name."""
        return Counter(kind for _, kind, _ in self.failures)

    def aggregates(self) -> dict[str, dict[str, float | None]]:
        """Per-parameter summaries; ``None`` when no replication completed."""
        out = {}
        for name, true in self.truth.items():
            if not self.rows:
                out[name] = {"truth": true, "mean": None, "bias": None,
                             "rmse": None, "coverage": None}
                continue
            est = np.array([row[f"{name}_estimate"] for row in self.rows])
            ses = np.array([row[f"{name}_se"] for row in self.rows])
            covered = np.abs(est - true) <= 1.96 * ses
            out[name] = {
                "truth": true,
                "mean": float(est.mean()),
                "bias": float(est.mean() - true),
                "rmse": float(np.sqrt(np.mean((est - true) ** 2))),
                "coverage": float(covered.mean()),
            }
        return out

    def to_json_dict(self) -> dict:
        return {
            "replications": self.replications,
            "completed": len(self.rows),
            "failed": self.n_failed,
            "aggregates": self.aggregates(),
        }


# (fit, truth): fit takes a panel; truth maps fit coefficient names to true values
Estimand = tuple[Callable[[PanelDataset], FitResult], Mapping[str, float]]


@dataclass(frozen=True)
class MonteCarloRun:
    """One study per estimator, every study fitted on the same panels."""

    studies: Mapping[str, MonteCarloStudy]

    @property
    def n_failed(self) -> int:
        return sum(study.n_failed for study in self.studies.values())


def monte_carlo(
    config: DGPConfig,
    estimators: Mapping[str, Estimand],
    replications: int,
    workers: int = 1,
) -> MonteCarloRun:
    """Fit every estimator on fresh draws and aggregate bias, RMSE, coverage.

    Replication r draws one panel from ``replication_seed(seed, r)`` and fits
    every estimator on it, in the order given. A fit that raises a typed
    estimation, panel or linear-algebra error is recorded as that
    estimator's failure at r and excluded from its aggregates, never silently
    dropped; the other estimators still fit r. Any other exception is a bug
    and propagates.

    With ``workers`` > 1 (capped at ``replications``) the replications run in
    that many forked processes and are collected in order of r, so the run
    equals the serial one only if each estimand is a function of its panel:
    state an estimand keeps between calls stays in the worker that made it.
    """
    if replications < 2:
        raise DGPError("need at least 2 replications")
    if not estimators:
        raise DGPError("need at least one estimator")
    studies = {
        name: MonteCarloStudy({n: float(v) for n, v in truth.items()}, replications, [], [])
        for name, (_, truth) in estimators.items()
    }
    workers = min(workers, replications)
    if workers == 1:
        outcomes = [_replicate(config, estimators, r) for r in range(replications)]
    else:
        # fork hands the config and the estimands to each worker as they are
        # in memory, so closures are never pickled; the indices go out in
        # chunks, about four per worker, and the outcomes come back in order
        # of r. Leaving the block joins the workers, also when one raised (map
        # then cancels the chunks not yet started) or died.
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker,
                                 initargs=(config, estimators)) as pool:
            chunk = -(-replications // (4 * workers))
            outcomes = list(pool.map(_replicate_in_worker, range(replications), chunksize=chunk))
    for outcome in outcomes:
        for study, result in zip(studies.values(), outcome):
            (study.rows if isinstance(result, dict) else study.failures).append(result)
    return MonteCarloRun(studies)


def _replicate(
    config: DGPConfig, estimators: Mapping[str, Estimand], r: int
) -> list[dict | tuple[int, str, str]]:
    """Replication r of a study: per estimator, in order, its row or its
    (r, exception type name, message) failure."""
    sub = dataclasses.replace(config, seed=replication_seed(config.seed, r))
    panel, _ = simulate_dynamic_panel(sub)
    outcome = []
    for estimator, truth in estimators.values():
        try:
            fit = estimator(panel)
            ses = fit.std_errors()
        except (EstimationError, PanelError, np.linalg.LinAlgError) as exc:
            outcome.append((r, type(exc).__name__, str(exc)))
            continue
        row: dict = {"rep": r}
        for n in truth:
            row[f"{n}_estimate"] = fit.coefficients[n]
            row[f"{n}_se"] = ses[n]
        outcome.append(row)
    return outcome


# the entry points by which an OpenBLAS build sets its thread count
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")

# a worker's study: the (config, estimands) its pool initializer was given
_worker_study: tuple = ()


def _start_worker(config: DGPConfig, estimators: Mapping[str, Estimand]) -> None:
    """Pool initializer: the study, and one thread for each OpenBLAS the
    worker has loaded. The workers already fill the CPUs; BLAS threads of
    their own would contend with them, and cost more than they save on the
    small products of one replication."""
    global _worker_study
    _worker_study = (config, estimators)
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:  # no /proc: BLAS keeps its threads
        paths = set()
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:  # e.g. a library file replaced since it was mapped
            continue
        for symbol in _BLAS_THREAD_SETTERS:
            if hasattr(library, symbol):
                getattr(library, symbol)(1)
                break


def _replicate_in_worker(r: int) -> list[dict | tuple[int, str, str]]:
    return _replicate(*_worker_study, r)
