"""Simulation: dynamic panel data with known parameters, synthetic pixel
disturbance grids, and the Monte Carlo harness used to validate estimators.

Every draw is reproducible from the config seed. Replication r of a Monte
Carlo study draws one panel from the sub-seed of (seed, r), so replications
are independent of execution order and worker count, and every estimator of
the study is fitted on that same panel. A study run in forked helper
processes returns what a serial run returns, provided each estimand is a
function of its panel alone.

The harness also holds the one way the package forks work: ``run_lanes``
makes a list of calls, some in forked helpers, and returns their values in
call order, issuing each call's warnings again and raising the first
exception where the run was called. ``monte_carlo`` and ``cli``'s
``estimate`` both use it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import pickle
import sys
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Mapping, NamedTuple, Sequence

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
# the largest Poisson mean numpy's generators draw from; a larger one raises
# a bare ValueError ("lam value too large")
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _check_years(start_year: int, n_years: int) -> None:
    """Every simulated year lies in 1000-9999, as the CSV loaders require."""
    if start_year < 1000 or start_year + n_years - 1 > 9999:
        raise DGPError(f"start_year {start_year} with n_years {n_years} gives years outside "
                       f"1000-9999")


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
        _check_years(self.start_year, self.n_years)
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


def _draw_errors(rng, law: str, tail_index: float, size) -> np.ndarray:
    if law == "normal":
        return rng.standard_normal(size)
    # symmetric Pareto-tailed shocks: sign * (pareto + 1), centered
    magnitude = rng.pareto(tail_index, size) + 1.0
    sign = rng.choice([-1.0, 1.0], size=size)
    return magnitude * sign


@lru_cache(maxsize=8)
def _empty_panel(n: int, years: tuple[int, ...]) -> PanelDataset:
    """The panel of regions R0000.. over ``years`` without variables, checked
    once per shape; ``with_variable`` adds the grids without checking again."""
    return PanelDataset(tuple(f"R{i:04d}" for i in range(n)), years)


def _time_major(values: np.ndarray, scale: float) -> np.ndarray:
    """scale * values, as the C-ordered transpose: one pass, where scaling and
    then copying the transpose took two, the second strided."""
    return np.multiply(values.T, scale, out=np.empty(values.shape[::-1]))


def simulate_dynamic_panel(config: DGPConfig) -> tuple[PanelDataset, DGPConfig]:
    """Simulate the autoregressive panel recursion after a burn-in window: the
    regressor is ``l`` and the response ``e``. Returns the panel with
    ``config`` itself, whose ``rho`` and ``beta`` are the panel's truth."""
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

    u = _time_major(_draw_errors(rng, config.error_law, config.tail_index, (N, total)),
                    config.sigma_u)
    # time-major: row t of e starts as alpha + gamma_t and takes the other
    # terms in place, in the order (((alpha + gamma_t) + rho * e_{t-1})
    # + beta * x_t) + u_t; the first row adds rho * 0, a zero signed as rho is
    e = alpha + gamma_all[:, None]
    beta_x = _time_major(x, config.beta)
    prev = np.zeros(N)
    for t in range(total):
        row = e[t]
        row += config.rho * prev
        row += beta_x[t]
        row += u[t]
        prev = row

    years = tuple(range(config.start_year, config.start_year + T))
    # Grid.full copies each grid once, in C order
    panel = (_empty_panel(N, years)
             .with_variable("l", Grid.full(x[:, B:]))
             .with_variable("e", Grid.full(e[B:].T)))
    return panel, config


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
        _check_years(self.start_year, self.n_years)
        for name in ("ignition_rate", "event_min_pixels"):
            if not 0 <= getattr(self, name) <= sys.float_info.max:
                raise DGPError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if self.ignition_rate > POISSON_LAM_MAX:
            raise DGPError(f"ignition_rate must be at most {POISSON_LAM_MAX!r}, "
                           f"got {self.ignition_rate!r}")
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
    pixel_ids = np.array([f"{region}:P{j:05d}" for region in regions for j in range(n)], object)

    event_pixel, event_year = [], []
    years = range(config.start_year, config.start_year + config.n_years)
    for i in range(config.n_regions):
        pool = list(range(i * n, (i + 1) * n))  # rows of the region's pixels not yet lost
        for year in years:
            n_events = rng.poisson(config.ignition_rate)
            for _ in range(n_events):
                want = np.ceil(config.event_min_pixels * (rng.pareto(EVENT_TAIL_INDEX) + 1.0))
                take = int(min(want, len(pool)))  # want is infinite past the float range
                if take == 0:
                    break
                chosen = rng.choice(len(pool), size=take, replace=False)
                event_pixel.extend(pool.pop(idx) for idx in sorted(chosen, reverse=True))
                event_year.extend([year] * take)
    return PixelGrid(
        pixel_ids,
        tuple(regions),
        np.repeat(np.arange(config.n_regions, dtype=np.intp), n),
        np.concatenate([biomass for biomass, _ in draws]),
        np.full(len(pixel_ids), PIXEL_AREA),
        np.concatenate([canopy for _, canopy in draws]),
        np.array(event_pixel, dtype=np.intp),
        np.array(event_year, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Monte Carlo harness

class Step(NamedTuple):
    """One call of a lane: its value, the warnings it raised under the
    caller's filters, as (message, category, filename, lineno), and the
    exception that stopped the lane there."""
    value: Any
    caught: list[tuple[Warning, type, str, int]]
    error: Exception | None


def run_steps(calls: Sequence[Callable[[], Any]]) -> list[Step]:
    """Make each call in order, one step each. A warning that a filter turns
    into an error raises in its call; the first call that raises ends the
    lane, as it would end a run that made the calls one by one."""
    steps = []
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            try:
                value, error = call(), None
            except Exception as exc:  # raised again by run_lanes, where the run was called
                value, error = None, exc
        steps.append(Step(value, [(w.message, w.category, w.filename, w.lineno)
                                  for w in caught], error))
        if error is not None:
            break
    return steps


class _HelperTraceback(Exception):
    """The traceback, as text, of an exception raised in a helper process;
    the cause of that exception where it is raised again."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _send_steps(send, calls: Sequence[Callable[[], Any]]) -> None:
    """A helper process: run the lane ``calls`` and send its steps, with the
    traceback text of the exception that ended it. An exception that pickle
    cannot carry is sent as a RuntimeError of that text."""
    steps = run_steps(calls)
    text = None
    if steps and (error := steps[-1].error) is not None:
        text = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            steps[-1] = steps[-1]._replace(error=RuntimeError(text))
    send.send((steps, text))


@contextlib.contextmanager
def _helper_process(calls: Sequence[Callable[[], Any]]):
    """Run the lane ``calls`` in one forked helper process while the block
    runs, and yield an iterator over its steps, which waits for them. Leaving
    the block joins the helper; a block that raised stops it first."""
    context = multiprocessing.get_context("fork")  # the calls are never pickled
    receive, send = context.Pipe(duplex=False)
    helper = context.Process(target=_send_steps, args=(send, calls))
    helper.start()
    send.close()

    def steps():
        try:
            steps, text = receive.recv()
        except EOFError:
            helper.join()
            raise RuntimeError(f"the helper process exited with code {helper.exitcode} "
                               "before it sent its steps") from None
        if text is not None:
            steps[-1].error.__cause__ = _HelperTraceback(text)
        yield from steps

    try:
        yield steps()
    except BaseException:
        helper.terminate()
        raise
    finally:
        receive.close()
        helper.join()


def run_lanes(calls: Sequence[Callable[[], Any]],
              forked: Sequence[Sequence[int]] = ()) -> list:
    """The values of zero-argument ``calls``, in call order. Each lane of
    ``forked``, some calls' indexes in increasing order, runs in a helper
    forked for it, so only its steps are pickled; the other calls run here
    meanwhile. A lane stops at its first exception. Taken in call order, each
    step issues its warnings again, once per run under "default", then raises
    or gives its value, so a run warns and fails alike wherever its calls
    ran. Every helper is joined on return; an exception, an interrupt
    included, stops those whose steps were not taken first."""
    with contextlib.ExitStack() as stack:
        lane_of = {}
        for lane in forked:
            steps = stack.enter_context(_helper_process([calls[i] for i in lane]))
            lane_of.update(dict.fromkeys(lane, steps))
        here = [i for i in range(len(calls)) if i not in lane_of]
        lane_of.update(dict.fromkeys(here, iter(run_steps([calls[i] for i in here]))))
        registry: dict = {}
        values = []
        for i in range(len(calls)):
            # a lane's steps run out only after one that raised, taken first
            value, caught, error = next(lane_of[i])
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            if error is not None:
                raise error
            values.append(value)
        return values


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

    With ``workers`` > 1 the replications are split, in order of r, into
    ``min(workers, replications)`` contiguous lanes, each run in a forked
    helper process while this one waits, and collected in order of r. So the
    run equals the serial one only if each estimand is a function of its
    panel: state an estimand keeps between calls stays in the helper that
    made it. A forked helper inherits the BLAS thread count of its parent,
    which ``cli.main`` sets to one, so the helpers do not contend with BLAS
    threads of their own.

    The warnings a replication raises under the caller's filters are recorded
    where it runs and issued again here, in order of r, so a run warns the
    same at any worker count. An exception that propagates is raised after
    the warnings of the replications before it, as soon as its lane is
    received; the helpers still running the lanes after it are stopped, not
    waited for.
    """
    if replications < 2:
        raise DGPError("need at least 2 replications")
    if workers < 1:
        raise DGPError(f"need at least one worker, got {workers}")
    if not estimators:
        raise DGPError("need at least one estimator")
    studies = {
        name: MonteCarloStudy({n: float(v) for n, v in truth.items()}, replications, [], [])
        for name, (_, truth) in estimators.items()
    }
    calls = [partial(_replicate, config, estimators, r) for r in range(replications)]
    lanes = min(workers, replications)
    # with several lanes this process runs no replication: its peak memory is the run's
    bounds = [replications * k // lanes for k in range(lanes + 1)]
    forked = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])] if lanes > 1 else ()
    for outcome in run_lanes(calls, forked):
        for study, result in zip(studies.values(), outcome):
            (study.rows if isinstance(result, dict) else study.failures).append(result)
    return MonteCarloRun(studies)


def _replicate(config: DGPConfig, estimators: Mapping[str, Estimand],
               r: int) -> list[dict | tuple[int, str, str]]:
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
