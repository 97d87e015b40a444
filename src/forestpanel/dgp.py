"""Simulation: dynamic panel data with known parameters, synthetic pixel
disturbance grids, and the Monte Carlo harness used to validate estimators.

Every draw is reproducible from the config seed; replication r of a Monte
Carlo study derives its own sub-seed from (seed, r), so replications are
independent of execution order and thread count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .estimators import EstimationError, FitResult
from .ingest import Pixel, PixelGrid
from .panel import Grid, PanelDataset, PanelError


class DGPError(ValueError):
    """Invalid simulation configuration."""


REGRESSOR_PROCESSES = ("iid_normal", "ar1", "correlated_with_alpha")
ERROR_LAWS = ("normal", "heavy_tail")


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

    @classmethod
    def from_mapping(cls, fields: Mapping) -> "DGPConfig":
        """Build from a JSON object, naming any unknown or missing key."""
        known = dataclasses.fields(cls)
        unknown = sorted(set(fields) - {f.name for f in known})
        if unknown:
            raise DGPError(f"unknown dgp keys: {unknown}")
        missing = [f.name for f in known
                   if f.default is dataclasses.MISSING and f.name not in fields]
        if missing:
            raise DGPError(f"dgp block lacks required keys: {missing}")
        return cls(**fields)


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


def simulate_dynamic_panel(
    config: DGPConfig,
    response_name: str = "e",
    regressor_name: str = "l",
) -> tuple[PanelDataset, PanelTruth]:
    """Simulate the autoregressive panel recursion after a burn-in window."""
    rng = np.random.default_rng(config.seed)
    N, T, B = config.n_regions, config.n_years, config.burn_in
    total = B + T
    alpha = config.sigma_alpha * rng.standard_normal(N)
    gamma_all = config.sigma_gamma * rng.standard_normal(total)

    if config.regressor_process == "iid_normal":
        x = config.sigma_x * rng.standard_normal((N, total))
    elif config.regressor_process == "ar1":
        phi = config.regressor_param
        if not abs(phi) < 1:
            raise DGPError("|ar1 coefficient| must be < 1")
        innov = config.sigma_x * rng.standard_normal((N, total))
        x = np.zeros((N, total))
        x[:, 0] = innov[:, 0] / np.sqrt(1 - phi**2)
        for t in range(1, total):
            x[:, t] = phi * x[:, t - 1] + innov[:, t]
    else:
        noise = config.sigma_x * rng.standard_normal((N, total))
        x = config.regressor_param * alpha[:, None] + noise

    u = config.sigma_u * _draw_errors(rng, config.error_law, config.tail_index, (N, total))
    e = np.zeros((N, total))
    prev = np.zeros(N)
    for t in range(total):
        prev = alpha + gamma_all[t] + config.rho * prev + config.beta * x[:, t] + u[:, t]
        e[:, t] = prev

    years = tuple(range(config.start_year, config.start_year + T))
    regions = tuple(f"R{i:04d}" for i in range(N))
    panel = PanelDataset(
        regions,
        years,
        {
            regressor_name: Grid.full(x[:, B:]),
            response_name: Grid.full(e[:, B:]),
        },
    )
    return panel, PanelTruth(config.rho, config.beta, alpha, gamma_all[B:], config)


# ---------------------------------------------------------------------------
# synthetic disturbance grids

@dataclass(frozen=True)
class GridDGPConfig:
    """Synthetic pixel landscape with episodic, heavy-tailed loss events."""

    n_regions: int = 200
    pixels_per_region: int = 400
    n_years: int = 23
    biomass_log_mean: float = 4.0    # lognormal parameters, Mg C / ha
    biomass_log_sigma: float = 0.75
    ignition_rate: float = 0.8       # expected events per region-year
    event_tail_index: float = 1.5    # Pareto tail of event size (pixels)
    event_min_pixels: float = 1.0
    pixel_area: float = 0.09         # hectares; one 30 m pixel
    seed: int = 0
    start_year: int = 2001

    def __post_init__(self):
        if min(self.n_regions, self.pixels_per_region, self.n_years) < 1:
            raise DGPError("counts must be positive")
        if self.ignition_rate < 0 or self.event_tail_index <= 0:
            raise DGPError("bad event process parameters")
        if self.pixel_area <= 0:
            raise DGPError("pixel area must be positive")


def simulate_disturbance_grid(config: GridDGPConfig) -> PixelGrid:
    """Draw biomass from a lognormal law and loss events from a Poisson
    ignition process with Pareto-sized pixel batches.

    A pixel is lost at most once; an event that demands more pixels than
    remain in its region is truncated, never an error.
    """
    rng = np.random.default_rng(config.seed)
    pixels: list[Pixel] = []
    remaining: dict[str, list[str]] = {}
    for i in range(config.n_regions):
        region = f"R{i:04d}"
        biomass = rng.lognormal(
            config.biomass_log_mean, config.biomass_log_sigma, config.pixels_per_region
        )
        canopy = rng.uniform(0.0, 100.0, config.pixels_per_region)
        ids = []
        for j in range(config.pixels_per_region):
            pid = f"{region}:P{j:05d}"
            pixels.append(
                Pixel(pid, region, float(biomass[j]), config.pixel_area, float(canopy[j]))
            )
            ids.append(pid)
        remaining[region] = ids

    events: set[tuple[str, int]] = set()
    years = range(config.start_year, config.start_year + config.n_years)
    for i in range(config.n_regions):
        region = f"R{i:04d}"
        pool = remaining[region]
        for year in years:
            n_events = rng.poisson(config.ignition_rate)
            for _ in range(n_events):
                want = int(np.ceil(
                    config.event_min_pixels * (rng.pareto(config.event_tail_index) + 1.0)
                ))
                take = min(want, len(pool))
                if take == 0:
                    break
                chosen = rng.choice(len(pool), size=take, replace=False)
                for idx in sorted(chosen, reverse=True):
                    events.add((pool[idx], year))
                    pool.pop(idx)
    return PixelGrid(tuple(pixels), frozenset(events))


# ---------------------------------------------------------------------------
# Monte Carlo harness

def replication_seed(seed: int, r: int) -> int:
    """Deterministic sub-seed for replication r, independent of other reps."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


@dataclass(frozen=True)
class MonteCarloStudy:
    """Per-replication estimates plus aggregate bias/RMSE/coverage."""

    param_names: tuple[str, ...]
    truth: dict[str, float]
    estimates: list[dict[str, float]]
    std_errors: list[dict[str, float]]
    failures: list[tuple[int, str]]
    replications: int

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def aggregates(self) -> dict[str, dict[str, float | None]]:
        """Per-parameter summaries; ``None`` when no replication completed."""
        out = {}
        for name in self.param_names:
            true = self.truth[name]
            if not self.estimates:
                out[name] = {"truth": true, "mean": None, "bias": None,
                             "rmse": None, "coverage": None}
                continue
            est = np.array([rep[name] for rep in self.estimates])
            ses = np.array([rep[name] for rep in self.std_errors])
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
            "completed": len(self.estimates),
            "failed": self.n_failed,
            "aggregates": self.aggregates(),
        }

    def per_rep_rows(self) -> list[dict]:
        rows = []
        for r, (est, ses) in enumerate(zip(self.estimates, self.std_errors)):
            row: dict = {"rep": r}
            for name in self.param_names:
                row[f"{name}_estimate"] = est[name]
                row[f"{name}_se"] = ses[name]
            rows.append(row)
        return rows


def monte_carlo(
    config: DGPConfig,
    estimator: Callable[[PanelDataset], FitResult],
    params: Mapping[str, float],
    replications: int,
) -> MonteCarloStudy:
    """Run the estimator on fresh draws and aggregate bias, RMSE, coverage.

    ``params`` maps fit coefficient names to their true values. A
    replication whose fit raises a typed estimation, panel or linear-algebra
    error is recorded and excluded from aggregates, never silently dropped;
    any other exception is a bug and propagates.
    """
    if replications < 2:
        raise DGPError("need at least 2 replications")
    names = tuple(params)
    estimates, std_errors, failures = [], [], []
    for r in range(replications):
        sub = dataclasses.replace(config, seed=replication_seed(config.seed, r))
        panel, _ = simulate_dynamic_panel(sub)
        try:
            fit = estimator(panel)
            ses = fit.std_errors()
            estimates.append({n: fit.coefficients[n] for n in names})
            std_errors.append({n: ses[n] for n in names})
        except (EstimationError, PanelError, np.linalg.LinAlgError) as exc:
            failures.append((r, f"{type(exc).__name__}: {exc}"))
    return MonteCarloStudy(
        param_names=names,
        truth={n: float(v) for n, v in params.items()},
        estimates=estimates,
        std_errors=std_errors,
        failures=failures,
        replications=replications,
    )
