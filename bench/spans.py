"""Span tracing of forestpanel's layers, from outside the program.

While ``Tracer.install()`` is in effect, each public layer function in
``LAYER_FUNCTIONS`` is replaced by a wrapper in *every* forestpanel module
namespace that holds it: ``cli`` imports the fit functions by name and
``ingest`` imports ``build_panel`` by name, so patching only the defining
module would miss those calls. A wrapper records one span per call (name,
start, end, parent, and the id of the CLI call it belongs to). Spans stay
in memory and are summarised when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYER_FUNCTIONS = {
    "ingest": ("load_pixel_grid_csv", "filter_canopy", "pixel_panel", "write_panel_csv",
               "load_panel_csv"),
    "panel": ("build_panel", "log1_grid", "lag", "demean_twoway_values", "interact"),
    "estimators": ("cluster_robust_vcov", "qr_lstsq", "fit_pooled_ols", "fit_twoway_fe",
                   "fit_dynamic_lsdv"),
    "gmm": ("fit_diff_gmm", "fit_sys_gmm", "build_ab_instruments"),
    "diagnostics": ("hansen_j", "durbin_watson", "diagnostic_bundle"),
    "dgp": ("simulate_dynamic_panel", "simulate_disturbance_grid", "monte_carlo"),
}

# functions reported together under one per-layer name
GROUPS = {
    "panel.log1_grid": "panel.transforms",
    "panel.lag": "panel.transforms",
    "panel.demean_twoway_values": "panel.transforms",
    "panel.interact": "panel.transforms",
    "estimators.fit_pooled_ols": "estimators.fit",
    "estimators.fit_twoway_fe": "estimators.fit",
    "estimators.fit_dynamic_lsdv": "estimators.fit",
}

CLI_ROOT = "cli.main"
SUBCOMMANDS = ("ingest", "estimate", "robustness", "montecarlo")
SETUP_ROOT = "setup"

# per-layer names in report order; cli.main's self time is cli.self_s
LAYERS = (
    "cli",
    "ingest.load_pixel_grid_csv", "ingest.filter_canopy", "ingest.pixel_panel",
    "ingest.write_panel_csv", "ingest.load_panel_csv",
    "panel.build_panel", "panel.transforms",
    "estimators.cluster_robust_vcov", "estimators.qr_lstsq", "estimators.fit",
    "gmm.fit_diff_gmm", "gmm.fit_sys_gmm", "gmm.build_ab_instruments",
    "diagnostics.hansen_j", "diagnostics.durbin_watson", "diagnostics.diagnostic_bundle",
    "dgp.simulate_dynamic_panel", "dgp.simulate_disturbance_grid", "dgp.monte_carlo",
)

PINV_WARNING = "pseudo-inverse fallback"


def _layer(name: str) -> str:
    return "cli" if name == CLI_ROOT else GROUPS.get(name, name)


def _count_pixels(grid):
    return {"ingest.pixels": len(grid.pixels), "ingest.events": len(grid.loss_events)}


def _count_rows(result):
    panel, _dropped = result
    return {"ingest.panel_rows": panel.N * panel.T}


def _count_gmm(prefix):
    def count(fit):
        fallback = any(PINV_WARNING in w for w in fit.warnings)
        return {f"{prefix}.n_instruments": fit.gmm.n_instruments,
                "gmm.weight_fallbacks": int(fallback)}
    return count


def _count_failed(study):
    return {"dgp.failed_reps": study.n_failed}


# counts taken from a layer call's return value, at the same boundary as its span
COUNTERS = {
    "ingest.load_pixel_grid_csv": _count_pixels,
    "ingest.load_panel_csv": _count_rows,
    "gmm.fit_diff_gmm": _count_gmm("gmm.fit_diff_gmm"),
    "gmm.fit_sys_gmm": _count_gmm("gmm.fit_sys_gmm"),
    "dgp.monte_carlo": _count_failed,
}
# counts reported as the largest value seen in a job, not summed
MAX_COUNTS = {"gmm.fit_diff_gmm.n_instruments", "gmm.fit_sys_gmm.n_instruments"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call_id: int


@dataclass
class Tracer:
    """Records spans while installed; ``install()`` returns a context manager."""

    spans: list[Span] = field(default_factory=list)
    counts: list[tuple[str, int]] = field(default_factory=list)
    labels: dict[int, str] = field(default_factory=dict)  # call id -> CLI subcommand
    _stack: list[int] = field(default_factory=list)
    _call_id: int = -1

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._call_id += 1
        record = Span(name, time.perf_counter(), 0.0, parent, self._call_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, n in counter(result).items():
                self.counts.append((key, int(n)))
        return result

    def call(self, label: str, fn, *args):
        """Run one CLI call as a root span; its spans share a new call id."""
        result = self.span(CLI_ROOT, fn, *args)
        self.labels[self._call_id] = label
        return result

    def install(self):
        return _Patched(self)


class _Patched:
    """Swap layer functions for span-recording wrappers in every namespace."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "forestpanel" or n.startswith("forestpanel.")) and m is not None]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"forestpanel.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        return self.tracer

    def _wrap(self, span_name, original):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.span(span_name, original, *args, **kwargs)

        return wrapper

    def __exit__(self, *exc):
        for module, attr, value in reversed(self.undo):
            setattr(module, attr, value)
        self.undo.clear()
        return False


# ---------------------------------------------------------------------------
# summaries

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _percentile_ms(samples: list[float], q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer: Tracer, n_jobs: int, n_setups: int, overhead_s: float) -> dict:
    """Per-layer metrics for one workload pass: one input generation plus one job.

    Times and counts from CLI calls are divided by the number of traced jobs,
    those from input generation by the number of traced set-ups.
    """
    selfs = self_times(tracer.spans)
    roots = {s.call_id: s.name for s in tracer.spans if s.parent is None}
    busy = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0.0 for layer in LAYERS}
    durations: dict[str, list[float]] = {}
    for s, own in zip(tracer.spans, selfs):
        if s.name == SETUP_ROOT:
            continue
        per = n_setups if roots[s.call_id] == SETUP_ROOT else n_jobs
        layer = _layer(s.name)
        busy[layer] += own / per
        calls[layer] += 1 / per
        durations.setdefault(s.name, []).append(s.end - s.start)

    counts: dict[str, float] = {}
    for key, n in tracer.counts:
        if key in MAX_COUNTS:
            counts[key] = max(counts.get(key, 0), n)
        else:
            counts[key] = counts.get(key, 0) + n / n_jobs

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (busy[layer], "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
    for key in ("ingest.pixels", "ingest.events", "ingest.panel_rows", "gmm.weight_fallbacks",
                "gmm.fit_diff_gmm.n_instruments", "gmm.fit_sys_gmm.n_instruments",
                "dgp.failed_reps"):
        out[key] = (counts.get(key, 0), "count")
    pixel_s = sum(busy[f"ingest.{f}"] for f in ("load_pixel_grid_csv", "filter_canopy", "pixel_panel"))
    out["ingest.pixels_per_s"] = (counts.get("ingest.pixels", 0) / pixel_s if pixel_s else 0.0, "1/s")
    rows_s = busy["ingest.load_panel_csv"] + busy["panel.build_panel"]
    out["ingest.rows_per_s"] = (counts.get("ingest.panel_rows", 0) / rows_s if rows_s else 0.0, "1/s")
    for name in ("estimators.fit_dynamic_lsdv", "gmm.fit_diff_gmm"):
        samples = durations.get(name, [])
        out[f"{name}.p50_ms"] = (_percentile_ms(samples, 50), "ms")
        out[f"{name}.p95_ms"] = (_percentile_ms(samples, 95), "ms")
    walls: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s.parent is None and s.name == CLI_ROOT:
            walls.setdefault(tracer.labels[s.call_id], []).append(s.end - s.start)
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = (statistics.median(walls[sub]) if sub in walls else 0.0, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def call_table(tracer: Tracer) -> tuple[list[str], float]:
    """Per-layer self time, calls and share of wall time, for each subcommand.

    Also returns the largest gap, over all CLI calls, between a call's wall
    time and the sum of the self times of its spans (zero up to rounding).
    """
    selfs = self_times(tracer.spans)
    roots = {s.call_id: s for s in tracer.spans if s.parent is None and s.name == CLI_ROOT}
    summed = {c: 0.0 for c in roots}
    busy: dict[str, dict[str, float]] = {}
    calls: dict[str, dict[str, int]] = {}
    wall: dict[str, float] = {}
    for c, root in roots.items():
        label = tracer.labels[c]
        wall[label] = wall.get(label, 0.0) + root.end - root.start
    for s, own in zip(tracer.spans, selfs):
        if s.call_id not in roots:
            continue
        summed[s.call_id] += own
        label, layer = tracer.labels[s.call_id], _layer(s.name)
        busy.setdefault(label, {})[layer] = busy.get(label, {}).get(layer, 0.0) + own
        calls.setdefault(label, {})[layer] = calls.get(label, {}).get(layer, 0) + 1
    gap = max((abs(summed[c] - (r.end - r.start)) for c, r in roots.items()), default=0.0)
    lines = []
    for label, layers in busy.items():
        lines.append(f"{label + ' call':34s} {'self_s':>10s} {'calls':>8s} {'share':>7s}")
        for layer in sorted(layers, key=layers.get, reverse=True):
            lines.append(f"  {layer:32s} {layers[layer]:10.4f} {calls[label][layer]:8d} "
                         f"{layers[layer] / wall[label]:7.1%}")
        lines.append(f"  {'sum of self times':32s} {sum(layers.values()):10.4f}   "
                     f"traced wall {wall[label]:.4f} s")
    return lines, gap
