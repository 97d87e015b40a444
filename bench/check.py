"""Output checks for the timed CLI calls.

Three checks, applied to every timed call:

* repeats within a run write byte-identical output directories;
* seed-independent invariants: the workload shape (N, T, instrument counts,
  replications), finite numbers, a loose recovery bound for the estimators
  with a known target, and closed-form recomputations of the ingest panel
  and of the two-way within fit;
* for seeds in ``reference/<workload>.json``, the numbers of every checked
  output file (see ``numbers``) match the values recorded at the reference
  commit within ``RTOL``/``ATOL``. A file whose bytes equal the recorded
  digest passes without the number-by-number comparison.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def dir_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}/{key}", out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            key = i
            if isinstance(item, dict):
                key = item.get("name", item.get("estimator", item.get("variation", i)))
            _flatten(item, f"{prefix}/{key}", out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)


# CSVs with one row per region-year or per replication: compared through
# column aggregates rather than cell by cell
SUMMARISED_CSV = {"panel.csv", "scatter.csv", "montecarlo.csv"}


def numbers(path: Path) -> dict[str, float]:
    """Numbers that stand for one output file.

    JSON: every numeric leaf. Small CSV: every cell, keyed by the first
    column. Large CSV: the sum of absolute values and the sum of squares of
    each numeric column.
    """
    out: dict[str, float] = {}
    if path.suffix == ".json":
        _flatten(json.loads(path.read_text(encoding="utf-8")), path.name, out)
        return out
    with path.open(newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    if path.name not in SUMMARISED_CSV:
        for row in rows:
            for name, text in zip(header[1:], row[1:]):
                out[f"{path.name}/{row[0]}/{name}"] = float(text)
        return out
    for j, name in enumerate(header):
        try:
            column = [float(row[j]) for row in rows if row[j] != ""]
        except ValueError:  # region or estimator labels
            continue
        out[f"{path.name}/{name}/abs_sum"] = math.fsum(abs(v) for v in column)
        out[f"{path.name}/{name}/sq_sum"] = math.fsum(v * v for v in column)
    return out


def _recorded(key: str) -> bool:
    # time-dummy coefficients and p-values follow from the numbers that are
    # kept, and would more than double the size of the reference table
    return "/year_" not in key and not key.endswith("/p_value")


def fingerprint(step_name: str, out_dir: Path, checked) -> dict:
    """Digests and numbers of the checked output files."""
    files, values = {}, {}
    for name in checked:
        path = out_dir / name
        files[f"{step_name}/{name}"] = digest(path)
        values.update({f"{step_name}/{k}": v for k, v in numbers(path).items() if _recorded(k)})
    return {"files": files, "values": values}


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {"keys": [], "seeds": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def compare_reference(found: dict, ref: dict, keys: list[str]) -> list[str]:
    """Mismatches between one job's fingerprint and its reference entry."""
    problems = []
    same_bytes = {k for k, d in ref["files"].items() if found["files"].get(k) == d}
    for key, expected in zip(keys, ref["values"]):
        if expected is None or "/".join(key.split("/")[:2]) in same_bytes:
            continue
        got = found["values"].get(key)
        if got is None:
            problems.append(f"{key}: missing")
        elif not abs(got - expected) <= ATOL + RTOL * abs(expected):
            problems.append(f"{key}: {got!r} != reference {expected!r}")
    return problems


def _coef(report: dict, fit: str, name: str) -> float:
    for row in report["fits"][fit]["coefficients"]:
        if row["name"] == name:
            return row["estimate"]
    raise KeyError(f"{fit} has no coefficient {name}")


def _read_panel(path: Path) -> dict[str, np.ndarray]:
    """A `region,year,<var>,...` CSV as N x T arrays, regions in file order."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    regions = {r: i for i, r in enumerate(dict.fromkeys(row[0] for row in data))}
    years = {y: j for j, y in enumerate(sorted({int(row[1]) for row in data}))}
    out = {name: np.full((len(regions), len(years)), np.nan) for name in header[2:]}
    for row in data:
        i, j = regions[row[0]], years[int(row[1])]
        for name, text in zip(header[2:], row[2:]):
            out[name][i, j] = float(text)
    return out


def _ingest_oracle(work: Path, panel_csv: Path, threshold: float) -> list[str]:
    """Loss area and emissions per region-year, summed directly from the pixel CSVs."""
    theta = 44.0 / 12.0
    with (work / "events.csv").open(newline="", encoding="utf-8") as handle:
        lost = {row["pixel"]: int(row["year"]) for row in csv.DictReader(handle)}
    cells: dict[tuple[str, int], list[float]] = {}
    regions: dict[str, None] = {}
    with (work / "pixels.csv").open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            if float(row["canopy"]) < threshold:
                continue
            regions.setdefault(row["region"])
            if row["pixel"] in lost:
                area = float(row["area"])
                cell = cells.setdefault((row["region"], lost[row["pixel"]]), [0.0, 0.0])
                cell[0] += area
                cell[1] += float(row["biomass"]) * area * theta
    first = min(y for _, y in cells)
    L = np.zeros((len(regions), max(y for _, y in cells) - first + 1))
    E = np.zeros_like(L)
    index = {r: i for i, r in enumerate(regions)}
    for (region, year), (area, mass) in cells.items():
        L[index[region], year - first] = area
        E[index[region], year - first] = mass
    panel = _read_panel(panel_csv)
    problems = []
    for name, want in (("L", L), ("E", E)):
        got = panel[name]
        if got.shape != want.shape or not np.allclose(got, want, rtol=RTOL, atol=ATOL):
            problems.append(f"ingest: panel.csv {name} differs from the sums of the pixel CSVs")
    return problems


def _fe2w_oracle(panel_csv: Path, report: dict, x: str, y: str, log1: bool) -> list[str]:
    """Two-way within slope and its region-clustered SE, in closed form."""
    panel = _read_panel(panel_csv)
    gx, gy = panel[x], panel[y]
    if log1:
        gx, gy = np.log1p(gx), np.log1p(gy)

    def within(v):
        return v - v.mean(axis=1, keepdims=True) - v.mean(axis=0, keepdims=True) + v.mean()

    dx, dy = within(gx), within(gy)
    beta = float((dx * dy).sum() / (dx * dx).sum())
    N, T = dx.shape
    n = N * T
    scores = (dx * (dy - beta * dx)).sum(axis=1)
    factor = (N / (N - 1)) * ((n - 1) / (n - 1 - (N + T - 1)))
    se = math.sqrt(factor * float(scores @ scores)) / float((dx * dx).sum())
    row = report["fits"]["fe2w"]["coefficients"][0]
    problems = []
    for label, got, want in (("estimate", row["estimate"], beta), ("std_error", row["std_error"], se)):
        if not abs(got - want) <= ATOL + RTOL * abs(want):
            problems.append(f"fe2w {label} {got!r} != closed form {want!r}")
    return problems


def invariants(workload: str, shape: dict, work: Path, out_dirs: dict[str, Path]) -> list[str]:
    """Seed-independent checks on one job's outputs.

    Besides shape and plausibility checks, two closed-form oracles cover any
    seed: the ingest panel is recomputed from the pixel CSVs, and the two-way
    within slope and its clustered SE from the panel the estimate call read.
    """
    problems = []
    for step, out_dir in out_dirs.items():
        for path in sorted(out_dir.iterdir()):
            if path.name != "manifest.json":
                bad = [k for k, v in numbers(path).items() if not math.isfinite(v)]
                if bad:
                    problems.append(f"{step}/{path.name}: non-finite {bad[:3]}")

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: {got!r}, expected {want!r}")

    panel_csv = work / "panel.csv"
    if "ingest" in out_dirs:
        summary = json.loads((out_dirs["ingest"] / "summary.json").read_text())
        expect("ingest N", summary["n_regions"], shape["N"])
        expect("ingest T", summary["n_years"], shape["T"])
        panel_csv = out_dirs["ingest"] / "panel.csv"
        problems += _ingest_oracle(work, panel_csv, shape["canopy_threshold"])
    if "estimate" in out_dirs:
        report = json.loads((out_dirs["estimate"] / "report.json").read_text())
        if workload == "pipeline-large":
            problems += _fe2w_oracle(panel_csv, report, "L", "E", log1=True)
        else:
            problems += _fe2w_oracle(panel_csv, report, "l", "e", log1=False)
        expect("estimators", sorted(report["fits"]), ["diffgmm", "fe2w", "lsdv", "pooled", "sysgmm"])
        for fit, k in shape["K"].items():
            expect(f"{fit} K", report["fits"][fit]["n_instruments"], k)
        expect("fe2w n_obs", report["fits"]["fe2w"]["n_obs"], shape["N"] * shape["T"])
        if workload == "gmm-uncollapsed":
            # the simulated truth is rho = 0.5, beta = 1 (workloads.DYNAMIC)
            for fit in ("diffgmm", "sysgmm"):
                rho, beta = _coef(report, fit, "e_l1"), _coef(report, fit, "l")
                if abs(rho - 0.5) > 0.1 or abs(beta - 1.0) > 0.1:
                    problems.append(f"{fit}: rho {rho:.3f}, beta {beta:.3f} far from truth")
    if "montecarlo" in out_dirs:
        study = json.loads((out_dirs["montecarlo"] / "montecarlo.json").read_text())
        expect("estimators", sorted(study["results"]), shape["estimators"])
        for name, res in study["results"].items():
            expect(f"{name} replications", res["replications"], shape["replications"])
            expect(f"{name} completed+failed", res["completed"] + res["failed"], res["replications"])
        agg = study["results"]
        # diff-GMM is consistent for rho = 0.5; within-LSDV is biased down (Nickell)
        if "diffgmm" in agg and abs(agg["diffgmm"]["aggregates"]["e_l1"]["mean"] - 0.5) > 0.1:
            problems.append("diffgmm mean rho far from 0.5")
        if "lsdv" in agg and not agg["lsdv"]["aggregates"]["e_l1"]["mean"] < 0.5:
            problems.append("lsdv mean rho shows no downward bias")
    return problems


def failed_replications(out_dir: Path) -> int:
    study = json.loads((out_dir / "montecarlo.json").read_text())
    return sum(res["failed"] for res in study["results"].values())
