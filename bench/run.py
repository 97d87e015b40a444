"""Seeded, offline benchmark of the forestpanel command line.

Run one workload (the last line of standard output is a JSON result):

    python3 bench/run.py --workload pipeline-large --seed 1 --seconds 15 --trace 0

or every workload in turn, with one table of all metrics:

    python3 bench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Workloads, metrics and the layer map are described
in ``bench/workloads.json``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()

# one process generates the load, with single-threaded BLAS, so that timings
# do not depend on how many cores are idle; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import check  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("pipeline-large", "gmm-uncollapsed", "mc-nickell")
SETUP_REPEATS = 3


def _import_program():
    """Import forestpanel from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import forestpanel

    if Path(forestpanel.__file__).resolve().parent != SRC / "forestpanel":
        sys.exit(f"bench: imported forestpanel from {forestpanel.__file__}, not {SRC}")


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy loaded."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for module in (numpy, scipy):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    found[module.__name__] = fn()
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one workload

def call_cli(argv) -> tuple[int, str]:
    """Run ``forestpanel.cli.main`` in-process; returns exit code and stderr."""
    from forestpanel import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is one failed operation; the run goes on
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def run_job(steps, tracer=None) -> list[dict]:
    """One pass over the workload's CLI calls, each timed on its own."""
    results = []
    for step in steps:
        shutil.rmtree(step.out, ignore_errors=True)  # each call writes its outputs afresh
        if tracer is None:
            t0 = time.perf_counter()
            code, err = call_cli(step.argv)
            wall = time.perf_counter() - t0
        else:
            with tracer.install():
                t0 = time.perf_counter()
                code, err = tracer.call(step.name, call_cli, step.argv)
                wall = time.perf_counter() - t0
        ok = code == 0 and step.out.is_dir()
        results.append({
            "step": step.name,
            "wall": wall,
            "code": code,
            "stderr": err.strip(),
            "digest": check.dir_digest(step.out) if ok else None,
            "bytes": sum(p.stat().st_size for p in step.out.iterdir()) if ok else 0,
        })
    return results


def check_outputs(workload, seed, work, steps, rounds) -> tuple[int, int, list[str]]:
    """Score every timed call; returns (attempted, failed, problems)."""
    problems = []
    attempted = failed = 0
    first = {r["step"]: r["digest"] for r in rounds[0]}
    for job in rounds:
        for r in job:
            attempted += 1
            if r["code"] != 0:
                failed += 1
                problems.append(f"{r['step']}: exit {r['code']}: {r['stderr'][-300:]}")
            elif r["digest"] != first[r["step"]]:
                failed += 1
                problems.append(f"{r['step']}: output differs between repeats")
    if failed:
        return attempted, failed, problems

    # the outputs on disk are those of every timed call, all byte-identical
    out_dirs = {s.name: s.out for s in steps}
    try:
        found = {"files": {}, "values": {}}
        for s in steps:
            part = check.fingerprint(s.name, s.out, s.checked)
            found["files"].update(part["files"])
            found["values"].update(part["values"])
        problems += check.invariants(workload.name, workload.shape, work, out_dirs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
    reference = check.load_reference(workload.name)
    entry = reference["seeds"].get(str(seed))
    if not problems and entry is None:
        print(f"reference: seed {seed} not in table; invariants and repeat identity only")
    elif not problems:
        problems += check.compare_reference(found, entry, reference["keys"])
        same = all(found["files"].get(k) == d for k, d in entry["files"].items())
        verdict = "MISMATCH" if problems else "byte-identical" if same else "within tolerance"
        print(f"reference: seed {seed} in table, {verdict}")
    if problems:
        # identical outputs share one verdict: every call of the job fails
        return attempted, attempted, problems
    if "montecarlo" in out_dirs:
        reps = workload.shape["replications"] * len(rounds)
        attempted += reps
        failed += min(reps, check.failed_replications(out_dirs["montecarlo"]) * len(rounds))
    return attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import_s = time.perf_counter() - START

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    print("env " + json.dumps(environment(), sort_keys=True))
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _measure(workload, seed, seconds, trace, work, import_s) -> int:
    tracer = spans.Tracer() if trace else None
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is None:
            facts = workload.generate(work, seed)
        else:
            with tracer.install():
                facts = tracer.span(spans.SETUP_ROOT, workload.generate, work, seed)
        gen_times.append(time.perf_counter() - t0)
    steps = workload.job(work, seed)
    warm = run_job(steps)
    setup_s = import_s + statistics.median(gen_times) + sum(r["wall"] for r in warm)

    rounds, plain = [], []
    start = time.perf_counter()
    # stop when one more job would overrun --seconds by more than half a job
    while not rounds or (time.perf_counter() - start) * (1 + 0.5 / len(rounds)) < seconds:
        if tracer is not None:
            plain.append(run_job(steps))
        rounds.append(run_job(steps, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems = check_outputs(workload, seed, work, steps, plain + rounds)
    for p in problems[:20]:
        print(f"check: {p}")
    if not problems:
        print("shape " + json.dumps({**facts, **_shape(steps)}, sort_keys=True))

    def step_median(job_list, step):
        return statistics.median(r["wall"] for job in job_list for r in job if r["step"] == step)

    def job_median(job_list):
        # sum of per-call medians: one slow call does not move the other calls' share
        return sum(step_median(job_list, s.name) for s in steps)

    for s in steps:
        samples = [round(r["wall"], 4) for job in rounds for r in job if r["step"] == s.name]
        print(f"samples {s.name}_s {samples}")
    if tracer is None:
        for s in steps:
            value = step_median(rounds, s.name)
            if s.name == "montecarlo":
                print(f"metric mc_reps_per_s = {workload.shape['replications'] / value:.4f} "
                      f"replications/s (median of {len(rounds)})")
            else:
                print(f"metric {s.name}_s = {value:.4f} s (median of {len(rounds)})")
        print(f"metric error_rate = {failed / attempted:.6f} failed/attempted "
              f"({failed}/{attempted})")
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_s": (job_median(rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        overhead = job_median(rounds) - job_median(plain)
        lines, gap = spans.call_table(tracer)
        print(f"trace: {len(rounds)} traced and {len(plain)} untraced jobs, "
              f"trace.overhead_s = {overhead:.4f} s per job")
        for line in lines:
            print("trace: " + line)
        print(f"trace: largest gap between a call's wall time and its summed self times: {gap:.2e} s")
        metrics = spans.layer_metrics(tracer, len(rounds), SETUP_REPEATS, overhead)
        bytes_per_call = statistics.mean(r["bytes"] for job in rounds for r in job)
        metrics["cli.output_bytes"] = (bytes_per_call, "count")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _shape(steps) -> dict:
    """N, T and instrument counts as the program reported them."""
    out = {}
    for s in steps:
        if s.name == "ingest":
            summary = json.loads((s.out / "summary.json").read_text())
            out.update(N=summary["n_regions"], T=summary["n_years"])
        elif s.name == "estimate":
            report = json.loads((s.out / "report.json").read_text())
            out["K"] = {f: report["fits"][f].get("n_instruments") for f in ("diffgmm", "sysgmm")}
            out["n_obs_fe2w"] = report["fits"]["fe2w"]["n_obs"]
        elif s.name == "montecarlo":
            study = json.loads((s.out / "montecarlo.json").read_text())
            dgp = dict(study["dgp"])
            out.update(N=dgp["n_regions"], T=dgp["n_years"],
                       replications={k: r["replications"] for k, r in study["results"].items()})
    return out


# ---------------------------------------------------------------------------
# every workload

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    table, ok = [], True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] failed with exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        table += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        # the per-call figures printed as "metric <name> = <value> <unit> ..."
        table += [(name, p[1], float(p[3]), p[4]) for p in map(str.split, lines[:-1])
                  if p[:1] == ["metric"]]
    print(f"\n{'workload':18s} {'metric':40s} {'value':>14s} unit")
    for name, metric, value, unit in table:
        print(f"{name:18s} {metric:40s} {value:14.4f} {unit}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long to repeat the timed job (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "forestpanel" / "__init__.py").is_file():
        sys.exit(f"bench: no forestpanel sources under {SRC}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
