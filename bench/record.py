"""Record the reference outputs that ``run.py`` checks timed calls against.

    python3 bench/record.py --workload gmm-uncollapsed --seeds 0-31

runs the workload's job once per seed and writes
``bench/reference/<workload>.json``: the digest of every checked output
file and the numbers that stand for it (see ``check.numbers``). Record only
from a commit whose outputs are known to be right, and say so in the change
that updates the table.
"""

import argparse
import contextlib
import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy is imported
import check


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.NAMES)
    parser.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-31")
    args = parser.parse_args(argv)

    run._import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = run.ROOT / ".bench_work" / f"record-{args.workload}"
    keys: list[str] = []
    seeds = {}
    try:
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            workload.generate(work, seed)
            steps = workload.job(work, seed)
            for r in run.run_job(steps):
                if r["code"] != 0:
                    sys.exit(f"seed {seed}: {r['step']} exited {r['code']}: {r['stderr']}")
            problems = check.invariants(workload.name, workload.shape, work, {s.name: s.out for s in steps})
            if problems:
                sys.exit(f"seed {seed}: {problems}")
            files, values = {}, {}
            for s in steps:
                part = check.fingerprint(s.name, s.out, s.checked)
                files.update(part["files"])
                values.update(part["values"])
            keys += [k for k in values if k not in keys]
            seeds[str(seed)] = {"files": files, "values": values}
            print(f"seed {seed}: {len(values)} numbers")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    # 12 significant digits are ample for the comparison at check.RTOL;
    # one line per seed keeps the table small and its diffs readable
    head = json.dumps({"workload": args.workload, "keys": keys}, indent=1)[:-2]
    rows = []
    for seed, e in seeds.items():
        values = [None if k not in e["values"] else float(f"{e['values'][k]:.12g}") for k in keys]
        entry = json.dumps({"files": e["files"], "values": values}, sort_keys=True)
        rows.append(f' "{seed}": {entry}')
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    path = check.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(head + ',\n "seeds": {\n' + ",\n".join(rows) + "\n }\n}\n", encoding="utf-8")
    print(f"wrote {path} ({len(seeds)} seeds, {len(keys)} numbers each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
