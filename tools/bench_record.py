"""Record a before/after pair of benchmark runs as ``BENCH_<n>.json``.

Runs ``bench/run.py --trace 0`` for every workload and seed in two
snapshots, each exported with ``git archive`` into a scratch directory, so
the repository itself is not touched and neither side sees a file that git
does not track (a bytecode cache, a bench output): the working tree's
tracked files ("tree", committed by ``git stash create``, or HEAD when
they are unchanged) and a base revision ("base").  An untracked file under
``src/``, ``bench/`` or ``tools/`` would be missing from the tree side, so
the recorder refuses to run while there is one.  For each (workload, seed)
both sides run back to back, and the side that runs first alternates from
seed to seed.  The file holds each run's provenance line, its three end-to-end
metrics with ``correct``, ``attempted`` and ``failed``, the median and
quartiles of each metric per side, and the median over seeds of the
paired relative change tree / base - 1.

    python3 tools/bench_record.py --out BENCH_31.json --base HEAD~1 \\
        --seeds bulk_samples=1,2,3,4,5,6,7,8,9,10 laws=1,2,3 mi_long_blocks=1,2,3

Run it from the root of a checkout, on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of ``rev``, as committed, under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def tree_rev() -> str:
    """A commit of the working tree's tracked files, as ``export`` takes it."""
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "bench", "tools")
    if untracked:
        raise SystemExit(f"bench_record: untracked files, which the tree side would miss:\n"
                         f"{untracked}")
    return git("stash", "create") or git("rev-parse", "HEAD")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its provenance line and its JSON summary."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    prov = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("provenance "))
    return {"provenance": prov, "correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            **{k: summary["metrics"][k]["value"] for k in METRICS}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    sides = {side: {k: spread([r[k] for r in runs if r["side"] == side]) for k in METRICS}
             for side in ("tree", "base")}
    pairs = {}
    for k in METRICS:
        by_seed = {(r["seed"], r["side"]): r[k] for r in runs}
        seeds = sorted({r["seed"] for r in runs})
        pairs[k] = statistics.median(by_seed[s, "tree"] / by_seed[s, "base"] - 1.0 for s in seeds)
    return {**sides, "paired_change_median": pairs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    p.add_argument("--base", default="HEAD~1", help="git revision of the base side")
    p.add_argument("--seeds", nargs="+", required=True, metavar="WORKLOAD=S1,S2,...")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--scratch", type=Path, help="directory for the two snapshots")
    args = p.parse_args(argv)
    plan = {w: [int(s) for s in seeds.split(",")]
            for w, seeds in (item.split("=", 1) for item in args.seeds)}
    base_sha, tree_sha = git("rev-parse", args.base), tree_rev()
    record = {
        "sides": {"tree": {"head": git("rev-parse", "HEAD"), "sha": tree_sha,
                           "uncommitted": bool(git("status", "--porcelain", "--", "src", "bench"))},
                  "base": {"rev": args.base, "sha": base_sha}},
        "command": f"bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        checkouts = {side: Path(tmp) / side for side in ("tree", "base")}
        export(tree_sha, checkouts["tree"])
        export(base_sha, checkouts["base"])
        for workload, seeds in plan.items():
            runs = []
            for i, seed in enumerate(seeds):
                order = ("tree", "base") if i % 2 == 0 else ("base", "tree")
                for side in order:
                    run = {"side": side, "seed": seed, **bench(checkouts[side], workload, seed,
                                                              args.seconds)}
                    print(workload, seed, side, {k: round(run[k], 4) for k in METRICS},
                          "correct" if run["correct"] else "NOT correct", file=sys.stderr)
                    runs.append(run)
            record["workloads"][workload] = {"runs": runs, "summary": summarize(runs)}
    record["provenance"] = record["workloads"][next(iter(plan))]["runs"][0]["provenance"]
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
