#!/usr/bin/env python3
"""Paired runs of the benchmark: a base revision against this checkout.

    python3 scripts/bench_ab.py --base REV [--pairs N] [--workload W]
        [--seconds S] [--seed K] [--tiny]

REV is checked out with ``git worktree add --detach`` under the git-ignored
``.perfbench-work/`` and removed at exit, also on failure. Each pair runs
the base tree's own ``perfbench/run.py`` and this checkout's, one after the
other, with the first side alternating from pair to pair: ``run.py`` takes
the sources it measures from its own tree. Both sides run with
``PYTHONDONTWRITEBYTECODE=1`` and with no ``__pycache__`` under either
tree's ``src`` or ``perfbench``, so neither starts from stale bytecode.

Per workload and end-to-end metric, the script prints each side's median
and quartiles, the median per-pair ratio (change over base), and in how
many pairs the change read better, ties counting for neither. It writes
``BENCH_<short-rev>.json`` into the current directory, named after this
checkout's HEAD (``-dirty`` when tracked files differ from it), with both
sides' raw samples as one set. A file of the same base and change revisions
gains the set beside its earlier ones; any other is replaced. The exit
status is 0 when every run completed, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"
RSS_NOTE = (
    "the ru_maxrss of each child, which includes the harness's own high-water "
    "mark: the harness's figure, not the program's peak"
)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def clear_bytecode(tree: Path) -> None:
    for top in ("src", "perfbench"):
        for cache in (tree / top).rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)


def run_side(tree: Path, args, env) -> dict:
    """One ``perfbench/run.py`` run of ``tree``: its result line, keyed by workload."""
    clear_bytecode(tree)
    argv = [sys.executable, str(tree / "perfbench" / "run.py"),
            "--workload", args.workload, "--seconds", str(args.seconds)]
    argv += ["--seed", str(args.seed)] * (args.seed is not None) + ["--tiny"] * args.tiny
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    metrics = {}
    for key, metric in result["metrics"].items():
        workload, _, name = key.rpartition("/")
        metrics.setdefault(workload or args.workload, {})[name] = metric["value"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: dict, better: dict) -> list[dict]:
    """Per workload and metric: both sides' medians and quartiles, the median
    per-pair ratio, and the pairs in which the change read better."""
    rows = []
    for workload, names in runs["base"][0]["metrics"].items():
        for name in names:
            base = [run["metrics"][workload][name] for run in runs["base"]]
            change = [run["metrics"][workload][name] for run in runs["change"]]
            sign = 1 if better[name] == "higher" else -1
            ratios = [c / b for b, c in zip(base, change) if b]
            rows.append({
                "workload": workload, "metric": name,
                "base_median": statistics.median(base), "base_quartiles": quartiles(base),
                "change_median": statistics.median(change),
                "change_quartiles": quartiles(change),
                "median_ratio": statistics.median(ratios) if ratios else None,
                "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                "pairs": len(base),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    tree = WORK / f"ab-base-{os.getpid()}"
    WORK.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", str(tree), base_rev)
    runs: dict[str, list] = {"base": [], "change": []}
    try:
        for pair in range(args.pairs):
            sides = [("base", tree), ("change", ROOT)]
            for side, root in sides[:: 1 if pair % 2 == 0 else -1]:
                runs[side].append(run_side(root, args, env))
                print(f"pair {pair + 1}/{args.pairs}: {side} done", file=sys.stderr)
    finally:
        git("worktree", "remove", "--force", str(tree))
    recorded = json.loads((ROOT / "perfbench" / "recorded.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = summarize(runs, {spec["name"]: spec["better"] for spec in bench["end_to_end"]})
    print(f"{'workload':13} {'metric':20} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>6} {'wins':>5}")
    for row in rows:
        sides = [f"{row[f'{s}_median']:.5g} [{row[f'{s}_quartiles'][0]:.5g}, "
                 f"{row[f'{s}_quartiles'][1]:.5g}]" for s in ("base", "change")]
        ratio = "-" if row["median_ratio"] is None else f"{row['median_ratio']:.3f}"
        print(f"{row['workload']:13} {row['metric']:20} {sides[0]:>30} {sides[1]:>30} "
              f"{ratio:>6} {row['wins']:>2}/{row['pairs']}")
    for side in runs:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        wrong = sum(not run["correct"] for run in runs[side])
        print(f"{side}: {failed}/{attempted} operations failed, {wrong} runs with a wrong output")
    path = Path(f"BENCH_{change_rev[:7]}{'-dirty' * dirty}.json")
    report = {
        "base": base_rev, "change": change_rev, "change_dirty": dirty, "nproc": os.cpu_count(),
        "bytecode": "PYTHONDONTWRITEBYTECODE=1, no __pycache__ under src or perfbench",
        "order": "alternating, base first in pair 1",
        "notes": {"simulate_rss_mib": RSS_NOTE, "aggregate_rss_mib": RSS_NOTE}, "sets": [],
    }
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if (earlier["base"], earlier["change"]) == (base_rev, change_rev):
            report["sets"] = earlier["sets"]
    report["sets"].append({
        "workload": args.workload,
        "seed": recorded["default_seed"] if args.seed is None else args.seed,
        "seconds": args.seconds, "tiny": args.tiny, "pairs": args.pairs,
        "summary": rows, "runs": runs,
    })
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
