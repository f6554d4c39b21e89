#!/usr/bin/env python3
"""Paired runs of the benchmark: a base revision against this checkout.

    python3 scripts/bench_ab.py --base REV [--pairs N] [--workload W]
        [--seconds S] [--seed K] [--tiny] [--tier 200k]

REV is checked out with ``git worktree add --detach`` under the git-ignored
``.perfbench-work/`` and removed at exit, also on failure. Each pair runs
the base tree's own ``perfbench/run.py`` and this checkout's, one after the
other, with the first side alternating from pair to pair: ``run.py`` takes
the sources it measures from its own tree. Both sides run with
``PYTHONDONTWRITEBYTECODE=1`` and with no ``__pycache__`` under either
tree's ``src`` or ``perfbench``, so neither starts from stale bytecode.
``--seed`` defaults to the benchmark's default seed (``recorded.json``).

With ``--tier 200k`` a pair runs, in place of ``run.py``, one chain of
``simulate``, ``aggregate`` and ``evaluate`` per tree on 200k items of the
five workers ``TIER_WORKERS`` (labels a, b, c; 2,000 items with
``--tiny``). Each step is spawned by a ``python3 -S -I`` trampoline with
``os.posix_spawn`` and timed to its ``os.wait4``, whose ``ru_maxrss`` is
then the step's own true peak: a small parent adds no high-water mark of
its own. ``NUMPY_MADVISE_HUGEPAGE`` is 0
on both sides, as transparent huge pages move the peak from run to run. A
run counts as correct when its predictions and weights files match the
first base run's byte for byte.

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
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"
TIER_ITEMS = 200_000
TIER_WORKERS = [{"worker_id": f"w{k}", "accuracy": accuracy, "missing_rate": missing}
                for k, (accuracy, missing) in enumerate(
                    zip((0.9, 0.8, 0.75, 0.7, 0.65), (0, 0.05, 0.1, 0.15, 0.2)), 1)]
TIER_STEPS = ("simulate", "aggregate", "evaluate")
# Spawns argv[1:] and prints its exit code, wall and true peak as the last stdout line.
TRAMPOLINE = (
    "import json, os, sys, time\n"
    "start = time.perf_counter()\n"
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "wall = time.perf_counter() - start\n"
    "print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024]))\n"
)
PEAK_NOTE = (
    "the ru_maxrss of each step, spawned by a python3 -S -I trampoline with "
    "posix_spawn and wait4: the step's own peak"
)
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
            "--workload", args.workload, "--seconds", str(args.seconds), "--seed", str(args.seed)]
    argv += ["--tiny"] * args.tiny
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


def run_tier(tree: Path, args, env, work: Path) -> dict:
    """One chain of the 200k tier on ``tree``'s sources: each step's wall and
    true peak, and the digests of the predictions and weights it wrote."""
    clear_bytecode(tree)
    files = {name: work / name for name in (
        "workers.json", "annotations.jsonl", "truth.jsonl", "predictions.jsonl", "weights.json")}
    files["workers.json"].write_text(json.dumps(TIER_WORKERS), encoding="utf-8")
    f = {name: str(path) for name, path in files.items()}
    items = TIER_ITEMS // 100 if args.tiny else TIER_ITEMS
    steps = {
        "simulate": ["simulate", "--items", str(items), "--labels", "a,b,c",
                     "--workers", f["workers.json"], "--seed", str(args.seed),
                     "--out", f["annotations.jsonl"], "--truth-out", f["truth.jsonl"]],
        "aggregate": ["aggregate", "--input", f["annotations.jsonl"], "--attribute", "attr",
                      "--labels", "a,b,c", "--out", f["predictions.jsonl"],
                      "--weights-out", f["weights.json"]],
        "evaluate": ["evaluate", "--predictions", f["predictions.jsonl"],
                     "--truth", f["truth.jsonl"]],
    }
    env = dict(env, PYTHONPATH=str(tree / "src"), NUMPY_MADVISE_HUGEPAGE="0")
    metrics = {}
    for step in TIER_STEPS:
        argv = [sys.executable, "-S", "-I", "-c", TRAMPOLINE,
                sys.executable, "-m", "labelvote", *steps[step]]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        code, wall, peak = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or code != 0:
            raise RuntimeError(f"{tree}: {step} exited {code}\n{done.stderr}")
        metrics[f"{step}_s"], metrics[f"{step}_peak_mib"] = wall, peak
    digests = {name: hashlib.sha256(files[name].read_bytes()).hexdigest()
               for name in ("predictions.jsonl", "weights.json")}
    return {"correct": True, "attempted": len(TIER_STEPS), "failed": 0,
            "metrics": {args.tier: metrics}, "digests": digests}


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
    parser.add_argument("--tier", choices=["200k"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    recorded = json.loads((ROOT / "perfbench" / "recorded.json").read_text(encoding="utf-8"))
    if args.seed is None:
        args.seed = recorded["default_seed"]
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    tree = WORK / f"ab-base-{os.getpid()}"
    work = WORK / f"ab-tier-{os.getpid()}"
    WORK.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", str(tree), base_rev)
    runs: dict[str, list] = {"base": [], "change": []}
    try:
        work.mkdir(exist_ok=True)
        for pair in range(args.pairs):
            sides = [("base", tree), ("change", ROOT)]
            for side, root in sides[:: 1 if pair % 2 == 0 else -1]:
                run = run_tier(root, args, env, work) if args.tier else run_side(root, args, env)
                runs[side].append(run)
                print(f"pair {pair + 1}/{args.pairs}: {side} done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        git("worktree", "remove", "--force", str(tree))
    if args.tier:
        for run in runs["base"] + runs["change"]:
            run["correct"] = run["digests"] == runs["base"][0]["digests"]
        better = {f"{step}{unit}": "lower" for step in TIER_STEPS for unit in ("_s", "_peak_mib")}
    else:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {spec["name"]: spec["better"] for spec in bench["end_to_end"]}
    rows = summarize(runs, better)
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
        "notes": ({f"{step}_peak_mib": PEAK_NOTE for step in TIER_STEPS} if args.tier
                  else {"simulate_rss_mib": RSS_NOTE, "aggregate_rss_mib": RSS_NOTE}),
        "sets": [],
    }
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if (earlier["base"], earlier["change"]) == (base_rev, change_rev):
            report["sets"] = earlier["sets"]
            report["notes"] = {**earlier["notes"], **report["notes"]}
    report["sets"].append({
        "workload": f"tier {args.tier}" if args.tier else args.workload,
        "seed": args.seed,
        "seconds": args.seconds, "tiny": args.tiny, "pairs": args.pairs,
        "summary": rows, "runs": runs,
    })
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
