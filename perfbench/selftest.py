"""Fast self-test of the benchmark: every workload at tiny scale, in both modes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps its format and agrees with the workloads
and recorded.json, that each run ends with a result line carrying exactly
the metrics BENCHMARK.json names for its mode, with their units, and that
every output was correct. Finally checks that the benchmark refuses,
without a result line, to run where there are no labelvote sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import workloads

NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def check_benchmark(bench: dict, recorded: dict) -> None:
    check(
        set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has the wrong top-level keys",
    )
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    check(len(set(names)) == len(names), "a metric or workload name is used twice")
    check(all(n[0].isalnum() and set(n) <= NAME_CHARS and len(n) <= 64 for n in names),
          "a name breaks the naming rule")
    for metric in bench["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"}, f"{metric['name']}: keys")
        check(0 <= metric["bound"] <= 0.25, f"{metric['name']}: bound out of range")
    for metric in bench["per_layer"]:
        check(set(metric) == {"name", "unit", "better"}, f"{metric['name']}: keys")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s must have the largest bound")
    e2e, layers = set(bounds), {m["name"] for m in bench["per_layer"]}
    for row in recorded["layer_map"]:
        check(row["metric"] in layers, f"layer_map: unknown metric {row['metric']}")
        check(set(row["moves"]) <= e2e | {"error_rate"}, f"layer_map: {row['metric']} moves")
        check(set(row["on"]) <= set(workloads.WORKLOADS), f"layer_map: {row['metric']} on")


def check_result(line: str, specs: list, label: str) -> None:
    result = json.loads(line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    check(result["correct"] is True, f"{label}: an output was wrong")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted")
    check(isinstance(result["failed"], int) and result["failed"] >= 0, f"{label}: failed")
    check(set(result["metrics"]) == {s["name"] for s in specs}, f"{label}: metric names")
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        check(metric["unit"] == spec["unit"], f"{label}: {spec['name']} unit")
        check(isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]),
              f"{label}: {spec['name']} value")


def main() -> int:
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    check_benchmark(bench, run.load_json(run.HERE / "recorded.json"))
    for name in workloads.WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--tiny",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180, cwd=run.ROOT,
            )
            label = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
            check_result(proc.stdout.strip().splitlines()[-1], specs, label)
            print(f"ok  {label}", flush=True)

    bare = run.ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "dense-20k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the benchmark ran without labelvote sources")
    print("ok  refuses to run without labelvote sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
