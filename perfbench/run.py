"""End-to-end benchmark of the labelvote CLI.

    python3 perfbench/run.py --workload dense-20k --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each run writes the workload's inputs from the seed, then runs
``labelvote --help`` and the chain of labelvote subcommands (see
workloads.py) in child processes, one at a time, for the fixed number of
rounds the workload plans for ``--seconds``. Every invocation is checked
against the oracle's expectations.
The run prints each end-to-end metric with its unit, median, 95th
percentile and sample count, then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Step and set-up times are reported at the reference speed: the
benchmark runs on one CPU, times a fixed pure-Python loop between every
two child processes, and scales each child's wall time by the baseline
loop time over the mean of the loops just before and after it. The host
this runs on shares its cores with other machines, and their load slows
every process on a core by up to a third for minutes at a time; the
scaling takes that out, so two runs of the same code agree. Raw wall
medians are printed beside the scaled ones.

An operation is one CLI invocation, plus one per extract request
(provider x product). An invocation fails when it exits nonzero or its
output does not match; a request fails when it leaves no correct record.
``correct`` is false when any output the program wrote is wrong; a
subcommand that refuses to run (exit 2) is a failed operation, not a
wrong output.

With ``--trace 1`` the chain runs in-process through
``labelvote.cli.main`` instead: untraced for all planned rounds but one,
then once under ``tracing.Tracer``. The run prints the per-layer
table and reports the per-layer metrics; spans go to
``.perfbench-out/``.

Exit status is 0 whenever the run completed, and 2 when the checkout
holds no labelvote sources to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The import probe of a traced run is sampled this often.
IMPORT_SAMPLES = 5
# The speed reference: REFERENCE_LOOPS iterations of reference() took a
# median REFERENCE_S seconds on the baseline machine (2-vCPU VM, Python 3.11).
REFERENCE_LOOPS = 500_000
REFERENCE_S = 0.0365
# Every child is killed after this long, so a run ends within the 180 s limit.
CHILD_LIMIT_S = 150.0
FILES = {
    "workers": "workers.json",
    "products": "products.jsonl",
    "providers": "providers.json",
    "annotations": "annotations.jsonl",
    "truth": "truth.jsonl",
    "extracted": "extracted.jsonl",
    "predictions": "predictions.jsonl",
    "weights": "weights.json",
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import labelvote.cli; "
    "print(time.perf_counter() - t)"
)


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def sha256(path: Path) -> str | None:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except OSError:
        return None
    return h.hexdigest()


def reference() -> float:
    """Wall time of a fixed pure-Python loop: how fast this CPU runs just now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


@dataclass
class Outcome:
    code: int
    wall: float
    rss_mib: float | None
    stdout: str
    stderr: str
    scaled: float | None = None  # wall at the reference speed


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, the one reference() measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class ChildRunner:
    """Runs ``python -m labelvote`` in a child process; peak RSS from os.wait4.

    Between every two children it times reference(), to scale their walls.
    """

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.last_reference = reference()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        )

    def __call__(self, argv, python_args=("-m", "labelvote")) -> Outcome:
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *python_args, *argv],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        before, self.last_reference = self.last_reference, reference()
        return Outcome(
            proc.returncode,
            wall,
            usage.ru_maxrss / 1024,
            out_path.read_text("utf-8", "replace"),
            err_path.read_text("utf-8", "replace"),
            wall * REFERENCE_S / ((before + self.last_reference) / 2),
        )


def run_in_process(argv) -> Outcome:
    """Call labelvote.cli.main(argv) here, capturing its output."""
    import labelvote.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = labelvote.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            traceback.print_exc()
            code = 1
    return Outcome(code, time.perf_counter() - start, None, out.getvalue(), err.getvalue())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong_output: bool = False
    notes: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    walls: dict[str, list[float]] = field(default_factory=dict)
    unlabeled_items: int = 0

    def op(self, ok: bool, what: str, wrong_output: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong_output |= wrong_output
            if what not in self.notes:
                self.notes.append(what)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def time(self, name: str, outcome: Outcome) -> None:
        """Sample a step's time: scaled to the reference speed where it was."""
        self.sample(name, outcome.wall if outcome.scaled is None else outcome.scaled)
        self.walls.setdefault(name, []).append(outcome.wall)


class Chain:
    """One workload's subcommand chain over fixed inputs, with its checks."""

    def __init__(self, workload, seed, directory: Path, expected, recorded):
        w = workload
        self.w, self.seed, self.expected, self.recorded = w, seed, expected, recorded
        self.paths = {name: directory / file for name, file in FILES.items()}
        p = {name: str(path) for name, path in self.paths.items()}
        labels = ",".join(w.labels)
        self.argv = {
            "simulate": ["simulate", "--items", str(w.items), "--labels", labels,
                         "--workers", p["workers"], "--seed", str(seed),
                         "--out", p["annotations"], "--truth-out", p["truth"]],
            "extract": ["extract", "--products", p["products"],
                        "--attribute", workloads.ATTRIBUTE, "--labels", labels,
                        "--providers", p["providers"],
                        "--max-in-flight", str(workloads.MAX_IN_FLIGHT),
                        "--out", p["extracted"]],
            "aggregate": ["aggregate",
                          "--input", p["extracted" if w.aggregate_extracted else "annotations"],
                          "--attribute", workloads.ATTRIBUTE, "--labels", labels,
                          "--max-iter", str(w.max_iterations),
                          "--out", p["predictions"], "--weights-out", p["weights"]],
            "evaluate": ["evaluate", "--predictions", p["predictions"], "--truth", p["truth"]],
        }
        self.order = (
            ("simulate", "extract", "aggregate", "evaluate")
            if w.aggregate_extracted
            else ("simulate", "aggregate", "evaluate", "extract")
        )
        self.requests = len(workloads.PROVIDERS) * w.products
        self.accuracy: float | None = None

    def run(self, execute, tally: Tally, tracer=None) -> dict[str, float]:
        """Run the whole chain once; return each step's wall."""
        walls = {}
        for step in self.order:
            if tracer is not None:
                tracer.run = step
            outcome = execute(self.argv[step])
            walls[step] = outcome.wall
            self.check(step, outcome, tally)
        return walls

    def _digests_match(self, names) -> bool:
        for name in names:
            actual = sha256(self.paths[name])
            if actual != getattr(self.expected, name):
                return False
            if self.recorded and self.recorded.get(name, actual) != actual:
                return False
        return True

    def check(self, step: str, outcome: Outcome, tally: Tally) -> None:
        ran = outcome.code == 0
        if step == "simulate":
            ok = ran and self._digests_match(("annotations", "truth"))
            tally.op(ok, "simulate output differs from the oracle", wrong_output=ran)
            tally.time("simulate_s", outcome)
            if outcome.rss_mib is not None:
                tally.sample("simulate_rss_mib", outcome.rss_mib)
        elif step == "extract":
            self._check_extract(outcome, tally)
        elif step == "aggregate":
            ok = ran and self._digests_match(("predictions", "weights"))
            tally.op(ok, "aggregate output differs from the reference", wrong_output=ran)
            tally.time("aggregate_s", outcome)
            if outcome.rss_mib is not None:
                tally.sample("aggregate_rss_mib", outcome.rss_mib)
            self._score(tally)
        elif step == "evaluate":
            tally.time("evaluate_s", outcome)
            if not ran:
                reason = outcome.stderr.strip().splitlines()[-1:] or [f"exit {outcome.code}"]
                tally.op(False, f"evaluate exit {outcome.code}: {reason[0]}")
            else:
                ok = self.accuracy is not None and outcome.stdout.strip() == f"{self.accuracy:.4f}"
                tally.op(ok, "evaluate disagrees with the benchmark's accuracy", wrong_output=True)

    def _check_extract(self, outcome: Outcome, tally: Tally) -> None:
        records = []
        if outcome.code == 0:
            try:
                records = [
                    (obj["annotator_id"], obj["item_id"], obj["raw_label"])
                    for obj in read_jsonl(self.paths["extracted"])
                    if obj["attribute"] == workloads.ATTRIBUTE
                ]
            except (OSError, ValueError, KeyError, TypeError):
                records = []
        expected = self.expected.extracted
        ok = records == expected
        if self.recorded and "extracted" in self.recorded:
            ok = ok and sha256(self.paths["extracted"]) == self.recorded["extracted"]
        tally.op(ok, "extract records differ in count, order or content",
                 wrong_output=outcome.code == 0)
        completed = len(set(records) & set(expected))
        for _ in range(self.requests - completed):
            tally.op(False, "extract request left no correct record")
        tally.attempted += completed
        tally.sample("extract_rps", completed / outcome.wall)

    def _score(self, tally: Tally) -> None:
        """Share of truth items predicted right; an item missing from predictions abstains."""
        try:
            truth = read_jsonl(self.paths["truth"])
            predicted = {obj["item_id"]: obj["label"] for obj in read_jsonl(self.paths["predictions"])}
        except (OSError, ValueError, KeyError, TypeError):
            self.accuracy = None
            return
        right = sum(1 for row in truth if predicted.get(row["item_id"]) == row["label"])
        self.accuracy = right / len(truth)
        tally.unlabeled_items = sum(1 for row in truth if row["item_id"] not in predicted)
        tally.sample("consensus_accuracy", self.accuracy)


def prepare(name: str, seed: int, tiny: bool, workdir: Path):
    workload = workloads.WORKLOADS[name]
    if tiny:
        workload = workload.scaled(workloads.TINY_DIVISOR)
    expected = workloads.write_inputs(workload, seed, workdir)
    recorded = None
    if not tiny:
        recorded = load_json(HERE / "recorded.json")["digests"].get(name, {}).get(str(seed))
    return Chain(workload, seed, workdir, expected, recorded)


def measure_end_to_end(chain: Chain, seconds: float, workdir: Path, start: float) -> Tally:
    tally = Tally()
    child = ChildRunner(workdir, start + CHILD_LIMIT_S)

    def setup(sample=True):
        outcome = child(["--help"])
        tally.op(outcome.code == 0 and outcome.stdout.startswith("usage: labelvote"),
                 "labelvote --help failed")
        if sample:
            tally.time("setup_s", outcome)

    setup(sample=False)  # warm-up: the first start after a pause reads slow
    for _ in range(chain.w.rounds(seconds)):
        setup()
        chain.run(child, tally)
        setup()
    return tally


def measure_layers(chain: Chain, seconds: float, workdir: Path, start: float, out_dir: Path):
    tally = Tally()
    child = ChildRunner(workdir, start + CHILD_LIMIT_S)
    imports = []
    for _ in range(IMPORT_SAMPLES):
        outcome = child([], python_args=("-c", IMPORT_PROBE))
        try:
            imports.append(float(outcome.stdout))
            tally.op(outcome.code == 0, "import labelvote.cli failed")
        except ValueError:
            tally.op(False, "import labelvote.cli failed")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import labelvote.cli  # noqa: F401  (imported before the timed chains)

    untraced = [
        sum(chain.run(run_in_process, tally).values())
        for _ in range(max(1, chain.w.rounds(seconds) - 1))
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall = sum(chain.run(run_in_process, tally, tracer=tracer).values())
    finally:
        tracer.uninstall()
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{chain.w.name}-seed{chain.seed}.jsonl")
    metrics = tracing.layer_metrics(tracer.spans, chain.requests, workloads.MAX_IN_FLIGHT)
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    metrics["aggregate.unlabeled_items"] = tally.unlabeled_items
    return tally, metrics, tracer.spans


def print_end_to_end(name, seed, tally: Tally, specs) -> dict:
    print(f"== {name} (seed {seed}, nproc {os.cpu_count()}) end-to-end")
    print(f"  {'metric':22} {'median':>12} {'p95':>12}  {'n':>3}  {'unit':5} {'wall median':>12}")
    metrics = {}
    for spec in specs:
        values = tally.samples.get(spec["name"], [])
        median = statistics.median(values) if values else 0.0
        metrics[spec["name"]] = {"value": median, "unit": spec["unit"]}
        walls = tally.walls.get(spec["name"])
        wall = f"{statistics.median(walls):12.6g}" if walls else ""
        print(f"  {spec['name']:22} {median:12.6g} {tracing.percentile(values, 0.95):12.6g}"
              f"  {len(values):3d}  {spec['unit']:5} {wall}".rstrip())
    print_tally(tally)
    return metrics


def print_tally(tally: Tally) -> None:
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  error_rate = {tally.failed}/{tally.attempted} = {rate:.6g}")
    print(f"  unlabeled_items = {tally.unlabeled_items}")
    for note in tally.notes:
        print(f"  failure: {note}")


def print_layers(name, seed, tally, metrics, spans, specs) -> dict:
    print(f"== {name} (seed {seed}) per-layer, traced chain")
    print(f"  {'span':36} {'calls':>7} {'total_s':>10} {'self_s':>10}")
    module = None
    for span_name, (calls, total, own) in tracing.table(spans).items():
        if span_name.split(".")[0] != module:
            module = span_name.split(".")[0]
            print(f"  [{module}]")
        print(f"  {span_name:36} {calls:7d} {total:10.4f} {own:10.4f}")
    top, top_s = tracing.largest_self(spans, "aggregate")
    print(f"  largest self time inside aggregate: {top} ({top_s:.4f} s)")
    print(f"  {'metric':36} {'value':>12}  unit")
    values = {}
    for spec in specs:
        value = float(metrics.get(spec["name"], 0.0))
        values[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:36} {value:12.6g}  {spec['unit']}")
    print_tally(tally)
    return values


def run_workload(name, seed, seconds, trace, tiny, bench) -> dict:
    start = time.monotonic()
    workdir = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        chain = prepare(name, seed, tiny, workdir)
        if trace:
            tally, layer, spans = measure_layers(
                chain, seconds, workdir, start, ROOT / ".perfbench-out"
            )
            metrics = print_layers(name, seed, tally, layer, spans, bench["per_layer"])
        else:
            tally = measure_end_to_end(chain, seconds, workdir, start)
            metrics = print_end_to_end(name, seed, tally, bench["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": not tally.wrong_output,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    recorded = load_json(HERE / "recorded.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=recorded["default_seed"])
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="run length, turned into a fixed number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"divide every workload's size by {workloads.TINY_DIVISOR}")
    args = parser.parse_args(argv)
    if not (SRC / "labelvote" / "__init__.py").is_file():
        print(f"error: no labelvote sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    pin_to_one_cpu()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, args.trace, args.tiny, bench)
        for name in names
    }
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
