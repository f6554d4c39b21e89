"""Record output digests after checking them against tests/reference.py.

    python3 perfbench/derive_digests.py --seeds 1-10

For every workload and seed this runs the chain once through the CLI,
rebuilds the dense matrix ``aggregate`` read from its input file, runs
``reference_ensemble`` on it, and requires the program's predictions and
weights to be byte-identical to the reference result rendered in the
writers' format. The oracle's expectations must agree as well, which is
what lets run.py trust the oracle on seeds recorded nowhere. Only then
are the sha256 digests of the chain's files written to recorded.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import oracle
import run
import workloads

sys.path.insert(0, str(run.ROOT / "tests"))
from reference import reference_ensemble  # noqa: E402

FILES = ("annotations", "truth", "extracted", "predictions", "weights")


def dense_rows(path, labels):
    """(annotator ids, item ids, rows) in first-appearance order, as build_matrix sees them."""
    codes = {label.casefold(): k for k, label in enumerate(labels, start=1)}
    annotators: dict[str, int] = {}
    items: dict[str, int] = {}
    cells = []
    for obj in run.read_jsonl(path):
        value = codes.get(obj["raw_label"].strip().casefold(), 0)
        if value:
            i = annotators.setdefault(obj["annotator_id"], len(annotators))
            j = items.setdefault(obj["item_id"], len(items))
            cells.append((i, j, value))
    rows = [[0] * len(items) for _ in annotators]
    for i, j, value in cells:
        rows[i][j] = value
    return list(annotators), list(items), rows


def derive(name: str, seed: int, workdir) -> dict[str, str]:
    chain = run.prepare(name, seed, tiny=False, workdir=workdir)
    chain.recorded = None
    tally = run.Tally()
    chain.run(run.ChildRunner(workdir, time.monotonic() + run.CHILD_LIMIT_S), tally)
    if tally.wrong_output:
        raise SystemExit(f"{name} seed {seed}: output differs from the oracle: {tally.notes}")
    w = chain.w
    votes = chain.paths["extracted" if w.aggregate_extracted else "annotations"]
    annotator_ids, item_ids, rows = dense_rows(votes, w.labels)
    predictions, weights, accuracies, iterations_run, converged = reference_ensemble(
        rows, len(w.labels), max_iterations=w.max_iterations
    )
    reference = {
        "predictions": oracle.predictions_digest(
            item_ids, predictions, w.labels, workloads.ATTRIBUTE
        ),
        "weights": oracle.weights_digest(
            workloads.ATTRIBUTE,
            annotator_ids,
            oracle.EnsembleResult(predictions, weights, accuracies, iterations_run, converged),
        ),
    }
    digests = {f: run.sha256(chain.paths[f]) for f in FILES}
    for f, value in reference.items():
        if digests[f] != value or getattr(chain.expected, f) != value:
            raise SystemExit(f"{name} seed {seed}: {f} differs from tests/reference.py")
    print(f"{name} seed {seed}: matches reference ({iterations_run} iterations)", flush=True)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    path = run.HERE / "recorded.json"
    recorded = run.load_json(path)
    workdir = run.ROOT / ".perfbench-work" / "derive"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in [args.workload] if args.workload else workloads.WORKLOADS:
            for seed in seeds:
                digests = derive(name, seed, workdir)
                recorded["digests"].setdefault(name, {})[str(seed)] = digests
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(recorded, fh, indent=2)
                    fh.write("\n")
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
