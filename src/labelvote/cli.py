"""Single executable for the pipeline: simulate, extract, aggregate, evaluate.

Exit codes: 0 success, 1 environment or I/O failure, 2 invalid input.
Results go to files; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import storage
from .aggregate import EnsembleConfig, run_ensemble
from .core import AttributeSchema, _canon
from .extract import PromptTemplate, SynonymMap, default_template, extract_labels
from .providers import ProviderError, load_providers
from .simulate import (
    SimulationConfig,
    WorkerProfile,
    generate_ground_truth,
    simulate_annotations,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _schema_from_args(args) -> AttributeSchema:
    """Resolve the attribute schema from --labels/--attribute or --schema.

    Inline flags win over the schema file, with a warning on conflict.
    """
    file_attribute = None
    file_labels = None
    if getattr(args, "schema", None):
        obj = storage.read_json(args.schema)
        try:
            storage._check_object(obj, ("attribute", "labels"), text=("attribute",))
        except ValueError as exc:
            raise ValueError(f"{args.schema}: {exc}") from exc
        file_attribute = obj["attribute"]
        file_labels = obj["labels"]
        if not isinstance(file_labels, list) or not all(
            isinstance(l, str) for l in file_labels
        ):
            raise ValueError(f"{args.schema}: labels must be an array of strings")

    labels = None
    if getattr(args, "labels", None):
        labels = [l.strip() for l in args.labels.split(",")]
        if file_labels is not None and labels != file_labels:
            _warn("--labels overrides the labels in the schema file")
    elif file_labels is not None:
        labels = file_labels
    if labels is None:
        raise ValueError("no label set given: pass --labels or --schema")

    attribute = getattr(args, "attribute", None)
    if attribute and file_attribute and attribute != file_attribute:
        _warn("--attribute overrides the attribute in the schema file")
    attribute = attribute or file_attribute
    if not attribute:
        raise ValueError("no attribute name given: pass --attribute or --schema")
    return AttributeSchema(attribute, labels)


def cmd_aggregate(args) -> int:
    schema = _schema_from_args(args)
    matrix = storage.read_matrix(args.input, schema)
    if matrix.observed_count == 0:
        print("no annotations", file=sys.stderr)
        return EXIT_FAILURE
    state = run_ensemble(matrix, EnsembleConfig(max_iterations=args.max_iter))
    storage.write_predictions(args.out, matrix.item_ids, state.predictions, schema)
    if args.weights_out:
        report = storage.WeightsReport.from_state(
            schema.attribute_name, matrix.annotator_ids, state
        )
        storage.write_weights(args.weights_out, report)
    print(
        f"iterations_run={state.iterations_run} converged={state.converged}",
        file=sys.stderr,
    )
    return EXIT_OK


def _load_workers(path) -> list[WorkerProfile]:
    entries = storage.read_json(path)
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected a non-empty JSON array of workers")
    workers = []
    for n, entry in enumerate(entries, start=1):
        try:
            storage._check_object(
                entry, ("worker_id", "accuracy"), ("missing_rate",), ("worker_id",)
            )
            workers.append(WorkerProfile(**entry))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: worker #{n}: {exc}") from exc
    return workers


def cmd_simulate(args) -> int:
    schema = _schema_from_args(args)
    workers = _load_workers(args.workers)
    config = SimulationConfig(
        n_items=args.items, schema=schema, workers=workers, seed=args.seed
    )
    truth = generate_ground_truth(config)
    matrix = simulate_annotations(config, truth)
    storage.write_matrix(args.out, matrix)
    if args.truth_out:
        storage.write_predictions(args.truth_out, matrix.item_ids, truth, schema)
    print(
        f"simulated {len(workers)} workers on {args.items} items "
        f"({matrix.observed_count} annotations)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    predicted = storage.read_prediction_rows(args.predictions)
    actual = storage.read_prediction_rows(args.truth)
    for name, rows in (("predictions", predicted), ("truth", actual)):
        ids = [row[0] for row in rows]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate item ids in {name} file")
    # A truth item with no prediction got no usable annotation: it abstains.
    if not {row[0] for row in predicted} <= {row[0] for row in actual}:
        raise ValueError("item-id mismatch: predictions name items not in the truth file")
    if predicted and {row[1] for row in predicted} != {row[1] for row in actual}:
        raise ValueError("attribute mismatch between predictions and truth")
    if any(label is None for _, _, label in actual):
        raise ValueError("truth file contains null labels")

    if not actual:
        raise ValueError("truth file lists no items")

    # Labels match trim- and case-insensitively; abstentions, missing items
    # and labels outside the truth vocabulary count as wrong.
    by_id = {item_id: _canon(label) for item_id, _, label in predicted if label is not None}
    right = sum(by_id.get(item_id) == _canon(label) for item_id, _, label in actual)
    print(f"{right / len(actual):.4f}")
    return EXIT_OK


def cmd_extract(args) -> int:
    schema = _schema_from_args(args)
    products = storage.read_products(args.products)
    if not products:
        print("no products", file=sys.stderr)
        return EXIT_FAILURE
    providers = load_providers(args.providers)
    template = default_template()
    if args.template:
        with open(args.template, encoding="utf-8") as fh:
            template = PromptTemplate(fh.read())
    synonyms = None
    if args.synonyms:
        mapping = storage.read_json(args.synonyms)
        if not isinstance(mapping, dict) or not all(
            isinstance(v, str) for v in mapping.values()
        ):
            raise ValueError(f"{args.synonyms}: expected an object of string pairs")
        synonyms = SynonymMap.validated(mapping, schema)

    records = extract_labels(
        products,
        schema,
        providers,
        template=template,
        synonyms=synonyms,
        max_in_flight=args.max_in_flight,
    )
    per_provider = Counter(r.annotator_id for r in records)
    for provider in providers:
        succeeded = per_provider.get(provider.provider_id, 0)
        print(
            f"provider {provider.provider_id}: {succeeded}/{len(products)} responses, "
            f"{len(products) - succeeded} failed",
            file=sys.stderr,
        )
    if not records:
        print("no providers reachable", file=sys.stderr)
        return EXIT_FAILURE
    storage.write_annotations(args.out, records)
    return EXIT_OK


def _add_schema_flags(parser, attribute_default=None):
    parser.add_argument("--attribute", default=attribute_default, help="attribute name")
    parser.add_argument("--labels", help="comma-separated label set")
    parser.add_argument("--schema", help="JSON schema file with attribute and labels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelvote",
        description="Consensus labels from multiple noisy annotators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("aggregate", help="run weighted-vote aggregation on annotations")
    p.add_argument("--input", required=True, help="annotations JSONL")
    _add_schema_flags(p)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, help="ignored; kept for compatibility")
    p.add_argument("--out", required=True, help="predictions JSONL to write")
    p.add_argument("--weights-out", help="weights report JSON to write")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("simulate", help="generate synthetic annotations and truth")
    p.add_argument("--items", type=int, required=True)
    _add_schema_flags(p, attribute_default="attr")
    p.add_argument("--workers", required=True, help="worker profiles JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="annotations JSONL to write")
    p.add_argument("--truth-out", help="ground-truth JSONL to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("extract", help="query label providers about products")
    p.add_argument("--products", required=True, help="products JSONL")
    _add_schema_flags(p)
    p.add_argument("--providers", required=True, help="providers JSON")
    p.add_argument("--template", help="prompt template file")
    p.add_argument("--synonyms", help="synonym map JSON")
    p.add_argument("--max-in-flight", type=int, default=4)
    p.add_argument("--out", required=True, help="annotations JSONL to write")
    p.set_defaults(func=cmd_extract)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConflictError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ProviderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
