"""Single executable for the pipeline: simulate, extract, aggregate, evaluate.

Exit codes: 0 success, 1 environment or I/O failure, 2 invalid input.
Results go to files; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each subcommand imports its modules when it runs, so --help loads none of
# them and only simulate and aggregate pay for numpy: aggregate only on an
# input beyond ``ensemble.PLAIN_BUDGET``.

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _schema_from_args(args):
    """Resolve the attribute schema from --labels/--attribute or --schema.

    Inline flags win over the schema file, with a warning on conflict.
    """
    from . import storage
    from .jsonl import _row, _rules

    labels = args.labels and [l.strip() for l in args.labels.split(",")]
    attribute = args.attribute
    if args.schema:
        rules = _rules(attribute="a non-empty string", labels="an array of strings")

        def schema_file(document):
            attribute, labels = _row(rules)(document)
            if not args.labels:  # the run uses these labels: name the file
                storage.AttributeSchema(attribute, labels)
            return attribute, labels

        file_attribute, file_labels = storage.read_json(args.schema, schema_file)
        if labels and labels != [l.strip() for l in file_labels]:
            _warn("--labels overrides the labels in the schema file")
        if attribute and attribute.strip() != file_attribute.strip():
            _warn("--attribute overrides the attribute in the schema file")
        labels = labels or file_labels
        attribute = attribute or file_attribute
    if not labels:
        raise ValueError("no label set given: pass --labels or --schema")
    if not attribute:
        raise ValueError("no attribute name given: pass --attribute or --schema")
    return storage.AttributeSchema(attribute, labels)


def cmd_aggregate(args) -> int:
    from . import ensemble, storage

    config = ensemble.EnsembleConfig(max_iterations=args.max_iter)
    if args.weights_out and os.path.realpath(args.weights_out) == os.path.realpath(args.out):
        raise ValueError("--out and --weights-out name the same file")
    schema = _schema_from_args(args)
    if ensemble.fits_plain(args.input, config.max_iterations):
        votes = ensemble.build_votes(schema, storage._annotation_rows(args.input))
        run = ensemble.run_plain
    else:
        from . import core
        from .aggregate import run_ensemble

        votes, run = core.read_matrix(args.input, schema), run_ensemble
    if not votes.item_ids:  # ids are numbered only for in-vocabulary labels
        print("no annotations", file=sys.stderr)
        return EXIT_FAILURE
    state = run(votes, config)
    storage.write_predictions(args.out, votes.item_ids, state.predictions, schema)
    if args.weights_out:
        ids = votes.annotator_ids
        storage.write_weights(args.weights_out, storage.WeightsReport(
            schema.attribute_name, dict(zip(ids, state.weights)),
            dict(zip(ids, state.accuracies)), state.iterations_run, state.converged,
        ))
    print(
        f"iterations_run={state.iterations_run} converged={state.converged}",
        file=sys.stderr,
    )
    return EXIT_OK


def _load_workers(path) -> list:
    from . import storage
    from .simulate import WorkerProfile

    return storage.read_json(
        path, lambda document: storage._entries(document, WorkerProfile._from_json, "worker")
    )


def cmd_simulate(args) -> int:
    from . import core, storage
    from .jsonl import _check_fields
    from .simulate import SimulationConfig, generate_ground_truth, simulate_annotations

    # SimulationConfig's own checks, made before any file is read.
    _check_fields({"n_items": args.items, "seed": args.seed}, SimulationConfig._RULES)
    if args.truth_out and os.path.realpath(args.truth_out) == os.path.realpath(args.out):
        raise ValueError("--out and --truth-out name the same file")
    if not (args.attribute or args.schema):
        args.attribute = "attr"  # simulated data needs no real attribute name
    schema = _schema_from_args(args)
    workers = _load_workers(args.workers)
    config = SimulationConfig(
        n_items=args.items, schema=schema, workers=workers, seed=args.seed
    )
    truth = generate_ground_truth(config)
    matrix = simulate_annotations(config, truth)
    core.write_matrix(args.out, matrix)
    if args.truth_out:
        storage.write_predictions(args.truth_out, matrix.item_ids, truth, schema)
    print(
        f"simulated {len(workers)} workers on {args.items} items "
        f"({matrix.observed_count} annotations)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from operator import eq

    from .jsonl import _canon, prediction_columns

    # Labels match trim- and case-insensitively; abstentions, missing items
    # and labels outside the truth vocabulary count as wrong.
    canon = {None: None}

    def columns(path):
        """The file's blocks of columns, each block's new labels put in ``canon``."""
        for block in prediction_columns(path):
            new = set(block[2]).difference(canon)
            canon.update(zip(new, map(_canon, new)))
            yield block

    # Only the predictions map and the truth ids are kept; the truth file is
    # scored as it streams, and every check waits until both files are read.
    by_id, predicted_attributes, n_predicted = {}, set(), 0
    for ids, attributes, labels in columns(args.predictions):
        by_id.update(zip(ids, labels))
        predicted_attributes.update(attributes)
        n_predicted += len(ids)
    truth_ids, truth_attributes, n_truth, null_truth, right = set(), set(), 0, False, 0
    for ids, attributes, labels in columns(args.truth):
        truth_ids.update(ids)
        truth_attributes.update(attributes)
        n_truth += len(ids)
        null_truth = null_truth or None in labels
        guesses = map(canon.__getitem__, map(by_id.get, ids))  # None: abstains or is missing
        right += sum(map(eq, guesses, map(canon.__getitem__, labels)))

    for name, n_rows, n_ids in (("predictions", n_predicted, len(by_id)),
                                ("truth", n_truth, len(truth_ids))):
        if n_ids != n_rows:
            raise ValueError(f"duplicate item ids in {name} file")
    # A truth item with no prediction got no usable annotation: it abstains.
    if not by_id.keys() <= truth_ids:
        raise ValueError("item-id mismatch: predictions name items not in the truth file")
    if n_predicted and predicted_attributes != truth_attributes:
        raise ValueError("attribute mismatch between predictions and truth")
    if null_truth:
        raise ValueError("truth file contains null labels")

    if not n_truth:
        raise ValueError("truth file lists no items")
    print(f"{right / n_truth:.4f}")
    return EXIT_OK


def cmd_extract(args) -> int:
    import logging
    from collections import Counter

    from . import storage
    from .extract import _MAX_IN_FLIGHT, PromptTemplate, SynonymMap, extract_labels
    from .jsonl import _check_fields
    from .providers import load_providers

    _check_fields({"max_in_flight": args.max_in_flight}, _MAX_IN_FLIGHT)
    # A no-op once root has a handler; lastResort writes to sys.stderr as it is at each record.
    logging.basicConfig(format="warning: %(message)s", handlers=[logging.lastResort])
    schema = _schema_from_args(args)
    products = storage.read_products(args.products)
    if not products:
        print("no products", file=sys.stderr)
        return EXIT_FAILURE
    providers = load_providers(args.providers)
    template = None
    if args.template:
        with open(args.template, encoding="utf-8") as fh:
            try:
                template = PromptTemplate(fh.read())
            except ValueError as exc:  # UnicodeDecodeError included
                raise ValueError(f"{args.template}: {exc}") from exc
    synonyms = None
    if args.synonyms:
        synonyms = storage.read_json(args.synonyms, lambda mapping: SynonymMap(mapping, schema))

    records = extract_labels(
        products, schema, providers, template=template, synonyms=synonyms,
        max_in_flight=args.max_in_flight,
    )
    per_provider = Counter(r.annotator_id for r in records)
    unresolved = Counter(r.annotator_id for r in records if r.raw_label not in schema.labels)
    for provider in providers:
        succeeded = per_provider.get(provider.provider_id, 0)
        print(
            f"provider {provider.provider_id}: {succeeded}/{len(products)} responses, "
            f"{len(products) - succeeded} failed, {unresolved[provider.provider_id]} unresolved",
            file=sys.stderr,
        )
    if not records:
        print("no providers reachable", file=sys.stderr)
        return EXIT_FAILURE
    storage.write_annotations(args.out, records)
    return EXIT_OK


def _add_schema_flags(parser):
    parser.add_argument("--attribute", help="attribute name")
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
    _add_schema_flags(p)
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def run():
    """``python -m labelvote`` and the console script: exit with ``main``'s code
    through ``os._exit``, skipping the final GC and module teardown. Every file
    ``main`` opens is closed before it returns (every writer uses ``with``, and
    ``extract``'s pool is joined by its ``with``), so only stdio needs a flush.
    An OSError from ``main`` is exit 1; any other exception keeps its traceback and exit 1."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help (0) and usage errors (2)
        code = exc.code
    except OSError:  # main's own error line, on an unwritable stderr
        code = EXIT_FAILURE
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:  # such as a full disk under a redirected stdout
        code = EXIT_FAILURE
        print(f"error: {exc}", file=sys.stderr)
    finally:
        os._exit(code)
