"""End-to-end runs of the labelvote command-line interface."""

import errno
import importlib.util
import json
import os
import subprocess
import sys
from operator import eq, itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from labelvote import (
    AnnotationRecord, read_annotations, read_predictions, read_weights,
)
from labelvote import ensemble, jsonl
from labelvote.cli import main
from labelvote.ensemble import PLAIN_BUDGET

THREE_BY_FOUR = [
    ("a1", "p1", "a"), ("a1", "p2", "a"), ("a1", "p3", "b"), ("a1", "p4", "a"),
    ("a2", "p1", "a"), ("a2", "p2", "a"), ("a2", "p3", "b"), ("a2", "p4", "b"),
    ("a3", "p1", "b"), ("a3", "p2", "a"), ("a3", "p3", "b"), ("a3", "p4", "a"),
]

TABLE_WORKERS = [
    {"worker_id": "w1", "accuracy": 0.753, "missing_rate": 0.0},
    {"worker_id": "w2", "accuracy": 0.887, "missing_rate": 0.0},
    {"worker_id": "w3", "accuracy": 0.875, "missing_rate": 0.0},
    {"worker_id": "w4", "accuracy": 0.911, "missing_rate": 0.0},
    {"worker_id": "w5", "accuracy": 0.934, "missing_rate": 0.0},
]
ACCURACY = "field 'accuracy' must be a number >= 0 and <= 1"
MISSING_RATE = "field 'missing_rate' must be a number >= 0 and < 1"


def write_annotation_lines(path, triples, attribute="attr"):
    with open(path, "w", encoding="utf-8") as fh:
        for annotator, item, label in triples:
            fh.write(json.dumps({
                "annotator_id": annotator, "item_id": item,
                "attribute": attribute, "raw_label": label,
            }) + "\n")


class TestAggregate:
    def test_three_by_four_fixture(self, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, THREE_BY_FOUR)
        out = tmp_path / "predictions.jsonl"
        weights_out = tmp_path / "weights.json"
        code = main([
            "aggregate", "--input", str(annotations), "--attribute", "attr",
            "--labels", "a,b", "--out", str(out), "--weights-out", str(weights_out),
        ])
        assert code == 0
        report = read_weights(weights_out)
        assert report.weights == {"a1": 1.0, "a2": 0.5, "a3": 0.5}
        assert report.accuracies == {"a1": 1.0, "a2": 0.75, "a3": 0.75}
        assert report.converged
        labels = [r.label for r in read_predictions(out)]
        assert labels == ["a", "a", "b", "a"]
        err = capsys.readouterr().err
        assert "iterations_run=" in err and "converged=True" in err

    def test_max_iter_one_is_majority_vote(self, tmp_path):
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, THREE_BY_FOUR)
        once = tmp_path / "once.jsonl"
        code = main([
            "aggregate", "--input", str(annotations), "--attribute", "attr",
            "--labels", "a,b", "--max-iter", "1", "--out", str(once),
        ])
        assert code == 0
        # Majority vote per item: p1 a(2) vs b(1); p2 all a; p3 all b; p4 a(2) vs b(1)
        assert [r.label for r in read_predictions(once)] == ["a", "a", "b", "a"]

    def test_empty_annotations_file(self, tmp_path, capsys):
        annotations = tmp_path / "empty.jsonl"
        annotations.write_text("", encoding="utf-8")
        code = main([
            "aggregate", "--input", str(annotations), "--attribute", "attr",
            "--labels", "a,b", "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 1
        assert "no annotations" in capsys.readouterr().err

    def test_conflicting_duplicates_exit_2(self, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, [("a1", "p1", "a"), ("a1", "p1", "b")])
        code = main([
            "aggregate", "--input", str(annotations), "--attribute", "attr",
            "--labels", "a,b", "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "a1" in err and "p1" in err

    def test_unreadable_input_exit_1(self, tmp_path, capsys):
        code = main([
            "aggregate", "--input", str(tmp_path / "nope.jsonl"), "--attribute", "attr",
            "--labels", "a,b", "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 1

    def test_unknown_flag_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["aggregate", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_inline_labels_override_schema_file(self, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, THREE_BY_FOUR)
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(
            json.dumps({"attribute": "attr", "labels": ["x", "y"]}), encoding="utf-8"
        )
        code = main([
            "aggregate", "--input", str(annotations), "--schema", str(schema_file),
            "--labels", "a,b", "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 0
        assert "overrides" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, reason",
        [([], "no label set given: pass --labels or --schema"),
         (["--labels", "a,b"], "no attribute name given: pass --attribute or --schema")],
        ids=["no labels", "no attribute"],
    )
    def test_missing_schema_flag_exit_2(self, tmp_path, capsys, flags, reason):
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, THREE_BY_FOUR)
        out = tmp_path / "out.jsonl"
        code = main(["aggregate", "--input", str(annotations), *flags, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "labels, reason",
        [(["a", " "], "label names must be non-empty"),
         (["a", "A "], "label names must be distinct after trimming and case-folding"),
         (["a"], "a schema needs at least 2 labels")],
        ids=["blank", "case-folded", "one"],
    )
    def test_schema_file_labels_are_named_by_the_file(self, tmp_path, capsys, labels, reason):
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, THREE_BY_FOUR)
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(json.dumps({"attribute": "g", "labels": labels}), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        argv = ["aggregate", "--input", str(annotations), "--schema", str(schema_file),
                "--out", str(out)]
        assert main(argv) == 2
        assert f"error: {schema_file}: {reason}\n" in capsys.readouterr().err
        assert not out.exists()
        # Labels given inline still override the file's, with a warning.
        assert main([*argv, "--attribute", "attr", "--labels", "a,b"]) == 0
        assert "--labels overrides" in capsys.readouterr().err

    def test_inline_attribute_overrides_schema_file(self, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, THREE_BY_FOUR)
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(
            json.dumps({"attribute": "size", "labels": ["a", "b"]}), encoding="utf-8"
        )
        out = tmp_path / "out.jsonl"
        code = main([
            "aggregate", "--input", str(annotations), "--schema", str(schema_file),
            "--attribute", "attr", "--out", str(out),
        ])
        assert code == 0
        warning = "warning: --attribute overrides the attribute in the schema file\n"
        assert warning in capsys.readouterr().err
        assert {r.attribute for r in read_predictions(out)} == {"attr"}

    # An empty --labels counts as absent: the file's labels are used, with no warning.
    @pytest.mark.parametrize("flags", [["--labels", "a,b"], ["--attribute", "attr"],
                                       ["--labels", ""]],
                             ids=["labels", "attribute", "empty labels"])
    def test_inline_flag_equal_to_schema_file_after_trimming(self, tmp_path, capsys, flags):
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, THREE_BY_FOUR)
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(
            json.dumps({"attribute": " attr", "labels": [" a", "b "]}), encoding="utf-8"
        )
        code = main([
            "aggregate", "--input", str(annotations), "--schema", str(schema_file),
            *flags, "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 0
        assert "overrides" not in capsys.readouterr().err


class TestSimulate:
    def run_simulate(self, tmp_path, seed=11, items=2000, name="run"):
        workers_file = tmp_path / "workers.json"
        workers_file.write_text(json.dumps(TABLE_WORKERS), encoding="utf-8")
        out = tmp_path / f"{name}-annotations.jsonl"
        truth = tmp_path / f"{name}-truth.jsonl"
        code = main([
            "simulate", "--items", str(items), "--labels", "low,mid,high",
            "--workers", str(workers_file), "--seed", str(seed),
            "--out", str(out), "--truth-out", str(truth),
        ])
        return code, out, truth

    def test_same_seed_is_byte_identical(self, tmp_path):
        code1, out1, truth1 = self.run_simulate(tmp_path, name="one")
        code2, out2, truth2 = self.run_simulate(tmp_path, name="two")
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert truth1.read_bytes() == truth2.read_bytes()

    def test_annotation_count_matches_missing_expectation(self, tmp_path):
        workers_file = tmp_path / "workers.json"
        workers = [
            {"worker_id": f"w{k}", "accuracy": 0.9, "missing_rate": 0.3}
            for k in range(5)
        ]
        workers_file.write_text(json.dumps(workers), encoding="utf-8")
        out = tmp_path / "annotations.jsonl"
        code = main([
            "simulate", "--items", "20000", "--labels", "a,b,c",
            "--workers", str(workers_file), "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        count = len(read_annotations(out))
        expected = 5 * 20000 * 0.7
        assert abs(count - expected) <= 0.01 * expected

    def test_missing_seed_exit_2(self, tmp_path):
        workers_file = tmp_path / "workers.json"
        workers_file.write_text(json.dumps(TABLE_WORKERS), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main([
                "simulate", "--items", "10", "--labels", "a,b",
                "--workers", str(workers_file), "--out", str(tmp_path / "x.jsonl"),
            ])
        assert excinfo.value.code == 2

    def test_invalid_worker_spec_exit_2(self, tmp_path, capsys):
        workers_file = tmp_path / "workers.json"
        workers_file.write_text(
            json.dumps([{"worker_id": "w", "accuracy": 1.7}]), encoding="utf-8"
        )
        code = main([
            "simulate", "--items", "10", "--labels", "a,b",
            "--workers", str(workers_file), "--seed", "1",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert f"{workers_file}: worker #1: {ACCURACY}" in capsys.readouterr().err

    def test_schema_file_attribute_is_kept(self, tmp_path, capsys):
        workers_file = tmp_path / "workers.json"
        workers_file.write_text(json.dumps(TABLE_WORKERS), encoding="utf-8")
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(
            json.dumps({"attribute": "size", "labels": ["s", "m", "l"]}), encoding="utf-8"
        )
        annotations = tmp_path / "annotations.jsonl"
        assert main([
            "simulate", "--items", "20", "--schema", str(schema_file),
            "--workers", str(workers_file), "--seed", "1", "--out", str(annotations),
        ]) == 0
        assert "warning" not in capsys.readouterr().err
        assert {r.attribute for r in read_annotations(annotations)} == {"size"}
        assert main([
            "aggregate", "--input", str(annotations), "--schema", str(schema_file),
            "--out", str(tmp_path / "predictions.jsonl"),
        ]) == 0


class TestEvaluate:
    def write_rows(self, path, rows, attribute="attr"):
        with open(path, "w", encoding="utf-8") as fh:
            for item, label in rows:
                fh.write(json.dumps(
                    {"item_id": item, "attribute": attribute, "label": label}
                ) + "\n")

    def test_perfect_predictions(self, tmp_path, capsys):
        predictions, truth = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        self.write_rows(predictions, [("p1", "a"), ("p2", "b")])
        self.write_rows(truth, [("p1", "a"), ("p2", "b")])
        assert main(["evaluate", "--predictions", str(predictions), "--truth", str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_all_null_predictions(self, tmp_path, capsys):
        predictions, truth = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        self.write_rows(predictions, [("p1", None), ("p2", None)])
        self.write_rows(truth, [("p1", "a"), ("p2", "b")])
        assert main(["evaluate", "--predictions", str(predictions), "--truth", str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "0.0000"

    @pytest.mark.parametrize(
        "predicted, actual, truth_attribute, reason",
        [
            ([("p1", "a")], [("p2", "a")], "attr",
             "item-id mismatch: predictions name items not in the truth file"),
            ([("p1", "a"), ("p1", "b")], [("p1", "a")], "attr",
             "duplicate item ids in predictions file"),
            ([("p1", "a")], [("p1", "a"), ("p1", "b")], "attr",
             "duplicate item ids in truth file"),
            ([("p1", "a")], [("p1", "a")], "size",
             "attribute mismatch between predictions and truth"),
            ([("p1", "a")], [("p1", None)], "attr", "truth file contains null labels"),
        ],
        ids=["item-id mismatch", "duplicate predicted id", "duplicate truth id",
             "attribute mismatch", "null truth label"],
    )
    def test_item_id_mismatch_exit_2(
        self, tmp_path, capsys, predicted, actual, truth_attribute, reason
    ):
        predictions, truth = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        self.write_rows(predictions, predicted)
        self.write_rows(truth, actual, truth_attribute)
        code = main(["evaluate", "--predictions", str(predictions), "--truth", str(truth)])
        assert code == 2
        assert f"error: {reason}" in capsys.readouterr().err

    def test_empty_truth_exit_2(self, tmp_path):
        predictions, truth = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        self.write_rows(predictions, [])
        self.write_rows(truth, [])
        assert main(["evaluate", "--predictions", str(predictions), "--truth", str(truth)]) == 2

    def test_empty_predictions_score_zero(self, tmp_path, capsys):
        # Every truth item is missing from the predictions: all abstain.
        predictions, truth = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        self.write_rows(predictions, [])
        self.write_rows(truth, [("p1", "a"), ("p2", "b")])
        assert main(["evaluate", "--predictions", str(predictions), "--truth", str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "0.0000"

    def test_item_without_votes_abstains(self, tmp_path, capsys):
        # p4 got no annotation, so aggregate never sees it and writes no
        # prediction for it; evaluate scores it as a wrong abstention.
        annotations = tmp_path / "annotations.jsonl"
        write_annotation_lines(annotations, THREE_BY_FOUR[:3] + THREE_BY_FOUR[4:7])
        predictions, truth = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        self.write_rows(truth, [("p1", "a"), ("p2", "a"), ("p3", "b"), ("p4", "a")])
        assert main([
            "aggregate", "--input", str(annotations), "--attribute", "attr",
            "--labels", "a,b", "--out", str(predictions),
        ]) == 0
        assert [r.item_id for r in read_predictions(predictions)] == ["p1", "p2", "p3"]
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(predictions), "--truth", str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "0.7500"

    def test_pipeline_reproduces_ensemble_dominance(self, tmp_path, capsys):
        # simulate -> aggregate -> evaluate, all through the CLI, one seed of
        # the synthetic study: the ensemble must beat its best single worker.
        workers_file = tmp_path / "workers.json"
        workers_file.write_text(json.dumps(TABLE_WORKERS), encoding="utf-8")
        annotations = tmp_path / "annotations.jsonl"
        truth = tmp_path / "truth.jsonl"
        predictions = tmp_path / "predictions.jsonl"
        assert main([
            "simulate", "--items", "20000", "--labels", "low,mid,high",
            "--workers", str(workers_file), "--seed", "1",
            "--out", str(annotations), "--truth-out", str(truth),
        ]) == 0
        assert main([
            "aggregate", "--input", str(annotations), "--attribute", "attr",
            "--labels", "low,mid,high", "--out", str(predictions),
        ]) == 0
        assert main([
            "evaluate", "--predictions", str(predictions), "--truth", str(truth),
        ]) == 0
        ensemble_accuracy = float(capsys.readouterr().out.strip())

        # Best single worker, measured from the same files the CLI wrote.
        truth_by_item = {r.item_id: r.label for r in read_predictions(truth)}
        hits, totals = {}, {}
        for record in read_annotations(annotations):
            totals[record.annotator_id] = totals.get(record.annotator_id, 0) + 1
            if record.raw_label == truth_by_item[record.item_id]:
                hits[record.annotator_id] = hits.get(record.annotator_id, 0) + 1
        best_single = max(hits[a] / totals[a] for a in totals)
        assert ensemble_accuracy > best_single


def row_wise_evaluate(predictions, truth):
    """``cmd_evaluate`` as it was before it streamed, reading each file whole as
    rows through the per-line ``json.loads`` path: its stdout, or it raises."""
    read = lambda path: list(jsonl._read_jsonl(path, jsonl._row(jsonl._PREDICTION_RULES)))
    predicted, actual = read(predictions), read(truth)
    ids, attributes, labels = itemgetter(0), itemgetter(1), itemgetter(2)
    by_id = dict(zip(map(ids, predicted), map(labels, predicted)))
    truth = dict(zip(map(ids, actual), map(labels, actual)))
    for name, rows, by_item in (("predictions", predicted, by_id), ("truth", actual, truth)):
        if len(by_item) != len(rows):
            raise ValueError(f"duplicate item ids in {name} file")
    if not by_id.keys() <= truth.keys():
        raise ValueError("item-id mismatch: predictions name items not in the truth file")
    if predicted and set(map(attributes, predicted)) != set(map(attributes, actual)):
        raise ValueError("attribute mismatch between predictions and truth")
    if None in truth.values():
        raise ValueError("truth file contains null labels")
    if not actual:
        raise ValueError("truth file lists no items")
    canon = {label: jsonl._canon(label) for label in {*by_id.values(), *truth.values()} - {None}}
    guesses = map(canon.get, map(by_id.get, truth))
    right = sum(map(eq, guesses, map(canon.__getitem__, truth.values())))
    return f"{right / len(actual):.4f}\n"


# Ids with a quote escape in JSON; labels null, "" (never in the writers' line
# shape, so on the per-line path), blank, and equal to another after trim and casefold.
EVALUATE_IDS = ["p1", "p2", "p3", "p4", 'say "p5"']
EVALUATE_LABELS = ["a", "b", "A ", "c", 'say "a"', "", " ", None]


@st.composite
def evaluate_file(draw, ids):
    """A predictions or truth file over some of ``ids``: (its bytes, the ids it names)."""
    named = draw(st.lists(st.sampled_from(ids), max_size=8, unique=draw(st.booleans())))
    lines = []
    for item in named:
        attribute = draw(st.sampled_from(["attr"] * 9 + ["size"]))
        label = draw(st.sampled_from(EVALUATE_LABELS))
        line = json.dumps({"item_id": item, "attribute": attribute, "label": label})
        lines.append(line + draw(st.sampled_from(["\n"] * 4 + ["\r\n"])))
    return "".join(lines).encode("utf-8"), named


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), block=st.integers(1, 150))
def test_streaming_evaluate_matches_the_row_wise_one(tmp_path, capsys, data, block):
    # Blocks of ~block bytes split the files mid-way, so one file mixes blocks the
    # writers' line shape reads (null read as "") with blocks read line by line.
    truth_bytes, truth_ids = data.draw(evaluate_file(EVALUATE_IDS))
    # Mostly ids of the truth file, sometimes one it lacks.
    pool = truth_ids + data.draw(st.lists(st.sampled_from(EVALUATE_IDS), max_size=1))
    predictions_bytes, _ = data.draw(evaluate_file(pool or ["p1"]))
    predictions, truth = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
    predictions.write_bytes(predictions_bytes)
    truth.write_bytes(truth_bytes)
    try:
        expected = (0, row_wise_evaluate(predictions, truth), "")
    except ValueError as exc:
        expected = (2, "", f"error: {exc}\n")
    with mock.patch.object(jsonl, "_BLOCK", block):
        code = main(["evaluate", "--predictions", str(predictions), "--truth", str(truth)])
    assert (code, *capsys.readouterr()) == expected


class TestExtract:
    def write_products(self, path):
        rows = [
            {
                "item_id": "sku-1",
                "title": "Garanimals Toddler Girl Short Sleeve Graphic T-Shirt, Sizes 18M-5T",
                "description": "Bring an instant smile to her face with this colorful Graphic T-shirt.",
            },
            {"item_id": "sku-2", "title": "Mens Classic Crew Socks, 6-Pack"},
        ]
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def write_providers(self, path, entries):
        path.write_text(json.dumps(entries), encoding="utf-8")

    def test_mock_extraction_is_deterministic(self, tmp_path, capsys):
        products = tmp_path / "products.jsonl"
        self.write_products(products)
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [
            {"kind": "mock", "provider_id": "m1",
             "responses": {"Garanimals": "female", "Socks": "male"}},
            {"kind": "mock", "provider_id": "m2",
             "responses": {"Garanimals": "Female.", "Socks": "male"}},
        ])
        out1, out2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        for out in (out1, out2):
            code = main([
                "extract", "--products", str(products), "--attribute", "gender",
                "--labels", "male,female,unisex", "--providers", str(providers),
                "--out", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "provider m1: 2/2" in capsys.readouterr().err

    def test_per_provider_line_counts_unresolved_responses(self, tmp_path, capsys):
        products = tmp_path / "products.jsonl"
        self.write_products(products)
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [
            {"kind": "mock", "provider_id": "n", "default_response": "The gender is male"},
            {"kind": "mock", "provider_id": "m", "responses": {"Socks": "Male."},
             "max_retries": 1},
        ])
        code = main([
            "extract", "--products", str(products), "--attribute", "gender",
            "--labels", "male,female,unisex", "--providers", str(providers),
            "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "provider n: 2/2 responses, 0 failed, 2 unresolved\n" in err
        assert "provider m: 1/2 responses, 1 failed, 0 unresolved\n" in err

    def test_template_file_is_used(self, tmp_path):
        # The mock answers only prompts in the template's own wording.
        products = tmp_path / "products.jsonl"
        self.write_products(products)
        template = tmp_path / "template.txt"
        template.write_text(
            "House style. Tag the {attribute} of {title} ({description}) as one of {labels}.",
            encoding="utf-8",
        )
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [
            {"kind": "mock", "provider_id": "m1", "responses": {"House style.": "female"}},
        ])
        out = tmp_path / "annotations.jsonl"
        code = main([
            "extract", "--products", str(products), "--attribute", "gender",
            "--labels", "male,female,unisex", "--providers", str(providers),
            "--template", str(template), "--out", str(out),
        ])
        assert code == 0
        assert [r.raw_label for r in read_annotations(out)] == ["female", "female"]

    def test_template_without_labels_exit_2(self, tmp_path, capsys):
        products = tmp_path / "products.jsonl"
        self.write_products(products)
        template = tmp_path / "template.txt"
        template.write_text("Tag the {attribute} of {title} ({description}).", encoding="utf-8")
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [
            {"kind": "mock", "provider_id": "m1", "default_response": "female"},
        ])
        out = tmp_path / "annotations.jsonl"
        code = main([
            "extract", "--products", str(products), "--attribute", "gender",
            "--labels", "male,female,unisex", "--providers", str(providers),
            "--template", str(template), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{template}: template must contain {{labels}} exactly once (found 0)" in err
        assert not out.exists()

    def test_downed_provider_is_just_missing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LLME_DEAD_API_KEY", raising=False)
        products = tmp_path / "products.jsonl"
        self.write_products(products)
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [
            {"kind": "mock", "provider_id": "m1", "default_response": "female"},
            {"provider_id": "dead", "endpoint": "https://api.invalid/v1", "model_name": "x"},
        ])
        out = tmp_path / "annotations.jsonl"
        code = main([
            "extract", "--products", str(products), "--attribute", "gender",
            "--labels", "male,female,unisex", "--providers", str(providers),
            "--out", str(out),
        ])
        assert code == 0
        assert {r.annotator_id for r in read_annotations(out)} == {"m1"}

    def test_no_reachable_providers_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("LLME_DEAD_API_KEY", raising=False)
        products = tmp_path / "products.jsonl"
        self.write_products(products)
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [
            {"provider_id": "dead", "endpoint": "https://api.invalid/v1", "model_name": "x"},
        ])
        code = main([
            "extract", "--products", str(products), "--attribute", "gender",
            "--labels", "male,female,unisex", "--providers", str(providers),
            "--out", str(tmp_path / "annotations.jsonl"),
        ])
        assert code == 1

    def test_every_request_failing_exit_1(self, tmp_path, capsys):
        # extract_labels gives each failed request up itself; with no record
        # at all the command exits 1 and writes nothing.
        products = tmp_path / "products.jsonl"
        self.write_products(products)
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [
            {"kind": "mock", "provider_id": "m1", "max_retries": 1},
        ])
        out = tmp_path / "annotations.jsonl"
        code = main([
            "extract", "--products", str(products), "--attribute", "gender",
            "--labels", "male,female,unisex", "--providers", str(providers),
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.endswith("provider m1: 0/2 responses, 2 failed, 0 unresolved\n"
                            "no providers reachable\n")
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_products_file_exit_1(self, tmp_path, capsys):
        products = tmp_path / "products.jsonl"
        products.write_text("", encoding="utf-8")
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [MOCK])
        out = tmp_path / "annotations.jsonl"
        code = main([
            "extract", "--products", str(products), "--attribute", "gender",
            "--labels", "male,female,unisex", "--providers", str(providers),
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "no products\n"
        assert not out.exists()

    def test_garanimals_pipeline_reaches_consensus(self, tmp_path, capsys):
        # Two mock providers, extract then aggregate, for gender and age.
        products = tmp_path / "products.jsonl"
        with open(products, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "item_id": "sku-1",
                "title": "Garanimals Toddler Girl Short Sleeve Graphic T-Shirt, Sizes 18M-5T",
                "description": "Bring an instant smile to her face with this colorful Graphic T-shirt.",
            }) + "\n")
        cases = [
            ("gender", "male,female,unisex", {"Garanimals": "female"},
             {"Garanimals": " Female "}, "female"),
            ("age", "baby,child,adult", {"Garanimals": "child"},
             {"Garanimals": "Child"}, "child"),
        ]
        for attribute, labels, responses1, responses2, expected in cases:
            providers = tmp_path / f"providers-{attribute}.json"
            self.write_providers(providers, [
                {"kind": "mock", "provider_id": "m1", "responses": responses1},
                {"kind": "mock", "provider_id": "m2", "responses": responses2},
            ])
            annotations = tmp_path / f"annotations-{attribute}.jsonl"
            predictions = tmp_path / f"predictions-{attribute}.jsonl"
            assert main([
                "extract", "--products", str(products), "--attribute", attribute,
                "--labels", labels, "--providers", str(providers),
                "--out", str(annotations),
            ]) == 0
            assert main([
                "aggregate", "--input", str(annotations), "--attribute", attribute,
                "--labels", labels, "--out", str(predictions),
            ]) == 0
            rows = read_predictions(predictions)
            assert [r.label for r in rows] == [expected]

    def test_response_rules_reach_the_vote(self, tmp_path, capsys):
        products = tmp_path / "products.jsonl"
        products.write_text(
            json.dumps({"item_id": "sku-1", "title": "Girl Graphic T-Shirt"}) + "\n",
            encoding="utf-8",
        )
        providers = tmp_path / "providers.json"
        self.write_providers(providers, [
            {"kind": "mock", "provider_id": f"m{n}", "default_response": response}
            for n, response in enumerate(["Female.", '"female"', "woman", "Woman!"])
        ])
        synonyms = tmp_path / "synonyms.json"
        synonyms.write_text(json.dumps({"woman": "female"}), encoding="utf-8")
        annotations, predictions = tmp_path / "a.jsonl", tmp_path / "p.jsonl"
        schema = ["--attribute", "gender", "--labels", "male,female,unisex"]
        assert main([
            "extract", "--products", str(products), *schema, "--providers", str(providers),
            "--synonyms", str(synonyms), "--out", str(annotations),
        ]) == 0
        assert {r.raw_label for r in read_annotations(annotations)} == {"female"}
        assert main([
            "aggregate", "--input", str(annotations), *schema, "--out", str(predictions),
        ]) == 0
        assert [r.label for r in read_predictions(predictions)] == ["female"]


DOCUMENT_FLAGS = ["--schema", "--workers", "--synonyms", "--providers"]
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "flag, content, reason",
    [pytest.param(flag, b"{oops", "{bad}: invalid JSON", id=flag) for flag in DOCUMENT_FLAGS]
    + [
        pytest.param(flag, b"\xff", f"{{bad}}: {NOT_UTF8}", id=f"{flag} non-UTF-8")
        for flag in DOCUMENT_FLAGS
    ]
    + [pytest.param("--input", b"\xff", f"{{bad}}:1: {NOT_UTF8}", id="--input non-UTF-8")]
    + [
        pytest.param("--workers", content, "{bad}: expected a non-empty JSON array of workers",
                     id=f"--workers {content.decode()}")
        for content in (b"{}", b"[]")
    ],
)
def test_invalid_json_input_file_exit_2(tmp_path, capsys, flag, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    annotations = tmp_path / "annotations.jsonl"
    write_annotation_lines(annotations, THREE_BY_FOUR)
    products = tmp_path / "products.jsonl"
    products.write_text(json.dumps({"item_id": "p1", "title": "Socks"}) + "\n", encoding="utf-8")
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([{"kind": "mock", "provider_id": "m1"}]), encoding="utf-8")
    extract = ["extract", "--products", str(products), "--attribute", "attr", "--labels", "a,b"]
    argv = {
        "--input": ["aggregate", "--attribute", "attr", "--labels", "a,b"],
        "--schema": ["aggregate", "--input", str(annotations)],
        "--workers": ["simulate", "--items", "10", "--labels", "a,b", "--seed", "1"],
        "--synonyms": extract + ["--providers", str(providers)],
        "--providers": extract,
    }[flag]
    code = main(argv + [flag, str(bad), "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert reason.format(bad=bad) in capsys.readouterr().err


def test_cli_chain_builds_no_annotation_record(tmp_path, monkeypatch):
    # simulate writes annotation lines straight from the matrix columns and
    # aggregate reads them straight into columns: no AnnotationRecord.
    def refuse(record):
        raise AssertionError("an AnnotationRecord was built")

    monkeypatch.setattr(AnnotationRecord, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        AnnotationRecord("a1", "p1", "attr", "a")
    workers_file = tmp_path / "workers.json"
    workers_file.write_text(json.dumps(TABLE_WORKERS), encoding="utf-8")
    annotations, predictions = tmp_path / "a.jsonl", tmp_path / "p.jsonl"
    assert main([
        "simulate", "--items", "50", "--labels", "a,b,c", "--workers", str(workers_file),
        "--seed", "5", "--out", str(annotations),
    ]) == 0
    assert main([
        "aggregate", "--input", str(annotations), "--attribute", "attr", "--labels", "a,b,c",
        "--out", str(predictions),
    ]) == 0
    assert len(read_predictions(predictions)) == 50


@pytest.mark.parametrize(
    "entry, reason",
    [
        ("w1", "worker #1: expected a JSON object"),
        ({"worker_id": "w1"}, "worker #1: missing field(s) accuracy"),
        ({"worker_id": "w1", "accuracy": 0.9, "skill": 1}, "worker #1: unknown field(s) skill"),
        ({"worker_id": 7, "accuracy": 0.9}, "worker #1: field 'worker_id' must be a non-empty"),
        ({"worker_id": "w1", "accuracy": True}, "worker #1: field 'accuracy' must be a number"),
        ({"worker_id": "w1", "accuracy": 0.9, "missing_rate": False},
         "worker #1: field 'missing_rate' must be a number"),
        ({"worker_id": "w1", "accuracy": "x"}, "worker #1: field 'accuracy' must be a number"),
        ({"worker_id": "w1", "accuracy": float("nan")}, f"worker #1: {ACCURACY}"),
        ({"worker_id": "w1", "accuracy": float("inf")}, f"worker #1: {ACCURACY}"),
        ({"worker_id": "w1", "accuracy": float("-inf")}, f"worker #1: {ACCURACY}"),
        ({"worker_id": "w1", "accuracy": 0.9, "missing_rate": float("nan")},
         f"worker #1: {MISSING_RATE}"),
        ({"worker_id": "w1", "accuracy": 0.9, "missing_rate": float("-inf")},
         f"worker #1: {MISSING_RATE}"),
        ({"worker_id": "w1", "accuracy": 0.9, "missing_rate": 1}, f"worker #1: {MISSING_RATE}"),
    ],
    ids=["non-object", "missing field", "unknown field", "non-string id", "boolean accuracy",
         "boolean missing_rate", "string accuracy", "NaN accuracy", "infinite accuracy",
         "negative infinite accuracy", "NaN missing_rate", "negative infinite missing_rate",
         "missing_rate 1"],
)
def test_malformed_worker_exit_2(tmp_path, capsys, entry, reason):
    workers_file = tmp_path / "workers.json"
    workers_file.write_text(json.dumps([entry]), encoding="utf-8")
    code = main([
        "simulate", "--items", "10", "--labels", "a,b", "--workers", str(workers_file),
        "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert f"{workers_file}: {reason}" in capsys.readouterr().err


def test_repeated_worker_id_names_the_entry(tmp_path, capsys):
    workers_file = tmp_path / "workers.json"
    workers_file.write_text(json.dumps(TABLE_WORKERS[:1] * 2), encoding="utf-8")
    out = tmp_path / "x.jsonl"
    code = main([
        "simulate", "--items", "10", "--labels", "a,b", "--workers", str(workers_file),
        "--seed", "1", "--out", str(out),
    ])
    assert code == 2
    assert f"{workers_file}: worker #2: duplicate worker_id 'w1'" in capsys.readouterr().err
    assert not out.exists()


MOCK = {"kind": "mock", "provider_id": "m1", "default_response": "a"}
HTTP = {"provider_id": "h1", "endpoint": "https://x", "model_name": "m"}
ENDPOINT = "field 'endpoint' must be an http:// or https:// URL in ASCII"
TIMEOUT = "field 'timeout' must be a number > 0 and <= 86400"
DELAY = "field 'delay' must be a number >= 0 and <= 86400"
NO_HOST = f"{ENDPOINT}, with no spaces or control characters, naming a host"


@pytest.mark.parametrize(
    "entry, reason",
    [
        (1, "provider config must be a JSON object"),
        ({"kind": "carrier-pigeon"}, "unknown provider kind 'carrier-pigeon'"),
        ({"provider_id": 5, "endpoint": "https://x", "model_name": "m"},
         "field 'provider_id' must be a non-empty string"),
        ({"kind": "mock", "provider_id": 5, "default_response": "a"},
         "field 'provider_id' must be a non-empty string"),
        ({"kind": "mock", "provider_id": "  ", "default_response": "a"},
         "field 'provider_id' must be a non-empty string"),
        ({"kind": "mock", "provider_id": "m1", "default_response": "a", "max_retries": 0},
         "field 'max_retries' must be an integer >= 1"),
        ({**MOCK, "delay": "x"}, "field 'delay' must be a number >= 0"),
        ({**MOCK, "fail_times": "x"}, "field 'fail_times' must be an integer >= 0"),
        ({**MOCK, "delay": -1}, "field 'delay' must be a number >= 0"),
        ({**MOCK, "default_response": 5}, "field 'default_response' must be a string or null"),
        ({**MOCK, "responses": {"Shirt": 5}},
         "field 'responses' must be an object of string pairs"),
        ({**MOCK, "concurrency_safe": "no"}, "field 'concurrency_safe' must be a boolean"),
        ({**HTTP, "credential_ref": 5}, "field 'credential_ref' must be a string"),
        ({**HTTP, "max_retries": 2.5}, "field 'max_retries' must be an integer"),
        ({**MOCK, "max_retries": 2.5}, "field 'max_retries' must be an integer"),
        ({**HTTP, "timeout": True}, "field 'timeout' must be a number"),
        ({**HTTP, "endpoint": 5}, "field 'endpoint' must be a non-empty string"),
        ({**HTTP, "request_options": "x"}, "field 'request_options' must be an object"),
        ({**HTTP, "endpoint": "api.example/v1"}, ENDPOINT),
        ({**HTTP, "endpoint": "file:///etc/hostname"}, ENDPOINT),
        ({**HTTP, "endpoint": "ftp://127.0.0.1/x"}, ENDPOINT),
        ({**HTTP, "endpoint": "https://api.example/v1/ch\u00e4t"}, ENDPOINT),
        ({**HTTP, "request_options": {"top_p": float("nan")}},
         "field 'request_options' must be plain JSON: Out of range float values"),
        ({**HTTP, "timeout": float("inf")}, "field 'timeout' must be a number > 0 and <= 86400"),
        ({**HTTP, "timeout": 1e12}, "field 'timeout' must be a number > 0 and <= 86400"),
        ({**MOCK, "delay": float("inf")}, "field 'delay' must be a number >= 0 and <= 86400"),
        ({**MOCK, "delay": 1e12}, "field 'delay' must be a number >= 0 and <= 86400"),
        ({**MOCK, "calls": 3}, "invalid mock provider config"),
        ({**HTTP, "request_options": {"messages": [{"role": "user", "content": "x"}]}},
         "field 'request_options' must not set 'messages' or 'model'"),
        ({**HTTP, "request_options": {"model": "other"}},
         "field 'request_options' must not set 'messages' or 'model'"),
        ({**HTTP, "endpoint": "http://127.0.0.1:9/v1 chat"}, ENDPOINT),
        ({**HTTP, "endpoint": "http://127.0.0.1:9/v1\tchat"}, ENDPOINT),
        ({**HTTP, "endpoint": "http://127.0.0.1:9/v1\x7f"}, ENDPOINT),
        ({**HTTP, "endpoint": "http://"}, NO_HOST),
        ({**HTTP, "endpoint": "http://:8080/v1"}, NO_HOST),
        ({**HTTP, "endpoint": "http://[::1/v1"}, "Invalid IPv6 URL"),
        ({**HTTP, "max_retries": True}, "field 'max_retries' must be an integer >= 1"),
        ({**MOCK, "max_retries": False}, "field 'max_retries' must be an integer >= 1"),
        ({**MOCK, "fail_times": False}, "field 'fail_times' must be an integer >= 0"),
        ({**MOCK, "delay": True}, DELAY),
        ({**HTTP, "timeout": 0}, TIMEOUT),
        ({**HTTP, "timeout": float("nan")}, TIMEOUT),
        ({**HTTP, "timeout": float("-inf")}, TIMEOUT),
        ({**MOCK, "delay": float("nan")}, DELAY),
        ({**MOCK, "delay": float("-inf")}, DELAY),
    ],
    ids=["non-object", "unknown kind", "http non-string id", "mock non-string id", "mock blank id",
         "mock no attempts", "mock string delay", "mock string fail_times",
         "mock negative delay", "mock non-string default", "mock non-string response",
         "mock string concurrency_safe", "http non-string credential_ref",
         "http fractional max_retries", "mock fractional max_retries", "http bool timeout",
         "http non-string endpoint", "http string request_options", "http scheme-less endpoint",
         "http file endpoint", "http ftp endpoint", "http non-ASCII endpoint",
         "http NaN request option", "http infinite timeout", "http huge timeout",
         "mock infinite delay", "mock huge delay", "mock counter option",
         "http request_options messages", "http request_options model",
         "http endpoint with space", "http endpoint with tab", "http endpoint with DEL",
         "http endpoint without host", "http endpoint with port but no host",
         "http endpoint with unclosed IPv6 host", "http bool max_retries",
         "mock bool max_retries", "mock bool fail_times", "mock bool delay", "http zero timeout",
         "http NaN timeout", "http negative infinite timeout", "mock NaN delay",
         "mock negative infinite delay"],
)
def test_bad_provider_entry_names_the_file(tmp_path, capsys, monkeypatch, entry, reason):
    # Every bad entry exits 2 at load, before the batch sends any request.
    def refuse(*args, **kwargs):
        raise AssertionError("extract_labels was called")

    monkeypatch.setattr("labelvote.extract.extract_labels", refuse)
    products = tmp_path / "products.jsonl"
    products.write_text(json.dumps({"item_id": "p1", "title": "Socks"}) + "\n", encoding="utf-8")
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([entry]), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main([
        "extract", "--products", str(products), "--attribute", "attr", "--labels", "a,b",
        "--providers", str(providers), "--out", str(out),
    ])
    assert code == 2
    assert f"{providers}: provider #1: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, content, reason",
    [
        ("--template", b"\xff", NOT_UTF8),
        ("--synonyms", b'{"woman": "girl"}',
         "synonym 'woman' -> 'girl': target is not a schema label"),
        ("--synonyms", b'{"woman": 5}', "field 'synonyms' must be an object of string pairs"),
        ("--synonyms", b'{"Woman": "female", "woman ": "male"}',
         "synonyms 'Woman' and 'woman ' are the same key after trimming and case-folding"),
        ("--synonyms", b'{"  ": "male"}', "synonym '  ' -> 'male': key is blank after trimming"),
    ],
    ids=["non-UTF-8 template", "synonym outside vocabulary", "non-string synonym",
         "synonym keys alike", "blank synonym key"],
)
def test_bad_extract_input_names_the_file(tmp_path, capsys, monkeypatch, flag, content, reason):
    # Each bad file exits 2 before the batch sends any request.
    def refuse(*args, **kwargs):
        raise AssertionError("extract_labels was called")

    monkeypatch.setattr("labelvote.extract.extract_labels", refuse)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    products = tmp_path / "products.jsonl"
    products.write_text(json.dumps({"item_id": "p1", "title": "Socks"}) + "\n", encoding="utf-8")
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([MOCK]), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main([
        "extract", "--products", str(products), "--attribute", "gender",
        "--labels", "male,female,unisex", "--providers", str(providers),
        flag, str(bad), "--out", str(out),
    ])
    assert code == 2
    assert f"{bad}: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_product_exits_2_before_any_request(tmp_path, capsys, monkeypatch):
    # Two requests for one item would write two records for (m1, a) that
    # aggregate then rejects, or silently collapses when they agree.
    def refuse(*args, **kwargs):
        raise AssertionError("extract_labels was called")

    monkeypatch.setattr("labelvote.extract.extract_labels", refuse)
    products = tmp_path / "products.jsonl"
    products.write_text(2 * (json.dumps({"item_id": "a", "title": "Socks"}) + "\n"),
                        encoding="utf-8")
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([MOCK]), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main([
        "extract", "--products", str(products), "--attribute", "attr", "--labels", "a,b",
        "--providers", str(providers), "--out", str(out),
    ])
    assert code == 2
    assert f"{products}:2: duplicate item_id 'a'" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_provider_id_names_the_entry(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("extract_labels was called")

    monkeypatch.setattr("labelvote.extract.extract_labels", refuse)
    products = tmp_path / "products.jsonl"
    products.write_text(json.dumps({"item_id": "a", "title": "Socks"}) + "\n", encoding="utf-8")
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([{**MOCK, "provider_id": "m"}] * 2), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main([
        "extract", "--products", str(products), "--attribute", "attr", "--labels", "a,b",
        "--providers", str(providers), "--out", str(out),
    ])
    assert code == 2
    assert f"{providers}: provider #2: duplicate provider_id 'm'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, rule",
    [
        (["aggregate", "--input", "MISSING", "--max-iter", "0"],
         "field 'max_iterations' must be an integer >= 1"),
        (["extract", "--products", "MISSING", "--providers", "MISSING",
          "--max-in-flight", "0"], "field 'max_in_flight' must be an integer >= 1"),
        (["simulate", "--items", "0", "--workers", "MISSING", "--seed", "1"],
         "field 'n_items' must be an integer >= 1"),
        (["simulate", "--items", "5", "--workers", "MISSING", "--seed", "-1"],
         "field 'seed' must be an integer >= 0"),
    ],
    ids=["--max-iter", "--max-in-flight", "--items", "--seed"],
)
def test_bad_numeric_flag_exit_2_before_reading_input(tmp_path, capsys, argv, rule):
    missing = str(tmp_path / "missing.jsonl")
    out = tmp_path / "out.jsonl"
    argv = [missing if arg == "MISSING" else arg for arg in argv]
    code = main([*argv, "--attribute", "attr", "--labels", "a,b", "--out", str(out)])
    assert code == 2
    assert f"error: {rule}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag, spelling",
    [
        (["simulate", "--items", "5", "--workers", "MISSING", "--seed", "1"], "--truth-out",
         "same.jsonl"),
        (["simulate", "--items", "5", "--workers", "MISSING", "--seed", "1"], "--truth-out",
         "./same.jsonl"),
        (["aggregate", "--input", "MISSING"], "--weights-out", "same.jsonl"),
        (["aggregate", "--input", "MISSING"], "--weights-out", "./same.jsonl"),
    ],
    ids=["--truth-out", "--truth-out ./", "--weights-out", "--weights-out ./"],
)
def test_two_outputs_on_one_file_exit_2_before_reading_input(
    tmp_path, capsys, monkeypatch, argv, flag, spelling
):
    # The output written second would replace the first, and the run would exit 0.
    monkeypatch.chdir(tmp_path)
    same = tmp_path / "same.jsonl"
    same.write_bytes(b"old\n")
    argv = ["missing.jsonl" if arg == "MISSING" else arg for arg in argv]
    code = main([*argv, "--attribute", "attr", "--labels", "a,b",
                 "--out", "same.jsonl", flag, spelling])
    assert code == 2
    assert capsys.readouterr().err == f"error: --out and {flag} name the same file\n"
    assert same.read_bytes() == b"old\n"


def test_schema_file_unknown_field_exit_2(tmp_path, capsys):
    annotations = tmp_path / "annotations.jsonl"
    write_annotation_lines(annotations, THREE_BY_FOUR)
    schema_file = tmp_path / "schema.json"
    schema_file.write_text(
        json.dumps({"attribute": "attr", "labels": ["a", "b"], "note": "x"}), encoding="utf-8"
    )
    code = main([
        "aggregate", "--input", str(annotations), "--schema", str(schema_file),
        "--out", str(tmp_path / "out.jsonl"),
    ])
    assert code == 2
    assert f"{schema_file}: unknown field(s) note" in capsys.readouterr().err


def test_tol_is_accepted_and_ignored(tmp_path):
    annotations = tmp_path / "annotations.jsonl"
    write_annotation_lines(annotations, THREE_BY_FOUR)
    outputs = []
    for tol in ([], ["--tol", "0"], ["--tol", "-1"], ["--tol", "0.5"]):
        out = tmp_path / f"out{len(outputs)}.jsonl"
        assert main([
            "aggregate", "--input", str(annotations), "--attribute", "attr",
            "--labels", "a,b", "--out", str(out), *tol,
        ]) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1


def aggregate_both_ways(tmp_path, capsys, annotations, max_iter=100):
    """``aggregate`` of ``annotations`` with ``--max-iter max_iter`` on the plain
    path, then on the numpy path, which a budget below every input selects: per
    path, its (code, stdout, stderr, predictions bytes, weights bytes), None for
    a file not written."""
    outputs = [tmp_path / "predictions.jsonl", tmp_path / "weights.json"]
    argv = ["aggregate", "--input", str(annotations), "--attribute", "attr",
            "--labels", "a,b,c", "--max-iter", str(max_iter),
            "--out", str(outputs[0]), "--weights-out", str(outputs[1])]
    runs = []
    for budget in (PLAIN_BUDGET, -1):
        with mock.patch.object(ensemble, "PLAIN_BUDGET", budget):
            assert ensemble.fits_plain(annotations, max_iter) == (budget >= 0)
            code = main(argv)
        written = [path.read_bytes() if path.exists() else None for path in outputs]
        for path in outputs:
            path.unlink(missing_ok=True)
        runs.append((code, *capsys.readouterr(), *written))
    return runs


@st.composite
def small_crowd_lines(draw):
    """The lines of a small annotation file in labels a, b, c: annotators that
    mostly agree with a hidden truth, mostly contradict it (they earn negative
    weights) or guess, some labels out of the vocabulary or in another case,
    agreeing repeats, any order, and in a third of the files some lines
    compact, which only the row path reads."""
    items = [f"p{j}" for j in range(draw(st.integers(1, 8)))]
    truth = {item: draw(st.sampled_from("abc")) for item in items}
    votes = {}
    for annotator in [f"w{k}" for k in range(draw(st.integers(1, 5)))]:
        kind = draw(st.sampled_from(["agrees", "contradicts", "guesses"]))
        for item in draw(st.lists(st.sampled_from(items), unique=True)):
            label = {"agrees": truth[item], "contradicts": "bcab"["abc".index(truth[item])],
                     "guesses": draw(st.sampled_from("abc"))}[kind]
            if draw(st.integers(0, 4)) == 0:  # now and then the annotator's own label
                label = draw(st.sampled_from(["a", "b", "c", "B", " c", "d", "unknown"]))
            votes[annotator, item] = label
    pairs = list(votes) + draw(st.lists(st.sampled_from(list(votes)), max_size=3)) if votes else []
    lines, mixed = [], draw(st.integers(0, 2)) == 0
    for annotator, item in draw(st.permutations(pairs)):
        record = {"annotator_id": annotator, "item_id": item, "attribute": "attr",
                  "raw_label": votes[annotator, item]}
        compact = mixed and draw(st.booleans())
        lines.append(json.dumps(record, separators=(",", ":") if compact else None) + "\n")
    return "".join(lines)


# Labels of items p0..p9 ("-": none). Found by a search of random crowds: summed in
# descending annotator order, its scores break a tie apart and it converges an
# iteration early. The plain loop must add the votes in np.bincount's order.
ORDER_SENSITIVE_CROWD = {"w0": "ccbc-bacbb", "w1": "bbbacbbb-c", "w2": "bbbbaac-ca",
                         "w3": "bcaacb-cbc"}
ORDER_SENSITIVE_LINES = "".join(
    json.dumps({"annotator_id": annotator, "item_id": f"p{j}", "attribute": "attr",
                "raw_label": label}) + "\n"
    for annotator, labels in ORDER_SENSITIVE_CROWD.items()
    for j, label in enumerate(labels) if label != "-"
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=small_crowd_lines(), max_iter=st.sampled_from([1, 2, 3, 4, 5, 100]))
@example(text=ORDER_SENSITIVE_LINES, max_iter=5)
def test_plain_path_writes_the_numpy_paths_bytes(tmp_path, capsys, text, max_iter):
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text(text, encoding="utf-8")
    plain, vectorised = aggregate_both_ways(tmp_path, capsys, annotations, max_iter)
    assert plain == vectorised


@pytest.mark.parametrize(
    "lines, code, message",
    [
        ([("a1", "p1", "a"), ("a1", "p2", "b"), ("a1", "p1", "B")], 2,
         "conflicting labels for annotator 'a1' on item 'p1': 'a' vs 'b'"),
        ([("a1", "p1", "a"), ("a2", "p1", "b", "size")], 2,
         "record attribute 'size' does not match schema attribute 'attr'"),
        ([("a1", "p1", "a"), "{not json"], 2, "annotations.jsonl:2: invalid JSON"),
        # Precedence: a malformed line anywhere, then a conflict before another attribute.
        ([("a1", "p1", "a"), ("a1", "p1", "b"), ("a2", "p1", "b", "size")], 2,
         "conflicting labels for annotator 'a1' on item 'p1'"),
        ([("a2", "p1", "b", "size"), ("a1", "p1", "a"), ("a1", "p1", "b")], 2,
         "record attribute 'size' does not match"),
        ([("a1", "p1", "a"), ("a1", "p1", "b"), ("a2", "p1", "b", "size"), "[]"], 2,
         "annotations.jsonl:4: expected a JSON object"),
        ([("a1", "p1", "d"), ("a2", "p1", "unknown")], 1, "no annotations"),
    ],
    ids=["conflict", "another attribute", "malformed line", "conflict, then attribute",
         "attribute, then conflict", "malformed line last", "no label in the vocabulary"],
)
def test_both_paths_fail_alike(tmp_path, capsys, lines, code, message):
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("".join(
        line + "\n" if isinstance(line, str) else json.dumps({
            "annotator_id": line[0], "item_id": line[1],
            "attribute": line[3] if len(line) > 3 else "attr", "raw_label": line[2]}) + "\n"
        for line in lines
    ), encoding="utf-8")
    plain, vectorised = aggregate_both_ways(tmp_path, capsys, annotations)
    assert plain == vectorised
    assert plain[:2] == (code, "") and message in plain[2] and plain[3:] == (None, None)


def test_the_plain_path_takes_size_times_max_iter_up_to_the_budget(tmp_path):
    annotations = tmp_path / "annotations.jsonl"
    write_annotation_lines(annotations, THREE_BY_FOUR)
    beyond = PLAIN_BUDGET // annotations.stat().st_size + 1
    assert ensemble.fits_plain(annotations, beyond - 1)
    assert not ensemble.fits_plain(annotations, beyond)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("compact", [0, -1], ids=["compact first line", "compact last line"])
def test_piped_input_is_read_once(tmp_path, compact):
    # A pipe can be read only once. The column reader would take it all, then decline
    # the compact line, leaving the row path nothing: the row path must read it alone.
    annotations = tmp_path / "annotations.jsonl"
    write_annotation_lines(annotations, THREE_BY_FOUR)
    lines = annotations.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[compact] = json.dumps(json.loads(lines[compact]), separators=(",", ":")) + "\n"
    annotations.write_text("".join(lines), encoding="utf-8")
    runs = []
    for source in (str(annotations), "/dev/stdin"):
        out, weights = tmp_path / "out.jsonl", tmp_path / "weights.json"
        result = run_python_on_src(
            "-m", "labelvote", "aggregate", "--input", source, "--attribute", "attr",
            "--labels", "a,b", "--out", str(out), "--weights-out", str(weights),
            input="".join(lines),
        )
        runs.append((result.returncode, result.stderr, out.read_bytes(), weights.read_bytes()))
        out.unlink()
        weights.unlink()
    assert runs[0] == runs[1]
    assert runs[0][:2] == (0, "iterations_run=2 converged=True\n")


def run_python_on_src(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unset=(),
                      input=None):
    """Run a child interpreter that imports labelvote from this checkout,
    without the environment variables ``unset``, with ``input`` piped to it."""
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for name in unset:
        env.pop(name, None)
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=stderr, text=True,
        timeout=60, input=input,
    )


# Each subcommand's success, exit-2 input error and exit-1 I/O error; --help; an unknown flag.
ENTRY_POINT_CODES = {
    "simulate ok": 0, "simulate invalid": 2, "simulate unreadable": 1,
    "aggregate ok": 0, "aggregate invalid": 2, "aggregate unreadable": 1,
    "evaluate ok": 0, "evaluate invalid": 2, "evaluate unreadable": 1,
    "extract ok": 0, "extract invalid": 2, "extract unreadable": 1,
    "--help": 0, "unknown flag": 2,
}


def entry_point_argv(tmp_path, case):
    """The argv of ``case`` of ``ENTRY_POINT_CODES``, its inputs written to ``tmp_path``."""
    annotations, conflicting = tmp_path / "annotations.jsonl", tmp_path / "conflicting.jsonl"
    write_annotation_lines(annotations, THREE_BY_FOUR)
    write_annotation_lines(conflicting, [("a1", "p1", "a"), ("a1", "p1", "b")])
    truth, other = tmp_path / "truth.jsonl", tmp_path / "other.jsonl"
    for path, item in ((truth, "p1"), (other, "p9")):
        path.write_text(json.dumps({"item_id": item, "attribute": "attr", "label": "a"}) + "\n",
                        encoding="utf-8")
    workers, providers = tmp_path / "workers.json", tmp_path / "providers.json"
    workers.write_text(json.dumps(TABLE_WORKERS), encoding="utf-8")
    providers.write_text(json.dumps([MOCK]), encoding="utf-8")
    bad_providers = tmp_path / "bad-providers.json"
    bad_providers.write_text(json.dumps([{**MOCK, "delay": "x"}]), encoding="utf-8")
    products = tmp_path / "products.jsonl"
    products.write_text(json.dumps({"item_id": "p1", "title": "Socks"}) + "\n", encoding="utf-8")
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out.jsonl")
    schema = ["--attribute", "attr", "--labels", "a,b"]
    simulate = ["simulate", "--labels", "a,b", "--seed", "1", "--out", out]
    aggregate = ["aggregate", *schema, "--out", out]
    evaluate = ["evaluate", "--predictions", str(truth)]
    extract = ["extract", *schema, "--out", out]
    return {
        "simulate ok": [*simulate, "--items", "30", "--workers", str(workers),
                        "--truth-out", str(tmp_path / "truth-out.jsonl")],
        "simulate invalid": [*simulate, "--items", "0", "--workers", str(workers)],
        "simulate unreadable": [*simulate, "--items", "30", "--workers", missing],
        "aggregate ok": [*aggregate, "--input", str(annotations),
                         "--weights-out", str(tmp_path / "weights.json")],
        "aggregate invalid": [*aggregate, "--input", str(conflicting)],
        "aggregate unreadable": [*aggregate, "--input", missing],
        "evaluate ok": [*evaluate, "--truth", str(truth)],
        "evaluate invalid": [*evaluate, "--truth", str(other)],
        "evaluate unreadable": [*evaluate, "--truth", missing],
        "extract ok": [*extract, "--products", str(products), "--providers", str(providers)],
        "extract invalid": [*extract, "--products", str(products),
                            "--providers", str(bad_providers)],
        "extract unreadable": [*extract, "--products", missing, "--providers", str(providers)],
        "--help": ["--help"],
        "unknown flag": [*evaluate, "--truth", str(truth), "--bogus"],
    }[case]


@pytest.mark.parametrize("case, expected_code", ENTRY_POINT_CODES.items())
def test_module_entry_point_matches_main(tmp_path, capsys, monkeypatch, case, expected_code):
    # `python -m labelvote` exits through cli.run; in process, main returns the code
    # (or argparse raises SystemExit). Both must give the same code, streams and files.
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps --help to the terminal's width
    argv = entry_point_argv(tmp_path, case)
    outputs = [Path(argv[k + 1]) for k, flag in enumerate(argv) if flag.endswith("out")]

    def take_outputs():
        """Each output file's bytes, or None where none was written; then delete them."""
        contents = [path.read_bytes() if path.exists() else None for path in outputs]
        for path in outputs:
            path.unlink(missing_ok=True)
        return contents

    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    in_process = (code, captured.out, captured.err, take_outputs())
    child = run_python_on_src("-m", "labelvote", *argv)
    assert (child.returncode, child.stdout, child.stderr, take_outputs()) == in_process
    assert code == expected_code
    written = [content is not None for content in in_process[3]]
    assert written == [code == 0] * len(outputs)
    if case == "--help":
        assert captured.out.startswith("usage: labelvote ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_stdout_flush_exits_1(tmp_path):
    # A buffered stdout on a full device fails only when it is flushed, after main returns.
    truth = tmp_path / "truth.jsonl"
    truth.write_text(
        json.dumps({"item_id": "p1", "attribute": "attr", "label": "a"}) + "\n", encoding="utf-8"
    )
    argv = ["-m", "labelvote", "evaluate", "--predictions", str(truth), "--truth", str(truth)]
    with open("/dev/full", "w") as full:
        result = run_python_on_src(*argv, stdout=full, unset=["PYTHONUNBUFFERED"])
    assert (result.returncode, result.stderr) == (
        1, f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("truth_name, code", [("missing.jsonl", 1), ("other.jsonl", 2)],
                         ids=["unreadable", "invalid"])
def test_an_unwritable_error_line_exits_1(tmp_path, truth_name, code):
    # main's own error line fails on a full stderr; that is an I/O failure too, not exit 120.
    for name, attribute in (("predictions.jsonl", "attr"), ("other.jsonl", "other")):
        row = {"item_id": "p1", "attribute": attribute, "label": "a"}
        (tmp_path / name).write_text(json.dumps(row) + "\n", encoding="utf-8")
    argv = ["-m", "labelvote", "evaluate", "--predictions", str(tmp_path / "predictions.jsonl"),
            "--truth", str(tmp_path / truth_name)]
    result = run_python_on_src(*argv, unset=["PYTHONUNBUFFERED"])
    assert (result.returncode, result.stderr.startswith("error: ")) == (code, True)
    with open("/dev/full", "w") as full:
        result = run_python_on_src(*argv, stderr=full, unset=["PYTHONUNBUFFERED"])
    assert result.returncode == 1


def test_benchmark_selftest_passes():
    # perfbench/selftest.py runs each workload at 1/200 size, end to end and traced,
    # and checks every output, every metric BENCHMARK.json names and the tracer's
    # patches; about 15 s.
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_bench_ab_runs_an_a_a_pair_and_leaves_the_checkout_as_it_was(tmp_path):
    # scripts/bench_ab.py checks the base out as a git worktree, runs both trees'
    # perfbench/run.py and writes BENCH_<rev>.json into its working directory.
    root = Path(__file__).resolve().parents[1]
    if subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout")
    status = ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"]
    before = subprocess.run(status, capture_output=True, text=True).stdout
    worktrees = ["git", "-C", str(root), "worktree", "list", "--porcelain"]
    listed = subprocess.run(worktrees, capture_output=True, text=True).stdout
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "bench_ab.py"), "--base", "HEAD", "--tiny",
         "--pairs", "1", "--workload", "dense-20k", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    [bench] = tmp_path.glob("BENCH_*.json")
    report = json.loads(bench.read_text(encoding="utf-8"))
    assert {"base", "change", "nproc", "bytecode", "notes", "sets"} <= set(report)
    assert report["base"] == report["change"] and report["nproc"] == os.cpu_count()
    assert set(report["notes"]) == {"simulate_rss_mib", "aggregate_rss_mib"}
    [runs] = report["sets"]
    assert {"seed", "seconds", "summary", "runs"} <= set(runs)
    for side in ("base", "change"):
        [run] = runs["runs"][side]
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]["dense-20k"]) >= {"aggregate_s", "aggregate_rss_mib"}
    assert subprocess.run(status, capture_output=True, text=True).stdout == before
    assert subprocess.run(worktrees, capture_output=True, text=True).stdout == listed


def test_bench_ab_tier_runs_one_chain_per_side_through_the_trampoline(tmp_path):
    # --tier 200k at --tiny size: 2,000 items, one simulate/aggregate/evaluate chain per tree.
    root = Path(__file__).resolve().parents[1]
    if subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout")
    status = ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"]
    before = subprocess.run(status, capture_output=True, text=True).stdout
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "bench_ab.py"), "--base", "HEAD", "--tiny",
         "--pairs", "1", "--tier", "200k"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    [bench] = tmp_path.glob("BENCH_*.json")
    report = json.loads(bench.read_text(encoding="utf-8"))
    steps = ("simulate", "aggregate", "evaluate")
    assert set(report["notes"]) == {f"{step}_peak_mib" for step in steps}
    [runs] = report["sets"]
    assert (runs["workload"], runs["seed"], runs["tiny"]) == ("tier 200k", 3, True)
    for side in ("base", "change"):
        [run] = runs["runs"][side]
        assert run["correct"] and run["failed"] == 0
        assert run["digests"] == runs["runs"]["base"][0]["digests"]
        metrics = run["metrics"]["200k"]
        for step in steps:
            # A step's own peak at 2,000 items: more than a bare interpreter's, far below 200k's.
            assert metrics[f"{step}_s"] > 0 and 5 < metrics[f"{step}_peak_mib"] < 60
            # User plus system time of the step's own process, from the same wait4.
            assert 0 < metrics[f"{step}_cpu_s"] < 10 * metrics[f"{step}_s"]
    assert {row["metric"] for row in runs["summary"]} >= {
        f"{step}{unit}" for step in steps for unit in ("_s", "_peak_mib", "_cpu_s")}
    assert subprocess.run(status, capture_output=True, text=True).stdout == before


def test_pipeline_script_passes(tmp_path):
    # scripts/pipeline.sh runs every subcommand through a `labelvote` on PATH,
    # checks the --help and evaluate import budgets and serves a local HTTP stub.
    root = Path(__file__).resolve().parents[1]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "labelvote"
    shim.write_text('#!/bin/sh\nexec python3 -m labelvote "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
        PYTHONPATH=os.pathsep.join(p for p in paths if p),
    )
    result = subprocess.run(
        ["sh", str(root / "scripts" / "pipeline.sh"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_import_leaves_http_stack_unloaded():
    probe = (
        "import sys, labelvote.cli; "
        "print([m for m in ('requests', 'urllib.request', 'http.client') if m in sys.modules])"
    )
    result = run_python_on_src("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_prediction_rows_import_loads_no_storage_and_no_dataclass():
    probe = (
        "import sys; from labelvote import prediction_columns; "
        "print(sorted(m for m in sys.modules if m.startswith('labelvote.')), "
        "'dataclasses' in sys.modules)"
    )
    result = run_python_on_src("-c", probe)
    assert result.returncode == 0, result.stderr
    bare = run_python_on_src("-c", "import sys, labelvote; print('dataclasses' in sys.modules)")
    assert result.stdout.split() == ["['labelvote.jsonl']", bare.stdout.strip()]


def test_extract_warnings_are_prefixed_once_per_call(tmp_path):
    # pytest attaches its own root handlers, so the CLI's logging is checked in a child,
    # which calls main twice, each time with a new stderr.
    products = tmp_path / "products.jsonl"
    products.write_text("".join(
        json.dumps({"item_id": f"p{n}", "title": "Socks"}) + "\n" for n in range(2)
    ), encoding="utf-8")
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([
        {"kind": "mock", "provider_id": "bad", "fail_times": 9, "max_retries": 1},
        {**MOCK, "default_response": "unresolved"},  # logged at INFO, which stays silent
    ]), encoding="utf-8")
    argv = ["extract", "--products", str(products), "--attribute", "attr", "--labels", "a,b",
            "--providers", str(providers), "--out", str(tmp_path / "out.jsonl")]
    probe = (
        "import contextlib, io, json, sys\n"
        "from labelvote.cli import main\n"
        "for _ in range(2):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        assert main(sys.argv[1:]) == 0\n"
        "    print(json.dumps(err.getvalue()))\n"
    )
    result = run_python_on_src("-c", probe, *argv)
    assert result.returncode == 0, result.stderr
    gave_up = "provider bad: giving up after 1 attempt(s): provider 'bad': scripted failure"
    expected = [2 * f"warning: {gave_up}\n"
                + "provider bad: 0/2 responses, 2 failed, 0 unresolved\n"
                + "provider m1: 2/2 responses, 0 failed, 2 unresolved\n"] * 2
    assert [json.loads(line) for line in result.stdout.splitlines()] == expected
    assert result.stderr == ""


# The package modules each subcommand loads, beyond labelvote and labelvote.cli, by
# whether it loads numpy: aggregate does only on an input beyond ensemble.PLAIN_BUDGET.
SUBCOMMAND_MODULES = {
    ("--help", False): [],
    ("evaluate", False): ["jsonl"],
    ("extract", False): ["data", "extract", "jsonl", "providers", "storage"],  # data: the prompt
    ("aggregate", False): ["ensemble", "jsonl", "storage"],
    ("aggregate", True): ["aggregate", "core", "ensemble", "jsonl", "storage"],
    ("simulate", True): ["core", "jsonl", "simulate", "storage"],
}


@pytest.mark.parametrize("subcommand, loads_numpy", SUBCOMMAND_MODULES)
def test_numpy_is_loaded_only_by_the_subcommands_that_use_it(tmp_path, subcommand, loads_numpy):
    # The console script imports labelvote.cli and calls main, as the probe does.
    # Only labelvote.* names are pinned: which stdlib modules load differs between hosts.
    # --help and evaluate build no dataclass, so they load dataclasses only where a
    # bare `import labelvote.cli` does (some hosts' site modules load it).
    annotations = tmp_path / "annotations.jsonl"
    write_annotation_lines(annotations, THREE_BY_FOUR)
    truth = tmp_path / "truth.jsonl"
    truth.write_text(
        json.dumps({"item_id": "p1", "attribute": "attr", "label": "a"}) + "\n", encoding="utf-8"
    )
    products = tmp_path / "products.jsonl"
    products.write_text(json.dumps({"item_id": "p1", "title": "Socks"}) + "\n", encoding="utf-8")
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([MOCK]), encoding="utf-8")
    workers = tmp_path / "workers.json"
    workers.write_text(json.dumps(TABLE_WORKERS), encoding="utf-8")
    schema, out = ["--attribute", "attr", "--labels", "a,b"], str(tmp_path / "out.jsonl")
    argv = {
        "--help": ["--help"],
        "evaluate": ["evaluate", "--predictions", str(truth), "--truth", str(truth)],
        "extract": ["extract", "--products", str(products), *schema,
                    "--providers", str(providers), "--out", out],
        "aggregate": ["aggregate", "--input", str(annotations), *schema, "--out", out],
        "simulate": ["simulate", "--items", "10", *schema, "--workers", str(workers),
                     "--seed", "1", "--out", out],
    }[subcommand]
    if subcommand == "aggregate" and loads_numpy:  # the same file, iterated beyond the budget
        argv += ["--max-iter", str(PLAIN_BUDGET // annotations.stat().st_size + 1)]
    probe = (
        "import sys\n"
        "from labelvote.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:  # --help exits through argparse\n"
        "    code = exc.code\n"
        "print(code, 'numpy' in sys.modules, 'dataclasses' in sys.modules)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'labelvote')))\n"
    )
    result = run_python_on_src("-c", probe, *argv)
    assert result.returncode == 0, result.stderr
    *_, numpy_line, modules_line = result.stdout.splitlines()
    code, numpy, dataclasses = numpy_line.split()
    assert (code, numpy) == ("0", str(loads_numpy))
    if subcommand in ("--help", "evaluate"):
        bare = "import sys, labelvote.cli; print('dataclasses' in sys.modules)"
        assert dataclasses == run_python_on_src("-c", bare).stdout.strip()
    expected = ["labelvote", "labelvote.cli"]
    expected += [f"labelvote.{name}" for name in SUBCOMMAND_MODULES[subcommand, loads_numpy]]
    assert modules_line.split() == sorted(expected)


def test_column_reader_loads_no_numpy_ma(tmp_path):
    # " z" starts with a space, so the column reader checks that it is not blank; a
    # flag-less np.unique loads numpy.ma on some numpy versions, some 10 ms of a run.
    annotations = tmp_path / "annotations.jsonl"
    write_annotation_lines(annotations, [
        ("a1", "p1", "a"), ("a1", "p2", " z"), ("a2", "p2", "zz"), ("a2", "p1", "Z"),
    ])
    probe = (
        "import sys\n"
        "from labelvote import core, storage\n"
        "schema = storage.AttributeSchema('attr', ['a', 'z'])\n"
        "matrix = core.read_matrix(sys.argv[1], schema)\n"
        "print('numpy.ma' in sys.modules)\n"
        "print(core._read_canonical(sys.argv[1], schema) == matrix\n"
        "      == core.build_matrix(schema, storage.read_annotations(sys.argv[1])))\n"
        "print(matrix.cells.tolist())\n"
    )
    result = run_python_on_src("-c", probe, str(annotations))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == ["False", "True", "[[1, 2], [2, 0]]", ""]


# Every name the package exported when its __init__ imported all modules, by defining module.
EXPORTS = {
    "aggregate": "estimate_accuracies majority_vote run_ensemble weighted_vote",
    "core": "AnnotationMatrix build_matrix read_matrix write_matrix",
    "ensemble": "EnsembleConfig EnsembleState oracle_weights update_weights",
    "extract": "PromptTemplate SynonymMap default_template extract_labels parse_response "
    "render_prompt",
    "jsonl": "prediction_columns",
    "providers": "CredentialError HttpProvider MockProvider Provider ProviderError "
    "ProviderRejectedError ProviderRequestError load_providers make_provider",
    "simulate": "SimulationConfig WorkerProfile generate_ground_truth score_accuracy "
    "simulate_annotations",
    "storage": "AnnotationRecord AttributeSchema ConflictError ExtendedLabel PredictionRecord "
    "ProductText WeightsReport encode_label read_annotations read_predictions read_products "
    "read_weights write_annotations write_predictions write_weights",
}


def test_package_exports_resolve_to_their_defining_modules(monkeypatch):
    import labelvote
    from labelvote import core, storage

    expected = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert sorted(labelvote.__all__) == sorted(expected)
    namespace = {}
    exec("from labelvote import *", namespace)
    for name, module in expected.items():
        defined = getattr(sys.modules[f"labelvote.{module}"], name)
        assert namespace[name] is defined, name
    assert not {"ProductText", "_Checked", "_canon"} & set(vars(core))  # no re-exports
    # storage holds the records and their files; the matrix and its files are core's.
    assert not {"read_matrix", "write_matrix", "AnnotationMatrix"} & set(vars(storage))
    assert not set(expected) & set(vars(labelvote))  # resolved on access, never cached
    # So a patch of the defining module, as the benchmark's tracer makes, is seen here too.
    monkeypatch.setattr(core, "build_matrix", "patched")
    assert labelvote.build_matrix == "patched"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        labelvote.no_such_name
    with pytest.raises(ImportError):
        exec("from labelvote import no_such_name", {})
    assert storage is sys.modules["labelvote.storage"]
    assert importlib.util.find_spec("labelvote.schema") is None  # no re-export module
