"""End-to-end runs of the labelvote command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from labelvote import AnnotationRecord, read_annotations, read_predictions, read_weights
from labelvote.cli import main

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
        assert f"{workers_file}: worker #1: accuracy 1.7 outside [0, 1]" in capsys.readouterr().err


class TestEvaluate:
    def write_rows(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for item, label in rows:
                fh.write(json.dumps(
                    {"item_id": item, "attribute": "attr", "label": label}
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

    def test_item_id_mismatch_exit_2(self, tmp_path, capsys):
        predictions, truth = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        self.write_rows(predictions, [("p1", "a")])
        self.write_rows(truth, [("p2", "a")])
        code = main(["evaluate", "--predictions", str(predictions), "--truth", str(truth)])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

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


DOCUMENT_FLAGS = ["--schema", "--workers", "--synonyms", "--providers"]
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "flag, content, reason",
    [pytest.param(flag, b"{oops", "{bad}: invalid JSON", id=flag) for flag in DOCUMENT_FLAGS]
    + [
        pytest.param(flag, b"\xff", f"{{bad}}: {NOT_UTF8}", id=f"{flag} non-UTF-8")
        for flag in DOCUMENT_FLAGS
    ]
    + [pytest.param("--input", b"\xff", f"{{bad}}:1: {NOT_UTF8}", id="--input non-UTF-8")],
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
    ],
    ids=["non-object", "missing field", "unknown field", "non-string id"],
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


def test_bad_provider_entry_names_the_file(tmp_path, capsys):
    products = tmp_path / "products.jsonl"
    products.write_text(json.dumps({"item_id": "p1", "title": "Socks"}) + "\n", encoding="utf-8")
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps([{"kind": "carrier-pigeon"}]), encoding="utf-8")
    code = main([
        "extract", "--products", str(products), "--attribute", "attr", "--labels", "a,b",
        "--providers", str(providers), "--out", str(tmp_path / "out.jsonl"),
    ])
    assert code == 2
    assert f"{providers}: unknown provider kind 'carrier-pigeon'" in capsys.readouterr().err


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


def test_import_leaves_http_stack_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = "import sys, labelvote.cli; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
