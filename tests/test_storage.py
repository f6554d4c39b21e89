"""Interchange file round-trips and reader strictness."""

import json
import random
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from labelvote import (
    AnnotationMatrix,
    AnnotationRecord,
    AttributeSchema,
    WeightsReport,
    build_matrix,
    read_annotations,
    read_matrix,
    read_prediction_rows,
    read_predictions,
    read_products,
    read_weights,
    write_annotations,
    write_matrix,
    write_predictions,
    write_weights,
)
from labelvote import storage

WORDS = ["male", "female", "unisex", "n/a", "none", "köln", "垃圾", "yes no"]


def random_records(rng, count):
    return [
        AnnotationRecord(
            annotator_id=f"annotator-{rng.randint(1, 9)}",
            item_id=f"item-{rng.randint(1, 99)}",
            attribute=rng.choice(["gender", "age", "style"]),
            raw_label=rng.choice(WORDS),
        )
        for _ in range(count)
    ]


class TestAnnotations:
    def test_reads_in_file_order(self, tmp_path):
        path = tmp_path / "a.jsonl"
        lines = [
            {"annotator_id": "a1", "item_id": "p1", "attribute": "g", "raw_label": "x"},
            {"annotator_id": "a2", "item_id": "p1", "attribute": "g", "raw_label": "y"},
            {"annotator_id": "a1", "item_id": "p2", "attribute": "g", "raw_label": "z"},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        records = read_annotations(path)
        assert [r.annotator_id for r in records] == ["a1", "a2", "a1"]

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        good = {"annotator_id": "a1", "item_id": "p1", "attribute": "g", "raw_label": "x"}
        bad = {"annotator_id": "a1", "item_id": "p2", "attribute": "g"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            read_annotations(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        row = {
            "annotator_id": "a1", "item_id": "p1", "attribute": "g",
            "raw_label": "x", "confidence": 0.9,
        }
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown"):
            read_annotations(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"annotator_id": oops}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            read_annotations(path)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_annotations(path) == []

    def test_round_trip_identity(self, tmp_path):
        rng = random.Random(2)
        for case in range(50):
            records = random_records(rng, rng.randint(0, 20))
            path = tmp_path / f"rt-{case}.jsonl"
            write_annotations(path, records)
            assert read_annotations(path) == records

    def test_byte_deterministic(self, tmp_path):
        records = random_records(random.Random(3), 10)
        first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        write_annotations(first, records)
        write_annotations(second, records)
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()


class TestPredictions:
    def test_abstention_serializes_as_null(self, tmp_path, gender_schema):
        path = tmp_path / "p.jsonl"
        write_predictions(path, ["p1", "p2"], [0, 2], gender_schema)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["label"] is None
        assert json.loads(lines[1])["label"] == "female"

    def test_decoded_names_are_canonical(self, tmp_path):
        schema = AttributeSchema("gender", ["Male", "Female"])
        path = tmp_path / "p.jsonl"
        write_predictions(path, ["p1"], [1], schema)
        assert json.loads(path.read_text(encoding="utf-8"))["label"] == "Male"

    def test_round_trip(self, tmp_path, gender_schema):
        rng = random.Random(4)
        for case in range(50):
            item_ids = [f"p{j}" for j in range(rng.randint(1, 15))]
            predictions = [rng.randint(0, 3) for _ in item_ids]
            path = tmp_path / f"rt-{case}.jsonl"
            write_predictions(path, item_ids, predictions, gender_schema)
            rows = read_predictions(path)
            assert [r.item_id for r in rows] == item_ids
            expected = [
                None if v == 0 else gender_schema.labels[v - 1] for v in predictions
            ]
            assert [r.label for r in rows] == expected
            assert all(r.attribute == "gender" for r in rows)

    def test_length_mismatch(self, tmp_path, gender_schema):
        with pytest.raises(ValueError):
            write_predictions(tmp_path / "p.jsonl", ["p1"], [1, 2], gender_schema)

    @pytest.mark.parametrize("value", [-1, 4])
    def test_out_of_range_label_writes_nothing(self, tmp_path, gender_schema, value):
        path = tmp_path / "p.jsonl"
        with pytest.raises(ValueError, match="0..3"):
            write_predictions(path, ["p1", "p2"], [1, value], gender_schema)
        assert not path.exists()


class TestWeights:
    def report(self, converged=True):
        return WeightsReport(
            attribute="gender",
            weights={"a1": 1.0, "a2": 0.4999999999999917, "a3": -0.25},
            accuracies={"a1": 1.0, "a2": 0.7499999999999959, "a3": 0.375},
            iterations_run=4,
            converged=converged,
        )

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "w.json"
        report = self.report()
        write_weights(path, report)
        assert read_weights(path) == report

    def test_round_trip_random_floats(self, tmp_path):
        rng = random.Random(6)
        for case in range(100):
            ids = [f"a{k}" for k in range(1, rng.randint(2, 6))]
            report = WeightsReport(
                attribute="attr",
                weights={a: rng.uniform(-1, 3) for a in ids},
                accuracies={a: rng.random() for a in ids},
                iterations_run=rng.randint(1, 100),
                converged=rng.random() < 0.5,
            )
            path = tmp_path / f"w-{case}.json"
            write_weights(path, report)
            loaded = read_weights(path)
            assert loaded == report  # exact: shortest-roundtrip float formatting

    def test_converged_false_preserved(self, tmp_path):
        path = tmp_path / "w.json"
        write_weights(path, self.report(converged=False))
        assert read_weights(path).converged is False

    def test_unknown_extra_field_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        write_weights(path, self.report())
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["comment"] = "hello"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown"):
            read_weights(path)

    def test_key_set_mismatch_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        write_weights(path, self.report())
        obj = json.loads(path.read_text(encoding="utf-8"))
        del obj["weights"]["a3"]
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError):
            read_weights(path)

    def test_accuracy_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        write_weights(path, self.report())
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["accuracies"]["a1"] = 1.5
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError):
            read_weights(path)

    def test_byte_deterministic(self, tmp_path):
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        write_weights(first, self.report())
        write_weights(second, self.report())
        assert first.read_bytes() == second.read_bytes()


class TestProducts:
    def test_reads_products(self, tmp_path):
        path = tmp_path / "products.jsonl"
        rows = [
            {"item_id": "p1", "title": "T-Shirt", "description": "soft knit"},
            {"item_id": "p2", "title": "Socks"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        products = read_products(path)
        assert [p.item_id for p in products] == ["p1", "p2"]
        assert products[1].description == ""

    def test_missing_title_rejected(self, tmp_path):
        path = tmp_path / "products.jsonl"
        path.write_text(json.dumps({"item_id": "p1"}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            read_products(path)

    def test_non_string_description_rejected(self, tmp_path):
        path = tmp_path / "products.jsonl"
        row = {"item_id": "p1", "title": "Socks", "description": None}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_products(path)
        assert str(excinfo.value) == f"{path}:1: field 'description' must be a string"


# One valid line per JSONL reader, the field each case drops and the text
# field each case blanks; every reader shares the same line checks.
READERS = {
    "annotations": (
        read_annotations,
        {"annotator_id": "a1", "item_id": "p1", "attribute": "g", "raw_label": "x"},
        "item_id",
        "raw_label",
    ),
    "predictions": (
        read_predictions, {"item_id": "p1", "attribute": "g", "label": "x"}, "attribute", "item_id"
    ),
    "products": (
        read_products, {"item_id": "p1", "title": "Socks", "description": ""}, "title", "title"
    ),
}


def bad_line(case, valid, required, text):
    if case == "blank line":
        return "  "
    if case == "invalid JSON":
        return '{"item_id": oops}'
    if case == "extra data":
        return json.dumps(valid) + " x"
    if case == "UTF-8 BOM":
        return "\ufeff" + json.dumps(valid)
    if case == "non-UTF-8":
        return "\udcff"  # written as the byte 0xff
    if case == "non-object":
        return json.dumps([valid])
    if case == "missing field":
        return json.dumps({k: v for k, v in valid.items() if k != required})
    if case == "unknown field":
        return json.dumps({**valid, "confidence": 0.9})
    return json.dumps({**valid, text: " "})


REASONS = {
    "blank line": "blank line",
    "invalid JSON": "invalid JSON (Expecting value)",
    "extra data": "invalid JSON (Extra data)",
    "UTF-8 BOM": "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
    "non-UTF-8": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "non-object": "expected a JSON object",
    "missing field": "missing field(s) {required}",
    "unknown field": "unknown field(s) confidence",
    "blank text field": "field {text!r} must be a non-empty string",
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", list(REASONS))
def test_reader_rejects_bad_line_with_its_number(tmp_path, reader, case):
    read, valid, required, text = READERS[reader]
    reason = REASONS[case]
    path = tmp_path / f"{reader}.jsonl"
    content = json.dumps(valid) + "\n" + bad_line(case, valid, required, text) + "\n"
    path.write_bytes(content.encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path}:2: " + reason.format(required=required, text=text)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize(
    "template", ["  {}\n", "{}\r\n", "\t{} \n", "{}"], ids=["indent", "CRLF", "padded", "no LF"]
)
def test_reader_accepts_what_json_loads_accepts(tmp_path, reader, template):
    read, valid, _, _ = READERS[reader]
    plain, padded = tmp_path / "plain.jsonl", tmp_path / "padded.jsonl"
    plain.write_text(json.dumps(valid) + "\n", encoding="utf-8")
    padded.write_bytes(template.format(json.dumps(valid)).encode("utf-8"))
    assert read(padded) == read(plain)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{", "invalid JSON (Expecting property name enclosed in double quotes)"),
        ("[]", "expected a JSON object"),
        ('{"attribute": "g"}', "missing field(s) weights, accuracies, iterations_run, converged"),
    ],
    ids=["invalid JSON", "non-object", "missing fields"],
)
def test_weights_reader_names_the_file(tmp_path, text, reason):
    path = tmp_path / "w.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_weights(path)
    assert str(excinfo.value) == f"{path}: {reason}"


def test_weights_reader_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "w.json"
    path.write_bytes(b"\xff")
    with pytest.raises(ValueError) as excinfo:
        read_weights(path)
    assert str(excinfo.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )


FIELDS = ("annotator_id", "item_id", "attribute", "raw_label")
# Text json.dumps escapes or must leave alone: quotes, backslashes, a tab,
# U+2028, non-ASCII letters, and "%" (the line templates are %-formats).
AWKWARD = ['say "hi"', "back\\slash", "100%s %d", "tab\there", "line\u2028sep", "köln 垃圾"]


def read_outcome(read, *args):
    """What ``read(*args)`` returns, or the type and text of what it raises."""
    try:
        return read(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def fused_and_staged(path, schema):
    fused = read_outcome(read_matrix, path, schema)
    staged = read_outcome(lambda: build_matrix(schema, read_annotations(path)))
    return fused, staged


class TestReadMatrix:
    def test_matches_records_path_on_random_files(self, tmp_path):
        schema = AttributeSchema("gender", ["male", "Female", "unisex"])
        surface = ["male", " MALE", "female", "Female ", "unisex", "kid", "n/a", "köln"]
        rng = random.Random(7)
        for case in range(60):
            labels = {
                (f"a{rng.randint(1, 6)}", f"p{rng.randint(1, 40)}"): rng.choice(surface)
                for _ in range(rng.randint(0, 80))
            }
            rows = [
                {"annotator_id": a, "item_id": p, "attribute": "gender", "raw_label": label}
                for (a, p), label in labels.items()
            ]
            # Agreeing repeats, some in another spelling of the same label.
            rows += [{**row, "raw_label": row["raw_label"].upper()} for row in rows[::3]]
            rng.shuffle(rows)
            path = tmp_path / f"m-{case}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
            fused, staged = fused_and_staged(path, schema)
            assert fused == staged

    @pytest.mark.parametrize(
        "lines, expected",
        [
            (["a1 p1 g x", "a1 p2 other x", "broken"], ":3: invalid JSON"),
            (["a1 p1 g x", "a1 p1 g y", "a1 p2 other x"], "conflicting labels for annotator"),
            (["a1 p1 other x", "a1 p1 g x", "a1 p1 g y"], "does not match schema attribute"),
        ],
        ids=["line error beats mismatch", "conflict beats mismatch", "mismatch beats later conflict"],
    )
    def test_error_precedence_matches_records_path(self, tmp_path, lines, expected):
        schema = AttributeSchema("g", ["x", "y"])
        path = tmp_path / "a.jsonl"
        text = ""
        for line in lines:
            fields = line.split()
            text += (line if len(fields) != 4 else json.dumps(dict(zip(FIELDS, fields)))) + "\n"
        path.write_text(text, encoding="utf-8")
        fused, staged = fused_and_staged(path, schema)
        assert fused == staged
        assert expected in fused[1]

    def test_empty_file_gives_empty_matrix(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("", encoding="utf-8")
        schema = AttributeSchema("g", ["x", "y"])
        assert read_matrix(path, schema) == build_matrix(schema, [])


class TestLineFormat:
    def awkward_matrix(self):
        schema = AttributeSchema('at"tr%s', AWKWARD[:4])
        annotators, items = AWKWARD[2:], [f"{w}-{k}" for k, w in enumerate(AWKWARD * 2)]
        entries = {
            (i, j): 1 + (i * 7 + j) % 4
            for i in range(len(annotators))
            for j in range(len(items))
            if (i + j) % 3
        }
        return AnnotationMatrix(schema, annotators, items, entries)

    def test_write_matrix_equals_write_annotations_of_its_records(self, tmp_path):
        matrix = self.awkward_matrix()
        fused, staged = tmp_path / "fused.jsonl", tmp_path / "staged.jsonl"
        write_matrix(fused, matrix)
        write_annotations(staged, matrix.to_records())
        assert fused.read_bytes() == staged.read_bytes()
        assert read_matrix(fused, matrix.schema) == build_matrix(
            matrix.schema, matrix.to_records()
        )

    def test_annotation_lines_are_json_dumps_of_the_record(self, tmp_path):
        records = self.awkward_matrix().to_records()
        path = tmp_path / "a.jsonl"
        write_annotations(path, records)
        expected = "".join(
            json.dumps(dict(zip(FIELDS, record)), ensure_ascii=False) + "\n" for record in records
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_prediction_lines_are_json_dumps_of_the_record(self, tmp_path):
        schema = AttributeSchema('at"tr%s', AWKWARD)
        item_ids = [f"{w}-{k}" for k, w in enumerate(AWKWARD * 3)]
        predictions = [k % (len(AWKWARD) + 1) for k in range(len(item_ids))]
        path = tmp_path / "p.jsonl"
        write_predictions(path, item_ids, predictions, schema)
        expected = "".join(
            json.dumps(
                {
                    "item_id": item_id,
                    "attribute": schema.attribute_name,
                    "label": None if value == 0 else schema.labels[value - 1],
                },
                ensure_ascii=False,
            )
            + "\n"
            for item_id, value in zip(item_ids, predictions)
        )
        assert path.read_bytes() == expected.encode("utf-8")


def test_only_lf_ends_a_line(tmp_path):
    path = tmp_path / "a.jsonl"
    row = json.dumps({"annotator_id": "a1", "item_id": "p1", "attribute": "g", "raw_label": "x"})
    path.write_bytes(f"{row}\r{row}\r".encode("utf-8"))
    with pytest.raises(ValueError) as excinfo:
        read_annotations(path)
    assert str(excinfo.value) == f"{path}:1: invalid JSON (Extra data)"


# A pattern that matches nothing sends every block down the per-line path.
NO_SHAPE = re.compile("(?!)")


def strict_outcome(read, *args):
    """``read_outcome`` with the whole file as one block and no line pattern:
    the per-line ``json.loads`` path alone."""
    with mock.patch.multiple(
        storage, _BLOCK=1 << 30, _ANNOTATION_SHAPE=NO_SHAPE, _PREDICTION_SHAPE=NO_SHAPE
    ):
        return read_outcome(read, *args)


def annotation_line(n, label="x", item=None):
    row = dict(zip(FIELDS, (f"a{n % 7}", item or f"p{n}", "g", label)))
    return json.dumps(row, ensure_ascii=False) + "\n"


def lines_past(size, start=0):
    """Canonical annotation lines, numbered from ``start``, until ``size`` bytes."""
    lines, total = [], 0
    while total < size:
        lines.append(annotation_line(start + len(lines), label=["x", "y"][len(lines) % 2]))
        total += len(lines[-1].encode("utf-8"))
    return lines


class TestBlocks:
    """Files of more than two ``_BLOCK``-sized blocks."""

    schema = AttributeSchema("g", ["x", "y", "垃"])

    def expected(self, lines):
        rows = [tuple(json.loads(line).values()) for line in lines]
        return [AnnotationRecord(*row) for row in rows]

    def write(self, path, lines, newline="\n"):
        path.write_bytes("".join(lines).replace("\n", newline).encode("utf-8"))

    def test_canonical_blocks_skip_the_per_line_parse(self, tmp_path):
        path = tmp_path / "a.jsonl"
        lines = lines_past(3 * storage._BLOCK)
        self.write(path, lines)
        with mock.patch.object(storage, "_parse_lines", wraps=storage._parse_lines) as slow:
            assert read_annotations(path) == self.expected(lines)
            matrix = read_matrix(path, self.schema)
        assert matrix == build_matrix(self.schema, self.expected(lines))
        assert slow.call_count == 0

    def test_malformed_line_in_second_block_names_its_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        lines = lines_past(3 * storage._BLOCK)
        head = lines_past(storage._BLOCK + 1000)
        bad = len(head)  # 0-based index of a line well inside the second block
        lines[bad] = '{"annotator_id": oops}\n'
        self.write(path, lines)
        with mock.patch.object(storage, "_parse_lines", wraps=storage._parse_lines) as slow:
            outcome = read_outcome(read_annotations, path)
        assert outcome == (ValueError, f"{path}:{bad + 1}: invalid JSON (Expecting value)")
        assert outcome == strict_outcome(read_annotations, path)
        assert read_outcome(read_matrix, path, self.schema) == outcome
        # Only the second block took the per-line path, numbered from its first line.
        assert slow.call_count == 1
        first = slow.call_args.args[2]
        assert 1 < first <= bad + 1 < first + len(slow.call_args.args[1])

    @pytest.mark.parametrize("shift", range(-8, 3))
    def test_multibyte_character_at_the_cut(self, tmp_path, shift):
        """The label's 3-byte character starts ``shift`` bytes from the block size."""
        path = tmp_path / "a.jsonl"
        special = annotation_line(0, label="垃", item="q")
        prefix = len(special.encode("utf-8").split("垃".encode("utf-8"))[0])
        head = lines_past(storage._BLOCK - prefix + shift - 200, start=1)
        gap = storage._BLOCK + shift - prefix - len("".join(head).encode("utf-8"))
        pad = annotation_line(0, item="z")
        pad = annotation_line(0, item="z" * (gap - len(pad) + 1))
        lines = head + [pad, special] + lines_past(2 * storage._BLOCK, start=len(head) + 1)
        self.write(path, lines)
        content = "".join(lines).encode("utf-8")
        assert content.index("垃".encode("utf-8")) == storage._BLOCK + shift
        assert read_annotations(path) == self.expected(lines)
        assert read_outcome(read_matrix, path, self.schema) == strict_outcome(
            read_matrix, path, self.schema
        )

    def test_no_final_lf(self, tmp_path):
        path = tmp_path / "a.jsonl"
        lines = lines_past(2 * storage._BLOCK + 500)
        lines[-1] = lines[-1].rstrip("\n")
        self.write(path, lines)
        assert read_annotations(path) == self.expected(lines)
        lines[-1] = "{"
        self.write(path, lines)
        reason = f"{len(lines)}: invalid JSON (Expecting property name enclosed in double quotes)"
        assert read_outcome(read_annotations, path) == (ValueError, f"{path}:{reason}")

    def test_crlf_file_takes_the_per_line_path(self, tmp_path):
        path = tmp_path / "a.jsonl"
        lines = lines_past(2 * storage._BLOCK + 500)
        self.write(path, lines, newline="\r\n")
        with mock.patch.object(storage, "_parse_lines", wraps=storage._parse_lines) as slow:
            assert read_annotations(path) == self.expected(lines)
        assert slow.call_count >= 3
        lines[-2] = "[]\n"
        self.write(path, lines, newline="\r\n")
        outcome = read_outcome(read_annotations, path)
        assert outcome == (ValueError, f"{path}:{len(lines) - 1}: expected a JSON object")
        assert outcome == strict_outcome(read_annotations, path)

    def test_bom_file_takes_the_per_line_path(self, tmp_path):
        path = tmp_path / "a.jsonl"
        lines = lines_past(2 * storage._BLOCK + 500)
        lines[0] = "\ufeff" + lines[0]
        self.write(path, lines)
        outcome = read_outcome(read_annotations, path)
        assert outcome == (
            ValueError,
            f"{path}:1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
        )
        assert outcome == strict_outcome(read_annotations, path)

    def test_predictions_with_null_and_blank_labels(self, tmp_path):
        path = tmp_path / "p.jsonl"
        labels = ["x", None, "垃", "", " ", "\u2028"]
        rows = [(f"p{n}", "g", labels[n % len(labels)]) for n in range(8000)]
        path.write_text(
            "".join(json.dumps(dict(zip(("item_id", "attribute", "label"), row))) + "\n"
                    for row in rows),
            encoding="utf-8",
        )
        assert read_prediction_rows(path) == rows
        assert read_predictions(path) == strict_outcome(read_predictions, path)
        canonical = [row for row in rows if row[2] is None or (row[2] and row[2].strip())]
        path.write_text(
            "".join(json.dumps(dict(zip(("item_id", "attribute", "label"), row)),
                               ensure_ascii=False) + "\n" for row in canonical),
            encoding="utf-8",
        )
        with mock.patch.object(storage, "_parse_lines", wraps=storage._parse_lines) as slow:
            assert read_prediction_rows(path) == canonical
        assert slow.call_count == 0


# Values the writers emit as they are, and values a line can differ by: blank
# or whitespace-only text (as str.strip() sees it), quotes, backslashes, a tab,
# raw escapes such as \\u00e9 (escapes when embedded unescaped), null, numbers.
PLAIN = ["a1", "p1", "g", "x", "köln 垃圾", "line\u2028sep", "yes no", "%s", "/"]
ODD_TEXT = ["", " ", "\u3000", "\x85", "\u2028", "\xa0x", 'say "hi"', "back\\slash", "tab\t",
            "\\u00e9", "\\u2028", "\x7f", "é"]
ODD = ODD_TEXT + [None, 0]
RAW_LINES = [b"", b"  ", b"{", b"[]", b"null", b"\xff", b"{} x", "\ufeff{}".encode("utf-8")]
PADS = [("", " "), (" ", ""), ("", "\r"), ("\t", "\r"), ("", "}"), ("x", "")]  # or garbage
CHANGES = ["raw", "value", "reorder", "drop", "extra", "duplicate", "separators", "ascii",
           "unescaped", "pad"]


@st.composite
def jsonl_files(draw, fields):
    """Bytes of a JSONL file in the writers' shape, where a share of the
    lines differs from it in a way ``json.loads`` accepts or rejects."""
    share = draw(st.sampled_from([0, 0, 0.1, 0.5]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        pairs = [(f, draw(st.sampled_from(PLAIN + [None] * (f == "label")))) for f in fields]
        change = draw(st.sampled_from(CHANGES)) if draw(st.floats(0, 1)) < share else None
        if change == "raw":
            lines.append(draw(st.sampled_from(RAW_LINES)))
            continue
        if change == "value":
            k = draw(st.integers(0, len(pairs) - 1))
            pairs[k] = (pairs[k][0], draw(st.sampled_from(ODD)))
        elif change == "reorder":
            pairs = draw(st.permutations(pairs))
        elif change == "drop":
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        elif change == "extra":
            pairs.insert(draw(st.integers(0, len(pairs))), ("extra", "x"))
        elif change == "duplicate":
            pairs.append(draw(st.sampled_from(pairs)))
        comma, colon = (",", ":") if change == "separators" else (", ", ": ")
        encode = lambda value: json.dumps(value, ensure_ascii=change == "ascii")
        if change == "unescaped":  # may be invalid JSON, or read as another string
            encode = lambda value: f'"{value}"' if isinstance(value, str) else json.dumps(value)
            k = draw(st.integers(0, len(pairs) - 1))
            pairs[k] = (pairs[k][0], draw(st.sampled_from(ODD_TEXT)))
        body = comma.join(f'"{key}"{colon}{encode(value)}' for key, value in pairs)
        lead, trail = ("", "") if change != "pad" else draw(st.sampled_from(PADS))
        line = f"{lead}{{{body}}}{trail}"
        lines.append(line.encode("utf-8"))
    return b"\n".join(lines) + (b"\n" if lines and draw(st.booleans()) else b"")


@pytest.mark.parametrize(
    "fields, read",
    [(FIELDS, read_annotations), (("item_id", "attribute", "label"), read_prediction_rows)],
    ids=["annotations", "predictions"],
)
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), block=st.integers(1, 400))
def test_fast_reader_matches_the_per_line_path(tmp_path, fields, read, data, block):
    path = tmp_path / "f.jsonl"
    path.write_bytes(data.draw(jsonl_files(fields)))
    with mock.patch.object(storage, "_BLOCK", block):
        fast = read_outcome(read, path)
    assert fast == strict_outcome(read, path)
