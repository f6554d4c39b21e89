"""Readers and writers for the interchange files.

Annotations, predictions and products are JSONL (one object per line,
UTF-8, LF); a weights report is a single JSON document, and so are the
schema, workers, providers and synonyms files, which go through
``read_json``. Readers are strict: unknown fields, missing fields, and
wrong types are errors, never coerced.
Annotation and prediction files are read in blocks of about 16 KiB: a
block whose lines all have the writers' exact shape is split by one
compiled pattern, any other goes line by line through ``json.loads``.
Any line ``json.loads`` accepts reads the same either way, and errors
keep their text and line number. ``labelvote evaluate`` reads
(item_id, attribute, label) rows and builds no ``PredictionRecord``.
Writers emit a fixed key order and rely on Python's shortest-roundtrip
float formatting, so output is byte-deterministic for identical inputs
and floats survive a write/read cycle exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import astuple, dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .core import (
    AnnotationMatrix, AnnotationRecord, AttributeSchema, ExtendedLabel, ProductText, build_matrix
)

_ANNOTATION_FIELDS = ("annotator_id", "item_id", "attribute", "raw_label")
# JSONL line templates: filled with each value's _dumps, a line is json.dumps of its object.
_ANNOTATION_HEAD = '{"annotator_id": %s, "item_id": '
_ANNOTATION_TAIL = ', "attribute": %s, "raw_label": %s}\n'
_PREDICTION_LINE = '{"item_id": %s, "attribute": %s, "label": %s}\n'
_PREDICTION_FIELDS = ("item_id", "attribute", "label")
_WEIGHTS_FIELDS = ("attribute", "weights", "accuracies", "iterations_run", "converged")
# json.dumps(value, ensure_ascii=False), without a new encoder per call.
_dumps = json.JSONEncoder(ensure_ascii=False).encode

# The writers' line shapes, one match per line. A string slot holds no '"',
# '\', control character or blank text (\s is what str.strip() strips), so
# it is what json.loads returns; a null label leaves the slot's group empty.
_STRING = r'"(?!\s*")([^"\\\x00-\x1f]*)"'
_ANNOTATION_SHAPE = re.compile(
    "^" + re.escape(_ANNOTATION_HEAD + "%s" + _ANNOTATION_TAIL[:-1]) % ((_STRING,) * 4) + "$", re.M
)
_PREDICTION_SHAPE = re.compile(
    "^" + re.escape(_PREDICTION_LINE[:-1]) % (_STRING, _STRING, f"(?:{_STRING}|null)") + "$", re.M
)
_BLOCK = 1 << 14  # bytes; a block's rows live at once: 1 MiB blocks cost ~9 MiB of RSS


@dataclass(frozen=True)
class PredictionRecord:
    """One consensus label as stored on disk; label None means abstention."""

    item_id: str
    attribute: str
    label: str | None

    def __post_init__(self):
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError("field 'label' must be a string or null")


@dataclass(frozen=True)
class WeightsReport:
    """Persisted form of a run's learned weights and accuracy estimates."""

    attribute: str
    weights: dict[str, float]
    accuracies: dict[str, float]
    iterations_run: int
    converged: bool

    def __post_init__(self):
        if set(self.weights) != set(self.accuracies):
            raise ValueError("weights and accuracies must cover the same annotators")
        for annotator, value in self.accuracies.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"accuracy for {annotator!r} outside [0, 1]: {value}")

    @classmethod
    def from_state(cls, attribute, annotator_ids, state) -> "WeightsReport":
        """Pair an EnsembleState's vectors with their annotator ids."""
        return cls(
            attribute=attribute,
            weights=dict(zip(annotator_ids, state.weights)),
            accuracies=dict(zip(annotator_ids, state.accuracies)),
            iterations_run=state.iterations_run,
            converged=state.converged,
        )


def _check_object(obj, fields, optional=(), text=()) -> None:
    """Raise ValueError unless ``obj`` is an object with every field of
    the tuple ``fields``, no field outside ``fields`` and ``optional``,
    and a non-blank string in each field of ``text``."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if tuple(obj) != fields:  # our writers' key order: the common case
        missing = [f for f in fields if f not in obj]
        if missing:
            raise ValueError(f"missing field(s) {', '.join(missing)}")
        unknown = [k for k in obj if k not in fields and k not in optional]
        if unknown:
            raise ValueError(f"unknown field(s) {', '.join(unknown)}")
    for name in text:
        value = obj[name]
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"field {name!r} must be a non-empty string")


def _read_jsonl(path, make, fields, optional=(), text=(), shape=None):
    """Yield ``make(obj)`` for each line's object, in file order.

    A line that is not UTF-8, blank or malformed, or a ValueError from
    ``make``, raises ValueError prefixed ``path:line:``. Lines come in
    blocks of about ``_BLOCK`` bytes. Given a ``shape`` (block text -> the
    rows ``make`` would build), a block that decodes and has a row for
    each line skips the per-line parse.
    """
    with open(path, "rb") as fh:
        first = 1
        while lines := fh.readlines(_BLOCK):
            try:
                rows = shape(b"".join(lines).decode("utf-8")) if shape else ()
            except UnicodeDecodeError:
                rows = ()
            yield from rows if len(rows) == len(lines) else _parse_lines(
                path, lines, first, make, fields, optional, text
            )
            first += len(lines)


def _parse_lines(path, lines, first, make, fields, optional, text):
    """The per-line path, numbering ``lines`` from ``first``."""
    for line_no, line in enumerate(lines, start=first):
        try:
            line = line.decode("utf-8")
            if not line.strip():
                raise ValueError("blank line")
            obj = json.loads(line)
            _check_object(obj, fields, optional, text)
            yield make(obj)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc


def read_json(path):
    """Load a whole JSON document; invalid JSON raises ValueError ``path: reason``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def read_annotations(path) -> list[AnnotationRecord]:
    """Read annotation records from JSONL, preserving file order.

    An empty file is valid and yields an empty list; any malformed line
    raises with its line number.
    """
    return [AnnotationRecord(*row) for row in _annotation_rows(path)]


def read_matrix(path, schema: AttributeSchema) -> AnnotationMatrix:
    """``build_matrix(schema, read_annotations(path))`` without the records."""
    return build_matrix(schema, _annotation_rows(path))


def _annotation_rows(path):
    fields = _ANNOTATION_FIELDS
    return _read_jsonl(path, itemgetter(*fields), fields, (), fields, _ANNOTATION_SHAPE.findall)


def write_annotations(path, records: Sequence[AnnotationRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            _ANNOTATION_HEAD % _dumps(r.annotator_id) + _dumps(r.item_id)
            + _ANNOTATION_TAIL % (_dumps(r.attribute), _dumps(r.raw_label))
            for r in records
        )


def write_matrix(path, matrix: AnnotationMatrix) -> None:
    """``write_annotations(path, matrix.to_records())`` without the records:
    a line is a head per annotator, the item id and a tail per label."""
    heads = [_ANNOTATION_HEAD % _dumps(a) for a in matrix.annotator_ids]
    item_ids = [_dumps(j) for j in matrix.item_ids]
    attribute = _dumps(matrix.schema.attribute_name)
    tails = [_ANNOTATION_TAIL % (attribute, _dumps(l)) for l in matrix.schema.labels]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            heads[i] + item_ids[j] + tails[v - 1] for i, j, v in matrix._annotator_major()
        )


def write_predictions(
    path,
    item_ids: Sequence[str],
    predictions: Sequence[ExtendedLabel],
    schema: AttributeSchema,
) -> None:
    """Write consensus labels as JSONL; abstentions serialize as null."""
    if len(item_ids) != len(predictions):
        raise ValueError(
            f"length mismatch: {len(item_ids)} item ids vs {len(predictions)} predictions"
        )
    codes = np.asarray(predictions)
    if codes.size and not 0 <= codes.min() <= codes.max() <= len(schema.labels):
        raise ValueError(f"encoded labels must lie in 0..{len(schema.labels)}")
    attribute = _dumps(schema.attribute_name)
    labels = ["null", *map(_dumps, schema.labels)]  # indexed by encoded label
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            _PREDICTION_LINE % (_dumps(item_id), attribute, labels[value])
            for item_id, value in zip(item_ids, predictions)
        )


def read_predictions(path) -> list[PredictionRecord]:
    """Read a predictions (or ground-truth) JSONL file, preserving order."""
    return [PredictionRecord(*row) for row in read_prediction_rows(path)]


def read_prediction_rows(path) -> list[tuple[str, str, str | None]]:
    """``read_predictions`` as (item_id, attribute, label) tuples."""
    make = lambda obj: astuple(PredictionRecord(**obj))  # only on lines the pattern skips
    shape = lambda text: [(i, a, label or None) for i, a, label in _PREDICTION_SHAPE.findall(text)]
    return list(_read_jsonl(path, make, _PREDICTION_FIELDS, (), _PREDICTION_FIELDS[:2], shape))


def read_products(path) -> list[ProductText]:
    """Read product texts from JSONL: item_id, title, optional description."""
    fields = ("item_id", "title")
    return list(_read_jsonl(path, lambda obj: ProductText(**obj), fields, ("description",), fields))


def write_weights(path, report: WeightsReport) -> None:
    """Write a weights report as one indented JSON document."""
    document = {
        "attribute": report.attribute,
        "weights": report.weights,
        "accuracies": report.accuracies,
        "iterations_run": report.iterations_run,
        "converged": report.converged,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def read_weights(path) -> WeightsReport:
    """Read a weights report, rejecting any deviation from the schema."""
    obj = read_json(path)
    try:
        _check_object(obj, _WEIGHTS_FIELDS, text=("attribute",))
        for name in ("weights", "accuracies"):
            mapping = obj[name]
            if not isinstance(mapping, dict):
                raise ValueError(f"{name!r} must be an object")
            for key, value in mapping.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"{name}[{key!r}] must be a number")
        iterations = obj["iterations_run"]
        if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 0:
            raise ValueError("'iterations_run' must be an integer >= 0")
        if not isinstance(obj["converged"], bool):
            raise ValueError("'converged' must be a boolean")
        return WeightsReport(
            attribute=obj["attribute"],
            weights={k: float(v) for k, v in obj["weights"].items()},
            accuracies={k: float(v) for k, v in obj["accuracies"].items()},
            iterations_run=iterations,
            converged=obj["converged"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
