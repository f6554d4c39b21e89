"""The interchange records, and the readers and writers of their files.

Labels are encoded as small integers: 1..L index into the attribute's
vocabulary, and 0 is reserved for "missing" (an annotator that never
labeled the item, or a label outside the vocabulary). Annotations,
predictions and products are JSONL (one object per line, UTF-8, LF); a
weights report is a single JSON document, and so are the schema, workers,
providers and synonyms files, which go through ``read_json``. Readers are
strict: unknown fields, missing fields, and wrong types are errors, never
coerced. The JSONL reader and the field-rule checker live in ``jsonl``;
the annotation matrix, with its file reader and writer ``read_matrix`` and
``write_matrix``, lives in ``core``. Nothing here loads numpy.
Writers emit a fixed key order and rely on Python's shortest-roundtrip
float formatting, so output is byte-deterministic for identical inputs
and floats survive a write/read cycle exactly. ``write_predictions``
joins at most ``_CHUNK`` lines per write, and ``write_annotations``
hands its lines to ``writelines``; ids and labels must be ``str``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cache, cached_property
from typing import Sequence

from .jsonl import (
    _ANNOTATION_HEAD, _ANNOTATION_SHAPE, _ANNOTATION_TAIL, _KINDS, _PREDICTION_HEAD,
    _PREDICTION_RULES, _PREDICTION_TAIL, _canon, _check_fields, _check_object, _read_jsonl, _row,
    _rules, prediction_columns,
)

# json.dumps(text, ensure_ascii=False) of a str: the C function its encoder calls.
_dumps = json.encoder.encode_basestring
_CHUNK = 1 << 16  # lines joined per write, so the writers' memory stays bounded

# An extended label: 0 = missing, 1..L = position in the vocabulary.
ExtendedLabel = int


class ConflictError(ValueError):
    """Two annotations for the same (annotator, item) pair disagree."""


@dataclass(frozen=True)
class AttributeSchema:
    """An attribute name plus its closed, ordered label vocabulary.

    Label names keep the case they were declared with; matching during
    encoding is trim- and case-insensitive. Encoded indices are 1-based
    so that 0 stays free for the missing sentinel.
    """

    attribute_name: str
    labels: tuple[str, ...]
    _RULES = _rules(attribute_name="a non-empty string", labels="an array of strings")

    def __init__(self, attribute_name: str, labels: Sequence[str]):
        labels = labels if isinstance(labels, str) else list(labels)  # one string is no array
        _check_fields({"attribute_name": attribute_name, "labels": labels}, self._RULES)
        object.__setattr__(self, "attribute_name", attribute_name.strip())
        object.__setattr__(self, "labels", tuple(l.strip() for l in labels))
        if len(self.labels) < 2:
            raise ValueError("a schema needs at least 2 labels")
        if any(not l for l in self.labels):
            raise ValueError("label names must be non-empty")
        if len({_canon(l) for l in self.labels}) != len(self.labels):
            raise ValueError(
                "label names must be distinct after trimming and case-folding"
            )

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {_canon(l): k for k, l in enumerate(self.labels, start=1)}


def encode_label(schema: AttributeSchema, raw: str) -> ExtendedLabel:
    """Map raw text to its 1-based label index, or 0 if out of vocabulary.

    Matching trims whitespace and case-folds; anything else (synonyms,
    punctuation stripping) is the caller's job. Unmatched input maps to
    missing rather than raising: free-text sources routinely produce
    values outside the vocabulary, and missingness is first-class here.
    """
    return schema._index.get(_canon(raw), 0)


class _Checked:
    """Base of a dataclass whose ``_RULES`` table checks its fields when it is built."""

    def __post_init__(self):
        _check_fields(vars(self), self._RULES)

    @classmethod
    @cache  # per class: the fields of a dataclass do not change
    def _required(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls) if f.default is f.default_factory)  # both MISSING

    @classmethod
    def _from_json(cls, obj):
        """Build one from a parsed JSON object, naming a missing or unknown field."""
        _check_object(obj, cls._required(), cls._RULES)
        return cls(**obj)


@dataclass(frozen=True)
class AnnotationRecord(_Checked):
    """One annotator's raw label for one item: the interchange unit."""

    annotator_id: str
    item_id: str
    attribute: str
    raw_label: str
    _RULES = _rules(
        annotator_id="a non-empty string", item_id="a non-empty string",
        attribute="a non-empty string", raw_label="a non-empty string",
    )

    def __iter__(self):
        """Unpack as the row ``build_matrix`` reads: the four fields in order."""
        return iter((self.annotator_id, self.item_id, self.attribute, self.raw_label))


@dataclass(frozen=True)
class ProductText(_Checked):
    """Unstructured text for one item: the extraction input."""

    item_id: str
    title: str
    description: str = ""
    _RULES = _rules(item_id="a non-empty string", title="a non-empty string",
                    description="a string")


@dataclass(frozen=True)
class PredictionRecord(_Checked):
    """One consensus label as stored on disk; label None means abstention."""

    item_id: str
    attribute: str
    label: str | None
    _RULES = _PREDICTION_RULES


@dataclass(frozen=True)
class WeightsReport(_Checked):
    """Persisted form of a run's learned weights and accuracy estimates, all finite floats."""

    attribute: str
    weights: dict[str, float]
    accuracies: dict[str, float]
    iterations_run: int
    converged: bool
    _RULES = _rules(
        attribute="a non-empty string", weights="an object", accuracies="an object",
        iterations_run="an integer >= 0", converged="a boolean",
    )

    def __post_init__(self):
        super().__post_init__()
        for name in ("weights", "accuracies"):
            values = getattr(self, name)
            for key, value in values.items():
                if not _KINDS["a number"](value) or not math.isfinite(value):
                    raise ValueError(f"{name}[{key!r}] must be a finite number")
            object.__setattr__(self, name, {k: float(v) for k, v in values.items()})
        if set(self.weights) != set(self.accuracies):
            raise ValueError("weights and accuracies must cover the same annotators")
        for annotator, value in self.accuracies.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"accuracy for {annotator!r} outside [0, 1]: {value}")


def read_json(path, make=lambda document: document):
    """``make`` of the JSON document at ``path``; any ValueError reads ``path: reason``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return make(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{path}: {exc}") from exc


def _entries(document, make, name: str) -> list:
    """``make`` of each entry of a non-empty JSON array, by distinct ``{name}_id``s;
    an error, a repeated id included, reads ``{name} #n: reason``."""
    if not isinstance(document, list) or not document:
        raise ValueError(f"expected a non-empty JSON array of {name}s")
    made = {}  # by {name}_id, in file order
    for n, entry in enumerate(document, start=1):
        try:
            value = make(entry)
            key = getattr(value, f"{name}_id")
            if made.setdefault(key, value) is not value:
                raise ValueError(f"duplicate {name}_id {key!r}")
        except ValueError as exc:
            raise ValueError(f"{name} #{n}: {exc}") from exc
    return list(made.values())


def read_annotations(path) -> list[AnnotationRecord]:
    """Read annotation records from JSONL, preserving file order.

    An empty file is valid and yields an empty list; any malformed line
    raises with its line number.
    """
    return [AnnotationRecord(*row) for row in _annotation_rows(path)]


def _annotation_rows(path):
    """The file's rows as tuples, checked as ``AnnotationRecord`` checks them."""
    return _read_jsonl(path, _row(AnnotationRecord._RULES), _ANNOTATION_SHAPE.findall)


def write_annotations(path, records: Sequence[AnnotationRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            _ANNOTATION_HEAD % _dumps(r.annotator_id) + _dumps(r.item_id)
            + _ANNOTATION_TAIL % (_dumps(r.attribute), _dumps(r.raw_label))
            for r in records
        )


def _write_lines(fh, head, texts, tails, values):
    """Write ``head + text + tails[value]`` for each pair of ``texts`` and ``values``."""
    # Slice assignment fills the parts in C: half the time of a str per line.
    parts = [head] * (3 * len(values))
    parts[1::3] = texts
    parts[2::3] = map(tails.__getitem__, values)
    fh.write("".join(parts))


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
    if len(predictions) and not 0 <= min(predictions) <= max(predictions) <= len(schema.labels):
        raise ValueError(f"encoded labels must lie in 0..{len(schema.labels)}")
    attribute = _dumps(schema.attribute_name)
    labels = ["null", *map(_dumps, schema.labels)]  # indexed by encoded label
    tails = [_PREDICTION_TAIL % (attribute, label) for label in labels]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k in range(0, len(item_ids), _CHUNK):
            texts = map(_dumps, item_ids[k : k + _CHUNK])
            _write_lines(fh, _PREDICTION_HEAD, texts, tails, predictions[k : k + _CHUNK])


def read_predictions(path) -> list[PredictionRecord]:
    """Read a predictions (or ground-truth) JSONL file, preserving order."""
    return [PredictionRecord(*row) for block in prediction_columns(path) for row in zip(*block)]


def read_products(path) -> list[ProductText]:
    """Read product texts from JSONL: item_id, title, optional description.

    A repeated ``item_id`` raises ValueError ``path:line:`` at the repeat.
    """
    products = {}
    lines = _read_jsonl(path, ProductText._from_json)
    for line_no, product in enumerate(lines, start=1):
        if products.setdefault(product.item_id, product) is not product:
            raise ValueError(f"{path}:{line_no}: duplicate item_id {product.item_id!r}")
    return list(products.values())


def write_weights(path, report: WeightsReport) -> None:
    """Write a weights report as one indented JSON document."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(report), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def read_weights(path) -> WeightsReport:
    """Read a weights report, rejecting any deviation from the schema."""
    return read_json(path, WeightsReport._from_json)
