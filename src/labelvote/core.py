"""Attribute vocabularies, label encoding, and the sparse annotation matrix.

Labels are encoded as small integers: 1..L index into the attribute's
vocabulary, and 0 is reserved for "missing" (an annotator that never
labeled the item, or a label outside the vocabulary). The annotation
matrix stores only the non-missing entries, as three parallel int arrays
(annotator index, item index, label) sorted item-major; a pair absent
from the arrays is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

# An extended label: 0 = missing, 1..L = position in the vocabulary.
ExtendedLabel = int


class ConflictError(ValueError):
    """Two annotations for the same (annotator, item) pair disagree."""


def _canon(text: str) -> str:
    return text.strip().casefold()


@dataclass(frozen=True)
class AttributeSchema:
    """An attribute name plus its closed, ordered label vocabulary.

    Label names keep the case they were declared with; matching during
    encoding is trim- and case-insensitive. Encoded indices are 1-based
    so that 0 stays free for the missing sentinel.
    """

    attribute_name: str
    labels: tuple[str, ...]

    def __init__(self, attribute_name: str, labels: Sequence[str]):
        object.__setattr__(self, "attribute_name", attribute_name.strip())
        object.__setattr__(self, "labels", tuple(l.strip() for l in labels))
        if not self.attribute_name:
            raise ValueError("attribute_name must be non-empty")
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


def decode_label(schema: AttributeSchema, value: ExtendedLabel) -> str | None:
    """Inverse of :func:`encode_label`: canonical label name, or None for 0."""
    if not 0 <= value <= schema.n_labels:
        raise ValueError(f"encoded label {value} out of range 0..{schema.n_labels}")
    return None if value == 0 else schema.labels[value - 1]


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotator's raw label for one item: the interchange unit."""

    annotator_id: str
    item_id: str
    attribute: str
    raw_label: str

    def __post_init__(self):
        for name in ("annotator_id", "item_id", "attribute", "raw_label"):
            if not str(getattr(self, name)).strip():
                raise ValueError(f"AnnotationRecord.{name} must be non-empty")

    def __iter__(self):
        """Unpack as the row ``build_matrix`` reads: the four fields in order."""
        return iter((self.annotator_id, self.item_id, self.attribute, self.raw_label))


@dataclass(frozen=True)
class ProductText:
    """Unstructured text for one item: the extraction input."""

    item_id: str
    title: str
    description: str = ""

    def __post_init__(self):
        if not self.item_id.strip():
            raise ValueError("item_id must be non-empty")
        if not self.title.strip():
            raise ValueError("title must be non-empty")
        if not isinstance(self.description, str):
            raise ValueError("field 'description' must be a string")


@dataclass(frozen=True, eq=False)
class AnnotationMatrix:
    """Sparse N x P matrix of encoded labels over one attribute.

    The observed entries are three parallel read-only int arrays:
    ``annotators`` (index), ``items`` (index) and ``labels`` (1..L), one
    entry per observed pair; an absent pair is unobserved (value 0). They
    are sorted item-major with annotators ascending inside each item:
    summing an item's votes in that order reproduces a dense loop's float
    sums, so ties resolve the same way. Instances are immutable after
    construction and safe to share across threads.

    ``entries`` is a mapping {(annotator, item): label} or the three
    columns in any order. Repeats of a pair collapse to its first entry
    when they agree; when they disagree, ConflictError names the first
    entry that contradicts an earlier one.
    """

    schema: AttributeSchema
    annotator_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    annotators: np.ndarray
    items: np.ndarray
    labels: np.ndarray

    def __init__(
        self,
        schema: AttributeSchema,
        annotator_ids: Sequence[str],
        item_ids: Sequence[str],
        entries: Mapping[tuple[int, int], ExtendedLabel] | tuple,
    ):
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "annotator_ids", tuple(annotator_ids))
        object.__setattr__(self, "item_ids", tuple(item_ids))
        if len(set(self.annotator_ids)) != len(self.annotator_ids):
            raise ValueError("duplicate annotator ids")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError("duplicate item ids")
        if isinstance(entries, Mapping):
            entries = ([i for i, _ in entries], [j for _, j in entries], list(entries.values()))
        annotators, items, labels = (np.array(c, dtype=np.intp) for c in entries)
        if labels.ndim != 1 or not annotators.shape == items.shape == labels.shape:
            raise ValueError("entry columns must be 1-D and equally long")
        n, p, n_labels = len(self.annotator_ids), len(self.item_ids), schema.n_labels
        bad = (annotators < 0) | (annotators >= n) | (items < 0) | (items >= p)
        bad |= (labels < 1) | (labels > n_labels)
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(
                f"entry ({annotators[k]}, {items[k]}) = {labels[k]} is outside "
                f"{n} annotators x {p} items x labels 1..{n_labels}"
            )
        _, first, pair = np.unique(
            items * n + annotators, return_index=True, return_inverse=True
        )
        earlier = labels[first][pair]
        conflicts = np.flatnonzero(earlier != labels)
        if conflicts.size:
            k = conflicts[0]
            raise ConflictError(
                f"conflicting labels for annotator {self.annotator_ids[annotators[k]]!r} "
                f"on item {self.item_ids[items[k]]!r}: "
                f"{schema.labels[earlier[k] - 1]!r} vs {schema.labels[labels[k] - 1]!r}"
            )
        for name, column in (("annotators", annotators), ("items", items), ("labels", labels)):
            column = column[first]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other):
        if not isinstance(other, AnnotationMatrix):
            return NotImplemented
        return self._content() == other._content()

    def _content(self):
        columns = (self.annotators, self.items, self.labels)
        return (self.schema, self.annotator_ids, self.item_ids, *(c.tobytes() for c in columns))

    @property
    def n_annotators(self) -> int:
        return len(self.annotator_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def observed_count(self) -> int:
        return len(self.labels)

    @cached_property
    def entries(self) -> Mapping[tuple[int, int], ExtendedLabel]:
        """Read-only {(annotator, item): label} view, built on first use."""
        pairs = zip(self.annotators.tolist(), self.items.tolist())
        return MappingProxyType(dict(zip(pairs, self.labels.tolist())))

    def label_for(self, annotator: int, item: int) -> ExtendedLabel:
        return self.entries.get((annotator, item), 0)

    @cached_property
    def by_item(self) -> tuple[tuple[tuple[int, ExtendedLabel], ...], ...]:
        """Per-item vote lists: by_item[j] = ((annotator index, label), ...)."""
        return self._grouped(self.items, self.n_items, self.annotators)

    @cached_property
    def by_annotator(self) -> tuple[tuple[tuple[int, ExtendedLabel], ...], ...]:
        """Per-annotator label lists: by_annotator[i] = ((item index, label), ...)."""
        return self._grouped(self.annotators, self.n_annotators, self.items)

    def _grouped(self, major, size, minor):
        order = np.lexsort((minor, major))
        pairs = list(zip(minor[order].tolist(), self.labels[order].tolist()))
        ends = np.cumsum(np.bincount(major, minlength=size)).tolist()
        return tuple(tuple(pairs[lo:hi]) for lo, hi in zip([0] + ends, ends))

    def to_records(self) -> list[AnnotationRecord]:
        """Decode stored entries back to records, annotator-major order."""
        attribute, names = self.schema.attribute_name, self.schema.labels
        return [
            AnnotationRecord(self.annotator_ids[i], self.item_ids[j], attribute, names[v - 1])
            for i, j, v in self._annotator_major()
        ]

    def _annotator_major(self):
        """(annotator, item, label) index triples in ``to_records`` order."""
        order = np.lexsort((self.items, self.annotators))
        return zip(*(c[order].tolist() for c in (self.annotators, self.items, self.labels)))


def build_matrix(
    schema: AttributeSchema, records: Iterable[AnnotationRecord | tuple]
) -> AnnotationMatrix:
    """Assemble an annotation matrix from records for one attribute.

    A record may also be an (annotator_id, item_id, attribute, raw_label)
    tuple, as ``storage.read_matrix`` streams them. Annotator and item
    orderings are first-appearance order among records that carry an
    in-vocabulary label. Records whose raw_label encodes to
    missing contribute nothing at all (not even id registration), so an
    out-of-vocabulary record is indistinguishable from an omitted one.
    Agreeing duplicates of an (annotator, item) pair collapse to one entry.

    Raises ConflictError when the same (annotator, item) pair carries two
    different in-vocabulary labels, naming the first contradicting record;
    a silent overwrite would corrupt every downstream accuracy estimate.
    A record of another attribute raises ValueError once the rest are read,
    unless reading them fails or a conflict precedes it.
    """
    annotator_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    codes: dict[str, ExtendedLabel] = {}
    annotators: list[int] = []
    items: list[int] = []
    labels: list[ExtendedLabel] = []
    rows = iter(records)
    for annotator_id, item_id, attribute, raw_label in rows:
        if attribute != schema.attribute_name:
            list(rows)  # read the rest first: see the docstring
            AnnotationMatrix(
                schema, tuple(annotator_index), tuple(item_index), (annotators, items, labels)
            )
            raise ValueError(
                f"record attribute {attribute!r} does not match "
                f"schema attribute {schema.attribute_name!r}"
            )
        value = codes.get(raw_label)
        if value is None:
            value = codes[raw_label] = encode_label(schema, raw_label)
        if value == 0:
            continue
        annotators.append(annotator_index.setdefault(annotator_id, len(annotator_index)))
        items.append(item_index.setdefault(item_id, len(item_index)))
        labels.append(value)

    return AnnotationMatrix(
        schema, tuple(annotator_index), tuple(item_index), (annotators, items, labels)
    )
