"""The sparse annotation matrix over one attribute, and its builder.

The matrix stores only the non-missing entries, as three parallel int
arrays (annotator index, item index, label) sorted item-major; a pair
absent from the arrays is 0, the missing label. The numpy-free schema,
label encoding and records live in ``schema`` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .schema import (  # noqa: F401  (re-exported)
    AnnotationRecord, AttributeSchema, ConflictError, ExtendedLabel, ProductText, _canon,
    decode_label, encode_label)


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
        annotators, items, labels = (np.asarray(c, dtype=np.intp) for c in entries)
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
        # A stable sort keeps a pair's repeats in input order, so the first
        # entry of each run of equal keys is the pair's first entry.
        keys = items * n + annotators
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        del keys
        if not first.all():
            earlier = np.empty_like(labels)
            earlier[order] = labels[order[first]][np.cumsum(first) - 1]
            conflicts = np.flatnonzero(earlier != labels)
            if conflicts.size:
                k = conflicts[0]
                raise ConflictError(
                    f"conflicting labels for annotator {self.annotator_ids[annotators[k]]!r} "
                    f"on item {self.item_ids[items[k]]!r}: "
                    f"{schema.labels[earlier[k] - 1]!r} vs {schema.labels[labels[k] - 1]!r}"
                )
        keep = order[first]
        for name, column in (("annotators", annotators), ("items", items), ("labels", labels)):
            column = column[keep]
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
            for i, items, labels in self._annotator_runs()
            for j, v in zip(items.tolist(), labels.tolist())
        ]

    def _annotator_runs(self):
        """Yield (annotator, items, labels) for each annotator in index
        order, its items ascending: the ``to_records`` order."""
        # Entries are item-major with annotators ascending inside each item,
        # so a stable sort by annotator leaves each one's items ascending.
        order = np.argsort(self.annotators, kind="stable")
        ends = np.cumsum(np.bincount(self.annotators, minlength=self.n_annotators)).tolist()
        for i, (lo, hi) in enumerate(zip([0, *ends], ends)):
            run = order[lo:hi]
            yield i, self.items[run], self.labels[run]


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
