"""Attribute vocabularies, label encoding, and the records that carry labels.

Labels are encoded as small integers: 1..L index into the attribute's
vocabulary, and 0 is reserved for "missing" (an annotator that never
labeled the item, or a label outside the vocabulary). Nothing here needs
numpy; the annotation matrix lives in ``core``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

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


# Field kinds, worded as their messages word them. A bool is never an integer or a number.
_KINDS = {
    "a non-empty string": lambda v: isinstance(v, str) and v.strip() != "",
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "an object": lambda v: isinstance(v, Mapping),
    "an object of string pairs": lambda v: isinstance(v, Mapping)
        and all(isinstance(s, str) for s in (*v, *v.values())),
    "an array of strings": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _rules(**rules: str) -> dict:
    """A table for ``_check_fields``, keyed by field name: per field, a kind
    of ``_KINDS`` and any bounds, as ``timeout="a number > 0 and <= 86400"``."""
    table = {}
    for name, rule in rules.items():
        kind, *bounds = re.split(r" (?:and )?(?=[<>])", rule)
        limits = [(_BOUNDS[op], float(x)) for op, x in map(str.split, bounds)]
        table[name] = _KINDS[kind], limits, f"field {name!r} must be {rule}"
    return table


def _check_fields(values: Mapping[str, object], rules: dict) -> None:
    """Raise ValueError for the first field of ``rules`` whose value breaks its
    rule. A bounded value must be finite, so NaN and Infinity fail every bound."""
    for name, (is_kind, limits, message) in rules.items():
        value = values[name]
        if not is_kind(value) or limits and not (
            -math.inf < value < math.inf and all(within(value, x) for within, x in limits)
        ):
            raise ValueError(message)


class _Checked:
    """Base of a dataclass whose ``_RULES`` table checks its fields when it is built."""

    def __post_init__(self):
        _check_fields(vars(self), self._RULES)


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
