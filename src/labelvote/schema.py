"""Attribute vocabularies, label encoding, and the records that carry labels.

Labels are encoded as small integers: 1..L index into the attribute's
vocabulary, and 0 is reserved for "missing" (an annotator that never
labeled the item, or a label outside the vocabulary). Nothing here needs
numpy; the annotation matrix lives in ``core``, the field-rule checker in ``jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import Sequence

from .jsonl import _canon, _check_fields, _check_object, _rules

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
