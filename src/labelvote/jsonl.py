"""The field-rule checker and the strict JSONL reader: a leaf module, all that
``labelvote evaluate`` loads, importing neither numpy nor ``dataclasses``."""

from __future__ import annotations

import json
import math
import operator
import re
from itertools import chain
from typing import Mapping


def _canon(text: str) -> str:
    return text.strip().casefold()


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


def _check_object(obj, fields, optional=()) -> None:
    """Raise ValueError unless ``obj`` is an object with every field of ``fields``
    (names, or a rule table) and no field outside ``fields`` and ``optional``."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    missing = [f for f in fields if f not in obj]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    unknown = [k for k in obj if k not in fields and k not in optional]
    if unknown:
        raise ValueError(f"unknown field(s) {', '.join(map(str, unknown))}")


def _row(rules: dict):
    """A reader's ``make`` for an object of exactly the fields of ``rules``: their values."""
    def make(obj) -> tuple:
        _check_object(obj, rules)
        _check_fields(obj, rules)
        return tuple(obj[name] for name in rules)

    return make


# JSONL line templates: filled with each value's json.dumps, a line is json.dumps of its object.
_ANNOTATION_HEAD = '{"annotator_id": %s, "item_id": '
_ANNOTATION_TAIL = ', "attribute": %s, "raw_label": %s}\n'
_PREDICTION_HEAD = '{"item_id": '
_PREDICTION_TAIL = ', "attribute": %s, "label": %s}\n'

# The writers' line shapes, one match per line. A string slot holds no '"',
# '\', control character or blank text (\s is what str.strip() strips), so
# it is what json.loads returns; a null label leaves the slot's group empty.
_TEXT = r'(?!\s*")[^"\\\x00-\x1f]*'
_STRING = f'"({_TEXT})"'
_ANNOTATION_SHAPE = re.compile(
    "^" + re.escape(_ANNOTATION_HEAD + "%s" + _ANNOTATION_TAIL[:-1]) % ((_STRING,) * 4) + "$", re.M
)
_PREDICTION_SHAPE = re.compile(
    "^" + re.escape(_PREDICTION_HEAD + "%s" + _PREDICTION_TAIL[:-1])
    % (_STRING, _STRING, f"(?:{_STRING}|null)") + "$", re.M
)
_BLOCK = 1 << 14  # bytes; a block's rows live at once: 1 MiB blocks cost ~9 MiB of RSS
_PREDICTION_RULES = _rules(item_id="a non-empty string", attribute="a non-empty string",
                           label="a string or null")


def _read_jsonl(path, make, shape=None):
    """Yield ``make(obj)`` for each line's parsed JSON, in file order.

    A line that is not UTF-8, blank or malformed, or a ValueError from
    ``make``, raises ValueError prefixed ``path:line:``. Lines come in
    blocks of about ``_BLOCK`` bytes. Given a ``shape`` (block text -> the
    rows ``make`` would build), a block that decodes and has a row for
    each line skips the per-line parse.
    """
    return chain.from_iterable(rows for _, rows in _row_blocks(path, make, shape))


def _row_blocks(path, make, shape):
    """``_read_jsonl``'s rows a block at a time: (read by ``shape``?, rows)."""
    with open(path, "rb") as fh:
        first = 1
        while lines := fh.readlines(_BLOCK):
            try:
                rows = shape(b"".join(lines).decode("utf-8")) if shape else ()
            except UnicodeDecodeError:
                rows = ()
            shaped = len(rows) == len(lines)
            yield shaped, rows if shaped else _parse_lines(path, lines, first, make)
            first += len(lines)


def _parse_lines(path, lines, first, make):
    """The per-line path, numbering ``lines`` from ``first``."""
    for line_no, line in enumerate(lines, start=first):
        try:
            line = line.decode("utf-8")
            if not line.strip():
                raise ValueError("blank line")
            yield make(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc


def prediction_columns(path):
    """A predictions (or ground-truth) JSONL file a block at a time, as its
    (item_ids, attributes, labels) columns, checked as ``PredictionRecord``
    checks them but building none."""
    for shaped, rows in _row_blocks(path, _row(_PREDICTION_RULES), _PREDICTION_SHAPE.findall):
        ids, attributes, labels = zip(*rows)
        # The shape reads null as "", which it never reads as a value.
        if shaped and "" in labels:
            labels = tuple(label or None for label in labels)
        yield ids, attributes, labels
