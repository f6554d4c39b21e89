"""The annotation matrix over one attribute, its builders, and its file I/O.

The matrix is one ``annotators x items`` array of cells, each an encoded
label with 0 for a missing one. ``build_matrix`` builds one from records
or rows, numbered as ``ensemble`` numbers them. ``read_matrix`` reads a
regular file of the writers' exact lines column-wise in numpy, and any other
input row by row; ``write_matrix`` writes one. The numpy-free schema, label
encoding, records and their files are in ``storage``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .jsonl import _ANNOTATION_HEAD, _ANNOTATION_TAIL, _TEXT
from .storage import AnnotationRecord, AttributeSchema, ExtendedLabel, encode_label
from .storage import _CHUNK, _annotation_rows, _dumps, _write_lines


@dataclass(frozen=True, eq=False)
class AnnotationMatrix:
    """N x P matrix of encoded labels over one attribute.

    ``cells`` is one read-only (N, P) array of labels 1..L in the smallest
    dtype that holds L, with 0 where a pair is unobserved: one byte per
    pair while L <= 255. Row-major, it walks annotator-major with items
    ascending, so each item receives its votes in ascending annotator
    order, as a dense loop sums them. Instances are immutable after
    construction and safe to share across threads.

    ``entries`` is a mapping {(annotator, item): label}, the three columns
    (annotators, items, labels) in any order, or the cells as an (N, P)
    integer array. Repeats of a pair collapse when they agree; when they
    disagree, ConflictError names the first entry that contradicts an
    earlier one.
    """

    schema: AttributeSchema
    annotator_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    cells: np.ndarray

    def __init__(
        self,
        schema: AttributeSchema,
        annotator_ids: Sequence[str],
        item_ids: Sequence[str],
        entries: Mapping[tuple[int, int], ExtendedLabel] | tuple | np.ndarray,
    ):
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "annotator_ids", tuple(annotator_ids))
        object.__setattr__(self, "item_ids", tuple(item_ids))
        if len(set(self.annotator_ids)) != len(self.annotator_ids):
            raise ValueError("duplicate annotator ids")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError("duplicate item ids")
        n, p, n_labels = len(self.annotator_ids), len(self.item_ids), schema.n_labels
        dtype = np.min_scalar_type(n_labels)
        if isinstance(entries, np.ndarray):
            if entries.shape != (n, p) or entries.dtype.kind not in "iu":
                raise ValueError(f"cells must be an integer array of shape ({n}, {p})")
            if entries.size and not 0 <= entries.min() <= entries.max() <= n_labels:
                raise ValueError(f"cells must hold labels 0..{n_labels}")
            cells = entries.astype(dtype)
        else:
            if isinstance(entries, Mapping):
                entries = ([i for i, _ in entries], [j for _, j in entries], list(entries.values()))
            annotators, items, labels = (np.asarray(c, dtype=np.intp) for c in entries)
            if labels.ndim != 1 or not annotators.shape == items.shape == labels.shape:
                raise ValueError("entry columns must be 1-D and equally long")
            bad = (annotators < 0) | (annotators >= n) | (items < 0) | (items >= p)
            bad |= (labels < 1) | (labels > n_labels)
            if bad.any():
                k = int(bad.argmax())
                raise ValueError(
                    f"entry ({annotators[k]}, {items[k]}) = {labels[k]} is outside "
                    f"{n} annotators x {p} items x labels 1..{n_labels}"
                )
            labels, keys = labels.astype(dtype), annotators * p + items
            cells = np.zeros((n, p), dtype)
            # Repeats land in no fixed order, so a cell unlike one of its labels marks a conflict.
            cells.ravel()[keys] = labels
            if (cells.ravel()[keys] != labels).any():  # _cells names the conflict
                from .ensemble import _cells

                columns = (annotators.tolist(), items.tolist(), labels.tolist())
                _cells(schema, self.annotator_ids, self.item_ids, columns)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other):
        if not isinstance(other, AnnotationMatrix):
            return NotImplemented
        return self._content() == other._content()

    def _content(self):
        return (self.schema, self.annotator_ids, self.item_ids, self.cells.tobytes())

    @property
    def n_annotators(self) -> int:
        return len(self.annotator_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def observed_count(self) -> int:
        return int(self._counts.sum())

    def label_for(self, annotator: int, item: int) -> ExtendedLabel:
        inside = 0 <= annotator < self.n_annotators and 0 <= item < self.n_items
        return int(self.cells[annotator, item]) if inside else 0  # no wrap-round of -1

    @cached_property
    def by_item(self) -> tuple[tuple[tuple[int, ExtendedLabel], ...], ...]:
        """Per-item vote lists: by_item[j] = ((annotator index, label), ...)."""
        return tuple(map(_observed, self.cells.T))

    @cached_property
    def by_annotator(self) -> tuple[tuple[tuple[int, ExtendedLabel], ...], ...]:
        """Per-annotator label lists: by_annotator[i] = ((item index, label), ...)."""
        return tuple(map(_observed, self.cells))

    def to_records(self) -> list[AnnotationRecord]:
        """Decode stored entries back to records, annotator-major order."""
        attribute, names = self.schema.attribute_name, self.schema.labels
        return [
            AnnotationRecord(self.annotator_ids[i], self.item_ids[j], attribute, names[v - 1])
            for i, items, labels in self._annotator_runs()
            for j, v in zip(items.tolist(), labels.tolist())
        ]

    @cached_property
    def _counts(self) -> np.ndarray:
        """Each annotator's vote count, row by row: a 1-D count_nonzero is faster than an axis."""
        return np.array([np.count_nonzero(row) for row in self.cells], dtype=np.intp)

    def _annotator_runs(self):
        """Yield (annotator, items, labels) of each annotator's observed cells, in index order."""
        for i, row in enumerate(self.cells):
            items = np.flatnonzero(row)
            yield i, items, row[items]


def _observed(row: np.ndarray) -> tuple:
    """The observed cells of a row as ((column, label), ...), columns ascending."""
    columns = np.flatnonzero(row)
    return tuple(zip(columns.tolist(), row[columns].tolist()))


def build_matrix(
    schema: AttributeSchema, records: Iterable[AnnotationRecord | tuple]
) -> AnnotationMatrix:
    """Assemble an annotation matrix from records for one attribute.

    A record may also be an (annotator_id, item_id, attribute, raw_label)
    tuple, as ``read_matrix`` streams them from a file that
    ``_read_canonical`` declines. Annotator and item orderings are
    first-appearance order among records that carry an in-vocabulary
    label. Records whose raw_label encodes to missing contribute nothing
    at all (not even id registration), so an out-of-vocabulary record is
    indistinguishable from an omitted one.
    Agreeing duplicates of an (annotator, item) pair collapse to one entry.

    Raises ConflictError when the same (annotator, item) pair carries two
    different in-vocabulary labels, naming the first contradicting record;
    a silent overwrite would corrupt every downstream accuracy estimate.
    A record of another attribute raises ValueError once the rest are read,
    unless reading them fails or a conflict precedes it.
    """
    # Imported here: simulate, which builds its matrix from cells, loads no ensemble.
    from .ensemble import _number_rows

    return AnnotationMatrix(schema, *_number_rows(schema, records))


def read_matrix(path, schema: AttributeSchema) -> AnnotationMatrix:
    """``build_matrix(schema, read_annotations(path))`` without the records.

    A regular file in the writers' exact line shape is read column-wise in
    numpy. Any other file, one that reader declines, and any input that is
    not a regular file, such as a pipe that can be read only once, go row by
    row through ``build_matrix``, which reads the same matrix and raises
    every error.
    """
    matrix = _read_canonical(path, schema) if os.path.isfile(path) else None
    return build_matrix(schema, _annotation_rows(path)) if matrix is None else matrix


def write_matrix(path, matrix: AnnotationMatrix) -> None:
    """``write_annotations(path, matrix.to_records())`` without the records:
    a line is a head per annotator, the item id and a tail per label."""
    item_texts = list(map(_dumps, matrix.item_ids))
    attribute = _dumps(matrix.schema.attribute_name)
    tails = [None, *(_ANNOTATION_TAIL % (attribute, _dumps(l)) for l in matrix.schema.labels)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, items, labels in matrix._annotator_runs():
            head = _ANNOTATION_HEAD % _dumps(matrix.annotator_ids[i])
            for k in range(0, len(items), _CHUNK):
                texts = map(item_texts.__getitem__, items[k : k + _CHUNK].tolist())
                _write_lines(fh, head, texts, tails, labels[k : k + _CHUNK].tolist())


_COLUMN_BLOCK = 1 << 20  # bytes read at a time, cut at the last LF
_SPARE = 256  # bytes after a block in its buffer, for the windows over its values
_SPREAD = 4  # a fixed-width column may take at most this many times the bytes it came from
# The UTF-8 first bytes of the characters str.strip() strips, but the controls:
# only a value that is empty or starts with one of them can be blank.
_BLANK_LEADS = np.isin(np.arange(256), list(b" \xc2\xe1\xe2\xe3"))


class _NotCanonical(Exception):
    """The file needs the per-row path: ``build_matrix`` over its parsed lines."""


def _read_canonical(path, schema: AttributeSchema) -> AnnotationMatrix | None:
    """``build_matrix`` of the annotation file at ``path``, read column-wise, or
    None unless the file is UTF-8 and every line is canonical: the writers'
    shape, each value a text of ``jsonl``'s value rule, and the attribute the
    schema's. For any other file the per-row path reads the same rows, and
    raises the errors. A canonical line holds 16 quotes, and NUL pads a
    value's bytes to a fixed width unambiguously."""
    # The writers' line, NUL for each value, in four pieces; an escaped attribute fails each block.
    line = _ANNOTATION_HEAD % '"\0"' + '"\0"' + _ANNOTATION_TAIL % (
        _dumps(schema.attribute_name), '"\0"')
    pieces = [np.frombuffer(piece, np.uint8) for piece in line.encode().split(b"\0")]
    # (code, UTF-8) of labels a line can hold raw; numpy's compare ignores trailing NULs.
    spelled = [(k, s.encode()) for k, s in enumerate(schema.labels, 1) if re.fullmatch(_TEXT, s)]
    columns: tuple[list, list, list] = ([], [], [])  # annotators, items, labels of kept rows
    try:
        with open(path, "rb") as fh:
            for block in _blocks(fh):
                for parts, column in zip(columns, _block_columns(*block, pieces, spelled, schema)):
                    parts.append(column)
            size, block = fh.tell(), None  # the read buffer goes before the ids are numbered
        annotators, annotator_ids = _intern_ids(columns[0], size)
        items, item_ids = _intern_ids(columns[1], size)
    except (_NotCanonical, UnicodeDecodeError):
        return None
    labels = np.concatenate(columns[2]) if columns[2] else ()
    return AnnotationMatrix(schema, annotator_ids, item_ids, (annotators, items, labels))


def _blocks(fh):
    """The file's bytes in blocks of about ``_COLUMN_BLOCK``, each ending at an LF,
    as (buffer, length): the block is the buffer's first ``length`` bytes, and at
    least ``_SPARE`` bytes follow it. Every block reuses one buffer. An
    unterminated last line gets an LF, as the row path reads it whole."""
    buf, kept = bytearray(_COLUMN_BLOCK + _SPARE), 0  # kept: a partial line, carried to the front
    while read := fh.readinto(memoryview(buf)[kept : kept + _COLUMN_BLOCK]):
        end = kept + read
        cut = buf.rfind(b"\n", kept, end) + 1
        if cut:
            yield buf, cut
            buf[: end - cut] = buf[cut:end]
        kept = end - cut
        if kept + _COLUMN_BLOCK + _SPARE > len(buf):  # a line longer than a block
            buf += bytes(kept)  # nothing views the buffer between blocks, so it can grow
    if kept:
        buf[kept] = ord("\n")
        yield buf, kept + 1


def _block_columns(buf: bytearray, size: int, pieces: list, spelled: list, schema: AttributeSchema):
    """The annotator, item and label columns of the in-vocabulary rows of the block
    ``buf[:size]``: the ids as fixed-width bytes, the labels encoded. A block is
    canonical when each line holds the four ``pieces`` at its quotes and LF, in
    their bytes, and its values keep ``jsonl``'s value rule. A label spelled as in
    ``spelled`` is coded by a compare; only the others go through ``np.unique``."""
    str(memoryview(buf)[:size], "utf-8")
    padded = np.frombuffer(buf, dtype=np.uint8)
    block = padded[:size]
    quotes = np.flatnonzero(block == ord('"'))
    # Each line's LF sits 2 bytes after its last quote, as piece 3 checks below. With
    # as many control bytes as lines, no value holds a control byte; nor does one hold '\'.
    if len(quotes) % 16 or buf.find(b"\\", 0, size) >= 0 or (
            16 * np.count_nonzero(block < 32) != len(quotes)):
        raise _NotCanonical
    quotes = quotes.reshape(-1, 16)
    ends = quotes[:, 15] + 2
    starts = quotes[:, 2::4] + 1  # each value's first byte, one column per field
    lengths = quotes[:, 3::4] - starts
    widths = lengths.max(axis=0, initial=1)
    widest = max(widths.max(), *map(len, pieces))
    if len(quotes) * widest > _SPREAD * size:
        raise _NotCanonical
    if size + widest > len(padded):  # the spare bytes after the block are too few
        padded = np.append(block, np.zeros(widest, np.uint8))
    # Row k of the windows is the widest value's or piece's width of bytes from byte k.
    # Bytes past the block are stale; each use below masks them or ends at a line's LF.
    windows = sliding_window_view(padded[: size + widest], widest)
    # Piece 0 runs from the line's start to quote 2, 1 from 3 to 6, 2 from 7 to 14, 3 from 15
    # to the LF; each is checked by its length, then by its bytes.
    opens = (np.append(0, ends[:-1] + 1), quotes[:, 3], quotes[:, 7], quotes[:, 15])
    for piece, lo, hi in zip(pieces, opens, (quotes[:, 2], quotes[:, 6], quotes[:, 14], ends)):
        if (hi - lo != len(piece) - 1).any() or (windows[lo, : len(piece)] != piece).any():
            raise _NotCanonical
    maybe_blank = (lengths == 0) | _BLANK_LEADS[block[starts]]

    def column(field):
        values = windows[starts[:, field], : widths[field]]
        values[np.arange(widths[field]) >= lengths[:, field, None]] = 0
        values = values.view(f"S{widths[field]}").ravel()
        if not all(value.decode().strip() for value in set(values[maybe_blank[:, field]].tolist())):
            raise _NotCanonical
        return values

    raw = column(3)
    labels = np.zeros(len(raw), np.min_scalar_type(schema.n_labels))
    for code, spelling in spelled:
        labels[raw == spelling] = code
    rest = np.flatnonzero(labels == 0)  # spelled otherwise: numbered in any order and encoded
    distinct, raw = np.unique(raw[rest], return_inverse=True)
    codes = [encode_label(schema, value.decode()) for value in distinct.tolist()]
    labels[rest] = np.array(codes, labels.dtype)[raw]
    keep = labels > 0
    del raw, rest
    return column(0)[keep], column(1)[keep], labels[keep]


def _intern_ids(parts: list, size: int) -> tuple[np.ndarray, list[str]]:
    """Number the ids of the blocks' columns ``parts`` (emptied here) in
    first-appearance order: (each row's number, the ids in that order)."""
    rows, width = sum(map(len, parts)), max((p.itemsize for p in parts), default=1)
    if rows * width > _SPREAD * size:
        raise _NotCanonical
    column = np.concatenate(parts) if parts else np.empty(0, dtype="S1")
    parts.clear()
    # Flagged, np.unique sorts without loading numpy.ma; ranking the first indices
    # numbers the distinct ids by first appearance.
    distinct, firsts, codes = np.unique(column, return_index=True, return_inverse=True)
    by_appearance = np.argsort(firsts)
    numbers = np.empty(len(firsts), dtype=np.intp)
    numbers[by_appearance] = np.arange(len(firsts))
    return numbers[codes], [value.decode() for value in distinct[by_appearance].tolist()]
