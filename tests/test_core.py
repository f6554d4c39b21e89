"""Label encoding and annotation-matrix construction."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelvote import (
    AnnotationMatrix,
    AnnotationRecord,
    AttributeSchema,
    ConflictError,
    ProductText,
    SimulationConfig,
    WorkerProfile,
    build_matrix,
    encode_label,
    generate_ground_truth,
    simulate_annotations,
    write_annotations,
)
from labelvote import storage
from labelvote.core import _read_canonical

from conftest import random_sparse_rows


def rec(annotator, item, label, attribute="gender"):
    return AnnotationRecord(annotator, item, attribute, label)


class TestEncodeLabel:
    def test_case_and_whitespace_normalization(self, gender_schema):
        assert encode_label(gender_schema, " Female ") == 2

    def test_exact_match(self, gender_schema):
        assert encode_label(gender_schema, "unisex") == 3

    def test_out_of_vocabulary_maps_to_missing(self, gender_schema):
        assert encode_label(gender_schema, "woman") == 0

    def test_encode_decode_bijection(self, gender_schema):
        for k, name in enumerate(gender_schema.labels, start=1):
            assert encode_label(gender_schema, name) == k


class TestAttributeSchema:
    def test_requires_two_labels(self):
        with pytest.raises(ValueError):
            AttributeSchema("gender", ["male"])

    def test_rejects_case_fold_duplicates(self):
        with pytest.raises(ValueError):
            AttributeSchema("gender", ["male", "MALE"])

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            AttributeSchema("gender", ["male", "  "])

    def test_trims_stored_labels(self):
        schema = AttributeSchema("gender", [" Male ", "Female"])
        assert schema.labels == ("Male", "Female")

    def test_takes_any_sequence_of_labels(self):
        assert AttributeSchema("g", ("a", "b")).labels == ("a", "b")
        assert AttributeSchema("g", (l for l in "ab")).labels == ("a", "b")

    @pytest.mark.parametrize(
        "name, labels, reason",
        [
            (5, ["a", "b"], "field 'attribute_name' must be a non-empty string"),
            (" ", ["a", "b"], "field 'attribute_name' must be a non-empty string"),
            ("g", "ab", "field 'labels' must be an array of strings"),
            ("g", ["a", 5], "field 'labels' must be an array of strings"),
        ],
        ids=["non-string name", "blank name", "one string as labels", "non-string label"],
    )
    def test_rejects_wrongly_typed_arguments(self, name, labels, reason):
        with pytest.raises(ValueError) as excinfo:
            AttributeSchema(name, labels)
        assert str(excinfo.value) == reason


class TestBuildMatrix:
    def test_dense_case(self, gender_schema):
        records = [
            rec("a1", "p1", "male"),
            rec("a1", "p2", "female"),
            rec("a2", "p1", "male"),
            rec("a2", "p2", "unisex"),
        ]
        matrix = build_matrix(gender_schema, records)
        assert matrix.annotator_ids == ("a1", "a2")
        assert matrix.item_ids == ("p1", "p2")
        assert matrix.observed_count == 4
        assert matrix.label_for(1, 1) == 3

    def test_missing_entry(self, gender_schema):
        records = [
            rec("a1", "p1", "male"),
            rec("a1", "p2", "female"),
            rec("a2", "p2", "male"),
        ]
        matrix = build_matrix(gender_schema, records)
        assert matrix.label_for(1, 0) == 0
        assert matrix.observed_count == 3

    def test_out_of_vocabulary_record_equals_omitted(self, gender_schema):
        # An unmatched raw label must leave no trace, not even id registration.
        rng = random.Random(411)
        names = list(gender_schema.labels)
        for _ in range(50):
            base = [
                rec(f"a{rng.randint(1, 4)}", f"p{rng.randint(1, 6)}", rng.choice(names))
                for _ in range(rng.randint(1, 12))
            ]
            bad = rec(f"a{rng.randint(1, 5)}", f"p{rng.randint(1, 7)}", "n/a")
            position = rng.randint(0, len(base))
            with_bad = base[:position] + [bad] + base[position:]
            try:
                expected = build_matrix(gender_schema, base)
            except ConflictError:
                continue
            assert build_matrix(gender_schema, with_bad) == expected

    def test_conflicting_duplicate_is_an_error(self, gender_schema):
        records = [rec("a1", "p1", "male"), rec("a1", "p1", "female")]
        with pytest.raises(ConflictError, match="a1.*p1"):
            build_matrix(gender_schema, records)

    def test_agreeing_duplicate_is_fine(self, gender_schema):
        records = [rec("a1", "p1", "male"), rec("a1", "p1", "MALE")]
        matrix = build_matrix(gender_schema, records)
        assert matrix.observed_count == 1

    def test_conflict_with_missing_is_not_a_conflict(self, gender_schema):
        records = [rec("a1", "p1", "male"), rec("a1", "p1", "n/a")]
        matrix = build_matrix(gender_schema, records)
        assert matrix.label_for(0, 0) == 1

    def test_attribute_mismatch(self, gender_schema):
        with pytest.raises(ValueError, match="attribute"):
            build_matrix(gender_schema, [rec("a1", "p1", "male", attribute="age")])

    def test_conflict_names_first_contradicting_record(self, gender_schema):
        records = [
            rec("a1", "p1", "male"),
            rec("a2", "p1", "female"),
            rec("a2", "p1", "unisex"),
            rec("a1", "p1", "female"),
        ]
        message = "annotator 'a2' on item 'p1': 'female' vs 'unisex'$"
        with pytest.raises(ConflictError, match=message):
            build_matrix(gender_schema, records)

    def test_first_error_in_file_order_wins(self, gender_schema):
        conflict = [rec("a1", "p1", "male"), rec("a1", "p1", "female")]
        foreign = [rec("a1", "p2", "male", attribute="age")]
        with pytest.raises(ConflictError):
            build_matrix(gender_schema, conflict + foreign)
        with pytest.raises(ValueError, match="attribute"):
            build_matrix(gender_schema, foreign + conflict)

    def test_permutation_invariant_content(self, gender_schema):
        rng = random.Random(7)
        names = list(gender_schema.labels)
        records = [
            rec(f"a{i}", f"p{j}", rng.choice(names))
            for i in range(3)
            for j in range(5)
        ]
        matrix = build_matrix(gender_schema, records)
        reference = {
            (matrix.annotator_ids[i], matrix.item_ids[j]): v
            for (i, j), v in matrix.entries.items()
        }
        for _ in range(10):
            rng.shuffle(records)
            shuffled = build_matrix(gender_schema, records)
            content = {
                (shuffled.annotator_ids[i], shuffled.item_ids[j]): v
                for (i, j), v in shuffled.entries.items()
            }
            assert content == reference

    def test_observed_count_equals_indicator_sum(self, gender_schema):
        rng = random.Random(99)
        names = list(gender_schema.labels) + ["junk"]
        records = []
        seen = set()
        for _ in range(30):
            pair = (f"a{rng.randint(1, 4)}", f"p{rng.randint(1, 8)}")
            if pair in seen:
                continue
            seen.add(pair)
            records.append(rec(pair[0], pair[1], rng.choice(names)))
        matrix = build_matrix(gender_schema, records)
        indicator_sum = sum(
            1
            for i in range(matrix.n_annotators)
            for j in range(matrix.n_items)
            if matrix.label_for(i, j) != 0
        )
        assert matrix.observed_count == indicator_sum

    def test_to_records_round_trip(self, gender_schema):
        records = [
            rec("a1", "p1", "male"),
            rec("a1", "p2", "female"),
            rec("a2", "p1", "unisex"),
        ]
        matrix = build_matrix(gender_schema, records)
        assert build_matrix(gender_schema, matrix.to_records()) == matrix


class TestAnnotationMatrix:
    def test_columns_sort_annotator_major_like_the_mapping(self, gender_schema):
        ids = (["a1", "a2"], ["p1", "p2"])
        by_mapping = AnnotationMatrix(gender_schema, *ids, {(1, 0): 2, (0, 1): 1, (0, 0): 3})
        by_columns = AnnotationMatrix(gender_schema, *ids, ([0, 1, 0], [1, 0, 0], [1, 2, 3]))
        assert by_columns == by_mapping
        assert by_columns.annotators.tolist() == [0, 0, 1]
        assert by_columns.items.tolist() == [0, 1, 0]
        assert by_columns.labels.tolist() == [3, 1, 2]
        assert by_columns.by_item == (((0, 3), (1, 2)), ((0, 1),))
        assert by_columns.by_annotator == (((0, 3), (1, 1)), ((0, 2),))
        # Annotator a2 and item p1 have no entries: each still has its (empty) list.
        gaps = AnnotationMatrix(
            gender_schema, ["a1", "a2", "a3"], ["p1", "p2", "p3"], ([2, 0, 2], [2, 2, 0], [1, 3, 2])
        )
        assert gaps.by_item == (((2, 2),), (), ((0, 3), (2, 1)))
        assert gaps.by_annotator == (((2, 3),), (), ((0, 2), (2, 1)))

    def test_views_match_a_brute_force_grouping(self):
        rng = random.Random(20)
        for _ in range(40):
            rows, n_labels = random_sparse_rows(rng, max_items=30, max_missing=0.9)
            schema = AttributeSchema("attr", [f"label{k}" for k in range(1, n_labels + 1)])
            entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
            rng.shuffle(entries)
            matrix = AnnotationMatrix(
                schema, [f"a{i}" for i in range(len(rows))], [f"p{j}" for j in range(len(rows[0]))],
                tuple(zip(*entries)),
            )
            assert matrix.by_item == tuple(
                tuple((i, row[j]) for i, row in enumerate(rows) if row[j])
                for j in range(len(rows[0]))
            )
            assert matrix.by_annotator == tuple(
                tuple((j, v) for j, v in enumerate(row) if v) for row in rows
            )

    def test_rejects_out_of_range_entries(self, gender_schema):
        for entries in ({(2, 0): 1}, {(-1, 0): 1}, {(0, 1): 1}, {(0, 0): 0}, {(0, 0): 4}):
            with pytest.raises(ValueError, match="outside"):
                AnnotationMatrix(gender_schema, ["a1", "a2"], ["p1"], entries)

    @pytest.mark.parametrize(
        "annotators, items, entries, reason",
        [(["a1", "a1"], ["p1"], {}, "duplicate annotator ids"),
         (["a1"], ["p1", "p1"], {}, "duplicate item ids"),
         (["a1"], ["p1"], ([0], [0, 0], [1]), "entry columns must be 1-D and equally long"),
         (["a1"], ["p1"], ([[0]], [[0]], [[1]]), "entry columns must be 1-D and equally long")],
        ids=["duplicate annotator", "duplicate item", "ragged columns", "2-D columns"],
    )
    def test_rejects_repeated_ids_and_malformed_columns(
        self, gender_schema, annotators, items, entries, reason
    ):
        with pytest.raises(ValueError, match=reason):
            AnnotationMatrix(gender_schema, annotators, items, entries)

    def test_repeated_pairs_collapse_or_conflict(self, gender_schema):
        ids = (["a1"], ["p1"])
        assert AnnotationMatrix(gender_schema, *ids, ([0, 0], [0, 0], [2, 2])).observed_count == 1
        with pytest.raises(ConflictError, match="'male' vs 'female'"):
            AnnotationMatrix(gender_schema, *ids, ([0, 0], [0, 0], [1, 2]))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_shuffled_and_duplicated_columns_match_first_wins(self, data):
        schema = AttributeSchema("gender", ["male", "female", "unisex"])
        n, p = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, p - 1))
        entries = data.draw(st.lists(st.tuples(pair, st.integers(1, 3)), max_size=12))
        if entries:  # repeats of drawn pairs: agreeing, or with any label
            repeats = st.tuples(st.sampled_from(entries), st.none() | st.integers(1, 3))
            for (ij, v), w in data.draw(st.lists(repeats, max_size=12)):
                entries.append((ij, v if w is None else w))
        entries = data.draw(st.permutations(entries))
        annotator_ids = [f"a{i}" for i in range(n)]
        item_ids = [f"p{j}" for j in range(p)]

        first, expected = {}, None
        for (i, j), v in entries:
            earlier = first.setdefault((i, j), v)
            if earlier != v:
                expected = (
                    f"conflicting labels for annotator {annotator_ids[i]!r} on item "
                    f"{item_ids[j]!r}: {schema.labels[earlier - 1]!r} vs {schema.labels[v - 1]!r}"
                )
                break
        pairs, labels = zip(*entries) if entries else ((), ())
        columns = ([i for i, _ in pairs], [j for _, j in pairs], list(labels))
        if expected is not None:
            with pytest.raises(ConflictError) as excinfo:
                AnnotationMatrix(schema, annotator_ids, item_ids, columns)
            assert str(excinfo.value) == expected
            return
        matrix = AnnotationMatrix(schema, annotator_ids, item_ids, columns)
        columns = (matrix.annotators.tolist(), matrix.items.tolist(), matrix.labels.tolist())
        assert list(zip(*columns)) == sorted((i, j, v) for (i, j), v in first.items())

    def test_equality_with_another_type_is_left_to_it(self, gender_schema):
        matrix = AnnotationMatrix(gender_schema, ["a1"], ["p1"], {(0, 0): 1})
        assert not matrix == object()
        assert matrix != object()

    def test_columns_are_read_only(self, gender_schema):
        matrix = AnnotationMatrix(gender_schema, ["a1"], ["p1"], {(0, 0): 1})
        with pytest.raises(ValueError):
            matrix.labels[0] = 2

    def test_columns_dtype_and_order_from_every_source(self, gender_schema, tmp_path):
        # intp indices: the sort key annotators * n_items + items cannot overflow. The
        # order: each item gets its votes in ascending annotator order, as _vote sums them.
        records = [rec("a1", "p1", "male"), rec("a2", "p1", "female"), rec("a1", "p2", "unisex")]
        path = tmp_path / "a.jsonl"
        write_annotations(path, records)
        ids = (["a1", "a2"], ["p1", "p2"])
        narrow = tuple(np.array(c, dtype=t) for c, t in
                       (([1, 0, 0], np.int8), ([0, 1, 0], np.int32), ([2, 3, 1], np.uint8)))
        workers = [WorkerProfile(f"w{k}", 0.7, 0.3) for k in range(4)]
        config = SimulationConfig(30, gender_schema, workers, seed=5)
        matrices = {
            "mapping": AnnotationMatrix(gender_schema, *ids, {(1, 0): 2, (0, 1): 1, (0, 0): 3}),
            "narrow columns": AnnotationMatrix(gender_schema, *ids, narrow),
            "build_matrix": build_matrix(gender_schema, records),
            "_read_canonical": _read_canonical(path, gender_schema),
            "simulate_annotations": simulate_annotations(config, generate_ground_truth(config)),
        }
        for source, matrix in matrices.items():
            assert matrix.annotators.dtype == matrix.items.dtype == np.intp, source
            assert matrix.labels.dtype == np.min_scalar_type(gender_schema.n_labels), source
            pairs = list(zip(matrix.annotators.tolist(), matrix.items.tolist()))
            assert pairs == sorted(set(pairs)), source
            assert len(set(matrix.annotators.tolist())) > 1, source


class TestAnnotationRecord:
    def test_rejects_empty_fields(self):
        with pytest.raises(ValueError):
            AnnotationRecord("", "p1", "gender", "male")
        with pytest.raises(ValueError):
            AnnotationRecord("a1", "p1", "gender", "  ")

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", [None, 5])
    def test_rejects_non_string_fields(self, field, value):
        # Such a record would be written as a line that read_annotations rejects.
        fields = ["a1", "p1", "gender", "male"]
        fields[field] = value
        with pytest.raises(ValueError, match="must be a non-empty string"):
            AnnotationRecord(*fields)


class TestProductText:
    @pytest.mark.parametrize(
        "fields",
        [("p1", 5), ("p1", None), (5, "Socks"), ("p1", "  "), ("", "Socks")],
        ids=["int title", "null title", "int item_id", "blank title", "empty item_id"],
    )
    def test_rejects_non_string_or_blank_text(self, fields):
        with pytest.raises(ValueError, match="must be a non-empty string"):
            ProductText(*fields)


def test_required_fields_are_listed_once_per_class():
    assert AnnotationRecord._required() == ("annotator_id", "item_id", "attribute", "raw_label")
    assert ProductText._required() == ("item_id", "title")
    row = dict(zip(AnnotationRecord._required(), ("a1", "p1", "g", "x")))
    with mock.patch.object(storage, "fields", side_effect=AssertionError):
        assert AnnotationRecord._from_json(row) == AnnotationRecord("a1", "p1", "g", "x")
        assert ProductText._from_json({"item_id": "p1", "title": "Socks"}).description == ""
        with pytest.raises(ValueError, match="^missing field\\(s\\) title$"):
            ProductText._from_json({"item_id": "p1"})
