"""Label encoding and annotation-matrix construction."""

import random

import pytest

from labelvote import (
    AnnotationMatrix,
    AnnotationRecord,
    AttributeSchema,
    ConflictError,
    build_matrix,
    decode_label,
    encode_label,
)


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
            assert decode_label(gender_schema, k) == name
        assert decode_label(gender_schema, 0) is None

    def test_decode_out_of_range(self, gender_schema):
        with pytest.raises(ValueError):
            decode_label(gender_schema, 4)
        with pytest.raises(ValueError):
            decode_label(gender_schema, -1)


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
    def test_columns_sort_item_major_like_the_mapping(self, gender_schema):
        ids = (["a1", "a2"], ["p1", "p2"])
        by_mapping = AnnotationMatrix(gender_schema, *ids, {(1, 0): 2, (0, 1): 1, (0, 0): 3})
        by_columns = AnnotationMatrix(gender_schema, *ids, ([0, 1, 0], [1, 0, 0], [1, 2, 3]))
        assert by_columns == by_mapping
        assert by_columns.items.tolist() == [0, 0, 1]
        assert by_columns.annotators.tolist() == [0, 1, 0]
        assert by_columns.labels.tolist() == [3, 2, 1]
        assert by_columns.by_item == (((0, 3), (1, 2)), ((0, 1),))
        assert by_columns.by_annotator == (((0, 3), (1, 1)), ((0, 2),))

    def test_rejects_out_of_range_entries(self, gender_schema):
        for entries in ({(2, 0): 1}, {(-1, 0): 1}, {(0, 1): 1}, {(0, 0): 0}, {(0, 0): 4}):
            with pytest.raises(ValueError, match="outside"):
                AnnotationMatrix(gender_schema, ["a1", "a2"], ["p1"], entries)

    def test_repeated_pairs_collapse_or_conflict(self, gender_schema):
        ids = (["a1"], ["p1"])
        assert AnnotationMatrix(gender_schema, *ids, ([0, 0], [0, 0], [2, 2])).observed_count == 1
        with pytest.raises(ConflictError, match="'male' vs 'female'"):
            AnnotationMatrix(gender_schema, *ids, ([0, 0], [0, 0], [1, 2]))

    def test_columns_are_read_only(self, gender_schema):
        matrix = AnnotationMatrix(gender_schema, ["a1"], ["p1"], {(0, 0): 1})
        with pytest.raises(ValueError):
            matrix.labels[0] = 2


class TestAnnotationRecord:
    def test_rejects_empty_fields(self):
        with pytest.raises(ValueError):
            AnnotationRecord("", "p1", "gender", "male")
        with pytest.raises(ValueError):
            AnnotationRecord("a1", "p1", "gender", "  ")
