"""Tests for wire-size estimation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.pic.model import model_nbytes, model_to_records
from repro.util.sizing import sizeof_record, sizeof_records, sizeof_value


class TestScalars:
    def test_int(self):
        assert sizeof_value(5) == 8

    def test_float(self):
        assert sizeof_value(3.14) == 8

    def test_bool(self):
        assert sizeof_value(True) == 1

    def test_none(self):
        assert sizeof_value(None) == 1

    def test_numpy_scalar(self):
        assert sizeof_value(np.float32(1.0)) == 4
        assert sizeof_value(np.int64(1)) == 8


class TestStrings:
    def test_ascii(self):
        assert sizeof_value("abc") == 3 + 2

    def test_utf8_multibyte(self):
        assert sizeof_value("é") == 2 + 2

    def test_bytes(self):
        assert sizeof_value(b"xyz") == 3 + 2

    def test_empty_string(self):
        assert sizeof_value("") == 2


class TestArrays:
    def test_float64_array(self):
        arr = np.zeros(10)
        assert sizeof_value(arr) == 80 + 8

    def test_2d_array(self):
        arr = np.zeros((4, 4), dtype=np.float32)
        assert sizeof_value(arr) == 64 + 8

    def test_empty_array(self):
        assert sizeof_value(np.zeros(0)) == 8


class TestContainers:
    def test_tuple(self):
        assert sizeof_value((1, 2.0)) == 4 + 8 + 8

    def test_list(self):
        assert sizeof_value([1, 2, 3]) == 4 + 24

    def test_dict(self):
        assert sizeof_value({1: 2.0}) == 4 + 16

    def test_nested(self):
        value = (np.zeros(2), 1)
        assert sizeof_value(value) == 4 + (16 + 8) + 8

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot size"):
            sizeof_value(object())


class TestRecords:
    def test_record_is_key_plus_value(self):
        assert sizeof_record(1, 2.0) == 16

    def test_records_sum(self):
        records = [(1, 1.0), (2, 2.0), (3, 3.0)]
        assert sizeof_records(records) == 48

    def test_empty_records(self):
        assert sizeof_records([]) == 0

    @given(st.lists(st.tuples(st.integers(), st.floats(allow_nan=False))))
    def test_total_matches_per_record_sum(self, records):
        assert sizeof_records(records) == sum(
            sizeof_record(k, v) for k, v in records
        )

    @given(st.lists(st.tuples(st.integers(), st.floats(allow_nan=False)), min_size=1))
    def test_positive_and_monotone(self, records):
        total = sizeof_records(records)
        assert total > 0
        assert sizeof_records(records[:-1]) < total


def _reference_size(records):
    return sum(sizeof_record(k, v) for k, v in records)


# Value pools mirroring what the five apps emit, plus the odd shapes
# (bools, None, nested containers) that must punt to the generic path.
_keys = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.booleans(),
)
_values = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.builds(lambda n: np.arange(n, dtype=np.float64), st.integers(0, 5)),
    st.builds(lambda n: np.arange(n, dtype=np.float32), st.integers(0, 5)),
    st.lists(st.integers(), max_size=3),
)


class TestFastPath:
    """The vectorized homogeneous-batch path must equal the reference."""

    @given(st.lists(st.tuples(_keys, _values), max_size=64))
    def test_mixed_batches_match_reference(self, records):
        assert sizeof_records(records) == _reference_size(records)

    @given(
        st.lists(
            st.tuples(
                st.integers(),
                st.builds(lambda n: np.arange(n, dtype=np.float64), st.integers(0, 8)),
            ),
            min_size=20,
            max_size=64,
        )
    )
    def test_homogeneous_int_ndarray_batch(self, records):
        assert sizeof_records(records) == _reference_size(records)

    @given(
        st.lists(
            st.tuples(st.text(max_size=12), st.floats(allow_nan=False)),
            min_size=20,
            max_size=64,
        )
    )
    def test_homogeneous_str_float_batch(self, records):
        assert sizeof_records(records) == _reference_size(records)

    def test_bool_tail_bails_to_generic(self):
        # bool is an int subclass but sizes to 1 byte; a stray bool in a
        # large "int" batch must not be sized as a fixed 8-byte scalar.
        records = [(i, float(i)) for i in range(40)] + [(True, 1.0)]
        assert sizeof_records(records) == _reference_size(records)

    def test_numpy_scalar_tail_bails_to_generic(self):
        records = [(i, float(i)) for i in range(40)] + [(np.int64(1), 2.0)]
        assert sizeof_records(records) == _reference_size(records)


# Tuple keys as the apps emit them: flat tuples of ints, floats and
# ASCII strings, with exact int/float values.
_flat_elements = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=6),
)
_flat_tuple_records = st.tuples(
    st.lists(_flat_elements, max_size=4).map(tuple),
    st.one_of(st.integers(), st.floats(allow_nan=False)),
)
_int64s = st.integers(-(2**63), 2**63 - 1)
_non_ascii = st.characters(min_codepoint=128, blacklist_categories=("Cs",))
# Records each fast-path check must reject, so sizing falls back to the
# per-record reference sum.
_bail_tuple_records = st.one_of(
    st.tuples(st.tuples(st.just("e"), st.booleans()), st.floats(allow_nan=False)),
    st.tuples(st.tuples(st.just("e"), st.integers()), st.booleans()),
    st.tuples(st.tuples(st.just("pr"), _int64s.map(np.int64)), st.just(1.0)),
    st.tuples(st.tuples(st.just("pr"), st.floats().map(np.float64)), st.just(1.0)),
    st.tuples(st.tuples(st.just("pr"), st.just(np.float64(1.0))), st.just(2)),
    st.tuples(st.tuples(st.text(_non_ascii, min_size=1)), st.just(1.0)),
    st.tuples(st.tuples(st.just("e"), st.tuples(st.integers(), st.integers())), st.just(1.0)),
    st.tuples(st.tuples(st.just("e"), st.integers()), st.just(np.zeros(3))),
    st.tuples(st.tuples(st.just("e"), st.integers()), st.just(np.float64(0.5))),
    st.tuples(st.tuples(st.just("e"), st.none()), st.just(1.0)),
)


class TestTupleKeyFastPath:
    """Tuple-keyed record lists (PageRank's model) size in one pass."""

    @given(st.lists(_flat_tuple_records, min_size=16, max_size=64))
    def test_mixed_arities_match_reference(self, records):
        assert sizeof_records(records) == _reference_size(records)

    @given(
        st.lists(_flat_tuple_records, min_size=16, max_size=48),
        st.lists(_bail_tuple_records, min_size=1, max_size=3),
    )
    def test_bail_out_tails_match_reference(self, head, tail):
        records = head + tail
        assert sizeof_records(records) == _reference_size(records)

    @pytest.mark.parametrize(
        "tail",
        [
            (("e", True), 1.0),
            (("e", 1), True),
            (("pr", np.int64(3)), 1.0),
            (("pr", np.float64(0.5)), 1.0),
            (("é", 1), 1.0),
            (("e", (1, 2)), 1.0),
            (("e", 1), np.zeros(3)),
            (("e", 1), np.float64(0.5)),
        ],
        ids=["bool-elem", "bool-value", "np-int-elem", "np-float-elem",
             "non-ascii", "nested", "ndarray-value", "np-float-value"],
    )
    def test_each_bail_out_kind(self, tail):
        records = [(("e", v, v + 1), 0.5) for v in range(20)] + [tail]
        assert sizeof_records(records) == _reference_size(records)

    def test_pagerank_shaped_model(self):
        model = {("pr", v): 1.0 for v in range(50)}
        model.update({("e", v, (v + 1) % 50): 0.5 for v in range(50)})
        records = list(model.items())
        # count header + "pr"/"e" text + int slots + float value
        expected = 50 * (4 + (2 + 2) + 8 + 8) + 50 * (4 + (1 + 2) + 8 + 8 + 8)
        assert sizeof_records(records) == expected == _reference_size(records)


class TestModelNbytes:
    """Sizing the model unsorted equals the old sorted-records sum."""

    @staticmethod
    def _sorted_sum(model):
        return sizeof_records(model_to_records(model))

    @pytest.mark.parametrize(
        "model",
        [
            {},
            {("pr", v): float(v) for v in range(40)},
            {v: np.arange(v % 4, dtype=np.float64) for v in range(30)},
            {str(v): v for v in range(20)},
            # int and str keys together cannot be sorted directly.
            {**{v: 1.0 for v in range(20)}, **{f"k{v}": 2 for v in range(20)}},
            {**{("e", v, v + 1): 0.5 for v in range(20)}, True: 1.0, "x": None},
        ],
    )
    def test_matches_sorted_sum(self, model):
        assert model_nbytes(model) == self._sorted_sum(model)
