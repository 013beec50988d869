"""VARCHAR key columns in the vectorized kernels.

``factorize``, ``hash_rows`` and ``key_tuples`` code string keys in
dictionary space (per distinct entry, gathered through the indices)
instead of returning ``None`` to the row path. Every block shape a
string key arrives in must group exactly like the dict-based row path
and hash bit-for-bit like the scalar ``stable_hash``; nested types must
still decline.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.connectors.hashing import stable_hash
from repro.exec import kernels
from repro.exec.blocks import (
    DictionaryBlock,
    LazyBlock,
    ObjectBlock,
    RunLengthBlock,
    make_block,
)
from repro.types import BIGINT, VARCHAR


@pytest.fixture(autouse=True)
def _vector_kernels():
    with kernels.forced_mode(kernels.VECTOR):
        yield


def _row_grouping(blocks, row_count):
    """The row path: a dict keyed by value tuples, in first-seen order."""
    groups: dict = {}
    ids = []
    firsts = []
    for row in range(row_count):
        key = tuple(block.get(row) for block in blocks)
        if key not in groups:
            groups[key] = len(groups)
            firsts.append(row)
        ids.append(groups[key])
    return ids, firsts, list(groups)


def _assert_groups_like_rows(blocks, row_count):
    fact = kernels.factorize(blocks, row_count)
    assert fact is not None
    ids, firsts, keys = _row_grouping(blocks, row_count)
    assert fact.group_ids.tolist() == ids
    assert fact.group_count == len(firsts)
    assert fact.first_positions.tolist() == firsts
    got = kernels.key_tuples(blocks, fact.first_positions)
    assert got == keys
    # Same python types as Block.get (e.g. int, not numpy.int64).
    assert [tuple(map(type, key)) for key in got] == [
        tuple(map(type, key)) for key in keys
    ]


WORDS = ["b", "a", None, "b", "", "c", "a", None, "héllo", "c"]


def _lazy(block):
    return LazyBlock(len(block), lambda: block)


def _string_shapes():
    """Every shape a VARCHAR key column reaches an operator in."""
    entries = ObjectBlock(["x", "y", None, "z", "y"])
    indices = np.array([0, 1, -1, 2, 3, 4, 0, 2, 1, -1], dtype=np.int64)
    inner = DictionaryBlock(entries, np.array([3, 0, 2, 1, -1, 4], dtype=np.int64))
    outer = np.array([0, 1, 2, 3, 4, 5, -1, 0, 1, 5], dtype=np.int64)
    return {
        "object": ObjectBlock(list(WORDS)),
        "dict": DictionaryBlock(entries, indices),
        "dict_of_dict": DictionaryBlock(inner, outer),
        "dict_over_lazy": DictionaryBlock(_lazy(entries), indices),
        "lazy_dict": _lazy(DictionaryBlock(entries, indices)),
        "rle": RunLengthBlock("x", 10),
        "rle_null": RunLengthBlock(None, 10),
        "empty_dict": DictionaryBlock(ObjectBlock([]), np.full(10, -1, dtype=np.int64)),
        # A dictionary larger than the page (a join's build column).
        "big_dict": DictionaryBlock(
            ObjectBlock([f"v{i % 7}" for i in range(50)] + [None]),
            np.array([3, 49, 50, -1, 10, 3, 17, 24, -1, 49], dtype=np.int64),
        ),
    }


@pytest.mark.parametrize("shape", sorted(_string_shapes()))
def test_factorize_string_shapes_match_row_grouping(shape):
    block = _string_shapes()[shape]
    _assert_groups_like_rows([block], len(block))


@pytest.mark.parametrize("shape", sorted(_string_shapes()))
def test_hash_rows_string_shapes_match_stable_hash(shape):
    block = _string_shapes()[shape]
    hashes = kernels.hash_rows([block], len(block))
    assert hashes is not None
    assert hashes.tolist() == [
        stable_hash((block.get(row),)) for row in range(len(block))
    ]


def test_mixed_bigint_varchar_keys():
    ints = make_block(BIGINT, [1, 2, 1, None, 2, 1, None, 1, 2, 3])
    strings = _string_shapes()
    for shape in ("object", "dict", "dict_of_dict", "rle"):
        blocks = [ints, strings[shape]]
        _assert_groups_like_rows(blocks, 10)
        hashes = kernels.hash_rows(blocks, 10)
        assert hashes.tolist() == [
            stable_hash(tuple(b.get(row) for b in blocks)) for row in range(10)
        ]


def test_null_entry_and_null_index_are_one_group():
    # A NULL dictionary entry and a -1 index are both SQL NULL.
    block = DictionaryBlock(ObjectBlock(["a", None]), np.array([1, -1, 0, 1, -1]))
    fact = kernels.factorize([block], 5)
    assert fact.group_ids.tolist() == [0, 0, 1, 0, 0]


def test_hash_rows_edge_strings():
    values = ["", "é", "日本語", None, "a" * 300, "\x00", "ß"]
    block = make_block(VARCHAR, values)
    hashes = kernels.hash_rows([block], len(values))
    assert hashes.tolist() == [stable_hash((v,)) for v in values]
    ints = make_block(BIGINT, list(range(len(values))))
    pairs = kernels.hash_rows([block, ints, block], len(values))
    assert pairs.tolist() == [
        stable_hash((v, i, v)) for i, v in enumerate(values)
    ]


@pytest.mark.parametrize(
    "items",
    [
        [["a"], ["b"], ["a"]],  # ARRAY: unhashable
        [("a", 1), ("b", 2), ("a", 1)],  # ROW: hashable, not str
        [{"k": 1}, {"k": 2}],  # MAP
        ["a", 1, "a"],  # a non-str entry among strings
    ],
)
def test_nested_types_fall_back(items):
    block = ObjectBlock(items)
    assert kernels.factorize([block], len(items)) is None
    assert kernels.hash_rows([block], len(items)) is None
    wrapped = DictionaryBlock(block, np.arange(len(items), dtype=np.int64))
    assert kernels.factorize([wrapped], len(items)) is None
    assert kernels.hash_rows([wrapped], len(items)) is None


def test_rle_of_nested_value_falls_back():
    block = RunLengthBlock(("a", 1), 4)
    assert kernels.factorize([block], 4) is None
    assert kernels.hash_rows([block], 4) is None


def test_key_tuples_returns_the_stored_objects():
    word = "".join(["sh", "ared"])  # not interned: identity is observable
    block = DictionaryBlock(ObjectBlock([word, None]), np.array([1, 0, -1, 0]))
    keys = kernels.key_tuples([block], np.array([1, 2]))
    assert keys == [(word,), (None,)]
    assert keys[0][0] is word


@given(
    st.lists(st.sampled_from(["a", "b", "", "é", None]), min_size=1, max_size=40),
    st.lists(st.integers(-1, 4), min_size=1, max_size=40),
)
def test_dictionary_property(entries, raw_indices):
    indices = np.array(
        [i if i < len(entries) else -1 for i in raw_indices], dtype=np.int64
    )
    block = DictionaryBlock(ObjectBlock(entries), indices)
    _assert_groups_like_rows([block], len(indices))
    hashes = kernels.hash_rows([block], len(indices))
    assert hashes.tolist() == [
        stable_hash((block.get(row),)) for row in range(len(indices))
    ]
