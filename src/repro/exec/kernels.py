"""Vectorized hash kernels shared by the hash-heavy operators.

The paper's engine lives in its hash paths — hash aggregation, hash
joins, and partitioned shuffles (Sec. V). Row-at-a-time dispatch over
``Block.to_values()`` lists is the "much too slow" interpretation the
codegen section (Sec. V-B) warns about, so this module provides the
columnar batch-at-a-time equivalents:

- :func:`factorize` — map N rows x K primitive or VARCHAR key columns
  to dense local group ids (plus each group's first-occurrence
  position), the building block for hash aggregation, DISTINCT, and
  semi joins; :func:`key_tuples` gathers the groups' key values.
- :class:`VectorMultiMap` — a join build table over primitive keys:
  build rows sorted by key hash, probed in one batch per page with
  ``np.searchsorted`` and verified with exact vectorized compares.
- :func:`hash_rows` — batch evaluation of
  :func:`repro.connectors.hashing.stable_hash` over whole pages, used
  by the shuffle partitioner (must agree bit-for-bit with the scalar
  hash: two sinks feeding one consumer may take different paths).

Null / NaN / numeric-equality contract (must match the row path, which
keys python dicts with value tuples):

- NULL keys hash to their own per-column code; a NULL group key is a
  normal group, but NULL join keys never match (callers exclude them).
- ``-0.0`` and ``0.0`` are the same key (normalized before bitcasting).
- NaN never equals anything, including itself: each NaN row becomes its
  own group, and NaN join keys never match.
- ``True == 1`` and ``False == 0`` across boolean/integer columns, and
  integers equal their exact float representations across sides of a
  join (non-representable values simply never match).

Dictionary-encoded key columns (the columnar scan hands stripes through
as :class:`DictionaryBlock` without materializing) are processed in
dictionary space: nested dictionaries are flattened to one index array
over the innermost block, and :func:`factorize` and :func:`hash_rows`
compute per-*entry* codes/hashes once and gather them through the
indices instead of expanding to per-row values first.

VARCHAR key columns are coded in dictionary space too: a plain
:class:`ObjectBlock` of ``str`` is coded by one first-seen pass (a
``dict`` of its distinct entries), a dictionary over one codes only its
entries, and an RLE string is a single code. Only nested types (ARRAY,
MAP, ROW) and other non-``str`` objects (e.g. partial-aggregation
state) have no encoding; :func:`factorize` and :func:`hash_rows` return
``None`` for them and the caller falls back to the sanctioned row path.
The same fallback can be forced globally (``REPRO_KERNELS=row`` or
:func:`set_mode`) so the differential fuzzer can compare both paths.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from repro.connectors.hashing import stable_hash
from repro.exec.blocks import (
    Block,
    DictionaryBlock,
    LazyBlock,
    ObjectBlock,
    PrimitiveBlock,
    RunLengthBlock,
)
from repro.types import BOOLEAN, DOUBLE

_MASK63 = np.uint64(0x7FFFFFFFFFFFFFFF)
_MURMUR_C = np.uint64(0xFF51AFD7ED558CCD)
_FLOAT_SCALE = 1_000_003

# --------------------------------------------------------------------------
# Mode control (vector by default; REPRO_KERNELS=row forces the scalar
# fallback everywhere, which the fuzz runner uses as a differential
# configuration).
# --------------------------------------------------------------------------

VECTOR = "vector"
ROW = "row"

_mode = os.environ.get("REPRO_KERNELS", VECTOR).strip().lower() or VECTOR
if _mode not in (VECTOR, ROW):
    raise ValueError(f"REPRO_KERNELS must be vector/row, got {_mode!r}")


def get_mode() -> str:
    return _mode


def set_mode(mode: str) -> None:
    global _mode
    if mode not in (VECTOR, ROW):
        raise ValueError(f"unknown kernel mode {mode!r} (expected 'vector' or 'row')")
    _mode = mode


def enabled() -> bool:
    """True when operators should attempt the vectorized kernels."""
    return _mode == VECTOR


@contextmanager
def forced_mode(mode: str):
    """Temporarily force a kernel mode (fuzz runner / benchmarks)."""
    previous = get_mode()
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(previous)


# --------------------------------------------------------------------------
# Block -> numpy extraction
# --------------------------------------------------------------------------

#: kind codes: 'i' = int64 (bigint/integer/date/timestamp), 'f' = float64,
#: 'b' = boolean. Object columns have no kind.
_INT64_MAX = np.iinfo(np.int64).max


def _flatten_dictionary(block: Block) -> tuple[Block, Optional[np.ndarray]]:
    """Peel lazy and (nested) dictionary wrappers off one column.

    Returns ``(base, indices)``: ``base`` is the innermost block that is
    neither lazy nor a dictionary (lazy blocks are loaded on the way),
    and ``indices`` maps each row through every dictionary level to a
    position of ``base`` (``-1`` = NULL at any level), or is ``None``
    when ``block`` is not dictionary-encoded.
    """
    indices = None
    while True:
        if isinstance(block, LazyBlock):
            block = block.load()
        elif isinstance(block, DictionaryBlock):
            if indices is None:
                indices = block.indices
            elif len(block.indices) == 0:
                # An empty inner dictionary: every outer index is -1.
                indices = np.full(len(indices), -1, dtype=np.int64)
            else:
                inner = block.indices[np.clip(indices, 0, None)]
                indices = np.where(indices < 0, np.int64(-1), inner)
            block = block.dictionary
        else:
            return block, indices


def _flat_primitive_arrays(block: Block) -> Optional[tuple[np.ndarray, np.ndarray, str]]:
    """``(values, nulls, kind)`` of a primitive or RLE block."""
    if isinstance(block, PrimitiveBlock):
        if block.type is BOOLEAN:
            kind = "b"
        elif block.type is DOUBLE:
            kind = "f"
        else:
            kind = "i"
        return block.values, block.nulls, kind
    if isinstance(block, RunLengthBlock):
        n = len(block)
        value = block.value
        if value is None:
            return np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.bool_), "i"
        if isinstance(value, bool):
            return np.full(n, value, dtype=np.bool_), np.zeros(n, dtype=np.bool_), "b"
        if isinstance(value, int):
            if not (-(2**63) <= value < 2**63):
                return None
            return np.full(n, value, dtype=np.int64), np.zeros(n, dtype=np.bool_), "i"
        if isinstance(value, float):
            return np.full(n, value, dtype=np.float64), np.zeros(n, dtype=np.bool_), "f"
    return None


def primitive_arrays(block: Block) -> Optional[tuple[np.ndarray, np.ndarray, str]]:
    """Return ``(values, nulls, kind)`` for numpy-representable blocks.

    Dictionary/RLE/lazy wrappings are decoded; object columns return
    ``None`` (caller falls back to the row path).
    """
    base, indices = _flatten_dictionary(block)
    arrays = _flat_primitive_arrays(base)
    if arrays is None or indices is None:
        return arrays
    values, nulls, kind = arrays
    if len(values) == 0:
        # All indices must be -1 (null) for an empty dictionary.
        n = len(indices)
        dtype = {"b": np.bool_, "f": np.float64, "i": np.int64}[kind]
        return np.zeros(n, dtype=dtype), np.ones(n, dtype=np.bool_), kind
    clipped = np.clip(indices, 0, None)
    return values[clipped], (indices < 0) | nulls[clipped], kind


def key_arrays(
    blocks: Sequence[Block],
) -> Optional[list[tuple[np.ndarray, np.ndarray, str]]]:
    """primitive_arrays for every block, or None if any column is object."""
    out = []
    for block in blocks:
        arrays = primitive_arrays(block)
        if arrays is None:
            return None
        out.append(arrays)
    return out


def _string_codes(block: Block) -> Optional[tuple[np.ndarray, list]]:
    """First-seen codes of a plain or RLE VARCHAR block, and its distinct
    strings: code ``i`` is ``distinct[i]`` and NULL is ``len(distinct)``.
    ``None`` unless every entry is exactly ``str`` or NULL (nested types
    and other objects keep the row path)."""
    if isinstance(block, RunLengthBlock):
        if type(block.value) is not str:
            return None
        return np.zeros(len(block), dtype=np.int64), [block.value]
    if not isinstance(block, ObjectBlock):
        return None
    items = block.items
    try:
        lookup = dict.fromkeys(items)
    except TypeError:  # unhashable entries: ARRAY / MAP values
        return None
    lookup.pop(None, None)
    distinct = list(lookup)
    if not set(map(type, distinct)) <= {str}:
        return None
    lookup = dict(zip(distinct, range(len(distinct))))
    lookup[None] = len(distinct)
    # row-path: one C-level dict probe per row codes a VARCHAR column.
    codes = np.fromiter(map(lookup.__getitem__, items), dtype=np.int64, count=len(items))
    return codes, distinct


def _canonical_codes(values, kind: str) -> tuple:
    """Exact int64 code per value plus a NaN mask for float columns.

    Codes are chosen so code equality == python value equality within
    and across primitive kinds handled by :func:`_align_kinds`:
    booleans use 0/1 (``True == 1``), floats normalize ``-0.0`` and
    bitcast (NaN handled by the mask).
    """
    if kind == "f":
        normalized = values + 0.0  # -0.0 + 0.0 == 0.0
        return normalized.view(np.int64), np.isnan(values)
    return values.astype(np.int64, copy=False), None


def _flat_codes(block: Block):
    """:func:`_column_codes` for a block that is neither lazy nor a
    dictionary. NULL is always the last code, ``cardinality - 1``."""
    arrays = _flat_primitive_arrays(block)
    if arrays is not None:
        values, nulls, kind = arrays
        codes, nan_mask = _canonical_codes(values, kind)
        uniq, inverse = np.unique(codes, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False).reshape(-1)
        inverse = np.where(nulls, np.int64(len(uniq)), inverse)
        nan_rows = None
        if nan_mask is not None and nan_mask.any():
            # Null rows hold arbitrary backing values; only non-null NaNs
            # become singletons.
            nan_rows = nan_mask & ~nulls
        return inverse, len(uniq) + 1, nan_rows
    column = _string_codes(block)
    if column is None:
        return None
    codes, distinct = column
    return codes, len(distinct) + 1, None


def _column_codes(block: Block):
    """Dense per-row codes for one key column.

    Returns ``(codes, cardinality, nan_rows)``: codes are dense in
    ``[0, cardinality)`` with NULL as its own code, and ``nan_rows``
    (when not None) marks non-null NaN rows that must become singleton
    groups. Dictionary blocks are coded in dictionary space — each
    entry coded once, gathered through the indices — instead of
    materializing per-row values. Returns ``None`` for columns that are
    neither primitive nor VARCHAR.
    """
    base, indices = _flatten_dictionary(block)
    if indices is not None and len(base) == 0:
        # Every row is NULL against an empty dictionary.
        return np.zeros(len(indices), dtype=np.int64), 1, None
    column = _flat_codes(base)
    if column is None or indices is None:
        return column
    entry_codes, cardinality, entry_nan = column
    clipped = np.clip(indices, 0, None)
    codes = np.where(indices < 0, np.int64(cardinality - 1), entry_codes[clipped])
    nan_rows = None
    if entry_nan is not None:
        nan_rows = entry_nan[clipped] & (indices >= 0)
    return codes, cardinality, nan_rows


# --------------------------------------------------------------------------
# Factorize: rows -> dense local group ids
# --------------------------------------------------------------------------


class Factorization:
    """Dense group ids for one page, in first-occurrence order.

    ``group_ids[row]`` is the local group of each row; group ``g`` first
    appears at row ``first_positions[g]`` (ascending), matching the
    insertion order a row-at-a-time dict build would produce. Rows whose
    keys contain NaN get singleton groups (NaN never equals NaN).
    """

    __slots__ = ("group_ids", "group_count", "first_positions")

    def __init__(
        self, group_ids: np.ndarray, group_count: int, first_positions: np.ndarray
    ):
        self.group_ids = group_ids
        self.group_count = group_count
        self.first_positions = first_positions


def factorize(blocks: Sequence[Block], row_count: int) -> Optional[Factorization]:
    """Group rows by exact key equality; None when any column is neither
    primitive nor VARCHAR.

    An empty ``blocks`` sequence means a single global group (zero-key
    aggregation).
    """
    if not enabled():
        return None
    if not blocks:
        if row_count == 0:
            return Factorization(
                np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)
            )
        return Factorization(
            np.zeros(row_count, dtype=np.int64), 1, np.zeros(1, dtype=np.int64)
        )
    combined = None
    bound = 1  # every combined code is < bound
    nan_any = None
    for block in blocks:
        column = _column_codes(block)
        if column is None:
            return None
        inverse, cardinality, nan_rows = column
        if nan_rows is not None:
            nan_any = nan_rows if nan_any is None else (nan_any | nan_rows)
        if combined is None:
            combined, bound = inverse, cardinality
            continue
        if bound * cardinality >= 2**62:
            # Re-densify before the mixed-radix code could overflow int64.
            uniq, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64, copy=False).reshape(-1)
            bound = len(uniq)
        # Exact (collision-free) mixed-radix combine.
        combined = combined * cardinality + inverse
        bound *= cardinality
    assert combined is not None
    if nan_any is not None and nan_any.any():
        combined = combined.copy()
        base = np.int64(0 if len(combined) == 0 else int(combined.max()) + 1)
        combined[nan_any] = base + np.arange(int(nan_any.sum()), dtype=np.int64)
    _, first_index, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    inverse = inverse.astype(np.int64, copy=False).reshape(-1)
    # np.unique orders groups by code value; renumber in first-seen order.
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return Factorization(rank[inverse], len(order), first_index[order])


def _column_values(block: Block, positions: np.ndarray) -> list:
    """``[block.get(p) for p in positions]``, gathered in bulk."""
    base, indices = _flatten_dictionary(block)
    nulls = None
    if indices is not None:
        positions = indices[positions]
        nulls = positions < 0
        if nulls.all():
            return [None] * len(positions)
        positions = np.where(nulls, 0, positions)
    if isinstance(base, PrimitiveBlock):
        values = base.values[positions].tolist()
        base_nulls = base.nulls[positions]
        nulls = base_nulls if nulls is None else (nulls | base_nulls)
    elif isinstance(base, ObjectBlock):
        values = list(map(base.items.__getitem__, positions.tolist()))
    elif isinstance(base, RunLengthBlock):
        values = [base.value] * len(positions)
    else:
        values = [base.get(p) for p in positions.tolist()]
    if nulls is not None and nulls.any():
        for j in np.flatnonzero(nulls).tolist():
            values[j] = None
    return values


def key_tuples(blocks: Sequence[Block], positions: np.ndarray) -> list[tuple]:
    """Materialize representative key tuples (python values, row-path
    compatible) for the given positions: each column is gathered once
    and the columns are zipped."""
    positions = np.asarray(positions, dtype=np.int64)
    if not blocks:
        return [()] * len(positions)
    return list(zip(*(_column_values(block, positions) for block in blocks)))


def group_reduce(
    group_ids: np.ndarray, values: np.ndarray, group_count: int, ufunc
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group ``ufunc`` reduction (sort + reduceat, no ufunc.at).

    Returns ``(result, touched)``: result[g] is the reduction over
    the group's values (unspecified where ``touched[g]`` is False).
    """
    counts = np.bincount(group_ids, minlength=group_count)
    touched = counts > 0
    if not len(values):
        # Empty page: nothing to reduce.
        return np.zeros(group_count, dtype=values.dtype), touched
    order = np.argsort(group_ids, kind="stable")
    sorted_values = values[order]
    starts = np.zeros(group_count, dtype=np.int64)
    starts[1:] = np.cumsum(counts[:-1])
    # reduceat requires valid start indices; clamp empty groups onto an
    # arbitrary position and mask them out via ``touched``.
    safe_starts = np.minimum(starts, len(sorted_values) - 1)
    result = ufunc.reduceat(sorted_values, safe_starts)
    return result, touched


# --------------------------------------------------------------------------
# Join multimap
# --------------------------------------------------------------------------


def _mix_hashes(code_columns: list):
    """Internal (non-stable) hash combine for multimap bucketing.

    Collisions only cost verification work — matches are confirmed with
    exact code compares.
    """
    h = np.zeros(len(code_columns[0]), dtype=np.uint64) if code_columns else None
    assert h is not None
    for codes in code_columns:
        u = codes.view(np.uint64)
        u = (u ^ (u >> np.uint64(33))) * _MURMUR_C
        h = h * np.uint64(31) + (u ^ (u >> np.uint64(29)))
    return h


def _align_kinds(probe_codes, probe_kind: str, probe_values, build_kind: str):
    """Re-encode probe codes into the build column's code space.

    Returns ``(codes, unmatchable)`` where ``unmatchable`` marks probe
    rows that cannot equal any build value (e.g. an integer with no
    exact float64 representation probing a double column). Boolean and
    integer columns already share a code space (``True == 1``).
    """
    if probe_kind == build_kind or {probe_kind, build_kind} == {"i", "b"}:
        return probe_codes, None
    if build_kind == "f":
        # int/bool probe into a float build: match exact representations.
        as_float = probe_codes.astype(np.float64)
        with np.errstate(invalid="ignore"):
            in_range = np.abs(as_float) < float(2**63)
        roundtrip = np.where(in_range, as_float, 0.0).astype(np.int64)
        unmatchable = ~(in_range & (roundtrip == probe_codes))
        return _canonical_codes(as_float, "f")[0], unmatchable
    # float probe into an int/bool build: match integral in-range floats.
    floats = probe_values
    with np.errstate(invalid="ignore"):
        integral = np.isfinite(floats) & (np.trunc(floats) == floats)
        in_range = integral & (np.abs(floats) < float(2**63))
    as_int = np.where(in_range, floats, 0.0).astype(np.int64)
    back = as_int.astype(np.float64)
    exact = in_range & (back == np.where(in_range, floats, 0.0))
    return as_int, ~exact


class VectorMultiMap:
    """Build-side of a hash join over primitive keys.

    Valid (non-NULL, non-NaN) build rows are sorted by key hash; a probe
    page is matched in one batch: ``searchsorted`` finds each probe
    hash's candidate run, candidates are expanded with ``repeat``/
    ``cumsum`` arithmetic, and exact per-column code compares drop
    collisions. Emission order matches the row path: probe rows
    ascending, build rows ascending within a probe row.
    """

    def __init__(
        self,
        hashes,
        positions,
        code_columns: list,
        kinds: list[str],
        build_row_count: int,
    ):
        self.hashes = hashes
        self.positions = positions
        self.code_columns = code_columns
        self.kinds = kinds
        self.build_row_count = build_row_count

    @classmethod
    def build(cls, blocks: Sequence[Block], row_count: int) -> Optional["VectorMultiMap"]:
        if not enabled() or not blocks:
            return None
        columns = key_arrays(blocks)
        if columns is None:
            return None
        valid = np.ones(row_count, dtype=np.bool_)
        code_columns = []
        kinds: list[str] = []
        for values, nulls, kind in columns:
            codes, nan_mask = _canonical_codes(values, kind)
            valid &= ~nulls  # SQL equi-joins never match NULL keys
            if nan_mask is not None:
                valid &= ~nan_mask  # NaN never equals NaN
            code_columns.append(codes)
            kinds.append(kind)
        positions = np.flatnonzero(valid).astype(np.int64)
        codes_valid = [codes[positions] for codes in code_columns]
        hashes = (
            _mix_hashes(codes_valid) if len(positions) else np.empty(0, np.uint64)
        )
        order = np.argsort(hashes, kind="stable")
        return cls(
            hashes[order],
            positions[order],
            [codes[order] for codes in codes_valid],
            kinds,
            row_count,
        )

    def probe(
        self, blocks: Sequence[Block], row_count: int
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Match one probe page: ``(probe_rows, build_rows)`` arrays.

        NULL/NaN/unrepresentable probe keys produce no pairs (outer-join
        callers emit those rows with NULL build columns). Returns None
        when the probe keys are object-typed (caller falls back).
        """
        if not enabled():
            return None
        columns = key_arrays(blocks)
        if columns is None:
            return None
        valid = np.ones(row_count, dtype=np.bool_)
        probe_codes = []
        for (values, nulls, kind), build_kind in zip(columns, self.kinds):
            codes, nan_mask = _canonical_codes(values, kind)
            valid &= ~nulls
            if nan_mask is not None:
                valid &= ~nan_mask
            codes, unmatchable = _align_kinds(codes, kind, values, build_kind)
            if unmatchable is not None:
                valid &= ~unmatchable
            probe_codes.append(codes)
        empty = np.empty(0, dtype=np.int64)
        probe_rows = np.flatnonzero(valid).astype(np.int64)
        if not len(probe_rows) or not len(self.hashes):
            return empty, empty
        codes_valid = [codes[probe_rows] for codes in probe_codes]
        hashes = _mix_hashes(codes_valid)
        left = np.searchsorted(self.hashes, hashes, side="left")
        right = np.searchsorted(self.hashes, hashes, side="right")
        counts = right - left
        total = int(counts.sum())
        if total == 0:
            return empty, empty
        probe_sel = np.repeat(np.arange(len(probe_rows), dtype=np.int64), counts)
        run_starts = np.zeros(len(probe_rows), dtype=np.int64)
        run_starts[1:] = np.cumsum(counts[:-1])
        offsets = (
            np.arange(total, dtype=np.int64)
            - np.repeat(run_starts, counts)
            + np.repeat(left, counts)
        )
        keep = np.ones(total, dtype=np.bool_)
        for build_codes, codes in zip(self.code_columns, codes_valid):
            keep &= build_codes[offsets] == codes[probe_sel]
        return probe_rows[probe_sel[keep]], self.positions[offsets[keep]]


# --------------------------------------------------------------------------
# Stable-hash partitioning (shuffle)
# --------------------------------------------------------------------------


def _murmur_int64(values):
    """Vectorized ``stable_hash`` for int64 values (bit-exact)."""
    v = values ^ (values >> np.int64(33))  # arithmetic shift, as python's >>
    u = v.astype(np.uint64) * _MURMUR_C  # wraps mod 2**64 == python's mask
    return (u ^ (u >> np.uint64(33))) & _MASK63


def _hash_primitive(values, nulls, kind: str):
    """Per-value stable hashes for one primitive column, plus a mask of
    float values that overflow the int64 fast path and need the scalar
    fallback."""
    fallback = None
    if kind == "b":
        column_hash = np.where(values, np.uint64(1), np.uint64(2))
    elif kind == "f":
        # stable_hash(float) == stable_hash(int(value * 1_000_003))
        scaled = values * float(_FLOAT_SCALE)
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(scaled) & (np.abs(scaled) < float(2**63))
        bad = ~ok & ~nulls
        if bad.any():
            fallback = bad
        as_int = np.where(ok, scaled, 0.0).astype(np.int64)
        column_hash = _murmur_int64(as_int)
    else:
        column_hash = _murmur_int64(values.astype(np.int64, copy=False))
    if nulls.any():
        column_hash = np.where(nulls, np.uint64(0), column_hash)
    return column_hash, fallback


def _flat_hash(block: Block):
    """:func:`_column_hash` for a block that is neither lazy nor a
    dictionary."""
    arrays = _flat_primitive_arrays(block)
    if arrays is not None:
        return _hash_primitive(*arrays)
    column = _string_codes(block)
    if column is None:
        return None
    codes, distinct = column
    # One scalar stable_hash per distinct string, gathered through the
    # codes; NULL (the last code) hashes to 0.
    entry_hash = np.fromiter(
        map(stable_hash, distinct), dtype=np.uint64, count=len(distinct)
    )
    return np.append(entry_hash, np.uint64(0))[codes], None


def _column_hash(block: Block):
    """Stable column hashes for one key block.

    Dictionary blocks hash once per *entry* and gather through the
    indices (NULL rows hash to 0, as in the scalar path). Returns
    ``None`` for columns that are neither primitive nor VARCHAR.
    """
    base, indices = _flatten_dictionary(block)
    if indices is not None and len(base) == 0:
        return np.zeros(len(indices), dtype=np.uint64), None
    column = _flat_hash(base)
    if column is None or indices is None:
        return column
    entry_hash, entry_fallback = column
    clipped = np.clip(indices, 0, None)
    column_hash = np.where(indices < 0, np.uint64(0), entry_hash[clipped])
    fallback = None
    if entry_fallback is not None:
        fallback = entry_fallback[clipped] & (indices >= 0)
        if not fallback.any():
            fallback = None
    return column_hash, fallback


def hash_rows(blocks: Sequence[Block], row_count: int) -> Optional[np.ndarray]:
    """Batch ``stable_hash(tuple(row))`` over the given key blocks.

    Bit-exact with the scalar function — mandatory, because two sinks
    feeding the same consumer stage may take different paths (one page
    primitive, another object-typed) and must agree on partitions. Rows
    whose float keys overflow the int64 fast path are rehashed through
    the scalar function (preserving its exact behavior, exceptions
    included). Returns None for keys that are neither primitive nor
    VARCHAR.
    """
    if not enabled():
        return None
    h = np.full(row_count, 17, dtype=np.uint64)
    fallback = None
    for block in blocks:
        column = _column_hash(block)
        if column is None:
            return None
        column_hash, column_fallback = column
        if column_fallback is not None:
            fallback = (
                column_fallback if fallback is None else (fallback | column_fallback)
            )
        h = (h * np.uint64(31) + column_hash) & _MASK63
    if fallback is not None and fallback.any():
        for row in np.flatnonzero(fallback):
            key = tuple(block.get(int(row)) for block in blocks)
            h[row] = stable_hash(key)
    return h


def partition_positions(hashes: np.ndarray, count: int) -> list[np.ndarray]:
    """Group row positions by ``hash % count`` (row order preserved).

    The position arrays feed ``Page.copy_positions`` during exchange
    serialization.
    """
    parts = (hashes % np.uint64(count)).astype(np.int64)
    order = np.argsort(parts, kind="stable")
    boundaries = np.searchsorted(parts[order], np.arange(count + 1))
    return [order[boundaries[p] : boundaries[p + 1]] for p in range(count)]


# --------------------------------------------------------------------------
# Dynamic-filter membership (runtime filtering)
# --------------------------------------------------------------------------


def domain_mask(
    values: np.ndarray,
    nulls: np.ndarray,
    kind: str,
    low,
    high,
    in_values=None,
) -> Optional[np.ndarray]:
    """Vectorized keep-mask for a dynamic filter over one primitive
    column: non-null and inside the IN-list (when given) or the
    ``[low, high]`` range. Returns the mask, or ``None`` when the
    filter values are incomparable with the column (caller keeps every
    row — dynamic filters must stay conservative)."""
    keep = ~nulls
    if in_values is not None:
        candidates = np.asarray(in_values)
        if candidates.dtype.kind not in "biuf":
            return None
        with np.errstate(invalid="ignore"):
            keep &= np.isin(values, candidates)
        return keep
    try:
        with np.errstate(invalid="ignore"):
            if low is not None:
                keep &= values >= low
            if high is not None:
                keep &= values <= high
    except TypeError:
        return None
    return keep
