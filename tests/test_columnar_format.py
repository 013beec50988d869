"""Differential unit tests for the vectorized ORC path.

The batch encoder/decoder (`REPRO_KERNELS=vector`, the default) and
the value-at-a-time reference (`REPRO_KERNELS=row`) must agree on
query-visible results in every write-mode x read-mode combination;
the vector decoder must additionally keep dictionary/RLE chunks
encoded across the scan boundary, which the row path deliberately
does not for plain/RLE data. The fuzz configs (`hive`, `raptor`,
`ddl_roundtrip`) cover the same property end to end through SQL;
these tests pin the layer-level behaviours directly.
"""

import math

import numpy as np
import pytest

from repro.client import LocalEngine
from repro.connectors.hashing import stable_hash
from repro.connectors.hive import HiveConnector
from repro.connectors.hive.format import OrcReader, OrcWriter, ReadStats
from repro.connectors.predicate import Domain, Range, TupleDomain
from repro.connectors.raptor import RaptorConnector, RaptorTableHandle
from repro.connectors.tpch import TpchConnector
from repro.exec import kernels
from repro.exec.blocks import (
    DictionaryBlock,
    PrimitiveBlock,
    RunLengthBlock,
    make_block,
)
from repro.exec.page import Page, concat_pages, page_from_rows
from repro.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR

SCHEMA = [("k", BIGINT), ("x", DOUBLE), ("b", BOOLEAN), ("s", VARCHAR)]


def _mixed_rows():
    """Nulls, NaN, signed zeros, low and high cardinality."""
    rows = []
    for i in range(60):
        rows.append(
            (
                i % 7 if i % 11 else None,
                [float(i), -0.0, 0.0, float("nan"), None][i % 5],
                [True, False, None][i % 3],
                f"s{i % 4}" if i % 13 else None,
            )
        )
    return rows


def _write(rows, mode, **kwargs):
    with kernels.forced_mode(mode):
        writer = OrcWriter(SCHEMA, **kwargs)
        writer.add_rows(rows)
        return writer.finish()


def _read(file, mode):
    with kernels.forced_mode(mode):
        reader = OrcReader(file, [name for name, _ in SCHEMA], lazy=False)
        return [row for page in reader.pages() for row in page.rows()]


def _norm(rows):
    def cell(v):
        if isinstance(v, float):
            return "nan" if math.isnan(v) else round(v + 0.0, 6)
        return v

    return [tuple(cell(v) for v in row) for row in rows]


@pytest.mark.parametrize("write_mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("read_mode", [kernels.VECTOR, kernels.ROW])
def test_mode_cross_parity(write_mode, read_mode):
    rows = _mixed_rows()
    file = _write(rows, write_mode, stripe_rows=16)
    assert _norm(_read(file, read_mode)) == _norm(rows)


def test_vector_decode_keeps_chunks_encoded():
    rows = [(i % 5, float(i), True, "const") for i in range(64)]
    file = _write(rows, kernels.VECTOR, stripe_rows=64)
    stripe = file.stripes[0]
    assert stripe.columns["k"].encoding == "dict"
    assert stripe.columns["s"].encoding == "rle"
    with kernels.forced_mode(kernels.VECTOR):
        assert isinstance(stripe.columns["k"].decode(BIGINT), DictionaryBlock)
        # Single run -> RLE block; plain -> flat primitive, no copy.
        assert isinstance(stripe.columns["s"].decode(VARCHAR), RunLengthBlock)
        assert isinstance(stripe.columns["x"].decode(DOUBLE), PrimitiveBlock)
    # Alternating values: many runs, still RLE-eligible? No — 64 runs of
    # one value each falls back to plain/dict; use runs of 8 instead.
    rows = [(i // 8, 0.0, True, "x") for i in range(64)]
    file = _write(rows, kernels.VECTOR, stripe_rows=64)
    chunk = file.stripes[0].columns["k"]
    assert chunk.encoding == "rle" and len(chunk.data) == 8
    with kernels.forced_mode(kernels.VECTOR):
        block = chunk.decode(BIGINT)
        # Multi-run RLE expands as a dictionary over the run values.
        assert isinstance(block, DictionaryBlock)
        assert len(block.dictionary) == 8
    with kernels.forced_mode(kernels.ROW):
        assert isinstance(chunk.decode(BIGINT), PrimitiveBlock)


def test_read_stats_classify_decoded_vs_passthrough():
    rows = [(i % 5, float(i) / 3.0, None, "s") for i in range(64)]
    file = _write(rows, kernels.VECTOR, stripe_rows=64)
    stats = ReadStats()
    with kernels.forced_mode(kernels.VECTOR):
        reader = OrcReader(file, ["k", "x", "s"], lazy=False, stats=stats)
        list(reader.pages())
    # k (dict) and s (single-run RLE) pass encoded; x (plain) decodes.
    assert stats.rows_passed_encoded == 128
    assert stats.rows_decoded == 64


def test_nan_disables_minmax_but_not_reads():
    rows = [(i, float("nan") if i == 7 else float(i), None, "s") for i in range(16)]
    for mode in (kernels.VECTOR, kernels.ROW):
        file = _write(rows, mode, stripe_rows=16)
        chunk = file.stripes[0].columns["x"]
        assert chunk.min_value is None and chunk.max_value is None
        # No statistics -> the stripe cannot be pruned on x.
        stats = ReadStats()
        constraint = TupleDomain({"x": Domain.range(Range(3.0, 4.0))})
        with kernels.forced_mode(mode):
            reader = OrcReader(file, ["x"], constraint, lazy=False, stats=stats)
            list(reader.pages())
        assert stats.stripes_read == 1


def test_concat_pages_preserves_shared_encoding():
    dictionary = PrimitiveBlock(BIGINT, np.array([10, 20, 30]))
    pages = [
        Page([DictionaryBlock(dictionary, np.array([0, 1, 2]))], 3),
        Page([DictionaryBlock(dictionary, np.array([2, 2, 0]))], 3),
    ]
    out = concat_pages(pages)
    block = out.block(0)
    assert isinstance(block, DictionaryBlock)
    assert block.dictionary is dictionary
    assert block.to_values() == [10, 20, 30, 30, 30, 10]

    value = "shared"
    rle_pages = [
        Page([RunLengthBlock(value, 4)], 4),
        Page([RunLengthBlock(value, 2)], 2),
    ]
    out = concat_pages(rle_pages)
    assert isinstance(out.block(0), RunLengthBlock)
    assert out.row_count == 6

    # Different dictionaries fall back to a materialized block with the
    # same values.
    other = PrimitiveBlock(BIGINT, np.array([10, 20, 30]))
    mixed = [
        Page([DictionaryBlock(dictionary, np.array([0, 1]))], 2),
        Page([DictionaryBlock(other, np.array([1, 0]))], 2),
    ]
    assert concat_pages(mixed).block(0).to_values() == [10, 20, 20, 10]


def _hive_engine(mode):
    with kernels.forced_mode(mode):
        engine = LocalEngine(catalog="hive", schema="default")
        hive = HiveConnector(stripe_rows=64, max_rows_per_file=128)
        engine.register_catalog("hive", hive)
        engine.register_catalog("tpch", TpchConnector(scale_factor=0.001))
        engine.execute(
            "CREATE TABLE p WITH (partitioned_by = 'orderstatus') AS "
            "SELECT orderkey, totalprice, orderstatus FROM tpch.tiny.orders"
        )
        return hive


def test_hive_sink_batch_matches_row_layout():
    """The factorized partition sink must produce the same files with
    the same row counts as the reference per-row sink — file layout is
    query-visible through splits and $path-style accounting."""
    layouts = {}
    for mode in (kernels.VECTOR, kernels.ROW):
        hive = _hive_engine(mode)
        table = hive.metastore.require_table("default", "p")
        layouts[mode] = {
            partition: [
                (path, hive.dfs.stat(path).payload.row_count)
                for path in sorted(partition_info.file_paths)
            ]
            for partition, partition_info in table.partitions.items()
        }
    assert layouts[kernels.VECTOR] == layouts[kernels.ROW]


def test_raptor_sink_batch_matches_row_buckets():
    """Batch bucket assignment (kernels.hash_rows) must agree with the
    scalar stable_bucket loop shard for shard."""
    contents = {}
    for mode in (kernels.VECTOR, kernels.ROW):
        with kernels.forced_mode(mode):
            engine = LocalEngine(catalog="raptor", schema="default")
            raptor = RaptorConnector(hosts=["h0", "h1"])
            engine.register_catalog("raptor", raptor)
            engine.register_catalog("tpch", TpchConnector(scale_factor=0.001))
            engine.execute(
                "CREATE TABLE b WITH (bucketed_by = 'orderkey', bucket_count = 8) "
                "AS SELECT orderkey, totalprice FROM tpch.tiny.orders"
            )
            rows = engine.execute(
                "SELECT orderkey, count(*) FROM b GROUP BY 1"
            ).rows
            table = raptor.table(RaptorTableHandle("default", "b"))
            contents[mode] = (
                sorted(rows),
                sorted(
                    (shard.shard_id, shard.bucket, shard.file.row_count)
                    for shard in table.shards
                ),
            )
    assert contents[kernels.VECTOR] == contents[kernels.ROW]


def test_hash_rows_float_overflow_matches_scalar_hash():
    """1e300 overflows the int64 fast path of kernels.hash_rows; those
    rows are rehashed through the scalar function, so every row must
    still equal stable_hash of its key tuple."""
    values = [1.5, 1e300, -2.5, 4.0, None, -1e300]
    block = make_block(DOUBLE, values)
    with kernels.forced_mode(kernels.VECTOR):
        hashes = kernels.hash_rows([block], len(values))
    assert hashes.tolist() == [stable_hash((v,)) for v in values]
