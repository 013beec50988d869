"""Multi-way agreement runner.

Executes one fuzz case through sixteen engine configurations and compares
every result against the reference oracle:

1. ``interpreter`` — unoptimized plan, row-at-a-time interpreted
   expression evaluation (no compiler, no vectorization)
2. ``compiled``    — unoptimized plan, compiled page processor
3. ``optimized``   — full optimizer rules, local execution
4. ``row_kernels`` — like ``optimized`` but with the vectorized hash
   kernels (repro.exec.kernels) forced onto the scalar row path, so the
   vector and row hash implementations are differentially tested
5. ``cluster``     — SimCluster: fragmented, scheduled, shuffled
6. ``cluster_faults`` — SimCluster with transient transfer failures
   plus a mid-query worker crash; the client retries per paper Sec. IV-G
7. ``chaos``       — SimCluster with fault tolerance enabled: a worker
   is crashed mid-query and transfers suffer transient failures and
   duplication, but heartbeat detection plus task-level recovery must
   complete the query bit-exactly *without* a client retry
8. ``dynamic_filter`` — SimCluster with runtime dynamic filtering
   forced onto every eligible join edge (selectivity threshold 1.0,
   nonzero wait) — filters on must agree bit-exactly with filters off
9. ``hive``        — SimCluster over the Hive connector with tiny
   stripes/files and Bloom metadata on every column, dynamic filters
   forced, so stripe skipping and split pruning engage
10. ``raptor``     — SimCluster over the Raptor connector (node-pinned
   shards, tiny stripes), dynamic filters forced, exercising shard
   pruning
11. ``ddl_roundtrip`` — the case tables are CTAS'd from a memory
   catalog into Hive (encoded ORC-like write) and from Hive into
   Raptor, then the case query runs against the twice-round-tripped
   Raptor copies — the encoded write/decode paths must be lossless
12. ``cache_coherence`` — the case query runs repeatedly on a
   Hive-backed cluster with the full caching tier enabled (metadata,
   plan, result, and stripe caches + affinity scheduling,
   docs/CACHING.md) while random deterministic DDL/INSERT mutations are
   interleaved between runs; after every mutation the cached cluster
   must agree with an identical uncached twin, and a repeat with no
   intervening mutation must be served bit-identically from the result
   cache — any stale answer raises ``CacheCoherenceError``
13. ``fused`` — SimCluster with pipeline fusion (repro.exec.pipeline)
   forced on for every eligible chain, regardless of the kernel mode:
   under ``REPRO_KERNELS=row`` this differentially tests the fused
   single-pass pipelines against the fully unfused row-at-a-time
   oracle path
14. ``spooled`` — SimCluster with fault tolerance *and* the durable
   output spool enabled, under an asymmetric network partition that
   later heals plus a worker crash: spool reads, partition-aware
   detection, re-admission fencing, and ack-driven buffer GC must all
   keep the result bit-exact with no client retry
15. ``join_spill`` — SimCluster whose general memory pool is far
   smaller than any join/aggregation state with spilling enabled, so
   memory revocation (HashBuild/sort/aggregation spill-and-merge)
   engages on stateful queries and must not change a byte of output
16. ``rewrites`` — LocalEngine with every rewrite rule of the
   repro.planner.rules pack enabled and their cost guards disabled, so
   each eligible shape actually rewrites (decorrelation, scan
   consolidation, set-op semi joins, CTE pushdown); the oracle runs
   the naive plans (scalar subqueries stay nested-loop apply joins),
   making this a true rules-on vs rules-off differential. Run the
   campaign under ``REPRO_KERNELS=row`` as well to cross the rewrites
   with the row-path hash kernels

Errors are outcomes too: if the oracle raises, every configuration must
raise an error of the same class.

Floats are normalized by rounding to 6 digits before comparison — the
cluster's partial aggregation legitimately reorders additions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.client.session import LocalEngine
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.errors import WorkerFailedError
from repro.exec import kernels
from repro.fuzz.grammar import FeatureMask, FuzzCase, TableSpec, generate_case
from repro.fuzz.oracle import run_oracle
from repro.types import BIGINT, DOUBLE, VARCHAR

CONFIG_NAMES = (
    "interpreter",
    "compiled",
    "optimized",
    "row_kernels",
    "cluster",
    "cluster_faults",
    "chaos",
    "dynamic_filter",
    "hive",
    "raptor",
    "ddl_roundtrip",
    "cache_coherence",
    "fused",
    "spooled",
    "join_spill",
    "rewrites",
)

# The case currently (or most recently) executing. Deliberately NOT
# cleared after a check: tests assert on check_case's result *after* it
# returns, and tests/conftest.py reads this to print the failing seed.
CURRENT_CASE: Optional[FuzzCase] = None

_TYPE_NAMES = {"bigint": BIGINT, "double": DOUBLE, "varchar": VARCHAR}


@dataclass
class Outcome:
    """Result of one configuration: rows or an error class name."""

    rows: Optional[list[tuple]] = None
    error: Optional[str] = None
    ordered_rows: Optional[list[tuple]] = None  # pre-sort, for ORDER BY checks

    def key(self):
        if self.error is not None:
            return ("error", self.error)
        return ("rows", tuple(self.rows))


@dataclass
class Disagreement:
    config: str
    sql: str
    seed: Optional[int]
    expected: Outcome
    actual: Outcome
    detail: str = ""

    def __str__(self) -> str:
        lines = [
            f"config {self.config!r} disagrees with oracle"
            + (f" (seed {self.seed})" if self.seed is not None else ""),
            f"  sql: {self.sql}",
        ]
        if self.detail:
            lines.append(f"  {self.detail}")
        lines.append(f"  oracle: {_preview(self.expected)}")
        lines.append(f"  actual: {_preview(self.actual)}")
        return "\n".join(lines)


def _preview(outcome: Outcome, limit: int = 8) -> str:
    if outcome.error is not None:
        return f"error {outcome.error}"
    rows = outcome.rows or []
    shown = ", ".join(repr(r) for r in rows[:limit])
    suffix = f", ... ({len(rows)} rows)" if len(rows) > limit else f" ({len(rows)} rows)"
    return f"[{shown}]{suffix}"


# --------------------------------------------------------------------------
# Normalization
# --------------------------------------------------------------------------


def normalize_value(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, float):
        rounded = round(value, 6)
        # Avoid -0.0 vs 0.0 flakes.
        return 0.0 if rounded == 0 else rounded
    if isinstance(value, int):
        return int(value)
    return value


def normalize_rows(rows) -> list[tuple]:
    """Round floats and sort as a multiset (repr order)."""
    out = [tuple(normalize_value(v) for v in row) for row in rows]
    out.sort(key=repr)
    return out


def _check_sorted(rows, order_spec) -> bool:
    """Rows (already normalized values) must be sorted per order_spec."""

    def compare(a, b):
        for channel, ascending, nulls_first in order_spec:
            x, y = a[channel], b[channel]
            if x is None and y is None:
                continue
            if x is None:
                return -1 if nulls_first else 1
            if y is None:
                return 1 if nulls_first else -1
            if x == y:
                continue
            less = x < y
            if ascending:
                return -1 if less else 1
            return 1 if less else -1
        return 0

    normalized = [tuple(normalize_value(v) for v in row) for row in rows]
    return all(
        compare(normalized[i], normalized[i + 1]) <= 0
        for i in range(len(normalized) - 1)
    )


# --------------------------------------------------------------------------
# Engine construction
# --------------------------------------------------------------------------


def load_tables(connector: MemoryConnector, tables: list[TableSpec]) -> None:
    for table in tables:
        connector.create_table_with_data(
            "memory", "default", table.name, table.column_defs(), list(table.rows)
        )


def _local_engine(tables, optimize: bool, interpreted: bool) -> LocalEngine:
    engine = LocalEngine(optimize=optimize, interpreted=interpreted)
    connector = MemoryConnector()
    load_tables(connector, tables)
    engine.register_catalog("memory", connector)
    return engine


def _forced_rewrites_optimizer():
    """Every rewrite rule on with cost guards disabled, so eligible
    shapes always rewrite regardless of stats (the knobs default on;
    the guards are what usually hold a rewrite back on tiny tables)."""
    from repro.optimizer.context import OptimizerConfig

    return OptimizerConfig(rewrite_cost_guards=False)


def _forced_df_optimizer():
    """Force dynamic filters onto every eligible join edge and make the
    split scheduler actually wait for them, so the filtered code paths
    (page masks, split pruning, wait policy) run on small fuzz tables."""
    from repro.optimizer.context import OptimizerConfig

    return OptimizerConfig(
        dynamic_filter_selectivity_threshold=1.0,
        dynamic_filter_wait_ms=5.0,
    )


def _cluster(
    tables,
    faults: bool,
    recovery: bool = False,
    dynamic_filters: bool = False,
    spool: bool = False,
) -> SimCluster:
    from repro.cluster import FaultToleranceConfig

    config = ClusterConfig(
        worker_count=3,
        default_catalog="memory",
        default_schema="default",
        transient_failure_rate=0.05 if faults else 0.0,
        transfer_duplicate_rate=0.05 if recovery else 0.0,
        fault_tolerance=FaultToleranceConfig(
            enabled=recovery, spool_enabled=spool
        ),
    )
    if dynamic_filters:
        config.optimizer = _forced_df_optimizer()
    cluster = SimCluster(config)
    connector = MemoryConnector()
    load_tables(connector, tables)
    cluster.register_catalog("memory", connector)
    return cluster


def _connector_cluster(tables, kind: str) -> SimCluster:
    """A cluster whose default catalog is a real storage connector (Hive
    or Raptor) with tiny stripes/files, so stripe skipping, Bloom
    metadata, and dynamic-filter split pruning all engage on fuzz-sized
    tables — differentially tested against the same oracle."""
    config = ClusterConfig(
        worker_count=3,
        default_catalog="memory",
        default_schema="default",
        optimizer=_forced_df_optimizer(),
    )
    cluster = SimCluster(config)
    if kind == "hive":
        from repro.connectors.hive import HiveConnector

        connector = HiveConnector(
            stripe_rows=16,
            max_rows_per_file=32,
            bloom_columns=("k", "n", "m", "x", "y", "s", "u"),
        )
    else:
        from repro.connectors.raptor import RaptorConnector

        connector = RaptorConnector(
            hosts=[f"worker-{i}" for i in range(3)],
            catalog_name="memory",
            stripe_rows=16,
            max_rows_per_shard=32,
        )
    from repro.workload.datasets import _load_table

    for table in tables:
        _load_table(
            connector,
            "memory",
            "default",
            table.name,
            [(c.name, c.type) for c in table.columns],
            list(table.rows),
        )
    cluster.register_catalog("memory", connector)
    return cluster


def _ddl_roundtrip_cluster(tables) -> SimCluster:
    """CTAS round-trip over the encoded write path (ROADMAP item): the
    case tables load into a ``mem`` catalog, are CTAS'd into a Hive
    catalog (batch ORC-like encode with tiny stripes/files and Bloom
    metadata), then CTAS'd from Hive into the default Raptor catalog
    (a second encoded write from decoded/passthrough blocks). The case
    query then runs against data that survived two write/read round
    trips and must stay bit-exact with the oracle on the original
    rows."""
    from repro.connectors.hive import HiveConnector
    from repro.connectors.raptor import RaptorConnector

    config = ClusterConfig(
        worker_count=3,
        default_catalog="memory",
        default_schema="default",
        optimizer=_forced_df_optimizer(),
    )
    cluster = SimCluster(config)
    source = MemoryConnector()
    for table in tables:
        source.create_table_with_data(
            "mem", "default", table.name, table.column_defs(), list(table.rows)
        )
    cluster.register_catalog("mem", source)
    cluster.register_catalog(
        "hivec",
        HiveConnector(
            stripe_rows=16,
            max_rows_per_file=32,
            bloom_columns=("k", "n", "m", "x", "y", "s", "u"),
        ),
    )
    cluster.register_catalog(
        "memory",
        RaptorConnector(
            hosts=[f"worker-{i}" for i in range(3)],
            catalog_name="memory",
            stripe_rows=16,
            max_rows_per_shard=32,
        ),
    )
    for table in tables:
        for ddl in (
            f"CREATE TABLE hivec.default.{table.name} AS "
            f"SELECT * FROM mem.default.{table.name}",
            f"CREATE TABLE memory.default.{table.name} AS "
            f"SELECT * FROM hivec.default.{table.name}",
        ):
            handle = cluster.run_query(ddl)
            if handle.state != "finished":
                raise handle.error
    return cluster


def _capture(fn: Callable[[], list[tuple]]) -> Outcome:
    try:
        rows = fn()
    except Exception as exc:  # errors are outcomes, compared by class
        return Outcome(error=type(exc).__name__)
    return Outcome(rows=normalize_rows(rows), ordered_rows=list(rows))


def _run_faulted(tables, sql: str) -> list[tuple]:
    """Fault-injected run: transient transfer failures are retried by the
    cluster transparently; a worker crash mid-query fails the query and
    the client retries on the surviving workers (paper Sec. IV-G)."""
    cluster = _cluster(tables, faults=True)
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    crash_victims = cluster.crash_worker("worker-2")
    cluster.run()
    if handle.state == "finished" and handle.query_id not in crash_victims:
        return handle.rows()
    if not isinstance(handle.error, WorkerFailedError):
        raise handle.error
    # Client-side retry on the remaining workers.
    retry = cluster.run_query(sql)
    return retry.rows()


def _run_chaos(tables, sql: str) -> list[tuple]:
    """Fault-tolerant run: a worker crash mid-query plus transient and
    duplicated transfers; heartbeat detection and task-level recovery
    must complete the query on the survivors with bit-exact results —
    no client retry allowed."""
    cluster = _cluster(tables, faults=True, recovery=True)
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-2")
    cluster.run()
    if handle.state == "failed":
        raise handle.error
    return handle.rows()


def _run_spooled(tables, sql: str) -> list[tuple]:
    """Spool + partition run: one worker is cut off asymmetrically
    (it can send, nothing reaches it) and healed later, while another
    crashes outright. The durable spool must serve drained streams of
    both victims, the healed worker's stale attempts must be fenced on
    re-admission, and the query must finish bit-exactly without a
    client retry."""
    cluster = _cluster(tables, faults=True, recovery=True, spool=True)
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    cluster.partition_worker("worker-1", one_way=True)
    cluster.sim.run(until_ms=cluster.sim.now + 250.0)
    cluster.heal_partition("worker-1")
    cluster.crash_worker("worker-2")
    cluster.run()
    if handle.state == "failed":
        raise handle.error
    return handle.rows()


def _run_join_spill(tables, sql: str) -> list[tuple]:
    """Memory-pressure run: the general pool is far smaller than any
    join/aggregation state and spilling is on, so memory revocation
    (HashBuild/sort/aggregation spill-and-merge) engages on stateful
    queries — and must not change a byte of output."""
    config = ClusterConfig(
        worker_count=3,
        default_catalog="memory",
        default_schema="default",
        node_memory_bytes=52_000,
        reserved_pool_bytes=50_000,
        spill_enabled=True,
    )
    cluster = SimCluster(config)
    connector = MemoryConnector()
    load_tables(connector, tables)
    cluster.register_catalog("memory", connector)
    return cluster.run_query(sql).rows()


class CacheCoherenceError(Exception):
    """A cached cluster disagreed with its uncached twin — the caching
    tier served a stale (or otherwise wrong) answer."""


def _cached_hive_cluster(tables, cache_config) -> SimCluster:
    """A Hive-backed cluster (tiny stripes/files so the stripe cache and
    affinity scheduling engage) with the given cache configuration."""
    from repro.connectors.hive import HiveConnector
    from repro.workload.datasets import _load_table

    config = ClusterConfig(
        worker_count=3,
        default_catalog="memory",
        default_schema="default",
        optimizer=_forced_df_optimizer(),
        cache=cache_config,
    )
    cluster = SimCluster(config)
    connector = HiveConnector(
        stripe_rows=16,
        max_rows_per_file=32,
        bloom_columns=("k", "n", "m", "x", "y", "s", "u"),
    )
    for table in tables:
        _load_table(
            connector,
            "memory",
            "default",
            table.name,
            [(c.name, c.type) for c in table.columns],
            list(table.rows),
        )
    cluster.register_catalog("memory", connector)
    return cluster


def _coherence_mutations(tables) -> tuple[str, ...]:
    """Mutations interleaved between runs of the case query, derived
    from the case's own tables (repro cases use arbitrary names, not
    just the grammar's t0/t1). Each is deterministic as a multiset (no
    bare LIMIT / sampling), so the cached and uncached clusters stay
    row-for-row comparable after applying it."""
    mutations = []
    for table in tables:
        mutations.append(f"INSERT INTO {table.name} SELECT * FROM {table.name}")
        mutations.append(f"ctas_drop:{table.name}")
    return tuple(mutations)


def _run_cache_coherence(tables, sql: str) -> list[tuple]:
    """Differential cache-coherence check (docs/CACHING.md test battery).

    Runs ``sql`` on a fully-cached Hive cluster and an identical
    uncached twin; interleaves deterministic DDL/INSERT mutations and
    re-runs after each one. Every divergence — including a result-cache
    repeat that is not bit-identical — raises ``CacheCoherenceError``.
    Returns the *first* (pre-mutation) rows so the outcome matches the
    oracle, which only knows the original tables.
    """
    import random

    from repro.cache import CacheConfig
    from repro.connectors.hashing import stable_hash

    cached = _cached_hive_cluster(tables, CacheConfig.full(metadata_latency_ms=0.5))
    plain = _cached_hive_cluster(tables, CacheConfig.disabled())

    def run_both(context: str) -> list[tuple]:
        try:
            cached_rows = cached.run_query(sql, drain=True).rows()
            cached_error = None
        except Exception as exc:
            cached_rows, cached_error = None, exc
        try:
            plain_rows = plain.run_query(sql, drain=True).rows()
            plain_error = None
        except Exception as exc:
            plain_rows, plain_error = None, exc
        cached_key = (
            ("error", type(cached_error).__name__)
            if cached_error is not None
            else ("rows", tuple(normalize_rows(cached_rows)))
        )
        plain_key = (
            ("error", type(plain_error).__name__)
            if plain_error is not None
            else ("rows", tuple(normalize_rows(plain_rows)))
        )
        if cached_key != plain_key:
            raise CacheCoherenceError(
                f"cached cluster diverged from uncached twin {context}: "
                f"cached={cached_key[:1] + (str(cached_key[1])[:200],)} "
                f"plain={plain_key[:1] + (str(plain_key[1])[:200],)}"
            )
        if cached_error is not None:
            raise cached_error
        return cached_rows

    first = run_both("on the initial run")
    # Repeat with no intervening mutation: the second run must be served
    # from the result cache, bit-identical (not merely multiset-equal).
    repeat = cached.run_query(sql, drain=True)
    if repeat.result_cache_status == "hit" and repeat.rows() != first:
        raise CacheCoherenceError("result-cache repeat was not bit-identical")
    if repeat.result_cache_status not in ("hit", "miss", "off"):
        raise CacheCoherenceError(
            f"unexpected result-cache status {repeat.result_cache_status!r}"
        )

    rng = random.Random(stable_hash(sql) & 0xFFFFFFFF)
    mutations = _coherence_mutations(tables)
    for mutation in rng.sample(mutations, min(2, len(mutations))):
        if mutation.startswith("ctas_drop:"):
            victim = mutation.split(":", 1)[1]
            for cluster in (cached, plain):
                cluster.run_query(
                    f"CREATE TABLE tmp_cc AS SELECT * FROM {victim}", drain=True
                )
                # Out-of-band drop through the metadata API (the planner
                # has no DROP TABLE): invalidation must still propagate
                # via the connector's version bump.
                handle = cluster.metadata.require_table(
                    "memory", "default", "tmp_cc"
                )
                cluster.metadata.drop_table(handle)
        else:
            for cluster in (cached, plain):
                cluster.run_query(mutation, drain=True)
        run_both(f"after {mutation!r}")
    return first


def run_config(name: str, case_tables, sql: str) -> Outcome:
    if name == "oracle":
        connector = MemoryConnector()
        load_tables(connector, case_tables)
        from repro.catalog.metadata import Metadata

        metadata = Metadata()
        metadata.register_catalog("memory", connector)
        return _capture(lambda: run_oracle(metadata, sql)[1])
    if name == "interpreter":
        engine = _local_engine(case_tables, optimize=False, interpreted=True)
        return _capture(lambda: engine.execute(sql).rows)
    if name == "compiled":
        engine = _local_engine(case_tables, optimize=False, interpreted=False)
        return _capture(lambda: engine.execute(sql).rows)
    if name == "optimized":
        engine = _local_engine(case_tables, optimize=True, interpreted=False)
        return _capture(lambda: engine.execute(sql).rows)
    if name == "row_kernels":
        engine = _local_engine(case_tables, optimize=True, interpreted=False)

        def run_row_mode() -> list[tuple]:
            with kernels.forced_mode(kernels.ROW):
                return engine.execute(sql).rows

        return _capture(run_row_mode)
    if name == "cluster":
        cluster = _cluster(case_tables, faults=False)
        return _capture(lambda: cluster.run_query(sql).rows())
    if name == "cluster_faults":
        return _capture(lambda: _run_faulted(case_tables, sql))
    if name == "chaos":
        return _capture(lambda: _run_chaos(case_tables, sql))
    if name == "dynamic_filter":
        cluster = _cluster(case_tables, faults=False, dynamic_filters=True)
        return _capture(lambda: cluster.run_query(sql).rows())
    if name == "hive":
        cluster = _connector_cluster(case_tables, "hive")
        return _capture(lambda: cluster.run_query(sql).rows())
    if name == "raptor":
        cluster = _connector_cluster(case_tables, "raptor")
        return _capture(lambda: cluster.run_query(sql).rows())
    if name == "ddl_roundtrip":

        def run_roundtrip() -> list[tuple]:
            # Construct inside the capture: a CTAS failure is an outcome
            # (compared against the oracle), not a harness crash.
            cluster = _ddl_roundtrip_cluster(case_tables)
            return cluster.run_query(sql).rows()

        return _capture(run_roundtrip)
    if name == "cache_coherence":
        return _capture(lambda: _run_cache_coherence(case_tables, sql))
    if name == "fused":
        from repro.exec import pipeline

        cluster = _cluster(case_tables, faults=False)

        def run_forced_fusion() -> list[tuple]:
            with pipeline.forced_fusion(pipeline.ON):
                return cluster.run_query(sql).rows()

        return _capture(run_forced_fusion)
    if name == "rewrites":
        engine = _local_engine(case_tables, optimize=True, interpreted=False)
        engine.optimizer_config = _forced_rewrites_optimizer()
        return _capture(lambda: engine.execute(sql).rows)
    if name == "spooled":
        return _capture(lambda: _run_spooled(case_tables, sql))
    if name == "join_spill":
        return _capture(lambda: _run_join_spill(case_tables, sql))
    raise ValueError(f"unknown config {name!r}")


# --------------------------------------------------------------------------
# Agreement checking
# --------------------------------------------------------------------------


def check_tables_sql(
    tables: list[TableSpec] | list[tuple],
    sql: str,
    seed: Optional[int] = None,
    configs=CONFIG_NAMES,
    order_spec=(),
) -> list[Disagreement]:
    """Run ``sql`` over ``tables`` through the oracle plus ``configs``
    and return every disagreement (empty list = full agreement).

    ``tables`` may be TableSpec objects or plain
    ``(name, [(column, type_name)], rows)`` tuples (the reproducer file
    format).
    """
    specs = [_coerce_table(t) for t in tables]
    oracle = run_config("oracle", specs, sql)
    disagreements: list[Disagreement] = []
    for name in configs:
        outcome = run_config(name, specs, sql)
        if outcome.key() != oracle.key():
            disagreements.append(
                Disagreement(name, sql, seed, expected=oracle, actual=outcome)
            )
            continue
        if order_spec and outcome.ordered_rows is not None:
            if not _check_sorted(outcome.ordered_rows, order_spec):
                disagreements.append(
                    Disagreement(
                        name,
                        sql,
                        seed,
                        expected=oracle,
                        actual=outcome,
                        detail="output violates the query's ORDER BY",
                    )
                )
    return disagreements


def _coerce_table(table) -> TableSpec:
    if isinstance(table, TableSpec):
        return table
    from repro.fuzz.grammar import ColumnSpec

    name, columns, rows = table
    return TableSpec(
        name,
        [ColumnSpec(c, _TYPE_NAMES[t]) for c, t in columns],
        [tuple(r) for r in rows],
    )


def check_case(case: FuzzCase, configs=CONFIG_NAMES) -> list[Disagreement]:
    global CURRENT_CASE
    CURRENT_CASE = case
    return check_tables_sql(
        case.tables,
        case.sql,
        seed=case.seed,
        configs=configs,
        order_spec=case.order_spec,
    )


@dataclass
class CampaignResult:
    cases: int
    disagreements: list[Disagreement]
    failing_case: Optional[FuzzCase] = None


def run_campaign(
    seed: int,
    iterations: int,
    features: FeatureMask | None = None,
    configs=CONFIG_NAMES,
    stop_on_failure: bool = True,
    progress: Optional[Callable[[int, FuzzCase], None]] = None,
) -> CampaignResult:
    """Check ``iterations`` consecutive seeds starting at ``seed``."""
    all_disagreements: list[Disagreement] = []
    failing = None
    count = 0
    for i in range(iterations):
        case = generate_case(seed + i, features)
        if progress is not None:
            progress(i, case)
        found = check_case(case, configs)
        count += 1
        if found:
            all_disagreements.extend(found)
            failing = case
            if stop_on_failure:
                break
    return CampaignResult(count, all_disagreements, failing)
