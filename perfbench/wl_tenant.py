"""tenant_mix: the four Table I deployments sharing one cluster.

Each unit is one batch: HORIZON_MS of virtual time of the four Table I
generators (``repro.workload.generators``) merged onto one timeline and
run as a single host batch (an open loop in virtual time) on a fresh
8-worker coordinator over Hive (SF 0.01), Raptor and sharded-SQL
catalogs. Each generator contributes HORIZON_MS / its
``mean_inter_arrival_ms`` queries (400 developer analytics, 10 A/B
testing, 5 interactive, 1 batch ETL), arriving at the running sum of
their own ``inter_arrival_ms`` gaps, so the mix and the arrival rate are
the generators'. The counts are fixed so the work does not swing with
the seed; for the same reason the interactive and ETL queries, too few
per batch to average out, take their shapes in turn (interactive cycles
through its six shapes across the run, the ETL CTAS through its three)
instead of at random.

The DES interleaves the batch's queries on one thread. A query's latency
here is the host wall from its ``submit`` call until the cluster reports
it finished, so it includes the simulation of whatever ran beside it.

Answers are checked against a single-node ``LocalEngine`` over the same
connectors, outside the timed region. A CTAS is checked by its row count
and by reading the written table back; the table is then dropped.
"""

from __future__ import annotations

import re
import time

from harness import Collector, top_n_match

NAME = "tenant_mix"
WORKERS = 8
HIVE_SCALE = 0.01
#: Virtual length of one batch: batch ETL arrives once per 20 s on
#: average, so each batch holds one CTAS.
HORIZON_MS = 20_000.0
INTERACTIVE_SHAPES = (
    "SELECT orderpriority",
    "JOIN nation",
    "FROM lineitem WHERE shipdate",
    "SELECT custkey, sum",
    "SELECT * FROM orders",
    "SELECT mktsegment",
)
ETL_SHAPES = ("JOIN lineitem", "WHERE returnflag", "JOIN customer")
#: Host seconds one batch took on the reference machine (sizes the work).
NOMINAL_BATCH_S = 8.0
#: ``ORDER BY <ordinals> LIMIT n`` at the end of a query.
TOP_N = re.compile(r"ORDER BY ((?:\d+(?: DESC| ASC)?(?:, )?)+) LIMIT (\d+)$")
CATALOGS = {
    "dev_advertiser": "shardedsql",
    "ab_testing": "raptor",
    "interactive": "hive",
    "batch_etl": "hive",
}


def _pick(generator, markers, wanted):
    """Draw from ``generator`` until a query matching ``markers[wanted]``
    comes up (the generators pick shapes at random)."""
    for _ in range(1000):
        query = generator.make_query()
        if markers[wanted] in query.sql:
            return query
    raise RuntimeError(f"{generator.name}: shape {markers[wanted]!r} never drawn")


class Tenant:
    name = NAME

    def __init__(self, seed: int):
        self.seed = seed
        self.catalogs = {}
        self.reference = None
        self._answers: dict[tuple, list] = {}

    def units(self, seconds: float) -> int:
        return max(2, round(seconds / NOMINAL_BATCH_S))

    def connectors(self) -> dict:
        return self.catalogs

    def setup(self, warmup: Collector) -> None:
        from repro.client import LocalEngine
        from repro.connectors.hive import HiveConnector
        from repro.connectors.raptor import RaptorConnector
        from repro.connectors.shardedsql import ShardedSqlConnector
        from repro.workload import (
            setup_ab_testing_dataset,
            setup_developer_analytics_dataset,
            setup_warehouse_dataset,
        )

        hive = HiveConnector()
        raptor = RaptorConnector(hosts=[f"worker-{i}" for i in range(WORKERS)])
        sharded = ShardedSqlConnector(shard_count=16)
        setup_warehouse_dataset(hive, scale_factor=HIVE_SCALE)
        setup_ab_testing_dataset(raptor, users=8_000, events=40_000)
        setup_developer_analytics_dataset(sharded, advertisers=400, rows=20_000)
        self.catalogs = {"hive": hive, "raptor": raptor, "shardedsql": sharded}
        self.reference = LocalEngine(catalog="hive", schema="default")
        for name, connector in self.catalogs.items():
            self.reference.register_catalog(name, connector)
        self._answers = {}
        self.run_unit(-1, warmup)

    def batch(self, unit: int) -> list:
        """The unit's queries as (arrival_ms, WorkloadQuery), by arrival."""
        from repro.workload import (
            ABTestingWorkload,
            BatchEtlWorkload,
            DeveloperAnalyticsWorkload,
            InteractiveAnalyticsWorkload,
        )

        base = (self.seed * 1_000_003 + unit * 7_919) * 4
        dev_gen = DeveloperAnalyticsWorkload(advertisers=400, seed=base + 1)
        ab_gen = ABTestingWorkload(seed=base + 2)
        interactive_gen = InteractiveAnalyticsWorkload(seed=base + 3)
        etl_gen = BatchEtlWorkload(seed=base + 4)
        if unit < 0:
            # Warm-up: every shape once, few of the cheap ones.
            streams = [
                dev_gen.queries(12),
                ab_gen.queries(1),
                [_pick(interactive_gen, INTERACTIVE_SHAPES, i)
                 for i in range(len(INTERACTIVE_SHAPES))],
                [_pick(etl_gen, ETL_SHAPES, i) for i in range(len(ETL_SHAPES))],
            ]
        else:
            n = {g: round(HORIZON_MS / g.mean_inter_arrival_ms)
                 for g in (dev_gen, ab_gen, interactive_gen, etl_gen)}
            streams = [
                dev_gen.queries(n[dev_gen]),
                ab_gen.queries(n[ab_gen]),
                [_pick(interactive_gen, INTERACTIVE_SHAPES,
                       (unit * n[interactive_gen] + i) % len(INTERACTIVE_SHAPES))
                 for i in range(n[interactive_gen])],
                [_pick(etl_gen, ETL_SHAPES, (unit * n[etl_gen] + i) % len(ETL_SHAPES))
                 for i in range(n[etl_gen])],
            ]
        timeline = []
        for stream in streams:
            arrival = 0.0
            for query in stream:
                arrival += query.inter_arrival_ms
                timeline.append((arrival, query))
        timeline.sort(key=lambda item: item[0])
        return timeline

    def fresh_cluster(self):
        from repro.cluster import ClusterConfig, SimCluster

        cluster = SimCluster(
            ClusterConfig(
                worker_count=WORKERS,
                default_catalog="hive",
                default_schema="default",
                cost_mode="deterministic",
            )
        )
        for name, connector in self.catalogs.items():
            cluster.register_catalog(name, connector)
        return cluster

    def run_unit(self, unit: int, out: Collector) -> None:
        batch = self.batch(unit)
        handles: list = []

        def submit(query) -> None:
            start = time.perf_counter()
            try:
                handle = cluster.submit(
                    query.sql,
                    phased=query.phased,
                    client_bandwidth_bytes_per_ms=query.client_bandwidth_bytes_per_ms,
                    session_catalog=CATALOGS[query.use_case],
                )
            except Exception as exc:  # admission failure
                out.error(query.sql, exc)
                return
            handles.append((query, handle))
            cluster_done = handle.on_finish

            def done(finished) -> None:
                out.latencies_ms.append((time.perf_counter() - start) * 1000.0)
                cluster_done(finished)

            handle.on_finish = done

        with out.timed():
            cluster = self.fresh_cluster()
            for arrival, query in batch:
                cluster.sim.schedule_at(arrival, lambda q=query: submit(q))
            cluster.run()
        out.absorb(cluster)

        def check() -> None:
            for query, handle in handles:
                out.modeled(f"{handle.state}: {query.sql}", handle.wall_time_ms,
                            handle.queued_time_ms)
                if handle.state != "finished":
                    out.error(query.sql, handle.error or RuntimeError(handle.state))
                else:
                    self._check(query, handle.rows(), out)

        out.defer(check)

    def _reference(self, catalog: str, sql: str) -> list:
        key = (catalog, sql)
        if key not in self._answers:
            self.reference.default_catalog = catalog
            self._answers[key] = self.reference.execute(sql).rows
        return self._answers[key]

    def _check(self, query, rows, out: Collector) -> None:
        catalog = CATALOGS[query.use_case]
        sql = query.sql
        if sql.startswith("CREATE TABLE"):
            # CREATE TABLE <target> AS <select>: the reported row count and
            # the table read back must match the SELECT; then drop the table.
            target, select = sql[len("CREATE TABLE "):].split(" AS ", 1)
            expected = self._reference(catalog, select)
            self.reference.default_catalog = catalog
            written = self.reference.execute(f"SELECT * FROM {target}").rows
            out.check(sql, rows + written, [(len(expected),)] + expected)
            self.reference.execute(f"DROP TABLE {target}")
            return
        top_n = TOP_N.search(sql)
        if top_n is None:
            out.check(sql, rows, self._reference(catalog, sql))
            return
        # Ties at the LIMIT may be broken either way: compare against the
        # ordered result without the LIMIT.
        keys = [int(k.split()[0]) - 1 for k in top_n.group(1).split(", ")]
        limit = int(top_n.group(2))
        ordered = self._reference(catalog, sql[: top_n.start(2) - len(" LIMIT ")])
        out.check(sql, rows, lambda actual: top_n_match(actual, ordered, limit, keys))
