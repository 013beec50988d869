"""Workload generator tests: determinism, SQL validity, Table-I shapes."""

import math

import pytest

from repro.client import LocalEngine
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.hive import HiveConnector
from repro.connectors.raptor import RaptorConnector
from repro.connectors.shardedsql import ShardedSqlConnector
from repro.connectors.tpch import TpchConnector
from repro.exec import kernels
from repro.sql import parse_statement
from repro.workload import (
    ABTestingWorkload,
    BatchEtlWorkload,
    DeveloperAnalyticsWorkload,
    InteractiveAnalyticsWorkload,
    run_workload,
    setup_ab_testing_dataset,
    setup_developer_analytics_dataset,
    setup_warehouse_dataset,
)
from repro.workload.tpcds import FIG6_QUERY_IDS, TPCDS_ANALOG_QUERIES

ALL_WORKLOADS = [
    DeveloperAnalyticsWorkload,
    ABTestingWorkload,
    InteractiveAnalyticsWorkload,
    BatchEtlWorkload,
]


@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
def test_generator_deterministic(workload_cls):
    a = [q.sql for q in workload_cls(seed=5).queries(20)]
    b = [q.sql for q in workload_cls(seed=5).queries(20)]
    assert a == b
    c = [q.sql for q in workload_cls(seed=6).queries(20)]
    assert a != c


@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
def test_generated_sql_parses(workload_cls):
    for query in workload_cls().queries(30):
        parse_statement(query.sql)  # must not raise


@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
def test_inter_arrival_gaps_positive(workload_cls):
    queries = workload_cls().queries(50)
    assert all(q.inter_arrival_ms >= 0 for q in queries)
    assert any(q.inter_arrival_ms > 0 for q in queries)


def test_table1_metadata_present():
    for workload_cls in ALL_WORKLOADS:
        row = workload_cls.table1_row
        assert {"use_case", "query_duration", "workload_shape", "connector"} <= set(row)


def test_etl_queries_are_writes():
    for query in BatchEtlWorkload().queries(10):
        assert query.sql.startswith("CREATE TABLE") or query.sql.startswith("INSERT")
        assert query.phased is True  # ETL runs phased (Sec. IV-D1)


def test_ab_queries_join_three_tables():
    for query in ABTestingWorkload().queries(10):
        assert query.sql.count("JOIN") == 2


def test_fig6_query_set_complete():
    # The 19 ids from the paper's Fig. 6 x-axis.
    assert FIG6_QUERY_IDS == [
        "q09", "q18", "q20", "q26", "q28", "q35", "q37", "q44", "q50", "q54",
        "q60", "q64", "q69", "q71", "q73", "q76", "q78", "q80", "q82",
    ]
    for sql in TPCDS_ANALOG_QUERIES.values():
        parse_statement(sql)


def _rows_close(left: list[tuple], right: list[tuple]) -> bool:
    """Positional equality with relative float tolerance: the row path
    accumulates sums in a different association order, so big
    aggregates may differ in the last couple of ulps."""
    if len(left) != len(right):
        return False
    for lrow, rrow in zip(left, right):
        if len(lrow) != len(rrow):
            return False
        for lval, rval in zip(lrow, rrow):
            if isinstance(lval, float) and isinstance(rval, float):
                if not (
                    math.isclose(lval, rval, rel_tol=1e-9, abs_tol=1e-9)
                    or (math.isnan(lval) and math.isnan(rval))
                ):
                    return False
            elif lval != rval:
                return False
    return True


def test_fig6_queries_match_between_vector_and_row_kernels():
    engine = LocalEngine(catalog="tpch", schema="tiny")
    engine.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    answers: dict[str, dict[str, list[tuple]]] = {}
    for mode in (kernels.VECTOR, kernels.ROW):
        with kernels.forced_mode(mode):
            answers[mode] = {
                qid: engine.execute(sql).rows
                for qid, sql in TPCDS_ANALOG_QUERIES.items()
            }
    assert len(answers[kernels.VECTOR]) == 19
    for qid in TPCDS_ANALOG_QUERIES:
        assert _rows_close(
            answers[kernels.ROW][qid], answers[kernels.VECTOR][qid]
        ), qid


def test_fig6_queries_never_take_the_row_path(monkeypatch):
    """Every fig6 group, DISTINCT, semi-join and shuffle key is primitive
    or VARCHAR, so no page may fall back to the whole-page aggregation
    row loop and no factorize / hash_rows call may decline."""
    from repro.exec.operators.aggregation import HashAggregationOperator

    declined = []
    row_pages = []

    def counting(name):
        original = getattr(kernels, name)

        def wrapper(blocks, row_count):
            result = original(blocks, row_count)
            if result is None:
                declined.append((name, [type(b).__name__ for b in blocks]))
            return result

        monkeypatch.setattr(kernels, name, wrapper)

    counting("factorize")
    counting("hash_rows")
    accumulate_rows = HashAggregationOperator._accumulate_rows

    def counting_rows(self, page):
        row_pages.append(page.row_count)
        return accumulate_rows(self, page)

    monkeypatch.setattr(HashAggregationOperator, "_accumulate_rows", counting_rows)
    hive = HiveConnector(statistics_enabled=True, catalog_name="hive")
    setup_warehouse_dataset(hive, scale_factor=0.004)
    with kernels.forced_mode(kernels.VECTOR):
        for qid in FIG6_QUERY_IDS:
            cluster = SimCluster(
                ClusterConfig(
                    worker_count=8, default_catalog="hive", default_schema="default"
                )
            )
            cluster.register_catalog("hive", hive)
            cluster.run_query(TPCDS_ANALOG_QUERIES[qid]).rows()
    assert row_pages == []
    assert declined == []


def test_run_workload_end_to_end():
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="hive", default_schema="default")
    )
    hive = HiveConnector()
    raptor = RaptorConnector(hosts=cluster.worker_hosts)
    sharded = ShardedSqlConnector(shard_count=4)
    cluster.register_catalog("hive", hive)
    cluster.register_catalog("raptor", raptor)
    cluster.register_catalog("shardedsql", sharded)
    setup_warehouse_dataset(hive, scale_factor=0.001)
    setup_ab_testing_dataset(raptor, users=500, events=1_000)
    setup_developer_analytics_dataset(sharded, advertisers=50, rows=1_000)
    queries = (
        DeveloperAnalyticsWorkload(advertisers=50).queries(3)
        + ABTestingWorkload().queries(2)
        + InteractiveAnalyticsWorkload().queries(3)
        + BatchEtlWorkload().queries(1)
    )
    result = run_workload(
        cluster,
        queries,
        session_catalogs={
            "dev_advertiser": "shardedsql",
            "ab_testing": "raptor",
            "interactive": "hive",
            "batch_etl": "hive",
        },
    )
    assert all(r.state == "finished" for r in result.records)
    assert len(result.records) == 9
    # CDF helper produces monotone fractions ending at 1.0.
    cdf = result.cdf()
    assert cdf[-1][1] == 1.0
    assert all(b >= a for (_, a), (_, b) in zip(cdf, cdf[1:]))


def test_percentiles_sane():
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="hive", default_schema="default")
    )
    hive = HiveConnector()
    cluster.register_catalog("hive", hive)
    setup_warehouse_dataset(hive, scale_factor=0.001)
    result = run_workload(
        cluster,
        InteractiveAnalyticsWorkload().queries(5),
        session_catalogs={"interactive": "hive"},
    )
    assert result.percentile(0.0) <= result.percentile(0.5) <= result.percentile(0.99)
