"""Fused single-pass pipelines (repro.exec.pipeline): compiler
eligibility, differential parity fused vs unfused vs row path, stats
counters, EXPLAIN visibility, spill delegation, and the split-lump
cpu-time accounting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.tpch import TpchConnector
from repro.exec import kernels, pipeline
from repro.exec.driver import Driver, run_drivers_to_completion
from repro.exec.local import LocalExecutionPlanner
from repro.exec.pipeline import FusedPipelineOperator
from repro.sql import parse_statement
from tests.conftest import make_engine


def tpch_cluster(**overrides) -> SimCluster:
    config = ClusterConfig(
        worker_count=overrides.pop("worker_count", 4),
        default_catalog="tpch",
        default_schema="tiny",
        **overrides,
    )
    cluster = SimCluster(config)
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    return cluster


def local_drivers(sql: str, interpreted: bool = False):
    """Plan a query on the memory engine; return (drivers, collector, planner)."""
    engine = make_engine()
    plan = engine.plan(parse_statement(sql))
    planner = LocalExecutionPlanner(engine.metadata, interpreted=interpreted)
    drivers, collector = planner.plan(plan.root)
    return drivers, collector, planner


def fused_operators(drivers) -> list[FusedPipelineOperator]:
    return [
        op
        for d in drivers
        for op in d.operators
        if isinstance(op, FusedPipelineOperator)
    ]


# ---------------------------------------------------------------------------
# Smoke: a simple scan-agg query actually fuses (satellite requirement)
# ---------------------------------------------------------------------------


def test_cluster_scan_agg_query_fuses():
    cluster = tpch_cluster()
    rows = cluster.run_query(
        "SELECT orderstatus, count(*) FROM orders GROUP BY 1 ORDER BY 1"
    ).rows()
    assert rows  # correct execution, checked in depth elsewhere
    snapshot = cluster.stats_snapshot()
    assert snapshot["exec.pipelines_fused"] >= 1
    # The counters are always present, even when zero.
    assert "exec.fusion_fallbacks" in snapshot


def test_local_scan_agg_query_fuses():
    drivers, collector, planner = local_drivers(
        "SELECT status, sum(totalprice) FROM orders WHERE custkey > 10 GROUP BY status"
    )
    fused = fused_operators(drivers)
    assert len(fused) == 1
    assert planner.fusion_report.fused == 1
    # Scan, filter/project, and single-step aggregation all absorbed.
    assert fused[0].fused_stages[0] == "TableScan"
    assert any(s.startswith("Aggregate[") for s in fused[0].fused_stages)
    run_drivers_to_completion(drivers)
    rows = sorted(r for p in collector.pages for r in p.rows())
    assert rows == [("F", 70.0), ("OK", 125.0)]


def test_fallback_reasons_are_recorded():
    drivers, _, planner = local_drivers(
        "SELECT o.orderkey, c.name FROM orders o JOIN customer c"
        " ON o.custkey = c.custkey"
    )
    # Bare scan feeding a join build/probe has nothing to fuse with.
    assert planner.fusion_report.fallbacks
    assert any(
        reason.startswith("unfusible:")
        for reason in planner.fusion_report.fallbacks
    )


def test_fusion_disabled_produces_no_fused_operators():
    with pipeline.forced_fusion(pipeline.OFF):
        drivers, _, planner = local_drivers(
            "SELECT status, count(*) FROM orders GROUP BY status"
        )
    assert not fused_operators(drivers)
    assert planner.fusion_report.fused == 0
    assert planner.fusion_report.fallbacks.get("fusion_disabled", 0) >= 1


def test_row_kernel_mode_disables_fusion_in_auto():
    with kernels.forced_mode(kernels.ROW):
        assert not pipeline.fusion_enabled()
        drivers, _, _ = local_drivers(
            "SELECT status, count(*) FROM orders GROUP BY status"
        )
        assert not fused_operators(drivers)
    # ...but forcing fusion on overrides the kernel mode.
    with kernels.forced_mode(kernels.ROW), pipeline.forced_fusion(pipeline.ON):
        assert pipeline.fusion_enabled()


@pytest.mark.parametrize(
    "variable, value, expected",
    [
        ("REPRO_KERNELS", "vectorized", "REPRO_KERNELS must be vector/row"),
        ("REPRO_FUSION", "yes", "REPRO_FUSION must be on/off/auto"),
    ],
)
def test_unknown_mode_env_value_fails_at_import(variable, value, expected):
    """A typo in a mode variable must fail loudly at import instead of
    silently running another execution path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env[variable] = value
    result = subprocess.run(
        [sys.executable, "-c", "import repro.exec.pipeline"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode != 0
    assert "ValueError" in result.stderr
    assert expected in result.stderr


def test_interpreted_mode_never_fuses():
    drivers, _, planner = local_drivers(
        "SELECT status FROM orders", interpreted=True
    )
    assert not fused_operators(drivers)
    assert planner.fusion_report.fallbacks.get("interpreted", 0) >= 1


# ---------------------------------------------------------------------------
# Differential parity: fused == unfused == row path
# ---------------------------------------------------------------------------

PARITY_QUERIES = [
    "SELECT status, sum(totalprice), count(*) FROM orders GROUP BY status ORDER BY status",
    "SELECT orderkey, totalprice * 2 FROM orders WHERE custkey > 10 ORDER BY orderkey",
    "SELECT count(*) FROM orders WHERE totalprice > 30",
    "SELECT orderkey FROM orders WHERE custkey >= 10 ORDER BY orderkey LIMIT 3",
    "SELECT o.status, count(*) FROM orders o JOIN customer c ON o.custkey = c.custkey GROUP BY 1 ORDER BY 1",
    "SELECT custkey, max(totalprice) FROM orders GROUP BY custkey ORDER BY custkey",
]


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_fused_matches_unfused_and_row_path(sql):
    engine = make_engine()
    with pipeline.forced_fusion(pipeline.ON):
        fused = engine.execute(sql).rows
    with pipeline.forced_fusion(pipeline.OFF):
        unfused = engine.execute(sql).rows
    with kernels.forced_mode(kernels.ROW), pipeline.forced_fusion(pipeline.OFF):
        row_path = engine.execute(sql).rows
    assert fused == unfused == row_path


def test_cluster_fused_matches_unfused():
    sql = (
        "SELECT orderstatus, sum(totalprice), count(*) FROM orders"
        " GROUP BY 1 ORDER BY 1"
    )
    with pipeline.forced_fusion(pipeline.ON):
        fused = tpch_cluster().run_query(sql).rows()
    with pipeline.forced_fusion(pipeline.OFF):
        unfused = tpch_cluster().run_query(sql).rows()
    assert fused == unfused


# ---------------------------------------------------------------------------
# Quantum cooperation + cpu-time accounting (satellite: lump per split)
# ---------------------------------------------------------------------------


def test_fused_driver_yields_between_splits_and_charges_lumps():
    drivers, collector, _ = local_drivers(
        "SELECT status, count(*) FROM orders GROUP BY status"
    )
    fused = fused_operators(drivers)[0]
    driver = next(d for d in drivers if fused in d.operators)
    # One process_once advances at most one split.
    splits_before = fused.scan.completed_splits
    driver.process_once()
    assert fused.scan.completed_splits <= splits_before + 1
    # Kernel time is charged in split lumps: once a split completed,
    # nothing stays pending.
    assert fused.pending_kernel_ms == 0.0
    assert fused.charged_kernel_ms > 0.0
    run_drivers_to_completion(drivers)
    assert fused.pending_kernel_ms == 0.0
    assert driver.cpu_time_ms > 0.0


def test_driver_cpu_time_excludes_pending_kernel_time():
    """Unit check of the lump accounting: a driver whose fused operator
    defers kernel time charges cpu_time_ms only for completed splits."""

    class FakeFused:
        def __init__(self):
            self.pending_kernel_ms = 0.0
            self.calls = 0

        def advance(self):
            self.calls += 1
            if self.calls == 1:
                self.pending_kernel_ms = 5.0  # mid-split: defer
                return True
            return False

        def is_finished(self):
            return False

        def is_blocked(self):
            return False

        def get_output(self):
            return None

    op = FakeFused()
    driver = Driver([op])
    driver.process(quantum_ms=0.0)
    # The 5ms pending inside the open split is not charged yet.
    assert driver.cpu_time_ms < 5.0


# ---------------------------------------------------------------------------
# Spill / memory accounting delegation
# ---------------------------------------------------------------------------


def test_fused_aggregation_spill_delegation():
    drivers, collector, _ = local_drivers(
        "SELECT custkey, sum(totalprice) FROM orders GROUP BY custkey"
    )
    fused = fused_operators(drivers)[0]
    assert fused.agg is not None
    # Push one scan page through the fused stages into the aggregation
    # state by hand (the one-split memory table would otherwise flush in
    # the same advance), then revoke mid-query.
    page = fused.scan.get_output()
    assert page is not None
    fused._process_page(page)
    assert fused.retained_bytes() > 0
    assert fused.revocable_bytes() > 0
    released = fused.revoke()
    assert released > 0
    assert fused.revocable_bytes() == 0
    # Spill context property round-trips to the embedded aggregation.
    marker = object()
    fused.spill_context = marker
    assert fused.agg.spill_context is marker
    fused.spill_context = None
    # The query still completes correctly after the spill.
    run_drivers_to_completion(drivers)
    rows = sorted(r for p in collector.pages for r in p.rows())
    assert rows == [(10, 175.0), (20, 175.0), (30, 20.0)]


def test_fused_limit_terminates_scan_early():
    drivers, collector, _ = local_drivers(
        "SELECT orderkey FROM orders LIMIT 2"
    )
    fused = fused_operators(drivers)[0]
    assert fused.limit is not None
    run_drivers_to_completion(drivers)
    assert sum(p.row_count for p in collector.pages) == 2
    # The absorbed limit finished the scan (no splits left queued).
    assert fused.scan.is_finished()


# ---------------------------------------------------------------------------
# EXPLAIN visibility
# ---------------------------------------------------------------------------


def test_cluster_explain_annotates_fused_fragments():
    cluster = tpch_cluster()
    text = cluster.explain("SELECT orderstatus, count(*) FROM orders GROUP BY 1")
    assert "fused=[" in text
    assert "Aggregate[partial]" in text
    with pipeline.forced_fusion(pipeline.OFF):
        unfused_text = cluster.explain(
            "SELECT orderstatus, count(*) FROM orders GROUP BY 1"
        )
    assert "fused=[" not in unfused_text


def test_explain_analyze_expands_fused_operators():
    engine = make_engine()
    text = engine.execute(
        "EXPLAIN ANALYZE SELECT status, count(*) FROM orders GROUP BY 1"
    ).rows[0][0]
    assert "FusedPipeline" in text
    assert "TableScan" in text
    assert "HashAggregation" in text
