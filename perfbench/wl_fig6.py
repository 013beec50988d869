"""fig6_adhoc: the 19 Fig. 6 analog queries on Hive with statistics.

8 workers, SF 0.004, one client in a closed loop. Every pass builds a
fresh coordinator over the one loaded Hive connector, so each query is
parsed, planned and optimized the way ad-hoc analytics are (reusing one
cluster would serve plans from the plan cache after the first pass).
The seed orders the queries; every pass, the warm-up pass included, runs
them in that order, so each pass must repeat the modeled (virtual-clock)
numbers of the warm-up pass exactly.
"""

from __future__ import annotations

import json
import random
import re
import time
from pathlib import Path

from harness import Collector, rows_match, top_n_match

NAME = "fig6_adhoc"
SCALE = 0.004
WORKERS = 8
#: p90 needs >= 10 samples above it: 6 passes x 19 queries = 114
#: (--seconds 20 gives 8 passes, 152 samples).
MIN_PASSES = 6
#: Host seconds one pass took on the reference machine; sizes the work
#: from --seconds without making it depend on this host's speed.
NOMINAL_PASS_S = 2.5
ANSWERS = Path(__file__).with_name("fig6_answers.json")
#: Queries ending in LIMIT: (column, descending) of their ORDER BY, or
#: None without one. Rows tied at the cut may be returned either way, so
#: their stored answer is the ordered result without the LIMIT, trimmed
#: after the last row tied with the cut.
TOP_N = {
    "q26": (0, False),
    "q37": (2, False),
    "q44": None,
    "q64": (3, True),
    "q71": (2, True),
    "q73": (1, True),
    "q78": (1, True),
    "q82": (0, False),
}
LIMIT = re.compile(r"\sLIMIT\s+(\d+)\s*$")


def queries() -> dict[str, str]:
    from repro.workload.tpcds import TPCDS_ANALOG_QUERIES

    return TPCDS_ANALOG_QUERIES


def without_limit(sql: str) -> tuple[str, int]:
    """The query without its trailing LIMIT, and the limit."""
    match = LIMIT.search(sql)
    return sql[: match.start()], int(match.group(1))


def load_answers() -> dict:
    """qid -> a match function for the query's rows."""
    out = {}
    for qid, answer in json.loads(ANSWERS.read_text()).items():
        rows = [tuple(row) for row in answer["rows"]]
        if "limit" in answer:
            limit, keys = answer["limit"], answer["keys"]
            out[qid] = (lambda actual, rows=rows, limit=limit, keys=keys:
                        top_n_match(actual, rows, limit, keys))
        else:
            out[qid] = lambda actual, rows=rows: rows_match(actual, rows)
    return out


def load_hive():
    from repro.connectors.hive import HiveConnector
    from repro.workload.datasets import setup_warehouse_dataset

    hive = HiveConnector(statistics_enabled=True, catalog_name="hive")
    setup_warehouse_dataset(hive, scale_factor=SCALE)
    return hive


def fresh_cluster(hive):
    from repro.cluster import ClusterConfig, SimCluster

    cluster = SimCluster(
        ClusterConfig(
            worker_count=WORKERS,
            default_catalog="hive",
            default_schema="default",
            cost_mode="deterministic",
        )
    )
    cluster.register_catalog("hive", hive)
    return cluster


class Fig6:
    name = NAME

    def __init__(self, seed: int):
        self.seed = seed
        self.sql = queries()
        self.answers = load_answers()
        self.order = sorted(self.sql)
        random.Random(seed).shuffle(self.order)
        self.hive = None
        # Modeled values of each query in the warm-up pass.
        self.baseline: dict[str, tuple] = {}

    def units(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S))

    def setup(self, warmup: Collector) -> None:
        self.hive = load_hive()
        self.run_unit(-1, warmup)

    def connectors(self) -> dict:
        return {"hive": self.hive}

    def run_unit(self, unit: int, out: Collector) -> None:
        """One pass. Building the coordinator and the ``run_query`` calls
        are timed; answer checks run after the pass."""
        done = []
        with out.timed():
            cluster = fresh_cluster(self.hive)
            for qid in self.order:
                out.query(len(out.latencies_ms))
                start = time.perf_counter()
                try:
                    handle = cluster.run_query(self.sql[qid], drain=True)
                except Exception as exc:  # a failed query is an outcome
                    out.error(qid, exc)
                    continue
                out.latencies_ms.append((time.perf_counter() - start) * 1000.0)
                done.append((qid, handle))
        out.absorb(cluster)

        def check() -> None:
            for qid, handle in done:
                out.check(qid, handle.rows(), self.answers[qid])
                values = (qid, handle.wall_time_ms, handle.queued_time_ms)
                out.modeled(*values)
                if unit < 0:
                    self.baseline[qid] = values
                elif self.baseline.get(qid, values) != values:
                    out.invalid.append(
                        f"modeled values of {qid} differ from the warm-up pass")

        out.defer(check)
