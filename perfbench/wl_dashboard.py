"""dashboard_zipf: repeated dashboard queries on a warm, fully cached cluster.

A zipf (s = 1.1) mix over the ten query shapes of the cache-tier
benchmark, each with 60 literal variants (541 distinct texts, more than
the 256 plan-cache entries, so the tail evicts), on a 3-worker cluster
with every cache level on over a small Hive fact/dim pair. About 0.5%
of operations (every 200th) are single-row INSERTs into ``fact``; each
bumps the table version and so invalidates plan and result entries. One client
runs the stream in a closed loop. The seed draws the stream.

Answers are checked against :class:`Model`, a plain-Python evaluation of
each shape over the same rows (``reference.py --dashboard`` checks the
model against the naive oracle).
"""

from __future__ import annotations

import bisect
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

from harness import Collector, counters_of

NAME = "dashboard_zipf"
WORKERS = 3
FACT_ROWS = 1_200
VARIANTS = 60
ZIPF_S = 1.1
#: Every 200th operation is an INSERT (0.5%): a fixed cadence, because
#: each one invalidates the cache and their count would otherwise swing
#: the work done with the seed.
INSERT_EVERY = 200
#: Operations per unit of work, and units per second of --seconds (the
#: reference machine's rate), so the work size does not follow host speed.
BLOCK = 250
NOMINAL_OPS_PER_S = 200
#: The warm-up runs the most popular texts once each.
WARMUP_TEXTS = 100

# The shapes of benchmarks/test_cache_tier.py. Each literal slot is
# filled from a per-shape linear range (start + step * variant).
SHAPES = [
    ("SELECT s, count(*) FROM fact GROUP BY 1", None),
    ("SELECT count(*), sum(k) FROM fact WHERE g > {lit}", (-20, 1)),
    ("SELECT g, sum(x) FROM fact WHERE k <= {lit} GROUP BY 1", (0, 30)),
    ("SELECT d.name, count(*) FROM fact f JOIN dim d ON f.g = d.g "
     "WHERE f.k > {lit} GROUP BY 1", (0, 30)),
    ("SELECT max(x), min(x) FROM fact WHERE s = '{lit}'", "strings"),
    ("SELECT k, x FROM fact WHERE k < {lit} ORDER BY k, x LIMIT 50", (10, 30)),
    ("SELECT g, count(*) FROM fact WHERE x > {lit} GROUP BY 1", (0, 25)),
    ("SELECT sum(x), count(*) FROM fact f JOIN dim d ON f.g = d.g "
     "WHERE d.g <= {lit}", (-20, 1)),
    ("SELECT s, sum(k), sum(x) FROM fact WHERE g = {lit} GROUP BY 1", (-20, 1)),
    ("SELECT min(k), max(k) FROM fact WHERE x < {lit}", (5, 25)),
]


def literal(shape: int, variant: int):
    domain = SHAPES[shape][1]
    if domain is None:
        return None
    if domain == "strings":
        return "abcde"[variant % 5] + ("" if variant < 5 else str(variant))
    start, step = domain
    return start + step * variant


@dataclass(frozen=True)
class Op:
    sql: str
    shape: int = -1
    literal: object = None
    insert: Optional[tuple] = None


def texts() -> list[Op]:
    """Distinct query texts in popularity order: rank r is variant r // 10
    of shape r % 10, so every shape has popular and rare texts."""
    out, seen = [], set()
    for variant in range(VARIANTS):
        for shape, (template, _) in enumerate(SHAPES):
            lit = literal(shape, variant)
            sql = template.format(lit=lit)
            if sql not in seen:
                seen.add(sql)
                out.append(Op(sql, shape, lit))
    return out


class Model:
    """The reference: each shape evaluated in Python over the rows the
    benchmark loaded and inserted."""

    def __init__(self, fact: list[tuple]):
        self.fact = list(fact)
        self.dim = {g: f"group-{g}" for g in range(10)}
        self.version = 0
        self._memo: dict = {}

    def insert(self, row: tuple) -> None:
        self.fact.append(row)
        self.version += 1

    def answer(self, shape: int, lit) -> list[tuple]:
        key = (shape, lit, self.version)
        if key not in self._memo:
            self._memo[key] = self._evaluate(shape, lit)
        return self._memo[key]

    def _evaluate(self, shape: int, lit) -> list[tuple]:
        fact = self.fact
        if shape == 0:
            return list(Counter(s for _, _, _, s in fact).items())
        if shape == 1:
            ks = [k for k, g, _, _ in fact if g > lit]
            return [(len(ks), sum(ks) if ks else None)]
        if shape == 2:
            return _group_sum((g, x) for k, g, x, _ in fact if k <= lit)
        if shape == 3:
            return list(Counter(
                self.dim[g] for k, g, _, _ in fact if k > lit and g in self.dim
            ).items())
        if shape == 4:
            xs = [x for _, _, x, s in fact if s == lit]
            return [(max(xs), min(xs)) if xs else (None, None)]
        if shape == 5:
            return sorted((k, x) for k, _, x, _ in fact if k < lit)[:50]
        if shape == 6:
            return list(Counter(g for _, g, x, _ in fact if x > lit).items())
        if shape == 7:
            xs = [x for _, g, x, _ in fact if g in self.dim and g <= lit]
            return [(sum(xs) if xs else None, len(xs))]
        if shape == 8:
            groups = defaultdict(lambda: [0, 0.0])
            for k, g, x, s in fact:
                if g == lit:
                    groups[s][0] += k
                    groups[s][1] += x
            return [(s, ks, xs) for s, (ks, xs) in groups.items()]
        ks = [k for k, _, x, _ in fact if x < lit]
        return [(min(ks), max(ks)) if ks else (None, None)]


def _group_sum(pairs) -> list[tuple]:
    sums: dict = {}
    for key, value in pairs:
        sums[key] = sums.get(key, 0.0) + value
    return list(sums.items())


class Dashboard:
    name = NAME

    def __init__(self, seed: int):
        self.seed = seed
        self.texts = texts()
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.texts))]
        total = 0.0
        self.cumulative = []
        for w in weights:
            total += w
            self.cumulative.append(total)
        # Set by build(): the cluster, its Hive catalog, the reference
        # model, and the position in the seed's operation stream.
        self.cluster = self.hive = self.model = self.rng = None
        self.next_key = self.ops = 0

    def units(self, seconds: float) -> int:
        return max(2, round(seconds * NOMINAL_OPS_PER_S / BLOCK))

    def build(self) -> None:
        from repro.cache import CacheConfig
        from repro.cluster import ClusterConfig, SimCluster
        from repro.connectors.hive import HiveConnector
        from repro.types import BIGINT, DOUBLE, VARCHAR
        from repro.workload.datasets import _load_table

        self.cluster = SimCluster(
            ClusterConfig(
                worker_count=WORKERS,
                default_catalog="hive",
                default_schema="default",
                cache=CacheConfig.full(),
                cost_mode="deterministic",
            )
        )
        self.hive = HiveConnector(
            catalog_name="hive", stripe_rows=128, max_rows_per_file=256
        )
        rng = random.Random(7)
        fact = [
            (i, i % 10, round(rng.uniform(0.0, 1000.0), 3), rng.choice("abcde"))
            for i in range(FACT_ROWS)
        ]
        columns = [("k", BIGINT), ("g", BIGINT), ("x", DOUBLE), ("s", VARCHAR)]
        _load_table(self.hive, "hive", "default", "fact", columns, fact)
        _load_table(
            self.hive, "hive", "default", "dim",
            [("g", BIGINT), ("name", VARCHAR)],
            [(g, f"group-{g}") for g in range(10)],
        )
        self.cluster.register_catalog("hive", self.hive)
        self.model = Model(fact)
        self.rng = random.Random(self.seed)
        self.next_key = FACT_ROWS
        self.ops = 0

    def connectors(self) -> dict:
        return {"hive": self.hive}

    def stream(self, count: int) -> list[Op]:
        """The next ``count`` operations of the seed's stream."""
        rng, ops = self.rng, []
        for _ in range(count):
            self.ops += 1
            if self.ops % INSERT_EVERY == 0:
                k = self.next_key
                self.next_key += 1
                row = (k, k % 10, round(rng.uniform(0.0, 1000.0), 3), rng.choice("abcde"))
                sql = f"INSERT INTO fact VALUES ({row[0]}, {row[1]}, {row[2]!r}, '{row[3]}')"
                ops.append(Op(sql, insert=row))
            else:
                index = bisect.bisect_left(self.cumulative, rng.random() * self.cumulative[-1])
                ops.append(self.texts[min(index, len(self.texts) - 1)])
        return ops

    def setup(self, warmup: Collector) -> None:
        self.build()
        self._run(self.texts[:WARMUP_TEXTS], warmup)

    def run_unit(self, unit: int, out: Collector) -> None:
        before = counters_of(self.cluster)
        self._run(self.stream(BLOCK), out)
        out.absorb(self.cluster, before)

    def _run(self, ops: list[Op], out: Collector) -> None:
        cluster, done = self.cluster, []
        with out.timed():
            for op in ops:
                out.query(len(out.latencies_ms))
                start = time.perf_counter()
                try:
                    handle = cluster.run_query(op.sql, drain=True)
                except Exception as exc:  # a failed query is an outcome
                    out.error(op.sql, exc)
                    continue
                out.latencies_ms.append((time.perf_counter() - start) * 1000.0)
                done.append((op, handle))

        def check() -> None:
            for op, handle in done:
                if op.insert is not None:
                    self.model.insert(op.insert)
                    expected = [(1,)]
                else:
                    expected = self.model.answer(op.shape, op.literal)
                out.check(op.sql, handle.rows(), expected)
                out.modeled(op.sql, handle.wall_time_ms, handle.queued_time_ms)

        out.defer(check)
