"""Span tracer for the traced run: times the calls into each layer's
public entry points from outside the engine.

``instrument`` replaces each entry point where its caller looks it up
(a module global such as ``repro.cluster.cluster.parse_statement``, a
class attribute such as ``SimTask.run_quantum``, or a bound method of
one connector instance) with a wrapper that records a span: name,
start, end, parent span and query id. Spans stay in memory and are
written out at the end. A layer's self time is its spans' time minus
their child spans' time; whatever no layer covers is ``other_ms``.

Operator spans are named after the class that runs them
(``type(self).__name__``), not the class that defines the method, so
``FilterProjectOperator`` is not filed under ``StreamingOperator``.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from contextlib import contextmanager

#: Operator classes reported one by one; any other class that runs is
#: summed into exec.op.other. The exchange operators are the shuffle layer.
OPERATORS = (
    "TableScanOperator",
    "FilterProjectOperator",
    "FusedPipelineOperator",
    "ChannelSelectOperator",
    "HashAggregationOperator",
    "HashBuildOperator",
    "LookupJoinOperator",
    "SemiJoinBuildOperator",
    "SemiJoinOperator",
    "IndexJoinOperator",
    "TopNOperator",
    "SortOperator",
    "WindowOperator",
    "LimitOperator",
    "TableWriterOperator",
    "TableFinishOperator",
)
SHUFFLE_OPERATORS = {
    "ExchangeSinkOperator": "shuffle.sink",
    "ExchangeSourceOperator": "shuffle.source",
}
OPERATOR_METHODS = ("add_input", "get_output", "finish", "advance")
CATALOGS = ("hive", "raptor", "shardedsql")

_MAX_NAMES = 1024


class Tracer:
    def __init__(self):
        self.active = False
        self.query_id = -1
        #: Set for workloads whose queries interleave: the query id of a
        #: span then comes from the task whose quantum is running.
        self.tag_from_tasks = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.query = array("l")
        self.self_s = [0.0] * _MAX_NAMES
        self.calls = [0] * _MAX_NAMES
        self.rows = [0] * _MAX_NAMES
        #: kernels: rows offered, and rows the kernel declined (None)
        self.fallback_rows = [0] * _MAX_NAMES
        self.root_s = 0.0
        self.traced_s = 0.0
        self.peak_user_bytes = 0
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def region(self):
        """Trace the calls made inside this block."""
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.traced_s += time.perf_counter() - start
            self.active = False

    def _make(self, fn, resolve, after=None):
        """A wrapper recording one span per call. ``resolve(args)`` gives
        the span's name id; ``after(nid, idx, args, result)`` may count
        rows."""
        tracer = self
        start_a, end_a, parent_a = self.start, self.end, self.parent
        name_a, query_a = self.name, self.query
        stack, child = self._stack, self._child
        self_s, calls = self.self_s, self.calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = resolve(args)
            idx = len(start_a)
            parent_a.append(stack[-1] if stack else -1)
            name_a.append(nid)
            query_a.append(tracer.query_id)
            stack.append(idx)
            child.append(0.0)
            t0 = perf()
            start_a.append(t0)
            end_a.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                end_a[idx] = t1
                self_s[nid] += elapsed - child.pop()
                calls[nid] += 1
                if child:
                    child[-1] += elapsed
                else:
                    tracer.root_s += elapsed
            if after is not None:
                after(nid, idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self.name_id(name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._make(original, lambda args: nid, after))

    def patch_by_class(self, cls, attr: str, name_of, after=None) -> None:
        """Like ``patch`` on a method, but the span is named after the
        class of ``self`` at call time."""
        original = cls.__dict__[attr]
        ids: dict[type, int] = {}

        def resolve(args):
            kind = type(args[0])
            nid = ids.get(kind)
            if nid is None:
                nid = ids[kind] = self.name_id(name_of(kind.__name__))
            return nid

        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._make(original, resolve, after))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:  # an instance attribute shadowing a method
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, int, int, int]]:
        """name -> (self ms, calls, rows, fallback rows)."""
        return {
            name: (self.self_s[i] * 1000.0, self.calls[i], self.rows[i], self.fallback_rows[i])
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Spans as parallel arrays (.npz) plus the name table."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path,
            start_us=((np.frombuffer(self.start, dtype=np.float64) - origin) * 1e6),
            end_us=((np.frombuffer(self.end, dtype=np.float64) - origin) * 1e6),
            parent=np.frombuffer(self.parent, dtype=np.int64).astype(np.int32),
            name=np.frombuffer(self.name, dtype=np.int64).astype(np.int16),
            query=np.frombuffer(self.query, dtype=np.int64).astype(np.int32),
            names=np.array(json.dumps(self.names)),
        )


def _operator_name(cls_name: str) -> str:
    if cls_name in SHUFFLE_OPERATORS:
        return SHUFFLE_OPERATORS[cls_name]
    return f"exec.op.{cls_name}"


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def instrument(tracer: Tracer, connectors: dict) -> None:
    """Wrap every layer's entry points. ``connectors`` maps catalog name
    to the connector instances the workload registered."""
    import repro.cluster.cluster as cluster_module
    import repro.cluster.shuffle  # noqa: F401  (registers operator classes)
    import repro.exec.local  # noqa: F401
    import repro.exec.operators  # noqa: F401
    import repro.exec.pipeline  # noqa: F401
    import repro.optimizer as optimizer_package
    from repro.cache.plan_result import PlanCache, ResultCache
    from repro.cluster import SimCluster
    from repro.cluster.sim import Simulation
    from repro.cluster.task import SimTask
    from repro.connectors.hive.format import ColumnChunk
    from repro.exec import kernels
    from repro.exec.blocks import Block
    from repro.exec.operator import Operator
    from repro.exec.page import Page
    from repro.memory.pools import ClusterMemoryManager
    from repro.planner.planner import LogicalPlanner

    patch = tracer.patch
    patch(SimCluster, "run_query", "client.run_query")
    patch(SimCluster, "submit", "cluster.submit")
    patch(cluster_module, "parse_statement", "sql.parse")
    patch(LogicalPlanner, "plan_statement", "planner.plan")
    patch(optimizer_package, "optimize_plan", "optimizer.optimize")
    patch(cluster_module, "fragment_plan", "planner.fragment")
    patch(PlanCache, "get", "cache.plan_get")
    patch(ResultCache, "get", "cache.result_get")
    patch(ResultCache, "fill", "cache.result_fill")
    patch(Simulation, "run", "cluster.des")
    _patch_quantum(tracer, SimTask)

    def count_output(nid, idx, args, page):
        # A subclass method calling super() nests a span of the same
        # name; count the page once, at the outer span.
        parent = tracer.parent[idx]
        if page is not None and (parent < 0 or tracer.name[parent] != nid):
            tracer.rows[nid] += page.row_count

    for cls in _subclasses(Operator):
        for method in OPERATOR_METHODS:
            if method in cls.__dict__:
                after = count_output if method == "get_output" else None
                tracer.patch_by_class(cls, method, _operator_name, after)

    def offered(nid, idx, args, result):
        tracer.rows[nid] += args[1]
        if result is None:
            tracer.fallback_rows[nid] += args[1]

    patch(kernels, "factorize", "kernels.factorize", offered)
    patch(kernels, "hash_rows", "kernels.hash_rows", offered)
    patch(kernels, "partition_positions", "kernels.partition")
    patch(kernels, "group_reduce", "kernels.group_reduce")

    patch(Page, "size_bytes", "blocks.size_bytes")
    for cls in [Block] + _subclasses(Block):
        if "size_bytes" in cls.__dict__:
            patch(cls, "size_bytes", "blocks.size_bytes")

    patch(ColumnChunk, "decode", "connectors.hive.decode")

    def peak(nid, idx, args, result):
        tracer.peak_user_bytes = max(tracer.peak_user_bytes, args[0].cluster_user_bytes())

    patch(ClusterMemoryManager, "reserve", "memory.reserve", peak)

    for catalog, connector in connectors.items():
        _patch_connector(tracer, catalog, connector)


def _patch_quantum(tracer: Tracer, task_cls) -> None:
    original = task_cls.__dict__["run_quantum"]
    tagged = tracer._make(original, lambda args, nid=tracer.name_id("cluster.quantum"): nid)

    def run_quantum(task, *args, **kwargs):
        if not tracer.tag_from_tasks:
            return tagged(task, *args, **kwargs)
        outer = tracer.query_id
        qid = task.query_id
        tracer.query_id = int(qid[1:]) if qid[1:].isdigit() else -1
        try:
            return tagged(task, *args, **kwargs)
        finally:
            tracer.query_id = outer

    tracer._patches.append((task_cls, "run_quantum", original))
    task_cls.run_quantum = run_quantum


def _patch_connector(tracer: Tracer, catalog: str, connector) -> None:
    """Tag the page sources and sinks one connector instance hands out,
    so reads and writes are attributed to its catalog."""
    read = tracer.name_id(f"connectors.{catalog}.next_page")
    write = tracer.name_id(f"connectors.{catalog}.sink")

    def rows_read(nid, idx, args, page):
        if page is not None:
            tracer.rows[nid] += page.row_count

    make_source = connector.page_source
    make_sink = connector.page_sink

    def page_source(*args, **kwargs):
        source = make_source(*args, **kwargs)
        source.next_page = tracer._make(source.next_page, lambda a: read, rows_read)
        return source

    def page_sink(*args, **kwargs):
        sink = make_sink(*args, **kwargs)
        sink.append = tracer._make(sink.append, lambda a: write)
        sink.finish = tracer._make(sink.finish, lambda a: write)
        return sink

    tracer._patches.append((connector, "page_source", None))
    tracer._patches.append((connector, "page_sink", None))
    connector.page_source = page_source
    connector.page_sink = page_sink


# -- per-layer metrics -----------------------------------------------------------

#: (metric, unit) in the order the traced run prints them. "modeled_ms"
#: marks virtual-clock numbers from the deterministic cost model.
PER_LAYER = (
    [
        ("sql.parse_ms", "ms"),
        ("sql.parse_calls", "count"),
        ("planner.plan_ms", "ms"),
        ("planner.fragment_ms", "ms"),
        ("optimizer.optimize_ms", "ms"),
        ("optimizer.rules_fired", "count"),
        ("cache.plan_hit_ratio", "ratio"),
        ("cache.result_hit_ratio", "ratio"),
        ("cache.metadata_hit_ratio", "ratio"),
        ("cache.stripe_hit_ratio", "ratio"),
        ("cache.lookup_ms", "ms"),
        ("cache.evictions", "count"),
        ("cluster.submit_ms", "ms"),
        ("cluster.des_ms", "ms"),
        ("cluster.quantum_ms", "ms"),
        ("cluster.quanta", "count"),
        ("cluster.sim_events", "count"),
        ("cluster.sim_latency_p50_ms", "modeled_ms"),
        ("cluster.sim_queued_ms", "modeled_ms"),
        ("shuffle.sink_ms", "ms"),
        ("shuffle.source_ms", "ms"),
        ("shuffle.bytes", "bytes"),
    ]
    + [
        (f"exec.op.{name}_{kind}", unit)
        for name in OPERATORS + ("other",)
        for kind, unit in (("ms", "ms"), ("rows", "rows"))
    ]
    + [
        ("kernels.factorize_ms", "ms"),
        ("kernels.factorize_fallback_rows", "rows"),
        ("kernels.vector_row_ratio", "ratio"),
        ("kernels.hash_rows_ms", "ms"),
        ("kernels.hash_rows_fallback_rows", "rows"),
        ("kernels.partition_ms", "ms"),
        ("kernels.group_reduce_ms", "ms"),
        ("blocks.size_bytes_ms", "ms"),
        ("blocks.size_bytes_calls", "count"),
        ("connectors.hive.decode_ms", "ms"),
    ]
    + [
        (f"connectors.{catalog}.{metric}", unit)
        for catalog in CATALOGS
        for metric, unit in (("next_page_ms", "ms"), ("rows_read", "rows"), ("sink_ms", "ms"))
    ]
    + [
        ("memory.reserve_ms", "ms"),
        ("memory.reserve_calls", "count"),
        ("memory.peak_user_bytes", "bytes"),
        ("df.splits_pruned", "count"),
        ("df.rows_filtered", "rows"),
        ("other_ms", "ms"),
        ("share.planning_pct", "%"),
        ("trace.wall_ms", "ms"),
        ("trace.untraced_wall_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
        ("trace.missing_layers", "count"),
        ("error_rate", "ratio"),
        ("modeled.repeats", "count"),
    ]
)

#: span name -> the metric its self time is filed under
_TIME_METRIC = {
    "sql.parse": "sql.parse_ms",
    "planner.plan": "planner.plan_ms",
    "planner.fragment": "planner.fragment_ms",
    "optimizer.optimize": "optimizer.optimize_ms",
    "cache.plan_get": "cache.lookup_ms",
    "cache.result_get": "cache.lookup_ms",
    "cache.result_fill": "cache.lookup_ms",
    "cluster.submit": "cluster.submit_ms",
    "cluster.des": "cluster.des_ms",
    "cluster.quantum": "cluster.quantum_ms",
    "shuffle.sink": "shuffle.sink_ms",
    "shuffle.source": "shuffle.source_ms",
    "kernels.factorize": "kernels.factorize_ms",
    "kernels.hash_rows": "kernels.hash_rows_ms",
    "kernels.partition": "kernels.partition_ms",
    "kernels.group_reduce": "kernels.group_reduce_ms",
    "blocks.size_bytes": "blocks.size_bytes_ms",
    "connectors.hive.decode": "connectors.hive.decode_ms",
    "memory.reserve": "memory.reserve_ms",
}
for _catalog in CATALOGS:
    _TIME_METRIC[f"connectors.{_catalog}.next_page"] = f"connectors.{_catalog}.next_page_ms"
    _TIME_METRIC[f"connectors.{_catalog}.sink"] = f"connectors.{_catalog}.sink_ms"


def _ratio(counters, level: str) -> float:
    hits = counters.get(f"cache.{level}_hits", 0)
    misses = counters.get(f"cache.{level}_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer: Tracer, traced, untraced, expected=()) -> dict:
    """The per-layer split of one traced replay. ``traced`` and
    ``untraced`` are the Collectors of the same work run with and without
    tracing; ``expected`` names spans that must have fired."""
    totals = tracer.totals()
    m = {name: 0.0 for name, _ in PER_LAYER}
    uncovered_ms = (tracer.traced_s - tracer.root_s) * 1000.0
    other_ms = uncovered_ms
    for span, (self_ms, calls, rows, fallback) in totals.items():
        if span.startswith("exec.op."):
            cls = span[len("exec.op."):]
            key = cls if cls in OPERATORS else "other"
            m[f"exec.op.{key}_ms"] += self_ms
            m[f"exec.op.{key}_rows"] += rows
        elif span in _TIME_METRIC:
            m[_TIME_METRIC[span]] += self_ms
        else:
            other_ms += self_ms  # client.run_query's own time
    f, h = totals.get("kernels.factorize"), totals.get("kernels.hash_rows")
    if f:
        m["kernels.factorize_fallback_rows"] = f[3]
        m["kernels.vector_row_ratio"] = (f[2] - f[3]) / f[2] if f[2] else 0.0
    if h:
        m["kernels.hash_rows_fallback_rows"] = h[3]
    for key, span in (
        ("sql.parse_calls", "sql.parse"),
        ("cluster.quanta", "cluster.quantum"),
        ("blocks.size_bytes_calls", "blocks.size_bytes"),
        ("memory.reserve_calls", "memory.reserve"),
    ):
        m[key] = totals.get(span, (0, 0))[1]
    for catalog in CATALOGS:
        m[f"connectors.{catalog}.rows_read"] = totals.get(
            f"connectors.{catalog}.next_page", (0, 0, 0))[2]

    c = traced.counters
    m["optimizer.rules_fired"] = sum(
        v for k, v in c.items() if k.startswith("optimizer.rule_fired.")
    )
    for level in ("plan", "result", "metadata", "stripe"):
        m[f"cache.{level}_hit_ratio"] = _ratio(c, level)
    m["cache.evictions"] = c.get("cache.lru_evictions", 0) + c.get("cache.stripe_evictions", 0)
    m["cluster.sim_events"] = c.get("sim.events", 0)
    m["shuffle.bytes"] = c.get("network.bytes", 0)
    m["df.splits_pruned"] = c.get("df.splits_pruned", 0)
    m["df.rows_filtered"] = c.get("df.rows_filtered", 0)
    m["memory.peak_user_bytes"] = tracer.peak_user_bytes
    modeled = traced.modeled_values
    if modeled:
        m["cluster.sim_latency_p50_ms"] = statistics.median(v[1] for v in modeled)
        m["cluster.sim_queued_ms"] = sum(v[2] for v in modeled) / len(modeled)

    wall_ms = tracer.traced_s * 1000.0
    m["other_ms"] = other_ms
    m["trace.wall_ms"] = wall_ms
    m["trace.untraced_wall_ms"] = untraced.timed_s * 1000.0
    m["trace.overhead_pct"] = 100.0 * (tracer.traced_s - untraced.timed_s) / untraced.timed_s
    m["trace.spans"] = len(tracer.start)
    m["trace.missing_layers"] = sum(1 for span in expected if not totals.get(span, (0, 0))[1])
    m["share.planning_pct"] = 100.0 * sum(
        m[k] for k in ("sql.parse_ms", "planner.plan_ms", "optimizer.optimize_ms",
                       "planner.fragment_ms")
    ) / wall_ms
    m["error_rate"] = traced.failed / max(1, traced.attempted)
    return m


#: Printed ``ms`` metrics that are not a layer's self time.
_NOT_SELF_TIME = ("other_ms", "trace.wall_ms", "trace.untraced_wall_ms")


def split_residual_ms(m: dict) -> float:
    """trace.wall_ms minus (every printed per-layer self time + other_ms).
    Each span's self time is filed in exactly one bucket, so this is zero
    up to rounding unless a layer's time is computed but not printed, or
    printed twice."""
    layers_ms = sum(
        m[name] for name, unit in PER_LAYER if unit == "ms" and name not in _NOT_SELF_TIME
    )
    return m["trace.wall_ms"] - (layers_ms + m["other_ms"])


def split_problems(m: dict) -> list[str]:
    """Reasons the printed split of the traced wall cannot be trusted."""
    problems = []
    if m["other_ms"] < 0:
        problems.append(f"other_ms is negative ({m['other_ms']:.6f} ms)")
    residual = split_residual_ms(m)
    if abs(residual) > 1e-6 * m["trace.wall_ms"] + 1e-6:
        problems.append(
            f"per-layer self times + other_ms miss trace.wall_ms by {residual:.6f} ms"
        )
    return problems
