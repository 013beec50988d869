"""Shared pieces of the benchmark: result checking, the per-run
collector, and the cross-run store of modeled fingerprints.

Everything here is stdlib-only so the harness itself never shows up in
the engine's profile.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: The checkout the benchmark runs in (this file is <root>/perfbench/).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their spans and modeled fingerprints (git-ignored).
OUT_DIR = ROOT / ".perfbench_out"

#: Relative tolerance for DOUBLE results: partial sums reach the same
#: value in a different order on different commits, so bit equality is
#: too strict, while 6-place rounding flips on values like 26541.9858125.
REL_TOL = 1e-9
ABS_TOL = 1e-9


# -- answer checking ---------------------------------------------------------


def _sort_key(row) -> tuple:
    out = []
    for value in row:
        if value is None:
            out.append((0, ""))
        elif isinstance(value, bool):
            out.append((1, int(value)))
        elif isinstance(value, (int, float)):
            if isinstance(value, float) and not math.isfinite(value):
                out.append((3, repr(value)))
            else:
                # 7 significant digits: coarse enough that tolerance-equal
                # floats sort together, fine enough to order distinct rows.
                out.append((1, float(f"{value:.7g}")))
        else:
            out.append((2, str(value)))
    return tuple(out)


def _value_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None or isinstance(a, str) or isinstance(b, str):
            return False
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _row_equal(a, b) -> bool:
    return len(a) == len(b) and all(_value_equal(x, y) for x, y in zip(a, b))


def _sub_multiset(rows, pool) -> bool:
    unmatched = list(pool)
    for row in rows:
        for i, candidate in enumerate(unmatched):
            if _row_equal(row, candidate):
                del unmatched[i]
                break
        else:
            return False
    return True


def rows_match(actual, expected) -> bool:
    """Compare two results as multisets of rows, floats by relative
    tolerance. Pairs rows after a tolerance-robust sort; falls back to
    greedy matching when the sorted pairing disagrees (near-equal floats
    can sort either way)."""
    if len(actual) != len(expected):
        return False
    left = sorted((tuple(r) for r in actual), key=_sort_key)
    right = sorted((tuple(r) for r in expected), key=_sort_key)
    if all(_row_equal(a, b) for a, b in zip(left, right)):
        return True
    return _sub_multiset(left, right)


def top_n_match(actual, ordered, limit: int, keys) -> bool:
    """``ORDER BY <keys> LIMIT n``: ``ordered`` is the reference result
    without the LIMIT, in order. Rows tied with the n-th row on the
    sort keys may be chosen in any way; every row ranked before them
    must be there."""
    expected = [tuple(r) for r in ordered[:limit]]
    if len(actual) != len(expected):
        return False
    if not expected or rows_match(actual, expected):
        return True
    cut = tuple(expected[-1][k] for k in keys)

    def tied(row) -> bool:
        return _row_equal(tuple(row[k] for k in keys), cut)

    return rows_match(
        [r for r in actual if not tied(r)], [r for r in expected if not tied(r)]
    ) and _sub_multiset(
        [r for r in actual if tied(r)], [tuple(r) for r in ordered if tied(r)]
    )


def corrupt(rows: list) -> list:
    """A deliberately wrong answer (``--inject-wrong-answer``): drop the
    last row, or invent one when the result is empty."""
    return list(rows[:-1]) if rows else [("injected",)]


# -- host measurements ---------------------------------------------------------


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one run's bookkeeping -----------------------------------------------------


def counters_of(cluster) -> dict:
    """The numeric stats_snapshot() counters plus LRU evictions of the
    metadata, plan and result caches."""
    out = {
        key: value
        for key, value in cluster.stats_snapshot().items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    caches = [getattr(cluster.metadata, "cache", None)]
    for tier in (cluster.plan_cache, cluster.result_cache):
        caches.append(getattr(tier, "cache", None))
    out["cache.lru_evictions"] = sum(c.evictions for c in caches if c is not None)
    return out


class Collector:
    """Latencies, outcomes and modeled values of one run's timed work."""

    def __init__(self, inject_wrong: bool = False, tracer=None):
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self.completed = 0
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.timed_s = 0.0
        self.inject_wrong = inject_wrong
        self._modeled = hashlib.sha256()
        self.modeled_values: list[tuple] = []
        self.flags: list[str] = []
        #: Reasons the run's numbers cannot be trusted: modeled numbers
        #: that failed to repeat (the run measured a different simulated
        #: schedule than it should have), or a traced split that does not
        #: add up to the traced wall.
        self.invalid: list[str] = []
        # Numeric stats_snapshot() counters summed over the run's clusters.
        self.counters: Counter = Counter()
        self._deferred: list = []

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    @contextmanager
    def timed(self):
        """A timed region (traced too, in the traced replay)."""
        if self.tracer is not None:
            with self.tracer.region():
                start = time.perf_counter()
                yield
                self.timed_s += time.perf_counter() - start
            return
        start = time.perf_counter()
        yield
        self.timed_s += time.perf_counter() - start

    def merge(self, other: "Collector") -> None:
        """Count another collector's checked queries with this one's."""
        self.attempted += other.attempted
        self.errors += other.errors
        self.wrong += other.wrong
        self.flags += other.flags
        self.invalid += other.invalid

    def defer(self, check) -> None:
        """Queue an answer check to run outside the timed region."""
        self._deferred.append(check)

    def run_checks(self) -> None:
        while self._deferred:
            self._deferred.pop(0)()

    def query(self, index: int) -> None:
        """Tag the spans that follow with the workload's query index."""
        if self.tracer is not None:
            self.tracer.query_id = index

    def _flag(self, message: str) -> None:
        if len(self.flags) < 20:
            self.flags.append(message)

    def error(self, what: str, exc: BaseException) -> None:
        """Count one query that failed or was rejected."""
        self.attempted += 1
        self.errors += 1
        trace = "".join(traceback.format_exception(exc, limit=-3))
        self._flag(f"error: {what}\n{trace}")

    def check(self, what: str, actual, expected) -> None:
        """Count one completed query and check its rows. ``expected`` is
        the reference rows (compared as a multiset) or a function telling
        whether the given rows are right."""
        self.attempted += 1
        self.completed += 1
        if self.inject_wrong and self.attempted == 1:
            actual = corrupt(actual)
        right = expected(actual) if callable(expected) else rows_match(actual, expected)
        if not right:
            self.wrong += 1
            self._flag(f"wrong answer ({len(actual)} rows): {what}")

    def modeled(self, *values) -> None:
        """Fold virtual-clock values into the run's modeled fingerprint.
        They must repeat bit-for-bit for a given seed and work size."""
        self._modeled.update(repr(values).encode())
        self.modeled_values.append(values)

    def absorb(self, cluster, before: dict | None = None) -> None:
        """Add a cluster's counters (minus ``before``) to the run's totals."""
        before = before or {}
        for key, value in counters_of(cluster).items():
            self.counters[key] += value - before.get(key, 0)

    @property
    def modeled_digest(self) -> str:
        return self._modeled.hexdigest()


# -- modeled numbers must repeat across runs -----------------------------------


def source_digest() -> str:
    """Hash of the engine's and the benchmark's sources, so fingerprints
    left by another version of either are never compared with these."""
    digest = hashlib.sha256()
    paths = list((ROOT / "src").rglob("*.py")) + list(Path(__file__).parent.glob("*.py"))
    for path in sorted(paths):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(key: str, digest: str) -> bool:
    """Compare a run's modeled fingerprint with the one an earlier run of
    the same program, workload, seed and work size left behind. True
    when there is nothing to compare or the two agree."""
    key = f"{source_digest()}:{key}"
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "modeled.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is None:
        known[key] = digest
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
        return True
    return previous == digest
