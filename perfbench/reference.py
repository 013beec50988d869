"""Build and verify the stored reference answers of fig6_adhoc.

    python3 perfbench/reference.py            # check the stored answers
    python3 perfbench/reference.py --write    # regenerate them
    python3 perfbench/reference.py --oracle   # also check vs the naive oracle

The answers are the engine's own results on one fresh 8-worker cluster,
checked once against ``repro.fuzz.oracle.run_oracle`` (a naive,
unoptimized evaluator) with the benchmark's float tolerance. The oracle
takes minutes on the joins, so the benchmark compares against the stored
set instead of re-running it. LIMIT queries are stored without their
LIMIT, up to the last row tied with the cut.

The dashboard_zipf reference model can be checked against the oracle
the same way with ``--dashboard``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
from harness import rows_match


def _json_value(value):
    if isinstance(value, (str, int, float)) or value is None:
        return value
    raise TypeError(f"unsupported answer value {value!r}")


def reference_sql() -> dict[str, str]:
    """Each fig6 query as the reference evaluates it: LIMIT queries
    without their LIMIT (see wl_fig6.TOP_N)."""
    import wl_fig6

    return {
        qid: wl_fig6.without_limit(sql)[0] if qid in wl_fig6.TOP_N else sql
        for qid, sql in sorted(wl_fig6.queries().items())
    }


def engine_results() -> dict[str, list[tuple]]:
    import wl_fig6

    cluster = wl_fig6.fresh_cluster(wl_fig6.load_hive())
    return {
        qid: cluster.run_query(sql, drain=True).rows()
        for qid, sql in reference_sql().items()
    }


def stored_form(qid: str, rows: list[tuple]) -> dict:
    """What fig6_answers.json keeps for one query."""
    import wl_fig6

    rows = [[_json_value(v) for v in row] for row in rows]
    if qid not in wl_fig6.TOP_N:
        return {"rows": rows}
    limit = wl_fig6.without_limit(wl_fig6.queries()[qid])[1]
    order = wl_fig6.TOP_N[qid]
    if order is None:  # LIMIT without ORDER BY: any `limit` rows will do
        return {"limit": limit, "keys": [], "rows": rows}
    column, descending = order
    values = [row[column] for row in rows]
    if values != sorted(values, reverse=descending):
        raise ValueError(f"{qid}: rows are not in ORDER BY order")
    end = limit
    while 0 < end < len(rows) and values[end] == values[limit - 1]:
        end += 1
    return {"limit": limit, "keys": [column], "rows": rows[:end]}


def write_answers(results) -> None:
    import wl_fig6

    entries = []
    for qid, rows in sorted(results.items()):
        form = stored_form(qid, rows)
        head = ", ".join(f'"{k}": {json.dumps(v)}' for k, v in form.items() if k != "rows")
        body = ",\n".join(json.dumps(row) for row in form["rows"])
        entries.append(f'"{qid}": {{{head + ", " if head else ""}"rows": [\n{body}\n]}}')
    wl_fig6.ANSWERS.write_text("{\n" + ",\n".join(entries) + "\n}\n")


def check_fig6_oracle(results) -> int:
    import wl_fig6
    from repro.catalog.metadata import Metadata
    from repro.fuzz.oracle import run_oracle

    metadata = Metadata()
    metadata.register_catalog("hive", wl_fig6.load_hive())
    bad = 0
    for qid, sql in reference_sql().items():
        start = time.perf_counter()
        _, rows = run_oracle(metadata, sql, "hive", "default")
        ok = rows_match(rows, results[qid])
        bad += not ok
        print(f"{qid}: {'ok' if ok else 'MISMATCH'} "
              f"({len(rows)} rows, oracle {time.perf_counter() - start:.1f}s)",
              flush=True)
    return bad


def check_dashboard_oracle(ops: int = 600) -> int:
    import wl_dashboard
    from repro.fuzz.oracle import run_oracle

    bench = wl_dashboard.Dashboard(seed=1)
    bench.build()
    bad = checked = 0
    seen = set()
    for op in bench.stream(ops):
        if op.insert is not None:
            bench.cluster.run_query(op.sql, drain=True)
            bench.model.insert(op.insert)
            seen.clear()
            continue
        if op.sql in seen:
            continue
        seen.add(op.sql)
        _, rows = run_oracle(bench.cluster.metadata, op.sql, "hive", "default")
        checked += 1
        if not rows_match(rows, bench.model.answer(op.shape, op.literal)):
            bad += 1
            print(f"MISMATCH: {op.sql}")
    print(f"dashboard model: {checked} texts checked, {bad} mismatches")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--dashboard", action="store_true")
    args = parser.parse_args()
    run.import_engine()
    import wl_fig6

    results = engine_results()
    if args.write:
        write_answers(results)
        print(f"wrote {wl_fig6.ANSWERS}")
    # The stored answers must accept what the benchmark's queries return.
    stored = wl_fig6.load_answers()
    cluster = wl_fig6.fresh_cluster(wl_fig6.load_hive())
    bad = sum(
        not stored[qid](cluster.run_query(sql, drain=True).rows())
        for qid, sql in sorted(wl_fig6.queries().items())
    )
    print(f"fig6 engine vs stored answers: {bad} mismatches")
    if args.oracle:
        bad += check_fig6_oracle(results)
    if args.dashboard:
        bad += check_dashboard_oracle()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
