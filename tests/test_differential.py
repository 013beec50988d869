"""Differential testing over a template query pool.

Every generated query is routed through the multi-way agreement runner
(``repro.fuzz.runner.check_tables_sql``), which compares the reference
oracle against every engine configuration in ``CONFIG_NAMES``.

The grammar-based fuzzer (tests/test_fuzz.py) explores a much wider
query space; this module keeps a hand-tuned template pool aimed at the
optimizer rules and the distributed shuffle machinery over a larger,
skewed dataset than the fuzzer's generated tables.
"""

from __future__ import annotations

import random

import pytest

from repro.fuzz.runner import CONFIG_NAMES, check_tables_sql

T_COLUMNS = ["a", "b", "v", "s"]
U_COLUMNS = ["a", "w", "t"]


def dataset():
    rng = random.Random(1234)
    t_rows = [
        (
            rng.randrange(20),
            rng.choice([None, rng.randrange(5)]),
            round(rng.uniform(-100, 100), 2),
            rng.choice(["red", "green", "blue", None]),
        )
        for _ in range(300)
    ]
    u_rows = [
        (rng.randrange(25), round(rng.uniform(0, 50), 2), rng.choice(["x", "y"]))
        for _ in range(80)
    ]
    return t_rows, u_rows


def tables():
    t_rows, u_rows = dataset()
    return [
        ("t", [("a", "bigint"), ("b", "bigint"), ("v", "double"), ("s", "varchar")], t_rows),
        ("u", [("a", "bigint"), ("w", "double"), ("t", "varchar")], u_rows),
    ]


class QueryGenerator:
    """Deterministic random SELECT generator over tables t and u."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def scalar(self, prefix: str, columns: list[str]) -> str:
        rng = self.rng
        column = f"{prefix}.{rng.choice(columns)}"
        kind = rng.randrange(4)
        if kind == 0:
            return column
        if kind == 1 and columns is T_COLUMNS:
            return f"coalesce({prefix}.b, 0) + {prefix}.a"
        if kind == 2:
            return f"abs({prefix}.a - {rng.randrange(10)})"
        return f"CASE WHEN {prefix}.a % 2 = 0 THEN {prefix}.a ELSE -{prefix}.a END"

    def predicate(self, prefix: str) -> str:
        rng = self.rng
        choices = [
            f"{prefix}.a > {rng.randrange(15)}",
            f"{prefix}.a BETWEEN {rng.randrange(5)} AND {5 + rng.randrange(15)}",
            f"{prefix}.a IN ({rng.randrange(5)}, {5 + rng.randrange(5)}, {10 + rng.randrange(5)})",
        ]
        if prefix == "t":
            choices += [
                "t.s IS NOT NULL",
                "t.s LIKE 'g%'",
                "t.v > 0",
                "t.b IS NULL OR t.b > 1",
            ]
        return rng.choice(choices)

    def generate(self) -> str:
        rng = self.rng
        use_join = rng.random() < 0.5
        from_clause = "t"
        if use_join:
            join_type = rng.choice(["JOIN", "LEFT JOIN"])
            from_clause = f"t {join_type} u ON t.a = u.a"
        where = " AND ".join(
            self.predicate("t") for _ in range(rng.randrange(0, 3))
        )
        aggregate = rng.random() < 0.5
        if aggregate:
            key = rng.choice(["t.a % 3", "t.s", "t.b"])
            measures = rng.sample(
                ["count(*)", "sum(t.a)", "min(t.v)", "max(t.a)", "count(t.b)"],
                k=2,
            )
            select = f"{key} AS k, {', '.join(measures)}"
            group = "GROUP BY 1"
            order = "ORDER BY 1, 2, 3"
        else:
            items = [self.scalar("t", T_COLUMNS)]
            if use_join:
                items.append("u.w")
            select = ", ".join(
                f"{item} AS c{i}" for i, item in enumerate(items)
            )
            group = ""
            order = "ORDER BY " + ", ".join(
                f"{i + 1}" for i in range(len(items))
            )
        limit = f"LIMIT {rng.randrange(5, 50)}" if rng.random() < 0.3 and not order else ""
        sql = f"SELECT {select} FROM {from_clause}"
        if where:
            sql += f" WHERE {where}"
        if group:
            sql += f" {group}"
        if order:
            sql += f" {order}"
        if limit:
            sql += f" {limit}"
        return sql


@pytest.fixture(scope="module")
def pool_tables():
    return tables()


@pytest.mark.parametrize("seed", range(40))
def test_template_pool_all_configs_agree(pool_tables, seed):
    sql = QueryGenerator(seed).generate()
    disagreements = check_tables_sql(pool_tables, sql, seed=seed)
    assert disagreements == [], "\n".join(str(d) for d in disagreements)


def test_fault_injected_config_is_exercised():
    # The runner's config list must include the crash/retry cluster so
    # the template pool covers paper Sec. IV-G behavior.
    assert "cluster_faults" in CONFIG_NAMES
