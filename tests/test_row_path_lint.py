"""Style guard for the vectorized kernel layer.

The hot operator files route primitive-typed pages through
``repro.exec.kernels``; row-at-a-time loops over a whole page are only
allowed as sanctioned fallbacks (object-typed keys, inherently scalar
semantics) and must carry a ``# row-path:`` comment explaining why, on
the loop line or within the two preceding lines.

The storage layer is covered too: the ORC-like encoder/decoder and the
connector page sinks are batch paths, and a per-value loop over a
stripe's values (or a ``page.rows()`` walk in a sink) needs the same
sanction.

This keeps future edits from quietly reintroducing per-row hot loops —
the regression the vectorization PRs exist to prevent.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

HOT_FILES = [
    "src/repro/exec/operators/aggregation.py",
    "src/repro/exec/operators/joins.py",
    "src/repro/exec/operators/sorting.py",
    "src/repro/exec/operators/misc.py",
    "src/repro/exec/operators/core.py",
    "src/repro/exec/dynamic_filters.py",
    "src/repro/cluster/shuffle.py",
    # Fault-tolerance PR: the durable spool sits on the delivery path.
    "src/repro/cluster/spool.py",
    # Pipeline-fusion PR: the compiler, the fused operator, and the page
    # processor they route through.
    "src/repro/exec/pipeline.py",
    "src/repro/exec/page_processor.py",
    # The kernels themselves: VARCHAR keys are coded in dictionary space.
    "src/repro/exec/kernels.py",
    # Storage layer (columnar scan PR): encode/decode and page sinks.
    "src/repro/connectors/hive/format.py",
    "src/repro/connectors/hive/connector.py",
    "src/repro/connectors/raptor.py",
]

# Loops (or comprehensions) iterating once per row of a page, per value
# of a stripe buffer, or per row tuple of a page.
ROW_LOOP_PATTERNS = [
    re.compile(r"for\s+\w+\s+in\s+range\([^)]*row_count[^)]*\)"),
    re.compile(r"for\s+[\w,\s]+\s+in\s+\w*\.rows\(\)"),
    # Buffer walks (values.items() is a per-column dict walk, not per-row).
    re.compile(r"for\s+[\w,\s]+\s+in\s+(?:values|non_null)\b(?!\.)"),
]
SANCTION = re.compile(r"#\s*row-path")


def _matches_row_loop(line: str) -> bool:
    return any(pattern.search(line) for pattern in ROW_LOOP_PATTERNS)


def _violations(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    bad = []
    for i, line in enumerate(lines):
        if not _matches_row_loop(line):
            continue
        window = lines[max(0, i - 2) : i + 1]
        if any(SANCTION.search(w) for w in window):
            continue
        bad.append(f"{path.relative_to(REPO_ROOT)}:{i + 1}: {line.strip()}")
    return bad


@pytest.mark.parametrize("relpath", HOT_FILES)
def test_no_unsanctioned_row_loops(relpath):
    violations = _violations(REPO_ROOT / relpath)
    assert not violations, (
        "per-row loop in a vectorized hot path without a '# row-path:' "
        "sanction comment:\n" + "\n".join(violations)
    )


def test_lint_catches_untagged_loop(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("for row in range(page.row_count):\n    pass\n")
    # _violations uses paths relative to REPO_ROOT only for messages.
    lines = sample.read_text().splitlines()
    assert _matches_row_loop(lines[0])
    assert not SANCTION.search(lines[0])


def test_lint_catches_rows_walk():
    assert _matches_row_loop("for row in page.rows():")
    assert _matches_row_loop("non_null = [v for v in values if v is not None]")
    assert not _matches_row_loop("for stripe in self.file.stripes:")

