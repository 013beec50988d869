"""Hash aggregation operator with partial/final decomposition.

Partial aggregation runs before the shuffle and ships opaque
accumulator states; the final step combines states after repartitioning
(paper Fig. 3: AggregatePartial / AggregateFinal separated by a
partitioned shuffle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import PrestoError
from repro.exec import kernels
from repro.exec.blocks import make_block, ObjectBlock
from repro.exec.operator import AccumulatingOperator
from repro.exec.page import DEFAULT_PAGE_ROWS, Page
from repro.functions.registry import AggregateFunction
from repro.planner.nodes import AggregationStep
from repro.types import Type


@dataclass
class AggregatorSpec:
    """One aggregate bound to input channels."""

    function: AggregateFunction
    argument_channels: list[int]
    output_type: Type
    distinct: bool = False
    filter_channel: Optional[int] = None


#: Aggregates with a bulk numpy accumulation path (single primitive
#: argument, or zero arguments for count(*)).
_VECTORIZABLE = frozenset({"count", "count_if", "sum", "min", "max", "avg"})

# Integer sums stay bit-exact in the float64 bincount path as long as no
# per-group partial can exceed 2**53; larger inputs fall back to python
# ints (arbitrary precision, like the row path).
_EXACT_INT_SUM_BOUND = 2**53


class HashAggregationOperator(AccumulatingOperator):
    name = "HashAggregation"

    def __init__(
        self,
        group_channels: Sequence[int],
        group_types: Sequence[Type],
        aggregators: Sequence[AggregatorSpec],
        step: AggregationStep = AggregationStep.SINGLE,
    ):
        super().__init__()
        self.group_channels = list(group_channels)
        self.group_types = list(group_types)
        self.aggregators = list(aggregators)
        self.step = step
        if step is not AggregationStep.SINGLE:
            for agg in self.aggregators:
                if agg.distinct:
                    raise PrestoError("DISTINCT aggregates cannot be split across stages")
        # group key tuple -> list of states (one per aggregator)
        self._groups: dict[tuple, list] = {}
        self._retained = 0
        # Spilled runs of partial state (paper Sec. IV-F2).
        self._spilled_runs: list[dict[tuple, list]] = []
        self.spill_context = None

    # -- input ------------------------------------------------------------

    def accumulate(self, page: Page) -> None:
        key_blocks = [page.block(c) for c in self.group_channels]
        fact = kernels.factorize(key_blocks, page.row_count)
        if fact is None:
            self._accumulate_rows(page)
            return
        # Vector path: one dict probe per distinct key in the page, then
        # group-id-array-driven accumulation per aggregator.
        groups = self._groups
        states_by_gid: list[list] = []
        for key in kernels.key_tuples(key_blocks, fact.first_positions):
            states = groups.get(key)
            if states is None:
                states = [self._new_state(agg) for agg in self.aggregators]
                groups[key] = states
                self._retained += self._group_bytes(key, states)
            states_by_gid.append(states)
        for i, agg in enumerate(self.aggregators):
            self._accumulate_aggregator(page, i, agg, fact, states_by_gid)

    def _accumulate_aggregator(
        self,
        page: Page,
        index: int,
        agg: AggregatorSpec,
        fact: kernels.Factorization,
        states_by_gid: list[list],
    ) -> None:
        """Fold one page into one aggregator's per-group states, using
        bulk numpy reductions when the aggregate and its argument
        allow."""
        gids = fact.group_ids
        group_count = fact.group_count
        if (
            self.step is AggregationStep.FINAL
            or agg.distinct
            or agg.function.signature.name not in _VECTORIZABLE
            or len(agg.argument_channels) > 1
        ):
            self._accumulate_aggregator_rows(
                page, index, agg, gids, states_by_gid
            )
            return
        mask = None
        if agg.filter_channel is not None:
            arrays = kernels.primitive_arrays(page.block(agg.filter_channel))
            if arrays is None:
                self._accumulate_aggregator_rows(
                    page, index, agg, gids, states_by_gid
                )
                return
            filter_values, filter_nulls, _ = arrays
            mask = np.asarray(filter_values, dtype=np.bool_) & ~filter_nulls
        name = agg.function.signature.name
        if not agg.argument_channels:  # count(*)
            rows = gids if mask is None else gids[mask]
            counts = np.bincount(rows, minlength=group_count)
            self._merge_counts(index, counts, states_by_gid)
            return
        arrays = kernels.primitive_arrays(page.block(agg.argument_channels[0]))
        if arrays is None:
            self._accumulate_aggregator_rows(
                page, index, agg, gids, states_by_gid
            )
            return
        values, nulls, kind = arrays
        valid = ~nulls if mask is None else (mask & ~nulls)
        if name == "count":
            counts = np.bincount(gids[valid], minlength=group_count)
            self._merge_counts(index, counts, states_by_gid)
            return
        if name == "count_if":
            valid = valid & np.asarray(values, dtype=np.bool_)
            counts = np.bincount(gids[valid], minlength=group_count)
            self._merge_counts(index, counts, states_by_gid)
            return
        group_rows = gids[valid]
        vals = values[valid]
        if name in ("sum", "avg"):
            if name == "sum" and kind != "f" and len(vals):
                bound = max(abs(int(vals.min())), abs(int(vals.max()))) * len(vals)
                if bound >= _EXACT_INT_SUM_BOUND:
                    self._accumulate_aggregator_rows(
                        page, index, agg, gids, states_by_gid
                    )
                    return
            sums = np.bincount(
                group_rows, weights=vals.astype(np.float64), minlength=group_count
            )
            counts = np.bincount(group_rows, minlength=group_count)
            for g in np.flatnonzero(counts):
                states = states_by_gid[g]
                state = states[index]
                if name == "avg":
                    states[index] = (state[0] + float(sums[g]), state[1] + int(counts[g]))
                else:
                    partial = float(sums[g]) if kind == "f" else int(sums[g])
                    states[index] = partial if state is None else state + partial
            return
        # min / max
        if kind == "f" and np.isnan(vals).any():
            # minimum/maximum propagate NaN; the row path keeps NaN only
            # when it was the first value seen. Preserve that
            # order-dependence.
            self._accumulate_aggregator_rows(
                page, index, agg, gids, states_by_gid
            )
            return
        if kind == "b":
            vals = vals.astype(np.int64)
        ufunc = np.minimum if name == "min" else np.maximum
        partial, touched = kernels.group_reduce(group_rows, vals, group_count, ufunc)
        for g in np.flatnonzero(touched):
            value = partial[g]
            value = (
                bool(value) if kind == "b"
                else float(value) if kind == "f"
                else int(value)
            )
            states = states_by_gid[g]
            state = states[index]
            if state is None or (value < state if name == "min" else value > state):
                states[index] = value

    def _merge_counts(
        self, index: int, counts: np.ndarray, states_by_gid: list[list]
    ) -> None:
        for g in np.flatnonzero(counts):
            states = states_by_gid[g]
            states[index] = states[index] + int(counts[g])

    def _accumulate_aggregator_rows(
        self,
        page: Page,
        index: int,
        agg: AggregatorSpec,
        gids: np.ndarray,
        states_by_gid: list[list],
    ) -> None:
        """Per-row fallback for one aggregator, driven by group ids (no
        per-row dict probes)."""
        mask = (
            page.block(agg.filter_channel).to_values()
            if agg.filter_channel is not None
            else None
        )
        arg_columns = [page.block(c).to_values() for c in agg.argument_channels]
        final_step = self.step is AggregationStep.FINAL
        function = agg.function
        for row, g in enumerate(gids.tolist()):
            if mask is not None and mask[row] is not True:
                continue
            states = states_by_gid[g]
            if final_step:
                partial = arg_columns[0][row]
                if partial is not None:
                    states[index] = function.combine(states[index], partial)
                continue
            args = tuple(col[row] for col in arg_columns)
            if function.ignores_nulls and any(
                a is None for a in args
            ) and agg.argument_channels:
                continue
            if agg.distinct:
                before = len(states[index])
                states[index].add(args)
                if len(states[index]) != before:
                    self._retained += 16
            else:
                states[index] = function.add(states[index], *args)

    def _accumulate_rows(self, page: Page) -> None:
        """Whole-page fallback when a group key is a nested type (ARRAY/MAP/ROW)."""
        key_columns = [page.block(c).to_values() for c in self.group_channels]
        agg_columns = [
            [page.block(c).to_values() for c in agg.argument_channels]
            for agg in self.aggregators
        ]
        filter_columns = [
            page.block(agg.filter_channel).to_values()
            if agg.filter_channel is not None
            else None
            for agg in self.aggregators
        ]
        final_step = self.step is AggregationStep.FINAL
        groups = self._groups
        for row in range(page.row_count):  # row-path: nested-type group keys
            key = tuple(col[row] for col in key_columns)
            states = groups.get(key)
            if states is None:
                states = [self._new_state(agg) for agg in self.aggregators]
                groups[key] = states
                self._retained += self._group_bytes(key, states)
            for i, agg in enumerate(self.aggregators):
                mask = filter_columns[i]
                if mask is not None and mask[row] is not True:
                    continue
                if final_step:
                    partial = agg_columns[i][0][row]
                    if partial is not None:
                        states[i] = agg.function.combine(states[i], partial)
                    continue
                args = tuple(col[row] for col in agg_columns[i])
                if agg.function.ignores_nulls and any(
                    a is None for a in args
                ) and agg.argument_channels:
                    continue
                if agg.distinct:
                    before = len(states[i])
                    states[i].add(args)
                    if len(states[i]) != before:
                        self._retained += 16
                else:
                    states[i] = agg.function.add(states[i], *args)

    @staticmethod
    def _group_bytes(key: tuple, states: list) -> int:
        """Retained-memory charge for a new group: hash-table slot plus
        the actual key widths (VARCHAR keys are not free)."""
        size = 64 + 16 * len(states)
        for value in key:
            if isinstance(value, str):
                size += 48 + len(value)
            elif isinstance(value, (list, tuple, dict)):
                size += 48 + 16 * len(value)
            elif value is not None:
                size += 16
        return size

    def _new_state(self, agg: AggregatorSpec):
        if self.step is AggregationStep.FINAL:
            return agg.function.create()
        if agg.distinct:
            return set()
        return agg.function.create()

    # -- output ---------------------------------------------------------------

    # -- revocation (spilling) ------------------------------------------------

    def revocable_bytes(self) -> int:
        return self._retained

    def revoke(self) -> int:
        """Spill the current hash table as a run; merged at output time."""
        if not self._groups:
            return 0
        released = self._retained
        self._spilled_runs.append(self._groups)
        if self.spill_context is not None:
            self.spill_context.write(released)
        self._groups = {}
        self._retained = 0
        return released

    def _merge_spilled(self) -> dict[tuple, list]:
        groups = self._groups
        for run in self._spilled_runs:
            if self.spill_context is not None:
                self.spill_context.read(64 * len(run))
            for key, states in run.items():
                existing = groups.get(key)
                if existing is None:
                    groups[key] = states
                    continue
                for i, agg in enumerate(self.aggregators):
                    if agg.distinct:
                        existing[i] |= states[i]
                    else:
                        existing[i] = agg.function.combine(existing[i], states[i])
        self._spilled_runs = []
        return groups

    def build_output(self) -> list[Page]:
        if self._spilled_runs:
            self._groups = self._merge_spilled()
        groups = self._groups
        if not groups and not self.group_channels:
            # Global aggregation over zero rows still yields one row.
            groups = {(): [self._new_state(agg) for agg in self.aggregators]}
        if not groups:
            return []
        pages: list[Page] = []
        keys = list(groups.keys())
        for start in range(0, len(keys), DEFAULT_PAGE_ROWS):
            chunk = keys[start : start + DEFAULT_PAGE_ROWS]
            blocks = []
            for i, type_ in enumerate(self.group_types):
                blocks.append(make_block(type_, [k[i] for k in chunk]))
            for i, agg in enumerate(self.aggregators):
                values = [self._finalize(agg, groups[key][i]) for key in chunk]
                if self.step is AggregationStep.PARTIAL:
                    blocks.append(ObjectBlock(values))
                else:
                    blocks.append(make_block(agg.output_type, values))
            pages.append(Page(blocks, len(chunk)))
        return pages

    def _finalize(self, agg: AggregatorSpec, state):
        if agg.distinct:
            final_state = agg.function.create()
            for args in state:
                final_state = agg.function.add(final_state, *args)
            state = final_state
        if self.step is AggregationStep.PARTIAL:
            return state
        return agg.function.output(state)

    def retained_bytes(self) -> int:
        return self._retained
