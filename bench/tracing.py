"""Span tracing of the entres layers, installed from outside the library.

:meth:`Tracer.install` replaces each traced function where the program
looks it up (a module attribute or a class attribute) with a wrapper that
records a span: operation number, span id, parent span id, name, start
and end.  Spans stay in memory and are written out once, at exit.
:meth:`Tracer.uninstall` puts the originals back, so untraced operations
in the same process run the unmodified code.

``gram_jaccard`` runs millions of times per join, so it is counted, never
timed: a span per call would more than double the join's time.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from typing import IO, Callable

import entres.cli as cli
import entres.engine as engine
import entres.matching as matching
import entres.pair_index as pair_index
from entres.engine import ResolutionEngine
from entres.pair_index import ValuePairIndex
from entres.schema_vote import SchemaVoteLedger

# span names whose self time is reported, keyed by the metric that holds it
TIMED_METRICS = {
    "cli.parse_input_s": ("cli.parse_input",),
    "pair_index.build_index_s": ("pair_index.build_index",),
    "pair_index.generate_candidates_s": ("pair_index.generate_candidates",),
    "pair_index.cal_bound_s": ("pair_index.cal_bound",),
    "pair_index.apply_merge_s": ("pair_index.apply_merge",),
    "records.merge_super_records_s": ("records.merge_super_records",),
    "matching.verify_pair_s": ("matching.verify_pair",),
    "matching.resolve_forced_pairs_s": ("matching.resolve_forced_pairs",),
    "matching.build_graph_s": ("matching.build_graph",),
    "matching.km_s": ("matching.km_max_weight",),
    "schema_vote.s": (
        "schema_vote.record_prediction",
        "schema_vote.try_promote",
        "schema_vote.promoted_pairs",
    ),
    "engine.self_s": ("engine.init", "engine.run"),
}

Span = tuple[int, int, str, float, float]  # id, parent id (-1: root), name, start, end


class Tracer:
    """Spans and counters of the traced operations of one process."""

    def __init__(self, delta: float) -> None:
        self.delta = delta  # the engine's merge threshold: a verified pair at or above it merges
        self.ops: list[list[Span]] = []
        self.op_counts: list[Counter] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pending_verified: tuple[int, int] | None = None

    # -- recording ----------------------------------------------------------

    def start_op(self) -> None:
        """Open a new operation; later spans and counts belong to it."""
        self.ops.append([])
        self.op_counts.append(Counter())
        self._stack.clear()
        self._pending_verified = None

    @property
    def counts(self) -> Counter:
        return self.op_counts[-1]

    def _wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.ops[-1]
            sid = len(spans)
            spans.append((sid, -1, name, 0.0, 0.0))  # placeholder keeps ids in call order
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            return result

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced name where the program looks it up."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [
            (cli, "parse_input", "cli.parse_input", None),
            (cli, "load_labels", "cli.load_labels", None),
            (cli, "evaluate", "cli.evaluate", None),
            (ResolutionEngine, "__init__", "engine.init", None),
            (ResolutionEngine, "run", "engine.run", None),
            (engine, "build_index", "pair_index.build_index", self._on_build_index),
            (engine, "verify_pair", "matching.verify_pair", self._on_verify),
            (engine, "merge_super_records", "records.merge_super_records", self._on_merge),
            (ValuePairIndex, "generate_candidates", "pair_index.generate_candidates", self._on_generate),
            (ValuePairIndex, "cal_bound", "pair_index.cal_bound", None),
            (ValuePairIndex, "apply_merge", "pair_index.apply_merge", None),
            (matching, "resolve_forced_pairs", "matching.resolve_forced_pairs", self._on_forced),
            (matching, "build_graph", "matching.build_graph", None),
            (matching, "km_max_weight", "matching.km_max_weight", self._on_km),
            (SchemaVoteLedger, "record_prediction", "schema_vote.record_prediction", None),
            (SchemaVoteLedger, "try_promote", "schema_vote.try_promote", None),
            (SchemaVoteLedger, "promoted_pairs", "schema_vote.promoted_pairs", None),
        ]
        for owner, attr, name, hook in targets:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, hook))

        gram_jaccard = pair_index.gram_jaccard
        calls = self._gram_calls = itertools.count()

        def counted_gram_jaccard(g1, g2, tick=next, calls=calls):
            tick(calls)
            return gram_jaccard(g1, g2)

        self._patch(pair_index, "gram_jaccard", counted_gram_jaccard)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- count hooks (run inside the span they count for) -------------------

    def _on_build_index(self, args: tuple, index: ValuePairIndex) -> None:
        # the counter starts at install, before the operation: one join per operation
        self.counts["join_scores"] = next(self._gram_calls)
        self.counts["index_pairs"] = len(index)
        self.counts["index_runs"] = len(
            {(p.left.rid, p.right.rid) for p in index.iter_pairs()}
        )

    def _on_generate(self, args: tuple, result: tuple[list, list]) -> None:
        candidates, direct = result
        self.counts["candidates"] += len(candidates)
        self.counts["direct"] += len(direct)

    def _on_verify(self, args: tuple, result) -> None:
        _index, i, j = args[:3]
        self._pending_verified = (i, j) if result.sim >= self.delta else None

    def _on_merge(self, args: tuple, result) -> None:
        a, b = args[:2]
        if self._pending_verified == (a.rid, b.rid):
            self.counts["verified_merges"] += 1
        else:
            self.counts["direct_merges"] += 1
        self._pending_verified = None

    def _on_forced(self, args: tuple, forced: list) -> None:
        self.counts["forced_edges"] += len(forced)

    def _on_km(self, args: tuple, result) -> None:
        graph = args[0]
        if not graph.is_empty:
            self.counts["km_nonempty"] += 1
            n = max(len(graph.left), len(graph.right))
            self.counts["km_max_n"] = max(self.counts["km_max_n"], n)

    # -- reduction ----------------------------------------------------------

    def op_summary(self, op: int) -> dict[str, float]:
        """Per-layer self times and counts of traced operation ``op``."""
        spans = self.ops[op]
        counts = self.op_counts[op]
        child_time = [0.0] * len(spans)
        for _sid, parent, _name, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_by_name: dict[str, float] = defaultdict(float)
        calls_by_name: Counter = Counter()
        cal_bound_by_parent: Counter = Counter()
        for sid, parent, name, start, end in spans:
            self_by_name[name] += end - start - child_time[sid]
            calls_by_name[name] += 1
            if name == "pair_index.cal_bound":
                cal_bound_by_parent[spans[parent][2] if parent >= 0 else ""] += 1

        out = {metric: sum(self_by_name[n] for n in names) for metric, names in TIMED_METRICS.items()}
        join_scores = counts["join_scores"]
        candidates, direct = counts["candidates"], counts["direct"]
        scanned = cal_bound_by_parent["pair_index.generate_candidates"]
        pruned = scanned - candidates - direct
        verify_calls = calls_by_name["matching.verify_pair"]
        verified = counts["verified_merges"]
        out.update(
            {
                "pair_index.join_scores": join_scores,
                "pair_index.index_pairs": counts["index_pairs"],
                "pair_index.index_runs": counts["index_runs"],
                "pair_index.join_keep_ratio": counts["index_pairs"] / join_scores if join_scores else 0.0,
                "pair_index.cal_bound_calls": calls_by_name["pair_index.cal_bound"],
                "pair_index.pruned": pruned,
                "pair_index.direct": direct,
                "pair_index.candidates": candidates,
                "pair_index.prune_ratio": pruned / scanned if scanned else 0.0,
                "pair_index.apply_merge_calls": calls_by_name["pair_index.apply_merge"],
                "records.merge_calls": calls_by_name["records.merge_super_records"],
                "matching.verify_calls": verify_calls,
                "matching.verify_accept_ratio": verified / verify_calls if verify_calls else 0.0,
                "matching.forced_edges": counts["forced_edges"],
                "matching.km_nonempty": counts["km_nonempty"],
                "matching.km_max_n": counts["km_max_n"],
                "schema_vote.predictions": calls_by_name["schema_vote.record_prediction"],
                "engine.direct_merges": counts["direct_merges"],
                "engine.verified_merges": verified,
                # direct pairs re-checked by the engine's own loop; the rest had
                # an endpoint already merged in that iteration
                "engine.deferred": direct - cal_bound_by_parent["engine.run"],
                "trace.spans": len(spans),
            }
        )
        return out

    def write_spans(self, fp: IO[str]) -> None:
        """All recorded spans as JSON lines, times in seconds."""
        for op, spans in enumerate(self.ops):
            for sid, parent, name, start, end in spans:
                fp.write(
                    json.dumps(
                        {"op": op, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
