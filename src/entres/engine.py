"""The resolution loop: iterate the pass plan, direct merges,
verification, schema voting and merging until a pass merges nothing.

One iteration is one pass plan
(:meth:`~entres.pair_index.ValuePairIndex.generate_candidates`): a walk
over the index in record-pair order that bounds each pair once.  A pair
whose bound is below delta is pruned.  A pair with an exact bound (no
multiple field) is direct: its refined set is its field matching, and it
merges on the bound the plan handed it, unverified and not bounded
again.  The rest are candidates, verified by the bipartite matching of
:mod:`entres.matching`.

Deferral.  The direct pairs of a pass share no record: a direct pair
with a record that an earlier direct pair of the pass holds is deferred
to the next pass, when its records are the merged ones.  So no merge of
the pass touches a planned direct pair, and its bound still holds when
it merges.  The plan bounds a pair with a held record only if it has a
multiple field, since only then can it still be a candidate of the pass.
Candidates are re-rooted through the union-find before verification,
which is sound because every surviving field pair stays reachable under
the merged roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .matching import verify_pair
from .pair_index import RecordStore, ValuePairIndex, build_index
from .records import EntityForest, Field, SuperRecord, merge_super_records
from .schema_vote import PromotedMatching, SchemaVoteLedger
from .similarity import DEFAULT_Q


@dataclass(frozen=True)
class EngineConfig:
    """Run thresholds, checked when built: an invalid config cannot exist.
    This is the one type and range check of each; the layers trust their
    values.  The CLI makes a flag of each field, typed by its default."""

    delta: float = field(default=0.5, metadata={"help": "record similarity threshold"})
    xi: float = field(default=0.5, metadata={"help": "value similarity threshold"})
    q: int = field(default=DEFAULT_Q, metadata={"help": "gram length"})
    rho: float = field(default=0.6, metadata={"help": "vote error-probability threshold"})
    prior: float = field(default=0.8, metadata={"help": "per-prediction correctness prior"})

    def __post_init__(self) -> None:
        for f in fields(self):  # q takes an int, a threshold an int or a float, none a bool
            value, integer = getattr(self, f.name), isinstance(f.default, int)
            if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
                raise ValueError(f"{f.name} must be {'an integer' if integer else 'a number'}, not {value!r}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if not (0.0 < self.xi <= 1.0):
            raise ValueError("xi must lie in (0, 1]")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if not (0.5 < self.prior <= 1.0):
            raise ValueError("prior must lie in (0.5, 1]")


@dataclass
class ResolutionResult:
    labels: dict[int, int]  # original record id -> entity id (union-find root)
    promoted: tuple[PromotedMatching, ...]  # see SchemaVoteLedger.promoted
    merge_history: tuple[int, ...]  # merges per iteration

    @property
    def iterations(self) -> int:
        return len(self.merge_history)

    @property
    def merges(self) -> int:
        return sum(self.merge_history)

    @property
    def converged(self) -> bool:  # the last iteration merged nothing
        return self.merge_history[-1:] == (0,)

    @property
    def entities(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for rid, eid in self.labels.items():
            out.setdefault(eid, set()).add(rid)
        return out


class ResolutionEngine:
    """Mutable resolution state: live record store, forest, index, ledger."""

    def __init__(self, records: RecordStore, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        if not records:
            raise ValueError("no records to resolve")
        for key, rec in records.items():
            if not isinstance(rec, SuperRecord):
                raise ValueError(f"record stored under key {key!r} is a {type(rec).__name__}, not a SuperRecord")
            if key != rec.rid:
                raise ValueError(f"record stored under key {key!r} has rid {rec.rid!r}")
            if not all(isinstance(fld, Field) for fld in rec.fields):
                raise ValueError(f"record {key!r} has a field that is not a Field")
        try:
            self._original_ids = sorted(records)
        except TypeError:
            raise ValueError("record ids must be mutually orderable, such as all ints or all strs") from None
        self.store: RecordStore = dict(records)
        self.forest = EntityForest(self.store)
        self.ledger = SchemaVoteLedger(p=self.config.prior, rho=self.config.rho)
        self.index: ValuePairIndex = build_index(self.store, self.config.xi, self.config.q)

    def merge_pair(self, i: int, j: int, matching: tuple[tuple[int, int, float], ...]) -> None:
        """Merge the live roots ``i`` and ``j``."""
        a, b = self.store[i], self.store[j]
        merged, field_map = merge_super_records(a, b, matching, self.forest)
        del self.store[i]
        del self.store[j]
        self.store[merged.rid] = merged
        self.index.apply_merge(i, j, merged.rid, field_map)

    def _run_iteration(self) -> int:
        cfg = self.config
        candidates, direct = self.index.generate_candidates(cfg.delta)
        merges = 0

        for (i, j), bound in direct:
            # the plan is record-disjoint, so the bound still holds (see the module docstring)
            self.merge_pair(i, j, bound.refined)
            merges += 1

        seen: set[tuple[int, int]] = set()
        for i, j in candidates:
            ri, rj = self.forest.find(i), self.forest.find(j)
            if ri == rj:
                continue
            if ri > rj:
                ri, rj = rj, ri
            if (ri, rj) in seen:
                continue
            seen.add((ri, rj))
            result = verify_pair(self.index, ri, rj, self.ledger.partners)
            if result.sim < cfg.delta:
                continue
            self.ledger.vote(self.store[ri], self.store[rj], result.matching)
            self.merge_pair(ri, rj, result.matching)
            merges += 1
        return merges

    def run(self) -> ResolutionResult:
        # each merge removes a live record, so the fixpoint comes within n iterations
        history = [self._run_iteration()]
        while history[-1]:
            history.append(self._run_iteration())
        labels = {rid: self.forest.find(rid) for rid in self._original_ids}
        return ResolutionResult(
            labels=labels,
            promoted=tuple(self.ledger.promoted()),
            merge_history=tuple(history),
        )


def run(records: RecordStore, config: EngineConfig | None = None) -> ResolutionResult:
    """Resolve ``records`` (basic records keyed by rid) to entity labels."""
    return ResolutionEngine(records, config).run()
