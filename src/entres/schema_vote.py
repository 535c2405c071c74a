"""Schema-matching decisions by majority vote.

Every verified similar record pair votes for the attribute
correspondences its field matching predicts: :meth:`SchemaVoteLedger.vote`
turns each matched field pair into predictions, one per pair of the two
fields' origins across schemas.  Per source attribute and counterpart
schema the predictions are tallied; the most frequent candidate is
promoted once a Hoeffding-style upper bound on the error probability of
the vote drops below the configured threshold.  Promotions are frozen: later
contradicting votes are logged, never acted on.

A prediction ``(a, b)`` contradicts the promotions when ``a`` already
has a promoted counterpart in ``b``'s schema that is not ``b``, or ``b``
one in ``a``'s schema that is not ``a``; the test is symmetric, so
``(a, b)`` and ``(b, a)`` are logged alike.

Because promotions only ever accumulate, the ledger keeps them, as they
are made, in the shape verification and export read: a symmetric
partner map from each promoted attribute to its counterparts, and the
first promotion of each distinct pair, in promotion order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, AbstractSet, Iterable, Mapping

from .records import AttrOrigin, SuperRecord


def error_bound(n: int, p: float) -> float:
    """Upper bound on the majority-vote error after ``n`` predictions with
    per-prediction correctness prior ``p``: exp(-(n / 2p) * (p - 1/2)^2).

    Strictly decreasing in ``n``.  ``p`` lies in (1/2, 1], checked by
    :class:`~entres.engine.EngineConfig`: at or below 1/2 the vote carries
    no information.
    """
    if n < 1:
        raise ValueError("need at least one prediction")
    return math.exp(-(n / (2.0 * p)) * (p - 0.5) ** 2)


@dataclass(frozen=True)
class PromotedMatching:
    a: AttrOrigin
    b: AttrOrigin
    votes: int
    p_error_upper: float

    @property
    def confidence(self) -> float:
        return 1.0 - self.p_error_upper

    def as_pair(self) -> frozenset[AttrOrigin]:
        return frozenset((self.a, self.b))


class SchemaVoteLedger:
    """Vote tally and promotion state, keyed by (attribute, counterpart
    schema).

    A promotion can be reached from either of its attributes, so the same
    unordered pair may be promoted twice, once per key; ``promoted()``,
    ``promoted_pairs()``, ``partners`` and the export hold it once.  The
    ranges of ``p`` and ``rho`` are checked by
    :class:`~entres.engine.EngineConfig`.
    """

    def __init__(self, p: float, rho: float) -> None:
        self.p = p
        self.rho = rho
        self._votes: dict[tuple[AttrOrigin, str], dict[AttrOrigin, int]] = {}
        self._promoted: dict[tuple[AttrOrigin, str], PromotedMatching] = {}
        self.contradictions: list[tuple[AttrOrigin, AttrOrigin]] = []
        self._partners: dict[AttrOrigin, set[AttrOrigin]] = {}
        self._distinct: list[PromotedMatching] = []

    def record_prediction(self, a: AttrOrigin, b: AttrOrigin) -> None:
        """Count one predicted correspondence, symmetrically for both
        attributes, and log it when it contradicts a promotion of either."""
        if a.source == b.source:
            raise ValueError("a prediction must span two schemas")
        contradicts = False
        for key_attr, cand in ((a, b), (b, a)):
            key = (key_attr, cand.source)
            tally = self._votes.setdefault(key, {})
            tally[cand] = tally.get(cand, 0) + 1
            decided = self._promoted.get(key)
            contradicts |= decided is not None and decided.b != cand
        if contradicts:
            self.contradictions.append((a, b))

    def vote(self, a: SuperRecord, b: SuperRecord, matching: Iterable[tuple[int, int, float]]) -> None:
        """Cast the votes of the verified merge of ``a`` and ``b`` under
        ``matching``: each cross-schema pair of a matched field pair's
        origins (matching order, origins sorted) is recorded once, as
        ``(lower, higher)``, and then both its keys are offered for promotion."""
        seen: set[tuple[AttrOrigin, AttrOrigin]] = set()
        for lf, rf, _ in matching:
            for o1 in sorted(a.fields[lf - 1].origins):
                for o2 in sorted(b.fields[rf - 1].origins):
                    x, y = (o1, o2) if o1 <= o2 else (o2, o1)
                    if o1.source != o2.source and (x, y) not in seen:
                        seen.add((x, y))
                        self.record_prediction(x, y)
                        self.try_promote(x, y.source)
                        self.try_promote(y, x.source)

    def votes_for(self, a: AttrOrigin, counterpart: str) -> dict[AttrOrigin, int]:
        return dict(self._votes.get((a, counterpart), {}))

    def try_promote(self, a: AttrOrigin, counterpart: str) -> PromotedMatching | None:
        """Promote the majority candidate when the error bound clears rho.

        A tie for the highest frequency defers promotion; an existing
        promotion for the same key is returned unchanged (no demotion).
        """
        key = (a, counterpart)
        if key in self._promoted:
            return self._promoted[key]
        tally = self._votes.get(key)
        if not tally:
            raise ValueError("no votes recorded for this attribute pair")
        n = sum(tally.values())
        top = max(tally.values())
        leaders = [cand for cand, c in tally.items() if c == top]
        if len(leaders) > 1:
            return None
        bound = error_bound(n, self.p)
        if bound >= self.rho:
            return None
        promo = PromotedMatching(a=a, b=leaders[0], votes=n, p_error_upper=bound)
        self._promoted[key] = promo
        if promo.b not in self._partners.get(a, ()):
            self._partners.setdefault(a, set()).add(promo.b)
            self._partners.setdefault(promo.b, set()).add(a)
            self._distinct.append(promo)
        return promo

    def promoted(self) -> list[PromotedMatching]:
        """The first promotion of each distinct attribute pair (unordered),
        in promotion order: the rows :meth:`export_jsonl` writes."""
        return list(self._distinct)

    def promoted_pairs(self) -> list[frozenset[AttrOrigin]]:
        """The pairs of :meth:`promoted`, unordered."""
        return [promo.as_pair() for promo in self.promoted()]

    @property
    def partners(self) -> Mapping[AttrOrigin, AbstractSet[AttrOrigin]]:
        """The live symmetric partner map: ``b in partners[a]`` exactly when
        ``{a, b}`` has been promoted.  It only grows; callers read it and
        never write to it."""
        return self._partners

    def export_jsonl(self, fp: IO[str]) -> None:
        """One JSON line per distinct promoted attribute pair (unordered),
        with the votes and error bound of its first promotion, in
        promotion order."""
        for promo in self._distinct:
            row = {
                "source_a": promo.a.source,
                "attr_a": promo.a.attr,
                "source_b": promo.b.source,
                "attr_b": promo.b.attr,
                "votes": promo.votes,
                "p_error_upper": promo.p_error_upper,
            }
            fp.write(json.dumps(row) + "\n")
