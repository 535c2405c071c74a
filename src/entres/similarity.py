"""Similarity kernels: value-level q-gram Jaccard, and record-level
similarity over a one-to-one field matching.

The value metric is q-gram Jaccard and cannot be swapped: the join's
filters (``pair_index._min_overlap``, the two-gram prefix count, the
shorter index prefix and the size filter) are derived for Jaccard, so
another metric would silently lose value pairs.  Above the value level,
only a symmetric score in [0, 1] is assumed.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, Iterator

DEFAULT_Q = 2


def qgrams(value: str, q: int = DEFAULT_Q) -> frozenset[str]:
    """All length-q contiguous substrings of ``value`` as a set.

    Strings shorter than q yield themselves as a single gram; the empty
    string yields the empty set.  ``q >= 1`` is checked by
    :class:`~entres.engine.EngineConfig`.
    """
    if not value:
        return frozenset()
    if len(value) < q:
        return frozenset([value])
    return frozenset(value[i : i + q] for i in range(len(value) - q + 1))


def gram_jaccard(g1: Collection[Hashable], g2: Collection[Hashable]) -> float:
    """Jaccard over two gram sets; two empty sets count as identical.

    Each side is any collection of distinct grams: a frozenset, or a
    tuple such as the gram ids ``pair_index`` joins on.  ``g1`` is best a
    frozenset, which ``frozenset(g1)`` returns as it is; ``g2`` is only
    iterated.  The score is the same float whatever the containers.
    """
    if not g1 and not g2:
        return 1.0
    inter = len(frozenset(g1).intersection(g2))
    if inter == 0:
        return 0.0
    return inter / (len(g1) + len(g2) - inter)


def simv(a: str, b: str, q: int = DEFAULT_Q) -> float:
    """q-gram Jaccard similarity of two normalized values."""
    return gram_jaccard(qgrams(a, q), qgrams(b, q))


class FieldMatchingSet:
    """A one-to-one set of matched field pairs, each with its similarity.

    Pairs are (left field index, right field index, score); indices are
    1-based.  Stored sorted by left index for deterministic iteration.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int, float]] = ()) -> None:
        norm = sorted((int(lf), int(rf), float(s)) for lf, rf, s in pairs)
        left = [p[0] for p in norm]
        right = [p[1] for p in norm]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("field matching must be one-to-one")
        for _, _, s in norm:
            if not (0.0 <= s <= 1.0):
                raise ValueError("matching scores must lie in [0, 1]")
        self.pairs: tuple[tuple[int, int, float], ...] = tuple(norm)

    @classmethod
    def _unchecked(cls, pairs: Iterable[tuple[int, int, float]]) -> FieldMatchingSet:
        """A matching sorted but not checked.  Each one the resolver makes
        is valid by construction, its pairs refined pairs with int indices,
        scored in [xi, 1].  A direct merge takes the refined set of a pair
        with no multiple field, where no field is covered twice;
        verification takes the forced pairs, no two of which
        ``resolve_forced_pairs`` lets share a field, and a one-to-one
        Kuhn-Munkres assignment on the graph ``build_graph`` builds without
        the forced fields."""
        matching = object.__new__(cls)
        matching.pairs = tuple(sorted(pairs))
        return matching

    def __iter__(self) -> Iterator[tuple[int, int, float]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldMatchingSet) and self.pairs == other.pairs

    def __repr__(self) -> str:
        return f"FieldMatchingSet({list(self.pairs)!r})"


def record_score(scores: Iterable[float], width: int) -> float:
    """The sum of ``scores`` over ``width``, the smaller record's field
    count: the one formula of the bound and of verification.

    A float sum depends on the order of its terms, so they are summed
    largest first: the same scores in any order give the same float, and
    a direct pair's bound equals its verification score.  Field
    collisions can push the bound's sum past ``width``; the similarity
    itself never exceeds 1, so clamp.
    """
    return min(1.0, sum(sorted(scores, reverse=True)) / width)
