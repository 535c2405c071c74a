"""Similarity kernels: value-level q-gram Jaccard, and record-level
similarity over a one-to-one field matching.

The value metric is q-gram Jaccard and cannot be swapped: the join's
filters (``pair_index._min_overlap``, the two-gram prefix count, the
shorter index prefix and the size filter) are derived for Jaccard, so
another metric would silently lose value pairs.  Above the value level,
only a symmetric score in [0, 1] is assumed.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable

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
