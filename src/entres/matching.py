"""Instance-based verification of a candidate record pair.

The refined field set of a record pair, its field pairs at or above xi,
forms a weighted bipartite graph over field indices.  Promoted schema
matchings are honored first, as forced edges (:func:`resolve_forced_pairs`):
a refined pair is forced when its two fields carry the two attributes of
a promotion, which is read off the ledger's partner map (``AttrOrigin ->
set of promoted counterparts``) by lookup.  A promoted field pair below
xi is not in the refined set, so it is not forced and counts for
nothing.  Every edge that touches no forced field goes through one
Kuhn-Munkres maximum-weight assignment (:func:`km_max_weight` on the
graph of :func:`build_graph`).  The union of the two edge sets is the
field matching, a one-to-one subset of the refined set: the same set the
bound and the direct path read.

The matching is scored by :func:`~entres.similarity.record_score`, as
the bound is, and the bound sums each left field's best refined pair, so
a verified score never exceeds the bound.  A pair with no multiple field
has only refined pairs that share no field, so verification returns its
whole refined set at the bound's score, the same float: a direct merge
is what verification would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Collection, Iterable, Mapping

from .pair_index import ValuePairIndex
from .records import AttrOrigin, SuperRecord
from .similarity import record_score

_EPS = 1e-9

Partners = Mapping[AttrOrigin, AbstractSet[AttrOrigin]]
_NO_PARTNERS: Partners = MappingProxyType({})


@dataclass(frozen=True)
class FieldMatchGraph:
    """Bipartite graph over field indices with similarity weights."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]

    @property
    def is_empty(self) -> bool:
        return not self.edges


@dataclass(frozen=True)
class VerifyResult:
    sim: float
    matching: tuple[tuple[int, int, float], ...]  # (lf, rf, sim), sorted


def build_graph(
    refined: Iterable[tuple[int, int, float]],
    forced: Collection[tuple[int, int, float]] = (),
) -> FieldMatchGraph:
    """The graph of the refined edges that touch no forced field.

    A forced triple of :func:`resolve_forced_pairs` takes its two fields
    out of the graph along with every edge touching them; what is left is
    laid out for :func:`km_max_weight`.
    """
    blocked_left = {lf for lf, _, _ in forced}
    blocked_right = {rf for _, rf, _ in forced}
    edges = [e for e in refined if e[0] not in blocked_left and e[1] not in blocked_right]
    left = tuple(sorted({lf for lf, _, _ in edges}))
    right = tuple(sorted({rf for _, rf, _ in edges}))
    return FieldMatchGraph(left=left, right=right, edges=tuple(sorted(edges)))


def _km_square(weight: list[list[float]]) -> list[int]:
    """Kuhn-Munkres on a square nonnegative matrix given as rows.

    Returns ``link`` with ``link[y] = x`` for the maximum-weight perfect
    assignment.  Vertices are scanned in ascending order, so ties resolve
    deterministically.
    """
    n = len(weight)
    lx = [max(row) for row in weight]
    ly = [0.0] * n
    link = [-1] * n

    def augment(x: int) -> bool:
        """Depth-first search for an augmenting path from ``x`` over tight
        edges, flipping ``link`` along it if found.  It keeps its own
        stack, so a long search costs no recursion: a frame is a left
        vertex and the next right vertex it scans, and a tight edge to a
        matched ``y`` pushes ``link[y]``.  Vertices are marked and
        ``slack`` relaxed in the order a recursive search would."""
        stack = [[x, 0]]
        visx[x] = True
        while stack:
            frame = stack[-1]
            u, y = frame
            while y < n:
                if not visy[y]:
                    gap = lx[u] + ly[y] - weight[u][y]
                    if gap < _EPS:
                        visy[y] = True
                        if link[y] == -1:
                            # each frame's vertex takes the y it pushed through
                            link[y] = u
                            for v, next_y in stack[:-1]:
                                link[next_y - 1] = v
                            return True
                        break
                    if slack[y] > gap:
                        slack[y] = gap
                y += 1
            if y < n:
                frame[1] = y + 1
                visx[link[y]] = True
                stack.append([link[y], 0])
            else:
                stack.pop()
        return False

    for x in range(n):
        slack = [float("inf")] * n
        while True:
            visx = [False] * n
            visy = [False] * n
            if augment(x):
                break
            d = min(slack[y] for y in range(n) if not visy[y])
            for u in range(n):
                if visx[u]:
                    lx[u] -= d
            for y in range(n):
                if visy[y]:
                    ly[y] += d
                else:
                    slack[y] -= d
    return link


def km_max_weight(graph: FieldMatchGraph) -> list[tuple[int, int, float]]:
    """Maximum-weight matching of the (possibly unbalanced) graph.

    The smaller side is padded with dummy vertices joined by zero-weight
    edges; dummy and zero-weight assignments are stripped from the result.
    """
    if graph.is_empty:
        return []
    n = max(len(graph.left), len(graph.right))
    weight = [[0.0] * n for _ in range(n)]
    lpos = {lf: i for i, lf in enumerate(graph.left)}
    rpos = {rf: i for i, rf in enumerate(graph.right)}
    for lf, rf, s in graph.edges:
        weight[lpos[lf]][rpos[rf]] = s
    link = _km_square(weight)
    # a dummy vertex's row and column hold only zeros
    return sorted(
        (graph.left[x], graph.right[y], weight[x][y]) for y, x in enumerate(link) if weight[x][y] > 0.0
    )


def resolve_forced_pairs(
    a: SuperRecord,
    b: SuperRecord,
    partners: Partners,
    refined: Iterable[tuple[int, int, float]],
) -> list[tuple[int, int, float]]:
    """The pairs of ``refined`` that promoted attribute matchings force.

    ``refined`` is the refined field set of (a, b) (see
    :meth:`~entres.pair_index.ValuePairIndex.cal_bound`) and ``partners``
    the ledger's symmetric partner map.  A refined pair is forced when one
    of its left field's origins has a promoted partner among its right
    field's origins.  Should two forced pairs collide on a field
    (possible once merged fields hold several origins), the
    higher-similarity pair wins, lowest field indices first.
    """
    if not partners:
        return []
    raw = []
    for lf, rf, s in refined:
        right = b.fields[rf - 1].origins
        if any(not right.isdisjoint(partners.get(o, ())) for o in a.fields[lf - 1].origins):
            raw.append((s, lf, rf))
    raw.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_l: set[int] = set()
    used_r: set[int] = set()
    forced = []
    for s, lf, rf in raw:
        if lf in used_l or rf in used_r:
            continue
        used_l.add(lf)
        used_r.add(rf)
        forced.append((lf, rf, s))
    return sorted(forced)


def verify_pair(
    index: ValuePairIndex,
    i: int,
    j: int,
    partners: Partners = _NO_PARTNERS,
) -> VerifyResult:
    """The similarity and field matching of candidate pair (i, j): the
    refined pairs the promotions in ``partners`` force plus the KM
    assignment of the rest (see the module docstring), sorted, so that the
    ledger votes in field order.
    """
    a, b = index.store[i], index.store[j]
    bound = index.cal_bound(i, j)
    forced = resolve_forced_pairs(a, b, partners, bound.refined)
    matching = tuple(sorted(forced + km_max_weight(build_graph(bound.refined, forced))))
    return VerifyResult(record_score([s for _, _, s in matching], min(a.width, b.width)), matching)
