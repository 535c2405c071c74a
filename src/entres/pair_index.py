"""The field-pair index: off-line construction by similarity join, a
record-similarity upper bound, candidate generation, and maintenance
under record merges.

For every pair of fields of two different records whose most similar
value pair reaches xi, the index holds that best similarity: exactly the
refined field set.  The record similarity sums over pairs of that set
alone, whether the bound, a direct merge or a verification reads it.  It
is kept as runs, one flat list ``[lf, rf, sim, lf, rf, sim, ...]`` per
record pair with ``rid_1 < rid_2``, where ``lf`` is a field id of rid_1
and ``rf`` one of rid_2: three slots per entry and no tuple, since
field ids are small cached ints and each ``sim`` is the float the join
made for its gram-set pair.  Only this module reads that layout; callers
get triples from :meth:`ValuePairIndex.cal_bound` and
:meth:`ValuePairIndex.iter_pairs`.  The runs sit in a symmetric run map:
``runs[a][b]`` and ``runs[b][a]`` are the same list, so a record's row
holds all its runs.  A run's entries are in no particular order; the
inspection views sort them.

Fold-on-read.  A run may hold a field pair more than once: the join
reaches it once per value pair of a multi-valued field, and a merge
appends the absorbed record's runs to the survivor's.  Nothing that
writes a run folds it.  Every read of a run goes through
:meth:`ValuePairIndex._read`, the bound, the pass plan, the size and the
inspection views alike, and the read folds it to the best entry per
field pair and stores the fold in both rows: a field's similarity is the
best over its values, so a merged field's is the maximum over its two
parts.  A field pair held twice covers both its fields twice, so only a
run with a multiple field can need a fold.  Of those, a run with no more
entries than fields on its two sides is first tested for a repeated
field pair, and is folded only if it holds one: look-alike fields make
such sparse runs without repeats, while a merge appends field pairs the
survivor's run mostly holds already, a denser run that nearly always
repeats one.  A merge's field map is one-to-one, so one fold after many
merges keeps the same entries, in the same order, as a fold after each.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from types import MappingProxyType
from typing import IO, Collection, Hashable, Iterator, Mapping, NamedTuple, Sequence

from .records import SuperRecord
from .similarity import DEFAULT_Q, gram_jaccard, qgrams, record_score

RecordStore = dict[int, SuperRecord]
# flat: left fid, right fid, best similarity, then the next entry (see above)
Run = list[float]
_NO_RUNS: Mapping[int, Run] = MappingProxyType({})


class FieldLabel(NamedTuple):
    """Position of one field in the record store; ``fid`` is 1-based."""

    rid: int
    fid: int


class IndexedPair(NamedTuple):
    """One indexed field pair.  ``left.rid < right.rid`` always."""

    left: FieldLabel
    right: FieldLabel
    sim: float


class BoundResult(NamedTuple):
    """Upper bound on the similarity of one record pair, exact when no
    field is multiple, plus the refined field set (per field pair, the
    best value-pair similarity)."""

    up: float
    refined: tuple[tuple[int, int, float], ...]
    has_multiple: bool


def _triples(run: Run) -> Iterator[tuple[int, int, float]]:
    """The entries of ``run`` as ``(lf, rf, sim)`` triples, in run order."""
    it = iter(run)
    return zip(it, it, it)


def _fold(run: Run) -> Run:
    """One entry per field pair, holding its best similarity, in order of
    first appearance.  A run without repeats is returned as it is."""
    at: dict[tuple[int, int], int] = {}  # field pair -> its slot in folded
    folded: Run = []
    for lf, rf, sim in _triples(run):
        pos = at.get((lf, rf))
        if pos is None:
            at[lf, rf] = len(folded)
            folded += lf, rf, sim
        elif sim > folded[pos + 2]:
            folded[pos + 2] = sim
    return run if len(folded) == len(run) else folded


class ValuePairIndex:
    """Catalogue of similar cross-record field pairs (see module docstring)."""

    def __init__(self, store: RecordStore) -> None:
        self.store = store
        self._runs: dict[int, dict[int, Run]] = {}  # rid -> other rid -> run

    # -- construction -----------------------------------------------------

    def _append(
        self, lefts: Sequence[tuple[int, int]], rights: Sequence[tuple[int, int]], sim: float
    ) -> None:
        """Append the field pair of each ``(rid, fid)`` label in ``lefts``
        with each label in ``rights`` of another record, at ``sim``, to the
        run of their record pair, smaller rid on the left; pairs within one
        record are skipped.  A field pair given twice is held twice
        (fold-on-read, in the module docstring)."""
        runs = self._runs
        for ri, fi in lefts:
            row = runs.get(ri, _NO_RUNS)
            for rj, fj in rights:
                if ri == rj:
                    continue
                run = row.get(rj)
                if run is None:
                    if row is _NO_RUNS:
                        row = runs[ri] = {}
                    run = row[rj] = runs.setdefault(rj, {})[ri] = []
                run += (fi, fj, sim) if ri < rj else (fj, fi, sim)

    # -- read operations --------------------------------------------------

    def __len__(self) -> int:
        # three slots per entry
        return sum(len(self._read(i, j)[0]) for i, j in self._pairs()) // 3

    def _read(self, i: int, j: int) -> tuple[Run, bool]:
        """The run of (i, j), ``i < j``, folded, and whether it has a
        multiple field: a field on either side covered by more than one of
        its entries, so that the bound of the run is not exact.  The one
        read of a run's entries (fold-on-read, in the module docstring)."""
        run = self._runs.get(i, _NO_RUNS).get(j, [])
        n = len(run) // 3
        lefts, rights = len(set(run[0::3])), len(set(run[1::3]))
        if lefts == rights == n:
            return run, False
        if n <= lefts + rights and len(set(zip(run[0::3], run[1::3]))) == n:
            return run, True  # sparse and without a repeat
        folded = _fold(run)
        if folded is not run:
            self._runs[i][j] = self._runs[j][i] = run = folded
            n = len(run) // 3
        # the fold keeps each side's fields, so lefts and rights still hold
        return run, lefts < n or rights < n

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """Every record pair with a run, ``(rid_1, rid_2)`` ascending."""
        for i in sorted(self._runs):
            row = sorted(self._runs[i])
            for j in row[bisect_right(row, i) :]:
                yield i, j

    def cal_bound(self, i: int, j: int) -> BoundResult:
        """Upper bound of the record similarity of (i, j).

        The run of (i, j) is the refined field set; the bound sums, per
        left-side field, its best covering pair.  A field on either side
        covered by more than one refined pair makes the pair "multiple";
        only when neither side has one is the bound exact.
        """
        if i >= j:
            raise ValueError("cal_bound requires i < j")
        run, has_multiple = self._read(i, j)
        # from a list, whose length is known: CPython's tuple() over an
        # iterator guesses ten slots and shrinks the tuple, and then each
        # call counts one more young object towards a collection
        refined = tuple([*_triples(run)])
        up_by_left: dict[int, float] = {}
        for lf, _, sim in refined:
            if sim > up_by_left.get(lf, 0.0):
                up_by_left[lf] = sim
        up = record_score(up_by_left.values(), min(self.store[i].width, self.store[j].width))
        return BoundResult(up, refined, has_multiple)

    def generate_candidates(
        self, delta: float
    ) -> tuple[list[tuple[int, int]], list[tuple[tuple[int, int], BoundResult]]]:
        """The plan of one pass (the pass plan of :mod:`entres.engine`): a
        walk over the index runs in ``(rid_1, rid_2)`` order.

        Returns (candidates, direct): the pairs whose upper bound reaches
        ``delta`` and has a multiple field, for verification, and
        ``((i, j), bound)`` for each pair whose bound reaches ``delta`` and
        is exact, for the engine to merge on the bound's refined set.
        Pairs bounded below ``delta`` are pruned; the range of ``delta`` is
        checked by :class:`~entres.engine.EngineConfig`.  ``direct`` is
        record-disjoint: a pair with a record that an earlier direct pair
        of the walk holds is deferred, and bounded only if its run, read
        folded, has a multiple field.
        """
        candidates: list[tuple[int, int]] = []
        direct: list[tuple[tuple[int, int], BoundResult]] = []
        held: set[int] = set()  # the records of the direct pairs planned so far
        for i, j in self._pairs():
            if (i in held or j in held) and not self._read(i, j)[1]:
                continue  # deferred or pruned: neither is acted on this pass
            bound = self.cal_bound(i, j)
            if bound.up < delta:
                continue
            if bound.has_multiple:
                candidates.append((i, j))
            else:
                direct.append(((i, j), bound))
                held.update((i, j))
        return candidates, direct

    # -- maintenance ------------------------------------------------------

    def apply_merge(self, i: int, j: int, k: int, field_map: Mapping[int, int]) -> None:
        """Update the index after records ``i`` and ``j`` merged into ``k``.

        ``k`` is one of ``i`` and ``j`` and keeps its field ids (see
        :func:`~entres.records.merge_super_records`); ``field_map`` takes
        each field id of the other, absorbed record to its id in ``k``.
        The run between the two records is deleted and every run of ``k``
        keeps its entries.  The absorbed record's row is popped and each of
        its runs moves onto ``k`` in place: the absorbed field ids are
        mapped and put on ``k``'s side of the record pair, and where
        ``k`` already has a run with the same other record, the moved
        entries are appended to it (fold-on-read, in the module docstring).
        """
        if k not in (i, j):
            raise ValueError("the merged record keeps the rid of one of the two")
        gone = j if k == i else i
        runs = self._runs
        for x, run in runs.pop(gone, {}).items():
            del runs[x][gone]
            if x == k:
                continue  # the run between the two records goes
            side = 0 if gone < x else 1  # the absorbed side of each entry
            to = 0 if k < x else 1  # the side k takes
            mapped = [*map(field_map.__getitem__, run[side::3])]
            run[1 - to :: 3] = run[1 - side :: 3]
            run[to::3] = mapped
            kept = runs[x].get(k)
            if kept:
                kept += run  # the one list of both rows
            else:
                runs[x][k] = runs.setdefault(k, {})[x] = run

    # -- inspection -------------------------------------------------------

    def iter_pairs(self) -> Iterator[IndexedPair]:
        """All field pairs in index order: (rid_1, rid_2) ascending, then
        similarity descending, then field ids."""
        for i, j in self._pairs():
            run = self._read(i, j)[0]
            for lf, rf, sim in sorted(_triples(run), key=lambda e: (-e[2], e[0], e[1])):
                yield IndexedPair(FieldLabel(i, lf), FieldLabel(j, rf), sim)

    def dump_jsonl(self, fp: IO[str]) -> None:
        """One ``{"pid", "left": [rid, fid], "right": [rid, fid], "sim"}``
        line per field pair, in index order."""
        for pid, (left, right, sim) in enumerate(self.iter_pairs(), 1):
            fp.write(
                json.dumps(
                    {"pid": pid, "left": list(left), "right": list(right), "sim": sim}
                )
                + "\n"
            )


# prefix grams a qualifying pair of gram sets shares (see _similar_gram_sets)
_PREFIX_GRAMS = 2


def _min_overlap(size: int, xi: float) -> int:
    """Fewest shared grams a set of ``size`` grams needs with any partner
    whose ``gram_jaccard`` reaches ``xi``.

    Jaccard >= xi needs overlap >= xi * |union| >= xi * size.  The float
    score may round up onto ``xi`` from just below it, and ``size * xi``
    may round up past an integer, so the bound is lowered by a relative
    1e-12: far above double rounding error, and a lower bound only admits
    more candidates.
    """
    return math.ceil(size * xi * (1.0 - 1e-12))


def _similar_gram_sets(
    sets: Sequence[Collection[Hashable]], xi: float
) -> Iterator[tuple[int, int, float]]:
    """Positions ``(a, b, sim)`` of every pair of distinct non-empty gram
    sets with ``gram_jaccard >= xi``: a prefix join that counts the prefix
    grams a pair shares before scoring it (the ℓ-prefix scheme of Wang,
    Li and Feng, with ℓ = ``_PREFIX_GRAMS`` = 2), plus size filtering and
    the shorter index prefix of Bayardo, Ma and Srikant's size-ordered
    join.  A set is any collection of distinct, mutually ordered grams:
    a frozenset of strings, or the sorted tuple of gram ids that
    :func:`build_index` holds.

    Grams are ranked rarest first, which keeps posting lists short, and
    ties go by the gram itself, so no rank depends on the iteration order
    of a set.
    A pair reaching ``xi`` shares at least ``need = _min_overlap(|g|,
    xi)`` grams, for either of its sets ``g``.  When ``need >= 2``, let
    c1 < c2 be the pair's two lowest-ranked common grams: in each set, c2
    is followed by at least ``need - 2`` more common grams, so both lie
    within that set's first ``|g| - need + 2`` ranked grams.  When
    ``need`` is 1, that prefix is the whole set and holds the one common
    gram needed.

    Sets are visited by increasing size; each counts, per partner
    already indexed, the grams of its probe prefix (``|b| - need + 2``)
    under which the partner is indexed, and is then indexed under its
    index prefix.  Every partner a set is indexed for comes later, so it
    is no smaller: with ``|b| >= |a|``, overlap o >= xi * (|a| + |b| - o)
    gives o >= xi / (1 + xi) * (|a| + |b|) >= 2 xi / (1 + xi) * |a|.  So
    ``a`` is indexed under its first ``|a| - _min_overlap(|a|, 2 xi / (1
    + xi)) + 2`` ranked grams, by the argument above with that ``need``;
    the relative 1e-12 slack of :func:`_min_overlap` covers the rounding
    of ``2 xi / (1 + xi)`` and a score rounded up onto ``xi``, as it does
    for ``xi`` itself.  So c1 and c2 lie in both prefixes, every
    qualifying pair is met once, when its larger set probes, with at
    least ``min(2, need)`` hits, and no per-set state is kept.  A
    partner with fewer hits, or smaller than ``need``, cannot qualify
    and is not scored.  The probe is made a frozenset once, and each
    partner is scored against it as it is held.
    """
    freq = Counter(gram for g in sets for gram in g)
    rank = {gram: r for r, gram in enumerate(sorted(freq, key=lambda gram: (freq[gram], gram)))}
    xi_index = 2 * xi / (1 + xi)  # what a partner no smaller than the set asks of it
    postings: dict[int, list[int]] = defaultdict(list)
    for b in sorted((pos for pos, g in enumerate(sets) if g), key=lambda pos: len(sets[pos])):
        g = sets[b]
        size = len(g)
        need = _min_overlap(size, xi)
        ranked = sorted(rank[gram] for gram in g)
        least = min(_PREFIX_GRAMS, need)
        # partners in order of their first shared prefix gram
        hits = Counter(
            itertools.chain.from_iterable(postings[r] for r in ranked[: size - need + _PREFIX_GRAMS])
        )
        probe = frozenset(g)
        for a, shared in hits.items():
            if shared >= least and len(sets[a]) >= need:
                sim = gram_jaccard(probe, sets[a])
                if sim >= xi:
                    yield a, b, sim
        for r in ranked[: size - _min_overlap(size, xi_index) + _PREFIX_GRAMS]:
            postings[r].append(b)


def _gram_groups(store: RecordStore, q: int) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Every ``(rid, fid)`` label of ``store``, once per value, grouped by
    the gram set of the value and keyed by it as a sorted tuple of gram
    ids; labels and groups are in walk order (rid, then field, then
    value).

    ``qgrams`` runs once per distinct value: a value -> group dict keeps
    each value's label list, so the many repeats of near-duplicate
    records cost one lookup and no tuple hash.  The grams of a value that
    are new to the call take the next ids in their sorted text order, so
    the ids follow the walk and not the iteration order of a set.  Both
    dicts are dropped on return: the groups hold no gram string, only
    small ints.
    """
    ids: dict[str, int] = {}  # gram -> id
    group_of: dict[str, list[tuple[int, int]]] = {}  # value -> the labels of its gram set
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for rid in sorted(store):
        for fid, fld in enumerate(store[rid].fields, 1):
            for v in fld.values:
                labels = group_of.get(v)
                if labels is None:
                    g = qgrams(v, q)
                    for gram in sorted(g.difference(ids)):
                        ids[gram] = len(ids)
                    key = tuple(sorted(map(ids.__getitem__, g)))
                    labels = group_of[v] = groups.setdefault(key, [])
                labels.append((rid, fid))
    return groups


def build_index(store: RecordStore, xi: float, q: int = DEFAULT_Q) -> ValuePairIndex:
    """Similarity join over every value in ``store``: index every
    cross-record field pair whose best value pair has simv >= xi.  The
    ranges of ``xi`` and ``q`` are checked by
    :class:`~entres.engine.EngineConfig`.

    Similarity depends on a value only through its gram set, so fields are
    grouped by the gram sets of their values, each held as a sorted tuple
    of gram ids (see :func:`_gram_groups`), and only the distinct sets are
    joined (see :func:`_similar_gram_sets`).  Fields sharing a set pair at
    ``gram_jaccard(g, g)`` (1.0); each similar set pair expands to all its
    cross-record field pairs, appended straight into their runs, so a
    field pair is appended once per similar pair of its values' gram sets
    (fold-on-read, in the module docstring).

    The cyclic garbage collector is paused while the join runs and is
    re-enabled afterwards only if it was enabled on entry, also when the
    join raises.  The join allocates a flat list per run (no object per
    field pair) and dicts of rows, and none of them can form a reference
    cycle, so a collection during the join could free nothing; yet each
    one walks the young objects, and each full one the whole growing
    index.  The pause is process-wide: other threads get no collection
    during it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        groups = _gram_groups(store, q)
        index = ValuePairIndex(store)
        for g, labels in groups.items():
            if len(labels) > 1:
                sim = gram_jaccard(g, g)
                for pos, label in enumerate(labels):
                    index._append((label,), labels[pos + 1 :], sim)
        sets = list(groups)
        for a, b, sim in _similar_gram_sets(sets, xi):
            index._append(groups[sets[a]], groups[sets[b]], sim)
        return index
    finally:
        if enabled:
            gc.enable()
