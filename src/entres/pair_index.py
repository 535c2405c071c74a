"""The sorted value-pair index: off-line construction by similarity join,
range lookup, a record-similarity upper bound, candidate generation, and
maintenance under record merges.

The index holds every cross-record value pair with similarity >= xi,
oriented so the smaller rid comes first and ordered by (rid_1 asc,
rid_2 asc, similarity desc).  Internally the sequence is kept as runs --
one sorted list per (rid_1, rid_2) in a dict -- so range lookup is one
dict lookup and whole-index scans visit the keys in sorted order.  A merge
moves only the runs of the absorbed record: the surviving record keeps
its labels, so its runs stay as they are and the moved pairs are merged
into them.  Union by size absorbs the record with fewer members, so each
pair is moved O(log n) times over a run.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, defaultdict
from operator import itemgetter
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

from .records import SuperRecord, ValueLabel
from .similarity import DEFAULT_Q, gram_jaccard, qgrams

RecordStore = dict[int, SuperRecord]


class IndexedPair(NamedTuple):
    """One indexed value pair.  ``left.rid < right.rid`` always."""

    left: ValueLabel
    right: ValueLabel
    sim: float


def _run_order(pair: IndexedPair) -> tuple:
    # within a (rid_1, rid_2) run both rids are fixed: similarity
    # descending, then the field and value positions of each label
    return (-pair.sim, pair.left, pair.right)


class BoundResult(NamedTuple):
    """Upper bound on the similarity of one record pair, exact when no
    field is multiple, plus the refined field set (per field pair, only the
    best-scoring value pair)."""

    up: float
    refined: tuple[tuple[int, int, float], ...]
    has_multiple: bool


def _oriented(left: ValueLabel, right: ValueLabel, sim: float) -> IndexedPair:
    if left.rid == right.rid:
        raise ValueError("indexed pairs must span two records")
    if left.rid > right.rid:
        return IndexedPair(right, left, sim)
    return IndexedPair(left, right, sim)


class ValuePairIndex:
    """Catalogue of similar cross-record value pairs (see module docstring)."""

    def __init__(self, store: RecordStore, xi: float, q: int = DEFAULT_Q) -> None:
        if not (0.0 < xi <= 1.0):
            raise ValueError("xi must lie in (0, 1]")
        self.store = store
        self.xi = xi
        self.q = q
        self._runs: dict[tuple[int, int], list[IndexedPair]] = {}
        self._keys_by_rid: dict[int, set[tuple[int, int]]] = defaultdict(set)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        store: RecordStore,
        pairs: Iterable[tuple[ValueLabel, ValueLabel, float]],
        xi: float,
        q: int = DEFAULT_Q,
    ) -> "ValuePairIndex":
        """Assemble an index from explicit value pairs (no join performed)."""
        index = cls(store, xi, q)
        for left, right, sim in pairs:
            index._insert(_oriented(ValueLabel(*left), ValueLabel(*right), sim))
        for run in index._runs.values():
            run.sort(key=_run_order)
        return index

    def _insert(self, pair: IndexedPair) -> None:
        key = (pair.left.rid, pair.right.rid)
        run = self._runs.get(key)
        if run is None:
            self._runs[key] = [pair]
            self._keys_by_rid[key[0]].add(key)
            self._keys_by_rid[key[1]].add(key)
        else:
            run.append(pair)

    # -- read operations --------------------------------------------------

    def __len__(self) -> int:
        return sum(len(run) for run in self._runs.values())

    def lookup_range(self, i: int, j: int) -> tuple[IndexedPair, ...]:
        """All pairs between records ``i`` and ``j`` (``i < j``), best first."""
        if i >= j:
            raise ValueError("lookup requires i < j")
        return tuple(self._runs.get((i, j), ()))

    def cal_bound(self, i: int, j: int) -> BoundResult:
        """Upper bound of the record similarity of (i, j).

        Keeps, per field pair, only the maximum-similarity value pair (the
        refined field set), and sums per left-side field the best covering
        pair.  A field on either side covered by more than one refined pair
        makes the pair "multiple"; only when neither side has one is the
        bound exact.
        """
        if i >= j:
            raise ValueError("lookup requires i < j")
        refined: list[tuple[int, int, float]] = []
        seen_fields: set[tuple[int, int]] = set()
        up_by_left: dict[int, float] = {}
        # sim-descending: the first hit per field pair, and per left field,
        # is its maximum
        for left, right, sim in self._runs.get((i, j), ()):
            fkey = (left.fid, right.fid)
            if fkey not in seen_fields:
                seen_fields.add(fkey)
                refined.append((left.fid, right.fid, sim))
                up_by_left.setdefault(left.fid, sim)
        if not refined:
            return BoundResult(0.0, (), False)
        n = len(refined)
        has_multiple = len(up_by_left) < n or len({rf for _, rf in seen_fields}) < n
        m = min(self.store[i].width, self.store[j].width)
        # field collisions can push the raw sum past m; the similarity
        # itself never exceeds 1, so clamp
        up = min(1.0, sum(up_by_left.values()) / m)
        return BoundResult(up, tuple(refined), has_multiple)

    def generate_candidates(
        self, delta: float
    ) -> tuple[list[tuple[int, int]], list[tuple[tuple[int, int], float]]]:
        """One linear pass over the index runs.

        Returns (candidates, direct): pairs whose upper bound reaches
        ``delta`` and need verification, and pairs whose bound is exact
        (no multiple field on either side) so their similarity is already
        known.  Pairs with upper bound below ``delta`` are pruned.
        """
        if not (0.0 <= delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")
        candidates: list[tuple[int, int]] = []
        direct: list[tuple[tuple[int, int], float]] = []
        for key in sorted(self._runs):
            bound = self.cal_bound(*key)
            if bound.up < delta:
                continue
            if bound.has_multiple:
                candidates.append(key)
            else:
                direct.append((key, bound.up))
        return candidates, direct

    # -- maintenance ------------------------------------------------------

    def apply_merge(
        self,
        i: int,
        j: int,
        k: int,
        label_map: Mapping[ValueLabel, ValueLabel],
    ) -> None:
        """Update the index after records ``i`` and ``j`` merged into ``k``.

        ``k`` is one of ``i`` and ``j`` and keeps its labels (see
        :func:`~entres.records.merge_super_records`); ``label_map``
        relabels the other, absorbed record.  The run between the two
        records is deleted and every run of ``k`` keeps its pairs.  Each
        run of the absorbed record moves onto ``k``: its absorbed side is
        relabeled and its pairs join ``k``'s run with the same other
        record, in run order.

        An absorbed value equal to one that ``k``'s matched field already
        held lands on that value's label.  Equal values have equal gram sets
        and the index holds every pair at or above xi, so ``k``'s run with
        the same other record already holds that value's pairs under its
        ``k``-side label, and the moved copies are dropped.  They are found
        by that label alone: a label new to ``k`` is in none of its runs.
        """
        if k not in (i, j):
            raise ValueError("the merged record keeps the rid of one of the two")
        gone = j if k == i else i
        dead = (min(i, j), max(i, j))
        self._runs.pop(dead, None)
        self._keys_by_rid[k].discard(dead)
        for key in self._keys_by_rid.pop(gone, ()):
            if key == dead:
                continue
            run = self._runs.pop(key)
            side = 0 if key[0] == gone else 1  # the absorbed side of each pair
            x = key[1 - side]
            self._keys_by_rid[x].discard(key)
            new_key = (k, x) if k < x else (x, k)
            kept = self._runs.get(new_key)
            if kept is None:
                kept = self._runs[new_key] = []
                self._keys_by_rid[k].add(new_key)
                self._keys_by_rid[x].add(new_key)
            if k < x:
                held = {left for left, _, _ in kept}
                kept += [IndexedPair(new, p[1 - side], p.sim)
                         for p in run if (new := label_map[p[side]]) not in held]
            else:
                held = {right for _, right, _ in kept}
                kept += [IndexedPair(p[1 - side], new, p.sim)
                         for p in run if (new := label_map[p[side]]) not in held]
            # run order without a Python-level key: label order, then a
            # stable sort on similarity descending
            kept.sort()
            kept.sort(key=itemgetter(2), reverse=True)

    # -- inspection -------------------------------------------------------

    def iter_pairs(self) -> Iterator[IndexedPair]:
        """All pairs in index order (rid_1 asc, rid_2 asc, sim desc)."""
        for key in sorted(self._runs):
            yield from self._runs[key]

    def rows(self) -> Iterator[tuple[int, ValueLabel, ValueLabel, float]]:
        """(pid, left label, right label, similarity), pid 1-based."""
        for pid, pair in enumerate(self.iter_pairs(), 1):
            yield pid, pair.left, pair.right, pair.sim

    def dump_jsonl(self, fp: IO[str]) -> None:
        for pid, left, right, sim in self.rows():
            fp.write(
                json.dumps(
                    {"pid": pid, "left": list(left), "right": list(right), "sim": sim}
                )
                + "\n"
            )

    def check_sorted(self) -> bool:
        """Full-scan assertion of the index sort invariant (test hook)."""
        for key, run in self._runs.items():
            for a, b in zip(run, run[1:]):
                if _run_order(a) > _run_order(b):
                    return False
            for pair in run:
                if (pair.left.rid, pair.right.rid) != key or pair.left.rid >= pair.right.rid:
                    return False
        return True


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
    sets: list[frozenset[str]], xi: float
) -> Iterator[tuple[int, int, float]]:
    """Positions ``(a, b, sim)`` of every pair of distinct non-empty gram
    sets with ``gram_jaccard >= xi`` (AllPairs: prefix and size filtering).

    Grams are ranked rarest first, which keeps posting lists short.  Any
    two sets reaching ``xi`` share a gram within each one's first
    ``|g| - _min_overlap(|g|) + 1`` ranked grams: their lowest-ranked
    common gram is followed, in both, by at least ``_min_overlap - 1``
    more common grams.  Sets are visited by increasing size, each probes the
    inverted list of its prefix grams and is then added to it, so every
    qualifying pair is met once, when its larger set probes.  A partner
    smaller than ``_min_overlap`` of the probing set cannot qualify and is
    not scored.
    """
    freq = Counter(gram for g in sets for gram in g)
    rank = {gram: r for r, gram in enumerate(sorted(freq, key=lambda gram: (freq[gram], gram)))}
    postings: dict[int, list[int]] = defaultdict(list)
    for b in sorted((pos for pos, g in enumerate(sets) if g), key=lambda pos: len(sets[pos])):
        g = sets[b]
        need = _min_overlap(len(g), xi)
        seen: set[int] = set()
        for r in sorted(rank[gram] for gram in g)[: len(g) - need + 1]:
            for a in postings[r]:
                if a in seen:
                    continue
                seen.add(a)
                if len(sets[a]) < need:
                    continue
                sim = gram_jaccard(sets[a], g)
                if sim >= xi:
                    yield a, b, sim
            postings[r].append(b)


def build_index(store: RecordStore, xi: float, q: int = DEFAULT_Q) -> ValuePairIndex:
    """Similarity join over every value in ``store``: index all cross-record
    value pairs with simv >= xi.

    Similarity depends on a value only through its gram set, so labels are
    grouped by gram set and only the distinct sets are joined (see
    :func:`_similar_gram_sets`).  Labels sharing a set pair at
    ``gram_jaccard(g, g)`` (1.0); each similar set pair expands to all its
    cross-record label pairs.
    """
    index = ValuePairIndex(store, xi, q)
    groups: dict[frozenset[str], list[ValueLabel]] = defaultdict(list)
    for rid in sorted(store):
        for fid, fld in enumerate(store[rid].fields, 1):
            for vid, v in enumerate(fld.values, 1):
                groups[qgrams(v, q)].append(ValueLabel(rid, fid, vid))

    for g, labels in groups.items():
        if len(labels) > 1:
            sim = gram_jaccard(g, g)
            for left, right in itertools.combinations(labels, 2):
                if left.rid != right.rid:
                    index._insert(_oriented(left, right, sim))
    sets = list(groups)
    for a, b, sim in _similar_gram_sets(sets, xi):
        for left in groups[sets[a]]:
            for right in groups[sets[b]]:
                if left.rid != right.rid:
                    index._insert(_oriented(left, right, sim))

    for run in index._runs.values():
        run.sort(key=_run_order)
    return index
