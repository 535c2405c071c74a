"""Core record model: heterogeneous records, merged super records, and the
union-find forest mapping record ids to entity labels.

A record is a sequence of fields; each field holds a set of string values
(stored as a duplicate-free list so that value positions stay stable) plus
the source attributes that fed it.  Merging two records fuses matched
fields and concatenates the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, NamedTuple

from .similarity import FieldMatchingSet


class ValueLabel(NamedTuple):
    """Position of one value in the record store.  All components 1-based."""

    rid: int
    fid: int
    vid: int


class AttrOrigin(NamedTuple):
    """A source attribute: (schema name, attribute name)."""

    source: str
    attr: str


@dataclass
class Field:
    """One field of a record: a duplicate-free list of normalized values and
    the set of source attributes merged into it."""

    values: list[str]
    origins: frozenset[AttrOrigin] = dc_field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a field must hold at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError("duplicate values within a field")
        self.origins = frozenset(self.origins)


@dataclass
class SuperRecord:
    """A (possibly merged) record.  ``rid`` is the current union-find root;
    the records folded into it are the ids the forest maps to that root."""

    rid: int
    fields: list[Field]

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("a record must have at least one field")

    @property
    def width(self) -> int:
        return len(self.fields)


def basic_record(rid: int, items: Iterable[tuple[AttrOrigin, str]]) -> SuperRecord:
    """Build an unmerged record: one value and one origin per field."""
    fields = [Field(values=[v], origins=frozenset([o])) for o, v in items]
    return SuperRecord(rid=rid, fields=fields)


def normalize_value(raw: str) -> str:
    """Trim surrounding whitespace and case-fold.  Idempotent."""
    return raw.strip().casefold()


class EntityForest:
    """Union-find over record ids with path compression and union by size.

    The root returned by :meth:`union` is always one of the two prior
    roots; nothing downstream may depend on which one wins.
    """

    def __init__(self, ids: Iterable[int] = ()) -> None:
        self._parent: dict[int, int] = {}
        self._size: dict[int, int] = {}
        for i in ids:
            self.add(i)

    def add(self, i: int) -> None:
        if i not in self._parent:
            self._parent[i] = i
            self._size[i] = 1

    def find(self, i: int) -> int:
        root = i
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[i] != root:
            self._parent[i], i = root, self._parent[i]
        return root

    def union(self, i: int, j: int) -> int:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return ri
        if self._size[rj] > self._size[ri]:
            ri, rj = rj, ri
        self._parent[rj] = ri
        self._size[ri] += self._size[rj]
        return ri

    def roots(self) -> set[int]:
        return {self.find(i) for i in self._parent}


def merge_super_records(
    a: SuperRecord,
    b: SuperRecord,
    matching: Iterable[tuple[int, int, float]],
    forest: EntityForest,
) -> tuple[SuperRecord, dict[ValueLabel, ValueLabel]]:
    """Fuse ``a`` and ``b`` under a one-to-one field matching.

    Performs ``union(a.rid, b.rid)`` and returns the merged record together
    with the label remapping for every value of ``a`` and ``b`` (old label
    -> new label), which the pair index needs for maintenance.

    Field order of the result: matched fields in ``a``'s field order, then
    ``a``'s unmatched fields, then ``b``'s unmatched fields.  Values equal
    after normalization are stored once.
    """
    if forest.find(a.rid) == forest.find(b.rid):
        raise ValueError("cannot merge a record with itself")
    pairs = FieldMatchingSet(matching)
    for lf, rf, _ in pairs:
        if not (1 <= lf <= a.width) or not (1 <= rf <= b.width):
            raise ValueError(f"matching references missing field ({lf}, {rf})")
    left_used = {lf for lf, _, _ in pairs}
    right_used = {rf for _, rf, _ in pairs}

    k = forest.union(a.rid, b.rid)
    label_map: dict[ValueLabel, ValueLabel] = {}
    new_fields: list[Field] = []

    def emit(af: Field | None, bf: Field | None, a_fid: int, b_fid: int) -> None:
        fid = len(new_fields) + 1
        values: list[str] = []
        pos: dict[str, int] = {}
        origins: frozenset[AttrOrigin] = frozenset()
        for fld, rid, old_fid in ((af, a.rid, a_fid), (bf, b.rid, b_fid)):
            if fld is None:
                continue
            origins |= fld.origins
            for vid, v in enumerate(fld.values, 1):
                if v not in pos:
                    values.append(v)
                    pos[v] = len(values)
                label_map[ValueLabel(rid, old_fid, vid)] = ValueLabel(k, fid, pos[v])
        new_fields.append(Field(values=values, origins=origins))

    for lf, rf, _ in pairs:
        emit(a.fields[lf - 1], b.fields[rf - 1], lf, rf)
    for fid, fld in enumerate(a.fields, 1):
        if fid not in left_used:
            emit(fld, None, fid, 0)
    for fid, fld in enumerate(b.fields, 1):
        if fid not in right_used:
            emit(None, fld, 0, fid)

    return SuperRecord(rid=k, fields=new_fields), label_map
