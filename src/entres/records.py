"""Core record model: heterogeneous records, merged super records, and the
union-find forest mapping record ids to entity labels.

A record is a sequence of fields; each field holds a set of string values
(stored as a duplicate-free list in the order they arrived) plus the
source attributes that fed it.  Merging two records fuses matched fields
and concatenates the rest, in place: the record that survives as the
union-find root keeps every field where it was, matched fields gain the
absorbed record's new values after their own, and the absorbed record's
unmatched fields follow.  Only the absorbed record's fields get new ids,
and since the root is chosen by union by size, a field is renumbered
O(log n) times over a run.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field as dc_field
from typing import Iterable, NamedTuple


class AttrOrigin(NamedTuple):
    """A source attribute: (schema name, attribute name)."""

    source: str
    attr: str


@dataclass(slots=True)
class Field:
    """One field of a record: a duplicate-free list of normalized values and
    the set of source attributes merged into it.

    ``Field(...)`` reads values by the command line's rule (README,
    "Values"): each is normalized with :func:`normalize_value`, and a value
    or origin that cannot be used is a ``ValueError``.  The parse and merge
    paths, whose values are already valid, build fields with
    :meth:`_unchecked`, so each rule is checked once."""

    values: list[str]
    origins: frozenset[AttrOrigin] = dc_field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if isinstance(self.values, str):
            raise ValueError("a field's values must be a collection of strings, not one string")
        values = list(self.values)
        if not all(isinstance(v, str) for v in values):
            raise ValueError("a field value must be a string")
        self.values = [normalize_value(v) for v in values]
        if not self.values:
            raise ValueError("a field must hold at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError("duplicate values within a field")
        if not all(self.values):
            # an empty value has no grams, so any two match at 1.0; the parser drops blank ones
            raise ValueError("a field value must not be empty or blank")
        self.origins = frozenset(self.origins)
        if not all(isinstance(o, AttrOrigin) for o in self.origins):
            raise ValueError("a field's origins must be AttrOrigin pairs")

    @classmethod
    def _unchecked(cls, values: list[str], origins: frozenset[AttrOrigin]) -> Field:
        """A field of values known to be normalized, distinct and not blank,
        with origins already a frozenset: built without the checks."""
        fld = object.__new__(cls)
        fld.values = values
        fld.origins = origins
        return fld


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
    """Trim surrounding whitespace and case-fold, in Unicode NFC before and
    after folding so canonically equivalent strings agree.  Idempotent.

    A trimmed NFC string is still NFC, so the second NFC runs only when
    folding changed the string."""
    trimmed = unicodedata.normalize("NFC", raw).strip()
    folded = trimmed.casefold()
    return folded if folded == trimmed else unicodedata.normalize("NFC", folded)


class EntityForest:
    """Union-find over record ids with path compression and union by size.

    :meth:`union` returns the prior root with more members, the first on
    a tie.  The partition does not depend on it, but the labels report it
    as the entity id, and the merged record keeps its fields first, so it
    orders the field ids that break Kuhn-Munkres ties (ROADMAP item 7).
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


def merge_super_records(
    a: SuperRecord,
    b: SuperRecord,
    matching: Iterable[tuple[int, int, float]],
    forest: EntityForest,
) -> tuple[SuperRecord, dict[int, int]]:
    """Fuse ``a`` and ``b`` under a one-to-one field matching.

    Performs ``k = union(a.rid, b.rid)``: the record whose rid survives as
    the root (the one with more members, by union by size) keeps its
    fields in place, and the other one is absorbed into it.  Returns the
    merged record together with the field map of the absorbed record
    (its field id -> the merged record's field id), which the pair index
    needs for maintenance; the survivor's field ids do not change, so
    they are not in the map.

    Field order of the result: the survivor's fields in their own order,
    each matched one followed by its partner's values that it does not
    already hold, then the absorbed record's unmatched fields in their
    order.  A matched field unions the two origin sets.  A matched
    absorbed field maps onto its partner and an unmatched one onto its new
    position, so the map is one-to-one.  Neither input record is
    modified: a field that the merge leaves as it is, unmatched or matched
    but gaining no value and no origin, is shared with its input record,
    and every other matched field is one new field.  Both records' fields
    are valid, so the new ones are not checked again.

    ``matching`` holds ``(a's field id, b's field id, score)`` triples,
    ids 1-based; the merge reads no score.  This is the one check of a
    field matching: it must be one-to-one and name fields of both
    records by integer id, or it is a ``ValueError`` raised before the
    forest changes.  Every matching the resolver makes passes, as its
    pairs are refined pairs that share no field: a direct merge takes the
    refined set of a pair with no multiple field, where no field is
    covered twice, and verification takes the forced pairs, no two of
    which :func:`~entres.matching.resolve_forced_pairs` lets share a
    field, plus a one-to-one Kuhn-Munkres assignment on the graph
    :func:`~entres.matching.build_graph` builds without the forced fields.
    """
    if forest.find(a.rid) == forest.find(b.rid):
        raise ValueError("cannot merge a record with itself")
    pairs = tuple(matching)
    left_of = {rf: lf for lf, rf, _ in pairs}
    right_of = {lf: rf for lf, rf, _ in pairs}
    if len(left_of) != len(pairs) or len(right_of) != len(pairs):
        raise ValueError("field matching must be one-to-one")
    a_width, b_width = a.width, b.width
    for lf, rf in right_of.items():
        if not (isinstance(lf, int) and 1 <= lf <= a_width and isinstance(rf, int) and 1 <= rf <= b_width):
            raise ValueError(f"matching references missing field ({lf}, {rf})")

    k = forest.union(a.rid, b.rid)
    # the absorbed record's field id -> its partner's, the survivor's
    keep, gone, partner_of = (a, b, left_of) if k == a.rid else (b, a, right_of)
    fields = list(keep.fields)
    field_map: dict[int, int] = {}
    for gone_fid, fld in enumerate(gone.fields, 1):
        fid = partner_of.get(gone_fid)
        if fid is None:
            fields.append(fld)
            fid = len(fields)
        else:
            kept = fields[fid - 1]
            held = set(kept.values)
            new = [v for v in fld.values if v not in held]
            if new or not fld.origins <= kept.origins:
                fields[fid - 1] = Field._unchecked(kept.values + new, kept.origins | fld.origins)
        field_map[gone_fid] = fid

    return SuperRecord(rid=k, fields=fields), field_map
