import random
import string
from collections import defaultdict
from pathlib import Path
from typing import Iterable

import pytest

from entres.cli import parse_input
from entres.pair_index import BoundResult, FieldLabel, RecordStore, ValuePairIndex, _fold, _triples
from entres.records import (
    AttrOrigin,
    EntityForest,
    Field,
    SuperRecord,
    basic_record,
)
from entres.similarity import DEFAULT_Q, simv

DATA_DIR = Path(__file__).resolve().parent.parent / "demos" / "data"
CUSTOMERS = DATA_DIR / "customers.jsonl"
CUSTOMERS_GOLD = DATA_DIR / "customers_gold.jsonl"
# `entres --dump-index` on CUSTOMERS at the defaults, as committed
CUSTOMERS_INDEX = DATA_DIR / "customers_index.jsonl"


def simf(f1: Field, f2: Field, q: int = DEFAULT_Q) -> float:
    """Field similarity, the oracle of every index entry: the score of the
    most similar value pair."""
    return max(simv(v, w, q) for v in f1.values for w in f2.values)


def index_from_pairs(
    store: RecordStore, pairs: Iterable[tuple[tuple[int, int], tuple[int, int], float]]
) -> ValuePairIndex:
    """An index assembled from ``((rid, fid), (rid, fid), sim)`` field
    pairs, either side first, with no join.  A field pair given more than
    once is held more than once; the read folds it to its best
    similarity."""
    index = ValuePairIndex(store)
    for left, right, sim in pairs:
        if left[0] == right[0]:
            raise ValueError("indexed pairs must span two records")
        index._append((left,), (right,), sim)
    return index


@pytest.fixture
def customer_store() -> RecordStore:
    """The six-record customer scenario: {r1, r2, r4, r6} and {r3, r5}
    are the true entities."""
    return parse_input(str(CUSTOMERS)).store


def random_store(
    rng: random.Random,
    n_records: int,
    max_fields: int = 5,
    max_values: int = 2,
    vocab: list[str] | None = None,
) -> RecordStore:
    """Small random stores over a tight vocabulary so that similar and
    identical cross-record values are common."""
    if vocab is None:
        base = ["bush", "bushel", "gmail", "chicago", "chicag", "manager",
                "831-432", "john", "jon", "la", "电子", "food", "foobar", "fooba"]
        vocab = base
    store: RecordStore = {}
    for rid in range(1, n_records + 1):
        n_fields = rng.randint(1, max_fields)
        items = []
        for fid in range(n_fields):
            origin = AttrOrigin(source=f"s{rid % 3}", attr=f"a{fid}")
            items.append((origin, rng.choice(vocab)))
        rec = basic_record(rid, items)
        # widen some fields to multiple values
        for fld in rec.fields:
            while len(fld.values) < max_values and rng.random() < 0.3:
                v = rng.choice(vocab)
                if v not in fld.values:
                    fld.values.append(v)
        store[rid] = rec
    return store


# four schemas that name the same concepts differently; the values of
# different concepts look alike (the login is the name without its space,
# the e-mail starts with the login, fax and mobile share the phone's
# prefix), so fields of one record resemble several fields of another
LOOKALIKE_SCHEMAS = {
    "crm": [("name", "full_name"), ("email", "email"), ("phone", "phone"), ("fax", "fax")],
    "web": [("login", "username"), ("email", "mail"), ("mobile", "mobile")],
    "billing": [("name", "customer"), ("email", "e_mail"), ("phone", "tel"), ("fax", "fax_no")],
    "support": [("name", "name"), ("login", "login"), ("phone", "contact"), ("mobile", "cell")],
}


def lookalike_store(n_entities, seed):
    """One record per entity and schema, in shuffled record order."""
    rng = random.Random(seed)

    def word(k):
        return "".join(rng.choice(string.ascii_lowercase) for _ in range(k))

    def digits(k):
        return "".join(rng.choice(string.digits) for _ in range(k))

    rows = []
    for _ in range(n_entities):
        first, last = word(5), word(6)
        phone = f"{digits(3)}-{digits(3)}-{digits(4)}"
        truth = {
            "name": f"{first} {last}", "login": first + last,
            "email": f"{first}{last}@{word(2)}.io", "phone": phone,
            "fax": phone[:-1] + digits(1), "mobile": phone[:-2] + digits(2),
        }
        for source, concepts in LOOKALIKE_SCHEMAS.items():
            rows.append([(AttrOrigin(source, attr), truth[c]) for c, attr in concepts])
    rng.shuffle(rows)
    return {rid: basic_record(rid, items) for rid, items in enumerate(rows, 1)}


def lookalike_gold() -> set[frozenset[AttrOrigin]]:
    """The true schema matching of :data:`LOOKALIKE_SCHEMAS`: every pair of
    attributes of two sources that name the same concept."""
    by_concept: dict[str, list[AttrOrigin]] = defaultdict(list)
    for source, concepts in LOOKALIKE_SCHEMAS.items():
        for concept, attr in concepts:
            by_concept[concept].append(AttrOrigin(source, attr))
    return {
        frozenset((one, two))
        for attrs in by_concept.values()
        for pos, one in enumerate(attrs)
        for two in attrs[pos + 1 :]
    }


def partners_of(pairs) -> dict[AttrOrigin, set[AttrOrigin]]:
    """The symmetric partner map of unordered attribute pairs."""
    out: dict[AttrOrigin, set[AttrOrigin]] = {}
    for one, two in pairs:
        out.setdefault(one, set()).add(two)
        out.setdefault(two, set()).add(one)
    return out


def reference_forced_pairs(
    a: SuperRecord,
    b: SuperRecord,
    promoted: list[frozenset[AttrOrigin]],
    refined: Iterable[tuple[int, int, float]],
) -> list[tuple[int, int, float]]:
    """The simple path for ``matching.resolve_forced_pairs``: test every
    field pair of ``a`` and ``b`` against every promoted pair, keep the
    forced pairs that ``refined`` holds, with its scores, then settle
    collisions by similarity and field indices."""
    scores = {(lf, rf): s for lf, rf, s in refined}
    raw = []
    for lf, lfield in enumerate(a.fields, 1):
        for rf, rfield in enumerate(b.fields, 1):
            for pair in promoted:
                one, two = tuple(pair)
                if (one in lfield.origins and two in rfield.origins) or (
                    two in lfield.origins and one in rfield.origins
                ):
                    if (lf, rf) in scores:
                        raw.append((scores[lf, rf], lf, rf))
                    break
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


def reference_cal_bound(
    index: ValuePairIndex, i: int, j: int, xi: float, q: int = DEFAULT_Q
) -> tuple[float, frozenset[tuple[int, int, float]], bool]:
    """The simple path for ``ValuePairIndex.cal_bound``, as
    ``(up, refined set, has_multiple)``, from the records alone: score
    every field pair with ``simf`` over ``q``-grams and keep those at or
    above ``xi`` (the parameters the index was built with), count the
    refined pairs covering each field, and add the best pair per left
    field in the order a similarity-sorted scan meets them."""
    a, b = index.store[i], index.store[j]
    refined = [
        (lf, rf, s)
        for lf, fa in enumerate(a.fields, 1)
        for rf, fb in enumerate(b.fields, 1)
        if (s := simf(fa, fb, q)) >= xi
    ]
    if not refined:
        return 0.0, frozenset(), False
    left_cover: dict[int, int] = defaultdict(int)
    right_cover: dict[int, int] = defaultdict(int)
    up_by_left: dict[int, float] = {}
    for lf, rf, s in sorted(refined, key=lambda t: (-t[2], t[0], t[1])):
        left_cover[lf] += 1
        right_cover[rf] += 1
        up_by_left.setdefault(lf, s)
    has_multiple = any(c > 1 for c in left_cover.values()) or any(
        c > 1 for c in right_cover.values()
    )
    m = min(a.width, b.width)
    return min(1.0, sum(up_by_left.values()) / m), frozenset(refined), has_multiple


def reference_generate_candidates(
    index: ValuePairIndex, delta: float, xi: float, q: int = DEFAULT_Q
) -> tuple[list[tuple[int, int]], list[tuple[tuple[int, int], BoundResult]]]:
    """The simple path for ``ValuePairIndex.generate_candidates``: bound
    every record pair of the store with :func:`reference_cal_bound` and
    classify it as pruned, candidate or direct, then walk the direct pairs
    in order and drop each one with a record that a kept direct pair
    already holds, as the engine's merge loop once did.  Each direct pair
    comes with its bound, refined set sorted; compare a plan of the index
    through :func:`sorted_plan`."""
    rids = sorted(index.store)
    candidates: list[tuple[int, int]] = []
    direct: list[tuple[tuple[int, int], BoundResult]] = []
    for a, i in enumerate(rids):
        for j in rids[a + 1 :]:
            up, refined, has_multiple = reference_cal_bound(index, i, j, xi, q)
            if up < delta:
                continue
            if has_multiple:
                candidates.append((i, j))
            else:
                direct.append(((i, j), BoundResult(up, tuple(sorted(refined)), has_multiple)))
    touched: set[int] = set()
    kept = []
    for (i, j), bound in direct:
        if i in touched or j in touched:
            continue
        kept.append(((i, j), bound))
        touched.update((i, j))
    return candidates, kept


def sorted_plan(plan):
    """A pass plan with each direct pair's refined set sorted, as
    :func:`reference_generate_candidates` gives it: the index hands the
    entries of a run in run order."""
    candidates, direct = plan
    return candidates, [
        (key, bound._replace(refined=tuple(sorted(bound.refined)))) for key, bound in direct
    ]


def checked_matching(matching) -> tuple[tuple[int, int, float], ...]:
    """``matching`` as sorted ``(lf, rf, score)`` triples, checked on its
    own: one-to-one on both sides, every score in [0, 1]."""
    pairs = tuple(sorted((int(lf), int(rf), float(s)) for lf, rf, s in matching))
    for side in (0, 1):
        ids = [p[side] for p in pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("field matching must be one-to-one")
    if not all(0.0 <= s <= 1.0 for _, _, s in pairs):
        raise ValueError("matching scores must lie in [0, 1]")
    return pairs


def reference_merge_super_records(
    a: SuperRecord,
    b: SuperRecord,
    matching,
    forest: EntityForest,
) -> tuple[SuperRecord, dict[FieldLabel, int]]:
    """The simple path for ``records.merge_super_records``: renumber every
    field of the merged record (matched fields in ``a``'s order, then
    ``a``'s unmatched fields, then ``b``'s) and map every field of both
    records, as ``FieldLabel -> merged field id``."""
    if forest.find(a.rid) == forest.find(b.rid):
        raise ValueError("cannot merge a record with itself")
    pairs = checked_matching(matching)
    left_used = {lf for lf, _, _ in pairs}
    right_used = {rf for _, rf, _ in pairs}
    k = forest.union(a.rid, b.rid)
    field_map: dict[FieldLabel, int] = {}
    new_fields: list[Field] = []

    def emit(af, bf, a_fid, b_fid):
        fid = len(new_fields) + 1
        values: list[str] = []
        origins: frozenset[AttrOrigin] = frozenset()
        for fld, rid, old_fid in ((af, a.rid, a_fid), (bf, b.rid, b_fid)):
            if fld is None:
                continue
            origins |= fld.origins
            values += [v for v in fld.values if v not in values]
            field_map[FieldLabel(rid, old_fid)] = fid
        new_fields.append(Field(values=values, origins=origins))

    for lf, rf, _ in pairs:
        emit(a.fields[lf - 1], b.fields[rf - 1], lf, rf)
    for fid, fld in enumerate(a.fields, 1):
        if fid not in left_used:
            emit(fld, None, fid, 0)
    for fid, fld in enumerate(b.fields, 1):
        if fid not in right_used:
            emit(None, fld, 0, fid)
    return SuperRecord(rid=k, fields=new_fields), field_map


def checked_merge_super_records(
    a: SuperRecord,
    b: SuperRecord,
    matching,
    forest: EntityForest,
) -> tuple[SuperRecord, dict[int, int]]:
    """``records.merge_super_records`` with nothing shared and nothing
    unchecked: the same fields in the same order and the same field map,
    but the matching is checked again and every field of the merged
    record is built anew through the checked ``Field(...)``."""
    if forest.find(a.rid) == forest.find(b.rid):
        raise ValueError("cannot merge a record with itself")
    pairs = checked_matching(matching)
    k = forest.union(a.rid, b.rid)
    if k == a.rid:
        keep, gone, partner_of = a, b, {rf: lf for lf, rf, _ in pairs}
    else:
        keep, gone, partner_of = b, a, {lf: rf for lf, rf, _ in pairs}
    fields = [Field(values=list(fld.values), origins=fld.origins) for fld in keep.fields]
    field_map: dict[int, int] = {}
    for gone_fid, fld in enumerate(gone.fields, 1):
        fid = partner_of.get(gone_fid)
        if fid is None:
            fields.append(Field(values=list(fld.values), origins=fld.origins))
            fid = len(fields)
        else:
            kept = fields[fid - 1]
            values = kept.values + [v for v in fld.values if v not in kept.values]
            fields[fid - 1] = Field(values=values, origins=kept.origins | fld.origins)
        field_map[gone_fid] = fid
    return SuperRecord(rid=k, fields=fields), field_map


def reference_apply_merge(index: ValuePairIndex, i: int, j: int, k: int, field_map) -> None:
    """The simple path for ``ValuePairIndex.apply_merge``, usable as the
    method itself with the map of :func:`reference_merge_super_records`:
    pop every run of both records, relabel both ends of every pair
    (labels missing from ``field_map`` stay), re-orient it, and rebuild
    each run from the best similarity per field pair.  Runs are read as
    triples with ``_triples`` and written with ``_append``, so the run
    layout stays the index's own."""
    runs = index._runs
    best: dict[tuple[FieldLabel, FieldLabel], float] = {}
    for rid in (i, j):
        for x, run in runs.pop(rid, {}).items():
            if x in (i, j):
                continue  # the run between the two records goes
            del runs[x][rid]
            lo, hi = sorted((rid, x))
            for lf, rf, sim in _triples(run):
                ends = [FieldLabel(lo, lf), FieldLabel(hi, rf)]
                left, right = sorted(
                    FieldLabel(k, field_map[end]) if end in field_map else end for end in ends
                )
                best[left, right] = max(sim, best.get((left, right), 0.0))
    for (left, right), sim in sorted(best.items()):
        index._append((left,), (right,), sim)


def eager_apply_merge(index: ValuePairIndex, i: int, j: int, k: int, field_map) -> None:
    """The eager path for ``ValuePairIndex.apply_merge``, usable as the
    method itself: move the absorbed record's runs onto ``k`` as it does,
    but fold each moved run into the run ``k`` already holds with the same
    record right away, so no merge leaves a field pair held twice for a
    later read to fold."""
    gone = j if k == i else i
    runs = index._runs
    for x, run in runs.pop(gone, {}).items():
        del runs[x][gone]
        if x == k:
            continue
        side = 0 if gone < x else 1
        to = 0 if k < x else 1
        mapped = [field_map[fid] for fid in run[side::3]]
        run[1 - to :: 3] = run[1 - side :: 3]
        run[to::3] = mapped
        kept = runs[x].get(k)
        runs[x][k] = runs.setdefault(k, {})[x] = _fold(kept + run) if kept else run


class BruteIndex:
    """A test double for :class:`~entres.pair_index.ValuePairIndex` that
    keeps no runs: every bound and every pass plan is recomputed from the
    live store by :func:`reference_cal_bound` and
    :func:`reference_generate_candidates`.  The engine updates the store it
    shares with its index, so ``apply_merge`` has nothing to do.  Built
    with the signature of ``build_index``, in whose place it can stand."""

    def __init__(self, store: RecordStore, xi: float, q: int) -> None:
        self.store = store
        self.xi = xi
        self.q = q

    def cal_bound(self, i: int, j: int) -> BoundResult:
        up, refined, has_multiple = reference_cal_bound(self, i, j, self.xi, self.q)
        return BoundResult(up, tuple(sorted(refined)), has_multiple)

    def generate_candidates(self, delta: float):
        return reference_generate_candidates(self, delta, self.xi, self.q)

    def apply_merge(self, i: int, j: int, k: int, field_map) -> None:
        pass


def reference_votes(ledger, a: SuperRecord, b: SuperRecord, matching) -> None:
    """The simple path for ``SchemaVoteLedger.vote``, usable as the method
    itself: first list the predictions of the matching (per matched field
    pair, each pair of the two fields' sorted origins that spans two
    schemas, as ``(lower, higher)``, first occurrence only), then record
    each one and offer both of its keys for promotion."""
    predictions: list[tuple[AttrOrigin, AttrOrigin]] = []
    for lf, rf, _ in matching:
        for o1 in sorted(a.fields[lf - 1].origins):
            for o2 in sorted(b.fields[rf - 1].origins):
                key = (o1, o2) if o1 <= o2 else (o2, o1)
                if o1.source != o2.source and key not in predictions:
                    predictions.append(key)
    for x, y in predictions:
        ledger.record_prediction(x, y)
        ledger.try_promote(x, y.source)
        ledger.try_promote(y, x.source)
