import functools
import gc
import io
import itertools
import json
import os
import random
import string
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import entres.engine as engine_module
import entres.pair_index as pair_index
from entres.engine import EngineConfig, ResolutionEngine
from entres.matching import verify_pair
from entres.pair_index import (
    FieldLabel,
    ValuePairIndex,
    _fold,
    _gram_groups,
    _similar_gram_sets,
    build_index,
)
from entres.records import (
    AttrOrigin,
    EntityForest,
    Field,
    SuperRecord,
    basic_record,
    merge_super_records,
)
from entres.similarity import gram_jaccard, qgrams
from entres.synth import clustered_corpus, split_attribute_corpus
from tests.conftest import (
    eager_apply_merge,
    index_from_pairs,
    lookalike_store,
    random_store,
    reference_apply_merge,
    reference_cal_bound,
    reference_generate_candidates,
    reference_merge_super_records,
    simf,
    sorted_plan,
)

XI = 0.5


def brute_force_pairs(store, xi, q=2):
    """Nested loop over every cross-record field pair, scored as simf
    scores it (the best gram_jaccard over value pairs; each value's
    q-grams computed once): the oracle for build_index."""
    fields = [
        (FieldLabel(rid, fid), [qgrams(v, q) for v in fld.values])
        for rid, rec in store.items()
        for fid, fld in enumerate(rec.fields, 1)
    ]
    out = set()
    for a, (la, ga) in enumerate(fields):
        for lb, gb in fields[a + 1 :]:
            if la.rid == lb.rid:
                continue
            s = max(gram_jaccard(g1, g2) for g1 in ga for g2 in gb)
            if s >= xi:
                left, right = sorted((la, lb))
                out.add((left, right, s))
    return out


def in_index_order(pairs):
    """Whether ``pairs`` run by record pair, then similarity descending,
    then field ids, with the smaller rid on the left."""
    keys = [((p.left.rid, p.right.rid), -p.sim, p.left.fid, p.right.fid) for p in pairs]
    return keys == sorted(keys) and all(p.left.rid < p.right.rid for p in pairs)


# numerator and denominator of each xi tried, for values scoring exactly xi;
# 25 * 0.28 rounds to 7.000000000000001, so a ceil(xi * size) bound would
# wrongly demand 8 shared grams of a 25-gram set
XI_RATIOS = {0.1: (1, 10), 1 / 3: (1, 3), 0.5: (1, 2), 0.6: (3, 5), 2 / 3: (2, 3), 0.7: (7, 10),
             1.0: (1, 1), 0.28: (7, 25)}


@st.composite
def join_cases(draw):
    """Small stores full of values shorter than q, values repeated
    within and across records, and distinct values sharing one gram set,
    plus values whose gram sets score exactly xi, cut from a run of
    distinct letters: two prefixes holding k*num and k*den grams, the
    first set inside the second, and two windows of n = num + den grams
    each that overlap in 2*num, the tightest pair the shorter index
    prefix must keep (2*num / (2n - 2*num) = xi), and one- and two-gram
    sets."""
    q = draw(st.integers(1, 3))
    xi = draw(st.sampled_from(sorted(XI_RATIOS)))
    num, den = XI_RATIOS[xi]
    k = draw(st.integers(1, 2))
    letters = string.ascii_letters
    on_xi = [letters[: k * num + q - 1], letters[: k * den + q - 1]]
    n, shared = num + den, 2 * num
    equal_on_xi = [letters[: n + q - 1], letters[n - shared : 2 * n - shared + q - 1]]
    few_grams = [letters[:q], letters[: q + 1], letters[1 : q + 2]]
    # "abab"/"baba" and "aab"/"aaab" are two values with one gram set at q = 2
    vocab = on_xi + equal_on_xi + few_grams + [
        "a", "b", "ab", "ba", "aab", "aaab", "abab", "baba", "bab", "abc"]
    value = st.one_of(st.sampled_from(vocab), st.text("abc", min_size=1, max_size=5))
    field_values = st.lists(value, min_size=1, max_size=3, unique=True)
    records = draw(st.lists(st.lists(field_values, min_size=1, max_size=3), min_size=2, max_size=7))
    store = {
        rid: SuperRecord(
            rid=rid,
            fields=[Field(values=vals, origins=[AttrOrigin(f"s{rid}", f"a{fid}")])
                    for fid, vals in enumerate(fields)],
        )
        for rid, fields in enumerate(records, 1)
    }
    return store, xi, q


def per_occurrence_groups(store, q=2):
    """``_gram_groups`` with one ``qgrams`` call per value occurrence, in
    the same walk (rid, then field, then value) and with the same id rule
    (a gram new to the walk takes the next id, in its value's sorted gram
    order)."""
    ids, groups = {}, {}
    for rid in sorted(store):
        for fid, fld in enumerate(store[rid].fields, 1):
            for v in fld.values:
                g = tuple(sorted(ids.setdefault(gram, len(ids)) for gram in sorted(qgrams(v, q))))
                groups.setdefault(g, []).append((rid, fid))
    return groups


def per_occurrence_index(store, xi, q=2):
    """``build_index`` over :func:`per_occurrence_groups`: the oracle for
    its value cache, which must leave groups, runs and run order as they
    are."""
    groups = per_occurrence_groups(store, q)
    index = ValuePairIndex(store)
    for g, labels in groups.items():
        for pos, label in enumerate(labels):
            index._append((label,), labels[pos + 1 :], gram_jaccard(g, g))
    sets = list(groups)
    for a, b, sim in _similar_gram_sets(sets, xi):
        index._append(groups[sets[a]], groups[sets[b]], sim)
    return index


def raw_runs(index):
    """The index's run map with its row and run order, as built."""
    return [(a, list(row.items())) for a, row in index._runs.items()]


def repeating_store():
    """Values repeated across records and fields, and distinct values that
    share one gram set at q = 2 ("abab"/"baba", "aab"/"aaab")."""
    rows = [
        [["bush", "abab"], ["aab"], ["bush"]],
        [["baba"], ["bush", "aaab"], ["chicago"]],
        [["chicag", "bush"], ["abab", "aab"]],
        [["aaab"], ["baba", "chicago"], ["bush"]],
    ]
    return {
        rid: SuperRecord(rid, [Field(vals, {AttrOrigin(f"s{rid}", f"a{fid}")})
                               for fid, vals in enumerate(fields, 1)])
        for rid, fields in enumerate(rows, 1)
    }


class TestConstruction:
    def test_sorted_invariant(self, customer_store):
        index = build_index(customer_store, XI)
        assert in_index_order(list(index.iter_pairs()))

    def test_known_rows(self, customer_store):
        index = build_index(customer_store, XI)
        pairs = {(p.left, p.right): p.sim for p in index.iter_pairs()}
        # r4 "chicago" / r5 "chicag"
        assert pairs[(FieldLabel(4, 1), FieldLabel(5, 2))] == pytest.approx(5 / 6)
        # r1 "electronics" / r6 "electronic"
        assert pairs[(FieldLabel(1, 5), FieldLabel(6, 5))] == pytest.approx(0.9)
        # identical phone numbers survive with similarity 1
        assert pairs[(FieldLabel(1, 3), FieldLabel(6, 3))] == 1.0

    @pytest.mark.parametrize("multi_rid", [1, 2], ids=["lower_rid", "higher_rid"])
    @pytest.mark.parametrize(
        "values, best",
        # "bush" meets "bush" (one gram set, 1.0) and "bushel" (3/5), or
        # "bushel" and "bushy" (3/4), two sets the join pairs with it
        [(["bushel", "bush"], 1.0), (["bushel", "bushy"], 0.75)],
        ids=["identical_set", "similar_sets"],
    )
    def test_field_pair_keeps_its_best_value_pair(self, multi_rid, values, best):
        # one entry, the best, whichever record holds the multi-valued field
        single = basic_record(3 - multi_rid, [(AttrOrigin("s1", "name"), "bush")])
        multi = SuperRecord(multi_rid, [Field(values, {AttrOrigin("s2", "name")})])
        index = build_index({single.rid: single, multi.rid: multi}, XI)
        assert list(index.iter_pairs()) == [(FieldLabel(1, 1), FieldLabel(2, 1), best)]
        assert index.cal_bound(1, 2) == (best, ((1, 1, best),), False)
        assert index.generate_candidates(0.5) == ([], [((1, 2), (best, ((1, 1, best),), False))])

    def test_entries_take_few_bytes(self):
        # a run holds three list slots per entry and no tuple: about 64
        # bytes per entry once lists, rows and dicts are counted, where a
        # tuple per entry kept about 109
        store, _ = clustered_corpus(4, 50, seed=0)
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = build_index(store, XI)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert kept / len(index) < 80

    def test_xi_cutoff(self, customer_store):
        index = build_index(customer_store, XI)
        for pair in index.iter_pairs():
            assert pair.sim >= XI

    def test_matches_nested_loop_join(self):
        rng = random.Random(21)
        for trial in range(10):
            store = random_store(rng, rng.randint(2, 12))
            index = build_index(store, XI)
            pairs = list(index.iter_pairs())
            assert set(pairs) == brute_force_pairs(store, XI)
            assert len(pairs) == len(index)

    @settings(max_examples=250, deadline=None)
    @given(join_cases())
    def test_matches_nested_loop_join_on_edge_values(self, case):
        store, xi, q = case
        index = build_index(store, xi, q)
        pairs = list(index.iter_pairs())
        assert set(pairs) == brute_force_pairs(store, xi, q)
        assert len(pairs) == len(index)
        assert in_index_order(pairs)
        for left, right, sim in pairs:
            assert sim == simf(store[left.rid].fields[left.fid - 1],
                               store[right.rid].fields[right.fid - 1], q)

    def test_repeated_values_match_nested_loop_and_per_occurrence_build(self):
        store = repeating_store()
        index = build_index(store, XI)
        oracle = per_occurrence_index(store, XI)
        assert raw_runs(index) == raw_runs(oracle)
        assert list(index.iter_pairs()) == list(oracle.iter_pairs())
        assert set(index.iter_pairs()) == brute_force_pairs(store, XI)

    @settings(max_examples=250, deadline=None)
    @given(join_cases())
    def test_gram_set_cache_matches_per_occurrence_build(self, case):
        store, xi, q = case
        assert _gram_groups(store, q) == per_occurrence_groups(store, q)
        index = build_index(store, xi, q)
        oracle = per_occurrence_index(store, xi, q)
        assert raw_runs(index) == raw_runs(oracle)
        assert list(index.iter_pairs()) == list(oracle.iter_pairs())

    def test_qgrams_called_once_per_distinct_value(self, monkeypatch):
        store = repeating_store()
        calls = []

        def counted(value, q):
            calls.append(value)
            return qgrams(value, q)

        monkeypatch.setattr(pair_index, "qgrams", counted)
        build_index(store, XI)
        values = [v for rec in store.values() for fld in rec.fields for v in fld.values]
        assert len(values) > len(set(values))
        assert sorted(calls) == sorted(set(values))

    @settings(max_examples=250, deadline=None)
    @given(join_cases())
    def test_gram_set_join_matches_nested_loop(self, case):
        store, xi, q = case
        sets = list(dict.fromkeys(
            qgrams(v, q) for rec in store.values() for fld in rec.fields for v in fld.values
        ))
        joined = list(_similar_gram_sets(sets, xi))
        got = [(min(a, b), max(a, b), sim) for a, b, sim in joined]
        want = {
            (a, b, sim)
            for a, b in itertools.combinations(range(len(sets)), 2)
            if sets[a] and sets[b] and (sim := gram_jaccard(sets[a], sets[b])) >= xi
        }
        assert len(got) == len(set(got))
        assert set(got) == want
        # gram ids in gram text order rank as the texts do: the same yields,
        # in the same order
        ids = {gram: i for i, gram in enumerate(sorted(set().union(*sets)))}
        assert list(_similar_gram_sets([tuple(sorted(ids[x] for x in g)) for g in sets], xi)) == joined
        # build_index's own ids: the same set pairs, at the same positions
        # (its walk meets the sets in the order the store lists them)
        by_ids = list(_gram_groups(store, q))
        assert [len(g) for g in by_ids] == [len(g) for g in sets]
        assert {(min(a, b), max(a, b), sim) for a, b, sim in _similar_gram_sets(by_ids, xi)} == want

    def test_pair_sharing_one_prefix_gram_is_not_scored(self, monkeypatch):
        # xi 0.5 asks two four-gram sets for two common grams.  Sets 0 and 1
        # share only "a", which the other sets leave the rarest gram of both,
        # so it lies in the first 4 - 2 + 1 ranked grams of each; sets 0 and 3
        # share three grams and qualify
        sets = [frozenset("abcd"), frozenset("aefg"), frozenset("bcdefghijklm"),
                frozenset("bcdy")]
        scored = []

        def recording(g1, g2):
            scored.append({g1, g2})
            return gram_jaccard(g1, g2)

        monkeypatch.setattr(pair_index, "gram_jaccard", recording)
        got = [(min(a, b), max(a, b), sim) for a, b, sim in _similar_gram_sets(sets, XI)]
        assert got == [(0, 3, 0.6)]
        assert {sets[0], sets[1]} not in scored
        assert {
            (a, b, sim)
            for a, b in itertools.combinations(range(len(sets)), 2)
            if (sim := gram_jaccard(sets[a], sets[b])) >= XI
        } == set(got)

    def test_pair_sharing_a_gram_beyond_the_index_prefix_is_not_scored(self, monkeypatch):
        # Ranked rarest first (x y z, then a b c, then d), set 0 is a b c d
        # and set 1 is x y a d: they share a and d, 2 of 6 grams.  Set 1
        # probes with all four of its grams (4 - 2 + 2), but set 0 is
        # indexed only under a b c: a partner of four or more grams needs 3
        # of them at xi 0.5, so a and the third common gram lie within the
        # first 4 - 3 + 2.  So set 1 counts one hit and scores nothing; set
        # 2 shares b c d with set 0 and qualifies at 0.6
        sets = [frozenset("abcd"), frozenset("adxy"), frozenset("bcdz")]
        scored = []

        def recording(g1, g2):
            scored.append({g1, g2})
            return gram_jaccard(g1, g2)

        monkeypatch.setattr(pair_index, "gram_jaccard", recording)
        got = [(min(a, b), max(a, b), sim) for a, b, sim in _similar_gram_sets(sets, XI)]
        assert got == [(0, 2, 0.6)]
        assert scored == [{sets[0], sets[2]}]
        assert {
            (a, b, sim)
            for a, b in itertools.combinations(range(len(sets)), 2)
            if (sim := gram_jaccard(sets[a], sets[b])) >= XI
        } == set(got)

    def test_join_does_not_depend_on_the_hash_seed(self):
        # string hashes, and so the iteration order of a set of grams,
        # change with PYTHONHASHSEED; gram ids and rank ties must not
        script = textwrap.dedent("""
            import json
            import entres.pair_index as pair_index
            from tests.conftest import lookalike_store

            calls = []
            score = pair_index.gram_jaccard

            def counted(g1, g2):
                calls.append(1)
                return score(g1, g2)

            pair_index.gram_jaccard = counted
            groups = pair_index._gram_groups(lookalike_store(20, 0), 2)
            pairs = list(pair_index._similar_gram_sets(list(groups), 0.5))
            print(json.dumps([list(groups.items()), pairs, len(calls)]))
        """)
        path = os.pathsep.join(p for p in sys.path if p)
        outs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        _, pairs, calls = json.loads(outs[0])
        assert pairs and calls > 0
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "store",
        [clustered_corpus(30, 8)[0], split_attribute_corpus(40)[0], lookalike_store(20, 0)],
        ids=["clustered", "split_attribute", "lookalike"],
    )
    def test_engine_same_with_nested_loop_index(self, store):
        config = EngineConfig()
        joined = ResolutionEngine(store, config)
        oracle = ResolutionEngine(store, config)
        oracle.index = index_from_pairs(oracle.store, brute_force_pairs(store, config.xi, config.q))
        assert list(joined.index.iter_pairs()) == list(oracle.index.iter_pairs())
        got, want = joined.run(), oracle.run()
        assert got.labels == want.labels
        assert got.merge_history == want.merge_history

    def test_from_pairs_rejects_pair_within_one_record(self):
        pairs = [((1, 1), (2, 1), 1.0), ((2, 3), (2, 4), 0.9)]
        with pytest.raises(ValueError, match="span two records"):
            index_from_pairs(_six_field_store(), pairs)

    def test_empty_value_rejected(self):
        # two blank fields would otherwise pair at gram_jaccard(∅, ∅) = 1.0
        with pytest.raises(ValueError, match="must not be empty"):
            basic_record(1, [(AttrOrigin("s1", "name"), "alice smith"), (AttrOrigin("s1", "x"), "")])


class TestLookup:
    """A record pair's run, as the program reads it: ``cal_bound(i, j).refined``."""

    def test_requires_ordered_ids(self, customer_store):
        index = build_index(customer_store, XI)
        for i, j in ((6, 1), (4, 4)):
            with pytest.raises(ValueError, match=r"^cal_bound requires i < j$"):
                index.cal_bound(i, j)

    def test_missing_run_is_empty(self, customer_store):
        index = build_index(customer_store, XI)
        assert index.cal_bound(5, 6) == (0.0, (), False)

    def test_run_content(self, customer_store):
        index = build_index(customer_store, XI)
        run = index.cal_bound(4, 6).refined
        assert sorted((sim for _, _, sim in run), reverse=True) == [1.0, 1.0, 0.9]

    def test_matches_linear_scan(self):
        rng = random.Random(4)
        store = random_store(rng, 12)
        index = build_index(store, XI)
        rids = sorted(store)
        for a, i in enumerate(rids):
            for j in rids[a + 1 :]:
                scan = [
                    (p.left.fid, p.right.fid, p.sim)
                    for p in index.iter_pairs()
                    if (p.left.rid, p.right.rid) == (i, j)
                ]
                assert sorted(index.cal_bound(i, j).refined) == sorted(scan)


class TestCollectorPause:
    """``build_index`` pauses the cyclic collector and hands it back as it
    found it."""

    @staticmethod
    def _raising(g1, g2):
        raise RuntimeError("join failed")

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_restored(self, customer_store, monkeypatch, enabled, raises):
        if raises:
            monkeypatch.setattr(pair_index, "gram_jaccard", self._raising)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if raises:
                with pytest.raises(RuntimeError, match="join failed"):
                    build_index(customer_store, XI)
            else:
                build_index(customer_store, XI)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("kind", ["customers", "random_multi_valued"])
    def test_build_leaves_no_cyclic_garbage(self, customer_store, kind):
        # the premise of the pause: the join makes no reference cycle, so
        # deferring the collector defers nothing it could free
        if kind == "customers":
            store = customer_store
        else:
            store = random_store(random.Random(9), 40, max_values=3)
            assert any(len(fld.values) > 1 for rec in store.values() for fld in rec.fields)
        was = gc.isenabled()
        gc.collect()
        gc.disable()  # no automatic collection may find the garbage first
        try:
            index = build_index(store, XI)
            assert len(index) > 0
            del index
            assert gc.collect() == 0
        finally:
            (gc.enable if was else gc.disable)()


def _six_field_store():
    mk = lambda rid: basic_record(
        rid, [(AttrOrigin(f"s{rid}", f"a{k}"), f"v{rid}{k}") for k in range(6)]
    )
    return {1: mk(1), 2: mk(2)}


def _greedy_matching(refined):
    """A one-to-one matching of a refined field set: best pairs first."""
    matching, lf_used, rf_used = [], set(), set()
    for lf, rf, s in sorted(refined, key=lambda t: (-t[2], t[0], t[1])):
        if lf not in lf_used and rf not in rf_used:
            matching.append((lf, rf, s))
            lf_used.add(lf)
            rf_used.add(rf)
    return matching


def _merge_and_update(store, index, i, j, forest, reference=False):
    """Merge records ``i`` and ``j`` greedily on their refined field set
    and maintain ``index``, as the engine does, or with the simple paths
    of the merge and the index maintenance when ``reference`` is set."""
    matching = _greedy_matching(index.cal_bound(i, j).refined)
    if reference:
        merged, field_map = reference_merge_super_records(store[i], store[j], matching, forest)
        apply_merge = functools.partial(reference_apply_merge, index)
    else:
        merged, field_map = merge_super_records(store[i], store[j], matching, forest)
        apply_merge = index.apply_merge
    del store[i], store[j]
    store[merged.rid] = merged
    apply_merge(i, j, merged.rid, field_map)
    return merged


def _eager_copy(store):
    """An index of ``store`` that never holds a field pair twice: its built
    runs are folded at once, and so is each merge (``eager_apply_merge``)."""
    eager = build_index(store, XI)
    for a, row in eager._runs.items():
        for b, run in row.items():
            if a < b:
                row[b] = eager._runs[b][a] = _fold(run)
    eager.apply_merge = functools.partial(eager_apply_merge, eager)
    return eager


def _repeating(index):
    """The record pairs whose run holds a field pair more than once."""
    return sorted((a, b) for a, row in index._runs.items() for b, run in row.items()
                  if a < b and len(_fold(run)) < len(run))


def _merge_unread(store, forest, i, j, matching, *indexes):
    """Merge ``i`` and ``j`` under ``matching`` and maintain each index
    without reading any of them.  Returns the survivor."""
    merged, field_map = merge_super_records(store[i], store[j], matching, forest)
    del store[i], store[j]
    store[merged.rid] = merged
    for index in indexes:
        index.apply_merge(i, j, merged.rid, field_map)
    return merged.rid


class TestCalBound:
    def test_refined_set_bounds(self):
        # two six-field records; refined field-pair sims are
        # (2,4)=0.37 (3,1)=0.33 (3,2)=1 (4,3)=1 (5,5)=1
        pairs = [
            ((1, 2), (2, 4), 0.37),
            ((1, 3), (2, 1), 0.33),
            ((1, 3), (2, 2), 1.0),
            ((1, 4), (2, 3), 1.0),
            ((1, 5), (2, 5), 1.0),
        ]
        index = index_from_pairs(_six_field_store(), pairs)
        bound = index.cal_bound(1, 2)
        assert bound.has_multiple
        assert bound.up == pytest.approx(3.37 / 6)
        assert set(bound.refined) == {(2, 4, 0.37), (3, 1, 0.33), (3, 2, 1.0),
                                      (4, 3, 1.0), (5, 5, 1.0)}

    def test_refinement_keeps_best_value_pair(self):
        # one field pair given three times, as three of its value pairs
        # would be, either side first and the best in between
        pairs = [
            ((2, 2), (1, 3), 0.6),
            ((1, 3), (2, 2), 1.0),
            ((1, 3), (2, 2), 0.7),
        ]
        index = index_from_pairs(_six_field_store(), pairs)
        assert index.cal_bound(1, 2) == (1 / 6, ((3, 2, 1.0),), False)
        # a bound of 1/6: at a delta of 0.5 the pair would be pruned folded or not
        assert index.generate_candidates(0.1) == ([], [((1, 2), (1 / 6, ((3, 2, 1.0),), False))])

    def test_sparse_run_without_repeat_is_not_folded(self, monkeypatch):
        # "bushel" is similar to "bush" (3/5) and to "bushy" (1/2): its field
        # covers two field pairs, each held once, two entries over three fields
        store = {1: basic_record(1, [(AttrOrigin("s1", "name"), "bushel")]),
                 2: basic_record(2, [(AttrOrigin("s2", "a"), "bush"),
                                     (AttrOrigin("s2", "b"), "bushy")])}
        index = build_index(store, XI)
        folded = []
        real_fold = pair_index._fold
        monkeypatch.setattr(pair_index, "_fold", lambda run: folded.append(run) or real_fold(run))
        bound = index.cal_bound(1, 2)
        assert bound.has_multiple and not folded
        assert (bound.up, set(bound.refined), bound.has_multiple) == reference_cal_bound(
            index, 1, 2, XI
        )
        # a run holding a field pair twice is folded, once
        index = index_from_pairs(_six_field_store(), [((1, 3), (2, 2), 0.7),
                                                               ((1, 3), (2, 2), 1.0)])
        assert index.cal_bound(1, 2) == (1 / 6, ((3, 2, 1.0),), False)
        assert index.cal_bound(1, 2) == (1 / 6, ((3, 2, 1.0),), False)
        assert len(folded) == 1
        # a dense run, six entries over five fields, goes to the fold, which
        # keeps it as it is when no field pair repeats
        dense = [((1, lf), (2, rf), 0.5 + lf / 10 + rf / 100) for lf in (1, 2, 3) for rf in (1, 2)]
        index = index_from_pairs(_six_field_store(), dense)
        bound = index.cal_bound(1, 2)
        assert len(folded) == 2 and bound.has_multiple
        assert bound.refined == tuple((lf, rf, sim) for (_, lf), (_, rf), sim in dense)

    def test_exact_when_no_multiple(self, customer_store):
        index = build_index(customer_store, XI)
        bound = index.cal_bound(4, 6)
        assert not bound.has_multiple
        assert bound.up == pytest.approx(0.58)

    def test_multiple_on_right_side_detected(self):
        pairs = [
            ((1, 1), (2, 1), 1.0),
            ((1, 2), (2, 1), 0.6),
        ]
        index = index_from_pairs(_six_field_store(), pairs)
        bound = index.cal_bound(1, 2)
        assert bound.has_multiple
        assert bound.up == pytest.approx(1.6 / 6)

    def test_no_pairs_gives_zero(self, customer_store):
        index = build_index(customer_store, XI)
        assert index.cal_bound(5, 6).up == 0.0

    def test_up_in_unit_interval_and_exact_without_multiple(self):
        rng = random.Random(17)
        store = random_store(rng, 15)
        index = build_index(store, XI)
        rids = sorted(store)
        for a, i in enumerate(rids):
            for j in rids[a + 1 :]:
                bound = index.cal_bound(i, j)
                assert 0.0 <= bound.up <= 1.0
                if not bound.has_multiple:
                    assert bound.up == pytest.approx(verify_pair(index, i, j).sim)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.integers(0, 4))
    def test_matches_reference_after_merges(self, seed, n_records, n_merges):
        # up is compared with ==: the one-pass sum must add the same floats
        # in the same order as the reference
        rng = random.Random(seed)
        store = random_store(rng, n_records, max_values=3)
        index = build_index(store, XI)
        forest = EntityForest(store)
        for _ in range(n_merges):
            if len(store) < 2:
                break
            _merge_and_update(store, index, *sorted(rng.sample(sorted(store), 2)), forest)
        rids = sorted(store)
        for a, i in enumerate(rids):
            for j in rids[a + 1 :]:
                bound = index.cal_bound(i, j)
                assert len(set(bound.refined)) == len(bound.refined)
                assert (bound.up, set(bound.refined), bound.has_multiple) == reference_cal_bound(
                    index, i, j, XI
                )


class TestGenerateCandidates:
    def test_customer_partition(self, customer_store):
        index = build_index(customer_store, XI)
        candidates, direct = index.generate_candidates(0.5)
        assert candidates == [(2, 4)]
        # (4, 6) is direct too, but (1, 6) holds r6, so it waits a pass
        assert [(key, pytest.approx(bound.up)) for key, bound in direct] == [
            ((1, 6), 0.78), ((3, 5), 2 / 3)]

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(["random", "lookalike"]),
        st.integers(0, 2**32 - 1),
        st.integers(2, 14),
        st.integers(0, 4),
        st.sampled_from([0.3, 0.5, 0.7]),
    )
    def test_plan_matches_reference(self, kind, seed, n_records, n_merges, delta):
        # the plan of the store as built and after each of a few merges
        # made by the simple paths, against every pair bounded from the
        # records and then filtered to record-disjoint direct pairs: the
        # same pairs, and for each direct pair the same up, has_multiple
        # and refined set, the set the engine merges it on
        rng = random.Random(seed)
        if kind == "random":
            store = random_store(rng, n_records, max_values=3)
        else:
            store = lookalike_store(n_records // 4 + 1, seed)
        index = build_index(store, XI)
        forest = EntityForest(store)
        assert sorted_plan(index.generate_candidates(delta)) == reference_generate_candidates(
            index, delta, XI
        )
        for _ in range(n_merges):
            if len(store) < 2:
                break
            i, j = sorted(rng.sample(sorted(store), 2))
            _merge_and_update(store, index, i, j, forest, reference=True)
            assert sorted_plan(index.generate_candidates(delta)) == reference_generate_candidates(
                index, delta, XI
            )

    def test_held_record_still_reaches_verification(self, monkeypatch):
        # (1, 2) is direct and holds both records; record 3 holds the name
        # twice, so (1, 3) and (2, 3) are multiple: they are candidates of
        # the same pass, and the pair of their roots is verified in it
        name = "john smith"
        store = {
            1: basic_record(1, [(AttrOrigin("crm", "name"), name)]),
            2: basic_record(2, [(AttrOrigin("web", "login"), name)]),
            3: basic_record(
                3, [(AttrOrigin("billing", "customer"), name), (AttrOrigin("billing", "payee"), name)]
            ),
        }
        index = build_index(store, XI)
        assert index.generate_candidates(0.5) == (
            [(1, 3), (2, 3)], [((1, 2), (1.0, ((1, 1, 1.0),), False))]
        )

        engine = ResolutionEngine(store, EngineConfig(delta=0.5, xi=XI))
        verified = []
        real = engine_module.verify_pair

        def spy(index, i, j, *args):
            verified.append((i, j))
            return real(index, i, j, *args)

        monkeypatch.setattr(engine_module, "verify_pair", spy)
        assert engine._run_iteration() == 2
        assert verified == [(engine.forest.find(1), 3)]

    def test_high_delta_prunes_everything(self, customer_store):
        index = build_index(customer_store, XI)
        candidates, direct = index.generate_candidates(0.99)
        assert candidates == []
        assert direct == []

    def test_partition_is_consistent_with_bounds(self):
        rng = random.Random(29)
        store = random_store(rng, 14)
        index = build_index(store, XI)
        candidates, direct = index.generate_candidates(0.4)
        for key in candidates:
            bound = index.cal_bound(*key)
            assert bound.up >= 0.4 and bound.has_multiple
        for key, planned in direct:
            assert planned == index.cal_bound(*key)
            assert not planned.has_multiple and planned.up >= 0.4


def _dumped_text(index):
    buf = io.StringIO()
    index.dump_jsonl(buf)
    return buf.getvalue()


# every read of the index, as a function of it; each one folds what merges appended
INDEX_READS = {
    "len": len,
    "iter_pairs": lambda index: list(index.iter_pairs()),
    "dump_jsonl": _dumped_text,
    "generate_candidates": lambda index: index.generate_candidates(0.5),
    "cal_bound": lambda index: [
        index.cal_bound(i, j) for i, j in itertools.combinations(sorted(index.store), 2)
    ],
}


class TestApplyMerge:
    def test_internal_pairs_deleted(self, customer_store):
        index = build_index(customer_store, XI)
        forest = EntityForest(customer_store)
        _merge_and_update(customer_store, index, 1, 6, forest)
        for pair in index.iter_pairs():
            assert {pair.left.rid, pair.right.rid} != {1, 6}

    def test_matches_rebuild_from_scratch(self):
        rng = random.Random(33)
        for trial in range(8):
            store = random_store(rng, rng.randint(4, 20))
            index = build_index(store, XI)
            forest = EntityForest(store)
            for _ in range(3):
                rids = sorted(store)
                if len(rids) < 2:
                    break
                i, j = sorted(rng.sample(rids, 2))
                _merge_and_update(store, index, i, j, forest)
                rebuilt = build_index(store, XI)
                got = {(p.left, p.right, round(p.sim, 9)) for p in index.iter_pairs()}
                want = {(p.left, p.right, round(p.sim, 9)) for p in rebuilt.iter_pairs()}
                assert got == want

    @staticmethod
    def _merge_chain(seed, n_records, n_merges):
        """Merge random record pairs of a random store, checking after each
        merge that the maintained index equals a rebuild, pair for pair and
        in index order, that each run is one list under both its records,
        and that the absorbed record has no row and is in no row.  Returns
        how many merges the higher rid survived and how many moved pairs
        were folded into a pair the survivor held."""
        rng = random.Random(seed)
        store = random_store(rng, n_records, max_values=3)
        index = build_index(store, XI)
        forest = EntityForest(store)
        higher = dropped = 0
        for _ in range(n_merges):
            if len(store) < 2:
                break
            i, j = sorted(rng.sample(sorted(store), 2))
            kept = len(index) - len(index.cal_bound(i, j).refined)
            k = _merge_and_update(store, index, i, j, forest).rid
            higher += k == j
            dropped += kept - len(index)
            assert list(index.iter_pairs()) == list(build_index(store, XI).iter_pairs())
            gone = i + j - k
            assert gone not in index._runs
            for a, row in index._runs.items():
                assert gone not in row
                for b, run in row.items():
                    assert index._runs[b][a] is run
        return higher, dropped

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.integers(1, 8))
    def test_merge_chain_matches_rebuild_in_order(self, seed, n_records, n_merges):
        self._merge_chain(seed, n_records, n_merges)

    def test_merge_chains_cover_higher_rid_survivor_and_duplicates(self):
        # a fold happens where a matched field meets a record both parts matched
        counts = [self._merge_chain(seed, 12, 8) for seed in range(20)]
        assert sum(higher for higher, _ in counts) > 0
        assert sum(dropped for _, dropped in counts) > 0

    @staticmethod
    def _append_chain(seed, n_records, n_merges, first_read):
        """Merge record pairs of a random store, half of them with the last
        survivor again, and maintain both the index and an eager copy of it
        (see ``eager_apply_merge``) with no read of the index in between:
        each matching comes from the records or from the copy.  Then read
        the index first with ``first_read`` and require that this read and
        every other one equal the copy's, and that each run, before the
        reads and after them, folds to the copy's, entry for entry.  Returns
        how many merges absorbed a record with a run that held a field pair
        twice, and how many runs held one when the chain ended."""
        rng = random.Random(seed)
        store = random_store(rng, n_records, max_values=3)
        index, eager = build_index(store, XI), _eager_copy(store)
        forest = EntityForest(store)
        absorbed_repeating = 0
        last = None
        for _ in range(n_merges):
            if len(store) < 2:
                break
            if last in store and rng.random() < 0.5:
                i, j = sorted((last, rng.choice([rid for rid in store if rid != last])))
            else:
                i, j = sorted(rng.sample(sorted(store), 2))
            if rng.random() < 0.5:
                refined = reference_cal_bound(eager, i, j, XI)[1]
            else:
                refined = eager.cal_bound(i, j).refined
            repeating = set(itertools.chain.from_iterable(_repeating(index)))
            last = _merge_unread(store, forest, i, j, _greedy_matching(refined), index, eager)
            absorbed_repeating += i + j - last in repeating
        pending = len(_repeating(index))
        folded = lambda runs: {a: {b: _fold(run) for b, run in row.items()}
                               for a, row in runs.items()}
        assert folded(index._runs) == eager._runs
        assert INDEX_READS[first_read](index) == INDEX_READS[first_read](eager)
        for read in INDEX_READS.values():
            assert read(index) == read(eager)
        assert folded(index._runs) == eager._runs
        for a, row in index._runs.items():
            for b, run in row.items():
                assert index._runs[b][a] is run
        return absorbed_repeating, pending

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 14),
        st.integers(1, 8),
        st.sampled_from(sorted(INDEX_READS)),
    )
    def test_unread_merge_chain_matches_eager_folds(self, seed, n_records, n_merges, first_read):
        self._append_chain(seed, n_records, n_merges, first_read)

    def test_unread_merge_chains_cover_unfolded_absorbed_records(self):
        counts = [self._append_chain(seed, 12, 8, "cal_bound") for seed in range(20)]
        assert sum(absorbed for absorbed, _ in counts) > 0
        assert sum(pending > 1 for _, pending in counts) > 0

    def test_absorbed_record_hands_its_pending_fold_on(self):
        # 2 and 3 both hold p and q, so the survivor 2 holds each of its
        # entries with 1 and with 5 twice; 2 is then absorbed into 1, which
        # has no run with 5, so (1, 5) is the moved run as it was, and only
        # its read can fold it
        p, q = "alvarez", "okonkwo"
        rec = lambda rid, *values: basic_record(rid, [(AttrOrigin(f"s{rid}", f"a{n}"), v)
                                                      for n, v in enumerate(values)])
        store = {1: rec(1, p), 2: rec(2, p, q), 3: rec(3, p, q), 5: rec(5, q)}
        index, eager = build_index(store, XI), _eager_copy(store)
        forest = EntityForest([*store, 99])
        forest.union(1, 99)  # 1 holds two members, as 2 will
        assert _merge_unread(store, forest, 2, 3, [(1, 1, 1.0), (2, 2, 1.0)], index, eager) == 2
        assert _repeating(index) == [(1, 2), (2, 5)]
        assert _merge_unread(store, forest, 1, 2, [(1, 1, 1.0)], index, eager) == 1
        assert index._runs[1][5] == [2, 1, 1.0, 2, 1, 1.0]
        assert len(index) == len(eager)
        assert index.cal_bound(1, 5) == eager.cal_bound(1, 5)
        assert index._runs == eager._runs

    def test_merged_record_must_be_one_of_the_two(self, customer_store):
        index = build_index(customer_store, XI)
        runs = {a: dict(row) for a, row in index._runs.items()}
        with pytest.raises(ValueError, match="keeps the rid of one of the two"):
            index.apply_merge(1, 6, 4, {})
        assert index._runs == runs

    def test_plan_folds_before_it_skips_held_pairs(self):
        # after 4 merges into 3, the run (1, 3) holds (1, 1, 1.0) twice; the
        # plan holds 1 by then, and folded, (1, 3) is not multiple: deferred
        store = {rid: basic_record(rid, [(AttrOrigin(f"s{rid}", "name"), "alvarez")])
                 for rid in (1, 2, 3, 4)}
        index = build_index(store, XI)
        forest = EntityForest(store)
        assert _merge_unread(store, forest, 3, 4, [(1, 1, 1.0)], index) == 3
        assert index._runs[1][3] == [1, 1, 1.0, 1, 1, 1.0]
        assert index.generate_candidates(0.5) == ([], [((1, 2), (1.0, ((1, 1, 1.0),), False))])
        assert sorted_plan(index.generate_candidates(0.5)) == reference_generate_candidates(
            index, 0.5, XI
        )


def _dumped_lines(index):
    return [json.loads(line) for line in _dumped_text(index).splitlines()]


class TestInspection:
    @pytest.mark.parametrize("read", sorted(INDEX_READS))
    def test_every_read_stores_its_folds(self, read):
        # (1, 2) holds the field pair (1, 1) twice and (2, 3) holds (2, 1)
        # twice, as a multi-valued field or a merge leaves them
        store = {rid: basic_record(rid, [(AttrOrigin(f"s{rid}", f"a{k}"), f"v{rid}{k}")
                                         for k in range(3)]) for rid in (1, 2, 3)}
        index = index_from_pairs(store, [
            ((1, 1), (2, 1), 0.6), ((1, 2), (2, 3), 1.0), ((1, 1), (2, 1), 0.9),
            ((2, 2), (3, 1), 0.7), ((3, 1), (2, 2), 0.8),
        ])
        assert _repeating(index) == [(1, 2), (2, 3)]
        INDEX_READS[read](index)
        assert _repeating(index) == []
        assert index._runs[1][2] == [1, 1, 0.9, 2, 3, 1.0]
        assert index._runs[2][3] == [2, 1, 0.8]
        for a, row in index._runs.items():
            for b, run in row.items():
                assert index._runs[b][a] is run

    def test_rows_are_numbered_in_order(self, customer_store):
        index = build_index(customer_store, XI)
        lines = _dumped_lines(index)
        assert [line["pid"] for line in lines] == list(range(1, len(index) + 1))

    def test_dump_jsonl_round_trips(self, customer_store):
        index = build_index(customer_store, XI)
        lines = _dumped_lines(index)
        assert len(lines) == len(index)
        assert all(set(line) == {"pid", "left", "right", "sim"} for line in lines)
        assert [(line["left"], line["right"], line["sim"]) for line in lines] == [
            (list(p.left), list(p.right), p.sim) for p in index.iter_pairs()
        ]
