import random
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from entres.engine import EngineConfig
from entres.matching import (
    FieldMatchGraph,
    build_graph,
    km_max_weight,
    resolve_forced_pairs,
    verify_pair,
)
from entres.pair_index import build_index
from entres.records import AttrOrigin, Field, SuperRecord, basic_record
from entres.schema_vote import SchemaVoteLedger
from tests.conftest import partners_of, random_store, reference_forced_pairs, simf

XI = 0.5


def oracle_max_weight(n_left: int, n_right: int, w) -> float:
    """Exhaustive maximum-weight matching by memoized enumeration over
    (left vertex, used-right bitmask)."""

    @lru_cache(maxsize=None)
    def go(i: int, mask: int) -> float:
        if i == n_left:
            return 0.0
        best = go(i + 1, mask)
        for j in range(n_right):
            if not mask & (1 << j) and w[i][j] > 0.0:
                best = max(best, w[i][j] + go(i + 1, mask | (1 << j)))
        return best

    return go(0, 0)


def weight(matching):
    """Total similarity of a list of ``(lf, rf, sim)`` edges."""
    return sum(s for _, _, s in matching)


def graph_of(edges):
    left = tuple(sorted({lf for lf, _, _ in edges}))
    right = tuple(sorted({rf for _, rf, _ in edges}))
    return FieldMatchGraph(left=left, right=right, edges=tuple(sorted(edges)))


def random_partners(rng, store, p):
    """A partner map promoting each pair of origins of two sources in
    ``store`` with probability ``p``."""
    origins = sorted({o for rec in store.values() for f in rec.fields for o in f.origins})
    return partners_of([(o1, o2) for o1 in origins for o2 in origins
                        if o1.source < o2.source and rng.random() < p])


def swapped(refined):
    """The refined field set of (j, i), given that of (i, j)."""
    return [(rf, lf, s) for lf, rf, s in refined]


def unforced_weights(refined, forced, n_left, n_right):
    """The weight matrix of the refined edges that touch no forced field,
    0-based, as ``oracle_max_weight`` takes it."""
    blocked_left = {lf for lf, _, _ in forced}
    blocked_right = {rf for _, rf, _ in forced}
    w = [[0.0] * n_right for _ in range(n_left)]
    for lf, rf, s in refined:
        if lf not in blocked_left and rf not in blocked_right:
            w[lf - 1][rf - 1] = s
    return tuple(map(tuple, w))


N_FIELDS = 6
field_pairs_st = st.tuples(st.integers(1, N_FIELDS), st.integers(1, N_FIELDS))
# a few repeated scores, so that ties between edges are common
score_st = st.sampled_from([0.3, 0.5, 0.7, 1.0]) | st.floats(0.05, 1.0)
forced_st = st.tuples(st.integers(1, N_FIELDS), st.integers(1, N_FIELDS), score_st)


class TestBuildGraph:
    def test_degree_one_edges_become_mapped(self):
        # isolated edges stay in the graph, and KM maps every one of them
        graph = build_graph([(1, 2, 1.0), (2, 4, 0.37)])
        assert graph.edges == ((1, 2, 1.0), (2, 4, 0.37))
        assert km_max_weight(graph) == [(1, 2, 1.0), (2, 4, 0.37)]

    def test_conflicting_edges_stay_in_graph(self):
        refined = [(1, 2, 1.0), (4, 1, 0.6), (5, 1, 1.0)]
        graph = build_graph(refined)
        assert graph.edges == ((1, 2, 1.0), (4, 1, 0.6), (5, 1, 1.0))
        assert graph.left == (1, 4, 5) and graph.right == (1, 2)

    def test_forced_pair_removes_incident_edges(self):
        refined = [(1, 2, 1.0), (4, 1, 0.6), (5, 1, 1.0)]
        graph = build_graph(refined, forced=[(4, 1, 0.6)])
        # rf=1 is taken, so (5, 1) disappears entirely
        assert graph.edges == ((1, 2, 1.0),)
        assert graph.left == (1,) and graph.right == (2,)

    def test_forced_fields_block_row_and_column(self):
        # forcing (2, 2) removes every edge touching lf=2 or rf=2
        refined = [(1, 1, 0.9), (2, 1, 0.5), (2, 2, 0.8), (3, 2, 0.6)]
        graph = build_graph(refined, forced=[(2, 2, 0.8)])
        assert graph.edges == ((1, 1, 0.9),)

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(field_pairs_st, score_st, max_size=12),
        st.lists(forced_st, max_size=3),
    )
    def test_km_keeps_isolated_edges_at_optimum_weight(self, scores, forced):
        # KM on the unforced graph settles an edge whose two fields have no
        # other edge the way a degree-1 peel would, and loses no weight
        refined = [(lf, rf, s) for (lf, rf), s in scores.items()]
        graph = build_graph(refined, forced)
        matching = km_max_weight(graph)
        ldeg = Counter(lf for lf, _, _ in graph.edges)
        rdeg = Counter(rf for _, rf, _ in graph.edges)
        for e in graph.edges:
            if ldeg[e[0]] == 1 and rdeg[e[1]] == 1:
                assert e in matching
        w = unforced_weights(refined, forced, N_FIELDS, N_FIELDS)
        assert weight(matching) == pytest.approx(oracle_max_weight(N_FIELDS, N_FIELDS, w))


class TestKuhnMunkres:
    def test_cheap_pair_beats_greedy(self):
        # greedy takes (1, 2, 1.0) and is stuck with 0.5; optimum is 1.6
        edges = [(1, 1, 0.9), (1, 2, 1.0), (2, 2, 0.7), (2, 1, 0.5)]
        matching = km_max_weight(graph_of(edges))
        assert matching == [(1, 1, 0.9), (2, 2, 0.7)]
        assert weight(matching) == pytest.approx(1.6)

    def test_unbalanced_sides(self):
        edges = [(1, 1, 0.8), (2, 1, 0.9), (3, 1, 0.7), (3, 2, 0.6)]
        matching = km_max_weight(graph_of(edges))
        assert matching == [(2, 1, 0.9), (3, 2, 0.6)]
        assert weight(matching) == pytest.approx(1.5)

    def test_empty_graph(self):
        assert km_max_weight(FieldMatchGraph((), (), ())) == []

    def test_matching_is_one_to_one(self):
        rng = random.Random(5)
        edges = [(lf, rf, rng.random()) for lf in range(1, 6) for rf in range(1, 6)
                 if rng.random() < 0.6]
        matching = km_max_weight(graph_of(edges))
        assert len({lf for lf, _, _ in matching}) == len(matching)
        assert len({rf for _, rf, _ in matching}) == len(matching)

    def test_against_enumeration_oracle(self):
        rng = random.Random(101)
        for trial in range(500):
            nl, nr = rng.randint(1, 8), rng.randint(1, 8)
            w = [[0.0] * nr for _ in range(nl)]
            edges = []
            for i in range(nl):
                for j in range(nr):
                    if rng.random() < 0.5:
                        s = round(rng.uniform(0.05, 1.0), 3)
                        w[i][j] = s
                        edges.append((i + 1, j + 1, s))
            if not edges:
                continue
            assert weight(km_max_weight(graph_of(edges))) == pytest.approx(oracle_max_weight(nl, nr, tuple(map(tuple, w))))

    def test_long_augmenting_path_needs_no_recursion(self):
        # left field x is similar to right fields x - 1 and x: each new left
        # field first tries x - 1, held by left field x - 1, which tries
        # x - 2, and so on, so the search runs a hundred levels deep at the
        # last field before it takes its free right field x
        n = 100
        edges = [(x, y, 1.0) for x in range(1, n + 1) for y in (x - 1, x) if y >= 1]
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            matching = km_max_weight(build_graph(edges))
        finally:
            sys.setrecursionlimit(limit)
        assert matching == [(x, x, 1.0) for x in range(1, n + 1)]

    def test_decomposition_equals_whole_graph_km(self):
        # settling the degree-1/degree-1 edges apart and running KM on the
        # rest reaches the same weight as one KM over the whole graph
        rng = random.Random(77)
        for trial in range(200):
            nl, nr = rng.randint(1, 7), rng.randint(1, 7)
            refined = []
            for lf in range(1, nl + 1):
                for rf in range(1, nr + 1):
                    if rng.random() < 0.4:
                        refined.append((lf, rf, round(rng.uniform(0.05, 1.0), 3)))
            if not refined:
                continue
            whole = km_max_weight(build_graph(refined))
            ldeg = Counter(lf for lf, _, _ in refined)
            rdeg = Counter(rf for _, rf, _ in refined)
            isolated = [e for e in refined if ldeg[e[0]] == 1 and rdeg[e[1]] == 1]
            rest = [e for e in refined if e not in isolated]
            assert set(isolated) <= set(whole)
            split = weight(km_max_weight(graph_of(rest))) + weight(isolated)
            assert split == pytest.approx(weight(whole))


class TestVerifyPair:
    def test_customer_candidate(self, customer_store):
        index = build_index(customer_store, XI)
        result = verify_pair(index, 2, 4)
        assert result.sim == pytest.approx(0.6)
        assert tuple(result.matching) == ((1, 2, 1.0), (2, 4, 1.0), (5, 1, 1.0))

    def test_customer_predictions(self, customer_store):
        index = build_index(customer_store, XI)
        result = verify_pair(index, 2, 4)
        a, b = index.store[2], index.store[4]
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        ledger.vote(a, b, result.matching)
        for one, two in [
            (AttrOrigin("CustomerII", "name"), AttrOrigin("CustomerIII", "name")),
            (AttrOrigin("CustomerII", "e-mail"), AttrOrigin("CustomerIII", "work mailbox")),
            (AttrOrigin("CustomerII", "city"), AttrOrigin("CustomerIII", "city")),
        ]:
            assert ledger.votes_for(one, two.source)[two] == 1
            assert ledger.votes_for(two, one.source)[one] == 1
        for origin in {o for rec in (a, b) for f in rec.fields for o in f.origins}:
            assert ledger.votes_for(origin, origin.source) == {}

    def test_forced_pair_overrides_km_choice(self, customer_store):
        index = build_index(customer_store, XI)
        partners = partners_of([(AttrOrigin("CustomerII", "addr"),
                                 AttrOrigin("CustomerIII", "city"))])
        result = verify_pair(index, 2, 4, partners)
        assert (4, 1, pytest.approx(0.6)) in tuple(result.matching)
        # the forced edge consumes rf=1, displacing the better (5, 1) edge
        assert result.sim == pytest.approx(2.6 / 5)

    def test_sim_within_bounds(self):
        # with promotions too: forced edges come from the refined set, so no
        # verification scores above its bound, and a pair with no multiple
        # field verifies to its whole refined set, as a direct merge takes it
        rng = random.Random(13)
        for trial in range(20):
            store = random_store(rng, rng.randint(3, 12))
            index = build_index(store, XI)
            rids = sorted(store)
            for partners in ({}, random_partners(rng, store, 0.3)):
                for a, i in enumerate(rids):
                    for j in rids[a + 1 :]:
                        bound = index.cal_bound(i, j)
                        result = verify_pair(index, i, j, partners)
                        assert result.sim <= bound.up + 1e-9
                        if not bound.has_multiple:
                            assert result.matching == tuple(sorted(bound.refined))
                            assert result.sim == bound.up

    def test_direct_pair_verifies_to_its_bound_as_a_float(self):
        # refined scores 1.0, 0.8 and 5/6 in field order, over width 3: summed
        # in field order they make 0.8777777777777778, largest first
        # 0.8777777777777779.  The bound and verification score through one
        # function, so with delta at the bound verification accepts what the
        # direct path merges
        a = basic_record(1, [
            (AttrOrigin("s0", "a0"), "food"),
            (AttrOrigin("s0", "a1"), "abcde"),
            (AttrOrigin("s0", "a2"), "vwxyzq"),
        ])
        b = basic_record(2, [
            (AttrOrigin("s1", "a0"), "food"),
            (AttrOrigin("s1", "a1"), "abcdef"),
            (AttrOrigin("s1", "a2"), "vwxyzqr"),
            (AttrOrigin("s1", "a3"), "1234"),
            (AttrOrigin("s1", "a4"), "9876"),
        ])
        index = build_index({1: a, 2: b}, XI)
        bound = index.cal_bound(1, 2)
        assert not bound.has_multiple
        assert sorted(bound.refined) == [(1, 1, 1.0), (2, 2, 0.8), (3, 3, 5 / 6)]
        result = verify_pair(index, 1, 2)
        assert result.matching == tuple(sorted(bound.refined))
        assert result.sim == bound.up

    def test_promoted_pair_below_xi_does_not_count(self):
        # cut from random_store(random.Random(64), 30) resolved under
        # EngineConfig(rho=0.9, prior=0.9): the two records and the partner
        # map as they stood when the pair was verified.  Promotions force
        # (2, 2) at 0.0 and (3, 5) at 0.4, both below xi; counted, they
        # lifted the score to delta, above the bound
        s0a0, s0a1, s0a2 = (AttrOrigin("s0", f"a{k}") for k in range(3))
        s1a0, s1a1, s1a2 = (AttrOrigin("s1", f"a{k}") for k in range(3))
        s2a0, s2a1, s2a2, s2a3, s2a4 = (AttrOrigin("s2", f"a{k}") for k in range(5))
        store = {
            1: SuperRecord(1, [
                Field(["food"], frozenset({s0a0, s2a0})),
                Field(["fooba", "电子"], frozenset({s0a0, s0a1, s1a1, s2a1})),
                Field(["fooba"], frozenset({s1a0})),
                Field(["bushel"], frozenset({s0a2, s1a2})),
            ]),
            2: SuperRecord(2, [
                Field(["food"], frozenset({s2a0})),
                Field(["bush"], frozenset({s2a1})),
                Field(["bush"], frozenset({s2a2})),
                Field(["food"], frozenset({s2a3})),
                Field(["food"], frozenset({s2a4})),
            ]),
        }
        partners = partners_of([
            (s0a0, s2a0), (s0a0, s1a2), (s0a1, s2a1), (s0a2, s1a2),
            (s0a2, s2a0), (s1a0, s2a4), (s1a1, s2a1), (s1a2, s2a0),
        ])
        delta = EngineConfig().delta
        index = build_index(store, EngineConfig().xi)
        bound = index.cal_bound(1, 2)
        assert bound.up == pytest.approx(0.4)
        assert bound.up < delta
        result = verify_pair(index, 1, 2, partners)
        assert result.sim <= bound.up + 1e-9
        assert result.sim < delta
        assert set(result.matching) <= set(bound.refined)

    def test_against_enumeration_oracle(self):
        # forced edges first, then the best one-to-one choice of what is left
        rng = random.Random(29)
        for trial in range(40):
            store = random_store(rng, rng.randint(2, 6))
            partners = random_partners(rng, store, 0.15)
            index = build_index(store, XI)
            rids = sorted(store)
            for a, i in enumerate(rids):
                for j in rids[a + 1 :]:
                    refined = index.cal_bound(i, j).refined
                    forced = resolve_forced_pairs(store[i], store[j], partners, refined)
                    assert set(forced) <= set(refined)
                    matching = list(verify_pair(index, i, j, partners).matching)
                    assert len({lf for lf, _, _ in matching}) == len(matching)
                    assert len({rf for _, rf, _ in matching}) == len(matching)
                    assert set(forced) <= set(matching)
                    w = unforced_weights(refined, forced, store[i].width, store[j].width)
                    free = [e for e in matching if e not in forced]
                    assert all(w[lf - 1][rf - 1] == s for lf, rf, s in free)
                    assert weight(free) == pytest.approx(
                        oracle_max_weight(store[i].width, store[j].width, w)
                    )


class TestResolveForcedPairs:
    def test_promoted_pair_maps_to_fields(self, customer_store):
        index = build_index(customer_store, XI)
        r2, r4 = customer_store[2], customer_store[4]
        refined = index.cal_bound(2, 4).refined
        partners = partners_of([(AttrOrigin("CustomerII", "name"),
                                 AttrOrigin("CustomerIII", "name"))])
        assert resolve_forced_pairs(r2, r4, partners, refined) == [(1, 2, 1.0)]
        # the map is symmetric, so the pair is found from either side
        assert resolve_forced_pairs(r4, r2, partners, swapped(refined)) == [(2, 1, 1.0)]

    def test_no_promotions_no_forced(self, customer_store):
        index = build_index(customer_store, XI)
        refined = index.cal_bound(2, 4).refined
        assert resolve_forced_pairs(customer_store[2], customer_store[4], {}, refined) == []

    def test_promoted_pair_outside_refined_set_not_forced(self):
        # "bush" and "food" share no gram: the promoted field pair scores
        # 0.0, below xi, so it is not forced and the refined pair stays free
        x1, x2, y = AttrOrigin("x", "a"), AttrOrigin("x", "c"), AttrOrigin("y", "b")
        a = SuperRecord(1, [Field(["bush"], frozenset({x1})), Field(["food"], frozenset({x2}))])
        b = SuperRecord(2, [Field(["food"], frozenset({y}))])
        index = build_index({1: a, 2: b}, XI)
        refined = index.cal_bound(1, 2).refined
        partners = partners_of([(x1, y)])
        assert refined == ((2, 1, 1.0),)
        assert resolve_forced_pairs(a, b, partners, refined) == []
        assert tuple(verify_pair(index, 1, 2, partners).matching) == ((2, 1, 1.0),)

    def test_collision_keeps_higher_similarity(self):
        # left field 1 merged two origins, each promoted with a different
        # right field; only one pair may be forced, and the more similar
        # one wins over the lower field index
        x1, x2 = AttrOrigin("x", "name"), AttrOrigin("x", "login")
        y1, y2 = AttrOrigin("y", "login"), AttrOrigin("y", "name")
        store = {
            1: SuperRecord(1, [Field(["bushel"], frozenset({x1, x2}))]),
            2: SuperRecord(2, [Field(["bush"], frozenset({y1})),
                               Field(["bushel"], frozenset({y2}))]),
        }
        index = build_index(store, XI)
        refined = index.cal_bound(1, 2).refined
        assert len(refined) == 2
        assert resolve_forced_pairs(store[1], store[2], partners_of([(x1, y1), (x2, y2)]), refined) == [
            (1, 2, 1.0)
        ]


# origins of three schemas, plus a schema that no record carries, so that
# promoted pairs hit no field, one side only, or both sides
ORIGINS = [AttrOrigin(f"s{s}", f"a{a}") for s in range(3) for a in range(3)]
GHOSTS = [AttrOrigin("ghost", f"a{a}") for a in range(2)]
VOCAB = ["bush", "bushel", "gmail", "chicago", "chicag", "john", "jon", "831-432"]

fields_st = st.lists(
    st.builds(
        lambda values, origins: Field(values, frozenset(origins)),
        st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3, unique=True),
        # more than one origin: a field merged from several records
        st.sets(st.sampled_from(ORIGINS), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=5,
)
promoted_st = st.lists(
    st.tuples(st.sampled_from(ORIGINS + GHOSTS), st.sampled_from(ORIGINS + GHOSTS)).filter(
        lambda p: p[0].source != p[1].source
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(fields_st, fields_st, promoted_st)
def test_resolve_forced_pairs_matches_reference(left, right, pairs):
    store = {
        1: SuperRecord(1, left),
        2: SuperRecord(2, right),
    }
    index = build_index(store, XI)
    refined = index.cal_bound(1, 2).refined
    partners = partners_of(pairs)
    promoted = list(dict.fromkeys(frozenset(p) for p in pairs))
    for i, j, ij_refined in ((1, 2, refined), (2, 1, swapped(refined))):
        a, b = store[i], store[j]
        assert resolve_forced_pairs(a, b, partners, ij_refined) == reference_forced_pairs(
            a, b, promoted, ij_refined
        )


@settings(max_examples=300, deadline=None)
@given(fields_st, fields_st, promoted_st)
def test_forced_scores_from_refined_set_equal_simf(left, right, pairs):
    # the refined field set holds each field pair's best value pair, so its
    # score, and so each forced score, is simf bit for bit, at or above xi
    store = {1: SuperRecord(1, left), 2: SuperRecord(2, right)}
    index = build_index(store, XI)
    refined = index.cal_bound(1, 2).refined
    for lf, rf, s in refined:
        assert s == simf(left[lf - 1], right[rf - 1])
    for lf, rf, s in resolve_forced_pairs(store[1], store[2], partners_of(pairs), refined):
        assert s == simf(left[lf - 1], right[rf - 1]) >= XI
