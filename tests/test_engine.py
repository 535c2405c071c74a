import copy
import dataclasses
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import entres.engine as engine_module
import entres.matching as matching
import entres.pair_index as pair_index
from entres.engine import EngineConfig, ResolutionEngine, run
from entres.pair_index import ValuePairIndex
from entres.records import AttrOrigin, Field, SuperRecord, basic_record
from entres.schema_vote import SchemaVoteLedger
from entres.synth import clustered_corpus, split_attribute_corpus
from tests.conftest import (
    BruteIndex,
    checked_merge_super_records,
    eager_apply_merge,
    lookalike_gold,
    lookalike_store,
    random_store,
    reference_apply_merge,
    reference_forced_pairs,
    reference_merge_super_records,
    reference_votes,
)

# loose enough that small random stores verify, promote and contradict
VOTING_CONFIG = EngineConfig(delta=0.3, xi=0.4, rho=0.9)
LOOKALIKE_CORPORA = [(20, 0), (20, 1), (40, 0), (40, 1)]


def entity_sets(result):
    return {frozenset(m) for m in result.entities.values()}


def outcome(store, config=None):
    """Everything a run decides: labels, merges per iteration, the
    promotions (with votes and error bounds) and the contradicting votes."""
    engine = ResolutionEngine(dict(store), config)
    result = engine.run()
    return result.labels, result.merge_history, result.promoted, engine.ledger.contradictions


def seeded_random_store(seed):
    rng = random.Random(seed)
    return random_store(rng, rng.randint(2, 12))


class TestConfig:
    def test_defaults_valid(self):
        EngineConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": 1.2},
            {"delta": 1.5},
            {"xi": 0.0},
            {"xi": 1.5},
            {"q": 0},
            {"rho": 0.0},
            {"rho": 1.0},
            {"prior": 0.5},
            {"prior": 1.1},
            # the one type check too: q is an int, no value is a bool
            {"q": 2.0},
            {"q": "2"},
            {"q": True},
            {"delta": True},
            {"xi": True},
            {"prior": True},
            {"delta": "0.5"},
            {"rho": None},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        # the one type and range check of each threshold: the layers trust the config
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize("name", ["delta", "xi", "prior"])
    def test_inclusive_upper_edge_accepted(self, name):
        assert getattr(EngineConfig(**{name: 1.0}), name) == 1.0

    def test_int_threshold_accepted(self):
        assert EngineConfig(delta=1, xi=1).delta == 1

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.delta = 0.0


class TestCustomerScenario:
    def test_final_partition(self, customer_store):
        result = run(customer_store)
        assert entity_sets(result) == {frozenset({1, 2, 4, 6}), frozenset({3, 5})}

    def test_iteration_profile(self, customer_store):
        # three merges land in the first pass, the super-record pair in the
        # second, and the third pass proves the fixpoint
        result = run(customer_store)
        assert result.merge_history == (3, 1, 0)
        assert result.iterations == 3
        assert result.merges == 4
        assert result.converged

    def test_no_schema_promotions_from_single_pair(self, customer_store):
        # only one candidate pair is ever verified: one vote per attribute
        # pair is far below any promotion threshold
        result = run(customer_store)
        assert result.promoted == ()

    def test_deterministic(self, customer_store):
        first = run(dict(customer_store))
        second = run(dict(customer_store))
        assert first.labels == second.labels
        assert first.merge_history == second.merge_history

    def test_high_delta_keeps_singletons(self, customer_store):
        result = run(customer_store, EngineConfig(delta=0.95))
        assert result.merges == 0
        assert len(entity_sets(result)) == 6

    def test_input_store_not_mutated(self, customer_store):
        before = dict(customer_store)
        run(customer_store)
        assert customer_store == before


class TestEdgeCases:
    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            ResolutionEngine({})

    def test_key_other_than_rid_rejected(self):
        # similar records, so a run would reach the union-find with rid 1
        items = [(AttrOrigin("s1", "name"), "bush"), (AttrOrigin("s1", "city"), "chicago")]
        store = {5: basic_record(1, items), 2: basic_record(2, items)}
        with pytest.raises(ValueError, match="key 5 has rid 1"):
            run(store)

    def test_record_that_is_not_a_super_record_rejected(self):
        store = {1: "bush", 2: basic_record(2, [(AttrOrigin("s1", "name"), "bush")])}
        with pytest.raises(ValueError, match="key 1 is a str, not a SuperRecord"):
            run(store)

    def test_field_that_is_not_a_field_rejected(self):
        # a bare string would reach the join, which reads its .values
        store = {1: SuperRecord(1, ["bush"]), 2: basic_record(2, [(AttrOrigin("s1", "name"), "bush")])}
        with pytest.raises(ValueError, match="record 1 has a field that is not a Field"):
            run(store)

    def test_string_record_ids_resolve(self):
        store = {rid: basic_record(rid, [(AttrOrigin(f"s{rid}", "name"), value)])
                 for rid, value in (("a", "bush"), ("b", "bush"), ("c", "alvarez"))}
        assert run(store).labels == {"a": "a", "b": "a", "c": "c"}

    def test_duplicate_records_collapse_to_one_entity(self):
        items = [
            (AttrOrigin("s1", "name"), "bush"),
            (AttrOrigin("s1", "tel"), "831-432"),
            (AttrOrigin("s1", "city"), "chicago"),
        ]
        store = {rid: basic_record(rid, items) for rid in range(1, 6)}
        result = run(store)
        assert entity_sets(result) == {frozenset(range(1, 6))}
        assert result.converged

    def test_fully_dissimilar_records_stay_apart(self):
        store = {
            1: basic_record(1, [(AttrOrigin("s1", "a"), "aaaa")]),
            2: basic_record(2, [(AttrOrigin("s2", "a"), "bbbb")]),
            3: basic_record(3, [(AttrOrigin("s3", "a"), "cccc")]),
        }
        result = run(store)
        assert len(entity_sets(result)) == 3
        assert result.iterations == 1

    def test_single_record(self):
        store = {7: basic_record(7, [(AttrOrigin("s1", "a"), "bush")])}
        result = run(store)
        assert result.labels == {7: 7}


class TestInvariants:
    def test_labels_cover_all_inputs_and_point_to_members(self):
        rng = random.Random(51)
        for trial in range(5):
            store = random_store(rng, rng.randint(2, 25))
            result = run(dict(store))
            assert set(result.labels) == set(store)
            for eid, members in result.entities.items():
                assert eid in members  # the entity id is a member's rid
            assert result.merges == len(store) - len(result.entities)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20))
    def test_stops_at_fixpoint_within_n_iterations(self, seed, n):
        # every iteration but the last merges, and each merge removes a live
        # record, so the loop needs no cap
        store = random_store(random.Random(seed), n)
        history = run(dict(store)).merge_history
        assert all(m > 0 for m in history[:-1]) and history[-1] == 0
        assert len(history) <= len(store)

    def test_monotone_in_delta(self):
        # a stricter threshold can only split entities, never merge more
        rng = random.Random(63)
        for trial in range(5):
            store = random_store(rng, 15)
            loose = run(dict(store), EngineConfig(delta=0.4))
            strict = run(dict(store), EngineConfig(delta=0.8))
            assert len(strict.entities) >= len(loose.entities)


class TestPromotedMatchings:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_forced_edges_match_reference_path(self, seed, monkeypatch):
        store = lookalike_store(20, seed)
        forced_edges = []
        fast = matching.resolve_forced_pairs

        def counted(*args):
            out = fast(*args)
            forced_edges.append(len(out))
            return out

        monkeypatch.setattr(matching, "resolve_forced_pairs", counted)
        result = run(dict(store))
        assert len(result.promoted) > 0
        assert sum(forced_edges) > 0
        assert len(result.entities) == 20

        # the same run with the simple triple loop over the ledger's
        # promotions and every field pair in place of the partner-map
        # lookup over the refined field set
        engine = ResolutionEngine(dict(store))

        def reference(a, b, partners, refined):
            return reference_forced_pairs(a, b, engine.ledger.promoted_pairs(), refined)

        monkeypatch.setattr(matching, "resolve_forced_pairs", reference)
        slow = engine.run()
        assert slow.labels == result.labels
        assert slow.merge_history == result.merge_history
        assert slow.promoted == result.promoted

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 30))
    def test_verification_agrees_with_bound_and_direct_path(self, seed, n):
        # promotions are frequent at rho = prior = 0.9.  Every verification
        # the engine makes scores at most its pair's bound, and each direct
        # pair of each pass verifies, under the partners live at its merge,
        # to its refined set: the matching the direct path merges on as it is
        store = random_store(random.Random(seed), n)
        engine = ResolutionEngine(dict(store), EngineConfig(rho=0.9, prior=0.9))
        index = engine.index
        plan, merge_pair = index.generate_candidates, engine.merge_pair
        direct_matchings: dict[tuple[int, int], tuple[tuple[int, int, float], ...]] = {}

        def checked_plan(delta):
            assert not direct_matchings  # the last pass merged every direct pair
            candidates, direct = plan(delta)
            for (i, j), bound in direct:
                result = matching.verify_pair(index, i, j, engine.ledger.partners)
                direct_matchings[i, j] = tuple(sorted(bound.refined))
                assert result.matching == direct_matchings[i, j]
                assert result.sim == bound.up
            return candidates, direct

        def checked_verify(index, i, j, partners):
            result = matching.verify_pair(index, i, j, partners)
            assert result.sim <= index.cal_bound(i, j).up + 1e-9
            return result

        def checked_merge_pair(i, j, pairs):
            expected = direct_matchings.pop((i, j), None)
            if expected is not None:
                assert tuple(sorted(pairs)) == expected
            merge_pair(i, j, pairs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(index, "generate_candidates", checked_plan)
            mp.setattr(engine, "merge_pair", checked_merge_pair)
            mp.setattr(engine_module, "verify_pair", checked_verify)
            engine.run()
        assert not direct_matchings

    def test_promoted_is_the_exported_list(self):
        # a pair promoted from both of its attributes is listed once, with
        # its first promotion: the rows export_jsonl writes
        engine = ResolutionEngine(lookalike_store(20, 0))
        promoted = engine.run().promoted
        pairs = [promo.as_pair() for promo in promoted]
        assert promoted and len(set(pairs)) == len(pairs)
        buf = io.StringIO()
        engine.ledger.export_jsonl(buf)
        assert [json.loads(line) for line in buf.getvalue().splitlines()] == [
            {"source_a": promo.a.source, "attr_a": promo.a.attr,
             "source_b": promo.b.source, "attr_b": promo.b.attr,
             "votes": promo.votes, "p_error_upper": promo.p_error_upper}
            for promo in promoted
        ]


class TestVote:
    """The ledger's ``vote`` against the simple path it replaced: list every
    prediction of the matching first, then record each and offer both of
    its keys for promotion."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lookalike_runs_same_as_reference(self, seed, monkeypatch):
        store = lookalike_store(20, seed)
        expected = outcome(store)
        assert expected[2]
        monkeypatch.setattr(SchemaVoteLedger, "vote", reference_votes)
        assert outcome(store) == expected

    def test_random_stores_same_as_reference(self, monkeypatch):
        stores = [seeded_random_store(seed) for seed in range(200)]
        expected = [outcome(store, VOTING_CONFIG) for store in stores]
        # the stores promote and contradict, so vote order and repeats show
        assert sum(len(promoted) for _, _, promoted, _ in expected) > 0
        assert sum(bool(contradictions) for *_, contradictions in expected) > 0
        monkeypatch.setattr(SchemaVoteLedger, "vote", reference_votes)
        assert [outcome(store, VOTING_CONFIG) for store in stores] == expected


class TestBruteIndex:
    """The whole engine over an index that keeps nothing: every bound and
    pass plan recomputed from the live store with ``simf``."""

    @staticmethod
    def over_brute_index(store, config=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_module, "build_index", BruteIndex)
            return outcome(store, config)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        config=st.sampled_from([EngineConfig(), VOTING_CONFIG]),
    )
    def test_random_stores(self, seed, n, config):
        store = random_store(random.Random(seed), n)
        assert self.over_brute_index(store, config) == outcome(store, config)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lookalike(self, seed):
        store = lookalike_store(20, seed)
        assert self.over_brute_index(store) == outcome(store)


class TestSchemaMatchingQuality:
    @pytest.mark.parametrize("n, seed", LOOKALIKE_CORPORA)
    def test_lookalike_promotions_against_gold(self, n, seed):
        # pinned so that a change to the vote re-records them on purpose:
        # 11 of the 21 promoted pairs are true (precision 0.52), and they
        # are 11 of the 12 true pairs (recall 0.92)
        gold = lookalike_gold()
        promoted = {promo.as_pair() for promo in run(lookalike_store(n, seed)).promoted}
        assert (len(gold), len(promoted), len(promoted & gold)) == (12, 21, 11)


class TestMergeInPlace:
    @pytest.mark.parametrize(
        "store",
        [clustered_corpus(30, 8)[0], split_attribute_corpus(40)[0], lookalike_store(20, 0)],
        ids=["clustered", "split_attribute", "lookalike"],
    )
    def test_same_as_rewrite_everything_merge(self, store, monkeypatch):
        in_place = run(dict(store))
        # the same run with every field renumbered and every pair of both
        # records rewritten at each merge
        monkeypatch.setattr(engine_module, "merge_super_records", reference_merge_super_records)
        monkeypatch.setattr(ValuePairIndex, "apply_merge", reference_apply_merge)
        rewritten = run(dict(store))
        assert in_place.labels == rewritten.labels
        assert in_place.merge_history == rewritten.merge_history


class TestCheckedMerge:
    """A merge shares the fields it leaves as they are and builds the rest
    unchecked; the same run with every merged field built anew through the
    checked ``Field(...)`` must decide the same and end with an equal store."""

    @staticmethod
    def decided(store, config=None):
        engine = ResolutionEngine(dict(store), config)
        result = engine.run()
        decisions = result.labels, result.merge_history, result.promoted, engine.ledger.contradictions
        return decisions, engine.store

    def same_as_checked(self, store, config=None):
        before = copy.deepcopy(store)
        decisions, merged = self.decided(store, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_module, "merge_super_records", checked_merge_super_records)
            checked_decisions, checked_merged = self.decided(store, config)
        assert decisions == checked_decisions
        assert merged.keys() == checked_merged.keys()
        for rid, rec in merged.items():
            assert rec.fields == checked_merged[rid].fields
        assert store == before  # no merge changed an input record

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 16),
        config=st.sampled_from([EngineConfig(), VOTING_CONFIG, EngineConfig(rho=0.9, prior=0.9)]),
    )
    def test_random_stores(self, seed, n, config):
        self.same_as_checked(random_store(random.Random(seed), n, max_values=3), config)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lookalike(self, seed):
        self.same_as_checked(lookalike_store(20, seed))


class TestAppendOnlyMerge:
    """A merge appends moved runs and a later read folds them; the same run
    with each moved run folded at its merge must decide the same."""

    @staticmethod
    def with_eager_folds(store, config=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ValuePairIndex, "apply_merge", eager_apply_merge)
            return outcome(store, config)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        config=st.sampled_from([EngineConfig(), VOTING_CONFIG]),
    )
    def test_random_stores(self, seed, n, config):
        store = random_store(random.Random(seed), n, max_values=3)
        assert outcome(store, config) == self.with_eager_folds(store, config)

    @pytest.mark.parametrize(
        "store",
        [lookalike_store(20, 0), lookalike_store(20, 1),
         clustered_corpus(8, 50, seed=0)[0], clustered_corpus(8, 50, seed=1)[0]],
        ids=["lookalike-0", "lookalike-1", "large-clusters-0", "large-clusters-1"],
    )
    def test_corpora(self, store):
        assert outcome(store) == self.with_eager_folds(store)

    def test_merge_never_folds(self, monkeypatch):
        # clusters of 50 merge in cascades, so survivors meet the same records again
        folds = 0
        real_fold, real_apply_merge = pair_index._fold, ValuePairIndex.apply_merge

        def counted_fold(run):
            nonlocal folds
            folds += 1
            return real_fold(run)

        def refused_fold(run):
            raise AssertionError("apply_merge folded a run")

        def apply_merge(self, *args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pair_index, "_fold", refused_fold)
                real_apply_merge(self, *args)

        monkeypatch.setattr(pair_index, "_fold", counted_fold)
        monkeypatch.setattr(ValuePairIndex, "apply_merge", apply_merge)
        result = run(clustered_corpus(8, 50, seed=1)[0])
        assert result.merges > 0 and folds > 0


class TestOnePassPlan:
    """A pass bounds each direct pair once: the plan bounds the pairs it
    walks and hands each direct pair its bound, and the engine merges the
    pair on that bound.  Only verification bounds a pair again, under the
    candidate's merged roots."""

    @staticmethod
    def counted_run(store, monkeypatch):
        """Run ``store``, counting ``cal_bound`` calls made inside and
        outside ``generate_candidates``, direct pairs planned and
        ``verify_pair`` calls."""
        counts = dict.fromkeys(("plan", "elsewhere", "direct", "verify"), 0)
        in_plan = False
        real_bound, real_plan = ValuePairIndex.cal_bound, ValuePairIndex.generate_candidates
        real_verify = engine_module.verify_pair

        def cal_bound(self, i, j):
            counts["plan" if in_plan else "elsewhere"] += 1
            return real_bound(self, i, j)

        def generate_candidates(self, delta):
            nonlocal in_plan
            in_plan = True
            try:
                plan = real_plan(self, delta)
            finally:
                in_plan = False
            counts["direct"] += len(plan[1])
            return plan

        def verify_pair(*args):
            counts["verify"] += 1
            return real_verify(*args)

        monkeypatch.setattr(ValuePairIndex, "cal_bound", cal_bound)
        monkeypatch.setattr(ValuePairIndex, "generate_candidates", generate_candidates)
        monkeypatch.setattr(engine_module, "verify_pair", verify_pair)
        return run(dict(store)), counts

    def test_unverified_run_bounds_only_in_the_plan(self, monkeypatch):
        result, counts = self.counted_run(clustered_corpus(30, 8)[0], monkeypatch)
        assert counts["verify"] == 0 and counts["direct"] == result.merges > 0
        assert counts["plan"] > 0 and counts["elsewhere"] == 0

    @pytest.mark.parametrize("clusters", [False, True], ids=["lookalike", "with_clusters"])
    def test_verification_is_the_only_other_bound(self, clusters, monkeypatch):
        # every look-alike pair is verified; the records of a clustered
        # corpus, added under fresh ids, merge directly in the same run
        store = lookalike_store(20, 0)
        if clusters:
            offset = max(store)
            for rec in clustered_corpus(10, 8)[0].values():
                store[rec.rid + offset] = SuperRecord(rec.rid + offset, rec.fields)
        result, counts = self.counted_run(store, monkeypatch)
        assert counts["verify"] > 0 and (counts["direct"] > 0) == clusters
        assert counts["elsewhere"] == counts["verify"]


def with_shuffled_ids(store, rng):
    """The same records under randomly permuted record ids, with the map
    from each new id back to the old one."""
    old_ids = sorted(store)
    new_ids = old_ids[:]
    rng.shuffle(new_ids)
    shuffled = {
        new: SuperRecord(
            rid=new,
            fields=[Field(list(f.values), f.origins) for f in store[old].fields],
        )
        for old, new in zip(old_ids, new_ids)
    }
    return shuffled, dict(zip(new_ids, old_ids))


def with_reversed_names(store):
    """The same records with every source and every attribute renamed by a
    bijection that reverses their sort order, with the map from each old
    origin to its new one."""
    origins = {o for rec in store.values() for f in rec.fields for o in f.origins}
    sources = sorted({o.source for o in origins})
    attrs = sorted({o.attr for o in origins})
    source_name = {name: f"src{len(sources) - k:03d}" for k, name in enumerate(sources)}
    attr_name = {name: f"attr{len(attrs) - k:03d}" for k, name in enumerate(attrs)}
    new_of = {o: AttrOrigin(source_name[o.source], attr_name[o.attr]) for o in origins}
    renamed = {
        rid: SuperRecord(
            rid=rid,
            fields=[Field(list(f.values), frozenset(new_of[o] for o in f.origins)) for f in rec.fields],
        )
        for rid, rec in store.items()
    }
    return renamed, new_of


ORDER_CORPORA = {
    "clustered": lambda: clustered_corpus(30, 8, seed=3)[0],
    "split_attribute": lambda: split_attribute_corpus(40)[0],
    "lookalike": lambda: lookalike_store(20, 0),
}


class TestOrderIndependence:
    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
    @pytest.mark.parametrize("corpus", sorted(ORDER_CORPORA))
    def test_shuffled_record_ids_give_same_partition(self, corpus, shuffle_seed):
        store = ORDER_CORPORA[corpus]()
        expected = entity_sets(run(dict(store)))
        shuffled, old_of = with_shuffled_ids(store, random.Random(shuffle_seed))
        result = run(shuffled)
        assert {frozenset(old_of[r] for r in m) for m in result.entities.values()} == expected

    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
    @pytest.mark.parametrize("n, seed", LOOKALIKE_CORPORA)
    def test_shuffled_fields_give_same_partition(self, n, seed, shuffle_seed):
        # promotions may move with field order (ROADMAP item 7); the
        # partition and the merges per iteration may not
        store = lookalike_store(n, seed)
        expected = run(dict(store))
        rng = random.Random(shuffle_seed)
        shuffled = {
            rid: SuperRecord(
                rid=rid,
                fields=rng.sample([Field(list(f.values), f.origins) for f in rec.fields], len(rec.fields)),
            )
            for rid, rec in store.items()
        }
        result = run(shuffled)
        assert entity_sets(result) == entity_sets(expected)
        assert result.merge_history == expected.merge_history

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 16),
        config=st.sampled_from([EngineConfig(), VOTING_CONFIG, EngineConfig(rho=0.9, prior=0.9)]),
    )
    def test_reversed_names_give_same_partition(self, seed, n, config):
        # a tie-break that read a source or attribute name would break some
        # tie the other way once their order reverses.  Names can still
        # decide a merge through the promotions, which are not compared
        # here: a merged field holds several origins, and the ledger casts
        # their votes in name order, so a draw such as the one pinned in
        # test_reversed_names_move_a_merge can fail (ROADMAP item 7)
        store = random_store(random.Random(seed), n)
        labels, history, _, _ = outcome(store, config)
        renamed, _ = with_reversed_names(store)
        assert outcome(renamed, config)[:2] == (labels, history)

    @pytest.mark.xfail(
        strict=True,
        reason="the ledger casts a merge's votes in origin-name order, so renaming moves a "
        "promotion and with it a merge; content-decided matchings are ROADMAP item 7",
    )
    def test_reversed_names_move_a_merge(self):
        # the plain run merges (12, 0) and leaves record 11 apart; the run
        # with every name reversed makes one entity of all 14
        store = random_store(random.Random(246581591), 14)
        config = EngineConfig(rho=0.9, prior=0.9)
        labels, history, _, _ = outcome(store, config)
        renamed, _ = with_reversed_names(store)
        assert outcome(renamed, config)[:2] == (labels, history)

    @pytest.mark.parametrize("n, seed", LOOKALIKE_CORPORA[:2])
    def test_reversed_names_give_same_outcome_on_lookalike(self, n, seed):
        # here the promotions, mapped, and the contradiction count hold too
        labels, history, promoted, contradictions = outcome(lookalike_store(n, seed))
        renamed, new_of = with_reversed_names(lookalike_store(n, seed))
        got_labels, got_history, got_promoted, got_contradictions = outcome(renamed)
        assert promoted
        assert (got_labels, got_history) == (labels, history)
        assert {promo.as_pair() for promo in got_promoted} == {
            frozenset(new_of[o] for o in promo.as_pair()) for promo in promoted
        }
        assert len(got_contradictions) == len(contradictions)

    @pytest.mark.xfail(
        strict=True,
        reason="a record as similar to two unrelated records joins the one with the lower id; "
        "order-independent merge decisions are ROADMAP item 5",
    )
    def test_thin_record_tied_between_two_records(self):
        # {country: usa} scores 1.0 against both wide records, which share
        # only usa with each other (1/3): the first direct pair merges, the
        # second is deferred and then falls to 1/3
        thin = [(AttrOrigin("s0", "country"), "usa")]
        wide = {
            "a": [(AttrOrigin("s1", "country"), "usa"), (AttrOrigin("s1", "name"), "alvarez"),
                  (AttrOrigin("s1", "city"), "paris")],
            "b": [(AttrOrigin("s2", "country"), "usa"), (AttrOrigin("s2", "name"), "okonkwo"),
                  (AttrOrigin("s2", "city"), "lagos")],
        }
        partitions = []
        for order in (("a", "b"), ("b", "a")):
            rows = {1: ("thin", thin), 2: (order[0], wide[order[0]]), 3: (order[1], wide[order[1]])}
            result = run({rid: basic_record(rid, items) for rid, (_, items) in rows.items()})
            partitions.append(
                {frozenset(rows[r][0] for r in m) for m in result.entities.values()}
            )
        assert partitions[0] == partitions[1]
