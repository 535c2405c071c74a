"""Release gate: every shipping criterion in one place.

Each criterion prints exactly one ``PASS``/``FAIL`` line (straight to the
real stdout, bypassing capture) and fails the suite on a miss.
"""

import itertools
import random
import time

import pytest

from entres.cli import evaluate
from entres.engine import EngineConfig, run
from entres.matching import km_max_weight, verify_pair
from entres.pair_index import build_index
from entres.records import AttrOrigin, EntityForest, basic_record, merge_super_records
from entres.schema_vote import error_bound
from entres.similarity import record_score, simv
from entres.synth import clustered_corpus, split_attribute_corpus
from tests.conftest import CUSTOMERS, index_from_pairs, random_store, simf
from tests.test_matching import graph_of, oracle_max_weight

XI = DELTA = 0.5
TOL = 0.005


def _gate(num: int, title: str, body, capsys) -> None:
    try:
        detail = body()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  criterion {num}: {title}")
        raise
    extra = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"PASS  criterion {num}: {title}{extra}")


def _customer_store():
    from entres.cli import parse_input

    return parse_input(str(CUSTOMERS)).store


def test_criterion_1_worked_values(capsys):
    def body():
        assert simv("electronics", "electronic") == pytest.approx(0.9, abs=TOL)
        assert simv("bush@gmail", "bush") == pytest.approx(0.333, abs=TOL)

        # mocked refined field set over two six-field records:
        # sims 0.37, 0.33, 1, 1, 1 with two pairs colliding on left field 3
        mk = lambda rid: basic_record(
            rid, [(AttrOrigin(f"s{rid}", f"a{k}"), f"v{rid}{k}") for k in range(6)]
        )
        store = {1: mk(1), 2: mk(2)}
        pairs = [
            ((1, 2), (2, 4), 0.37),
            ((1, 3), (2, 1), 0.33),
            ((1, 3), (2, 2), 1.0),
            ((1, 4), (2, 3), 1.0),
            ((1, 5), (2, 5), 1.0),
        ]
        index = index_from_pairs(store, pairs)
        bound = index.cal_bound(1, 2)
        assert bound.up == pytest.approx(0.56, abs=TOL)
        assert verify_pair(index, 1, 2).sim == pytest.approx(0.56, abs=TOL)

        customer_index = build_index(_customer_store(), XI)
        b46 = customer_index.cal_bound(4, 6)
        assert b46.up == pytest.approx(0.58, abs=TOL)
        assert not b46.has_multiple

        assert error_bound(10, 0.8) == pytest.approx(0.5698, abs=TOL)
        return "simv 0.9 / 0.333, bound 0.56, cal_bound 0.58, error_bound 0.5698"

    _gate(1, "worked-value reproduction within ±0.005", body, capsys)


def test_criterion_2_end_to_end_fixture(capsys):
    def body():
        store = _customer_store()
        index = build_index(store, XI)
        candidates, _direct = index.generate_candidates(DELTA)
        assert candidates == [(2, 4)]

        start = time.perf_counter()
        result = run(store, EngineConfig(delta=DELTA, xi=XI))
        elapsed = time.perf_counter() - start
        clusters = {frozenset(m) for m in result.entities.values()}
        assert clusters == {frozenset({1, 2, 4, 6}), frozenset({3, 5})}
        assert result.converged
        assert elapsed < 1.0
        return f"two entities at fixpoint, candidates {{(2,4)}}, {elapsed * 1e3:.0f} ms"

    _gate(2, "six-record fixture resolves end to end in < 1 s", body, capsys)


def _exhaustive_record_sim(index, i, j, xi):
    """Best one-to-one field matching by enumeration over field-pair simf
    weights (only pairs at or above ``xi`` participate)."""
    a, b = index.store[i], index.store[j]
    weights = [
        [0.0] * b.width for _ in range(a.width)
    ]
    for lf in range(a.width):
        for rf in range(b.width):
            s = simf(a.fields[lf], b.fields[rf])
            if s >= xi:
                weights[lf][rf] = s
    best = oracle_max_weight(a.width, b.width, tuple(map(tuple, weights)))
    return best / min(a.width, b.width)


def test_criterion_3_oracle_equivalence(capsys):
    def body():
        counts = {}

        # a record pair's run, as cal_bound reads it, vs a linear scan of
        # the whole pair sequence
        rng = random.Random(301)
        n = 0
        for _ in range(10):
            store = random_store(rng, 12)
            index = build_index(store, XI)
            rids = sorted(store)
            everything = list(index.iter_pairs())
            for a, i in enumerate(rids):
                for j in rids[a + 1 :]:
                    scan = [
                        (p.left.fid, p.right.fid, p.sim)
                        for p in everything
                        if (p.left.rid, p.right.rid) == (i, j)
                    ]
                    assert sorted(index.cal_bound(i, j).refined) == sorted(scan)
                    n += 1
        counts["lookup"] = n

        # weight of the KM matching vs memoized enumeration
        rng = random.Random(302)
        n = 0
        for _ in range(520):
            nl, nr = rng.randint(1, 8), rng.randint(1, 8)
            w = [[0.0] * nr for _ in range(nl)]
            edges = []
            for x in range(nl):
                for y in range(nr):
                    if rng.random() < 0.5:
                        s = round(rng.uniform(0.05, 1.0), 3)
                        w[x][y] = s
                        edges.append((x + 1, y + 1, s))
            if not edges:
                continue
            weight = sum(s for _, _, s in km_max_weight(graph_of(edges)))
            assert weight == pytest.approx(oracle_max_weight(nl, nr, tuple(map(tuple, w))))
            n += 1
        counts["km"] = n

        # safe-prune soundness: up bounds the exhaustive similarity from
        # above, and collapses to it exactly when no field is multiple
        rng = random.Random(303)
        n = 0
        while n < 500:
            store = random_store(rng, rng.randint(3, 10))
            index = build_index(store, XI)
            rids = sorted(store)
            for a, i in enumerate(rids):
                for j in rids[a + 1 :]:
                    sim = _exhaustive_record_sim(index, i, j, XI)
                    bound = index.cal_bound(i, j)
                    assert bound.up >= sim - 1e-9
                    if not bound.has_multiple:
                        assert bound.up == pytest.approx(sim)
                    n += 1
        counts["prune"] = n

        # merge maintenance vs from-scratch similarity join
        rng = random.Random(304)
        n = 0
        while n < 500:
            store = random_store(rng, rng.randint(4, 20))
            index = build_index(store, XI)
            forest = EntityForest(store)
            for _ in range(3):
                rids = sorted(store)
                if len(rids) < 2:
                    break
                i, j = sorted(rng.sample(rids, 2))
                bound = index.cal_bound(i, j)
                matching, lu, ru = [], set(), set()
                for lf, rf, s in sorted(bound.refined, key=lambda t: (-t[2], t[0], t[1])):
                    if lf not in lu and rf not in ru:
                        matching.append((lf, rf, s))
                        lu.add(lf)
                        ru.add(rf)
                merged, field_map = merge_super_records(store[i], store[j], matching, forest)
                del store[i], store[j]
                store[merged.rid] = merged
                index.apply_merge(i, j, merged.rid, field_map)
                got = {(p.left, p.right, round(p.sim, 9)) for p in index.iter_pairs()}
                want = {
                    (p.left, p.right, round(p.sim, 9))
                    for p in build_index(store, XI).iter_pairs()
                }
                assert got == want
                n += 1
        counts["merge"] = n

        # evaluate vs O(n^2) pair counting
        rng = random.Random(305)
        n = 0
        for _ in range(500):
            keys = [f"k{x}" for x in range(rng.randint(2, 30))]
            labels = {k: rng.randint(0, 6) for k in keys}
            gold = {k: rng.randint(0, 4) for k in keys}
            tp = fp = fn = 0
            for a, b in itertools.combinations(keys, 2):
                se, sg = labels[a] == labels[b], gold[a] == gold[b]
                tp += se and sg
                fp += se and not sg
                fn += sg and not se
            report = evaluate(labels, gold)
            assert (report.true_pairs, report.emitted_pairs, report.gold_pairs) == (
                tp, tp + fp, tp + fn)
            n += 1
        counts["evaluate"] = n

        assert all(c >= 500 for k, c in counts.items() if k != "lookup")
        assert counts["lookup"] >= 500
        return ", ".join(f"{k}={v}" for k, v in counts.items())

    _gate(3, "oracle equivalence across five property suites", body, capsys)


def test_criterion_4_formula_properties(capsys):
    def body():
        for p in (0.6, 0.8, 0.95):
            bounds = [error_bound(n, p) for n in range(1, 80)]
            assert all(a > b for a, b in zip(bounds, bounds[1:]))

        rng = random.Random(401)
        vocab = ["bush", "bushel", "gmail", "chicago", "chicag", "manager", "john"]
        from entres.records import Field

        for _ in range(200):
            f1 = Field(values=rng.sample(vocab, rng.randint(1, 3)),
                       origins=frozenset([AttrOrigin("s1", "a")]))
            f2 = Field(values=rng.sample(vocab, rng.randint(1, 3)),
                       origins=frozenset([AttrOrigin("s2", "a")]))
            before = simf(f1, f2)
            extra = rng.choice([v for v in vocab if v not in f1.values])
            f1.values.append(extra)
            assert simf(f1, f2) >= before

        rng = random.Random(402)
        for _ in range(200):
            na, nb = rng.randint(1, 6), rng.randint(1, 6)
            a = basic_record(1, [(AttrOrigin("s1", f"a{k}"), rng.choice(vocab)) for k in range(na)])
            b = basic_record(2, [(AttrOrigin("s2", f"b{k}"), rng.choice(vocab)) for k in range(nb)])
            k = rng.randint(0, min(na, nb))
            matching = tuple((x + 1, x + 1, round(rng.random(), 3)) for x in range(k))
            assert 0.0 <= record_score([s for _, _, s in matching], min(a.width, b.width)) <= 1.0
        return "error_bound monotone, simf monotone, record_score in [0, 1]"

    _gate(4, "formula properties hold under fuzzing", body, capsys)


def test_criterion_5_performance_smoke(capsys):
    def body():
        store, gold = clustered_corpus(n_entities=250, records_per_entity=8)
        assert len(store) == 2000
        start = time.perf_counter()
        result = run(store, EngineConfig(delta=DELTA, xi=XI))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert result.converged
        report = evaluate(result.labels, gold)
        return f"2000 records in {elapsed:.2f} s, F1 {report.f1:.3f}"

    _gate(5, "2,000-record synthetic corpus resolves in < 10 s", body, capsys)


def _pairwise_scores(emitted: set, gold_pairs: set) -> float:
    tp = len(emitted & gold_pairs)
    precision = tp / len(emitted) if emitted else 0.0
    recall = tp / len(gold_pairs) if gold_pairs else 0.0
    if precision == 0.0 or recall == 0.0:
        return 0.0
    return 2.0 / (1.0 / precision + 1.0 / recall)


def test_criterion_6_split_attribute_regression(capsys):
    def body():
        store, gold = split_attribute_corpus()
        gold_pairs = {
            frozenset((a, b))
            for a, b in itertools.combinations(sorted(gold), 2)
            if gold[a] == gold[b]
        }

        # baseline: one pairwise pass over every indexed record pair, no
        # merging -- an exact bound is the pair's similarity, any other
        # bound reaching DELTA is verified.  Not generate_candidates: its
        # plan defers direct pairs that share a record
        index = build_index(dict(store), XI)
        baseline_pairs = set()
        for key in sorted({(p.left.rid, p.right.rid) for p in index.iter_pairs()}):
            bound = index.cal_bound(*key)
            if bound.up < DELTA:
                continue
            if not bound.has_multiple or verify_pair(index, *key).sim >= DELTA:
                baseline_pairs.add(frozenset(key))
        baseline_f1 = _pairwise_scores(baseline_pairs, gold_pairs)

        result = run(store, EngineConfig(delta=DELTA, xi=XI))
        full_pairs = set()
        for members in result.entities.values():
            full_pairs |= {frozenset(p) for p in itertools.combinations(sorted(members), 2)}
        full_f1 = _pairwise_scores(full_pairs, gold_pairs)

        assert full_f1 >= baseline_f1 + 0.10
        return f"iterative F1 {full_f1:.3f} vs single-pass {baseline_f1:.3f}"

    _gate(6, "iterative merging beats the single-pass baseline by >= 10 F1 points", body, capsys)
