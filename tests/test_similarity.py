import pytest
from hypothesis import given, strategies as st

from entres.records import basic_record, AttrOrigin, Field
from entres.similarity import gram_jaccard, qgrams, record_score, simv
from tests.conftest import simf

short_text = st.text(alphabet="abcde@-", max_size=12)


def gram_oracle(s: str, q: int) -> set[str]:
    if not s:
        return set()
    if len(s) < q:
        return {s}
    out = set()
    for i in range(len(s)):
        if i + q <= len(s):
            out.add(s[i : i + q])
    return out


class TestQGrams:
    def test_bush(self):
        assert qgrams("bush", 2) == {"bu", "us", "sh"}

    def test_electronic(self):
        assert qgrams("electronic", 2) == {"el", "le", "ec", "ct", "tr", "ro", "on", "ni", "ic"}

    def test_short_string_rule(self):
        assert qgrams("a", 2) == {"a"}

    def test_empty(self):
        assert qgrams("", 2) == frozenset()

    @given(short_text, st.integers(min_value=1, max_value=4))
    def test_matches_oracle(self, s, q):
        assert set(qgrams(s, q)) == gram_oracle(s, q)


class TestSimv:
    def test_electronics_electronic(self):
        assert simv("electronics", "electronic") == pytest.approx(0.9)

    def test_bush_gmail(self):
        assert simv("bush@gmail", "bush") == pytest.approx(1 / 3)

    def test_identity(self):
        for x in ("x", "bush", "831-432", ""):
            assert simv(x, x) == 1.0

    @given(short_text, short_text)
    def test_symmetric_and_bounded(self, a, b):
        s = simv(a, b)
        assert s == simv(b, a)
        assert 0.0 <= s <= 1.0

    @given(short_text, short_text, st.integers(min_value=1, max_value=3))
    def test_matches_set_oracle(self, a, b, q):
        g1, g2 = gram_oracle(a, q), gram_oracle(b, q)
        if not g1 and not g2:
            expected = 1.0
        elif not (g1 & g2):
            expected = 0.0
        else:
            expected = len(g1 & g2) / len(g1 | g2)
        assert simv(a, b, q) == pytest.approx(expected)

    @given(short_text, short_text, st.integers(min_value=1, max_value=3))
    def test_gram_jaccard_takes_a_tuple_of_distinct_grams(self, a, b, q):
        # the join scores a probe's frozenset against a partner's tuple of
        # gram ids; the float must be the one two sets give, either way round
        g1, g2 = qgrams(a, q), qgrams(b, q)
        ids = {gram: i for i, gram in enumerate(sorted(g1 | g2))}
        t1, t2 = (tuple(sorted(map(ids.__getitem__, g))) for g in (g1, g2))
        want = gram_jaccard(g1, g2)
        assert gram_jaccard(frozenset(t1), t2) == want
        assert gram_jaccard(frozenset(t2), t1) == want
        assert gram_jaccard(g1, tuple(g2)) == want


def _field(*values):
    return Field(values=list(values), origins=frozenset([AttrOrigin("s", "a")]))


class TestSimf:
    def test_best_value_pair_wins(self):
        f1 = _field("electronic", "electronics")
        f2 = _field("electronic")
        assert simf(f1, f2) == 1.0

    def test_singletons_reduce_to_simv(self):
        assert simf(_field("bush@gmail"), _field("bush")) == pytest.approx(1 / 3)

    def test_identity_field(self):
        f = _field("chicago", "chicag")
        assert simf(f, f) == 1.0

    def test_max_dominance(self):
        f1 = _field("bush", "chicago")
        f2 = _field("bushel", "chicag")
        s = simf(f1, f2)
        for v in f1.values:
            for w in f2.values:
                assert s >= simv(v, w)

    def test_monotone_under_value_addition(self):
        f1 = _field("bush")
        f2 = _field("manager")
        before = simf(f1, f2)
        f1.values.append("manage")
        assert simf(f1, f2) >= before


class TestRecordSim:
    """``record_score`` over a matching's scores and the smaller record's width."""

    def _rec(self, rid, n):
        return basic_record(
            rid, [(AttrOrigin(f"s{rid}", f"a{i}"), f"v{rid}{i}") for i in range(n)]
        )

    def _sim(self, a, b, m):
        return record_score([s for _, _, s in m], min(a.width, b.width))

    def test_worked_accumulation(self):
        a, b = self._rec(1, 6), self._rec(2, 6)
        m = ((2, 4, 0.37), (3, 2, 1.0), (4, 3, 1.0), (5, 5, 1.0))
        assert self._sim(a, b, m) == pytest.approx(3.37 / 6)

    def test_empty_matching(self):
        assert self._sim(self._rec(1, 3), self._rec(2, 4), ()) == 0.0

    def test_perfect_single_field(self):
        a, b = self._rec(1, 1), self._rec(2, 1)
        assert self._sim(a, b, ((1, 1, 1.0),)) == 1.0

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_bounded(self, na, nb, data):
        a, b = self._rec(1, na), self._rec(2, nb)
        k = data.draw(st.integers(0, min(na, nb)))
        scores = data.draw(st.lists(st.floats(0, 1), min_size=k, max_size=k))
        m = tuple((i + 1, i + 1, s) for i, s in enumerate(scores))
        assert 0.0 <= self._sim(a, b, m) <= 1.0
