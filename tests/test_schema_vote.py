import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from entres.records import AttrOrigin
from entres.schema_vote import SchemaVoteLedger, error_bound

A_NAME = AttrOrigin("CustomerII", "name")
B_NAME = AttrOrigin("CustomerIII", "name")
B_CITY = AttrOrigin("CustomerIII", "city")


class TestErrorBound:
    def test_worked_value(self):
        assert error_bound(10, 0.8) == pytest.approx(0.5698, abs=5e-4)

    def test_closed_form(self):
        for n in (1, 3, 10, 40):
            for p in (0.6, 0.8, 0.95):
                assert error_bound(n, p) == pytest.approx(
                    math.exp(-(n / (2 * p)) * (p - 0.5) ** 2)
                )

    def test_strictly_decreasing_in_n(self):
        for p in (0.6, 0.8, 0.95):
            bounds = [error_bound(n, p) for n in range(1, 60)]
            assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_decreasing_in_p(self):
        assert error_bound(10, 0.95) < error_bound(10, 0.8) < error_bound(10, 0.6)

    def test_invalid_arguments(self):
        # the prior's range is EngineConfig's to check
        with pytest.raises(ValueError):
            error_bound(0, 0.8)


class TestLedger:
    def test_same_source_prediction_rejected(self):
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        with pytest.raises(ValueError):
            ledger.record_prediction(A_NAME, AttrOrigin("CustomerII", "city"))

    def test_votes_tally_symmetrically(self):
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        ledger.record_prediction(A_NAME, B_NAME)
        ledger.record_prediction(A_NAME, B_NAME)
        assert ledger.votes_for(A_NAME, "CustomerIII") == {B_NAME: 2}
        assert ledger.votes_for(B_NAME, "CustomerII") == {A_NAME: 2}

    def test_promotion_at_ten_votes(self):
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        for _ in range(10):
            ledger.record_prediction(A_NAME, B_NAME)
        promo = ledger.try_promote(A_NAME, "CustomerIII")
        assert promo is not None
        assert promo.b == B_NAME and promo.votes == 10
        assert promo.confidence == pytest.approx(0.4302, abs=5e-4)

    def test_no_promotion_under_stricter_rho(self):
        ledger = SchemaVoteLedger(p=0.8, rho=0.5)
        for _ in range(10):
            ledger.record_prediction(A_NAME, B_NAME)
        assert ledger.try_promote(A_NAME, "CustomerIII") is None

    def test_tie_defers(self):
        ledger = SchemaVoteLedger(p=0.95, rho=0.9)
        for _ in range(5):
            ledger.record_prediction(A_NAME, B_NAME)
            ledger.record_prediction(A_NAME, B_CITY)
        assert ledger.try_promote(A_NAME, "CustomerIII") is None

    def test_majority_wins_despite_noise(self):
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        for _ in range(12):
            ledger.record_prediction(A_NAME, B_NAME)
        for _ in range(2):
            ledger.record_prediction(A_NAME, B_CITY)
        promo = ledger.try_promote(A_NAME, "CustomerIII")
        assert promo is not None and promo.b == B_NAME
        assert promo.votes == 14  # bound uses the full sample size

    def test_promotion_is_frozen(self):
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        for _ in range(10):
            ledger.record_prediction(A_NAME, B_NAME)
        first = ledger.try_promote(A_NAME, "CustomerIII")
        for _ in range(50):
            ledger.record_prediction(A_NAME, B_CITY)
        assert ledger.try_promote(A_NAME, "CustomerIII") == first
        assert (A_NAME, B_CITY) in ledger.contradictions

    def test_contradiction_seen_from_either_attribute(self):
        # {A_NAME, B_NAME} is promoted from B_NAME's side only
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        for _ in range(10):
            ledger.record_prediction(B_NAME, A_NAME)
        ledger.try_promote(B_NAME, "CustomerII")
        a_city = AttrOrigin("CustomerII", "city")
        ledger.record_prediction(a_city, B_NAME)
        ledger.record_prediction(B_NAME, a_city)
        ledger.record_prediction(A_NAME, B_NAME)
        assert ledger.contradictions == [(a_city, B_NAME), (B_NAME, a_city)]

    def test_promote_without_votes_raises(self):
        with pytest.raises(ValueError):
            SchemaVoteLedger(p=0.8, rho=0.6).try_promote(A_NAME, "CustomerIII")

    def test_promoted_pairs_deduplicate_directions(self):
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        for _ in range(10):
            ledger.record_prediction(A_NAME, B_NAME)
        ledger.try_promote(A_NAME, "CustomerIII")
        ledger.try_promote(B_NAME, "CustomerII")
        assert ledger.promoted_pairs() == [frozenset({A_NAME, B_NAME})]
        assert len(ledger.promoted()) == 1

    def test_export_jsonl(self):
        ledger = SchemaVoteLedger(p=0.8, rho=0.6)
        for _ in range(10):
            ledger.record_prediction(A_NAME, B_NAME)
        ledger.try_promote(A_NAME, "CustomerIII")
        buf = io.StringIO()
        ledger.export_jsonl(buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(rows) == 1
        assert rows[0]["votes"] == 10
        assert rows[0]["p_error_upper"] == pytest.approx(0.5698, abs=5e-4)
        assert {rows[0]["attr_a"], rows[0]["attr_b"]} == {"name"}


LEDGER_ORIGINS = [AttrOrigin(f"s{s}", f"a{a}") for s in range(3) for a in range(2)]
steps_st = st.lists(
    st.tuples(
        st.sampled_from(LEDGER_ORIGINS), st.sampled_from(LEDGER_ORIGINS), st.booleans()
    ).filter(lambda t: t[0].source != t[1].source),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(steps_st)
def test_partner_map_and_pairs_follow_promotions(steps):
    # a loose threshold promotes after one vote, so random sequences promote
    # often, from either attribute, and later votes contradict
    ledger = SchemaVoteLedger(p=0.95, rho=0.9)
    first: dict[frozenset, object] = {}  # each pair's first promotion, as try_promote returned it
    for a, b, promote_both in steps:
        ledger.record_prediction(a, b)
        results = [ledger.try_promote(a, b.source)]
        if promote_both:
            results.append(ledger.try_promote(b, a.source))
        for promo in results:
            if promo is not None:
                first.setdefault(promo.as_pair(), promo)
        rebuilt = list(first)
        assert ledger.promoted() == list(first.values())
        assert ledger.promoted_pairs() == rebuilt
        partners = ledger.partners
        as_pairs = {frozenset((x, y)) for x, ys in partners.items() for y in ys}
        assert as_pairs == set(rebuilt)
        assert all(x in partners[y] for x, ys in partners.items() for y in ys)


def _replay(steps):
    """A ledger after ``steps``, under the loose threshold of the test above."""
    ledger = SchemaVoteLedger(p=0.95, rho=0.9)
    for a, b, promote_both in steps:
        ledger.record_prediction(a, b)
        ledger.try_promote(a, b.source)
        if promote_both:
            ledger.try_promote(b, a.source)
    return ledger


@settings(max_examples=200, deadline=None)
@given(steps_st, steps_st.filter(bool))
def test_contradictions_do_not_depend_on_argument_order(steps, probes):
    logged = []
    for flip in (False, True):
        ledger = _replay(steps)
        before = len(ledger.contradictions)
        for a, b, _ in probes:
            if flip:
                a, b = b, a
            ledger.record_prediction(a, b)
        logged.append([{a, b} for a, b in ledger.contradictions[before:]])
    assert logged[0] == logged[1]
