"""Schema matchings by majority vote.

Every verified record pair predicts a few attribute correspondences.
Individually those predictions are noisy; tallied across many pairs the
majority stabilizes, and once the error bound on the vote drops below
the threshold the matching is promoted and enforced on later pairs.
Run with:

    python demos/schema_votes.py
"""

import random

from entres import AttrOrigin
from entres.schema_vote import SchemaVoteLedger, error_bound


def main() -> None:
    print("== error bound of an n-prediction vote (prior p = 0.8) ==")
    for n in (1, 3, 5, 10, 20, 40):
        print(f"  n = {n:>2}: bound = {error_bound(n, 0.8):.4f}")
    print("  (promotion at rho = 0.6 becomes possible once the bound dips below it)\n")

    # simulate noisy predictions: the true matching is crm.email ~
    # billing.contact, but 20% of pairs predict a wrong counterpart
    rng = random.Random(42)
    email = AttrOrigin("crm", "email")
    contact = AttrOrigin("billing", "contact")
    noise = AttrOrigin("billing", "notes")

    ledger = SchemaVoteLedger(p=0.8, rho=0.6)
    promoted_at = None
    for n in range(1, 31):
        ledger.record_prediction(email, contact if rng.random() < 0.8 else noise)
        promo = ledger.try_promote(email, "billing")
        tally = ledger.votes_for(email, "billing")
        status = f"promoted -> {promo.b.attr} (confidence {promo.confidence:.2f})" if promo else "undecided"
        if promo and promoted_at is None:
            promoted_at = n
        if n <= 12 or promo and promoted_at == n:
            print(f"  after {n:>2} predictions {dict((o.attr, c) for o, c in tally.items())}: {status}")

    print(f"\npromotion happened after {promoted_at} predictions and is frozen:")
    for _ in range(50):
        ledger.record_prediction(email, noise)
    final = ledger.try_promote(email, "billing")
    print(f"  even after 50 contradicting votes the decision stays {final.b.attr!r}")
    print(f"  contradictions logged: {len(ledger.contradictions)}")


if __name__ == "__main__":
    main()
