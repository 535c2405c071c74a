"""Walk through the six-record customer scenario end to end.

Six records from three customer databases describe two real people.  The
interesting part: no single record pair links {r1, r6} with {r2, r4} --
that connection is only provable in a later iteration, between the super
records produced by the first round of merges.  Run with:

    python demos/resolve_customers.py
"""

from pathlib import Path

from entres import EngineConfig, ResolutionEngine
from entres.cli import parse_input
from entres.pair_index import build_index

DATA = Path(__file__).resolve().parent / "data" / "customers.jsonl"


def main() -> None:
    parsed = parse_input(str(DATA))
    print(f"loaded {len(parsed.store)} records from {DATA.name}\n")

    print("== the first pass's plan (xi = 0.5, delta = 0.5) ==")
    index = build_index(parsed.store, xi=0.5)
    candidates, direct = index.generate_candidates(0.5)
    for (i, j), bound in direct:  # exact bound: its refined set is the merge's matching
        print(f"  direct    ({parsed.ids[i]}, {parsed.ids[j]})  sim = {bound.up:.4f}")
    for i, j in candidates:
        bound = index.cal_bound(i, j)
        print(
            f"  candidate ({parsed.ids[i]}, {parsed.ids[j]})  "
            f"up = {bound.up:.4f}  (needs verification)"
        )
    print("  (r4, r6) is deferred: a record takes part in at most one direct merge")
    print("  per pass, (r1, r6) already merges r6, so this pass does not bound it")
    print()

    engine = ResolutionEngine(parsed.store, EngineConfig(delta=0.5, xi=0.5))
    result = engine.run()
    print(f"== resolved in {result.iterations} iterations "
          f"(merges per iteration: {result.merge_history}) ==")
    for eid, members in sorted(result.entities.items()):
        names = sorted(parsed.ids[rid] for rid in members)
        print(f"  entity {parsed.ids[eid]}: {{{', '.join(names)}}}")
    print()
    print("note the second iteration: {r1, r6} and {r2, r4} could not be linked")
    print("as single records, but their merged super records share enough values")
    print("(manager, 831-432, bush@gmail, electronics) to clear the threshold.")


if __name__ == "__main__":
    main()
