"""Inside the field-pair index: similarity join, bounds, and pruning.

Shows the indexed field pairs for the customer scenario, each with the
best similarity of its fields' values, then how the
per-record-pair upper bound, exact when no field is multiple, splits
all record pairs into pruned, direct, and candidate sets -- only
candidates ever reach the bipartite matching.  Run with:

    python demos/index_and_bounds.py
"""

import itertools
from pathlib import Path

from entres.cli import parse_input
from entres.pair_index import build_index
from entres.similarity import simv

DATA = Path(__file__).resolve().parent / "data" / "customers.jsonl"


def main() -> None:
    parsed = parse_input(str(DATA))

    print("== value similarity (2-gram jaccard) ==")
    for a, b in [("electronics", "electronic"), ("bush@gmail", "bush"),
                 ("chicago", "chicag"), ("john", "bushel")]:
        print(f"  simv({a!r}, {b!r}) = {simv(a, b):.4f}")
    print()

    index = build_index(parsed.store, xi=0.5)
    print(f"== indexed field pairs (xi = 0.5): {len(index)} rows ==")
    for pid, (left, right, sim) in enumerate(index.iter_pairs(), 1):
        lv = parsed.store[left.rid].fields[left.fid - 1].values
        rv = parsed.store[right.rid].fields[right.fid - 1].values
        print(f"  #{pid:>2}  ({parsed.ids[left.rid]}.f{left.fid} {lv}) ~ "
              f"({parsed.ids[right.rid]}.f{right.fid} {rv})  sim = {sim:.4f}")
    print()

    print("== bounds for every record pair (delta = 0.5) ==")
    rids = sorted(parsed.store)
    for i, j in itertools.combinations(rids, 2):
        bound = index.cal_bound(i, j)
        if bound.up < 0.5:
            verdict = "pruned"
        elif bound.has_multiple:
            verdict = "candidate (verify)"
        else:
            verdict = "direct (bound is exact)"
        print(f"  ({parsed.ids[i]}, {parsed.ids[j]})  "
              f"up = {bound.up:.4f}  -> {verdict}")


if __name__ == "__main__":
    main()
