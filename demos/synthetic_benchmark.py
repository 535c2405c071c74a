"""Why iterating beats a single pass, on a synthetic corpus.

Each entity is split across disjoint attribute subsets with a bridging
record; a single pairwise pass tops out at F1 = 0.8 because the two
disjoint records share nothing, while iterative merging recovers the
full cluster through the bridge.  Throughput is measured by
``bench/run.py``, not here.  Run with:

    python demos/synthetic_benchmark.py
"""

import itertools

from entres import EngineConfig, run
from entres.matching import verify_pair
from entres.pair_index import build_index
from entres.synth import split_attribute_corpus


def pairwise_f1(emitted: set, gold_pairs: set) -> float:
    tp = len(emitted & gold_pairs)
    if not emitted or not gold_pairs or not tp:
        return 0.0
    p, r = tp / len(emitted), tp / len(gold_pairs)
    return 2 * p * r / (p + r)


def main() -> None:
    print("== description difference: split attributes with a bridge record ==")
    store, gold = split_attribute_corpus()
    gold_pairs = {frozenset((a, b))
                  for a, b in itertools.combinations(sorted(gold), 2)
                  if gold[a] == gold[b]}

    # single pass: score every indexed record pair once, no merging -- an
    # exact bound is the similarity, any other bound reaching delta is verified
    index = build_index(dict(store), xi=0.5)
    single = set()
    for key in {(p.left.rid, p.right.rid) for p in index.iter_pairs()}:
        bound = index.cal_bound(*key)
        if bound.up >= 0.5 and (not bound.has_multiple or verify_pair(index, *key).sim >= 0.5):
            single.add(frozenset(key))

    result = run(store, EngineConfig(delta=0.5, xi=0.5))
    iterative = set()
    for members in result.entities.values():
        iterative |= {frozenset(p) for p in itertools.combinations(sorted(members), 2)}

    print(f"  {len(store)} records, {len(gold_pairs)} true pairs")
    print(f"  single pairwise pass: F1 = {pairwise_f1(single, gold_pairs):.3f} "
          "(the two disjoint records of each entity are never linked)")
    print(f"  iterative merging:    F1 = {pairwise_f1(iterative, gold_pairs):.3f} "
          "(the bridge record pulls the cluster together)")


if __name__ == "__main__":
    main()
