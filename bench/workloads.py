"""The benchmark's workloads and their files.

Each workload is a generator of (store, gold) plus a small corpus of the
same kind used once, untimed, to warm the process up.  The store is
written as the CLI's JSON-lines input before timing starts; the program
then sees only that file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from entres.pair_index import RecordStore
from entres.synth import clustered_corpus

from ambiguous import ambiguous_corpus

Corpus = tuple[RecordStore, dict[int, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Corpus]
    warmup: Callable[[int], Corpus]


WORKLOADS = {
    w.name: w
    for w in (
        # 2,000 records of 8 near-duplicates each: the q-gram join dominates,
        # every pair settles directly, nothing is verified
        Workload(
            "clustered",
            lambda seed: clustered_corpus(250, 8, seed=seed),
            lambda seed: clustered_corpus(25, 8, seed=seed),
        ),
        # 2,000 records in 40 entities of 50: merges cascade over 7 iterations
        # and super records grow wide, so bounds and index maintenance dominate
        Workload(
            "large_clusters",
            lambda seed: clustered_corpus(n_entities=40, records_per_entity=50, seed=seed),
            lambda seed: clustered_corpus(n_entities=4, records_per_entity=50, seed=seed),
        ),
        # 1,500 records from 12 schemas whose fields resemble each other:
        # the only workload that verifies, forces edges and votes
        Workload(
            "ambiguous",
            lambda seed: ambiguous_corpus(n_entities=300, seed=seed),
            lambda seed: ambiguous_corpus(n_entities=30, seed=seed),
        ),
    )
}


def external_id(rid: int) -> str:
    return f"r{rid}"


def write_input(store: RecordStore, path: Path) -> None:
    """Write basic records in the CLI's input format, in rid order."""
    with open(path, "w", encoding="utf-8") as fp:
        for rid in sorted(store):
            rec = store[rid]
            (source,) = {o.source for fld in rec.fields for o in fld.origins}
            fields = []
            for fld in rec.fields:
                (origin,) = fld.origins
                fields.append({"attr": origin.attr, "values": list(fld.values)})
            doc = {"id": external_id(rid), "source": source, "fields": fields}
            fp.write(json.dumps(doc) + "\n")


def external_gold(gold: dict[int, int]) -> dict[str, str]:
    """Gold labels keyed like the CLI's label files: external id -> entity."""
    return {external_id(rid): str(ent) for rid, ent in gold.items()}
