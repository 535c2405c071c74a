"""Synthetic corpora for benchmarks and regression experiments.

Two generators:

* :func:`clustered_corpus` -- entities whose records largely share values;
  exercises throughput of the index and the merge loop.
* :func:`split_attribute_corpus` -- each entity is described by two
  records over disjoint attribute sets plus one bridging record that
  overlaps both.  A single-pass pairwise comparison cannot link the two
  disjoint records; the iterative merge can, via the bridge.
"""

from __future__ import annotations

import random
import string

from .pair_index import RecordStore
from .records import AttrOrigin, basic_record

POOL_SIZE = 7
FIELDS_PER_RECORD = 6
TYPO_RATE = 0.1


def _token(rng: random.Random, length: int = 8) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def clustered_corpus(
    n_entities: int = 250, records_per_entity: int = 8, seed: int = 7
) -> tuple[RecordStore, dict[int, int]]:
    """Entities of near-duplicate records drawn from a per-entity value pool.

    Each record takes a rotating window of FIELDS_PER_RECORD of its
    entity's POOL_SIZE values, each of which loses its last char at
    TYPO_RATE, so any two records of one entity share most values.
    Returns (store, gold) with gold mapping rid -> entity number.
    """
    rng = random.Random(seed)
    store: RecordStore = {}
    gold: dict[int, int] = {}
    rid = 0
    attrs = [f"a{slot}" for slot in range(POOL_SIZE)]
    for ent in range(n_entities):
        pool = [_token(rng) for _ in range(POOL_SIZE)]
        for r in range(records_per_entity):
            rid += 1
            source = f"s{r % 3}"
            items = []
            for offset in range(FIELDS_PER_RECORD):
                slot = (r + offset) % POOL_SIZE
                value = pool[slot]
                if rng.random() < TYPO_RATE:
                    value = value[:-1]  # drop last char: high but non-unit similarity
                items.append((AttrOrigin(source=source, attr=attrs[slot]), value))
            store[rid] = basic_record(rid, items)
            gold[rid] = ent
    return store, gold


def split_attribute_corpus(
    n_entities: int = 150, seed: int = 11
) -> tuple[RecordStore, dict[int, int]]:
    """Entities split across disjoint attribute subsets with a bridge record.

    Per entity: record A carries {name, email, phone}, record B carries
    {addr, city, company}, and record C carries {email, phone, addr, city}.
    A and B share no attribute values at all.
    """
    rng = random.Random(seed)
    store: RecordStore = {}
    gold: dict[int, int] = {}
    rid = 0
    for ent in range(n_entities):
        name, email, phone = _token(rng), _token(rng), _token(rng)
        addr, city, company = _token(rng), _token(rng), _token(rng)
        specs = [
            ("crm", [("name", name), ("email", email), ("phone", phone)]),
            ("billing", [("addr", addr), ("city", city), ("company", company)]),
            ("support", [("email", email), ("phone", phone), ("addr", addr), ("city", city)]),
        ]
        for source, items in specs:
            rid += 1
            store[rid] = basic_record(
                rid, [(AttrOrigin(source=source, attr=a), v) for a, v in items]
            )
            gold[rid] = ent
    return store, gold
