"""The ``ambiguous`` corpus: heterogeneous sources whose fields look alike.

Every entity has a name, a login, an e-mail address, three phone
numbers and a city.  The values of different concepts resemble each
other on purpose: the login is the name without its space, the e-mail
address is the login plus a short domain, and the mobile and fax numbers
share a prefix with the phone.  Each source names the concepts it keeps
in its own way and keeps only some of them.  So a field of one record is
often similar to two fields of another, bounds come back with multiple
covering pairs, and the pair has to be verified by the bipartite
matching.  Schema votes then accumulate over many source pairs.
"""

from __future__ import annotations

import random
import string

from entres.pair_index import RecordStore
from entres.records import AttrOrigin, basic_record

# source -> [(concept, attribute name in that source)].  Every schema starts
# with two concepts that identify the person (name, login or e-mail) and
# the city; phone numbers of one to three kinds follow.
SCHEMAS: dict[str, list[tuple[str, str]]] = {
    "crm": [("name", "full_name"), ("email", "email"), ("city", "city"), ("phone", "phone"), ("fax", "fax")],
    "web": [("login", "username"), ("email", "mail"), ("city", "town"), ("mobile", "mobile")],
    "billing": [("name", "customer"), ("email", "e_mail"), ("city", "billing_city"), ("phone", "tel"), ("fax", "fax_no")],
    "support": [("name", "name"), ("login", "login"), ("city", "site"), ("phone", "contact"), ("mobile", "cell")],
    "partner": [("name", "person"), ("login", "user_id"), ("city", "hq"), ("phone", "telephone")],
    "hr": [("name", "employee"), ("email", "work_email"), ("city", "office"), ("mobile", "mobile_phone"), ("fax", "fax")],
    "events": [("login", "handle"), ("email", "contact_mail"), ("city", "venue_city"), ("phone", "phone_no")],
    "shop": [("name", "buyer"), ("email", "buyer_email"), ("city", "ship_city"), ("mobile", "sms"), ("fax", "fax_line")],
    "forum": [("login", "nick"), ("email", "forum_mail"), ("city", "location"), ("mobile", "phone")],
    "loyalty": [("name", "member"), ("email", "member_email"), ("city", "home_town"), ("phone", "home_phone"), ("mobile", "mobile_no")],
    "sales": [("name", "contact_name"), ("email", "contact_email"), ("city", "region"), ("fax", "fax_number")],
    "logistics": [("name", "recipient"), ("login", "account"), ("city", "dest_city"), ("phone", "recipient_phone"), ("mobile", "courier_sms")],
}

SOURCES_PER_ENTITY = 5
TYPO_RATE = 0.1  # share of values that lose their last character
MISSING_RATE = 0.2  # share of records that lack one phone number


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _digits(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.digits) for _ in range(length))


def _entity(rng: random.Random) -> dict[str, str]:
    first, last = _word(rng, 5), _word(rng, 6)
    login = first + last
    area, exchange, line = _digits(rng, 3), _digits(rng, 3), _digits(rng, 4)
    phone = f"{area}-{exchange}-{line}"
    return {
        "name": f"{first} {last}",
        "login": login,
        "email": f"{login}@{_word(rng, 2)}.io",
        "phone": phone,
        "fax": phone[:-1] + str((int(line[-1]) + 1) % 10),
        "mobile": phone[:-2] + _digits(rng, 2),
        "city": _word(rng, 7),
    }


def ambiguous_corpus(n_entities: int = 300, seed: int = 0) -> tuple[RecordStore, dict[int, int]]:
    """One record per (entity, source) for SOURCES_PER_ENTITY random sources.

    Record ids are assigned in a shuffled order, so records of one entity
    and pairs of sources interleave through the index.  Returns (store,
    gold) with gold mapping rid -> entity number.
    """
    rng = random.Random(seed)
    rows: list[tuple[int, str, list[tuple[AttrOrigin, str]]]] = []
    for ent in range(n_entities):
        truth = _entity(rng)
        for source in sorted(rng.sample(sorted(SCHEMAS), SOURCES_PER_ENTITY)):
            items = []
            kept = list(SCHEMAS[source])
            if rng.random() < MISSING_RATE:
                # only a phone number goes missing: a record left with little
                # but look-alike values can fall below the merge threshold, and
                # then the gold partition is out of the engine's reach
                del kept[rng.randrange(3, len(kept))]
            for concept, attr in kept:
                value = truth[concept]
                if rng.random() < TYPO_RATE:
                    value = value[:-1]
                items.append((AttrOrigin(source=source, attr=attr), value))
            rows.append((ent, source, items))
    rng.shuffle(rows)
    store: RecordStore = {}
    gold: dict[int, int] = {}
    for rid, (ent, _source, items) in enumerate(rows, 1):
        store[rid] = basic_record(rid, items)
        gold[rid] = ent
    return store, gold
