"""The paper's two outputs, pinned on six look-alike corpora
(``lookalike_store(30, seed)``, seeds 0-5): the entity partition with the
merges per iteration, and the schema matching, as the promoted attribute
pairs with their votes in promotion order, plus the contradicting votes.

The other tier-1 tests pin only promotion counts, so a change to how
Kuhn-Munkres breaks ties between equally scored field pairs, which moves
which pairs are promoted, with how many votes, and how many votes
contradict, would pass them all.  Only integers and text are pinned, no
float, so the file holds under any hash seed and on every supported
Python.  A change that means to move these outputs re-records the file,
from the repository root, and says which outputs moved::

    PYTHONPATH=src python -m tests.test_lookalike_pin
"""

import json
from pathlib import Path

import pytest

from entres.engine import ResolutionEngine
from tests.conftest import lookalike_store

# one JSON line per seed and output: {"seed", "output", "value"}
PIN = Path(__file__).resolve().parent / "data" / "lookalike_outputs.jsonl"
SEEDS = range(6)


def outputs(seed: int) -> dict:
    """What the run of ``lookalike_store(30, seed)`` decides, in JSON types."""
    engine = ResolutionEngine(lookalike_store(30, seed))
    result = engine.run()
    return {
        "partition": sorted(sorted(members) for members in result.entities.values()),
        "merge_history": list(result.merge_history),
        "promoted": [[*p.a, *p.b, p.votes] for p in result.promoted],
        "contradictions": [[*a, *b] for a, b in engine.ledger.contradictions],
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_pin(seed):
    rows = map(json.loads, PIN.read_text(encoding="utf-8").splitlines())
    assert outputs(seed) == {row["output"]: row["value"] for row in rows if row["seed"] == seed}


if __name__ == "__main__":
    rows = [
        {"seed": seed, "output": name, "value": value}
        for seed in SEEDS
        for name, value in outputs(seed).items()
    ]
    PIN.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
