"""Tests of the benchmark itself: tracing changes nothing, the generator is
deterministic, each workload loads the layers it was chosen for, and a
wrong result counts as a failed operation.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (puts src/ and bench/ on the path)
from ambiguous import SCHEMAS, ambiguous_corpus  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, external_gold, write_input  # noqa: E402

import entres.engine as engine  # noqa: E402
import entres.pair_index as pair_index  # noqa: E402
from entres.synth import clustered_corpus  # noqa: E402


def _resolve(store):
    return engine.ResolutionEngine(dict(store), engine.EngineConfig()).run()


def _operation(tmp_path, store, gold, tracer=None):
    input_path = tmp_path / "input.jsonl"
    write_input(store, input_path)
    return run.operation(input_path, tmp_path / "labels.jsonl", external_gold(gold), tracer)


@pytest.mark.parametrize(
    "corpus",
    [
        lambda: ambiguous_corpus(n_entities=40, seed=3),
        lambda: clustered_corpus(n_entities=4, records_per_entity=30, seed=3),
    ],
    ids=["ambiguous", "large_clusters"],
)
def test_traced_run_matches_untraced(corpus):
    store, _gold = corpus()
    plain = _resolve(store)
    originals = (engine.build_index, engine.verify_pair, pair_index.gram_jaccard)
    tracer = Tracer(engine.EngineConfig().delta)
    tracer.start_op()
    tracer.install()
    try:
        traced = _resolve(store)
    finally:
        tracer.uninstall()
    assert traced.labels == plain.labels
    assert traced.merge_history == plain.merge_history
    assert tracer.ops[0], "no span recorded"
    assert (engine.build_index, engine.verify_pair, pair_index.gram_jaccard) == originals


def test_ambiguous_generator_is_deterministic(tmp_path):
    def docs(seed):
        path = tmp_path / f"seed{seed}.jsonl"
        store, gold = ambiguous_corpus(n_entities=50, seed=seed)
        write_input(store, path)
        return path.read_text(), gold

    assert docs(5) == docs(5)
    assert docs(5) != docs(6)


def test_ambiguous_generator_mixes_sources():
    store, gold = ambiguous_corpus(n_entities=50, seed=1)
    sources = {o.source for rec in store.values() for f in rec.fields for o in f.origins}
    assert len(sources) >= 5 and sources <= set(SCHEMAS)
    assert len(set(gold.values())) == 50


def _traced_workload(tmp_path, name, seed=1):
    store, gold = WORKLOADS[name].make(seed)
    op = _operation(tmp_path, store, gold, Tracer(engine.EngineConfig().delta))
    assert op is not None and not op.problems, op
    return op.layer


def test_ambiguous_verifies_votes_and_runs_km(tmp_path):
    layer = _traced_workload(tmp_path, "ambiguous")
    assert layer["matching.verify_calls"] > 0
    assert layer["schema_vote.promotions"] > 0
    assert layer["matching.km_nonempty"] > 0


@pytest.mark.parametrize("name", ["clustered", "large_clusters"])
def test_clustered_workloads_never_verify(tmp_path, name):
    layer = _traced_workload(tmp_path, name)
    assert layer["matching.verify_calls"] == 0
    assert layer["schema_vote.predictions"] == 0
    assert layer["engine.merges"] == layer["engine.direct_merges"] > 0


def test_wrong_labels_fail_the_operation(tmp_path):
    store, gold = ambiguous_corpus(n_entities=20, seed=2)
    good = _operation(tmp_path, store, gold)
    assert good is not None and good.problems == [] and good.f1 == 1.0
    wrong = dict(gold)
    wrong[min(wrong)] = -1  # move one record out of its entity
    bad = _operation(tmp_path, store, wrong)
    assert bad is not None and bad.problems
