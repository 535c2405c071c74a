import ast
import codecs
import gc
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from entres.cli import (
    InputError,
    _build_parser,
    _config,
    evaluate,
    load_labels,
    main,
    parse_input,
)
from entres.engine import EngineConfig, ResolutionEngine, run
from entres.pair_index import build_index
from entres.records import AttrOrigin, basic_record
from entres.schema_vote import SchemaVoteLedger
from entres.synth import clustered_corpus
from tests.conftest import CUSTOMERS, CUSTOMERS_GOLD, CUSTOMERS_INDEX, lookalike_store

# four unrelated people whose only shared "values" are blank or null phones
BLANK_AND_NULL = Path(__file__).resolve().parent / "data" / "blank_and_null.jsonl"
README = Path(__file__).resolve().parent.parent / "README.md"


# valid JSON that is not an object
NOT_OBJECTS = [[1, 2], "x", 5, None, True]

# a JSON value nested far past any recursion limit the decoder could be given
DEEP = "[" * 100_000 + "]" * 100_000


def write_jsonl(path, docs):
    path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")


def store_docs(store):
    """The input documents of a store of basic records, in record id order,
    so that parsing them gives back the same record ids."""
    docs = []
    for rid in sorted(store):
        origins = [next(iter(f.origins)) for f in store[rid].fields]
        docs.append({
            "id": f"r{rid}",
            "source": origins[0].source,
            "fields": [{"attr": o.attr, "values": f.values}
                       for o, f in zip(origins, store[rid].fields)],
        })
    return docs


def doc(ext_id, source="s1", **attrs):
    return {
        "id": ext_id,
        "source": source,
        "fields": [{"attr": k, "values": v if isinstance(v, list) else [v]}
                   for k, v in attrs.items()],
    }


class TestParseInput:
    def test_customer_file(self):
        parsed = parse_input(str(CUSTOMERS))
        assert len(parsed.store) == 6
        assert parsed.ids[1] == "r1"
        assert parsed.ids[6] == "r6"
        # values arrive normalized
        assert parsed.store[6].fields[4].values == ["electronic"]

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "source": "s", "fields": [{"attr": "x", "values": ["1"]}]}\n{oops\n')
        with pytest.raises(InputError, match="^line 2: invalid JSON"):
            parse_input(str(p))

    def test_missing_key_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [{"id": "a", "fields": []}])
        with pytest.raises(InputError, match="line 1"):
            parse_input(str(p))

    @pytest.mark.parametrize("fields", [[], {}, "name"], ids=["empty", "object", "string"])
    def test_record_without_field_list_rejected(self, tmp_path, fields):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [{"id": "a", "source": "s", "fields": fields}])
        with pytest.raises(InputError, match="^line 1: record needs at least one field$"):
            parse_input(str(p))

    def test_field_entry_without_values_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [{"id": "a", "source": "s", "fields": [{"attr": "x"}]}])
        with pytest.raises(InputError, match="^line 1: malformed field entry: 'values'$"):
            parse_input(str(p))

    def test_duplicate_attribute_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [{"id": "a", "source": "s",
                         "fields": [{"attr": "x", "values": ["1"]},
                                    {"attr": "x", "values": ["2"]}]}])
        with pytest.raises(InputError, match="repeated"):
            parse_input(str(p))

    def test_duplicate_external_id_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [doc("a", x="1"), doc("a", x="2")])
        with pytest.raises(InputError, match="duplicate record id"):
            parse_input(str(p))

    def test_empty_field_values_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [{"id": "a", "source": "s",
                         "fields": [{"attr": "x", "values": []}]}])
        with pytest.raises(InputError, match="at least one value"):
            parse_input(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("\n\n")
        with pytest.raises(InputError, match="no records"):
            parse_input(str(p))

    def test_values_deduplicated_after_normalization(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [doc("a", name=["Bush", "  bush "])])
        parsed = parse_input(str(p))
        assert parsed.store[1].fields[0].values == ["bush"]

    def test_blank_and_null_values_dropped(self):
        parsed = parse_input(str(BLANK_AND_NULL))
        for rec in parsed.store.values():
            assert [o.attr for fld in rec.fields for o in fld.origins] in (["name"], ["customer"])

    def test_blank_values_dropped_within_field(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [doc("a", name=["Bush", " ", None, ""], phone=[None])])
        assert [f.values for f in parse_input(str(p)).store[1].fields] == [["bush"]]

    def test_wide_field_keeps_first_occurrence_order(self, tmp_path):
        # 1,000 distinct values, each repeated in another case and padded,
        # with blanks and nulls between them
        p = tmp_path / "r.jsonl"
        words = [f"v{k:04d}" for k in range(999, -1, -1)]
        raw = [x for w in words for x in (w, None, f" {w.upper()} ", "", w)]
        write_jsonl(p, [doc("a", name=raw)])
        assert parse_input(str(p)).store[1].fields[0].values == words

    def test_record_without_values_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [doc("a", name="x"), doc("b", name=" ", phone=[None, "\t"])])
        with pytest.raises(InputError, match="line 2: record has no value"):
            parse_input(str(p))

    def test_numbers_and_booleans_keep_json_text(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"id": "a", "source": "s", "fields": ['
                     '{"attr": "n", "values": [1, 1.5, true, false, 1.0, "1"]}]}\n')
        # 1 and "1" are one value; 1.0 keeps its own text
        assert parse_input(str(p)).store[1].fields[0].values == ["1", "1.5", "true", "false", "1.0"]

    def test_boolean_reads_as_json_text_in_every_position(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"id": true, "source": false, "fields": ['
                     '{"attr": true, "values": [false]}, {"attr": 1.5, "values": [true]}]}\n')
        parsed = parse_input(str(p))
        assert parsed.ids[1] == "true"
        fields = parsed.store[1].fields
        assert [set(f.origins) for f in fields] == [{AttrOrigin("false", "true")},
                                                   {AttrOrigin("false", "1.5")}]
        assert [f.values for f in fields] == [["false"], ["true"]]

    @pytest.mark.parametrize("value, kind", [(["p", "q"], "a list"), ({"a": 1}, "an object"),
                                             ([], "a list")])
    def test_list_or_object_value_rejected(self, tmp_path, value, kind):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [doc("a", name="x"),
                        {"id": "b", "source": "s1",
                         "fields": [{"attr": "tags", "values": ["ok", value]}]}])
        with pytest.raises(InputError, match=f"line 2: field 'tags' holds {kind}"):
            parse_input(str(p))

    @pytest.mark.parametrize("value, kind", [(None, "null"), (["x"], "a list"), ({"a": 1}, "an object")])
    @pytest.mark.parametrize("key", ["id", "source", "attr"])
    def test_null_list_or_object_id_source_or_attr_rejected(self, tmp_path, key, value, kind):
        bad = doc("b", name="x")
        if key == "attr":
            bad["fields"][0]["attr"] = value
        else:
            bad[key] = value
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [doc("a", name="x"), bad])
        with pytest.raises(InputError, match=f"line 2: key '{key}' holds {kind}"):
            parse_input(str(p))

    @pytest.mark.parametrize("value", NOT_OBJECTS)
    @pytest.mark.parametrize("where", ["record", "field entry"])
    def test_non_object_record_or_field_entry_rejected(self, tmp_path, where, value):
        bad = value if where == "record" else {"id": "b", "source": "s1", "fields": [value]}
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [doc("a", name="x"), bad])
        with pytest.raises(InputError, match=f"line 2: a {where} must be a JSON object$"):
            parse_input(str(p))

    def test_attributes_differing_only_by_case_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [{"id": "a", "source": "s",
                         "fields": [{"attr": "Name", "values": ["bush"]},
                                    {"attr": "name", "values": ["bush"]}]}])
        with pytest.raises(InputError, match="line 1: attribute 'name' repeated"):
            parse_input(str(p))

    def test_attribute_names_keep_their_case(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [doc("a", Name="Bush"), doc("b", name="Bush")])
        store = parse_input(str(p)).store
        assert store[1].fields[0].origins == {AttrOrigin("s1", "Name")}
        assert store[2].fields[0].origins == {AttrOrigin("s1", "name")}

    def test_fields_of_one_source_attribute_share_one_origin_set(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [doc("a", name="bush", city="la"), doc("b", city="la", name="jon"),
                        doc("c", name="bush")])
        store = parse_input(str(p)).store
        names = [store[1].fields[0], store[2].fields[1], store[3].fields[0]]
        assert all(f.origins is names[0].origins for f in names)
        assert names[0].origins == {AttrOrigin("s1", "name")}
        assert store[1].fields[1].origins is store[2].fields[0].origins

    def test_origin_sets_kept_apart_by_case_and_by_source(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [doc("a", Name="bush"), doc("b", name="bush"), doc("c", "s2", name="bush")])
        origins = [rec.fields[0].origins for rec in parse_input(str(p)).store.values()]
        assert origins == [{AttrOrigin("s1", "Name")}, {AttrOrigin("s1", "name")},
                           {AttrOrigin("s2", "name")}]

    def test_number_and_boolean_origins_share_their_text(self, tmp_path):
        # 7 and "7", true and "true" are one text each, so one origin set
        p = tmp_path / "r.jsonl"
        p.write_text('{"id": "a", "source": 7, "fields": [{"attr": true, "values": ["x"]},'
                     ' {"attr": 1.50, "values": ["y"]}]}\n'
                     '{"id": "b", "source": "7", "fields": [{"attr": "true", "values": ["x"]},'
                     ' {"attr": "1.50", "values": ["y"]}]}\n')
        store = parse_input(str(p)).store
        assert [f.origins for f in store[1].fields] == [{AttrOrigin("7", "true")},
                                                       {AttrOrigin("7", "1.50")}]
        assert all(a.origins is b.origins for a, b in zip(store[1].fields, store[2].fields))

    def test_parsed_fields_take_few_bytes(self, tmp_path):
        # fields that share their origin set keep only their values and
        # themselves: about 280 bytes a field, where a set per field kept
        # about 620
        store, _ = clustered_corpus(25, 8, seed=0)
        p = tmp_path / "r.jsonl"
        write_jsonl(p, store_docs(store))
        n_fields = sum(rec.width for rec in store.values())
        del store
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parsed = parse_input(str(p))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(parsed.store) == 200
        assert kept / n_fields < 400


def brute_force_eval(labels, gold):
    tp = fp = fn = 0
    for a, b in itertools.combinations(sorted(gold), 2):
        same_emitted = labels[a] == labels[b]
        same_gold = gold[a] == gold[b]
        tp += same_emitted and same_gold
        fp += same_emitted and not same_gold
        fn += same_gold and not same_emitted
    return tp, fp, fn


class TestEvaluate:
    def test_perfect_labels(self):
        gold = {"a": "e1", "b": "e1", "c": "e2"}
        report = evaluate(gold, gold)
        assert report.precision == report.recall == report.f1 == 1.0
        assert report.true_pairs == report.gold_pairs == 1

    def test_all_singletons(self):
        labels = {"a": "a", "b": "b", "c": "c"}
        gold = {"a": "e1", "b": "e1", "c": "e2"}
        report = evaluate(labels, gold)
        assert report.emitted_pairs == 0
        assert report.precision == report.recall == report.f1 == 0.0

    def test_one_big_cluster(self):
        labels = {"a": "x", "b": "x", "c": "x"}
        gold = {"a": "e1", "b": "e1", "c": "e2"}
        report = evaluate(labels, gold)
        assert report.precision == pytest.approx(1 / 3)
        assert report.recall == 1.0

    def test_gold_without_a_same_entity_pair_scores_zero(self):
        # with no gold pair to find, even labels equal to the gold score 0.0
        gold = {"a": "e1", "b": "e2"}
        report = evaluate(gold, gold)
        assert report.gold_pairs == report.emitted_pairs == report.true_pairs == 0
        assert report.precision == report.recall == report.f1 == 0.0

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError, match="without labels"):
            evaluate({"a": "x"}, {"a": "e1", "b": "e1"})

    def test_empty_gold_rejected(self):
        with pytest.raises(InputError, match="^empty ground truth$"):
            evaluate({"a": "a"}, {})

    def test_matches_pair_enumeration_oracle(self):
        rng = random.Random(202)
        for trial in range(30):
            n = rng.randint(2, 40)
            keys = [f"k{i}" for i in range(n)]
            labels = {k: rng.randint(0, 6) for k in keys}
            gold = {k: rng.randint(0, 4) for k in keys}
            tp, fp, fn = brute_force_eval(labels, gold)
            report = evaluate(labels, gold)
            assert report.true_pairs == tp
            assert report.emitted_pairs == tp + fp
            assert report.gold_pairs == tp + fn
            if tp + fp:
                assert report.precision == pytest.approx(tp / (tp + fp))
            if tp + fn:
                assert report.recall == pytest.approx(tp / (tp + fn))


class TestLoadLabels:
    def test_invalid_json_reports_line(self, tmp_path):
        # the blank line is skipped but still counted
        p = tmp_path / "gold.jsonl"
        p.write_text('{"id": "a", "entity": "a"}\n\n{oops\n')
        with pytest.raises(InputError, match="^line 3: invalid JSON"):
            load_labels(str(p))

    def test_boolean_and_number_ids_read_as_input_ids(self, tmp_path):
        p = tmp_path / "gold.jsonl"
        write_jsonl(p, [{"id": True, "entity": False}, {"id": 1.5, "entity": "e"}])
        assert load_labels(str(p)) == {"true": "false", "1.5": "e"}

    def test_gold_file_reusing_boolean_input_id(self, tmp_path, capsys):
        records, gold = tmp_path / "r.jsonl", tmp_path / "gold.jsonl"
        write_jsonl(records, [doc(True, name="bush"), doc("b", name="jon")])
        write_jsonl(gold, [{"id": True, "entity": True}, {"id": "b", "entity": "b"}])
        assert main(["--input", str(records), "--out", str(tmp_path / "l.jsonl"),
                     "--ground-truth", str(gold)]) == 0
        assert json.loads(capsys.readouterr().out)["gold_pairs"] == 0

    @pytest.mark.parametrize("value, kind", [(None, "null"), (["x"], "a list"), ({"a": 1}, "an object")])
    @pytest.mark.parametrize("key", ["id", "entity"])
    def test_null_list_or_object_rejected_with_line(self, tmp_path, key, value, kind):
        bad = {"id": "b", "entity": "b"}
        bad[key] = value
        p = tmp_path / "gold.jsonl"
        write_jsonl(p, [{"id": "a", "entity": "a"}, bad])
        with pytest.raises(InputError, match=f"line 2: key '{key}' holds {kind}"):
            load_labels(str(p))

    @pytest.mark.parametrize("value", NOT_OBJECTS)
    def test_non_object_line_rejected(self, tmp_path, value):
        p = tmp_path / "gold.jsonl"
        write_jsonl(p, [{"id": "a", "entity": "a"}, value])
        with pytest.raises(InputError, match="line 2: a label line must be a JSON object$"):
            load_labels(str(p))

    @pytest.mark.parametrize("first, again", [("a", "a"), (True, "true"), (1, "1")])
    @pytest.mark.parametrize("entity", ["x", "y"])
    def test_repeated_id_rejected_with_line(self, tmp_path, first, again, entity):
        p = tmp_path / "gold.jsonl"
        write_jsonl(p, [{"id": first, "entity": "x"}, {"id": "b", "entity": "b"},
                        {"id": again, "entity": entity}])
        with pytest.raises(InputError, match=f"line 3: duplicate record id '{again}'"):
            load_labels(str(p))


# one line of each file kind, with NUMBER standing for a JSON number
NUMBER_LINES = {
    "records": '{"id": "rNUMBER", "source": "s", "fields": [{"attr": "n", "values": [NUMBER]}]}',
    "labels": '{"id": NUMBER, "entity": "e"}',
}


def read_numbers(kind, path):
    """The number of each line of a file written from NUMBER_LINES, as read."""
    if kind == "records":
        return [rec.fields[0].values[0] for rec in parse_input(path).store.values()]
    return list(load_labels(path))


@pytest.mark.parametrize("kind", sorted(NUMBER_LINES))
class TestJsonNumbers:
    def write(self, path, kind, numbers):
        path.write_text("".join(NUMBER_LINES[kind].replace("NUMBER", n) + "\n" for n in numbers))

    def test_float_keeps_its_json_text(self, tmp_path, kind):
        # 1e5 and 100000.0 are one float but two texts; 1.50 keeps its zero
        p = tmp_path / "f.jsonl"
        self.write(p, kind, ["1e5", "100000.0", "1.50"])
        assert read_numbers(kind, str(p)) == ["1e5", "100000.0", "1.50"]

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constant_rejected_with_line(self, tmp_path, kind, constant):
        p = tmp_path / "f.jsonl"
        self.write(p, kind, ["1", constant])
        with pytest.raises(InputError, match=f"^line 2: invalid JSON \\({constant} is not a JSON number\\)$"):
            read_numbers(kind, str(p))


class TestMain:
    def test_resolves_customer_file(self, tmp_path, capsys):
        out = tmp_path / "labels.jsonl"
        code = main(["--input", str(CUSTOMERS), "--out", str(out)])
        assert code == 0
        labels = load_labels(str(out))
        assert set(labels) == {f"r{i}" for i in range(1, 7)}
        assert labels["r1"] == labels["r2"] == labels["r4"] == labels["r6"]
        assert labels["r3"] == labels["r5"] != labels["r1"]

    def test_labels_to_stdout_by_default(self, capsys):
        assert main(["--input", str(CUSTOMERS)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 6
        assert all(set(l) == {"id", "entity"} for l in lines)

    def test_ground_truth_report(self, tmp_path):
        out = tmp_path / "labels.jsonl"
        code = main(["--input", str(CUSTOMERS), "--out", str(out),
                     "--ground-truth", str(CUSTOMERS_GOLD)])
        assert code == 0

    def test_perfect_scores_on_customer_gold(self, capsys, tmp_path):
        out = tmp_path / "labels.jsonl"
        main(["--input", str(CUSTOMERS), "--out", str(out),
              "--ground-truth", str(CUSTOMERS_GOLD)])
        report = json.loads(capsys.readouterr().out.strip())
        assert report["precision"] == report["recall"] == report["f1"] == 1.0

    def test_output_round_trips_as_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "labels.jsonl"
        main(["--input", str(CUSTOMERS), "--out", str(out)])
        main(["--input", str(CUSTOMERS), "--out", str(tmp_path / "again.jsonl"),
              "--ground-truth", str(out)])
        report = json.loads(capsys.readouterr().out.strip())
        assert report["f1"] == 1.0

    def test_dump_index(self, tmp_path, capsys):
        dump = tmp_path / "index.jsonl"
        main(["--input", str(CUSTOMERS), "--out", str(tmp_path / "l.jsonl"),
              "--dump-index", str(dump)])
        rows = [json.loads(l) for l in dump.read_text().splitlines()]
        assert rows
        assert [r["pid"] for r in rows] == list(range(1, len(rows) + 1))
        assert all(r["sim"] >= 0.5 for r in rows)
        # a change to how the index is kept must not change what it holds
        assert dump.read_text() == CUSTOMERS_INDEX.read_text()

    def test_emit_matchings_file_written(self, tmp_path, capsys):
        m = tmp_path / "matchings.jsonl"
        main(["--input", str(CUSTOMERS), "--out", str(tmp_path / "l.jsonl"),
              "--emit-matchings", str(m)])
        assert m.exists()  # no promotions here, so the file is empty
        assert m.read_text() == ""

    def test_emit_matchings_one_row_per_distinct_pair(self, tmp_path, capsys, monkeypatch):
        store = lookalike_store(20, 0)
        p, m = tmp_path / "lookalike.jsonl", tmp_path / "matchings.jsonl"
        write_jsonl(p, store_docs(store))
        assert main(["--input", str(p), "--out", str(tmp_path / "l.jsonl"),
                     "--emit-matchings", str(m)]) == 0
        per_key = set()  # one promotion per (attribute, counterpart schema) key
        try_promote = SchemaVoteLedger.try_promote

        def recorded(ledger, a, counterpart):
            promo = try_promote(ledger, a, counterpart)
            if promo is not None:
                per_key.add(promo)
            return promo

        monkeypatch.setattr(SchemaVoteLedger, "try_promote", recorded)
        promoted = run(dict(store)).promoted
        # some pair was promoted from both of its attributes
        assert len({promo.as_pair() for promo in per_key}) < len(per_key)
        expected = [
            {"source_a": promo.a.source, "attr_a": promo.a.attr,
             "source_b": promo.b.source, "attr_b": promo.b.attr,
             "votes": promo.votes, "p_error_upper": promo.p_error_upper}
            for promo in promoted
        ]
        assert [json.loads(line) for line in m.read_text().splitlines()] == expected

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(["--input", str(tmp_path / "nope.jsonl")]) == 1
        assert "entres:" in capsys.readouterr().err

    def test_non_utf8_input_fails_with_line(self, tmp_path, capsys):
        # "café" in Latin-1 on the third line, after a blank one
        p = tmp_path / "latin1.jsonl"
        good = CUSTOMERS.read_bytes().splitlines()[0]
        p.write_bytes(good + b"\n\n" + good.replace(b'"r1"', b'"caf\xe9"') + b"\n")
        assert main(["--input", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entres: line 3: not valid UTF-8 (")

    def test_non_utf8_ground_truth_fails_with_line(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_bytes(CUSTOMERS_GOLD.read_bytes() + b'{"id": "r\xe9", "entity": "r1"}\n')
        n_lines = len(CUSTOMERS_GOLD.read_bytes().splitlines())
        code = main(["--input", str(CUSTOMERS), "--out", str(tmp_path / "labels.jsonl"),
                     "--ground-truth", str(gold)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"entres: line {n_lines + 1}: not valid UTF-8 (")

    def test_input_opening_with_a_byte_order_mark(self, tmp_path, capsys):
        p = tmp_path / "bom.jsonl"
        p.write_bytes(codecs.BOM_UTF8 + CUSTOMERS.read_bytes())
        assert main(["--input", str(CUSTOMERS)]) == 0
        expected = capsys.readouterr().out
        assert main(["--input", str(p)]) == 0
        assert capsys.readouterr().out == expected

    def test_ground_truth_opening_with_a_byte_order_mark(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_bytes(codecs.BOM_UTF8 + CUSTOMERS_GOLD.read_bytes())
        reports = []
        for path in (CUSTOMERS_GOLD, gold):
            assert main(["--input", str(CUSTOMERS), "--out", str(tmp_path / "labels.jsonl"),
                         "--ground-truth", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[1])["f1"] == 1.0

    def test_byte_order_mark_after_the_start_rejected_with_line(self, tmp_path, capsys):
        p = tmp_path / "bom.jsonl"
        lines = CUSTOMERS.read_bytes().splitlines(keepends=True)
        p.write_bytes(lines[0] + codecs.BOM_UTF8 + b"".join(lines[1:]))
        assert main(["--input", str(p)]) == 1
        assert capsys.readouterr().err.startswith("entres: line 2: invalid JSON (")

    def test_flags_alone_give_the_default_config(self):
        assert _config(_build_parser().parse_args(["--input", "x"])) == EngineConfig()

    def test_one_flag_per_threshold_with_its_type_and_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        for flag in ("--delta", "--xi", "--q", "--rho", "--prior"):
            assert f"{flag} " in help_text
        parser = _build_parser()
        actions = {a.dest: (a.type, a.default) for a in parser._actions}
        assert {k: actions[k] for k in ("delta", "xi", "q", "rho", "prior")} == {
            "delta": (float, 0.5), "xi": (float, 0.5), "q": (int, 2),
            "rho": (float, 0.6), "prior": (float, 0.8),
        }
        args = parser.parse_args(["--input", "x", "--delta", "0.7", "--q", "3", "--prior", "0.9"])
        assert _config(args) == EngineConfig(delta=0.7, q=3, prior=0.9)

    @pytest.mark.parametrize("flag", ["--out", "--dump-index", "--emit-matchings"])
    def test_unwritable_output_fails_cleanly(self, tmp_path, capsys, flag):
        assert main(["--input", str(CUSTOMERS), flag, str(tmp_path / "missing" / "x.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("entres: [Errno 2] ") and err.count("\n") == 1

    def test_outputs_written_before_an_unwritable_one_stay(self, tmp_path, capsys):
        # --out is written before --emit-matchings, and is kept when that fails
        out = tmp_path / "labels.jsonl"
        missing = tmp_path / "missing" / "x.jsonl"
        assert main(["--input", str(CUSTOMERS), "--out", str(out), "--emit-matchings", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("entres: [Errno 2] ")
        assert set(load_labels(str(out))) == {f"r{i}" for i in range(1, 7)}

    @pytest.mark.parametrize(
        "gold_text",
        [None, '{"id": "r1"}\n', "{oops\n", f'{{"id": {DEEP}}}\n', "\n \n"],
        ids=["missing", "no-entity", "bad-json", "deep-json", "no-labels"],
    )
    def test_bad_ground_truth_fails_before_resolving(self, tmp_path, capsys, monkeypatch, gold_text):
        gold, out = tmp_path / "gold.jsonl", tmp_path / "labels.jsonl"
        if gold_text is not None:
            gold.write_text(gold_text)
        monkeypatch.setattr(ResolutionEngine, "run", lambda self: pytest.fail("resolved"))
        for labels_to in ([], ["--out", str(out)]):
            assert main(["--input", str(CUSTOMERS), "--ground-truth", str(gold), *labels_to]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.startswith("entres: ") and captured.err.count("\n") == 1

    def test_deeply_nested_input_fails_with_line(self, tmp_path, capsys):
        p = tmp_path / "deep.jsonl"
        good = CUSTOMERS.read_text().splitlines()[0]
        p.write_text(f'{good}\n{{"id": "x", "source": "s", "fields": [{{"attr": "a", "values": {DEEP}}}]}}\n')
        assert main(["--input", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entres: line 2: invalid JSON (") and captured.err.count("\n") == 1

    def test_gold_naming_unknown_records_fails_cleanly(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"id": "r1", "entity": "e"}, {"id": "zz", "entity": "e"}])
        assert main(["--input", str(CUSTOMERS), "--out", str(tmp_path / "l.jsonl"),
                     "--ground-truth", str(gold)]) == 1
        assert capsys.readouterr().err == "entres: gold records without labels: ['zz']\n"

    def test_value_error_while_resolving_propagates(self, monkeypatch):
        # a bug, not an input error: it keeps its traceback
        def broken(self):
            raise ValueError("resolver bug")

        monkeypatch.setattr(ResolutionEngine, "run", broken)
        with pytest.raises(ValueError, match="resolver bug"):
            main(["--input", str(CUSTOMERS)])

    def test_bad_delta_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--input", str(CUSTOMERS), "--delta", "1.5"])
        assert exc.value.code == 2

    def test_blank_and_null_values_do_not_merge(self, capsys):
        assert main(["--input", str(BLANK_AND_NULL)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert {l["id"]: l["entity"] for l in lines} == {k: k for k in "abcd"}

    def test_dump_index_is_the_resolved_index(self, tmp_path, capsys):
        dump = tmp_path / "index.jsonl"
        main(["--input", str(CUSTOMERS), "--out", str(tmp_path / "l.jsonl"),
              "--xi", "0.6", "--q", "3", "--dump-index", str(dump)])
        buf = io.StringIO()
        build_index(parse_input(str(CUSTOMERS)).store, 0.6, 3).dump_jsonl(buf)
        assert dump.read_text() == buf.getvalue()

    def test_single_record_file(self, tmp_path, capsys):
        p = tmp_path / "one.jsonl"
        write_jsonl(p, [doc("only", name="Bush", phone="831-432")])
        m, dump = tmp_path / "matchings.jsonl", tmp_path / "index.jsonl"
        assert main(["--input", str(p), "--emit-matchings", str(m), "--dump-index", str(dump)]) == 0
        captured = capsys.readouterr()
        assert [json.loads(l) for l in captured.out.splitlines()] == [{"id": "only", "entity": "only"}]
        assert captured.err == ""
        assert m.read_text() == "" and dump.read_text() == ""


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on the test's import path, so nothing this
    process has imported is in its ``sys.modules``."""
    path = os.pathsep.join(p for p in sys.path if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )


class TestImports:
    def test_library_import_leaves_the_command_line_out(self):
        script = "import sys, entres; print(sorted({'entres.cli', 'argparse'} & set(sys.modules)))"
        out = run_python("-c", script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("module", ["entres", "entres.cli"])
    def test_module_runs_clean_in_dev_mode(self, module):
        # -W error turns a warning, such as runpy's "found in sys.modules
        # after import of package", into a failed run
        out = run_python(
            "-X", "dev", "-W", "error", "-m", module,
            "--input", str(CUSTOMERS), "--ground-truth", str(CUSTOMERS_GOLD),
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stderr.splitlines()[-1])["f1"] == 1.0

    def test_readme_library_example_prints_its_entities(self):
        # the first python block under "## Library use", run as written
        section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        out = run_python("-X", "dev", "-W", "error", "-c", code)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "{1: {1, 2}}\n"

    def test_readme_cites_only_tests_that_exist(self):
        # each backticked tests/<file>.py::Name[::name] in README names a
        # class, method or function that the file defines, and each promise
        # (a bullet of the text before "## Install") cites at least one
        text = README.read_text(encoding="utf-8")
        node_id = re.compile(r"(tests/\w+\.py)::(\w+)(?:::(\w+))?")
        cited = re.findall(r"`(tests/[^`]*::[^`]*)`", text)
        assert cited
        for citation in cited:
            match = node_id.fullmatch(citation)
            assert match, f"not a test node id: {citation}"
            path, name, member = match.groups()
            tree = ast.parse((README.parent / path).read_text(encoding="utf-8"))
            defined = {node.name: node for node in tree.body
                       if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
            assert name in defined, f"no {name} in {path}"
            if member:
                assert isinstance(defined[name], ast.ClassDef), f"{name} in {path} is not a class"
                methods = {node.name for node in defined[name].body if isinstance(node, ast.FunctionDef)}
                assert member in methods, f"no {name}::{member} in {path}"
        promises = re.split(r"\n(?=- )", text.split("\n## Install\n", 1)[0])[1:]
        assert promises
        for promise in promises:
            assert any(node_id.search(c) for c in re.findall(r"`([^`]*)`", promise)), promise


blank_values = st.lists(st.sampled_from(["", " ", "\t\n", "\u00a0", None]), min_size=1, max_size=3)


@settings(max_examples=25, deadline=None)
@given(
    names=st.lists(st.sampled_from(["bush", "bushe", "chicago", "chicag", "jon", "john"]),
                   min_size=1, max_size=8),
    extra=st.lists(st.tuples(st.integers(0, 7), blank_values), max_size=6),
)
def test_blank_only_fields_leave_labels_unchanged(names, extra):
    """Adding blank-only or null-only fields to any input file leaves the
    labels unchanged."""
    docs = [doc(f"r{i}", source=f"s{i % 2}", name=n, city=n[::-1]) for i, n in enumerate(names)]
    padded = json.loads(json.dumps(docs))
    for k, (target, values) in enumerate(extra):
        padded[target % len(padded)]["fields"].append({"attr": f"blank{k}", "values": values})
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for i, records in enumerate((docs, padded)):
            path = Path(tmp) / f"in{i}.jsonl"
            write_jsonl(path, records)
            assert main(["--input", str(path), "--out", str(Path(tmp) / f"out{i}.jsonl")]) == 0
            outputs.append(load_labels(str(Path(tmp) / f"out{i}.jsonl")))
    assert outputs[0] == outputs[1]


@st.composite
def spelled(draw, words):
    """One of ``words`` in mixed case, with its accents composed or
    decomposed and surrounding spaces: never blank once normalized."""
    word = draw(st.sampled_from(words))
    word = "".join(c.upper() if draw(st.booleans()) else c for c in word)
    word = unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), word)
    pad = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])
    return draw(pad) + word + draw(pad)


# each record is one source's attributes, distinct ignoring case, and their values
mixed_stores = st.lists(
    st.tuples(
        st.sampled_from(["crm", "web", "billing"]),
        st.lists(st.tuples(spelled(["name", "email", "city"]),
                           spelled(["bush", "bush@gmail", "café", "cafe", "zoë", "chicago", "chicag"])),
                 min_size=1, max_size=3, unique_by=lambda item: item[0].strip().casefold()),
    ),
    min_size=2, max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(records=mixed_stores)
@example(records=[("crm", [("name", "BUSH"), ("email", "BUSH@GMAIL")]),
                  ("web", [("name", "bush"), ("email", "bush@gmail")])])
def test_library_and_command_line_read_values_alike(records):
    """A store built with ``basic_record`` and the same store written as
    JSON lines and parsed resolve to the same partition."""
    store = {rid: basic_record(rid, [(AttrOrigin(source, attr), v) for attr, v in items])
             for rid, (source, items) in enumerate(records, 1)}
    docs = [{"id": f"r{rid}", "source": source,
             "fields": [{"attr": attr, "values": [v]} for attr, v in items]}
            for rid, (source, items) in enumerate(records, 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.jsonl"
        write_jsonl(path, docs)
        parsed = parse_input(str(path))
    by_library = run(store).entities
    by_command_line = ResolutionEngine(parsed.store).run().entities
    assert sorted(map(sorted, by_library.values())) == sorted(map(sorted, by_command_line.values()))
