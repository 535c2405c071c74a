"""Batch surface: JSON-lines ingestion, resolution, label emission and
pairwise evaluation.

Input format: one record document per line,
``{"id": ..., "source": ..., "fields": [{"attr": ..., "values": [...]}]}``.
Output: one ``{"id": ..., "entity": ...}`` line per input record, where
the entity is the id of the cluster's representative record.  Ground
truth files use the same shape, so outputs and gold files are
interchangeable.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from typing import Hashable, Iterator, Mapping

from .engine import EngineConfig, ResolutionEngine
from .pair_index import RecordStore
from .records import AttrOrigin, Field, SuperRecord, normalize_value


class InputError(ValueError):
    """A malformed input file (the message names the line), or gold naming unlabeled records."""


@dataclass
class ParsedRecords:
    store: RecordStore  # internal integer rid -> record
    ids: dict[int, str]  # rid -> external id


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    true_pairs: int
    emitted_pairs: int
    gold_pairs: int


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


# a float keeps its JSON text, so 1e5 and 100000.0 stay two values
_DECODER = json.JSONDecoder(parse_float=str, parse_constant=_reject_constant)


def _json_lines(path: str) -> Iterator[tuple[int, object]]:
    """``(line number, document)`` for each non-blank line of ``path``.

    Lines end where they do in text mode (at a line feed, a carriage
    return or both), and each is decoded as UTF-8 on its own, so a byte
    sequence that is not UTF-8 is reported with its line number.  A
    byte-order mark that opens the file, as "UTF-8 with BOM" exports
    write, is skipped; anywhere else it is a character of its line."""
    with open(path, "rb") as fp:
        for lineno, raw in enumerate((line for chunk in fp for line in chunk.splitlines()), 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(
                    f"line {lineno}: not valid UTF-8 ({exc.reason} at byte {exc.start + 1})"
                ) from exc
            if lineno == 1:
                line = line.removeprefix("\ufeff")
            if not line.strip():
                continue
            try:
                doc = _DECODER.decode(line)
            except (ValueError, RecursionError) as exc:  # bad JSON, a rejected constant or deep nesting
                why = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise InputError(f"line {lineno}: invalid JSON ({why})") from exc
            yield lineno, doc


def _object(value: object, what: str, where: str) -> dict:
    """``value`` if it is a JSON object; anything else is rejected."""
    if not isinstance(value, dict):
        raise InputError(f"{where}{what} must be a JSON object")
    return value


def _text(value: object, what: str, where: str, *what_args: object) -> str:
    """A string as is, an integer as ``str()`` of it and a boolean as its
    JSON text ``true`` or ``false``; anything else has no text to compare
    and is rejected.  A float read from a file is already its JSON text
    (see ``_DECODER``); one passed in directly is ``str()`` of it.  The
    rejection names ``what.format(*what_args)``, built only then."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if not isinstance(value, (int, float)):
        kind = (
            "null" if value is None
            else "an object" if isinstance(value, dict)
            else f"a {type(value).__name__}"
        )
        raise InputError(
            f"{where}{what.format(*what_args)} {kind}; it must be a string, number or boolean"
        )
    return str(value)


def record_from_doc(
    doc: object, rid: int, lineno: int, origin_sets: dict[tuple[str, str], frozenset[AttrOrigin]]
) -> tuple[str, SuperRecord]:
    """Parse one input document, a JSON object, on line ``lineno`` of its
    file, into a basic record.

    Values are normalized; JSON ``null`` and values blank after
    normalization are dropped, since an absent value is no evidence that
    two records agree.  A field left without values is dropped too.
    Numbers and booleans are taken as their JSON text (``1``, ``1.5``,
    ``true``); a list or an object as a value is rejected.  The id, the
    source and each attribute name are taken as text the same way, and
    null, a list or an object there is rejected.  Two attributes of one
    record whose names are equal ignoring case are rejected as a repeated
    attribute.

    ``origin_sets`` holds the file's origin sets, one
    ``frozenset([AttrOrigin(source, attr)])`` per ``(source, attr)`` text
    pair met so far; each field takes its pair's set from there, and a
    pair met for the first time adds its set.  So every field of one
    source attribute shares one set.  The key is the exact text, so
    ``Name`` and ``name`` stay two attributes.
    """
    where = f"line {lineno}: "
    doc = _object(doc, "a record", where)
    try:
        ext_id = _text(doc["id"], "key 'id' holds", where)
        source = _text(doc["source"], "key 'source' holds", where)
        raw_fields = doc["fields"]
    except KeyError as exc:
        raise InputError(f"{where}missing key {exc}") from exc
    if not isinstance(raw_fields, list) or not raw_fields:
        raise InputError(f"{where}record needs at least one field")
    kept: list[Field] = []
    seen_attrs: set[str] = set()
    for fld in raw_fields:
        fld = _object(fld, "a field entry", where)
        try:
            attr = _text(fld["attr"], "key 'attr' holds", where)
            values = fld["values"]
        except KeyError as exc:
            raise InputError(f"{where}malformed field entry: {exc}") from exc
        attr_key = attr.casefold()
        if attr_key in seen_attrs:
            raise InputError(
                f"{where}attribute {attr!r} repeated (names are compared ignoring case); "
                "one schema holds no redundant attributes"
            )
        seen_attrs.add(attr_key)
        if not isinstance(values, list) or not values:
            raise InputError(f"{where}field {attr!r} needs at least one value")
        normalized: dict[str, None] = {}  # drops repeats in linear time, in first-seen order
        for v in values:
            nv = "" if v is None else normalize_value(_text(v, "field {!r} holds", where, attr))
            if nv:
                normalized[nv] = None
        if normalized:
            origins = origin_sets.get((source, attr))
            if origins is None:
                origins = origin_sets[source, attr] = frozenset([AttrOrigin(source, attr)])
            kept.append(Field._unchecked(list(normalized), origins))
    if not kept:
        raise InputError(f"{where}record has no value left after dropping blank and null ones")
    return ext_id, SuperRecord(rid, kept)


def parse_input(path: str) -> ParsedRecords:
    """Read a JSON-lines record file into a store of basic records.

    Fields of one source attribute share one origin set, kept for the
    file and dropped on return (see :func:`record_from_doc`): a file
    holds many records of few schemas, so most fields repeat an origin."""
    store: RecordStore = {}
    ids: dict[int, str] = {}
    seen_ids: set[str] = set()
    origin_sets: dict[tuple[str, str], frozenset[AttrOrigin]] = {}
    for rid, (lineno, doc) in enumerate(_json_lines(path), 1):
        ext_id, rec = record_from_doc(doc, rid, lineno, origin_sets)
        if ext_id in seen_ids:
            raise InputError(f"line {lineno}: duplicate record id {ext_id!r}")
        seen_ids.add(ext_id)
        store[rid] = rec
        ids[rid] = ext_id
    if not store:
        raise InputError("no records in input")
    return ParsedRecords(store=store, ids=ids)


def _pair_count(sizes: Counter) -> int:
    """Unordered pairs within each group of a tally of group sizes."""
    return sum(s * (s - 1) // 2 for s in sizes.values())


def evaluate(
    labels: Mapping[Hashable, Hashable], gold: Mapping[Hashable, Hashable]
) -> EvalReport:
    """Pairwise precision/recall/F1 of ``labels`` against ``gold``.

    Pairs are unordered same-entity record pairs, counted over the gold
    records, which must all be labeled (else an :class:`InputError`).
    """
    if not gold:
        raise InputError("empty ground truth")
    missing = [k for k in gold if k not in labels]
    if missing:
        raise InputError(f"gold records without labels: {missing[:5]}")
    emitted = _pair_count(Counter(labels[k] for k in gold))
    gold_pairs = _pair_count(Counter(gold.values()))
    tp = _pair_count(Counter((labels[k], g) for k, g in gold.items()))
    precision = tp / emitted if emitted else 0.0
    recall = tp / gold_pairs if gold_pairs else 0.0
    f1 = 0.0 if precision == 0.0 or recall == 0.0 else 2.0 / (1.0 / precision + 1.0 / recall)
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        true_pairs=tp,
        emitted_pairs=emitted,
        gold_pairs=gold_pairs,
    )


def load_labels(path: str) -> dict[str, str]:
    """Read a label file: one ``{"id": ..., "entity": ...}`` line per
    record.  Both are taken as text the way an input id is, so a label
    file names a record exactly as the input does; an id may appear once."""
    out: dict[str, str] = {}
    for lineno, doc in _json_lines(path):
        where = f"line {lineno}: "
        doc = _object(doc, "a label line", where)
        try:
            ext_id, entity = doc["id"], doc["entity"]
        except KeyError as exc:
            raise InputError(f"{where}bad label line ({exc})") from exc
        ext_id = _text(ext_id, "key 'id' holds", where)
        if ext_id in out:
            raise InputError(f"{where}duplicate record id {ext_id!r}")
        out[ext_id] = _text(entity, "key 'entity' holds", where)
    if not out:
        raise InputError("no labels in file")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entres",
        description="Resolve heterogeneous records to entities and emit labels.",
    )
    parser.add_argument("--input", required=True, help="JSON-lines record file")
    for f in fields(EngineConfig):
        parser.add_argument(f"--{f.name}", type=type(f.default), default=f.default, help=f.metadata["help"])
    parser.add_argument("--ground-truth", default=None, help="gold labels (same format as output)")
    parser.add_argument("--emit-matchings", default=None, help="write promoted schema matchings here")
    parser.add_argument("--dump-index", default=None, help="write the freshly built index here")
    parser.add_argument("--out", default=None, help="label output path (default stdout)")
    return parser


def _config(args: argparse.Namespace) -> EngineConfig:
    """The run config the parsed flags name, one flag per config field."""
    return EngineConfig(**{f.name: getattr(args, f.name) for f in fields(EngineConfig)})


def main(argv: list[str] | None = None) -> int:
    """Read every input, then resolve and write.  A file error, or gold
    naming records the input lacks, ends the run with one ``entres: ...``
    line on stderr and exit status 1."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        parsed = parse_input(args.input)
        gold = load_labels(args.ground_truth) if args.ground_truth else None
        engine = ResolutionEngine(parsed.store, config)
        if args.dump_index:
            with open(args.dump_index, "w", encoding="utf-8") as fp:
                engine.index.dump_jsonl(fp)
        result = engine.run()
        labels = {parsed.ids[rid]: parsed.ids[root] for rid, root in result.labels.items()}
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fp:
            fp.writelines(json.dumps({"id": k, "entity": v}) + "\n" for k, v in labels.items())
        if args.emit_matchings:
            with open(args.emit_matchings, "w", encoding="utf-8") as fp:
                engine.ledger.export_jsonl(fp)
        if gold is not None:
            print(json.dumps(asdict(evaluate(labels, gold))), file=sys.stdout if args.out else sys.stderr)
    except (OSError, InputError) as exc:  # resolution raises neither
        print(f"entres: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
