"""End-to-end and per-layer benchmark of the entres resolver.

Usage, from the root of the repository:

    python3 bench/run.py --workload clustered --seed 1 --seconds 30 --trace 0

One closed-loop client on one thread: each operation parses the
workload's JSON-lines file, builds the engine (which runs the similarity
join), resolves, writes the labels and evaluates them against gold, and
the next operation starts when it has finished.  Operations repeat until
the next one would end after ``--seconds``; every figure is the median
over operations.  Each operation must converge, label every input id and
reproduce the gold partition exactly, or it counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` traced and untraced operations
alternate, and it reports the per-layer metrics of the traced ones (see
tracing.py); tracing overhead is the traced minus the untraced total time.
Spans are written to ``bench/out/<workload>-seed<seed>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

try:
    import entres.cli as cli
    import entres.engine as engine
except ModuleNotFoundError as exc:
    raise SystemExit(f"run.py: cannot import entres from {ROOT / 'src'}: {exc}") from exc

from tracing import Tracer
from workloads import WORKLOADS, external_gold, write_input

# counts recorded per workload and seed in counts.json
RECORDED_COUNTS = ("join_scores", "index_pairs", "cal_bound_calls", "verify_calls", "merges", "iterations", "promotions")
# the ones only a traced operation sees, with the metric holding each
PINNED_TRACED = {
    "join_scores": "pair_index.join_scores",
    "index_pairs": "pair_index.index_pairs",
    "cal_bound_calls": "pair_index.cal_bound_calls",
    "verify_calls": "matching.verify_calls",
}


@dataclass
class Operation:
    setup_s: float
    resolve_s: float
    total_s: float
    f1: float
    problems: list[str]
    counts: dict[str, int]
    layer: dict[str, float] | None = None  # per-layer metrics of a traced operation


def _partition(labels: dict[str, str]) -> set[frozenset[str]]:
    groups: dict[str, set[str]] = {}
    for rid, ent in labels.items():
        groups.setdefault(ent, set()).add(rid)
    return {frozenset(g) for g in groups.values()}


def run_operation(input_path: Path, labels_path: Path, gold: dict[str, str]) -> Operation:
    """One timed resolution through the library's public path.

    Library names are looked up on their modules at call time, so an
    installed tracer sees every call.
    """
    clock = time.perf_counter
    t0 = clock()
    parsed = cli.parse_input(str(input_path))
    eng = engine.ResolutionEngine(parsed.store, engine.EngineConfig())
    t1 = clock()
    result = eng.run()
    t2 = clock()
    with open(labels_path, "w", encoding="utf-8") as fp:
        for rid in sorted(parsed.ids):
            entity = parsed.ids[result.labels[rid]]
            fp.write(json.dumps({"id": parsed.ids[rid], "entity": entity}) + "\n")
    labels = cli.load_labels(str(labels_path))
    report = cli.evaluate(labels, gold)
    t3 = clock()

    problems = []
    if not result.converged:
        problems.append(f"no fixpoint within {result.iterations} iterations")
    if labels.keys() != gold.keys():
        problems.append(f"{len(labels.keys() ^ gold.keys())} ids labeled but not in gold or vice versa")
    elif _partition(labels) != _partition(gold):
        problems.append(f"labels differ from gold (pairwise F1 {report.f1})")
    counts = {
        "merges": result.merges,
        "iterations": result.iterations,
        "promotions": len(result.promoted),
        "contradictions": len(eng.ledger.contradictions),
    }
    return Operation(t1 - t0, t2 - t1, t3 - t0, report.f1, problems, counts)


def operation(
    input_path: Path, labels_path: Path, gold: dict[str, str], tracer: Tracer | None = None
) -> Operation | None:
    """Run one operation, traced when ``tracer`` is given.

    An exception is reported and returns None.  A traced operation also
    carries its per-layer metrics and the counts only tracing can see.
    """
    gc.collect()
    if tracer is not None:
        tracer.start_op()
        tracer.install()
    try:
        op = run_operation(input_path, labels_path, gold)
    except Exception:  # any raise is a failed operation, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        op.layer = tracer.op_summary(-1)
        op.layer.update(
            {
                "engine.iterations": op.counts["iterations"],
                "engine.merges": op.counts["merges"],
                "schema_vote.promotions": op.counts["promotions"],
                "schema_vote.contradictions": op.counts["contradictions"],
            }
        )
        for key, metric in PINNED_TRACED.items():
            op.counts[key] = op.layer[metric]
    return op


def load_expected_counts(workload: str, seed: int) -> dict[str, int]:
    path = BENCH_DIR / "counts.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fp:
        return json.load(fp).get(workload, {}).get(str(seed), {})


class Inputs(NamedTuple):
    input_path: Path
    labels_path: Path
    gold: dict[str, str]
    n_records: int
    warmup_path: Path
    warmup_gold: dict[str, str]


def prepare(workload: str, seed: int) -> Inputs:
    """Write the workload's input and warm-up files before any timing."""
    wl = WORKLOADS[workload]
    out_dir = BENCH_DIR / "out" / f"{workload}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    store, gold = wl.make(seed)
    write_input(store, out_dir / "input.jsonl")
    warm_store, warm_gold = wl.warmup(seed)
    write_input(warm_store, out_dir / "warmup.jsonl")
    return Inputs(
        out_dir / "input.jsonl",
        out_dir / "labels.jsonl",
        external_gold(gold),
        len(store),
        out_dir / "warmup.jsonl",
        external_gold(warm_gold),
    )


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    input_path, labels_path, gold, n_records, warmup_path, warmup_gold = prepare(workload, seed)
    attempted = failed = 0
    warm = operation(warmup_path, labels_path, warmup_gold)
    if warm is None or warm.problems:
        attempted, failed = 1, 1
        print(f"warm-up failed: {warm.problems if warm else 'raised'}", file=sys.stderr)

    tracer = Tracer(engine.EngineConfig().delta) if trace else None
    plain: list[Operation] = []
    traced: list[Operation] = []
    expected = load_expected_counts(workload, seed)
    mismatches = 0
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        done = traced if use_trace else plain
        if plain and (traced or not trace):
            estimate = (done or plain)[-1].total_s
            if time.perf_counter() - start + estimate > seconds:
                break
        op = operation(input_path, labels_path, gold, tracer if use_trace else None)
        attempted += 1
        if op is None:
            failed += 1
            break  # a raising operation would most likely raise again
        print(
            f"operation {attempted}{' (traced)' if use_trace else ''}: setup {op.setup_s:.3f} s, "
            f"resolve {op.resolve_s:.3f} s, total {op.total_s:.3f} s"
        )
        if op.problems:
            failed += 1
            print(f"operation {attempted} failed: {'; '.join(op.problems)}", file=sys.stderr)
        for key, value in op.counts.items():
            if key in expected and value != expected[key]:
                mismatches += 1
                print(f"count differs from counts.json: {key} {value}, recorded {expected[key]}", file=sys.stderr)
        done.append(op)

    if tracer is not None:
        with open(labels_path.parent / "spans.jsonl", "w", encoding="utf-8") as fp:
            tracer.write_spans(fp)
    if not plain or (trace and not traced):
        raise SystemExit("run.py: no operation completed")
    print(
        f"{workload} seed={seed}: {n_records} records, {len(plain)} untraced and "
        f"{len(traced)} traced operations, {failed} of {attempted} failed, "
        + (f"{mismatches} counts differ from counts.json" if expected else "no recorded counts")
    )

    med = statistics.median
    if trace:
        metrics = {}
        for name, first in traced[0].layer.items():
            # counts repeat exactly, so a count keeps an observed integer value
            pick = statistics.median_low if isinstance(first, int) else med
            metrics[name] = pick([op.layer[name] for op in traced])
        metrics["trace.overhead_s"] = med([op.total_s for op in traced]) - med([op.total_s for op in plain])
        metrics["bench.count_mismatches"] = mismatches
    else:
        total = med([op.total_s for op in plain])
        metrics = {
            "total_s": total,
            "setup_s": med([op.setup_s for op in plain]),
            "resolve_s": med([op.resolve_s for op in plain]),
            "records_per_s": n_records / total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "f1": min(op.f1 for op in plain),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _declared_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    units = _declared_units(bool(args.trace))
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values = outcome.pop("metrics")
    missing = units.keys() - values.keys()
    if missing:
        raise SystemExit(f"run.py: metrics not measured: {sorted(missing)}")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:>16.6g} {unit}")
    outcome["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
