"""Record the exact counts of every workload and seed in counts.json.

    python3 bench/record_counts.py --seeds 1-10

Runs one traced operation per workload and seed.  bench/run.py compares
each operation's counts with the recorded ones and reports every count
that differs; a change that alters the counts on purpose records them
again with this script.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from tracing import Tracer
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="a seed or a range such as 1-10")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    path = run.BENCH_DIR / "counts.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for workload in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            inputs = run.prepare(workload, seed)
            tracer = Tracer(run.engine.EngineConfig().delta)
            op = run.operation(inputs.input_path, inputs.labels_path, inputs.gold, tracer)
            if op is None or op.problems:
                print(f"{workload} seed {seed}: operation failed, nothing recorded", file=sys.stderr)
                return 1
            counts = {key: op.counts[key] for key in run.RECORDED_COUNTS}
            recorded.setdefault(workload, {})[str(seed)] = counts
            print(workload, seed, counts)
    ordered = {w: dict(sorted(s.items(), key=lambda kv: int(kv[0]))) for w, s in sorted(recorded.items())}
    path.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
