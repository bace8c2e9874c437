"""Record the exact reference outputs that the benchmark compares against.

    python3 perfbench/make_reference.py [workload ...]

For each pinned seed it runs the first rounds of the workload (more than a
run gets through at the commit that recorded them), checks every op, and
writes `reference/<workload>.json`: op key -> record.  Ops outside the pinned
seeds are still self-checked, just not compared.  Re-record only when a
change is meant to alter outputs, and say so in the change.
"""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

PINNED_SEEDS = range(11)
ROUNDS = {"oracle": 1, "known-metric": 6, "reproduce": 32}


def main(argv: list[str]) -> int:
    for name in argv or list(workloads.WORKLOADS):
        reference = {}
        for seed in PINNED_SEEDS:
            wl = workloads.WORKLOADS[name]()
            wl.setup(seed)
            for key, rec in workloads.records(wl, ROUNDS[name], reference.keys()).items():
                reference[key] = rec
            print(f"{name} seed {seed}: {len(reference)} ops", file=sys.stderr, flush=True)
        path = BENCH / "reference" / f"{name}.json"
        path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
