"""Regenerate the benchmark's reference digests (reference.json).

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py --seeds 0-31
    python3 perfbench/make_reference.py --workload cmp-lowload \\
        --seeds 0 --cycles 20 60

Runs every distinct (design, profile) point of each workload once per
seed and records the digest of its result in ``reference.json`` beside
this script.  Entries for other seeds already there are kept; a
workload's entry is replaced when its cycle counts change.  Only
regenerate the committed reference when a change is meant to alter
simulated results; ``run.py`` never calls this.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import Bench  # noqa: E402
from workloads import WORKLOADS, with_cycles  # noqa: E402


def seed_list(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS)
    )
    parser.add_argument("--seeds", type=seed_list, default=[0])
    parser.add_argument("--cycles", type=int, nargs=2, default=None)
    args = parser.parse_args(argv)

    out = HERE / "reference.json"
    reference = {"workloads": {}}
    if out.exists():
        reference = json.loads(out.read_text())
    reference["digest"] = (
        "sha256 of the canonical JSON of every result field except "
        "observability, first 16 hex digits (session.digest)"
    )
    for name in args.workload or sorted(WORKLOADS):
        workload = with_cycles(WORKLOADS[name], args.cycles)
        cycles = [workload.warmup_cycles, workload.measure_cycles]
        entry = reference["workloads"].get(name)
        if not entry or entry.get("cycles") != cycles:
            entry = {"cycles": cycles, "seeds": {}}
            reference["workloads"][name] = entry
        for seed in args.seeds:
            bench = Bench(
                argparse.Namespace(workload=name, seed=seed, cycles=cycles)
            )
            try:
                report = bench.session("unique")
            finally:
                bench.close()
            if report["errors"]:
                print(report["errors"][0], file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = {
                f"{d}/{p}": digest
                for (d, p), digest in zip(
                    workload.unique_points, report["digests"]
                )
            }
            print(f"{name} seed {seed}: {len(report['digests'])} points")
            out.write_text(json.dumps(reference, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
