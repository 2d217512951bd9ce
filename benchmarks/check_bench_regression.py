"""Bench regression gate against the archived simulator baseline.

Re-measures a subset of ``bench_simulator_throughput`` scenarios at
their *archived* cycle counts and compares each (scenario, engine)
pair against ``benchmarks/results/BENCH_simulator.json``:

* **behaviour** — the deterministic statistics (latency, deflection
  rate, energy, flit hops, ejections) must match the baseline
  *exactly*; the simulator is deterministic, so any drift is a
  simulated-behaviour change that invalidates every archived number
  and must be an intentional re-baseline, never an accident;
* **throughput** — wall-clock ``cycles_per_sec`` must stay above
  ``--min-ratio`` (default 0.9, i.e. fail on >10 % loss) of the
  baseline.  Timings are best-of ``--repeats`` to shave scheduler
  noise; on hardware unlike the baseline's, calibrate with
  ``--min-ratio`` or the ``BENCH_MIN_RATIO`` environment variable.

Exit status: 0 = clean, 1 = regression (behaviour mismatches are
always fatal; throughput failures are what ``--min-ratio`` tunes).

CI runs the default subset (a low-load point, a high-load point, and
two saturation points — the paths PRs actually touch); pass
``--scenarios`` to widen or narrow, e.g.::

    PYTHONPATH=src python benchmarks/check_bench_regression.py \
        --scenarios afc@0.4 backpressureless@0.8 --min-ratio 0.85
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import sys
from typing import Dict, List

BENCH_DIR = pathlib.Path(__file__).parent
DEFAULT_BASELINE = BENCH_DIR / "results" / "BENCH_simulator.json"

#: Scenarios gated by default: one mostly-idle point (active-set
#: engine), one high-load point, and a saturation point per
#: deflecting design.
DEFAULT_SCENARIOS = (
    "afc@0.05",
    "afc@0.4",
    "backpressured@0.6",
    "backpressureless@0.8",
)


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_simulator_throughput",
        BENCH_DIR / "bench_simulator_throughput.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=DEFAULT_BASELINE,
        help="archived BENCH_simulator.json to gate against",
    )
    parser.add_argument(
        "--label",
        default="current",
        help="baseline measurement label to compare with",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=list(DEFAULT_SCENARIOS),
        help="scenario keys to re-measure (must exist in the baseline)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=float(os.environ.get("BENCH_MIN_RATIO", "0.9")),
        help="fail when fresh/baseline cycles_per_sec drops below this "
        "(0.9 = fail on >10%% throughput loss; env: BENCH_MIN_RATIO)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repeats per (scenario, engine); best one counts",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as JSON instead of the table",
    )
    args = parser.parse_args(argv)

    bench = _load_bench()
    doc = json.loads(args.baseline.read_text())
    baseline = doc.get("measurements", {}).get(args.label)
    if not baseline:
        print(
            f"no '{args.label}' measurements in {args.baseline}",
            file=sys.stderr,
        )
        return 1

    by_key = {s[0]: s for s in bench._scenarios()}
    unknown = [k for k in args.scenarios if k not in by_key]
    if unknown:
        print(f"unknown scenarios: {unknown}", file=sys.stderr)
        return 1

    engines = bench._supported_engines()
    rows: List[dict] = []
    behaviour_failures: List[str] = []
    perf_failures: List[str] = []
    for key in args.scenarios:
        if key not in baseline:
            print(
                f"note: {key} absent from baseline label "
                f"'{args.label}', skipped",
                file=sys.stderr,
            )
            continue
        _, design_name, rate, width, height, cycles = by_key[key]
        for engine in engines:
            engine_label = engine if engine is not None else "naive"
            base = baseline[key].get(engine_label)
            if base is None:
                continue
            best: Dict[str, float] = {}
            for _ in range(max(1, args.repeats)):
                fresh = bench._measure(
                    design_name, rate, engine, cycles, width, height
                )
                if not best or fresh["seconds"] < best["seconds"]:
                    best = fresh
            mismatched = [
                stat
                for stat in bench._INVARIANT_KEYS
                if stat in base and base[stat] != best[stat]
            ]
            ratio = best["cycles_per_sec"] / base["cycles_per_sec"]
            row = {
                "scenario": key,
                "engine": engine_label,
                "baseline_cps": base["cycles_per_sec"],
                "fresh_cps": best["cycles_per_sec"],
                "ratio": round(ratio, 3),
                "behaviour_ok": not mismatched,
                "mismatched_stats": mismatched,
            }
            rows.append(row)
            if mismatched:
                behaviour_failures.append(
                    f"{key}/{engine_label}: {', '.join(mismatched)} "
                    f"changed vs baseline"
                )
            if ratio < args.min_ratio:
                perf_failures.append(
                    f"{key}/{engine_label}: {ratio:.2f}x of baseline "
                    f"throughput ({best['cycles_per_sec']:.0f} vs "
                    f"{base['cycles_per_sec']:.0f} cycles/sec, floor "
                    f"{args.min_ratio})"
                )

    if args.json:
        print(
            json.dumps(
                {
                    "rows": rows,
                    "behaviour_failures": behaviour_failures,
                    "perf_failures": perf_failures,
                    "min_ratio": args.min_ratio,
                },
                indent=2,
            )
        )
    else:
        width_key = max((len(r["scenario"]) for r in rows), default=8)
        for row in rows:
            flag = "ok"
            if row["mismatched_stats"]:
                flag = "BEHAVIOUR CHANGED"
            elif row["ratio"] < args.min_ratio:
                flag = "SLOW"
            print(
                f"{row['scenario']:<{width_key}} "
                f"{row['engine']:<7} "
                f"{row['baseline_cps']:>10.1f} -> "
                f"{row['fresh_cps']:>10.1f} cycles/sec "
                f"({row['ratio']:.2f}x)  {flag}"
            )
    for message in behaviour_failures:
        print(f"FAIL behaviour: {message}", file=sys.stderr)
    for message in perf_failures:
        print(f"FAIL throughput: {message}", file=sys.stderr)
    if behaviour_failures or perf_failures:
        return 1
    print(
        f"bench regression gate: {len(rows)} measurements within "
        f"{args.min_ratio}x of baseline, behaviour bit-identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
