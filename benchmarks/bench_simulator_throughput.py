"""Simulator throughput benchmark (``BENCH_simulator.json``).

Unlike the other benchmarks, this one measures the *simulator*, not the
simulated designs: wall-clock cycles/sec and flit-hops/sec for open-loop
uniform-random traffic.  Two scenario families:

* the original engine suite — an 8×8 mesh at low load (5 % injection,
  where the active-set engine skips most routers) and at 40 % (nearly
  everything awake);
* the **saturation suite** — 60 % and 80 % injection on the 8×8 mesh for
  all three designs, plus a 16×16 AFC point, where every router is busy
  every cycle and wall-clock is dominated by the per-flit hot path
  (slotted flits, allocation-free channel drains, precomputed route
  tables — see docs/PERFORMANCE.md, "Saturation fast path").

Run standalone to (re)generate the archived JSON::

    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py \
        --label current

    # "before" numbers: point PYTHONPATH at a checkout of the baseline
    # (e.g. a git worktree of the pre-optimisation commit) and re-run
    # with a different label; measurements merge into the same JSON
    # file.  The archived labels are "seed" (pre-engine tree), "pr1"
    # (active-set engine, pre-saturation-fast-path) and "current".
    PYTHONPATH=/path/to/baseline/src python \
        benchmarks/bench_simulator_throughput.py --label pr1

The script measures both cycle engines (``naive`` and ``active``; a
build without the ``engine`` parameter is measured once as ``naive``),
asserts that they produce bit-identical energy totals and traffic
statistics, and — whenever two comparable labels are present —
computes per-scenario wall-clock speedups *after* asserting the labels
agree on every reported statistic (latency, deflection rate, energy):
a speedup obtained by changing simulated behaviour is a bug, not a win.

See ``docs/PERFORMANCE.md`` for how to read the archived numbers.
"""

# Wall-clock timing is this file's *purpose* (bench harness, not
# simulation state): cycles/sec rates are measured with perf_counter.
# simlint: disable-file=wallclock

from __future__ import annotations

import argparse
import gc
import inspect
import json
import pathlib
import time
from typing import Dict, List, Optional, Tuple

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_simulator.json"
)

WIDTH = 8
HEIGHT = 8
CYCLES = 2_000
SAT_CYCLES = 1_000
NET_SEED = 1
TRAFFIC_SEED = 7
SOURCE_QUEUE_LIMIT = 500
LOW_RATE = 0.05
HIGH_RATE = 0.40
#: Saturation-suite injection rates (flits/node/cycle, offered).
SAT_RATES = (0.6, 0.8)
DESIGN_NAMES = ("backpressured", "backpressureless", "afc")

#: (key, design, rate, width, height, default cycles).  The key format
#: keeps PR-1 compatibility for the original 8×8 scenarios so old
#: labels keep matching; mesh-qualified keys mark the rest.
Scenario = Tuple[str, str, float, int, int, int]


def _scenarios() -> List[Scenario]:
    out: List[Scenario] = []
    for design_name in DESIGN_NAMES:
        for rate in (LOW_RATE, HIGH_RATE):
            out.append(
                (f"{design_name}@{rate}", design_name, rate, WIDTH, HEIGHT,
                 CYCLES)
            )
        for rate in SAT_RATES:
            out.append(
                (f"{design_name}@{rate}", design_name, rate, WIDTH, HEIGHT,
                 SAT_CYCLES)
            )
    # A larger-mesh saturated point: 4x the routers, all of them busy.
    out.append(("afc@16x16@0.6", "afc", 0.6, 16, 16, SAT_CYCLES))
    return out


def _supported_engines() -> List[Optional[str]]:
    from repro.simulation import Network

    if "engine" not in inspect.signature(Network.__init__).parameters:
        return [None]  # pre-engine build: only the original loop exists
    return ["naive", "active"]


def _measure(
    design_name: str,
    rate: float,
    engine: Optional[str],
    cycles: int,
    width: int = WIDTH,
    height: int = HEIGHT,
) -> Dict[str, float]:
    from repro.network.config import Design, NetworkConfig
    from repro.simulation import Network
    from repro.traffic.synthetic import uniform_random_traffic

    config = NetworkConfig(width=width, height=height)
    kwargs = {} if engine is None else {"engine": engine}
    net = Network(config, Design(design_name), seed=NET_SEED, **kwargs)
    source = uniform_random_traffic(
        net, rate, seed=TRAFFIC_SEED, source_queue_limit=SOURCE_QUEUE_LIMIT
    )
    # Time compute, not the cycle collector: flit<->packet references
    # are cyclic, so big live populations make every gen-2 collection
    # scan the whole slab — such scans land inside a long window and
    # their cost depends on what *earlier scenarios* left behind, not
    # on the engine under test.  Collect first, switch GC off for the
    # timed window (uniformly, for every engine), restore after.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        source.run(cycles)
        seconds = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    hops = net.stats.dispatched_flit_hops
    return {
        "seconds": round(seconds, 4),
        "cycles_per_sec": round(cycles / seconds, 1),
        "flit_hops_per_sec": round(hops / seconds, 1),
        "flit_hops": hops,
        "energy_total_pj": net.energy.totals.total,
        # Reported simulation statistics: any label-to-label speedup is
        # only valid if these are unchanged (behaviour preservation).
        "avg_packet_latency": net.stats.avg_packet_latency,
        "deflection_rate": net.stats.deflection_rate,
        "flits_ejected": net.stats.flits_ejected,
    }


#: Measurement keys that must be bit-identical across engines and
#: labels (everything except wall-clock).
_INVARIANT_KEYS = (
    "flit_hops",
    "energy_total_pj",
    "avg_packet_latency",
    "deflection_rate",
    "flits_ejected",
)


def _invariants(measurement: dict) -> tuple:
    """The behaviour-defining subset of one measurement (tolerates old
    archived labels that predate the extra statistics)."""
    return tuple(
        measurement[k] for k in _INVARIANT_KEYS if k in measurement
    )


def run_suite(cycles: Optional[int] = None) -> Dict[str, dict]:
    """Measure every (scenario, engine) combination of this build.

    ``cycles`` overrides every scenario's cycle count (quick/CI mode);
    by default each scenario uses its own archived-comparable count.
    """
    engines = _supported_engines()
    suite: Dict[str, dict] = {}
    for (
        key, design_name, rate, width, height, default_cycles
    ) in _scenarios():
        n_cycles = cycles if cycles is not None else default_cycles
        per_engine: Dict[str, dict] = {}
        for engine in engines:
            label = engine if engine is not None else "naive"
            per_engine[label] = _measure(
                design_name, rate, engine, n_cycles, width, height
            )
        results = {
            _invariants(m) for m in per_engine.values()
        }
        if len(results) != 1:
            raise AssertionError(
                f"engines disagree on {key}: {per_engine}"
            )
        suite[key] = per_engine
    return suite


def _best_engine(engines: dict) -> Optional[dict]:
    """A label's default-engine measurement (active when present)."""
    if "active" in engines:
        return engines["active"]
    if "naive" in engines:
        return engines["naive"]
    return None


def _speedups(doc: dict, base_label: str, new_label: str) -> Dict[str, float]:
    """Per-scenario wall-clock ratios ``base/new``, default engines.

    Asserts the two labels agree on every reported statistic first: a
    scenario whose latency/energy/deflection numbers moved is reported
    as a hard error instead of a speedup.
    """
    base = doc["measurements"].get(base_label)
    new = doc["measurements"].get(new_label)
    if not base or not new:
        return {}
    out = {}
    for key, engines in new.items():
        if key not in base:
            continue
        before = _best_engine(base[key])
        after = _best_engine(engines)
        if before is None or after is None:
            continue
        common = [
            k for k in _INVARIANT_KEYS if k in before and k in after
        ]
        mismatched = [
            k for k in common if before[k] != after[k]
        ]
        if mismatched:
            raise AssertionError(
                f"{base_label} vs {new_label} disagree on {key}: "
                f"{mismatched} changed — speedup comparison is invalid"
            )
        out[key] = round(before["seconds"] / after["seconds"], 2)
    return out


def _seed_speedups(doc: dict) -> Dict[str, float]:
    """current-active vs seed-naive wall-clock ratios (PR-1 metric)."""
    seed = doc["measurements"].get("seed")
    current = doc["measurements"].get("current")
    if not seed or not current:
        return {}
    out = {}
    for key, engines in current.items():
        if key not in seed or "active" not in engines:
            continue
        before = seed[key]["naive"]["seconds"]
        after = engines["active"]["seconds"]
        out[key] = round(before / after, 2)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--label",
        default="current",
        help="measurement label ('current' for this tree, 'seed'/'pr1' "
        "for historical baselines)",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=None,
        help="override every scenario's cycle count (default: archived "
        "per-scenario counts)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: a few hundred cycles per scenario, no "
        "archive-comparable timing",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=RESULTS_PATH
    )
    args = parser.parse_args(argv)

    cycles = args.cycles
    if args.quick and cycles is None:
        cycles = 300

    doc = {"measurements": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    doc.setdefault("measurements", {})
    doc["config"] = {
        "mesh": f"{WIDTH}x{HEIGHT}",
        "cycles": CYCLES,
        "saturation_cycles": SAT_CYCLES,
        "low_rate": LOW_RATE,
        "high_rate": HIGH_RATE,
        "saturation_rates": list(SAT_RATES),
        "network_seed": NET_SEED,
        "traffic_seed": TRAFFIC_SEED,
        "source_queue_limit": SOURCE_QUEUE_LIMIT,
    }
    doc["measurements"][args.label] = run_suite(cycles)
    doc["speedup_active_vs_seed"] = _seed_speedups(doc)
    doc["speedup_current_vs_pr1"] = _speedups(doc, "pr1", "current")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for name in (
        "speedup_active_vs_seed",
        "speedup_current_vs_pr1",
    ):
        for key, ratio in doc.get(name, {}).items():
            print(f"  {name} {key}: {ratio}x")
    return 0


# -- pytest-benchmark wrapper (smoke-sized) -----------------------------------
def test_simulator_throughput_smoke(benchmark):
    """Tiny smoke run: both engines work and agree at low load."""
    from _common import run_once

    suite = run_once(benchmark, lambda: run_suite(cycles=200))
    assert f"afc@{LOW_RATE}" in suite


if __name__ == "__main__":
    raise SystemExit(main())
