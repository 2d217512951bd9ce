"""The benchmark's three workloads: the paper's three load regimes.

The paper's claim is robustness: AFC must match the better of
backpressured and backpressureless flow control at low load (Fig. 2a/b),
at high load (Fig. 2c/d) and under spatial variation (§V-B).  Each
workload below is one of those regimes, and its request list is copied
from the paper benches under ``benchmarks/`` in the order they issue
requests (pytest runs the bench files alphabetically: fig2, then fig3,
then table3), so repeated points occur exactly as often as they do when
the paper's tables are regenerated.

A request is one (design, profile) point run through
``repro.harness.ExperimentRunner`` with ``SEEDS`` seeds; the workload
seed given on the command line becomes the runner's ``base_seed``.

This module imports nothing from the simulator, so the orchestrator
can read it without paying the simulator's imports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Seeds per request, as in the paper benches (``_common.SEEDS``).
SEEDS = 2

#: Design names (``repro.Design`` values) in the benches' orders.
MAIN_DESIGNS = (
    "backpressured",
    "backpressureless",
    "afc",
    "afc_always_backpressured",
)
LOW_LOAD_ENERGY_DESIGNS = MAIN_DESIGNS + ("backpressured_ideal_bypass",)

HIGH_LOAD_PROFILES = ("apache", "oltp", "specjbb")
LOW_LOAD_PROFILES = ("barnes", "ocean", "water")


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why the benchmark runs this workload.
    why: str
    #: "closed" (memory-system CMP via ``run_closed_loop``) or "open"
    #: (synthetic traffic via ``run_open_loop``).
    kind: str
    width: int
    height: int
    warmup_cycles: int
    measure_cycles: int
    #: (design, profile) per request, in issue order.  For open-loop
    #: requests the profile names the traffic recipe.
    requests: Tuple[Tuple[str, str], ...]
    #: Expected request and unique-point counts (checked on import).
    expected_counts: Tuple[int, int]
    #: The paper's AFC performance and energy, normalised to
    #: backpressured, with the EXPERIMENTS.md entry they come from.
    paper_afc_perf: float
    paper_afc_energy: float
    paper_source: str

    @property
    def nodes(self) -> int:
        return self.width * self.height

    @property
    def unique_points(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(dict.fromkeys(self.requests))

    @property
    def router_cycles(self) -> int:
        """Requested simulated router-cycles of one pass over the list:
        nodes x cycles x seeds, summed over requests."""
        cycles = self.warmup_cycles + self.measure_cycles
        return len(self.requests) * self.nodes * cycles * SEEDS


def _grid(designs, profiles):
    """Profile-major, design-minor: the benches' nested loops."""
    return tuple((d, p) for p in profiles for d in designs)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cmp-highload",
            why=(
                "3x3 CMP at saturation (apache/oltp/specjbb): 96 % of "
                "router-cycles awake (99 % after warm-up), AFC >99 % "
                "backpressured, so the router hot path dominates"
            ),
            kind="closed",
            width=3,
            height=3,
            # Shorter than cmp-lowload: this regime costs about 4x more
            # host time per simulated cycle.  Both closed-loop workloads
            # take ~7 CPU seconds per serial pass on a 2-vCPU Xeon, so
            # four passes fit in one 30 s run.
            warmup_cycles=240,
            measure_cycles=720,
            requests=(
                _grid(MAIN_DESIGNS, HIGH_LOAD_PROFILES)  # fig2c/d
                + _grid(MAIN_DESIGNS, HIGH_LOAD_PROFILES)  # fig3b
                + _grid(("backpressured",), HIGH_LOAD_PROFILES)  # table3
            ),
            expected_counts=(27, 12),
            paper_afc_perf=0.98,  # E3: AFC -2 %
            paper_afc_energy=1.02,  # E4: AFC +2 %
            paper_source="EXPERIMENTS.md E3 (perf) / E4 (energy)",
        ),
        Workload(
            name="cmp-lowload",
            why=(
                "3x3 CMP at low load (barnes/ocean/water): 34-38 % of "
                "router-cycles awake, AFC >90 % backpressureless, so "
                "active-set bookkeeping and memsys carry a larger share"
            ),
            kind="closed",
            width=3,
            height=3,
            warmup_cycles=750,
            measure_cycles=2_250,
            requests=(
                _grid(LOW_LOAD_ENERGY_DESIGNS, LOW_LOAD_PROFILES)  # fig2a/b
                + _grid(MAIN_DESIGNS, LOW_LOAD_PROFILES)  # fig3a
                + _grid(("backpressured",), LOW_LOAD_PROFILES)  # table3
            ),
            expected_counts=(30, 15),
            paper_afc_perf=1.00,  # E1: no meaningful impact
            # E2: backpressured is +42 % over backpressureless and AFC
            # lands within 9 % of backpressureless.
            paper_afc_energy=1.09 / 1.42,
            paper_source="EXPERIMENTS.md E1 (perf) / E2 (energy)",
        ),
        Workload(
            name="mesh8-consolidation",
            why=(
                "8x8 open-loop consolidation (one quadrant at 0.9, three "
                "at 0.1 flits/node/cycle): 56-58 % awake, AFC 25 % "
                "backpressured, traffic-source work, 64 routers, no repeats"
            ),
            kind="open",
            width=8,
            height=8,
            # Half the cycles of the closed-loop workloads, so a run
            # holds six or seven ~4.4 s passes: with only three requests
            # per pass, request times spread the most here, and the
            # median needs more of them.
            warmup_cycles=400,
            measure_cycles=1_200,
            requests=(
                ("backpressured", "consolidation"),
                ("backpressureless", "consolidation"),
                ("afc", "consolidation"),
            ),
            expected_counts=(3, 3),
            # E8 reports no AFC/backpressured performance gap: both are
            # ~33 % below backpressureless in hot-quadrant latency.
            paper_afc_perf=1.00,
            paper_afc_energy=1 / 1.09,  # E8: backpressured +9 % over AFC
            paper_source="EXPERIMENTS.md E8 (backpressured +9 % energy)",
        ),
    )
}

#: §V-B consolidation traffic: quadrant 0 hot, the others cold.
HOT_RATE = 0.9
COLD_RATE = 0.1
SOURCE_QUEUE_LIMIT = 400

for _w in WORKLOADS.values():
    _counts = (len(_w.requests), len(_w.unique_points))
    if _counts != _w.expected_counts:
        raise AssertionError(
            f"{_w.name}: {_counts} requests/unique points, "
            f"expected {_w.expected_counts}"
        )


def with_cycles(
    workload: Workload, cycles: Optional[Tuple[int, int]]
) -> Workload:
    """``workload`` with (warmup, measure) overridden, for smoke runs."""
    if cycles is None:
        return workload
    return replace(
        workload, warmup_cycles=cycles[0], measure_cycles=cycles[1]
    )


def worker_count() -> int:
    """Worker processes per request: ``min(nproc, SEEDS)``."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return max(1, min(nproc, SEEDS))
