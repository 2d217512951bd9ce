"""Allocation-regression guard for the per-cycle hot path.

The saturation fast path (docs/PERFORMANCE.md) eliminated the per-cycle
temporary lists and dicts of the channel drain, switch allocation and
routing paths.  This test pins that property with ``tracemalloc``: a
saturated 8×8 mesh is warmed into steady state, then traced for a
window of cycles, asserting

* **retained growth per cycle** stays under a recorded budget — live
  simulation state (in-flight flits, reassembly buffers, the latency
  log) legitimately grows, but a regression that *caches* per-cycle
  temporaries (or leaks them) blows well past it; and
* the **transient high-water mark** above the final retained size stays
  under a budget — re-introducing freed-every-cycle churn (e.g. a list
  allocated per channel per cycle) raises the traced peak far above the
  steadily-growing retained line.

Budgets are generous multiples of the measured values (see the table in
docs/PERFORMANCE.md) so the test only fires on order-of-magnitude
regressions, not allocator noise.
"""

import gc
import tracemalloc

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.faults import FaultInjector, FaultSchedule
from repro.network.config import Design, NetworkConfig
from repro.obs.hub import Observability
from repro.simulation import Network
from repro.traffic.synthetic import uniform_random_traffic

WARMUP_CYCLES = 300
MEASURE_CYCLES = 80
RATE = 0.6
#: Measured steady-state retained growth is ~5–8 KiB/cycle (live flits,
#: reassembly state, latency log); budget leaves ~4x headroom.
RETAINED_BUDGET_PER_CYCLE = 32 * 1024
#: Measured transient high-water above the final retained size is under
#: ~8 KiB for the whole window; one cycle of reintroduced channel-drain
#: churn alone (a few hundred channels × a list each) would exceed this.
TRANSIENT_BUDGET = 128 * 1024


def _trace_steady_state(
    design: Design,
    with_injector: bool = False,
    with_detached_sanitizer: bool = False,
    with_detached_observability: bool = False,
):
    net = Network(NetworkConfig(width=8, height=8), design, seed=1)
    if with_injector:
        FaultInjector(net, FaultSchedule.empty())
    if with_detached_sanitizer:
        # Attach-then-detach must leave the zero-overhead fast path:
        # pre_step_hook back to None, nothing retained per cycle.
        Sanitizer(net).attach().detach()
        assert net.pre_step_hook is None
    if with_detached_observability:
        # Same contract for the observability hub: after detach every
        # ``obs`` hook is None again and no wrapper shadows a method.
        observer = Observability(
            net, trace=True, metrics=True, profile=True
        )
        observer.attach()
        observer.detach()
        assert all(r.obs is None for r in net.routers)
        assert all(ni.obs is None for ni in net.interfaces)
        assert "step" not in vars(net)
    source = uniform_random_traffic(
        net, RATE, seed=7, source_queue_limit=32
    )
    source.run(WARMUP_CYCLES)
    gc.collect()
    tracemalloc.start(1)
    try:
        gc.collect()
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        source.run(MEASURE_CYCLES)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained_per_cycle = (current - base) / MEASURE_CYCLES
    transient = peak - current
    return retained_per_cycle, transient


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_steady_state_allocations_within_budget(design):
    retained_per_cycle, transient = _trace_steady_state(design)
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}: retained {retained_per_cycle:.0f} B/cycle "
        f"exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget — "
        "per-cycle state is being cached or leaked"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}: transient high-water {transient:.0f} B above "
        f"final retained exceeds the {TRANSIENT_BUDGET} B budget — "
        "per-cycle temporary churn has returned to the hot path"
    )


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_disabled_faults_hot_path_within_same_budget(design):
    """An installed-but-idle fault injector (empty schedule, protection
    enabled) must fit the *same* budgets as the bare network: its hooks
    are a ledger insert/pop per packet and constant-work per-cycle
    checks, never per-cycle allocations."""
    retained_per_cycle, transient = _trace_steady_state(
        design, with_injector=True
    )
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}+injector: retained {retained_per_cycle:.0f} "
        f"B/cycle exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget "
        "— the disabled-faults path is allocating per cycle"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}+injector: transient high-water {transient:.0f} B "
        f"exceeds the {TRANSIENT_BUDGET} B budget — the disabled-faults "
        "path has added per-cycle churn"
    )


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.AFC],
    ids=lambda d: d.value,
)
def test_detached_sanitizer_hot_path_within_same_budget(design):
    """A sanitizer that was attached and detached again must leave the
    per-cycle path exactly as it found it: ``pre_step_hook`` is None, so
    the engine's ``if hook is not None`` guard is the only trace and the
    run fits the *same* allocation budgets as a bare network."""
    retained_per_cycle, transient = _trace_steady_state(
        design, with_detached_sanitizer=True
    )
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}+sanitizer-off: retained {retained_per_cycle:.0f} "
        f"B/cycle exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget "
        "— the sanitizer-off path is allocating per cycle"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}+sanitizer-off: transient high-water "
        f"{transient:.0f} B exceeds the {TRANSIENT_BUDGET} B budget — "
        "the sanitizer-off path has added per-cycle churn"
    )


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.AFC],
    ids=lambda d: d.value,
)
def test_detached_observability_hot_path_within_same_budget(design):
    """Observability attached and detached again (trace + metrics +
    profiler) must leave the per-cycle path exactly as it found it: all
    ``obs`` hooks back to None, wrapped stage methods restored to the
    class originals, and the run fitting the *same* allocation budgets
    as a never-observed network."""
    retained_per_cycle, transient = _trace_steady_state(
        design, with_detached_observability=True
    )
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}+obs-off: retained {retained_per_cycle:.0f} "
        f"B/cycle exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget "
        "— the observability-off path is allocating per cycle"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}+obs-off: transient high-water {transient:.0f} B "
        f"exceeds the {TRANSIENT_BUDGET} B budget — the observability-off "
        "path has added per-cycle churn"
    )
