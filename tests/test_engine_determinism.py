"""The fast engine and the parallel harness change wall-clock only.

Two families of guarantees, both *bit-exact* (no tolerances anywhere):

* the active-set cycle engine (``engine="active"``, the default) must
  produce byte-for-byte the same statistics, mode history and energy
  ledger as the naive step-everything loop (``engine="naive"``) for
  every design, including the dropping design's retransmit path and
  AFC's self-timed reverse switches out of deep idle;
* the process-parallel experiment harness (``jobs > 1``) must merge
  per-seed samples into exactly the numbers the serial loop produces.

Flit conservation is additionally asserted every few cycles while the
active engine is skipping quiescent routers — sleeping a router that
still owes (or is owed) a flit would show up here immediately.
"""

import pytest

from conftest import DATAPATH_DESIGNS
from repro import Design, Network, NetworkConfig
from repro.analysis.sanitizer import Sanitizer
from repro.faults import FaultInjector, FaultSpec, ProtectionConfig
from repro.harness.experiment import ExperimentRunner
from repro.harness.sweep import SweepGrid, run_open_loop_sweep
from repro.network.flit import reset_packet_ids
from repro.traffic.synthetic import uniform_random_traffic
from repro.traffic.workloads import WORKLOADS


def full_state(net: Network) -> dict:
    """Every externally observable accumulator of a finished run."""
    stats = {
        key: value
        for key, value in vars(net.stats).items()
        if key != "mode_stats"
    }
    return {
        "cycle": net.cycle,
        "stats": stats,
        "mode_stats": {
            node: vars(entry).copy()
            for node, entry in net.stats.mode_stats.items()
        },
        "energy": vars(net.energy.totals).copy(),
    }


def run_scenario(
    design: Design,
    engine: str,
    rate: float,
    cycles: int,
    conservation_stride: int = 0,
) -> dict:
    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=11, engine=engine)
    source = uniform_random_traffic(
        net, rate, seed=5, source_queue_limit=300
    )
    if conservation_stride:
        for _ in range(0, cycles, conservation_stride):
            source.run(conservation_stride)
            net.check_flit_conservation()
    else:
        source.run(cycles)
    net.drain(max_cycles=20_000)
    net.check_flit_conservation()
    return full_state(net)


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
@pytest.mark.parametrize("rate", [0.06, 0.35], ids=["low", "high"])
def test_engines_bit_identical(design, rate):
    """Active-set engine == naive loop, for every design, both in the
    mostly-asleep regime (low load) and the mostly-awake one."""
    naive = run_scenario(design, "naive", rate, 600)
    active = run_scenario(design, "active", rate, 600)
    assert active == naive


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_engines_bit_identical_at_saturation(design):
    """Saturated load keeps every router awake and drives the paths the
    saturation fast path rebuilt: the precomputed deflection-fallback
    rows (all productive ports taken), AFC's credit-masked allocation
    and emergency buffering, and the persistent switch-allocation
    request lists under full contention."""
    naive = run_scenario(design, "naive", 0.7, 400)
    active = run_scenario(design, "active", 0.7, 400)
    assert active == naive
    assert naive["stats"]["flits_ejected"] > 0


def test_engines_bit_identical_at_saturation_8x8():
    """Same guarantee on a mesh with corner/edge/center port layouts
    all present at depth — the fallback rows differ per node class."""
    reset_packet_ids()
    states = {}
    for engine in ("naive", "active"):
        reset_packet_ids()
        net = Network(
            NetworkConfig(width=8, height=8),
            Design.AFC,
            seed=11,
            engine=engine,
        )
        source = uniform_random_traffic(
            net, 0.65, seed=5, source_queue_limit=60
        )
        source.run(300)
        net.drain(max_cycles=40_000)
        net.check_flit_conservation()
        states[engine] = full_state(net)
    assert states["active"] == states["naive"]


@pytest.mark.parametrize(
    "design",
    [Design.AFC, Design.BACKPRESSURELESS_DROPPING],
    ids=lambda d: d.value,
)
def test_conservation_under_quiescence_skipping(design):
    """No flit is lost or duplicated while routers sleep — checked
    every 7 cycles, mid-protocol, including the dropping design's
    NACK/retransmit circuit (which re-enters the network through a
    sleeping source's interface)."""
    state = run_scenario(
        design, "active", 0.35, 700, conservation_stride=7
    )
    if design is Design.BACKPRESSURELESS_DROPPING:
        assert state["stats"]["flits_dropped"] > 0, (
            "scenario too gentle: the retransmit path was never taken"
        )


def test_afc_self_wake_reverse_switch():
    """An idle backpressured AFC router must wake itself on the exact
    cycle its decayed EWMA crosses the reverse threshold (no neighbour
    event arrives to wake it).  The long drain after a saturating burst
    is where a lazy engine would sleep through the switch."""
    naive = run_scenario(Design.AFC, "naive", 0.55, 900)
    active = run_scenario(Design.AFC, "active", 0.55, 900)
    assert active == naive
    reverse = sum(
        entry["reverse_switches"] for entry in naive["mode_stats"].values()
    )
    assert reverse > 0, "scenario too gentle: no reverse switch happened"


# -- invariant sanitizer is a pure observer -----------------------------------
def _run_sanitized_scenario(
    design: Design, engine: str, rate: float, cycles: int, detach_first: bool
) -> dict:
    """Like :func:`run_scenario` but with a Sanitizer in the picture —
    either watching the whole run (``detach_first=False``) or attached
    and detached again before any cycle executes (``detach_first=True``,
    the sanitizer-off path)."""
    from repro.traffic.synthetic import uniform_random_traffic

    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=11, engine=engine)
    source = uniform_random_traffic(net, rate, seed=5, source_queue_limit=300)
    sanitizer = Sanitizer(net).attach()
    if detach_first:
        sanitizer.detach()
    source.run(cycles)
    net.drain(max_cycles=20_000)
    sanitizer.detach()
    net.check_flit_conservation()
    return full_state(net)


@pytest.mark.parametrize("engine", ["naive", "active"])
@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_sanitizer_runs_are_bit_identical(design, engine):
    """Attached or detached, the sanitizer never perturbs a run: every
    externally observable accumulator matches the plain run exactly on
    both engines (it reads state, never writes it)."""
    plain = run_scenario(design, engine, 0.35, 500)
    detached = _run_sanitized_scenario(design, engine, 0.35, 500, True)
    watched = _run_sanitized_scenario(design, engine, 0.35, 500, False)
    assert detached == plain
    assert watched == plain


# -- fault injection -------------------------------------------------------------
@pytest.mark.parametrize("design", DATAPATH_DESIGNS, ids=lambda d: d.value)
def test_faulted_schedule_bit_identical(design):
    """A non-empty fault schedule (link flaps, bit errors, credit loss)
    with end-to-end protection: the injector's per-cycle hook, the
    retransmissions and the credit resynthesis wake and sleep routers
    in ways fault-free traffic never does, and the active engine must
    still match the naive loop through the protection drain."""
    spec = FaultSpec(
        seed=3,
        link_flap_rate=5.0,
        bit_error_rate=3.0,
        flap_duration=20,
        credit_loss_rate=2.0,
    )

    def run(engine):
        reset_packet_ids()
        net = Network(
            NetworkConfig(width=4, height=4), design, seed=11, engine=engine
        )
        schedule = spec.schedule(net.mesh, start=0, horizon=1500)
        assert len(schedule) > 0, "fault schedule unexpectedly empty"
        injector = FaultInjector(net, schedule, ProtectionConfig())
        source = uniform_random_traffic(
            net, 0.25, seed=5, source_queue_limit=300
        )
        source.run(1500)
        injector.drain(max_cycles=100_000)
        return full_state(net)

    assert run("active") == run("naive")


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        Network(NetworkConfig(), Design.AFC, seed=0, engine="warp")


# -- process-parallel harness -------------------------------------------------
def test_closed_loop_parallel_matches_serial():
    results = {}
    for jobs in (1, 2):
        runner = ExperimentRunner(
            warmup_cycles=300,
            measure_cycles=700,
            seeds=2,
            jobs=jobs,
        )
        results[jobs] = runner.run_closed_loop(
            Design.AFC, WORKLOADS["apache"]
        )
    assert results[1] == results[2]


def test_open_loop_parallel_matches_serial():
    results = {}
    for jobs in (1, 2):
        runner = ExperimentRunner(
            warmup_cycles=300,
            measure_cycles=700,
            seeds=3,
            jobs=jobs,
        )
        results[jobs] = runner.run_open_loop(
            Design.BACKPRESSURELESS, 0.3, source_queue_limit=200
        )
    assert results[1] == results[2]


def test_sweep_parallel_matches_serial():
    grid = SweepGrid(
        designs=[Design.BACKPRESSURED, Design.AFC], rates=[0.2, 0.4]
    )
    tables = {
        jobs: run_open_loop_sweep(
            grid,
            warmup_cycles=200,
            measure_cycles=500,
            seeds=1,
            source_queue_limit=200,
            jobs=jobs,
        )
        for jobs in (1, 2)
    }
    assert tables[1].columns == tables[2].columns
    assert tables[1].rows == tables[2].rows
