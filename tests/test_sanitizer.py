"""The runtime NoC invariant sanitizer (layer 2 of ``simcheck``).

Three families of guarantees:

* **clean runs stay clean** — every main design on both cycle engines
  passes hundreds of sanitized cycles, and AFC survives 2k cycles at a
  saturating load (the acceptance scenario: mode switches, emergency
  buffering and gossip all fire with the checker watching);
* **seeded corruptions are caught within one cycle** — hand-breaking a
  credit counter, dropping a flit out of a channel pipeline, stranding
  a latched flit, or corrupting the EWMA/mode FSM raises a
  cycle-stamped, router-addressed :class:`InvariantViolation` on the
  very next ``net.step()``; and
* **mechanics** — hook chaining behind a fault injector, detach
  restoring the previous hook, ``every=N`` thinning, pickle-safety of
  the exception (it must survive a ``ProcessPoolExecutor`` re-raise),
  and the ``sanitize=True`` path of :class:`ExperimentRunner`.
"""

import pickle

import pytest

from repro.analysis.sanitizer import InvariantViolation, Sanitizer
from repro.core.mode_controller import Mode
from repro.faults import FaultInjector, FaultSchedule
from repro.harness.experiment import MAIN_DESIGNS, ExperimentRunner
from repro.network.config import Design, NetworkConfig
from repro.network.flit import VNETS, Packet, reset_packet_ids
from repro.simulation import Network
from repro.traffic.synthetic import OpenLoopSource


def build(design, rate, seed=2, engine="active"):
    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=seed, engine=engine)
    source = OpenLoopSource(net, rate, seed=5)
    return net, source


# -- clean runs --------------------------------------------------------------
@pytest.mark.parametrize("engine", ["naive", "active"])
@pytest.mark.parametrize("design", MAIN_DESIGNS, ids=lambda d: d.value)
def test_clean_run_every_design_every_engine(design, engine):
    net, source = build(design, 0.30, seed=3, engine=engine)
    with Sanitizer(net) as sanitizer:
        source.run(400)
    assert sanitizer.checks_run == 401  # one per cycle + the exit check
    assert sanitizer.violations_found == 0
    assert net.pre_step_hook is None


def test_afc_saturating_acceptance():
    """2k cycles of AFC at a saturating load pass sanitized, with the
    adaptive machinery actually exercised (forward switches happened)."""
    net, source = build(Design.AFC, 0.70, seed=1)
    with Sanitizer(net):
        source.run(2_000)
    switches = sum(
        entry.forward_switches for entry in net.stats.mode_stats.values()
    )
    assert switches > 0, "scenario too gentle: AFC never switched modes"


def test_clean_run_through_drain():
    net, source = build(Design.AFC, 0.55)
    with Sanitizer(net):
        source.run(500)
        net.drain(max_cycles=20_000)


# -- seeded corruptions ------------------------------------------------------
def corrupted_step_raises(design, corrupt, rate=0.5, warm=300):
    """Warm up, corrupt, and assert the very next step detects it."""
    net, source = build(design, rate)
    sanitizer = Sanitizer(net).attach()
    try:
        source.run(warm)
        corrupt(net)
        with pytest.raises(InvariantViolation) as excinfo:
            net.step()
    finally:
        sanitizer.detach()
    exc = excinfo.value
    # Detected at the boundary entering the next cycle: cycle-stamped
    # with the corruption cycle, and addressed in the message.
    assert exc.cycle == warm
    assert f"[cycle {warm}]" in str(exc)
    # Addressed to the offending router/channel, or to the network as a
    # whole for the global conservation ledger.
    assert "node" in str(exc) or "network" in str(exc)
    assert sanitizer.violations_found == 1
    return exc


def test_afc_credit_decrement_caught():
    """Hand-decrementing a tracked per-vnet credit counter breaks the
    neighbour state's internal consistency."""

    def corrupt(net):
        for router in net.routers:
            for state in router._neighbors.values():
                if state.tracking and state.credits[VNETS[2]] > 0:
                    state.credits[VNETS[2]] -= 1
                    return
        pytest.skip("no tracked neighbour at this load")

    exc = corrupted_step_raises(Design.AFC, corrupt, rate=0.7)
    assert "credit" in str(exc)


def test_afc_coherent_credit_decrement_caught_by_ledger():
    """A *coherent* decrement (counter and running total together) is
    invisible to the internal-consistency check and must be caught by
    the per-vnet upstream/downstream credit ledger instead."""

    def corrupt(net):
        for router in net.routers:
            for state in router._neighbors.values():
                if state.tracking and state.credits[VNETS[2]] > 0:
                    state.credits[VNETS[2]] -= 1
                    state._total_free -= 1
                    return
        pytest.skip("no tracked neighbour at this load")

    exc = corrupted_step_raises(Design.AFC, corrupt, rate=0.7)
    assert "per-vnet credit disagreement" in str(exc)


def test_baseline_credit_decrement_caught():
    def corrupt(net):
        for channel in net.channels:
            upstream = net.routers[channel.upstream]
            state = upstream._out_state[channel.direction].vc_states[0]
            if state.credits > 0:
                state.credits -= 1
                return

    exc = corrupted_step_raises(Design.BACKPRESSURED, corrupt)
    assert "credit ledger broken" in str(exc)


def test_baseline_busy_latch_corruption_caught():
    def corrupt(net):
        for channel in net.channels:
            upstream = net.routers[channel.upstream]
            state = upstream._out_state[channel.direction].vc_states[0]
            if not state.busy:
                state.busy = True
                return

    exc = corrupted_step_raises(Design.BACKPRESSURED, corrupt)
    assert "busy latch disagrees" in str(exc)


def test_dropped_flit_caught_as_conservation_violation():
    def corrupt(net):
        for channel in net.channels:
            if channel._flits._items:
                channel._flits._items.popleft()
                return
        pytest.skip("no flit in flight at this load")

    exc = corrupted_step_raises(Design.BACKPRESSURELESS, corrupt)
    assert "conservation" in str(exc)


def test_stranded_latched_flit_caught():
    def corrupt(net):
        packet = Packet(
            src=0, dst=1, vnet=VNETS[0], num_flits=1, created_at=0
        )
        net.routers[4]._latched.append(next(packet.flits()))

    # The stray flit breaks conservation *and* the latch invariant;
    # conservation runs first and already addresses the failure.
    corrupted_step_raises(Design.BACKPRESSURELESS, corrupt)


def test_phantom_switch_exit_caught_by_flow_counting():
    """Bumping a traversal counter fakes a switch exit without an
    entry — invisible to conservation (counters, not ledgers), caught
    by the per-cycle in-degree == out-degree accounting."""

    def corrupt(net):
        net.channels[0].flit_traversals += 1

    exc = corrupted_step_raises(Design.BACKPRESSURELESS, corrupt)
    assert "in-degree" in str(exc)


def test_ewma_corruption_caught():
    def corrupt(net):
        net.routers[4]._mode.ewma = 1e6

    exc = corrupted_step_raises(Design.AFC, corrupt)
    assert "EWMA" in str(exc)


def test_mode_fsm_corruption_caught():
    def corrupt(net):
        controller = net.routers[4]._mode
        controller.mode = Mode.TRANSITION
        controller.backpressured_from = None

    exc = corrupted_step_raises(Design.AFC, corrupt)
    assert "mode FSM illegal" in str(exc)


def test_lazy_vc_misfiled_flit_caught():
    """Moving a buffered flit into another vnet's VC bank is neutral to
    the conservation and occupancy totals — only the per-bucket
    legality check sees it."""

    def corrupt(net):
        for router in net.routers:
            for port in router._input_ports.values():
                for vnet in VNETS:
                    if port._by_vnet[vnet]:
                        other = VNETS[(vnet + 1) % len(VNETS)]
                        if len(port._by_vnet[other]) < port.capacity[other]:
                            flit = port._by_vnet[vnet].pop()
                            port._by_vnet[other].append(flit)
                            return
        pytest.skip("no buffered flit at this load")

    exc = corrupted_step_raises(Design.AFC, corrupt, rate=0.7)
    assert "filed under" in str(exc)


# -- mechanics ----------------------------------------------------------------
def test_attach_detach_restores_hook():
    net, _ = build(Design.AFC, 0.3)
    sanitizer = Sanitizer(net)
    assert net.pre_step_hook is None
    sanitizer.attach()
    assert net.pre_step_hook is not None
    sanitizer.detach()
    assert net.pre_step_hook is None
    sanitizer.detach()  # idempotent


def test_double_attach_rejected():
    net, _ = build(Design.AFC, 0.3)
    sanitizer = Sanitizer(net).attach()
    try:
        with pytest.raises(RuntimeError):
            sanitizer.attach()
    finally:
        sanitizer.detach()


def test_chains_behind_fault_injector():
    """The injector refuses to chain, so it installs first and the
    sanitizer wraps its hook; detach restores the injector's hook."""
    net, source = build(Design.BACKPRESSURED, 0.3)
    injector = FaultInjector(net, FaultSchedule.empty())
    injector_hook = net.pre_step_hook
    assert injector_hook is not None
    sanitizer = Sanitizer(net).attach()
    assert net.pre_step_hook is not injector_hook
    source.run(50)
    assert sanitizer.checks_run > 0
    sanitizer.detach()
    assert net.pre_step_hook is injector_hook


def test_every_n_thins_checks():
    net, source = build(Design.AFC, 0.3)
    with Sanitizer(net, every=10) as sanitizer:
        source.run(200)
    # Cycles 0, 10, ..., 190 plus the exit check.
    assert sanitizer.checks_run == 21


def test_invalid_every_rejected():
    net, _ = build(Design.AFC, 0.3)
    with pytest.raises(ValueError):
        Sanitizer(net, every=0)


def test_violation_pickles():
    """The exception must survive a ProcessPoolExecutor re-raise (the
    ``--jobs`` path of the experiment harness)."""
    exc = InvariantViolation("[cycle 412] node 4: boom", cycle=412, node=4)
    clone = pickle.loads(pickle.dumps(exc))
    assert str(clone) == "[cycle 412] node 4: boom"
    assert isinstance(clone, InvariantViolation)


def test_runner_sanitize_open_loop():
    runner = ExperimentRunner(
        warmup_cycles=100, measure_cycles=200, seeds=1, sanitize=True
    )
    result = runner.run_open_loop(Design.AFC, 0.3, source_queue_limit=200)
    assert result.throughput > 0


def test_runner_sanitize_closed_loop_parallel():
    """Sanitized closed-loop runs fan out across worker processes; a
    violation (none expected here) would re-raise through the pool."""
    from repro.traffic.workloads import WORKLOADS

    runner = ExperimentRunner(
        warmup_cycles=100,
        measure_cycles=200,
        seeds=2,
        jobs=2,
        sanitize=True,
    )
    result = runner.run_closed_loop(Design.AFC, WORKLOADS["barnes"])
    assert result.performance > 0
