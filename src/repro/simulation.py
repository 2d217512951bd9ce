"""Network construction and the cycle loop.

:class:`Network` assembles a mesh of routers of one design, wires the
channels, and drives the two-phase per-cycle protocol (deliver, then
step).  Routers interact exclusively through channel delay lines, so the
iteration order over routers is immaterial.

Two cycle engines drive that protocol (see docs/PERFORMANCE.md):

* ``engine="naive"`` — the reference loop: every router delivers and
  steps every cycle.
* ``engine="active"`` (default) — the active-set engine: quiescent
  routers (no resident flits, no pending source-queue work, empty
  attached channel pipes, no pending mode transition) are put to sleep
  and skipped; their per-cycle bookkeeping (EWMA decay, mode residency)
  is replayed in a batch on wake.  Results are bit-identical to the
  naive loop — the determinism test suite enforces this per design.

Typical use::

    from repro import Design, NetworkConfig, Network

    net = Network(NetworkConfig(), Design.AFC, seed=1)
    net.interface(0).offer(packet)
    net.run(10_000)
    print(net.stats.avg_packet_latency, net.measured_energy().total)
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Tuple

from .core.afc_router import AfcRouter
from .energy.model import (
    DEFAULT_ENERGY_PARAMETERS,
    EnergyBreakdown,
    EnergyParameters,
    OrionEnergyMeter,
    StaticEnergyCache,
)
from .network.config import Design, NetworkConfig
from .network.energy_hooks import EnergyMeter, NullEnergyMeter
from .network.interface import NetworkInterface
from .network.link import Channel
from .network.reassembly import CompletedPacket
from .network.router_base import BaseRouter
from .network.stats import StatsCollector
from .network.flit import Flit
from .routers.backpressured import BackpressuredRouter
from .routers.backpressureless import (
    BackpressurelessRouter,
    PriorityDeflectionRouter,
)
from .routers.dropping import DroppingRouter


def _make_router(
    design: Design,
    node: int,
    config: NetworkConfig,
    mesh,
    rng: random.Random,
    stats: StatsCollector,
    energy: EnergyMeter,
) -> BaseRouter:
    if design.is_backpressured_baseline:
        return BackpressuredRouter(
            node, config, mesh, rng, stats, energy, design=design
        )
    if design is Design.BACKPRESSURELESS:
        return BackpressurelessRouter(node, config, mesh, rng, stats, energy)
    if design is Design.BACKPRESSURELESS_PRIORITY:
        return PriorityDeflectionRouter(
            node, config, mesh, rng, stats, energy
        )
    if design is Design.BACKPRESSURELESS_DROPPING:
        return DroppingRouter(node, config, mesh, rng, stats, energy)
    return AfcRouter(node, config, mesh, rng, stats, energy, design=design)


class Network:
    """A complete simulated on-chip network of one design."""

    def __init__(
        self,
        config: NetworkConfig,
        design: Design,
        seed: int = 0,
        with_energy: bool = True,
        energy_params: EnergyParameters = DEFAULT_ENERGY_PARAMETERS,
        on_packet: Optional[Callable[[int, CompletedPacket], None]] = None,
        engine: str = "active",
    ) -> None:
        if engine not in ("active", "naive"):
            raise ValueError(f"unknown cycle engine {engine!r}")
        self.engine = engine
        self.config = config
        self.design = design
        self.mesh = config.mesh
        self.cycle = 0
        self.stats = StatsCollector(self.mesh.num_nodes)
        self.energy: EnergyMeter
        if with_energy:
            self.energy = OrionEnergyMeter(config, design, energy_params)
        else:
            self.energy = NullEnergyMeter()
        self._energy_base = EnergyBreakdown()

        self.routers: List[BaseRouter] = []
        self.interfaces: List[NetworkInterface] = []
        for node in range(self.mesh.num_nodes):
            # Per-router RNG streams keep results independent of router
            # iteration order and of each other.
            rng = random.Random(f"{seed}:{node}")
            router = _make_router(
                design, node, config, self.mesh, rng, self.stats, self.energy
            )
            callback = None
            if on_packet is not None:
                callback = (
                    lambda done, _node=node: on_packet(_node, done)
                )
            ni = NetworkInterface(node, self.stats, on_packet=callback)
            router.attach_interface(ni)
            self.routers.append(router)
            self.interfaces.append(ni)

        #: Dropped packets awaiting retransmission: (due_cycle, seq, pkt).
        self._retransmit_heap: List[Tuple[int, int, object]] = []
        self._retransmit_seq = itertools.count()
        #: Packet ids with a retransmission already scheduled (several
        #: flits of one packet may be dropped before it is resent).
        self._retransmit_pending: set = set()
        #: Flits that vanished at a dropping router (their packet is
        #: resent in full); part of the conservation ledger.
        self.flits_discarded = 0
        #: Optional per-cycle hook run before the deliver phase, called
        #: with the cycle number (repro.faults.FaultInjector).  One
        #: ``is None`` check per cycle when absent.
        self.pre_step_hook: Optional[Callable[[int], None]] = None
        #: Optional per-cycle hook run after the step phase, called with
        #: the cycle number that just completed
        #: (repro.analysis.probes.TimeSeriesProbe).  One ``is None``
        #: check per cycle when absent.
        self.post_step_hook: Optional[Callable[[int], None]] = None
        for router in self.routers:
            if isinstance(router, DroppingRouter):
                router.drop_notify = self._packet_dropped

        self.channels: List[Channel] = []
        for src, direction, dst in self.mesh.links():
            channel = Channel(src, direction, dst, config.link_latency)
            self.routers[src].attach_output(direction, channel)
            self.routers[dst].attach_input(direction.opposite, channel)
            self.channels.append(channel)
        for router in self.routers:
            router.finalize()  # type: ignore[attr-defined]

        # -- active-set engine state (see _step_fast) -----------------------
        n = self.mesh.num_nodes
        self._num_nodes = n
        #: True for routers currently skipped by the cycle loop.  Every
        #: router starts awake so client code may poke state before the
        #: engine has ever observed the router quiescent.
        self._asleep: List[bool] = [False] * n
        #: Last cycle whose bookkeeping has been applied (only
        #: meaningful while the router is asleep).
        self._slept_through: List[int] = [0] * n
        #: Pending wake events as a (cycle, node) min-heap.  Spurious
        #: entries are harmless: waking a still-quiescent router makes
        #: it run ordinary idle steps, which evolve its state exactly as
        #: batched catch-up would.
        self._wake_heap: List[Tuple[int, int]] = []
        self._todo: List[int] = []
        self._stepped: List[int] = []
        self._in_step_phase = False
        self._current_node = -1
        self._static_cache: Optional[StaticEnergyCache] = None
        if self.engine == "active":
            if isinstance(self.energy, OrionEnergyMeter):
                self._static_cache = StaticEnergyCache(
                    self.energy, self.routers
                )
            for node, ni in enumerate(self.interfaces):
                ni.on_activity = (
                    lambda _node=node: self._notify_activity(_node)
                )

    # -- client access ------------------------------------------------------
    def interface(self, node: int) -> NetworkInterface:
        return self.interfaces[node]

    def router(self, node: int) -> BaseRouter:
        return self.routers[node]

    # -- retransmission (dropping flow control only) -----------------------------
    def _packet_dropped(self, flit: Flit, at_cycle: int) -> None:
        """A dropping router discarded ``flit``.

        SCARAB-style semantics: the *whole packet* is retransmitted
        from the source once the NACK arrives.  The packet's epoch is
        bumped immediately so every sibling flit still in flight (or
        queued) becomes stale and is discarded at the destination.
        """
        self.flits_discarded += 1
        packet = flit.packet
        if flit.epoch < packet.epoch:
            return  # stale flit of a superseded attempt: discard only
        if packet.pid in self._retransmit_pending:
            return  # retransmission already scheduled for this epoch
        packet.epoch += 1
        self._retransmit_pending.add(packet.pid)
        heapq.heappush(
            self._retransmit_heap,
            (at_cycle, next(self._retransmit_seq), packet),
        )

    def _deliver_retransmits(self, cycle: int) -> None:
        while self._retransmit_heap and self._retransmit_heap[0][0] <= cycle:
            _, _, packet = heapq.heappop(self._retransmit_heap)
            self._retransmit_pending.discard(packet.pid)
            purged = self.interfaces[packet.src].offer_retransmission(packet)
            self.flits_discarded += purged

    @property
    def flits_awaiting_retransmit(self) -> int:
        """Flits of dropped packets not yet re-offered at their source."""
        return sum(
            packet.num_flits for _, _, packet in self._retransmit_heap
        )

    # -- cycle loop -----------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle."""
        if self.pre_step_hook is not None:
            self.pre_step_hook(self.cycle)
        if self.engine == "active":
            self._step_fast()
        else:
            self._step_naive()
        if self.post_step_hook is not None:
            self.post_step_hook(self.cycle - 1)

    def _step_naive(self) -> None:
        """Reference loop: every router delivers and steps every cycle."""
        cycle = self.cycle
        self._deliver_retransmits(cycle)
        for router in self.routers:
            router.deliver(cycle)
        for router in self.routers:
            router.step(cycle)
        self.energy.static_cycle(self.routers)
        self.stats.tick()
        self.cycle += 1

    def _step_fast(self) -> None:
        """Active-set loop: deliver/step only the awake routers.

        The awake set is maintained so that a sleeping router's deliver
        and step would both be no-ops apart from bookkeeping replayed by
        ``catch_up`` — see docs/PERFORMANCE.md for the invariants.
        """
        cycle = self.cycle
        asleep = self._asleep
        routers = self.routers
        heap = self._wake_heap
        while heap and heap[0][0] <= cycle:
            node = heapq.heappop(heap)[1]
            if asleep[node]:
                self._wake(node, cycle)
        if self._retransmit_heap:
            self._deliver_retransmits(cycle)  # wakes sources via NI hook
        # The sorted awake list doubles as a valid min-heap, so routers
        # woken mid-phase (an NI offer from a packet completing at a
        # node the loop has not reached yet) can join this cycle in node
        # order — matching the naive loop's iteration exactly.  The
        # buffer is persistent: at saturation every router is awake and
        # a fresh n-element list per cycle is measurable churn.
        todo = self._todo
        todo.clear()
        for n in range(self._num_nodes):
            if not asleep[n]:
                routers[n].deliver(cycle)
                todo.append(n)
        stepped = self._stepped
        stepped.clear()
        self._in_step_phase = True
        while todo:
            n = heapq.heappop(todo)
            self._current_node = n
            routers[n].step(cycle)
            stepped.append(n)
        self._in_step_phase = False
        self._current_node = -1
        cache = self._static_cache
        if cache is not None:
            cache.tick(stepped)
        else:
            self.energy.static_cycle(routers)
        self.stats.tick()
        for n in stepped:
            if not asleep[n]:
                router = routers[n]
                if router.is_quiescent() and self._pipes_empty(router):
                    self._sleep(n, cycle)
        self.cycle += 1

    # -- active-set maintenance ------------------------------------------------
    @staticmethod
    def _pipes_empty(router: BaseRouter) -> bool:
        """No flit is in flight toward the router and no backflow
        (credit / mode notice) is in flight toward it either.

        Reads the routers' frozen channel snapshots and the delay
        lines' deques directly: this runs for every stepped router
        every cycle, and dict views / property hops showed up in
        saturation profiles.
        """
        in_list = router._in_list
        out_list = router._out_list
        if in_list is None or out_list is None:
            in_list = tuple(router.in_channels.items())
            out_list = tuple(router.out_channels.items())
        for _direction, channel in in_list:
            if channel._flits._items:
                return False
        for _direction, channel in out_list:
            if channel._backflow._items:
                return False
        return True

    def _sleep(self, node: int, cycle: int) -> None:
        """Demote a quiescent router after its step at ``cycle``."""
        self._asleep[node] = True
        self._slept_through[node] = cycle
        router = self.routers[node]
        hook = lambda ready, _node=node: self._schedule_wake(_node, ready)
        for channel in router.in_channels.values():
            channel.wake_flit = hook
        for channel in router.out_channels.values():
            channel.wake_backflow = hook
        wake_in = router.self_wake_in()
        if wake_in is not None:
            heapq.heappush(self._wake_heap, (cycle + wake_in, node))

    def _wake(self, node: int, wake_cycle: int) -> None:
        """Promote a router so it participates in ``wake_cycle``,
        replaying the bookkeeping of the cycles it slept through."""
        self._asleep[node] = False
        router = self.routers[node]
        for channel in router.in_channels.values():
            channel.wake_flit = None
        for channel in router.out_channels.values():
            channel.wake_backflow = None
        router.catch_up(wake_cycle - 1 - self._slept_through[node])

    def _schedule_wake(self, node: int, at_cycle: int) -> None:
        """Channel hook: something is in flight toward a sleeping
        router, deliverable at ``at_cycle`` (always a future cycle —
        every pipe has latency >= 1)."""
        if self._asleep[node]:
            heapq.heappush(self._wake_heap, (at_cycle, node))

    def _notify_activity(self, node: int) -> None:
        """NI hook: ``node``'s source queue just gained flits."""
        if not self._asleep[node]:
            return
        cycle = self.cycle
        if self._in_step_phase and node <= self._current_node:
            # The step loop already passed this node, exactly as the
            # naive loop would have stepped it before the offer landed:
            # it missed this cycle, so replay its bookkeeping through
            # ``cycle`` and let it participate from the next cycle.
            self._wake(node, cycle + 1)
        else:
            # Still reachable this cycle.  Skipping its deliver was
            # exact — a sleeping router's pipes are empty.
            self._wake(node, cycle)
            if self._in_step_phase:
                heapq.heappush(self._todo, node)

    def sync_bookkeeping(self) -> None:
        """Apply deferred bookkeeping of sleeping routers through the
        last completed cycle (they stay asleep).

        Call before reading lazily-maintained per-router state (EWMA
        load estimates, mode-residency counters) mid-run; ``run``,
        ``drain`` and ``begin_measurement`` call it themselves.
        """
        if self.engine != "active":
            return
        upto = self.cycle - 1
        for node, sleeping in enumerate(self._asleep):
            if sleeping and self._slept_through[node] < upto:
                self.routers[node].catch_up(upto - self._slept_through[node])
                self._slept_through[node] = upto

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()
        self.sync_bookkeeping()

    def drain(self, max_cycles: int = 100_000) -> int:
        """Run until every offered flit has been delivered.

        Returns the number of extra cycles taken; raises if the network
        fails to drain within ``max_cycles`` (a deadlock/livelock
        indicator in tests).
        """
        start = self.cycle
        while self.flits_unaccounted > 0:
            if self.cycle - start >= max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles; "
                    f"{self.flits_unaccounted} flits outstanding"
                )
            self.step()
        self.sync_bookkeeping()
        return self.cycle - start

    # -- measurement windows -------------------------------------------------------
    def begin_measurement(self) -> None:
        """End warmup: zero the statistics and energy windows."""
        # Deferred residency/EWMA bookkeeping must land on the warmup
        # side of the reset.
        self.sync_bookkeeping()
        self.stats.reset_measurement(self.cycle)
        if isinstance(self.energy, OrionEnergyMeter):
            self._energy_base = self.energy.snapshot()

    def measured_energy(self) -> EnergyBreakdown:
        """Energy accumulated since :meth:`begin_measurement`."""
        if isinstance(self.energy, OrionEnergyMeter):
            return self.energy.since(self._energy_base)
        return EnergyBreakdown()

    # -- invariants ----------------------------------------------------------------
    @property
    def flits_in_network(self) -> int:
        """Flits in links, latches and buffers (not source queues)."""
        in_links = sum(ch.flits_in_flight for ch in self.channels)
        in_routers = sum(r.resident_flits() for r in self.routers)
        return in_links + in_routers

    @property
    def flits_at_sources(self) -> int:
        return sum(ni.source_queue_flits for ni in self.interfaces)

    @property
    def flits_unaccounted(self) -> int:
        """Work still owed to clients: flits in sources or the network,
        plus packets awaiting retransmission (used by :meth:`drain` as
        the progress condition)."""
        return (
            self.flits_in_network
            + self.flits_at_sources
            + self.flits_awaiting_retransmit
        )

    def check_flit_conservation(self) -> None:
        """Offered == delivered + in-network + still-at-source.

        Uses the interfaces' absolute counters (not the resettable
        measurement-window statistics), so it is valid at any point of
        a simulation, including after ``begin_measurement``.  Cheap
        enough to call every few cycles in tests; raises on any loss or
        duplication.
        """
        offered = sum(ni.flits_offered_total for ni in self.interfaces)
        delivered = sum(ni.flits_ejected_total for ni in self.interfaces)
        outstanding = self.flits_in_network + self.flits_at_sources
        discarded = self.flits_discarded
        if offered != delivered + outstanding + discarded:
            raise RuntimeError(
                f"flit conservation violated: offered={offered}, "
                f"delivered={delivered}, outstanding={outstanding}, "
                f"discarded={discarded}"
            )
