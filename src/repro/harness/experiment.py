"""Warmed-up, multi-seed experiment runs.

The paper's methodology (Section IV): closed-loop execution of
multi-threaded workloads for performance/energy (Figures 2–3, repeated
"multiple times to account for statistical variations"), plus open-loop
synthetic traffic for the saturation and spatial-variation studies.
:class:`ExperimentRunner` reproduces that discipline — every run is
warmup → ``begin_measurement`` → measure, and every reported number is
a mean over seeds with its standard deviation (the paper's variance
bars).
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..analysis.sanitizer import Sanitizer
from ..energy.model import EnergyBreakdown
from ..faults import FaultInjector, FaultSpec, ProtectionConfig
from ..memsys.system import MemorySystem
from ..network.config import (
    DEFAULT_MACHINE_CONFIG,
    Design,
    MachineConfig,
    NetworkConfig,
)
from ..network.flit import reset_packet_ids
from ..obs.hub import Observability, ObservabilityOptions
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import clear_run, publish_run
from ..simulation import Network
from ..traffic.patterns import TrafficPattern
from ..traffic.synthetic import OpenLoopSource, PacketMix
from ..traffic.workloads import WorkloadProfile

#: The four designs shown in every performance graph of Figure 2.
MAIN_DESIGNS: Tuple[Design, ...] = (
    Design.BACKPRESSURED,
    Design.BACKPRESSURELESS,
    Design.AFC,
    Design.AFC_ALWAYS_BACKPRESSURED,
)

#: Figure 2(b) additionally shows the ideal-bypass energy bound, which
#: "is relevant" only for the low-load energy comparison.
ENERGY_DESIGNS_LOW_LOAD: Tuple[Design, ...] = MAIN_DESIGNS + (
    Design.BACKPRESSURED_IDEAL_BYPASS,
)


def _maybe_sanitize(net: Network, enabled: bool):
    """A :class:`~repro.analysis.sanitizer.Sanitizer` attached to
    ``net`` when ``enabled``, else a no-op context.  With the sanitizer
    off nothing touches ``net.pre_step_hook``, so the run stays on the
    zero-overhead fast path and is bit-identical to an unsanitized one.

    Faulted runs (:meth:`ExperimentRunner.run_faulted`) deliberately do
    not support sanitizing: injected faults break the very credit and
    conservation invariants the sanitizer asserts (the protection layer
    repairs them out-of-band via its own resync, see
    ``FaultInjector._resync_afc``)."""
    if enabled:
        return Sanitizer(net)
    return nullcontext()


def _make_observer(net: Network, options) -> Optional[Observability]:
    """An attached :class:`~repro.obs.Observability` when ``options``
    enables anything, else ``None`` (the hooks stay unset and the run
    is bit-identical to an unobserved one)."""
    if options is None or not options.enabled:
        return None
    return Observability(net, options).attach()


def _merge_observability(payloads: Sequence[Optional[dict]]) -> Optional[dict]:
    """Combine per-seed observability payloads into one result payload.

    Metrics registries from *all* seeds merge (counters/histograms add,
    in seed order, so the merged registry is identical at any ``--jobs``
    because :func:`map_jobs` preserves input order).  Trace and profile
    payloads come from a single seed by construction (see
    :meth:`ExperimentRunner._obs_for_seed`) and pass through."""
    present = [p for p in payloads if p]
    if not present:
        return None
    merged: dict = {}
    registries = [p["metrics"] for p in present if "metrics" in p]
    if registries:
        registry = MetricsRegistry()
        for flat in registries:
            registry.merge(MetricsRegistry.from_dict(flat))
        merged["metrics"] = registry.to_dict()
    for key in ("trace_summary", "trace", "profile", "probe"):
        for payload in present:
            if key in payload:
                merged[key] = payload[key]
                break
    return merged or None


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


_T = TypeVar("_T")
_J = TypeVar("_J")


def fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` where the
    platform does not offer it (then everything runs serially)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def map_jobs(
    worker: Callable[[_J], _T], jobs_args: Sequence[_J], jobs: int
) -> List[_T]:
    """Run ``worker`` over ``jobs_args``, results in input order.

    With ``jobs > 1`` and a usable ``fork`` start method the work fans
    out across a :class:`ProcessPoolExecutor`; otherwise it runs
    serially in-process.  ``pool.map`` preserves input order, and every
    job is an independent simulation deriving its own seeds, so the
    merged statistics are identical either way — parallelism changes
    wall-clock time only.
    """
    ctx = fork_context()
    if jobs <= 1 or len(jobs_args) <= 1 or ctx is None:
        return [worker(args) for args in jobs_args]
    workers = min(jobs, len(jobs_args))
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(worker, jobs_args))


@dataclass(frozen=True)
class _ClosedLoopJob:
    """Picklable description of one closed-loop (seed) run."""

    config: NetworkConfig
    machine: MachineConfig
    warmup_cycles: int
    measure_cycles: int
    design: Design
    workload: WorkloadProfile
    seed: int
    sanitize: bool = False
    obs: Optional[ObservabilityOptions] = None


@dataclass(frozen=True)
class _ClosedLoopSample:
    performance: float
    energy_per_txn: float
    breakdown_per_txn: EnergyBreakdown
    injection_rate: float
    avg_packet_latency: float
    avg_miss_latency: float
    backpressured_fraction: float
    forward_switches: float
    reverse_switches: float
    gossip_switches: float
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    observability: Optional[dict] = None


def _run_closed_loop_seed(job: _ClosedLoopJob) -> _ClosedLoopSample:
    """One warmed-up closed-loop run (module-level so it pickles).

    Every RNG is seeded from the job alone, and nothing in a run
    depends on the *absolute* value of the global packet-id counter
    (ids only ever tie-break orderings, which offsets preserve), so a
    sample is the same whether computed in-process or in a fresh
    worker.  The reset keeps long sweeps from growing the counter
    without bound.
    """
    reset_packet_ids()
    net = Network(job.config, job.design, seed=job.seed)
    system = MemorySystem(
        net, job.workload, machine=job.machine, seed=1000 + job.seed
    )
    observer = _make_observer(net, job.obs)
    # One attribute rebind per run: lets a LiveSeedPublisher thread in
    # a service worker stream progress; invisible to the simulation.
    publish_run(net, observer.registry if observer is not None else None)
    try:
        with _maybe_sanitize(net, job.sanitize):
            system.run(job.warmup_cycles)
            system.begin_measurement()
            system.run(job.measure_cycles)
    finally:
        if observer is not None:
            observer.detach()
        clear_run()
    txns = max(1, system.transactions_completed)
    energy = net.measured_energy()
    stats = net.stats
    modes = stats.mode_stats.values()
    return _ClosedLoopSample(
        performance=system.transactions_per_kilocycle_per_core,
        energy_per_txn=energy.total / txns,
        breakdown_per_txn=EnergyBreakdown(
            buffer_dynamic=energy.buffer_dynamic / txns,
            buffer_static=energy.buffer_static / txns,
            link=energy.link / txns,
            crossbar=energy.crossbar / txns,
            arbiter=energy.arbiter / txns,
            latch=energy.latch / txns,
            credit=energy.credit / txns,
            logic_static=energy.logic_static / txns,
        ),
        injection_rate=stats.injection_rate,
        avg_packet_latency=stats.avg_packet_latency,
        avg_miss_latency=system.avg_miss_latency,
        backpressured_fraction=stats.network_backpressured_fraction,
        forward_switches=sum(m.forward_switches for m in modes),
        reverse_switches=sum(m.reverse_switches for m in modes),
        gossip_switches=stats.total_gossip_switches,
        p50_packet_latency=stats.p50_packet_latency,
        p95_packet_latency=stats.p95_packet_latency,
        p99_packet_latency=stats.p99_packet_latency,
        observability=observer.payload() if observer is not None else None,
    )


@dataclass(frozen=True)
class _OpenLoopJob:
    """Picklable description of one open-loop (seed) run."""

    config: NetworkConfig
    warmup_cycles: int
    measure_cycles: int
    design: Design
    rate: Union[float, Tuple[float, ...]]
    pattern: Optional[TrafficPattern]
    mix: PacketMix
    latency_groups: Tuple[Tuple[str, Tuple[int, ...]], ...]
    source_queue_limit: Optional[int]
    seed: int
    sanitize: bool = False
    obs: Optional[ObservabilityOptions] = None


@dataclass(frozen=True)
class _OpenLoopSample:
    throughput: float
    avg_network_latency: float
    avg_packet_latency: float
    deflection_rate: float
    energy_per_flit: float
    breakdown: EnergyBreakdown
    backpressured_fraction: float
    gossip_switches: float
    group_latency: Tuple[Tuple[str, float], ...]
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    observability: Optional[dict] = None


def _run_open_loop_seed(job: _OpenLoopJob) -> _OpenLoopSample:
    """One warmed-up open-loop run (module-level so it pickles)."""
    reset_packet_ids()
    net = Network(job.config, job.design, seed=job.seed)
    source = OpenLoopSource(
        net,
        job.rate,
        pattern=job.pattern,
        mix=job.mix,
        seed=2000 + job.seed,
        source_queue_limit=job.source_queue_limit,
    )
    observer = _make_observer(net, job.obs)
    publish_run(net, observer.registry if observer is not None else None)
    try:
        with _maybe_sanitize(net, job.sanitize):
            source.run(job.warmup_cycles)
            net.begin_measurement()
            source.run(job.measure_cycles)
    finally:
        if observer is not None:
            observer.detach()
        clear_run()
    stats = net.stats
    energy = net.measured_energy()
    flits = max(1, stats.flits_ejected)
    groups = []
    for name, nodes in job.latency_groups:
        members = set(nodes)
        lat_sum = sum(stats.per_node_latency_sum[n] for n in members)
        count = sum(stats.per_node_completed[n] for n in members)
        groups.append((name, lat_sum / count if count else 0.0))
    return _OpenLoopSample(
        throughput=stats.throughput,
        avg_network_latency=stats.avg_network_latency,
        avg_packet_latency=stats.avg_packet_latency,
        deflection_rate=stats.deflection_rate,
        energy_per_flit=energy.total / flits,
        breakdown=energy,
        backpressured_fraction=stats.network_backpressured_fraction,
        gossip_switches=stats.total_gossip_switches,
        group_latency=tuple(groups),
        p50_packet_latency=stats.p50_packet_latency,
        p95_packet_latency=stats.p95_packet_latency,
        p99_packet_latency=stats.p99_packet_latency,
        observability=observer.payload() if observer is not None else None,
    )


@dataclass(frozen=True)
class _FaultJob:
    """Picklable description of one faulted (seed) run.

    Carries the :class:`FaultSpec` (a recipe), not the expanded
    schedule: the worker derives the schedule from ``(spec, seed)``
    alone, so fault experiments are reproducible regardless of which
    worker process runs which seed (the ``--jobs`` satellite fix)."""

    config: NetworkConfig
    warmup_cycles: int
    measure_cycles: int
    design: Design
    rate: float
    spec: FaultSpec
    protection: Optional[ProtectionConfig]
    drain_max_cycles: int
    seed: int


@dataclass(frozen=True)
class _FaultSample:
    delivered_packet_rate: float
    delivered_flit_rate: float
    avg_packet_latency: float
    throughput: float
    fault_events: int
    flits_corrupted: int
    credits_lost: int
    retransmissions: int
    packets_orphaned: int
    credit_resyncs: int
    reroutes: int
    avg_time_to_reroute: float
    drain_cycles: int


def _run_fault_seed(job: _FaultJob) -> _FaultSample:
    """One faulted open-loop run (module-level so it pickles).

    No mid-run measurement reset: the statistics window covers the
    whole run including the drain tail, so after draining
    ``packets_completed == packets_injected - packets_orphaned`` holds
    exactly and the delivered rates are true fractions.  The warmup
    merely delays fault onset (the schedule starts at
    ``warmup_cycles``) so faults hit a loaded network."""
    reset_packet_ids()
    net = Network(job.config, job.design, seed=job.seed)
    schedule = job.spec.schedule(
        net.mesh,
        start=job.warmup_cycles,
        horizon=job.measure_cycles,
        salt=job.seed,
    )
    injector = FaultInjector(net, schedule, protection=job.protection)
    source = OpenLoopSource(
        net, job.rate, seed=2000 + job.seed, source_queue_limit=2_000
    )
    publish_run(net)
    try:
        source.run(job.warmup_cycles + job.measure_cycles)
        drained = injector.drain(max_cycles=job.drain_max_cycles)
    finally:
        clear_run()
    stats = net.stats
    return _FaultSample(
        delivered_packet_rate=stats.delivered_despite_fault_rate,
        delivered_flit_rate=stats.delivered_flit_rate,
        avg_packet_latency=stats.avg_packet_latency,
        throughput=stats.throughput,
        fault_events=stats.fault_events,
        flits_corrupted=stats.flits_corrupted,
        credits_lost=stats.credits_lost,
        retransmissions=stats.protection_retransmissions,
        packets_orphaned=stats.packets_orphaned,
        credit_resyncs=stats.credit_resyncs,
        reroutes=stats.reroutes,
        avg_time_to_reroute=stats.avg_time_to_reroute,
        drain_cycles=drained,
    )


def _mean_breakdown(parts: Sequence[EnergyBreakdown]) -> EnergyBreakdown:
    n = len(parts)
    return EnergyBreakdown(
        buffer_dynamic=sum(p.buffer_dynamic for p in parts) / n,
        buffer_static=sum(p.buffer_static for p in parts) / n,
        link=sum(p.link for p in parts) / n,
        crossbar=sum(p.crossbar for p in parts) / n,
        arbiter=sum(p.arbiter for p in parts) / n,
        latch=sum(p.latch for p in parts) / n,
        credit=sum(p.credit for p in parts) / n,
        logic_static=sum(p.logic_static for p in parts) / n,
    )


def aggregate_closed_loop(
    design: Design,
    workload_name: str,
    samples: Sequence[_ClosedLoopSample],
) -> "ClosedLoopResult":
    """Fold per-seed closed-loop samples into one result.

    Pure and deterministic: the result is a function of the sample
    sequence alone (order included — observability payloads merge in
    seed order), so an aggregate over samples recovered from the
    experiment service's seed checkpoints is bit-identical to one over
    freshly computed samples."""
    perf_mean, perf_std = _mean_std([s.performance for s in samples])
    energy_mean, energy_std = _mean_std([s.energy_per_txn for s in samples])
    return ClosedLoopResult(
        design=design,
        workload=workload_name,
        seeds=len(samples),
        performance=perf_mean,
        performance_std=perf_std,
        energy_per_txn=energy_mean,
        energy_per_txn_std=energy_std,
        breakdown_per_txn=_mean_breakdown(
            [s.breakdown_per_txn for s in samples]
        ),
        injection_rate=statistics.fmean(
            s.injection_rate for s in samples
        ),
        avg_packet_latency=statistics.fmean(
            s.avg_packet_latency for s in samples
        ),
        avg_miss_latency=statistics.fmean(
            s.avg_miss_latency for s in samples
        ),
        backpressured_fraction=statistics.fmean(
            s.backpressured_fraction for s in samples
        ),
        forward_switches=statistics.fmean(
            s.forward_switches for s in samples
        ),
        reverse_switches=statistics.fmean(
            s.reverse_switches for s in samples
        ),
        gossip_switches=statistics.fmean(
            s.gossip_switches for s in samples
        ),
        p50_packet_latency=statistics.fmean(
            s.p50_packet_latency for s in samples
        ),
        p95_packet_latency=statistics.fmean(
            s.p95_packet_latency for s in samples
        ),
        p99_packet_latency=statistics.fmean(
            s.p99_packet_latency for s in samples
        ),
        observability=_merge_observability(
            [s.observability for s in samples]
        ),
    )


def aggregate_open_loop(
    design: Design,
    offered_rate: float,
    samples: Sequence[_OpenLoopSample],
) -> "OpenLoopResult":
    """Fold per-seed open-loop samples into one result (see
    :func:`aggregate_closed_loop` for the determinism contract)."""
    group_sums: Dict[str, List[float]] = {}
    for sample in samples:
        for name, value in sample.group_latency:
            group_sums.setdefault(name, []).append(value)
    lat_mean, lat_std = _mean_std([s.avg_network_latency for s in samples])
    return OpenLoopResult(
        design=design,
        offered_rate=offered_rate,
        seeds=len(samples),
        throughput=statistics.fmean(s.throughput for s in samples),
        avg_network_latency=lat_mean,
        latency_std=lat_std,
        avg_packet_latency=statistics.fmean(
            s.avg_packet_latency for s in samples
        ),
        deflection_rate=statistics.fmean(
            s.deflection_rate for s in samples
        ),
        energy_per_flit=statistics.fmean(
            s.energy_per_flit for s in samples
        ),
        breakdown=_mean_breakdown([s.breakdown for s in samples]),
        backpressured_fraction=statistics.fmean(
            s.backpressured_fraction for s in samples
        ),
        gossip_switches=statistics.fmean(
            s.gossip_switches for s in samples
        ),
        group_latency={
            name: statistics.fmean(vals)
            for name, vals in group_sums.items()
        },
        p50_packet_latency=statistics.fmean(
            s.p50_packet_latency for s in samples
        ),
        p95_packet_latency=statistics.fmean(
            s.p95_packet_latency for s in samples
        ),
        p99_packet_latency=statistics.fmean(
            s.p99_packet_latency for s in samples
        ),
        observability=_merge_observability(
            [s.observability for s in samples]
        ),
    )


def aggregate_faulted(
    design: Design,
    offered_rate: float,
    samples: Sequence[_FaultSample],
) -> "FaultResult":
    """Fold per-seed faulted samples into one result (see
    :func:`aggregate_closed_loop` for the determinism contract)."""
    return FaultResult(
        design=design,
        offered_rate=offered_rate,
        seeds=len(samples),
        delivered_packet_rate=statistics.fmean(
            s.delivered_packet_rate for s in samples
        ),
        delivered_flit_rate=statistics.fmean(
            s.delivered_flit_rate for s in samples
        ),
        avg_packet_latency=statistics.fmean(
            s.avg_packet_latency for s in samples
        ),
        throughput=statistics.fmean(s.throughput for s in samples),
        fault_events=statistics.fmean(s.fault_events for s in samples),
        flits_corrupted=statistics.fmean(
            s.flits_corrupted for s in samples
        ),
        credits_lost=statistics.fmean(s.credits_lost for s in samples),
        retransmissions=statistics.fmean(
            s.retransmissions for s in samples
        ),
        packets_orphaned=statistics.fmean(
            s.packets_orphaned for s in samples
        ),
        credit_resyncs=statistics.fmean(
            s.credit_resyncs for s in samples
        ),
        reroutes=statistics.fmean(s.reroutes for s in samples),
        avg_time_to_reroute=statistics.fmean(
            s.avg_time_to_reroute for s in samples
        ),
        drain_cycles=statistics.fmean(s.drain_cycles for s in samples),
    )


@dataclass
class ClosedLoopResult:
    """Multi-seed summary of one (design, workload) closed-loop run."""

    design: Design
    workload: str
    seeds: int
    #: Transactions per kilocycle per core (inverse execution time).
    performance: float
    performance_std: float
    #: Network energy per completed transaction (fixed-work energy), pJ.
    energy_per_txn: float
    energy_per_txn_std: float
    #: Mean per-seed component breakdown, per transaction (pJ).
    breakdown_per_txn: EnergyBreakdown
    injection_rate: float
    avg_packet_latency: float
    avg_miss_latency: float
    backpressured_fraction: float
    forward_switches: float
    reverse_switches: float
    gossip_switches: float
    #: Histogram-backed latency percentiles (mean over seeds, cycles).
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    #: Merged observability payload (metrics from all seeds; trace /
    #: profile from the first); ``None`` when observability is off.
    observability: Optional[dict] = None


@dataclass
class FaultResult:
    """Multi-seed summary of one (design, rate, fault-spec) run."""

    design: Design
    offered_rate: float
    seeds: int
    #: Fraction of offered packets delivered (exactly once) by the end
    #: of the drain — the headline resilience metric.
    delivered_packet_rate: float
    #: Fraction of offered flits belonging to completed packets.
    delivered_flit_rate: float
    avg_packet_latency: float
    throughput: float
    fault_events: float
    flits_corrupted: float
    credits_lost: float
    retransmissions: float
    packets_orphaned: float
    credit_resyncs: float
    reroutes: float
    avg_time_to_reroute: float
    drain_cycles: float


@dataclass
class OpenLoopResult:
    """Multi-seed summary of one (design, rate, pattern) open-loop run."""

    design: Design
    offered_rate: float
    seeds: int
    throughput: float
    avg_network_latency: float
    latency_std: float
    avg_packet_latency: float
    deflection_rate: float
    #: Network energy per delivered flit, pJ.
    energy_per_flit: float
    breakdown: EnergyBreakdown
    backpressured_fraction: float
    gossip_switches: float
    #: Mean network latency restricted to packets destined to
    #: ``latency_by_group`` node groups (spatial-variation experiment).
    group_latency: Dict[str, float] = field(default_factory=dict)
    #: Histogram-backed latency percentiles (mean over seeds, cycles).
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    #: Merged observability payload (metrics from all seeds; trace /
    #: profile from the first); ``None`` when observability is off.
    observability: Optional[dict] = None


class ExperimentRunner:
    """Builds, warms and measures simulations for one network config."""

    def __init__(
        self,
        config: Optional[NetworkConfig] = None,
        machine: MachineConfig = DEFAULT_MACHINE_CONFIG,
        warmup_cycles: int = 4_000,
        measure_cycles: int = 10_000,
        seeds: int = 2,
        jobs: int = 1,
        base_seed: int = 0,
        sanitize: bool = False,
        obs: Optional[ObservabilityOptions] = None,
    ) -> None:
        self.config = config if config is not None else NetworkConfig()
        self.machine = machine
        self.warmup_cycles = warmup_cycles
        self.measure_cycles = measure_cycles
        self.seeds = seeds
        #: Worker processes for the per-seed runs; 1 = serial.  Results
        #: are bit-identical at any job count (see :func:`map_jobs`).
        self.jobs = jobs
        #: First per-run seed; runs use ``base_seed .. base_seed+seeds-1``.
        #: Explicit so every RNG stream (traffic, per-router, fault
        #: schedules) derives from the job description alone — worker
        #: scheduling can never shift which seed a run gets.
        self.base_seed = base_seed
        #: Attach the runtime invariant sanitizer to every (non-faulted)
        #: run; a violation raises through :func:`map_jobs`.
        self.sanitize = sanitize
        #: Observability options applied to closed/open-loop runs;
        #: ``None`` (the default) leaves every hook unset.
        self.obs = obs

    def _seed_range(self) -> range:
        return range(self.base_seed, self.base_seed + self.seeds)

    def _obs_for_seed(self, index: int) -> Optional[ObservabilityOptions]:
        """Per-seed observability: metrics come from every seed (they
        merge), but trace / profiler / probe payloads only make sense
        for a single run, so only the first seed collects them."""
        if self.obs is None or not self.obs.enabled:
            return None
        if index == 0:
            return self.obs
        trimmed = replace(
            self.obs, trace=False, profile=False, probe_every=0
        )
        return trimmed if trimmed.enabled else None

    # -- closed loop ----------------------------------------------------------
    def run_closed_loop(
        self, design: Design, workload: WorkloadProfile
    ) -> ClosedLoopResult:
        samples = map_jobs(
            run_closed_loop_seed,
            [
                _ClosedLoopJob(
                    config=self.config,
                    machine=self.machine,
                    warmup_cycles=self.warmup_cycles,
                    measure_cycles=self.measure_cycles,
                    design=design,
                    workload=workload,
                    seed=seed,
                    sanitize=self.sanitize,
                    obs=self._obs_for_seed(index),
                )
                for index, seed in enumerate(self._seed_range())
            ],
            self.jobs,
        )
        return aggregate_closed_loop(design, workload.name, samples)

    # -- open loop ----------------------------------------------------------------
    def run_open_loop(
        self,
        design: Design,
        rate: Union[float, Sequence[float]],
        pattern: Optional[TrafficPattern] = None,
        mix: PacketMix = PacketMix(),
        latency_groups: Optional[Dict[str, Sequence[int]]] = None,
        source_queue_limit: Optional[int] = 2_000,
    ) -> OpenLoopResult:
        groups = tuple(
            (name, tuple(nodes))
            for name, nodes in (latency_groups or {}).items()
        )
        job_rate = (
            rate if isinstance(rate, (int, float)) else tuple(rate)
        )
        samples = map_jobs(
            run_open_loop_seed,
            [
                _OpenLoopJob(
                    config=self.config,
                    warmup_cycles=self.warmup_cycles,
                    measure_cycles=self.measure_cycles,
                    design=design,
                    rate=job_rate,
                    pattern=pattern,
                    mix=mix,
                    latency_groups=groups,
                    source_queue_limit=source_queue_limit,
                    seed=seed,
                    sanitize=self.sanitize,
                    obs=self._obs_for_seed(index),
                )
                for index, seed in enumerate(self._seed_range())
            ],
            self.jobs,
        )
        offered = (
            float(rate)
            if isinstance(rate, (int, float))
            else statistics.fmean(rate)
        )
        return aggregate_open_loop(design, offered, samples)

    # -- faulted runs ----------------------------------------------------------
    def run_faulted(
        self,
        design: Design,
        rate: float,
        spec: FaultSpec,
        protection: Optional[ProtectionConfig] = ProtectionConfig(),
        drain_max_cycles: int = 200_000,
    ) -> FaultResult:
        """Open-loop uniform-random traffic under a seeded fault spec.

        Each seed expands the spec into its own schedule (salted by the
        run seed), runs warmup + measurement with faults active from
        the end of warmup, then drains until the protection ledger is
        empty — so ``delivered_packet_rate`` is exact, not
        window-censored."""
        samples = map_jobs(
            run_fault_seed,
            [
                _FaultJob(
                    config=self.config,
                    warmup_cycles=self.warmup_cycles,
                    measure_cycles=self.measure_cycles,
                    design=design,
                    rate=rate,
                    spec=spec,
                    protection=protection,
                    drain_max_cycles=drain_max_cycles,
                    seed=seed,
                )
                for seed in self._seed_range()
            ],
            self.jobs,
        )
        return aggregate_faulted(design, rate, samples)


#: Public aliases for seed-level scheduling.  The experiment service
#: (:mod:`repro.service`) executes, checkpoints and recovers work one
#: seed at a time, so the per-seed job descriptions, runners and sample
#: types are its unit of work; the aggregate_* functions above fold the
#: recovered samples back into the exact results the foreground runner
#: produces.
ClosedLoopJob = _ClosedLoopJob
ClosedLoopSample = _ClosedLoopSample
OpenLoopJob = _OpenLoopJob
OpenLoopSample = _OpenLoopSample
FaultJob = _FaultJob
FaultSample = _FaultSample
run_closed_loop_seed = _run_closed_loop_seed
run_open_loop_seed = _run_open_loop_seed
run_fault_seed = _run_fault_seed
