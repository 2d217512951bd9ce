"""Experiment job specifications and their content-addressed keys.

A :class:`JobSpec` is the service's unit of request: one
(design × workload-or-rate × config × seed-range) experiment, of one of
the three harness kinds (``closed_loop``, ``open_loop``, ``faulted``).
Specs travel as JSON over the service protocol (:meth:`JobSpec.to_dict`
/ :meth:`JobSpec.from_dict`) and hash to a stable sha256 job key
(:meth:`JobSpec.key`).

Key discipline — what is hashed and what is not:

* **Hashed**: everything that can change a result bit — the fully
  expanded :class:`~repro.network.config.NetworkConfig` and
  :class:`~repro.network.config.MachineConfig` (so a changed package
  default changes the key), the full
  :class:`~repro.traffic.workloads.WorkloadProfile` (so recalibration
  changes the key), design, cycle counts, seed range, fault spec,
  protection config, and whether metrics are collected (they ride in
  the result payload).
* **Not hashed**: execution policy (priority, timeout, retries), which
  changes when a result arrives, never what it contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..faults import FaultSpec, ProtectionConfig
from ..harness.experiment import (
    ClosedLoopJob,
    FaultJob,
    OpenLoopJob,
    aggregate_closed_loop,
    aggregate_faulted,
    aggregate_open_loop,
    run_closed_loop_seed,
    run_fault_seed,
    run_open_loop_seed,
)
from ..network.config import (
    DEFAULT_MACHINE_CONFIG,
    Design,
    NetworkConfig,
)
from ..obs.hub import ObservabilityOptions
from ..traffic.synthetic import PacketMix
from ..traffic.workloads import WORKLOADS
from .canonical import content_key

__all__ = ["JobSpec", "KINDS"]

#: The three harness experiment kinds a spec can describe.
KINDS = ("closed_loop", "open_loop", "faulted")

#: Bumped when the hashed payload layout itself changes shape (never
#: when defaults change — those are captured by expansion).
_HASH_SCHEMA = 1


@dataclass(frozen=True)
class JobSpec:
    """One cacheable experiment request."""

    kind: str = "closed_loop"
    design: Design = Design.AFC
    width: int = 3
    height: int = 3
    warmup_cycles: int = 2_000
    measure_cycles: int = 6_000
    seeds: int = 1
    base_seed: int = 0
    #: Closed loop only: workload name in ``WORKLOADS``.
    workload: str = "apache"
    #: Open loop / faulted only: offered load, flits/node/cycle.
    rate: float = 0.25
    #: Open loop only: source backlog bound (None = unbounded).
    source_queue_limit: Optional[int] = 2_000
    #: Collect the per-seed metrics registries (merged into the result).
    metrics: bool = False
    #: Faulted only.
    fault: FaultSpec = field(default_factory=FaultSpec)
    protection: Optional[ProtectionConfig] = field(
        default_factory=ProtectionConfig
    )
    drain_max_cycles: int = 200_000

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; choose from {KINDS}"
            )
        if self.kind == "closed_loop" and self.workload not in WORKLOADS:
            choices = ", ".join(sorted(WORKLOADS))
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from: {choices}"
            )
        if self.kind != "closed_loop" and not 0.0 < self.rate <= 1.0:
            raise ValueError(
                f"offered rate must be in (0, 1], got {self.rate}"
            )
        if self.seeds < 1:
            raise ValueError("a job needs at least one seed")
        if self.warmup_cycles < 0 or self.measure_cycles <= 0:
            raise ValueError("cycle counts must be sane")

    # -- derived ---------------------------------------------------------
    @property
    def config(self) -> NetworkConfig:
        return NetworkConfig(width=self.width, height=self.height)

    def seed_of(self, index: int) -> int:
        return self.base_seed + index

    # -- transport (JSON protocol) --------------------------------------
    def to_dict(self) -> dict:
        """The JSON shape clients submit (compact, name-based)."""
        out = {
            "kind": self.kind,
            "design": self.design.value,
            "width": self.width,
            "height": self.height,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "metrics": self.metrics,
        }
        if self.kind == "closed_loop":
            out["workload"] = self.workload
        else:
            out["rate"] = self.rate
        if self.kind == "open_loop":
            out["source_queue_limit"] = self.source_queue_limit
        if self.kind == "faulted":
            out["fault"] = {
                "seed": self.fault.seed,
                "link_flap_rate": self.fault.link_flap_rate,
                "flap_duration": self.fault.flap_duration,
                "bit_error_rate": self.fault.bit_error_rate,
                "credit_loss_rate": self.fault.credit_loss_rate,
                "credit_loss_burst": self.fault.credit_loss_burst,
                "link_kills": self.fault.link_kills,
                "router_kills": self.fault.router_kills,
            }
            out["protection"] = (
                None
                if self.protection is None
                else {
                    "max_retries": self.protection.max_retries,
                    "nack_latency": self.protection.nack_latency,
                    "ack_timeout": self.protection.ack_timeout,
                    "check_interval": self.protection.check_interval,
                    "credit_resync_interval": (
                        self.protection.credit_resync_interval
                    ),
                }
            )
            out["drain_max_cycles"] = self.drain_max_cycles
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        payload = dict(data)
        payload["design"] = Design(payload.get("design", "afc"))
        fault = payload.get("fault")
        if fault is not None:
            payload["fault"] = FaultSpec(**fault)
        protection = payload.get("protection", "default")
        if isinstance(protection, Mapping):
            payload["protection"] = ProtectionConfig(**protection)
        elif protection == "default":
            payload.pop("protection", None)
        unknown = set(payload) - {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**payload)

    # -- identity --------------------------------------------------------
    def hash_payload(self) -> dict:
        """The fully expanded, result-determining description."""
        out: dict = {
            "schema": _HASH_SCHEMA,
            "kind": self.kind,
            "design": self.design,
            "config": self.config,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "metrics": self.metrics,
        }
        if self.kind == "closed_loop":
            out["machine"] = DEFAULT_MACHINE_CONFIG
            out["workload"] = WORKLOADS[self.workload]
        if self.kind == "open_loop":
            out["rate"] = self.rate
            out["mix"] = PacketMix()
            out["source_queue_limit"] = self.source_queue_limit
        if self.kind == "faulted":
            out["rate"] = self.rate
            out["fault"] = self.fault
            out["protection"] = self.protection
            out["drain_max_cycles"] = self.drain_max_cycles
        return out

    def key(self) -> str:
        """The content-addressed job key (sha256 hex)."""
        return content_key(self.hash_payload())

    # -- execution -------------------------------------------------------
    def _obs(self) -> Optional[ObservabilityOptions]:
        """Service jobs collect metrics only — metrics merge exactly
        across seeds; trace/profile payloads are single-run artifacts
        that belong to the foreground CLI, not the cache."""
        if not self.metrics:
            return None
        return ObservabilityOptions(metrics=True)

    def seed_job(self, index: int):
        """The picklable harness job for seed ``index``."""
        if self.kind == "closed_loop":
            return ClosedLoopJob(
                config=self.config,
                machine=DEFAULT_MACHINE_CONFIG,
                warmup_cycles=self.warmup_cycles,
                measure_cycles=self.measure_cycles,
                design=self.design,
                workload=WORKLOADS[self.workload],
                seed=self.seed_of(index),
                obs=self._obs(),
            )
        if self.kind == "open_loop":
            return OpenLoopJob(
                config=self.config,
                warmup_cycles=self.warmup_cycles,
                measure_cycles=self.measure_cycles,
                design=self.design,
                rate=self.rate,
                pattern=None,
                mix=PacketMix(),
                latency_groups=(),
                source_queue_limit=self.source_queue_limit,
                seed=self.seed_of(index),
                obs=self._obs(),
            )
        return FaultJob(
            config=self.config,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            design=self.design,
            rate=self.rate,
            spec=self.fault,
            protection=self.protection,
            drain_max_cycles=self.drain_max_cycles,
            seed=self.seed_of(index),
        )

    def run_seed(self, index: int):
        """Execute seed ``index`` in-process; returns the sample."""
        job = self.seed_job(index)
        if self.kind == "closed_loop":
            return run_closed_loop_seed(job)
        if self.kind == "open_loop":
            return run_open_loop_seed(job)
        return run_fault_seed(job)

    def aggregate(self, samples):
        """Fold per-seed samples (in seed order) into the result —
        the same aggregation the foreground runner applies, so a
        checkpoint-recovered result is bit-identical to a fresh one."""
        if self.kind == "closed_loop":
            return aggregate_closed_loop(self.design, self.workload, samples)
        if self.kind == "open_loop":
            return aggregate_open_loop(self.design, float(self.rate), samples)
        return aggregate_faulted(self.design, self.rate, samples)
