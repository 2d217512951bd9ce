"""One cold benchmark process: set up, serve a workload's requests, report.

Run by ``run.py`` (never imported by it), one fresh interpreter per
pass so every pass pays imports, runner construction and module-level
caches exactly as a user's ``repro`` invocation does.  Modes:

* ``setup``  — only the set-up: imports, ``ExperimentRunner``
  construction and the first ``Network`` build;
* ``timed``  — set-up, then every request of the workload, serially
  (``jobs = 1``) in this one process;
* ``traced`` — ``timed`` with class-level span recording (spans.py);
* ``unique`` — each distinct (design, profile) point once, with
  ``jobs = min(nproc, seeds)``, for ``make_reference.py``.

Times are taken twice: wall seconds and this process's CPU seconds.
The kernel does not charge a process for time its virtual CPU was
stolen by the host, so on a shared host the CPU seconds of a serial,
CPU-bound pass keep measuring the simulator while wall seconds also
measure the neighbours.  The report is one JSON document written to
``--out``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    COLD_RATE,
    HOT_RATE,
    SEEDS,
    SOURCE_QUEUE_LIMIT,
    WORKLOADS,
    with_cycles,
    worker_count,
)

#: Cap on spans written to the Chrome trace.  Self times use every
#: span; the file keeps the first ones (a whole traced pass holds over
#: a million, more than Perfetto loads comfortably).
TRACE_EVENT_CAP = 200_000


# -- result digests ------------------------------------------------------


def _plain(value):
    """Result fields as JSON-able data; floats keep every bit (repr)."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "observability"
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def digest(result) -> str:
    """Digest of every deterministic field of a harness result."""
    text = json.dumps(_plain(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the workload as harness calls ----------------------------------------


class Client:
    """Issues one workload's requests through ``ExperimentRunner``."""

    def __init__(self, workload, seed: int, jobs: int) -> None:
        from repro import Design, Network, NetworkConfig
        from repro.harness import ExperimentRunner
        from repro.traffic.patterns import QuadrantLocal
        from repro.traffic.workloads import WORKLOADS as PROFILES

        self.workload = workload
        self._design = Design
        self._profiles = PROFILES
        self.runner = ExperimentRunner(
            config=NetworkConfig(width=workload.width, height=workload.height),
            warmup_cycles=workload.warmup_cycles,
            measure_cycles=workload.measure_cycles,
            seeds=SEEDS,
            jobs=jobs,
            base_seed=seed,
        )
        mesh = self.runner.config.mesh
        if workload.kind == "open":
            self._rates = [
                HOT_RATE if mesh.quadrant(n) == 0 else COLD_RATE
                for n in range(mesh.num_nodes)
            ]
            self._pattern = QuadrantLocal(mesh)
            self._groups = {"hot": mesh.quadrant_nodes(0)}
        # The first Network build belongs to set-up: it fills the
        # per-mesh routing tables every later simulation reuses.
        Network(self.runner.config, Design(workload.requests[0][0]), seed=seed)

    def issue(self, design: str, profile: str):
        if self.workload.kind == "closed":
            return self.runner.run_closed_loop(
                self._design(design), self._profiles[profile]
            )
        return self.runner.run_open_loop(
            self._design(design),
            self._rates,
            pattern=self._pattern,
            latency_groups=self._groups,
            source_queue_limit=SOURCE_QUEUE_LIMIT,
        )


def point_summary(kind: str, result) -> dict:
    """The simulated numbers the orchestrator reports per point."""
    if kind == "closed":
        perf, energy = result.performance, result.energy_per_txn
    else:
        hot = result.group_latency.get("hot", 0.0)
        perf = 1.0 / hot if hot else 0.0
        energy = result.energy_per_flit
    return {
        "perf": perf,
        "energy": energy,
        "backpressured_fraction": result.backpressured_fraction,
    }


def simulated_work(networks) -> dict:
    """Totals over the networks one request built: flit-hops on links
    and AFC mode switches (measurement window)."""
    return {
        "flit_hops": sum(
            ch.flit_traversals for net in networks for ch in net.channels
        ),
        "mode_switches": sum(
            m.forward_switches + m.reverse_switches
            for net in networks
            for m in net.stats.mode_stats.values()
        ),
    }


# -- traced boundaries ---------------------------------------------------


def _router_classes():
    from repro.network.router_base import BaseRouter

    found, todo = [], [BaseRouter]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install_tracer(recorder, built: list) -> None:
    """Wrap the simulator's per-request and per-cycle boundaries:
    ``ExperimentRunner.run_closed_loop``/``run_open_loop``,
    ``Network.__init__``/``step``, ``MemorySystem.tick``,
    ``OpenLoopSource.tick``, ``StaticEnergyCache.tick`` and every router
    class's own ``step``/``deliver``.  ``built`` collects every Network
    constructed."""
    from repro.energy.model import StaticEnergyCache
    from repro.harness import ExperimentRunner
    from repro.memsys.system import MemorySystem
    from repro.simulation import Network
    from repro.traffic.synthetic import OpenLoopSource

    recorder.wrap(ExperimentRunner, "run_closed_loop")
    recorder.wrap(ExperimentRunner, "run_open_loop")
    recorder.wrap(Network, "__init__", on_return=built.append)
    recorder.wrap(Network, "step")
    recorder.wrap(MemorySystem, "tick")
    recorder.wrap(OpenLoopSource, "tick")
    recorder.wrap(StaticEnergyCache, "tick")
    for cls in _router_classes():
        for attr in ("step", "deliver"):
            if attr in cls.__dict__ and not getattr(
                cls.__dict__[attr], "__isabstractmethod__", False
            ):
                recorder.wrap(cls, attr)


#: Layer of each wrapped boundary, by label or by class name; router
#: classes map to ``router.step`` / ``router.deliver``.
_LAYERS = {
    "ExperimentRunner": "harness",
    "Network.__init__": "engine.build",
    "Network.step": "engine",
    "MemorySystem": "memsys",
    "OpenLoopSource": "traffic",
    "StaticEnergyCache": "energy.static",
}


def layer_of(label: str, router_names) -> str:
    cls, _, method = label.partition(".")
    if cls in router_names:
        return f"router.{method}"
    return _LAYERS.get(label, _LAYERS.get(cls, label))


# -- one pass ------------------------------------------------------------


def serve(client, requests, recorder=None, built=None) -> dict:
    """Issue ``requests`` one after another; time, digest and summarise
    each.  An exception fails its request and the pass goes on."""
    kind = client.workload.kind
    request_s, request_cpu_s = [], []
    digests, errors, points, work = [], [], {}, []
    started = time.perf_counter()
    started_cpu = time.process_time()
    for index, (design, profile) in enumerate(requests):
        if recorder is not None:
            recorder.current_request = index
        t = time.perf_counter()
        c = time.process_time()
        try:
            result = client.issue(design, profile)
        except Exception:  # a failed request is counted, not fatal
            result = None
            errors.append(f"{design}/{profile}: {traceback.format_exc()}")
        request_cpu_s.append(time.process_time() - c)
        request_s.append(time.perf_counter() - t)
        if result is not None:
            digests.append(digest(result))
            points.setdefault(f"{design}/{profile}", point_summary(kind, result))
        else:
            digests.append(None)
        if built is not None:
            work.append(simulated_work(built))
            built.clear()
    cpu = time.process_time() - started_cpu
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "request_s": request_s,
        "request_cpu_s": request_cpu_s,
        "digests": digests,
        "errors": errors,
        "points": points,
        "work": work,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or any of its (forked, reaped) workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode",
        required=True,
        choices=("setup", "timed", "traced", "unique"),
    )
    parser.add_argument("--cycles", type=int, nargs=2, default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument(
        "--meta", default="{}", help="JSON provenance for the trace file"
    )
    args = parser.parse_args(argv)

    workload = with_cycles(WORKLOADS[args.workload], args.cycles)
    jobs = worker_count() if args.mode == "unique" else 1
    client = Client(workload, args.seed, jobs)
    # CPU seconds since the process started, interpreter start-up
    # included; wall seconds from the first line of this file.
    report = {
        "setup_s": time.process_time(),
        "setup_wall_s": time.perf_counter() - T0,
    }
    requests = (
        workload.unique_points if args.mode == "unique" else workload.requests
    )
    if args.mode == "traced":
        from spans import SpanRecorder

        recorder, built = SpanRecorder(), []
        install_tracer(recorder, built)
        try:
            report.update(serve(client, requests, recorder, built))
        finally:
            recorder.uninstall()
        router_names = {cls.__name__ for cls in _router_classes()}
        layers: dict = {}
        for label, (count, self_s) in recorder.self_times().items():
            have = layers.setdefault(layer_of(label, router_names), [0, 0.0])
            have[0] += count
            have[1] += self_s
        report["layers"] = layers
        report["spans"] = len(recorder)
        if args.trace_out:
            report["trace_written"] = recorder.write_chrome_trace(
                args.trace_out,
                json.loads(args.meta),
                TRACE_EVENT_CAP,
            )
    elif args.mode != "setup":
        report.update(serve(client, requests))
    report["peak_rss_mb"] = peak_rss_mb()
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
