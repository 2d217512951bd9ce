"""The repository benchmark: the paper's three load regimes, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cmp-highload --seed 0 \\
        --seconds 25 --trace 0

A closed-loop client issues the workload's requests one after another
through ``repro.harness.ExperimentRunner`` (workloads.py lists them).
Every pass over the list runs in a fresh interpreter with an empty
temporary directory, after the bytecode cached under ``src/`` has been
removed: each pass compiles the simulator's modules as a user's first
run after a code change does, while the interpreter's own standard
library stays precompiled.

Each pass is serial (``jobs = 1``): one process generates the whole
load, so a pass never waits on a second CPU of a shared host.
``--trace 0`` repeats timed passes until ``--seconds`` of passes have
been measured (at least two) and prints the end-to-end metrics as
medians over passes.  They are counted in the serving process's CPU
seconds, which leave out the time the host stole from its virtual
CPU; the wall seconds are printed beside them.  ``--trace 1`` runs one
pass untraced and one with the simulator's per-cycle boundaries
wrapped from outside (spans.py) and prints the per-layer metrics; the
Chrome trace goes to ``perfbench/out/``.

Every request's result is digested and checked against
``reference.json`` (``make_reference.py`` regenerates it; this script
never does).  For a seed the reference does not hold, every repeat of
a point must agree with the first.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 when every request was correct, 1 when one failed,
and 2 when the checkout holds no simulator source to measure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    SEEDS,
    WORKLOADS,
    with_cycles,
)

#: Set-up-only processes per timed run, besides each pass's own set-up.
SETUP_PROBES = 5
MIN_PASSES = 2
#: Wall-clock budget of one invocation, child processes included.
DEADLINE_S = 170.0

END_TO_END = {
    "serve_cpu_s": "s",
    "router_cycles_per_cpu_s": "1/s",
    "request_p50_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "router.steps": "count",
    "router.step_self_s": "s",
    "router.deliver_self_s": "s",
    "router.ns_per_flit_hop": "ns",
    "engine.steps": "count",
    "engine.self_s": "s",
    "engine.build_self_s": "s",
    "engine.awake_share": "ratio",
    "source.ticks": "count",
    "source.self_s": "s",
    "energy.static_self_s": "s",
    "harness.requests": "count",
    "harness.repeat_share": "ratio",
    "harness.sim_builds": "count",
    "harness.self_s": "s",
    "harness.request_busy_s": "s",
    "net.flit_hops": "count",
    "afc.backpressured_share": "ratio",
    "afc.mode_switches": "count",
    "model.afc_perf_err_pp": "pp",
    "model.afc_energy_err_pp": "pp",
    "trace.covered_share": "ratio",
    "trace.overhead_share": "ratio",
}


class SessionFailed(RuntimeError):
    pass


class Bench:
    """One invocation: spawns the sessions and keeps their reports."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = with_cycles(WORKLOADS[args.workload], args.cycles)
        self.started = time.monotonic()
        self.scratch = HERE / "out" / f"run-{os.getpid()}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self._sessions = 0

    def session(self, mode: str, trace_out: str = "", meta=None) -> dict:
        """Run session.py once in a fresh process group and return its
        report; on timeout the whole group (pool workers too) is
        killed and waited for."""
        self._sessions += 1
        tag = f"{mode}-{self._sessions}"
        tmp = self.scratch / tag
        (tmp / "tmp").mkdir(parents=True)
        out = tmp / "report.json"
        cmd = [
            sys.executable,
            str(HERE / "session.py"),
            "--workload", self.workload.name,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--out", str(out),
            "--cycles",
            str(self.workload.warmup_cycles),
            str(self.workload.measure_cycles),
        ]
        if trace_out:
            cmd += ["--trace-out", trace_out, "--meta", json.dumps(meta)]
        env = dict(
            os.environ,
            TMPDIR=str(tmp / "tmp"),
            XDG_CACHE_HOME=str(tmp / "tmp"),
        )
        for cache in (ROOT / "src").rglob("__pycache__"):
            shutil.rmtree(cache)
        budget = DEADLINE_S - (time.monotonic() - self.started)
        with open(tmp / "log", "w+") as log:
            proc = subprocess.Popen(
                cmd,
                cwd=str(ROOT),
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=max(1.0, budget))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise SessionFailed(f"{tag}: no report within {budget:.0f} s")
            finally:
                # Reap anything the session left in its group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if code != 0:
                log.seek(0)
                tail = log.read()[-2000:]
                raise SessionFailed(f"{tag}: exit {code}\n{tail}")
        with open(out) as fh:
            report = json.load(fh)
        shutil.rmtree(tmp)
        return report

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- correctness -----------------------------------------------------------


def load_reference(workload, seed: int):
    """Expected digest per point, or None when ``reference.json`` holds
    no entry for this workload, seed and cycle count."""
    path = HERE / "reference.json"
    if not path.exists():
        return None
    with open(path) as fh:
        entry = json.load(fh).get("workloads", {}).get(workload.name)
    if not entry or entry.get("cycles") != [
        workload.warmup_cycles,
        workload.measure_cycles,
    ]:
        return None
    return entry.get("seeds", {}).get(str(seed))


def check(workload, reports, expected) -> dict:
    """Count requests whose result raised or whose digest differs from
    the reference (or, without one, from the point's first result)."""
    first: dict = {}
    attempted = failed = 0
    mismatches = []
    for report in reports:
        for (design, profile), got in zip(
            workload.requests, report["digests"]
        ):
            key = f"{design}/{profile}"
            attempted += 1
            want = expected.get(key) if expected is not None else None
            if want is None:
                want = first.setdefault(key, got)
            if got is None or got != want:
                failed += 1
                mismatches.append(f"{key}: got {got}, want {want}")
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches[:10],
        "errors": [e for r in reports for e in r.get("errors", [])][:3],
    }


# -- metrics -----------------------------------------------------------------


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def model_error(workload, points: dict) -> dict:
    """AFC performance and energy normalised to backpressured (geomean
    over profiles) and their gap to the paper, in percentage points."""
    profiles = dict.fromkeys(p for _, p in workload.requests)
    ratios = {"perf": [], "energy": []}
    for profile in profiles:
        afc = points.get(f"afc/{profile}")
        base = points.get(f"backpressured/{profile}")
        if not afc or not base:
            continue
        for metric in ratios:
            if afc[metric] > 0 and base[metric] > 0:
                ratios[metric].append(afc[metric] / base[metric])
    out = {}
    for metric, paper in (
        ("perf", workload.paper_afc_perf),
        ("energy", workload.paper_afc_energy),
    ):
        if ratios[metric]:
            value = _geomean(ratios[metric])
            out[metric] = (value, paper, abs(value - paper) * 100.0)
    return out


def end_to_end(workload, setups, passes) -> dict:
    cpu = statistics.median(p["cpu_s"] for p in passes)
    return {
        "serve_cpu_s": cpu,
        "router_cycles_per_cpu_s": workload.router_cycles / cpu,
        "request_p50_cpu_s": statistics.median(
            s for p in passes for s in p["request_cpu_s"]
        ),
        "setup_s": statistics.median(
            [s["setup_s"] for s in setups] + [p["setup_s"] for p in passes]
        ),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(workload, untraced, traced) -> dict:
    layers = traced["layers"]

    def count(layer):
        return layers.get(layer, [0, 0.0])[0]

    def self_s(layer):
        return layers.get(layer, [0, 0.0])[1]

    requests = workload.requests
    hops_run = sum(w["flit_hops"] for w in traced["work"])
    # Simulated work per distinct point, so that serving a repeated
    # point from a cache leaves these totals unchanged.
    first = {}
    for key, work in zip(requests, traced["work"]):
        first.setdefault(key, work)
    afc = [v for k, v in traced["points"].items() if k.startswith("afc/")]
    source = "memsys" if workload.kind == "closed" else "traffic"
    router_s = self_s("router.step") + self_s("router.deliver")
    err = model_error(workload, traced["points"])
    return {
        "router.steps": count("router.step"),
        "router.step_self_s": self_s("router.step"),
        "router.deliver_self_s": self_s("router.deliver"),
        "router.ns_per_flit_hop": router_s / max(1, hops_run) * 1e9,
        "engine.steps": count("engine"),
        "engine.self_s": self_s("engine"),
        "engine.build_self_s": self_s("engine.build"),
        "engine.awake_share": count("router.step")
        / max(1, count("engine") * workload.nodes),
        "source.ticks": count(source),
        "source.self_s": self_s(source),
        "energy.static_self_s": self_s("energy.static"),
        "harness.requests": len(requests),
        "harness.repeat_share": 1 - len(workload.unique_points) / len(requests),
        "harness.sim_builds": count("engine.build"),
        "harness.self_s": self_s("harness"),
        "harness.request_busy_s": sum(untraced["request_s"]),
        "net.flit_hops": sum(w["flit_hops"] for w in first.values()),
        "afc.backpressured_share": statistics.fmean(
            p["backpressured_fraction"] for p in afc
        )
        if afc
        else 0.0,
        "afc.mode_switches": sum(
            w["mode_switches"] for (d, _), w in first.items() if d == "afc"
        ),
        "model.afc_perf_err_pp": err.get("perf", (0, 0, 0.0))[2],
        "model.afc_energy_err_pp": err.get("energy", (0, 0, 0.0))[2],
        # Self time the named layers account for; the harness layer
        # is the catch-all for whatever no wrapped boundary covers.
        "trace.covered_share": sum(
            v[1] for k, v in layers.items() if k != "harness"
        )
        / traced["wall_s"],
        "trace.overhead_share": traced["wall_s"] / untraced["wall_s"] - 1,
    }


# -- provenance --------------------------------------------------------------


def host_steal_s() -> float:
    """Seconds the host has stolen from this machine's virtual CPUs
    since boot (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest() -> str:
    """Digest of every file under src/: the code version measured,
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "warmup_cycles": workload.warmup_cycles,
        "measure_cycles": workload.measure_cycles,
        "seeds_per_request": SEEDS,
        "jobs": 1,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--cycles",
        type=int,
        nargs=2,
        metavar=("WARMUP", "MEASURE"),
        help="override the workload's cycle counts (smoke tests)",
    )
    return parser.parse_args(argv)


def print_metrics(title, values, units, notes=None):
    print(title)
    for name, value in values.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<26} {value:>16.6g} {units[name]:<6} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "harness").is_dir():
        print(
            f"perfbench: no simulator source under {ROOT / 'src'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    bench = Bench(args)
    workload = bench.workload
    try:
        return run(bench, args, workload)
    finally:
        bench.close()


def run(bench, args, workload) -> int:
    prov = provenance(args, workload)
    n_req, n_unique = len(workload.requests), len(workload.unique_points)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(
        f"workload: {n_req} requests, {n_unique} unique points "
        f"({1 - n_unique / n_req:.0%} repeat), {workload.width}x"
        f"{workload.height} {workload.kind} loop; {workload.why}"
    )
    expected = load_reference(workload, args.seed)
    record = {"provenance": prov}
    steal_before = host_steal_s()
    try:
        if args.trace == 0:
            setups = [bench.session("setup") for _ in range(SETUP_PROBES)]
            passes = []
            measured = 0.0
            while True:
                passes.append(bench.session("timed"))
                last = passes[-1]["wall_s"]
                measured += last
                if len(passes) >= MIN_PASSES and (
                    measured + last > args.seconds
                    or bench.remaining() < 2.5 * last
                ):
                    break
            reports = passes
            metrics = end_to_end(workload, setups, passes)
            units = END_TO_END
            points = passes[0]["points"]
            record["pass_wall_s"] = [p["wall_s"] for p in passes]
            record["pass_cpu_s"] = [p["cpu_s"] for p in passes]
            print(
                f"passes: {len(passes)} (CPU "
                + ", ".join(f"{p['cpu_s']:.2f}" for p in passes)
                + " s; wall "
                + ", ".join(f"{p['wall_s']:.2f}" for p in passes)
                + f" s; {measured:.1f} s measured), "
                f"set-up samples: {len(setups) + len(passes)}, "
                f"requests timed: {n_req * len(passes)}"
            )
            wall = statistics.median(p["wall_s"] for p in passes)
            request = statistics.median(
                s for p in passes for s in p["request_s"]
            )
            setup = statistics.median(
                s["setup_wall_s"] for s in setups + passes
            )
            print(
                f"wall (not a metric): median pass {wall:.4g} s, "
                f"{workload.router_cycles / wall:.6g} router-cycles/s, "
                f"median request {request:.4g} s, "
                f"median set-up {setup:.4g} s"
            )
        else:
            untraced = bench.session("timed")
            trace_out = HERE / "out" / (
                f"trace-{workload.name}-seed{args.seed}.json"
            )
            traced = bench.session(
                "traced", trace_out=str(trace_out), meta=prov
            )
            reports = [untraced, traced]
            metrics = per_layer(workload, untraced, traced)
            units = PER_LAYER
            points = traced["points"]
            record["layers"] = traced["layers"]
            print(
                f"trace: {traced['spans']} spans, {traced['trace_written']} "
                f"written to {trace_out.relative_to(ROOT)}"
            )
    except SessionFailed as exc:
        print(f"perfbench: session failed: {exc}", file=sys.stderr)
        print(
            json.dumps(
                {"correct": False, "attempted": n_req, "failed": n_req,
                 "metrics": {}}
            )
        )
        return 1
    record["host_steal_s"] = host_steal_s() - steal_before
    print(f"host steal during the run: {record['host_steal_s']:.2f} s")

    verdict = check(workload, reports, expected)
    source = (
        f"reference seed {args.seed}"
        if expected is not None
        else f"no reference for seed {args.seed} at these cycle counts; "
        "repeats checked against each other"
    )
    print(
        f"correctness: {verdict['attempted'] - verdict['failed']}/"
        f"{verdict['attempted']} requests match ({source})"
    )
    for line in verdict["mismatches"] + verdict["errors"]:
        print(f"  MISMATCH {line}")

    err = model_error(workload, points)
    notes = {}
    if args.trace == 0:
        notes["request_p50_cpu_s"] = f"n={n_req * len(reports)}"
        notes["serve_cpu_s"] = f"median of {len(reports)} passes"
        print_metrics(
            "end-to-end (untraced, CPU seconds):", metrics, units, notes
        )
        failed_share = verdict["failed"] / verdict["attempted"]
        print(f"  {'failed_share':<26} {failed_share:>16.6g} ratio")
        for metric, name in (("perf", "afc_perf_err_pp"),
                             ("energy", "afc_energy_err_pp")):
            if metric in err:
                value, paper, gap = err[metric]
                print(
                    f"  {name:<26} {gap:>16.6g} pp     AFC/backpressured "
                    f"{value:.4f} vs paper {paper:.4f} "
                    f"({workload.paper_source})"
                )
    else:
        layers = record["layers"]
        print_metrics("per-layer (traced):", metrics, units)
        for layer in ("memsys", "traffic"):
            count, self_s = layers.get(layer, [0, 0.0])
            state = "" if count else "  (absent in this workload)"
            print(f"  {layer + '.ticks':<26} {count:>16.6g} count{state}")
            print(f"  {layer + '.self_s':<26} {self_s:>16.6g} s{state}")
        total = sum(v[1] for v in layers.values())
        print("traced self time by layer:")
        for layer, (count, self_s) in sorted(
            layers.items(), key=lambda kv: -kv[1][1]
        ):
            print(
                f"  {layer:<26} {self_s:>10.4f} s {self_s / total:>7.1%} "
                f"calls={count}"
            )

    correct = verdict["failed"] == 0
    record.update(
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        correctness=verdict,
        model_error=err,
    )
    out = HERE / "out" / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
