"""The benchmark's own tests, on tiny cycle counts.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402

TINY = ["--cycles", "20", "60"]
# ``--seconds 0`` stops an untraced run after its minimum of two passes.


def checkout(dest, perfbench=HERE):
    """A checkout at ``dest`` holding a copy of ``perfbench`` (whose
    reference.json a test may rewrite) and this checkout's ``src/``."""
    shutil.copytree(
        perfbench,
        dest / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    (dest / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return dest


def bench(*args, cwd=ROOT, timeout=170):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = done.stdout.strip().splitlines()
    return done, lines


def last_json(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def tiny_checkout(tmp_path_factory):
    """A checkout whose reference holds cmp-lowload seed 0 at TINY."""
    root = checkout(tmp_path_factory.mktemp("tiny"))
    done = subprocess.run(
        [
            sys.executable, "perfbench/make_reference.py",
            "--workload", "cmp-lowload", "--seeds", "0", *TINY,
        ],
        cwd=str(root),
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return root


def test_untraced_run_prints_every_end_to_end_metric(tiny_checkout):
    done, lines = bench(
        "--workload", "cmp-lowload", "--seed", "0", "--seconds", "0",
        "--trace", "0", *TINY, cwd=tiny_checkout,
    )
    assert done.returncode == 0, done.stderr
    result = last_json(lines)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 60  # 30 requests x 2 passes
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in END_TO_END.items():
        assert f" {name} " in text and f" {unit}" in text
    for name in ("failed_share", "afc_perf_err_pp", "afc_energy_err_pp"):
        assert f" {name} " in text
    assert "reference seed 0" in text
    for key in ("python=", "cpu=", "nproc=", "git_commit=", "seed=0",
                "warmup_cycles=20", "measure_cycles=60"):
        assert key in text


def test_corrupted_reference_digest_counts_as_failed(
    tiny_checkout, tmp_path
):
    root = checkout(tmp_path, tiny_checkout / "perfbench")
    path = root / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    points = reference["workloads"]["cmp-lowload"]["seeds"]["0"]
    points["afc/ocean"] = "0" * 16
    path.write_text(json.dumps(reference))
    done, lines = bench(
        "--workload", "cmp-lowload", "--seed", "0", "--seconds", "0",
        "--trace", "0", *TINY, cwd=root,
    )
    assert done.returncode == 1
    result = last_json(lines)
    assert result["correct"] is False
    # afc/ocean is requested twice per pass (fig2a/b and fig3a).
    assert result["failed"] == 4
    share = next(line for line in lines if line.strip().startswith("failed_share"))
    assert float(share.split()[1]) == pytest.approx(4 / 60)


def test_traced_run_prints_every_per_layer_metric():
    done, lines = bench(
        "--workload", "mesh8-consolidation", "--seed", "3", "--seconds", "1",
        "--trace", "1", *TINY,
    )
    assert done.returncode == 0, done.stderr
    result = last_json(lines)
    assert result["correct"] is True
    assert result["attempted"] == 6  # untraced + traced pass, 3 requests
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.covered_share"] >= 0.95
    assert metrics["harness.sim_builds"] == 6
    assert metrics["engine.steps"] == 6 * 80
    text = "\n".join(lines[:-1])
    for name in list(PER_LAYER) + [
        "memsys.ticks", "memsys.self_s", "traffic.ticks", "traffic.self_s",
    ]:
        assert f" {name} " in text
    trace = HERE / "out" / "trace-mesh8-consolidation-seed3.json"
    events = json.loads(trace.read_text())
    names = {e["name"] for e in events["traceEvents"]}
    assert {"ExperimentRunner.run_open_loop", "Network.step",
            "OpenLoopSource.tick", "AfcRouter.step"} <= names
    assert events["otherData"]["seed"] == 3


def test_exits_nonzero_without_simulator_source(tmp_path):
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done, lines = bench(
        "--workload", "cmp-highload", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
