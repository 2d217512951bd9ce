"""The async job queue: single-flight dedupe, caching, backpressure,
priorities, and the socket protocol.

The acceptance property pinned here: a duplicate submission — whether
it lands while the original is in flight or after it finished — causes
**zero additional simulation work** (asserted through the service's
``seed_units_run`` counter, which counts actual worker executions).

No pytest-asyncio in the toolchain: every async test body runs under a
plain ``asyncio.run`` wrapper.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.harness.experiment import ExperimentRunner
from repro.network.config import Design, NetworkConfig
from repro.service import (
    ExperimentService,
    JobSpec,
    ResultStore,
    ServiceClient,
    ServiceServer,
    drain,
    result_from_dict,
    result_to_dict,
)

FAST = dict(warmup_cycles=100, measure_cycles=300)


def fast_spec(**overrides) -> JobSpec:
    base = dict(kind="open_loop", rate=0.2, seeds=2, **FAST)
    base.update(overrides)
    return JobSpec(**base)


# -- drain + bit-identity --------------------------------------------------


def test_drain_matches_foreground_runner_bit_for_bit(tmp_path):
    spec = fast_spec()
    service = ExperimentService(ResultStore(tmp_path), jobs=2)
    results, counters = asyncio.run(drain(service, [spec]))
    assert counters["jobs_completed"] == 1

    runner = ExperimentRunner(
        NetworkConfig(3, 3), jobs=1, seeds=2, **FAST
    )
    fresh = runner.run_open_loop(Design.AFC, rate=0.2)
    assert results[0]["result"] == result_to_dict(fresh)
    assert result_from_dict(results[0]["result"]) == fresh


def test_concurrent_duplicates_run_the_simulation_once(tmp_path):
    """Five concurrent submitters of one spec: single-flight means one
    job, ``seeds`` worker executions, and five identical answers."""
    spec = fast_spec()

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=2)
        await service.start()
        try:
            outs = [service.submit(spec) for _ in range(5)]
            keys = {o["key"] for o in outs}
            assert len(keys) == 1
            assert sum(1 for o in outs if not o.get("deduped")) == 1
            answers = await asyncio.gather(
                *(service.result(spec.key(), wait=True) for _ in range(5))
            )
            return outs, answers, dict(service.counters)
        finally:
            await service.close()

    outs, answers, counters = asyncio.run(scenario())
    assert counters["deduped"] == 4
    assert counters["seed_units_run"] == spec.seeds  # zero extra work
    assert all(a["status"] == "done" for a in answers)
    records = [a["record"] for a in answers]
    assert all(r == records[0] for r in records)


def test_resubmission_after_completion_is_a_cache_hit(tmp_path):
    spec = fast_spec()
    store = ResultStore(tmp_path)

    async def scenario():
        service = ExperimentService(store, jobs=2)
        await service.start()
        try:
            service.submit(spec)
            await service.result(spec.key(), wait=True)
            second = service.submit(spec)
            return second, dict(service.counters)
        finally:
            await service.close()

    second, counters = asyncio.run(scenario())
    assert second["status"] == "cached"
    assert counters["cache_hits"] == 1
    assert counters["seed_units_run"] == spec.seeds

    # A separate service over the same store: still zero work.
    results, counters2 = asyncio.run(
        drain(ExperimentService(store, jobs=2), [spec])
    )
    assert counters2["cache_hits"] == 1
    assert counters2["seed_units_run"] == 0
    assert results[0] == store.get(spec.key())


def test_full_queue_sheds_with_backpressure_hint(tmp_path):
    specs = [fast_spec(base_seed=i) for i in range(3)]

    async def scenario():
        # max_active=0: nothing dispatches, so the queue stays full.
        service = ExperimentService(
            ResultStore(tmp_path), jobs=1, queue_limit=2, max_active=0
        )
        await service.start()
        try:
            outs = [service.submit(s) for s in specs]
            return outs, dict(service.counters)
        finally:
            await service.close()

    outs, counters = asyncio.run(scenario())
    assert [o["status"] for o in outs] == ["queued", "queued", "shed"]
    assert outs[2]["retry_after"] > 0
    assert "queue full" in outs[2]["reason"]
    assert counters["shed"] == 1


def test_priorities_order_dispatch(tmp_path):
    """With one active slot, a higher-priority later submission runs
    before earlier low-priority ones; equal priorities stay FIFO."""
    order = []
    specs = {i: fast_spec(base_seed=10 + i, seeds=1) for i in range(3)}

    async def scenario():
        service = ExperimentService(
            ResultStore(tmp_path), jobs=1, max_active=1
        )
        real_run = ExperimentService._run_job

        async def tracking_run(self, state):
            order.append(state.spec.base_seed)
            await real_run(self, state)

        ExperimentService._run_job = tracking_run
        try:
            await service.start()
            service.submit(specs[0], priority=0)
            service.submit(specs[1], priority=0)
            service.submit(specs[2], priority=5)
            await asyncio.gather(
                *(
                    service.result(s.key(), wait=True)
                    for s in specs.values()
                )
            )
        finally:
            ExperimentService._run_job = real_run
            await service.close()

    asyncio.run(scenario())
    # All three submissions land before the dispatcher wakes (submit
    # never yields), so priority decides first and FIFO breaks the tie.
    assert order == [12, 10, 11]


def test_status_reports_lifecycle(tmp_path):
    spec = fast_spec(seeds=1)

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        await service.start()
        try:
            assert service.status(spec.key())["state"] == "unknown"
            service.submit(spec)
            await service.result(spec.key(), wait=True)
            return service.status(spec.key())
        finally:
            await service.close()

    done = asyncio.run(scenario())
    assert done["state"] == "done"


def test_failed_job_reports_error_not_hang(tmp_path):
    """A spec whose workload disappears between submit and run fails
    cleanly: result(wait=True) resolves with the error."""
    spec = fast_spec(seeds=1)

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        # Sabotage: make every seed unit report a deterministic error.
        from repro.service import queue as queue_mod

        real = queue_mod.run_seed_unit

        def broken(spec_dict, index, **kwargs):
            from repro.service.workers import SeedOutcome

            return SeedOutcome(
                status="error", error="boom", attempts=1
            )

        queue_mod.run_seed_unit = broken
        try:
            await service.start()
            service.submit(spec)
            out = await service.result(spec.key(), wait=True)
            return out, dict(service.counters)
        finally:
            queue_mod.run_seed_unit = real
            await service.close()

    out, counters = asyncio.run(scenario())
    assert out["status"] == "failed"
    assert "boom" in out["error"]
    assert counters["jobs_failed"] == 1


# -- the socket protocol ---------------------------------------------------


def test_protocol_over_tcp_socket(tmp_path):
    """submit/status/result/queue/ping/shutdown over a real socket,
    ephemeral port, blocking client in a worker thread."""
    spec = fast_spec(seeds=1)

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        await server.start()
        port = server.port

        def client_side():
            with ServiceClient(host="127.0.0.1", port=port) as client:
                assert client.ping()["pong"] is True
                out = client.submit(spec.to_dict(), priority=1)
                assert out["status"] in ("queued", "running")
                key = out["key"]
                got = client.result(key, wait=True, timeout=60)
                assert got["status"] == "done"
                assert client.status(key)["state"] == "done"
                snapshot = client.queue()
                assert snapshot["counters"]["jobs_completed"] == 1
                client.shutdown()
                return got["record"]

        record = await asyncio.wait_for(
            asyncio.to_thread(client_side), timeout=120
        )
        await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
        return record

    record = asyncio.run(scenario())
    fresh = ExperimentRunner(
        NetworkConfig(3, 3), jobs=1, seeds=1, **FAST
    ).run_open_loop(Design.AFC, rate=0.2)
    assert record["result"] == result_to_dict(fresh)


def test_protocol_rejects_malformed_requests_and_stays_up(tmp_path):
    # A spec with a field JobSpec lacks (a client still sending the
    # retired engine knob) is refused like any other malformed request.
    retired = dict(fast_spec(seeds=1).to_dict(), engine="active")
    submit = json.dumps({"op": "submit", "spec": retired}).encode()

    async def scenario():
        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        await server.start()
        port = server.port

        def client_side():
            with socket.create_connection(
                ("127.0.0.1", port), timeout=10
            ) as sock:
                handle = sock.makefile("rwb")
                for bad in (
                    b"not json\n",
                    b'{"op": "nope"}\n',
                    b"[]\n",
                    submit + b"\n",
                ):
                    handle.write(bad)
                    handle.flush()
                    response = json.loads(handle.readline())
                    assert response["ok"] is False
                assert "'engine'" in response["error"]
                # The connection survived four bad requests.
                handle.write(b'{"op": "ping"}\n')
                handle.flush()
                assert json.loads(handle.readline())["pong"] is True

        await asyncio.wait_for(asyncio.to_thread(client_side), timeout=30)
        await server.stop()

    asyncio.run(scenario())


def test_protocol_over_unix_socket(tmp_path):
    async def scenario():
        service = ExperimentService(ResultStore(tmp_path / "store"), jobs=1)
        path = tmp_path / "serve.sock"
        server = ServiceServer(service, socket_path=path)
        await server.start()
        assert path.exists()

        def client_side():
            with ServiceClient(socket_path=path) as client:
                return client.ping()

        out = await asyncio.wait_for(
            asyncio.to_thread(client_side), timeout=30
        )
        assert out["pong"] is True
        await server.stop()
        assert not path.exists()

    asyncio.run(scenario())
