"""Canonical hashing, exact serialization, and the result store.

The load-bearing property here is **bit-identity**: a result that
round-trips through the store's JSON codec equals the original
dataclass field-for-field, so a cached answer is indistinguishable
from a fresh simulation.  The key tests pin the hashing discipline:
every result-determining knob changes the key.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultSpec, ProtectionConfig
from repro.harness.experiment import ExperimentRunner
from repro.network.config import Design, NetworkConfig
from repro.obs.hub import ObservabilityOptions
from repro.service import (
    JobSpec,
    ResultStore,
    canonical_json,
    canonicalize,
    content_key,
    result_from_dict,
    result_to_dict,
    sample_from_dict,
    sample_to_dict,
)
from repro.traffic.workloads import WORKLOADS

FAST = dict(warmup_cycles=100, measure_cycles=300, seeds=2)


# -- canonical JSON --------------------------------------------------------


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2, {"z": None, "y": 0.5}]})
    b = canonical_json({"a": [1, 2, {"y": 0.5, "z": None}], "b": 1})
    assert a == b
    assert content_key({"b": 1, "a": 2}) == content_key({"a": 2, "b": 1})


def test_canonicalize_handles_enums_dataclasses_tuples():
    payload = canonicalize(
        {
            "design": Design.AFC,
            "config": NetworkConfig(width=4, height=2),
            "pair": (1, 2),
        }
    )
    assert payload["design"] == "afc"
    assert payload["config"]["width"] == 4
    assert payload["pair"] == [1, 2]
    # The result is pure JSON: dumps round-trips it.
    assert json.loads(canonical_json(payload)) == payload


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonicalize_rejects_key_collisions():
    with pytest.raises(ValueError):
        canonicalize({1: "a", "1": "b"})


# -- key discipline --------------------------------------------------------


def test_key_is_stable_across_processes():
    # A literal pin: if this changes, every stored result is orphaned,
    # which is only correct when the hashed payload deliberately
    # changed shape (bump _HASH_SCHEMA when it does).
    spec = JobSpec(kind="closed_loop", workload="apache", **FAST)
    assert spec.key() == JobSpec.from_dict(spec.to_dict()).key()
    assert len(spec.key()) == 64


@pytest.mark.parametrize(
    "change",
    [
        dict(width=4),
        dict(measure_cycles=400),
        dict(seeds=3),
        dict(base_seed=7),
        dict(design=Design.BACKPRESSURED),
        dict(workload="ocean"),
        dict(metrics=True),
    ],
)
def test_key_sees_every_result_determining_knob(change):
    base = JobSpec(kind="closed_loop", workload="apache", **FAST)
    kwargs = {"kind": "closed_loop", "workload": "apache", **FAST, **change}
    assert base.key() != JobSpec(**kwargs).key()


def test_key_sees_fault_and_protection():
    base = JobSpec(kind="faulted", rate=0.15, **FAST)
    flapped = JobSpec(
        kind="faulted",
        rate=0.15,
        fault=FaultSpec(link_flap_rate=2e-4),
        **FAST,
    )
    unprotected = JobSpec(
        kind="faulted", rate=0.15, protection=None, **FAST
    )
    retuned = JobSpec(
        kind="faulted",
        rate=0.15,
        protection=ProtectionConfig(max_retries=9),
        **FAST,
    )
    keys = {s.key() for s in (base, flapped, unprotected, retuned)}
    assert len(keys) == 4


def test_kinds_never_collide():
    closed = JobSpec(kind="closed_loop", workload="apache", **FAST)
    open_ = JobSpec(kind="open_loop", rate=0.2, **FAST)
    faulted = JobSpec(kind="faulted", rate=0.2, **FAST)
    assert len({closed.key(), open_.key(), faulted.key()}) == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        JobSpec(kind="warp_drive")
    with pytest.raises(ValueError):
        JobSpec(kind="closed_loop", workload="nope")
    with pytest.raises(ValueError):
        JobSpec(kind="open_loop", rate=1.5)
    with pytest.raises(ValueError):
        JobSpec.from_dict({"kind": "open_loop", "rate": 0.2, "bogus": 1})
    # A field JobSpec lacks (here the retired engine knob) is refused by
    # name, never silently dropped.
    with pytest.raises(ValueError, match="'engine'"):
        JobSpec.from_dict(
            {"kind": "open_loop", "rate": 0.2, "engine": "active"}
        )


# -- exact result round-trips ---------------------------------------------


def _through_json(payload: dict) -> dict:
    """Force the value through an actual JSON encode/decode, exactly
    as the store and the wire protocol do."""
    return json.loads(json.dumps(payload))


def test_closed_loop_result_round_trips_exactly():
    runner = ExperimentRunner(
        NetworkConfig(3, 3),
        jobs=1,
        obs=ObservabilityOptions(metrics=True),
        **FAST,
    )
    result = runner.run_closed_loop(Design.AFC, WORKLOADS["apache"])
    encoded = _through_json(result_to_dict(result))
    assert result_from_dict(encoded) == result
    assert result_to_dict(result_from_dict(encoded)) == encoded


def test_open_loop_result_round_trips_exactly():
    runner = ExperimentRunner(NetworkConfig(3, 3), jobs=1, **FAST)
    result = runner.run_open_loop(
        Design.AFC, rate=0.2, latency_groups={"corner": [0]}
    )
    encoded = _through_json(result_to_dict(result))
    assert result_from_dict(encoded) == result


def test_fault_result_round_trips_exactly():
    runner = ExperimentRunner(NetworkConfig(3, 3), jobs=1, **FAST)
    result = runner.run_faulted(
        Design.AFC,
        rate=0.15,
        spec=FaultSpec(link_flap_rate=2e-4, bit_error_rate=1e-4),
        drain_max_cycles=5_000,
    )
    encoded = _through_json(result_to_dict(result))
    assert result_from_dict(encoded) == result


def test_sample_round_trips_exactly():
    spec = JobSpec(kind="open_loop", rate=0.2, metrics=True, **FAST)
    sample = spec.run_seed(0)
    encoded = _through_json(sample_to_dict(sample))
    assert sample_from_dict(encoded) == sample


# -- the store -------------------------------------------------------------


def test_store_put_get_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    spec = JobSpec(
        kind="open_loop",
        rate=0.2,
        warmup_cycles=100,
        measure_cycles=300,
        seeds=1,
    )
    result = spec.aggregate([spec.run_seed(0)])
    key = spec.key()
    assert key not in store
    record = store.put(key, spec.kind, spec.to_dict(), result_to_dict(result))
    assert key in store
    assert store.get(key) == record
    assert result_from_dict(store.get(key)["result"]) == result
    assert list(store.keys()) == [key]
    assert len(store) == 1


def test_store_rejects_garbage_keys(tmp_path):
    store = ResultStore(tmp_path)
    with pytest.raises(ValueError):
        store.get("../../../etc/passwd")


def test_store_survives_reopen(tmp_path):
    store = ResultStore(tmp_path)
    store.put("ab" * 32, "open_loop", {"spec": 1}, {"kind": "open_loop"})
    again = ResultStore(tmp_path)
    assert ("ab" * 32) in again
    assert again.get("ab" * 32)["spec"] == {"spec": 1}


def test_partials_checkpoint_and_tolerate_torn_tail(tmp_path):
    store = ResultStore(tmp_path)
    key = "cd" * 32
    store.checkpoint_seed(key, 0, {"kind": "x", "value": 1})
    store.checkpoint_seed(key, 2, {"kind": "x", "value": 3})
    # A crash mid-append leaves a torn final line; readers drop it.
    with open(
        tmp_path / "partials" / f"{key}.jsonl", "a", encoding="utf-8"
    ) as handle:
        handle.write('{"seed_index": 5, "sam')
    seeds = store.partial_seeds(key)
    assert set(seeds) == {0, 2}
    assert seeds[2] == {"kind": "x", "value": 3}
    store.clear_partials(key)
    assert store.partial_seeds(key) == {}
