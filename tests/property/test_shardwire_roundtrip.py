"""Property-based validation of the shard wire format.

Three contracts over randomized requests/results:

1. **Identity** — every field of a ``ServeRequest``-shaped wire request
   and every field of a :class:`ServeResult` (status, error, budgets,
   latencies, trace id, and the full plan payload with its
   diagnostics — degradation records included) survives the pipe.
2. **Determinism** — re-encoding a decoded message reproduces the
   original frame byte-for-byte (canonical JSON + exact
   ``store.serde`` record bytes), so retries and replays compare
   equal.
3. **Corruption honesty** — any single-byte flip, truncation or
   ``faultinject.corrupt_payload`` mangling raises
   :class:`ShardWireError` (never a misparse, never a crash), while
   the rid prefix stays readable whenever its 12 bytes survived — the
   receiver can still fail the *named* request — and reads as no rid
   otherwise, never as another request's.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faultinject
from repro.api import OptimizerSettings, create_optimizer, query_signature
from repro.serve import RequestStatus, ServeResult
from repro.serve import shardwire
from repro.workloads import QueryGenerator

TOPOLOGIES = ("chain", "star", "cycle")
#: Bytes of the frame's rid prefix: the u64 rid and its u32 check.
RID_PREFIX = 12

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
maybe_budget = st.one_of(st.none(), finite)


def result_for(topology, seed, tables):
    query = QueryGenerator(seed=seed).generate(topology, tables)
    optimizer = create_optimizer("greedy", OptimizerSettings())
    return optimizer.optimize(query)


class TestRequestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        rid=st.integers(min_value=0, max_value=2**64 - 1),
        topology=st.sampled_from(TOPOLOGIES),
        seed=st.integers(min_value=0, max_value=5_000),
        tables=st.integers(min_value=3, max_value=8),
        priority=st.integers(min_value=0, max_value=2),
        deadline=maybe_budget,
        catalog_version=st.integers(min_value=0, max_value=100),
        traced=st.booleans(),
    )
    def test_every_field_round_trips(self, rid, topology, seed, tables,
                                     priority, deadline, catalog_version,
                                     traced):
        query = QueryGenerator(seed=seed).generate(topology, tables)
        trace = {"trace_id": f"t{seed}", "span_id": f"s{seed}"} \
            if traced else None
        blob = shardwire.encode_request(
            rid, query, "milp", priority=priority, deadline_s=deadline,
            catalog_version=catalog_version, trace=trace,
        )
        got_rid, body = shardwire.decode_message(blob)
        wire = shardwire.request_from_body(body)
        assert got_rid == rid
        assert shardwire.peek_rid(blob) == rid
        assert query_signature(wire.query) == query_signature(query)
        assert wire.priority == priority
        assert wire.catalog_version == catalog_version
        assert wire.trace == trace
        if deadline is None:
            assert wire.deadline_s is None
        else:
            assert wire.deadline_s == pytest.approx(deadline)
        # Determinism: encoding the same request again is byte-identical.
        assert shardwire.encode_request(
            rid, query, "milp", priority=priority, deadline_s=deadline,
            catalog_version=catalog_version, trace=trace,
        ) == blob


class TestResultRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        rid=st.integers(min_value=1, max_value=2**63),
        topology=st.sampled_from(TOPOLOGIES),
        seed=st.integers(min_value=0, max_value=5_000),
        status=st.sampled_from([
            RequestStatus.COMPLETED, RequestStatus.TIMED_OUT,
            RequestStatus.FAILED, RequestStatus.REJECTED,
            RequestStatus.CANCELLED,
        ]),
        error=st.one_of(st.none(), st.text(min_size=1, max_size=80)),
        coalesced=st.booleans(),
        degraded=maybe_budget,
        wait=finite,
        service=finite,
        traced=st.booleans(),
    )
    def test_every_field_round_trips(self, rid, topology, seed, status,
                                     error, coalesced, degraded, wait,
                                     service, traced):
        result = result_for(topology, seed, 5) \
            if status is RequestStatus.COMPLETED else None
        if result is not None:
            # Diagnostics (incl. degradation-shaped records) must
            # survive verbatim through the embedded store record.
            result.diagnostics["degraded"] = {
                "budget": 0.25, "reason": "deadline",
            }
        outcome = ServeResult(
            status=status,
            algorithm="milp",
            result=result,
            error=error,
            coalesced=coalesced,
            degraded_budget=degraded,
            wait_seconds=wait,
            service_seconds=service,
            total_seconds=wait + service,
            trace_id=f"t{seed}" if traced else None,
        )
        blob = shardwire.encode_result(rid, outcome)
        got_rid, body = shardwire.decode_message(blob)
        restored = shardwire.result_from_body(body)
        assert got_rid == rid
        assert restored.status is status
        assert restored.algorithm == outcome.algorithm
        assert restored.error == error
        assert restored.coalesced == coalesced
        if degraded is None:
            assert restored.degraded_budget is None
        else:
            assert restored.degraded_budget == pytest.approx(degraded)
        assert restored.wait_seconds == pytest.approx(wait)
        assert restored.service_seconds == pytest.approx(service)
        assert restored.trace_id == outcome.trace_id
        if result is None:
            assert restored.result is None
        else:
            assert restored.result.objective == \
                pytest.approx(result.objective)
            assert restored.result.diagnostics["degraded"] == {
                "budget": 0.25, "reason": "deadline",
            }
            assert query_signature(restored.result.query) == \
                query_signature(result.query)
        # Determinism: the restored result re-encodes byte-identically
        # (canonical JSON + exact store.serde record bytes).
        assert shardwire.encode_result(rid, restored) == blob


class TestCorruptionHonesty:
    @settings(max_examples=40, deadline=None)
    @given(
        rid=st.integers(min_value=1, max_value=2**63),
        seed=st.integers(min_value=0, max_value=5_000),
        position=st.floats(min_value=0.0, max_value=1.0),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_any_byte_flip_raises_never_misparses(self, rid, seed,
                                                  position, flip):
        outcome = ServeResult(
            status=RequestStatus.COMPLETED,
            algorithm="greedy",
            result=result_for("chain", seed % 40, 4),
        )
        blob = bytearray(shardwire.encode_result(rid, outcome))
        index = min(int(position * len(blob)), len(blob) - 1)
        blob[index] ^= flip
        mutated = bytes(blob)
        with pytest.raises(shardwire.ShardWireError):
            body = shardwire.decode_message(mutated)[1]
            # A flip inside the base64 plan record can survive the
            # outer CRC only by breaking the inner record's CRC.
            shardwire.result_from_body(body)
        if index < RID_PREFIX:
            # The rid prefix sits *outside* the checksummed body by
            # design (so a corrupt body can still name its request)
            # but carries its own check: a flipped rid reads as no rid,
            # never as a different request's — the real request is
            # covered by its deadline or shard-death disposition.
            assert shardwire.peek_rid(mutated) == 0
        else:
            # The rid prefix survived: the receiver can name the
            # request it must fail honestly.
            assert shardwire.peek_rid(mutated) == rid

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_faultinject_corruption_is_detected(self, seed):
        """Every ``corrupt_payload`` mode (bit flips, truncation,
        zeroing, garbage append) is caught, end to end."""
        query = QueryGenerator(seed=seed % 50).generate("star", 5)
        blob = shardwire.encode_request(seed + 1, query, "milp",
                                        deadline_s=0.5)
        corrupted = faultinject.corrupt_payload(blob, random.Random(seed))
        with pytest.raises(shardwire.ShardWireError):
            rid, body = shardwire.decode_message(corrupted)
            shardwire.request_from_body(body)

    @settings(max_examples=20, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=15))
    def test_truncation_raises(self, cut):
        blob = shardwire.encode_message(5, {"type": "bye", "shard": 0})
        with pytest.raises(shardwire.ShardWireError):
            shardwire.decode_message(blob[:cut])
