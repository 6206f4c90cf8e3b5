"""Unit tests for the hub ↔ shard wire format (:mod:`repro.serve.shardwire`).

The property suite (``tests/property/test_shardwire_roundtrip.py``)
pins the randomized round-trip/corruption contracts; this file covers
the deterministic surface: framing, every rejection path, the
lifecycle messages, and float sanitization.
"""

import json
import struct
import zlib

import pytest

from repro.api import OptimizerSettings, create_optimizer, query_signature
from repro.serve import RequestStatus, ServeResult
from repro.serve import shardwire
from repro.workloads import QueryGenerator


def make_query(seed=3, tables=5, topology="chain"):
    return QueryGenerator(seed=seed).generate(topology, tables)


def make_result(seed=3):
    query = make_query(seed)
    optimizer = create_optimizer("greedy", OptimizerSettings())
    return optimizer.optimize(query)


def rid_prefix(rid):
    """The u64 rid and the u32 CRC32 of its bytes that open a frame."""
    raw = struct.pack("<Q", rid)
    return raw + struct.pack("<I", zlib.crc32(raw))


class TestFraming:
    def test_message_round_trip(self):
        blob = shardwire.encode_message(42, {"type": "control", "op": "x"})
        rid, body = shardwire.decode_message(blob)
        assert rid == 42
        assert body == {"type": "control", "op": "x"}

    def test_encoding_is_deterministic(self):
        body = {"type": "heartbeat", "b": 1, "a": 2, "shard": 0, "seq": 1}
        assert shardwire.encode_message(7, body) == \
            shardwire.encode_message(7, dict(reversed(body.items())))

    def test_peek_rid_matches_and_never_raises(self):
        blob = shardwire.encode_message(99, {"type": "bye", "shard": 0})
        assert shardwire.peek_rid(blob) == 99
        assert shardwire.peek_rid(b"") == 0
        assert shardwire.peek_rid(b"\x01") == 0

    def test_too_short_rejected(self):
        with pytest.raises(shardwire.ShardWireError, match="too short"):
            shardwire.decode_message(b"\x00" * 10)

    def test_bad_magic_rejected(self):
        blob = bytearray(
            shardwire.encode_message(1, {"type": "bye", "shard": 0})
        )
        blob[12] ^= 0xFF  # first magic byte, after the rid prefix
        with pytest.raises(shardwire.ShardWireError, match="magic"):
            shardwire.decode_message(bytes(blob))

    def test_unknown_schema_version_rejected(self):
        payload = json.dumps({"type": "bye", "shard": 0}).encode()
        blob = (
            rid_prefix(1)
            + struct.pack("<4sHI", shardwire.WIRE_MAGIC,
                          shardwire.SCHEMA_VERSION + 1, 0)
            + payload
        )
        with pytest.raises(shardwire.ShardWireError, match="version"):
            shardwire.decode_message(blob)

    def test_checksum_mismatch_rejected_but_rid_peekable(self):
        blob = bytearray(
            shardwire.encode_message(1234, {"type": "bye", "shard": 0})
        )
        blob[-1] ^= 0x55
        with pytest.raises(shardwire.ShardWireError, match="checksum"):
            shardwire.decode_message(bytes(blob))
        # The rid prefix sits outside the checksummed body on purpose:
        # the receiver can still name the request it must fail.
        assert shardwire.peek_rid(bytes(blob)) == 1234

    def test_corrupt_rid_rejected_and_never_names_a_request(self):
        for index in range(12):  # the u64 rid and its u32 check
            blob = bytearray(
                shardwire.encode_message(1234, {"type": "bye", "shard": 0})
            )
            blob[index] ^= 0x01
            with pytest.raises(shardwire.ShardWireError, match="rid"):
                shardwire.decode_message(bytes(blob))
            # No rid rather than a neighbour's: the frame cannot
            # answer, or fail, a request it was not sent for.
            assert shardwire.peek_rid(bytes(blob)) == 0

    def test_untyped_body_rejected(self):
        payload = json.dumps({"no_type": True}).encode()
        blob = (
            rid_prefix(1)
            + struct.pack("<4sHI", shardwire.WIRE_MAGIC,
                          shardwire.SCHEMA_VERSION, zlib.crc32(payload))
            + payload
        )
        with pytest.raises(shardwire.ShardWireError, match="typed message"):
            shardwire.decode_message(blob)

    def test_unknown_type_rejected(self):
        blob = shardwire.encode_message(1, {"type": "gossip"})
        with pytest.raises(shardwire.ShardWireError, match="unknown message"):
            shardwire.decode_message(blob)


class TestRequests:
    def test_request_round_trip(self):
        query = make_query()
        blob = shardwire.encode_request(
            5, query, "milp", priority=0, deadline_s=1.5,
            catalog_version=3, trace={"trace_id": "t1", "span_id": "s1"},
        )
        rid, body = shardwire.decode_message(blob)
        assert rid == 5
        wire = shardwire.request_from_body(body)
        assert query_signature(wire.query) == query_signature(query)
        assert wire.algorithm == "milp"
        assert wire.priority == 0
        assert wire.deadline_s == pytest.approx(1.5)
        assert wire.catalog_version == 3
        assert wire.trace == {"trace_id": "t1", "span_id": "s1"}

    def test_deadline_free_request(self):
        blob = shardwire.encode_request(1, make_query(), "greedy")
        _, body = shardwire.decode_message(blob)
        wire = shardwire.request_from_body(body)
        assert wire.deadline_s is None
        assert wire.trace is None

    def test_malformed_request_body_is_wire_error(self):
        with pytest.raises(shardwire.ShardWireError, match="malformed"):
            shardwire.request_from_body({"type": "request", "query": {}})


class TestResults:
    def test_completed_result_round_trip(self):
        result = make_result()
        outcome = ServeResult(
            status=RequestStatus.COMPLETED,
            algorithm="greedy",
            result=result,
            degraded_budget=0.25,
            wait_seconds=0.01,
            service_seconds=0.5,
            total_seconds=0.51,
            trace_id="t42",
        )
        blob = shardwire.encode_result(9, outcome)
        rid, body = shardwire.decode_message(blob)
        assert rid == 9
        restored = shardwire.result_from_body(body)
        assert restored.status is RequestStatus.COMPLETED
        assert restored.algorithm == "greedy"
        assert restored.degraded_budget == pytest.approx(0.25)
        assert restored.trace_id == "t42"
        assert restored.result is not None
        assert restored.result.objective == pytest.approx(result.objective)
        assert query_signature(restored.result.query) == \
            query_signature(result.query)

    def test_error_result_round_trip(self):
        outcome = ServeResult(
            status=RequestStatus.TIMED_OUT,
            algorithm="milp",
            error="deadline expired",
        )
        restored = shardwire.result_from_body(
            shardwire.decode_message(shardwire.encode_result(1, outcome))[1]
        )
        assert restored.status is RequestStatus.TIMED_OUT
        assert restored.error == "deadline expired"
        assert restored.result is None

    def test_corrupt_plan_record_is_wire_error(self):
        outcome = ServeResult(
            status=RequestStatus.COMPLETED,
            algorithm="greedy",
            result=make_result(),
        )
        _, body = shardwire.decode_message(shardwire.encode_result(1, outcome))
        record = bytearray(__import__("base64").b64decode(body["plan_record"]))
        record[len(record) // 2] ^= 0x41
        body["plan_record"] = (
            __import__("base64").b64encode(bytes(record)).decode()
        )
        with pytest.raises(shardwire.ShardWireError, match="corrupt"):
            shardwire.result_from_body(body)

    def test_invalid_base64_is_wire_error(self):
        with pytest.raises(shardwire.ShardWireError):
            shardwire.result_from_body({
                "type": "result", "status": "completed",
                "algorithm": "greedy", "plan_record": "!!! not base64 !!!",
            })


class TestLifecycle:
    def test_heartbeat_sanitizes_nonfinite_stats(self):
        blob = shardwire.encode_heartbeat(2, 7, {
            "latency": {"p99": float("inf"), "mean": float("nan")},
            "weird": object(),
        })
        rid, body = shardwire.decode_message(blob)
        assert rid == 0
        assert body["shard"] == 2 and body["seq"] == 7
        assert body["stats"]["latency"] == {"p99": "inf", "mean": "nan"}
        assert isinstance(body["stats"]["weird"], str)

    def test_ready_and_bye(self):
        _, ready = shardwire.decode_message(
            shardwire.encode_ready(1, pid=123, replayed_plans=5,
                                   replayed_bases=2)
        )
        assert ready == {"type": "ready", "shard": 1, "pid": 123,
                         "replayed_plans": 5, "replayed_bases": 2}
        _, bye = shardwire.decode_message(shardwire.encode_bye(1))
        assert bye == {"type": "bye", "shard": 1}

    def test_control_with_extras(self):
        _, body = shardwire.decode_message(
            shardwire.encode_control("cancel", rid=77, reason="deadline")
        )
        assert body["op"] == "cancel"
        assert body["rid"] == 77
        assert body["reason"] == "deadline"
