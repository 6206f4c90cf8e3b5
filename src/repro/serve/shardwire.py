"""Checksum-framed wire format for the hub ↔ shard pipe.

Sharded serving (:mod:`repro.serve.shard`) moves requests and results
across a process boundary.  Pickling user data over that boundary is
off the table — a corrupt or adversarial frame must never execute code
or crash a shard — so every message reuses the repository's existing
serialization discipline:

* query and plan payloads travel as the :mod:`repro.catalog.serde`
  dict forms, and completed plans as the *exact*
  :mod:`repro.store.serde` plan-record bytes (base64 inside the JSON
  body), so a stored plan and a served plan are literally the same
  artifact;
* every frame carries the :mod:`repro.store.serde`-style header —
  4-byte magic, u16 schema version, u32 CRC32 of the body — prefixed
  with a u64 request id and its own CRC32.  The rid sits *outside* the
  checksummed body on purpose: a receiver that fails the checksum can
  still name the request it must fail honestly; a rid failing its own
  check names none, so a frame never answers another request;
* bodies are canonical JSON (sorted keys, compact separators,
  ``allow_nan=False``), which makes encoding deterministic:
  ``encode(decode(frame)) == frame`` byte-for-byte — the property the
  round-trip suite pins.

Corruption handling mirrors the plan store: a bad checksum, wrong
magic, unknown schema version or malformed body raises
:class:`ShardWireError`, and the receiver turns that into an honest
per-request ``FAILED`` result — never a shard crash, never a guess.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.catalog.serde import query_from_dict, query_to_dict
from repro.exceptions import ReproError
from repro.store import serde as store_serde

from repro.serve.server import RequestStatus, ServeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.query import Query

__all__ = [
    "SCHEMA_VERSION",
    "ShardWireError",
    "WireRequest",
    "decode_message",
    "encode_bye",
    "encode_control",
    "encode_heartbeat",
    "encode_message",
    "encode_ready",
    "encode_request",
    "encode_result",
    "peek_rid",
    "request_from_body",
    "result_from_body",
    "sanitize",
]

#: Bump on any change to the framed body layout; receivers reject
#: frames carrying a different version rather than guessing.
SCHEMA_VERSION = 1

#: Shard-wire frame magic (distinct from the store's RPR/RBS magics so
#: a misrouted blob is rejected by name, not by checksum luck).
WIRE_MAGIC = b"RSW\x01"

#: Request id prefix (u64 rid, u32 crc32 of the rid) + store-style
#: frame header (magic 4s, schema version u16, body crc32 u32).
_RID = struct.Struct("<QI")
_FRAME = struct.Struct("<4sHI")

#: Message types carried in the body's ``type`` field.
MESSAGE_TYPES = (
    "request", "result", "heartbeat", "ready", "control", "bye",
)


def _rid_check(rid: int) -> int:
    return zlib.crc32(rid.to_bytes(8, "little"))


class ShardWireError(ReproError):
    """A shard-wire frame failed checksum, framing or body validation.

    Receivers catch this and fail the *named request* honestly (the rid
    prefix survives body corruption); they never crash or misparse.
    """


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def encode_message(rid: int, body: dict[str, Any]) -> bytes:
    """Frame ``body`` as canonical JSON under request id ``rid``.

    ``rid`` is 0 for messages that are not request-scoped (heartbeats,
    ready, control, bye).
    """
    payload = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    return (
        _RID.pack(rid, _rid_check(rid))
        + _FRAME.pack(WIRE_MAGIC, SCHEMA_VERSION, zlib.crc32(payload))
        + payload
    )


def peek_rid(blob: bytes) -> int:
    """Best-effort request id of ``blob`` (0 when the prefix is gone or
    fails its check).  Never raises: this is the corruption path's last
    resort for naming the request it must fail."""
    if len(blob) < _RID.size:
        return 0
    rid, check = _RID.unpack_from(blob)
    return int(rid) if check == _rid_check(rid) else 0


def decode_message(blob: bytes) -> tuple[int, dict[str, Any]]:
    """``(rid, body)`` of a frame; :class:`ShardWireError` on any defect."""
    if len(blob) < _RID.size + _FRAME.size:
        raise ShardWireError(
            f"frame too short ({len(blob)} bytes) for rid + header"
        )
    rid, check = _RID.unpack_from(blob)
    if check != _rid_check(rid):
        raise ShardWireError("rid fails its check (frame corrupt)")
    magic, version, crc = _FRAME.unpack_from(blob, _RID.size)
    if magic != WIRE_MAGIC:
        raise ShardWireError(f"bad magic {magic!r} (expected {WIRE_MAGIC!r})")
    if version != SCHEMA_VERSION:
        raise ShardWireError(
            f"unsupported schema version {version} "
            f"(this receiver speaks {SCHEMA_VERSION})"
        )
    payload = blob[_RID.size + _FRAME.size:]
    if zlib.crc32(payload) != crc:
        raise ShardWireError("checksum mismatch (frame corrupt)")
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ShardWireError(f"unparseable body: {error}") from error
    if not isinstance(body, dict) or "type" not in body:
        raise ShardWireError("body is not a typed message object")
    if body["type"] not in MESSAGE_TYPES:
        raise ShardWireError(f"unknown message type {body['type']!r}")
    return rid, body


# ----------------------------------------------------------------------
# Floats (JSON has no inf/nan literals; deadlines and budgets must
# survive the wire exactly)
# ----------------------------------------------------------------------

def _num(value: float | None) -> float | str | None:
    if value is None:
        return None
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _denum(value: Any) -> float | None:
    if value is None:
        return None
    return float(value)


def sanitize(value: Any, depth: int = 0) -> Any:
    """JSON-safe copy of ``value`` for stats payloads (heartbeats).

    Non-finite floats become strings, non-string keys and exotic
    objects become their ``str`` form — heartbeats are telemetry, not
    round-trip data, so lossy-but-honest is the right trade.
    """
    if depth > 8:
        return "..."
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return _num(value)
    if isinstance(value, dict):
        return {
            str(key): sanitize(item, depth + 1)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [sanitize(item, depth + 1) for item in value]
    return str(value)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WireRequest:
    """A request as decoded on the shard side of the pipe.

    ``deadline_s`` is *remaining* seconds at dispatch time — absolute
    monotonic deadlines are meaningless across processes, so the hub
    converts before sending and the shard re-anchors on its own clock.
    """

    query: "Query"
    algorithm: str
    priority: int = 1
    deadline_s: float | None = None
    catalog_version: int = 0
    #: Serialized :func:`repro.obs.serialize_context` dict, or ``None``
    #: when the hub's request was untraced/unsampled.
    trace: dict[str, str] | None = None


def encode_request(
    rid: int,
    query: "Query",
    algorithm: str,
    *,
    priority: int = 1,
    deadline_s: float | None = None,
    catalog_version: int = 0,
    trace: dict[str, str] | None = None,
) -> bytes:
    """Frame one optimization request for the hub → shard direction."""
    body = {
        "type": "request",
        "query": query_to_dict(query),
        "algorithm": str(algorithm),
        "priority": int(priority),
        "deadline_s": _num(deadline_s),
        "catalog_version": int(catalog_version),
        "trace": dict(trace) if trace else None,
    }
    return encode_message(rid, body)


def request_from_body(body: dict[str, Any]) -> WireRequest:
    """Validated :class:`WireRequest` from a decoded ``request`` body."""
    try:
        query = query_from_dict(body["query"])
        trace = body.get("trace")
        if trace is not None and not isinstance(trace, dict):
            raise ShardWireError("trace context is not a dict")
        return WireRequest(
            query=query,
            algorithm=str(body["algorithm"]),
            priority=int(body["priority"]),
            deadline_s=_denum(body["deadline_s"]),
            catalog_version=int(body["catalog_version"]),
            trace=trace,
        )
    except ShardWireError:
        raise
    except Exception as error:  # noqa: BLE001 - malformed body
        raise ShardWireError(
            f"malformed request body: {type(error).__name__}: {error}"
        ) from error


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

def encode_result(rid: int, outcome: ServeResult) -> bytes:
    """Frame one :class:`ServeResult` for the shard → hub direction.

    A completed plan rides as the exact :mod:`repro.store.serde`
    plan-record bytes (checksummed twice: once by the record frame,
    once by the wire frame), so diagnostics — degradation records,
    trace ids, dropped-key markers — survive verbatim.
    """
    record: str | None = None
    if outcome.result is not None:
        record = base64.b64encode(
            store_serde.encode_plan_record(outcome.result, {})
        ).decode("ascii")
    body = {
        "type": "result",
        "status": outcome.status.value,
        "algorithm": str(outcome.algorithm),
        "error": outcome.error,
        "coalesced": bool(outcome.coalesced),
        "degraded_budget": _num(outcome.degraded_budget),
        "wait_seconds": _num(outcome.wait_seconds),
        "service_seconds": _num(outcome.service_seconds),
        "total_seconds": _num(outcome.total_seconds),
        "trace_id": outcome.trace_id,
        "plan_record": record,
    }
    return encode_message(rid, body)


def result_from_body(body: dict[str, Any]) -> ServeResult:
    """Validated :class:`ServeResult` from a decoded ``result`` body."""
    try:
        status = RequestStatus(body["status"])
        record = body.get("plan_record")
        result = None
        if record is not None:
            try:
                blob = base64.b64decode(
                    record.encode("ascii"), validate=True
                )
            except (binascii.Error, UnicodeEncodeError, AttributeError) as e:
                raise ShardWireError(f"undecodable plan record: {e}") from e
            result, _ = store_serde.decode_plan_record(blob)
        error = body.get("error")
        return ServeResult(
            status=status,
            algorithm=str(body["algorithm"]),
            result=result,
            error=None if error is None else str(error),
            coalesced=bool(body.get("coalesced", False)),
            degraded_budget=_denum(body.get("degraded_budget")),
            wait_seconds=_denum(body.get("wait_seconds")) or 0.0,
            service_seconds=_denum(body.get("service_seconds")) or 0.0,
            total_seconds=_denum(body.get("total_seconds")) or 0.0,
            trace_id=body.get("trace_id"),
        )
    except ShardWireError:
        raise
    except store_serde.StoreCorruptionError as error:
        raise ShardWireError(f"corrupt plan record: {error}") from error
    except Exception as error:  # noqa: BLE001 - malformed body
        raise ShardWireError(
            f"malformed result body: {type(error).__name__}: {error}"
        ) from error


# ----------------------------------------------------------------------
# Lifecycle messages (all rid=0)
# ----------------------------------------------------------------------

def encode_heartbeat(
    shard: int, seq: int, stats: dict[str, Any] | None = None
) -> bytes:
    """Liveness beat with the shard's sanitized metrics snapshot."""
    return encode_message(0, {
        "type": "heartbeat",
        "shard": int(shard),
        "seq": int(seq),
        "stats": sanitize(stats or {}),
    })


def encode_ready(
    shard: int, *, pid: int, replayed_plans: int = 0, replayed_bases: int = 0
) -> bytes:
    """Shard start-up complete (warm replay done); safe to join the ring."""
    return encode_message(0, {
        "type": "ready",
        "shard": int(shard),
        "pid": int(pid),
        "replayed_plans": int(replayed_plans),
        "replayed_bases": int(replayed_bases),
    })


def encode_control(op: str, **extra: Any) -> bytes:
    """Hub → shard control message (``drain``/``stop``/``cancel``/``bump``)."""
    body: dict[str, Any] = {"type": "control", "op": str(op)}
    body.update(sanitize(extra))
    return encode_message(0, body)


def encode_bye(shard: int) -> bytes:
    """Shard's clean goodbye after a drain/stop completes."""
    return encode_message(0, {"type": "bye", "shard": int(shard)})
