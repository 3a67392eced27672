"""Read-op classification and the synchronous (unbatched) read executor.

:func:`scalar_read` picks out the requests worth micro-batching (one
key, one python-int answer); everything else — vectors, scans, pings —
goes through :func:`execute_read`: one request dict in, one response
dict out, never raises.  Request-level failures (a malformed query, an
unknown op) come back as error payloads so one bad request fails
*itself* and nothing else — the same isolation the batcher gets from
submit-time validation.

Vector queries (a list or ndarray of keys) answer with ndarrays, which
the wire codec ships as one contiguous buffer — the network analogue of
the engine's batch pipeline.
"""

from __future__ import annotations

import numpy as np

from ..core.records import coerce_query_array
from ..engine.executor import BatchExecutor
from ..serve.batcher import check_query

__all__ = ["READ_OPS", "REPL_OPS", "WRITE_OPS", "execute_read",
           "error_response", "scalar_read"]

#: ops answered from engine state without mutating it
READ_OPS = frozenset({"ping", "lookup", "range", "range_keys"})
#: ops that mutate the index (drain barrier + durable ack)
WRITE_OPS = frozenset({"insert", "delete"})
#: replication ops (durable indexes only, see repro.replica.leader)
REPL_OPS = frozenset({"repl_hello", "repl_manifest", "repl_fetch",
                      "repl_subscribe", "repl_ack", "repl_unpin"})


def error_response(rid, exc: BaseException) -> dict:
    """The error payload for one failed request (connection stays up)."""
    return {
        "id": rid, "ok": False,
        "error": type(exc).__name__, "message": str(exc),
    }


def _is_vector(value) -> bool:
    """The wire codec decodes a batch of keys as a list or an ndarray."""
    return isinstance(value, (list, np.ndarray))


def scalar_read(msg: dict) -> tuple | None:
    """``(kind, lo, hi)`` for a single-key lookup/range, else ``None``.

    A missing field comes back as ``None`` and is rejected by the
    batcher's submit-time validation like any other malformed query.
    """
    op = msg["op"]
    if op == "lookup":
        q = msg.get("q")
        return None if _is_vector(q) else ("lookup", q, None)
    if op == "range":
        lo = msg.get("lo")
        return None if _is_vector(lo) else ("range", lo, msg.get("hi"))
    return None


def execute_read(executor: BatchExecutor, msg: dict) -> dict:
    """Execute one non-scalar read-op request dict against ``executor``."""
    rid = msg.get("id")
    try:
        op = msg.get("op")
        index = executor.index
        if op == "ping":
            return {"id": rid, "ok": True, "r": "pong"}
        if op == "lookup":
            arr, oob = coerce_query_array(msg["q"], index.key_dtype)
            positions = executor.lookup_batch(arr)
            if oob is not None:
                positions[oob] = len(index)  # above every representable key
            return {"id": rid, "ok": True, "r": positions}
        if op == "range":
            counts = executor.count_batch(msg["lo"], msg["hi"])
            return {"id": rid, "ok": True, "r": counts}
        if op == "range_keys":
            lo, hi = msg["lo"], msg["hi"]
            check_query(lo)
            check_query(hi)
            keys = executor.scan_batch([lo], [hi])[0]
            return {"id": rid, "ok": True, "r": keys}
        raise ValueError(f"unknown op {op!r}")
    except Exception as exc:
        return error_response(rid, exc)
