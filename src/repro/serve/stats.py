"""Serving telemetry: latency percentiles, batch shapes, cache health.

:class:`ServerStats` is deliberately boring — bounded-memory counters a
hot path can feed with O(1) appends.  Latencies go into a fixed-size
ring (oldest samples fall off under sustained load, which is what a
serving dashboard wants anyway); batch sizes into a histogram dict;
cache and backpressure activity into plain counters.  ``snapshot()``
renders the lot into one flat dict the CLI and benchmarks print.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import asdict, dataclass

import numpy as np

#: closed-connection records :class:`ServerStats` retains (open ones are
#: always kept); bounds the ``stats`` wire frame under client churn
MAX_CLOSED_CONNECTIONS = 1024


@dataclass
class FollowerStats:
    """Per-follower counters the replication service maintains.

    Lives on the :class:`ConnectionStats` of the connection that sent a
    ``repl_*`` op, so it is kept and evicted with that record.
    ``ship_bytes`` counts full-sync segment chunk payloads;
    ``stream_bytes`` counts live WAL-batch payloads — the two counters
    the acceptance test uses to prove a reconnect resumed incrementally
    instead of re-shipping the generation.  ``lag_lsn``/``lag_s`` are
    the follower's last self-reported staleness (piggybacked on its
    acks).
    """

    subscribed_from: int = 0
    acked_lsn: int = 0
    lag_lsn: int = 0
    lag_s: float = 0.0
    streamed_records: int = 0
    stream_bytes: int = 0
    ship_bytes: int = 0
    resyncs: int = 0

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


#: follower counters whose snapshot totals survive record eviction
_FOLLOWER_TOTALS = ("ship_bytes", "stream_bytes", "resyncs")


@dataclass
class ConnectionStats:
    """Per-connection counters the network front end maintains.

    One record per accepted TCP connection, kept after close so a
    post-mortem snapshot still shows what the peer did — up to
    :data:`MAX_CLOSED_CONNECTIONS` closed records; older ones are
    folded into the roll-up totals.  ``errors``
    counts per-request failures answered with an error frame;
    ``protocol_errors`` counts framing violations, which also close
    the connection.  ``follower`` is set once the peer speaks
    replication (:meth:`ServerStats.open_follower`).
    """

    peer: str = "?"
    requests: int = 0
    responses: int = 0
    writes: int = 0
    errors: int = 0
    protocol_errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    open: bool = True
    follower: FollowerStats | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "peer": self.peer, "requests": self.requests,
            "responses": self.responses, "writes": self.writes,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "bytes_in": self.bytes_in, "bytes_out": self.bytes_out,
            "open": self.open,
        }


class ServerStats:
    """Aggregated serving metrics (latency ring, histograms, counters)."""

    def __init__(self, latency_window: int = 65536) -> None:
        self._latencies: deque = deque(maxlen=latency_window)
        self.batch_sizes: Counter = Counter()
        self.served = 0
        self.cache_hits = 0
        self.writes = 0
        self.invalidated_points = 0
        self.invalidated_ranges = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.backpressure_waits = 0
        self.retunes = 0
        self.background_retunes = 0
        self.background_retune_errors = 0
        self.group_commits = 0
        self.checkpoints = 0
        self.background_checkpoints = 0
        self.background_checkpoint_errors = 0
        #: per-connection counter map (network front end): every open
        #: connection plus the most recent closed ones
        self.connections: dict[int, ConnectionStats] = {}
        self._closed_connections: deque = deque()
        self._evicted_protocol_errors = 0
        self._evicted_followers = dict.fromkeys(_FOLLOWER_TOTALS, 0)
        self._next_conn_id = 0
        self._followers_opened = 0

    # ------------------------------------------------------------------
    # network front-end feeds
    # ------------------------------------------------------------------
    def open_connection(self, peer: str) -> tuple[int, ConnectionStats]:
        """Register an accepted connection; returns (id, its counters)."""
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        rec = ConnectionStats(peer=peer)
        self.connections[conn_id] = rec
        return conn_id, rec

    def close_connection(self, conn_id: int) -> None:
        """Mark a connection closed (its counters stay readable).

        Beyond :data:`MAX_CLOSED_CONNECTIONS` closed records the oldest
        is evicted and its counters folded into the roll-up, so the
        snapshot totals stay exact while the map stays bounded.
        """
        rec = self.connections.get(conn_id)
        if rec is None or not rec.open:
            return
        rec.open = False
        self._closed_connections.append(conn_id)
        if len(self._closed_connections) > MAX_CLOSED_CONNECTIONS:
            evicted = self.connections.pop(self._closed_connections.popleft())
            self._evicted_protocol_errors += evicted.protocol_errors
            if evicted.follower is not None:
                for name in _FOLLOWER_TOTALS:
                    self._evicted_followers[name] += getattr(
                        evicted.follower, name)

    def open_follower(self, conn: ConnectionStats) -> FollowerStats:
        """Mark ``conn`` a replication follower; returns its counters."""
        self._followers_opened += 1
        conn.follower = FollowerStats()
        return conn.follower

    # ------------------------------------------------------------------
    # hot-path feeds
    # ------------------------------------------------------------------
    def record_latency(self, seconds: float) -> None:
        """One served request's submit-to-answer latency."""
        self._latencies.append(seconds)
        self.served += 1

    def record_batch(self, size: int) -> None:
        """One dispatched batch of ``size`` requests."""
        self.batch_sizes[int(size)] += 1

    def record_cache_hit(self) -> None:
        """One request answered straight from the result cache."""
        self.served += 1
        self.cache_hits += 1

    def record_write(self, dropped_points: int = 0, dropped_ranges: int = 0) -> None:
        """One applied write and the cache entries it invalidated."""
        self.writes += 1
        self.invalidated_points += dropped_points
        self.invalidated_ranges += dropped_ranges

    def request_started(self) -> None:
        """A request entered the server (tracks peak concurrency)."""
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def request_finished(self) -> None:
        """The matching exit bookend of :meth:`request_started`."""
        self.inflight -= 1

    # ------------------------------------------------------------------
    # readouts
    # ------------------------------------------------------------------
    def latency_us(self, percentile: float) -> float:
        """Latency percentile in microseconds (NaN before any sample)."""
        if not self._latencies:
            return float("nan")
        return float(np.percentile(np.asarray(self._latencies), percentile) * 1e6)

    @property
    def num_batches(self) -> int:
        return sum(self.batch_sizes.values())

    @property
    def mean_batch_size(self) -> float:
        total = self.num_batches
        if total == 0:
            return float("nan")
        return sum(s * c for s, c in self.batch_sizes.items()) / total

    @property
    def cache_hit_rate(self) -> float:
        """Hits over all served requests (0.0 before any request)."""
        return self.cache_hits / self.served if self.served else 0.0

    def batch_histogram(self, bins=(1, 2, 4, 8, 16, 32, 64, 128, 256)) -> dict:
        """Batch-size counts rolled up into ``<=bin`` buckets."""
        out = {f"<={b}": 0 for b in bins}
        out[f">{bins[-1]}"] = 0
        for size, count in self.batch_sizes.items():
            for b in bins:
                if size <= b:
                    out[f"<={b}"] += count
                    break
            else:
                out[f">{bins[-1]}"] += count
        return out

    def snapshot(self) -> dict[str, object]:
        """Flat metrics dict (what the CLI and benchmarks print)."""
        protocol_errors = self._evicted_protocol_errors
        totals = dict(self._evicted_followers)
        connected = lag_lsn = 0
        lag_s = 0.0
        for c in self.connections.values():
            protocol_errors += c.protocol_errors
            f = c.follower
            if f is None:
                continue
            for name in _FOLLOWER_TOTALS:
                totals[name] += getattr(f, name)
            if c.open:
                connected += 1
                lag_lsn = max(lag_lsn, f.lag_lsn)
                lag_s = max(lag_s, f.lag_s)
        return {
            "served": self.served,
            "p50_us": self.latency_us(50),
            "p99_us": self.latency_us(99),
            "batches": self.num_batches,
            "mean_batch": self.mean_batch_size,
            "cache_hit_rate": self.cache_hit_rate,
            "writes": self.writes,
            "invalidated_points": self.invalidated_points,
            "invalidated_ranges": self.invalidated_ranges,
            "peak_inflight": self.peak_inflight,
            "backpressure_waits": self.backpressure_waits,
            "retunes": self.retunes,
            "background_retunes": self.background_retunes,
            "background_retune_errors": self.background_retune_errors,
            "group_commits": self.group_commits,
            "checkpoints": self.checkpoints,
            "background_checkpoints": self.background_checkpoints,
            "background_checkpoint_errors": self.background_checkpoint_errors,
            "connections": self._next_conn_id,
            "open_connections": (
                len(self.connections) - len(self._closed_connections)),
            "protocol_errors": protocol_errors,
            "followers": self._followers_opened,
            "connected_followers": connected,
            "max_follower_lag_lsn": lag_lsn,
            "max_follower_lag_s": lag_s,
            "ship_bytes": totals["ship_bytes"],
            "stream_bytes": totals["stream_bytes"],
            "follower_resyncs": totals["resyncs"],
        }

    def net_snapshot(self) -> dict[str, object]:
        """Per-connection and per-follower counter maps, keyed by
        connection id."""
        return {
            "connections": {
                cid: c.to_dict() for cid, c in self.connections.items()},
            "followers": {
                cid: dict(c.follower.to_dict(), peer=c.peer, connected=c.open)
                for cid, c in self.connections.items()
                if c.follower is not None},
        }

    def describe(self) -> str:  # pragma: no cover - formatting aid
        """Multi-line text rendering of :meth:`snapshot` + histogram."""
        snap = self.snapshot()
        lines = [f"{k:>20}: {v}" for k, v in snap.items()]
        hist = self.batch_histogram()
        lines.append(f"{'batch histogram':>20}: "
                     + ", ".join(f"{k}:{v}" for k, v in hist.items() if v))
        return "\n".join(lines)
