"""Replication tier: checkpoint shipping + WAL-tail streaming replicas.

The durable engine already produces everything a warm read replica
needs — bit-identical, checksum-verified segment files per checkpoint
generation (:mod:`repro.engine.persist`), a generation-counted
``MANIFEST.json`` commit point, and a gap-free LSN-ordered WAL
(:mod:`repro.engine.wal`).  This package moves those artifacts over
the wire, following the production recipe of "Learned Indexes for a
Google-scale Disk-based Database": models are expensive to fit and
cheap to ship, so replicas *load* segments (no refits) and absorb the
live tail into their pending buffers.

Two halves, one wire: a follower connects to the leader's ordinary
serving address (:class:`~repro.net.server.NetServer`, framed TLV
protocol of :mod:`repro.net.protocol`) and speaks its ``repl_*`` ops.

* :mod:`repro.replica.leader` — when the served index is durable,
  ``NetServer`` hands those ops to a socketless
  :class:`~repro.replica.leader.ReplicationService` over the leader's
  :class:`~repro.engine.durability.DurabilityManager`.  Its
  :class:`~repro.replica.leader.SegmentShipper` serves pinned manifest
  generations in chunked, checksum-verified segment fetches; its
  :class:`~repro.replica.leader.WalStreamer` tails committed WAL
  records (hooked at the engine apply point) to every subscribed
  follower, heartbeating its head LSN.
* :func:`~repro.replica.follower.follow` /
  :class:`~repro.replica.follower.ReplicaIndex` — syncs a manifest
  generation into a local directory, boots through the engine's
  ordinary recovery path
  (:func:`~repro.engine.durability.replay_directory`), then applies
  the live stream continuously, serving oracle-exact reads with a
  bounded, observable staleness lag (:meth:`ReplicaIndex.lag`).

Lifecycle contract (documented in ``docs/ARCHITECTURE.md``): initial
full sync → continuous streaming → on disconnect, resume from the
local WAL head if the leader still holds those generations
(``keep_generations`` / pins), else fall back to a full generation
re-sync; a synced directory is a bona fide durable directory, so
``repro.open()`` promotes it to a standalone writable index.
"""

from .follower import (
    REPLICA_STATE_NAME,
    ReplicaError,
    ReplicaIndex,
    ReplicaLag,
    follow,
    is_replica_dir,
    read_replica_state,
)
from .leader import SegmentShipper, WalStreamer

__all__ = [
    "REPLICA_STATE_NAME",
    "ReplicaError",
    "ReplicaIndex",
    "ReplicaLag",
    "SegmentShipper",
    "WalStreamer",
    "follow",
    "is_replica_dir",
    "read_replica_state",
]
