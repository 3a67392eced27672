"""Networked serving: wire protocol, TCP front end, pipelining client.

:class:`~repro.serve.server.IndexServer` is in-process asyncio.  This
package puts a network boundary around it — and nothing else: one
process serves, and reads scale out through
:func:`repro.replica.follow` replicas, not through a second mechanism
here.

* :mod:`repro.net.protocol` — a length-prefixed binary frame codec
  (magic + version + u32 length, TLV payload) with an incremental
  decoder built for adversarial peers: bad magic, oversized prefixes
  and truncated frames all fail loudly at the connection that sent
  them, never anywhere else.
* :mod:`repro.net.server` — :class:`NetServer`, an asyncio TCP front
  end whose socket-read boundary feeds the
  server's read core *synchronously*: every request decoded from one
  TCP read joins the current micro-batch with no per-request task
  churn, through the same admit/publish path in-process callers use.
* :mod:`repro.net.client` — :class:`Client`, a thin async client with
  pipelining (request-id matched futures), per-request timeouts and
  reconnect-on-idempotent-read.
* :mod:`repro.net.ops` — which requests are worth micro-batching, and
  the synchronous executor for the rest (vectors, scans, pings).

Entry points: ``Index.serve(addr=...)`` (:mod:`repro.api`) and the CLI
``serve`` subcommand.
"""

from .client import Client
from .protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame,
    pack,
    unpack,
)
from .server import NetServer

__all__ = [
    "Client",
    "NetServer",
    "FrameDecoder",
    "ProtocolError",
    "encode_frame",
    "pack",
    "unpack",
]
