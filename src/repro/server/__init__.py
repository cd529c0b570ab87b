"""Network serving tier: one shared engine behind a socket protocol.

``repro serve`` (:mod:`repro.cli`) hosts a
:class:`~repro.server.server.ReproServer`; ``--connect HOST:PORT`` on
``query``/``answers``/``batch``/``watch`` drives it through
:class:`~repro.server.client.ReproClient`; without ``--connect`` the
same commands run its op handlers in process
(:meth:`~repro.server.server.ReproServer.connect_local`).  ``repro
serve --replica-of WAL`` hosts a read-only replica tailing a primary's
log, and
``--connect PRIMARY,REPLICA,...`` drives the fleet through
:class:`~repro.server.client.ReplicaRouter` (read-your-writes routing,
retry/backoff, failover).  See :mod:`repro.server.protocol` for the
frame format and :mod:`repro.server.server` for the
serialization/parity contract.
"""

from repro.server.client import (
    ClientError,
    ClientTimeout,
    ReplicaRouter,
    ReproClient,
    ServerReplyError,
)
from repro.server.protocol import (
    MAX_FRAME,
    FrameError,
    PayloadError,
    ProtocolError,
    ReadOnly,
    ReplicaLagging,
    encode_frame,
    read_frame_async,
    read_frame_sync,
)
from repro.server.server import DEFAULT_MAX_INFLIGHT, ReproServer, ServerThread

__all__ = [
    "ClientError",
    "ClientTimeout",
    "DEFAULT_MAX_INFLIGHT",
    "FrameError",
    "MAX_FRAME",
    "PayloadError",
    "ProtocolError",
    "ReadOnly",
    "ReplicaLagging",
    "ReplicaRouter",
    "ReproClient",
    "ReproServer",
    "ServerReplyError",
    "ServerThread",
    "encode_frame",
    "read_frame_async",
    "read_frame_sync",
]
