"""Blocking client for the serving tier's frame protocol.

:class:`ReproClient` speaks the length-prefixed JSON protocol of
:mod:`repro.server.protocol` over one TCP connection.  Two calling
styles:

* **request/response** — :meth:`call` sends one op and blocks for its
  reply (raising :class:`ServerReplyError` on ``ok: false`` unless
  asked not to);
* **pipelined** — :meth:`send` fires ops without waiting and
  :meth:`wait` collects replies later, keeping ``max_inflight``-deep
  windows full; this is how the throughput benchmark and the
  concurrent-differential tests drive the server.

Watch events pushed by the server (frames with an ``event`` field) are
collected on :attr:`events` as they are read; :meth:`take_events`
hands them over and clears the buffer.

:class:`ReplicaRouter` composes clients into a fault-tolerant session
over one primary and N read replicas: writes go to the primary, reads
round-robin over the replicas carrying the session's last-write ``seq``
as ``min_seq`` (read-your-writes), and every failure mode — a lagging
replica, a dead replica, a dropped connection, a timeout — is absorbed
by bounded waiting, exponential backoff with jitter, and failover to
the next replica or the primary.

Both, and the in-process client of
:meth:`~repro.server.server.ReproServer.connect_local`, take their op
conveniences (``execute``, ``answers``, ``watch``, ...) from
:class:`OpCalls` and differ only in ``call``.
"""

from __future__ import annotations

import random
import socket
import time

from repro.core.errors import ReproError
from repro.server.protocol import MAX_FRAME, encode_frame, read_frame_sync

#: Ops a :class:`ReplicaRouter` may serve from a replica.
_ROUTED_READS = frozenset(("execute", "answers"))

#: Ops whose acknowledged ``seq`` is the router's read-your-writes token.
_WRITE_OPS = frozenset(("assert", "retract", "batch"))


class ClientError(ReproError):
    """The connection died or the reply stream ended unexpectedly."""


class ClientTimeout(ClientError):
    """No reply within the client's ``timeout``.

    The connection is poisoned afterwards — the timeout may have struck
    mid-frame, so frame boundaries are no longer trustworthy.  Callers
    should close and reconnect (:class:`ReplicaRouter` does).
    """


class ServerReplyError(ReproError):
    """An ``ok: false`` reply, surfaced as an exception.

    Carries the server's structured error: :attr:`type` and
    :attr:`reply` (the full frame).
    """

    def __init__(self, reply: dict) -> None:
        error = reply.get("error") or {}
        self.type = error.get("type", "unknown")
        self.reply = reply
        super().__init__(f"{self.type}: {error.get('message', '')}")


class OpCalls:
    """The op conveniences every client shares: each builds one request
    and hands it to the transport's ``call(op, check=..., **fields)``.

    :class:`ReproClient` (a socket), :class:`ReplicaRouter` (a routed
    fleet) and the in-process client of
    :meth:`repro.server.server.ReproServer.connect_local` differ only in
    that ``call``.
    """

    def execute(
        self,
        query: str | None = None,
        *,
        handle: int | None = None,
        semantics: str = "fin",
        method: str = "auto",
        countermodel: bool = False,
        check: bool = True,
    ) -> dict:
        if handle is not None:
            fields: dict = {"handle": handle}
        else:
            fields = {"query": query, "semantics": semantics, "method": method}
        if countermodel:
            fields["countermodel"] = True
        return self.call("execute", check=check, **fields)

    def answers(
        self,
        query: str | None = None,
        free_vars: list[str] | None = None,
        *,
        handle: int | None = None,
        semantics: str = "fin",
        check: bool = True,
    ) -> dict:
        if handle is not None:
            return self.call("answers", check=check, handle=handle)
        return self.call(
            "answers",
            check=check,
            query=query,
            free_vars=list(free_vars or []),
            semantics=semantics,
        )

    def prepare(self, query: str, free_vars=None, **fields) -> int:
        reply = self.call(
            "prepare",
            query=query,
            **({"free_vars": list(free_vars)} if free_vars is not None else {}),
            **fields,
        )
        return reply["handle"]

    def assert_facts(self, facts: str, check: bool = True) -> dict:
        return self.call("assert", check=check, facts=facts)

    def retract_facts(self, facts: str, check: bool = True) -> dict:
        return self.call("retract", check=check, facts=facts)

    def batch(self, lines: list[str], check: bool = True) -> dict:
        return self.call("batch", check=check, lines=list(lines))

    def watch(self, query: str, free_vars: list[str], **fields) -> dict:
        return self.call(
            "watch", query=query, free_vars=list(free_vars), **fields
        )

    def unwatch(self, watch: int) -> dict:
        return self.call("unwatch", watch=watch)

    def stats(self) -> dict:
        return self.call("stats")

    def ping(self) -> dict:
        return self.call("ping")


class ReproClient(OpCalls):
    """One connection to a :class:`~repro.server.server.ReproServer`.

    ``timeout`` bounds every blocking socket wait (connect aside — see
    ``connect_timeout``): when it elapses mid-:meth:`wait` or
    mid-:meth:`send`, a :class:`ClientTimeout` is raised.  The default
    ``None`` blocks forever on a silent server.  (Behavior change: the
    pre-router client passed its 60s connect timeout to
    ``socket.create_connection``, which left a 60s timeout on every
    subsequent op; callers wanting that bound back pass
    ``timeout=60.0`` — the CLI's ``--connect`` path does.)
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = None,
        max_frame: int = MAX_FRAME,
        connect_timeout: float = 60.0,
    ) -> None:
        self._sock = socket.create_connection(
            (host, port), connect_timeout if timeout is None else timeout
        )
        self._sock.settimeout(timeout)
        self.timeout = timeout
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._max_frame = max_frame
        self._next_id = 0
        self._replies: dict[int, dict] = {}
        #: server-pushed watch events, in arrival order
        self.events: list[dict] = []
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for part in (self._wfile, self._rfile, self._sock):
            try:
                part.close()
            except OSError:
                pass

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- pipelined sends ----------------------------------------------------

    def send(self, op: str, **fields) -> int:
        """Fire one op without waiting; returns its request id."""
        self._next_id += 1
        rid = self._next_id
        frame = {"op": op, "id": rid, **fields}
        try:
            self._wfile.write(encode_frame(frame, self._max_frame))
            self._wfile.flush()
        except TimeoutError as exc:
            raise ClientTimeout(
                f"send of request {rid} timed out after {self.timeout}s"
            ) from exc
        return rid

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes (protocol-abuse helper for the test suite)."""
        self._wfile.write(data)
        self._wfile.flush()

    def wait(self, rid: int, check: bool = True) -> dict:
        """Block until the reply for ``rid`` arrives; buffer everything else."""
        while rid not in self._replies:
            try:
                frame = read_frame_sync(self._rfile, self._max_frame)
            except TimeoutError as exc:
                # possibly mid-frame: the stream is no longer framed
                raise ClientTimeout(
                    f"no reply for request {rid} within {self.timeout}s"
                ) from exc
            if frame is None:
                raise ClientError(
                    f"connection closed while waiting for reply {rid}"
                )
            if "event" in frame:
                self.events.append(frame)
                continue
            key = frame.get("id")
            if key is None:
                # an unsolicited error frame (bad payload / fatal framing)
                if frame.get("fatal"):
                    raise ServerReplyError(frame)
                self._replies[-len(self._replies) - 1] = frame
                continue
            self._replies[key] = frame
        reply = self._replies.pop(rid)
        if check and not reply.get("ok", False):
            raise ServerReplyError(reply)
        return reply

    def read_frame(self) -> dict | None:
        """Read one raw frame (events included); ``None`` on EOF."""
        try:
            frame = read_frame_sync(self._rfile, self._max_frame)
        except TimeoutError as exc:
            raise ClientTimeout(
                f"no frame within {self.timeout}s"
            ) from exc
        if frame is not None and "event" in frame:
            self.events.append(frame)
        return frame

    def take_events(self) -> list[dict]:
        """Hand over the buffered watch events (clears the buffer)."""
        events, self.events = self.events, []
        return events

    # -- request/response ---------------------------------------------------

    def call(self, op: str, check: bool = True, **fields) -> dict:
        """Send one op and block for its reply."""
        return self.wait(self.send(op, **fields), check=check)


class ReplicaRouter(OpCalls):
    """Route one client session over a primary and N read replicas.

    Consistency: the router tracks the ``seq`` of the session's last
    acknowledged write and sends it as ``min_seq`` with every
    replica-bound read.  A replica that has not applied that ``seq``
    yet answers ``ReplicaLagging``; the router then backs off
    (exponential + jitter) and retries until ``wait_timeout`` has
    elapsed, after which it falls back to the primary — so every read
    observes the session's own writes, with bounded extra latency.

    Robustness: a replica that times out, drops the connection, or
    refuses service is marked down for ``down_cooldown`` seconds and
    the read fails over to the next replica, then the primary.  Ops on
    the primary retry up to ``retries`` times with the same backoff.
    Writes are fact assertions/retractions — idempotent — so a retry
    after an ambiguous failure (e.g. a timeout after the send) is safe.

    The primary is the session's write side and the home of ``watch``
    subscriptions; ``read_primary=True`` additionally puts it in the
    read rotation (scale-out over *all* processes).  Genuine engine
    error replies (parse errors, unknown handles) are never retried —
    they are the op's real outcome on any server.

    ``rng``/``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        primary: tuple[str, int],
        replicas: list[tuple[str, int]] | None = None,
        *,
        timeout: float | None = 30.0,
        wait_timeout: float = 2.0,
        retries: int = 4,
        backoff: float = 0.05,
        backoff_max: float = 1.0,
        jitter: float = 0.25,
        down_cooldown: float = 1.0,
        read_primary: bool = False,
        max_frame: int = MAX_FRAME,
        rng: random.Random | None = None,
        sleep=time.sleep,
    ) -> None:
        self._primary_addr = tuple(primary)
        self._replica_addrs = [tuple(a) for a in (replicas or [])]
        self.timeout = timeout
        self.wait_timeout = wait_timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.down_cooldown = down_cooldown
        self.read_primary = read_primary
        self._max_frame = max_frame
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._primary: ReproClient | None = None
        self._replicas: dict[int, ReproClient] = {}
        self._down_until: dict[int, float] = {}
        self._rr = 0
        #: ``seq`` of the last acknowledged write (read-your-writes token)
        self.last_write_seq = 0
        self.counters = {
            "reads": 0,
            "replica_reads": 0,
            "primary_fallbacks": 0,
            "failovers": 0,
            "lag_waits": 0,
            "retries": 0,
        }

    # -- connections --------------------------------------------------------

    def _connect(self, addr: tuple[str, int]) -> ReproClient:
        return ReproClient(
            addr[0], addr[1], timeout=self.timeout, max_frame=self._max_frame
        )

    def _primary_client(self) -> ReproClient:
        if self._primary is None:
            self._primary = self._connect(self._primary_addr)
        return self._primary

    def _replica_client(self, idx: int) -> ReproClient:
        client = self._replicas.get(idx)
        if client is None:
            client = self._connect(self._replica_addrs[idx])
            self._replicas[idx] = client
        return client

    def _drop_primary(self) -> None:
        if self._primary is not None:
            self._primary.close()
            self._primary = None

    def _mark_down(self, idx: int, why) -> None:
        client = self._replicas.pop(idx, None)
        if client is not None:
            client.close()
        self._down_until[idx] = time.monotonic() + self.down_cooldown

    def _read_targets(self) -> list[int]:
        """Replica indices currently worth trying (cooldowns expired)."""
        now = time.monotonic()
        targets = []
        for idx in range(len(self._replica_addrs)):
            until = self._down_until.get(idx)
            if until is not None:
                if now < until:
                    continue
                del self._down_until[idx]
            targets.append(idx)
        return targets

    def _backoff_delay(self, attempt: int) -> float:
        base = min(self.backoff * (2 ** attempt), self.backoff_max)
        return base * (1 + self.jitter * self._rng.random())

    # -- routed calls -------------------------------------------------------

    def _read(self, op: str, fields: dict, check: bool = True) -> dict:
        """One read: replicas first (gated by ``min_seq``), primary last."""
        self.counters["reads"] += 1
        deadline = time.monotonic() + self.wait_timeout
        attempt = 0
        while self._replica_addrs or self.read_primary:
            targets: list = self._read_targets()
            if self.read_primary:
                targets.append(-1)
            if not targets:
                break
            self._rr += 1
            pivot = self._rr % len(targets)
            lagging = False
            for idx in targets[pivot:] + targets[:pivot]:
                if idx == -1:
                    return self._primary_call(op, fields, check)
                try:
                    reply = self._replica_client(idx).call(
                        op, check=False, min_seq=self.last_write_seq, **fields
                    )
                except (ClientError, ConnectionError, OSError) as exc:
                    self.counters["failovers"] += 1
                    self._mark_down(idx, exc)
                    continue
                error_type = (reply.get("error") or {}).get("type")
                if error_type in ("ReadOnly", "Draining"):
                    # a replica that cannot serve reads is down to us
                    self.counters["failovers"] += 1
                    self._mark_down(idx, error_type)
                    continue
                if error_type == "ReplicaLagging" or (
                    reply.get("applied_seq", self.last_write_seq)
                    < self.last_write_seq
                ):
                    lagging = True
                    continue
                self.counters["replica_reads"] += 1
                if check and not reply.get("ok", False):
                    raise ServerReplyError(reply)
                return reply
            if not lagging:
                break  # every replica is down, not merely behind
            if time.monotonic() >= deadline:
                break  # bounded staleness wait exhausted
            self.counters["lag_waits"] += 1
            self._sleep(self._backoff_delay(attempt))
            attempt += 1
        self.counters["primary_fallbacks"] += 1
        return self._primary_call(op, fields, check)

    def _primary_call(
        self, op: str, fields: dict, check: bool = True, is_write: bool = False
    ) -> dict:
        """One op on the primary, with retry + backoff on dead connections."""
        attempt = 0
        while True:
            try:
                reply = self._primary_client().call(op, check=False, **fields)
            except (ClientError, ConnectionError, OSError):
                self._drop_primary()
                if attempt >= self.retries:
                    raise
                self.counters["retries"] += 1
                self._sleep(self._backoff_delay(attempt))
                attempt += 1
                continue
            if is_write and reply.get("ok", False):
                seq = reply.get("seq", 0)
                if seq > self.last_write_seq:
                    self.last_write_seq = seq
            if check and not reply.get("ok", False):
                raise ServerReplyError(reply)
            return reply

    # -- the op surface -----------------------------------------------------

    def call(self, op: str, check: bool = True, **fields) -> dict:
        """One op, routed: text reads to the replicas, the rest to the
        primary (a plan handle lives on the primary's connection)."""
        if op in _ROUTED_READS and "handle" not in fields:
            return self._read(op, fields, check)
        return self._primary_call(
            op, fields, check, is_write=op in _WRITE_OPS
        )

    def take_events(self) -> list[dict]:
        if self._primary is None:
            return []
        return self._primary.take_events()

    def replica_stats(self) -> list[dict | None]:
        """Best-effort ``stats`` from each replica (``None`` if unreachable)."""
        out: list[dict | None] = []
        for idx in range(len(self._replica_addrs)):
            try:
                out.append(self._replica_client(idx).call("stats"))
            except (ClientError, ConnectionError, OSError) as exc:
                self._mark_down(idx, exc)
                out.append(None)
        return out

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._primary is not None:
            self._primary.close()
            self._primary = None
        for client in self._replicas.values():
            client.close()
        self._replicas.clear()

    def __enter__(self) -> "ReplicaRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "ClientError",
    "ClientTimeout",
    "OpCalls",
    "ReplicaRouter",
    "ReproClient",
    "ServerReplyError",
]
