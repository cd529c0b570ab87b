"""The serving tier: many client connections, one engine, one order.

:class:`ReproServer` is an :mod:`asyncio` socket front end that
multiplexes any number of concurrent client connections onto ONE shared
:class:`~repro.api.session.Session`.  The concurrency discipline is the
whole design:

* every parsed request is appended to a single FIFO **op queue**;
* one **engine loop** drains that queue and is the only code that ever
  touches the session — reads, writes, plan compilation, view
  refreshes all happen there, in global arrival order;
* each op is stamped with a global ``seq`` (its position in that
  order), so "N concurrent clients" is *defined* to equal "the one
  sequential stream obtained by sorting all ops by ``seq``" — and the
  test suite checks the equality byte for byte.

Inside one queue drain, maximal runs of consecutive reads execute as a
single :func:`~repro.engine.batch.execute_many` batch (documented
byte-for-byte identical to per-op execution), so concurrent clients get
the plan-group dedup and combined minimal-model sweeps for free: while
the engine is busy, newly arrived frames buffer and form the next
batch — the same dynamic as WAL group commit, applied to reads.  Every
batch runs in process, on the live session.

Robustness contract (each part tested in ``tests/test_server.py``):

* **backpressure** — a connection may have at most ``max_inflight``
  requests queued; its reader coroutine stops reading the socket until
  replies drain, so a flooding client throttles itself at the TCP layer
  instead of growing server memory;
* **structured errors** — a bad request (parse error, unknown handle,
  undecodable JSON body) gets an ``ok: false`` reply and the connection
  lives on; only a *framing* break (oversized/truncated frame) closes
  the connection, after a best-effort fatal error frame;
* **graceful drain** — on SIGTERM/SIGINT (or :meth:`ReproServer.drain`)
  the listener closes, every already-queued op is processed and its
  reply flushed, the WAL (if any) is closed — which fsyncs any open
  group-commit window — and only then do the connections close;
* **slow consumers** — replies and watch events are written by a
  per-connection writer coroutine reading from an outbox queue, so the
  engine never blocks on a slow client's socket; an outbox growing past
  its cap aborts that connection rather than the server.

**Replica mode** (``replica_of=path``): instead of owning a writable
session, the server hosts a read-only :class:`~repro.engine.wal.WalFollower`
session tailing a primary's WAL.  The engine loop polls the log before
every run (plus a background tick), so reads see the freshest applied
state; every reply carries ``applied_seq`` — the primary ``seq`` of the
last WAL mark applied — which is the client's read-your-writes token.
Write/watch/prepare ops are rejected with a structured ``ReadOnly``
error, and a read whose ``min_seq`` is ahead of ``applied_seq`` gets
``ReplicaLagging`` instead of stale data.  A primary with a WAL appends
one :class:`~repro.engine.wal.WalMark` after every acknowledged write
and a periodic heartbeat mark, which is also how replicas tell a quiet
primary from a dead one (``stats`` reports ``primary_alive``); on
start it resumes ``seq`` from the log's mark high-water, so the tokens
replicas and routed clients already hold stay meaningful across a
primary restart.

**In process** (:meth:`ReproServer.connect_local`): the same dispatch,
handlers and payloads with no socket, event loop or heartbeat.  Each
call of the returned :class:`LocalClient` runs as a one-op engine run
and reads its reply (and any watch events) off its connection's outbox.
The CLI's local ``query``/``answers``/``batch``/``watch`` run this way,
so they differ from their ``--connect`` forms only in transport.

Fault sites (:mod:`repro.engine.faults`): ``server.conn.drop`` severs a
connection at reply time — the harness for client-visible partial
failure; ``server.replica.lag`` skips a replica's WAL poll;
``server.replica.crash`` aborts every connection of a replica before a
reply — a simulated replica crash with instant supervised restart.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from contextlib import suppress

from repro.api.plan import PreparedQuery
from repro.api.session import Session
from repro.core.database import IndefiniteDatabase
from repro.core.sorts import objvar
from repro.engine import faults
from repro.engine.batch import Mutation, QueryRequest, execute_many, execute_stream
from repro.engine.views import MaterializedView
from repro.engine.wal import WalError, WalFollower
from repro.server.client import ClientError, OpCalls, ServerReplyError
from repro.server.protocol import (
    _METHODS,
    _SEMANTICS,
    MAX_FRAME,
    FrameError,
    PayloadError,
    ReadOnly,
    ReplicaLagging,
    _batch_rows,
    _parse_stream,
    _result_payload,
    _stream_order_names,
    _stream_vocabulary,
    encode_frame,
    read_frame_async,
)
from repro.substrate.parser import (
    PARSE_MEMO_LIMIT,
    parse_database,
    parse_query,
    scan_order_names,
)

#: The serving tier's logger (the ISSUE-specified operator surface).
log = logging.getLogger("repro.server")

#: Per-connection bound on queued-but-unanswered requests.
DEFAULT_MAX_INFLIGHT = 32

#: Most ops the engine loop pulls into one drain (and hence one
#: read-batching opportunity).
_ENGINE_RUN_CAP = 1024

#: Ops a replica cannot serve: anything that writes shared state or
#: subscribes to the primary's write path.  (``prepare`` is also here:
#: its handle would pin a plan on one replica while the router is free
#: to send the next read elsewhere.)
_PRIMARY_ONLY_OPS = frozenset(
    ("prepare", "release", "assert", "retract", "batch", "watch", "unwatch")
)


def _read_payload(req: dict, result) -> dict:
    """A read's reply payload, plus the rendered countermodel of a
    closed query that does not hold when the request asked for it."""
    payload = _result_payload(result)
    if req.get("countermodel") and result.answers is None and not result.holds:
        payload["countermodel"] = (
            None
            if result.countermodel is None
            else result.render_countermodel()
        )
    return payload


class _Connection:
    """Per-connection state: framing, flow control, namespaces."""

    def __init__(self, server: "ReproServer", reader, writer, cid: int) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.cid = cid
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.slots = asyncio.Semaphore(server.max_inflight)
        self.inflight = 0
        self.peak_inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: per-connection plan-handle namespace over the shared LRU
        self.handles: dict[int, QueryRequest] = {}
        self._handle_ids = itertools.count(1)
        #: per-connection watch subscriptions
        self.watches: dict[int, dict] = {}
        self._watch_ids = itertools.count(1)
        self.writer_task: asyncio.Task | None = None
        self.aborted = False
        # An outbox past this size means the client has stopped reading
        # while events keep flowing; drop it rather than buffer forever.
        self._outbox_cap = max(256, server.max_inflight * 4)

    async def acquire_slot(self) -> None:
        """Backpressure: block the reader until a reply slot frees up."""
        await self.slots.acquire()
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        self._idle.clear()

    def release_slot(self) -> None:
        self.slots.release()
        self.inflight -= 1
        if self.inflight <= 0:
            self._idle.set()

    async def wait_idle(self, timeout: float = 30.0) -> None:
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:  # pragma: no cover - engine wedged
            pass

    def push(self, frame: dict) -> None:
        """Enqueue one outbound frame (reply or event)."""
        if self.aborted:
            return
        if self.outbox.qsize() > self._outbox_cap:
            log.warning(
                "conn %d: outbox past %d frames (client not reading); "
                "dropping the connection",
                self.cid,
                self._outbox_cap,
            )
            self.abort()
            return
        self.outbox.put_nowait(frame)

    def abort(self) -> None:
        """Sever the connection immediately (fault path / slow consumer)."""
        if self.aborted:
            return
        self.aborted = True
        self.outbox.put_nowait(None)
        try:
            self.writer.transport.abort()
        except Exception:  # pragma: no cover - transport already gone
            pass

    def close_watches(self) -> None:
        for state in self.watches.values():
            state["view"].close()
        self.watches.clear()


async def _close_writer(writer) -> None:
    """Close a connection's stream and wait, bounded, for its socket to
    be released.  The event loop may stop right after a drain: a close
    still pending then never flushes, and the socket leaks open but
    silent instead of giving the client EOF."""
    try:
        writer.close()
        await asyncio.wait_for(writer.wait_closed(), 5)
    except Exception:  # pragma: no cover - peer already gone
        pass


class ReproServer:
    """One shared session behind a length-prefixed-JSON socket protocol.

    Construct with a live session (optionally WAL-attached), call
    :meth:`start` inside a running event loop, then await
    :meth:`wait_drained` (``repro serve`` also installs SIGTERM/SIGINT
    handlers that call :meth:`drain`).

    ``replica_of=path`` instead makes this a read-only replica: pass
    ``session=None`` — :meth:`start` builds the session from the WAL at
    ``path`` via :class:`~repro.engine.wal.WalFollower` and keeps it
    tailing the primary (see the module docstring for the consistency
    contract).
    """

    def __init__(
        self,
        session: Session | None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        wal=None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_frame: int = MAX_FRAME,
        replica_of: str | None = None,
        poll_interval: float = 0.05,
        heartbeat_interval: float | None = 1.0,
        heartbeat_timeout: float = 5.0,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if replica_of is not None and wal is not None:
            raise ValueError("a server is a primary (wal=) or a replica "
                             "(replica_of=), not both")
        if replica_of is None and session is None:
            raise ValueError("a primary server needs a session")
        self.session = session
        self.host = host
        self.port = port
        self.wal = wal
        self.max_inflight = max_inflight
        self.max_frame = max_frame
        self.replica_of = replica_of
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._follower: WalFollower | None = None
        self._poll_task: asyncio.Task | None = None
        self._heartbeat_task: asyncio.Task | None = None
        # monotonic stamp of the last observed primary progress (marks
        # or applied records); replicas compare it to heartbeat_timeout
        self._primary_seen = 0.0
        self._primary_alive = True
        self._server: asyncio.AbstractServer | None = None
        self._engine_task: asyncio.Task | None = None
        self._queue: asyncio.Queue | None = None
        self._conns: set[_Connection] = set()
        self._conn_ids = itertools.count(1)
        self._seq = 0
        self._draining = False
        self._drained: asyncio.Event | None = None
        self.stats = {
            "connections": 0,
            "requests": 0,
            "errors": 0,
            "protocol_errors": 0,
            "read_batches": 0,
            "batched_reads": 0,
            "watch_events": 0,
            "conn_drops": 0,
        }
        if replica_of is not None:
            self.stats.update({"lag_skips": 0, "replica_crashes": 0})

    # -- lifecycle ----------------------------------------------------------

    def _open_engine(self) -> None:
        """The synchronous half of :meth:`start`: the replica's follower
        session and the primary's resumed ``seq``."""
        if self.replica_of is not None:
            self._follower = WalFollower(self.replica_of)
            self.session = self._follower.session
            self._primary_seen = time.monotonic()
        elif self.wal is not None:
            # A restarted primary must not hand out seq numbers the
            # replicas' applied_seq (which only ratchets upward) has
            # already passed — that would let the router's min_seq gate
            # pass trivially and serve pre-write state.  Resume from
            # the log's mark high-water, which attach() recovers and
            # compact() preserves across truncation.
            self._seq = max(self._seq, self.wal.last_mark_seq)

    def _close_engine(self) -> None:
        """The synchronous half of :meth:`drain`: close every watch and
        the WAL (which fsyncs any open group-commit window, so every
        acknowledged write is on disk)."""
        for conn in self._conns:
            conn.close_watches()
        if self.wal is not None:
            self.wal.close()

    def connect_local(self) -> "LocalClient":
        """An in-process client of this (unstarted) server.

        Its ops run through the same dispatch, handlers and payloads as
        a socket connection's, one op per engine run, with no socket,
        event loop or heartbeat.  The client owns the engine: this opens
        it and :meth:`LocalClient.close` closes it.
        """
        if self._queue is not None:
            raise RuntimeError("connect_local() needs an unstarted server")
        self._open_engine()
        return LocalClient(self)

    async def start(self) -> "ReproServer":
        """Bind the listener and start the engine loop."""
        self._queue = asyncio.Queue()
        self._drained = asyncio.Event()
        self._open_engine()
        if self._follower is not None:
            self._poll_task = asyncio.create_task(self._poll_loop())
        elif self.wal is not None and self.heartbeat_interval:
            # One mark up front so a replica attaching now already has
            # a liveness stamp, then the periodic heartbeat.
            self.wal.append_mark(self._seq)
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._engine_task = asyncio.create_task(self._engine_loop())
        log.info(
            "serving on %s:%d (max_inflight=%d, wal=%s, replica_of=%s)",
            self.host,
            self.port,
            self.max_inflight,
            getattr(self.wal, "path", None),
            self.replica_of,
        )
        return self

    async def wait_drained(self) -> None:
        assert self._drained is not None, "server not started"
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: finish queued work, flush the WAL, close.

        Idempotent; concurrent callers all return once the drain
        completes.
        """
        if self._draining:
            await self.wait_drained()
            return
        self._draining = True
        log.info("drain: refusing new connections, finishing queued ops")
        assert self._server is not None and self._queue is not None
        # stop accepting; the accepted connections are closed below
        self._server.close()
        # Everything queued before the sentinel still executes and
        # replies; readers see _draining and refuse later frames.
        self._queue.put_nowait(None)
        if self._engine_task is not None:
            await self._engine_task
        # stop the background ticks BEFORE closing the WAL: a heartbeat
        # firing after close would append to a closed file
        for task in (self._poll_task, self._heartbeat_task):
            if task is not None:
                task.cancel()
                with suppress(asyncio.CancelledError):
                    await task
        self._close_engine()
        for conn in list(self._conns):
            await conn.wait_idle()
            conn.outbox.put_nowait(None)
            if conn.writer_task is not None:
                try:
                    await asyncio.wait_for(conn.writer_task, 30)
                except asyncio.TimeoutError:  # pragma: no cover
                    conn.writer_task.cancel()
            await _close_writer(conn.writer)
        # Python 3.12.1+ waits here until every accepted connection has
        # closed, so this cannot come before the loop above
        with suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._server.wait_closed(), 5)
        log.info(
            "drained: %d requests (%d errors) over %d connections",
            self.stats["requests"] + self.stats["errors"],
            self.stats["errors"],
            self.stats["connections"],
        )
        self._drained.set()

    # -- connection handling ------------------------------------------------

    async def _on_connect(self, reader, writer) -> None:
        if self._draining:
            await _close_writer(writer)
            return
        conn = _Connection(self, reader, writer, next(self._conn_ids))
        self._conns.add(conn)
        self.stats["connections"] += 1
        conn.writer_task = asyncio.create_task(self._writer_loop(conn))
        log.debug("conn %d: opened", conn.cid)
        try:
            await self._reader_loop(conn)
            # client went quiet (EOF or fatal frame): flush what it is
            # still owed before closing our side
            await conn.wait_idle()
        finally:
            # Once draining, drain() owns every registered connection: it
            # flushes what the engine still owes it, then closes it.  The
            # connection stays registered so drain() cannot miss it.
            if not self._draining:
                conn.close_watches()
                conn.outbox.put_nowait(None)
                if conn.writer_task is not None:
                    try:
                        await asyncio.wait_for(conn.writer_task, 30)
                    except asyncio.TimeoutError:  # pragma: no cover
                        conn.writer_task.cancel()
                await _close_writer(conn.writer)
                self._conns.discard(conn)
                log.debug("conn %d: closed", conn.cid)

    async def _reader_loop(self, conn: _Connection) -> None:
        while True:
            try:
                req = await read_frame_async(conn.reader, self.max_frame)
            except PayloadError as exc:
                # well-framed garbage: structured error, keep reading
                self.stats["protocol_errors"] += 1
                conn.push({
                    "id": None,
                    "ok": False,
                    "error": {"type": "PayloadError", "message": str(exc)},
                })
                continue
            except FrameError as exc:
                # framing is out of sync: fatal error frame, then close
                self.stats["protocol_errors"] += 1
                conn.push({
                    "id": None,
                    "ok": False,
                    "fatal": True,
                    "error": {"type": "FrameError", "message": str(exc)},
                })
                return
            except (ConnectionError, OSError):
                return
            if req is None:
                return
            if self._draining:
                conn.push({
                    "id": req.get("id"),
                    "ok": False,
                    "error": {
                        "type": "Draining",
                        "message": "server is draining; no new requests",
                    },
                })
                continue
            await conn.acquire_slot()
            self._queue.put_nowait((conn, req))

    async def _writer_loop(self, conn: _Connection) -> None:
        try:
            while True:
                frame = await conn.outbox.get()
                if frame is None:
                    return
                conn.writer.write(encode_frame(frame, self.max_frame))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            return

    # -- the engine loop ----------------------------------------------------

    async def _engine_loop(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            if item is None:
                return
            # One yield lets every reader with buffered frames enqueue
            # them, so the drain below sees the whole burst as one run.
            await asyncio.sleep(0)
            run = [item]
            while len(run) < _ENGINE_RUN_CAP:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:  # drain sentinel: keep FIFO honesty
                    self._process_run(run)
                    return
                run.append(nxt)
            self._process_run(run)

    async def _poll_loop(self) -> None:
        """Replica background tick: tail the primary's WAL while idle."""
        while True:
            await asyncio.sleep(self.poll_interval)
            self._poll_follower()

    async def _heartbeat_loop(self) -> None:
        """Primary background tick: append a liveness/seq mark."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            try:
                self.wal.append_mark(self._seq)
            except WalError:  # pragma: no cover - closing race
                return

    def _poll_follower(self) -> None:
        """One replica poll (fault site ``server.replica.lag``)."""
        follower = self._follower
        if follower is None:
            return
        if faults.fire(faults.SITE_REPLICA_LAG) is not None:
            self.stats["lag_skips"] += 1
            return
        seq_before = follower.applied_seq
        wall_before = follower.last_mark_wall
        try:
            applied = follower.poll()
        except WalError as exc:  # keep serving the stale state
            log.warning("replica: poll failed (%s); serving stale state", exc)
            return
        if (
            applied
            or follower.applied_seq != seq_before
            or follower.last_mark_wall != wall_before
        ):
            self._primary_seen = time.monotonic()
        alive = (
            time.monotonic() - self._primary_seen <= self.heartbeat_timeout
        )
        if alive != self._primary_alive:
            self._primary_alive = alive
            if alive:
                log.info("replica: primary is back (heartbeats resumed)")
            else:
                log.warning(
                    "replica: no primary activity for %.1fs "
                    "(heartbeat_timeout=%.1fs); primary presumed dead, "
                    "still serving applied_seq=%d",
                    time.monotonic() - self._primary_seen,
                    self.heartbeat_timeout,
                    follower.applied_seq,
                )

    def _process_run(self, run: list[tuple[_Connection, dict]]) -> None:
        """Execute one drained run of ops, in arrival order.

        Maximal spans of consecutive reads become one
        :func:`execute_many` batch; everything else flushes the span
        first, so reply ``seq`` order equals arrival order exactly.
        """
        if self._follower is not None:
            # serve every run against the freshest applied state; the
            # min_seq gate below then decides per-op
            self._poll_follower()
        # (connection, request frame, read, its validated plan)
        pending: list[tuple] = []
        for conn, req in run:
            op = req.get("op")
            if op in ("execute", "answers"):
                try:
                    request, plan = self._resolve_read(conn, req)
                except Exception as exc:
                    self._flush_reads(pending)
                    pending = []
                    self._reply_error(conn, req, exc)
                else:
                    pending.append((conn, req, request, plan))
                continue
            self._flush_reads(pending)
            pending = []
            self._process_one(conn, req, op)
        self._flush_reads(pending)

    def _flush_reads(self, pending) -> None:
        if not pending:
            return
        requests = [request for _, _, request, _ in pending]
        plans = [plan for _, _, _, plan in pending]
        try:
            results = execute_many(self.session, requests, plans=plans)
        except Exception:
            # batched execution failed somewhere mid-batch: replay the
            # span per-op so each request gets its own verdict or its
            # own error — exactly the sequential loop's behaviour
            for conn, req, _, plan in pending:
                try:
                    result = plan.execute()
                except Exception as exc:
                    self._reply_error(conn, req, exc)
                else:
                    self._reply(conn, req, _read_payload(req, result))
            return
        if len(requests) > 1:
            self.stats["read_batches"] += 1
            self.stats["batched_reads"] += len(requests)
        for (conn, req, _, _), result in zip(pending, results):
            self._reply(conn, req, _read_payload(req, result))

    # -- op dispatch --------------------------------------------------------

    def _process_one(self, conn: _Connection, req: dict, op) -> None:
        try:
            if self._follower is not None and op in _PRIMARY_ONLY_OPS:
                raise ReadOnly(
                    f"op {op!r} needs the primary: this server is a "
                    f"read-only replica of {self.replica_of}"
                )
            handler = {
                "prepare": self._op_prepare,
                "release": self._op_release,
                "assert": self._op_mutate,
                "retract": self._op_mutate,
                "batch": self._op_batch,
                "watch": self._op_watch,
                "unwatch": self._op_unwatch,
                "stats": self._op_stats,
                "ping": self._op_ping,
            }.get(op)
            if handler is None:
                raise PayloadError(f"unknown op {op!r}")
            payload = handler(conn, req)
        except Exception as exc:
            self._reply_error(conn, req, exc)
        else:
            self._reply(conn, req, payload)

    def _op_prepare(self, conn: _Connection, req: dict) -> dict:
        request = self._parse_read(req)
        request.prepare(self.session)  # compile now; errors surface here
        handle = next(conn._handle_ids)
        conn.handles[handle] = request
        return {
            "handle": handle,
            "open": request.free_vars is not None,
            "method": request.method,
        }

    def _op_release(self, conn: _Connection, req: dict) -> dict:
        handle = req.get("handle")
        return {"released": conn.handles.pop(handle, None) is not None}

    def _op_mutate(self, conn: _Connection, req: dict) -> dict:
        kind = "assert_facts" if req["op"] == "assert" else "retract_facts"
        text = req.get("facts")
        if not isinstance(text, str):
            raise PayloadError(f"op {req['op']!r} needs a 'facts' string")
        known = self.session.db.vocabulary.order_constants
        names = scan_order_names(text) | known
        fragment = parse_database(text, extra_order=names)
        mutation = Mutation(kind, tuple(fragment.atoms()))
        mutation.apply(self.session)
        # the write's seq is assigned by _reply below; events about it
        # carry the same number and are pushed first
        self._notify_watches(self._seq + 1)
        return {"kind": kind, "applied": len(mutation.atoms)}

    def _stream(
        self, req: dict
    ) -> tuple[list[str], IndefiniteDatabase, set[str]]:
        """``(lines, vocabulary, order names)`` of a request's stream.

        Sort inference runs over the session and every write line
        together, and reads resolve constants against the session plus
        every atom a write line mentions (see :mod:`repro.server.protocol`).
        """
        lines = req.get("lines")
        if not isinstance(lines, list) or not all(
            isinstance(l, str) for l in lines
        ):
            raise PayloadError(
                f"op {req['op']!r} needs a 'lines' list of strings"
            )
        names = _stream_order_names(
            lines, self.session.db.vocabulary.order_constants
        )
        return lines, _stream_vocabulary(self.session.db, lines, names), names

    def _op_batch(self, conn: _Connection, req: dict) -> dict:
        lines, vocab, names = self._stream(req)
        ops = _parse_stream(lines, vocab, names)
        results = execute_stream(self.session, ops)
        self._notify_watches(self._seq + 1)
        return {"mode": "stream", "ops": _batch_rows(ops, results)}

    def _op_watch(self, conn: _Connection, req: dict) -> dict:
        # with the stream's 'lines', the query sees the constants its
        # later writes introduce, as a batch's query lines do
        vocab = self._stream(req)[1] if "lines" in req else self.session.db
        request = self._parse_read(req, vocab)
        if request.free_vars is None:
            raise PayloadError("op 'watch' needs a 'free_vars' list")
        view = MaterializedView(
            self.session,
            request.query,
            request.free_vars,
            semantics=request.semantics,
        )
        watch = next(conn._watch_ids)
        answers = view.answers()
        conn.watches[watch] = {"view": view, "last": answers}
        return {
            "watch": watch,
            "answers": sorted(list(a) for a in answers),
            "count": len(answers),
        }

    def _op_unwatch(self, conn: _Connection, req: dict) -> dict:
        state = conn.watches.pop(req.get("watch"), None)
        if state is None:
            return {"unwatched": False}
        view = state["view"]
        view.close()
        return {
            "unwatched": True,
            "full_refreshes": view.full_refreshes,
            "delta_refreshes": view.delta_refreshes,
            "delta_capable": view.delta_capable,
        }

    def _op_stats(self, conn: _Connection, req: dict) -> dict:
        parses = len(self.session.db.vocabulary.parses)
        payload = {
            **self.stats,
            "open_connections": len(self._conns),
            "conn_peak_inflight": conn.peak_inflight,
            "seq": self._seq,
            "role": "replica" if self._follower is not None else "primary",
            # the current vocabulary's parse memo, as total/used/available
            "parse_memo": {
                "total": PARSE_MEMO_LIMIT,
                "used": parses,
                "available": PARSE_MEMO_LIMIT - parses,
            },
        }
        if self._follower is not None:
            idle = time.monotonic() - self._primary_seen
            payload.update({
                "applied_seq": self._follower.applied_seq,
                "polls": self._follower.polls,
                "rebases": self._follower.rebases,
                "primary_alive": idle <= self.heartbeat_timeout,
                "primary_idle_s": round(idle, 3),
            })
        return payload

    def _op_ping(self, conn: _Connection, req: dict) -> dict:
        return {"pong": True}

    # -- watch fan-out ------------------------------------------------------

    def _notify_watches(self, seq: int) -> None:
        """Push delta events for every view the last write perturbed.

        Ordering contract: events for a write are enqueued *before* the
        write's own reply, both carrying the write's ``seq`` — a client
        that sees the reply has already seen every delta it caused.
        """
        for conn in self._conns:
            for watch, state in conn.watches.items():
                updated = state["view"].answers()
                last = state["last"]
                if updated == last:
                    continue
                state["last"] = updated
                self.stats["watch_events"] += 1
                conn.push({
                    "event": "watch",
                    "watch": watch,
                    "seq": seq,
                    "added": sorted(list(a) for a in updated - last),
                    "removed": sorted(list(a) for a in last - updated),
                    "count": len(updated),
                })

    # -- request parsing ----------------------------------------------------

    def _parse_read(self, req: dict, vocab=None) -> QueryRequest:
        """Build the :class:`QueryRequest` a read/prepare/watch op names,
        resolving constants against ``vocab`` (default: the session)."""
        text = req.get("query")
        if not isinstance(text, str):
            raise PayloadError(f"op {req.get('op')!r} needs a 'query' string")
        semantics = req.get("semantics", "fin")
        if semantics not in _SEMANTICS:
            raise PayloadError(f"unknown semantics {semantics!r}")
        method = req.get("method", "auto")
        if method not in _METHODS:
            raise PayloadError(f"unknown method {method!r}")
        free = req.get("free_vars")
        if req.get("op") == "answers" and free is None:
            free = []
        if free is not None:
            if not isinstance(free, list) or not all(
                isinstance(n, str) for n in free
            ):
                raise PayloadError("'free_vars' must be a list of names")
            free_vars = tuple(objvar(n) for n in free)
        else:
            free_vars = None
        query = parse_query(text, self.session.db if vocab is None else vocab)
        return QueryRequest(
            query, _SEMANTICS[semantics], method, free_vars=free_vars
        )

    def _resolve_read(
        self, conn: _Connection, req: dict
    ) -> tuple[QueryRequest, PreparedQuery]:
        """The read a request names, with its validated plan."""
        if self._follower is not None:
            min_seq = req.get("min_seq") or 0
            if min_seq > self._follower.applied_seq:
                # serving now would hand the client state older than its
                # own last write: refuse, let the router wait or fall back
                raise ReplicaLagging(
                    f"replica applied_seq={self._follower.applied_seq} "
                    f"is behind min_seq={min_seq}"
                )
        if not isinstance(req.get("countermodel", False), bool):
            raise PayloadError("'countermodel' must be a boolean")
        if "handle" in req:
            handle = req["handle"]
            try:
                request = conn.handles[handle]
            except KeyError:
                raise PayloadError(f"unknown plan handle {handle!r}") from None
        else:
            request = self._parse_read(req)
        # validate now: the batched path must raise (as an error reply)
        # exactly where a sequential per-op loop would
        plan = request.prepare(self.session)
        plan.validate()
        return request, plan

    # -- replies ------------------------------------------------------------

    def _reply(self, conn: _Connection, req: dict, payload: dict) -> None:
        self._seq += 1
        self.stats["requests"] += 1
        if self.wal is not None and req.get("op") in ("assert", "retract", "batch"):
            # mark AFTER the write's own records: a replica that has
            # applied the mark has applied everything seq covers.  Even
            # if the reply below is lost (conn.drop), the write
            # happened, so the mark must stand.
            try:
                self.wal.append_mark(self._seq)
            except WalError:  # pragma: no cover - closing race
                pass
        rule = faults.fire(faults.SITE_CONN_DROP)
        if rule is not None:
            self.stats["conn_drops"] += 1
            log.warning(
                "fault server.conn.drop: severing conn %d before reply seq=%d",
                conn.cid,
                self._seq,
            )
            conn.release_slot()
            conn.abort()
            return
        if self._replica_crashed(conn):
            return
        frame = {"id": req.get("id"), "seq": self._seq, "ok": True, **payload}
        if self._follower is not None:
            frame["applied_seq"] = self._follower.applied_seq
        conn.push(frame)
        conn.release_slot()

    def _reply_error(self, conn: _Connection, req: dict, exc: Exception) -> None:
        self._seq += 1
        self.stats["errors"] += 1
        log.debug(
            "conn %d: op %r failed: %s", conn.cid, req.get("op"), exc
        )
        if self._replica_crashed(conn):
            return
        frame = {
            "id": req.get("id"),
            "seq": self._seq,
            "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if self._follower is not None:
            frame["applied_seq"] = self._follower.applied_seq
        conn.push(frame)
        conn.release_slot()

    def _replica_crashed(self, conn: _Connection) -> bool:
        """Fault site ``server.replica.crash``: die right before a reply.

        Aborts *every* open connection — clients see the whole replica
        go away mid-stream, exactly like a process crash — while the
        listener stays up, which doubles as an instant supervised
        restart (the follower session, like a real restart's recovery,
        carries on from the WAL).
        """
        if self._follower is None:
            return False
        rule = faults.fire(faults.SITE_REPLICA_CRASH)
        if rule is None:
            return False
        self.stats["replica_crashes"] += 1
        log.warning(
            "fault server.replica.crash: aborting %d connection(s) "
            "before reply seq=%d",
            len(self._conns),
            self._seq,
        )
        conn.release_slot()
        for other in list(self._conns):
            other.abort()
        return True


class LocalClient(OpCalls):
    """An in-process connection to an unstarted :class:`ReproServer`
    (see :meth:`ReproServer.connect_local`).

    :meth:`call` runs one request through the server's engine run and
    splits the connection's outbox into the reply and the watch events
    pushed before it (kept for :meth:`take_events`).  Flow control does
    not apply: an in-process caller waits for each reply.
    """

    def __init__(self, server: ReproServer) -> None:
        self._server = server
        self._conn = _Connection(server, None, None, next(server._conn_ids))
        server._conns.add(self._conn)
        server.stats["connections"] += 1
        self._next_id = 0
        #: server-pushed watch events, in arrival order
        self.events: list[dict] = []

    def call(self, op: str, check: bool = True, **fields) -> dict:
        """Run one op and return its reply."""
        self._next_id += 1
        rid = self._next_id
        request = {"op": op, "id": rid, **fields}
        self._server._process_run([(self._conn, request)])
        reply = None
        outbox = self._conn.outbox
        while not outbox.empty():
            frame = outbox.get_nowait()
            if frame is None:  # the connection was severed (fault site)
                break
            if "event" in frame:
                self.events.append(frame)
            else:
                reply = frame
        if reply is None:
            raise ClientError(f"connection closed before reply {rid}")
        if check and not reply.get("ok", False):
            raise ServerReplyError(reply)
        return reply

    def take_events(self) -> list[dict]:
        """Hand over the buffered watch events (clears the buffer)."""
        events, self.events = self.events, []
        return events

    def close(self) -> None:
        """Close the engine: watches and WAL (idempotent)."""
        if self._conn in self._server._conns:
            self._server._close_engine()
            self._server._conns.discard(self._conn)

    def __enter__(self) -> "LocalClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServerThread:
    """A :class:`ReproServer` on a private event loop in a daemon thread.

    The blocking-world adapter used by the CLI tests, the benchmark
    harness and any caller that is not itself async::

        thread = ServerThread(session)
        host, port = thread.start()
        ...ReproClient(host, port)...
        thread.shutdown()          # graceful drain, then join

    The session must not be touched by other threads while the server
    runs — the engine loop is its single writer *and* single reader.
    """

    def __init__(self, session: Session | None, **kwargs) -> None:
        self._session = session
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: ReproServer | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-server", daemon=True
        )

    def start(self) -> tuple[str, int]:
        self._thread.start()
        self._ready.wait(30)
        if self._error is not None:
            raise self._error
        if self.server is None:  # pragma: no cover - startup wedged
            raise RuntimeError("server thread failed to start")
        return self.server.host, self.server.port

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - surfaced in start()
            self._error = exc
        finally:
            self._ready.set()

    async def _amain(self) -> None:
        self.server = ReproServer(self._session, **self._kwargs)
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.wait_drained()

    def shutdown(self, timeout: float = 60.0) -> None:
        """Request a graceful drain and join the thread (idempotent)."""
        if (
            self.server is not None
            and self._loop is not None
            and self._thread.is_alive()
        ):
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.server.drain())
            )
        self._thread.join(timeout)


__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "LocalClient",
    "ReproServer",
    "ServerThread",
]
