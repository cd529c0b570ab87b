"""Snapshot-parallel execution: shard plan groups across worker processes.

Because every verdict is a pure function of (database, plan), read-only
traffic parallelizes embarrassingly: take one
:class:`~repro.engine.snapshot.SessionSnapshot`, hand it to N worker
processes, and let each worker decide a disjoint shard of the batch's
plan groups.  :class:`DaemonPool` keeps those workers alive across
batches: each holds a private session resynced to newer state by
*incremental snapshot deltas*
(:meth:`~repro.api.session.Session.snapshot_delta` — only the changed
atoms and the bumped generation counters travel), so a mixed stream
(``execute_stream(..., pool=...)``) fans each read run out over the same
warm workers.  A one-off batch is just
``DaemonPool(session).execute_many(requests)`` inside a ``with`` block.

When no process pool can be created (restricted sandboxes, 1-CPU hosts)
the pool degrades to in-process sequential execution over the same
snapshot, so callers never need a fallback path of their own.  Under the
``fork`` start method (Linux, the production case) workers inherit the
snapshot — including its warm order-graph closures and region caches —
through copy-on-write pages; under ``spawn`` each worker receives the
frozen database and rebuilds its own session, warming lazily.

Results are merged deterministically: each unique plan key is executed
exactly once and the per-key results are fanned back out in request
order — the output is byte-for-byte the list
:func:`repro.engine.batch.execute_many` would produce sequentially
(including method tags and countermodel witnesses).
"""

from __future__ import annotations

import logging
import os
import time
import weakref
from typing import Iterable, Sequence

from repro.api.result import Result
from repro.api.session import Session
from repro.engine import faults
from repro.engine.batch import QueryRequest, execute_many

log = logging.getLogger(__name__)

#: Environment variable overriding the automatic worker-count cap.
WORKER_CAP_ENV = "REPRO_POOL_MAX_WORKERS"

#: Default cap on auto-sized pools: spreading a batch wider than this
#: rarely pays for the extra process/IPC overhead on typical workloads.
DEFAULT_WORKER_CAP = 4

#: Environment variables overriding the daemon pool's reply timeout and
#: the number of timed-out waits retried (with doubling backoff) before
#: the pool degrades.  Validated like :data:`WORKER_CAP_ENV`: bad values
#: warn and fall back to the default instead of raising.
REPLY_TIMEOUT_ENV = "REPRO_POOL_REPLY_TIMEOUT"
DEFAULT_REPLY_TIMEOUT = 60.0
REPLY_RETRIES_ENV = "REPRO_POOL_REPLY_RETRIES"
DEFAULT_REPLY_RETRIES = 2

def _worker_cap() -> int:
    """The worker-count cap: ``REPRO_POOL_MAX_WORKERS`` or the default."""
    raw = os.environ.get(WORKER_CAP_ENV)
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            log.warning(
                "ignoring non-integer %s=%r; using default cap %d",
                WORKER_CAP_ENV, raw, DEFAULT_WORKER_CAP,
            )
        else:
            if cap >= 1:
                return cap
            log.warning(
                "ignoring %s=%d (must be >= 1); using default cap %d",
                WORKER_CAP_ENV, cap, DEFAULT_WORKER_CAP,
            )
    return DEFAULT_WORKER_CAP


def _reply_timeout_default() -> float:
    """``REPRO_POOL_REPLY_TIMEOUT`` or the default, warn-and-fall-back."""
    raw = os.environ.get(REPLY_TIMEOUT_ENV)
    if raw:
        try:
            timeout = float(raw)
        except ValueError:
            log.warning(
                "ignoring non-numeric %s=%r; using default %.3gs",
                REPLY_TIMEOUT_ENV, raw, DEFAULT_REPLY_TIMEOUT,
            )
        else:
            if timeout > 0:
                return timeout
            log.warning(
                "ignoring %s=%g (must be > 0); using default %.3gs",
                REPLY_TIMEOUT_ENV, timeout, DEFAULT_REPLY_TIMEOUT,
            )
    return DEFAULT_REPLY_TIMEOUT


def _reply_retries_default() -> int:
    """``REPRO_POOL_REPLY_RETRIES`` or the default, warn-and-fall-back."""
    raw = os.environ.get(REPLY_RETRIES_ENV)
    if raw:
        try:
            retries = int(raw)
        except ValueError:
            log.warning(
                "ignoring non-integer %s=%r; using default %d",
                REPLY_RETRIES_ENV, raw, DEFAULT_REPLY_RETRIES,
            )
        else:
            if retries >= 0:
                return retries
            log.warning(
                "ignoring %s=%d (must be >= 0); using default %d",
                REPLY_RETRIES_ENV, retries, DEFAULT_REPLY_RETRIES,
            )
    return DEFAULT_REPLY_RETRIES


class _ReplyTimeout(Exception):
    """A daemon worker failed to reply within the timeout + retries."""

    def __init__(self, worker: int, waited: float) -> None:
        super().__init__(f"worker {worker} silent for {waited:.3g}s")
        self.worker = worker
        self.waited = waited


def _default_workers() -> int:
    """Spread over the cores up to the (configurable, logged) cap.

    A 1-CPU host sizes to one worker, which the pool treats as "run
    sequentially in-process".
    """
    cap = _worker_cap()
    cpus = os.cpu_count() or 1
    n = max(1, min(cap, cpus))
    log.debug(
        "auto-sizing pool to %d workers (cpu_count=%d, cap=%d; set %s to "
        "change the cap)", n, cpus, cap, WORKER_CAP_ENV,
    )
    return n


def _unique_groups(
    requests: Sequence[QueryRequest],
) -> tuple[list[tuple[int, QueryRequest]], list[list[int]]]:
    """``(unique, owners)``: one representative per plan key + fan-out lists.

    ``unique[j] == (j, request)`` is the first request with the *j*-th
    distinct plan key; ``owners[j]`` lists every request index sharing
    that key.
    """
    key_index: dict[tuple, int] = {}
    unique: list[tuple[int, QueryRequest]] = []
    owners: list[list[int]] = []
    for i, request in enumerate(requests):
        ki = key_index.get(request.plan_key)
        if ki is None:
            ki = key_index[request.plan_key] = len(unique)
            unique.append((ki, request))
            owners.append([])
        owners[ki].append(i)
    return unique, owners


def _fan_out(
    owners: list[list[int]], by_key: dict[int, Result], n_requests: int
) -> list[Result]:
    """Per-key results fanned back out in request order."""
    results: list[Result] = [None] * n_requests  # type: ignore[list-item]
    for ki, indices in enumerate(owners):
        for i in indices:
            results[i] = by_key[ki]
    return results


# -- the persistent daemon pool -------------------------------------------


def _close_quietly(conn) -> None:
    try:
        conn.close()
    except OSError:
        pass


def _set_gens(session: Session, gens: tuple[int, int, int]) -> None:
    """Force a worker-private session's generation counters."""
    (session._graph_gen, session._label_gen, session._object_gen) = gens


def _daemon_main(payload, conn) -> None:
    """A daemon worker: one private session, advanced by resync deltas.

    ``payload`` is the construction snapshot (``fork``: inherited with
    its warm caches through copy-on-write pages) or a ``(database,
    gens)`` pair (``spawn``: rebuilt cold, warming lazily).  Post-fork
    the session is private to this process, so applying snapshot deltas
    to it — even though it is a ``SessionSnapshot`` by type — can never
    violate snapshot immutability in the parent.

    Protocol (one message per :meth:`~multiprocessing.connection
    .Connection.recv`, processed strictly in order, which is what lets
    the leader queue a resync and the next batch without waiting):

    * ``("resync", delta, from_gens)`` — apply a
      :class:`~repro.api.session.SnapshotDelta`; no reply.  The delta is
      only valid on the exact state it was computed from, so a worker
      whose generations do not match ``from_gens`` (it lost an earlier
      delta) marks itself desynced instead of applying — its atoms would
      silently diverge while the delta's *absolute* target generations
      made it look current.
    * ``("run", shard, gens)`` — execute a shard of unique plan groups
      against the state at ``gens``; replies ``("ok", [(key_index,
      Result), ...])``, ``("err", exception)`` for an invalid request,
      or ``("stale", own_gens)`` when this worker is not at ``gens`` —
      the leader then executes the shard itself and heals the worker.
    * ``("reset", database, gens)`` — rebuild the session from scratch
      (the heal path); no reply.
    * ``("stop",)`` — exit.

    Fault-injection sites (:mod:`repro.engine.faults`, installed from
    ``REPRO_FAULTS`` at startup so they work under any start method):
    ``pool.worker.crash`` dies via ``os._exit`` before replying,
    ``pool.worker.hang`` sleeps long enough to trip the leader's reply
    timeout, ``pool.worker.delay`` sleeps briefly and replies normally.
    """
    if not faults.active():
        faults.install_from_env()
    if isinstance(payload, tuple):
        db, gens = payload
        session = Session(db)
        _set_gens(session, gens)
    else:
        session = payload
    desynced = False
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "resync":
                delta, from_gens = msg[1], msg[2]
                if session._gens() == from_gens:
                    session.apply_snapshot_delta(delta)
                else:
                    desynced = True
                    log.warning(
                        "daemon worker desynced: at gens %r, resync "
                        "expected %r", session._gens(), from_gens,
                    )
            elif kind == "reset":
                session = Session(msg[1])
                _set_gens(session, msg[2])
                desynced = False
            elif kind == "run":
                shard, gens = msg[1], msg[2]
                rule = faults.fire(faults.SITE_WORKER_CRASH)
                if rule is not None:
                    os._exit(int(rule.param("code", 1)))
                rule = faults.fire(faults.SITE_WORKER_HANG)
                if rule is not None:
                    time.sleep(rule.param("seconds", 60.0))
                rule = faults.fire(faults.SITE_WORKER_DELAY)
                if rule is not None:
                    time.sleep(rule.param("seconds", 0.05))
                if desynced or session._gens() != gens:
                    reply = ("stale", session._gens())
                else:
                    try:
                        results = execute_many(
                            session, [r for _ki, r in shard]
                        )
                        reply = (
                            "ok",
                            [(ki, res)
                             for (ki, _), res in zip(shard, results)],
                        )
                    except Exception as exc:
                        reply = ("err", exc)
                try:
                    conn.send(reply)
                except Exception:
                    # unpicklable result or exception: report what we can
                    conn.send(
                        ("err", RuntimeError(
                            "daemon worker reply was not picklable: "
                            + str(reply)[:200]
                        ))
                    )
    finally:
        _close_quietly(conn)


class DaemonPool:
    """A persistent pool of daemon workers surviving across batches.

    The workers are long-lived: each holds a private session (inherited
    warm under ``fork``, rebuilt lazily under ``spawn``), the pool
    answers against its latest snapshot until :meth:`resnapshot` moves
    it forward, and that resync ships the workers an *incremental*
    snapshot delta — only the changed atoms and bumped generation
    counters — so object-fact churn leaves worker graph closures, region
    tables, compiled plans and order-part memos warm across batches.

    Unique plan keys are assigned to workers by stable hash, so a
    repeated query keeps landing on the worker whose plan cache already
    holds it.  :meth:`execute_many` is one synchronous round trip: ship
    the shards, then wait for every reply, so at most one batch is ever
    on the bounded per-worker pipes.

    Restricted sandboxes (and ``workers=1``) degrade to in-process
    sequential execution over the same snapshot; a worker failing
    mid-batch degrades the pool the same way and re-executes the
    affected batch against the snapshot it was sent under, so
    callers always get their results.  Must be resynced from the session
    it was constructed over.  Usable as a context manager.
    """

    def __init__(
        self,
        session: Session,
        workers: int | None = None,
        start_method: str | None = None,
        reply_timeout: float | None = None,
        reply_retries: int | None = None,
    ) -> None:
        self._workers = workers if workers is not None else _default_workers()
        self._reply_timeout = (
            reply_timeout if reply_timeout is not None
            else _reply_timeout_default()
        )
        self._reply_retries = (
            reply_retries if reply_retries is not None
            else _reply_retries_default()
        )
        self._snapshot = session.snapshot()
        self._conns: list = []
        self._procs: list = []
        #: GC/interpreter-exit guard: stops the daemons when a pool is
        #: dropped without close() (or a caller raises past it), so no
        #: worker process can outlive its leader as an orphan.
        self._finalizer: weakref.finalize | None = None
        if self._workers > 1:
            self._start(start_method)

    def _start(self, start_method: str | None) -> None:
        conns: list = []
        procs: list = []
        try:
            import multiprocessing as mp

            methods = mp.get_all_start_methods()
            if start_method is None:
                start_method = "fork" if "fork" in methods else methods[0]
            ctx = mp.get_context(start_method)
            payload = (
                self._snapshot
                if start_method == "fork"
                else (self._snapshot.db, self._snapshot._gens())
            )
            for _ in range(self._workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_daemon_main, args=(payload, child), daemon=True
                )
                proc.start()
                child.close()
                conns.append(parent)
                procs.append(proc)
        except (ImportError, OSError, ValueError, RuntimeError):
            # terminate the partially started workers before degrading
            for conn in conns:
                _close_quietly(conn)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join()
            log.info(
                "daemon pool unavailable; degrading to in-process "
                "sequential execution", exc_info=True,
            )
            return
        self._conns, self._procs = conns, procs
        # The callback must not capture self (it would never collect);
        # it shares the *list objects*, which close()/_degrade() empty
        # after their own cleanup so the guard never double-stops.
        self._finalizer = weakref.finalize(
            self, DaemonPool._cleanup, conns, procs
        )

    @staticmethod
    def _cleanup(conns: list, procs: list) -> None:
        """Stop workers (finalize guard + the close() implementation).

        Order matters: the stop is sent and any stray replies are
        drained BEFORE the pipes are closed, so a worker caught
        mid-batch can finish its reply send and exit on its own instead
        of dying on a broken pipe — a clean shutdown stays log-silent.
        """
        for conn in conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 5.0
        for conn, proc in zip(conns, procs):
            while proc.is_alive() and time.monotonic() < deadline:
                try:
                    if conn.poll(0.05):
                        conn.recv()  # stray reply from an in-flight shard
                except (OSError, EOFError):
                    break  # worker closed its end: it is exiting
        for conn in conns:
            _close_quietly(conn)
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        conns.clear()
        procs.clear()

    def _degrade(self, reason: str, **fields) -> None:
        """Tear the worker processes down; later batches run in-process.

        ``reason`` (plus any ``fields``) goes to the log in structured
        ``key=value`` form — a degradation is silent-data-slowdown
        territory, so operators get the *why* every time.
        """
        conns, procs = self._conns, self._procs
        self._conns, self._procs = [], []
        for conn in conns:
            _close_quietly(conn)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
        had_procs = bool(procs)
        # the finalize guard shares these list objects: emptied, it no-ops
        conns.clear()
        procs.clear()
        if had_procs:
            log.warning(
                "daemon pool degraded to in-process execution: reason=%s%s",
                reason,
                "".join(f" {k}={v}" for k, v in sorted(fields.items())),
            )

    # -- state -------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True while the long-lived worker processes are alive."""
        return bool(self._conns)

    @property
    def snapshot(self):
        """The snapshot the pool currently answers against."""
        return self._snapshot

    # -- resync ------------------------------------------------------------

    def resnapshot(self, session: Session) -> None:
        """Advance the pool to ``session``'s current state, incrementally.

        Cheap by design: a no-op when nothing changed since the last
        sync; otherwise one snapshot plus one
        :class:`~repro.api.session.SnapshotDelta` message per worker,
        with no reply awaited — per-connection ordering guarantees the
        next batch sees the synced state.
        """
        delta = session.snapshot_delta(self._snapshot)
        if delta is None:
            return
        from_gens = self._snapshot._gens()
        self._snapshot = session.snapshot()
        if not self._conns:
            return
        rule = faults.fire(faults.SITE_RESYNC_DROP)
        drop = int(rule.param("worker", 0)) if rule is not None else None
        try:
            for w, conn in enumerate(self._conns):
                if w == drop:
                    continue  # injected delta loss: this worker desyncs
                conn.send(("resync", delta, from_gens))
        except (OSError, BrokenPipeError, EOFError):
            self._degrade("resync-send-failed")

    # -- execution ---------------------------------------------------------

    def _execute_local(self, unique, snapshot) -> dict[int, Result]:
        """The in-process path: decide the unique groups on ``snapshot``."""
        results = execute_many(snapshot, [r for _, r in unique])
        return {ki: result for (ki, _), result in zip(unique, results)}

    def _recv_reply(self, w: int):
        """One worker's reply, bounded by timeout + retries w/ backoff.

        Each wait is bounded, so a hung (or wedged, or merely very slow)
        worker cannot block ``execute_many`` forever.  Every timed-out
        wait is retried with a doubled window — a slow worker usually
        answers on a retry, and the stretched total gives the benefit of
        the doubt before the pool declares it dead — then
        :class:`_ReplyTimeout` sends the caller down the same degrade
        path as a crashed worker.  A worker that died outright surfaces
        immediately: ``poll`` returns ready on EOF and ``recv`` raises.
        """
        conn = self._conns[w]
        wait = self._reply_timeout
        waited = 0.0
        for attempt in range(self._reply_retries + 1):
            if conn.poll(wait):
                return conn.recv()
            waited += wait
            if attempt < self._reply_retries:
                log.warning(
                    "daemon worker %d reply timed out after %.3gs; "
                    "retrying with %.3gs window (attempt %d/%d)",
                    w, wait, wait * 2, attempt + 1, self._reply_retries,
                )
            wait *= 2
        raise _ReplyTimeout(w, waited)

    def execute_many(
        self, requests: Iterable[QueryRequest]
    ) -> list[Result]:
        """Batched execution on the workers; results in request order.

        Unique plan groups are sharded across the workers, executed
        against the pool's current snapshot and merged deterministically
        (per-key results fanned out in request order).  Failure
        handling, all of it yielding results identical to the
        sequential path:

        * a worker that died mid-batch, or stayed silent past the reply
          timeout + retries, degrades the pool and the whole batch
          transparently re-executes in-process against the snapshot it
          was sent under;
        * a worker that replies ``stale`` (it lost a resync delta) has
          its shard re-executed in-process and is then healed with a
          full state reset — the pool stays parallel;
        * a worker that *reports* an exception (an invalid request) has
          it re-raised here, after all of the batch's replies have been
          drained.
        """
        requests = list(requests)
        unique, owners = _unique_groups(requests)
        snapshot = self._snapshot
        if not self._conns or not unique:
            by_key = self._execute_local(unique, snapshot)
            return _fan_out(owners, by_key, len(requests))
        # Stable-hash worker affinity: the same plan key lands on the
        # same worker for the life of the pool, so its compiled plan and
        # result memos stay hot across batches.
        n = len(self._conns)
        shards: dict[int, list] = {}
        for ki, request in unique:
            shards.setdefault(hash(request.plan_key) % n, []).append(
                (ki, request)
            )
        gens = snapshot._gens()
        workers = sorted(shards)
        by_key: dict[int, Result] = {}
        error: Exception | None = None
        stale: list[int] = []
        try:
            for w in workers:
                self._conns[w].send(("run", shards[w], gens))
            for w in workers:
                tag, payload = self._recv_reply(w)
                if tag == "ok":
                    for ki, result in payload:
                        by_key[ki] = result
                elif tag == "stale":
                    stale.append(w)
                    log.warning(
                        "daemon worker %d stale at gens %r (batch at %r); "
                        "re-executing its shard in-process and healing "
                        "the worker", w, payload, gens,
                    )
                elif error is None:
                    error = payload
        except (_ReplyTimeout, OSError, EOFError, IndexError) as exc:
            if isinstance(exc, _ReplyTimeout):
                self._degrade(
                    "reply-timeout", worker=exc.worker,
                    waited=f"{exc.waited:.3g}s",
                )
            else:
                self._degrade("worker-dead", error=type(exc).__name__)
            by_key = self._execute_local(unique, snapshot)
            return _fan_out(owners, by_key, len(requests))
        for w in stale:
            by_key.update(self._execute_local(shards[w], snapshot))
        if stale:
            self._heal(stale)
        if error is not None:
            raise error
        return _fan_out(owners, by_key, len(requests))

    def _heal(self, workers: list[int]) -> None:
        """Reset desynced workers to the pool's current state."""
        if not self._conns:
            return
        db, gens = self._snapshot.db, self._snapshot._gens()
        try:
            for w in workers:
                self._conns[w].send(("reset", db, gens))
        except (OSError, BrokenPipeError, EOFError):
            self._degrade("heal-send-failed")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the daemon workers down (idempotent).

        Runs the same cleanup the ``weakref.finalize`` guard would at
        GC/interpreter exit; either path empties the shared lists, so
        whichever runs second is a no-op.
        """
        conns, procs = self._conns, self._procs
        self._conns, self._procs = [], []
        DaemonPool._cleanup(conns, procs)
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def __enter__(self) -> "DaemonPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "DEFAULT_REPLY_RETRIES",
    "DEFAULT_REPLY_TIMEOUT",
    "DEFAULT_WORKER_CAP",
    "DaemonPool",
    "REPLY_RETRIES_ENV",
    "REPLY_TIMEOUT_ENV",
    "WORKER_CAP_ENV",
]
