"""Write-ahead log: durable sessions, crash recovery, change feed.

A :class:`WriteAheadLog` attaches to a live
:class:`~repro.api.session.Session` as a mutation observer and appends
one checksummed record per effective mutation, so the session's state
survives the process.  :func:`recover` (surfaced as
``Session.recover(path)``) rebuilds the session from disk: load the last
compaction snapshot, replay every intact log record on top, and truncate
— rather than choke on — a torn tail left by a crash mid-write.

On-disk layout (two sibling files):

``<path>``
    the log: an 16-byte header (``b"REPROWAL"`` magic + the base
    *epoch*, see below, as ``<Q``), then zero or more frames of
    ``<I length><I crc32>`` followed by ``length`` payload bytes: one
    :class:`~repro.api.session.SnapshotDelta` reduced to builtin tuples
    (:func:`_encode_delta` — ~4x faster to serialize than pickling atom
    objects, which matters on the per-mutation write path).
``<path>.snap``
    the last compaction snapshot: ``b"REPROSNP"`` magic + ``<I crc32>``
    over a pickled ``(proper_atoms, order_atoms, gens)`` triple.
    Written to a temp file, fsync'd, then atomically ``os.replace``\\ d.

**Epochs.**  Every effective mutation bumps at least one of the
session's three generation counters and none ever decreases, so
``sum(gens)`` is strictly increasing across mutations.  Each record
carries its target gens; the log header carries the epoch of the state
the log is *based on*.  Recovery replays only records whose epoch
exceeds the snapshot's — which makes a crash *between* compaction's two
non-atomic steps (snapshot replace, log truncate) harmless: the stale
log records are simply skipped.

**Sync policies.**  ``sync="fsync"`` (the default) fsyncs every record —
full power-loss durability.  ``sync="group"`` is group commit: every
record is still flushed to the kernel on append (so, like ``"flush"``,
every acknowledged write survives any process death), but the fsync is
amortized — one per commit *window*, issued as soon as ``group_max``
records are pending or ``group_window`` seconds have passed since the
window opened, whichever comes first.  Power-loss durability therefore
lags an acknowledged write by at most the window; under a burst of
writers (the serving tier) the cost approaches one fsync per burst
instead of one per record.  ``sync="flush"`` flushes to the kernel page
cache, which survives any process death (``SIGKILL`` included) but not a
kernel panic; it is what the crash-recovery differential tests and the
write-overhead benchmark use.  ``sync="none"`` leaves buffering to the
``io`` layer.

**Change feed.**  The same log doubles as a subscribe-able bus:
:class:`WalFollower` tails a log from another process (or a later point
in this one), applying new records to its own replica session — whose
observers, e.g. :class:`~repro.engine.views.MaterializedView`, fire
exactly as if the mutations were local.  Compaction under the follower's
feet is detected and handled by rebasing onto the new snapshot.

**Marks.**  Besides mutation deltas the log may carry :class:`WalMark`
records — tiny ``(seq, wall)`` stamps appended by the serving tier's
primary after each acknowledged write and periodically as heartbeats.
They carry no session state: recovery and log replay skip them, and
they count toward ``compact_every`` on their own counter — a marks-only
compaction skips the snapshot rewrite and just resets the log, so an
idle heartbeating primary's log stays bounded.  Compaction re-seeds the
fresh log with one mark carrying the ``seq`` high-water
(:attr:`WriteAheadLog.last_mark_seq`), which is how a restarted primary
resumes its reply ``seq`` instead of reusing numbers replicas have
already ratcheted past.  A :class:`WalFollower`
folds them into :attr:`~WalFollower.applied_seq` (the primary ``seq``
covered by the replica's state, the read-your-writes token) and
:attr:`~WalFollower.last_mark_wall` (primary-liveness evidence).

Fault-injection sites (:mod:`repro.engine.faults`): ``wal.torn_write``
makes :meth:`WriteAheadLog.append` write only a prefix of a record and
die; ``wal.compact.crash`` kills :meth:`WriteAheadLog.compact` between
its non-atomic steps; ``wal.follower.stall`` makes
:meth:`WalFollower.poll` skip its scan (a stuck feed).
"""

from __future__ import annotations

import io
import logging
import os
import pickle
import struct
import threading
import time
import zlib
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.core.atoms import OrderAtom, ProperAtom, Rel
from repro.core.database import IndefiniteDatabase
from repro.core.errors import ReproError
from repro.core.sorts import obj, ordc
from repro.engine import faults

if TYPE_CHECKING:
    from repro.api.session import MutationEvent, Session, SnapshotDelta

log = logging.getLogger(__name__)

#: log file magic (8 bytes) followed by ``<Q`` base epoch.
_LOG_MAGIC = b"REPROWAL"
_HEADER = struct.Struct("<8sQ")
#: per-record frame prefix: payload length, crc32 of the payload.
_FRAME = struct.Struct("<II")
#: snapshot file magic followed by ``<I`` crc32 of the pickled payload.
_SNAP_MAGIC = b"REPROSNP"
_SNAP_HEADER = struct.Struct("<8sI")

_SYNC_POLICIES = ("fsync", "group", "flush", "none")


class WalError(ReproError):
    """Unrecoverable corruption in a WAL or its compaction snapshot.

    Torn *tail* records are expected crash debris and are truncated
    silently; this is for damage recovery cannot paper over — a bad
    magic, a snapshot that fails its checksum.
    """


def _epoch(gens: tuple[int, int, int]) -> int:
    """The strictly-increasing scalar order on generation triples."""
    return gens[0] + gens[1] + gens[2]


def _fsync_dir(path: str) -> None:
    """Make a rename in ``path``'s directory durable (best effort)."""
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- snapshot sibling file ---------------------------------------------------


def snap_path(path: str) -> str:
    """The compaction-snapshot sibling of the log at ``path``."""
    return path + ".snap"


def _write_snapshot(
    path: str,
    proper: frozenset[ProperAtom],
    order: frozenset[OrderAtom],
    gens: tuple[int, int, int],
) -> None:
    """Atomically (re)write the snapshot sibling of the log at ``path``."""
    payload = pickle.dumps(
        (tuple(sorted(proper)), tuple(sorted(order)), gens),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    target = snap_path(path)
    tmp = target + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_SNAP_HEADER.pack(_SNAP_MAGIC, zlib.crc32(payload)))
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    rule = faults.fire(faults.SITE_WAL_COMPACT)
    if rule is not None and int(rule.param("stage", 0)) == 0:
        # died after writing the temp snapshot, before the atomic rename:
        # the old snapshot (or its absence) is still in force.
        raise faults.InjectedCrash("wal.compact.crash stage=0")
    os.replace(tmp, target)
    _fsync_dir(target)
    if rule is not None and int(rule.param("stage", 0)) == 1:
        # died after the rename, before the log was truncated: recovery
        # must skip the log's stale records by epoch.
        raise faults.InjectedCrash("wal.compact.crash stage=1")


def _read_snapshot(
    path: str,
) -> tuple[frozenset[ProperAtom], frozenset[OrderAtom], tuple[int, int, int]] | None:
    """Load the snapshot sibling, or ``None`` when there is none."""
    target = snap_path(path)
    try:
        with open(target, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    if len(raw) < _SNAP_HEADER.size:
        raise WalError(f"snapshot {target!r} is truncated")
    magic, crc = _SNAP_HEADER.unpack_from(raw)
    payload = raw[_SNAP_HEADER.size :]
    if magic != _SNAP_MAGIC:
        raise WalError(f"snapshot {target!r} has bad magic {magic!r}")
    if zlib.crc32(payload) != crc:
        raise WalError(f"snapshot {target!r} failed its checksum")
    proper, order, gens = pickle.loads(payload)
    return frozenset(proper), frozenset(order), tuple(gens)


# -- record wire format ------------------------------------------------------
#
# Records are on the steady-state write path (one per mutation), so they
# do NOT pickle atom objects — reducing each ground atom to builtin
# tuples before pickling is ~4x faster to serialize and smaller on disk.
# The cold read path rebuilds real atoms; the (rarely written) snapshot
# sibling keeps the straightforward atom pickle.


def _encode_delta(delta: "SnapshotDelta") -> bytes:
    """One record's payload: the delta reduced to builtin tuples."""
    return pickle.dumps(
        (
            tuple(
                (a.pred, tuple((t.name, t.is_object) for t in a.args))
                for a in delta.added_proper
            ),
            tuple(
                (a.pred, tuple((t.name, t.is_object) for t in a.args))
                for a in delta.removed_proper
            ),
            tuple(
                (a.left.name, a.rel.value, a.right.name)
                for a in delta.added_order
            ),
            tuple(
                (a.left.name, a.rel.value, a.right.name)
                for a in delta.removed_order
            ),
            delta.gens,
            delta.graph,
            delta.label,
            delta.object,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _delta_from_fields(fields: tuple) -> "SnapshotDelta":
    from repro.api.session import SnapshotDelta

    ap, rp, ao, ro, gens, graph, label, object_ = fields

    def proper(entries):
        return tuple(
            ProperAtom(
                pred,
                tuple(
                    obj(name) if is_object else ordc(name)
                    for name, is_object in args
                ),
            )
            for pred, args in entries
        )

    def order(entries):
        return tuple(
            OrderAtom(ordc(left), Rel(rel), ordc(right))
            for left, rel, right in entries
        )

    return SnapshotDelta(
        added_proper=proper(ap),
        removed_proper=proper(rp),
        added_order=order(ao),
        removed_order=order(ro),
        gens=tuple(gens),
        graph=graph,
        label=label,
        object=object_,
    )


class WalMark(NamedTuple):
    """A stateless log record: primary ``seq`` stamp + wall-clock time.

    The serving tier's primary appends one after each acknowledged
    write (so replicas learn which ``seq`` their state covers) and
    periodically as a heartbeat (so replicas can tell a quiet primary
    from a dead one).
    """

    seq: int
    wall: float


#: First element of a mark payload tuple.  Delta payloads start with a
#: tuple of atoms, so the tag is unambiguous against every delta ever
#: written — old logs decode unchanged, old readers never see marks.
_MARK_TAG = "__repro_mark__"


def _encode_mark(seq: int, wall: float) -> bytes:
    """A :class:`WalMark` record's payload."""
    return pickle.dumps(
        (_MARK_TAG, int(seq), float(wall)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _decode_record(payload: bytes) -> "SnapshotDelta | WalMark":
    """Rebuild one record: a mutation delta or a :class:`WalMark`."""
    fields = pickle.loads(payload)
    if (
        isinstance(fields, tuple)
        and len(fields) == 3
        and fields[0] == _MARK_TAG
    ):
        return WalMark(int(fields[1]), float(fields[2]))
    return _delta_from_fields(fields)


# -- log frames --------------------------------------------------------------


def _scan_frame_bytes(
    raw: bytes, offset: int
) -> tuple[int, list["SnapshotDelta | WalMark"]]:
    """Walk intact frames in ``raw`` starting at ``offset``.

    Returns ``(clean_offset, records)`` where ``clean_offset`` is the
    byte offset just past the last *intact* frame — anything beyond it
    is a torn or corrupt tail.  Used on whole files (after the header)
    and on incremental tails read by :class:`WalFollower`.
    """
    records: list["SnapshotDelta | WalMark"] = []
    while True:
        if offset + _FRAME.size > len(raw):
            break
        length, crc = _FRAME.unpack_from(raw, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(raw):
            break
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(_decode_record(payload))
        except Exception:  # a crc collision over garbage — treat as torn
            break
        offset = end
    return offset, records


def _scan_frames(raw: bytes) -> tuple[int, list["SnapshotDelta | WalMark"]]:
    """Walk the frames in ``raw`` (header included).

    Returns ``(clean_length, records)`` where ``clean_length`` is the
    byte offset just past the last *intact* frame — anything beyond it
    is a torn or corrupt tail to be truncated.
    """
    if len(raw) < _HEADER.size:
        raise WalError("log is shorter than its header")
    magic, _base = _HEADER.unpack_from(raw)
    if magic != _LOG_MAGIC:
        raise WalError(f"log has bad magic {magic!r}")
    return _scan_frame_bytes(raw, _HEADER.size)


def read_log(
    path: str,
) -> tuple[int, int, list["SnapshotDelta | WalMark"]]:
    """Read the log at ``path``: ``(base_epoch, clean_length, records)``.

    ``records`` mixes mutation deltas and :class:`WalMark` stamps, in
    log order.  Torn/corrupt tail bytes are *reported* (via
    ``clean_length`` < file size) but not modified — callers that own
    the file truncate.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    clean, records = _scan_frames(raw)
    _, base = _HEADER.unpack_from(raw)
    return base, clean, records


# -- the log -----------------------------------------------------------------


class WriteAheadLog:
    """Durability for one session: every mutation becomes a log record.

    Use :meth:`attach` to subscribe to a live session (writing the
    initial compaction snapshot if the log is new), or construct and
    attach in one step::

        wal = WriteAheadLog("session.wal").attach(session)
        session.assert_facts(...)          # appended + fsync'd
        wal.close()

    ``compact_every=N`` folds the log into a fresh snapshot after every
    ``N`` appended records; :meth:`compact` does it on demand.
    ``sync`` is one of ``"fsync"`` / ``"group"`` / ``"flush"`` /
    ``"none"`` (see the module docstring); under ``"group"``,
    ``group_window`` (seconds) and ``group_max`` (records) bound how far
    power-loss durability may lag an acknowledged append.
    """

    def __init__(
        self,
        path: str,
        sync: str = "fsync",
        compact_every: int | None = None,
        group_window: float = 0.005,
        group_max: int = 64,
    ) -> None:
        if sync not in _SYNC_POLICIES:
            raise ValueError(
                f"sync must be one of {_SYNC_POLICIES}, got {sync!r}"
            )
        if compact_every is not None and compact_every <= 0:
            raise ValueError("compact_every must be positive")
        if group_window <= 0:
            raise ValueError("group_window must be positive")
        if group_max <= 0:
            raise ValueError("group_max must be positive")
        self.path = path
        self.sync = sync
        self.compact_every = compact_every
        self.group_window = group_window
        self.group_max = group_max
        self._fh: io.BufferedWriter | None = None
        self._session: "Session" | None = None
        self._since_compact = 0
        self._marks_since_compact = 0
        #: highest ``seq`` ever carried by an appended :class:`WalMark`
        #: (recovered from the log on :meth:`attach`).  Compaction
        #: re-appends one mark with this value into the fresh log, so a
        #: restarted serving-tier primary can resume its reply ``seq``
        #: above everything replicas have already ratcheted past.
        self.last_mark_seq = 0
        # Group-commit state: appends flushed but not yet fsync'd, and
        # the timer that will fsync them when the window closes.  The
        # lock serializes the append path against the timer thread.
        self._lock = threading.RLock()
        self._pending = 0
        self._timer: threading.Timer | None = None
        #: fsyncs actually issued (observability for tests/benchmarks).
        self.fsync_count = 0

    # -- lifecycle ------------------------------------------------------

    def attach(self, session: "Session") -> "WriteAheadLog":
        """Subscribe to ``session``; start or continue the log at ``path``.

        A fresh path gets a compaction snapshot of the session's current
        state plus an empty log — recovery needs no special "no snapshot
        yet" case.  An existing path is continued: its torn tail (if
        any) is truncated, and appending resumes where the intact
        records end.  The caller is responsible for attaching to a
        session that actually *is* the recovered state — which
        :func:`recover` guarantees.
        """
        if self._session is not None:
            raise WalError("log is already attached to a session")
        exists = os.path.exists(self.path)
        if exists:
            base, clean, records = read_log(self.path)
            size = os.path.getsize(self.path)
            if clean < size:
                log.warning(
                    "truncating torn WAL tail: %d byte(s) after offset %d in %s",
                    size - clean,
                    clean,
                    self.path,
                )
            self._fh = open(self.path, "r+b")
            self._fh.truncate(clean)
            self._fh.seek(clean)
            self._since_compact = sum(
                1 for r in records if not isinstance(r, WalMark)
            )
            self._marks_since_compact = 0
            self.last_mark_seq = max(
                (r.seq for r in records if isinstance(r, WalMark)), default=0
            )
        else:
            _write_snapshot(
                self.path,
                frozenset(session._proper),
                frozenset(session._order),
                session._gens(),
            )
            self._fh = open(self.path, "wb")
            self._fh.write(_HEADER.pack(_LOG_MAGIC, _epoch(session._gens())))
            self._sync(barrier=True)
            self._since_compact = 0
        self._session = session
        session.add_observer(self._on_mutation)
        return self

    def close(self) -> None:
        """Detach from the session and close the file (idempotent).

        Under ``sync="group"`` any pending window is fsync'd first, so
        a clean close never owes durability to a timer that will no
        longer fire.
        """
        if self._session is not None:
            self._session.remove_observer(self._on_mutation)
            self._session = None
        with self._lock:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            if self._fh is not None:
                try:
                    self._fh.flush()
                    if self._pending:
                        os.fsync(self._fh.fileno())
                        self.fsync_count += 1
                        self._pending = 0
                finally:
                    self._fh.close()
                    self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writing --------------------------------------------------------

    def _sync(self, barrier: bool = False) -> None:
        """Flush (and fsync, per policy) what has been written.

        ``barrier=True`` closes any open group-commit window on the
        spot — used by the rare control-path writes (attach, compact)
        that must not owe durability to a timer.
        """
        assert self._fh is not None
        if self.sync == "none":
            return
        self._fh.flush()
        if self.sync == "fsync":
            os.fsync(self._fh.fileno())
            self.fsync_count += 1
        elif self.sync == "group" and barrier:
            with self._lock:
                if self._timer is not None:
                    self._timer.cancel()
                    self._timer = None
                os.fsync(self._fh.fileno())
                self.fsync_count += 1
                self._pending = 0

    def _group_fsync(self) -> None:
        """Timer thread: the commit window elapsed — fsync the pending tail."""
        with self._lock:
            self._timer = None
            if self._fh is None or not self._pending:
                return
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except (OSError, ValueError):  # pragma: no cover - closed racily
                return
            self.fsync_count += 1
            self._pending = 0

    def _on_mutation(self, event: "MutationEvent") -> None:
        from repro.api.session import SnapshotDelta

        session = self._session
        if session is None:  # closed mid-notify by another observer
            return
        delta = SnapshotDelta(
            added_proper=tuple(
                a for a in event.added if isinstance(a, ProperAtom)
            ),
            removed_proper=tuple(
                a for a in event.removed if isinstance(a, ProperAtom)
            ),
            added_order=tuple(
                a for a in event.added if isinstance(a, OrderAtom)
            ),
            removed_order=tuple(
                a for a in event.removed if isinstance(a, OrderAtom)
            ),
            gens=session._gens(),
            graph=event.graph,
            label=event.label,
            object=event.object,
        )
        self.append(delta)

    def append(self, delta: "SnapshotDelta") -> None:
        """Append one record (fault site ``wal.torn_write``)."""
        if self._fh is None:
            raise WalError("log is not open")
        payload = _encode_delta(delta)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        rule = faults.fire(faults.SITE_WAL_TORN)
        if rule is not None:
            torn = frame[: max(1, int(len(frame) * rule.param("fraction", 0.5)))]
            self._fh.write(torn)
            self._fh.flush()
            raise faults.InjectedCrash("wal.torn_write")
        self._write_frame(frame)
        self._since_compact += 1
        if self.compact_every and self._since_compact >= self.compact_every:
            self.compact()

    def append_mark(self, seq: int, wall: float | None = None) -> None:
        """Append a :class:`WalMark` (``seq`` stamp / heartbeat) record.

        Marks ride the same sync policy as mutation records but carry
        no session state.  They keep their own counter against
        ``compact_every`` — a quiet primary heartbeating once a second
        must not grow the log without bound — and a marks-only
        compaction is cheap: the snapshot already covers the log, so
        only the log file is reset (see :meth:`compact`).
        """
        if self._fh is None:
            raise WalError("log is not open")
        if seq > self.last_mark_seq:
            self.last_mark_seq = seq
        payload = _encode_mark(seq, time.time() if wall is None else wall)
        self._write_frame(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        self._marks_since_compact += 1
        if (
            self.compact_every
            and self._marks_since_compact >= self.compact_every
            and self._session is not None
        ):
            self.compact()

    def _write_frame(self, frame: bytes) -> None:
        """Write one framed record honoring the sync policy."""
        if self.sync == "group":
            with self._lock:
                self._fh.write(frame)
                self._fh.flush()  # in the kernel: survives process death
                self._pending += 1
                if self._pending >= self.group_max:
                    os.fsync(self._fh.fileno())
                    self.fsync_count += 1
                    self._pending = 0
                    if self._timer is not None:
                        self._timer.cancel()
                        self._timer = None
                elif self._timer is None:
                    self._timer = threading.Timer(
                        self.group_window, self._group_fsync
                    )
                    self._timer.daemon = True
                    self._timer.start()
        else:
            self._fh.write(frame)
            self._sync()

    def compact(self) -> None:
        """Fold the log into a fresh snapshot and truncate it.

        Two non-atomic steps — replace the snapshot sibling, then reset
        the log with the new base epoch — with the fault site
        ``wal.compact.crash`` between/around them.  A crash at either
        point recovers cleanly: stage 0 leaves the old snapshot + full
        log; stage 1 leaves the new snapshot + a log whose records are
        all at or below the new base epoch, so replay skips them.

        When the log holds no mutation records (marks only — an idle
        heartbeating primary), the snapshot already covers it and the
        rewrite is skipped: only the log file is reset.  Either way the
        fresh log is seeded with one :class:`WalMark` carrying
        :attr:`last_mark_seq`, so the ``seq`` high-water survives
        truncation for recovery and late-attaching followers.
        """
        if self._fh is None or self._session is None:
            raise WalError("log is not attached")
        session = self._session
        if self._since_compact:
            _write_snapshot(
                self.path,
                frozenset(session._proper),
                frozenset(session._order),
                session._gens(),
            )
        # Reset the log under a NEW inode (tmp + os.replace) rather than
        # truncating in place: a follower can then detect compaction
        # from a single stat (the inode changed), which is what makes
        # WalFollower.poll()'s no-open fast path sound.
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(_LOG_MAGIC, _epoch(session._gens())))
            fh.flush()
            if self.sync in ("fsync", "group"):
                os.fsync(fh.fileno())
                self.fsync_count += 1
        os.replace(tmp, self.path)
        _fsync_dir(self.path)
        with self._lock:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._pending = 0
            self._fh.close()
            self._fh = open(self.path, "r+b")
            self._fh.seek(0, os.SEEK_END)
        self._since_compact = 0
        self._marks_since_compact = 0
        if self.last_mark_seq:
            # re-seed the seq high-water (direct frame write: must not
            # re-enter the mark-count compaction trigger)
            payload = _encode_mark(self.last_mark_seq, time.time())
            self._write_frame(
                _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
            )
            self._marks_since_compact = 1


# -- recovery ----------------------------------------------------------------


def _load_state(
    path: str, plan_cache_limit: int | None = None
) -> tuple["Session", int, int, list["SnapshotDelta | WalMark"]]:
    """One *consistent* snapshot + log read, replayed into a session.

    Returns ``(session, log_base, clean_length, records)`` where
    ``session`` already has every intact post-snapshot record applied
    and ``clean_length`` is the log offset just past the last record
    folded in — so a follower can cache it as its tail position with no
    window for records to slip between a replay read and an offset read
    (the race the old two-read recover/``read_log`` dance had).

    A live writer may :meth:`WriteAheadLog.compact` between our two file
    reads.  Both compaction and attach replace the snapshot *before*
    resetting the log, so a consistent pair always has
    ``log_base <= snapshot epoch``; observing the opposite means the
    snapshot we read is older than the log — re-read the pair.
    """
    from repro.api.session import Session

    for _attempt in range(8):
        snap = _read_snapshot(path)
        if snap is None:
            raise WalError(f"no WAL snapshot at {snap_path(path)!r}")
        proper, order, gens = snap
        try:
            base, clean, records = read_log(path)
        except FileNotFoundError:
            base, clean, records = _epoch(gens), _HEADER.size, []
        if base <= _epoch(gens):
            break
        log.info(
            "snapshot/log pair at %s raced a compaction "
            "(log base %d > snapshot epoch %d); re-reading",
            path,
            base,
            _epoch(gens),
        )
    else:
        raise WalError(
            f"snapshot/log pair at {path!r} would not settle after 8 reads"
        )
    kwargs = {} if plan_cache_limit is None else {
        "plan_cache_limit": plan_cache_limit
    }
    session = Session(IndefiniteDatabase(proper, order), **kwargs)
    (session._graph_gen, session._label_gen, session._object_gen) = gens
    base_epoch = _epoch(gens)
    skipped = 0
    for delta in records:
        if isinstance(delta, WalMark):
            continue
        if _epoch(delta.gens) <= base_epoch:
            skipped += 1  # pre-compaction debris (crash before truncate)
            continue
        session.apply_snapshot_delta(delta)
    if skipped:
        log.info(
            "recovery skipped %d stale record(s) at or below epoch %d in %s",
            skipped,
            base_epoch,
            path,
        )
    return session, base, clean, records


def recover(path: str, plan_cache_limit: int | None = None) -> "Session":
    """Rebuild the session persisted in the WAL at ``path``.

    Last snapshot + replay of every intact record with a later epoch
    (:class:`WalMark` stamps are skipped — they carry no state).  The
    result is a plain live :class:`~repro.api.session.Session` —
    re-attach a :class:`WriteAheadLog` to keep logging.
    """
    return _load_state(path, plan_cache_limit=plan_cache_limit)[0]


# -- change feed -------------------------------------------------------------


class WalFollower:
    """Tail a WAL as a live change feed into a replica session.

    The follower owns a private :class:`~repro.api.session.Session`
    rebuilt by :func:`recover`; each :meth:`poll` reads records appended
    since the last poll and applies them, firing the replica's mutation
    observers — so a :class:`~repro.engine.views.MaterializedView`
    registered on :attr:`session` follows the writer across process
    boundaries::

        follower = WalFollower("session.wal")
        view = MaterializedView(follower.session, query)
        ...
        follower.poll()      # view now reflects the writer's appends

    Compaction by the writer is detected (the log shrank, or its base
    epoch moved) and handled by *rebasing*: recover the new on-disk
    state into a scratch session and apply the difference to the replica
    as one synthetic delta — same observer semantics, no state loss.

    Read-your-writes bookkeeping: :attr:`applied_seq` is the highest
    primary ``seq`` marked at or before the follower's position (0 when
    the log has no marks), and :attr:`last_mark_wall` the wall-clock
    stamp of the latest mark seen — the serving tier's replica mode
    uses the pair for consistency gating and primary-death detection.
    :attr:`polls` and :attr:`rebases` count for health reporting.
    """

    def __init__(self, path: str, plan_cache_limit: int | None = None) -> None:
        self.path = path
        self._plan_cache_limit = plan_cache_limit
        #: highest primary ``seq`` covered by :attr:`session`'s state.
        self.applied_seq = 0
        #: wall-clock stamp of the newest :class:`WalMark` seen, if any.
        self.last_mark_wall: float | None = None
        #: poll attempts that actually scanned (health reporting).
        self.polls = 0
        #: compaction rebases performed (health reporting).
        self.rebases = 0
        # Stat before reading: if a compaction lands between the stat
        # and the read we cache the OLD inode against the NEW file and
        # the next poll takes the slow path — the safe direction.
        try:
            self._ino = os.stat(path).st_ino
        except OSError:
            self._ino = -1
        self.session, self._base, self._offset, records = _load_state(
            path, plan_cache_limit=plan_cache_limit
        )
        self._epoch = _epoch(self.session._gens())
        self._fold_marks(records)

    def _fold_marks(self, records: list["SnapshotDelta | WalMark"]) -> None:
        for record in records:
            if isinstance(record, WalMark):
                if record.seq > self.applied_seq:
                    self.applied_seq = record.seq
                self.last_mark_wall = record.wall

    def poll(self) -> int:
        """Apply records appended since the last poll; count applied.

        A rebase after writer-side compaction counts as one application
        when the state actually changed; :class:`WalMark` records update
        :attr:`applied_seq` / :attr:`last_mark_wall` but do not count.

        A torn tail — a frame the writer is mid-append on, or crash
        debris — is *never* an error here: the scan stops at the last
        intact frame and the next poll retries from there.  (Fault site
        ``wal.follower.stall`` makes the whole poll a no-op.)

        Polling is built to be cheap enough for a tight tailing loop
        (the serving tier's ``watch`` path calls it per client tick):

        * **fast path** — one ``stat``, no open: if the inode and size
          both match what we last scanned, nothing happened.  Between
          compactions the log is append-only (same inode), so an
          unchanged size means a byte-identical file; a compaction
          swaps in a new inode (see :meth:`WriteAheadLog.compact`), so
          it can never alias the cached pair even when the refilled log
          lands on exactly the old length.  The bare-header size is
          additionally excluded, guarding the (already freakish)
          recycled-inode case.
        * **slow path** — re-read only the 16-byte header (to detect a
          compaction rebase) plus the bytes past our cached offset,
          never the whole file.
        """
        if faults.fire(faults.SITE_FOLLOWER_STALL) is not None:
            return 0
        try:
            st = os.stat(self.path)
            size = st.st_size
        except OSError:
            return 0
        if (
            size == self._offset
            and st.st_ino == self._ino
            and size > _HEADER.size
        ):
            return 0
        self.polls += 1
        self._ino = st.st_ino
        try:
            with open(self.path, "rb") as fh:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return 0
                _magic, base = _HEADER.unpack_from(header)
                if base != self._base or size < self._offset:
                    return self._rebase()
                fh.seek(self._offset)
                tail = fh.read()
        except FileNotFoundError:
            return 0
        except OSError:  # pragma: no cover - transient FS trouble
            return 0
        try:
            clean, records = _scan_frame_bytes(tail, 0)
        except Exception:  # defensive: racing garbage must not poison the feed
            log.warning(
                "follower: unreadable tail at offset %d in %s; will retry",
                self._offset,
                self.path,
            )
            return 0
        applied = 0
        for record in records:
            if isinstance(record, WalMark):
                if record.seq > self.applied_seq:
                    self.applied_seq = record.seq
                self.last_mark_wall = record.wall
                continue
            if _epoch(record.gens) <= self._epoch:
                continue
            self.session.apply_snapshot_delta(record)
            self._epoch = _epoch(record.gens)
            applied += 1
        self._offset += clean
        return applied

    def _rebase(self) -> int:
        """The writer compacted: jump the replica to the new on-disk state.

        One consistent :func:`_load_state` read supplies the recovered
        state *and* the tail offset it corresponds to, so no record can
        slip between a replay read and an offset read.
        """
        self.rebases += 1
        recovered, base, clean, records = _load_state(
            self.path, plan_cache_limit=self._plan_cache_limit
        )
        self._base = base
        self._offset = clean
        self._fold_marks(records)
        delta = recovered.snapshot_delta(self.session)
        if delta is None:
            self._epoch = _epoch(self.session._gens())
            return 0
        self.session.apply_snapshot_delta(delta)
        self._epoch = _epoch(self.session._gens())
        return 1


__all__ = [
    "WalError",
    "WalFollower",
    "WalMark",
    "WriteAheadLog",
    "read_log",
    "recover",
    "snap_path",
]
