"""Read-only session snapshots: freeze a database state, keep the heat.

The paper's decision procedures are pure functions of (database, plan),
so any fixed database state can be queried from as many places as you
like — the only obstacle is the cache substrate, which is keyed on live
mutable instances.  :meth:`Session.snapshot
<repro.api.session.Session.snapshot>` resolves that with a one-way
copy-on-write handoff:

* the snapshot shares the live session's frozen
  :class:`~repro.core.database.IndefiniteDatabase`, its order-graph
  *instance* (whose per-generation closures are append-only and so safe
  to read and warm from both sides), its labelled dag and object-fact
  index, and a forked region-cache hub whose entries share the
  structural memo dicts (:meth:`RegionCache.fork
  <repro.core.regions.RegionCache.fork>`);
* the live session raises its ``_graph_shared`` flag: the next mutation
  that would have edited the shared graph in place rebuilds a private
  graph instead, so a snapshot can never observe a mutation.

Snapshots are therefore cheap (no copying of graph closures, no cold
caches) and durable (valid for their whole lifetime).  They are the unit
the worker pools (:mod:`repro.engine.pool`) ship to workers: under a
``fork`` start method the operating system's copy-on-write pages make
the warm closures free to inherit.  A daemon-pool worker's fork-
inherited snapshot is *process-private*, which is what lets the worker
advance it with :meth:`Session.apply_snapshot_delta
<repro.api.session.Session.apply_snapshot_delta>` resync deltas without
ever violating immutability of any snapshot the parent can observe.
"""

from __future__ import annotations

from repro.api.session import Session
from repro.core.errors import ReproError


class SnapshotMutationError(ReproError):
    """A mutation was attempted on a read-only session snapshot."""


class SessionSnapshot(Session):
    """An immutable :class:`~repro.api.session.Session` at a fixed state.

    Supports the whole query surface — :meth:`prepare`, :meth:`explain`,
    :meth:`entails`, :meth:`certain_answers`, :meth:`snapshot` (snapshots
    of snapshots are just more forks) — but every mutator raises
    :class:`SnapshotMutationError`.  Obtained from
    :meth:`Session.snapshot <repro.api.session.Session.snapshot>`.
    """

    def __init__(self, session: Session) -> None:
        db = session.db
        self._proper = set(db.proper_atoms)
        self._order = set(db.order_atoms)
        self._db = db
        self._stale_db = None
        self._order_names = None
        self._object_names = None
        self._graph_gen, self._label_gen, self._object_gen = session._gens()
        ctx = session.context()
        ctx.graph  # noqa: B018 - build before sharing so both sides warm it
        self._ctx = ctx.fork()
        self._plans = {}
        self._plan_limit = session._plan_limit
        self._observers = []
        self._graph_shared = False

    def _refuse(self, what: str) -> None:
        raise SnapshotMutationError(
            f"cannot {what} on a read-only snapshot; mutate the live "
            "session and take a new snapshot"
        )

    # -- the whole mutation surface is refused ----------------------------

    def assert_facts(self, *atoms) -> "Session":
        self._refuse("assert_facts")

    def retract_facts(self, *atoms) -> "Session":
        self._refuse("retract_facts")

    def assert_order(self, *atoms) -> "Session":
        self._refuse("assert_order")

    def retract_order(self, *atoms) -> "Session":
        self._refuse("retract_order")

    def __str__(self) -> str:
        return f"SessionSnapshot({self.size()} atoms, gens={self._gens()})"


__all__ = ["SessionSnapshot", "SnapshotMutationError"]
