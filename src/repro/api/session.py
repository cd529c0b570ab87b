"""Sessions: a mutable database plus warm caches across queries.

The paper's decision procedures are stateless functions; the PR 1 cache
substrate (generation-counter closures on
:class:`~repro.core.ordergraph.OrderGraph`, the shared
:class:`~repro.core.regions.RegionCache`) is keyed on graph *instances*,
so the one-shot API — which rebuilds the order graph from the database
on every call — throws the warm state away between queries.  A
:class:`Session` is the service-shaped entry point that keeps it:

* it owns a mutable :class:`~repro.core.database.IndefiniteDatabase`
  with incremental :meth:`~Session.assert_facts`,
  :meth:`~Session.retract_facts`, :meth:`~Session.assert_order` and
  :meth:`~Session.retract_order`;
* it holds one long-lived order-graph instance, labelled dag,
  object-fact index and :class:`~repro.core.regions.RegionCacheHub`,
  invalidating only what each mutation can affect (see
  :class:`~repro.api.plan.ExecutionContext` for the exact rules);
* :meth:`~Session.prepare` compiles a query once into a
  :class:`~repro.api.plan.PreparedQuery` whose repeated
  :meth:`~repro.api.plan.PreparedQuery.execute` calls reuse both the
  plan and the session caches.

Invalidation contract (the granular generation counters):

* ``assert_order`` / order constants appearing or disappearing →
  *graph* generation: closures, region caches and plans' order-part
  memos all reset (the graph instance itself is mutated in place on
  asserts, rebuilt lazily on retracts);
* facts over existing order constants → *label* generation: the
  labelled dag and order-part memos reset, but the graph's closures
  and the structural region caches stay warm;
* facts over object constants only → *object* generation: just the
  object-fact index and object domain reset — prepared order-part
  verdicts survive, so certain-answer re-evaluation after an
  object-fact edit is nearly free.

Concurrency discipline: a session is **single-writer, single-thread**.
Nothing here locks — the caches, generation counters and observer list
all assume one caller at a time, and the engine layers preserve that
by construction rather than by locking: the serving tier
(:mod:`repro.server`) funnels every operation from every client
connection through one queue into one engine loop, the only code that
touches its session.  Share a session across threads and the
invalidation contract above is void.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from repro.api.plan import ExecutionContext, PreparedQuery
from repro.api.result import Result
from repro.core.atoms import OrderAtom, ProperAtom
from repro.core.database import IndefiniteDatabase
from repro.core.errors import SortError
from repro.core.query import Query
from repro.core.semantics import Semantics
from repro.core.sorts import Term

#: Most-recently-prepared plans kept per session.
_PLAN_CACHE_LIMIT = 128


class SnapshotDelta(NamedTuple):
    """The incremental state change between two generations of a session.

    Produced by :meth:`Session.snapshot_delta` and consumed by
    :meth:`Session.apply_snapshot_delta`: the atoms that appeared and
    disappeared, the target generation counters, and which of the three
    counters bumped — exactly the information a process holding a copy
    of the older state needs to advance to the newer one while
    invalidating only what the bumped generations require.  The
    write-ahead log stores one per mutation, and a
    :class:`~repro.engine.wal.WalFollower` rebases its session by one.

    Atom tuples are sorted, so a delta is a deterministic function of
    the two states.
    """

    added_proper: tuple[ProperAtom, ...]
    removed_proper: tuple[ProperAtom, ...]
    added_order: tuple[OrderAtom, ...]
    removed_order: tuple[OrderAtom, ...]
    #: the target ``(graph, label, object)`` generation triple
    gens: tuple[int, int, int]
    graph: bool
    label: bool
    object: bool


class MutationEvent(NamedTuple):
    """What a single mutation invalidated, as delivered to observers.

    Attributes:
        graph: the graph generation was bumped (order atoms or order
            constants appeared/disappeared) — everything graph-derived
            is stale.
        label: the label generation was bumped (facts over existing
            order constants changed) — order-part memos are stale.
        object: the object generation was bumped (facts over object
            constants changed).
        objects: the object-constant names mentioned by the mutated
            facts — the delta an incrementally maintained view needs.
        added: the atoms this mutation actually added (effective
            mutations only — already-present atoms are not repeated).
        removed: the atoms this mutation actually removed.

    ``added``/``removed`` make the observer channel a *trigger layer*
    carrying the full change, so a durability log
    (:class:`repro.engine.wal.WriteAheadLog`) can persist each mutation
    as a :class:`SnapshotDelta`-shaped record without shadowing the
    session's atom sets.
    """

    graph: bool
    label: bool
    object: bool
    objects: frozenset[str]
    added: tuple = ()
    removed: tuple = ()


class Session:
    """A stateful query service over one evolving indefinite database."""

    def __init__(
        self,
        db: IndefiniteDatabase | None = None,
        plan_cache_limit: int = _PLAN_CACHE_LIMIT,
    ) -> None:
        db = IndefiniteDatabase.empty() if db is None else db
        self._proper: set[ProperAtom] = set(db.proper_atoms)
        self._order: set[OrderAtom] = set(db.order_atoms)
        self._db: IndefiniteDatabase | None = db
        #: the last built database while ``_db`` is stale: the next
        #: build succeeds it, inheriting its vocabulary when unchanged
        self._stale_db: IndefiniteDatabase | None = None
        self._order_names: set[str] | None = None
        self._object_names: set[str] | None = None
        self._graph_gen = 0
        self._label_gen = 0
        self._object_gen = 0
        self._ctx: ExecutionContext | None = None
        #: LRU over prepared plans: insertion order == recency order.
        self._plans: dict[tuple, PreparedQuery] = {}
        self._plan_limit = plan_cache_limit
        #: mutation observers (materialized views and other engine state)
        self._observers: list[Callable[[MutationEvent], None]] = []

    @classmethod
    def from_atoms(
        cls, atoms: Iterable[ProperAtom | OrderAtom]
    ) -> "Session":
        """Start a session from a flat iterable of ground atoms."""
        return cls(IndefiniteDatabase.from_atoms(atoms))

    @classmethod
    def recover(
        cls, path, plan_cache_limit: int = _PLAN_CACHE_LIMIT
    ) -> "Session":
        """Rebuild a session from the write-ahead log at ``path``.

        Loads the last compaction snapshot (if any) and replays every
        intact log record on top; a torn or corrupt tail record —
        detected by the length prefix and CRC — is truncated away rather
        than poisoning recovery.  See :mod:`repro.engine.wal`.
        """
        from repro.engine.wal import recover as _recover

        return _recover(path, plan_cache_limit=plan_cache_limit)

    # -- state -------------------------------------------------------------

    @property
    def db(self) -> IndefiniteDatabase:
        """The current database as an immutable snapshot."""
        if self._db is None:
            self._db = self._stale_db.successor(
                frozenset(self._proper), frozenset(self._order)
            )
            self._stale_db = None
        return self._db

    def _drop_db(self) -> None:
        """Mark the frozen database stale; :attr:`db` rebuilds it lazily."""
        if self._db is not None:
            self._stale_db, self._db = self._db, None

    def size(self) -> int:
        """Total number of atoms currently asserted."""
        return len(self._proper) + len(self._order)

    def _gens(self) -> tuple[int, int, int]:
        return (self._graph_gen, self._label_gen, self._object_gen)

    def _known_order_names(self) -> set[str]:
        if self._order_names is None:
            self._order_names = self.db.order_constants
        return self._order_names

    def _known_object_names(self) -> set[str]:
        if self._object_names is None:
            self._object_names = self.db.object_constants
        return self._object_names

    def _check_sort_clash(
        self,
        proper_atoms: Iterable[ProperAtom],
        order_atoms: Iterable[OrderAtom],
    ) -> None:
        """Reject names that would end up at both sorts — before mutating.

        The frozen :class:`~repro.core.database.IndefiniteDatabase`
        performs the same check, but only when it is (lazily) rebuilt —
        by which point the session's own sets would already have
        absorbed the offending atoms and every later ``db`` access would
        keep raising.  Validating up front keeps the mutators atomic on
        failure: a raising assert leaves the session exactly as it was
        (the stream engine's coalesced-write fallback relies on this).
        """
        new_order: set[str] = set()
        new_object: set[str] = set()
        for atom in proper_atoms:
            for t in atom.args:
                (new_order if t.is_order else new_object).add(t.name)
        for atom in order_atoms:
            new_order.add(atom.left.name)
            new_order.add(atom.right.name)
        if not new_order and not new_object:
            return
        clash = new_order & new_object
        if new_order:
            clash |= new_order & self._known_object_names()
        if new_object:
            clash |= new_object & self._known_order_names()
        if clash:
            raise SortError(
                "constant name(s) used at both sorts: "
                + ", ".join(sorted(clash))
            )

    def context(self) -> ExecutionContext:
        """The session's shared database-side execution state."""
        if self._ctx is None:
            self._ctx = ExecutionContext(self.db)
        return self._ctx

    # -- deltas ------------------------------------------------------------

    def snapshot_delta(self, since: "Session") -> SnapshotDelta | None:
        """What changed since ``since`` (a session holding an older state
        of this one): added/removed atoms plus which generation counters
        bumped, or ``None`` when nothing changed.

        ``since`` advances to exactly this session's state with
        :meth:`apply_snapshot_delta`, keeping every cache the bumped
        generations do not invalidate warm.
        """
        old = since._gens()
        new = self._gens()
        if old == new:
            return None
        return SnapshotDelta(
            added_proper=tuple(sorted(self._proper - since._proper)),
            removed_proper=tuple(sorted(since._proper - self._proper)),
            added_order=tuple(sorted(self._order - since._order)),
            removed_order=tuple(sorted(since._order - self._order)),
            gens=new,
            graph=old[0] != new[0],
            label=old[1] != new[1],
            object=old[2] != new[2],
        )

    def apply_snapshot_delta(self, delta: SnapshotDelta) -> "Session":
        """Advance this session, holding an older state, by ``delta``.

        Mirrors the granular invalidation a live replay of the
        underlying mutations would have done, in one round: object-only
        deltas keep the order graph, its closures, the labelled dag and
        every order-part memo warm; label deltas keep graph closures and
        structural region caches; graph deltas rebuild lazily.  The
        generation counters jump to the delta's target, so prepared-plan
        memos keyed on them invalidate exactly as on the live session.
        """
        self._proper.update(delta.added_proper)
        self._proper.difference_update(delta.removed_proper)
        self._order.update(delta.added_order)
        self._order.difference_update(delta.removed_order)
        self._drop_db()
        self._order_names = None
        self._object_names = None
        (self._graph_gen, self._label_gen, self._object_gen) = delta.gens
        if self._ctx is not None:
            if delta.graph:
                self._ctx.graph_changed(self.db, keep_graph=False)
            elif delta.label:
                self._ctx.labels_changed(self.db)
            elif delta.object:
                self._ctx.facts_changed(self.db)
        if self._observers:
            touched = {
                t.name
                for atoms in (delta.added_proper, delta.removed_proper)
                for a in atoms
                for t in a.args
                if t.is_object
            }
            self._notify(
                delta.graph, delta.label, delta.object, touched,
                added=delta.added_proper + delta.added_order,
                removed=delta.removed_proper + delta.removed_order,
            )
        return self

    # -- observers ---------------------------------------------------------

    def add_observer(
        self, callback: Callable[[MutationEvent], None]
    ) -> None:
        """Register ``callback`` to run after every effective mutation."""
        self._observers.append(callback)

    def remove_observer(
        self, callback: Callable[[MutationEvent], None]
    ) -> None:
        """Deregister a mutation observer (missing ones are ignored)."""
        try:
            self._observers.remove(callback)
        except ValueError:
            pass

    def _notify(
        self,
        graph: bool = False,
        label: bool = False,
        object_: bool = False,
        objects: Iterable[str] = (),
        added: tuple = (),
        removed: tuple = (),
    ) -> None:
        if not self._observers:
            return
        event = MutationEvent(
            graph, label, object_, frozenset(objects), added, removed
        )
        for callback in list(self._observers):
            callback(event)

    # -- mutation ----------------------------------------------------------

    def assert_facts(self, *atoms: ProperAtom | OrderAtom) -> "Session":
        """Add ground facts.  Order atoms route to :meth:`assert_order`.

        Validation (groundness, sort clashes) covers the *whole* call
        before anything mutates, so a raising assert leaves the session
        untouched.
        """
        proper = [a for a in atoms if isinstance(a, ProperAtom)]
        order = [a for a in atoms if isinstance(a, OrderAtom)]
        added = [a for a in proper if a not in self._proper]
        for atom in added:
            if not atom.is_ground:
                raise SortError(f"database proper atom must be ground: {atom}")
        order_added = [a for a in order if a not in self._order]
        for atom in order_added:
            if not atom.is_ground:
                raise SortError(f"database order atom must be ground: {atom}")
        self._check_sort_clash(added, order_added)
        if order:
            self.assert_order(*order)
        if not added:
            return self
        # Snapshot the known order constants BEFORE mutating, so names
        # that only these new atoms mention count as fresh vertices.
        known = self._known_order_names()
        self._proper.update(added)
        self._drop_db()
        order_args = [
            t for a in added for t in a.args if t.is_order
        ]
        # Zero-arity (propositional) facts ride the object generation:
        # the mildest invalidation that still resets the splittability
        # flag and the result memos — without it, nothing would bump at
        # all and live contexts, observers and snapshot deltas would
        # silently miss the mutation.
        has_object_args = any(
            t.is_object for a in added for t in a.args
        ) or any(not a.args for a in added)
        fresh: set[str] = set()
        if order_args:
            fresh = {t.name for t in order_args} - known
            known.update(t.name for t in order_args)
            self._label_gen += 1
            if fresh:
                self._graph_gen += 1
                if self._ctx is not None:
                    if self._ctx.graph_built:
                        for v in sorted(fresh):
                            self._ctx.graph.add_vertex(v)
                    self._ctx.graph_changed(self.db)
            elif self._ctx is not None:
                self._ctx.labels_changed(self.db)
        if has_object_args:
            self._object_gen += 1
            if self._object_names is not None:
                self._object_names.update(
                    t.name for a in added for t in a.args if t.is_object
                )
            if self._ctx is not None and not order_args:
                self._ctx.facts_changed(self.db)
        self._notify(
            graph=bool(fresh),
            label=bool(order_args),
            object_=has_object_args,
            objects=(
                t.name for a in added for t in a.args if t.is_object
            ),
            added=tuple(added),
        )
        return self

    def retract_facts(self, *atoms: ProperAtom | OrderAtom) -> "Session":
        """Remove previously asserted facts (missing ones ignored).

        Order atoms route to :meth:`retract_order`, mirroring
        :meth:`assert_facts`.
        """
        order = [a for a in atoms if isinstance(a, OrderAtom)]
        if order:
            self.retract_order(*order)
        removed = [
            a for a in atoms
            if isinstance(a, ProperAtom) and a in self._proper
        ]
        if not removed:
            return self
        self._proper.difference_update(removed)
        self._drop_db()
        had_order = any(t.is_order for a in removed for t in a.args)
        # zero-arity facts ride the object generation (see assert_facts)
        had_object = any(
            t.is_object for a in removed for t in a.args
        ) or any(not a.args for a in removed)
        if had_order:
            # An order constant may have vanished: rebuild the graph lazily.
            self._order_names = None
            self._graph_gen += 1
            self._label_gen += 1
            if self._ctx is not None:
                self._ctx.graph_changed(self.db, keep_graph=False)
        if had_object:
            self._object_gen += 1
            self._object_names = None
            if self._ctx is not None:
                self._ctx.facts_changed(self.db)
        self._notify(
            graph=had_order,
            label=had_order,
            object_=had_object,
            objects=(
                t.name for a in removed for t in a.args if t.is_object
            ),
            removed=tuple(removed),
        )
        return self

    def assert_order(self, *atoms: OrderAtom) -> "Session":
        """Add ground order atoms, updating the cached graph in place.

        Like :meth:`assert_facts`, validation precedes every mutation:
        a raising assert leaves the session untouched.
        """
        added = [a for a in atoms if a not in self._order]
        if not added:
            return self
        for atom in added:
            if not atom.is_ground:
                raise SortError(f"database order atom must be ground: {atom}")
        self._check_sort_clash((), added)
        self._order.update(added)
        self._drop_db()
        self._graph_gen += 1
        if self._order_names is not None:
            for a in added:
                self._order_names.add(a.left.name)
                self._order_names.add(a.right.name)
        if self._ctx is not None:
            if self._ctx.graph_built:
                # add_edge keeps the strictly stronger label on duplicate
                # pairs, exactly like a from-scratch rebuild would.
                for a in added:
                    self._ctx.graph.add_edge(a.left.name, a.right.name, a.rel)
            self._ctx.graph_changed(self.db)
        self._notify(graph=True, added=tuple(added))
        return self

    def retract_order(self, *atoms: OrderAtom) -> "Session":
        """Remove order atoms (graph rebuilt lazily: another atom may
        still assert a weaker edge on the same pair)."""
        removed = [a for a in atoms if a in self._order]
        if not removed:
            return self
        self._order.difference_update(removed)
        self._drop_db()
        self._order_names = None
        self._graph_gen += 1
        if self._ctx is not None:
            self._ctx.graph_changed(self.db, keep_graph=False)
        self._notify(graph=True, removed=tuple(removed))
        return self

    # -- querying ----------------------------------------------------------

    def prepare(
        self,
        query: Query,
        semantics: Semantics = Semantics.FIN,
        method: str = "auto",
        free_vars: tuple[Term, ...] | None = None,
    ) -> PreparedQuery:
        """Compile ``query`` once; the plan is memoized per session.

        ``free_vars=None`` prepares a closed query; passing a tuple
        (even an empty one) prepares an open certain-answers plan.
        """
        if free_vars is not None:
            free_vars = tuple(free_vars)
        key = (query, semantics, method, free_vars)
        # True LRU: a hit re-inserts the plan at the most-recent end, so
        # eviction always removes the least-recently-*used* plan.
        plan = self._plans.pop(key, None)
        if plan is None:
            plan = PreparedQuery(self, query, semantics, method, free_vars)
            while self._plans and len(self._plans) >= self._plan_limit:
                self._plans.pop(next(iter(self._plans)))
        self._plans[key] = plan
        return plan

    def explain(
        self,
        query: Query,
        semantics: Semantics = Semantics.FIN,
        method: str = "auto",
    ) -> Result:
        """Prepare-and-execute in one call (plans are still reused)."""
        return self.prepare(query, semantics, method).execute()

    def entails(
        self,
        query: Query,
        semantics: Semantics = Semantics.FIN,
        method: str = "auto",
    ) -> bool:
        """Does the current database entail ``query``?"""
        return self.explain(query, semantics, method).holds

    def entails_many(
        self,
        queries: Iterable[Query],
        semantics: Semantics = Semantics.FIN,
        method: str = "auto",
    ) -> list[bool]:
        """Batch entailment: all plans share one warm closure/cache state."""
        return [
            self.explain(q, semantics, method).holds for q in queries
        ]

    def certain_answers(
        self,
        query: Query,
        free_vars: tuple[Term, ...],
        semantics: Semantics = Semantics.FIN,
        method: str = "auto",
    ) -> set[tuple[str, ...]]:
        """Certain answers of an open query as one prepared plan."""
        result = self.prepare(
            query, semantics, method, free_vars=tuple(free_vars)
        ).execute()
        assert result.answers is not None
        return set(result.answers)

    def __str__(self) -> str:
        return f"Session({self.size()} atoms, gens={self._gens()})"


__all__ = ["MutationEvent", "Session", "SnapshotDelta"]
