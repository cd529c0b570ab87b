"""Incrementally maintained certain-answer views.

A :class:`MaterializedView` registers an open query on a live
:class:`~repro.api.session.Session` and keeps its certain-answer set up
to date across ``assert_facts`` / ``retract_facts`` / ``assert_order`` /
``retract_order``, re-evaluating only the delta each mutation's bumped
generation permits:

* **object generation only** (facts over object constants) — when the
  query's object variables are exactly its free variables, a candidate
  tuple's verdict can only change if the mutated facts mention one of
  the tuple's own constants: object-only facts carry no order arguments,
  so they cannot perturb the order structure of any minimal model, and
  after substitution every object position of the query is a constant of
  the tuple.  The view therefore re-evaluates just the tuples (over the
  possibly-grown domain) that mention a touched constant — via the
  :meth:`~repro.api.plan.PreparedQuery.answers_for` delta hook — and
  carries every other verdict over unchanged.
* **label generation** (facts over existing order constants) — the
  order-part memos are stale but the graph closures and structural
  region caches are warm: one plan re-execution against the warm
  context refreshes the memos.
* **graph generation** (order atoms, order constants appearing or
  vanishing) — everything graph-derived is stale: full re-evaluation.

Queries with existential object variables or object constants fall back
to full re-evaluation on every relevant mutation (the delta argument
above does not apply to them); they are still maintained correctly, just
without the sub-linear object path.  The differential suite
(``tests/test_engine.py``) pins view state against a from-scratch
``certain_answers`` across randomized mutation streams.
"""

from __future__ import annotations

from itertools import product as iter_product

from repro.api.session import MutationEvent, Session
from repro.core.query import Query
from repro.core.semantics import Semantics
from repro.core.sorts import Term


class MaterializedView:
    """A registered open query whose answer set tracks the session.

    The view subscribes to the session's mutation events at
    construction; :meth:`answers` is always exact.  Call :meth:`close`
    to unsubscribe — a closed view no longer sees deltas, so any later
    :meth:`answers` call after a mutation falls back to a full
    re-evaluation.
    """

    def __init__(
        self,
        session: Session,
        query: Query,
        free_vars: tuple[Term, ...],
        semantics: Semantics = Semantics.FIN,
        method: str = "auto",
    ) -> None:
        self._session = session
        self._plan = session.prepare(
            query, semantics, method, free_vars=tuple(free_vars)
        )
        self._delta_capable = self._compute_delta_capable()
        self._touched: set[str] = set()
        self._stale = False  # graph/label bump or non-delta mutation
        self._closed = False
        #: maintenance statistics (full vs delta re-evaluations)
        self.full_refreshes = 0
        self.delta_refreshes = 0
        session.add_observer(self._on_mutation)
        self._answers = self._full_refresh()
        self._synced_gens = session._gens()

    # -- capability --------------------------------------------------------

    def _compute_delta_capable(self) -> bool:
        """Is the touched-constants object delta sound for this plan?

        Requires a constant-free static plan whose object variables are
        all free: then object-only facts can only flip tuples that
        mention a mutated constant (see the module docstring).
        """
        plan = self._plan
        if plan._has_constants or plan._static is None:
            return False
        free = set(plan.free_vars)
        return all(
            d.object_variables() <= free
            for d in plan._static.dnf.disjuncts
        )

    # -- session callback --------------------------------------------------

    def _on_mutation(self, event: MutationEvent) -> None:
        if event.graph or event.label or not self._delta_capable:
            self._stale = True
            self._touched.clear()
        elif event.object:
            self._touched |= event.objects

    # -- refresh -----------------------------------------------------------

    def _full_refresh(self) -> frozenset[tuple[str, ...]]:
        self.full_refreshes += 1
        result = self._plan.execute()
        assert result.answers is not None
        return frozenset(result.answers)

    def _delta_refresh(self) -> frozenset[tuple[str, ...]]:
        """Re-evaluate only the tuples that mention a touched constant."""
        self.delta_refreshes += 1
        touched = self._touched
        domain = self._session.context().object_domain
        k = len(self._plan.free_vars)
        # Build the touched tuples directly — fix one position to a
        # touched constant, range the rest over the domain — instead of
        # filtering the full domain^k product: O(k·|touched|·|domain|^
        # (k-1)) keeps a single-constant delta sub-linear in the
        # candidate space.
        live_touched = sorted(touched.intersection(domain))
        delta: set[tuple[str, ...]] = set()
        for i in range(k):
            positions = [domain] * k
            positions[i] = live_touched
            delta.update(iter_product(*positions))
        delta = sorted(delta)
        # Constants of untouched tuples still exist (vanishing requires
        # retracting a fact that mentions them, which marks them touched),
        # so their carried verdicts remain valid combos of the new domain.
        carried = {
            combo
            for combo in self._answers
            if not any(c in touched for c in combo)
        }
        return frozenset(carried | set(self._plan.answers_for(delta)))

    def refresh(self) -> frozenset[tuple[str, ...]]:
        """Bring the view up to date; returns the current answers."""
        gens = self._session._gens()
        if gens != self._synced_gens:
            if self._closed or self._stale or not (
                self._touched or self._delta_capable
            ):
                # A closed view missed events; an open one saw a
                # graph/label bump (or is not delta-capable): recompute.
                self._answers = self._full_refresh()
            elif self._touched:
                self._answers = self._delta_refresh()
            else:
                # object-generation churn whose net touched set is empty
                # cannot have changed any verdict — but only an observed
                # mutation can tell us that; unseen churn recomputes.
                self._answers = self._full_refresh()
            self._synced_gens = gens
            self._stale = False
            self._touched.clear()
        return self._answers

    # -- inspection --------------------------------------------------------

    def answers(self) -> frozenset[tuple[str, ...]]:
        """The certain answers at the session's current state."""
        return self.refresh()

    @property
    def delta_capable(self) -> bool:
        """True when object-fact churn refreshes sub-linearly."""
        return self._delta_capable

    def close(self) -> None:
        """Stop observing the session (later refreshes recompute fully)."""
        if not self._closed:
            self._session.remove_observer(self._on_mutation)
            self._closed = True

    def __str__(self) -> str:
        state = "closed" if self._closed else "live"
        return (
            f"MaterializedView({len(self._answers)} answers, {state}, "
            f"full={self.full_refreshes}, delta={self.delta_refreshes})"
        )


__all__ = ["MaterializedView"]
