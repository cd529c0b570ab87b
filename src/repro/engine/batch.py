"""Batched query execution: one sweep per plan group, not per query.

A service fronting an indefinite database does not see one query at a
time — it sees a *stream* of requests, many of them textually identical
(dashboards re-asking the same question, clients polling the same view)
and many sharing the expensive part of their evaluation.
:func:`execute_many` exploits both:

* **plan grouping** — requests are grouped by their compiled-plan key
  (query, semantics, method, free variables); each group is executed
  once against the session's warm caches and the single
  :class:`~repro.api.result.Result` is fanned back out to every request
  in the group;
* **a combined minimal-model sweep** — every query that takes the
  model-enumeration path needs a pass over the minimal models of the
  database: open plans one grounding machine deciding all their
  candidate tuples, *closed* bruteforce-path plans one per query ("does
  every model satisfy?").  In a batch, all such plan groups pool into
  one :func:`~repro.algorithms.bruteforce.entailment_sweep`: the
  region/valid-block tables are built *once for the whole batch*, and
  closed queries ride the same sweep with their countermodels
  reconstructed from it.

:func:`execute_stream` extends this to mixed read/write traffic: maximal
runs of reads between two writes form one batch, and writes are applied
through the session's granular-invalidation mutators in stream order, so
the results are exactly — byte for byte — those of a sequential
one-at-a-time loop.  Consecutive writes of the same polarity (asserts,
or retracts) are coalesced into a single mutator call — one invalidation
round — before the next read batch; if a coalesced call raises, the run
is replayed one mutation at a time so the exception surfaces with
exactly the prefix state a sequential loop would have left behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Iterable

from repro.algorithms.bruteforce import entailment_sweep
from repro.api.plan import PreparedQuery
from repro.api.result import Result
from repro.api.session import Session
from repro.core.atoms import OrderAtom, ProperAtom
from repro.core.models import LazyModel
from repro.core.query import Query
from repro.core.semantics import Semantics
from repro.core.sorts import Term


@dataclass(frozen=True)
class QueryRequest:
    """One read in a request stream (closed, or open via ``free_vars``)."""

    query: Query
    semantics: Semantics = Semantics.FIN
    method: str = "auto"
    free_vars: tuple[Term, ...] | None = None

    @property
    def plan_key(self) -> tuple:
        """Requests with equal keys share one compiled plan and result."""
        return (self.query, self.semantics, self.method, self.free_vars)

    def prepare(self, session: Session) -> PreparedQuery:
        """The session's (memoized) plan for this request."""
        return session.prepare(
            self.query, self.semantics, self.method, free_vars=self.free_vars
        )


#: Mutation kinds understood by :class:`Mutation` — exactly the Session
#: mutator names.
MUTATION_KINDS = (
    "assert_facts",
    "retract_facts",
    "assert_order",
    "retract_order",
)


@dataclass(frozen=True)
class Mutation:
    """One write in a request stream."""

    kind: str
    atoms: tuple[ProperAtom | OrderAtom, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise ValueError(f"unknown mutation kind {self.kind!r}")

    def apply(self, session: Session) -> None:
        """Apply this write through the session's invalidation machinery."""
        getattr(session, self.kind)(*self.atoms)


def _poolable(plan: PreparedQuery):
    """The shared pooling guard: ``(static, ctx)`` when the plan is
    constant-free, unpadded (so it binds to the session's shared base
    context), consistent and has a live non-trivial DNF — the
    preconditions every early return of ``PreparedQuery._run_closed`` /
    ``_run_answers`` handles before the model path; ``None`` otherwise.
    """
    if plan._has_constants:
        return None
    if not plan.session.context().consistent:
        return None
    static, ctx = plan._bind()
    if static.pad_dnf is not None:
        return None
    if not static.dnf.disjuncts or static.any_empty:
        return None
    return static, ctx


def _sweepable(plan: PreparedQuery) -> bool:
    """Would this open plan take the minimal-model path on this database?

    Mirrors the dispatch of ``PreparedQuery._run_answers``: a poolable
    open plan that does *not* qualify for the Section 4 split (the split
    path is memoized and cheap; the model path is the one worth pooling
    across the batch).
    """
    if plan.free_vars is None:
        return False
    bound = _poolable(plan)
    if bound is None:
        return False
    static, ctx = bound
    if plan._splits_apply(static, ctx):
        return False
    return plan.method in ("auto", "bruteforce")


def _closed_sweepable(plan: PreparedQuery) -> bool:
    """Would this *closed* plan take the bruteforce model path?

    Mirrors the dispatch of ``PreparedQuery._run_closed``: a poolable
    closed plan that either asks for ``bruteforce`` explicitly or
    auto-dispatches to it (n-ary atoms, a '!=' database, or a
    non-splittable fact set — the
    :meth:`~repro.api.plan.PreparedQuery._closed_bruteforce_path`
    predicate ``_run_closed`` itself uses).  Each such query needs only
    "does every minimal model satisfy?" — so a batch of them shares one
    model sweep with the open plans.
    """
    if plan.free_vars is not None:
        return False
    bound = _poolable(plan)
    if bound is None:
        return False
    static, ctx = bound
    return plan._closed_bruteforce_path(static, ctx)


def execute_many(
    session: Session,
    requests: Iterable[QueryRequest],
    plans: list[PreparedQuery] | None = None,
) -> list[Result]:
    """Execute a batch of reads, sharing work across the whole batch.

    Returns one :class:`~repro.api.result.Result` per request, in
    request order; requests with equal plan keys receive the *same*
    result object.  Results are byte-for-byte identical — verdict,
    method tag, countermodel and answers — to executing each request's
    plan individually: plans decided by the combined sweep come back
    with the method tag and witness their own execution would have
    produced, so batched and sequential execution can never be told
    apart from the results.

    ``plans``, when given, holds each request's plan from
    ``request.prepare(session)`` at the current generation (a caller
    that validated its reads first has them already); the batch then
    prepares nothing again.
    """
    requests = list(requests)
    groups: dict[tuple, list[int]] = {}
    for i, request in enumerate(requests):
        groups.setdefault(request.plan_key, []).append(i)

    results: list[Result | None] = [None] * len(requests)
    open_pool: list[tuple[list[int], PreparedQuery]] = []
    closed_pool: list[tuple[list[int], PreparedQuery]] = []
    for key, indices in groups.items():
        if plans is None:
            plan = requests[indices[0]].prepare(session)
        else:
            plan = plans[indices[0]]
        if _sweepable(plan):
            open_pool.append((indices, plan))
        elif _closed_sweepable(plan):
            closed_pool.append((indices, plan))
        else:
            result = plan.execute()
            for i in indices:
                results[i] = result

    if len(open_pool) + len(closed_pool) <= 1:
        # a lone model-path plan gains nothing from pooling (and keeps
        # its per-generation result memo and native method tag)
        for indices, plan in open_pool + closed_pool:
            result = plan.execute()
            for i in indices:
                results[i] = result
    else:
        # Pool every model-path plan into ONE sweep over shared minimal-
        # model tables.  Open plans contribute their DNF and candidate
        # tuples (one grounding machine each, deciding every tuple);
        # closed plans contribute their DNF directly (identical DNFs from
        # different plans merge into one satisfiability check).  Closed
        # verdicts come back with the sweep's countermodel witness — the
        # same DFS-first witness a solo `entails_bruteforce` reconstructs
        # — and every result carries the method tag its plan's own
        # execution would have.
        base = session.context()
        per_plan = []
        for indices, plan in open_pool:
            static, ctx = plan._bind()
            combos = iter_product(
                ctx.object_domain, repeat=len(plan.free_vars)
            )
            per_plan.append((indices, plan.open_query(static, combos)))
        closed_queries: dict = {}
        for indices, plan in closed_pool:
            static, _ctx = plan._bind()
            closed_queries.setdefault(static.dnf, []).append(indices)
        outcome = entailment_sweep(
            base.db,
            closed_queries,
            caches=base.hub,
            graph=base.graph,
            witness_queries=closed_queries,
            open_queries=[open_query for _, open_query in per_plan],
        )
        for indices, open_query in per_plan:
            answers = outcome[open_query]
            result = Result(bool(answers), "prepared-models", answers=answers)
            for i in indices:
                results[i] = result
        for dnf, index_groups in closed_queries.items():
            witness = outcome[dnf]
            result = Result(
                witness.holds, "bruteforce", LazyModel.stored(witness)
            )
            for indices in index_groups:
                for i in indices:
                    results[i] = result

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def _epochs(ops: list):
    """Split a stream into ``(write_run, read_indices)`` epochs, in order.

    Every op lands in exactly one epoch: a maximal run of consecutive
    writes followed by the maximal run of consecutive reads after it
    (either side may be empty at the stream's edges).
    """
    idx, n = 0, len(ops)
    while idx < n:
        writes: list[Mutation] = []
        while idx < n and isinstance(ops[idx], Mutation):
            writes.append(ops[idx])
            idx += 1
        reads: list[int] = []
        while idx < n and isinstance(ops[idx], QueryRequest):
            reads.append(idx)
            idx += 1
        yield writes, reads


def _apply_writes(session: Session, mutations: list[Mutation]) -> None:
    """Apply a run of consecutive writes in stream order.

    Maximal same-polarity sub-runs (asserts, or retracts) coalesce into
    a single mutator call — one invalidation round.  The session
    mutators validate the whole call before mutating anything, so when a
    coalesced call raises the session is untouched: the run falls back
    to a one-mutation-at-a-time replay, which applies the earlier writes
    and re-raises at exactly the op — with exactly the prefix state — a
    sequential loop would have raised at.
    """
    runs: list[tuple[bool, list[Mutation]]] = []
    for mutation in mutations:
        asserting = mutation.kind.startswith("assert")
        if runs and runs[-1][0] is asserting:
            runs[-1][1].append(mutation)
        else:
            runs.append((asserting, [mutation]))
    for asserting, run in runs:
        if len(run) == 1:
            run[0].apply(session)
            continue
        atoms = [a for m in run for a in m.atoms]
        try:
            if asserting:
                session.assert_facts(*atoms)
            else:
                session.retract_facts(*atoms)
        except Exception:
            # Atomic mutators left no trace; the sequential replay
            # either raises at the true offending mutation (with the
            # prefix applied) or proves the failure was a coalescing
            # artifact and completes the run.
            for mutation in run:
                mutation.apply(session)


def execute_stream(
    session: Session,
    ops: Iterable[QueryRequest | Mutation],
) -> list[Result | None]:
    """Run a mixed read/write stream with reads batched between writes.

    ``ops`` interleaves :class:`QueryRequest` and :class:`Mutation`; the
    returned list aligns with ``ops`` — a :class:`Result` for each read,
    ``None`` for each write.  Writes are applied in stream order, so
    every read observes exactly the database a sequential loop would
    have shown it; maximal runs of consecutive reads share one
    :func:`execute_many` batch, and maximal runs of consecutive writes
    of one polarity coalesce into a single mutator call (asserts route
    order atoms ahead of proper facts exactly like a one-at-a-time
    replay, assert/retract boundaries are preserved, and a raising
    coalesced call falls back to the sequential replay — see
    :func:`_apply_writes` — so the final state, and the state at any
    raised exception, are those of the sequential loop, minus the
    redundant intermediate invalidations).
    """
    ops = list(ops)
    for op in ops:
        if not isinstance(op, (QueryRequest, Mutation)):
            raise TypeError(
                f"stream op must be QueryRequest or Mutation: {op!r}"
            )
    out: list[Result | None] = [None] * len(ops)
    for writes, read_indices in _epochs(ops):
        if writes:
            _apply_writes(session, writes)
        if read_indices:
            results = execute_many(session, [ops[i] for i in read_indices])
            for i, result in zip(read_indices, results):
                out[i] = result
    return out


__all__ = [
    "MUTATION_KINDS",
    "Mutation",
    "QueryRequest",
    "execute_many",
    "execute_stream",
]
