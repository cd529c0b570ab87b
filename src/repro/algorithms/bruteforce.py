"""Brute-force entailment: the reference oracle for every fast algorithm.

``D |= phi`` iff every minimal model of ``D`` satisfies ``phi``
(Corollary 2.9).  The seed realized this literally — enumerate every
block sequence, materialize it as a :class:`~repro.core.models.Structure`
and restart a model check from scratch — which is exponential twice over.
This module now runs on the region-DAG dynamic programming of
:class:`repro.core.modelengine.RegionDP`: valid blocks are generated once
per region on the bitset :class:`~repro.core.modelengine.ModelEngine`,
satisfaction is carried prefix-incrementally by the machines in
:mod:`repro.algorithms.modelcheck`, and memoizing on ``(region, state)``
collapses the walk of every block sequence into one pass over the
distinct region states — with first-countermodel short-circuit and lazy
:class:`~repro.core.models.Structure` materialization only when a witness
must be rendered.  Results (including *which* countermodel is returned:
the DFS-first falsifying sequence) are identical to the seed algorithm,
which remains available under
:func:`repro.substrate.reference.naive_mode` and anchors the
differential suite in ``tests/test_models_engine.py``.

Open queries (certain answers) do not substitute candidates into
closed queries: :func:`entailment_sweep` takes them as
:class:`OpenQuery` values, grounds each once with its answer variables
free, and decides every candidate tuple as a start state of one shared
:class:`~repro.core.modelengine.RegionDP`.  Under ``naive_mode`` they
are substituted tuple by tuple, as the seed did.

Every PTIME algorithm in :mod:`repro.algorithms` is validated against
this oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.algorithms.modelcheck import (
    GroundingMachine,
    MonadicFrontierMachine,
    structure_satisfies,
)
from repro.core.database import IndefiniteDatabase, LabeledDag
from repro.core.modelengine import RegionDP, engine_for
from repro.core.models import (
    DeferredStructure,
    LazyModel,
    Structure,
    iter_minimal_models,
    iter_minimal_words,
)
from repro.core.ordergraph import OrderGraph
from repro.core.query import DisjunctiveQuery, Query, as_dnf
from repro.core.regions import RegionCacheHub
from repro.core.sorts import Term, obj
from repro.flexiwords.flexiword import Word
from repro.substrate import reference


@dataclass(frozen=True)
class EntailmentWitness:
    """Outcome of an entailment check.

    Attributes:
        holds: True when the database entails the query.
        countermodel: a minimal model falsifying the query when one exists
            (a :class:`Structure`, or a :class:`Word` from the monadic fast
            path); None when the query is entailed.  The n-ary procedures
            record the model's block sequence and build the
            :class:`Structure` on first access (see :class:`LazyModel`).
    """

    holds: bool
    countermodel: Structure | Word | None = LazyModel()

    def __bool__(self) -> bool:
        return self.holds


def _nary_dp(
    db: IndefiniteDatabase,
    dnf: DisjunctiveQuery,
    caches: RegionCacheHub | None,
    graph: OrderGraph | None,
):
    """``(norm, RegionDP)`` for an n-ary query, or ``(norm, None)`` when
    it is entailed without a walk: the database has no minimal models, or
    the grounding join already found a grounding with no constraint left."""
    if graph is None:
        graph = db.graph()
    norm = graph.normalize()
    if not norm.consistent:
        return norm, None
    engine = engine_for(norm.graph, caches)
    machine = GroundingMachine(engine, db, norm.canon, dnf)
    if machine.entailed:
        return norm, None
    return norm, RegionDP(engine, machine)


def _countermodel(db, dp, norm, blocks) -> DeferredStructure:
    names = dp.engine.names
    return DeferredStructure(db, tuple(names(b) for b in blocks), norm.canon)


def entails_bruteforce(
    db: IndefiniteDatabase,
    query: Query,
    caches: RegionCacheHub | None = None,
    graph: OrderGraph | None = None,
) -> EntailmentWitness:
    """Decide ``D |= phi`` over the minimal models.

    Query constants must be interpreted by the database (use
    ``eliminate_constants`` for foreign constants — the top-level
    :func:`repro.core.entailment.entails` does this automatically).
    An inconsistent database entails everything vacuously.  ``caches``
    shares the region/block tables with other queries against the same
    graph; ``graph`` reuses a prebuilt order graph of ``db``.
    """
    dnf = as_dnf(query).normalized()
    if reference.NAIVE:
        for model in iter_minimal_models(db):
            if not structure_satisfies(model, dnf):
                return EntailmentWitness(False, model)
        return EntailmentWitness(True)
    norm, dp = _nary_dp(db, dnf, caches, graph)
    if dp is None or dp.entailed():
        return EntailmentWitness(True)
    blocks = dp.countermodel_blocks()
    return EntailmentWitness(False, _countermodel(db, dp, norm, blocks))


def entails_bruteforce_monadic(
    dag: LabeledDag, query: Query, caches: "RegionCacheHub | None" = None
) -> EntailmentWitness:
    """Monadic brute force over word models (Corollary 5.1 checking).

    Exponentially many models, but the frontier DP shares the check
    across every prefix reaching the same region with the same
    earliest-feasible state — this is the co-NP upper bound of
    Proposition 5.2 run deterministically.
    """
    dnf = as_dnf(query).normalized()
    if reference.NAIVE:
        qdags = [d.monadic_dag() for d in dnf.disjuncts]
        for word in iter_minimal_words(dag, caches):
            if not any(_word_check(word, q) for q in qdags):
                return EntailmentWitness(False, word)
        return EntailmentWitness(True)
    # dag.normalized() raises InconsistentError on an inconsistent dag
    # (matching the naive path through iter_minimal_words), so the graph
    # here always admits models
    norm_dag = dag.normalized()
    graph = norm_dag.graph
    engine = engine_for(graph, caches)
    machine = MonadicFrontierMachine(
        engine, norm_dag.labels, [d.monadic_dag() for d in dnf.disjuncts]
    )
    dp = RegionDP(engine, machine)
    if dp.entailed():
        return EntailmentWitness(True)
    blocks = dp.countermodel_blocks()
    word = tuple(
        frozenset().union(*(norm_dag.labels[v] for v in engine.names(b)))
        for b in blocks
    )
    return EntailmentWitness(False, word)


def _word_check(word: Word, qdag: LabeledDag) -> bool:
    from repro.algorithms.modelcheck import word_satisfies_dag

    return word_satisfies_dag(word, qdag)


def count_countermodels(
    db: IndefiniteDatabase,
    query: Query,
    caches: RegionCacheHub | None = None,
    graph: OrderGraph | None = None,
) -> int:
    """How many minimal models falsify the query (diagnostics/tests).

    One arithmetic pass over the distinct region states; dead regions
    contribute their model count without being walked.
    """
    dnf = as_dnf(query).normalized()
    if reference.NAIVE:
        return sum(
            1
            for model in iter_minimal_models(db)
            if not structure_satisfies(model, dnf)
        )
    _norm, dp = _nary_dp(db, dnf, caches, graph)
    if dp is None:
        return 0
    return dp.count_failures()


def iter_countermodels_nary(
    db: IndefiniteDatabase,
    query: Query,
    caches: RegionCacheHub | None = None,
    graph: OrderGraph | None = None,
) -> Iterator[Structure]:
    """Generate every minimal model falsifying the query (n-ary case).

    The general-predicate counterpart of
    :func:`repro.algorithms.disjunctive.iter_countermodels`: no polynomial
    delay guarantee, but it works for any database and positive
    existential query, including '!=' atoms on both sides.  Satisfied
    subtrees of the region DAG are pruned wholesale; structures are
    materialized only for the yielded countermodels.
    """
    dnf = as_dnf(query).normalized()
    if reference.NAIVE:
        for model in iter_minimal_models(db):
            if not structure_satisfies(model, dnf):
                yield model
        return
    norm, dp = _nary_dp(db, dnf, caches, graph)
    if dp is None:
        return
    for blocks in dp.iter_failing_sequences():
        yield _countermodel(db, dp, norm, blocks).build()


@dataclass(frozen=True)
class OpenQuery:
    """An open query and the candidate answer tuples a sweep decides.

    ``candidates`` are tuples of object-constant names, one per variable
    of ``free_vars``; a candidate is a certain answer iff every minimal
    model satisfies ``dnf`` with ``free_vars`` bound to it.
    """

    dnf: DisjunctiveQuery
    free_vars: tuple[Term, ...]
    candidates: tuple[tuple[str, ...], ...]

    def substituted(self, candidate: tuple[str, ...]) -> DisjunctiveQuery:
        """The closed query of one candidate tuple."""
        mapping = {v: obj(c) for v, c in zip(self.free_vars, candidate)}
        return self.dnf.substitute(mapping)


def entailment_sweep(
    db: IndefiniteDatabase,
    queries: Iterable[DisjunctiveQuery],
    caches: RegionCacheHub | None = None,
    graph: OrderGraph | None = None,
    witness_queries: Iterable[DisjunctiveQuery] = (),
    open_queries: Iterable[OpenQuery] = (),
) -> dict:
    """Decide many queries over ONE shared set of minimal-model tables.

    The model-path core of :meth:`repro.api.plan.PreparedQuery.execute`
    for open plans and of the batched model sweep
    (:func:`repro.engine.batch.execute_many`): every query is decided
    against the same engine (one valid-block table per region for the
    whole pool).  Maps each closed query of ``queries`` to its
    :class:`EntailmentWitness`, with a countermodel reconstructed only
    for the queries in ``witness_queries``, and each :class:`OpenQuery`
    to the frozenset of its candidates that are certain answers.  An
    open query is decided on one :class:`GroundingMachine` over its
    unsubstituted DNF: each candidate is a start state of one shared
    :class:`~repro.core.modelengine.RegionDP`.  Queries are *not*
    normalized first — semantically irrelevant for satisfaction, and it
    keeps parity with the seed sweep, which checked the raw substituted
    queries.  Under :func:`~repro.substrate.reference.naive_mode` this
    is the literal seed sweep: every candidate is substituted into its
    own closed query, and one enumeration of the minimal models checks
    every still-undecided query per model, stopping once all have failed.
    """
    queries = list(dict.fromkeys(queries))
    open_queries = list(dict.fromkeys(open_queries))
    if reference.NAIVE:
        substituted = {
            oq: {c: oq.substituted(c) for c in oq.candidates}
            for oq in open_queries
        }
        pool = list(dict.fromkeys(
            queries + [q for subs in substituted.values()
                       for q in subs.values()]
        ))
        counters: dict[DisjunctiveQuery, Structure] = {}
        for model in iter_minimal_models(db, graph=graph):
            undecided = [q for q in pool if q not in counters]
            if not undecided:
                break
            for q in undecided:
                if not structure_satisfies(model, q):
                    counters[q] = model
        out: dict = {
            q: EntailmentWitness(q not in counters, counters.get(q))
            for q in queries
        }
        for oq, subs in substituted.items():
            out[oq] = frozenset(
                c for c, q in subs.items() if q not in counters
            )
        return out
    if graph is None:
        graph = db.graph()
    norm = graph.normalize()
    if not norm.consistent:
        out = {q: EntailmentWitness(True) for q in queries}
        for oq in open_queries:
            out[oq] = frozenset(oq.candidates)
        return out
    engine = engine_for(norm.graph, caches)
    want = set(witness_queries)
    out = {}
    for q in queries:
        machine = GroundingMachine(engine, db, norm.canon, as_dnf(q))
        if machine.entailed:
            out[q] = EntailmentWitness(True)
            continue
        dp = RegionDP(engine, machine)
        if dp.entailed():
            out[q] = EntailmentWitness(True)
        elif q in want:
            blocks = dp.countermodel_blocks()
            out[q] = EntailmentWitness(
                False, _countermodel(db, dp, norm, blocks)
            )
        else:
            out[q] = EntailmentWitness(False)
    full = engine.full
    for oq in open_queries:
        if not oq.candidates:
            out[oq] = frozenset()
            continue
        machine = GroundingMachine(
            engine, db, norm.canon, oq.dnf, oq.free_vars
        )
        dp = RegionDP(engine, machine)
        out[oq] = frozenset(
            c for c in oq.candidates if dp.entailed(machine.start(c, full))
        )
    return out
