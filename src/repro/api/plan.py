"""The planner/executor split of the entailment pipeline.

The one-shot :func:`repro.core.entailment.explain` runs the whole paper
pipeline — constant elimination, the Section 2 semantics reduction,
normalization, '!=' expansion, the Section 4 object/order split and
method selection — on every call.  This module splits that pipeline at
the database boundary:

* **planning** (:func:`compile_static`, done once per query at
  :meth:`Session.prepare <repro.api.session.Session.prepare>` time)
  covers every query-side step.  For a constant-free query nothing here
  depends on the database, so the compiled artifacts — the final DNF,
  the per-disjunct split into a definite *object part* and an
  order-sorted dag, the Q-tightening, the Z-padding recipe — are
  computed exactly once and reused for the life of the plan;

* **execution** (:meth:`PreparedQuery.execute`) binds the plan to the
  session's current :class:`ExecutionContext` — the mutable database's
  cached order graph, labelled dag, object-fact index and shared
  :class:`~repro.core.regions.RegionCacheHub` — evaluates the
  db-dependent residue (consistency, the object-part filter, auto
  method dispatch) and runs the chosen decision procedure with the
  session's warm caches threaded through.

The executor mirrors the dispatch of ``explain`` move for move, so a
prepared execution returns the same verdict, method tag and
countermodel as the one-shot path; the differential suite in
``tests/test_api_session.py`` pins that equivalence down, including
across database mutations.

Open queries (``free_vars``) compile to a single plan executed over all
candidate substitutions: the monadic-split case memoizes the order-part
verdict per surviving-disjunct set (the object part is the only piece a
substitution can change), and the n-ary case grounds the query once
with the free variables as join slots and decides every candidate
tuple on that one grounding machine, instead of re-enumerating models
per tuple as the one-shot ``certain_answers`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count as iter_count
from itertools import product as iter_product
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.algorithms.bruteforce import (
    OpenQuery,
    entailment_sweep,
    entails_bruteforce,
    entails_bruteforce_monadic,
)
from repro.algorithms.conjunctive import (
    bounded_width_entails_dag,
    paths_entails_dag,
)
from repro.algorithms.disjunctive import theorem53
from repro.api.result import Result
from repro.core.atoms import ProperAtom
from repro.core.database import IndefiniteDatabase, LabeledDag
from repro.core.errors import SortError
from repro.core.models import LazyModel, Structure, iter_minimal_models
from repro.core.ordergraph import OrderGraph
from repro.core.query import (
    ConjunctiveQuery,
    DisjunctiveQuery,
    Query,
    as_dnf,
    eliminate_constants,
)
from repro.core.regions import RegionCacheHub
from repro.core.semantics import (
    Semantics,
    is_tight,
    pad_for_integers,
    tighten_for_rationals,
)
from repro.core.sorts import Term, obj, ordvar
from repro.inequality.neq import expand_query_neq

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.api.session import Session

#: Databases at most this wide use the Theorem 5.3 search for disjunctive
#: monadic queries; wider ones fall back to model enumeration (both are
#: exponential in the width, but the state graph is gentler in practice).
WIDTH_CUTOFF = 6

#: Disjunct-count cutoff for the Theorem 5.3 search, whose state graph is
#: exponential in the number of disjuncts (Proposition 5.4).
DISJUNCT_CUTOFF = 4

#: Every method name :meth:`PreparedQuery.execute` understands.
METHODS = (
    "auto",
    "bruteforce",
    "seq",
    "paths",
    "bounded_width",
    "theorem53",
    "basis",
)


def dag_to_query(dag: LabeledDag) -> ConjunctiveQuery:
    """The conjunctive query whose labelled dag is ``dag``."""
    atoms = []
    for v, preds in dag.labels.items():
        for p in sorted(preds):
            atoms.append(ProperAtom(p, (ordvar(v),)))
    term_of = {v: ordvar(v) for v in dag.graph.vertices}
    atoms.extend(dag.graph.to_atoms(term_of))
    return ConjunctiveQuery.from_atoms(
        atoms, {ordvar(v) for v in dag.graph.vertices}
    )


def first_minimal_model(
    db: IndefiniteDatabase, caches: RegionCacheHub | None = None,
    graph: OrderGraph | None = None,
) -> Structure | None:
    """Any minimal model (the witness for globally-failing queries)."""
    for model in iter_minimal_models(db, caches, graph):
        return model
    return None


def object_part_holds(
    object_atoms: Iterable[ProperAtom],
    object_facts: Mapping[str, set[str]],
    domain: list[str],
    pre: Mapping[Term, str] | None = None,
) -> bool:
    """Evaluate a definite object part directly against the facts.

    ``pre`` pins some object variables to constant names (the
    certain-answer substitution) before the remaining variables are
    enumerated over ``domain``.
    """
    object_atoms = list(object_atoms)
    if not object_atoms:
        return True
    pre = pre or {}
    variables = sorted(
        {
            a.args[0]
            for a in object_atoms
            if a.args[0].is_var and a.args[0] not in pre
        },
        key=lambda t: t.name,
    )

    def ok(assignment: dict[Term, str]) -> bool:
        for atom in object_atoms:
            arg = atom.args[0]
            if not arg.is_var:
                value = arg.name
            elif arg in pre:
                value = pre[arg]
            else:
                value = assignment[arg]
            if value not in object_facts.get(atom.pred, set()):
                return False
        return True

    for combo in iter_product(domain, repeat=len(variables)):
        if ok(dict(zip(variables, combo))):
            return True
    # A query with object atoms but an empty object domain cannot hold.
    return not variables and ok({})


class ExecutionContext:
    """Database-side execution state with granular invalidation.

    One context lives on each :class:`~repro.api.session.Session`
    (plans build private ones for padded databases and for queries with
    order constants; queries with only object constants get a twin
    sharing this one's graph and caches, see :meth:`with_object_facts`).
    Everything is derived lazily and cached; the three
    ``*_changed`` hooks invalidate only what a mutation can affect:

    * ``facts_changed`` — object-constant facts: drops the object-fact
      index, the object domain and the splittability flag; the order
      graph, its closures, the labelled dag and every region cache stay
      warm.
    * ``labels_changed`` — facts over *existing* order constants: also
      drops the labelled dag and detaches block-label memos from the
      region caches (structural region artifacts survive), and bumps
      ``label_epoch`` so plans discard their order-part memos.
    * ``graph_changed`` — order atoms or new/removed order constants:
      also drops consistency and clears the cache hub (the graph's own
      per-generation memos were already invalidated by the mutation).
    """

    #: process-wide serial source; serials are never reused, unlike ids,
    #: so plan memos keyed on them cannot alias a recycled context.
    _serials = iter_count()

    def __init__(
        self, db: IndefiniteDatabase, graph: OrderGraph | None = None
    ) -> None:
        self.db = db
        self.serial = next(ExecutionContext._serials)
        self._graph = graph
        self._hub: RegionCacheHub | None = None
        self._consistent: bool | None = None
        self._has_neq: bool | None = None
        self._dag: LabeledDag | None = None
        self._splittable: bool | None = None
        self._object_facts: dict[str, set[str]] | None = None
        self._object_domain: list[str] | None = None
        #: bumped whenever cached order-part verdicts become stale
        self.label_epoch = 0

    # -- lazy views --------------------------------------------------------

    @property
    def graph_built(self) -> bool:
        return self._graph is not None

    @property
    def graph(self) -> OrderGraph:
        if self._graph is None:
            self._graph = self.db.graph()
        return self._graph

    @property
    def hub(self) -> RegionCacheHub:
        if self._hub is None:
            self._hub = RegionCacheHub()
        return self._hub

    @property
    def consistent(self) -> bool:
        if self._consistent is None:
            self._consistent = self.graph.is_consistent()
        return self._consistent

    @property
    def has_neq(self) -> bool:
        if self._has_neq is None:
            self._has_neq = self.db.has_neq
        return self._has_neq

    @property
    def splittable(self) -> bool:
        """All proper atoms unary — the Section 4 split applies."""
        if self._splittable is None:
            self._splittable = all(
                a.arity == 1 for a in self.db.proper_atoms
            )
        return self._splittable

    @property
    def dag(self) -> LabeledDag:
        """The labelled dag over the order constants (requires splittable)."""
        if self._dag is None:
            label: dict[str, set[str]] = {}
            for atom in self.db.proper_atoms:
                arg = atom.args[0]
                if arg.is_order:
                    label.setdefault(arg.name, set()).add(atom.pred)
            graph = self.graph
            self._dag = LabeledDag(
                graph,
                {v: frozenset(label.get(v, set())) for v in graph.vertices},
            )
        return self._dag

    @property
    def object_facts(self) -> dict[str, set[str]]:
        """``pred -> object-constant names`` over the unary object facts."""
        if self._object_facts is None:
            facts: dict[str, set[str]] = {}
            for atom in self.db.proper_atoms:
                if atom.arity == 1 and atom.args[0].is_object:
                    facts.setdefault(atom.pred, set()).add(atom.args[0].name)
            self._object_facts = facts
        return self._object_facts

    @property
    def object_domain(self) -> list[str]:
        """The active object domain, sorted."""
        if self._object_domain is None:
            self._object_domain = sorted(self.db.object_constants)
        return self._object_domain

    # -- invalidation ------------------------------------------------------

    def facts_changed(self, db: IndefiniteDatabase) -> None:
        self.db = db
        self._splittable = None
        self._object_facts = None
        self._object_domain = None

    def labels_changed(self, db: IndefiniteDatabase) -> None:
        self.facts_changed(db)
        self._dag = None
        self.label_epoch += 1
        if self._hub is not None:
            self._hub.invalidate_labels()

    def graph_changed(
        self, db: IndefiniteDatabase, keep_graph: bool = True
    ) -> None:
        self.labels_changed(db)
        self._consistent = None
        self._has_neq = None
        if not keep_graph:
            self._graph = None
        if self._hub is not None:
            self._hub.clear()

    # -- derived contexts --------------------------------------------------

    def with_object_facts(self, db: IndefiniteDatabase) -> "ExecutionContext":
        """A context over ``db``: this database plus facts on object
        constants only (what eliminating a query's object constants adds).

        Object facts touch neither the order graph nor its labels, so the
        twin shares this context's graph *instance* and its region cache
        hub — the closures, the region memos and the minimal-model engine
        of this graph generation are built once for both — and derives
        only its fact views afresh.  Contexts whose extra facts sit on
        order constants change the labels and must be built fresh.
        """
        twin = ExecutionContext(db, self.graph)
        twin._hub = self.hub
        twin._consistent = self._consistent
        twin._has_neq = self._has_neq
        twin._dag = self._dag
        twin.label_epoch = self.label_epoch
        return twin


@dataclass(frozen=True)
class DisjunctSplit:
    """One disjunct's Section 4 split, computed at plan time.

    ``order_dag`` is None when the order part normalizes to an
    inconsistency (the disjunct can never survive).
    """

    object_atoms: tuple[ProperAtom, ...]
    order_dag: LabeledDag | None


@dataclass(frozen=True)
class StaticPlan:
    """The database-independent residue of the pipeline.

    Attributes:
        dnf: the final query — semantics-reduced, normalized,
            '!='-expanded.
        pad_dnf: when the Z reduction applies, the pre-normalization DNF
            to feed :func:`~repro.core.semantics.pad_for_integers`
            (None when no padding is needed).
        any_empty: some disjunct is the empty conjunction (trivially
            true).
        splits: per-disjunct object/order splits, or None when some
            disjunct has a non-unary proper atom (no monadic fast path).
    """

    dnf: DisjunctiveQuery
    pad_dnf: DisjunctiveQuery | None
    any_empty: bool
    splits: tuple[DisjunctSplit, ...] | None


def compile_static(dnf: DisjunctiveQuery, semantics: Semantics) -> StaticPlan:
    """Run every query-side pipeline step (mirrors ``explain`` steps 3-5)."""
    pad_dnf: DisjunctiveQuery | None = None
    if semantics is not Semantics.FIN and not is_tight(dnf):
        if semantics is Semantics.Z:
            n = max(
                (len(d.order_variables()) for d in dnf.disjuncts), default=0
            )
            if n:
                pad_dnf = dnf
        else:  # Q: Lemma 2.5 tightening is a pure query transformation
            dnf = tighten_for_rationals(dnf)
    dnf = dnf.normalized()
    if dnf.has_neq:
        dnf = expand_query_neq(dnf).normalized()

    splits: list[DisjunctSplit] = []
    monadic = True
    for d in dnf.disjuncts:
        object_atoms: list[ProperAtom] = []
        order_atoms: list[ProperAtom] = []
        for atom in d.proper_atoms:
            if atom.arity != 1:
                monadic = False
                break
            if atom.args[0].is_object:
                object_atoms.append(atom)
            else:
                order_atoms.append(atom)
        if not monadic:
            break
        order_part = ConjunctiveQuery.from_atoms(
            order_atoms + list(d.order_atoms), d.extra_order_vars
        )
        normalized = order_part.normalized()
        splits.append(
            DisjunctSplit(
                tuple(object_atoms),
                normalized.monadic_dag() if normalized is not None else None,
            )
        )
    return StaticPlan(
        dnf=dnf,
        pad_dnf=pad_dnf,
        any_empty=any(d.is_empty() for d in dnf.disjuncts),
        splits=tuple(splits) if monadic else None,
    )


def decide_order_part(
    ctx: ExecutionContext, surviving: list[LabeledDag], method: str
) -> Result:
    """Run the chosen decision procedure on the order parts.

    Exact mirror of the one-shot dispatch, with the context's cache hub
    threaded through every algorithm.
    """
    dag = ctx.dag
    hub = ctx.hub
    mq = DisjunctiveQuery(tuple(dag_to_query(d) for d in surviving))

    if method == "seq":
        if len(surviving) != 1:
            raise ValueError("method 'seq' needs a single sequential disjunct")
        from repro.algorithms.seq import seq_countermodel

        counter = seq_countermodel(
            dag, surviving[0].to_flexiword(), caches=hub
        )
        return Result(counter is None, "seq", counter)
    if method == "paths":
        if len(surviving) != 1:
            raise ValueError("method 'paths' needs a conjunctive query")
        return Result(paths_entails_dag(dag, surviving[0], hub), "paths")
    if method == "bounded_width":
        if len(surviving) != 1:
            raise ValueError("method 'bounded_width' needs a conjunctive query")
        return Result(
            bounded_width_entails_dag(dag, surviving[0], hub), "bounded_width"
        )
    if method == "theorem53":
        result = theorem53(dag, mq, hub)
        return Result(result.holds, "theorem53", result.countermodel)
    if method == "basis":
        # Section 6: D |= Phi iff D_Phi <= D in the dominance order.
        if len(surviving) != 1:
            raise ValueError("method 'basis' needs a conjunctive query")
        from repro.flexiwords.wqo import dominates

        return Result(dominates(surviving[0], dag), "basis")
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")

    # -- auto dispatch over the monadic fast paths -------------------------
    if len(surviving) == 1:
        qdag = surviving[0]
        if qdag.width() <= 1:
            from repro.algorithms.seq import seq_countermodel

            counter = seq_countermodel(dag, qdag.to_flexiword(), caches=hub)
            return Result(counter is None, "seq", counter)
        if dag.width() <= WIDTH_CUTOFF:
            return Result(
                bounded_width_entails_dag(dag, qdag, hub), "bounded_width"
            )
        return Result(paths_entails_dag(dag, qdag, hub), "paths")
    # The Theorem 5.3 state graph is exponential in the number of disjuncts
    # (Proposition 5.4 shows this is unavoidable); for large disjunctions
    # enumerate minimal models with the Corollary 5.1 checker instead.
    if len(surviving) <= DISJUNCT_CUTOFF and dag.width() <= WIDTH_CUTOFF:
        result = theorem53(dag, mq, hub)
        return Result(result.holds, "theorem53", result.countermodel)
    result = entails_bruteforce_monadic(dag, mq, hub)
    return Result(result.holds, "bruteforce-monadic", result.countermodel)


class PreparedQuery:
    """A query compiled once against a session, executable many times.

    Obtained from :meth:`Session.prepare
    <repro.api.session.Session.prepare>`.  The static (query-side) plan
    is compiled at construction; :meth:`execute` binds it to the
    session's current database generation, reusing every cached
    artifact a mutation since the last execution did not invalidate.
    Plans prepared with ``free_vars`` evaluate the certain answers of
    the open query over all candidate substitutions in one execution.
    """

    def __init__(
        self,
        session: "Session",
        query: Query,
        semantics: Semantics = Semantics.FIN,
        method: str = "auto",
        free_vars: tuple[Term, ...] | None = None,
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if free_vars is not None and any(v.is_order for v in free_vars):
            raise ValueError("free variables must be object-sorted")
        self.session = session
        self.query = query
        self.semantics = semantics
        self.method = method
        #: None = closed query; a tuple (possibly empty) = open query
        self.free_vars = None if free_vars is None else tuple(free_vars)
        self._dnf0 = as_dnf(query)
        if free_vars is not None:
            # by name: a name the query uses at the order sort is a sort
            # error, which binding reports (see :meth:`_check_sorts`)
            known = {
                v.name for d in self._dnf0.disjuncts for v in d.variables()
            }
            unknown = sorted(v.name for v in free_vars if v.name not in known)
            if unknown:
                raise ValueError(
                    "free variable(s) not in the query: " + ", ".join(unknown)
                )
        constants = self._dnf0.constants()
        self._has_constants = bool(constants)
        #: constant elimination adds only object facts (see :meth:`_bind`)
        self._object_constants_only = all(c.is_object for c in constants)
        #: ``(pred, position, sort) -> a query atom with that argument``,
        #: over the n-ary atoms (see :meth:`_check_sorts`)
        self._nary_args = {
            (atom.pred, i, arg.sort): atom
            for disjunct in self._dnf0.disjuncts
            for atom in disjunct.proper_atoms
            if atom.arity > 1
            for i, arg in enumerate(atom.args)
        }
        self._static = (
            None
            if self._has_constants
            else compile_static(self._dnf0, semantics)
        )
        self._bound_key: tuple[int, int, int] | None = None
        self._bound: tuple[StaticPlan, ExecutionContext] | None = None
        self._result_key: tuple[int, int, int] | None = None
        self._result: Result | None = None
        self._memo_key: tuple[int, int] | None = None
        self._order_memo: dict[tuple[int, ...], Result] = {}
        self._validated_key: tuple[int, int, int] | None = None
        # Per-tuple sub-plans of the constants fallback path, kept here
        # (bounded by the candidate count) so they neither thrash nor
        # evict the session's shared plan cache.
        self._fallback_plans: dict[Query, "PreparedQuery"] = {}

    # -- binding -----------------------------------------------------------

    def _bind(self) -> tuple[StaticPlan, ExecutionContext]:
        """The plan bound to the session's current database generation.

        Every execution path (and :meth:`validate`) binds before any
        decision procedure runs, so this is where a query whose
        argument sorts disagree with the database's raises
        :class:`~repro.core.errors.SortError` — once per generation.
        """
        key = self.session._gens()
        if self._bound_key == key and self._bound is not None:
            return self._bound
        base = self.session.context()
        self._check_sorts(base)
        if self._has_constants:
            # Constant elimination augments the database, so the whole
            # static residue is regenerated for this generation.
            db2, dnf = eliminate_constants(base.db, self._dnf0)
            static = compile_static(dnf, self.semantics)
        else:
            db2, static = None, self._static
        assert static is not None
        if static.pad_dnf is not None:
            padded = pad_for_integers(
                db2 if db2 is not None else base.db, static.pad_dnf
            )
            ctx = ExecutionContext(padded)
        elif db2 is not None and self._object_constants_only:
            ctx = base.with_object_facts(db2)
        elif db2 is not None:
            ctx = ExecutionContext(db2)
        else:
            ctx = base
        self._bound_key, self._bound = key, (static, ctx)
        return self._bound

    def _check_sorts(self, ctx: ExecutionContext) -> None:
        """Raise :class:`SortError` for an n-ary atom argument the
        database's facts only ever fill with the other sort.

        Unary atoms are exempt: the Section 4 split reads a unary
        predicate at both sorts (object facts form the definite object
        part, order facts label the order dag), so a unary atom of
        either sort is well-typed there and simply matches nothing.
        """
        if not self._nary_args:
            return
        db_sorts = ctx.db.vocabulary.arg_sorts
        for (pred, i, sort), atom in self._nary_args.items():
            seen = db_sorts.get((pred, i))
            if seen is not None and sort not in seen:
                raise SortError(
                    f"query atom {atom}: argument {i + 1} is "
                    f"{sort.value}-sorted, but the database's {pred!r} "
                    f"facts are {next(iter(seen)).value}-sorted there"
                )

    def _memo(self, ctx: ExecutionContext) -> dict[tuple[int, ...], Result]:
        """Order-part verdicts, keyed by surviving-disjunct index tuple.

        Valid as long as the context's order graph and labels are
        unchanged; the epoch check drops it otherwise.
        """
        key = (ctx.serial, ctx.label_epoch)
        if self._memo_key != key:
            self._memo_key = key
            self._order_memo = {}
        return self._order_memo

    def _surviving(self, static: StaticPlan, ctx: ExecutionContext,
                   pre: Mapping[Term, str] | None = None) -> tuple[int, ...]:
        assert static.splits is not None
        return tuple(
            i
            for i, sp in enumerate(static.splits)
            if sp.order_dag is not None
            and object_part_holds(
                sp.object_atoms, ctx.object_facts, ctx.object_domain, pre
            )
        )

    def _order_result(
        self, static: StaticPlan, ctx: ExecutionContext, indices: tuple[int, ...]
    ) -> Result:
        memo = self._memo(ctx)
        cached = memo.get(indices)
        if cached is None:
            assert static.splits is not None
            surviving = [static.splits[i].order_dag for i in indices]
            cached = memo[indices] = decide_order_part(
                ctx, surviving, self.method
            )
        return cached

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise exactly the dispatch errors :meth:`execute` would — now.

        Mirrors the cheap, query-side part of the dispatch: the
        ``ValueError`` family for a specialized method forced onto an
        inapplicable input (non-monadic / ``'!='`` inputs; single-
        disjunct methods facing several surviving disjuncts; ``seq``
        facing a non-sequential one).  No decision procedure runs —
        ``auto``/``bruteforce``/``theorem53`` plans validate in O(1),
        and the single-disjunct methods pay only the object-part
        filtering :meth:`execute` performs anyway.

        The point is *raise-point parity* for batched reads: the server
        validates each read as it joins a batch, so an invalid read gets
        its error reply where a sequential per-op loop would have raised
        it, and the rest of the batch still runs together.  Never raises
        when :meth:`execute` would succeed.
        """
        key = self.session._gens()
        if self._validated_key == key:
            return
        if self.session.context().consistent:
            if self.free_vars is None:
                self._validate_closed()
            else:
                self._validate_answers()
        self._validated_key = key

    def _validate_single_disjunct(
        self, static: StaticPlan, indices: tuple[int, ...]
    ) -> None:
        """The per-surviving-set checks of the single-disjunct methods."""
        if self.method == "seq":
            if len(indices) != 1:
                raise ValueError(
                    "method 'seq' needs a single sequential disjunct"
                )
            # mirrors seq_countermodel's flexi-word conversion, which
            # raises on a non-sequential (width > 1) disjunct
            static.splits[indices[0]].order_dag.to_flexiword()
        elif len(indices) != 1:
            raise ValueError(
                f"method {self.method!r} needs a conjunctive query"
            )

    def _validate_closed(self) -> None:
        static, ctx = self._bind()
        if not static.dnf.disjuncts or static.any_empty:
            return
        if self._closed_bruteforce_path(static, ctx):
            return
        if not self._monadic_applicable(static, ctx):
            raise ValueError(
                f"method {self.method!r} requires monadic, '!='-free inputs"
            )
        if self.method in ("auto", "theorem53"):
            return
        indices = self._surviving(static, ctx)
        if not indices:
            return
        if any(
            not static.splits[i].order_dag.graph.vertices for i in indices
        ):
            return
        self._validate_single_disjunct(static, indices)

    def _validate_answers(self) -> None:
        domain = self.session.context().object_domain
        if self._has_constants:
            # the fallback path executes one closed sub-plan per tuple,
            # in combo order; validating them in the same order raises
            # exactly where the first raising tuple would
            for combo in self._combos(domain):
                mapping = {
                    v: obj(c) for v, c in zip(self.free_vars, combo)
                }
                q_c = self._dnf0.substitute(mapping)
                plan = self._fallback_plans.get(q_c)
                if plan is None:
                    plan = self._fallback_plans[q_c] = PreparedQuery(
                        self.session, q_c, self.semantics, self.method
                    )
                plan.validate()
            return
        static, ctx = self._bind()
        if not static.dnf.disjuncts or static.any_empty:
            return
        if self._splits_apply(static, ctx):
            if self.method in ("auto", "bruteforce", "theorem53"):
                return
            for combo in self._combos(domain):
                pre = dict(zip(self.free_vars, combo))
                indices = self._surviving(static, ctx, pre)
                if not indices:
                    continue
                if any(
                    not static.splits[i].order_dag.graph.vertices
                    for i in indices
                ):
                    continue
                self._validate_single_disjunct(static, indices)
            return
        if self.method not in ("auto", "bruteforce"):
            raise ValueError(
                f"method {self.method!r} requires monadic, '!='-free inputs"
            )

    # -- closed-query execution --------------------------------------------

    def execute(self) -> Result:
        """Evaluate against the session's *current* database."""
        key = self.session._gens()
        if self._result_key == key and self._result is not None:
            return self._result
        result = (
            self._run_closed()
            if self.free_vars is None
            else self._run_answers()
        )
        self._result_key, self._result = key, result
        return result

    @staticmethod
    def _monadic_applicable(static: StaticPlan, ctx: ExecutionContext) -> bool:
        """Can this execution take a monadic fast path at all?  (All
        disjuncts split, no '!=' anywhere, all db facts unary.)"""
        return (
            static.splits is not None
            and not ctx.has_neq
            and ctx.splittable
        )

    def _closed_bruteforce_path(
        self, static: StaticPlan, ctx: ExecutionContext
    ) -> bool:
        """Would :meth:`_run_closed` decide this (live, non-trivial) plan
        by a minimal-model sweep?

        True when brute force is requested explicitly, or when auto
        dispatch cannot take a monadic fast path.  The single source of
        truth for the closed model-path dispatch — used by
        :meth:`_run_closed` itself and by the batch engine's pooling
        predicate (:func:`repro.engine.batch._closed_sweepable`), so the
        two can never disagree.
        """
        if self.method == "bruteforce":
            return True
        if self.method != "auto":
            return False
        return not self._monadic_applicable(static, ctx)

    def _run_closed(self) -> Result:
        base = self.session.context()
        if not base.consistent:
            return Result(True, "vacuous")
        static, ctx = self._bind()
        dnf = static.dnf
        if not dnf.disjuncts:
            return Result(
                False,
                "unsatisfiable-query",
                first_minimal_model(ctx.db, ctx.hub, ctx.graph),
            )
        if static.any_empty:
            return Result(True, "trivial")
        method = self.method
        if self._closed_bruteforce_path(static, ctx):
            r = entails_bruteforce(ctx.db, dnf, ctx.hub, ctx.graph)
            return Result(r.holds, "bruteforce", LazyModel.stored(r))
        if not self._monadic_applicable(static, ctx):
            # a specialized monadic method forced onto an inapplicable input
            raise ValueError(
                f"method {method!r} requires monadic, '!='-free inputs"
            )
        indices = self._surviving(static, ctx)
        if not indices:
            # Every disjunct's definite object part already fails.
            return Result(
                False, "object-part", first_minimal_model(ctx.db, ctx.hub, ctx.graph)
            )
        if any(
            not static.splits[i].order_dag.graph.vertices for i in indices
        ):
            return Result(True, "object-part")
        return self._order_result(static, ctx, indices)

    # -- open-query (certain answers) execution ----------------------------

    def _combos(self, domain: list[str]):
        return iter_product(domain, repeat=len(self.free_vars))

    def _run_answers(self) -> Result:
        base = self.session.context()
        domain = base.object_domain
        if not base.consistent:
            answers = frozenset(self._combos(domain))
            return Result(bool(answers), "vacuous", answers=answers)
        if self._has_constants:
            answers = self._fallback_answers_for(self._combos(domain))
            return Result(bool(answers), "prepared-fallback", answers=answers)
        static, ctx = self._bind()
        if not static.dnf.disjuncts:
            return Result(False, "unsatisfiable-query", answers=frozenset())
        if static.any_empty:
            answers = frozenset(self._combos(domain))
            return Result(bool(answers), "trivial", answers=answers)
        if self._splits_apply(static, ctx):
            answers = self._split_answers_for(
                static, ctx, self._combos(domain)
            )
            return Result(bool(answers), "prepared-split", answers=answers)
        if self.method not in ("auto", "bruteforce"):
            raise ValueError(
                f"method {self.method!r} requires monadic, '!='-free inputs"
            )
        answers = self._model_answers_for(static, ctx, self._combos(domain))
        return Result(bool(answers), "prepared-models", answers=answers)

    def _splits_apply(
        self, static: StaticPlan, ctx: ExecutionContext
    ) -> bool:
        """Can this execution take the Section 4 object/order split?"""
        return self.method != "bruteforce" and self._monadic_applicable(
            static, ctx
        )

    def answers_for(
        self, combos: Iterable[tuple[str, ...]]
    ) -> frozenset[tuple[str, ...]]:
        """Certain-answer status of just the given candidate tuples.

        The delta hook for incrementally maintained views
        (:class:`repro.engine.views.MaterializedView`): evaluates exactly
        the strategy the full :meth:`execute` would run — split, model
        sweep or constants fallback — restricted to ``combos``, against
        the session's *current* database.  Returns the subset of
        ``combos`` that are certain answers.
        """
        if self.free_vars is None:
            raise ValueError("answers_for requires an open (free_vars) plan")
        combos = list(combos)
        base = self.session.context()
        if not base.consistent:
            return frozenset(combos)
        if self._has_constants:
            return self._fallback_answers_for(combos)
        static, ctx = self._bind()
        if not static.dnf.disjuncts:
            return frozenset()
        if static.any_empty:
            return frozenset(combos)
        if self._splits_apply(static, ctx):
            return self._split_answers_for(static, ctx, combos)
        if self.method not in ("auto", "bruteforce"):
            raise ValueError(
                f"method {self.method!r} requires monadic, '!='-free inputs"
            )
        return self._model_answers_for(static, ctx, combos)

    def _split_answers_for(
        self,
        static: StaticPlan,
        ctx: ExecutionContext,
        combos: Iterable[tuple[str, ...]],
    ) -> frozenset[tuple[str, ...]]:
        """Monadic split: memoize order-part verdicts per surviving set.

        A substitution only reaches the object parts, so candidate
        tuples that leave the same disjuncts standing share one
        order-part decision.
        """
        answers = set()
        for combo in combos:
            pre = dict(zip(self.free_vars, combo))
            indices = self._surviving(static, ctx, pre)
            if not indices:
                continue
            if any(
                not static.splits[i].order_dag.graph.vertices
                for i in indices
            ):
                answers.add(combo)
                continue
            if self._order_result(static, ctx, indices).holds:
                answers.add(combo)
        return frozenset(answers)

    def _model_answers_for(
        self,
        static: StaticPlan,
        ctx: ExecutionContext,
        combos: Iterable[tuple[str, ...]],
    ) -> frozenset[tuple[str, ...]]:
        """General case: one grounding machine decides all candidates.

        A tuple is a certain answer iff every minimal model satisfies
        its substituted query.  :func:`entailment_sweep` grounds the
        plan's DNF once with the free variables as join slots and
        decides each tuple as a start state of one shared region walk.
        """
        open_query = self.open_query(static, combos)
        return entailment_sweep(
            ctx.db, (), ctx.hub, ctx.graph, open_queries=(open_query,)
        )[open_query]

    def open_query(
        self, static: StaticPlan, combos: Iterable[tuple[str, ...]]
    ) -> OpenQuery:
        """This plan's model-path question over the candidate ``combos``
        (the batch engine pools these across plans into one sweep)."""
        return OpenQuery(static.dnf, self.free_vars, tuple(combos))

    def _fallback_answers_for(
        self, combos: Iterable[tuple[str, ...]]
    ) -> frozenset[tuple[str, ...]]:
        """Open queries with constants: one private sub-plan per tuple."""
        answers = set()
        for combo in combos:
            mapping = {v: obj(c) for v, c in zip(self.free_vars, combo)}
            q_c = self._dnf0.substitute(mapping)
            plan = self._fallback_plans.get(q_c)
            if plan is None:
                plan = self._fallback_plans[q_c] = PreparedQuery(
                    self.session, q_c, self.semantics, self.method
                )
            if plan.execute().holds:
                answers.add(combo)
        return frozenset(answers)
