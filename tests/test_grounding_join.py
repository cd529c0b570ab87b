"""The indexed grounding join and the shared engine of object-constant queries.

:class:`~repro.algorithms.modelcheck.GroundingMachine` grounds an n-ary
query against a per-database fact index; every n-ary minimal-model path
(``entails_bruteforce``, ``count_countermodels``, ``entailment_sweep``)
runs on it.  The differentials below pin it to the naive enumeration of
:func:`repro.substrate.reference.naive_mode` on the shapes the join
treats specially: a variable repeated inside one atom, object and order
constants, a first atom with no bound argument, one predicate at two
arities, query ``!=``, terms facing facts of the other sort, and foreign
constants.

Closed queries with object constants bind to a context that shares the
session's graph and region caches (:meth:`ExecutionContext.with_object_facts
<repro.api.plan.ExecutionContext.with_object_facts>`); the engine-count
tests pin that sharing down, and that order-constant queries stay apart.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.bruteforce import (
    count_countermodels,
    entailment_sweep,
    entails_bruteforce,
)
from repro.api.session import Session
from repro.core import modelengine
from repro.core.atoms import OrderAtom, ProperAtom, Rel
from repro.core.database import IndefiniteDatabase
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery, as_dnf
from repro.core.sorts import obj, objvar, ordc, ordvar
from repro.substrate import reference
from repro.substrate.parser import parse_database, parse_query

#: (predicate, argument sorts): 'r' order, 'o' object.  B is used at two
#: arities, and M holds facts of both sorts at the same position.
SIGNATURES = (
    ("B", "ro"),
    ("B", "ror"),
    ("T", "ror"),
    ("M", "r"),
    ("M", "o"),
)

t0, t1 = ordvar("t0"), ordvar("t1")
x0, x1 = objvar("x0"), objvar("x1")
u0, u1, u2 = ordc("u0"), ordc("u1"), ordc("u2")
a0, a1 = obj("a0"), obj("a1")


def random_db(rng: random.Random) -> IndefiniteDatabase:
    order = [ordc(f"u{i}") for i in range(rng.randrange(1, 5))]
    objects = [obj(f"a{i}") for i in range(rng.randrange(1, 4))]
    atoms: list = []
    for _ in range(rng.randrange(0, 9)):
        pred, sig = rng.choice(SIGNATURES)
        atoms.append(ProperAtom(pred, tuple(
            rng.choice(order if s == "r" else objects) for s in sig
        )))
    for i, u in enumerate(order):
        for v in order[i + 1:]:
            if rng.random() < 0.35:
                rel = Rel.LE if rng.random() < 0.3 else Rel.LT
                atoms.append(OrderAtom(u, rel, v))
            if rng.random() < 0.1:
                atoms.append(OrderAtom(u, Rel.NE, v))
    return IndefiniteDatabase.from_atoms(atoms)


def random_disjunct(
    rng: random.Random, db: IndefiniteDatabase, order_consts_in_order_atoms: bool
) -> ConjunctiveQuery:
    """Proper atoms over variables and the database's constants, order
    atoms (with '!=') over the order variables, sometimes a loose order
    variable, and — when allowed — order constants inside order atoms."""
    order_consts = [ordc(n) for n in sorted(db.order_constants)]
    object_consts = [obj(n) for n in sorted(db.object_constants)]
    tvars = [ordvar(f"t{i}") for i in range(rng.randrange(1, 4))]
    xvars = [objvar(f"x{i}") for i in range(rng.randrange(1, 3))]

    def term(sort: str):
        if sort == "r":
            if order_consts and rng.random() < 0.15:
                return rng.choice(order_consts)
            return rng.choice(tvars)
        if object_consts and rng.random() < 0.25:
            return rng.choice(object_consts)
        return rng.choice(xvars)

    atoms: list = []
    for _ in range(rng.randrange(1, 4)):
        pred, sig = rng.choice(SIGNATURES)
        atoms.append(ProperAtom(pred, tuple(term(s) for s in sig)))
    ends = list(tvars)
    if rng.random() < 0.3:
        ends.append(ordvar("loose"))
    if order_consts_in_order_atoms and order_consts and rng.random() < 0.4:
        ends.append(rng.choice(order_consts))
    for _ in range(rng.randrange(0, 3)):
        left, right = rng.choice(ends), rng.choice(ends)
        if left == right:
            continue
        rel = rng.choice((Rel.LT, Rel.LT, Rel.LE, Rel.NE))
        atoms.append(OrderAtom(left, rel, right))
    return ConjunctiveQuery.from_atoms(atoms)


def random_query(rng, db, order_consts_in_order_atoms=False) -> DisjunctiveQuery:
    return DisjunctiveQuery(tuple(
        random_disjunct(rng, db, order_consts_in_order_atoms)
        for _ in range(rng.randrange(1, 3))
    ))


def assert_matches_naive(db, query):
    fast = entails_bruteforce(db, query)
    fast_count = count_countermodels(db, query)
    with reference.naive_mode():
        slow = entails_bruteforce(db, query)
        slow_count = count_countermodels(db, query)
    assert fast.holds == slow.holds
    assert fast.countermodel == slow.countermodel
    assert fast_count == slow_count


#: one fixed instance per shape the join special-cases
SHAPE_DB = IndefiniteDatabase.of(
    ProperAtom("T", (u0, a1, u0)),
    ProperAtom("T", (u1, a1, u0)),
    ProperAtom("T", (u2, a0, u1)),
    ProperAtom("B", (u1, a0)),
    ProperAtom("B", (u2, a1)),
    ProperAtom("B", (u0, a0, u2)),
    ProperAtom("M", (u1,)),
    ProperAtom("M", (a1,)),
    OrderAtom(u0, Rel.LE, u1),
    OrderAtom(u1, Rel.LT, u2),
)

SHAPES = {
    "repeated variable in one atom": ConjunctiveQuery.of(
        ProperAtom("T", (t0, a1, t0))
    ),
    "object and order constants": ConjunctiveQuery.of(
        ProperAtom("B", (u1, a0)), ProperAtom("T", (t0, x0, u0))
    ),
    "first atom has no bound argument": ConjunctiveQuery.of(
        ProperAtom("B", (t0, x0)),
        ProperAtom("T", (t1, x0, t0)),
        OrderAtom(t1, Rel.LT, t0),
    ),
    "one predicate at two arities": ConjunctiveQuery.of(
        ProperAtom("B", (t0, x0, t1)), ProperAtom("B", (t1, x0))
    ),
    "query inequality": ConjunctiveQuery.of(
        ProperAtom("B", (t0, x0)),
        ProperAtom("B", (t1, x1)),
        OrderAtom(t0, Rel.NE, t1),
    ),
    "terms only match their own sort": ConjunctiveQuery.of(
        ProperAtom("M", (t0,)), ProperAtom("M", (x0,)), OrderAtom(t0, Rel.LT, t1)
    ),
}


class TestJoinDifferential:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_special_cased_shapes_match_naive(self, shape):
        assert_matches_naive(SHAPE_DB, SHAPES[shape])

    def test_randomized_entailment_and_counts_match_naive(self):
        rng = random.Random(1603)
        for trial in range(150):
            db = random_db(rng)
            query = random_query(rng, db)
            try:
                assert_matches_naive(db, query)
            except AssertionError as exc:  # pragma: no cover - diagnostics
                raise AssertionError(f"trial {trial}: {db} |= {query}") from exc

    def test_randomized_sweep_with_witnesses_matches_naive(self):
        rng = random.Random(1604)
        for trial in range(60):
            db = random_db(rng)
            queries = [
                random_query(rng, db, order_consts_in_order_atoms=True)
                for _ in range(rng.randrange(1, 5))
            ]
            witnesses = queries[::2]
            fast = entailment_sweep(db, queries, witness_queries=witnesses)
            with reference.naive_mode():
                slow = entailment_sweep(db, queries, witness_queries=witnesses)
            for q in queries:
                assert fast[q].holds == slow[q].holds, (trial, str(q))
                if q in witnesses:
                    assert fast[q].countermodel == slow[q].countermodel, trial

    @pytest.mark.parametrize(
        "query",
        [
            ConjunctiveQuery.of(ProperAtom("B", (t0, obj("zzz")))),
            ConjunctiveQuery.of(ProperAtom("B", (ordc("zzz"), x0))),
            ConjunctiveQuery.of(
                ProperAtom("B", (t0, x0)), OrderAtom(t0, Rel.LT, ordc("zzz"))
            ),
        ],
        ids=["object", "order", "order-atom"],
    )
    def test_foreign_constant_raises_key_error(self, query):
        dnf = as_dnf(query)
        with pytest.raises(KeyError, match="zzz"):
            entailment_sweep(SHAPE_DB, [dnf])
        with reference.naive_mode():
            with pytest.raises(KeyError, match="zzz"):
                entailment_sweep(SHAPE_DB, [dnf])


class TestSortMismatch:
    """An order variable never takes an object fact's value (and vice
    versa): both the engine and the naive model checker used to compare
    the two sorts' values and raise ``TypeError``."""

    DB = "P(u); On(p1, lamp); p1 < p2"
    QUERY = "P(t) & t < s"

    def test_engine_and_oracle_agree_on_the_countermodel(self):
        db = parse_database(self.DB)
        query = parse_query(self.QUERY, db)
        fast = Session(db).explain(query, method="bruteforce")
        with reference.naive_mode():
            slow = Session(db).explain(query, method="bruteforce")
        assert fast.holds is False and slow.holds is False
        assert fast.method == slow.method == "bruteforce"
        assert fast.countermodel is not None
        assert fast.countermodel == slow.countermodel
        assert_matches_naive(db, query)


def _count_engine_builds(monkeypatch) -> list[int]:
    builds = [0]
    init = modelengine.ModelEngine.__init__

    def counted(self, graph):
        builds[0] += 1
        init(self, graph)

    monkeypatch.setattr(modelengine.ModelEngine, "__init__", counted)
    return builds


NARY_DB = (
    "B(u0, a0); B(u1, a1); T(u2, a0, u1); T(u3, a1, u0); "
    "u0 < u1; u2 <= u3; u0 != u2"
)
#: distinct closed queries naming object constants (each a fresh plan)
OBJECT_CONSTANT_QUERIES = (
    "B(t, a0) & B(s, a1) & t < s",
    "T(t, a0, s) & B(s, a1)",
    "B(t, a1) & T(s, a1, t) & s <= t",
    "T(t, a1, s) & t != s",
    "B(t, a0) & T(s, X, t)",
)


class TestObjectConstantEngineSharing:
    def test_one_engine_per_graph_generation(self, monkeypatch):
        session = Session(parse_database(NARY_DB))
        builds = _count_engine_builds(monkeypatch)
        for text in OBJECT_CONSTANT_QUERIES:
            session.explain(parse_query(text, session.db))
        assert builds[0] <= 1
        # a new graph generation: at most one more engine for all of them
        session.assert_order(OrderAtom(ordc("u1"), Rel.LT, ordc("u3")))
        for text in OBJECT_CONSTANT_QUERIES:
            session.explain(parse_query(text, session.db))
        assert builds[0] <= 2

    def test_object_constant_context_shares_graph_and_hub(self):
        session = Session(parse_database(NARY_DB))
        base = session.context()
        plan = session.prepare(parse_query("B(t, a0) & B(s, a1)", session.db))
        _static, ctx = plan._bind()
        assert ctx is not base
        assert ctx.graph is base.graph and ctx.hub is base.hub

    def test_order_constant_context_keeps_its_own_label_memos(self):
        session = Session(parse_database(NARY_DB))
        base = session.context()
        session.explain(parse_query("B(t, a0) & B(s, a1)", session.db))
        plan = session.prepare(parse_query("B(u1, X) & B(t, X)", session.db))
        _static, ctx = plan._bind()
        assert ctx.hub is not base.hub
        assert ctx.graph is not base.graph
        # Const_u1(u1) labels u1 in the augmented context only
        assert any(
            atom.pred.startswith("Const_u1") for atom in ctx.db.proper_atoms
        )
        assert not any(
            atom.pred.startswith("Const_") for atom in base.db.proper_atoms
        )

    def test_object_fact_churn_between_queries_matches_oracle(self):
        rng = random.Random(1605)
        session = Session(parse_database(NARY_DB))
        churn = [
            ProperAtom("B", (ordc("u3"), obj("a0"))),
            ProperAtom("T", (ordc("u1"), obj("a2"), ordc("u2"))),
            ProperAtom("B", (ordc("u0"), obj("a2"))),
        ]
        asserted: set = set()
        for step in range(24):
            fact = rng.choice(churn)
            if fact in asserted:
                session.retract_facts(fact)
                asserted.discard(fact)
            else:
                session.assert_facts(fact)
                asserted.add(fact)
            text = rng.choice(OBJECT_CONSTANT_QUERIES + ("T(t, a2, s) & t < s",))
            query = parse_query(text, session.db)
            got = session.explain(query)
            with reference.naive_mode():
                want = Session(session.db).explain(query)
            assert (got.holds, got.method, got.countermodel) == (
                want.holds, want.method, want.countermodel
            ), (step, text)


class TestUnknownFreeVariables:
    def test_prepare_rejects_a_free_variable_the_query_lacks(self):
        db = parse_database("On(p1, lamp); p1 < p2")
        session = Session(db)
        query = parse_query("On(s, X)", db)
        with pytest.raises(ValueError, match="Y"):
            session.prepare(query, free_vars=(objvar("Y"),))
        with pytest.raises(ValueError, match="Y"):
            session.certain_answers(query, (objvar("X"), objvar("Y")))
        assert session.certain_answers(query, (objvar("X"),)) == {("lamp",)}
