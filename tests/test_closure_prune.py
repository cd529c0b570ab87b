"""Closure-aware grounding: the order graph prunes the grounding join.

:class:`~repro.algorithms.modelcheck.GroundingMachine` reads the
database's order closure as bitmask rows
(:meth:`~repro.core.modelengine.ModelEngine.closure_rows`).  A grounding
holding a constraint the graph refutes fails in every minimal model, so
the join drops it; a constraint the graph entails never fails, so the
join leaves it out; and a closed query whose join reaches a grounding
with no constraint left is entailed without a region walk.  The tests
pin the switches (no rows for an inconsistent graph, no prune while a
foreign constant must raise), the effect (fewer groundings, no
``RegionDP`` on the early exit), the lazily built countermodel, and the
verdicts against the naive enumeration of
:func:`repro.substrate.reference.naive_mode` on densely ordered
databases.
"""

from __future__ import annotations

import pickle
import random
from itertools import product

import pytest

from repro.algorithms import modelcheck
from repro.algorithms.bruteforce import (
    OpenQuery,
    count_countermodels,
    entailment_sweep,
    entails_bruteforce,
)
from repro.algorithms.modelcheck import GroundingMachine
from repro.api.session import Session
from repro.core import modelengine
from repro.core.atoms import OrderAtom, ProperAtom, Rel
from repro.core.database import IndefiniteDatabase
from repro.core.modelengine import ModelEngine
from repro.core.models import DeferredStructure, LazyModel, Structure
from repro.core.ordergraph import OrderGraph
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery, as_dnf
from repro.core.sorts import obj, objvar, ordc, ordvar
from repro.substrate import reference
from repro.workloads.generators import random_nary_database, random_nary_query

PREDS = (("B", 2), ("C", 3))
t0, t1 = ordvar("t0"), ordvar("t1")
x0, x1 = objvar("x0"), objvar("x1")


def order(u: str, rel: Rel, v: str) -> OrderAtom:
    return OrderAtom(ordc(u), rel, ordc(v))


def fact(pred: str, vertex: str) -> ProperAtom:
    """A binary fact (the object argument keeps the database n-ary)."""
    return ProperAtom(pred, (ordc(vertex), obj("a0")))


def at(pred: str, term) -> ProperAtom:
    return ProperAtom(pred, (term, x0))


def two_chains() -> IndefiniteDatabase:
    """``u0 < u1`` and ``u2 < u3``; A on the chain bottoms, B on the tops."""
    return IndefiniteDatabase.from_atoms([
        fact("A", "u0"), fact("A", "u2"), fact("B", "u1"), fact("B", "u3"),
        order("u0", Rel.LT, "u1"), order("u2", Rel.LT, "u3"),
    ])


#: B after A: two of its four groundings put a chain top before its bottom
AFTER = ConjunctiveQuery.from_atoms([
    at("A", t0), at("B", t1), OrderAtom(t1, Rel.LT, t0),
])


def machine_for(db: IndefiniteDatabase, query, free_vars=()):
    norm = db.graph().normalize()
    engine = ModelEngine(norm.graph)
    return engine, GroundingMachine(engine, db, norm.canon, as_dnf(query),
                                    free_vars)


def dense_db(rng: random.Random) -> IndefiniteDatabase:
    return random_nary_database(
        rng,
        n_order=rng.randrange(2, 6),
        n_objects=rng.randrange(1, 3),
        n_facts=rng.randrange(2, 9),
        preds=PREDS,
        edge_prob=0.7,
        le_prob=0.4,
        neq_prob=0.3,
    )


def dense_query(rng: random.Random, n_object_vars: int) -> DisjunctiveQuery:
    return DisjunctiveQuery(tuple(
        random_nary_query(
            rng, rng.randrange(1, 4), rng.randrange(1, 4), n_object_vars,
            preds=PREDS, order_atom_prob=0.8, neq_prob=0.4,
        )
        for _ in range(rng.randrange(1, 3))
    ))


class TestClosureRows:
    def test_rows_decide_like_entails_atom(self):
        rng = random.Random(26)
        checked = 0
        for _ in range(40):
            db = dense_db(rng)
            norm = db.graph().normalize()
            if not norm.consistent:
                continue
            graph = norm.graph
            engine = ModelEngine(graph)
            rows = engine.closure_rows()
            assert rows is engine.closure_rows()  # built once per engine
            for u, v in product(engine.verts, repeat=2):
                if u == v:
                    continue
                i, j = engine.index[u], engine.index[v]
                assert bool(rows.reach[i] >> j & 1) == graph.entails_atom(
                    u, v, Rel.LE)
                assert bool(rows.strict[i] >> j & 1) == graph.entails_atom(
                    u, v, Rel.LT)
                assert bool(rows.apart[i] >> j & 1) == graph.entails_atom(
                    u, v, Rel.NE)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("atoms", [
        [order("u0", Rel.LT, "u1"), order("u1", Rel.LE, "u0")],
        [order("u0", Rel.LE, "u1"), order("u1", Rel.LE, "u0"),
         order("u0", Rel.NE, "u1")],
        [order("u0", Rel.NE, "u0")],
    ])
    def test_inconsistent_graph_has_no_rows(self, atoms):
        graph = OrderGraph.from_atoms(atoms)
        assert not graph.is_consistent()
        assert ModelEngine(graph).closure_rows() is None

    def test_inconsistent_graph_turns_the_prune_off(self):
        db = IndefiniteDatabase.from_atoms([
            fact("A", "u0"), fact("B", "u1"),
            order("u1", Rel.LT, "u0"), order("u0", Rel.LT, "u1"),
        ])
        engine = ModelEngine(db.graph())  # unnormalized: the '<' cycle stays
        assert engine.closure_rows() is None
        machine = GroundingMachine(engine, db, {}, as_dnf(AFTER))
        u0, u1 = engine.index["u0"], engine.index["u1"]
        # u1 < u0 is an edge, yet without rows it stays a constraint
        assert machine.groundings == [frozenset({(u1, u0, modelcheck._LT)})]
        assert not machine.entailed


#: (database order atoms over u0/u1, query order atoms over t0/t1/t2,
#: entailed?) -- the database has A(u0, a0) and B(u1, a0), the query
#: A(t0, x0) & B(t1, x0); t2 occurs in no proper atom.  Each row puts
#: one refute/entail rule on its edge: a '<=' path is not a '<' one, and
#: a '<=' path back is not a refutation of '<='.
RULES = [
    ([("u1", Rel.LE, "u0")], [("t0", Rel.LE, "t1")], False),
    ([("u0", Rel.LE, "u1")], [("t0", Rel.LE, "t1")], True),
    ([("u1", Rel.LT, "u0")], [("t0", Rel.LE, "t1")], False),
    ([("u0", Rel.LE, "u1")], [("t0", Rel.LT, "t1")], False),
    ([("u0", Rel.LT, "u1")], [("t0", Rel.LT, "t1")], True),
    ([("u1", Rel.LE, "u0")], [("t0", Rel.LT, "t1")], False),
    ([("u0", Rel.LE, "u1")], [("t0", Rel.NE, "t1")], False),
    ([("u1", Rel.LT, "u0")], [("t0", Rel.NE, "t1")], True),
    ([("u0", Rel.NE, "u1")], [("t0", Rel.NE, "t1")], True),
    ([], [("t0", Rel.LE, "t1")], False),
    ([("u0", Rel.LT, "u1")], [("t0", Rel.LT, "t2")], True),
    ([("u1", Rel.LE, "u0")], [("t1", Rel.LT, "t2"), ("t2", Rel.LE, "t0")],
     False),
    ([("u0", Rel.LE, "u1")], [("t0", Rel.LE, "t2"), ("t2", Rel.LE, "t1"),
                              ("t2", Rel.NE, "t0")], False),
]

#: (database order atoms, entailed?) for ``A(t0, x0) & B(t0, x0)``: the
#: join anchors t0 on u0 and on u1, so the grounding is ``u0 = u1``
ANCHORS = [
    ([("u0", Rel.LE, "u1")], False),
    ([("u0", Rel.LE, "u1"), ("u1", Rel.LE, "u0")], True),
    ([("u0", Rel.LT, "u1")], False),
    ([("u1", Rel.NE, "u0")], False),
]


def rule_db(atoms) -> IndefiniteDatabase:
    return IndefiniteDatabase.from_atoms(
        [fact("A", "u0"), fact("B", "u1")]
        + [order(u, rel, v) for u, rel, v in atoms]
    )


def assert_matches_naive(db, query, entailed: bool) -> None:
    fast = entails_bruteforce(db, query)
    count = count_countermodels(db, query)
    with reference.naive_mode():
        assert entails_bruteforce(db, query) == fast
        assert count_countermodels(db, query) == count
    assert fast.holds is entailed
    assert (count == 0) is entailed


class TestRules:
    @pytest.mark.parametrize("db_atoms, query_atoms, entailed", RULES)
    def test_order_atom(self, db_atoms, query_atoms, entailed):
        terms = {"t0": t0, "t1": t1, "t2": ordvar("t2")}
        query = ConjunctiveQuery.from_atoms(
            [at("A", t0), at("B", t1)]
            + [OrderAtom(terms[u], rel, terms[v]) for u, rel, v in query_atoms]
        )
        assert_matches_naive(rule_db(db_atoms), query, entailed)

    @pytest.mark.parametrize("db_atoms, entailed", ANCHORS)
    def test_anchor_equality(self, db_atoms, entailed):
        query = ConjunctiveQuery.from_atoms([at("A", t0), at("B", t0)])
        assert_matches_naive(rule_db(db_atoms), query, entailed)


class TestPrune:
    def test_refuting_database_shrinks_the_grounding_count(self, monkeypatch):
        sizes = []
        original = GroundingMachine.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            sizes.append(len(self.groundings))

        monkeypatch.setattr(GroundingMachine, "__init__", counting)
        db = two_chains()
        pruned = entails_bruteforce(db, AFTER)
        monkeypatch.setattr(ModelEngine, "closure_rows", lambda self: None)
        plain = entails_bruteforce(db, AFTER)
        assert sizes == [2, 4]
        assert pruned == plain
        assert not pruned.holds
        with reference.naive_mode():
            assert entails_bruteforce(db, AFTER) == pruned

    def test_entailed_constraints_leave_the_grounding(self):
        db = two_chains()
        before = ConjunctiveQuery.from_atoms([
            at("A", t0), at("B", t1),
            OrderAtom(t0, Rel.LT, t1), OrderAtom(t0, Rel.NE, t1),
        ])
        _, machine = machine_for(db, before)
        assert machine.entailed  # A(u0) < B(u1) holds in every model
        assert machine.groundings == [frozenset()]
        # open, the join never stops early: each binding keeps its own
        # empty grounding (t1 = t0 on one vertex, or u0 <= u1 entailed)
        _, joint = machine_for(
            IndefiniteDatabase.from_atoms([
                ProperAtom("A", (ordc("u0"), obj("a0"))),
                ProperAtom("A", (ordc("u1"), obj("a1"))),
                order("u0", Rel.LT, "u1"),
            ]),
            ConjunctiveQuery.from_atoms([
                ProperAtom("A", (t0, x0)), ProperAtom("A", (t1, x1)),
                OrderAtom(t0, Rel.LE, t1),
            ]),
            (x0,),
        )
        assert not joint.entailed
        assert joint.groundings == [frozenset()]
        assert joint.answers == {("a0",): 1, ("a1",): 1}

    def test_anchor_equality_the_graph_orders_kills_the_grounding(self):
        """``B(t0, x0) & C(t0, x0)`` anchors t0 on two vertices: with
        u0 < u1 (or u0 != u2) no model puts them on one point."""
        query = ConjunctiveQuery.from_atoms([at("B", t0), at("C", t0)])
        facts = [fact("B", "u0"), fact("C", "u1"), fact("C", "u2")]
        db = IndefiniteDatabase.from_atoms(
            facts + [order("u0", Rel.LT, "u1"), order("u0", Rel.NE, "u2")]
        )
        _, machine = machine_for(db, query)
        assert machine.groundings == []
        assert not entails_bruteforce(db, query).holds
        loose = IndefiniteDatabase.from_atoms(facts + [order("u0", Rel.LE, "u1")])
        engine, machine = machine_for(loose, query)
        u0, u1, u2 = (engine.index[v] for v in ("u0", "u1", "u2"))
        assert machine.groundings == [frozenset({(u0, u1, modelcheck._EQ)}),
                                      frozenset({(u0, u2, modelcheck._EQ)})]

    def test_foreign_constant_still_raises(self):
        """A(u0, a0), B(u1, a0), u0 < u1: the only match of ``t1 < t0`` is
        refuted, and the prune would cut it before the atom with the
        foreign constant ``zz`` -- so the prune stays off and the
        ``KeyError`` raises where the plain join raises it."""
        db = IndefiniteDatabase.from_atoms([
            fact("A", "u0"), fact("B", "u1"),
            fact("C", "u0"),
            order("u0", Rel.LT, "u1"),
        ])
        query = ConjunctiveQuery.from_atoms([
            at("A", t0), at("B", t1),
            OrderAtom(t1, Rel.LT, t0), ProperAtom("C", (t0, obj("zz"))),
        ])
        message = modelcheck._FOREIGN.format(name="zz")
        with pytest.raises(KeyError) as raised:
            entails_bruteforce(db, query)
        assert raised.value.args == (message,)
        # a later disjunct's foreign constant also keeps the early exit off
        entailed = ConjunctiveQuery.from_atoms([
            at("A", t0), at("B", t1),
            OrderAtom(t0, Rel.LT, t1),
        ])
        with pytest.raises(KeyError) as raised:
            entails_bruteforce(db, DisjunctiveQuery((entailed, query)))
        assert raised.value.args == (message,)
        assert entails_bruteforce(db, entailed).holds


class TestEarlyExit:
    def test_early_exit_builds_no_region_dp(self, monkeypatch):
        built = []
        original = modelengine.RegionDP.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(modelengine.RegionDP, "__init__", counting)
        db = two_chains()
        before = ConjunctiveQuery.from_atoms([
            at("A", t0), at("B", t1),
            OrderAtom(t0, Rel.LT, t1),
        ])
        assert entails_bruteforce(db, before).holds
        assert count_countermodels(db, before) == 0
        dnf = as_dnf(before)
        assert entailment_sweep(db, [dnf], witness_queries=[dnf])[dnf].holds
        result = Session(db).prepare(before).execute()
        assert result.holds and result.method == "bruteforce"
        assert built == []
        # a query the join cannot decide still walks the regions
        assert not entails_bruteforce(db, AFTER).holds
        assert len(built) == 1


class TestLazyCountermodel:
    def test_result_builds_its_countermodel_on_first_read(self):
        db = two_chains()
        result = Session(db).prepare(AFTER).execute()
        assert isinstance(LazyModel.stored(result), DeferredStructure)
        model = result.countermodel
        assert isinstance(model, Structure)
        assert LazyModel.stored(result) is model
        with reference.naive_mode():
            slow = Session(db).prepare(AFTER).execute()
        assert result == slow
        assert hash(result) == hash(slow)

    def test_equality_and_pickling_see_the_built_model(self):
        db = two_chains()
        fresh = Session(db).prepare(AFTER).execute()
        other = Session(db).prepare(AFTER).execute()
        assert isinstance(LazyModel.stored(fresh), DeferredStructure)
        assert fresh == other  # builds both
        pickled = Session(db).prepare(AFTER).execute()
        restored = pickle.loads(pickle.dumps(pickled))
        assert isinstance(LazyModel.stored(restored), Structure)
        assert restored == fresh
        assert repr(restored) == repr(fresh)


class TestNaiveDifferential:
    def test_closed_queries_match_naive(self):
        rng = random.Random(2601)
        checked = 0
        for trial in range(60):
            db = dense_db(rng)
            query = dense_query(rng, 1)
            fast = entails_bruteforce(db, query)
            count = count_countermodels(db, query)
            with reference.naive_mode():
                slow = entails_bruteforce(db, query)
                slow_count = count_countermodels(db, query)
            assert fast == slow, trial
            assert count == slow_count, trial
            checked += 1
        assert checked == 60

    def test_open_queries_match_per_tuple_naive(self):
        rng = random.Random(2602)
        checked = 0
        for trial in range(60):
            db = dense_db(rng)
            n_free = rng.choice((1, 2))
            free = (x0, x1)[:n_free]
            query = dense_query(rng, n_free)
            if not all(
                any(v in d.variables() for d in query.disjuncts) for v in free
            ):
                continue
            domain = sorted(db.object_constants)
            combos = tuple(product(domain, repeat=n_free))
            open_query = OpenQuery(query, free, combos)
            got = entailment_sweep(db, (), open_queries=[open_query])
            with reference.naive_mode():
                want = frozenset(
                    c for c in combos
                    if entails_bruteforce(db, open_query.substituted(c)).holds
                )
                slow = Session(db).prepare(query, free_vars=free).execute()
            assert got[open_query] == want, trial
            assert Session(db).prepare(
                query, free_vars=free
            ).execute() == slow, trial
            checked += 1
        assert checked >= 30
