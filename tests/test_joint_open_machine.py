"""The constraint-indexed grounding machine and the joint open-query machine.

:class:`~repro.algorithms.modelcheck.GroundingMachine` steps by memoized
per-constraint masks instead of walking every viable grounding; the
reference walk below (the per-grounding ``advance``/``_settle`` the
masks replaced) pins its states value for value.

An open n-ary plan grounds its DNF once with the answer variables as
join slots, and :func:`~repro.algorithms.bruteforce.entailment_sweep`
decides every candidate tuple as a start state of one region walk.  The
differentials compare that against the literal per-tuple answers of
:func:`repro.substrate.reference.naive_mode`, on random databases and on
the shapes the binding tags treat specially: a disjunct without the free
variable, two free variables, no free variables, an empty object domain
and an inconsistent database.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from repro.algorithms import modelcheck
from repro.algorithms.bruteforce import (
    OpenQuery,
    entailment_sweep,
    entails_bruteforce,
)
from repro.algorithms.modelcheck import GroundingMachine
from repro.api.session import Session
from repro.core.atoms import OrderAtom, ProperAtom, Rel
from repro.core.database import IndefiniteDatabase
from repro.core.modelengine import (
    ALL_FAIL,
    SATISFIED,
    ModelEngine,
    RegionDP,
)
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery, as_dnf
from repro.core.sorts import obj, objvar, ordc, ordvar
from repro.engine.batch import QueryRequest, execute_many
from repro.substrate import reference
from repro.workloads.generators import random_nary_database, random_nary_query

PREDS = (("B", 2), ("C", 3))
EQ, LE, NE = modelcheck._EQ, modelcheck._LE, modelcheck._NE
x0, x1, y = objvar("x0"), objvar("x1"), objvar("y")


def random_db(rng: random.Random, max_objects: int = 3) -> IndefiniteDatabase:
    return random_nary_database(
        rng,
        n_order=rng.randrange(1, 5),
        n_objects=rng.randrange(1, max_objects + 1),
        n_facts=rng.randrange(0, 8),
        preds=PREDS,
        neq_prob=0.1,
    )


def random_open_query(rng: random.Random, n_free: int) -> DisjunctiveQuery:
    """One to three disjuncts over x0/x1; some rename x0 away, so they
    lack that free variable."""
    disjuncts = []
    for _ in range(rng.randrange(1, 4)):
        cq = random_nary_query(
            rng, rng.randrange(1, 4), rng.randrange(1, 3), max(n_free, 1),
            preds=PREDS, neq_prob=0.15,
        )
        if rng.random() < 0.3:
            cq = cq.substitute({x0: y})
        disjuncts.append(cq)
    return DisjunctiveQuery(tuple(disjuncts))


def naive_answers(db, query, free) -> frozenset:
    """The literal per-tuple certain answers: one naive entailment check
    of each substituted query."""
    domain = sorted(db.object_constants)
    dnf = as_dnf(query)
    with reference.naive_mode():
        return frozenset(
            combo
            for combo in product(domain, repeat=len(free))
            if entails_bruteforce(
                db, dnf.substitute({v: obj(c) for v, c in zip(free, combo)})
            ).holds
        )


def mentions(query: DisjunctiveQuery, var) -> bool:
    return any(var in d.variables() for d in query.disjuncts)


class TestJointAnswersDifferential:
    def test_random_open_queries_match_per_tuple_naive(self):
        rng = random.Random(2503)
        checked = 0
        for trial in range(60):
            db = random_db(rng)
            n_free = rng.choice((1, 1, 2))
            query = random_open_query(rng, n_free)
            free = (x0, x1)[:n_free]
            if not all(mentions(query, v) for v in free):
                continue
            got = Session(db).prepare(query, free_vars=free).execute()
            assert got.answers == naive_answers(db, query, free), trial
            with reference.naive_mode():
                slow = Session(db).prepare(query, free_vars=free).execute()
            assert got == slow, trial
            checked += 1
        assert checked >= 30

    def test_disjunct_without_the_free_variable(self):
        db = IndefiniteDatabase.from_atoms([
            ProperAtom("B", (ordc("u0"), obj("a0"))),
            ProperAtom("B", (ordc("u1"), obj("a1"))),
            ProperAtom("C", (ordc("u1"), obj("a0"), ordc("u2"))),
            OrderAtom(ordc("u0"), Rel.LT, ordc("u1")),
        ])
        t0, t1 = ordvar("t0"), ordvar("t1")
        with_x = ConjunctiveQuery.from_atoms([
            ProperAtom("B", (t0, x0)),
            ProperAtom("B", (t1, y)),
            OrderAtom(t0, Rel.LT, t1),
        ])
        without_x = ConjunctiveQuery.from_atoms([
            ProperAtom("C", (t0, y, t1)),
            OrderAtom(t1, Rel.LT, t0),
        ])
        query = DisjunctiveQuery((with_x, without_x))
        got = Session(db).prepare(query, free_vars=(x0,)).execute()
        assert got.answers == naive_answers(db, query, (x0,))
        assert got.answers == frozenset({("a0",)})

    def test_two_free_variables(self):
        rng = random.Random(77)
        for trial in range(20):
            db = random_db(rng)
            query = random_open_query(rng, 2)
            if not (mentions(query, x0) and mentions(query, x1)):
                continue
            got = Session(db).prepare(query, free_vars=(x1, x0)).execute()
            assert got.answers == naive_answers(db, query, (x1, x0)), trial

    def test_no_free_variables(self):
        rng = random.Random(5)
        for trial in range(20):
            db = random_db(rng)
            query = random_open_query(rng, 1)
            got = Session(db).prepare(query, free_vars=()).execute()
            expect = naive_answers(db, query, ())
            assert got.answers == expect, trial
            assert got.holds == entails_bruteforce(db, query).holds, trial

    def test_empty_object_domain(self):
        db = IndefiniteDatabase.from_atoms([
            OrderAtom(ordc("u0"), Rel.LT, ordc("u1")),
            ProperAtom("P", (ordc("u0"),)),
        ])
        query = as_dnf(random_nary_query(random.Random(3), 2, 2, 1, PREDS))
        got = Session(db).prepare(query, free_vars=(x0,)).execute()
        assert got.answers == frozenset() == naive_answers(db, query, (x0,))
        # no candidates: the sweep builds no machine and answers nothing
        open_query = OpenQuery(query, (x0,), ())
        assert entailment_sweep(db, (), open_queries=[open_query]) == {
            open_query: frozenset()
        }

    def test_inconsistent_database(self):
        db = IndefiniteDatabase.from_atoms([
            ProperAtom("B", (ordc("u0"), obj("a0"))),
            ProperAtom("B", (ordc("u1"), obj("a1"))),
            OrderAtom(ordc("u0"), Rel.LT, ordc("u1")),
            OrderAtom(ordc("u1"), Rel.LT, ordc("u0")),
        ])
        query = as_dnf(random_nary_query(random.Random(4), 2, 2, 1, PREDS))
        candidates = (("a0",), ("a1",))
        open_query = OpenQuery(query, (x0,), candidates)
        fast = entailment_sweep(db, (), open_queries=[open_query])
        with reference.naive_mode():
            slow = entailment_sweep(db, (), open_queries=[open_query])
        assert fast == slow == {open_query: frozenset(candidates)}
        got = Session(db).prepare(query, free_vars=(x0,)).execute()
        assert got.answers == naive_answers(db, query, (x0,))


class TestPooledParity:
    def test_execute_many_equals_sequential_execute(self):
        rng = random.Random(9090)
        for trial in range(15):
            db = random_db(rng, max_objects=4)
            requests = []
            for _ in range(rng.randrange(2, 6)):
                roll = rng.random()
                if roll < 0.5:
                    query = random_open_query(rng, 1)
                    if not mentions(query, x0):
                        continue
                    requests.append(QueryRequest(query, free_vars=(x0,)))
                elif roll < 0.65:
                    requests.append(QueryRequest(
                        random_open_query(rng, 1), free_vars=()
                    ))
                else:
                    requests.append(QueryRequest(random_open_query(rng, 1)))
            requests += requests[:1]  # a repeated plan key
            batched = execute_many(Session(db), requests)
            for request, result in zip(requests, batched):
                solo = request.prepare(Session(db)).execute()
                assert result == solo, trial


class TestOneJoinPerDisjunct:
    def test_open_plan_compiles_one_join_per_disjunct(self, monkeypatch):
        compiled = []
        original = modelcheck._Join.__init__

        def counting(self, *args, **kwargs):
            compiled.append(args[0])
            original(self, *args, **kwargs)

        monkeypatch.setattr(modelcheck._Join, "__init__", counting)
        objects = [f"a{i}" for i in range(6)]
        db = IndefiniteDatabase.from_atoms(
            [ProperAtom("B", (ordc(f"u{i % 3}"), obj(a)))
             for i, a in enumerate(objects)]
            + [OrderAtom(ordc("u0"), Rel.LT, ordc("u1"))]
        )
        query = DisjunctiveQuery((
            random_nary_query(random.Random(1), 2, 2, 1, (("B", 2),)),
            random_nary_query(random.Random(2), 2, 2, 1, (("B", 2),)),
        ))
        assert mentions(query, x0)
        session = Session(db)
        result = session.prepare(query, free_vars=(x0,)).execute()
        assert result.method == "prepared-models"
        assert len(compiled) == len(query.disjuncts) == 2

        # pooled: each open plan still compiles its disjuncts once
        compiled.clear()
        other = as_dnf(random_nary_query(random.Random(3), 2, 2, 1,
                                         (("B", 2),)))
        execute_many(Session(db), [
            QueryRequest(query, free_vars=(x0,)),
            QueryRequest(other, free_vars=(x0,)),
        ])
        assert len(compiled) == 3


def reference_advance(groundings, state, region, block):
    """The per-grounding walk the constraint masks replaced."""
    viable = state
    m = state
    while m:
        low = m & -m
        gi = low.bit_length() - 1
        m ^= low
        for u, v, kind in groundings[gi]:
            ubit, vbit = 1 << u, 1 << v
            both = ubit | vbit
            if both & region != both or not both & block:
                continue
            if ubit & block:
                ok = kind in (EQ, LE) if vbit & block else kind != EQ
            else:
                ok = kind == NE
            if not ok:
                viable &= ~low
                break
    if viable == 0:
        return ALL_FAIL
    return reference_settle(groundings, viable, region & ~block)


def reference_settle(groundings, viable, region):
    m = viable
    while m:
        low = m & -m
        gi = low.bit_length() - 1
        m ^= low
        if all(
            (1 << u | 1 << v) & region != (1 << u | 1 << v)
            for u, v, _ in groundings[gi]
        ):
            return SATISFIED
    return viable


class TestConstraintIndexedMachine:
    def test_steps_match_the_per_grounding_walk(self):
        rng = random.Random(31337)
        steps = 0
        for trial in range(40):
            db = random_db(rng)
            norm = db.graph().normalize()
            if not norm.consistent:
                continue
            engine = ModelEngine(norm.graph)
            query = random_open_query(rng, 1)
            machine = GroundingMachine(engine, db, norm.canon, query)
            groundings = machine.groundings
            if not groundings:
                assert machine.initial(engine.full) is ALL_FAIL
                continue
            full_mask = (1 << len(groundings)) - 1
            assert machine.initial(engine.full) == reference_settle(
                groundings, full_mask, engine.full
            )
            for _ in range(10):
                # a random walk down the region DAG from a random state
                region = engine.full
                state = rng.randrange(1, full_mask + 1)
                while region and isinstance(state, int):
                    block = rng.choice(engine.blocks(region))
                    got = machine.advance(state, region, block)
                    want = reference_advance(groundings, state, region, block)
                    assert got is want or got == want, trial
                    # a second call answers from the memo, identically
                    assert machine.advance(state, region, block) == got
                    state, region = got, region & ~block
                    steps += 1
        assert steps > 100

    def test_start_states_decide_like_the_substituted_machines(self):
        """A candidate starts from its tagged groundings, and from there
        one shared DP counts exactly the countermodels a machine built
        for the substituted query counts.  (The grounding sets themselves
        may differ: substitution re-canonicalizes the atom order, which
        can change the occurrence anchoring a repeated order variable.)"""
        rng = random.Random(4242)
        decided = 0
        for trial in range(40):
            db = random_db(rng)
            norm = db.graph().normalize()
            if not norm.consistent:
                continue
            engine = ModelEngine(norm.graph)
            n_free = rng.choice((1, 2))
            free = (x0, x1)[:n_free]
            query = random_open_query(rng, n_free)
            joint = GroundingMachine(engine, db, norm.canon, query, free)
            dp = RegionDP(engine, joint)
            domain = sorted(db.object_constants)
            for combo in product(domain, repeat=n_free):
                mask = 0
                for binding, m in joint.answers.items():
                    if all(b is None or b == c for b, c in zip(binding, combo)):
                        mask |= m
                want = (
                    ALL_FAIL if not mask
                    else reference_settle(joint.groundings, mask, engine.full)
                )
                start = joint.start(combo, engine.full)
                assert start is want or start == want, (trial, combo)
                substituted = query.substitute(
                    {v: obj(c) for v, c in zip(free, combo)}
                )
                solo = RegionDP(
                    engine,
                    GroundingMachine(engine, db, norm.canon, substituted),
                )
                assert dp.count_failures(engine.full, start) == (
                    solo.count_failures()
                ), (trial, combo)
                assert dp.entailed(start) == solo.entailed(), (trial, combo)
                decided += 1
        assert decided > 40


@pytest.mark.parametrize("seed", range(3))
def test_sweep_mixes_closed_and_open_queries(seed):
    rng = random.Random(seed)
    db = random_db(rng, max_objects=3)
    closed = [as_dnf(random_open_query(rng, 1)) for _ in range(2)]
    query = random_open_query(rng, 1)
    domain = sorted(db.object_constants)
    open_query = OpenQuery(query, (x0,), tuple((c,) for c in domain))
    fast = entailment_sweep(
        db, closed, witness_queries=closed, open_queries=[open_query]
    )
    with reference.naive_mode():
        slow = entailment_sweep(
            db, closed, witness_queries=closed, open_queries=[open_query]
        )
    assert fast == slow
    assert len(fast) == len(set(closed)) + 1
