"""Differential tests for the execution engine subsystem.

The load-bearing properties:

* batched (``execute_many``), streamed (``execute_stream``) and
  view-maintained (``MaterializedView``) answers are identical to
  sequential per-request Session execution — which the session suite
  already pins to the one-shot API — across randomized mixed
  read/write request streams;
* the view's object-fact delta path is actually taken (not silently
  falling back to full refreshes) and still always equals a
  from-scratch ``certain_answers``.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Session
from repro.core.atoms import OrderAtom, ProperAtom, Rel, lt
from repro.core.database import IndefiniteDatabase
from repro.core.entailment import certain_answers, explain
from repro.core.errors import SortError
from repro.core.sorts import obj, objvar, ordc, ordvar
from repro.core.query import ConjunctiveQuery
from repro.engine import (
    MaterializedView,
    Mutation,
    QueryRequest,
    execute_many,
    execute_stream,
)
from repro.workloads.generators import (
    random_certain_answers_workload,
    random_nary_database,
    random_nary_query,
    random_request_stream,
)

t1, t2 = ordvar("t1"), ordvar("t2")
u, v, w = ordc("u"), ordc("v"), ordc("w")


def P(t):
    return ProperAtom("P", (t,))

def Q(t):
    return ProperAtom("Q", (t,))


def observe(request: QueryRequest, result) -> object:
    """The observable of a result: verdict, or the certain answers."""
    if request.free_vars is None:
        return result.holds
    assert result.answers is not None
    return frozenset(result.answers)


def outcome_of(fn):
    """(tag, payload): a comparable summary of a call that may raise."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - parity is the point
        return ("raise", type(exc), str(exc))


def one_shot_observe(db: IndefiniteDatabase, request: QueryRequest) -> object:
    """The same observable computed by the stateless one-shot API."""
    if request.free_vars is None:
        return explain(
            db, request.query,
            semantics=request.semantics, method=request.method,
        ).holds
    return frozenset(certain_answers(
        db, request.query, request.free_vars, semantics=request.semantics
    ))


class TestExecuteMany:
    def test_matches_one_shot_per_request(self):
        rng = random.Random(200)
        for _ in range(4):
            db, ops = random_request_stream(
                rng, n_objects=3, n_queries=4, n_ops=12, write_prob=0.0
            )
            requests = [op for op in ops if isinstance(op, QueryRequest)]
            results = execute_many(Session(db), requests)
            for request, result in zip(requests, results):
                assert observe(request, result) == one_shot_observe(
                    db, request
                )

    def test_duplicate_requests_share_one_result(self):
        rng = random.Random(201)
        db, ops = random_request_stream(
            rng, n_objects=3, n_queries=2, n_ops=8, write_prob=0.0
        )
        requests = [op for op in ops if isinstance(op, QueryRequest)]
        results = execute_many(Session(db), requests)
        by_key: dict = {}
        for request, result in zip(requests, results):
            assert by_key.setdefault(request.plan_key, result) is result

    def test_combined_model_sweep_matches_individual_exactly(self):
        # the combined sweep is invisible in the results: each request's
        # Result — verdict, method tag, countermodel, answers — is
        # byte-for-byte what its plan's own execution produces
        rng = random.Random(202)
        for _ in range(6):
            db = random_nary_database(rng, 3, 3, 4)
            requests = []
            for _ in range(3):
                q = random_nary_query(rng, 3, 2, 2)
                free = tuple(sorted(q.object_variables(), key=str)[:1])
                if free:
                    requests.append(QueryRequest(q, free_vars=free))
            if not requests:
                continue
            results = execute_many(Session(db), requests)
            solo_session = Session(db)
            for request, result in zip(requests, results):
                assert observe(request, result) == one_shot_observe(
                    db, request
                )
                solo = request.prepare(solo_session).execute()
                assert result == solo

    def test_empty_batch(self):
        assert execute_many(Session(), []) == []


class TestExecuteStream:
    def test_mixed_stream_matches_sequential_loop(self):
        rng = random.Random(203)
        for _ in range(4):
            db, ops = random_request_stream(
                rng, n_objects=3, n_queries=3, n_ops=20, write_prob=0.4
            )
            got = execute_stream(Session(db), ops)
            # the oracle: replay writes on a fresh database, answer each
            # read with the stateless one-shot API at that exact state
            state = Session(db)
            for op, result in zip(ops, got):
                if isinstance(op, Mutation):
                    assert result is None
                    op.apply(state)
                else:
                    assert observe(op, result) == one_shot_observe(
                        state.db, op
                    )

    def test_midstream_write_exception_parity(self):
        # a clash inside a coalesced write run: the exception and the
        # session state must match the one-op-at-a-time replay
        base = IndefiniteDatabase.of(P(u), Q(v), lt(u, v))
        ops = [
            QueryRequest(ConjunctiveQuery.of(P(t1))),
            Mutation("assert_facts", (ProperAtom("Tag", (obj("zz"),)),)),
            Mutation("assert_facts", (P(ordc("zz")),)),  # clash with ^
            Mutation("assert_facts", (ProperAtom("Tag", (obj("ww"),)),)),
            QueryRequest(ConjunctiveQuery.of(P(t1))),
        ]
        oracle = Session(base)
        want = outcome_of(lambda: [
            op.apply(oracle) for op in ops if isinstance(op, Mutation)
        ])
        assert want[0] == "raise" and want[1] is SortError
        session = Session(base)
        got = outcome_of(lambda: execute_stream(session, list(ops)))
        assert got == want
        # the valid prefix (Tag(zz)) landed; the clash and its suffix did not
        assert session.db == oracle.db
        assert ProperAtom("Tag", (obj("zz"),)) in oracle.db.proper_atoms
        assert ProperAtom("Tag", (obj("ww"),)) not in oracle.db.proper_atoms

    def test_randomized_streams_with_clash_injection(self):
        rng = random.Random(313)
        for round_ in range(6):
            db, ops = random_request_stream(
                rng, n_objects=3, n_queries=3, n_ops=16, write_prob=0.5
            )
            clash_name = sorted(db.object_constants)[0]
            ops = list(ops)
            ops.insert(
                rng.randrange(len(ops)),
                Mutation("assert_facts", (P(ordc(clash_name)),)),
            )
            # oracle: the writes one at a time (reads change nothing)
            oracle = Session(db)
            want = outcome_of(lambda: [
                op.apply(oracle) for op in ops if isinstance(op, Mutation)
            ])
            session = Session(db)
            got = outcome_of(lambda: execute_stream(session, list(ops)))
            assert got[:2] == want[:2], f"round={round_}"
            assert session.db == oracle.db, f"round={round_}"

    def test_mutation_validation(self):
        with pytest.raises(ValueError):
            Mutation("frobnicate", ())
        with pytest.raises(TypeError):
            execute_stream(Session(), ["not an op"])


class TestMaterializedView:
    def test_tracks_randomized_mutation_streams(self):
        rng = random.Random(207)
        x = objvar("x")
        # an open query over the stream generator's vocabulary: one object
        # guard (delta-reactive) plus an ordered monadic pattern
        query = ConjunctiveQuery.of(
            ProperAtom("Tag", (x,)),
            P(t1), Q(t2), lt(t1, t2),
        )
        for round_ in range(3):
            db, ops = random_request_stream(
                rng, n_objects=3, n_queries=2, n_ops=14, write_prob=0.8
            )
            session = Session(db)
            view = MaterializedView(session, query, (x,))
            for op in ops:
                if not isinstance(op, Mutation):
                    continue
                op.apply(session)
                assert view.answers() == frozenset(certain_answers(
                    session.db, query, (x,)
                )), f"round={round_} op={op}"

    def test_object_churn_takes_delta_path(self):
        rng = random.Random(208)
        db, query, free = random_certain_answers_workload(
            rng, width=2, chain_length=2, n_objects=3, n_free=1
        )
        session = Session(db)
        view = MaterializedView(session, query, free)
        assert view.delta_capable
        assert view.full_refreshes == 1
        for i in range(4):
            fact = ProperAtom("Tag", (obj(f"delta{i}"),))
            session.assert_facts(fact)
            assert view.answers() == frozenset(certain_answers(
                session.db, query, free
            ))
            session.retract_facts(fact)
            assert view.answers() == frozenset(certain_answers(
                session.db, query, free
            ))
        # object-only churn never triggered a second full evaluation
        assert view.full_refreshes == 1
        assert view.delta_refreshes == 8

    def test_order_mutation_forces_full_refresh(self):
        session = Session(IndefiniteDatabase.of(
            ProperAtom("On", (u, obj("a"))), ProperAtom("Off", (v, obj("a")))
        ))
        x = objvar("x")
        q = ConjunctiveQuery.of(
            ProperAtom("On", (t1, x)), ProperAtom("Off", (t2, x)), lt(t1, t2)
        )
        view = MaterializedView(session, q, (x,))
        assert view.answers() == frozenset()
        session.assert_order(lt(u, v))
        assert view.answers() == {("a",)}
        assert view.full_refreshes == 2
        session.retract_order(lt(u, v))
        assert view.answers() == frozenset()

    def test_existential_object_vars_disable_delta_but_stay_exact(self):
        # On(t, x) & Match(t2, y): y existential -> a fact on any object
        # can flip any tuple, so the view must not claim delta capability
        x, y = objvar("x"), objvar("y")
        session = Session(IndefiniteDatabase.of(
            ProperAtom("On", (u, obj("a"))),
            ProperAtom("Match", (v, obj("b"))),
        ))
        q = ConjunctiveQuery.of(
            ProperAtom("On", (t1, x)), ProperAtom("Match", (t2, y))
        )
        view = MaterializedView(session, q, (x,))
        assert not view.delta_capable
        for fact in (
            ProperAtom("Match", (obj("c"), obj("d"))),
            ProperAtom("On", (w, obj("e"))),
        ):
            session.assert_facts(fact)
            assert view.answers() == frozenset(certain_answers(
                session.db, q, (x,)
            ))

    def test_new_and_vanishing_constants_in_delta(self):
        session = Session(IndefiniteDatabase.of(
            ProperAtom("Tag", (obj("a"),)), ProperAtom("Tag", (obj("b"),))
        ))
        x = objvar("x")
        q = ConjunctiveQuery.of(ProperAtom("Tag", (x,)))
        view = MaterializedView(session, q, (x,))
        assert view.delta_capable
        assert view.answers() == {("a",), ("b",)}
        session.assert_facts(ProperAtom("Tag", (obj("c"),)))
        assert view.answers() == {("a",), ("b",), ("c",)}
        session.retract_facts(ProperAtom("Tag", (obj("c"),)))
        # 'c' vanished from the domain entirely
        assert view.answers() == {("a",), ("b",)}
        assert view.full_refreshes == 1

    def test_closed_view_stops_tracking_but_recomputes_on_demand(self):
        session = Session(IndefiniteDatabase.of(
            ProperAtom("Tag", (obj("a"),))
        ))
        x = objvar("x")
        view = MaterializedView(
            session, ConjunctiveQuery.of(ProperAtom("Tag", (x,))), (x,)
        )
        view.close()
        session.assert_facts(ProperAtom("Tag", (obj("b"),)))
        assert not view._touched and not view._stale  # no events delivered
        assert view.answers() == {("a",), ("b",)}  # still exact (full path)

    def test_view_against_stream_generator_with_order_writes(self):
        rng = random.Random(209)
        db, query, free = random_certain_answers_workload(
            rng, width=2, chain_length=2, n_objects=2, n_free=1
        )
        session = Session(db)
        view = MaterializedView(session, query, free)
        order_names = sorted(db.order_constants)
        for step in range(8):
            if step % 3 == 2:
                a, b = rng.choice(order_names), rng.choice(order_names)
                session.assert_order(
                    OrderAtom(ordc(a), Rel.LE, ordc(b))
                )
            elif step % 3 == 1:
                session.assert_facts(
                    ProperAtom("P", (ordc(rng.choice(order_names)),))
                )
            else:
                session.assert_facts(
                    ProperAtom("Tag", (obj(f"s{step}"),))
                )
            assert view.answers() == frozenset(certain_answers(
                session.db, query, free
            )), f"step={step}"
