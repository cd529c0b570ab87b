"""Differential tests for the session / prepared-plan API.

The load-bearing property: ``Session.prepare(q).execute()`` is
observationally identical to the one-shot ``explain(db, q)`` — verdict,
method tag and countermodel — for every semantics and every explicit
method, and stays identical while the session's database evolves through
interleaved assert/retract mutations (the cache-invalidation surface).
Certain answers are additionally pinned against the naive per-tuple
loop, which shares no code with the prepared strategies.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from helpers import naive_entails_query
from repro.api import PreparedQuery, Result, Session, render_model
from repro.core.atoms import OrderAtom, ProperAtom, Rel, le, lt, ne
from repro.core.database import IndefiniteDatabase
from repro.core.entailment import certain_answers, entails, explain
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery, as_dnf
from repro.core.semantics import Semantics
from repro.core.sorts import obj, objvar, ordc, ordvar
from repro.workloads.generators import (
    random_certain_answers_workload,
    random_conjunctive_monadic_query,
    random_disjunctive_monadic_query,
    random_labeled_dag,
    random_nary_database,
    random_nary_query,
)

t1, t2 = ordvar("t1"), ordvar("t2")
u, v, w = ordc("u"), ordc("v"), ordc("w")


def P(t):
    return ProperAtom("P", (t,))


def Q(t):
    return ProperAtom("Q", (t,))


def _report(result: Result):
    return (result.holds, result.method, result.countermodel)


def _one_shot(db, query, semantics=Semantics.FIN, method="auto"):
    r = explain(db, query, semantics=semantics, method=method)
    return (r.holds, r.method, r.countermodel)


def naive_certain_answers(db, query, free_vars, semantics=Semantics.FIN):
    """The pre-session loop: one full pipeline per candidate tuple."""
    dnf = as_dnf(query)
    domain = sorted(db.object_constants)
    return {
        combo
        for combo in product(domain, repeat=len(free_vars))
        if entails(
            db,
            dnf.substitute(dict(zip(free_vars, map(obj, combo)))),
            semantics=semantics,
        )
    }


class TestClosedEquivalence:
    def test_matches_one_shot_all_semantics(self):
        rng = random.Random(100)
        for _ in range(25):
            dag = random_labeled_dag(rng, rng.randrange(0, 5))
            db = dag.to_database()
            q = random_disjunctive_monadic_query(rng, rng.randrange(1, 3), 2)
            session = Session(db)
            for sem in Semantics:
                plan = session.prepare(q, semantics=sem)
                assert _report(plan.execute()) == _one_shot(db, q, sem)
                # repeated execution returns the identical result
                assert _report(plan.execute()) == _one_shot(db, q, sem)

    def test_matches_one_shot_every_method(self):
        rng = random.Random(101)
        for _ in range(20):
            dag = random_labeled_dag(rng, rng.randrange(0, 5))
            db = dag.to_database()
            session = Session(db)
            cq = random_conjunctive_monadic_query(rng, rng.randrange(0, 4))
            for method in ("auto", "bruteforce", "paths", "bounded_width",
                           "basis", "theorem53"):
                assert (
                    session.prepare(cq, method=method).execute().holds
                    == entails(db, cq, method=method)
                )
            dq = random_disjunctive_monadic_query(rng, 2, 2)
            for method in ("auto", "bruteforce", "theorem53"):
                assert _report(
                    session.prepare(dq, method=method).execute()
                ) == _one_shot(db, dq, method=method)

    def test_matches_naive_oracle(self):
        rng = random.Random(102)
        for _ in range(20):
            dag = random_labeled_dag(rng, rng.randrange(1, 5))
            q = random_disjunctive_monadic_query(rng, 2, 2)
            session = Session(dag.to_database())
            assert session.entails(q) == naive_entails_query(dag, q)

    def test_query_constants_and_neq(self):
        db = IndefiniteDatabase.of(P(u), Q(v), lt(u, v))
        session = Session(db)
        assert not session.entails(ConjunctiveQuery.of(Q(u)))
        assert session.entails(ConjunctiveQuery.of(P(u)))
        neq_q = ConjunctiveQuery.of(P(t1), Q(t2), ne(t1, t2))
        assert _report(session.prepare(neq_q).execute()) == _one_shot(db, neq_q)

    def test_neq_database_routes_to_bruteforce(self):
        db = IndefiniteDatabase.of(P(u), P(v), ne(u, v))
        q = ConjunctiveQuery.of(P(t1), P(t2), ne(t1, t2))
        result = Session(db).prepare(q).execute()
        assert result.holds and result.method == "bruteforce"

    def test_vacuous_trivial_unsat(self):
        bad = Session(IndefiniteDatabase.of(lt(u, v), lt(v, u)))
        assert bad.prepare(ConjunctiveQuery.of(P(t1))).execute().method == "vacuous"
        ok = Session(IndefiniteDatabase.of(P(u)))
        assert ok.prepare(ConjunctiveQuery.of()).execute().method == "trivial"
        impossible = ConjunctiveQuery.of(P(t1), lt(t1, t1))
        r = ok.prepare(impossible).execute()
        assert not r.holds and r.method == "unsatisfiable-query"

    def test_method_validation(self):
        session = Session(IndefiniteDatabase.of(P(u)))
        with pytest.raises(ValueError):
            session.prepare(ConjunctiveQuery.of(P(t1)), method="nonsense")
        with pytest.raises(ValueError):
            session.prepare(
                ConjunctiveQuery.of(P(t1)), free_vars=(t1,)
            )


class TestMutationInvalidation:
    def test_interleaved_mutations_match_one_shot(self):
        rng = random.Random(103)
        dag = random_labeled_dag(rng, 4)
        session = Session(dag.to_database())
        queries = [
            random_disjunctive_monadic_query(rng, rng.randrange(1, 3), 2)
            for _ in range(6)
        ]
        plans = [session.prepare(q) for q in queries]
        extra_facts = [P(ordc(f"m{i}")) for i in range(4)]
        for step in range(12):
            kind = step % 4
            if kind == 0:
                session.assert_facts(extra_facts[step % len(extra_facts)])
            elif kind == 1:
                session.assert_order(
                    OrderAtom(
                        ordc(f"m{step % 4}"),
                        Rel.LT if step % 2 else Rel.LE,
                        ordc("u0"),
                    )
                )
            elif kind == 2:
                session.retract_facts(extra_facts[(step - 2) % len(extra_facts)])
            else:
                session.retract_order(
                    OrderAtom(ordc("m1"), Rel.LT, ordc("u0"))
                )
            current = session.db
            for q, plan in zip(queries, plans):
                assert _report(plan.execute()) == _one_shot(current, q), (
                    f"step={step} q={q}"
                )

    def test_object_fact_churn_keeps_order_verdicts(self):
        rng = random.Random(104)
        db, query, free = random_certain_answers_workload(
            rng, width=2, chain_length=2, n_objects=3, n_free=1
        )
        session = Session(db)
        plan = session.prepare(query, free_vars=free)
        assert set(plan.execute().answers) == naive_certain_answers(
            db, query, free
        )
        epoch_ctx = session.context()
        memo_before = dict(plan._order_memo)
        session.assert_facts(ProperAtom("Tag", (obj("newobj"),)))
        assert set(plan.execute().answers) == naive_certain_answers(
            session.db, query, free
        )
        # object-only churn must not have torn down the order-part memo
        assert session.context() is epoch_ctx
        for key, result in memo_before.items():
            assert plan._order_memo.get(key) is result

    def test_order_mutation_resets_order_verdicts(self):
        session = Session(IndefiniteDatabase.of(P(u), Q(v)))
        q = ConjunctiveQuery.of(P(t1), Q(t2), lt(t1, t2))
        plan = session.prepare(q)
        assert not plan.execute().holds
        session.assert_order(lt(u, v))
        assert plan.execute().holds
        assert _report(plan.execute()) == _one_shot(session.db, q)
        session.retract_order(lt(u, v))
        assert not plan.execute().holds

    def test_retract_to_empty(self):
        session = Session(IndefiniteDatabase.of(P(u)))
        plan = session.prepare(ConjunctiveQuery.of(P(t1)))
        assert plan.execute().holds
        session.retract_facts(P(u))
        assert not plan.execute().holds
        assert session.size() == 0

    def test_zero_arity_facts_invalidate_live_session(self):
        # a propositional (zero-arity) fact has neither object nor order
        # arguments; it must still bump a generation (it rides the
        # object one) or live contexts, observers and snapshot deltas
        # would silently miss it
        rain = ProperAtom("Rain", ())
        q = ConjunctiveQuery.of(rain)
        session = Session()
        assert not session.entails(q)
        base = Session()  # the older state, as a follower's rebase holds it
        assert not base.entails(q)
        session.assert_facts(rain)
        assert session.entails(q)  # the live session sees its own write
        assert Session(session.db).entails(q)
        delta = session.snapshot_delta(base)
        assert delta is not None
        assert base.apply_snapshot_delta(delta).entails(q)
        session.retract_facts(rain)
        assert not session.entails(q)

    def test_snapshot_delta_after_every_mutation_class(self):
        # a session holding an older state, advanced by one delta per
        # write with its caches warm, answers exactly like a fresh
        # session on the new state (what a WAL follower's rebase does)
        rng = random.Random(303)
        db, query, free = random_certain_answers_workload(
            rng, width=2, chain_length=2, n_objects=3, n_free=1
        )
        x = objvar("x")
        order_name = sorted(db.order_constants)[0]
        fresh = ordc("brandnew")
        tag = ProperAtom("Tag", (obj("nw"),))
        label = ProperAtom("B", (ordc(order_name),))
        vertex = ProperAtom("A", (fresh,))
        edge = OrderAtom(fresh, Rel.LT, ordc(order_name))
        mutations = [
            lambda s: s.assert_facts(tag),       # object generation
            lambda s: s.assert_facts(label),     # label generation
            lambda s: s.assert_facts(vertex),    # graph: a fresh vertex
            lambda s: s.assert_order(edge),      # graph: an order atom
            lambda s: s.retract_order(edge),
            lambda s: s.retract_facts(vertex),
            lambda s: s.retract_facts(label),
            lambda s: s.retract_facts(tag),
        ]
        # each mutation flips at least one of these
        plans = [
            (query, free),
            (ConjunctiveQuery.of(ProperAtom("Tag", (x,))), (x,)),
            (ConjunctiveQuery.of(ProperAtom("B", (t1,))), None),
            (ConjunctiveQuery.of(
                ProperAtom("A", (t1,)), ProperAtom("B", (t2,)), lt(t1, t2)
            ), None),
        ]

        def answers(s):
            return [
                s.prepare(q, free_vars=fv).execute() for q, fv in plans
            ]

        session, follower = Session(db), Session(db)
        before = answers(follower)  # warm the follower's caches and plans
        for i, mutate in enumerate(mutations):
            mutate(session)
            delta = session.snapshot_delta(follower)
            assert delta is not None, f"mutation #{i}"
            follower.apply_snapshot_delta(delta)
            assert follower._gens() == session._gens()
            assert session.snapshot_delta(follower) is None
            after = answers(follower)
            assert after == answers(Session(session.db)), f"mutation #{i}"
            assert after != before, f"mutation #{i} changed no answer"
            before = after

    def test_mutators_validate_groundness(self):
        session = Session()
        from repro.core.errors import SortError

        with pytest.raises(SortError):
            session.assert_facts(P(t1))
        with pytest.raises(SortError):
            session.assert_order(lt(t1, t2))


class TestCertainAnswers:
    def test_split_workloads_match_naive(self):
        rng = random.Random(105)
        for _ in range(8):
            db, query, free = random_certain_answers_workload(
                rng, width=2, chain_length=2, n_objects=3,
                n_disjuncts=2, n_free=rng.randrange(1, 3),
            )
            got = Session(db).certain_answers(query, free)
            assert got == naive_certain_answers(db, query, free)
            assert got == certain_answers(db, query, free)

    def test_split_workloads_all_semantics(self):
        rng = random.Random(106)
        for _ in range(4):
            db, query, free = random_certain_answers_workload(
                rng, width=2, chain_length=2, n_objects=2, n_free=1
            )
            for sem in Semantics:
                assert Session(db).certain_answers(
                    query, free, semantics=sem
                ) == naive_certain_answers(db, query, free, semantics=sem)

    def test_nary_workloads_match_naive(self):
        rng = random.Random(107)
        for _ in range(8):
            db = random_nary_database(rng, 3, 3, 4)
            q = random_nary_query(rng, 3, 2, 2)
            free = tuple(sorted(q.object_variables(), key=str)[:1])
            if not free:
                continue
            got = Session(db).certain_answers(q, free)
            assert got == naive_certain_answers(db, q, free)

    def test_neq_database_answers(self):
        db = IndefiniteDatabase.of(
            ProperAtom("On", (u, obj("a"))),
            ProperAtom("On", (v, obj("b"))),
            ne(u, v),
        )
        x = objvar("x")
        q = ConjunctiveQuery.of(ProperAtom("On", (t1, x)))
        assert Session(db).certain_answers(q, (x,)) == naive_certain_answers(
            db, q, (x,)
        )

    def test_answers_after_mutations(self):
        rng = random.Random(108)
        db, query, free = random_certain_answers_workload(
            rng, width=2, chain_length=2, n_objects=3, n_free=1
        )
        session = Session(db)
        plan = session.prepare(query, free_vars=free)
        for i in range(4):
            fact = ProperAtom("Tag", (obj(f"extra{i}"),))
            session.assert_facts(fact)
            assert set(plan.execute().answers) == naive_certain_answers(
                session.db, query, free
            )
            if i % 2:
                session.retract_facts(fact)
                assert set(plan.execute().answers) == naive_certain_answers(
                    session.db, query, free
                )

    def test_zero_free_vars(self):
        db = IndefiniteDatabase.of(P(u))
        q = ConjunctiveQuery.of(P(t1))
        assert Session(db).certain_answers(q, ()) == {()}
        assert Session(db).certain_answers(
            ConjunctiveQuery.of(Q(t1)), ()
        ) == set()

    def test_open_query_with_constants_falls_back(self):
        db = IndefiniteDatabase.of(
            ProperAtom("On", (u, obj("a"))),
            ProperAtom("Tag", (obj("a"),)),
        )
        x = objvar("x")
        q = ConjunctiveQuery.of(
            ProperAtom("On", (t1, x)), ProperAtom("Tag", (obj("a"),))
        )
        result = Session(db).prepare(q, free_vars=(x,)).execute()
        assert result.method == "prepared-fallback"
        assert set(result.answers) == naive_certain_answers(db, q, (x,))

    def test_inconsistent_db_answers_everything(self):
        db = IndefiniteDatabase.of(
            ProperAtom("On", (u, obj("a"))), lt(u, u)
        )
        x = objvar("x")
        q = ConjunctiveQuery.of(ProperAtom("Off", (t1, x)))
        assert Session(db).certain_answers(q, (x,)) == {("a",)}


class TestPlanCacheLRU:
    def _queries(self, n):
        return [ConjunctiveQuery.of(ProperAtom(f"P{i}", (t1,)))
                for i in range(n)]

    def test_eviction_removes_least_recently_used(self):
        session = Session(IndefiniteDatabase.of(P(u)), plan_cache_limit=2)
        q1, q2, q3 = self._queries(3)
        plan1, plan2 = session.prepare(q1), session.prepare(q2)
        # hitting q1 re-inserts it at the most-recent end ...
        assert session.prepare(q1) is plan1
        session.prepare(q3)  # ... so filling the cache evicts q2, not q1
        assert session.prepare(q1) is plan1
        assert session.prepare(q2) is not plan2

    def test_eviction_order_without_hits_is_fifo(self):
        session = Session(IndefiniteDatabase.of(P(u)), plan_cache_limit=2)
        q1, q2, q3 = self._queries(3)
        plan1, plan2 = session.prepare(q1), session.prepare(q2)
        session.prepare(q3)
        assert session.prepare(q2) is plan2  # q2 was newer: retained
        assert session.prepare(q1) is not plan1  # oldest: evicted

    def test_limit_is_respected(self):
        session = Session(IndefiniteDatabase.of(P(u)), plan_cache_limit=3)
        for q in self._queries(10):
            session.prepare(q)
        assert len(session._plans) == 3


class TestInvalidationEdgeCases:
    def test_retract_then_reassert_same_order_atom(self):
        atom = lt(u, v)
        session = Session(IndefiniteDatabase.of(P(u), Q(v), atom))
        q = ConjunctiveQuery.of(P(t1), Q(t2), lt(t1, t2))
        plan = session.prepare(q)
        assert plan.execute().holds
        session.retract_order(atom)
        assert _report(plan.execute()) == _one_shot(session.db, q)
        assert not plan.execute().holds
        session.assert_order(atom)
        # verdict must match a completely fresh session / one-shot call
        assert _report(plan.execute()) == _one_shot(session.db, q)
        assert plan.execute().holds
        assert Session(session.db).entails(q)

    def test_retract_reassert_weaker_duplicate_pair(self):
        # u <= v and u < v on the same pair: retracting the weak atom
        # must not lose the strict edge, and vice versa
        weak, strict = le(u, v), lt(u, v)
        session = Session(IndefiniteDatabase.of(P(u), Q(v), weak, strict))
        q = ConjunctiveQuery.of(P(t1), Q(t2), lt(t1, t2))
        plan = session.prepare(q)
        assert plan.execute().holds
        session.retract_order(weak)
        assert _report(plan.execute()) == _one_shot(session.db, q)
        assert plan.execute().holds  # the strict atom still stands
        session.retract_order(strict)
        assert _report(plan.execute()) == _one_shot(session.db, q)
        assert not plan.execute().holds
        session.assert_order(weak)
        assert _report(plan.execute()) == _one_shot(session.db, q)

    def test_fact_only_constant_later_gains_order_atoms(self):
        # 'w' first exists only through a proper fact (an isolated graph
        # vertex); ordering it later must resurface in prepared verdicts
        session = Session(IndefiniteDatabase.of(P(u), lt(u, v)))
        q = ConjunctiveQuery.of(P(t1), Q(t2), lt(t1, t2))
        plan = session.prepare(q)
        assert not plan.execute().holds
        session.assert_facts(Q(w))  # fresh vertex, facts only
        assert _report(plan.execute()) == _one_shot(session.db, q)
        session.assert_order(lt(u, w))  # the isolated vertex gets ordered
        assert _report(plan.execute()) == _one_shot(session.db, q)
        assert plan.execute().holds
        assert Session(session.db).entails(q)

    def test_object_name_reused_at_order_sort_is_rejected(self):
        # one spelling at two sorts would corrupt the minimal-model
        # constant map; the session mutators refuse it up front, BEFORE
        # mutating anything, so a raising assert leaves the session
        # fully usable (it used to poison the lazily rebuilt database)
        from repro.core.errors import SortError

        session = Session(
            IndefiniteDatabase.of(ProperAtom("Tag", (obj("a"),)))
        )
        with pytest.raises(SortError):
            session.assert_facts(P(ordc("a")))
        assert session.size() == 1
        assert session.db.proper_atoms == frozenset(
            {ProperAtom("Tag", (obj("a"),))}
        )
        # the reverse direction and the order mutator refuse too
        with pytest.raises(SortError):
            session.assert_order(lt(ordc("a"), v))
        session2 = Session(IndefiniteDatabase.of(P(u)))
        with pytest.raises(SortError):
            session2.assert_facts(ProperAtom("Tag", (obj("u"),)))
        # intra-call clash: nothing from the call lands
        session3 = Session()
        with pytest.raises(SortError):
            session3.assert_facts(
                ProperAtom("Tag", (obj("zz"),)), P(ordc("zz"))
            )
        assert session3.size() == 0

    def test_object_constants_appearing_in_order_facts_churn(self):
        # object-gen churn interleaved with an order-constant fact on the
        # same predicate: verdicts keep matching a fresh one-shot call
        rng = random.Random(120)
        db, query, free = random_certain_answers_workload(
            rng, width=2, chain_length=2, n_objects=2, n_free=1
        )
        session = Session(db)
        plan = session.prepare(query, free_vars=free)
        order_name = sorted(db.order_constants)[0]
        for i in range(3):
            session.assert_facts(ProperAtom("Tag", (obj(f"mix{i}"),)))
            assert set(plan.execute().answers) == naive_certain_answers(
                session.db, query, free
            )
            session.assert_facts(
                ProperAtom("Tag", (ordc(order_name),))
            )  # same predicate, order constant: label-gen path
            assert set(plan.execute().answers) == naive_certain_answers(
                session.db, query, free
            )
            session.retract_facts(ProperAtom("Tag", (ordc(order_name),)))
            assert set(plan.execute().answers) == naive_certain_answers(
                session.db, query, free
            )


class TestQuerySorts:
    DB = "On(p1, lamp); On(p2, heater); Off(p3, lamp); p1 < p3; p1 < p2"

    def test_mis_sorted_nary_argument_raises_sort_error(self):
        # 't' / 'X' are order-sorted by their '<' atom, but every 'On'
        # fact has an object in its second position: a typed error from
        # validate() and execute(), before any decision procedure runs
        from repro.core.errors import SortError
        from repro.substrate.parser import parse_database, parse_query

        db = parse_database(self.DB)
        session = Session(db)
        plans = [
            session.prepare(parse_query("On(s, t) & s < t", db)),
            session.prepare(
                parse_query("On(s, X) & s < X", db), free_vars=(objvar("X"),)
            ),
        ]
        for plan in plans:
            for call in (plan.validate, plan.execute):
                with pytest.raises(SortError, match="argument 2"):
                    call()
        # well-sorted reads on the same session are unaffected
        ok = session.prepare(
            parse_query("On(s, lamp) & Off(t, lamp) & s < t", db)
        )
        ok.validate()
        assert ok.execute().holds


class TestSessionApi:
    def test_entails_many_matches_individual(self):
        rng = random.Random(109)
        dag = random_labeled_dag(rng, 4)
        db = dag.to_database()
        queries = [
            random_disjunctive_monadic_query(rng, 2, 2) for _ in range(5)
        ]
        session = Session(db)
        assert session.entails_many(queries) == [
            entails(db, q) for q in queries
        ]

    def test_plans_are_memoized(self):
        session = Session(IndefiniteDatabase.of(P(u)))
        q = ConjunctiveQuery.of(P(t1))
        assert session.prepare(q) is session.prepare(q)
        assert session.prepare(q) is not session.prepare(q, method="bruteforce")

    def test_from_atoms_and_str(self):
        session = Session.from_atoms([P(u), lt(u, v)])
        assert session.size() == 2
        assert "2 atoms" in str(session)

    def test_prepared_query_type(self):
        session = Session(IndefiniteDatabase.of(P(u)))
        plan = session.prepare(ConjunctiveQuery.of(P(t1)))
        assert isinstance(plan, PreparedQuery)
        assert plan.execute() is plan.execute()  # cached between mutations


class TestRendering:
    def test_word_countermodel_renders(self):
        db = IndefiniteDatabase.of(P(u), Q(v), lt(u, v))
        q = ConjunctiveQuery.of(Q(t1), P(t2), lt(t1, t2))
        result = Session(db).prepare(q).execute()
        assert not result.holds
        assert result.countermodel is not None
        text = result.render_countermodel()
        assert "<" in text and "{" in text

    def test_structure_countermodel_renders(self):
        db = IndefiniteDatabase.of(
            ProperAtom("R", (u, obj("a"))), ProperAtom("R", (v, obj("b")))
        )
        q = ConjunctiveQuery.of(
            ProperAtom("R", (t1, objvar("x"))),
            ProperAtom("R", (t2, objvar("x"))),
            lt(t1, t2),
        )
        result = Session(db).prepare(q, method="bruteforce").execute()
        assert not result.holds
        assert "order" in result.render_countermodel()

    def test_render_model_handles_all_shapes(self):
        assert render_model(None) == "(no countermodel produced)"
        assert render_model(()) == "(empty model)"
        assert render_model(
            (frozenset({"P"}), frozenset())
        ) == "{P} < {}"

    def test_result_str(self):
        db = IndefiniteDatabase.of(P(u))
        r = Session(db).prepare(ConjunctiveQuery.of(P(t1))).execute()
        assert "entailed" in str(r)
        r2 = Session(db).prepare(
            ConjunctiveQuery.of(P(t1)), free_vars=()
        ).execute()
        assert str(r2).startswith("answers")
