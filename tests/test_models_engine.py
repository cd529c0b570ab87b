"""Differential suite for the bitset minimal-model engine (region-DAG DP).

Every entry point of the model engine — block-sequence enumeration,
model counting, brute-force entailment (n-ary and monadic), countermodel
counting/enumeration and the pooled entailment sweep — is compared
against the retained seed algorithms running under
:func:`repro.substrate.reference.naive_mode`, on randomized inputs
covering '!=' pairs (database and query side), inconsistent graphs, the
empty graph, and mutation-after-query sequences.  Countermodels produced
by the DP path are additionally verified semantically: they are genuine
minimal models of the database (membership in the naive enumeration,
identity homomorphism) that falsify the query per
:func:`~repro.algorithms.modelcheck.structure_satisfies`.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.bruteforce import (
    count_countermodels,
    entailment_sweep,
    entails_bruteforce,
    entails_bruteforce_monadic,
    iter_countermodels_nary,
)
from repro.algorithms.modelcheck import structure_satisfies, word_satisfies_dag
from repro.api.session import Session
from repro.core.atoms import OrderAtom, ProperAtom, Rel
from repro.core.models import (
    count_minimal_models,
    find_homomorphism,
    iter_block_sequences,
    iter_minimal_models,
    iter_minimal_words,
)
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery, as_dnf
from repro.core.regions import RegionCacheHub
from repro.core.sorts import obj, objvar, ordc, ordvar
from repro.engine.batch import Mutation, QueryRequest, execute_many, execute_stream
from repro.substrate import reference
from repro.workloads.generators import (
    random_disjunctive_monadic_query,
    random_labeled_dag,
    random_monadic_database,
    random_nary_database,
    random_nary_query,
)


def random_graph_with_neq(rng, max_n=7, neq_prob=0.15, cycle_prob=0.1):
    """A random order graph, possibly with '!=' pairs and '<'-cycles."""
    g = random_labeled_dag(rng, rng.randrange(0, max_n), edge_prob=0.4).graph
    vs = sorted(g.vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if rng.random() < neq_prob:
                g.add_edge(u, v, Rel.NE)
        if vs and rng.random() < cycle_prob:
            # a backward edge: may create a '<=' or '<' cycle
            w = rng.choice(vs)
            g.add_edge(u, w, Rel.LE if rng.random() < 0.5 else Rel.LT)
    if vs and rng.random() < 0.05:
        g.add_edge(vs[0], vs[0], Rel.NE)  # x != x: inconsistent
    return g


def random_nary_workload(rng, max_order=6):
    db = random_nary_database(
        rng,
        n_order=rng.randrange(1, max_order),
        n_objects=rng.randrange(1, 3),
        n_facts=rng.randrange(0, 7),
        preds=(("B", 2), ("C", 3)),
        neq_prob=0.15,
    )
    query = DisjunctiveQuery(
        tuple(
            random_nary_query(
                rng,
                rng.randrange(0, 3),
                rng.randrange(1, 3),
                1,
                preds=(("B", 2), ("C", 3)),
                neq_prob=0.2,
            )
            for _ in range(rng.randrange(1, 3))
        )
    )
    return db, query


def prune_candidates_by_models(db, candidates) -> set:
    """One minimal-model sweep deciding many closed candidates at once
    (the reference the candidate-pruning tests below compare).

    ``candidates`` maps each substituted (ground-in-the-object-sort)
    query to the opaque tokens that stand or fall with it; a token
    survives iff every minimal model of ``db`` satisfies its query
    (tokens listed under several queries are deduplicated by the
    mapping itself).  All queries are decided by
    :func:`~repro.algorithms.bruteforce.entailment_sweep` against one
    shared set of region/block tables (under
    :func:`~repro.substrate.reference.naive_mode`: one literal
    enumeration of the minimal models, stopping early once every query
    has failed).
    """
    outcome = entailment_sweep(db, candidates.keys())
    surviving: set = set()
    dead: set = set()
    for q, tokens in candidates.items():
        (surviving if outcome[q].holds else dead).update(tokens)
    # a token listed under several queries survives only if ALL of them
    # hold (the pre-sweep enumeration discarded it on any failing query)
    return surviving - dead


class TestEnumerationDifferential:
    def test_sequences_and_counts_match_naive(self):
        rng = random.Random(2024)
        for trial in range(120):
            graph = random_graph_with_neq(rng)
            norm = graph.normalize()
            target = norm.graph if norm.consistent else graph
            fast_seqs = list(iter_block_sequences(target))
            fast_count = count_minimal_models(target)
            with reference.naive_mode():
                slow_seqs = list(iter_block_sequences(target))
                slow_count = count_minimal_models(target)
            # identical sequences in the identical order
            assert fast_seqs == slow_seqs, trial
            assert fast_count == slow_count == len(fast_seqs), trial

    def test_empty_graph(self):
        from repro.core.ordergraph import OrderGraph

        g = OrderGraph()
        assert list(iter_block_sequences(g)) == [()]
        assert count_minimal_models(g) == 1

    def test_inconsistent_graph_has_no_models(self):
        from repro.core.ordergraph import OrderGraph

        g = OrderGraph()
        g.add_edge("a", "b", Rel.LT)
        g.add_edge("b", "a", Rel.LE)
        assert list(iter_block_sequences(g)) == []
        assert count_minimal_models(g) == 0
        g2 = OrderGraph()
        g2.add_edge("a", "a", Rel.NE)
        assert list(iter_block_sequences(g2)) == []
        assert count_minimal_models(g2) == 0

    def test_mutation_after_query_sequences(self):
        """Enumeration stays exact across in-place graph mutations."""
        rng = random.Random(7)
        for trial in range(25):
            graph = random_labeled_dag(rng, 5, edge_prob=0.3).graph
            caches = RegionCacheHub()
            for step in range(4):
                norm = graph.normalize()
                target = norm.graph if norm.consistent else graph
                fast = list(iter_block_sequences(target, caches))
                with reference.naive_mode():
                    slow = list(iter_block_sequences(target))
                assert fast == slow, (trial, step)
                vs = sorted(graph.vertices)
                u, v = rng.choice(vs), rng.choice(vs)
                if rng.random() < 0.5:
                    graph.add_edge(
                        u, v, Rel.LT if rng.random() < 0.5 else Rel.LE
                    )
                else:
                    graph.remove_edge(u, v)
                # the mutated graph is a new generation: hubs keyed on the
                # old normalized instance must not be reused for it
                caches = RegionCacheHub()


class TestBruteforceDifferential:
    def test_nary_entailment_counts_and_countermodels(self):
        rng = random.Random(4711)
        for trial in range(80):
            db, query = random_nary_workload(rng)
            fast = entails_bruteforce(db, query)
            fast_count = count_countermodels(db, query)
            fast_models = list(iter_countermodels_nary(db, query))
            with reference.naive_mode():
                slow = entails_bruteforce(db, query)
                slow_count = count_countermodels(db, query)
                slow_models = list(iter_countermodels_nary(db, query))
            assert fast.holds == slow.holds, trial
            assert fast.countermodel == slow.countermodel, trial
            assert fast_count == slow_count == len(fast_models), trial
            assert fast_models == slow_models, trial

    def test_countermodels_verify_semantically(self):
        rng = random.Random(99)
        checked = 0
        for trial in range(60):
            db, query = random_nary_workload(rng, max_order=5)
            witness = entails_bruteforce(db, query)
            if witness.holds:
                continue
            counter = witness.countermodel
            checked += 1
            dnf = as_dnf(query).normalized()
            # falsifies the query ...
            assert not structure_satisfies(counter, dnf)
            # ... is a genuine minimal model of the database ...
            with reference.naive_mode():
                assert counter in list(iter_minimal_models(db))
            # ... and supports the identity homomorphism
            assert find_homomorphism(counter, counter) is not None
        assert checked >= 10  # the workload actually produced countermodels

    def test_monadic_entailment_matches_naive(self):
        rng = random.Random(31337)
        for trial in range(80):
            db = random_monadic_database(rng, rng.randrange(0, 7))
            dag = db.monadic()
            query = random_disjunctive_monadic_query(
                rng, rng.randrange(1, 4), rng.randrange(1, 4)
            )
            fast = entails_bruteforce_monadic(dag, query)
            with reference.naive_mode():
                slow = entails_bruteforce_monadic(dag, query)
            assert fast.holds == slow.holds, trial
            assert fast.countermodel == slow.countermodel, trial
            if not fast.holds:
                # the witness word is a real minimal word model that no
                # disjunct matches (Corollary 5.1 checking)
                assert fast.countermodel in set(iter_minimal_words(dag))
                assert not any(
                    word_satisfies_dag(fast.countermodel, d.monadic_dag())
                    for d in as_dnf(query).normalized().disjuncts
                )

    def test_entailment_after_session_mutations(self):
        """The bruteforce path stays exact across granular invalidation."""
        rng = random.Random(5)
        for trial in range(15):
            db, query = random_nary_workload(rng, max_order=5)
            session = Session(db)
            plan = session.prepare(query, method="bruteforce")
            order_names = sorted(db.order_constants)
            for step in range(4):
                got = plan.execute()
                with reference.naive_mode():
                    expect = entails_bruteforce(session.db, query)
                assert got.holds == expect.holds, (trial, step)
                if order_names and rng.random() < 0.5:
                    u, v = rng.choice(order_names), rng.choice(order_names)
                    rel = rng.choice([Rel.LT, Rel.LE, Rel.NE])
                    if u == v and rel is not Rel.LE:
                        rel = Rel.LE
                    session.assert_order(OrderAtom(ordc(u), rel, ordc(v)))
                else:
                    session.assert_facts(
                        ProperAtom(
                            "B",
                            (
                                ordc(rng.choice(order_names or ["u0"])),
                                obj(f"m{step}"),
                            ),
                        )
                    )

    def test_foreign_constant_raises_like_the_model_checker(self):
        db = random_nary_database(random.Random(1), 3, 2, 4)
        bad = ConjunctiveQuery.of(
            ProperAtom("B", (ordc("zzz"), obj("a0")))
        )
        with pytest.raises(KeyError):
            entails_bruteforce(db, bad)


class TestSweepDifferential:
    def test_entailment_sweep_matches_per_query_calls(self):
        rng = random.Random(271828)
        for trial in range(25):
            db, _ = random_nary_workload(rng, max_order=5)
            queries = [
                as_dnf(
                    random_nary_query(
                        rng, rng.randrange(0, 3), 2, 1,
                        preds=(("B", 2), ("C", 3)), neq_prob=0.2,
                    )
                )
                for _ in range(rng.randrange(1, 5))
            ]
            out = entailment_sweep(db, queries, witness_queries=queries)
            with reference.naive_mode():
                naive = entailment_sweep(db, queries, witness_queries=queries)
            for q in queries:
                assert out[q].holds == naive[q].holds, trial
                assert out[q].countermodel == naive[q].countermodel, trial
                solo = entails_bruteforce(db, q)
                assert out[q].holds == solo.holds, trial

    def test_prune_token_under_many_queries_needs_all_to_hold(self):
        """A token listed under several queries survives only when ALL of
        them are entailed (the seed discarded it on any failing query)."""
        db = random_nary_database(random.Random(8), 3, 2, 5)
        entailed = as_dnf(ConjunctiveQuery.of())  # trivially true
        falsified = None
        rng = random.Random(9)
        while falsified is None:
            q = as_dnf(
                random_nary_query(rng, 2, 2, 1, preds=(("B", 2),))
            )
            if not entails_bruteforce(db, q).holds:
                falsified = q
        candidates = {entailed: ["tok"], falsified: ["tok", "other"]}
        assert prune_candidates_by_models(db, candidates) == set()
        with reference.naive_mode():
            assert prune_candidates_by_models(db, candidates) == set()
        assert prune_candidates_by_models(db, {entailed: ["tok"]}) == {"tok"}

    def test_stream_error_leaves_sequential_prefix_state(self):
        """A write run that raises mid-coalesce must leave exactly the
        state a sequential loop would have: earlier writes applied."""
        db = random_nary_database(random.Random(3), 3, 2, 4)
        good = ProperAtom("B", (ordc("u0"), obj("a0")))
        bad = ProperAtom("B", (ordc("u1"), objvar("x")))  # non-ground
        session = Session(db)
        ops = [
            Mutation("assert_facts", (good,)),
            Mutation("assert_facts", (bad,)),
        ]
        from repro.core.errors import SortError

        with pytest.raises(SortError):
            execute_stream(session, ops)
        # the first (valid) write landed before the failure, as sequential
        assert good in session.db.proper_atoms

    def test_prune_candidates_matches_naive(self):
        rng = random.Random(1618)
        for trial in range(20):
            db, _ = random_nary_workload(rng, max_order=5)
            domain = sorted(db.object_constants)
            x = objvar("x")
            base = as_dnf(
                random_nary_query(
                    rng, rng.randrange(1, 3), 2, 1, preds=(("B", 2), ("C", 3))
                )
            )
            candidates = {}
            for name in domain:
                q = base.substitute({x: obj(name)})
                candidates.setdefault(q, []).append(("tok", name))
            fast = prune_candidates_by_models(db, candidates)
            with reference.naive_mode():
                slow = prune_candidates_by_models(db, candidates)
            assert fast == slow, trial

    def test_batched_closed_bruteforce_queries_share_one_sweep(self):
        rng = random.Random(3141)
        for trial in range(12):
            db, _ = random_nary_workload(rng, max_order=5)
            requests = [
                QueryRequest(
                    as_dnf(
                        random_nary_query(
                            rng, rng.randrange(0, 3), 2, 1,
                            preds=(("B", 2), ("C", 3)),
                        )
                    )
                )
                for _ in range(4)
            ]
            batched = execute_many(Session(db), requests)
            for request, result in zip(requests, batched):
                solo = Session(db).prepare(request.query).execute()
                # byte-for-byte: the shared sweep is invisible in the
                # Result (verdict, method tag AND countermodel witness)
                assert result == solo, trial

    def test_stream_write_coalescing_preserves_sequential_semantics(self):
        """Runs of writes collapse to one mutator call; reads see the
        exact sequential database."""
        rng = random.Random(137)
        for trial in range(10):
            db, query = random_nary_workload(rng, max_order=4)
            order_names = sorted(db.order_constants) or ["u0"]
            ops = []
            for i in range(12):
                roll = rng.random()
                if roll < 0.5:
                    ops.append(QueryRequest(query, method="bruteforce"))
                else:
                    fact = ProperAtom(
                        "B", (ordc(rng.choice(order_names)), obj(f"s{i % 3}"))
                    )
                    kind = (
                        "assert_facts" if rng.random() < 0.6 else "retract_facts"
                    )
                    ops.append(Mutation(kind, (fact,)))
            streamed = execute_stream(Session(db), ops)
            # sequential replay: one session, one op at a time
            session = Session(db)
            for op, got in zip(ops, streamed):
                if isinstance(op, Mutation):
                    assert got is None
                    op.apply(session)
                else:
                    expect = session.prepare(
                        op.query, method=op.method
                    ).execute()
                    assert got.holds == expect.holds, trial


class TestCountingDP:
    def test_count_is_one_arithmetic_pass_over_regions(self):
        """The DP count agrees with a literal enumeration (distinct check
        from the naive differential: this one counts the fast path's own
        sequences)."""
        rng = random.Random(55)
        for _ in range(40):
            graph = random_graph_with_neq(rng, max_n=6)
            norm = graph.normalize()
            target = norm.graph if norm.consistent else graph
            assert count_minimal_models(target) == sum(
                1 for _ in iter_block_sequences(target)
            )

    def test_delannoy_interleavings_still_exact(self):
        from repro.core.database import LabeledDag
        from repro.flexiwords.flexiword import FlexiWord

        for n, expected in [(1, 3), (2, 13), (3, 63), (4, 321)]:
            chains = [
                FlexiWord.word([{"A"}] * n),
                FlexiWord.word([{"B"}] * n),
            ]
            dag = LabeledDag.from_chains(chains)
            assert count_minimal_models(dag.graph) == expected
