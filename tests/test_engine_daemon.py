"""Differential tests for the persistent daemon pool and the pooled
``execute_stream`` mode.

The load-bearing properties:

* ``DaemonPool`` results are byte-for-byte — verdict, method tag,
  countermodel, answers — those of sequential ``execute_many``, across
  incremental resyncs after *every* mutation class (object / label /
  graph generation);
* pooled ``execute_stream`` equals sequential ``execute_stream``
  equals a one-op-at-a-time replay on randomized mixed streams,
  including streams that raise mid-way: the exception and the session
  state at the raise match the sequential one-at-a-time loop exactly
  (the coalesced-write fallback);
* snapshots stay frozen while pooled streams execute against them;
* restricted environments (``RuntimeError`` during pool bootstrap)
  degrade to sequential execution without leaking processes, and the
  worker cap is configurable via ``REPRO_POOL_MAX_WORKERS``.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Session
from repro.core.atoms import OrderAtom, ProperAtom, Rel, lt
from repro.core.database import IndefiniteDatabase
from repro.core.entailment import certain_answers, explain
from repro.core.errors import SortError
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery
from repro.core.sorts import obj, ordc, ordvar
from repro.engine import (
    DaemonPool,
    Mutation,
    QueryRequest,
    execute_many,
    execute_stream,
)
from repro.engine.pool import _default_workers
from repro.workloads.generators import (
    random_certain_answers_workload,
    random_request_stream,
)

t1, t2 = ordvar("t1"), ordvar("t2")
u, v = ordc("u"), ordc("v")


def P(t):
    return ProperAtom("P", (t,))


def Q(t):
    return ProperAtom("Q", (t,))


def observe(request: QueryRequest, result) -> object:
    if request.free_vars is None:
        return result.holds
    return frozenset(result.answers)


def one_shot_observe(db: IndefiniteDatabase, request: QueryRequest) -> object:
    if request.free_vars is None:
        return explain(
            db, request.query,
            semantics=request.semantics, method=request.method,
        ).holds
    return frozenset(certain_answers(
        db, request.query, request.free_vars, semantics=request.semantics
    ))


def outcome_of(fn):
    """(tag, payload): a comparable summary of a call that may raise."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - parity is the point
        return ("raise", type(exc), str(exc))


class TestDaemonPool:
    def _requests(self, rng):
        db, ops = random_request_stream(
            rng, n_objects=3, n_queries=4, n_ops=10, write_prob=0.0
        )
        return db, [op for op in ops if isinstance(op, QueryRequest)]

    def test_matches_sequential_and_worker_pool_exactly(self):
        # a warm pool resynced past a write answers exactly like the
        # sequential engine and like a worker pool built fresh for the
        # batch on the new state
        rng = random.Random(300)
        db, requests = self._requests(rng)
        session = Session(db)
        with DaemonPool(session, workers=2) as pool:
            assert pool.execute_many(requests) == execute_many(
                Session(db), requests
            )
            session.retract_order(sorted(db.order_atoms)[0])
            pool.resnapshot(session)
            daemon = pool.execute_many(requests)
        with DaemonPool(session, workers=2) as fresh:
            worker = fresh.execute_many(requests)
        sequential = execute_many(Session(session.db), requests)
        assert daemon == sequential
        assert worker == sequential

    def test_sequential_fallback_matches_exactly(self):
        rng = random.Random(301)
        db, requests = self._requests(rng)
        with DaemonPool(Session(db), workers=1) as pool:
            assert not pool.parallel
            fallback = pool.execute_many(requests)
        assert fallback == execute_many(Session(db), requests)

    def test_workers_survive_across_batches_and_resyncs(self):
        rng = random.Random(302)
        db, requests = self._requests(rng)
        session = Session(db)
        with DaemonPool(session, workers=2) as pool:
            if not pool.parallel:
                pytest.skip("no process pool in this environment")
            pids = [proc.pid for proc in pool._procs]
            for i in range(3):
                session.assert_facts(ProperAtom("Tag", (obj(f"b{i}"),)))
                pool.resnapshot(session)
                got = pool.execute_many(requests)
                assert got == execute_many(Session(session.db), requests)
            # the SAME worker processes served every batch — no re-fork
            assert [proc.pid for proc in pool._procs] == pids
            assert all(proc.is_alive() for proc in pool._procs)

    def test_resync_after_every_mutation_class(self):
        rng = random.Random(303)
        db, query, free = random_certain_answers_workload(
            rng, width=2, chain_length=2, n_objects=3, n_free=1
        )
        requests = [
            QueryRequest(query, free_vars=free),
            QueryRequest(ConjunctiveQuery.of(P(t1), Q(t2), lt(t1, t2))),
        ]
        session = Session(db)
        order_name = sorted(db.order_constants)[0]
        mutations = [
            # object generation only
            lambda: session.assert_facts(ProperAtom("Tag", (obj("nw"),))),
            # label generation (fact over an existing order constant)
            lambda: session.assert_facts(P(ordc(order_name))),
            # graph generation via a fact naming a fresh order constant
            lambda: session.assert_facts(P(ordc("brandnew"))),
            # graph generation via an order atom
            lambda: session.assert_order(
                OrderAtom(ordc("brandnew"), Rel.LT, ordc(order_name))
            ),
            # graph generation via retraction
            lambda: session.retract_order(
                OrderAtom(ordc("brandnew"), Rel.LT, ordc(order_name))
            ),
            lambda: session.retract_facts(P(ordc("brandnew"))),
            lambda: session.retract_facts(ProperAtom("Tag", (obj("nw"),))),
        ]
        with DaemonPool(session, workers=2) as pool:
            for i, mutate in enumerate(mutations):
                mutate()
                pool.resnapshot(session)
                got = pool.execute_many(requests)
                want = execute_many(Session(session.db), requests)
                assert got == want, f"mutation #{i}"

    def test_resync_covers_zero_arity_facts(self):
        # propositional facts bump the object generation, so the delta
        # resync must carry them to the workers like any other write
        rain = ProperAtom("Rain", ())
        request = QueryRequest(ConjunctiveQuery.of(rain))
        session = Session(IndefiniteDatabase.of(P(u)))
        with DaemonPool(session, workers=2) as pool:
            assert not pool.execute_many([request])[0].holds
            session.assert_facts(rain)
            pool.resnapshot(session)
            assert pool.execute_many([request])[0].holds
            session.retract_facts(rain)
            pool.resnapshot(session)
            assert not pool.execute_many([request])[0].holds

    def test_resnapshot_is_noop_when_unchanged(self):
        session = Session(IndefiniteDatabase.of(P(u), Q(v), lt(u, v)))
        with DaemonPool(session, workers=1) as pool:
            snap = pool.snapshot
            pool.resnapshot(session)
            assert pool.snapshot is snap  # no churn without mutations
            session.assert_facts(ProperAtom("Tag", (obj("x"),)))
            pool.resnapshot(session)
            assert pool.snapshot is not snap

    def test_external_pool_synced_after_trailing_writes(self):
        # a stream ending in writes leaves the caller's pool resynced to
        # the final state, exactly as execute_stream documents
        session = Session(IndefiniteDatabase.of(P(u), Q(v), lt(u, v)))
        q = ConjunctiveQuery.of(P(t1), Q(t2), lt(t1, t2))
        with DaemonPool(session, workers=2) as pool:
            out = execute_stream(session, [
                QueryRequest(q),
                Mutation("retract_order", (lt(u, v),)),
            ], pool=pool)
            assert out[0].holds
            # no manual resnapshot: the pool already has the final state
            assert not pool.execute_many([QueryRequest(q)])[0].holds

    def test_worker_exception_propagates_and_pool_survives(self):
        session = Session(IndefiniteDatabase.of(P(u), Q(v), lt(u, v)))
        good = QueryRequest(ConjunctiveQuery.of(P(t1)))
        bad = QueryRequest(
            DisjunctiveQuery((
                ConjunctiveQuery.of(P(t1)), ConjunctiveQuery.of(Q(t1)),
            )),
            method="paths",  # needs a single conjunctive disjunct
        )
        with DaemonPool(session, workers=2) as pool:
            with pytest.raises(ValueError):
                pool.execute_many([good, bad])
            # the pool drained the batch and keeps serving
            assert pool.execute_many([good])[0].holds

    def test_close_is_idempotent(self):
        pool = DaemonPool(Session(IndefiniteDatabase.of(P(u))), workers=2)
        pool.close()
        pool.close()
        assert not pool.parallel


class TestPipelinedStream:
    def test_randomized_mixed_streams_match_sequential_exactly(self):
        rng = random.Random(310)
        for round_ in range(4):
            db, ops = random_request_stream(
                rng, n_objects=3, n_queries=3, n_ops=20, write_prob=0.4
            )
            sequential = execute_stream(Session(db), list(ops))
            session = Session(db)
            with DaemonPool(session, workers=2) as pool:
                pipelined = execute_stream(session, list(ops), pool=pool)
            # byte-for-byte result parity with the sequential mode ...
            assert pipelined == sequential, f"round={round_}"
            # ... and observable parity with a one-op-at-a-time replay
            state = Session(db)
            for op, result in zip(ops, pipelined):
                if isinstance(op, Mutation):
                    assert result is None
                    op.apply(state)
                else:
                    assert observe(op, result) == one_shot_observe(
                        state.db, op
                    ), f"round={round_}"
            assert session.db == state.db

    def test_external_pool_reused_across_streams(self):
        rng = random.Random(311)
        db, ops = random_request_stream(
            rng, n_objects=3, n_queries=3, n_ops=14, write_prob=0.4
        )
        session = Session(db)
        oracle = Session(db)
        with DaemonPool(session, workers=2) as pool:
            first = execute_stream(session, list(ops), pool=pool)
            second = execute_stream(session, list(ops), pool=pool)
        assert first == execute_stream(oracle, list(ops))
        assert second == execute_stream(oracle, list(ops))
        assert session.db == oracle.db

    def test_snapshot_immutable_under_concurrent_epochs(self):
        rng = random.Random(312)
        db, query, free = random_certain_answers_workload(
            rng, width=2, chain_length=2, n_objects=3, n_free=1
        )
        session = Session(db)
        snap = session.snapshot()
        frozen = frozenset(snap.certain_answers(query, free))
        order_name = sorted(db.order_constants)[0]
        ops = [
            QueryRequest(query, free_vars=free),
            Mutation("assert_facts", (ProperAtom("Tag", (obj("zz"),)),)),
            QueryRequest(query, free_vars=free),
            Mutation("assert_facts", (P(ordc(order_name)),)),
            Mutation("assert_order", (
                OrderAtom(ordc(order_name), Rel.LE, ordc(order_name)),
            )),
            QueryRequest(query, free_vars=free),
        ]
        with DaemonPool(session, workers=2) as pool:
            execute_stream(session, ops, pool=pool)
        assert frozenset(snap.certain_answers(query, free)) == frozen
        assert frozenset(
            session.certain_answers(query, free)
        ) == frozenset(certain_answers(session.db, query, free))

    def test_midstream_write_exception_parity(self):
        # a clash inside a coalesced write run: the exception and the
        # session state must match the sequential one-at-a-time replay
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

        seq_session = Session(base)
        got_seq = outcome_of(
            lambda: execute_stream(seq_session, list(ops))
        )
        piped_session = Session(base)
        with DaemonPool(piped_session, workers=2) as pool:
            got_piped = outcome_of(
                lambda: execute_stream(piped_session, list(ops), pool=pool)
            )
        assert got_seq[:2] == want[:2] and got_piped[:2] == want[:2]
        # the valid prefix (Tag(zz)) landed; the clash and its suffix did not
        assert seq_session.db == oracle.db
        assert piped_session.db == oracle.db
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
            # oracle: one op at a time (the exact sequential semantics)
            oracle = Session(db)

            def replay(oracle=oracle, ops=ops):
                out = []
                for op in ops:
                    if isinstance(op, Mutation):
                        op.apply(oracle)
                        out.append(None)
                    else:
                        out.append(None)  # reads compared elsewhere
                return out

            want = outcome_of(replay)
            seq_session = Session(db)
            got_seq = outcome_of(
                lambda s=seq_session: execute_stream(s, list(ops))
            )
            piped_session = Session(db)
            with DaemonPool(piped_session, workers=2) as pool:
                got_piped = outcome_of(
                    lambda s=piped_session: execute_stream(
                        s, list(ops), pool=pool
                    )
                )
            assert got_seq[:2] == want[:2], f"round={round_}"
            assert got_piped[:2] == want[:2], f"round={round_}"
            assert seq_session.db == oracle.db, f"round={round_}"
            assert piped_session.db == oracle.db, f"round={round_}"


class TestPoolHardening:
    def _db_requests(self):
        db = IndefiniteDatabase.of(P(u), Q(v), lt(u, v))
        q = ConjunctiveQuery.of(P(t1), Q(t2), lt(t1, t2))
        return db, [QueryRequest(q), QueryRequest(ConjunctiveQuery.of(Q(t1)))]

    def test_runtime_error_degrades_worker_pool(
        self, monkeypatch, tmp_path, capsys
    ):
        # the CLI's pooled read fan-out (`batch --workers N` on a
        # write-free stream) degrades to its labelled sequential mode
        import json
        import multiprocessing

        from repro.cli import main

        db = tmp_path / "db.txt"
        db.write_text("P(u); Q(v); u < v\n")
        stream = tmp_path / "reads.txt"
        stream.write_text("P(a) & a < b & Q(b)\nQ(b)\nQ(a) & a < b & P(b)\n")
        argv = ["batch", str(db), str(stream), "--json"]
        assert main(argv) == 0
        expected = json.loads(capsys.readouterr().out)

        def boom(*args, **kwargs):
            raise RuntimeError("spawn bootstrap failed")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        assert main(argv + ["--workers", "2"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert pooled["mode"] == "sequential"
        assert pooled["ops"] == expected["ops"]

    def test_runtime_error_degrades_daemon_pool(self, monkeypatch):
        import multiprocessing

        def boom(*args, **kwargs):
            raise RuntimeError("spawn bootstrap failed")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        db, requests = self._db_requests()
        session = Session(db)
        with DaemonPool(session, workers=2) as pool:
            assert not pool.parallel
            got = pool.execute_many(requests)
            # pooled streams keep working on the degraded pool too
            streamed = execute_stream(
                session,
                [requests[0], Mutation("assert_facts", (P(ordc("w2")),)),
                 requests[0]],
                pool=pool,
            )
        assert got == execute_many(Session(db), requests)
        assert streamed[0] is not None and streamed[2] is not None

    def test_worker_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MAX_WORKERS", "1")
        assert _default_workers() == 1
        monkeypatch.setenv("REPRO_POOL_MAX_WORKERS", "not-a-number")
        assert 1 <= _default_workers() <= 4  # falls back to the default cap
        monkeypatch.setenv("REPRO_POOL_MAX_WORKERS", "0")
        assert 1 <= _default_workers() <= 4  # must be >= 1


class TestCleanShutdown:
    """close() drains in-flight replies: no degrade noise, no broken pipes."""

    def _pool(self):
        db = IndefiniteDatabase.of(P(u), Q(v), lt(u, v))
        return Session(db), DaemonPool(Session(db), workers=2)

    def test_idle_close_logs_nothing(self, caplog):
        import logging

        _, pool = self._pool()
        assert pool.parallel
        with caplog.at_level(logging.WARNING, logger="repro.engine.pool"):
            pool.close()
        assert caplog.records == []
