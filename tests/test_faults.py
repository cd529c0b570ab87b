"""Fault-injection tests: the engine under deterministic partial failure.

Each :mod:`repro.engine.faults` site is driven end to end and the
hardened path is held to the differential standard of the rest of the
suite: whatever the failure — a worker crashing mid-batch, hanging past
the reply timeout, replying late, losing a resync delta — the pool's
results must be byte-for-byte those of sequential ``execute_many``.
Plus the rule/spec machinery itself, the reply-timeout env knobs, the
pool's finalize guard, and the read validation that keeps pooled
streams at exact raise-point parity.
"""

from __future__ import annotations

import gc
import logging

import pytest

from repro.api import Session
from repro.core.atoms import ProperAtom, lt
from repro.core.database import IndefiniteDatabase
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery
from repro.core.sorts import obj, ordc, ordvar
from repro.engine import (
    DaemonPool,
    Mutation,
    QueryRequest,
    execute_many,
    execute_stream,
)
from repro.engine import faults
from repro.engine.faults import FaultRule, InjectedCrash
from repro.engine.pool import (
    DEFAULT_REPLY_RETRIES,
    DEFAULT_REPLY_TIMEOUT,
    REPLY_RETRIES_ENV,
    REPLY_TIMEOUT_ENV,
    _reply_retries_default,
    _reply_timeout_default,
)

t1, t2 = ordvar("t1"), ordvar("t2")
u, v = ordc("u"), ordc("v")


def P(t):
    return ProperAtom("P", (t,))


def Q(t):
    return ProperAtom("Q", (t,))


@pytest.fixture(autouse=True)
def _clean_faults():
    """No rule installed by one test may leak into the next."""
    faults.reset()
    yield
    faults.reset()


def outcome_of(fn):
    """(tag, payload): a comparable summary of a call that may raise."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - parity is the point
        return ("raise", type(exc), str(exc))


def _db_requests():
    db = IndefiniteDatabase.of(P(u), Q(v), lt(u, v))
    return db, [
        QueryRequest(ConjunctiveQuery.of(P(t1), Q(t2), lt(t1, t2))),
        QueryRequest(ConjunctiveQuery.of(Q(t1))),
        QueryRequest(ConjunctiveQuery.of(P(t1)), free_vars=()),
    ]


class TestFaultRule:
    def test_after_times_counters(self):
        rule = FaultRule("wal.torn_write", after=2, times=2)
        assert [rule.check() for _ in range(6)] == [
            False, False, True, True, False, False,
        ]

    def test_times_zero_is_unlimited(self):
        rule = FaultRule("wal.torn_write", times=0)
        assert all(rule.check() for _ in range(10))

    def test_prob_is_deterministic_per_seed(self):
        fires = [
            FaultRule("wal.torn_write", times=0, prob=0.5, seed=7).check()
            for _ in range(1)
        ]
        again = [
            FaultRule("wal.torn_write", times=0, prob=0.5, seed=7).check()
            for _ in range(1)
        ]
        assert fires == again
        rule_a = FaultRule("wal.torn_write", times=0, prob=0.5, seed=7)
        rule_b = FaultRule("wal.torn_write", times=0, prob=0.5, seed=7)
        assert [rule_a.check() for _ in range(50)] == [
            rule_b.check() for _ in range(50)
        ]

    def test_fire_returns_rule_with_params(self):
        faults.install([FaultRule(
            faults.SITE_WAL_TORN, params={"fraction": 0.25}
        )])
        rule = faults.fire(faults.SITE_WAL_TORN)
        assert rule is not None
        assert rule.param("fraction", 0.5) == 0.25
        assert faults.fire(faults.SITE_WAL_TORN) is None  # times=1 spent
        assert faults.fire(faults.SITE_WAL_COMPACT) is None  # not installed


class TestSpec:
    def test_parse_spec_full_grammar(self):
        rules = faults.parse_spec(
            "pool.worker.hang:seconds=1.5:after=2;"
            "wal.torn_write:fraction=0.25:times=0"
        )
        assert [r.site for r in rules] == [
            faults.SITE_WORKER_HANG, faults.SITE_WAL_TORN,
        ]
        assert rules[0].after == 2
        assert rules[0].params == {"seconds": 1.5}
        assert rules[1].times == 0
        assert rules[1].params == {"fraction": 0.25}

    def test_malformed_entries_warn_and_drop(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.engine.faults"):
            rules = faults.parse_spec(
                "no.such.site;"              # unknown site
                "pool.worker.hang:seconds;"  # missing =value
                "wal.torn_write:fraction=lots;"  # non-numeric
                "pool.worker.delay:seconds=0.01"  # the one valid entry
            )
        assert [r.site for r in rules] == [faults.SITE_WORKER_DELAY]
        assert "unknown fault site" in caplog.text
        assert "malformed" in caplog.text
        assert "not numeric" in caplog.text

    def test_spec_roundtrip(self):
        spec = (
            "pool.worker.crash:after=1:times=3:code=2;"
            "wal.compact.crash:stage=1"
        )
        rules = faults.parse_spec(spec)
        again = faults.parse_spec(faults.spec_of(rules))
        assert [(r.site, r.after, r.times, r.prob, r.seed, r.params)
                for r in rules] == [
            (r.site, r.after, r.times, r.prob, r.seed, r.params)
            for r in again
        ]

    def test_install_from_env(self):
        assert not faults.install_from_env({})
        assert not faults.install_from_env({"REPRO_FAULTS": ""})
        assert faults.install_from_env(
            {"REPRO_FAULTS": "pool.worker.delay:seconds=0.01"}
        )
        assert faults.active()
        faults.reset()
        # an all-malformed spec installs nothing
        assert not faults.install_from_env({"REPRO_FAULTS": "no.such.site"})


def _parallel_pool(session, **kwargs):
    pool = DaemonPool(session, workers=2, **kwargs)
    if not pool.parallel:
        pool.close()
        pytest.skip("no process pool in this environment")
    return pool


class TestWorkerCrash:
    def test_crash_degrades_and_results_match(self, caplog):
        db, requests = _db_requests()
        sequential = execute_many(Session(db), requests)
        faults.install([FaultRule(faults.SITE_WORKER_CRASH)])
        with _parallel_pool(Session(db)) as pool:
            with caplog.at_level(logging.WARNING, logger="repro.engine.pool"):
                got = pool.execute_many(requests)
            assert got == sequential
            assert not pool.parallel  # degraded, not wedged
            assert "reason=worker-dead" in caplog.text
            # the degraded pool keeps serving, in-process
            assert pool.execute_many(requests) == sequential


class TestWorkerHang:
    def test_hang_trips_timeout_and_results_match(self, caplog):
        db, requests = _db_requests()
        sequential = execute_many(Session(db), requests)
        faults.install([FaultRule(
            faults.SITE_WORKER_HANG, params={"seconds": 30.0}
        )])
        with _parallel_pool(
            Session(db), reply_timeout=0.1, reply_retries=1
        ) as pool:
            with caplog.at_level(logging.WARNING, logger="repro.engine.pool"):
                got = pool.execute_many(requests)
        assert got == sequential
        assert "reply timed out" in caplog.text       # the bounded retry
        assert "reason=reply-timeout" in caplog.text  # then the degrade
        assert "worker=" in caplog.text and "waited=" in caplog.text


class TestWorkerDelay:
    def test_slow_worker_answers_within_retries(self):
        # slow is not dead: the reply lands inside the retry budget, so
        # the pool stays parallel and nothing degrades
        db, requests = _db_requests()
        sequential = execute_many(Session(db), requests)
        faults.install([FaultRule(
            faults.SITE_WORKER_DELAY, times=0, params={"seconds": 0.05}
        )])
        with _parallel_pool(Session(db), reply_timeout=5.0) as pool:
            got = pool.execute_many(requests)
            assert got == sequential
            assert pool.parallel

    def test_env_spec_reaches_workers(self, monkeypatch):
        # REPRO_FAULTS is the cross-process carrier: the parent installs
        # nothing in-process, yet the workers pick the delay up
        monkeypatch.setenv(
            faults.FAULTS_ENV, "pool.worker.delay:seconds=0.01:times=0"
        )
        assert not faults.active()
        db, requests = _db_requests()
        sequential = execute_many(Session(db), requests)
        with _parallel_pool(Session(db)) as pool:
            assert pool.execute_many(requests) == sequential
            assert pool.parallel


class TestResyncDrop:
    def test_stale_worker_heals_and_pool_stays_parallel(self, caplog):
        db, requests = _db_requests()
        session = Session(db)
        with _parallel_pool(session) as pool:
            # drop the delta of a worker the batch is sure to reach: the
            # one the first request's plan key has affinity to
            owner = hash(requests[0].plan_key) % 2
            faults.install([FaultRule(
                faults.SITE_RESYNC_DROP, params={"worker": owner}
            )])
            session.assert_facts(ProperAtom("Tag", (obj("zz"),)))
            pool.resnapshot(session)  # the owner never sees this delta
            with caplog.at_level(logging.WARNING, logger="repro.engine.pool"):
                got = pool.execute_many(requests)
            assert got == execute_many(Session(session.db), requests)
            assert pool.parallel  # a desync heals; it does not degrade
            assert "stale" in caplog.text and "healing" in caplog.text
            # the healed worker serves later resyncs and batches again
            session.assert_facts(P(ordc("w9")))
            pool.resnapshot(session)
            got = pool.execute_many(requests)
            assert got == execute_many(Session(session.db), requests)
            assert pool.parallel


class TestReplyKnobs:
    def test_reply_timeout_env_override(self, monkeypatch):
        monkeypatch.setenv(REPLY_TIMEOUT_ENV, "0.5")
        assert _reply_timeout_default() == 0.5
        monkeypatch.setenv(REPLY_TIMEOUT_ENV, "not-a-number")
        assert _reply_timeout_default() == DEFAULT_REPLY_TIMEOUT
        monkeypatch.setenv(REPLY_TIMEOUT_ENV, "0")
        assert _reply_timeout_default() == DEFAULT_REPLY_TIMEOUT
        monkeypatch.setenv(REPLY_TIMEOUT_ENV, "-3")
        assert _reply_timeout_default() == DEFAULT_REPLY_TIMEOUT

    def test_reply_retries_env_override(self, monkeypatch):
        monkeypatch.setenv(REPLY_RETRIES_ENV, "5")
        assert _reply_retries_default() == 5
        monkeypatch.setenv(REPLY_RETRIES_ENV, "0")
        assert _reply_retries_default() == 0  # zero retries is valid
        monkeypatch.setenv(REPLY_RETRIES_ENV, "nope")
        assert _reply_retries_default() == DEFAULT_REPLY_RETRIES
        monkeypatch.setenv(REPLY_RETRIES_ENV, "-1")
        assert _reply_retries_default() == DEFAULT_REPLY_RETRIES


class TestFinalizeGuard:
    def test_dropped_pool_stops_its_daemons(self):
        db, _requests = _db_requests()
        pool = _parallel_pool(Session(db))
        procs = list(pool._procs)
        del pool  # no close(): the weakref.finalize guard must fire
        gc.collect()
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()

    def test_close_after_finalize_is_noop(self):
        db, _requests = _db_requests()
        pool = DaemonPool(Session(db), workers=2)
        pool.close()
        pool.close()  # idempotent, finalizer already detached
        assert not pool.parallel


BAD_READS = [
    # two disjuncts, but 'paths' needs a single conjunctive one
    QueryRequest(
        DisjunctiveQuery(
            (ConjunctiveQuery.of(P(t1)), ConjunctiveQuery.of(Q(t1)))
        ),
        method="paths",
    ),
    # width-2 order dag is not sequential
    QueryRequest(ConjunctiveQuery.of(P(t1), Q(t2)), method="seq"),
    # non-monadic input for a monadic-only method
    QueryRequest(
        ConjunctiveQuery.of(ProperAtom("B", (ordc("u"), ordc("v")))),
        method="bounded_width",
    ),
]


class TestSubmitTimeValidation:
    def test_validate_matches_execution_errors_exactly(self):
        db, good = _db_requests()
        session = Session(db)
        for request in good + BAD_READS:
            ran = outcome_of(
                lambda r=request: execute_many(Session(db), [r])
            )
            checked = outcome_of(
                lambda r=request: r.prepare(session).validate()
            )
            if ran[0] == "raise":
                assert checked[0] == "raise"
                assert checked[1:] == ran[1:]  # same type, same message
            else:
                assert checked[0] == "ok"

    def test_pipelined_bad_read_raise_point_parity(self):
        # a raising read must leave the pooled stream's session in
        # the exact state the sequential loop leaves it: writes before
        # the bad read applied, writes after it not
        db, _requests = _db_requests()
        ops = [
            QueryRequest(ConjunctiveQuery.of(P(t1))),
            Mutation("assert_facts", (ProperAtom("Tag", (obj("aa"),)),)),
            BAD_READS[0],
            Mutation("assert_facts", (ProperAtom("Tag", (obj("bb"),)),)),
        ]
        seq_session = Session(db)
        want = outcome_of(lambda: execute_stream(seq_session, list(ops)))
        assert want[0] == "raise" and want[1] is ValueError
        piped_session = Session(db)
        with DaemonPool(piped_session, workers=2) as pool:
            got = outcome_of(
                lambda: execute_stream(piped_session, list(ops), pool=pool)
            )
        assert got[:2] == want[:2] and got[2] == want[2]
        assert piped_session.db == seq_session.db
        assert ProperAtom("Tag", (obj("aa"),)) in seq_session.db.proper_atoms
        assert (
            ProperAtom("Tag", (obj("bb"),)) not in seq_session.db.proper_atoms
        )


class TestInjectedCrashType:
    def test_injected_crash_is_a_repro_error(self):
        from repro.core.errors import ReproError

        assert issubclass(InjectedCrash, ReproError)


class TestEnvDifferential:
    """CI's fault-injection matrix entry point.

    The workflow runs this class once per ``REPRO_FAULTS`` value (one
    per injection site); locally, with no env set, it is a plain
    differential.  Whatever the environment injects — worker crash,
    hang, delay, dropped resync delta, torn WAL write, mid-compaction
    crash — the invariants must hold: pool results byte-for-byte equal
    sequential, and a recovered session byte-for-byte equal the oracle
    replay of everything that reached the log.
    """

    def test_pool_differential_under_env_faults(self):
        faults.install_from_env()
        db, requests = _db_requests()
        sequential = execute_many(Session(db), requests)
        session = Session(db)
        with DaemonPool(
            session, workers=2, reply_timeout=0.3, reply_retries=1
        ) as pool:
            assert pool.execute_many(requests) == sequential
            # a second batch across a mutation + resync: covers the
            # leader-side resync path (where pool.resync.drop fires) and
            # proves the pool keeps serving after any degrade/heal
            session.assert_facts(ProperAtom("Tag", (obj("env"),)))
            pool.resnapshot(session)
            got = pool.execute_many(requests)
            assert got == execute_many(Session(session.db), requests)
            # a mixed stream resyncs the pool at every write boundary,
            # so resync faults also land between its read runs
            ops = [
                *requests,
                Mutation("assert_facts", (ProperAtom("Tag", (obj("s1"),)),)),
                *requests,
                Mutation("retract_order", (lt(u, v),)),
                *requests,
            ]
            want = execute_stream(Session(session.db), list(ops))
            assert execute_stream(session, list(ops), pool=pool) == want

    def test_wal_differential_under_env_faults(self, tmp_path):
        import random

        from repro.engine.wal import WriteAheadLog, recover
        from repro.workloads.generators import mutation_class_stream

        faults.install_from_env()
        db, ops = mutation_class_stream(random.Random(5), n_rounds=2)
        live, oracle = Session(db), Session(db)
        path = str(tmp_path / "env.wal")
        wal = WriteAheadLog(path, sync="flush", compact_every=3)
        try:
            wal.attach(live)
        except InjectedCrash:
            pytest.skip(
                "env fault fires on the attach-time snapshot; use "
                "after=1 in the spec to reach the steady state"
            )
        for op in ops:
            try:
                op.apply(live)
            except InjectedCrash as exc:
                # a compaction crash happens AFTER the record hit the
                # log, a torn write INSTEAD of it — the oracle tracks
                # exactly what a recovering process can see
                if "compact" in str(exc):
                    op.apply(oracle)
                break
            op.apply(oracle)
        recovered = recover(path)
        assert recovered._proper == oracle._proper
        assert recovered._order == oracle._order
        assert recovered._gens() == oracle._gens()

    def test_replica_routing_differential_under_env_faults(self, tmp_path):
        """Routed reads under env faults == direct primary reads.

        All writes land *before* the faults arm, and the replica is
        allowed to catch up first — so whatever the environment then
        injects (a stalled follower, a skipped poll, a crashing
        replica, a torn write that can no longer happen) is pure read-
        path infrastructure failure for the router to absorb: every
        routed read must still return exactly the primary's payload.
        """
        import json
        import time

        from repro.engine.wal import WriteAheadLog
        from repro.server import ReplicaRouter, ReproClient, ServerThread

        def payload_of(reply):
            body = {
                k: v
                for k, v in reply.items()
                if k not in ("id", "seq", "applied_seq")
            }
            return json.dumps(body, sort_keys=True)

        path = str(tmp_path / "env-replica.wal")
        session = Session()
        wal = WriteAheadLog(path, sync="flush")
        wal.attach(session)
        primary = ServerThread(session, wal=wal, heartbeat_interval=0.05)
        p_addr = primary.start()
        replica = ServerThread(
            None, replica_of=path, poll_interval=0.01, heartbeat_timeout=5.0
        )
        r_addr = replica.start()
        try:
            reads = [
                ("answers", "Env(X)"),
                ("execute", "Env(a1)"),
                ("execute", "Env(zzz)"),
                ("answers", "Env(X) &"),  # a parse error is a payload too
            ]
            with ReproClient(*p_addr) as client:
                seq = 0
                for i in range(4):
                    seq = client.assert_facts(f"Env(a{i})")["seq"]
                expected = []
                for kind, arg in reads:
                    if kind == "answers":
                        reply = client.answers(arg, ["X"], check=False)
                    else:
                        reply = client.execute(arg, check=False)
                    expected.append(payload_of(reply))
            deadline = time.monotonic() + 30
            with ReproClient(*r_addr) as client:
                while client.stats()["applied_seq"] < seq:
                    assert time.monotonic() < deadline, "replica never caught up"
                    time.sleep(0.01)
            faults.install_from_env()
            router = ReplicaRouter(
                p_addr,
                [r_addr],
                timeout=30.0,
                wait_timeout=5.0,
                down_cooldown=0.05,
                backoff=0.01,
            )
            with router:
                router.last_write_seq = seq  # adopt the session's writes
                got = []
                for kind, arg in reads:
                    if kind == "answers":
                        reply = router.answers(arg, ["X"], check=False)
                    else:
                        reply = router.execute(arg, check=False)
                    assert reply.get("applied_seq", seq) >= seq
                    got.append(payload_of(reply))
            assert got == expected
        finally:
            faults.reset()
            replica.shutdown()
            primary.shutdown()
