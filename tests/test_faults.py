"""Fault-injection tests: the engine under deterministic partial failure.

The rule/spec machinery itself, the read validation that keeps batched
reads at exact raise-point parity, and the env-armed differentials CI
runs once per injection site: whatever the environment injects — a torn
WAL write, a crashed compaction, a stalled follower, a lagging or
crashing replica — recovered state and routed reads must be
byte-for-byte those of the fault-free oracle.  The server's fault sites
are driven end to end in ``tests/test_server.py`` and
``tests/test_replica.py``, the WAL's in ``tests/test_wal.py``.
"""

from __future__ import annotations

import logging

import pytest

from repro.api import Session
from repro.core.atoms import ProperAtom, lt
from repro.core.database import IndefiniteDatabase
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery
from repro.core.sorts import obj, ordc, ordvar
from repro.engine import Mutation, QueryRequest, execute_many, execute_stream
from repro.engine import faults
from repro.engine.faults import FaultRule, InjectedCrash

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
            "wal.compact.crash:stage=1:after=2;"
            "wal.torn_write:fraction=0.25:times=0"
        )
        assert [r.site for r in rules] == [
            faults.SITE_WAL_COMPACT, faults.SITE_WAL_TORN,
        ]
        assert rules[0].after == 2
        assert rules[0].params == {"stage": 1.0}
        assert rules[1].times == 0
        assert rules[1].params == {"fraction": 0.25}

    def test_malformed_entries_warn_and_drop(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.engine.faults"):
            rules = faults.parse_spec(
                "no.such.site;"              # unknown site
                "wal.compact.crash:stage;"   # missing =value
                "wal.torn_write:fraction=lots;"  # non-numeric
                "server.conn.drop:after=3"   # the one valid entry
            )
        assert [r.site for r in rules] == [faults.SITE_CONN_DROP]
        assert "unknown fault site" in caplog.text
        assert "malformed" in caplog.text
        assert "not numeric" in caplog.text

    def test_install_from_env(self):
        assert not faults.install_from_env({})
        assert not faults.install_from_env({"REPRO_FAULTS": ""})
        assert faults.install_from_env(
            {"REPRO_FAULTS": "wal.follower.stall:times=0"}
        )
        assert faults.active()
        faults.reset()
        # an all-malformed spec installs nothing
        assert not faults.install_from_env({"REPRO_FAULTS": "no.such.site"})


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
        # a raising read must leave the stream's session in the exact
        # state the one-op-at-a-time loop leaves it: writes before the
        # bad read applied, writes after it not
        db, _requests = _db_requests()
        ops = [
            QueryRequest(ConjunctiveQuery.of(P(t1))),
            Mutation("assert_facts", (ProperAtom("Tag", (obj("aa"),)),)),
            BAD_READS[0],
            Mutation("assert_facts", (ProperAtom("Tag", (obj("bb"),)),)),
        ]
        seq_session = Session(db)

        def one_at_a_time():
            for op in ops:
                if isinstance(op, Mutation):
                    op.apply(seq_session)
                else:
                    op.prepare(seq_session).execute()

        want = outcome_of(one_at_a_time)
        assert want[0] == "raise" and want[1] is ValueError
        stream_session = Session(db)
        got = outcome_of(lambda: execute_stream(stream_session, list(ops)))
        assert got == want
        assert stream_session.db == seq_session.db
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
    differential.  Whatever the environment injects — torn WAL write,
    mid-compaction crash, stalled follower, lagging or crashing replica
    — the invariants must hold: a recovered session byte-for-byte equal
    to the oracle replay of everything that reached the log, and routed
    reads equal to direct primary reads.
    """

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
