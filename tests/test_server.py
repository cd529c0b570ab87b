"""Serving-tier tests: concurrency, protocol robustness, drain, faults.

The centerpiece is the concurrent-client differential: N threads fire
interleaved reads and writes at one :class:`ReproServer`, every reply
carries the server's global ``seq``, and the whole trace — sorted by
``seq`` — is replayed op by op on a fresh sequential
:class:`~repro.api.session.Session`.  Every reply payload must match
the replay byte for byte (as canonical JSON), errors included: the
serving tier's one-queue/one-engine discipline *defines* concurrent
execution as the sequential stream in arrival order, and this test is
that definition made executable.

Around it: wire-protocol failure handling (structured error replies
for well-framed garbage, fatal-frame-then-close for framing breaks),
backpressure (``max_inflight`` caps pipelining; a slow watch consumer
is dropped rather than buffered forever), graceful drain (queued ops
answered, WAL group-commit window flushed, then sockets close), and
the ``server.conn.drop`` fault site (one client sees a severed
connection; the server keeps serving everyone else).
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import subprocess
import sys
import threading

import pytest

import repro
from repro.api import Session
from repro.core.sorts import objvar
from repro.engine import faults
from repro.engine.batch import Mutation, QueryRequest
from repro.engine.faults import FaultRule
from repro.engine.wal import WriteAheadLog
from repro.server import (
    MAX_FRAME,
    ClientError,
    ProtocolError,
    ReproClient,
    ReproServer,
    ServerReplyError,
    ServerThread,
)
from repro.server.protocol import _SEMANTICS, _result_payload
from repro.substrate.parser import parse_database, parse_query, scan_order_names

DB_TEXT = """
On(p1, lamp)
On(p2, heater)
Off(p3, lamp)
p1 < p3
p1 < p2
"""

#: the join every read below asks: which devices certainly went
#: on-then-off?
JOIN = "On(s, X) & Off(t, X) & s < t"


def _session() -> Session:
    return Session(parse_database(DB_TEXT))


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def served():
    thread = ServerThread(_session())
    host, port = thread.start()
    yield thread, host, port
    thread.shutdown()


def _payload_of(reply: dict) -> str:
    """A reply's op payload as canonical JSON (id/seq/ok stripped)."""
    body = {k: v for k, v in reply.items() if k not in ("id", "seq", "ok")}
    return json.dumps(body, sort_keys=True)


# ---------------------------------------------------------------------------
# basic op surface


class TestOps:
    def test_ping_execute_answers(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            assert client.ping()["pong"] is True
            reply = client.execute("On(s, lamp) & Off(t, lamp) & s < t")
            assert reply["entailed"] is True and reply["seq"] >= 1
            reply = client.answers(JOIN, ["X"])
            assert reply["answers"] == [["lamp"]] and reply["count"] == 1

    def test_prepare_handle_roundtrip_and_release(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            handle = client.prepare(JOIN, ["X"])
            by_handle = client.answers(handle=handle)
            by_text = client.answers(JOIN, ["X"])
            assert _payload_of(by_handle) == _payload_of(by_text)
            assert client.call("release", handle=handle)["released"] is True
            with pytest.raises(ServerReplyError) as err:
                client.answers(handle=handle)
            assert err.value.type == "PayloadError"

    def test_handle_namespaces_are_per_connection(self, served):
        _, host, port = served
        with ReproClient(host, port) as one, ReproClient(host, port) as two:
            h1 = one.prepare(JOIN, ["X"])
            # the other connection gets its own counter and cannot see
            # the first connection's plans
            with pytest.raises(ServerReplyError) as err:
                two.answers(handle=h1)
            assert err.value.type == "PayloadError"
            assert two.prepare("On(s, X)", ["X"]) == h1

    def test_in_process_client_equals_socket_client(self, served):
        # connect_local runs the same dispatch: the same replies (seq,
        # errors and countermodels included) and the same watch events
        _, host, port = served
        ops = [
            ("execute", {"query": "On(s, lamp) & Off(t, lamp) & s < t"}),
            ("execute", {"query": "On(s, heater) & Off(t, lamp) & t < s",
                         "countermodel": True}),
            ("execute", {"query": "On(s, lamp)", "countermodel": "yes"}),
            ("watch", {"query": JOIN, "free_vars": ["X"]}),
            ("assert", {"facts": "Off(p4, heater); p2 < p4"}),
            ("answers", {"query": JOIN, "free_vars": ["X"]}),
            ("unwatch", {"watch": 1}),
        ]
        with ReproClient(host, port) as remote, \
                ReproServer(_session()).connect_local() as local:
            replies = []
            for op, fields in ops:
                replies.append(remote.call(op, check=False, **fields))
                assert local.call(op, check=False, **fields) == replies[-1]
            assert local.take_events() == remote.take_events() != []
        assert replies[1]["countermodel"].startswith("<")
        assert replies[2]["error"]["type"] == "PayloadError"
        assert replies[6]["full_refreshes"] >= 1

    def test_mutations_change_later_reads(self, served):
        _, host, port = served
        query = "On(s, heater) & Off(t, heater) & s < t"
        with ReproClient(host, port) as client:
            assert client.execute(query)["entailed"] is False
            applied = client.assert_facts("Off(p4, heater); p2 < p4")
            assert applied["applied"] == 2
            assert client.execute(query)["entailed"] is True
            client.retract_facts("Off(p4, heater)")
            assert client.execute(query)["entailed"] is False

    def test_batch_rows_match_cli_shape(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            reply = client.batch([
                "assert: Off(p4, heater); p2 < p4",
                f"answers(X): {JOIN}",
                "On(s, lamp) & Off(t, lamp) & s < t",
            ])
            assert reply["mode"] == "stream"
            kinds = [row["kind"] for row in reply["ops"]]
            assert kinds == ["assert_facts", "query", "query"]
            assert reply["ops"][1]["answers"] == [["heater"], ["lamp"]]
            assert reply["ops"][2]["entailed"] is True

    def test_structured_error_reply_keeps_connection(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            bad = client.call("execute", check=False, query="On(")
            assert bad["ok"] is False and bad["error"]["type"]
            unknown = client.call("no-such-op", check=False)
            assert unknown["error"]["type"] == "PayloadError"
            # both errors consumed a seq and the connection still works
            assert client.ping()["pong"] is True

    def test_mis_sorted_query_gets_sort_error_and_connection_lives(
        self, served
    ):
        # 't' / 'X' are order-sorted by their '<' atom, but the 'On'
        # facts hold objects in that position: a typed error reply (not
        # an internal TypeError), and the reads pipelined around the bad
        # ones in the same engine drain still get their verdicts
        _, host, port = served
        good = "On(s, lamp) & Off(t, lamp) & s < t"
        with ReproClient(host, port) as client:
            rids = [
                client.send("execute", query=good),
                client.send("execute", query="On(s, t) & s < t"),
                client.send("answers", query="On(s, X) & s < X",
                            free_vars=["X"]),
                client.send("execute", query=good),
            ]
            replies = [client.wait(rid, check=False) for rid in rids]
            assert [r["ok"] for r in replies] == [True, False, False, True]
            assert replies[1]["error"]["type"] == "SortError"
            assert replies[2]["error"]["type"] == "SortError"
            assert replies[3]["entailed"] is True
            assert client.ping()["pong"] is True

    def test_unknown_free_variable_gets_value_error_and_connection_lives(
        self, served
    ):
        # 'Y' names no variable of the query: a typed error reply instead
        # of silently answering for 'X'
        _, host, port = served
        with ReproClient(host, port) as client:
            rids = [
                client.send("answers", query="On(s, X)", free_vars=["Y"]),
                client.send("answers", query="On(s, X)", free_vars=["X"]),
            ]
            bad, good = [client.wait(rid, check=False) for rid in rids]
            assert bad["ok"] is False
            assert bad["error"]["type"] == "ValueError"
            assert "Y" in bad["error"]["message"]
            assert good["answers"] == [["heater"], ["lamp"]]
            assert client.ping()["pong"] is True

    def test_stats_op(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            client.ping()
            stats = client.stats()
            assert stats["connections"] == 1
            assert stats["open_connections"] == 1
            # the stats op itself is counted only when its reply is
            # stamped, after the payload snapshot
            assert stats["requests"] >= 1
            assert stats["seq"] >= 1


# ---------------------------------------------------------------------------
# the parse memo: keyed on the database vocabulary, prepared once per read


def _fresh_reply(db_text: str, query: str) -> str:
    """The payload a brand-new server on ``db_text`` answers ``query`` with."""
    thread = ServerThread(Session(parse_database(db_text)))
    try:
        host, port = thread.start()
        with ReproClient(host, port) as client:
            return _payload_of(client.call("execute", check=False, query=query))
    finally:
        thread.shutdown()


class TestParseMemo:
    def _memo_then_write(self, db_text, query, facts, final_db_text):
        thread = ServerThread(Session(parse_database(db_text)))
        try:
            host, port = thread.start()
            with ReproClient(host, port) as client:
                before = client.execute(query)
                client.assert_facts(facts)
                after = client.execute(query)
        finally:
            thread.shutdown()
        assert _payload_of(after) == _fresh_reply(final_db_text, query)
        return before, after

    def test_new_constant_reparses_a_memoized_text(self):
        # 'lamp' is a variable until a fact names it, then a constant
        before, after = self._memo_then_write(
            "Off(p1, heater); p1 < p2",
            "Off(t, lamp)",
            "On(p3, lamp)",
            "Off(p1, heater); p1 < p2; On(p3, lamp)",
        )
        assert before["entailed"] is True and after["entailed"] is False

    def test_mixed_sort_position_reparses_a_memoized_text(self):
        # 's' is order-sorted while Off's first position holds only
        # order constants; once it holds an object too, 's' defaults to
        # the object sort and can meet Tag(radio)
        before, after = self._memo_then_write(
            "Off(p1, fan); p1 < p2; Tag(radio)",
            "Off(s, fan) & Tag(s)",
            "Off(radio, fan)",
            "Off(p1, fan); p1 < p2; Tag(radio); Off(radio, fan)",
        )
        assert before["entailed"] is False and after["entailed"] is True

    def test_stats_reports_the_parse_memo(self, served):
        from repro.substrate.parser import PARSE_MEMO_LIMIT

        _, host, port = served
        with ReproClient(host, port) as client:
            empty = client.stats()["parse_memo"]
            assert empty == {
                "total": PARSE_MEMO_LIMIT,
                "used": 0,
                "available": PARSE_MEMO_LIMIT,
            }
            for text in (JOIN, JOIN, "On(s, heater)", "On("):
                client.call("execute", check=False, query=text)
            # two distinct texts parsed; the parse error is not kept
            assert client.stats()["parse_memo"] == {
                "total": PARSE_MEMO_LIMIT,
                "used": 2,
                "available": PARSE_MEMO_LIMIT - 2,
            }
            # a write that adds constants starts a new, empty memo
            client.assert_facts("On(p9, radio)")
            assert client.stats()["parse_memo"]["used"] == 0

    def test_each_read_prepares_once(self, served, monkeypatch):
        calls = []
        prepare = Session.prepare

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return prepare(self, *args, **kwargs)

        monkeypatch.setattr(Session, "prepare", counting)
        _, host, port = served
        texts = ["On(s, lamp)", "On(s, heater)", JOIN, "Off(t, lamp)"]
        with ReproClient(host, port) as client:
            rids = [client.send("execute", query=text) for text in texts]
            for rid in rids:
                client.wait(rid)
        assert len(calls) == len(texts)


# ---------------------------------------------------------------------------
# the concurrent-client differential


def _client_script(tid: int) -> list[dict]:
    """One client's op mix: reads, writes, and a guaranteed error."""
    mark = "abcd"[tid]
    item0, item1 = f"dev{mark}0", f"dev{mark}1"
    return [
        {"kind": "execute", "text": "On(s, lamp) & Off(t, lamp) & s < t"},
        {
            "kind": "assert",
            "text": f"On(s{mark}0, {item0}); Off(t{mark}0, {item0}); "
                    f"s{mark}0 < t{mark}0",
        },
        {"kind": "answers", "text": JOIN, "free": ["X"]},
        {"kind": "execute", "text": "On("},  # parse error, on purpose
        # chained after the first assert's timepoints: each client
        # adds one linear branch, keeping the database width (and so
        # the minimal-model enumeration cost) at the number of clients
        {
            "kind": "assert",
            "text": f"On(s{mark}1, {item1}); Off(t{mark}1, {item1}); "
                    f"t{mark}0 < s{mark}1; s{mark}1 < t{mark}1",
        },
        {"kind": "answers", "text": JOIN, "free": ["X"]},
        {"kind": "execute", "text": "On(s, heater)"},
    ]


def _run_script(host, port, tid, barrier, out, errors):
    try:
        with ReproClient(host, port) as client:
            barrier.wait(10)
            for spec in _client_script(tid):
                if spec["kind"] == "execute":
                    reply = client.call(
                        "execute", check=False, query=spec["text"]
                    )
                elif spec["kind"] == "answers":
                    reply = client.call(
                        "answers",
                        check=False,
                        query=spec["text"],
                        free_vars=spec["free"],
                    )
                else:
                    reply = client.call(
                        "assert", check=False, facts=spec["text"]
                    )
                out.append((reply["seq"], spec, _payload_of(reply)))
    except Exception as exc:  # pragma: no cover - surfaced in the test
        errors.append(exc)


def _replay_sequentially(spec: dict, session: Session) -> str:
    """What a sequential session answers for ``spec`` — as canonical JSON."""
    try:
        if spec["kind"] == "assert":
            text = spec["text"]
            names = scan_order_names(text) | session.db.order_constants
            fragment = parse_database(text, extra_order=names)
            mutation = Mutation("assert_facts", tuple(fragment.atoms()))
            mutation.apply(session)
            payload = {"kind": "assert_facts", "applied": len(mutation.atoms)}
        else:
            free = spec.get("free")
            free_vars = (
                tuple(objvar(n) for n in free) if free is not None else None
            )
            request = QueryRequest(
                parse_query(spec["text"], session.db),
                _SEMANTICS["fin"],
                "auto",
                free_vars=free_vars,
            )
            payload = _result_payload(request.prepare(session).execute())
        return json.dumps(payload, sort_keys=True)
    except Exception as exc:
        return json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sort_keys=True,
        )


def _differential(host, port, clients: int) -> None:
    barrier = threading.Barrier(clients)
    traces: list[list] = [[] for _ in range(clients)]
    errors: list[Exception] = []
    threads = [
        threading.Thread(
            target=_run_script,
            args=(host, port, tid, barrier, traces[tid], errors),
        )
        for tid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors, errors

    merged = sorted(
        (item for trace in traces for item in trace), key=lambda it: it[0]
    )
    assert len(merged) == clients * len(_client_script(0))
    # seq numbers are the one global order: all distinct
    assert len({seq for seq, _, _ in merged}) == len(merged)

    replay = _session()
    for seq, spec, payload in merged:
        assert _replay_sequentially(spec, replay) == payload, (seq, spec)


class TestConcurrentDifferential:
    def test_concurrent_equals_sequential(self, served):
        _, host, port = served
        _differential(host, port, clients=4)

    def test_pipelined_reads_batch(self, served):
        thread, host, port = served
        with ReproClient(host, port) as client:
            rids = [
                client.send(
                    "execute", query="On(s, lamp) & Off(t, lamp) & s < t"
                )
                for _ in range(64)
            ]
            for rid in rids:
                assert client.wait(rid)["entailed"] is True
            stats = client.stats()
        # the engine saw at least one multi-read run and batched it
        assert stats["read_batches"] >= 1
        assert stats["batched_reads"] >= 2


# ---------------------------------------------------------------------------
# protocol robustness


class TestProtocol:
    def test_malformed_body_gets_error_reply_connection_lives(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            body = b"this is not json"
            client.send_raw(struct.pack("!I", len(body)) + body)
            frame = client.read_frame()
            assert frame["ok"] is False
            assert frame["error"]["type"] == "PayloadError"
            assert not frame.get("fatal")
            assert client.ping()["pong"] is True

    def test_non_object_body_gets_error_reply(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            body = json.dumps([1, 2, 3]).encode()
            client.send_raw(struct.pack("!I", len(body)) + body)
            frame = client.read_frame()
            assert frame["error"]["type"] == "PayloadError"
            assert client.ping()["pong"] is True

    def test_oversized_frame_is_fatal(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            client.send_raw(struct.pack("!I", MAX_FRAME + 1))
            frame = client.read_frame()
            assert frame["fatal"] is True
            assert frame["error"]["type"] == "FrameError"
            assert client.read_frame() is None  # server closed its side

    def test_server_survives_protocol_abuse(self, served):
        _, host, port = served
        with ReproClient(host, port) as abuser:
            abuser.send_raw(struct.pack("!I", MAX_FRAME + 1))
            abuser.read_frame()
        with ReproClient(host, port) as client:
            assert client.ping()["pong"] is True
            assert client.stats()["protocol_errors"] >= 1


    def test_server_package_does_not_import_the_cli(self):
        # the wire layer lives in repro.server.protocol; the CLI is a
        # client of the server package, never a dependency of it
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        code = (
            "import sys, repro.server\n"
            "assert 'repro.cli' not in sys.modules, 'repro.cli imported'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# backpressure


class TestBackpressure:
    def test_pipelining_capped_at_max_inflight(self):
        thread = ServerThread(_session(), max_inflight=4)
        try:
            host, port = thread.start()
            with ReproClient(host, port) as client:
                rids = [
                    client.send(
                        "execute", query="On(s, lamp) & Off(t, lamp) & s < t"
                    )
                    for _ in range(100)
                ]
                for rid in rids:
                    client.wait(rid)
                stats = client.stats()
            assert stats["conn_peak_inflight"] <= 4
        finally:
            thread.shutdown()

    def test_slow_watch_consumer_is_dropped_not_buffered(self, served):
        import asyncio

        thread, host, port = served
        watcher = ReproClient(host, port)
        try:
            watcher.watch(JOIN, ["X"])
            # reach inside: shrink the outbox cap and push a burst of
            # events from the server loop without yielding, so the
            # writer task cannot drain in between — the shape a reader
            # that stopped consuming mid-flood produces
            (conn,) = [c for c in thread.server._conns if c.watches]
            conn._outbox_cap = 8

            async def _flood():
                for i in range(20):
                    conn.push({"event": "watch", "watch": 1, "noise": i})

            asyncio.run_coroutine_threadsafe(_flood(), thread._loop).result(10)
            assert conn.aborted
            with pytest.raises((ClientError, ProtocolError, OSError)):
                while True:  # drain whatever was in flight, then fail
                    if watcher.read_frame() is None:
                        raise ClientError("EOF")
            # the server survives and keeps serving everyone else
            with ReproClient(host, port) as client:
                assert client.ping()["pong"] is True
        finally:
            watcher.close()


# ---------------------------------------------------------------------------
# watch events


class TestWatch:
    def test_event_precedes_causing_write_and_shares_seq(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            opened = client.watch(JOIN, ["X"])
            assert opened["answers"] == [["lamp"]]
            reply = client.assert_facts("Off(p4, heater); p2 < p4")
            events = client.take_events()
            assert len(events) == 1
            assert events[0]["added"] == [["heater"]]
            assert events[0]["removed"] == []
            assert events[0]["seq"] == reply["seq"]
            reply = client.retract_facts("Off(p4, heater)")
            events = client.take_events()
            assert events[0]["removed"] == [["heater"]]
            assert events[0]["seq"] == reply["seq"]

    def test_unwatch_stops_events(self, served):
        _, host, port = served
        with ReproClient(host, port) as client:
            wid = client.watch(JOIN, ["X"])["watch"]
            assert client.call("unwatch", watch=wid)["unwatched"] is True
            client.assert_facts("Off(p4, heater); p2 < p4")
            assert client.take_events() == []

    def test_other_connections_see_my_writes(self, served):
        _, host, port = served
        with ReproClient(host, port) as watcher, ReproClient(
            host, port
        ) as writer:
            watcher.watch(JOIN, ["X"])
            writer.assert_facts("Off(p4, heater); p2 < p4")
            # the event is on the watcher's socket; any blocking read
            # surfaces it (ping gives the read loop something to wait on)
            watcher.ping()
            events = watcher.take_events()
            assert events and events[0]["added"] == [["heater"]]


# ---------------------------------------------------------------------------
# graceful drain


class TestDrain:
    def test_queued_ops_answered_then_eof(self, served):
        thread, host, port = served
        client = ReproClient(host, port)
        try:
            rids = [
                client.send(
                    "execute", query="On(s, lamp) & Off(t, lamp) & s < t"
                )
                for _ in range(20)
            ]
            # first reply in hand: the server has accepted the
            # connection and its engine is working through the ops.
            # (A connection still in the TCP backlog when drain closes
            # the listener is unreachable by the server — that is what
            # client-side timeouts are for.)
            first = client.wait(rids[0], check=False)
            assert first["ok"] is True
            thread.shutdown()
            # every op the server read before closing gets an answer —
            # processed (ok) or refused with the structured Draining
            # error — in send order, then a clean EOF; nothing is
            # silently half-answered
            replies = []
            while True:
                frame = client.read_frame()
                if frame is None:
                    break
                replies.append(frame)
            for reply in replies:
                assert reply["ok"] is True or (
                    reply["error"]["type"] == "Draining"
                )
            assert [r["id"] for r in replies] == rids[1 : len(replies) + 1]
        finally:
            client.close()

    def test_drained_server_refuses_new_connections(self, served):
        thread, host, port = served
        with ReproClient(host, port) as client:
            client.ping()
        thread.shutdown()
        with pytest.raises(OSError):
            ReproClient(host, port, timeout=2.0)

    def test_connection_ending_mid_drain_is_closed(self):
        """A client that hangs up while the server drains still gets its
        server-side socket closed before the drain returns (a connection
        handler that ended mid-drain used to leave drain() nothing to
        close, leaking an open transport past the loop's end)."""
        import asyncio

        from repro.server.protocol import encode_frame, read_frame_async

        async def scenario():
            server = ReproServer(_session(), "127.0.0.1", 0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(encode_frame({"op": "ping", "id": 1}))
            assert (await read_frame_async(reader))["pong"] is True
            (conn,) = server._conns
            # hold the drain between refusing new work and closing the
            # connections, long enough for the handler to see the EOF
            engine = server._engine_task

            async def slow_engine():
                await engine
                await asyncio.sleep(0.2)

            server._engine_task = asyncio.create_task(slow_engine())
            drain = asyncio.create_task(server.drain())
            await asyncio.sleep(0)
            assert server._draining
            writer.close()
            await drain
            closed = conn.writer.transport.is_closing()
            await writer.wait_closed()
            return closed

        assert asyncio.run(scenario())

    def test_drain_flushes_group_commit_wal(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        session = _session()
        wal = WriteAheadLog(path, sync="group").attach(session)
        thread = ServerThread(session, wal=wal)
        try:
            host, port = thread.start()
            with ReproClient(host, port) as client:
                client.assert_facts("Off(p4, heater); p2 < p4")
                client.assert_facts("On(p5, fan); Off(p6, fan); p5 < p6")
        finally:
            thread.shutdown()
        recovered = Session.recover(path)
        assert recovered.size() == session.size()
        request = QueryRequest(
            parse_query(JOIN, recovered.db),
            _SEMANTICS["fin"],
            "auto",
            free_vars=(objvar("X"),),
        )
        payload = _result_payload(request.prepare(recovered).execute())
        assert payload["answers"] == [["fan"], ["heater"], ["lamp"]]


# ---------------------------------------------------------------------------
# fault injection: server.conn.drop


class TestConnDropFault:
    def test_dropped_client_sees_eof_server_stays_up(self, served):
        thread, host, port = served
        faults.install([FaultRule(faults.SITE_CONN_DROP)])
        victim = ReproClient(host, port)
        try:
            with pytest.raises((ClientError, ProtocolError, OSError)):
                victim.ping()
        finally:
            victim.close()
        faults.reset()
        with ReproClient(host, port) as client:
            assert client.ping()["pong"] is True
            stats = client.stats()
            assert stats["conn_drops"] == 1

    def test_env_spec_names_the_site(self):
        rules = faults.parse_spec("server.conn.drop")
        assert [r.site for r in rules] == [faults.SITE_CONN_DROP]
