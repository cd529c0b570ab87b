"""Tests for the command-line interface."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main

DB_TEXT = """
# two sensors
Boot(u1); Crash(u2); u1 < u2
Ping(v1); v1 < v2; Timeout(v2)
"""


@pytest.fixture
def db_file(tmp_path: pathlib.Path) -> str:
    path = tmp_path / "db.txt"
    path.write_text(DB_TEXT)
    return str(path)


class TestQueryCommand:
    def test_entailed(self, db_file, capsys):
        code = main(["query", db_file, "Boot(a) & a < b & Crash(b)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entailed: True" in out

    def test_not_entailed_with_countermodel(self, db_file, capsys):
        code = main(
            ["query", db_file, "Boot(a) & a < b & Ping(b)", "--countermodel"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "entailed: False" in out
        assert "countermodel:" in out

    def test_semantics_flag(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("P(u)\n")
        q = "P(t) & t < s & s < r & P(r)"
        assert main(["query", str(empty), q, "--semantics", "q"]) == 1

    def test_query_from_file(self, db_file, tmp_path, capsys):
        qfile = tmp_path / "q.txt"
        qfile.write_text("Boot(a) & a < b & Crash(b)")
        assert main(["query", db_file, str(qfile)]) == 0

    def test_method_flag(self, db_file, capsys):
        code = main(
            ["query", db_file, "Boot(a) & a < b & Crash(b)",
             "--method", "bruteforce"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "method:   bruteforce" in out

    def test_basis_method(self, db_file, capsys):
        code = main(
            ["query", db_file, "Boot(a) & a < b & Crash(b)",
             "--method", "basis"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "method:   basis" in out


class TestAnswersCommand:
    DB3 = "On(p1, lamp); On(p2, heater); Off(p3, lamp); p1 < p3\n"

    @pytest.fixture
    def db3_file(self, tmp_path: pathlib.Path) -> str:
        path = tmp_path / "db3.txt"
        path.write_text(self.DB3)
        return str(path)

    def test_answers(self, db3_file, capsys):
        code = main(
            ["answers", db3_file, "On(s, x) & Off(t, x) & s < t",
             "--free-vars", "x"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lamp" in out and "certain answers: 1" in out

    def test_answers_empty(self, db3_file, capsys):
        code = main(
            ["answers", db3_file, "Off(s, x) & On(t, x) & s < t",
             "--free-vars", "x"]
        )
        out = capsys.readouterr().out
        assert code == 1 and "certain answers: 0" in out


class TestJsonOutput:
    def test_query_json_entailed(self, db_file, capsys):
        code = main(["query", db_file, "Boot(a) & a < b & Crash(b)", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload == {"entailed": True, "method": "seq"}

    def test_query_json_countermodel(self, db_file, capsys):
        code = main(["query", db_file, "Boot(a) & a < b & Ping(b)",
                     "--json", "--countermodel"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["entailed"] is False
        assert "<" in payload["countermodel"]

    def test_answers_json(self, tmp_path, capsys):
        path = tmp_path / "db3.txt"
        path.write_text(TestAnswersCommand.DB3)
        code = main(["answers", str(path), "On(s, x) & Off(t, x) & s < t",
                     "--free-vars", "x", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["answers"] == [["lamp"]]
        assert payload["count"] == 1
        assert payload["method"]


class TestBatchCommand:
    STREAM = """
# mixed read/write stream
Boot(a) & a < b & Crash(b)
answers(): Boot(a) & a < b & Crash(b)
assert: Reset(u3); u2 < u3
Boot(a) & a < b & Reset(b)
retract: Reset(u3); u2 < u3
Boot(a) & a < b & Reset(b)
"""

    @pytest.fixture
    def stream_file(self, tmp_path: pathlib.Path) -> str:
        path = tmp_path / "stream.txt"
        path.write_text(self.STREAM)
        return str(path)

    def test_batch_stream(self, db_file, stream_file, capsys):
        code = main(["batch", db_file, stream_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "executed 6 ops (stream)" in out
        assert "entailed=True" in out and "entailed=False" in out

    def test_batch_json_results_track_writes(self, db_file, stream_file,
                                             capsys):
        code = main(["batch", db_file, stream_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        ops = payload["ops"]
        assert [op["kind"] for op in ops] == [
            "query", "query", "assert_facts", "query",
            "retract_facts", "query",
        ]
        assert ops[0]["entailed"] is True
        assert ops[1]["count"] == 1  # answers(): entailed -> {()}
        assert ops[3]["entailed"] is True   # after the assert
        assert ops[5]["entailed"] is False  # after the retract

    def test_batch_pool_read_only(self, db_file, tmp_path, capsys):
        path = tmp_path / "reads.txt"
        path.write_text("Boot(a) & a < b & Crash(b)\n"
                        "Boot(a) & a < b & Ping(b)\n"
                        "Boot(a) & a < b & Crash(b)\n")
        code = main(["batch", db_file, str(path), "--workers", "2",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mode"].startswith(("pool[2]", "sequential"))
        assert [op["entailed"] for op in payload["ops"]] == [
            True, False, True,
        ]

    def test_batch_pool_mixed_stream(self, db_file, stream_file, capsys):
        # a pooled mixed stream reports exactly the in-process results
        assert main(["batch", db_file, stream_file, "--json"]) == 0
        local = json.loads(capsys.readouterr().out)
        code = main(["batch", db_file, stream_file, "--workers", "2",
                     "--json"])
        pooled = json.loads(capsys.readouterr().out)
        assert code == 0
        assert pooled["mode"] in ("pool[2]", "stream")
        assert pooled["ops"] == local["ops"]

    def test_stream_introduced_constants_parse_as_constants(self, db_file,
                                                            tmp_path, capsys):
        # 'u9' exists only through a stream write; the query line naming
        # it must treat it as that order constant, not a fresh variable
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "Reset(u9)\n"
            "assert: Reset(u9); u2 < u9\n"
            "Reset(u9)\n"
            "Boot(a) & a < b & Reset(b)\n"
        )
        code = main(["batch", db_file, str(stream), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ops"][0]["entailed"] is False  # not asserted yet
        assert payload["ops"][2]["entailed"] is True
        assert payload["ops"][3]["entailed"] is True

    def test_batch_stream_orders_late_constants(self, tmp_path, capsys):
        # 'p2' is only labelled in the base file but ordered by a later
        # write: cross-fragment sort inference must type it order-sorted
        db = tmp_path / "db.txt"
        db.write_text("On(p1, lamp); On(p2, heater); Off(p3, lamp); p1 < p3\n")
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "answers(x): On(s, x) & Off(t, x) & s < t\n"
            "assert: Off(p4, heater); p2 < p4\n"
            "answers(x): On(s, x) & Off(t, x) & s < t\n"
        )
        code = main(["batch", str(db), str(stream), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ops"][0]["answers"] == [["lamp"]]
        assert payload["ops"][2]["answers"] == [["heater"], ["lamp"]]


class TestWatchCommand:
    def test_watch_reports_deltas(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text(TestAnswersCommand.DB3)
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "# toggle heater observations\n"
            "assert: Off(p4, heater); p2 < p4\n"
            "retract: Off(p3, lamp)\n"
        )
        code = main(["watch", str(db), "On(s, x) & Off(t, x) & s < t",
                     str(stream), "--free-vars", "x", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        steps = payload["steps"]
        assert steps[0]["answers"] == [["lamp"]]
        assert steps[1]["added"] == [["heater"]]
        assert steps[2]["removed"] == [["lamp"]]
        assert payload["delta_capable"] is True

    def test_watch_object_churn_uses_delta(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text("Tag(apple); Tag(pear)\n")
        stream = tmp_path / "stream.txt"
        stream.write_text("assert: Tag(plum)\nretract: Tag(pear)\n")
        code = main(["watch", str(db), "Tag(x)", str(stream),
                     "--free-vars", "x", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["full_refreshes"] == 1
        assert payload["delta_refreshes"] == 2
        assert payload["steps"][-1]["count"] == 2

    def test_watch_rejects_reads_in_stream(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text("Tag(apple)\n")
        stream = tmp_path / "stream.txt"
        stream.write_text("Tag(x)\n")
        code = main(["watch", str(db), "Tag(x)", str(stream),
                     "--free-vars", "x"])
        assert code == 2


class TestRemoteStreamCommands:
    """``batch``/``watch`` over ``--connect`` report exactly what the
    local commands report for the same database and stream."""

    DB = "On(p1, lamp); On(p2, heater); Off(p3, lamp); p1 < p3; p1 < p2\n"
    JOIN = "On(s, X) & Off(t, X) & s < t"
    BATCH = f"""
# reads around both write kinds
On(s, lamp) & Off(t, lamp) & s < t
answers(X): {JOIN}
assert: Off(p4, heater); p2 < p4
answers(X): {JOIN}
query: On(s, heater) & Off(t, heater) & s < t
retract: Off(p3, lamp)
answers(X): {JOIN}
"""
    WATCH = """
# toggle observations under the view (atoms listed out of print order)
assert: p2 < p4; Off(p4, heater)
retract: Off(p3, lamp)
assert: Off(p3, lamp)
"""

    def _run(self, tmp_path, capsys, argv, stream_text):
        from repro.api import Session
        from repro.server import ServerThread
        from repro.substrate.parser import parse_database

        db = tmp_path / "db.txt"
        db.write_text(self.DB)
        stream = tmp_path / "stream.txt"
        stream.write_text(stream_text)
        command, *rest = argv
        assert main([command, str(db), *rest, str(stream), "--json"]) == 0
        local = json.loads(capsys.readouterr().out)
        thread = ServerThread(Session(parse_database(self.DB)))
        host, port = thread.start()
        try:
            code = main([command, "-", *rest, str(stream), "--json",
                         "--connect", f"{host}:{port}"])
        finally:
            thread.shutdown()
        assert code == 0
        return local, json.loads(capsys.readouterr().out)

    def test_batch_remote_equals_local(self, tmp_path, capsys):
        local, remote = self._run(tmp_path, capsys, ["batch"], self.BATCH)
        assert len(local["ops"]) == 7
        assert remote["ops"] == local["ops"]

    def test_watch_remote_equals_local(self, tmp_path, capsys):
        local, remote = self._run(
            tmp_path, capsys, ["watch", self.JOIN, "--free-vars", "X"],
            self.WATCH,
        )
        assert len(local["steps"]) == 4
        assert any(step.get("added") for step in local["steps"])
        assert any(step.get("removed") for step in local["steps"])
        assert remote["steps"] == local["steps"]


class TestBenchSessionCommand:
    def test_bench_session_entailment(self, db_file, capsys):
        code = main(
            ["bench-session", db_file, "Boot(a) & a < b & Crash(b)",
             "--repeat", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "prepared:" in out and "results:   match" in out

    def test_bench_session_answers(self, tmp_path, capsys):
        path = tmp_path / "db3.txt"
        path.write_text(TestAnswersCommand.DB3)
        code = main(
            ["bench-session", str(path), "On(s, x) & Off(t, x) & s < t",
             "--free-vars", "x", "--repeat", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "results:   match" in out


class TestErrorExitCode:
    """Errors exit 2 with one stderr line, apart from the verdict codes."""

    @pytest.mark.parametrize("argv, error", [
        (["query", "{db}", "Boot(a) & ((("], "ParseError"),
        # 'paths' decides a single conjunctive query, not a disjunction
        (["query", "{db}", "Boot(a) | Crash(b)", "--method", "paths"],
         "ValueError"),
        (["query", "{missing}", "Boot(a)"], "FileNotFoundError"),
    ])
    def test_error_exits_2(self, db_file, tmp_path, capsys, argv, error):
        missing = str(tmp_path / "missing.txt")
        argv = [a.format(db=db_file, missing=missing) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}: ")
        assert captured.err.count("\n") == 1


class TestOtherCommands:
    def test_models_count(self, db_file, capsys):
        assert main(["models", db_file]) == 0
        assert "minimal models: 13" in capsys.readouterr().out

    def test_models_list(self, db_file, capsys):
        assert main(["models", db_file, "--list", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "listed 3 minimal models" in out

    def test_classify(self, db_file, capsys):
        assert main(["classify", db_file, "Boot(a) & a < b & Crash(b)"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out and "SEQ" in out

    def test_width(self, db_file, capsys):
        assert main(["width", db_file]) == 0
        assert "width: 2" in capsys.readouterr().out

    def test_inconsistent_database(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("u < v; v < u\n")
        assert main(["models", str(bad)]) == 1
