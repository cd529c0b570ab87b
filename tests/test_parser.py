"""Tests for the text DSL parser."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.api import Session
from repro.core.atoms import ProperAtom
from repro.core.entailment import entails
from repro.core.errors import ParseError
from repro.core.sorts import Sort, obj, ordc
from repro.substrate.parser import PARSE_MEMO_LIMIT, parse_database, parse_query

#: ``src/`` — the path a subprocess needs to import this checkout
SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def _run(code: str, seed: int, stdin: str = "") -> str:
    """Run ``code`` in a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": str(seed)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestDatabaseParsing:
    def test_basic(self):
        db = parse_database(
            """
            # a comment
            order: u v
            P(u); Q(v)
            u < v
            """
        )
        assert db.order_constants == {"u", "v"}
        assert {a.pred for a in db.proper_atoms} == {"P", "Q"}

    def test_sort_inference_from_order_atoms(self):
        db = parse_database("P(u); u < v; Q(v)")
        assert db.order_constants == {"u", "v"}

    def test_object_default(self):
        db = parse_database("R(u, a); u < w")
        atom = next(a for a in db.proper_atoms if a.pred == "R")
        assert atom.args[0].sort is Sort.ORDER
        assert atom.args[1].sort is Sort.OBJECT

    def test_neq(self):
        db = parse_database("P(u); P(v); u != v")
        assert db.has_neq

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_database("P(")
        with pytest.raises(ParseError):
            parse_database("u <")
        with pytest.raises(ParseError):
            parse_database("P()")


class TestQueryParsing:
    def test_variables_and_order_inference(self):
        q = parse_query("P(t1) & t1 < t2 & Q(t2)")
        (cq,) = q.disjuncts
        assert {v.name for v in cq.order_variables()} == {"t1", "t2"}

    def test_disjunction(self):
        q = parse_query("P(t) | Q(t)")
        assert len(q.disjuncts) == 2

    def test_constants_from_database(self):
        db = parse_database("order: u\nP(u); Tag(A)")
        q = parse_query("P(u) & Tag(A)", db)
        (cq,) = q.disjuncts
        consts = {c.name for c in cq.constants()}
        assert consts == {"u", "A"}

    def test_signature_typing(self):
        db = parse_database("order: u\nP(u)")
        q = parse_query("P(t)", db)  # t must come out order-sorted
        (cq,) = q.disjuncts
        assert next(iter(cq.order_variables())).name == "t"
        assert cq.is_monadic()

    def test_end_to_end(self):
        db = parse_database(
            """
            Boot(u); Crash(v); u < v
            """
        )
        assert entails(db, parse_query("Boot(a) & a < b & Crash(b)", db))
        assert not entails(db, parse_query("Crash(a) & a < b & Boot(b)", db))

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_query("")
        with pytest.raises(ParseError):
            parse_query("P(t) | ")


#: ``On`` holds order constants at position 0 in some facts and object
#: constants in others; ``Off`` holds only order constants there.
MIXED_DB = (
    "On(p1, lamp); On(heater, p2); p1 < p2; Off(p3, fan); On(p3, fan); "
    "On(radio, p4); p3 < p4"
)

_SEED_CASE = """
import json
from repro.api import Session
from repro.server import ReproClient, ServerThread
from repro.substrate.parser import parse_database, parse_query

DB, TEXT = {db!r}, {text!r}


def outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__

db = parse_database(DB)
session = outcome(lambda: Session(db).entails(parse_query(TEXT, db)))
thread = ServerThread(Session(parse_database(DB)))
host, port = thread.start()
try:
    with ReproClient(host, port) as client:
        reply = client.call("execute", check=False, query=TEXT)
finally:
    thread.shutdown()
reply.pop("id", None)
print(json.dumps({{"session": session, "server": reply}}, sort_keys=True))
"""


class TestQuerySortInference:
    def test_mixed_position_infers_no_sort(self):
        db = parse_database(MIXED_DB)
        (cq,) = parse_query("On(s, X) & Off(s, X)", db).disjuncts
        sorts = {v.name: v.sort for v in cq.variables()}
        # 's' fills Off's order-only position; 'X' fills only positions
        # that hold both sorts (On) or objects (Off)
        assert sorts == {"s": Sort.ORDER, "X": Sort.OBJECT}

    def test_answer_does_not_depend_on_the_hash_seed(self):
        code = _SEED_CASE.format(db=MIXED_DB, text="On(s, X) & Off(s, X)")
        replies = {seed: _run(code, seed) for seed in range(8)}
        assert len(set(replies.values())) == 1, replies
        reply = json.loads(replies[0])
        assert reply["session"] is True
        assert reply["server"]["ok"] is True
        assert reply["server"]["entailed"] is True


class TestParseMemo:
    DB = "P(u1); Q(u2); u1 < u2; Tag(A); Tag(B); Mark(A)"

    def test_repeated_text_returns_the_same_query(self):
        db = parse_database(self.DB)
        q = parse_query("P(a) & a < b & Q(b)", db)
        assert parse_query("P(a) & a < b & Q(b)", db) is q
        assert parse_query("P(a) & a < b & Q(b)") == q  # no db, no memo
        assert db.vocabulary.parses == {"P(a) & a < b & Q(b)": q}

    def test_parse_errors_are_not_memoized(self):
        db = parse_database(self.DB)
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_query("P(", db)
        assert db.vocabulary.parses == {}

    def test_object_and_label_toggles_keep_the_vocabulary(self):
        session = Session(parse_database(self.DB))
        vocab = session.db.vocabulary
        q = parse_query("Tag(x) & Mark(x)", session.db)
        toggles = [
            ProperAtom("Mark", (obj("B"),)),  # object-only
            ProperAtom("P", (ordc("u2"),)),  # label over an order constant
        ]
        for atom in toggles:
            session.assert_facts(atom)
            # mutating never computes the vocabulary ...
            assert "vocabulary" not in session.db.__dict__
            # ... and the first read finds the old object carried over
            assert session.db.vocabulary is vocab
            session.retract_facts(atom)
            assert session.db.vocabulary is vocab
        assert parse_query("Tag(x) & Mark(x)", session.db) is q

    def test_new_constant_gives_a_new_vocabulary(self):
        session = Session(parse_database(self.DB))
        vocab = session.db.vocabulary
        q = parse_query("Tag(C)", session.db)
        assert next(iter(q.disjuncts[0].variables())).name == "C"
        session.assert_facts(ProperAtom("Tag", (obj("C"),)))
        assert session.db.vocabulary is not vocab
        assert parse_query("Tag(C)", session.db).constants() == {obj("C")}

    def test_memo_stays_within_its_bound(self):
        db = parse_database(self.DB)
        texts = [f"Tag(x{i})" for i in range(PARSE_MEMO_LIMIT + 50)]
        for text in texts:
            parse_query(text, db)
        parses = db.vocabulary.parses
        assert len(parses) == PARSE_MEMO_LIMIT
        # first in, first out
        assert texts[0] not in parses and texts[-1] in parses


_PICKLE_OUT = """
import pickle, sys
from repro.substrate.parser import parse_database, parse_query
db = parse_database(sys.stdin.read())
query = parse_query("P(a) & a < b & Q(b) | Tag(x)", db)
hash(query)
assert "_hash" in query.__dict__
sys.stdout.write(pickle.dumps(query).hex())
"""

_PICKLE_IN = r"""
import pickle, sys
from repro.api import Session
from repro.substrate.parser import parse_database, parse_query
db_text, blob = sys.stdin.read().split("\n", 1)
db = parse_database(db_text)
loaded = pickle.loads(bytes.fromhex(blob))
fresh = parse_query("P(a) & a < b & Q(b) | Tag(x)", db)
assert loaded == fresh and loaded is not fresh
assert hash(loaded) == hash(fresh)
session = Session(db)
plan = session.prepare(fresh)
assert session.prepare(loaded) is plan
print("ok")
"""


def test_hash_memo_does_not_travel_with_a_pickle():
    db_text = TestParseMemo.DB
    blob = _run(_PICKLE_OUT, seed=1, stdin=db_text)
    assert _run(_PICKLE_IN, seed=2, stdin=db_text + "\n" + blob) == "ok\n"
