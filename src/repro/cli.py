"""Command-line interface: ``python -m repro.cli <command> ...``.

Commands:

* ``query DB QUERY``   — decide entailment (``--semantics fin|z|q``,
  ``--method auto|bruteforce|...``, ``--countermodel`` to print a witness
  when the query is not entailed, ``--json`` for machine-readable output);
* ``answers DB QUERY`` — certain answers of an open query
  (``--free-vars x,y`` names the object variables; ``--json``);
* ``batch DB STREAM``  — run a request-stream file (queries, ``answers``
  lines, ``assert:``/``retract:`` writes) through the batching engine
  (:mod:`repro.engine.batch`);
* ``watch DB QUERY --free-vars ... STREAM`` — maintain a
  :class:`repro.engine.views.MaterializedView` of an open query across
  the writes in STREAM, reporting answer deltas after each step;
* ``recover WAL``      — rebuild the session persisted in a write-ahead
  log (:mod:`repro.engine.wal`) and report its state (``--json``;
  ``--compact`` folds the log into a fresh snapshot);
* ``serve DB``         — host the session behind the socket protocol of
  :mod:`repro.server` (``--port``, ``--wal`` for a durable session with
  group-commit syncing); drains
  gracefully on SIGTERM/SIGINT; ``serve - --replica-of WAL`` instead
  hosts a *read-only replica* tailing a primary's log (reads only,
  ``applied_seq`` consistency tokens, primary-death detection);
* ``models DB``        — count (or ``--list``) the minimal models;
* ``classify DB QUERY``— the Tables 1-2 complexity profile;
* ``width DB``         — the database's width and a maximum antichain.

``DB`` is a path to a database file in the text DSL
(:mod:`repro.substrate.parser`); ``QUERY`` is a query string or a path to
a file containing one.

``query``, ``answers``, ``batch`` and ``watch`` are clients of the
serving tier's op handlers (:mod:`repro.server`).  Locally they call a
:class:`repro.server.ReproServer` over DB in process
(:meth:`~repro.server.ReproServer.connect_local`); with ``--connect
HOST:PORT`` the same ops go over the wire to a live ``repro serve``
instance, whose shared session answers, and DB is ignored (pass ``-``).
The two differ only in transport: the same payloads, the same
countermodels (``--countermodel`` works over ``--connect`` too), the
same error lines.  A comma-separated ``--connect`` list — primary first,
replicas after — routes through a
:class:`repro.server.client.ReplicaRouter` instead: reads go to
replicas under read-your-writes gating with retry/backoff and failover,
writes go to the primary.

The four commands accept ``--wal PATH`` to run against a *durable*
session, as ``serve --wal`` does: if a write-ahead log already exists at
PATH the session is recovered from it and the log wins — DB is not
read; otherwise DB seeds a fresh log.  Every acknowledged write op is
appended to the log, followed by one ``seq`` mark, so a later invocation
— or ``recover`` — picks up exactly where this one stopped.  ``--wal``
and ``--connect`` are mutually exclusive — durability lives with the
server.

Exit codes:

* ``0`` — success (``query``: entailed; ``answers``: at least one
  certain answer);
* ``1`` — a negative verdict (``query``: not entailed; ``answers``: no
  certain answers; ``models``: an inconsistent database);
* ``2`` — an error: unparsable input, a ``--method`` that cannot decide
  the query, an unreadable file, an unreachable server, reads in a
  ``watch`` stream, a misused flag.  Errors print one
  ``error: <Type>: <message>`` line to stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.analysis import classify
from repro.api import Session, render_model
from repro.core.database import IndefiniteDatabase
from repro.core.errors import ReproError
from repro.core.models import count_minimal_models, iter_minimal_models
from repro.server.client import ServerReplyError
from repro.server.protocol import (
    _METHODS,
    _SEMANTICS,
    _stream_order_names,
    _stream_write,
)
from repro.substrate.parser import parse_database, parse_query

#: Reply fields that are transport, not the op's payload.
_ENVELOPE = frozenset(("id", "seq", "ok", "applied_seq"))


def _load_database(path: str) -> IndefiniteDatabase:
    text = pathlib.Path(path).read_text()
    return parse_database(text)


def _session_with_wal(
    database: str,
    wal_path: str | None,
    *,
    extra_order=(),
    sync: str = "fsync",
):
    """``(session, wal)`` for the database file ``database`` — durable
    when ``--wal`` names a log path.

    An existing log wins over the database file (it *is* the session's
    later state, seeded from that file by an earlier invocation), so the
    file is not read; otherwise the file is parsed with ``extra_order``
    joining its sort inference and seeds the session (and a fresh log).
    ``wal`` is ``None`` when no path was given.
    """
    from repro.engine.wal import WriteAheadLog, snap_path

    if wal_path is not None and pathlib.Path(snap_path(wal_path)).exists():
        session = Session.recover(wal_path)
    else:
        text = pathlib.Path(database).read_text()
        session = Session(parse_database(text, extra_order=extra_order))
    if wal_path is None:
        return session, None
    return session, WriteAheadLog(wal_path, sync=sync).attach(session)


def _query_text(source: str) -> str:
    """QUERY arguments are a string or a path to a file holding one."""
    candidate = pathlib.Path(source)
    if candidate.exists():
        return candidate.read_text()
    return source


def _free_vars(args: argparse.Namespace) -> list[str]:
    return [name for name in args.free_vars.split(",") if name]


def _parse_connect(value: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``:PORT`` / ``PORT`` for localhost)."""
    host, _, port = value.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(f"--connect wants HOST:PORT, got {value!r}") from None


def _remote_client(args):
    """A connected client for a ``--connect`` invocation.

    A single ``HOST:PORT`` yields a plain ``ReproClient``.  A
    comma-separated list — primary first, replicas after — yields a
    ``ReplicaRouter``: reads round-robin over the replicas with
    read-your-writes gating and failover, writes go to the primary.
    """
    if getattr(args, "wal", None):
        raise ValueError(
            "--wal and --connect are mutually exclusive: durability "
            "belongs to the server"
        )
    from repro.server import ReplicaRouter, ReproClient

    endpoints = [part for part in args.connect.split(",") if part.strip()]
    if not endpoints:
        raise ValueError(
            f"--connect wants HOST:PORT[,...], got {args.connect!r}"
        )
    if len(endpoints) == 1:
        host, port = _parse_connect(endpoints[0])
        # 60s op bound, as before the client grew timeout=: a CLI call
        # against a wedged server should error out, not hang forever
        return ReproClient(host, port, timeout=60.0)
    primary, *replicas = (_parse_connect(part) for part in endpoints)
    return ReplicaRouter(primary, replicas)


def _client(args: argparse.Namespace, lines=()):
    """The client a query-answering command makes its calls on.

    ``--connect`` reaches a live server; otherwise the server's op
    handlers run in process over a session of the database file (the
    stream ``lines``' writes join its sort inference, as ``batch``
    needs) — the client's close closes the session's log.
    """
    if args.connect:
        return _remote_client(args)
    from repro.server import ReproServer

    session, wal = _session_with_wal(
        args.database, args.wal, extra_order=_stream_order_names(lines)
    )
    return ReproServer(session, wal=wal).connect_local()


def _emit_json(reply: dict) -> None:
    """Print a reply's op payload as the command's ``--json`` object."""
    payload = {k: v for k, v in reply.items() if k not in _ENVELOPE}
    print(json.dumps(payload, sort_keys=True))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host the session behind the serving tier's socket protocol."""
    import asyncio
    import logging

    from repro.engine.wal import snap_path
    from repro.server import ReproServer

    if args.replica_of:
        if args.wal:
            raise ValueError(
                "--replica-of and --wal are mutually exclusive: a replica "
                "tails a primary's log, it does not own one"
            )
        # the primary may still be coming up: wait for its snapshot
        deadline = time.monotonic() + args.replica_wait
        while (
            not pathlib.Path(snap_path(args.replica_of)).exists()
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        if not pathlib.Path(snap_path(args.replica_of)).exists():
            raise ValueError(
                f"primary WAL snapshot {snap_path(args.replica_of)!r} not "
                f"found after {args.replica_wait:g}s; is the primary "
                f"serving with --wal {args.replica_of}?"
            )
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if args.replica_of:
        server = ReproServer(
            None,
            args.host,
            args.port,
            max_inflight=args.max_inflight,
            replica_of=args.replica_of,
            poll_interval=args.poll_interval,
            heartbeat_timeout=args.heartbeat_timeout,
        )
    else:
        session, wal = _session_with_wal(
            args.database, args.wal, sync=args.sync
        )
        server = ReproServer(
            session,
            args.host,
            args.port,
            wal=wal,
            max_inflight=args.max_inflight,
            heartbeat_interval=args.heartbeat_interval,
        )

    async def _main() -> None:
        import signal as _signal

        await server.start()
        announce = {"listening": {"host": server.host, "port": server.port}}
        if args.json:
            print(json.dumps(announce, sort_keys=True), flush=True)
        else:
            print(f"listening on {server.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.drain())
                )
            except (NotImplementedError, RuntimeError):
                pass
        await server.wait_drained()

    asyncio.run(_main())
    summary = {
        "drained": True,
        "requests": server.stats["requests"],
        "errors": server.stats["errors"],
        "connections": server.stats["connections"],
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True), flush=True)
    else:
        print(
            f"drained: {summary['requests']} requests "
            f"({summary['errors']} errors) over "
            f"{summary['connections']} connections",
            flush=True,
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _client(args) as client:
        reply = client.execute(
            _query_text(args.query),
            semantics=args.semantics,
            method=args.method,
            countermodel=args.countermodel,
        )
    verdict = 0 if reply["entailed"] else 1
    if args.json:
        _emit_json(reply)
        return verdict
    print(f"entailed: {reply['entailed']}")
    print(f"method:   {reply['method']}")
    if "countermodel" in reply:
        if reply["countermodel"] is None:
            print("countermodel: (not produced by this method; "
                  "try --method bruteforce)")
        else:
            print(f"countermodel: {reply['countermodel']}")
    return verdict


def _cmd_answers(args: argparse.Namespace) -> int:
    with _client(args) as client:
        reply = client.answers(
            _query_text(args.query), _free_vars(args), semantics=args.semantics
        )
    verdict = 0 if reply["count"] else 1
    if args.json:
        _emit_json(reply)
        return verdict
    for answer in reply["answers"]:
        print(", ".join(answer) if answer else "()")
    print(f"certain answers: {reply['count']} [{reply['method']}]")
    return verdict


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a request-stream file through the batching engine."""
    lines = pathlib.Path(args.stream).read_text().splitlines()
    with _client(args, lines) as client:
        reply = client.batch(lines)
    if args.json:
        _emit_json(reply)
        return 0
    for row in reply["ops"]:
        if row["kind"] == "query":
            verdict = (
                f"answers={row['count']}"
                if "count" in row
                else f"entailed={row['entailed']}"
            )
            print(f"[{row['op']:>3}] query   {verdict} [{row['method']}]")
        else:
            print(f"[{row['op']:>3}] {row['kind']:<14} "
                  f"{'; '.join(row['atoms'])}")
    where = ", remote" if args.connect else ""
    print(f"executed {len(reply['ops'])} ops ({reply['mode']}{where})")
    return 0


def _watch_writes(lines: list[str]) -> list[tuple[str, str, str]]:
    """``[(mutator, fragment text, step label), ...]`` for a watch stream.

    The server parses each write on its own, so every fragment is sent
    with an ``order:`` declaration of the stream-wide order names it
    mentions: a constant that only a later line orders must not arrive
    object-sorted.  A line that is not a write is a ``ValueError``,
    raised before anything runs.
    """
    names = _stream_order_names(lines)
    writes = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        write = _stream_write(line)
        if write is None:
            raise ValueError(
                f"watch stream must contain only writes, got: {line}"
            )
        kind, text = write
        fragment = parse_database(text, extra_order=names)
        order = fragment.order_constants
        if order:
            text = f"order: {' '.join(sorted(order))}; {text}"
        label = f"{kind} {'; '.join(str(a) for a in fragment.atoms())}"
        writes.append((kind, text, label))
    return writes


def _cmd_watch(args: argparse.Namespace) -> int:
    """Maintain a materialized view of an open query across a write stream."""
    lines = pathlib.Path(args.stream).read_text().splitlines()
    writes = _watch_writes(lines)
    with _client(args, lines) as client:
        # the stream's lines let the query resolve the constants its
        # writes introduce, as a batch's query lines do
        opened = client.watch(
            _query_text(args.query),
            _free_vars(args),
            semantics=args.semantics,
            lines=lines,
        )
        count = opened["count"]
        steps = [{"step": 0, "op": "initial", "answers": opened["answers"]}]
        for kind, text, label in writes:
            getattr(client, kind)(text)  # assert_facts / retract_facts
            added: list = []
            removed: list = []
            for event in client.take_events():
                if event.get("watch") != opened["watch"]:
                    continue
                added.extend(event["added"])
                removed.extend(event["removed"])
                count = event["count"]
            steps.append({"step": len(steps), "op": label, "added": added,
                          "removed": removed, "count": count})
        closed = client.unwatch(opened["watch"])
    summary = {key: closed[key] for key in
               ("full_refreshes", "delta_refreshes", "delta_capable")}
    if args.json:
        print(json.dumps({"steps": steps, **summary}, sort_keys=True))
        return 0
    for step in steps:
        if step["op"] == "initial":
            print(f"[  0] initial: {len(step['answers'])} answers")
            continue
        delta = []
        for a in step["added"]:
            delta.append("+" + (",".join(a) if a else "()"))
        for a in step["removed"]:
            delta.append("-" + (",".join(a) if a else "()"))
        print(f"[{step['step']:>3}] {step['op']}: "
              f"{' '.join(delta) if delta else '(no change)'} "
              f"[{step['count']} answers]")
    print(f"refreshes: {summary['full_refreshes']} full, "
          f"{summary['delta_refreshes']} delta "
          f"(delta-capable: {summary['delta_capable']})")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild the session persisted in a write-ahead log; report it."""
    from repro.engine.wal import WalMark, WriteAheadLog, read_log, recover

    session = recover(args.wal)
    base, clean, records = read_log(args.wal)
    size = pathlib.Path(args.wal).stat().st_size
    gens = session._gens()
    deltas = [d for d in records if not isinstance(d, WalMark)]
    replayed = sum(1 for d in deltas if sum(d.gens) > base)
    payload = {
        "atoms": session.size(),
        "proper_atoms": len(session.db.proper_atoms),
        "order_atoms": len(session.db.order_atoms),
        "gens": list(gens),
        "log_records": len(records),
        "marks": len(records) - len(deltas),
        "replayed": replayed,
        "skipped": len(deltas) - replayed,
        "torn_bytes": size - clean,
        "compacted": bool(args.compact),
    }
    if args.compact:
        with WriteAheadLog(args.wal).attach(session) as wal:
            wal.compact()
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"recovered session: {payload['atoms']} atoms "
          f"({payload['proper_atoms']} proper, "
          f"{payload['order_atoms']} order), generations {gens}")
    print(f"log: {payload['log_records']} records "
          f"({replayed} replayed, {payload['skipped']} below the "
          f"snapshot epoch, {payload['marks']} seq marks)")
    if payload["torn_bytes"]:
        print(f"torn tail ignored: {payload['torn_bytes']} byte(s)")
    if args.compact:
        print("compacted: log folded into a fresh snapshot")
    if args.dump:
        for atom in sorted(str(a) for a in session.db.atoms()):
            print(atom)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    db = _load_database(args.database)
    if not db.is_consistent():
        print("database is inconsistent: no models")
        return 1
    if args.list:
        shown = 0
        for model in iter_minimal_models(db):
            print(render_model(model))
            shown += 1
            if args.limit and shown >= args.limit:
                print(f"... (stopped at --limit {args.limit})")
                break
        print(f"listed {shown} minimal models")
    else:
        count = count_minimal_models(db.graph().normalize().graph)
        print(f"minimal models: {count}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    db = _load_database(args.database)
    print(classify(db, parse_query(_query_text(args.query), db)).summary())
    return 0


def _cmd_width(args: argparse.Namespace) -> int:
    db = _load_database(args.database)
    graph = db.graph().normalize().graph
    antichain = graph.a_maximum_antichain()
    print(f"width: {len(antichain)}")
    print(f"a maximum antichain: {sorted(antichain)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query indefinite order databases (van der Meyden 1992/1997).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="decide D |= phi")
    q.add_argument("database", help="database file (text DSL)")
    q.add_argument("query", help="query string or file")
    q.add_argument("--semantics", choices=sorted(_SEMANTICS), default="fin")
    q.add_argument("--method", choices=_METHODS, default="auto")
    q.add_argument("--countermodel", action="store_true",
                   help="print a falsifying minimal model if any")
    q.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    q.add_argument("--wal", metavar="PATH", default=None,
                   help="durable session: recover from / log to this "
                        "write-ahead log")
    q.add_argument("--connect", metavar="HOST:PORT[,...]", default=None,
                   help="run against a live `repro serve` instance "
                        "(DATABASE is ignored; pass -); a comma-separated "
                        "list routes reads over replicas (primary first)")
    q.set_defaults(func=_cmd_query)

    a = sub.add_parser("answers", help="certain answers of an open query")
    a.add_argument("database")
    a.add_argument("query")
    a.add_argument("--free-vars", default="",
                   help="comma-separated object variable names (e.g. x,y)")
    a.add_argument("--semantics", choices=sorted(_SEMANTICS), default="fin")
    a.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    a.add_argument("--wal", metavar="PATH", default=None,
                   help="durable session: recover from / log to this "
                        "write-ahead log")
    a.add_argument("--connect", metavar="HOST:PORT[,...]", default=None,
                   help="run against a live `repro serve` instance "
                        "(DATABASE is ignored; pass -); a comma-separated "
                        "list routes reads over replicas (primary first)")
    a.set_defaults(func=_cmd_answers)

    bt = sub.add_parser(
        "batch",
        help="run a request-stream file through the batching engine",
    )
    bt.add_argument("database")
    bt.add_argument("stream", help="file of queries / answers(..) / "
                                   "assert: / retract: lines")
    bt.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    bt.add_argument("--wal", metavar="PATH", default=None,
                    help="durable session: recover from / log to this "
                         "write-ahead log (stream writes are appended)")
    bt.add_argument("--connect", metavar="HOST:PORT[,...]", default=None,
                    help="run against a live `repro serve` instance "
                         "(DATABASE is ignored; pass -); a comma-separated "
                         "list routes reads over replicas (primary first)")
    bt.set_defaults(func=_cmd_batch)

    wt = sub.add_parser(
        "watch",
        help="maintain a materialized view of an open query over writes",
    )
    wt.add_argument("database")
    wt.add_argument("query")
    wt.add_argument("stream", help="file of assert:/retract: lines")
    wt.add_argument("--free-vars", default="",
                    help="comma-separated object variable names (e.g. x,y)")
    wt.add_argument("--semantics", choices=sorted(_SEMANTICS), default="fin")
    wt.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    wt.add_argument("--wal", metavar="PATH", default=None,
                    help="durable session: recover from / log to this "
                         "write-ahead log (stream writes are appended)")
    wt.add_argument("--connect", metavar="HOST:PORT[,...]", default=None,
                    help="run against a live `repro serve` instance "
                         "(DATABASE is ignored; pass -); a comma-separated "
                         "list routes reads over replicas (primary first)")
    wt.set_defaults(func=_cmd_watch)

    sv = sub.add_parser(
        "serve",
        help="host the session behind the socket protocol "
             "(see repro.server)",
    )
    sv.add_argument("database", help="database file seeding the session")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="TCP port (0 picks an ephemeral one, "
                         "announced on stdout)")
    sv.add_argument("--wal", metavar="PATH", default=None,
                    help="write-ahead log: recover from it if present, "
                         "else seed it from DATABASE")
    sv.add_argument("--sync", choices=("fsync", "group", "flush", "none"),
                    default="group",
                    help="WAL sync policy (default: group commit)")
    sv.add_argument("--workers", type=int, choices=(0, 1), default=0,
                    help="ignored: reads always run in process (0 and 1 "
                         "are the only values accepted)")
    sv.add_argument("--max-inflight", type=int, default=32,
                    help="per-connection inflight-op cap (backpressure)")
    sv.add_argument("--replica-of", metavar="WAL", default=None,
                    help="serve a read-only replica tailing this primary "
                         "WAL (DATABASE is ignored; pass -)")
    sv.add_argument("--poll-interval", type=float, default=0.05,
                    help="replica: background WAL poll period in seconds")
    sv.add_argument("--heartbeat-interval", type=float, default=1.0,
                    help="primary with --wal: seconds between liveness "
                         "marks appended to the log")
    sv.add_argument("--heartbeat-timeout", type=float, default=5.0,
                    help="replica: primary presumed dead after this many "
                         "seconds without log activity")
    sv.add_argument("--replica-wait", type=float, default=10.0,
                    help="replica: seconds to wait for the primary's WAL "
                         "snapshot to appear at startup")
    sv.add_argument("--json", action="store_true",
                    help="machine-readable listening/drained lines")
    sv.set_defaults(func=_cmd_serve)

    rc = sub.add_parser(
        "recover",
        help="rebuild the session persisted in a write-ahead log",
    )
    rc.add_argument("wal", help="write-ahead log path (with its .snap "
                                "sibling)")
    rc.add_argument("--compact", action="store_true",
                    help="fold the log into a fresh snapshot after "
                         "recovery")
    rc.add_argument("--dump", action="store_true",
                    help="print every recovered atom")
    rc.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    rc.set_defaults(func=_cmd_recover)

    m = sub.add_parser("models", help="count or list minimal models")
    m.add_argument("database")
    m.add_argument("--list", action="store_true")
    m.add_argument("--limit", type=int, default=20)
    m.set_defaults(func=_cmd_models)

    c = sub.add_parser("classify", help="complexity profile (Tables 1-2)")
    c.add_argument("database")
    c.add_argument("query")
    c.set_defaults(func=_cmd_classify)

    w = sub.add_parser("width", help="database width and antichain")
    w.add_argument("database")
    w.set_defaults(func=_cmd_width)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: the command's exit code, or 2 after an error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ServerReplyError as exc:
        # the op's own error as the server typed it: one line, the same
        # in process and over --connect
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
