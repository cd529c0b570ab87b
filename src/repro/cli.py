"""Command-line interface: ``python -m repro.cli <command> ...``.

Commands:

* ``query DB QUERY``   — decide entailment (``--semantics fin|z|q``,
  ``--method auto|bruteforce|...``, ``--countermodel`` to print a witness
  when the query is not entailed, ``--json`` for machine-readable output);
* ``answers DB QUERY`` — certain answers of an open query
  (``--free-vars x,y`` names the object variables; ``--json``);
* ``batch DB STREAM``  — run a request-stream file (queries, ``answers``
  lines, ``assert:``/``retract:`` writes) through the batching engine
  (:mod:`repro.engine.batch`); ``--workers N`` fans each run of reads
  out over a daemon worker pool resynced to the writes before it;
* ``watch DB QUERY --free-vars ... STREAM`` — maintain a
  :class:`repro.engine.views.MaterializedView` of an open query across
  the writes in STREAM, reporting answer deltas after each step;
* ``recover WAL``      — rebuild the session persisted in a write-ahead
  log (:mod:`repro.engine.wal`) and report its state (``--json``;
  ``--compact`` folds the log into a fresh snapshot);
* ``serve DB``         — host the session behind the socket protocol of
  :mod:`repro.server` (``--port``, ``--wal`` for a durable session with
  group-commit syncing, ``--workers`` for a daemon pool); drains
  gracefully on SIGTERM/SIGINT; ``serve - --replica-of WAL`` instead
  hosts a *read-only replica* tailing a primary's log (reads only,
  ``applied_seq`` consistency tokens, primary-death detection);
* ``models DB``        — count (or ``--list``) the minimal models;
* ``classify DB QUERY``— the Tables 1-2 complexity profile;
* ``width DB``         — the database's width and a maximum antichain;
* ``bench-session DB QUERY`` — time the prepared-plan path of a
  :class:`repro.api.Session` against the one-shot API on a
  repeated-query workload.

``DB`` is a path to a database file in the text DSL
(:mod:`repro.substrate.parser`); ``QUERY`` is a query string or a path to
a file containing one.  Every query-answering command runs through a
:class:`repro.api.Session`, so multi-query invocations share warm caches.

``query``, ``answers``, ``batch`` and ``watch`` accept ``--wal PATH`` to
run against a *durable* session: if a write-ahead log already exists at
PATH the session state is recovered from it (DB then only supplies parse
vocabulary); otherwise DB seeds a fresh log.  Mutations applied by the
command are appended to the log, so a later invocation — or ``recover``
— picks up exactly where this one stopped.

The same four commands accept ``--connect HOST:PORT`` to run against a
live ``repro serve`` instance instead of a local session: the query or
stream is shipped over the wire, the server's shared session answers,
and DB is ignored (pass ``-``).  A comma-separated ``--connect``
list — primary first, replicas after — routes through a
:class:`repro.server.client.ReplicaRouter` instead: reads go to
replicas under read-your-writes gating with retry/backoff and
failover, writes go to the primary.  ``--wal`` and ``--connect`` are
mutually exclusive — durability lives with the server.

Exit codes:

* ``0`` — success (``query``: entailed; ``answers``: at least one
  certain answer);
* ``1`` — a negative verdict (``query``: not entailed; ``answers``: no
  certain answers; ``models``: an inconsistent database;
  ``bench-session``: a result mismatch);
* ``2`` — an error: unparsable input, a ``--method`` that cannot decide
  the query, an unreadable file, an unreachable server, reads in a
  ``watch`` stream.  Errors print one ``error: <Type>: <message>`` line
  to stderr instead of a traceback.
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
from repro.core.sorts import objvar
from repro.server.protocol import (
    _METHODS,
    _SEMANTICS,
    _batch_rows,
    _parse_stream,
    _parse_stream_line,
    _result_payload,
    _stream_order_names,
    _stream_vocabulary,
    _stream_write,
)
from repro.substrate.parser import (
    parse_database,
    parse_query,
    scan_order_names,
)


def _load_database(path: str) -> IndefiniteDatabase:
    text = pathlib.Path(path).read_text()
    return parse_database(text)


def _load_query(source: str, db: IndefiniteDatabase):
    candidate = pathlib.Path(source)
    if candidate.exists():
        source = candidate.read_text()
    return parse_query(source, db)


def _session_with_wal(db: IndefiniteDatabase, wal_path: str | None):
    """A session for ``db`` — durable when ``--wal`` names a log path.

    An existing log wins over the database file (it *is* the session's
    later state, seeded from that file by an earlier invocation); a
    fresh path starts the log from ``db``.  Returns ``(session, wal)``
    with ``wal`` ``None`` when no path was given; the caller closes it.
    """
    if wal_path is None:
        return Session(db), None
    from repro.engine.wal import WriteAheadLog, snap_path

    if pathlib.Path(snap_path(wal_path)).exists():
        session = Session.recover(wal_path)
    else:
        session = Session(db)
    return session, WriteAheadLog(wal_path).attach(session)


def _query_text(source: str) -> str:
    """QUERY arguments are a string or a path to a file holding one."""
    candidate = pathlib.Path(source)
    if candidate.exists():
        return candidate.read_text()
    return source


def _parse_connect(value: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``:PORT`` / ``PORT`` for localhost)."""
    host, _, port = value.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"--connect wants HOST:PORT, got {value!r}")


def _remote_client(args):
    """A connected client for a ``--connect`` invocation.

    A single ``HOST:PORT`` yields a plain ``ReproClient``.  A
    comma-separated list — primary first, replicas after — yields a
    ``ReplicaRouter``: reads round-robin over the replicas with
    read-your-writes gating and failover, writes go to the primary.
    """
    if getattr(args, "wal", None):
        raise SystemExit(
            "--wal and --connect are mutually exclusive: durability "
            "belongs to the server"
        )
    from repro.server import ReplicaRouter, ReproClient

    endpoints = [part for part in args.connect.split(",") if part.strip()]
    if not endpoints:
        raise SystemExit(f"--connect wants HOST:PORT[,...], got {args.connect!r}")
    if len(endpoints) == 1:
        host, port = _parse_connect(endpoints[0])
        # 60s op bound, as before the client grew timeout=: a CLI call
        # against a wedged server should error out, not hang forever
        return ReproClient(host, port, timeout=60.0)
    primary, *replicas = (_parse_connect(part) for part in endpoints)
    return ReplicaRouter(primary, replicas)


def _remote_query(args: argparse.Namespace) -> int:
    with _remote_client(args) as client:
        reply = client.execute(
            _query_text(args.query),
            semantics=args.semantics,
            method=args.method,
        )
    payload = {"entailed": reply["entailed"], "method": reply["method"]}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0 if reply["entailed"] else 1
    print(f"entailed: {reply['entailed']}")
    print(f"method:   {reply['method']}")
    if args.countermodel and not reply["entailed"]:
        print("countermodel: (not shipped over --connect; run locally)")
    return 0 if reply["entailed"] else 1


def _remote_answers(args: argparse.Namespace) -> int:
    free = [name for name in args.free_vars.split(",") if name]
    with _remote_client(args) as client:
        reply = client.answers(
            _query_text(args.query), free, semantics=args.semantics
        )
    payload = {
        "answers": reply["answers"],
        "count": reply["count"],
        "method": reply["method"],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0 if reply["count"] else 1
    for answer in reply["answers"]:
        print(", ".join(answer) if answer else "()")
    print(f"certain answers: {reply['count']} [{reply['method']}]")
    return 0 if reply["count"] else 1


def _remote_batch(args: argparse.Namespace) -> int:
    lines = pathlib.Path(args.stream).read_text().splitlines()
    with _remote_client(args) as client:
        reply = client.batch(lines)
    return _print_batch(args, reply["ops"], reply["mode"], ", remote")


def _remote_watch(args: argparse.Namespace) -> int:
    lines = pathlib.Path(args.stream).read_text().splitlines()
    # the server types the writes against its own session; the stream
    # alone is enough to label each step exactly like the local command
    writes = _watch_writes(
        lines, IndefiniteDatabase.empty(), _stream_order_names(lines)
    )
    if writes is None:
        return 2
    free = [name for name in args.free_vars.split(",") if name]
    with _remote_client(args) as client:
        opened = client.watch(
            _query_text(args.query), free, semantics=args.semantics
        )
        watch_id = opened["watch"]
        count = opened["count"]
        steps = [{"step": 0, "op": "initial", "answers": opened["answers"]}]
        for line, op in writes:
            # ship the line's own text: it may carry sort declarations
            kind, text = _stream_write(line)
            if kind == "assert_facts":
                client.assert_facts(text)
            else:
                client.retract_facts(text)
            added: list = []
            removed: list = []
            for event in client.take_events():
                if event.get("watch") != watch_id:
                    continue
                added.extend(event["added"])
                removed.extend(event["removed"])
                count = event["count"]
            steps.append(_watch_step(len(steps), op, added, removed, count))
    return _print_watch(args, steps)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host the session behind the serving tier's socket protocol."""
    import asyncio
    import logging

    from repro.engine.wal import WriteAheadLog, snap_path
    from repro.server import ReproServer

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if args.replica_of:
        if args.wal:
            raise SystemExit(
                "--replica-of and --wal are mutually exclusive: a replica "
                "tails a primary's log, it does not own one"
            )
        if args.workers:
            raise SystemExit("--workers applies to the primary, not replicas")
        # the primary may still be coming up: wait for its snapshot
        deadline = time.monotonic() + args.replica_wait
        while (
            not pathlib.Path(snap_path(args.replica_of)).exists()
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        if not pathlib.Path(snap_path(args.replica_of)).exists():
            raise SystemExit(
                f"primary WAL snapshot {snap_path(args.replica_of)!r} not "
                f"found after {args.replica_wait:g}s; is the primary "
                f"serving with --wal {args.replica_of}?"
            )
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
        db = _load_database(args.database)
        if args.wal:
            if pathlib.Path(snap_path(args.wal)).exists():
                session = Session.recover(args.wal)
            else:
                session = Session(db)
            wal = WriteAheadLog(args.wal, sync=args.sync).attach(session)
        else:
            session, wal = Session(db), None
        server = ReproServer(
            session,
            args.host,
            args.port,
            wal=wal,
            workers=args.workers,
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
    if args.connect:
        return _remote_query(args)
    db = _load_database(args.database)
    session, wal = _session_with_wal(db, args.wal)
    query = _load_query(args.query, session.db.union(db))
    result = session.prepare(
        query,
        semantics=_SEMANTICS[args.semantics],
        method=args.method,
    ).execute()
    if wal is not None:
        wal.close()
    if args.json:
        payload = _result_payload(result)
        if args.countermodel and not result.holds:
            payload["countermodel"] = (
                None
                if result.countermodel is None
                else result.render_countermodel()
            )
        print(json.dumps(payload, sort_keys=True))
        return 0 if result.holds else 1
    print(f"entailed: {result.holds}")
    print(f"method:   {result.method}")
    if args.countermodel and not result.holds:
        if result.countermodel is None:
            print("countermodel: (not produced by this method; "
                  "try --method bruteforce)")
        else:
            print(f"countermodel: {result.render_countermodel()}")
    return 0 if result.holds else 1


def _cmd_answers(args: argparse.Namespace) -> int:
    if args.connect:
        return _remote_answers(args)
    db = _load_database(args.database)
    session, wal = _session_with_wal(db, args.wal)
    query = _load_query(args.query, session.db.union(db))
    free_vars = tuple(
        objvar(name) for name in args.free_vars.split(",") if name
    )
    result = session.prepare(
        query,
        semantics=_SEMANTICS[args.semantics],
        free_vars=free_vars,
    ).execute()
    if wal is not None:
        wal.close()
    assert result.answers is not None
    if args.json:
        print(json.dumps(_result_payload(result), sort_keys=True))
        return 0 if result.answers else 1
    for answer in sorted(result.answers):
        print(", ".join(answer) if answer else "()")
    print(f"certain answers: {len(result.answers)} [{result.method}]")
    return 0 if result.answers else 1


def _load_stream(args: argparse.Namespace):
    """``(db, vocab, order_names, lines)`` for a local stream command.

    Sort inference runs over the database file and every stream write
    together, and query lines resolve against the stream vocabulary
    (see :mod:`repro.server.protocol`).
    """
    db_text = pathlib.Path(args.database).read_text()
    lines = pathlib.Path(args.stream).read_text().splitlines()
    order_names = _stream_order_names(lines, scan_order_names(db_text))
    db = parse_database(db_text, extra_order=order_names)
    return db, _stream_vocabulary(db, lines, order_names), order_names, lines


def _print_batch(args, rows: list[dict], mode: str, where: str = "") -> int:
    """Report a batch's rows (local or remote); ``where`` tags the mode."""
    if args.json:
        print(json.dumps({"mode": mode, "ops": rows}, sort_keys=True))
        return 0
    for row in rows:
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
    print(f"executed {len(rows)} ops ({mode}{where})")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a request-stream file through the batching engine."""
    if args.connect:
        return _remote_batch(args)
    from repro.engine.batch import QueryRequest, execute_stream
    from repro.engine.pool import DaemonPool

    db, vocab, order_names, lines = _load_stream(args)
    ops = _parse_stream(lines, vocab, order_names)
    session, wal = _session_with_wal(db, args.wal)
    try:
        if args.workers > 1:
            # each read run fans out over the pool (results identical to
            # --workers 1); a degraded pool keeps the in-process labels
            with DaemonPool(session, workers=args.workers) as pool:
                results = execute_stream(session, ops, pool=pool)
                if pool.parallel:
                    mode = f"pool[{args.workers}]"
                elif all(isinstance(op, QueryRequest) for op in ops):
                    mode = "sequential"
                else:
                    mode = "stream"
        else:
            results = execute_stream(session, ops)
            mode = "stream"
    finally:
        if wal is not None:
            wal.close()
    return _print_batch(args, _batch_rows(ops, results), mode)


def _watch_writes(lines: list[str], vocab, order_names):
    """``[(line, Mutation), ...]`` for a watch stream, or ``None`` after
    reporting the first line that is not a write (nothing is applied)."""
    from repro.engine.batch import Mutation

    writes = []
    for line in lines:
        op = _parse_stream_line(line, vocab, order_names)
        if op is None:
            continue
        if not isinstance(op, Mutation):
            print(f"watch stream must contain only writes, got: "
                  f"{line.strip()}", file=sys.stderr)
            return None
        writes.append((line, op))
    return writes


def _watch_step(step: int, op, added, removed, count: int) -> dict:
    return {
        "step": step,
        "op": f"{op.kind} {'; '.join(str(a) for a in op.atoms)}",
        "added": added,
        "removed": removed,
        "count": count,
    }


def _print_watch(args, steps: list[dict], summary: dict | None = None) -> int:
    """Report a watch's steps (local or remote) and any refresh summary."""
    summary = summary or {}
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
    if summary:
        print(f"refreshes: {summary['full_refreshes']} full, "
              f"{summary['delta_refreshes']} delta "
              f"(delta-capable: {summary['delta_capable']})")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Maintain a materialized view of an open query across a write stream."""
    if args.connect:
        return _remote_watch(args)
    from repro.engine.views import MaterializedView

    db, vocab, order_names, lines = _load_stream(args)
    writes = _watch_writes(lines, vocab, order_names)
    if writes is None:
        return 2
    session, wal = _session_with_wal(db, args.wal)
    query = _load_query(args.query, vocab)
    free_vars = tuple(
        objvar(name) for name in args.free_vars.split(",") if name
    )
    view = MaterializedView(
        session, query, free_vars, semantics=_SEMANTICS[args.semantics]
    )
    current = view.answers()
    steps = [{"step": 0, "op": "initial",
              "answers": sorted(list(a) for a in current)}]
    for _line, op in writes:
        op.apply(session)
        updated = view.answers()
        steps.append(_watch_step(
            len(steps), op,
            sorted(list(a) for a in updated - current),
            sorted(list(a) for a in current - updated),
            len(updated),
        ))
        current = updated
    if wal is not None:
        wal.close()
    return _print_watch(args, steps, {
        "full_refreshes": view.full_refreshes,
        "delta_refreshes": view.delta_refreshes,
        "delta_capable": view.delta_capable,
    })


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
    query = _load_query(args.query, db)
    print(classify(db, query).summary())
    return 0


def _cmd_width(args: argparse.Namespace) -> int:
    db = _load_database(args.database)
    graph = db.graph().normalize().graph
    antichain = graph.a_maximum_antichain()
    print(f"width: {len(antichain)}")
    print(f"a maximum antichain: {sorted(antichain)}")
    return 0


def _cmd_bench_session(args: argparse.Namespace) -> int:
    """Time repeated execution: prepared plan vs the one-shot wrappers.

    Between prepared executions the session absorbs an assert/retract
    pair on a scratch object fact, so every iteration re-executes the
    plan through the invalidation path instead of returning the
    memoized result of an unchanged database.
    """
    from repro.core.atoms import ProperAtom
    from repro.core.entailment import certain_answers, explain
    from repro.core.sorts import obj

    db = _load_database(args.database)
    query = _load_query(args.query, db)
    semantics = _SEMANTICS[args.semantics]
    free_vars = tuple(
        objvar(name) for name in args.free_vars.split(",") if name
    ) if args.free_vars else None
    repeat = args.repeat

    if free_vars is None:
        def one_shot():
            return explain(db, query, semantics=semantics,
                           method=args.method).holds
    else:
        def one_shot():
            return frozenset(
                certain_answers(db, query, free_vars, semantics=semantics)
            )

    session = Session(db)
    plan = session.prepare(
        query, semantics=semantics, method=args.method, free_vars=free_vars
    )

    t0 = time.perf_counter()
    expected = [one_shot() for _ in range(repeat)]
    one_shot_s = time.perf_counter() - t0

    tick = ProperAtom("BenchSessionTick", (obj("_bench_tick"),))
    t0 = time.perf_counter()
    got = []
    for _ in range(repeat):
        # Net no-op churn: invalidates the result memo, keeps the db equal
        # to the one-shot side's, and exercises the live execution path.
        session.assert_facts(tick)
        session.retract_facts(tick)
        result = plan.execute()
        got.append(result.holds if free_vars is None else result.answers)
    prepared_s = time.perf_counter() - t0

    match = expected == got
    speedup = one_shot_s / prepared_s if prepared_s else float("inf")
    print(f"repeats:   {repeat}")
    print(f"one-shot:  {one_shot_s * 1e3:9.2f} ms")
    print(f"prepared:  {prepared_s * 1e3:9.2f} ms")
    print(f"speedup:   {speedup:.1f}x")
    print(f"results:   {'match' if match else 'MISMATCH'}")
    return 0 if match else 1


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
    bt.add_argument("--workers", type=int, default=1,
                    help="fan each run of reads out over N persistent "
                         "daemon workers")
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
    sv.add_argument("--workers", type=int, default=0,
                    help="daemon-pool workers for read batches "
                         "(0/1 = in-process)")
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

    b = sub.add_parser(
        "bench-session",
        help="time prepared-plan execution vs the one-shot API",
    )
    b.add_argument("database")
    b.add_argument("query")
    b.add_argument("--repeat", type=int, default=50)
    b.add_argument("--semantics", choices=sorted(_SEMANTICS), default="fin")
    b.add_argument("--method", choices=_METHODS, default="auto")
    b.add_argument("--free-vars", default="",
                   help="benchmark certain_answers over these object vars")
    b.set_defaults(func=_cmd_bench_session)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: the command's exit code, or 2 after an error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
