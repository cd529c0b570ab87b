#!/usr/bin/env python3
"""Non-pytest benchmark runner for the entailment pipeline.

Times the hot paths of the reproduction — ``OrderGraph.reduced()``, the
closure computations, the Theorem 5.3 disjunctive search, the Theorem 4.7
bounded-width search, SEQ path decomposition and minimal-model counting —
on the synthetic workloads from ``repro.workloads.generators`` across graph
sizes and widths.  Every benchmark runs twice:

* **naive** — under ``repro.substrate.reference.naive_mode()``, which
  routes all reachability queries through the retained seed algorithms and
  disables every cache (the "before" column);
* **optimized** — on the bitset/cached substrate (the "after" column).

Results (including the speedup ratio and a result-equality check) are
written as JSON to ``BENCH_core.json`` at the repository root, establishing
the perf trajectory for future PRs.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full run
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_benchmarks.py --check    # fail on
        result mismatch or on speedup below --min-speedup
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.algorithms.conjunctive import (  # noqa: E402
    bounded_width_entails_dag,
    paths_entails_dag,
)
from repro.algorithms.disjunctive import theorem53  # noqa: E402
from itertools import product as iter_product  # noqa: E402

from repro.algorithms.bruteforce import (  # noqa: E402
    OpenQuery,
    entailment_sweep,
    entails_bruteforce,
)
from repro.api import Session  # noqa: E402
from repro.core.entailment import entails, explain  # noqa: E402
from repro.core.query import DisjunctiveQuery, as_dnf  # noqa: E402
from repro.core.sorts import obj, objvar  # noqa: E402
from repro.core.models import (  # noqa: E402
    count_minimal_models,
    iter_block_sequences,
)
from repro.substrate import reference  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    random_certain_answers_workload,
    random_conjunctive_monadic_query,
    random_disjunctive_monadic_query,
    random_labeled_dag,
    random_nary_database,
    random_nary_query,
    random_observer_dag,
)


def _best_time(fn, repeats: int) -> tuple[float, object]:
    """Best-of-N wall time and the (last) result of ``fn``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _run_pair(name, params, fn, repeats):
    with reference.naive_mode():
        naive_s, naive_result = _best_time(fn, repeats)
    optimized_s, optimized_result = _best_time(fn, repeats)
    return {
        "name": name,
        "mode": "substrate",
        "params": params,
        "naive_s": round(naive_s, 6),
        "optimized_s": round(optimized_s, 6),
        "speedup": round(naive_s / optimized_s, 2) if optimized_s else None,
        "results_match": naive_result == optimized_result,
    }


def _run_api_pair(name, params, one_shot_fn, prepared_fn, repeats):
    """Time the stateless one-shot API against the session/prepared API.

    Both sides run on the optimized substrate — this measures the API
    redesign (plan + cache reuse), not the PR 1 bitset substrate.
    """
    one_shot_s, one_shot_result = _best_time(one_shot_fn, repeats)
    prepared_s, prepared_result = _best_time(prepared_fn, repeats)
    return {
        "name": name,
        "mode": "api",
        "params": params,
        "one_shot_s": round(one_shot_s, 6),
        "prepared_s": round(prepared_s, 6),
        "speedup": round(one_shot_s / prepared_s, 2) if prepared_s else None,
        "results_match": one_shot_result == prepared_result,
    }


def _run_overhead_pair(name, params, baseline_fn, guarded_fn, repeats):
    """Time a bare loop against the same loop under a durability guard.

    Unlike the other row shapes, *lower* is better for the ratio: the
    ``overhead`` column is ``guarded_s / baseline_s`` and ``--check``
    gates it from above (the guard must cost < ``--max-overhead`` x).
    """
    baseline_s, baseline_result = _best_time(baseline_fn, repeats)
    guarded_s, guarded_result = _best_time(guarded_fn, repeats)
    return {
        "name": name,
        "mode": "overhead",
        "params": params,
        "baseline_s": round(baseline_s, 6),
        "guarded_s": round(guarded_s, 6),
        "overhead": round(guarded_s / baseline_s, 2) if baseline_s else None,
        "results_match": baseline_result == guarded_result,
    }


def _run_serve_pair(name, params, serial_fn, concurrent_fn, latencies, repeats):
    """Time CLI-style serial connections against multiplexed clients.

    Both sides drive the same live :class:`~repro.server.ReproServer`
    with an identical request mix.  ``results_match`` compares the two
    reply streams byte-for-byte (connection-local ``id`` and global
    ``seq`` stamps stripped, order normalized): multiplexing N clients
    must not change a single reply payload.  ``latencies`` is filled by
    the concurrent side with per-request send-to-reply times.
    """
    serial_s, serial_result = _best_time(serial_fn, repeats)
    concurrent_s, concurrent_result = _best_time(concurrent_fn, repeats)
    lat = sorted(latencies)
    n = params["requests"]
    return {
        "name": name,
        "mode": "serve",
        "params": params,
        "serial_s": round(serial_s, 6),
        "concurrent_s": round(concurrent_s, 6),
        "speedup": round(serial_s / concurrent_s, 2) if concurrent_s else None,
        "serial_rps": round(n / serial_s) if serial_s else None,
        "concurrent_rps": round(n / concurrent_s) if concurrent_s else None,
        "p50_ms": round(lat[len(lat) // 2] * 1000, 3) if lat else None,
        "p99_ms": round(lat[int(len(lat) * 0.99)] * 1000, 3) if lat else None,
        "results_match": serial_result == concurrent_result,
    }


def build_serve_benchmarks(quick: bool, seed: int):
    """Yield ``(name, params, serial_fn, concurrent_fn, latencies, repeats)``.

    Throughput of the serving tier.  The serial side is the
    ``--connect`` CLI's unit of work — a fresh connection per request,
    requests served strictly one at a time.  The concurrent side is the
    tier's reason to exist: a handful of long-lived clients pipelining
    ``max_inflight``-deep windows onto one shared engine loop, whose
    reader drains bursts into batched ``execute_many`` calls.  The
    server (one per yielded row) is torn down when the generator
    resumes after the row is consumed.
    """
    import threading

    from repro.server import ReproClient, ServerThread
    from repro.substrate.parser import parse_database

    db_text = (
        "On(p1, lamp); On(p2, heater); Off(p3, lamp); Off(p4, fan);"
        " p1 < p3; p1 < p2; p2 < p4"
    )
    requests = 160 if quick else 400
    clients = 4
    depth = 8
    queries = [
        (
            "execute",
            {
                "query": "On(s, lamp) & Off(t, lamp) & s < t",
                "semantics": "fin",
                "method": "auto",
            },
        ),
        (
            "answers",
            {
                "query": "On(s, X) & Off(t, X) & s < t",
                "free_vars": ["X"],
                "semantics": "fin",
            },
        ),
        (
            "execute",
            {
                "query": "On(s, heater) & Off(t, fan) & s < t",
                "semantics": "fin",
                "method": "auto",
            },
        ),
    ]

    def strip(reply):
        # id is connection-local and seq depends on interleaving; all
        # other bytes of the reply must be identical across the two runs
        return json.dumps(
            {k: v for k, v in reply.items() if k not in ("id", "seq")},
            sort_keys=True,
        )

    thread = ServerThread(Session(parse_database(db_text)))
    host, port = thread.start()
    try:
        with ReproClient(host, port) as client:
            for op, fields in queries:  # warm the plan cache for both sides
                client.call(op, **fields)

        def serial(n=requests):
            out = []
            for i in range(n):
                op, fields = queries[i % len(queries)]
                with ReproClient(host, port) as client:
                    out.append(strip(client.call(op, **fields)))
            return sorted(out)

        latencies: list[float] = []

        def concurrent(n=requests):
            out: list[list[str]] = [[] for _ in range(clients)]
            lat: list[float] = []

            def worker(tid):
                with ReproClient(host, port) as client:
                    pending = []

                    def reap():
                        t0, rid = pending.pop(0)
                        reply = client.wait(rid)
                        lat.append(time.perf_counter() - t0)
                        out[tid].append(strip(reply))

                    for i in range(tid, n, clients):
                        op, fields = queries[i % len(queries)]
                        pending.append(
                            (time.perf_counter(), client.send(op, **fields))
                        )
                        if len(pending) >= depth:
                            reap()
                    while pending:
                        reap()

            workers = [
                threading.Thread(target=worker, args=(tid,))
                for tid in range(clients)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            latencies[:] = lat
            return sorted(x for part in out for x in part)

        yield (
            "serve/throughput",
            {"requests": requests, "clients": clients, "depth": depth},
            serial,
            concurrent,
            latencies,
            3,  # best-of-3: socket timings are the noisiest in the file
        )
    finally:
        thread.shutdown()


def build_replica_benchmarks(quick: bool, seed: int):
    """Yield serve-pair rows for read scale-out over replica processes.

    One ``repro serve`` primary (WAL-attached) versus the same primary
    plus two ``--replica-of`` replicas sharing the read load through a
    :class:`~repro.server.ReplicaRouter`.  Real subprocesses, not
    in-process ``ServerThread``\\ s: three servers inside one interpreter
    would share a GIL and the row would measure contention, not
    scale-out.  Both sides run the identical read-only request mix
    through a router (``read_primary=True``), so the only variable is
    how many engine processes answer; ``results_match`` holds the reply
    streams byte-for-byte equal (``applied_seq`` stripped along with
    ``id``/``seq``).  Skipped in ``--quick`` and below 4 CPUs — the
    primary, two replicas and the client need real cores for the 2x
    ``--check`` gate to be physically reachable.
    """
    if quick or (os.cpu_count() or 1) < 4:
        return
    import shutil
    import subprocess
    import tempfile
    import threading

    from repro.server import ReplicaRouter, ReproClient

    tmpdir = tempfile.mkdtemp(prefix="repro-replica-bench-")
    db_file = os.path.join(tmpdir, "db.txt")
    wal_file = os.path.join(tmpdir, "bench.wal")
    # a chain long enough that each read costs real engine time: the
    # row must be dominated by server-side work, not client JSON
    points = 28
    atoms = []
    for i in range(points):
        atoms.append(f"{'On' if i % 2 == 0 else 'Off'}(p{i}, dev{i % 7})")
    order = [f"p{i} < p{i + 1}" for i in range(points - 1)]
    with open(db_file, "w") as fh:
        fh.write("; ".join(atoms + order) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def spawn(*argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *argv,
             "--port", "0", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        addr = json.loads(proc.stdout.readline())["listening"]
        return proc, (addr["host"], addr["port"])

    requests = 240
    clients = 8
    queries = [
        (
            "execute",
            {
                "query": "On(s, dev0) & Off(t, dev0) & s < t",
                "semantics": "fin",
                "method": "auto",
            },
        ),
        (
            "answers",
            {
                "query": "On(s, X) & Off(t, X) & s < t",
                "free_vars": ["X"],
                "semantics": "fin",
            },
        ),
        (
            "answers",
            {
                "query": "On(s, X) & Off(t, X) & Off(u, X) & s < t & t < u",
                "free_vars": ["X"],
                "semantics": "fin",
            },
        ),
    ]

    def strip(reply):
        # applied_seq is replica routing metadata, id/seq are stamps;
        # every other reply byte must be identical on both sides
        return json.dumps(
            {
                k: v
                for k, v in reply.items()
                if k not in ("id", "seq", "applied_seq")
            },
            sort_keys=True,
        )

    procs = []
    try:
        primary, p_addr = spawn(db_file, "--wal", wal_file, "--sync", "flush")
        procs.append(primary)
        r_addrs = []
        for _ in range(2):
            proc, addr = spawn(
                "-", "--replica-of", wal_file, "--poll-interval", "0.005"
            )
            procs.append(proc)
            r_addrs.append(addr)
        for addr in [p_addr] + r_addrs:  # warm every server's plan cache
            with ReproClient(*addr) as client:
                for op, fields in queries:
                    client.call(op, **fields)

        def drive(replicas):
            """Run the mix through a router over the given replica set."""

            def run(n=requests):
                out: list[list[str]] = [[] for _ in range(clients)]

                def worker(tid):
                    with ReplicaRouter(
                        p_addr,
                        replicas,
                        read_primary=True,
                        wait_timeout=10.0,
                    ) as router:
                        for i in range(tid, n, clients):
                            op, fields = queries[i % len(queries)]
                            if op == "execute":
                                reply = router.execute(**fields)
                            else:
                                reply = router.answers(**fields)
                            out[tid].append(strip(reply))

                workers = [
                    threading.Thread(target=worker, args=(tid,))
                    for tid in range(clients)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
                return sorted(x for part in out for x in part)

            return run

        yield (
            "serve/replica_scaleout",
            {"requests": requests, "clients": clients, "replicas": 2},
            drive([]),  # every read on the one primary process
            drive(r_addrs),  # reads spread over three processes
            [],
            2,
        )
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
        shutil.rmtree(tmpdir, ignore_errors=True)


def build_wal_benchmarks(quick: bool, seed: int):
    """Yield ``(name, params, baseline_fn, guarded_fn, repeats)`` tuples.

    The steady-state mutator path with and without a
    :class:`~repro.engine.wal.WriteAheadLog` attached, once per sync
    policy: ``sync="flush"`` (page-cache durability — record encoding +
    buffered write, no fsync latency) and ``sync="group"`` (process- and
    power-failure durability, fsyncs amortized across group-commit
    windows).  The result pair is the
    final session state *and* what :func:`repro.engine.wal.recover`
    rebuilds from the log, so the row doubles as an end-to-end
    durability check.
    """
    import tempfile

    from repro.engine.wal import WriteAheadLog, recover, snap_path
    from repro.workloads.generators import mutation_class_stream

    rounds = 80 if quick else 200
    rng_seed = seed + 53
    tmpdir = tempfile.mkdtemp(prefix="repro-wal-bench-")
    wal_file = os.path.join(tmpdir, "bench.wal")
    recover_checked = []

    def state_of(session):
        return (
            frozenset(session._proper),
            frozenset(session._order),
            session._gens(),
        )

    def baseline(rounds=rounds):
        db, ops = mutation_class_stream(random.Random(rng_seed), rounds)
        session = Session(db)
        for op in ops:
            op.apply(session)
        return state_of(session)

    def with_wal_at(path, sync):
        def with_wal(rounds=rounds, path=path, sync=sync):
            for stale in (path, snap_path(path)):
                if os.path.exists(stale):
                    os.remove(stale)
            db, ops = mutation_class_stream(random.Random(rng_seed), rounds)
            session = Session(db)
            with WriteAheadLog(path, sync=sync) as wal:
                wal.attach(session)
                for op in ops:
                    op.apply(session)
            if sync not in recover_checked:
                # end-to-end durability check, once per policy: best-of-N
                # timing takes the later (recover-free, steady-state) calls
                recover_checked.append(sync)
                if state_of(recover(path)) != state_of(session):
                    raise RuntimeError(
                        "WAL recovery diverged from the live session"
                    )
            return state_of(session)

        return with_wal

    yield (
        "wal/write_overhead",
        {"rounds": rounds, "mutations": rounds * 8, "sync": "flush"},
        baseline,
        with_wal_at(wal_file, "flush"),
        3,  # best-of-3 like the other gated rows: noise must not gate CI
    )

    # sync="group" pays real fsyncs (one per group-commit window, not one
    # per record) — the row asserts that full durability stays inside the
    # same <= --max-overhead envelope as the page-cache flush policy
    yield (
        "wal/write_overhead",
        {"rounds": rounds, "mutations": rounds * 8, "sync": "group"},
        baseline,
        with_wal_at(os.path.join(tmpdir, "bench-group.wal"), "group"),
        3,
    )


def build_benchmarks(quick: bool, seed: int):
    """Yield ``(name, params, fn, repeats)`` tuples."""
    repeats = 1 if quick else 3
    # The reduced/ and theorem53/ benches gate CI via --check: always take
    # best-of-3 so a single GC pause on a noisy runner can't fail the build.
    gated_repeats = 3
    scale = 1 if quick else 2

    def reduced_edges(g):
        return sorted((u, v, rel.name) for u, v, rel in g.reduced().edges())

    # -- reduced() on full closures of width-k observer databases ----------
    for width, chain in ((2, 5 * scale), (4, 5 * scale), (6, 4 * scale)):
        rng = random.Random(seed + width)
        dag = random_observer_dag(rng, width, chain)
        full = dag.graph.full()
        yield (
            "reduced/observer",
            {"width": width, "chain": chain, "edges": len(full._edges)},
            lambda full=full: reduced_edges(full),
            gated_repeats,
        )

    # -- reduced() on dense random dags ------------------------------------
    for n in (12 * scale, 20 * scale):
        rng = random.Random(seed + n)
        g = random_labeled_dag(rng, n, edge_prob=0.4).graph.full()
        yield (
            "reduced/random",
            {"vertices": n, "edges": len(g._edges)},
            lambda g=g: reduced_edges(g),
            gated_repeats,
        )

    # -- one-shot closure (reachability + strict) on fresh graphs ----------
    for n in (30 * scale, 60 * scale):
        rng = random.Random(seed + 7 * n)
        g = random_labeled_dag(rng, n, edge_prob=0.2).graph

        def closure(g=g):
            h = g.copy()  # fresh generation: forces a cold recompute
            return (h.reachability(), h.strict_reachability())

        yield ("closure/random", {"vertices": n}, closure, repeats)

    # -- Theorem 5.3 disjunctive search at width >= 4 ----------------------
    t53_cases = (
        (4, 3, 2, 3),
        (4, 4, 2, 3),
        (5, 3, 2, 3),
    )
    if quick:
        t53_cases = ((4, 3, 2, 3), (4, 4, 2, 3))
    for width, chain, nd, nv in t53_cases:
        rng = random.Random(seed + width * 100 + chain)
        dag = random_observer_dag(rng, width, chain)
        query = random_disjunctive_monadic_query(rng, nd, nv)

        def t53(dag=dag, query=query):
            r = theorem53(dag, query)
            return (r.holds, r.countermodel)

        yield (
            "theorem53/observer",
            {"width": width, "chain": chain, "disjuncts": nd, "qvars": nv},
            t53,
            gated_repeats,
        )

    # -- Theorem 4.7 bounded-width conjunctive search ----------------------
    for width, chain in ((4, 4), (4, 6 if not quick else 4)):
        rng = random.Random(seed + width * 31 + chain)
        dag = random_observer_dag(rng, width, chain)
        qdag = random_conjunctive_monadic_query(rng, 4).monadic_dag()
        yield (
            "bounded_width/observer",
            {"width": width, "chain": chain},
            lambda dag=dag, qdag=qdag: bounded_width_entails_dag(dag, qdag),
            repeats,
        )

    # -- SEQ over the path decomposition -----------------------------------
    rng = random.Random(seed + 1)
    dag = random_observer_dag(rng, 4, 4 if quick else 6)
    qdag = random_conjunctive_monadic_query(rng, 5, edge_prob=0.5).monadic_dag()
    yield (
        "seq_paths/observer",
        {"width": 4, "qvars": 5},
        lambda dag=dag, qdag=qdag: paths_entails_dag(dag, qdag),
        repeats,
    )

    # -- minimal-model counting and enumeration ----------------------------
    rng = random.Random(seed + 2)
    dag = random_observer_dag(rng, 3, 3 if quick else 4)
    graph = dag.graph.normalize().graph
    yield (
        "count_models/observer",
        {"width": 3},
        lambda graph=graph: count_minimal_models(graph),
        repeats,
    )
    rng = random.Random(seed + 2)
    dag = random_observer_dag(rng, 3 if quick else 3, 2 if quick else 3)
    graph = dag.graph.normalize().graph
    yield (
        "enumerate_models/observer",
        {"width": 3},
        lambda graph=graph: sum(1 for _ in iter_block_sequences(graph)),
        1,
    )

    # -- the bitset minimal-model engine (region-DAG DP) -------------------
    # enumeration: valid blocks generated per region (downset walk, memoized
    # on the region bitmask) instead of filtering all minor subsets
    rng = random.Random(seed + 41)
    dag = random_observer_dag(rng, 3, 3 if quick else 4)
    graph = dag.graph.normalize().graph
    yield (
        "models/enumeration",
        {"width": 3, "vertices": len(graph)},
        lambda graph=graph: sum(1 for _ in iter_block_sequences(graph)),
        1,
    )

    # bruteforce entailment over an n-ary database: DP over region states
    # vs enumerate-every-model-and-recheck (gated >= 2x in CI --check)
    rng = random.Random(seed + 43)
    nary_db = random_nary_database(
        rng,
        n_order=7 if quick else 8,
        n_objects=3,
        n_facts=8 if quick else 10,
        preds=(("B", 2), ("C", 3)),
        edge_prob=0.35,
        neq_prob=0.1,
    )
    nary_query = DisjunctiveQuery(
        tuple(
            random_nary_query(
                rng, 2, 2, 1, preds=(("B", 2), ("C", 3)), neq_prob=0.2
            )
            for _ in range(2)
        )
    )

    def nary_bruteforce(db=nary_db, query=nary_query):
        r = entails_bruteforce(db, query)
        return (r.holds, r.countermodel)

    yield (
        "models/bruteforce",
        {
            "order_consts": 7 if quick else 8,
            "facts": 8 if quick else 10,
            "disjuncts": 2,
        },
        nary_bruteforce,
        gated_repeats,
    )

    # n-ary entailment over a densely ordered database: the order graph
    # refutes most groundings of the queries' order atoms, which the
    # closure-aware join drops before the region DP sees them
    rng = random.Random(seed + 53)
    dense_db = random_nary_database(
        rng,
        n_order=7 if quick else 8,
        n_objects=3,
        n_facts=12 if quick else 16,
        preds=(("B", 2), ("C", 3)),
        edge_prob=0.6,
        le_prob=0.3,
        neq_prob=0.15,
    )
    dense_queries = [
        DisjunctiveQuery(
            tuple(
                random_nary_query(
                    rng, 3, 3, 1, preds=(("B", 2), ("C", 3)),
                    order_atom_prob=0.8, neq_prob=0.3,
                )
                for _ in range(2)
            )
        )
        for _ in range(6)
    ]

    def refuting_join(db=dense_db, queries=dense_queries):
        out = []
        for query in queries:
            r = entails_bruteforce(db, query)
            out.append((r.holds, r.countermodel))
        return out

    yield (
        "models/refuting_join",
        {
            "order_consts": 7 if quick else 8,
            "facts": 12 if quick else 16,
            "queries": len(dense_queries),
        },
        refuting_join,
        repeats,
    )

    # the open-query model sweep: every candidate tuple of one open query
    # decided on one grounding machine (naive: one substituted query per
    # candidate, checked against each enumerated minimal model)
    rng = random.Random(seed + 47)
    sweep_db = random_nary_database(
        rng,
        n_order=6 if quick else 7,
        n_objects=6 if quick else 8,
        n_facts=10 if quick else 12,
        preds=(("B", 2),),
        edge_prob=0.35,
    )
    sweep_open = OpenQuery(
        as_dnf(random_nary_query(rng, 2, 2, 1, preds=(("B", 2),))),
        (objvar("x0"),),
        tuple((name,) for name in sorted(sweep_db.object_constants)),
    )

    yield (
        "models/batched_sweep",
        {
            "order_consts": 6 if quick else 7,
            "candidates": len(sweep_open.candidates),
        },
        lambda db=sweep_db, oq=sweep_open: entailment_sweep(
            db, (), open_queries=[oq]
        )[oq],
        repeats,
    )


def build_api_benchmarks(quick: bool, seed: int):
    """Yield ``(name, params, one_shot_fn, prepared_fn, repeats)`` tuples.

    The one-shot side is the stateless per-call/per-tuple loop the
    pre-session API forced on callers (``certain_answers`` itself is now
    prepared-plan backed, so the loop is spelled out here).  The
    prepared side builds its :class:`Session` inside the timed function,
    so plan compilation and cache warm-up are paid inside the
    measurement — the speedup comes purely from doing the work once per
    plan instead of once per call/tuple.
    """
    repeats = 1 if quick else 3

    def per_tuple_answers(db, query, free):
        """The pre-session certain-answers loop: one full pipeline per
        candidate tuple."""
        dnf = as_dnf(query)
        domain = sorted(db.object_constants)
        return frozenset(
            combo
            for combo in iter_product(domain, repeat=len(free))
            if entails(
                db, dnf.substitute(dict(zip(free, map(obj, combo))))
            )
        )

    # -- certain answers: one prepared plan over all candidate tuples ------
    rng = random.Random(seed + 11)
    n_objects = 8 if quick else 10
    db, query, free = random_certain_answers_workload(
        rng,
        width=4,
        chain_length=3 if quick else 4,
        n_objects=n_objects,
        n_disjuncts=2,
        n_free=2,
    )
    yield (
        "session/certain_answers",
        {
            "width": 4,
            "chain": 3 if quick else 4,
            "objects": n_objects,
            "free_vars": 2,
            "candidates": n_objects ** 2,
        },
        lambda db=db, query=query, free=free: per_tuple_answers(
            db, query, free
        ),
        lambda db=db, query=query, free=free: frozenset(
            Session(db).certain_answers(query, free)
        ),
        repeats,
    )

    # -- a batch of closed queries sharing one warm closure state ----------
    rng = random.Random(seed + 13)
    dag = random_observer_dag(rng, 4, 4 if quick else 5)
    db = dag.to_database()
    queries = [
        random_disjunctive_monadic_query(rng, 2, 3)
        for _ in range(6 if quick else 12)
    ]
    yield (
        "session/entails_many",
        {"width": 4, "queries": len(queries)},
        lambda db=db, queries=queries: [
            explain(db, q).holds for q in queries
        ],
        lambda db=db, queries=queries: Session(db).entails_many(queries),
        repeats,
    )

    # -- an evolving database: object-fact churn between queries -----------
    rng = random.Random(seed + 17)
    db, query, free = random_certain_answers_workload(
        rng,
        width=3,
        chain_length=3,
        n_objects=6 if quick else 8,
        n_disjuncts=2,
        n_free=1,
    )
    from repro.core.atoms import ProperAtom
    from repro.core.database import IndefiniteDatabase

    toggles = [
        ProperAtom("Tag", (obj(f"churn{i}"),)) for i in range(4)
    ]

    def one_shot_evolving(db=db, query=query, free=free, toggles=toggles):
        answers = []
        current = db
        for fact in toggles:
            current = current.union(IndefiniteDatabase.of(fact))
            answers.append(per_tuple_answers(current, query, free))
        return answers

    def prepared_evolving(db=db, query=query, free=free, toggles=toggles):
        session = Session(db)
        plan = session.prepare(query, free_vars=free)
        answers = []
        for fact in toggles:
            session.assert_facts(fact)
            answers.append(frozenset(plan.execute().answers))
        return answers

    yield (
        "session/evolving_db",
        {"width": 3, "chain": 3, "objects": 6 if quick else 8,
         "mutations": len(toggles)},
        one_shot_evolving,
        prepared_evolving,
        repeats,
    )


def build_engine_benchmarks(quick: bool, seed: int):
    """Yield ``(name, params, one_shot_fn, engine_fn, repeats)`` tuples.

    The one-shot side is the per-request loop a sessionless service
    would run: every request pays the full pipeline (and every open
    request its own per-tuple/model sweep).  The engine side feeds the
    same request stream to :mod:`repro.engine` — plan grouping, combined
    model sweeps, materialized views — with all setup (session, view,
    pool construction) paid inside the measurement.
    """
    from repro.engine.batch import QueryRequest, execute_many
    from repro.engine.views import MaterializedView
    from repro.core.entailment import certain_answers
    from repro.core.atoms import ProperAtom
    from repro.workloads.generators import random_request_stream

    repeats = 1 if quick else 3

    def run_one_shot(db, requests):
        out = []
        for r in requests:
            if r.free_vars is None:
                out.append(explain(db, r.query, semantics=r.semantics,
                                   method=r.method).holds)
            else:
                out.append(frozenset(certain_answers(
                    db, r.query, r.free_vars, semantics=r.semantics
                )))
        return out

    def run_engine(db, requests):
        results = execute_many(Session(db), requests)
        return [
            r.holds if req.free_vars is None else frozenset(r.answers)
            for req, r in zip(requests, results)
        ]

    # -- a read burst with repeated plan groups ----------------------------
    rng = random.Random(seed + 23)
    db, ops = random_request_stream(
        rng,
        width=3,
        chain_length=3,
        n_objects=6 if quick else 8,
        n_queries=4,
        n_ops=16 if quick else 32,
        write_prob=0.0,
    )
    requests = [op for op in ops if isinstance(op, QueryRequest)]
    yield (
        "engine/batch",
        {"requests": len(requests),
         "plan_groups": len({r.plan_key for r in requests})},
        lambda db=db, requests=requests: run_one_shot(db, requests),
        lambda db=db, requests=requests: run_engine(db, requests),
        repeats,
    )

    # -- a materialized view over object-fact churn ------------------------
    rng = random.Random(seed + 29)
    db, query, free = random_certain_answers_workload(
        rng,
        width=3,
        chain_length=3,
        n_objects=6 if quick else 8,
        n_disjuncts=2,
        n_free=1,
    )
    toggles = [ProperAtom("Tag", (obj(f"churn{i}"),)) for i in range(6)]

    def view_one_shot(db=db, query=query, free=free, toggles=toggles):
        from repro.core.database import IndefiniteDatabase

        answers, current = [], db
        for fact in toggles:
            current = current.union(IndefiniteDatabase.of(fact))
            answers.append(frozenset(certain_answers(current, query, free)))
        return answers

    def view_engine(db=db, query=query, free=free, toggles=toggles):
        session = Session(db)
        view = MaterializedView(session, query, free)
        answers = []
        for fact in toggles:
            session.assert_facts(fact)
            answers.append(view.answers())
        return answers

    yield (
        "engine/views",
        {"width": 3, "objects": 6 if quick else 8,
         "mutations": len(toggles)},
        view_one_shot,
        view_engine,
        repeats,
    )

    # -- snapshot-parallel pool (skipped in --quick: CI stays fork-free;
    # -- skipped on 1-CPU hosts, where processes can only time-share) ------
    if not quick and (os.cpu_count() or 1) >= 2:
        from repro.engine.pool import DaemonPool

        rng = random.Random(seed + 31)
        db, ops = random_request_stream(
            rng,
            width=4,
            chain_length=5,
            n_objects=10,
            n_queries=12,
            n_ops=48,
            write_prob=0.0,
        )
        requests = [op for op in ops if isinstance(op, QueryRequest)]

        def pool_sequential(db=db, requests=requests):
            return run_engine(db, requests)

        def pool_parallel(db=db, requests=requests):
            with DaemonPool(Session(db), workers=2) as pool:
                results = pool.execute_many(requests)
            return [
                r.holds if req.free_vars is None else frozenset(r.answers)
                for req, r in zip(requests, results)
            ]

        yield (
            "engine/pool",
            {"requests": len(requests), "workers": 2},
            pool_sequential,
            pool_parallel,
            1,
        )

    # -- persistent daemon pool: incremental resync vs a fresh pool per
    # -- batch (same multi-core / non-quick conditions as engine/pool) -----
    if not quick and (os.cpu_count() or 1) >= 2:
        from repro.engine.pool import DaemonPool

        rng = random.Random(seed + 37)
        db, ops = random_request_stream(
            rng,
            width=4,
            chain_length=4,
            n_objects=8,
            n_queries=10,
            n_ops=20,
            write_prob=0.0,
        )
        requests = [op for op in ops if isinstance(op, QueryRequest)]
        toggles = [ProperAtom("Tag", (obj(f"dp{i}"),)) for i in range(4)]

        def pool_per_batch(db=db, requests=requests, toggles=toggles):
            session = Session(db)
            out = []
            for fact in toggles:
                session.assert_facts(fact)
                with DaemonPool(session, workers=2) as pool:
                    out.append(pool.execute_many(requests))
            return out

        def daemon_pool(db=db, requests=requests, toggles=toggles):
            session = Session(db)
            out = []
            with DaemonPool(session, workers=2) as pool:
                for fact in toggles:
                    session.assert_facts(fact)
                    pool.resnapshot(session)
                    out.append(pool.execute_many(requests))
            return out

        yield (
            "engine/daemon_pool",
            {"requests": len(requests), "batches": len(toggles),
             "workers": 2},
            pool_per_batch,
            daemon_pool,
            1,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes, 1 repeat (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero on result mismatch or speedup below --min-speedup",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="--check threshold on the reduced/, theorem53/, "
             "models/bruteforce, session/certain_answers, engine/batch "
             "and serve/throughput benches",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=2.0,
        help="--check ceiling on the wal/write_overhead ratio (WAL-on "
             "steady-state writes vs the memory-only mutator path)",
    )
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument(
        "--out",
        default=os.path.join(ROOT, "BENCH_core.json"),
        help="output JSON path (default: BENCH_core.json at the repo root)",
    )
    args = parser.parse_args(argv)

    rows = []
    for name, params, fn, repeats in build_benchmarks(args.quick, args.seed):
        row = _run_pair(name, params, fn, repeats)
        rows.append(row)
        match = "ok" if row["results_match"] else "MISMATCH"
        print(
            f"{row['name']:<24} {str(row['params']):<52} "
            f"naive {row['naive_s']*1000:9.2f} ms   "
            f"optimized {row['optimized_s']*1000:9.2f} ms   "
            f"x{row['speedup']:<8} {match}"
        )
    api_rows = list(build_api_benchmarks(args.quick, args.seed))
    api_rows += list(build_engine_benchmarks(args.quick, args.seed))
    for name, params, one_shot_fn, prepared_fn, repeats in api_rows:
        row = _run_api_pair(name, params, one_shot_fn, prepared_fn, repeats)
        rows.append(row)
        match = "ok" if row["results_match"] else "MISMATCH"
        print(
            f"{row['name']:<24} {str(row['params']):<52} "
            f"one-shot {row['one_shot_s']*1000:6.2f} ms   "
            f"prepared  {row['prepared_s']*1000:9.2f} ms   "
            f"x{row['speedup']:<8} {match}"
        )

    serve_gens = (
        build_serve_benchmarks(args.quick, args.seed),
        build_replica_benchmarks(args.quick, args.seed),
    )
    for name, params, serial_fn, concurrent_fn, latencies, repeats in (
        row_spec for gen in serve_gens for row_spec in gen
    ):
        row = _run_serve_pair(
            name, params, serial_fn, concurrent_fn, latencies, repeats
        )
        rows.append(row)
        match = "ok" if row["results_match"] else "MISMATCH"
        print(
            f"{row['name']:<24} {str(row['params']):<52} "
            f"serial {row['serial_rps']:6} rps   "
            f"concurrent {row['concurrent_rps']:8} rps   "
            f"x{row['speedup']:<8} {match}"
        )

    for name, params, baseline_fn, guarded_fn, repeats in build_wal_benchmarks(
        args.quick, args.seed
    ):
        row = _run_overhead_pair(name, params, baseline_fn, guarded_fn, repeats)
        rows.append(row)
        match = "ok" if row["results_match"] else "MISMATCH"
        print(
            f"{row['name']:<24} {str(row['params']):<52} "
            f"memory {row['baseline_s']*1000:8.2f} ms   "
            f"wal       {row['guarded_s']*1000:9.2f} ms   "
            f"x{row['overhead']:<8} {match}"
        )

    payload = {
        "meta": {
            "quick": args.quick,
            "seed": args.seed,
            "python": sys.version.split()[0],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "note": (
                "substrate rows: naive = seed algorithms via repro.substrate."
                "reference.naive_mode(), optimized = bitset substrate + "
                "closure caches; api rows: one_shot = stateless entry "
                "points, prepared = Session/PreparedQuery reuse; engine "
                "rows: one_shot = per-request loop, prepared = "
                "repro.engine (batched execution, materialized views, "
                "snapshot worker pool); serve rows: serial = fresh "
                "connection per request served one at a time, concurrent "
                "= pipelined clients multiplexed onto one engine loop"
            ),
        },
        "benchmarks": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        for row in rows:
            if not row["results_match"]:
                failures.append(f"{row['name']}: result pair differs")
            gated = row["name"].startswith(
                (
                    "reduced/",
                    "theorem53/",
                    "models/bruteforce",
                    "session/certain_answers",
                    "engine/batch",
                    # multiplexed pipelined clients vs connect-per-request
                    "serve/throughput",
                    # reads over 3 server processes vs 1; skipped (never
                    # gated) in --quick and below 4 CPUs
                    "serve/replica_scaleout",
                )
            )
            if gated and row["speedup"] is not None:
                if row["speedup"] < args.min_speedup:
                    failures.append(
                        f"{row['name']}: speedup {row['speedup']} < "
                        f"{args.min_speedup}"
                    )
            if row["mode"] == "overhead" and row["overhead"] is not None:
                if row["overhead"] > args.max_overhead:
                    failures.append(
                        f"{row['name']}: overhead {row['overhead']}x > "
                        f"{args.max_overhead}x"
                    )
        if failures:
            print("CHECK FAILED:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print(f"check ok: all results match, gated speedups >= {args.min_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
