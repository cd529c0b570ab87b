"""Serving benchmark: a real ``repro serve`` process under closed-loop load.

Usage, from the repository root::

    python3 servebench/run.py --workload warm_serve --seed 1 --seconds 10 --trace 0

One run:

1. builds the workload from ``--seed`` (``workloads.py``) and seeds a
   write-ahead log whose replay converges to the workload's database;
2. sets the server up ``SETUPS`` times — spawn ``repro serve --wal``
   on a fresh copy of the seeded log (``--sync flush --workers 0``),
   wait for the listening line, send the warm-up ops — and keeps the
   last server; ``setup_s`` is the median set-up time;
3. drives the server for ``--seconds`` from this one process: each
   connection keeps ``window`` requests in flight (closed loop), with
   the garbage collector frozen and off;
4. checks every reply, ``id``/``seq`` stripped, byte for byte against a
   one-connection replay of the same ops in reply-``seq`` order on a
   fresh in-process server, and for ``churn_rw`` recovers the drained
   server's log and compares state and answers with that replay;
5. prints a table of every metric and, as its last line, one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 1`` instead runs one untraced phase (the ``/proc`` CPU
figures and the throughput baseline) and one phase on the span-recording
launcher in ``tracing.py``, and reports the per-layer metrics.  The exit
code is nonzero on any failed op, reply mismatch, durability mismatch or
silent layer.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: a reply slower than this fails the run (the server is wedged)
REPLY_TIMEOUT = 60.0
#: the timed phase is cut into this many slices; throughput and the
#: latency percentiles are medians over them, so one stalled second
#: moves neither
SLICES = 10
#: below this many samples in a slice, a percentile uses all samples
MIN_SLICE_SAMPLES = 20

_PREFIX = struct.Struct("!I")

#: With two or more CPUs the server gets one to itself and this process
#: (the load generator) another, so neither steals the other's time
#: slices and the scheduler never migrates the server mid-run.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = _CPUS[1] if len(_CPUS) >= 2 else None
CLIENT_CPU = _CPUS[0] if len(_CPUS) >= 2 else None

#: (span name, workloads it must appear on) — a layer the table says
#: moves a metric on a workload but records nothing there means a
#: wrapper sits at the wrong import site
GUARDS = (
    ("server.drain", workloads.WORKLOADS),
    ("protocol.decode", ("warm_serve",)),
    ("protocol.encode", ("warm_serve",)),
    ("parser.parse_query", ("warm_serve",)),
    ("parser.parse_database", ("churn_rw",)),
    ("session.prepare", ("warm_serve", "model_sweep")),
    ("session.mutate", ("churn_rw",)),
    ("plan.validate", ("warm_serve",)),
    ("plan.execute", ("warm_serve", "model_sweep", "churn_rw")),
    ("batch.execute_many", ("model_sweep",)),
    ("modelengine.sweep", ("model_sweep", "churn_rw")),
    ("ordergraph.closure", ("churn_rw",)),
    ("wal.append", ("churn_rw",)),
    ("wal.mark", ("churn_rw",)),
    ("wal.recover", workloads.WORKLOADS),
    ("views.refresh", ("churn_rw",)),
    ("cli.result_payload", ("model_sweep", "warm_serve")),
)

END_TO_END = (
    # name, unit, workloads it exists on (None: all), in the JSON line.
    # A JSON metric must exist on every workload and never read zero;
    # read_p90_ms is printed but left out because on a shared two-vCPU
    # host its ten-seed spread reached 0.39 of its median with unchanged
    # code, beyond any bound a regression check can use.
    ("read_p50_ms", "ms", None, True),
    ("read_p90_ms", "ms", None, False),
    ("cold_read_p50_ms", "ms", ("churn_rw",), False),
    ("write_p50_ms", "ms", ("churn_rw",), False),
    ("write_p90_ms", "ms", ("churn_rw",), False),
    ("throughput_ops_s", "ops/s", None, True),
    ("setup_s", "s", None, True),
    ("server_peak_rss_mb", "MB", None, True),
    ("failed_op_frac", "ratio", None, False),
)


class BenchError(Exception):
    """The run cannot produce a measurement (server died, reply timeout)."""


# -- the closed-loop client ---------------------------------------------------


class Conn:
    """One connection keeping ``window`` requests in flight."""

    def __init__(self, addr, ops, window: int) -> None:
        self.sock = socket.create_connection(addr, timeout=REPLY_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.ops = iter(ops)
        self.window = window
        self.buf = bytearray()
        self.inflight: collections.deque = collections.deque()
        self.next_id = 0
        #: (rid, op, t_send, t_reply, body) per completed request
        self.done: list = []
        #: raw server-pushed event bodies, in arrival order
        self.events: list[bytes] = []
        self.exhausted = False
        self.pending: list[bytes] = []

    def send(self, op: workloads.Op | None, frame: dict | None = None) -> None:
        """Queue one request; :meth:`flush` puts it on the wire."""
        from repro.server.protocol import encode_frame

        self.next_id += 1
        self.pending.append(encode_frame({**(frame or op.frame),
                                          "id": self.next_id}))
        self.inflight.append((self.next_id, op, time.perf_counter()))

    def flush(self) -> None:
        # one write per refill: the requests a reply burst frees up
        # reach the server together, as one batch
        self.sock.sendall(b"".join(self.pending))
        self.pending.clear()

    def top_up(self, deadline: float | None) -> None:
        while len(self.inflight) < self.window and not self.exhausted:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            op = next(self.ops, None)
            if op is None:
                self.exhausted = True
                break
            self.send(op)
        if self.pending:
            self.flush()

    def read(self) -> None:
        data = self.sock.recv(1 << 16)
        if not data:
            raise BenchError("server closed the connection")
        now = time.perf_counter()
        buf = self.buf
        buf += data
        while len(buf) >= 4:
            (length,) = _PREFIX.unpack_from(buf)
            if len(buf) < 4 + length:
                break
            body = bytes(buf[4:4 + length])
            del buf[:4 + length]
            if b'"event":' in body:
                self.events.append(body)
                continue
            rid, op, sent = self.inflight.popleft()
            self.done.append((rid, op, sent, now, body))

    def close(self) -> None:
        self.sock.close()


def drive(conns: list[Conn], deadline: float | None = None) -> None:
    """Run every connection until its ops (or the deadline) run out and
    every request sent has its reply."""
    sel = selectors.DefaultSelector()
    try:
        for conn in conns:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
            conn.top_up(deadline)
        while any(conn.inflight for conn in conns):
            ready = sel.select(REPLY_TIMEOUT)
            if not ready:
                raise BenchError(f"no reply within {REPLY_TIMEOUT:g}s")
            for key, _ in ready:
                key.data.read()
                key.data.top_up(deadline)
    finally:
        sel.close()


def call(conn: Conn, frame: dict) -> dict:
    """One untimed request/reply on a connection (``stats``)."""
    mark = len(conn.done)
    conn.send(None, frame)
    conn.flush()
    drive([conn])
    return json.loads(conn.done.pop(mark)[4])


# -- server processes ---------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    # utime and stime are fields 14 and 15; fields[0] is field 3
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("VmHWM missing from /proc status")


class Server:
    """One ``repro serve`` subprocess on a private copy of the seeded log."""

    def __init__(self, run_dir: str, tag: str, db_file: str, seed_wal: str,
                 env: dict, spans: str | None = None) -> None:
        self.wal = os.path.join(run_dir, f"{tag}.wal")
        for suffix in ("", ".snap"):
            shutil.copyfile(seed_wal + suffix, self.wal + suffix)
        self.spans = spans
        launcher = (["-m", "repro.cli"] if spans is None
                    else [os.path.join(HERE, "tracing.py"), spans])
        self.log = open(os.path.join(run_dir, f"{tag}.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *launcher, "serve", db_file, "--wal", self.wal,
             "--sync", "flush", "--workers", "0", "--port", "0", "--json"],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        if SERVER_CPU is not None:
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = sel.select(REPLY_TIMEOUT)
        sel.close()
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise BenchError(f"server {tag} did not announce a port")
        addr = json.loads(line)["listening"]
        self.addr = (addr["host"], addr["port"])
        self.listening = time.perf_counter()

    def stop(self) -> None:
        """SIGTERM, wait for the drain, insist on a clean exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=REPLY_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("server did not drain on SIGTERM") from None
        finally:
            self.log.close()
        if self.proc.returncode != 0 or b'"drained": true' not in out:
            raise BenchError(f"server exited with {self.proc.returncode}")


# -- one measured server ------------------------------------------------------


class Phase:
    """Set up one server, warm it, drive it for ``seconds``, drain it."""

    def __init__(self, bench: "Bench", tag: str, traced: bool = False) -> None:
        self.bench = bench
        w = bench.workload
        spans = os.path.join(bench.run_dir, f"{tag}.spans") if traced else None
        t0 = time.perf_counter()
        self.server = Server(bench.run_dir, tag, bench.db_file, bench.seed_wal,
                             bench.env, spans)
        bench.servers.append(self.server)
        try:
            self.conns = [Conn(self.server.addr, (), w.window)
                          for _ in w.streams]
            warm = self.conns[0]
            warm.ops = (workloads.Op(f, "warmup") for f in w.warmup)
            drive([warm])
            self.setup_s = time.perf_counter() - t0
            self.listen_s = self.server.listening - t0
        except BaseException:
            self.server.stop()
            raise

    def run(self, seconds: float) -> None:
        w, pid = self.bench.workload, self.server.proc.pid
        before = call(self.conns[0], {"op": "stats"})
        wal_size = os.path.getsize(self.server.wal)
        # fresh streams: a traced run's second phase replays the same ops
        streams = workloads.build(w.name, self.bench.seed).streams
        for conn, stream in zip(self.conns, streams):
            conn.ops, conn.exhausted = stream, False
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            cpu0, client0 = _proc_cpu_s(pid), os.times()
            self.t0 = time.perf_counter()
            self.t0_ns = time.monotonic_ns()
            self.t1 = self.t0 + seconds
            drive(self.conns, self.t1)
            self.t1_ns = self.t0_ns + int(seconds * 1e9)
            for conn in self.conns:
                conn.ops, conn.exhausted = iter(()), True
            client1, cpu1 = os.times(), _proc_cpu_s(pid)
        finally:
            gc.enable()
            gc.unfreeze()
        self.server_cpu_s = cpu1 - cpu0
        self.client_cpu_s = (client1.user + client1.system
                             - client0.user - client0.system)
        after = call(self.conns[0], {"op": "stats"})
        batches = after["read_batches"] - before["read_batches"]
        self.reads_per_batch = (
            (after["batched_reads"] - before["batched_reads"]) / batches
            if batches else 1.0
        )
        self.wal_bytes = os.path.getsize(self.server.wal) - wal_size
        self.peak_rss_mb = _peak_rss_mb(pid)
        for conn in self.conns:
            conn.close()
        self.server.stop()
        self.timed = [
            (op, sent, got) for conn in self.conns
            for _, op, sent, got, _ in conn.done
            if op is not None and op.kind != "warmup" and got <= self.t1
        ]

    def spans(self) -> list:
        with open(self.server.spans) as fh:
            return json.load(fh)

    # -- summary statistics over the timed window --------------------------

    def latencies_ms(self, kinds) -> list[float]:
        return sorted((got - sent) * 1e3 for op, sent, got in self.timed
                      if op.kind in kinds)

    def percentile_ms(self, kinds, q: float) -> float:
        """Median over ``SLICES`` equal stretches of the timed phase of
        each stretch's latency percentile ``q`` (all samples at once when
        a stretch would hold fewer than ``MIN_SLICE_SAMPLES``)."""
        width = (self.t1 - self.t0) / SLICES
        slices: list[list[float]] = [[] for _ in range(SLICES)]
        for op, sent, got in self.timed:
            if op.kind in kinds:
                slices[min(SLICES - 1, int((got - self.t0) / width))].append(
                    (got - sent) * 1e3)
        if min(len(part) for part in slices) < MIN_SLICE_SAMPLES:
            return _pct(sorted(x for part in slices for x in part), q)
        return statistics.median(_pct(sorted(part), q) for part in slices)

    def throughput(self) -> float:
        """Median rate over ``SLICES`` runs of consecutive completions."""
        stamps = sorted(got for _, _, got in self.timed)
        step = len(stamps) // SLICES
        if step < 2:
            return len(stamps) / (self.t1 - self.t0)
        return statistics.median(
            step / (stamps[i + step] - stamps[i])
            for i in range(0, step * (SLICES - 1) + 1, step)
            if i + step < len(stamps)
        )

    def count(self, kind: str, graph: bool = False) -> int:
        return sum(1 for op, _, _ in self.timed
                   if op.kind == kind and (op.graph_write or not graph))


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


# -- correctness --------------------------------------------------------------


def _strip(body: bytes) -> str:
    reply = json.loads(body)
    return json.dumps({k: v for k, v in reply.items() if k not in ("id", "seq")},
                      sort_keys=True)


def check(bench: "Bench", phase: Phase) -> tuple[int, int]:
    """``(attempted, failed)`` over every op the phase's server answered.

    An op fails when its reply is an error, carries the wrong ``id``, or
    differs from the reference reply.  The reference is a fresh
    in-process server on the workload's database, fed the same ops over
    one connection in the measured server's reply-``seq`` order; for
    read-only workloads each distinct op is replayed once (the state
    never changes, so one reply stands for all).  Replies and watch
    events must match byte for byte with ``id``/``seq`` stripped.  On
    ``churn_rw`` a watch-event mismatch and a durability mismatch (see
    :func:`durability`) each count as one more failure.
    """
    from repro.api import Session
    from repro.server import ServerThread
    from repro.substrate.parser import parse_database

    w = bench.workload
    answered = []  # (seq, key, stripped reply, reply ok with the right id)
    for conn in phase.conns:
        for rid, op, _, _, body in conn.done:
            if op is None:
                continue  # stats probes
            reply = json.loads(body)
            answered.append((reply["seq"], json.dumps(op.frame, sort_keys=True),
                             _strip(body),
                             reply.get("id") == rid and reply.get("ok")))
    answered.sort(key=lambda item: item[0])
    replay = [key for _, key, _, _ in answered]
    if w.read_only:
        replay = list(dict.fromkeys(replay))
    session = Session(parse_database(w.db_text))
    thread = ServerThread(session)
    ref = Conn(thread.start(),
               (workloads.Op(json.loads(key), "read") for key in replay), 32)
    try:
        drive([ref])
    finally:
        ref.close()
        thread.shutdown()
    if len(ref.done) != len(replay):
        raise BenchError("reference replay lost replies")
    expected = [_strip(body) for *_, body in ref.done]
    if w.read_only:
        by_key = dict(zip(replay, expected))
        expected = [by_key[key] for _, key, _, _ in answered]
    failed = sum(not ok or got != want
                 for (_, _, got, ok), want in zip(answered, expected))
    if not w.read_only:
        events = [_strip(e) for conn in phase.conns for e in conn.events]
        failed += events != [_strip(e) for e in ref.events]
        writes = [frame for frame in map(json.loads, replay)
                  if frame["op"] in ("assert", "retract")]
        failed += durability(bench, phase.server.wal, session, writes)
    return len(answered), failed


def durability(bench: "Bench", wal_path: str, reference,
               writes: list[dict]) -> int:
    """1 unless the drained server's log holds every acknowledged write.

    The log must hold one record per write, in reply-``seq`` order, each
    adding or removing exactly that write's atoms (every generated write
    takes effect), and it must recover to the reference session's
    state, answering the probe queries the same way.
    """
    from repro.engine.wal import WalMark, read_log, recover
    from repro.substrate.parser import parse_database, parse_query

    records = [r for r in read_log(wal_path)[2] if not isinstance(r, WalMark)]
    records = records[bench.seed_records:]
    if len(records) != len(writes):
        return 1
    order = reference.db.order_constants
    for record, write in zip(records, writes):
        atoms = set(parse_database(write["facts"], extra_order=order).atoms())
        if write["op"] == "assert":
            logged = record.added_proper + record.added_order
        else:
            logged = record.removed_proper + record.removed_order
        if set(logged) != atoms:
            return 1
    recovered = recover(wal_path)
    if (recovered.db.proper_atoms != reference.db.proper_atoms
            or recovered.db.order_atoms != reference.db.order_atoms):
        return 1
    for text in bench.workload.probes:
        if (recovered.explain(parse_query(text, recovered.db))
                != reference.explain(parse_query(text, reference.db))):
            return 1
    return 0


# -- the run ------------------------------------------------------------------


class Bench:
    def __init__(self, args) -> None:
        from repro.api import Session
        from repro.engine.wal import WriteAheadLog, read_log
        from repro.substrate.parser import parse_database

        self.seed = args.seed
        self.servers: list[Server] = []
        self.workload = workloads.build(args.workload, args.seed)
        self.run_dir = os.path.join(
            os.getcwd(), ".servebench", f"{args.workload}-{os.getpid()}"
        )
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.db_file = os.path.join(self.run_dir, "db.txt")
        with open(self.db_file, "w") as fh:
            fh.write(self.workload.db_text + "\n")
        self.seed_wal = os.path.join(self.run_dir, "seed.wal")
        session = Session(parse_database(self.workload.db_text))
        wal = WriteAheadLog(self.seed_wal, sync="none").attach(session)
        order = session.db.order_constants
        for verb, text in self.workload.seed_writes:
            atoms = parse_database(text, extra_order=order).atoms()
            if verb == "assert":
                session.assert_facts(*atoms)
            else:
                session.retract_facts(*atoms)
        wal.close()
        self.seed_records = len(read_log(self.seed_wal)[2])
        self.env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # set iteration order shapes the search work some queries do;
        # pin it so two runs of one seed do the same work
        self.env["PYTHONHASHSEED"] = "0"

    def cleanup(self) -> None:
        for server in self.servers:  # left running by an aborted run
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.run_dir))
        except OSError:
            pass


def end_to_end(bench: Bench, phase: Phase, setups: list[Phase],
               attempted: int, failed: int) -> dict:
    values = {
        "read_p50_ms": phase.percentile_ms(("read",), 0.5),
        "read_p90_ms": phase.percentile_ms(("read",), 0.9),
        "throughput_ops_s": phase.throughput(),
        "setup_s": statistics.median(p.setup_s for p in setups),
        "server_peak_rss_mb": phase.peak_rss_mb,
        "failed_op_frac": failed / attempted,
    }
    if not bench.workload.read_only:
        values.update({
            "cold_read_p50_ms": phase.percentile_ms(("cold",), 0.5),
            "write_p50_ms": phase.percentile_ms(("write",), 0.5),
            "write_p90_ms": phase.percentile_ms(("write",), 0.9),
        })
    counts = {kind: len(phase.latencies_ms((kind,)))
              for kind in ("read", "cold", "write")}
    print(f"workload {bench.workload.name}: {len(phase.timed)} ops in "
          f"{phase.t1 - phase.t0:.1f}s; samples {counts}; "
          f"set-ups (s, to listening / total) "
          f"{[(round(p.listen_s, 3), round(p.setup_s, 3)) for p in setups]}")
    for name, unit, only, _ in END_TO_END:
        if name in values:
            print(f"  {name:22s} {values[name]:12.4f} {unit}")
        else:
            print(f"  {name:22s} {'n/a':>12s} {unit}  (no such ops in "
                  f"{bench.workload.name}; exists on {', '.join(only)})")
    return values


def per_layer(bench: Bench, plain: Phase, traced: Phase) -> dict:
    from tracing import Layers, durations_s

    spans = traced.spans()
    lay = Layers(spans, traced.t0_ns, traced.t1_ns)
    recover = durations_s(spans, "wal.recover")
    # recovery happens at set-up, before the timed window opens
    seen = set(lay.calls) | ({"wal.recover"} if recover else set())
    name = bench.workload.name
    missing = [span for span, where in GUARDS
               if name in where and span not in seen]
    if missing:
        raise BenchError(f"traced run recorded no span for {missing} on {name}")
    ops = len(plain.timed)
    wall = plain.t1 - plain.t0
    writes = traced.count("write")
    graph_writes = traced.count("write", graph=True)
    drain_ns = lay.dur_ns.get("server.drain", 0)
    prepares = lay.count("session.prepare")
    metrics = {
        "server.cpu_us_per_op": plain.server_cpu_s / ops * 1e6 if ops else 0.0,
        "server.busy_frac": plain.server_cpu_s / wall,
        "server.reads_per_batch": traced.reads_per_batch,
        "server.drain_self_us": lay.self_us("server.drain"),
        "client.cpu_frac": plain.client_cpu_s / wall,
        "protocol.decode_us": lay.self_us("protocol.decode"),
        "protocol.encode_us": lay.self_us("protocol.encode"),
        "protocol.reply_bytes": lay.mean_n("protocol.encode"),
        "parser.parse_query_us": lay.self_us("parser.parse_query"),
        "parser.parse_query_share": (
            lay.self_ns.get("parser.parse_query", 0) / drain_ns
            if drain_ns else 0.0),
        "parser.parse_database_us": lay.self_us("parser.parse_database"),
        "session.prepare_us": lay.self_us("session.prepare"),
        "session.plan_hit_frac": (
            1 - lay.compiles_on_prepare / prepares if prepares else 0.0),
        "session.mutate_us": lay.self_us("session.mutate"),
        "plan.validate_us": lay.self_us("plan.validate"),
        "plan.execute_us": lay.self_us("plan.execute"),
        "batch.execute_many_us_per_read": (
            lay.self_ns.get("batch.execute_many", 0) / 1e3
            / lay.n["batch.execute_many"]
            if lay.n.get("batch.execute_many") else 0.0),
        "batch.reads_per_call": lay.mean_n("batch.execute_many"),
        "modelengine.sweep_us": lay.self_us("modelengine.sweep"),
        "modelengine.queries_per_sweep": lay.mean_n("modelengine.sweep"),
        "modelengine.engine_builds": float(lay.count("modelengine.build")),
        "ordergraph.closure_us": lay.self_us("ordergraph.closure"),
        "ordergraph.closures_per_graph_write": (
            lay.count("ordergraph.closure") / graph_writes
            if graph_writes else 0.0),
        "wal.append_us": lay.self_us("wal.append"),
        "wal.mark_us": lay.self_us("wal.mark"),
        "wal.bytes_per_write": traced.wal_bytes / writes if writes else 0.0,
        "wal.recover_s": recover[-1] if recover else 0.0,
        "views.refresh_us": lay.self_us("views.refresh"),
        "views.refreshes_per_write": (
            lay.count("views.refresh") / writes if writes else 0.0),
        "cli.result_payload_us": lay.self_us("cli.result_payload"),
        "trace.overhead_frac": 1 - traced.throughput() / plain.throughput(),
    }
    return metrics


#: every per-layer metric and its unit, in report order
PER_LAYER = {
    "server.cpu_us_per_op": "us", "server.busy_frac": "ratio",
    "server.reads_per_batch": "count", "server.drain_self_us": "us",
    "client.cpu_frac": "ratio",
    "protocol.decode_us": "us", "protocol.encode_us": "us",
    "protocol.reply_bytes": "bytes",
    "parser.parse_query_us": "us", "parser.parse_query_share": "ratio",
    "parser.parse_database_us": "us",
    "session.prepare_us": "us", "session.plan_hit_frac": "ratio",
    "session.mutate_us": "us",
    "plan.validate_us": "us", "plan.execute_us": "us",
    "batch.execute_many_us_per_read": "us", "batch.reads_per_call": "count",
    "modelengine.sweep_us": "us", "modelengine.queries_per_sweep": "count",
    "modelengine.engine_builds": "count",
    "ordergraph.closure_us": "us",
    "ordergraph.closures_per_graph_write": "count",
    "wal.append_us": "us", "wal.mark_us": "us", "wal.bytes_per_write": "bytes",
    "wal.recover_s": "s",
    "views.refresh_us": "us", "views.refreshes_per_write": "count",
    "cli.result_payload_us": "us",
    "trace.overhead_frac": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("servebench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    bench = Bench(args)
    try:
        if args.trace:
            plain = Phase(bench, "plain")
            plain.run(args.seconds)
            traced = Phase(bench, "traced", traced=True)
            traced.run(args.seconds)
            attempted = failed = 0
            for phase in (plain, traced):
                a, f = check(bench, phase)
                attempted, failed = attempted + a, failed + f
            metrics = per_layer(bench, plain, traced)
            units = PER_LAYER
            print(f"workload {bench.workload.name} (traced, per layer):")
            for name, value in metrics.items():
                print(f"  {name:36s} {value:14.4f} {units[name]}")
        else:
            setups = []
            for i in range(SETUPS - 1):
                spare = Phase(bench, f"setup{i}")
                setups.append(spare)
                spare.server.stop()
            phase = Phase(bench, "measured")
            setups.append(phase)
            phase.run(args.seconds)
            attempted, failed = check(bench, phase)
            metrics = end_to_end(bench, phase, setups, attempted, failed)
            units = {name: unit for name, unit, _, gated in END_TO_END
                     if gated}
            metrics = {name: metrics[name] for name in units}
    except BenchError as exc:
        print(f"servebench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.cleanup()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
