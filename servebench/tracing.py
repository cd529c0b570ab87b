"""Traced ``repro serve``: span recording around each layer's entry points.

Run as a launcher in place of ``python -m repro.cli``::

    python3 servebench/tracing.py SPANS_FILE serve DB --wal W ...

It wraps the callables listed in :data:`SITES` at the import site each
caller uses (``repro.server.server.parse_query`` is what the server
calls, not ``repro.substrate.parser.parse_query``), then runs
``repro.cli.main``.  Spans live in memory as tuples ``(name, start_ns,
end_ns, parent, drain, n)``: ``parent`` is the index of the enclosing
span (-1 at top level), ``drain`` the id of the enclosing engine drain
(``ReproServer._process_run``; 0 outside one, as for frame decode in
the reader task and frame encode in the writer task), ``n`` a per-call
count (batch size, bytes, queries).  They are written to SPANS_FILE as
JSON when the server has drained and ``main`` returns.

Timestamps are ``time.monotonic_ns()``, the system-wide monotonic clock
on Linux, so the benchmark process can cut the spans to its own timed
window.

:class:`Layers` aggregates a span list per span name.  A
span's *self* time is its duration minus the time its child spans
cover; a "call" is a span whose parent is not a span of the same name,
so a mutator that delegates to another mutator counts once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _len_result(args, kwargs, result):
    return len(result)


def _one(args, kwargs, result):
    return 1


def _len_arg(args, kwargs, result):
    # the batch: ``_process_run(self, run)``, ``execute_many(session, requests)``
    return len(args[1])


#: (module, attribute path, span name, per-call count).  Every entry
#: names the site its caller resolves at call time.  Four are private
#: because the public name around them also waits or hits a cache:
#: ``_decode_body`` is the decode half of ``read_frame_async`` (the rest
#: waits on the socket), ``_process_run`` is one engine drain, and the
#: two ``_compute_*`` methods are what the memoized ``OrderGraph``
#: facades run on a miss.
SITES = (
    ("repro.server.server", "ReproServer._process_run", "server.drain", _len_arg),
    ("repro.server.protocol", "_decode_body", "protocol.decode", None),
    ("repro.server.server", "encode_frame", "protocol.encode", _len_result),
    ("repro.server.server", "parse_query", "parser.parse_query", None),
    ("repro.server.server", "parse_database", "parser.parse_database", None),
    ("repro.api.session", "Session.prepare", "session.prepare", None),
    ("repro.api.plan", "PreparedQuery.__init__", "plan.compile", None),
    ("repro.api.session", "Session.assert_facts", "session.mutate", None),
    ("repro.api.session", "Session.retract_facts", "session.mutate", None),
    ("repro.api.session", "Session.assert_order", "session.mutate", None),
    ("repro.api.session", "Session.retract_order", "session.mutate", None),
    ("repro.api.plan", "PreparedQuery.validate", "plan.validate", None),
    ("repro.api.plan", "PreparedQuery.execute", "plan.execute", None),
    ("repro.server.server", "execute_many", "batch.execute_many", _len_arg),
    ("repro.api.plan", "entailment_sweep", "modelengine.sweep", _len_result),
    ("repro.engine.batch", "entailment_sweep", "modelengine.sweep", _len_result),
    ("repro.api.plan", "entails_bruteforce", "modelengine.sweep", _one),
    ("repro.api.plan", "entails_bruteforce_monadic", "modelengine.sweep", _one),
    ("repro.core.modelengine", "ModelEngine.__init__", "modelengine.build", None),
    ("repro.substrate.digraph", "Digraph.transitive_closure", "ordergraph.closure", None),
    ("repro.core.ordergraph", "OrderGraph._compute_strict", "ordergraph.closure", None),
    ("repro.core.ordergraph", "OrderGraph._compute_normalize", "ordergraph.closure", None),
    ("repro.engine.wal", "WriteAheadLog.append", "wal.append", None),
    ("repro.engine.wal", "WriteAheadLog.append_mark", "wal.mark", None),
    ("repro.engine.wal", "recover", "wal.recover", None),
    ("repro.engine.views", "MaterializedView.refresh", "views.refresh", None),
    ("repro.server.server", "_result_payload", "cli.result_payload", None),
)


class Recorder:
    """In-memory span list plus the stack of open spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._drains = 0
        self._drain = 0

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack
        clock = time.monotonic_ns
        is_drain = name == "server.drain"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_drain:
                self._drains += 1
                self._drain = self._drains
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._drain, n)
                if is_drain:
                    self._drain = 0

        return traced

    def install(self) -> None:
        for module_name, path, name, count in SITES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


# -- analysis -----------------------------------------------------------------


def self_times(spans: list) -> list[int]:
    """Self time (ns) of every span: duration minus child coverage."""
    own = [0 if s is None else s[2] - s[1] for s in spans]
    for span in spans:
        if span is not None and span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


class Layers:
    """Per-name aggregates over the spans that start inside a window."""

    def __init__(self, spans: list, t0: int, t1: int) -> None:
        own = self_times(spans)
        self.self_ns: dict[str, int] = {}
        self.dur_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.n: dict[str, int] = {}
        self.compiles_on_prepare = 0
        for i, span in enumerate(spans):
            if span is None:  # still open when the server exited
                continue
            name, start, end, parent, _, n = span
            if not t0 <= start < t1:
                continue
            parent_name = spans[parent][0] if parent >= 0 and spans[parent] else None
            self.self_ns[name] = self.self_ns.get(name, 0) + own[i]
            self.dur_ns[name] = self.dur_ns.get(name, 0) + end - start
            self.n[name] = self.n.get(name, 0) + n
            if parent_name != name:
                self.calls[name] = self.calls.get(name, 0) + 1
            if name == "plan.compile" and parent_name == "session.prepare":
                self.compiles_on_prepare += 1

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def self_us(self, name: str) -> float:
        calls = self.count(name)
        return self.self_ns.get(name, 0) / calls / 1e3 if calls else 0.0

    def mean_n(self, name: str) -> float:
        calls = self.count(name)
        return self.n.get(name, 0) / calls if calls else 0.0


def durations_s(spans: list, name: str) -> list[float]:
    return [(s[2] - s[1]) / 1e9 for s in spans if s is not None and s[0] == name]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
