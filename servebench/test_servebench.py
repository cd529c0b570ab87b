"""Checks on the serving benchmark's generated load (not on the server).

Run with ``PYTHONPATH=src python -m pytest servebench -q``.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import Layers, self_times  # noqa: E402

from repro.api import Session  # noqa: E402
from repro.core.atoms import OrderAtom  # noqa: E402
from repro.substrate.parser import parse_database, parse_query  # noqa: E402


def _take(workload: workloads.Workload, n: int) -> list[list[workloads.Op]]:
    return [list(itertools.islice(stream, n)) for stream in workload.streams]


def _dump(workload: workloads.Workload, n: int) -> str:
    streams = [[(op.frame, op.kind, op.graph_write) for op in ops]
               for ops in _take(workload, n)]
    return json.dumps([workload.db_text, workload.seed_writes,
                       workload.warmup, streams], sort_keys=True)


def _queries(workload: workloads.Workload, n: int) -> list[str]:
    ops = [op.frame for ops in _take(workload, n) for op in ops]
    return [f["query"] for f in workload.warmup + ops if "query" in f]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_ops(name):
    assert _dump(workloads.build(name, 7), 400) == _dump(
        workloads.build(name, 7), 400)
    assert _dump(workloads.build(name, 7), 400) != _dump(
        workloads.build(name, 8), 400)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_streams_do_not_depend_on_consumption_order(name):
    # connections pull ops as their replies arrive, in any interleaving
    apart = _take(workloads.build(name, 7), 200)
    w = workloads.build(name, 7)
    together = [[] for _ in w.streams]
    for _ in range(200):
        for ops, stream in zip(together, w.streams):
            ops.append(next(stream))
    assert [[op.frame for op in ops] for ops in apart] == [
        [op.frame for op in ops] for ops in together]


def test_model_sweep_never_repeats_a_query():
    texts = _queries(workloads.build("model_sweep", 3), 2000)
    assert len(texts) == len(set(texts))


def test_warm_serve_pool_fits_the_plan_cache():
    default = inspect.signature(Session).parameters["plan_cache_limit"].default
    assert workloads.PLAN_CACHE == default
    w = workloads.build("warm_serve", 3)
    keys = {json.dumps(f, sort_keys=True) for f in w.warmup}
    streamed = {json.dumps(op.frame, sort_keys=True)
                for ops in _take(w, 5000) for op in ops}
    assert streamed <= keys
    assert len(keys) < workloads.PLAN_CACHE


def test_model_sweep_working_set_exceeds_the_plan_cache():
    # a run holds several hundred reads; the first few hundred are
    # already more distinct plans than the cache keeps
    texts = set(_queries(workloads.build("model_sweep", 3), 300))
    assert len(texts) > 2 * workloads.PLAN_CACHE


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_queries_are_well_sorted(name):
    """Sorts come from order atoms alone: every order variable sits in
    one, so parsing without the database's signatures types every
    variable the same way (its constants then parse as variables)."""
    w = workloads.build(name, 5)
    db = parse_database(w.db_text)
    for text in _queries(w, 300):
        with_db, alone = parse_query(text, db), parse_query(text)
        typed = _var_sorts(with_db)
        assert typed.items() <= _var_sorts(alone).items(), text
        for disjunct in alone.disjuncts:
            in_order_atoms = {t for a in disjunct.atoms
                              if isinstance(a, OrderAtom)
                              for t in (a.left, a.right) if t.is_var}
            order_vars = {t for a in disjunct.atoms for t in _terms(a)
                          if t.is_var and t.is_order}
            assert order_vars == in_order_atoms, text


def _terms(atom):
    if isinstance(atom, OrderAtom):
        return (atom.left, atom.right)
    return atom.args


def _var_sorts(query) -> dict:
    return {t.name: t.sort for d in query.disjuncts
            for a in d.atoms for t in _terms(a) if t.is_var}


def test_churn_writes_come_in_pairs():
    ops = _take(workloads.build("churn_rw", 4), 3000)[0]
    writes = [op.frame for op in ops if op.kind == "write"]
    assert 0.2 < len(writes) / len(ops) < 0.4
    live: dict[str, int] = {}
    for frame in writes:
        live[frame["facts"]] = live.get(frame["facts"], 0) + (
            1 if frame["op"] == "assert" else -1)
        assert live[frame["facts"]] in (0, 1)
    assert sum(live.values()) <= 3
    # the read after every order-atom write is the cold read
    for before, after in zip(ops, ops[1:]):
        if before.graph_write and after.kind != "write":
            assert after.kind == "cold"


def test_self_time_subtracts_children():
    spans = [
        ("server.drain", 0, 100, -1, 1, 2),
        ("plan.execute", 10, 50, 0, 1, 0),
        ("modelengine.sweep", 20, 40, 1, 1, 3),
        ("session.mutate", 60, 90, 0, 1, 0),
        ("session.mutate", 65, 80, 3, 1, 0),
    ]
    assert self_times(spans) == [30, 20, 20, 15, 15]
    layers = Layers(spans, 0, 1000)
    assert layers.count("session.mutate") == 1  # nested call folds in
    assert layers.self_us("session.mutate") == pytest.approx(0.030)
    assert layers.mean_n("modelengine.sweep") == 3


def test_benchmark_json_names_every_metric():
    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    gated = {name: unit for name, unit, _, in_json in run.END_TO_END
             if in_json}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == gated
