"""Seeded op streams for the serving benchmark's three workloads.

Everything here is pure: a workload is a function of ``(name, seed)``
and yields the same database text, seeded-log writes, warm-up ops and
timed op streams for the same seed.  Ops are the wire dicts a
``ReproClient`` would send (without ``id``), so the benchmark encodes
them unchanged and the tests can compare them byte for byte.

Query text follows the DSL's sort rule: the parser infers an order
sort only from order atoms, so every order variable of every generated
disjunct sits in at least one order atom.  Object variables only ever
appear in unary object facts (``Dev(X)``) or in the object positions of
the n-ary predicates.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Plans a server session keeps (``repro.api.session`` LRU default).
PLAN_CACHE = 128

WORKLOADS = ("warm_serve", "churn_rw", "model_sweep")

#: records in each workload's seeded write-ahead log
SEED_RECORDS = 6000
#: churn_rw ops sent during set-up, before timing
WARMUP_CHURN = 1000

#: Monadic order predicates of the observer databases.
_ORDER_PREDS = ("P", "Q", "R", "S")


@dataclass
class Op:
    """One timed request: its wire dict and the latency class it counts in."""

    frame: dict
    #: "read", "cold" (first read after an order write), "write", or
    #: "warmup" for the set-up ops the benchmark sends untimed
    kind: str
    graph_write: bool = False


@dataclass
class Workload:
    name: str
    #: database text the seeded write-ahead log converges to
    db_text: str
    #: assert/retract fact fragments replayed into the seeded log
    seed_writes: list[tuple[str, str]]
    #: ops the set-up phase sends before timing starts
    warmup: list[dict]
    #: one infinite op stream per connection (closed loop)
    streams: list[Iterator[Op]]
    window: int
    #: closed queries the durability check re-asks both sessions
    probes: list[str] = field(default_factory=list)
    read_only: bool = True


def _db_rng(name: str) -> random.Random:
    """Each workload serves one fixed database; ``--seed`` varies the
    request stream.  Per-read cost depends far more on the database than
    on which queries hit it, so a seeded database would make run-to-run
    spread measure the draw of databases instead of the program."""
    return random.Random(f"{name}:database")


# -- observer-style monadic databases -----------------------------------------


def _observer_db(rng: random.Random, observers: int, length: int):
    """Width-``observers`` chains of labelled points plus object facts."""
    points = [[f"o{c}_{i}" for i in range(length)] for c in range(observers)]
    atoms = []
    for chain in points:
        for v in chain:
            for p in rng.sample(_ORDER_PREDS, rng.choice((1, 1, 2))):
                atoms.append(f"{p}({v})")
        for u, v in zip(chain, chain[1:]):
            atoms.append(f"{u} {'<=' if rng.random() < 0.2 else '<'} {v}")
    devices = [f"d{i}" for i in range(8)]
    for d in devices:
        atoms.append(f"Dev({d})")
        if rng.random() < 0.5:
            atoms.append(f"{rng.choice(('Hot', 'Cold'))}({d})")
    return points, devices, atoms


def _order_chain(rng: random.Random, names: list[str]) -> list[str]:
    """Labelled order variables linked left to right by order atoms."""
    atoms = [f"{rng.choice(_ORDER_PREDS)}({v})" for v in names]
    for u, v in zip(names, names[1:]):
        atoms.append(f"{u} {'<=' if rng.random() < 0.3 else '<'} {v}")
    return atoms


def _monadic_query(rng: random.Random, open_: bool,
                   widths: tuple[int, ...]) -> str:
    parts = []
    for d, width in enumerate(widths):
        atoms = _order_chain(rng, [f"t{d}{i}" for i in range(width)])
        if open_:
            atoms = ["Dev(X)"] + (
                [f"{rng.choice(('Hot', 'Cold'))}(X)"] if d % 2 == 0 else []
            ) + atoms
        parts.append(" & ".join(atoms))
    return " | ".join(parts)


def _read(query: str, open_: bool, method: str = "auto") -> dict:
    if open_:
        return {"op": "answers", "query": query, "free_vars": ["X"],
                "semantics": "fin"}
    return {"op": "execute", "query": query, "semantics": "fin",
            "method": method}


def _monadic_pool(rng: random.Random, size: int, shapes) -> list[dict]:
    """Distinct closed and open certain-answers reads.

    Pool position ``i`` (its Zipf rank) always gets shape
    ``shapes[i % len(shapes)]`` — open or closed, and the order-variable
    count of each disjunct — so every seed spreads its traffic over the
    same mix of query shapes; the seed picks labels and relations.
    """
    seen: dict[str, dict] = {}
    while len(seen) < size:
        open_, widths = shapes[len(seen) % len(shapes)]
        query = _monadic_query(rng, open_, widths)
        seen.setdefault(query + str(open_), _read(query, open_))
    return list(seen.values())


#: (open, order variables per disjunct): 40% open, 30% disjunctive
_WARM_SHAPES = ((False, (2,)), (True, (2,)), (False, (3,)), (False, (2, 2)),
                (True, (3,)), (False, (2,)), (True, (2, 2)), (False, (3, 2)),
                (True, (2,)), (False, (2,)))
#: conjunctive only (see churn_rw)
_CHURN_SHAPES = ((False, (2,)), (True, (2,)), (False, (3,)), (True, (3,)),
                 (False, (2,)))


def _zipf_sampler(rng: random.Random, n: int, s: float) -> Callable[[], int]:
    cumulative = list(itertools.accumulate(1.0 / (k + 1) ** s for k in range(n)))
    total = cumulative[-1]
    return lambda: min(n - 1, bisect.bisect(cumulative, rng.random() * total))


def _seed_toggles(rng: random.Random, points, count: int):
    """Assert/retract pairs of eight-fact fragments over the base state:
    the log grows, the state it replays to does not.  ``count`` records
    make recovery, not interpreter start, the bulk of a set-up."""
    flat = [v for chain in points for v in chain]
    writes = []
    for _ in range(count // 2):
        fact = "; ".join(f"Seed{j}({rng.choice(flat)})" for j in range(8))
        writes.append(("assert", fact))
        writes.append(("retract", fact))
    return writes


def warm_serve(seed: int) -> Workload:
    points, _devices, atoms = _observer_db(_db_rng("warm_serve"), 3, 8)
    rng = random.Random(f"warm_serve:{seed}")
    pool = _monadic_pool(rng, 96, _WARM_SHAPES)
    return Workload(
        name="warm_serve",
        db_text="; ".join(atoms),
        seed_writes=_seed_toggles(rng, points, SEED_RECORDS),
        warmup=[dict(op) for op in pool],
        streams=[_zipf_reads(random.Random(f"warm_serve:{seed}:{conn}"), pool)
                 for conn in range(2)],
        window=16,
    )


def _zipf_reads(rng: random.Random, pool: list[dict]) -> Iterator[Op]:
    pick = _zipf_sampler(rng, len(pool), 0.9)
    while True:
        yield Op(dict(pool[pick()]), "read")


# -- churn_rw -----------------------------------------------------------------


def _toggle_facts(points, devices, base: list[str]) -> dict[str, list[str]]:
    """Per write class, the facts a toggle may assert: all absent from
    the base state, so every assert and every retract takes effect."""
    present = set(base)
    return {
        "object": [f for d in devices for p in ("Hot", "Cold")
                   if (f := f"{p}({d})") not in present],
        "label": [f for chain in points for v in chain for p in _ORDER_PREDS
                  if (f := f"{p}({v})") not in present],
        # the base state has no edge between two observers' chains, so
        # one outstanding cross edge can never close a cycle
        "order": [f"{u} < {v}" for a in points for b in points if a is not b
                  for u in a for v in b],
    }


def _churn_stream(rng: random.Random, toggles: dict[str, list[str]], pool,
                  outstanding: dict[str, str | None]) -> Iterator[Op]:
    """Reads (Zipf over ``pool``) with ~30% writes issued as toggle pairs.

    Each write class keeps at most one toggle outstanding (in
    ``outstanding``): the next write of that class retracts it.
    """
    pick = _zipf_sampler(rng, len(pool), 0.9)
    cold_next = False
    while True:
        if rng.random() < 0.3:
            cls = rng.choice(("object", "object", "label", "order"))
            fact = outstanding[cls]
            if fact is None:
                fact = outstanding[cls] = rng.choice(toggles[cls])
                op = "assert"
            else:
                outstanding[cls] = None
                op = "retract"
            graph = cls == "order"
            cold_next = cold_next or graph
            yield Op({"op": op, "facts": fact}, "write", graph_write=graph)
        else:
            yield Op(dict(pool[pick()]), "cold" if cold_next else "read")
            cold_next = False


def churn_rw(seed: int) -> Workload:
    points, devices, atoms = _observer_db(_db_rng("churn_rw"), 3, 4)
    rng = random.Random(f"churn_rw:{seed}")
    # conjunctive reads only: after every write a disjunctive read
    # recomputes a Theorem 5.3 search, and a handful of those would
    # swamp every other cost of the write path
    pool = _monadic_pool(rng, 56, _CHURN_SHAPES)
    # a few closed reads forced onto the minimal-model engine, so cold
    # reads after a graph write rebuild its tables; they sit at fixed
    # Zipf ranks so every seed sends them equally often
    for rank in (5, 10, 20, 30):  # closed two-point reads
        pool[rank]["method"] = "bruteforce"
    watch = {"op": "watch", "query": "Dev(X) & Hot(X) & P(s) & s < t & Q(t)",
             "free_vars": ["X"], "semantics": "fin"}
    # the first thousand or so ops run several times slower than later
    # ones (per-op cost keeps falling as the run goes on); churn
    # through them before timing, then retract whatever is outstanding
    # so the timed phase starts from the seeded state
    outstanding: dict[str, str | None] = dict.fromkeys(
        ("object", "label", "order"))
    toggles = _toggle_facts(points, devices, atoms)
    prefix = [op.frame for op in itertools.islice(_churn_stream(
        random.Random(f"churn_rw:{seed}:warmup"), toggles, pool,
        outstanding), WARMUP_CHURN)]
    prefix += [{"op": "retract", "facts": fact}
               for fact in outstanding.values() if fact is not None]
    return Workload(
        name="churn_rw",
        db_text="; ".join(atoms),
        seed_writes=_seed_toggles(rng, points, SEED_RECORDS),
        warmup=[watch] + [dict(op) for op in pool] + prefix,
        streams=[_churn_stream(random.Random(f"churn_rw:{seed}:0"), toggles,
                               pool, dict.fromkeys(("object", "label", "order")))],
        window=32,
        probes=[p["query"] for p in pool if p["op"] == "execute"][:12],
        read_only=False,
    )


# -- model_sweep --------------------------------------------------------------

_NARY_PREDS = (("B", 2), ("T", 3))


def _nary_db(rng: random.Random, n_order: int, n_objects: int, n_facts: int):
    """Random binary/ternary facts plus '<', '<=' and '!=' order atoms.

    The order part is three chains with a few cross edges: wide enough
    that the minimal-model engine has real regions to sweep, narrow
    enough that one read costs milliseconds.
    """
    order = [f"u{i}" for i in range(n_order)]
    objects = [f"a{i}" for i in range(n_objects)]
    atoms = []
    for _ in range(n_facts):
        pred, arity = rng.choice(_NARY_PREDS)
        args = [rng.choice(order) if pos % 2 == 0 else rng.choice(objects)
                for pos in range(arity)]
        atoms.append(f"{pred}({', '.join(args)})")
    chains = [order[c::3] for c in range(3)]
    for chain in chains:
        for u, v in zip(chain, chain[1:]):
            atoms.append(f"{u} {'<=' if rng.random() < 0.25 else '<'} {v}")
    for _ in range(2):
        a, b = rng.sample(range(3), 2)
        i = rng.randrange(len(chains[a]) - 1)
        atoms.append(f"{chains[a][i]} < {chains[b][i + 1]}")
    for _ in range(2):
        u, v = rng.sample(order, 2)
        atoms.append(f"{u} != {v}")
    # every order constant is mentioned by an order atom, so the parser
    # types it as an order constant everywhere
    return order, objects, sorted(set(atoms), key=atoms.index)


def _nary_query(rng: random.Random, objects, open_: bool) -> str:
    """A tight n-ary query: every order variable heads a proper atom and
    sits in the chain of order atoms linking all of them."""
    tvars = [f"t{i}" for i in range(rng.randint(2, 3))]
    xvars = ["X"] if open_ else [f"x{i}" for i in range(rng.randint(1, 2))]
    atoms: list[str] = []
    for head in tvars + tvars[: rng.randint(0, 1)]:
        pred, arity = rng.choice(_NARY_PREDS)
        args = [head]
        for pos in range(1, arity):
            if pos % 2 == 0:
                args.append(rng.choice(tvars))
            elif not open_ and rng.random() < 0.2:
                args.append(rng.choice(objects))
            else:
                args.append(rng.choice(xvars))
        atom = f"{pred}({', '.join(args)})"
        if atom not in atoms:
            atoms.append(atom)
    for u, v in zip(tvars, tvars[1:]):
        atoms.append(f"{u} {rng.choice(('<', '<', '<='))} {v}")
    if rng.random() < 0.2:
        atoms.append(f"{tvars[0]} != {tvars[-1]}")
    return " & ".join(atoms)


def _sweep_stream(rng: random.Random, objects, seen: set[str]) -> Iterator[Op]:
    """Never repeats a query text (shared ``seen`` across streams)."""
    while True:
        open_ = rng.random() < 0.35
        query = _nary_query(rng, objects, open_)
        if query in seen:
            continue
        seen.add(query)
        yield Op(_read(query, open_), "read")


def model_sweep(seed: int) -> Workload:
    order, objects, atoms = _nary_db(
        _db_rng("model_sweep"), n_order=12, n_objects=5, n_facts=22
    )
    rng = random.Random(f"model_sweep:{seed}")
    seen: set[str] = set()
    warm = []
    for op in itertools.islice(_sweep_stream(rng, objects, seen), 30):
        warm.append(op.frame)
    points = [order[c::3] for c in range(3)]
    return Workload(
        name="model_sweep",
        db_text="; ".join(atoms),
        seed_writes=_seed_toggles(rng, points, SEED_RECORDS),
        warmup=warm,
        streams=[_sweep_stream(random.Random(f"model_sweep:{seed}:0"),
                               objects, seen)],
        window=8,
    )


BUILDERS = {"warm_serve": warm_serve, "churn_rw": churn_rw,
            "model_sweep": model_sweep}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
