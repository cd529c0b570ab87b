"""Bitset minimal-model engine: region-DAG dynamic programming.

The seed minimal-model machinery (:mod:`repro.core.models`) enumerates the
valid blocks of every region by walking *all* subsets of its minor vertices
(``itertools.combinations``) and filtering, then materializes and checks
each block sequence independently.  This module replaces that with two
mask-level ideas:

* **direct block generation** — a valid block is a nonempty subset of the
  region's minor vertices that is closed under '<='-predecessors (S2) and
  contains no '!=' pair.  Every in-region predecessor of a minor vertex is
  itself minor (a tainting path through the predecessor would taint the
  vertex), so valid blocks are exactly the '!='-free *downsets* of the
  minor poset.  :meth:`ModelEngine.blocks` walks those downsets directly —
  one include/exclude decision per vertex, each an O(1) mask test —
  instead of filtering ``2^k`` subsets, and memoizes the result per region
  bitmask.  Block lists come out in the seed's enumeration order (size
  ascending, then lexicographic), so the sequence enumeration order is
  bit-for-bit identical to the naive oracle.

* **region-DAG dynamic programming** — distinct block-sequence prefixes
  revisit the same remaining-vertex region; :class:`RegionDP` memoizes,
  per ``(region, query-satisfaction state)`` pair, whether some completion
  falsifies the query (and how many do).  The satisfaction state is
  supplied by a *machine* (see :mod:`repro.algorithms.modelcheck`):
  the monadic machine carries the earliest-feasible-point frontier of each
  query dag, the n-ary machine the still-viable grounding set (of one
  query, or of one candidate answer tuple of an open query).  Machines
  signal the two absorbing outcomes with the :data:`SATISFIED` /
  :data:`ALL_FAIL` sentinels, which let entailment, countermodel
  counting and countermodel enumeration short-circuit whole subtrees
  (``ALL_FAIL`` regions contribute ``count(region)`` falsifying models
  in one arithmetic step, with the witness materialized lazily).

Regions are plain ``int`` bitmasks over the engine's vertex interning.
A :class:`ModelEngine` is purely structural (it depends only on the
graph), so :class:`repro.core.regions.RegionCache` memoizes one per graph
and shares it across snapshot forks like the other structural memos; its
tables are append-only and must be treated as read-only shared objects.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple

from repro.core.ordergraph import OrderGraph
from repro.core.atoms import Rel

#: Absorbing machine outcome: the query is satisfied by *every* completion
#: of the current prefix — the subtree contains no countermodel.
SATISFIED = object()

#: Absorbing machine outcome: the query is falsified by *every* completion
#: of the current prefix — every sequence below is a countermodel.
ALL_FAIL = object()


class ClosureRows(NamedTuple):
    """An order graph's closure as per-vertex bitmasks (see
    :meth:`ModelEngine.closure_rows`): bit ``v`` of ``reach[u]`` is set
    when a nonempty path leads from ``u`` to ``v``, of ``strict[u]``
    when such a path passes a '<' edge, and of ``apart[u]`` when every
    model puts ``u`` and ``v`` on distinct points (a strict path either
    way, or a recorded '!=' pair)."""

    reach: list[int]
    strict: list[int]
    apart: list[int]


class ModelEngine:
    """Mask-level minimal-model tables over one fixed order graph.

    The graph must not be mutated while the engine is alive (the same
    contract as :class:`repro.core.regions.RegionCache`, which owns the
    shared instances).  All memo dicts are append-only; instances handed
    out by a cache are shared and read-only.  :meth:`closure_rows` hands
    the grounding join the graph's closure, built once per engine.
    """

    __slots__ = (
        "graph",
        "verts",
        "index",
        "n",
        "full",
        "succ",
        "lepred",
        "lt_edges",
        "neq",
        "_minors",
        "_blocks",
        "_counts",
        "_names",
        "_keys",
        "_rows",
    )

    def __init__(self, graph: OrderGraph) -> None:
        self.graph = graph
        verts = sorted(graph.vertices)
        index = {v: i for i, v in enumerate(verts)}
        n = len(verts)
        succ = [0] * n
        lepred = [0] * n
        lt_edges: list[tuple[int, int]] = []
        for u, v, rel in graph.edges():
            ui, vi = index[u], index[v]
            succ[ui] |= 1 << vi
            if rel is Rel.LE:
                lepred[vi] |= 1 << ui
            else:
                lt_edges.append((ui, vi))
        neq = [0] * n
        for pair in graph.neq_pairs:
            names = sorted(pair)
            if len(names) == 2:
                i, j = index[names[0]], index[names[1]]
                neq[i] |= 1 << j
                neq[j] |= 1 << i
        self.verts = verts
        self.index = index
        self.n = n
        self.full = (1 << n) - 1
        self.succ = succ
        self.lepred = lepred
        self.lt_edges = lt_edges
        self.neq = neq
        self._minors: dict[int, int] = {}
        self._blocks: dict[int, tuple[int, ...]] = {}
        self._counts: dict[int, int] = {}
        self._names: dict[int, frozenset[str]] = {}
        self._keys: dict[int, tuple[str, ...]] = {}
        self._rows: ClosureRows | None | bool = False

    # -- decoding ----------------------------------------------------------

    def names(self, mask: int) -> frozenset[str]:
        """Decode a bitmask into a frozenset of vertex names (memoized)."""
        try:
            return self._names[mask]
        except KeyError:
            verts = self.verts
            out = []
            m = mask
            while m:
                low = m & -m
                out.append(verts[low.bit_length() - 1])
                m ^= low
            value = self._names[mask] = frozenset(out)
            return value

    def _key(self, mask: int) -> tuple[str, ...]:
        """The seed enumeration sort key of a block: its sorted name tuple."""
        try:
            return self._keys[mask]
        except KeyError:
            value = self._keys[mask] = tuple(sorted(self.names(mask)))
            return value

    # -- the order graph's closure -----------------------------------------

    def closure_rows(self) -> ClosureRows | None:
        """The graph's closure as bitmask rows over this engine's vertex
        interning, or None when the graph is inconsistent (a '<' cycle,
        or a '!=' pair the graph forces equal).

        Derived once per engine from the graph's per-generation
        :meth:`~repro.core.ordergraph.OrderGraph.reachability` and
        :meth:`~repro.core.ordergraph.OrderGraph.strict_reachability`
        caches.
        """
        rows = self._rows
        if rows is False:
            rows = self._rows = self._closure_rows()
        return rows

    def _closure_rows(self) -> ClosureRows | None:
        if any(len(pair) < 2 for pair in self.graph.neq_pairs):
            return None
        index = self.index

        def row(names) -> int:
            m = 0
            for w in names:
                m |= 1 << index[w]
            return m

        reach_sets = self.graph.reachability()
        strict_sets = self.graph.strict_reachability()
        reach = [row(reach_sets[v]) for v in self.verts]
        strict = [row(strict_sets[v]) for v in self.verts]
        apart = list(self.neq)
        for u in range(self.n):
            if strict[u] >> u & 1:
                return None  # a '<' cycle
            m = apart[u]
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                if reach[u] >> w & 1 and reach[w] >> u & 1:
                    return None  # a '!=' pair on one '<='-cycle
        for u in range(self.n):
            m = strict[u]
            apart[u] |= m
            while m:
                low = m & -m
                apart[low.bit_length() - 1] |= 1 << u
                m ^= low
        return ClosureRows(reach, strict, apart)

    # -- per-region structure ----------------------------------------------

    def minors(self, region: int) -> int:
        """Minor vertices of ``region``: not reachable from an in-region
        '<'-edge head (memoized bitmask BFS)."""
        try:
            return self._minors[region]
        except KeyError:
            pass
        heads = 0
        for ui, vi in self.lt_edges:
            if (region >> ui) & 1 and (region >> vi) & 1:
                heads |= 1 << vi
        succ = self.succ
        seen = heads
        frontier = heads
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= succ[low.bit_length() - 1]
                m ^= low
            frontier = nxt & region & ~seen
            seen |= frontier
        value = self._minors[region] = region & ~seen
        return value

    def blocks(self, region: int) -> tuple[int, ...]:
        """All valid blocks of ``region``, in the seed's enumeration order.

        Generated by walking the '!='-free downsets of the minor poset
        (each in-region '<='-predecessor of a minor is minor, so closure
        under S2 never leaves the minor set), then sorted by (size,
        lexicographic names) to match the seed's combinations order.
        Memoized per region bitmask.
        """
        try:
            return self._blocks[region]
        except KeyError:
            pass
        minors = self.minors(region)
        lepred = self.lepred
        # topological order of the minors under in-region '<=' edges
        order: list[int] = []
        placed = 0
        remaining = minors
        stuck = False
        while remaining:
            avail = 0
            m = remaining
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                if lepred[v] & region & ~placed == 0:
                    avail |= low
            if not avail:
                stuck = True  # '<='-cycle (unnormalized input)
                break
            m = avail
            while m:
                low = m & -m
                order.append(low.bit_length() - 1)
                m ^= low
            placed |= avail
            remaining &= ~avail
        if stuck:
            found = self._blocks_fallback(region, minors)
        else:
            found = []
            lp = [lepred[v] & region for v in order]
            nq = [self.neq[v] & minors for v in order]
            k = len(order)

            def walk(pos: int, chosen: int) -> None:
                if pos == k:
                    if chosen:
                        found.append(chosen)
                    return
                walk(pos + 1, chosen)
                if lp[pos] & ~chosen == 0 and nq[pos] & chosen == 0:
                    walk(pos + 1, chosen | (1 << order[pos]))

            walk(0, 0)
        found.sort(key=lambda b: (b.bit_count(), self._key(b)))
        value = self._blocks[region] = tuple(found)
        return value

    def _blocks_fallback(self, region: int, minors: int) -> list[int]:
        """Subset-filter block generation for '<='-cyclic (unnormalized)
        regions — the seed semantics, kept for exactness on odd inputs."""
        ids = []
        m = minors
        while m:
            low = m & -m
            ids.append(low.bit_length() - 1)
            m ^= low
        lepred = self.lepred
        neq = self.neq
        out = []
        for r in range(1, len(ids) + 1):
            for combo in combinations(ids, r):
                mask = 0
                for v in combo:
                    mask |= 1 << v
                if any(lepred[v] & region & ~mask for v in combo):
                    continue
                if any(neq[v] & mask for v in combo):
                    continue
                out.append(mask)
        return out

    # -- counting and enumeration ------------------------------------------

    def count(self, region: int) -> int:
        """The number of block sequences (minimal models) of ``region``."""
        try:
            return self._counts[region]
        except KeyError:
            pass
        if region == 0:
            value = 1
        else:
            value = sum(self.count(region & ~b) for b in self.blocks(region))
        self._counts[region] = value
        return value

    def iter_sequences(self, region: int) -> Iterator[tuple[int, ...]]:
        """All block sequences of ``region`` as mask tuples (seed order)."""
        if region == 0:
            yield ()
            return
        for b in self.blocks(region):
            for rest in self.iter_sequences(region & ~b):
                yield (b,) + rest

    def first_sequence(self, region: int) -> tuple[int, ...]:
        """The DFS-first block sequence of ``region``."""
        out: list[int] = []
        while region:
            b = self.blocks(region)[0]
            out.append(b)
            region &= ~b
        return tuple(out)


def engine_for(graph: OrderGraph, caches=None) -> ModelEngine:
    """The shared engine for ``graph`` from a region-cache hub, or a fresh
    one when no hub is supplied."""
    if caches is not None:
        return caches.get(graph).model_engine()
    return ModelEngine(graph)


class RegionDP:
    """Dynamic programming over the region DAG for one satisfaction machine.

    ``machine`` supplies ``initial(full_region)`` and
    ``advance(state, region, block)``; both return a hashable state or one
    of the absorbing sentinels :data:`SATISFIED` / :data:`ALL_FAIL`.
    States must be pure functions of the *placement history they encode*
    (which is what makes ``(region, state)`` a sound memo key): a pair of
    prefixes reaching the same region with the same state has exactly the
    same completion outcomes.
    """

    __slots__ = ("engine", "machine", "_init", "_fails", "_counts")

    def __init__(self, engine: ModelEngine, machine) -> None:
        self.engine = engine
        self.machine = machine
        self._init = machine.initial(engine.full)
        self._fails: dict[tuple[int, object], bool] = {}
        self._counts: dict[tuple[int, object], int] = {}

    # -- existence ---------------------------------------------------------

    def fails(self, region: int, state) -> bool:
        """Does some completion of ``(region, state)`` falsify the query?"""
        if state is SATISFIED:
            return False
        if state is ALL_FAIL:
            return True  # every nonempty region has a completion
        if region == 0:
            return True  # all constraints resolved, nothing satisfied
        key = (region, state)
        try:
            return self._fails[key]
        except KeyError:
            pass
        result = False
        machine = self.machine
        for b in self.engine.blocks(region):
            if self.fails(region & ~b, machine.advance(state, region, b)):
                result = True
                break
        self._fails[key] = result
        return result

    def entailed(self, state=None) -> bool:
        """True when every minimal model satisfies the query: from the
        machine's initial state, or from ``state`` (one candidate's
        start on a machine that decides many, which share this memo)."""
        if state is None:
            state = self._init
        return not self.fails(self.engine.full, state)

    def countermodel_blocks(self) -> tuple[int, ...] | None:
        """The DFS-first falsifying block sequence (the seed's first
        countermodel), or None when the query is entailed."""
        state = self._init
        region = self.engine.full
        if not self.fails(region, state):
            return None
        out: list[int] = []
        machine = self.machine
        while True:
            if state is ALL_FAIL:
                return tuple(out) + self.engine.first_sequence(region)
            if region == 0:
                return tuple(out)
            for b in self.engine.blocks(region):
                nxt = machine.advance(state, region, b)
                if self.fails(region & ~b, nxt):
                    out.append(b)
                    state = nxt
                    region &= ~b
                    break
            else:  # pragma: no cover - fails() promised a witness
                raise AssertionError("lost the countermodel trail")

    # -- counting ----------------------------------------------------------

    def count_failures(self, region: int | None = None, state=None) -> int:
        """How many completions falsify the query (one pass per distinct
        ``(region, state)``; ``ALL_FAIL`` regions count arithmetically)."""
        if region is None:
            region, state = self.engine.full, self._init
        if state is SATISFIED:
            return 0
        if state is ALL_FAIL:
            return self.engine.count(region)
        if region == 0:
            return 1
        key = (region, state)
        try:
            return self._counts[key]
        except KeyError:
            pass
        machine = self.machine
        value = sum(
            self.count_failures(region & ~b, machine.advance(state, region, b))
            for b in self.engine.blocks(region)
        )
        self._counts[key] = value
        return value

    # -- enumeration -------------------------------------------------------

    def iter_failing_sequences(self) -> Iterator[tuple[int, ...]]:
        """Every falsifying block sequence, in the seed enumeration order.

        Satisfied subtrees are pruned wholesale; dead subtrees stream
        their sequences straight off the structural tables.
        """
        engine = self.engine
        machine = self.machine

        def walk(region: int, state, prefix: tuple[int, ...]):
            if state is SATISFIED:
                return
            if state is ALL_FAIL:
                for rest in engine.iter_sequences(region):
                    yield prefix + rest
                return
            if region == 0:
                yield prefix
                return
            for b in engine.blocks(region):
                yield from walk(
                    region & ~b,
                    machine.advance(state, region, b),
                    prefix + (b,),
                )

        yield from walk(engine.full, self._init, ())


__all__ = [
    "ALL_FAIL",
    "SATISFIED",
    "ClosureRows",
    "ModelEngine",
    "RegionDP",
    "engine_for",
]
