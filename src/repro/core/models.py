"""Minimal models of indefinite order databases (Section 2).

The minimal models of a database are obtained by *generalized topological
sorting* of its (normalized) order graph: repeatedly choose a nonempty set
``S`` of unsorted vertices subject to

* **S1** — every element of ``S`` is *minor* in the subgraph of unsorted
  vertices (no ascending path through a '<' edge ends in it), and
* **S2** — ``S`` is closed under '<='-predecessors among unsorted vertices,

and map the whole of ``S`` to the next point of the linear order being
built.  Proposition 2.8 shows these models are minimal in the homomorphism
order, and Corollary 2.9 reduces all three semantics (through the
Section 2 transformations) to truth in all minimal models.

This module enumerates block sequences, materializes them as two-sorted
first-order :class:`Structure` objects, counts them (with memoization), and
provides homomorphism checking for the Proposition 2.8 tests.

The Section 7 extension is supported natively: a block may not contain two
vertices related by '!='.

Enumeration and counting run on the bitset
:class:`~repro.core.modelengine.ModelEngine` — valid blocks are generated
per region by walking the '!='-free downsets of the minor poset and the
results are memoized on the region bitmask, instead of filtering all
subsets of the minors at every visit.  Under
:func:`repro.substrate.reference.naive_mode` every entry point reroutes to
the retained seed algorithms (:func:`_valid_blocks` plus the subset-filter
recursion), which the differential suite and the benchmarks use as the
oracle; both paths enumerate sequences in exactly the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from repro.core.database import IndefiniteDatabase, LabeledDag
from repro.core.modelengine import engine_for
from repro.core.ordergraph import OrderGraph
from repro.core.regions import RegionCache, RegionCacheHub
from repro.substrate import reference
from repro.flexiwords.flexiword import Word

Block = frozenset[str]
BlockSequence = tuple[Block, ...]


def _valid_blocks(graph: OrderGraph) -> Iterator[Block]:
    """All valid choices of the set S for the current unsorted graph.

    S ranges over nonempty subsets of the minor vertices that are closed
    under '<='-predecessors (conditions S1 and S2) and contain no '!=' pair.
    Enumeration is exponential in the number of minor vertices — this is
    the seed algorithm, retained as the differential oracle for the bitset
    engine's direct downset generation.
    """
    minors = sorted(graph.minor_vertices())
    neq = {p for p in graph.neq_pairs if len(p) == 2}
    for r in range(1, len(minors) + 1):
        for combo in combinations(minors, r):
            s = frozenset(combo)
            if graph.le_predecessor_closure(s) != s:
                continue
            if any(pair <= s for pair in neq):
                continue
            yield s


def _no_models(graph: OrderGraph) -> bool:
    """True when the graph admits no block sequence at all."""
    if any(len(p) == 1 for p in graph.neq_pairs):
        return True
    return not graph.normalize().consistent


def iter_block_sequences(
    graph: OrderGraph, caches: RegionCacheHub | None = None
) -> Iterator[BlockSequence]:
    """All generalized topological sorts of a normalized, consistent graph.

    Each yielded sequence is the list of vertex blocks mapped to successive
    points.  Distinct sequences are distinct minimal models (the block
    sequence *is* the interpretation of the order constants).

    For a graph with a '<=<'-cycle or an ``x != x`` pair, nothing is
    yielded (no models).  The empty graph yields the empty sequence.
    """
    if _no_models(graph):
        return
    if reference.NAIVE:
        yield from _naive_block_sequences(graph, caches)
        return
    engine = engine_for(graph, caches)
    names = engine.names
    for masks in engine.iter_sequences(engine.full):
        yield tuple(names(b) for b in masks)


def _naive_block_sequences(
    graph: OrderGraph, caches: RegionCacheHub | None = None
) -> Iterator[BlockSequence]:
    """The seed recursion: subset-filter block generation per visit."""
    # Residual graphs are regions of the input graph; distinct prefixes
    # reach the same remaining-vertex set, so the induced subgraphs (and
    # their cached minors) are shared through a RegionCache.
    regions = caches.get(graph) if caches is not None else RegionCache(graph)

    def rec(region: frozenset[str], prefix: list[Block]) -> Iterator[BlockSequence]:
        if not region:
            yield tuple(prefix)
            return
        for s in _valid_blocks(regions.induced(region)):
            prefix.append(s)
            yield from rec(region - s, prefix)
            prefix.pop()

    yield from rec(frozenset(graph.vertices), [])


def count_minimal_models(
    graph: OrderGraph, caches: RegionCacheHub | None = None
) -> int:
    """The number of minimal models: one arithmetic pass per region."""
    if _no_models(graph):
        return 0
    if not reference.NAIVE:
        engine = engine_for(graph, caches)
        return engine.count(engine.full)
    regions = caches.get(graph) if caches is not None else RegionCache(graph)
    cache: dict[frozenset[str], int] = {}

    def count(region: frozenset[str]) -> int:
        if not region:
            return 1
        if region in cache:
            return cache[region]
        total = 0
        for s in _valid_blocks(regions.induced(region)):
            total += count(region - s)
        cache[region] = total
        return total

    return count(frozenset(graph.vertices))


@dataclass(frozen=True)
class Structure:
    """A finite two-sorted structure: a (minimal) model of a database.

    Attributes:
        order_size: the order domain is ``0 .. order_size - 1`` with the
            usual integer order.
        objects: the object domain (object-constant names).
        facts: ``pred -> set of tuples``; tuple entries are ints (points)
            or strs (objects).
        const_map: interpretation of the database's constants — order
            constants map to points, object constants to themselves.
    """

    order_size: int
    objects: frozenset[str]
    facts: tuple[tuple[str, frozenset[tuple]], ...]
    const_map: tuple[tuple[str, int | str], ...]

    @property
    def fact_dict(self) -> dict[str, frozenset[tuple]]:
        """Facts as a dict."""
        return dict(self.facts)

    @property
    def interpretation(self) -> dict[str, int | str]:
        """Constant interpretation as a dict."""
        return dict(self.const_map)

    def word(self) -> Word:
        """The word representation of a *monadic* structure.

        Letter ``i`` is the set of unary predicates holding at point ``i``.
        (Only meaningful when all facts are unary over points.)
        """
        letters: list[set[str]] = [set() for _ in range(self.order_size)]
        for pred, tuples in self.facts:
            for tup in tuples:
                if len(tup) == 1 and isinstance(tup[0], int):
                    letters[tup[0]].add(pred)
        return tuple(frozenset(s) for s in letters)

    def __str__(self) -> str:
        parts = []
        for pred, tuples in sorted(self.facts):
            for tup in sorted(tuples, key=repr):
                parts.append(f"{pred}({', '.join(map(str, tup))})")
        return f"<order 0..{self.order_size - 1}; {'; '.join(parts)}>"


def structure_from_blocks(
    db: IndefiniteDatabase, blocks: BlockSequence, canon: dict[str, str]
) -> Structure:
    """Materialize the minimal model given by a block sequence.

    Args:
        db: the *original* database (atoms are read off it).
        blocks: a generalized topological sort of the normalized graph.
        canon: the normalization's canonical-name map (original constant
            name -> normalized vertex).
    """
    point_of: dict[str, int] = {}
    for i, block in enumerate(blocks):
        for v in block:
            point_of[v] = i

    const_map: dict[str, int | str] = {}
    for c in db.order_constants:
        const_map[c] = point_of[canon.get(c, c)]
    for c in db.object_constants:
        const_map[c] = c

    facts: dict[str, set[tuple]] = {}
    for atom in db.proper_atoms:
        tup = tuple(const_map[t.name] for t in atom.args)
        facts.setdefault(atom.pred, set()).add(tup)

    return Structure(
        order_size=len(blocks),
        objects=frozenset(db.object_constants),
        facts=tuple(
            sorted((p, frozenset(ts)) for p, ts in facts.items())
        ),
        const_map=tuple(sorted(const_map.items())),
    )


class DeferredStructure:
    """A countermodel recorded as its block sequence and materialized by
    :meth:`build` only when someone reads it (see :class:`LazyModel`).
    Pickles as the built :class:`Structure`."""

    __slots__ = ("db", "blocks", "canon")

    def __init__(
        self, db: IndefiniteDatabase, blocks: BlockSequence, canon: dict[str, str]
    ) -> None:
        self.db = db
        self.blocks = blocks
        self.canon = canon

    def build(self) -> Structure:
        return structure_from_blocks(self.db, self.blocks, self.canon)

    def __reduce__(self):
        return _same, (self.build(),)


def _same(value):
    return value


class LazyModel:
    """Descriptor for a frozen dataclass's ``countermodel`` field (its
    default is None): a :class:`DeferredStructure` stored there is built
    on the first read and replaced by the :class:`Structure`.  Equality,
    hashing and ``repr`` read the field like any other, so they see the
    built model; :meth:`stored` hands a pending one on unbuilt."""

    def __get__(self, holder, owner=None):
        if holder is None:
            return None  # the dataclass field's default
        value = holder.__dict__["_countermodel"]
        if isinstance(value, DeferredStructure):
            value = holder.__dict__["_countermodel"] = value.build()
        return value

    def __set__(self, holder, value) -> None:
        holder.__dict__["_countermodel"] = value

    @staticmethod
    def stored(holder) -> Structure | Word | DeferredStructure | None:
        """``holder``'s countermodel as stored, without building it."""
        return holder.__dict__["_countermodel"]


def iter_minimal_models(
    db: IndefiniteDatabase,
    caches: RegionCacheHub | None = None,
    graph: OrderGraph | None = None,
) -> Iterator[Structure]:
    """All minimal models of ``db`` (empty when ``db`` is inconsistent).

    ``caches`` shares the engine's per-region block tables across calls;
    ``graph`` reuses a prebuilt order graph of ``db`` (a session's
    long-lived instance) instead of rebuilding one per call.
    """
    if graph is None:
        graph = db.graph()
    norm = graph.normalize()
    if not norm.consistent:
        return
    for blocks in iter_block_sequences(norm.graph, caches):
        yield structure_from_blocks(db, blocks, norm.canon)


def iter_minimal_words(
    dag: LabeledDag, caches: RegionCacheHub | None = None
) -> Iterator[Word]:
    """All minimal models of a monadic database, as words.

    Each block sequence yields the word whose i-th letter is the union of
    the labels of the i-th block.
    """
    norm_dag = dag.normalized()
    for blocks in iter_block_sequences(norm_dag.graph, caches):
        yield tuple(
            frozenset().union(*(norm_dag.labels[v] for v in block))
            for block in blocks
        )


# -- homomorphisms (Proposition 2.8) -----------------------------------------


def is_homomorphism(
    h: dict[int | str, int | str], source: Structure, target: Structure
) -> bool:
    """Check the homomorphism conditions of Section 2.

    ``h`` maps the source domain (points and objects) into the target
    domain.  Points must map to points monotonically with respect to '<',
    objects to objects, constants to matching interpretations, and facts to
    facts.
    """
    for i in range(source.order_size):
        if not isinstance(h.get(i), int):
            return False
    for o in source.objects:
        v = h.get(o)
        if not isinstance(v, str) or v not in target.objects:
            return False
    for i in range(source.order_size - 1):
        if not h[i] < h[i + 1]:  # '<' must be preserved
            return False
    src_int = source.interpretation
    tgt_int = target.interpretation
    for c, val in src_int.items():
        if c not in tgt_int or tgt_int[c] != h[val]:
            return False
    tgt_facts = target.fact_dict
    for pred, tuples in source.facts:
        for tup in tuples:
            image = tuple(h[x] for x in tup)
            if image not in tgt_facts.get(pred, frozenset()):
                return False
    return True


def find_homomorphism(
    source: Structure, target: Structure
) -> dict[int | str, int | str] | None:
    """Search for a homomorphism (small instances only: exponential search).

    Objects map by identity on shared names (the database interpretation
    fixes them anyway); the search is over monotone injections-or-not of
    points constrained by the constant interpretations.
    """
    src_int = source.interpretation
    tgt_int = target.interpretation
    h: dict[int | str, int | str] = {}
    for c, val in src_int.items():
        if c not in tgt_int:
            return None
        if isinstance(val, str):
            h[val] = tgt_int[c]
        else:
            existing = h.get(val)
            if existing is not None and existing != tgt_int[c]:
                return None
            h[val] = tgt_int[c]
    for o in source.objects:
        h.setdefault(o, o)

    points = [i for i in range(source.order_size)]

    def assign(idx: int) -> dict | None:
        if idx == len(points):
            return dict(h) if is_homomorphism(h, source, target) else None
        p = points[idx]
        if p in h:
            return assign(idx + 1)
        lo = 0
        for q in range(p - 1, -1, -1):
            if q in h:
                lo = h[q] + 1
                break
        hi = target.order_size - 1
        for q in range(p + 1, source.order_size):
            if q in h:
                hi = h[q] - 1
                break
        for candidate in range(lo, hi + 1):
            h[p] = candidate
            result = assign(idx + 1)
            if result is not None:
                return result
            del h[p]
        return None

    return assign(0)
