"""Memoized per-region views of an order graph.

The bounded-width decision procedures (Theorem 4.7, Theorem 5.3) and the
minimal-model enumerators all explore state spaces whose states are
*regions* — subsets of a fixed order graph's vertices, usually up-sets
``D ^ S`` of some antichain ``S``.  Different states routinely denote the
same region, and the seed implementation rebuilt the induced subgraph, its
minor vertices and its minimal vertices from scratch at every visit.

:class:`RegionCache` memoizes exactly those per-region artifacts, keyed on
the frozen vertex set:

* :meth:`~RegionCache.up_set` — the weak up-set of a source set;
* :meth:`~RegionCache.induced` — the induced subgraph (one shared,
  **read-only** :class:`~repro.core.ordergraph.OrderGraph` per region,
  which in turn carries its own cached closures);
* :meth:`~RegionCache.minors` / :meth:`~RegionCache.minimal` — the minor
  and minimal vertices of the induced subgraph;
* :meth:`~RegionCache.block_labels` — the label union of a block (when the
  cache was built with a label map);
* :meth:`~RegionCache.model_engine` — the shared
  :class:`~repro.core.modelengine.ModelEngine`, whose per-region valid-
  block, model-count and minor tables are keyed on *region bitmasks* over
  the graph's interned vertex ids (the minimal-model paths run entirely
  on those mask-keyed tables; the frozenset-keyed memos above remain for
  the theorem searches, which manipulate named vertex sets).

Under :func:`repro.substrate.reference.naive_mode` every call recomputes
without storing, reproducing the seed's cost model for benchmarks and
differential tests.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.modelengine import ModelEngine
from repro.core.ordergraph import OrderGraph
from repro.substrate import reference


class RegionCache:
    """Memoized region artifacts over one fixed :class:`OrderGraph`.

    The underlying graph must not be mutated while the cache is alive;
    graphs returned by :meth:`induced` are shared across lookups and must
    be treated as read-only.
    """

    __slots__ = (
        "graph",
        "labels",
        "_all",
        "_up",
        "_induced",
        "_minors",
        "_minimal",
        "_block_labels",
        "_engine",
    )

    def __init__(
        self,
        graph: OrderGraph,
        labels: Mapping[str, frozenset[str]] | None = None,
    ) -> None:
        self.graph = graph
        self.labels = labels
        self._all = frozenset(graph.vertices)
        self._up: dict[frozenset[str], frozenset[str]] = {}
        self._induced: dict[frozenset[str], OrderGraph] = {}
        self._minors: dict[frozenset[str], frozenset[str]] = {}
        self._minimal: dict[frozenset[str], frozenset[str]] = {}
        self._block_labels: dict[frozenset[str], frozenset[str]] = {}
        self._engine: ModelEngine | None = None

    def model_engine(self) -> ModelEngine:
        """The shared bitset minimal-model engine over this cache's graph.

        The engine is purely structural (its valid-block, minor and
        count tables depend only on the graph), so one instance is
        memoized per cache like the other structural memos.  Its tables
        are append-only: treat the returned engine as a read-only shared
        object.
        """
        if reference.NAIVE:
            return ModelEngine(self.graph)
        if self._engine is None:
            self._engine = ModelEngine(self.graph)
        return self._engine

    def up_set(self, sources: Iterable[str]) -> frozenset[str]:
        """The weak up-set ``D ^ S`` of ``sources`` (memoized)."""
        key = (
            sources
            if isinstance(sources, frozenset)
            else frozenset(sources)
        )
        if reference.NAIVE:
            return frozenset(self.graph.up_set(key))
        try:
            return self._up[key]
        except KeyError:
            value = self._up[key] = frozenset(self.graph.up_set(key))
            return value

    def induced(self, region: frozenset[str]) -> OrderGraph:
        """The induced subgraph on ``region`` (shared instance; read-only)."""
        if reference.NAIVE:
            return self.graph.induced(region)
        if region == self._all:
            return self.graph
        try:
            return self._induced[region]
        except KeyError:
            value = self._induced[region] = self.graph.induced(region)
            return value

    def minors(self, region: frozenset[str]) -> frozenset[str]:
        """Minor vertices of the induced subgraph on ``region``."""
        if reference.NAIVE:
            return frozenset(self.induced(region).minor_vertices())
        try:
            return self._minors[region]
        except KeyError:
            value = self._minors[region] = frozenset(
                self.induced(region).minor_vertices()
            )
            return value

    def minimal(self, region: frozenset[str]) -> frozenset[str]:
        """Minimal (source) vertices of the induced subgraph on ``region``."""
        if reference.NAIVE:
            return frozenset(self.induced(region).minimal_vertices())
        try:
            return self._minimal[region]
        except KeyError:
            value = self._minimal[region] = frozenset(
                self.induced(region).minimal_vertices()
            )
            return value

    def block_labels(self, block: frozenset[str]) -> frozenset[str]:
        """The union of the labels of ``block`` (requires a label map)."""
        if self.labels is None:
            raise ValueError("RegionCache was built without labels")
        if reference.NAIVE:
            return self._compute_block_labels(block)
        try:
            return self._block_labels[block]
        except KeyError:
            value = self._block_labels[block] = self._compute_block_labels(
                block
            )
            return value

    def _compute_block_labels(self, block: frozenset[str]) -> frozenset[str]:
        assert self.labels is not None
        out: set[str] = set()
        for v in block:
            out |= self.labels[v]
        return frozenset(out)


class RegionCacheHub:
    """An identity-keyed registry of :class:`RegionCache` instances.

    The decision procedures normalize their input dag internally, so the
    graph a :class:`RegionCache` must be built over only exists *inside*
    the algorithm.  Normalization results are memoized per generation on
    the source graph, so across repeated calls against an unmutated
    database the algorithms land on the *same* normalized graph object —
    the hub hands back the same cache for it, letting a
    :class:`~repro.api.session.Session` share region artifacts across
    queries.  Entries hold a strong reference to their graph, so an id is
    never reused while its entry is alive.  The hub must be discarded
    (:meth:`clear`) whenever the underlying database graph mutates.
    """

    __slots__ = ("_caches",)

    def __init__(self) -> None:
        self._caches: dict[int, RegionCache] = {}

    def get(
        self,
        graph: OrderGraph,
        labels: Mapping[str, frozenset[str]] | None = None,
    ) -> RegionCache:
        """The shared cache for ``graph``, created on first use."""
        entry = self._caches.get(id(graph))
        if entry is None or entry.graph is not graph:
            entry = RegionCache(graph, labels)
            self._caches[id(graph)] = entry
        elif entry.labels is None and labels is not None:
            entry.labels = labels
        return entry

    def invalidate_labels(self) -> None:
        """Detach label maps and block-label memos from every entry.

        Called when database facts over existing order constants change:
        the structural region artifacts (up-sets, induced subgraphs,
        minors) only depend on the graph and stay warm; callers reattach
        fresh labels through :meth:`get`.
        """
        for entry in self._caches.values():
            entry.labels = None
            entry._block_labels.clear()

    def clear(self) -> None:
        """Drop every cached entry (call after mutating the base graph)."""
        self._caches.clear()
