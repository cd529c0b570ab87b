"""The order graph of a database or conjunctive query (Section 2).

The order atoms of a database (or the order atoms of a conjunctive query)
induce a directed graph whose vertices are the order constants (variables)
and whose edges are labelled '<' or '<='.  This module implements every
graph-theoretic notion the paper builds on that structure:

* **normalization** (rules N1 and N2): contract cycles of '<='-edges into a
  single vertex, drop reflexive '<=' atoms; a normalized graph is
  inconsistent iff it still has a cycle (necessarily through a '<' edge);
* **fullness**: closure under the two derivation rules (u <= v for every
  path u ~> v, u < v for every path through a '<' edge);
* **minimal** vertices (no in-edge) and **minor** vertices (no ascending
  path ending in the vertex that passes through a '<' edge) — the building
  blocks of generalized topological sorts;
* **width**: the maximum cardinality of an antichain, computed exactly via
  Dilworth's theorem and Hopcroft–Karp matching;
* inequality pairs (``u != v``) for the Section 7 extension, carried along
  but not participating in the dag structure.

Vertices are plain strings (order-constant or order-variable names).

Caching contract
----------------

The derived relations — :meth:`~OrderGraph.reachability`,
:meth:`~OrderGraph.strict_reachability`, :meth:`~OrderGraph.minor_vertices`
and :meth:`~OrderGraph.normalize` — are computed once per *generation* and
memoized on the instance.  Every mutating method (:meth:`add_vertex`,
:meth:`add_edge`, :meth:`remove_edge`, :meth:`remove_vertices`) bumps the
generation counter, invalidating all cached views, so
:meth:`~OrderGraph.entails_atom` and :meth:`~OrderGraph.reduced` cost an
amortized dict lookup between mutations.  The dicts returned by
``reachability()`` / ``strict_reachability()`` and the
:class:`Normalization` returned by ``normalize()`` are shared cached
objects: treat them as **read-only** (copy before mutating).
``minor_vertices()`` returns a fresh set.  Under
:func:`repro.substrate.reference.naive_mode` all caching is bypassed and
queries recompute with the seed's naive algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from repro.core.atoms import OrderAtom, Rel
from repro.core.sorts import Term
from repro.substrate import reference
from repro.substrate.digraph import Digraph
from repro.substrate.matching import maximum_antichain

_T = TypeVar("_T")


@dataclass
class Normalization:
    """Result of normalizing an :class:`OrderGraph`.

    Attributes:
        graph: the normalized graph (vertices are canonical representatives).
        canon: maps every original vertex to its representative.
        consistent: False when normalization found a '<' cycle.
    """

    graph: "OrderGraph"
    canon: dict[str, str]
    consistent: bool


class OrderGraph:
    """A labelled order graph over string vertices.

    Edge labels are :class:`Rel.LT` or :class:`Rel.LE`; when both are
    asserted for the same pair the strictly stronger '<' is kept.
    Inequality constraints (``!=``) are stored separately as unordered
    pairs since they impose no direction.
    """

    def __init__(self) -> None:
        self._edges: dict[tuple[str, str], Rel] = {}
        self._digraph = Digraph()
        self._neq: set[frozenset[str]] = set()
        self._version = 0
        self._cache: dict[str, object] = {}
        self._cache_version = -1
        self._probes = 0  # cold entails_atom probes since the last mutation

    # -- caching -----------------------------------------------------------

    def _bump(self) -> None:
        self._version += 1
        self._probes = 0

    def _cached(self, key: str, compute: Callable[[], _T]) -> _T:
        if self._cache_version != self._version:
            self._cache.clear()
            self._cache_version = self._version
        try:
            return self._cache[key]  # type: ignore[return-value]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    def _lt_edges(self) -> list[tuple[str, str]]:
        return [(u, v) for (u, v), rel in self._edges.items() if rel is Rel.LT]

    # -- construction ------------------------------------------------------

    def add_vertex(self, v: str) -> None:
        """Add vertex ``v`` (idempotent)."""
        if v not in self._digraph:
            self._digraph.add_vertex(v)
            self._bump()

    def add_edge(self, u: str, v: str, rel: Rel) -> None:
        """Add an atom ``u rel v``.

        ``NE`` atoms become unordered pairs; a '<' edge overrides an
        existing '<=' edge on the same pair (it is strictly stronger).
        """
        if rel is Rel.NE:
            self.add_vertex(u)
            self.add_vertex(v)
            # u != u is unsatisfiable: record as an inconsistency marker.
            pair = frozenset((u,)) if u == v else frozenset((u, v))
            if pair not in self._neq:
                self._neq.add(pair)
                self._bump()
            return
        before = self._digraph.version
        self._digraph.add_edge(u, v)
        changed = self._digraph.version != before
        current = self._edges.get((u, v))
        if current is None or (current is Rel.LE and rel is Rel.LT):
            self._edges[(u, v)] = rel
            changed = True
        if changed:
            self._bump()

    def remove_edge(self, u: str, v: str) -> None:
        """Delete the order edge ``u -> v`` if present; vertices remain."""
        if (u, v) in self._edges:
            del self._edges[(u, v)]
            self._digraph.remove_edge(u, v)
            self._bump()

    def _replace_neq(self, pairs: set[frozenset[str]]) -> None:
        """Install a new '!=' pair set (internal; invalidates caches)."""
        self._neq = pairs
        self._bump()

    @classmethod
    def from_atoms(
        cls, atoms: Iterable[OrderAtom], extra_vertices: Iterable[str] = ()
    ) -> "OrderGraph":
        """Build the order graph of a set of order atoms.

        ``extra_vertices`` adds isolated vertices — order constants that
        occur only in proper atoms must still appear in the graph.
        """
        g = cls()
        for v in extra_vertices:
            g.add_vertex(v)
        for atom in atoms:
            g.add_edge(atom.left.name, atom.right.name, atom.rel)
        return g

    def copy(self) -> "OrderGraph":
        """An independent copy."""
        g = OrderGraph()
        g._digraph = self._digraph.copy()
        g._edges = dict(self._edges)
        g._neq = set(self._neq)
        g._bump()
        return g

    # -- inspection ---------------------------------------------------------

    @property
    def vertices(self) -> set[str]:
        """The vertex set (fresh set)."""
        return self._digraph.vertices

    @property
    def neq_pairs(self) -> set[frozenset[str]]:
        """The ``!=`` pairs (singleton frozenset marks ``u != u``)."""
        return set(self._neq)

    def edges(self) -> Iterator[tuple[str, str, Rel]]:
        """Iterate over labelled edges ``(u, v, rel)``."""
        for (u, v), rel in self._edges.items():
            yield u, v, rel

    def edge_label(self, u: str, v: str) -> Rel | None:
        """The label of edge ``(u, v)`` or None."""
        return self._edges.get((u, v))

    def successors(self, v: str) -> set[str]:
        """Direct successors of ``v``."""
        return self._digraph.successors(v)

    def predecessors(self, v: str) -> set[str]:
        """Direct predecessors of ``v``."""
        return self._digraph.predecessors(v)

    def to_atoms(self, term_of: dict[str, Term]) -> list[OrderAtom]:
        """Rebuild order atoms, mapping vertex names through ``term_of``."""
        atoms = [
            OrderAtom(term_of[u], rel, term_of[v])
            for (u, v), rel in sorted(self._edges.items())
        ]
        for pair in sorted(self._neq, key=sorted):
            names = sorted(pair)
            if len(names) == 1:
                atoms.append(OrderAtom(term_of[names[0]], Rel.NE, term_of[names[0]]))
            else:
                atoms.append(OrderAtom(term_of[names[0]], Rel.NE, term_of[names[1]]))
        return atoms

    def __len__(self) -> int:
        return len(self._digraph)

    def __contains__(self, v: str) -> bool:
        return v in self._digraph

    # -- normalization (rules N1, N2) ----------------------------------------

    def normalize(self) -> Normalization:
        """Apply rules N1 and N2, reporting consistency.

        N1: if ``u1 <= u2, ..., u_{n-1} <= u_n, u_n <= u1`` then identify
        ``u1, ..., un``.  N2: delete atoms ``u <= u``.  A cycle through a
        '<' edge (including a direct ``u < u``) makes the graph
        inconsistent; so does a recorded ``u != u`` or a ``!=`` pair whose
        two sides get identified by N1.

        Implementation: contract the strongly connected components of the
        whole graph.  An SCC with an internal '<' edge witnesses a '<'
        cycle.  The representative of each SCC is its lexicographically
        least member, so normalization is deterministic.

        The result is cached until the next mutation; callers share one
        :class:`Normalization` object and must not mutate ``.graph``.
        """
        if reference.NAIVE:
            return self._compute_normalize()
        return self._cached("normalize", self._compute_normalize)

    def _compute_normalize(self) -> Normalization:
        if reference.NAIVE:
            components = reference.naive_strongly_connected_components(
                self._digraph
            )
        else:
            components = self._digraph.strongly_connected_components()
        canon: dict[str, str] = {}
        consistent = True
        for comp in components:
            rep = min(comp)
            for v in comp:
                canon[v] = rep
        # internal '<' edge inside one component -> '<' cycle -> inconsistent
        for (u, v), rel in self._edges.items():
            if canon[u] == canon[v] and rel is Rel.LT:
                consistent = False

        g = OrderGraph()
        for v in self._digraph.vertices:
            g.add_vertex(canon[v])
        for (u, v), rel in self._edges.items():
            cu, cv = canon[u], canon[v]
            if cu == cv:
                continue  # rule N2 (and contracted N1 edges)
            g.add_edge(cu, cv, rel)
        neq: set[frozenset[str]] = set()
        for pair in self._neq:
            names = sorted(pair)
            if len(names) == 1 or canon[names[0]] == canon[names[1]]:
                consistent = False
                neq.add(frozenset((canon[names[0]],)))
            else:
                neq.add(frozenset((canon[names[0]], canon[names[1]])))
        g._replace_neq(neq)
        # The contracted graph can still contain '<' cycles spanning
        # components only if SCCs were computed wrongly; by construction the
        # condensation is acyclic, so `consistent` is final.
        return Normalization(graph=g, canon=canon, consistent=consistent)

    def is_consistent(self) -> bool:
        """True when the graph admits a compatible linear order.

        Note: ``!=`` pairs between distinct, non-identified vertices never
        cause inconsistency on their own (a linear order can always pull the
        two apart unless forced equal).
        """
        return self.normalize().consistent

    # -- derived relations / fullness ----------------------------------------

    def reachability(self) -> dict[str, set[str]]:
        """``reach[v]`` = vertices reachable from ``v`` by a nonempty path
        (any labels); ``v`` itself only when it lies on a cycle, as in
        :meth:`Digraph.transitive_closure`.

        Filled by the same condensation sweep as
        :meth:`strict_reachability` (:meth:`_compute_strict`), so both
        closures of one generation cost one sweep.  Cached until the next
        mutation — the returned dict is shared, treat it as read-only.
        """
        if reference.NAIVE:
            return reference.naive_transitive_closure(self._digraph)
        self.strict_reachability()
        return self._cache["reach"]  # type: ignore[return-value]

    def strict_reachability(self) -> dict[str, set[str]]:
        """``sreach[v]`` = vertices reachable via a path through a '<' edge.

        These are exactly the pairs with derived atom ``v < w``.  Computed
        by a single DP sweep over the SCC condensation (see
        :meth:`_compute_strict`); cached until the next mutation — the
        returned dict is shared, treat it as read-only.
        """
        if reference.NAIVE:
            return reference.naive_strict_reachability(
                self._digraph, self._lt_edges()
            )
        return self._cached("strict", self._compute_strict)

    def _compute_strict(self) -> dict[str, set[str]]:
        """One pass over the condensation, successor components first.

        For each component ``C``: if ``C`` contains an internal '<' edge,
        every member strictly reaches the whole weak down-set of ``C``;
        otherwise the strict set is the union, over cross-component edges
        ``C -> C'``, of the weak down-set of ``C'`` (edge labelled '<') or
        the strict set of ``C'`` (edge labelled '<=').

        The same pass stores the ``"reach"`` cache entry: a member of
        ``C`` reaches the weak down-set of ``C``, minus ``C`` itself
        unless ``C`` has an internal edge (a cycle or a self-loop).
        """
        d = self._digraph
        _verts, index = d.bit_index()
        comp_of, comps = d.condensation()
        ncomp = len(comps)
        comp_mask = [0] * ncomp
        for cid, members in enumerate(comps):
            m = 0
            for vid in members:
                m |= 1 << vid
            comp_mask[cid] = m
        tainted = [False] * ncomp
        cyclic = [False] * ncomp
        cross: list[list[tuple[int, bool]]] = [[] for _ in range(ncomp)]
        for (u, v), rel in self._edges.items():
            cu, cv = comp_of[index[u]], comp_of[index[v]]
            if cu == cv:
                cyclic[cu] = True
                if rel is Rel.LT:
                    tainted[cu] = True
            else:
                cross[cu].append((cv, rel is Rel.LT))
        weak_down = [0] * ncomp
        strict_down = [0] * ncomp
        for cid in range(ncomp):  # reverse topological: successors first
            wd = comp_mask[cid]
            sd = 0
            for cv, is_lt in cross[cid]:
                wd |= weak_down[cv]
                sd |= weak_down[cv] if is_lt else strict_down[cv]
            weak_down[cid] = wd
            strict_down[cid] = wd if tainted[cid] else sd
        out: dict[str, set[str]] = {}
        reach: dict[str, set[str]] = {}
        for v, vid in index.items():
            cid = comp_of[vid]
            out[v] = d.set_from_mask(strict_down[cid])
            reach_mask = weak_down[cid]
            if not cyclic[cid]:
                reach_mask &= ~comp_mask[cid]
            reach[v] = d.set_from_mask(reach_mask)
        self._cache["reach"] = reach
        return out

    def full(self) -> "OrderGraph":
        """The full closure: add every derivable ``<=`` and ``<`` edge.

        Rule 1: path u ~> v (u != v) adds ``u <= v``.  Rule 2: a path through
        a '<' edge adds ``u < v``.  ``!=`` pairs are copied unchanged (the
        paper's fullness does not derive inequalities).
        """
        reach = self.reachability()
        strict = self.strict_reachability()
        g = OrderGraph()
        for v in self.vertices:
            g.add_vertex(v)
        for u in self.vertices:
            su = strict[u]
            for v in reach[u]:
                if u == v:
                    continue
                g.add_edge(u, v, Rel.LT if v in su else Rel.LE)
        g._replace_neq(set(self._neq))
        return g

    # How many cold single-pair probes to answer point-wise before paying
    # for the full cached closure.  Mutation-heavy loops (reduced()) stay on
    # cheap one-source BFS probes; query-heavy static use warms the cache.
    _PROBE_LIMIT = 4

    def _probe_ready(self, u: str, v: str) -> bool:
        """True when a single-pair probe beats building the full closure."""
        if reference.NAIVE:
            return False
        if u not in self._digraph or v not in self._digraph:
            return False  # let the dict path raise KeyError as the seed did
        if self._cache_version == self._version and (
            "reach" in self._cache or "strict" in self._cache
        ):
            return False  # closure already paid for — use it
        if self._probes >= self._PROBE_LIMIT:
            return False
        self._probes += 1
        return True

    def _probe_le(self, u: str, v: str) -> bool:
        """Is ``v`` reachable from ``u`` by a nonempty path?  (``u != v``)"""
        d = self._digraph
        return bool(d.reachable_mask(d.mask_from((u,))) & d.mask_from((v,)))

    def _probe_lt(self, u: str, v: str) -> bool:
        """Is ``v`` reachable from ``u`` via a path through a '<' edge?"""
        d = self._digraph
        fwd = d.reachable_mask(d.mask_from((u,)))
        bwd = d.reachable_mask(d.mask_from((v,)), reverse=True)
        _verts, index = d.bit_index()
        for a, b in self._lt_edges():
            if (fwd >> index[a]) & 1 and (bwd >> index[b]) & 1:
                return True
        return False

    def entails_atom(self, u: str, v: str, rel: Rel) -> bool:
        """Does every compatible linear order satisfy ``u rel v``?

        For a *normalized, consistent* graph: ``u <= v`` is entailed iff
        there is a path from u to v (or u == v); ``u < v`` iff some such path
        passes through a '<' edge; ``u != v`` iff ``u < v`` or ``v < u`` is
        entailed or the pair is recorded as ``!=``.

        On a warm cache this is a dict lookup; right after a mutation the
        first few calls run as single-pair bitset probes instead of
        rebuilding the whole closure (the ``reduced()`` hot path).
        """
        if rel is Rel.LE:
            if u == v:
                return True
            if self._probe_ready(u, v):
                return self._probe_le(u, v)
            return v in self.reachability()[u]
        if rel is Rel.LT:
            if u == v:
                return False
            if self._probe_ready(u, v):
                return self._probe_lt(u, v)
            return v in self.strict_reachability()[u]
        if u == v:
            return False
        if frozenset((u, v)) in self._neq:
            return True
        if self._probe_ready(u, v):
            return self._probe_lt(u, v) or self._probe_lt(v, u)
        strict = self.strict_reachability()
        return v in strict[u] or u in strict[v]

    # -- minimal and minor vertices ------------------------------------------

    def minimal_vertices(self) -> set[str]:
        """Vertices with no in-edge."""
        return self._digraph.sources()

    def minor_vertices(self) -> set[str]:
        """Vertices with no ascending path into them through a '<' edge.

        A vertex v is *minor* iff no path ending at v passes through an edge
        labelled '<'.  Equivalently: v is not (weakly) reachable from the
        head of any '<' edge.  Cached until the next mutation; returns a
        fresh set.
        """
        if reference.NAIVE:
            return reference.naive_minor_vertices(
                self._digraph, self._lt_edges()
            )
        return set(self._cached("minors", self._compute_minors))

    def _compute_minors(self) -> frozenset[str]:
        d = self._digraph
        if len(d) <= 16:
            # below one or two machine words the interning setup costs more
            # than the plain DFS it replaces
            return frozenset(
                reference.naive_minor_vertices(d, self._lt_edges())
            )
        heads = d.mask_from(v for _u, v in self._lt_edges())
        tainted = d.reachable_mask(heads)
        untainted = ~tainted & ((1 << len(d)) - 1)
        return frozenset(d.set_from_mask(untainted))

    def le_predecessor_closure(self, seed: Iterable[str]) -> set[str]:
        """Close ``seed`` under '<='-predecessors (constraint S2).

        If u is in the set and there is an edge ``v <= u`` then v joins the
        set.  Used when constructing generalized topological sorts.
        """
        out = set(seed)
        stack = list(out)
        while stack:
            u = stack.pop()
            for v in self._digraph.predecessors(u):
                if self._edges[(v, u)] is Rel.LE and v not in out:
                    out.add(v)
                    stack.append(v)
        return out

    # -- width ----------------------------------------------------------------

    def is_antichain(self, subset: Iterable[str]) -> bool:
        """True when no vertex of ``subset`` reaches another."""
        subset = set(subset)
        reach = self.reachability()
        for u in subset:
            if reach[u] & (subset - {u}):
                return False
        return True

    def a_maximum_antichain(self) -> set[str]:
        """Some maximum-cardinality antichain (Dilworth via matching)."""
        if not self.vertices:
            return set()
        return maximum_antichain(self.vertices, self.reachability())

    def width(self) -> int:
        """The width: maximum cardinality of an antichain.

        Note: the Section 7 convention applies — ``!=`` pairs are ignored
        when measuring width.
        """
        return len(self.a_maximum_antichain())

    # -- restriction ------------------------------------------------------------

    def induced(self, keep: Iterable[str]) -> "OrderGraph":
        """The subgraph induced by ``keep`` (labels and ``!=`` restricted)."""
        keep = set(keep)
        g = OrderGraph()
        g._digraph = self._digraph.induced_subgraph(keep)
        g._edges = {
            (u, v): rel
            for (u, v), rel in self._edges.items()
            if u in keep and v in keep
        }
        g._replace_neq({p for p in self._neq if p <= keep})
        return g

    def up_set(self, sources: Iterable[str]) -> set[str]:
        """Vertices weakly reachable from ``sources`` (the paper's ``D ^ S``)."""
        if reference.NAIVE:
            return reference.naive_reachable_from(self._digraph, sources)
        return self._digraph.reachable_from(sources)

    def reduced(self) -> "OrderGraph":
        """Drop redundant edges (the Section 2 remark on successor counts).

        An edge ``u rel v`` is redundant when the remaining atoms already
        entail it (e.g. ``u < w`` with ``u < v``, ``v <= w`` present).
        Edges are examined in deterministic order and removed greedily;
        the result entails exactly the same order atoms.  The paper notes
        that in a width-``k`` database the reduced graph has at most
        ``2k`` successors per vertex (``k`` immediate '<='-successors plus
        ``k`` immediate '<'-successors) — property-tested in the suite.
        """
        g = self.copy()
        for (a, b), rel in sorted(self._edges.items()):
            current = g._edges.get((a, b))
            if current is None:
                continue
            # try removing the edge; keep it only if no longer entailed
            g.remove_edge(a, b)
            if not g.entails_atom(a, b, current):
                g.add_edge(a, b, current)
        return g

    def remove_vertices(self, drop: Iterable[str]) -> None:
        """Delete ``drop`` and all incident edges / '!=' pairs, in place."""
        drop = set(drop)
        for v in drop:
            if v in self._digraph:
                self._digraph.remove_vertex(v)
        self._edges = {
            (u, v): rel
            for (u, v), rel in self._edges.items()
            if u not in drop and v not in drop
        }
        self._neq = {p for p in self._neq if not (p & drop)}
        self._bump()
