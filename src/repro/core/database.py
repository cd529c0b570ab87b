"""Indefinite order databases and their labelled-dag (monadic) view.

An :class:`IndefiniteDatabase` is a finite set of ground proper atoms plus
ground order atoms over order constants (Section 2).  Under the open-world
semantics its models are all structures, over any compatible linear order,
supporting the atoms; query answering is entailment over all of them.

For monadic predicates the paper identifies databases with *vertex-labelled
dags* (Section 4): vertices are the order constants, each labelled with the
set ``D[u]`` of predicates asserted at ``u``.  :class:`LabeledDag` is that
representation; it is shared with monadic conjunctive queries (whose
vertices are order variables), exactly as the paper switches freely between
the two readings.  ``MonadicDatabase`` is an alias of :class:`LabeledDag`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from repro.core.atoms import OrderAtom, ProperAtom, Rel
from repro.core.errors import InconsistentError, NotMonadicError, SortError
from repro.core.ordergraph import OrderGraph
from repro.core.sorts import Sort, Term, ordc
from repro.flexiwords.flexiword import FlexiWord


class Vocabulary:
    """What a database's facts say about the names a query may use.

    ``order_constants`` and ``object_constants`` are the constant names
    of each sort, and ``arg_sorts`` maps ``(pred, position)`` to the
    sorts the facts put there.  Parsing a query text against a database
    depends on nothing else, so ``parses`` — the bounded text -> query
    memo :func:`repro.substrate.parser.parse_query` keeps — lives here:
    a database with a new vocabulary gets a new, empty memo.

    Treat a vocabulary as read-only; only ``parses`` grows.
    """

    __slots__ = ("order_constants", "object_constants", "arg_sorts", "parses")

    def __init__(
        self,
        proper_atoms: Iterable[ProperAtom],
        order_atoms: Iterable[OrderAtom],
    ) -> None:
        order: set[str] = set()
        objects: set[str] = set()
        sorts: dict[tuple[str, int], set[Sort]] = {}
        for atom in proper_atoms:
            for i, t in enumerate(atom.args):
                (order if t.is_order else objects).add(t.name)
                sorts.setdefault((atom.pred, i), set()).add(t.sort)
        for atom in order_atoms:
            order.add(atom.left.name)
            order.add(atom.right.name)
        self.order_constants: frozenset[str] = frozenset(order)
        self.object_constants: frozenset[str] = frozenset(objects)
        self.arg_sorts: dict[tuple[str, int], frozenset[Sort]] = {
            key: frozenset(s) for key, s in sorts.items()
        }
        self.parses: dict = {}

    def same_parts(self, other: "Vocabulary") -> bool:
        """True when both vocabularies hold equal constant sets and sorts."""
        return (
            self.order_constants == other.order_constants
            and self.object_constants == other.object_constants
            and self.arg_sorts == other.arg_sorts
        )


@dataclass(frozen=True)
class IndefiniteDatabase:
    """A finite set of ground proper atoms and ground order atoms."""

    proper_atoms: frozenset[ProperAtom]
    order_atoms: frozenset[OrderAtom]

    def __post_init__(self) -> None:
        order_names: set[str] = set()
        object_names: set[str] = set()
        for atom in self.proper_atoms:
            if not atom.is_ground:
                raise SortError(f"database proper atom must be ground: {atom}")
            for t in atom.args:
                (order_names if t.is_order else object_names).add(t.name)
        for atom in self.order_atoms:
            if not atom.is_ground:
                raise SortError(f"database order atom must be ground: {atom}")
            order_names.add(atom.left.name)
            order_names.add(atom.right.name)
        clash = order_names & object_names
        if clash:
            # One spelling, two sorts: the minimal-model constant map is
            # keyed by name, so this would silently corrupt verdicts.
            raise SortError(
                "constant name(s) used at both sorts: "
                + ", ".join(sorted(clash))
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, *atoms: ProperAtom | OrderAtom) -> "IndefiniteDatabase":
        """Build a database from a flat sequence of atoms."""
        return cls.from_atoms(atoms)

    @classmethod
    def from_atoms(
        cls, atoms: Iterable[ProperAtom | OrderAtom]
    ) -> "IndefiniteDatabase":
        """Build a database from any iterable of atoms."""
        proper: set[ProperAtom] = set()
        order: set[OrderAtom] = set()
        for atom in atoms:
            if isinstance(atom, ProperAtom):
                proper.add(atom)
            else:
                order.add(atom)
        return cls(frozenset(proper), frozenset(order))

    @classmethod
    def empty(cls) -> "IndefiniteDatabase":
        """The empty database (its unique minimal model is empty)."""
        return cls(frozenset(), frozenset())

    def successor(
        self,
        proper_atoms: frozenset[ProperAtom],
        order_atoms: frozenset[OrderAtom],
    ) -> "IndefiniteDatabase":
        """A database over new atom sets that may inherit this one's
        :attr:`vocabulary` object.

        Nothing is computed here: the successor records the vocabulary
        this database has (or itself inherited), and its own first
        :attr:`vocabulary` access reuses that object when the parts come
        out equal — so a chain of writes that never change the
        vocabulary keeps every memo keyed on it warm.
        """
        nxt = IndefiniteDatabase(proper_atoms, order_atoms)
        prior = self.__dict__.get("vocabulary") or self.__dict__.get("_prior")
        if prior is not None:
            nxt.__dict__["_prior"] = prior
        return nxt

    def __getstate__(self) -> dict:
        # pickle the atoms only: the vocabulary and its parse memo are
        # per-process caches rebuilt on first use
        return {
            "proper_atoms": self.proper_atoms,
            "order_atoms": self.order_atoms,
        }

    # -- inspection ---------------------------------------------------------

    def atoms(self) -> Iterator[ProperAtom | OrderAtom]:
        """All atoms, proper first (deterministic order)."""
        yield from sorted(self.proper_atoms)
        yield from sorted(self.order_atoms)

    @cached_property
    def vocabulary(self) -> Vocabulary:
        """The constant sets and ``(pred, position) -> sorts`` table.

        Computed on first access, never by the constructor, so databases
        built only to be mutated again (a log replay) never pay for it.
        A database made by :meth:`successor` returns its predecessor's
        object when the parts are equal.
        """
        fresh = Vocabulary(self.proper_atoms, self.order_atoms)
        prior = self.__dict__.pop("_prior", None)
        if prior is not None and prior.same_parts(fresh):
            return prior
        return fresh

    @property
    def order_constants(self) -> set[str]:
        """Names of all order constants appearing anywhere in the database."""
        out: set[str] = set()
        for atom in self.proper_atoms:
            out.update(t.name for t in atom.args if t.is_order)
        for atom in self.order_atoms:
            out.add(atom.left.name)
            out.add(atom.right.name)
        return out

    @property
    def object_constants(self) -> set[str]:
        """Names of all object constants appearing in proper atoms."""
        out: set[str] = set()
        for atom in self.proper_atoms:
            out.update(t.name for t in atom.args if t.is_object)
        return out

    @property
    def predicates(self) -> dict[str, int]:
        """Map predicate name to arity."""
        return {a.pred: a.arity for a in self.proper_atoms}

    @property
    def has_neq(self) -> bool:
        """True when some order atom uses '!=' (Section 7 extension)."""
        return any(a.rel is Rel.NE for a in self.order_atoms)

    def size(self) -> int:
        """Total number of atoms."""
        return len(self.proper_atoms) + len(self.order_atoms)

    def graph(self) -> OrderGraph:
        """The order graph over this database's order constants."""
        extra = set()
        for atom in self.proper_atoms:
            extra.update(t.name for t in atom.args if t.is_order)
        return OrderGraph.from_atoms(sorted(self.order_atoms), extra)

    def width(self) -> int:
        """The width of the (normalized) order graph (Section 2)."""
        return self.graph().normalize().graph.width()

    def is_consistent(self) -> bool:
        """True when the order atoms admit a compatible linear order."""
        return self.graph().is_consistent()

    # -- normalization --------------------------------------------------------

    def normalized(self) -> tuple["IndefiniteDatabase", dict[str, str]]:
        """Apply rules N1/N2, rewriting proper atoms through the identification.

        Returns the normalized database and the canonical-name mapping.
        Raises :class:`InconsistentError` when the database has no model.
        """
        norm = self.graph().normalize()
        if not norm.consistent:
            raise InconsistentError("database order atoms are inconsistent")
        term_map = {
            ordc(old): ordc(new) for old, new in norm.canon.items() if old != new
        }
        proper = frozenset(a.substitute(term_map) for a in self.proper_atoms)
        term_of = {v: ordc(v) for v in norm.graph.vertices}
        order = frozenset(norm.graph.to_atoms(term_of))
        return IndefiniteDatabase(proper, order), norm.canon

    # -- monadic view ------------------------------------------------------------

    def is_monadic(self) -> bool:
        """True when every proper atom is unary over an order constant."""
        return all(
            a.arity == 1 and a.args[0].is_order for a in self.proper_atoms
        )

    def monadic(self) -> "LabeledDag":
        """The labelled-dag view (requires :meth:`is_monadic`)."""
        if not self.is_monadic():
            raise NotMonadicError(
                "database has non-monadic or object-argument predicates"
            )
        graph = self.graph()
        labels: dict[str, set[str]] = {v: set() for v in graph.vertices}
        for atom in self.proper_atoms:
            labels[atom.args[0].name].add(atom.pred)
        return LabeledDag(graph, {v: frozenset(s) for v, s in labels.items()})

    # -- combination ----------------------------------------------------------------

    def union(self, other: "IndefiniteDatabase") -> "IndefiniteDatabase":
        """The union of the two atom sets (constants shared by name)."""
        return IndefiniteDatabase(
            self.proper_atoms | other.proper_atoms,
            self.order_atoms | other.order_atoms,
        )

    def __or__(self, other: "IndefiniteDatabase") -> "IndefiniteDatabase":
        return self.union(other)

    def renamed(self, suffix: str) -> "IndefiniteDatabase":
        """Rename every order constant by appending ``suffix``.

        Object constants are left alone (gadget constructions share them).
        Used to take disjoint unions of gadget components.
        """
        def rn(t: Term) -> Term:
            if t.is_order and t.is_const:
                return ordc(t.name + suffix)
            return t

        proper = frozenset(
            ProperAtom(a.pred, tuple(rn(t) for t in a.args))
            for a in self.proper_atoms
        )
        order = frozenset(
            OrderAtom(rn(a.left), a.rel, rn(a.right)) for a in self.order_atoms
        )
        return IndefiniteDatabase(proper, order)

    def __str__(self) -> str:
        return "; ".join(str(a) for a in self.atoms())


class LabeledDag:
    """A vertex-labelled order dag: the monadic database/query representation.

    Attributes:
        graph: the underlying :class:`OrderGraph`.
        labels: maps each vertex to its set ``D[u]`` of predicate names.
    """

    def __init__(
        self, graph: OrderGraph, labels: Mapping[str, frozenset[str]]
    ) -> None:
        self.graph = graph
        self.labels: dict[str, frozenset[str]] = {
            v: frozenset(labels.get(v, frozenset())) for v in graph.vertices
        }

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_flexiword(cls, word: FlexiWord, prefix: str = "w") -> "LabeledDag":
        """The width-one database corresponding to a flexi-word."""
        graph = OrderGraph()
        names = [f"{prefix}{i}" for i in range(len(word.letters))]
        for name in names:
            graph.add_vertex(name)
        for i, rel in enumerate(word.rels):
            graph.add_edge(names[i], names[i + 1], rel)
        labels = {name: word.letters[i] for i, name in enumerate(names)}
        return cls(graph, labels)

    @classmethod
    def from_chains(
        cls, chains: Iterable[FlexiWord], prefix: str = "c"
    ) -> "LabeledDag":
        """Disjoint union of width-one databases — a k-observer database."""
        graph = OrderGraph()
        labels: dict[str, frozenset[str]] = {}
        for ci, word in enumerate(chains):
            sub = cls.from_flexiword(word, prefix=f"{prefix}{ci}_")
            for v in sub.graph.vertices:
                graph.add_vertex(v)
                labels[v] = sub.labels[v]
            for u, v, rel in sub.graph.edges():
                graph.add_edge(u, v, rel)
        return cls(graph, labels)

    # -- inspection ---------------------------------------------------------

    @property
    def vertices(self) -> set[str]:
        """The vertex set."""
        return self.graph.vertices

    @property
    def predicates(self) -> frozenset[str]:
        """All predicate names used in labels."""
        out: set[str] = set()
        for s in self.labels.values():
            out |= s
        return frozenset(out)

    def label(self, v: str) -> frozenset[str]:
        """The label set ``D[v]``."""
        return self.labels[v]

    def is_empty(self) -> bool:
        """True when there are no vertices."""
        return not self.graph.vertices

    def size(self) -> int:
        """Vertices plus edges plus label entries (a |D| proxy)."""
        return (
            len(self.graph.vertices)
            + sum(1 for _ in self.graph.edges())
            + sum(len(s) for s in self.labels.values())
        )

    def width(self) -> int:
        """Width of the underlying graph."""
        return self.graph.width()

    # -- transformation ---------------------------------------------------------

    def normalized(self) -> "LabeledDag":
        """Contract '<='-cycles, unioning the labels of identified vertices.

        Raises :class:`InconsistentError` on a '<' cycle.
        """
        norm = self.graph.normalize()
        if not norm.consistent:
            raise InconsistentError("labelled dag has a '<' cycle")
        labels: dict[str, set[str]] = {v: set() for v in norm.graph.vertices}
        for old, new in norm.canon.items():
            labels[new] |= self.labels.get(old, frozenset())
        return LabeledDag(norm.graph, {v: frozenset(s) for v, s in labels.items()})

    def restrict(self, keep: Iterable[str]) -> "LabeledDag":
        """The induced sub-dag on ``keep``."""
        keep = set(keep)
        return LabeledDag(
            self.graph.induced(keep),
            {v: self.labels[v] for v in keep if v in self.labels},
        )

    def to_database(self) -> IndefiniteDatabase:
        """Back to an :class:`IndefiniteDatabase` (vertices become constants)."""
        term_of = {v: ordc(v) for v in self.graph.vertices}
        proper = frozenset(
            ProperAtom(p, (term_of[v],))
            for v, preds in self.labels.items()
            for p in preds
        )
        order = frozenset(self.graph.to_atoms(term_of))
        return IndefiniteDatabase(proper, order)

    # -- paths (Section 4) ---------------------------------------------------------

    def iter_paths(self) -> Iterator[FlexiWord]:
        """The paths of the dag: maximal sequential sub-dags, as flexi-words.

        A path runs from a source to a sink along edges; an isolated vertex
        is a one-letter path.  The number of paths can be exponential in the
        dag size (the paper notes this); this is a generator.
        """
        graph = self.graph
        sources = sorted(graph.minimal_vertices())

        def walk(v: str) -> Iterator[tuple[list[str], list[Rel]]]:
            succs = sorted(graph.successors(v))
            if not succs:
                yield [v], []
                return
            for w in succs:
                rel = graph.edge_label(v, w)
                for verts, rels in walk(w):
                    yield [v] + verts, [rel] + rels

        for s in sources:
            for verts, rels in walk(s):
                yield FlexiWord(
                    tuple(self.labels[v] for v in verts), tuple(rels)
                )

    def paths(self) -> list[FlexiWord]:
        """All paths as a list (see :meth:`iter_paths` for the caveat)."""
        return list(self.iter_paths())

    def to_flexiword(self) -> FlexiWord:
        """The flexi-word of a width-<=1 dag (raises otherwise).

        The dag is normalized first; width one means every two vertices
        are comparable, so the vertices form a chain.  The separator
        between consecutive vertices is '<' when a path through a '<'
        edge connects them (redundant transitive edges are tolerated) and
        '<=' otherwise.
        """
        dag = self.normalized()
        if not dag.graph.vertices:
            return FlexiWord.empty()
        if dag.graph.width() > 1:
            raise ValueError("dag has width > 1; it is not sequential")
        reach = dag.graph.reachability()
        chain = sorted(dag.graph.vertices, key=lambda v: -len(reach[v]))
        strict = dag.graph.strict_reachability()
        letters = tuple(dag.labels[v] for v in chain)
        rels = tuple(
            Rel.LT if b in strict[a] else Rel.LE
            for a, b in zip(chain, chain[1:])
        )
        return FlexiWord(letters, rels)

    def __str__(self) -> str:
        return str(self.to_database())


MonadicDatabase = LabeledDag
