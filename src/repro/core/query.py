"""Positive existential queries: conjunctive and disjunctive (DNF) forms.

Queries (Section 2) are positive existential sentences built from proper
atoms and order atoms with conjunction, disjunction and existential
quantification.  For complexity analysis the paper assumes disjunctive
normal form; :class:`DisjunctiveQuery` is a disjunction of
:class:`ConjunctiveQuery` instances.  All variables are implicitly
existentially quantified; closed-query entailment of open formulas is
handled by substitution (see ``certain_answers`` in
:mod:`repro.core.entailment`).

Implemented notions from the paper:

* normalization rules N1/N2 applied to a query's order variables;
* *fullness* (closure under derived order atoms) and the Q-semantics
  *tightening* transformation (Lemma 2.5);
* *tight* queries (every order variable occurs in a proper atom);
* *sequential* queries (order variables linearly ordered by the order
  atoms — width one);
* *paths*: the maximal sequential subqueries of a monadic conjunctive
  query (Lemma 4.1);
* the constant-elimination construction (new predicate ``P_u`` per
  constant) that justifies the constant-free assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from repro.core.atoms import (
    Atom,
    OrderAtom,
    ProperAtom,
    Rel,
    atom_constants,
    atom_variables,
)
from repro.core.database import IndefiniteDatabase, LabeledDag
from repro.core.errors import NotConjunctiveError, NotMonadicError, SortError
from repro.core.ordergraph import OrderGraph
from repro.core.sorts import Term, fresh_names, objvar, ordvar
from repro.flexiwords.flexiword import FlexiWord


def _memo_hash(query, fields: tuple) -> int:
    """``hash(fields)``, computed once per query object.

    A served query is hashed several times per read (plan cache, batch
    grouping), each time over its whole atom tree; queries are
    immutable, so the first result is kept on the instance.
    """
    h = query.__dict__.get("_hash")
    if h is None:
        h = query.__dict__["_hash"] = hash(fields)
    return h


def _state_without_hash(query) -> dict:
    # string hashes are salted per process: a memoized hash must not
    # travel to another process (a pickled query or request)
    state = dict(query.__dict__)
    state.pop("_hash", None)
    return state


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunction of atoms, all variables existentially quantified.

    ``extra_order_vars`` carries order variables that occur in *no* atom
    (e.g. the query "there exists a point"); they still quantify over a
    point of the model, which matters over the empty model and for
    nontight-query semantics.
    """

    atoms: tuple[Atom, ...]
    extra_order_vars: frozenset[Term] = frozenset()

    def __hash__(self) -> int:
        return _memo_hash(self, (self.atoms, self.extra_order_vars))

    __getstate__ = _state_without_hash

    @classmethod
    def of(cls, *atoms: Atom) -> "ConjunctiveQuery":
        """Build from a flat sequence of atoms (dedupe, deterministic order)."""
        return cls.from_atoms(atoms)

    @classmethod
    def from_atoms(
        cls, atoms: Iterable[Atom], extra_order_vars: Iterable[Term] = ()
    ) -> "ConjunctiveQuery":
        """Build from any iterable of atoms (dedupe, deterministic order).

        ``extra_order_vars`` not actually occurring in the atoms are kept;
        occurring ones are dropped so equality stays canonical.
        """
        atoms = list(atoms)
        proper = sorted({a for a in atoms if isinstance(a, ProperAtom)})
        order = sorted({a for a in atoms if isinstance(a, OrderAtom)})
        occurring = atom_variables(atoms)
        extras = frozenset(
            v for v in extra_order_vars if v.is_var and v not in occurring
        )
        return cls(tuple(proper) + tuple(order), extras)

    # -- pieces -------------------------------------------------------------

    @property
    def proper_atoms(self) -> tuple[ProperAtom, ...]:
        """The proper atoms."""
        return tuple(a for a in self.atoms if isinstance(a, ProperAtom))

    @property
    def order_atoms(self) -> tuple[OrderAtom, ...]:
        """The order atoms."""
        return tuple(a for a in self.atoms if isinstance(a, OrderAtom))

    def variables(self) -> set[Term]:
        """All variables (including atom-free extra order variables)."""
        return atom_variables(self.atoms) | set(self.extra_order_vars)

    def order_variables(self) -> set[Term]:
        """Variables of order sort."""
        return {v for v in self.variables() if v.is_order}

    def object_variables(self) -> set[Term]:
        """Variables of object sort."""
        return {v for v in self.variables() if v.is_object}

    def constants(self) -> set[Term]:
        """All constants (the paper assumes none; see elimination below)."""
        return atom_constants(self.atoms)

    @property
    def predicates(self) -> dict[str, int]:
        """Map predicate name to arity."""
        return {a.pred: a.arity for a in self.proper_atoms}

    @property
    def has_neq(self) -> bool:
        """True when some order atom uses '!=' (Section 7)."""
        return any(a.rel is Rel.NE for a in self.order_atoms)

    def size(self) -> int:
        """Number of atoms."""
        return len(self.atoms)

    def is_empty(self) -> bool:
        """The empty conjunction (trivially true, even in the empty model)."""
        return not self.atoms and not self.extra_order_vars

    # -- the order graph -----------------------------------------------------

    def order_graph(self) -> OrderGraph:
        """Order graph over the *order variables* (Section 2).

        Raises :class:`SortError` when order constants occur in order atoms
        — eliminate constants first (:func:`eliminate_constants`).
        """
        for a in self.order_atoms:
            if a.left.is_const or a.right.is_const:
                raise SortError(
                    "query order atoms must be constant-free; apply "
                    "eliminate_constants first"
                )
        extra = {
            t.name
            for a in self.proper_atoms
            for t in a.args
            if t.is_var and t.is_order
        }
        extra.update(v.name for v in self.extra_order_vars)
        return OrderGraph.from_atoms(self.order_atoms, extra)

    def width(self) -> int:
        """Width of the normalized order graph."""
        return self.order_graph().normalize().graph.width()

    def is_consistent(self) -> bool:
        """True when the order atoms admit a satisfying linear order."""
        return self.order_graph().is_consistent()

    # -- transformations ----------------------------------------------------------

    def substitute(self, mapping: Mapping[Term, Term]) -> "ConjunctiveQuery":
        """Apply a term substitution and re-canonicalize."""
        extras = {mapping.get(v, v) for v in self.extra_order_vars}
        return ConjunctiveQuery.from_atoms(
            (a.substitute(mapping) for a in self.atoms), extras
        )

    def normalized(self) -> "ConjunctiveQuery | None":
        """Rules N1/N2 on order variables; ``None`` when inconsistent.

        N1 identifies variables joined in a '<='-cycle (deleting the
        collapsed quantifiers); N2 drops ``t <= t``.
        """
        norm = self.order_graph().normalize()
        if not norm.consistent:
            return None
        mapping = {
            ordvar(old): ordvar(new)
            for old, new in norm.canon.items()
            if old != new
        }
        atoms: list[Atom] = [
            a.substitute(mapping) for a in self.proper_atoms
        ]
        term_of = {v: ordvar(v) for v in norm.graph.vertices}
        atoms.extend(norm.graph.to_atoms(term_of))
        extras = {ordvar(v) for v in norm.graph.vertices}
        return ConjunctiveQuery.from_atoms(atoms, extras)

    def full(self) -> "ConjunctiveQuery":
        """Close the order atoms under the two derivation rules (Section 2)."""
        graph = self.order_graph().full()
        term_of = {v: ordvar(v) for v in graph.vertices}
        atoms: list[Atom] = list(self.proper_atoms)
        atoms.extend(graph.to_atoms(term_of))
        return ConjunctiveQuery.from_atoms(atoms, self.extra_order_vars)

    def tightened(self) -> "ConjunctiveQuery":
        """The Lemma 2.5 transformation: full closure, then delete order
        variables that occur in no proper atom (with their atoms).

        For a full query Phi, ``D |=_Q Phi  iff  D |=_Fin tightened(Phi)``
        (Corollary 2.6).  This method performs the full closure itself.
        """
        full = self.full()
        keep = {
            t for a in full.proper_atoms for t in a.args if t.is_var and t.is_order
        }
        atoms: list[Atom] = list(full.proper_atoms)
        for a in full.order_atoms:
            if all(t in keep for t in (a.left, a.right)):
                atoms.append(a)
        return ConjunctiveQuery.from_atoms(atoms)

    # -- classification ---------------------------------------------------------

    def is_tight(self) -> bool:
        """Every order variable occurs in some proper atom (Section 2)."""
        in_proper = {
            t for a in self.proper_atoms for t in a.args if t.is_var
        }
        return all(v in in_proper for v in self.order_variables())

    def is_sequential(self) -> bool:
        """Order variables linearly ordered by the order atoms (Section 4).

        Decided on the normalized order graph: sequential iff its width is
        at most one (every two order variables comparable).  An
        inconsistent query is not sequential.
        """
        if self.has_neq:
            return False
        normalized = self.normalized()
        if normalized is None:
            return False
        return normalized.order_graph().width() <= 1

    def is_monadic(self) -> bool:
        """All proper atoms unary over order-sorted arguments."""
        return all(
            a.arity == 1 and a.args[0].is_order for a in self.proper_atoms
        )

    # -- monadic dag view ------------------------------------------------------------

    def monadic_dag(self) -> LabeledDag:
        """The labelled dag over order variables (requires monadic, no '!=')."""
        if not self.is_monadic():
            raise NotMonadicError("query is not monadic")
        if self.has_neq:
            raise NotMonadicError(
                "labelled-dag view does not support '!=' atoms; expand first"
            )
        graph = self.order_graph()
        labels: dict[str, set[str]] = {v: set() for v in graph.vertices}
        for a in self.proper_atoms:
            labels[a.args[0].name].add(a.pred)
        return LabeledDag(graph, {v: frozenset(s) for v, s in labels.items()})

    def paths(self) -> list[FlexiWord]:
        """Paths of a monadic conjunctive query: maximal sequential subqueries."""
        return self.monadic_dag().paths()

    def to_flexiword(self) -> FlexiWord:
        """The flexi-word of a sequential monadic query."""
        return self.monadic_dag().to_flexiword()

    @classmethod
    def from_flexiword(cls, word: FlexiWord, prefix: str = "t") -> "ConjunctiveQuery":
        """The sequential query corresponding to a flexi-word."""
        names = [f"{prefix}{i}" for i in range(len(word.letters))]
        atoms: list[Atom] = []
        for i, a in enumerate(word.letters):
            for p in sorted(a):
                atoms.append(ProperAtom(p, (ordvar(names[i]),)))
        for i, rel in enumerate(word.rels):
            atoms.append(OrderAtom(ordvar(names[i]), rel, ordvar(names[i + 1])))
        return cls.from_atoms(atoms, {ordvar(n) for n in names})

    def __str__(self) -> str:
        if not self.atoms and not self.extra_order_vars:
            return "TRUE"
        body = " & ".join(str(a) for a in self.atoms) if self.atoms else "TRUE"
        variables = sorted(v.name for v in self.variables())
        if variables:
            return f"exists {' '.join(variables)}. {body}"
        return body


@dataclass(frozen=True)
class DisjunctiveQuery:
    """A disjunction of conjunctive queries (disjunctive normal form)."""

    disjuncts: tuple[ConjunctiveQuery, ...]

    def __hash__(self) -> int:
        return _memo_hash(self, self.disjuncts)

    __getstate__ = _state_without_hash

    @classmethod
    def of(cls, *disjuncts: ConjunctiveQuery) -> "DisjunctiveQuery":
        """Build from conjunctive disjuncts."""
        return cls(tuple(disjuncts))

    def normalized(self) -> "DisjunctiveQuery":
        """Normalize each disjunct, dropping inconsistent ones."""
        kept = []
        for d in self.disjuncts:
            n = d.normalized()
            if n is not None:
                kept.append(n)
        return DisjunctiveQuery(tuple(kept))

    def or_(self, other: "Query") -> "DisjunctiveQuery":
        """Disjunction with another query.

        This implements the paper's integrity-constraint technique
        (Example 1.1): to enforce ``not Psi`` as a constraint, query
        ``Psi v Phi`` instead of ``Phi``.
        """
        return DisjunctiveQuery(self.disjuncts + as_dnf(other).disjuncts)

    def is_monadic(self) -> bool:
        """All disjuncts monadic."""
        return all(d.is_monadic() for d in self.disjuncts)

    @property
    def has_neq(self) -> bool:
        """Some disjunct contains '!='."""
        return any(d.has_neq for d in self.disjuncts)

    def constants(self) -> set[Term]:
        """Constants across all disjuncts."""
        out: set[Term] = set()
        for d in self.disjuncts:
            out |= d.constants()
        return out

    @property
    def predicates(self) -> dict[str, int]:
        """Predicate name to arity across all disjuncts."""
        out: dict[str, int] = {}
        for d in self.disjuncts:
            out.update(d.predicates)
        return out

    def size(self) -> int:
        """Total number of atoms."""
        return sum(d.size() for d in self.disjuncts)

    def substitute(self, mapping: Mapping[Term, Term]) -> "DisjunctiveQuery":
        """Apply a substitution to every disjunct."""
        return DisjunctiveQuery(tuple(d.substitute(mapping) for d in self.disjuncts))

    def __str__(self) -> str:
        if not self.disjuncts:
            return "FALSE"
        return " | ".join(f"({d})" for d in self.disjuncts)


Query = Union[ConjunctiveQuery, DisjunctiveQuery]


def as_dnf(query: Query) -> DisjunctiveQuery:
    """Coerce a query to disjunctive normal form."""
    if isinstance(query, ConjunctiveQuery):
        return DisjunctiveQuery((query,))
    return query


def as_conjunctive(query: Query) -> ConjunctiveQuery:
    """Coerce to conjunctive; raise when genuinely disjunctive."""
    if isinstance(query, ConjunctiveQuery):
        return query
    if len(query.disjuncts) == 1:
        return query.disjuncts[0]
    raise NotConjunctiveError("query has more than one disjunct")


def eliminate_constants(
    db: IndefiniteDatabase, query: Query
) -> tuple[IndefiniteDatabase, DisjunctiveQuery]:
    """The paper's constant-elimination construction (Section 2).

    For each constant ``u`` occurring in the query, introduce a fresh
    monadic predicate ``P_u``, add the fact ``P_u(u)`` to the database, and
    replace ``u`` in the query by a fresh variable ``t`` constrained by
    ``P_u(t)``.  The resulting query is constant-free and is entailed by
    the new database iff the original was entailed by the original.
    """
    dnf = as_dnf(query)
    consts = sorted(dnf.constants())
    if not consts:
        return db, dnf

    taken = set(db.predicates) | set(dnf.predicates)
    pred_of: dict[Term, str] = {}
    for c in consts:
        name = f"Const_{c.name}"
        while name in taken:
            name += "_"
        taken.add(name)
        pred_of[c] = name

    new_facts = [ProperAtom(pred_of[c], (c,)) for c in consts]
    new_db = db.union(IndefiniteDatabase.from_atoms(new_facts))

    new_disjuncts = []
    for d in dnf.disjuncts:
        var_names: set[str] = {v.name for v in d.variables()}
        mapping: dict[Term, Term] = {}
        guard_atoms: list[Atom] = []
        for c in sorted(d.constants()):
            fresh = fresh_names(f"v_{c.name}_", 1, var_names)[0]
            var = ordvar(fresh) if c.is_order else objvar(fresh)
            mapping[c] = var
            guard_atoms.append(ProperAtom(pred_of[c], (var,)))
        replaced = d.substitute(mapping)
        new_disjuncts.append(
            ConjunctiveQuery.from_atoms(list(replaced.atoms) + guard_atoms)
        )
    return new_db, DisjunctiveQuery(tuple(new_disjuncts))
