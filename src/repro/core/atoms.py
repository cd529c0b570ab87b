"""Atomic formulae: proper atoms and order atoms.

Following Section 2 of the paper, atomic formulae come in two kinds:

1. *proper atoms* ``P(a1, ..., an)`` where ``P`` is a predicate and each
   ``ai`` is a constant or variable of the appropriate sort;
2. *order atoms* ``u < v``, ``u <= v`` (and, in the Section 7 extension,
   ``u != v``) where ``u`` and ``v`` are order constants or variables.

Both kinds are immutable and hashable so they can live in sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.errors import SortError
from repro.core.sorts import Term


class Rel(enum.Enum):
    """The order relations usable in order atoms.

    ``LT`` and ``LE`` are the paper's core relations '<' and '<='; ``NE`` is
    the inequality '!=' of the Section 7 extension.
    """

    LT = "<"
    LE = "<="
    NE = "!="

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other: "Rel") -> bool:
        # Total order so atoms (dataclass order=True) sort deterministically.
        if not isinstance(other, Rel):
            return NotImplemented
        return self.value < other.value


@dataclass(frozen=True, order=True)
class ProperAtom:
    """A proper atom ``P(t1, ..., tn)``.

    Args may mix sorts (e.g. ``IC(u, v, A)`` has two order arguments and one
    object argument).  A predicate is *monadic* when it has exactly one
    argument; the monadic fast path of the paper additionally requires that
    argument to be of order sort (Section 4 shows object-sort monadic atoms
    factor out of the query).
    """

    pred: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.pred:
            raise ValueError("predicate name must be nonempty")

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        """True when every argument is a constant."""
        return all(t.is_const for t in self.args)

    def variables(self) -> Iterator[Term]:
        """Yield the variable arguments (with repetition)."""
        return (t for t in self.args if t.is_var)

    def constants(self) -> Iterator[Term]:
        """Yield the constant arguments (with repetition)."""
        return (t for t in self.args if t.is_const)

    def substitute(self, mapping: Mapping[Term, Term]) -> "ProperAtom":
        """Replace terms by ``mapping`` (identity on unmapped terms)."""
        return ProperAtom(self.pred, tuple(mapping.get(t, t) for t in self.args))

    def __str__(self) -> str:
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, order=True)
class OrderAtom:
    """An order atom ``left REL right`` between order-sorted terms."""

    left: Term
    rel: Rel
    right: Term

    def __post_init__(self) -> None:
        if not (self.left.is_order and self.right.is_order):
            raise SortError(
                f"order atom requires order-sorted terms, got "
                f"{self.left!r} {self.rel} {self.right!r}"
            )

    @property
    def is_ground(self) -> bool:
        """True when both sides are constants."""
        return self.left.is_const and self.right.is_const

    def variables(self) -> Iterator[Term]:
        """Yield the variable sides (with repetition)."""
        return (t for t in (self.left, self.right) if t.is_var)

    def substitute(self, mapping: Mapping[Term, Term]) -> "OrderAtom":
        """Replace terms by ``mapping`` (identity on unmapped terms)."""
        return OrderAtom(
            mapping.get(self.left, self.left),
            self.rel,
            mapping.get(self.right, self.right),
        )

    def __str__(self) -> str:
        return f"{self.left} {self.rel} {self.right}"


Atom = ProperAtom | OrderAtom


def lt(left: Term, right: Term) -> OrderAtom:
    """The atom ``left < right``."""
    return OrderAtom(left, Rel.LT, right)


def le(left: Term, right: Term) -> OrderAtom:
    """The atom ``left <= right``."""
    return OrderAtom(left, Rel.LE, right)


def ne(left: Term, right: Term) -> OrderAtom:
    """The atom ``left != right`` (Section 7 extension)."""
    return OrderAtom(left, Rel.NE, right)


def chain(terms: Iterable[Term], rel: Rel = Rel.LT) -> list[OrderAtom]:
    """Order atoms linking consecutive ``terms`` by ``rel``.

    ``chain([u, v, w])`` is ``[u < v, v < w]`` — convenient for observer
    logs and sequential queries.
    """
    terms = list(terms)
    return [OrderAtom(a, rel, b) for a, b in zip(terms, terms[1:])]


def atom_variables(atoms: Iterable[Atom]) -> set[Term]:
    """The set of variables occurring in ``atoms``."""
    out: set[Term] = set()
    for atom in atoms:
        out.update(atom.variables())
    return out


def atom_constants(atoms: Iterable[Atom]) -> set[Term]:
    """The set of constants occurring in ``atoms``."""
    out: set[Term] = set()
    for atom in atoms:
        if isinstance(atom, ProperAtom):
            out.update(atom.constants())
        else:
            out.update(t for t in (atom.left, atom.right) if t.is_const)
    return out
