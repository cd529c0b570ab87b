"""A small text DSL for databases and queries.

Database text is a sequence of atoms separated by ``;`` or newlines, with
optional sort declarations (``#`` starts a comment)::

    order: u1 u2 u3 u4
    object: A B
    IC(u1, u2, A); IC(u3, u4, B)
    u1 < u2; u2 < u3; u3 < u4

Query text is a disjunction (``|``) of conjunctions (``&``) of atoms; all
identifiers not declared as constants of the enclosing database are
variables::

    P(t1) & t1 < t2 & Q(t2) | R(s)

Sort inference: a name on either side of ``<``, ``<=`` or ``!=`` is order-
sorted; anything else defaults to object sort unless declared.  Inference
runs over the whole text first, so ``P(t) & t < s`` types ``t`` correctly
inside ``P(t)`` too.  A query variable is also order-sorted when it
fills a predicate position that *every* fact of the database fills with
an order constant (the database's :class:`~repro.core.database.Vocabulary`
``arg_sorts`` table); a position the facts fill with both sorts infers
nothing.  The result is a function of the database's atom *sets*, never
of their iteration order, so it does not depend on the hash seed.

Parsing a query against a database is memoized: :func:`parse_query`
keeps up to :data:`PARSE_MEMO_LIMIT` texts per vocabulary (first in,
first out) and returns the same immutable query object for a repeated
text.  A write that changes the vocabulary gives the database a new
vocabulary object and so an empty memo.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.core.atoms import Atom, OrderAtom, ProperAtom, Rel
from repro.core.database import IndefiniteDatabase, Vocabulary
from repro.core.errors import ParseError
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery
from repro.core.sorts import Sort, Term

_NAME = r"[A-Za-z_][A-Za-z0-9_.']*"
_ATOM_RE = re.compile(rf"^({_NAME})\s*\(([^()]*)\)$")
_ORDER_RE = re.compile(rf"^({_NAME})\s*(<=|<|!=)\s*({_NAME})$")
_DECL_RE = re.compile(r"^(order|object)\s*:\s*(.*)$")

_REL_OF = {"<": Rel.LT, "<=": Rel.LE, "!=": Rel.NE}

#: Query texts memoized per database vocabulary.
PARSE_MEMO_LIMIT = 1024

_ORDER_ONLY = frozenset({Sort.ORDER})


def _statements(text: str) -> Iterable[str]:
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for part in line.split(";"):
            part = part.strip()
            if part:
                yield part


def _infer_order_names(statements: list[str]) -> set[str]:
    order: set[str] = set()
    for stmt in statements:
        m = _ORDER_RE.match(stmt)
        if m:
            order.add(m.group(1))
            order.add(m.group(3))
    return order


def scan_order_names(text: str) -> set[str]:
    """Names appearing in an order atom anywhere in database text.

    Lets callers who assemble a database from several fragments (an
    initial file plus a stream of ``assert:`` lines, say) run sort
    inference over *all* of them before parsing any one: a constant that
    only a later fragment orders must already be order-sorted in the
    fragments that merely label it.  Pass the union to
    :func:`parse_database` as ``extra_order``.
    """
    return _infer_order_names(
        [s for s in _statements(text) if not _DECL_RE.match(s)]
    )


def parse_database(
    text: str, extra_order: Iterable[str] = ()
) -> IndefiniteDatabase:
    """Parse database text into an :class:`IndefiniteDatabase`.

    ``extra_order`` adds names to sort inference as if an order atom in
    ``text`` mentioned them (explicit ``order:``/``object:`` declarations
    still win); see :func:`scan_order_names`.
    """
    statements = list(_statements(text))
    declared: dict[str, Sort] = {}
    body: list[str] = []
    for stmt in statements:
        decl = _DECL_RE.match(stmt)
        if decl:
            sort = Sort.ORDER if decl.group(1) == "order" else Sort.OBJECT
            for name in decl.group(2).split():
                declared[name] = sort
        else:
            body.append(stmt)
    inferred_order = _infer_order_names(body) | set(extra_order)

    def term(name: str) -> Term:
        name = name.strip()
        if not re.fullmatch(_NAME, name):
            raise ParseError(f"invalid constant name {name!r}")
        sort = declared.get(
            name, Sort.ORDER if name in inferred_order else Sort.OBJECT
        )
        return Term(name, sort, is_var=False)

    atoms: list[Atom] = []
    for stmt in body:
        atoms.append(_parse_atom(stmt, term))
    return IndefiniteDatabase.from_atoms(atoms)


def parse_query(text: str, database: IndefiniteDatabase | None = None) -> DisjunctiveQuery:
    """Parse query text into a :class:`DisjunctiveQuery`.

    Names matching constants of ``database`` (when given) are parsed as
    constants of the corresponding sort; everything else is a variable.
    With a database, the result is memoized on its vocabulary (see the
    module docstring); texts that fail to parse are not memoized.
    """
    if database is None:
        return _parse_query(text, None)
    vocab = database.vocabulary
    memo = vocab.parses
    query = memo.get(text)
    if query is None:
        query = _parse_query(text, vocab)
        if len(memo) >= PARSE_MEMO_LIMIT:
            del memo[next(iter(memo))]
        memo[text] = query
    return query


def _parse_query(text: str, vocab: Vocabulary | None) -> DisjunctiveQuery:
    db_objects = vocab.object_constants if vocab else frozenset()
    db_orders = vocab.order_constants if vocab else frozenset()
    arg_sorts = vocab.arg_sorts if vocab else {}

    disjunct_texts = [d.strip() for d in text.split("|")]
    if not any(disjunct_texts):
        raise ParseError("empty query text")

    disjuncts: list[ConjunctiveQuery] = []
    for dtext in disjunct_texts:
        stmts = [s.strip() for s in dtext.split("&") if s.strip()]
        if not stmts:
            raise ParseError(f"empty disjunct in query: {text!r}")
        # Two inference sources for variable sorts: order-atom occurrence,
        # and a predicate position the database's facts fill only with
        # order constants.
        inferred_order = _infer_order_names(stmts)
        for stmt in stmts:
            m = _ATOM_RE.match(stmt)
            if not m:
                continue
            pred = m.group(1)
            args = [a.strip() for a in m.group(2).split(",") if a.strip()]
            for i, name in enumerate(args):
                if arg_sorts.get((pred, i)) == _ORDER_ONLY:
                    inferred_order.add(name)

        def term(name: str) -> Term:
            if name in db_orders:
                return Term(name, Sort.ORDER, is_var=False)
            if name in db_objects:
                return Term(name, Sort.OBJECT, is_var=False)
            sort = Sort.ORDER if name in inferred_order else Sort.OBJECT
            return Term(name, sort, is_var=True)

        atoms = [_parse_atom(s, term) for s in stmts]
        disjuncts.append(ConjunctiveQuery.from_atoms(atoms))
    return DisjunctiveQuery(tuple(disjuncts))


def _parse_atom(stmt: str, term) -> Atom:
    order_match = _ORDER_RE.match(stmt)
    if order_match:
        left, rel, right = order_match.groups()
        lterm, rterm = term(left), term(right)
        if not (lterm.is_order and rterm.is_order):
            raise ParseError(
                f"order atom between non-order terms: {stmt!r} "
                "(declare the names with 'order:' or check the database)"
            )
        return OrderAtom(lterm, _REL_OF[rel], rterm)
    atom_match = _ATOM_RE.match(stmt)
    if atom_match:
        pred, arg_text = atom_match.groups()
        arg_names = [a.strip() for a in arg_text.split(",") if a.strip()]
        if not arg_names:
            raise ParseError(f"predicate with no arguments: {stmt!r}")
        return ProperAtom(pred, tuple(term(a) for a in arg_names))
    raise ParseError(f"cannot parse atom {stmt!r}")
