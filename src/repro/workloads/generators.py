"""Synthetic workload generators for tests and benchmarks.

The paper has no empirical section, so workloads are synthesized to
instantiate exactly the constructions it discusses:

* random monadic databases / queries over small predicate sets (the
  brute-force cross-validation harness);
* *k-observer* databases — disjoint unions of k linear chains, the
  paper's motivating example of width-k data (Section 2);
* gene-alignment instances (Example 1.2);
* random propositional workloads (monotone 3SAT, DNF, Pi2-QBF, graphs)
  feeding the lower-bound reductions of Sections 3, 4 and 7.

All generators take a ``random.Random`` so every test and benchmark is
reproducible from a seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.atoms import OrderAtom, ProperAtom, Rel
from repro.core.database import IndefiniteDatabase, LabeledDag
from repro.core.ordergraph import OrderGraph
from repro.core.query import ConjunctiveQuery, DisjunctiveQuery
from repro.core.sorts import obj, objvar, ordc, ordvar
from repro.flexiwords.flexiword import FlexiWord

DEFAULT_PREDS = ("P", "Q", "R")


def random_letter(
    rng: random.Random, preds: Sequence[str], empty_ok: bool = True
) -> frozenset[str]:
    """A random subset of ``preds`` (possibly empty unless ``empty_ok`` is False)."""
    while True:
        picked = frozenset(p for p in preds if rng.random() < 0.5)
        if picked or empty_ok:
            return picked


def random_flexiword(
    rng: random.Random,
    length: int,
    preds: Sequence[str] = DEFAULT_PREDS,
    le_prob: float = 0.3,
    empty_ok: bool = True,
) -> FlexiWord:
    """A random flexi-word of ``length`` letters."""
    letters = tuple(random_letter(rng, preds, empty_ok) for _ in range(length))
    rels = tuple(
        Rel.LE if rng.random() < le_prob else Rel.LT
        for _ in range(max(0, length - 1))
    )
    return FlexiWord(letters, rels)


def random_labeled_dag(
    rng: random.Random,
    n_vertices: int,
    preds: Sequence[str] = DEFAULT_PREDS,
    edge_prob: float = 0.3,
    le_prob: float = 0.3,
    empty_ok: bool = True,
    prefix: str = "u",
) -> LabeledDag:
    """A random labelled dag (edges only forward in a random vertex order)."""
    names = [f"{prefix}{i}" for i in range(n_vertices)]
    graph = OrderGraph()
    for name in names:
        graph.add_vertex(name)
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < edge_prob:
                rel = Rel.LE if rng.random() < le_prob else Rel.LT
                graph.add_edge(names[i], names[j], rel)
    labels = {name: random_letter(rng, preds, empty_ok) for name in names}
    return LabeledDag(graph, labels)


def random_monadic_database(
    rng: random.Random,
    n_vertices: int,
    preds: Sequence[str] = DEFAULT_PREDS,
    edge_prob: float = 0.3,
    le_prob: float = 0.3,
) -> IndefiniteDatabase:
    """A random monadic :class:`IndefiniteDatabase`."""
    return random_labeled_dag(
        rng, n_vertices, preds, edge_prob, le_prob, empty_ok=True
    ).to_database()


def random_observer_dag(
    rng: random.Random,
    observers: int,
    chain_length: int,
    preds: Sequence[str] = DEFAULT_PREDS,
    le_prob: float = 0.2,
) -> LabeledDag:
    """A width-``observers`` database: one linear report per observer."""
    chains = [
        random_flexiword(rng, chain_length, preds, le_prob, empty_ok=False)
        for _ in range(observers)
    ]
    return LabeledDag.from_chains(chains)


def random_conjunctive_monadic_query(
    rng: random.Random,
    n_vars: int,
    preds: Sequence[str] = DEFAULT_PREDS,
    edge_prob: float = 0.4,
    le_prob: float = 0.3,
    empty_ok: bool = True,
) -> ConjunctiveQuery:
    """A random conjunctive monadic query as a random labelled dag."""
    dag = random_labeled_dag(
        rng, n_vars, preds, edge_prob, le_prob, empty_ok, prefix="t"
    )
    atoms: list = []
    for v, label in dag.labels.items():
        for p in sorted(label):
            atoms.append(ProperAtom(p, (ordvar(v),)))
    term_of = {v: ordvar(v) for v in dag.graph.vertices}
    atoms.extend(dag.graph.to_atoms(term_of))
    return ConjunctiveQuery.from_atoms(
        atoms, {ordvar(v) for v in dag.graph.vertices}
    )


def random_sequential_query(
    rng: random.Random,
    n_vars: int,
    preds: Sequence[str] = DEFAULT_PREDS,
    le_prob: float = 0.3,
    empty_ok: bool = True,
) -> ConjunctiveQuery:
    """A random sequential monadic query."""
    word = random_flexiword(rng, n_vars, preds, le_prob, empty_ok)
    return ConjunctiveQuery.from_flexiword(word)


def random_disjunctive_monadic_query(
    rng: random.Random,
    n_disjuncts: int,
    n_vars: int,
    preds: Sequence[str] = DEFAULT_PREDS,
    edge_prob: float = 0.4,
    le_prob: float = 0.3,
) -> DisjunctiveQuery:
    """A random disjunctive monadic query."""
    return DisjunctiveQuery(
        tuple(
            random_conjunctive_monadic_query(
                rng, n_vars, preds, edge_prob, le_prob
            )
            for _ in range(n_disjuncts)
        )
    )


def random_certain_answers_workload(
    rng: random.Random,
    width: int,
    chain_length: int,
    n_objects: int,
    n_disjuncts: int = 2,
    n_free: int = 1,
    n_qvars: int = 3,
    preds: Sequence[str] = DEFAULT_PREDS,
    obj_preds: Sequence[str] = ("Tag", "Big", "Red"),
    edge_prob: float = 0.4,
    le_prob: float = 0.3,
) -> tuple[IndefiniteDatabase, DisjunctiveQuery, tuple]:
    """A repeated-query certain-answers workload for the session API.

    The database mixes a width-``width`` observer order part (so the
    order-sorted decision is genuinely expensive) with unary object
    facts over ``n_objects`` object constants; the open query's
    disjuncts each guard a random monadic order part with object atoms
    over the free variables.  All proper atoms are unary, so the
    Section 4 object/order split applies and a prepared plan shares one
    order-part decision across every candidate tuple that leaves the
    same disjuncts standing.  Returns ``(db, query, free_vars)``.
    """
    dag = random_observer_dag(rng, width, chain_length, preds, le_prob)
    atoms: list = list(dag.to_database().atoms())
    object_names = [f"o{i}" for i in range(n_objects)]
    for name in object_names:
        for pred in obj_preds:
            if rng.random() < 0.5:
                atoms.append(ProperAtom(pred, (obj(name),)))
    db = IndefiniteDatabase.from_atoms(atoms)

    free = tuple(objvar(f"x{i}") for i in range(n_free))
    disjuncts = []
    for _ in range(n_disjuncts):
        order_part = random_conjunctive_monadic_query(
            rng, n_qvars, preds, edge_prob, le_prob, empty_ok=False
        )
        q_atoms: list = list(order_part.atoms)
        for v in free:
            for pred in obj_preds:
                if rng.random() < 0.4:
                    q_atoms.append(ProperAtom(pred, (v,)))
        disjuncts.append((q_atoms, order_part.extra_order_vars))
    # a free variable must occur in the query: guard any the draws left
    # out with the first object predicate in the first disjunct
    used = {
        t
        for q_atoms, _ in disjuncts
        for a in q_atoms
        if isinstance(a, ProperAtom)
        for t in a.args
    }
    for v in free:
        if v not in used and disjuncts:
            disjuncts[0][0].append(ProperAtom(obj_preds[0], (v,)))
    return db, DisjunctiveQuery(tuple(
        ConjunctiveQuery.from_atoms(q_atoms, extra)
        for q_atoms, extra in disjuncts
    )), free


def random_request_stream(
    rng: random.Random,
    width: int = 3,
    chain_length: int = 3,
    n_objects: int = 4,
    n_queries: int = 5,
    n_ops: int = 30,
    write_prob: float = 0.3,
    order_write_prob: float = 0.25,
    n_free: int = 1,
    preds: Sequence[str] = DEFAULT_PREDS,
    obj_preds: Sequence[str] = ("Tag", "Big", "Red"),
):
    """A mixed read/write request stream for the execution engine.

    Builds a certain-answers database (observer order part + unary
    object facts), a pool of ``n_queries`` prepared-plan-sized queries —
    a mix of closed disjunctive queries and open certain-answers
    queries — and a stream of ``n_ops`` operations drawn with
    repetition: reads are :class:`~repro.engine.batch.QueryRequest`\\ s
    over the query pool (so plan groups repeat, the case batching
    exploits), writes are :class:`~repro.engine.batch.Mutation`\\ s
    toggling object facts, facts on order constants, or order atoms.
    Returns ``(db, ops)``; the stream replayed by
    :func:`repro.engine.batch.execute_stream` is differentially testable
    against a sequential per-request loop.
    """
    from repro.engine.batch import Mutation, QueryRequest

    db, open_query, free = random_certain_answers_workload(
        rng,
        width=width,
        chain_length=chain_length,
        n_objects=n_objects,
        n_disjuncts=2,
        n_free=n_free,
        preds=preds,
        obj_preds=obj_preds,
    )
    requests: list = [QueryRequest(open_query, free_vars=free)]
    for _ in range(max(0, n_queries - 1)):
        if rng.random() < 0.4:
            db2, q2, f2 = random_certain_answers_workload(
                rng,
                width=2,
                chain_length=2,
                n_objects=2,
                n_disjuncts=2,
                n_free=n_free,
                preds=preds,
                obj_preds=obj_preds,
            )
            del db2
            requests.append(QueryRequest(q2, free_vars=f2))
        else:
            requests.append(
                QueryRequest(
                    random_disjunctive_monadic_query(rng, 2, 3, preds)
                )
            )

    order_names = sorted(db.order_constants)
    object_names = sorted(db.object_constants) + [
        f"fresh{i}" for i in range(3)
    ]
    toggle_pool: list = [
        ProperAtom(rng.choice(list(obj_preds)), (obj(name),))
        for name in object_names
    ]
    ops: list = []
    for _ in range(n_ops):
        if rng.random() >= write_prob:
            ops.append(rng.choice(requests))
            continue
        if order_names and rng.random() < order_write_prob:
            u, v = rng.choice(order_names), rng.choice(order_names)
            atom = OrderAtom(
                ordc(u), Rel.LE if rng.random() < 0.4 else Rel.LT, ordc(v)
            )
            kind = (
                "assert_order" if rng.random() < 0.6 else "retract_order"
            )
            # cross-chain cycles (vacuous phases) are fair game, but a
            # reflexive '<' can never be retracted back to consistency
            # by the other ops, so soften that one case to '<='
            if kind == "assert_order" and u == v:
                atom = OrderAtom(ordc(u), Rel.LE, ordc(v))
            ops.append(Mutation(kind, (atom,)))
        elif order_names and rng.random() < 0.3:
            fact = ProperAtom(
                rng.choice(list(preds)), (ordc(rng.choice(order_names)),)
            )
            kind = "assert_facts" if rng.random() < 0.6 else "retract_facts"
            ops.append(Mutation(kind, (fact,)))
        else:
            fact = rng.choice(toggle_pool)
            kind = "assert_facts" if rng.random() < 0.6 else "retract_facts"
            ops.append(Mutation(kind, (fact,)))
    return db, ops


def mutation_class_stream(rng: random.Random, n_rounds: int = 1):
    """A writes-only stream covering every mutation class, per round.

    Each round touches, in order: an object-fact assert and retract
    (object generation), a fact on an order constant (label
    generation), an order-atom assert and retract (graph generation), a
    *fresh* object constant, a *fresh* order constant (graph via new
    vertex), and a zero-arity fact.  Deterministic given ``rng``'s
    seed, so two processes replaying the same prefix arrive at the same
    session byte-for-byte — which is what the crash-recovery
    differential tests kill a process at every prefix of.  Returns
    ``(db, ops)`` with ``db`` the seed database the stream assumes.
    """
    from repro.engine.batch import Mutation

    db = IndefiniteDatabase.from_atoms(
        [
            ProperAtom("P", (ordc("u0"),)),
            OrderAtom(ordc("u0"), Rel.LT, ordc("u1")),
            ProperAtom("Tag", (obj("a0"),)),
        ]
    )
    ops: list = []
    for r in range(n_rounds):
        pred = rng.choice(["Tag", "Big", "Red"])
        name = f"a{rng.randrange(2)}"
        ops.append(Mutation("assert_facts", (ProperAtom(pred, (obj(name),)),)))
        ops.append(Mutation("retract_facts", (ProperAtom(pred, (obj(name),)),)))
        label = rng.choice(["P", "Q"])
        ops.append(
            Mutation("assert_facts", (ProperAtom(label, (ordc("u1"),)),))
        )
        rel = Rel.LE if rng.random() < 0.5 else Rel.LT
        ops.append(
            Mutation("assert_order", (OrderAtom(ordc("u0"), rel, ordc("u1")),))
        )
        ops.append(
            Mutation(
                "retract_order", (OrderAtom(ordc("u0"), rel, ordc("u1")),)
            )
        )
        ops.append(
            Mutation(
                "assert_facts", (ProperAtom("Tag", (obj(f"fresh{r}"),)),)
            )
        )
        ops.append(
            Mutation(
                "assert_facts", (ProperAtom("P", (ordc(f"w{r}"),)),)
            )
        )
        ops.append(Mutation("assert_facts", (ProperAtom("Zero", ()),)))
    return db, ops


def random_nary_database(
    rng: random.Random,
    n_order: int,
    n_objects: int,
    n_facts: int,
    preds: Sequence[tuple[str, int]] = (("B", 2),),
    edge_prob: float = 0.3,
    le_prob: float = 0.3,
    neq_prob: float = 0.0,
) -> IndefiniteDatabase:
    """A random database with binary-and-up predicates mixing both sorts.

    Each predicate signature alternates (order, object, order, ...)
    starting with an order argument.  ``neq_prob`` sprinkles Section 7
    '!=' atoms over the order-constant pairs.
    """
    order_names = [f"u{i}" for i in range(n_order)]
    object_names = [f"a{i}" for i in range(n_objects)]
    atoms: list = []
    for _ in range(n_facts):
        pred, arity = preds[rng.randrange(len(preds))]
        args = []
        for pos in range(arity):
            if pos % 2 == 0:
                args.append(ordc(rng.choice(order_names)))
            else:
                args.append(obj(rng.choice(object_names)))
        atoms.append(ProperAtom(pred, tuple(args)))
    for i in range(n_order):
        for j in range(i + 1, n_order):
            if rng.random() < edge_prob:
                rel = Rel.LE if rng.random() < le_prob else Rel.LT
                atoms.append(OrderAtom(ordc(order_names[i]), rel, ordc(order_names[j])))
            if neq_prob and rng.random() < neq_prob:
                atoms.append(
                    OrderAtom(ordc(order_names[i]), Rel.NE, ordc(order_names[j]))
                )
    return IndefiniteDatabase.from_atoms(atoms)


def random_nary_query(
    rng: random.Random,
    n_atoms: int,
    n_order_vars: int,
    n_object_vars: int,
    preds: Sequence[tuple[str, int]] = (("B", 2),),
    order_atom_prob: float = 0.5,
    neq_prob: float = 0.0,
) -> ConjunctiveQuery:
    """A random conjunctive query over the same signature.

    ``neq_prob`` mixes '!=' atoms between order-variable pairs into the
    order part (the Section 7 query-side extension).
    """
    order_vars = [ordvar(f"t{i}") for i in range(n_order_vars)]
    object_vars = [objvar(f"x{i}") for i in range(n_object_vars)]
    atoms: list = []
    for _ in range(n_atoms):
        pred, arity = preds[rng.randrange(len(preds))]
        args = []
        for pos in range(arity):
            if pos % 2 == 0:
                args.append(rng.choice(order_vars))
            else:
                args.append(rng.choice(object_vars))
        atoms.append(ProperAtom(pred, tuple(args)))
    for i in range(n_order_vars):
        for j in range(i + 1, n_order_vars):
            if rng.random() < order_atom_prob:
                rel = Rel.LT if rng.random() < 0.7 else Rel.LE
                atoms.append(OrderAtom(order_vars[i], rel, order_vars[j]))
            if neq_prob and rng.random() < neq_prob:
                atoms.append(OrderAtom(order_vars[i], Rel.NE, order_vars[j]))
    return ConjunctiveQuery.from_atoms(atoms)


# -- propositional workloads for the reductions -------------------------------


def random_monotone_clauses(
    rng: random.Random, n_letters: int, n_clauses: int
) -> tuple[list[tuple[str, str, str]], list[tuple[str, str, str]]]:
    """Random monotone 3SAT instance: (positive clauses, negative clauses).

    Letters are ``p0 .. p{n-1}``; each clause is a triple of letters, used
    positively in the first list and negatively in the second.
    """
    letters = [f"p{i}" for i in range(n_letters)]
    positive = [
        tuple(rng.choice(letters) for _ in range(3)) for _ in range(n_clauses)
    ]
    negative = [
        tuple(rng.choice(letters) for _ in range(3)) for _ in range(n_clauses)
    ]
    return positive, negative


def random_dnf(
    rng: random.Random, n_letters: int, n_disjuncts: int, literals_per: int = 3
) -> list[dict[str, bool]]:
    """A random DNF: each disjunct maps letters to required polarity."""
    out: list[dict[str, bool]] = []
    for _ in range(n_disjuncts):
        conj: dict[str, bool] = {}
        for _ in range(literals_per):
            conj[f"p{rng.randrange(n_letters)}"] = rng.random() < 0.5
        out.append(conj)
    return out


def random_graph(
    rng: random.Random, n_vertices: int, edge_prob: float = 0.4
) -> tuple[list[str], list[tuple[str, str]]]:
    """A random undirected graph for the 3-colorability reductions."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = [
        (vertices[i], vertices[j])
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if rng.random() < edge_prob
    ]
    return vertices, edges


def gene_sequences(
    rng: random.Random, count: int, length: int
) -> list[str]:
    """Random base sequences over {C, G, A, T} (Example 1.2)."""
    return [
        "".join(rng.choice("CGAT") for _ in range(length)) for _ in range(count)
    ]
