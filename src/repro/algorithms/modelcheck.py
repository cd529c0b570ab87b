"""Model checking: does a finite structure satisfy a positive existential query?

Two per-model checkers:

* :func:`structure_satisfies` — the generic n-ary checker, a backtracking
  assignment search.  This realizes the "expression complexity in NP"
  observation of Section 3 (the certificate is the satisfying assignment).

* :func:`word_satisfies_dag` — the monadic fast path of Corollary 5.1: a
  finite model is a word; a conjunctive monadic query is a labelled dag;
  satisfaction is decided greedily in ``O(|M| * |Phi| * |Pred|)`` by
  computing the earliest feasible point for each query vertex in
  topological order (all constraints are lower bounds, so the earliest
  assignment is feasible iff any is).

and two *prefix-incremental* satisfaction machines that drive the
region-DAG dynamic programming of :class:`repro.core.modelengine.RegionDP`
(both per-model checkers restart from scratch on every model; the
machines carry their satisfaction state block by block and hash it, so
distinct block-sequence prefixes that agree on the remaining region and
the state share one subtree evaluation):

* :class:`MonadicFrontierMachine` — the incremental form of
  :func:`word_satisfies_dag`: its state is the earliest-feasible-point
  frontier (the set of query-dag vertices already placeable in the word
  prefix) per disjunct.  Placing at the earliest feasible letter is
  complete, so the frontier is the *exact* interface between a prefix and
  its completions.

* :class:`GroundingMachine` — the incremental n-ary checker.  A candidate
  satisfying assignment maps every query order term to a *vertex* of the
  database graph (every point of a minimal model carries at least one
  vertex, so vertex images are complete), which grounds the query into
  finitely many vertex-pair constraint sets.  Each constraint resolves
  exactly when its first endpoint is sorted into a block (later points
  are strictly greater than earlier ones), so the machine state is just
  the bitmask of still-viable groundings — a grounding with every
  constraint resolved satisfies the query in *every* completion, and an
  empty viable set falsifies it in every completion.  Steps are indexed
  by constraint, not by grounding: each distinct constraint carries the
  mask of the groundings containing it, and the masks a placement kills
  or leaves unresolved are memoized per region.  The join reads the
  database's order closure: groundings the graph refutes never enter the
  list, and constraints it entails are left out of each grounding.  An
  open query is grounded once with its answer variables free; each
  grounding is tagged with its answer binding, and every candidate tuple
  is one start state of the same machine.
"""

from __future__ import annotations

import weakref
from itertools import product as iter_product
from typing import Iterable, Mapping, Sequence

from repro.core.atoms import ProperAtom, Rel
from repro.core.database import IndefiniteDatabase, LabeledDag
from repro.core.modelengine import (
    ALL_FAIL,
    SATISFIED,
    ClosureRows,
    ModelEngine,
)
from repro.core.models import Structure
from repro.core.query import (
    ConjunctiveQuery,
    DisjunctiveQuery,
    Query,
    as_dnf,
)
from repro.core.sorts import Term
from repro.flexiwords.flexiword import Word

Value = int | str


def structure_satisfies(model: Structure, query: Query) -> bool:
    """Does ``model`` satisfy ``query``?

    Query constants are interpreted through the model's constant map and
    must occur there (entailment pipelines eliminate foreign constants
    before reaching this point).
    """
    dnf = as_dnf(query)
    return any(_conjunct_satisfied(model, d) for d in dnf.disjuncts)


def _resolve(model: Structure, term: Term, assignment: dict[Term, Value]) -> Value | None:
    if term.is_var:
        return assignment.get(term)
    interp = model.interpretation
    if term.name not in interp:
        raise KeyError(
            f"constant {term.name!r} is not interpreted by the model; "
            "eliminate query constants first"
        )
    return interp[term.name]


def _order_atom_holds(left: Value, rel: Rel, right: Value) -> bool:
    if rel is Rel.LT:
        return left < right
    if rel is Rel.LE:
        return left <= right
    return left != right


def _conjunct_satisfied(model: Structure, cq: ConjunctiveQuery) -> bool:
    facts = model.fact_dict
    order_atoms = cq.order_atoms
    assignment: dict[Term, Value] = {}

    def order_consistent() -> bool:
        for atom in order_atoms:
            left = _resolve(model, atom.left, assignment)
            right = _resolve(model, atom.right, assignment)
            if left is None or right is None:
                continue
            if not _order_atom_holds(left, atom.rel, right):
                return False
        return True

    proper = list(cq.proper_atoms)

    # Variables that occur in no proper atom must be enumerated explicitly.
    loose_vars = sorted(
        cq.variables()
        - {t for a in proper for t in a.args if t.is_var},
        key=lambda t: t.name,
    )

    def pick_next(remaining: list[ProperAtom]) -> int:
        """Greedy join order: most bound variables, then fewest facts."""
        best, best_key = 0, None
        for i, atom in enumerate(remaining):
            bound = sum(1 for t in atom.args if t.is_const or t in assignment)
            key = (-bound, len(facts.get(atom.pred, frozenset())))
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def try_proper(remaining: list[ProperAtom]) -> bool:
        if not remaining:
            return try_loose(0)
        idx = pick_next(remaining)
        atom = remaining[idx]
        rest = remaining[:idx] + remaining[idx + 1 :]
        candidates = facts.get(atom.pred, frozenset())
        for tup in candidates:
            if len(tup) != len(atom.args):
                continue
            bound: list[Term] = []
            ok = True
            for term, value in zip(atom.args, tup):
                if term.is_var:
                    if term.is_order != isinstance(value, int):
                        ok = False  # a variable only takes its own sort
                        break
                    existing = assignment.get(term)
                    if existing is None:
                        assignment[term] = value
                        bound.append(term)
                    elif existing != value:
                        ok = False
                        break
                else:
                    if _resolve(model, term, assignment) != value:
                        ok = False
                        break
            if ok and order_consistent() and try_proper(rest):
                return True
            for term in bound:
                del assignment[term]
        return False

    def try_loose(idx: int) -> bool:
        if idx == len(loose_vars):
            return order_consistent()
        var = loose_vars[idx]
        domain: Iterable[Value]
        if var.is_order:
            domain = range(model.order_size)
        else:
            domain = sorted(model.objects)
        for value in domain:
            assignment[var] = value
            if order_consistent() and try_loose(idx + 1):
                return True
            del assignment[var]
        return False

    return try_proper(proper)


def word_satisfies_dag(word: Word, qdag: LabeledDag) -> bool:
    """Corollary 5.1 fast path: word model vs conjunctive monadic query dag.

    Computes, in topological order of the (normalized) query dag, the
    earliest point of the word at which each query vertex can sit given its
    label and the positions of its predecessors.  Feasible iff every vertex
    gets a point.
    """
    dag = qdag.normalized()
    graph = dag.graph
    order = _topo(graph)
    earliest: dict[str, int] = {}
    n = len(word)
    for v in order:
        lower = 0
        for u in graph.predecessors(v):
            bump = 1 if graph.edge_label(u, v) is Rel.LT else 0
            lower = max(lower, earliest[u] + bump)
        label = dag.labels[v]
        position = None
        for p in range(lower, n):
            if label <= word[p]:
                position = p
                break
        if position is None:
            return False
        earliest[v] = position
    return True


def word_satisfies(word: Word, query: Query) -> bool:
    """Word model vs disjunctive monadic query (no '!=')."""
    dnf = as_dnf(query)
    return any(word_satisfies_dag(word, d.monadic_dag()) for d in dnf.disjuncts)


def _topo(graph) -> list[str]:
    indeg = {v: len(graph.predecessors(v)) for v in graph.vertices}
    ready = sorted(v for v, d in indeg.items() if d == 0)
    out: list[str] = []
    while ready:
        v = ready.pop()
        out.append(v)
        for w in sorted(graph.successors(v)):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(out) != len(indeg):
        raise ValueError("query dag has a cycle; normalize first")
    return out


# -- prefix-incremental machines for the region-DAG DP -----------------------


class _QDag:
    """One query dag interned over small bitmasks for the frontier machine."""

    __slots__ = ("full", "pred_all", "pred_lt", "label")

    def __init__(self, qdag: LabeledDag, pbit: dict[str, int]) -> None:
        dag = qdag.normalized()
        qverts = sorted(dag.graph.vertices)
        qindex = {v: i for i, v in enumerate(qverts)}
        k = len(qverts)
        self.full = (1 << k) - 1
        self.pred_all = [0] * k
        self.pred_lt = [0] * k
        self.label = [0] * k
        for v in qverts:
            vi = qindex[v]
            for u in dag.graph.predecessors(v):
                ui = qindex[u]
                self.pred_all[vi] |= 1 << ui
                if dag.graph.edge_label(u, v) is Rel.LT:
                    self.pred_lt[vi] |= 1 << ui
            for p in dag.labels[v]:
                self.label[vi] |= 1 << pbit[p]


class MonadicFrontierMachine:
    """Earliest-feasible-frontier state for disjunctive monadic queries.

    The state is a tuple of per-disjunct bitmasks of query-dag vertices
    already placed in the word prefix.  Advancing by a block computes the
    block's letter (the union of its vertex labels, projected onto the
    query alphabet) and runs the greedy placement fixpoint: a query
    vertex is placed as soon as its label fits the letter, all its
    predecessors are placed, and its '<'-predecessors were placed in a
    strictly earlier block.  Greedy-earliest placement is complete (all
    constraints are lower bounds), so a fully placed disjunct means the
    query holds in every completion (:data:`SATISFIED`).
    """

    __slots__ = ("vletter", "dags", "_letters")

    def __init__(
        self,
        engine: ModelEngine,
        labels: Mapping[str, frozenset[str]],
        qdags: Sequence[LabeledDag],
    ) -> None:
        alphabet = sorted(
            {p for qdag in qdags for lab in qdag.labels.values() for p in lab}
        )
        pbit = {p: i for i, p in enumerate(alphabet)}
        self.vletter = [0] * engine.n
        for v, vid in engine.index.items():
            bits = 0
            for p in labels.get(v, ()):
                i = pbit.get(p)
                if i is not None:
                    bits |= 1 << i
            self.vletter[vid] = bits
        self.dags = [_QDag(qdag, pbit) for qdag in qdags]
        self._letters: dict[int, int] = {}

    def _letter(self, block: int) -> int:
        try:
            return self._letters[block]
        except KeyError:
            pass
        bits = 0
        vletter = self.vletter
        m = block
        while m:
            low = m & -m
            bits |= vletter[low.bit_length() - 1]
            m ^= low
        self._letters[block] = bits
        return bits

    def initial(self, full_region: int):
        if not self.dags:
            return ALL_FAIL  # empty disjunction: no model satisfies it
        if any(d.full == 0 for d in self.dags):
            return SATISFIED  # an empty disjunct holds in every model
        return (0,) * len(self.dags)

    def advance(self, state, region: int, block: int):
        letter = self._letter(block)
        out = []
        for dag, placed in zip(self.dags, state):
            cur = placed
            progress = True
            while progress:
                progress = False
                m = dag.full & ~cur
                while m:
                    low = m & -m
                    qi = low.bit_length() - 1
                    m ^= low
                    if (
                        dag.pred_all[qi] & ~cur == 0
                        and dag.pred_lt[qi] & ~placed == 0
                        and dag.label[qi] & ~letter == 0
                    ):
                        cur |= low
                        progress = True
            if cur == dag.full:
                return SATISFIED
            out.append(cur)
        return tuple(out)


#: Grounded vertex-pair constraint kinds.
_EQ, _LT, _LE, _NE = 0, 1, 2, 3

_FOREIGN = (
    "constant {name!r} is not interpreted by the model; "
    "eliminate query constants first"
)

#: Compiled argument operations of the grounding join (one per atom
#: position that needs work): bind a variable's first occurrence, check
#: an already bound object variable or an object constant, and record
#: the coincidence of an already bound order variable or an order
#: constant with the fact's vertex.
_BIND, _CHECK, _CONST, _EQ_SLOT, _EQ_CONST = range(5)


class FactIndex:
    """The query-independent side of the grounding join over one database.

    Facts are stored as ``(values, order_mask)``: order constants as the
    engine's interned vertex ids (of their canonical vertex), objects by
    name, and bit ``i`` of ``order_mask`` set when position ``i`` is
    order-sorted.  ``scan`` buckets them by ``(pred, arity)`` in sorted
    atom order; ``probe`` indexes them by ``(pred, arity, position,
    object name)`` in the same order, so a join step with a bound object
    argument visits exactly the facts that can match it, in the order a
    full scan would.  Obtain instances through :func:`fact_index`, which
    builds one per database.
    """

    __slots__ = ("verts", "canon", "vid", "objects", "scan", "probe")

    def __init__(
        self,
        engine: ModelEngine,
        db: IndefiniteDatabase,
        canon: Mapping[str, str],
    ) -> None:
        index = engine.index
        self.verts = engine.verts
        self.canon = canon
        #: order-constant name -> vertex id, for the names the model interprets
        self.vid = {
            name: index[c] for name, c in canon.items() if c in index
        }
        self.objects = db.object_constants
        scan: dict[tuple, list[tuple]] = {}
        probe: dict[tuple, list[tuple]] = {}
        for atom in sorted(db.proper_atoms):
            values = []
            order_mask = 0
            for i, t in enumerate(atom.args):
                if t.is_order:
                    order_mask |= 1 << i
                    values.append(index[canon.get(t.name, t.name)])
                else:
                    values.append(t.name)
            fact = (tuple(values), order_mask)
            key = (atom.pred, len(values))
            scan.setdefault(key, []).append(fact)
            for i, value in enumerate(values):
                if not order_mask >> i & 1:
                    probe.setdefault(key + (i, value), []).append(fact)
        self.scan = scan
        self.probe = probe

    def fits(self, engine: ModelEngine, canon: Mapping[str, str]) -> bool:
        """Was this index built against ``engine``'s interning and ``canon``?"""
        return self.verts == engine.verts and self.canon == canon


_FACT_INDEXES: "weakref.WeakKeyDictionary[IndefiniteDatabase, FactIndex]" = (
    weakref.WeakKeyDictionary()
)


def fact_index(
    engine: ModelEngine, db: IndefiniteDatabase, canon: Mapping[str, str]
) -> FactIndex:
    """The :class:`FactIndex` of ``db``, built once per database.

    Kept beside the (immutable) database rather than on the engine or a
    region cache, which are shared between databases that differ only
    in object facts.  An entry whose vertex interning no longer fits is
    rebuilt.
    """
    cached = _FACT_INDEXES.get(db)
    if cached is not None and cached.fits(engine, canon):
        return cached
    built = _FACT_INDEXES[db] = FactIndex(engine, db, canon)
    return built


class _Join:
    """One disjunct compiled against a :class:`FactIndex`.

    Query variables are interned to slots of one value array; order
    constants of the order atoms get prefilled slots of their own.  Per
    proper atom the plan holds its ``(pred, arity)`` bucket key, the
    order mask its facts must carry (a term matches only values of its
    own sort), the probe on its first bound object argument (if any),
    the position ops, its first foreign constant (if any), and the
    order atoms whose sides it is the first to bind all of: a match the
    order graph refutes one of them for is pruned there (see
    :meth:`run`).  ``answers`` names the (object-sorted) answer
    variables of an open query: they are ordinary slots of the join,
    and each grounding is tagged with their values (``None`` for one
    the disjunct lacks).  ``foreign`` is set when some atom holds a
    constant the database does not interpret, ``ordered`` when a
    grounding can carry a constraint at all.
    """

    __slots__ = (
        "facts", "atoms", "n_slots", "consts", "loose", "order_ops",
        "order_foreign", "answer_slots", "foreign", "ordered",
    )

    def __init__(
        self,
        cq: ConjunctiveQuery,
        facts: FactIndex,
        answers: Sequence[Term] = (),
    ) -> None:
        self.facts = facts
        slots: dict[Term, int] = {}
        atoms = []
        for atom in cq.proper_atoms:
            key = (atom.pred, len(atom.args))
            bound_before = set(slots)
            order_mask = 0
            probe = None
            foreign = None
            ops = []
            for pos, term in enumerate(atom.args):
                if term.is_order:
                    order_mask |= 1 << pos
                if term.is_var:
                    slot = slots.get(term)
                    if slot is None:
                        slot = slots[term] = len(slots)
                        ops.append((pos, _BIND, slot))
                    elif term.is_order:
                        ops.append((pos, _EQ_SLOT, slot))
                    else:
                        ops.append((pos, _CHECK, slot))
                        if probe is None and term in bound_before:
                            probe = (key + (pos,), None, slot)
                elif term.is_order:
                    vid = facts.vid.get(term.name)
                    if vid is None and foreign is None:
                        foreign = (pos, term.name, tuple(ops))
                    ops.append((pos, _EQ_CONST, vid))
                else:
                    if term.name not in facts.objects and foreign is None:
                        foreign = (pos, term.name, tuple(ops))
                    ops.append((pos, _CONST, term.name))
                    if probe is None:
                        probe = (key + (pos,), term.name, -1)
            if probe is not None:
                # the probe already guarantees its own position
                ops = [op for op in ops if op[0] != probe[0][2]]
            atoms.append((key, order_mask, probe, tuple(ops), foreign))
        in_proper = set(slots)
        loose = sorted(
            {
                t
                for a in cq.order_atoms
                for t in (a.left, a.right)
                if t.is_var and t not in in_proper
            }
            | {v for v in cq.extra_order_vars if v not in in_proper},
            key=lambda t: t.name,
        )
        self.loose = [slots.setdefault(v, len(slots)) for v in loose]
        consts: dict[int, int] = {}
        order_ops = []
        self.order_foreign = None
        for a in cq.order_atoms:
            refs = []
            for t in (a.left, a.right):
                if t.is_var:
                    refs.append(slots[t])
                    continue
                vid = facts.vid.get(t.name)
                if vid is None:
                    self.order_foreign = t.name
                    break
                slot = slots.setdefault(t, len(slots))
                consts[slot] = vid
                refs.append(slot)
            if self.order_foreign is not None:
                break
            kind = _LT if a.rel is Rel.LT else _LE if a.rel is Rel.LE else _NE
            order_ops.append((kind, refs[0], refs[1]))
        self.order_ops = order_ops
        self.consts = consts
        self.n_slots = len(slots)
        proper_foreign = any(foreign is not None for *_, foreign in atoms)
        self.foreign = proper_foreign or self.order_foreign is not None
        #: does any grounding carry a constraint (the closure has work)?
        self.ordered = bool(order_ops) or any(
            op in (_EQ_SLOT, _EQ_CONST)
            for _, _, _, ops, _ in atoms
            for _, op, _ in ops
        )
        # An order atom the placement refutes kills every leaf below, so
        # it is tested at the first atom binding both sides -- unless a
        # foreign constant of some atom must still raise from below.
        level = dict.fromkeys(consts, 0)
        for i, (_, _, _, ops, _) in enumerate(atoms):
            level.update((slot, i) for _, op, slot in ops if op == _BIND)
        checks: list[list[tuple[int, int, int]]] = [[] for _ in atoms]
        if not proper_foreign:
            for kind, ls, rs in order_ops:
                if ls in level and rs in level:
                    checks[max(level[ls], level[rs])].append((kind, ls, rs))
        self.atoms = [
            atom + (tuple(level_checks),)
            for atom, level_checks in zip(atoms, checks)
        ]
        # object variables occur only in proper atoms, so every answer
        # slot is bound by the time a proper match reaches the leaves
        self.answer_slots = tuple(slots.get(v, -1) for v in answers)

    def run(
        self,
        n_verts: int,
        seen: dict,
        rows: ClosureRows | None = None,
        stop: bool = False,
    ) -> None:
        """Add each satisfying proper-match × loose-assignment to ``seen``
        as ``(binding, pairs)``: the answer-variable values and the
        frozenset of ``(u, v, kind)`` vertex-pair constraints, in
        depth-first order (proper atoms in query order, facts in sorted
        order, loose variables by name).

        With the graph's closure ``rows`` the join is closure-aware.  A
        constraint the graph refutes fails in every model, so a match
        holding one is cut: at the first atom binding both sides of an
        order atom (``u < v`` when ``v`` reaches ``u`` or ``u == v``;
        ``u <= v`` when ``v`` strictly reaches ``u``; ``u != v`` when
        ``u == v``), and on an anchor coincidence ``u = v`` the graph
        orders strictly or marks ``!=``.  A constraint the graph entails
        holds in every model, so it is left out of ``pairs`` (``<`` on a
        strict path, ``<=`` on any path, ``!=`` on a strict path either
        way or a recorded pair).  Without rows only the empty graph's
        facts apply: ``<`` and ``!=`` between one vertex are refuted.
        ``stop`` raises :class:`_Entailed` at the first leaf with no
        constraint left.
        """
        env: list = [None] * self.n_slots
        for slot, vid in self.consts.items():
            env[slot] = vid
        eqs: list[tuple[int, int]] = []
        scan, probe_index = self.facts.scan, self.facts.probe
        n_atoms = len(self.atoms)
        loose, order_ops = self.loose, self.order_ops
        order_foreign = self.order_foreign
        answer_slots = self.answer_slots
        verts = range(n_verts)
        zero = [0] * n_verts
        reach, strict, apart = zero, zero, zero
        if rows is not None:
            reach, strict, apart = rows
        # per order atom: the row that refutes it (bit u of row[v]) and
        # whether it refutes one vertex
        refute = {_LT: (reach, True), _LE: (strict, False), _NE: (zero, True)}
        atoms = [
            atom[:-1] + (
                tuple((ls, rs) + refute[kind] for kind, ls, rs in atom[-1]),
            )
            for atom in self.atoms
        ]

        def leaves() -> None:
            binding = tuple(
                [None if slot < 0 else env[slot] for slot in answer_slots]
            )
            combos = iter_product(verts, repeat=len(loose)) if loose else ((),)
            for combo in combos:
                for slot, vid in zip(loose, combo):
                    env[slot] = vid
                pairs: set[tuple[int, int, int]] = set()
                for kind, ls, rs in order_ops:
                    u, v = env[ls], env[rs]
                    if kind == _LE:
                        if strict[v] >> u & 1:
                            break  # refuted: v < u in every model
                        if u != v and not reach[u] >> v & 1:
                            pairs.add((u, v, _LE))
                    elif u == v or kind == _LT and reach[v] >> u & 1:
                        break  # refuted: one point, or v <= u for '<'
                    elif kind == _LT:
                        if not strict[u] >> v & 1:
                            pairs.add((u, v, _LT))
                    elif not apart[u] >> v & 1:
                        pairs.add((u, v, _NE) if u < v else (v, u, _NE))
                else:
                    if order_foreign is not None:
                        raise KeyError(_FOREIGN.format(name=order_foreign))
                    for x, y in eqs:
                        pairs.add((x, y, _EQ) if x < y else (y, x, _EQ))
                    if stop and not pairs:
                        raise _Entailed
                    seen.setdefault((binding, frozenset(pairs)), None)

        def match(i: int) -> None:
            if i == n_atoms:
                leaves()
                return
            key, order_mask, probe, ops, foreign, checks = atoms[i]
            if foreign is not None:
                # a foreign constant matches no fact; it raises as soon as
                # some fact agrees with every position before it
                pos, name, prefix_ops = foreign
                if any(
                    _prefix_matches(fact, order_mask, prefix_ops, pos, env)
                    for fact in scan.get(key, ())
                ):
                    raise KeyError(_FOREIGN.format(name=name))
                return
            if probe is None:
                candidates = scan.get(key, ())
            else:
                prefix, value, slot = probe
                if slot >= 0:
                    value = env[slot]
                candidates = probe_index.get(prefix + (value,), ())
            mark = len(eqs)
            for values, mask in candidates:
                if mask != order_mask:
                    continue
                for pos, op, arg in ops:
                    value = values[pos]
                    if op == _BIND:
                        env[arg] = value
                    elif op == _EQ_SLOT:
                        x = env[arg]
                        if x != value:
                            if apart[x] >> value & 1:
                                break  # the anchors are apart in every model
                            eqs.append((x, value))
                    elif op == _EQ_CONST:
                        if arg != value:
                            if apart[arg] >> value & 1:
                                break
                            eqs.append((arg, value))
                    elif op == _CHECK:
                        if env[arg] != value:
                            break
                    elif arg != value:  # _CONST
                        break
                else:
                    for ls, rs, row, one_point in checks:
                        u, v = env[ls], env[rs]
                        if row[v] >> u & 1 or one_point and u == v:
                            break
                    else:
                        match(i + 1)
                del eqs[mark:]

        match(0)


class _Entailed(Exception):
    """A closed query's join reached a grounding with no constraint left:
    it holds in every model."""


def _prefix_matches(fact, order_mask, ops, end, env) -> bool:
    """Does a fact agree with a join step on every position before ``end``
    (sorts included)?  Decides whether a foreign constant at ``end`` is
    reached."""
    values, mask = fact
    if (mask ^ order_mask) & ((1 << end) - 1):
        return False
    local = list(env)
    for pos, op, arg in ops:
        value = values[pos]
        if op == _BIND:
            local[arg] = value
        elif op == _CHECK and local[arg] != value:
            return False
        elif op == _CONST and arg != value:
            return False
    return True


class GroundingMachine:
    """Viable-grounding state for n-ary queries over minimal models.

    Compilation grounds the query once against the database instead of
    a materialized model: each disjunct is compiled to a :class:`_Join`
    whose proper atoms are matched against the database's
    :class:`FactIndex` (object terms bind by name, order terms anchor to
    the canonical vertex of the fact's constant; a term only matches
    facts of its own sort), remaining order variables are enumerated
    over the graph's vertices, and the query's order atoms plus the
    anchor coincidences become vertex-pair constraints
    (``=``/``<``/``<=``/``!=`` on block indices).  A constraint resolves
    the moment its first endpoint is sorted into a block, so the machine
    state is the bitmask of groundings with no failed constraint; a
    viable grounding whose constraints are all resolved satisfies the
    query in every completion.

    **Closure prune** — the join reads the order graph's closure
    (:meth:`~repro.core.modelengine.ModelEngine.closure_rows`): it drops
    every grounding holding a constraint the graph refutes, and leaves
    out every constraint the graph entails.  Minimal models are models
    of the graph, so the dropped groundings fail in every completion
    and the dropped constraints hold in every one: a completion
    satisfies some kept grounding exactly when it satisfies some
    grounding of the full list.  The set of falsifying block sequences,
    and with it every verdict, count and DFS-first witness, is the
    unpruned machine's; a state is still a pure function of the
    placement prefix and decides the same completions, so ``(region,
    state)`` stays a sound :class:`~repro.core.modelengine.RegionDP`
    key.  A closed query whose join reaches a grounding with no
    constraint left holds in every model: the join stops there and
    :attr:`entailed` is set, so callers need no region walk.  Both the
    prune and the early exit are off while some atom holds a foreign
    constant (its ``KeyError`` raises where the plain join raises it),
    and the prune is off on an inconsistent graph.

    The grounding list is inverted into one entry per distinct
    constraint carrying the mask of the groundings that contain it, so
    a step never walks a grounding: placing ``block`` in ``region``
    clears the groundings of every constraint the placement violates
    (one mask per ``(region, block)``), and a state settles to
    :data:`SATISFIED` when it keeps a grounding outside the mask of
    constraints still unresolved in the remaining region (one mask per
    region).  Both masks are memoized on the machine, so they are shared
    by every state that reaches the same step.

    **Open queries** — with ``free_vars`` the disjuncts are joined with
    the answer variables as ordinary slots, and :attr:`answers` maps
    each answer binding to the mask of its groundings (``None`` marks a
    variable the disjunct does not bind: those groundings hold for every
    candidate).  :meth:`start` turns one candidate tuple into its
    initial state: the groundings of the substituted query, so it has
    exactly the completions a machine built for that query would start
    from.  The step masks do not depend on the candidate, so one
    :class:`~repro.core.modelengine.RegionDP` decides every candidate
    over one shared memo.
    """

    __slots__ = (
        "groundings", "answers", "entailed", "_patterns", "_incident",
        "_pairs", "_kills", "_unresolved",
    )

    def __init__(
        self,
        engine: ModelEngine,
        db: IndefiniteDatabase,
        canon: Mapping[str, str],
        dnf: DisjunctiveQuery,
        free_vars: Sequence[Term] = (),
    ) -> None:
        facts = fact_index(engine, db, canon)
        joins = [_Join(cq, facts, free_vars) for cq in dnf.disjuncts]
        # a foreign constant must raise its KeyError wherever the plain
        # join reaches it, so it turns the prune and the early exit off
        foreign = any(join.foreign for join in joins)
        seen: dict[tuple, None] = {}
        self.entailed = False
        try:
            for join in joins:
                rows = None
                if join.ordered and not foreign:
                    rows = engine.closure_rows()
                join.run(engine.n, seen, rows, stop=not (foreign or free_vars))
        except _Entailed:
            self.entailed = True
            seen = {((), frozenset()): None}
        patterns = {
            tuple(slot >= 0 for slot in join.answer_slots) for join in joins
        }
        index: dict[frozenset, int] = {}
        answers: dict[tuple, int] = {}
        owners: dict[tuple[int, int, int], int] = {}
        for binding, pairs in seen:
            gi = index.get(pairs)
            if gi is None:
                gi = index[pairs] = len(index)
                for pair in pairs:
                    owners[pair] = owners.get(pair, 0) | 1 << gi
            answers[binding] = answers.get(binding, 0) | 1 << gi
        self.groundings = list(index)
        self.answers = answers
        self._patterns = patterns
        incident: list[list[tuple]] = [[] for _ in range(engine.n)]
        for (u, v, kind), mask in owners.items():
            entry = (1 << u, 1 << v, kind, (1 << u) | (1 << v), mask)
            incident[u].append(entry)
            incident[v].append(entry)
        self._incident = incident
        self._pairs = [((1 << u) | (1 << v), mask)
                       for (u, v, _kind), mask in owners.items()]
        self._kills: dict[tuple[int, int], int] = {}
        self._unresolved: dict[int, int] = {}

    # -- the machine protocol ----------------------------------------------

    def initial(self, full_region: int):
        if not self.groundings:
            return ALL_FAIL
        viable = (1 << len(self.groundings)) - 1
        return self._settle(viable, full_region)

    def start(self, candidate: tuple, full_region: int):
        """The initial state of one candidate answer tuple (values for
        ``free_vars``, in order): its groundings, settled."""
        answers = self.answers
        viable = 0
        for pattern in self._patterns:
            key = tuple(
                [value if bound else None
                 for value, bound in zip(candidate, pattern)]
            )
            viable |= answers.get(key, 0)
        if viable == 0:
            return ALL_FAIL
        return self._settle(viable, full_region)

    def advance(self, state, region: int, block: int):
        try:
            kill = self._kills[region, block]
        except KeyError:
            kill = self._kill(region, block)
        viable = state & ~kill
        if viable == 0:
            return ALL_FAIL
        return self._settle(viable, region & ~block)

    def _settle(self, viable: int, region: int):
        """SATISFIED when some viable grounding has no unresolved pair."""
        try:
            unresolved = self._unresolved[region]
        except KeyError:
            unresolved = 0
            for both, mask in self._pairs:
                if both & region == both:
                    unresolved |= mask
            self._unresolved[region] = unresolved
        if viable & ~unresolved:
            return SATISFIED
        return viable

    def _kill(self, region: int, block: int) -> int:
        """The groundings a constraint violated by placing ``block`` as
        the next point of ``region`` rules out (memoized)."""
        kill = 0
        incident = self._incident
        m = block
        while m:
            low = m & -m
            m ^= low
            for ubit, vbit, kind, both, mask in incident[low.bit_length() - 1]:
                if both & region != both:
                    continue  # resolved by an earlier block
                if ubit & block:
                    if vbit & block:  # same block: equal points
                        ok = kind == _EQ or kind == _LE
                    else:  # u now, v strictly later
                        ok = kind != _EQ
                else:  # v now, u strictly later: only '!=' survives
                    ok = kind == _NE
                if not ok:
                    kill |= mask
        self._kills[region, block] = kill
        return kill
