"""Brute-force semantics: the independent ground truth for cross-validation.

Evaluation is direct recursion over the model, except for the
refinement quantifier: `Er psi` holds at a point exactly when some
root-keeping restriction of the unravelling of the point to depth
d_diamond(psi) satisfies psi.  Restrictions of an unravelling are
genuine refinements (dropping tree edges preserves the back condition),
and a formula of a given modal depth only sees the model to that depth,
which is what makes the bounded search a usable stand-in for the
unbounded quantifier.

Satisfiability enumerates candidate tree models over the formula's
atoms, with depth bounded by the formula's modal nesting and per-node
branching by its diamond count; dropping candidates outside this class
loses nothing because every satisfiable formula in the fragment has a
witness inside it.

Two search spaces here are astronomically large to walk literally even
at small formula sizes (all bounded trees for quantifier-free
unsatisfiable formulas; all restrictions of a bushy unravelling), so
for quantifier-free subproblems both searches collapse into profile
fixpoints that decide exactly the same question: a profile records
which subformulas hold at a node, and a node's profile is determined by
its valuation together with which diamond bodies some child witnesses
and which box bodies some child violates.  Quantifier-containing
subproblems walk the space literally, smallest candidates first.
"""

from itertools import combinations

from .errors import ResourceLimit
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExistsR,
    FragmentViolation,
    NegAtom,
    Not,
    Or,
    atoms,
    children,
    contains_exists,
    count_diamonds,
    in_existential_fragment,
    metrics,
    render,
)
from .kripke import (
    KripkeModel,
    PointedModel,
    enumerate_root_restrictions,
    unravel,
)

__all__ = ["oracle_eval", "oracle_sat", "DEFAULT_CANDIDATE_CAP"]

DEFAULT_CANDIDATE_CAP = 10**7
_EVAL_RESTRICTION_CAP = 10**6


def _closure_order(f):
    """Subformulas of f, children strictly before parents."""
    order = []
    seen = set()

    def walk(g):
        if g in seen:
            return
        seen.add(g)
        for c in children(g):
            walk(c)
        order.append(g)

    walk(f)
    return order


class _ProfileSpace:
    """Bit-level bookkeeping for profiles over the closure of a formula.

    A profile is an int whose bit i says whether closure formula i holds
    at a node.  Modal bits are derived from a summary pair (wit, vio):
    wit marks diamond formulas some chosen child witnesses, vio marks
    box formulas some chosen child violates.
    """

    def __init__(self, f):
        self.order = _closure_order(f)
        self.index = {g: i for i, g in enumerate(self.order)}
        self.goal = self.index[f]
        self.dia = [(i, self.index[g.body]) for i, g in enumerate(self.order) if isinstance(g, Diamond)]
        self.box = [(i, self.index[g.body]) for i, g in enumerate(self.order) if isinstance(g, Box)]
        self._deltas = {}

    def delta(self, profile):
        """The (wit, vio) contribution of one child with the given profile."""
        got = self._deltas.get(profile)
        if got is None:
            wit = 0
            for i, j in self.dia:
                if profile >> j & 1:
                    wit |= 1 << i
            vio = 0
            for i, j in self.box:
                if not profile >> j & 1:
                    vio |= 1 << i
            got = self._deltas[profile] = (wit, vio)
        return got

    def profile(self, valuation, wit, vio):
        bits = 0
        idx = self.index
        for i, g in enumerate(self.order):
            if isinstance(g, Atom):
                b = g.name in valuation
            elif isinstance(g, NegAtom):
                b = g.name not in valuation
            elif isinstance(g, And):
                b = (bits >> idx[g.left] & 1) and (bits >> idx[g.right] & 1)
            elif isinstance(g, Or):
                b = (bits >> idx[g.left] & 1) or (bits >> idx[g.right] & 1)
            elif isinstance(g, Diamond):
                b = wit >> i & 1
            elif isinstance(g, Box):
                b = not (vio >> i & 1)
            else:
                raise FragmentViolation(f"quantifier in profile space: {render(g)}")
            if b:
                bits |= 1 << i
        return bits

    def summaries(self, child_profile_sets):
        """All (wit, vio) pairs reachable by keeping at most one profile per
        child, children considered independently.

        A child whose profile set is the very object of one that already
        added nothing is skipped: summaries combine by bitwise or, so a set
        that adds nothing to the pairs at one step adds nothing later."""
        out = {(0, 0)}
        idle = None
        for profs in child_profile_sets:
            if profs is idle:
                continue
            new = set(out)
            for w0, v0 in out:
                for p in profs:
                    dw, dv = self.delta(p)
                    new.add((w0 | dw, v0 | dv))
            if len(new) == len(out):
                idle = profs
            out = new
        return out


def _restriction_satisfiable(tree, psi):
    """Does some root-keeping restriction of the tree satisfy psi?

    psi must be quantifier-free.  Equivalent to enumerating every
    restriction and evaluating, folded into one bottom-up pass: each
    node's achievable profiles arise from its valuation and an
    independent drop-or-restrict choice per child.
    """
    space = _ProfileSpace(psi)
    m = tree.model
    kids = {s: [] for s in m.states}
    for s, t in sorted(m.transitions):
        kids[s].append(t)

    achievable = {}

    def visit(u):
        for c in kids[u]:
            visit(c)
        summaries = space.summaries([achievable[c] for c in kids[u]])
        achievable[u] = {space.profile(m.valuation[u], w, v) for w, v in summaries}

    visit(tree.point)
    goal = space.goal
    return any(p >> goal & 1 for p in achievable[tree.point])


class _Eval:
    def __init__(self, model, restriction_cap):
        self.model = model
        self.cap = restriction_cap
        self.memo = {}

    def eval(self, s, f):
        key = (s, f)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = self._eval(s, f)
        return got

    def _eval(self, s, f):
        if isinstance(f, Atom):
            return f.name in self.model.valuation[s]
        if isinstance(f, NegAtom):
            return f.name not in self.model.valuation[s]
        if isinstance(f, And):
            return self.eval(s, f.left) and self.eval(s, f.right)
        if isinstance(f, Or):
            return self.eval(s, f.left) or self.eval(s, f.right)
        if isinstance(f, Diamond):
            return any(self.eval(t, f.body) for t in self.model.successors(s))
        if isinstance(f, Box):
            return all(self.eval(t, f.body) for t in self.model.successors(s))
        if isinstance(f, ExistsR):
            return self._exists(s, f.body)
        raise FragmentViolation(f"cannot evaluate {render(f)}")

    def _exists(self, s, psi):
        depth = metrics(psi).d_diamond
        tree = unravel(PointedModel(self.model, s), depth)
        if not contains_exists(psi):
            return _restriction_satisfiable(tree, psi)
        count = 0
        for candidate in enumerate_root_restrictions(tree):
            count += 1
            if count > self.cap:
                raise ResourceLimit(
                    f"more than {self.cap} restrictions while evaluating Er {render(psi)}"
                )
            if oracle_eval(candidate, psi, restriction_cap=self.cap):
                return True
        return False


def oracle_eval(a, f, restriction_cap=_EVAL_RESTRICTION_CAP):
    """Truth of f at the pointed model a under the brute-force semantics."""
    if isinstance(f, Not) or not in_existential_fragment(f):
        raise FragmentViolation(f"not in the existential fragment: {render(f)}")
    return _Eval(a.model, restriction_cap).eval(a.point, f)


# --- bounded-tree satisfiability ---------------------------------------------


def _valuations(atom_names):
    out = []
    for r in range(len(atom_names) + 1):
        for combo in combinations(atom_names, r):
            out.append(frozenset(combo))
    return out


def _tree_counts(depth, branching):
    if branching <= 0 or depth <= 0:
        return 1
    total = 1
    layer = 1
    for _ in range(depth):
        layer *= branching
        total += layer
    return total


def _trees_exact(n, depth, vals, branching):
    """Canonical trees with exactly n nodes: (valuation, children tuple),
    children a non-decreasing multiset by (size, enumeration index)."""
    if n <= 0:
        return
    if n == 1:
        for v in vals:
            yield (v, ())
        return
    if depth <= 0 or branching <= 0:
        return
    for v in vals:
        for kids in _kid_tuples(n - 1, branching, depth - 1, vals, branching, 1, 0):
            yield (v, kids)


def _kid_tuples(total, maxparts, depth, vals, branching, min_size, min_idx):
    if total == 0:
        yield ()
        return
    if maxparts == 0:
        return
    for s in range(min_size, total + 1):
        start = min_idx if s == min_size else 0
        for i, t in enumerate(_trees_exact(s, depth, vals, branching)):
            if i < start:
                continue
            for rest in _kid_tuples(total - s, maxparts - 1, depth, vals, branching, s, i):
                yield (t,) + rest


def _tree_to_model(tree):
    states = []
    transitions = []
    valuation = {}

    def walk(node, path):
        pid = ".".join(str(i) for i in path)
        states.append(pid)
        valuation[pid] = node[0]
        for j, child in enumerate(node[1]):
            cpath = path + (j,)
            transitions.append((pid, ".".join(str(i) for i in cpath)))
            walk(child, cpath)

    walk(tree, ())
    return PointedModel(KripkeModel(states, transitions, valuation), "")


def _profile_sat(f, depth, branching, atom_names):
    """Bounded-class satisfiability for quantifier-free f: iterate the set
    of achievable node profiles level by level up to the depth bound."""
    space = _ProfileSpace(f)
    vals = _valuations(atom_names)
    level = {space.profile(v, 0, 0) for v in vals}
    for _ in range(depth):
        summaries = space.summaries([level] * branching)
        nxt = set(level)
        for v in vals:
            for w, vi in summaries:
                nxt.add(space.profile(v, w, vi))
        if nxt == level:
            break
        level = nxt
    goal = space.goal
    return any(p >> goal & 1 for p in level)


def oracle_sat(f, max_candidates=DEFAULT_CANDIDATE_CAP):
    """Bounded-model satisfiability: true iff some tree over atoms(f) with
    depth at most d_diamond(f) and per-node branching at most the number
    of diamonds in f satisfies f.

    Quantifier-containing formulas walk the candidate trees smallest
    first and raise ResourceLimit past max_candidates; quantifier-free
    formulas are decided by the equivalent profile fixpoint.
    """
    if not in_existential_fragment(f):
        raise FragmentViolation(f"not in the existential fragment: {render(f)}")
    names = atoms(f)
    depth = metrics(f).d_diamond
    branching = count_diamonds(f)
    if not contains_exists(f):
        return _profile_sat(f, depth, branching, names)
    vals = _valuations(names)
    max_nodes = _tree_counts(depth, branching)
    count = 0
    for n in range(1, max_nodes + 1):
        for tree in _trees_exact(n, depth, vals, branching):
            count += 1
            if count > max_candidates:
                raise ResourceLimit(
                    f"more than {max_candidates} candidate models for {render(f)}"
                )
            if oracle_eval(_tree_to_model(tree), f):
                return True
    return False
