"""Brute-force semantics: the independent ground truth for cross-validation.

Evaluation is direct recursion over the model (a chain of one boolean
connective is walked with a loop), except for the refinement
quantifier: `Er psi` holds at a point exactly when some
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
and which box bodies some child violates.

A formula with Er is bracketed between two Er-free readings of it, each
decided by the same profile fixpoint on the same bounded class.  The
lower reading reads each Er psi as psi: every tree refines itself, and
keeping every edge is one of the restrictions the oracle tries, so a
tree that satisfies the lower reading satisfies the formula.  The upper
reading reads Er psi as the image of psi, with the boxes of psi true
and the Er nested in it read the same way, or as false when psi has no
Er and is unsatisfiable: a restriction keeps the valuations and only
loses successors, so wherever a restriction of the unravelling
satisfies psi, the tree itself satisfies the image.  A satisfiable
lower reading means SAT and an unsatisfiable upper reading UNSAT; only
where the two disagree are the candidate trees walked literally,
smallest first, and only that walk counts against max_candidates.

Each set of profiles the passes compute (a level of the fixpoint, the
achievable set of a node) is cut to one profile when the bitwise union
of the set is itself in the set.  The cut is exact: formulas are in
negation normal form, so a child profile with more bits witnesses more
diamonds and violates fewer boxes, the parent's profile grows with it,
and so does the goal test; the union stands for every profile it
contains.  The restriction pass for a quantifier-free body runs on the
model's nodes paired with the remaining depth, keyed by (node
identity, depth) as kripke.unravel_node keys its memo, so it builds no
unravelled copy; only a body that contains Er has its unravelling built
and its restrictions walked.

Each public call walks its formula once.  oracle_sat makes one
bottom-up pass over the closure of f that yields the fragment check,
the atoms and, for each subformula, its modal depth, whether it contains
Er and its diamond count; f's profile space is built from the same
walk, as are the two readings of a formula with Er.  oracle_eval
checks the fragment and walks only the Er bodies it meets.  A per-call
table holds, for each quantified body, its modal depth and (when it
has no Er) its compiled profile space, shared by
every candidate, state and restriction of the call.  No table outlives
a call, except the valuations of each tuple of atom names (a bounded
table).  Models, restrictions and candidate trees are all walked in
the node form of kripke, (label, successors), so no KripkeModel is built
along the way.  A time_budget in seconds is checked once per candidate
tree and once per restriction, and inside the profile passes once per
fixpoint level, once per node the restriction pass visits and once per
summary pair of each child step, so no single step of a pass outlasts
it by much; past it, as past the candidate and restriction caps, the
call raises ResourceLimit.
"""

from functools import lru_cache
from itertools import combinations
from time import perf_counter

from .errors import ResourceLimit
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExistsR,
    FragmentViolation,
    NegAtom,
    Or,
    check_fragment,
    render,
)
from .kripke import graph_nodes, node_restrictions, unravel_node

__all__ = ["oracle_eval", "oracle_sat", "DEFAULT_CANDIDATE_CAP"]

DEFAULT_CANDIDATE_CAP = 10**7
_EVAL_RESTRICTION_CAP = 10**6


def _closure(f):
    """One walk over the subformulas of f, children strictly before parents.

    Returns the walk's order, a table giving each subformula the triple
    (d_diamond, whether it contains Er, number of Diamond nodes), and
    the sorted atom names of f.  An Ar or a general Not raises the
    FragmentViolation of check_fragment."""
    order = []
    names = set()
    # a subformula is in facts once its walk is done; one equal to a
    # subformula still being walked would be its own descendant
    facts = {}
    stack = [(f, False)]
    while stack:
        g, done = stack.pop()
        kind = type(g)
        if done:
            if kind is And or kind is Or:
                d0, e0, n0 = facts[g.left]
                d1, e1, n1 = facts[g.right]
                facts[g] = (d0 if d0 > d1 else d1, e0 or e1, n0 + n1)
            elif kind is Diamond or kind is Box or kind is ExistsR:
                d, e, n = facts[g.body]
                if kind is ExistsR:
                    facts[g] = (d, True, n)
                else:
                    facts[g] = (d + 1, e, n + (kind is Diamond))
            else:
                check_fragment(f)
            order.append(g)
        elif g not in facts:
            if kind is Atom or kind is NegAtom:
                names.add(g.name)
                facts[g] = (0, False, 0)
                order.append(g)
            elif kind is And or kind is Or:
                stack += ((g, True), (g.right, False), (g.left, False))
            else:
                stack += ((g, True), (g.body, False))
    return order, facts, tuple(sorted(names))


def _cut(profiles):
    """profiles, or the set of its bitwise union when the union is one of
    them: that profile dominates the rest (see the module docstring)."""
    union = 0
    for p in profiles:
        union |= p
    return {union} if union in profiles else profiles


class _ProfileSpace:
    """Bit-level bookkeeping for profiles over the closure of a formula.

    A profile is an int whose bit i says whether closure formula i holds
    at a node.  Modal bits are derived from a summary pair (wit, vio):
    wit marks diamond formulas some chosen child witnesses, vio marks
    box formulas some chosen child violates.  Literal bits depend only on
    the valuation; the and/or bits are then set by ops, a list of
    (is_and, bit, mask of the two children) in closure order.  order,
    when given, is the closure order of f from _closure.

    A formula with Er gets one of the two Er-free readings of oracle_sat.
    Without empty, each Er psi shares the bit of psi (the lower
    reading).  With empty, a predicate that says a body is
    unsatisfiable, Er psi takes the bit of the image of psi, or a bit no
    profile has when empty(psi) (the upper reading); the image of a box is
    a bit every profile has, and a diamond or and/or whose operands'
    images are their own bits is its own image.
    """

    def __init__(self, f, order=None, empty=None):
        if order is None:
            order = _closure(f)[0]
        self.bit = bit = {}
        self.pos = pos = []
        self.neg = neg = []
        self.dia = dia = []
        self.box = box = []
        self.ops = ops = []
        dia_mask = box_mask = const = 0
        b = 1
        img = None
        if empty is not None:
            # the upper reading: one bit every profile has, one none has,
            # and the image of each closure formula, which differs from
            # its own bit only above a box
            const, bottom = b, b << 1
            b <<= 2
            img = {}
        for g in order:
            kind = type(g)
            if kind is ExistsR:
                if img is None:
                    bit[g] = bit[g.body]
                else:
                    bit[g] = img[g] = bottom if empty(g.body) else img[g.body]
                continue
            bit[g] = b
            if kind is Atom:
                pos.append((g.name, b))
            elif kind is NegAtom:
                neg.append((g.name, b))
            elif kind is And or kind is Or:
                ops.append((kind is And, b, bit[g.left] | bit[g.right]))
            elif kind is Diamond:
                dia.append((b, bit[g.body]))
                dia_mask |= b
            elif kind is Box:
                box.append((b, bit[g.body]))
                box_mask |= b
            else:
                raise FragmentViolation(f"cannot evaluate {render(g)} in a profile")
            b <<= 1
            if img is None:
                continue
            if kind is Box:
                img[g] = const
            elif kind is Diamond and img[g.body] != bit[g.body]:
                img[g] = b
                dia.append((b, img[g.body]))
                dia_mask |= b
                b <<= 1
            elif (kind is And or kind is Or) and (
                img[g.left] != bit[g.left] or img[g.right] != bit[g.right]
            ):
                img[g] = b
                ops.append((kind is And, b, img[g.left] | img[g.right]))
                b <<= 1
            else:
                img[g] = bit[g]
        self.goal = bit[f]
        self.const = const
        self.dia_mask = dia_mask
        self.box_mask = box_mask
        self._literals = {}
        self._deltas = {}

    def delta(self, profile):
        """The (wit, vio) pair that one child with the given profile adds."""
        got = self._deltas.get(profile)
        if got is None:
            wit = 0
            for b, body in self.dia:
                if profile & body:
                    wit |= b
            vio = 0
            for b, body in self.box:
                if not profile & body:
                    vio |= b
            got = self._deltas[profile] = (wit, vio)
        return got

    def profile(self, valuation, wit, vio):
        bits = self._literals.get(valuation)
        if bits is None:
            bits = self.const
            for name, b in self.pos:
                if name in valuation:
                    bits |= b
            for name, b in self.neg:
                if name not in valuation:
                    bits |= b
            self._literals[valuation] = bits
        bits |= (wit & self.dia_mask) | (self.box_mask & ~vio)
        for is_and, b, mask in self.ops:
            if (bits & mask == mask) if is_and else (bits & mask):
                bits |= b
        return bits

    def summaries(self, child_profile_sets, tick):
        """All (wit, vio) pairs reachable by keeping at most one profile per
        child, children considered independently; tick, unless None, is
        called once per pair of each step.

        Each step combines the pairs so far with the distinct deltas of
        the child's set, computed once per set object.  A child whose
        profile set is the very object of one that already added nothing
        is skipped: summaries combine by bitwise or, so a set that adds
        nothing to the pairs at one step adds nothing later."""
        out = {(0, 0)}
        idle = last = deltas = None
        for profs in child_profile_sets:
            if profs is idle:
                continue
            if profs is not last:
                last = profs
                deltas = {self.delta(p) for p in profs}
            new = set(out)
            for w0, v0 in out:
                if tick is not None:
                    tick()
                for dw, dv in deltas:
                    new.add((w0 | dw, v0 | dv))
            if len(new) == len(out):
                idle = profs
            out = new
        return out


def _restriction_satisfiable(node, depth, space, tick):
    """Does some root-keeping restriction of the unravelling of node to
    the given depth satisfy the quantifier-free formula of space?  tick,
    unless None, is called once per (node, depth) visited and passed on
    to space.summaries.

    Equivalent to enumerating every restriction and evaluating, folded
    into one bottom-up pass: each node's achievable profiles arise from
    its valuation and an independent drop-or-restrict choice per child,
    and are cut as the module docstring says.  The pass runs on the
    nodes themselves, a child of (node, d) being (successor, d - 1), and
    visits each (node, d) once, as kripke.unravel_node builds each
    subtree once; so it needs no unravelled copy, and the one profile
    set of a pair reached along several paths lets summaries skip the
    repeats.  The walk is post-order on an explicit stack, so depth
    costs no Python stack.  The nodes must stay alive during the pass.
    """
    achievable = {}
    profile = space.profile
    stack = [(node, depth, False)]
    while stack:
        n, d, ready = stack.pop()
        key = (id(n), d)
        if key in achievable:
            continue
        valuation, kids = n
        if ready:
            sums = space.summaries([achievable[id(k), d - 1] for k in kids], tick)
            achievable[key] = _cut({profile(valuation, w, v) for w, v in sums})
            continue
        if tick is not None:
            tick()
        if d <= 0 or not kids:
            achievable[key] = {profile(valuation, 0, 0)}
        else:
            stack.append((n, d, True))
            stack.extend((k, d - 1, False) for k in kids)
    return any(p & space.goal for p in achievable[id(node), depth])


class _Call:
    """What one public oracle call shares across every model, candidate
    tree and restriction it visits: the closure facts of the formulas it
    walked (see _closure), the facts per quantified body and the
    deadline."""

    def __init__(self, time_budget):
        self.budget = time_budget
        self.deadline = None if time_budget is None else perf_counter() + time_budget
        # the tick for the profile passes' inner loops; None without a
        # deadline, so those loops then make no call at all
        self.inner_tick = None if time_budget is None else self.tick
        self.facts = {}
        self.bodies = {}

    def tick(self):
        if self.deadline is not None and perf_counter() > self.deadline:
            raise ResourceLimit(f"time budget exhausted in the oracle ({self.budget} s)")

    def body(self, psi):
        """(d_diamond(psi), the _ProfileSpace of psi or None when psi
        contains Er), computed once per call.  A body that no walk of the
        call has reached yet (oracle_eval meets them lazily) is walked
        here, and its space is built from that walk."""
        got = self.bodies.get(psi)
        if got is None:
            facts = self.facts
            order = None
            if psi not in facts:
                order, more, _ = _closure(psi)
                facts.update(more)
            depth, has_exists, _ = facts[psi]
            space = None if has_exists else _ProfileSpace(psi, order)
            got = self.bodies[psi] = (depth, space)
        return got


class _Eval:
    """Truth of formulas at the nodes of one model or tree in node form
    (see kripke), memoised per node and formula.  The memos are keyed by
    node identity, so an _Eval lives no longer than the nodes it saw."""

    def __init__(self, call):
        self.call = call
        self.memo = {}
        self.trees = {}

    def eval(self, node, f):
        key = (id(node), f)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = self._eval(node, f)
        return got

    def _eval(self, node, f):
        kind = type(f)
        if kind is Atom:
            return f.name in node[0]
        if kind is NegAtom:
            return f.name not in node[0]
        if kind is And or kind is Or:
            # the operands of a chain of this connective, left to right
            # from an explicit stack, with the recursive walk's short
            # circuit, so a deep chain costs no recursion; a chain node
            # already in the memo counts as an operand
            decides = kind is Or
            memo, at = self.memo, id(node)
            todo = [f.right, f.left]
            while todo:
                g = todo.pop()
                if type(g) is kind and (at, g) not in memo:
                    todo += (g.right, g.left)
                elif bool(self.eval(node, g)) is decides:
                    return decides
            return not decides
        if kind is Diamond:
            return any(self.eval(k, f.body) for k in node[1])
        if kind is Box:
            return all(self.eval(k, f.body) for k in node[1])
        if kind is ExistsR:
            return self._exists(node, f.body)
        raise FragmentViolation(f"cannot evaluate {render(f)}")

    def _exists(self, node, psi):
        call = self.call
        depth, space = call.body(psi)
        if space is not None:
            return _restriction_satisfiable(node, depth, space, call.inner_tick)
        tree = unravel_node(node, depth, self.trees)
        count = 0
        for candidate in node_restrictions(tree):
            count += 1
            if count > _EVAL_RESTRICTION_CAP:
                raise ResourceLimit(
                    f"more than {_EVAL_RESTRICTION_CAP} restrictions"
                    f" while evaluating Er {render(psi)}"
                )
            call.tick()
            if _Eval(call).eval(candidate, psi):
                return True
        return False


def oracle_eval(a, f, time_budget=None):
    """Truth of f at the pointed model a under the brute-force semantics.

    Raises ResourceLimit past _EVAL_RESTRICTION_CAP restrictions for one Er, or
    once time_budget seconds have passed (checked once per restriction).
    """
    check_fragment(f)
    node = graph_nodes(a.model)[a.point]
    return _Eval(_Call(time_budget)).eval(node, f)


# --- bounded-tree satisfiability ---------------------------------------------


@lru_cache(maxsize=32)
def _valuations(atom_names):
    """Every subset of the tuple atom_names, as frozensets, smallest first."""
    return tuple(
        frozenset(combo)
        for r in range(len(atom_names) + 1)
        for combo in combinations(atom_names, r)
    )


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


def _profile_sat(space, depth, branching, vals, call):
    """Bounded-class satisfiability for the quantifier-free formula of
    space: iterate the set of achievable node profiles level by level up
    to the depth bound, cut as the module docstring says, and stop at
    the first level that holds the goal."""
    goal = space.goal
    profile = space.profile
    level = _cut({profile(v, 0, 0) for v in vals})
    for _ in range(depth):
        if any(p & goal for p in level):
            return True
        call.tick()
        summaries = space.summaries([level] * branching, call.inner_tick)
        nxt = set(level)
        for v in vals:
            for w, vi in summaries:
                nxt.add(profile(v, w, vi))
        nxt = _cut(nxt)
        if nxt == level:
            break
        level = nxt
    return any(p & goal for p in level)


def _bracket(f, order, vals, call):
    """True when the lower reading of f is satisfiable on the bounded
    class, False when the upper one is not, None when they disagree (see
    oracle_sat).  A formula without Er is its own lower and upper
    reading, so this decides it."""
    depth, has_exists, branching = call.facts[f]
    if _profile_sat(_ProfileSpace(f, order), depth, branching, vals, call):
        return True
    if not has_exists:
        return False

    def empty(psi):
        d, space = call.body(psi)
        return space is not None and not _profile_sat(space, d, call.facts[psi][2], vals, call)

    if not _profile_sat(_ProfileSpace(f, order, empty), depth, branching, vals, call):
        return False
    return None


def _walk(f, vals, call, max_candidates):
    """The literal walk: evaluate f on every candidate tree of the bounded
    class, smallest first, until one satisfies it; ResourceLimit past
    max_candidates."""
    depth, _, branching = call.facts[f]
    max_nodes = _tree_counts(depth, branching)
    count = 0
    for n in range(1, max_nodes + 1):
        for tree in _trees_exact(n, depth, vals, branching):
            count += 1
            if count > max_candidates:
                raise ResourceLimit(
                    f"more than {max_candidates} candidate models for {render(f)}"
                )
            call.tick()
            if _Eval(call).eval(tree, f):
                return True
    return False


def oracle_sat(f, max_candidates=DEFAULT_CANDIDATE_CAP, time_budget=None):
    """Bounded-model satisfiability: true iff some tree over atoms(f) with
    depth at most d_diamond(f) and per-node branching at most the number
    of diamonds in f satisfies f.

    A formula without Er is decided by the profile fixpoint.  A formula
    with Er is first bracketed between two Er-free readings, each
    decided by the same fixpoint on the same bounded class:

    - the lower reading reads each Er psi as psi.  Every tree refines
      itself, and keeping every edge is one of the root-keeping
      restrictions the oracle tries, so a tree that satisfies the lower
      reading satisfies f: SAT when it is satisfiable.
    - the upper reading reads each Er psi as the image of psi: its boxes
      true and the Er nested in it read the same way, and false outright
      when psi has no Er and is unsatisfiable.  A restriction keeps the
      valuations and loses only successors, so a tree satisfies the image
      of psi wherever a restriction of its unravelling satisfies psi:
      UNSAT when the upper reading is unsatisfiable.

    Only when the two disagree are the candidate trees walked literally,
    smallest first; the walk raises ResourceLimit past max_candidates.
    Past time_budget seconds (checked once per candidate, per
    restriction, per fixpoint level and per summary pair of each child
    step) it raises ResourceLimit too.
    """
    call = _Call(time_budget)
    order, call.facts, names = _closure(f)
    vals = _valuations(names)
    verdict = _bracket(f, order, vals, call)
    return _walk(f, vals, call, max_candidates) if verdict is None else verdict
