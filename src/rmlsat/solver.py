"""Backtracking satisfiability solver for the existential refinement fragment.

The solver explores tableau branches with a recursive activation per
state prefix.  One activation owns one P, which maps each triple to its
position in the activation's insertion order (the produced triples),
and keeps one branch at a time: every choice point remembers how far P
and its buckets reach and truncates them back before the next
alternative (an undo trail), so P is never copied.  Given P, the
current prefixes and the processed marks M, an activation:

1. saturates P under the and/or/literal rules with a cursor worklist:
   the cursor passes each entry once per branch, runs and steps and
   literal steps (which copy the literal to every ancestor model prefix)
   in place, fills the buckets of diamonds, boxes and quantifiers, and
   records the first literal whose complement sits at an earlier
   position (the clash witness); each or is a chronological backtrack
   point and the place the time budget is checked.  The or choice
   points sit on an explicit stack inside one saturation loop, so a
   wide conjunction of disjunctions costs no stack depth.  A leaf with
   no diamond, no box at sigma and no quantifier has no children: it
   goes straight to step 3;
2. gives the leaf its children, each a choice point on one explicit
   stack, tried depth-first over every combination of child successes:
   the model checker's BOX1 children (see modelcheck), then for each
   unprocessed diamond at model prefix nu a child problem at a fresh
   successor prefix holding the diamond body plus every box body
   recorded at an ancestor prefix of nu, run with an empty mark set
   (only its first success is taken; its alternatives are its target
   contexts), then for each unprocessed refinement quantifier a child
   activation at a fresh model prefix on the ancestor-prefix slice of
   P, passing the current marks (its alternatives are its accepted
   completions).  The literal results a quantifier child's completion
   has at ancestor prefixes are appended to P, where later quantifier
   children see them (this is how clashes discovered in different
   subtrees meet), and removed when its choice point moves on.  A
   wide conjunction of diamonds or quantifiers costs no stack depth;
   nesting across activations still does;
3. once every child has succeeded, rejects if saturation recorded a
   clash witness, else returns P.  Merged literals need no check of
   their own: the complement of one would already have been in the
   child's slice, so the child would have rejected.

Fresh indices come from one counter per run, never reset while
backtracking, so every prefix produced during a run is unique.  The
union of all triples produced along an accepted path is a complete,
clash-free branch; sat() checks that on every SAT verdict, and reads the
witness models off it only when a caller asks for them.

The model checker subclasses the engine.  Three hooks cover everything
it needs to pin state prefixes to concrete model states: the initial
context, the target contexts of a fresh successor prefix and the data
of a leaf's BOX1 children (its boxes at model prefix 1 and the
successor states still to cover).  Its own _add rejects a literal that
does not hold at its pinned state.
"""

import time
from dataclasses import dataclass, field

from .errors import ResourceLimit
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExistsR,
    NegAtom,
    Or,
    check_fragment,
    is_literal,
    render,
)
from .tableau import (
    Branch,
    _check_acceptance,
    _read_models,
    format_rule_line,
    is_prefix_of,
    render_prefix,
)

__all__ = [
    "SolverOptions",
    "SearchStats",
    "SearchState",
    "SatResult",
    "ClashFailure",
    "sat",
    "run_activation",
]


# The formulas saturation processes: and, or and literals.
_SATURATED = (And, Or, Atom, NegAtom)


# Each literal's complement, keyed by the literal's (type, name).  It is
# a pure function of immutable values, so one table serves every run in
# the process; it holds two literals per atom name seen.  Building a
# literal validates its name again (about 1 us), and every parse makes
# fresh literal objects, so a table per run would rebuild them on every
# call.  The key hashes and compares in C, with no call of
# Formula.__hash__ or __eq__.
_COMPLEMENTS = {}


def _complement(t, name):
    c = _COMPLEMENTS[t, name] = NegAtom(name) if t is Atom else Atom(name)
    return c


def _exr_marks(a):
    """The marks quantifier children inherit: every mark of the saturated
    activation a, whose and/or/literal entries are all processed."""
    _, order, M, _, _, dias, _, ns = a
    if not ns:
        return M
    saturated = (x for x in order if isinstance(x[2], _SATURATED))
    return M.union(saturated, dias, ns)


def _truncate(P, order, m):
    """Undo every addition to P and order past position m."""
    for a in order[m:]:
        del P[a]
    del order[m:]


class ClashFailure(Exception):
    """Every choice sequence for the activation ran into a clash."""

    def __init__(self, witness):
        mu, sigma, name = witness
        super().__init__(
            f"clash on {name} at ({render_prefix(mu)},{render_prefix(sigma)})"
        )
        self.witness = witness


@dataclass
class SolverOptions:
    node_budget: int = 10**6        # maximum activations per run
    time_budget: float = None       # seconds, None for unlimited
    trace: bool = False
    trace_out: object = None        # stream for live trace lines


@dataclass
class SearchStats:
    activations: int = 0
    max_depth: int = 0
    max_p_size: int = 0
    backtracks: int = 0
    max_model_prefix_len: int = 0
    max_state_prefix_len: int = 0

    def summary(self):
        return (
            f"activations={self.activations} max_depth={self.max_depth}"
            f" max_p={self.max_p_size} backtracks={self.backtracks}"
            f" max_mu_len={self.max_model_prefix_len}"
            f" max_sigma_len={self.max_state_prefix_len}"
        )


@dataclass
class SearchState:
    """One activation's input: the triples P, the current state prefix,
    the processed marks and the fresh-index counter."""

    entries: tuple
    sigma: tuple = (1,)
    marks: frozenset = frozenset()
    counter: int = 1


@dataclass
class SatResult:
    satisfiable: bool
    branch: Branch = None
    stats: SearchStats = field(default_factory=SearchStats)
    trace: tuple = ()
    _models: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def models(self):
        """The witness ModelChain, read off the branch on first access and
        cached; None on UNSAT."""
        if self._models is None and self.branch is not None:
            self._models = _read_models(self.branch)
        return self._models


class _Engine:
    def __init__(self, opts=None):
        self.opts = opts or SolverOptions()
        self.counter = 1
        self.stats = SearchStats()
        self.trace = [] if self.opts.trace else None
        self.deadline = (
            time.monotonic() + self.opts.time_budget
            if self.opts.time_budget is not None
            else None
        )
        self.last_clash = None

    # -- hooks for the model-checking variant ---------------------------------

    def _initial_ctx(self):
        return None

    def _dia_contexts(self, sigma, sigma_i, ctx):
        """Contexts to try for a fresh successor prefix; one per admissible
        target state when states are being tracked."""
        return (ctx,)

    def _box1_targets(self, sigma, boxes, ctx):
        """(boxes, states): the boxes a BOX1 child at each of the states
        carries, or no states; only the model checker has BOX1 children."""
        return (), ()

    # -- bookkeeping -----------------------------------------------------------

    def _emit(self, rule, entry, conclusions):
        if self.trace is not None:
            self._emit_line(format_rule_line(rule, entry, conclusions))

    def _emit_line(self, line):
        """Record a trace line; callers build lines only when tracing is on."""
        self.trace.append(line)
        if self.opts.trace_out is not None:
            self.opts.trace_out.write(line + "\n")

    def _reject_clash(self, witness):
        self.stats.backtracks += 1
        self.last_clash = witness
        if self.trace is not None:
            mu, sigma, name = witness
            self._emit_line(
                f"REJECT ({render_prefix(mu)},{render_prefix(sigma)}) clash {name}"
            )

    def _reject_literal(self, entry):
        self.stats.backtracks += 1
        if self.trace is not None:
            mu, sigma, f = entry
            self._emit_line(
                f"REJECT ({render_prefix(mu)},{render_prefix(sigma)}) literal {render(f)}"
            )

    def _fresh(self):
        i = self.counter
        self.counter += 1
        return i

    def _add(self, P, order, adds, ctx):
        """Append the adds not yet in P to order and record their positions
        in P, in place.  True: satisfiability admits every literal; the
        model checker's override returns False on one that is
        inadmissible."""
        st = self.stats
        for a in adds:
            if a in P:
                continue
            P[a] = len(order)
            order.append(a)
            if len(a[0]) > st.max_model_prefix_len:
                st.max_model_prefix_len = len(a[0])
            if len(a[1]) > st.max_state_prefix_len:
                st.max_state_prefix_len = len(a[1])
        if len(P) > st.max_p_size:
            st.max_p_size = len(P)
        return True

    def _check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit("time budget exhausted")

    # -- the procedure ----------------------------------------------------------

    def solve(self, root_entries, sigma, marks):
        """First accepted completion: (final P, produced triples) or None.
        Every entry carries its own model prefix, so only the state prefix
        is passed."""
        return self._first(root_entries, frozenset(marks), sigma, 1, self._initial_ctx())

    def _first(self, entries, M, sigma, depth, ctx):
        """The first accepted completion of a fresh activation on entries,
        or None.  The rest of its search is dropped, so nothing ever
        truncates the P and produced triples it returns."""
        P, order = {}, []
        if not self._add(P, order, entries, ctx):
            return None
        for got in self._activate(P, order, M, sigma, depth, ctx):
            return got
        return None

    def _activate(self, P, order, M, sigma, depth, ctx):
        """A generator of every accepted completion (P, produced triples) of
        the activation that owns P and order.  Both are undone in place on
        backtracking, so a consumer that keeps either must copy it before
        resuming the generator.

        Saturation and the modal phase share the activation as the tuple
        a = (P, order, M, sigma, depth, dias, boxes, ns).  P maps each
        entry to its position in order, the produced triples in insertion
        order.  dias, boxes and ns are the buckets the saturation cursor fills as it passes
        entries: the unprocessed diamonds, the boxes at sigma and the
        unprocessed quantifiers, each in order.  A choice point truncates
        P, order and the buckets back to their lengths on entry, so the
        branch is never copied."""
        st = self.stats
        st.activations += 1
        if st.activations > self.opts.node_budget:
            raise ResourceLimit(f"activation budget exhausted ({self.opts.node_budget})")
        self._check_time()
        if depth > st.max_depth:
            st.max_depth = depth
        if len(P) > st.max_p_size:
            st.max_p_size = len(P)
        return self._saturate((P, order, M, sigma, depth, [], [], []), ctx)

    def _saturate(self, a, ctx):
        """Saturate under and/or/literal, then go on to the modal phase.

        One loop runs the saturation cursor.  Every entry of order before
        the cursor has been passed once on this branch: processed if it is
        an unmarked and/or/literal entry, put into its bucket if it is a
        diamond, a box or a quantifier, and checked against P for its
        complement if it is a literal.  clash is the first literal whose
        complement sits at an earlier position, the witness a scan of the
        final P in order would report; the activation rejects on it at the
        end.  And/literal steps extend P in place.  An entry counts as
        marked once the cursor passes it, so M itself does not grow here:
        after saturation every and/or/literal entry of P is processed, and
        the modal phase reads M that way.

        An or is a choice point on an explicit stack.  It holds the or
        entry, the cursor and clash witness just past it, and the lengths
        of order and the three buckets.  The left alternative extends P in
        place.  When an alternative is rejected or its leaf is exhausted,
        the innermost point is popped, P, order and the buckets are
        truncated back to it, and its right alternative is taken, so
        nothing recurses per alternative.  A leaf with no diamond, no box
        at sigma and no quantifier has no modal phase to run: it rejects on
        the clash witness or yields (P, order) right there."""
        P, order, M, sigma, _, dias, boxes, ns = a
        tracing = self.trace is not None
        deadline = self.deadline
        add = self._add
        complements = _COMPLEMENTS
        cursor, clash = 0, None
        stack = []
        while True:
            n = len(order)
            while True:
                while cursor < n:
                    e = order[cursor]
                    f = e[2]
                    t = type(f)
                    if t is Atom or t is NegAtom:
                        if clash is None:
                            c = complements.get((t, f.name)) or _complement(t, f.name)
                            at = P.get((e[0], e[1], c))
                            if at is not None and at < cursor:
                                clash = (e[0], e[1], f.name)
                        # at model prefix 1 a literal step adds nothing
                        if len(e[0]) > 1 and e not in M:
                            break
                    elif t is And or t is Or:
                        if e not in M:
                            break
                    elif t is Diamond:
                        if e not in M:
                            dias.append(e)
                    elif t is Box:
                        if e[1] == sigma:
                            boxes.append(e)
                    elif t is ExistsR and e not in M:
                        ns.append(e)
                    cursor += 1
                else:
                    if dias or boxes or ns:
                        yield from self._modal_phase(a, ctx, clash)
                    elif clash is not None:
                        self._reject_clash(clash)
                    else:
                        yield P, order
                    break
                cursor += 1
                nu, sg, _ = e
                if t is And:
                    adds = ((nu, sg, f.left), (nu, sg, f.right))
                    if tracing:
                        self._emit("AND", e, adds)
                elif t is Or:
                    stack.append((e, cursor, clash, len(order), len(dias), len(boxes), len(ns)))
                    if deadline is not None:
                        self._check_time()
                    adds = ((nu, sg, f.left),)
                    if tracing:
                        self._emit("OR", e, adds)
                else:
                    adds = [(nu[:k], sg, f) for k in range(len(nu) - 1, 0, -1)]
                    adds = [x for x in adds if x not in P]
                    if not adds:
                        continue
                    if tracing:
                        self._emit("L", e, adds)
                if not add(P, order, adds, ctx):
                    break
                n = len(order)
            # take the right alternative of the innermost or choice point
            while stack:
                e, cursor, clash, m, nd, nb, nn = stack.pop()
                _truncate(P, order, m)
                del dias[nd:], boxes[nb:], ns[nn:]
                if deadline is not None:
                    self._check_time()
                adds = ((e[0], e[1], e[2].right),)
                if tracing:
                    self._emit("OR", e, adds)
                if add(P, order, adds, ctx):
                    break
            else:
                return

    def _modal_phase(self, a, ctx, clash):
        """Give the saturated leaf its children (step 2 of the module
        docstring), then reject on the clash witness or yield (P, produced
        triples), over every combination of first child successes.

        Each child is a choice point on one explicit stack.  A BOX1 or
        diamond child draws its fresh successor prefix when pushed, and
        each of its alternatives (target contexts) runs a fresh activation
        to its first success.  A quantifier child draws its fresh model
        prefix and starts its activation when pushed, and each of its
        alternatives (accepted completions) merges its literals at
        ancestor prefixes into P.  contrib lists the triples produced so
        far; it starts out as order itself and is copied before the first
        append to either.  Every alternative starts from P, order and
        contrib truncated back to their lengths when its choice point was
        pushed.  ctx is the context of the innermost alternative taken."""
        P, order, _, sigma, depth, dias, boxes, ns = a
        boxes1, targets = self._box1_targets(sigma, boxes, ctx)
        nb = len(targets)
        nd = nb + len(dias)
        n = nd + len(ns)
        tracing = self.trace is not None
        contrib, M2 = order, None
        # a choice point is (alternatives, rules, premises, conclusions,
        # len(order), len(contrib)); a quantifier child's has rules None
        # and its model prefix nu as premises
        stack = []
        while True:
            k = len(stack)
            if k == n:
                if clash is not None:
                    self._reject_clash(clash)
                else:
                    yield P, contrib
            elif k < nd:
                sigma_i = sigma + (self._fresh(),)
                if k < nb:
                    rules, premises = ("BOX1", "BOX1"), boxes1
                    contexts = ({**ctx, sigma_i: targets[k]},)
                else:
                    e = dias[k - nb]
                    nu = e[0]
                    rules = ("DIA", "BOX")
                    premises = [e] + [b for b in boxes if is_prefix_of(b[0], nu)]
                    contexts = self._dia_contexts(sigma, sigma_i, ctx)
                concls = [(x[0], sigma_i, x[2].body) for x in premises]
                stack.append((iter(contexts), rules, premises, concls, len(order), len(contrib)))
            else:
                if M2 is None:
                    M2 = _exr_marks(a)
                e = ns[k - nd]
                nu = e[0]
                new_entry = (nu + (self._fresh(),), sigma, e[2].body)
                self._emit("EXR", e, [new_entry])
                # the ancestor-prefix slice of P was admitted under this same
                # state pinning, so only the new entry needs the literal check
                child_order = [x for x in order if is_prefix_of(x[0], nu)]
                childP = {x: j for j, x in enumerate(child_order)}
                if self._add(childP, child_order, [new_entry], ctx):
                    alts = self._activate(childP, child_order, M2, sigma, depth + 1, ctx)
                else:
                    alts = iter(())
                stack.append((alts, None, nu, None, len(order), len(contrib)))
            # move the innermost choice point to its next child success
            while stack:
                alts, rules, premises, concls, m, c = stack[-1]
                _truncate(P, order, m)
                del contrib[c:]
                got = None
                if rules is None:
                    got = next(alts, None)
                else:
                    for ctx in alts:
                        if tracing:
                            for i, x in enumerate(premises):
                                self._emit(rules[i > 0], x, [concls[i]])
                        got = self._first(concls, frozenset(), concls[0][1], depth + 1, ctx)
                        if got is not None:
                            break
                if got is None:
                    stack.pop()
                    continue
                if contrib is order:
                    contrib = order[:]
                if rules is None:
                    for x in got[0]:
                        if x not in P and is_prefix_of(x[0], premises) and is_literal(x[2]):
                            P[x] = len(order)
                            order.append(x)
                    if len(P) > self.stats.max_p_size:
                        self.stats.max_p_size = len(P)
                contrib.extend(got[1])
                break
            else:
                return


def sat(f, opts=None):
    """Decide satisfiability of f; on success the result carries the branch,
    the witness models (read on first access) and the search statistics.
    Every SAT verdict is first checked to rest on a complete, clash-free
    branch (tableau.Clash / tableau.NotComplete otherwise).

    Raises FragmentViolation outside the existential fragment and ResourceLimit
    when a budget runs out (never silently reported as unsatisfiable).
    """
    check_fragment(f)
    engine = _Engine(opts)
    got = engine.solve([((1,), (1,), f)], (1,), frozenset())
    trace = tuple(engine.trace or ())
    if got is None:
        return SatResult(False, stats=engine.stats, trace=trace)
    _, contrib = got
    branch = Branch(contrib, next_index=engine.counter)
    _check_acceptance(branch)
    return SatResult(True, branch, engine.stats, trace)


def run_activation(state, opts=None):
    """Run a single activation to its first accepted completion.

    Returns the final P as a tuple of triples (literal results from
    quantifier children merged in); raises ClashFailure when every
    choice sequence clashes.
    """
    engine = _Engine(opts)
    engine.counter = state.counter
    got = engine.solve(list(state.entries), state.sigma, frozenset(state.marks))
    if got is None:
        raise ClashFailure(engine.last_clash or ((1,), (1,), "?"))
    final_P, _ = got
    return tuple(final_P)
