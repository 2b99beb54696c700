"""Backtracking satisfiability solver for the existential refinement fragment.

The solver explores tableau branches depth-first, one activation per
state prefix and per quantifier child.  Every activation is a generator,
and one loop runs them all from one list used as a stack (the current
path of activations), so nesting costs no Python stack.  One
activation owns one P, which maps each triple to its position in the
activation's insertion order, and keeps one branch at a time: every
choice point remembers how far P, its buckets and the run's log reach
and truncates them back before the next alternative (an undo trail),
so neither P nor the log is ever copied.  Given P, the current
prefixes and start, how many entries at the front of P it inherited
processed (0 except in a quantifier child), an activation:

1. saturates P under the and/or/literal rules with a cursor worklist:
   the cursor passes each entry once per branch, runs and steps and
   literal steps (which copy the literal to every ancestor model prefix)
   in place, fills the buckets of diamonds, boxes and quantifiers, and
   records the first literal whose complement sits at an earlier
   position (the clash witness), but of an inherited entry it only
   buckets a box and checks a literal; each or is a chronological backtrack
   point and the place the time budget is checked.  The or choice
   points sit on an explicit stack inside one saturation loop, so a
   wide conjunction of disjunctions costs no stack depth.  A leaf with
   no diamond, no box at sigma and no quantifier has no children: it
   goes straight to step 3, and one with a clash witness rejects right
   there;
2. gives the leaf its children, each a choice point on one explicit
   stack, tried depth-first over every combination of child successes:
   the model checker's BOX1 children (see modelcheck), then for each
   unprocessed diamond at model prefix nu a child problem at a fresh
   successor prefix holding the diamond body plus every box body
   recorded at an ancestor prefix of nu, with start 0 (only its first
   success is taken; its alternatives are its target states), then for
   each unprocessed refinement quantifier a child activation at a fresh
   model prefix that inherits a copy of the ancestor-prefix slice of P
   (its alternatives are its accepted completions).  The literals at
   ancestor prefixes among a completion's own entries are appended to
   P, where later quantifier children see them (this is how clashes
   discovered in different subtrees meet), and removed when its choice
   point moves on.  The leaf asks for a child's next completion by
   yielding the child's generator; the loop runs the child and sends
   back its next completion, its P (the triples it produced are in the
   log), or None when it has no more.  A BOX1 or diamond child is
   dropped after its first success, and a quantifier child is yielded
   again when its next completion is needed, so neither wide nor deep
   input costs stack depth;
3. once every child has succeeded, rejects if saturation recorded a
   clash witness, else returns P.  Merged literals need no check of
   their own: the complement of one would already have been in the
   child's slice, so the child would have rejected.

Fresh indices come from one counter per run, never reset while
backtracking, so every prefix produced during a run is unique.  _add
also appends each new triple to the run's one log, which the choice
points cut back; at the root's accepted completion it holds the path's
triples in order, a branch that sat() checks is complete and clash-free.

Each activation is passed the one model state its state prefix is
pinned to (None in sat).  The model checker subclasses the engine; the
modelcheck docstring describes its point, _add and hooks.
"""

import functools
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
    trace: bool = False             # record trace lines in SatResult.trace
    trace_out: object = None        # stream for live trace lines; also turns tracing on


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
    """One activation's input: the triples P, the current state prefix
    and the fresh-index counter."""

    entries: tuple
    sigma: tuple = (1,)
    counter: int = 1


@dataclass
class SatResult:
    satisfiable: bool
    branch: Branch = None
    stats: SearchStats = field(default_factory=SearchStats)
    trace: tuple = ()

    @functools.cached_property
    def models(self):
        """The witness ModelChain, read off the branch on first access and
        cached; None on UNSAT."""
        return None if self.branch is None else _read_models(self.branch)


class _Engine:
    def __init__(self, opts=None):
        self.opts = opts or SolverOptions()
        self.point = None  # the model state the root's prefix is pinned to
        self.counter = 1
        self.stats = SearchStats()
        self.trace = [] if self.opts.trace or self.opts.trace_out is not None else None
        self.deadline = (
            time.monotonic() + self.opts.time_budget
            if self.opts.time_budget is not None
            else None
        )
        self.last_clash = None
        self.log = []  # the triples produced along the current path, in order

    # -- hooks for the model-checking variant ---------------------------------

    def _successor_states(self, state):
        """The states to pin a fresh successor prefix of a prefix pinned to
        state to, tried in order; one unpinned try in sat."""
        return (None,)

    def _box1_targets(self, boxes, state):
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

    def _add(self, P, order, adds, state):
        """Append the adds not yet in P to order and to the log and record
        their positions in P, in place.  True: satisfiability admits every
        literal; the model checker's override returns False on one that is
        inadmissible."""
        st = self.stats
        log = self.log
        for a in adds:
            if a in P:
                continue
            P[a] = len(order)
            order.append(a)
            log.append(a)
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

    def solve(self, root_entries, sigma):
        """First accepted completion, the final P, or None; on a completion
        self.log holds the triples produced along its path.  Every entry
        carries its own model prefix, so only the state prefix is passed.

        Every activation is a generator, and one list used as a stack runs
        them all, the innermost last.  An activation that yields a
        generator asks for that child's next completion: the child is
        pushed and resumed.  One that yields a completion (its P, a dict)
        or None (it has no more) is popped, and what it yielded is sent to
        its parent.  The rest of the root's search is dropped, so nothing
        ever truncates the P it returns or the log."""
        stack = [self._activate({}, [], root_entries, 0, sigma, 1, self.point)]
        got = None
        while stack:
            got = stack[-1].send(got)
            if got is None or type(got) is dict:
                stack.pop()
            else:
                stack.append(got)
                got = None
        return got

    def _activate(self, P, order, adds, start, sigma, depth, state):
        """The activation that owns P and order, started by adding adds to
        them: a generator that yields each child activation it needs the
        next completion of (solve sends it back, or None when the child has
        no more), each of its own accepted completions (P alone) and
        finally None, after which it is never resumed.  None is yielded
        rather than returned because catching StopIteration from every
        exhausted activation costs more.  P, order and the log are undone
        in place on backtracking, so a consumer that keeps one must copy
        it before resuming the activation.  state is the model
        state sigma is pinned to (None in sat).  Only an activation with
        start 0, one that introduced sigma, asks for BOX1 children: a
        quantifier child's inherited slice holds at least its own Er entry.

        P maps each entry to its position in order, its triples in
        insertion order.  The first start entries are the inherited slice,
        whose and/or/literals the parent processed and whose diamonds and
        quantifiers it gave children; each later entry sits at a fresh
        model prefix or is a literal copy not in the slice.  One loop runs
        the saturation cursor.  Every entry of order before the cursor has
        been passed once on this branch: processed if it is an and/or/literal
        entry past start, put into its bucket if it is a diamond past start
        (dias), a box at sigma (boxes) or a quantifier past start (ns), and
        checked against P for its complement if it is a literal.  clash is
        the first literal whose complement sits at an earlier position, the
        witness a scan of the final P in order would report.  And and
        literal steps extend P in place, so at a saturated leaf every
        and/or/literal of P is processed.

        An or is a choice point on the stack ors: the or entry, the cursor
        and clash witness just past it, and the lengths of order, the log
        and the three buckets.  The left alternative extends P in place.
        When an alternative is rejected or its leaf is exhausted, the
        innermost point is popped, P, order, the log and the buckets are
        truncated back to it, and its right alternative is taken.

        A leaf with no children rejects on its clash witness right away.
        Otherwise each child is a choice point on the stack kids:
        (alternatives, rules, premises, conclusions, len(order), len(log)).
        Each alternative starts from P and order truncated back to their
        lengths at push.  A BOX1 or diamond child draws its fresh successor
        prefix when pushed; each alternative (target state) also cuts the
        log back and asks a fresh activation for its first success only.
        A quantifier child draws its fresh model prefix and creates its
        activation when pushed; rules is None, premises is its model prefix
        nu, conclusions its order and the last slot its start, and each
        alternative is that activation's next completion, whose own
        literals at ancestor prefixes of nu are merged into P.  Its
        choice point keeps no log length and does not cut the log: the
        suspended child cuts it through its own choice points, which all
        lie above the length at push."""
        if not self._add(P, order, adds, state):
            yield None
            return
        st = self.stats
        st.activations += 1
        if st.activations > self.opts.node_budget:
            raise ResourceLimit(f"activation budget exhausted ({self.opts.node_budget})")
        self._check_time()
        if depth > st.max_depth:
            st.max_depth = depth
        tracing = self.trace is not None
        deadline = self.deadline
        add = self._add
        complements = _COMPLEMENTS
        dias, boxes, ns = [], [], []
        cursor, clash = 0, None
        ors = []
        while True:
            n = len(order)
            leaf = True
            while cursor < n:
                e = order[cursor]
                cursor += 1
                f = e[2]
                t = type(f)
                if t is Atom or t is NegAtom:
                    if clash is None:
                        # the cursor is already past e, which is not its own complement
                        c = complements.get((t, f.name)) or _complement(t, f.name)
                        at = P.get((e[0], e[1], c))
                        if at is not None and at < cursor:
                            clash = (e[0], e[1], f.name)
                    # at model prefix 1 a literal step adds nothing
                    if len(e[0]) == 1 or cursor <= start:
                        continue
                    nu, sg, _ = e
                    adds = [(nu[:k], sg, f) for k in range(len(nu) - 1, 0, -1)]
                    adds = [x for x in adds if x not in P]
                    if not adds:
                        continue
                    if tracing:
                        self._emit("L", e, adds)
                elif t is And or t is Or:
                    if cursor <= start:
                        continue
                    nu, sg, _ = e
                    if t is And:
                        adds = ((nu, sg, f.left), (nu, sg, f.right))
                        if tracing:
                            self._emit("AND", e, adds)
                    else:
                        ors.append((e, cursor, clash, len(order), len(self.log), len(dias),
                                    len(boxes), len(ns)))
                        if deadline is not None:
                            self._check_time()
                        adds = ((nu, sg, f.left),)
                        if tracing:
                            self._emit("OR", e, adds)
                else:
                    if t is Diamond:
                        if cursor > start:
                            dias.append(e)
                    elif t is Box:
                        if e[1] == sigma:
                            boxes.append(e)
                    elif t is ExistsR and cursor > start:
                        ns.append(e)
                    continue
                if not add(P, order, adds, state):
                    leaf = False
                    break
                n = len(order)
            if leaf and clash is not None and not (dias or boxes or ns):
                self._reject_clash(clash)
            elif leaf:
                boxes1, targets = self._box1_targets(boxes, state) if start == 0 else ((), ())
                nb = len(targets)
                nd = nb + len(dias)
                nk = nd + len(ns)
                kids = []
                while True:
                    k = len(kids)
                    if k == nk:
                        if clash is not None:
                            self._reject_clash(clash)
                        else:
                            yield P
                    elif k < nd:
                        sigma_i = sigma + (self._fresh(),)
                        if k < nb:
                            rules, premises = ("BOX1", "BOX1"), boxes1
                            states = (targets[k],)
                        else:
                            e = dias[k - nb]
                            nu = e[0]
                            rules = ("DIA", "BOX")
                            premises = [e] + [b for b in boxes if is_prefix_of(b[0], nu)]
                            states = self._successor_states(state)
                        concls = [(x[0], sigma_i, x[2].body) for x in premises]
                        kids.append((iter(states), rules, premises, concls, len(order), len(self.log)))
                    else:
                        e = ns[k - nd]
                        nu = e[0]
                        new_entry = (nu + (self._fresh(),), sigma, e[2].body)
                        self._emit("EXR", e, [new_entry])
                        # the ancestor-prefix slice of P was admitted at this same
                        # state, so only the new entry needs the literal check
                        child_order = [x for x in order if is_prefix_of(x[0], nu)]
                        childP = {x: j for j, x in enumerate(child_order)}
                        child = self._activate(childP, child_order, (new_entry,), len(child_order),
                                               sigma, depth + 1, state)
                        kids.append((child, None, nu, child_order, len(order), len(child_order)))
                    # move the innermost child to its next success
                    while kids:
                        alts, rules, premises, concls, m, c = kids[-1]
                        _truncate(P, order, m)
                        if rules is None:
                            got = yield alts
                        else:
                            got = None
                            for state_i in alts:
                                del self.log[c:]
                                if tracing:
                                    for i, x in enumerate(premises):
                                        self._emit(rules[i > 0], x, [concls[i]])
                                got = yield self._activate({}, [], concls, 0, concls[0][1],
                                                           depth + 1, state_i)
                                if got is not None:
                                    break
                        if got is None:
                            kids.pop()
                            continue
                        if rules is None:
                            # concls is the child's order and c its start
                            for x in concls[c:]:
                                if is_prefix_of(x[0], premises) and is_literal(x[2]):
                                    P[x] = len(order)
                                    order.append(x)
                            if len(P) > st.max_p_size:
                                st.max_p_size = len(P)
                        break
                    else:
                        break
            # take the right alternative of the innermost or choice point
            while ors:
                e, cursor, clash, m, lg, ld, lb, ln = ors.pop()
                _truncate(P, order, m)
                del self.log[lg:]
                del dias[ld:], boxes[lb:], ns[ln:]
                if deadline is not None:
                    self._check_time()
                adds = ((e[0], e[1], e[2].right),)
                if tracing:
                    self._emit("OR", e, adds)
                if add(P, order, adds, state):
                    break
            else:
                break
        yield None


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
    got = engine.solve([((1,), (1,), f)], (1,))
    trace = tuple(engine.trace or ())
    if got is None:
        return SatResult(False, stats=engine.stats, trace=trace)
    branch = Branch(engine.log, next_index=engine.counter)
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
    final_P = engine.solve(list(state.entries), state.sigma)
    if final_P is None:
        raise ClashFailure(engine.last_clash or ((1,), (1,), "?"))
    return tuple(final_P)
