"""Backtracking satisfiability solver for the existential refinement fragment.

The solver explores tableau branches depth-first, one activation per
state prefix and per quantifier child.  Every activation is a generator,
and one loop runs them all from one list used as a stack (the current
path of activations), so nesting costs no Python stack.  All entries of
one activation sit at its state prefix sigma, so it keys them by
(model prefix, formula); only the run's log holds triples.  One
activation owns one P, which maps each of its own entries to its
position in the activation's insertion order, and keeps one branch at
a time: every choice point remembers how far P, its buckets and the
run's log reach and truncates them back before the next alternative
(an undo trail), so neither P nor the log is ever copied.  A quantifier
child also sees the entries it inherits, which it reads in place in the
P of its suspended parents (see _Engine._activate).  An activation:

1. saturates P under the and/or/literal rules with a cursor worklist:
   the cursor passes each of its own entries once per branch, runs and
   steps and literal steps (which copy the literal to every ancestor
   model prefix not yet seen) in place, fills the buckets of diamonds,
   boxes and quantifiers, and records the first literal whose
   complement sits at an earlier position (the clash witness); each or
   is a chronological backtrack point and the place the time budget is
   checked.  The or choice points sit on an explicit stack inside one
   saturation loop, so a wide conjunction of disjunctions costs no
   stack depth.  A leaf with no diamond, no box and no quantifier has
   no children: it goes straight to step 3, and one with a clash
   witness rejects right there;
2. gives the leaf its children, each a choice point on one explicit
   stack, tried depth-first over every combination of child successes:
   in check the BOX1 children (see below), then for each diamond at
   model prefix nu a child problem at a fresh successor prefix holding
   the diamond body plus every box body recorded at an ancestor prefix
   of nu, which inherits nothing (only its first success is taken; its
   alternatives are its target states), then for each refinement
   quantifier at nu a child activation at a fresh
   model prefix below nu (its alternatives are its accepted
   completions).  That child copies nothing: it inherits the entries at
   prefixes no longer than nu, which it looks up in its parents' P, the
   boxes among them and their first clash, which is the leaf's own
   witness unless that one sits deeper than nu.  The literals at
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
   their own: the complement of one would already have been visible to
   the child, so the child would have rejected.

So k conjoined quantifiers cost O(k + |P|), not a copy of P each.

Fresh indices come from one counter per run, never reset while
backtracking, so every prefix produced during a run is unique.  In sat
each entry new to P is also appended to the run's one log as a triple,
which the choice points cut back; at the root's accepted completion it
holds the path's triples in order, a branch that sat() checks is
complete and clash-free.

Model checking (modelcheck.check) runs the same engine with the checked
pointed model as data: _Engine(opts, pointed) keeps the model and its
point, and every state prefix is pinned to one state of the model.
All entries of an activation sit at its state prefix, so each
activation is passed just the state that prefix is pinned to, None in
sat; that one value selects between sat and check wherever they differ:

- prefix 1 is pinned to the point;
- when a diamond introduces a fresh successor prefix under a prefix
  pinned to v, the new prefix is pinned to some successor of v (one
  backtracking choice per successor, tried in state order; in sat one
  unpinned try);
- every literal entry must hold at the state its prefix is pinned to:
  the add blocks reject a new literal that does not hold there, and
  keep no log (check needs only a verdict, so it builds no list of
  produced triples);
- box entries at model prefix 1 speak about the real model, so an extra
  expansion (BOX1) gives every successor of the state a fresh pinned
  prefix carrying all prefix-1 box bodies, each a BOX1 child, the first
  children of the leaf.  They run right after saturation, before any
  diamond child is pinned; the box bodies must hold at every successor
  anyway, so BOX1 loses no branch.

BOX1 runs once per state prefix, in the activation that introduced it
(the root, a BOX1 child or a diamond child: the ones that inherit no
entries), and covers every successor there.  A quantifier child shares
its parent's state prefix and adds no BOX1 child: saturation adds only
literals at model prefix 1, so its boxes there are its parent's, which
the parent's BOX1 children already carry to every successor.  Two
fresh prefixes at the same state may be pinned to the same model state.
Since activations run from one explicit stack, 10,000 nested `<>` or
`[]` over `p` are checked on a one-state loop in time and memory that
grow with the whole-path state prefixes.
"""

import functools
import time
from itertools import islice

from ._record import _Record
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
    render,
)
from .tableau import (
    Branch,
    _check_acceptance,
    _read_models,
    format_rule_line,
    render_entry,
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


class ClashFailure(Exception):
    """Every choice sequence for the activation ran into a clash."""

    def __init__(self, witness):
        mu, sigma, name = witness
        super().__init__(
            f"clash on {name} at ({render_prefix(mu)},{render_prefix(sigma)})"
        )
        self.witness = witness


class SolverOptions(_Record):
    __match_args__ = ("node_budget", "time_budget", "trace", "trace_out")

    def __init__(self, node_budget=10**6, time_budget=None, trace=False, trace_out=None):
        self.node_budget = node_budget  # maximum activations per run
        self.time_budget = time_budget  # seconds, None for unlimited
        self.trace = trace  # record trace lines in SatResult.trace
        self.trace_out = trace_out  # stream for live trace lines; also turns tracing on


_DEFAULT_OPTIONS = SolverOptions()  # the engine only reads its options


class SearchStats(_Record):
    __match_args__ = (
        "activations",
        "max_depth",
        "max_p_size",
        "backtracks",
        "max_model_prefix_len",
        "max_state_prefix_len",
    )

    def __init__(
        self,
        activations=0,
        max_depth=0,
        max_p_size=0,
        backtracks=0,
        max_model_prefix_len=0,
        max_state_prefix_len=0,
    ):
        self.activations = activations
        self.max_depth = max_depth
        self.max_p_size = max_p_size
        self.backtracks = backtracks
        self.max_model_prefix_len = max_model_prefix_len
        self.max_state_prefix_len = max_state_prefix_len

    def summary(self):
        return (
            f"activations={self.activations} max_depth={self.max_depth}"
            f" max_p={self.max_p_size} backtracks={self.backtracks}"
            f" max_mu_len={self.max_model_prefix_len}"
            f" max_sigma_len={self.max_state_prefix_len}"
        )


class SearchState(_Record):
    """One activation's input: the triples P, the current state prefix
    and the fresh-index counter."""

    __match_args__ = ("entries", "sigma", "counter")

    def __init__(self, entries, sigma=(1,), counter=1):
        self.entries = entries
        self.sigma = sigma
        self.counter = counter


class SatResult(_Record):
    """A verdict with its branch (None on UNSAT), stats and trace lines;
    stats defaults to a fresh SearchStats."""

    __match_args__ = ("satisfiable", "branch", "stats", "trace")

    def __init__(self, satisfiable, branch=None, stats=None, trace=()):
        self.satisfiable = satisfiable
        self.branch = branch
        self.stats = SearchStats() if stats is None else stats
        self.trace = trace

    @functools.cached_property
    def models(self):
        """The witness ModelChain, read off the branch on first access and
        cached; None on UNSAT."""
        return None if self.branch is None else _read_models(self.branch)


class _Engine:
    def __init__(self, opts=None, pointed=None):
        self.opts = opts or _DEFAULT_OPTIONS
        # the checked model and the state the root's prefix is pinned to;
        # None in sat
        self.model = self.point = None
        if pointed is not None:
            self.model, self.point = pointed.model, pointed.point
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

    # -- bookkeeping -----------------------------------------------------------

    def _emit(self, rule, entry, conclusions, sigma, csigma=None):
        """Record a rule line for the (model prefix, formula) pairs entry,
        at sigma, and conclusions, at csigma (default sigma)."""
        if self.trace is not None:
            cs = sigma if csigma is None else csigma
            self._emit_line(format_rule_line(
                rule, (entry[0], sigma, entry[1]), [(mu, cs, f) for mu, f in conclusions]))

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

    def _check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit("time budget exhausted")

    # -- the procedure ----------------------------------------------------------

    def solve(self, root_entries, sigma):
        """First accepted completion, the final P, or None; on a completion
        self.log holds the triples produced along its path.  The root
        entries are triples at the state prefix sigma; P keys them by
        (model prefix, formula).

        Every activation is a generator, and one list used as a stack runs
        them all, the innermost last.  An activation that yields a
        generator asks for that child's next completion: the child is
        pushed and resumed.  One that yields a completion (its P, a dict)
        or None (it has no more) is popped, and what it yielded is sent to
        its parent.  The rest of the root's search is dropped, so nothing
        ever truncates the P it returns or the log."""
        adds = [(mu, f) for mu, _, f in root_entries]
        stack = [self._activate({}, [], adds, None, sigma, 1, self.point)]
        got = None
        while stack:
            got = stack[-1].send(got)
            if got is None or type(got) is dict:
                stack.pop()
            else:
                stack.append(got)
                got = None
        return got

    def _activate(self, P, order, adds, inherited, sigma, depth, state):
        """The activation that owns P and order, started by adding adds to
        them: a generator that yields each child activation it needs the
        next completion of (solve sends it back, or None when the child has
        no more), each of its own accepted completions (P alone) and
        finally None, after which it is never resumed.  None is yielded
        rather than returned because catching StopIteration from every
        exhausted activation costs more.  P, order and the log are undone
        in place on backtracking, so a consumer that keeps one must copy
        it before resuming the activation.  state is the model state sigma
        is pinned to (None in sat).

        Every entry of an activation sits at sigma, so P maps each
        (model prefix, formula) pair to its position in order, the pairs
        the activation added, in insertion order; the log holds triples.
        inherited is None for the root, BOX1 and diamond children, which
        introduce sigma and alone have BOX1 children.  A quantifier
        child for an Er entry at model prefix nu inherits what its parent
        sees at prefixes no longer than nu (all model prefixes an
        activation sees lie on one chain, so those are nu's ancestors) and
        reads it in place: the suspended parent truncates P back to its
        length at push before it resumes the child.  inherited is then
        (up, base, boxes, clash): up is (len(nu), the parent's P, the
        parent's up), which _sees walks; base counts the inherited
        entries, for max_p; boxes are the inherited boxes in bucket order,
        the child's own appended after them; clash is the first clash
        among them, the parent's witness unless that one sits deeper than
        nu, when _first_clash finds it (only on a leaf that rejects
        anyway).  A parent whose start adds are no deeper than nu passes
        on all it sees; otherwise (a diamond child's Er at a shorter
        prefix than its diamond) base comes from dc, the counts per prefix
        length of order[:counted], brought up to date at the push and cut
        back on undo.  Inherited entries were saturated by their owners,
        so a literal copy found among them has all its shorter copies
        there too, and the literal step stops there.

        One loop runs the saturation cursor over order.  Every entry of
        order before the cursor has been passed once on this branch:
        processed if it is an and/or/literal, put into its bucket if it is
        a diamond (dias), a box (boxes, after the inherited ones) or a
        quantifier (ns), and checked for its complement if it is a
        literal.  clash is the first literal, inherited ones first, whose
        complement sits at an earlier position, the witness a scan of the
        visible entries in order would report.  And and literal steps
        extend P in place, so at a saturated leaf every and/or/literal of P
        is processed.

        New pairs enter P through two add blocks written out in place, with
        no call per pair: the start adds, where fresh prefixes enter and so
        the only place prefix lengths are counted, and one in the loop for
        each and/or/literal step and an or's right alternative.  With state
        pinned (check) a new literal false at state rejects its batch after
        the pairs before it went in, and max_p stays; in sat each new pair
        is logged as a triple.  max_p counts inherited and own entries.
        P's keys keep order's order, so undoing pops P's last items and
        hashes nothing.

        An or is a choice point on the stack ors: the or entry, the cursor
        and clash witness just past it, and the lengths of order, the log
        and the three buckets.  The left alternative extends P in place.
        When an alternative is rejected or its leaf is exhausted, the
        innermost point is popped, P, order, the log and the buckets are
        truncated back to it, and its right alternative is taken.

        A leaf with no children rejects on its clash witness right away.
        Otherwise each child is a choice point on the stack kids:
        (alternatives, rules, premises, conclusions, len(order), len(log),
        the child's sigma).  Each alternative starts from P and order
        truncated back to their lengths at push.  A BOX1 or diamond child
        draws its fresh successor prefix when pushed; each alternative
        (target state) also cuts the log back and asks a fresh activation
        for its first success only.  A quantifier child draws its fresh
        model prefix and creates its activation when pushed; rules is None,
        premises is its model prefix nu and conclusions its order, and each
        alternative is that activation's next completion, whose own
        literals at prefixes no longer than nu are merged into P.  Its
        choice point does not cut the log: the suspended child cuts it
        through its own choice points, which all lie above the length at
        push."""
        st = self.stats
        true_atoms = None if state is None else self.model.valuation[state]
        log = self.log
        top = 0
        for a in adds:
            if a in P:
                continue
            if true_atoms is None:
                log.append((a[0], sigma, a[1]))
            else:
                t = type(a[1])
                if (t is Atom or t is NegAtom) and (a[1].name in true_atoms) != (t is Atom):
                    self._reject_literal((a[0], sigma, a[1]))
                    yield None
                    return
            if not P and len(sigma) > st.max_state_prefix_len:
                st.max_state_prefix_len = len(sigma)
            P[a] = len(order)
            order.append(a)
            if len(a[0]) > top:
                top = len(a[0])
                if top > st.max_model_prefix_len:
                    st.max_model_prefix_len = top
        if inherited is None:
            up, base, boxes, clash = None, 0, [], None
        else:
            up, base, boxes, clash = inherited
        n = len(order)
        if base + n > st.max_p_size:
            st.max_p_size = base + n
        st.activations += 1
        if st.activations > self.opts.node_budget:
            raise ResourceLimit(f"activation budget exhausted ({self.opts.node_budget})")
        deadline = self.deadline
        if deadline is not None:
            self._check_time()
        if depth > st.max_depth:
            st.max_depth = depth
        tracing = self.trace is not None
        dias, ns = [], []
        dc, counted = None, 0
        cursor = 0
        ors = []
        adds = None
        while True:
            while True:
                if adds is not None:
                    # the add block; n is len(order), which is len(P)
                    for a in adds:
                        if true_atoms is not None:
                            f = a[1]
                            t = type(f)
                            if (t is Atom or t is NegAtom) and (f.name in true_atoms) != (t is Atom):
                                self._reject_literal((a[0], sigma, f))
                                break
                        if P.setdefault(a, n) == n:
                            order.append(a)
                            n += 1
                            if true_atoms is None:
                                log.append((a[0], sigma, a[1]))
                    else:
                        adds = None
                        if base + n > st.max_p_size:
                            st.max_p_size = base + n
                    if adds is not None:
                        break
                if cursor == n:
                    break
                e = order[cursor]
                cursor += 1
                nu, f = e
                t = type(f)
                if t is Atom or t is NegAtom:
                    # a literal whose complement was never made cannot clash
                    if clash is None and f.complement is not None:
                        # the cursor is already past e, which is not its own complement
                        x = (nu, f.complement)
                        at = P.get(x)
                        if (cursor > at) if at is not None else up is not None and _sees(up, x):
                            clash = (nu, sigma, f.name)
                    # at model prefix 1 a literal step adds nothing
                    if len(nu) == 1:
                        continue
                    k = len(nu) - 1
                    while k:
                        x = (nu[:k], f)
                        k -= 1
                        if x not in P:
                            if up is not None and _sees(up, x):
                                break
                            adds = adds or []
                            adds.append(x)
                    if tracing and adds is not None:
                        self._emit("L", e, adds, sigma)
                elif t is And:
                    adds = ((nu, f.left), (nu, f.right))
                    if tracing:
                        self._emit("AND", e, adds, sigma)
                elif t is Or:
                    ors.append((e, cursor, clash, n, len(log), len(dias), len(boxes), len(ns)))
                    if deadline is not None:
                        self._check_time()
                    adds = ((nu, f.left),)
                    if tracing:
                        self._emit("OR", e, adds, sigma)
                elif t is Diamond:
                    dias.append(e)
                elif t is Box:
                    boxes.append(e)
                elif t is ExistsR:
                    ns.append(e)
            # adds is not None when a literal of the last batch was rejected
            if adds is None and clash is not None and not (dias or boxes or ns):
                self._reject_clash(clash)
            elif adds is None:
                boxes1, targets = (), ()
                if boxes and up is None and state is not None:
                    # every entry here sits at sigma, so these are all the
                    # boxes at model prefix 1
                    boxes1 = [e for e in boxes if e[0] == (1,)]
                    if boxes1:
                        targets = self.model.successors(state)
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
                        sigma_i = sigma + (self.counter,)
                        self.counter += 1
                        if k < nb:
                            rules, premises = ("BOX1", "BOX1"), boxes1
                            states = (targets[k],)
                        else:
                            e = dias[k - nb]
                            lim = len(e[0])
                            rules = ("DIA", "BOX")
                            premises = [e]
                            for x in boxes:
                                if len(x[0]) <= lim:
                                    premises.append(x)
                            states = (None,) if state is None else self.model.successors(state)
                        concls = []
                        for x in premises:
                            concls.append((x[0], x[1].body))
                        kids.append((iter(states), rules, premises, concls, len(order), len(log),
                                     sigma_i))
                    else:
                        e = ns[k - nd]
                        nu = e[0]
                        lim = len(nu)
                        new_entry = (nu + (self.counter,), e[1].body)
                        self.counter += 1
                        self._emit("EXR", e, [new_entry], sigma)
                        if lim >= top:
                            child_base = base + n
                            child_boxes = boxes[:]
                        else:
                            if dc is None:
                                dc = [0] * (top + 1)
                            for x in islice(order, counted, n):
                                dc[len(x[0])] += 1
                            counted = n
                            child_base = sum(dc[: lim + 1])
                            child_boxes = [b for b in boxes if len(b[0]) <= lim]
                        child_clash = clash
                        if clash is not None and len(clash[0]) > lim:
                            child_clash = _first_clash(P, order, up, lim, sigma)
                        child_order = []
                        child = self._activate({}, child_order, (new_entry,),
                                               ((lim, P, up), child_base, child_boxes, child_clash),
                                               sigma, depth + 1, state)
                        kids.append((child, None, nu, child_order, n, None, None))
                    # move the innermost child to its next success
                    while kids:
                        alts, rules, premises, concls, m, c, sigma_i = kids[-1]
                        if counted > m:
                            for x in islice(order, m, counted):
                                dc[len(x[0])] -= 1
                            counted = m
                        for _ in range(len(order) - m):
                            P.popitem()
                        del order[m:]
                        n = m
                        if rules is None:
                            got = yield alts
                        else:
                            got = None
                            for state_i in alts:
                                del log[c:]
                                if tracing:
                                    for i, x in enumerate(premises):
                                        self._emit(rules[i > 0], x, [concls[i]], sigma, sigma_i)
                                got = yield self._activate({}, [], concls, None, sigma_i,
                                                           depth + 1, state_i)
                                if got is not None:
                                    break
                        if got is None:
                            kids.pop()
                            continue
                        if rules is None:
                            # concls is the child's order; its literals at
                            # prefixes no longer than nu join P (its own
                            # entries there are all literal copies)
                            lim = len(premises)
                            for x in concls:
                                if len(x[0]) <= lim:
                                    P[x] = n
                                    order.append(x)
                                    n += 1
                            if base + n > st.max_p_size:
                                st.max_p_size = base + n
                        break
                    else:
                        break
            # take the right alternative of the innermost or choice point
            if not ors:
                break
            e, cursor, clash, n, lg, ld, lb, ln = ors.pop()
            if counted > n:
                for x in islice(order, n, counted):
                    dc[len(x[0])] -= 1
                counted = n
            for _ in range(len(order) - n):
                P.popitem()
            del order[n:]
            del log[lg:]
            del dias[ld:], boxes[lb:], ns[ln:]
            if deadline is not None:
                self._check_time()
            adds = ((e[0], e[1].right),)
            if tracing:
                self._emit("OR", e, adds, sigma)
        yield None


def _sees(up, x):
    """Whether the pair x is among the entries a quantifier child inherits
    through up, read in its parents' P: the walk stops at the first parent
    whose child's nu is shorter than x's model prefix."""
    k = len(x[0])
    while up is not None and k <= up[0]:
        if x in up[1]:
            return True
        up = up[2]
    return False


def _first_clash(P, order, up, lim, sigma):
    """The first literal of order at a model prefix no longer than lim
    whose complement sits at an earlier position or is inherited through
    up: the first clash among the entries a quantifier child at that
    depth inherits, when those up passes on hold none."""
    for i, (mu, f) in enumerate(order):
        t = type(f)
        if (t is Atom or t is NegAtom) and len(mu) <= lim and f.complement is not None:
            x = (mu, f.complement)
            at = P.get(x)
            if (i > at) if at is not None else up is not None and _sees(up, x):
                return (mu, sigma, f.name)
    return None


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
    choice sequence clashes, and ValueError when an entry is not at
    state.sigma.
    """
    for e in state.entries:
        if e[1] != state.sigma:
            raise ValueError(
                f"entry {render_entry(e)} is not at state prefix {render_prefix(state.sigma)}"
            )
    engine = _Engine(opts)
    engine.counter = state.counter
    final_P = engine.solve(state.entries, state.sigma)
    if final_P is None:
        raise ClashFailure(engine.last_clash or ((1,), (1,), "?"))
    return tuple((mu, state.sigma, f) for mu, f in final_P)
