"""Backtracking satisfiability solver for the existential refinement fragment.

The solver explores tableau branches with a recursive activation per
state prefix.  One activation, given the triples P it owns, the current
prefixes and the processed marks M:

1. saturates P under the and/or/literal rules with a cursor worklist:
   P's entries are kept in insertion order and the scan for the next
   unprocessed and/or/literal entry resumes where the last one stopped;
   and steps and literal steps (which copy the literal to every ancestor
   model prefix) run in a loop that extends P in place; each or is a
   chronological backtrack point, the only place P is copied (once per
   alternative but the last) and the place the time budget is checked;
2. for each unprocessed diamond at model prefix nu, builds a child
   problem at a fresh successor prefix holding the diamond body plus
   every box body recorded at an ancestor prefix of nu, and recurses
   with an empty mark set (the child's outcome is all that matters, so
   only its first success is taken);
3. collects the unprocessed refinement quantifiers, marks them, and for
   each recurses at a fresh model prefix on the ancestor-prefix slice of
   P, passing the current marks; the child's literal results for
   ancestor prefixes merge back into P (these merges are what let
   clashes discovered in different subtrees meet);
4. rejects if P now contains a literal clash, else returns P.

Fresh indices come from one counter per run, never reset while
backtracking, so every prefix produced during a run is unique.  The
union of all triples produced along an accepted path is a complete,
clash-free branch; sat() checks that on every SAT verdict, and reads the
witness models off it only when a caller asks for them.

The model checker subclasses the engine: hook methods cover everything
it needs to pin state prefixes to concrete model states.
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
    FragmentViolation,
    NegAtom,
    Or,
    in_existential_fragment,
    is_literal,
    render,
)
from .tableau import (
    Branch,
    _check_acceptance,
    _read_models,
    find_clash,
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
    """One activation's input: the triples P, the current prefixes, the
    processed marks and the fresh-index counter."""

    entries: tuple
    mu: tuple = (1,)
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

    def _literal_ok(self, entry, ctx):
        return True

    def _dia_contexts(self, sigma, sigma_i, ctx):
        """Contexts to try for a fresh successor prefix; one per admissible
        target state when states are being tracked."""
        return (ctx,)

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

    def _note_entry(self, e):
        st = self.stats
        if len(e[0]) > st.max_model_prefix_len:
            st.max_model_prefix_len = len(e[0])
        if len(e[1]) > st.max_state_prefix_len:
            st.max_state_prefix_len = len(e[1])

    def _fresh(self):
        i = self.counter
        self.counter += 1
        return i

    def _child_P(self, entries, ctx):
        """Fresh activation input; None if a literal entry is inadmissible."""
        P = {}
        return P if self._add(P, [], entries, ctx) else None

    def _add(self, P, order, adds, ctx):
        """Append the adds not yet in P to P and order, in place; False if a
        new literal entry is inadmissible."""
        for a in adds:
            if a in P:
                continue
            if is_literal(a[2]) and not self._literal_ok(a, ctx):
                self._reject_literal(a)
                return False
            P[a] = None
            order.append(a)
            self._note_entry(a)
        if len(P) > self.stats.max_p_size:
            self.stats.max_p_size = len(P)
        return True

    def _check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit("time budget exhausted")

    # -- the procedure ----------------------------------------------------------

    def solve(self, root_entries, mu, sigma, marks):
        """First accepted completion: (final P, produced triples) or None."""
        ctx = self._initial_ctx()
        P = self._child_P(root_entries, ctx)
        if P is None:
            return None
        for final in self._activate(P, frozenset(marks), mu, sigma, 1, ctx):
            return final
        return None

    def _activate(self, P, M, mu, sigma, depth, ctx):
        st = self.stats
        st.activations += 1
        if st.activations > self.opts.node_budget:
            raise ResourceLimit(f"activation budget exhausted ({self.opts.node_budget})")
        self._check_time()
        if depth > st.max_depth:
            st.max_depth = depth
        if len(P) > st.max_p_size:
            st.max_p_size = len(P)
        yield from self._saturate(P, list(P), 0, M, mu, sigma, depth, ctx)

    def _saturate(self, P, order, cursor, M, mu, sigma, depth, ctx):
        """Saturate under and/or/literal, then go on to the modal phases.

        order lists P's entries in insertion order (the produced triples);
        every entry before the cursor is processed or can never be a
        target, so the scan for the next target resumes there.  The caller
        hands over P and order: and/literal steps extend them in place,
        and each or alternative but the last gets its own copies.  An
        entry counts as marked once the cursor passes it, so M itself
        does not grow here: after saturation every and/or/literal entry
        of P is processed, and the modal phases read M that way."""
        n = len(order)
        while True:
            while cursor < n:
                e = order[cursor]
                f = e[2]
                if isinstance(f, _SATURATED) and e not in M:
                    break
                cursor += 1
            else:
                yield from self._post_saturation(P, M, mu, sigma, depth, ctx, order)
                return
            cursor += 1
            nu, sg, _ = e
            if isinstance(f, And):
                adds = [(nu, sg, f.left), (nu, sg, f.right)]
                self._emit("AND", e, adds)
            elif isinstance(f, Or):
                break
            else:
                adds = [(nu[:k], sg, f) for k in range(len(nu) - 1, 0, -1)]
                adds = [a for a in adds if a not in P]
                if adds:
                    self._emit("L", e, adds)
            if not self._add(P, order, adds, ctx):
                return
            n = len(order)

        for side, last in ((f.left, False), (f.right, True)):
            self._check_time()
            self._emit("OR", e, [(nu, sg, side)])
            P2, order2 = (P, order) if last else (dict(P), list(order))
            if self._add(P2, order2, [(nu, sg, side)], ctx):
                yield from self._saturate(P2, order2, cursor, M, mu, sigma, depth, ctx)

    def _post_saturation(self, P, M, mu, sigma, depth, ctx, contrib):
        # one pass: the unprocessed diamonds and quantifiers, and the boxes
        # at this state prefix (P does not change during the dia phase)
        dias, boxes, ns = [], [], []
        for e in P:
            f = e[2]
            if isinstance(f, Diamond):
                if e not in M:
                    dias.append(e)
            elif isinstance(f, Box):
                if e[1] == sigma:
                    boxes.append(e)
            elif isinstance(f, ExistsR):
                if e not in M:
                    ns.append(e)
        yield from self._dia_phase(P, M, dias, boxes, ns, 0, mu, sigma, depth, ctx, contrib)

    def _dia_phase(self, P, M, dias, boxes, ns, k, mu, sigma, depth, ctx, contrib):
        if k == len(dias):
            if ns:
                # quantifier children inherit every mark of this activation
                saturated = (e for e in P if isinstance(e[2], _SATURATED))
                M = M.union(saturated, dias, ns)
            yield from self._exr_phase(P, M, ns, 0, mu, sigma, depth, ctx, contrib)
            return
        e = dias[k]
        nu, _, f = e
        i = self._fresh()
        sigma_i = sigma + (i,)
        concl = (nu, sigma_i, f.body)
        box_pairs = [(b, (b[0], sigma_i, b[2].body)) for b in boxes if is_prefix_of(b[0], nu)]
        for ctx2 in self._dia_contexts(sigma, sigma_i, ctx):
            self._emit("DIA", e, [concl])
            for premise, c in box_pairs:
                self._emit("BOX", premise, [c])
            childP = self._child_P([concl] + [c for _, c in box_pairs], ctx2)
            if childP is None:
                continue
            got = None
            for _, child_contrib in self._activate(
                childP, frozenset(), nu, sigma_i, depth + 1, ctx2
            ):
                got = child_contrib
                break
            if got is None:
                continue
            yield from self._dia_phase(
                P, M, dias, boxes, ns, k + 1, mu, sigma, depth, ctx2, contrib + got
            )

    def _exr_phase(self, P, M, ns, k, mu, sigma, depth, ctx, contrib):
        if k == len(ns):
            w = find_clash(P)
            if w is not None:
                self._reject_clash(w)
                return
            yield (P, contrib)
            return
        e = ns[k]
        nu, _, f = e
        i = self._fresh()
        mu_i = nu + (i,)
        new_entry = (mu_i, sigma, f.body)
        self._emit("EXR", e, [new_entry])
        # the ancestor-prefix slice of P was admitted under this same state
        # pinning, so only the new entry needs the literal check
        childP = {a: None for a in P if is_prefix_of(a[0], nu)}
        if not self._add(childP, [], [new_entry], ctx):
            return
        for childP_final, child_contrib in self._activate(
            childP, M, mu_i, sigma, depth + 1, ctx
        ):
            merged = [
                a
                for a in childP_final
                if a not in P and is_prefix_of(a[0], nu) and is_literal(a[2])
            ]
            P2 = dict(P)
            for a in merged:
                P2[a] = None
            if len(P2) > self.stats.max_p_size:
                self.stats.max_p_size = len(P2)
            yield from self._exr_phase(
                P2, M, ns, k + 1, mu, sigma, depth, ctx, contrib + child_contrib
            )


def sat(f, opts=None):
    """Decide satisfiability of f; on success the result carries the branch,
    the witness models (read on first access) and the search statistics.
    Every SAT verdict is first checked to rest on a complete, clash-free
    branch (tableau.Clash / tableau.NotComplete otherwise).

    Raises FragmentViolation for universal quantifiers and ResourceLimit
    when a budget runs out (never silently reported as unsatisfiable).
    """
    if not in_existential_fragment(f):
        raise FragmentViolation(f"universal quantifier in {render(f)}")
    engine = _Engine(opts)
    got = engine.solve([((1,), (1,), f)], (1,), (1,), frozenset())
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
    got = engine.solve(list(state.entries), state.mu, state.sigma, frozenset(state.marks))
    if got is None:
        raise ClashFailure(engine.last_clash or ((1,), (1,), "?"))
    final_P, _ = got
    return tuple(final_P)
