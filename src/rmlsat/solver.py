"""Backtracking satisfiability solver for the existential refinement fragment.

The solver explores tableau branches with a recursive activation per
state prefix.  One activation, given the triples P it owns, the current
prefixes and the processed marks M:

1. saturates P under the and/or/literal rules (each or is a
   chronological backtrack point; literal processing copies the literal
   to every ancestor model prefix);
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
    Box,
    Diamond,
    ExistsR,
    FragmentViolation,
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
        for a in entries:
            if a in P:
                continue
            if is_literal(a[2]) and not self._literal_ok(a, ctx):
                self._reject_literal(a)
                return None
            P[a] = None
            self._note_entry(a)
        if len(P) > self.stats.max_p_size:
            self.stats.max_p_size = len(P)
        return P

    def _added(self, P, contrib, adds, ctx):
        """P plus adds, or None if a new literal entry is inadmissible."""
        P2 = None
        contrib2 = None
        for a in adds:
            if a in (P if P2 is None else P2):
                continue
            if is_literal(a[2]) and not self._literal_ok(a, ctx):
                self._reject_literal(a)
                return None
            if P2 is None:
                P2 = dict(P)
                contrib2 = list(contrib)
            P2[a] = None
            contrib2.append(a)
            self._note_entry(a)
        if P2 is None:
            return P, contrib
        if len(P2) > self.stats.max_p_size:
            self.stats.max_p_size = len(P2)
        return P2, contrib2

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
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit("time budget exhausted")
        if depth > st.max_depth:
            st.max_depth = depth
        if len(P) > st.max_p_size:
            st.max_p_size = len(P)
        yield from self._saturate(P, M, mu, sigma, depth, ctx, list(P))

    def _saturate(self, P, M, mu, sigma, depth, ctx, contrib):
        target = None
        for e in P:
            if e not in M and (isinstance(e[2], (And, Or)) or is_literal(e[2])):
                target = e
                break
        if target is None:
            yield from self._post_saturation(P, M, mu, sigma, depth, ctx, contrib)
            return

        nu, sg, f = target
        M2 = M | {target}
        if isinstance(f, And):
            adds = [(nu, sg, f.left), (nu, sg, f.right)]
            self._emit("AND", target, adds)
            out = self._added(P, contrib, adds, ctx)
            if out is not None:
                yield from self._saturate(out[0], M2, mu, sigma, depth, ctx, out[1])
        elif is_literal(f):
            adds = [(nu[:k], sg, f) for k in range(len(nu) - 1, 0, -1)]
            new = [a for a in adds if a not in P]
            if new:
                self._emit("L", target, new)
            out = self._added(P, contrib, adds, ctx)
            if out is not None:
                yield from self._saturate(out[0], M2, mu, sigma, depth, ctx, out[1])
        else:
            for side in (f.left, f.right):
                self._emit("OR", target, [(nu, sg, side)])
                out = self._added(P, contrib, [(nu, sg, side)], ctx)
                if out is not None:
                    yield from self._saturate(out[0], M2, mu, sigma, depth, ctx, out[1])

    def _post_saturation(self, P, M, mu, sigma, depth, ctx, contrib):
        dias = [e for e in P if e not in M and isinstance(e[2], Diamond)]
        yield from self._dia_phase(P, M, dias, 0, mu, sigma, depth, ctx, contrib)

    def _dia_phase(self, P, M, dias, k, mu, sigma, depth, ctx, contrib):
        if k == len(dias):
            ns = [e for e in P if e not in M and isinstance(e[2], ExistsR)]
            yield from self._exr_phase(P, M | frozenset(ns), ns, 0, mu, sigma, depth, ctx, contrib)
            return
        e = dias[k]
        nu, _, f = e
        i = self._fresh()
        sigma_i = sigma + (i,)
        concl = (nu, sigma_i, f.body)
        box_pairs = [
            (b, (b[0], sigma_i, b[2].body))
            for b in P
            if isinstance(b[2], Box) and b[1] == sigma and is_prefix_of(b[0], nu)
        ]
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
                P, M | {e}, dias, k + 1, mu, sigma, depth, ctx2, contrib + got
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
        base = [a for a in P if is_prefix_of(a[0], nu)]
        self._emit("EXR", e, [new_entry])
        childP = self._child_P(base + [new_entry], ctx)
        if childP is None:
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
