"""The four seeded workloads: inputs, the timed operation, probes and checks.

A workload is built from a seed alone, and the program sees only the
generated inputs.  Every workload exposes:

- ``inputs``: the list the closed loop cycles through;
- ``op(call, x)``: one timed operation, starting from formula text;
- ``probe(call, x)``: layer calls made only in the traced run, after the
  operation and outside its span (search alone, extraction alone);
- ``count(x, tally)``: the exact counting pass of the traced run;
- ``verify(outputs, call)``: checks, given {input index: output}, that
  do not use the procedure under test; returns a list of error strings.

``call(name, fn, *args)`` is how every public call is made: untraced it
is a plain call, traced it records a span named after the layer.
"""

import itertools
import json
import math
import random

from rmlsat import (
    ClashFailure,
    KripkeModel,
    ModelChain,
    PointedModel,
    SearchState,
    SolverOptions,
    check,
    extract_models,
    gen,
    oracle_eval,
    oracle_sat,
    parse,
    render,
    run_activation,
    sat,
    verify_refinement_mapping,
)
from rmlsat.formula import contains_exists

from calibrate import canonical_models

SWEEP_SIZE = 6
SWEEP_ATOMS = ("p", "q")
FUZZ_MAX_SIZE = 6
FUZZ_ATOMS = ("p", "q")
FUZZ_SPACE = 1 << 32  # input indices per seed; a run reaches about 100,000
GRID_MAX_STATES = 3
GRID_FORMULA_SIZE = 5
CNF_VARS = 4


class RuleTally:
    """A write-only stream for ``SolverOptions(trace_out=...)`` that counts
    trace lines by rule name, and REJECT lines by reason."""

    def __init__(self):
        self.counts = {}

    def write(self, text):
        head, _, rest = text.partition(" ")
        if head == "REJECT":
            head = "REJECT." + rest.split(" ", 2)[1]
        self.counts[head] = self.counts.get(head, 0) + 1


class Tally:
    """Exact counts summed over the counting pass."""

    def __init__(self):
        self.solver = {"activations": 0, "backtracks": 0, "max_p": 0, "max_depth": 0}
        self.solver_rules = RuleTally()
        self.check_rules = RuleTally()
        self.branch_entries = 0
        self.chain_models = 0
        self.oracle_q_calls = 0

    def add_sat(self, f):
        r = sat(f, SolverOptions(trace=True, trace_out=self.solver_rules))
        s = self.solver
        s["activations"] += r.stats.activations
        s["backtracks"] += r.stats.backtracks
        s["max_p"] = max(s["max_p"], r.stats.max_p_size)
        s["max_depth"] = max(s["max_depth"], r.stats.max_depth)
        if r.satisfiable:
            self.branch_entries += len(r.branch)
            self.chain_models += len(r.models)


def sat_probe(call, f):
    """Search alone (``run_activation`` on the root entry), then extraction
    and the completeness re-check on a SAT branch."""
    try:
        call("solver.run_activation", run_activation, SearchState(entries=(((1,), (1,), f),)))
    except ClashFailure:
        pass
    r = sat(f)
    if r.satisfiable:
        call("tableau.extract_models", extract_models, r.branch)
        call("tableau.is_complete", r.branch.is_complete)


def _oracle_span(f):
    return "oracle.sat_q" if contains_exists(f) else "oracle.sat_qf"


class Lazy:
    """A read-only sequence of n items computed on demand by item(i), for
    input spaces too large to build in set-up.  The closed loop fetches
    each input before its operation starts, so the work is never timed."""

    def __init__(self, n, item):
        self.n = n
        self.item = item

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.item(j) for j in range(*i.indices(self.n))]
        return self.item(i)


class Workload:
    name = None
    # The counting pass covers this many inputs from the start of the list,
    # so exact counts depend on the seed alone, never on a run's speed.
    count_prefix = 4000

    def probe(self, call, x):
        pass

    def count(self, x, tally):
        pass


class SatSweep(Workload):
    """Every formula of size <= 6 over p, q in a seeded order; an operation
    is parse plus a verdict-only sat()."""

    name = "sat-sweep"

    def __init__(self, seed, call):
        formulas = call("gen.generate", lambda: list(gen.enumerate_formulas(SWEEP_SIZE, SWEEP_ATOMS)))
        order = list(range(len(formulas)))
        random.Random(seed).shuffle(order)
        self.formulas = [formulas[i] for i in order]
        self.inputs = [render(f) for f in self.formulas]

    def op(self, call, text):
        return call("solver.sat", sat, call("formula.parse", parse, text)).satisfiable

    def probe(self, call, text):
        sat_probe(call, parse(text))

    def count(self, text, tally):
        f = parse(text)
        tally.add_sat(f)
        tally.oracle_q_calls += contains_exists(f)

    def verify(self, outputs, call):
        errors = []
        for i, got in outputs.items():
            f = self.formulas[i]
            want = call(_oracle_span(f), oracle_sat, f)
            if got != want:
                errors.append(f"{self.inputs[i]}: sat={got} oracle={want}")
        return errors


class Fuzz(Workload):
    """Seeded random formulas, size uniform in 1..6 over p, q; an operation
    is parse, sat() and oracle_sat(), which must agree.

    Input i is drawn from its own generator, seeded with (seed, i), when
    the loop reaches it, so that no formula repeats within a run and the
    p99 does not hang on which rare expensive formulas a fixed deck of
    the seed happened to hold."""

    name = "fuzz"
    count_prefix = 2000

    def __init__(self, seed, call):
        self.seed = seed
        self.inputs = Lazy(FUZZ_SPACE, lambda i: call("gen.generate", self._input, i))

    def _input(self, i):
        rng = random.Random(self.seed << 32 | i)
        f = gen.random_formula(rng, rng.randint(1, FUZZ_MAX_SIZE), FUZZ_ATOMS)
        # The span name is fixed here so the timed operation does no extra work.
        return render(f), _oracle_span(f)

    def op(self, call, x):
        text, span = x
        f = call("formula.parse", parse, text)
        return call("solver.sat", sat, f).satisfiable, call(span, oracle_sat, f)

    def probe(self, call, x):
        sat_probe(call, parse(x[0]))

    def count(self, x, tally):
        tally.add_sat(parse(x[0]))
        tally.oracle_q_calls += x[1] == "oracle.sat_q"

    def verify(self, outputs, call):
        return [
            f"{self.inputs[i][0]}: sat={s} oracle={o}" for i, (s, o) in outputs.items() if s != o
        ]


def _build_pointed(spec, atom):
    n, es, vmask, pt = spec
    names = [f"s{i}" for i in range(n)]
    model = KripkeModel(
        names,
        [(names[a], names[b]) for a, b in es],
        {names[i]: [atom] for i in range(n) if vmask >> i & 1},
    )
    return PointedModel(model, names[pt])


class CheckGrid(Workload):
    """All canonical pointed models with <= 3 states over p, each paired
    with every formula of size <= 5 over p, in a seeded order; an
    operation is parse plus check().

    The 1,783,240 pairs are visited in the order i -> (a*i + b) mod N,
    with a coprime to N and a, b drawn from the seed, so a run checks a
    seeded sample of pairs spread over every model, and its cost does not
    hang on which models a smaller sample happened to hold."""

    name = "check-grid"

    def __init__(self, seed, call):
        rng = random.Random(seed)
        specs = canonical_models(GRID_MAX_STATES)
        self.models = call("kripke.build", lambda: [_build_pointed(s, "p") for s in specs])
        self.formulas = call("gen.generate", lambda: list(gen.enumerate_formulas(GRID_FORMULA_SIZE, ("p",))))
        self.texts = [render(f) for f in self.formulas]
        n = len(self.models) * len(self.texts)
        self.stride = rng.randrange(1, n)
        while math.gcd(self.stride, n) != 1:
            self.stride = rng.randrange(1, n)
        self.offset = rng.randrange(n)
        self.inputs = Lazy(n, self._input)

    def pair(self, i):
        """(model index, formula index) of input i."""
        return divmod((self.stride * i + self.offset) % len(self.inputs), len(self.texts))

    def _input(self, i):
        m, k = self.pair(i)
        return self.models[m], self.texts[k]

    def op(self, call, x):
        a, text = x
        return call("modelcheck.check", check, a, call("formula.parse", parse, text))

    def count(self, x, tally):
        a, text = x
        check(a, parse(text), SolverOptions(trace=True, trace_out=tally.check_rules))

    def verify(self, outputs, call):
        errors = []
        for i, got in outputs.items():
            m, k = self.pair(i)
            want = call("oracle.eval", oracle_eval, self.models[m], self.formulas[k])
            if got != want:
                errors.append(f"model {m} {self.inputs[i][1]}: check={got} oracle={want}")
        return errors


# --- sat-large: structured families with known answers ----------------------

# Each family runs over a fixed ladder of sizes, so every seed gets the
# same spread of instance costs.  The ladders are dense, so that the
# median falls between instances of nearly the same cost.
# Sizes stay below where the recursive engine overflows the stack (about
# 490 conjuncts, 250 nested <>, 100 nested Er <>) and below about 1 s.
WIDE_ER = range(10, 81, 10)
WIDE_DIA = range(25, 201, 25)
CHAIN = range(5, 121, 3)
ER_NEST = range(1, 41)
ATOMS = range(20, 201, 20)
CNF_CLAUSES = (3, 4, 5, 6) * 10
CNF_CORES = 3  # per wrap
CORE_NAMES = ("c0", "c1", "c2")


def _cnf_text(clauses):
    return " & ".join(
        "(" + " | ".join(("!" if neg else "") + v for v, neg in c) + ")" for c in clauses
    )


def cnf_satisfiable(clauses, names):
    """Truth-table satisfiability of a CNF given as lists of (name, negated)."""
    for bits in itertools.product((False, True), repeat=len(names)):
        val = dict(zip(names, bits))
        if all(any(val[v] != neg for v, neg in c) for c in clauses):
            return True
    return False


def sat_large_deck(rng):
    """(text, expected verdict or CNF data) for every instance of one deck.

    The seed picks atom names, conjunct order, the refuted atom of the
    unsatisfiable conjunctions and the CNF clauses; the size ladders are
    fixed."""
    deck = []

    def names(n):
        letter = rng.choice("abcdefgh")
        return [f"{letter}{i:03d}" for i in rng.sample(range(1000), n)]

    def conj(parts):
        rng.shuffle(parts)
        return " & ".join(parts)

    for n in WIDE_ER:
        xs = names(n)
        deck.append((conj([f"Er <>{x}" for x in xs] + ["[]q"]), True))
    for n in WIDE_DIA:
        xs = names(n)
        deck.append((conj([f"<>{x}" for x in xs] + ["[]q"]), True))
        # The refuted diamond comes last, so every diamond is expanded
        # before the clash: the cost does not depend on the seed.
        deck.append((" & ".join([f"<>{x}" for x in xs] + [f"[]!{xs[-1]}"]), False))
    for n in CHAIN:
        x = names(1)[0]
        deck.append(("<>" * n + x, True))
        deck.append((conj(["<>" * n + x, "[]" * n + "!" + x]), False))
    for n in ER_NEST:
        deck.append(("Er <>" * n + names(1)[0], True))
    for n in ATOMS:
        xs = names(n)
        deck.append((conj(list(xs)), True))
        deck.append((conj(xs + ["!" + rng.choice(xs)]), False))

    cnf_names = names(CNF_VARS)
    wraps = ("Er <>({})", "<>Er ({})")
    for k, m in enumerate(CNF_CLAUSES):
        clauses = [
            [(v, rng.random() < 0.5) for v in rng.sample(cnf_names, 3)] for _ in range(m)
        ]
        deck.append((wraps[k % 2].format(_cnf_text(clauses)), (clauses, cnf_names)))
    for wrap in wraps * CNF_CORES:
        # All eight sign patterns over three variables, in a fixed order:
        # unsatisfiable, and the search tries every OR choice (2,401
        # backtracks today) before it can say so.  The cores set the p99,
        # so their names are fixed: every seed gets the same cores.
        clauses = [list(zip(CORE_NAMES, signs)) for signs in itertools.product((False, True), repeat=3)]
        deck.append((wrap.format(_cnf_text(clauses)), (clauses, CORE_NAMES)))
    rng.shuffle(deck)
    return deck


def witness_json(f, r):
    """The bytes ``rmlsat sat --witness`` writes, minus the file."""
    return json.dumps(r.models.to_dict(formula_text=render(f)), indent=2, sort_keys=True) + "\n"


class SatLarge(Workload):
    """One seeded deck of structured instances; an operation is parse,
    sat() and, on SAT, the witness JSON."""

    name = "sat-large"

    def __init__(self, seed, call):
        deck = sat_large_deck(random.Random(seed))
        self.inputs = [text for text, _ in deck]
        self.expected = [want for _, want in deck]
        self.count_prefix = len(deck)

    def op(self, call, text):
        f = call("formula.parse", parse, text)
        r = call("solver.sat", sat, f)
        if not r.satisfiable:
            return False, None
        return True, call("tableau.witness_json", witness_json, f, r)

    def probe(self, call, text):
        sat_probe(call, parse(text))

    def count(self, text, tally):
        tally.add_sat(parse(text))

    def verify(self, outputs, call):
        errors = []
        for i, (got, doc) in outputs.items():
            w = self.expected[i]
            want = cnf_satisfiable(*w) if isinstance(w, tuple) else w
            name = self.inputs[i][:60] + "..."
            if got != want:
                errors.append(f"{name}: sat={got} expected={want}")
            elif got:
                chain = ModelChain.from_dict(json.loads(doc))
                if len(chain) == 0:
                    errors.append(f"{name}: empty witness")
                for parent, child, rel in chain.edges():
                    if not verify_refinement_mapping(parent.model, child.model, rel):
                        errors.append(f"{name}: chain edge to {child.prefix} is no refinement")
                        break
        return errors


WORKLOADS = {w.name: w for w in (SatSweep, SatLarge, CheckGrid, Fuzz)}
