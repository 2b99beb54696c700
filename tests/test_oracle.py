import ast
import random
import signal
import time
from itertools import combinations
from pathlib import Path

import pytest

import kref
import modelgen
from rmlsat import gen, oracle
from rmlsat.errors import ResourceLimit
from rmlsat.formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExistsR,
    FragmentViolation,
    NegAtom,
    Not,
    Or,
    metrics,
    parse,
    render,
)
from rmlsat.kripke import (
    KripkeModel,
    PointedModel,
    graph_nodes,
    greatest_refinement,
    node_restrictions,
    unravel,
    unravel_node,
)
from rmlsat.modelcheck import check
from rmlsat.oracle import _ProfileSpace, oracle_eval, oracle_sat


def pm(states, transitions, valuation, point):
    return PointedModel(KripkeModel(states, transitions, valuation), point)


class TestEval:
    def test_atom_at_point(self):
        assert oracle_eval(pm(["s"], [], {"s": ["p"]}, "s"), parse("p"))

    def test_refinement_can_drop_the_loop(self):
        a = pm(["s"], [("s", "s")], {"s": ["p"]}, "s")
        assert oracle_eval(a, parse("Er [](q & !q)"))

    def test_refinement_cannot_add_transitions(self):
        a = pm(["s"], [], {}, "s")
        assert not oracle_eval(a, parse("Er <> p"))

    def test_forall_rejected(self):
        with pytest.raises(FragmentViolation):
            oracle_eval(pm(["s"], [], {}, "s"), parse("Ar p"))

    def test_agrees_with_textbook_evaluator(self):
        # quantifier-free fragment on every 1- and 2-state model
        formulas = [
            f
            for f in gen.enumerate_formulas(4, ("p", "q"), include_exists=False)
        ]
        n = 0
        for a in modelgen.pointed_models(2, ("p", "q")):
            for f in formulas:
                n += 1
                assert oracle_eval(a, f) == kref.k_eval(a.model, a.point, f)
        assert n > 100000

    def test_agrees_with_textbook_evaluator_three_state_sample(self):
        rng = random.Random(20250809)
        pool = list(modelgen.pointed_models(3, ("p",)))
        formulas = list(gen.enumerate_formulas(5, ("p",), include_exists=False))
        for a in rng.sample(pool, 150):
            for f in formulas:
                assert oracle_eval(a, f) == kref.k_eval(a.model, a.point, f)

    def test_truth_depends_only_on_unravelling(self):
        for a in modelgen.pointed_models(2, ("p",)):
            for f in gen.enumerate_formulas(4, ("p",)):
                d = metrics(f).d_diamond
                assert oracle_eval(a, f) == oracle_eval(unravel(a, d), f)

    @pytest.mark.parametrize("connective", [And, Or])
    @pytest.mark.parametrize("shape", ["right", "left"])
    def test_deep_chain(self, connective, shape):
        # a 3,000-deep chain of one connective is walked with a loop
        n = 3000
        xs = [Atom(f"x_{i}") for i in range(n)]
        if shape == "right":
            f = xs[-1]
            for x in reversed(xs[:-1]):
                f = connective(x, f)
        else:
            f = xs[0]
            for x in xs[1:]:
                f = connective(f, x)
        names = [x.name for x in xs]
        every = pm(["s"], [], {"s": names}, "s")
        one = pm(["s"], [], {"s": names[1234:1235]}, "s")
        assert oracle_eval(every, f)
        assert oracle_eval(one, f) is (connective is Or)
        assert not oracle_eval(pm(["s"], [], {}, "s"), f)

    def test_monotone_under_refinement(self):
        # small scope on purpose: keeps the bounded refinement search exact
        models = list(modelgen.pointed_models(2, ("p",)))
        formulas = [f for f in gen.enumerate_formulas(4, ("p",)) if render(f).startswith("Er")]
        rng = random.Random(3)
        for a in rng.sample(models, 40):
            for b in rng.sample(models, 12):
                rel = greatest_refinement(a.model, b.model)
                if (a.point, b.point) not in rel.pairs:
                    continue
                for f in formulas:
                    if oracle_eval(b, f):
                        assert oracle_eval(a, f), render(f)


class TestSat:
    def test_propositional_contradiction(self):
        assert not oracle_sat(parse("p & !p"))

    def test_diamond_box_conflict(self):
        assert not oracle_sat(parse("<>p & []!p"))

    def test_box_kills_the_witness(self):
        assert not oracle_sat(parse("Er <> p & [](q & !q)"))

    def test_quantifier_free_matches_reference(self):
        for f in gen.enumerate_formulas(5, ("p", "q"), include_exists=False):
            assert oracle_sat(f) == kref.k_sat_bounded(f), render(f)

    def test_deep_quantifier_free_cases(self):
        # these have bounded-tree classes far too large to walk literally
        assert not oracle_sat(parse("<><><>(p & !p)"))
        assert oracle_sat(parse("<><><><><>p"))
        assert oracle_sat(parse("<><>[](p & !p)"))

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            oracle_sat(parse("Er <><>(p & !p)"), max_candidates=3)

    def test_forall_rejected(self):
        with pytest.raises(FragmentViolation):
            oracle_sat(parse("Ar p"))


def truth(g, valuation, wit, vio, bit):
    """Plain recursive reading of one profile bit: what _ProfileSpace
    computes with its compiled operations."""
    kind = type(g)
    if kind is Atom:
        return g.name in valuation
    if kind is NegAtom:
        return g.name not in valuation
    if kind is And:
        return truth(g.left, valuation, wit, vio, bit) and truth(g.right, valuation, wit, vio, bit)
    if kind is Or:
        return truth(g.left, valuation, wit, vio, bit) or truth(g.right, valuation, wit, vio, bit)
    if kind is Diamond:
        return bool(wit & bit[g])
    assert kind is Box
    return not vio & bit[g]


def tree_model(tree):
    """The KripkeModel of a node-form tree, its root named ""."""
    states, transitions, valuation = [], [], {}
    stack = [("", tree)]
    while stack:
        name, (label, kids) = stack.pop()
        states.append(name)
        valuation[name] = label
        for j, kid in enumerate(kids):
            transitions.append((name, f"{name}.{j}"))
            stack.append((f"{name}.{j}", kid))
    return KripkeModel(states, transitions, valuation)


class TestProfileSpace:
    def test_profile_and_delta_agree_with_recursive_reading(self):
        rng = random.Random(6)
        vals = [frozenset(c) for r in range(3) for c in combinations("pq", r)]
        n = 0
        for f in gen.enumerate_formulas(5, ("p", "q"), include_exists=False):
            space = _ProfileSpace(f)
            width = len(space.bit)
            for v in vals:
                for wit, vio in [(0, 0)] + [
                    (rng.getrandbits(width), rng.getrandbits(width)) for _ in range(4)
                ]:
                    want = sum(b for g, b in space.bit.items() if truth(g, v, wit, vio, space.bit))
                    got = space.profile(v, wit, vio)
                    assert got == want, (render(f), v, wit, vio)
                    n += 1
                    dw = sum(b for g, b in space.bit.items()
                             if type(g) is Diamond and got & space.bit[g.body])
                    dv = sum(b for g, b in space.bit.items()
                             if type(g) is Box and not got & space.bit[g.body])
                    assert space.delta(got) == (dw, dv)
        assert n > 30000

    def test_one_space_per_distinct_body(self, monkeypatch):
        built = []

        class Counting(_ProfileSpace):
            def __init__(self, f, order=None):
                built.append(f)
                super().__init__(f, order)

        monkeypatch.setattr(oracle, "_ProfileSpace", Counting)
        # unsatisfiable, so every candidate tree is walked
        assert not oracle_sat(parse("Er <>p & (Er <>q | Er <>p) & [](p & !p)"))
        assert sorted(map(render, built)) == ["<>p", "<>q"]
        built.clear()
        full = pm(["a", "b", "c"], [(x, y) for x in "abc" for y in "abc"], {"a": ["p"]}, "a")
        assert oracle_eval(full, parse("[][]Er <>p & <>Er (Er <>p & []p)"))
        assert sorted(map(render, built)) == ["<>p"]

    def test_cut_is_exact(self, monkeypatch):
        """Er psi at every pointed model with <= 2 states over p, q: the
        profile pass, whose sets are cut to their union, agrees with a
        literal walk over every root-keeping restriction of the
        unravelling, each read by the textbook evaluator.  The bodies are
        every quantifier-free psi of size <= 4 over p, q, and every
        M1 M2 l1 & M3 M4 l2 and M1 M2 l1 | M3 M4 l2 with modal operators
        Mi and literals li over p: those need a child's profile to
        witness one operand and not violate the other, the case that a
        union outside its set would get wrong."""
        cut_fired = []
        cut = oracle._cut

        def counting_cut(profiles):
            got = cut(profiles)
            if len(got) < len(profiles):
                cut_fired.append(len(profiles))
            return got

        monkeypatch.setattr(oracle, "_cut", counting_cut)
        small = list(gen.enumerate_formulas(4, ("p", "q"), include_exists=False))
        ops = [(m1, m2) for m1 in (Diamond, Box) for m2 in (Diamond, Box)]
        leaves = [Atom("p"), NegAtom("p")]
        pairs = [
            join(a(b(x)), c(d(y)))
            for join in (And, Or)
            for a, b in ops
            for c, d in ops
            for x in leaves
            for y in leaves
        ]
        bodies = [(psi, metrics(psi).d_diamond) for psi in small + pairs]
        restrictions = {}
        literal = {}
        n = 0
        for a in modelgen.pointed_models(2, ("p", "q")):
            node = graph_nodes(a.model)[a.point]
            trees = {}
            for psi, depth in bodies:
                tree = unravel_node(node, depth, trees)
                want = literal.get((tree, psi))
                if want is None:
                    models = restrictions.get(tree)
                    if models is None:
                        models = restrictions[tree] = [tree_model(r) for r in node_restrictions(tree)]
                    want = literal[tree, psi] = any(kref.k_eval(m, "", psi) for m in models)
                assert oracle_eval(a, ExistsR(psi)) is want, (render(psi), a)
                n += 1
        assert n == (284 + 128) * 520
        assert len(cut_fired) > 10000

    def test_nested_not_rejected(self):
        # each Not is reached: a profile space compiles every closure
        # formula, and evaluation gets past each conjunct before it
        a = pm(["s", "t"], [("s", "t")], {"s": ["p"], "t": ["p"]}, "s")
        for f in [
            And(Atom("p"), Not(Atom("q"))),
            Diamond(Not(Atom("p"))),
            ExistsR(Or(Diamond(Atom("p")), Not(Atom("q")))),
            ExistsR(And(ExistsR(Atom("p")), Diamond(Not(Atom("q"))))),
        ]:
            with pytest.raises(FragmentViolation):
                oracle_sat(f)
            with pytest.raises(FragmentViolation):
                oracle_eval(a, f)


def test_time_budget():
    """Without a budget, the first runs past 30 s and the second takes
    about half a minute to hit the restriction cap; with 0.2 s both
    raise ResourceLimit."""
    full = pm(["a", "b", "c"], [(x, y) for x in "abc" for y in "abc"], {"a": ["p"]}, "a")
    cases = [
        lambda: oracle_sat(parse("<><><>Er <>(!p & p)"), time_budget=0.2),
        lambda: oracle_eval(full, parse("Er (Er p & <><><><>(p & !p))"), time_budget=0.2),
    ]

    def hung(signum, frame):
        raise AssertionError("time budget did not fire within 10 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        for case in cases:
            start = time.monotonic()
            with pytest.raises(ResourceLimit, match="time budget exhausted"):
                case()
            assert time.monotonic() - start < 2.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_time_budget_inside_a_fixpoint_level():
    """The profiles of this formula stay incomparable, so the cut keeps
    whole levels: levels 1 to 5 of its fixpoint take about 0.2 s together,
    level 6 another 2.5 to 4.7 s and level 7 about a minute.  A budget
    read once per level overran 1 s until level 6 ended; read once per
    summary pair, it stops on time."""
    text = "(" + "<>" * 10 + "p & " + "[]" * 10 + "!q) & " + "<>" * 10 + "q"
    start = time.monotonic()
    with pytest.raises(ResourceLimit, match="time budget exhausted"):
        oracle_sat(parse(text), time_budget=1.0)
    assert time.monotonic() - start < 2.0


def test_independent_of_the_decision_procedures():
    """The oracle, and every rmlsat module it imports, imports nothing
    from solver, tableau or modelcheck."""
    src = Path(oracle.__file__).parent
    seen = set()
    todo = ["oracle"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    todo.append(node.module.split(".")[0])
                else:
                    todo.extend(alias.name for alias in node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                assert not any(m and m.startswith("rmlsat") for m in mods), (name, mods)
    assert "oracle" in seen and "kripke" in seen
    assert not seen & {"solver", "tableau", "modelcheck"}, seen


class TestKnownDivergence:
    def test_duplicating_witness_out_of_reach(self):
        """Restrictions of an unravelling cannot duplicate a branch, so a
        refinement witness that needs two copies of the same original state
        with different futures is missed by the bounded evaluation.

        Recorded as a known-divergence fixture: the tableau checker (exact
        here) accepts while the oracle evaluation rejects.  The smallest
        triggers need a quantified body of around eleven nodes, far above
        every exhaustive agreement suite bound in this repository, and the
        solver-vs-oracle satisfiability comparison is unaffected because
        extracted witnesses always contain the needed branching.
        """
        chain = pm(["a", "b", "c"], [("a", "b"), ("b", "c")], {}, "a")
        f = parse("Er (<> [] (p & !p) & <> <> (p | !p))")
        # semantically true: duplicate the middle state, keep the grandchild
        # under one copy and cut the other copy's future
        assert check(chain, f) is True
        assert oracle_eval(chain, f) is False
