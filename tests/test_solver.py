import io
import itertools
import random
import signal
import time

import pytest

import kref
from rmlsat import gen, solver
from rmlsat.errors import ResourceLimit
from rmlsat.formula import FragmentViolation, metrics, parse, render, size
from rmlsat.kripke import KripkeModel, PointedModel, verify_refinement_mapping
from rmlsat.modelcheck import check
from rmlsat.oracle import oracle_eval, oracle_sat
from rmlsat.solver import (
    ClashFailure,
    SatResult,
    SearchState,
    SearchStats,
    SolverOptions,
    run_activation,
    sat,
)
from rmlsat.tableau import Clash, NotComplete, extract_models


def entries(*rows):
    return tuple((tuple(mu), tuple(sigma), parse(text)) for mu, sigma, text in rows)


class TestRunActivation:
    def test_literal_only_returns_unchanged(self):
        st = SearchState(entries(([1], [1], "p")))
        assert set(run_activation(st)) == set(entries(([1], [1], "p")))

    def test_diamond_box_conflict_clashes_in_child(self):
        st = SearchState(entries(([1], [1], "<>p"), ([1], [1], "[]!p")))
        with pytest.raises(ClashFailure) as err:
            run_activation(st)
        assert err.value.witness[2] == "p"

    def test_quantifier_literal_merge_back_clashes(self):
        st = SearchState(entries(([1], [1], "Er p"), ([1], [1], "!p")))
        with pytest.raises(ClashFailure) as err:
            run_activation(st)
        assert err.value.witness == ((1,), (1,), "p")

    def test_merge_back_propagates_ancestor_literals_only(self):
        st = SearchState(entries(([1], [1], "Er p")))
        final = set(run_activation(st))
        # the child derives (1.1,1) p and copies it down; only the ancestor
        # copy returns to this activation
        assert ((1,), (1,), parse("p")) in final
        assert final == set(entries(([1], [1], "Er p"), ([1], [1], "p")))

    @pytest.mark.parametrize(
        "order, first",
        [(("q", "p", "!p", "!q"), "p"), (("p", "q", "!q", "!p"), "q")],
    )
    def test_clash_witness_is_first_in_insertion_order(self, order, first):
        st = SearchState(entries(*(([1], [1], text) for text in order)))
        with pytest.raises(ClashFailure) as err:
            run_activation(st)
        assert err.value.witness == ((1,), (1,), first)

    def test_clash_inherited_by_quantifier_child(self):
        # the Er child inherits p and !p at (1,1) and processes only its
        # own entries: one EXR, its DIA and L steps, then its clash
        st = SearchState(entries(([1], [1], "p"), ([1], [1], "Er <>q"), ([1], [1], "!p")))
        out = io.StringIO()
        with pytest.raises(ClashFailure) as err:
            run_activation(st, SolverOptions(trace_out=out))
        assert err.value.witness == ((1,), (1,), "p")
        rules = [line.split()[0] for line in out.getvalue().splitlines()]
        assert rules == ["EXR", "DIA", "L", "REJECT"]

    def test_clash_from_second_completion_merge(self):
        # the first completion of Er (p | q) merges p, which Er !p refutes;
        # the second merges q, which only Er !q refutes
        st = SearchState(entries(([1], [1], "Er (p | q)"), ([1], [1], "Er !p"), ([1], [1], "Er !q")))
        with pytest.raises(ClashFailure) as err:
            run_activation(st)
        assert err.value.witness == ((1,), (1,), "q")

    def test_undone_merge_causes_no_false_clash(self):
        # p, merged from the first completion of Er (p | q), must be gone
        # before the second completion's q is merged and Er !p runs
        st = SearchState(entries(([1], [1], "Er (p | q)"), ([1], [1], "Er !p")))
        final = run_activation(st)
        assert final == entries(
            ([1], [1], "Er (p | q)"), ([1], [1], "Er !p"), ([1], [1], "q"), ([1], [1], "!p")
        )


STATS_REPR = (
    "SearchStats(activations=0, max_depth=0, max_p_size=0, backtracks=0,"
    " max_model_prefix_len=0, max_state_prefix_len=0)"
)


class TestValueTypes:
    """SolverOptions, SearchStats, SearchState and SatResult: field-wise
    equality and repr, mutable, unhashable."""

    def test_solver_options(self):
        out = io.StringIO()
        o = SolverOptions()
        assert (o.node_budget, o.time_budget, o.trace, o.trace_out) == (10**6, None, False, None)
        assert SolverOptions(5, 1.5, True, out) == SolverOptions(
            node_budget=5, time_budget=1.5, trace=True, trace_out=out
        )
        assert o == SolverOptions() and o != SolverOptions(node_budget=5)
        assert o != (10**6, None, False, None)
        assert repr(o) == "SolverOptions(node_budget=1000000, time_budget=None, trace=False, trace_out=None)"
        o.trace = True
        assert o == SolverOptions(trace=True)

    def test_search_stats(self):
        s = SearchStats()
        assert s == SearchStats(0, 0, 0, 0, 0, 0) and s != (0, 0, 0, 0, 0, 0)
        assert SearchStats(1, 2, 3, 4, 5, 6) == SearchStats(
            activations=1, max_depth=2, max_p_size=3, backtracks=4,
            max_model_prefix_len=5, max_state_prefix_len=6,
        )
        assert repr(s) == STATS_REPR
        s.activations += 1
        assert s != SearchStats() and s == SearchStats(activations=1)

    def test_search_state(self):
        e = entries(([1], [1], "p"))
        st = SearchState(e)
        assert (st.entries, st.sigma, st.counter) == (e, (1,), 1)
        assert st == SearchState(entries=e, sigma=(1,), counter=1) == SearchState(e, (1,), 1)
        assert st != SearchState(e, (1, 2)) and st != (e, (1,), 1)
        assert repr(st) == "SearchState(entries=(((1,), (1,), Atom<p>),), sigma=(1,), counter=1)"
        st.counter = 4
        assert st == SearchState(e, counter=4)

    def test_sat_result(self):
        r = SatResult(False)
        assert (r.satisfiable, r.branch, r.stats, r.trace) == (False, None, SearchStats(), ())
        assert r.stats is not SatResult(False).stats
        assert r == SatResult(satisfiable=False) and r != SatResult(True)
        assert r != (False, None, SearchStats(), ())
        assert repr(r) == f"SatResult(satisfiable=False, branch=None, stats={STATS_REPR}, trace=())"
        res = sat(parse("<>p"))
        same = SatResult(res.satisfiable, res.branch, res.stats, res.trace)
        assert res.models is not None and "models" not in repr(res)
        assert res == same and not res != same
        r.trace = ("x",)
        assert r.trace == ("x",)

    @pytest.mark.parametrize("make", [
        SolverOptions, SearchStats, lambda: SearchState(()), lambda: SatResult(True),
    ])
    def test_unhashable(self, make):
        with pytest.raises(TypeError):
            hash(make())


class TestInheritedEntries:
    def test_nested_children_inherit_a_clash(self):
        # each quantifier child inherits its parent's entries at ancestor
        # prefixes, p and !p at (1,1) among them, and expands only its own:
        # each Er once, and only the innermost child (1.1.3), which has no
        # children of its own, rejects on the inherited clash
        res = sat(parse("p & Er (<>q & Er r) & !p"), SolverOptions(trace=True))
        assert not res.satisfiable
        assert res.stats.summary() == (
            "activations=4 max_depth=3 max_p=11 backtracks=1 max_mu_len=3 max_sigma_len=2"
        )
        assert res.trace == (
            "AND (1,1) ((p & Er (<>q & Er r)) & !p) => (1,1) (p & Er (<>q & Er r)); (1,1) !p",
            "AND (1,1) (p & Er (<>q & Er r)) => (1,1) p; (1,1) Er (<>q & Er r)",
            "EXR (1,1) Er (<>q & Er r) => (1.1,1) (<>q & Er r)",
            "AND (1.1,1) (<>q & Er r) => (1.1,1) <>q; (1.1,1) Er r",
            "DIA (1.1,1) <>q => (1.1,1.2) q",
            "L (1.1,1.2) q => (1,1.2) q",
            "EXR (1.1,1) Er r => (1.1.3,1) r",
            "L (1.1.3,1) r => (1.1,1) r; (1,1) r",
            "REJECT (1,1) clash p",
        )


class TestSat:
    def test_tautology(self):
        assert sat(parse("p | !p")).satisfiable

    def test_diamond_box_conflict(self):
        assert not sat(parse("<>p & []!p")).satisfiable

    def test_refinement_drops_the_transition(self):
        assert sat(parse("(<>p) & Er [](z & !z)")).satisfiable

    def test_forall_rejected(self):
        with pytest.raises(FragmentViolation):
            sat(parse("Ar p"))

    def test_unsat_carries_no_witness(self):
        res = sat(parse("p & !p"))
        assert not res.satisfiable and res.branch is None and res.models is None

    def test_budget_is_not_a_verdict(self):
        with pytest.raises(ResourceLimit):
            sat(parse("<>p"), SolverOptions(node_budget=1))

    def test_agreement_with_oracle_small(self):
        for f in gen.enumerate_formulas(5, ("p", "q")):
            assert sat(f).satisfiable == oracle_sat(f), render(f)

    def test_witnesses_satisfy_their_formula(self):
        rng = random.Random(11)
        for _ in range(200):
            f = gen.random_formula(rng, rng.randint(1, 8), ("p", "q"))
            res = sat(f)
            if not res.satisfiable:
                continue
            root = res.models.root()
            assert oracle_eval(PointedModel(root.model, root.point), f), render(f)
            for parent, child, rel in res.models.edges():
                assert verify_refinement_mapping(parent.model, child.model, rel)


class TestStats:
    def test_single_literal(self):
        res = sat(parse("p"))
        assert res.stats.activations == 1
        assert res.stats.max_depth == 1

    def test_nested_diamonds_depth(self):
        res = sat(parse("<><>p"))
        assert res.stats.max_depth <= 3

    def test_p_size_bound(self):
        for f in gen.enumerate_formulas(4, ("p", "q")):
            res = sat(f)
            limit = (metrics(f).d_exists + 1) * size(f)
            assert res.stats.max_p_size <= limit, render(f)

    def test_prefix_bounds(self):
        for f in gen.enumerate_formulas(4, ("p", "q")):
            res = sat(f)
            m = metrics(f)
            assert res.stats.max_model_prefix_len <= m.d_exists + 1
            assert res.stats.max_state_prefix_len <= m.d_diamond + 1

    def test_summary_line(self):
        res = sat(parse("p"))
        assert res.stats.summary().startswith("activations=1 ")

    @pytest.mark.parametrize(
        "wrap, max_p", [("Er <>({})", 31), ("<>Er ({})", 32)], ids=["er-dia", "dia-er"]
    )
    def test_cnf_core_search_shape(self, wrap, max_p):
        # all eight sign patterns over c0..c2: unsatisfiable, and the search
        # tries every or choice before it can say so
        clauses = " & ".join(
            "(" + " | ".join(("!" if neg else "") + v for v, neg in zip(("c0", "c1", "c2"), signs)) + ")"
            for signs in itertools.product((False, True), repeat=3)
        )
        res = sat(parse(wrap.format(clauses)), SolverOptions(trace=True))
        assert res.satisfiable is False
        assert res.stats.summary() == (
            f"activations=3 max_depth=3 max_p={max_p} backtracks=2401 max_mu_len=2 max_sigma_len=2"
        )
        rules = {}
        for line in res.trace:
            rule = line.split(" ", 1)[0]
            rules[rule] = rules.get(rule, 0) + 1
        assert rules == {"EXR": 1, "DIA": 1, "AND": 164, "OR": 4800, "L": 3045, "REJECT": 2401}


class TestDeterminism:
    def test_identical_runs(self):
        f = parse("Er (<>p & (q | !p)) | <>(p & Er []!q)")
        a = sat(f, SolverOptions(trace=True))
        b = sat(f, SolverOptions(trace=True))
        assert a.satisfiable == b.satisfiable
        assert a.trace == b.trace
        assert a.models.to_dict() == b.models.to_dict()
        assert a.stats == b.stats

    def test_stream_alone_turns_tracing_on(self):
        # a trace_out stream without trace=True gets the lines trace=True records
        f = parse("p & (q | !p)")
        out = io.StringIO()
        streamed = sat(f, SolverOptions(trace_out=out))
        traced = sat(f, SolverOptions(trace=True))
        assert traced.trace
        assert out.getvalue() == "".join(line + "\n" for line in traced.trace)
        assert streamed.trace == traced.trace


class TestLazyModels:
    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        real = solver._read_models

        def counting(branch):
            calls.append(branch)
            return real(branch)

        monkeypatch.setattr(solver, "_read_models", counting)
        return calls

    def test_verdict_alone_reads_no_models(self, reads):
        for f in gen.enumerate_formulas(4, ("p", "q")):
            sat(f).satisfiable
        assert reads == []

    def test_models_read_once(self, reads):
        res = sat(parse("Er <>p & q"))
        first = res.models
        assert res.models is first
        assert len(reads) == 1
        assert first.to_dict() == extract_models(res.branch).to_dict()

    def test_every_sat_verdict_is_checked(self, monkeypatch):
        checked = []
        real = solver._check_acceptance

        def counting(branch):
            checked.append(branch)
            real(branch)

        monkeypatch.setattr(solver, "_check_acceptance", counting)
        verdicts = [sat(f).satisfiable for f in gen.enumerate_formulas(4, ("p", "q"))]
        assert len(checked) == sum(verdicts) > 0

    @staticmethod
    def _claim_success(monkeypatch, entries):
        """Make the search claim success with entries as its produced log."""
        def solve(self, *a):
            self.log = list(entries)
            return {}
        monkeypatch.setattr(solver._Engine, "solve", solve)

    def test_incomplete_branch_raises(self, monkeypatch):
        # the search claims success but produced only the root entry,
        # leaving its and-rule unapplied
        root = ((1,), (1,), parse("p & <>q"))
        self._claim_success(monkeypatch, [root])
        with pytest.raises(NotComplete):
            sat(root[2])

    def test_clashing_branch_raises(self, monkeypatch):
        f = parse("p | !p")
        contradictory = [
            ((1,), (1,), f),
            ((1,), (1,), parse("p")),
            ((1,), (1,), parse("!p")),
        ]
        self._claim_success(monkeypatch, contradictory)
        with pytest.raises(Clash):
            sat(f)


def atom_conjunction(n):
    return " & ".join(f"x_{i}" for i in range(n))


def diamond_conjunction(n):
    return " & ".join(f"<>x_{i}" for i in range(n))


def clause_conjunction(n):
    return " & ".join(f"(a_{i} | b_{i})" for i in range(n))


def quantifier_conjunction(n):
    return " & ".join(f"Er x_{i}" for i in range(n))


def fan_out(n, missing=()):
    """State r with successors t_0..t_{n-1}, each labelled p unless missing."""
    succ = [f"t_{i}" for i in range(n)]
    valuation = {t: ["p"] for i, t in enumerate(succ) if i not in missing}
    return PointedModel(KripkeModel(["r", *succ], [("r", t) for t in succ], valuation), "r")


class TestWideInputs:
    """Saturation is a loop, and the or choice points and every child of an
    activation sit on explicit stacks, so a wide conjunction costs no
    stack depth."""

    def test_wide_atom_conjunction_sat(self):
        res = sat(parse(atom_conjunction(3000)))
        assert res.satisfiable
        assert len(res.models.root().model.valuation["1"]) == 3000

    def test_wide_atom_conjunction_refuted(self):
        assert not sat(parse(atom_conjunction(3000) + " & !x_1234")).satisfiable

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_wide_diamond_conjunction_sat(self, n):
        res = sat(parse(diamond_conjunction(n) + " & []q"))
        assert res.satisfiable
        root = res.models.root()
        assert len(root.model.successors(root.point)) == n

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_wide_diamond_conjunction_refuted(self, n):
        assert not sat(parse(diamond_conjunction(n) + f" & []!x_{n - 7}")).satisfiable

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_wide_disjunction_conjunction_sat(self, n):
        # one or choice point per clause, all on the explicit stack
        res = sat(parse(clause_conjunction(n)))
        assert res.satisfiable
        assert res.stats.activations == 1 and res.stats.backtracks == 0

    @pytest.mark.parametrize(
        "labels, want",
        [
            ([f"b_{i}" for i in range(3000)], True),
            # the cursor reaches (a_0 | b_0) last, under 2,999 choice points
            ([f"b_{i}" for i in range(1, 3000)], False),
        ],
    )
    def test_wide_disjunction_conjunction_check(self, labels, want):
        pointed = PointedModel(KripkeModel(["s"], [], {"s": labels}), "s")
        assert check(pointed, parse(clause_conjunction(3000))) is want

    def test_wide_quantifier_conjunction(self):
        # one quantifier child per conjunct, all on the activation's stack
        res = sat(parse(quantifier_conjunction(1000)))
        assert res.satisfiable
        assert res.stats.activations == 1001 and res.stats.max_depth == 2
        assert not sat(parse(quantifier_conjunction(1000) + " & !x_7")).satisfiable

    @pytest.mark.parametrize("text", ["[]p", "[]p & <>p"])
    def test_wide_box_fan_out_check(self, text):
        # one BOX1 child per successor, all on the activation's stack
        assert check(fan_out(2000), parse(text)) is True
        assert check(fan_out(2000, missing=(1234,)), parse(text)) is False


class TestTimeBudget:
    def test_fires_inside_one_activation(self):
        # all 16 sign patterns over four atoms: unsatisfiable, and the one
        # activation's or-search would run for minutes without the check
        core = " & ".join(
            "(" + " | ".join(("!" if neg else "") + v for v, neg in zip("abcd", signs)) + ")"
            for signs in itertools.product((False, True), repeat=4)
        )
        f = parse(core)

        def hung(signum, frame):
            raise AssertionError("time budget did not fire within 10 s")

        old = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            start = time.monotonic()
            with pytest.raises(ResourceLimit, match="time budget"):
                sat(f, SolverOptions(time_budget=0.2))
            assert time.monotonic() - start < 2.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)


class TestKFragment:
    def test_matches_reference_satisfiability_sample(self):
        for f in gen.enumerate_formulas(5, ("p", "q"), include_exists=False):
            assert sat(f).satisfiable == kref.k_sat_bounded(f), render(f)


def test_verdicts_match_oracle_on_random_large_formulas():
    # the oracle may hit its candidate cap on adversarial shapes; such
    # formulas are skipped rather than miscounted
    rng = random.Random(20250809)
    compared = 0
    for _ in range(1000):
        f = gen.random_formula(rng, rng.randint(1, 10), ("p", "q"))
        verdict = sat(f).satisfiable
        try:
            want = oracle_sat(f, max_candidates=200000)
        except ResourceLimit:
            continue
        compared += 1
        assert verdict == want, render(f)
    assert compared > 900
