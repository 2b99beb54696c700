import random
import time

import pytest

from rmlsat import gen
from rmlsat.formula import And, Atom, Box, Diamond, ExistsR, NegAtom, Or, parse
from rmlsat.kripke import KripkeModel, model_to_dict, verify_refinement_mapping
from rmlsat.solver import SolverOptions, sat
from rmlsat.tableau import (
    Branch,
    ChoiceForbidden,
    ChoiceRequired,
    Clash,
    ChainModel,
    ModelChain,
    NotComplete,
    RuleInstance,
    _check_acceptance,
    extract_models,
    format_rule_line,
    is_prefix_of,
    parse_prefix,
    render_prefix,
)


def entry(mu, sigma, text):
    return (tuple(mu), tuple(sigma), parse(text))


def by_rule(branch, rule):
    return [i for i in branch.applicable_instances() if i.rule == rule]


class TestPrefixes:
    def test_render_parse(self):
        assert render_prefix((1, 2, 3)) == "1.2.3"
        assert parse_prefix("1.2.3") == (1, 2, 3)

    def test_is_prefix_of(self):
        assert is_prefix_of((1,), (1, 2))
        assert is_prefix_of((1, 2), (1, 2))
        assert not is_prefix_of((1, 2), (1, 3))
        assert not is_prefix_of((1, 2), (1,))


class TestApplicableInstances:
    def test_conjunction(self):
        b = Branch([entry([1], [1], "p & q")])
        insts = b.applicable_instances()
        assert len(insts) == 1 and insts[0].rule == "and"

    def test_box_needs_an_existing_successor(self):
        b = Branch([entry([1], [1], "[]p")])
        assert b.applicable_instances() == []

    def test_box_fires_on_descendant_witness(self):
        b = Branch([entry([1], [1], "[]p"), entry([1, 1], [1, 1], "q")])
        boxes = by_rule(b, "box")
        assert len(boxes) == 1
        got = b.apply(boxes[0])
        assert entry([1], [1, 1], "p") in got

    def test_box_not_reapplied(self):
        b = Branch(
            [entry([1], [1], "[]p"), entry([1, 1], [1, 1], "q"), entry([1], [1, 1], "p")]
        )
        assert by_rule(b, "box") == []

    def test_dia_done_once_witnessed(self):
        b = Branch([entry([1], [1], "<>p"), entry([1], [1, 1], "p")])
        assert by_rule(b, "dia") == []

    def test_or_done_when_either_disjunct_present(self):
        b = Branch([entry([1], [1], "p | q"), entry([1], [1], "q")])
        assert by_rule(b, "or") == []


class TestApply:
    def test_and(self):
        b = Branch([entry([1], [1], "p & q")])
        got = b.apply(b.applicable_instances()[0])
        assert entry([1], [1], "p") in got and entry([1], [1], "q") in got

    def test_exr_allocates_fresh_model_prefix(self):
        b = Branch([entry([1], [1], "Er p")])
        got = b.apply(b.applicable_instances()[0])
        assert entry([1, 1], [1], "p") in got
        assert got.next_index == 2

    def test_lit_copies_to_ancestor(self):
        b = Branch([entry([1], [1], "Er p"), entry([1, 1], [1], "!p")])
        lits = by_rule(b, "lit")
        assert len(lits) == 1 and lits[0].target == (1,)
        got = b.apply(lits[0])
        assert entry([1], [1], "!p") in got

    def test_dia_allocates_fresh_state_prefix(self):
        b = Branch([entry([1], [1], "<>p")])
        got = b.apply(by_rule(b, "dia")[0])
        assert entry([1], [1, 1], "p") in got

    def test_choice_handling(self):
        b = Branch([entry([1], [1], "p | q")])
        inst = b.applicable_instances()[0]
        with pytest.raises(ChoiceRequired):
            b.apply(inst)
        with pytest.raises(ChoiceForbidden):
            Branch([entry([1], [1], "p & q")]).apply(
                Branch([entry([1], [1], "p & q")]).applicable_instances()[0], "left"
            )
        left = b.apply(inst, "left")
        right = b.apply(inst, "right")
        assert entry([1], [1], "p") in left and entry([1], [1], "q") in right

    def test_monotone(self):
        b = Branch([entry([1], [1], "(p & q) | <>p")])
        seen = set(b.entries)
        work = b
        while not work.is_complete():
            inst = work.applicable_instances()[0]
            work = work.apply(inst, "left" if inst.rule == "or" else None)
            assert seen <= set(work.entries)
            seen = set(work.entries)

    def test_lit_copies_one_step(self):
        e = entry([1, 2, 3], [1], "p")
        b = Branch([e])
        assert [str(i) for i in b.applicable_instances()] == ["lit on (1.2.3,1) p target=1.2"]
        with pytest.raises(ValueError):
            b.apply(RuleInstance("lit", e, (1,)))
        got = b.apply(RuleInstance("lit", e, (1, 2)))
        assert [str(i) for i in got.applicable_instances()] == ["lit on (1.2,1) p target=1"]
        assert got.apply(got.applicable_instances()[0]).is_complete()


class TestClash:
    def test_direct(self):
        b = Branch([entry([1], [1], "p"), entry([1], [1], "!p")])
        assert b.has_clash() == ((1,), (1,), "p")

    def test_different_atoms(self):
        b = Branch([entry([1], [1], "p"), entry([1], [1], "!q")])
        assert b.has_clash() is None

    def test_lit_saturation_reveals_clash(self):
        b = Branch([entry([1, 1], [1], "p"), entry([1], [1], "!p")])
        assert b.has_clash() is None
        got = b.apply(by_rule(b, "lit")[0])
        assert got.has_clash() == ((1,), (1,), "p")


class TestComplete:
    def test_literal_only(self):
        assert Branch([entry([1], [1], "p")]).is_complete()

    def test_conjunction_not_complete(self):
        assert not Branch([entry([1], [1], "p & q")]).is_complete()

    def test_witnessed_diamond_complete(self):
        assert Branch([entry([1], [1], "<>p"), entry([1], [1, 1], "p")]).is_complete()


class TestExtraction:
    def test_diamond_witness_shape(self):
        res = sat(parse("<>p"))
        chain = res.models
        assert len(chain) == 1
        root = chain.root()
        assert len(root.model.states) == 2
        assert len(root.model.transitions) == 1
        leaf = next(s for s in root.model.states if s != root.point)
        assert root.model.valuation[leaf] == frozenset(["p"])
        assert root.model.valuation[root.point] == frozenset()

    def test_quantifier_witness_shape(self):
        res = sat(parse("Er p"))
        chain = res.models
        assert [cm.prefix for cm in chain] == [(1,), (1, 1)]
        for cm in chain:
            assert cm.model.states == ("1",)
            assert cm.model.valuation["1"] == frozenset(["p"])

    def test_chain_edges_are_refinement_mappings(self):
        res = sat(parse("Er (<>p & Er []!q)"))
        assert res.satisfiable
        edges = res.models.edges()
        assert edges
        for parent, child, rel in edges:
            assert verify_refinement_mapping(parent.model, child.model, rel)
            assert set(child.model.states) <= set(parent.model.states)

    def test_preconditions(self):
        with pytest.raises(NotComplete):
            extract_models(Branch([entry([1], [1], "p & q")]))
        with pytest.raises(Clash):
            extract_models(Branch([entry([1], [1], "p"), entry([1], [1], "!p")]))

    def test_repeated_last_index(self):
        # 1.2 and 1.3.2 end in the same index, and so do 1 and a first
        # fresh prefix 1.1: states are whole prefixes, not last indices
        chain = extract_models(Branch([
            entry([1], [1], "<>p & <><>q"),
            entry([1], [1], "<>p"),
            entry([1], [1], "<><>q"),
            entry([1], [1, 2], "p"),
            entry([1], [1, 3], "<>q"),
            entry([1], [1, 3, 2], "q"),
        ]))
        assert len(chain) == 1
        root = chain.root()
        assert root.model.states == ("1", "1.2", "1.3", "1.3.2")
        assert sorted(root.model.transitions) == [("1", "1.2"), ("1", "1.3"), ("1.3", "1.3.2")]
        assert [s for s in root.model.states if "q" in root.model.valuation[s]] == ["1.3.2"]
        assert root.model.valuation["1.2"] == frozenset(["p"])

    def test_chain_round_trip(self):
        res = sat(parse("Er <>p"))
        d = res.models.to_dict(formula_text="Er <>p")
        back = ModelChain.from_dict(d)
        assert [cm.prefix for cm in back] == [cm.prefix for cm in res.models]
        assert all(
            a.model == b.model and a.point == b.point
            for a, b in zip(back, res.models)
        )

    @pytest.mark.parametrize("d, problem", [
        ({}, '"models" list'),
        ({"models": 3}, '"models" list'),
        ([], '"models" list'),
        ({"models": [{"states": ["1"], "point": "1"}]}, '"prefix"'),
        ({"models": [{"prefix": 1, "states": ["1"]}]}, '"prefix"'),
        ({"models": [{"prefix": "1..2", "states": ["1"]}]}, '"prefix"'),
        ({"models": [{"prefix": "1", "states": "1"}]}, '"states"'),
        ({"models": ["1"]}, '"states"'),
    ])
    def test_malformed_witness_rejected(self, d, problem):
        with pytest.raises(ValueError, match=problem):
            ModelChain.from_dict(d)

    @pytest.mark.parametrize("text", [
        " & ".join([f"Er <>(x{i} & <>y)" for i in range(12)] + ["[]q", "<>Er <>z"]),
        "Er <>" * 12 + "p",
        "<>(p & <>q & <>(q & Er <>!p)) & " + " & ".join(f"<>x{i}" for i in range(11)),
    ])
    def test_read_models_match_validated_models(self, text):
        # the reader builds models without KripkeModel's checks; they must
        # be the models that checking constructor makes, slot for slot,
        # with states past "1.10" sorting as strings, and the witness
        # object must be the one model_to_dict gives model by model
        chain = sat(parse(text)).models
        for cm in chain:
            m = cm.model
            checked = KripkeModel(m.states, m.transitions, m.valuation)
            assert m.states == checked.states
            assert list(m._succ.items()) == list(checked._succ.items())
            assert list(m.valuation.items()) == list(checked.valuation.items())
            assert m == checked and hash(m) == hash(checked)
        d = chain.to_dict(formula_text=text)
        assert d == {
            "models": [
                {"prefix": render_prefix(cm.prefix), **model_to_dict(cm.model, cm.point)}
                for cm in chain
            ],
            "formula": text,
        }


def scan_box_witnesses(b, mu, sigma):
    out = []
    for mu2, sigma2, _ in b.entries:
        if sigma2[:-1] == sigma and len(sigma2) == len(sigma) + 1 and is_prefix_of(mu, mu2):
            if sigma2 not in out:
                out.append(sigma2)
    return out


def scan_dia_witness(b, mu, sigma, body):
    return any(m == mu and s[:-1] == sigma and len(s) > 1 and f == body for m, s, f in b.entries)


def scan_exr_witness(b, mu, sigma, body):
    return any(s == sigma and m[:-1] == mu and len(m) > 1 and f == body for m, s, f in b.entries)


def scan_instances(b):
    """The rule instances of b under the any-ancestor lit rule, each side
    condition a scan of the entries."""
    entries = b.entries
    out = []
    for e in entries:
        mu, sigma, f = e
        if isinstance(f, And):
            if (mu, sigma, f.left) not in entries or (mu, sigma, f.right) not in entries:
                out.append(RuleInstance("and", e))
        elif isinstance(f, Or):
            if (mu, sigma, f.left) not in entries and (mu, sigma, f.right) not in entries:
                out.append(RuleInstance("or", e))
        elif isinstance(f, (Atom, NegAtom)):
            for k in range(len(mu) - 1, 0, -1):
                if (mu[:k], sigma, f) not in entries:
                    out.append(RuleInstance("lit", e, mu[:k]))
        elif isinstance(f, Diamond):
            if not scan_dia_witness(b, mu, sigma, f.body):
                out.append(RuleInstance("dia", e))
        elif isinstance(f, ExistsR):
            if not scan_exr_witness(b, mu, sigma, f.body):
                out.append(RuleInstance("exr", e))
        elif isinstance(f, Box):
            for sigma2 in scan_box_witnesses(b, mu, sigma):
                if (mu, sigma2, f.body) not in entries:
                    out.append(RuleInstance("box", e, sigma2))
    return out


class TestOneStepLit:
    """A branch is closed under the one-step lit rule exactly when it is
    closed under the rule that copies a literal to any ancestor model
    prefix; the other rules list the same instances as the scans."""

    def assert_matches_scan(self, b):
        ours, scanned = b.applicable_instances(), scan_instances(b)
        assert b.is_complete() == (scanned == [])
        assert [i for i in ours if i.rule != "lit"] == [i for i in scanned if i.rule != "lit"]
        assert {i for i in ours if i.rule == "lit"} <= set(scanned)

    def test_solver_branches_cut(self):
        rng = random.Random(1)
        seen = 0
        for f in gen.enumerate_formulas(5, ("p", "q")):
            res = sat(f)
            if not res.satisfiable:
                continue
            entries = res.branch.entries
            for k in {len(entries), len(entries) - 1, rng.randrange(1, len(entries) + 1)}:
                if k:
                    self.assert_matches_scan(Branch(entries[:k]))
                    seen += 1
        assert seen > 4000

    @pytest.mark.parametrize("entries", [
        [entry([1, 2, 3], [1], "p")],
        [entry([1, 2, 3], [1], "p"), entry([1], [1], "p")],
        [entry([1, 2, 3], [1], "p"), entry([1, 2], [1], "p")],
        [entry([1, 2, 3, 4], [1, 5], "!q"), entry([1, 2], [1, 5], "!q"), entry([1], [1, 5], "!q")],
        [entry([1, 2, 3, 4], [1, 5], "!q"), entry([1, 2, 3], [1, 5], "!q"),
         entry([1, 2], [1, 5], "!q"), entry([1], [1, 5], "!q")],
    ])
    def test_hand_built_gaps(self, entries):
        self.assert_matches_scan(Branch(entries))


class TestValueTypes:
    """RuleInstance is frozen and hashes as its fields; ChainModel and
    ModelChain are mutable and unhashable; all compare and print field-wise."""

    def test_rule_instance(self):
        e = entry([1], [1], "p & q")
        r = RuleInstance("and", e)
        assert (r.rule, r.entry, r.target) == ("and", e, None)
        assert r == RuleInstance(rule="and", entry=e, target=None) == RuleInstance("and", e, None)
        assert r != RuleInstance("and", e, (1,)) and r != ("and", e, None)
        assert hash(r) == hash(("and", e, None))
        assert repr(r) == "RuleInstance(rule='and', entry=((1,), (1,), And<(p & q)>), target=None)"
        assert str(RuleInstance("box", entry([1], [1], "[]p"), (1, 2))) == "box on (1,1) []p target=1.2"
        with pytest.raises(AttributeError):
            r.target = (1,)
        with pytest.raises(AttributeError):
            del r.rule

    def test_chain_model(self):
        m = KripkeModel(["1"], [], {"1": ["p"]})
        c = ChainModel((1,), m, "1")
        assert c == ChainModel(prefix=(1,), model=m, point="1") and c != ((1,), m, "1")
        assert c != ChainModel((1, 2), m, "1")
        assert repr(c) == "ChainModel(prefix=(1,), model=KripkeModel(states=1, transitions=0), point='1')"
        c.point = "2"
        assert c.point == "2"
        with pytest.raises(TypeError):
            hash(c)

    def test_model_chain(self):
        a, b = ModelChain(), ModelChain()
        assert a.chain == [] and a.chain is not b.chain
        assert a == b == ModelChain(chain=[]) and a != ([],)
        m = KripkeModel(["1"], [], {})
        a.chain.append(ChainModel((1,), m, "1"))
        assert a != b and a == ModelChain([ChainModel((1,), m, "1")])
        assert repr(b) == "ModelChain(chain=[])"
        assert repr(a) == (
            "ModelChain(chain=[ChainModel(prefix=(1,), model="
            "KripkeModel(states=1, transitions=0), point='1')])"
        )
        with pytest.raises(TypeError):
            hash(a)


class TestIndex:
    """The branch index answers exactly what a scan of the entries would."""

    def assert_matches_scans(self, b):
        prefixes = {(m, s) for m, s, _ in b.entries}
        bodies = {f for _, _, f in b.entries}
        for mu, sigma in prefixes:
            assert b._box_witnesses(mu, sigma) == scan_box_witnesses(b, mu, sigma)
            for body in bodies:
                x = (mu, sigma, body)
                assert (x in b._dia_witnesses()) == scan_dia_witness(b, mu, sigma, body)
                assert (x in b._exr_children()) == scan_exr_witness(b, mu, sigma, body)

    def test_solver_branches(self):
        for f in gen.enumerate_formulas(4, ("p",)):
            res = sat(f)
            if res.satisfiable:
                self.assert_matches_scans(res.branch)

    @pytest.mark.parametrize("text", [
        "[]q & " + "Er <>" * 12 + "p",
        "Er <>[]q & " + "Er <>" * 12 + "p",
    ])
    def test_nested_boxes(self, text):
        res = sat(parse(text))
        assert res.satisfiable
        self.assert_matches_scans(res.branch)

    def test_successor_first_seen_under_another_model(self):
        # 1.5 first occurs under 1.2, which does not extend 1.3
        b = Branch([
            entry([1, 2], [1, 5], "x"),
            entry([1, 3], [1, 4], "y"),
            entry([1, 3], [1, 5], "z"),
            entry([1], [1], "[]w"),
        ])
        assert b._box_witnesses((1, 3), (1,)) == [(1, 4), (1, 5)]
        assert b._box_witnesses((1,), (1,)) == [(1, 5), (1, 4)]
        self.assert_matches_scans(b)

    def test_hand_built_branch(self):
        self.assert_matches_scans(Branch([
            entry([1], [1], "[]p"),
            entry([1, 2], [1, 3], "q"),
            entry([1, 2, 4], [1, 5], "<>q"),
            entry([1, 2, 4], [1, 5, 6], "q"),
            entry([1], [1, 3], "p"),
            entry([1, 7], [1], "Er q"),
            entry([1, 7, 8], [1], "q"),
        ], next_index=9))

    def test_extended_branch_is_reindexed(self):
        b = Branch([entry([1], [1], "[]p"), entry([1], [1], "<>q")])
        assert by_rule(b, "box") == []
        got = b.apply(by_rule(b, "dia")[0])
        assert by_rule(got, "dia") == []
        assert [i.target for i in by_rule(got, "box")] == [(1, 1)]


def er_nest_branch(n):
    """The complete branch of Er x n p, built without the search: the
    chain of quantifiers and p copied to every model prefix above."""
    f = parse("Er " * n + "p")
    mus, out = [(1,)], []
    for j in range(n):
        out.append((mus[-1], (1,), f))
        f = f.body
        mus.append(mus[-1] + (j + 1,))
    return Branch(out + [(mu, (1,), f) for mu in reversed(mus)])


class TestAcceptanceScaling:
    """The acceptance re-check looks one step up from each literal and
    builds the box index with one update per entry, so deep branches
    check in about linear time; walking every ancestor model prefix of
    every literal takes several seconds on either input."""

    def assert_fast(self, b):
        t = time.perf_counter()
        _check_acceptance(b)
        assert time.perf_counter() - t < 1.0

    def test_er_nest(self):
        b = er_nest_branch(1600)
        assert len(b) == 3201
        self.assert_fast(b)

    def test_box_over_er_dia_nest(self):
        res = sat(parse("[]q & " + "Er <>" * 500 + "p"))
        # a fresh branch, whose index sat() has not built yet
        self.assert_fast(Branch(res.branch.entries, res.branch.next_index))


class TestSolverBranchesAreWellFormed:
    def test_complete_and_accepting(self):
        for text in ["p | !p", "<>p & []q", "Er (<>p & <>!p)", "Er Er <> (p | q)"]:
            res = sat(parse(text))
            assert res.satisfiable
            assert res.branch.is_complete()
            assert res.branch.has_clash() is None

    def test_every_model_prefix_has_a_creating_quantifier(self):
        from rmlsat.formula import ExistsR

        res = sat(parse("Er (<>p & Er []!q)"))
        entries = set(res.branch.entries)
        for mu in {e[0] for e in entries}:
            if len(mu) == 1:
                continue
            assert any(
                m2 == mu[:-1]
                and isinstance(g, ExistsR)
                and (mu, sigma2, g.body) in entries
                for m2, sigma2, g in entries
            ), render_prefix(mu)


def test_trace_format():
    opts = SolverOptions(trace=True)
    res = sat(parse("p & (q | !p)"), opts)
    assert res.trace[0] == "AND (1,1) (p & (q | !p)) => (1,1) p; (1,1) (q | !p)"
    assert any(line.startswith("OR (1,1) (q | !p) => ") for line in res.trace)
    assert format_rule_line("DIA", entry([1], [1], "<>p"), [entry([1], [1, 1], "p")]) == (
        "DIA (1,1) <>p => (1,1.1) p"
    )
