import hashlib
import random

import pytest

import modelgen
import search_order
from rmlsat import gen
from rmlsat.formula import FragmentViolation, parse, render
from rmlsat.kripke import KripkeModel, PointedModel, greatest_refinement
from rmlsat.modelcheck import (
    InvalidInput,
    check,
    enumerate_const_formulas,
    lower_const,
    parse_const,
    reduce_k_sat,
    render_const,
)
from rmlsat.oracle import oracle_eval
from rmlsat.solver import SolverOptions, _Engine, sat


def pm(states, transitions, valuation, point):
    return PointedModel(KripkeModel(states, transitions, valuation), point)


class TestCheck:
    def test_atom(self):
        assert check(pm(["s"], [], {"s": ["p"]}, "s"), parse("p"))
        assert not check(pm(["s"], [], {}, "s"), parse("p"))

    def test_refinement_drops_the_loop(self):
        a = pm(["s"], [("s", "s")], {}, "s")
        assert check(a, parse("Er [](z & !z)"))

    def test_no_witness_without_the_atom(self):
        a = pm(["s"], [("s", "s")], {}, "s")
        assert not check(a, parse("Er <> p"))

    def test_box_visits_every_successor(self):
        m = pm(
            ["r", "a", "b"],
            [("r", "a"), ("r", "b")],
            {"a": ["p"], "b": []},
            "r",
        )
        assert not check(m, parse("[]p"))
        assert check(m, parse("[](p | !p)"))
        assert check(m, parse("<>p & <>!p"))

    def test_forall_rejected(self):
        with pytest.raises(FragmentViolation):
            check(pm(["s"], [], {}, "s"), parse("Ar p"))

    def test_agrees_with_oracle_two_state(self):
        formulas = list(gen.enumerate_formulas(4, ("p",)))
        for a in modelgen.pointed_models(2, ("p",)):
            for f in formulas:
                assert check(a, f) == oracle_eval(a, f), (
                    render(f),
                    sorted(a.model.transitions),
                    a.point,
                )

    def test_monotone_under_refinement(self):
        models = list(modelgen.pointed_models(2, ("p",)))
        formulas = [
            f for f in gen.enumerate_formulas(4, ("p",)) if render(f).startswith("Er")
        ]
        rng = random.Random(5)
        for a in rng.sample(models, 30):
            for b in rng.sample(models, 10):
                rel = greatest_refinement(a.model, b.model)
                if (a.point, b.point) not in rel.pairs:
                    continue
                for f in formulas:
                    if check(b, f):
                        assert check(a, f), render(f)


def traced_check(a, text):
    """(verdict, trace lines, stats summary) of check(a, text)."""
    engine = _Engine(SolverOptions(trace=True), a)
    got = engine.solve([((1,), (1,), parse(text))], (1,))
    return got is not None, engine.trace, engine.stats.summary()


class TestStatePinning:
    def test_quantifier_children_add_no_box1(self):
        # the seven BOX1 children at c belong to the root; the two nested
        # quantifier children share prefix 1 and add none of their own
        a = PointedModel(search_order.star_model(), "c")
        verdict, trace, _ = traced_check(a, "Er Er <>p & [](q | !q)")
        assert verdict is True
        assert sum(line.startswith("BOX1 ") for line in trace) == 7
        assert sum(line.startswith("EXR ") for line in trace) == 2

    def test_entry_before_a_rejected_literal_counts(self):
        # the diamond child at v adds (p & p) at the fresh prefix before
        # !p is rejected there, so the longest state prefix has length 2
        a = pm(["u", "v"], [("u", "v")], {"v": ["p"]}, "u")
        verdict, _, summary = traced_check(a, "Er (<>(p & p) & []!p)")
        assert verdict is False
        assert "max_sigma_len=2" in summary.split()

    def test_rejected_batch_leaves_max_p(self):
        # the AND batch adds []p before p is rejected at v: max_p stays at
        # the one entry the BOX1 child started with
        a = pm(["u", "v"], [("u", "v")], {}, "u")
        assert traced_check(a, "[]([]p & p)") == (
            False,
            [
                "BOX1 (1,1) []([]p & p) => (1,1.1) ([]p & p)",
                "AND (1,1.1) ([]p & p) => (1,1.1) []p; (1,1.1) p",
                "REJECT (1,1.1) literal p",
            ],
            "activations=2 max_depth=2 max_p=1 backtracks=1 max_mu_len=1 max_sigma_len=2",
        )

    def test_both_or_alternatives_rejected(self):
        a = pm(["s"], [], {}, "s")
        assert traced_check(a, "(q | p)") == (
            False,
            [
                "OR (1,1) (q | p) => (1,1) q",
                "REJECT (1,1) literal q",
                "OR (1,1) (q | p) => (1,1) p",
                "REJECT (1,1) literal p",
            ],
            "activations=1 max_depth=1 max_p=1 backtracks=2 max_mu_len=1 max_sigma_len=1",
        )

    def test_deep_mixed_children_on_a_two_cycle(self):
        # every level has a diamond child and a BOX1 child, pinned to
        # states that alternate between a (p) and b (no p)
        a = pm(["a", "b"], [("a", "b"), ("b", "a")], {"a": ["p"]}, "a")
        assert check(a, parse("<>[]" * 1000 + "p")) is True
        assert check(a, parse("<>[]" * 1000 + "<>p")) is False

    def test_check_keeps_no_log(self):
        # check needs only a verdict: after a search with or, BOX1,
        # diamond and quantifier choice points the produced log is empty
        a = PointedModel(search_order.star_model(), "c")
        engine = _Engine(SolverOptions(), a)
        f = parse("[]Er (p | <>p | <>q) & <>(!p & q) & Er <>(p & q)")
        assert engine.solve([((1,), (1,), f)], (1,)) is not None
        assert engine.stats.backtracks > 0
        assert engine.log == []


class TestWitnessesHold:
    """check confirms every sat witness: f holds at the point of the root
    model that sat read off its branch.  Root models here have up to 201
    states, far more than the three of the oracle comparisons, so this
    catches a fault in how check pins state prefixes to model states that
    makes it reject a formula that holds (one that makes it accept too
    much, such as a missing BOX1 child, passes here).  sat and check run
    one engine, which differs between them only where an activation's
    state is None, so a rule that both get wrong passes here too; the
    oracle stays the independent reference for that."""

    def assert_witnesses_hold(self, formulas):
        n = 0
        for f in formulas:
            r = sat(f)
            if r.satisfiable:
                root = r.models.root()
                assert check(PointedModel(root.model, root.point), f), render(f)
                n += 1
        return n

    def test_size_6_sweep(self):
        assert self.assert_witnesses_hold(gen.enumerate_formulas(6, ("p", "q"))) == 19336

    def test_wide_and_deep_instances(self):
        texts = [t for _, t in search_order.wide_instances()] + search_order.deep_instances()
        assert self.assert_witnesses_hold(parse(t) for t in texts) == 10


class TestReduction:
    def test_rejects_formulas_with_atoms(self):
        with pytest.raises(InvalidInput):
            reduce_k_sat(parse("[](z & !z)"))

    def test_instance_shape(self):
        pointed, f = reduce_k_sat(parse_const("<> [] top"))
        m = pointed.model
        assert m.states == ("s",)
        assert m.transitions == frozenset({("s", "s")})
        assert m.valuation["s"] == frozenset()
        assert render(f) == "Er <>[](z | !z)"

    def test_malformed_tuples_rejected(self):
        # a list or dict head is unhashable, and must not reach a dict lookup
        bad = [("nope",), ("and", ("top",)), ([],), ({"a": 1},), ("dia", "top"), ()]
        for psi in bad:
            for fn in (reduce_k_sat, lower_const, render_const):
                with pytest.raises(InvalidInput):
                    fn(psi)
        # the message names the first malformed node in preorder
        with pytest.raises(InvalidInput, match=r"\('x',\)"):
            lower_const(("and", ("or", ("top",), ("x",)), ("y",)))

    def test_equivalence_small(self):
        for psi in enumerate_const_formulas(4):
            pointed, f = reduce_k_sat(psi)
            want = sat(lower_const(psi)).satisfiable
            assert check(pointed, f) == want, render_const(psi)


# SHA-256 over enumerate_const_formulas(7), in order: per tuple its repr,
# render_const and the rendered lowering
CONST_ORDER_DIGEST = "e70c1a33b1637802278098f948c3d976d9eded9db594f621e2f3f75d7a57a784"


class TestConstGrammar:
    def test_enumeration_order_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for psi in enumerate_const_formulas(7):
            count += 1
            line = f"{psi!r}\t{render_const(psi)}\t{render(lower_const(psi))}\n"
            digest.update(line.encode())
        assert count == 8246
        assert digest.hexdigest() == CONST_ORDER_DIGEST

    def test_parse_render_round_trip(self):
        for psi in enumerate_const_formulas(4):
            assert parse_const(render_const(psi)) == psi

    def test_parse_examples(self):
        assert parse_const("top") == ("top",)
        assert parse_const("<>(top & bot)") == ("dia", ("and", ("top",), ("bot",)))
        from rmlsat.formula import ParseError

        with pytest.raises(ParseError):
            parse_const("p")
        with pytest.raises(ParseError):
            parse_const("!top")
        with pytest.raises(ParseError) as info:
            parse_const("top & p")
        assert info.value.offset == 6
        with pytest.raises(ParseError):
            parse_const("Er top")

    def test_lowering(self):
        assert render(lower_const(("bot",))) == "(z & !z)"
        assert render(lower_const(("box", ("top",)))) == "[](z | !z)"

    def test_deep_nesting(self):
        # 10,000 nested operators; the tuples are read with a loop, since
        # comparing them with == would recurse in C
        depth = 10_000
        text = "".join(("<>", "(bot | ", "[]", "(top & ")[i % 4] for i in range(depth))
        text += "top" + ")" * (depth // 2)
        psi = parse_const(text)
        tags, u = [], psi
        while len(u) > 1:
            tags.append(u[0])
            u = u[-1]
        assert tags == ["dia", "or", "box", "and"] * (depth // 4)
        assert u == ("top",)
        assert render_const(psi) == text
        lowered = text.replace("top", "(z | !z)").replace("bot", "(z & !z)")
        assert render(lower_const(psi)) == lowered
        pointed, f = reduce_k_sat(psi)
        assert render(f) == "Er " + lowered
