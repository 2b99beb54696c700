import copy
import gc
import hashlib
import pickle
import random
import tracemalloc

import pytest

from rmlsat import gen
from rmlsat.formula import (
    And,
    Atom,
    Box,
    DepthMetrics,
    Diamond,
    ExistsR,
    ForallR,
    Formula,
    FragmentViolation,
    NegAtom,
    Not,
    Or,
    ParseError,
    _ATOM_RE,
    _LEAVES,
    _tokenize,
    atoms,
    children,
    in_existential_fragment,
    metrics,
    normalize,
    parse,
    parse_general,
    render,
    size,
    subformulas,
)
from rmlsat.kripke import KripkeModel, PointedModel
from rmlsat.modelcheck import check, lower_const, parse_const
from rmlsat.oracle import oracle_eval, oracle_sat
from rmlsat.solver import sat

P, Q = Atom("p"), Atom("q")
AT_P = PointedModel(KripkeModel(["s"], [], {"s": ["p"]}), "s")
DEEP = 10_000


def deep_formula(n, base=P):
    """n operators over base, cycling through <>, [], Er, q & _ and _ | !q."""
    f = base
    for i in range(n):
        k = i % 5
        if k == 3:
            f = And(Q, f)
        elif k == 4:
            f = Or(f, NegAtom("q"))
        else:
            f = (Diamond, Box, ExistsR)[k](f)
    return f


class TestParse:
    def test_conjunction_of_literals(self):
        assert parse("p & !p") == And(P, NegAtom("p"))

    def test_quantifier_over_diamond(self):
        assert parse("Er <> p") == ExistsR(Diamond(P))

    def test_incomplete_input_offset(self):
        with pytest.raises(ParseError) as err:
            parse("p &")
        assert err.value.offset == 3
        assert err.value.expected

    def test_precedence(self):
        assert parse("!p & q | r") == Or(And(NegAtom("p"), Q), Atom("r"))
        assert parse("<>p & q") == And(Diamond(P), Q)
        assert parse("Er p & q") == And(ExistsR(P), Q)
        assert parse("p & q & r") == And(And(P, Q), Atom("r"))
        assert parse("[] <> p") == Box(Diamond(P))

    def test_parentheses_override(self):
        assert parse("<>(p & q)") == Diamond(And(P, Q))
        assert parse("!p") == parse("(((!p)))")

    def test_forall_parses(self):
        f = parse("Ar p")
        assert f == ForallR(P)
        assert not in_existential_fragment(f)

    def test_reserved_words(self):
        # lowercase 'er' is an ordinary atom; capitalized 'Er' never is
        assert parse("er") == Atom("er")
        with pytest.raises(ParseError):
            parse("Erx")

    def test_negation_restricted_to_atoms(self):
        with pytest.raises(ParseError):
            parse("!(p & q)")
        with pytest.raises(ParseError):
            parse("!<>p")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse("(p & q")
        with pytest.raises(ParseError):
            parse("p)")

    def test_whitespace_insignificant(self):
        assert parse(" Er\t<> p ") == parse("Er<>p")


UNARY = ("atom", "!", "<>", "[]", "Er", "Ar", "(")
INFIX = ("&", "|", "end of input")
# every outcome of the digest test below; a parser change that keeps them keeps it
PARSE_DIGEST = "a8b7acceadda0b6ddf852b6b15401eacb04b3fd74ef678785d5c43886d0a2b50"


class TestParseErrors:
    """Exact message, offset and expected set of each error.  A lexical
    error anywhere in the text wins over a syntax error before it."""

    @pytest.mark.parametrize(
        "text, message, offset, expected",
        [
            ("p p $", "unexpected character '$'", 4, UNARY),
            ("p &", "expected a formula", 3, UNARY),
            ("!<>p", "negation applies only to atoms", 1, ("atom",)),
            ("Erx", "invalid identifier 'Erx'", 0, ("atom",)),
            ("<p", "unexpected character '<'", 0, UNARY),
            ("p\f", "unexpected character '\\x0c'", 1, UNARY),
            ("p)", "unexpected ')'", 1, INFIX),
            ("(p", "unbalanced parenthesis", 2, (")",)),
            ("", "expected a formula", 0, UNARY),
        ],
    )
    def test_table(self, text, message, offset, expected):
        parsers = (parse,) if text.startswith("!") else (parse, parse_general)
        for fn in parsers:
            with pytest.raises(ParseError) as err:
                fn(text)
            assert (err.value.message, err.value.offset, err.value.expected) == (
                message,
                offset,
                expected,
            )

    def test_general_negation_of_a_diamond(self):
        assert render(parse_general("!<>p")) == "!(<>p)"

    def test_const_grammar(self):
        with pytest.raises(ParseError) as err:
            parse_const("<> top & p")
        assert (err.value.message, err.value.offset) == (
            "unexpected 'p' in a variable-free formula",
            9,
        )

    def test_outcome_digest(self):
        """SHA-256 of what parse, parse_general, _tokenize and parse_const
        give on 20,000 seeded random strings: the rendered formula, the
        token list or constant tuple, or the error's message, offset and
        expected set."""
        good = ["p", "q", "top", "bot", "x_1", "<>", "[]", "Er ", "Ar ", "!"]
        good += ["&", "|", "(", ")", " "]
        bad = ["$", "<", "[", "]", ">", "\u00e9", "\f", "\t", "\n", "Erx", "P", "Er", "1", "_"]
        rng = random.Random(12)
        digest = hashlib.sha256()
        for n in range(20_000):
            pieces = good * 4 + bad if n % 2 else good
            text = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
            for fn in (parse, parse_general, _tokenize, parse_const):
                try:
                    out = fn(text)
                except ParseError as e:
                    out = (e.message, e.offset, e.expected)
                if isinstance(out, Formula):
                    out = render(out)
                digest.update(repr(out).encode() + b"\n")
        assert digest.hexdigest() == PARSE_DIGEST


class TestRender:
    def test_examples(self):
        assert render(P) == "p"
        assert render(Box(And(P, NegAtom("q")))) == "[](p & !q)"
        assert render(ExistsR(P)) == "Er p"

    def test_round_trip_exhaustive(self):
        for f in gen.enumerate_formulas(5, ("p", "q")):
            assert parse(render(f)) == f

    def test_round_trip_with_quantifiers(self):
        f = ForallR(ExistsR(Or(Diamond(P), Box(Q))))
        assert parse(render(f)) == f


class TestMetrics:
    def test_examples(self):
        assert metrics(P) == DepthMetrics(0, 0)
        assert metrics(parse("Er <> Er p")) == DepthMetrics(1, 2)
        assert metrics(parse("<>p & [][]q")) == DepthMetrics(2, 0)

    def test_monotone_over_subformulas(self):
        for f in gen.enumerate_formulas(5, ("p",)):
            m = metrics(f)
            for g in subformulas(f):
                mg = metrics(g)
                assert mg.d_diamond <= m.d_diamond
                assert mg.d_exists <= m.d_exists

    def test_bounded_by_size(self):
        for f in gen.enumerate_formulas(4, ("p", "q")):
            m = metrics(f)
            assert m.d_diamond <= size(f)
            assert m.d_exists <= size(f)

    def test_value_semantics(self):
        m = DepthMetrics(1, 2)
        assert (m.d_diamond, m.d_exists) == (1, 2)
        assert m == DepthMetrics(d_diamond=1, d_exists=2) == DepthMetrics(1, d_exists=2)
        assert m != DepthMetrics(2, 1) and not m != DepthMetrics(1, 2)
        assert m != (1, 2) and not m == (1, 2)
        assert hash(m) == hash((1, 2))
        assert repr(m) == "DepthMetrics(d_diamond=1, d_exists=2)"
        with pytest.raises(TypeError):
            DepthMetrics(1)
        with pytest.raises(AttributeError):
            m.d_diamond = 3
        with pytest.raises(AttributeError):
            del m.d_exists
        assert m == DepthMetrics(1, 2)


class TestNormalize:
    def test_de_morgan(self):
        assert normalize(Not(And(P, Q))) == Or(NegAtom("p"), NegAtom("q"))

    def test_modal_duality(self):
        assert normalize(Not(Diamond(P))) == Box(NegAtom("p"))
        assert normalize(Not(Box(P))) == Diamond(NegAtom("p"))

    def test_quantifier_duality_leaves_fragment(self):
        with pytest.raises(FragmentViolation):
            normalize(Not(ExistsR(P)))
        got = normalize(Not(ExistsR(P)), require_existential=False)
        assert got == ForallR(NegAtom("p"))

    def test_double_negation(self):
        for f in gen.enumerate_formulas(4, ("p", "q")):
            assert normalize(Not(Not(f))) == f

    def test_output_in_grammar(self):
        g = parse_general("!(Er (p | !(q & <>p)))")
        out = normalize(g, require_existential=False)
        assert not any(isinstance(s, Not) for s in subformulas(out))
        # grammar formulas round-trip
        assert parse(render(out)) == out

    def test_general_parse(self):
        assert parse_general("!(p & q)") == Not(And(P, Q))
        assert parse_general("!!p") == Not(Not(P))


class TestFragment:
    def test_examples(self):
        assert in_existential_fragment(parse("Er <> p"))
        assert not in_existential_fragment(parse("Ar p"))
        assert in_existential_fragment(parse("p & !p"))

    def test_agrees_with_children_walk(self):
        def reference(f):
            return not isinstance(f, ForallR) and all(reference(c) for c in children(f))

        def swap(f, which):
            """f with its Er nodes whose preorder number is in which made Ar."""
            count = [0]

            def go(g):
                kind = type(g)
                if kind in (Atom, NegAtom):
                    return g
                if kind in (And, Or):
                    return kind(go(g.left), go(g.right))
                if kind is ExistsR:
                    count[0] += 1
                    return (ForallR if count[0] - 1 in which else ExistsR)(go(g.body))
                return kind(go(g.body))

            return go(f)

        n = 0
        for f in gen.enumerate_formulas(6, ("p", "q")):
            variants = [f, Not(f), And(f, Not(ForallR(P)))]
            if "Er" in render(f):
                variants += [swap(f, {0}), swap(f, {1}), swap(f, {0, 1})]
            for g in variants:
                assert in_existential_fragment(g) == reference(g), render(g)
                n += 1
        assert n > 80000

    def test_deeply_nested_forall(self):
        f = ForallR(P)
        for i in range(50):
            f = [Diamond, Box, ExistsR, Not][i % 4](f) if i % 3 else And(Q, f)
        assert not in_existential_fragment(f)
        assert not in_existential_fragment(Or(f, P))
        assert in_existential_fragment(Or(P, ExistsR(Q)))

    @pytest.mark.parametrize(
        "decide",
        [
            sat,
            lambda f: check(AT_P, f),
            lambda f: oracle_eval(AT_P, f),
            oracle_sat,
        ],
        ids=["sat", "check", "oracle_eval", "oracle_sat"],
    )
    @pytest.mark.parametrize(
        "f",
        [
            Not(P),
            And(P, Not(P)),
            And(Q, Not(P)),
            Diamond(Or(Q, Not(ExistsR(P)))),
            Or(P, ExistsR(ForallR(Q))),
        ],
        ids=render,
    )
    def test_decision_procedures_reject_not_and_forall(self, decide, f):
        with pytest.raises(FragmentViolation):
            decide(f)


class TestSubformulas:
    def test_examples(self):
        assert subformulas(P) == {P}
        assert subformulas(Diamond(P)) == {Diamond(P), P}
        assert subformulas(And(P, P)) == {And(P, P), P}

    def test_cardinality_bounded_by_size(self):
        for f in gen.enumerate_formulas(5, ("p", "q")):
            assert len(subformulas(f)) <= size(f)


def test_atoms():
    assert atoms(parse("q & !p")) == ("p", "q")
    assert atoms(parse("Er <> x1")) == ("x1",)


class TestDeepInput:
    @pytest.mark.parametrize(
        "text, want_size",
        [
            ("(" * DEEP + "p" + ")" * DEEP, 1),
            ("<>" * DEEP + "p", DEEP + 1),
            ("[]" * DEEP + "p", DEEP + 1),
            ("Er " * DEEP + "p", DEEP + 1),
            ("p & (" * DEEP + "q" + ")" * DEEP, 2 * DEEP + 1),
            ("p | (" * DEEP + "q" + ")" * DEEP, 2 * DEEP + 1),
        ],
        ids=["parens", "diamond", "box", "er", "and", "or"],
    )
    def test_parse(self, text, want_size):
        f = parse(text)
        assert size(f) == want_size
        assert parse(render(f)) == f

    def test_parse_general_negations(self):
        f = parse_general("!(" * DEEP + "p" + ")" * DEEP)
        assert size(f) == DEEP + 1
        assert normalize(f) == P

    def test_walkers(self):
        f, g = deep_formula(DEEP), deep_formula(DEEP)
        assert f is not g and f == g and not f != g
        assert f != deep_formula(DEEP, Q)
        assert size(f) == 1 + 3 * DEEP // 5 + 2 * (2 * DEEP // 5)
        assert metrics(f) == DepthMetrics(2 * DEEP // 5, DEEP // 5)
        assert parse(render(f)) == f
        assert normalize(f) == f
        assert normalize(Not(Not(f))) == f


def leaves(f):
    """The leaf objects of f, left to right."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Atom, NegAtom)):
            out.append(g)
        else:
            stack.extend(reversed(children(g)))
    return out


def same_objects(xs, ys):
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


class TestInterning:
    """One object per literal in a process, linked to its complement."""

    def test_one_object_per_literal(self):
        assert Atom("p") is Atom("p") is _LEAVES["p"]
        assert NegAtom("p") is NegAtom("p")
        assert Atom("p").complement is NegAtom("p")
        assert NegAtom("p").complement is Atom("p")

    def test_negation_made_on_first_use(self):
        # a name first seen here: its Atom has no complement until a
        # NegAtom of it is asked for, here by the parser
        a = Atom("intern_first_use")
        assert a.complement is None
        n = parse("!intern_first_use")
        assert a.complement is n and n.complement is a and NegAtom("intern_first_use") is n

    def test_hash_and_equality_stay_structural(self):
        assert hash(Atom("p")) == hash(("at", "p"))
        assert hash(NegAtom("p")) == hash(("neg", "p"))
        assert Atom("p") != NegAtom("p") and Atom("p") != Atom("q")

    def test_parsed_leaves_are_the_tables(self):
        p = _LEAVES["p"]
        assert same_objects(leaves(parse("p & !p & p")), [p, p.complement, p])
        assert same_objects(leaves(parse_general("!(p & !q)")), [p, Atom("q")])

    def test_normalize_and_lower_const_leaves(self):
        p, q, r, z = Atom("p"), Atom("q"), Atom("r"), Atom("z")
        got = normalize(parse_general("!(p & !q) | !!r"))
        assert same_objects(leaves(got), [p.complement, q, r])
        assert same_objects(leaves(lower_const(("and", ("top",), ("bot",)))), [z, z.complement] * 2)

    @pytest.mark.parametrize(
        "clone",
        [lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_are_the_same_object(self, clone):
        for leaf in (Atom("p"), NegAtom("p")):
            assert clone(leaf) is leaf
        f = parse("<>(p & !q)")
        assert same_objects(leaves(clone(f)), leaves(f))

    @pytest.mark.parametrize("name", ["P", "", "x y", "p!", "1p"])
    def test_bad_names(self, name):
        for kind in (Atom, NegAtom):
            with pytest.raises(ValueError) as err:
                kind(name)
            assert str(err.value) == f"bad atom name: {name!r}"
        assert name not in _LEAVES

    @pytest.mark.parametrize("name", [5, None, b"p", ["p"]], ids=repr)
    def test_non_string_names(self, name):
        # the error of matching the name against the atom pattern
        with pytest.raises(TypeError) as want:
            _ATOM_RE.fullmatch(name)
        for kind in (Atom, NegAtom):
            with pytest.raises(TypeError) as err:
                kind(name)
            assert str(err.value) == str(want.value)

    def test_table_grows_per_new_name_only(self):
        before = len(_LEAVES)
        text = "intern_grow_a & !intern_grow_a & <>intern_grow_b"
        for _ in range(3):
            f = parse(text)
            assert sat(f).satisfiable is False
            assert check(AT_P, f) is False
            normalize(parse_general("!(" + text + ")"))
        assert len(_LEAVES) == before + 2

    def test_retained_memory_of_new_names(self):
        """sat of 20,000 conjoined new atoms leaves behind one table entry
        and one Atom per name: 3.35 MB under Python 3.11, 3.52 MB under
        3.10.  The process-wide complement table this replaced kept
        4.43 MB under both, and a table of both literals per name, keyed
        by (class, name), 8.3 MB."""
        text = " & ".join(f"intern_mem{i}" for i in range(20_000))
        gc.collect()
        tracemalloc.start()
        try:
            assert sat(parse(text)).satisfiable
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 4.5 * 2**20, retained
