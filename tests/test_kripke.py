import itertools
import json

import pytest

from rmlsat.kripke import (
    KripkeModel,
    NotATree,
    PointedModel,
    RefinementRelation,
    StateNotFound,
    enumerate_root_restrictions,
    graph_nodes,
    greatest_refinement,
    is_bisimilar,
    load_model,
    model_from_dict,
    model_to_dict,
    pointed_from_dict,
    node_restrictions,
    to_dot,
    unravel,
    unravel_node,
    verify_refinement_mapping,
)


def single(val=(), name="s"):
    return KripkeModel([name], [], {name: val})


def brute_force_greatest(m, m2):
    """Union of all refinement mappings, by exhaustive relation search."""
    cells = list(itertools.product(m.states, m2.states))
    best = set()
    for mask in range(2 ** len(cells)):
        rel = {c for i, c in enumerate(cells) if mask >> i & 1}
        if rel and verify_refinement_mapping(m, m2, RefinementRelation(rel)):
            best |= rel
    return best


class TestValueSemantics:
    EDGES = [("a", "b"), ("b", "b"), ("a", "c")]

    def test_equal_models_hash_equal(self):
        m = KripkeModel(["a", "b", "c"], self.EDGES, {"a": ["p", "q"]})
        edges = [("b", "b"), ("a", "c"), ("a", "b"), ("b", "b")]
        m2 = KripkeModel(["c", "a", "b", "a"], edges, {"a": ["q", "p"]})
        assert m == m2 and hash(m) == hash(m2)
        assert m != KripkeModel(["a", "b", "c"], self.EDGES[:2], {"a": ["p", "q"]})
        assert m != KripkeModel(["a", "b", "c"], self.EDGES, {"a": ["p"]})

    def test_transitions_is_the_set_of_pairs(self):
        m = KripkeModel(["a", "b", "c"], self.EDGES + [("a", "b")], {})
        assert m.transitions == frozenset(self.EDGES)
        assert type(m.transitions) is frozenset
        assert m.successors("a") == ("b", "c")

    def test_pointed_model_is_its_pair(self):
        m = KripkeModel(["a", "b", "c"], self.EDGES, {})
        a = PointedModel(m, "a")
        assert a == PointedModel(KripkeModel(["c", "b", "a"], self.EDGES, {}), "a")
        assert hash(a) == hash((m, "a"))
        assert a != PointedModel(m, "b")
        with pytest.raises(StateNotFound):
            PointedModel(m, "zz")

    def test_pointed_model_is_immutable(self):
        a = PointedModel(single(), "s")
        with pytest.raises(AttributeError):
            a.point = "t"
        with pytest.raises(AttributeError):
            a.model = single(name="t")
        assert a.point == "s"


class TestVerifyRefinementMapping:
    def test_single_states_empty_valuations(self):
        m, m2 = single(), single(name="t")
        assert verify_refinement_mapping(m, m2, RefinementRelation([("s", "t")]))

    def test_atom_condition_fails(self):
        m, m2 = single(), single(val=["p"], name="t")
        assert not verify_refinement_mapping(m, m2, RefinementRelation([("s", "t")]))

    def test_empty_relation_is_never_a_mapping(self):
        m, m2 = single(), single(name="t")
        assert not verify_refinement_mapping(m, m2, RefinementRelation([]))

    def test_unknown_state(self):
        m, m2 = single(), single(name="t")
        with pytest.raises(StateNotFound):
            verify_refinement_mapping(m, m2, RefinementRelation([("nope", "t")]))

    def test_back_condition(self):
        chain = KripkeModel(["a", "b"], [("a", "b")], {})
        loner = single()
        # target has a transition the source cannot match from the mapped state
        assert not verify_refinement_mapping(
            loner, chain, RefinementRelation([("s", "a"), ("s", "b")])
        )
        assert verify_refinement_mapping(
            chain, chain, RefinementRelation([("a", "a"), ("b", "b")])
        )


class TestGreatestRefinement:
    def test_loop_refines_anything_variable_free(self):
        loop = KripkeModel(["s"], [("s", "s")], {})
        other = KripkeModel(["a", "b", "c"], [("a", "b"), ("b", "c")], {})
        rel = greatest_refinement(loop, other)
        assert rel.pairs == {("s", w) for w in other.states}

    def test_contains_identity_on_self(self):
        m = KripkeModel(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("c", "a")],
            {"a": ["p"], "b": [], "c": ["p"]},
        )
        rel = greatest_refinement(m, m)
        assert {(s, s) for s in m.states} <= rel.pairs

    def test_agrees_with_exhaustive_relation_search(self):
        chain1 = KripkeModel(["a", "b"], [("a", "b")], {"a": [], "b": ["p"]})
        chain2 = KripkeModel(["x", "y"], [("x", "y")], {"x": [], "y": ["q"]})
        fork = KripkeModel(
            ["x", "y", "z"], [("x", "y"), ("x", "z")], {"x": [], "y": ["p"], "z": []}
        )
        models = [chain1, chain2, fork, single(), KripkeModel(["s"], [("s", "s")], {})]
        for m in models:
            for m2 in models:
                got = greatest_refinement(m, m2)
                assert got.pairs == brute_force_greatest(m, m2)
                if got.pairs:
                    assert verify_refinement_mapping(m, m2, got)

    def test_transitivity_of_composition(self):
        a = KripkeModel(["s"], [("s", "s")], {})
        b = KripkeModel(["x", "y"], [("x", "y"), ("y", "x")], {})
        c = KripkeModel(["u", "v"], [("u", "v")], {})
        ab = greatest_refinement(a, b).pairs
        bc = greatest_refinement(b, c).pairs
        ac = greatest_refinement(a, c).pairs
        composed = {(s, w) for s, t in ab for t2, w in bc if t == t2}
        assert composed <= ac


class TestBisimilar:
    def test_identical(self):
        m = KripkeModel(["a", "b"], [("a", "b")], {"b": ["p"]})
        assert is_bisimilar(PointedModel(m, "a"), PointedModel(m, "a"))

    def test_twofold_duplicate(self):
        one = KripkeModel(["s"], [("s", "s")], {"s": ["p"]})
        two = KripkeModel(["a", "b"], [("a", "b"), ("b", "a")], {"a": ["p"], "b": ["p"]})
        assert is_bisimilar(PointedModel(one, "s"), PointedModel(two, "a"))

    def test_different_atoms(self):
        assert not is_bisimilar(
            PointedModel(single(["p"]), "s"), PointedModel(single(["q"]), "s")
        )

    def test_back_holds_forth_fails(self):
        step = KripkeModel(["s", "t"], [("s", "t")], {})
        lone = single()
        assert ("s", "s") in greatest_refinement(step, lone).pairs
        assert not is_bisimilar(PointedModel(step, "s"), PointedModel(lone, "s"))


class TestUnravel:
    def test_self_loop_depth_two_is_chain(self):
        loop = PointedModel(KripkeModel(["s"], [("s", "s")], {"s": ["p"]}), "s")
        t = unravel(loop, 2)
        assert t.point == ""
        assert t.model.states == ("", "0", "0.0")
        assert t.model.transitions == frozenset({("", "0"), ("0", "0.0")})
        assert all(t.model.valuation[s] == frozenset(["p"]) for s in t.model.states)

    def test_depth_zero(self):
        loop = PointedModel(KripkeModel(["s"], [("s", "s")], {}), "s")
        t = unravel(loop, 0)
        assert t.model.states == ("",)
        assert not t.model.transitions

    def test_two_successors_depth_one(self):
        m = KripkeModel(["r", "a", "b"], [("r", "a"), ("r", "b")], {"a": ["p"]})
        t = unravel(PointedModel(m, "r"), 1)
        assert t.model.states == ("", "0", "1")
        assert len(t.model.transitions) == 2


    def test_deep_loop(self):
        loop = PointedModel(KripkeModel(["s"], [("s", "s")], {}), "s")
        t = unravel(loop, 3000)
        assert len(t.model.states) == 3001

    def test_node_form_shares_subtrees(self):
        full = KripkeModel(["a", "b"], [(x, y) for x in "ab" for y in "ab"], {"a": ["p"]})
        nodes = graph_nodes(full)
        memo = {}
        tree = unravel_node(nodes["a"], 3, memo)
        assert tree[0] == frozenset(["p"])
        # one tree per (state, depth left) reached: the root, then 2 x 3
        assert len(memo) == 7
        left, right = tree[1]
        assert left[1][0] is right[1][0]
        assert unravel_node(nodes["a"], 3, memo) is tree
        assert len(unravel(PointedModel(full, "a"), 3).model.states) == 1 + 2 + 4 + 8

    def test_node_form_built_once_per_model(self):
        m = KripkeModel(["a", "b"], [("a", "b")], {"b": ["p"]})
        twin = KripkeModel(["a", "b"], [("a", "b")], {"b": ["p"]})
        nodes = graph_nodes(m)
        assert graph_nodes(m) is nodes
        assert nodes["a"][1][0] is nodes["b"]
        # the kept nodes take no part in equality or hashing
        assert m == twin and hash(m) == hash(twin)
        assert graph_nodes(twin) is not nodes


class TestRootRestrictions:
    def test_counts(self):
        root_only = PointedModel(single(), "s")
        assert len(list(enumerate_root_restrictions(root_only))) == 1

        one_leaf = PointedModel(KripkeModel(["r", "a"], [("r", "a")], {}), "r")
        assert len(list(enumerate_root_restrictions(one_leaf))) == 2

        two_leaves = PointedModel(
            KripkeModel(["r", "a", "b"], [("r", "a"), ("r", "b")], {}), "r"
        )
        assert len(list(enumerate_root_restrictions(two_leaves))) == 4

    def test_against_exhaustive_edge_subsets(self):
        m = KripkeModel(
            ["r", "a", "b", "c"],
            [("r", "a"), ("r", "b"), ("a", "c")],
            {"a": ["p"], "c": ["q"]},
        )
        t = PointedModel(m, "r")
        edges = sorted(m.transitions)
        expected = set()
        for mask in range(2 ** len(edges)):
            keep = {e for i, e in enumerate(edges) if mask >> i & 1}
            kept_states = {"r"}
            grew = True
            while grew:
                grew = False
                for s, u in keep:
                    if s in kept_states and u not in kept_states:
                        kept_states.add(u)
                        grew = True
            # ancestor-closed means every kept edge starts at a kept state
            if all(s in kept_states for s, _ in keep):
                expected.add(frozenset(keep))
        got = {r.model.transitions for r in enumerate_root_restrictions(t)}
        assert got == expected

    def test_node_restrictions_count_and_order(self):
        leaf = ("l", ())
        tree = ("r", (("a", (leaf,)), ("b", ())))
        got = list(node_restrictions(tree))
        # (1 + 2) * (1 + 1) restrictions; the first child varies fastest
        assert got == [
            ("r", ()),
            ("r", (("a", ()),)),
            ("r", (("a", (leaf,)),)),
            ("r", (("b", ()),)),
            ("r", (("a", ()), ("b", ()))),
            ("r", (("a", (leaf,)), ("b", ()))),
        ]

    def test_every_restriction_refines_the_tree(self):
        m = KripkeModel(
            ["r", "a", "b"], [("r", "a"), ("a", "b")], {"b": ["p"]}
        )
        t = PointedModel(m, "r")
        for r in enumerate_root_restrictions(t):
            rel = greatest_refinement(m, r.model)
            assert (t.point, r.point) in rel.pairs

    def test_not_a_tree(self):
        loop = PointedModel(KripkeModel(["s"], [("s", "s")], {}), "s")
        with pytest.raises(NotATree):
            list(enumerate_root_restrictions(loop))
        diamond = KripkeModel(
            ["r", "a", "b", "c"],
            [("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")],
            {},
        )
        with pytest.raises(NotATree):
            list(enumerate_root_restrictions(PointedModel(diamond, "r")))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = KripkeModel(["a", "b"], [("a", "b"), ("b", "b")], {"a": ["p", "q"]})
        d = model_to_dict(m, point="a")
        m2, pt = model_from_dict(d)
        assert m2 == m and pt == "a"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        m3, pt3 = load_model(path)
        assert m3 == m and pt3 == "a"
        assert pointed_from_dict(d) == PointedModel(m, "a")

    def test_missing_point(self):
        with pytest.raises(ValueError):
            pointed_from_dict({"states": ["a"], "transitions": [], "valuation": {}})

    def test_unknown_states_rejected(self):
        with pytest.raises(StateNotFound):
            model_from_dict({"states": ["a"], "transitions": [["a", "zz"]]})
        with pytest.raises(StateNotFound):
            model_from_dict({"states": ["a"], "transitions": [], "valuation": {"zz": []}})

    @pytest.mark.parametrize(
        "shape",
        [
            {"states": 5},
            {"states": ["a", 1]},
            {"transitions": "ab"},
            {"transitions": [["a", ["a"]]]},
            {"valuation": {"a": "pq"}},
            {"point": ["a"]},
        ],
    )
    def test_malformed_rejected(self, shape):
        with pytest.raises(ValueError):
            model_from_dict({"states": ["a"], **shape})

    def test_dot_export(self):
        m = KripkeModel(["a", "b"], [("a", "b")], {"a": ["p"]})
        dot = to_dot(m, point="a")
        assert dot.startswith("digraph")
        assert '"a" -> "b";' in dot
        assert "peripheries=2" in dot
        # a quote or backslash in a state name is escaped in IDs and labels
        m = KripkeModel(['a"b', "c\\d"], [('a"b', "c\\d")], {'a"b': ["p"]})
        assert to_dot(m, point='a"b').splitlines()[1:] == [
            '  "a\\"b" [label="a\\"b\\n{p}" peripheries=2];',
            '  "c\\\\d" [label="c\\\\d\\n{}"];',
            '  "a\\"b" -> "c\\\\d";',
            "}",
        ]
