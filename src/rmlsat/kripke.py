"""Finite Kripke structures, refinement relations, unravelling, restrictions.

A refinement mapping from M to M2 is a nonempty relation over their
states such that related states carry identical valuations (atom
condition) and every transition on the M2 side maps back to a
transition on the M side (back condition).  A bisimulation is a
relation that is a refinement mapping in both directions.  A pointed
model (M2, s2) refines (M, s) when some refinement mapping contains
(s, s2); equivalently M2 is a restriction of a model bisimilar to M,
which is what the unravel/restriction machinery below exploits.

A KripkeModel keeps its edges once, as one sorted successor tuple per
state, checked against the state set as it is built; its transitions
are a view of that adjacency, and its equality and hash read it and the
valuation.  A PointedModel is an immutable pair of a model and a state
of it; it compares and hashes as the tuple (model, point).

Model file format (JSON): an object with "states" (list of strings),
"transitions" (list of [from, to] pairs), "valuation" (state -> list of
atom names; missing states default to the empty valuation) and an
optional "point".
"""

import json

from ._record import _Frozen

__all__ = [
    "KripkeModel",
    "PointedModel",
    "RefinementRelation",
    "StateNotFound",
    "NotATree",
    "verify_refinement_mapping",
    "greatest_refinement",
    "is_bisimilar",
    "unravel",
    "enumerate_root_restrictions",
    "graph_nodes",
    "unravel_node",
    "node_restrictions",
    "model_from_dict",
    "model_to_dict",
    "pointed_from_dict",
    "load_model",
    "to_dot",
]


class StateNotFound(Exception):
    """A state identifier does not belong to the model it was used with."""


class NotATree(Exception):
    """The operation requires a tree rooted at the point."""


class KripkeModel:
    """Immutable finite transition structure with an atom valuation.

    states are opaque strings; transitions is any iterable of (from, to)
    pairs over them; valuation maps states to iterables of atom names
    (missing states get the empty set).  The edges are kept once, in
    ``_succ``, each state's sorted tuple of successors.  The node form of
    :func:`graph_nodes` is built on first use and kept in ``_nodes``,
    which equality and hashing ignore.
    """

    __slots__ = ("states", "valuation", "_succ", "_nodes")

    def __init__(self, states, transitions, valuation=None):
        self.states = tuple(sorted(set(states)))
        succ = {s: set() for s in self.states}
        for s, t in transitions:
            if s not in succ or t not in succ:
                raise StateNotFound(f"transition ({s!r}, {t!r}) leaves the state set")
            succ[s].add(t)
        self._succ = {s: tuple(sorted(ts)) for s, ts in succ.items()}
        valuation = valuation or {}
        for s in valuation:
            if s not in succ:
                raise StateNotFound(f"valuation mentions unknown state {s!r}")
        self.valuation = {
            s: frozenset(valuation.get(s, ())) for s in self.states
        }
        self._nodes = None

    @property
    def transitions(self):
        """The (from, to) pairs, as a frozenset."""
        return frozenset((s, t) for s, ts in self._succ.items() for t in ts)

    def successors(self, s):
        try:
            return self._succ[s]
        except KeyError:
            raise StateNotFound(f"unknown state {s!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, KripkeModel)
            and self._succ == other._succ
            and self.valuation == other.valuation
        )

    def __hash__(self):
        return hash((tuple(self._succ.items()), tuple(self.valuation.items())))

    def __repr__(self):
        n = sum(map(len, self._succ.values()))
        return f"KripkeModel(states={len(self.states)}, transitions={n})"


class PointedModel(_Frozen):
    """A model with a designated state."""

    __slots__ = __match_args__ = ("model", "point")

    def __init__(self, model, point):
        if point not in model.valuation:
            raise StateNotFound(f"point {point!r} not a state")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "point", point)


class RefinementRelation:
    """A set of (source state, target state) pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = frozenset(tuple(p) for p in pairs)

    def __bool__(self):
        return bool(self.pairs)

    def __eq__(self, other):
        return isinstance(other, RefinementRelation) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"RefinementRelation({sorted(self.pairs)!r})"


def verify_refinement_mapping(m, m2, rel):
    """Check that rel is a refinement mapping from m to m2.

    True iff rel is nonempty, related states agree on their full
    valuations, and every m2-transition out of a related state maps back
    to an m-transition into a related state.
    """
    pairs = rel.pairs if isinstance(rel, RefinementRelation) else frozenset(rel)
    if not pairs:
        return False
    for s, s2 in pairs:
        if s not in m.valuation:
            raise StateNotFound(f"unknown source state {s!r}")
        if s2 not in m2.valuation:
            raise StateNotFound(f"unknown target state {s2!r}")
    for s, s2 in pairs:
        if m.valuation[s] != m2.valuation[s2]:
            return False
        for t2 in m2.successors(s2):
            if not any((t, t2) in pairs for t in m.successors(s)):
                return False
    return True


def _greatest_fixpoint(m, m2, forth):
    """The largest set of valuation-compatible pairs closed under the back
    condition, and under the forth condition too when forth is set: start
    from all compatible pairs and prune until nothing changes."""
    pairs = {
        (s, s2)
        for s in m.states
        for s2 in m2.states
        if m.valuation[s] == m2.valuation[s2]
    }
    changed = True
    while changed:
        changed = False
        for s, s2 in list(pairs):
            ok = all(
                any((t, t2) in pairs for t in m.successors(s))
                for t2 in m2.successors(s2)
            )
            if ok and forth:
                ok = all(
                    any((t, t2) in pairs for t2 in m2.successors(s2))
                    for t in m.successors(s)
                )
            if not ok:
                pairs.discard((s, s2))
                changed = True
    return pairs


def greatest_refinement(m, m2):
    """The union of all refinement mappings from m to m2 (possibly empty).

    Refinement mappings are closed under union, so the greatest one
    exists; it is the greatest fixpoint of the back condition.
    (m2, t) refines (m, s) exactly when (s, t) is in the result.
    """
    return RefinementRelation(_greatest_fixpoint(m, m2, forth=False))


def is_bisimilar(a, b):
    """True iff the two pointed models are bisimilar: the points survive
    the greatest fixpoint of the back and the forth condition."""
    return (a.point, b.point) in _greatest_fixpoint(a.model, b.model, forth=True)


# --- node form ---------------------------------------------------------------
#
# A node is a pair (label, successors), successors a sequence of nodes.
# graph_nodes turns a model into nodes labelled by valuation; unravel_node
# turns any node into a tree of nodes, and node_restrictions enumerates a
# tree's root-keeping restrictions.  The oracle evaluates formulas on
# nodes directly; unravel and enumerate_root_restrictions below wrap the
# same two walks in KripkeModels.


def graph_nodes(m):
    """{state: node} for the states of m, each labelled by its valuation.
    Successor lists follow m.successors and may form cycles.  The first
    call builds the nodes and keeps them on m; later calls return them."""
    nodes = m._nodes
    if nodes is None:
        nodes = m._nodes = {s: (m.valuation[s], []) for s in m.states}
        for s, (_, succ) in nodes.items():
            succ.extend(nodes[t] for t in m._succ[s])
    return nodes


def unravel_node(node, depth, memo):
    """The tree of paths of length at most depth from node, in node form.

    memo maps (id(n), d) to the tree already built for n at depth d, so a
    node reached along several paths is unravelled once, and those paths
    share one subtree object.  The caller keeps the source nodes alive
    for as long as it keeps memo."""
    key = (id(node), depth)
    if key not in memo:
        stack = [(node, depth, False)]
        while stack:
            n, d, ready = stack.pop()
            k = (id(n), d)
            if k in memo:
                continue
            label, succ = n
            if d <= 0 or not succ:
                memo[k] = (label, ())
            elif ready:
                memo[k] = (label, tuple(memo[id(c), d - 1] for c in succ))
            else:
                stack.append((n, d, True))
                stack.extend((c, d - 1, False) for c in succ)
    return memo[key]


def node_restrictions(tree):
    """Yield every restriction of a node-form tree that keeps the root.

    A restriction keeps, for each kept node, any subset of its children,
    each restricted in turn; labels are unchanged.  A node with subtrees
    T1..Tk has prod(1 + count(Ti)) restrictions."""
    label, kids = tree

    def go(i):
        if i == len(kids):
            yield ()
            return
        for rest in go(i + 1):
            yield rest
            for sub in node_restrictions(kids[i]):
                yield (sub,) + rest

    for kept in go(0):
        yield (label, kept)


def unravel(a, depth):
    """The tree of transition paths from the point, length at most depth.

    States are dot-joined transition indices ("" is the root, "0" the
    first successor, "0.1" its second successor, ...), each carrying the
    valuation of the path's endpoint.
    """
    tree = unravel_node(graph_nodes(a.model)[a.point], depth, {})
    states = []
    transitions = []
    valuation = {}
    stack = [("", tree)]
    while stack:
        pid, (label, kids) = stack.pop()
        states.append(pid)
        valuation[pid] = label
        for j, kid in enumerate(kids):
            cid = f"{pid}.{j}" if pid else str(j)
            transitions.append((pid, cid))
            stack.append((cid, kid))
    return PointedModel(KripkeModel(states, transitions, valuation), "")


def _tree_children(t):
    """Adjacency map of a tree-shaped pointed model; raises NotATree."""
    m = t.model
    has_parent = set()
    for us in m._succ.values():
        for u in us:
            if u in has_parent:
                raise NotATree(f"state {u!r} has two parents")
            if u == t.point:
                raise NotATree("the root has an incoming transition")
            has_parent.add(u)
    # reachability from the root doubles as the cycle check
    seen = set()
    stack = [t.point]
    while stack:
        s = stack.pop()
        if s in seen:
            raise NotATree("cycle reachable from the root")
        seen.add(s)
        stack.extend(m._succ[s])
    if seen != set(m.states):
        raise NotATree("states unreachable from the root")
    return m._succ


def enumerate_root_restrictions(t):
    """Yield every restriction of the tree t that keeps the root.

    A restriction keeps a set of edges closed under ancestors (dropping
    an edge drops the whole subtree below it); valuations are unchanged.
    The walk is node_restrictions over t labelled by state names.
    """
    children = _tree_children(t)
    m = t.model

    def node(s):
        return (s, tuple(node(u) for u in children[s]))

    for tree in node_restrictions(node(t.point)):
        kept = []
        edges = []
        stack = [tree]
        while stack:
            s, kids = stack.pop()
            kept.append(s)
            for kid in kids:
                edges.append((s, kid[0]))
                stack.append(kid)
        sub = KripkeModel(kept, edges, {s: m.valuation[s] for s in kept})
        yield PointedModel(sub, t.point)


# --- serialization ----------------------------------------------------------


def _is_strings(x):
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def model_from_dict(d):
    """Build (model, point or None) from the JSON object layout; ValueError
    when the object does not follow it."""
    if not isinstance(d, dict) or "states" not in d:
        raise ValueError('malformed model object: need an object with "states"')
    states = d["states"]
    transitions = d.get("transitions", [])
    valuation = d.get("valuation", {})
    point = d.get("point")
    if not _is_strings(states):
        raise ValueError('malformed model object: "states" must be a list of strings')
    if not isinstance(transitions, list) or not all(
        _is_strings(p) and len(p) == 2 for p in transitions
    ):
        raise ValueError(
            'malformed model object: "transitions" must be a list of [from, to] string pairs'
        )
    if not isinstance(valuation, dict) or not all(_is_strings(v) for v in valuation.values()):
        raise ValueError(
            'malformed model object: "valuation" must map states to lists of atom names'
        )
    if point is not None and not isinstance(point, str):
        raise ValueError('malformed model object: "point" must be a string')
    model = KripkeModel(states, [tuple(p) for p in transitions], valuation)
    if point is not None and point not in model.valuation:
        raise StateNotFound(f"point {point!r} not a state")
    return model, point


def pointed_from_dict(d):
    model, point = model_from_dict(d)
    if point is None:
        raise ValueError('model object lacks a "point"')
    return PointedModel(model, point)


def model_to_dict(m, point=None):
    d = {
        "states": list(m.states),
        "transitions": [[s, t] for s in m.states for t in m._succ[s]],
        "valuation": {s: sorted(m.valuation[s]) for s in m.states},
    }
    if point is not None:
        d["point"] = point
    return d


def load_model(path):
    """Read a model file; returns (model, point or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def _dot_escape(text):
    """text with backslashes and double quotes escaped, for a DOT quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(m, point=None):
    """DOT rendering: one node per state labeled with its valuation."""
    lines = ["digraph model {"]
    for s in m.states:
        name = _dot_escape(s)
        label = name + "\\n{" + _dot_escape(", ".join(sorted(m.valuation[s]))) + "}"
        shape = ' peripheries=2' if s == point else ""
        lines.append(f'  "{name}" [label="{label}"{shape}];')
    for s in m.states:
        for t in m._succ[s]:
            lines.append(f'  "{_dot_escape(s)}" -> "{_dot_escape(t)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
