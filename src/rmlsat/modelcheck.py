"""Tableau-based model checking against a concrete Kripke structure.

The satisfiability engine runs unchanged except that state prefixes are
pinned to states of the checked model:

- prefix 1 is pinned to the checked point;
- when a diamond introduces a fresh successor prefix under a prefix
  pinned to v, the new prefix is pinned to some successor of v (one
  backtracking choice per successor, tried in state order);
- every literal entry must hold in the model at the state its prefix is
  pinned to, else the branch rejects;
- box entries at model prefix 1 speak about the real model, so an extra
  expansion (BOX1) gives every successor of the current state a fresh
  pinned prefix carrying all prefix-1 box bodies.  It runs eagerly
  right after saturation, before any diamond child is pinned; the box
  bodies must hold at every successor anyway, so it loses no branch.

Every entry of a check activation sits at the activation's own state
prefix, so the engine passes each activation just that prefix's state.
BOX1 runs once per state prefix, in the activation that introduced it
(the root, a BOX1 child or a diamond child: the ones that inherit no
entries), and covers every successor there.  A quantifier child shares
its parent's state prefix and adds no BOX1 child: saturation adds only
literals at model prefix 1, so its boxes there are its parent's, which
the parent's BOX1 children already carry to every successor.  Two
fresh prefixes at the same state may be pinned to the same model state.

The checker's engine sets the engine's point, the root's state, and its
valuation: with a pinned state the engine's add blocks reject a new
literal that does not hold there and keep no log (check needs only a
verdict, so it builds no list of produced triples).  It overrides two
hooks: a fresh successor prefix's target states are its state's
successors, and _box1_targets returns the boxes at model prefix 1 and
every successor of the state, each made a BOX1 child, the first choice
points on the stack that also holds the leaf's diamond and quantifier
children.  Activations run from one explicit
stack, so 10,000 nested `<>` or `[]` over `p` are decided on a one-state
loop, in time and memory that grow with the whole-path state prefixes.

This module also builds the classic hardness instance: satisfiability
of a variable-free basic modal formula psi reduces to checking
`Er psi` on a single empty-valuation state with a self-loop, because
every variable-free model refines that structure by mapping all states
to it.  The grammar has no truth constants, so the variable-free test
vectors are tuples over `top`/`bot`, handled as formulas over `top` and
`bot`: one walk builds the formula with the leaves it is given, atoms
`top` and `bot` to render it, (z | !z) and (z & !z) over a reserved atom
to lower it for the main pipeline.  That is a harness convention, not
part of the formula language.  The text form is read by the main parser
after a token check that admits only `top`, `bot`, the modal and boolean
connectives and parentheses.
"""

from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExistsR,
    Formula,
    NegAtom,
    Or,
    ParseError,
    _tokenize,
    check_fragment,
    children,
    parse,
    render,
)
from .gen import _of_size
from .kripke import KripkeModel, PointedModel
from .solver import _Engine

__all__ = [
    "check",
    "reduce_k_sat",
    "InvalidInput",
    "lower_const",
    "parse_const",
    "render_const",
    "enumerate_const_formulas",
]


class InvalidInput(Exception):
    """The reduction only accepts variable-free constant-grammar formulas."""


class _CheckEngine(_Engine):
    def __init__(self, opts, pointed):
        super().__init__(opts)
        self.m = pointed.model
        self.point = pointed.point
        self.valuation = self.m.valuation

    def _successor_states(self, state):
        return self.m.successors(state)

    def _box1_targets(self, boxes, state):
        # boxes holds the boxes at sigma, and every entry of a check
        # activation sits at sigma, so it holds every box at model prefix 1
        boxes1 = [e for e in boxes if e[0] == (1,)]
        return boxes1, self.m.successors(state) if boxes1 else ()


def check(a, f, opts=None):
    """True iff f holds at the pointed model a.

    Raises FragmentViolation outside the existential fragment and ResourceLimit
    when the options' budgets run out.
    """
    check_fragment(f)
    engine = _CheckEngine(opts, a)
    return engine.solve([((1,), (1,), f)], (1,)) is not None


# --- the hardness instance ----------------------------------------------------

# Variable-free test grammar: ("top",) | ("bot",) | ("and", a, b)
# | ("or", a, b) | ("dia", a) | ("box", a).
_CONST_ARITY = {"top": 0, "bot": 0, "dia": 1, "box": 1, "and": 2, "or": 2}
_CONST_NODES = {"dia": Diamond, "box": Box, "and": And, "or": Or}
_LOWER_ATOM = "z"
_BUILD = object()  # on _formula_of_const's stack: build the tag below it


def _formula_of_const(t, top, bot):
    """The formula of the constant-grammar tuple t, with the formulas top
    and bot at its leaves; InvalidInput names the first malformed node in
    preorder."""
    leaves = {"top": top, "bot": bot}
    # bottom-up: _BUILD over a tag on todo stands for its node, whose
    # children are the last entries of done
    done, todo = [], [t]
    while todo:
        u = todo.pop()
        if u is _BUILD:
            tag = todo.pop()
            k = _CONST_ARITY[tag]
            node = _CONST_NODES[tag](*done[-k:])
            del done[-k:]
            done.append(node)
        elif not (
            isinstance(u, tuple)
            and u
            and isinstance(u[0], str)
            and len(u) == _CONST_ARITY.get(u[0], -1) + 1
        ):
            raise InvalidInput(f"not a variable-free constant formula: {u!r}")
        elif len(u) == 1:
            done.append(leaves[u[0]])
        else:
            todo += (u[0], _BUILD, *reversed(u[1:]))
    return done[0]


def lower_const(t):
    """Constant-grammar formula to a plain formula over the reserved atom:
    top becomes (z | !z), bot becomes (z & !z)."""
    z = Atom(_LOWER_ATOM), NegAtom(_LOWER_ATOM)
    return _formula_of_const(t, Or(*z), And(*z))


def reduce_k_sat(psi):
    """Build the model-checking instance equivalent to satisfiability of the
    variable-free formula psi: a single state with a self-loop and no
    atoms, paired with `Er` over the lowered psi.

    psi must come from the constant grammar; formulas with atoms or
    quantifiers are rejected.
    """
    if isinstance(psi, Formula):
        raise InvalidInput(
            f"{render(psi)} is not variable-free; build it from the constant grammar"
        )
    lowered = lower_const(psi)
    m = KripkeModel(["s"], [("s", "s")], {})
    return PointedModel(m, "s"), ExistsR(lowered)


def render_const(t):
    """The text of a constant-grammar formula: render over the atoms top and bot."""
    return render(_formula_of_const(t, Atom("top"), Atom("bot")))


_CONST_TOKENS = {"dia", "box", "amp", "pipe", "lp", "rp", "eof"}
_CONST_TAGS = {node: tag for tag, node in _CONST_NODES.items()}


def parse_const(text):
    """Parse the constant grammar: `top`, `bot`, `&`, `|`, `<>`, `[]`, parens.

    Any other token is a ParseError at its offset; the rest is read by the
    main parser, with top and bot as atoms, and turned into tuples."""
    for kind, value, offset in _tokenize(text):
        if kind not in _CONST_TOKENS and not (kind == "atom" and value in ("top", "bot")):
            raise ParseError(
                f"unexpected {value!r} in a variable-free formula",
                offset,
                ("top", "bot", "<>", "[]", "("),
            )
    return _const_of(parse(text))


def _const_of(f):
    # bottom-up, as in _formula_of_const: a tag on todo stands for its tuple
    done, todo = [], [f]
    while todo:
        g = todo.pop()
        if type(g) is str:
            k = _CONST_ARITY[g]
            node = (g, *done[-k:])
            del done[-k:]
            done.append(node)
        elif isinstance(g, Atom):
            done.append((g.name,))
        else:
            todo.append(_CONST_TAGS[type(g)])
            todo.extend(reversed(children(g)))
    return done[0]


_CONST_UNARY = (lambda a: ("dia", a), lambda a: ("box", a))
_CONST_BINARY = (lambda a, b: ("and", a, b), lambda a, b: ("or", a, b))


def enumerate_const_formulas(max_size):
    """All constant-grammar formulas of size 1..max_size, canonical order."""
    for n in range(1, max_size + 1):
        yield from _of_size(n, "const", (("top",), ("bot",)), _CONST_UNARY, _CONST_BINARY)
