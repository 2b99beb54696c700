"""Formula syntax for modal logic with refinement quantifiers.

ASCII grammar:

    form  := or
    or    := and ('|' and)*
    and   := unary ('&' unary)*
    unary := '!' atom | '<>' unary | '[]' unary | 'Er' unary | 'Ar' unary
           | atom | '(' form ')'
    atom  := [a-z][a-z0-9_]*

Negation applies only to atoms, so every parsed formula is in negation
normal form by construction.  ``Er`` is the existential refinement
quantifier, ``Ar`` its universal dual; ``Ar`` is parsed so callers can
report it, but the decision procedures reject it.  Precedence, tightest
first: ``!``, prefix operators (right associated), ``&``, ``|``.
Whitespace is insignificant.  ``Er`` and ``Ar`` are reserved words and
can never be atoms (atoms start lowercase).

There are no constants for truth/falsity; use ``p | !p`` and ``p & !p``.

:func:`parse_general` additionally allows ``!`` in front of any
subformula, producing :class:`Not` nodes; :func:`normalize` pushes such
negations down to the atoms.
"""

import re
from dataclasses import dataclass

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


class ParseError(Exception):
    """Syntax error with a byte offset and the token kinds expected there."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset
        self.expected = tuple(expected)


class FragmentViolation(Exception):
    """A universal refinement quantifier where only the existential fragment is allowed."""


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}<{render(self)}>"


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name):
        if not _ATOM_RE.fullmatch(name):
            raise ValueError(f"bad atom name: {name!r}")
        self.name = name
        self._hash = hash(("at", name))

    def __eq__(self, other):
        return type(other) is Atom and other.name == self.name

    __hash__ = Formula.__hash__


class NegAtom(Formula):
    __slots__ = ("name",)

    def __init__(self, name):
        if not _ATOM_RE.fullmatch(name):
            raise ValueError(f"bad atom name: {name!r}")
        self.name = name
        self._hash = hash(("neg", name))

    def __eq__(self, other):
        return type(other) is NegAtom and other.name == self.name

    __hash__ = Formula.__hash__


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash(("and", left._hash, right._hash))

    def __eq__(self, other):
        return type(other) is And and other.left == self.left and other.right == self.right

    __hash__ = Formula.__hash__


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash(("or", left._hash, right._hash))

    def __eq__(self, other):
        return type(other) is Or and other.left == self.left and other.right == self.right

    __hash__ = Formula.__hash__


class Diamond(Formula):
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body
        self._hash = hash(("dia", body._hash))

    def __eq__(self, other):
        return type(other) is Diamond and other.body == self.body

    __hash__ = Formula.__hash__


class Box(Formula):
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body
        self._hash = hash(("box", body._hash))

    def __eq__(self, other):
        return type(other) is Box and other.body == self.body

    __hash__ = Formula.__hash__


class ExistsR(Formula):
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body
        self._hash = hash(("exr", body._hash))

    def __eq__(self, other):
        return type(other) is ExistsR and other.body == self.body

    __hash__ = Formula.__hash__


class ForallR(Formula):
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body
        self._hash = hash(("far", body._hash))

    def __eq__(self, other):
        return type(other) is ForallR and other.body == self.body

    __hash__ = Formula.__hash__


class Not(Formula):
    """General negation node.  Only produced by :func:`parse_general` or by
    hand; :func:`normalize` eliminates it."""

    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body
        self._hash = hash(("not", body._hash))

    def __eq__(self, other):
        return type(other) is Not and other.body == self.body

    __hash__ = Formula.__hash__


def children(f):
    """Immediate subformulas of f, left to right."""
    if isinstance(f, (Atom, NegAtom)):
        return ()
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    return (f.body,)


def is_literal(f):
    return isinstance(f, (Atom, NegAtom))


def render(f):
    """Canonical ASCII form; ``parse(render(f)) == f`` for grammar formulas.

    Binary nodes are parenthesized, everything else is prefix notation.
    :class:`Not` nodes render as ``!...`` for display but do not
    round-trip through :func:`parse`.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, NegAtom):
        return "!" + f.name
    if isinstance(f, And):
        return f"({render(f.left)} & {render(f.right)})"
    if isinstance(f, Or):
        return f"({render(f.left)} | {render(f.right)})"
    if isinstance(f, Diamond):
        return "<>" + render(f.body)
    if isinstance(f, Box):
        return "[]" + render(f.body)
    if isinstance(f, ExistsR):
        return "Er " + render(f.body)
    if isinstance(f, ForallR):
        return "Ar " + render(f.body)
    if isinstance(f, Not):
        body = render(f.body)
        return "!" + (body if isinstance(f.body, Atom) else "(" + body + ")")
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class DepthMetrics:
    """Nesting depths: d_diamond counts <>/[] nesting, d_exists counts Er nesting."""

    d_diamond: int
    d_exists: int


def metrics(f):
    if isinstance(f, (Atom, NegAtom)):
        return DepthMetrics(0, 0)
    if isinstance(f, (And, Or)):
        l, r = metrics(f.left), metrics(f.right)
        return DepthMetrics(max(l.d_diamond, r.d_diamond), max(l.d_exists, r.d_exists))
    m = metrics(f.body)
    if isinstance(f, (Diamond, Box)):
        return DepthMetrics(m.d_diamond + 1, m.d_exists)
    if isinstance(f, ExistsR):
        return DepthMetrics(m.d_diamond, m.d_exists + 1)
    # ForallR and Not pass through: neither is a diamond or an Er.
    return m


def size(f):
    """Node count."""
    return 1 + sum(size(c) for c in children(f))


def subformulas(f):
    """The set of all subtrees of f, f included."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in out:
            out.add(g)
            stack.extend(children(g))
    return out


def atoms(f):
    """Sorted tuple of atom names occurring in f (negated or not)."""
    names = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Atom, NegAtom)):
            names.add(g.name)
        else:
            stack.extend(children(g))
    return tuple(sorted(names))


def in_existential_fragment(f):
    """True iff no universal refinement quantifier occurs in f."""
    stack = [f]
    push = stack.append
    while stack:
        g = stack.pop()
        while True:
            kind = type(g)
            if kind is And or kind is Or:
                push(g.right)
                g = g.left
            elif kind is Atom or kind is NegAtom:
                break
            elif kind is ForallR:
                return False
            else:
                g = g.body
    return True


def count_diamonds(f):
    """Number of Diamond nodes in f."""
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Diamond):
            n += 1
        stack.extend(children(g))
    return n


def contains_exists(f):
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, ExistsR):
            return True
        stack.extend(children(g))
    return False


def normalize(g, require_existential=True):
    """Push general negations down to the atoms using the standard dualities.

    The input may contain :class:`Not` on any subformula; the result is a
    grammar formula (negation on atoms only) logically equivalent to g.
    Raises :class:`FragmentViolation` if the result would contain a
    universal quantifier while require_existential is set.
    """

    def push(f, neg):
        if isinstance(f, Atom):
            return NegAtom(f.name) if neg else f
        if isinstance(f, NegAtom):
            return Atom(f.name) if neg else f
        if isinstance(f, Not):
            return push(f.body, not neg)
        if isinstance(f, And):
            if neg:
                return Or(push(f.left, True), push(f.right, True))
            return And(push(f.left, False), push(f.right, False))
        if isinstance(f, Or):
            if neg:
                return And(push(f.left, True), push(f.right, True))
            return Or(push(f.left, False), push(f.right, False))
        if isinstance(f, Diamond):
            return Box(push(f.body, True)) if neg else Diamond(push(f.body, False))
        if isinstance(f, Box):
            return Diamond(push(f.body, True)) if neg else Box(push(f.body, False))
        if isinstance(f, ExistsR):
            return ForallR(push(f.body, True)) if neg else ExistsR(push(f.body, False))
        if isinstance(f, ForallR):
            return ExistsR(push(f.body, True)) if neg else ForallR(push(f.body, False))
        raise TypeError(f"not a formula: {f!r}")

    result = push(g, False)
    if require_existential and not in_existential_fragment(result):
        raise FragmentViolation(
            f"normalizing {render(g)} yields a universal quantifier: {render(result)}"
        )
    return result


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<dia><>)"
    r"|(?P<box>\[\])"
    r"|(?P<bang>!)"
    r"|(?P<amp>&)"
    r"|(?P<pipe>\|)"
    r"|(?P<lp>\()"
    r"|(?P<rp>\))"
    r")"
)
_WS_RE = re.compile(r"[ \t\r\n]*")

_UNARY_EXPECTED = ("atom", "!", "<>", "[]", "Er", "Ar", "(")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ws = _WS_RE.match(text, pos)
            at = ws.end()
            if at >= len(text):
                break
            raise ParseError(f"unexpected character {text[at]!r}", at, _UNARY_EXPECTED)
        kind = m.lastgroup
        value = m.group(kind)
        offset = m.end() - len(value)
        if kind == "word":
            if value == "Er":
                kind = "er"
            elif value == "Ar":
                kind = "ar"
            elif _ATOM_RE.fullmatch(value):
                kind = "atom"
            else:
                raise ParseError(f"invalid identifier {value!r}", offset, ("atom",))
        tokens.append((kind, value, offset))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, general):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.general = general

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def formula(self):
        f = self.or_()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {value!r}", offset, ("&", "|", "end of input"))
        return f

    def or_(self):
        f = self.and_()
        while self.peek()[0] == "pipe":
            self.advance()
            f = Or(f, self.and_())
        return f

    def and_(self):
        f = self.unary()
        while self.peek()[0] == "amp":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self):
        kind, value, offset = self.peek()
        if kind == "bang":
            self.advance()
            if self.general:
                return Not(self.unary())
            kind2, value2, offset2 = self.peek()
            if kind2 != "atom":
                raise ParseError("negation applies only to atoms", offset2, ("atom",))
            self.advance()
            return NegAtom(value2)
        if kind == "dia":
            self.advance()
            return Diamond(self.unary())
        if kind == "box":
            self.advance()
            return Box(self.unary())
        if kind == "er":
            self.advance()
            return ExistsR(self.unary())
        if kind == "ar":
            self.advance()
            return ForallR(self.unary())
        if kind == "atom":
            self.advance()
            return Atom(value)
        if kind == "lp":
            self.advance()
            f = self.or_()
            kind2, value2, offset2 = self.peek()
            if kind2 != "rp":
                raise ParseError("unbalanced parenthesis", offset2, (")",))
            self.advance()
            return f
        raise ParseError(
            "expected a formula" if kind == "eof" else f"unexpected {value!r}",
            offset,
            _UNARY_EXPECTED,
        )


def parse(text):
    """Parse the grammar above.  Universal quantifiers parse; use
    :func:`in_existential_fragment` to reject them."""
    return _Parser(text, general=False).formula()


def parse_general(text):
    """Like :func:`parse` but ``!`` may negate any subformula, yielding
    :class:`Not` nodes.  Feed the result to :func:`normalize`."""
    return _Parser(text, general=True).formula()
