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

The nine node classes sit on three arity bases, ``_Leaf(name)``,
``_Unary(body)`` and ``_Binary(left, right)``, which own construction,
hashing and equality; a node class adds only its hash tag and its
rendered operator.

There is one object per literal in a process.  A table keyed by the
atom name holds each name's :class:`Atom`, whose ``complement`` slot
links it to its :class:`NegAtom`, made on first use, and the NegAtom
links back.  So the solver reads a literal's complement without
building one, and a dict lookup of it meets the formula's own object,
which compares by identity.  Hashes stay structural, so set and dict
orders, and with them traces, never depend on object addresses.

The parser is one operator-precedence loop with an explicit operator
stack over the token strings of one regex scan.  It takes each leaf
from the literal table and matches only new names against the atom
pattern.  It finds token offsets only when it raises a
:class:`ParseError`, and then a lexical error anywhere in the text comes
first.  Every walker here is a loop, so formulas of any depth parse,
compare, render and normalize without recursion.
"""

import re

from ._record import _Frozen

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


class ParseError(Exception):
    """Syntax error with a byte offset and the token kinds expected there."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset
        self.expected = tuple(expected)


class FragmentViolation(Exception):
    """A universal refinement quantifier or a general negation where only the
    existential fragment is allowed."""


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable.

    Equality is structural.  It walks both trees with an explicit stack,
    so comparing deep formulas does not recurse; it stops at the first
    pair of nodes that differ in type or hash and skips shared subtrees.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        stack = []
        a, b = self, other
        while True:
            if a is not b:
                if type(a) is not type(b) or a._hash != b._hash:
                    return False
                if isinstance(a, _Binary):
                    stack.append((a.right, b.right))
                    a, b = a.left, b.left
                    continue
                if isinstance(a, _Unary):
                    a, b = a.body, b.body
                    continue
                if a.name != b.name:
                    return False
            if not stack:
                return True
            a, b = stack.pop()

    def __repr__(self):
        return f"{type(self).__name__}<{render(self)}>"


class _Leaf(Formula):
    """An atom or a negated atom.  ``_op`` is the rendered prefix.

    ``Atom(name)`` and ``NegAtom(name)`` return the one object of that
    literal in the process, reached through ``_LEAVES``; ``complement``
    is the other polarity's object.  A NegAtom is made the first time it
    is asked for, and until then its Atom's ``complement`` is None: no
    formula can hold a literal that does not exist, so there is nothing
    for it to clash with.  Equality stays structural and the hash is that
    of ``(tag, name)``, as for any node, not the object's address:
    iteration orders then depend on names alone.  Pickling and copying
    give back the same object."""

    __slots__ = ("name", "complement")

    def __new__(cls, name):
        try:
            atom = _LEAVES[name]
        except (KeyError, TypeError):
            atom = _new_atom(name)
        if cls is Atom:
            return atom
        return atom.complement or _negate(atom)

    def __reduce__(self):
        return type(self), (self.name,)

    def __eq__(self, other):
        return type(other) is type(self) and other.name == self.name

    __hash__ = Formula.__hash__


class _Unary(Formula):
    """A prefix operator applied to ``body``.  ``_op`` is the rendered prefix."""

    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body
        self._hash = hash((self._tag, body._hash))


class _Binary(Formula):
    """An infix connective.  ``_op`` is the rendered infix, spaces included."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash((self._tag, left._hash, right._hash))


class Atom(_Leaf):
    __slots__ = ()
    _tag, _op = "at", ""


class NegAtom(_Leaf):
    __slots__ = ()
    _tag, _op = "neg", "!"


# Every literal object, by atom name: the name's Atom, whose complement
# is its NegAtom once one was asked for.  It grows with the distinct
# names a process sees, by one entry each.  Two threads that meet a new
# name at once may each build a literal; equality is structural, so
# only the identity shortcut is lost.
_LEAVES = {}


def _new_atom(name):
    """Validate name and enter its Atom in _LEAVES."""
    if not _ATOM_RE.fullmatch(name):
        raise ValueError(f"bad atom name: {name!r}")
    atom = object.__new__(Atom)
    atom.name = name
    atom._hash = hash((Atom._tag, name))
    atom.complement = None
    _LEAVES[name] = atom
    return atom


def _negate(atom):
    """The NegAtom of atom, whose complement is still None, linked both ways."""
    neg = object.__new__(NegAtom)
    neg.name = atom.name
    neg._hash = hash((NegAtom._tag, atom.name))
    neg.complement = atom
    atom.complement = neg
    return neg


class And(_Binary):
    __slots__ = ()
    _tag, _op = "and", " & "


class Or(_Binary):
    __slots__ = ()
    _tag, _op = "or", " | "


class Diamond(_Unary):
    __slots__ = ()
    _tag, _op = "dia", "<>"


class Box(_Unary):
    __slots__ = ()
    _tag, _op = "box", "[]"


class ExistsR(_Unary):
    __slots__ = ()
    _tag, _op = "exr", "Er "


class ForallR(_Unary):
    __slots__ = ()
    _tag, _op = "far", "Ar "


class Not(_Unary):
    """General negation node.  Only produced by :func:`parse_general` or by
    hand; :func:`normalize` eliminates it."""

    __slots__ = ()
    _tag, _op = "not", "!"


def children(f):
    """Immediate subformulas of f, left to right."""
    if isinstance(f, _Leaf):
        return ()
    if isinstance(f, _Binary):
        return (f.left, f.right)
    return (f.body,)


def is_literal(f):
    return isinstance(f, _Leaf)


def render(f):
    """Canonical ASCII form; ``parse(render(f)) == f`` for grammar formulas.

    Binary nodes are parenthesized, everything else is prefix notation.
    :class:`Not` nodes render as ``!...`` for display but do not
    round-trip through :func:`parse`.
    """
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is str:
            out.append(g)
            continue
        # walk down the left spine, leaving each binary's infix, right
        # operand and ")" on the stack
        kind = type(g)
        while kind is not Atom and kind is not NegAtom:
            if kind is And or kind is Or:
                out.append("(")
                stack += (")", g.right, g._op)
                g = g.left
            else:
                if kind is Not and type(g.body) is not Atom:
                    out.append("!(")
                    stack.append(")")
                else:
                    out.append(g._op)
                g = g.body
            kind = type(g)
        out.append(g._op + g.name)
    return "".join(out)


class DepthMetrics(_Frozen):
    """Nesting depths: d_diamond counts <>/[] nesting, d_exists counts Er nesting."""

    __match_args__ = ("d_diamond", "d_exists")

    def __init__(self, d_diamond, d_exists):
        object.__setattr__(self, "d_diamond", d_diamond)
        object.__setattr__(self, "d_exists", d_exists)


def metrics(f):
    d_diamond = d_exists = 0
    stack = [(f, 0, 0)]
    while stack:
        g, d, e = stack.pop()
        kind = type(g)
        if kind is And or kind is Or:
            stack += ((g.right, d, e), (g.left, d, e))
        elif kind is Atom or kind is NegAtom:
            d_diamond, d_exists = max(d_diamond, d), max(d_exists, e)
        else:
            # ForallR and Not pass through: neither is a diamond or an Er.
            stack.append((g.body, d + (kind is Diamond or kind is Box), e + (kind is ExistsR)))
    return DepthMetrics(d_diamond, d_exists)


def size(f):
    """Node count."""
    n = 0
    stack = [f]
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


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


def _first_of(f, kinds):
    """The first node of f, in preorder, whose type is in kinds, or None."""
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
            elif kind in kinds:
                return g
            else:
                g = g.body
    return None


def in_existential_fragment(f):
    """True iff no universal refinement quantifier occurs in f."""
    return _first_of(f, (ForallR,)) is None


def check_fragment(f):
    """The gate of every decision procedure: raise :class:`FragmentViolation`
    unless f is a grammar formula of the existential fragment, that is,
    has no ``Ar`` and no general :class:`Not` anywhere."""
    g = _first_of(f, (ForallR, Not))
    if g is not None:
        raise FragmentViolation(f"{render(g)} is outside the existential fragment: {render(f)}")


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
    return _first_of(f, (ExistsR,)) is not None


_DUAL = {Atom: NegAtom, And: Or, Diamond: Box, ExistsR: ForallR}
_DUAL.update({dual: kind for kind, dual in _DUAL.items()})


def normalize(g, require_existential=True):
    """Push general negations down to the atoms using the standard dualities.

    The input may contain :class:`Not` on any subformula; the result is a
    grammar formula (negation on atoms only) logically equivalent to g.
    Raises :class:`FragmentViolation` if the result would contain a
    universal quantifier while require_existential is set.
    """
    # Entries are (node, negated) to visit, or (class, None) to build a
    # node of that class from the last one or two results.
    out = []
    stack = [(g, False)]
    while stack:
        f, neg = stack.pop()
        if neg is None:
            if issubclass(f, _Binary):
                right = out.pop()
                out[-1] = f(out[-1], right)
            else:
                out[-1] = f(out[-1])
            continue
        kind = type(f)
        if kind is Not:
            stack.append((f.body, not neg))
            continue
        if kind not in _DUAL:
            raise TypeError(f"not a formula: {f!r}")
        cls = _DUAL[kind] if neg else kind
        if isinstance(f, _Leaf):
            out.append((f.complement or _negate(f)) if neg else f)
        elif isinstance(f, _Binary):
            stack += ((cls, None), (f.right, neg), (f.left, neg))
        else:
            stack += ((cls, None), (f.body, neg))
    result = out[0]
    if require_existential and not in_existential_fragment(result):
        raise FragmentViolation(
            f"normalizing {render(g)} yields a universal quantifier: {render(result)}"
        )
    return result


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"[ \t\r\n]*([A-Za-z][A-Za-z0-9_]*|<>|\[\]|[^ \t\r\n])")
_KINDS = {"<>": "dia", "[]": "box", "Er": "er", "Ar": "ar", "!": "bang", "&": "amp"}
_KINDS.update({"|": "pipe", "(": "lp", ")": "rp"})

_UNARY_EXPECTED = ("atom", "!", "<>", "[]", "Er", "Ar", "(")


def _tokenize(text):
    """(kind, value, offset) per token, then ("eof", "", len(text)); raises
    the first lexical error: a bad character or a word that is no atom."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        value, offset = m.group(1), m.start(1)
        kind = _KINDS.get(value)
        if kind is None:
            if _ATOM_RE.fullmatch(value):
                kind = "atom"
            elif value.isascii() and value[0].isalpha():
                raise ParseError(f"invalid identifier {value!r}", offset, ("atom",))
            else:
                raise ParseError(f"unexpected character {value!r}", offset, _UNARY_EXPECTED)
        tokens.append((kind, value, offset))
    tokens.append(("eof", "", len(text)))
    return tokens


def _error(text, i, message, expected):
    """The ParseError at token i, unless the text holds a lexical error
    anywhere, which :func:`_tokenize` raises first."""
    return ParseError(message, _tokenize(text)[i][2], expected)


_PREFIX = {"<>": Diamond, "[]": Box, "Er": ExistsR, "Ar": ForallR}
_PREFIX_OPS = frozenset((*_PREFIX.values(), Not))


def _parse(text, general):
    """One operator-precedence loop over the token strings of one regex
    scan, "" marking the end.  ``ops`` holds the pending prefix operators,
    connectives and None for each open "("; ``args`` holds the left
    operands of the pending connectives."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    leaves = _LEAVES
    ops, args = [], []
    i = 0
    while True:
        # operand position: prefix operators and "(" until an atom
        t = tokens[i]
        i += 1
        op = _PREFIX.get(t)
        if op is not None:
            ops.append(op)
            continue
        if t == "(":
            ops.append(None)
            continue
        if t == "!":
            if general:
                ops.append(Not)
                continue
            t = tokens[i]
            i += 1
            f = leaves.get(t)
            if f is None:
                if not _ATOM_RE.fullmatch(t):
                    raise _error(text, i - 1, "negation applies only to atoms", ("atom",))
                f = _new_atom(t)
            f = f.complement or _negate(f)
        else:
            # a name seen before is in the table; only a new one is matched
            f = leaves.get(t)
            if f is None:
                if not _ATOM_RE.fullmatch(t):
                    message = f"unexpected {t!r}" if t else "expected a formula"
                    raise _error(text, i - 1, message, _UNARY_EXPECTED)
                f = _new_atom(t)
        # operator position: apply the pending prefixes, then read "&", "|",
        # ")" or the end; "&" binds tighter than "|", both associate left
        while True:
            while ops and ops[-1] in _PREFIX_OPS:
                f = ops.pop()(f)
            t = tokens[i]
            i += 1
            if t == "&" or t == "|":
                op = And if t == "&" else Or
                while ops and (ops[-1] is And or ops[-1] is op):
                    f = ops.pop()(args.pop(), f)
                args.append(f)
                ops.append(op)
                break
            while ops and ops[-1] is not None:
                f = ops.pop()(args.pop(), f)
            if not ops:
                if t:
                    raise _error(text, i - 1, f"unexpected {t!r}", ("&", "|", "end of input"))
                return f
            if t != ")":
                raise _error(text, i - 1, "unbalanced parenthesis", (")",))
            ops.pop()


def parse(text):
    """Parse the grammar above.  Universal quantifiers parse; use
    :func:`check_fragment` to reject them."""
    return _parse(text, general=False)


def parse_general(text):
    """Like :func:`parse` but ``!`` may negate any subformula, yielding
    :class:`Not` nodes.  Feed the result to :func:`normalize`."""
    return _parse(text, general=True)
