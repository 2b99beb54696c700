"""Deterministic formula enumeration and seeded random generation.

Size means node count.  Enumeration is exhaustive and canonically
ordered: ascending size, leaves before negated leaves, unary operators
before binary ones, left split sizes ascending.  The same inputs always
produce the same sequence, which the fuzzing harness and the exhaustive
agreement suites rely on.
"""

from .formula import And, Atom, Box, Diamond, ExistsR, NegAtom, Or

_UNARY = (Diamond, Box, ExistsR)
_UNARY_NO_EXR = (Diamond, Box)
_BINARY = (And, Or)

_cache = {}


def _of_size(n, kind, leaves, unary, binary):
    """All terms with exactly n nodes, built from the leaves by the unary
    and binary constructors in canonical order, cached under (kind, n)."""
    got = _cache.get((kind, n))
    if got is not None:
        return got
    if n <= 0:
        out = []
    elif n == 1:
        out = list(leaves)
    else:
        out = []
        for op in unary:
            for body in _of_size(n - 1, kind, leaves, unary, binary):
                out.append(op(body))
        for op in binary:
            for i in range(1, n - 1):
                for left in _of_size(i, kind, leaves, unary, binary):
                    for right in _of_size(n - 1 - i, kind, leaves, unary, binary):
                        out.append(op(left, right))
    _cache[kind, n] = out
    return out


def formulas_of_size(n, atom_names, include_exists=True):
    """All formulas with exactly n nodes over the given atoms, as a list."""
    atom_names = tuple(atom_names)
    leaves = [Atom(a) for a in atom_names] + [NegAtom(a) for a in atom_names]
    unary = _UNARY if include_exists else _UNARY_NO_EXR
    return _of_size(n, (atom_names, include_exists), leaves, unary, _BINARY)


def enumerate_formulas(max_size, atom_names, include_exists=True):
    """Yield every formula of size 1..max_size in canonical order."""
    for n in range(1, max_size + 1):
        yield from formulas_of_size(n, atom_names, include_exists)


def random_formula(rng, size, atom_names, include_exists=True):
    """One uniformly-shaped random formula with exactly `size` nodes.

    Deterministic given the rng state; the distribution picks the
    connective kind uniformly among those feasible at each size.
    """
    atom_names = tuple(atom_names)
    if size <= 1:
        name = rng.choice(atom_names)
        return rng.choice((Atom, NegAtom))(name)
    kinds = list(_UNARY if include_exists else _UNARY_NO_EXR)
    if size >= 3:
        kinds += list(_BINARY)
    op = rng.choice(kinds)
    if op in _BINARY:
        i = rng.randint(1, size - 2)
        return op(
            random_formula(rng, i, atom_names, include_exists),
            random_formula(rng, size - 1 - i, atom_names, include_exists),
        )
    return op(random_formula(rng, size - 1, atom_names, include_exists))
