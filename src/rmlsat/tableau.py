"""Two-prefix tableau: prefixed formulas, rules, branches, model extraction.

Entries are triples (model prefix, state prefix, formula); prefixes are
tuples of positive integers rendered "1.2.3".  A model prefix mu.m
names a refinement of the model named mu; a state prefix sigma.i names
a successor of the state named sigma.  A branch starts from the entry
(1, 1, root formula).

Rules (premise => conclusion, with side conditions):

    and: (mu,sigma) a & b  =>  (mu,sigma) a  and  (mu,sigma) b
    or:  (mu,sigma) a | b  =>  (mu,sigma) a  or  (mu,sigma) b    (a choice)
    lit: (mu.nu,sigma) l   =>  (mu,sigma) l                      (l a literal)
    dia: (mu,sigma) <>a    =>  (mu,sigma.i) a   with sigma.i fresh
    exr: (mu,sigma) Er a   =>  (mu.m,sigma) a   with mu.m fresh
    box: (mu,sigma) []a    =>  (mu,sigma.i) a   where some (mu.nu, sigma.i)
                                                already occurs (nu may be empty)

The box side condition is what maintains the refinement discipline: if
a descendant model visits a successor state, that successor implicitly
exists in every ancestor model, so box obligations apply to it there.

A branch is complete when no rule instance remains, and accepting when
additionally no (model prefix, state prefix) pair carries both an atom
and its negation.  From a complete accepting branch, one finite model
per model prefix is read off; consecutive models are related by
refinement mappings that send each shared state prefix to itself.

Fresh indices for dia/exr come from a single per-branch counter, so
prefixes are globally unique within a branch.

Each branch keeps an index of its entries: from (mu, sigma) to the
successor prefixes sigma.i occurring under a model prefix extending mu,
and from (mu, sigma, body) to its dia witnesses (mu, sigma.i, body) and
exr witnesses (mu.m, sigma, body).  Each of these three maps is built in
one pass over the entries the first time a lookup needs it.  The side
conditions of dia, exr and box and the completeness check look entries
up there instead of scanning the branch.

Model reading makes one pass over the entries, giving each distinct
state prefix a small id, and then does work proportional to the chain
it returns: its cost is linear in the entries plus the size of that
chain.  The chain itself can outgrow the branch: a model holds the
states of all its refinements, and a state's name is its full prefix,
so the witness JSON grows with depth times states.
"""

from ._record import _Frozen, _Record
from .formula import And, Atom, Box, Diamond, ExistsR, NegAtom, Or, is_literal, render
from .kripke import KripkeModel, RefinementRelation, model_from_dict, model_to_dict

__all__ = [
    "Branch",
    "RuleInstance",
    "ModelChain",
    "ChainModel",
    "NotComplete",
    "Clash",
    "ChoiceRequired",
    "ChoiceForbidden",
    "render_prefix",
    "parse_prefix",
    "is_prefix_of",
    "render_entry",
    "format_rule_line",
    "extract_models",
]


class NotComplete(Exception):
    """Model extraction requires a complete branch."""


class Clash(Exception):
    """Model extraction requires an accepting (clash-free) branch."""


class ChoiceRequired(Exception):
    """Applying an or-instance needs a 'left'/'right' choice."""


class ChoiceForbidden(Exception):
    """Only or-instances take a choice."""


def render_prefix(p):
    return ".".join(map(str, p))


def parse_prefix(text):
    return tuple(int(part) for part in text.split("."))


def is_prefix_of(a, b):
    return len(a) <= len(b) and b[: len(a)] == a


def render_entry(e):
    mu, sigma, f = e
    return f"({render_prefix(mu)},{render_prefix(sigma)}) {render(f)}"


def format_rule_line(rule, entry, conclusions):
    concl = "; ".join(render_entry(c) for c in conclusions)
    return f"{rule} {render_entry(entry)} => {concl}"


class RuleInstance(_Frozen):
    """One applicable rule application.

    target carries the extra datum a rule needs: the ancestor model
    prefix for lit, the existing successor state prefix for box, None
    otherwise.
    """

    __match_args__ = ("rule", "entry", "target")

    def __init__(self, rule, entry, target=None):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "target", target)

    def __str__(self):
        extra = f" target={render_prefix(self.target)}" if self.target else ""
        return f"{self.rule} on {render_entry(self.entry)}{extra}"


class Branch:
    """An ordered, duplicate-free set of prefixed formulas plus the fresh
    index counter.  apply() returns a new Branch; entries are never removed."""

    __slots__ = ("_entries", "next_index", "_succ", "_dia", "_exr")

    def __init__(self, entries, next_index=None):
        self._succ = self._dia = self._exr = None
        self._entries = dict.fromkeys(entries)  # insertion-ordered
        if next_index is None:
            # Fresh prefixes must not collide with anything present: pick the
            # next counter value past every index in use.  Only the pristine
            # initial branch may start back at 1.
            top = 1
            extended = False
            for e in self._entries:
                for p in (e[0], e[1]):
                    top = max(top, max(p))
                    if len(p) > 1:
                        extended = True
            next_index = top + 1 if (extended or top > 1) else 1
        self.next_index = next_index

    @property
    def entries(self):
        return tuple(self._entries)

    def __contains__(self, e):
        return e in self._entries

    def __len__(self):
        return len(self._entries)

    def _extended(self, new_entries, bump=0):
        return Branch((*self._entries, *new_entries), self.next_index + bump)

    # -- rule machinery ------------------------------------------------------

    # The index (see the module docstring).  Building a map costs one
    # update per entry, per prefix of its model prefix for succ.

    def _successors(self):
        """(mu, sigma) -> {sigma.i: None}: the immediate extensions of sigma
        that occur with a model prefix extending mu, in first-occurrence
        order."""
        if self._succ is None:
            succ = {}
            for mu, sigma, _ in self._entries:
                if len(sigma) > 1:
                    parent = sigma[:-1]
                    for k in range(1, len(mu) + 1):
                        succ.setdefault((mu[:k], parent), {})[sigma] = None
            self._succ = succ
        return self._succ

    def _exr_children(self):
        """(mu, sigma, a) -> [mu.m, ...] such that (mu.m, sigma, a) occurs."""
        if self._exr is None:
            exr = {}
            for mu, sigma, f in self._entries:
                if len(mu) > 1:
                    exr.setdefault((mu[:-1], sigma, f), []).append(mu)
            self._exr = exr
        return self._exr

    def _box_witnesses(self, mu, sigma):
        """Existing successor prefixes sigma.i visible to a box at (mu, sigma):
        those occurring with a model prefix extending mu."""
        return list(self._successors().get((mu, sigma), ()))

    def _has_dia_witness(self, mu, sigma, body):
        if self._dia is None:
            self._dia = {(m, s[:-1], f) for m, s, f in self._entries if len(s) > 1}
        return (mu, sigma, body) in self._dia

    def _has_exr_witness(self, mu, sigma, body):
        return (mu, sigma, body) in self._exr_children()

    def applicable_instances(self):
        """Every rule instance whose side condition holds and whose
        conclusion is not already present, in deterministic order."""
        out = []
        entries = self._entries
        for e in entries:
            mu, sigma, f = e
            if isinstance(f, And):
                if (mu, sigma, f.left) not in entries or (mu, sigma, f.right) not in entries:
                    out.append(RuleInstance("and", e))
            elif isinstance(f, Or):
                if (mu, sigma, f.left) not in entries and (mu, sigma, f.right) not in entries:
                    out.append(RuleInstance("or", e))
            elif is_literal(f):
                for k in range(len(mu) - 1, 0, -1):
                    if (mu[:k], sigma, f) not in entries:
                        out.append(RuleInstance("lit", e, mu[:k]))
            elif isinstance(f, Diamond):
                if not self._has_dia_witness(mu, sigma, f.body):
                    out.append(RuleInstance("dia", e))
            elif isinstance(f, ExistsR):
                if not self._has_exr_witness(mu, sigma, f.body):
                    out.append(RuleInstance("exr", e))
            elif isinstance(f, Box):
                for sigma2 in self._box_witnesses(mu, sigma):
                    if (mu, sigma2, f.body) not in entries:
                        out.append(RuleInstance("box", e, sigma2))
        return out

    def apply(self, inst, choice=None):
        """Apply one instance, returning the extended branch.

        Or-instances require choice 'left' or 'right'; every other rule
        forbids a choice.  Raises ValueError when the instance does not
        apply to this branch.
        """
        mu, sigma, f = inst.entry
        if inst.entry not in self._entries:
            raise ValueError(f"entry not on branch: {render_entry(inst.entry)}")
        if inst.rule == "or":
            if choice not in ("left", "right"):
                raise ChoiceRequired(f"or-instance needs left/right, got {choice!r}")
        elif choice is not None:
            raise ChoiceForbidden(f"{inst.rule} takes no choice")

        if inst.rule == "and":
            if not isinstance(f, And):
                raise ValueError("and-instance on a non-conjunction")
            return self._extended([(mu, sigma, f.left), (mu, sigma, f.right)])
        if inst.rule == "or":
            side = f.left if choice == "left" else f.right
            if not isinstance(f, Or):
                raise ValueError("or-instance on a non-disjunction")
            return self._extended([(mu, sigma, side)])
        if inst.rule == "lit":
            if not is_literal(f) or not is_prefix_of(inst.target, mu) or inst.target == mu:
                raise ValueError("lit-instance needs a proper ancestor model prefix")
            return self._extended([(inst.target, sigma, f)])
        if inst.rule == "dia":
            if not isinstance(f, Diamond):
                raise ValueError("dia-instance on a non-diamond")
            i = self.next_index
            return self._extended([(mu, sigma + (i,), f.body)], bump=1)
        if inst.rule == "exr":
            if not isinstance(f, ExistsR):
                raise ValueError("exr-instance on a non-quantifier")
            i = self.next_index
            return self._extended([(mu + (i,), sigma, f.body)], bump=1)
        if inst.rule == "box":
            if not isinstance(f, Box):
                raise ValueError("box-instance on a non-box")
            if inst.target not in self._box_witnesses(mu, sigma):
                raise ValueError("box-instance without an occurring successor prefix")
            return self._extended([(mu, inst.target, f.body)])
        raise ValueError(f"unknown rule {inst.rule!r}")

    def has_clash(self):
        """The first (mu, sigma, atom name) that the entries, read in order,
        label with both polarities, or None."""
        polarity = {}  # the type of the first literal seen at each key
        for mu, sigma, f in self._entries:
            t = type(f)
            if t is Atom or t is NegAtom:
                key = (mu, sigma, f.name)
                if polarity.setdefault(key, t) is not t:
                    return key
        return None

    def is_complete(self):
        return not self.applicable_instances()


# --- model extraction -------------------------------------------------------


class ChainModel(_Record):
    __match_args__ = ("prefix", "model", "point")

    def __init__(self, prefix, model, point):
        self.prefix = prefix
        self.model = model
        self.point = point


class ModelChain(_Record):
    """The models read off a branch, sorted by model prefix.  Each entry's
    point is the state where the model was introduced."""

    __match_args__ = ("chain",)

    def __init__(self, chain=None):
        self.chain = [] if chain is None else chain

    def __len__(self):
        return len(self.chain)

    def __iter__(self):
        return iter(self.chain)

    def lookup(self, prefix):
        for cm in self.chain:
            if cm.prefix == prefix:
                return cm
        raise KeyError(render_prefix(prefix))

    def root(self):
        return self.lookup((1,))

    def edges(self):
        """(parent, child, relation) for every refinement step in the chain.

        The relation maps each state of the child model to the parent
        state carrying the same state prefix.
        """
        by_prefix = {cm.prefix: cm for cm in self.chain}
        out = []
        for cm in self.chain:
            if len(cm.prefix) <= 1:
                continue
            parent = by_prefix.get(cm.prefix[:-1])
            if parent is None:
                raise KeyError(render_prefix(cm.prefix[:-1]))
            rel = RefinementRelation((s, s) for s in cm.model.states)
            out.append((parent, cm, rel))
        return out

    def to_dict(self, formula_text=None):
        d = {
            "models": [
                {"prefix": render_prefix(cm.prefix), **model_to_dict(cm.model, cm.point)}
                for cm in self.chain
            ]
        }
        if formula_text is not None:
            d["formula"] = formula_text
        return d

    @classmethod
    def from_dict(cls, d):
        chain = []
        for obj in d["models"]:
            model, point = model_from_dict(obj)
            chain.append(ChainModel(parse_prefix(obj["prefix"]), model, point))
        return cls(chain)


def extract_models(branch):
    """Read the model collection off a complete accepting branch.

    For each model prefix mu: the states are the state prefixes that
    occur with a model prefix extending mu; transitions connect each
    state prefix to its occurring immediate extensions; the valuation of
    a state comes from the literals recorded at model prefix 1 (literal
    propagation makes those canonical).  Raises Clash or NotComplete if
    the branch does not qualify.
    """
    _check_acceptance(branch)
    return _read_models(branch)


def _check_acceptance(branch):
    """Raise Clash or NotComplete unless the branch is complete and accepting."""
    clash = branch.has_clash()
    if clash is not None:
        mu, sigma, name = clash
        raise Clash(f"clash on {name} at ({render_prefix(mu)},{render_prefix(sigma)})")
    if not branch.is_complete():
        raise NotComplete("branch has unapplied rule instances")


def _read_models(branch):
    """The model chain of a branch that _check_acceptance has passed.

    One pass over the entries gives each distinct state prefix an id and
    collects each model prefix's own state ids, the atoms at model
    prefix 1 and each model's point.  The rest costs what the chain
    written costs.  States are keyed by whole prefixes: 1.2 and 1.3.2
    share a last index but are different states.
    """
    exr = branch._exr_children()
    ids = {}  # state prefix -> id, in first-occurrence order
    own = {}  # model prefix -> ids of the state prefixes its entries carry
    atoms_at = {}
    anchors = {(1,): (1,)}
    for mu, sigma, f in branch._entries:
        i = ids.get(sigma)
        if i is None:
            i = ids[sigma] = len(ids)
        ss = own.get(mu)
        if ss is None:
            ss = own[mu] = set()
        ss.add(i)
        if mu == (1,) and isinstance(f, Atom):
            atoms_at.setdefault(i, set()).add(f.name)
        elif isinstance(f, ExistsR):
            # a model's point is the state of the first Er entry it witnesses
            for child in exr.get((mu, sigma, f.body), ()):
                anchors.setdefault(child, sigma)

    # Each state's parent id and name, shortest prefix first, so that a
    # name extends its parent's.  A prefix whose parent does not occur
    # (only on a hand-built branch) has no parent and is named in full.
    prefixes = list(ids)
    parent = [None] * len(prefixes)
    names = [None] * len(prefixes)
    for i in sorted(range(len(prefixes)), key=lambda i: len(prefixes[i])):
        sigma = prefixes[i]
        p = parent[i] = ids.get(sigma[:-1])
        names[i] = render_prefix(sigma) if p is None else f"{names[p]}.{sigma[-1]}"

    # Each model's states, bottom-up: its own entries' states and those of
    # its child models.  A model prefix with no entries of its own (only on
    # a hand-built branch) still passes its children's states upward.
    states = dict(own)
    for mu in own:
        up = mu[:-1]
        while up and up not in states:
            states[up] = set()
            up = up[:-1]
    for mu in sorted(states, key=len, reverse=True):
        if len(mu) > 1:
            states[mu[:-1]] |= states[mu]

    # The transitions of a model join each of its states to each of its
    # states one index longer: (parent(i), i) with both in the set.
    chain = []
    for mu in sorted(own):
        ss = states[mu]
        transitions = [(names[parent[i]], names[i]) for i in ss if parent[i] in ss]
        valuation = {names[i]: atoms_at[i] for i in ss if i in atoms_at}
        anchor = anchors.get(mu) or min(prefixes[i] for i in ss)
        chain.append(
            ChainModel(
                mu,
                KripkeModel([names[i] for i in ss], transitions, valuation),
                render_prefix(anchor),
            )
        )
    return ModelChain(chain)
