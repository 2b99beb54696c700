"""Hashes that pin the solver's and the model checker's search order.

Each hash covers, per instance in a fixed order, the trace lines, the
statistics summary and the verdict; for `sat` on SAT also the witness
JSON that `rmlsat sat --witness` writes.  Any change to which rule fires
when, to the fresh-index numbering or to witness reading changes a hash.
One more hash, `branch_entries`, covers every SAT branch's entries in
order (`SatResult.branch.entries`), over the same `sat` instances.

    PYTHONPATH=src python tests/search_order.py          # print the hashes
    PYTHONPATH=src python tests/search_order.py --write  # rewrite the golden file

Only rewrite the golden file on purpose: it is the reference that an
engine change must reproduce.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import modelgen  # noqa: E402
from rmlsat import gen  # noqa: E402
from rmlsat.formula import parse, render  # noqa: E402
from rmlsat.kripke import KripkeModel, PointedModel  # noqa: E402
from rmlsat.solver import SolverOptions, _Engine, sat  # noqa: E402
from rmlsat.tableau import render_entry  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "search_order.json"
SWEEP_SIZE = 6
SWEEP_ATOMS = ("p", "q")
CHECK_STATES = 2
CHECK_SIZE = 4
CHECK_ATOMS = ("p",)


def _conj(parts):
    return " & ".join(parts)


def _cnf(clauses):
    return _conj(
        "(" + " | ".join(("!" if neg else "") + v for v, neg in c) + ")" for c in clauses
    )


def wide_instances():
    """(name, formula text): the shapes where P grows to hundreds of entries."""
    xs = [f"x{i}" for i in range(60)]
    core = _cnf(
        list(zip(("c0", "c1", "c2"), signs))
        for signs in itertools.product((False, True), repeat=3)
    )
    return [
        ("er_dia_30", _conj([f"Er <>{x}" for x in xs[:30]] + ["[]q"])),
        ("dia_60", _conj([f"<>{x}" for x in xs] + ["[]q"])),
        ("dia_60_refuted", _conj([f"<>{x}" for x in xs] + [f"[]!{xs[-1]}"])),
        ("chain_40", "<>" * 40 + "x"),
        ("chain_40_refuted", _conj(["<>" * 40 + "x", "[]" * 40 + "!x"])),
        ("er_nest_12", "Er <>" * 12 + "x"),
        ("atoms_200", _conj(xs * 3 + [f"y{i}" for i in range(20)])),
        ("atoms_200_refuted", _conj(xs * 3 + [f"y{i}" for i in range(20)] + ["!x7"])),
        ("core_er_dia", f"Er <>({core})"),
        ("core_dia_er", f"<>Er ({core})"),
        ("mixed", "Er (<>p & (q | !p)) & <>(p & Er []!q) & [](q | Er <>!p)"),
    ]


def deep_instances():
    """Formula texts whose witness chains are deep or long: models and
    states many prefix steps below the root."""
    xs = [f"x{i}" for i in range(30)]
    return [
        "Er <>" * 40 + "p",
        "<>" * 200 + "p",
        "Er " * 60 + "p",
        _conj([f"Er <>{x}" for x in xs] + ["[]q"]),
    ]


def star_model():
    """A centre c with seven successors s0..s6; some leaves step on to
    the next leaf or back to c.  Boxes at c fan out to seven BOX1 children
    and every diamond at c has seven target states."""
    leaves = [f"s{i}" for i in range(7)]
    trans = [("c", s) for s in leaves]
    trans += [(f"s{i}", f"s{(i + 1) % 7}") for i in range(0, 7, 2)]
    trans += [(f"s{i}", "c") for i in range(0, 7, 3)]
    valuation = {
        "c": ["q"],
        **{s: [a for a, on in (("p", i in (0, 1, 3, 5)), ("q", i in (0, 2, 3, 6))) if on]
           for i, s in enumerate(leaves)},
    }
    return KripkeModel(["c", *leaves], trans, valuation)


def star_instances():
    """(point, formula text): BOX1 fan-out next to diamonds with several
    target states, and quantifier merges under backtracking."""
    formulas = [
        "[](p | q) & <>p & <>q",
        "[]Er <>(p & q) | <>[]!p",
        "[]<>p & <>Er []q",
        "<>p & <>q & <>!p & [](p | q | Er <>q)",
        "Er (<>p & <>q) & [](q | <>p)",
        "<>(p & Er []q) & <>(!p & <>p) & []Er <>p",
        "Er []p & Er []q & <><>q",
        "[][]p | <>(q & []!q) | [](!q | <>!p)",
        "[](p | q | <>p) & <>(!p & !q) & <>(q & !p)",
        "Er (q | p) & Er <>(!p & !q) & [](p | q | <>p)",
        "[]Er (p | <>p | <>q) & <>(!p & q) & Er <>(p & q)",
        "<>(q & Er <>(p | q)) & Er (<>(!q & <>p) & [](q | <>q))",
    ]
    return [(pt, text) for pt in ("c", "s0", "s3") for text in formulas]


def pinning_instances():
    """(pointed model, formula text): where a state prefix is pinned, and
    which activation covers the successors the boxes at model prefix 1
    speak about.  On u -> v a literal rejected at v follows an entry
    already added at the fresh prefix; at the star's centre quantifier
    children inherit boxes whose successors their parent already covers;
    on the 2-cycle a <-> b every level mixes BOX1 and diamond children at
    states that differ."""
    uv = KripkeModel(["u", "v"], [("u", "v")], {"v": ["p"]})
    uv_formulas = [
        "Er (<>(p & p) & []!p)",
        "Er (<>(p & p) & []p)",
        "<>(p & p) & []!p",
        "Er (<>p & []!p)",
        "Er (<>(p & p) & [](!p | q))",
    ]
    out = [(PointedModel(uv, pt), text) for pt in ("u", "v") for text in uv_formulas]
    star = PointedModel(star_model(), "c")
    for text in (
        "Er <>p & [](q | !q)",
        "Er (<>p & <>!q) & [](q | !q)",
        "Er Er <>p & [](q | !q)",
    ):
        out.append((star, text))
    cycle = PointedModel(KripkeModel(["a", "b"], [("a", "b"), ("b", "a")], {"a": ["p"]}), "a")
    out += [(cycle, "<>[]" * 200 + "p"), (cycle, "<>[]" * 200 + "<>p")]
    return out


def _sat_record(h, f, entries):
    """Hash f's run into h, and its branch entries, in order, into entries."""
    r = sat(f, SolverOptions(trace=True))
    for line in r.trace:
        h.update(line.encode() + b"\n")
    h.update(r.stats.summary().encode() + b"\n")
    h.update(b"SAT\n" if r.satisfiable else b"UNSAT\n")
    if r.satisfiable:
        payload = r.models.to_dict(formula_text=render(f))
        h.update(json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n")
        for e in r.branch.entries:
            entries.update(render_entry(e).encode() + b"\n")
        entries.update(b"\n")


def _check_record(h, a, f):
    engine = _Engine(SolverOptions(trace=True), a)
    got = engine.solve([((1,), (1,), f)], (1,))
    for line in engine.trace:
        h.update(line.encode() + b"\n")
    h.update(engine.stats.summary().encode() + b"\n")
    h.update(b"TRUE\n" if got is not None else b"FALSE\n")


def compute():
    """{name: sha256 hex} for every pinned group."""
    out = {}
    entries = hashlib.sha256()
    for n in range(1, SWEEP_SIZE + 1):
        h = hashlib.sha256()
        for f in gen.formulas_of_size(n, SWEEP_ATOMS):
            _sat_record(h, f, entries)
        out[f"sat_size_{n}"] = h.hexdigest()
    formulas = list(gen.enumerate_formulas(CHECK_SIZE, CHECK_ATOMS))
    hashes = {}
    for a in modelgen.pointed_models(CHECK_STATES, CHECK_ATOMS):
        h = hashes.setdefault(len(a.model.states), hashlib.sha256())
        for f in formulas:
            _check_record(h, a, f)
    for n, h in sorted(hashes.items()):
        out[f"check_states_{n}"] = h.hexdigest()
    h = hashlib.sha256()
    m = star_model()
    for pt, text in star_instances():
        _check_record(h, PointedModel(m, pt), parse(text))
    out["check_star"] = h.hexdigest()
    h = hashlib.sha256()
    for a, text in pinning_instances():
        _check_record(h, a, parse(text))
    out["check_pinning"] = h.hexdigest()
    for name, text in wide_instances():
        h = hashlib.sha256()
        _sat_record(h, parse(text), entries)
        out[f"wide_{name}"] = h.hexdigest()
    h = hashlib.sha256()
    for text in deep_instances():
        _sat_record(h, parse(text), entries)
    out["witness_deep"] = h.hexdigest()
    out["branch_entries"] = entries.hexdigest()
    return out


if __name__ == "__main__":
    got = compute()
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    else:
        print(json.dumps(got, indent=2, sort_keys=True))
