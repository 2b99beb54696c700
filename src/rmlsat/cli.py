"""Command-line front-end.

Subcommands:

    sat <formula|@file>           SAT/UNSAT via the tableau solver
    check --model m.json --formula <f>   TRUE/FALSE on a pointed model
                                  (both take --node-budget N, the most
                                  activations, and --time-budget S, seconds)
    oracle-sat <formula|@file>    brute-force satisfiability verdict
    oracle-check --model m.json <f>      brute-force truth verdict
                                  (both take --time-budget S)
    fuzz --size N --atoms K (--count all | --count C --seed S)
                                  solver vs oracle agreement sweep
                                  (--time-budget S per formula, for the
                                  solver and the oracle each)
    reduce-k <psi>                emit the model-checking instance for a
                                  variable-free formula (top/bot grammar)
    export-dot --model m.json     DOT rendering of a model file

`reduce-k` reads its formula with the main formula parser but admits
only the tokens `top`, `bot`, `<>`, `[]`, `&`, `|` and parentheses.

Exit codes: 0 SAT/TRUE/no divergence, 1 UNSAT/FALSE/divergence found,
2 usage or parse error (also a universal quantifier `Ar`, which every
decision procedure rejects with FragmentViolation), 3 resource limit
(an exhausted budget, or running out of memory), 4 internal error (any
other exception, such as RecursionError in `oracle-check` on a few
thousand nested modal operators; the traceback goes to stderr), 141
(128 + SIGPIPE) when the reader of stdout closed it early, as
`| head -1` does.  `sat` and `check` run their search from
explicit stacks, so nesting depth alone does not make them exit 4.
"""

import argparse
import functools
import json
import os
import sys

from . import gen, modelcheck, oracle, solver
from .errors import ResourceLimit
from .formula import FragmentViolation, ParseError, parse, render
from .kripke import StateNotFound, model_from_dict, model_to_dict, pointed_from_dict, to_dot

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


class _UsageError(Exception):
    pass


def _read_formula(text):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read formula file: {exc}") from exc
    try:
        f = parse(text)
    except ParseError as exc:
        raise _UsageError(f"parse error: {exc}") from exc
    return f


def _read_model(path, from_dict=pointed_from_dict):
    """Read a model file with from_dict; any failure to read or parse it is
    a usage error (JSON and UTF-8 decode errors are ValueErrors)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_dict(json.load(fh))
    except (OSError, ValueError, StateNotFound) as exc:
        raise _UsageError(f"cannot load model: {exc}") from exc


def _positive(flag, value):
    if value is not None and not value > 0:  # also rejects NaN
        raise _UsageError(f"{flag} must be positive")
    return value


def _solver_options(args):
    _positive("--node-budget", args.node_budget)
    _positive("--time-budget", args.time_budget)
    opts = solver.SolverOptions(
        trace_out=sys.stdout if args.trace else None,
        time_budget=args.time_budget,
    )
    if args.node_budget is not None:
        opts.node_budget = args.node_budget
    return opts


def _cmd_sat(args):
    f = _read_formula(args.formula)
    result = solver.sat(f, _solver_options(args))
    if args.stats:
        print(result.stats.summary())
    if result.satisfiable:
        if args.witness:
            payload = result.models.to_dict(formula_text=render(f))
            try:
                with open(args.witness, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                raise _UsageError(f"cannot write witness: {exc}") from exc
        print("SAT")
        return EXIT_YES
    print("UNSAT")
    return EXIT_NO


def _cmd_check(args):
    f = _read_formula(args.formula)
    a = _read_model(args.model)
    verdict = modelcheck.check(a, f, _solver_options(args))
    print("TRUE" if verdict else "FALSE")
    return EXIT_YES if verdict else EXIT_NO


def _cmd_oracle_sat(args):
    f = _read_formula(args.formula)
    verdict = oracle.oracle_sat(f, time_budget=_positive("--time-budget", args.time_budget))
    print("SAT" if verdict else "UNSAT")
    return EXIT_YES if verdict else EXIT_NO


def _cmd_oracle_check(args):
    f = _read_formula(args.formula)
    a = _read_model(args.model)
    verdict = oracle.oracle_eval(a, f, time_budget=_positive("--time-budget", args.time_budget))
    print("TRUE" if verdict else "FALSE")
    return EXIT_YES if verdict else EXIT_NO


def _fuzz_one(text, time_budget=None):
    f = parse(text)
    try:
        got = solver.sat(f, solver.SolverOptions(time_budget=time_budget)).satisfiable
        want = oracle.oracle_sat(f, time_budget=time_budget)
    except ResourceLimit:
        return (text, None, None, True)
    return (text, got, want, False)


_FUZZ_ATOMS = "pqrstuvwxy"
_FUZZ_MAX_JOBS = 64


def _cmd_fuzz(args):
    if args.size < 1:
        raise _UsageError("--size must be at least 1")
    if not 1 <= args.atoms <= len(_FUZZ_ATOMS):
        raise _UsageError(f"--atoms must be between 1 and {len(_FUZZ_ATOMS)}")
    if not 1 <= args.jobs <= _FUZZ_MAX_JOBS:
        raise _UsageError(f"--jobs must be between 1 and {_FUZZ_MAX_JOBS}")
    one = functools.partial(_fuzz_one, time_budget=_positive("--time-budget", args.time_budget))
    names = tuple(_FUZZ_ATOMS[: args.atoms])
    if args.count == "all":
        formulas = list(gen.enumerate_formulas(args.size, names))
    else:
        try:
            count = int(args.count)
        except ValueError:
            raise _UsageError("--count takes a number or 'all'") from None
        if count < 0:
            raise _UsageError("--count must not be negative")
        import random

        rng = random.Random(args.seed)
        formulas = [
            gen.random_formula(rng, rng.randint(1, args.size), names)
            for _ in range(count)
        ]
    texts = [render(f) for f in formulas]
    if args.jobs > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(args.jobs) as pool:
            rows = pool.map(one, texts, chunksize=64)
    else:
        rows = [one(t) for t in texts]
    divergences = 0
    limited = 0
    for text, got, want, hit_limit in rows:
        if hit_limit:
            limited += 1
            continue
        if got != want:
            divergences += 1
            if divergences == 1:
                print(f"divergence: {text} solver={'SAT' if got else 'UNSAT'}"
                      f" oracle={'SAT' if want else 'UNSAT'}")
    print(f"checked {len(rows)} formulas: {divergences} divergences"
          + (f" ({limited} resource-limited)" if limited else ""))
    if divergences:
        return EXIT_NO
    if limited:
        return EXIT_LIMIT
    return EXIT_YES


def _cmd_reduce_k(args):
    try:
        psi = modelcheck.parse_const(args.formula)
        pointed, f = modelcheck.reduce_k_sat(psi)
    except (ParseError, modelcheck.InvalidInput) as exc:
        raise _UsageError(str(exc)) from exc
    payload = {
        "model": model_to_dict(pointed.model, pointed.point),
        "formula": render(f),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_YES


def _cmd_export_dot(args):
    model, point = _read_model(args.model, model_from_dict)
    sys.stdout.write(to_dot(model, point))
    return EXIT_YES


def _add_budget_arguments(p):
    p.add_argument(
        "--node-budget", type=int, metavar="N",
        help="stop with exit 3 after N activations (default 1,000,000)",
    )
    _add_time_budget(p)


def _add_time_budget(p, help="stop with exit 3 after S seconds of search (default unlimited)"):
    p.add_argument("--time-budget", type=float, metavar="S", help=help)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rmlsat",
        description="Decision procedures for modal logic with existential refinement quantifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sat", help="decide satisfiability")
    p.add_argument("formula", help="formula text, or @file")
    p.add_argument("--witness", metavar="OUT.json", help="write the witness model chain")
    p.add_argument("--trace", action="store_true", help="stream rule applications")
    p.add_argument("--stats", action="store_true", help="print search statistics")
    _add_budget_arguments(p)
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("check", help="model-check a formula on a pointed model")
    p.add_argument("--model", required=True, metavar="M.json")
    p.add_argument("--formula", required=True, help="formula text, or @file")
    p.add_argument("--trace", action="store_true")
    _add_budget_arguments(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle-sat", help="brute-force satisfiability")
    p.add_argument("formula", help="formula text, or @file")
    _add_time_budget(p)
    p.set_defaults(func=_cmd_oracle_sat)

    p = sub.add_parser("oracle-check", help="brute-force model checking")
    p.add_argument("--model", required=True, metavar="M.json")
    p.add_argument("formula", help="formula text, or @file")
    _add_time_budget(p)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("fuzz", help="compare solver and oracle verdicts")
    p.add_argument("--size", type=int, default=5, help="maximum formula size, at least 1")
    p.add_argument("--atoms", type=int, default=2, help="number of distinct atoms, 1 to 10")
    p.add_argument("--count", default="all", help="'all' or a number of random formulas")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=1,
        help=f"parallel worker processes, 1 to {_FUZZ_MAX_JOBS}",
    )
    _add_time_budget(
        p,
        help="seconds per formula, for the solver and the oracle each; a formula"
        " that runs out counts as resource-limited (default unlimited)",
    )
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("reduce-k", help="emit the model-checking instance for a variable-free formula")
    p.add_argument("formula", help="constant-grammar formula over top/bot")
    p.set_defaults(func=_cmd_reduce_k)

    p = sub.add_parser("export-dot", help="render a model file as DOT")
    p.add_argument("--model", required=True, metavar="M.json")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (_UsageError, ParseError, FragmentViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimit, MemoryError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"resource limit: {reason}", file=sys.stderr)
        return EXIT_LIMIT
    except BrokenPipeError:
        # the rest of the output goes to os.devnull, so the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except Exception:
        import traceback

        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
