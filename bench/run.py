#!/usr/bin/env python3
"""Closed-loop benchmark of rmlsat's public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``rmlsat`` from ``src/`` next
to this directory and nothing else.  One caller in one process sends the
next operation only when the previous one has returned (no threads, no
worker pool).  The workloads are described in ``workloads.py`` and
``README.md``.

``--trace 0`` measures the end-to-end metrics for S seconds, then checks
every output against references that do not use the procedure under
test.  Its times are scaled to a reference machine speed, as
``calibrate.py`` describes.  ``--trace 1`` runs S/2 seconds untraced and
S/2 seconds with spans around every public call, then an exact counting
pass, and prints the per-layer metrics; the spans are written to
``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output was right, 1 when one was wrong, and 2 when the
benchmark could not run (for example, ``src/rmlsat`` is missing).
"""

import os
import sys

# String hashes are randomised per process, and the solver's choice order
# follows set iteration order, so one instance can cost 1.7 times as much
# in one process as in another.  Every run and set-up uses one hash seed.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, "PYTHONHASHSEED": "0"})

from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402  standard library only; its table is built before T0

T0 = perf_counter()  # process start, as near as the script can see it

import argparse  # noqa: E402
from array import array  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Enforced here because SolverOptions.time_budget is only checked when an
# activation starts and oracle_sat has no time budget at all.
OP_LIMIT_S = 5.0
SETUP_RUNS = 7  # set-ups measured per run, each in a fresh interpreter
TAIL_LADDER = (99, 95, 90, 75, 50)
LATENCY_SLOTS = 1 << 19  # preallocated latency slots per timed loop
TAIL_MIN_BEYOND = 10


class OpTimeout(Exception):
    """An operation ran past the benchmark's per-operation limit."""


def _on_alarm(signum, frame):
    raise OpTimeout("past the per-operation limit")


def run_one(op, x, limit):
    """(seconds, output, exception) for one operation; any exception, the
    limit's OpTimeout included, makes the operation failed, not a verdict."""
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            out = op(x)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:
        return perf_counter() - t0, None, exc
    return perf_counter() - t0, out, None


class Loop:
    def __init__(self):
        self.latencies = array("d", bytes(8 * LATENCY_SLOTS))
        # Output of each operation, as 1 + its index among the distinct
        # outputs, or 0 if the operation failed.  An array, not a list, so
        # the garbage collector never has to walk it.
        self.results = array("l", bytes(8 * LATENCY_SLOTS))
        self.outputs = {}  # input index -> output of its first completed operation
        self.unstable = []  # input indices whose output changed on a repeat
        self.peak_rss_mb = 0.0
        self.failures = []  # (input index, "ExceptionName: message")
        self.elapsed = 0.0
        self.scaled = None  # latencies in reference-speed seconds
        self.reference_s = []  # the calibration samples taken in the loop
        self.pauses = []  # (raw, scaled) result of each pause


def closed_loop(op, inputs, seconds, limit=OP_LIMIT_S, after=None, pauses=()):
    """Cycle through inputs, one operation at a time, until `seconds` pass
    (at least one operation).  `after(x)` runs after each completed
    operation, outside its latency.

    The loop's own memory does not grow with the number of operations
    (up to LATENCY_SLOTS), so peak RSS does not move with throughput:
    outputs go to preallocated slots, and equal outputs are kept once.
    Calibration samples are taken between operations, every
    calibrate.EVERY_S seconds.  Each of `pauses` is called once, at evenly
    spaced times, between a sample before and a sample after it; its
    result, scaled like a latency, goes to ``res.pauses``."""
    res = Loop()
    lat = res.latencies
    results = res.results
    codes = {}  # distinct output -> its code in results
    n = len(inputs)
    k = 0
    track = calibrate.Track()
    track.take(0)
    start = perf_counter()
    deadline = start + seconds
    next_sample = start + calibrate.EVERY_S
    pause_at = [start + seconds * (j + 0.5) / len(pauses) for j in range(len(pauses))]
    paused = []  # (raw result, index of the sample before it)
    while True:
        i = k % n
        dt, out, err = run_one(op, inputs[i], limit)
        if k < LATENCY_SLOTS:
            lat[k] = dt
        else:
            lat.append(dt)
            results.append(0)
        if err is None:
            code = codes.get(out)
            if code is None:
                code = codes[out] = len(codes) + 1
            results[k] = code
            if after is not None:
                after(inputs[i])
        else:
            res.failures.append((i, f"{type(err).__name__}: {err}"))
        k += 1
        now = perf_counter()
        if now >= deadline:
            break
        if len(paused) < len(pauses) and now >= pause_at[len(paused)]:
            track.take(k)
            paused.append((pauses[len(paused)](), len(track.samples) - 1))
            track.take(k)
            next_sample = perf_counter() + calibrate.EVERY_S
        elif now >= next_sample:
            track.take(k)
            next_sample = perf_counter() + calibrate.EVERY_S
    res.elapsed = perf_counter() - start
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(paused) < len(pauses):  # those that the deadline cut off
        track.take(k)
        paused.append((pauses[len(paused)](), len(track.samples) - 1))
    track.take(k)
    del lat[k:]
    del results[k:]
    distinct = [None, *codes]
    for j, code in enumerate(results):
        if code and res.outputs.setdefault(j % n, distinct[code]) != distinct[code]:
            res.unstable.append(j % n)
    res.scaled = track.scale(lat)
    res.reference_s = track.samples
    res.pauses = [(raw, raw * track.factor_after(j)) for raw, j in paused]
    return res


def tail_percentile(latencies):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples above it, by nearest rank; the maximum when
    there are too few samples for any."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, xs[rank - 1]
    return 100, xs[-1]


def check_outputs(wl, call, *loops):
    """Errors for outputs that changed on a repeat, then the workload's own
    checks of every distinct output."""
    errors = []
    outputs = {}
    for loop in loops:
        changed = loop.unstable + [
            i for i, out in loop.outputs.items() if outputs.setdefault(i, out) != out
        ]
        errors += [f"{wl.inputs[i]!r:.80}: output changed on a repeat" for i in changed]
    return errors + call("verify", wl.verify, outputs, call)


def self_check():
    """Operations forced to fail must be counted as failed, never as verdicts."""
    from rmlsat import SolverOptions, parse, sat

    errors = []
    budget = closed_loop(
        lambda text: sat(parse(text), SolverOptions(node_budget=1)).satisfiable, ["<>p & <>q"], 0
    )
    if budget.outputs or [f.split(":")[0] for _, f in budget.failures] != ["ResourceLimit"]:
        errors.append(f"self-check: node_budget=1 not counted as failed: {budget.failures}")

    def spin(_):
        while True:
            pass

    stuck = closed_loop(spin, [None], 0, limit=0.01)
    if stuck.outputs or [f.split(":")[0] for _, f in stuck.failures] != ["OpTimeout"]:
        errors.append(f"self-check: a stuck operation was not cut at the limit: {stuck.failures}")
    return errors


def fail(message):
    """Stop without a result: the benchmark could not run."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_workloads():
    """The workloads module, with rmlsat imported from this checkout's src/."""
    sys.path.insert(0, SRC)
    try:
        import rmlsat
    except ImportError as exc:
        fail(f"cannot import rmlsat from {SRC}: {exc}")
    where = os.path.abspath(rmlsat.__file__)
    if not where.startswith(SRC + os.sep):
        fail(f"rmlsat was imported from {where}, not from {SRC}")
    import workloads

    return workloads


def setup_in_child(args):
    """Seconds of one set-up in a fresh interpreter.  The child may write
    bytecode caches, so that after a first child every set-up reads them,
    as an installed package does."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail(f"set-up child failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(args, wl_cls):
    from spans import direct

    wl = wl_cls(args.seed, direct)
    gc.freeze()
    setup_in_child(args)  # fills the bytecode caches; not counted
    # The measured set-ups pause the timed phase at evenly spaced times,
    # so they see the same mix of machine speeds as the operations.
    set_up = functools.partial(setup_in_child, args)
    loop = closed_loop(
        functools.partial(wl.op, direct), wl.inputs, args.seconds, pauses=[set_up] * SETUP_RUNS
    )
    errors = check_outputs(wl, direct, loop) + self_check()
    reference = statistics.median(loop.reference_s)

    attempted = len(loop.latencies)
    failed = len(loop.failures)
    completed = attempted - failed
    pct, tail = tail_percentile(loop.scaled)
    raw_pct, raw_tail = tail_percentile(loop.latencies)
    metrics = {
        "ops_per_s": (completed / math.fsum(loop.scaled), "1/s"),
        "latency_p50_ms": (statistics.median(loop.scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "completed_share": (completed / attempted, "share"),
        "setup_s": (statistics.median(scaled for _, scaled in loop.pauses), "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "distinct_inputs": len(wl.inputs),
        "timed_s": loop.elapsed,
        "failed_share": failed / attempted,
        "latency_tail": {"percentile": pct, "samples": attempted},
        "setup_runs_s": [scaled for _, scaled in loop.pauses],
        "reference_s": {
            "ref": calibrate.REF_S,
            "alpha": calibrate.ALPHA,
            "median": reference,
            "samples": len(loop.reference_s),
        },
        "raw": {
            "ops_per_s": completed / math.fsum(loop.latencies),
            "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
            "latency_tail_ms": raw_tail * 1e3,
            "latency_tail_percentile": raw_pct,
            "setup_s": statistics.median(raw for raw, _ in loop.pauses),
        },
        "op_limit_s": OP_LIMIT_S,
        "first_failures": loop.failures[:5],
        "wrong_outputs": len(errors),
    }
    return metrics, detail, attempted, failed, errors


def traced(args, wl_cls):
    from spans import SpanRecorder, direct
    from workloads import Tally

    rec = SpanRecorder()
    wl = rec.call("setup", wl_cls, args.seed, rec.call)
    gc.freeze()
    plain = closed_loop(functools.partial(wl.op, direct), wl.inputs, args.seconds / 2)

    def op(x):
        rec.op_id += 1
        return rec.call("op", wl.op, rec.call, x)

    def probe(x):
        rec.call("probe", wl.probe, rec.call, x)

    spanned = closed_loop(op, wl.inputs, args.seconds / 2, after=probe)
    rec.op_id = -1

    tally = Tally()
    for x in wl.inputs[: wl.count_prefix]:
        wl.count(x, tally)
    errors = check_outputs(wl, rec.call, plain, spanned) + self_check()

    st = rec.self_times()

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def own(*names):
        return sum(st.get(n, (0, 0.0, 0.0))[2] for n in names)

    def per_call(*names):
        n = sum(calls(x) for x in names)
        return own(*names) / n if n else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    op_total = st.get("op", (0, 0.0, 0.0))[1]
    sat_total = own("solver.sat")
    common = min(len(plain.scaled), len(spanned.scaled))
    untraced_mean = statistics.fmean(plain.scaled[:common])
    overhead = statistics.fmean(spanned.scaled[:common]) - untraced_mean
    s = tally.solver
    rules = tally.solver_rules.counts
    mc = tally.check_rules.counts
    m = {
        "formula.parse_s": (per_call("formula.parse"), "s"),
        "formula.parse_share": (share(own("formula.parse"), op_total), "share"),
        "solver.sat_s": (per_call("solver.sat"), "s"),
        "solver.search_s": (per_call("solver.run_activation"), "s"),
        "solver.search_share": (share(own("solver.run_activation"), sat_total), "share"),
        "solver.activations": (s["activations"], "count"),
        "solver.backtracks": (s["backtracks"], "count"),
        "solver.backtracks_per_activation": (share(s["backtracks"], s["activations"]), "ratio"),
        "solver.max_p": (s["max_p"], "count"),
        "solver.max_depth": (s["max_depth"], "count"),
    }
    for r in ("AND", "OR", "L", "DIA", "BOX", "EXR"):
        m[f"solver.rule.{r}"] = (rules.get(r, 0), "count")
    for r in ("clash", "literal"):
        m[f"solver.reject.{r}"] = (rules.get(f"REJECT.{r}", 0), "count")
    m.update({
        "tableau.extract_s": (per_call("tableau.extract_models"), "s"),
        "tableau.complete_s": (per_call("tableau.is_complete"), "s"),
        "tableau.extract_share": (share(own("tableau.extract_models"), sat_total), "share"),
        "tableau.branch_entries": (tally.branch_entries, "count"),
        "tableau.chain_models": (tally.chain_models, "count"),
        "tableau.witness_json_s": (per_call("tableau.witness_json"), "s"),
        "modelcheck.check_s": (per_call("modelcheck.check"), "s"),
    })
    for r in ("DIA", "BOX1", "EXR", "OR"):
        m[f"modelcheck.rule.{r}"] = (mc.get(r, 0), "count")
    for r in ("literal", "clash"):
        m[f"modelcheck.reject.{r}"] = (mc.get(f"REJECT.{r}", 0), "count")
    m.update({
        "oracle.sat_s": (per_call("oracle.sat_q", "oracle.sat_qf"), "s"),
        "oracle.sat_qf_s": (per_call("oracle.sat_qf"), "s"),
        "oracle.sat_q_s": (per_call("oracle.sat_q"), "s"),
        "oracle.sat_q_calls": (tally.oracle_q_calls, "count"),
        "oracle.eval_s": (per_call("oracle.eval"), "s"),
        "gen.generate_s": (per_call("gen.generate"), "s"),
        "kripke.build_s": (own("kripke.build"), "s"),
        "bench.op_self_s": (per_call("op"), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (share(overhead, untraced_mean), "share"),
    })

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.tsv")
    rec.write_tsv(spans_path)
    attempted = len(plain.latencies) + len(spanned.latencies)
    failed = len(plain.failures) + len(spanned.failures)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "untraced_ops": len(plain.latencies),
        "traced_ops": len(spanned.latencies),
        "counted_inputs": min(wl.count_prefix, len(wl.inputs)),
        "spans": len(rec.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "self_time_s": {name: v[2] for name, v in sorted(st.items())},
        "first_failures": (plain.failures + spanned.failures)[:5],
        "wrong_outputs": len(errors),
    }
    return m, detail, attempted, failed, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_workloads()
    wl_cls = workloads.WORKLOADS.get(args.workload)
    if wl_cls is None:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.setup_only:
        from spans import direct

        wl_cls(args.seed, direct)
        print(json.dumps({"setup_s": perf_counter() - T0}))
        return 0

    if args.trace:
        metrics, detail, attempted, failed, errors = traced(args, wl_cls)
    else:
        metrics, detail, attempted, failed, errors = end_to_end(args, wl_cls)
    for e in errors[:10]:
        print(f"wrong: {e}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
