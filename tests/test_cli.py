import io
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rmlsat import cli, solver
from rmlsat.cli import main
from rmlsat.errors import ResourceLimit
from rmlsat.kripke import pointed_from_dict, verify_refinement_mapping
from rmlsat.tableau import ModelChain


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_model(tmp_path, name="m.json", **kw):
    d = {
        "states": kw.get("states", ["s"]),
        "transitions": kw.get("transitions", []),
        "valuation": kw.get("valuation", {}),
    }
    if "point" in kw:
        d["point"] = kw["point"]
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def model_readers(mpath):
    """The argv of every command that reads a model file."""
    return [
        ["check", "--model", mpath, "--formula", "p"],
        ["oracle-check", "--model", mpath, "p"],
        ["export-dot", "--model", mpath],
    ]


class TestSat:
    def test_unsat_exit_one(self):
        code, out, _ = run(["sat", "p & !p"])
        assert code == 1
        assert out == "UNSAT\n"

    def test_sat_with_witness(self, tmp_path):
        wpath = tmp_path / "w.json"
        code, out, _ = run(["sat", "Er p", "--witness", str(wpath)])
        assert code == 0
        assert out == "SAT\n"
        payload = json.loads(wpath.read_text())
        assert len(payload["models"]) == 2
        chain = ModelChain.from_dict(payload)
        for obj in payload["models"]:
            pointed = pointed_from_dict(obj)
            assert len(pointed.model.states) == 1
        for parent, child, rel in chain.edges():
            assert verify_refinement_mapping(parent.model, child.model, rel)

    def test_formula_from_file(self, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text("p | !p\n")
        code, out, _ = run(["sat", "@" + str(fpath)])
        assert code == 0 and out == "SAT\n"

    @pytest.mark.parametrize("command", ["sat", "check", "oracle-sat"])
    def test_formula_file_not_utf8_exit_two(self, tmp_path, command):
        fpath = tmp_path / "f.txt"
        fpath.write_bytes(b"\xff\xfe p")
        formula = "@" + str(fpath)
        if command == "check":
            argv = ["check", "--model", write_model(tmp_path, point="s"), "--formula", formula]
        else:
            argv = [command, formula]
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read formula file: ")
        assert "Traceback" not in err

    def test_parse_error_exit_two(self):
        code, _, err = run(["sat", "p &"])
        assert code == 2
        assert "error" in err

    def test_stats_and_trace(self):
        code, out, _ = run(["sat", "p & q", "--stats", "--trace"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("AND (1,1) (p & q) => ")
        assert any(line.startswith("activations=") for line in lines)
        assert lines[-1] == "SAT"

    def test_unwritable_witness_exit_two(self, tmp_path):
        wpath = tmp_path / "missing" / "w.json"
        code, out, err = run(["sat", "p", "--witness", str(wpath)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write witness: ")
        assert "Traceback" not in err

    def test_wide_atom_conjunction(self):
        xs = " & ".join(f"x_{i}" for i in range(3000))
        assert run(["sat", xs]) == (0, "SAT\n", "")
        assert run(["sat", xs + " & !x_7"]) == (1, "UNSAT\n", "")

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_wide_diamond_conjunction(self, n):
        dias = " & ".join(f"<>x_{i}" for i in range(n))
        assert run(["sat", dias + " & []q"]) == (0, "SAT\n", "")
        assert run(["sat", dias + f" & []!x_{n - 7}"]) == (1, "UNSAT\n", "")

    def test_wide_disjunction_conjunction(self, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text(" & ".join(f"(a_{i} | b_{i})" for i in range(3000)))
        assert run(["sat", "@" + str(fpath)]) == (0, "SAT\n", "")

    def test_deep_diamond_chain_never_unsat(self):
        # nesting across activations costs no stack, so deep chains are
        # decided: never exit 4 (RecursionError), never a false UNSAT
        for unit, depth in (("<>", 250), ("<>", 400), ("Er <>", 200), ("Er <>", 400)):
            assert run(["sat", unit * depth + "p"]) == (0, "SAT\n", "")
        text = "<>" * 3000 + "p & " + "[]" * 3000 + "!p"
        assert run(["sat", text]) == (1, "UNSAT\n", "")

    def test_deeply_parenthesized_atom(self, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text("(" * 10_000 + "p" + ")" * 10_000)
        assert run(["sat", "@" + str(fpath)]) == (0, "SAT\n", "")

    def test_deep_right_nested_conjunction(self, tmp_path):
        n = 3000
        text = "".join(f"(x_{i} & " for i in range(n - 1)) + f"x_{n - 1}" + ")" * (n - 1)
        wpath = tmp_path / "w.json"
        assert run(["sat", text, "--witness", str(wpath)]) == (0, "SAT\n", "")
        assert json.loads(wpath.read_text())["formula"] == text

    def test_internal_error_exit_four(self, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(solver, "sat", crash)
        code, out, err = run(["sat", "p"])
        assert code == 4
        assert out == ""
        assert "Traceback" in err and "RuntimeError: boom" in err


    def test_out_of_memory_exit_three(self, monkeypatch, tmp_path):
        def exhaust(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(solver, "sat", exhaust)
        monkeypatch.setattr(cli.modelcheck, "check", exhaust)
        model = write_model(tmp_path, point="s")
        for argv in (["sat", "p"], ["check", "--model", model, "--formula", "p"]):
            assert run(argv) == (3, "", "resource limit: out of memory\n")


def cnf_core(names):
    """Every sign pattern over the names as clauses: unsatisfiable."""
    return " & ".join(
        "(" + " | ".join(("!" if neg else "") + v for v, neg in zip(names, signs)) + ")"
        for signs in itertools.product((False, True), repeat=len(names))
    )


def within_ten_seconds(fn):
    """fn() under a SIGALRM guard, so a budget that never fires fails the
    test instead of hanging it."""

    def hung(signum, frame):
        raise AssertionError("time budget did not fire within 10 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        start = time.monotonic()
        result = fn()
        assert time.monotonic() - start < 2.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return result


class TestBudgets:
    # Er <>(core) takes three activations: the root, its quantifier child
    # and that child's diamond child, where the 2,401 or-backtracks happen
    CORE8 = "Er <>(" + cnf_core("abc") + ")"

    def test_node_budget_exhausted_exit_three(self):
        code, out, err = run(["sat", self.CORE8, "--node-budget", "2"])
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: activation budget exhausted (2)")
        assert run(["sat", self.CORE8, "--node-budget", "3"]) == (1, "UNSAT\n", "")

    def test_check_node_budget(self, tmp_path):
        model = write_model(
            tmp_path, transitions=[["s", "s"]], valuation={"s": ["p"]}, point="s"
        )
        argv = ["check", "--model", model, "--formula", "<>p"]
        assert run(argv) == (0, "TRUE\n", "")
        assert run(argv + ["--node-budget", "1"])[0] == 3

    @pytest.mark.parametrize("command", ["sat", "check"])
    def test_time_budget_exhausted_exit_three(self, tmp_path, command):
        # without a budget, sat runs for minutes on the 16-clause core over
        # four atoms, and check for more than 20 s on the 32-clause one
        if command == "sat":
            argv = ["sat", cnf_core("abcd")]
        else:
            model = write_model(tmp_path, point="s")
            argv = ["check", "--model", model, "--formula", cnf_core("abcde")]
        code, out, err = within_ten_seconds(lambda: run(argv + ["--time-budget", "0.2"]))
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: time budget exhausted")

    @pytest.mark.parametrize("command", ["sat", "check"])
    @pytest.mark.parametrize(
        "budget",
        [["--node-budget", "0"], ["--node-budget", "-3"], ["--time-budget", "0"],
         ["--time-budget", "-1.5"], ["--time-budget", "nan"]],
        ids=["node-0", "node-negative", "time-0", "time-negative", "time-nan"],
    )
    def test_non_positive_budget_exit_two(self, tmp_path, command, budget):
        if command == "sat":
            argv = ["sat", "p"]
        else:
            argv = ["check", "--model", write_model(tmp_path, point="s"), "--formula", "p"]
        code, out, err = run(argv + budget)
        assert (code, out) == (2, "")
        assert err == f"error: {budget[0]} must be positive\n"


class TestCheck:
    def test_true_false(self, tmp_path):
        mpath = write_model(tmp_path, valuation={"s": ["p"]}, point="s")
        code, out, _ = run(["check", "--model", mpath, "--formula", "p"])
        assert (code, out) == (0, "TRUE\n")
        code, out, _ = run(["check", "--model", mpath, "--formula", "!p"])
        assert (code, out) == (1, "FALSE\n")

    def test_missing_point_exit_two(self, tmp_path):
        mpath = write_model(tmp_path)
        code, _, err = run(["check", "--model", mpath, "--formula", "p"])
        assert code == 2

    @pytest.mark.parametrize(
        "shape",
        [
            {"states": 5},
            {"point": ["s"]},
            {"transitions": [["s", ["s"]]]},
            {"valuation": {"s": "pq"}},
            None,
        ],
        ids=["states", "point", "transitions", "valuation", "not-json"],
    )
    def test_malformed_model_exit_two(self, tmp_path, shape):
        if shape is None:
            mpath = tmp_path / "m.json"
            mpath.write_text("{not json")
        else:
            mpath = write_model(tmp_path, **{"point": "s", **shape})
        for argv in model_readers(str(mpath)):
            code, out, err = run(argv)
            assert (code, out) == (2, ""), argv
            assert "cannot load model" in err
            if shape is not None:
                assert "malformed model object" in err

    def test_wide_box_fan_out(self, tmp_path):
        succ = [f"t_{i}" for i in range(2000)]
        valuation = {t: ["p"] for t in succ}
        mpath = write_model(
            tmp_path, states=["r", *succ], transitions=[["r", t] for t in succ],
            valuation=valuation, point="r",
        )
        assert run(["check", "--model", mpath, "--formula", "[]p"]) == (0, "TRUE\n", "")
        assert run(["check", "--model", mpath, "--formula", "[]p & <>!p"]) == (1, "FALSE\n", "")

    def test_deep_nesting_on_a_self_loop(self, tmp_path):
        mpath = write_model(
            tmp_path, transitions=[["s", "s"]], valuation={"s": ["p"]}, point="s"
        )
        assert run(["check", "--model", mpath, "--formula", "[]" * 2000 + "p"]) == (0, "TRUE\n", "")
        assert run(["check", "--model", mpath, "--formula", "<>" * 2000 + "!p"]) == (1, "FALSE\n", "")


class TestOracle:
    def test_oracle_sat(self):
        assert run(["oracle-sat", "p | !p"])[:2] == (0, "SAT\n")
        assert run(["oracle-sat", "<>p & []!p"])[:2] == (1, "UNSAT\n")

    def test_oracle_check(self, tmp_path):
        mpath = write_model(
            tmp_path, transitions=[["s", "s"]], valuation={}, point="s"
        )
        assert run(["oracle-check", "--model", mpath, "Er [](z & !z)"])[:2] == (
            0,
            "TRUE\n",
        )
        assert run(["oracle-check", "--model", mpath, "Er <> p"])[:2] == (1, "FALSE\n")

    @pytest.mark.parametrize("shape", ["right", "left"])
    def test_oracle_check_deep_conjunction(self, tmp_path, shape):
        n = 3000
        if shape == "right":
            text = "".join(f"(x_{i} & " for i in range(n - 1)) + f"x_{n - 1}" + ")" * (n - 1)
        else:
            text = " & ".join(f"x_{i}" for i in range(n))
        labels = [f"x_{i}" for i in range(n)]
        fpath = tmp_path / "f.txt"
        fpath.write_text(text)
        for valuation, want in (({"s": labels}, (0, "TRUE\n")), ({"s": labels[1:]}, (1, "FALSE\n"))):
            mpath = write_model(tmp_path, valuation=valuation, point="s")
            assert run(["oracle-check", "--model", mpath, "@" + str(fpath)])[:2] == want
            assert run(["check", "--model", mpath, "--formula", "@" + str(fpath)])[:2] == want

    def test_oracle_check_deep_quantifier_free_body(self, tmp_path):
        # the restriction pass walks (state, remaining depth) pairs, 2,001
        # levels deep here, without recursion, so neither input exits 4
        mpath = write_model(
            tmp_path, transitions=[["s", "s"]], valuation={"s": ["p"]}, point="s"
        )
        n = 2000
        deep = "Er " + "<>" * n + "p"
        assert run(["oracle-check", "--model", mpath, deep]) == (0, "TRUE\n", "")
        clash = "Er (" + "<>" * n + "p & " + "[]" * n + "!p)"
        assert run(["oracle-check", "--model", mpath, clash]) == (1, "FALSE\n", "")

    @pytest.mark.parametrize("command", ["oracle-sat", "oracle-check"])
    def test_time_budget_exhausted_exit_three(self, tmp_path, command):
        # without a budget, oracle-sat runs past 30 s on the first, and
        # oracle-check takes about half a minute to hit its restriction cap
        if command == "oracle-sat":
            argv = ["oracle-sat", "<><><>Er <>(!p & p)"]
        else:
            model = write_model(
                tmp_path,
                states=["a", "b", "c"],
                transitions=[[x, y] for x in "abc" for y in "abc"],
                valuation={"a": ["p"]},
                point="a",
            )
            argv = ["oracle-check", "--model", model, "Er (Er p & <><><><>(p & !p))"]
        code, out, err = within_ten_seconds(lambda: run(argv + ["--time-budget", "0.2"]))
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: time budget exhausted")

    @pytest.mark.parametrize("command", ["oracle-sat", "oracle-check", "fuzz"])
    @pytest.mark.parametrize("budget", ["0", "-1.5", "nan"])
    def test_non_positive_time_budget_exit_two(self, tmp_path, command, budget):
        argv = {
            "oracle-sat": ["oracle-sat", "p"],
            "oracle-check": ["oracle-check", "--model", write_model(tmp_path, point="s"), "p"],
            "fuzz": ["fuzz", "--size", "2", "--count", "3"],
        }[command]
        code, out, err = run(argv + ["--time-budget", budget])
        assert (code, out) == (2, "")
        assert err == "error: --time-budget must be positive\n"


class TestFuzz:
    def test_exhaustive_no_divergence(self):
        code, out, _ = run(["fuzz", "--size", "4", "--atoms", "2", "--count", "all"])
        assert code == 0
        assert "0 divergences" in out

    def test_random_seeded(self):
        code, out, _ = run(
            ["fuzz", "--size", "6", "--atoms", "2", "--count", "150", "--seed", "9"]
        )
        assert code == 0
        assert "checked 150 formulas: 0 divergences" in out

    def test_parallel_jobs(self):
        code, out, _ = run(
            ["fuzz", "--size", "5", "--atoms", "1", "--count", "60", "--seed", "3",
             "--jobs", "2"]
        )
        assert code == 0
        assert "0 divergences" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--size", "0", "--count", "5"],
            ["--atoms", "0"],
            ["--atoms", "12"],
            ["--count", "-1"],
        ],
        ids=["size-0", "atoms-0", "atoms-12", "count-negative"],
    )
    def test_bad_arguments_exit_two(self, argv):
        code, out, err = run(["fuzz"] + argv)
        assert (code, out) == (2, "")
        assert "error: --" in err

    def test_time_budget_reaches_solver_and_oracle(self, monkeypatch):
        seen = []
        real_sat, real_oracle_sat = cli.solver.sat, cli.oracle.oracle_sat

        def sat(f, opts=None):
            seen.append(("sat", opts.time_budget))
            return real_sat(f, opts)

        def oracle_sat(f, time_budget=None):
            seen.append(("oracle", time_budget))
            if time_budget is not None:
                raise ResourceLimit("time budget exhausted in the oracle")
            return real_oracle_sat(f)

        monkeypatch.setattr(cli.solver, "sat", sat)
        monkeypatch.setattr(cli.oracle, "oracle_sat", oracle_sat)
        argv = ["fuzz", "--size", "3", "--count", "4", "--seed", "1"]
        assert run(argv)[:2] == (0, "checked 4 formulas: 0 divergences\n")
        assert set(seen) == {("sat", None), ("oracle", None)}
        seen.clear()
        code, out, _ = run(argv + ["--time-budget", "0.5"])
        assert (code, out) == (3, "checked 4 formulas: 0 divergences (4 resource-limited)\n")
        assert set(seen) == {("sat", 0.5), ("oracle", 0.5)}

    @pytest.mark.parametrize("jobs", ["0", "-2", "100000"])
    def test_jobs_out_of_range_exit_two(self, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was requested")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        code, out, err = run(["fuzz", "--size", "3", "--count", "5", "--jobs", jobs])
        assert (code, out) == (2, "")
        assert "error: --jobs must be between 1 and 64" in err


class TestReduceK:
    def test_emits_instance(self):
        code, out, _ = run(["reduce-k", "<> [] top"])
        assert code == 0
        payload = json.loads(out)
        assert payload["model"]["states"] == ["s"]
        assert payload["model"]["transitions"] == [["s", "s"]]
        assert payload["formula"] == "Er <>[](z | !z)"

    def test_rejects_atoms(self):
        code, _, err = run(["reduce-k", "[](z & !z)"])
        assert code == 2

    def test_deep_nesting(self):
        code, out, _ = run(["reduce-k", "<>" * 10_000 + "top"])
        assert code == 0
        assert json.loads(out)["formula"] == "Er " + "<>" * 10_000 + "(z | !z)"


class TestExportDot:
    def test_dot_output(self, tmp_path):
        mpath = write_model(
            tmp_path,
            states=["a", "b"],
            transitions=[["a", "b"]],
            valuation={"a": ["p"]},
            point="a",
        )
        code, out, _ = run(["export-dot", "--model", mpath])
        assert code == 0
        assert out.startswith("digraph")
        assert '"a" -> "b";' in out


class TestUsage:
    def test_unknown_command(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2

    def test_missing_model_file(self, tmp_path):
        for argv in model_readers(str(tmp_path / "missing.json")):
            code, out, err = run(argv)
            assert (code, out) == (2, ""), argv
            assert "cannot load model" in err

    def test_closed_pipe_exit_141(self, tmp_path):
        # the reader takes one line of a 1.7 MB trace and closes the pipe;
        # the rest cannot be written, which is not an internal error
        fpath = tmp_path / "f.txt"
        fpath.write_text(" & ".join(f"(a_{i} | b_{i})" for i in range(300)))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        cmd = [sys.executable, "-m", "rmlsat.cli", "sat", "--trace", "@" + str(fpath)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"AND (1,1) ")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert "internal error" not in proc.stderr.read().decode()


def test_cold_import_loads_no_dataclasses_or_multiprocessing():
    # -S: no site hook may import these modules first and hide an import
    # from rmlsat; each of them adds milliseconds to every CLI start-up
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rmlsat; import rmlsat.cli; "
        "print(sorted({'dataclasses', 'inspect', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["sat", "Ar p"],
        ["check", "--model", "M", "--formula", "Ar p"],
        ["oracle-sat", "Ar p"],
        ["oracle-check", "--model", "M", "Ar p"],
    ],
    ids=["sat", "check", "oracle-sat", "oracle-check"],
)
def test_forall_exit_two(tmp_path, argv):
    mpath = write_model(tmp_path, point="s")
    code, out, err = run([mpath if a == "M" else a for a in argv])
    assert (code, out) == (2, "")
    assert "Ar p" in err


def test_byte_identical_reruns(tmp_path):
    w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
    argv = ["sat", "Er (<>p & (q | !p))", "--trace", "--stats"]
    code1, out1, _ = run(argv + ["--witness", str(w1)])
    code2, out2, _ = run(argv + ["--witness", str(w2)])
    assert code1 == code2 == 0
    assert out1 == out2
    assert w1.read_bytes() == w2.read_bytes()


GOLDEN = Path(__file__).parent / "golden"
# criterion 8's formulas; their golden files pin the exact bytes of
# `sat --trace --stats --witness`, so any change to search order, trace
# format or witness reading shows here
GOLDEN_SAT = [
    "Er (<>p & (q | !p)) | <>(p & Er []!q)",
    "Er Er (<>p | []q)",
    "(p | q) & Er <> (p & !q)",
    "<>p & []!p",
]


@pytest.mark.parametrize("i", range(1, len(GOLDEN_SAT) + 1))
def test_golden_sat_trace_stats_witness(tmp_path, i):
    w = tmp_path / "w.json"
    code, out, _ = run(["sat", GOLDEN_SAT[i - 1], "--trace", "--stats", "--witness", str(w)])
    assert out == (GOLDEN / f"c8_{i}.stdout.txt").read_text()
    want = GOLDEN / f"c8_{i}.witness.json"
    if want.exists():
        assert code == 0
        assert w.read_bytes() == want.read_bytes()
    else:
        assert code == 1 and not w.exists()


def test_golden_check_trace():
    # literal rejects, BOX1 expansion and an EXR child under a pinned state
    code, out, _ = run([
        "check", "--model", str(GOLDEN / "check_model.json"),
        "--formula", "(p | <>q) & []Er <>p & <>(q & !p)", "--trace",
    ])
    assert code == 1
    assert out == (GOLDEN / "check_stdout.txt").read_text()
