"""Command-line behavior: exit codes, outputs, determinism."""

import pathlib
import random
import subprocess
import sys

from ll2fun import ProgramEvaluator, load_program
from ll2fun.cli import (
    EXIT_ANALYSIS, EXIT_BUDGET, EXIT_FAULT, EXIT_OK, EXIT_PARSE,
    EXIT_UNSUPPORTED, main,
)
from ll2fun.prims import PRIMS, RUN, STATE

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from llgen import gen_diamond_chain  # noqa: E402

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
OCC = str(FIXTURES / "occurrences.ll")
MEM = str(FIXTURES / "occurrences_array.mem")


def _translate(tmp_path, source=OCC, name="out.fun"):
    out = tmp_path / name
    code = main(["translate", source, "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_translate_writes_program_and_summary(tmp_path, capsys):
    out = _translate(tmp_path)
    text = capsys.readouterr().out
    assert "7 definitions" in text
    assert "1 loop(s)" in text
    assert out.read_text().startswith("(defun occurrences__crit_edge")


def test_translate_default_output_name(tmp_path, capsys):
    src = tmp_path / "copy.ll"
    src.write_text(pathlib.Path(OCC).read_text())
    assert main(["translate", str(src)]) == EXIT_OK
    assert (tmp_path / "copy.fun").exists()


def test_translate_is_deterministic(tmp_path):
    a = _translate(tmp_path, name="a.fun").read_bytes()
    b = _translate(tmp_path, name="b.fun").read_bytes()
    assert a == b


def test_translate_empty_module(tmp_path, capsys):
    src = tmp_path / "empty.ll"
    src.write_text("; nothing here\n")
    out = tmp_path / "empty.fun"
    assert main(["translate", str(src), "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "\n"


def test_translate_dump_analysis(tmp_path, capsys):
    out = tmp_path / "x.fun"
    assert main(["translate", OCC, "--out", str(out), "--dump-analysis"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "block .lr.ph" in text
    assert "phi-params:  num_occur j" in text
    assert "loop 0: header .lr.ph" in text


def test_translate_parse_error_exit(tmp_path, capsys):
    src = tmp_path / "bad.ll"
    src.write_text("define i64 @f(i64 %x) {\n  ret i64\n}\n")
    assert main(["translate", str(src)]) == EXIT_PARSE
    assert "ll2fun:" in capsys.readouterr().err


def test_translate_unsupported_exit_distinct(tmp_path, capsys):
    src = tmp_path / "unsup.ll"
    src.write_text("define i64 @f(i64 %x) {\n  %r = udiv i64 %x, %x\n  ret i64 %r\n}\n")
    assert main(["translate", str(src)]) == EXIT_UNSUPPORTED


def test_translate_analysis_rejection_exit(tmp_path):
    src = tmp_path / "rec.ll"
    src.write_text("define i64 @f(i64 %x) {\n  %r = call i64 @f(i64 %x)\n"
                   "  ret i64 %r\n}\n")
    assert main(["translate", str(src)]) == EXIT_ANALYSIS


def _translate_subprocess(tmp_path, text: str) -> subprocess.CompletedProcess:
    src = tmp_path / "in.ll"
    src.write_text(text)
    return subprocess.run([sys.executable, "-m", "ll2fun.cli", "translate", str(src),
                           "--out", str(tmp_path / "out.fun")],
                          capture_output=True, text=True)


def test_translate_3000_block_chain_without_host_recursion(tmp_path):
    r = _translate_subprocess(tmp_path, gen_diamond_chain(random.Random(7), 1000))
    assert r.returncode == EXIT_OK, r.stderr
    assert "Traceback" not in r.stderr
    assert "3001 block(s)" in r.stdout


def test_translate_irreducible_flow_exit(tmp_path):
    r = _translate_subprocess(tmp_path, """define i64 @f(i1 %c) {
  br i1 %c, label %a, label %b

a:
  br label %b

b:
  br i1 %c, label %a, label %out

out:
  ret i64 0
}
""")
    assert r.returncode == EXIT_ANALYSIS
    assert "irreducible control flow" in r.stderr
    assert "Traceback" not in r.stderr


def test_run_small(tmp_path, capsys):
    out = _translate(tmp_path)
    capsys.readouterr()
    code = main(["run", str(out), "--entry", "occurrences",
                 "--args", "399", "8", "0x8000", "--mem-image", MEM])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "3"


def test_run_million(tmp_path, capsys):
    out = _translate(tmp_path)
    capsys.readouterr()
    code = main(["run", str(out), "--entry", "occurrences", "--no-check",
                 "--args", "0", "1000000", "0x8000", "--mem-image", MEM])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "999993"


def test_run_missing_entry(tmp_path, capsys):
    out = _translate(tmp_path)
    code = main(["run", str(out), "--entry", "nonesuch", "--mem-image", MEM])
    assert code == EXIT_FAULT


def test_run_budget_exhaustion_exit(tmp_path, capsys):
    out = _translate(tmp_path)
    code = main(["run", str(out), "--entry", "occurrences", "--no-check",
                 "--args", "0", "4294967296", "0x8000", "--mem-image", MEM,
                 "--budget", "1000"])
    assert code == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "occurrences_step_0_while" in err


def test_run_trace_reports_writes(tmp_path, capsys):
    src = tmp_path / "w.ll"
    src.write_text("""define i64 @poke(i64* %p) {
  store i64 258, i64* %p
  ret i64 0
}
""")
    out = tmp_path / "w.fun"
    assert main(["translate", str(src), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    code = main(["run", str(out), "--entry", "poke", "--args", "0x100", "--trace"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "0"
    assert "-> poke" in captured.out
    assert "mem 0x100" in captured.err


def test_bench_reports_throughput(tmp_path, capsys):
    out = _translate(tmp_path)
    code = main(["bench", str(out), "--entry", "occurrences", "--no-check",
                 "--args", "399", "5000", "0x8000", "--mem-image", MEM,
                 "--instr-per-iter", "9", "--repeat", "2"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "5000 iterations" in text
    assert "instructions/second" in text
    assert text.count("run ") == 2


def test_bench_single_iteration_no_division_error(tmp_path, capsys):
    out = _translate(tmp_path)
    code = main(["bench", str(out), "--entry", "occurrences",
                 "--args", "399", "1", "0x8000", "--mem-image", MEM,
                 "--instr-per-iter", "9"])
    assert code == EXIT_OK
    assert "1 iterations" in capsys.readouterr().out


def test_bench_throughput_stable_across_repetitions(tmp_path, capsys):
    out = _translate(tmp_path)
    code = main(["bench", str(out), "--entry", "occurrences", "--no-check",
                 "--args", "0", "50000", "0x8000", "--mem-image", MEM,
                 "--instr-per-iter", "9", "--repeat", "5"])
    assert code == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("run ")]
    rates = [float(l.split(", ")[-1].split()[0].replace(",", "")) for l in lines]
    assert len(rates) == 5
    assert max(rates) <= 2 * min(rates)


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "o.fun"
    r = subprocess.run([sys.executable, "-m", "ll2fun.cli", "translate", OCC,
                        "--out", str(out)], capture_output=True, text=True)
    assert r.returncode == EXIT_OK, r.stderr
    r = subprocess.run([sys.executable, "-m", "ll2fun.cli", "run", str(out),
                        "--entry", "occurrences", "--args", "399", "8", "0x8000",
                        "--mem-image", MEM], capture_output=True, text=True)
    assert r.returncode == EXIT_OK, r.stderr
    assert r.stdout.strip() == "3"


# ---------------------------------------------------------------------------
# Loaded .fun text outside the static domains or the nesting limit
# ---------------------------------------------------------------------------

def _static_probes(prim):
    """(static args, in domain?) pairs: each static argument at its lowest,
    at its highest and one past either end, the others held inside."""
    held: dict[str, int] = {}
    for name, (lo, hi) in prim.domains.items():
        held[name] = lo if hi is None or isinstance(hi, str) else hi
    for name, (lo, hi) in prim.domains.items():
        top = held[hi] if isinstance(hi, str) else hi
        values = [(lo, True), (lo - 1, False)] if lo > 0 else [(lo, True)]
        values += [(top, True), (top + 1, False)] if top is not None else [(1 << 40, True)]
        for value, inside in values:
            yield {**held, name: value}, inside


def test_static_constants_outside_domain_exit_10(tmp_path, capsys):
    for op, prim in PRIMS.items():
        for static, inside in _static_probes(prim):
            n = static.get("n", 8)
            dynamic = {"st": "st", "run": f"(loadbytes {n} 256 st)"}
            args = " ".join(str(static[p]) if p in static else dynamic.get(p, "x")
                            for p in prim.params)
            app = f"({op} {args})"
            items = {STATE: f"x {app}", RUN: f"(wfrombytes {n} {app}) st"}.get(
                prim.result, f"{app} st")
            path = tmp_path / "probe.fun"
            path.write_text(f"""(defun probe (x st)
  (declare (xargs :signature ((natp stp) natp stp)))
  (mvlist {items}))
""")
            code = main(["run", str(path), "--entry", "probe", "--args", "5", "--no-check"])
            err = capsys.readouterr().err
            if inside:
                assert code in (EXIT_OK, EXIT_FAULT), (op, static, err)
            else:
                assert code == EXIT_PARSE, (op, static, err)
                assert "is outside" in err, (op, static, err)


def _nested_fun(depth: int) -> str:
    """A program whose deepest form nests `depth` parentheses: the defun,
    the update-retval, and depth - 2 additions."""
    body = "x"
    for _ in range(depth - 2):
        body = f"(+ {body} 1)"
    return f"""(defun f (x st)
  (declare (xargs :signature ((natp stp) stp)))
  (update-retval {body} st))
"""


def _run_subprocess(tmp_path, text: str) -> subprocess.CompletedProcess:
    path = tmp_path / "deep.fun"
    path.write_text(text)
    return subprocess.run([sys.executable, "-m", "ll2fun.cli", "run", str(path),
                           "--entry", "f", "--args", "5"], capture_output=True, text=True)


def test_nesting_limit_exit_10_without_traceback(tmp_path):
    r = _run_subprocess(tmp_path, _nested_fun(64))
    assert r.returncode == EXIT_OK, r.stderr
    assert r.stdout.strip() == str(5 + 62)
    for depth in (65, 3000):
        r = _run_subprocess(tmp_path, _nested_fun(depth))
        assert r.returncode == EXIT_PARSE, r.stderr
        assert "nest deeper than 64" in r.stderr
        assert "Traceback" not in r.stderr
    let_chain = "x"
    for k in range(3000):
        let_chain = f"(let* ((y{k} 1)) {let_chain})"
    r = _run_subprocess(tmp_path, _nested_fun(2).replace("(update-retval x st)",
                                                         f"(update-retval {let_chain} st)"))
    assert r.returncode == EXIT_PARSE, r.stderr
    assert "Traceback" not in r.stderr


def _depth(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, depth)
    return deepest


def test_nesting_limit_holds_for_every_shape():
    """Forms nested as deep as the limit allows load and compile, whatever
    Python each level turns into."""
    values = ["(bits {} 62 1)", "(shl 64 {} 1)", "(if (= {} 0) 1 2)", "(= {} 7)",
              "(sext 8 64 {})", "(wfrombytes 8 (loadbytes 8 {} st))"]
    states = ["(if (= x 0) st {})", "(let* ((st (update-retval x st))) {})"]
    cases = [(shape, "x", "(update-retval {} st)") for shape in values]
    cases += [(shape, "(update-retval x st)", "{}") for shape in states]
    for shape, body, result in cases:
        def program(body):
            return _nested_fun(2).replace("(update-retval x st)", result.format(body))
        while _depth(program(shape.format(body))) <= 64:
            body = shape.format(body)
        assert _depth(program(body)) > 60
        assert ProgramEvaluator(load_program(program(body))).source


# ---------------------------------------------------------------------------
# Loaded .fun text that is ill-sorted, non-linear, or shifts by a negative count
# ---------------------------------------------------------------------------

def _run_fun(tmp_path, body: str, capsys) -> tuple[int, str]:
    path = tmp_path / "f.fun"
    path.write_text(f"""(defun f (x st)
  (declare (xargs :signature ((natp stp) stp)))
  {body})
""")
    code = main(["run", str(path), "--entry", "f", "--args", "5", "--no-check"])
    return code, capsys.readouterr().err


def test_ill_sorted_fun_exit_10(tmp_path, capsys):
    for body, message in [("(update-retval (wfrombytes 8 x) st)", "must be a byte run"),
                          ("(update-retval (+ st 1) st)", "must be a natural")]:
        code, err = _run_fun(tmp_path, body, capsys)
        assert code == EXIT_PARSE, (body, err)
        assert message in err and "Traceback" not in err


def test_state_used_after_a_store_exit_10(tmp_path, capsys):
    body = ("(let* ((old st) (st (storebytes 8 x (wtobytes 8 1) st))) "
            "(update-retval (wfrombytes 8 (loadbytes 8 x old)) st))")
    code, err = _run_fun(tmp_path, body, capsys)
    assert code == EXIT_PARSE, err
    assert "old is bound to a state" in err
    body = ("(update-retval (wfrombytes 8 (loadbytes 8 x "
            "(storebytes 8 x (wtobytes 8 1) st))) st)")
    code, err = _run_fun(tmp_path, body, capsys)
    assert code == EXIT_PARSE, err
    assert "st is used after" in err


def test_negative_shift_count_exit_13(tmp_path, capsys):
    for op in ("shl", "lshr", "ashr"):
        code, err = _run_fun(tmp_path, f"(update-retval ({op} 64 1 (- 0 x)) st)", capsys)
        assert code == EXIT_FAULT, (op, err)
        assert f"{op}: negative shift count -5" in err
