"""Command-line behavior: exit codes, outputs, determinism."""

import pathlib
import random
import re
import subprocess
import sys

import pytest

from ll2fun import ProgramEvaluator, load_program
from ll2fun.cli import (
    EXIT_ANALYSIS, EXIT_BUDGET, EXIT_FAULT, EXIT_OK, EXIT_PARSE,
    EXIT_UNSUPPORTED, EXIT_USAGE, main,
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
    """The chain translates, and runs unchecked, checked and traced, under
    the default recursion limit: its blocks are sections of one function."""
    r = _translate_subprocess(tmp_path, gen_diamond_chain(random.Random(7), 1000))
    assert r.returncode == EXIT_OK, r.stderr
    assert "Traceback" not in r.stderr
    assert "3001 block(s)" in r.stdout
    outputs = set()
    for mode in (["--no-check"], [], ["--trace"]):
        r = subprocess.run([sys.executable, "-m", "ll2fun.cli", "run", str(tmp_path / "out.fun"),
                            "--entry", "gen", "--args", "399", "4", "0x8000", *mode],
                           capture_output=True, text=True)
        assert r.returncode == EXIT_OK, r.stderr[-500:]
        assert "Traceback" not in r.stderr
        outputs.add(r.stdout.splitlines()[-1])
    assert len(outputs) == 1


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


# The occurrences loop with no value for %j on the guard edge from %0.
# %j's phi names its back edge twice and the guard edge from %0 not at all
_UNGUARDED_PHI = pathlib.Path(OCC).read_text().replace(
    "%j = phi i64 [ %j.next, %.lr.ph ], [ 0, %0 ]",
    "%j = phi i64 [ %j.next, %.lr.ph ], [ %j.next, %.lr.ph ]")


def test_header_phi_without_a_guard_edge_value_exit_12(tmp_path):
    """A header phi that lists no value for the guard edge is an analysis
    error; one that lists it under a label no block has is a parse error
    at that label."""
    r = _translate_subprocess(tmp_path, _UNGUARDED_PHI)
    assert r.returncode == EXIT_ANALYSIS, r.stderr[-500:]
    assert "Traceback" not in r.stderr
    assert ("phi %j in loop header .lr.ph lacks a value for the guard edge from 0"
            in r.stderr)
    misnamed = _UNGUARDED_PHI.replace("[ %j.next, %.lr.ph ], [ %j.next, %.lr.ph ]",
                                      "[ %j.next, %.lr.ph ], [ 0, %t4 ]")
    r = _translate_subprocess(tmp_path, misnamed)
    assert r.returncode == EXIT_PARSE, r.stderr[-500:]
    assert r.stderr == ("ll2fun: 11:43: phi lists %t4, which is not a predecessor of "
                        "%.lr.ph (at 't4')\n")


def test_loop_and_loader_rejections_exit_12_and_10(tmp_path, capsys):
    """A loop the analysis rejects exits 12, and a .fun the loader rejects
    exits 10, each with its message."""
    src = tmp_path / "f.ll"
    src.write_text("define i64 @f(i1 %c) {\nentry:\n  br label %h\nh:\n"
                   "  br i1 %c, label %l1, label %l2\nl1:\n  br i1 %c, label %h, label %out\n"
                   "l2:\n  br i1 %c, label %h, label %out\nout:\n  ret i64 0\n}\n")
    assert main(["translate", str(src)]) == EXIT_ANALYSIS
    assert capsys.readouterr().err == \
        "ll2fun: analysis: @f: block h heads more than one back edge\n"
    fun = tmp_path / "f.fun"
    fun.write_text("(defun f (st) (declare (xargs :signature ((stp) stp))) st)\n" * 2)
    assert main(["run", str(fun), "--entry", "f"]) == EXIT_PARSE
    assert capsys.readouterr().err == "ll2fun: definition f repeated\n"


def test_translate_token_mutants_exit_with_documented_codes(tmp_path, capsys):
    """320 seeded token mutants of both fixtures (`llgen.token_mutants`),
    and the unguarded header phi, through `ll2fun translate` in-process:
    each ends in exit 0, 10, 11 or 12, never in an exception."""
    from llgen import token_mutants
    sources = [pathlib.Path(OCC).read_text(), (FIXTURES / "nestsum.ll").read_text()]
    texts = [_UNGUARDED_PHI, *token_mutants(random.Random(2718), sources, [160, 160])]
    src, out = tmp_path / "in.ll", str(tmp_path / "out.fun")
    codes = set()
    for text in texts:
        src.write_text(text)
        code = main(["translate", str(src), "--out", out])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_ANALYSIS), text
        codes.add(code)
    assert "Traceback" not in capsys.readouterr().err
    assert codes == {EXIT_OK, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_ANALYSIS}


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


FILL_LL = """\
define i64 @fill(i64* %p, i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %slot = getelementptr inbounds i64* %p, i64 %j
  %j.next = add i64 %j, 1
  store i64 %j.next, i64* %slot, align 8
  %acc.next = add i64 %acc, %j.next
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  %sum = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %sum
}
"""


def test_run_trace_reports_every_changed_byte(tmp_path, capsys):
    """The whole report of a traced run that stores p[j] = j + 1 for three
    words from 0x1ffc: the first word crosses the page boundary at 0x2000
    and overwrites preset 0xff bytes, the others fill zero bytes, and the
    preset byte at 0x3000 is left as it was."""
    src, image, out = tmp_path / "f.ll", tmp_path / "f.mem", tmp_path / "f.fun"
    src.write_text(FILL_LL)
    image.write_text("w 8 0x1ffc 0xffffffffffffffff\nw 1 0x3000 5\n")
    assert main(["translate", str(src), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    code = main(["run", str(out), "--entry", "fill", "--args", "0x1ffc", "3",
                 "--mem-image", str(image), "--trace"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "6"
    assert captured.err == (
        "# 3 loop iterations; 10 byte address(es) changed\n"
        "# while fill_step_0_while: 3 iterations\n"
        "# mem 0x1ffc: 0xff -> 0x1\n"
        + "".join(f"# mem {a:#x}: 0xff -> 0x0\n" for a in range(0x1ffd, 0x2004))
        + "# mem 0x2004: 0x0 -> 0x2\n"
        "# mem 0x200c: 0x0 -> 0x3\n")


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
    """Each repetition runs 250,000 iterations (about 0.1-0.2 s of CPU), so
    a pause of a few tens of milliseconds by the machine cannot double one
    repetition's time."""
    iterations = 250_000
    out = _translate(tmp_path)
    code = main(["bench", str(out), "--entry", "occurrences", "--no-check",
                 "--args", "0", str(iterations), "0x8000", "--mem-image", MEM,
                 "--instr-per-iter", "9", "--repeat", "5"])
    assert code == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("run ")]
    cpu = [float(re.search(r"\(([\d.]+) s CPU\)", l).group(1)) for l in lines]
    rates = [iterations * 9 / max(s, 1e-9) for s in cpu]  # CPU time: robust to other processes
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


# ---------------------------------------------------------------------------
# Inputs that once ended in a traceback or in argparse's exit 2
# ---------------------------------------------------------------------------

def _cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "ll2fun.cli", *argv],
                          capture_output=True, text=True)


def test_non_ascii_and_overlong_ll_tokens_exit_10(tmp_path):
    big = "9" * 5000
    cases = {
        "%y = add i64 %x, \u00b2": "illegal character",
        "%\u00b2 = add i64 %x, 1": "dangling '%'",
        f"%y = add i64 %x, {big}": "bad number",
        f"%y = add i64 %x, -{big}": "bad number",
        f"%y = add i{big} %x, 1": "bad number",
    }
    for k, (line, message) in enumerate(cases.items()):
        src = tmp_path / f"m{k}.ll"
        src.write_text(f"define i64 @f(i64 %x) {{\n  {line}\n  ret i64 %y\n}}\n",
                       encoding="utf-8")
        r = _cli("translate", str(src), "--out", str(tmp_path / "m.fun"))
        assert r.returncode == EXIT_PARSE, (line[:30], r.stderr[-300:])
        assert message in r.stderr and "Traceback" not in r.stderr


_FUN_F = """(defun f (st)
  (declare (xargs :signature ((stp) stp)))
  (update-retval 1 st))
"""


@pytest.mark.parametrize("kind", ["ll", "fun", "mem"])
def test_non_utf8_input_exits_with_its_readers_error(tmp_path, kind):
    """A byte that is not UTF-8 is the reader's own bad-character error,
    which names the byte's line and its offset in the file: a LexError
    for a .ll (exit 10), a LoadError for a .fun (exit 10), and a fault for
    a memory image (exit 13, as for its bad numbers)."""
    ok = tmp_path / "ok.fun"
    ok.write_text(_FUN_F)
    bad = tmp_path / f"bad.{kind}"
    if kind == "ll":
        bad.write_bytes(b"define i64 @f() {\r\n  ret i64 0 \xff\n}\n")
        argv, code = ("translate", str(bad), "--out", str(ok)), EXIT_PARSE
        want = "ll2fun: 2:13: not UTF-8: byte 0xff at offset 31\n"
    elif kind == "fun":
        bad.write_bytes(_FUN_F.replace("1 st", "1 \xc3 st").encode("latin-1"))
        argv, code = ("run", str(bad), "--entry", "f"), EXIT_PARSE
        want = "ll2fun: line 3: not UTF-8: byte 0xc3 at offset 76\n"
    else:
        bad.write_bytes(b"w 1 0 1\r\n# \xe9t\xe9\nw 1 1 2\n")
        argv, code = ("run", str(ok), "--entry", "f", "--mem-image", str(bad)), EXIT_FAULT
        want = "ll2fun: runtime fault: memory image line 2: not UTF-8: byte 0xe9 at offset 11\n"
    r = _cli(*argv)
    assert (r.returncode, r.stderr) == (code, want)


def test_non_ascii_fun_symbol_runs(tmp_path):
    path = tmp_path / "sym.fun"
    path.write_text("""(defun _\u00b2 (_\u00b2 st)
  (declare (xargs :signature ((i64_p stp) stp)))
  (update-retval (bits (+ _\u00b2 1) 63 0) st))
""", encoding="utf-8")
    for extra in ((), ("--no-check",), ("--trace",)):
        r = _cli("run", str(path), "--entry", "_\u00b2", "--args", "41", *extra)
        assert r.returncode == EXIT_OK, r.stderr[-300:]
        assert r.stdout.splitlines()[-1] == "42"


def test_usage_errors_exit_15(tmp_path):
    out = _translate(tmp_path)
    cases = [
        (["run", str(out), "--entry", "occurrences", "--args", "abc"], "invalid"),
        (["run", str(out), "--entry", "occurrences", "--bogus"], "unrecognized"),
        (["run", str(out)], "required: --entry"),
        (["run", str(out), "--entry", "occurrences", "--args", "9" * 5000], "invalid"),
        (["run", str(out), "--entry", "occurrences", "--args", "-1"],
         "expected a natural number"),
        (["bench", str(out), "--entry", "occurrences"], "required: --instr-per-iter"),
        # a zero count is a usage error, not a fault, one run, or a rate of 0
        (["run", str(out), "--entry", "occurrences", "--budget", "0"], "positive"),
        (["bench", str(out), "--entry", "occurrences", "--instr-per-iter", "9",
          "--repeat", "0"], "positive"),
        (["bench", str(out), "--entry", "occurrences", "--instr-per-iter", "0"], "positive"),
        (["frobnicate"], "invalid choice"),
        ([], "required: command"),
    ]
    for argv, message in cases:
        r = _cli(*argv)
        assert r.returncode == EXIT_USAGE, (argv[:4], r.stderr[-300:])
        assert "error:" in r.stderr and message in r.stderr, r.stderr[-300:]
        assert "Traceback" not in r.stderr and len(r.stderr) < 500, r.stderr[-300:]
    for argv in (["--help"], ["run", "--help"]):
        r = _cli(*argv)
        assert r.returncode == EXIT_OK and "usage:" in r.stdout


def test_missing_inputs_exit_15(tmp_path, capsys):
    out = _translate(tmp_path)
    missing = str(tmp_path / "missing")
    for argv in (["translate", missing], ["run", missing, "--entry", "f"],
                 ["run", str(out), "--entry", "occurrences", "--mem-image", missing]):
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (f"ll2fun: [Errno 2] No such file or directory: "
                                           f"'{missing}'\n")


def test_memory_image_write_fault_names_its_line(tmp_path, capsys):
    image = tmp_path / "bad.mem"
    image.write_text("w 1 0 1\nw 0 0 5\n")
    out = _translate(tmp_path)
    capsys.readouterr()
    assert main(["run", str(out), "--entry", "occurrences", "--args", "1", "0", "0",
                 "--mem-image", str(image)]) == EXIT_FAULT
    assert capsys.readouterr().err == ("ll2fun: runtime fault: memory image line 2: "
                                       "wr_n: byte count must be positive, got 0\n")


# ---------------------------------------------------------------------------
# Values past str()'s digit limit, and state pointers past 32 bits
# ---------------------------------------------------------------------------

def _cube_fun(tmp_path, result_kinds: str, body: str) -> str:
    path = tmp_path / "cube.fun"
    path.write_text(f"""(defun cube (x st)
  (declare (xargs :signature ((natp stp) {result_kinds})))
  {body})
""")
    return str(path)


def test_huge_naturals_print_in_full(tmp_path, capsys):
    """x**3 for a 2001-digit x has 6001 digits, past str()'s default limit
    of 4300: run, bench and the trace print every digit, and a checked
    run's violation and a shift's fault report it; the limit itself stays
    set, so the readers still reject overlong numerals."""
    limit = sys.get_int_max_str_digits()
    x, cube = "1" + "0" * 2000, "1" + "0" * 6000
    path = _cube_fun(tmp_path, "stp", "(update-retval (* x (* x x)) st)")
    assert main(["run", path, "--entry", "cube", "--args", x]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [cube]
    assert main(["bench", path, "--entry", "cube", "--args", x, "--instr-per-iter", "1"]) == EXIT_OK
    assert capsys.readouterr().out.endswith(f"retval {cube})\n")
    assert main(["run", path, "--entry", "cube", "--args", x, "--trace"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith(f"<- cube (st retval={cube} stack=") and out[-1] == cube

    path = _cube_fun(tmp_path, "i64_p stp", "(mvlist (* x (* x x)) st)")
    assert main(["run", path, "--entry", "cube", "--args", x]) == EXIT_FAULT
    err = capsys.readouterr().err
    assert f"cube: result 1 fails i64 (got {cube}) [def cube]" in err
    assert "Traceback" not in err
    path = _cube_fun(tmp_path, "stp", "(update-retval (shl 64 1 (- 0 (* x (* x x)))) st)")
    assert main(["run", path, "--entry", "cube", "--args", x, "--no-check"]) == EXIT_FAULT
    err = capsys.readouterr().err
    assert f"shl: negative shift count -{cube}" in err and "Traceback" not in err
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(SystemExit) as usage:
        main(["run", path, "--entry", "cube", "--args", "9" * 5000])
    assert usage.value.code == EXIT_USAGE
    assert "invalid number '9999" in capsys.readouterr().err


def test_stack_past_32_bits_exit_13(tmp_path, capsys):
    out = _translate(tmp_path)
    capsys.readouterr()
    for flag in ("--stack", "--frame"):
        code = main(["run", str(out), "--entry", "occurrences", "--args", "399", "8", "0x8000",
                     "--mem-image", MEM, flag, "0x100000000"])
        err = capsys.readouterr().err
        assert code == EXIT_FAULT, err
        assert "outside 32-bit address space" in err and "Traceback" not in err
