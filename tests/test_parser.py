"""Lexer and parser tests: token classes, subset acceptance and rejection,
alias resolution, SSA checks, print/parse round-trips."""

import hashlib
import pathlib
import random
import sys
from collections import Counter

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # for llgen

from ll2fun import (
    LexError, ParseError, UnsupportedConstructError, module_to_text, parse_text,
    resolve_aliases, tokenize,
)
from ll2fun.ll_parser import Br, Const, Reg, Ret, mangle_label, mangle_register

_FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

def test_tokenize_basic_lexeme_classes():
    toks = tokenize("ret i64 %x")
    assert [(t.kind, t.text) for t in toks] == [
        ("keyword", "ret"), ("type", "i64"), ("local", "x")]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_drops_comment():
    toks = tokenize("%a = add i64 %b, 1 ; note")
    assert len(toks) == 7
    assert [t.kind for t in toks] == [
        "local", "punct", "keyword", "type", "local", "punct", "int"]


def test_tokenize_positions_increase():
    toks = tokenize("a b\n  c d")
    positions = [(t.line, t.col) for t in toks]
    assert positions == sorted(positions)
    assert positions[2] == (2, 3)


def test_tokenize_global_and_label():
    toks = tokenize("@f .lr.ph: %.lr.ph")
    assert [(t.kind, t.text) for t in toks] == [
        ("global", "f"), ("label", ".lr.ph"), ("local", ".lr.ph")]


def test_tokenize_negative_and_strings():
    toks = tokenize('-42 "hello world"')
    assert [(t.kind, t.text) for t in toks] == [("int", "-42"), ("string", "hello world")]


def test_tokenize_illegal_character_position():
    with pytest.raises(LexError) as err:
        tokenize("add i64\n  %a, `")
    assert err.value.line == 2 and err.value.col == 7


# Each lexer input with its (kind, text, line, col) tokens or LexError text.
_LEXER_CASES = [
    ("\tadd\ti64 %x,\t7", [("keyword", "add", 1, 2), ("type", "i64", 1, 6),
                             ("local", "x", 1, 10), ("punct", ",", 1, 12), ("int", "7", 1, 14)]),
    ("a\r\nb\r\n  %c", [("keyword", "a", 1, 1), ("keyword", "b", 2, 1), ("local", "c", 3, 3)]),
    ("ret i64 0 ; end", [("keyword", "ret", 1, 1), ("type", "i64", 1, 5), ("int", "0", 1, 9)]),
    ("1 ;c\n :", [("label", "1", 1, 1)]),
    ("3:4:", [("label", "3", 1, 1), ("label", "4", 1, 3)]),
    ("i64: i1x i", [("label", "i64", 1, 1), ("keyword", "i1x", 1, 6), ("keyword", "i", 1, 10)]),
    ("#0 !7 !dbg", [("metadata", "#0", 1, 1), ("metadata", "7", 1, 4), ("metadata", "dbg", 1, 7)]),
    ("-1:", "1:3: unexpected ':'"),
    ("%", "1:1: dangling '%'"),
    ("@ f", "1:1: dangling '@'"),
    ("x - 1", "1:3: dangling '-'"),
    ('"abc\n"', "1:1: unterminated string"),
    ('x "abc', "1:3: unterminated string"),
    # digits outside ASCII are not digits
    ("%y = add i64 %x, \u00b2", "1:18: illegal character '\u00b2'"),
    ("%\u0663 = add", "1:1: dangling '%'"),
]


def test_tokenize_edge_cases():
    for source, want in _LEXER_CASES:
        if isinstance(want, list):
            assert [(t.kind, t.text, t.line, t.col) for t in tokenize(source)] == want, source
        else:
            with pytest.raises(LexError) as err:
                tokenize(source)
            assert str(err.value) == want, source


# ---------------------------------------------------------------------------
# Mangling
# ---------------------------------------------------------------------------

def test_register_mangling():
    assert mangle_register("num_occur.0.lcssa") == "num_occur_dot_0_dot_lcssa"
    assert mangle_register("5") == "_5"
    assert mangle_register("a-b") == "a_b"


def test_label_mangling():
    assert mangle_label("._crit_edge") == "_crit_edge"
    assert mangle_label(".lr.ph") == "lr_dot_ph"
    assert mangle_label("0") == "_0"


# ---------------------------------------------------------------------------
# Module parsing
# ---------------------------------------------------------------------------

def test_parse_occurrences_fixture(occurrences_module):
    assert [f.name for f in occurrences_module.functions] == ["occurrences"]
    fn = occurrences_module.functions[0]
    assert [b.label for b in fn.blocks] == ["0", ".lr.ph", "._crit_edge"]
    assert fn.params == (("val", "i64"), ("n", "i32"), ("array", "addr"))
    assert fn.ret_width == 64
    loop = fn.blocks[1]
    assert [p.result for p in loop.phis] == ["num_occur", "j"]
    assert len(loop.body) == 8  # nine loop instructions counting the branch
    assert isinstance(loop.terminator, Br)
    crit = fn.blocks[2]
    assert isinstance(crit.terminator, Ret)
    assert crit.phis[0].result == "num_occur.0.lcssa"


def test_parse_empty_module():
    m = parse_text("")
    assert m.functions == ()
    assert m.aliases == {}


def test_parse_module_with_only_target_lines():
    m = parse_text('target triple = "x86_64-unknown-linux-gnu"\n')
    assert m.functions == ()
    assert m.target_notes == ('target triple = "x86_64-unknown-linux-gnu"',)


def test_br_with_three_operands_is_a_parse_error():
    src = """define i64 @f(i64 %x) {
  br i1 true, label %a, label %b, label %c

a:
  ret i64 0

b:
  ret i64 1
}
"""
    with pytest.raises(ParseError):
        parse_text(src)


def test_unsupported_opcode_is_distinct_from_malformed():
    src = "define i64 @f(i64 %x) {\n  %r = udiv i64 %x, %x\n  ret i64 %r\n}\n"
    with pytest.raises(UnsupportedConstructError):
        parse_text(src)


def test_unsupported_width():
    src = "define i64 @f(i7 %x) {\n  ret i64 0\n}\n"
    with pytest.raises(UnsupportedConstructError):
        parse_text(src)


def test_vector_types_rejected():
    src = "define i64 @f(<4 x i32> %x) {\n  ret i64 0\n}\n"
    with pytest.raises(UnsupportedConstructError):
        parse_text(src)


def test_float_rejected_as_unsupported():
    src = "define i64 @f(double %x) {\n  ret i64 0\n}\n"
    with pytest.raises(UnsupportedConstructError):
        parse_text(src)


def test_ret_void_rejected():
    src = "define i64 @f(i64 %x) {\n  ret void\n}\n"
    with pytest.raises(UnsupportedConstructError):
        parse_text(src)


def test_declare_rejected():
    src = "declare i64 @g(i64)\n"
    with pytest.raises(UnsupportedConstructError):
        parse_text(src)


def test_double_assignment_rejected():
    src = """define i64 @f(i64 %x) {
  %a = add i64 %x, 1
  %a = add i64 %x, 2
  ret i64 %a
}
"""
    with pytest.raises(ParseError, match="SSA"):
        parse_text(src)


def test_phi_with_two_values_for_one_predecessor_rejected(tmp_path):
    """As LLVM's verifier does, a phi may name a predecessor twice only
    with the same value; the error points at the second naming.  A repeat
    with the same value parses and translates as if written once."""
    from ll2fun import emit_sexpr, translate_module
    from ll2fun.cli import EXIT_PARSE, main
    text = (_FIXTURES / "occurrences.ll").read_text()
    bad = text.replace("[ 0, %0 ]", "[ 0, %.lr.ph ]", 1)
    with pytest.raises(ParseError) as err:
        parse_text(bad)
    assert str(err.value) == ("10:59: phi lists predecessor %.lr.ph twice with different "
                              "values (at '.lr.ph')")
    src = tmp_path / "bad.ll"
    src.write_text(bad)
    assert main(["translate", str(src)]) == EXIT_PARSE == 10
    same = text.replace("[ 0, %0 ]", "[ 0, %0 ], [ 0, %0 ]", 1)
    assert emit_sexpr(translate_module(parse_text(same))) == \
        emit_sexpr(translate_module(parse_text(text)))


def test_entry_block_with_predecessor_rejected():
    src = """define i64 @f(i64 %x) {
start:
  br label %start
}
"""
    with pytest.raises(ParseError, match="predecessor"):
        parse_text(src)


def test_block_without_terminator_rejected():
    src = """define i64 @f(i64 %x) {
  %a = add i64 %x, 1

next:
  ret i64 %a
}
"""
    with pytest.raises(ParseError, match="terminator"):
        parse_text(src)


def test_operand_width_mismatch_rejected():
    src = """define i64 @f(i32 %x) {
  %a = add i64 %x, 1
  ret i64 %a
}
"""
    with pytest.raises(ParseError, match="i32"):
        parse_text(src)


def test_negative_literals_normalized():
    src = "define i64 @f(i64 %x) {\n  %a = add i64 %x, -1\n  ret i64 %a\n}\n"
    inst = parse_text(src).functions[0].blocks[0].body[0]
    assert inst.operands[1] == Const((1 << 64) - 1)


def test_permissive_attribute_and_metadata_discard():
    src = """; ModuleID = 'x'
target datalayout = "e-m:e"

define i64 @f(i64 noundef %x) local_unnamed_addr #0 !dbg !7 {
  %a = add nuw nsw i64 %x, 1, !dbg !11
  %p = alloca i64, align 8
  store volatile i64 %a, i64* %p, align 8, !tbaa !4
  %b = load i64* %p, align 8
  ret i64 %b
}

attributes #0 = { nounwind "frame-pointer"="all" }
!llvm.module.flags = !{!0, !1}
!0 = !{i32 7, !"Dwarf Version", i32 5}
"""
    m = parse_text(src)
    assert [i.opcode for i in m.functions[0].blocks[0].body] == [
        "add", "alloca", "store", "load"]


def test_two_type_spellings_accepted():
    classic = "define i64 @f(i64* %p) {\n  %v = load i64* %p\n  ret i64 %v\n}\n"
    modern = "define i64 @f(i64* %p) {\n  %v = load i64, i64* %p\n  ret i64 %v\n}\n"
    a = parse_text(classic)
    b = parse_text(modern)
    assert a.functions[0] == b.functions[0]


def test_gep_two_type_spelling():
    classic = "define i64 @f(i64* %p) {\n  %q = getelementptr i64* %p, i64 3\n  %v = load i64* %q\n  ret i64 %v\n}\n"
    modern = "define i64 @f(i64* %p) {\n  %q = getelementptr i64, i64* %p, i64 3\n  %v = load i64, i64* %q\n  ret i64 %v\n}\n"
    assert parse_text(classic).functions[0] == parse_text(modern).functions[0]


def test_call_parses_and_checks_kinds():
    src = """define i64 @g(i64 %x) {
  ret i64 %x
}

define i64 @f(i64 %y) {
  %r = call i64 @g(i64 %y)
  ret i64 %r
}
"""
    m = parse_text(src)
    call = m.functions[1].blocks[0].body[0]
    assert call.callee == "g"
    assert call.arg_kinds == ("i64",)
    assert call.operands == (Reg("y"),)


def test_duplicate_function_rejected():
    src = ("define i64 @f(i64 %x) {\n  ret i64 %x\n}\n"
           "define i64 @f(i64 %y) {\n  ret i64 %y\n}\n")
    with pytest.raises(ParseError, match="more than once"):
        parse_text(src)


# ---------------------------------------------------------------------------
# Aliases
# ---------------------------------------------------------------------------

ALIAS_SRC = """@f2 = alias i64 (i64)* @f

define i64 @f(i64 %x) {
  ret i64 %x
}

define i64 @main(i64 %y) {
  %r = call i64 @f2(i64 %y)
  ret i64 %r
}
"""


def test_alias_resolution_rewrites_calls():
    m = resolve_aliases(parse_text(ALIAS_SRC))
    assert m.aliases == {}
    assert m.function("main").blocks[0].body[0].callee == "f"


def test_resolve_without_aliases_is_identity(occurrences_module):
    assert resolve_aliases(occurrences_module) == occurrences_module


def test_alias_cycle_rejected():
    src = "@a = alias i64 (i64)* @b\n@b = alias i64 (i64)* @a\n"
    with pytest.raises(ParseError, match="cycle"):
        resolve_aliases(parse_text(src))


def test_alias_to_undefined_rejected():
    src = "@a = alias i64 (i64)* @nowhere\n"
    with pytest.raises(ParseError, match="undefined"):
        resolve_aliases(parse_text(src))


def test_alias_chain_resolves_through():
    src = ("@a = alias i64 (i64)* @b\n@b = alias i64 (i64)* @f\n"
           "define i64 @f(i64 %x) {\n  ret i64 %x\n}\n"
           "define i64 @m(i64 %x) {\n  %r = call i64 @a(i64 %x)\n  ret i64 %r\n}\n")
    m = resolve_aliases(parse_text(src))
    assert m.function("m").blocks[0].body[0].callee == "f"


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------

def _roundtrips(module) -> bool:
    return parse_text(module_to_text(module)) == module


def test_roundtrip_occurrences(occurrences_module):
    printed = parse_text(module_to_text(occurrences_module))
    assert printed == occurrences_module


def test_roundtrip_nestsum(nestsum_module):
    assert _roundtrips(nestsum_module)


def test_rejection_is_total_on_truncations(occurrences_path):
    """Every prefix of a valid file either parses or raises a package error;
    nothing leaks through as a partial AST or an internal exception."""
    from ll2fun import Ll2FunError
    source = occurrences_path.read_text()
    for cut in range(0, len(source), 7):
        try:
            m = parse_text(source[:cut])
            assert m.functions == () or len(m.functions[0].blocks) == 3
        except Ll2FunError:
            pass


def test_rejection_is_total_on_garbage():
    import random
    from ll2fun import Ll2FunError
    rng = random.Random(8)
    alphabet = "define i64 @f(%x){}ret br label:,=*<>!#\"0123456789 \n;"
    for _ in range(400):
        junk = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        try:
            parse_text(junk)
        except Ll2FunError:
            pass


def test_integer_literals_past_the_digit_limit_are_parse_errors():
    big = "9" * 5000
    for operand in (big, "-" + big):
        with pytest.raises(ParseError, match="bad number") as err:
            parse_text(f"define i64 @f(i64 %x) {{\n  %y = add i64 %x, {operand}\n"
                       "  ret i64 %y\n}\n")
        assert (err.value.line, err.value.col) == (2, 20)
    with pytest.raises(ParseError, match="bad number"):
        parse_text(f"define i64 @f(i64 %x) {{\n  %y = add i{big} %x, 1\n  ret i64 %y\n}}\n")


def test_token_mutants_end_in_package_errors():
    """Token-level mutants of generated programs, with non-ASCII digits and
    overlong digit runs among the inserted tokens, go through parse,
    translate, emit, load and a budgeted run; every failure is a package
    error."""
    import random
    from llgen import gen_program, gen_state_args
    from ll2fun import (
        Ll2FunError, ProgramEvaluator, emit_sexpr, load_program, make_state, translate_module,
    )
    rng = random.Random(77)
    alphabet = ["\u00b2", "\u0663", "%\u0663", "1\u00b2", "9" * 4400, "-" + "9" * 4400,
                "i" + "9" * 4400, "0", "-1", "%x", "i64", ":", ",", "=", "*", "\t", "\r\n"]
    outcomes = set()
    for _ in range(300):
        words = gen_program(rng).split(" ")
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(words))
            if rng.random() < 0.7:
                words[k] = rng.choice(alphabet)
            else:
                del words[k]
        try:
            program = load_program(emit_sexpr(translate_module(parse_text(" ".join(words)))))
            entry = program.defs[-1]
            args, mem = gen_state_args(rng)
            ProgramEvaluator(program).run(entry.name, args[:len(entry.params) - 1],
                                          make_state(mem=mem), budget=1000)
            outcomes.add("ok")
        except Ll2FunError as e:
            outcomes.add(type(e).__name__)
    assert {"ok", "LexError", "ParseError"} <= outcomes, outcomes


def test_roundtrip_synthetic_kitchen_sink():
    src = """define i16 @k(i64 %x, i32 %y, i8* %buf) {
  %a = add i64 %x, -7
  %b = sub i64 %a, %x
  %c = mul i64 %b, 3
  %d = and i64 %c, 255
  %e = or i64 %d, 1
  %f = xor i64 %e, %a
  %g = shl i64 %f, 2
  %h = lshr i64 %g, 1
  %i = ashr i64 %h, 3
  %p = icmp sle i64 %i, %x
  %s = select i1 %p, i64 %i, i64 %x
  %t = trunc i64 %s to i16
  %u = zext i16 %t to i32
  %v = sext i32 %u to i64
  %q = getelementptr i8* %buf, i32 5
  store i8 9, i8* %q
  %w = load i8* %q
  %z = zext i8 %w to i16
  %al = alloca i32, i32 4
  %cc = call i16 @k2(i16 %z)
  ret i16 %cc
}

define i16 @k2(i16 %a) {
  ret i16 %a
}
"""
    assert _roundtrips(parse_text(src))


# ---------------------------------------------------------------------------
# Pinned outcomes over a corpus of token mutants
# ---------------------------------------------------------------------------

_PINNED_DIGEST = "8ae8893cd77f96e8cb615d9b46e067b472aafd235a0f253a7e218da2e676d0e3"
_PINNED_COUNTS = {"translated": 383, "ParseError": 4650, "UnsupportedConstructError": 140,
                  "AnalysisError": 57, "LexError": 32}


def _token_mutants():
    """Each source, then its mutants (`llgen.token_mutants`).  The sources
    are both fixtures, with 2000 mutants each, and 60 generated programs,
    with 20 each."""
    from llgen import gen_loop, gen_program, token_mutants
    rng = random.Random(2014)
    sources = [(_FIXTURES / name).read_text() for name in ("occurrences.ll", "nestsum.ll")]
    sources += [gen_program(rng) for _ in range(45)] + [gen_loop(rng) for _ in range(15)]
    return token_mutants(rng, sources, [2000, 2000] + [20] * 60)


def _front_end_outcome(text: str) -> str:
    from ll2fun import emit_sexpr, translate_module
    try:
        fun = emit_sexpr(translate_module(parse_text(text)))
    except Exception as e:  # a non-package error is an outcome to pin as well
        return f"{type(e).__name__}: {e}"
    return "translated " + hashlib.sha256(fun.encode()).hexdigest()


def test_token_mutant_outcomes_are_pinned():
    """Every outcome of parse and translate over 5,200 token mutants and
    their 62 sources: the error class and its message with line:col, or a
    hash of the emitted .fun.  The digest and the class counts were
    recorded when a loop header phi without a value for the guard edge
    became an AnalysisError (three outcomes, which were a bare
    StopIteration); the other 5,259 are as recorded before the parser
    recorded operand and result kinds itself."""
    outcomes = [_front_end_outcome(text) for text in _token_mutants()]
    counts = Counter(o.split(" ", 1)[0].rstrip(":") for o in outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert (digest, dict(counts)) == (_PINNED_DIGEST, _PINNED_COUNTS)


def test_recorded_kinds_agree_with_function_kinds():
    """Every result's recorded kind is its entry in `LlvmFunction.kinds`,
    and every register operand has a use kind, which is the register's
    kind; alloca's constant count alone records none."""
    from llgen import gen_loop, gen_program
    rng = random.Random(515)
    sources = [(_FIXTURES / name).read_text() for name in ("occurrences.ll", "nestsum.ll")]
    sources += [gen_loop(rng) if k % 4 == 0 else gen_program(rng) for k in range(200)]
    uses = Counter()
    for text in sources:
        for fn in parse_text(text).functions:
            kinds = fn.kinds
            assert set(kinds) == ({name for name, _ in fn.params}
                                  | {phi.result for b in fn.blocks for phi in b.phis}
                                  | {i.result for b in fn.blocks for i in b.body
                                     if i.result is not None})
            for block in fn.blocks:
                for inst in block.body:
                    assert (inst.kind is None) == (inst.result is None), inst
                    if inst.result is not None:
                        assert kinds[inst.result] == inst.kind, inst
                    want = 0 if inst.opcode == "alloca" else len(inst.operands)
                    assert len(inst.arg_kinds) == want, inst
                    for op, kind in zip(inst.operands, inst.arg_kinds):
                        if isinstance(op, Reg):
                            assert kinds[op.name] == kind, inst
                            uses[inst.opcode] += 1
    assert {"add", "icmp", "zext", "select", "getelementptr", "load", "store",
            "call"} <= set(uses), uses

