"""Lexer and parser tests: token classes, subset acceptance and rejection,
alias resolution, SSA checks, print/parse round-trips."""

import hashlib
import pathlib
import random
import re
import sys
from collections import Counter

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # for llgen

from ll2fun import (  # noqa: E402
    LexError, ParseError, UnsupportedConstructError, module_to_text,
    parse_text, resolve_aliases, tokenize,
)
from ll2fun.ll_parser import Br, Const, Reg, Ret, mangle_label, mangle_register  # noqa: E402

_FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

def test_tokenize_basic_lexeme_classes():
    toks = tokenize("ret i64 %x")
    assert [(kind, text) for kind, text, _, _ in toks.rows()] == [
        ("keyword", "ret"), ("type", "i64"), ("local", "x")]


def test_tokenize_empty_input():
    assert len(tokenize("")) == 0


def test_tokenize_drops_comment():
    toks = tokenize("%a = add i64 %b, 1 ; note")
    assert len(toks) == 7
    assert toks.kinds == ["local", "punct", "keyword", "type", "local", "punct", "int"]


def test_tokenize_positions_increase():
    toks = tokenize("a b\n  c d")
    positions = [(line, col) for _, _, line, col in toks.rows()]
    assert positions == sorted(positions)
    assert positions[2] == (2, 3) == toks.position(2)


def test_tokenize_global_and_label():
    toks = tokenize("@f .lr.ph: %.lr.ph")
    assert [(kind, text) for kind, text, _, _ in toks.rows()] == [
        ("global", "f"), ("label", ".lr.ph"), ("local", ".lr.ph")]


def test_tokenize_negative_and_strings():
    toks = tokenize('-42 "hello world"')
    assert [(kind, text) for kind, text, _, _ in toks.rows()] == [
        ("int", "-42"), ("string", "hello world")]


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
            assert tokenize(source).rows() == want, source
        else:
            with pytest.raises(LexError) as err:
                tokenize(source)
            assert str(err.value) == want, source


# The tokenizer as it was before tokens became flat lists: one Token
# object per match, its line counted as the scan passes each newline.
_TOKEN_BY_MATCH = re.compile(r"""
    (?P<skip>[ \t\r\n]+|;[^\n]*)
  | (?P<name>[%@](?:[0-9]+|[A-Za-z$._][A-Za-z0-9$._]*))
  | (?P<metadata>![A-Za-z0-9$._]*|\#[0-9]*)
  | (?P<string>"[^"\n]*")
  | (?P<int>-?[0-9]+)
  | (?P<word>[A-Za-z$._][A-Za-z0-9$._]*:?)
  | (?P<punct>[(){}\[\],=*<>])
  | (?P<colon>:)
  | (?P<dangling>[%@-])
  | (?P<unterminated>")
  | (?P<illegal>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize_by_match(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) rows, or LexError.  The oracle of
    test_tokenizer_matches_the_match_tokenizer."""
    toks = []
    line, line_start = 1, 0  # line_start: index of the line's first character
    for m in _TOKEN_BY_MATCH.finditer(source):
        kind, text = m.lastgroup, m[0]
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "name":
            kind, text = ("local" if text[0] == "%" else "global"), text[1:]
        elif kind == "metadata" and text[0] == "!":
            text = text[1:]
        elif kind == "string":
            text = text[1:-1]
        elif kind == "word":
            if text[-1] == ":":
                kind, text = "label", text[:-1]
            elif len(text) > 1 and text[0] == "i" and text[1:].isdigit():
                kind = "type"
            else:
                kind = "keyword"
        elif kind == "colon":
            # numeric labels arrive as int followed by ':'
            prev = toks[-1] if toks else None
            if prev is None or prev[0] != "int" or "-" in prev[1]:
                raise LexError("unexpected ':'", line, col)
            toks[-1] = ("label",) + prev[1:]
            continue
        elif kind == "dangling":
            raise LexError(f"dangling '{text}'", line, col)
        elif kind == "unterminated":
            raise LexError("unterminated string", line, col)
        elif kind == "illegal":
            raise LexError(f"illegal character {text!r}", line, col)
        toks.append((kind, text, line, col))
    return toks


def _lex_outcome(read, source: str) -> list | str:
    try:
        return read(source)
    except LexError as e:
        return str(e)


def test_tokenizer_matches_the_match_tokenizer():
    """tokenize's rows, or its LexError text, are the per-match
    tokenizer's on the token-mutant corpus (both fixtures and 60 llgen
    programs, then their 5,200 mutants) and on 3,000 seeded strings over
    every character class the lexer tells apart; on every 20th that
    lexes, `position` gives each token's line and column as well."""
    texts = list(_token_mutants())
    rng = random.Random(20)
    for _ in range(3000):
        texts.append("".join(rng.choices(
            ' \t\r\n;%@-:"!#,=*()<>[]{}09aiZ.$_²٣`', k=rng.randrange(60))))
    for n, text in enumerate(texts):
        want = _lex_outcome(_tokenize_by_match, text)
        assert _lex_outcome(lambda s: tokenize(s).rows(), text) == want, text[:80]
        if isinstance(want, list) and n % 20 == 0:  # the parser's errors read position
            toks = tokenize(text)
            assert [toks.position(i) for i in range(len(toks))] \
                == [row[2:] for row in want], text[:80]


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


@pytest.mark.parametrize("label", ["._crit_edge", "nowhere"])
def test_phi_entry_for_a_non_predecessor_rejected(tmp_path, label):
    """As LLVM's verifier does, every label a phi lists names a
    predecessor of its block: a block that does not branch there, or a
    label no block has, is a parse error at that label."""
    from ll2fun.cli import EXIT_PARSE, main
    text = (_FIXTURES / "occurrences.ll").read_text()
    phi = "%j = phi i64 [ %j.next, %.lr.ph ], [ 0, %0 ]"
    bad = text.replace(phi, f"{phi}, [ 5, %{label} ]")
    assert bad != text
    with pytest.raises(ParseError) as err:
        parse_text(bad)
    assert str(err.value) == (f"11:54: phi lists %{label}, which is not a predecessor of "
                              f"%.lr.ph (at '{label}')")
    src = tmp_path / "bad.ll"
    src.write_text(bad)
    assert main(["translate", str(src)]) == EXIT_PARSE == 10


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


def _fn(body: str, params: str = "i64 %x") -> str:
    return f"define i64 @f({params}) {{\n{body}}}\n"


_CALLEE = "define i64 @g(i64 %x) {\n  ret i64 %x\n}\n"

# One smallest input per parser rejection that no other test reaches: its
# error class, the CLI's exit code for it, and the exact message.
_PARSER_REJECTIONS = {
    "phi after a non-phi": (_fn("""entry:
  br i1 true, label %a, label %b
a:
  br label %b
b:
  %y = add i64 %x, 1
  %p = phi i64 [ 1, %entry ], [ 2, %a ]
  ret i64 %p
"""), ParseError, "block b: phi after a non-phi instruction", 8, 3),
    "function without blocks": ("define i64 @f(i64 %x) {\n}\n", ParseError,
                                "function @f has no blocks", None, None),
    "result-less add": (_fn("  tail add i64 %x, 1\n  ret i64 %x\n"), ParseError,
                        "'add' needs a result register (at 'tail')", 2, 3),
    "load pointee": (_fn("  %v = load i64, i32* %p\n  ret i64 %v\n", "i64* %p"), ParseError,
                     "load value and pointer types disagree (at 'load')", 2, 8),
    "store pointee": (_fn("  store i64 1, i32* %p\n  ret i64 0\n", "i64* %p"), ParseError,
                      "store value and pointer types disagree (at 'store')", 2, 3),
    "zext that narrows": (_fn("  %y = zext i64 %x to i32\n  ret i64 %x\n"), ParseError,
                          "zext must widen (i64 to i32) (at 'zext')", 2, 8),
    "sext to its own width": (_fn("  %y = sext i64 %x to i64\n  ret i64 %x\n"), ParseError,
                              "sext must widen (i64 to i64) (at 'sext')", 2, 8),
    "select over i64": (_fn("  %y = select i64 %x, i64 1, i64 2\n  ret i64 %y\n"),
                        ParseError, "select condition must be i1 (at 'select')", 2, 8),
    "icmp over pointers": (_fn("  %c = icmp eq i64* %p, %p\n  ret i64 0\n", "i64* %p"),
                           UnsupportedConstructError,
                           "icmp over pointers is outside the subset (at 'icmp')", 2, 8),
    "select over pointers": (_fn("  %y = select i1 true, i64* %p, i64* %p\n  ret i64 0\n",
                                 "i64* %p"), UnsupportedConstructError,
                             "select over pointers is outside the subset (at 'select')", 2, 8),
    "zext of a pointer": (_fn("  %y = zext i64* %p to i64\n  ret i64 %y\n", "i64* %p"),
                          UnsupportedConstructError,
                          "zext over pointers is outside the subset (at 'zext')", 2, 8),
    "zext to a pointer": (_fn("  %y = zext i32 %x to i64*\n  ret i64 0\n", "i32 %x"),
                          UnsupportedConstructError,
                          "zext to a pointer is outside the subset (at '*')", 2, 26),
    "load of i1": (_fn("  %v = load i1* %p\n  ret i64 0\n", "i1* %p"),
                   UnsupportedConstructError,
                   "load of i1 is outside the subset (at 'load')", 2, 8),
    "store of i1": (_fn("  store i1 true, i1* %p\n  ret i64 0\n", "i1* %p"),
                    UnsupportedConstructError,
                    "store of i1 is outside the subset (at 'store')", 2, 3),
    "alloca of i1": (_fn("  %a = alloca i1\n  ret i64 0\n"), UnsupportedConstructError,
                     "alloca of i1 is outside the subset (at 'alloca')", 2, 8),
    "getelementptr over i1": (_fn("  %q = getelementptr i1* %p, i64 1\n  ret i64 0\n",
                                  "i1* %p"), UnsupportedConstructError,
                              "getelementptr over i1 elements is outside the subset "
                              "(at 'getelementptr')", 2, 8),
    "getelementptr with two indices": (
        _fn("  %q = getelementptr i64* %p, i64 0, i64 1\n  ret i64 0\n", "i64* %p"),
        UnsupportedConstructError,
        "getelementptr with more than one index is outside the subset (at 'getelementptr')",
        2, 8),
    "alloca of a register count": (_fn("  %a = alloca i64, i64 %x\n  ret i64 0\n"),
                                   UnsupportedConstructError,
                                   "alloca with a non-constant count is outside the subset "
                                   "(at 'alloca')", 2, 8),
    "void call": (_fn("  call void @g()\n  ret i64 0\n"), UnsupportedConstructError,
                  "calls to void functions are outside the subset (at 'void')", 2, 8),
    "pointer call": (_fn("  %r = call i64* @g()\n  ret i64 0\n"), UnsupportedConstructError,
                     "calls returning pointers are outside the subset (at '*')", 2, 16),
    "pointer ret": (_fn("  ret i64* %p\n", "i64* %p"), UnsupportedConstructError,
                    "returning a pointer is outside the subset (at '*')", 2, 10),
    "pointer return type": ("define i64* @f() {\n  ret i64 0\n}\n", UnsupportedConstructError,
                            "pointer return types are outside the subset (at '*')", 1, 11),
    "boolean for an i64": (_fn("  %y = add i64 true, 1\n  ret i64 %y\n"), ParseError,
                           "boolean literal for non-i1 operand in add (at 'true')", 2, 16),
    "undef operand": (_fn("  %y = add i64 undef, 1\n  ret i64 %y\n"),
                      UnsupportedConstructError,
                      "'undef' operand in add is outside the subset (at 'undef')", 2, 16),
    "repeated parameter": (_fn("  ret i64 %x\n", "i64 %x, i32 %x"), ParseError,
                           "@f: parameter %x repeated", None, None),
    "phi of another kind": (_fn("""entry:
  %y = add i32 1, 2
  br label %b
b:
  %p = phi i64 [ %y, %entry ], [ %y, %entry ]
  ret i64 %p
"""), ParseError, "@f: %y is i32 but phi %p uses it as i64", None, None),
    "ret of another width": (_fn("  ret i32 0\n"), ParseError,
                             "@f: ret i32 disagrees with return type i64", None, None),
    "ret of another kind": (_fn("  %y = add i32 1, 2\n  ret i64 %y\n"), ParseError,
                            "@f: ret uses %y as i64, defined as i32", None, None),
    "br on an i64 register": (_fn("entry:\n  br i1 %x, label %a, label %a\na:\n  ret i64 0\n"),
                              ParseError, "@f: br condition %x is i64, not i1", None, None),
    "br of width i64": (_fn("entry:\n  br i64 %x, label %a, label %a\na:\n  ret i64 0\n"),
                        ParseError, "br condition must be i1 (at 'br')", 3, 3),
    "global variable": ("@g = global i64 0\n", UnsupportedConstructError,
                        "global definitions other than aliases are outside the subset (at 'g')",
                        1, 1),
    "alias without a target": ("@a = alias i64 5\n", ParseError,
                               "alias needs a global target on the same line (at 'a')", 1, 1),
    "repeated alias": ("@a = alias i64 (i64)* @g\n@a = alias i64 (i64)* @g\n" + _CALLEE,
                       ParseError, "alias @a defined more than once", 2, 1),
    "function and alias": ("@f = alias i64 (i64)* @g\n" + _fn("  ret i64 %x\n") + _CALLEE,
                           ParseError, "@f is both a function and an alias", None, None),
    "truncated function type": (_fn("").replace("}\n", "  %r = call i64 (i64"), ParseError,
                                "unexpected end of input", None, None),
}


@pytest.mark.parametrize("case", list(_PARSER_REJECTIONS))
def test_parser_rejection_texts(case, tmp_path, capsys):
    """The exact message, with line:col where it names a token, and the
    CLI's exit code: 10 for a ParseError, 11 for an unsupported construct."""
    from ll2fun.cli import EXIT_PARSE, EXIT_UNSUPPORTED, main
    source, error, message, line, col = _PARSER_REJECTIONS[case]
    if line is not None:
        message = f"{line}:{col}: {message}"
    with pytest.raises(error) as err:
        parse_text(source)
    assert type(err.value) is error and str(err.value) == message
    path = tmp_path / "in.ll"
    path.write_text(source)
    code = main(["translate", str(path), "--out", str(tmp_path / "out.fun")])
    assert code == (EXIT_UNSUPPORTED if error is UnsupportedConstructError else EXIT_PARSE)
    assert message in capsys.readouterr().err


def test_full_function_type_call_spelling_runs(tmp_path, capsys):
    """`call i64 (i64)* @g(...)` names g's type before g; the type is
    skipped, and @f(5) returns 5.  A call group reference (#0) after the
    arguments and a brace group inside an attribute group are skipped too."""
    from ll2fun.cli import EXIT_OK, main
    source = (_CALLEE + _fn("  %r = call i64 (i64)* @g(i64 %x) #0\n  ret i64 %r\n")
              + "attributes #0 = { nounwind { \"a\" } }\n")
    call = parse_text(source).function("f").blocks[0].body[0]
    assert (call.callee, call.operands) == ("g", (Reg("x"),))
    path = tmp_path / "in.ll"
    path.write_text(source)
    assert main(["translate", str(path), "--out", str(tmp_path / "out.fun")]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", str(tmp_path / "out.fun"), "--entry", "f", "--args", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "5"


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


def test_repeated_names_name_the_first_that_repeats():
    """Of labels 0 b c c b, b is named: the first in block order that
    occurs twice, though c is the first seen a second time.  Functions
    likewise."""
    src = ("define i64 @f() {\n  br label %b\nb:\n  br label %c\nc:\n  ret i64 0\n"
           "c:\n  ret i64 1\nb:\n  ret i64 2\n}\n")
    with pytest.raises(ParseError) as err:
        parse_text(src)
    assert str(err.value) == "@f: block label b repeated"
    fn = "define i64 @{}() {{\n  ret i64 0\n}}\n"
    with pytest.raises(ParseError) as err:
        parse_text("".join(fn.format(name) for name in "fggf"))
    assert str(err.value) == "function @f defined more than once"


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


def test_alias_resolution_keeps_other_instructions():
    src = ("@a = alias i64 (i64)* @g\n" + _CALLEE
           + _fn("  %y = add i64 %x, 1\n  %r = call i64 @a(i64 %y)\n  ret i64 %r\n"))
    m = resolve_aliases(parse_text(src))
    add, call = m.function("f").blocks[0].body
    assert (add.opcode, add.operands, call.callee) == ("add", (Reg("x"), Const(1)), "g")


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


def test_roundtrip_aliases_and_a_labelled_entry():
    module = parse_text(ALIAS_SRC.replace("{\n  ret i64 %x", "{\nstart:\n  ret i64 %x"))
    assert module.function("f").blocks[0].label == "start"
    text = module_to_text(module)
    assert text.startswith("@f2 = alias @f\n\ndefine i64 @f(i64 %x) {\nstart:\n")
    assert _roundtrips(module)


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

_PINNED_DIGEST = "0ffdebc350985d9ee0b03b4edcfad9661e8eb5e36a22f5a906f3b3b38d7cd4ef"
_PINNED_COUNTS = {"translated": 383, "ParseError": 4657, "UnsupportedConstructError": 140,
                  "AnalysisError": 50, "LexError": 32}


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
    from ll2fun import emit_sexpr, load_program, translate_module
    try:
        fun = emit_sexpr(translate_module(parse_text(text)))
    except Exception as e:  # a non-package error is an outcome to pin as well
        return f"{type(e).__name__}: {e}"
    load_program(fun)  # every translation loads; a LoadError here fails the test
    return "translated " + hashlib.sha256(fun.encode()).hexdigest()


def test_token_mutant_outcomes_are_pinned():
    """Every outcome of parse and translate over 5,200 token mutants and
    their 62 sources: the error class and its message with line:col, or a
    hash of the emitted .fun, which must load.  The digest and the class counts were
    recorded when a loop header phi without a value for the guard edge
    became an AnalysisError (three outcomes, which were a bare
    StopIteration); the other 5,259 are as recorded before the parser
    recorded operand and result kinds itself.  Since the parser rejects a
    phi entry for a non-predecessor, 7 outcomes that were AnalysisErrors
    are that ParseError."""
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
