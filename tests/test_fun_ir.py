"""Translation shapes, emission golden, load/emit fixpoint, validators."""

import functools
import gc
import hashlib
import pathlib
import random
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from llgen import (  # noqa: E402
    gen_diamond_chain, gen_loop, gen_program,
)
from test_evaluator import _perfbench_workloads  # noqa: E402
from test_run_modes import _fuzz_bases, _mutate  # noqa: E402

from ll2fun import (  # noqa: E402
    AnalysisError, LoadError, ParseError, ProgramEvaluator, emit_sexpr, load_program,
    parse_text, translate_module, validate_program,
)
from ll2fun.fun_ir import (  # noqa: E402
    MAX_DEPTH, Call, Const, FunDef, FunProgram, If, LetStar, Metlist, Mvlist, Prim, Var, children,
    emit_def, free_vars, validate_clique,
)
from ll2fun.prims import KINDS, PRIMS  # noqa: E402

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Shapes of the translated occurrences program
# ---------------------------------------------------------------------------

def test_definition_names_and_order(occurrences_program):
    assert [d.name for d in occurrences_program.defs] == [
        "occurrences__crit_edge",
        "occurrences_continue_0",
        "occurrences_step_0",
        "occurrences_step_0_while",
        "occurrences_step_0_while_wrap",
        "occurrences_0",
        "occurrences",
    ]


def test_exit_block_stores_retval(occurrences_program):
    d = occurrences_program.by_name["occurrences__crit_edge"]
    assert d.params == (("num_occur_dot_0_dot_lcssa", "i64"), ("st", "state"))
    assert d.result_kinds == ("state",)
    assert d.body == LetStar(
        (("st", Prim("update-retval",
                     (Var("num_occur_dot_0_dot_lcssa"), Var("st")))),),
        Var("st"))


def test_step_frame_is_done_phis_flows_state(occurrences_program):
    d = occurrences_program.by_name["occurrences_step_0"]
    assert d.param_names == ("done", "num_occur", "j", "array", "n", "val", "st")
    assert [k for _, k in d.params] == [
        "nat", "i64", "i64", "addr", "i32", "i64", "state"]
    assert d.result_kinds == ("nat", "i64", "i64", "addr", "i32", "i64", "state")
    assert not d.general_recursive
    # the step returns the full frame, done first
    assert isinstance(d.body, LetStar)
    tail = d.body.body
    assert isinstance(tail, Mvlist) and len(tail.items) == 7
    assert tail.items[0] == Var("done")
    assert tail.items[-1] == Var("st")


def test_while_def_shape(occurrences_program):
    d = occurrences_program.by_name["occurrences_step_0_while"]
    assert d.general_recursive
    assert d.params[0] == ("done", "nat")
    body = d.body
    assert isinstance(body, If)
    assert body.cond == Prim("=", (Var("done"), Const(1)))
    # results exclude done: position 0 of the result list is num_occur
    assert body.then == Mvlist(tuple(Var(n) for n in d.param_names[1:]))
    assert isinstance(body.els, Metlist)
    assert body.els.call.name == "occurrences_step_0"
    assert body.els.body == Call(d.name, tuple(Var(n) for n in d.param_names))
    assert d.result_kinds == ("i64", "i64", "addr", "i32", "i64", "state")


def test_wrap_runs_while_from_zero_then_continue(occurrences_program):
    d = occurrences_program.by_name["occurrences_step_0_while_wrap"]
    assert isinstance(d.body, Metlist)
    assert d.body.call.name == "occurrences_step_0_while"
    assert d.body.call.args[0] == Const(0)
    assert isinstance(d.body.body, Call)
    assert d.body.body.name == "occurrences_continue_0"


def test_entry_def_computes_done_and_dispatches(occurrences_program):
    d = occurrences_program.by_name["occurrences_0"]
    assert d.param_names == ("n", "array", "val", "st")
    assert isinstance(d.body, LetStar)
    # done comes from the 32-bit n==0 compare
    assert d.body.bindings[0] == ("_1", Prim("=", (Var("n"), Const(0))))
    assert d.body.bindings[1] == ("done", Var("_1"))
    tail = d.body.body
    assert isinstance(tail, If)
    assert tail.then.name == "occurrences_continue_0"
    assert tail.els.name == "occurrences_step_0_while_wrap"
    # both arms pass the initial frame: num_occur=0, j=0
    assert tail.then.args[:2] == (Const(0), Const(0))
    assert tail.then.args == tail.els.args


def test_driver_brackets_the_call(occurrences_program):
    d = occurrences_program.by_name["occurrences"]
    assert d.param_names == ("val", "n", "array", "st")
    assert [k for _, k in d.params] == ["i64", "i32", "addr", "state"]
    assert d.result_kinds == ("state",)
    body = d.body
    assert isinstance(body, LetStar)
    assert body.bindings[0] == ("st", Prim("init-stack-frame", (Var("st"),)))
    assert body.bindings[1] == ("st", Prim("begin-stack-frame", (Var("st"),)))
    assert isinstance(body.bindings[2][1], Call)
    assert body.bindings[2][1].name == "occurrences_0"
    assert body.body == Prim("end-stack-frame", (Var("st"),))


def test_continue_passes_frame_slot_for_exit_phi(occurrences_program):
    d = occurrences_program.by_name["occurrences_continue_0"]
    assert d.body == Call("occurrences__crit_edge", (Var("num_occur"), Var("st")))


def test_loop_body_arithmetic_is_modular(occurrences_program):
    d = occurrences_program.by_name["occurrences_step_0"]
    bindings = dict(d.body.bindings)
    assert bindings["scevgep"] == Prim(
        "bits", (Prim("+", (Var("array"), Prim("*", (Var("j"), Const(8))))),
                 Const(31), Const(0)))
    assert bindings["j_dot_next"] == Prim(
        "bits", (Prim("+", (Var("j"), Const(1))), Const(63), Const(0)))
    assert bindings["lftr_dot_wideiv"] == Prim(
        "bits", (Var("j_dot_next"), Const(31), Const(0)))
    assert bindings["_2"] == Prim(
        "wfrombytes", (Const(8), Prim("loadbytes",
                                      (Const(8), Var("scevgep"), Var("st")))))
    assert bindings["done"] == Var("exitcond")


def test_translate_function_returns_driver_last(occurrences_module):
    defs = translate_module(occurrences_module).defs
    assert defs[-1].name == "occurrences"
    assert len(defs) == 7


def test_callees_translate_first_in_any_source_order():
    f = "define i64 @f(i64 %x) {\n  %r = call i64 @g(i64 %x)\n  ret i64 %r\n}\n"
    g = "define i64 @g(i64 %x) {\n  ret i64 %x\n}\n"
    caller_first = translate_module(parse_text(f + "\n" + g))
    assert [d.name for d in caller_first.defs] == ["g__0", "g", "f__0", "f"]
    assert caller_first.defs == translate_module(parse_text(g + "\n" + f)).defs


def test_constant_return_function_is_driver_plus_block():
    m = parse_text("define i64 @zero() {\n  ret i64 0\n}\n")
    defs = translate_module(m).defs
    assert [d.name for d in defs] == ["zero__0", "zero"]
    block = defs[0]
    assert block.body == LetStar(
        (("st", Prim("update-retval", (Const(0), Var("st")))),), Var("st"))


def test_nested_program_defs(nestsum_program):
    names = [d.name for d in nestsum_program.defs]
    assert names == [
        "nestsum_outer_dot_exit", "nestsum_inner_dot_exit",
        "nestsum_continue_0", "nestsum_step_0", "nestsum_step_0_while",
        "nestsum_step_0_while_wrap", "nestsum_0",
        "nestsum_continue_1", "nestsum_step_1", "nestsum_step_1_while",
        "nestsum_step_1_while_wrap", "nestsum_1",
        "nestsum",
    ]
    # blocks inside the outer loop return the outer frame
    latch = nestsum_program.by_name["nestsum_inner_dot_exit"]
    assert latch.result_kinds[0] == "nat"
    assert latch.result_kinds[-1] == "state"


def test_single_clique_per_loop(occurrences_program, nestsum_program):
    assert len(occurrences_program.cliques) == 1
    assert len(nestsum_program.cliques) == 2
    for program in (occurrences_program, nestsum_program):
        generals = [d.name for d in program.defs if d.general_recursive]
        assert generals == [c.while_def for c in program.cliques]


# ---------------------------------------------------------------------------
# Emission and loading
# ---------------------------------------------------------------------------

def test_emitted_text_matches_golden(occurrences_program):
    golden = (FIXTURES / "occurrences.fun.golden").read_text()
    assert emit_sexpr(occurrences_program) == golden


_EMITTED_DIGEST = "37564835aa6cc3033f3d0120a9d8d28897b5ad174e325040505a36c9f9ad302f"


def test_emitted_text_is_pinned():
    """One sha256 over the `.fun` emitted for both fixtures, the 200 llgen
    programs of Random(2008) and 100 llgen loops of Random(2015), so that a
    change to the translator that alters a byte of its output shows."""
    rng, loops = random.Random(2008), random.Random(2015)
    sources = [(FIXTURES / name).read_text() for name in ("occurrences.ll", "nestsum.ll")]
    sources += [gen_program(rng) for _ in range(200)] + [gen_loop(loops) for _ in range(100)]
    digest = hashlib.sha256()
    for text in sources:
        digest.update(emit_sexpr(translate_module(parse_text(text))).encode())
    assert digest.hexdigest() == _EMITTED_DIGEST


def test_step_def_header_text(occurrences_program):
    text = emit_def(occurrences_program.by_name["occurrences_step_0"])
    assert text.startswith("(defun occurrences_step_0 (done num_occur j array n val st)")
    assert ":signature ((natp i64_p i64_p addr_p i32_p i64_p stp) "\
           "natp i64_p i64_p addr_p i32_p i64_p stp)" in text


def test_const_emits_bare_number():
    from ll2fun.fun_ir import _inline
    assert _inline(Const(0)) == "0"


def test_emit_load_emit_fixpoint(occurrences_program, nestsum_program):
    for program in (occurrences_program, nestsum_program):
        text = emit_sexpr(program)
        reloaded = load_program(text)
        assert emit_sexpr(reloaded) == text
        assert [d.name for d in reloaded.defs] == [d.name for d in program.defs]


def test_emit_load_emit_fixpoint_on_random_programs():
    rng = random.Random(31337)
    for _ in range(25):
        program = translate_module(parse_text(gen_program(rng)))
        text = emit_sexpr(program)
        assert emit_sexpr(load_program(text)) == text


def test_loader_rejects_unbalanced():
    with pytest.raises(LoadError):
        load_program("(defun f (st)")


def test_loader_rejects_free_variables():
    text = """(defun f (st)
  (declare (xargs :signature ((stp) stp)))
  (update-retval ghost st))
"""
    with pytest.raises(LoadError, match="free"):
        load_program(text)


def test_loader_rejects_numeric_parameter_names():
    with pytest.raises(LoadError, match="malformed definition header"):
        load_program("(defun f (8 st) (declare (xargs :signature ((natp stp) stp))) st)")


def test_loader_rejects_missing_signature():
    with pytest.raises(LoadError):
        load_program("(defun f (st) st)\n")
    with pytest.raises(LoadError, match="signature"):
        load_program("(defun f (st) (declare (ignore st)) st)\n")


def test_loader_rejects_forward_calls():
    text = """(defun f (st)
  (declare (xargs :signature ((stp) stp)))
  (g st))

(defun g (st)
  (declare (xargs :signature ((stp) stp)))
  st)
"""
    with pytest.raises(LoadError, match="before its definition"):
        load_program(text)


def test_loader_names_an_undefined_callee():
    """A call of a name that no definition has is not a forward call."""
    golden = (FIXTURES / "occurrences.fun.golden").read_text()
    start = golden.index("(defun occurrences_step_0 ")
    end = golden.index("(defun-general occurrences_step_0_while ")
    with pytest.raises(LoadError) as err:
        load_program(golden[:start] + golden[end:])
    assert str(err.value) == \
        "occurrences_step_0_while: call of undefined occurrences_step_0"


def test_loader_rejects_general_outside_while_shape():
    text = """(defun-general f (done st)
  (declare (xargs :signature ((natp stp) stp)))
  st)
"""
    with pytest.raises(LoadError, match="while"):
        load_program(text)


def test_loader_rejects_wrong_arity_mvlist():
    text = """(defun f (x st)
  (declare (xargs :signature ((i64_p stp) i64_p stp)))
  (mvlist x x st))
"""
    with pytest.raises(LoadError, match="mvlist"):
        load_program(text)


def test_loader_rejects_statement_forms_in_expression_position():
    for form in ("(let* ((y 1)) y)", "(metlist ((y st) (g st)) y)"):
        text = f"""(defun g (st)
  (declare (xargs :signature ((stp) natp stp)))
  (mvlist 1 st))

(defun f (st)
  (declare (xargs :signature ((stp) stp)))
  (update-retval {form} st))
"""
        with pytest.raises(LoadError, match="outside result position"):
            load_program(text)


def test_loader_rejects_bad_numbers():
    for atom in ("\u00b2", "9" * 5000):
        with pytest.raises(LoadError, match="bad number"):
            load_program(f"(defun f (st) (declare (xargs :signature ((stp) stp))) "
                         f"(update-retval {atom} st))")


# ---------------------------------------------------------------------------
# The reference loader: the tree reader and the walk over its tree that
# `load_program` replaced, kept as the oracle of its outcome
# ---------------------------------------------------------------------------

# A whole flat list (one without a sublist or a comment) in one match, or
# one token.
_REF_TOKEN = re.compile(r"\([\t\n\r -'*-:<-~]*\)|[()]|;[^\n]*|[^ \t\r\n();]+")
_REF_KINDS = {k.predicate: name for name, k in KINDS.items()}


def _ref_error(text: str, m: re.Match, message: str) -> LoadError:
    return LoadError(f"line {text.count(chr(10), 0, m.start()) + 1}: {message}")


def _ref_atom(text: str, m: re.Match) -> str | int:
    tok = m[0]
    try:
        return int(tok) if tok.isdigit() else tok
    except ValueError:
        raise _ref_error(text, m, f"bad number {tok[:40]!r}") from None


def _read_sexprs(text: str) -> list:
    """The text as a list of forms, each a nested list of str and int."""
    forms: list = []
    stack: list[list] = []
    for m in _REF_TOKEN.finditer(text):
        tok = m[0]
        if tok[0] == "(":
            if len(stack) == MAX_DEPTH:
                raise _ref_error(text, m, f"forms nest deeper than {MAX_DEPTH} levels")
            if tok == "(":
                stack.append([])
                continue
            try:
                items = [int(a) if a.isdigit() else a for a in tok[1:-1].split()]
            except ValueError:
                items = [_ref_atom(text, a)
                         for a in _REF_TOKEN.finditer(text, m.start() + 1, m.end() - 1)]
            (stack[-1] if stack else forms).append(items)
        elif tok == ")":
            if not stack:
                raise _ref_error(text, m, "unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
        elif tok[0] != ";":
            value = _ref_atom(text, m)
            if not stack:
                raise _ref_error(text, m, f"atom {tok!r} outside any form")
            stack[-1].append(value)
    if stack:
        raise LoadError("unbalanced '(' at end of input")
    return forms


def _parse_expr(form):
    if isinstance(form, int):
        return Const(form)
    if isinstance(form, str):
        return Var(form)
    if not form:
        raise LoadError("empty form")
    head = form[0]
    if head in ("let*", "let"):
        if len(form) != 3 or not isinstance(form[1], list):
            raise LoadError("let* needs a binding list and a body")
        bindings = []
        for b in form[1]:
            if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)):
                raise LoadError(f"bad let* binding: {b}")
            bindings.append((b[0], _parse_expr(b[1])))
        return LetStar(tuple(bindings), _parse_expr(form[2]))
    if head == "if":
        if len(form) != 4:
            raise LoadError("if needs a condition and two branches")
        return If(_parse_expr(form[1]), _parse_expr(form[2]), _parse_expr(form[3]))
    if head == "mvlist":
        return Mvlist(tuple(map(_parse_expr, form[1:])))
    if head == "metlist":
        if len(form) != 3 or not (isinstance(form[1], list) and len(form[1]) == 2):
            raise LoadError("metlist needs ((names...) (call...)) and a body")
        names, call_form = form[1]
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise LoadError("metlist names must be symbols")
        call = _parse_expr(call_form)
        if not isinstance(call, Call):
            raise LoadError("metlist must bind the results of a function call")
        return Metlist(tuple(names), call, _parse_expr(form[2]))
    if not isinstance(head, str):
        raise LoadError(f"bad application head: {head}")
    args = tuple(map(_parse_expr, form[1:]))
    if head in PRIMS:
        arity = len(PRIMS[head].params)
        if len(args) != arity:
            raise LoadError(f"primitive {head} takes {arity} args, got {len(args)}")
        return Prim(head, args)
    return Call(head, args)


def _parse_def(form):
    if not (isinstance(form, list) and len(form) == 5
            and form[0] in ("defun", "defun-general")):
        raise LoadError(f"expected (defun name (params) (declare ...) body), got {form!r:.80}")
    _, name, params, declare, body = form
    if not (isinstance(name, str) and isinstance(params, list)
            and all(isinstance(p, str) for p in params)):
        raise LoadError(f"malformed definition header for {name!r}")
    sig_ok = (isinstance(declare, list) and len(declare) == 2
              and declare[0] == "declare" and isinstance(declare[1], list)
              and len(declare[1]) >= 3 and declare[1][0] == "xargs"
              and declare[1][1] == ":signature" and isinstance(declare[1][2], list))
    if not sig_ok:
        raise LoadError(f"{name}: missing (declare (xargs :signature ...))")
    sig = declare[1][2]
    if not sig or not isinstance(sig[0], list):
        raise LoadError(f"{name}: signature needs an input kind list")
    try:
        in_kinds = tuple(map(_REF_KINDS.__getitem__, sig[0]))
        out_kinds = tuple(map(_REF_KINDS.__getitem__, sig[1:]))
    except (KeyError, TypeError):
        raise LoadError(f"{name}: unknown kind predicate in signature") from None
    if len(in_kinds) != len(params):
        raise LoadError(f"{name}: {len(params)} params but {len(in_kinds)} input kinds")
    if not out_kinds:
        raise LoadError(f"{name}: signature declares no results")
    return FunDef(name, tuple(zip(params, in_kinds)), out_kinds, _parse_expr(body),
                  general_recursive=(form[0] == "defun-general"))


def _reference_load(text: str) -> FunProgram:
    defs = tuple(_parse_def(f) for f in _read_sexprs(text))
    seen: set[str] = set()
    for d in defs:
        if d.name in seen:
            raise LoadError(f"definition {d.name} repeated")
        seen.add(d.name)
    program = FunProgram(defs)
    validate_program(program)
    return program


def _load_outcome(load, text: str) -> tuple | str:
    """The program load makes of text, with what validation set on it, or
    its LoadError text."""
    try:
        p = load(text)
    except LoadError as e:
        return str(e)
    return p.defs, p.cliques, p.calls, p.unproven


# Each reader input with the forms or the LoadError text it gives.
_READER_CASES = [
    ("(a\t(b 12)\r\n c) ; end", [["a", ["b", 12], "c"]]),
    ("(a) ; comment at EOF", [["a"]]),
    ("(a ;(b)\n c)", [["a", "c"]]),
    ("(" * 64 + ")" * 64, functools.reduce(lambda inner, _: [inner], range(64), [])),
    ("(" * 65, "line 1: forms nest deeper than 64 levels"),
    ("x", "line 1: atom 'x' outside any form"),
    ("\n\n(a)\n b", "line 4: atom 'b' outside any form"),
    ("\n 007 x", "line 2: atom '007' outside any form"),
    ("\n\u00b2", "line 2: bad number '\u00b2'"),  # a bad number outside a form
    ("(\n\u00b2)", "line 2: bad number '\u00b2'"),
    ("(\n" + "9" * 5000 + ")", "line 2: bad number '" + "9" * 40 + "'"),
    ("(a))", "line 1: unbalanced ')'"),
    ("\r\n\r\n)", "line 3: unbalanced ')'"),
    ("(a\n(b", "unbalanced '(' at end of input"),
    # a list that holds no sublist is read in one match
    ("(a\x0cb c\xa0d)", [["a\x0cb", "c\xa0d"]]),  # atoms that str.split() would split
    ("(" * 63 + "(a 1)" + ")" * 63,
     functools.reduce(lambda inner, _: [inner], range(64), ["a", 1])),
    ("(" * 64 + "(a 1)" + ")" * 64, "line 1: forms nest deeper than 64 levels"),
    ("(f 1\r\n b 2\n c " + "9" * 5000 + " d)", "line 3: bad number '" + "9" * 40 + "'"),
    ("(f 1 ; a comment (\n 2)", [["f", 1, 2]]),
    ("()", [[]]),
    ("(f 007 x-y)\n(g)", [["f", 7, "x-y"], ["g"]]),
]


def test_reader_edge_cases():
    """The reference reader gives each case's forms or LoadError text, and
    load_program the reference loader's outcome, which for these forms is a
    reader fault or the first form's shape error."""
    for text, want in _READER_CASES:
        if isinstance(want, list):
            assert _read_sexprs(text) == want, text
        else:
            with pytest.raises(LoadError) as err:
                _read_sexprs(text)
            assert str(err.value) == want, text
        assert _load_outcome(load_program, text) == _load_outcome(_reference_load, text), text


def _read_by_token(text: str) -> list:
    """The reader as it was before a flat list became one match: one token
    per match.  The oracle of the reference reader."""
    def error(m, message):
        return LoadError("line %d: %s" % (text.count("\n", 0, m.start()) + 1, message))

    forms, stack = [], []
    for m in re.finditer(r"[()]|;[^\n]*|[^ \t\r\n();]+", text):
        tok = m[0]
        if tok == "(":
            if len(stack) == 64:
                raise error(m, "forms nest deeper than 64 levels")
            stack.append([])
        elif tok == ")":
            if not stack:
                raise error(m, "unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
        elif tok[0] != ";":
            try:
                value = int(tok) if tok.isdigit() else tok
            except ValueError:
                raise error(m, f"bad number {tok[:40]!r}") from None
            if not stack:
                raise error(m, f"atom {tok!r} outside any form")
            stack[-1].append(value)
    if stack:
        raise LoadError("unbalanced '(' at end of input")
    return forms


def _read_outcome(read, text: str) -> list | str:
    try:
        return read(text)
    except LoadError as e:
        return str(e)


def test_reader_matches_the_token_reader():
    """The reference reader returns the token reader's forms, or its
    LoadError text, and load_program the reference loader's program or
    LoadError text, on the fixtures, wide's emitted program, the run
    fuzzer's 500 `.fun` mutants, and 3,000 seeded strings over parentheses,
    comments, separators, digits, and characters that only the reader or
    only str.split() takes for a separator."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.iterdir())]
    wide = _perfbench_workloads().gen_wide(1).ll_text
    texts.append(emit_sexpr(translate_module(parse_text(wide))))
    rng, bases = random.Random(0xF022), _fuzz_bases()  # as the run fuzzer draws them
    texts += [_mutate(bases[n % len(bases)][0], rng) for n in range(500)]
    rng = random.Random(17)
    for n in range(3000):
        text = "".join(rng.choices("();\n\ta9\u00b2\x0c\x1f\xa0 ", k=rng.randrange(40)))
        texts.append(f"(f {text})" if n % 2 else text)
    for text in texts:
        assert _read_outcome(_read_sexprs, text) == _read_outcome(_read_by_token, text), text[:80]
        assert _load_outcome(load_program, text) == _load_outcome(_reference_load, text), \
            text[:80]


_G = "(defun g (st) (declare (xargs :signature ((stp) natp stp))) (mvlist 1 st))\n"


@pytest.mark.parametrize("form", [
    "(let* ((y 1)) st)", "(let* ((y (+ 1 2))) st)", "(let* () st)", "(let* (y) st)",
    "(metlist ((a st) (g st)) st)", "(metlist (a b) st)", "(if (= 1 1) st st)", "(if 1 st st)",
    "(mvlist st)", "(update-retval (+ 1 2) st)", "((g) st)",
])
def test_each_form_nests_up_to_the_reader_limit(form):
    """Each form, nested in let* bodies to each depth around the reader's
    limit of 64 levels, gives the reference loader's outcome: its program,
    its own error, or the reader's fault from the level its deepest list
    passes the limit."""
    outcomes = []
    for d in range(56, 66):
        text = _G + f"(defun f (st) (declare (xargs :signature ((stp) stp))) " \
            f"{'(let* () ' * d}{form}{')' * d})"
        outcomes.append(_load_outcome(load_program, text))
        assert outcomes[-1] == _load_outcome(_reference_load, text), (form, d)
    assert outcomes[-1] == "line 2: forms nest deeper than 64 levels"


# ---------------------------------------------------------------------------
# Building a program without the cyclic collector
# ---------------------------------------------------------------------------

_IRREDUCIBLE = """define i64 @f(i1 %c) {
  br i1 %c, label %a, label %b

a:
  br label %b

b:
  br i1 %c, label %a, label %out

out:
  ret i64 0
}
"""


def test_builds_leave_the_collector_as_they_found_it(occurrences_program):
    """parse_module, translate_module, load_program and ProgramEvaluator
    pause the collector and restore its state at entry, on success and on
    error."""
    text = emit_sexpr(occurrences_program)
    module = parse_text(_IRREDUCIBLE)
    builds = [
        (lambda: parse_text(_IRREDUCIBLE + "define"), ParseError),
        (lambda: translate_module(module), AnalysisError),
        (lambda: load_program(text + "(defun"), LoadError),
        (lambda: ProgramEvaluator(FunProgram(occurrences_program.defs)), LoadError),
    ]
    ok = [lambda: translate_module(parse_text((FIXTURES / "occurrences.ll").read_text())),
          lambda: load_program(text), lambda: ProgramEvaluator(occurrences_program)]
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for build in ok:
                build()
                assert gc.isenabled() is enabled
            for build, error in builds:
                with pytest.raises(error):
                    build()
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _vars(program: FunProgram) -> list[Var]:
    out, stack = [], [d.body for d in program.defs]
    while stack:
        e = stack.pop()
        if type(e) is Var:
            out.append(e)
        stack.extend([c for c, _ in children(e)])
    return out


def test_builds_leave_no_cyclic_garbage_and_share_leaves():
    """Right after each build, a full collection finds nothing to free;
    translated and loaded programs hold one Var object per name."""
    module = parse_text(gen_diamond_chain(random.Random(400), 400))
    gc.collect()
    program = translate_module(module)
    assert gc.collect() == 0
    text = emit_sexpr(program)
    gc.collect()
    loaded = load_program(text)
    assert gc.collect() == 0
    ev = ProgramEvaluator(loaded)
    assert gc.collect() == 0  # ev is alive: its namespace is a cycle by design
    assert ev.regions
    for p in (program, loaded):
        found = _vars(p)
        assert len({id(v) for v in found}) == len({v.name for v in found}) < len(found) // 10


def test_loader_accepts_plain_let():
    text = """(defun f (st)
  (declare (xargs :signature ((stp) stp)))
  (let ((st (update-retval 5 st))) st))
"""
    program = load_program(text)
    assert program.defs[0].name == "f"


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

def test_all_translated_defs_are_closed(occurrences_program, nestsum_program):
    for program in (occurrences_program, nestsum_program):
        for d in program.defs:
            assert free_vars(d.body, frozenset(d.param_names)) == set()


def test_state_threading(occurrences_program, nestsum_program):
    for program in (occurrences_program, nestsum_program):
        for d in program.defs:
            assert d.params[-1] == ("st", "state")
            assert d.result_kinds[-1] == "state"
            assert sum(1 for _, k in d.params if k == "state") == 1


def test_clique_validator_happy(occurrences_program):
    for clique in occurrences_program.cliques:
        validate_clique(occurrences_program, clique)


def test_clique_validator_rejects_broken_wrap(occurrences_program):
    # flip the wrap's initial done bit from 0 to 1
    defs = []
    for d in occurrences_program.defs:
        if d.name == "occurrences_step_0_while_wrap":
            m = d.body
            call = Call(m.call.name, (Const(1),) + m.call.args[1:])
            d = type(d)(d.name, d.params, d.result_kinds,
                        Metlist(m.names, call, m.body))
        defs.append(d)
    broken = FunProgram(tuple(defs), occurrences_program.cliques)
    with pytest.raises(LoadError, match="done=0"):
        validate_clique(broken, broken.cliques[0])


_GOLDEN = (FIXTURES / "occurrences.fun.golden").read_text()
_STEP = _GOLDEN[_GOLDEN.index("(defun occurrences_step_0 "):_GOLDEN.index("(defun-general")]
_STEP_SIG = ("((natp i64_p i64_p addr_p i32_p i64_p stp) "
             "natp i64_p i64_p addr_p i32_p i64_p stp)")
_FRAME = "done num_occur j array n val st"


def _golden_with(old: str, new: str) -> str:
    assert _GOLDEN.count(old) == 1, old
    return _GOLDEN.replace(old, new)


def _general_step(results: str) -> str:
    """The golden with its step renamed `..._inner` and, in the step's
    place, a defun-general of the while shape over `..._inner` whose
    signature declares `results`."""
    inner = _STEP.replace("occurrences_step_0 (", "occurrences_step_0_inner (")
    general = f"""(defun-general occurrences_step_0 ({_FRAME})
  (declare (xargs :signature ((natp i64_p i64_p addr_p i32_p i64_p stp) {results})))
  (if (= done 1)
      (mvlist num_occur j array n val st)
    (metlist (({_FRAME})
              (occurrences_step_0_inner {_FRAME}))
      (occurrences_step_0 {_FRAME}))))

"""
    return _golden_with(_STEP, inner + general)


# A second loop, whose while w2 stands as the golden wrap's continue def.
_SECOND_LOOP = """(defun c2 (st)
  (declare (xargs :signature ((stp) stp)))
  st)

(defun s2 (done st)
  (declare (xargs :signature ((natp stp) natp stp)))
  (mvlist 1 st))

(defun-general w2 (done st)
  (declare (xargs :signature ((natp stp) stp)))
  (if (= done 1)
      (mvlist st)
    (metlist ((done st) (s2 done st)) (w2 done st))))

(defun w2wrap (st)
  (declare (xargs :signature ((stp) stp)))
  (metlist ((st) (w2 0 st)) (c2 st)))

(defun e2 (st)
  (declare (xargs :signature ((stp) stp)))
  (let* ((done 0))
    (if (= done 1) (c2 st) (w2wrap st))))

"""

# The input that would reach each clique check, with the error that fires
# first.  `validate_clique` checks only what `_loop_cliques` leaves open:
# a clique with a missing definition, a while def of another shape or a
# general-recursive step is refused before it, and a while that steps
# through another definition makes that definition its clique's step.
_CLIQUE_CASES = {
    "missing continue": (
        _golden_with(_GOLDEN[_GOLDEN.index("(defun occurrences_continue_0"):
                             _GOLDEN.index("(defun occurrences_step_0 ")], ""),
        "occurrences_step_0_while_wrap: call of undefined occurrences_continue_0"),
    "missing step": (_golden_with(_STEP, ""),
                     "occurrences_step_0_while: call of undefined occurrences_step_0"),
    "while of another shape": (
        _golden_with(f"(occurrences_step_0_while {_FRAME}))))",
                     "(occurrences_step_0_while done num_occur j array val n st))))"),
        "occurrences_step_0_while: defun-general is only valid for loop "
        "while-functions of the generated shape"),
    "general-recursive step declaring the frame": (
        _general_step("natp i64_p i64_p addr_p i32_p i64_p stp"),
        "occurrences_step_0: mvlist of 6 values where 7 results are declared"),
    "general-recursive step declaring the while's results": (
        _general_step("i64_p i64_p addr_p i32_p i64_p stp"),
        "occurrences_step_0_while: call of occurrences_step_0 yields 6 results "
        "where 7 are expected"),
    "done bit of another kind": (
        _golden_with(_STEP_SIG, _STEP_SIG.replace("natp", "i64_p")),
        "occurrences_step_0: first result must be the done bit"),
    "continue def is a while": (
        _SECOND_LOOP + _golden_with(
            "(occurrences_continue_0 num_occur j array n val st)))\n\n(defun occurrences_0",
            "(w2 1 st)))\n\n(defun occurrences_0"),
        "w2: only the while def may be general-recursive"),
}


@pytest.mark.parametrize("case", list(_CLIQUE_CASES))
def test_clique_rejection_texts(case):
    text, message = _CLIQUE_CASES[case]
    with pytest.raises(LoadError) as err:
        load_program(text)
    assert str(err.value) == message


def test_clique_steps_through_the_definition_its_while_calls():
    """A while that steps through a copy of the step makes the copy its
    clique's step, so no clique names a step its while does not run."""
    copy = _STEP.replace("occurrences_step_0 (", "occurrences_step_0_copy (")
    text = _golden_with(_STEP, _STEP + copy).replace(
        f"(occurrences_step_0 {_FRAME}))\n      (occurrences_step_0_while",
        f"(occurrences_step_0_copy {_FRAME}))\n      (occurrences_step_0_while")
    (clique,) = load_program(text).cliques
    assert clique.step_def == "occurrences_step_0_copy"
    first, second = load_program(_SECOND_LOOP + _GOLDEN).cliques
    assert (first.while_def, first.continue_def, first.wrap_def, first.entry_def) == (
        "w2", "c2", "w2wrap", "e2")
    assert second.step_def == "occurrences_step_0"


def test_nested_let_and_metlist_print_inline_and_load_back():
    """A let* without bindings prints on one line, through `_inline`'s
    let* and metlist forms, and the text loads back to the same text."""
    text = """(defun g (st)
  (declare (xargs :signature ((stp) natp stp)))
  (mvlist 1 st))

(defun f (st)
  (declare (xargs :signature ((stp) natp stp)))
  (let* () (metlist ((a st) (g st)) (mvlist a st))))
"""
    program = load_program(text)
    assert isinstance(program.defs[1].body, LetStar)
    assert isinstance(program.defs[1].body.body, Metlist)
    assert emit_sexpr(program) == text
    assert emit_sexpr(load_program(emit_sexpr(program))) == text


def test_validation_records_call_sites_in_evaluation_order():
    """validate_program records each definition's calls, each after the
    calls in its arguments and marked when it is the value of a result
    position; a program is given its calls only once all of it passes."""
    text = """(defun g (x st)
  (declare (xargs :signature ((natp stp) stp)))
  (update-retval x st))

(defun h (x st)
  (declare (xargs :signature ((natp stp) stp)))
  (g x st))

(defun f (st)
  (declare (xargs :signature ((stp) stp)))
  (if (= 1 1)
      (h 2 (g 1 st))
    (metlist ((st) (h 3 st)) (g 4 st))))
"""
    program = load_program(text)
    assert [[(c.name, tail) for c, tail in sites] for sites in program.calls] == [
        [], [("g", True)], [("g", False), ("h", True), ("h", False), ("g", True)]]
    assert program.calls[2][0][0] == Call("g", (Const(1), Var("st")))
    broken = FunProgram(program.defs[:1] + program.defs[2:])
    with pytest.raises(LoadError, match="f: call of undefined h"):
        validate_program(broken)
    assert broken.calls is None and broken.unproven is None
    # every definition passes, but the defun-general is no loop
    shapeless = FunProgram(tuple(_parse_def(f) for f in _read_sexprs(
        "(defun-general w (done st) (declare (xargs :signature ((natp stp) stp))) st)")))
    with pytest.raises(LoadError, match="w: defun-general is only valid"):
        validate_program(shapeless)
    assert shapeless.calls is None


def test_validate_program_on_random_translations():
    rng = random.Random(4242)
    for _ in range(25):
        program = translate_module(parse_text(gen_program(rng)))
        validate_program(program)  # closed terms, threading, clique shapes


# ---------------------------------------------------------------------------
# Translation rejections
# ---------------------------------------------------------------------------

def test_exit_value_not_carried_is_rejected():
    # %keep (the pre-increment j) is live at the exit but no frame slot
    # carries it: phi j's latch actual is %j.next, not %j
    src = """define i64 @f(i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %out, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %j.next = add i64 %j, 1
  %t = trunc i64 %j.next to i32
  %e = icmp eq i32 %t, %n
  br i1 %e, label %out, label %loop

out:
  %r = phi i64 [ 0, %0 ], [ %j, %loop ]
  ret i64 %r
}
"""
    with pytest.raises(AnalysisError, match="not carried"):
        translate_module(parse_text(src))


def test_mismatched_guard_edge_value_rejected():
    # skip path would deliver 5, loop path delivers the num slot (init 0)
    src = """define i64 @f(i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %out, label %loop

loop:
  %num = phi i64 [ %num.next, %loop ], [ 0, %0 ]
  %num.next = add i64 %num, 2
  %t = trunc i64 %num.next to i32
  %e = icmp eq i32 %t, %n
  br i1 %e, label %out, label %loop

out:
  %r = phi i64 [ 5, %0 ], [ %num.next, %loop ]
  ret i64 %r
}
"""
    with pytest.raises(AnalysisError, match="guard"):
        translate_module(parse_text(src))


def test_recursive_function_rejected():
    src = """define i64 @f(i64 %x) {
  %r = call i64 @f(i64 %x)
  ret i64 %r
}
"""
    with pytest.raises(AnalysisError, match="recursive"):
        translate_module(parse_text(src))


def test_colliding_definition_names_rejected():
    # @f's block %x and the function @f_x both translate to a def named f_x
    src = """define i64 @f_x(i64 %a) {
  ret i64 %a
}

define i64 @f(i64 %a) {
  br label %x

x:
  ret i64 %a
}
"""
    with pytest.raises(AnalysisError,
                       match=r"translated definition names collide: \['f_x'\]"):
        translate_module(parse_text(src))


def test_call_of_undefined_function_rejected():
    src = "define i64 @f(i64 %x) {\n  %r = call i64 @ghost(i64 %x)\n  ret i64 %r\n}\n"
    with pytest.raises(AnalysisError, match="undefined function"):
        translate_module(parse_text(src))


def test_call_kind_mismatch_rejected():
    src = """define i64 @g(i32 %x) {
  %z = zext i32 %x to i64
  ret i64 %z
}

define i64 @f(i64 %y) {
  %r = call i64 @g(i64 %y)
  ret i64 %r
}
"""
    with pytest.raises(AnalysisError, match="argument kinds"):
        translate_module(parse_text(src))


def test_reserved_register_name_rejected():
    src = """define i64 @f(i32 %n) {
  %done = zext i32 %n to i64
  ret i64 %done
}
"""
    with pytest.raises(AnalysisError, match="reserved"):
        translate_module(parse_text(src))


def test_mangling_collision_rejected():
    src = """define i64 @f(i64 %a.b, i64 %a_dot_b) {
  %r = add i64 %a.b, %a_dot_b
  ret i64 %r
}
"""
    with pytest.raises(AnalysisError, match="mangle"):
        translate_module(parse_text(src))


# One smallest input per analysis and translator rejection that no other
# test reaches, with its exact message.
_ANALYSIS_REJECTIONS = {
    "two back edges": ("""define i64 @f(i1 %c) {
entry:
  br label %h
h:
  br i1 %c, label %l1, label %l2
l1:
  br i1 %c, label %h, label %out
l2:
  br i1 %c, label %h, label %out
out:
  ret i64 0
}
""", "@f: block h heads more than one back edge"),
    "two entry edges": ("""define i64 @f(i1 %c) {
entry:
  br i1 %c, label %h, label %m
m:
  br label %h
h:
  br i1 %c, label %out, label %h
out:
  ret i64 0
}
""", "@f: loop at h needs exactly one entry edge from outside; found ['entry', 'm']"),
    "constant latch condition": ("""define i64 @f(i1 %c) {
entry:
  br label %h
h:
  br i1 false, label %out, label %h
out:
  ret i64 0
}
""", "@f: loop at h: constant latch condition"),
    "preheader is a loop header": ("""define i64 @f(i1 %c) {
entry:
  br label %h
h:
  br label %i
i:
  br i1 %c, label %i, label %l
l:
  br i1 %c, label %h, label %out
out:
  ret i64 0
}
""", "@f: loop at i enters directly from loop header/latch h; a dedicated preheader "
     "block is required"),
    "call width": ("""define i64 @g(i64 %x) {
  ret i64 %x
}

define i64 @f(i64 %y) {
  %r = call i32 @g(i64 %y)
  %z = zext i32 %r to i64
  ret i64 %z
}
""", "@f: call of @g as i32, declared i64"),
    "loop phi without a back-edge value": ("""define i64 @f(i1 %c) {
entry:
  br label %h
h:
  %j = phi i64 [ 0, %entry ], [ 0, %entry ]
  %k = add i64 %j, 1
  br i1 %c, label %out, label %h
out:
  ret i64 0
}
""", "@f: loop phi %j lacks a value on the back edge from h"),
    "phi without a predecessor's value": ("""define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %j
a:
  br label %j
j:
  %r = phi i64 [ 1, %a ], [ 1, %a ]
  ret i64 %r
}
""", "@f: phi %r in j lacks an incoming value for predecessor entry"),
    "exit phi without a loop-edge value": ("""define i64 @f(i1 %c, i1 %g) {
entry:
  br i1 %g, label %out, label %h
h:
  br i1 %c, label %out, label %h
out:
  %r = phi i64 [ 0, %entry ], [ 0, %entry ]
  ret i64 %r
}
""", "@f: phi %r in exit block out lacks a value for the loop edge from h"),
    "exit phi without a guard-edge value": ("""define i64 @f(i1 %c, i1 %g) {
entry:
  br i1 %g, label %out, label %h
h:
  br i1 %c, label %out, label %h
out:
  %r = phi i64 [ 1, %h ], [ 1, %h ]
  ret i64 %r
}
""", "@f: phi %r in exit block out lacks a value for the guard edge from entry"),
    "function named like a primitive": ("""define i64 @bits(i64 %x) {
  ret i64 %x
}
""", "function names collide with primitives: ['bits']"),
}


@pytest.mark.parametrize("case", list(_ANALYSIS_REJECTIONS))
def test_analysis_rejection_texts(case):
    source, message = _ANALYSIS_REJECTIONS[case]
    with pytest.raises(AnalysisError) as err:
        translate_module(parse_text(source))
    assert str(err.value) == message


def _fun(body: str, params: str = "x st", sig: str = "((natp stp) stp)",
         form: str = "defun") -> str:
    return f"({form} f ({params})\n  (declare (xargs :signature {sig}))\n  {body})\n"


# One smallest input per loader rejection that no other test reaches,
# with its exact message.
_LOADER_REJECTIONS = {
    "empty form": (_fun("()"), "empty form"),
    "short if": (_fun("(if x st)"), "if needs a condition and two branches"),
    "metlist shape": (_fun("(metlist ((x st)) st)"),
                      "metlist needs ((names...) (call...)) and a body"),
    "metlist names": (_fun("(metlist ((x 1) (g x st)) st)"), "metlist names must be symbols"),
    "metlist of no call": (_fun("(metlist ((y st) (mvlist x st)) st)"),
                           "metlist must bind the results of a function call"),
    "no input kinds": (_fun("st", sig="()"), "f: signature needs an input kind list"),
    "unknown kind": (_fun("st", sig="((foo_p stp) stp)"),
                     "f: unknown kind predicate in signature"),
    "kind list for a kind": (_fun("st", sig="(((natp) stp) stp)"),
                             "f: unknown kind predicate in signature"),
    "list for a parameter": (_fun("st", "(x) st"), "malformed definition header for 'f'"),
    "repeated": (_fun("st") + "\n" + _fun("st"), "definition f repeated"),
    "state not last": (_fun("(update-retval 0 st)", "st x", "((stp natp) stp)"),
                       "f: last parameter must be the machine state"),
    "two states": (_fun("a", "a st", "((stp stp) stp)"),
                   "f: exactly one state parameter expected"),
    "state not the last result": (_fun("(mvlist st x)", sig="((natp stp) stp natp)"),
                                  "f: the last result, and only it, must be the machine state"),
    "duplicate parameters": (_fun("st", "x x st", "((natp natp stp) stp)"),
                             "f: duplicate parameter names"),
    "one value for two": (_fun("x", sig="((natp stp) natp stp)"),
                          "f: expression yields one value where 2 results are declared"),
    "self-recursion": (_fun("(f x st)"), "f: unexpected self-recursion"),
    "register byte count": (_fun("(update-retval (wfrombytes 8 (loadbytes x 0 st)) st)"),
                            "f: (loadbytes ...) needs a constant in position 0"),
    "recursion outside tail position": (
        _fun("(update-retval 0 (f done st))", "done st", form="defun-general"),
        "f: recursive call outside tail position"),
    "not a definition": ("(f (x 1)\n)", "expected (defun name (params) (declare ...) body), "
                                         "got ['f', ['x', 1]]"),
    "definition of four items": ("(defun f (st) st)", "expected (defun name (params) "
                                 "(declare ...) body), got ['defun', 'f', ['st'], 'st']"),
    "list for a name": ("(defun (f 1) (st) (declare) st)",
                        "malformed definition header for ['f', 1]"),
    "other declaration": (_fun("st", sig="((natp stp) stp) :guard (t 1)").replace(
        "xargs", "ignore"), "f: missing (declare (xargs :signature ...))"),
    "declaration of three items": (_fun("st").replace("stp)))", "stp)) 0)"),
                                   "f: missing (declare (xargs :signature ...))"),
    "more params than kinds": (_fun("st", sig="((stp) stp)"), "f: 2 params but 1 input kinds"),
    "no results": (_fun("st", sig="((natp stp))"), "f: signature declares no results"),
    "let* of no list": (_fun("(let* x st)"), "let* needs a binding list and a body"),
    "let* of two bodies": (_fun("(let* ((y (g))) st st)"), "let* needs a binding list and a body"),
    "binding of three items": (_fun("(let* ((y 1 (g))) st)"), "bad let* binding: ['y', 1, ['g']]"),
    "binding of a number": (_fun("(let* ((007 x)) st)"), "bad let* binding: [7, 'x']"),
    "atom for a binding": (_fun("(let* (y) st)"), "bad let* binding: y"),
    "list for a head": (_fun("((g 1) st)"), "bad application head: ['g', 1]"),
    "number for a head": (_fun("(007 st)"), "bad application head: 7"),
    "primitive arity": (_fun("(update-retval x)"), "primitive update-retval takes 2 args, got 1"),
    "if of four parts": (_fun("(if x st st (g))"), "if needs a condition and two branches"),
    "metlist of a flat pair": (_fun("(metlist (a b) st)"), "metlist names must be symbols"),
    # a form's count is checked before its parts
    "let* of two bodies and a bad part": (_fun("(let* ((y (7 x))) st st)"),
                                          "let* needs a binding list and a body"),
    "binding of three items and a bad part": (_fun("(let* ((y (7 x) 1)) st)"),
                                              "bad let* binding: ['y', [7, 'x'], 1]"),
    "declaration of three items and a bad kind": (
        _fun("st").replace("stp)))", "stp)) 0)").replace("natp", "foo_p"),
        "f: missing (declare (xargs :signature ...))"),
    # what the loader does not use is read all the same
    "bad number in an unused part of xargs": (_fun("st", sig="((natp stp) stp) :guard ²"),
                                              "line 2: bad number '²'"),
    "depth 65 in an unused part of xargs": (
        _fun("st", sig="((natp stp) stp) " + "(" * 62 + ")" * 62),
        "line 2: forms nest deeper than 64 levels"),
}


@pytest.mark.parametrize("case", list(_LOADER_REJECTIONS))
def test_loader_rejection_texts(case):
    text, message = _LOADER_REJECTIONS[case]
    with pytest.raises(LoadError) as err:
        load_program(text)
    assert str(err.value) == message


_SHAPELESS_FIRST = "(defun f (st) (declare (xargs :signature ((stp) stp))) (if st st))\n"
_SECOND = "(defun g (st)\n  (declare (xargs :signature ((stp) stp)))\n  {})\n"

# Texts with errors of two of the loader's passes, each with the error
# that wins: the reader's faults anywhere in the text, then the shape of
# each definition in order, then repeated names, then validation.
_PRECEDENCE = {
    "unbalanced '(' after a shape error": (_SHAPELESS_FIRST + _SECOND.format("st") + "(",
                                          "unbalanced '(' at end of input"),
    "depth 65 after a shape error": (_SHAPELESS_FIRST + "(" * 65 + ")" * 65,
                                     "line 2: forms nest deeper than 64 levels"),
    "bad number after a shape error": (_SHAPELESS_FIRST + _SECOND.format("(update-retval ² st)"),
                                       "line 4: bad number '²'"),
    "atom outside any form after a shape error": (_SHAPELESS_FIRST + "\n x",
                                                  "line 3: atom 'x' outside any form"),
    "shape error before a repeated name": (
        _SECOND.format("st") + _SECOND.format("(if st st)") + _SECOND.format("st"),
        "if needs a condition and two branches"),
    "repeated name before a validation error": (
        _SECOND.format("(update-retval ghost st)") + _SECOND.format("st"),
        "definition g repeated"),
}


@pytest.mark.parametrize("case", list(_PRECEDENCE))
def test_load_error_precedence(case):
    text, message = _PRECEDENCE[case]
    with pytest.raises(LoadError) as err:
        load_program(text)
    assert str(err.value) == message
    assert _load_outcome(_reference_load, text) == message


def test_empty_module_translates_to_empty_program():
    program = translate_module(parse_text(""))
    assert program.defs == ()
    assert emit_sexpr(program) == "\n"
