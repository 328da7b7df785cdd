"""Translation shapes, emission golden, load/emit fixpoint, validators."""

import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from llgen import gen_program  # noqa: E402

from ll2fun import (  # noqa: E402
    AnalysisError, LoadError, emit_sexpr, load_program, parse_text,
    translate_function, translate_module, validate_program,
)
from ll2fun.fun_ir import (  # noqa: E402
    Call, Const, FunProgram, If, LetStar, Metlist, Mvlist, Prim, Var,
    emit_def, free_vars, validate_clique,
)

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
    defs = translate_function(occurrences_module, "occurrences")
    assert defs[-1].name == "occurrences"
    assert len(defs) == 7


def test_constant_return_function_is_driver_plus_block():
    m = parse_text("define i64 @zero() {\n  ret i64 0\n}\n")
    defs = translate_function(m, "zero")
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


def test_empty_module_translates_to_empty_program():
    program = translate_module(parse_text(""))
    assert program.defs == ()
    assert emit_sexpr(program) == "\n"
