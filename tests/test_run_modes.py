"""Run modes: checked, unchecked, budgeted and traced runs of the same
compiled program.

The outcome table pins what each run mode does on hand-written bad
programs: the value, the fault with its message and context, the
signature violation with its message, or budget exhaustion with the
iteration counts, plus the length and last line of the trace.  Its
literals were recorded from the evaluator that wrapped the compiled
functions in checking, budget and trace closures; the single compiled
source must reproduce them."""

import dis
import hashlib
import io
import pathlib
import random
import re
import sys
import threading
import time
import tracemalloc
import types

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from llgen import gen_diamond_chain, gen_program, gen_state_args  # noqa: E402
from test_differential import WINDOWS  # noqa: E402
from test_evaluator import _perfbench_workloads  # noqa: E402
from test_linear_state import FILL_LL  # noqa: E402

from ll2fun import (  # noqa: E402
    BudgetExhausted, EvalFault, FunProgram, Ll2FunError, LoadError, emit_sexpr, load_program,
    make_state, parse_file, parse_text, translate_module, wr_n,
)
from ll2fun import evaluator  # noqa: E402
from ll2fun.cli import main  # noqa: E402
from ll2fun.evaluator import ProgramEvaluator  # noqa: E402
from ll2fun.fun_ir import Unproven  # noqa: E402

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = (FIXTURES / "occurrences.fun.golden").read_text()
NESTSUM = emit_sexpr(translate_module(parse_file(str(FIXTURES / "nestsum.ll"))))
FILL = emit_sexpr(translate_module(parse_text(FILL_LL)))
ALL = (1 << 64) - 1


def _words(base: int, values) -> dict[int, int]:
    mem = {}
    for j, v in enumerate(values):
        for k in range(8):
            if (v >> (8 * k)) & 0xFF:
                mem[base + 8 * j + k] = (v >> (8 * k)) & 0xFF
    return mem


def _variant(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new)


ARRAY = _words(0x8000, [399, 5, 399, 7, 399, 1, 2, 3])
STEP_SIG = ("((natp i64_p i64_p addr_p i32_p i64_p stp) "
            "natp i64_p i64_p addr_p i32_p i64_p stp)")
# the step's count parameter and result are i1: the third match yields 2
OCC_I1 = _variant(GOLDEN, STEP_SIG, STEP_SIG.replace("natp i64_p", "natp i1_p"))
# the step takes val as i8 where the while passes an i64
OCC_VAL8 = _variant(GOLDEN, STEP_SIG, STEP_SIG.replace("i32_p i64_p", "i32_p i8_p"))
# a negative shift count, in the inner loop, at inner j1 = 5 (global step 7)
NEST_SHIFT = _variant(NESTSUM, "(prod (bits (* i j1) 63 0))",
                      "(prod (bits (* i (shl 64 j1 (- 4 j1))) 63 0))")
SIG = """(defun narrow (x st)
  (declare (xargs :signature ((i8_p stp) stp)))
  (update-retval x st))

(defun caller (x st)
  (declare (xargs :signature ((i64_p stp) stp)))
  (narrow x st))

(defun badres (x st)
  (declare (xargs :signature ((i64_p stp) i8_p stp)))
  (mvlist x st))

(defun useres (x st)
  (declare (xargs :signature ((i64_p stp) stp)))
  (metlist ((y st) (badres x st)) (update-retval y st)))

(defun unbal (st)
  (declare (xargs :signature ((stp) stp)))
  (end-stack-frame st))
"""

# case: (program, entry, args, initial memory, budget of the budgeted runs)
CASES = {
    "occ_ok": (GOLDEN, "occurrences", (399, 8, 0x8000), ARRAY, 5),
    "occ_fault": (GOLDEN, "occurrences", (0, 8, (1 << 32) - 4), ARRAY, 100),
    "occ_i1": (OCC_I1, "occurrences", (399, 8, 0x8000), ARRAY, 2),
    "occ_val8": (OCC_VAL8, "occurrences", (399, 8, 0x8000), ARRAY, 3),
    "occ_val8_ok": (OCC_VAL8, "occurrences", (5, 8, 0x8000), ARRAY, 8),
    "fill_fault": (FILL, "fill", ((1 << 32) - 84, 100, ALL), {}, 10),
    "fill_fault_b": (FILL, "fill", ((1 << 32) - 84, 100, ALL), {}, 11),
    "nest_20": (NESTSUM, "nestsum", (6, 6), {}, 20),
    "nest_41": (NESTSUM, "nestsum", (6, 6), {}, 41),
    "nest_42": (NESTSUM, "nestsum", (6, 6), {}, 42),
    "nest_shift": (NEST_SHIFT, "nestsum", (6, 6), {}, 6),
    "nest_shift7": (NEST_SHIFT, "nestsum", (6, 6), {}, 7),
    "sig_arg": (SIG, "caller", (300,), {}, 1),
    "sig_entry": (SIG, "narrow", (300,), {}, 1),
    "sig_res": (SIG, "useres", (300,), {}, 1),
    "unbal": (SIG, "unbal", (), {}, 1),
}

# case: (checked, unchecked, budgeted, budgeted unchecked, and for the
# same four runs traced: (trace lines, last line up to its state))
PINNED = {
    "occ_ok": (
        ("value", 3, 8),
        ("value", 3, 8),
        ("budget", "step budget of 5 exhausted in occurrences_step_0_while", {"occurrences_step_0_while": 6}),
        ("budget", "step budget of 5 exhausted in occurrences_step_0_while", {"occurrences_step_0_while": 6}),
        [(28, "<- occurrences"), (28, "<- occurrences"), (15, "-> occurrences_step_0 0 3 5 32768 8 399"), (15, "-> occurrences_step_0 0 3 5 32768 8 399")]),
    "occ_fault": (
        ("EvalFault", "rd_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry occurrences, step 1]"),
        ("EvalFault", "rd_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry occurrences, step 1]"),
        ("EvalFault", "rd_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry occurrences, step 1]"),
        ("EvalFault", "rd_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry occurrences, step 1]"),
        [(5, "-> occurrences_step_0 0 0 0 4294967292 8 0"), (5, "-> occurrences_step_0 0 0 0 4294967292 8 0"), (5, "-> occurrences_step_0 0 0 0 4294967292 8 0"), (5, "-> occurrences_step_0 0 0 0 4294967292 8 0")]),
    "occ_i1": (
        ("SignatureViolation", "occurrences_step_0: result 2 fails i1 (got 2) [def occurrences_step_0]"),
        ("value", 3, 8),
        ("budget", "step budget of 2 exhausted in occurrences_step_0_while", {"occurrences_step_0_while": 3}),
        ("budget", "step budget of 2 exhausted in occurrences_step_0_while", {"occurrences_step_0_while": 3}),
        [(9, "-> occurrences_step_0 0 1 2 32768 8 399"), (28, "<- occurrences"), (9, "-> occurrences_step_0 0 1 2 32768 8 399"), (9, "-> occurrences_step_0 0 1 2 32768 8 399")]),
    "occ_val8": (
        ("SignatureViolation", "occurrences_step_0: argument 6 fails i8 (got 399) [def occurrences_step_0]"),
        ("value", 3, 8),
        ("SignatureViolation", "occurrences_step_0: argument 6 fails i8 (got 399) [def occurrences_step_0]"),
        ("budget", "step budget of 3 exhausted in occurrences_step_0_while", {"occurrences_step_0_while": 4}),
        [(5, "-> occurrences_step_0 0 0 0 32768 8 399"), (28, "<- occurrences"), (5, "-> occurrences_step_0 0 0 0 32768 8 399"), (11, "-> occurrences_step_0 0 2 3 32768 8 399")]),
    "occ_val8_ok": (
        ("value", 1, 8),
        ("value", 1, 8),
        ("value", 1, 8),
        ("value", 1, 8),
        [(28, "<- occurrences"), (28, "<- occurrences"), (28, "<- occurrences"), (28, "<- occurrences")]),
    "fill_fault": (
        ("EvalFault", "wr_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry fill, step 11]"),
        ("EvalFault", "wr_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry fill, step 11]"),
        ("budget", "step budget of 10 exhausted in fill_step_0_while", {"fill_step_0_while": 11}),
        ("budget", "step budget of 10 exhausted in fill_step_0_while", {"fill_step_0_while": 11}),
        [(25, "-> fill_step_0 0 10 55 18446744073709551615 4294967212 100"), (25, "-> fill_step_0 0 10 55 18446744073709551615 4294967212 100"), (25, "-> fill_step_0 0 10 55 18446744073709551615 4294967212 100"), (25, "-> fill_step_0 0 10 55 18446744073709551615 4294967212 100")]),
    "fill_fault_b": (
        ("EvalFault", "wr_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry fill, step 11]"),
        ("EvalFault", "wr_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry fill, step 11]"),
        ("EvalFault", "wr_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry fill, step 11]"),
        ("EvalFault", "wr_n: address range [0xfffffffc, 0x100000004) exceeds 32-bit memory [entry fill, step 11]"),
        [(25, "-> fill_step_0 0 10 55 18446744073709551615 4294967212 100"), (25, "-> fill_step_0 0 10 55 18446744073709551615 4294967212 100"), (25, "-> fill_step_0 0 10 55 18446744073709551615 4294967212 100"), (25, "-> fill_step_0 0 10 55 18446744073709551615 4294967212 100")]),
    "nest_20": (
        ("value", 225, 42),
        ("value", 225, 42),
        ("budget", "step budget of 20 exhausted in nestsum_step_0_while", {"nestsum_step_0_while": 18, "nestsum_step_1_while": 3}),
        ("budget", "step budget of 20 exhausted in nestsum_step_0_while", {"nestsum_step_0_while": 18, "nestsum_step_1_while": 3}),
        [(156, "<- nestsum"), (156, "<- nestsum"), (67, "-> nestsum_step_0 0 5 35 2 6 6"), (67, "-> nestsum_step_0 0 5 35 2 6 6")]),
    "nest_41": (
        ("value", 225, 42),
        ("value", 225, 42),
        ("budget", "step budget of 41 exhausted in nestsum_step_0_while", {"nestsum_step_0_while": 36, "nestsum_step_1_while": 6}),
        ("budget", "step budget of 41 exhausted in nestsum_step_0_while", {"nestsum_step_0_while": 36, "nestsum_step_1_while": 6}),
        [(156, "<- nestsum"), (156, "<- nestsum"), (139, "-> nestsum_step_0 0 5 200 5 6 6"), (139, "-> nestsum_step_0 0 5 200 5 6 6")]),
    "nest_42": (
        ("value", 225, 42),
        ("value", 225, 42),
        ("value", 225, 42),
        ("value", 225, 42),
        [(156, "<- nestsum"), (156, "<- nestsum"), (156, "<- nestsum"), (156, "<- nestsum")]),
    "nest_shift": (
        ("EvalFault", "shl: negative shift count -1 [entry nestsum, step 7]"),
        ("EvalFault", "shl: negative shift count -1 [entry nestsum, step 7]"),
        ("budget", "step budget of 6 exhausted in nestsum_step_0_while", {"nestsum_step_0_while": 6, "nestsum_step_1_while": 1}),
        ("budget", "step budget of 6 exhausted in nestsum_step_0_while", {"nestsum_step_0_while": 6, "nestsum_step_1_while": 1}),
        [(19, "-> nestsum_step_0 0 5 0 0 6 6"), (19, "-> nestsum_step_0 0 5 0 0 6 6"), (19, "-> nestsum_step_0 0 5 0 0 6 6"), (19, "-> nestsum_step_0 0 5 0 0 6 6")]),
    "nest_shift7": (
        ("EvalFault", "shl: negative shift count -1 [entry nestsum, step 7]"),
        ("EvalFault", "shl: negative shift count -1 [entry nestsum, step 7]"),
        ("EvalFault", "shl: negative shift count -1 [entry nestsum, step 7]"),
        ("EvalFault", "shl: negative shift count -1 [entry nestsum, step 7]"),
        [(19, "-> nestsum_step_0 0 5 0 0 6 6"), (19, "-> nestsum_step_0 0 5 0 0 6 6"), (19, "-> nestsum_step_0 0 5 0 0 6 6"), (19, "-> nestsum_step_0 0 5 0 0 6 6")]),
    "sig_arg": (
        ("SignatureViolation", "narrow: argument 1 fails i8 (got 300) [def narrow]"),
        ("value", 300, 0),
        ("SignatureViolation", "narrow: argument 1 fails i8 (got 300) [def narrow]"),
        ("value", 300, 0),
        [(2, "-> narrow 300"), (4, "<- caller"), (2, "-> narrow 300"), (4, "<- caller")]),
    "sig_entry": (
        ("SignatureViolation", "narrow: argument 1 fails i8 (got 300) [def narrow]"),
        ("value", 300, 0),
        ("SignatureViolation", "narrow: argument 1 fails i8 (got 300) [def narrow]"),
        ("value", 300, 0),
        [(1, "-> narrow 300"), (2, "<- narrow"), (1, "-> narrow 300"), (2, "<- narrow")]),
    "sig_res": (
        ("SignatureViolation", "badres: result 1 fails i8 (got 300) [def badres]"),
        ("value", 300, 0),
        ("SignatureViolation", "badres: result 1 fails i8 (got 300) [def badres]"),
        ("value", 300, 0),
        [(2, "-> badres 300"), (4, "<- useres"), (2, "-> badres 300"), (4, "<- useres")]),
    "unbal": (
        ("EvalFault", "end_stack_frame without matching begin_stack_frame [entry unbal, step 0]"),
        ("EvalFault", "end_stack_frame without matching begin_stack_frame [entry unbal, step 0]"),
        ("EvalFault", "end_stack_frame without matching begin_stack_frame [entry unbal, step 0]"),
        ("EvalFault", "end_stack_frame without matching begin_stack_frame [entry unbal, step 0]"),
        [(1, "-> unbal"), (1, "-> unbal"), (1, "-> unbal"), (1, "-> unbal")]),
}

MODES = ((True, False), (False, False), (True, True), (False, True))  # checking, budgeted


def _outcome(text, entry, args, mem, checking, budget, trace, whole=False):
    """The run's outcome and (trace lines, last line up to its state), or
    with whole the trace text itself."""
    ev = ProgramEvaluator(load_program(text))
    ev.trace_out = out = io.StringIO()
    try:
        r = ev.run(entry, args, make_state(mem=mem), checking=checking, budget=budget,
                   trace=trace)
        res = ("value", r.state.retval, r.iterations)
    except BudgetExhausted as e:
        res = ("budget", str(e), e.counts)
    except EvalFault as e:
        assert str(e).endswith(f" [{e.context}]")
        res = (type(e).__name__, str(e))
    if whole:
        return res, out.getvalue()
    lines = out.getvalue().splitlines()
    return res, (len(lines), lines[-1].split(" (st ")[0] if lines else "")


@pytest.mark.parametrize("case", sorted(PINNED))
def test_outcomes_match_pinned_table(case):
    text, entry, args, mem, budget = CASES[case]
    *want, traces = PINNED[case]
    for (checking, budgeted), expected, trace in zip(MODES, want, traces):
        limit = budget if budgeted else None
        got, _ = _outcome(text, entry, args, mem, checking, limit, False)
        assert got == expected, (case, checking, limit)
        assert _outcome(text, entry, args, mem, checking, limit, True) == (expected, trace), \
            (case, checking, limit, "traced")


# ---------------------------------------------------------------------------
# A loop whose step ends in a diamond
# ---------------------------------------------------------------------------

# the step branches to left or right, and both tail call latch: the loop
# calls them as definitions, so their trace lines come between the step's
# entry and exit lines
ALT_LL = """\
define i64 @alt(i32 %n, i64 %k) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %exit, label %header

header:
  %i = phi i64 [ %i.next, %latch ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %latch ], [ 1, %0 ]
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %left, label %right

left:
  %a.l = add i64 %acc, %k
  br label %latch

right:
  %a.r = mul i64 %acc, 3
  br label %latch

latch:
  %acc.next = phi i64 [ %a.l, %left ], [ %a.r, %right ]
  %i.next = add i64 %i, 1
  %i.32 = trunc i64 %i.next to i32
  %fin = icmp eq i32 %i.32, %n
  br i1 %fin, label %exit, label %header

exit:
  %r = phi i64 [ 1, %0 ], [ %acc.next, %latch ]
  ret i64 %r
}
"""
ALT = emit_sexpr(translate_module(parse_text(ALT_LL)))
ALT_STEP_SIG = "((natp i64_p i64_p i64_p i32_p stp) natp i64_p i64_p i64_p i32_p stp)"
# acc as i8: a step result fails once acc passes 255
ALT_I8 = _variant(ALT, ALT_STEP_SIG, ALT_STEP_SIG.replace("i64_p i64_p i64_p", "i64_p i8_p i64_p"))
# k as i8: the step's first entry fails when k is 300
ALT_K8 = _variant(ALT, ALT_STEP_SIG, ALT_STEP_SIG.replace("i64_p i64_p i64_p", "i64_p i64_p i8_p"))
# a negative shift count in the left arm, at i = 5
ALT_SHL = _variant(ALT, "(a_dot_l (bits (+ acc k) 63 0))",
                   "(a_dot_l (bits (+ acc (shl 64 k (- 4 i))) 63 0))")

# case: (program, args of alt, budget of the budgeted runs)
ALT_CASES = {
    "alt_ok": (ALT, (6, 7), 6),
    "alt_b3": (ALT, (6, 7), 3),
    "alt_i8": (ALT_I8, (9, 7), 3),
    "alt_i8_b8": (ALT_I8, (9, 7), 8),
    "alt_k8": (ALT_K8, (6, 300), 2),
    "alt_shl": (ALT_SHL, (9, 7), 5),
    "alt_shl_b6": (ALT_SHL, (9, 7), 6),
}

# case: for each of MODES, the outcome and, of the traced run, (trace
# lines, last line up to its state, the first 16 hex digits of the
# trace text's sha256); recorded from the evaluator whose traced loops
# called the step as a definition
ALT_PINNED = {
    'alt_ok': (
        (('value', 118, 6), (48, '<- alt', '784cebe519bd8df8')),
        (('value', 118, 6), (48, '<- alt', '784cebe519bd8df8')),
        (('value', 118, 6), (48, '<- alt', '784cebe519bd8df8')),
        (('value', 118, 6), (48, '<- alt', '784cebe519bd8df8')),
    ),
    'alt_b3': (
        (('value', 118, 6), (48, '<- alt', '784cebe519bd8df8')),
        (('value', 118, 6), (48, '<- alt', '784cebe519bd8df8')),
        (('budget', 'step budget of 3 exhausted in alt_step_0_while', {'alt_step_0_while': 4}), (23, '-> alt_step_0 0 3 30 7 6', '58d9d1000b2c9192')),
        (('budget', 'step budget of 3 exhausted in alt_step_0_while', {'alt_step_0_while': 4}), (23, '-> alt_step_0 0 3 30 7 6', '58d9d1000b2c9192')),
    ),
    'alt_i8': (
        (('SignatureViolation', 'alt_step_0: result 3 fails i8 (got 354) [def alt_step_0]'), (45, '<- alt_right 0 7 354 7 9', 'da5b205dae0c04a8')),
        (('value', 1083, 9), (66, '<- alt', '37ed96e9360fe1f0')),
        (('budget', 'step budget of 3 exhausted in alt_step_0_while', {'alt_step_0_while': 4}), (23, '-> alt_step_0 0 3 30 7 9', 'cfdd89187feb48e3')),
        (('budget', 'step budget of 3 exhausted in alt_step_0_while', {'alt_step_0_while': 4}), (23, '-> alt_step_0 0 3 30 7 9', 'cfdd89187feb48e3')),
    ),
    'alt_i8_b8': (
        (('SignatureViolation', 'alt_step_0: result 3 fails i8 (got 354) [def alt_step_0]'), (45, '<- alt_right 0 7 354 7 9', 'da5b205dae0c04a8')),
        (('value', 1083, 9), (66, '<- alt', '37ed96e9360fe1f0')),
        (('SignatureViolation', 'alt_step_0: result 3 fails i8 (got 354) [def alt_step_0]'), (45, '<- alt_right 0 7 354 7 9', 'da5b205dae0c04a8')),
        (('budget', 'step budget of 8 exhausted in alt_step_0_while', {'alt_step_0_while': 9}), (53, '-> alt_step_0 0 8 361 7 9', 'b77cf42a22063054')),
    ),
    'alt_k8': (
        (('SignatureViolation', 'alt_step_0: argument 4 fails i8 (got 300) [def alt_step_0]'), (5, '-> alt_step_0 0 0 1 300 6', 'ee61fd039abc7936')),
        (('value', 3927, 6), (48, '<- alt', 'eaff103f81466355')),
        (('SignatureViolation', 'alt_step_0: argument 4 fails i8 (got 300) [def alt_step_0]'), (5, '-> alt_step_0 0 0 1 300 6', 'ee61fd039abc7936')),
        (('budget', 'step budget of 2 exhausted in alt_step_0_while', {'alt_step_0_while': 3}), (17, '-> alt_step_0 0 2 303 300 6', 'aa78434e33f459a8')),
    ),
    'alt_shl': (
        (('EvalFault', 'shl: negative shift count -1 [entry alt, step 6]'), (36, '-> alt_left 573 7 5 9', 'b64817c9b4007cb2')),
        (('EvalFault', 'shl: negative shift count -1 [entry alt, step 6]'), (36, '-> alt_left 573 7 5 9', 'b64817c9b4007cb2')),
        (('budget', 'step budget of 5 exhausted in alt_step_0_while', {'alt_step_0_while': 6}), (35, '-> alt_step_0 0 5 573 7 9', 'afd176bbe03839e9')),
        (('budget', 'step budget of 5 exhausted in alt_step_0_while', {'alt_step_0_while': 6}), (35, '-> alt_step_0 0 5 573 7 9', 'afd176bbe03839e9')),
    ),
    'alt_shl_b6': (
        (('EvalFault', 'shl: negative shift count -1 [entry alt, step 6]'), (36, '-> alt_left 573 7 5 9', 'b64817c9b4007cb2')),
        (('EvalFault', 'shl: negative shift count -1 [entry alt, step 6]'), (36, '-> alt_left 573 7 5 9', 'b64817c9b4007cb2')),
        (('EvalFault', 'shl: negative shift count -1 [entry alt, step 6]'), (36, '-> alt_left 573 7 5 9', 'b64817c9b4007cb2')),
        (('EvalFault', 'shl: negative shift count -1 [entry alt, step 6]'), (36, '-> alt_left 573 7 5 9', 'b64817c9b4007cb2')),
    ),
}


@pytest.mark.parametrize("case", sorted(ALT_PINNED))
def test_loop_diamond_matches_pinned_table(case):
    """Outcome, first violation and whole trace text in every mode, for a
    loop whose step ends in an if over two tail calls."""
    text, args, budget = ALT_CASES[case]
    for (checking, budgeted), (expected, trace) in zip(MODES, ALT_PINNED[case]):
        limit = budget if budgeted else None
        assert _outcome(text, "alt", args, {}, checking, limit, False) == (expected, (0, "")), \
            (case, checking, limit)
        got, text_out = _outcome(text, "alt", args, {}, checking, limit, True, whole=True)
        digest = hashlib.sha256(text_out.encode()).hexdigest()[:16]
        lines = text_out.splitlines()
        assert (got, (len(lines), lines[-1].split(" (st ")[0], digest)) == (expected, trace), \
            (case, checking, limit, "traced")


# ---------------------------------------------------------------------------
# Per-while counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("checking", [True, False])
@pytest.mark.parametrize("budget", [None, 42, 10**6])
def test_per_while_counts_on_every_run(checking, budget):
    ev = ProgramEvaluator(load_program(NESTSUM))
    res = ev.run("nestsum", (6, 6), make_state(), checking=checking, budget=budget)
    assert res.state.retval == 225
    assert res.per_while == {"nestsum_step_1_while": 6, "nestsum_step_0_while": 36}
    assert res.iterations == 42


def test_run_trace_prints_per_while_counts(tmp_path, capsys):
    path = tmp_path / "nestsum.fun"
    path.write_text(NESTSUM)
    assert main(["run", str(path), "--entry", "nestsum", "--args", "6", "6",
                 "--trace"]) == 0
    err = capsys.readouterr().err
    assert "# 42 loop iterations" in err
    assert "# while nestsum_step_0_while: 36 iterations" in err
    assert "# while nestsum_step_1_while: 6 iterations" in err


# ---------------------------------------------------------------------------
# One compiled source
# ---------------------------------------------------------------------------

def test_one_source_serves_every_mode():
    """Codegen and compile happen once, in __init__; the loop is fused in
    every mode, traced or not: one `while` that calls no step and unrolls
    its 8-byte load.  Every check of the translated loop is proven, so it
    compiles none; a step result that may fail is checked inline."""
    ev = ProgramEvaluator(load_program(GOLDEN))
    source, namespace = ev.source, dict(ev._ns)
    for checking, budgeted in MODES:
        for trace in (False, True):
            ev.trace_out = io.StringIO()
            ev.run("occurrences", (399, 8, 0x8000), make_state(mem=ARRAY),
                   checking=checking, budget=100 if budgeted else None, trace=trace)
    assert ev.source == source
    assert {k: v for k, v in ev._ns.items() if callable(v)} == \
        {k: v for k, v in namespace.items() if callable(v)}
    for layer in ("_wrap_checking", "_checking_wrapper", "_wrap_budget", "_wrap_trace",
                  "_variants"):
        assert not hasattr(ev, layer)
    start = source.index("def d3_")
    loop = source[start:source.index("\ndef ", start)]
    assert len(re.findall(r"^\s*while ", loop, re.M)) == 1
    assert "d2_occurrences_step_0(" not in loop
    assert "    _pg = v_st.mem.pages\n    _wb0, _we0 = 1, 0\n" in loop.split("while ")[0]
    assert ("            if _wb0 <= v_scevgep <= _we0:\n"
            "                v__2 = _unpack8(_wp0, v_scevgep - _wb0)[0]\n" in loop
            and "                if _o <= 4088:\n" in loop
            and "                    _wp0 = _pg.get(v_scevgep >> 12, _zero)\n" in loop
            and "_rd_n(8, v_scevgep" in loop)
    assert "_bad(" not in loop and "_chk" not in loop
    grow = ProgramEvaluator(load_program(GROW)).source
    start = grow.index("def d1_grow_step_0_while(")
    loop = grow[start:grow.index("\ndef ", start)]
    assert "_chk and not ((isinstance(v_acc, int) and 0 <= v_acc < 18446744073709551616)): " \
        "_bad(0, (v_done, v_acc, v_k, v_n, v_st,), 'result')" in loop


def test_step_defs_compile_on_first_use():
    """A loop inlines its step's body, so the step's own function is left
    out of the program's source; a run that enters the step directly
    compiles it then, and runs and traces as before in every mode."""
    ev = ProgramEvaluator(load_program(GOLDEN))
    assert not re.search(r"^def d\d+_occurrences_step_0\(", ev.source, re.M)
    assert ev.regions["occurrences_step_0"] == ("occurrences_step_0",)
    st = "(st retval=0 stack=0xffff0000 frame=0xffff0000 mem/11)"
    for checking, budgeted in MODES:
        ev.trace_out = io.StringIO()
        res = ev.run("occurrences_step_0", (0, 0, 0, 0x8000, 8, 399), make_state(mem=ARRAY),
                     checking=checking, budget=100 if budgeted else None, trace=True)
        assert res.values == (0, 1, 1, 0x8000, 8, 399)
        assert ev.trace_out.getvalue() == (f"-> occurrences_step_0 0 0 0 32768 8 399 {st}\n"
                                           f"<- occurrences_step_0 0 1 1 32768 8 399 {st}\n")
    assert not re.search(r"^def d\d+_occurrences_step_0\(", ev.source, re.M)
    # a step that some other definition calls is compiled with the program
    caller = """
(defun peek (st)
  (declare (xargs :signature ((stp) natp i64_p i64_p addr_p i32_p i64_p stp)))
  (occurrences_step_0 0 0 0 32768 8 399 st))
"""
    ev = ProgramEvaluator(load_program(GOLDEN + caller))
    assert re.search(r"^def d\d+_occurrences_step_0\(", ev.source, re.M)
    assert ev.run("peek", (), make_state(mem=ARRAY)).values == (0, 1, 1, 0x8000, 8, 399)


def test_fused_store_to_a_computed_address():
    """A fused store whose address is an expression, not a name, computes
    it once into `_a`; the runs match the translated fill, whose store
    names its address, in state and iterations, wrapping at 2^32 too."""
    store = "(st (storebytes 8 slot (wtobytes 8 j_dot_next) st))"
    text = _variant(FILL, store,
                    "(st (storebytes 8 (bits (+ p (* k 8)) 31 0) (wtobytes 8 j_dot_next) st))")
    named, computed = (ProgramEvaluator(load_program(t)) for t in (FILL, text))
    start = computed.source.index("def d3_fill_step_0_while(")
    loop = computed.source[start:computed.source.index("\ndef ", start)]
    assert "            _a = ((v_p + (v_k * 8)) & 4294967295)\n" in loop
    assert "_w = _own.get(_a >> 12)" in loop and "_store_word(8, _a, " in loop
    for args in ((0x8000, 5, ALL), (0x1ffc, 3, 1), ((1 << 32) - 16, 4, ALL)):
        for checking in (True, False):
            a, b = (ev.run("fill", args, make_state(mem={0x8000: 9}), checking=checking)
                    for ev in (named, computed))
            assert (b.state, b.iterations) == (a.state, a.iterations)


_IDENTITY = """(defun f (st)
  (declare (xargs :signature ((stp) stp)))
  st)
"""


def test_run_faults_on_its_own_arguments():
    ev = ProgramEvaluator(load_program(_IDENTITY))
    with pytest.raises(EvalFault) as err:
        ev.run("f", (), make_state(), budget=0)
    assert str(err.value) == "budget must be positive"
    # unchecked, nothing looks at the state argument before the end
    with pytest.raises(EvalFault) as err:
        ev.run("f", (), 7, checking=False)
    assert str(err.value) == "f did not return a machine state last"


def test_host_recursion_limit_is_a_fault():
    """A chain of 60 definitions, each calling the one before outside
    tail position, runs 60 frames deep; under a limit of 40 host frames
    the run ends in a fault that names its entry."""
    defs = ["(defun g0 (x st)\n  (declare (xargs :signature ((natp stp) stp)))\n"
            "  (update-retval x st))\n"]
    defs += [f"(defun g{k} (x st)\n  (declare (xargs :signature ((natp stp) stp)))\n"
             f"  (let* ((st (g{k - 1} x st))) (update-retval (+ x {k}) st)))\n"
             for k in range(1, 60)]
    ev = ProgramEvaluator(load_program("\n".join(defs)))
    assert ev.run("g59", (1,), make_state()).state.retval == 60
    faults = []

    def run():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(40)
        try:
            ev.run("g59", (1,), make_state(), checking=False)
        except EvalFault as e:
            faults.append((str(e), e.context))
        finally:
            sys.setrecursionlimit(old)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    assert faults == [("host recursion limit reached inside g59 [def g59]", "def g59")]


def test_the_evaluator_validates_a_program_never_validated(occurrences_program):
    """A bare FunProgram of a translation's definitions has passed no
    validate_program, so its loops and call sites are unknown; the
    evaluator validates it first, and it finds, compiles and runs what
    the loaded program does.  One that fails validation raises the
    loader's LoadError for the same definitions, and is not compiled."""
    loaded = load_program(emit_sexpr(occurrences_program))
    bare = FunProgram(occurrences_program.defs)
    ev, loaded_ev = ProgramEvaluator(bare), ProgramEvaluator(loaded)
    assert (bare.cliques, bare.calls, bare.unproven) == \
        (loaded.cliques, loaded.calls, loaded.unproven)
    assert ev.source == loaded_ev.source
    args = (399, 5000, 0x8000)
    res = ev.run("occurrences", args, make_state())
    want = loaded_ev.run("occurrences", args, make_state())
    assert (res.values, res.state, res.per_while) == (want.values, want.state, want.per_while)
    assert res.per_while == {"occurrences_step_0_while": 5000}
    broken = FunProgram(occurrences_program.defs[1:])  # drops a callee
    with pytest.raises(LoadError) as loading:
        load_program(emit_sexpr(broken))
    message = str(loading.value)
    assert message == "occurrences_continue_0: call of undefined occurrences__crit_edge"
    with pytest.raises(LoadError, match=f"^{message}$"):
        ProgramEvaluator(broken)
    assert broken.calls is None and broken.unproven is None

def _peek_step(n: int, addr: str, lets: str = "") -> str:
    """A step body that loads n bytes at addr, after the bindings lets,
    into retval and is done."""
    return f"""(let* ({lets}(v (wfrombytes {n} (loadbytes {n} {addr} st)))
         (st (update-retval v st))
         (done 1))
    (mvlist done a st))"""


def _peek(n: int, addr: str, lets: str = "", body: str | None = None) -> ProgramEvaluator:
    """peek: a loop of one iteration over (done a st) whose step is body,
    by default `_peek_step(n, addr, lets)`."""
    return ProgramEvaluator(load_program(f"""(defun peek_step_0 (done a st)
  (declare (xargs :signature ((natp natp stp) natp natp stp)))
  {body or _peek_step(n, addr, lets)})

(defun-general peek_step_0_while (done a st)
  (declare (xargs :signature ((natp natp stp) natp stp)))
  (if (= done 1)
      (mvlist a st)
    (metlist ((done a st)
              (peek_step_0 done a st))
      (peek_step_0_while done a st))))

(defun peek_continue_0 (a st)
  (declare (xargs :signature ((natp stp) stp)))
  st)

(defun peek_step_0_while_wrap (a st)
  (declare (xargs :signature ((natp stp) stp)))
  (metlist ((a st)
            (peek_step_0_while 0 a st))
    (peek_continue_0 a st)))

(defun peek (a st)
  (declare (xargs :signature ((natp stp) stp)))
  (let* ((done 0))
    (if (= done 1)
        (peek_continue_0 a st)
      (peek_step_0_while_wrap a st))))
"""))


def _peek_memory(n: int) -> dict[int, int]:
    rng = random.Random(n)
    top = (1 << 32) - n
    mem = {a: rng.randrange(1, 256) for a in range(top - 16, 1 << 32)}
    mem.update({a: rng.randrange(256) for a in range(0x100, 0x120)})
    mem.update({a: rng.randrange(1, 256) for a in range(0x1ff0, 0x2010)})
    return mem


def _assert_peeks(ev: ProgramEvaluator, mem: dict[int, int], n: int, reads, faults,
                  where=lambda a: a):
    """peek of each a in reads reads the n bytes at where(a) as rd_n does,
    in a checked and an unchecked run; each a in faults faults as rd_n does
    at where(a)."""
    st = make_state(mem=mem)
    for a in reads:
        want = sum(mem.get(where(a) + k, 0) << (8 * k) for k in range(n))
        for checking in (True, False):
            assert ev.run("peek", (a,), st, checking=checking).state.retval == want, hex(a)
    for a in faults:
        with pytest.raises(EvalFault) as err:
            ev.run("peek", (a,), st, checking=False)
        b = where(a)
        assert str(err.value) == (f"rd_n: address range [{b:#x}, {b + n:#x}) exceeds "
                                  f"32-bit memory [entry peek, step 1]")


@pytest.mark.parametrize("n", range(1, 9))
def test_unrolled_load_matches_rd_n_and_its_faults(n):
    """A let-bound load inside a loop reads one page of the table the loop
    bound before its `while` behind one range test, reads across a page
    boundary through rd_n, and out of range faults exactly as rd_n does.
    An address the step masks to 32 bits, inline or let-bound, needs no
    test of its range, only of its page offset: it wraps at 2^32, reads
    the last n bytes below it and faults where its n bytes cross it."""
    read = ("_wp0[_o]" if n == 1 else f"_unpack{n}(_wp0, _o)[0]" if n in (2, 4, 8)
            else f"_from_bytes(_wp0[_o:_o + {n}], 'little')")
    mem, top, k = _peek_memory(n), (1 << 32) - n, 7
    ev = _peek(n, "a")
    assert "    _pg = v_st.mem.pages\n" in ev.source and read in ev.source
    assert "_wp0 = _pg.get(v_a >> 12, _zero)\n" in ev.source
    assert f"if _o <= {4096 - n} and 0 <= v_a <= {top}:" in ev.source
    assert f"_rd_n({n}, v_a" in ev.source
    # in a page, ending at and crossing the page boundary at 0x2000, the
    # last n bytes of memory
    reads = [0x100, 0x107, 0x111, 0x2000 - n, 0x1ffd, 0x1fff, top - 1, top]
    _assert_peeks(ev, mem, n, reads, [top + 1, (1 << 32) + 3, 1 << 40, -1])
    masked = [_peek(n, f"(bits (+ a {k}) 31 0)"),
              _peek(n, "b", f"(b (bits (+ a {k}) 31 0))\n         ")]
    for ev in masked:
        assert f"if _o <= {4096 - n}:\n" in ev.source and " <= 4294967" not in ev.source
        assert read in ev.source
        # the same addresses, reached directly and by wrapping past 2^32
        # and 2^33; the n bytes from top + 1 on cross 2^32, reached from
        # below 0 too in an unchecked run
        reads_k = [a - k + lift for a in reads for lift in (0, 1 << 32, 1 << 33)]
        faults_k = [a - k + lift for a in range(top + 1, 1 << 32)
                    for lift in (0, 1 << 32, -(1 << 32))]
        _assert_peeks(ev, mem, n, reads_k, faults_k, lambda a: (a + k) & 0xFFFFFFFF)
        # below 0, which only an unchecked run passes, the last n bytes
        want = sum(mem.get(top + i, 0) << (8 * i) for i in range(n))
        assert ev.run("peek", (top - k - (1 << 32),), make_state(mem=mem),
                      checking=False).state.retval == want


def test_a_masked_address_is_known_in_its_own_branch_only():
    """A step that masks `a` into a new `a` in one branch, and loads from
    the parameter `a` in the other, keeps the other load's range test:
    there an unchecked run's a = 2^32 + 3 faults as rd_n does."""
    then = _peek_step(8, "a", "(a (bits (+ a 1) 31 0))\n         ")
    ev = _peek(8, "", body=f"(if (< a 16)\n  {then}\n  {_peek_step(8, 'a')})")
    assert ev.source.count("if _o <= 4088:\n") == 1
    assert ev.source.count("if _o <= 4088 and 0 <= v_a <= 4294967288:\n") == 1
    st = make_state(mem=_words(0x8, [0x1122334455667788]))
    assert ev.run("peek", (7,), st).state.retval == 0x1122334455667788
    with pytest.raises(EvalFault, match=r"^rd_n: address range \[0x100000003, 0x10000000b\) "
                       r"exceeds 32-bit memory \[entry peek, step 1\]$"):
        ev.run("peek", ((1 << 32) + 3,), st, checking=False)


_POKE_A, _POKE_B = 40503, (1 << 63) + 5  # poke's values: a * _POKE_A and b + _POKE_B


def _poke(n: int, stores: str | None = None) -> ProgramEvaluator:
    """poke: a loop of one iteration over (done a b st) whose step binds
    stores, by default the n bytes of a * _POKE_A at a, then those of
    b + _POKE_B at b."""
    stores = stores or (f"(st (storebytes {n} a (wtobytes {n} (* a {_POKE_A})) st))\n"
                        f"         (st (storebytes {n} b (wtobytes {n} (+ b {_POKE_B})) st))")
    return ProgramEvaluator(load_program(f"""(defun poke_step_0 (done a b st)
  (declare (xargs :signature ((natp natp natp stp) natp natp natp stp)))
  (let* ({stores}
         (done 1))
    (mvlist done a b st)))

(defun-general poke_step_0_while (done a b st)
  (declare (xargs :signature ((natp natp natp stp) natp natp stp)))
  (if (= done 1)
      (mvlist a b st)
    (metlist ((done a b st)
              (poke_step_0 done a b st))
      (poke_step_0_while done a b st))))

(defun poke_continue_0 (a b st)
  (declare (xargs :signature ((natp natp stp) stp)))
  st)

(defun poke_step_0_while_wrap (a b st)
  (declare (xargs :signature ((natp natp stp) stp)))
  (metlist ((a b st)
            (poke_step_0_while 0 a b st))
    (poke_continue_0 a b st)))

(defun poke (a b st)
  (declare (xargs :signature ((natp natp stp) stp)))
  (let* ((done 0))
    (if (= done 1)
        (poke_continue_0 a b st)
      (poke_step_0_while_wrap a b st))))
"""))


@pytest.mark.parametrize("n", range(1, 9))
def test_in_place_store_matches_wr_n_and_its_faults(n):
    """A loop writes a store that lies in a page its run already owns into
    that page: the byte itself, a `state.PACK` write or a slice and
    `int.to_bytes`.  poke's first store makes the run's memory and copies
    a's page through `_store_word`; its second, at b, is written in place
    where b's n bytes lie in that page, and otherwise (another page, a page
    boundary, past 2^32, or below 0 in an unchecked run) goes through
    `_store_word`, which writes or faults as wr_n does.  Checked,
    unchecked and traced runs give the same memory, and only untraced runs
    write in place."""
    write = ("{}[{}] = " if n == 1 else f"_pack{n}({{}}, {{}}, " if n in (2, 4, 8)
             else f"{{}}[{{}}:{{}} + {n}] = ").format
    ev = _poke(n)
    assert (f"if _w is not None and _o <= {4096 - n}:\n"
            f"                    _wp1 = _w\n                    _wb1 = v_b - _o\n"
            f"                    _we1 = _wb1 + {4096 - n}\n"
            f"                    {write('_wp1', '_o', '_o')}") in ev.source
    assert (f"            if _wb1 <= v_b <= _we1:\n"
            f"                {write('_wp1', 'v_b - _wb1', 'v_b - _wb1')}") in ev.source
    top, a = 1 << 32, 0x1010
    mem = {x: (x * 7) % 251 + 1 for x in range(0x1000, 0x1040)}
    mem.update({x: (x * 11) % 251 + 1 for x in range(0x1fe0, 0x2020)})
    mem.update({x: (x * 13) % 251 + 1 for x in range(top - 16, top)})
    st = make_state(mem=mem)
    pages = {p: bytes(page) for p, page in st.mem.pages.items()}
    calls = []
    store_word = ev._ns["_store_word"]

    def counted(*args):
        calls.append(args[1])
        return store_word(*args)
    ev._ns["_store_word"] = counted
    same_page = [a, a + 3, a + 4096 - n - 16, 0x2000 - n]
    other = [0x1fff, 0x2004, 0x7000, top - n]
    faults = [top - n + 1, top - 1, a + top, -1, -top + a]
    for b in same_page + other + faults:
        try:
            want = wr_n(n, b, b + _POKE_B, wr_n(n, a, a * _POKE_A, mem))
        except EvalFault as e:
            want = f"{e} [entry poke, step 1]"
        for checking, trace in ((True, False), (False, False), (False, True)):
            if b < 0 and checking:
                continue  # a checked run refuses the argument
            calls.clear()
            ev.trace_out = io.StringIO()
            try:
                got = ev.run("poke", (a, b), st, checking=checking, trace=trace).state.mem
            except EvalFault as e:
                got = str(e)
            assert got == want, (hex(b), checking, trace)
            direct = not trace and (b in same_page or n == 1 and b == 0x1fff)
            assert calls == ([a] if direct else [a, b]), (hex(b), trace)
    assert {p: bytes(page) for p, page in st.mem.pages.items()} == pages


@pytest.mark.parametrize("n", range(1, 9))
def test_a_loop_store_reduces_only_a_value_its_step_did_not(n):
    """A fused store in a loop writes a value that its step bound to a
    `bits v h 0` with h < 8 n as it is, and reduces any other to its n
    bytes: a parameter, which an unchecked run may pass out of kind, and
    a `bits` of one bit too many (a product at n = 8).  Every run writes
    wr_n's bytes."""
    h, mask = 8 * n - 1, (1 << 8 * n) - 1
    ev = _poke(n, f"""(c (bits (+ b 1) {h} 0))
         (d {f"(bits (* b 3) {h + 1} 0)" if n < 8 else "(* b 3)"})
         (st (storebytes {n} a (wtobytes {n} b) st))
         (st (storebytes {n} (+ a 8) (wtobytes {n} c) st))
         (st (storebytes {n} (+ a 16) (wtobytes {n} d) st))""")
    assert f", (v_b & {mask}))" in ev.source or f"] = (v_b & {mask})" in ev.source
    assert f", v_c)" in ev.source or "] = v_c" in ev.source or "= v_c.to_bytes(" in ev.source
    assert f"(v_c & {mask})" not in ev.source and f"(v_d & {mask})" in ev.source
    a = 0x1ff0
    for b in (7, mask, mask + 2, (1 << 70) + 3, -3, -(1 << 66)):
        want = wr_n(n, a + 16, b * 3, wr_n(n, a + 8, b + 1, wr_n(n, a, b, {})))
        for checking, trace in ((True, False), (False, False), (False, True)):
            if checking and not 0 <= b:
                continue  # a checked run refuses the argument
            ev.trace_out = io.StringIO()
            got = ev.run("poke", (a, b), make_state(), checking=checking, trace=trace).state.mem
            assert got == want, (b, checking, trace)


# ---------------------------------------------------------------------------
# Stores in region code
# ---------------------------------------------------------------------------

def _region_stores(n: int) -> ProgramEvaluator:
    """put stores the n bytes of v at a, of v + 1 at b and of 3 v at c, in
    straight-line code; after stores v + 1 at b once its non-tail call of
    poke1 has stored v at a."""
    return ProgramEvaluator(load_program(f"""(defun poke1 (a v st)
  (declare (xargs :signature ((natp natp stp) stp)))
  (let* ((st (storebytes {n} a (wtobytes {n} v) st)))
    st))

(defun put (a b c v st)
  (declare (xargs :signature ((natp natp natp natp stp) stp)))
  (let* ((st (storebytes {n} a (wtobytes {n} v) st))
         (st (storebytes {n} b (wtobytes {n} (+ v 1)) st))
         (st (storebytes {n} c (wtobytes {n} (* v 3)) st)))
    (update-retval 1 st)))

(defun after (a b v st)
  (declare (xargs :signature ((natp natp natp stp) stp)))
  (let* ((st (poke1 a v st))
         (st (storebytes {n} b (wtobytes {n} (+ v 1)) st)))
    st))
"""))


def _counted_stores(ev: ProgramEvaluator) -> list:
    """The list of the addresses ev's runs pass to `_store_word`, which
    each run appends to."""
    calls = []
    store_word = ev._ns["_store_word"]

    def counted(*args):
        calls.append(args[1])
        return store_word(*args)
    ev._ns["_store_word"] = counted
    return calls


def _stores_outcome(n: int, mem: dict, entry: str, stores, trace: bool):
    """The memory (or fault text) of a run of entry that makes the stores
    [(address, value)] in order, by wr_n, and the addresses it passes to
    `_store_word`: the run's first store, its first to each page, one
    across a page boundary or out of range, and every store of a traced
    run; every other store lies in a page that an earlier `_store_word`
    copied for the run."""
    owned, calls = set(), []
    for x, v in stores:
        inline = not trace and x >> 12 in owned and x & 4095 <= 4096 - n
        if not inline:
            calls.append(x)
        try:
            mem = wr_n(n, x, v, mem)
        except EvalFault as e:
            return f"{e} [entry {entry}, step 0]", calls
        if not inline:
            owned |= {x >> 12, (x + n - 1) >> 12}
    return mem, calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_region_stores_write_the_runs_own_pages_and_fall_back_as_wr_n(n):
    """A let-bound fused store outside a loop is written into the page of
    the run's own that holds its n bytes, read from the namespace's
    `_own`, which no function binds.  The run's first store, its first
    store to each page, a store across a page boundary and a store out of
    range (below 0 or reaching 2^32, from an out-of-kind address in an
    unchecked run) go through `_store_word`, as every store of a traced
    run does; memory and fault texts are wr_n's, for out-of-kind values
    too, and the trace lines count the bytes after each store.  The
    caller's memory is never written."""
    write = ("_w[_o] = " if n == 1 else f"_pack{n}(_w, _o, " if n in (2, 4, 8)
             else f"_w[_o:_o + {n}] = ")
    ev = _region_stores(n)
    start = ev.source.index("def d1_put(")
    put = ev.source[start:ev.source.index("\ndef ", start)]
    assert put.count("_w = _own.get(") == 3 and "_own =" not in ev.source
    assert f"    if _w is not None and _o <= {4096 - n}:\n        {write}" in put
    assert f"    else:\n        v_st = _store_word({n}, v_a, v_v, v_st)\n" in put
    top = 1 << 32
    mem = {x: (x * 7) % 251 + 1 for x in range(0x1000, 0x1040)}
    mem.update({x: (x * 11) % 251 + 1 for x in range(0x1fe0, 0x2020)})
    mem.update({x: (x * 13) % 251 + 1 for x in range(top - 16, top)})
    st = make_state(mem=mem)
    pages = {p: bytes(page) for p, page in st.mem.pages.items()}
    calls = _counted_stores(ev)
    cases = [(0x1010, 0x1018, 0x1ff0 - n, 5),          # one page: the first store only
             (0x1010, 0x5010, 0x3010, 1 << 70),        # a page each; a value past 2^64
             (0x1010, 0x1fff, 0x2004, 9),              # across 0x2000 for n > 1, then in it
             (0x1ffe, 0x2001, 0x1000, 0xFEDCBA9876),   # both pages from the first store
             (top - n, top - 2 * n, top - 3 * n, 77),  # the last pages of memory
             (0x1010, top - n + 1, 0x1018, 3),         # the n bytes reach 2^32
             (0x1010, top + 0x1010, 0x1018, 3),        # an address past 2^32
             (0x1010, 0x1020, -1, 3),                  # below 0: unchecked runs only
             (-4096, 0x1020, 0x1030, 3),
             (0x1010, 0x1018, 0x1020, -5)]             # a value below 0: unchecked only
    for a, b, c, v in cases:
        stores = [(a, v), (b, v + 1), (c, 3 * v)]
        for checking, trace in ((True, False), (False, False), (False, True), (True, True)):
            if checking and min(a, b, c, v) < 0:
                continue  # a checked run refuses the argument
            want, want_calls = _stores_outcome(n, mem, "put", stores, trace)
            calls.clear()
            ev.trace_out = io.StringIO()
            try:
                got = ev.run("put", (a, b, c, v), st, checking=checking, trace=trace).state.mem
            except EvalFault as e:
                got = str(e)
            assert got == want, (hex(a), hex(b), hex(c), checking, trace)
            assert calls == want_calls, (hex(a), hex(b), hex(c), checking, trace)
            state = "(st retval={} stack=0xffff0000 frame=0xffff0000 mem/{})"
            lines = [f"-> put {a} {b} {c} {v} {state.format(0, len(mem))}"] if trace else []
            if trace and not isinstance(want, str):
                lines.append(f"<- put {state.format(1, len(want))}")
            assert ev.trace_out.getvalue().splitlines() == lines
    assert {p: bytes(page) for p, page in st.mem.pages.items()} == pages


def test_a_store_after_a_call_that_made_the_runs_first_store():
    """after's store follows a non-tail call of poke1, whose store was the
    run's first: it writes into the page that store copied without a
    call of its own, and a store to another page still falls back."""
    ev = _region_stores(8)
    assert "    v_st = d0_poke1(v_a, v_v, v_st)\n    _o = v_b & 4095\n" in ev.source
    calls = _counted_stores(ev)
    st = make_state(mem={0x1000: 1, 0x2000: 2})
    for b in (0x1ff8, 0x2000, 0x1ffc):
        for trace in (False, True):
            want, want_calls = _stores_outcome(8, {0x1000: 1, 0x2000: 2}, "after",
                                               [(0x1008, 77), (b, 78)], trace)
            calls.clear()
            ev.trace_out = io.StringIO()
            assert ev.run("after", (0x1008, b, 77), st, trace=trace).state.mem == want
            assert calls == want_calls == ([0x1008] if b == 0x1ff8 and not trace
                                           else [0x1008, b]), hex(b)
    assert st.mem == {0x1000: 1, 0x2000: 2}


def test_a_second_run_leaves_the_first_runs_final_state_unchanged():
    """Each run writes in place only the pages it copied itself: a second
    run of the same evaluator, from the first run's final state or from
    the caller's, leaves the first run's final memory as it was."""
    ev = _region_stores(8)
    st = make_state(mem={0x1000: 1})
    first = ev.run("put", (0x1008, 0x1010, 0x2008, 5), st, checking=False).state
    want = wr_n(8, 0x2008, 15, wr_n(8, 0x1010, 6, wr_n(8, 0x1008, 5, {0x1000: 1})))
    assert first.mem == want
    kept = {p: bytes(page) for p, page in first.mem.pages.items()}
    for start in (first, st):
        again = ev.run("put", (0x1008, 0x1010, 0x2008, 9), start, checking=False).state
        assert again.mem is not first.mem and ev._ns["_own"] is not first.mem._own
        assert again.mem == wr_n(8, 0x2008, 27, wr_n(8, 0x1010, 10, wr_n(8, 0x1008, 9, want)))
        assert {p: bytes(page) for p, page in first.mem.pages.items()} == kept
    assert st.mem == {0x1000: 1}


# ---------------------------------------------------------------------------
# Checks the loader leaves open
# ---------------------------------------------------------------------------

# the step's acc result and sum's result are an unbounded (+ a b) declared
# i64, so their checks stay; every other check is proven
GROW = """(defun grow_step_0 (done acc k n st)
  (declare (xargs :signature ((natp i64_p i64_p i64_p stp) natp i64_p i64_p i64_p stp)))
  (let* ((acc (+ acc k))
         (n (bits (- n 1) 63 0))
         (done (= n 0)))
    (mvlist done acc k n st)))

(defun-general grow_step_0_while (done acc k n st)
  (declare (xargs :signature ((natp i64_p i64_p i64_p stp) i64_p i64_p i64_p stp)))
  (if (= done 1)
      (mvlist acc k n st)
    (metlist ((done acc k n st)
              (grow_step_0 done acc k n st))
      (grow_step_0_while done acc k n st))))

(defun grow_continue_0 (acc k n st)
  (declare (xargs :signature ((i64_p i64_p i64_p stp) stp)))
  (update-retval acc st))

(defun grow_step_0_while_wrap (acc k n st)
  (declare (xargs :signature ((i64_p i64_p i64_p stp) stp)))
  (metlist ((acc k n st)
            (grow_step_0_while 0 acc k n st))
    (grow_continue_0 acc k n st)))

(defun grow (acc k n st)
  (declare (xargs :signature ((i64_p i64_p i64_p stp) stp)))
  (let* ((done (= n 0)))
    (if (= done 1)
        (grow_continue_0 acc k n st)
      (grow_step_0_while_wrap acc k n st))))

(defun sum (a b st)
  (declare (xargs :signature ((i64_p i64_p stp) i64_p stp)))
  (mvlist (+ a b) st))

(defun twice (a st)
  (declare (xargs :signature ((i64_p stp) stp)))
  (metlist ((s st) (sum a a st)) (update-retval s st)))
"""
_STEP_FAILS = "grow_step_0: result 2 fails i64 (got 18446744073709551616) [def grow_step_0]"
_SUM_FAILS = "sum: result 1 fails i64 (got 18446744073709551616) [def sum]"

# (entry, args): the checked outcome, traced and not, then the trace's
# length; the texts were recorded from the evaluator that compiled every
# result check
GROW_CASES = {
    ("grow", (1 << 62, 1 << 62, 5)): (_STEP_FAILS, 8),
    ("grow", ((1 << 64) - 2, 1, 3)): (_STEP_FAILS, 6),
    ("grow", (5, 7, 3)): (((), 26), 14),
    ("grow_step_0", (0, (1 << 64) - 1, 1, 4)): (_STEP_FAILS, 1),
    ("sum", (1 << 63, 1 << 63)): (_SUM_FAILS, 1),
    ("twice", (1 << 63,)): (_SUM_FAILS, 2),
    ("twice", (5,)): (((), 10), 4),
}


def _open_checks(program):
    """The argument and result positions left open, of the definitions
    that have any."""
    u = program.unproven
    return ({n: p for n, p in u.args.items() if p}, {n: p for n, p in u.results.items() if p})


def _all_unproven(program):
    """Every argument and result check left open, as if nothing were proven."""
    return Unproven({d.name: tuple(range(len(d.params))) for d in program.defs},
                    {d.name: tuple(range(len(d.result_kinds))) for d in program.defs})


@pytest.mark.parametrize("entry, args", list(GROW_CASES))
def test_unproven_step_and_exit_results_keep_their_checks(entry, args):
    """A loop step and a definition whose results may leave their kind keep
    those checks, inline in the loop and at the exit, and raise the same
    violation as with every check compiled; an unchecked run completes."""
    want, lines = GROW_CASES[entry, args]
    ev = ProgramEvaluator(load_program(GROW))
    assert ev.checks == {"proven": 40, "compiled": 2}
    assert _open_checks(ev.program) == ({}, {"grow_step_0": (1,), "sum": (0,)})
    assert _region_outcome(ev, entry, args, True, False) == (want, [])
    out, trace = _region_outcome(ev, entry, args, True, True)
    assert out == want and len(trace) == lines
    assert not isinstance(_region_outcome(ev, entry, args, False, False)[0], str)
    program = load_program(GROW)
    program.unproven = _all_unproven(program)
    full = ProgramEvaluator(program)
    assert full.checks == {"proven": 0, "compiled": 42}
    assert _region_outcome(full, entry, args, True, True) == (out, trace)


def test_a_while_checks_its_results_against_its_steps():
    """A while's results are its step's last results but the done bit, so
    a while that declares acc narrower than its step keeps that result
    check, though its own body returns acc from an i8 parameter.  Its call
    of itself, which its loop never makes, opens no argument check."""
    text = _variant(GROW, "(natp i64_p i64_p i64_p stp) i64_p i64_p i64_p stp)))\n  (if",
                    "(natp i8_p i64_p i64_p stp) i8_p i64_p i64_p stp)))\n  (if")
    program = load_program(_variant(text, "((i64_p i64_p i64_p stp) stp)",
                                    "((i8_p i64_p i64_p stp) stp)"))
    assert _open_checks(program) == (
        {}, {"grow_step_0": (1,), "grow_step_0_while": (0,), "sum": (0,)})
    want = "grow_step_0_while: result 1 fails i8 (got 305) [def grow_step_0_while]"
    assert _region_outcome(ProgramEvaluator(program), "grow", (5, 100, 3), True, False) \
        == (want, [])
    program.unproven = _all_unproven(program)
    assert _region_outcome(ProgramEvaluator(program), "grow", (5, 100, 3), True, False) \
        == (want, [])


# x is known to be an i8 only inside the let* (which binds it twice) and
# the metlist that rebind it
SHADOW = """(defun five (st)
  (declare (xargs :signature ((stp) i8_p stp)))
  (mvlist 5 st))

(defun shadow (x st)
  (declare (xargs :signature ((i64_p stp) i8_p stp)))
  (if (= x 0)
      (let* ((x 5) (x 7)) (mvlist x st))
    (if (= x 1)
        (metlist ((x st) (five st)) (mvlist x st))
      (mvlist x st))))
"""


def test_facts_end_with_their_bindings():
    """A binding's fact holds in its body only: the parameter that an outer
    arm returns keeps its result check."""
    ev = ProgramEvaluator(load_program(SHADOW))
    assert ev.checks == {"proven": 6, "compiled": 1}
    assert _open_checks(ev.program) == ({}, {"shadow": (0,)})
    assert _region_outcome(ev, "shadow", (0,), True, False) == (((7,), 0), [])
    assert _region_outcome(ev, "shadow", (1,), True, False) == (((5,), 0), [])
    assert _region_outcome(ev, "shadow", (300,), True, False) == \
        ("shadow: result 1 fails i8 (got 300) [def shadow]", [])


# ---------------------------------------------------------------------------
# Host frames
# ---------------------------------------------------------------------------

_MODES = ((False, False), (True, False), (False, True), (True, True))  # (checking, trace)


def _final_states(ev, args, mem, limit: int) -> set[str]:
    """The final state of a run of `gen` in each mode, in a thread under
    the recursion limit, each as its repr."""
    ev.trace_out = io.StringIO()
    results = {}

    def run():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            for checking, trace in _MODES:
                results[checking, trace] = ev.run("gen", args, make_state(mem=mem),
                                                  checking=checking, trace=trace).state
        finally:
            sys.setrecursionlimit(old)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    assert len(results) == len(_MODES)
    return set(map(repr, results.values()))


def test_checked_and_traced_runs_use_no_more_host_frames():
    """A chain of 267 diamonds (802 blocks) crosses ~540 definitions; every
    mode completes under the default recursion limit of 1000."""
    rng = random.Random(11)
    program = translate_module(parse_text(gen_diamond_chain(rng, 267)))
    args, mem = gen_state_args(rng)
    assert len(_final_states(ProgramEvaluator(program), args, mem, 1000)) == 1


def _diamonds(n: int) -> FunProgram:
    return translate_module(parse_text(gen_diamond_chain(random.Random(11), n)))


def _compile_transient(program: FunProgram) -> int:
    """The bytes `ProgramEvaluator` held at its peak beyond those its
    result keeps."""
    tracemalloc.start()
    try:
        ev = ProgramEvaluator(program)  # noqa: F841 (kept alive for the reading)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - kept


def test_each_region_compiles_within_one_piece():
    """A region's function stops growing at about `_PIECE_LINES` lines:
    every definition is a section of exactly one region, no compiled
    function passes `_PIECE_LINES` by more than one section, and
    compile's transient memory does not grow with the chain."""
    program = _diamonds(267)
    ev = ProgramEvaluator(program)
    sections = [name for members in ev.regions.values() for name in members]
    assert len(program.defs) == 803 and len(ev.regions) > 2
    assert sorted(sections) == sorted(d.name for d in program.defs)
    compiled = {name for name, v in ev._ns.items()
                if getattr(v, "__code__", None) and v.__code__.co_filename.startswith("<ll2fun")}
    assert len(compiled) == len(ev.regions)
    functions = re.split(r"^(?=def )", ev.source, flags=re.M)[1:]
    assert len(functions) == len(compiled)
    longest_section = max(len(section.splitlines()) for f in functions
                          for section in re.split(r"^(?=    if _b == \d+:$)", f, flags=re.M))
    assert max(len(f.splitlines()) for f in functions) <= \
        evaluator._PIECE_LINES + longest_section
    small, large = _compile_transient(program), _compile_transient(_diamonds(534))
    assert large <= 1.3 * small, (small, large)


def test_host_depth_grows_with_regions_not_blocks():
    """A chain of 1067 diamonds (3,202 blocks) runs in every mode under a
    recursion limit of 150: a region costs one host frame when a run
    crosses into it, a block none."""
    args, mem = gen_state_args(random.Random(7))
    assert len(_final_states(ProgramEvaluator(_diamonds(1067)), args, mem, 150)) == 1


# fin's first argument is not proven to be an i8, so its section checks it;
# top passes its arguments swapped, and hop's arms swap them again or not
REGION = """(defun fin (a b st)
  (declare (xargs :signature ((i8_p i64_p stp) i64_p stp)))
  (let* ((st (update-retval (bits (+ (* a 1000) b) 63 0) st)))
    (mvlist (bits (+ a b) 63 0) st)))

(defun hop (a b st)
  (declare (xargs :signature ((i64_p i64_p stp) i8_p stp)))
  (if (< a b)
      (fin b a st)
    (fin a b st)))

(defun top (a b st)
  (declare (xargs :signature ((i64_p i64_p stp) i64_p stp)))
  (hop b a st))
"""
_ST0 = "(st retval=0 stack=0xffff0000 frame=0xffff0000 mem/0)"


def _st(retval):
    return f"(st retval={retval} stack=0xffff0000 frame=0xffff0000 mem/0)"


# (entry, args): checked outcome, unchecked outcome, checked trace, where
# an outcome is (results, retval) or the SignatureViolation text; every
# literal was recorded from the evaluator that compiled one function per
# definition
REGION_CASES = {
    ("top", (1, 2)): (((3,), 2001), ((3,), 2001), [
        f"-> top 1 2 {_ST0}", f"-> hop 2 1 {_ST0}", f"-> fin 2 1 {_ST0}",
        f"<- fin 3 {_st(2001)}", f"<- hop 3 {_st(2001)}", f"<- top 3 {_st(2001)}"]),
    ("top", (2, 1)): (((3,), 2001), ((3,), 2001), [
        f"-> top 2 1 {_ST0}", f"-> hop 1 2 {_ST0}", f"-> fin 2 1 {_ST0}",
        f"<- fin 3 {_st(2001)}", f"<- hop 3 {_st(2001)}", f"<- top 3 {_st(2001)}"]),
    ("top", (5, 300)): ("fin: argument 1 fails i8 (got 300) [def fin]", ((305,), 300005), [
        f"-> top 5 300 {_ST0}", f"-> hop 300 5 {_ST0}", f"-> fin 300 5 {_ST0}"]),
    ("top", (200, 100)): ("hop: result 1 fails i8 (got 300) [def hop]", ((300,), 200100), [
        f"-> top 200 100 {_ST0}", f"-> hop 100 200 {_ST0}", f"-> fin 200 100 {_ST0}",
        f"<- fin 300 {_st(200100)}"]),
    ("hop", (1, 2)): (((3,), 2001), ((3,), 2001), [
        f"-> hop 1 2 {_ST0}", f"-> fin 2 1 {_ST0}",
        f"<- fin 3 {_st(2001)}", f"<- hop 3 {_st(2001)}"]),
    ("hop", (300, 2)): ("fin: argument 1 fails i8 (got 300) [def fin]", ((302,), 300002), [
        f"-> hop 300 2 {_ST0}", f"-> fin 300 2 {_ST0}"]),
    ("fin", (7, 8)): (((15,), 7008), ((15,), 7008), [
        f"-> fin 7 8 {_ST0}", f"<- fin 15 {_st(7008)}"]),
}


def _region_outcome(ev, entry, args, checking, trace):
    ev.trace_out = io.StringIO()
    try:
        r = ev.run(entry, args, make_state(), checking=checking, trace=trace)
        out = (r.values, r.state.retval)
    except Ll2FunError as e:
        out = str(e)
    return out, ev.trace_out.getvalue().splitlines()


@pytest.mark.parametrize("entry, args", list(REGION_CASES))
def test_region_sections_behave_as_definitions(entry, args):
    """top, hop and fin compile into one function; swapped arguments, an
    entry inside the region, an inline entry check and the exits' result
    checks behave as separate definitions did."""
    ev = ProgramEvaluator(load_program(REGION))
    assert ev.regions == {"top": ("top", "hop", "fin")}
    checked, unchecked, trace = REGION_CASES[entry, args]
    assert _region_outcome(ev, entry, args, True, False) == (checked, [])
    assert _region_outcome(ev, entry, args, True, True) == (checked, trace)
    assert _region_outcome(ev, entry, args, False, False) == (unchecked, [])
    out, full = _region_outcome(ev, entry, args, False, True)
    entries = [line for line in trace if line.startswith("->")]
    assert out == unchecked and full[:len(entries)] == entries
    assert len(full) == 2 * len(entries) and full[-1].startswith(f"<- {entry} ")
    if not isinstance(checked, str):
        assert full == trace


# ---------------------------------------------------------------------------
# Loop headers
# ---------------------------------------------------------------------------

# A loop that counts in `_n` (@seq's first loop and its inner one) and one
# whose step makes a call (the outer loop, whose step enters the inner
# loop) in one run, one after another, so that a budget can stop each on
# the first iteration of an entry as well as partway through one.
SEQ = """define i64 @seq(i32 %a, i32 %r, i32 %c) {
  br label %first

first:
  %k = phi i32 [ %k.next, %first ], [ 0, %0 ]
  %k.next = add i32 %k, 1
  %fe = icmp eq i32 %k.next, %a
  br i1 %fe, label %outer.ph, label %first

outer.ph:
  br label %outer

outer:
  %i = phi i32 [ %i.next, %latch ], [ 0, %outer.ph ]
  %acc = phi i64 [ %s.next, %latch ], [ 0, %outer.ph ]
  br label %inner.ph

inner.ph:
  br label %inner

inner:
  %j = phi i32 [ %j.next, %inner ], [ 0, %inner.ph ]
  %s = phi i64 [ %s.next, %inner ], [ %acc, %inner.ph ]
  %j.64 = zext i32 %j to i64
  %s.next = add i64 %s, %j.64
  %j.next = add i32 %j, 1
  %ie = icmp eq i32 %j.next, %c
  br i1 %ie, label %latch, label %inner

latch:
  %i.next = add i32 %i, 1
  %oe = icmp eq i32 %i.next, %r
  br i1 %oe, label %done, label %outer

done:
  ret i64 %s.next
}
"""
SEQ_FUN = emit_sexpr(translate_module(parse_text(SEQ)))
_FIRST, _INNER, _OUTER = "seq_step_0_while", "seq_step_1_while", "seq_step_2_while"

# budget: (the while it stops, its counts, the traced line of the refused
# iteration up to its state), for seq 3 2 4, which runs 3 + 2 + 2 * 4
# iterations: the first loop's second iteration, the outer loop's first,
# the inner loop's first, its second, the outer loop's second and the
# inner loop's first on its second entry
SEQ_BUDGETS = {
    1: (_FIRST, {_FIRST: 2}, "-> seq_step_0 0 1 3 4 2"),
    3: (_OUTER, {_FIRST: 3, _OUTER: 1}, "-> seq_step_2 0 0 0 4 2"),
    4: (_INNER, {_FIRST: 3, _OUTER: 1, _INNER: 1}, "-> seq_step_1 0 0 0 4 0 2"),
    5: (_INNER, {_FIRST: 3, _OUTER: 1, _INNER: 2}, "-> seq_step_1 0 1 0 4 0 2"),
    8: (_OUTER, {_FIRST: 3, _OUTER: 2, _INNER: 4}, "-> seq_step_2 0 1 6 4 2"),
    9: (_INNER, {_FIRST: 3, _OUTER: 2, _INNER: 5}, "-> seq_step_1 0 0 6 4 1 2"),
}


@pytest.mark.parametrize("budget", sorted(SEQ_BUDGETS))
def test_a_budget_stops_either_loop_form_on_any_iteration(budget):
    """A budget stops a loop that counts in `_n` and one whose step makes
    a call, on the first iteration of an entry and partway through one,
    with the same counts in every mode, the refused iteration counted, and
    that iteration's entry line the last line a traced run prints."""
    name, counts, line = SEQ_BUDGETS[budget]
    ev = ProgramEvaluator(load_program(SEQ_FUN))
    assert ev.run("seq", (3, 2, 4), make_state()).per_while == {_FIRST: 3, _OUTER: 2, _INNER: 8}
    for checking in (True, False):
        for trace in (False, True):
            ev.trace_out = io.StringIO()
            with pytest.raises(BudgetExhausted) as err:
                ev.run("seq", (3, 2, 4), make_state(), checking=checking, budget=budget,
                       trace=trace)
            assert str(err.value) == f"step budget of {budget} exhausted in {name}"
            assert err.value.counts == counts
            lines = ev.trace_out.getvalue().splitlines()
            assert (lines[-1].split(" (st ")[0] if trace else lines) == (line if trace else [])


# while def, a frame with done = 0, the frame it ends with, its counts
_SEQ_WHILES = [
    (_FIRST, (0, 0, 3, 4, 2), (3, 3, 4, 2), {_FIRST: 3}),
    (_OUTER, (0, 0, 0, 4, 2), (2, 12, 4, 2), {_OUTER: 2, _INNER: 8}),
]


@pytest.mark.parametrize("name, frame, ends, counts", _SEQ_WHILES)
def test_a_loop_iterates_until_its_done_is_1(name, frame, ends, counts):
    """A loop entered with done = 1 runs no iteration, returns its frame
    and adds no count; an unchecked run that passes done = 2, 2^64 or -1,
    none of them a value the step's exit compare yields, iterates as one
    that passes 0, as does a checked run with 2 and 2^64, both naturals."""
    ev = ProgramEvaluator(load_program(SEQ_FUN))
    for checking in (True, False):
        ev.trace_out = io.StringIO()
        res = ev.run(name, (1, *frame[1:]), make_state(), checking=checking, trace=True)
        assert (res.values, res.iterations, res.per_while) == (frame[1:], 0, {})
        assert [line.split(" ")[:2] for line in ev.trace_out.getvalue().splitlines()] == \
            [["->", name], ["<-", name]]
    want = ev.run(name, frame, make_state())
    assert (want.values, want.iterations, want.per_while) == (ends, sum(counts.values()), counts)
    ev.trace_out = io.StringIO()
    ev.run(name, frame, make_state(), checking=False, trace=True)
    trace = ev.trace_out.getvalue().splitlines()
    for done, checking in ((2, True), (1 << 64, True), (2, False), (1 << 64, False), (-1, False)):
        res = ev.run(name, (done, *frame[1:]), make_state(), checking=checking)
        assert (res.values, res.iterations, res.per_while) == \
            (want.values, want.iterations, want.per_while), (done, checking)
        ev.trace_out = io.StringIO()
        ev.run(name, (done, *frame[1:]), make_state(), checking=checking, trace=True)
        lines = ev.trace_out.getvalue().splitlines()
        # the while's entry line and its first step's show the done passed in
        assert [line.replace(f" {done} ", " 0 ", 1) for line in lines[:2]] == trace[:2]
        assert lines[2:] == trace[2:], (done, checking)


def _compiled_functions(ev) -> list:
    """Every function an evaluator compiles: those of its source's pieces,
    and those it compiles on first use, one for each deferred step."""
    for k in ev._gen.deferred:
        ev._entry(k)
    fns = [v for v in ev._ns.values()
           if isinstance(v, types.FunctionType) and v.__code__.co_filename == ev._filename]
    return fns + [fn for fn in ev._entries.values() if fn not in fns]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the conditional backward jump and its warm-up are CPython 3.11's")
def test_every_loop_jumps_back_unconditionally_and_warms_up_in_its_first_run(array_state):
    """CPython 3.11 counts a code object's warm-up on `JUMP_BACKWARD`,
    not on `POP_JUMP_BACKWARD_IF_TRUE`, so no function the evaluator
    compiles jumps back on a condition, and a loop's own function is
    specialized during the first run that enters it."""
    workloads = _perfbench_workloads()
    texts = [GOLDEN, NESTSUM, SEQ_FUN,
             emit_sexpr(translate_module(parse_text(WINDOWS))),
             *(emit_sexpr(translate_module(parse_text(w.ll_text)))
               for w in (workloads.gen_scan(1, 64), workloads.gen_store(1, 64),
                         workloads.gen_wide(1)))]
    loops = 0
    for text in texts:
        ev = ProgramEvaluator(load_program(text))
        for fn in _compiled_functions(ev):
            ops = [i.opname for i in dis.get_instructions(fn)]
            assert not [op for op in ops if op.startswith("POP_JUMP_BACKWARD_IF")], fn.__name__
            loops += "JUMP_BACKWARD" in ops
    assert loops == 16, loops  # one per while def: 1 + 2 + 3 + 8 + 1 + 1 + 0
    ev = ProgramEvaluator(load_program(GOLDEN))
    res = ev.run("occurrences", (399, 64, 0x8000), array_state, checking=False)
    assert res.iterations == 64
    loop = ev._entries[ev._index["occurrences_step_0_while"]]
    assert [i.opname for i in dis.get_instructions(loop, adaptive=True)
            if i.opname not in dis.opmap and not i.opname.endswith(("_ADAPTIVE", "_QUICK"))]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="which compares specialize, and on which ints, is CPython 3.11's")
@pytest.mark.skipif(sys.gettrace() is not None,
                    reason="under a tracer CPython 3.11 runs every instruction unspecialized")
def test_a_loop_tests_its_count_against_a_stop_its_compare_specializes_on(array_state):
    """A run without a budget has `_limit` 2^62, an int CPython 3.11's
    `COMPARE_OP` does not specialize on, so a loop tests its count against
    its `_stop` instead, which is below 2^30: after one unbudgeted
    unchecked run the compare is `COMPARE_OP_INT_JUMP`."""
    ev = ProgramEvaluator(load_program(GOLDEN))
    assert ev.run("occurrences", (399, 64, 0x8000), array_state, checking=False).iterations == 64
    loop = ev._entries[ev._index["occurrences_step_0_while"]]
    ins = list(dis.get_instructions(loop))
    at = [b.offset for a, b in zip(ins, ins[1:])
          if a.argval == "_stop" and b.opname == "COMPARE_OP"]
    assert len(at) == 1
    assert [i.opname for i in dis.get_instructions(loop, adaptive=True) if i.offset in at] == \
        ["COMPARE_OP_INT_JUMP"]


class _CountFrom(list):
    """An `_it` that `run`'s reset to 0 sets to start instead, as if the
    run had made start iterations already."""

    def __init__(self, start: int):
        super().__init__([0])
        self.start = start

    def __setitem__(self, i, value):
        super().__setitem__(i, value or self.start)


# The while def of each iteration of seq 3 2 4, in order.
_SEQ_ORDER = [_FIRST] * 3 + ([_OUTER] + [_INNER] * 4) * 2
_COMPACT = evaluator._COMPACT  # 2^30: a loop's first stop is below it


@pytest.mark.parametrize("start", [_COMPACT - 5, _COMPACT - 4])
@pytest.mark.parametrize("budget", [None, _COMPACT - 1, _COMPACT, _COMPACT + 1, _COMPACT + 2])
def test_a_budget_stops_a_loop_whose_count_crosses_2_to_the_30(start, budget):
    """A run whose count reaches 2^30, where a loop's first stop lies when
    the budget is above it, stops at the iteration past the budget, just
    below, at or just above 2^30, with the exact text and counts.  From
    2^30 - 5 the count crosses it in the inner loop, which counts in `_n`;
    from 2^30 - 4 in the outer loop, which counts in `_it[0]`."""
    assert _SEQ_ORDER[_COMPACT - start - 1] == (_INNER if start == _COMPACT - 5 else _OUTER)
    ev = ProgramEvaluator(load_program(SEQ_FUN))
    ev._ns["_it"] = _CountFrom(start)
    for checking in (True, False):
        if budget is None:
            res = ev.run("seq", (3, 2, 4), make_state(), checking=checking)
            assert (res.state.retval, res.iterations, res.per_while) == \
                (12, start + 13, {_FIRST: 3, _OUTER: 2, _INNER: 8})
            continue
        refused = budget - start  # the index in `_SEQ_ORDER` of the iteration past the budget
        with pytest.raises(BudgetExhausted) as err:
            ev.run("seq", (3, 2, 4), make_state(), checking=checking, budget=budget)
        assert str(err.value) == f"step budget of {budget} exhausted in {_SEQ_ORDER[refused]}"
        assert err.value.counts == {name: _SEQ_ORDER[:refused + 1].count(name)
                                    for name in set(_SEQ_ORDER[:refused + 1])}


# ---------------------------------------------------------------------------
# Mutation fuzz
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_NUMBERS = ("0", "1", "2", "7", "8", "63", "64", "255", "256", "65535", str((1 << 32) - 1),
            str(1 << 32), str((1 << 64) - 1), str(1 << 64))
_KINDS = ("i1_p", "i8_p", "i16_p", "i32_p", "i64_p", "addr_p", "natp")
_OPS = ("+", "-", "*", "logand", "logior", "logxor", "=", "/=", "<", "<=", ">", ">=")


def _mutate(text: str, rng: random.Random) -> str:
    """One to three token edits: mostly a number, a kind or an operator
    replaced by another, sometimes a token deleted or duplicated."""
    tokens = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        pick = rng.random()
        for pool, choices in ((0.45, _NUMBERS), (0.75, _KINDS), (0.9, _OPS)):
            if pick < pool:
                where = [i for i, t in enumerate(tokens)
                         if (t.isdigit() if choices is _NUMBERS else t in choices)]
                if where:
                    tokens[rng.choice(where)] = rng.choice(choices)
                break
        else:
            i = rng.randrange(len(tokens))
            if pick < 0.95:
                del tokens[i]
            else:
                tokens.insert(i, tokens[i])
    return " ".join(tokens)


def _fuzz_bases():
    """(text, entry, args, memory) to mutate: the fixtures and translated
    llgen programs."""
    bases = [(GOLDEN, "occurrences", (399, 8, 0x8000), ARRAY),
             (NESTSUM, "nestsum", (3, 4), {}),
             (FILL, "fill", (0x8000, 6, 7), {})]
    rng = random.Random(5)
    for _ in range(5):
        text = emit_sexpr(translate_module(parse_text(gen_program(rng))))
        args, mem = gen_state_args(rng)
        bases.append((text, "gen", args, mem))
    return bases


def _fuzz_run(ev, entry, args, mem, checking, budget):
    try:
        return ev.run(entry, args, make_state(mem=mem), checking=checking, budget=budget)
    except Ll2FunError as e:
        return e


def test_mutated_programs_end_in_a_result_or_an_ll2fun_error():
    """About 500 mutants of .fun text, loaded and run checked, unchecked
    and budgeted (the first two under a generous budget, since a mutant
    may loop forever).  Nothing but Ll2FunError escapes; where checked and
    unchecked both complete they agree; and checking with the argument,
    result and loop-step result checks the loader proved redundant left
    in gives the same outcome."""
    rng = random.Random(0xF022)
    bases = _fuzz_bases()
    started, loaded, agreed = time.perf_counter(), 0, 0
    for n in range(500):
        text, entry, args, mem = bases[n % len(bases)]
        mutant = _mutate(text, rng)
        try:
            program = load_program(mutant)
        except Ll2FunError:
            continue
        loaded += 1
        if entry not in program.by_name or len(program.by_name[entry].params) != len(args) + 1:
            continue
        ev = ProgramEvaluator(program)
        checked = _fuzz_run(ev, entry, args, mem, True, 3000)
        unchecked = _fuzz_run(ev, entry, args, mem, False, 3000)
        _fuzz_run(ev, entry, args, mem, True, 20)
        if not isinstance(checked, Ll2FunError) and not isinstance(unchecked, Ll2FunError):
            assert (checked.values, checked.state) == (unchecked.values, unchecked.state), mutant
            agreed += 1
        program.unproven = _all_unproven(program)
        full = _fuzz_run(ProgramEvaluator(program), entry, args, mem, True, 3000)
        assert type(full) is type(checked), mutant
        assert full == checked if isinstance(full, evaluator.RunResult) \
            else str(full) == str(checked), mutant
    assert loaded >= 150 and agreed >= 100, (loaded, agreed)
    assert time.perf_counter() - started < 15
