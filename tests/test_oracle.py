"""List-level specification functions and the translated/spec equivalence
checker."""

import random

import pytest

from ll2fun import (
    BudgetExhausted, MachineState, check_occurrences_equiv, liftlist, occurlist,
    occurrences_spec, run_equiv_trials,
)
from ll2fun.state import wr_n

FULL_LIFT = [20, (1 << 64) - 1, 399, 399, 75, 0, 234, 399]


def test_liftlist_of_array_image(array_state):
    assert liftlist(0, 0, 0x8000, 8, array_state) == FULL_LIFT


def test_liftlist_done_short_circuit(array_state):
    assert liftlist(1, 0, 0x8000, 8, array_state) == []


def test_liftlist_prefix(array_state):
    assert liftlist(0, 0, 0x8000, 3, array_state) == FULL_LIFT[:3]


def test_liftlist_length_matches_n(array_state):
    for n in range(1, 40):
        assert len(liftlist(0, 0, 0x8000, n, array_state)) == n


def test_liftlist_budget_exhaustion(array_state):
    # 32-bit compare against an n with only high bits set can never match
    with pytest.raises(BudgetExhausted):
        liftlist(0, 0, 0x8000, 1 << 32, array_state, budget=1000)


def test_liftlist_starting_index_offsets_reads(array_state):
    # the pointer tracks the current j: starting at 2 with n=3 reads slot 2
    assert liftlist(0, 2, 0x8000, 3, array_state) == [FULL_LIFT[2]]


def test_liftlist_done_uses_incremented_index(array_state):
    # do-while order: the element is taken before the exit test fires
    assert liftlist(0, 0, 0x8000, 1, array_state) == [FULL_LIFT[0]]


def test_occurlist_counts(array_state):
    lift = liftlist(0, 0, 0x8000, 8, array_state)
    assert occurlist(399, lift) == 3
    assert occurlist(0, lift) == 1
    assert occurlist(7777, lift) == 0
    assert occurlist(5, []) == 0


def test_occurlist_homomorphism():
    rng = random.Random(11)
    for _ in range(300):
        xs = [rng.randrange(0, 5) for _ in range(rng.randrange(0, 12))]
        ys = [rng.randrange(0, 5) for _ in range(rng.randrange(0, 12))]
        v = rng.randrange(0, 5)
        assert occurlist(v, xs + ys) == occurlist(v, xs) + occurlist(v, ys)


def test_occurrences_spec_values(array_state):
    assert occurrences_spec(399, 8, 0x8000, array_state) == 3
    assert occurrences_spec(399, 0, 0x8000, array_state) == 0
    assert occurrences_spec(0, 8, 0x8000, array_state) == 1


def test_occurrences_spec_million(array_state):
    # all unwritten slots plus the explicit zero slot count as zero
    assert occurrences_spec(0, 1_000_000, 0x8000, array_state) == 999_993


def test_equiv_check_passes_on_the_array(occurrences_program, array_state):
    report = check_occurrences_equiv(occurrences_program, 399, 8, 0x8000, array_state)
    assert report.passed
    assert report.translated == report.spec == 3
    assert "pass" in report.line()


def test_equiv_check_n_zero(occurrences_program, array_state):
    report = check_occurrences_equiv(occurrences_program, 5, 0, 0x8000, array_state)
    assert report.passed and report.spec == 0


def test_equiv_trials_small_campaign(occurrences_program):
    summary = run_equiv_trials(occurrences_program, trials=500, seed=20240809)
    assert summary.passed, summary.report()
    assert "seed 20240809" in summary.report()


def test_equiv_report_mentions_failures():
    # a detuned program: count 398 instead of the requested value
    from ll2fun import parse_text, translate_module
    src = """define i64 @occurrences(i64 %val, i32 %n, i64* %array) {
  %1 = icmp eq i32 %n, 0
  br i1 %1, label %done, label %loop

loop:
  %num = phi i64 [ %num.next, %loop ], [ 0, %0 ]
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %p = getelementptr i64* %array, i64 %j
  %v = load i64* %p
  %hit = icmp eq i64 %v, 398
  %inc = zext i1 %hit to i64
  %num.next = add i64 %num, %inc
  %j.next = add i64 %j, 1
  %jt = trunc i64 %j.next to i32
  %e = icmp eq i32 %jt, %n
  br i1 %e, label %done, label %loop

done:
  %out = phi i64 [ 0, %0 ], [ %num.next, %loop ]
  ret i64 %out
}
"""
    program = translate_module(parse_text(src))
    mem = wr_n(8, 0x8000, 399, {})
    st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
    report = check_occurrences_equiv(program, 399, 1, 0x8000, st)
    assert not report.passed
    assert "FAIL" in report.line()
    summary = run_equiv_trials(program, trials=50, seed=7)
    assert not summary.passed
    assert summary.report().endswith(
        f"FAIL: 50 trials, {len(summary.failures)} failures, seed 7")
