"""Differential suite: randomly generated programs run through the whole
translate/emit/load/execute pipeline and through the reference AST
interpreter, compared bit-exact on retval and the final machine state.

Failures print the generating seed and the offending source."""

import io
import pathlib
import random
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from llgen import (  # noqa: E402
    gen_diamond, gen_loop, gen_program, gen_state_args,
)

from ll2fun import (  # noqa: E402
    BudgetExhausted, EvalFault, MachineState, emit_sexpr, eval_def, interp_function,
    load_program, parse_text, translate_module,
)
from ll2fun.evaluator import ProgramEvaluator  # noqa: E402

SEED = 0xDA1E


def _run_both(src: str, args, mem, *, seed, via_text: bool):
    module = parse_text(src)
    program = translate_module(module)
    if via_text:
        program = load_program(emit_sexpr(program))
    st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
    _, translated = eval_def(program, "gen", args, st)
    reference = interp_function(module, "gen", args, st)
    assert translated == reference, (
        f"divergence (seed {seed}, args {args}):\n"
        f"  translated retval {translated.retval}, reference {reference.retval}\n"
        f"  memory equal: {translated.mem == reference.mem}\n{src}")
    return translated


def test_differential_random_programs():
    rng = random.Random(SEED)
    for trial in range(1000):
        src = gen_program(rng)
        args, mem = gen_state_args(rng)
        _run_both(src, args, mem, seed=f"{SEED}/{trial}", via_text=(trial % 4 == 0))


def test_differential_loops_focused():
    rng = random.Random(SEED + 1)
    for trial in range(200):
        src = gen_loop(rng)
        args, mem = gen_state_args(rng)
        _run_both(src, args, mem, seed=f"{SEED + 1}/{trial}", via_text=True)


def test_differential_phi_joins_focused():
    rng = random.Random(SEED + 2)
    for trial in range(200):
        src = gen_diamond(rng)
        args, mem = gen_state_args(rng)
        _run_both(src, args, mem, seed=f"{SEED + 2}/{trial}", via_text=False)


def test_differential_nested_fixture(nestsum_module, nestsum_program):
    rng = random.Random(SEED + 3)
    for _ in range(50):
        n, m = rng.randrange(0, 12), rng.randrange(0, 12)
        st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem={})
        _, translated = eval_def(nestsum_program, "nestsum", (n, m), st)
        reference = interp_function(nestsum_module, "nestsum", (n, m), st)
        assert translated == reference


def test_differential_occurrences_fixture(occurrences_module, occurrences_program,
                                          array_state):
    rng = random.Random(SEED + 4)
    for _ in range(100):
        val = rng.choice((399, 0, 234, rng.getrandbits(64)))
        n = rng.randrange(0, 64)
        _, translated = eval_def(occurrences_program, "occurrences",
                                 (val, n, 0x8000), array_state)
        reference = interp_function(occurrences_module, "occurrences",
                                    (val, n, 0x8000), array_state)
        assert translated == reference


POINTER_LOOP = """define i64 @sumptr(i32 %n, i64* %array) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %p = phi i64* [ %p.next, %loop ], [ %array, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %j = phi i32 [ %j.next, %loop ], [ 0, %0 ]
  %v = load i64* %p
  %acc.next = add i64 %acc, %v
  %p.next = getelementptr i64* %p, i64 1
  %j.next = add i32 %j, 1
  %e = icmp eq i32 %j.next, %n
  br i1 %e, label %done, label %loop

done:
  %out = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %out
}
"""


def test_differential_pointer_carried_loop():
    from ll2fun.state import wr_n
    module = parse_text(POINTER_LOOP)
    program = load_program(emit_sexpr(translate_module(module)))
    step = program.by_name["sumptr_step_0"]
    assert dict(step.params)["p"] == "addr"  # the pointer rides the frame
    mem: dict[int, int] = {}
    for k, v in enumerate([10, 20, 30, 40]):
        mem = wr_n(8, 0x8000 + 8 * k, v, mem)
    st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
    for n in (0, 1, 4):
        _, translated = eval_def(program, "sumptr", (n, 0x8000), st)
        reference = interp_function(module, "sumptr", (n, 0x8000), st)
        assert translated == reference
        assert translated.retval == sum((10, 20, 30, 40)[:n])


def test_differential_alloca_scratch():
    src = """define i64 @scratch(i64 %x) {
  %buf = alloca i64, i32 2
  %p1 = getelementptr i64* %buf, i64 1
  store i64 %x, i64* %p1
  %v = load i64* %p1
  %w = add i64 %v, 5
  ret i64 %w
}
"""
    module = parse_text(src)
    program = load_program(emit_sexpr(translate_module(module)))
    st = MachineState(retval=0, stack=0x1000, frame=0x1000, mem={})
    _, translated = eval_def(program, "scratch", (37,), st)
    reference = interp_function(module, "scratch", (37,), st)
    assert translated == reference
    assert translated.retval == 42
    assert translated.stack == 0x1000  # allocation reclaimed by the bracket


# A straight-line load and store, then a loop that loads, stores and loads
# back each word: 8-, 4-, 2- and 1-byte accesses that the choice of p and q
# can make straddle a 4 KiB page boundary or run into the 2^32 edge.  h is
# passed q, and b is passed p.
PAGE_EDGES = """define i64 @gen(i64* %p, i32* %q, i16* %h, i8* %b, i32 %n) {
  %a = load i64* %p, align 8
  %w = trunc i64 %a to i32
  store i32 %w, i32* %q, align 4
  %s = load i16* %h, align 2
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ %a, %0 ]
  %slot = getelementptr inbounds i64* %p, i64 %j
  %x = load i64* %slot, align 8
  %y = xor i64 %x, %acc
  store i64 %y, i64* %slot, align 8
  %j.8 = mul i64 %j, 8
  %low = getelementptr inbounds i8* %b, i64 %j.8
  %z = load i8* %low, align 1
  %z.64 = zext i8 %z to i64
  %acc.next = add i64 %acc, %z.64
  %j.next = add i64 %j, 1
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  %r = phi i64 [ %a, %0 ], [ %acc.next, %loop ]
  %s.64 = zext i16 %s to i64
  %out = add i64 %r, %s.64
  ret i64 %out
}
"""


def _outcome(run):
    """The final state, or the fault's message without the run's context."""
    try:
        return run()
    except EvalFault as e:
        text = str(e)
        return text.removesuffix(f" [{e.context}]") if e.context else text


def test_differential_page_boundaries_and_the_32_bit_edge():
    """Fused loads and stores that straddle a page boundary or touch the
    2^32 edge agree with the reference interpreter in value, memory and
    fault text, in a loop (the inlined page slice) and outside one."""
    module = parse_text(PAGE_EDGES)
    program = load_program(emit_sexpr(translate_module(module)))
    rng = random.Random(SEED + 5)
    top = 1 << 32
    mem = {a: rng.randrange(256) for a in range(0x1fe0, 0x2020)}
    mem.update({a: rng.randrange(256) for a in range(top - 48, top)})
    st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
    cases = [(p, q, n) for p in (0x1ff0, 0x1ff9, 0x1ffc, 0x2000 - 8 * 3 - 1)
             for q in (0x1ffe, 0x2008, 0x1ffd) for n in (0, 1, 3, 5)]
    cases += [(top - 8 * k - d, q, k + 1) for k in (0, 2) for d in (0, 3)
              for q in (top - 4, top - 3, 0x2008)]
    faults = 0
    for p, q, n in cases:
        args = (p, q, q, p, n)
        translated = _outcome(lambda: eval_def(program, "gen", args, st, checking=False)[1])
        reference = _outcome(lambda: interp_function(module, "gen", args, st))
        assert translated == reference, (p, q, n, translated, reference)
        faults += isinstance(reference, str)
    assert 0 < faults < len(cases)


# Loops for the page table a loop binds before its `while` (`_pg`): only a
# step that makes no call and no store binds it.  @stl's step stores, then
# loads the word it stored and the one before it, and the run's first
# store happens in the loop; @cll's step calls @put, which stores; @fresh
# stores before its loop and then loads, in the loop, from p's page and
# from q's pages, which no store reaches.
HOIST = """define i64 @put(i64* %r, i64 %v) {
  store i64 %v, i64* %r, align 8
  ret i64 %v
}

define i64 @stl(i64* %p, i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %slot = getelementptr inbounds i64* %p, i64 %j
  %j.prev = sub i64 %j, 1
  %prev = getelementptr inbounds i64* %p, i64 %j.prev
  %j.3 = mul i64 %j, 3
  %w = add i64 %j.3, 1
  store i64 %w, i64* %slot, align 8
  %x = load i64* %slot, align 8
  %y = load i64* %prev, align 8
  %xy = xor i64 %x, %y
  %acc.next = add i64 %acc, %xy
  %j.next = add i64 %j, 1
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  %sum = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %sum
}

define i64 @cll(i64* %p, i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %slot = getelementptr inbounds i64* %p, i64 %j
  %w = add i64 %j, 5
  %c = call i64 @put(i64* %slot, i64 %w)
  %x = load i64* %slot, align 8
  %cx = mul i64 %c, %x
  %acc.next = add i64 %acc, %cx
  %j.next = add i64 %j, 1
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  %sum = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %sum
}

define i64 @fresh(i64* %p, i64* %q, i32 %n) {
  store i64 7, i64* %p, align 8
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %at.q = getelementptr inbounds i64* %q, i64 %j
  %x = load i64* %at.q, align 8
  %at.p = getelementptr inbounds i64* %p, i64 %j
  %y = load i64* %at.p, align 8
  %j.5 = mul i64 %j, 5
  %xy = add i64 %x, %y
  %t = xor i64 %xy, %j.5
  %acc.next = add i64 %acc, %t
  %j.next = add i64 %j, 1
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  %sum = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %sum
}
"""


def test_a_loop_binds_its_page_table_only_where_no_store_can_replace_it():
    """Loops whose step stores and then loads, whose step calls a storing
    callee, and that load from pages no store has reached agree with the
    reference interpreter in retval, memory and fault text, and count
    their iterations, in checked, unchecked and traced runs; a budget
    stops each after the same number of iterations.  Only @fresh's loop,
    whose step makes no call and no store, reads its page table once."""
    module = parse_text(HOIST)
    program = load_program(emit_sexpr(translate_module(module)))
    ev = ProgramEvaluator(program)
    loops = {name: ev.source[ev.source.index(f"_{name}_step_0_while("):]
             for name in ("stl", "cll", "fresh")}
    for name, loop in loops.items():
        loop = loop[:loop.index("\ndef ")]
        assert ("    _pg = v_st.mem.pages\n" in loop) == (name == "fresh"), name
        assert ("_pg.get(" in loop) == (name == "fresh"), name
    rng = random.Random(SEED + 6)
    top = 1 << 32
    mem = {a: rng.randrange(256) for a in range(0x1fc0, 0x2040)}
    mem.update({a: rng.randrange(256) for a in range(0x5000, 0x5040)})
    mem.update({a: rng.randrange(256) for a in range(top - 40, top)})
    st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
    cases = [("stl", (p, n)) for p in (0x1fe0, 0x1ffc, 0x5008, 0x9000, top - 24, top - 20)
             for n in (1, 6, 9)]
    cases += [("cll", (p, n)) for p in (0x1fe8, 0x2001, 0x9000, top - 36) for n in (1, 5)]
    cases += [("fresh", (p, q, n)) for p in (0x5000, 0x1ff8, 0x3000)
              for q in (0x1ff0, 0x1ffd, 0x5010, 0x9ff0, top - 36, top - 32) for n in (1, 3, 8)]
    faults = 0
    for name, args in cases:
        reference = _outcome(lambda: interp_function(module, name, args, st))
        faults += isinstance(reference, str)
        while_def, n = f"{name}_step_0_while", args[-1]
        stops = set()  # the iteration each run ended in
        for checking, trace in ((True, False), (False, False), (True, True)):
            ev.trace_out = io.StringIO()
            try:
                res = ev.run(name, args, st, checking=checking, trace=trace)
            except EvalFault as e:
                fault = re.fullmatch(rf"(.*) \[entry {name}, step (\d+)\]", str(e))
                assert fault and fault[1] == reference, (name, args, str(e), reference)
                stops.add(int(fault[2]))
            else:
                assert res.state == reference, (name, args, checking, trace)
                assert res.per_while == {while_def: n}
                stops.add(n)
            if trace:
                assert ev.trace_out.getvalue().count(f"-> {name}_step_0 ") == max(stops)
        assert len(stops) == 1, (name, args, stops)
        for budget in range(1, stops.pop()):
            with pytest.raises(BudgetExhausted) as err:
                ev.run(name, args, st, budget=budget)
            assert str(err.value) == f"step budget of {budget} exhausted in {while_def}"
            assert err.value.counts == {while_def: budget + 1}
    assert 0 < faults < len(cases)


def test_a_loop_writes_its_own_pages_only_untraced_and_where_its_step_makes_no_call():
    """@stl's loop, whose step stores and makes no call, reads its run's
    own pages into `_own` before its `while`, writes a store that hits
    them into the page, and reads `_own` again after each `_store_word`.
    An untraced run calls `_store_word` for the run's first store and its
    first store to each page; a traced run calls it for every store.
    @cll's step calls a storing callee and @fresh's loop does not store,
    so neither loop reads `_own` or writes a page itself."""
    ev = ProgramEvaluator(load_program(emit_sexpr(translate_module(parse_text(HOIST)))))
    loops = {}
    for name in ("stl", "cll", "fresh"):
        loop = ev.source[ev.source.index(f"_{name}_step_0_while("):]
        loops[name] = loop[:loop.index("\ndef ")]
    stl = loops["stl"]
    assert stl.index("    _own = _owned(v_st)\n") < stl.index("while ")
    assert ("            _w = _own.get(v_slot >> 12)\n"
            "            if _w is not None and _o <= 4088:\n"
            "                _pack8(_w, _o, (v_w & 18446744073709551615))\n"
            "            else:\n"
            "                v_st = _store_word(8, v_slot, v_w, v_st)\n"
            "                _own = _owned(v_st)\n") in stl
    for name in ("cll", "fresh"):
        assert "_own" not in loops[name] and " _w = " not in loops[name], name
    calls = []
    store_word = ev._ns["_store_word"]

    def counted(*args):
        calls.append(args[1])
        return store_word(*args)
    ev._ns["_store_word"] = counted
    st = MachineState(stack=0xFFFF0000, frame=0xFFFF0000, mem={0x2ff8: 1})
    n = 1000  # 8000 bytes from 0x2ff8: pages 2, 3 and 4
    for trace in (False, True):
        ev.trace_out = io.StringIO()
        calls.clear()
        res = ev.run("stl", (0x2ff8, n), st, checking=False, trace=trace)
        assert res.state == interp_function(parse_text(HOIST), "stl", (0x2ff8, n), st)
        assert calls == ([0x2ff8 + 8 * j for j in range(n)] if trace
                         else [0x2ff8, 0x3000, 0x4000])


# Loops whose stores a run writes into its own pages in place (`_own`).
# @fill stores at a masked address, @walk at a phi slot, which an
# unchecked run does not range-check, @twice stores twice into one word
# and loads it, and @narrow stores 1, 2 and 4 bytes at byte strides.
STORES = """define i64 @fill(i64* %p, i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %slot = getelementptr inbounds i64* %p, i64 %j
  %j.3 = mul i64 %j, 3
  %w = add i64 %j.3, 1
  store i64 %w, i64* %slot, align 8
  %acc.next = add i64 %acc, %w
  %j.next = add i64 %j, 1
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  %sum = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %sum
}

define i64 @walk(i64* %p, i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %q = phi i64* [ %q.next, %loop ], [ %p, %0 ]
  %j = phi i32 [ %j.next, %loop ], [ 0, %0 ]
  %j.64 = zext i32 %j to i64
  %v = xor i64 %j.64, 81985529216486895
  store i64 %v, i64* %q, align 8
  %q.next = getelementptr i64* %q, i64 1
  %j.next = add i32 %j, 1
  %exit = icmp eq i32 %j.next, %n
  br i1 %exit, label %done, label %loop

done:
  %out = phi i32 [ 0, %0 ], [ %j.next, %loop ]
  %r = zext i32 %out to i64
  ret i64 %r
}

define i64 @twice(i64* %p, i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %slot = getelementptr inbounds i64* %p, i64 %j
  store i64 %j, i64* %slot, align 8
  %j.7 = mul i64 %j, 7
  %u = add i64 %j.7, 2
  store i64 %u, i64* %slot, align 8
  %x = load i64* %slot, align 8
  %acc.next = add i64 %acc, %x
  %j.next = add i64 %j, 1
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  %sum = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %sum
}

define i64 @narrow(i8* %b, i16* %h, i32* %w, i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %j.5 = mul i64 %j, 5
  %x = add i64 %j.5, 3
  %at.b = getelementptr inbounds i8* %b, i64 %j
  %x.8 = trunc i64 %x to i8
  store i8 %x.8, i8* %at.b
  %at.h = getelementptr inbounds i16* %h, i64 %j
  %y = mul i64 %x, 4099
  %y.16 = trunc i64 %y to i16
  store i16 %y.16, i16* %at.h
  %at.w = getelementptr inbounds i32* %w, i64 %j
  %z = mul i64 %y, 1000003
  %z.32 = trunc i64 %z to i32
  store i32 %z.32, i32* %at.w
  %j.next = add i64 %j, 1
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  ret i64 0
}
"""

# @fill's store, with its state passed through (if c st st) first
_FILL_STORE = "(st (storebytes 8 slot (wtobytes 8 w) st))"
_FILL_STORE_VIA_IF = "(st (if (= j 0) st st))\n         " + _FILL_STORE


def test_differential_fused_stores_in_loops():
    """Loops whose stores the run writes into its own pages agree with the
    reference interpreter in retval, memory, fault text and iteration
    counts, in checked, unchecked, traced and budget-20 runs, and leave
    the caller's memory and every one of its pages as they were.  The
    stores straddle a page boundary, fault at the 2^32 edge from a masked
    address and from a phi slot, reach a page first inside the loop,
    write a page the caller's memory shares, store twice into a word that
    the step then loads, and take their state through (if c st st)."""
    module = parse_text(STORES)
    text = emit_sexpr(translate_module(module))
    assert text.count(_FILL_STORE) == 1
    programs = [load_program(text), load_program(text.replace(_FILL_STORE, _FILL_STORE_VIA_IF))]
    evs = [ProgramEvaluator(program) for program in programs]
    for ev in evs:
        for name in ("fill", "walk", "twice", "narrow"):
            loop = ev.source[ev.source.index(f"_{name}_step_0_while("):]
            loop = loop[:loop.index("\ndef ")]
            assert "    _own = _owned(v_st)\n" in loop and "_w = _own.get(" in loop, name
    assert "(v_st if " in evs[1].source
    rng = random.Random(SEED + 7)
    top = 1 << 32
    mem = {a: rng.randrange(256) for a in range(0x1fc0, 0x2040)}
    mem.update({a: rng.randrange(256) for a in range(0x5000, 0x5040)})
    mem.update({a: rng.randrange(256) for a in range(top - 48, top)})
    st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
    pages = dict(st.mem.pages)
    contents = {p: bytes(page) for p, page in pages.items()}
    assert 3 not in pages  # the page that 0x2fe8 + 8 j reaches inside the loop
    cases = [("fill", (p, n)) for p in (0x1ffc, 0x1fe0, 0x2fe8, 0x5008, top - 20, top - 40)
             for n in (1, 5, 25)]
    cases += [("walk", (p, n)) for p in (0x1ff9, 0x5000, top - 4 - 8 * 2, top - 4 - 8 * 22)
              for n in (2, 4, 25)]
    cases += [("twice", (p, n)) for p in (0x1ff0, 0x1ffd, 0x5018, top - 32) for n in (1, 6, 25)]
    narrow = [(0x1ffe, 0x1ffd, 0x1ffa), (0x5000, 0x2ff1, 0x2fff), (top - 3, top - 9, top - 24)]
    cases += [("narrow", (b, h, w, n)) for b, h, w in narrow for n in (3, 25)]
    faults = 0
    for name, args in cases:
        reference = _outcome(lambda: interp_function(module, name, args, st))
        faults += isinstance(reference, str)
        while_def, n = f"{name}_step_0_while", args[-1]
        for ev in evs if name == "fill" else evs[:1]:
            stops = set()  # the iteration each run ended in
            for checking, trace in ((True, False), (False, False), (False, True)):
                ev.trace_out = io.StringIO()
                try:
                    res = ev.run(name, args, st, checking=checking, trace=trace)
                except EvalFault as e:
                    fault = re.fullmatch(rf"(.*) \[entry {name}, step (\d+)\]", str(e))
                    assert fault and fault[1] == reference, (name, args, str(e), reference)
                    stops.add(int(fault[2]))
                else:
                    assert res.state == reference, (name, args, checking, trace)
                    assert res.per_while == {while_def: n}
                    stops.add(n)
                if trace:
                    assert ev.trace_out.getvalue().count(f"-> {name}_step_0 ") == max(stops)
            assert len(stops) == 1, (name, args, stops)
            stop = stops.pop()
            if stop > 20:
                with pytest.raises(BudgetExhausted) as err:
                    ev.run(name, args, st, budget=20)
                assert err.value.counts == {while_def: 21}
            else:
                assert _outcome(lambda: ev.run(name, args, st, budget=20).state) == reference
        assert st.mem.pages == pages and all(st.mem.pages[p] is page for p, page in pages.items())
        assert {p: bytes(page) for p, page in pages.items()} == contents
    assert 0 < faults < len(cases)


def test_reference_interpreter_budget():
    from ll2fun.errors import BudgetExhausted
    src = """define i64 @gen(i64 %val, i32 %n, i64* %array) {
  br label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %j.next = add i64 %j, 1
  %t = trunc i64 %j.next to i32
  %e = icmp eq i32 %t, 0
  br i1 %e, label %out, label %loop

out:
  ret i64 %j.next
}
"""
    module = parse_text(src)
    with pytest.raises(BudgetExhausted):
        interp_function(module, "gen", (0, 0, 0x8000),
                        MachineState(stack=0xFFFF0000, frame=0xFFFF0000), budget=500)


@pytest.mark.parametrize("src, args, message", [
    ("define i64 @gen(i64 %x) {\n  ret i64 %x\n}\n", (1, 2),
     "@gen takes 1 arguments, got 2"),
    # the parser checks no definition before a use; the analysis does
    ("define i64 @gen(i64 %x) {\n  %y = add i64 %z, 1\n  %z = add i64 %x, 1\n"
     "  ret i64 %y\n}\n", (1,), "reference interpreter: %z read before assignment"),
    # the phi lists a predecessor twice and the other not at all
    ("""define i64 @gen(i64 %x) {
entry:
  %c = icmp eq i64 %x, 0
  br i1 %c, label %a, label %j
a:
  br label %j
j:
  %r = phi i64 [ 1, %a ], [ 1, %a ]
  ret i64 %r
}
""", (1,), "phi %r in j has no value for predecessor entry"),
])
def test_reference_interpreter_faults(src, args, message):
    """A call with the wrong number of arguments, and two functions the
    analysis refuses, which the reference interpreter runs until they
    fault."""
    st = MachineState(stack=0xFFFF0000, frame=0xFFFF0000)
    with pytest.raises(EvalFault) as err:
        interp_function(parse_text(src), "gen", args, st)
    assert str(err.value) == message
