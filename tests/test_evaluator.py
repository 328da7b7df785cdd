"""Primitive semantics, compiled execution, signature checking, budgets,
tracing, and stack safety."""

import gc
import importlib.util
import itertools
import math
import pathlib
import random
import sys
import threading
import weakref
from functools import partial
from typing import Callable

import pytest

from ll2fun import (
    BudgetExhausted, EvalFault, SignatureViolation, bits, emit_sexpr, eval_def,
    load_program, make_state, parse_text, translate_module,
)
from ll2fun import evaluator
from ll2fun.evaluator import ProgramEvaluator
from ll2fun.fun_ir import Call, children
from ll2fun.prims import NAT, PRIMS, RUN, STATE, ashr, lshr, sext, shl, to_signed
from ll2fun.state import MachineState, begin_stack_frame
from llgen import gen_program


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by its path so that no other perfbench
    module becomes importable."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ref(op: str, *args):
    """The table's reference semantics; arguments in source order."""
    return PRIMS[op].ref(*args)


# ---------------------------------------------------------------------------
# bits
# ---------------------------------------------------------------------------

def test_bits_modulo_64():
    assert bits((1 << 64) + 5, 63, 0) == 5


def test_bits_identity_below_width():
    rng = random.Random(0)
    for _ in range(1000):
        x = rng.getrandbits(64)
        assert bits(x, 63, 0) == x


def test_bits_slice_against_shift_mask_oracle():
    rng = random.Random(1)
    assert bits(0xABCD, 15, 8) == 0xAB
    for _ in range(2000):
        x = rng.getrandbits(80)
        l = rng.randint(0, 70)
        h = rng.randint(l, 72)
        assert bits(x, h, l) == (x >> l) % (1 << (h - l + 1))


def test_bits_bad_indices():
    with pytest.raises(EvalFault):
        bits(1, 0, 3)


# ---------------------------------------------------------------------------
# Reference functions of the primitive table
# ---------------------------------------------------------------------------

def test_add_wraparound_i64():
    assert ref("bits", ref("+", (1 << 64) - 1, 1), 63, 0) == 0


def test_icmp_eq_values():
    assert ref("=", 399, 399) == 1
    assert ref("=", 399, 234) == 0


def test_icmp_slt_i32_negative_one():
    assert ref("slt", 32, 0xFFFFFFFF, 0) == 1  # -1 < 0


def test_signed_compares_exhaustive_i8():
    def oracle(x):  # independent two's-complement reading
        return x - 256 if x >= 128 else x

    for a in range(256):
        for b in range(256):
            sa, sb = oracle(a), oracle(b)
            assert ref("slt", 8, a, b) == (1 if sa < sb else 0)
            assert ref("sle", 8, a, b) == (1 if sa <= sb else 0)
            assert ref("sgt", 8, a, b) == (1 if sa > sb else 0)
            assert ref("sge", 8, a, b) == (1 if sa >= sb else 0)


def test_signed_compare_spot_checks_i32():
    cases = [(0x80000000, 0x7FFFFFFF), (0, 0), (5, 0xFFFFFFFB)]
    for a, b in cases:
        sa, sb = to_signed(a, 32), to_signed(b, 32)
        assert ref("slt", 32, a, b) == (1 if sa < sb else 0)


def test_shift_semantics():
    assert shl(8, 0x81, 1) == 0x02
    assert lshr(8, 0x81, 1) == 0x40
    assert ashr(8, 0x81, 1) == 0xC0  # sign fill
    # amounts >= width yield zero by definition
    for fn in (shl, lshr, ashr):
        assert fn(8, 0xFF, 8) == 0
        assert fn(8, 0xFF, 200) == 0


def test_sext_widths():
    assert sext(8, 64, 0xFF) == (1 << 64) - 1
    assert sext(8, 64, 0x7F) == 0x7F
    assert sext(1, 64, 1) == (1 << 64) - 1
    assert sext(32, 64, 0x80000000) == 0xFFFFFFFF80000000


def test_sub_via_complement_matches_modular_sub():
    rng = random.Random(3)
    for w in (8, 16, 32, 64):
        for _ in range(500):
            a, b = rng.getrandbits(w), rng.getrandbits(w)
            complement = ref("+", a, ref("-", 1 << w, b))
            assert bits(complement, w - 1, 0) == (a - b) % (1 << w)


def test_state_prims():
    st = make_state()
    st2 = ref("update-retval", 9, st)
    assert ref("retval", st2) == 9
    st3 = ref("begin-stack-frame", ref("init-stack-frame", st2))
    assert st3.frame == st3.stack == st2.stack
    assert ref("end-stack-frame", st3).frame == st2.frame


# ---------------------------------------------------------------------------
# Compiled execution
# ---------------------------------------------------------------------------

def test_occurrences_small(occurrences_program, array_state):
    values, st = eval_def(occurrences_program, "occurrences",
                          (399, 8, 0x8000), array_state)
    assert values == ()
    assert st.retval == 3


def test_occurrences_zero_iterations(occurrences_program, array_state):
    _, st = eval_def(occurrences_program, "occurrences", (399, 0, 0x8000), array_state)
    assert st.retval == 0


def test_occurrences_leaves_input_state_unchanged(occurrences_program, array_state):
    before = dict(array_state.mem)
    eval_def(occurrences_program, "occurrences", (399, 8, 0x8000), array_state)
    assert array_state.mem == before


def test_results_and_state_threading(occurrences_program, array_state):
    values, st = eval_def(occurrences_program, "occurrences_step_0",
                          (0, 0, 0, 0x8000, 8, 399, ), array_state)
    # frame comes back minus the state: (done num_occur j array n val)
    assert len(values) == 6
    assert values[0] == 0  # not done after the first of eight
    assert values[1] == 0  # 20 != 399
    assert values[2] == 1  # j advanced
    assert isinstance(st, MachineState)


def test_checking_rejects_out_of_kind_arguments(occurrences_program, array_state):
    with pytest.raises(SignatureViolation):
        eval_def(occurrences_program, "occurrences",
                 (1 << 70, 8, 0x8000), array_state)  # val exceeds i64
    with pytest.raises(SignatureViolation):
        eval_def(occurrences_program, "occurrences",
                 (399, 8, 1 << 33), array_state)  # array exceeds 32 bits


def test_no_check_skips_kind_validation(occurrences_program, array_state):
    # with checking off the out-of-kind n reaches execution (and the loop
    # then never terminates, so only the budget stops it)
    with pytest.raises(BudgetExhausted):
        eval_def(occurrences_program, "occurrences", (399, 1 << 40, 0x8000),
                 array_state, checking=False, budget=100)


def test_wrong_arity_faults(occurrences_program, array_state):
    with pytest.raises(EvalFault, match="arguments"):
        eval_def(occurrences_program, "occurrences", (399, 8), array_state)


def test_unknown_entry_faults(occurrences_program, array_state):
    with pytest.raises(EvalFault, match="no definition"):
        eval_def(occurrences_program, "nonesuch", (), array_state)


def test_address_fault_carries_context(occurrences_program, array_state):
    with pytest.raises(EvalFault) as err:
        eval_def(occurrences_program, "occurrences",
                 (0, 8, (1 << 32) - 4), array_state, checking=False)
    assert "rd_n" in str(err.value)


def test_iteration_counts(occurrences_program, array_state):
    ev = ProgramEvaluator(occurrences_program)
    res = ev.run("occurrences", (399, 8, 0x8000), array_state)
    assert res.iterations == 8
    res = ev.run("occurrences", (399, 3, 0x8000), array_state)
    assert res.iterations == 3


def test_deterministic_results(occurrences_program, array_state):
    runs = [eval_def(occurrences_program, "occurrences", (399, 8, 0x8000),
                     array_state) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

def test_budget_allows_completion(occurrences_program, array_state):
    res = ProgramEvaluator(occurrences_program).run(
        "occurrences", (399, 8, 0x8000), array_state, budget=10**6)
    assert res.iterations == 8
    assert res.per_while == {"occurrences_step_0_while": 8}
    assert res.state.retval == 3


def test_budget_exhaustion_reports_per_while_counts(occurrences_program, array_state):
    # n with zero low 32 bits but a nonzero high part never matches the
    # 32-bit exit compare: the loop cannot terminate
    with pytest.raises(BudgetExhausted) as err:
        ProgramEvaluator(occurrences_program).run(
            "occurrences", (0, 1 << 32, 0x8000), array_state, budget=1000, checking=False)
    assert err.value.counts == {"occurrences_step_0_while": 1001}
    assert str(err.value) == "step budget of 1000 exhausted in occurrences_step_0_while"


def test_budget_error_without_wrapper(occurrences_program, array_state):
    with pytest.raises(BudgetExhausted):
        eval_def(occurrences_program, "occurrences", (0, 1 << 32, 0x8000),
                 array_state, checking=False, budget=500)


def test_shipped_fixtures_run_without_budget(occurrences_program, nestsum_program,
                                             array_state):
    _, st = eval_def(occurrences_program, "occurrences", (399, 8, 0x8000), array_state)
    assert st.retval == 3
    _, st = eval_def(nestsum_program, "nestsum", (6, 6), make_state())
    assert st.retval == 225


# ---------------------------------------------------------------------------
# Stack safety
# ---------------------------------------------------------------------------

def test_long_iteration_uses_constant_host_depth(occurrences_program, array_state):
    result = {}

    def run():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(128)
        try:
            _, st = eval_def(occurrences_program, "occurrences",
                             (399, 20000, 0x8000), array_state, checking=False)
            result["retval"] = st.retval
        finally:
            sys.setrecursionlimit(old)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    assert result["retval"] == 3  # 20k iterations under a 128-frame limit


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_trace_logs_def_entries(occurrences_program, array_state, capsys):
    eval_def(occurrences_program, "occurrences", (399, 2, 0x8000), array_state,
             trace=True)
    out = capsys.readouterr().out
    assert "-> occurrences " in out
    assert "-> occurrences_step_0 " in out
    assert "<- occurrences " in out


# ---------------------------------------------------------------------------
# Hand-written programs through the loader
# ---------------------------------------------------------------------------

def test_loaded_program_executes():
    text = """(defun double_retval (x st)
  (declare (xargs :signature ((i64_p stp) stp)))
  (let* ((st (update-retval (bits (* x 2) 63 0) st)))
    st))
"""
    program = load_program(text)
    _, st = eval_def(program, "double_retval", ((1 << 63) + 5,), make_state())
    assert st.retval == 10


def test_non_ascii_symbols_run():
    """Symbols that are not ASCII identifiers compile to ASCII locals;
    `_²` and `_٣` sanitize alike, so they get distinct numbered locals."""
    text = """(defun f² (_² _٣ st)
  (declare (xargs :signature ((i64_p i64_p stp) stp)))
  (update-retval (bits (+ (* _² 10) _٣) 63 0) st))

(defun main (x st)
  (declare (xargs :signature ((i64_p stp) stp)))
  (f² x 7 st))
"""
    ev = ProgramEvaluator(load_program(text))
    assert ev.source.isascii()
    assert "    v___ = v_x\n    v____2 = 7\n" in ev.source  # main's jump into f²'s section
    for checking in (True, False):
        result = ev.run("main", (4,), make_state(), checking=checking)
        assert result.state.retval == 47


def test_let_bound_names_that_sanitize_alike_get_numbered_locals():
    """`a-b` and `a*b` sanitize alike; bound in one let* and both live in
    its body, the second gets the next numbered local."""
    text = """(defun f (x st)
  (declare (xargs :signature ((i64_p stp) stp)))
  (let* ((a-b (+ x 1))
         (a*b (* x 3)))
    (update-retval (+ a-b a*b) st)))
"""
    ev = ProgramEvaluator(load_program(text))
    assert "v_a_b = " in ev.source and "v_a_b_2 = " in ev.source
    for checking in (True, False):
        assert ev.run("f", (5,), make_state(), checking=checking).state.retval == 21


def test_a_rebound_name_reuses_its_local_unless_a_copy_reads_it():
    """A name bound again takes its old local back, unless another name
    copied it and still reads it: then it takes the next numbered one.  A
    copy bound again no longer reads it, and the names an if's branch
    binds are not in scope in the other branch."""
    for body, local, want in (
            ("(let* ((a (+ x 1)) (a (+ a 2)) (b a)) (update-retval (+ a b) st))",
             "v_a = (v_a + 2)", 16),
            ("(let* ((a (+ x 1)) (b a) (a (+ a 2))) (update-retval (+ a b) st))",
             "v_a_2 = (v_a + 2)", 14),
            ("(let* ((a (+ x 1)) (b a) (b x) (a (+ a 2))) (update-retval (+ a b) st))",
             "v_a = (v_a + 2)", 13),
            ("(if (= x 0) (let* ((a (+ x 1))) (update-retval a st))"
             " (let* ((a (+ x 2))) (update-retval a st)))", "v_a = (v_x + 2)", 7)):
        ev = ProgramEvaluator(load_program(f"""(defun f (x st)
  (declare (xargs :signature ((i64_p stp) stp)))
  {body})
"""))
        assert local in ev.source
        assert ev.run("f", (5,), make_state()).state.retval == want


def test_fused_load_reads_its_state_through_an_if(array_state):
    """A step's load may read its state through an if whose arms are both
    st: reading st does not consume it.  The fused load then evaluates
    that if, so a fault in its condition is the run's fault, although the
    loop keeps st's page table at hand."""
    golden = (pathlib.Path(__file__).parent / "fixtures" / "occurrences.fun.golden").read_text()
    load = "(loadbytes 8 scevgep st)"
    assert load in golden
    for cond, want in (("(= n 0)", 3),
                       ("(= (wfrombytes 8 (loadbytes 8 4294967295 st)) 1)", "rd_n: address")):
        text = golden.replace(load, f"(loadbytes 8 scevgep (if {cond} st st))")
        ev = ProgramEvaluator(load_program(text))
        assert "(v_st if " in ev.source
        for checking in (True, False):
            try:
                got = ev.run("occurrences", (399, 8, 0x8000), array_state,
                             checking=checking).state.retval
            except EvalFault as e:
                got = str(e)[:len("rd_n: address")]
            assert got == want, (cond, checking)


def test_memory_prims_via_program():
    text = """(defun poke_peek (a st)
  (declare (xargs :signature ((addr_p stp) stp)))
  (let* ((st (storebytes 2 a (wtobytes 2 4660) st))
         (lo (wfrombytes 1 (loadbytes 1 a st)))
         (st (update-retval lo st)))
    st))
"""
    program = load_program(text)
    _, st = eval_def(program, "poke_peek", (0x100,), make_state())
    assert st.retval == 0x34
    assert st.mem == {0x100: 0x34, 0x101: 0x12}


def test_alloca_prims_via_program():
    text = """(defun scratch (st)
  (declare (xargs :signature ((stp) stp)))
  (let* ((st (begin-stack-frame st))
         (p (stack st))
         (st (alloca 16 st))
         (st (storebytes 8 p (wtobytes 8 77) st))
         (v (wfrombytes 8 (loadbytes 8 p st)))
         (st (end-stack-frame st))
         (st (update-retval v st)))
    st))
"""
    program = load_program(text)
    _, st = eval_def(program, "scratch", (), make_state(stack=0x1000, frame=0x1000))
    assert st.retval == 77
    assert st.stack == 0x1000


# the def claims an i8 result but computes 256
BAD_I8 = """(defun bad (st)
  (declare (xargs :signature ((stp) i8_p stp)))
  (mvlist 256 st))
"""


def test_signature_checking_validates_results():
    program = load_program(BAD_I8)
    with pytest.raises(SignatureViolation, match="result"):
        eval_def(program, "bad", (), make_state())
    values, _ = eval_def(program, "bad", (), make_state(), checking=False)
    assert values == (256,)


# the i8 result is proven only because memory holds bytes
PEEK = """(defun peek (a st)
  (declare (xargs :signature ((addr_p stp) i8_p stp)))
  (mvlist (wfrombytes 1 (loadbytes 1 a st)) st))
"""


@pytest.mark.parametrize("st", [partial(make_state, mem={0x100: 300}),
                                partial(MachineState, mem={0x100: -1}),
                                partial(make_state, mem={0x100: 1.5})])
def test_checked_run_rejects_memory_that_is_not_bytes(st):
    """Memory holds bytes by construction, so a checked run whose proofs
    take it to checks no memory: `st` builds a state, however it is made,
    from a memory whose value at 0x100 is not a byte, and is refused when
    it converts that memory to pages."""
    ev = ProgramEvaluator(load_program(PEEK))
    assert ev.checks == {"proven": 4, "compiled": 0}
    bad = st.keywords["mem"][0x100]
    with pytest.raises(EvalFault, match=rf"^memory at 0x100 holds {bad}, not a byte$"):
        st()
    assert ev.run("peek", (0x100,), make_state(mem={0x100: 255})).values == (255,)


def test_translated_programs_compile_no_signature_check(occurrences_program,
                                                      nestsum_program):
    """The loader proves every argument, result and loop-step result
    check of a translated program: the fixtures (occurrences is the scan
    workload's program), the store and wide workloads' programs and 200
    seeded llgen programs compile none.  A hand-written result that may
    fail its kind keeps its check.  On each of them, the call sites that
    validation records are those a reference walk finds, and loading the
    emitted `.fun` records the same ones and leaves the same checks open."""
    workloads, rng = _perfbench_workloads(), random.Random(2008)
    texts = [workloads.FILL_LL, workloads.gen_wide(1).ll_text]
    texts += (gen_program(rng) for _ in range(200))
    for program in itertools.chain([occurrences_program, nestsum_program],
                                   (translate_module(parse_text(t)) for t in texts)):
        checks = ProgramEvaluator(program).checks
        total = sum(len(d.params) + len(d.result_kinds) for d in program.defs)
        assert checks == {"proven": total, "compiled": 0}, program.defs[-1].name
        assert [[(c.name, tail) for c, tail in sites] for sites in program.calls] == \
            [_call_sites(d.body) for d in program.defs]
        reloaded = load_program(emit_sexpr(program))
        assert reloaded.calls == program.calls
        assert reloaded.unproven == program.unproven
    assert ProgramEvaluator(load_program(BAD_I8)).checks == {"proven": 2, "compiled": 1}
    # each evaluator's namespace is a cycle: free them now, not in a collection
    # that lands inside a later test's timing
    gc.collect()


def _call_sites(e, tail: bool = True) -> list:
    """(callee, in result position?) of every call in e, each after the
    calls in its arguments, by a walk over `children`."""
    sites = []
    for child, results in children(e):
        sites += _call_sites(child, tail and results is None)
    if type(e) is Call:
        sites.append((e.name, tail))
    return sites


def _inside(rng: random.Random, fact):
    """A value with this fact: 0, its bound - 1 or a random one below it;
    with no fact, any integer."""
    if fact is None:
        return rng.choice([0, -1, rng.randrange(-(1 << 70), 1 << 70)])
    top = (1 << 80) if fact == math.inf else fact
    return rng.choice([0, top - 1, rng.randrange(top)])


def test_bound_rules_hold_on_the_reference():
    """For each row with a bound rule, 1,000 seeded argument tuples inside
    their facts: a static argument's fact is its value + 1, a natural
    argument's is drawn (None, any natural, or a bound) and its value
    drawn inside it, a byte run is n bytes.  Wherever the rule gives a
    bound, the reference result is a natural below it."""
    rng = random.Random(31)
    for op, prim in PRIMS.items():
        if prim.bound is None:
            continue
        bounded = 0
        for _ in range(1000):
            static = rng.choice(_static_samples(rng, prim))
            facts, values = [], []
            for p in prim.params:
                if p in static:
                    fact, value = static[p] + 1, static[p]
                elif p == "run":
                    fact, value = None, ref("wtobytes", static["n"], rng.getrandbits(64))
                else:
                    fact = rng.choice([None, math.inf, 1, 2, 1 << rng.randrange(1, 70),
                                       rng.randrange(1, 1 << rng.randrange(1, 70))])
                    value = _inside(rng, fact)
                facts.append(fact)
                values.append(value)
            bound = prim.bound(*facts)
            try:
                got = prim.ref(*values)
            except EvalFault:  # a negative shift count: the run faults
                continue
            if bound is not None:
                assert isinstance(got, int) and 0 <= got < bound, (op, facts, values, got)
                bounded += 1
        assert bounded >= 300, (op, bounded)


PROBE = """(defun probe ({params} st)
  (declare (xargs :signature (({kinds} stp) {results})))
  {body})
"""


def _probe(params: list[str], app: str, sort: str = NAT):
    """A def `probe` over natural `params` and st whose result is `app`:
    a natural beside the state, or the state itself."""
    results, body = ("stp", app) if sort == STATE else ("natp stp", f"(mvlist {app} st)")
    return load_program(PROBE.format(params=" ".join(params), body=body, results=results,
                                     kinds=" ".join(["natp"] * len(params))))


def _run_source(n: int, takes_state: bool) -> tuple[str, Callable]:
    """How a probe builds its byte-run argument from the natural parameter
    `run`, and the same run for the reference: a load where the primitive
    also takes the state (so storebytes stays unfused), else wtobytes."""
    if takes_state:
        return f"(loadbytes {n} run st)", lambda r, st: ref("loadbytes", n, r, st)
    return f"(wtobytes {n} run)", lambda r, st: ref("wtobytes", n, r)


def _static_samples(rng: random.Random, prim) -> list[dict[str, int]]:
    """Static arguments inside the row's domains: all lowest, all highest,
    then random picks."""
    samples = []
    for pick in ("low", "high", "random", "random", "random", "random"):
        static: dict[str, int] = {}
        for name, (lo, hi) in prim.domains.items():
            top = static[hi] if isinstance(hi, str) else lo + 100 if hi is None else hi
            static[name] = lo if pick == "low" else top if pick == "high" \
                else rng.randint(lo, top)
        samples.append(static)
    return samples


def _dynamic_sample(rng: random.Random, name: str, static: dict[str, int],
                    takes_state: bool = False):
    width = static.get("w") or static.get("f") or 64
    if name == "st":
        mem = {a: rng.randrange(1, 256) for a in range(0x100, 0x110) if rng.random() < 0.7}
        return begin_stack_frame(make_state(stack=0x1000, frame=0x1000, mem=mem))
    if name == "run":  # the natural that _run_source turns into a byte run
        return rng.randrange(0x100, 0x110) if takes_state else rng.getrandbits(8 * static["n"])
    if name == "a" and "n" in static:  # an address over the sample memory
        return rng.randrange(0x100, 0x110)
    if name == "b" and "w" in static and rng.random() < 0.5:  # a shift amount
        return rng.randrange(width + 2)
    if rng.random() < 0.25:
        return rng.choice([0, 1, 1 << (width - 1), (1 << width) - 1])
    return rng.getrandbits(80 if name == "x" and "h" in static else width)


def test_internal_prim_consistency_random():
    """Every row's compiled form agrees with its reference function on
    random arguments inside the static domains, in value and in condition
    position.  A byte-run result is compared through wfrombytes, a state
    result as the probe's final state."""
    rng = random.Random(123)
    for op, prim in PRIMS.items():
        dynamic = [p for p in prim.params if p not in prim.domains]
        params = [p for p in dynamic if p != "st"]
        for static in _static_samples(rng, prim):
            n = static.get("n")
            run_app, run_ref = _run_source(n, "st" in prim.params) if "run" in dynamic \
                else ("run", None)
            app = " ".join(str(static[p]) if p in static else run_app if p == "run"
                           else p for p in prim.params)
            app = f"({op} {app})"
            if prim.result == RUN:
                app = f"(wfrombytes {n} {app})"
            value = _probe(params, app, prim.result)
            test = _probe(params, f"(if {app} 7 9)") if prim.result == NAT else None
            for _ in range(20):
                args = {p: _dynamic_sample(rng, p, static, "st" in prim.params)
                        for p in dynamic}
                if "b" in args and rng.random() < 0.25:
                    args["b"] = args["a"]  # where compares tell < from <=
                st = args.get("st", make_state())
                refargs = {**args, "run": run_ref(args["run"], st)} if run_ref else args
                want = prim.ref(*[static[p] if p in static else refargs[p]
                                  for p in prim.params])
                values = tuple(args[p] for p in params)
                if prim.result == STATE:
                    _, got = eval_def(value, "probe", values, st, checking=False)
                    assert got == want, (op, static, args)
                    continue
                if prim.result == RUN:
                    want = ref("wfrombytes", n, want)
                (got,), _ = eval_def(value, "probe", values, st, checking=False)
                assert got == want, (op, static, args)
                if test is not None:
                    (got,), _ = eval_def(test, "probe", values, st, checking=False)
                    assert got == (7 if want else 9), (op, static, args)


def test_fused_memory_forms_match_reference():
    """wfrombytes of loadbytes compiles to one load_word and storebytes of
    wtobytes to one store_word; both agree with the composed references."""
    rng = random.Random(7)
    for n in range(1, 9):
        load = _probe(["a"], f"(wfrombytes {n} (loadbytes {n} a st))")
        store = _probe(["a", "v"], f"(storebytes {n} a (wtobytes {n} v) st)", STATE)
        assert "_load(" in ProgramEvaluator(load).source
        assert "_store_word(" in ProgramEvaluator(store).source
        for _ in range(20):
            st = _dynamic_sample(rng, "st", {})
            a, v = rng.randrange(0x100, 0x110), rng.getrandbits(64)
            (got,), _ = eval_def(load, "probe", (a,), st, checking=False)
            assert got == ref("wfrombytes", n, ref("loadbytes", n, a, st))
            _, got = eval_def(store, "probe", (a, v), st, checking=False)
            assert got == ref("storebytes", n, a, ref("wtobytes", n, v), st)


def test_eval_def_keeps_no_evaluator_alive(occurrences_program, array_state, monkeypatch):
    """eval_def compiles an evaluator per call and keeps none: once five
    loaded programs are dropped, no evaluator of theirs survives."""
    built = []

    class Tracked(ProgramEvaluator):
        def __init__(self, program):
            super().__init__(program)
            built.append(weakref.ref(self))

    monkeypatch.setattr(evaluator, "ProgramEvaluator", Tracked)
    text = emit_sexpr(occurrences_program)
    for _ in range(5):
        _, st = eval_def(load_program(text), "occurrences", (399, 8, 0x8000), array_state)
        assert st.retval == 3
    gc.collect()
    assert len(built) == 5 and all(ref() is None for ref in built)
