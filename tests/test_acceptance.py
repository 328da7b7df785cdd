"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line:

  1 end-to-end small array: retval 3, under 1 s
  2 million-iteration run: retval 999993, under 10 s unchecked
  3 throughput floor: >= 2.37e6 source instructions/second (9 per iteration)
  4 differential correctness: 10^4 spec-equivalence trials and 10^3
    generated-program trials against the reference interpreter, bit-exact
  5 memory-model property families: >= 10^4 cases each, under 30 s total
  6 structural validation: one five-def clique per loop, closed terms,
    state threading, on every emitted program
  7 stack safety: the million-iteration run completes under a small host
    recursion limit

The throughput floor is hardware-dependent: it is always reported, and
enforced unless the CI environment variable is set.
"""

import os
import pathlib
import random
import sys
import threading
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from llgen import gen_loop, gen_program, gen_state_args  # noqa: E402

from ll2fun import (  # noqa: E402
    MachineState, ProgramEvaluator, emit_sexpr, eval_def, interp_function,
    load_memory_image, load_program, parse_file, parse_text, run_equiv_trials,
    translate_module,
)
from ll2fun.fun_ir import free_vars, validate_clique, validate_program  # noqa: E402
from ll2fun.state import rd_n, wr_n  # noqa: E402

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
THROUGHPUT_FLOOR = 2_370_000
INSTRUCTIONS_PER_ITERATION = 9


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def pipeline():
    module = parse_file(str(FIXTURES / "occurrences.ll"))
    program = translate_module(module)
    # exactly what the CLI does: go through the emitted text and the loader
    program = load_program(emit_sexpr(program))
    mem = load_memory_image(str(FIXTURES / "occurrences_array.mem"))
    st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
    return module, program, st


def test_criterion_1_small_end_to_end(pipeline):
    _, program, st = pipeline
    t0 = time.perf_counter()
    _, final = eval_def(program, "occurrences", (399, 8, 0x8000), st)
    elapsed = time.perf_counter() - t0
    ok = final.retval == 3 and elapsed < 1.0
    assert _report("criterion-1 end-to-end small array",
                   ok, f"retval {final.retval} (want 3) in {elapsed:.3f} s")


def test_criterion_2_million_iterations(pipeline):
    _, program, st = pipeline
    t0 = time.perf_counter()
    _, final = eval_def(program, "occurrences", (0, 1_000_000, 0x8000), st,
                        checking=False)
    elapsed = time.perf_counter() - t0
    ok = final.retval == 999_993 and elapsed < 10.0
    assert _report("criterion-2 million-iteration run",
                   ok, f"retval {final.retval} (want 999993) in {elapsed:.3f} s")


def test_criterion_3_throughput_floor(pipeline):
    _, program, st = pipeline
    ev = ProgramEvaluator(program)
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        res = ev.run("occurrences", (0, 1_000_000, 0x8000), st, checking=False)
        elapsed = max(time.perf_counter() - t0, 1e-9)
        best = max(best, res.iterations * INSTRUCTIONS_PER_ITERATION / elapsed)
    ok = best >= THROUGHPUT_FLOOR
    _report("criterion-3 throughput floor", ok,
            f"{best:,.0f} instructions/second (floor {THROUGHPUT_FLOOR:,})")
    if os.environ.get("CI"):
        pytest.skip(f"throughput reported, not enforced in CI: {best:,.0f}/s")
    assert ok


def test_criterion_4_differential_correctness(pipeline):
    module, program, st = pipeline
    summary = run_equiv_trials(program, trials=10_000, seed=0x5EED)
    ok = summary.passed
    detail = f"{summary.trials} spec-equivalence trials (seed {summary.seed:#x})"
    if not ok:
        detail += "; " + summary.report()

    rng = random.Random(0xD1FF)
    mismatches = 0
    trials = 1000
    first_failure = ""
    for trial in range(trials):
        src = gen_program(rng)
        args, mem = gen_state_args(rng)
        gen_module = parse_text(src)
        gen_program_ir = translate_module(gen_module)
        if trial % 5 == 0:
            gen_program_ir = load_program(emit_sexpr(gen_program_ir))
        run_st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
        _, translated = eval_def(gen_program_ir, "gen", args, run_st)
        reference = interp_function(gen_module, "gen", args, run_st)
        if translated != reference:
            mismatches += 1
            if not first_failure:
                first_failure = f" first at seed 0xD1FF trial {trial} args {args}"
    ok2 = mismatches == 0
    detail += (f"; {trials} generated programs vs reference interpreter, "
               f"{mismatches} mismatches{first_failure}")
    assert _report("criterion-4 differential correctness", ok and ok2, detail)


def test_criterion_5_memory_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(0xABCD)
    cases = 10_000
    base, size = 0x6000, 0x180

    for _ in range(cases):  # read-over-write
        n = rng.randint(1, 8)
        addr = rng.randrange(base, base + size - n)
        v = rng.getrandbits(8 * n)
        assert rd_n(n, addr, wr_n(n, addr, v, {})) == v

    for _ in range(cases):  # disjoint frame conditions
        n = rng.randint(1, 8)
        addr = rng.randrange(base, base + size - n)
        before = {a: rng.randint(1, 255)
                  for a in rng.sample(range(base, base + size), 8)}
        after = wr_n(n, addr, rng.getrandbits(8 * n), before)
        for a in range(base, base + size):
            if not addr <= a < addr + n:
                assert after.get(a, 0) == before.get(a, 0)

    for _ in range(cases):  # little-endian decomposition
        n = rng.randint(2, 8)
        addr = rng.randrange(base, base + size - n)
        mem = {addr + k: rng.randint(0, 255) for k in range(n)}
        mem = {a: b for a, b in mem.items() if b}
        assert rd_n(n, addr, mem) == rd_n(1, addr, mem) + 256 * rd_n(n - 1, addr + 1, mem)

    for _ in range(cases):  # canonical sparseness
        mem = {}
        for _ in range(6):
            n = rng.randint(1, 8)
            mem = wr_n(n, rng.randrange(base, base + size - n),
                       rng.getrandbits(8 * n) if rng.random() < 0.6 else 0, mem)
        assert all(1 <= b <= 255 for b in mem.values())

    flat = bytearray(size)
    mem = {}
    for _ in range(cases):  # trace equivalence against a flat byte array
        n = rng.randint(1, 8)
        addr = rng.randrange(base, base + size - n)
        if rng.random() < 0.6:
            v = rng.getrandbits(8 * n)
            mem = wr_n(n, addr, v, mem)
            for k in range(n):
                flat[addr - base + k] = (v >> (8 * k)) & 0xFF
        else:
            want = 0
            for k in range(n - 1, -1, -1):
                want = (want << 8) | flat[addr - base + k]
            assert rd_n(n, addr, mem) == want
    assert mem == {base + i: b for i, b in enumerate(flat) if b}

    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    assert _report("criterion-5 memory property suite", ok,
                   f"5 families x {cases} cases in {elapsed:.2f} s (limit 30 s)")


def test_criterion_6_structural_validation(pipeline):
    module, program, _ = pipeline
    checked_programs = 0
    checked_cliques = 0

    def check(fn_module, fn_program):
        nonlocal checked_programs, checked_cliques
        validate_program(fn_program)
        loops = 0
        from ll2fun import resolve_aliases
        from ll2fun.ssa import analyze_function
        for fn in resolve_aliases(fn_module).functions:
            loops += len(analyze_function(fn).loops)
        assert len(fn_program.cliques) == loops
        for clique in fn_program.cliques:
            validate_clique(fn_program, clique)
            checked_cliques += 1
        for d in fn_program.defs:
            assert free_vars(d.body, frozenset(d.param_names)) == set()
            assert d.params[-1] == ("st", "state")
            assert d.result_kinds[-1] == "state"
        generals = {d.name for d in fn_program.defs if d.general_recursive}
        assert generals == {c.while_def for c in fn_program.cliques}
        checked_programs += 1

    check(module, program)
    nest_module = parse_file(str(FIXTURES / "nestsum.ll"))
    check(nest_module, translate_module(nest_module))
    rng = random.Random(0x57)
    for _ in range(100):
        src = gen_loop(rng)
        m = parse_text(src)
        check(m, translate_module(m))
    assert _report("criterion-6 structural validation", True,
                   f"{checked_programs} programs, {checked_cliques} cliques, "
                   "closed-term and state-threading checks clean")


def test_criterion_7_stack_safety(pipeline):
    _, program, st = pipeline
    outcome: dict = {}

    def run():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(160)
        try:
            _, final = eval_def(program, "occurrences", (0, 1_000_000, 0x8000),
                                st, checking=False)
            outcome["retval"] = final.retval
        except Exception as e:  # noqa: BLE001 - reported below
            outcome["error"] = repr(e)
        finally:
            sys.setrecursionlimit(old)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    ok = outcome.get("retval") == 999_993
    assert _report("criterion-7 stack safety", ok,
                   "one million iterations under a 160-frame recursion limit "
                   f"-> {outcome}")
