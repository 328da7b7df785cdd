"""The pipeline stages the benchmark times, and the checks on their outputs.

Each stage calls only public `ll2fun` functions, in the order the CLI does:
`translate` is `ll2fun translate` without file I/O, `setup` is what
`ll2fun run` does before it executes, and `execute` is the run itself.
The checks compare against `Workload` expectations computed by the
generators, plus the two reference oracles the repository ships
(`oracle.occurrences_spec` and `llvm_interp.interp_function`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ll2fun import evaluator, fun_ir, ll_parser, llvm_interp, oracle, ssa, state

from workloads import STACK, Workload


@dataclass
class Translation:
    module: ll_parser.LlvmModule
    program: fun_ir.FunProgram
    text: str


def translate(ll_text: str) -> Translation:
    module = ll_parser.parse_module(ll_parser.tokenize(ll_text))
    program = fun_ir.translate_module(module)
    return Translation(module, program, fun_ir.emit_sexpr(program))


def setup(fun_text: str, w: Workload):
    """`.fun` text plus initial memory -> (evaluator, initial state).  A
    workload brings its memory either as image text or as a dict."""
    program = fun_ir.load_program(fun_text)
    image = state.parse_memory_image(w.image_text)
    st = state.make_state(mem=image or w.mem)
    return evaluator.ProgramEvaluator(program), st


def execute(ev, w: Workload, st, checking: bool):
    return ev.run(w.entry, w.args, st, checking=checking)


def execute_traced(ev, w: Workload, st):
    """Unchecked run with the definition-level trace on; each definition
    entry is written to `ev.trace_out`."""
    return ev.run(w.entry, w.args, st, checking=False, trace=True)


def instructions_per_iteration(module: ll_parser.LlvmModule) -> int:
    """Source instructions one loop iteration executes: the body and
    terminator of every loop block, phis excluded.  Exact for programs
    with one loop, which every workload has at most."""
    total = 0
    for fn in module.functions:
        loops = ssa.detect_loops(ssa.build_cfg(fn), fn)
        for label in {b for L in loops for b in L.body}:
            total += len(fn.block(label).body) + 1
    return total


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def state_mismatches(w: Workload, final) -> list[str]:
    bad = []
    if final.retval != w.expected_retval:
        bad.append(f"retval {final.retval} != expected {w.expected_retval}")
    if (final.stack, final.frame, final.frame_links) != (STACK, STACK, ()):
        bad.append(f"frame not restored: stack {final.stack:#x} frame {final.frame:#x}")
    if final.mem != w.expected_mem:
        bad.append("final memory differs from the expected memory")
    return bad


def result_mismatches(w: Workload, result) -> list[str]:
    bad = state_mismatches(w, result.state)
    if result.iterations != w.loop_iterations:
        bad.append(f"{result.iterations} loop iterations, expected {w.loop_iterations}")
    return bad


def reference_mismatches(w: Workload, module: ll_parser.LlvmModule, st) -> list[str]:
    """Cross-check the generator's expectations against the repository's
    reference oracles on the initial state."""
    if w.name == "scan":
        val, n, array = w.args
        spec = oracle.occurrences_spec(val, n, array, st)
        return [] if spec == w.expected_retval else \
            [f"occurrences_spec {spec} != generator count {w.expected_retval}"]
    if w.name == "wide":
        final = llvm_interp.interp_function(module, w.entry, w.args, st)
        return [f"interp_function: {m}" for m in state_mismatches(w, final)]
    return []
