"""The scaling matrix: no stage hides a quadratic cost.  Each row builds a
generated shape at two sizes, outside the timing, and bounds the median
ratio of one stage's paired CPU times on them (`conftest.paired_ratio`).
A linear stage reads the ratio of the sizes; each bound leaves room above
that for a shared machine's noise, and a row's comment gives what the
quadratic code it replaced read, where one did.

To add a row, give its shape (size -> input), its stage (input -> anything;
it may assert on its result when that costs nothing next to the stage),
the two sizes, the bound, and whether the collector is paused while it is
timed.  Checks of what a stage computes that cost more go in the plain
tests at the end."""
import contextlib
import gc
import io
import random
from typing import Any, Callable, NamedTuple

import pytest

from conftest import paired_ratio
from llgen import (
    gen_diamond_chain, gen_live_out_loop, gen_loop_chain, gen_state_args, gen_wide_join,
)
from test_linear_state import ALL, BASE, FILL_LL
from test_parser import _CALLEE, _fn
from test_run_modes import _diamonds
from test_ssa import _ladder
from ll2fun import (
    AnalysisError, MachineState, ParseError, ProgramEvaluator, build_cfg, detect_loops,
    emit_sexpr, eval_def, interp_function, load_program, make_state, parse_memory_image,
    parse_module, parse_text, rd_n, resolve_aliases, tokenize, translate_module,
)
from ll2fun import state as st_mod
from ll2fun.fun_ir import _FunctionTranslator, collector_paused
from ll2fun.ssa import analyze_function, compute_liveness


class Row(NamedTuple):
    shape: Callable[[int], Any]   # size -> the stage's input, built untimed
    stage: Callable[[Any], Any]   # the timed work
    sizes: tuple[int, int]
    bound: float                  # on the median of the large/small ratios
    paused: bool                  # collector paused while timed: a collection
                                  # costs in the size of the heap, not of the input


# -- shapes ------------------------------------------------------------------

def _diamond_text(n: int) -> str:
    return gen_diamond_chain(random.Random(n), n)


def _cfg(text: str):
    fn = parse_text(text).functions[0]
    return build_cfg(fn), fn


def _repeating_chain(blocks: int) -> str:
    """A chain of blocks whose last two labels repeat two earlier ones."""
    labels = [f"b{k}" for k in range(blocks)] + [f"b{blocks - 2}", f"b{blocks - 1}"]
    return "define i64 @f() {\n  br label %b0\n" + "".join(
        f"{label}:\n  ret i64 0\n" for label in labels) + "}\n"


def _alias_chain(n: int) -> str:
    """n aliases, each naming the next, the last @g, and one call of each."""
    lines = [f"@a{k} = alias i64 (i64)* @a{k + 1}" for k in range(n - 1)]
    lines.append(f"@a{n - 1} = alias i64 (i64)* @g")
    calls = "".join(f"  %r{k} = call i64 @a{k}(i64 %x)\n" for k in range(n))
    return "\n".join(lines) + "\n" + _CALLEE + _fn(calls + "  ret i64 %x\n")


def _add_chain(n: int) -> str:
    """One block of n adds, each reading the one before."""
    body = "".join(f"  %v{k + 1} = add i64 %v{k}, {k}\n" for k in range(n))
    return f"define i64 @f(i64 %v0) {{\n{body}  ret i64 %v{n}\n}}\n"


def _word_image(words: int, stride: int) -> str:
    return "".join(f"w 8 {0x10000 + stride * j:#x} {j * 0x9E3779B97F4A7C15 % (1 << 64)}\n"
                   for j in range(words))


@collector_paused()  # as translate_module analyzes
def _loop_chain_analysis(n: int):
    module = parse_text(gen_loop_chain(n))
    return analyze_function(module.functions[0]), module


def _fun_text(ll_text: str) -> str:
    return emit_sexpr(translate_module(parse_text(ll_text)))


_FILL = parse_text(FILL_LL)
_RUN_BYTES = random.Random(7).randbytes(2 << 20)


# -- stages --------------------------------------------------------------------

def _reject_repeated_label(text: str):
    with pytest.raises(ParseError, match="block label b"):
        parse_text(text)


def _reject_ladder(module):
    with pytest.raises(AnalysisError) as err:
        translate_module(module)
    assert str(err.value) == ("@ladder: irreducible control flow (cycle through b1 not "
                              "headed by a dominator)")


def _resolve_alias_chain(module):
    body = resolve_aliases(module).function("f").blocks[0].body
    assert {inst.callee for inst in body} == {"g"}


def _detect_loop_chain(graph):
    cfg, fn = graph
    assert len(detect_loops(cfg, fn)) == len(cfg.nodes) // 2  # entry, then H, X per loop


def _traced_run(shape):
    ev, (args, mem) = shape
    ev.trace_out = io.StringIO()
    ev.run("gen", args, make_state(mem=mem), checking=False, trace=True)


def _interp_fill(words: int):
    st = interp_function(_FILL, "fill", (BASE, words, ALL), MachineState())
    assert st.retval == words * (words + 1) // 2


def _read_image(text: str):
    mem = parse_memory_image(text)
    _, _, addr, word = text.rsplit("\n", 2)[1].split()
    assert rd_n(8, int(addr, 16), mem) == int(word)


def _write_run(size: int):
    """One run of size bytes, written four times into fresh memories."""
    for _ in range(4):
        mem = st_mod.Memory()
        st_mod._write_runs(mem, _RUN_BYTES, [(0x10000, 0x10000 + size)])
    assert rd_n(8, 0x10000 + size - 8, mem) == int.from_bytes(
        _RUN_BYTES[size - 8:size], "little")


ROWS = {
    # with the collector on, as the CLI runs: a build does not rescan the
    # growing program in collections
    "front_end-diamonds": Row(
        _diamond_text, lambda text: parse_module(tokenize(text)), (400, 800), 2.6, False),
    "translate-diamonds": Row(
        lambda n: parse_text(_diamond_text(n)), translate_module, (400, 800), 2.6, False),
    "load-diamonds": Row(
        lambda n: _fun_text(_diamond_text(n)), load_program, (400, 800), 2.6, False),
    # a repeated label near the end: a scan of all labels per label was 3.7-3.9x
    "reject_label-repeated_labels": Row(
        _repeating_chain, _reject_repeated_label, (4000, 8000), 2.6, False),
    # following each alias chain to its end was 16x
    "resolve_aliases-alias_chain": Row(
        lambda n: parse_text(_alias_chain(n)), _resolve_alias_chain, (1000, 4000), 6, False),
    "detect_loops-loop_chain": Row(
        lambda n: _cfg(gen_loop_chain(n)), _detect_loop_chain, (800, 1600), 3, True),
    # analysis read 2.0-2.4x here; the bound is detect_loops'
    "analyze-loop_chain": Row(
        lambda n: parse_text(gen_loop_chain(n)).functions[0], analyze_function,
        (1000, 2000), 3, True),
    # walking the chain of loop exits from each loop was 3.8x
    "translator-loop_chain": Row(
        _loop_chain_analysis, lambda a: _FunctionTranslator(*a).translate(),
        (2000, 4000), 2.6, True),
    "load-loop_chain": Row(
        lambda n: _fun_text(gen_loop_chain(n)), load_program, (80, 320), 6, False),
    # liveness scanned every phi's incoming list per edge, and translation
    # walked a dominator tree's chain of predecessors for each of them
    "liveness-wide_join": Row(
        lambda n: _cfg(gen_wide_join(n)), lambda g: compute_liveness(*g), (300, 1200), 6, True),
    "translate-wide_join": Row(
        lambda n: parse_text(gen_wide_join(n)), translate_module, (1000, 2000), 2.6, True),
    "reject_irreducible-ladder": Row(
        lambda n: parse_text(_ladder(n)), _reject_ladder, (1000, 2000), 2.6, True),
    # one map per loop finds each exit value's frame slot
    "translate-live_outs": Row(
        lambda k: parse_text(gen_live_out_loop(k, False)), translate_module,
        (1000, 4000), 6, False),
    "translate-guarded_live_outs": Row(
        lambda k: parse_text(gen_live_out_loop(k, True)), translate_module,
        (1000, 4000), 6, False),
    # a scan of every name in scope per binding was about 4x
    "codegen-long_block": Row(
        lambda n: load_program(_fun_text(_add_chain(n))), ProgramEvaluator,
        (5000, 10000), 2.6, False),
    # a traced run reads each section's arguments from its function's locals
    "traced_run-diamonds": Row(
        lambda n: (ProgramEvaluator(_diamonds(n)), gen_state_args(random.Random(5))),
        _traced_run, (534, 1067), 2.6, False),
    # a block transition looks its target up by label, not by a scan
    "interp-diamonds": Row(
        lambda n: parse_text(_diamond_text(n)),
        lambda m: interp_function(m, "gen", (7, 3, 0x8000),
                                  MachineState(stack=0xFFFF0000, frame=0xFFFF0000)),
        (2000, 4000), 3, True),
    # a copy of the memory per store was about 10x (interp) and 16x (run)
    "interp-stores": Row(lambda n: n, _interp_fill, (2048, 8192), 6, True),
    "run-stores": Row(
        lambda n: (ProgramEvaluator(translate_module(_FILL)), n),
        lambda a: a[0].run("fill", (BASE, a[1], ALL), make_state(), checking=False),
        (4096, 4 * 4096), 6, True),
    # one contiguous run of 128 pages, and the same words with gaps
    "read_image-stride_8": Row(
        lambda n: _word_image(n, 8), _read_image, (1 << 16, 1 << 17), 2.6, False),
    "read_image-stride_16": Row(
        lambda n: _word_image(n, 16), _read_image, (1 << 16, 1 << 17), 2.6, False),
    # cutting the rest of a run again per page copies pages x run bytes,
    # which is small against the work per line at the sizes above
    "write_runs-one_run": Row(lambda n: n, _write_run, (1 << 20, 2 << 20), 2.6, False),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=list(ROWS))
def test_scaling(row):
    inputs = [row.shape(n) for n in row.sizes]
    gc.collect()  # so that no earlier row's garbage is collected inside this one's timing
    with collector_paused() if row.paused else contextlib.nullcontext():
        assert gc.isenabled() is not row.paused
        ratio, pairs = paired_ratio(row.stage, *inputs)
    assert ratio <= row.bound, pairs


# -- what the timed stages compute ---------------------------------------------

def test_the_loaded_loop_chain_keeps_the_translated_loops():
    for n in (80, 320):
        program = translate_module(parse_text(gen_loop_chain(n)))
        loaded = load_program(emit_sexpr(program))
        assert len(program.cliques) == n and loaded.cliques == program.cliques
        assert eval_def(loaded, "chain", (5,), make_state())[1].retval == 5 + 3 * n


@pytest.mark.parametrize("guarded", [False, True])
def test_live_outs_sum(guarded):
    program = translate_module(parse_text(gen_live_out_loop(1000, guarded)))
    assert eval_def(program, "outs", (3,), make_state())[1].retval == 3 * 1000 * 1001 // 2


def test_wide_join_liveness():
    live = compute_liveness(*_cfg(gen_wide_join(1200)))
    assert live["J"] == set() and live["B7"] == {"x"}


def test_long_block_sum():
    ev = ProgramEvaluator(load_program(_fun_text(_add_chain(5000))))
    assert ev.run("f", (1,), make_state()).state.retval == 1 + 4999 * 5000 // 2
