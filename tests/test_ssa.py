"""CFG construction, block signatures, loop detection, and emission order."""

import hashlib
import pathlib
import random
import sys
from collections import Counter

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import paired_ratio  # noqa: E402
from llgen import (  # noqa: E402
    gen_cfg, gen_diamond_chain, gen_loop_chain, gen_program, gen_wide_join,
)

from ll2fun import (  # noqa: E402
    AnalysisError, build_cfg, compute_block_params, detect_loops, emit_sexpr, load_program,
    parse_file, parse_text, translate_module,
)
from ll2fun.fun_ir import collector_paused  # noqa: E402
from ll2fun.ll_parser import Reg, Ret, resolve_aliases  # noqa: E402
from ll2fun.ssa import (  # noqa: E402
    BlockUnit, CliqueUnit, DriverUnit, analyze_function,
    compute_liveness, dominators,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _fn(module, name=None):
    return module.functions[0] if name is None else module.function(name)


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------

def test_cfg_of_occurrences(occurrences_module):
    cfg = build_cfg(_fn(occurrences_module))
    assert cfg.entry == "0"
    assert set(cfg.nodes) == {"0", ".lr.ph", "._crit_edge"}
    assert set(cfg.edges["0"]) == {".lr.ph", "._crit_edge"}
    assert set(cfg.edges[".lr.ph"]) == {".lr.ph", "._crit_edge"}
    assert cfg.edges["._crit_edge"] == ()


def test_cfg_single_block():
    m = parse_text("define i64 @f(i64 %x) {\n  ret i64 %x\n}\n")
    cfg = build_cfg(_fn(m))
    assert cfg.nodes == ("0",)
    assert cfg.edges["0"] == ()


def test_cfg_branch_to_missing_label():
    m = parse_text("define i64 @f(i64 %x) {\n  br label %nowhere\n}\n")
    with pytest.raises(AnalysisError, match="undefined label"):
        build_cfg(_fn(m))


def test_cfg_unreachable_block_rejected():
    src = """define i64 @f(i64 %x) {
  ret i64 %x

dead:
  ret i64 0
}
"""
    with pytest.raises(AnalysisError, match="unreachable"):
        build_cfg(_fn(parse_text(src)))


def test_dominators_of_occurrences(occurrences_module):
    cfg = build_cfg(_fn(occurrences_module))
    dom = dominators(cfg)

    def dominators_of(n):
        return {a for a in cfg.nodes if dom.dominates(a, n)}

    assert dominators_of(".lr.ph") == {"0", ".lr.ph"}
    assert dominators_of("._crit_edge") == {"0", "._crit_edge"}
    assert dom.idom == {"0": "0", ".lr.ph": "0", "._crit_edge": "0"}


def _reference_dominator_sets(cfg):
    """The textbook iterative data-flow formulation over dominator sets."""
    dom = {n: set(cfg.nodes) for n in cfg.nodes}
    dom[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for n in cfg.nodes:
            if n != cfg.entry:
                new = {n} | set.intersection(*(dom[p] for p in cfg.preds[n]))
                if new != dom[n]:
                    dom[n], changed = new, True
    return dom


def _corpus():
    """Fixtures, seeded random programs and a few long diamond chains."""
    for path in sorted(FIXTURES.glob("*.ll")):
        yield from parse_file(str(path)).functions
    rng = random.Random(0x5EED)
    for _ in range(200):
        yield from resolve_aliases(parse_text(gen_program(rng))).functions
    for seed, diamonds in ((1, 40), (2, 150), (3, 400)):
        yield parse_text(gen_diamond_chain(random.Random(seed), diamonds)).functions[0]


IRREDUCIBLE = """define i64 @f(i1 %c) {
  br i1 %c, label %a, label %b

a:
  br i1 %c, label %b, label %out

b:
  br i1 %c, label %a, label %c2

c2:
  br label %a

out:
  ret i64 0
}
"""


def test_dominator_tree_matches_dominator_sets():
    fns = [fn for fn in _corpus() if len(fn.blocks) < 200]
    fns.append(_fn(parse_text(IRREDUCIBLE)))
    for fn in fns:
        cfg = build_cfg(fn)
        tree, sets = dominators(cfg), _reference_dominator_sets(cfg)
        for b in cfg.nodes:
            assert {a for a in cfg.nodes if tree.dominates(a, b)} == sets[b], (fn.name, b)


# ---------------------------------------------------------------------------
# Block signatures
# ---------------------------------------------------------------------------

def test_block_params_of_occurrences(occurrences_module):
    fn = _fn(occurrences_module)
    sigs = compute_block_params(build_cfg(fn), fn)
    crit = sigs["._crit_edge"]
    assert crit.phi_params == ("num_occur.0.lcssa",)
    assert crit.flow_params == ()
    loop = sigs[".lr.ph"]
    assert loop.phi_params == ("num_occur", "j")
    assert loop.flow_params == ("array", "n", "val")
    entry = sigs["0"]
    assert entry.phi_params == ()
    assert set(entry.flow_params) == {"array", "n", "val"}


def test_signature_kinds(occurrences_module):
    fn = _fn(occurrences_module)
    sigs = compute_block_params(build_cfg(fn), fn)
    loop = sigs[".lr.ph"]
    assert loop.kinds == {"num_occur": "i64", "j": "i64", "array": "addr",
                          "n": "i32", "val": "i64"}


def test_undefined_register_rejected():
    src = """define i64 @f(i64 %x) {
  %a = add i64 %x, %ghost
  ret i64 %a
}
"""
    m = parse_text(src)
    fn = _fn(m)
    with pytest.raises(AnalysisError, match="no definition"):
        compute_block_params(build_cfg(fn), fn)


def test_dominance_violation_rejected():
    # %late is defined on only one path into %join
    src = """define i64 @f(i64 %x, i1 %c) {
  br i1 %c, label %a, label %join

a:
  %late = add i64 %x, 1
  br label %join

join:
  %r = add i64 %late, 1
  ret i64 %r
}
"""
    fn = _fn(parse_text(src))
    with pytest.raises(AnalysisError, match="no definition"):
        compute_block_params(build_cfg(fn), fn)


def _reference_first_use_order(fn, start, wanted):
    """Rotate the blocks to start at `start` and scan every operand in
    textual order: the definition of the parameter order."""
    labels = [b.label for b in fn.blocks]
    i = labels.index(start)
    order = []

    def visit(operands):
        for op in operands:
            if isinstance(op, Reg) and op.name in wanted and op.name not in order:
                order.append(op.name)

    for block in fn.blocks[i:] + fn.blocks[:i]:
        for phi in block.phis:
            visit(tuple(v for v, _ in phi.incomings))
        for inst in block.body:
            visit(inst.operands)
        term = block.terminator
        if isinstance(term, Ret):
            visit((term.value,))
        elif term.cond is not None:
            visit((term.cond,))
    assert set(order) == wanted
    return tuple(order)


def test_block_params_match_rotate_and_scan_reference():
    checked = 0
    for fn in _corpus():
        cfg = build_cfg(fn)
        live_in = compute_liveness(cfg, fn)
        sigs = compute_block_params(cfg, fn)
        for block in fn.blocks:
            sig = sigs[block.label]
            assert sig.phi_params == tuple(phi.result for phi in block.phis)
            assert sig.flow_params == _reference_first_use_order(
                fn, block.label, live_in[block.label]), (fn.name, block.label)
        checked += 1
    assert checked >= 200


def test_signatures_are_deterministic(occurrences_module):
    fn = _fn(occurrences_module)
    a = compute_block_params(build_cfg(fn), fn)
    b = compute_block_params(build_cfg(fn), fn)
    assert a == b


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------

def test_occurrences_loop_info(occurrences_module):
    fn = _fn(occurrences_module)
    loops = detect_loops(build_cfg(fn), fn)
    assert len(loops) == 1
    L = loops[0]
    assert (L.header, L.latch, L.exit) == (".lr.ph", ".lr.ph", "._crit_edge")
    assert L.body == (".lr.ph",)
    assert L.carried == ("num_occur", "j")
    assert L.exit_cond == "exitcond"
    assert L.exit_when_true
    assert L.preheader == "0"
    assert L.guarded


def test_loop_free_function_has_no_loops():
    m = parse_text("define i64 @f(i64 %x) {\n  ret i64 %x\n}\n")
    fn = _fn(m)
    assert detect_loops(build_cfg(fn), fn) == ()


def test_nested_loops_innermost_first(nestsum_module):
    fn = _fn(nestsum_module)
    loops = detect_loops(build_cfg(fn), fn)
    assert len(loops) == 2
    inner, outer = loops
    assert inner.index == 0 and inner.header == "inner.header"
    assert inner.body == ("inner.header",)
    assert outer.index == 1 and outer.header == "outer.header"
    assert set(outer.body) == {"outer.header", "inner.ph", "inner.header", "inner.exit"}
    assert outer.latch == "inner.exit"


def test_back_edge_removal_leaves_acyclic(nestsum_module):
    fn = _fn(nestsum_module)
    cfg = build_cfg(fn)
    loops = detect_loops(cfg, fn)
    removed = {(L.latch, L.header) for L in loops}
    seen, order = set(), []

    def dfs(n, path):
        assert n not in path, "cycle survived back-edge removal"
        if n in seen:
            return
        seen.add(n)
        for s in cfg.edges[n]:
            if (n, s) not in removed:
                dfs(s, path | {n})
        order.append(n)

    dfs(cfg.entry, frozenset())
    assert set(order) == set(cfg.nodes)


def test_loop_detection_is_linear_in_loop_count():
    """Twice the sequential loops cost detect_loops at most 3x the CPU
    time (linear: 2x)."""
    graphs = []
    for loops in (800, 1600):
        fn = parse_text(gen_loop_chain(loops)).functions[0]
        graphs.append((build_cfg(fn), fn))
    with collector_paused():  # a collection costs in the size of the heap, not of fn
        ratio, pairs = paired_ratio(lambda g: detect_loops(*g), *graphs)
    assert ratio <= 3, pairs
    assert [len(detect_loops(*g)) for g in graphs] == [800, 1600]


def test_liveness_is_linear_in_join_predecessors():
    """A join with 4N predecessors costs compute_liveness at most 6x the
    CPU time of N (linear: 4x): each edge reads its phi values from the
    join's one index rather than scanning every phi's incoming list."""
    functions = [parse_text(gen_wide_join(n)).functions[0] for n in (300, 1200)]
    graphs = [(build_cfg(fn), fn) for fn in functions]
    with collector_paused():
        ratio, pairs = paired_ratio(lambda g: compute_liveness(*g), *graphs)
    assert ratio <= 6, pairs
    live = compute_liveness(*graphs[1])
    assert live["J"] == set() and live["B7"] == {"x"}


def test_irreducible_flow_rejected():
    src = """define i64 @f(i1 %c) {
  br i1 %c, label %a, label %b

a:
  br label %b

b:
  br i1 %c, label %a, label %out

out:
  ret i64 0
}
"""
    fn = _fn(parse_text(src))
    with pytest.raises(AnalysisError, match="irreducible"):
        detect_loops(build_cfg(fn), fn)


def test_multi_exit_loop_rejected():
    src = """define i64 @f(i32 %n, i1 %c) {
  br label %loop

loop:
  %j = phi i32 [ %j.next, %latch ], [ 0, %0 ]
  br i1 %c, label %out, label %latch

latch:
  %j.next = add i32 %j, 1
  %e = icmp eq i32 %j.next, %n
  br i1 %e, label %out, label %loop

out:
  %r = phi i32 [ %j, %loop ], [ %j.next, %latch ]
  %z = zext i32 %r to i64
  ret i64 %z
}
"""
    fn = _fn(parse_text(src))
    with pytest.raises(AnalysisError, match="single exit"):
        detect_loops(build_cfg(fn), fn)


def test_infinite_loop_rejected():
    src = """define i64 @f(i32 %n) {
  br label %loop

loop:
  br label %loop
}
"""
    fn = _fn(parse_text(src))
    with pytest.raises(AnalysisError, match="no exit"):
        detect_loops(build_cfg(fn), fn)


def test_guard_into_wrong_block_rejected():
    src = """define i64 @f(i32 %n, i1 %c) {
  br i1 %c, label %elsewhere, label %loop

elsewhere:
  ret i64 7

loop:
  %j = phi i32 [ %j.next, %loop ], [ 0, %0 ]
  %j.next = add i32 %j, 1
  %e = icmp eq i32 %j.next, %n
  br i1 %e, label %out, label %loop

out:
  ret i64 0
}
"""
    fn = _fn(parse_text(src))
    with pytest.raises(AnalysisError, match="guard"):
        detect_loops(build_cfg(fn), fn)


# sha256 over the outcomes of test_random_cfgs_translate_or_are_rejected,
# and their classes
_CFG_DIGEST = "dab5d28e2fc4b257660902102c01e4c552e02624ca05f57767f8d765aada84e3"
_CFG_COUNTS = {"irreducible": 1635, "rejected": 1588, "two back edges": 1004, "translated": 773}


def test_random_cfgs_translate_or_are_rejected():
    """Each of 5,000 random control-flow graphs (`llgen.gen_cfg`)
    translates and reloads to the same definitions, or ends in an
    AnalysisError.  `detect_loops` decides every loop rule, so nothing
    later in the translator may fail on a graph it accepts.  The graphs
    reach the loop rules: over a tenth translate, and irreducible flow and
    a header with two back edges both occur.  Every outcome is pinned by
    digest: the error's class and message, or a hash of the emitted
    .fun."""
    rng = random.Random(0xCF6)
    outcomes, counts = [], Counter()
    for _ in range(5000):
        text = gen_cfg(rng)
        try:
            program = translate_module(parse_text(text))
        except AnalysisError as e:
            outcomes.append(f"{type(e).__name__}: {e}")
            counts["irreducible" if "irreducible" in str(e)
                   else "two back edges" if "more than one back edge" in str(e)
                   else "rejected"] += 1
            continue
        fun = emit_sexpr(program)
        assert load_program(fun).defs == program.defs, text
        outcomes.append("translated " + hashlib.sha256(fun.encode()).hexdigest())
        counts["translated"] += 1
    assert counts["translated"] >= 500, counts
    assert counts["irreducible"] and counts["two back edges"], counts
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert (digest, dict(counts)) == (_CFG_DIGEST, _CFG_COUNTS)


# ---------------------------------------------------------------------------
# Emission order
# ---------------------------------------------------------------------------

def test_order_of_occurrences_units(occurrences_module):
    analysis = analyze_function(_fn(occurrences_module))
    units = analysis.units
    assert isinstance(units[0], BlockUnit) and units[0].label == "._crit_edge"
    assert isinstance(units[1], CliqueUnit)
    assert isinstance(units[2], DriverUnit)


def test_order_single_block():
    m = parse_text("define i64 @f(i64 %x) {\n  ret i64 %x\n}\n")
    units = analyze_function(_fn(m)).units
    assert [type(u).__name__ for u in units] == ["BlockUnit", "DriverUnit"]


def test_order_two_sequential_blocks_callee_first():
    src = """define i64 @f(i64 %x) {
  br label %tail

tail:
  ret i64 %x
}
"""
    units = analyze_function(_fn(parse_text(src))).units
    assert isinstance(units[0], BlockUnit) and units[0].label == "tail"
    assert isinstance(units[1], BlockUnit) and units[1].label == "0"
    assert isinstance(units[2], DriverUnit)


def test_order_nested_cliques_contiguous(nestsum_module):
    units = analyze_function(_fn(nestsum_module)).units
    kinds = [type(u).__name__ for u in units]
    assert kinds == ["BlockUnit", "BlockUnit", "CliqueUnit", "CliqueUnit", "DriverUnit"]
    assert units[0].label == "outer.exit"
    assert units[1].label == "inner.exit"
    assert units[2].loop.index == 0  # inner clique first
    assert units[3].loop.index == 1
