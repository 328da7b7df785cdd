"""Control-flow analysis over parsed functions.

Produces everything the translator needs: the CFG, per-block parameter
lists (phi results first, then live-in registers in first-use order, then
the machine state), natural-loop structure, and a definition-before-use
ordering of the emission units.

Loops come from one depth-first search, with no dominator tree: a back
edge is an edge whose target dominates its source, and the predecessor
walk that tells whether it does also collects the loop's body.
Irreducible flow, multi-exit loops, and loops the five-function
translation scheme cannot express are rejected with a diagnostic rather
than silently mistranslated.

Cost: apart from the signatures themselves (the sum of the live-in set
sizes), every pass is linear or n log n in the size of the function; loop
detection is linear plus the sum of the loop bodies.  No pass recurses on
the host stack, so function size is bounded by memory rather than by the
recursion limit.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from typing import TypeVar

from .errors import AnalysisError
from .ll_parser import BasicBlock, LlvmFunction, Operand, Reg, Ret


@dataclass(frozen=True)
class ControlFlowGraph:
    entry: str
    nodes: tuple[str, ...]                 # block labels in function order
    edges: dict[str, tuple[str, ...]]      # label -> successor labels
    preds: dict[str, tuple[str, ...]]      # label -> predecessor labels


@dataclass(frozen=True)
class BlockSignature:
    label: str
    phi_params: tuple[str, ...]   # registers defined by this block's phis, in phi order
    flow_params: tuple[str, ...]  # live-in registers, first-use order
    kinds: dict[str, str]         # kind of every parameter register

    @property
    def params(self) -> tuple[str, ...]:
        """Full value-parameter list (the machine state is appended last by
        the translator)."""
        return self.phi_params + self.flow_params


@dataclass(frozen=True)
class LoopInfo:
    index: int                    # detection order, innermost first
    header: str
    latch: str
    body: tuple[str, ...]         # block labels, function order
    carried: tuple[str, ...]      # the header's phi registers
    exit: str
    exit_cond: str                # register tested by the latch branch
    exit_when_true: bool          # True: branch-true leaves the loop
    preheader: str                # unique predecessor outside the body
    guarded: bool                 # preheader conditionally skips the loop


# Emission units, in the order the translator must write them out.

@dataclass(frozen=True)
class BlockUnit:
    label: str


@dataclass(frozen=True)
class CliqueUnit:
    loop: LoopInfo


@dataclass(frozen=True)
class DriverUnit:
    pass


Unit = BlockUnit | CliqueUnit | DriverUnit


@dataclass(frozen=True)
class FunctionAnalysis:
    function: LlvmFunction
    cfg: ControlFlowGraph
    signatures: dict[str, BlockSignature]
    loops: tuple[LoopInfo, ...]
    units: tuple[Unit, ...]
    innermost: dict[str, LoopInfo | None]  # block label -> innermost containing loop


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------

def _successors(block: BasicBlock) -> tuple[str, ...]:
    term = block.terminator
    return () if isinstance(term, Ret) else term.targets


def build_cfg(fn: LlvmFunction) -> ControlFlowGraph:
    labels = [b.label for b in fn.blocks]
    label_set = set(labels)
    edges: dict[str, tuple[str, ...]] = {}
    preds: dict[str, list[str]] = {l: [] for l in labels}
    for block in fn.blocks:
        succs = _successors(block)
        for s in succs:
            if s not in label_set:
                raise AnalysisError(f"@{fn.name}: block {block.label} branches to undefined label {s}")
        edges[block.label] = succs
        for s in succs:
            if not preds[s] or preds[s][-1] != block.label:  # br to one label twice
                preds[s].append(block.label)
    entry = labels[0]
    reachable = {entry}
    work = [entry]
    while work:
        for s in edges[work.pop()]:
            if s not in reachable:
                reachable.add(s)
                work.append(s)
    dead = [l for l in labels if l not in reachable]
    if dead:
        raise AnalysisError(f"@{fn.name}: unreachable block(s): {', '.join(dead)}")
    return ControlFlowGraph(entry, tuple(labels),
                            edges, {l: tuple(ps) for l, ps in preds.items()})


N = TypeVar("N", bound=Hashable)


def dfs_postorder(roots: Iterable[N], successors: Callable[[N], Iterable[N]],
                  closing: Callable[[N, N], None] | None = None) -> list[N]:
    """Depth-first post-order of everything reachable from `roots`, visiting
    successors in the order given.  `successors(n)` is called once per
    node, in pre-order.  An edge (n, s) to a node s still on the DFS stack
    closes a cycle: `closing(n, s)` is called for it, in search order, if
    given (it may raise), and the edge is skipped.  Iterative, so the depth
    of the graph is not limited by the host recursion limit."""
    order: list[N] = []
    state: dict[N, int] = {}  # 1: on the stack, 2: finished
    for root in roots:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(successors(root)))]
        while stack:
            node, succs = stack[-1]
            for s in succs:
                mark = state.get(s)
                if mark == 1 and closing is not None:
                    closing(node, s)
                if mark is None:
                    state[s] = 1
                    stack.append((s, iter(successors(s))))
                    break
            else:
                stack.pop()
                state[node] = 2
                order.append(node)
    return order


def dominators(cfg: ControlFlowGraph) -> tuple[list[tuple[str, str, set[str]]], str | None]:
    """The back edges and the first irreducible cycle, from one depth-first
    search.

    An edge (u, v) is a back edge when v dominates u.  Then v lies on the
    search's tree path to u, so v is still on the stack: the edge closes a
    cycle.  For each closing edge, walk the predecessors from u without
    passing v.  If v dominates u, it dominates every block the walk
    reaches, so the search entered each of them after v.  If not, the walk
    reaches the entry, which the search entered first.  So the walk meets
    a block entered before v exactly when v does not dominate u; if it
    meets none, the blocks it reached and v are the edge's natural loop.

    Returns each back edge as (latch, header, body), in node order (an
    edge given twice is listed twice), and the target of the first closing
    edge in search order that is not a back edge, or None.  Skipping the
    back edges does not change the order of the search, so that is where
    a search of the graph without them first closes a cycle.  Once that
    target is found the flow is irreducible, and only a block that closes
    two or more edges could still head two back edges, so a closing edge
    to any other block is not walked and not listed."""
    pre: dict[str, int] = {}
    closing: list[tuple[str, str]] = []

    def visit(n: str) -> tuple[str, ...]:
        pre[n] = len(pre)
        return cfg.edges[n]

    dfs_postorder([cfg.entry], visit, lambda u, v: closing.append((u, v)))
    closes = Counter(v for _, v in closing)
    bodies: dict[tuple[str, str], set[str]] = {}
    irreducible = None
    for latch, header in closing:
        if irreducible is not None and closes[header] == 1:
            continue
        body, work = {header}, [latch]
        while work:
            n = work.pop()
            if n not in body:
                if pre[n] < pre[header]:  # the header does not dominate the latch
                    if irreducible is None:
                        irreducible = header
                    break
                body.add(n)
                work += cfg.preds[n]
        else:
            bodies[latch, header] = body
    back = [(u, v, bodies[u, v]) for u in cfg.nodes for v in cfg.edges[u] if (u, v) in bodies]
    return back, irreducible


# ---------------------------------------------------------------------------
# Liveness and block signatures
# ---------------------------------------------------------------------------

def _operand_regs(operands: Iterable[Operand | None]) -> list[str]:
    return [op.name for op in operands if isinstance(op, Reg)]


def _block_use_def(block: BasicBlock, fn: LlvmFunction) -> tuple[set[str], set[str]]:
    """(use-before-def, defs) over the block's non-phi code and its jumps:
    a phi's value is read as an argument of the jump from its
    predecessor, not in the phi's block."""
    used: set[str] = set()
    defs: set[str] = {phi.result for phi in block.phis}
    for inst in block.body:
        for r in _operand_regs(inst.operands):
            if r not in defs:
                used.add(r)
        if inst.result is not None:
            defs.add(inst.result)
    term = block.terminator
    reads = [term.value] if isinstance(term, Ret) else [term.cond]
    for s in _successors(block):
        reads.extend(fn.block(s).phi_values(block.label))
    used.update(r for r in _operand_regs(reads) if r not in defs)
    return used, defs


def compute_liveness(cfg: ControlFlowGraph, fn: LlvmFunction) -> dict[str, set[str]]:
    """live-in set per block: registers read in or below the block but
    defined above it."""
    use: dict[str, set[str]] = {}
    defs: dict[str, set[str]] = {}
    phi_results: dict[str, set[str]] = {}
    for b in fn.blocks:
        use[b.label], defs[b.label] = _block_use_def(b, fn)
        phi_results[b.label] = {phi.result for phi in b.phis}
    live_in: dict[str, set[str]] = {l: set() for l in cfg.nodes}
    changed = True
    while changed:
        changed = False
        for label in reversed(cfg.nodes):
            live_out: set[str] = set()
            for s in cfg.edges[label]:
                live_out |= live_in[s] - phi_results[s]
            new_in = use[label] | (live_out - defs[label])
            if new_in != live_in[label]:
                live_in[label] = new_in
                changed = True
    return live_in


def _textual_uses(block: BasicBlock) -> Iterable[str]:
    """Register operands in textual order: phi incomings, body operands,
    then the terminator's operand."""
    for phi in block.phis:
        yield from _operand_regs(tuple(v for v, _ in phi.incomings))
    for inst in block.body:
        yield from _operand_regs(inst.operands)
    term = block.terminator
    if isinstance(term, Ret):
        yield from _operand_regs((term.value,))
    elif term.cond is not None:
        yield from _operand_regs((term.cond,))


def _first_use_order(fn: LlvmFunction, live_in: dict[str, set[str]]) -> dict[str, list[str]]:
    """Each block's live-in registers ordered by first textual operand
    occurrence scanning from the block onward (wrapping past the last
    block to the first), so emitted parameter lists are stable.

    Every operand occurrence has a position.  One walk backward over the
    blocks keeps, for each register, its next position at or after the
    block's start, starting from its first position plus the wrap; each
    position holds one register, so no two live-ins tie.  A register is
    live only where some operand reads it, so each has a position."""
    uses = [list(_textual_uses(block)) for block in fn.blocks]
    flat = [r for regs in uses for r in regs]
    total = len(flat)
    nxt = dict(zip(reversed(flat), range(2 * total - 1, total - 1, -1)))
    out: dict[str, list[str]] = {}
    end = total
    for block, regs in zip(reversed(fn.blocks), reversed(uses)):
        start = end - len(regs)
        nxt.update(zip(reversed(regs), range(end - 1, start - 1, -1)))
        out[block.label] = sorted(live_in[block.label], key=nxt.__getitem__)
        end = start
    return out


def compute_block_params(cfg: ControlFlowGraph, fn: LlvmFunction) -> dict[str, BlockSignature]:
    kinds = fn.kinds
    live_in = compute_liveness(cfg, fn)
    param_names = {name for name, _ in fn.params}
    undefined = set()
    for regs in live_in.values():
        undefined |= {r for r in regs if r not in kinds}
    entry_leaks = live_in[cfg.entry] - param_names
    if undefined or entry_leaks:
        bad = sorted(undefined | entry_leaks)
        raise AnalysisError(
            f"@{fn.name}: register(s) used with no definition on some path: "
            + ", ".join("%" + r for r in bad))
    order = _first_use_order(fn, live_in)
    signatures: dict[str, BlockSignature] = {}
    for block in fn.blocks:
        flow = order[block.label]
        phi_params = tuple(phi.result for phi in block.phis)
        sig_kinds = {r: kinds[r] for r in phi_params + tuple(flow)}
        signatures[block.label] = BlockSignature(block.label, phi_params, tuple(flow), sig_kinds)
    return signatures


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------

def detect_loops(cfg: ControlFlowGraph, fn: LlvmFunction) -> tuple[LoopInfo, ...]:
    back_edges, irreducible = dominators(cfg)

    headers = Counter(header for _, header, _ in back_edges)
    for h, count in headers.items():
        if count > 1:
            raise AnalysisError(f"@{fn.name}: block {h} heads more than one back edge")
    if irreducible is not None:
        raise AnalysisError(f"@{fn.name}: irreducible control flow (cycle through "
                            f"{irreducible} not headed by a dominator)")

    # Reducible, one back edge per header: loops nest or are disjoint.
    pos = {label: i for i, label in enumerate(cfg.nodes)}
    back_edges.sort(key=lambda e: (len(e[2]), pos[e[1]]))

    loops: list[LoopInfo] = []
    for index, (latch, header, body) in enumerate(back_edges):
        body_order = sorted(body, key=pos.__getitem__)
        exits = [(u, s) for u in body_order
                 for s in cfg.edges[u] if s not in body]
        if not exits:
            raise AnalysisError(f"@{fn.name}: loop at {header} has no exit")
        if len(exits) > 1 or exits[0][0] != latch:
            raise AnalysisError(
                f"@{fn.name}: loop at {header} must have a single exit from its "
                f"latch; found exits {exits}")
        exit_label = exits[0][1]
        term = fn.block(latch).terminator  # a br between the header and the exit
        if not isinstance(term.cond, Reg):
            raise AnalysisError(f"@{fn.name}: loop at {header}: constant latch condition")
        outside_edges = [p for p in cfg.preds[header] if p not in body]
        if len(outside_edges) != 1:
            raise AnalysisError(
                f"@{fn.name}: loop at {header} needs exactly one entry edge from "
                f"outside; found {outside_edges}")
        preheader = outside_edges[0]
        pre_term = fn.block(preheader).terminator
        if pre_term.cond is None:
            guarded = False
        else:
            if set(pre_term.targets) != {header, exit_label}:
                raise AnalysisError(
                    f"@{fn.name}: guard {preheader} must branch between the loop "
                    f"header {header} and its exit {exit_label}")
            guarded = True
        loops.append(LoopInfo(
            index=index,
            header=header,
            latch=latch,
            body=tuple(body_order),
            carried=tuple(phi.result for phi in fn.block(header).phis),
            exit=exit_label,
            exit_cond=term.cond.name,
            exit_when_true=(term.targets[0] == exit_label),
            preheader=preheader,
            guarded=guarded,
        ))

    headers_set = {L.header for L in loops}
    latches_set = {L.latch for L in loops}
    for L in loops:
        if L.preheader in headers_set or L.preheader in latches_set:
            raise AnalysisError(
                f"@{fn.name}: loop at {L.header} enters directly from loop "
                f"header/latch {L.preheader}; a dedicated preheader block is required")
    return tuple(loops)


def innermost_loops(fn: LlvmFunction, loops: tuple[LoopInfo, ...]) -> dict[str, LoopInfo | None]:
    """Innermost loop containing each block (loops are sorted smallest
    first; written outermost first, inner loops overwrite)."""
    out: dict[str, LoopInfo | None] = {block.label: None for block in fn.blocks}
    for L in reversed(loops):
        for label in L.body:
            out[label] = L
    return out


# ---------------------------------------------------------------------------
# Emission order
# ---------------------------------------------------------------------------

def order_definitions(cfg: ControlFlowGraph, fn: LlvmFunction,
                      loops: tuple[LoopInfo, ...]) -> tuple[Unit, ...]:
    """Callee-before-caller order over the emission units, loop cliques kept
    contiguous.  Depth-first post-order from the driver.  A call between
    units follows forward CFG edges, which `detect_loops` left acyclic."""
    by_preheader = {L.preheader: L for L in loops}
    innermost = innermost_loops(fn, loops)

    def unit_for(label: str) -> Unit:
        # a header's only predecessors, its latch and preheader, are in its clique
        if label in by_preheader:
            return CliqueUnit(by_preheader[label])
        return BlockUnit(label)

    def block_deps(label: str) -> list[Unit]:
        """Units the translated block calls: its successors, except the
        edges a loop frame absorbs (latch->header and latch->exit)."""
        here = innermost[label]
        deps: list[Unit] = []
        for s in cfg.edges[label]:
            if here is not None and label == here.latch and s in (here.header, here.exit):
                continue
            deps.append(unit_for(s))
        return deps

    def unit_deps(unit: Unit) -> list[Unit]:
        if isinstance(unit, DriverUnit):
            return [unit_for(cfg.entry)]
        if isinstance(unit, CliqueUnit):
            L = unit.loop
            # continue calls the exit's unit; step (the header's code) calls
            # whatever the header branches to inside the body
            return [unit_for(L.exit)] + block_deps(L.header)
        return block_deps(unit.label)

    return tuple(dfs_postorder([DriverUnit()], unit_deps))


def analyze_function(fn: LlvmFunction) -> FunctionAnalysis:
    cfg = build_cfg(fn)
    signatures = compute_block_params(cfg, fn)
    loops = detect_loops(cfg, fn)
    units = order_definitions(cfg, fn, loops)
    return FunctionAnalysis(fn, cfg, signatures, loops, units, innermost_loops(fn, loops))


# ---------------------------------------------------------------------------
# Debug report
# ---------------------------------------------------------------------------

def analysis_report(analysis: FunctionAnalysis) -> str:
    """Line-oriented dump of the CFG, signatures, and loops for --dump-analysis."""
    fn = analysis.function
    lines = [f"function {fn.name}"]
    for label in analysis.cfg.nodes:
        succs = ", ".join(analysis.cfg.edges[label]) or "-"
        lines.append(f"  block {label} -> {succs}")
        sig = analysis.signatures[label]
        lines.append(f"    phi-params:  {' '.join(sig.phi_params) or '-'}")
        lines.append(f"    flow-params: {' '.join(sig.flow_params) or '-'}")
    for L in analysis.loops:
        pol = "true" if L.exit_when_true else "false"
        lines.append(f"  loop {L.index}: header {L.header} latch {L.latch} "
                     f"exit {L.exit} when %{L.exit_cond} is {pol} "
                     f"preheader {L.preheader}{' (guarded)' if L.guarded else ''}")
    return "\n".join(lines)
