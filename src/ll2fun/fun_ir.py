"""Functional intermediate form: construction, emission, loading, validation.

Each basic block becomes a function whose parameters are the block's phi
registers followed by its live-in registers and the machine state; register
assignments become let* bindings; branches become tail calls that pass phi
actuals.  Each natural loop becomes five functions:

    <fn>_continue_N        post-loop dispatch, called when the loop is done
    <fn>_step_N            one loop iteration over the value frame
    <fn>_step_N_while      tail recursion on the done bit (general-recursive)
    <fn>_step_N_while_wrap runs the while, then continue
    <fn>_N                 the loop's entry: initial done bit and dispatch

The value frame of a loop is (done, header phi registers, header live-ins,
state); multiple results travel as a single ordered list (mvlist) and are
rebound with metlist.  The done bit is 1 exactly when the loop must stop.

The printed form is one parenthesized definition per function using
defun / defun-general, let*, if, mvlist, and metlist, with a signature
declaration naming the kind predicate of every parameter and result.
Output is deterministic and reparses to the same program.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from .collector import collector_paused
from .errors import AnalysisError, LoadError, read_utf8
from .ll_parser import (
    BasicBlock, Instruction, LlvmFunction, LlvmModule, Operand, Reg, Ret,
    mangle_label, mangle_register, resolve_aliases,
)
from .prims import KINDS, NAT, PRIMS, RUN, STATE
from .ssa import (
    BlockUnit, CliqueUnit, FunctionAnalysis, LoopInfo, analyze_function, dfs_postorder,
)

STATE_VAR = "st"
DONE_VAR = "done"
RESERVED_NAMES = (STATE_VAR, DONE_VAR)
MAX_DEPTH = 64  # deepest parenthesis nesting the loader accepts

_KIND_OF_PREDICATE = {k.predicate: name for name, k in KINDS.items()}
_ARITY = {op: len(p.params) for op, p in PRIMS.items()}


# ---------------------------------------------------------------------------
# Expression and definition types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Prim:
    op: str
    args: tuple["FunExpr", ...]


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["FunExpr", ...]


@dataclass(frozen=True)
class If:
    cond: "FunExpr"
    then: "FunExpr"
    els: "FunExpr"


@dataclass(frozen=True)
class LetStar:
    bindings: tuple[tuple[str, "FunExpr"], ...]
    body: "FunExpr"


@dataclass(frozen=True)
class Mvlist:
    items: tuple["FunExpr", ...]


@dataclass(frozen=True)
class Metlist:
    names: tuple[str, ...]
    call: Call
    body: "FunExpr"


FunExpr = Var | Const | Prim | Call | If | LetStar | Mvlist | Metlist


@lru_cache(maxsize=1 << 16)
def var(name: str) -> Var:
    """The one `Var` for name.  Nodes are frozen and compared by value,
    so sharing leaves is sound, and a program then holds one leaf per name
    rather than one per use (wide's 62k `Var`s carry 1.5k names)."""
    return Var(name)


@lru_cache(maxsize=1 << 16)
def const(value: int) -> Const:
    """The one `Const` for value; see `var`."""
    return Const(value)


@dataclass(frozen=True)
class FunDef:
    name: str
    params: tuple[tuple[str, str], ...]   # (name, kind)
    result_kinds: tuple[str, ...]
    body: FunExpr
    general_recursive: bool = False

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params)


@dataclass(frozen=True)
class WhileClique:
    index: int
    continue_def: str
    step_def: str
    while_def: str
    wrap_def: str
    entry_def: str


CallSite = tuple[Call, bool]  # a call and whether it is in result position


@dataclass(eq=False)
class FunProgram:
    defs: tuple[FunDef, ...]
    # set by validate_program, which load_program and ProgramEvaluator run
    cliques: tuple[WhileClique, ...] = ()
    calls: tuple[tuple[CallSite, ...], ...] | None = None  # per definition, in evaluation order
    unproven: Unproven | None = None  # the checks left open
    by_name: dict[str, FunDef] = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_name:
            self.by_name = {d.name: d for d in self.defs}


def children(expr: FunExpr) -> tuple[tuple[FunExpr, int | None], ...]:
    """The immediate subexpressions of expr, each paired with the number of
    results it yields, or None when it is in result position (it yields
    what expr yields)."""
    t = type(expr)
    if t is Prim or t is Call:
        return tuple([(a, 1) for a in expr.args])
    if t is LetStar:
        return tuple([(e, 1) for _, e in expr.bindings]) + ((expr.body, None),)
    if t is If:
        return ((expr.cond, 1), (expr.then, None), (expr.els, None))
    if t is Metlist:
        return ((expr.call, len(expr.names)), (expr.body, None))
    if t is Mvlist:
        return tuple([(a, 1) for a in expr.items])
    return ()


def _while_body(name: str, step: str, frame: tuple[str, ...]) -> If:
    """The body of the while def `name` over `frame` (the done bit first):
    the frame's values once done is 1, else one `step` and recur.  The
    translator writes it and the loader accepts a while def only if its
    body is this one."""
    frame_vars = tuple(var(n) for n in frame)
    return If(Prim("=", (var(DONE_VAR), const(1))),
              Mvlist(frame_vars[1:]),
              Metlist(frame, Call(step, frame_vars), Call(name, frame_vars)))


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def _operand_expr(op: Operand) -> FunExpr:
    return var(mangle_register(op.name)) if isinstance(op, Reg) else const(op.value)


class _FunctionTranslator:
    def __init__(self, analysis: FunctionAnalysis, module: LlvmModule):
        self.analysis = analysis
        self.fn = analysis.function
        self.module = module
        self.fn_name = mangle_register(self.fn.name)
        self.by_header = {L.header: L for L in analysis.loops}
        self.by_preheader = {L.preheader: L for L in analysis.loops}
        self.chain_end: dict[str, str] = {}  # see unit_result_kinds
        self._check_names()

    # -- naming ------------------------------------------------------------

    def block_def_name(self, label: str) -> str:
        return f"{self.fn_name}_{mangle_label(label)}"

    def clique_names(self, L: LoopInfo) -> WhileClique:
        base = f"{self.fn_name}_step_{L.index}"
        return WhileClique(
            index=L.index,
            continue_def=f"{self.fn_name}_continue_{L.index}",
            step_def=base,
            while_def=f"{base}_while",
            wrap_def=f"{base}_while_wrap",
            entry_def=f"{self.fn_name}_{L.index}",
        )

    def _check_names(self):
        mangled: dict[str, str] = {}
        for reg in self.fn.kinds:
            m = mangle_register(reg)
            if m in RESERVED_NAMES:
                raise AnalysisError(
                    f"@{self.fn.name}: register %{reg} collides with the reserved "
                    f"name '{m}'")
            if m in mangled and mangled[m] != reg:
                raise AnalysisError(
                    f"@{self.fn.name}: registers %{mangled[m]} and %{reg} mangle to "
                    f"the same name '{m}'")
            mangled[m] = reg

    # -- result protocols ----------------------------------------------------

    def frame_params(self, L: LoopInfo) -> tuple[tuple[str, str], ...]:
        """The loop frame: the done bit, then the value frame, which is the
        header's parameters."""
        return ((DONE_VAR, "nat"),) + self.block_params(L.header)

    def block_result_kinds(self, label: str) -> tuple[str, ...]:
        L = self.analysis.innermost[label]
        if L is None:
            return ("state",)
        return tuple(k for _, k in self.frame_params(L))

    def unit_result_kinds(self, label: str) -> tuple[str, ...]:
        """Result kinds of the emission unit entered by branching to label:
        those of the block its chain of loop exits ends at (a chain ends:
        `detect_loops` rejects a cycle).  Each label on a chain is walked
        once, so n loops in a row cost n steps, not n * n / 2."""
        path = []
        while label in self.by_preheader and label not in self.chain_end:
            path.append(label)
            label = self.by_preheader[label].exit
        end = self.chain_end.get(label, label)
        self.chain_end.update(dict.fromkeys(path, end))
        return self.block_result_kinds(end)

    # -- block parameters ----------------------------------------------------

    def block_params(self, label: str) -> tuple[tuple[str, str], ...]:
        sig = self.analysis.signatures[label]
        out = tuple((mangle_register(r), sig.kinds[r]) for r in sig.params)
        return out + ((STATE_VAR, "state"),)

    # -- instruction bindings --------------------------------------------------

    def instruction_bindings(self, inst: Instruction) -> list[tuple[str, FunExpr]]:
        ops = inst.operands
        w = inst.width
        name = mangle_register(inst.result) if inst.result is not None else None

        def wrap_bits(e: FunExpr, width: int) -> FunExpr:
            return Prim("bits", (e, const(width - 1), const(0)))

        if inst.opcode == "add":
            return [(name, wrap_bits(Prim("+", (_operand_expr(ops[0]), _operand_expr(ops[1]))), w))]
        if inst.opcode == "sub":
            # stay inside the naturals: a - b == a + (2^w - b) (mod 2^w)
            comp = Prim("-", (const(1 << w), _operand_expr(ops[1])))
            return [(name, wrap_bits(Prim("+", (_operand_expr(ops[0]), comp)), w))]
        if inst.opcode == "mul":
            return [(name, wrap_bits(Prim("*", (_operand_expr(ops[0]), _operand_expr(ops[1]))), w))]
        if inst.opcode in ("and", "or", "xor"):
            prim = {"and": "logand", "or": "logior", "xor": "logxor"}[inst.opcode]
            return [(name, Prim(prim, (_operand_expr(ops[0]), _operand_expr(ops[1]))))]
        if inst.opcode in ("shl", "lshr", "ashr"):
            return [(name, Prim(inst.opcode,
                                (const(w), _operand_expr(ops[0]), _operand_expr(ops[1]))))]
        if inst.opcode == "icmp":
            a, b = _operand_expr(ops[0]), _operand_expr(ops[1])
            unsigned = {"eq": "=", "ne": "/=", "ult": "<", "ule": "<=",
                        "ugt": ">", "uge": ">="}
            if inst.pred in unsigned:
                return [(name, Prim(unsigned[inst.pred], (a, b)))]
            return [(name, Prim(inst.pred, (const(w), a, b)))]
        if inst.opcode == "zext":
            return [(name, _operand_expr(ops[0]))]
        if inst.opcode == "sext":
            return [(name, Prim("sext", (const(w), const(inst.to_width),
                                         _operand_expr(ops[0]))))]
        if inst.opcode == "trunc":
            return [(name, wrap_bits(_operand_expr(ops[0]), inst.to_width))]
        if inst.opcode == "select":
            cond = Prim("=", (_operand_expr(ops[0]), const(1)))
            return [(name, If(cond, _operand_expr(ops[1]), _operand_expr(ops[2])))]
        if inst.opcode == "getelementptr":
            idx: FunExpr = _operand_expr(ops[1])
            if inst.idx_width < 64:
                idx = Prim("sext", (const(inst.idx_width), const(64), idx))
            addr = Prim("+", (_operand_expr(ops[0]),
                              Prim("*", (idx, const(inst.elem_width // 8)))))
            return [(name, Prim("bits", (addr, const(31), const(0))))]
        if inst.opcode == "load":
            n = inst.width // 8
            run = Prim("loadbytes", (const(n), _operand_expr(ops[0]), var(STATE_VAR)))
            return [(name, Prim("wfrombytes", (const(n), run)))]
        if inst.opcode == "store":
            n = inst.width // 8
            run = Prim("wtobytes", (const(n), _operand_expr(ops[0])))
            return [(STATE_VAR, Prim("storebytes",
                                     (const(n), _operand_expr(ops[1]), run, var(STATE_VAR))))]
        if inst.opcode == "alloca":
            count = ops[0].value
            size = (inst.elem_width // 8) * count
            return [(name, Prim("stack", (var(STATE_VAR),))),
                    (STATE_VAR, Prim("alloca", (const(size), var(STATE_VAR))))]
        if inst.opcode == "call":
            callee = self._callee(inst)
            args = tuple(_operand_expr(a) for a in inst.operands) + (var(STATE_VAR),)
            out = [(STATE_VAR, Call(mangle_register(callee.name), args))]
            if inst.result is not None:
                out.append((name, Prim("retval", (var(STATE_VAR),))))
            return out
        raise AssertionError(inst.opcode)

    def _callee(self, inst: Instruction) -> LlvmFunction:
        try:
            callee = self.module.function(inst.callee)
        except KeyError:
            raise AnalysisError(
                f"@{self.fn.name}: call of undefined function @{inst.callee}") from None
        want = tuple(kind for _, kind in callee.params)
        if inst.arg_kinds != want:
            raise AnalysisError(
                f"@{self.fn.name}: call of @{inst.callee} with argument kinds "
                f"{inst.arg_kinds}, declared {want}")
        if inst.width != callee.ret_width:
            raise AnalysisError(
                f"@{self.fn.name}: call of @{inst.callee} as i{inst.width}, "
                f"declared i{callee.ret_width}")
        return callee

    # -- edges -------------------------------------------------------------

    def edge_args(self, source: str, target: str) -> tuple[FunExpr, ...]:
        """Actuals for a branch source -> target: the target's phi actuals on
        this edge, then its flow params by name, then the state.  A loop's
        back edge (latch -> header) is one such branch."""
        target_block = self.fn.block(target)
        sig = self.analysis.signatures[target]
        args: list[FunExpr] = []
        for phi, actual in zip(target_block.phis, target_block.phi_values(source)):
            if actual is None:
                L = self.by_header.get(target)
                if L is not None and source == L.latch:
                    raise AnalysisError(
                        f"@{self.fn.name}: loop phi %{phi.result} lacks a value on the "
                        f"back edge from {source}")
                raise AnalysisError(
                    f"@{self.fn.name}: phi %{phi.result} in {target} lacks an "
                    f"incoming value for predecessor {source}")
            args.append(_operand_expr(actual))
        for f in sig.flow_params:
            args.append(var(mangle_register(f)))
        args.append(var(STATE_VAR))
        return tuple(args)

    def call_target_name(self, label: str) -> str:
        if label in self.by_preheader:
            return self.clique_names(self.by_preheader[label]).entry_def
        return self.block_def_name(label)

    def call_unit(self, source: str, target: str) -> Call:
        return Call(self.call_target_name(target), self.edge_args(source, target))

    # -- block bodies --------------------------------------------------------

    def block_tail(self, block: BasicBlock, bindings: list[tuple[str, FunExpr]]) -> FunExpr:
        """Translate the terminator; bindings may gain a state update."""
        L = self.analysis.innermost[block.label]
        term = block.terminator
        if isinstance(term, Ret):  # never in a loop: it reaches no latch
            bindings.append((STATE_VAR,
                             Prim("update-retval", (_operand_expr(term.value), var(STATE_VAR)))))
            return var(STATE_VAR)
        if L is not None and block.label == L.latch:
            return self.latch_tail(L, bindings)
        if term.cond is None:
            return self.call_unit(block.label, term.targets[0])
        cond = Prim("=", (_operand_expr(term.cond), const(1)))
        return If(cond,
                  self.call_unit(block.label, term.targets[0]),
                  self.call_unit(block.label, term.targets[1]))

    def latch_tail(self, L: LoopInfo, bindings: list[tuple[str, FunExpr]]) -> FunExpr:
        cond = var(mangle_register(L.exit_cond))
        done = cond if L.exit_when_true else Prim("=", (cond, const(0)))
        bindings.append((DONE_VAR, done))
        return Mvlist((var(DONE_VAR),) + self.edge_args(L.latch, L.header))

    def block_code(self, label: str) -> tuple[list[tuple[str, FunExpr]], FunExpr]:
        block = self.fn.block(label)
        bindings: list[tuple[str, FunExpr]] = []
        for inst in block.body:
            bindings.extend(self.instruction_bindings(inst))
        tail = self.block_tail(block, bindings)
        return bindings, tail

    @staticmethod
    def with_lets(bindings: list[tuple[str, FunExpr]], tail: FunExpr) -> FunExpr:
        return LetStar(tuple(bindings), tail) if bindings else tail

    def translate_block(self, label: str) -> FunDef:
        bindings, tail = self.block_code(label)
        return FunDef(self.block_def_name(label), self.block_params(label),
                      self.block_result_kinds(label), self.with_lets(bindings, tail))

    # -- loop cliques ----------------------------------------------------------

    def exit_call(self, L: LoopInfo) -> Call:
        """The continue body: jump to the exit block with values drawn from
        the frame, valid for both the run path and the guarded skip path.
        A register defined in the loop leaves it in the first header phi
        that carries it on the back edge, one defined above the loop in its
        own flow slot; on the skip path a header phi holds its value from
        the preheader."""
        header = self.fn.block(L.header)
        inside: set[str] = set()
        for lbl in L.body:
            b = self.fn.block(lbl)
            inside.update(phi.result for phi in b.phis)
            inside.update(i.result for i in b.body if i.result is not None)
        carrier: dict[str, str] = {}
        for phi, actual in zip(header.phis, header.phi_values(L.latch)):
            if isinstance(actual, Reg):
                carrier.setdefault(actual.name, phi.result)
        initial: dict[str, Operand] = {}
        for phi, actual in zip(header.phis, header.phi_values(L.preheader)) if L.guarded else ():
            if actual is None:
                raise AnalysisError(
                    f"@{self.fn.name}: phi %{phi.result} in loop header {L.header} "
                    f"lacks a value for the guard edge from {L.preheader}")
            initial[phi.result] = actual

        def slot(reg: str) -> str:
            """The frame slot holding reg's value at the loop's exit."""
            if reg not in inside:
                return reg  # defined above the loop; liveness put it in the flow slots
            if reg in carrier:
                return carrier[reg]
            raise AnalysisError(
                f"@{self.fn.name}: %{reg} is live at the exit of the loop at "
                f"{L.header} but is not carried by the loop frame")

        exit_block = self.fn.block(L.exit)
        args: list[FunExpr] = []
        for phi, actual, skip in zip(exit_block.phis, exit_block.phi_values(L.latch),
                                     exit_block.phi_values(L.preheader)):
            if actual is None:
                raise AnalysisError(
                    f"@{self.fn.name}: phi %{phi.result} in exit block {L.exit} "
                    f"lacks a value for the loop edge from {L.latch}")
            if isinstance(actual, Reg):
                reg = slot(actual.name)
                args.append(var(mangle_register(reg)))
                # on the skip path the slot holds the register or its initial value
                skipped = initial.get(reg, Reg(reg))
            else:
                args.append(const(actual.value))
                skipped = actual
            if L.guarded:
                if skip is None:
                    raise AnalysisError(
                        f"@{self.fn.name}: phi %{phi.result} in exit block {L.exit} "
                        f"lacks a value for the guard edge from {L.preheader}")
                if skip != skipped:
                    raise AnalysisError(
                        f"@{self.fn.name}: exit phi %{phi.result} takes different "
                        f"values on the guard and loop edges that no frame slot "
                        "carries")
        for f in self.analysis.signatures[L.exit].flow_params:
            args.append(var(mangle_register(slot(f))))
        args.append(var(STATE_VAR))
        return Call(self.call_target_name(L.exit), tuple(args))

    def translate_loop(self, L: LoopInfo) -> list[FunDef]:
        names = self.clique_names(L)
        frame = self.frame_params(L)
        value_frame = frame[1:]
        frame_names = tuple(n for n, _ in frame)
        frame_kinds = tuple(k for _, k in frame)
        value_vars = tuple(var(n) for n in frame_names[1:])
        exit_kinds = self.unit_result_kinds(L.exit)

        continue_def = FunDef(names.continue_def, value_frame, exit_kinds,
                              self.exit_call(L))

        step_bindings, step_tail = self.block_code(L.header)
        step_def = FunDef(names.step_def, frame, frame_kinds,
                          self.with_lets(step_bindings, step_tail))

        while_def = FunDef(names.while_def, frame, frame_kinds[1:],
                           _while_body(names.while_def, names.step_def, frame_names),
                           general_recursive=True)

        wrap_def = FunDef(
            names.wrap_def, value_frame, exit_kinds,
            Metlist(frame_names[1:],
                    Call(names.while_def, (const(0),) + value_vars),
                    Call(names.continue_def, value_vars)))

        entry_def = self.translate_entry(L, names, exit_kinds)
        return [continue_def, step_def, while_def, wrap_def, entry_def]

    def translate_entry(self, L: LoopInfo, names: WhileClique,
                        exit_kinds: tuple[str, ...]) -> FunDef:
        """The preheader block's code plus the initial done bit and dispatch."""
        pre = self.fn.block(L.preheader)
        bindings: list[tuple[str, FunExpr]] = []
        for inst in pre.body:
            bindings.extend(self.instruction_bindings(inst))
        if L.guarded:
            term = pre.terminator
            cond = _operand_expr(term.cond)
            # done=1 must mean "skip the loop"
            done = cond if term.targets[0] == L.exit else Prim("=", (cond, const(0)))
            bindings.append((DONE_VAR, done))
        else:
            bindings.append((DONE_VAR, const(0)))
        initial = self.edge_args(L.preheader, L.header)
        tail = If(Prim("=", (var(DONE_VAR), const(1))),
                  Call(names.continue_def, initial),
                  Call(names.wrap_def, initial))
        return FunDef(names.entry_def, self.block_params(L.preheader), exit_kinds,
                      self.with_lets(bindings, tail))

    # -- driver + assembly -------------------------------------------------

    def translate_driver(self) -> FunDef:
        entry_label = self.analysis.cfg.entry
        params = tuple((mangle_register(n), k) for n, k in self.fn.params)
        body = LetStar(
            (
                (STATE_VAR, Prim("init-stack-frame", (var(STATE_VAR),))),
                (STATE_VAR, Prim("begin-stack-frame", (var(STATE_VAR),))),
                (STATE_VAR, self.call_unit_entry(entry_label)),
            ),
            Prim("end-stack-frame", (var(STATE_VAR),)))
        return FunDef(self.fn_name, params + ((STATE_VAR, "state"),), ("state",), body)

    def call_unit_entry(self, entry_label: str) -> Call:
        sig = self.analysis.signatures[entry_label]
        args = tuple(var(mangle_register(f)) for f in sig.flow_params) + (var(STATE_VAR),)
        return Call(self.call_target_name(entry_label), args)

    def translate(self) -> list[FunDef]:
        defs: list[FunDef] = []
        for unit in self.analysis.units:
            if isinstance(unit, BlockUnit):
                defs.append(self.translate_block(unit.label))
            elif isinstance(unit, CliqueUnit):
                defs.extend(self.translate_loop(unit.loop))
            else:
                defs.append(self.translate_driver())
        return defs


@collector_paused()
def translate_module(module: LlvmModule) -> FunProgram:
    """Translate every function of a module; output is ordered so that every
    definition precedes its uses."""
    module = resolve_aliases(module)
    order = _function_order(module)
    defs: list[FunDef] = []
    for fn in order:
        defs.extend(_FunctionTranslator(analyze_function(fn), module).translate())
    names = Counter(d.name for d in defs)
    dup = {n for n, count in names.items() if count > 1}
    if dup:
        raise AnalysisError(f"translated definition names collide: {sorted(dup)}")
    clash = set(names) & set(PRIMS)
    if clash:
        raise AnalysisError(f"function names collide with primitives: {sorted(clash)}")
    return FunProgram(tuple(defs))


def _function_order(module: LlvmModule) -> list[LlvmFunction]:
    calls: dict[str, set[str]] = {}
    for fn in module.functions:
        out = set()
        for block in fn.blocks:
            for inst in block.body:
                if inst.opcode == "call":
                    out.add(inst.callee)
        calls[fn.name] = out

    def recursive(caller: str, callee: str):
        raise AnalysisError(
            f"recursive calls through @{callee} are outside the supported translation")

    order = dfs_postorder(
        [fn.name for fn in module.functions],
        lambda name: [c for c in sorted(calls[name]) if c in calls], recursive)
    return [module.function(name) for name in order]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _atom(e: FunExpr) -> str | None:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return str(e.value)
    return None


def _inline(e: FunExpr) -> str:
    a = _atom(e)
    if a is not None:
        return a
    if isinstance(e, Prim):
        return "(" + " ".join([e.op] + [_inline(x) for x in e.args]) + ")"
    if isinstance(e, Call):
        return "(" + " ".join([e.name] + [_inline(x) for x in e.args]) + ")"
    if isinstance(e, Mvlist):
        return "(mvlist " + " ".join(_inline(x) for x in e.items) + ")"
    if isinstance(e, If):
        return f"(if {_inline(e.cond)} {_inline(e.then)} {_inline(e.els)})"
    if isinstance(e, LetStar):
        bindings = " ".join(f"({n} {_inline(x)})" for n, x in e.bindings)
        return f"(let* ({bindings}) {_inline(e.body)})"
    if isinstance(e, Metlist):
        return (f"(metlist (({' '.join(e.names)}) {_inline(e.call)}) "
                f"{_inline(e.body)})")
    raise AssertionError(f"not printable: {e}")


def _emit_expr(e: FunExpr, indent: int, out: list[str]):
    pad = " " * indent
    if isinstance(e, LetStar) and e.bindings:
        lead = pad + "(let* ("
        for k, (name, bound) in enumerate(e.bindings):
            prefix = lead if k == 0 else " " * len(lead)
            out.append(f"{prefix}({name} {_inline(bound)})")
        out[-1] += ")"
        _emit_expr(e.body, indent + 2, out)
        out[-1] += ")"
    elif isinstance(e, If):
        out.append(f"{pad}(if {_inline(e.cond)}")
        _emit_expr(e.then, indent + 4, out)
        _emit_expr(e.els, indent + 2, out)
        out[-1] += ")"
    elif isinstance(e, Metlist):
        out.append(f"{pad}(metlist (({' '.join(e.names)})")
        out.append(f"{pad}          {_inline(e.call)})")
        _emit_expr(e.body, indent + 2, out)
        out[-1] += ")"
    else:
        out.append(pad + _inline(e))


def emit_def(d: FunDef) -> str:
    form = "defun-general" if d.general_recursive else "defun"
    preds_in = " ".join(KINDS[k].predicate for _, k in d.params)
    preds_out = " ".join(KINDS[k].predicate for k in d.result_kinds)
    lines = [f"({form} {d.name} ({' '.join(d.param_names)})",
             f"  (declare (xargs :signature (({preds_in}) {preds_out})))"]
    _emit_expr(d.body, 2, lines)
    lines[-1] += ")"
    return "\n".join(lines)


def emit_sexpr(program: FunProgram) -> str:
    return "\n\n".join(emit_def(d) for d in program.defs) + "\n"


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------

# The reader's tokens: a parenthesis, a comment, or an atom.  What lies
# between them is whitespace (" \t\r\n").
_TOKEN = re.compile(r"[()]|;[^\n]*|[^ \t\r\n();]+")
# One match is a whole list that holds no sublist and no comment (a flat
# list), or one token.  A flat list's inside is printable ASCII, tab, CR
# and LF only: there `str.split()` splits exactly where the reader does.
# Elsewhere it also splits on characters that the reader keeps inside an
# atom (such as "\x0c", "\x1f" or "\xa0").
_SEXPR_TOKEN = re.compile(r"\([\t\n\r -'*-:<-~]*\)|" + _TOKEN.pattern)


def _read_error(text: str, m: re.Match, message: str) -> LoadError:
    """The reader's error at match m; lines are counted only on failure."""
    line = text.count("\n", 0, m.start()) + 1
    return LoadError(f"line {line}: {message}")


def _check_reader(text: str):
    """Raise the reader's first fault in text, if it has one: a parenthesis
    without its partner, forms nested deeper than MAX_DEPTH, a bad number,
    or an atom outside any form.  These come before every shape error."""
    depth = 0
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if tok == "(":
            if depth == MAX_DEPTH:
                raise _read_error(text, m, f"forms nest deeper than {MAX_DEPTH} levels")
            depth += 1
        elif tok == ")":
            if not depth:
                raise _read_error(text, m, "unbalanced ')'")
            depth -= 1
        elif tok[0] != ";":
            if tok.isdigit():
                try:
                    int(tok)
                except ValueError:  # not ASCII, or past int()'s digit limit
                    raise _read_error(text, m, f"bad number {tok[:40]!r}") from None
            if not depth:
                raise _read_error(text, m, f"atom {tok!r} outside any form")
    if depth:
        raise LoadError("unbalanced '(' at end of input")


class _Atoms(dict):
    """The leaf of each atom: a `Const` for one of digits (int() raises
    ValueError for a bad number), else a `Var`."""

    def __missing__(self, atom: str) -> Var | Const:
        if atom == ")":  # a form ends early: the check of its count names the error
            raise LoadError("form ends early")
        leaf = self[atom] = const(int(atom)) if atom.isdigit() else var(atom)
        return leaf


def _symbol(tok: str) -> bool:
    return tok[0] not in "()" and not tok.isdigit()


def _nest(depth: int):
    """A list opens at nesting level depth (1 for a definition)."""
    if depth > MAX_DEPTH:
        raise LoadError(f"forms nest deeper than {MAX_DEPTH} levels")


class _Builder:
    """The definitions of a `.fun` text, built from its matches in one pass.

    Each form is checked as its tokens are read.  A form's own checks,
    such as its count of items, come before the errors of its parts, but
    its count is known only at its end: so where its parts fail, the form
    reads itself again from its first token (`datum_at`) and raises its
    own error if its count or shape is wrong.  At a fault of the reader
    the builder raises whatever it meets, and `load_program` has
    `_check_reader` name the first fault in the text.  A list is read from
    `next`, or, where a flat list holds a form that the fast path does not
    build, from an iterator over its atoms."""

    __slots__ = ("tokens", "it", "next", "atoms")

    def __init__(self, tokens: list[str]):
        tokens.append("")  # past the last form: a list still open there is unbalanced
        self.tokens, self.it, self.atoms = tokens, iter(tokens), _Atoms()
        self.next = self.it.__next__

    def here(self) -> int:
        """The index of the token read last from `next`."""
        return len(self.tokens) - self.it.__length_hint__() - 1

    def datum(self, tok: str, nxt, depth: int):
        """The datum that tok begins, as the error messages print it: an int
        for digits, a str, or a list of data; nxt reads its further tokens."""
        if tok[0] != "(":
            return int(tok) if tok.isdigit() else tok
        _nest(depth)
        if tok != "(":
            return [int(a) if a.isdigit() else a for a in tok[1:-1].split()]
        return [self.datum(t, nxt, depth + 1) for t in iter(nxt, ")")]

    def datum_at(self, start: int, depth: int):
        return self.datum(self.tokens[start], iter(self.tokens[start + 1:]).__next__, depth)

    def symbols(self, tok: str, nxt, depth: int) -> list[str] | None:
        """The items of the list that tok begins if all are symbols, else None."""
        if tok[0] != "(":
            return None
        _nest(depth)
        if tok != "(":  # a flat list holds atoms only
            names = tok[1:-1].split()
            return None if any(map(str.isdigit, names)) else names
        names = list(iter(nxt, ")"))
        return names if all(map(_symbol, names)) else None

    def program(self) -> tuple[FunDef, ...]:
        return tuple([self.definition(tok) for tok in iter(self.next, "")])

    def definition(self, tok: str) -> FunDef:
        if tok[0] != "(":
            raise LoadError(f"atom {tok!r} outside any form")  # or an unbalanced ')'
        start = self.here()
        nxt = self.next if tok == "(" else iter(tok[1:-1].split() + [")"]).__next__
        try:
            head = nxt()
            if head in ("defun", "defun-general"):
                name = nxt()
                if not _symbol(name):
                    raise LoadError(f"malformed definition header for {self.datum(name, nxt, 2)!r}")
                names = self.symbols(nxt(), nxt, 2)
                if names is None:
                    raise LoadError(f"malformed definition header for {name!r}")
                ins, outs = self.signature(name, nxt)
                if len(ins) != len(names):
                    raise LoadError(f"{name}: {len(names)} params but {len(ins)} input kinds")
                if not outs:
                    raise LoadError(f"{name}: signature declares no results")
                body = self.expr(nxt(), nxt, 2)
                if nxt() == ")":
                    return FunDef(name, tuple(zip(names, ins)), outs, body,
                                  general_recursive=(head == "defun-general"))
        except LoadError:
            form = self.datum_at(start, 1)
            if len(form) == 5 and form[0] in ("defun", "defun-general"):
                raise
        raise LoadError(f"expected (defun name (params) (declare ...) body), "
                        f"got {self.datum_at(start, 1)!r:.80}")

    def signature(self, name: str, nxt) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The input and result kinds that a definition's
        (declare (xargs :signature ((inputs...) results...) ...)) names."""
        missing = f"{name}: missing (declare (xargs :signature ...))"
        if not (nxt() == "(" and nxt() == "declare" and nxt() == "(" and nxt() == "xargs"
                and nxt() == ":signature" and (sig := nxt())[0] == "("):
            raise LoadError(missing)
        start = self.here() - 5  # the declaration's "("
        try:
            first = nxt() if sig == "(" else ")"
            if first[0] != "(":
                raise LoadError(f"{name}: signature needs an input kind list")
            try:
                ins = tuple(map(_KIND_OF_PREDICATE.__getitem__,
                                iter(nxt, ")") if first == "(" else first[1:-1].split()))
                outs = tuple(map(_KIND_OF_PREDICATE.__getitem__, iter(nxt, ")")))
            except KeyError:
                raise LoadError(f"{name}: unknown kind predicate in signature") from None
            for tok in iter(nxt, ")"):
                self.datum(tok, nxt, 4)  # unused, but read: its bad numbers and depth are faults
            if nxt() == ")":
                return ins, outs
        except LoadError:
            if len(self.datum_at(start, 2)) == 2:
                raise
        raise LoadError(missing)

    def expr(self, tok: str, nxt, depth: int) -> FunExpr:
        """The expression that tok begins, at nesting level depth; nxt reads
        its further tokens."""
        if tok[0] != "(":
            return self.atoms[tok]
        _nest(depth)
        if tok == "(":
            head = nxt()
        else:  # a flat list
            form = tok[1:-1].split()
            head = form[0] if form else ")"
            if head not in _FORMS and _symbol(head):
                return self.apply(head, tuple(map(self.atoms.__getitem__, form[1:])))
            nxt = iter(form[1:] + [")"]).__next__
        if head == ")":
            raise LoadError("empty form")
        if head in _FORMS:
            return _FORMS[head](self, nxt, depth, self.here() - (tok == "("))
        if not _symbol(head):
            raise LoadError(f"bad application head: {self.datum(head, nxt, depth + 1)}")
        return self.apply(head, tuple([self.expr(t, nxt, depth + 1) for t in iter(nxt, ")")]))

    def apply(self, head: str, args: tuple[FunExpr, ...]) -> FunExpr:
        arity = _ARITY.get(head)
        if arity is None:
            return Mvlist(args) if head == "mvlist" else Call(head, args)
        if len(args) != arity:
            raise LoadError(f"primitive {head} takes {arity} args, got {len(args)}")
        return Prim(head, args)

    # Each special form is read after its head; start is the index of its
    # first token.

    def let(self, nxt, depth: int, start: int) -> LetStar:
        try:
            tok = nxt()
            if tok[0] == "(":
                _nest(depth + 1)
                bindings = tuple([self.binding(b, nxt, depth + 2) for b in
                                  (iter(nxt, ")") if tok == "(" else tok[1:-1].split())])
                body = self.expr(nxt(), nxt, depth + 1)
                if nxt() == ")":
                    return LetStar(bindings, body)
        except LoadError:
            if len(self.datum_at(start, depth)) == 3:
                raise
        raise LoadError("let* needs a binding list and a body")

    def binding(self, tok: str, nxt, depth: int) -> tuple[str, FunExpr]:
        if tok[0] != "(":
            raise LoadError(f"bad let* binding: {self.datum(tok, nxt, depth)}")
        _nest(depth)
        start = self.here()
        if tok != "(":
            nxt = iter(tok[1:-1].split() + [")"]).__next__
        try:
            name = nxt()
            if _symbol(name):
                value = self.expr(nxt(), nxt, depth + 1)
                if nxt() == ")":
                    return name, value
        except LoadError:
            form = self.datum_at(start, depth)
            if len(form) == 2 and type(form[0]) is str:
                raise
        raise LoadError(f"bad let* binding: {self.datum_at(start, depth)}")

    def branch(self, nxt, depth: int, start: int) -> If:
        try:
            parts = [self.expr(nxt(), nxt, depth + 1) for _ in range(3)]
            if nxt() == ")":
                return If(*parts)
        except LoadError:
            if len(self.datum_at(start, depth)) == 4:
                raise
        raise LoadError("if needs a condition and two branches")

    def metlist(self, nxt, depth: int, start: int) -> Metlist:
        try:
            tok = nxt()  # ((names...) (call...))
            if tok[0] == "(":
                _nest(depth + 1)
                names = self.symbols(nxt(), nxt, depth + 2) if tok == "(" else None
                if names is None:
                    raise LoadError("metlist names must be symbols")
                call = self.expr(nxt(), nxt, depth + 2)
                if type(call) is not Call:
                    raise LoadError("metlist must bind the results of a function call")
                if nxt() == ")":
                    body = self.expr(nxt(), nxt, depth + 1)
                    if nxt() == ")":
                        return Metlist(tuple(names), call, body)
        except LoadError:
            form = self.datum_at(start, depth)
            if len(form) == 3 and type(form[1]) is list and len(form[1]) == 2:
                raise
        raise LoadError("metlist needs ((names...) (call...)) and a body")


# The forms other than applications, each read by its method.
_FORMS = {"let*": _Builder.let, "let": _Builder.let, "if": _Builder.branch,
          "metlist": _Builder.metlist}


@collector_paused()
def load_program(text: str) -> FunProgram:
    tokens = _SEXPR_TOKEN.findall(text)
    if ";" in text:
        tokens = [tok for tok in tokens if tok[0] != ";"]
    try:
        defs = _Builder(tokens).program()
    except (LoadError, IndexError, ValueError):  # a shape error, or one of the reader's faults
        _check_reader(text)  # the reader's first fault, anywhere in the text, comes first
        raise
    seen: set[str] = set()
    for d in defs:
        if d.name in seen:
            raise LoadError(f"definition {d.name} repeated")
        seen.add(d.name)
    program = FunProgram(defs)
    validate_program(program)
    return program


def load_program_file(path: str) -> FunProgram:
    return load_program(read_utf8(
        path, lambda head, what: LoadError("line %d: %s" % (head.count("\n") + 1, what))))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def free_vars(expr: FunExpr, bound: frozenset[str]) -> set[str]:
    if isinstance(expr, Var):
        return set() if expr.name in bound else {expr.name}
    out: set[str] = set()
    if isinstance(expr, LetStar):
        for name, e in expr.bindings:
            out |= free_vars(e, bound)
            bound = bound | {name}
        return out | free_vars(expr.body, bound)
    if isinstance(expr, Metlist):
        return free_vars(expr.call, bound) | free_vars(expr.body, bound | set(expr.names))
    for child, _ in children(expr):
        out |= free_vars(child, bound)
    return out


# Forms that compile to statements, so only in result position.
_RESULT_FORMS = {Mvlist: "mvlist", LetStar: "let*", Metlist: "metlist"}


# The signature declarations are the program's guards, proven as each
# definition is admitted.  In a checked run every value a definition
# receives has passed a check or is proven to pass it: its caller's entry
# check of a parameter, its callee's exit check of a result, or `run`'s
# check of the entry's arguments.  A constant, or a value a primitive
# computes from values with known facts (the row's bound rule, see
# `prims`), is known to be in range as well.  A load's rule takes a
# state's memory to hold bytes, which a `state.Memory` does by
# construction.  So the check of each definition, with the facts of its
# parameters and of its callees' results, proves which of its call sites'
# arguments and of its own results pass their checks; callees precede
# callers, so the facts follow by induction over a run.  A while def's
# call of itself is not proven: its fused loop never makes that call, and
# passes its step the while's arguments, then the step's own results,
# which `validate_clique` makes the step's parameter kinds.  Codegen
# compiles only the checks left open (`FunProgram.unproven`).

# What passing the check of each kind says: STATE, or an exclusive bound.
_KIND_FACTS = {name: STATE if k.sort == STATE else k.bound or math.inf
               for name, k in KINDS.items()}
# The fact each argument of each primitive must fit: one of its sort.
_PRIM_WANTS = {op: tuple([math.inf if s == NAT else s for s in p.sorts])
               for op, p in PRIMS.items()}
# The fact of each primitive's result where its row has no bound rule.
_PRIM_FACTS = {op: None if p.result == NAT else p.result for op, p in PRIMS.items()}
_UNBOUND = object()  # a name not in scope before a binding form


def _sort(fact) -> str:
    """The sort of a value with this fact."""
    return fact if fact is STATE or fact is RUN else NAT


@dataclass(frozen=True)
class Unproven:
    """Per definition, the positions of the argument and the result checks
    that validation leaves open, in order.  A step's result checks run
    inline in its loops."""

    args: dict[str, tuple[int, ...]]
    results: dict[str, tuple[int, ...]]


def validate_def(d: FunDef, known: dict[str, tuple[tuple, tuple]], defined: dict,
                 opened: set[tuple[str, int]]) -> tuple[tuple[CallSite, ...], tuple[int, ...]]:
    """Check d against known, the facts of the parameters and results of
    the definitions before it, and add d's to them; d's call sites and its
    results that may leave their kinds.  defined holds the name of every
    definition of the program; each call adds to opened (callee, position)
    of each argument it may pass out of kind."""
    wants = tuple([_KIND_FACTS[k] for _, k in d.params])
    returns = tuple([_KIND_FACTS[k] for k in d.result_kinds])
    known[d.name] = (wants, returns)
    if not d.params or d.params[-1] != (STATE_VAR, "state"):
        raise LoadError(f"{d.name}: last parameter must be the machine state")
    if sum(1 for _, k in d.params if k == "state") != 1:
        raise LoadError(f"{d.name}: exactly one state parameter expected")
    if d.result_kinds[-1] != "state" or "state" in d.result_kinds[:-1]:
        raise LoadError(f"{d.name}: the last result, and only it, must be the machine state")
    names = [n for n, _ in d.params]
    if len(set(names)) != len(names):
        raise LoadError(f"{d.name}: duplicate parameter names")
    walk = _DefCheck(d, known, defined, opened, dict(zip(names, wants)))
    got = walk.check(d.body, len(returns), True)
    results = []
    for i, (fact, want) in enumerate(zip(got, returns)):
        if fact == want:
            continue
        if fact is STATE or fact is RUN or want is STATE:
            raise LoadError(
                f"{d.name}: the body yields ({', '.join(map(_sort, got))}) where the "
                f"signature declares ({', '.join(map(_sort, returns))})")
        if fact is None or fact > want:
            results.append(i)
    return tuple(walk.calls), tuple(results)


class _DefCheck:
    """The walk over one definition body, recording its calls and the
    arguments they may pass out of kind.  A class rather than nested
    functions: recursive closures form reference cycles, and a cycle per
    definition left for the collector slowed translation."""

    __slots__ = ("d", "known", "defined", "opened", "env", "live", "calls")

    def __init__(self, d: FunDef, known: dict[str, tuple[tuple, tuple]], defined: dict,
                 opened: set[tuple[str, int]], env: dict):
        self.d = d
        self.known = known
        self.defined = defined
        self.opened = opened
        self.env = env     # the fact of each name in scope
        self.live = True   # st not passed to a state-consuming argument since bound
        self.calls: list[CallSite] = []  # (call, tail), each after its arguments

    def fail(self, message: str):
        raise LoadError(f"{self.d.name}: {message}")

    def bind(self, name: str, fact, undo: list):
        if (name == STATE_VAR) != (fact is STATE):
            self.fail(f"{name} is bound to a {_sort(fact)}; the machine state lives in "
                      f"{STATE_VAR} and only there")
        undo.append((name, self.env.get(name, _UNBOUND)))
        self.env[name] = fact
        if fact is STATE:
            self.live = True

    def unbind(self, undo: list):
        for name, old in reversed(undo):
            if old is _UNBOUND:
                del self.env[name]
            else:
                self.env[name] = old

    def arg(self, expr: FunExpr, want, k: int, owner: str, reads: bool = False):
        """The fact of argument k of owner (1-based; 0 for an if condition),
        which must be of the sort of the fact want."""
        fact = self.check(expr, 1, False, reads)[0]
        if fact != want and (fact is STATE or fact is RUN or want is STATE or want is RUN):
            self.mismatch(want, fact, k, owner)
        return fact

    def mismatch(self, want, fact, k: int, owner: str):
        what = f"argument {k} of {owner}" if k else "an if condition"
        self.fail(f"{what} must be a {_sort(want)}, got a {_sort(fact)}")

    def check(self, expr: FunExpr, expected: int, tail: bool, reads: bool = False) -> tuple:
        """The facts of expr's results.  Calls name earlier defs with the
        declared arity and result count; self-calls only in tail position
        of a general-recursive def; mvlist, let* and metlist only in result
        position; static primitive arguments are constants inside their
        domains; every argument has the sort its primitive or callee takes.

        Linearity, in evaluation order (the order of `children`): once st
        is passed to a state-consuming argument (the state argument of a
        primitive or call that returns a state, a binding, or a result) it
        may not be used again until a let* or metlist rebinds it.  `reads`
        marks the state argument of a primitive that returns no state
        (loadbytes, retval, stack), which uses st without consuming it.
        The two arms of an if are checked from the same point, and its
        facts join theirs.  Each call is recorded after its arguments,
        with `tail`."""
        t = type(expr)
        if not tail and t in _RESULT_FORMS:
            self.fail(f"{_RESULT_FORMS[t]} outside result position")
        if t is Var or t is Const or t is Prim:
            # atoms and primitive applications produce exactly one value
            if expected != 1:
                self.fail(f"expression yields one value where {expected} "
                          "results are declared")
        if t is Var:
            fact = self.env.get(expr.name, _UNBOUND)
            if fact is _UNBOUND:
                self.fail(f"free variable {expr.name}")
            if fact is STATE:
                if not self.live:
                    self.fail(f"{STATE_VAR} is used after a store, call or "
                              "binding consumed it")
                self.live = reads
            return (fact,)
        if t is Const:
            return (expr.value + 1 if expr.value >= 0 else None,)
        if t is Prim:
            p = PRIMS[expr.op]
            if p.domains:
                error = p.static_error(
                    [a.value if type(a) is Const else None for a in expr.args])
                if error:
                    self.fail(f"({expr.op} ...) {error}")
            reading = p.result != STATE
            facts = []
            for k, (a, want) in enumerate(zip(expr.args, _PRIM_WANTS[expr.op]), 1):
                facts.append(self.arg(a, want, k, expr.op, reading))
            return (p.bound(*facts) if p.bound else _PRIM_FACTS[expr.op],)
        if t is Call:
            name = expr.name
            callee = self.known.get(name)
            if callee is None:
                self.fail(f"call of {name} before its definition" if name in self.defined
                          else f"call of undefined {name}")
            wants, returns = callee
            own = name == self.d.name
            if own:
                if not self.d.general_recursive:
                    self.fail("unexpected self-recursion")
                if not tail:
                    self.fail("recursive call outside tail position")
            if len(expr.args) != len(wants):
                self.fail(f"{name} takes {len(wants)} args, got {len(expr.args)}")
            if len(returns) != expected:
                self.fail(f"call of {name} yields {len(returns)} "
                          f"results where {expected} are expected")
            env = self.env
            for k, (a, want) in enumerate(zip(expr.args, wants), 1):
                # `arg`, inlined for the commonest case: a name that is not st
                fact = env.get(a.name, _UNBOUND) if type(a) is Var else _UNBOUND
                if fact is _UNBOUND or fact is STATE:
                    fact = self.check(a, 1, False)[0]
                if fact != want:
                    if fact is STATE or fact is RUN or want is STATE:
                        self.mismatch(want, fact, k, name)
                    if not own and (fact is None or fact > want):
                        self.opened.add((name, k - 1))
            self.calls.append((expr, tail))
            return returns
        if t is Mvlist:
            if len(expr.items) != expected:
                self.fail(f"mvlist of {len(expr.items)} values where {expected} "
                          "results are declared")
            return tuple([self.check(x, 1, False)[0] for x in expr.items])
        if t is If:
            self.arg(expr.cond, math.inf, 0, "if")
            before = self.live
            facts = self.check(expr.then, expected, tail, reads)
            after_then, self.live = self.live, before
            other = self.check(expr.els, expected, tail, reads)
            if other != facts:
                facts = tuple([self.join(a, b) for a, b in zip(facts, other)])
            self.live = self.live and after_then
            return facts
        undo: list = []
        if t is LetStar:
            for name, bound in expr.bindings:
                self.bind(name, self.check(bound, 1, False)[0], undo)
        else:  # Metlist
            for name, fact in zip(expr.names, self.check(expr.call, len(expr.names), False)):
                self.bind(name, fact, undo)
        facts = self.check(expr.body, expected, tail)
        self.unbind(undo)
        return facts

    def join(self, a, b):
        """The fact of a value that is either arm's, a or b."""
        if a == b:
            return a
        if a is STATE or a is RUN or b is STATE or b is RUN:
            self.fail("the arms of an if yield different sorts")
        return None if a is None or b is None else max(a, b)


def _while_step(d: FunDef) -> str | None:
    """If d is a well-formed while def, the step it runs: its first
    parameter is the done bit and its body is `_while_body` of its own
    name, that step and its parameters."""
    names = d.param_names
    if not (d.general_recursive and names and names[0] == DONE_VAR
            and d.params[0][1] == "nat"):
        return None
    body = d.body
    if not (isinstance(body, If) and isinstance(body.els, Metlist)):
        return None
    step = body.els.call.name
    return step if body == _while_body(d.name, step, names) else None


def _loop_cliques(program: FunProgram, calls: tuple) -> tuple[WhileClique, ...]:
    """One clique per general-recursive definition, in definition order.
    The wrap is the last definition that calls the while with done = 0,
    the continue is what the wrap's metlist body calls, and the entry is
    the last other definition that calls the wrap.  Each callee's callers
    are indexed from the call sites of every definition, so the pass is
    linear in the program's size."""
    whiles = [d for d in program.defs if d.general_recursive]
    if not whiles:
        return ()
    callers: dict[str, list[FunDef]] = {}  # the caller of each call, in order
    zero_caller: dict[str, FunDef] = {}    # last caller passing done = 0
    zero = (Const(0),)
    for d, sites in zip(program.defs, calls):
        for call, _ in sites:
            callers.setdefault(call.name, []).append(d)
            if call.args[:1] == zero:
                zero_caller[call.name] = d
    by_name = program.by_name
    cliques = []
    for index, d in enumerate(whiles):
        step_name = _while_step(d)
        if step_name is None:
            raise LoadError(f"{d.name}: defun-general is only valid for loop "
                            "while-functions of the generated shape")
        wrap = zero_caller.get(d.name)
        cont = entry = None
        if wrap is not None:
            if isinstance(wrap.body, Metlist) and isinstance(wrap.body.body, Call):
                cont = by_name.get(wrap.body.body.name)
            entry = next((c for c in reversed(callers.get(wrap.name, ()))
                          if c is not wrap), None)
        if not (wrap and cont and entry and step_name in by_name):
            raise LoadError(f"{d.name}: incomplete loop clique")
        cliques.append(WhileClique(index, cont.name, step_name, d.name,
                                   wrap.name, entry.name))
    return tuple(cliques)


def validate_clique(program: FunProgram, clique: WhileClique):
    """Structural checks from the generated-loop contract that
    `_loop_cliques` leaves open.  It found every definition of the clique
    and the while def's shape and step; a general-recursive step has the
    while shape too, whose mvlist yields one value fewer than the while's
    metlist binds, so `validate_def` has refused it already."""
    by_name = program.by_name
    w = by_name[clique.while_def]
    step = by_name[clique.step_def]
    if step.param_names != w.param_names or step.result_kinds != tuple(k for _, k in step.params):
        raise LoadError(f"{step.name}: step frame disagrees with its while")
    if step.result_kinds[0] != "nat":
        raise LoadError(f"{step.name}: first result must be the done bit")
    for name in (clique.continue_def, clique.wrap_def, clique.entry_def):
        if by_name[name].general_recursive:
            raise LoadError(f"{name}: only the while def may be general-recursive")
    wrap = by_name[clique.wrap_def]
    if not (isinstance(wrap.body, Metlist)
            and wrap.body.call.name == clique.while_def
            and wrap.body.call.args[0] == Const(0)
            and isinstance(wrap.body.body, Call)
            and wrap.body.body.name == clique.continue_def):
        raise LoadError(f"{wrap.name}: wrap must run the while from done=0 and "
                        "then continue")
    entry = by_name[clique.entry_def]
    tail = entry.body.body if isinstance(entry.body, LetStar) else entry.body
    if not (isinstance(tail, If)
            and tail.cond == Prim("=", (Var(DONE_VAR), Const(1)))
            and isinstance(tail.then, Call) and tail.then.name == clique.continue_def
            and isinstance(tail.els, Call) and tail.els.name == clique.wrap_def):
        raise LoadError(f"{entry.name}: entry must dispatch on the done bit "
                        "between continue and while-wrap")


def validate_program(program: FunProgram):
    """Check every definition, then the loop cliques found from the calls
    those checks record; sets program.calls, program.cliques and
    program.unproven if all pass.  A while def's results are also checked
    against its step's results, which its fused loop returns."""
    known: dict[str, tuple[tuple, tuple]] = {}
    opened: set[tuple[str, int]] = set()
    checked = [validate_def(d, known, program.by_name, opened) for d in program.defs]
    calls = tuple([sites for sites, _ in checked])
    cliques = _loop_cliques(program, calls)
    for clique in cliques:
        validate_clique(program, clique)
    results = {d.name: open_ for d, (_, open_) in zip(program.defs, checked)}
    for clique in cliques:
        # the loop returns the step's last results but the done bit
        _, frame = known[clique.step_def]
        _, returns = known[clique.while_def]
        open_ = {i for i, want in enumerate(returns[:-1]) if frame[i + 1] > want}
        results[clique.while_def] = tuple(sorted(open_.union(results[clique.while_def])))
    args = dict.fromkeys(program.by_name, ())  # one shared () where nothing is open
    for name, group in groupby(sorted(opened), itemgetter(0)):
        args[name] = tuple([i for _, i in group])
    program.calls, program.cliques = calls, cliques
    program.unproven = Unproven(args, results)
