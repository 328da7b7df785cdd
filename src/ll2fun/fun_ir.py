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

from collections import Counter
from dataclasses import dataclass, field

from .errors import AnalysisError, LoadError
from . import ll_parser as ll
from .ll_parser import (
    BasicBlock, Instruction, LlvmFunction, LlvmModule, Operand, Reg, Ret,
    mangle_label, mangle_register, register_kinds, resolve_aliases,
)
from .prims import KINDS, NAT, PRIMS, SORT_OF_KIND, STATE
from .ssa import (
    BlockUnit, CliqueUnit, FunctionAnalysis, LoopInfo, analyze_function, dfs_postorder,
)

STATE_VAR = "st"
DONE_VAR = "done"
RESERVED_NAMES = (STATE_VAR, DONE_VAR)
MAX_DEPTH = 64  # deepest parenthesis nesting the loader accepts

_KIND_OF_PREDICATE = {k.predicate: name for name, k in KINDS.items()}


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

    @property
    def def_names(self) -> tuple[str, ...]:
        return (self.continue_def, self.step_def, self.while_def,
                self.wrap_def, self.entry_def)


@dataclass(eq=False)
class FunProgram:
    defs: tuple[FunDef, ...]
    cliques: tuple[WhileClique, ...] = ()
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


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def _operand_expr(op: Operand) -> FunExpr:
    return Var(mangle_register(op.name)) if isinstance(op, Reg) else Const(op.value)


class _FunctionTranslator:
    def __init__(self, analysis: FunctionAnalysis, module: LlvmModule):
        self.analysis = analysis
        self.fn = analysis.function
        self.module = module
        self.kinds = register_kinds(self.fn)
        self.blocks = {b.label: b for b in self.fn.blocks}
        self.fn_name = mangle_register(self.fn.name)
        self.by_header = {L.header: L for L in analysis.loops}
        self.by_preheader = {L.preheader: L for L in analysis.loops}
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
        for reg in self.kinds:
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
        sig = self.analysis.signatures[L.header]
        slots = tuple((mangle_register(r), sig.kinds[r]) for r in sig.params)
        return ((DONE_VAR, "nat"),) + slots + ((STATE_VAR, "state"),)

    def value_frame_params(self, L: LoopInfo) -> tuple[tuple[str, str], ...]:
        return self.frame_params(L)[1:]

    def block_result_kinds(self, label: str) -> tuple[str, ...]:
        L = self.analysis.innermost[label]
        if L is None:
            return ("state",)
        return tuple(k for _, k in self.frame_params(L))

    def unit_result_kinds(self, label: str) -> tuple[str, ...]:
        """Result kinds of the emission unit entered by branching to label."""
        seen = set()
        while label in self.by_preheader:
            if label in seen:
                raise AnalysisError(f"@{self.fn.name}: loop exits form a cycle")
            seen.add(label)
            label = self.by_preheader[label].exit
        return self.block_result_kinds(label)

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
            return Prim("bits", (e, Const(width - 1), Const(0)))

        if inst.opcode == "add":
            return [(name, wrap_bits(Prim("+", (_operand_expr(ops[0]), _operand_expr(ops[1]))), w))]
        if inst.opcode == "sub":
            # stay inside the naturals: a - b == a + (2^w - b) (mod 2^w)
            comp = Prim("-", (Const(1 << w), _operand_expr(ops[1])))
            return [(name, wrap_bits(Prim("+", (_operand_expr(ops[0]), comp)), w))]
        if inst.opcode == "mul":
            return [(name, wrap_bits(Prim("*", (_operand_expr(ops[0]), _operand_expr(ops[1]))), w))]
        if inst.opcode in ("and", "or", "xor"):
            prim = {"and": "logand", "or": "logior", "xor": "logxor"}[inst.opcode]
            return [(name, Prim(prim, (_operand_expr(ops[0]), _operand_expr(ops[1]))))]
        if inst.opcode in ("shl", "lshr", "ashr"):
            return [(name, Prim(inst.opcode,
                                (Const(w), _operand_expr(ops[0]), _operand_expr(ops[1]))))]
        if inst.opcode == "icmp":
            a, b = _operand_expr(ops[0]), _operand_expr(ops[1])
            unsigned = {"eq": "=", "ne": "/=", "ult": "<", "ule": "<=",
                        "ugt": ">", "uge": ">="}
            if inst.pred in unsigned:
                return [(name, Prim(unsigned[inst.pred], (a, b)))]
            return [(name, Prim(inst.pred, (Const(w), a, b)))]
        if inst.opcode == "zext":
            return [(name, _operand_expr(ops[0]))]
        if inst.opcode == "sext":
            return [(name, Prim("sext", (Const(w), Const(inst.to_width),
                                         _operand_expr(ops[0]))))]
        if inst.opcode == "trunc":
            return [(name, wrap_bits(_operand_expr(ops[0]), inst.to_width))]
        if inst.opcode == "select":
            cond = Prim("=", (_operand_expr(ops[0]), Const(1)))
            return [(name, If(cond, _operand_expr(ops[1]), _operand_expr(ops[2])))]
        if inst.opcode == "getelementptr":
            idx: FunExpr = _operand_expr(ops[1])
            if inst.idx_width < 64:
                idx = Prim("sext", (Const(inst.idx_width), Const(64), idx))
            addr = Prim("+", (_operand_expr(ops[0]),
                              Prim("*", (idx, Const(inst.elem_width // 8)))))
            return [(name, Prim("bits", (addr, Const(31), Const(0))))]
        if inst.opcode == "load":
            n = inst.width // 8
            run = Prim("loadbytes", (Const(n), _operand_expr(ops[0]), Var(STATE_VAR)))
            return [(name, Prim("wfrombytes", (Const(n), run)))]
        if inst.opcode == "store":
            n = inst.width // 8
            run = Prim("wtobytes", (Const(n), _operand_expr(ops[0])))
            return [(STATE_VAR, Prim("storebytes",
                                     (Const(n), _operand_expr(ops[1]), run, Var(STATE_VAR))))]
        if inst.opcode == "alloca":
            count = ops[0].value
            size = (inst.elem_width // 8) * count
            return [(name, Prim("stack", (Var(STATE_VAR),))),
                    (STATE_VAR, Prim("alloca", (Const(size), Var(STATE_VAR))))]
        if inst.opcode == "call":
            callee = self._callee(inst)
            args = tuple(_operand_expr(a) for a in inst.operands) + (Var(STATE_VAR),)
            out = [(STATE_VAR, Call(mangle_register(callee.name), args))]
            if inst.result is not None:
                out.append((name, Prim("retval", (Var(STATE_VAR),))))
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
        this edge, then its flow params by name, then the state."""
        target_block = self.blocks[target]
        sig = self.analysis.signatures[target]
        args: list[FunExpr] = []
        for phi in target_block.phis:
            actual = next((v for v, lbl in phi.incomings if lbl == source), None)
            if actual is None:
                raise AnalysisError(
                    f"@{self.fn.name}: phi %{phi.result} in {target} lacks an "
                    f"incoming value for predecessor {source}")
            args.append(_operand_expr(actual))
        for f in sig.flow_params:
            args.append(Var(mangle_register(f)))
        args.append(Var(STATE_VAR))
        return tuple(args)

    def call_target_name(self, label: str) -> str:
        if label in self.by_preheader:
            return self.clique_names(self.by_preheader[label]).entry_def
        if label in self.by_header:
            raise AnalysisError(f"@{self.fn.name}: unexpected branch into loop header {label}")
        return self.block_def_name(label)

    def call_unit(self, source: str, target: str) -> Call:
        return Call(self.call_target_name(target), self.edge_args(source, target))

    # -- block bodies --------------------------------------------------------

    def block_tail(self, block: BasicBlock, bindings: list[tuple[str, FunExpr]]) -> FunExpr:
        """Translate the terminator; bindings may gain a state update."""
        L = self.analysis.innermost[block.label]
        term = block.terminator
        if isinstance(term, Ret):
            if L is not None:
                raise AnalysisError(
                    f"@{self.fn.name}: ret inside loop body {block.label} (loop at "
                    f"{L.header}) is a second loop exit")
            bindings.append((STATE_VAR,
                             Prim("update-retval", (_operand_expr(term.value), Var(STATE_VAR)))))
            return Var(STATE_VAR)
        if L is not None and block.label == L.latch:
            return self.latch_tail(L, bindings)
        if term.cond is None:
            return self.call_unit(block.label, term.targets[0])
        cond = Prim("=", (_operand_expr(term.cond), Const(1)))
        return If(cond,
                  self.call_unit(block.label, term.targets[0]),
                  self.call_unit(block.label, term.targets[1]))

    def latch_tail(self, L: LoopInfo, bindings: list[tuple[str, FunExpr]]) -> FunExpr:
        cond = Var(mangle_register(L.exit_cond))
        done = cond if L.exit_when_true else Prim("=", (cond, Const(0)))
        bindings.append((DONE_VAR, done))
        header = self.blocks[L.header]
        sig = self.analysis.signatures[L.header]
        items: list[FunExpr] = [Var(DONE_VAR)]
        for phi in header.phis:
            actual = next((v for v, lbl in phi.incomings if lbl == L.latch), None)
            if actual is None:
                raise AnalysisError(
                    f"@{self.fn.name}: loop phi %{phi.result} lacks a value on the "
                    f"back edge from {L.latch}")
            items.append(_operand_expr(actual))
        for f in sig.flow_params:
            items.append(Var(mangle_register(f)))
        items.append(Var(STATE_VAR))
        return Mvlist(tuple(items))

    def block_code(self, label: str) -> tuple[list[tuple[str, FunExpr]], FunExpr]:
        block = self.blocks[label]
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

    def resolve_exit_value(self, L: LoopInfo, reg: str) -> FunExpr:
        """Value of a register at loop exit, expressed over the frame slots."""
        header = self.blocks[L.header]
        inside: set[str] = set()
        for lbl in L.body:
            b = self.blocks[lbl]
            inside.update(phi.result for phi in b.phis)
            inside.update(i.result for i in b.body if i.result is not None)
        if reg not in inside:
            # defined above the loop; liveness put it in the flow slots
            return Var(mangle_register(reg))
        for phi in header.phis:
            actual = next((v for v, lbl in phi.incomings if lbl == L.latch), None)
            if isinstance(actual, Reg) and actual.name == reg:
                return Var(mangle_register(phi.result))
        raise AnalysisError(
            f"@{self.fn.name}: %{reg} is live at the exit of the loop at "
            f"{L.header} but is not carried by the loop frame")

    def exit_call(self, L: LoopInfo) -> Call:
        """The continue body: jump to the exit block with values drawn from
        the frame, valid for both the run path and the guarded skip path."""
        exit_block = self.blocks[L.exit]
        sig = self.analysis.signatures[L.exit]
        header = self.blocks[L.header]
        entry_actual = {phi.result: next(v for v, lbl in phi.incomings
                                         if lbl == L.preheader)
                        for phi in header.phis} if L.guarded else {}
        args: list[FunExpr] = []
        for phi in exit_block.phis:
            actual = next((v for v, lbl in phi.incomings if lbl == L.latch), None)
            if actual is None:
                raise AnalysisError(
                    f"@{self.fn.name}: phi %{phi.result} in exit block {L.exit} "
                    f"lacks a value for the loop edge from {L.latch}")
            resolved = (Const(actual.value) if isinstance(actual, ll.Const)
                        else self.resolve_exit_value(L, actual.name))
            if L.guarded:
                skip = next((v for v, lbl in phi.incomings if lbl == L.preheader), None)
                if skip is None:
                    raise AnalysisError(
                        f"@{self.fn.name}: phi %{phi.result} in exit block {L.exit} "
                        f"lacks a value for the guard edge from {L.preheader}")
                if not self._skip_value_matches(L, resolved, skip, entry_actual):
                    raise AnalysisError(
                        f"@{self.fn.name}: exit phi %{phi.result} takes different "
                        f"values on the guard and loop edges that no frame slot "
                        "carries")
            args.append(resolved)
        for f in sig.flow_params:
            args.append(self.resolve_exit_value(L, f))
        args.append(Var(STATE_VAR))
        return Call(self.call_target_name(L.exit), tuple(args))

    def _skip_value_matches(self, L: LoopInfo, resolved: FunExpr, skip: Operand,
                            entry_actual: dict[str, Operand]) -> bool:
        """Does `resolved` evaluate to the guard-edge actual when the frame
        holds its initial values?"""
        if isinstance(resolved, Const):
            return isinstance(skip, ll.Const) and skip.value == resolved.value
        assert isinstance(resolved, Var)
        slot_regs = [phi.result for phi in self.blocks[L.header].phis]
        for reg in slot_regs:
            if mangle_register(reg) == resolved.name:
                initial = entry_actual[reg]
                return initial == skip
        # flow slot: same register on both paths
        return isinstance(skip, Reg) and mangle_register(skip.name) == resolved.name

    def translate_loop(self, L: LoopInfo) -> list[FunDef]:
        names = self.clique_names(L)
        frame = self.frame_params(L)
        value_frame = self.value_frame_params(L)
        frame_kinds = tuple(k for _, k in frame)
        value_kinds = tuple(k for _, k in value_frame)
        frame_vars = tuple(Var(n) for n, _ in frame)
        value_vars = tuple(Var(n) for n, _ in value_frame)
        exit_kinds = self.unit_result_kinds(L.exit)

        continue_def = FunDef(names.continue_def, value_frame, exit_kinds,
                              self.exit_call(L))

        step_bindings, step_tail = self.block_code(L.header)
        step_def = FunDef(names.step_def, frame, frame_kinds,
                          self.with_lets(step_bindings, step_tail))

        while_def = FunDef(
            names.while_def, frame, value_kinds,
            If(Prim("=", (Var(DONE_VAR), Const(1))),
               Mvlist(value_vars),
               Metlist(tuple(n for n, _ in frame),
                       Call(names.step_def, frame_vars),
                       Call(names.while_def, frame_vars))),
            general_recursive=True)

        wrap_def = FunDef(
            names.wrap_def, value_frame, exit_kinds,
            Metlist(tuple(n for n, _ in value_frame),
                    Call(names.while_def, (Const(0),) + value_vars),
                    Call(names.continue_def, value_vars)))

        entry_def = self.translate_entry(L, names, exit_kinds)
        return [continue_def, step_def, while_def, wrap_def, entry_def]

    def translate_entry(self, L: LoopInfo, names: WhileClique,
                        exit_kinds: tuple[str, ...]) -> FunDef:
        """The preheader block's code plus the initial done bit and dispatch."""
        pre = self.blocks[L.preheader]
        bindings: list[tuple[str, FunExpr]] = []
        for inst in pre.body:
            bindings.extend(self.instruction_bindings(inst))
        if L.guarded:
            term = pre.terminator
            cond = _operand_expr(term.cond)
            # done=1 must mean "skip the loop"
            done = cond if term.targets[0] == L.exit else Prim("=", (cond, Const(0)))
            bindings.append((DONE_VAR, done))
        else:
            bindings.append((DONE_VAR, Const(0)))
        initial = self.edge_args(L.preheader, L.header)
        tail = If(Prim("=", (Var(DONE_VAR), Const(1))),
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
                (STATE_VAR, Prim("init-stack-frame", (Var(STATE_VAR),))),
                (STATE_VAR, Prim("begin-stack-frame", (Var(STATE_VAR),))),
                (STATE_VAR, self.call_unit_entry(entry_label)),
            ),
            Prim("end-stack-frame", (Var(STATE_VAR),)))
        return FunDef(self.fn_name, params + ((STATE_VAR, "state"),), ("state",), body)

    def call_unit_entry(self, entry_label: str) -> Call:
        sig = self.analysis.signatures[entry_label]
        if self.blocks[entry_label].phis:
            raise AnalysisError(f"@{self.fn.name}: entry block has phi instructions")
        args = tuple(Var(mangle_register(f)) for f in sig.flow_params) + (Var(STATE_VAR),)
        return Call(self.call_target_name(entry_label), args)

    def translate(self) -> tuple[list[FunDef], list[WhileClique]]:
        defs: list[FunDef] = []
        cliques: list[WhileClique] = []
        for unit in self.analysis.units:
            if isinstance(unit, BlockUnit):
                defs.append(self.translate_block(unit.label))
            elif isinstance(unit, CliqueUnit):
                defs.extend(self.translate_loop(unit.loop))
                cliques.append(self.clique_names(unit.loop))
            else:
                defs.append(self.translate_driver())
        return defs, cliques


def translate_module(module: LlvmModule) -> FunProgram:
    """Translate every function of a module; output is ordered so that every
    definition precedes its uses."""
    module = resolve_aliases(module)
    order = _function_order(module)
    defs: list[FunDef] = []
    cliques: list[WhileClique] = []
    for fn in order:
        analysis = analyze_function(fn)
        d, c = _FunctionTranslator(analysis, module).translate()
        defs.extend(d)
        cliques.extend(c)
    names = Counter(d.name for d in defs)
    dup = {n for n, count in names.items() if count > 1}
    if dup:
        raise AnalysisError(f"translated definition names collide: {sorted(dup)}")
    clash = set(names) & set(PRIMS)
    if clash:
        raise AnalysisError(f"function names collide with primitives: {sorted(clash)}")
    program = FunProgram(tuple(defs), tuple(cliques))
    validate_program(program)
    return program


def translate_function(module: LlvmModule, name: str) -> list[FunDef]:
    """The definitions generated for one function (driver last)."""
    module = resolve_aliases(module)
    fn = module.function(name)
    defs, _ = _FunctionTranslator(analyze_function(fn), module).translate()
    return defs


def _function_order(module: LlvmModule) -> list[LlvmFunction]:
    calls: dict[str, set[str]] = {}
    for fn in module.functions:
        out = set()
        for block in fn.blocks:
            for inst in block.body:
                if inst.opcode == "call":
                    out.add(inst.callee)
        calls[fn.name] = out
    by_name: dict[str, LlvmFunction] = {}
    for fn in module.functions:
        by_name.setdefault(fn.name, fn)
    order = dfs_postorder(
        [fn.name for fn in module.functions],
        lambda name: [c for c in sorted(calls[name]) if c in by_name],
        lambda name: AnalysisError(
            f"recursive calls through @{name} are outside the supported translation"))
    return [by_name[name] for name in order]


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

def _read_sexprs(text: str) -> list:
    forms: list = []
    stack: list[list] = []
    i, n = 0, len(text)
    line = 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch in " \t\r":
            i += 1
        elif ch == ";":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif ch == "(":
            if len(stack) == MAX_DEPTH:
                raise LoadError(f"line {line}: forms nest deeper than {MAX_DEPTH} levels")
            stack.append([])
            i += 1
        elif ch == ")":
            if not stack:
                raise LoadError(f"line {line}: unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            atom = text[i:j]
            try:
                value: str | int = int(atom) if atom.isdigit() else atom
            except ValueError:
                raise LoadError(f"line {line}: bad number {atom[:40]!r}") from None
            if not stack:
                raise LoadError(f"line {line}: atom {atom!r} outside any form")
            stack[-1].append(value)
            i = j
    if stack:
        raise LoadError("unbalanced '(' at end of input")
    return forms


def _parse_expr(form) -> FunExpr:
    if isinstance(form, int):
        return Const(form)
    if isinstance(form, str):
        return Var(form)
    if not form:
        raise LoadError("empty form")
    head = form[0]
    if head in ("let*", "let"):
        if len(form) != 3 or not isinstance(form[1], list):
            raise LoadError("let* needs a binding list and a body")
        bindings = []
        for b in form[1]:
            if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)):
                raise LoadError(f"bad let* binding: {b}")
            bindings.append((b[0], _parse_expr(b[1])))
        return LetStar(tuple(bindings), _parse_expr(form[2]))
    if head == "if":
        if len(form) != 4:
            raise LoadError("if needs a condition and two branches")
        return If(_parse_expr(form[1]), _parse_expr(form[2]), _parse_expr(form[3]))
    if head == "mvlist":
        return Mvlist(tuple(_parse_expr(x) for x in form[1:]))
    if head == "metlist":
        if len(form) != 3 or not (isinstance(form[1], list) and len(form[1]) == 2):
            raise LoadError("metlist needs ((names...) (call...)) and a body")
        names, call_form = form[1]
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise LoadError("metlist names must be symbols")
        call = _parse_expr(call_form)
        if not isinstance(call, Call):
            raise LoadError("metlist must bind the results of a function call")
        return Metlist(tuple(names), call, _parse_expr(form[2]))
    if not isinstance(head, str):
        raise LoadError(f"bad application head: {head}")
    args = tuple(_parse_expr(x) for x in form[1:])
    if head in PRIMS:
        arity = len(PRIMS[head].params)
        if len(args) != arity:
            raise LoadError(f"primitive {head} takes {arity} args, got {len(args)}")
        return Prim(head, args)
    return Call(head, args)


def _parse_def(form) -> FunDef:
    if not (isinstance(form, list) and len(form) == 5
            and form[0] in ("defun", "defun-general")):
        raise LoadError(f"expected (defun name (params) (declare ...) body), got {form!r:.80}")
    _, name, params, declare, body = form
    if not (isinstance(name, str) and isinstance(params, list)
            and all(isinstance(p, str) for p in params)):
        raise LoadError(f"malformed definition header for {name!r}")
    sig_ok = (isinstance(declare, list) and len(declare) == 2
              and declare[0] == "declare" and isinstance(declare[1], list)
              and len(declare[1]) >= 3 and declare[1][0] == "xargs"
              and declare[1][1] == ":signature" and isinstance(declare[1][2], list))
    if not sig_ok:
        raise LoadError(f"{name}: missing (declare (xargs :signature ...))")
    sig = declare[1][2]
    if not sig or not isinstance(sig[0], list):
        raise LoadError(f"{name}: signature needs an input kind list")
    try:
        in_kinds = tuple(_KIND_OF_PREDICATE[p] for p in sig[0])
        out_kinds = tuple(_KIND_OF_PREDICATE[p] for p in sig[1:])
    except (KeyError, TypeError):
        raise LoadError(f"{name}: unknown kind predicate in signature") from None
    if len(in_kinds) != len(params):
        raise LoadError(f"{name}: {len(params)} params but {len(in_kinds)} input kinds")
    if not out_kinds:
        raise LoadError(f"{name}: signature declares no results")
    return FunDef(name, tuple(zip(params, in_kinds)), out_kinds, _parse_expr(body),
                  general_recursive=(form[0] == "defun-general"))


def load_program(text: str) -> FunProgram:
    defs = tuple(_parse_def(f) for f in _read_sexprs(text))
    seen: set[str] = set()
    for d in defs:
        if d.name in seen:
            raise LoadError(f"definition {d.name} repeated")
        seen.add(d.name)
    program = FunProgram(defs, _reconstruct_cliques(defs))
    validate_program(program)
    return program


def load_program_file(path: str) -> FunProgram:
    with open(path, encoding="utf-8") as fh:
        return load_program(fh.read())


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


def validate_def(d: FunDef, known: dict[str, FunDef]):
    if not d.params or d.params[-1] != (STATE_VAR, "state"):
        raise LoadError(f"{d.name}: last parameter must be the machine state")
    if sum(1 for _, k in d.params if k == "state") != 1:
        raise LoadError(f"{d.name}: exactly one state parameter expected")
    if d.result_kinds[-1] != "state" or "state" in d.result_kinds[:-1]:
        raise LoadError(f"{d.name}: the last result, and only it, must be the machine state")
    names = [n for n, _ in d.params]
    if len(set(names)) != len(names):
        raise LoadError(f"{d.name}: duplicate parameter names")
    declared = _sorts(d.result_kinds)
    got = _DefCheck(d, known).check(d.body, len(declared), True)
    if got != declared:
        raise LoadError(f"{d.name}: the body yields ({', '.join(got)}) where the "
                        f"signature declares ({', '.join(declared)})")


def _sorts(kinds: tuple[str, ...]) -> tuple[str, ...]:
    return tuple([SORT_OF_KIND[k] for k in kinds])


class _DefCheck:
    """The walk over one definition body.  A class rather than nested
    functions: recursive closures form reference cycles, and one cycle per
    definition left behind for the collector slowed translation."""

    __slots__ = ("d", "known", "env", "live")

    def __init__(self, d: FunDef, known: dict[str, FunDef]):
        self.d = d
        self.known = known
        self.env = {n: SORT_OF_KIND[k] for n, k in d.params}  # sort of each name in scope
        self.live = True  # st not passed to a state-consuming argument since bound

    def fail(self, message: str):
        raise LoadError(f"{self.d.name}: {message}")

    def bind(self, name: str, sort: str, undo: list):
        if (name == STATE_VAR) != (sort == STATE):
            self.fail(f"{name} is bound to a {sort}; the machine state lives in "
                      f"{STATE_VAR} and only there")
        undo.append((name, self.env.get(name)))
        self.env[name] = sort
        if sort == STATE:
            self.live = True

    def unbind(self, undo: list):
        for name, old in reversed(undo):
            if old is None:
                del self.env[name]
            else:
                self.env[name] = old

    def arg(self, expr: FunExpr, want: str, k: int, owner: str, reads: bool = False):
        """Check argument k of owner (1-based; 0 for an if condition)."""
        got = self.check(expr, 1, False, reads)[0]
        if got != want:
            what = f"argument {k} of {owner}" if k else "an if condition"
            self.fail(f"{what} must be a {want}, got a {got}")

    def check(self, expr: FunExpr, expected: int, tail: bool, reads: bool = False) -> tuple:
        """The sorts of expr's results.  Calls name earlier defs with the
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
        The two arms of an if are checked from the same point."""
        t = type(expr)
        if not tail and t in _RESULT_FORMS:
            self.fail(f"{_RESULT_FORMS[t]} outside result position")
        if t is Var or t is Const or t is Prim:
            # atoms and primitive applications produce exactly one value
            if expected != 1:
                self.fail(f"expression yields one value where {expected} "
                          "results are declared")
        if t is Var:
            sort = self.env.get(expr.name)
            if sort is None:
                self.fail(f"free variable {expr.name}")
            if sort == STATE:
                if not self.live:
                    self.fail(f"{STATE_VAR} is used after a store, call or "
                              "binding consumed it")
                self.live = reads
            return (sort,)
        if t is Const:
            return (NAT,)
        if t is Prim:
            p = PRIMS[expr.op]
            if p.domains:
                error = p.static_error(
                    [a.value if type(a) is Const else None for a in expr.args])
                if error:
                    self.fail(f"({expr.op} ...) {error}")
            reading = p.result != STATE
            for k, (a, want) in enumerate(zip(expr.args, p.sorts), 1):
                self.arg(a, want, k, expr.op, reading)
            return (p.result,)
        if t is Call:
            target = self.known.get(expr.name)
            if target is None:
                self.fail(f"call of {expr.name} before its definition")
            if expr.name == self.d.name:
                if not self.d.general_recursive:
                    self.fail("unexpected self-recursion")
                if not tail:
                    self.fail("recursive call outside tail position")
            if len(expr.args) != len(target.params):
                self.fail(f"{expr.name} takes {len(target.params)} args, "
                          f"got {len(expr.args)}")
            if len(target.result_kinds) != expected:
                self.fail(f"call of {expr.name} yields {len(target.result_kinds)} "
                          f"results where {expected} are expected")
            for k, (a, (_, kind)) in enumerate(zip(expr.args, target.params), 1):
                self.arg(a, SORT_OF_KIND[kind], k, expr.name)
            return _sorts(target.result_kinds)
        if t is Mvlist:
            if len(expr.items) != expected:
                self.fail(f"mvlist of {len(expr.items)} values where {expected} "
                          "results are declared")
            return tuple([self.check(x, 1, False)[0] for x in expr.items])
        if t is If:
            self.arg(expr.cond, NAT, 0, "if")
            before = self.live
            sorts = self.check(expr.then, expected, tail, reads)
            after_then, self.live = self.live, before
            if self.check(expr.els, expected, tail, reads) != sorts:
                self.fail("the arms of an if yield different sorts")
            self.live = self.live and after_then
            return sorts
        undo: list = []
        if t is LetStar:
            for name, bound in expr.bindings:
                self.bind(name, self.check(bound, 1, False)[0], undo)
        else:  # Metlist
            for name, sort in zip(expr.names, self.check(expr.call, len(expr.names), False)):
                self.bind(name, sort, undo)
        sorts = self.check(expr.body, expected, tail)
        self.unbind(undo)
        return sorts


def _while_shape(d: FunDef) -> tuple[str, tuple[str, ...]] | None:
    """If d is a well-formed while def, return (step name, frame names)."""
    if not d.general_recursive:
        return None
    names = d.param_names
    if not names or names[0] != DONE_VAR or d.params[0][1] != "nat":
        return None
    body = d.body
    if not isinstance(body, If):
        return None
    want_cond = Prim("=", (Var(DONE_VAR), Const(1)))
    value_vars = tuple(Var(n) for n in names[1:])
    if body.cond != want_cond or body.then != Mvlist(value_vars):
        return None
    m = body.els
    if not isinstance(m, Metlist) or m.names != names:
        return None
    frame_vars = tuple(Var(n) for n in names)
    if m.call.args != frame_vars:
        return None
    if m.body != Call(d.name, frame_vars):
        return None
    return m.call.name, names


def _calls(expr: FunExpr):
    """Every call in expr, outermost first."""
    if isinstance(expr, Call):
        yield expr
    for child, _ in children(expr):
        yield from _calls(child)


def _reconstruct_cliques(defs: tuple[FunDef, ...]) -> tuple[WhileClique, ...]:
    by_name = {d.name: d for d in defs}
    cliques = []
    for index, d in enumerate(w for w in defs if w.general_recursive):
        shape = _while_shape(d)
        if shape is None:
            raise LoadError(f"{d.name}: defun-general is only valid for loop "
                            "while-functions of the generated shape")
        step_name, _ = shape
        wrap = entry = cont = None
        for other in defs:
            if any(c.name == d.name and c.args[:1] == (Const(0),)
                   for c in _calls(other.body)):
                wrap = other
        if wrap is not None and isinstance(wrap.body, Metlist):
            cont_call = wrap.body.body
            if isinstance(cont_call, Call):
                cont = by_name.get(cont_call.name)
        if wrap is not None:
            for other in defs:
                if other is not wrap and any(c.name == wrap.name
                                             for c in _calls(other.body)):
                    entry = other
        if not (wrap and cont and entry and step_name in by_name):
            raise LoadError(f"{d.name}: incomplete loop clique")
        cliques.append(WhileClique(index, cont.name, step_name, d.name,
                                   wrap.name, entry.name))
    return tuple(cliques)


def validate_clique(program: FunProgram, clique: WhileClique):
    """Structural checks from the generated-loop contract."""
    by_name = program.by_name
    for name in clique.def_names:
        if name not in by_name:
            raise LoadError(f"clique {clique.index}: missing definition {name}")
    w = by_name[clique.while_def]
    shape = _while_shape(w)
    if shape is None:
        raise LoadError(f"{w.name}: while def does not match the loop shape")
    step_name, frame = shape
    if step_name != clique.step_def:
        raise LoadError(f"{w.name}: while steps through {step_name}, "
                        f"expected {clique.step_def}")
    step = by_name[clique.step_def]
    if step.general_recursive:
        raise LoadError(f"{step.name}: step must not be general-recursive")
    if step.param_names != frame or step.result_kinds != tuple(k for _, k in step.params):
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
    known: dict[str, FunDef] = {}
    for d in program.defs:
        if d.general_recursive and _while_shape(d) is None:
            raise LoadError(f"{d.name}: defun-general outside the while shape")
        known[d.name] = d
        validate_def(d, known)
    for clique in (program.cliques or _reconstruct_cliques(program.defs)):
        validate_clique(program, clique)
