"""Reference interpreter over the LLVM AST.

Executes basic blocks directly — registers in a dict, phis evaluated in
parallel on block entry, the same MachineState as the compiled functional
form but its memory kept as a plain dict and read and written with the
plain-dict model (`state.rd_n` and `state.wr_n`, not the paged reads and
writes the evaluator compiles), and the reference functions of
`prims.PRIMS` for shifts, signed compares and sign extension.  Deliberately simple; the differential tests run it against
the translate-then-evaluate pipeline, so it shares no CFG analysis,
translation, code generation or memory writes with that path.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import BudgetExhausted, EvalFault
from .ll_parser import BINOPS, Const, Instruction, LlvmFunction, LlvmModule, Operand, Ret
from .prims import PRIMS, bits, sext
from . import state as st_mod
from .state import MachineState


def _value(op: Operand, regs: dict[str, int]) -> int:
    if isinstance(op, Const):
        return op.value
    try:
        return regs[op.name]
    except KeyError:
        raise EvalFault(f"reference interpreter: %{op.name} read before assignment") from None


def _binop(opcode: str, w: int, a: int, b: int) -> int:
    if opcode == "add":
        return bits(a + b, w - 1, 0)
    if opcode == "sub":
        return bits(a + ((1 << w) - b), w - 1, 0)
    if opcode == "mul":
        return bits(a * b, w - 1, 0)
    if opcode == "and":
        return a & b
    if opcode == "or":
        return a | b
    if opcode == "xor":
        return a ^ b
    if opcode in ("shl", "lshr", "ashr"):
        return PRIMS[opcode].ref(w, a, b)
    raise AssertionError(opcode)


def _icmp(pred: str, w: int, a: int, b: int) -> int:
    if pred in ("slt", "sle", "sgt", "sge"):
        return PRIMS[pred].ref(w, a, b)
    table = {
        "eq": a == b, "ne": a != b,
        "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
    }
    return 1 if table[pred] else 0


class _Interp:
    def __init__(self, module: LlvmModule, budget: int | None, mem: dict[int, int]):
        # the memory, as a plain dict; the states passed around keep the
        # initial memory, and `interp_function` returns a state holding this
        self.mem = mem
        self.module = module
        self.budget = budget
        self.steps = 0

    def tick(self):
        self.steps += 1
        if self.budget is not None and self.steps > self.budget:
            raise BudgetExhausted(
                f"reference interpreter exceeded {self.budget} block transitions")

    def call(self, fn: LlvmFunction, args: tuple[int, ...], st: MachineState) -> MachineState:
        """Mirror of the translated driver: frame bracket around the body."""
        if len(args) != len(fn.params):
            raise EvalFault(f"@{fn.name} takes {len(fn.params)} arguments, got {len(args)}")
        st = st_mod.init_stack_frame(st)
        st = st_mod.begin_stack_frame(st)
        st = self.body(fn, args, st)
        return st_mod.end_stack_frame(st)

    def body(self, fn: LlvmFunction, args: tuple[int, ...], st: MachineState) -> MachineState:
        regs: dict[str, int] = {name: value
                                for (name, _), value in zip(fn.params, args)}
        block = fn.blocks[0]
        prev: str | None = None
        while True:
            self.tick()
            if block.phis:
                incoming = []
                for phi in block.phis:
                    actual = next((v for v, lbl in phi.incomings if lbl == prev), None)
                    if actual is None:
                        raise EvalFault(
                            f"phi %{phi.result} in {block.label} has no value for "
                            f"predecessor {prev}")
                    incoming.append(_value(actual, regs))
                for phi, v in zip(block.phis, incoming):
                    regs[phi.result] = v
            for inst in block.body:
                st = self.instruction(inst, regs, st)
            term = block.terminator
            if isinstance(term, Ret):
                return st_mod.update_retval(_value(term.value, regs), st)
            if term.cond is None:
                target = term.targets[0]
            else:
                target = term.targets[0] if _value(term.cond, regs) == 1 else term.targets[1]
            prev = block.label
            block = fn.block(target)

    def instruction(self, inst: Instruction, regs: dict[str, int],
                    st: MachineState) -> MachineState:
        ops = inst.operands
        if inst.opcode in BINOPS:
            regs[inst.result] = _binop(inst.opcode, inst.width,
                                       _value(ops[0], regs), _value(ops[1], regs))
        elif inst.opcode == "icmp":
            regs[inst.result] = _icmp(inst.pred, inst.width,
                                      _value(ops[0], regs), _value(ops[1], regs))
        elif inst.opcode == "zext":
            regs[inst.result] = _value(ops[0], regs)
        elif inst.opcode == "sext":
            regs[inst.result] = sext(inst.width, inst.to_width, _value(ops[0], regs))
        elif inst.opcode == "trunc":
            regs[inst.result] = bits(_value(ops[0], regs), inst.to_width - 1, 0)
        elif inst.opcode == "select":
            picked = ops[1] if _value(ops[0], regs) == 1 else ops[2]
            regs[inst.result] = _value(picked, regs)
        elif inst.opcode == "getelementptr":
            idx = _value(ops[1], regs)
            if inst.idx_width < 64:
                idx = sext(inst.idx_width, 64, idx)
            regs[inst.result] = bits(_value(ops[0], regs) + idx * (inst.elem_width // 8),
                                     31, 0)
        elif inst.opcode == "load":
            regs[inst.result] = st_mod.rd_n(inst.width // 8, _value(ops[0], regs), self.mem)
        elif inst.opcode == "store":
            self.mem = st_mod.wr_n(inst.width // 8, _value(ops[1], regs),
                                   _value(ops[0], regs), self.mem)
        elif inst.opcode == "alloca":
            size = (inst.elem_width // 8) * ops[0].value
            regs[inst.result] = st.stack
            st = st_mod.alloca(size, st)
        elif inst.opcode == "call":
            callee = self.module.function(inst.callee)
            st = self.call(callee, tuple(_value(a, regs) for a in ops), st)
            if inst.result is not None:
                regs[inst.result] = st.retval
        else:
            raise AssertionError(inst.opcode)
        return st


def interp_function(module: LlvmModule, name: str, args: tuple[int, ...],
                    st: MachineState, budget: int | None = None) -> MachineState:
    """Run @name on the given state; the result lands in retval like the
    translated driver's."""
    interp = _Interp(module, budget, dict(st.mem.items()))
    final = interp.call(module.function(name), tuple(args), st)
    return replace(final, mem=interp.mem)
