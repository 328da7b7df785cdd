"""Concrete execution of functional-IR programs.

Definitions compile once into plain Python functions over naturals and
MachineState values; the general-recursive while defs compile into real
loops over their value frame, so a million iterations cost no host stack.
Dynamic signature checking, step budgets, and call tracing are optional
layers wrapped around the compiled functions; checking is on by default
and should be switched off for benchmarking.

Each primitive compiles through its row in `prims.PRIMS`: a format
string inlined into the source, or a call of the row's reference
function.  Two fused forms are recognised here instead: a load
(wfrombytes of loadbytes) becomes one `rd_n` and a store (storebytes of
wtobytes) one `store_word`.

Stores are the exception to calling the reference function: the fused
store and `storebytes` go through the namespace's `state.RunMemory`, which
copies the memory on a run's first store and writes every later store of
the run into that copy in place.  The loader only admits programs that
thread the state linearly, so no state older than a store is ever read
again; states passed in by the caller are never written, and a run that
never stores never copies.
"""

from __future__ import annotations

import io
import weakref
from dataclasses import dataclass

from .errors import BudgetExhausted, EvalFault, SignatureViolation
from .fun_ir import (
    Call, Const, FunDef, FunProgram, If, LetStar, Metlist, Mvlist, Prim, Var,
    _while_shape,
)
from .prims import KINDS, PRIMS
from . import state as st_mod
from .state import MachineState

# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _fused(inner, op: str, n: Const) -> bool:
    """Is inner an application of op to the same byte count n?"""
    return isinstance(inner, Prim) and inner.op == op and inner.args[0] == n


class _Codegen:
    def __init__(self, program: FunProgram):
        self.program = program
        self.fn_names = {d.name: f"d{i}_{_sanitize(d.name)}" for i, d in enumerate(program.defs)}
        self.lines: list[str] = []

    # -- locals ------------------------------------------------------------

    def _fresh_locals(self, d: FunDef) -> dict[str, str]:
        mapping: dict[str, str] = {}
        for n, _ in d.params:
            self._bind_local(mapping, n)
        return mapping

    @staticmethod
    def _bind_local(mapping: dict[str, str], name: str) -> str:
        if name in mapping:
            return mapping[name]
        base = "v_" + _sanitize(name)
        local = base
        k = 2
        while local in mapping.values():
            local = f"{base}_{k}"
            k += 1
        mapping[name] = local
        return local

    # -- expressions ---------------------------------------------------------

    def expr(self, e, env: dict[str, str]) -> str:
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Const):
            return str(e.value)
        if isinstance(e, If):
            return (f"({self.expr(e.then, env)} if {self.cond(e.cond, env)} "
                    f"else {self.expr(e.els, env)})")
        if isinstance(e, Call):
            args = ", ".join(self.expr(a, env) for a in e.args)
            return f"{self.fn_names[e.name]}({args})"
        if isinstance(e, Prim):
            return self.prim(e, env)
        raise AssertionError(f"expression context: {e}")

    def cond(self, e, env: dict[str, str]) -> str:
        """Condition position: a {0,1} value tested against zero."""
        if isinstance(e, Prim) and PRIMS[e.op].cond:
            return PRIMS[e.op].cond.format(*[self.expr(a, env) for a in e.args])
        return f"{self.expr(e, env)} != 0"

    def prim(self, e: Prim, env: dict[str, str]) -> str:
        op = e.op
        a = e.args

        def ex(x) -> str:
            return self.expr(x, env)

        if op == "bits":
            h, l = a[1].value, a[2].value
            mask = (1 << (h - l + 1)) - 1
            if l == 0:
                return f"({ex(a[0])} & {mask})"
            return f"(({ex(a[0])} >> {l}) & {mask})"
        if op == "wfrombytes" and _fused(a[1], "loadbytes", a[0]):
            return f"_rd_n({a[0].value}, {ex(a[1].args[1])}, {ex(a[1].args[2])}.mem)"
        if op == "storebytes" and _fused(a[2], "wtobytes", a[0]):
            return f"_store_word({a[0].value}, {ex(a[1])}, {ex(a[2].args[1])}, {ex(a[3])})"
        template = PRIMS[op].template
        args = [ex(x) for x in a]
        if "{" in template:
            return template.format(*args)
        return f"{template}({', '.join(args)})"

    # -- statements ------------------------------------------------------------

    def tail(self, e, env: dict[str, str], indent: str):
        out = self.lines
        if isinstance(e, LetStar):
            for name, bound in e.bindings:
                rhs = self.expr(bound, env)
                local = self._bind_local(env, name)
                out.append(f"{indent}{local} = {rhs}")
            self.tail(e.body, env, indent)
        elif isinstance(e, If):
            out.append(f"{indent}if {self.cond(e.cond, env)}:")
            inner = dict(env)
            self.tail(e.then, inner, indent + "    ")
            out.append(f"{indent}else:")
            inner = dict(env)
            self.tail(e.els, inner, indent + "    ")
        elif isinstance(e, Metlist):
            rhs = self.expr(e.call, env)
            locals_ = [self._bind_local(env, n) for n in e.names]
            if len(locals_) == 1:
                out.append(f"{indent}{locals_[0]} = {rhs}")
            else:
                out.append(f"{indent}{', '.join(locals_)} = {rhs}")
            self.tail(e.body, env, indent)
        elif isinstance(e, Mvlist):
            items = [self.expr(x, env) for x in e.items]
            if len(items) == 1:
                out.append(f"{indent}return {items[0]}")
            else:
                out.append(f"{indent}return ({', '.join(items)})")
        else:
            out.append(f"{indent}return {self.expr(e, env)}")

    def gen_def(self, d: FunDef):
        env = self._fresh_locals(d)
        params = ", ".join(env[n] for n, _ in d.params)
        self.lines.append(f"def {self.fn_names[d.name]}({params}):")
        shape = _while_shape(d)
        if shape is not None:
            step_name, frame = shape
            locals_ = [env[n] for n in frame]
            done = locals_[0]
            args = ", ".join(locals_)
            values = ", ".join(locals_[1:])
            self.lines.append(f"    while {done} != 1:")
            self.lines.append("        _it[0] += 1")
            self.lines.append(f"        {args} = {self.fn_names[step_name]}({args})")
            self.lines.append(f"    return ({values})")
        else:
            self.tail(d.body, env, "    ")
        self.lines.append("")

    def generate(self) -> str:
        for d in self.program.defs:
            self.gen_def(d)
        return "\n".join(self.lines)


# The names compiled code calls: the helper-template rows and the fused
# load.  The two stores are bound per namespace (`ProgramEvaluator._namespace`).
_NAMESPACE = {p.template: p.ref for p in PRIMS.values()
              if p.template and "{" not in p.template}
_NAMESPACE.update(_rd_n=st_mod.rd_n)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    values: tuple          # results without the trailing state
    state: MachineState
    iterations: int        # loop iterations executed, summed over all whiles
    per_while: dict[str, int]


@dataclass
class BudgetOutcome:
    completed: bool
    result: RunResult | None
    iterations: int
    per_while: dict[str, int]

    def report(self) -> str:
        if self.completed:
            return f"completed within budget ({self.iterations} loop iterations)"
        lines = ["budget exhausted; non-termination suspected",
                 f"  total loop iterations: {self.iterations}"]
        for name, count in sorted(self.per_while.items()):
            lines.append(f"  {name}: {count}")
        return "\n".join(lines)


def _state_text(v) -> str:
    if isinstance(v, MachineState):
        return (f"(st retval={v.retval} stack={v.stack:#x} frame={v.frame:#x} "
                f"mem/{len(v.mem)})")
    return str(v)


class ProgramEvaluator:
    """Compiled form of one program plus its execution layers.

    Programs are immutable and freely shareable, and so are states outside
    a run.  An evaluator instance, however, owns mutable iteration
    counters and the memory of the run in progress (`state.RunMemory`), so
    one instance serves one execution at a time.  Parallel runs want
    separate instances (or separate programs, which the module-level cache
    keys on).
    """

    def __init__(self, program: FunProgram):
        self.program = program
        self._gen = _Codegen(program)
        self.source = self._gen.generate()
        self._code = compile(self.source, f"<ll2fun:{id(program):#x}>", "exec")
        self._variants: dict[tuple[bool, bool, bool], dict] = {}
        self.trace_out: io.TextIOBase | None = None

    # -- namespaces ----------------------------------------------------------

    def _namespace(self, checking: bool, budgeted: bool, trace: bool) -> dict:
        key = (checking, budgeted, trace)
        ns = self._variants.get(key)
        if ns is not None:
            return ns
        ns = dict(_NAMESPACE)
        memory = st_mod.RunMemory()
        ns.update(_memory=memory, _store_word=memory.store_word,
                  _storebytes=memory.storebytes)
        ns["_it"] = [0]
        ns["_budget"] = [None]
        ns["_per_while"] = {}
        exec(self._code, ns)  # noqa: S102
        if checking:
            self._wrap_checking(ns, self._gen)
        if budgeted:
            self._wrap_budget(ns, self._gen)
        if trace:
            self._wrap_trace(ns, self._gen)
        self._variants[key] = ns
        return ns

    def _wrap_checking(self, ns: dict, gen: _Codegen):
        for d in self.program.defs:
            inner = ns[gen.fn_names[d.name]]
            ns[gen.fn_names[d.name]] = self._checking_wrapper(d, inner)

    @staticmethod
    def _checking_wrapper(d: FunDef, inner):
        param_kinds = tuple(k for _, k in d.params)
        result_kinds = d.result_kinds
        param_checks = tuple(KINDS[k].check for k in param_kinds)
        result_checks = tuple(KINDS[k].check for k in result_kinds)
        single = len(result_kinds) == 1

        def wrapper(*args):
            for i, (v, check) in enumerate(zip(args, param_checks)):
                if not check(v):
                    raise SignatureViolation(
                        f"{d.name}: argument {i + 1} fails {param_kinds[i]} "
                        f"(got {_state_text(v)})", context=f"def {d.name}")
            out = inner(*args)
            results = (out,) if single else out
            for i, (v, check) in enumerate(zip(results, result_checks)):
                if not check(v):
                    raise SignatureViolation(
                        f"{d.name}: result {i + 1} fails {result_kinds[i]} "
                        f"(got {_state_text(v)})", context=f"def {d.name}")
            return out

        return wrapper

    def _wrap_budget(self, ns: dict, gen: _Codegen):
        cliques = {c.while_def: c.step_def for c in self.program.cliques}
        it = ns["_it"]
        budget_cell = ns["_budget"]
        per_while = ns["_per_while"]
        for while_name, step_name in cliques.items():
            inner = ns[gen.fn_names[step_name]]

            def wrapper(*args, _inner=inner, _wname=while_name):
                per_while[_wname] = per_while.get(_wname, 0) + 1
                limit = budget_cell[0]
                if limit is not None and it[0] > limit:
                    raise BudgetExhausted(
                        f"step budget of {limit} exhausted in {_wname}",
                        counts=dict(per_while))
                return _inner(*args)

            ns[gen.fn_names[step_name]] = wrapper

    def _wrap_trace(self, ns: dict, gen: _Codegen):
        for d in self.program.defs:
            inner = ns[gen.fn_names[d.name]]

            def wrapper(*args, _inner=inner, _name=d.name):
                out = self.trace_out
                print(f"-> {_name} " + " ".join(_state_text(a) for a in args), file=out)
                res = _inner(*args)
                shown = res if isinstance(res, tuple) else (res,)
                print(f"<- {_name} " + " ".join(_state_text(v) for v in shown), file=out)
                return res

            ns[gen.fn_names[d.name]] = wrapper

    # -- running ----------------------------------------------------------------

    def run(self, name: str, args: tuple, st: MachineState, *, checking: bool = True,
            budget: int | None = None, trace: bool = False) -> RunResult:
        d = self.program.by_name.get(name)
        if d is None:
            raise EvalFault(f"no definition named {name}")
        if len(args) + 1 != len(d.params):
            raise EvalFault(
                f"{name} takes {len(d.params) - 1} value arguments, got {len(args)}")
        if budget is not None and budget <= 0:
            raise EvalFault("budget must be positive")
        ns = self._namespace(checking, budget is not None, trace)
        ns["_it"][0] = 0
        ns["_budget"][0] = budget
        ns["_per_while"].clear()
        fn = ns[self._gen.fn_names[name]]
        try:
            out = fn(*args, st)
        except RecursionError:
            raise EvalFault(f"host recursion limit reached inside {name}",
                            context=f"def {name}") from None
        except EvalFault as e:
            if e.context is None:
                raise type(e)(str(e),
                              context=f"entry {name}, step {ns['_it'][0]}") from e
            raise
        finally:
            ns["_memory"].mem = None
        results = out if isinstance(out, tuple) else (out,)
        final = results[-1]
        if not isinstance(final, MachineState):
            raise EvalFault(f"{name} did not return a machine state last")
        return RunResult(results[:-1], final, ns["_it"][0], dict(ns["_per_while"]))


_EVALUATORS: "weakref.WeakKeyDictionary[FunProgram, ProgramEvaluator]" = \
    weakref.WeakKeyDictionary()


def evaluator_for(program: FunProgram) -> ProgramEvaluator:
    ev = _EVALUATORS.get(program)
    if ev is None:
        ev = ProgramEvaluator(program)
        _EVALUATORS[program] = ev
    return ev


def eval_def(program: FunProgram, name: str, args: tuple, st: MachineState, *,
             checking: bool = True, budget: int | None = None,
             trace: bool = False) -> tuple[tuple, MachineState]:
    """Run one definition; returns (value results, final state)."""
    res = evaluator_for(program).run(name, tuple(args), st, checking=checking,
                                     budget=budget, trace=trace)
    return res.values, res.state


def run_with_budget(program: FunProgram, name: str, args: tuple, st: MachineState,
                    budget: int | None, *, checking: bool = True) -> BudgetOutcome:
    """Like eval_def but budget exhaustion becomes a report, not an error."""
    ev = evaluator_for(program)
    try:
        res = ev.run(name, tuple(args), st, checking=checking, budget=budget)
    except BudgetExhausted as e:
        total = sum(e.counts.values())
        return BudgetOutcome(False, None, total, dict(e.counts))
    return BudgetOutcome(True, res, res.iterations, res.per_while)
