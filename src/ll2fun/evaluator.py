"""Concrete execution of functional-IR programs.

`ProgramEvaluator.__init__` compiles a whole program once, into one Python
source that serves every run mode.  Each definition becomes a plain
function over naturals and MachineState values.  A while def becomes a
real loop over its value frame with its step's body inlined: an
iteration assigns the step's results to the frame locals, so it costs no
host call and no tuple, and a million iterations cost no host stack.

Signature checks, the step budget, per-while iteration counts and the
call trace are code in that same source, switched per run by a few
namespace globals (`_hook`, `_checking`, `_trace`, `_limit`):

* every definition has one hook line at entry and one at its one
  return; they call `_Hooks` only when the run checks or traces, and the
  entry line only checks arguments that some call site may pass out of
  kind (see `_unproven_args`);
* a loop counts its iterations in `_it`, which the budget is tested
  against, and in a local that it adds to `_per_while` when it exits; it
  checks the step's results inline with the `Kind.test` expressions of
  `prims.KINDS`, the same predicates `Kind.check` evaluates; a traced run
  takes the loop's unfused form, which calls the step as a definition,
  so the trace shows every step entry and exit.

Each primitive compiles through its row in `prims.PRIMS`: a format
string inlined into the source, or a call of the row's reference
function.  Two fused forms are recognised here instead: a load
(wfrombytes of loadbytes) becomes one `rd_n`, unrolled into dict reads
behind one range test when a let in a loop binds it and it reads 1, 2,
4 or 8 bytes, and a store (storebytes of wtobytes) becomes one
`store_word`.

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
import re
import weakref
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExhausted, EvalFault, SignatureViolation
from .fun_ir import (
    Call, Const, FunDef, FunProgram, If, LetStar, Metlist, Mvlist, Prim, Var,
    _while_shape, children,
)
from .prims import KINDS, PRIMS, STATE
from . import state as st_mod
from .state import ADDR_LIMIT, MachineState

# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

_UNROLLED = (1, 2, 4, 8)  # byte counts of let-bound loads read byte by byte
_NO_LIMIT = 1 << 62       # `_limit` of a run without a budget
_PIECE_LINES = 1000       # compile the source in pieces of about this size


@lru_cache(maxsize=1 << 16)
def _sanitize(name: str) -> str:
    return re.sub(r"\W", "_", name)  # \W: not alphanumeric (str.isalnum) nor _


def _fused(inner, op: str, n: Const) -> bool:
    """Is inner an application of op to the same byte count n?"""
    return isinstance(inner, Prim) and inner.op == op and inner.args[0] == n


def _is_atom(code: str) -> bool:
    """Is this emitted expression a local or a literal (free to repeat)?"""
    return code.isidentifier() or code.isdigit()


def _tests(values: list[str], kinds, positions) -> str:
    """The conjunction of the kind tests of values at positions."""
    return " and ".join(f"({KINDS[kinds[i]].test.format(values[i])})" for i in positions)


# ---------------------------------------------------------------------------
# Which argument checks can fail
# ---------------------------------------------------------------------------
# In a checked run every value a definition receives has passed a check:
# its caller's entry check of a parameter, its callee's exit check of a
# result, or `run`'s check of the entry's arguments.  A constant, or a
# value a primitive with a bounded result (`Primitive.below`) computes, is
# known to be in range as well.  A parameter that receives such a value
# at every call site cannot fail its entry check, so the entry hook skips
# it.  A definition whose every parameter is proven needs no entry hook at
# all in a checked run, which matters because the hook reads `locals()`.

# What passing the check of each kind says: STATE, or an exclusive bound.
_KIND_FACTS = {name: STATE if row.sort == STATE else row.bound or float("inf")
               for name, row in KINDS.items()}


def _within(fact, want) -> bool:
    """Does a value with this fact pass a check that says want?"""
    if fact is None or want == STATE or fact == STATE:
        return fact == want
    return fact <= want


def _fact(e, env: dict, program: FunProgram):
    """STATE, an exclusive bound on e's natural value, or None (unknown)."""
    t = type(e)
    if t is Var:
        return env.get(e.name)
    if t is Const:
        return e.value + 1
    if t is If:
        a, b = _fact(e.then, env, program), _fact(e.els, env, program)
        if a is None or b is None or STATE in (a, b):
            return a if a == b else None
        return max(a, b)
    if t is Call:
        kinds = program.by_name[e.name].result_kinds
        return _KIND_FACTS[kinds[0]] if len(kinds) == 1 else None
    if t is Prim:
        row = PRIMS[e.op]
        if row.result == STATE:
            return STATE
        if row.below:
            return row.below(*[a.value if type(a) is Const else None for a in e.args])
    return None


def _unproven_args(program: FunProgram) -> dict[str, list[int]]:
    """For each definition, the argument positions whose entry check some
    call site does not make redundant.  `run` checks every argument of
    the entry itself."""
    unproven: dict[str, set[int]] = {d.name: set() for d in program.defs}
    by_name = program.by_name
    wants = {d.name: [_KIND_FACTS[k] for _, k in d.params] for d in program.defs}

    def visit(e, env: dict):
        t = type(e)
        if t is LetStar:
            env = dict(env)
            for name, bound in e.bindings:
                visit(bound, env)
                env[name] = _fact(bound, env, program)
            visit(e.body, env)
            return
        if t is Metlist:
            visit(e.call, env)
            kinds = by_name[e.call.name].result_kinds
            visit(e.body, {**env, **{n: _KIND_FACTS[k] for n, k in zip(e.names, kinds)}})
            return
        if t is Call:
            for i, (a, want) in enumerate(zip(e.args, wants[e.name])):
                if not _within(_fact(a, env, program), want):
                    unproven[e.name].add(i)
        for child, _ in children(e):
            visit(child, env)

    for d in program.defs:
        shape = _while_shape(d)
        if shape is None:
            visit(d.body, {n: _KIND_FACTS[k] for n, k in d.params})
            continue
        # a loop passes its step the while's arguments, then the step's
        # own checked results; the while's body is not compiled as written
        step = by_name[shape[0]]
        for i, want in enumerate(wants[step.name]):
            if not (_within(_KIND_FACTS[d.params[i][1]], want)
                    and _within(_KIND_FACTS[step.result_kinds[i]], want)):
                unproven[step.name].add(i)
    return {name: sorted(positions) for name, positions in unproven.items()}


class _Codegen:
    """Emits the program's source.  Within a definition, `finish` says what
    a value in tail position becomes: the result `_r`, which the
    definition's one return passes through its exit hook, or in a fused
    loop the assignment of the next frame."""

    def __init__(self, program: FunProgram):
        self.program = program
        self.fn_names = {d.name: f"d{i}_{_sanitize(d.name)}" for i, d in enumerate(program.defs)}
        self.index = {d.name: i for i, d in enumerate(program.defs)}
        self.param_locals: list[tuple[str, ...]] = []  # per def, for the hooks
        self.steps: dict[int, int] = {}                # while def -> its step def
        self.unproven = _unproven_args(program)
        self.lines: list[str] = []
        self.finish = None
        self.fused = False          # emitting a step body inside its loop
        self.assigned: set[str] = set()

    # -- locals ------------------------------------------------------------

    def _fresh_locals(self, d: FunDef) -> dict[str, str]:
        mapping: dict[str, str] = {}
        for n, _ in d.params:
            self._bind_local(mapping, n)
        return mapping

    def _bind_local(self, mapping: dict[str, str], name: str) -> str:
        """A local for a new binding of name.  It may reuse name's old local,
        but never one that another name still refers to (a copy)."""
        mapping.pop(name, None)
        base = "v_" + _sanitize(name)
        local = base
        k = 2
        while local in mapping.values():
            local = f"{base}_{k}"
            k += 1
        mapping[name] = local
        self.assigned.add(local)
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

    def bind(self, name: str, bound, env: dict[str, str], indent: str):
        if (self.fused and isinstance(bound, Prim) and bound.op == "wfrombytes"
                and _fused(bound.args[1], "loadbytes", bound.args[0])
                and bound.args[0].value in _UNROLLED):
            self.load(name, bound.args[0].value, bound.args[1], env, indent)
            return
        rhs = self.expr(bound, env)
        if _is_atom(rhs):  # a copy: later uses read the source directly
            env[name] = rhs
            return
        self.lines.append(f"{indent}{self._bind_local(env, name)} = {rhs}")

    def load(self, name: str, n: int, load: Prim, env: dict[str, str], indent: str):
        """name = wfrombytes n (loadbytes n addr st): n dict reads behind
        one range test; out of range, `rd_n` raises its usual fault."""
        addr, st = (self.expr(x, env) for x in load.args[1:])
        if not st.isidentifier():
            self.lines.append(f"{indent}{self._bind_local(env, name)} = _rd_n({n}, {addr}, {st}.mem)")
            return
        if not _is_atom(addr):
            self.lines.append(f"{indent}_a = {addr}")
            addr = "_a"
        local = self._bind_local(env, name)
        reads = " | ".join(f"_g({addr} + {k}, 0) << {8 * k}" if k else f"_g({addr}, 0)"
                           for k in range(n))
        self.lines += [f"{indent}if 0 <= {addr} <= {ADDR_LIMIT - n}:",
                       f"{indent}    _g = {st}.mem.get",
                       f"{indent}    {local} = {reads}",
                       f"{indent}else:",
                       f"{indent}    {local} = _rd_n({n}, {addr}, {st}.mem)"]

    def tail(self, e, env: dict[str, str], indent: str):
        out = self.lines
        if isinstance(e, LetStar):
            for name, bound in e.bindings:
                self.bind(name, bound, env, indent)
            self.tail(e.body, env, indent)
        elif isinstance(e, If):
            out.append(f"{indent}if {self.cond(e.cond, env)}:")
            self.tail(e.then, dict(env), indent + "    ")
            out.append(f"{indent}else:")
            self.tail(e.els, dict(env), indent + "    ")
        elif isinstance(e, Metlist):
            rhs = self.expr(e.call, env)
            locals_ = [self._bind_local(env, n) for n in e.names]
            out.append(f"{indent}{', '.join(locals_)} = {rhs}")
            self.tail(e.body, env, indent)
        elif isinstance(e, Mvlist):
            self.finish([self.expr(x, env) for x in e.items], None, env, indent)
        else:
            self.finish(None, e, env, indent)

    # -- definitions -----------------------------------------------------------

    def result(self, items, e, env: dict[str, str], indent: str):
        """finish for a definition body."""
        if items is None:
            value = self.expr(e, env)
        else:
            value = items[0] if len(items) == 1 else f"({', '.join(items)})"
        self.lines.append(f"{indent}_r = {value}")

    def next_frame(self, step: FunDef, s: int, frame: list[str]):
        """finish for a step body inlined in its loop: assign the next frame
        and check the results that may have changed.  A result that is
        its parameter, unassigned, at the parameter's kind was checked
        when it entered this iteration."""
        param_kinds = [kind for _, kind in step.params]
        results = step.result_kinds

        def finish(items, e, env, indent):
            if items is None:
                self.lines.append(f"{indent}{', '.join(frame)} = {self.expr(e, env)}")
                changed = range(len(frame))
            else:
                self.assign(frame, items, indent)
                changed = [i for i, (t, v) in enumerate(zip(frame, items))
                           if t != v or t in self.assigned or results[i] != param_kinds[i]]
            if changed:
                self.lines.append(f"{indent}if _chk and not ({_tests(frame, results, changed)}): "
                                  f"_bad({s}, ({', '.join(frame)},), 'result')")
        return finish

    def assign(self, targets: list[str], values: list[str], indent: str):
        """targets = values, one plain assignment per changed target where
        an order exists that reads no target after writing it."""
        pending = [(t, v) for t, v in zip(targets, values) if t != v]
        while pending and all(_is_atom(v) for _, v in pending):
            read = {v for _, v in pending}
            ready = [(t, v) for t, v in pending if t not in read]
            if not ready:
                break
            self.lines += [f"{indent}{t} = {v}" for t, v in ready]
            pending = [p for p in pending if p not in ready]
        if pending:
            self.lines.append(f"{indent}{', '.join(t for t, _ in pending)} = "
                              f"{', '.join(v for _, v in pending)}")

    def loop(self, k: int, d: FunDef, step: FunDef, env: dict[str, str]):
        s = self.steps[k] = self.index[step.name]
        frame = [env[n] for n in d.param_names]
        args = ", ".join(frame)
        kinds = [kind for _, kind in step.params]
        recheck = self.unproven[step.name]
        head = [f"while {frame[0]} != 1:", "    _c += 1", "    _it[0] += 1",
                f"    if _it[0] > _limit: _exhaust({k}, locals())"]
        self.lines += ["    _c = 0", "    _chk = _checking", "    try:", "        if _trace:"]
        self.lines += ["            " + line for line in head]
        self.lines += [f"                {args} = {self.fn_names[step.name]}({args})",
                       "        else:"] + ["            " + line for line in head]
        if recheck:
            self.lines.append(f"                if _chk and not ({_tests(frame, kinds, recheck)}): "
                              f"_bad({s}, ({args},), 'argument')")
        self.assigned = set()
        self.finish = self.next_frame(step, s, frame)
        self.fused = True
        self.tail(step.body, dict(env), " " * 16)
        self.fused = False
        self.lines += ["    finally:",
                       f"        if _c: _per_while[{d.name!r}] = _per_while.get({d.name!r}, 0) + _c"]
        self.result(frame[1:], None, env, "    ")

    def gen_def(self, k: int, d: FunDef):
        env = self._fresh_locals(d)
        params = [env[n] for n, _ in d.params]
        self.param_locals.append(tuple(params))
        flag = "_hook" if self.unproven[d.name] else "_trace"
        self.lines += [f"def {self.fn_names[d.name]}({', '.join(params)}):",
                       f"    if {flag}: _enter({k}, locals())"]
        shape = _while_shape(d)
        if shape is not None:
            self.loop(k, d, self.program.by_name[shape[0]], env)
        else:
            self.finish = self.result
            self.tail(d.body, env, "    ")
        self.lines += [f"    return _leave({k}, _r) if _hook else _r", ""]

    def generate(self) -> list[str]:
        """The source in pieces of whole definitions, each at least
        _PIECE_LINES long except the last."""
        pieces, start = [], 0
        for k, d in enumerate(self.program.defs):
            self.gen_def(k, d)
            if len(self.lines) - start >= _PIECE_LINES:
                pieces.append("\n".join(self.lines[start:]))
                start = len(self.lines)
        pieces.append("\n".join(self.lines[start:]))
        return pieces


# The names compiled code calls: the helper-template rows and the fused
# load.  The stores and the hooks are bound per evaluator.
_NAMESPACE = {p.template: p.ref for p in PRIMS.values()
              if p.template and "{" not in p.template}
_NAMESPACE.update(_rd_n=st_mod.rd_n, MachineState=MachineState)


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


class _Hooks:
    """What the emitted hook lines call: the signature checks and the trace
    at definition entry and exit, the report of a check that failed inside
    a fused loop, and budget exhaustion.  `ProgramEvaluator.run` sets the
    mode fields before each run."""

    def __init__(self, program: FunProgram, gen: _Codegen):
        self.defs = program.defs
        self.param_locals = gen.param_locals
        self.steps = gen.steps
        self.unproven = [gen.unproven[d.name] for d in program.defs]
        self.checking = self.trace = False
        self.budget: int | None = None
        self.out: io.TextIOBase | None = None

    def show(self, arrow: str, k: int, values):
        print(f"{arrow} {self.defs[k].name} " + " ".join(_state_text(v) for v in values),
              file=self.out)

    def enter(self, k: int, frame_locals: dict):
        """At entry a function's locals are its parameters, in order."""
        args = tuple(frame_locals.values())
        if self.trace:
            self.show("->", k, args)
        if self.checking:
            self.check(k, args, "argument", every=False)

    def leave(self, k: int, out):
        if self.checking:
            self.check(k, (out,) if len(self.defs[k].result_kinds) == 1 else out, "result")
        if self.trace:
            self.show("<-", k, out if isinstance(out, tuple) else (out,))
        return out

    def admit(self, k: int, args: tuple):
        """`run`'s check of every argument of the entry k."""
        try:
            self.check(k, args, "argument")
        except SignatureViolation:
            if self.trace:
                self.show("->", k, args)
            raise

    def check(self, k: int, values, what: str, every: bool = True):
        """Raise the SignatureViolation of the first value that fails its
        kind; with every=False only the unproven arguments are checked,
        the others are known to pass."""
        d = self.defs[k]
        kinds = d.result_kinds if what == "result" else [kind for _, kind in d.params]
        for i in range(min(len(values), len(kinds))) if every else self.unproven[k]:
            if i < len(values) and not KINDS[kinds[i]].check(values[i]):
                raise SignatureViolation(
                    f"{d.name}: {what} {i + 1} fails {kinds[i]} "
                    f"(got {_state_text(values[i])})", context=f"def {d.name}")

    def bad(self, k: int, values: tuple, what: str):
        """An inline check in a fused loop failed on the step def k."""
        self.check(k, values, what)
        raise AssertionError(f"inline {what} check of {self.defs[k].name} disagrees with KINDS")

    def exhaust(self, k: int, frame_locals: dict):
        """The budget ran out at the top of an iteration of while def k."""
        if self.trace:  # the step call that the budget stops was entered
            self.show("->", self.steps[k], [frame_locals[n] for n in self.param_locals[k]])
        raise BudgetExhausted(f"step budget of {self.budget} exhausted in {self.defs[k].name}")


class ProgramEvaluator:
    """The compiled form of one program.

    `__init__` generates one Python source for the whole program, compiles
    it and executes it into the evaluator's namespace, once.  `run` sets
    the run mode (checking, budget, trace) in that namespace and calls the
    entry; every mode runs the same compiled functions.

    Programs are immutable and freely shareable, and so are states outside
    a run.  An evaluator, however, owns mutable iteration counters and the
    memory of the run in progress (`state.RunMemory`), so one instance
    serves one execution at a time.  Parallel runs want separate instances
    (or separate programs, which the module-level cache keys on).
    """

    def __init__(self, program: FunProgram):
        self.program = program
        gen = _Codegen(program)
        pieces = gen.generate()
        self.source = "\n".join(pieces)
        self._fn_names, self._index = gen.fn_names, gen.index
        self._hooks = hooks = _Hooks(program, gen)
        memory = st_mod.RunMemory()
        self._ns = dict(_NAMESPACE, _memory=memory, _store_word=memory.store_word,
                        _storebytes=memory.storebytes, _enter=hooks.enter,
                        _leave=hooks.leave, _bad=hooks.bad, _exhaust=hooks.exhaust,
                        _it=[0], _per_while={}, _hook=False, _checking=False,
                        _trace=False, _limit=_NO_LIMIT)
        # compile's memory grows with the text compiled at once, so the pieces
        # are compiled one by one, each at its line numbers in the source
        filename, line = f"<ll2fun:{id(program):#x}>", 0
        for piece in pieces:
            exec(compile("\n" * line + piece, filename, "exec"), self._ns)  # noqa: S102
            line += piece.count("\n") + 1
        self.trace_out: io.TextIOBase | None = None

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
        ns, hooks = self._ns, self._hooks
        hooks.checking, hooks.trace, hooks.budget = checking, trace, budget
        hooks.out = self.trace_out
        ns.update(_hook=checking or trace, _checking=checking, _trace=trace,
                  _limit=_NO_LIMIT if budget is None else budget)
        it, per_while = ns["_it"], ns["_per_while"]
        it[0] = 0
        per_while.clear()
        try:
            if checking:
                hooks.admit(self._index[name], (*args, st))
            out = ns[self._fn_names[name]](*args, st)
        except RecursionError:
            raise EvalFault(f"host recursion limit reached inside {name}",
                            context=f"def {name}") from None
        except BudgetExhausted as e:
            e.counts = dict(per_while)  # the loops added their counts on the way out
            raise
        except EvalFault as e:
            if e.context is None:
                raise type(e)(str(e), context=f"entry {name}, step {it[0]}") from e
            raise
        finally:
            ns["_memory"].mem = None
        results = out if isinstance(out, tuple) else (out,)
        final = results[-1]
        if not isinstance(final, MachineState):
            raise EvalFault(f"{name} did not return a machine state last")
        return RunResult(results[:-1], final, it[0], dict(per_while))


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
