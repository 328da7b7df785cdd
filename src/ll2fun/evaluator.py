"""Concrete execution of functional-IR programs.

`ProgramEvaluator.__init__` compiles a whole program once, into one Python
source that serves every run mode.  The translator lifts each block into
a definition of its live-ins; codegen drops the blocks back into regions
(see `_region_roots`).  A region is a definition plus the definitions
that only its tail calls reach, and it compiles into one Python function
over naturals and MachineState values: each member is a section behind
`if _b == K:`, and a tail call into a member assigns the parameters that
differ and sets `_b`.  Every jump goes forward, so a chain of blocks
inside a region costs no host call.  A region stops growing at about
`_PIECE_LINES` generated lines, because compile's memory grows with the
function it compiles; a longer chain is cut into regions, each a call of
the next, so a run costs one host frame per region it crosses, not one
per block.  A while def becomes a real loop over its value frame with
its step's body inlined: an iteration assigns the step's results to the
frame locals, so it costs no host call and no tuple, and a million
iterations cost no host stack.  The loop is `while True:` with its exit
test as its first statement, since CPython 3.11 counts a function's
warm-up for specialization on an unconditional backward jump only, and
a loop's function is called once per run.

Signature checks, the step budget, per-while iteration counts and the
call trace are code in that same source, switched per run by a few
namespace globals (`_hook`, `_checking`, `_trace`, `_limit`,
`_first_stop`).  Only the checks that the loader's check of each
definition leaves unproven are compiled (`FunProgram.unproven`); on a
translated program that is none:

* in a traced run, and in a checked run of a function with an unproven
  check in one of its sections, every section calls the entry hook,
  which lists the definition in the function's path, traces it and
  checks its unproven arguments; the function's one return passes its
  result through the exit hook of each definition on the path, innermost
  first, as their nested returns would have, and each checks its
  unproven results; a checked run of any other function calls no hook;
* a loop counts the run's iterations in `_it`, in a local while its
  step makes no call, tests them against a stop that is at most the
  budget and below 2^30, so that CPython 3.11 specializes the compare,
  and adds its own to `_per_while` (see `_Codegen.loop`); it checks the
  step's unproven arguments and results inline with the `Kind.test`
  expressions of `prims.KINDS`, the same predicates `Kind.check`
  evaluates; in a traced run it prints the step's entry and exit lines
  itself, so every run mode takes the one fused loop.

Each primitive compiles through its row in `prims.PRIMS`: a format
string inlined into the source, or a call of the row's reference
function, but no fault moves: a shift, sext or compare of literals
folds into the reference's value, and an if whose condition folds so
compiles to the branch it takes; the signed compares and sext of atoms
compile to `prims.to_signed`'s formula, exact for every integer; and a
let binding that nothing reads is dropped where it raises for no
integer operand (`_Codegen.live`), a dead load keeping its range test.
Two fused forms are recognised here instead: a load
(wfrombytes of loadbytes) becomes one `state.load_word`, and a store
(storebytes of wtobytes) becomes one `store_word`.  A load that a let in
a loop binds is inlined as one read of a memory page (`_page_read`: the
`struct` read of `state.UNPACK` at widths 1, 2, 4 and 8, a slice and
`int.from_bytes` at the others) behind one test that the n bytes lie in
that page, plus a test of the address's range unless the step masked
the address to 32 bits itself.  A loop whose step loads and makes no
call and no store reads the page table once, before its `while`, and
keeps for each load a window of locals (`_Codegen.access`): the page
the load last read and that page's base address.  An address in the
window reads that page at its distance from the base, with no mask,
lookup or range test, since a window only ever opens on a page whose
read passed the tests; any other address takes the tests above, and a
page read moves the window.  Nothing in such a loop can change a page
it holds.  A load outside a loop stays a call of `_load`: a prototype
that inlined them as well gained about 2% of perfbench's wide run for
about 4 ms more compile.

Stores are the exception to calling the reference function: the fused
store and `storebytes` go through the namespace's `state.RunMemory`, which
copies the memory's page table on a run's first store, each page on the
run's first store to it, and writes every store of the run into its own
pages in place.  The loader only admits programs that thread one state
linearly, so no state older than a store is ever read again; states
passed in by the caller are never written, and a run that never stores
never copies.  A fused store whose state is a variable, let-bound in a
loop or in a region, is inlined as one write into a page the run owns:
the byte, a `struct` write of `state.PACK` at widths 2, 4 and 8, or a
slice, behind one test that the namespace's `_own` (`RunMemory.own`,
which `run` sets afresh for each run) holds the page and that the n
bytes lie in it, and no test of the address's range, since a page is
owned only after a range-checked store into it.  In a loop each store
keeps a window too, moved by each write that finds its page in `_own`:
no page there is ever replaced during a run, so a store whose address
lies in the window writes that page directly.  A stored value is
reduced to its n bytes unless the step bound it to a `bits v h 0` with
h < 8n (`_Codegen.fits`).  The run's first store,
its first to each page, a store across a page boundary or out of range,
and every store of a traced run, whose `_own` stays empty, call
`_store_word` instead, which adds each page it copies to `_own`: after
the run's first store every live state holds the run's memory, so one
dict serves the whole run and no code binds it again.
"""

from __future__ import annotations

import io
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import is_not, itemgetter

from .collector import collector_paused
from .errors import BudgetExhausted, EvalFault, SignatureViolation
from .fun_ir import (
    Call, Const, FunDef, FunProgram, If, LetStar, Metlist, Mvlist, Prim, Var, children, var,
    validate_program,
)
from .prims import KINDS, PRIMS, STATE, decimal, to_signed
from . import state as st_mod
from .state import ADDR_LIMIT, PACK, PAGE_BITS, PAGE_MASK, PAGE_SIZE, UNPACK, MachineState

# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

_NO_LIMIT = 1 << 62       # `_limit` of a run without a budget
_COMPACT = 1 << 30        # CPython 3.11 specializes compares of ints below this only
_PIECE_LINES = 1000       # compile the source in pieces of about this size
_NON_WORD = re.compile(r"\W", re.ASCII)  # not an ASCII letter, digit or _


@lru_cache(maxsize=1 << 16)
def _sanitize(name: str) -> str:
    return _NON_WORD.sub("_", name)


@lru_cache(maxsize=1 << 16)
def _local(name: str) -> str:
    """The first local for name; one string per name, however many
    definitions use it."""
    return "v_" + _sanitize(name)


def _param_locals(d: FunDef) -> tuple[str, ...]:
    """The locals of d's parameters, in order: `v_` and the sanitized name,
    numbered from 2 where names sanitize alike."""
    bases = tuple(map(_local, map(itemgetter(0), d.params)))
    if len(set(bases)) == len(bases):
        return bases
    locals_: dict[str, None] = {}
    for base in bases:
        local = base
        k = 2
        while local in locals_:
            local = f"{base}_{k}"
            k += 1
        locals_[local] = None
    return tuple(locals_)


def _fused(inner, op: str, n: Const) -> bool:
    """Is inner an application of op to the same byte count n?"""
    return isinstance(inner, Prim) and inner.op == op and inner.args[0] == n


def _loaded(e) -> Prim | None:
    """The loadbytes of e if e is a fused load (wfrombytes n (loadbytes n ...))."""
    return e.args[1] if type(e) is Prim and e.op == "wfrombytes" and _fused(
        e.args[1], "loadbytes", e.args[0]) else None


def _width(e) -> int | None:
    """h + 1 if e is a `bits x h 0`, a value in [0, 2^(h + 1)), else None."""
    if type(e) is Prim and e.op == "bits" and e.args[2].value == 0:
        return e.args[1].value + 1
    return None


def _nodes(e):
    """e and every expression in it."""
    todo = [e]
    while todo:
        e = todo.pop()
        yield e
        todo += [c for c, _ in children(e)]


def _in_place(bound) -> bool:
    """Is bound a store that compiled code may write into its run's own
    page: a fused store (storebytes n a (wtobytes n v) st) whose state is
    a variable?"""
    return (type(bound) is Prim and bound.op == "storebytes"
            and _fused(bound.args[2], "wtobytes", bound.args[0]) and type(bound.args[3]) is Var)


def _page_read(n: int, page: str, o: str) -> str:
    """The expression for the n-byte natural at offset o of the page that
    the expression page gives: the byte itself, a `state.UNPACK` read, or
    a slice and `int.from_bytes`."""
    if n == 1:
        return f"{page}[{o}]"
    if n in UNPACK:
        return f"_unpack{n}({page}, {o})[0]"
    return f"_from_bytes({page}[{o}:{o} + {n}], 'little')"


def _page_write(n: int, value: str, page: str, o: str) -> str:
    """The statement that writes the n-byte natural value at offset o of
    page: the byte itself, a `state.PACK` write, or a slice and
    `int.to_bytes`."""
    if n == 1:
        return f"{page}[{o}] = {value}"
    if n in PACK:
        return f"_pack{n}({page}, {o}, {value})"
    return f"{page}[{o}:{o} + {n}] = {value}.to_bytes({n}, 'little')"


def _is_atom(code: str) -> bool:
    """Is this emitted expression a local or a literal (free to repeat)?"""
    return code.isidentifier() or code.isdigit()


_SIGNED = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}  # the unsigned compare of each
# The rows whose applications to literals fold, by the row's reference
# function: none raises on naturals, and no result is longer than the call.
_FOLD = {"shl", "lshr", "ashr", "sext", *_SIGNED, *(op for op, p in PRIMS.items() if p.cond)}


def _signed(code: str, w: int) -> str:
    """`prims.to_signed` of the atom code at width w, exact for every integer."""
    if code.isdigit():
        return decimal(to_signed(int(code), w))
    return f"({code} - (({code} >> {w - 1}) << {w}))"


def _pure(e) -> bool:
    """Does e raise for no integer operand: a name, a constant, or an if or
    a total primitive (`Primitive.total`) of such expressions?"""
    t = type(e)
    if t is Prim:
        total = PRIMS[e.op].total
        return (total is not None and all(type(e.args[i]) is Const and e.args[i].value >= 0
                                          for i in total) and all(map(_pure, e.args)))
    if t is If:
        return _pure(e.cond) and _pure(e.then) and _pure(e.els)
    return t is Var or t is Const


def _reads(e, names: set[str]):
    """Add the names expression e reads to names."""
    t = type(e)
    if t is Var:
        names.add(e.name)
    elif t is If:
        _reads(e.cond, names)
        _reads(e.then, names)
        _reads(e.els, names)
    elif t is not Const:
        for a in e.items if t is Mvlist else e.args:
            if type(a) is Var:
                names.add(a.name)
            elif type(a) is not Const:
                _reads(a, names)


def _tests(values: list[str], kinds, positions) -> str:
    """The conjunction of the kind tests of values at positions."""
    return " and ".join(f"({KINDS[kinds[i]].test.format(values[i])})" for i in positions)


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

# The translator lifts every block into a definition of its live-ins, so a
# block transition is a tail call that passes every live value again.
# Codegen undoes that inside a region: the region's root and the members
# only its tail calls reach compile into one function, in which each
# member is a section guarded by the block index `_b`.  Callers come after
# their callees in a program, so sections in decreasing definition order
# only ever jump forward.  A section reads only its parameters and its own
# lets, and a jump assigns every parameter whose local does not already
# hold the argument, so sharing one set of locals is sound.  The loader's
# check records every call site in `program.calls`, so codegen walks no
# body to find them; a tail call there is the value of a result position,
# as `_Codegen.tail` compiles it.


def _section_lines(d: FunDef) -> int:
    """About how many lines d's body takes in a section: a line per let
    binding and per value in tail position, two per if."""
    n, todo = 2, [d.body]
    while todo:
        e = todo.pop()
        t = type(e)
        if t is LetStar:
            n += len(e.bindings)
            todo.append(e.body)
        elif t is If:
            n += 2
            todo += (e.then, e.els)
        elif t is Metlist:
            n += 1
            todo.append(e.body)
        else:
            n += 1
    return n


def _region_roots(program: FunProgram, loops: list) -> tuple[list[int], list[list[int]]]:
    """Each definition's region root and callers, from `program.calls`.
    A non-while definition joins its callers' region when every call of it
    is a tail call from a later non-while definition, all its callers
    share one region, and the region stays within `_PIECE_LINES` lines
    with it: its section's lines, and the parameters each call of it
    assigns.  A while def calls its step, and its fused loop makes every
    call of the step's body, none of them a tail call."""
    defs = program.defs
    index = {d.name: k for k, d in enumerate(defs)}
    sites: list[list[tuple[int, bool]]] = [[] for _ in defs]
    lines = [_section_lines(d) for d in defs]
    for k, calls in enumerate(program.calls):
        if loops[k] is not None:
            sites[index[loops[k]]].append((k, False))
            calls = [(c, False) for c, _ in program.calls[index[loops[k]]]]
        for call, tail in calls:
            m = index[call.name]
            sites[m].append((k, tail))
            if tail:  # a jump assigns each parameter not passed as its own `var`
                params = map(var, map(itemgetter(0), defs[m].params))
                lines[m] += sum(map(is_not, call.args, params))
    root = list(range(len(defs)))
    for k in reversed(range(len(defs))):  # a definition's callers come later
        if (sites[k] and loops[k] is None and all(tail and p > k for p, tail in sites[k])
                and len({root[p] for p, _ in sites[k]}) == 1):
            r = root[sites[k][0][0]]
            if lines[r] + lines[k] <= _PIECE_LINES:
                root[k] = r
                lines[r] += lines[k]
    return root, [[p for p, _ in s] for s in sites]


class _Codegen:
    """Emits the program's source, one function per region.  Within a
    definition, `finish` says what a value in tail position becomes: the
    result `_r`, which the function's one return passes through the exit
    hooks, a jump to a section of the same function, or in a fused loop
    the assignment of the next frame."""

    def __init__(self, program: FunProgram):
        self.program = program
        defs = program.defs
        self.fn_names = {d.name: f"d{i}_{_sanitize(d.name)}" for i, d in enumerate(defs)}
        self.index = {d.name: i for i, d in enumerate(defs)}
        step_of = {c.while_def: c.step_def for c in program.cliques}
        self.loops = [step_of.get(d.name) for d in defs]  # a while def's step, else None
        self.root, self.callers = _region_roots(program, self.loops)
        self.regions: dict[int, list[int]] = {k: [] for k, r in enumerate(self.root) if k == r}
        for k in reversed(range(len(defs))):  # root first, then its members
            self.regions[self.root[k]].append(k)
        # A step's loops inline its body, so its own function serves only a
        # run that enters it directly, and compiles when one does.
        steps = set(step_of.values())
        self.deferred = {k for k, d in enumerate(defs) if d.name in steps
                         and all(self.loops[p] == d.name for p in self.callers[k])}
        self.unproven = program.unproven
        self.lines: list[str] = []
        self.finish = None
        self.jumps: set[int] = set()  # the sections of the function being emitted
        self.fused = False            # emitting a step body inside its loop
        self.widths: dict[str, int] = {}  # locals the step body bound to a `_width` value
        self.windows = 0  # the windows (`access`) of the loop being emitted
        self.uses: dict[str, int] = {}  # how many names in scope read each code (`_let`)
        self.kept: dict[int, list] = {}  # the bindings each let* keeps (`live`)
        self.pages: str | None = None  # the page table a loop bound before its `while`
        self.param_locals = [_param_locals(d) for d in defs]

    # -- locals ------------------------------------------------------------

    def _let(self, env: dict[str, str], name: str, code: str):
        """env[name] = code, counted in `uses`: how many names of the scope
        being emitted read each code.  Each scope that binds (a definition,
        a step body, an if's branch) starts from its parent's counts."""
        uses = self.uses
        old = env.get(name)
        if old is not None:
            uses[old] -= 1
        env[name] = code
        uses[code] = uses.get(code, 0) + 1

    def _bind_local(self, mapping: dict[str, str], name: str) -> str:
        """A local for a new binding of name.  It may reuse name's old local,
        but never one that another name still refers to (a copy)."""
        old = mapping.pop(name, None)
        if old is not None:
            self.uses[old] -= 1
        base = _local(name)
        local = base
        k = 2
        while self.uses.get(local):
            local = f"{base}_{k}"
            k += 1
        self._let(mapping, name, local)
        self.widths.pop(local, None)
        return local

    # -- expressions ---------------------------------------------------------

    def expr(self, e, env: dict[str, str]) -> str:
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Const):
            return str(e.value)
        if isinstance(e, If):
            test = self.cond(e.cond, env)
            if test.isdigit():  # a literal: the value of the branch it takes
                return self.expr(e.then if test == "1" else e.els, env)
            return f"({self.expr(e.then, env)} if {test} else {self.expr(e.els, env)})"
        if isinstance(e, Call):
            args = ", ".join(self.expr(a, env) for a in e.args)
            return f"{self.fn_names[e.name]}({args})"
        if isinstance(e, Prim):
            return self.prim(e, env)
        raise AssertionError(f"expression context: {e}")

    def cond(self, e, env: dict[str, str]) -> str:
        """Condition position: a {0,1} value tested against zero, or "1"
        or "0" where it folds to a literal, whose test no code needs."""
        if isinstance(e, Prim) and PRIMS[e.op].cond:
            args = [self.expr(a, env) for a in e.args]
            if not all(map(str.isdigit, args)):  # else `prim` folds it
                return PRIMS[e.op].cond.format(*args)
        code = self.expr(e, env)
        if code.isdigit():
            return "1" if int(code) else "0"
        return f"{code} != 0"

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
            return f"_load({a[0].value}, {ex(a[1].args[1])}, {ex(a[1].args[2])}.mem)"
        if op == "storebytes" and _fused(a[2], "wtobytes", a[0]):
            return f"_store_word({a[0].value}, {ex(a[1])}, {ex(a[2].args[1])}, {ex(a[3])})"
        template = PRIMS[op].template
        args = [ex(x) for x in a]
        if op in _FOLD and all(map(str.isdigit, args)):
            return decimal(PRIMS[op].ref(*map(int, args)))
        if op in _SIGNED and _is_atom(args[1]) and _is_atom(args[2]):
            w = a[0].value
            return PRIMS[_SIGNED[op]].template.format(_signed(args[1], w), _signed(args[2], w))
        if op == "sext" and _is_atom(args[2]):
            return f"({_signed(args[2], a[0].value)} & {(1 << a[1].value) - 1})"
        if "{" in template:
            return template.format(*args)
        return f"{template}({', '.join(args)})"

    # -- statements ------------------------------------------------------------

    def bind(self, name: str | None, bound, env: dict[str, str], indent: str):
        if name is None:  # a load nothing reads: its range test keeps its fault
            n = bound.args[0].value
            addr, st = (self.expr(x, env) for x in bound.args[1].args[1:])
            self.lines.append(f"{indent}if not 0 <= {addr} <= {ADDR_LIMIT - n}: "
                              f"_load({n}, {addr}, {st}.mem)")
            return
        if self.fused and (load := _loaded(bound)):
            self.load(name, load.args[0].value, load, env, indent)
            return
        if _in_place(bound):
            self.store(name, bound, env, indent)
            return
        rhs = self.expr(bound, env)
        if _is_atom(rhs):  # a copy: later uses read the source directly
            self._let(env, name, rhs)
            return
        local = self._bind_local(env, name)
        if self.fused and (width := _width(bound)):
            self.widths[local] = width
        self.lines.append(f"{indent}{local} = {rhs}")

    def fits(self, e, code: str, bits: int) -> bool:
        """Is e, emitted as code, proven to lie in [0, 2^bits): a `bits x h
        0` with h < bits, or a local that this step body bound to one?  A
        parameter or a phi slot may hold any integer in an unchecked run."""
        width = _width(e) or self.widths.get(code)
        return width is not None and width <= bits

    def access(self, addr: str, n: int, head: list[str], test: str, page: str, op,
               fallback: str, window: bool, indent: str):
        """Emit an access to the n bytes at addr: `_o`, its page offset, and
        the lines head, then op(page, "_o"), the read or write at that
        offset of page, if test holds, else fallback.  With a window, a new
        one of the loop's: the locals `_wp{i}`, the page the access last
        used, `_wb{i}`, its base address, and `_we{i}`, the last address
        whose n bytes it holds.  An address in the window runs op(`_wp{i}`,
        its distance from the base) alone, and an access of page moves the
        window there.  The loop opens each window empty (`_wb{i} >
        _we{i}`), so no integer hits it before a miss."""
        moved = []
        if window:
            i = self.windows
            self.windows += 1
            hit = op(f"_wp{i}", f"{addr} - _wb{i}")
            moved = [f"_wp{i} = {page}", f"_wb{i} = {addr} - _o",
                     f"_we{i} = _wb{i} + {PAGE_SIZE - n}"]
            page = f"_wp{i}"
        lines = [f"_o = {addr} & {PAGE_MASK}", *head, f"if {test}:",
                 *(f"    {line}" for line in moved), f"    {op(page, '_o')}",
                 "else:", f"    {fallback}"]
        if window:
            lines = [f"if _wb{i} <= {addr} <= _we{i}:", f"    {hit}", "else:",
                     *(f"    {line}" for line in lines)]
        self.lines += [indent + line for line in lines]

    def load(self, name: str, n: int, load: Prim, env: dict[str, str], indent: str):
        """name = wfrombytes n (loadbytes n addr st): one read of the page
        that holds the n bytes (the shared zero page if no store reached
        it), from the page table the loop bound if it bound one, behind
        one range test; across a page boundary `rd_n` reads them, and out
        of range it raises its usual fault.  In a loop that bound its page
        table, the page read moves the load's window there, and an address
        in the window reads its page directly.  That needs no range test:
        the window only ever holds a page whose read passed one, and every
        address in it keeps the n bytes in that page.  No store and no call
        can change that page while the loop runs."""
        addr, st = (self.expr(x, env) for x in load.args[1:])
        if not st.isidentifier():
            self.lines.append(f"{indent}{self._bind_local(env, name)} = _load({n}, {addr}, {st}.mem)")
            return
        # An address that the step body masked to 32 bits lies in [0, 2^32),
        # and then the page test alone keeps the n bytes in memory: with
        # addr = 4096 p + _o, p < 2^20 and _o <= 4096 - n, addr + n <=
        # 4096 (p + 1) <= 2^32.
        masked = self.fits(load.args[1], addr, 32)
        if not _is_atom(addr):
            self.lines.append(f"{indent}_a = {addr}")
            addr = "_a"
        local = self._bind_local(env, name)
        test = f"_o <= {PAGE_SIZE - n}"
        if not masked:
            test += f" and 0 <= {addr} <= {ADDR_LIMIT - n}"
        page = f"{self.pages or st + '.mem.pages'}.get({addr} >> {PAGE_BITS}, _zero)"
        self.access(addr, n, [], test, page,
                    lambda page, o: f"{local} = {_page_read(n, page, o)}",
                    f"{local} = _rd_n({n}, {addr}, {st}.mem)", bool(self.pages), indent)

    def store(self, name: str, store: Prim, env: dict[str, str], indent: str):
        """name = storebytes n a (wtobytes n v) st, in a loop or a region:
        one write into the page of `_own`, the run's own pages
        (`state.RunMemory`), that holds the n bytes; else `_store_word`,
        which copies the page table on the run's first store and a page on
        the run's first store to it, after which `_own` holds that page,
        writes across a page boundary and raises the range fault.  A
        literal value is reduced to n bytes here, and any other value
        unless it `fits` them.  In a loop, a write into an owned page moves
        the store's window there, and an address in the window writes its
        page directly: a page in `_own` is never replaced during a run."""
        n = store.args[0].value
        v = store.args[2].args[1]
        addr, value, st = (self.expr(x, env) for x in (store.args[1], v, store.args[3]))
        mask = (1 << 8 * n) - 1
        if value.isdigit():
            stored = decimal(int(value) & mask)
        else:
            stored = value if self.fits(v, value, 8 * n) else f"({value} & {mask})"
        if not _is_atom(addr):
            self.lines.append(f"{indent}_a = {addr}")
            addr = "_a"
        self._let(env, name, st)  # no code reads a state after its store (the loader's linearity)
        # A page is owned only after `_write_in_place` range-checked a store
        # into it, so its number p is below 2^20, and a hit on `_own` with
        # _o <= 4096 - n keeps the n bytes in [4096 p, 4096 (p + 1)): the
        # address is at least 0 and the n bytes end at or below 2^32.
        self.access(addr, n, [f"_w = _own.get({addr} >> {PAGE_BITS})"],
                    f"_w is not None and _o <= {PAGE_SIZE - n}", "_w",
                    lambda page, o: _page_write(n, stored, page, o),
                    f"{st} = _store_word({n}, {addr}, {value}, {st})", self.fused, indent)

    def live(self, e) -> set[str]:
        """The names e, in result position, reads without its dead bindings,
        in one backward pass that records the bindings each let* keeps in
        `kept`.  A dead binding goes where its value is `_pure`; a dead load
        of a pure address keeps its range test, as a binding of None."""
        t = type(e)
        if t is LetStar:
            names = self.live(e.body)
            kept = []
            for name, bound in reversed(e.bindings):
                if name in names:
                    names.discard(name)
                elif _pure(bound):
                    continue
                else:
                    load = _loaded(bound)
                    if load and _pure(load.args[1]) and type(load.args[2]) is Var:
                        name = None
                kept.append((name, bound))
                _reads(bound, names)
            self.kept[id(e)] = kept[::-1]
            return names
        if t is If:
            names = self.live(e.then)
            names |= self.live(e.els)
            _reads(e.cond, names)
        elif t is Metlist:
            names = self.live(e.body)
            names.difference_update(e.names)
            _reads(e.call, names)
        else:
            names = set()
            _reads(e, names)
        return names

    def body(self, e, env: dict[str, str], indent: str):
        """A definition's or a step's body e, without its dead bindings."""
        self.kept = {}
        self.live(e)
        self.tail(e, env, indent)

    def tail(self, e, env: dict[str, str], indent: str):
        out = self.lines
        if isinstance(e, LetStar):
            for name, bound in self.kept[id(e)]:
                self.bind(name, bound, env, indent)
            self.tail(e.body, env, indent)
        elif isinstance(e, If):
            test = self.cond(e.cond, env)
            if test.isdigit():  # a literal: only the branch it takes
                self.tail(e.then if test == "1" else e.els, env, indent)
                return
            widths, uses = self.widths, self.uses  # what each branch knows on entry
            out.append(f"{indent}if {test}:")
            self.widths, self.uses = dict(widths), dict(uses)
            self.tail(e.then, dict(env), indent + "    ")
            out.append(f"{indent}else:")
            self.widths, self.uses = dict(widths), uses
            self.tail(e.els, env, indent + "    ")  # no code reads env after the if
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
        """finish for a definition body: a tail call of a section of this
        function assigns the section's parameters and jumps to it."""
        if items is None and type(e) is Call and self.index[e.name] in self.jumps:
            m = self.index[e.name]
            values = [env[a.name] if type(a) is Var else self.expr(a, env) for a in e.args]
            self.assign(list(self.param_locals[m]), values, indent)
            self.lines.append(f"{indent}_b = {m}")
            return
        if items is None:
            value = self.expr(e, env)
        else:
            value = items[0] if len(items) == 1 else f"({', '.join(items)})"
        self.lines.append(f"{indent}_r = {value}")

    def next_frame(self, step: FunDef, s: int, frame: list[str]):
        """finish for a step body inlined in its loop: assign the next frame
        and check the step's unproven results."""
        results = step.result_kinds
        unproven = self.unproven.results[step.name]

        def finish(items, e, env, indent):
            if items is None:
                self.lines.append(f"{indent}{', '.join(frame)} = {self.expr(e, env)}")
            else:
                self.assign(frame, items, indent)
            if unproven:
                self.lines.append(f"{indent}if _chk and not ({_tests(frame, results, unproven)}): "
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
        """While def k as one loop with the step's body inlined, which a
        traced run shows as a call of the step.  A loop whose step makes no
        call counts the run's iterations in the local `_n`, loaded from
        `_it[0]` on entry and stored back on exit, and adds the difference
        to `_per_while`.  A step that makes a call may run other loops, so
        its loop counts in `_it[0]` itself, and its own iterations in
        `_c`.  A step that loads and makes no call and no store keeps its
        state's memory, so its loop reads the page table into `_pg` once,
        before the `while`: only a store gives a run a new `Memory`
        (`state.RunMemory`), and every other state primitive keeps it.
        Only such a loop gives its loads windows (`access`, set up empty
        before the `while`): a store or a call could replace the page a
        window holds.  The loop tests done in its body and jumps back
        unconditionally, because `while done != 1:` compiles to a
        conditional backward jump, which CPython 3.11 does not count
        toward specializing the function in its one call per run.

        Each iteration tests the count against the local `_stop`, which
        starts at `_first_stop`, the run's `_limit` or `_COMPACT - 1`,
        whichever is less, so the compare stays between ints CPython
        3.11 specializes (`_NO_LIMIT` is not one) while the count is one
        too.  A count past the stop calls `_next_stop`, which raises
        `BudgetExhausted` at the iteration past the budget, as the test
        against `_limit` itself would, and otherwise moves the stop to
        `_limit`.

        A fused store whose state is a variable (`_in_place`) compiles
        here as it does in a region (`store`), with a window: a page in
        `_own` is never replaced during a run, and a traced run, whose
        `_own` stays empty, never opens one."""
        s = self.index[step.name]
        frame = [env[n] for n in d.param_names]
        args = ", ".join(frame)
        kinds = [kind for _, kind in step.params]
        recheck = self.unproven.args[step.name]
        calls = bool(self.program.calls[s])
        count = "_it[0]" if calls else "_n"
        lines = self.lines
        lines += ["    _c = 0" if calls else "    _n = _it[0]", "    _stop = _first_stop"]
        states = [local for local, kind in zip(frame, kinds) if KINDS[kind].sort == STATE]
        ops = {e.op for e in _nodes(step.body) if type(e) is Prim}
        if not calls and len(states) == 1 and "loadbytes" in ops and "storebytes" not in ops:
            lines.append(f"    _pg = {states[0]}.mem.pages")
            self.pages = "_pg"
        at = len(lines)  # where the windows are set up
        if recheck or self.unproven.results[step.name]:
            lines.append("    _chk = _checking")
        lines += ["    _tr = _trace", "    try:", "        while True:",
                  f"            if {frame[0]} == 1: break",
                  f"            if _tr: _show('->', {s}, ({args},))"]
        if calls:
            lines.append("            _c += 1")
        lines += [f"            {count} += 1",
                  f"            if {count} > _stop: _stop = _next_stop({k}, {count}, _limit)"]
        if recheck:
            lines.append(f"            if _chk and not ({_tests(frame, kinds, recheck)}): "
                         f"_bad({s}, ({args},), 'argument')")
        self.finish = self.next_frame(step, s, frame)
        self.fused, self.widths, self.windows = True, {}, 0
        uses, self.uses = self.uses, dict(self.uses)
        self.body(step.body, dict(env), " " * 12)
        self.uses = uses
        lines[at:at] = [f"    _wb{i}, _we{i} = 1, 0" for i in range(self.windows)]
        self.fused, self.pages, self.widths = False, None, {}
        lines += [f"            if _tr: _show('<-', {s}, ({args},))", "    finally:"]
        if not calls:
            lines += ["        _c = _n - _it[0]", "        _it[0] = _n"]
        lines.append(f"        if _c: _per_while[{d.name!r}] = _per_while.get({d.name!r}, 0) + _c")
        self.result(frame[1:], None, env, "    ")

    def enter(self, k: int, path: str) -> str:
        """The call of the entry hook of definition k, which passes the
        arguments whose check may fail (see `FunProgram.unproven`)."""
        unproven = self.unproven.args[self.program.defs[k].name]
        values = "".join(f", {self.param_locals[k][i]}" for i in unproven)
        return f"_enter({k}, {path}{values})"

    def section(self, k: int, indent: str):
        d = self.program.defs[k]
        env = {name: local for (name, _), local in zip(d.params, self.param_locals[k])}
        self.uses = dict.fromkeys(self.param_locals[k], 1)  # `_param_locals` are distinct
        if self.loops[k] is not None:
            self.loop(k, d, self.program.by_name[self.loops[k]], env)
        else:
            self.finish = self.result
            self.body(d.body, env, indent)

    def function(self, name: str, sections: list[int]):
        """One function: the body of its root, sections[0], then each other
        section's body behind its test of `_b`.  A hooked run lists the
        sections it enters in `_p`, and the one return passes the result
        through their exit hooks, innermost first.  A function whose
        sections have no unproven check calls the hooks in a traced run
        only."""
        k = sections[0]
        self.jumps = set(sections[1:])
        names = [self.program.defs[m].name for m in sections]
        unproven = self.unproven
        hook = ("_hook" if any(unproven.args[n] or unproven.results[n] for n in names)
                else "_trace")
        self.lines.append(f"def {name}({', '.join(self.param_locals[k])}):")
        if self.jumps:
            self.lines.append(f"    _b = {k}")
        self.lines.append(f"    _p = {hook} and {self.enter(k, '[]')}")
        self.section(k, "    ")
        for m in sections[1:]:
            self.lines += [f"    if _b == {m}:", f"        if {hook}: {self.enter(m, '_p')}"]
            self.section(m, "        ")
        self.lines += [f"    return _leave(_p, _r) if {hook} else _r", ""]

    def generate(self) -> list[str]:
        """The source, one function per region but the deferred, in pieces
        of whole functions, each at most _PIECE_LINES long unless one
        function is longer."""
        pieces = []
        for k, sections in self.regions.items():
            if k in self.deferred:
                continue
            before = len(self.lines)
            self.function(self.fn_names[self.program.defs[k].name], sections)
            if before and len(self.lines) > _PIECE_LINES:
                pieces.append("\n".join(self.lines[:before]))
                del self.lines[:before]
        pieces.append("\n".join(self.lines))
        self.lines = []
        return pieces

    def entry(self, k: int) -> tuple[str, str]:
        """(name, source) of a function that runs definition k, a deferred
        root or a section of another definition's region, and what k's
        tail calls reach from there."""
        region = self.regions[self.root[k]]
        reached = {k}
        for m in region:
            if m < k and any(p in reached for p in self.callers[m]):
                reached.add(m)
        name = f"e{k}_{_sanitize(self.program.defs[k].name)}"
        self.function(name, [m for m in region if m in reached])
        source, self.lines = "\n".join(self.lines), []
        return name, source


# The names compiled code calls: the helper-template rows and the fused
# loads.  The stores and the hooks are bound per evaluator.
_NAMESPACE = {p.template: p.ref for p in PRIMS.values()
              if p.template and "{" not in p.template}
_NAMESPACE.update(_rd_n=st_mod.rd_n, _load=st_mod.load_word, _from_bytes=int.from_bytes,
                  _zero=st_mod.ZERO_PAGE, MachineState=MachineState)
_NAMESPACE.update((f"_unpack{n}", unpack) for n, unpack in UNPACK.items())
_NAMESPACE.update((f"_pack{n}", pack) for n, pack in PACK.items())


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    values: tuple          # results without the trailing state
    state: MachineState
    iterations: int        # loop iterations executed, summed over all whiles
    per_while: dict[str, int]


def _state_text(v) -> str:
    if isinstance(v, MachineState):
        return (f"(st retval={decimal(v.retval)} stack={v.stack:#x} frame={v.frame:#x} "
                f"mem/{len(v.mem)})")
    return decimal(v)


class _Hooks:
    """What the emitted hook lines call in a checked or traced run: the
    entry and the exits of definitions, with their trace lines and
    signature checks, a fused loop's trace lines and the report of a
    check that failed inside it, and budget exhaustion.
    `ProgramEvaluator.run` sets the mode fields before each run."""

    def __init__(self, program: FunProgram, gen: _Codegen):
        self.defs = program.defs
        self.param_locals = gen.param_locals
        self.unproven_args = [program.unproven.args[d.name] for d in program.defs]
        self.unproven_results = [program.unproven.results[d.name] for d in program.defs]
        self.param_kinds = [[kind for _, kind in d.params] for d in program.defs]
        self.checking = self.trace = False
        self.out: io.TextIOBase | None = None

    def show(self, arrow: str, k: int, values):
        print(f"{arrow} {self.defs[k].name} " + " ".join(_state_text(v) for v in values),
              file=self.out)

    def enter(self, k: int, path: list, *values) -> list:
        """A hooked run enters definition k, at the top of its function or
        of its section in a region's function.  k joins the path whose
        exits the function's return runs; a traced run shows k's
        arguments, and a checked run checks values, the arguments at k's
        unproven positions.  The arguments a trace shows are read from the
        caller's frame, where k's parameters are the locals
        `param_locals[k]`."""
        path.append(k)
        if self.trace:
            frame_locals = sys._getframe(1).f_locals
            self.show("->", k, [frame_locals[n] for n in self.param_locals[k]])
        if values and self.checking:
            self.check(k, values, "argument", self.unproven_args[k])
        return path

    def leave(self, path: list, out):
        """The exits of the definitions a function ran, innermost first:
        each passed out on as its result, so each checks its unproven
        results and traces it as its own return did."""
        for k in reversed(path):
            unproven = self.unproven_results[k]
            if unproven and self.checking:
                values = (out,) if len(self.defs[k].result_kinds) == 1 else out
                self.check(k, [values[i] for i in unproven], "result", unproven)
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

    def check(self, k: int, values, what: str, positions=None):
        """Raise the SignatureViolation of the first value that fails its
        kind; values are at positions, by default all of them in order.
        A fused loop's failed inline check calls it as `_bad` on the step k's
        frame; `Kind.check` evaluates the same `Kind.test`, so it raises."""
        d = self.defs[k]
        kinds = d.result_kinds if what == "result" else self.param_kinds[k]
        for i, value in zip(range(len(kinds)) if positions is None else positions, values):
            if not KINDS[kinds[i]].check(value):
                raise SignatureViolation(
                    f"{d.name}: {what} {i + 1} fails {kinds[i]} "
                    f"(got {_state_text(value)})", context=f"def {d.name}")

    def next_stop(self, k: int, count: int, limit: int) -> int:
        """A loop's count passed its stop (`_Codegen.loop`) at the top of
        an iteration of while def k: raise if it passed the budget, else
        return the next stop, the limit itself, since a first stop below
        the limit is `_COMPACT - 1` and the count is past it for good."""
        if count > limit:
            raise BudgetExhausted(f"step budget of {limit} exhausted in {self.defs[k].name}")
        return limit


class ProgramEvaluator:
    """The compiled form of one program.

    `__init__` generates one Python source for the whole program, compiles
    it and executes it into the evaluator's namespace, once: in pieces of
    whole functions, each at most about `_PIECE_LINES` lines, as each
    region's function is (`_region_roots`), so no one `compile` holds
    more than about a piece.  `run` sets
    the run mode (checking, budget, trace) in that namespace and calls the
    entry; every mode runs the same compiled functions.  `regions` names,
    for each compiled function, the definitions it runs: its root first.
    `checks` counts the signature checks, one per argument and result
    position of each definition: those the loader proved, and those
    compiled into the source (`FunProgram.unproven`).
    The program's loops are its `cliques`, its call sites its `calls` and
    its open checks its `unproven`, which `validate_program` sets; `__init__`
    runs it on a program the loader did not read, so a bad one is a LoadError.

    Programs are immutable and freely shareable, and so are states outside
    a run.  An evaluator, however, owns mutable iteration counters and the
    memory of the run in progress (`state.RunMemory`), so one instance
    serves one execution at a time.  Parallel runs want separate instances.
    """

    @collector_paused()
    def __init__(self, program: FunProgram):
        if program.calls is None:
            validate_program(program)
        self.program = program
        self._gen = gen = _Codegen(program)
        pieces = gen.generate()
        self.source = "\n".join(pieces)
        self._index = gen.index
        defs = program.defs
        self.regions = {defs[k].name: tuple(defs[m].name for m in sections)
                        for k, sections in gen.regions.items()}
        unproven = program.unproven
        compiled = sum(len(unproven.args[d.name]) + len(unproven.results[d.name]) for d in defs)
        self.checks = {"proven": sum(len(d.params) + len(d.result_kinds) for d in defs)
                       - compiled, "compiled": compiled}
        self._hooks = hooks = _Hooks(program, gen)
        memory = st_mod.RunMemory()
        self._ns = dict(_NAMESPACE, _memory=memory, _store_word=memory.store_word,
                        _storebytes=memory.storebytes, _own=memory.own, _enter=hooks.enter,
                        _leave=hooks.leave, _show=hooks.show, _bad=hooks.check,
                        _next_stop=hooks.next_stop,
                        _it=[0], _per_while={}, _hook=False, _checking=False,
                        _trace=False, _limit=_NO_LIMIT, _first_stop=_COMPACT - 1)
        # compile's memory grows with the text compiled at once, so the pieces
        # are compiled one by one, each at its line numbers in the source
        self._filename, line = f"<ll2fun:{id(program):#x}>", 0
        for piece in pieces:
            exec(compile("\n" * line + piece, self._filename, "exec"), self._ns)  # noqa: S102
            line += piece.count("\n") + 1
        self._entries = {k: self._ns[gen.fn_names[defs[k].name]] for k in gen.regions
                         if k not in gen.deferred}
        self.trace_out: io.TextIOBase | None = None

    def _entry(self, k: int):
        """The function that runs definition k as a run's entry.  A deferred
        step, or a section of another definition's region, gets its own,
        compiled on first use."""
        fn = self._entries.get(k)
        if fn is None:
            name, source = self._gen.entry(k)
            scope: dict = {}
            exec(compile(source, f"{self._filename}:{name}", "exec"), self._ns, scope)  # noqa: S102
            fn = self._entries[k] = scope[name]
        return fn

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
        ns, hooks, k = self._ns, self._hooks, self._index[name]
        hooks.checking, hooks.trace, hooks.out = checking, trace, self.trace_out
        memory = ns["_memory"]
        limit = _NO_LIMIT if budget is None else budget
        ns.update(_hook=checking or trace, _checking=checking, _trace=trace, _limit=limit,
                  _first_stop=min(limit, _COMPACT - 1), _own=memory.start(trace))
        it, per_while = ns["_it"], ns["_per_while"]
        it[0] = 0
        per_while.clear()
        try:
            if checking:
                hooks.admit(k, (*args, st))
            out = self._entry(k)(*args, st)
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
            ns["_own"] = memory.start(False)
        results = out if isinstance(out, tuple) else (out,)
        final = results[-1]
        if not isinstance(final, MachineState):
            raise EvalFault(f"{name} did not return a machine state last")
        return RunResult(results[:-1], final, it[0], dict(per_while))


def eval_def(program: FunProgram, name: str, args: tuple, st: MachineState, *,
             checking: bool = True, budget: int | None = None,
             trace: bool = False) -> tuple[tuple, MachineState]:
    """Compile program and run one definition; returns (value results,
    final state).  Callers that run one program often build one
    `ProgramEvaluator` instead."""
    res = ProgramEvaluator(program).run(name, tuple(args), st, checking=checking,
                                        budget=budget, trace=trace)
    return res.values, res.state

