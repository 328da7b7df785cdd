"""The vocabulary of the functional form: value kinds and primitives.

`KINDS` maps each kind to its signature predicate and dynamic check.
Every value is of one sort: a natural, the machine state, or a byte run;
the kinds other than the state refine the natural sort.  The loader
checks sorts, the dynamic signature checks kinds.

`PRIMS` has one row per primitive: argument names in source order (an
argument named `st` takes the state, one named `run` a byte run, every
other a natural), the domain of each static (constant) argument, the
codegen template, the reference function, and the sort of the result.  A
template is a format string over the arguments or the name of a helper,
which is the row's reference function; `bits` has none because the code
generator inlines its mask.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .errors import EvalFault
from . import state as st_mod
from .state import MachineState


@dataclass(frozen=True)
class Kind:
    predicate: str                   # the name used in signature declarations
    check: Callable[[object], bool]  # the dynamic signature check


NAT, STATE, RUN = "natural", "state", "byte run"  # the sorts
_PARAM_SORTS = {"st": STATE, "run": RUN}


def _naturals_below(bound: int) -> Callable[[object], bool]:
    return lambda v: isinstance(v, int) and 0 <= v < bound


KINDS = {
    "i1": Kind("i1_p", _naturals_below(1 << 1)),
    "i8": Kind("i8_p", _naturals_below(1 << 8)),
    "i16": Kind("i16_p", _naturals_below(1 << 16)),
    "i32": Kind("i32_p", _naturals_below(1 << 32)),
    "i64": Kind("i64_p", _naturals_below(1 << 64)),
    "addr": Kind("addr_p", _naturals_below(1 << 32)),
    "nat": Kind("natp", lambda v: isinstance(v, int) and 0 <= v),
    "state": Kind("stp", lambda v: isinstance(v, MachineState)),
}
SORT_OF_KIND = {kind: STATE if kind == "state" else NAT for kind in KINDS}


def bits(x: int, h: int, l: int) -> int:
    """floor(x / 2^l) mod 2^(h-l+1): the bit slice [h..l], total on integers."""
    if h < l or l < 0:
        raise EvalFault(f"bits: bad indices h={h}, l={l}")
    return (x >> l) & ((1 << (h - l + 1)) - 1)


def to_signed(x: int, w: int) -> int:
    """Two's-complement reading of a w-bit natural."""
    return x - ((x >> (w - 1)) << w)


def shl(w: int, a: int, b: int) -> int:
    if b < 0:
        raise EvalFault(f"shl: negative shift count {b}")
    return (a << b) & ((1 << w) - 1) if b < w else 0


def lshr(w: int, a: int, b: int) -> int:
    if b < 0:
        raise EvalFault(f"lshr: negative shift count {b}")
    return a >> b if b < w else 0


def ashr(w: int, a: int, b: int) -> int:
    if b < 0:
        raise EvalFault(f"ashr: negative shift count {b}")
    if b >= w:
        return 0
    return (to_signed(a, w) >> b) & ((1 << w) - 1)


def sext(from_w: int, to_w: int, x: int) -> int:
    return to_signed(x, from_w) & ((1 << to_w) - 1)


# Static domains: (lowest, highest).  A highest of None is unbounded; a
# string names an earlier static argument whose value bounds this one.
WIDTH = (1, 64)
BYTES = (1, 8)
NATURAL = (0, None)


@dataclass(frozen=True)
class Primitive:
    name: str
    params: tuple[str, ...]     # argument names in source order
    template: str | None        # format string or helper name (see module doc)
    ref: Callable               # reference semantics over the arguments
    domains: dict[str, tuple[int, int | str | None]] = field(default_factory=dict)
    cond: str | None = None     # condition-position format string (compares)
    result: str = NAT           # sort of the result

    @cached_property
    def sorts(self) -> tuple[str, ...]:
        """The sort each argument must have, in source order."""
        return tuple(_PARAM_SORTS.get(p, NAT) for p in self.params)

    def static_error(self, args) -> str | None:
        """Why `args` (each an int where the argument is a constant, None
        elsewhere) break the static domains; None when they fit."""
        for name, (lo, hi) in self.domains.items():
            k = self.params.index(name)
            v = args[k]
            if v is None:
                return f"needs a constant in position {k}"
            top = args[self.params.index(hi)] if isinstance(hi, str) else hi
            if v < lo or (top is not None and v > top):
                return f"{name} = {v} is outside {lo}..{'' if hi is None else hi}"
        return None


def _row(name: str, params: str, template: str | None, ref: Callable,
         cond: str | None = None, result: str = NAT, **domains) -> tuple[str, Primitive]:
    return name, Primitive(name, tuple(params.split()), template, ref, domains, cond,
                           result)


def _compare(name: str, pyop: str, test: Callable[[int, int], bool]):
    cond = f"{{0}} {pyop} {{1}}"
    return _row(name, "a b", f"(1 if {cond} else 0)",
                lambda a, b: 1 if test(a, b) else 0, cond=cond)


def _signed_compare(name: str, test: Callable[[int, int], bool]):
    return _row(name, "w a b", f"_{name}",
                lambda w, a, b: 1 if test(to_signed(a, w), to_signed(b, w)) else 0,
                w=WIDTH)


PRIMS: dict[str, Primitive] = dict([
    _row("bits", "x h l", None, bits, h=(0, 63), l=(0, "h")),
    _row("+", "a b", "({0} + {1})", operator.add),
    _row("-", "a b", "({0} - {1})", operator.sub),
    _row("*", "a b", "({0} * {1})", operator.mul),
    _row("logand", "a b", "({0} & {1})", operator.and_),
    _row("logior", "a b", "({0} | {1})", operator.or_),
    _row("logxor", "a b", "({0} ^ {1})", operator.xor),
    _row("shl", "w a b", "_shl", shl, w=WIDTH),
    _row("lshr", "w a b", "_lshr", lshr, w=WIDTH),
    _row("ashr", "w a b", "_ashr", ashr, w=WIDTH),
    _compare("=", "==", operator.eq),
    _compare("/=", "!=", operator.ne),
    _compare("<", "<", operator.lt),
    _compare("<=", "<=", operator.le),
    _compare(">", ">", operator.gt),
    _compare(">=", ">=", operator.ge),
    _signed_compare("slt", operator.lt),
    _signed_compare("sle", operator.le),
    _signed_compare("sgt", operator.gt),
    _signed_compare("sge", operator.ge),
    _row("sext", "f t x", "_sext", sext, f=WIDTH, t=WIDTH),
    _row("update-retval", "v st", "_update_retval", st_mod.update_retval, result=STATE),
    _row("retval", "st", "{0}.retval", operator.attrgetter("retval")),
    _row("init-stack-frame", "st", "{0}", st_mod.init_stack_frame, result=STATE),
    _row("begin-stack-frame", "st", "_begin", st_mod.begin_stack_frame, result=STATE),
    _row("end-stack-frame", "st", "_end", st_mod.end_stack_frame, result=STATE),
    _row("alloca", "n st", "_alloca", st_mod.alloca, n=NATURAL, result=STATE),
    _row("stack", "st", "{0}.stack", operator.attrgetter("stack")),
    _row("loadbytes", "n a st", "_loadbytes", st_mod.loadbytes, n=BYTES, result=RUN),
    _row("wfrombytes", "n run", "_wfrombytes", st_mod.wfrombytes, n=BYTES),
    _row("storebytes", "n a run st", "_storebytes", st_mod.storebytes, n=BYTES, result=STATE),
    _row("wtobytes", "n v", "_wtobytes", st_mod.wtobytes, n=BYTES, result=RUN),
])
