"""The vocabulary of the functional form: value kinds and primitives.

`KINDS` maps each kind to its signature predicate and the sort and bound
its dynamic check derives from.  Every value is of one sort: a natural,
the machine state, or a byte run; the kinds other than the state refine
the natural sort.  The loader checks sorts and proves the kind checks it
can (see the bound rules below); the dynamic signature checks the rest.

`PRIMS` has one row per primitive: argument names in source order (an
argument named `st` takes the state, one named `run` a byte run, every
other a natural), the domain of each static (constant) argument, the
codegen template, the reference function, the sort of the result, for a
natural result its bound rule (see "Bound rules" below), and whether it
is total: raises for no integer operand, which lets the code generator
drop an application whose value nothing reads.  A
template is a format string over the arguments or the name of a helper,
which is the row's reference function; `bits` has none because the code
generator inlines its mask.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from typing import Callable

from .errors import EvalFault
from . import state as st_mod
from .state import MachineState


NAT, STATE, RUN = "natural", "state", "byte run"  # the sorts
_PARAM_SORTS = {"st": STATE, "run": RUN}


@dataclass(frozen=True)
class Kind:
    """A value kind: the machine state, or the naturals below `bound`
    (every natural when it is None).  The dynamic signature check derives
    from these fields: `test` for compiled code, `check` for the
    evaluator's hooks."""

    predicate: str            # the name used in signature declarations
    sort: str = NAT
    bound: int | None = None

    @cached_property
    def test(self) -> str:
        """The check as a Python expression over {0}."""
        if self.sort == STATE:
            return "isinstance({0}, MachineState)"
        below = "" if self.bound is None else f" < {self.bound}"
        return "isinstance({0}, int) and 0 <= {0}" + below

    @cached_property
    def check(self) -> Callable[[object], bool]:
        """`test` as a function of one value."""
        return eval(f"lambda v: {self.test.format('v')}",  # noqa: S307
                    {"MachineState": MachineState})


KINDS = {
    "i1": Kind("i1_p", bound=1 << 1),
    "i8": Kind("i8_p", bound=1 << 8),
    "i16": Kind("i16_p", bound=1 << 16),
    "i32": Kind("i32_p", bound=1 << 32),
    "i64": Kind("i64_p", bound=1 << 64),
    "addr": Kind("addr_p", bound=1 << 32),
    "nat": Kind("natp"),
    "state": Kind("stp", STATE),
}


def decimal(n: int) -> str:
    """n in decimal, however many digits.  `str` refuses an int past
    `sys.get_int_max_str_digits()` digits, a limit left on for the readers
    of input; `Decimal` converts and prints without it."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


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
        raise EvalFault(f"shl: negative shift count {decimal(b)}")
    return (a << b) & ((1 << w) - 1) if b < w else 0


def lshr(w: int, a: int, b: int) -> int:
    if b < 0:
        raise EvalFault(f"lshr: negative shift count {decimal(b)}")
    return a >> b if b < w else 0


def ashr(w: int, a: int, b: int) -> int:
    if b < 0:
        raise EvalFault(f"ashr: negative shift count {decimal(b)}")
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
    bound: Callable | None = None  # the bound rule of a natural result
    # total while the arguments at these positions are natural constants
    # (a shift's count); None where some integer operand may raise
    total: tuple[int, ...] | None = None

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
         cond: str | None = None, result: str = NAT, bound: Callable | None = None,
         total: tuple[int, ...] | None = None, **domains) -> tuple[str, Primitive]:
    return name, Primitive(name, tuple(params.split()), template, ref, domains, cond,
                           result, bound, total)


# Bound rules.  A fact about a natural-sort value is an exclusive bound on
# it, which makes it a natural (`math.inf` when any natural), or None when
# the value may be any integer; a constant's fact is its value + 1, so a
# static argument's value is its fact - 1.  A row's rule maps the facts of
# its arguments, in source order, to the fact of its result.

def _bit(*_) -> int:
    return 2


def _width(w, *_) -> int:
    return 1 << (w - 1)


def _sum(a, b):
    return None if a is None or b is None else a + b


def _product(a, b):
    return None if a is None or b is None else a * b


def _smaller(a, b):
    """a & b is at most its natural side."""
    return b if a is None else a if b is None else min(a, b)


def _power_of_two(a, b):
    """a | b and a ^ b have no bit above the larger side's top bit."""
    if a is None or b is None:
        return None
    top = max(a, b)
    return top if top == math.inf else 1 << (top - 1).bit_length()


def _compare(name: str, pyop: str, test: Callable[[int, int], bool]):
    cond = f"{{0}} {pyop} {{1}}"
    return _row(name, "a b", f"(1 if {cond} else 0)",
                lambda a, b: 1 if test(a, b) else 0, cond=cond, bound=_bit, total=())


def _signed_compare(name: str, test: Callable[[int, int], bool]):
    return _row(name, "w a b", f"_{name}",
                lambda w, a, b: 1 if test(to_signed(a, w), to_signed(b, w)) else 0,
                bound=_bit, total=(), w=WIDTH)


PRIMS: dict[str, Primitive] = dict([
    _row("bits", "x h l", None, bits, bound=lambda x, h, l: 1 << (h - l + 1), total=(),
         h=(0, 63), l=(0, "h")),
    _row("+", "a b", "({0} + {1})", operator.add, bound=_sum, total=()),
    _row("-", "a b", "({0} - {1})", operator.sub, total=()),
    _row("*", "a b", "({0} * {1})", operator.mul, bound=_product, total=()),
    _row("logand", "a b", "({0} & {1})", operator.and_, bound=_smaller, total=()),
    _row("logior", "a b", "({0} | {1})", operator.or_, bound=_power_of_two, total=()),
    _row("logxor", "a b", "({0} ^ {1})", operator.xor, bound=_power_of_two, total=()),
    _row("shl", "w a b", "_shl", shl, bound=_width, total=(2,), w=WIDTH),
    _row("lshr", "w a b", "_lshr", lshr, bound=lambda w, a, b: a, total=(2,), w=WIDTH),
    _row("ashr", "w a b", "_ashr", ashr, bound=_width, total=(2,), w=WIDTH),
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
    _row("sext", "f t x", "_sext", sext, bound=lambda f, t, x: 1 << (t - 1), total=(),
         f=WIDTH, t=WIDTH),
    _row("update-retval", "v st", "_update_retval", st_mod.update_retval, result=STATE),
    _row("retval", "st", "{0}.retval", operator.attrgetter("retval"), total=()),
    _row("init-stack-frame", "st", "{0}", st_mod.init_stack_frame, result=STATE),
    _row("begin-stack-frame", "st", "_begin", st_mod.begin_stack_frame, result=STATE),
    _row("end-stack-frame", "st", "_end", st_mod.end_stack_frame, result=STATE),
    _row("alloca", "n st", "_alloca", st_mod.alloca, n=NATURAL, result=STATE),
    _row("stack", "st", "{0}.stack", operator.attrgetter("stack"), total=()),
    _row("loadbytes", "n a st", "_loadbytes", st_mod.loadbytes, n=BYTES, result=RUN),
    _row("wfrombytes", "n run", "_wfrombytes", st_mod.wfrombytes,
         bound=lambda n, run: 1 << 8 * (n - 1), n=BYTES),
    _row("storebytes", "n a run st", "_storebytes", st_mod.storebytes, n=BYTES, result=STATE),
    _row("wtobytes", "n v", "_wtobytes", st_mod.wtobytes, n=BYTES, result=RUN),
])
