"""Seeded workload generators for the ll2fun benchmark.

Each generator returns a `Workload`: the `.ll` text handed to the program
under test, the entry's arguments, the initial memory (a byte dict and/or
memory-image text) and the expected final state.  The expected state is
computed here, by code that shares nothing with `ll2fun`: closed forms for
`scan` and `store`, and a small model of the LLVM subset that `wide`
executes while it generates the function.

Sizes are fixed per workload so that run-to-run spread comes from the
machine, not from the seed; the seed only chooses values (`wide` takes
its shape from a fixed seed, see `_WideGen`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OCCURRENCES_LL = ROOT / "tests" / "fixtures" / "occurrences.ll"

STACK = 0xFFFF0000     # the CLI's default stack and frame pointer
ARRAY = 0x10000        # base address of every workload's data
GUARD_WORDS = 64       # image words past the region a loop may touch

SCAN_WORDS = 250_000
STORE_WORDS = 8192
WIDE_DIAMONDS = 267    # 1 + 3 * 267 = 802 blocks

MASK64 = (1 << 64) - 1


@dataclass
class Workload:
    name: str
    ll_text: str
    entry: str
    args: tuple[int, ...]
    mem: dict[int, int]          # initial memory passed as a dict, or
    image_text: str              # initial memory passed as image text
    expected_retval: int
    expected_mem: dict[int, int]
    loop_iterations: int         # loop iterations the entry must run
    region: tuple[int, int]      # (base, words) of the data the entry touches
    size: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Little-endian byte memory, written independently of ll2fun.state
# ---------------------------------------------------------------------------

def put_word(mem: dict[int, int], addr: int, nbytes: int, value: int):
    """Store `value` as `nbytes` little-endian bytes, keeping zero bytes out
    of the map (the canonical form ll2fun's memory uses)."""
    for k in range(nbytes):
        b = (value >> (8 * k)) & 0xFF
        if b:
            mem[addr + k] = b
        else:
            mem.pop(addr + k, None)


def get_word(mem: dict[int, int], addr: int, nbytes: int) -> int:
    return sum(mem.get(addr + k, 0) << (8 * k) for k in range(nbytes))


def dense_word(rng: random.Random) -> int:
    """A 64-bit word with no zero byte, so every word populates 8 entries
    and memory size does not depend on the seed."""
    return sum(rng.randrange(1, 256) << (8 * k) for k in range(8))


def image_lines(words: list[tuple[int, int]]) -> str:
    return "".join(f"w 8 {addr:#x} {value}\n" for addr, value in words)


# ---------------------------------------------------------------------------
# scan: the shipped occurrences loop over a large read-only array
# ---------------------------------------------------------------------------

def gen_scan(seed: int, words: int = SCAN_WORDS) -> Workload:
    rng = random.Random(f"scan-{seed}")
    pool = [dense_word(rng) for _ in range(4)]
    val = rng.choice(pool)
    pool_bytes = {v: [(v >> (8 * k)) & 0xFF for k in range(8)] for v in pool}
    mem: dict[int, int] = {}
    matches = 0
    for j in range(words):
        v = rng.choice(pool)
        matches += v == val
        base = ARRAY + 8 * j
        for k, b in enumerate(pool_bytes[v]):
            mem[base + k] = b
    # Guard words equal to `val` right after the array: a loop that ran
    # past n would count them.
    for k in range(GUARD_WORDS):
        put_word(mem, ARRAY + 8 * (words + k), 8, val)
    return Workload(
        name="scan", ll_text=OCCURRENCES_LL.read_text(encoding="utf-8"),
        entry="occurrences", args=(val, words, ARRAY), mem=mem,
        image_text="", expected_retval=matches,
        expected_mem=mem, loop_iterations=words,
        region=(ARRAY, words), size={"words": words, "matches": matches})


# ---------------------------------------------------------------------------
# store: a fill loop p[j] = j + 1 over a region preset from a memory image
# ---------------------------------------------------------------------------

FILL_LL = """\
; p[j] = j + 1 for j in [0, n); returns the sum of the stored values
define i64 @fill(i64* %p, i32 %n) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:                                             ; preds = %loop, %0
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %slot = getelementptr inbounds i64* %p, i64 %j
  %j.next = add i64 %j, 1
  store i64 %j.next, i64* %slot, align 8
  %acc.next = add i64 %acc, %j.next
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:                                             ; preds = %loop, %0
  %sum = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %sum
}
"""


def gen_store(seed: int, words: int = STORE_WORDS) -> Workload:
    rng = random.Random(f"store-{seed}")
    # One non-zero byte per word: memory size is seed-independent and the
    # region costs what an 8k-line image costs.
    preset = [(ARRAY + 8 * j, rng.randrange(1, 256)) for j in range(words + GUARD_WORDS)]
    expected: dict[int, int] = {}
    for addr, value in preset:
        put_word(expected, addr, 8, value)
    for j in range(words):
        put_word(expected, ARRAY + 8 * j, 8, j + 1)
    return Workload(
        name="store", ll_text=FILL_LL, entry="fill", args=(ARRAY, words),
        mem={}, image_text=image_lines(preset),
        expected_retval=(words * (words + 1) // 2) & MASK64,
        expected_mem=expected, loop_iterations=words,
        region=(ARRAY, words), size={"words": words, "image_lines": len(preset)})


# ---------------------------------------------------------------------------
# wide: a long acyclic chain of diamonds, executed while it is generated
# ---------------------------------------------------------------------------

WIDTHS = (8, 16, 32, 64)
BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
PREDS = ("eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle")
WIDE_WINDOW = 64          # 64-bit words reachable from %array
HEAD_OPS = 2              # instructions per head/join block before the branch
ARM_OPS = 2               # instructions per diamond arm
PHIS = 2                  # phis per join
RECENT = 16               # operands come from the latest registers of their width


def _signed(x: int, w: int) -> int:
    return x - (1 << w) if x >> (w - 1) else x


def _binop(op: str, w: int, a: int, b: int) -> int:
    m = (1 << w) - 1
    if op == "add":
        return (a + b) & m
    if op == "sub":
        return (a - b) & m
    if op == "mul":
        return (a * b) & m
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if b >= w:          # the functional form defines over-wide shifts as 0
        return 0
    if op == "shl":
        return (a << b) & m
    if op == "lshr":
        return a >> b
    return (_signed(a, w) >> b) & m  # ashr


def _icmp(pred: str, w: int, a: int, b: int) -> int:
    if pred[0] == "s":
        a, b = _signed(a, w), _signed(b, w)
    return int({"eq": a == b, "ne": a != b,
                "ugt": a > b, "uge": a >= b, "ult": a < b, "ule": a <= b,
                "sgt": a > b, "sge": a >= b, "slt": a < b, "sle": a <= b}[pred])


class _WideGen:
    """Emits instructions into the current block and, when the block is on
    the executed path, evaluates them on a model register file and memory.

    Two generators drive it: `rng` picks the shape (operations, widths,
    which registers feed which operands), `values` picks every constant.
    The shape comes from a fixed seed, so the amount of work in parsing,
    analysis, translation and execution does not depend on `--seed`; the
    seed changes the values, and with them the branches taken."""

    def __init__(self, rng: random.Random, values: random.Random,
                 mem: dict[int, int], args: dict[str, int]):
        self.rng = rng
        self.vals = values
        self.mem = mem
        self.values: dict[str, int] = dict(args)
        self.pool: dict[int, list[str]] = {w: [] for w in (1,) + WIDTHS}
        self.n = 0
        self.lines: list[str] = []
        self.live = True  # is the current block on the executed path?

    def fresh(self) -> str:
        self.n += 1
        return f"%r{self.n}"

    def define(self, reg: str, w: int, value):
        self.pool[w].append(reg)
        if self.live:
            self.values[reg] = value()

    def operand(self, w: int) -> tuple[str, object]:
        """(text, thunk) for a register or constant of width w."""
        pool = self.pool[w]
        if pool and self.rng.random() < 0.75:
            reg = self.rng.choice(pool[-RECENT:])
            return reg, lambda: self.values[reg]
        v = self.vals.getrandbits(w) if self.vals.random() < 0.7 else \
            self.vals.choice((0, 1, 2, (1 << w) - 1)) & ((1 << w) - 1)
        return str(v), lambda: v

    def emit(self, line: str):
        self.lines.append("  " + line)

    def random_op(self):
        rng = self.rng
        kind = rng.random()
        r = self.fresh()
        if kind < 0.45:
            w, op = rng.choice(WIDTHS), rng.choice(BINOPS)
            (a, va), (b, vb) = self.operand(w), self.operand(w)
            self.emit(f"{r} = {op} i{w} {a}, {b}")
            self.define(r, w, lambda: _binop(op, w, va(), vb()))
        elif kind < 0.60:
            w, pred = rng.choice(WIDTHS), rng.choice(PREDS)
            (a, va), (b, vb) = self.operand(w), self.operand(w)
            self.emit(f"{r} = icmp {pred} i{w} {a}, {b}")
            self.define(r, 1, lambda: _icmp(pred, w, va(), vb()))
        elif kind < 0.75:
            frm, to = sorted(rng.sample((1,) + WIDTHS, 2))
            op = rng.choice(("zext", "sext", "trunc"))
            if op == "trunc":
                a, va = self.operand(to)
                self.emit(f"{r} = trunc i{to} {a} to i{frm}")
                self.define(r, frm, lambda: va() & ((1 << frm) - 1))
            else:
                a, va = self.operand(frm)
                self.emit(f"{r} = {op} i{frm} {a} to i{to}")
                if op == "zext":
                    self.define(r, to, va)
                else:
                    self.define(r, to, lambda: _signed(va(), frm) & ((1 << to) - 1))
        elif kind < 0.85:
            w = rng.choice(WIDTHS)
            (c, vc), (a, va), (b, vb) = self.operand(1), self.operand(w), self.operand(w)
            self.emit(f"{r} = select i1 {c}, i{w} {a}, i{w} {b}")
            self.define(r, w, lambda: va() if vc() else vb())
        else:
            w = rng.choice(WIDTHS)
            nbytes = w // 8
            idx = rng.randrange(WIDE_WINDOW * 8 // nbytes)
            addr = ARRAY + idx * nbytes
            self.emit(f"{r} = getelementptr i{w}* %array, i64 {idx}")
            if kind < 0.95:
                v = self.fresh()
                self.emit(f"{v} = load i{w}* {r}")
                self.define(v, w, lambda: get_word(self.mem, addr, nbytes))
            else:
                a, va = self.operand(w)
                self.emit(f"store i{w} {a}, i{w}* {r}")
                if self.live:
                    put_word(self.mem, addr, nbytes, va())

    def ops(self, count: int):
        for _ in range(count):
            self.random_op()


def gen_wide(seed: int, diamonds: int = WIDE_DIAMONDS) -> Workload:
    rng, values = random.Random("wide-shape"), random.Random(f"wide-{seed}")
    preset = [(ARRAY + 8 * j, values.getrandbits(64)) for j in range(WIDE_WINDOW)]
    mem: dict[int, int] = {}
    for addr, value in preset:
        put_word(mem, addr, 8, value)
    val, n = values.getrandbits(64), values.getrandbits(32)
    g = _WideGen(rng, values, mem, {"%val": val, "%n": n})
    g.pool[64].append("%val")
    g.pool[32].append("%n")

    blocks: list[str] = []
    g.ops(HEAD_OPS)
    for k in range(1, diamonds + 1):
        w = rng.choice(WIDTHS)
        (a, va), (b, vb) = g.operand(w), g.operand(w)
        cond = g.fresh()
        pred = rng.choice(PREDS)
        g.emit(f"{cond} = icmp {pred} i{w} {a}, {b}")
        taken_left = bool(_icmp(pred, w, va(), vb()))
        g.emit(f"br i1 {cond}, label %L{k}, label %R{k}")
        blocks.append(("" if k == 1 else f"J{k - 1}:\n") + "\n".join(g.lines))

        shared = {width: list(p) for width, p in g.pool.items()}
        phi_widths = [rng.choice(WIDTHS) for _ in range(PHIS)]
        incoming = []
        for arm, live in (("L", taken_left), ("R", not taken_left)):
            g.pool = {width: list(p) for width, p in shared.items()}
            g.lines, g.live = [], live
            g.ops(ARM_OPS)
            outs = [g.operand(pw) for pw in phi_widths]
            incoming.append(outs)
            if live:
                phi_values = [thunk() for _, thunk in outs]
            g.emit(f"br label %J{k}")
            blocks.append(f"{arm}{k}:\n" + "\n".join(g.lines))

        g.pool = shared
        g.lines, g.live = [], True
        for i, pw in enumerate(phi_widths):
            r = g.fresh()
            g.emit(f"{r} = phi i{pw} [ {incoming[0][i][0]}, %L{k} ], "
                   f"[ {incoming[1][i][0]}, %R{k} ]")
            g.define(r, pw, lambda v=phi_values[i]: v)
        g.ops(HEAD_OPS)

    ret, vret = g.operand(64)
    g.emit(f"ret i64 {ret}")
    blocks.append(f"J{diamonds}:\n" + "\n".join(g.lines))
    text = ("define i64 @wide(i64 %val, i32 %n, i64* %array) {\n"
            + "\n\n".join(blocks) + "\n}\n")
    return Workload(
        name="wide", ll_text=text, entry="wide", args=(val, n, ARRAY), mem={},
        image_text=image_lines(preset), expected_retval=vret(),
        expected_mem=g.mem, loop_iterations=0,
        region=(ARRAY, WIDE_WINDOW), size={"diamonds": diamonds, "blocks": 1 + 3 * diamonds})


GENERATORS = {"scan": gen_scan, "store": gen_store, "wide": gen_wide}
FULL_SIZE = {"scan": SCAN_WORDS, "store": STORE_WORDS, "wide": WIDE_DIAMONDS}


def generate(name: str, seed: int, half: bool = False) -> Workload:
    """The named workload at full size, or at half size for the traced
    run's doubling ratios."""
    size = FULL_SIZE[name]
    return GENERATORS[name](seed, size // 2 if half else size)
