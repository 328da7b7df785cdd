"""Random generator of supported-subset LLVM functions for differential
testing: straight-line code, acyclic diamonds with phis, and guarded or
counted do-while loops shaped like rotated clang output; plus long chains
of diamonds and of loops, loops with many live-outs and joins with many
predecessors for the scaling tests; and random control-flow graphs for
the loop rules.

Everything is emitted as .ll text so each trial also exercises the lexer
and parser.  Memory operations stay inside a fixed window so the 32-bit
address precondition always holds.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterator

WIDTHS = (8, 16, 32, 64)
BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
PREDS = ("eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle")

ARRAY_BASE = 0x8000
ARRAY_WORDS = 64  # window of 64-bit slots reachable through gep


class _Fn:
    """Accumulates instructions while tracking registers by kind."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = 0
        self.lines: list[str] = []
        self.by_width: dict[int, list[str]] = {w: [] for w in (1,) + WIDTHS}
        self.addrs: list[str] = []

    def fresh(self) -> str:
        self.n += 1
        return f"%t{self.n}"

    def value(self, w: int) -> str:
        """A register of width w, or a constant."""
        pool = self.by_width[w]
        if pool and self.rng.random() < 0.7:
            return self.rng.choice(pool)
        if w == 1:
            return self.rng.choice(("true", "false", "0", "1"))
        if self.rng.random() < 0.3:
            return str(self.rng.choice((0, 1, 2, (1 << w) - 1)))
        v = self.rng.getrandbits(w)
        return str(v - (1 << w) if self.rng.random() < 0.2 else v)  # negatives too

    def define(self, reg: str, w: int):
        self.by_width[w].append(reg)

    def emit(self, line: str):
        self.lines.append("  " + line)

    # -- random instructions -------------------------------------------------

    def random_op(self):
        rng = self.rng
        kind = rng.random()
        if kind < 0.45:
            w = rng.choice(WIDTHS)
            op = rng.choice(BINOPS)
            r = self.fresh()
            self.emit(f"{r} = {op} i{w} {self.value(w)}, {self.value(w)}")
            self.define(r, w)
        elif kind < 0.60:
            w = rng.choice(WIDTHS)
            r = self.fresh()
            self.emit(f"{r} = icmp {rng.choice(PREDS)} i{w} "
                      f"{self.value(w)}, {self.value(w)}")
            self.define(r, 1)
        elif kind < 0.75:
            frm, to = sorted(rng.sample((1,) + WIDTHS, 2))
            r = self.fresh()
            if rng.random() < 0.5:
                self.emit(f"{r} = {rng.choice(('zext', 'sext'))} i{frm} "
                          f"{self.value(frm)} to i{to}")
                self.define(r, to)
            else:
                self.emit(f"{r} = trunc i{to} {self.value(to)} to i{frm}")
                self.define(r, frm)
        elif kind < 0.85:
            w = rng.choice(WIDTHS)
            r = self.fresh()
            self.emit(f"{r} = select i1 {self.value(1)}, i{w} {self.value(w)}, "
                      f"i{w} {self.value(w)}")
            self.define(r, w)
        elif kind < 0.95 and self.addrs:
            self.load_slot()
        elif self.addrs:
            self.store_slot()
        else:
            self.random_op()

    def slot_addr(self, w: int) -> str:
        """gep to a random in-window slot, element width w."""
        limit = ARRAY_WORDS * 8 // (w // 8)
        idx = self.rng.randrange(0, limit)
        iw = self.rng.choice((32, 64))
        r = self.fresh()
        self.emit(f"{r} = getelementptr i{w}* {self.rng.choice(self.addrs)}, "
                  f"i{iw} {idx}")
        return r

    def load_slot(self):
        w = self.rng.choice(WIDTHS)
        ptr = self.slot_addr(w)
        r = self.fresh()
        self.emit(f"{r} = load i{w}* {ptr}")
        self.define(r, w)

    def store_slot(self):
        w = self.rng.choice(WIDTHS)
        ptr = self.slot_addr(w)
        self.emit(f"store i{w} {self.value(w)}, i{w}* {ptr}")

    def i64_result(self) -> str:
        pool = self.by_width[64]
        if pool:
            return self.rng.choice(pool)
        r = self.fresh()
        self.emit(f"{r} = add i64 {self.value(64)}, 0")
        self.define(r, 64)
        return r


_HEADER = "define i64 @gen(i64 %val, i32 %n, i64* %array) {\n"


def gen_straightline(rng: random.Random) -> str:
    """One entry block: arithmetic, conversions, loads and stores, ret."""
    fn = _Fn(rng)
    fn.by_width[64].append("%val")
    fn.by_width[32].append("%n")
    fn.addrs.append("%array")
    for _ in range(rng.randrange(4, 24)):
        fn.random_op()
    ret = fn.i64_result()
    return _HEADER + "\n".join(fn.lines) + f"\n  ret i64 {ret}\n}}\n"


def gen_diamond(rng: random.Random) -> str:
    """entry -> (left | right) -> join, with phis at the join."""
    fn = _Fn(rng)
    fn.by_width[64].append("%val")
    fn.by_width[32].append("%n")
    fn.addrs.append("%array")
    for _ in range(rng.randrange(2, 8)):
        fn.random_op()
    cond = fn.value(1)
    head = list(fn.lines)
    shared_widths = {w: list(p) for w, p in fn.by_width.items()}
    shared_n = fn.n

    arms = []
    arm_results: list[list[str]] = []
    phi_widths = [rng.choice(WIDTHS) for _ in range(rng.randrange(1, 4))]
    for arm in ("left", "right"):
        fn.lines = []
        fn.by_width = {w: list(p) for w, p in shared_widths.items()}
        fn.n = shared_n + (1000 if arm == "right" else 0)
        for _ in range(rng.randrange(1, 8)):
            fn.random_op()
        results = []
        for w in phi_widths:
            results.append(fn.value(w))
        arms.append(fn.lines)
        arm_results.append(results)

    fn.lines = []
    fn.by_width = {w: list(p) for w, p in shared_widths.items()}
    fn.n = shared_n + 2000
    phis = []
    for k, w in enumerate(phi_widths):
        r = f"%m{k}"
        phis.append(f"  {r} = phi i{w} [ {arm_results[0][k]}, %left ], "
                    f"[ {arm_results[1][k]}, %right ]")
        fn.define(r, w)
    for _ in range(rng.randrange(1, 6)):
        fn.random_op()
    ret = fn.i64_result()

    return (_HEADER
            + "\n".join(head)
            + f"\n  br i1 {cond}, label %left, label %right\n\nleft:\n"
            + "\n".join(arms[0]) + "\n  br label %join\n\nright:\n"
            + "\n".join(arms[1]) + "\n  br label %join\n\njoin:\n"
            + "\n".join(phis + fn.lines) + f"\n  ret i64 {ret}\n}}\n")


def gen_loop(rng: random.Random) -> str:
    """A rotated do-while in the shape clang emits: either guarded by an
    n==0 test or entered unconditionally with a constant trip count."""
    guarded = rng.random() < 0.6
    trip_const = rng.randrange(1, ARRAY_WORDS + 1)
    entry_label = "%0"

    accs = []  # (phi name, width, initial value)
    for k in range(rng.randrange(1, 4)):
        w = rng.choice((32, 64))
        init = rng.choice(("%val" if w == 64 else str(rng.getrandbits(w)),
                           "0", str(rng.getrandbits(w))))
        accs.append((f"%a{k}", w, init))

    # header/latch block: phis, body ops, induction step, exit test
    fn = _Fn(rng)
    fn.by_width[64] += ["%val", "%j"]
    fn.by_width[32].append("%n")
    fn.addrs.append("%array")
    for name, w, _ in accs:
        fn.define(name, w)
    phis = [f"  %j = phi i64 [ %j.next, %loop ], [ 0, {entry_label} ]"]
    for name, w, init in accs:
        phis.append(f"  {name} = phi i{w} [ {name}.next, %loop ], "
                    f"[ {init}, {entry_label} ]")
    if rng.random() < 0.8:
        r = fn.fresh()
        fn.emit(f"{r} = getelementptr i64* %array, i64 %j")
        p = fn.fresh()
        fn.emit(f"{p} = load i64* {r}")
        fn.define(p, 64)
    for _ in range(rng.randrange(1, 8)):
        fn.random_op()
    if rng.random() < 0.4:
        ptr = fn.fresh()
        fn.emit(f"{ptr} = getelementptr i64* %array, i64 %j")
        fn.emit(f"store i64 {fn.value(64)}, i64* {ptr}")
    for name, w, _ in accs:
        op = rng.choice(("add", "xor", "add", "or", "sub"))
        fn.emit(f"{name}.next = {op} i{w} {name}, {fn.value(w)}")
    fn.emit("%j.next = add i64 %j, 1")
    fn.emit("%j.32 = trunc i64 %j.next to i32")
    bound = "%n" if guarded else str(trip_const)
    if rng.random() < 0.5:
        fn.emit(f"%exitc = icmp eq i32 %j.32, {bound}")
        latch_br = "  br i1 %exitc, label %after, label %loop"
    else:
        fn.emit(f"%exitc = icmp ne i32 %j.32, {bound}")
        latch_br = "  br i1 %exitc, label %loop, label %after"
    loop_block = "\n".join(phis + fn.lines) + "\n" + latch_br

    # exit block: lcssa phis mirroring a subset of the loop-carried values
    # (unguarded loops may read the .next registers directly instead)
    mirrored = [a for a in accs if rng.random() < 0.8] or accs[:1]
    exit_lines = []
    exit_pool: dict[int, list[str]] = {w: [] for w in (1,) + WIDTHS}
    for name, w, init in mirrored:
        lcssa = f"{name}.lcssa"
        if guarded:
            exit_lines.append(f"  {lcssa} = phi i{w} [ {init}, {entry_label} ], "
                              f"[ {name}.next, %loop ]")
        else:
            exit_lines.append(f"  {lcssa} = add i{w} {name}.next, 0")
        exit_pool[w].append(lcssa)
    if not guarded and rng.random() < 0.5:
        exit_lines.append("  %j.final = add i64 %j.next, 0")
        exit_pool[64].append("%j.final")

    fn.lines = []
    fn.by_width = exit_pool
    fn.by_width[32].append("%n")
    fn.addrs = ["%array"]
    fn.n += 5000
    for _ in range(rng.randrange(0, 5)):
        fn.random_op()
    ret = fn.i64_result()
    exit_text = "\n".join(exit_lines + fn.lines)

    if guarded:
        if rng.random() < 0.5:
            entry = "  %g = icmp eq i32 %n, 0\n  br i1 %g, label %after, label %loop"
        else:
            entry = "  %g = icmp ne i32 %n, 0\n  br i1 %g, label %loop, label %after"
    else:
        entry = "  br label %loop"

    return (_HEADER + entry + "\n\nloop:\n" + loop_block
            + "\n\nafter:\n" + exit_text + f"\n  ret i64 {ret}\n}}\n")


def gen_call(rng: random.Random) -> str:
    """A straight-line helper plus a caller that invokes it."""
    helper = _Fn(rng)
    helper.by_width[64].append("%x")
    helper.by_width[32].append("%y")
    helper.addrs.append("%buf")
    for _ in range(rng.randrange(2, 10)):
        helper.random_op()
    hr = helper.i64_result()
    helper_text = ("define i64 @helper(i64 %x, i32 %y, i64* %buf) {\n"
                   + "\n".join(helper.lines) + f"\n  ret i64 {hr}\n}}\n")

    fn = _Fn(rng)
    fn.by_width[64].append("%val")
    fn.by_width[32].append("%n")
    fn.addrs.append("%array")
    for _ in range(rng.randrange(1, 6)):
        fn.random_op()
    c = fn.fresh()
    fn.emit(f"{c} = call i64 @helper(i64 {fn.value(64)}, i32 {fn.value(32)}, "
            f"i64* %array)")
    fn.define(c, 64)
    for _ in range(rng.randrange(1, 6)):
        fn.random_op()
    ret = fn.i64_result()
    return (helper_text + "\n" + _HEADER + "\n".join(fn.lines)
            + f"\n  ret i64 {ret}\n}}\n")


def gen_diamond_chain(rng: random.Random, diamonds: int) -> str:
    """A loop-free function of `diamonds` diamonds in a row (1 + 3 *
    diamonds blocks), each joining with phis.  Operands come from the last
    four registers of each width, plus %val anywhere, so live ranges stay
    short except for the arguments."""
    fn = _Fn(rng)
    fn.by_width[64].append("%val")
    fn.by_width[32].append("%n")
    fn.addrs.append("%array")
    blocks = []
    label = "0"
    for k in range(1, diamonds + 1):
        for _ in range(rng.randrange(1, 4)):
            fn.random_op()
        fn.emit(f"br i1 {fn.value(1)}, label %L{k}, label %R{k}")
        blocks.append(("" if k == 1 else f"{label}:\n") + "\n".join(fn.lines))
        shared = {w: list(p) for w, p in fn.by_width.items()}
        widths = [rng.choice(WIDTHS) for _ in range(rng.randrange(1, 3))]
        incoming = []
        for arm in ("L", "R"):
            fn.lines = []
            fn.by_width = {w: list(p) for w, p in shared.items()}
            for _ in range(rng.randrange(0, 3)):
                fn.random_op()
            incoming.append([fn.value(w) for w in widths])
            fn.emit(f"br label %J{k}")
            blocks.append(f"{arm}{k}:\n" + "\n".join(fn.lines))
        fn.by_width = shared
        fn.lines = []
        for i, w in enumerate(widths):
            r = fn.fresh()
            fn.emit(f"{r} = phi i{w} [ {incoming[0][i]}, %L{k} ], "
                    f"[ {incoming[1][i]}, %R{k} ]")
            fn.define(r, w)
        for pool in fn.by_width.values():
            del pool[:-4]
        fn.by_width[64].append("%val")
        label = f"J{k}"
    fn.emit(f"ret i64 {fn.i64_result()}")
    blocks.append(f"{label}:\n" + "\n".join(fn.lines))
    return _HEADER + "\n\n".join(blocks) + "\n}\n"


def gen_loop_chain(loops: int) -> str:
    """@chain(val): `loops` counted loops in a row, each running three
    times and adding its counter to a running sum, so the result is
    val + 3 * loops.  Each loop's exit block is the next one's preheader."""
    lines = ["define i64 @chain(i64 %val) {", "entry:", "  br label %H1"]
    prev, acc = "entry", "%val"
    for k in range(1, loops + 1):
        lines += [f"H{k}:",
                  f"  %j{k} = phi i64 [ 0, %{prev} ], [ %j{k}.next, %H{k} ]",
                  f"  %s{k} = phi i64 [ {acc}, %{prev} ], [ %s{k}.next, %H{k} ]",
                  f"  %s{k}.next = add i64 %s{k}, %j{k}",
                  f"  %j{k}.next = add i64 %j{k}, 1",
                  f"  %c{k} = icmp eq i64 %j{k}.next, 3",
                  f"  br i1 %c{k}, label %X{k}, label %H{k}",
                  f"X{k}:"]
        prev, acc = f"X{k}", f"%s{k}.next"
        lines.append(f"  br label %H{k + 1}" if k < loops else f"  ret i64 {acc}")
    return "\n".join(lines) + "\n}\n"


def gen_live_out_loop(values: int, guarded: bool) -> str:
    """@outs(n): one loop carrying `values` sums, each live after the loop
    (through exit phis when an n == 0 test guards the loop, read straight
    from the body otherwise).  Sum k grows by k + 1 per iteration, and the
    result adds them all: n * values * (values + 1) / 2 for n >= 1."""
    lines = ["define i64 @outs(i64 %n) {", "entry:"]
    if guarded:
        lines += ["  %g = icmp eq i64 %n, 0", "  br i1 %g, label %exit, label %loop"]
    else:
        lines.append("  br label %loop")
    lines += ["loop:", "  %j = phi i64 [ 0, %entry ], [ %j.next, %loop ]"]
    lines += [f"  %s{k} = phi i64 [ 0, %entry ], [ %s{k}.next, %loop ]" for k in range(values)]
    lines += [f"  %s{k}.next = add i64 %s{k}, {k + 1}" for k in range(values)]
    lines += ["  %j.next = add i64 %j, 1", "  %c = icmp eq i64 %j.next, %n",
              "  br i1 %c, label %exit, label %loop", "exit:"]
    if guarded:
        lines += [f"  %r{k} = phi i64 [ 0, %entry ], [ %s{k}.next, %loop ]"
                  for k in range(values)]
        outs = [f"%r{k}" for k in range(values)]
    else:
        outs = [f"%s{k}.next" for k in range(values)]
    acc = outs[0]
    for k, out in enumerate(outs[1:], 1):
        lines.append(f"  %t{k} = add i64 {acc}, {out}")
        acc = f"%t{k}"
    return "\n".join(lines + [f"  ret i64 {acc}", "}"]) + "\n"


def gen_wide_join(preds: int) -> str:
    """@join(x): a chain of `preds` blocks, block k adding k + 1 to x and
    branching to one join block when x == k, else on to block k + 1 (the
    last one always joins).  The join's phi takes a value from each, so it
    has `preds` predecessors; the result is x + min(x, preds - 1) + 1."""
    lines = ["define i64 @join(i64 %x) {"]
    for k in range(preds):
        lines += [f"B{k}:" if k else "entry:", f"  %v{k} = add i64 %x, {k + 1}"]
        if k < preds - 1:
            lines += [f"  %c{k} = icmp eq i64 %x, {k}",
                      f"  br i1 %c{k}, label %J, label %B{k + 1}"]
        else:
            lines.append("  br label %J")
    arms = ", ".join(f"[ %v{k}, %{f'B{k}' if k else 'entry'} ]" for k in range(preds))
    lines += ["J:", f"  %r = phi i64 {arms}", "  ret i64 %r", "}"]
    return "\n".join(lines) + "\n"


def gen_cfg(rng: random.Random) -> str:
    """@f(x, c): a random control-flow graph over 2 to 9 blocks b0..bN.
    Every block but the last branches to the next one, unconditionally or
    together with a random other block; the last returns or branches back.
    No block branches to the entry b0.  Block k computes %v<k> from its
    phi, if it has one, else from x; a block with two or more
    predecessors may start with a phi that takes x, a constant or the
    predecessor's own %v on each edge.  A condition is c, a compare in the
    block or a constant.  So loops of many shapes occur: nested,
    irreducible, with several exits, entries or back edges."""
    n = rng.randint(2, 9)
    succs: list[list[int]] = []
    for k in range(n):
        other = rng.randrange(1, n)
        if k < n - 1:
            targets = [k + 1] if rng.random() < 0.4 else rng.sample([k + 1, other], 2)
        else:
            targets = rng.choice(([], [other], [other, rng.randrange(1, n)]))
        succs.append(targets)
    preds: list[list[int]] = [[] for _ in range(n)]
    for k, targets in enumerate(succs):
        for t in targets:
            if k not in preds[t]:
                preds[t].append(k)
    lines = ["define i64 @f(i64 %x, i1 %c) {"]
    for k in range(n):
        lines.append(f"b{k}:")
        src = "%x"
        if len(preds[k]) > 1 and rng.random() < 0.7:
            arms = ", ".join(f"[ {rng.choice(('%x', f'%v{p}', str(rng.randrange(9))))}, %b{p} ]"
                             for p in preds[k])
            lines.append(f"  %p{k} = phi i64 {arms}")
            src = f"%p{k}"
        lines.append(f"  %v{k} = add i64 {src}, {k + 1}")
        targets = succs[k]
        if not targets:
            ret = f"%v{rng.randrange(n)}" if rng.random() < 0.2 else f"%v{k}"
            lines.append(f"  ret i64 {ret}")
        elif len(targets) == 1:
            lines.append(f"  br label %b{targets[0]}")
        else:
            cond = rng.choice(("%c", f"%k{k}", "true"))
            if cond == f"%k{k}":
                lines.append(f"  %k{k} = icmp ult i64 %v{k}, {rng.randrange(9)}")
            lines.append(f"  br i1 {cond}, label %b{targets[0]}, label %b{targets[1]}")
    return "\n".join(lines + ["}"]) + "\n"


SHAPES = (gen_straightline, gen_diamond, gen_loop, gen_call)


def gen_program(rng: random.Random) -> str:
    return rng.choice(SHAPES)(rng)


_WORD = re.compile(r"\s+|[^\s,()\[\]{}=*]+|\S")
MUTANT_WORDS = ("ptr", "void", "udiv", "tail", "call", "align", "nsw", "inbounds", "alias",
                "label", "phi", "true", "i7", "i1", "i32*", "!0", "#0", "-1", "4")


def token_mutants(rng: random.Random, sources: list[str], counts: list[int]) -> Iterator[str]:
    """Each source, then counts[k] mutants of source k.  A mutant is its
    source cut into words at whitespace and punctuation, with one to three
    words deleted, replaced from the vocabulary (the words of every source
    plus MUTANT_WORDS), doubled or swapped with the next."""
    split = [_WORD.findall(text) for text in sources]
    vocab = sorted({w for words in split for w in words if not w.isspace()} | set(MUTANT_WORDS))
    for text, words, count in zip(sources, split, counts):
        yield text
        spots = [i for i, w in enumerate(words) if not w.isspace()]
        for _ in range(count):
            mutant = list(words)
            for _ in range(rng.randint(1, 3)):
                i = rng.choice(spots)
                how = rng.randrange(4)
                if how == 0:
                    mutant[i] = ""
                elif how == 1:
                    mutant[i] = rng.choice(vocab)
                elif how == 2:
                    mutant[i] = mutant[i] + " " + mutant[i]
                else:
                    j = spots[min(spots.index(i) + 1, len(spots) - 1)]
                    mutant[i], mutant[j] = mutant[j], mutant[i]
            yield "".join(mutant)


def gen_state_args(rng: random.Random):
    """(args, initial mem dict) for @gen's (val, n, array) signature."""
    from ll2fun.state import wr_n
    val = rng.choice((399, 0, rng.getrandbits(64)))
    n = rng.randrange(0, ARRAY_WORDS + 1)
    mem: dict[int, int] = {}
    for k in range(ARRAY_WORDS):
        if rng.random() < 0.5:
            mem = wr_n(8, ARRAY_BASE + 8 * k, rng.getrandbits(64), mem)
    return (val, n, ARRAY_BASE), mem
