"""Machine state: retval, stack/frame pointers, and a paged byte memory.

Logically the memory is a finite map from 32-bit address to byte with a
default of zero, and `Memory` presents it so: a read-only mapping of the
nonzero bytes, in address order, equal to a plain dict of the same bytes.
It is executed on 4 KiB `bytearray` pages, so a load within a page is one
read of that page, and a compiled store within a page that its run owns
one write: a `struct` read at widths 1, 2, 4 and 8 (`UNPACK`) and write
at 2, 4 and 8 (`PACK`), else one slice (Goel, Hunt & Kaufmann, *Abstract
Stobjs and Their Application to ISA Modeling*, ACL2 Workshop 2013: a
record-like view backed by arrays).  Pages hold only bytes, so a memory
built from a mapping whose values are not all bytes is refused when it
is built.  Little-endian byte order throughout.

`rd_n` and `wr_n` are the plain-dict model of the same memory: the
reference interpreter, the oracles and the property tests use them, and
they read a `Memory` like any other mapping.

Frame discipline (defined by this artifact, documented in the README):

* ``init_stack_frame`` is a no-op normalization point on the caller side.
* ``begin_stack_frame`` pushes the current frame pointer on an internal
  save chain and sets ``frame := stack``.
* ``end_stack_frame`` sets ``stack := frame`` (reclaiming any allocation
  made since the matching begin) and pops the saved frame pointer.

So a begin/end pair brackets a call: stack and frame afterwards equal
their values before the begin.  The save chain is a shadow record, not a
region of ``mem``; saving frames in memory would change observable memory
contents.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field, replace
from itertools import compress, islice, repeat
from operator import add, and_, ne, sub

from .errors import EvalFault, read_utf8

ADDR_LIMIT = 1 << 32
STACK_ALIGN = 8
IMAGE_MAX_BYTES = 8  # widest memory image write: the widest load or store
PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1
ZERO_PAGE = bytes(PAGE_SIZE)  # what a page no store has reached reads
# The widths with a struct read and write: `UNPACK[n](page, o)[0]` is the
# little-endian natural in page[o:o + n], and `PACK[n](page, o, v)` writes
# v < 2^(8n) there (a compiled loop writes a byte as itself).  The other
# widths slice, with `int.from_bytes` and `int.to_bytes`.
_STRUCTS = {struct.calcsize(f"<{c}"): struct.Struct(f"<{c}") for c in "BHIQ"}
UNPACK = {n: s.unpack_from for n, s in _STRUCTS.items()}
PACK = {n: s.pack_into for n, s in _STRUCTS.items() if n > 1}

# Empty tuple = no enclosing begin_stack_frame; otherwise (saved_frame, rest).
FrameLinks = tuple


class Memory(Mapping):
    """Byte memory as 4 KiB pages: `pages` maps a page number (address >>
    PAGE_BITS) to a `bytearray` of PAGE_SIZE bytes, and a page it lacks
    reads as ZERO_PAGE.

    To every reader it is a read-only mapping of the nonzero bytes, in
    address order: `len` counts them, and it compares equal to any
    mapping, a plain dict included, that holds the same nonzero bytes (a
    page whose bytes stores have zeroed makes no difference).  Built from
    a mapping (`Memory(mem)`), it takes that mapping's nonzero bytes, and
    refuses one whose keys are not 32-bit addresses or whose values are
    not bytes; built from a Memory, it shares that memory's pages.

    Two functions write a memory, each only for the code that built it:
    `_write_runs`, which the image parser calls on the fresh memory it
    returns, and `_write_in_place`, which `store_word` calls on the
    memory it builds and `RunMemory` on its own during its run, whose
    compiled stores also write the pages of `_own` directly
    (`RunMemory.own`).  Each copies a page before its first write to it
    unless this memory made that page itself (`_own`), so the memories it
    shares pages with never change.
    """

    __slots__ = ("pages", "_own", "_len")

    def __init__(self, mem: Mapping[int, int] | None = None):
        self.pages = dict(mem.pages) if type(mem) is Memory else _paged(mem) if mem else {}
        self._own: dict[int, bytearray] = {}  # the pages this memory may write
        self._len: int | None = None  # counted on first use, then kept by writes

    def get(self, addr, default=None):
        try:
            byte = self.pages.get(addr >> PAGE_BITS, ZERO_PAGE)[addr & PAGE_MASK]
        except TypeError:  # not an integer address
            return default
        return byte or default

    def __getitem__(self, addr) -> int:
        byte = self.get(addr)
        if byte is None:
            raise KeyError(addr)
        return byte

    def _pages_in_order(self):
        pages = self.pages
        for p in sorted(pages):
            yield p << PAGE_BITS, pages[p]

    def __iter__(self):
        for base, page in self._pages_in_order():
            yield from compress(range(base, base + PAGE_SIZE), page)

    def items(self) -> ItemsView:
        return _Items(self)

    def __len__(self) -> int:
        if self._len is None:  # counted once; `_write_in_place` keeps it
            self._len = sum(PAGE_SIZE - page.count(0) for page in self.pages.values())
        return self._len

    def __eq__(self, other) -> bool:
        if type(other) is not Memory:
            if not isinstance(other, Mapping):
                return NotImplemented
            if len(other) != len(self):
                return False
            try:
                other = Memory(other)
            except EvalFault:
                return False
        mine, theirs = self.pages, other.pages
        for p in mine.keys() | theirs.keys():
            a, b = mine.get(p, ZERO_PAGE), theirs.get(p, ZERO_PAGE)
            if a is not b and a != b:
                return False
        return True

    def __repr__(self) -> str:
        return f"Memory({dict(self.items())!r})"


class _Items(ItemsView):
    """A Memory's items, made page by page instead of one lookup a key."""

    __slots__ = ()

    def __iter__(self):
        for base, page in self._mapping._pages_in_order():
            yield from zip(compress(range(base, base + PAGE_SIZE), page),
                           page.translate(None, b"\0"))


def _paged(mem: Mapping) -> dict[int, bytearray]:
    """The pages of mem's bytes.  Keys and values are converted in bulk;
    keys that run up from the first one by one, as an array's bytes do
    when they are inserted in order, are cut into pages whole."""
    try:
        values = bytearray(mem.values())
        keys = array("I", mem)
    except (TypeError, ValueError, OverflowError):
        raise _not_memory(mem) from None
    if keys.itemsize == 4 and _is_run(keys):
        lo = keys[0]
        values[:0] = bytes(lo & PAGE_MASK)  # from the start of lo's page
        values += bytes(-len(values) % PAGE_SIZE)
        return {(lo >> PAGE_BITS) + k: values[i:i + PAGE_SIZE]
                for k, i in enumerate(range(0, len(values), PAGE_SIZE))}
    pages: dict[int, bytearray] = {}
    for addr, byte in zip(keys, values):
        page = pages.get(addr >> PAGE_BITS)
        if page is None:
            page = pages[addr >> PAGE_BITS] = bytearray(PAGE_SIZE)
        page[addr & PAGE_MASK] = byte
    return pages


def _not_memory(mem: Mapping) -> EvalFault:
    """The fault for the first key of mem that is not a 32-bit address or
    value that is not a byte."""
    for addr, value in mem.items():
        if not (isinstance(addr, int) and 0 <= addr < ADDR_LIMIT):
            return EvalFault(f"memory address {addr!r} is not in 32-bit memory")
        if not (isinstance(value, int) and 0 <= value < 256):
            return EvalFault(f"memory at {addr:#x} holds {value!r}, not a byte")
    raise AssertionError("a mapping of addresses to bytes did not convert")


# Byte 0 and byte 1 of successive integers repeat with these periods.
_PERIODS = {0: bytes(range(256)), 8: b"".join(bytes((b,)) * 256 for b in range(256))}


def _lane(lo: int, n: int, shift: int) -> bytes:
    """Byte `shift // 8` of each of lo, lo + 1, ..., lo + n - 1."""
    if shift in _PERIODS:
        period = _PERIODS[shift]
        start = lo % len(period)
        return (period * ((start + n) // len(period) + 1))[start:start + n]
    step, value = 1 << shift, lo >> shift  # the byte stays for 2^shift keys
    count = min(step - (lo & (step - 1)), n)
    runs = [bytes((value & 255,)) * count]
    while count < n:
        value += 1
        runs.append(bytes((value & 255,)) * min(step, n - count))
        count += step
    return b"".join(runs)


def _is_run(keys: array) -> bool:
    """Are keys lo, lo + 1, ..., in this order?  Compared as bytes with
    the run's 4-byte words, built one byte lane at a time."""
    n, lo = len(keys), keys[0]
    if keys[-1] - lo != n - 1:
        return False
    want = bytearray(4 * n)
    lanes = range(4) if sys.byteorder == "little" else range(3, -1, -1)
    for shift, lane in zip((0, 8, 16, 24), lanes):
        if (lo + n - 1) >> shift:  # else every key's byte there is 0
            want[lane::4] = _lane(lo, n, shift)
    return want == keys  # compared as buffers: the array's bytes


def changed_bytes(before: Memory, after: Memory) -> list[tuple[int, int, int]]:
    """(address, byte before, byte after) of each byte that differs, in
    address order.  Compared page by page; a page the two memories share,
    as a run's final memory shares every page no store reached, is
    skipped unread."""
    changed = []
    old_pages, new_pages = before.pages, after.pages
    for p in sorted(old_pages.keys() | new_pages.keys()):
        old, new = old_pages.get(p, ZERO_PAGE), new_pages.get(p, ZERO_PAGE)
        if old is not new and old != new:
            base = p << PAGE_BITS
            changed += [(base + o, x, y) for o, (x, y) in enumerate(zip(old, new)) if x != y]
    return changed


@dataclass(frozen=True)
class MachineState:
    """Machine state.  Updates return a new value; a caller's state is never
    changed.  `mem` is always a `Memory`: a mapping given for it is
    converted to pages when the state is built (and refused if its values
    are not bytes).  States share memories, which no reader can change;
    within one evaluator run, the states after the first store share one
    memory that the run owns and writes in place, copying each page on
    the run's first store to it (`RunMemory`)."""

    retval: int = 0
    stack: int = 0
    frame: int = 0
    mem: Memory = field(default_factory=Memory)
    frame_links: FrameLinks = ()

    def __post_init__(self):
        if not (0 <= self.stack < ADDR_LIMIT and 0 <= self.frame < ADDR_LIMIT):
            raise EvalFault("stack/frame pointer outside 32-bit address space")
        if self.retval < 0:
            raise EvalFault("retval must be a natural number")
        if type(self.mem) is not Memory:
            object.__setattr__(self, "mem", Memory(self.mem))


def make_state(retval: int = 0, stack: int = 0xFFFF0000, frame: int = 0xFFFF0000,
               mem: Mapping[int, int] | None = None) -> MachineState:
    """Fresh state; defaults mirror the usual test-harness layout (stack and
    frame high in memory, data arrays low)."""
    return MachineState(retval=retval, stack=stack, frame=frame, mem={} if mem is None else mem)


# ---------------------------------------------------------------------------
# Raw memory primitives: the plain-dict model, and the paged reads and writes
# ---------------------------------------------------------------------------

def _check_range(who: str, n: int, addr: int):
    if n < 1:
        raise EvalFault(f"{who}: byte count must be positive, got {n}")
    if addr < 0 or addr + n - 1 >= ADDR_LIMIT:
        raise EvalFault(f"{who}: address range [{addr:#x}, {addr + n:#x}) exceeds 32-bit memory")


def rd_n(n: int, addr: int, mem: Mapping[int, int]) -> int:
    """Read n bytes at addr, assembled little-endian into a natural < 2^(8n)."""
    _check_range("rd_n", n, addr)
    get = mem.get
    value = 0
    for k in range(n - 1, -1, -1):
        value = (value << 8) | get(addr + k, 0)
    return value


def wr_n(n: int, addr: int, value: int, mem: Mapping[int, int]) -> dict[int, int]:
    """Write value (reduced mod 2^(8n)) as n little-endian bytes; returns a
    new dict, zero bytes removed to keep the map canonical."""
    _check_range("wr_n", n, addr)
    new = dict(mem)
    value &= (1 << (8 * n)) - 1
    for k in range(n):
        b = (value >> (8 * k)) & 0xFF
        if b:
            new[addr + k] = b
        else:
            new.pop(addr + k, None)
    return new


def load_word(n: int, addr: int, mem: Memory) -> int:
    """rd_n on a Memory: one read of a page when the n bytes lie in one,
    through `UNPACK` at its widths and a slice at the others, else rd_n
    itself."""
    o = addr & PAGE_MASK
    if 0 < n <= PAGE_SIZE - o and 0 <= addr < ADDR_LIMIT:
        page = mem.pages.get(addr >> PAGE_BITS, ZERO_PAGE)
        unpack = UNPACK.get(n)
        return unpack(page, o)[0] if unpack else int.from_bytes(page[o:o + n], "little")
    return rd_n(n, addr, mem)


def _write_in_place(n: int, addr: int, value: int, mem: Memory):
    """wr_n's checks and write, applied to `mem` itself: one slice
    assignment per page the n bytes reach.  A page mem does not own yet is
    copied first (see `Memory`)."""
    _check_range("wr_n", n, addr)
    data = (value & ((1 << (8 * n)) - 1)).to_bytes(n, "little")
    pages, own, length = mem.pages, mem._own, mem._len
    p, o = addr >> PAGE_BITS, addr & PAGE_MASK
    while True:
        page = own.get(p)
        if page is None:
            page = own[p] = pages[p] = bytearray(pages.get(p, ZERO_PAGE))
        end = min(o + len(data), PAGE_SIZE)
        if length is not None:  # a traced run counts the bytes after each store
            length += page.count(0, o, end) - data.count(0, 0, end - o)
        page[o:end] = data[:end - o]
        if o + len(data) <= PAGE_SIZE:
            mem._len = length
            return
        data, p, o = data[end - o:], p + 1, 0


def wfrombytes(n: int, byterun: tuple[int, ...]) -> int:
    """Assemble an n-byte little-endian run into a natural."""
    if len(byterun) != n:
        raise EvalFault(f"wfrombytes: expected {n} bytes, got {len(byterun)}")
    value = 0
    for k in range(n - 1, -1, -1):
        value = (value << 8) | byterun[k]
    return value


def wtobytes(n: int, value: int) -> tuple[int, ...]:
    """Split value mod 2^(8n) into n little-endian bytes."""
    value &= (1 << (8 * n)) - 1
    return tuple((value >> (8 * k)) & 0xFF for k in range(n))


# ---------------------------------------------------------------------------
# State-level operations
# ---------------------------------------------------------------------------

def loadbytes(n: int, addr: int, st: MachineState) -> tuple[int, ...]:
    """The n-byte run at addr, lowest address first."""
    if addr < 0 or addr + n - 1 >= ADDR_LIMIT:
        raise EvalFault(f"loadbytes: address range [{addr:#x}, {addr + n:#x}) exceeds 32-bit memory")
    if n < 1:
        return ()
    return tuple(load_word(n, addr, st.mem).to_bytes(n, "little"))


def _stored_word(n: int, byterun: tuple[int, ...]) -> int:
    """The natural that storebytes of byterun writes."""
    if len(byterun) != n:
        raise EvalFault(f"storebytes: expected {n} bytes, got {len(byterun)}")
    return wfrombytes(n, byterun)


def store_word(n: int, addr: int, value: int, st: MachineState) -> MachineState:
    """The state with value stored: a new memory that shares every page of
    st's but the ones the store reaches, which it copies."""
    mem = Memory(st.mem)
    _write_in_place(n, addr, value, mem)
    return replace(st, mem=mem)


def storebytes(n: int, addr: int, byterun: tuple[int, ...], st: MachineState) -> MachineState:
    return store_word(n, addr, _stored_word(n, byterun), st)


class RunMemory:
    """The memory one evaluator run owns and stores into in place.

    The first store of a run copies the incoming state's page table (not
    its pages) into a new `Memory` and returns a new state holding it.
    Every later state of the run shares that memory (``replace`` keeps
    it), so later stores write into it directly: the run's first store to
    a page copies that page, and every store is one slice assignment per
    page it reaches.  This is sound only because the loader admits
    programs that thread one state linearly (`fun_ir.validate_def`):
    once a state has been passed to a store, no code can observe it
    again.  The caller's memories and their pages are never written.

    `start`, which `ProgramEvaluator.run` calls on entry and on every
    exit, gives the run a new `own`: the dict that becomes the run
    memory's `_own` at the run's first store and then holds each page the
    run has copied.  Compiled code writes a store that lies in one of
    those pages straight into it, and calls `store_word` for every other
    store: the run's first, its first to each page, one across a page
    boundary and one that faults.  By linearity every state a store
    receives after the run's first store holds the run's memory, so
    every page of `own` belongs to the memory being stored into.  A
    traced run's compiled code gets a dict that stays empty instead: its
    trace lines count the memory's bytes (`Memory._len`), which only
    `_write_in_place` keeps counted.  So each run starts with no memory
    of its own and copies again, and the evaluator holds no memory
    between runs.
    """

    __slots__ = ("mem", "own")

    def __init__(self):
        self.start(False)

    def start(self, traced: bool) -> dict[int, bytearray]:
        """Begin a run, or end one: no memory yet and a new `own`.  The
        pages a compiled store may write in place: `own`, or in a traced
        run a dict that stays empty."""
        self.mem: Memory | None = None
        self.own: dict[int, bytearray] = {}
        return {} if traced else self.own

    def store_word(self, n: int, addr: int, value: int,
                   st: MachineState) -> MachineState:
        mem = st.mem
        if mem is not self.mem:
            mem = self.mem = Memory(mem)
            mem._own = self.own
            st = replace(st, mem=mem)
        _write_in_place(n, addr, value, mem)
        return st

    def storebytes(self, n: int, addr: int, byterun: tuple[int, ...],
                   st: MachineState) -> MachineState:
        return self.store_word(n, addr, _stored_word(n, byterun), st)


def update_retval(v: int, st: MachineState) -> MachineState:
    if v < 0:
        raise EvalFault("update_retval: value must be a natural number")
    return replace(st, retval=v)


def init_stack_frame(st: MachineState) -> MachineState:
    return st


def begin_stack_frame(st: MachineState) -> MachineState:
    return replace(st, frame=st.stack, frame_links=(st.frame, st.frame_links))


def end_stack_frame(st: MachineState) -> MachineState:
    if not st.frame_links:
        raise EvalFault("end_stack_frame without matching begin_stack_frame")
    saved, rest = st.frame_links
    return replace(st, stack=st.frame, frame=saved, frame_links=rest)


def alloca(nbytes: int, st: MachineState) -> MachineState:
    """Advance the stack by nbytes rounded up to 8-byte alignment.  The
    caller reads the allocation's address from ``stack`` beforehand (the
    stack grows towards infinity)."""
    if nbytes < 0:
        raise EvalFault("alloca: negative size")
    step = max((nbytes + STACK_ALIGN - 1) // STACK_ALIGN * STACK_ALIGN, STACK_ALIGN)
    new_stack = st.stack + step
    if new_stack >= ADDR_LIMIT:
        raise EvalFault(f"alloca: stack overflow past 32-bit memory ({new_stack:#x})")
    return replace(st, stack=new_stack)


# ---------------------------------------------------------------------------
# Memory-image files
# ---------------------------------------------------------------------------

_IMAGE_MASKS = [(1 << 8 * n) - 1 for n in range(IMAGE_MAX_BYTES + 1)]  # [n] keeps n bytes
_IMAGE_CODES = {n: s.format[-1] for n, s in _STRUCTS.items()}  # the struct code of n bytes
# The line breaks of `str.splitlines` in ASCII text, "\n" aside.
_OTHER_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def parse_memory_image(text: str) -> Memory:
    """Apply a line-oriented memory image to an empty memory.

    Each line is ``w <n> <addr> <value>``, n at most IMAGE_MAX_BYTES, meaning
    wr_n(n, addr, value); n, addr and value are integer literals as
    `int(x, 0)` reads them: decimal, 0x-hex, 0o-octal or 0b-binary, with an
    optional sign and single '_' between digits or after the prefix; '#'
    starts a comment; blank lines are skipped.  Lines apply top to bottom.

    The image is read in bulk: each column is converted by one `map`, each
    check is one `min` or `max` over a column (over the distinct counts
    for the count column), all the bytes are made by one `struct` pack
    where every line writes one width of 1, 2, 4 or 8 bytes and by one
    join otherwise, and each run of lines that starts where the line
    before it ended is written as one slice per page (`_write_runs`);
    runs apply in line order, so a later line still overwrites an earlier
    one.  The cost is linear in the image size.  An image that any bulk
    step refuses is walked line by line for its first bad line
    (`_image_fault`).

    Each line must hold 4 fields, the first one "w".  A plain image
    (`_plain_rows`) is checked for that without splitting it into lines:
    each of its lines starts with "w ", so its first field is "w", and
    since `int(x, 0)` refuses "w", every "w" field sits in column 0 once
    the number columns convert; so each line holds a multiple of 4
    fields, at least 1, and 4 × lines fields in all leave exactly 4 to
    each.  Any other image counts each line's fields with one split.
    """
    bare = text  # the image without its comments
    if "#" in text:
        bare = "\n".join([line.partition("#")[0] for line in text.splitlines()])
    rows, good = _plain_rows(bare), True  # every line of a plain image is a row
    if not rows:  # the field count of each line that is not blank: a row
        sizes = list(filter(None, map(len, map(str.split, bare.splitlines()))))
        if not sizes:
            return Memory()
        rows, good = len(sizes), max(sizes) == 4
    fields = bare.split()  # every row's fields, in order: each line end is whitespace
    good = good and len(fields) == 4 * rows and fields[::4].count("w") == rows
    try:
        numbers = {n: int(n, 0) for n in set(fields[1::4])}  # each distinct count once
        addrs, values = (list(map(int, fields[k::4], repeat(0))) for k in (2, 3))
    except ValueError:  # a bad number
        good = False
    if good:
        lo, hi = min(numbers.values()), max(numbers.values())
        ns = [lo] * rows if lo == hi else list(map(numbers.__getitem__, fields[1::4]))
    del fields  # its strings are most of the memory the parse holds
    ends = list(map(add, addrs, ns)) if good else None
    if not (good and 1 <= lo and hi <= IMAGE_MAX_BYTES and min(values) >= 0
            and min(addrs) >= 0 and max(ends) <= ADDR_LIMIT):
        raise _image_fault(text) or AssertionError("the bulk checks refused a good image")
    if max(values) > _IMAGE_MASKS[lo]:  # some value needs wr_n's reduction
        masks = repeat(_IMAGE_MASKS[lo]) if lo == hi else map(_IMAGE_MASKS.__getitem__, ns)
        values = list(map(and_, values, masks))
    if lo == hi and lo in _IMAGE_CODES:
        data = struct.pack(f"<{rows}{_IMAGE_CODES[lo]}", *values)
    else:
        data = b"".join(map(int.to_bytes, values, ns, repeat("little")))
    mem = Memory()
    # the first line of each run: every line that does not start where the one before ended
    firsts = [0, *compress(range(1, rows), map(ne, islice(addrs, 1, None), ends))]
    lasts = [*map(sub, firsts[1:], repeat(1)), rows - 1]  # the line before the next run
    _write_runs(mem, data, zip(map(addrs.__getitem__, firsts), map(ends.__getitem__, lasts)))
    return mem


def _plain_rows(bare: str) -> int:
    """The line count of a plain image, else 0.  An image is plain when it
    is ASCII, breaks its lines at "\\n" only, and starts each line with
    "w ", a final "\\n" ending its last line rather than starting one: its
    lines are then `bare.splitlines()`, none of them blank."""
    if not bare.isascii() or any(map(bare.__contains__, _OTHER_BREAKS)):
        return 0
    lines = bare.count("\n") + (not bare.endswith("\n"))
    return lines if ("\n" + bare).count("\nw ") == lines else 0


def _write_runs(mem: Memory, data: bytes, runs):
    """Write the runs (addr, end), in order, each run the next end - addr
    bytes of data, as one slice assignment per page: each slice is cut
    from data at its offsets, so a run of many pages is not cut again for
    each page.  A page mem does not own yet is copied first (see
    `Memory`).  mem's bytes are not counted yet (`Memory._len` is None),
    so no count is kept."""
    pages, own = mem.pages, mem._own
    lo = 0
    for addr, end in runs:
        p, o, hi = addr >> PAGE_BITS, addr & PAGE_MASK, lo + end - addr
        while True:
            page = own.get(p)
            if page is None:
                page = own[p] = pages[p] = bytearray(pages.get(p, ZERO_PAGE))
            if o + hi - lo <= PAGE_SIZE:
                page[o:o + hi - lo] = data[lo:hi]
                break
            page[o:] = data[lo:lo + PAGE_SIZE - o]
            p, o, lo = p + 1, 0, lo + PAGE_SIZE - o
        lo = hi


def _image_fault(text: str) -> EvalFault | None:
    """The fault of the first bad line of an image, by the checks of each
    line in this order: the format, a bad number, a count above
    IMAGE_MAX_BYTES, a negative value, then wr_n's count and range; None
    if no line is bad.  No line is written, and no mask made."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.partition("#")[0].split()
        if not parts:
            continue
        if parts[0] != "w" or len(parts) != 4:
            return EvalFault(f"memory image line {lineno}: expected 'w <n> <addr> <value>'")
        try:
            n, addr, value = map(int, parts[1:], repeat(0))
        except ValueError:
            return EvalFault(f"memory image line {lineno}: bad number")
        if n > IMAGE_MAX_BYTES:
            return EvalFault(f"memory image line {lineno}: byte count must be at most "
                             f"{IMAGE_MAX_BYTES}, got {n}")
        if value < 0:
            return EvalFault(f"memory image line {lineno}: value must be a natural number")
        try:
            _check_range("wr_n", n, addr)
        except EvalFault as e:
            return EvalFault(f"memory image line {lineno}: {e}")
    return None


def load_memory_image(path: str) -> Memory:
    # the bad byte's line, as `splitlines` in parse_memory_image numbers it
    return parse_memory_image(read_utf8(path, lambda head, what: EvalFault(
        f"memory image line {len((head + 'x').splitlines())}: {what}")))
