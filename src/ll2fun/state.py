"""Machine state: retval, stack/frame pointers, and a sparse byte memory.

The memory is a finite map from 32-bit address to byte with a default of
zero.  Zero bytes are never stored, so two memories with the same read
behavior are structurally equal (`==` on the dict is a semantic equality
check).  Little-endian byte order throughout.

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

from dataclasses import dataclass, field, replace

from .errors import EvalFault

ADDR_LIMIT = 1 << 32
STACK_ALIGN = 8

# Empty tuple = no enclosing begin_stack_frame; otherwise (saved_frame, rest).
FrameLinks = tuple


@dataclass(frozen=True)
class MachineState:
    """Machine state.  Updates return a new value; a caller's state is never
    changed.  Within one evaluator run, the states after the first store
    share one memory dict that the run owns and writes in place
    (`RunMemory`)."""

    retval: int = 0
    stack: int = 0
    frame: int = 0
    mem: dict[int, int] = field(default_factory=dict)
    frame_links: FrameLinks = ()

    def __post_init__(self):
        if not (0 <= self.stack < ADDR_LIMIT and 0 <= self.frame < ADDR_LIMIT):
            raise EvalFault("stack/frame pointer outside 32-bit address space")
        if self.retval < 0:
            raise EvalFault("retval must be a natural number")


def make_state(retval: int = 0, stack: int = 0xFFFF0000, frame: int = 0xFFFF0000,
               mem: dict[int, int] | None = None) -> MachineState:
    """Fresh state; defaults mirror the usual test-harness layout (stack and
    frame high in memory, data arrays low)."""
    return MachineState(retval=retval, stack=stack, frame=frame, mem=dict(mem or {}))


# ---------------------------------------------------------------------------
# Raw memory primitives (operate on the mem dict, not the state)
# ---------------------------------------------------------------------------

def rd_n(n: int, addr: int, mem: dict[int, int]) -> int:
    """Read n bytes at addr, assembled little-endian into a natural < 2^(8n)."""
    if n < 1:
        raise EvalFault(f"rd_n: byte count must be positive, got {n}")
    if addr < 0 or addr + n - 1 >= ADDR_LIMIT:
        raise EvalFault(f"rd_n: address range [{addr:#x}, {addr + n:#x}) exceeds 32-bit memory")
    get = mem.get
    value = 0
    for k in range(n - 1, -1, -1):
        value = (value << 8) | get(addr + k, 0)
    return value


def wr_n(n: int, addr: int, value: int, mem: dict[int, int]) -> dict[int, int]:
    """Write value (reduced mod 2^(8n)) as n little-endian bytes; returns a
    new dict, zero bytes removed to keep the map canonical."""
    new = dict(mem)
    _write_in_place(n, addr, value, new)
    return new


def _write_in_place(n: int, addr: int, value: int, mem: dict[int, int]):
    """wr_n's checks and byte writes, applied to `mem` itself."""
    if n < 1:
        raise EvalFault(f"wr_n: byte count must be positive, got {n}")
    if addr < 0 or addr + n - 1 >= ADDR_LIMIT:
        raise EvalFault(f"wr_n: address range [{addr:#x}, {addr + n:#x}) exceeds 32-bit memory")
    value &= (1 << (8 * n)) - 1
    for k in range(n):
        b = (value >> (8 * k)) & 0xFF
        a = addr + k
        if b:
            mem[a] = b
        else:
            mem.pop(a, None)


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
    get = st.mem.get
    return tuple(get(addr + k, 0) for k in range(n))


def _stored_word(n: int, byterun: tuple[int, ...]) -> int:
    """The natural that storebytes of byterun writes."""
    if len(byterun) != n:
        raise EvalFault(f"storebytes: expected {n} bytes, got {len(byterun)}")
    return wfrombytes(n, byterun)


def storebytes(n: int, addr: int, byterun: tuple[int, ...], st: MachineState) -> MachineState:
    return replace(st, mem=wr_n(n, addr, _stored_word(n, byterun), st.mem))


def store_word(n: int, addr: int, value: int, st: MachineState) -> MachineState:
    return replace(st, mem=wr_n(n, addr, value, st.mem))


class RunMemory:
    """The memory dict one evaluator run owns and stores into in place.

    The first store of a run copies the incoming state's memory once and
    returns a new state holding the copy.  Every later state of the run
    shares that dict (``replace`` keeps it), so later stores write into it
    directly and cost O(bytes stored) instead of a copy of the memory.
    This is sound only because the loader admits programs that thread the
    state linearly (`fun_ir.validate_def`): once a state has been passed
    to a store, no code can observe it again.  The caller's states are
    never written.  `mem` starts as None and `ProgramEvaluator.run` clears
    it again on every exit, so each run starts with no memory of its own,
    copies again, and the evaluator holds no memory between runs.
    """

    __slots__ = ("mem",)

    def __init__(self):
        self.mem: dict[int, int] | None = None

    def store_word(self, n: int, addr: int, value: int,
                   st: MachineState) -> MachineState:
        mem = st.mem
        if mem is not self.mem:
            mem = self.mem = dict(mem)
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

def parse_memory_image(text: str) -> dict[int, int]:
    """Apply a line-oriented memory image to an empty memory.

    Each line is ``w <n> <addr> <value>`` meaning wr_n(n, addr, value);
    addr and value accept decimal or 0x-hex; '#' starts a comment; blank
    lines are skipped.  Lines apply top to bottom, in place on one fresh
    dict, so the cost is linear in the image size.
    """
    mem: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "w" or len(parts) != 4:
            raise EvalFault(f"memory image line {lineno}: expected 'w <n> <addr> <value>'")
        try:
            n = int(parts[1], 0)
            addr = int(parts[2], 0)
            value = int(parts[3], 0)
        except ValueError:
            raise EvalFault(f"memory image line {lineno}: bad number") from None
        if value < 0:
            raise EvalFault(f"memory image line {lineno}: value must be a natural number")
        _write_in_place(n, addr, value, mem)
    return mem


def load_memory_image(path: str) -> dict[int, int]:
    with open(path, encoding="utf-8") as fh:
        return parse_memory_image(fh.read())
