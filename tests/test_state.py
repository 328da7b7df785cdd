"""Machine-state and memory model tests, checked against a flat byte-array
reference model on randomized traces."""

import random
import re
from array import array

import pytest

from ll2fun import (
    EvalFault, begin_stack_frame, end_stack_frame, init_stack_frame, loadbytes,
    make_state, parse_memory_image, rd_n, storebytes, update_retval, wr_n,
)
from ll2fun import state as st_mod
from ll2fun.state import (
    PAGE_SIZE, Memory, RunMemory, _is_run, alloca, load_word, store_word, wfrombytes,
    wtobytes,
)


# ---------------------------------------------------------------------------
# Independent oracle: a flat byte array over a bounded window
# ---------------------------------------------------------------------------

class FlatMemory:
    def __init__(self, base: int, size: int):
        self.base = base
        self.bytes = bytearray(size)

    def write(self, n, addr, value):
        value &= (1 << (8 * n)) - 1
        for k in range(n):
            self.bytes[addr - self.base + k] = (value >> (8 * k)) & 0xFF

    def read(self, n, addr):
        total = 0
        for k in range(n - 1, -1, -1):
            total = (total << 8) | self.bytes[addr - self.base + k]
        return total


def test_read_fresh_memory_is_zero():
    assert rd_n(4, 0x1234, {}) == 0


def test_write_then_read_roundtrip():
    mem = wr_n(8, 0x8008, (1 << 64) - 1, {})
    assert rd_n(8, 0x8008, mem) == (1 << 64) - 1


def test_little_endian_byte_split():
    mem = wr_n(2, 0x100, 0x1234, {})
    assert rd_n(1, 0x100, mem) == 0x34
    assert rd_n(1, 0x101, mem) == 0x12


def test_zero_writes_keep_memory_sparse():
    mem = wr_n(4, 0x40, 0, {})
    assert mem == {}
    mem = wr_n(8, 0x40, 0xFF00, {})
    assert set(mem) == {0x41}


def test_overwrite_single_byte_inside_word():
    mem = wr_n(8, 0x200, 0x0123456789ABCDEF, {})
    mem = wr_n(1, 0x203, 0x11, mem)
    oracle = FlatMemory(0x200, 16)
    oracle.write(8, 0x200, 0x0123456789ABCDEF)
    oracle.write(1, 0x203, 0x11)
    assert rd_n(8, 0x200, mem) == oracle.read(8, 0x200)


def test_value_reduced_modulo_width():
    mem = wr_n(1, 0x10, 0x1FF, {})
    assert rd_n(1, 0x10, mem) == 0xFF


def test_address_range_overflow_faults():
    with pytest.raises(EvalFault):
        rd_n(8, (1 << 32) - 4, {})
    with pytest.raises(EvalFault):
        wr_n(2, (1 << 32) - 1, 7, {})


def test_read_over_write_and_frame_conditions_randomized():
    rng = random.Random(2024)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        addr = rng.randrange(0x1000, 0x1100 - n)
        value = rng.getrandbits(8 * n)
        before = {a: rng.randint(1, 255)
                  for a in rng.sample(range(0x1000, 0x1100), rng.randint(0, 16))}
        after = wr_n(n, addr, value, before)
        assert rd_n(n, addr, after) == value
        # all bytes outside [addr, addr+n) unchanged
        for a in range(0x1000, 0x1100):
            if not addr <= a < addr + n:
                assert after.get(a, 0) == before.get(a, 0)


def test_little_endian_decomposition_law_randomized():
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randint(2, 8)
        addr = rng.randrange(0x2000, 0x2100)
        mem = {}
        for k in range(n):
            b = rng.randint(0, 255)
            if b:
                mem[addr + k] = b
        assert rd_n(n, addr, mem) == rd_n(1, addr, mem) + 256 * rd_n(n - 1, addr + 1, mem)


def test_canonical_sparseness_after_random_traces():
    rng = random.Random(7)
    for _ in range(2_000):
        mem: dict[int, int] = {}
        for _ in range(rng.randint(1, 24)):
            n = rng.randint(1, 8)
            addr = rng.randrange(0x3000, 0x3100 - n)
            mem = wr_n(n, addr, rng.getrandbits(8 * n) if rng.random() < 0.7 else 0, mem)
        assert all(1 <= b <= 255 for b in mem.values())


def test_trace_equivalence_against_flat_model():
    rng = random.Random(1234)
    base, size = 0x4000, 0x200
    for _ in range(10_000):
        mem: dict[int, int] = {}
        oracle = FlatMemory(base, size)
        for _ in range(rng.randint(1, 12)):
            n = rng.randint(1, 8)
            addr = rng.randrange(base, base + size - n)
            if rng.random() < 0.6:
                value = rng.getrandbits(8 * n)
                mem = wr_n(n, addr, value, mem)
                oracle.write(n, addr, value)
            else:
                assert rd_n(n, addr, mem) == oracle.read(n, addr)
        for a in range(base, base + size):
            assert mem.get(a, 0) == oracle.bytes[a - base]


def test_two_memories_with_same_reads_are_equal():
    a = wr_n(8, 0x100, 0x00FF00FF00FF00FF, {})
    b = {}
    for k in range(8):
        b = wr_n(1, 0x100 + k, rd_n(1, 0x100 + k, a), b)
    assert a == b


# ---------------------------------------------------------------------------
# Paged memory against the plain-dict model
# ---------------------------------------------------------------------------

def _outcome(op):
    """What op returns, or the text of the fault it raises."""
    try:
        return op()
    except EvalFault as e:
        return f"fault: {e}"


def _near_an_edge(rng, n: int) -> int:
    """An address whose n bytes straddle or touch a page boundary, the top
    of 32-bit memory, or lie outside it."""
    page = rng.choice([0x1000, 0x2000, 0x3000])
    return rng.choice([page + rng.randrange(-n - 1, 2),
                       (1 << 32) + rng.randrange(-n - 2, 2),
                       rng.randrange(-n, 0)])


def _assert_same_mapping(mem: Memory, model: dict):
    assert mem == model and model == mem and not mem != model
    assert len(mem) == len(model)
    assert list(mem) == sorted(model)
    assert list(mem.items()) == sorted(model.items())
    assert dict(mem) == model


def test_memory_matches_the_dict_model_randomized():
    """Seeded runs of 1/2/4/8-byte stores and loads near page boundaries
    and the 2^32 edge, on a functionally updated state and on a run's
    memory written in place: every load and fault agrees with rd_n and
    wr_n on a plain dict, and the memories compare, count and iterate as
    that dict does.  Each run ends by storing zeros over every byte it
    wrote, which empties its pages."""
    rng = random.Random(4096)
    for _ in range(60):
        model: dict[int, int] = {}
        st = owned = make_state()
        run = RunMemory()
        for _ in range(40):
            n = rng.choice((1, 2, 4, 8))
            addr = _near_an_edge(rng, n)
            if rng.random() < 0.6:
                value = 0 if rng.random() < 0.25 else rng.getrandbits(8 * n)
                want = _outcome(lambda: wr_n(n, addr, value, model))
                got = _outcome(lambda: store_word(n, addr, value, st))
                got_owned = _outcome(lambda: run.store_word(n, addr, value, owned))
                if isinstance(want, str):
                    assert got == got_owned == want
                    continue
                model, st, owned = want, got, got_owned
            else:
                want = _outcome(lambda: rd_n(n, addr, model))
                assert _outcome(lambda: load_word(n, addr, st.mem)) == want
                assert _outcome(lambda: load_word(n, addr, owned.mem)) == want
                want = _outcome(lambda: tuple(model.get(addr + k, 0) for k in range(n))
                                if 0 <= addr <= (1 << 32) - n else rd_n(n, addr, {}))
                got = _outcome(lambda: loadbytes(n, addr, st))
                assert got == want or got == want.replace("rd_n", "loadbytes")
            _assert_same_mapping(st.mem, model)
            _assert_same_mapping(owned.mem, model)
            assert Memory(model) == st.mem
        for addr in list(model):
            st = store_word(1, addr, 0, st)
            owned = run.store_word(1, addr, 0, owned)
        if model:
            assert all(not any(page) for page in st.mem.pages.values())
            assert st.mem.pages and owned.mem.pages
        for mem in (st.mem, owned.mem):
            _assert_same_mapping(mem, {})
        run.mem = None


def test_load_word_reads_every_width_as_rd_n():
    """load_word at each width 1..8, through `UNPACK` where it has a read
    and a slice where not, reads what rd_n reads, and faults as it does,
    on stored pages, the zero page, across page boundaries and at the
    2^32 edge."""
    rng = random.Random(1616)
    model = {a: rng.randrange(256) for a in range(0x1ff0, 0x2010)}
    model.update({a: rng.randrange(256) for a in range((1 << 32) - 12, 1 << 32)})
    mem = Memory({a: b for a, b in model.items() if b})
    for n in range(1, 9):
        for addr in ([0x1ff0 + o for o in range(0x20)] + [0x5000 - n, 0x5ff8]
                     + [(1 << 32) - n + d for d in range(-4, 3)] + [-1]):
            want = _outcome(lambda: rd_n(n, addr, model))
            assert _outcome(lambda: load_word(n, addr, mem)) == want, (n, addr)


def test_memory_from_a_mapping_keeps_its_nonzero_bytes():
    """A mapping converts whole pages at a time when its keys run up one
    by one, and byte by byte otherwise; zero values are not kept."""
    rng = random.Random(3)
    run = {a: rng.randrange(1, 256) for a in range(0x1f00, 0x1f00 + 3 * PAGE_SIZE)}
    backwards = dict(reversed(run.items()))
    gaps = {a: b for a, b in run.items() if a % 3}
    order = list(run)  # the same keys, first and last in place, two between swapped
    order[1], order[PAGE_SIZE + 1] = order[PAGE_SIZE + 1], order[1]
    swapped = {a: run[a] for a in order}
    for mem in (run, backwards, gaps, swapped, {(1 << 32) - 1: 7, 0: 9}):
        paged = Memory(mem)
        _assert_same_mapping(paged, mem)
        assert all(rd_n(1, a, paged) == b for a, b in mem.items())
    mem = Memory({0x10: 0, 0x11: 5})
    assert len(mem) == 1 and mem == {0x11: 5} and mem != {0x10: 0, 0x11: 5}
    assert mem.get(0x10) is None and mem.get(0x10, 0) == 0 and 0x10 not in mem
    assert mem.get("x", 3) == 3 and mem.get(-1) is None and mem.get(1 << 32) is None


@pytest.mark.parametrize("lo, n", [(0x2FFF0, 150_000), ((1 << 24) - 40_000, 80_000)])
def test_memory_from_a_long_run_across_lane_boundaries(lo, n):
    """A run of keys whose upper bytes change within it (past 2^16, and
    past 2^24) is recognised as a run by its byte lanes, and converts to
    the pages that the same bytes inserted in shuffled order, one byte at
    a time, give; reads at the boundaries agree with the dict model."""
    run = {a: a % 255 + 1 for a in range(lo, lo + n)}
    keys = list(run)
    random.Random(n).shuffle(keys)
    shuffled = {a: run[a] for a in keys}
    assert _is_run(array("I", run)) and not _is_run(array("I", shuffled))
    order = list(run)  # a run but for two keys swapped across a 2^16 boundary
    edge = order.index(lo + 0x10000 - (lo & 0xFFFF))
    order[edge - 1], order[edge] = order[edge], order[edge - 1]
    assert not _is_run(array("I", order))
    paged = Memory(run)
    assert paged.pages == Memory(shuffled).pages
    _assert_same_mapping(paged, run)
    boundaries = [lo, lo + n - 8, (lo | 0xFFFF) - 3, (lo | 0xFFFFFF) - 3]
    for addr in boundaries + [lo - 4, lo + n - 4]:
        assert rd_n(8, addr, paged) == rd_n(8, addr, run), hex(addr)


@pytest.mark.parametrize("mem, message", [
    ({0x100: 300}, "memory at 0x100 holds 300, not a byte"),
    ({0x100: -1}, "memory at 0x100 holds -1, not a byte"),
    ({0x100: 1.5}, "memory at 0x100 holds 1.5, not a byte"),
    ({0x100: 1, -1: 2}, "memory address -1 is not in 32-bit memory"),
    ({1 << 32: 1}, "memory address 4294967296 is not in 32-bit memory"),
    ({"a": 1}, "memory address 'a' is not in 32-bit memory"),
])
def test_memory_holds_bytes_at_32_bit_addresses_by_construction(mem, message):
    with pytest.raises(EvalFault, match=f"^{re.escape(message)}$"):
        make_state(mem=mem)
    assert Memory({0x100: 1}) != mem and mem != Memory({0x100: 1})


# ---------------------------------------------------------------------------
# State-level wrappers and frames
# ---------------------------------------------------------------------------

def test_loadbytes_storebytes_roundtrip_all_widths():
    rng = random.Random(5)
    st = make_state()
    for n in range(1, 9):
        for _ in range(200):
            addr = rng.randrange(0x8000, 0x9000 - n)
            value = rng.getrandbits(8 * n + 4)  # sometimes over-wide
            st2 = storebytes(n, addr, wtobytes(n, value), st)
            assert wfrombytes(n, loadbytes(n, addr, st2)) == value % (1 << (8 * n))


def test_memories_with_different_bytes_are_unequal():
    a = Memory({0x10: 1})
    assert a != Memory({0x10: 2}) and a != Memory({0x1010: 1})
    assert a != {0x10: 1, 0x11: 2} and a != {0x10: 300}
    assert a.__eq__(5) is NotImplemented and a != 5
    assert a == {0x10: 1} and a == Memory({0x10: 1})


def test_negative_naturals_fault():
    st = make_state()
    for build, message in (
            (lambda: make_state(retval=-1), "retval must be a natural number"),
            (lambda: update_retval(-1, st), "update_retval: value must be a natural number"),
            (lambda: alloca(-8, st), "alloca: negative size")):
        with pytest.raises(EvalFault) as err:
            build()
        assert str(err.value) == message


def test_loadbytes_of_no_bytes_is_empty():
    assert loadbytes(0, 0x10, make_state(mem={0x10: 7})) == ()


def test_retval_update_and_accessor():
    st = make_state()
    assert st.retval == 0
    st = update_retval(3, st)
    assert st.retval == 3
    st = update_retval(17, st)
    assert st.retval == 17


def test_initial_state_layout(array_state):
    assert array_state.retval == 0
    assert array_state.stack == 0xFFFF0000
    assert array_state.frame == 0xFFFF0000
    assert rd_n(8, 0x8000, array_state.mem) == 20


def test_begin_end_restores_stack_and_frame():
    st = make_state(stack=0x1000, frame=0x800)
    st2 = end_stack_frame(begin_stack_frame(init_stack_frame(st)))
    assert (st2.stack, st2.frame) == (st.stack, st.frame)


def test_alloca_is_reclaimed_by_end():
    st = begin_stack_frame(make_state(stack=0x1000, frame=0x800))
    st = alloca(16, st)
    assert st.stack == 0x1010
    st = alloca(3, st)  # rounded up to 8
    assert st.stack == 0x1018
    st = end_stack_frame(st)
    assert st.stack == 0x1000
    assert st.frame == 0x800


def test_alloca_returns_current_stack():
    st = make_state(stack=0x2000)
    assert st.stack == 0x2000


def test_end_without_begin_faults():
    with pytest.raises(EvalFault):
        end_stack_frame(make_state())


def test_nested_frames():
    st = make_state(stack=0x1000, frame=0x900)
    st1 = begin_stack_frame(st)
    st1 = alloca(8, st1)
    st2 = begin_stack_frame(st1)
    st2 = alloca(24, st2)
    st3 = end_stack_frame(st2)
    assert (st3.stack, st3.frame) == (st1.stack, st1.frame)
    st4 = end_stack_frame(st3)
    assert (st4.stack, st4.frame) == (st.stack, st.frame)


def test_functional_update_does_not_alias():
    st = make_state()
    st2 = storebytes(2, 0x100, (1, 2), st)
    assert st.mem == {}
    assert st2.mem == {0x100: 1, 0x101: 2}


# ---------------------------------------------------------------------------
# Memory images
# ---------------------------------------------------------------------------

def test_memory_image_format():
    mem = parse_memory_image("# comment\nw 8 0x10 20\n\nw 2 32 0x1234 # tail\n")
    assert rd_n(8, 0x10, mem) == 20
    assert rd_n(2, 32, mem) == 0x1234
    # n, addr and value are read as `int(x, 0)` reads a literal
    assert parse_memory_image("w 0b1000 0o20 1_000\n") == wr_n(8, 16, 1000, {})
    assert parse_memory_image("w +2 0X1_0 +0xff_ff\n") == wr_n(2, 16, 0xFFFF, {})
    for text in ("", "\n\n", "# only a comment\n", " \t\r\n# w 1 2 3\n"):
        mem = parse_memory_image(text)
        assert mem == {} and mem.pages == {}


def test_memory_image_applies_top_to_bottom():
    mem = parse_memory_image("w 4 0x0 257\nw 1 0x0 9\n")
    assert rd_n(4, 0, mem) == (257 & ~0xFF) | 9


def test_memory_image_equals_folding_wr_n_randomized():
    """Overlapping writes of every width, zeros included, give the same
    dict as applying wr_n line by line to a fresh memory."""
    rng = random.Random(0x1A6E)
    for _ in range(20):
        writes = [(rng.choice((1, 2, 4, 8)), 0x100 + rng.randrange(64),
                   rng.choice((0, 0xFF, rng.getrandbits(64))))
                  for _ in range(rng.randrange(1, 80))]
        text = "".join(f"w {n} {addr:#x} {value}\n" for n, addr, value in writes)
        folded: dict[int, int] = {}
        for n, addr, value in writes:
            folded = wr_n(n, addr, value, folded)
        assert parse_memory_image(text) == folded


def test_memory_image_out_of_range_write_faults():
    with pytest.raises(EvalFault, match="^" + re.escape(
            "memory image line 2: wr_n: address range [0xfffffffc, 0x100000004) "
            "exceeds 32-bit memory") + "$"):
        parse_memory_image("w 1 0x10 1\nw 8 0xfffffffc 1\n")
    with pytest.raises(EvalFault, match="^memory image line 1: wr_n: byte count must be "
                                        "positive, got 0$"):
        parse_memory_image("w 0 0x10 1\n")


def test_memory_image_byte_count_is_at_most_8():
    """A write wider than the widest load or store is refused before any
    work, however large its count: `w 4294967295 0 0` would otherwise ask
    for a 4 GiB mask."""
    for line in ("w 9 0x10 1", "w 4294967295 0 0"):
        n = line.split()[1]
        with pytest.raises(EvalFault, match=f"^memory image line 2: byte count must be "
                                            f"at most 8, got {n}$"):
            parse_memory_image(f"w 8 0x10 1\n{line}\n")


def test_memory_image_rejects_bad_lines():
    for text in ("x 1 2 3\n", "w 1 2\n"):
        with pytest.raises(EvalFault, match="^memory image line 1: expected "
                                            "'w <n> <addr> <value>'$"):
            parse_memory_image(text)


@pytest.mark.parametrize("line, message", [
    ("w 1 0x10 five", "bad number"),
    ("w 1 1e3 5", "bad number"),
    ("w 1 0x10 -1", "value must be a natural number"),
    ("w -1 0 5", "wr_n: byte count must be positive, got -1"),
    ("w 1 0x100000000 0", "wr_n: address range [0x100000000, 0x100000001) exceeds 32-bit memory"),
    ("w 1 -1 0", "wr_n: address range [-0x1, 0x0) exceeds 32-bit memory"),
])
def test_memory_image_faults_name_their_line(line, message):
    """Every image fault, the write's own range and count faults too,
    names the line it comes from (here line 3: a comment and a good
    write come first)."""
    with pytest.raises(EvalFault) as err:
        parse_memory_image(f"# image\nw 8 0x10 1\n{line}\n")
    assert str(err.value) == f"memory image line 3: {message}"


def _line_by_line_image(text: str) -> Memory:
    """The image reader as it was before the bulk path: each line split,
    converted, checked and written on its own.  The oracle for the bulk
    reader's memory and for the text of its faults."""
    mem = Memory()
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
        if n > 8:
            raise EvalFault(f"memory image line {lineno}: byte count must be at most 8, got {n}")
        if value < 0:
            raise EvalFault(f"memory image line {lineno}: value must be a natural number")
        try:
            st_mod._write_in_place(n, addr, value, mem)
        except EvalFault as e:
            raise EvalFault(f"memory image line {lineno}: {e}") from None
    return mem


# Every separator `str.splitlines` cuts at.
_LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029")


def _numeral(rng: random.Random, x: int) -> str:
    """x >= 0 as one of the literals `int(s, 0)` reads."""
    return rng.choice((str(x), hex(x), hex(x).upper(), oct(x), bin(x),
                       f"+{x}", f"{x:_}", f"0x{x:_x}", f"0b{x:_b}", f"+0o{x:o}"))


def _image_writes(rng: random.Random) -> list[tuple[int, int, int]]:
    """(n, addr, value) of a valid image: contiguous runs of every width,
    runs across page boundaries and up to the end of 32-bit memory, gaps,
    overlapping writes, zero values and values wider than n bytes."""
    addr = rng.choice((0, 0x1000 - rng.randrange(1, 40), 0x12345, (1 << 32) - 600))
    writes = []
    for _ in range(rng.randrange(0, 60)):
        n = rng.randrange(1, 9)
        step = rng.random()
        if step < 0.2 and writes:  # overlap an earlier write
            addr = writes[rng.randrange(len(writes))][1] + rng.randrange(-7, 8)
        elif step < 0.35:  # a gap
            addr += rng.randrange(1, 6000)
        addr = min(max(addr, 0), (1 << 32) - n)
        value = rng.choice((0, 0xFF, (1 << 8 * n) - 1, rng.getrandbits(8 * n),
                            rng.getrandbits(80)))
        writes.append((n, addr, value))
        addr += n
    return writes


def _image_lines(rng: random.Random, writes) -> list[str]:
    """The lines of writes with comments, blank lines and varied spacing."""
    lines = []
    for n, addr, value in writes:
        gap = rng.choice((" ", "\t", "  ", " \t "))
        line = gap.join(["w", _numeral(rng, n), _numeral(rng, addr), _numeral(rng, value)])
        lines.append(rng.choice(("", " ", "\t")) + line + rng.choice(("", " ", "  # set")))
        if rng.random() < 0.15:
            lines.append(rng.choice(("", "   ", "# a comment", "\t# w 1 2 3 4")))
    return lines


def _image_text(rng: random.Random, lines: list[str]) -> str:
    return "".join(line + rng.choice(_LINE_ENDS) for line in lines)


# Lines that each check refuses, in the line-by-line order: the format,
# a bad number, a count above 8, a negative value, then wr_n's count and
# range.  A line bad in two ways gives the earlier fault.  A line of 3
# fields and one of 5 hold 8 fields that read as two writes if the
# fields are grouped by 4 across lines.
_BAD_IMAGE_LINES = (
    "w 1 2", "w 1 2 3 4", "w", "x 1 2 3", "W 1 0x10 1", "x 9 -1 five", "w 1 0x10\n5 w 2 0x20 7",
    "w 1 0x1g 2", "w 1 08 5", "w 08 1 1", "w 1 2 0b2", "w 1 1e3 5", "w 1 2 3_", "w 1 2 1__0",
    "w 1 2 0x", "w 9 0x10 five",
    "w 9 0 0", "w 4294967295 0 0", "w 9 5 -1", "w 0x10 -1 1",
    "w 1 0x10 -1", "w 8 0 -0x5", "w 0 5 -1", "w -1 -1 -1",
    "w 0 0x10 1", "w -3 0 5", "w 0 -1 0",
    "w 8 0xfffffffc 1", "w 1 0x100000000 0", "w 1 -1 0", "w 2 4294967295 0",
)


def test_memory_image_reader_matches_the_line_by_line_reader():
    """The bulk reader gives the line-by-line reader's memory, page for
    page, on seeded valid images (as the wr_n fold gives it), and its
    exact fault, line number included, when one bad line or two sit at a
    random place among good ones."""
    rng = random.Random(0x1A6E2)
    for _ in range(300):
        writes = _image_writes(rng)
        lines = _image_lines(rng, writes)
        text = _image_text(rng, lines)
        mem = parse_memory_image(text)
        folded: dict[int, int] = {}
        for n, addr, value in writes:
            folded = wr_n(n, addr, value, folded)
        assert mem == folded
        assert mem.pages == _line_by_line_image(text).pages
        assert all(mem._own[p] is page for p, page in mem.pages.items())
        assert st_mod._image_fault(text) is None

        bad = rng.sample(_BAD_IMAGE_LINES, 2)
        at = rng.randrange(len(lines) + 1)
        lines[at:at] = [bad[0]]
        if rng.random() < 0.3:
            lines.insert(rng.randrange(at + 1, len(lines) + 1), bad[1])
        text = _image_text(rng, lines)
        with pytest.raises(EvalFault) as want:
            _line_by_line_image(text)
        with pytest.raises(EvalFault) as got:
            parse_memory_image(text)
        assert str(got.value) == str(want.value)


def test_array_image_contents(array_image):
    words = [rd_n(8, 0x8000 + 8 * k, array_image) for k in range(8)]
    assert words == [20, (1 << 64) - 1, 399, 399, 75, 0, 234, 399]
    assert rd_n(8, 0x8028, array_image) == 0  # explicit zero write stays sparse
    assert 0x8028 not in array_image
