"""Machine-state and memory model tests, checked against a flat byte-array
reference model on randomized traces."""

import random

import pytest

from ll2fun import (
    EvalFault, begin_stack_frame, end_stack_frame, init_stack_frame, loadbytes,
    make_state, parse_memory_image, rd_n, storebytes, update_retval, wr_n,
)
from ll2fun.state import alloca, wfrombytes, wtobytes


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
    with pytest.raises(EvalFault, match="exceeds 32-bit memory"):
        parse_memory_image("w 1 0x10 1\nw 8 0xfffffffc 1\n")
    with pytest.raises(EvalFault, match="byte count must be positive"):
        parse_memory_image("w 0 0x10 1\n")


def test_memory_image_rejects_bad_lines():
    with pytest.raises(EvalFault):
        parse_memory_image("x 1 2 3\n")
    with pytest.raises(EvalFault):
        parse_memory_image("w 1 2\n")


def test_array_image_contents(array_image):
    words = [rd_n(8, 0x8000 + 8 * k, array_image) for k in range(8)]
    assert words == [20, (1 << 64) - 1, 399, 399, 75, 0, 234, 399]
    assert rd_n(8, 0x8028, array_image) == 0  # explicit zero write stays sparse
    assert 0x8028 not in array_image
