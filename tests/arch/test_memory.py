"""Memory: word/byte access, alignment, equality, the dense segment."""

import operator
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.arch.memory import DATA_BASE, Memory
from repro.errors import MemoryError_


def test_default_zero():
    assert Memory().load_word(0x1000) == 0
    assert Memory().load_byte(0x1003) == 0


def test_word_roundtrip():
    memory = Memory()
    memory.store_word(0x100, 0xDEADBEEF)
    assert memory.load_word(0x100) == 0xDEADBEEF


def test_word_masking():
    memory = Memory()
    memory.store_word(0, 0x1_FFFF_FFFF)
    assert memory.load_word(0) == 0xFFFFFFFF


def test_misaligned_word_raises():
    with pytest.raises(MemoryError_):
        Memory().load_word(2)
    with pytest.raises(MemoryError_):
        Memory().store_word(5, 1)


def test_negative_address_raises():
    with pytest.raises(MemoryError_):
        Memory().load_word(-4)
    with pytest.raises(MemoryError_):
        Memory().load_byte(-1)


def test_byte_little_endian_layout():
    memory = Memory()
    memory.store_word(0x40, 0x44332211)
    assert memory.load_byte(0x40) == 0x11
    assert memory.load_byte(0x41) == 0x22
    assert memory.load_byte(0x42) == 0x33
    assert memory.load_byte(0x43) == 0x44


def test_byte_store_updates_one_byte():
    memory = Memory()
    memory.store_word(0x40, 0x44332211)
    memory.store_byte(0x42, 0xAB)
    assert memory.load_word(0x40) == 0x44AB2211


@given(
    addr=st.integers(0, 1 << 20).map(lambda a: a * 4),
    value=st.integers(0, 0xFFFFFFFF),
)
def test_word_roundtrip_property(addr, value):
    memory = Memory()
    memory.store_word(addr, value)
    assert memory.load_word(addr) == value
    # bytes reassemble the word
    reassembled = 0
    for offset in range(4):
        reassembled |= memory.load_byte(addr + offset) << (8 * offset)
    assert reassembled == value


def test_copy_is_independent():
    memory = Memory()
    memory.store_word(0, 1)
    other = memory.copy()
    other.store_word(0, 2)
    assert memory.load_word(0) == 1


def test_equality_ignores_zero_words():
    a = Memory()
    b = Memory()
    a.store_word(0x10, 0)
    assert a == b
    a.store_word(0x10, 5)
    assert a != b


def test_load_image():
    memory = Memory()
    memory.load_image({0x100: 7, 0x104: 8})
    assert memory.load_word(0x104) == 8
    assert memory.words() == {0x100: 7, 0x104: 8}


# ------------------------------------- the segment against a dict-only model


class _DictMemory:
    """Reference model: every word in one dict keyed by byte address, as
    memory was stored before the dense segment."""

    def __init__(self, image=()):
        self.words = {}
        for addr, value in dict(image).items():
            self.store_word(addr, value)

    @staticmethod
    def _check_aligned(addr):
        if addr % 4 != 0:
            raise MemoryError_("misaligned word access at 0x%x" % addr)
        if addr < 0:
            raise MemoryError_("negative address 0x%x" % addr)

    def load_word(self, addr):
        self._check_aligned(addr)
        return self.words.get(addr, 0)

    def store_word(self, addr, value):
        self._check_aligned(addr)
        self.words[addr] = value & 0xFFFFFFFF

    def load_byte(self, addr):
        if addr < 0:
            raise MemoryError_("negative address 0x%x" % addr)
        word = self.words.get(addr & ~3, 0)
        return (word >> (8 * (addr & 3))) & 0xFF

    def store_byte(self, addr, value):
        if addr < 0:
            raise MemoryError_("negative address 0x%x" % addr)
        base = addr & ~3
        shift = 8 * (addr & 3)
        word = self.words.get(base, 0)
        self.words[base] = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)

    def getitem(self, addr):
        return self.words[addr]

    def copy(self):
        return _DictMemory(self.words)

    def __eq__(self, other):
        return ({a: v for a, v in self.words.items() if v}
                == {a: v for a, v in other.words.items() if v})


_SEGMENT_WORDS = 8
_SEGMENT_END = DATA_BASE + 4 * _SEGMENT_WORDS

#: A word inside the segment, beside it (just below its base, at and
#: past its end), outside it low and high, or negative; plus a byte
#: offset, 0 half the time.
_ADDRESSES = st.builds(
    operator.add,
    st.one_of(
        st.integers(0, _SEGMENT_WORDS - 1).map(lambda i: DATA_BASE + 4 * i),
        st.sampled_from([DATA_BASE - 8, DATA_BASE - 4, _SEGMENT_END,
                         _SEGMENT_END + 4]),
        st.integers(0, 16).map(lambda i: 4 * i),
        st.sampled_from([0xFFFFFFF8, 0xFFFFFFFC]),
        st.sampled_from([-8, -4]),
    ),
    st.sampled_from([0, 0, 0, 1, 2, 3]),
)
_VALUES = st.integers(-(1 << 33), 1 << 33)
_SIDES = st.sampled_from("ab")
_OPS = st.one_of(
    st.tuples(st.sampled_from(["load_word", "load_byte", "getitem"]),
              _SIDES, _ADDRESSES),
    st.tuples(st.sampled_from(["store_word", "store_byte"]), _SIDES,
              _ADDRESSES, _VALUES),
    st.tuples(st.just("copy"), _SIDES),
)
_IMAGES = st.dictionaries(
    st.one_of(
        st.integers(0, _SEGMENT_WORDS - 1).map(lambda i: DATA_BASE + 4 * i),
        st.integers(0, 40).map(lambda i: 4 * i),
        st.integers(0, 4).map(lambda i: _SEGMENT_END + 4 * i),
    ),
    _VALUES, max_size=12,
)


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except (MemoryError_, KeyError) as exc:
        return type(exc).__name__, str(exc)


@given(
    segment=st.lists(st.integers(0, 0xFFFFFFFF), max_size=_SEGMENT_WORDS),
    image=_IMAGES,
    ops=st.lists(_OPS, min_size=20, max_size=60),
)
def test_segment_memory_matches_dict_model(segment, image, ops):
    """Side a starts from an assembled segment, side b from a mapping
    image; every load, store, error, copy, comparison and ``words()``
    matches the dict-only model."""
    seg_words = {DATA_BASE + 4 * i: word for i, word in enumerate(segment)}
    memories = {"a": Memory.from_segment(array("I", segment)),
                "b": Memory(image)}
    models = {"a": _DictMemory(seg_words), "b": _DictMemory(image)}
    for op in ops:
        name, side, *args = op
        memory, model = memories[side], models[side]
        if name == "copy":
            other = "b" if side == "a" else "a"
            memories[other], models[other] = memory.copy(), model.copy()
            continue
        if name == "getitem":
            got = _outcome(memory.__getitem__, *args)
        else:
            got = _outcome(getattr(memory, name), *args)
        assert got == _outcome(getattr(model, name), *args), op
        for key in "ab":
            assert memories[key].words() == models[key].words
            assert list(memories[key].items()) == sorted(
                models[key].words.items())
            assert len(memories[key]) == len(models[key].words)
        assert (memories["a"] == memories["b"]) == (models["a"] == models["b"])
