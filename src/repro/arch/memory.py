"""Architectural memory: one dense word segment plus a sparse remainder.

Word-granular and byte-addressed, with byte sub-access for the
``lb``/``lbu``/``sb`` instructions.  The words from :data:`DATA_BASE` up,
where the assembler lays out every ``.word`` and ``.space`` contiguously,
live in one ``array('I')`` segment (4 bytes a word); any other word lives
in a dict keyed by its byte address.  A program's initial data
(:attr:`repro.isa.program.Program.data`), every machine's memory and
every snapshot share this representation, so building a machine or
taking a snapshot copies one array.

All values are stored as unsigned 32-bit words; signed interpretation is
the consumer's concern (see :mod:`repro.arch.bits`).  Absent words read
0, and equality ignores zero words.  As a mapping, a memory holds the
words that were laid out or stored (zeros included) and iterates them in
address order.
"""

from array import array

from repro.errors import MemoryError_

#: Byte address of the first data word: where the assembler places
#: ``.data`` and where every image's dense segment begins.
DATA_BASE = 0x10000

_WORD_MASK = 0xFFFFFFFF


def _word_error(addr):
    """The error a word access at *addr* raises (misaligned first)."""
    if addr & 3:
        return MemoryError_("misaligned word access at 0x%x" % addr)
    return MemoryError_("negative address 0x%x" % addr)


class Memory:
    """Byte-addressed memory: a word segment from :data:`DATA_BASE` and a
    sparse dict for every word outside it.

    The segment's length is fixed when the image is made; stores outside
    it go to the dict.
    """

    __slots__ = ("_seg", "_size", "_sparse")

    def __init__(self, image=None):
        self._seg = array("I")
        self._size = 0
        self._sparse = {}
        if image is not None:
            self.load_image(image)

    @classmethod
    def from_segment(cls, words):
        """The image of *words*, an ``array('I')`` laid out from
        :data:`DATA_BASE` on (taken, not copied)."""
        memory = cls()
        memory._seg = words
        memory._size = len(words)
        return memory

    def copy(self):
        return Memory(self)

    def load_image(self, image):
        """Install contents from *image*: a :class:`Memory` or a
        ``{byte_addr: word}`` mapping.

        Each address is validated like :meth:`store_word`, before any
        word is installed, and each word masked to 32 bits.  Into an
        empty memory a :class:`Memory` image is one array copy; otherwise
        the words are stored one by one.
        """
        if isinstance(image, Memory):
            if not self._size and not self._sparse:
                self._seg = image._seg[:]
                self._size = image._size
                self._sparse = dict(image._sparse)
                return
            image = dict(image.items())
        for addr in image:
            if addr & 3 or addr < 0:
                raise _word_error(addr)
        for addr, value in image.items():
            self.store_word(addr, value)

    def load_word(self, addr):
        """Load the 32-bit word at byte address *addr* (must be aligned)."""
        index = (addr - DATA_BASE) >> 2
        if 0 <= index < self._size and not addr & 3:
            return self._seg[index]
        if addr & 3 or addr < 0:
            raise _word_error(addr)
        return self._sparse.get(addr, 0)

    def store_word(self, addr, value):
        """Store a 32-bit word at byte address *addr* (must be aligned)."""
        index = (addr - DATA_BASE) >> 2
        if 0 <= index < self._size and not addr & 3:
            self._seg[index] = value & _WORD_MASK
            return
        if addr & 3 or addr < 0:
            raise _word_error(addr)
        self._sparse[addr] = value & _WORD_MASK

    def store_words(self, addr, words):
        """Store the 32-bit *words*, an ``array('I')``, at consecutive
        word addresses from *addr* on: one slice copy when they fall
        inside the segment."""
        index = (addr - DATA_BASE) >> 2
        end = index + len(words)
        if 0 <= index and end <= self._size and not addr & 3:
            self._seg[index:end] = words
            return
        for offset, word in enumerate(words):
            self.store_word(addr + 4 * offset, word)

    def load_byte(self, addr):
        """Load the unsigned byte at *addr* (little-endian within words)."""
        index = (addr - DATA_BASE) >> 2
        if 0 <= index < self._size:
            word = self._seg[index]
        elif addr < 0:
            raise MemoryError_("negative address 0x%x" % addr)
        else:
            word = self._sparse.get(addr & ~3, 0)
        return (word >> (8 * (addr & 3))) & 0xFF

    def store_byte(self, addr, value):
        """Store the low 8 bits of *value* at byte address *addr*."""
        shift = 8 * (addr & 3)
        index = (addr - DATA_BASE) >> 2
        if 0 <= index < self._size:
            seg = self._seg
            seg[index] = ((seg[index] & ~(0xFF << shift))
                          | ((value & 0xFF) << shift))
            return
        if addr < 0:
            raise MemoryError_("negative address 0x%x" % addr)
        base = addr & ~3
        sparse = self._sparse
        sparse[base] = ((sparse.get(base, 0) & ~(0xFF << shift))
                        | ((value & 0xFF) << shift))

    # ------------------------------------------------ the image as a mapping

    def arrays(self):
        """Every word held, in address order: ``(addrs, words)`` as an
        ``array('Q')`` of byte addresses and an ``array('I')``."""
        sparse = self._sparse
        low = sorted(addr for addr in sparse if addr < DATA_BASE)
        high = sorted(addr for addr in sparse if addr >= DATA_BASE)
        addrs = array("Q", low)
        addrs.extend(range(DATA_BASE, DATA_BASE + 4 * self._size, 4))
        addrs.extend(high)
        words = array("I", [sparse[addr] for addr in low])
        words.extend(self._seg)
        words.extend([sparse[addr] for addr in high])
        return addrs, words

    def items(self):
        """``(byte_addr, word)`` for every word held, in address order."""
        return zip(*self.arrays())

    def __iter__(self):
        return iter(self.arrays()[0])

    def __len__(self):
        return self._size + len(self._sparse)

    def __getitem__(self, addr):
        index = (addr - DATA_BASE) >> 2
        if 0 <= index < self._size and not addr & 3:
            return self._seg[index]
        return self._sparse[addr]

    def words(self):
        """A ``{byte_addr: word}`` dict of every word held."""
        return dict(self.items())

    def __eq__(self, other):
        if not isinstance(other, Memory):
            return NotImplemented
        # Zero-valued words are equivalent to absent words.
        if self._size == other._size:
            if self._seg != other._seg:
                return False
            mine, theirs = self._sparse, other._sparse
        else:
            mine, theirs = self.words(), other.words()
        return ({a: v for a, v in mine.items() if v}
                == {a: v for a, v in theirs.items() if v})

    def __repr__(self):
        return "Memory(%d words)" % len(self)
