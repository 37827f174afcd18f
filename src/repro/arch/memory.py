"""Sparse architectural memory.

Word-granular backing store (a dict keyed by word-aligned byte address)
with byte sub-access for the ``lb``/``lbu``/``sb`` instructions.  All
values are stored as unsigned 32-bit words; signed interpretation is the
consumer's concern (see :mod:`repro.arch.bits`).
"""

from repro.errors import MemoryError_

_WORD_MASK = 0xFFFFFFFF


class Memory:
    """Byte-addressed memory with a word-granular sparse image."""

    def __init__(self, image=None):
        self._words = dict(image) if image else {}

    def copy(self):
        other = Memory()
        other._words = dict(self._words)
        return other

    def load_image(self, image):
        """Install initial contents from a {byte_addr: word} mapping.

        Validates like :meth:`store_word` but inline: data images run to
        millions of words at large workload scales, and this is on every
        pipeline's construction path.
        """
        words = self._words
        for addr, value in image.items():
            if addr % 4 != 0:
                raise MemoryError_("misaligned word access at 0x%x" % addr)
            if addr < 0:
                raise MemoryError_("negative address 0x%x" % addr)
            words[addr] = value & _WORD_MASK

    def install_validated(self, words):
        """Merge an already-validated, already-masked word image.

        Trusted fast path for the per-program memo of
        :func:`~repro.arch.state.program_image`, validated and masked
        once via :meth:`load_image`: every machine built on the program
        merges it without re-checking each of its (possibly millions
        of) words.
        """
        self._words.update(words)

    @staticmethod
    def _check_aligned(addr):
        if addr % 4 != 0:
            raise MemoryError_("misaligned word access at 0x%x" % addr)
        if addr < 0:
            raise MemoryError_("negative address 0x%x" % addr)

    def load_word(self, addr):
        """Load the 32-bit word at byte address *addr* (must be aligned)."""
        self._check_aligned(addr)
        return self._words.get(addr, 0)

    def store_word(self, addr, value):
        """Store a 32-bit word at byte address *addr* (must be aligned)."""
        self._check_aligned(addr)
        self._words[addr] = value & _WORD_MASK

    def load_byte(self, addr):
        """Load the unsigned byte at *addr* (little-endian within words)."""
        if addr < 0:
            raise MemoryError_("negative address 0x%x" % addr)
        word = self._words.get(addr & ~3, 0)
        return (word >> (8 * (addr & 3))) & 0xFF

    def store_byte(self, addr, value):
        """Store the low 8 bits of *value* at byte address *addr*."""
        if addr < 0:
            raise MemoryError_("negative address 0x%x" % addr)
        base = addr & ~3
        shift = 8 * (addr & 3)
        word = self._words.get(base, 0)
        word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self._words[base] = word

    def words(self):
        """Snapshot of the non-zero word image ({byte_addr: word})."""
        return dict(self._words)

    def __eq__(self, other):
        if not isinstance(other, Memory):
            return NotImplemented
        # Zero-valued words are equivalent to absent words.
        mine = {a: v for a, v in self._words.items() if v}
        theirs = {a: v for a, v in other._words.items() if v}
        return mine == theirs

    def __repr__(self):
        return "Memory(%d words)" % len(self._words)
