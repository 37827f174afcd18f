"""Architectural queues: the BQ, VQ and TQ of the CFD ISA extension.

Only the *architectural* contract lives here (Section III-A of the paper):

- each queue has a fixed ``size`` and a ``length`` register (occupancy);
- a push must precede its corresponding pop;
- N consecutive pushes are followed by exactly N pops in push order;
- N cannot exceed the queue size.

The BQ additionally supports the Mark/Forward bulk-pop enhancement
(Section IV-A) and the TQ supports the overflow-bit scheme for trip-counts
that may exceed ``2**N`` (Section IV-C4).  Microarchitectural state
(pushed/popped bits, checkpoint ids) lives in :mod:`repro.core.cfd_hw`.
"""

from collections import deque

from repro.errors import (
    QueueOverflowError,
    QueueUnderflowError,
    TripCountOverflowError,
)

#: Paper's architectural sizes (Section III-B and IV-C2).
DEFAULT_BQ_SIZE = 128
DEFAULT_VQ_SIZE = 128
DEFAULT_TQ_SIZE = 256
#: Trip-count field width in bits (entries hold counts < 2**N).
DEFAULT_TQ_BITS = 16


class _ArchQueue:
    """Common bounded-FIFO behaviour for all three architectural queues."""

    def __init__(self, size):
        if size <= 0:
            raise ValueError("queue size must be positive")
        self.size = size
        self._entries = deque()
        # Stream counters: total pushes/pops since reset.  The difference is
        # the architectural length register; the absolute values implement
        # Mark/Forward without exposing head/tail indices (which the ISA
        # deliberately does not architect).
        self.total_pushes = 0
        self.total_pops = 0

    @property
    def length(self):
        """The architectural length (occupancy) register."""
        return len(self._entries)

    def _push_entry(self, entry):
        if len(self._entries) >= self.size:
            raise QueueOverflowError(
                "push onto full queue (size %d)" % self.size
            )
        self._entries.append(entry)
        self.total_pushes += 1

    def _pop_entry(self):
        if not self._entries:
            raise QueueUnderflowError("pop from empty queue")
        self.total_pops += 1
        return self._entries.popleft()

    def entries(self):
        """Snapshot of entries, head first."""
        return list(self._entries)

    def clear(self):
        self._entries = deque()
        self.total_pushes = 0
        self.total_pops = 0

    def copy_state_from(self, other):
        self._entries = deque(other._entries)
        self.total_pushes = other.total_pushes
        self.total_pops = other.total_pops

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        if not isinstance(other, _ArchQueue):
            return NotImplemented
        return list(self._entries) == list(other._entries)


class BranchQueue(_ArchQueue):
    """The architectural branch queue: single-bit predicates + Mark."""

    def __init__(self, size=DEFAULT_BQ_SIZE):
        super().__init__(size)
        self._mark = None  # stream index of the marked tail position

    def push(self, predicate):
        """Push a predicate bit (any non-zero value pushes 1)."""
        self._push_entry(1 if predicate else 0)

    def pop(self):
        """Pop the head predicate bit."""
        return self._pop_entry()

    def mark(self):
        """Mark the current tail (the position following the last push)."""
        self._mark = self.total_pushes

    def forward(self):
        """Bulk-pop through to the most recently marked position.

        Entries pushed before the mark are discarded; the length register is
        decremented by the number of popped entries.  With no mark set (or a
        mark already reached), Forward is a no-op, matching the paper's
        "a Forward merely uses the last Mark" semantics.
        """
        if self._mark is None:
            return 0
        popped = 0
        while self.total_pops < self._mark and self._entries:
            self._pop_entry()
            popped += 1
        return popped

    @property
    def mark_pending(self):
        """Number of entries a Forward would currently discard."""
        if self._mark is None:
            return 0
        return max(0, min(self._mark - self.total_pops, len(self._entries)))

    def save_image(self):
        """Serialize to [length, predicates...] for Save_BQ."""
        return [self.length] + list(self._entries)

    def restore_image(self, image):
        """Restore from a Save_BQ image; resets mark and stream counters."""
        length = image[0]
        if not 0 <= length <= self.size:
            raise QueueOverflowError("restored length %d exceeds size" % length)
        self._entries = deque(1 if v else 0 for v in list(image)[1 : 1 + length])
        self.total_pushes = len(self._entries)
        self.total_pops = 0
        self._mark = None


class ValueQueue(_ArchQueue):
    """The architectural value queue: 32-bit values (Section IV-B)."""

    def __init__(self, size=DEFAULT_VQ_SIZE):
        super().__init__(size)

    def push(self, value):
        self._push_entry(value & 0xFFFFFFFF)

    def pop(self):
        return self._pop_entry()

    def save_image(self):
        return [self.length] + list(self._entries)

    def restore_image(self, image):
        length = image[0]
        if not 0 <= length <= self.size:
            raise QueueOverflowError("restored length %d exceeds size" % length)
        self._entries = deque(v & 0xFFFFFFFF for v in list(image)[1 : 1 + length])
        self.total_pushes = len(self._entries)
        self.total_pops = 0


class TripCountQueue(_ArchQueue):
    """The architectural trip-count queue (Section IV-C).

    Entries are (trip_count, overflow_bit) pairs.  A plain ``Push_TQ`` with
    a count >= 2**bits sets the overflow bit instead of storing the count
    (Section IV-C4); software must then pop with ``Pop_TQ_BOV`` and fall
    back to an unmodified loop.  ``strict`` mode (overflow support disabled)
    raises instead, modelling the un-augmented TQ specification.
    """

    def __init__(self, size=DEFAULT_TQ_SIZE, bits=DEFAULT_TQ_BITS, strict=False):
        super().__init__(size)
        self.bits = bits
        self.max_count = (1 << bits) - 1
        self.strict = strict

    def push(self, trip_count):
        if trip_count < 0:
            raise TripCountOverflowError("negative trip-count %d" % trip_count)
        if trip_count > self.max_count:
            if self.strict:
                raise TripCountOverflowError(
                    "trip-count %d exceeds %d-bit TQ" % (trip_count, self.bits)
                )
            self._push_entry((0, 1))
        else:
            self._push_entry((trip_count, 0))

    def pop(self):
        """Pop (trip_count, overflow_bit) from the head."""
        return self._pop_entry()

    def save_image(self):
        flat = [self.length]
        for count, overflow in self._entries:
            flat.append((overflow << self.bits) | count)
        return flat

    def restore_image(self, image):
        length = image[0]
        if not 0 <= length <= self.size:
            raise QueueOverflowError("restored length %d exceeds size" % length)
        entries = []
        for word in list(image)[1 : 1 + length]:
            entries.append((word & self.max_count, (word >> self.bits) & 1))
        self._entries = deque(entries)
        self.total_pushes = len(self._entries)
        self.total_pops = 0
