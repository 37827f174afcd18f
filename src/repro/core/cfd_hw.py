"""Fetch-unit CFD hardware: the physical BQ and TQ (Section III-C, IV-C).

Both queues are circular buffers addressed by *monotonic* pointers
(entry = pointer mod size), which makes the paper's length rule direct:

    length = net_push_ctr + pending_push_ctr = fetch_tail - committed_head

Pointer roles:

- ``fetch_tail``      advanced when a push is *fetched* (entry allocated)
- ``fetch_head``      advanced when a pop is *fetched*
- ``committed_tail``  advanced when a push *retires*
- ``committed_head``  advanced when a pop *retires*

Recovery restores the fetch pointers from a checkpoint snapshot (branch
misprediction) or the committed pointers (retirement recovery), clearing
popped bits in the live range — exactly the repair described in
Section III-C4.

Each physical BQ entry carries the architectural predicate bit plus the
microarchitectural pushed bit, popped bit, checkpoint id, the speculative
pop's predicted predicate and sequence number (for late-push validation),
and a memory-level tag used for misprediction attribution statistics.
"""

from repro.memsys.hierarchy import MemLevel

#: Bound once: on Python 3.10 and 3.11 every enum member load goes
#: through the enum metaclass's ``__getattr__``.
_LEVEL_NONE = int(MemLevel.NONE)

#: Result kinds for a pop attempted at fetch.
POP_HIT = "hit"
POP_MISS = "miss"


class HardwareBQ:
    """The physical branch queue residing in the fetch unit."""

    def __init__(self, size):
        self.size = size
        self.predicate = [0] * size
        self.pushed = [False] * size
        self.popped = [False] * size
        self.ckpt_id = [None] * size
        self.pred_predicate = [0] * size
        self.pop_seq = [None] * size
        self.level = [_LEVEL_NONE] * size
        self.fetch_tail = 0
        self.fetch_head = 0
        self.committed_tail = 0
        self.committed_head = 0
        self.fetch_mark = None
        self.committed_mark = None

    # -- occupancy -----------------------------------------------------------

    @property
    def length(self):
        """BQ length as the ISA sees it (net + pending pushes)."""
        return self.fetch_tail - self.committed_head

    def push_would_stall(self):
        """True when fetching a push must stall (queue full)."""
        return self.length >= self.size

    # -- fetch-stage operations ------------------------------------------------

    def allocate_push(self):
        """Fetch of Push_BQ: allocate the tail entry; returns its pointer."""
        pointer = self.fetch_tail
        index = pointer % self.size
        self.pushed[index] = False
        self.popped[index] = False
        self.ckpt_id[index] = None
        self.pop_seq[index] = None
        self.fetch_tail = pointer + 1
        return pointer

    def pop_at_fetch(self):
        """Fetch of Branch_on_BQ: try to read the head predicate.

        Returns (POP_HIT, pointer, predicate, level) when the head entry's
        push has executed, else (POP_MISS, pointer, None, None).  *level*
        is the stored int of the push's :class:`MemLevel`, which compares
        equal to the member.  The head pointer is NOT advanced on a miss;
        callers advance it via :meth:`speculate_pop` or retry after a
        stall.
        """
        pointer = self.fetch_head
        index = pointer % self.size
        if pointer < self.fetch_tail and self.pushed[index]:
            self.fetch_head = pointer + 1
            return POP_HIT, pointer, self.predicate[index], self.level[index]
        return POP_MISS, pointer, None, None

    def speculate_pop(self, predicted_predicate, seq):
        """BQ miss with the speculate policy: record the prediction.

        Sets the popped bit, the predicted predicate, and the speculative
        pop's sequence number; the checkpoint id is filled in at rename via
        :meth:`set_pop_checkpoint`.  Returns the entry pointer.
        """
        pointer = self.fetch_head
        index = pointer % self.size
        self.popped[index] = True
        self.pred_predicate[index] = 1 if predicted_predicate else 0
        self.pop_seq[index] = seq
        self.ckpt_id[index] = None
        self.fetch_head = pointer + 1
        return pointer

    def set_pop_checkpoint(self, pointer, ckpt_id):
        """Rename of a speculative pop: record its checkpoint id."""
        self.ckpt_id[pointer % self.size] = ckpt_id

    def mark_at_fetch(self):
        """Fetch of Mark: remember the tail position."""
        self.fetch_mark = self.fetch_tail

    def forward_at_fetch(self):
        """Fetch of Forward: bulk-advance the head to the last mark.

        Returns the number of entries skipped.
        """
        if self.fetch_mark is None:
            return 0
        skipped = max(0, self.fetch_mark - self.fetch_head)
        if skipped:
            self.fetch_head = self.fetch_mark
        return skipped

    # -- execute-stage operations -----------------------------------------------

    def execute_push(self, pointer, predicate, level=MemLevel.NONE):
        """Push_BQ executes: write the predicate; validate a late pop.

        Returns ``None`` for an early push (or a matching late push), or
        a dict describing the mispredicted speculative pop that must be
        recovered: {"pop_seq", "ckpt_id", "actual"}.
        """
        index = pointer % self.size
        bit = 1 if predicate else 0
        self.predicate[index] = bit
        self.level[index] = int(level)
        was_popped = self.popped[index]
        self.pushed[index] = True
        if was_popped and self.pred_predicate[index] != bit:
            return {
                "pop_seq": self.pop_seq[index],
                "ckpt_id": self.ckpt_id[index],
                "actual": bit,
            }
        return None

    # -- retire-stage operations --------------------------------------------------

    def retire_push(self):
        self.committed_tail += 1

    def retire_pop(self):
        self.committed_head += 1

    def retire_mark(self):
        self.committed_mark = self.committed_tail

    def retire_forward(self):
        """Returns number of entries bulk-popped architecturally."""
        if self.committed_mark is None:
            return 0
        skipped = max(0, self.committed_mark - self.committed_head)
        if skipped:
            self.committed_head = self.committed_mark
        return skipped

    # -- recovery -------------------------------------------------------------

    def snapshot(self):
        """Fetch-pointer snapshot stored with each checkpoint."""
        return (self.fetch_head, self.fetch_tail, self.fetch_mark)

    def restore(self, snapshot):
        self.fetch_head, self.fetch_tail, self.fetch_mark = snapshot
        self._clear_popped_range()

    def restore_committed(self):
        """Retirement recovery: fetch pointers revert to committed state."""
        self.fetch_head = self.committed_head
        self.fetch_tail = self.committed_tail
        self.fetch_mark = self.committed_mark
        self._clear_popped_range()

    def _clear_popped_range(self):
        for pointer in range(self.fetch_head, self.fetch_tail):
            index = pointer % self.size
            self.popped[index] = False
            self.ckpt_id[index] = None
            self.pop_seq[index] = None


class HardwareTQ:
    """The physical trip-count queue residing in the fetch unit.

    Structure mirrors :class:`HardwareBQ`; the paper opts to *stall* the
    fetch unit on a TQ miss (Section IV-C3), so no speculative-pop state
    is needed — just trip-count, overflow and pushed bits.
    """

    def __init__(self, size, bits):
        self.size = size
        self.bits = bits
        self.count = [0] * size
        self.overflow = [False] * size
        self.pushed = [False] * size
        self.fetch_tail = 0
        self.fetch_head = 0
        self.committed_tail = 0
        self.committed_head = 0

    @property
    def length(self):
        return self.fetch_tail - self.committed_head

    def push_would_stall(self):
        return self.length >= self.size

    def allocate_push(self):
        pointer = self.fetch_tail
        self.pushed[pointer % self.size] = False
        self.fetch_tail = pointer + 1
        return pointer

    def pop_at_fetch(self):
        """Fetch of Pop_TQ: returns (POP_HIT, pointer, count, overflow) or
        (POP_MISS, pointer, None, None) — the latter stalls fetch."""
        pointer = self.fetch_head
        index = pointer % self.size
        if pointer < self.fetch_tail and self.pushed[index]:
            self.fetch_head = pointer + 1
            return POP_HIT, pointer, self.count[index], self.overflow[index]
        return POP_MISS, pointer, None, None

    def execute_push(self, pointer, trip_count):
        """Push_TQ executes: store count or set overflow (Section IV-C4)."""
        index = pointer % self.size
        max_count = (1 << self.bits) - 1
        if trip_count > max_count:
            self.count[index] = 0
            self.overflow[index] = True
        else:
            self.count[index] = trip_count
            self.overflow[index] = False
        self.pushed[index] = True

    def retire_push(self):
        self.committed_tail += 1

    def retire_pop(self):
        self.committed_head += 1

    def snapshot(self):
        return (self.fetch_head, self.fetch_tail)

    def restore(self, snapshot):
        self.fetch_head, self.fetch_tail = snapshot

    def restore_committed(self):
        self.fetch_head = self.committed_head
        self.fetch_tail = self.committed_tail
