"""Miss status holding registers (MSHRs) for the L1 data cache.

The MSHR file bounds memory-level parallelism: each outstanding miss
occupies one entry until its fill returns; a second miss to the same block
merges.  When the file is full, new misses must retry (the load stays in
the issue queue).  Figure 25a of the paper is a histogram of per-cycle
MSHR occupancy — :meth:`MSHRFile.sample` feeds that histogram.
"""

_NEVER = float("inf")


class MSHRFile:
    """Fixed-capacity outstanding-miss tracker with block merging."""

    def __init__(self, capacity=32, line_bytes=64):
        self.capacity = capacity
        self.line_bytes = line_bytes
        self._pending = {}  # block -> ready_cycle
        self._next_ready = _NEVER  # earliest ready_cycle in _pending
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        self.occupancy_histogram = {}

    def _block(self, addr):
        return addr // self.line_bytes

    def _expire(self, cycle):
        """Drop the entries whose fill has returned by *cycle*."""
        pending = self._pending
        for block in [b for b, ready in pending.items() if ready <= cycle]:
            del pending[block]
        self._next_ready = min(pending.values(), default=_NEVER)

    def occupancy(self, cycle):
        """Number of entries still outstanding at *cycle* (also cleans up)."""
        if cycle >= self._next_ready:
            self._expire(cycle)
        return len(self._pending)

    def request(self, addr, cycle, fill_latency):
        """Register a miss for *addr*.

        Returns (accepted, ready_cycle).  A request to an already-pending
        block merges (accepted with the earlier ready time).  A full file
        rejects the request: ``(False, None)``.
        """
        block = self._block(addr)
        self.occupancy(cycle)
        ready = self._pending.get(block)
        if ready is not None:
            self.merges += 1
            return True, ready
        if len(self._pending) >= self.capacity:
            self.full_stalls += 1
            return False, None
        ready = cycle + fill_latency
        self._pending[block] = ready
        if ready < self._next_ready:
            self._next_ready = ready
        self.allocations += 1
        return True, ready

    def sample(self, cycle):
        """Record the current occupancy into the per-cycle histogram.

        This runs every cycle, so it sweeps the file only once *cycle*
        reaches the earliest pending fill, not on every cycle.
        """
        if cycle >= self._next_ready:
            self._expire(cycle)
        occ = len(self._pending)
        hist = self.occupancy_histogram
        hist[occ] = hist.get(occ, 0) + 1

    def flush(self):
        self._pending.clear()
        self._next_ready = _NEVER

    def stats(self):
        return {
            "allocations": self.allocations,
            "merges": self.merges,
            "full_stalls": self.full_stalls,
        }
