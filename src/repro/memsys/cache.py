"""Set-associative cache model with LRU replacement.

Tag-array only (data values live in the architectural memory image); the
model answers "hit or miss" and maintains recency state.  Write policy is
write-back/write-allocate, with dirty bits tracked so writeback traffic
can be counted for the energy model.
"""

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 3

    @property
    def num_sets(self):
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ConfigError(
                "%s: sets must be a positive power of two (got %d)"
                % (self.name, sets)
            )
        return sets


class Cache:
    """One level of cache: LRU, write-back, write-allocate."""

    def __init__(self, config):
        self.config = config
        self.num_sets = config.num_sets
        self.line_bytes = config.line_bytes
        # Per set: list of [tag, dirty] in MRU-first order.
        self._sets = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, addr):
        block = addr // self.line_bytes
        return block % self.num_sets, block // self.num_sets

    def lookup(self, addr, is_write=False, update=True):
        """Probe for *addr*. Returns True on hit (and updates LRU/dirty)."""
        index, tag = self._locate(addr)
        lines = self._sets[index]
        for position, line in enumerate(lines):
            if line[0] == tag:
                if update:
                    if position:
                        lines.insert(0, lines.pop(position))
                    if is_write:
                        line[1] = True
                    self.hits += 1
                return True
        if update:
            self.misses += 1
        return False

    def fill(self, addr, is_write=False):
        """Install the line containing *addr* (on miss refill)."""
        index, tag = self._locate(addr)
        lines = self._sets[index]
        for line in lines:
            if line[0] == tag:  # already present (e.g. racing prefetch)
                line[1] = line[1] or is_write
                return
        lines.insert(0, [tag, is_write])
        if len(lines) > self.config.assoc:
            victim = lines.pop()
            if victim[1]:
                self.writebacks += 1

    def contains(self, addr):
        """Non-updating probe (used by tests and warmup checks)."""
        return self.lookup(addr, update=False)

    def reset_stats(self):
        self.hits = self.misses = self.writebacks = 0

    def stats(self):
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "miss_rate": self.misses / total if total else 0.0,
        }
