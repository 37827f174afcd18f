"""Three-level cache hierarchy with a DRAM backstop.

Latency model: an access that hits at level k pays the sum of lookup
latencies down to k (L1 probe, then L2, ...).  Misses refill every level
on the way back (inclusive fill).  The hierarchy reports *which* level
served each access — the tag that the core propagates through dataflow to
attribute each branch misprediction to the furthest memory level feeding
it (Figures 2a and 25b of the paper).
"""

import enum
from dataclasses import dataclass, field

from repro.memsys.cache import Cache, CacheConfig
from repro.memsys.prefetch import PREFETCHER_FACTORIES


class MemLevel(enum.IntEnum):
    """Furthest level that served an access (ordering matters: higher = further)."""

    NONE = 0  # not memory-dependent ("NoData" in Fig 2a)
    L1 = 1
    L2 = 2
    L3 = 3
    MEM = 4


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access.

    Frozen: a :class:`MemoryHierarchy` builds the four outcomes of each
    first-level cache once and returns the shared one per access.
    """

    latency: int
    level: MemLevel


@dataclass
class MemoryHierarchyConfig:
    """Cache geometry matching the paper's Sandy-Bridge-like baseline."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * 1024, 4, 64, hit_latency=1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 8, 64, hit_latency=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * 1024, 8, 64, hit_latency=12)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 8 * 1024 * 1024, 16, 64, hit_latency=30)
    )
    dram_latency: int = 200
    mshr_capacity: int = 32
    prefetcher: str = "none"


class MemoryHierarchy:
    """L1I/L1D -> L2 -> L3 -> DRAM with optional L1D prefetcher."""

    def __init__(self, config=None):
        self.config = config or MemoryHierarchyConfig()
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.l3 = Cache(self.config.l3)
        factory = PREFETCHER_FACTORIES[self.config.prefetcher]
        self.prefetcher = factory(line_bytes=self.config.l1d.line_bytes)
        self.data_accesses = 0
        self.inst_accesses = 0
        self.prefetch_fills = 0
        self._inst_outcomes = self._outcomes(self.config.l1i)
        self._data_outcomes = self._outcomes(self.config.l1d)

    def _outcomes(self, first_level_config):
        """The four results of a walk from *first_level_config*'s cache:
        served by it, by L2, by L3 or by DRAM (see :meth:`_walk`)."""
        l1 = first_level_config.hit_latency
        l2 = l1 + self.config.l2.hit_latency
        l3 = l2 + self.config.l3.hit_latency
        return (AccessResult(l1, MemLevel.L1), AccessResult(l2, MemLevel.L2),
                AccessResult(l3, MemLevel.L3),
                AccessResult(l3 + self.config.dram_latency, MemLevel.MEM))

    def _walk(self, first_level_cache, outcomes, addr, is_write):
        """Probe down the hierarchy; fill on the way back.

        Returns the one of *outcomes* (the first-level cache's, from
        :meth:`_outcomes`) for the level that served *addr*.
        """
        if first_level_cache.lookup(addr, is_write):
            return outcomes[0]
        if self.l2.lookup(addr):
            first_level_cache.fill(addr, is_write)
            return outcomes[1]
        if self.l3.lookup(addr):
            self.l2.fill(addr)
            first_level_cache.fill(addr, is_write)
            return outcomes[2]
        self.l3.fill(addr)
        self.l2.fill(addr)
        first_level_cache.fill(addr, is_write)
        return outcomes[3]

    def access_data(self, addr, is_write=False, pc=None):
        """A demand data access. Returns a shared :class:`AccessResult`."""
        self.data_accesses += 1
        outcomes = self._data_outcomes
        result = self._walk(self.l1d, outcomes, addr, is_write)
        if self.prefetcher is not None and not is_write:
            was_miss = result is not outcomes[0]
            for pf_addr in self.prefetcher.observe(pc or 0, addr, was_miss):
                self.prefetch_fill(pf_addr)
        return result

    def probe_data_hit(self, addr):
        """Non-mutating L1D probe (used for MSHR-free fast-path checks)."""
        return self.l1d.contains(addr)

    def prefetch_fill(self, addr):
        """Install *addr*'s line at every level (hardware prefetch fill)."""
        self.prefetch_fills += 1
        if not self.l3.lookup(addr, update=False):
            self.l3.fill(addr)
        if not self.l2.lookup(addr, update=False):
            self.l2.fill(addr)
        if not self.l1d.lookup(addr, update=False):
            self.l1d.fill(addr)

    def access_inst(self, addr):
        """An instruction fetch access. Returns a shared :class:`AccessResult`."""
        self.inst_accesses += 1
        return self._walk(self.l1i, self._inst_outcomes, addr, False)

    def miss_latency(self, level):
        """Total latency an access served at *level* pays (for MSHR fills)."""
        latency = self.config.l1d.hit_latency
        if level >= MemLevel.L2:
            latency += self.config.l2.hit_latency
        if level >= MemLevel.L3:
            latency += self.config.l3.hit_latency
        if level >= MemLevel.MEM:
            latency += self.config.dram_latency
        return latency

    def stats(self):
        return {
            "l1i": self.l1i.stats(),
            "l1d": self.l1d.stats(),
            "l2": self.l2.stats(),
            "l3": self.l3.stats(),
            "data_accesses": self.data_accesses,
            "inst_accesses": self.inst_accesses,
            "prefetch_fills": self.prefetch_fills,
        }
