"""Core configuration: the paper's Sandy-Bridge-like baseline (Fig 17a).

Defaults follow Section VI: 4-wide fetch/rename/retire, 168-entry ROB,
54-entry scheduler, 64/36 load/store queues, 8 branch checkpoints with
out-of-order reclamation guided by a JRS confidence estimator, a
state-of-the-art TAGE-family predictor, a 10-cycle minimum fetch-to-
execute depth, BQ size 128 and TQ size 256, and BQ-miss speculation on.
"""

from dataclasses import dataclass, field, replace
from typing import Set

from repro.arch.queues import (
    DEFAULT_BQ_SIZE,
    DEFAULT_TQ_BITS,
    DEFAULT_TQ_SIZE,
    DEFAULT_VQ_SIZE,
)
from repro.errors import ConfigError
from repro.memsys.hierarchy import MemoryHierarchyConfig

#: BQ-miss handling policies (Section III-C2 / Fig 21c).
BQ_MISS_SPECULATE = "speculate"
BQ_MISS_STALL = "stall"


@dataclass
class CoreConfig:
    """Every knob of the cycle-level core."""

    name: str = "sandy-bridge-like"

    # Widths
    fetch_width: int = 4
    rename_width: int = 4
    issue_width: int = 6
    retire_width: int = 4

    # Window
    rob_size: int = 168
    iq_size: int = 54
    lq_size: int = 64
    sq_size: int = 36
    # The VQ renamer maps architectural VQ entries onto physical registers
    # (Section IV-B2), so the PRF is provisioned for ROB writers + a full VQ.
    extra_phys_regs: int = 128  # on top of 32 + rob_size

    # Pipeline depth: cycles between fetch and rename-entry; together with
    # issue (1 cycle) and execute (1 cycle) this yields the paper's
    # "minimum fetch-to-execute latency" of ~10 cycles.  (Dependent ops
    # still issue back-to-back via bypassing; the depth is paid by
    # branch resolution, i.e. the misprediction penalty.)
    front_end_depth: int = 9
    issue_to_execute: int = 2  # informational; folded into front_end_depth
    recovery_latency: int = 1  # extra cycles to restore a checkpoint

    # Functional units
    num_alu: int = 3
    num_ldst: int = 2
    num_mul: int = 1
    num_div: int = 1

    # Branch prediction
    predictor: str = "isl_tage"
    predictor_kwargs: dict = field(default_factory=dict)
    btb_sets: int = 1024
    btb_ways: int = 4
    ras_depth: int = 16
    #: PCs of branches to predict with the oracle ("Base + PerfectCFD").
    perfect_pcs: Set[int] = field(default_factory=set)

    # Checkpoint policy (Section VI design-space exploration)
    num_checkpoints: int = 8
    confidence_guided_checkpoints: bool = True
    ooo_checkpoint_reclaim: bool = True

    # CFD hardware
    bq_size: int = DEFAULT_BQ_SIZE
    vq_size: int = DEFAULT_VQ_SIZE
    tq_size: int = DEFAULT_TQ_SIZE
    tq_bits: int = DEFAULT_TQ_BITS
    bq_miss_policy: str = BQ_MISS_SPECULATE

    # Memory hierarchy
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)

    # Limits
    max_cycles: int = 200_000_000
    #: No-retire-progress watchdog: abort with
    #: :class:`~repro.errors.SimulatorInvariantError` when this many cycles
    #: pass without a single retirement (a wedged pipeline, not a slow one —
    #: the longest legitimate stall is a DRAM-fed dependence chain, orders
    #: of magnitude shorter).
    deadlock_cycles: int = 100_000

    @property
    def num_phys_regs(self):
        return 32 + self.rob_size + self.extra_phys_regs

    def validate(self):
        if self.fetch_width <= 0 or self.rename_width <= 0:
            raise ConfigError("widths must be positive")
        if self.retire_width <= 0 or self.issue_width <= 0:
            raise ConfigError("widths must be positive")
        if self.rob_size < self.rename_width:
            raise ConfigError("ROB smaller than rename width")
        if self.bq_miss_policy not in (BQ_MISS_SPECULATE, BQ_MISS_STALL):
            raise ConfigError("bad bq_miss_policy %r" % self.bq_miss_policy)
        if self.num_checkpoints < 0:
            raise ConfigError("negative checkpoint count")
        if self.front_end_depth < 1:
            raise ConfigError("front_end_depth must be >= 1")
        if self.deadlock_cycles < 1:
            raise ConfigError("deadlock_cycles must be >= 1")
        if self.max_cycles < 1:
            raise ConfigError("max_cycles must be >= 1")
        return self


def sandy_bridge_config(**overrides):
    """The paper's baseline core; keyword overrides replace any field."""
    return replace(CoreConfig(), **overrides).validate()


def memory_bound_config(**overrides):
    """Baseline core with proportionally scaled-down caches.

    The paper simulates 100M-instruction regions over multi-megabyte data
    structures, so its hard branches are fed from L2/L3/memory (Fig 2a).
    A pure-Python cycle simulator cannot stream gigabytes, so experiments
    that need memory-fed mispredictions (astar window scaling, DFD, the
    Fig 2b catalyst study) shrink the caches instead of growing the data:
    the *ratio* of footprint to each cache level — the thing that decides
    which level feeds a branch — is preserved.  Documented as a
    substitution in DESIGN.md.
    """
    from repro.memsys.cache import CacheConfig

    memory = MemoryHierarchyConfig(
        l1i=CacheConfig("L1I", 32 * 1024, 4, 64, hit_latency=1),
        l1d=CacheConfig("L1D", 8 * 1024, 4, 64, hit_latency=4),
        l2=CacheConfig("L2", 32 * 1024, 8, 64, hit_latency=12),
        l3=CacheConfig("L3", 128 * 1024, 16, 64, hit_latency=30),
        dram_latency=200,
        mshr_capacity=32,
    )
    merged = {"name": "sandy-bridge-like/memory-bound", "memory": memory}
    merged.update(overrides)
    return replace(CoreConfig(), **merged).validate()


#: The configs a command line (``--config``) or a service job spec can
#: name, each a factory taking field overrides.
NAMED_CONFIGS = {
    "baseline": sandy_bridge_config,
    "memory-bound": memory_bound_config,
}


def scale_window(config, rob_size):
    """Scale window resources with ROB size (paper Figs 2b, 21b, 23).

    The checkpoint policy and count stay fixed ("remain unchanged
    throughout our evaluation, even for studies that scale other window
    resources" — Section VI).
    """
    factor = rob_size / config.rob_size
    return replace(
        config,
        name="%s-rob%d" % (config.name, rob_size),
        rob_size=rob_size,
        iq_size=max(config.iq_size, int(round(config.iq_size * factor))),
        lq_size=max(config.lq_size, int(round(config.lq_size * factor))),
        sq_size=max(config.sq_size, int(round(config.sq_size * factor))),
    ).validate()
