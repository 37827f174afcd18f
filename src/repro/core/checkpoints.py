"""Branch checkpoint pool (Section VI baseline exploration).

The paper's best-performing baseline policy — which we default to — is a
small pool (8) of checkpoints with out-of-order reclamation, allocated
only to low-confidence branches (JRS confidence estimator).  A branch
that could not take a checkpoint falls back to retirement recovery: its
misprediction is repaired when it reaches the ROB head, costing extra
cycles — which is precisely why more/smarter checkpoints matter.

A checkpoint bundles the RMT copy with the front-end snapshot (predictor
history, RAS, BQ/TQ fetch pointers, speculative TCR, oracle cursors) so a
single restore rewinds the whole speculative machine state.
"""

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


@dataclass(slots=True)
class FrontEndSnapshot:
    """Speculative front-end state captured when a branch is fetched."""

    predictor: Any = None
    ras: Any = None
    oracle: Any = None
    bq: Optional[Tuple] = None
    tq: Optional[Tuple] = None
    spec_tcr: int = 0


@dataclass
class Checkpoint:
    """One allocated checkpoint."""

    ckpt_id: int
    seq: int  # owning branch's sequence number
    rmt: list = field(default_factory=list)
    vq: Optional[Tuple] = None
    front_end: Optional[FrontEndSnapshot] = None


class CheckpointPool:
    """Fixed pool with out-of-order or in-order reclamation."""

    def __init__(self, capacity, ooo_reclaim=True):
        self.capacity = capacity
        self.ooo_reclaim = ooo_reclaim
        self._slots = {}  # ckpt_id -> Checkpoint
        self._next_id = 0

    @property
    def available(self):
        return self.capacity - len(self._slots)

    def allocate(self, seq, rmt, vq, front_end):
        """Allocate a checkpoint; returns its id or ``None`` if full."""
        if len(self._slots) >= self.capacity:
            return None
        ckpt_id = self._next_id
        self._next_id += 1
        self._slots[ckpt_id] = Checkpoint(
            ckpt_id=ckpt_id, seq=seq, rmt=rmt, vq=vq, front_end=front_end
        )
        return ckpt_id

    def get(self, ckpt_id):
        return self._slots.get(ckpt_id)

    def release(self, ckpt_id):
        """Free a checkpoint (no-op if already gone)."""
        self._slots.pop(ckpt_id, None)

    def release_younger(self, seq):
        """Free every checkpoint owned by a squashed (younger) branch."""
        doomed = [cid for cid, ckpt in self._slots.items() if ckpt.seq > seq]
        for cid in doomed:
            del self._slots[cid]

    def clear(self):
        self._slots.clear()
