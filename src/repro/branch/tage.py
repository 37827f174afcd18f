"""TAGE and ISL-TAGE (TAGE + loop predictor + statistical corrector).

The paper's baseline predictor is 64 KB ISL-TAGE, winner of CBP3.  This is
a faithful-in-structure reimplementation at model scale: a bimodal base
table, geometrically spaced tagged tables with usefulness counters and the
standard allocation/aging policy, the ``use_alt_on_na`` newly-allocated
filter, a loop predictor, and a small statistical corrector that can veto
low-confidence TAGE predictions.

Global history is an integer bit-vector updated speculatively at fetch and
repaired from checkpoints on mispredictions (see
:class:`~repro.branch.base.BranchPredictor`).
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.branch.base import BranchPredictor, HistorySnapshot, saturate
from repro.branch.loop_pred import LoopPredictor

_DEFAULT_HISTORY_LENGTHS = (4, 8, 16, 32, 64, 128)


class _TaggedEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self):
        self.tag = 0
        self.ctr = 0  # signed, -4..3; >= 0 means taken
        self.useful = 0


@dataclass(slots=True)
class _PredMeta:
    """Everything ``update`` needs about one prediction."""

    indices: List[int]
    tags: List[int]
    provider: Optional[int]  # table number, or None for base
    alt: Optional[int]
    provider_pred: bool
    alt_pred: bool
    base_index: int
    final_pred: bool
    used_loop: bool = False
    loop_pred: bool = True
    sc_indices: Tuple[int, ...] = ()
    tage_pred: bool = True
    weak_provider: bool = False


def _fold(history, in_bits, out_bits):
    """XOR-fold the low *in_bits* of *history* down to *out_bits*.

    The result is the XOR of consecutive *out_bits*-wide chunks.  Chunk
    folding is associative — folding by any multiple of *out_bits* first
    and then by *out_bits* XORs the same chunks — so we halve the chunk
    count each round (log passes) instead of peeling one chunk at a time.
    """
    if out_bits <= 0:
        return 0
    history &= (1 << in_bits) - 1
    while in_bits > out_bits:
        chunks = (in_bits + out_bits - 1) // out_bits
        half = (chunks + 1) // 2 * out_bits
        history = (history ^ (history >> half)) & ((1 << half) - 1)
        in_bits = half
    return history


class TAGEPredictor(BranchPredictor):
    """Plain TAGE (no loop predictor, no statistical corrector)."""

    name = "tage"

    U_RESET_PERIOD = 1 << 18

    def __init__(self, table_bits=10, tag_bits=11,
                 history_lengths=_DEFAULT_HISTORY_LENGTHS,
                 u_reset_period=None):
        self.u_reset_period = u_reset_period or self.U_RESET_PERIOD
        self.table_bits = table_bits
        self.tag_bits = tag_bits
        self.history_lengths = tuple(history_lengths)
        self.num_tables = len(self.history_lengths)
        size = 1 << table_bits
        self._tables = [
            [_TaggedEntry() for _ in range(size)] for _ in range(self.num_tables)
        ]
        self._base = [2] * (1 << 13)  # 2-bit bimodal base
        self._base_mask = (1 << 13) - 1
        self._index_mask = size - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._history = 0
        self._use_alt_on_na = 8  # 4-bit counter, >=8 means "use alt"
        self._update_count = 0
        self._alloc_tick = 0
        # pc ^ (pc >> (table + 1)) per table, memoized per static PC.
        self._pc_parts = {}
        # Incrementally-maintained folded histories (the hardware CSR
        # trick): register 3t+k holds _fold(history & (2^L - 1), L, B) for
        # table t's index/tag/tag2 fold width B.  speculative_update shifts
        # them in O(1) per register; restore() recomputes from scratch.
        # _fold_params rows are (L-1, B-1, 2^B - 1, L % B).
        params = []
        for length in self.history_lengths:
            for bits in (table_bits, tag_bits, tag_bits - 1):
                params.append((length - 1, bits - 1, (1 << bits) - 1, length % bits))
        self._fold_params = params
        self._fold_regs = [0] * len(params)  # folds of the empty history
        self._hist_mask = (1 << (self.history_lengths[-1] + 1)) - 1
        self._build_shift()
        self._build_index_tags()

    def _build_shift(self):
        """Compile the history-shift step with every constant inlined.

        One straight-line exec-generated function updates all folded
        registers and the history in a single call — the interpreted
        per-register loop would pay tuple unpacking and index arithmetic
        on every predicted branch.
        """
        lines = ["def _shift(regs, h, b):"]
        for i, (lm1, bm1, mask, topshift) in enumerate(self._fold_params):
            # Rotate the fold left within its B bits, then cancel the
            # history bit that left the L-bit window and shift in the new
            # direction bit.  This preserves the chunk-XOR fold exactly.
            lines.append("    f = regs[%d]" % i)
            lines.append("    f = ((f << 1) | (f >> %d)) & %d" % (bm1, mask))
            lines.append(
                "    regs[%d] = f ^ (((h >> %d) & 1) << %d) ^ b" % (i, lm1, topshift)
            )
        lines.append("    return ((h << 1) | b) & %d" % self._hist_mask)
        namespace = {}
        exec("\n".join(lines), namespace)
        self._shift = namespace["_shift"]

    def _build_index_tags(self):
        """Compile the per-table index/tag computation as two list displays
        (same rationale as :meth:`_build_shift`: no per-table loop, no
        appends, masks inlined as constants)."""
        idx_terms = []
        tag_terms = []
        for t in range(self.num_tables):
            i = 3 * t
            idx_terms.append(
                "(parts[%d] ^ regs[%d]) & %d" % (t, i, self._index_mask)
            )
            tag_terms.append(
                "(pc ^ regs[%d] ^ (regs[%d] << 1)) & %d"
                % (i + 1, i + 2, self._tag_mask)
            )
        src = "def _it(parts, regs, pc):\n    return [%s], [%s]" % (
            ", ".join(idx_terms),
            ", ".join(tag_terms),
        )
        namespace = {}
        exec(src, namespace)
        self._index_tags = namespace["_it"]

    # -- history management -------------------------------------------------

    def speculative_update(self, pc, taken):
        self._history = self._shift(
            self._fold_regs, self._history, 1 if taken else 0
        )

    def snapshot(self):
        return HistorySnapshot(self._history)

    def restore(self, snapshot):
        self._history = h = snapshot.payload
        regs = self._fold_regs
        i = 0
        for lm1, bm1, _mask, _topshift in self._fold_params:
            length = lm1 + 1
            regs[i] = _fold(h & ((1 << length) - 1), length, bm1 + 1)
            i += 1

    # -- predict -------------------------------------------------------------

    def _tage_predict(self, pc):
        parts = self._pc_parts.get(pc)
        if parts is None:
            parts = tuple(
                pc ^ (pc >> (t + 1)) for t in range(self.num_tables)
            )
            self._pc_parts[pc] = parts
        indices, tags = self._index_tags(parts, self._fold_regs, pc)
        provider = alt = None
        tables = self._tables
        for table in range(self.num_tables - 1, -1, -1):
            if tables[table][indices[table]].tag == tags[table]:
                if provider is None:
                    provider = table
                elif alt is None:
                    alt = table
                    break
        base_index = pc & self._base_mask
        base_pred = self._base[base_index] >= 2
        alt_pred = (
            self._tables[alt][indices[alt]].ctr >= 0 if alt is not None else base_pred
        )
        if provider is not None:
            entry = self._tables[provider][indices[provider]]
            provider_pred = entry.ctr >= 0
            weak = entry.ctr in (-1, 0)
            if weak and self._use_alt_on_na >= 8:
                final = alt_pred
            else:
                final = provider_pred
        else:
            provider_pred = base_pred
            weak = False
            final = base_pred
        return _PredMeta(
            indices=indices,
            tags=tags,
            provider=provider,
            alt=alt,
            provider_pred=provider_pred,
            alt_pred=alt_pred,
            base_index=base_index,
            final_pred=final,
            tage_pred=final,
            weak_provider=weak,
        )

    def predict(self, pc):
        meta = self._tage_predict(pc)
        return meta.final_pred, meta

    # -- fused warm-mode training ---------------------------------------------

    def _scan(self, pc):
        """The table scan of :meth:`_tage_predict` without the meta object.

        Returns the locals the fused train path needs as a plain tuple —
        warm mode trains on every committed branch, and the ``_PredMeta``
        allocation is pure overhead when nothing travels with the branch.
        """
        parts = self._pc_parts.get(pc)
        if parts is None:
            parts = tuple(
                pc ^ (pc >> (t + 1)) for t in range(self.num_tables)
            )
            self._pc_parts[pc] = parts
        indices, tags = self._index_tags(parts, self._fold_regs, pc)
        tables = self._tables
        provider = alt = None
        for table in range(self.num_tables - 1, -1, -1):
            if tables[table][indices[table]].tag == tags[table]:
                if provider is None:
                    provider = table
                elif alt is None:
                    alt = table
                    break
        base_index = pc & self._base_mask
        base_pred = self._base[base_index] >= 2
        alt_pred = (
            tables[alt][indices[alt]].ctr >= 0 if alt is not None else base_pred
        )
        if provider is not None:
            entry = tables[provider][indices[provider]]
            provider_pred = entry.ctr >= 0
            weak = entry.ctr in (-1, 0)
            if weak and self._use_alt_on_na >= 8:
                final = alt_pred
            else:
                final = provider_pred
        else:
            entry = None
            provider_pred = base_pred
            weak = False
            final = base_pred
        return (indices, tags, provider, alt, entry, provider_pred,
                alt_pred, weak, base_index, final)

    def _train_tables(self, taken, indices, tags, provider, alt, entry,
                      provider_pred, alt_pred, weak, base_index, tage_pred):
        """The table-update half of :meth:`update`, on :meth:`_scan` locals.

        Bit-identical to ``update(pc, taken, meta)`` — the provider entry,
        alternate, base counter, allocation and aging all see the same
        values in the same order.
        """
        self._update_count += 1
        if provider is not None:
            if weak and provider_pred != alt_pred:
                if alt_pred == taken:
                    self._use_alt_on_na = saturate(self._use_alt_on_na, 1, 0, 15)
                else:
                    self._use_alt_on_na = saturate(self._use_alt_on_na, -1, 0, 15)
            entry.ctr = saturate(entry.ctr, 1 if taken else -1, -4, 3)
            if provider_pred != alt_pred:
                entry.useful = saturate(
                    entry.useful, 1 if provider_pred == taken else -1, 0, 3
                )
            if entry.useful == 0:
                if alt is not None:
                    alt_entry = self._tables[alt][indices[alt]]
                    alt_entry.ctr = saturate(alt_entry.ctr, 1 if taken else -1, -4, 3)
                else:
                    self._update_base(base_index, taken)
        else:
            self._update_base(base_index, taken)
        if tage_pred != taken:
            self._allocate_raw(indices, tags, provider, taken)
        if self._update_count % self.u_reset_period == 0:
            self._age_useful_bits()

    def train(self, pc, taken):
        """Fused predict + speculative_update + update (warm mode)."""
        (indices, tags, provider, alt, entry, provider_pred, alt_pred,
         weak, base_index, final) = self._scan(pc)
        self._train_tables(taken, indices, tags, provider, alt, entry,
                           provider_pred, alt_pred, weak, base_index, final)
        self._history = self._shift(
            self._fold_regs, self._history, 1 if taken else 0
        )
        return final

    # -- update --------------------------------------------------------------

    def update(self, pc, taken, meta=None):
        if meta is None:
            meta = self._tage_predict(pc)
        self._update_count += 1
        mispredicted = meta.tage_pred != taken

        # use_alt_on_na management: when a weak provider disagreed with alt,
        # learn which of the two to trust.
        if meta.provider is not None and meta.weak_provider:
            if meta.provider_pred != meta.alt_pred:
                if meta.alt_pred == taken:
                    self._use_alt_on_na = saturate(self._use_alt_on_na, 1, 0, 15)
                else:
                    self._use_alt_on_na = saturate(self._use_alt_on_na, -1, 0, 15)

        if meta.provider is not None:
            entry = self._tables[meta.provider][meta.indices[meta.provider]]
            entry.ctr = saturate(entry.ctr, 1 if taken else -1, -4, 3)
            if meta.provider_pred != meta.alt_pred:
                entry.useful = saturate(
                    entry.useful, 1 if meta.provider_pred == taken else -1, 0, 3
                )
            # Train the alternate too when the provider is newly allocated.
            if entry.useful == 0:
                if meta.alt is not None:
                    alt_entry = self._tables[meta.alt][meta.indices[meta.alt]]
                    alt_entry.ctr = saturate(alt_entry.ctr, 1 if taken else -1, -4, 3)
                else:
                    self._update_base(meta.base_index, taken)
        else:
            self._update_base(meta.base_index, taken)

        if mispredicted:
            self._allocate(meta, taken)

        if self._update_count % self.u_reset_period == 0:
            self._age_useful_bits()

    def _update_base(self, index, taken):
        self._base[index] = saturate(self._base[index], 1 if taken else -1, 0, 3)

    def _allocate(self, meta, taken):
        self._allocate_raw(meta.indices, meta.tags, meta.provider, taken)

    def _allocate_raw(self, indices, tags, provider, taken):
        start = (provider + 1) if provider is not None else 0
        if start >= self.num_tables:
            return
        # Deterministic pseudo-random start offset spreads allocations.
        self._alloc_tick = (self._alloc_tick + 1) % 3
        candidates = list(range(start, self.num_tables))
        offset = self._alloc_tick % len(candidates)
        ordered = candidates[offset:] + candidates[:offset]
        for table in ordered:
            entry = self._tables[table][indices[table]]
            if entry.useful == 0:
                entry.tag = tags[table]
                entry.ctr = 0 if taken else -1
                entry.useful = 0
                return
        for table in candidates:
            entry = self._tables[table][indices[table]]
            entry.useful = saturate(entry.useful, -1, 0, 3)

    def _age_useful_bits(self):
        for table in self._tables:
            for entry in table:
                entry.useful >>= 1

    def stats(self):
        live = sum(
            1 for table in self._tables for e in table if e.ctr != 0 or e.useful
        )
        return {"tables": self.num_tables, "live_entries": live}


class ISLTAGEPredictor(TAGEPredictor):
    """TAGE + loop predictor + small statistical corrector (ISL-TAGE)."""

    name = "isl_tage"

    SC_TABLE_BITS = 10
    SC_HISTORY = (0, 8, 21)

    def __init__(self, table_bits=10, tag_bits=11,
                 history_lengths=_DEFAULT_HISTORY_LENGTHS):
        super().__init__(table_bits, tag_bits, history_lengths)
        self.loop = LoopPredictor()
        self._loop_trust = 4  # 0..7; >=4 means trust a confident loop pred
        sc_size = 1 << self.SC_TABLE_BITS
        self._sc_tables = [[0] * sc_size for _ in self.SC_HISTORY]
        self._sc_mask = sc_size - 1
        self._sc_threshold = 6
        # The corrector's folds ride the same incremental registers as the
        # TAGE tables: append one register per non-zero SC history length
        # (appending keeps the TAGE registers at their expected offsets).
        self._sc_reg_base = len(self._fold_params)
        bits = self.SC_TABLE_BITS
        for length in self.SC_HISTORY:
            if length:
                self._fold_params.append(
                    (length - 1, bits - 1, (1 << bits) - 1, length % bits)
                )
                self._fold_regs.append(0)
        self._build_shift()  # re-unroll with the corrector registers included

    def predict(self, pc):
        meta = self._tage_predict(pc)
        final = meta.final_pred

        loop_valid, loop_pred = self.loop.predict(pc)
        if loop_valid and self._loop_trust >= 4:
            meta.used_loop = True
            meta.loop_pred = loop_pred
            final = loop_pred
        else:
            # Statistical corrector: vetoes only weak TAGE predictions.
            regs = self._fold_regs
            sc_mask = self._sc_mask
            sc_indices = []
            j = self._sc_reg_base
            for h in self.SC_HISTORY:
                if h:
                    sc_indices.append((pc ^ regs[j]) & sc_mask)
                    j += 1
                else:
                    sc_indices.append(pc & sc_mask)
            sc_indices = tuple(sc_indices)
            meta.sc_indices = sc_indices
            sc_sum = sum(
                table[idx] for table, idx in zip(self._sc_tables, sc_indices)
            )
            sc_sum += 2 * (1 if final else -1)  # bias toward TAGE
            if meta.weak_provider and abs(sc_sum) >= self._sc_threshold:
                final = sc_sum >= 0

        meta.final_pred = final
        return final, meta

    def update(self, pc, taken, meta=None):
        if meta is not None:
            if meta.used_loop:
                self._loop_trust = saturate(
                    self._loop_trust, 1 if meta.loop_pred == taken else -2, 0, 7
                )
            self.loop.update(pc, taken)
            for table, idx in zip(self._sc_tables, meta.sc_indices):
                table[idx] = saturate(table[idx], 1 if taken else -1, -31, 31)
        else:
            self.loop.update(pc, taken)
        super().update(pc, taken, meta)

    def train(self, pc, taken):
        """Fused ISL-TAGE warm training (same state as predict/update)."""
        (indices, tags, provider, alt, entry, provider_pred, alt_pred,
         weak, base_index, tage_pred) = self._scan(pc)
        final = tage_pred
        loop_valid, loop_pred = self.loop.predict(pc)
        used_loop = loop_valid and self._loop_trust >= 4
        sc_indices = None
        if used_loop:
            final = loop_pred
        else:
            regs = self._fold_regs
            sc_mask = self._sc_mask
            sc_indices = []
            j = self._sc_reg_base
            for h in self.SC_HISTORY:
                if h:
                    sc_indices.append((pc ^ regs[j]) & sc_mask)
                    j += 1
                else:
                    sc_indices.append(pc & sc_mask)
            sc_sum = sum(
                table[idx] for table, idx in zip(self._sc_tables, sc_indices)
            )
            sc_sum += 2 * (1 if final else -1)
            if weak and abs(sc_sum) >= self._sc_threshold:
                final = sc_sum >= 0
        if used_loop:
            self._loop_trust = saturate(
                self._loop_trust, 1 if loop_pred == taken else -2, 0, 7
            )
        self.loop.update(pc, taken)
        if sc_indices is not None:
            sc_tables = self._sc_tables
            for table, idx in zip(sc_tables, sc_indices):
                table[idx] = saturate(table[idx], 1 if taken else -1, -31, 31)
        self._train_tables(taken, indices, tags, provider, alt, entry,
                           provider_pred, alt_pred, weak, base_index,
                           tage_pred)
        self._history = self._shift(
            self._fold_regs, self._history, 1 if taken else 0
        )
        return final
