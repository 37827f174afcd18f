"""TAGE and ISL-TAGE (TAGE + loop predictor + statistical corrector).

The paper's baseline predictor is 64 KB ISL-TAGE, winner of CBP3.  This is
a faithful-in-structure reimplementation at model scale: a bimodal base
table, geometrically spaced tagged tables with usefulness counters and the
standard allocation/aging policy, the ``use_alt_on_na`` newly-allocated
filter, a loop predictor, and a small statistical corrector that can veto
low-confidence TAGE predictions.

Global history is an integer bit-vector updated speculatively at fetch and
repaired from checkpoints on mispredictions (see
:class:`~repro.branch.base.BranchPredictor`).  The tables are indexed by
folded histories that are kept incrementally, as hardware does.

Every fetched, retired and warm-trained branch runs through here, so the
per-branch paths are written for the interpreter:

* Equal folds are kept once.  A fold is fixed by its history length and
  width, and a window no wider than its fold is the fold itself.  In the
  default geometry the 20 logical folds are 11 registers: each table's
  index fold is its second tag fold, the 4- and 8-bit windows fold to
  themselves at every width, and the corrector's 8-bit fold is table 1's
  index fold.
* The speculative state is one tuple, the history bits and then the
  distinct registers, so a snapshot is a reference and a restore one
  assignment.
* The shift rotates each register through a lookup table per fold width
  and reads each history length's outgoing bit once.  It and the index
  and tag computation are compiled once per geometry per process, on
  first use, and shared by every predictor of that geometry.
* Counters step inline, and the allocation orders are precomputed.
"""

from functools import lru_cache

from repro.branch.base import BranchPredictor, HistorySnapshot
from repro.branch.loop_pred import LoopPredictor

_DEFAULT_HISTORY_LENGTHS = (4, 8, 16, 32, 64, 128)


class _TaggedEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self):
        self.tag = 0
        self.ctr = 0  # signed, -4..3; >= 0 means taken
        self.useful = 0


def _compile(src, name, namespace=None):
    namespace = dict(namespace or {})
    exec(src, namespace)
    return namespace[name]


@lru_cache(maxsize=None)
def _rotations(bits):
    """Rotate-left-by-one tables for a *bits*-wide fold: entry ``b`` maps
    a fold to its rotation with direction bit ``b`` shifted in.  The
    rotation maps the lower half of the folds to the even numbers in
    order and the upper half to the odd ones."""
    evens, odds = range(0, 1 << bits, 2), range(1, 1 << bits, 2)
    return (*evens, *odds), (*odds, *evens)


@lru_cache(maxsize=None)
def _build_shift(folds, history_bits):
    """Compile the history shift for the logical *folds* ``(length,
    bits)``; returns ``(shift, slots)``.

    Register ``k`` of the state tuple (after the history at slot 0) holds
    the chunk-XOR fold of the low *length* history bits down to *bits*.
    A fold depends only on its length and width, and a window no wider
    than its fold is the window itself, so only the distinct ``(length,
    min(length, bits))`` pairs are kept: ``slots[i]`` is logical fold
    *i*'s position in the tuple.  ``shift(state, b)`` returns the state
    with direction *b* shifted in.  A window shifts like the history.  A
    folded register rotates left within its width through a lookup
    table, which also shifts in *b*; the history bit that left its window
    re-enters at ``length % bits`` and is cancelled there, so the fold
    stays exact.  Each length's outgoing bit is read once.  Cached per
    geometry: every predictor of that geometry shares the shift.
    """
    folds = [(length, min(length, bits)) for length, bits in folds]
    distinct = list(dict.fromkeys(folds))
    folded = [(length, bits) for length, bits in distinct if length > bits]
    widths = sorted({bits for _, bits in folded})
    lines = ["def _shift(s, b):", "    h = s[0]"]
    lines += ["    r%d = ROT%d[b]" % (w, w) for w in widths]
    lines += ["    o%d = h >> %d & 1" % (length, length - 1)
              for length in sorted({length for length, _ in folded})]
    terms = []
    for slot, (length, bits) in enumerate(distinct, 1):
        if length == bits:
            terms.append("((s[%d] << 1) | b) & %d" % (slot, (1 << bits) - 1))
            continue
        k = length % bits
        out = "o%d << %d" % (length, k) if k else "o%d" % length
        terms.append("r%d[s[%d]] ^ %s" % (bits, slot, out))
    lines.append("    return (((h << 1) | b) & %d, %s)"
                 % ((1 << history_bits) - 1, ", ".join(terms)))
    namespace = {"ROT%d" % w: _rotations(w) for w in widths}
    shift = _compile("\n".join(lines), "_shift", namespace)
    return shift, tuple(1 + distinct.index(fold) for fold in folds)


@lru_cache(maxsize=None)
def _build_index_tags(slots):
    """Compile the per-table index/tag computation for the fold *slots*
    of :func:`_build_shift` (three per table: index, tag, second tag).

    ``_it(parts, state)`` returns the index and tag lists as two list
    displays: no per-table loop, no appends.  *parts* is the PC's
    memoized ``(pc ^ (pc >> (t + 1))) & index_mask`` per table, then
    ``pc & tag_mask``.  No fold is wider than its mask, so no mask is
    left to apply.
    """
    tables = len(slots) // 3
    idx_terms = ["parts[%d] ^ s[%d]" % (t, slots[3 * t]) for t in range(tables)]
    tag_terms = ["parts[%d] ^ s[%d] ^ (s[%d] << 1)"
                 % (tables, slots[3 * t + 1], slots[3 * t + 2])
                 for t in range(tables)]
    src = "def _it(parts, s):\n    return [%s], [%s]" % (
        ", ".join(idx_terms), ", ".join(tag_terms))
    return _compile(src, "_it")


@lru_cache(maxsize=None)
def _allocation_orders(num_tables):
    """``orders[start][tick]``: the tables above a provider, rotated by
    the allocation tick (see :meth:`TAGEPredictor._allocate_raw`)."""
    orders = []
    for start in range(num_tables):
        candidates = tuple(range(start, num_tables))
        orders.append(tuple(
            candidates[tick % len(candidates):]
            + candidates[:tick % len(candidates)]
            for tick in range(3)))
    return tuple(orders)


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
        self._use_alt_on_na = 8  # 4-bit counter, >=8 means "use alt"
        self._update_count = 0
        self._alloc_tick = 0
        # (pc ^ (pc >> (t + 1))) & index_mask per table, then
        # pc & tag_mask, memoized per static PC.
        self._pc_parts = {}
        self._scan_order = tuple(range(self.num_tables - 1, -1, -1))
        self._alloc_orders = _allocation_orders(self.num_tables)
        # The speculative state: the history bits, then every distinct
        # folded history (see _build_shift), all folds of the empty
        # history.  _fold_slots[i] is logical fold i's tuple position.
        self._shift, self._fold_slots = _build_shift(
            tuple(self._folds()), self.history_lengths[-1] + 1)
        self._spec = (0,) * (1 + max(self._fold_slots))
        self._index_tags = _build_index_tags(
            self._fold_slots[:3 * self.num_tables])

    def _folds(self):
        """The logical folded histories as ``(length, bits)``: each
        table's index, tag and second tag fold."""
        return [(length, bits) for length in self.history_lengths
                for bits in (self.table_bits, self.tag_bits,
                             self.tag_bits - 1)]

    # -- history management -------------------------------------------------

    def speculative_update(self, pc, taken):
        self._spec = self._shift(self._spec, 1 if taken else 0)

    def snapshot(self):
        return HistorySnapshot(self._spec)

    def restore(self, snapshot):
        self._spec = snapshot.payload

    # -- predict and train ----------------------------------------------------

    def _scan(self, pc):
        """The one table scan: provider, alternate and TAGE prediction.

        Returns ``(indices, tags, provider, alt, entry, provider_pred,
        alt_pred, weak, base_index, pred)`` as a plain tuple — the meta
        :meth:`predict` hands the pipeline, and what
        :meth:`_train_tables` trains on.  *provider*/*alt* are table
        numbers (None for the base table), *entry* the provider entry,
        *weak* whether it is newly allocated, *pred* the TAGE
        prediction.  Entries are updated in place, never replaced, so
        *entry* is still the provider slot when the branch retires.
        """
        parts = self._pc_parts.get(pc)
        if parts is None:
            mask = self._index_mask
            parts = self._pc_parts[pc] = tuple(
                (pc ^ (pc >> (t + 1))) & mask for t in range(self.num_tables)
            ) + (pc & self._tag_mask,)
        indices, tags = self._index_tags(parts, self._spec)
        tables = self._tables
        provider = alt = None
        for table in self._scan_order:
            if tables[table][indices[table]].tag == tags[table]:
                if provider is None:
                    provider = table
                else:
                    alt = table
                    break
        base_index = pc & self._base_mask
        base_pred = self._base[base_index] >= 2
        alt_pred = (
            tables[alt][indices[alt]].ctr >= 0 if alt is not None else base_pred
        )
        if provider is not None:
            entry = tables[provider][indices[provider]]
            ctr = entry.ctr
            provider_pred = ctr >= 0
            weak = ctr == 0 or ctr == -1
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

    def _train_tables(self, taken, scan):
        """The one table update, on a :meth:`_scan` tuple.

        Trains the provider (and the alternate or base counter while the
        provider is newly allocated), allocates on a TAGE misprediction
        and periodically ages the usefulness bits.  Every counter
        saturates: ``v + (v < hi)`` counts up, ``v - (v > lo)`` down.
        """
        (indices, tags, provider, alt, entry, provider_pred, alt_pred,
         weak, base_index, tage_pred) = scan
        self._update_count += 1
        train_base = provider is None
        if not train_base:
            # use_alt_on_na: when a weak provider disagreed with alt,
            # learn which of the two to trust.
            if weak and provider_pred != alt_pred:
                v = self._use_alt_on_na
                self._use_alt_on_na = (
                    v + (v < 15) if alt_pred == taken else v - (v > 0))
            v = entry.ctr
            entry.ctr = v + (v < 3) if taken else v - (v > -4)
            if provider_pred != alt_pred:
                v = entry.useful
                entry.useful = (
                    v + (v < 3) if provider_pred == taken else v - (v > 0))
            # Train the alternate too when the provider is newly allocated.
            if entry.useful == 0:
                if alt is not None:
                    alt_entry = self._tables[alt][indices[alt]]
                    v = alt_entry.ctr
                    alt_entry.ctr = v + (v < 3) if taken else v - (v > -4)
                else:
                    train_base = True
        if train_base:
            base = self._base
            v = base[base_index]
            base[base_index] = v + (v < 3) if taken else v - (v > 0)
        if tage_pred != taken:
            self._allocate_raw(indices, tags, provider, taken)
        if self._update_count % self.u_reset_period == 0:
            self._age_useful_bits()

    def predict(self, pc):
        scan = self._scan(pc)
        return scan[-1], scan

    def update(self, pc, taken, meta=None):
        self._train_tables(taken, self._scan(pc) if meta is None else meta)

    def train(self, pc, taken):
        """Warm-mode training: :meth:`predict`, :meth:`update` and the
        history shift, without a meta travelling between them."""
        scan = self._scan(pc)
        self._train_tables(taken, scan)
        self._spec = self._shift(self._spec, 1 if taken else 0)
        return scan[-1]

    def _allocate_raw(self, indices, tags, provider, taken):
        start = (provider + 1) if provider is not None else 0
        if start >= self.num_tables:
            return
        # Deterministic pseudo-random start offset spreads allocations.
        self._alloc_tick = tick = (self._alloc_tick + 1) % 3
        tables = self._tables
        for table in self._alloc_orders[start][tick]:
            entry = tables[table][indices[table]]
            if entry.useful == 0:
                entry.tag = tags[table]
                entry.ctr = 0 if taken else -1
                return
        for table in range(start, self.num_tables):
            entry = tables[table][indices[table]]
            entry.useful -= entry.useful > 0

    def _age_useful_bits(self):
        for table in self._tables:
            for entry in table:
                entry.useful >>= 1

    def stats(self):
        live = sum(
            1 for table in self._tables for e in table if e.ctr != 0 or e.useful
        )
        return {"tables": self.num_tables, "live_entries": live}


@lru_cache(maxsize=None)
def _build_sc_read(slots, mask):
    """Compile the corrector read for fold *slots* (0: PC only).

    ``_sc(tables, s, pc)`` returns the ``(table, index)`` counter cells
    the branch selects, and the sum of their counters."""
    lines = ["def _sc(tables, s, pc):"]
    for j, slot in enumerate(slots):
        lines.append("    t%d = tables[%d]" % (j, j))
        lines.append("    i%d = (pc ^ s[%d]) & %d" % (j, slot, mask) if slot
                     else "    i%d = pc & %d" % (j, mask))
    cells = ["(t%d, i%d)" % (j, j) for j in range(len(slots))]
    counters = ["t%d[i%d]" % (j, j) for j in range(len(slots))]
    lines.append("    return [%s], %s" % (", ".join(cells), " + ".join(counters)))
    return _compile("\n".join(lines), "_sc")


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
        self._sc_threshold = 6
        # The corrector's folds ride the same registers as the TAGE
        # tables (they follow them in _folds; 0 marks the PC-only table).
        sc_slots = iter(self._fold_slots[3 * self.num_tables:])
        self._sc_read = _build_sc_read(
            tuple(next(sc_slots) if length else 0
                  for length in self.SC_HISTORY), sc_size - 1)

    def _folds(self):
        return super()._folds() + [
            (length, self.SC_TABLE_BITS) for length in self.SC_HISTORY if length
        ]

    def predict(self, pc):
        """TAGE, overridden by a trusted loop prediction or vetoed by the
        statistical corrector; meta is ``(scan, used_loop, loop_pred,
        sc_cells)``."""
        scan = self._scan(pc)
        loop_valid, loop_pred = self.loop.predict(pc)
        if loop_valid and self._loop_trust >= 4:
            return loop_pred, (scan, True, loop_pred, ())
        # Statistical corrector: vetoes only weak TAGE predictions.
        final = scan[-1]
        sc_cells, sc_sum = self._sc_read(self._sc_tables, self._spec, pc)
        sc_sum += 2 if final else -2  # bias toward TAGE
        if scan[7] and abs(sc_sum) >= self._sc_threshold:  # weak provider
            final = sc_sum >= 0
        return final, (scan, False, loop_pred, sc_cells)

    def update(self, pc, taken, meta=None):
        if meta is None:
            meta = (self._scan(pc), False, True, ())
        scan, used_loop, loop_pred, sc_cells = meta
        if used_loop:
            v = self._loop_trust
            self._loop_trust = v + (v < 7) if loop_pred == taken else max(v - 2, 0)
        self.loop.update(pc, taken)
        if taken:
            for table, idx in sc_cells:
                v = table[idx]
                table[idx] = v + (v < 31)
        else:
            for table, idx in sc_cells:
                v = table[idx]
                table[idx] = v - (v > -31)
        self._train_tables(taken, scan)

    def train(self, pc, taken):
        """Warm-mode training: :meth:`predict`, :meth:`update` and the
        history shift."""
        predicted, meta = self.predict(pc)
        self.update(pc, taken, meta)
        self._spec = self._shift(self._spec, 1 if taken else 0)
        return predicted
