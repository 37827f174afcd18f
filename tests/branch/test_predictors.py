"""Direction predictors: learning behavior and accuracy profiles.

These tests pin the *profile* the CFD evaluation depends on: a modern
predictor is near-perfect on regular control flow and near-coin-flip on
i.i.d. random predicates (the separable-branch inputs).
"""

import hashlib
import json
import os
import random

import numpy as np
import pytest

from repro.branch import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    BTFNPredictor,
    GSharePredictor,
    ISLTAGEPredictor,
    NotTakenPredictor,
    PerfectPredictor,
    TAGEPredictor,
    make_predictor,
)


def _accuracy(predictor, outcomes, pc=0x40):
    correct = 0
    for taken in outcomes:
        predicted, meta = predictor.predict(pc)
        predictor.speculative_update(pc, taken)
        predictor.update(pc, taken, meta)
        if predicted == taken:
            correct += 1
    return correct / len(outcomes)


def _pattern(pattern, reps):
    return [bool(b) for b in pattern] * reps


class TestStatic:
    def test_always_and_never(self):
        assert AlwaysTakenPredictor().predict(0)[0] is True
        assert NotTakenPredictor().predict(0)[0] is False

    def test_btfn_uses_target_direction(self):
        predictor = BTFNPredictor(target_of=lambda pc: pc - 4)
        assert predictor.predict(100)[0] is True
        predictor.set_target_resolver(lambda pc: pc + 4)
        assert predictor.predict(100)[0] is False

    def test_btfn_without_resolver(self):
        assert BTFNPredictor().predict(10)[0] is False


class TestBimodal:
    def test_learns_bias(self):
        predictor = BimodalPredictor(table_bits=8)
        accuracy = _accuracy(predictor, [True] * 100)
        assert accuracy > 0.95

    def test_struggles_on_alternation_window(self):
        predictor = BimodalPredictor(table_bits=8)
        accuracy = _accuracy(predictor, _pattern((1, 0), 200))
        assert accuracy < 0.7  # bimodal cannot track alternation


class TestGShare:
    def test_learns_short_pattern(self):
        predictor = GSharePredictor(table_bits=12, history_bits=8)
        accuracy = _accuracy(predictor, _pattern((1, 1, 0), 400))
        assert accuracy > 0.9

    def test_history_snapshot_restore(self):
        predictor = GSharePredictor()
        predictor.speculative_update(0, True)
        snap = predictor.snapshot()
        predictor.speculative_update(0, False)
        predictor.restore(snap)
        assert predictor.snapshot().payload == snap.payload


class TestTAGE:
    def test_learns_long_pattern(self):
        predictor = TAGEPredictor()
        accuracy = _accuracy(predictor, _pattern((1, 1, 1, 0, 1, 0, 0, 1), 400))
        assert accuracy > 0.9

    def test_near_chance_on_random(self):
        rng = np.random.default_rng(7)
        outcomes = [bool(b) for b in rng.integers(0, 2, 4000)]
        accuracy = _accuracy(TAGEPredictor(), outcomes)
        assert 0.4 < accuracy < 0.62  # no predictor beats a fair coin

    def test_biased_random_tracks_bias(self):
        rng = np.random.default_rng(8)
        outcomes = [bool(r < 0.9) for r in rng.random(3000)]
        accuracy = _accuracy(TAGEPredictor(), outcomes)
        assert accuracy > 0.85

    def test_history_repair(self):
        predictor = TAGEPredictor()
        for taken in _pattern((1, 0, 1, 1), 50):
            _, meta = predictor.predict(0x10)
            predictor.speculative_update(0x10, taken)
            predictor.update(0x10, taken, meta)
        snap = predictor.snapshot()
        predictor.speculative_update(0x10, True)
        predictor.speculative_update(0x10, True)
        predictor.restore(snap)
        assert predictor.snapshot().payload == snap.payload


class TestISLTAGE:
    def test_loop_predictor_catches_fixed_trip_count(self):
        """A loop-back branch taken exactly 7 times then not-taken once:
        the loop predictor should learn the exit."""
        predictor = ISLTAGEPredictor()
        outcomes = ([True] * 7 + [False]) * 120
        accuracy = _accuracy(predictor, outcomes)
        assert accuracy > 0.97

    def test_outperforms_plain_tage_on_loops(self):
        outcomes = ([True] * 9 + [False]) * 100
        isl = _accuracy(ISLTAGEPredictor(), outcomes)
        plain = _accuracy(TAGEPredictor(), outcomes)
        assert isl >= plain

    def test_random_loop_counts_stay_hard(self):
        rng = np.random.default_rng(9)
        outcomes = []
        for _ in range(250):
            outcomes.extend([True] * int(rng.integers(0, 9)))
            outcomes.append(False)
        accuracy = _accuracy(ISLTAGEPredictor(), outcomes)
        assert accuracy < 0.9  # data-dependent exits are unpredictable


class TestPerfect:
    def test_serves_recorded_outcomes(self):
        predictor = PerfectPredictor({0x10: [True, False, True]})
        assert [predictor.predict(0x10)[0] for _ in range(3)] == [True, False, True]

    def test_unknown_pc_and_exhaustion(self):
        predictor = PerfectPredictor({0x10: [True]})
        assert predictor.predict(0x99)[0] is False
        predictor.predict(0x10)
        assert predictor.predict(0x10)[0] is False

    def test_cursor_snapshot_restore(self):
        predictor = PerfectPredictor({0x10: [True, False]})
        snap = predictor.snapshot()
        predictor.predict(0x10)
        predictor.restore(snap)
        assert predictor.predict(0x10)[0] is True


class TestRegistry:
    @pytest.mark.parametrize(
        "name",
        ["always_taken", "not_taken", "btfn", "bimodal", "gshare", "tage",
         "isl_tage", "perfect"],
    )
    def test_factory(self, name):
        predictor = make_predictor(name)
        assert predictor.name == name or predictor.name in name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_predictor("oracle9000")


class TestTAGEInternals:
    def test_useful_bit_aging(self):
        predictor = TAGEPredictor(u_reset_period=64)
        # train a strongly-correlated pattern so tagged entries allocate
        # and become useful, then confirm the periodic aging halves them
        outcomes = _pattern((1, 0, 0, 1, 1, 0), 40)
        _accuracy(predictor, outcomes, pc=0x30)
        useful_before = sum(
            e.useful for table in predictor._tables for e in table
        )
        _accuracy(predictor, outcomes[:64], pc=0x30)
        # aging ran at least once (period 64 << updates); bits can only
        # have been halved or re-earned, never grown monotonically
        assert predictor._update_count > 64
        assert useful_before >= 0  # smoke: structures intact

    def test_allocation_on_mispredicts_populates_tables(self):
        predictor = TAGEPredictor()
        rng = np.random.default_rng(3)
        outcomes = [bool(b) for b in rng.integers(0, 2, 500)]
        _accuracy(predictor, outcomes, pc=0x50)
        assert predictor.stats()["live_entries"] > 10

    def test_distinct_pcs_do_not_alias_catastrophically(self):
        predictor = TAGEPredictor()
        # two branches with opposite fixed biases
        for _ in range(300):
            for pc, taken in ((0x100, True), (0x23C, False)):
                predicted, meta = predictor.predict(pc)
                predictor.speculative_update(pc, taken)
                predictor.update(pc, taken, meta)
        correct = 0
        for pc, taken in ((0x100, True), (0x23C, False)):
            predicted, _ = predictor.predict(pc)
            correct += predicted == taken
        assert correct == 2

    @pytest.mark.parametrize("geometry", [
        {},
        {"table_bits": 9, "tag_bits": 12, "history_lengths": (3, 11, 40)},
    ])
    @pytest.mark.parametrize("cls", [TAGEPredictor, ISLTAGEPredictor])
    def test_folded_registers_fold_the_history(self, cls, geometry):
        """Every logical fold, read through its register, is the XOR of
        the history window's fold-wide chunks, after shifts and after a
        restore."""
        def fold(history, length, bits):
            window, out = history & ((1 << length) - 1), 0
            while window:
                out ^= window & ((1 << bits) - 1)
                window >>= bits
            return out

        predictor = cls(**geometry)
        rng = random.Random(5)
        for step in range(400):
            predictor.speculative_update(0, rng.random() < 0.5)
            if step == 200:
                snap = predictor.snapshot()
        predictor.restore(snap)
        state = predictor._spec
        for (length, bits), slot in zip(predictor._folds(),
                                        predictor._fold_slots):
            assert state[slot] == fold(state[0], length, bits)

    def test_second_predictor_compiles_nothing(self, monkeypatch):
        """The shift, index and corrector code is compiled once per
        geometry and shared."""
        from repro.branch import tage

        first = ISLTAGEPredictor(), TAGEPredictor()

        def refuse(*args):
            raise AssertionError("compiled again")

        monkeypatch.setattr(tage, "exec", refuse, raising=False)
        second = ISLTAGEPredictor(), TAGEPredictor()
        for a, b in zip(first, second):
            assert a._shift is b._shift
            assert a._index_tags is b._index_tags
        assert first[0]._sc_read is second[0]._sc_read


@pytest.fixture(scope="module")
def committed_branches():
    """``(pc, taken)`` of every predictor-trained branch on the committed
    path of ``astar_r1`` base/BigLakes (scale 0.125, 20k instructions),
    as a warm trace records them: 1,557 branches."""
    from repro.core import sandy_bridge_config
    from repro.core.pipeline import Pipeline
    from repro.core.warm import _E_BR, _E_BR_T, record_portable_trace
    from repro.workloads import get_workload

    program = get_workload("astar_r1").build(
        "base", "BigLakes", 0.125, 1
    ).program
    trace = record_portable_trace(
        Pipeline(program, sandy_bridge_config()), 20_000
    )
    return [(pc, kind == _E_BR_T) for kind, pc in zip(trace.kinds, trace.a)
            if kind in (_E_BR, _E_BR_T)]


def _state(value):
    """A predictor's state as comparable plain data: histories, folded
    registers, tables, entries, counters.  The exec-compiled helpers are
    left out (they are built from the constructor's geometry)."""
    if isinstance(value, (list, tuple)):
        return [_state(item) for item in value]
    if isinstance(value, dict):
        return {key: _state(item) for key, item in value.items()}
    if callable(value):
        return None
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        return {name: _state(getattr(value, name)) for name in slots}
    if hasattr(value, "__dict__"):
        return {key: _state(item) for key, item in vars(value).items()}
    return value


@pytest.mark.parametrize("name", ["bimodal", "gshare", "tage", "isl_tage"])
def test_train_matches_predict_update(name, committed_branches):
    """Warm replay's ``train`` reaches the state the detailed core's
    ``predict`` -> ``speculative_update`` -> ``update`` reaches, and
    predicts the same direction at every step."""
    assert len(committed_branches) == 1557
    fused = make_predictor(name)
    stepped = make_predictor(name)
    loop_used = 0
    for step, (pc, taken) in enumerate(committed_branches):
        predicted, meta = stepped.predict(pc)
        stepped.speculative_update(pc, taken)
        stepped.update(pc, taken, meta)
        assert fused.train(pc, taken) == predicted, "step %d" % step
        if name == "isl_tage":
            loop_used += meta[1]
    assert _state(fused) == _state(stepped)
    if name == "isl_tage":
        # The stream exercises every ISL-TAGE path: the loop predictor
        # (376 uses), the corrector (349 non-zero counters at the end)
        # and the tagged tables (160 tagged entries).
        assert loop_used > 100
        assert sum(1 for t in fused._sc_tables for c in t if c) > 100
        assert sum(1 for t in fused._tables for e in t if e.tag) > 100


# -- golden: every prediction and the end state, pinned ------------------

with open(os.path.join(os.path.dirname(__file__),
                       "golden_predictors.json")) as _fh:
    _PREDICTOR_GOLDEN = json.load(_fh)


def _golden_stream(committed_branches):
    """The committed stream, then 20,000 seeded ``(pc, taken)`` pairs.

    Half the random branches come from 24 hot PCs and half from 3,000
    cold ones.  Each PC is strongly biased, unbiased, or follows a short
    period, so the corrector's PC-indexed table reaches its ±31 bounds
    and the tagged tables allocate on many mispredictions."""
    rng = random.Random(2612)
    hot = [0x400 + 7 * i for i in range(24)]
    cold = [0x2000 + 3 * i for i in range(3000)]
    kinds = {pc: rng.randrange(4) for pc in hot + cold}
    visits = {}
    stream = list(committed_branches)
    for _ in range(20_000):
        pc = rng.choice(hot) if rng.random() < 0.5 else rng.choice(cold)
        count = visits[pc] = visits.get(pc, 0) + 1
        kind = kinds[pc]
        if kind == 0:
            taken = rng.random() < 0.97
        elif kind == 1:
            taken = rng.random() < 0.03
        elif kind == 2:
            taken = rng.random() < 0.5
        else:
            taken = count % 5 != 0
        stream.append((pc, taken))
    return stream


#: The pinned predictors.  ``tage_small`` has 16-entry tables: there an
#: allocation finds every candidate entry useful and decays them instead,
#: which the full-size tables never do on this stream.
_GOLDEN_PREDICTORS = {
    "tage": TAGEPredictor,
    "isl_tage": ISLTAGEPredictor,
    "tage_small": lambda: TAGEPredictor(table_bits=4, tag_bits=5),
}


def _golden_predictor(name):
    predictor = _GOLDEN_PREDICTORS[name]()
    # Small enough that the useful bits age 10 times over the stream,
    # large enough that they still saturate in between.
    predictor.u_reset_period = 2053
    return predictor


def _stepped_predictions(predictor, stream):
    """The detailed core's calls: ``predict``, ``snapshot`` and the
    speculative shift; on a mispredict three wrong-path shifts, then
    ``restore`` and the correct shift; then ``update``."""
    out = []
    for pc, taken in stream:
        predicted, meta = predictor.predict(pc)
        snap = predictor.snapshot()
        predictor.speculative_update(pc, predicted)
        if predicted != taken:
            predictor.speculative_update(pc + 1, True)
            predictor.speculative_update(pc + 2, False)
            predictor.speculative_update(pc + 3, True)
            predictor.restore(snap)
            predictor.speculative_update(pc, taken)
        predictor.update(pc, taken, meta)
        out.append(predicted)
    return out


def _fused_predictions(predictor, stream):
    return [predictor.train(pc, taken) for pc, taken in stream]


def _tagged_entries(predictor):
    """Every tagged entry as ``(tag, ctr, useful)``, table by table."""
    return [[(e.tag, e.ctr, e.useful) for e in table]
            for table in predictor._tables]


def _loop_entries(loop):
    """Every loop entry's five fields (None for an empty slot)."""
    return [None if e is None else
            (e.tag, e.past_iter, e.current_iter, e.confidence, e.age)
            for e in loop._table]


def _end_state(predictor):
    """A canonical dump of everything a prediction can read later.  The
    folded histories are left out: they are functions of the history."""
    state = {
        "history": predictor._spec[0],
        "tagged": _tagged_entries(predictor),
        "base": list(predictor._base),
        "use_alt_on_na": predictor._use_alt_on_na,
        "update_count": predictor._update_count,
        "alloc_tick": predictor._alloc_tick,
    }
    if isinstance(predictor, ISLTAGEPredictor):
        state["sc_tables"] = [list(t) for t in predictor._sc_tables]
        state["loop_trust"] = predictor._loop_trust
        state["loop"] = _loop_entries(predictor.loop)
    return state


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_record(name, stream):
    """What ``golden_predictors.json`` pins for predictor *name*."""
    record = {}
    for path, run in (("stepped", _stepped_predictions),
                      ("fused", _fused_predictions)):
        predictor = _golden_predictor(name)
        predictions = run(predictor, stream)
        state = _end_state(predictor)
        record[path] = {
            "predictions": hashlib.sha256(
                bytes(int(p) for p in predictions)).hexdigest(),
            "correct": sum(p == t for p, (_, t) in zip(predictions, stream)),
            "state": _digest(state),
        }
        if name == "isl_tage":
            flat = [c for t in state["sc_tables"] for c in t]
            record[path]["sc_bounds_reached"] = [min(flat), max(flat)]
    return record


@pytest.mark.parametrize("name", sorted(_GOLDEN_PREDICTORS))
def test_predictors_match_golden(name, committed_branches):
    """Every prediction on the stepped and the fused path, and the end
    state each reaches, equal the pinned digests.  The stream reaches
    paths the benchmark cases do not: useful-bit aging, the corrector at
    its ±31 bounds and failed allocations."""
    stream = _golden_stream(committed_branches)
    assert _digest(stream) == _PREDICTOR_GOLDEN["stream"]
    assert _golden_record(name, stream) == _PREDICTOR_GOLDEN[name]
