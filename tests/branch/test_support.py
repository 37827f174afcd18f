"""BTB, RAS and JRS confidence estimator."""

from repro.branch import BranchTargetBuffer, JRSConfidenceEstimator, ReturnAddressStack


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(sets=16, ways=2)
        assert btb.lookup(0x40) is None
        btb.install(0x40, 0x80)
        assert btb.lookup(0x40) == 0x80

    def test_update_existing(self):
        btb = BranchTargetBuffer(sets=16, ways=2)
        btb.install(0x40, 0x80)
        btb.install(0x40, 0x90)
        assert btb.lookup(0x40) == 0x90

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(sets=1, ways=2)
        btb.install(0, 10)
        btb.install(1, 11)
        btb.lookup(0)  # refresh 0
        btb.install(2, 12)  # evicts 1
        assert btb.lookup(0) == 10
        assert btb.lookup(1) is None
        assert btb.lookup(2) == 12

    def test_stats(self):
        btb = BranchTargetBuffer(sets=4, ways=1)
        btb.lookup(0)
        btb.install(0, 4)
        btb.lookup(0)
        stats = btb.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert 0 < stats["hit_rate"] < 1


class TestRAS:
    def test_lifo(self):
        ras = ReturnAddressStack(4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10
        assert ras.pop() is None

    def test_depth_limit_drops_oldest(self):
        ras = ReturnAddressStack(2)
        for pc in (1, 2, 3):
            ras.push(pc)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_snapshot_restore(self):
        ras = ReturnAddressStack(4)
        ras.push(5)
        snap = ras.snapshot()
        ras.pop()
        ras.restore(snap)
        assert ras.pop() == 5


class TestConfidence:
    def test_becomes_confident_after_streak(self):
        conf = JRSConfidenceEstimator(threshold=4)
        pc = 0x20
        assert not conf.is_confident(pc)
        for _ in range(6):
            conf.update(pc, correct=True)
        assert conf.is_confident(pc)

    def test_single_mispredict_resets(self):
        conf = JRSConfidenceEstimator(threshold=4)
        pc = 0x20
        for _ in range(8):
            conf.update(pc, correct=True)
        conf.update(pc, correct=False)
        assert not conf.is_confident(pc)
