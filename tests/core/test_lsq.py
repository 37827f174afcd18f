"""Load/store disambiguation policy."""

from repro.core.lsq import scan_older_stores


class _FakeUop:
    """The uop fields disambiguation reads; a store's ``addr`` is
    ``None`` until its AGU runs."""

    def __init__(self, seq, addr=None, is_byte=False, squashed=False):
        self.seq = seq
        self.addr = addr
        self.is_byte = is_byte
        self.squashed = squashed


def test_no_stores_reads_memory():
    action, other = scan_older_stores([], _FakeUop(10), 0x100, False)
    assert action == "memory"


def test_unknown_older_address_blocks():
    stores = [_FakeUop(5)]
    action, other = scan_older_stores(stores, _FakeUop(10), 0x100, False)
    assert action == "wait"


def test_younger_stores_ignored():
    stores = [_FakeUop(20, addr=0x100)]
    action, _ = scan_older_stores(stores, _FakeUop(10), 0x100, False)
    assert action == "memory"


def test_exact_match_forwards_youngest():
    stores = [_FakeUop(3, addr=0x100), _FakeUop(7, addr=0x100)]
    action, other = scan_older_stores(stores, _FakeUop(10), 0x100, False)
    assert action == "forward"
    assert other.seq == 7


def test_different_word_no_conflict():
    stores = [_FakeUop(3, addr=0x200)]
    action, _ = scan_older_stores(stores, _FakeUop(10), 0x100, False)
    assert action == "memory"


def test_size_mismatch_waits():
    # byte store overlapping a word load: conservative wait
    stores = [_FakeUop(3, addr=0x102, is_byte=True)]
    action, _ = scan_older_stores(stores, _FakeUop(10), 0x100, False)
    assert action == "wait"


def test_byte_load_from_byte_store_exact_forwards():
    stores = [_FakeUop(3, addr=0x102, is_byte=True)]
    action, _ = scan_older_stores(stores, _FakeUop(10), 0x102, True)
    assert action == "forward"


def test_byte_load_different_byte_same_word_waits():
    stores = [_FakeUop(3, addr=0x102, is_byte=True)]
    action, _ = scan_older_stores(stores, _FakeUop(10), 0x101, True)
    assert action == "wait"


def test_squashed_stores_ignored():
    stores = [_FakeUop(3, addr=0x100, squashed=True)]
    action, _ = scan_older_stores(stores, _FakeUop(10), 0x100, False)
    assert action == "memory"
