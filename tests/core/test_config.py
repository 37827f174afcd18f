"""Core configuration presets and validation."""

import pytest

from repro.core import memory_bound_config, sandy_bridge_config, scale_window
from repro.errors import ConfigError


def test_baseline_matches_paper_parameters():
    config = sandy_bridge_config()
    assert config.rob_size == 168
    assert config.iq_size == 54
    assert config.fetch_width == 4
    assert config.num_checkpoints == 8
    assert config.confidence_guided_checkpoints
    assert config.ooo_checkpoint_reclaim
    assert config.bq_size == 128
    assert config.tq_size == 256
    # minimum fetch-to-execute ~= 10 cycles (Table II discussion):
    # front-end depth + issue (1) + execute (1)
    assert 8 <= config.front_end_depth + 2 <= 12


def test_overrides():
    config = sandy_bridge_config(rob_size=256, predictor="gshare")
    assert config.rob_size == 256
    assert config.predictor == "gshare"


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        sandy_bridge_config(fetch_width=0)
    with pytest.raises(ConfigError):
        sandy_bridge_config(bq_miss_policy="guess")
    with pytest.raises(ConfigError):
        sandy_bridge_config(front_end_depth=0)


def test_max_cycles_must_be_positive():
    # The run loop tests the cap after a cycle, so a cap below 1 would
    # still simulate one cycle.
    for bad in (0, -1):
        with pytest.raises(ConfigError, match="max_cycles"):
            sandy_bridge_config(max_cycles=bad)
    assert sandy_bridge_config(max_cycles=1).max_cycles == 1


def test_scale_window_scales_proportionally():
    base = sandy_bridge_config()
    big = scale_window(base, 640)
    assert big.rob_size == 640
    assert big.iq_size > base.iq_size
    assert big.lq_size > base.lq_size
    # checkpoint policy unchanged (Section VI)
    assert big.num_checkpoints == base.num_checkpoints


def test_scale_window_never_shrinks_below_base():
    base = sandy_bridge_config()
    small = scale_window(base, 168)
    assert small.iq_size == base.iq_size


def test_memory_bound_preset_shrinks_caches():
    config = memory_bound_config()
    base = sandy_bridge_config()
    assert config.memory.l1d.size_bytes < base.memory.l1d.size_bytes
    assert config.memory.l3.size_bytes < base.memory.l3.size_bytes
    assert config.rob_size == base.rob_size  # core itself unchanged


def test_phys_regs_cover_rob_and_vq():
    config = sandy_bridge_config()
    assert config.num_phys_regs >= 32 + config.rob_size + config.vq_size
