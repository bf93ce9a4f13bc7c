"""Tests for per-processor cache directories (§5.2.1)."""

import pytest

from repro.cache.directory import CacheDirectory
from repro.cache.state import CacheLineState as S
from repro.core.block import Block


class TestDirectory:
    def test_fill_and_lookup(self):
        d = CacheDirectory(0, n_lines=8)
        d.fill(5, Block.of_values([1] * 4), S.VALID)
        line = d.lookup(5)
        assert line is not None
        assert line.state is S.VALID
        assert line.data.values == [1] * 4

    def test_miss_returns_none(self):
        d = CacheDirectory(0, n_lines=8)
        assert d.lookup(5) is None
        assert d.state_of(5) is S.INVALID

    def test_direct_mapped_eviction(self):
        d = CacheDirectory(0, n_lines=8)
        d.fill(5, Block.of_values([1] * 4), S.VALID)
        d.fill(13, Block.of_values([2] * 4), S.VALID)  # same line (13 % 8)
        assert d.lookup(5) is None
        assert d.lookup(13) is not None

    def test_tag_disambiguates_same_line(self):
        d = CacheDirectory(0, n_lines=8)
        d.fill(5, Block.of_values([1] * 4), S.VALID)
        assert d.lookup(13) is None  # same index, different tag

    def test_invalidate(self):
        d = CacheDirectory(0, n_lines=8)
        d.fill(5, Block.of_values([1] * 4), S.VALID)
        assert d.invalidate(5) is True
        assert d.lookup(5) is None
        assert d.invalidations_received == 1
        assert d.invalidate(5) is False  # already gone

    def test_dirty_offsets(self):
        d = CacheDirectory(0, n_lines=8)
        d.fill(1, Block.of_values([1] * 4), S.DIRTY)
        d.fill(2, Block.of_values([2] * 4), S.VALID)
        assert d.dirty_offsets() == [1]

    def test_fill_clears_wb_disabled(self):
        d = CacheDirectory(0, n_lines=8)
        line = d.fill(1, Block.of_values([1] * 4), S.DIRTY)
        line.wb_disabled = True
        d.fill(1, Block.of_values([2] * 4), S.VALID)
        assert d.lookup(1).wb_disabled is False

    def test_fill_rejects_invalid_state(self):
        # lookup trusts the tag alone, so no line may carry a tag while
        # INVALID.
        d = CacheDirectory(0, n_lines=8)
        with pytest.raises(ValueError):
            d.fill(5, Block.of_values([1] * 4), S.INVALID)
        assert d.lookup(5) is None

    def test_invalid_line_count(self):
        with pytest.raises(ValueError):
            CacheDirectory(0, n_lines=0)
