"""Tests for the optional next-line prefetcher."""

from __future__ import annotations

from repro.cpu.cache import CacheHierarchy

BASE = 0x200000


class TestPrefetcher:
    def test_disabled_by_default(self):
        h = CacheHierarchy()
        h.access_data(BASE)
        assert h.prefetches == 0
        assert not h.l1d.peek(BASE + 64)

    def test_next_line_prefetched_on_miss(self):
        h = CacheHierarchy(prefetcher=True)
        h.access_data(BASE)
        assert h.prefetches == 1
        assert h.l1d.peek(BASE + 64)

    def test_sequential_stream_hits_after_warmup(self):
        h = CacheHierarchy(prefetcher=True)
        h.access_data(BASE)
        result = h.access_data(BASE + 64)
        assert result.l1_hit

    def test_page_strides_not_helped(self):
        """The fd-scan's 4 KB stride defeats a next-line prefetcher, which
        is why enabling it does not disturb the DOM calibration."""
        h = CacheHierarchy(prefetcher=True)
        h.access_data(BASE)
        assert not h.l1d.peek(BASE + 4096)
