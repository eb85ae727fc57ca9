"""Tests for the simulated storage layer: pages, disk manager, buffer, stats."""

import pytest

from repro.storage.buffer_manager import BufferManager, BufferPoolFullError
from repro.storage.disk_manager import DiskManager
from repro.storage.page import PAGE_SIZE_BYTES, Page, entries_per_page
from repro.storage.stats import Counter, IOStats


class TestPage:
    def test_default_size_is_4kb(self):
        assert PAGE_SIZE_BYTES == 4096
        assert Page(page_id=0).size_bytes == 4096

    def test_pin_unpin(self):
        page = Page(page_id=1)
        page.pin()
        assert page.is_pinned
        page.unpin()
        assert not page.is_pinned

    def test_unpin_without_pin_raises(self):
        with pytest.raises(ValueError):
            Page(page_id=1).unpin()

    def test_entries_per_page(self):
        assert entries_per_page(80) == (4096 - 32) // 80
        assert entries_per_page(56, page_size_bytes=1024) == (1024 - 32) // 56

    def test_entries_per_page_minimum_fanout(self):
        assert entries_per_page(100_000) == 2

    def test_entries_per_page_invalid(self):
        with pytest.raises(ValueError):
            entries_per_page(0)
        with pytest.raises(ValueError):
            entries_per_page(10, header_bytes=64, page_size_bytes=64)


class TestDiskManager:
    def test_allocate_read_write(self):
        disk = DiskManager()
        page = disk.allocate(payload={"a": 1})
        assert page.page_id in disk
        fetched = disk.read(page.page_id)
        assert fetched.payload == {"a": 1}
        disk.write(fetched)
        assert disk.stats.physical.reads == 1
        assert disk.stats.physical.writes == 1

    def test_free_recycles_ids(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.free(page.page_id)
        new_page = disk.allocate()
        assert new_page.page_id == page.page_id

    def test_read_missing_raises(self):
        with pytest.raises(KeyError):
            DiskManager().read(42)

    def test_free_missing_raises(self):
        with pytest.raises(KeyError):
            DiskManager().free(42)

    def test_len_counts_pages(self):
        disk = DiskManager()
        disk.allocate()
        disk.allocate()
        assert len(disk) == 2


class TestBufferManager:
    def test_hit_does_not_touch_disk(self):
        buffer = BufferManager(capacity=4)
        page = buffer.new_page("payload")
        reads_before = buffer.stats.physical.reads
        fetched = buffer.fetch(page.page_id)
        assert fetched.payload == "payload"
        assert buffer.stats.physical.reads == reads_before
        assert buffer.stats.buffer.hits == 1

    def test_miss_reads_from_disk(self):
        buffer = BufferManager(capacity=2)
        pages = [buffer.new_page(i) for i in range(5)]  # forces evictions
        buffer.fetch(pages[0].page_id)
        assert buffer.stats.physical.reads >= 1
        assert buffer.stats.buffer.misses >= 1

    def test_lru_eviction_order(self):
        buffer = BufferManager(capacity=2)
        a = buffer.new_page("a")
        b = buffer.new_page("b")
        buffer.fetch(a.page_id)  # a becomes most recent
        buffer.new_page("c")  # evicts b
        assert a.page_id in buffer
        assert b.page_id not in buffer

    def test_dirty_page_written_back_on_eviction(self):
        buffer = BufferManager(capacity=1)
        a = buffer.new_page("a")
        buffer.mark_dirty(buffer.fetch(a.page_id))
        buffer.new_page("b")  # evicts dirty a -> physical write
        assert buffer.stats.physical.writes >= 1

    def test_pinned_pages_not_evicted(self):
        buffer = BufferManager(capacity=1)
        a = buffer.new_page("a")
        buffer.fetch(a.page_id).pin()
        with pytest.raises(BufferPoolFullError):
            buffer.new_page("b")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferManager(capacity=0)

    def test_flush_writes_dirty_pages(self):
        buffer = BufferManager(capacity=4)
        buffer.new_page("a")
        buffer.flush()
        assert buffer.stats.physical.writes >= 1

    def test_shared_stats_with_external_disk(self):
        disk = DiskManager()
        buffer = BufferManager(disk=disk, capacity=2)
        assert buffer.stats is disk.stats

    def test_conflicting_disk_and_stats_raises(self):
        disk = DiskManager()
        with pytest.raises(ValueError):
            BufferManager(disk=disk, capacity=2, stats=IOStats())

    def test_explicit_stats_matching_disk_is_honored(self):
        disk = DiskManager()
        buffer = BufferManager(disk=disk, capacity=2, stats=disk.stats)
        assert buffer.stats is disk.stats
        page = buffer.new_page("a")
        buffer.clear()
        buffer.fetch(page.page_id)
        # Every physical read lands on the one shared stats object, once.
        assert buffer.stats.physical.reads == 1

    def test_explicit_stats_without_disk_records_physical_io(self):
        stats = IOStats()
        buffer = BufferManager(capacity=2, stats=stats)
        assert buffer.stats is stats
        assert buffer.disk.stats is stats
        page = buffer.new_page("a")
        buffer.clear()
        buffer.fetch(page.page_id)
        assert stats.physical.reads == 1

    def test_hit_ratio(self):
        buffer = BufferManager(capacity=4)
        page = buffer.new_page("a")
        buffer.fetch(page.page_id)
        buffer.fetch(page.page_id)
        assert (buffer.stats.buffer.hits, buffer.stats.buffer.misses) == (2, 0)

    def test_free_page_removes_everywhere(self):
        buffer = BufferManager(capacity=4)
        page = buffer.new_page("a")
        buffer.free_page(page.page_id)
        assert page.page_id not in buffer
        assert page.page_id not in buffer.disk


class TestBufferPinning:
    def test_pin_fetches_and_survives_pressure(self):
        buffer = BufferManager(capacity=2)
        page = buffer.new_page("keep")
        buffer.pin(page.page_id)
        for index in range(5):
            buffer.new_page(f"filler-{index}")
        assert page.page_id in buffer, "pinned pages are never evicted"
        buffer.unpin(page.page_id)
        buffer.new_page("evicts-now")
        buffer.new_page("evicts-now-2")
        assert page.page_id not in buffer

    def test_unpin_underflow_raises(self):
        buffer = BufferManager(capacity=2)
        page = buffer.new_page("a")
        buffer.pin(page.page_id)
        buffer.unpin(page.page_id)
        with pytest.raises(ValueError):
            buffer.unpin(page.page_id)

    def test_unpin_non_resident_raises(self):
        buffer = BufferManager(capacity=2)
        with pytest.raises(KeyError):
            buffer.unpin(42)

    def test_pin_frontier_replaces_set(self):
        buffer = BufferManager(capacity=12)
        pages = [buffer.new_page(i) for i in range(3)]
        buffer.pin_frontier([pages[0].page_id, pages[1].page_id])
        assert pages[0].is_pinned and pages[1].is_pinned
        buffer.pin_frontier([pages[1].page_id, pages[2].page_id])
        assert not pages[0].is_pinned, "pages leaving the frontier are unpinned"
        assert pages[1].is_pinned and pages[2].is_pinned
        buffer.release_frontier()
        assert not any(page.is_pinned for page in pages)

    def test_pin_frontier_ignores_non_resident_and_never_fetches(self):
        buffer = BufferManager(capacity=2)
        page = buffer.new_page("a")
        for index in range(3):
            buffer.new_page(index)  # evicts "a"
        reads_before = buffer.stats.physical.reads
        buffer.pin_frontier([page.page_id])
        assert buffer.stats.physical.reads == reads_before
        assert buffer.frontier_page_ids == frozenset()

    def test_pin_frontier_respects_capacity_headroom(self):
        buffer = BufferManager(capacity=6)
        pages = [buffer.new_page(i) for i in range(5)]
        buffer.pin_frontier([page.page_id for page in pages])
        # capacity - 4 = 2 frames may be pinned, never more.
        assert len(buffer.frontier_page_ids) == 2
        buffer.release_frontier()

    def test_frontier_page_freed_mid_sweep_is_unpinned(self):
        buffer = BufferManager(capacity=12)
        page = buffer.new_page("a")
        buffer.pin_frontier([page.page_id])
        buffer.free_page(page.page_id)
        assert buffer.frontier_page_ids == frozenset()
        assert not page.is_pinned

    def test_batch_hints_can_be_disabled(self):
        buffer = BufferManager(capacity=12)
        buffer.batch_hints_enabled = False
        page = buffer.new_page("a")
        buffer.pin_frontier([page.page_id])
        assert not page.is_pinned
        buffer.advise_sequential(True)
        assert buffer._sequential_depth == 0

    def test_sequential_hint_prefers_recent_clean_victim(self):
        buffer = BufferManager(capacity=2)
        old = buffer.new_page("old")
        recent = buffer.new_page("recent")
        buffer.flush()  # both pages clean
        buffer.fetch(old.page_id)
        buffer.fetch(recent.page_id)  # LRU victim would be `old`
        buffer.advise_sequential(True)
        try:
            buffer.new_page("filler")
            assert old.page_id in buffer, "sequential eviction spares older pages"
            assert recent.page_id not in buffer
        finally:
            buffer.advise_sequential(False)

    def test_sequential_hint_leaves_dirty_pages_to_lru(self):
        buffer = BufferManager(capacity=2)
        old = buffer.new_page("old")
        recent = buffer.new_page("recent")
        buffer.flush()
        buffer.fetch(old.page_id)
        buffer.mark_dirty(buffer.fetch(recent.page_id))  # MRU but dirty
        buffer.advise_sequential(True)
        try:
            writes_before = buffer.stats.physical.writes
            buffer.new_page("filler")
            # The dirty MRU page is spared; plain LRU evicts the clean old
            # page with no eager write-back.
            assert recent.page_id in buffer
            assert old.page_id not in buffer
            assert buffer.stats.physical.writes == writes_before
        finally:
            buffer.advise_sequential(False)

    def test_buffer_hit_miss_recorded_in_stats(self):
        buffer = BufferManager(capacity=2)
        page = buffer.new_page("a")
        buffer.fetch(page.page_id)  # hit
        for index in range(3):
            buffer.new_page(index)  # evict "a"
        buffer.fetch(page.page_id)  # miss
        assert buffer.stats.buffer.hits == 1
        assert buffer.stats.buffer.misses == 1
        assert buffer.stats.logical.reads == 2


class TestIOStats:
    def test_counter_arithmetic(self):
        counter = Counter(reads=5, writes=2)
        assert counter.total == 7
        assert counter == Counter(reads=5, writes=2)
        assert counter != Counter(reads=2, writes=5)

    def test_record_methods_feed_the_three_counters(self):
        stats = IOStats()
        stats.record_physical_read(3)
        stats.record_physical_write(2)
        stats.record_logical_read()
        stats.record_logical_write()
        stats.record_buffer_hit()
        stats.record_buffer_miss()
        assert stats.physical == Counter(reads=3, writes=2)
        assert stats.physical.total == 5
        assert stats.logical == Counter(reads=1, writes=1)
        assert (stats.buffer.hits, stats.buffer.misses) == (1, 1)
