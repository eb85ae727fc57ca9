"""LRU buffer manager with batch-aware sweep hints.

The paper's experiments use a 50-page RAM buffer (Table 1); leaf accesses
therefore dominate physical I/O because interior nodes tend to stay
resident.  The buffer manager implements standard steal/no-force LRU
buffering over the :class:`~repro.storage.DiskManager`:

* a buffer hit costs no physical I/O;
* a miss costs one physical read (plus one physical write if the evicted
  frame is dirty);
* pinned pages are never evicted.

Two *advisory* hints let the execution layer above describe a key-ordered
batch sweep (the B+-tree's ``apply_batch`` / ``range_search_batch``) so the
replacement policy stops working against it:

* :meth:`pin_frontier` pins the sweep's current cursor pages (leaf plus
  parent) so the frontier cannot be evicted mid-batch by the sweep's own
  leaf traffic (the B+-tree's update sweep holds the same pins directly on
  its cursor pages, which is cheaper when only one cursor moves at a
  time);
* :meth:`advise_sequential` prefers evicting the most recently used *clean*
  unpinned page while a sweep is running.  Under a sweep, that page is the
  leaf the sweep just moved past — which will not be revisited (keys only
  ascend) — whereas the LRU victim is typically a root or interior page
  every later descent still needs.  This is the classic defense against
  sequential flooding; dirty pages keep normal LRU treatment so the hint
  never forces eager write-backs.

Both hints are advisory: they never change which pages a caller sees, only
which frame is evicted, and :attr:`batch_hints_enabled` turns them into
no-ops so benchmarks can measure their effect.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional

from repro.storage.disk_manager import DiskManager
from repro.storage.page import Page
from repro.storage.stats import IOStats

#: RAM buffer size used throughout the experiments (Table 1 of the paper).
DEFAULT_BUFFER_PAGES = 50


class BufferPoolFullError(RuntimeError):
    """Raised when every frame in the pool is pinned and a new page is needed."""


class BufferManager:
    """A fixed-capacity LRU page buffer."""

    def __init__(
        self,
        disk: Optional[DiskManager] = None,
        capacity: int = DEFAULT_BUFFER_PAGES,
        stats: Optional[IOStats] = None,
    ) -> None:
        """Create a buffer over ``disk`` (a private disk is created if omitted).

        The buffer and its disk always share one :class:`IOStats` object so
        every physical read/write is counted exactly once.  Passing both a
        ``disk`` and a ``stats`` is only allowed when they already agree —
        silently preferring either object would leave the caller watching
        counters that the other half of the I/O never reaches.
        """
        if capacity < 1:
            raise ValueError("buffer capacity must be at least one page")
        if disk is not None and stats is not None and disk.stats is not stats:
            raise ValueError(
                "conflicting IOStats: the disk manager already records into its "
                "own stats object; pass either disk or stats, or the disk's own "
                "stats object"
            )
        if disk is not None:
            self.stats = disk.stats
        else:
            self.stats = stats if stats is not None else IOStats()
        self.disk = disk if disk is not None else DiskManager(self.stats)
        self.capacity = capacity
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        #: Master switch for the sweep hints; benchmarks flip it off to
        #: measure the unhinted replacement policy on identical traffic.
        self.batch_hints_enabled = True
        self._frontier: Dict[int, Page] = {}
        self._sequential_depth = 0

    # ------------------------------------------------------------------
    # Page lifecycle
    # ------------------------------------------------------------------
    def new_page(self, payload: Any = None) -> Page:
        """Allocate a new page and cache it (dirty) in the buffer.

        Room is made *before* the page is allocated: if evicting a dirty
        victim fails (e.g. an injected :class:`PageWriteError`), the error
        surfaces with the pool unchanged and no orphan page allocated on
        disk — a retry starts from a clean slate.
        """
        self._ensure_capacity()
        page = self.disk.allocate(payload)
        page.mark_dirty()
        self._frames[page.page_id] = page
        return page

    def fetch(self, page_id: int) -> Page:
        """Fetch a page, reading it from disk on a miss.

        The miss path is exception-safe against disk faults: room is made
        first (an eviction write-back failure leaves the victim resident
        and dirty), the disk read runs second (a read failure leaves the
        pool untouched), and only then is the frame admitted — a plain
        dictionary insert that cannot fail.  A failed fetch therefore
        never leaves a half-admitted frame, and retrying it costs exactly
        one extra logical read + buffer miss per failed attempt.
        """
        self.stats.record_logical_read()
        if page_id in self._frames:
            self.stats.record_buffer_hit()
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        self.stats.record_buffer_miss()
        self._ensure_capacity()
        page = self.disk.read(page_id)
        self._frames[page_id] = page
        return page

    def mark_dirty(self, page: Page) -> None:
        """Record a modification of a buffered page."""
        self.stats.record_logical_write()
        page.mark_dirty()

    def resident_page(self, page_id: int) -> Optional[Page]:
        """The resident frame for ``page_id``, or None if it is not buffered.

        Unlike :meth:`fetch` this performs no I/O and records no access: it
        exists so a batch sweep that already holds a node (its cursor) can
        mark the node's page dirty without paying — or accounting — a second
        fetch of a page it provably has in hand.
        """
        return self._frames.get(page_id)

    def free_page(self, page_id: int) -> None:
        """Drop a page from the buffer and the disk (e.g. after a node merge)."""
        frontier_page = self._frontier.pop(page_id, None)
        if frontier_page is not None:
            frontier_page.unpin()
        self._frames.pop(page_id, None)
        self.disk.free(page_id)

    def flush(self) -> None:
        """Write every dirty buffered page back to disk."""
        for page in self._frames.values():
            if page.dirty:
                self.disk.write(page)

    def clear(self) -> None:
        """Flush and empty the buffer (keeps the disk contents)."""
        self.release_frontier()
        self.flush()
        self._frames.clear()

    def __enter__(self) -> "BufferManager":
        """Context-manager support: ``with buffer: ...`` flushes on exit.

        The durable backend only persists what reaches the disk manager,
        so scopes that mutate an index flush their dirty frames on the way
        out — including the exceptional way out, where losing the writes
        on top of the exception would compound the failure.
        """
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()

    # ------------------------------------------------------------------
    # Explicit pinning
    # ------------------------------------------------------------------
    def pin(self, page_id: int) -> Page:
        """Fetch ``page_id`` and pin it; the caller must :meth:`unpin` it.

        Pinned pages are never evicted; when every frame is pinned and a new
        page is needed, :class:`BufferPoolFullError` is raised.
        """
        page = self.fetch(page_id)
        page.pin()
        return page

    def unpin(self, page_id: int) -> None:
        """Release one pin on a resident page.

        Raises:
            KeyError: if the page is not resident (a pinned page cannot have
                been evicted, so this always indicates a caller bug).
            ValueError: if the page's pin count would underflow.
        """
        page = self._frames.get(page_id)
        if page is None:
            raise KeyError(f"page {page_id} is not resident; cannot unpin")
        page.unpin()

    # ------------------------------------------------------------------
    # Batch sweep hints (advisory)
    # ------------------------------------------------------------------
    def pin_frontier(self, page_ids: Iterable[int]) -> None:
        """Replace the sweep-frontier pin set with ``page_ids``.

        The frontier is the set of cursor pages a key-ordered batch sweep is
        currently positioned on (leaf plus parent).  Pages leaving the set
        are unpinned, pages entering it are pinned; ids that are not
        resident are ignored (the hint never triggers I/O of its own — the
        sweep has, by construction, just fetched its cursor pages).

        Call :meth:`release_frontier` (or ``pin_frontier(())``) when the
        sweep finishes; a frontier is also released by :meth:`clear`.
        """
        if not self.batch_hints_enabled:
            return
        # Never pin more than capacity - 4 frames: a root-to-leaf descent must
        # always find evictable frames, however small the pool is configured.
        limit = self.capacity - 4
        frames = self._frames
        frontier = self._frontier
        wanted: Dict[int, Page] = {}
        for page_id in page_ids:
            if len(wanted) >= limit:
                break
            page = frames.get(page_id)
            if page is not None:
                wanted[page_id] = page
        if wanted.keys() == frontier.keys():
            return
        for page_id, page in frontier.items():
            if page_id not in wanted:
                page.unpin()
        for page_id, page in wanted.items():
            if page_id not in frontier:
                page.pin()
        self._frontier = wanted

    def release_frontier(self) -> None:
        """Unpin every frontier page (end of a batch sweep)."""
        for page in self._frontier.values():
            page.unpin()
        self._frontier = {}

    def advise_sequential(self, active: bool) -> None:
        """Advise that a key-ordered sequential sweep is starting/ending.

        While active, eviction prefers the most recently used *unpinned*
        page (the page the sweep just moved past, which ascending keys will
        never revisit) over the LRU victim (typically an interior page that
        later descents still need).  Calls nest; the hint is advisory and
        disabled along with :attr:`batch_hints_enabled`.
        """
        if not self.batch_hints_enabled:
            return
        if active:
            self._sequential_depth += 1
        elif self._sequential_depth > 0:
            self._sequential_depth -= 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_capacity(self) -> None:
        """Evict until one free frame exists (may raise; pool stays valid).

        An eviction that fails mid write-back leaves the victim resident
        and dirty (``_evict_one`` only drops a frame after its write-back
        succeeded), so callers can always retry after a transient fault.
        """
        while len(self._frames) >= self.capacity:
            self._evict_one()

    def _evict_one(self) -> None:
        if self._sequential_depth > 0:
            # Sequential sweep: the most recently used *clean* unpinned page
            # is the leaf the sweep just scanned past, which ascending keys
            # never revisit — evict it and keep the interior pages.  Dirty
            # pages are left to the LRU fallback: evicting a just-modified
            # leaf would force an immediate physical write that plain LRU
            # frequently coalesces with the page's next modification.
            for page_id, page in reversed(self._frames.items()):
                if page.is_pinned or page.dirty:
                    continue
                del self._frames[page_id]
                return
        for page_id, page in self._frames.items():
            if page.is_pinned:
                continue
            if page.dirty:
                self.disk.write(page)
            del self._frames[page_id]
            return
        raise BufferPoolFullError("all buffer frames are pinned")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def frontier_page_ids(self) -> "frozenset[int]":
        """The currently pinned sweep-frontier pages (for tests/diagnostics)."""
        return frozenset(self._frontier)
