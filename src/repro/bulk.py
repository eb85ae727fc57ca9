"""Chunking arithmetic shared by the bottom-up (bulk) index packers."""

from __future__ import annotations

from typing import List


def chunk_count(n: int, capacity: int) -> int:
    """Number of nodes needed to pack ``n`` entries at up to ``capacity`` each."""
    return max(1, -(-n // capacity))


def even_chunks(items: List, num_chunks: int) -> List[List]:
    """Split ``items`` into ``num_chunks`` contiguous runs whose sizes differ by at most one."""
    base, extra = divmod(len(items), num_chunks)
    chunks: List[List] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks
