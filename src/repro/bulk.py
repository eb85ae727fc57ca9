"""Batch-size arithmetic shared by the index families.

The chunking helpers size the nodes of the bottom-up (bulk) packers;
:data:`MIN_VECTOR_BATCH` picks how the batch mutation helpers do their
arithmetic, and :data:`MIN_VECTOR_FILTER` how the VP range filter does
its own.
"""

from __future__ import annotations

from typing import List

#: Batches smaller than this do their per-object arithmetic (Bx keys and
#: label positions, velocity-histogram cells, VP routing and rotation) in a
#: plain Python loop instead of over numpy arrays: at one object the numpy
#: pass costs several times the loop (a Bx insert's key pass 33 us against
#: 7.7 us).  Both give bit-identical results, so the constant only trades
#: speed; it never picks an algorithm.  Read it as ``bulk.MIN_VECTOR_BATCH``
#: at call time, so one assignment moves every helper.
MIN_VECTOR_BATCH = 8

#: A range query with fewer sub-index candidates than this runs the VP range
#: filter (Algorithm 3, Line 8) one candidate at a time instead of resolving
#: them to slab rows and deciding them with one ``RangeQuery.matches_rows``
#: call.  Measured in place over a seed-42 ``replay-bx`` request list (each
#: query's candidates filtered both ways, best of 5): the vector path costs
#: 28-34 us up to 32 candidates and 36-38 us at 48-128, the scalar one
#: about 1 us a candidate (24 us at 24-32, 32 us at 32-48, 46 us at 48-64),
#: so parity sits at 32-48.  ``replay-tpr`` hands the filter at most 19
#: candidates a query, so TPR*(VP) never vectorizes.  Both paths give
#: bit-identical answers, so the constant only trades speed; read it as
#: ``bulk.MIN_VECTOR_FILTER`` at call time.
MIN_VECTOR_FILTER = 32


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
