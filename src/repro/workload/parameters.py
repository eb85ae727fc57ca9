"""Benchmark parameters (Table 1 of the paper).

The defaults mirror the bold values of Table 1, except the object
cardinality, which is scaled down so the pure-Python simulator finishes in
reasonable time.  Paper-scale runs simply pass ``num_objects=100_000``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.geometry.rect import Rect

#: The paper's data space: 100,000 m x 100,000 m (Table 1).
PAPER_SPACE = Rect(0.0, 0.0, 100_000.0, 100_000.0)

#: Scaled-down default data space.  The cardinality default is ~33x smaller
#: than the paper's 100K objects, so the space is shrunk as well to keep the
#: object density (and with it the number of objects a query window covers)
#: in a realistic range.
DEFAULT_SPACE = Rect(0.0, 0.0, 50_000.0, 50_000.0)


@dataclass(frozen=True)
class WorkloadParameters:
    """Knobs of a benchmark workload run.

    Attributes mirror Table 1 of the paper:

    * ``num_objects`` — cardinality of objects (paper default 100K).
    * ``max_speed`` — maximum object speed in m per timestamp (paper default 100).
    * ``max_update_interval`` — maximum timestamps between updates of one
      object (120).
    * ``query_radius`` — circular range query radius in meters (500).
    * ``query_predictive_time`` — how far into the future queries look (60).
    * ``time_duration`` — length of the simulated event stream (240).
    * ``num_queries`` — number of range queries issued over the duration.
    * ``buffer_pages`` — RAM buffer size in pages.  The paper uses 50 pages
      against 100K+ objects (about 2.5% of the index fits in RAM); the
      scaled-down default keeps the same *ratio* by shrinking the buffer
      along with the cardinality, otherwise the whole index would be cached
      and the I/O comparison would be meaningless.
    * ``page_size`` — disk page size in bytes.  The paper uses 4 KB pages;
      the scaled-down default shrinks the page along with the cardinality so
      the index spans a realistic number of pages (and node fan-outs stay
      proportionate to the data size).
    * ``rectangular_queries`` — use 1000 m x 1000 m rectangles instead of
      circles (Section 6.8).
    """

    num_objects: int = 3_000
    max_speed: float = 100.0
    max_update_interval: float = 120.0
    query_radius: float = 500.0
    query_predictive_time: float = 60.0
    time_duration: float = 120.0
    num_queries: int = 50
    buffer_pages: int = 10
    page_size: int = 1024
    rectangular_queries: bool = False
    rectangle_side: float = 1000.0
    space: Rect = DEFAULT_SPACE
    seed: int = 42

    def scaled(self, **overrides) -> "WorkloadParameters":
        """A copy with some parameters overridden."""
        return replace(self, **overrides)

    def index_kwargs(self) -> dict:
        """The Table-1 setting every competing index is built from.

        What :func:`~repro.core.partitioned_index.make_index` (and
        ``ShardedIndex.build``) take beside the family name.
        """
        return {
            "space": self.space,
            "buffer_pages": self.buffer_pages,
            "page_size": self.page_size,
            "max_update_interval": self.max_update_interval,
        }


#: Default parameter set used across the experiments (scaled-down Table 1).
DEFAULT_PARAMETERS = WorkloadParameters()
