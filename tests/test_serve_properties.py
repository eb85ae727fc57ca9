"""Property-based invariants of the sharded serving layer's router (Hypothesis).

:func:`repro.serve.shard_of` is a stable, in-range, balanced router, and
it refuses a shard count below one.  What the router feeds — ascending-id
range merges, the ``(distance, oid)`` kNN merge, dense monotone epochs and
frozen pinned answers — is checked against a brute-force model at shard
counts 1, 2, 3 and 5 by the state machine in
``tests/test_serve_state_machine.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import shard_of

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


# ----------------------------------------------------------------------
# shard_of: stable, in-range, balanced, and refusing no shards
# ----------------------------------------------------------------------
@PROPERTY_SETTINGS
@given(
    oid=st.integers(min_value=0, max_value=2**63 - 1),
    num_shards=st.integers(min_value=1, max_value=64),
)
def test_shard_of_is_stable_and_in_range(oid, num_shards):
    """Routing is a pure function of (oid, num_shards) with an in-range result."""
    first = shard_of(oid, num_shards)
    assert 0 <= first < num_shards
    assert shard_of(oid, num_shards) == first  # no hidden state
    assert shard_of(oid, 1) == 0


@PROPERTY_SETTINGS
@given(
    start=st.integers(min_value=0, max_value=2**40),
    num_shards=st.integers(min_value=2, max_value=8),
)
def test_shard_of_balances_consecutive_ids(start, num_shards):
    """Consecutive ids — the common allocation pattern — spread evenly.

    The Fibonacci hash turns a consecutive block into a low-discrepancy
    sequence; no shard should see more than twice its fair share of a
    block comfortably larger than the shard count.
    """
    block = 128 * num_shards
    counts = [0] * num_shards
    for oid in range(start, start + block):
        counts[shard_of(oid, num_shards)] += 1
    assert max(counts) <= 2 * (block // num_shards)
    assert min(counts) > 0


def test_shard_of_rejects_nonpositive_shard_counts():
    with pytest.raises(ValueError):
        shard_of(7, 0)
    with pytest.raises(ValueError):
        shard_of(7, -2)
