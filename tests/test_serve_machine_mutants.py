"""The serving state machine fails on every bug the scenario tests it replaced guarded.

``tests/test_serve_state_machine.py`` is the serving suite: hand-written
fault, outage, SIGKILL, pinned-read and merge scenarios were deleted once
the machine checked what they checked.  Each case here seeds one such bug
into a single method of the live code (a one-line source edit, recompiled
in the method's own module and patched onto its class for the duration of
the test) and runs the machine on one cell: it must fail, whether by one
of its checks or by the index raising.  A change that blunts the machine,
say a rule that stops checking partial answers or the fake sleep's
delays, fails one of these.

The runs use Hypothesis seed 0 (``CHAOS_SEED`` still places the loaded
objects).  Every
example opens with mutations under a pin and one episode of each fault
rule its cell serves, so most bugs surface in the first example and each
one here within three (under the three CI chaos seeds); a case may run
twelve, since Hypothesis's draws also depend on which modules the test
run has imported.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from functools import partial
from typing import NamedTuple, Tuple

import pytest
from hypothesis import seed, settings
from hypothesis.stateful import get_state_machine_test

from repro.serve import ShardedIndex
from repro.serve.executor import ProcessExecutor
from repro.serve.shard_log import ShardLog
from repro.serve.snapshot import EpochClock, VersionedShard
from repro.serve.supervisor import Supervisor
from tests.test_serve_state_machine import MACHINE_SETTINGS, ServeMachine


class Mutant(NamedTuple):
    """One seeded bug: replace ``old`` by ``new`` in ``owner.method``."""

    owner: type
    method: str
    old: str
    new: str
    cell: Tuple[str, str] = ("Bx", "serial")


_FAILED = """\
                        breaker.record_failure()
                        status.state = SHARD_FAILED
                        status.error = f"{type(fault).__name__}: {fault}"
"""
_GUARD = """\
                except InjectedFault as fault:
                    transient = not isinstance(fault, ShardDownError)
                    if read_only:"""
_RETRY = "                        if transient and attempt + 1 < retry.max_attempts:"

MUTANTS = {
    "replay-drops-last-outcome": Mutant(
        ShardLog,
        "replay",
        "        return outcome, rejected",
        "        return (None, None), rejected",
    ),
    "replay-skips-last-record": Mutant(
        ShardLog,
        "replay",
        "        for op, payload, epoch in self._records:",
        "        for op, payload, epoch in self._records[:-1]:",
    ),
    "backoff-of-the-next-attempt": Mutant(
        Supervisor,
        "_locked_supervised",
        "self._config.sleep(retry.backoff_delay(attempt, rng))",
        "self._config.sleep(retry.backoff_delay(attempt + 1, rng))",
    ),
    "transient-read-not-retried": Mutant(
        Supervisor,
        "_locked_supervised",
        _RETRY,
        "                        if False:",
    ),
    "exhausted-retries-raise-the-raw-fault": Mutant(
        Supervisor,
        "_locked_supervised",
        "raise ShardFailedError(shard_id, fault) from fault",
        "raise fault",
    ),
    "failure-never-reaches-the-breaker": Mutant(
        Supervisor,
        "_locked_supervised",
        _FAILED,
        _FAILED.replace("                        breaker.record_failure()\n", ""),
    ),
    "failed-shard-status-stays-ok": Mutant(
        Supervisor,
        "_locked_supervised",
        _FAILED,
        _FAILED.replace("                        status.state = SHARD_FAILED\n", ""),
    ),
    "mutation-fault-blind-retried": Mutant(
        Supervisor,
        "_locked_supervised",
        _GUARD,
        _GUARD.replace("if read_only:", "if True:"),
    ),
    "mutation-fault-re-raised": Mutant(
        Supervisor,
        "_locked_supervised",
        "                        return self._recover_locked(shard_id)",
        "                        raise fault",
    ),
    "partial-knn-distances-rounded": Mutant(
        ShardedIndex,
        "knn_query_batch",
        "            results.append(merged[: probe.k])",
        "            results.append([(o, round(d, 6) if partial else d)"
        " for o, d in merged[: probe.k]])",
    ),
    "knn-merge-ranked-by-oid": Mutant(
        ShardedIndex,
        "knn_query_batch",
        "merged.sort(key=lambda pair: (pair[1], pair[0]))",
        "merged.sort(key=lambda pair: (pair[0], pair[1]))",
    ),
    "range-merge-unsorted": Mutant(
        ShardedIndex, "range_query_batch", "            merged.sort()\n", ""
    ),
    "aggregate-stats-over-a-copied-shard-list": Mutant(
        ShardedIndex,
        "__init__",
        "self.buffer = _AggregateBuffer(self.shards)",
        "self.buffer = _AggregateBuffer(list(self.shards))",
    ),
    "breaker-not-reset-by-recovery": Mutant(
        Supervisor,
        "_recover_locked",
        "            self._breakers[shard_id].reset()\n",
        "",
    ),
    "recovery-skips-the-compaction-it-reports": Mutant(
        Supervisor,
        "_recover_locked",
        "                self._compact_locked(shard_id)\n",
        "",
    ),
    "recover-shard-is-a-no-op": Mutant(
        Supervisor,
        "recover",
        "            self._recover_locked(shard_id)",
        "            pass",
    ),
    "empty-insert-batch-publishes-an-epoch": Mutant(
        ShardedIndex,
        "insert_batch",
        """        if objects:
            self._mutate(""",
        """        if True:
            self._mutate(""",
    ),
    "gc-floor-ignores-pins": Mutant(
        EpochClock,
        "advance",
        "gc_floor = min(self._pins) if self._pins else self._published_epoch",
        "gc_floor = self._published_epoch",
    ),
    "update-miss-leaves-a-ghost": Mutant(
        VersionedShard,
        "update_batch",
        "(old.oid, old if hit else None)",
        "(old.oid, old)",
    ),
    "delete-records-no-pre-image": Mutant(
        VersionedShard,
        "delete_batch",
        "[(obj.oid, obj) for obj, flag in zip(objects, flags) if flag]",
        "[]",
        cell=("TPR", "serial"),
    ),
    "recovery-keeps-the-dead-worker": Mutant(
        ProcessExecutor,
        "replace",
        "        handle = self._spawn(shard_id, fresh)",
        "        handle = self._handles[shard_id]",
        cell=("Bx", "process"),
    ),
}


def _seed_bug(monkeypatch, mutant):
    """Patch ``mutant.owner.<method>`` with its source edited, compiled in its own module."""
    function = vars(mutant.owner)[mutant.method]
    source, first_line = inspect.getsourcelines(function)
    source = "".join(source)
    assert source.count(mutant.old) == 1, f"{mutant.method} no longer holds the seeded line"
    tree = ast.parse(textwrap.dedent(source.replace(mutant.old, mutant.new)))
    ast.increment_lineno(tree, first_line - 1)
    module = sys.modules[mutant.owner.__module__]
    namespace = {}
    exec(compile(tree, module.__file__, "exec"), vars(module), namespace)
    monkeypatch.setattr(mutant.owner, mutant.method, namespace[mutant.method])


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_machine_fails_on_a_seeded_bug(name, monkeypatch):
    mutant = MUTANTS[name]
    _seed_bug(monkeypatch, mutant)
    family, executor = mutant.cell
    run = get_state_machine_test(
        partial(ServeMachine, family, executor),
        settings=settings(MACHINE_SETTINGS, max_examples=12, report_multiple_bugs=False),
    )
    with pytest.raises((Exception, pytest.fail.Exception)):  # a check or the index itself
        seed(0)(run)()
