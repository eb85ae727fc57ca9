"""No parameter that nothing passes: every option has a call site or a reason.

Every defaulted parameter of a ``src/repro`` function, method, constructor
or dataclass is passed — by keyword, or positionally — by at least one call
site in ``src``, ``benchmarks``, ``perfbench``, ``examples`` or ``tests``,
or it is listed in :data:`ALLOWED` with the reason it stays.  A default
nobody overrides is a constant with a longer spelling: delete the
parameter and name the constant.

The scan is syntactic (``ast`` only) and name-based: a call to ``f(...)``
or ``x.f(...)`` counts for every definition named ``f``, ``cls(...)`` and
``super().__init__(...)`` count for the enclosing class and its bases, and
``partial(f, ...)`` counts as a call of ``f``.  What it cannot see — a
``**kwargs`` relay, ``dataclasses.replace``, a call through a registry —
is what the allow-list is for.
"""

from __future__ import annotations

import ast
import pathlib
from fnmatch import fnmatchcase

import repro

REPO = pathlib.Path(repro.__file__).resolve().parents[2]
CALL_SITE_DIRS = ("src", "benchmarks", "perfbench", "examples", "tests")

#: ``"Qualified.name.parameter"`` pattern -> the one-line reason it stays.
ALLOWED = {
    # -- fed by the CLI -------------------------------------------------
    "fig*.bulk_build": "`python -m repro.bench --bulk-build`, through the FIGURES registry",
    "ablation_*.bulk_build": "`python -m repro.bench --bulk-build`, through the FIGURES registry",
    # -- reached through **kwargs or a registry call --------------------
    "VersionedShard.*_batch.epoch": "apply_record(index, op, payload, **epoch_kwargs)",
    "VersionedShard.*_batch.gc_floor": "apply_record(index, op, payload, **epoch_kwargs)",
    "VersionedShard.bulk_load.epoch": "apply_record(index, op, payload, **epoch_kwargs)",
    "VersionedShard.bulk_load.gc_floor": "apply_record(index, op, payload, **epoch_kwargs)",
    "BTreeKeyStore.*": "make_key_store calls KEY_STORES[name](buffer=..., page_size=...)",
    "FlatKeyStore.*": "make_key_store calls KEY_STORES[name](buffer=..., page_size=...)",
    "BxTree.num_buckets": "tests/test_bx_tree.py::small_bx(**kwargs)",
    "make_index.buffer": "ShardedIndex.build hands a durable shard's pool: factory(buffer=buffer)",
    "new_york_like.space": "network_for calls NETWORK_BUILDERS[dataset](space=space)",
    "SupervisorConfig.failure_threshold": "tests/test_faults.py::_supervisor(**overrides)",
    "SupervisorConfig.reset_timeout_s": "tests/test_faults.py::_supervisor(**overrides)",
    "SupervisorConfig.sleep": "injectable sleep: tests/test_faults.py::_supervisor(**overrides)",
    "SupervisorConfig.clock": "injectable clock, the pair of sleep (docs/robustness.md)",
    "ServeConfig.stores": "ServeConfig.merged(stores=...) in DurableStore._assemble",
    "WorkloadParameters.rectangular_queries": "WorkloadParameters.scaled(...) / tiny_params(**)",
    "WorkloadParameters.rectangle_side": "tiny_params(**overrides), WorkloadParameters(**SPEC)",
    # -- dataclass state, not options -----------------------------------
    "IndexMetrics.*": "accumulators ExperimentRunner.run fills in",
    "KNNMetrics.*": "accumulators run_knn fills in",
    "ShardStatus.*": "outcome record the supervisor fills in",
    "FaultCounters.*": "counters the fault injector bumps",
    "Page.*": "page state the buffer manager mutates",
    "IOStats.*": "counters; the field defaults are the zero state",
    "_LeafNode.is_leaf": "node-kind tag, fixed per class",
    "_InteriorNode.is_leaf": "node-kind tag, fixed per class",
    "DominantVelocityAxis.frame": "derived in __post_init__ from axis",
}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _decorators(node):
    return {_name(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _defaulted_parameters():
    """``(qualified name, callee name, is_method, [(parameter, position | None)])`` rows."""
    rows = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                rows.append((node.name, node.name, False, _signature(node, bound=False)))
            elif isinstance(node, ast.ClassDef):
                rows.extend(_class_rows(node))
    return [row for row in rows if row[3]]


def _class_rows(cls):
    if "dataclass" in _decorators(cls):
        fields = [
            item
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        yield cls.name, cls.name, False, [
            (item.target.id, position)
            for position, item in enumerate(fields)
            if item.value is not None
        ]
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef) or "property" in _decorators(item):
            continue
        signature = _signature(item, bound="staticmethod" not in _decorators(item))
        if item.name == "__init__":
            yield cls.name, cls.name, False, signature
        else:
            yield f"{cls.name}.{item.name}", item.name, True, signature


def _signature(function, bound):
    arguments = function.args
    positional = (arguments.posonlyargs + arguments.args)[1 if bound else 0 :]
    first_default = len(positional) - len(arguments.defaults)
    return [(a.arg, i) for i, a in enumerate(positional) if i >= first_default] + [
        (a.arg, None)
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]


class _Calls(ast.NodeVisitor):
    """Collects ``callee name -> [(positional count, keyword names, is attribute call)]``."""

    def __init__(self):
        self.calls = {}
        self._classes = []

    def visit_ClassDef(self, node):
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node):
        function, arguments = node.func, node.args
        callees = [(_name(function), isinstance(function, ast.Attribute))]
        if _name(function) == "partial" and arguments:
            callees, arguments = [(_name(arguments[0]), False)], arguments[1:]
        elif self._classes and _name(function) == "cls":
            callees = [(self._classes[-1].name, False)]
        elif self._classes and _name(function) == "__init__":  # super().__init__(...)
            callees = [(_name(base), False) for base in self._classes[-1].bases]
        count = 10**6 if any(isinstance(a, ast.Starred) for a in arguments) else len(arguments)
        keywords = {keyword.arg for keyword in node.keywords}  # None stands for **kwargs
        for callee, is_attribute in callees:
            self.calls.setdefault(callee, []).append((count, keywords, is_attribute))
        self.generic_visit(node)


def _never_passed():
    visitor = _Calls()
    for directory in CALL_SITE_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            visitor.visit(ast.parse(path.read_text()))
    hits = []
    for qualified, callee, is_method, parameters in _defaulted_parameters():
        sites = [
            (count, keywords)
            for count, keywords, is_attribute in visitor.calls.get(callee, ())
            if is_attribute or not is_method
        ]
        for parameter, position in parameters:
            if not any(
                parameter in keywords or (position is not None and count > position)
                for count, keywords in sites
            ):
                hits.append(f"{qualified}.{parameter}")
    return hits


def test_every_defaulted_parameter_is_passed_somewhere_or_allowed_with_a_reason():
    hits = _never_passed()
    unexplained = [
        hit for hit in hits if not any(fnmatchcase(hit, pattern) for pattern in ALLOWED)
    ]
    assert unexplained == [], (
        "defaulted parameters no call site passes: delete each and name the constant it "
        "defaults to, or add it to ALLOWED with the reason it stays"
    )
    stale = [
        pattern for pattern in ALLOWED if not any(fnmatchcase(hit, pattern) for hit in hits)
    ]
    assert stale == [], "ALLOWED entries that excuse nothing any more"
    for pattern, reason in ALLOWED.items():
        assert len(reason) > 10 and "\n" not in reason, pattern
