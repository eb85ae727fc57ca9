"""perfbench entry point.

Two ways to run it, both from the root of a checkout:

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, in this interpreter.  Prints the input digest and every
    metric by name with its unit, then — the last line — one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``: the ``end_to_end``
    metrics of ``BENCHMARK.json`` with ``--trace 0``, the ``per_layer``
    ones with ``--trace 1`` (which runs the workload twice, untraced then
    traced, to tell what tracing costs).

``python3 perfbench/run.py --seed 42 [--trace] [--repeats R] [--out FILE]``
    Every workload, each in a fresh interpreter, as a table; ``--out``
    keeps the runs for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

# Put the checkout, not perfbench/, first on the path: the package is
# imported by name, and the standard library's own ``trace`` stays reachable.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import ROOT  # noqa: E402

if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfbench: no src/repro in this checkout, so there is no program to measure")

from perfbench.bench import SCRATCH, durable_child, run_workload  # noqa: E402
from perfbench.metrics import busy_seconds, end_to_end, failures, per_layer, wall_clock  # noqa: E402
from perfbench.workloads import SCALES, WORKLOADS, make_inputs  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins.json"


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names and units are declared."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_pin(name: str, seed: int, seconds: float, scale: str, digest: str) -> None:
    """Fail the run when pinned inputs changed under an unchanged benchmark.

    The generators live in ``src/repro/workload``, outside this directory;
    the pin says whether a later change moved the inputs.  Only the pinned
    (seed, seconds) pair at full scale is pinned; anything else just runs.
    """
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    if (seed, seconds, scale) != (pins["seed"], pins["seconds"], "full"):
        return
    if pins["digests"][name] != digest:
        raise SystemExit(
            f"inputs changed: {name} seed {seed} has digest {digest}, "
            f"pinned {pins['digests'][name]} (perfbench/pins.json)"
        )


def run_one(args: argparse.Namespace) -> int:
    """Contract mode: one workload, metrics, one JSON line."""
    spec = load_spec()
    inputs = make_inputs(args.workload, args.seed, args.seconds, args.scale)
    print(
        f"{args.workload}: seed {args.seed}, {inputs.counts['update']} update requests "
        f"({inputs.counts['updates']} updates), {inputs.counts['range']} range, "
        f"{inputs.counts['knn']} kNN; inputs sha256 {inputs.digest}"
    )
    check_pin(args.workload, args.seed, args.seconds, args.scale, inputs.digest)
    if args.trace:
        # Two set-ups each: the first warms up, the second is measured.
        untraced = run_workload(inputs, False, setups=(2, 2))
        traced = run_workload(inputs, True, setups=(2, 2))
        values = per_layer(untraced, traced, inputs.spec, inputs.generate_s)
        declared = spec["per_layer"]
        runs = [untraced, traced]
    else:
        untraced = run_workload(inputs, False)
        values = end_to_end(untraced, inputs.spec)
        declared = spec["end_to_end"]
        runs = [untraced]
    counts = {"attempted": 0, "failed": 0}
    for run in runs:
        print(
            f"machine speed {median(run['ticks']):.3f} x reference: yardstick median "
            f"{median(run['ticks']) * inputs.spec['yardstick_ms']:.3f} ms, closed loop "
            f"{busy_seconds(run['rows']):.2f} s by the wall clock "
            "(closed-loop and set-up timings below are scaled to reference speed)"
        )
        print(
            "wall-clock medians: "
            + "; ".join(
                f"{kind} {seconds * 1e3:.4f} ms at pace {pace:.4f}"
                for kind, (seconds, pace) in wall_clock(run).items()
            )
        )
        if run["disk_ticks"]:
            print(
                f"disk speed {median(run['disk_ticks']):.3f} x reference: append + fsync median "
                f"{median(run['disk_ticks']) * inputs.spec['disk_yardstick_ms']:.3f} ms "
                "(the part of a request inside os.fsync is scaled by this)"
            )
        for share in run["discarded"]:
            print(f"discarded a closed-loop pass: the hypervisor stole {share:.1%} of the CPU time")
        for key, value in failures(run).items():
            counts[key] += value
        for key in ("first_error", "first_wrong"):
            if run.get(key):
                print(f"{key}: {run[key]}")
        recovery = run.get("recovery")
        if recovery:
            print(
                f"recovery: {recovery['acknowledged']} tail requests acknowledged before the "
                f"kill, {recovery['lost']} lost; process-crash durability only (the page "
                "cache survives SIGKILL)"
            )
    metrics = {}
    for entry in declared:
        value = values[entry["name"]]
        shown = "n/a" if value is None else repr(value)
        print(f"metric {entry['name']} {shown} {entry['unit']}")
        metrics[entry["name"]] = {
            "value": 0.0 if value is None else value,
            "unit": entry["unit"],
        }
    print(
        json.dumps(
            {
                "correct": counts["failed"] == 0,
                "attempted": counts["attempted"],
                "failed": counts["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# Every workload, as a table
# ----------------------------------------------------------------------
def _filesystem_of(path: Path) -> str:
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            _, mount, fstype = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, fstype
    return kind


def header() -> Dict[str, str]:
    """What the numbers were measured on."""
    commit = "n/a"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = found.stdout.strip() or "n/a"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": str(len(os.sched_getaffinity(0))),
        "durable_root_fs": _filesystem_of(SCRATCH.parent),
        "durability": "process crash (SIGKILL); the page cache survives, power loss is not tested",
    }


def _child(workload: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", args.scale,
        "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The JSON line holds numbers only; the text lines say which are n/a.
    result["na"] = [
        line.split()[1] for line in lines if line.startswith("metric ") and " n/a " in line
    ]
    result["digest"] = lines[0].rsplit(" ", 1)[-1]
    return result


def run_all(args: argparse.Namespace) -> int:
    """Human mode: all workloads, one fresh interpreter each."""
    spec = load_spec()
    names = args.only or list(WORKLOADS)
    head = header()
    for key, value in head.items():
        print(f"{key}: {value}")
    runs: List[Dict[str, Any]] = []
    for workload in names:
        for repeat in range(args.repeats):
            for trace in (0, 1) if args.trace else (0,):
                result = _child(workload, args, trace)
                runs.append(
                    {"workload": workload, "seed": args.seed, "trace": trace, "repeat": repeat}
                    | result
                )
                print(
                    f"{workload} trace {trace} repeat {repeat}: attempted {result['attempted']}, "
                    f"failed {result['failed']}, inputs {result['digest'][:12]}"
                )
    width = max(len(entry["name"]) for entry in spec["end_to_end"] + spec["per_layer"])
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        if trace and not args.trace:
            continue
        print(f"\n{section} (median of {args.repeats})")
        print(" " * (width + 8) + "".join(f"{name:>16}" for name in names))
        for entry in spec[section]:
            cells = []
            for workload in names:
                mine = [
                    run
                    for run in runs
                    if run["workload"] == workload and run["trace"] == trace
                ]
                if entry["name"] in mine[0]["na"]:
                    cells.append(f"{'n/a':>16}")
                else:
                    value = median(run["metrics"][entry["name"]]["value"] for run in mine)
                    cells.append(f"{value:>16.4f}")
            print(f"{entry['name']:<{width}} {entry['unit']:>6} " + "".join(cells))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"header": head, "runs": runs}, handle, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


def parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="measuring budget per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--repeats", type=int, default=1, help="table mode: runs per workload")
    parser.add_argument("--only", action="append", choices=sorted(WORKLOADS), help="table mode")
    parser.add_argument("--out", help="table mode: keep every run as JSON for compare.py")
    # How durable-writes starts its serving process (bench.durable_pass).
    parser.add_argument("--serve-to", type=int, nargs=2, help=argparse.SUPPRESS)
    parser.add_argument("--setups", type=int, nargs=2, help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.serve_to:
        durable_child(
            *args.serve_to, args.workload, args.seed, args.seconds, args.scale,
            bool(args.trace), tuple(args.setups), args.scratch,
        )  # fmt: skip
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    # Leave through the ``finally`` blocks, which stop every child process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
