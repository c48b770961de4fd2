"""Benchmark of tropcurve: one workload, one seed, one process, one thread.

    env PYTHONHASHSEED=0 python3 benchmark/run.py --workload long-profiles --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Tasks run in a closed loop, each starting when the previous one ends, in whole
rounds until ``--seconds`` have passed.  Every repetition rebuilds its inputs
outside the timed region; the first round also checks every result.  One
traced pass over the batch follows, with a profile hook that counts calls and
times spans per layer.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The result, and
with ``--trace 1`` the full span table, are also written under ``benchmark/out``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Per-function metrics reported by the traced pass, as (layer, function).
NAMED = [("plfunction", n) for n in ("PLFunction.__init__", "PLFunction.add", "PLFunction.mul",
                                     "principal_divisor", "is_harmonic_at", "chip_fire",
                                     "extend")]
NAMED += [("curve", "Curve.__eq__"), ("subgraph", "Subgraph.distance_map")]
NAMED += [("complexes", n) for n in ("PolyComplex1D.__post_init__", "PolyComplex1D.canonical",
                                     "intersect")]
NAMED += [("hypersurface", "plane_hypersurface")]
NAMED += [("realization", n) for n in ("realize", "fit_tropical_polynomial",
                                       "curve_from_complex")]


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time when
    it can be read (10 ms resolution), else since this module began."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _STARTED


def import_program():
    """Import tropcurve from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tropcurve
    if not Path(tropcurve.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"tropcurve was imported from {tropcurve.__file__}, not from {SRC}")


def timed_rounds(w, tasks, objs, seconds: float):
    """Whole rounds of every task until ``seconds`` pass.

    Returns each task's time, the sum over its steps of each step's fastest
    repetition, with counts of attempts, failures and wrong results."""
    from oracles import CheckFailed

    best: list[list[float] | None] = [None] * len(tasks)
    attempted = failed = wrong = 0
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        for k, data in enumerate(tasks):
            task_objs = objs[k] if first else w.build(data)
            results: dict = {}
            spent = []
            attempted += 1
            try:
                for step in w.steps(task_objs, results):
                    t0 = time.perf_counter()
                    step()
                    spent.append(time.perf_counter() - t0)
                if first:
                    w.check(data, w.view(task_objs, results))
            except CheckFailed as exc:
                failed += 1
                wrong += 1
                print(f"check failed on {data['name']}: {exc}", file=sys.stderr)
                continue
            except Exception as exc:  # a raising task counts as failed; the run goes on
                failed += 1
                print(f"{data['name']} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            best[k] = spent if best[k] is None else list(map(min, best[k], spent))
        first = False
    return [sum(b) for b in best if b is not None], attempted, failed, wrong


def traced_pass(w, tasks, tracer):
    """One traced repetition of every task: failures and the traced seconds."""
    failed = 0
    spent = 0.0
    for data in tasks:
        task_objs = w.build(data)
        t0 = time.perf_counter()
        try:
            with tracer:
                for step in w.steps(task_objs, {}):
                    step()
        except Exception as exc:  # counted like a failure in the timed rounds
            failed += 1
            print(f"traced {data['name']} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        spent += time.perf_counter() - t0
    return failed, spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from tracer import Tracer, span_codes

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    tasks = workloads.tasks(args.workload, args.seed)
    objs = [w.build(data) for data in tasks]
    setup_s = process_age()

    done, attempted, failed, wrong = timed_rounds(w, tasks, objs, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del objs

    tracer = Tracer(span_codes())
    traced_failed, traced_s = traced_pass(w, tasks, tracer)
    attempted += len(tasks)
    failed += traced_failed
    table = tracer.table()

    if args.trace:
        metrics = {}
        for layer, row in table["layers"].items():
            metrics[f"{layer}.calls"] = {"value": row["calls"], "unit": "count"}
            metrics[f"{layer}.self_s"] = {"value": row["self_s"], "unit": "s"}
            metrics[f"{layer}.fraction_calls"] = {"value": row["fraction_calls"], "unit": "count"}
        for layer, name in NAMED:
            row = table["functions"].get(f"{layer}.{name}", {"calls": 0, "self_s": 0.0})
            metrics[f"{layer}.{name}.calls"] = {"value": row["calls"], "unit": "count"}
            metrics[f"{layer}.{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "batch_s": {"value": sum(done), "unit": "s"},
            "task_p50_ms": {"value": statistics.median(done) * 1000 if done else 0.0,
                            "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "py_calls": {"value": table["py_calls"], "unit": "count"},
            "fraction_calls": {"value": table["fraction_calls"], "unit": "count"},
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        table["batch_s"] = sum(done)
        table["traced_batch_s"] = traced_s
        (OUT / f"trace-{stem}.json").write_text(json.dumps(table, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
