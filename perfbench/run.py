"""Benchmark of the rbu3 certifier: one workload per run, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload cases --seed 1 --seconds 20 --trace 0

Workloads are ``cases``, ``closure`` and ``orbits`` (see workloads.py and
BENCHMARK.json).  The program is imported from ``src/`` next to this
directory; nothing is installed.  After one set-up (import, ``build_catalog``
and the workload's inputs), whole passes over the workload's items run, one
process and one item at a time (a closed loop with one client), until
``--seconds`` have passed.  Outputs are checked, and the set-up is repeated
afterwards for its median.  Times are corrected for the machine's speed by
the probe in speed.py.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` untraced and traced
passes alternate and the result holds the per-layer metrics.  The lines
before it state how each figure was taken and the environment of the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from math import ceil
from pathlib import Path

from spans import GB_STATS, LAYER_CALLS, Tracer
from speed import REFERENCE_S, SpeedProbe
from workloads import MISS, OK, WORKLOADS, WRONG

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("poly", "matrices", "groebner", "operators", "transform", "catalog")
SETUP_REPEATS = 11


def import_rbu3():
    """A fresh import of every rbu3 module from ``src/``."""
    for name in [n for n in sys.modules if n == "rbu3" or n.startswith("rbu3.")]:
        del sys.modules[name]
    package = importlib.import_module("rbu3")
    if Path(package.__file__).resolve().parent != SRC / "rbu3":
        raise RuntimeError(f"imported rbu3 from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"rbu3.{name}") for name in MODULES})


def run_pass(workload, probe, tracer):
    """One pass over the workload's items: ((start, end) per item, outputs)."""
    if tracer is not None:
        tracer.install()
        tracer.begin_pass()
    times, outputs = [], []
    clock = time.perf_counter
    try:
        for key, call in workload.items:
            if tracer is not None:
                call = tracer.span_wrapper("bench.item", call)
            t0 = clock()
            output = call()
            times.append((t0, clock()))
            outputs.append((key, output))
    finally:
        if tracer is not None:
            tracer.end_pass(probe)
            tracer.uninstall()
    return times, outputs


def tail(values):
    """Highest integer percentile (nearest rank) with at least ten values above
    it: (value, label, values above).  With fewer than 20 values no
    percentile from p50 up qualifies, and the maximum is taken."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p}", n - rank
    return ordered[-1], "max", 0


def git_sha():
    """HEAD of the checkout read from ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "rbu3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "git_sha": git_sha(),
            "src_sha256": digest.hexdigest(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu, "seed": seed}


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def corrected(probe, passes):
    """Each item's corrected seconds, per pass."""
    return [[probe.measure(*t)[1] for t in times] for times in passes]


def end_to_end(setup_times, untraced, attempted, solved, peak_rss_mb, probe):
    items = corrected(probe, untraced)
    walls = [sum(times) for times in items]
    per_item = [statistics.median(ts) for ts in zip(*items)]
    tail_s, label, beyond = tail(per_item)
    raw_wall = statistics.median(sum(probe.measure(*t)[0] for t in times)
                                 for times in untraced)
    values = {
        "setup_s": statistics.median(corrected(probe, [setup_times])[0]),
        "wall_s": statistics.median(walls),
        "item_p50_ms": statistics.median(per_item) * 1000,
        "item_tail_ms": tail_s * 1000,
        "peak_rss_mb": peak_rss_mb,
        "solved_ratio": solved / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": f"median of {len(walls)} untraced passes; uncorrected "
                  f"{raw_wall:.4f} s",
        "item_p50_ms": f"median over {len(per_item)} items of each item's median",
        "item_tail_ms": f"{label} over {len(per_item)} items of each item's median, "
                        f"{beyond} items beyond",
        "peak_rss_mb": "peak resident set of the process up to the end of the "
                       "checks, before the repeated set-ups",
        "solved_ratio": f"{solved} of {attempted} items answered and passed "
                        f"their check; unsolved ratio {1 - solved / attempted:.6f}",
    }
    return values, notes, []


def per_layer(tracer, traced, untraced, layer_counts, probe):
    passes = tracer.passes
    values, notes = {}, {}
    for _, _, metric, kind in LAYER_CALLS:
        values[f"{metric}.calls"] = passes[0]["calls"].get(metric, 0)
        if kind == "span":
            values[f"{metric}.self_s"] = statistics.median(
                p["self_s"].get(metric, 0.0) for p in passes)
    gb = passes[0]["gb"]
    for field in GB_STATS:
        values[f"groebner.{field}"] = gb.get(field, 0)
    reduced = gb.get("pairs_reduced", 0)
    useful = reduced - gb.get("zero_reductions", 0)
    values["groebner.pairs_pruned"] = gb.get("pairs_considered", 0) - reduced
    values["groebner.useful_reduction_ratio"] = useful / reduced if reduced else 0.0
    notes["groebner.useful_reduction_ratio"] = (
        f"{useful} nonzero reductions of {reduced} pairs reduced")
    values.update(layer_counts)
    traced_wall = statistics.median(map(sum, corrected(probe, traced)))
    untraced_wall = statistics.median(map(sum, corrected(probe, untraced)))
    values["trace_overhead_ratio"] = traced_wall / untraced_wall
    notes["trace_overhead_ratio"] = (
        f"median traced pass {traced_wall:.4f} s over median untraced pass "
        f"{untraced_wall:.4f} s")
    remarks = [f"calls and counts per pass, self_s the median of "
               f"{len(passes)} traced passes"]
    exact = [p["calls"] | p["gb"] for p in passes]
    if any(e != exact[0] for e in exact):
        remarks.append("exact counters differ between traced passes")
    return values, notes, remarks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rbu3" / "__init__.py").is_file():
        print(f"error: no rbu3 sources under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    sys.path.insert(0, str(SRC))

    probe = SpeedProbe()
    tracer = Tracer() if args.trace else None
    setup_times, untraced, traced, statuses = [], [], [], []
    traced_outputs = None

    def set_up():
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](import_rbu3(), args.seed)
        setup_times.append((t0, time.perf_counter()))
        return workload

    probe.start()
    try:
        workload = set_up()
        start = time.perf_counter()
        while True:
            tracing = tracer is not None and len(untraced) > len(traced)
            times, outputs = run_pass(workload, probe, tracer if tracing else None)
            (traced if tracing else untraced).append(times)
            if tracing and traced_outputs is None:
                traced_outputs = outputs
            statuses.extend((key, workload.check(key, out)) for key, out in outputs)
            # freed before the next pass, so peak memory holds one pass's
            # outputs however many passes fit in the run
            del outputs
            if (time.perf_counter() - start >= args.seconds
                    and (tracer is None or traced)):
                break
        final = workload.final_checks()
        # read before the remaining set-ups, whose re-imports leave garbage
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _ in range(SETUP_REPEATS - 1):
            set_up()
            gc.collect()
    finally:
        probe.stop()
    outcomes = [final.get(key, status) if status == OK else status
                for key, status in statuses]
    attempted = len(outcomes)
    solved = sum(1 for o in outcomes if o == OK)
    # a miss is a sound "no answer" of an incomplete search: it lowers
    # solved_ratio but is not a failed operation
    failed = sum(1 for o in outcomes if o == WRONG)
    correct = WRONG not in outcomes
    misses = sorted({key for (key, _), o in zip(statuses, outcomes) if o == MISS})
    wrong = sorted({key for (key, _), o in zip(statuses, outcomes) if o == WRONG})

    if tracer is None:
        values, notes, remarks = end_to_end(setup_times, untraced, attempted,
                                            solved, peak_rss_mb, probe)
        units = e2e_units
    else:
        values, notes, remarks = per_layer(tracer, traced, untraced,
                                           workload.layer_counts(traced_outputs), probe)
        units = layer_units
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write(spans_path)
        remarks.append(f"{len(tracer.span_start)} spans written to {spans_path}")
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(set(values) ^ set(units))} "
                           f"do not match BENCHMARK.json")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    for name in units:
        print(f"  {name} = {values[name]} {units[name]}"
              + (f"  ({notes[name]})" if name in notes else ""))
    print(f"  times are corrected to the speed at which the probe takes "
          f"{REFERENCE_S} s; it took a median {statistics.median(probe.costs):.6f} s "
          f"over {len(probe.costs)} samples")
    for remark in remarks:
        print(f"  {remark}")
    if misses:
        print(f"  no answer (search incomplete) for: {', '.join(misses)}; "
              f"{sum(1 for o in outcomes if o == MISS)} of {attempted} items")
    if wrong:
        print(f"  WRONG output for: {', '.join(wrong)}")
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
