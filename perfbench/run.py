"""Synthesis benchmark: time to an oracle-checked verdict, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload ladder-bnb --seed 1 --seconds 45 --trace 0

One operation is one synthesis request (model file, formula, horizon
sweep) driven through the package's public functions in the order
``cltlsynth synth`` uses them; see ``pipeline.py``.  Load is closed loop
from this single process, one operation at a time; the only child
processes are the LP-file solver of the external path and, during
set-up, a fresh interpreter that times the imports.  The process and its
children are pinned to one CPU.

Set-up is importing the package (timed in a fresh interpreter), making
the workload's instances and checking every planted witness; it is
repeated up to three times while it stays under fifteen seconds.
``setup_s`` is the median set-up, scaled to a CPU on which the reference
kernel below takes ``reference.NOMINAL_S``.

Then the run makes whole passes over the instances, each pass in an order
drawn from the seed, until ``--seconds`` have passed; a pass that would
end later than half its length past that point is not started, and the
first pass always runs.  Every instance thus runs equally often, and a
run's ``failed`` over ``attempted`` is the failure share of a pass.  With
``--trace 1`` each instance runs once traced and once untraced per pass,
and the output gives the self time of every layer and the tracing
overhead instead of the end-to-end metrics.

Synthesis times are reported in ``ref`` units: each operation's wall time
divided by the median wall time of a fixed reference kernel, run after
every operation on the same CPU (``reference.py``).  The ratio cancels
much of a slower or faster machine between runs.  The median is taken
over the whole run, not next to each operation: one run of the kernel
varies by about as much as one operation does.  An instance's time is the
median of its operations, one per pass.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
run records of the first pass and a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3      # set-up runs this often, unless it has taken this long:
SETUP_BUDGET_S = 15.0
LAYERS = ("system", "formula", "encode", "lp_format", "solver", "extract", "oracle",
          "collision", "synth")
TAGS = ("dynamics", "continuous", "loop", "collision", "inner", "outer", "robust",
        "polytope", "gadget", "root", "const")
FAILURES = ("solver_unknown", "deadline", "exception", "wrong_verdict")
PER_LAYER = {
    **{f"{layer}.self": "ref" for layer in LAYERS}, "solver.self.infeasible": "ref",
    **{f"encode.{k}": "count" for k in ("rows", "vars", "nnz")},
    **{f"encode.{k}.{t}": "count" for k in ("rows", "vars") for t in TAGS},
    "lp_format.bytes": "bytes",
    **{f"solver.{k}": "count" for k in ("calls", "nodes", "lp_calls", "unknown")},
    "solver.useful_ratio": "ratio",
    "extract.max_period": "count", "extract.joint_period": "count",
    **{f"oracle.{k}": "count" for k in ("executions", "evaluations", "sampled")},
    "collision.violations": "count",
    **{f"fail.{cause}": "count" for cause in FAILURES},
    "trace.overhead": "ref",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "cltlsynth" / "__init__.py").is_file():
        print("error: src/cltlsynth not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    # The reference kernel must run on the core that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Model files, LP files and solutions stay inside the checkout.
    scratch = Path(".bench_tmp") / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    tempfile.tempdir = os.environ["TMPDIR"] = str(scratch)
    try:
        result = bench(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


def import_time() -> float:
    """Seconds a fresh interpreter takes to import the pipeline, and with it
    the package, NumPy and SciPy."""
    code = (f"import sys, time; sys.path.insert(0, {str(HERE)!r}); "
            "t = time.perf_counter(); import pipeline; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def bench(args, scratch: Path):
    import pipeline
    from reference import NOMINAL_S, reference_time
    from tracing import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return None
    workload = WORKLOADS[args.workload]

    setups, setup_refs = [], [reference_time() for _ in range(5)]
    while len(setups) < SETUP_REPEATS and sum(setups) < SETUP_BUDGET_S:
        import_s = import_time()
        t0 = time.perf_counter()
        instances = workload.make()
        paths = [scratch / f"model_{k}.json" for k in range(len(instances))]
        for inst, path in zip(instances, paths):
            path.write_text(json.dumps(inst.model))
            pipeline.check_witness(inst, path)
        setups.append(import_s + time.perf_counter() - t0)
        setup_refs.extend(reference_time() for _ in range(5))
    setup_wall_s = statistics.median(setups)
    setup_s = setup_wall_s * NOMINAL_S / statistics.median(setup_refs)

    tracer = Tracer()
    records = []
    # Each operation starts with no garbage left by the one before, as a
    # ``cltlsynth synth`` process does, so the order of the operations does
    # not decide which of them pays for a collection.
    gc.collect()
    gc.freeze()
    refs = [reference_time()]
    end = time.perf_counter() + args.seconds
    passes = 0
    while True:
        order = list(range(len(instances)))
        random.Random(f"{args.workload}:{args.seed}:{passes}").shuffle(order)
        pass_start = time.perf_counter()
        for i in order:
            modes = ((False, True) if (passes + i) % 2 else (True, False)) \
                if args.trace else (False,)
            for traced in modes:
                gc.collect()
                tracer.enabled = traced
                with (pipeline.traced_lp_writes(tracer) if traced
                      else contextlib.nullcontext()):
                    record = pipeline.run_operation(instances[i], paths[i], workload,
                                                    tracer, len(records))
                record["index"], record["pass"] = i, passes
                records.append(record)
                refs.append(reference_time())
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) / 2 >= end:
            break
    tracer.enabled = False
    ref_s = statistics.median(refs)
    for record in records:
        record["ref_s"] = ref_s
        record["latency_ref"] = record["latency_s"] / ref_s

    for record in records:
        if record["op"] < len(instances) * (2 if args.trace else 1):
            print(json.dumps({"record": record}, sort_keys=True))

    unsound = sum(r.get("wrong") == "unsound" for r in records)
    failed = sum(r["outcome"] != "verified" for r in records)
    if args.trace:
        metrics = layer_metrics(records, tracer, len(instances))
    else:
        metrics = end_to_end(records, len(instances), setup_s)
    print(f"# set-up took {setup_wall_s:.3f} s of wall time")
    summary(args, records, metrics, passes, len(instances))
    return {"correct": unsound == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def _by_instance(records, n_instances, traced):
    out = [[] for _ in range(n_instances)]
    for r in records:
        if r["traced"] == traced:
            out[r["index"]].append(r)
    return out


def _typical(group) -> dict:
    """The operation that stands for its instance in the trace: the (lower)
    median of its operations in ref units."""
    ranked = sorted(group, key=lambda r: r["latency_ref"])
    return ranked[(len(ranked) - 1) // 2]


def _median(group, key="latency_ref") -> float:
    return statistics.median(r[key] for r in group)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, n_instances, setup_s) -> dict:
    """Latency statistics over the instances, each instance counted once.
    The slowest instance stands in for a high percentile: a workload has
    too few instances for one with ten of them beyond it."""
    groups = _by_instance(records, n_instances, traced=False)
    typical = [_median(g) for g in groups]
    verified = sum(all(r["outcome"] == "verified" for r in g) for g in groups)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "synth.total": _metric(sum(typical), "ref"),
        "synth.p50": _metric(statistics.median(typical), "ref"),
        "synth.max": _metric(max(typical), "ref"),
        "verified_frac": _metric(verified / n_instances, "ratio"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def layer_metrics(records, tracer, n_instances) -> dict:
    """Self time per layer and counts, summed over the instances, each
    taken from the instance's typical traced operation."""
    metrics = defaultdict(float)
    calls = useful = 0
    traced = _by_instance(records, n_instances, traced=True)
    for group in traced:
        op = _typical(group)
        for span, self_s in tracer.self_times(op["op"]):
            metrics[f"{span.name}.self"] += self_s / op["ref_s"]
            if span.name == "solver" and span.attrs.get("status") == "infeasible":
                metrics["solver.self.infeasible"] += self_s / op["ref_s"]
            metrics["lp_format.bytes"] += span.attrs.get("bytes", 0)
        for a in op["attempts"]:
            calls += 1
            useful += a["status"] == "feasible"
            metrics["solver.unknown"] += a["status"] == "unknown"
            metrics["solver.nodes"] += a["nodes"]
            metrics["solver.lp_calls"] += a["lp_calls"]
            for key in ("rows", "vars", "nnz"):
                metrics[f"encode.{key}"] += a[key]
            for tag in TAGS:
                metrics[f"encode.rows.{tag}"] += a["rows_by_tag"].get(tag, 0)
                metrics[f"encode.vars.{tag}"] += a["vars_by_tag"].get(tag, 0)
        if "extract" in op:
            for key in ("max_period", "joint_period"):
                metrics[f"extract.{key}"] = max(metrics[f"extract.{key}"],
                                                op["extract"][key])
        if "verify" in op:
            metrics["oracle.executions"] += op["verify"]["executions"]
            metrics["oracle.evaluations"] += op["verify"]["evaluations"]
            metrics["oracle.sampled"] += op["verify"]["mode"] == "sampled"
        metrics["collision.violations"] += op.get("collisions", 0)
        if op["outcome"] in FAILURES:
            metrics[f"fail.{op['outcome']}"] += 1
    metrics["solver.calls"] = calls
    metrics["solver.useful_ratio"] = useful / calls if calls else 0.0
    plain = _by_instance(records, n_instances, traced=False)
    metrics["trace.overhead"] = (sum(_median(g) for g in traced)
                                 - sum(_median(g) for g in plain))
    return {name: _metric(metrics[name], unit) for name, unit in PER_LAYER.items()}


def summary(args, records, metrics, passes, n_instances) -> None:
    outcomes = defaultdict(int)
    for r in records:
        outcomes[r["outcome"]] += 1
    plain = _by_instance(records, n_instances, traced=False)
    wall = sum(_median(g, "latency_s") for g in plain)
    ref_ms = 1000 * statistics.median(r["ref_s"] for r in records)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(records)} "
          f"operations in {passes} passes, outcomes {dict(outcomes)}; wall time of "
          f"a pass {wall:.3f} s, reference kernel {ref_ms:.2f} ms; synth.* over "
          f"{n_instances} instances with {passes} samples each")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
