"""Benchmark of subexp-wavelets: a cold CLI pipeline against a warm library session.

    python3 benchmarks/run.py --workload {cli-pipeline,session} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``, so
nothing needs installing.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Lines before it give the recorded environment and, for a
traced run, the per-layer summary.  Each run also leaves its record, and a
traced run its spans, under ``.bench_out/``.  See README.md in this
directory for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP threads before numpy loads, here and (by inheritance) in
# every child process.  One thread: the table synthesis is elementwise
# `cos` (single-threaded in numpy) and measured no faster with 2 BLAS
# threads on 2 cores, while one thread is steadier on a shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cli-pipeline", "session")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        # recorded only: the program does not read it yet
        "SUBEXP_WAVELETS_THREADS": os.environ.get("SUBEXP_WAVELETS_THREADS"),
    }


def traced_session(inp, ref, seconds, workdir, env) -> dict:
    import cli_pipeline
    import session
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    res = session.run(inp, ref, seconds, workdir, tracer)
    tracer.restore()
    timed = tracer.spans[res["first_timed_span"]:]
    return {"spans": tracer.spans, "problems": res["problems"],
            "startup_s": cli_pipeline.startup_probe(env),
            "overhead_s": res["traced_round_s"] - res["untraced_round_s"],
            "overhead_base_s": res["untraced_round_s"],
            "summary": {"end_to_end": res["extra"],
                        "table_builds_in_timed_round": sum(
                            s["name"].startswith(tracing.TABLE_SPANS) for s in timed),
                        "timed_round_s": res["traced_round_s"]}}


def per_layer(res: dict) -> tuple[dict, dict]:
    """(metric -> (value, unit), summary) of a traced run."""
    import tracing

    spans = res["spans"]
    figures = tracing.layer_metrics(spans)
    figures["cli.startup_s"] = res["startup_s"]
    figures["trace.overhead_s"] = res["overhead_s"]
    figures["trace.overhead_pct"] = 100.0 * res["overhead_s"] / res["overhead_base_s"]
    units = {"construction.table_points": "count",
             "construction.table_points_per_s": "1/s",
             "construction.table_alloc_peak_mb": "MB",
             "numerics.synthesize_points": "count",
             "expansion.coefficients": "count",
             "expansion.coefficients_per_s": "1/s",
             "trace.overhead_pct": "%"}
    metrics = {k: (v, units.get(k, "s")) for k, v in figures.items()}
    summary = dict(res.get("summary", {}))
    summary["self_time_s"] = tracing.layer_self_times(spans)
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    tables = sum(s["end"] - s["start"] for s in spans
                 if s["name"].startswith(tracing.TABLE_SPANS)
                 or s["name"] == "numerics.synthesize")
    summary["table_synthesis_share"] = tables / total
    net = tracing.net_durations(spans)
    for name in ("construction.wide_table.phi", "projection.polynomial"):
        summary[name + "_s"] = sum(t for s, t in zip(spans, net) if s["name"] == name)
    if "per_command" in res:
        summary["cli"] = res["per_command"]
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "subexp_wavelets", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

    import cli_pipeline
    import ops
    import session

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    print("environment:", json.dumps(record["environment"], sort_keys=True))
    inp = ops.make_inputs(args.seed)
    ref = ops.make_reference(inp)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            if args.workload == "session":
                res = traced_session(inp, ref, args.seconds, workdir, env)
            else:
                res = cli_pipeline.run_traced(inp, ref, workdir, env)
            metrics, summary = per_layer(res)
            record["summary"] = summary
            spans_path = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w") as fh:
                json.dump(res["spans"], fh)
        elif args.workload == "session":
            res = session.run(inp, ref, args.seconds, workdir, None)
            metrics = res["metrics"]
            record["summary"] = {"end_to_end": res["extra"]}
        else:
            res = cli_pipeline.run(inp, ref, args.seconds, workdir, env)
            metrics = res["metrics"]
            record["summary"] = {"end_to_end": res["extra"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = res["problems"]
    failed = sum(1 for found in problems if found)
    for found in problems:
        for p in found:
            print("FAILED:", p)
    result = {"correct": failed == 0, "attempted": len(problems), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if "summary" in record:
        print("summary:", json.dumps(record["summary"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
