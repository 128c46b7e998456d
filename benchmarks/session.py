"""The ``session`` workload: one warm library process, as a notebook user works.

Set-up builds the reference system, saves and reloads it, samples the inputs
and fills every table the operations read.  The timed rounds then only read
tables (spline atom evaluation), so projection, expansion and the
scattered-point path of numerics do the work.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time

import numpy as np

import ops
import tracing

def _fill_tables(ws) -> None:
    """Build every table the operations read; later calls are lookups."""
    ws.dense_table("psi")
    for order in (0, 1, 2):
        ws.dense_table("phi", order)
    ws.wide_table("psi")


def run_operation(name: str, ws, data, ref) -> tuple[float, list[str]]:
    """Time one operation's library work, then check it: (seconds, problems)."""
    run, check = ops.OPERATIONS[name]
    t0 = time.perf_counter()
    try:
        result = run(ws, data)
    except Exception as exc:  # a failing operation is counted, not fatal
        dt = time.perf_counter() - t0
        return dt, [f"{name}: {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    return dt, [f"{name}: {p}" for p in check(ws, data, ref, result)]


# One round.  `verify` takes ~0.2 s, short enough for the machine's
# second-scale speed swings to move one sample by 25%, so a round runs it
# five times, spread between the other operations, and `verify_s` is the
# median.
ROUND = ("verify", "project", "verify", "project2d", "verify", "expand",
         "verify", "expand2d", "verify", "pointeval")


def _round(ws, data, ref, times: dict, problems: list) -> float:
    """One pass over the round's operations; returns the time spent in the library."""
    total = 0.0
    for name in ROUND:
        dt, found = run_operation(name, ws, data, ref)
        total += dt
        times.setdefault(name, []).append(dt)
        problems.append(found)
    return total


def run(inp: ops.Inputs, ref: ops.Reference, seconds: float, workdir: str,
        tracer: tracing.Tracer | None) -> dict:
    from subexp_wavelets import WaveletSystem, build_wavelet_system

    t_setup = time.perf_counter()
    ws = build_wavelet_system(1.0, 2.0)
    build_s = time.perf_counter() - t_setup
    path = os.path.join(workdir, "system.json")
    doc = ws.to_json_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    with open(path) as fh:
        reloaded = WaveletSystem.from_json_dict(json.load(fh))
    data = ops.SessionData(inp)
    _fill_tables(ws)
    setup_s = time.perf_counter() - t_setup

    problems = [ops.check_system_doc(doc, ref)]
    for name in ("psi_hat", "phi_hat", "psi_samples", "phi_samples"):
        if not np.array_equal(getattr(ws, name).values, getattr(reloaded, name).values):
            problems[0].append(f"{name} changed in the JSON round trip")

    times: dict = {}
    rounds = []
    untraced = None
    if tracer is not None:
        # same round without spans, for the tracing overhead
        with tracer.paused():
            untraced = _round(ws, data, ref, {}, problems)
    first_timed_span = len(tracer.spans) if tracer is not None else None
    start = time.perf_counter()
    while True:
        rounds.append(_round(ws, data, ref, times, problems))
        if tracer is not None or time.perf_counter() - start >= seconds:
            break

    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "system_file_mb": (os.path.getsize(path) / 2 ** 20, "MB"),
        "project_s": (statistics.median(times["project"]), "s"),
        "round_s": (statistics.median(rounds), "s"),
    }
    extra = {f"{name}_s": statistics.median(t) for name, t in times.items()
             if name != "project"}
    extra["build_s"] = build_s
    return {"metrics": metrics, "problems": problems, "extra": extra,
            "untraced_round_s": untraced, "traced_round_s": rounds[0],
            "first_timed_span": first_timed_span}
