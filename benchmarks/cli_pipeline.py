"""The ``cli-pipeline`` workload: the reference system through cold CLI processes.

Each command runs as its own ``python -m subexp_wavelets.cli`` process, as a
command-line user runs it, so every process rebuilds the tables it reads.
That rebuild is measured on purpose: it is what the table-synthesis work in
``construction`` and ``numerics`` costs a CLI user today.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time

import ops
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170.0
PROBES = 5


def spawn(argv: list[str], env: dict) -> tuple[float, float, int]:
    """Run a child to its end; (wall seconds, peak RSS in MB, exit code).

    The child's standard error passes through; its standard output (progress
    lines) is dropped.  A child that outlives CHILD_TIMEOUT_S is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def startup_probe(env: dict) -> float:
    """Median wall time of a cold interpreter importing the CLI module."""
    walls = []
    for _ in range(PROBES):
        wall, _, code = spawn([sys.executable, "-c", "import subexp_wavelets.cli"], env)
        if code != 0:
            raise RuntimeError("the program does not import")
        walls.append(wall)
    return statistics.median(walls)


def commands(inp: ops.Inputs, workdir: str) -> list[tuple[str, list[str]]]:
    system = os.path.join(workdir, "system.json")

    def w(name):
        return os.path.join(workdir, name)

    return [
        ("build", ["build", "--out", system]),
        ("verify", ["verify", "--system", system, "--report", w("verify.json")]),
        ("project", ["project", "--system", system, "--levels", "0..6",
                     "--f", inp.gaussian_spec, "--report", w("project.json")]),
        ("expand", ["expand", "--system", system, "--parseval", "--f", inp.band_spec,
                    "--out", w("coeffs.csv"), "--report", w("expand.json")]),
    ]


def _report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)["report"]


def check_outputs(name: str, workdir: str, ref: ops.Reference) -> list[str]:
    """Check what one command wrote; an unreadable output is a problem too."""
    w = lambda f: os.path.join(workdir, f)  # noqa: E731
    try:
        if name == "build":
            certs = _report(w("system.certificates.json"))["certificates"]
            with open(w("system.json")) as fh:
                doc = json.load(fh)
            return ([f"certificate {k} fails" for k, ok in certs.items() if not ok]
                    + ops.check_system_doc(doc, ref))
        if name == "verify":
            suites = _report(w("verify.json"))["suites"]
            return [f"suite {k} fails" for k, r in suites.items() if not r["pass"]]
        if name == "project":
            rep = _report(w("project.json"))
            problems = ops.check_mra_rows(rep["rows"])
            if not (rep["monotone_trend"] and rep["seminorms_bounded_3x"]):
                problems.append("project reports a failed trend check")
            return problems
        rep = _report(w("expand.json"))
        problems = ops.check_coefficients(ops.read_coefficients_csv(w("coeffs.csv")), ref)
        if not rep["parseval"]["gap"] < ops.PARSEVAL_TOL:
            problems.append(f"parseval gap {rep['parseval']['gap']:.3e}")
        # the input has unit L2 norm, so Bessel bounds the window's energy by 1
        if not rep["coefficient_energy"] - 1.0 <= ops.BESSEL_TOL:
            problems.append(f"bessel excess {rep['coefficient_energy'] - 1.0:.3e}")
        return problems
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _chain(inp, ref, workdir, env, argv_of) -> tuple[dict, list]:
    """One whole round: the four commands, one after another."""
    results, problems = {}, []
    for name, args in commands(inp, workdir):
        if name != "build" and "build" not in results:
            problems.append([f"{name}: not run, build failed"])
            continue
        wall, rss, code = spawn(argv_of(name, args), env)
        if code != 0:
            problems.append([f"{name}: exit code {code}"])
            continue
        results[name] = (wall, rss)
        problems.append([f"{name}: {p}" for p in check_outputs(name, workdir, ref)])
    return results, problems


def run(inp: ops.Inputs, ref: ops.Reference, seconds: float, workdir: str,
        env: dict) -> dict:
    # set-up of a CLI user is the cold start every command pays
    setup_s = startup_probe(env)

    walls: dict = {}
    rss, rounds, problems = [], [], []
    start = time.perf_counter()
    cold = lambda name, args: [sys.executable, "-m", "subexp_wavelets.cli", *args]  # noqa: E731
    while True:
        t = time.perf_counter()
        results, found = _chain(inp, ref, workdir, env, cold)
        rounds.append(time.perf_counter() - t)
        problems += found
        for name, (wall, peak) in results.items():
            walls.setdefault(name, []).append(wall)
            rss.append(peak)
        if time.perf_counter() - start >= seconds:
            break

    def med(name):
        return statistics.median(walls.get(name, [float("nan")]))

    path = os.path.join(workdir, "system.json")
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "system_file_mb": (os.path.getsize(path) / 2 ** 20 if os.path.exists(path)
                           else float("nan"), "MB"),
        "project_s": (med("project"), "s"),
        "round_s": (statistics.median(rounds), "s"),
    }
    extra = {f"{name}_s": med(name) for name in ("build", "verify", "expand")}
    return {"metrics": metrics, "problems": problems, "extra": extra}


def run_traced(inp: ops.Inputs, ref: ops.Reference, workdir: str, env: dict) -> dict:
    """The same commands in-process through ``cli.main`` with spans around the
    library's public functions, one child per command for its peak RSS."""
    startup = startup_probe(env)
    child = os.path.join(HERE, "trace_cli.py")
    outputs = {}

    def traced(name, args):
        outputs[name] = os.path.join(workdir, f"trace-{name}.json")
        extras = ["--extras"] if name == "expand" else []
        return [sys.executable, child, outputs[name], str(inp.seed), *extras, "--", *args]

    results, problems = _chain(inp, ref, workdir, env, traced)
    spans, per_command = [], {}
    for name, path in outputs.items():
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            out = json.load(fh)
        offset = len(spans)
        for s in out["spans"]:
            if s["parent"] is not None:
                s["parent"] += offset
        spans += out["spans"]
        problems += [[f"{name} extras: {p}" for p in found] for found in out["extras"]]
        per_command[name] = command_split(out["spans"], out["rss_mb"])

    # tracing overhead: the traced verify child against a cold untraced one
    verify_args = dict(commands(inp, workdir))["verify"]
    untraced, _, _ = spawn([sys.executable, "-m", "subexp_wavelets.cli", *verify_args], env)
    overhead = results["verify"][0] - untraced if "verify" in results else float("nan")
    return {"spans": spans, "problems": problems, "startup_s": startup,
            "overhead_s": overhead, "overhead_base_s": untraced,
            "per_command": per_command}


def command_split(spans: list[dict], rss_mb: float) -> dict:
    """load / table rebuild / rest of one command's root span."""
    root = next(s for s in spans if s["name"].startswith("cli."))
    total = root["end"] - root["start"]
    load = sum(s["end"] - s["start"] for s in spans
               if s["name"] == "construction.from_json")
    tables = sum(s["end"] - s["start"] for s in spans
                 if s["name"].startswith(tracing.TABLE_SPANS)
                 or s["name"] == "numerics.synthesize")
    return {"total_s": total, "load_s": load, "tables_s": tables,
            "rest_s": total - load - tables, "rss_mb": rss_mb}
