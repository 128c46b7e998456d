"""Child process of the traced ``cli-pipeline`` run: one CLI command in-process.

    python3 trace_cli.py SPANS.json SEED [--extras] -- <subexp-wavelets arguments>

Installs the tracer, runs ``cli.main`` on the arguments inside a ``cli.<command>``
span and writes the spans, the exit code and the peak RSS to SPANS.json.  With
``--extras`` it then runs the library operations no CLI command reaches
(2-D projection and expansion, partial sums, scattered-point evaluation) on
the system the command loaded, so the traced run reports every layer metric.
"""

from __future__ import annotations

import json
import resource
import sys

import ops
import tracing


def main(argv: list[str]) -> int:
    split = argv.index("--")
    out_path, seed, flags, cli_args = argv[0], int(argv[1]), argv[2:split], argv[split + 1:]
    tracer = tracing.Tracer()
    from subexp_wavelets import cli, expansion
    tracing.install(tracer)
    with tracer.span(f"cli.{cli_args[0]}"):
        code = cli.main(cli_args)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    extras = []
    if "--extras" in flags and code == 0:
        ws = tracer.last_system
        with tracer.paused():
            inp = ops.make_inputs(seed)
            data, ref = ops.SessionData(inp), ops.make_reference(inp)
            ws.dense_table("phi")
        coeffs = tracer.last_coefficients
        with tracer.span("bench.extras"):
            partial = expansion.synthesize_partial(ws, coeffs, data.expansion_grid)
        with tracer.paused():
            extras.append(ops.check_partial_sum("1-D", data.band, partial,
                                                coeffs.energy()))
        for name in ("project2d", "expand2d", "pointeval"):
            run, check = ops.OPERATIONS[name]
            with tracer.span("bench.extras"):
                result = run(ws, data)
            with tracer.paused():
                extras.append(check(ws, data, ref, result))
    tracer.restore()
    with open(out_path, "w") as fh:
        json.dump({"exit": code, "rss_mb": rss_mb, "spans": tracer.spans,
                   "extras": extras}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
