"""Command-line front end: build systems, rerun checks, drive experiments.

Commands: build, verify, project, expand, decay, parseval, report.
``verify`` runs the "verify" stage of the registry ``construction.CHECKS``.

Every command but ``build`` computes on the system ``main`` loads and
returns its report body with whether its checks passed; ``main`` alone
writes the report and maps each outcome to its exit code: 0 every check
passed; 1 a numerical check failed; 2 a bad flag, config value or input (an
unknown test function, a range end outside the stored window, or for
``decay --target phi`` outside the phi table, a non-finite ``--rho2``, a
grid with fewer than two points or more than 2^20, a non-finite or
non-positive window, ``--h`` or ``--c``, a negative ``--max-beta``, a
coefficient window the grid cannot resolve, or a projection level the grid
cannot carry: one its spacing does not resolve, or too deep or too shallow
for its window); 3 an unreadable or corrupt system file (one of another
schema included), or an output that cannot be written.

Reports are deterministic JSON (sorted keys, round-trip-safe floats);
timestamps live in a separate "metadata" field so byte comparison of the
"report" section is meaningful across runs.

``--config FILE`` names a JSON object whose entries stand for flags of the
same command: each key is a flag name with underscores for dashes
(``max_beta`` for ``--max-beta``), each value is written as on the command
line (``"0..6"``, ``0.9``), and ``true`` turns a switch on.  The entries are
parsed ahead of the explicit flags, which therefore win; an unknown key or a
value the flag rejects exits 2.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys

import numpy as np

from . import __version__, expansion, metrics, numerics, projection, testfuncs
from .bump import BumpError
from .construction import (TABLE_HALF, ConstructionError, WaveletSystem,
                           build_wavelet_system, checks, decay_profile,
                           sample_grid)
from .numerics import Grid1D, SampledFunction

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3

_NOISE_FLOOR = 1e-9  # quadrature resolution for monotone-trend flags
_PARSEVAL_GATE = 1e-5  # largest |<f, g> - coefficient sum| that passes


class ConfigError(ValueError):
    pass


class CorruptSystemError(ValueError):
    pass


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

# the thread counts the BLAS behind numpy's matrix products reads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _metadata() -> dict:
    """When and by what the report was made: the time, the versions of this
    package, numpy and Python, numpy's BLAS and the thread counts set for it
    (None where unset).  The report body holds none of it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "package_version": __version__, "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}}


def _emit(report: dict, path: str | None) -> None:
    doc = json.dumps({"report": report, "metadata": _metadata()},
                     sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)


def _load_system(path: str) -> WaveletSystem:
    try:
        with open(path) as fh:
            return WaveletSystem.from_json_dict(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CorruptSystemError(f"cannot read system file: {exc}") from exc


def _config_args(args: argparse.Namespace) -> list[str]:
    """The config file's entries as the flags they name; unknown keys rejected.

    ``"key": value`` stands for ``--key=value`` with underscores as dashes,
    and ``"key": true`` for the bare switch ``--key``.
    """
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    tokens = []
    for key, value in cfg.items():
        if key in ("func", "command", "config") or not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        tokens.append(flag if value is True else f"{flag}={value}")
    return tokens


def _samples_csv(path: str, f: SampledFunction) -> None:
    """``x,re,im`` rows of round-trip floats, as ``csv.writer`` writes them
    (no field needs quoting), joined and written at once."""
    (grid,) = f.grids
    lines = [f"{x!r},{re!r},{im!r}\r\n" for x, re, im in
             zip(grid.points().tolist(), f.values.real.tolist(),
                 f.values.imag.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("x,re,im\r\n" + "".join(lines))


def _expansion_grid() -> Grid1D:
    # spacing 1/128: alias frequency 2pi * 128 ~ 804 clears the atom band up
    # to scale 6 (2^6 * 8pi/3 ~ 536); scale 7 (~ 1072) is rejected
    return Grid1D(origin=-80.0, spacing=1.0 / 128, count=20481)


def _parse_window(text: str) -> expansion.IndexWindow:
    try:
        m, n = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad window {text!r}, expected M,N") from exc
    try:
        window = expansion.IndexWindow(M=m, N=n, d=1)
        expansion.check_resolution(window, [_expansion_grid()])
    except expansion.ExpansionError as exc:
        raise argparse.ArgumentTypeError(f"bad window {text!r}: {exc}") from exc
    return window


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}, expected a positive finite number")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}, expected a non-negative integer")
    return value


def _parse_levels(text: str) -> list[int]:
    try:
        if ".." not in text:
            return [int(p) for p in text.split(",")]
        lo, hi = (int(p) for p in text.split(".."))
        if lo <= hi:
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad levels {text!r}, expected LO..HI with LO <= HI or L,L,...")


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (testfuncs.parse_scalar(p) for p in text.split(","))
        if -np.inf < lo < hi < np.inf:
            return lo, hi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad range {text!r}, expected LO,HI with LO < HI")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    ws = build_wavelet_system(a=args.a, rho2=args.rho2, window=args.window)
    out = args.out
    # json.dumps without indent runs the C encoder; json.dump never does
    doc = json.dumps(ws.to_json_dict(), sort_keys=True)
    with open(out, "w") as fh:
        fh.write(doc + "\n")
    stem = out[:-5] if out.endswith(".json") else out
    _samples_csv(stem + ".psi.csv", ws.psi_samples)
    _samples_csv(stem + ".phi.csv", ws.phi_samples)
    summary = {
        "parameters": {"a": ws.a, "rho2": ws.rho2},
        "certificates": {name: bool(cert["pass"])
                         for name, cert in ws.certificates.items()},
        "certificate_digest": ws.certificate_digest(),
        "artifacts": [out, stem + ".psi.csv", stem + ".phi.csv"],
    }
    _emit(summary, stem + ".certificates.json")
    all_pass = all(cert["pass"] for cert in ws.certificates.values())
    print(f"built system -> {out} "
          f"({'all certificates pass' if all_pass else 'CERTIFICATE FAILURE'})")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILURE


def cmd_verify(args, ws: WaveletSystem) -> tuple[dict, bool]:
    suites = checks("verify")
    names = list(suites) if args.suite == "all" else [args.suite]
    results = {name: suites[name](ws) for name in names}
    for name in names:
        print(f"{name}: {'pass' if results[name]['pass'] else 'FAIL'}")
    return ({"system": args.system, "suites": results},
            all(r["pass"] for r in results.values()))


def cmd_project(args, ws: WaveletSystem) -> tuple[dict, bool]:
    fn = testfuncs.parse_spec(args.f)
    f = testfuncs.sample(fn, sample_grid(args.window))
    params = metrics.SeminormParams(rho1=0.0, rho2=ws.rho2, h=args.h,
                                    c=args.c, max_beta=args.max_beta)
    rows = projection.mra_convergence_experiment(ws, f, args.levels, params)
    if args.out:
        projection.convergence_csv(rows, args.out)
    errs = [r["sup_error"] for r in rows]
    monotone = all(errs[i + 1] <= max(errs[i], _NOISE_FLOOR)
                   for i in range(len(errs) - 1))
    sem = [r["seminorm"] for r in rows]
    bounded = max(sem) <= 3.0 * sem[0] if sem and sem[0] > 0 else True
    print(f"monotone-trend: {monotone}; seminorms bounded: {bounded}")
    return ({"function": fn.description, "rows": rows,
             "monotone_trend": bool(monotone),
             "seminorms_bounded_3x": bool(bounded)}, monotone and bounded)


def cmd_expand(args, ws: WaveletSystem) -> tuple[dict, bool]:
    fn = testfuncs.parse_spec(args.f)
    f = testfuncs.sample(fn, _expansion_grid())
    coeffs = expansion.analyze(ws, f, args.window,
                               source_descriptor=fn.description)
    if args.out:
        expansion.coefficients_to_csv(coeffs, args.out)
        with open(args.out + ".header.json", "w") as fh:
            fh.write(expansion.coefficients_header(coeffs, ws) + "\n")
    report = {"function": fn.description,
              "window": {"M": args.window.M, "N": args.window.N},
              "sup_coefficient": coeffs.sup_magnitude(),
              "coefficient_energy": coeffs.energy()}
    if not args.parseval:
        return report, True
    check = expansion.parseval_from_coefficients(f, coeffs)
    report["parseval"] = {"lhs": check["lhs"].real, "rhs": check["rhs"].real,
                          "gap": check["gap"]}
    print(f"parseval gap: {check['gap']:.3e}")
    return report, check["gap"] < _PARSEVAL_GATE


def cmd_decay(args, ws: WaveletSystem) -> tuple[dict, bool]:
    lo, hi = args.range
    if args.target == "psi":
        table = decay_profile(ws, hi)
    elif not 0.0 <= hi <= TABLE_HALF:
        raise ConfigError(f"range end {hi:g} lies outside [0, {TABLE_HALF:g}], "
                          f"the phi table")
    else:
        # phi is read at spacing 1/256 on [0, hi] whatever the table's
        # spacing, so the fit does not move with how the table is stored
        per_unit = 256
        x = np.arange(int(hi * per_unit) + 1) / per_unit
        table = np.column_stack([x, np.abs(ws.interpolator("phi")(x))])
    table = table[table[:, 0] >= lo]
    mode = "free" if args.exponent == "free" else "fixed"
    fit = metrics.subexp_decay_fit(table, mode, rho=ws.rho2)
    ok = fit.rate_c > 0 and fit.r_squared > 0.9
    if mode == "free":
        ok = ok and 0.40 <= fit.exponent <= 0.60
    print(f"exponent {fit.exponent:.3f}, rate {fit.rate_c:.3f}, "
          f"R^2 {fit.r_squared:.4f}")
    return ({"target": args.target, "range": [lo, hi], "mode": mode,
             "fit": fit.to_json_dict()}, ok)


def cmd_parseval(args, ws: WaveletSystem) -> tuple[dict, bool]:
    grid = _expansion_grid()
    f = testfuncs.sample(testfuncs.parse_spec(args.f), grid)
    g = testfuncs.sample(testfuncs.parse_spec(args.g), grid)
    check = expansion.parseval_check(ws, f, g, args.window)
    print(f"gap: {check['gap']:.3e}")
    return ({"lhs_re": check["lhs"].real, "rhs_re": check["rhs"].real,
             "gap": check["gap"]}, check["gap"] < _PARSEVAL_GATE)


def cmd_report(args, ws: WaveletSystem) -> tuple[dict, bool]:
    return ({"parameters": {"a": ws.a, "rho2": ws.rho2},
             "certificates": ws.certificates}, True)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subexp-wavelets",
        description="Band-limited wavelets with subexponential decay: "
                    "construction, projections, expansions, certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a wavelet system")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--rho2", type=float, default=2.0)
    p.add_argument("--window", type=_positive_float, default=40.0)
    p.add_argument("--out", default="system.json")

    p = sub.add_parser("verify", help="rerun check suites on a stored system")
    p.add_argument("--suite", choices=["all", *checks("verify")], default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("project", help="projection convergence experiment")
    p.add_argument("--f", default="gaussian")
    p.add_argument("--levels", type=_parse_levels, default="0..6")
    p.add_argument("--window", type=_positive_float, default=40.0)
    p.add_argument("--h", type=_positive_float, default=0.5)
    p.add_argument("--c", type=_positive_float, default=0.5)
    p.add_argument("--max-beta", type=_nonnegative_int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("expand", help="wavelet coefficient expansion")
    p.add_argument("--f", default="gevrey-band:pi,2pi")
    p.add_argument("--window", type=_parse_window, default="6,32")
    p.add_argument("--parseval", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("decay", help="fit the decay envelope")
    p.add_argument("--target", choices=["psi", "phi"], default="psi")
    p.add_argument("--exponent", choices=["free", "fixed"], default="free")
    p.add_argument("--range", type=_parse_range, default="5,40")
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("parseval", help="bilinear pairing vs coefficient sum")
    p.add_argument("--f", default="gevrey-band:pi,2pi")
    p.add_argument("--g", default="gevrey-band:pi,2pi")
    p.add_argument("--window", type=_parse_window, default="6,32")
    p.set_defaults(func=cmd_parseval)

    p = sub.add_parser("report", help="dump stored certificates")
    p.set_defaults(func=cmd_report)

    for name, p in sub.choices.items():
        if name != "build":
            p.add_argument("--system", required=True)
            p.add_argument("--report", default=None)
        p.add_argument("--config", default=None)
    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's flags go first, so explicit flags win
            args = parser.parse_args(argv[:1] + _config_args(args) + argv[1:])
        if args.command == "build":
            return cmd_build(args)
        ws = _load_system(args.system)
        report, ok = args.func(args, ws)
        report["certificate_digest"] = ws.certificate_digest()
        _emit(report, args.report)
        return EXIT_OK if ok else EXIT_CHECK_FAILURE
    except (ConfigError, BumpError, ConstructionError, numerics.NumericsError,
            testfuncs.TestFunctionError, projection.PhiTailError,
            projection.UnresolvedLevelError) as exc:
        return _fail(exc, EXIT_CONFIG_ERROR)
    except (expansion.ExpansionError, metrics.MetricsError,
            projection.ProjectionError) as exc:
        return _fail(exc, EXIT_CHECK_FAILURE)
    except (CorruptSystemError, OSError) as exc:
        return _fail(exc, EXIT_IO_ERROR)


if __name__ == "__main__":
    sys.exit(main())
