"""Seeded inputs, the library operations the benchmark times, and their checks.

Every check compares against a property of the mathematics or against the
independent oracle in ``oracle.py``, never against a stored copy of earlier
output.  A check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

import numpy as np

from oracle import GevreyBandSpectrum, WaveletOracle, wavelet_coefficient

# The oracle and the program agree to about 3e-9 on psi and on the
# coefficients (trapezoid sums over a tabulated bump primitive against
# adaptive quadrature); 2e-8 leaves a margin of about 8 and still flags a
# table or sample array scaled by 1.01, which moves values by ~1e-2.
PSI_TOL = 2e-8
COEFF_TOL = 2e-8
NOISE_FLOOR = 1e-9       # the `project` command's floor for monotone errors
MRA_FINAL_TOL = 1e-6
PARSEVAL_TOL = 1e-5      # the `expand --parseval` gate
BESSEL_TOL = 1e-9
SEPARABLE_RTOL = 1e-10   # 2-D results against products of 1-D results

LEVELS = tuple(range(7))
WINDOW = (6, 32)         # (M, N) of `expand`'s default window
WINDOW_2D = (2, 8)
N_SCATTERED = 2000
SAMPLE_ORIGIN, SAMPLE_SPACING = -40.0, 1.0 / 64   # `build`'s psi_samples grid


@dataclass(frozen=True)
class Inputs:
    seed: int
    gaussian: tuple        # (center, scale) for the MRA experiment
    band: tuple            # (xi0, xi1) of the gevrey-band input
    gaussians_2d: tuple    # ((c, s), (c, s)) factors of the 2-D projection input
    band_2d: tuple         # (xi0, xi1) of the second factor of the 2-D expansion input
    scattered: tuple       # evaluate_psi points
    oracle_points: tuple   # the scattered points checked against the oracle
    sample_indices: tuple  # psi_samples indices checked against the oracle
    coefficient_indices: tuple  # (m, n) checked against the oracle

    @property
    def gaussian_spec(self) -> str:
        return "gaussian:{!r},{!r}".format(*self.gaussian)

    @property
    def band_spec(self) -> str:
        return "gevrey-band:{!r},{!r}".format(*self.band)


def _gaussian(rng: random.Random) -> tuple:
    return (rng.uniform(-1.5, 1.5), rng.uniform(1.0, 2.0))


def _band(rng: random.Random) -> tuple:
    # xi0 <= pi keeps the Parseval gap of the (6, 32) window at or below
    # 2e-6, against the 1e-5 gate: above xi0 ~ 1.1 pi more of the input's
    # energy sits at scale 1, whose shifts |n| <= 32 reach only |x| <= 16,
    # and the gap reached 1.02e-5 at xi0 = 1.16 pi.
    return (rng.uniform(0.8, 1.0) * math.pi, rng.uniform(1.8, 2.2) * math.pi)


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    scattered = tuple(rng.uniform(-40.0, 40.0) for _ in range(N_SCATTERED))
    centre = round(-SAMPLE_ORIGIN / SAMPLE_SPACING)
    # three samples on psi's main lobe (x in [-2, 1]), three anywhere
    lobe = [centre + rng.randint(-128, 64) for _ in range(3)]
    anywhere = [rng.randint(0, 2 * centre) for _ in range(3)]
    coefficients = tuple((rng.randint(-1, 1), rng.randint(-4, 4)) for _ in range(6))
    return Inputs(seed=seed, gaussian=_gaussian(rng), band=_band(rng),
                  gaussians_2d=(_gaussian(rng), _gaussian(rng)),
                  band_2d=_band(rng), scattered=scattered,
                  oracle_points=tuple(rng.sample(scattered[:100], 4)),
                  sample_indices=tuple(lobe + anywhere),
                  coefficient_indices=coefficients)


@dataclass(frozen=True)
class Reference:
    """Oracle values for one set of inputs."""

    psi_at_points: dict        # scattered x -> psi(x)
    psi_at_samples: dict       # sample index -> psi(x_index)
    coefficients: dict         # (m, n) -> c_{m,n} of the gevrey-band input


def make_reference(inp: Inputs) -> Reference:
    wavelet = WaveletOracle(a=1.0, rho=2.0)
    spectrum = GevreyBandSpectrum(*inp.band)
    return Reference(
        psi_at_points={x: wavelet.psi(x) for x in inp.oracle_points},
        psi_at_samples={i: wavelet.psi(SAMPLE_ORIGIN + i * SAMPLE_SPACING)
                        for i in inp.sample_indices},
        coefficients={mn: wavelet_coefficient(wavelet, spectrum, *mn)
                      for mn in inp.coefficient_indices})


def _compare(label: str, got: dict, want: dict, tol: float) -> list[str]:
    worst = max(abs(got[k] - want[k]) for k in want)
    return [] if worst <= tol else [f"{label}: deviation {worst:.3e} > {tol:g}"]


# ---------------------------------------------------------------------------
# checks on command-line artefacts
# ---------------------------------------------------------------------------

def check_system_doc(doc: dict, ref: Reference) -> list[str]:
    """system.json: every certificate passes and psi_samples match the oracle."""
    problems = [f"certificate {name} fails"
                for name, cert in doc["certificates"].items() if not cert["pass"]]
    samples = doc["psi_samples"]
    grid = samples["grid"]
    if (grid["origin"], grid["spacing"]) != (SAMPLE_ORIGIN, SAMPLE_SPACING):
        return problems + [f"psi_samples grid {grid} is not the reference grid"]
    got = {i: samples["re"][i] for i in ref.psi_at_samples}
    return problems + _compare("psi_samples vs oracle", got, ref.psi_at_samples,
                               PSI_TOL)


def read_coefficients_csv(path) -> dict:
    with open(path, newline="") as fh:
        return {(int(row["m"]), int(row["n_1"])): complex(float(row["re"]),
                                                          float(row["im"]))
                for row in csv.DictReader(fh)}


def check_coefficients(coefficients: dict, ref: Reference) -> list[str]:
    got = {mn: coefficients[mn] for mn in ref.coefficients}
    return _compare("coefficients vs oracle", got, ref.coefficients, COEFF_TOL)


def check_mra_rows(rows: list[dict]) -> list[str]:
    errs = [r["sup_error"] for r in rows]
    problems = []
    if any(errs[i + 1] > max(errs[i], NOISE_FLOOR) for i in range(len(errs) - 1)):
        problems.append(f"MRA errors not decreasing to the noise floor: {errs}")
    if errs[-1] >= MRA_FINAL_TOL:
        problems.append(f"MRA error at the last level {errs[-1]:.3e} >= {MRA_FINAL_TOL:g}")
    sem = [r["seminorm"] for r in rows]
    if max(sem) > 3.0 * sem[0]:
        problems.append(f"seminorms not bounded by 3x level 0: {sem}")
    return problems


# ---------------------------------------------------------------------------
# library operations (the timed part) and their checks
# ---------------------------------------------------------------------------

class SessionData:
    """Sampled inputs of the library operations, built once per run."""

    def __init__(self, inp: Inputs):
        from subexp_wavelets import IndexWindow, testfuncs
        from subexp_wavelets.numerics import Grid1D

        self.inputs = inp
        self.mra_grid = Grid1D.from_interval(-40.0, 40.0, 5121)
        self.expansion_grid = Grid1D(origin=-80.0, spacing=1.0 / 128, count=20481)
        self.grid_2d = Grid1D.from_interval(-10.0, 10.0, 321)
        self.grid_e2d = Grid1D.from_interval(-12.0, 12.0, 257)
        self.window = IndexWindow(M=WINDOW[0], N=WINDOW[1], d=1)
        self.window_2d = IndexWindow(M=WINDOW_2D[0], N=WINDOW_2D[1], d=2)
        self.window_e1d = IndexWindow(M=WINDOW_2D[0], N=WINDOW_2D[1], d=1)
        self.gauss = testfuncs.sample(testfuncs.gaussian(*inp.gaussian), self.mra_grid)
        gx, gy = (testfuncs.gaussian(*g) for g in inp.gaussians_2d)
        self.gauss_x = testfuncs.sample(gx, self.grid_2d)
        self.gauss_y = testfuncs.sample(gy, self.grid_2d)
        self.gauss_2d = testfuncs.sample_2d(gx, gy, self.grid_2d, self.grid_2d)
        bx, by = testfuncs.gevrey_band(*inp.band), testfuncs.gevrey_band(*inp.band_2d)
        self.band = testfuncs.sample(bx, self.expansion_grid)
        self.band_x = testfuncs.sample(bx, self.grid_e2d)
        self.band_y = testfuncs.sample(by, self.grid_e2d)
        self.band_2d = testfuncs.sample_2d(bx, by, self.grid_e2d, self.grid_e2d)
        self.scattered = np.array(inp.scattered)


def seminorm_params(ws):
    from subexp_wavelets.metrics import SeminormParams
    # the `project` command's defaults
    return SeminormParams(rho1=0.0, rho2=ws.rho2, h=0.5, c=0.5, max_beta=2)


# Each operation is a pair: ``run`` is the timed library work and returns
# what ``check`` (untimed) needs.


def run_verify(ws, data: SessionData):
    from subexp_wavelets import (build_kernel, kernel_decay_certificate,
                                 run_certificate_suite)
    return (run_certificate_suite(ws),
            kernel_decay_certificate(build_kernel(ws, level=0, dimension=1)))


def check_verify(ws, data, ref, result) -> list[str]:
    certs, fit = result
    problems = [f"certificate {k} fails" for k, c in certs.items() if not c["pass"]]
    if not (fit.rate_c > 0 and fit.r_squared > 0.95):
        problems.append(f"kernel decay fit rate {fit.rate_c} R^2 {fit.r_squared}")
    return problems


def run_project(ws, data: SessionData):
    from subexp_wavelets import mra_convergence_experiment
    return mra_convergence_experiment(ws, data.gauss, LEVELS, seminorm_params(ws))


def check_project(ws, data, ref, rows) -> list[str]:
    return check_mra_rows(rows)


LEVEL_2D = 2


def run_project2d(ws, data: SessionData):
    from subexp_wavelets import build_kernel, project
    return project(build_kernel(ws, level=LEVEL_2D, dimension=2), data.gauss_2d)


def check_project2d(ws, data, ref, q2) -> list[str]:
    from subexp_wavelets import build_kernel, project
    pk1 = build_kernel(ws, level=LEVEL_2D, dimension=1)
    outer = np.outer(project(pk1, data.gauss_x).values,
                     project(pk1, data.gauss_y).values)
    dev = float(np.max(np.abs(q2.values - outer)))
    if dev > SEPARABLE_RTOL * float(np.max(np.abs(outer))):
        return [f"2-D projection differs from the outer product by {dev:.3e}"]
    return []


def check_partial_sum(label, f, partial, energy) -> list[str]:
    # <f, sum c psi> on the grid is sum c^2 exactly, up to rounding
    w = 1.0
    for axis, g in enumerate(f.grids):
        shape = [1] * f.values.ndim
        shape[axis] = g.count
        w = w * g.trapezoid_weights().reshape(shape)
    pairing = float(np.sum(f.values * partial.values * w).real)
    if abs(pairing - energy) > 1e-10 * energy:
        return [f"{label}: <f, partial sum> {pairing!r} != energy {energy!r}"]
    return []


def run_expand(ws, data: SessionData):
    from subexp_wavelets import analyze, bessel_gap, parseval_check, synthesize_partial
    coeffs = analyze(ws, data.band, data.window)
    return (coeffs, synthesize_partial(ws, coeffs, data.expansion_grid),
            parseval_check(ws, data.band, data.band, data.window),
            bessel_gap(ws, data.band, data.window))


def check_expand(ws, data, ref, result) -> list[str]:
    coeffs, partial, parseval, bessel = result
    got = {(idx.m, idx.n[0]): c for idx, c in coeffs.coefficients.items()}
    problems = check_coefficients(got, ref)
    problems += check_partial_sum("1-D", data.band, partial, coeffs.energy())
    if not parseval["gap"] < PARSEVAL_TOL:
        problems.append(f"parseval gap {parseval['gap']:.3e}")
    if not bessel["excess"] <= BESSEL_TOL:
        problems.append(f"bessel excess {bessel['excess']:.3e}")
    return problems


def run_expand2d(ws, data: SessionData):
    from subexp_wavelets import analyze, synthesize_partial
    c2 = analyze(ws, data.band_2d, data.window_2d)
    return c2, synthesize_partial(ws, c2, (data.grid_e2d, data.grid_e2d))


def check_expand2d(ws, data, ref, result) -> list[str]:
    from subexp_wavelets import WaveletIndex, analyze
    c2, partial = result
    cx = analyze(ws, data.band_x, data.window_e1d, cross_check=False).coefficients
    cy = analyze(ws, data.band_y, data.window_e1d, cross_check=False).coefficients
    dev, scale = 0.0, 0.0
    for idx, c in c2.coefficients.items():
        if idx.epsilon == (1, 1):
            want = (cx[WaveletIndex(epsilon=(1,), m=idx.m, n=(idx.n[0],))]
                    * cy[WaveletIndex(epsilon=(1,), m=idx.m, n=(idx.n[1],))])
            dev, scale = max(dev, abs(c - want)), max(scale, abs(want))
    problems = []
    if dev > SEPARABLE_RTOL * scale:
        problems.append(f"2-D coefficients differ from 1-D products by {dev:.3e}")
    return problems + check_partial_sum("2-D", data.band_2d, partial, c2.energy())


def run_pointeval(ws, data: SessionData):
    return ws.evaluate_psi(data.scattered)


def check_pointeval(ws, data, ref, values) -> list[str]:
    got = {x: values[i].real for i, x in enumerate(data.inputs.scattered)
           if x in ref.psi_at_points}
    problems = _compare("evaluate_psi vs oracle", got, ref.psi_at_points, PSI_TOL)
    imag = float(np.max(np.abs(values.imag)))
    if imag > 1e-12:
        problems.append(f"evaluate_psi imaginary part {imag:.3e}")
    return problems


# name -> (run, check), in the order a session round runs them
OPERATIONS = {
    "verify": (run_verify, check_verify),
    "project": (run_project, check_project),
    "project2d": (run_project2d, check_project2d),
    "expand": (run_expand, check_expand),
    "expand2d": (run_expand2d, check_expand2d),
    "pointeval": (run_pointeval, check_pointeval),
}
