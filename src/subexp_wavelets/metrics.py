"""Weighted seminorms, decay-rate fitting, and sequence-norm certificates.

Three families of measurements live here:

* discretized Gelfand--Shilov seminorms
  ``sup_x sup_beta (h^beta / beta!^rho1) e^{c |x|^{1/rho2}} |f^(beta)(x)|``,
* subexponential envelope fits ``|f(x)| ~ C exp(-c x^{1/rho})`` with the
  exponent either pinned to ``1/rho2`` or grid-searched,
* weighted sup norms ``sup |c_lambda| e^{k w(lambda)}`` on wavelet
  coefficient sets, penalizing large ``|m|`` and large ``|n / 2^m|``, and
  the largest feasible weight scale ``k`` in closed form.  Both read the
  coefficient array ``values`` against one weight array of the same layout.

Every sup over an infinite set is reported as a lower bound from finite
probes; reports never claim certified upper bounds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import lgamma
from numbers import Real

import numpy as np

logger = logging.getLogger(__name__)

OVERFLOW_EXPONENT = 700.0  # e^x limit in double precision
ENVELOPE_FLOOR = 1e-14
_K_CAP = 64.0


class MetricsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeminormParams:
    rho1: float
    rho2: float
    h: float
    c: float
    max_beta: int

    def __post_init__(self):
        if not all(isinstance(v, Real) and 0 < v < np.inf
                   for v in (self.rho2, self.h, self.c)):
            raise MetricsError("rho2, h, c must be positive and finite")
        if not (isinstance(self.rho1, Real) and 0 <= self.rho1 < np.inf):
            raise MetricsError(f"rho1 must be finite and nonnegative, got {self.rho1!r}")
        if not (isinstance(self.max_beta, (int, np.integer)) and self.max_beta >= 0):
            raise MetricsError(f"max_beta must be a nonnegative integer, "
                               f"got {self.max_beta!r}")


def seminorm_estimate(derivatives, params: SeminormParams, probe_points) -> float:
    """Lower bound for the weighted seminorm of ``f`` over finite probes.

    ``derivatives[beta]`` holds ``f^(beta)`` at the probes, beta = 0..max_beta
    (spectral differentiation upstream).  Probes whose decay weight overflows
    double precision are excluded and logged.
    """
    x = np.atleast_1d(np.asarray(probe_points, dtype=float))
    exponent = params.c * np.abs(x) ** (1.0 / params.rho2)
    keep = exponent <= OVERFLOW_EXPONENT
    if not np.all(keep):
        logger.info("seminorm_estimate: %d probes excluded (weight overflow)",
                    int(np.sum(~keep)))
    if not np.any(keep):
        return 0.0
    weight = np.exp(exponent[keep])
    best = 0.0
    for beta in range(params.max_beta + 1):
        # h^beta / beta!^rho1 via logs; harmless at these sizes but uniform
        scale = np.exp(beta * np.log(params.h) - params.rho1 * lgamma(beta + 1))
        vals = np.abs(np.atleast_1d(derivatives[beta])[keep])
        best = max(best, float(np.max(scale * weight * vals)))
    return best


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    amplitude_C: float
    rate_c: float
    exponent: float
    r_squared: float
    n_envelope_points: int

    def to_json_dict(self) -> dict:
        return {"amplitude_C": self.amplitude_C, "rate_c": self.rate_c,
                "exponent": self.exponent, "r_squared": self.r_squared,
                "n_envelope_points": self.n_envelope_points}


def _upper_envelope(x: np.ndarray, v: np.ndarray):
    """Oscillation peaks (when there are enough), then running max from right.

    Raw log-fitting of an oscillating |f| is biased by near-zeros, so local
    maxima are extracted first; monotone data has no interior maxima and is
    used whole.  The running max then discards anything shadowed from the
    right.
    """
    if x.size >= 3:
        interior = (v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])
        if int(np.sum(interior)) >= 10:
            keep = np.concatenate([[False], interior, [False]])
            x, v = x[keep], v[keep]
    running = np.maximum.accumulate(v[::-1])[::-1]
    on_env = v >= running
    return x[on_env], v[on_env]


def _linear_fit(t: np.ndarray, logv: np.ndarray):
    A = np.column_stack([np.ones_like(t), -t])
    sol, *_ = np.linalg.lstsq(A, logv, rcond=None)
    resid = logv - A @ sol
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return float(sol[0]), float(sol[1]), r2


def subexp_decay_fit(samples, exponent_mode: str = "fixed",
                     rho: float = 2.0) -> DecayFit:
    """Fit ``log |f| = log C - c x^{1/rho}`` to the decay envelope.

    ``samples`` is an (N, 2) table of (x, |f(x)|).  With
    ``exponent_mode="free"`` the exponent 1/rho is grid-searched over
    rho in [1, 4] (step 0.05) maximizing R^2.
    """
    if exponent_mode == "fixed" and not (np.isfinite(rho) and rho > 0):
        raise MetricsError(f"rho must be positive and finite, got {rho!r}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise MetricsError(f"samples must be an (N, 2) table, "
                           f"got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise MetricsError("samples must be finite")
    x, v = samples[:, 0], np.abs(samples[:, 1])
    order = np.argsort(x)
    x, v = x[order], v[order]
    ex, ev = _upper_envelope(x, v)
    mask = (ev > ENVELOPE_FLOOR) & (ex > 0)
    ex, ev = ex[mask], ev[mask]
    if ex.size < 10:
        raise MetricsError("insufficient envelope")
    logv = np.log(ev)
    if exponent_mode == "fixed":
        rhos = [rho]
    elif exponent_mode == "free":
        rhos = np.arange(1.0, 4.0 + 1e-9, 0.05)
    else:
        raise MetricsError(f"unknown exponent_mode {exponent_mode!r}")
    best = None
    for r in rhos:
        logC, c, r2 = _linear_fit(ex ** (1.0 / r), logv)
        if best is None or r2 > best[3]:
            best = (logC, c, 1.0 / r, r2)
    logC, c, expo, r2 = best
    return DecayFit(amplitude_C=float(np.exp(logC)), rate_c=c, exponent=expo,
                    r_squared=r2, n_envelope_points=int(ex.size))


# ---------------------------------------------------------------------------
# sequence norms on coefficient sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceNormParams:
    s: float
    t: float
    rho1: float
    rho2: float
    k: float = 1.0

    def __post_init__(self):
        for name in ("s", "t", "rho1", "rho2"):
            v = getattr(self, name)
            if not (isinstance(v, Real) and -np.inf < v < np.inf):
                raise MetricsError(f"{name} must be a finite real number, got {v!r}")
        if not (isinstance(self.k, Real) and 0 <= self.k < np.inf):
            raise MetricsError(f"weight scale k must be finite and nonnegative, "
                               f"got {self.k!r}")
        if not self.t > self.rho2:
            raise MetricsError("requires t > rho2")
        if not self.s > self.rho1:
            raise MetricsError("requires s > rho1")


def _weight(m, r, params: SequenceNormParams):
    """w = (2^-m)^(1/(t-rho2)) + (2^m)^(1/(s-rho1)) + (r 2^-m)^(1/t), r = |n|.

    Both scale terms are positive, so every weight is.
    """
    return ((2.0 ** -m) ** (1.0 / (params.t - params.rho2))
            + (2.0 ** m) ** (1.0 / (params.s - params.rho1))
            + (r * 2.0 ** -m) ** (1.0 / params.t))


def _window_weights(window, params: SequenceNormParams) -> np.ndarray:
    """w(lambda) in the layout of ``CoefficientSet.values`` (``window.shape``)."""
    n = np.arange(-window.N, window.N + 1, dtype=float)
    r = np.sqrt(sum(np.meshgrid(*[n * n] * window.d, indexing="ij", sparse=True)))
    m = np.arange(-window.M, window.M + 1, dtype=float)
    return np.broadcast_to(_weight(m.reshape((-1,) + (1,) * window.d), r, params),
                           window.shape)


def sequence_norm(coeffs, params: SequenceNormParams) -> float:
    """sup over the window of |c_lambda| exp(k w(lambda)).

    An entry with k w > OVERFLOW_EXPONENT makes the norm inf unless
    |c| <= 1e-300; such negligible entries are skipped and logged.
    """
    mag = np.abs(coeffs.values)
    arg = params.k * _window_weights(coeffs.window, params)
    over = arg > OVERFLOW_EXPONENT
    if np.any(mag[over] > 1e-300):
        return float("inf")
    if over.any():
        logger.info("sequence_norm: %d negligible entries skipped (weight overflow)",
                    int(over.sum()))
    keep = ~over
    return float(np.max(mag[keep] * np.exp(arg[keep]), initial=0.0))


class FeasibleK(float):
    """Largest feasible weight scale; ``vacuous`` marks an all-zero input."""

    def __new__(cls, value, vacuous=False):
        obj = super().__new__(cls, value)
        obj.vacuous = vacuous
        return obj


def max_feasible_k(coeffs, params: SequenceNormParams, budget: float) -> FeasibleK:
    """Largest k in [0, 64] with sequence_norm <= budget (``params.k`` unused).

    Since w > 0, |c| e^{k w} <= budget exactly when
    k <= (log budget - log|c|) / w; the answer is the least such bound over
    the nonzero coefficients, with k w kept within the range where
    ``sequence_norm`` is finite.
    """
    if not (np.isfinite(budget) and budget > 0):
        raise MetricsError(f"budget must be positive and finite, got {budget!r}")
    mag = np.abs(coeffs.values)
    nonzero = mag > 0
    if not nonzero.any():
        return FeasibleK(_K_CAP, vacuous=True)
    room = np.minimum(np.log(budget) - np.log(mag[nonzero]), OVERFLOW_EXPONENT)
    k = np.min(room / _window_weights(coeffs.window, params)[nonzero])
    return FeasibleK(float(np.clip(k, 0.0, _K_CAP)))
