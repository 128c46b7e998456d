"""Bell function, wavelet and scaling spectra, and physical-space samples.

The construction: pick an even Gevrey bump with mass pi/2, form the bell

    b(xi) = sin(cum(xi - pi)) * cos(cum2(xi - 2 pi))      for xi > 0,

extended evenly to xi <= 0, where ``cum`` is the bump primitive and ``cum2``
the primitive of the half-dilated bump (same total mass).  The wavelet
spectrum is ``psi_hat(xi) = exp(i xi / 2) b(xi)``; the scaling spectrum has
modulus 1 on the low band, ``b(2 xi)`` on the transition band, phase
``exp(i xi)``.  The bell vanishes *exactly* (literal zeros) outside
``[2pi/3, 8pi/3]`` and its mirror, which forces every moment of the wavelet
to vanish and makes the shift-orthonormality lattice sums finite.

Physical-space samples and tables are trapezoid quadratures of the spectrum
on uniform grids, summed by the chirp-z engine ``numerics.chirp_synthesis``;
scattered points use the baby-step/giant-step direct sum
``numerics.synthesize_values``.  For the many-evaluation call sites (atoms,
kernels) the system carries lazily built dense tables read by the natural
cubic spline ``numerics.NaturalSpline``, accurate to ~1e-11, and keeps every
atom block it reads on a uniform grid in one ``numerics.Kept`` store: the
blocks of expansion and of two build certificates (``_axis_block``), each
either a window of one kept row or a kept per-shift block.

Every check lives in one registry, ``CHECKS``: report name -> (stage, check).
"build" checks (uppercase) read the analytic spectrum and fresh tables and are
stored in the system file; "verify" suites (lowercase) rerun on a loaded file.
"""

from __future__ import annotations

import hashlib
import json
from math import lgamma

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numerics
from .bump import GevreyBump, build_bump, stencil
from .numerics import Grid1D, NaturalSpline, SampledFunction, SpectrumOnBand

SCHEMA_TAG = "dhws-v1"

PSI_BAND = (2 * np.pi / 3, 8 * np.pi / 3)
PHI_BAND = (0.0, 4 * np.pi / 3)
_SPECTRAL_HALF = 3 * np.pi  # stored spectra live on [-3 pi, 3 pi]

# dense-table layout: spacing fine enough that cubic interpolation of a
# band-limited function (|xi| <= 8 pi / 3) stays below ~1e-11
TABLE_SPACING = 1.0 / 256
TABLE_HALF = 264.0
_TABLE_BAND_POINTS = 4096
_WIDE_HALF = 1500.0
_WIDE_SPACING = 1.0 / 16
_WIDE_BAND_POINTS = 8192
# physical samples: spacing 1/64 on [-window, window], at most this many
MAX_SAMPLES = 2 ** 20
# psi_hat = exp(i xi / 2) bell, phi_hat = exp(i xi) |phi_hat|: each table is
# the even cosine profile of the modulus, read at x + shift
_CENTER_SHIFT = {"psi": 0.5, "phi": 1.0}
# bytes of atom blocks a system keeps (``_axis_block``); the (6, 32) window
# on expand's 20,481-point grid takes 10.5 MB, and the two-scale and
# low-pass certificates about 0.6 MB
_BLOCK_BYTES = 32 * 2 ** 20


class ConstructionError(ValueError):
    pass


class BellFunction:
    """Even bell profile; values in [0, 1], literal zeros off the support."""

    def __init__(self, bump: GevreyBump):
        self.bump = bump
        # support of the positive-side bell: sin factor switches on at pi - a,
        # cos factor reaches pi/2 at 2 pi + 2 a
        self.support_lo = np.pi - bump.a
        self.support_hi = 2 * np.pi + 2 * bump.a

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        u = np.abs(np.atleast_1d(xi))
        s = np.sin(self.bump.cumulative(u - np.pi))
        # primitive of the half-dilated bump: cum2(v) = cum(v / 2)
        c = np.cos(self.bump.cumulative(u / 2.0 - np.pi))
        b = s * c
        b[(u <= self.support_lo) | (u >= self.support_hi)] = 0.0
        return float(b[0]) if scalar else b


def build_bell(bump: GevreyBump) -> BellFunction:
    return BellFunction(bump)


def scaling_modulus(bell: BellFunction, xi) -> np.ndarray:
    """|phi_hat|: 1 on the low band, bell(2 xi) on the transition band, 0 beyond."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    u = np.abs(np.atleast_1d(xi))
    out = np.zeros_like(u)
    out[u <= 2 * np.pi / 3] = 1.0
    mid = (u > 2 * np.pi / 3) & (u < 4 * np.pi / 3)
    out[mid] = bell(2.0 * u[mid])
    return float(out[0]) if scalar else out


class WaveletSystem:
    """The constructed pair (psi, phi) plus parameters and certificates."""

    def __init__(self, a, rho2, bell, psi_hat, phi_hat, psi_samples, phi_samples,
                 certificates=None):
        self.a = a
        self.rho2 = rho2
        self.bell = bell
        self.psi_hat = psi_hat
        self.phi_hat = phi_hat
        self.psi_samples = psi_samples
        self.phi_samples = phi_samples
        self.certificates = certificates if certificates is not None else {}
        self._tables: dict = {}
        self._wide: dict = {}
        self._fits: dict = {}  # values read off the tables (projection._phi_tail)
        self._blocks = numerics.Kept(_BLOCK_BYTES)  # uniform-grid atom blocks

    # -- basic geometry ----------------------------------------------------

    @property
    def physical_grid(self) -> Grid1D:
        return self.psi_samples.grids[0]

    @property
    def window(self) -> float:
        g = self.physical_grid
        return max(abs(g.origin), abs(g.last))

    # -- analytic spectra --------------------------------------------------

    def psi_hat_fn(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return np.exp(0.5j * xi) * self.bell(xi)

    def phi_hat_fn(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return np.exp(1j * xi) * scaling_modulus(self.bell, xi)

    # -- physical-space evaluation ----------------------------------------

    def evaluate_psi(self, x, derivative_order: int = 0) -> np.ndarray:
        """Spectral-quadrature evaluation of psi (or a derivative) anywhere."""
        return numerics.synthesize_values(self.psi_hat, x, order=derivative_order)

    def evaluate_phi(self, x, derivative_order: int = 0) -> np.ndarray:
        return numerics.synthesize_values(self.phi_hat, x, order=derivative_order)

    # -- dense tables (fast evaluation backbone) ---------------------------

    def band_spectrum(self, which: str, n_band: int) -> SpectrumOnBand:
        """|psi_hat| or |phi_hat| on ``n_band`` uniform nodes of its positive band.

        Every table is synthesized from this one-sided band: the table value
        of order ``k`` at ``x`` is ``2 Re synthesize_values(band, x + shift, k)``.
        """
        if which == "psi":
            lo, hi = self.bell.support_lo, self.bell.support_hi
        else:
            lo, hi = PHI_BAND
        grid = Grid1D.from_interval(lo, hi, n_band)
        xi = grid.points()
        amp = self.bell(xi) if which == "psi" else scaling_modulus(self.bell, xi)
        return SpectrumOnBand(band=(lo, hi), grid=grid, values=amp,
                              declared_support=((lo, hi),))

    def _even_table(self, which: str, order: int, x_max: float, spacing: float,
                    n_band: int):
        """(grid, values) of psi/phi (order-th derivative) on [-x_max, x_max].

        One chirp-z synthesis of the half profile
        ``(1/pi) int band amp(xi) xi^order cos(u xi + order pi/2) dxi``, u >= 0,
        read at ``|x + shift|``; odd orders flip sign where ``x + shift < 0``.
        """
        band = self.band_spectrum(which, n_band)
        g = band.grid
        coeff = band.values * (1j * g.points()) ** order * g.trapezoid_weights() / np.pi
        shift = _CENTER_SHIFT[which]
        count = int((x_max + shift + 1.0) / spacing + 0.5) + 1
        half = numerics.chirp_synthesis(coeff, g.origin, g.spacing, 0.0, spacing,
                                        count).real
        grid = Grid1D(origin=-x_max, spacing=spacing,
                      count=2 * int(round(x_max / spacing)) + 1)
        u = grid.points() + shift
        vals = half[np.rint(np.abs(u) / spacing).astype(np.int64)]
        if order % 2 == 1:
            vals[u < 0] *= -1.0
        return grid, vals

    def dense_table(self, which: str, order: int = 0):
        """(grid, values) of psi/phi (derivative) on [-TABLE_HALF, TABLE_HALF]."""
        key = (which, order)
        if key not in self._tables:
            grid, vals = self._even_table(which, order, TABLE_HALF, TABLE_SPACING,
                                          _TABLE_BAND_POINTS)
            self._tables[key] = (grid, vals, NaturalSpline(grid, vals))
        grid, vals, _ = self._tables[key]
        return grid, vals

    def interpolator(self, which: str, order: int = 0) -> NaturalSpline:
        """Fast callable: cubic spline over the dense table, 0 outside it."""
        self.dense_table(which, order)
        return self._tables[(which, order)][2]

    def atom_values(self, bit: int, m: int, n, x, order: int = 0) -> np.ndarray:
        """2^(m/2) 2^(m*order) f^(order)(2^m x - n) with f = phi (bit 0) or psi (bit 1).

        The one evaluator of dilated and shifted atoms.  A column of shifts
        ``n = ns[:, None]`` broadcasts against points ``x`` to the atom block
        ``A[k, j]`` that projection, analysis and synthesis multiply with.
        """
        f = self.interpolator("psi" if bit else "phi", order)
        return _dilated(f, m, n, x, order)

    def wide_table(self, which: str):
        """Coarse long-range table for moment-type integrals (spacing 1/16,
        on [-_WIDE_HALF, _WIDE_HALF])."""
        if which not in self._wide:
            self._wide[which] = self._even_table(which, 0, _WIDE_HALF, _WIDE_SPACING,
                                                 _WIDE_BAND_POINTS)
        return self._wide[which]

    # -- named checks ------------------------------------------------------

    def moments(self, k_max: int = 10) -> np.ndarray:
        """Physical-side moments int x^k psi dx, k = 0..k_max, wide window."""
        return numerics.moments(*self.wide_table("psi"), k_max)

    def certificate_digest(self) -> str:
        blob = json.dumps(self.certificates, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        def arrays(g: Grid1D, vals: np.ndarray) -> dict:
            return {"grid": {"origin": g.origin, "spacing": g.spacing, "count": g.count},
                    "re": vals.real.tolist(), "im": vals.imag.tolist()}

        def spec_dict(s: SpectrumOnBand) -> dict:
            return {"band": list(s.band), **arrays(s.grid, s.values),
                    "declared_support": [list(iv) for iv in s.declared_support]}

        return {
            "schema": SCHEMA_TAG,
            "parameters": {"a": self.a, "rho2": self.rho2},
            "psi_hat": spec_dict(self.psi_hat),
            "phi_hat": spec_dict(self.phi_hat),
            "psi_samples": arrays(self.psi_samples.grids[0], self.psi_samples.values),
            "phi_samples": arrays(self.phi_samples.grids[0], self.phi_samples.values),
            "certificates": self.certificates,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WaveletSystem":
        if doc.get("schema") != SCHEMA_TAG:
            raise ConstructionError(f"unknown schema tag: {doc.get('schema')!r}")

        def arrays(d) -> tuple:
            re, im = (np.asarray(d[part], dtype=float) for part in ("re", "im"))
            return Grid1D(**d["grid"]), re + 1j * im

        def read_spec(d) -> SpectrumOnBand:
            g, vals = arrays(d)
            return SpectrumOnBand(band=tuple(d["band"]), grid=g, values=vals,
                                  declared_support=tuple(tuple(iv) for iv in
                                                         d["declared_support"]))

        params = doc["parameters"]
        bell = build_bell(build_bump(params["a"], params["rho2"]))
        return cls(a=params["a"], rho2=params["rho2"], bell=bell,
                   psi_hat=read_spec(doc["psi_hat"]), phi_hat=read_spec(doc["phi_hat"]),
                   psi_samples=SampledFunction(*arrays(doc["psi_samples"])),
                   phi_samples=SampledFunction(*arrays(doc["phi_samples"])),
                   certificates=doc.get("certificates", {}))


def _dilated(f, m: int, n, x, order: int) -> np.ndarray:
    """2^(m/2) 2^(m*order) f(2^m x - n), for ``f`` an order-th derivative."""
    x = np.asarray(x, dtype=float)
    return (2.0 ** (m * (0.5 + order))) * f(np.ldexp(x, m) - n)


def _axis_block(ws: WaveletSystem, bit: int, m: int, N: int, axis,
                order: int = 0):
    """(B, geometry): rows ``k`` = shift ``-N + k`` of one axis's scale-m atom
    factor, and how B lies in a kept row.

    Scattered points evaluate each shift and keep nothing.  On a ``Grid1D``
    the system keeps what it evaluates (``ws._blocks``), read-only, under
    the evaluator (the object ``interpolator`` returns), ``m``, ``order``,
    the grid and ``N``, so a replaced or wrapped evaluator misses.  Shift n
    moves the atom by n s samples, s = 2^-m / h.  When s is a whole number
    below the count, the kept value is one row on the grid extended by N s
    samples at each end, and B a read-only strided view of windows of it:
    row k starts at sample ``(2N - k) s``.  Then ``geometry`` is
    ``(s, (a, b))``: samples ``a <= i < b`` of the kept row are the only
    ones that can be nonzero, since sample i sits at ``2^m x = 2^m origin +
    (i - N s) / s`` and the dense-table evaluator reads 0 beyond
    +-TABLE_HALF (one sample more at each end absorbs rounding).  For any
    other s, B itself is kept and ``geometry`` is None.
    """
    ns = np.arange(-N, N + 1)[:, None]
    if not isinstance(axis, Grid1D):
        return ws.atom_values(bit, m, ns, axis, order), None
    f = ws.interpolator("psi" if bit else "phi", order)
    s = np.ldexp(1.0, -m) / axis.spacing
    s = int(s) if s.is_integer() and s < axis.count else 0  # 0: no windows

    def make():  # the row every window reads, or the grid's per-shift block
        x = axis.origin + axis.spacing * np.arange(-N * s, axis.count + N * s)
        value = _dilated(f, m, 0 if s else ns, x, order)
        value.flags.writeable = False
        return value

    kept = ws._blocks.get((f, m, order, axis, N), make)
    if not s:
        return kept, None
    centre = N * s - axis.origin / axis.spacing
    span = (max(int(np.floor(centre - TABLE_HALF * s)) - 1, 0),
            min(int(np.ceil(centre + TABLE_HALF * s)) + 2, kept.size))
    return sliding_window_view(kept, axis.count)[2 * N * s::-s], (s, span)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def sample_grid(window: float) -> Grid1D:
    """[-window, window] at spacing 1/64: the physical samples and ``project``'s grid.

    A window that needs more than ``MAX_SAMPLES`` points, or is not finite,
    raises ``ConstructionError`` before anything is allocated.
    """
    if not window < (MAX_SAMPLES - 1) / 128:
        raise ConstructionError(f"window {window:g} needs more than "
                                f"{MAX_SAMPLES} samples at spacing 1/64")
    return Grid1D.from_interval(-window, window, 2 * int(round(window * 64)) + 1)


def build_wavelet_system(a: float, rho2: float, *,
                         spectral_points: int = 8192,
                         window: float = 40.0,
                         run_certificates: bool = True) -> WaveletSystem:
    """Assemble spectra and samples; run and store the named certificates.

    The spectra are stored on [-3 pi, 3 pi], the samples on [-window, window]
    at spacing 1/64.

    Certificate failures are recorded in ``certificates`` with pass=False,
    never raised: the system is returned with the failures flagged.
    """
    bump = build_bump(a, rho2)  # raises on a >= pi/3 or rho2 <= 1
    bell = build_bell(bump)

    sg = Grid1D.from_interval(-_SPECTRAL_HALF, _SPECTRAL_HALF, spectral_points)
    xi = sg.points()
    psi_vals = np.exp(0.5j * xi) * bell(xi)
    phi_vals = np.exp(1j * xi) * scaling_modulus(bell, xi)
    psi_hat = SpectrumOnBand(
        band=(-_SPECTRAL_HALF, _SPECTRAL_HALF), grid=sg, values=psi_vals,
        declared_support=((-PSI_BAND[1], -PSI_BAND[0]), (PSI_BAND[0], PSI_BAND[1])))
    phi_hat = SpectrumOnBand(
        band=(-_SPECTRAL_HALF, _SPECTRAL_HALF), grid=sg, values=phi_vals,
        declared_support=((-PHI_BAND[1], PHI_BAND[1]),))

    pg = sample_grid(window)
    psi_samples = numerics.synthesize(psi_hat, pg)
    phi_samples = numerics.synthesize(phi_hat, pg)

    ws = WaveletSystem(a=a, rho2=rho2, bell=bell, psi_hat=psi_hat, phi_hat=phi_hat,
                       psi_samples=psi_samples, phi_samples=phi_samples)
    if run_certificates:
        ws.certificates = run_certificate_suite(ws)
    return ws


# ---------------------------------------------------------------------------
# certificates: one registry for build and verify
# ---------------------------------------------------------------------------

def _bell_off_support(bell: BellFunction) -> np.ndarray:
    """|bell| at 200 probes off its support: |xi| < 2 pi/3 and |xi| > 8 pi/3."""
    inner = np.linspace(-(2 * np.pi / 3 - 1e-9), 2 * np.pi / 3 - 1e-9, 100)
    outer = np.linspace(8 * np.pi / 3 + 1e-9, 3 * np.pi + 4, 50)
    return np.abs(bell(np.concatenate([inner, outer, -outer])))


def _lattice_deviation(sq_modulus) -> float:
    """max |sum_{|k| <= 2} sq_modulus(xi + 2 pi k) - 1| over 512 probes of [-pi, pi]."""
    xi = np.linspace(-np.pi, np.pi, 512)
    total = np.zeros_like(xi)
    for shifted in sq_modulus(xi + 2 * np.pi * np.arange(-2, 3)[:, None]):
        total += shifted  # in the order k = -2..2
    return float(np.max(np.abs(total - 1.0)))


def two_scale_gram(atom, grid: Grid1D, m_range=(-1, 0, 1),
                   n_range=range(-3, 4)) -> np.ndarray:
    """Trapezoid Gram matrix on ``grid`` of the dyadic atoms, ideally the identity.

    ``atom(m, ns, x)`` returns the block ``2^(m/2) psi(2^m x - n)`` for a
    column of shifts ``ns``.
    """
    x = grid.points()
    ns = np.array(list(n_range))
    return _gram(np.vstack([atom(m, ns[:, None], x) for m in m_range]), grid)


def _gram(A: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Trapezoid Gram matrix on ``grid`` of the rows of ``A``."""
    return (A * grid.trapezoid_weights()) @ A.T


def _gram_check(G: np.ndarray, tol: float) -> dict:
    dev = float(np.max(np.abs(G - np.eye(G.shape[0]))))
    return {"pass": dev < tol, "max_deviation": dev, "tolerance": tol,
            "atoms": int(G.shape[0])}


# -- build stage: analytic spectrum and fresh tables, stored in the file ----

def _support_check(ws: WaveletSystem) -> dict:
    vals = _bell_off_support(ws.bell)
    return {"pass": bool(np.all(vals == 0.0)), "max_abs": float(vals.max()),
            "probes": 200}


def _shift_orthonormality(modulus, tol: float = 1e-10) -> dict:
    dev = _lattice_deviation(lambda s: modulus(s) ** 2)
    return {"pass": dev < tol, "max_deviation": dev, "tolerance": tol, "probes": 512}


def _two_scale_check(ws: WaveletSystem, tol: float = 1e-7) -> dict:
    """``two_scale_gram`` of psi at m = -1, 0, 1 and n = -3..3 on [-80, 80] at
    spacing 1/64: each scale's 7 atoms are windows of one kept row."""
    grid = Grid1D.from_interval(-80.0, 80.0, 2 * 80 * 64 + 1)
    A = np.vstack([_axis_block(ws, 1, m, 3, grid)[0] for m in (-1, 0, 1)])
    return _gram_check(_gram(A, grid), tol)


def spectral_moments(ws: WaveletSystem, k_max: int = 10) -> np.ndarray:
    """Moments via the transform-side identity: int x^k psi = i^k psi_hat^(k)(0).

    The k-th derivative at 0 is taken by the central binomial stencil
    ``bump.stencil`` (step 0.02) on the analytic spectrum.  The
    stencil footprint (k/2 * step <= 0.1) sits deep inside the spectral dead
    zone around the origin, where the bell is a literal zero, so this also
    exercises the exact-support bookkeeping.
    """
    step = 0.02
    stencils = [stencil(k, step) for k in range(k_max + 1)]
    # one spectrum call for every stencil point, split back per order
    vals = ws.psi_hat_fn(np.concatenate([offsets for offsets, _ in stencils]))
    per_order = np.split(vals, np.cumsum(np.arange(1, k_max + 1)))  # k + 1 each
    # each order's (1, k + 1) row times its weights, as stencil_derivative sums
    return np.array([(1j) ** k * (v[None, :] @ coeff)[0] / step ** k
                     for k, (v, (_, coeff)) in enumerate(zip(per_order, stencils))])


def _moment_check(ws: WaveletSystem, k_max: int = 10, base_tol: float = 1e-7,
                  physical_k_max: int = 2) -> dict:
    """Vanishing moments, both routes.

    Spectral route (all k): i^k psi_hat^(k)(0), exact because the spectrum is
    a literal zero near the origin.  Physical route (low k only): long-range
    quadrature of x^k psi.  For k >= 3 the physical route is excluded: the
    absolute ~1e-13 accuracy of the synthesized table values is amplified by
    x^k over the integration window far past the tolerance, a double-precision
    limit rather than a property failure.
    """
    tols = np.array([base_tol * np.exp(ws.rho2 * lgamma(k + 1))
                     for k in range(k_max + 1)])
    spectral = np.abs(spectral_moments(ws, k_max))
    phys = np.abs(ws.moments(physical_k_max))
    ok = bool(np.all(spectral < tols)
              and np.all(phys < tols[:physical_k_max + 1]))
    return {"pass": ok, "spectral_moments": spectral.tolist(),
            "physical_moments": phys.tolist(), "tolerances": tols.tolist(),
            "physical_k_max": physical_k_max}


def _realness_check(ws: WaveletSystem, tol: float = 1e-10) -> dict:
    im = max(float(np.max(np.abs(ws.psi_samples.values.imag))),
             float(np.max(np.abs(ws.phi_samples.values.imag))))
    return {"pass": im < tol, "max_imag": im, "tolerance": tol}


def _scaling_lowpass_check(ws: WaveletSystem, tol: float = 1e-8) -> dict:
    """sum_n phi(x - n), n = -250..250, at the 64 probes x = i / 64 of [0, 1).

    phi on the lattice t = -250 + r + i / 64 is one kept row (the one row
    of ``_axis_block`` with N = 0), so its (501, 64) reshape holds
    phi(x_i - n) at r = 250 - n.
    """
    phi0 = abs(complex(ws.phi_hat_fn(0.0)))
    row = _axis_block(ws, 0, 0, 0, Grid1D(-250.0, 1.0 / 64, 501 * 64))[0][0]
    # rows by n ascending, each probe's terms contiguous, as the sum reads them
    sums = np.ascontiguousarray(row.reshape(501, 64)[::-1].T).sum(axis=1)
    dev = float(np.max(np.abs(sums - 1.0)))
    ok = abs(phi0 - 1.0) < 1e-14 and dev < tol
    return {"pass": ok, "phi_hat_at_zero": phi0, "max_partition_deviation": dev,
            "tolerance": tol, "probes": 64}


def _normalization_check(ws: WaveletSystem, tol: float = 1e-8) -> dict:
    # Plancherel: ||psi||^2 = (1/2pi) int |psi_hat|^2
    sg = ws.psi_hat.grid
    w = sg.trapezoid_weights()
    plancherel = float(np.sqrt(np.sum(np.abs(ws.psi_hat.values) ** 2 * w) / (2 * np.pi)))
    physical = numerics.norm_l2(ws.psi_samples)
    # measured value is recorded, never silently rescaled
    return {"pass": abs(plancherel - 1.0) < tol, "plancherel_norm": plancherel,
            "physical_norm": physical, "tolerance": tol}


# -- verify stage: rerun on a loaded file -----------------------------------

def _stored_support(ws: WaveletSystem) -> dict:
    """Stored spectra against ``PSI_BAND`` and ``PHI_BAND`` (each mirrored),
    not the file's own ``declared_support``, which a tampered file can widen;
    plus the bell probes.
    """
    stored_outside = 0.0
    for spec, (lo, hi) in ((ws.psi_hat, PSI_BAND), (ws.phi_hat, PHI_BAND)):
        u = np.abs(spec.grid.points())
        off = np.abs(spec.values[(u < lo) | (u > hi)])
        stored_outside = max(stored_outside, float(np.max(off, initial=0.0)))
    bell_vals = _bell_off_support(ws.bell)
    edge = np.abs(np.array([ws.bell(np.pi), ws.bell(2 * np.pi)]) - np.sqrt(0.5))
    ok = stored_outside == 0.0 and np.all(bell_vals == 0.0) and np.all(edge < 1e-9)
    return {"pass": bool(ok), "stored_max_outside_support": stored_outside,
            "bell_max_off_support": float(bell_vals.max()),
            "bell_edge_deviation": float(edge.max())}


def _stored_orthonormality(ws: WaveletSystem) -> dict:
    """Lattice sums recomputed from the *stored* spectra by interpolation.

    Natural cubic interpolation of the stored grids limits this file-based
    rerun to ~1e-8; the build-time certificate uses the analytic bell at 1e-10.
    """
    tol = 1e-8
    worst = {}
    for name, spec in (("psi", ws.psi_hat), ("phi", ws.phi_hat)):
        worst[name] = _lattice_deviation(
            NaturalSpline(spec.grid, np.abs(spec.values) ** 2))
    ok = max(worst.values()) < tol
    return {"pass": bool(ok), "max_deviation": worst, "tolerance": tol,
            "probes": 512}


def _stored_moments(ws: WaveletSystem) -> dict:
    """Window-limited moment check from the stored physical samples.

    Integrating x^k psi over the stored window leaves an oscillatory tail of
    about envelope(40)/frequency ~ 2e-6 scaled by 40^k, so only k = 0, 1 are
    meaningful here and the tolerances reflect the truncation, not the
    build-time long-range certificate (which covers the tight tolerances).
    The spectral zero check runs on the stored array and is what a corrupted
    file actually trips.
    """
    moms = [abs(complex(m)) for m in
            numerics.moments(ws.psi_samples.grids[0], ws.psi_samples.values, 1)]
    tols = [1e-5, 1e-3]
    near = np.abs(ws.psi_hat.grid.points()) < 0.3
    spectral = float(np.max(np.abs(ws.psi_hat.values[near]), initial=0.0))
    ok = all(m < t for m, t in zip(moms, tols)) and spectral == 0.0
    return {"pass": bool(ok), "moments": moms, "tolerances": tols,
            "spectral_max_near_zero": spectral}


def _stored_two_scale(ws: WaveletSystem) -> dict:
    """Cross-scale Gram from a natural cubic spline of the stored samples (tol 1e-5)."""
    (grid,) = ws.psi_samples.grids
    psi = NaturalSpline(grid, ws.psi_samples.values.real)
    return _gram_check(two_scale_gram(
        lambda m, ns, pts: 2.0 ** (m / 2.0) * psi(np.ldexp(pts, m) - ns), grid), 1e-5)


def _kernel_decay(ws: WaveletSystem) -> dict:
    from . import projection  # projection imports this module

    pk = projection.build_kernel(ws, level=0, dimension=1)
    fit = projection.kernel_decay_certificate(pk)
    ok = fit.rate_c > 0 and fit.r_squared > 0.95
    return {"pass": bool(ok), "fit": fit.to_json_dict(),
            "truncation_radius": pk.truncation_radius,
            "tail_bound": pk.tail_bound}


def _polynomial(ws: WaveletSystem) -> dict:
    from . import projection  # projection imports this module

    pk = projection.build_kernel(ws, level=0, dimension=1)
    rep = projection.polynomial_reproduction(pk, max_degree=1)
    devs = rep["max_deviation_per_degree"]
    ok = devs[0] < 1e-8 and devs[1] < 1e-8
    return {"pass": bool(ok), "max_deviation_per_degree":
            {str(k): v for k, v in devs.items()}, "tolerance": 1e-8}


# report name -> (stage, check); "build" results are stored in the system
# file, "verify" suites are rerun by the CLI on a loaded file
CHECKS = {
    "SUPPORT": ("build", _support_check),
    "SHIFT_ORTHONORMALITY_PSI": ("build", lambda ws: _shift_orthonormality(ws.bell)),
    "SHIFT_ORTHONORMALITY_PHI": ("build", lambda ws: _shift_orthonormality(
        lambda xi: scaling_modulus(ws.bell, xi))),
    "TWO_SCALE_CROSS": ("build", _two_scale_check),
    "MOMENTS": ("build", _moment_check),
    "REALNESS": ("build", _realness_check),
    "SCALING_LOWPASS": ("build", _scaling_lowpass_check),
    "NORMALIZATION": ("build", _normalization_check),
    "support": ("verify", _stored_support),
    "orthonormality": ("verify", _stored_orthonormality),
    "moments": ("verify", _stored_moments),
    "two-scale": ("verify", _stored_two_scale),
    "kernel-decay": ("verify", _kernel_decay),
    "polynomial": ("verify", _polynomial),
}


def checks(stage: str) -> dict:
    """Report name -> check function for every registry entry of ``stage``."""
    return {name: check for name, (s, check) in CHECKS.items() if s == stage}


def run_certificate_suite(ws: WaveletSystem) -> dict:
    """Run the build-stage checks; the result becomes ``ws.certificates``."""
    return {name: check(ws) for name, check in checks("build").items()}


def decay_profile(ws: WaveletSystem, x_max: float, n_points: int) -> np.ndarray:
    """|psi| sampled on [0, x_max]; rows (x, |psi(x)|)."""
    if x_max > ws.window:
        raise ConstructionError("requested range exceeds the physical window")
    x = np.linspace(0.0, x_max, n_points)
    vals = np.abs(ws.interpolator("psi")(x))
    return np.column_stack([x, vals])


def cross_gram_fourier(ws: WaveletSystem, m_values, n_values) -> np.ndarray:
    """Gram matrix of atoms psi_{m,n} computed on the Fourier side.

    Each atom's spectrum is 2^(-m/2) exp(-i xi n / 2^m) psi_hat(xi / 2^m),
    compactly supported, so a single fine trapezoid grid (32768 nodes)
    covering the union of the scaled bands gives every pairwise inner product
    at once.
    """
    m_values = list(m_values)
    n_values = list(n_values)
    top = max(2.0 ** m for m in m_values) * (8 * np.pi / 3)
    grid = Grid1D.from_interval(-top, top, 32768)
    xi = grid.points()
    w = grid.trapezoid_weights()
    rows = []
    for m in m_values:
        scale = 2.0 ** (-m)
        base = 2.0 ** (-m / 2.0) * ws.psi_hat_fn(xi * scale)
        for n in n_values:
            rows.append(base * np.exp(-1j * xi * n * scale))
    A = np.array(rows)
    return ((A * w) @ np.conj(A.T)) / (2 * np.pi)
