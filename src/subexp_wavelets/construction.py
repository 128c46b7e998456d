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
point values at scattered points are ``2 Re`` of the baby-step/giant-step
direct sum over the nodes ``xi > 0`` (``numerics.synthesize_real_values``),
since psi and phi are real.  For the many-evaluation call sites (atoms,
kernels) the system carries lazily built dense tables read by the local
8-point interpolant ``numerics.LagrangeInterpolant``, within about 1.5e-13
of psi's direct sums and itself built on its first read.  ``atom_values``
reads dilated, shifted psi and phi, no derivative.  An atom block on a
uniform grid (``_axis_block``, read by expansion and two build
certificates) is one window of the interpolant's samples where each knot
interval holds four or more samples, and otherwise a block the system
keeps in one ``numerics.Kept`` store: a window of one kept row or a kept
per-shift block.

Every check lives in one registry, ``CHECKS``: report name -> (stage, check).
"build" checks (uppercase) read the analytic spectrum and fresh tables and are
stored in the system file; "verify" suites (lowercase) rerun on a loaded file.

The system file (schema ``SCHEMA_TAG``) holds the parameters (a, rho2), psi's
samples and the certificates.  The spectra and phi's samples are fixed by the
bell, so the file does not hold them: ``_spectra`` forms the spectra from the
bell and ``_samples`` phi's samples from its spectrum, at build and on load
alike.  psi's samples are held as their real part, since psi is real; the
build keeps only the real part of each sample array.  A file of another
schema is refused, not converted.
"""

from __future__ import annotations

import hashlib
import json
from math import lgamma

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numerics
from .bump import GevreyBump, build_bump, stencil
from .numerics import Grid1D, LagrangeInterpolant, SampledFunction, SpectrumOnBand

SCHEMA_TAG = "dhws-v4"

PSI_BAND = (2 * np.pi / 3, 8 * np.pi / 3)
PHI_BAND = (0.0, 4 * np.pi / 3)
_SPECTRAL_HALF = 3 * np.pi  # stored spectra live on [-3 pi, 3 pi]
_SPECTRAL_POINTS = 8192
# vanishing moments int x^k psi certified for k = 0.._MOMENT_K_MAX
_MOMENT_K_MAX = 10

# dense-table layout: at spacing 1/128 (h 8 pi / 3 ~ 0.065 for the band
# |xi| <= 8 pi / 3) the 8-point interpolant's O(h^8) error is below the
# synthesis's rounding, and psi reads within 1.5e-13 of its direct sums, as
# at 1/256; each table holds 67,585 points on [-TABLE_HALF, TABLE_HALF]
TABLE_SPACING = 1.0 / 128
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
# bytes of atom blocks a system keeps (``_axis_block``), with projection's
# kept matrices and |phi_hat| nodes; the (6, 32) window on expand's
# 20,481-point grid keeps 1.6 MB of rows at m = -1..6 (m = -6..-2 read a
# window of the interpolant's samples, where the rows would take 8.9 MB
# more), the two-scale and low-pass certificates about 0.5 MB, and a (real)
# q_m matrix on 321 points 0.8 MB
_BLOCK_BYTES = 32 * 2 ** 20


class ConstructionError(ValueError):
    pass


def resolves(band_end: float, m: int, spacing: float) -> bool:
    """Whether samples at ``spacing`` h resolve a scale-m atom whose spectrum
    ends at ``band_end``: ``2^m band_end < 2 pi / h``.  Past that, the
    samples' trapezoid transform reads its alias copy inside the band."""
    return np.ldexp(spacing, m) * band_end < 2.0 * np.pi


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
        b = np.zeros(u.shape)
        # the primitives are read on the support alone; NaN counts as on it
        on = ~((u <= self.support_lo) | (u >= self.support_hi))
        if on.any():
            v = u[on]
            s = np.sin(self.bump.cumulative(v - np.pi))
            # primitive of the half-dilated bump: cum2(v) = cum(v / 2)
            c = np.cos(self.bump.cumulative(v / 2.0 - np.pi))
            b[on] = s * c
        return float(b[0]) if scalar else b


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
        self._interpolants: dict = {}  # built on interpolator's first read
        self._wide: dict = {}
        self._fits: dict = {}  # values read off the tables (projection._phi_tail)
        # uniform-grid atom blocks, kept q_m matrices and |phi_hat| nodes
        self._blocks = numerics.Kept(_BLOCK_BYTES)

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
        return _with_phase("psi", xi, self.bell(xi))

    def phi_hat_fn(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return _with_phase("phi", xi, scaling_modulus(self.bell, xi))

    def modulus(self, which: str, xi) -> np.ndarray:
        """|psi_hat| (the bell) or |phi_hat| at ``xi``."""
        return self.bell(xi) if which == "psi" else scaling_modulus(self.bell, xi)

    # -- physical-space evaluation ----------------------------------------

    def evaluate_psi(self, x, derivative_order: int = 0) -> np.ndarray:
        """psi (or a derivative) anywhere, a real array: the stored spectrum's
        quadrature as ``2 Re`` of its sum over the nodes ``xi > 0``
        (``numerics.synthesize_real_values``), since psi is real and the
        stored spectrum Hermitian (``REALNESS``)."""
        return numerics.synthesize_real_values(self.psi_hat, x, order=derivative_order)

    def evaluate_phi(self, x, derivative_order: int = 0) -> np.ndarray:
        """phi (or a derivative) anywhere, as ``evaluate_psi`` reads psi."""
        return numerics.synthesize_real_values(self.phi_hat, x, order=derivative_order)

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
        return SpectrumOnBand(band=(lo, hi), grid=grid,
                              values=self.modulus(which, grid.points()),
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
        """(grid, values) of psi/phi (derivative) on [-TABLE_HALF, TABLE_HALF],
        kept read-only; no interpolant is built here."""
        key = (which, order)
        if key not in self._tables:
            grid, vals = self._even_table(which, order, TABLE_HALF, TABLE_SPACING,
                                          _TABLE_BAND_POINTS)
            vals.flags.writeable = False
            self._tables[key] = (grid, vals)
        return self._tables[key]

    def interpolator(self, which: str, order: int = 0) -> LagrangeInterpolant:
        """Fast callable: the local Lagrange interpolant of the dense table,
        0 outside it.

        Built on the first call and kept, sharing the table's samples; later
        calls return the same object, on which ``_axis_block`` keys its rows.
        """
        key = (which, order)
        if key not in self._interpolants:
            self._interpolants[key] = LagrangeInterpolant(*self.dense_table(which, order))
        return self._interpolants[key]

    def atom_values(self, bit: int, m: int, n, x) -> np.ndarray:
        """2^(m/2) f(2^m x - n) with f = phi (bit 0) or psi (bit 1).

        The one evaluator of dilated and shifted atoms.  A column of shifts
        ``n = ns[:, None]`` broadcasts against points ``x`` to the atom block
        ``A[k, j]`` that projection, analysis and synthesis multiply with.
        """
        f = self.interpolator("psi" if bit else "phi")
        return (2.0 ** (m * 0.5)) * f(np.ldexp(np.asarray(x, dtype=float), m) - n)

    def wide_table(self, which: str):
        """Coarse long-range table for moment-type integrals (spacing 1/16,
        on [-_WIDE_HALF, _WIDE_HALF])."""
        if which not in self._wide:
            self._wide[which] = self._even_table(which, 0, _WIDE_HALF, _WIDE_SPACING,
                                                 _WIDE_BAND_POINTS)
        return self._wide[which]

    # -- named checks ------------------------------------------------------

    def certificate_digest(self) -> str:
        blob = json.dumps(self.certificates, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """The system file (schema ``SCHEMA_TAG``): the parameters, from which
        the reader rebuilds the bell, the spectra and phi's samples, psi's
        samples as their ``re`` part (psi is real) and the certificates."""
        return {
            "schema": SCHEMA_TAG,
            "parameters": {"a": self.a, "rho2": self.rho2},
            "psi_samples": _grid_dict(self.psi_samples.grids[0], "re",
                                      self.psi_samples.values.real),
            "certificates": self.certificates,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WaveletSystem":
        """The system a file holds, its spectra formed from the parameters by
        ``_spectra`` and phi's samples on psi's grid by ``_samples``, as the
        build forms them; ``ConstructionError`` for another schema (the file
        is rebuilt, not converted) or a sample array whose length is not its
        grid's count, ``BumpError`` for parameters the construction refuses."""
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != SCHEMA_TAG:
            raise ConstructionError(f"system file schema {schema!r} is not "
                                    f"{SCHEMA_TAG!r}: rebuild it with `build`")
        params = doc["parameters"]
        bell = BellFunction(build_bump(params["a"], params["rho2"]))
        psi_hat, phi_hat = _spectra(bell)
        psi_samples = SampledFunction(*_read_grid_dict(doc["psi_samples"], "re"))
        return cls(a=params["a"], rho2=params["rho2"], bell=bell,
                   psi_hat=psi_hat, phi_hat=phi_hat, psi_samples=psi_samples,
                   phi_samples=_samples(phi_hat, psi_samples.grids[0]),
                   certificates=doc.get("certificates", {}))


def _with_phase(which: str, xi, modulus) -> np.ndarray:
    """psi_hat or phi_hat from its modulus: ``exp(i shift xi) modulus``, the
    shift ``_CENTER_SHIFT[which]``, as ``_spectra`` and the analytic spectra
    ``psi_hat_fn`` and ``phi_hat_fn`` form them."""
    return np.exp(1j * _CENTER_SHIFT[which] * xi) * modulus


def _spectra(bell: BellFunction) -> tuple[SpectrumOnBand, SpectrumOnBand]:
    """(psi_hat, phi_hat) at ``_SPECTRAL_POINTS`` points of [-3 pi, 3 pi],
    each declared on its band and the band's mirror.

    The build and the file reader both form the spectra here, so a loaded
    system's are the built ones bit for bit; each call makes new arrays.
    """
    sg = Grid1D.from_interval(-_SPECTRAL_HALF, _SPECTRAL_HALF, _SPECTRAL_POINTS)
    xi = sg.points()
    band = (-_SPECTRAL_HALF, _SPECTRAL_HALF)
    psi_hat = SpectrumOnBand(
        band=band, grid=sg, values=_with_phase("psi", xi, bell(xi)),
        declared_support=((-PSI_BAND[1], -PSI_BAND[0]), (PSI_BAND[0], PSI_BAND[1])))
    phi_hat = SpectrumOnBand(
        band=band, grid=sg, values=_with_phase("phi", xi, scaling_modulus(bell, xi)),
        declared_support=((-PHI_BAND[1], PHI_BAND[1]),))
    return psi_hat, phi_hat


def _samples(spectrum: SpectrumOnBand, grid: Grid1D) -> SampledFunction:
    """The real part of the spectrum's synthesis on ``grid``: psi and phi are
    real, so the imaginary part is rounding.  The build forms both sample
    arrays here and the file reader phi's, so a loaded system's are the built
    ones bit for bit."""
    return SampledFunction(grid, numerics.synthesize(spectrum, grid).values.real)


def _grid_dict(grid: Grid1D, part: str, values: np.ndarray) -> dict:
    """One grid-and-values block of the system file: the grid, and the real
    ``values`` under ``part``."""
    return {"grid": {"origin": grid.origin, "spacing": grid.spacing, "count": grid.count},
            part: values.tolist()}


def _read_grid_dict(d: dict, part: str) -> tuple[Grid1D, np.ndarray]:
    """(grid, values) of a ``_grid_dict`` block; a length other than the
    grid's count raises ``ConstructionError``."""
    grid = Grid1D(**d["grid"])
    values = np.asarray(d[part], dtype=float)
    if values.shape != (grid.count,):
        raise ConstructionError(f"{part} holds {values.size} values on a grid of "
                                f"{grid.count} points")
    return grid, values


def _axis_block(ws: WaveletSystem, bit: int, m: int, N: int, axis: Grid1D):
    """(B, geometry): rows ``k`` = shift ``-N + k`` of one axis's scale-m atom
    factor on a grid, and how B lies in the rows it reads.

    Where each knot interval of the table holds r >= 4 samples, B is a
    window of the interpolant's samples (``_knot_windows``) and nothing is
    evaluated or kept.  Otherwise the system keeps what it evaluates
    (``ws._blocks``), read-only, under the evaluator (the object
    ``interpolator`` returns), ``m``, the grid and ``N``, so a replaced or
    wrapped evaluator misses.
    Shift n moves the atom by n s samples, s = 2^-m / h.  When s is a whole
    number below the count, the kept value is one row on the grid extended
    by N s samples at each end, and B a read-only strided view of windows of
    it: row k starts at sample ``(2N - k) s``.  Then ``geometry`` is
    ``(s, (a, b))``: samples ``a <= i < b`` of the kept row are the only
    ones that can be nonzero, since sample i sits at ``2^m x = 2^m origin +
    (i - N s) / s`` and the dense-table evaluator reads 0 beyond
    +-TABLE_HALF (one sample more at each end absorbs rounding).  For any
    other s, B itself is kept and ``geometry`` is None.
    """
    f = ws.interpolator("psi" if bit else "phi")
    moments = _knot_windows(f, m, N, axis)
    if moments is not None:
        return moments
    ns = np.arange(-N, N + 1)[:, None]
    s = np.ldexp(1.0, -m) / axis.spacing
    s = int(s) if s.is_integer() and s < axis.count else 0  # 0: no windows

    def make():  # the row every window reads, or the grid's per-shift block
        x = axis.origin + axis.spacing * np.arange(-N * s, axis.count + N * s)
        value = _aligned(ws.atom_values(bit, m, 0, x)) if s else ws.atom_values(bit, m, ns, x)
        value.flags.writeable = False
        return value

    kept = ws._blocks.get((f, m, axis, N), make)
    if not s:
        return kept, None
    centre = N * s - axis.origin / axis.spacing
    span = (max(int(np.floor(centre - TABLE_HALF * s)) - 1, 0),
            min(int(np.ceil(centre + TABLE_HALF * s)) + 2, kept.size))
    return sliding_window_view(kept, axis.count)[2 * N * s::-s], (s, span)


def _aligned(values: np.ndarray) -> np.ndarray:
    """A copy of ``values`` whose data start on a 64-byte boundary.  Each
    phase of a windowed block starts at the kept row's own alignment when s
    is a multiple of 8, and the window kernels' BLAS products ran up to 1.7
    times faster on 64-byte aligned phases than on 16-byte aligned ones
    (OpenBLAS 0.3.31, one thread, a 2-core Xeon)."""
    buffer = np.empty(values.size + 8)
    start = (-buffer.ctypes.data % 64) // 8
    out = buffer[start:start + values.size].reshape(values.shape)
    out[...] = values
    return out


def _knot_windows(f, m: int, N: int, axis: Grid1D):
    """(Y, (t, span, W, count)): the scale-m atom block of the interpolant
    f on ``axis`` as windows of its samples, or None where they do not serve.

    They serve when f is a ``LagrangeInterpolant`` (a wrapped or replaced
    evaluator has no samples to read), each knot interval holds a whole
    number ``r = 2^-m spacing_table / h >= 4`` of samples, ``2^m origin``
    sits on knot tau_0, and every stencil below lies inside the table, so
    none is shifted at an end.  Then sample ``j = p r + i`` of shift n lies
    in interval ``q = tau_0 + p - t n`` (t knots per unit shift) at ``u = i
    / r``, where f reads ``sum_o y_(q+o) L_o(u)`` over the offsets ``o =
    -3..4``.  Y is a read-only window of the samples y in the layout of a
    windowed block of stride t: shift n's row holds the P + 7 knots from
    ``tau_0 - t n - 3``, P the intervals that meet the grid.  ``W`` (r, 8)
    holds ``2^(m/2)`` times the eight weights of sample i.
    """
    if type(f) is not LagrangeInterpolant:
        return None
    table = f.grid
    r = np.ldexp(table.spacing, -m) / axis.spacing
    t = 1.0 / table.spacing
    tau0 = (np.ldexp(axis.origin, m) - table.origin) / table.spacing
    if not (r >= 4 and r.is_integer() and t.is_integer() and tau0.is_integer()):
        return None
    r, t, tau0 = int(r), int(t), int(tau0)
    P, width = -(-axis.count // r), numerics.STENCIL
    left = width // 2 - 1  # stencil knots before an interval
    lo, hi = tau0 - N * t - left, tau0 + N * t + P + width - left  # knots lo <= q < hi
    if lo < 0 or hi > table.count:
        return None
    Y = sliding_window_view(f.values[lo:hi], P + width - 1)[2 * N * t::-t]
    W = 2.0 ** (m * 0.5) * numerics.lagrange_weights(left + np.arange(r) / r).T
    return Y, (t, (0, hi - lo), W, axis.count)


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
                         window: float = 40.0) -> WaveletSystem:
    """Assemble spectra and samples; run and store the named certificates.

    The spectra are stored at 8192 points of [-3 pi, 3 pi], the samples on
    [-window, window] at spacing 1/64.

    Certificate failures are recorded in ``certificates`` with pass=False,
    never raised: the system is returned with the failures flagged.
    """
    bell = BellFunction(build_bump(a, rho2))  # raises on a >= pi/3 or rho2 <= 1
    psi_hat, phi_hat = _spectra(bell)

    pg = sample_grid(window)
    ws = WaveletSystem(a=a, rho2=rho2, bell=bell, psi_hat=psi_hat, phi_hat=phi_hat,
                       psi_samples=_samples(psi_hat, pg),
                       phi_samples=_samples(phi_hat, pg))
    ws.certificates = run_certificate_suite(ws)
    return ws


# ---------------------------------------------------------------------------
# certificates: one registry for build and verify
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the fixed probe sets of the checks, built once: 200 probes off the bell's
# support (|xi| < 2 pi/3 and |xi| > 8 pi/3), the lattice xi + 2 pi k of the
# orthonormality sums (rows k = -2..2, 512 probes of [-pi, pi] each), and
# the stencils of ``spectral_moments`` (step 0.02) with their offsets in one
# row
_OFF_SUPPORT_PROBES = _read_only(np.concatenate([
    np.linspace(-(2 * np.pi / 3 - 1e-9), 2 * np.pi / 3 - 1e-9, 100),
    np.linspace(8 * np.pi / 3 + 1e-9, 3 * np.pi + 4, 50),
    -np.linspace(8 * np.pi / 3 + 1e-9, 3 * np.pi + 4, 50)]))
_LATTICE = _read_only(np.linspace(-np.pi, np.pi, 512) + 2 * np.pi * np.arange(-2, 3)[:, None])
_MOMENT_STEP = 0.02
_MOMENT_STENCILS = tuple((_read_only(offsets), _read_only(coeff)) for offsets, coeff in
                         (stencil(k, _MOMENT_STEP) for k in range(_MOMENT_K_MAX + 1)))
_MOMENT_OFFSETS = _read_only(np.concatenate([offsets for offsets, _ in _MOMENT_STENCILS]))


def _bell_off_support(bell: BellFunction) -> np.ndarray:
    """|bell| at the 200 probes ``_OFF_SUPPORT_PROBES``."""
    return np.abs(bell(_OFF_SUPPORT_PROBES))


def _lattice_deviation(sq_modulus) -> float:
    """max |sum_{|k| <= 2} sq_modulus(xi + 2 pi k) - 1| over 512 probes of [-pi, pi]."""
    total = np.zeros(_LATTICE.shape[1])
    for shifted in sq_modulus(_LATTICE):
        total += shifted  # in the order k = -2..2
    return float(np.max(np.abs(total - 1.0)))


def _gram(A: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Trapezoid Gram matrix on ``grid`` of the rows of ``A``: ``h A A^T``
    less the half-weight terms of the two end samples, with no weighted
    copy of A.  ``A @ A.T`` of a contiguous A is one symmetric product
    (BLAS ``syrk``), which forms half the entries of ``(A w) @ A.T``."""
    G = A @ A.T
    G -= 0.5 * (np.outer(A[:, 0], A[:, 0]) + np.outer(A[:, -1], A[:, -1]))
    G *= grid.spacing
    return G


def _gram_check(G: np.ndarray, tol: float) -> dict:
    dev = float(np.max(np.abs(G - np.eye(G.shape[0]))))
    return {"pass": dev < tol, "max_deviation": dev, "tolerance": tol,
            "atoms": int(G.shape[0])}


# -- build stage: analytic spectrum and fresh tables, stored in the file ----

def _support_check(ws: WaveletSystem) -> dict:
    vals = _bell_off_support(ws.bell)
    return {"pass": bool(np.all(vals == 0.0)), "max_abs": float(vals.max()),
            "probes": 200}


def _shift_orthonormality(modulus) -> dict:
    tol = 1e-10
    dev = _lattice_deviation(lambda s: modulus(s) ** 2)
    return {"pass": dev < tol, "max_deviation": dev, "tolerance": tol, "probes": 512}


def _two_scale_check(ws: WaveletSystem) -> dict:
    """Trapezoid Gram matrix of ``2^(m/2) psi(2^m x - n)`` at m = -1, 0, 1 and
    n = -3..3 on [-80, 80] at spacing 1/64, ideally the identity: each
    scale's 7 atoms are windows of one kept row."""
    grid = Grid1D.from_interval(-80.0, 80.0, 2 * 80 * 64 + 1)
    A = np.vstack([_axis_block(ws, 1, m, 3, grid)[0] for m in (-1, 0, 1)])
    return _gram_check(_gram(A, grid), 1e-7)


def spectral_moments(ws: WaveletSystem) -> np.ndarray:
    """Moments via the transform-side identity: int x^k psi = i^k psi_hat^(k)(0),
    k = 0.._MOMENT_K_MAX.

    The k-th derivative at 0 is taken by the central binomial stencil
    ``bump.stencil`` (step 0.02) on the analytic spectrum.  The
    stencil footprint (k/2 * step <= 0.1) sits deep inside the spectral dead
    zone around the origin, where the bell is a literal zero, so this also
    exercises the exact-support bookkeeping.
    """
    # one spectrum call for every stencil point, split back per order
    vals = ws.psi_hat_fn(_MOMENT_OFFSETS)
    per_order = np.split(vals, np.cumsum(np.arange(1, _MOMENT_K_MAX + 1)))  # k + 1 each
    # each order's (1, k + 1) row times its weights: (v @ coeff) / step^k
    return np.array([(1j) ** k * (v[None, :] @ coeff)[0] / _MOMENT_STEP ** k
                     for k, (v, (_, coeff)) in enumerate(zip(per_order, _MOMENT_STENCILS))])


def _moment_check(ws: WaveletSystem) -> dict:
    """Vanishing moments, both routes.

    Spectral route (all k): i^k psi_hat^(k)(0), exact because the spectrum is
    a literal zero near the origin.  Physical route (low k only): long-range
    quadrature of x^k psi.  For k >= 3 the physical route is excluded: the
    absolute ~1e-13 accuracy of the synthesized table values is amplified by
    x^k over the integration window far past the tolerance, a double-precision
    limit rather than a property failure.
    """
    physical_k_max = 2
    tols = np.array([1e-7 * np.exp(ws.rho2 * lgamma(k + 1))
                     for k in range(_MOMENT_K_MAX + 1)])
    spectral = np.abs(spectral_moments(ws))
    phys = np.abs(numerics.moments(*ws.wide_table("psi"), physical_k_max))
    ok = bool(np.all(spectral < tols)
              and np.all(phys < tols[:physical_k_max + 1]))
    return {"pass": ok, "spectral_moments": spectral.tolist(),
            "physical_moments": phys.tolist(), "tolerances": tols.tolist(),
            "physical_k_max": physical_k_max}


def _realness_check(ws: WaveletSystem) -> dict:
    """Hermitian symmetry of the stored spectra: ``max |v_i - conj v_(n-1-i)|``
    over psi_hat and phi_hat, whose grids are symmetric about 0.

    A real function has ``f_hat(-xi) = conj f_hat(xi)``.  The samples keep
    the real part of the synthesis, whose imaginary part this deviation
    bounds (times the quadrature's total weight over 2 pi, which is 3); the
    mirrored nodes themselves agree only to about 2e-15.
    """
    tol = 1e-10
    dev = max(float(np.max(np.abs(s.values - np.conj(s.values[::-1]))))
              for s in (ws.psi_hat, ws.phi_hat))
    return {"pass": dev < tol, "max_hermitian_deviation": dev, "tolerance": tol}


def _scaling_lowpass_check(ws: WaveletSystem) -> dict:
    """sum_n phi(x - n), n = -250..250, at the 64 probes x = i / 64 of [0, 1).

    phi on the lattice t = -250 + r + i / 64 is one kept row (the one row
    of ``_axis_block`` with N = 0), so its (501, 64) reshape holds
    phi(x_i - n) at r = 250 - n.
    """
    tol = 1e-8
    phi0 = abs(complex(ws.phi_hat_fn(0.0)))
    row = _axis_block(ws, 0, 0, 0, Grid1D(-250.0, 1.0 / 64, 501 * 64))[0][0]
    # rows by n ascending, each probe's terms contiguous, as the sum reads them
    sums = np.ascontiguousarray(row.reshape(501, 64)[::-1].T).sum(axis=1)
    dev = float(np.max(np.abs(sums - 1.0)))
    ok = abs(phi0 - 1.0) < 1e-14 and dev < tol
    return {"pass": ok, "phi_hat_at_zero": phi0, "max_partition_deviation": dev,
            "tolerance": tol, "probes": 64}


def _normalization_check(ws: WaveletSystem) -> dict:
    tol = 1e-8
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
    """The held spectra, which a loaded system rebuilds from its parameters,
    against ``PSI_BAND`` and ``PHI_BAND`` (each mirrored), not their own
    ``declared_support``, which a replaced spectrum can widen; plus the bell
    probes.
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
    """Lattice sums recomputed from the held spectra (on a loaded system,
    rebuilt from its parameters) by interpolation.

    Interpolating the spectra's grids (``LagrangeInterpolant``) reads about
    3e-15 on the reference build; the tolerance, 1e-8, leaves room for
    coarser files.  The build-time certificate uses the analytic bell.
    """
    tol = 1e-8
    worst = {}
    for name, spec in (("psi", ws.psi_hat), ("phi", ws.phi_hat)):
        worst[name] = _lattice_deviation(
            LagrangeInterpolant(spec.grid, np.abs(spec.values) ** 2))
    ok = max(worst.values()) < tol
    return {"pass": bool(ok), "max_deviation": worst, "tolerance": tol,
            "probes": 512}


def _stored_moments(ws: WaveletSystem) -> dict:
    """Window-limited moment check from the stored physical samples.

    Integrating x^k psi over the stored window leaves an oscillatory tail of
    about envelope(40)/frequency ~ 2e-6 scaled by 40^k, so only k = 0, 1 are
    meaningful here and the tolerances reflect the truncation, not the
    build-time long-range certificate (which covers the tight tolerances).
    The spectral zero check reads the held psi_hat (on a loaded system,
    rebuilt from its parameters) within 0.3 of the origin.
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
    """Cross-scale Gram from the interpolant of the stored samples (tol 1e-5)."""
    (grid,) = ws.psi_samples.grids
    psi = LagrangeInterpolant(grid, ws.psi_samples.values.real)
    x, ns = grid.points(), np.arange(-3, 4)[:, None]
    A = np.vstack([2.0 ** (m / 2.0) * psi(np.ldexp(x, m) - ns) for m in (-1, 0, 1)])
    return _gram_check(_gram(A, grid), 1e-5)


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
    rep = projection.polynomial_reproduction(pk)
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


def decay_profile(ws: WaveletSystem, x_max: float) -> np.ndarray:
    """|psi| sampled on [0, x_max] at spacing about 1/32 (``int(32 x_max) + 1``
    points); rows (x, |psi(x)|)."""
    if not 0.0 <= x_max <= ws.window:
        raise ConstructionError(f"range end {x_max:g} lies outside [0, {ws.window:g}], "
                                f"the physical window")
    x = np.linspace(0.0, x_max, int(x_max * 32) + 1)
    vals = np.abs(ws.interpolator("psi")(x))
    return np.column_stack([x, vals])
