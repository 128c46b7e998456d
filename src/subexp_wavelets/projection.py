"""Multiresolution projection kernels, projections, and their certificates.

The level-0 kernel is the lattice sum ``q_0(x, y) = sum_k phi(x - k) phi(y - k)``
(phi is real, so no conjugates survive), and ``q_m(x, y) = 2^{md} q_0(2^m x,
2^m y)``.  ``project`` applies ``sum_k <f, phi_{m,k}> phi_{m,k}`` on the
Fourier side: phi_hat vanishes outside |eta| <= 4 pi / 3, so q_m is a
2 pi-periodized multiplier of the analytic |phi_hat| (see ``_project_1d``).
q_m f comes out as its spectrum on uniform nodes, taken from the samples by
one transform, which ``_on_grid`` sums onto a uniform grid by one more: the
samples, and the seminorm's derivatives of every order on uniform probes in
one pass.  Along an axis of at most 724 points, a call with at least n
real columns keeps q_m as its real (n, n) matrix (``_projector``), built by
the same route from the real identity, and applies it as one real matrix
product.  The kernel-decay certificate reads q_0 off this route, as the
projections of point masses, and no dense table is read on it: the alias
margin, like the kernel's truncation radius and tail bound, comes from the
running sup of |phi| on the wide table (``_phi_tail``).

phi is real, so q_m acts on the real and imaginary parts of samples apart:
``project`` and ``mra_convergence_experiment`` carry them on a last axis
(``numerics.split_parts``), one where the imaginary part is exactly zero
(every sampled test function), else two.  Every array the transforms see
is real, as are the certificate's point masses, so ``_project_1d`` takes
its Hermitian spectrum on the nodes zeta >= 0 only, and ``_on_grid`` sums
that half to a real array.

The transforms take one of two routes.  Samples on a grid whose spacing
the nodes can match (``2^m h`` a dyadic rational of small
denominator: ``sample_grid``'s 1/64, say) take the DFT route: ``_eta_nodes``
lifts the node count ``L`` so that the nodes are the bins of a DFT of
5-smooth length ``L / (2^m h)`` on the samples' grid (``_dft_size``), and
both transforms are one real FFT each (``numerics.real_dft`` and
``real_dft_sum``), exact trapezoid sums with no chirp phase to round.  The
route is taken only where that length is at most ``_DFT_RATIO`` times the
chirp route's.  Every other call takes the chirp route, two Bluestein sums
(``numerics.chirp_synthesis``) on the least ``L``: the certificate's point
masses, the derivative pass onto the seminorm's probes, level 0 of the
reference grid, and any grid of another spacing.  On
``project``'s default input the DFT route takes levels 1..6, where the sup
error at levels 3..6 is 3e-16 to 4e-16; the chirp route's phases left 1.7e-13
to 2.5e-13 there.

A system whose phi decays too slowly for the wide table (rho2 above
``MAX_RHO2`` at a = 1) is refused with ``PhiTailError``, and a level the
grid cannot carry (its band ``2^m 4 pi / 3`` reaches the samples' alias
``2 pi / h``, or its window spans too many shifts or too few) with
``UnresolvedLevelError``.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics, numerics
from .construction import PHI_BAND, WaveletSystem, resolves, scaling_modulus
from .metrics import DecayFit, SeminormParams
from .numerics import Grid1D, SampledFunction

logger = logging.getLogger(__name__)

_TAIL_TARGET = 1e-12
# the largest Gevrey order, at a = 1, whose phi tail meets both targets
# inside the wide table (measured: 2.8 meets them, 2.85 and 3 miss)
MAX_RHO2 = 2.8
# |phi| at the alias distance of the eta nodes, above the wide table's floor
# of about 1e-14
_ALIAS_TARGET = 1e-13
# Most shifts a window may span at one level of _project_1d, and most eta
# nodes (eta >= 0) it may take; each node costs a few complex FFT entries.
# Level 13 on [-40, 40] spans 655,360 shifts and takes 437,169 nodes: a
# Gaussian's ``project`` on its 600,001 points (the chirp route) peaks at
# 89 MB of allocations (tracemalloc), and on 2^19 + 1 points (the DFT
# route) at 38 MB.  Level 13 on [-64, 64] spans the most shifts, 2^20, and
# takes 699,313 nodes: 143 MB on 960,001 points.
_MAX_NODES = 2 ** 20
BOUNDARY_MASS_WARN = 1e-8
_SEMINORM_PROBES = Grid1D.from_interval(-8.0, 8.0, 161)
# kernel-decay probes x_p = p / 16, and offsets u_j = j / 20 on [0, 20]
_DECAY_PROBES, _DECAY_U_MAX, _DECAY_PER_UNIT = 16, 20.0, 20


class ProjectionError(ValueError):
    pass


class PhiTailError(ProjectionError):
    """The system's phi decays too slowly for its wide table (``_phi_tail``):
    an order rho2 the projections do not support, not a failed check."""


class UnresolvedLevelError(ProjectionError):
    """A level the samples' grid cannot carry, not a failed check: its band
    ``2^m 4 pi / 3`` reaches their alias at ``2 pi / h``
    (``construction.resolves``), or its window spans more shifts or needs
    more eta nodes than ``_MAX_NODES``, or spans less than one shift
    (``_eta_nodes``)."""


def _phi_tail(ws: WaveletSystem) -> tuple[np.ndarray, int, float]:
    """(tails, K, margin) from ``S(r) = sup_{|t| >= r} |phi(t)|`` on the wide table.

    ``tails[K] = 2 sum_{j >= K} S(j)^2`` bounds the lattice terms a kernel of
    radius K drops: the n-th dropped shift on each side lies at distance
    >= K + n - 1 from either point, so by Cauchy-Schwarz the dropped sum is
    at most ``tails[K]``.  K is the first radius with ``tails[K] <
    _TAIL_TARGET``, and ``margin`` the first r with ``S(r) < _ALIAS_TARGET``.
    All three read only the phi table, so they are computed once per system
    and kept beside its tables.
    """
    if "phi_tail" not in ws._fits:
        grid, vals = ws.wide_table("phi")
        mid = grid.count // 2  # t = 0
        folded = np.maximum(np.abs(vals[mid:]), np.abs(vals[mid::-1]))
        sup = np.maximum.accumulate(folded[::-1])[::-1]  # S at t = i spacing
        tails = 2.0 * np.cumsum(sup[::round(1.0 / grid.spacing)][::-1] ** 2)[::-1]
        if not (tails[-1] < _TAIL_TARGET and sup[-1] < _ALIAS_TARGET):
            raise PhiTailError(
                f"rho2 = {ws.rho2:g}: the phi table's tail stays above its "
                f"targets (|phi| must fall below {_ALIAS_TARGET:g} within "
                f"{grid.last:g}); at a = 1 projections support rho2 <= {MAX_RHO2:g}")
        ws._fits["phi_tail"] = (tails, int(np.argmax(tails < _TAIL_TARGET)),
                                float(np.argmax(sup < _ALIAS_TARGET) * grid.spacing))
    return ws._fits["phi_tail"]


@dataclass(frozen=True)
class ProjectionKernel:
    ws: WaveletSystem
    level: int
    dimension: int

    def __post_init__(self):
        if not isinstance(self.level, (int, np.integer)):
            raise ProjectionError(f"level must be an integer, got {self.level!r}")
        if not (isinstance(self.dimension, (int, np.integer)) and self.dimension >= 1):
            raise ProjectionError("dimension must be an integer >= 1")

    @property
    def truncation_radius(self) -> int:
        """The radius K that ``_phi_tail`` reads off the phi table."""
        return _phi_tail(self.ws)[1]

    @property
    def tail_bound(self) -> float:
        """Bound on the lattice terms dropped at ``truncation_radius``
        (``_phi_tail``)."""
        return float(_phi_tail(self.ws)[0][self.truncation_radius])


def build_kernel(ws: WaveletSystem, level: int = 0,
                 dimension: int = 1) -> ProjectionKernel:
    """The level-m kernel; a system whose phi tail misses its targets
    (``_phi_tail``) is refused here."""
    _phi_tail(ws)
    return ProjectionKernel(ws=ws, level=level, dimension=dimension)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

class _Bins(NamedTuple):
    """Nodes that are DFT bins of the grid the samples lie on: ``zeta_k = 2
    pi k / (size h)`` on ``grid`` (origin x0, spacing h), with ``phase[k] =
    exp(-i zeta_k x0)``."""

    grid: Grid1D
    size: int
    phase: np.ndarray


class Spectrum(NamedTuple):
    """q_m f of real f as ``_project_1d`` returns it: Q on the nodes
    ``zeta >= 0``, along axis 0 of ``values``, the Hermitian half of the
    spectrum (``Q(-zeta) = conj Q(zeta)`` gives the rest).  ``bins`` is set
    where the nodes are DFT bins of the samples' grid (``_dft_size``), so
    that ``_on_grid`` sums the spectrum back onto that grid by one real
    FFT."""

    zeta: Grid1D
    values: np.ndarray
    bins: _Bins | None = None


def _project_1d(pk: ProjectionKernel, grid: Grid1D, values: np.ndarray,
                probes=(), nodes=None) -> Spectrum:
    """q_m along axis 0 of the real array ``values``, as a spectrum.

    phi_hat = exp(i eta) |phi_hat| vanishes outside |eta| <= 4 pi / 3, so q_m
    is a Fourier multiplier whose phases cancel: with ``f_hat(zeta) = sum_j
    w_j f_j exp(-i zeta x_j)``::

        q_m f = (1 / 2 pi) int Q(zeta) exp(i zeta x) d zeta,
        Q(2^m eta) = |phi_hat(eta)| sum_{l = -1, 0, 1}
                     |phi_hat(eta + 2 pi l)| f_hat(2^m (eta + 2 pi l)).

    f is real, so ``f_hat(-zeta) = conj f_hat(zeta)``, and f_hat is taken
    on the nodes ``eta >= 0`` alone, of spacing ``2 pi / L``, ``L`` an
    integer; the spectrum holds Q on the nodes ``zeta = 2^m eta``.  There
    the term ``l = 1`` lies beyond the band, and the term ``l = -1`` at eta
    is the conjugate of the node ``L`` places before the mirror of eta, a
    shifted add.  Q is smooth and vanishes at the band ends, so summing
    q_m f from the nodes errs only by aliasing: a read at x picks up q_m f
    at ``x + r L / 2^m``, r != 0.  ``L`` is therefore at least the first
    integer above ``span + margin``: ``span`` bounds ``2^m |x - x_j|`` over
    x on the grid and at ``probes`` and ``x_j`` on the grid, and ``margin``
    is where the running sup of |phi| drops below ``_ALIAS_TARGET``
    (``_phi_tail``).

    f_hat takes one of two routes (``_eta_nodes`` picks it).  Where the
    nodes are the bins of a DFT of length ``size`` on the grid (``zeta_k =
    2 pi k / (size h)``, ``_dft_size``), ``f_hat(zeta_k) = exp(-i zeta_k
    x0) real_dft(w f)[k]``: the trapezoid sums exactly, with no chirp phase.
    Every other call sums ``_weighted_transform``, conjugated.

    Trailing axes of ``values`` are carried along, so a 2-D array is
    projected along its first axis in one pass.  ``nodes`` is
    ``_eta_nodes``'s result for these arguments, if the caller has it.  A
    level ``_eta_nodes`` refuses raises ``UnresolvedLevelError`` before
    anything of its size is allocated, and before any float overflows.
    """
    m = pk.level
    L, eta, size = nodes or _eta_nodes(pk, grid, probes)
    zeta = Grid1D(np.ldexp(eta.origin, m), np.ldexp(eta.spacing, m), eta.count)
    column = (-1,) + (1,) * (np.ndim(values) - 1)
    modulus = _kept(pk, eta, "modulus", lambda: scaling_modulus(
        pk.ws.bell, eta.points())).reshape(column)
    bins = None
    if size:
        bins = _Bins(grid, size, _kept(pk, (eta, grid), "phase",
                                       lambda: _dft_phase(grid, size, eta.count)))
        g = numerics.real_dft((values.T * grid.trapezoid_weights()).T, size, eta.count)
        g *= bins.phase.reshape(column)
    else:
        g = _weighted_transform(grid, values, zeta)
        np.conjugate(g, out=g)
    g *= modulus  # in place: the transform is a fresh array
    qhat = g.copy()
    mirrored = slice(L - (eta.count - 1), None)  # eta_i - 2 pi = -eta_(L - i)
    qhat[mirrored] += np.conj(g[mirrored][::-1])
    qhat *= modulus
    return Spectrum(zeta, qhat, bins)


# The DFT route's longest length, as a multiple of the length the chirp
# route's FFTs pad to.  Measured per level (``_project_1d`` and ``_on_grid``
# with kept chirp plans, one thread): the routes break even near 4, from
# 3.1 to 4.3 over grids of 129 to 5,121 points; level 0 of the reference
# grid, at 5.6, is 1.4 times faster by chirp.  5-smooth lengths ran 10-20%
# faster than the 11-smooth ones between them (8,640 against 8,400)
_DFT_RATIO = 4
_DFT_PRIMES = (3, 5)


def _eta_nodes(pk: ProjectionKernel, grid: Grid1D, probes=()) -> tuple[int, Grid1D, int]:
    """(L, eta, size) of ``_project_1d``: the nodes ``eta >= 0``, and
    ``size`` the length of the DFT whose bins they are (``_dft_size``),
    else 0.

    A level is refused with ``UnresolvedLevelError`` when its window spans
    more than ``_MAX_NODES`` shifts, or needs more eta nodes, or spans less
    than one shift, or when the grid does not resolve it
    (``construction.resolves``: ``2^m 4 pi / 3 < 2 pi / h``).  Each guard
    runs before anything of the level's size is allocated, and the first
    before any float overflows.
    """
    m = pk.level
    if m > np.log2(_MAX_NODES / grid.extent):  # 2^m extent shifts at least
        raise UnresolvedLevelError(f"level {m} needs more than {_MAX_NODES} "
                                   f"shifts on this window")
    if np.ldexp(grid.extent, m) < 1.0:
        raise UnresolvedLevelError("window too small for level shifts")
    reach = np.concatenate([[grid.origin, grid.last], np.ravel(probes)])
    span = np.ldexp(max(reach.max() - grid.origin, grid.last - reach.min()), m)
    L = int(np.ceil(span + _phi_tail(pk.ws)[2]))
    top = -(-2 * L // 3)  # spacings from 0 to the band end 4 pi / 3
    if not top + 1 <= _MAX_NODES:
        raise UnresolvedLevelError(f"level {m} needs {top + 1:.3g} eta nodes "
                                   f"on this window, more than {_MAX_NODES}")
    if not resolves(PHI_BAND[1], m, grid.spacing):
        raise UnresolvedLevelError(
            f"level {m} aliases on a grid of spacing {grid.spacing:g}: needs "
            f"2^m * h * {PHI_BAND[1]:.4f} < 2 pi")
    L, size = _dft_size(m, grid, L)
    return L, Grid1D(0.0, 2 * np.pi / L, -(-2 * L // 3) + 1), size


def _dft_size(m: int, grid: Grid1D, L: int) -> tuple[int, int]:
    """(L, size) of the DFT route for nodes of at least ``L`` spacings
    per 2 pi, else ``(L, 0)``.

    With ``2^m h = a / b`` in lowest terms, the nodes ``2 pi k / L'`` are
    the bins ``zeta_k = 2 pi k / (size h)`` of a DFT of length ``size = b t``
    when ``L' = a t``; ``t`` is the least 5-smooth integer (``_DFT_PRIMES``)
    with ``a t >= L``.  The route is taken when its nodes fit within
    ``size`` and ``_MAX_NODES``, and ``size`` is at most ``_DFT_RATIO``
    times the length the chirp route pads to.  A grid whose spacing is no
    dyadic rational of small denominator (2/99, say) gets a ``size`` far
    past that, and keeps the chirp route.
    """
    a, b = float(np.ldexp(grid.spacing, m)).as_integer_ratio()
    if a > L:  # L' would be a multiple of a, past what L asks for
        return L, 0
    t = numerics.next_fast_len(-(-L // a), _DFT_PRIMES)
    top, size = -(-2 * a * t // 3), b * t
    chirp = numerics.next_fast_len(grid.count + -(-2 * L // 3))
    if top < size and top + 1 <= _MAX_NODES and size <= _DFT_RATIO * chirp:
        return a * t, size
    return L, 0


def _dft_phase(grid: Grid1D, size: int, count: int) -> np.ndarray:
    """``exp(-i zeta_k x0)`` at the bins ``zeta_k = 2 pi k / (size h)``, ``0
    <= k < count``: the angle ``2 pi k t / size``, ``t = x0 / h``, reduced
    modulo ``2 pi`` in integers for the whole part of t."""
    t = grid.origin / grid.spacing
    whole = round(t)
    k = np.arange(count)
    turns = k * (whole % size) % size + k * (t - whole)
    return np.exp(turns * (-2j * np.pi / size))


def _kept(pk: ProjectionKernel, grid, name: str, make):
    """The system's kept ``name`` of level ``pk.level`` on ``grid`` (a grid,
    or a tuple of the grids it depends on), read-only, from ``ws._blocks``,
    else ``make()``.

    The key holds ``scaling_modulus`` and the bell as this call reads them,
    so a replaced modulus or bell misses, as a replaced evaluator misses
    ``expansion._axis_block``'s rows.
    """
    def kept():
        value = make()
        value.flags.writeable = False
        return value

    key = (name, scaling_modulus, pk.ws.bell, pk.level, grid)
    return pk.ws._blocks.get(key, kept)


def _weighted_transform(grid: Grid1D, values: np.ndarray, zeta: Grid1D) -> np.ndarray:
    """``F(zeta) = sum_j w_j f_j exp(i zeta x_j)`` on the nodes ``zeta``, along axis 0.

    The trapezoid sum ``numerics.forward_transform_values`` takes at
    ``-zeta``, summed by one ``chirp_synthesis``.
    """
    fw = (values.T * grid.trapezoid_weights()).T
    return numerics.chirp_synthesis(fw, grid.origin, grid.spacing, zeta.origin,
                                    zeta.spacing, zeta.count)


def _on_grid(spectrum: Spectrum, grid: Grid1D) -> np.ndarray:
    """``(1/2 pi) sum_l Q_l exp(i zeta_l x) dzeta`` on ``grid``, along axis 0.

    Q vanishes at the band ends, so every node takes the full spacing.  The
    Hermitian half sums to the real array ``(1/2 pi) Re sum_l w_l Q_l
    exp(i zeta_l x) dzeta``, with ``w = 1`` at ``zeta = 0`` and 2 at every
    other node, which stands for its mirror too.  On the grid whose DFT
    bins the nodes are (``Spectrum.bins``) that sum is one
    ``numerics.real_dft_sum`` of ``w_l Q_l exp(i zeta_l x0)``, nodes past
    half the length folded onto their mirrors; onto any other grid it is one
    ``chirp_synthesis``.
    """
    zeta, qhat, bins = spectrum
    amp = qhat * (zeta.spacing / (2.0 * np.pi))
    amp[1:] *= 2.0
    if bins is not None and bins.grid == grid:
        amp *= np.conj(bins.phase).reshape((-1,) + (1,) * (amp.ndim - 1))
        return numerics.real_dft_sum(amp, bins.size, grid.count)
    out = numerics.chirp_synthesis(amp, zeta.origin, zeta.spacing, grid.origin,
                                   grid.spacing, grid.count)
    return out.real


def _projector(pk: ProjectionKernel, grid: Grid1D, columns: int):
    """q_m along one axis of ``grid`` as its kept real (n, n) matrix, or None.

    Column j is q_m of the j-th unit vector, by ``_project_1d`` and
    ``_on_grid`` (the DFT route where ``_eta_nodes`` takes it), a contiguous
    float64 array of ``8 n^2`` bytes.  Only a call that carries at least n
    real columns uses it, and only when ``16 n^2`` bytes fit the system's
    block store (n <= 724 at 32 MiB): such a call builds it with one pass
    over n columns, and its repeats on the same grid and level read it.
    Every other call takes the route of ``_project_1d``, so its result does
    not depend on what the store holds.
    """
    n = grid.count
    if columns < n or not pk.ws._blocks.fits(16 * n * n):
        return None

    def make():
        # refuses a level before the identity is allocated
        nodes = _eta_nodes(pk, grid)
        return np.ascontiguousarray(_on_grid(_project_1d(pk, grid, np.eye(n), (), nodes),
                                             grid))

    return _kept(pk, grid, "projector", make)


def project(pk: ProjectionKernel, f: SampledFunction) -> SampledFunction:
    """Orthogonal projection sum_k <f, phi_{m,k}> phi_{m,k} onto the level-m space.

    The samples' parts (``numerics.split_parts``) are the real columns of
    the level-m operator, which runs along each axis in turn, every column
    at once: one real product of the axis's kept matrix (``_projector``),
    else the spectrum of ``_project_1d``, summed onto the grid by
    ``_on_grid``.  Real samples (imaginary part exactly zero) give a
    projection whose imaginary part is exactly 0.
    """
    if f.dimension != pk.dimension:
        raise ProjectionError("kernel and samples differ in dimension")
    _warn_boundary_mass(f)
    out = numerics.split_parts(f.values)
    for grid in f.grids:  # each pass moves its axis before the parts: d passes restore the order
        q = _projector(pk, grid, out.size // grid.count)
        if q is None:
            out = _on_grid(_project_1d(pk, grid, out), grid)
        else:
            out = (q @ np.ascontiguousarray(out.reshape(grid.count, -1))).reshape(out.shape)
        out = np.moveaxis(out, 0, -2)
    return SampledFunction(f.grid, numerics.join_parts(out))


def _warn_boundary_mass(f: SampledFunction) -> float:
    boundary = boundary_mass(f)
    if boundary > BOUNDARY_MASS_WARN:
        logger.warning("project: boundary mass %.3e visible at window edges",
                       boundary)
    return boundary


def boundary_mass(f: SampledFunction) -> float:
    """Largest |f| over the outermost 1% of grid points on every axis."""
    worst = 0.0
    for axis, g in enumerate(f.grids):
        edge = max(1, g.count // 100)
        rim = np.moveaxis(f.values, axis, 0)
        worst = max(worst, float(np.abs(rim[:edge]).max()),
                    float(np.abs(rim[-edge:]).max()))
    return worst


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def kernel_decay_certificate(pk: ProjectionKernel) -> DecayFit:
    """Envelope fit of sup_x |q_0(x, x + u)| with the exponent pinned to 1/rho2.

    By integer-shift invariance x only needs to range over one period: the
    probes are ``x_p = p / 16``, the offsets ``u_j = j / 20`` on [0, 20].
    ``q_0(x_p, .)`` projects a point mass at x_p: one ``_project_1d`` pass
    takes the masses as columns over a uniform grid on [0, 1], each ``1 / w``
    at its node (transform ``exp(i zeta x_p)``), and one ``_on_grid`` reads
    each spectrum times ``exp(i zeta x_p)`` at u.  The masses are real, and
    a spectrum shifted that way is still the Hermitian half of a real
    function's.
    """
    if pk.level != 0:
        raise ProjectionError("the kernel-decay certificate reads the level-0 kernel")
    masses = Grid1D(0.0, 1.0 / _DECAY_PROBES, _DECAY_PROBES + 1)
    values = np.eye(masses.count, _DECAY_PROBES) / masses.trapezoid_weights()[:, None]
    spectrum = _project_1d(pk, masses, values, _DECAY_U_MAX + 1.0)
    zeta, qhat = spectrum[:2]
    qhat *= _kept(pk, (zeta, masses), "shift", lambda: np.exp(
        1j * np.outer(zeta.points(), masses.points()[:-1])))
    u = np.arange(int(_DECAY_U_MAX * _DECAY_PER_UNIT) + 2) / _DECAY_PER_UNIT
    reads = _on_grid(spectrum, Grid1D(0.0, 1.0 / _DECAY_PER_UNIT, u.size))
    samples = np.column_stack([u, np.abs(reads).max(axis=1)])[u <= _DECAY_U_MAX]
    try:
        return metrics.subexp_decay_fit(samples, "fixed", rho=pk.ws.rho2)
    except metrics.MetricsError as exc:
        raise ProjectionError(f"degenerate fit: {exc}") from exc


def polynomial_reproduction(pk: ProjectionKernel) -> dict:
    """Deviation of int q_0(x, y) (y - x)^alpha dy from its ideal value, alpha = 0, 1.

    The y-integral is expanded per lattice site: with u = y - k it splits into
    translate moments M_j of phi, leaving the absolutely convergent sum
    sum_k phi(x - k) * sum_j C(alpha, j) (k - x)^(alpha - j) M_j, which the
    long-range table covers to |k - x| ~ 1400 (no y-truncation error at all).
    Ideal values: 1 at degree 0, 0 at degree 1.
    """
    grid, table = pk.ws.wide_table("phi")
    # translate moments M_j = int phi(u) u^j du over the long-range table
    M0, M1 = numerics.moments(grid, table, 1)
    # probes on the table lattice so every phi(x - k) is an exact table read
    xs = np.arange(32) / 16.0
    kmax = int(grid.last) - 3
    ks = np.arange(-kmax, kmax + 1)
    phi_vals = table[grid.index_of(xs[:, None] - ks[None, :])]  # (32, nk)
    km = ks[None, :] - xs[:, None]
    totals = (np.sum(phi_vals * M0, axis=1) - 1.0,  # ideal 1 at degree 0
              np.sum(phi_vals * (M0 * km + M1), axis=1))  # ideal 0 at degree 1
    dev = {alpha: float(np.max(np.abs(t))) for alpha, t in enumerate(totals)}
    return {"max_deviation_per_degree": dev, "probes": 32, "lattice_extent": int(kmax)}


def mra_convergence_experiment(ws: WaveletSystem, f: SampledFunction,
                               levels, seminorm_params: SeminormParams) -> list[dict]:
    """Rows (m, sup_error, seminorm, boundary_mass) for q_m f across levels.

    sup_error is the grid sup of |q_m f - f|; the seminorm column is the
    fixed-(h, c) weighted estimate of q_m f on 161 uniform probes of
    [-8, 8], whose boundedness across m is the second ingredient of the
    convergence argument.  Every level is checked (``_eta_nodes``) before
    any is computed.
    """
    if seminorm_params.max_beta > numerics.DERIVATIVE_ORDER_CAP:
        raise numerics.NumericsError("derivative order cap")
    (grid,) = f.grids
    values = numerics.split_parts(f.values)
    probes = _SEMINORM_PROBES.points()
    kernels = [build_kernel(ws, level=m, dimension=1) for m in levels]
    nodes = [_eta_nodes(pk, grid, probes) for pk in kernels]
    bmass = _warn_boundary_mass(f)
    rows = []
    for pk, level_nodes in zip(kernels, nodes):
        spectrum = _project_1d(pk, grid, values, probes, level_nodes)
        error = numerics.join_parts(_on_grid(spectrum, grid) - values)
        # derivatives of q_m f are (i zeta)^beta factors on its spectrum,
        # each order the last one times i zeta
        step, spectra = 1j * spectrum.zeta.points()[:, None], [spectrum.values]
        for _ in range(seminorm_params.max_beta):
            spectra.append(spectra[-1] * step)
        derivatives = numerics.join_parts(_on_grid(
            spectrum._replace(values=np.stack(spectra, 1)), _SEMINORM_PROBES)).T
        sem = metrics.seminorm_estimate(derivatives, seminorm_params, probes)
        rows.append({"m": int(pk.level), "sup_error": float(np.max(np.abs(error))),
                     "seminorm": sem, "boundary_mass": bmass})
    return rows


def convergence_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "sup_error", "seminorm", "boundary_mass"])
        for row in rows:
            writer.writerow([row["m"], repr(row["sup_error"]),
                             repr(row["seminorm"]), repr(row["boundary_mass"])])

