"""The convolution algebra of integrable functions on the line.

Elements are compactly supported complex piecewise-linear functions plus
an L1 slack: a :class:`PLFunction` stands for every true integrable
function within ``l1_slack`` of it in the one-norm.  Convolution,
Fourier evaluation, the Fejer and De la Vallee Poussin kernels, and the
Tauberian division algorithm all maintain that certified reading.  Fourier
evaluation is closed-form segment sums, or chirp-Z sums on a uniform grid.
The one-norm is the exact integral of ``|f|`` on each segment, in closed
form, with a derived rounding bound.

Convolution strategy: both inputs are resampled onto a common uniform
grid (certified resampling error), the exact node values of the
convolution of the resampled pair are computed by a discrete convolution
smoothed with the hat-times-hat stencil ``[1/6, 2/3, 1/6]``, and the
piecewise-linear interpolation error of the exact (piecewise-cubic)
convolution is certified through total-variation bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .certs import (
    CU_ZERO,
    ULP,
    CertUpper,
    certify_min_modulus,
    cu,
    cu_abs,
    cu_add,
    cu_cross,
    cu_from_float_sum,
    cu_mul,
    fft_roundoff,
    _up,
)
from .errors import (
    BoundOverflow,
    CertificationFailure,
    HypothesisFailure,
    InvalidInput,
    ToleranceUnreachable,
)

_NODE_CAP = 2 ** 23
_PAIR_CUT = 1 << 20
_RESAMPLE_CAP = 1 << 20


@dataclass(frozen=True)
class PLFunction:
    """Compactly supported piecewise-linear function plus an L1 budget."""

    breakpoints: np.ndarray
    values: np.ndarray
    l1_slack: CertUpper = field(default=CU_ZERO)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if bp.ndim != 1 or bp.size < 2 or vals.shape != bp.shape:
            raise InvalidInput("need matching 1-d breakpoints and values, m >= 1")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise InvalidInput("non-finite breakpoint or value")
        if not np.all(np.diff(bp) > 0):
            raise InvalidInput("breakpoints must be strictly increasing")
        if vals[0] != 0 or vals[-1] != 0:
            raise InvalidInput("boundary values must vanish")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def span(self) -> Tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __eq__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return (
            np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
            and self.l1_slack == other.l1_slack
        )


def zero_fn() -> PLFunction:
    return PLFunction(np.array([0.0, 1.0]), np.zeros(2, dtype=complex))


def triangle(center: float = 0.0, halfwidth: float = 1.0, height: complex = 1.0) -> PLFunction:
    if not halfwidth > 0:
        raise InvalidInput("halfwidth must be positive")
    bp = np.array([center - halfwidth, center, center + halfwidth])
    vals = np.array([0.0, height, 0.0], dtype=complex)
    return PLFunction(bp, vals)


def evaluate(f: PLFunction, xs) -> np.ndarray:
    """Pointwise values (zero outside the support)."""
    xs = np.asarray(xs, dtype=float)
    re = np.interp(xs, f.breakpoints, f.values.real, left=0.0, right=0.0)
    im = np.interp(xs, f.breakpoints, f.values.imag, left=0.0, right=0.0)
    return re + 1j * im


# ---------------------------------------------------------------------------
# norms and variation bounds


#: rounding count per segment of a sum of masses: ``S`` masses within 64 ulps
#: (128), a product each and ``np.sum`` need ``S + 128``, below ``66 S`` for ``S >= 2``
_MASS_TERMS = 66

#: below this ``|d|``, relative to a segment scaled into [1/2, 1), the
#: trapezoid ``(m0 + m1) / 2`` is within ``|d| / 4``, under two ulps of ``m0 + m1``
_FLAT = 2.0 ** -50


def _segment_abs_masses(f: PLFunction, *factors: np.ndarray) -> np.ndarray:
    """Per-segment integrals of ``|f|`` in closed form, each within 64 ulps.

    Each integral is multiplied by the segment length and by any further
    per-segment ``factors`` (positive arrays).  On a segment of values ``a``,
    ``b = a + d`` let ``m0 = |a|``, ``m1 = |b|``, ``u0 = Re(conj(a) d) /
    |d|``, ``u1 = u0 + |d|``, ``h = |Im(conj(a) d)| / |d|``.  The integrand
    is ``sqrt(s**2 + h**2)`` in ``s = u0 + |d| t``, so ``int_0^1 |a + d t| dt
    = [(m0 + m1) + (u0 + u1)**2 / (m0 + m1)] / 4 + h**2 / (2 |d|) asinh(X)``,
    with ``asinh(X) = asinh(u1 / h) - asinh(u0 / h)``: ``X = |d| (u0 + u1) /
    (u1 m0 + u0 m1)`` when ``u0`` and ``u1`` share a sign and ``(u1 m0 - u0
    m1) / h**2`` when they do not.  Every term is nonnegative, so nothing
    cancels.  Each segment is first scaled by a power of two (exact) that
    brings its largest component into [1/2, 1), so ``m0 + m1 >= 1/2`` and
    nothing overflows.  A segment with ``|d| < _FLAT`` takes the trapezoid
    ``(m0 + m1) / 2`` instead: ``|a + d t|`` is convex and ``|d|``-Lipschitz,
    so that is an upper bound within ``|d| / 4``; it is exact for ``d = 0``.
    Otherwise ``|d|`` and ``|u0 + u1|`` (when ``u0``, ``u1`` share a sign) are
    at least ``_FLAT``, so ``X`` does not underflow where it is used; below
    ``h**2 = 1e-300`` the asinh term, at most ``h``, is dropped.

    Error against ``E = m0 + m1``, in ``u = 2**-53`` and to first order.  The
    rounded ``d`` moves ``b`` by ``u |d|``, the integral by half that.  The
    ``hypot`` values are within ``2 u``; ``u0`` and ``h``, a two-term dot
    product over ``|d|``, within ``5 u m0``; ``u1`` within ``u |u1|`` more.
    The formula's derivatives are at most 1 in ``u0`` (``u1`` moving with it),
    3/2 in ``h`` and 1/2 in ``m0``, ``m1``, ``|d|`` and ``u1`` alone (the
    ``1 / |d|`` factor cancels against ``X``), so the inputs give ``18 u E``;
    its own ten roundings and ``asinh``, relative on a value at most ``E / 2``,
    add ``5 u E``.  That is ``KAPPA = 16`` ulps (``2 u``) of ``E``, and since
    the integral is at least ``E / 4``, 64 ulps of the mass.  The trapezoid is
    within two ulps of ``E``, and two more for its roundings.  The length and
    the ``factors`` are multiplied in as mantissas, one rounding each, and the
    exponents are applied once, at the end; a mass below ``2**-1022`` is off
    by up to ``2**-1075`` more, in that step.
    """
    va, vb = f.values[:-1], f.values[1:]
    ar, ai, br, bi = va.real, va.imag, vb.real, vb.imag
    top = np.maximum(np.maximum(np.abs(ar), np.abs(ai)), np.maximum(np.abs(br), np.abs(bi)))
    e = np.frexp(top)[1]
    ar, ai, br, bi = (np.ldexp(x, -e) for x in (ar, ai, br, bi))
    dr, di = br - ar, bi - ai
    m0, m1, D = np.hypot(ar, ai), np.hypot(br, bi), np.hypot(dr, di)
    with np.errstate(all="ignore"):  # flat segments and tiny h fill lanes that np.where drops
        u0 = (ar * dr + ai * di) / D
        h = np.abs(ar * di - ai * dr) / D
        u1, h2, m = u0 + D, h * h, m0 + m1
        X = np.where((u0 < 0.0) & (u1 > 0.0), (u1 * m0 - u0 * m1) / h2,
                     D * (u0 + u1) / (u1 * m0 + u0 * m1))
        t2 = np.where(h2 > 1e-300, h2 / (2.0 * D) * np.arcsinh(X), 0.0)
        out = np.where(D < _FLAT, 0.5 * m, 0.25 * (m + (u0 + u1) ** 2 / m) + t2)
    for w in (np.diff(f.breakpoints),) + factors:
        w, ew = np.frexp(w)
        out, e = out * w, e + ew
    return np.ldexp(out, e)


def _mass_upper(f: PLFunction, terms: int, *factors: np.ndarray) -> CertUpper:
    """Certified sum of the segment masses, ``terms`` roundings per segment."""
    masses = _segment_abs_masses(f, *factors)
    total = float(np.sum(masses))
    if np.any(f.values):  # masses that underflow to zero still need the cushion
        total = max(total, math.ulp(0.0))
    return cu_from_float_sum(total, masses.size * terms)


def norm_l1(f: PLFunction) -> CertUpper:
    """Certified one-norm: closed-form segment integrals plus slack."""
    return cu_add(_mass_upper(f, _MASS_TERMS), f.l1_slack)


def _value_variation(f: PLFunction) -> float:
    """Upper bound on the total variation of f (zero outside the support)."""
    # rounding count: a difference and its modulus (3), np.sum of m - 1 terms
    tv = float(np.sum(np.abs(np.diff(f.values))))
    return cu_from_float_sum(tv, f.values.size + 1).value


def _slope_variation(f: PLFunction) -> float:
    """Upper bound on the variation of f' as a measure (kink jump mass).

    Rounding count for ``n`` slopes, each within ``3u`` of its modulus: the
    jumps lose ``6u sum |s_i| <= 3n u V`` (``V >= 2 max |s_i|``), so ``3n``;
    a jump's difference and modulus 3, the sum ``n``.
    """
    slopes = np.diff(f.values) / np.diff(f.breakpoints)
    jumps = np.abs(np.diff(slopes))
    total = abs(slopes[0]) + float(np.sum(jumps)) + abs(slopes[-1])
    return cu_from_float_sum(total, 4 * slopes.size + 3).value


# ---------------------------------------------------------------------------
# linear structure


def translate(f: PLFunction, x: float) -> PLFunction:
    """Shift of the argument: the result at y is the input at x + y."""
    return PLFunction(f.breakpoints - x, f.values, f.l1_slack)


def scale_fn(c: complex, f: PLFunction) -> PLFunction:
    c = complex(c)
    return PLFunction(f.breakpoints, c * f.values, cu_mul(cu_abs(c), f.l1_slack))


def add_fn(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise sum on the union grid (exact up to evaluation roundoff)."""
    bp = np.union1d(f.breakpoints, g.breakpoints)
    vals = evaluate(f, bp) + evaluate(g, bp)
    vals[0] = 0.0
    vals[-1] = 0.0
    slack = cu_add(cu_add(f.l1_slack, g.l1_slack), _interp_roundoff(bp, f, g))
    return PLFunction(bp, vals, slack)


def sub_fn(f: PLFunction, g: PLFunction) -> PLFunction:
    return add_fn(f, scale_fn(-1.0, g))


def _interp_roundoff(nodes: np.ndarray, *fs: PLFunction) -> CertUpper:
    """Certified L1 norm of the rounding in the sum of ``evaluate(f, nodes)`` over ``fs``.

    ``np.interp`` gives a part at ``x`` in ``[x_j, x_(j+1)]`` as ``s (x - x_j) +
    a``, ``s = (b - a) / (x_(j+1) - x_j)``, where ``a`` and ``b`` are the part at
    the ends.  In units of ``u = 2**-53``: ``s (x - x_j)`` is within 5 (the two
    differences, the division, the product) of ``(b - a) theta``, which is at
    most ``2 M``, ``M = max(|a|, |b|)``; adding ``a`` costs 1 of ``M`` and the sum
    over ``fs`` 1 of each ``M``.  A part is at most the modulus, so a node is off
    by at most ``12 sqrt(2) u sum_f max |f|``, with the second order below ``9
    ULP``.  The rounding is linear between nodes, so its L1 norm is at most that
    times the nodes' span.  That product rounds in ``|f|`` (2), the sum over
    ``fs`` (``len(fs) - 1``), the span (1) and the product (1).
    """
    total = sum(float(np.max(np.abs(f.values))) for f in fs) * float(nodes[-1] - nodes[0])
    return cu_mul(cu_from_float_sum(total, len(fs) + 3), cu(9 * ULP))


# ---------------------------------------------------------------------------
# convolution


def _resample_uniform(f: PLFunction, h: float) -> PLFunction:
    """Uniform-grid re-interpolation; its certified L1 error joins the slack."""
    lo, hi = f.span()
    # the extra node guarantees the grid covers the support even after
    # rounding inside ceil
    n = int(math.ceil((hi - lo) / h)) + 1
    if n < 2:
        n = 2
    bp = lo + h * np.arange(n + 1)
    vals = evaluate(f, bp)
    vals[0] = 0.0
    vals[-1] = 0.0
    err = cu(_up(0.25 * h * h * _slope_variation(f)))
    return PLFunction(bp, vals, cu_add(cu_add(f.l1_slack, err), _interp_roundoff(bp, f)))


def _fast_conv(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, float]:
    """Full discrete convolution and a per-node roundoff envelope."""
    n_out = a.size + b.size - 1
    nfft = 1
    while nfft < n_out:
        nfft *= 2
    out = np.fft.ifft(np.fft.fft(a, nfft) * np.fft.fft(b, nfft))[:n_out]
    eta = 8.0 * ULP * (math.log2(nfft) + 2.0)
    node_err = eta * float(np.linalg.norm(a) * np.linalg.norm(b))
    return out, _up(node_err)


def convolve(f: PLFunction, g: PLFunction, tol: float) -> PLFunction:
    """Convolution with certified L1 error at most ``tol`` plus slack terms."""
    if not tol > 0.0:
        raise InvalidInput("tol must be positive")
    if not np.any(f.values) or not np.any(g.values):
        slack = cu_cross(f.l1_slack, norm_l1(f), g.l1_slack, norm_l1(g))
        return PLFunction(np.array([0.0, 1.0]), np.zeros(2, dtype=complex), slack)

    tv_f, tv_g = _value_variation(f), _value_variation(g)
    sv_f, sv_g = _slope_variation(f), _slope_variation(g)
    nf, ng = norm_l1(f), norm_l1(g)
    denom = _up(1.01 * (tv_f * tv_g + sv_f * ng.value + sv_g * (nf.value + 1e-30)))
    h = math.sqrt(2.0 * tol / denom)
    span = (f.span()[1] - f.span()[0]) + (g.span()[1] - g.span()[0])
    if span / h > _NODE_CAP:
        raise ToleranceUnreachable("tolerance unreachable")

    fh = _resample_uniform(f, h)
    gh = _resample_uniform(g, h)
    w, node_err = _fast_conv(fh.values, gh.values)
    stencil = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    nodes = h * np.convolve(w, stencil)
    nodes[0] = 0.0
    nodes[-1] = 0.0
    # the stencil convolution prepends one node at base - h (exactly zero
    # there since boundary values vanish)
    base = fh.breakpoints[0] + gh.breakpoints[0]
    bp = (base - h) + h * np.arange(nodes.size)

    # interpolation error of the exact piecewise-cubic convolution
    interp = _up(0.25 * h * h * _up(1.01 * tv_f * tv_g))
    fft_l1 = _up(nodes.size * h * h * node_err)
    cross = cu_cross(fh.l1_slack, norm_l1(fh), gh.l1_slack, norm_l1(gh))
    slack = cu_add(cross, cu(_up(interp + fft_l1)))
    return PLFunction(bp, nodes, slack)


# ---------------------------------------------------------------------------
# Fourier transform evaluation


def _czt(a: np.ndarray, k: int, theta: float) -> Tuple[np.ndarray, float]:
    """Chirp-Z sums ``A_j = sum_i a_i exp(-1j theta i j)`` via Bluestein.

    Also bounds each sum's error: the chirp phases (arguments off by an ulp
    of ``theta (n + k)**2``) and the FFT convolution (Higham's bound on the
    three FFTs and the product, ``||y||_2 ||v||_1 / sqrt(L)``, ``||v||_1 < n + k``).
    """
    n, m = a.size, a.size + k
    y = a * np.exp(-0.5j * theta * np.arange(n, dtype=float) ** 2)
    v = np.exp(0.5j * theta * np.arange(-(n - 1), k, dtype=float) ** 2)
    L = 1 << (2 * n + k - 3).bit_length()  # the first power of two >= 2 n + k - 2
    core = np.fft.ifft(np.fft.fft(y, L) * np.fft.fft(v, L))[n - 1 : n - 1 + k]
    err = ULP * (abs(theta) * m * m + 8.0) * float(np.sum(np.abs(a)))
    err += 4.0 * m * fft_roundoff(L, float(np.linalg.norm(a))) / math.sqrt(L)
    return np.exp(-0.5j * theta * np.arange(k, dtype=float) ** 2) * core, _up(err)


def _uniform_spacing(xs: np.ndarray) -> Tuple[float, float] | None:
    """``(spacing, drift)`` if the grid is uniform to a relative 1e-9, else None."""
    h = (float(xs[-1]) - float(xs[0])) / max(xs.size - 1, 1)
    drift = float(np.max(np.abs(xs - (float(xs[0]) + h * np.arange(xs.size)))))
    return (h, drift) if drift <= 1e-9 * abs(h) else None


def fourier_eval_many(f: PLFunction, ps) -> Tuple[np.ndarray, CertUpper]:
    """Transform values at many frequencies, plus a shared error bound.

    Up to ``_PAIR_CUT`` (frequency, segment) pairs the closed-form segment
    sums run as one block.  Above it the frequencies must be a uniform grid
    (else InvalidInput); chirp-Z sums over the node values and differences
    give ``h (phi0(p h) E_v(p) + phi1(p h) E_dv(p))``, after breakpoints not
    uniform to a relative 1e-9 are resampled at the spacing whose certified
    error (added to ``l1_slack``) is 2**-10 of the input's ``l1_slack``, or
    on ``_RESAMPLE_CAP`` nodes, with their larger error, if that is fewer.

    The bound is the slack plus the rounding of the formula evaluated: per
    segment ``L (|v| + |dv|)`` times 16 ulps for the moments, 8 for products,
    phases and lengths, ``4 |p| max|x|`` for the phase arguments and ``S``
    for the sum, doubled for the bound's own rounding; chirp-Z adds its sums'
    error and the grids' drift (``2 drift_x sum|v|`` in L1, ``drift_p span``).
    """
    ps = np.asarray(ps, dtype=float)
    S = f.breakpoints.size - 1
    extra = phase_drift = 0.0
    if ps.size * S <= _PAIR_CUT:
        Lseg = np.diff(f.breakpoints)
        phi0, phi1 = _segment_moments(np.multiply.outer(ps, Lseg))
        phase = np.exp(-1j * np.multiply.outer(ps, f.breakpoints[:-1]))
        out = (phase * Lseg * (f.values[:-1] * phi0 + np.diff(f.values) * phi1)).sum(axis=1)
    else:
        grid_p = _uniform_spacing(ps)
        if grid_p is None:
            raise InvalidInput("above %d pairs the frequencies must be a uniform grid" % _PAIR_CUT)
        grid_x = _uniform_spacing(f.breakpoints)
        if grid_x is None:
            (lo, hi), sv = f.span(), _slope_variation(f)
            h = math.sqrt(f.l1_slack.value / (256.0 * sv)) if sv else hi - lo
            h = min(hi - lo, max(h, (hi - lo) / _RESAMPLE_CAP))
            f = _resample_uniform(f, h)
            S, grid_x = f.breakpoints.size - 1, (h, 0.0)
        (h, drift_x), (dp, drift_p) = grid_x, grid_p
        x0 = float(f.breakpoints[0])
        base = np.exp(-1j * ps[0] * (x0 + h * np.arange(S)))
        ev, ev_err = _czt(f.values[:-1] * base, ps.size, dp * h)
        es, es_err = _czt(np.diff(f.values) * base, ps.size, dp * h)
        phi0, phi1 = _segment_moments(ps * h)
        out = np.exp(-1j * (ps - ps[0]) * x0) * h * (phi0 * ev + phi1 * es)
        extra = h * (ev_err + es_err) + 2.0 * drift_x * float(np.sum(np.abs(f.values)))
        phase_drift = drift_p * S * h
    bp, vals = f.breakpoints, f.values
    weight = float(np.sum(np.diff(bp) * (np.abs(vals[:-1]) + np.abs(np.diff(vals)))))
    pmax = float(np.max(np.abs(ps), initial=0.0))
    xmax = max(abs(float(bp[0])), abs(float(bp[-1])))
    rnd = weight * (2.0 * ULP * (S + 24.0 + 4.0 * pmax * xmax) + phase_drift) + extra + 1e-300
    return out, cu_add(f.l1_slack, cu(_up(rnd)))


# Taylor coefficients of -Im phi1 / t in powers of -t**2 (to t**17, remainder < 1e-18)
_IM_PHI1_SERIES = np.array([(k + 1) / math.factorial(k + 2) for k in range(1, 19, 2)])


def _segment_moments(t: np.ndarray):
    """``phi0 = I0 / L``, ``phi1 = I1 / L**2`` for the moments ``I0``, ``I1`` of
    ``exp(-i p u)`` on [0, L] against 1 and ``u``, at ``t = p L``.

    ``phi0 = sinc t - i t sinc(t/2)**2 / 2`` and ``Re phi1 = sinc t -
    sinc(t/2)**2 / 2`` do not cancel; ``Im phi1 = (cos t - sinc t) / t``
    does, so below ``|t| = 1`` it is a 9-term Taylor series.  Each part is
    within 10 ulps (sinc 2.5 ulps absolute, Horner ``16 u sum |c_m|``, the
    closed form 10 once divided by ``|t| >= 1``): each phi within 16 ulps.
    """
    a, b2 = np.sinc(t / math.pi), np.sinc(t / (2.0 * math.pi)) ** 2
    small = np.abs(t) < 1.0
    u, q = -t * t, np.full(t.shape, _IM_PHI1_SERIES[-1])
    for c in _IM_PHI1_SERIES[-2::-1]:  # Horner, in place
        q *= u
        q += c
    ts = np.where(small, 1.0, t)
    phi0, phi1 = np.empty((2,) + t.shape, dtype=complex)
    phi0.real, phi0.imag = a, -0.5 * t * b2
    phi1.real = a - 0.5 * b2
    phi1.imag = np.where(small, -t * q, (1.0 + 0.5 * u * b2 - a) / ts)
    return phi0, phi1


def fourier_eval(f: PLFunction, p: float) -> Tuple[complex, CertUpper]:
    """Transform value at one frequency with its certified error."""
    vals, err = fourier_eval_many(f, np.array([float(p)]))
    return complex(vals[0]), err


def transform_lipschitz_upper(f: PLFunction) -> CertUpper:
    """Certified bound on the derivative of the transform of the PL part.

    The transform's derivative is bounded by the x-weighted mass, itself
    bounded segmentwise by max|x| times the segment mass.
    """
    xmax = np.maximum(np.abs(f.breakpoints[:-1]), np.abs(f.breakpoints[1:]))
    return _mass_upper(f, _MASS_TERMS + 2, xmax)


# ---------------------------------------------------------------------------
# kernels


def _fejer_values(lam: float, xs: np.ndarray) -> np.ndarray:
    y = lam * xs
    small = np.abs(y) < 1e-4
    ys = np.where(small, 1.0, y)
    out = np.where(
        small,
        (1.0 - y * y / 12.0) / (2.0 * math.pi),
        (np.sin(ys / 2.0) / (ys / 2.0)) ** 2 / (2.0 * math.pi),
    )
    return lam * out


def _fejer_curvature(lam: float, x_lo: np.ndarray) -> np.ndarray:
    """Upper bound on |second derivative| of the scaled kernel past |x| >= x_lo."""
    y = lam * x_lo
    near = np.abs(y) < 1.0
    ys = np.where(near, 1.0, np.abs(y))
    far = (1.0 / ys ** 2 + 4.0 / ys ** 3 + 12.0 / ys ** 4) / math.pi
    return lam ** 3 * np.where(near, 0.05, far)


def fejer_kernel(lam: float, support_tol: float) -> PLFunction:
    """Truncated, discretized Fejer kernel with certified L1 slack.

    The discarded tail mass is bounded through the envelope
    ``2 / (pi * lam * x**2)`` and the discretization error through a
    curvature bound, both folded into ``l1_slack``.

    ``support_tol`` sets both terms.  The support is cut where the tail
    term equals ``support_tol`` (for ``support_tol <= 1 / pi``), and the
    grid is refined, down to a floor on the relative step, until the
    discretization term is at most ``1.5 * support_tol``; it lands near
    ``support_tol`` in practice.
    With the small edge term (the end values set to zero), the slack is
    about ``2 * support_tol``, independent of ``lam``: ``support_tol =
    1e-3`` gives ``l1_slack`` 0.0020.
    """
    if not (lam > 0.0 and support_tol > 0.0):
        raise InvalidInput("lam and support_tol must be positive")
    X = 4.0 / (math.pi * lam * support_tol)
    X = max(X, 4.0 / lam)
    tail = _up(4.0 / (math.pi * lam * X))

    budget = support_tol
    Y = lam * X
    J = 0.05 + (Y - 1.0 + 4.0 * math.log(Y) + 12.0 * (1.0 - 1.0 / Y)) / math.pi
    theta = math.sqrt(2.0 * budget / J)
    while True:
        pos = [0.0]
        x = 0.0
        while x < X:
            x = x + theta * max(x, 1.0 / lam)
            pos.append(min(x, X))
        pos = np.array(pos)
        bp = np.concatenate([-pos[::-1][:-1], pos])
        vals = _fejer_values(lam, bp).astype(complex)
        edge = _up(float(abs(vals[0])) * float(bp[1] - bp[0]))
        vals[0] = 0.0
        vals[-1] = 0.0
        h_seg = np.diff(bp)
        x_lo = np.minimum(np.abs(bp[:-1]), np.abs(bp[1:]))
        # rounding count per term: h ** 3 5, the curvature 13, two products
        disc_terms = 0.25 * h_seg ** 3 * _fejer_curvature(lam, x_lo)
        disc = float(np.sum(disc_terms))
        if disc <= 1.5 * budget or theta < 1e-6:
            break
        theta /= 2.0
    disc_cu = cu_from_float_sum(disc, disc_terms.size + 19)
    slack = cu_add(cu_add(cu(tail), disc_cu), cu(_up(edge + 1e-12)))
    return PLFunction(bp, vals, slack)


def dlvp_kernel(lam: float, support_tol: float) -> PLFunction:
    """De la Vallee Poussin kernel: twice the double-rate Fejer kernel
    minus the base one.  Its transform is one on ``[-lam, lam]`` and
    supported in ``[-2 lam, 2 lam]``, within the combined slack."""
    k2 = fejer_kernel(2.0 * lam, support_tol / 4.0)
    k1 = fejer_kernel(lam, support_tol / 4.0)
    return add_fn(scale_fn(2.0, k2), scale_fn(-1.0, k1))


def dlvp_hat(lam: float, ps) -> np.ndarray:
    """The ideal transform of the De la Vallee Poussin kernel."""
    a = np.abs(np.asarray(ps, dtype=float))
    return np.clip(np.minimum(1.0, 2.0 - a / lam), 0.0, 1.0)


def spectrum_compactify(g: PLFunction, lam: float, tol: float) -> PLFunction:
    """Smooth ``g`` with the Fejer kernel: hat-damped, band-limited transform."""
    if not (lam > 0.0 and tol > 0.0):
        raise InvalidInput("lam and tol must be positive")
    ng = norm_l1(g).value
    kf = fejer_kernel(lam, tol / (4.0 * (ng + 1.0)))
    return convolve(kf, g, tol / 2.0)


# ---------------------------------------------------------------------------
# Tauberian division


def certify_transform_lower(f: PLFunction, band: float, eps: float) -> Dict[str, object]:
    """Prove ``|f_hat| >= eps`` on ``[-band, band]`` by grid plus Lipschitz.

    ``certify_min_modulus`` on 256 up to 2**21 intervals; raises
    HypothesisFailure when the bound cannot be certified.
    """

    def sample(n: int):
        ps = np.linspace(-band, band, n + 1)
        vals, err = fourier_eval_many(f, ps)
        return ps, vals, err.value, band / n

    report = certify_min_modulus(sample, transform_lipschitz_upper(f).value, eps, 256, 1 << 21)
    if not report["ok"]:
        raise HypothesisFailure("hypothesis not certified", report=report)
    return report


def tauberian_divide(
    f: PLFunction,
    g: PLFunction,
    band: float,
    eps: float,
    tol: float,
    max_rounds: int = 4,
) -> Tuple[PLFunction, CertUpper]:
    """Divide ``g`` by ``f`` given a transform bounded below on the band.

    Builds a witness in frequency domain (band-limited by the De la
    Vallee Poussin hat, synthesized by the inversion formula on a
    trapezoid grid, windowed to compact support) and certifies the
    residual ``||f * k - g||`` directly, refining grids on failure.
    Expected to fail, with an honest report, when ``g`` carries spectral
    mass outside the band.
    """
    if not (band > 0.0 and eps > 0.0 and tol > 0.0):
        raise InvalidInput("band, eps and tol must be positive")
    certify_transform_lower(f, band, eps)

    if not np.any(g.values) and g.l1_slack.value == 0.0:
        return zero_fn(), CU_ZERO

    sf0, sf1 = f.span()
    sg0, sg1 = g.span()
    half_f = max(abs(sf0), sf1)
    half_g = max(abs(sg0), sg1)
    Xk = max(half_g - half_f, half_g / 4.0, 4.0 / band)
    hx = min(math.pi / (8.0 * band), Xk / 64.0)

    best = math.inf
    best_k = None
    for _ in range(max_rounds):
        dp = math.pi / (4.0 * Xk)
        nneg = int(math.ceil(2.0 * band / dp))
        ps = np.linspace(-2.0 * band, 2.0 * band, 2 * nneg + 1)
        dp = ps[1] - ps[0]
        fh, _ = fourier_eval_many(f, ps)
        gh, _ = fourier_eval_many(g, ps)
        khat = gh * dlvp_hat(band, ps) / fh
        weights = np.full(ps.size, dp / (2.0 * math.pi))
        weights[0] *= 0.5
        weights[-1] *= 0.5

        nx = int(math.ceil(Xk / hx))
        xs = hx * np.arange(-nx, nx + 1)
        # both grids are uniform: sum_i w_i khat_i exp(i x_j p_i) by chirp-Z
        a = weights * khat * np.exp(1j * xs[0] * (ps - ps[0]))
        kv = np.exp(1j * xs * ps[0]) * _czt(a, xs.size, -hx * dp)[0]
        kv[0] = 0.0
        kv[-1] = 0.0
        k = PLFunction(xs, kv)

        fk = convolve(f, k, tol / 8.0)
        residual = norm_l1(sub_fn(fk, g))
        if residual.value <= tol:
            return k, residual
        if residual.value < best:
            best = residual.value
            best_k = k
        Xk *= 1.5
        hx /= 2.0
    raise CertificationFailure(
        "division not certified",
        report={"best_residual": best, "tol": tol, "witness": best_k},
    )


# ---------------------------------------------------------------------------
# JSON / CSV


def to_jsonable(f: PLFunction) -> dict:
    return {
        "breakpoints": [float(x) for x in f.breakpoints],
        "values": [{"re": v.real, "im": v.imag} for v in f.values],
        "l1_slack": f.l1_slack.value,
    }


def from_jsonable(obj: dict) -> PLFunction:
    try:
        bp = np.array([float(x) for x in obj["breakpoints"]])
        vals = np.array(
            [complex(float(v["re"]), float(v["im"])) for v in obj["values"]]
        )
        slack = CertUpper(float(obj.get("l1_slack", 0.0)))
        return PLFunction(bp, vals, slack)
    except (KeyError, TypeError, ValueError, OverflowError, BoundOverflow) as exc:
        raise InvalidInput("malformed function JSON: %s" % exc) from exc


def dumps(f: PLFunction) -> str:
    return json.dumps(to_jsonable(f))


def loads(text: str) -> PLFunction:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput("invalid JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise InvalidInput("expected a JSON object")
    return from_jsonable(obj)


def to_csv(f: PLFunction) -> str:
    lines = ["x,re,im"]
    for x, v in zip(f.breakpoints, f.values):
        lines.append("%r,%r,%r" % (float(x), v.real, v.imag))
    return "\n".join(lines) + "\n"
