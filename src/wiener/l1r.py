"""The convolution algebra of integrable functions on the line.

Elements are compactly supported complex piecewise-linear functions plus
an L1 slack: a :class:`PLFunction` stands for every true integrable
function within ``l1_slack`` of it in the one-norm.  Convolution,
Fourier evaluation, the Fejer and De la Vallee Poussin kernels, and the
Tauberian division algorithm all maintain that certified reading.  Fourier
evaluation is closed-form segment sums or, when the frequencies are uniform,
the breakpoints nest and it costs less, chirp-Z sums over hat lattices:
each node's hat splits exactly into hats of its shorter segment's width
``w``, which transform to ``w sinc(p w / 2)**2``, so the transform is one
chirp-Z sum per width (`fourier_eval_many`).  A uniform grid is the
one-width case.  That path's error is each width's chirp-Z error times
``w``, the lattice and frequency drifts (the float grids' rounding
included), the rounding of the split weights, and the rounding term it
shares with the closed form.  The one-norm is the exact integral of
``|f|`` on each segment, in closed form, with a derived rounding bound.

Convolution strategy: both inputs are resampled to node values on a
common uniform grid, the exact node values of the convolution of the
resampled pair are computed by a discrete convolution smoothed with the
hat-times-hat stencil ``[1/6, 2/3, 1/6]``, and the result is their
piecewise-linear interpolant.  Its slack has four terms: the resampling
error ``e_f = h**2 sv_f / 4`` plus the evaluation rounding (``sv_f`` the
kink mass of ``f``), the interpolation error of the exact
(piecewise-cubic) convolution, ``h**2 / 4`` times ``1.01 tv_f tv_g`` (the
total variations; 1.01 is a margin), the FFT rounding of the node values,
and the cross term ``cu_cross(s_f + e_f, mf + e_f, s_g + e_g, mg + e_g)``
(``s_f`` the slack, ``mf`` the certified mass of ``f``'s body, without
slack), which carries the inputs' slack and the resampling through the
product (`convolve`).  The spacing ``h`` keeps the interpolation and the
resampling's share of the cross term, second order ``3 e_f e_g``
included, within ``tol / 2``, and is at most the shorter input's span.
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
#: chirp-Z cost per node over the closed form's per pair (`fourier_eval_many`); with
#: each path forced, the measured break-even was 1.7-5.0, median 3.6 (2 vCPU x86-64)
_CZT_COST = 4.0
_SLICE_PAIRS = 1 << 14  # closed-form pairs per slice
_DIVIDE_ROUNDS = 4  # witness grids tried by tauberian_divide


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


def _variations(f: PLFunction) -> Tuple[float, float]:
    """Upper bounds on the total variation of f and of f' (zero outside the support).

    The first is ``sum |v_(i+1) - v_i|``: a difference and its modulus (3),
    ``np.sum`` of ``m - 1`` terms.  The second is the kink jump mass of f'
    as a measure.  Rounding count for ``n`` slopes, each within ``3u`` of its
    modulus: the jumps lose ``6u sum |s_i| <= 3n u V`` (``V >= 2 max |s_i|``),
    so ``3n``; a jump's difference and modulus 3, the sum ``n``.
    """
    dv = np.diff(f.values)
    tv = cu_from_float_sum(float(np.sum(np.abs(dv))), f.values.size + 1).value
    slopes = dv / np.diff(f.breakpoints)
    jumps = np.abs(np.diff(slopes))
    total = abs(slopes[0]) + float(np.sum(jumps)) + abs(slopes[-1])
    return tv, cu_from_float_sum(total, 4 * slopes.size + 3).value


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


def _resample_uniform(f: PLFunction, h: float, sv: float) -> Tuple[np.ndarray, CertUpper]:
    """Node values of ``f`` at ``lo + h i`` (``lo`` its left end), and their certified L1 error.

    The nodes cover the support, and the outer two values are set to 0.  The
    piecewise-linear interpolant ``fh`` of the exact values is within ``h**2
    sv / 4`` of ``f`` in the one-norm, where ``sv`` is ``f``'s slope
    variation (`_variations`, which the caller has at hand); the computed
    values add `_interp_roundoff`.  The error ``e_f`` returned is the sum of
    the two, so ``||fh - f|| <= e_f`` and ``||fh|| <= ||f|| + e_f``.
    """
    lo, hi = f.span()
    # the extra node guarantees the grid covers the support even after
    # rounding inside ceil
    n = int(math.ceil((hi - lo) / h)) + 1
    bp = lo + h * np.arange(n + 1)
    vals = evaluate(f, bp)
    vals[0] = 0.0
    vals[-1] = 0.0
    return vals, cu_add(cu(_up(0.25 * h * h * sv)), _interp_roundoff(bp, f))


def _fast_conv(a: np.ndarray, b: np.ndarray, cyclic: bool = False) -> Tuple[np.ndarray, float]:
    """Discrete convolution ``a * b`` by FFT, and a bound on each output's rounding.

    The output is the full linear convolution, ``a.size + b.size - 1`` long,
    or with ``cyclic`` the length-``L`` cyclic one cut to the longer input's
    length (output ``j`` is the sum of the linear outputs ``j + L m``).  The
    FFT length ``L`` is the first power of two at or above the output length.
    Let ``A``, ``B`` be the exact length-``L`` transforms and ``A + E_a``, ``B
    + E_b`` the computed ones: ``||E_a||_2 <= e_a = fft_roundoff(L,
    ||a||_2)`` and ``||A||_2 = sqrt(L) ||a||_2`` (``b`` alike), so ``||A +
    E_a||_2 <= sqrt(L) r_a``, ``r_a = ||a||_2 + e_a / sqrt(L)``.  The computed
    product ``P`` is within ``sqrt(5) u < 2 ULP`` of ``(A_k + E_ak)(B_k +
    E_bk)`` at each ``k``, and the inverse FFT, a forward one scaled by ``1 /
    L`` (exact for a power of two), within ``fft_roundoff(L, ||P||_2) / L`` of
    ``ifft(P)`` at each output.  An output of ``ifft(X)`` is at most
    ``||X||_1 / L``, and ``P - AB = E_a B + (A + E_a) E_b`` plus the
    product's rounding, so by Cauchy-Schwarz each output is within ``(e_a
    r_b + e_b r_a) / sqrt(L) + 2 ULP r_a r_b + fft_roundoff(L, ||P||_2) /
    L`` of ``ifft(AB)``, the length-``L`` cyclic convolution (the linear one
    when ``L`` covers it).  The bound is a statement about that DFT alone, so
    it holds for both outputs and shrinks with ``L``.  Each term is a product
    of at most two float norms, each within ``(L + 4) u``, and under 30
    roundings of its own: ``2 L + 40`` in all.
    """
    size = max(a.size, b.size) if cyclic else a.size + b.size - 1
    L = 1 << (size - 1).bit_length()
    prod = np.fft.fft(a, L) * np.fft.fft(b, L)
    a2, b2 = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    ea, eb = fft_roundoff(L, a2), fft_roundoff(L, b2)
    ra, rb = a2 + ea / math.sqrt(L), b2 + eb / math.sqrt(L)
    total = (ea * rb + eb * ra) / math.sqrt(L) + 2.0 * ULP * ra * rb
    total += fft_roundoff(L, float(np.linalg.norm(prod))) / L
    return np.fft.ifft(prod)[:size], cu_from_float_sum(total, 2 * L + 40).value


def convolve(f: PLFunction, g: PLFunction, tol: float) -> PLFunction:
    """Convolution with certified L1 error at most ``tol`` plus slack terms.

    Let ``F``, ``G`` be the true inputs, within ``s_f``, ``s_g`` (the
    ``l1_slack``) of ``f``, ``g``, and ``fh``, ``gh`` the resampled inputs,
    within ``e_f``, ``e_g`` of ``f``, ``g`` (`_resample_uniform`).  The result's
    slack is the sum of three terms:

    - the interpolation of the exact (piecewise-cubic) ``fh * gh`` by its
      node values, ``h**2 / 4`` times the variation of its derivative, at
      most ``tv_f tv_g`` (times a margin of 1.01);
    - the FFT rounding of the node values, `_fast_conv`'s bound per node,
      times ``h`` for the stencil and ``h`` per segment;
    - the cross term ``cu_cross(s_f + e_f, mf + e_f, s_g + e_g, mg + e_g)``,
      ``mf``, ``mg`` the inputs' certified masses without slack: with ``D_f
      = F - fh``, ``F * G - fh * gh = D_f * gh + fh * D_g + D_f * D_g``,
      ``||D_f|| <= s_f + e_f`` and ``||fh|| <= ||f|| + e_f <= mf + e_f``, so
      ``s_f s_g`` is counted once.

    With ``x = h**2 / 4`` the interpolation term and the resampling's share
    of the cross term add up to ``x denom + 3 x**2 sv_f sv_g``: ``denom``
    holds ``1.01 tv_f tv_g`` and the first order ``sv_f ng + sv_g nf``, and
    ``e_f e_g`` comes out of three of the cross term's products (the
    resampling terms that carry input slack, ``e_f s_g + e_g s_f``, are left
    out).  The spacing solves ``x denom + 3 x**2 sv_f sv_g = tol / 2``:
    ``h**2 = tol / root``, ``root = denom / 4 + sqrt(denom**2 / 16 + 3 sv_f
    sv_g tol / 8)``, a form free of cancellation.  ``h`` is capped at the
    shorter input's span, and where ``root`` underflows (inputs with values
    below about 1e-162) the cap is taken without dividing.
    """
    if not tol > 0.0:
        raise InvalidInput("tol must be positive")
    mf, mg = _mass_upper(f, _MASS_TERMS), _mass_upper(g, _MASS_TERMS)
    nf, ng = cu_add(mf, f.l1_slack), cu_add(mg, g.l1_slack)  # `norm_l1`, bit for bit
    if not np.any(f.values) or not np.any(g.values):
        slack = cu_cross(f.l1_slack, mf, g.l1_slack, mg)
        return PLFunction(np.array([0.0, 1.0]), np.zeros(2, dtype=complex), slack)

    (tv_f, sv_f), (tv_g, sv_g) = _variations(f), _variations(g)
    denom = _up(1.01 * (tv_f * tv_g + sv_f * ng.value + sv_g * nf.value))
    root = denom / 4.0 + math.hypot(denom / 4.0, math.sqrt(3.0 * sv_f * sv_g * tol / 8.0))
    span_f, span_g = f.span()[1] - f.span()[0], g.span()[1] - g.span()[0]
    cap = min(span_f, span_g)
    h = cap if root * cap * cap <= tol else math.sqrt(tol / root)
    if span_f + span_g > _NODE_CAP * h:  # h underflows to 0 at a subnormal tol
        raise ToleranceUnreachable("tolerance unreachable")

    fh, e_f = _resample_uniform(f, h, sv_f)
    gh, e_g = _resample_uniform(g, h, sv_g)
    w, node_err = _fast_conv(fh, gh)
    stencil = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    nodes = h * np.convolve(w, stencil)
    nodes[0] = 0.0
    nodes[-1] = 0.0
    # the stencil convolution prepends one node at base - h (exactly zero
    # there since boundary values vanish)
    base = f.span()[0] + g.span()[0]
    bp = (base - h) + h * np.arange(nodes.size)

    interp = _up(0.25 * h * h * _up(1.01 * tv_f * tv_g))
    fft_l1 = _up(nodes.size * h * h * node_err)
    sf, sg = cu_add(f.l1_slack, e_f), cu_add(g.l1_slack, e_g)
    cross = cu_cross(sf, cu_add(mf, e_f), sg, cu_add(mg, e_g))
    return PLFunction(bp, nodes, cu_add(cross, cu(_up(interp + fft_l1))))


# ---------------------------------------------------------------------------
# Fourier transform evaluation


def _grid_sums(a: np.ndarray, x0: float, h: float, ps: np.ndarray) -> Tuple[np.ndarray, float]:
    """``sum_i a_i exp(-1j (x0 + h i) p_j)`` by one chirp-Z sum (Bluestein), and its error bound.

    The sum runs at ``q_j = ps[0] + dp j``, ``dp`` the mean spacing of
    ``ps``; the phases ``exp(-1j ps[0] h i)`` before it and ``exp(-1j x0
    p_j)`` after it take the given ``ps``.  Their rounding, and the distance
    of ``ps`` from the ``q_j``, are the caller's to bound.

    With ``b_i`` the pre-phased ``a_i``, ``theta = dp h``, one chirp ``w_j =
    exp(0.5j theta j**2)``, ``j < max(n, k)``, and ``i j = (i**2 + j**2 - (j
    - i)**2) / 2``, the sum ``B_j = sum_i b_i exp(-1j theta i j)`` is
    ``conj(w_j) sum_i b_i conj(w_i) w_(j - i)`` (``w_(-j) = w_j``): the
    convolution of the chirped ``b`` with ``w_(1 - n) ... w_(k - 1)``, read
    at outputs ``n - 1 ... n + k - 2``.  The linear convolution has ``2 n +
    k - 2`` outputs, so in a cyclic one of length ``L >= n + k - 1`` the
    outputs read take no wrapped term (``j + L`` is past the last, ``j - L``
    below 0), and `_fast_conv` runs it cyclic, about half the linear FFT
    length.  The error is `_fast_conv`'s bound plus the chirp phases
    (arguments off by an ulp of ``theta (n + k)**2``, and the exponentials
    and products).
    """
    n, k = a.size, ps.size
    theta = (float(ps[-1]) - float(ps[0])) / max(k - 1, 1) * h
    b = a * np.exp(-1j * ps[0] * h * np.arange(n))
    w = np.exp(0.5j * theta * np.arange(max(n, k), dtype=float) ** 2)
    core, err = _fast_conv(b * w[:n].conj(), np.concatenate((w[n - 1 : 0 : -1], w[:k])), True)
    err += ULP * (abs(theta) * (n + k) ** 2 + 8.0) * float(np.sum(np.abs(b)))
    return np.exp(-1j * x0 * ps) * (w[:k].conj() * core[n - 1 : n + k - 1]), _up(err)


def _closed_form(f: PLFunction, ps: np.ndarray) -> np.ndarray:
    """The closed-form segment sums, in slices of ``_SLICE_PAIRS`` pairs.

    Each frequency's row is summed on its own, so the slices give the same
    bits as one block, with temporaries that stay in cache.
    """
    Lseg, v0, dv = np.diff(f.breakpoints), f.values[:-1], np.diff(f.values)
    rows = max(1, _SLICE_PAIRS // Lseg.size)
    out = np.empty(ps.size, dtype=complex)
    for lo in range(0, ps.size, rows):
        q = ps[lo : lo + rows]
        phi0, phi1 = _segment_moments(np.multiply.outer(q, Lseg))
        phase = np.exp(-1j * np.multiply.outer(q, f.breakpoints[:-1]))
        out[lo : lo + rows] = (phase * Lseg * (v0 * phi0 + dv * phi1)).sum(axis=1)
    return out


def _hat_lattices(f: PLFunction, P: int) -> Tuple[list, float]:
    """The hats of ``f`` split onto one lattice per width, and their L1 distance from ``f``.

    Segment lengths are taken in units of the shortest, rounded to integers
    ``m``; node ``i``'s hats have the width ``g`` of its shorter segment, and
    ``kl``, ``kr`` of them fit its left and right segments (one of the two
    is 1).  Each width's lattice ``x0 + w t`` runs from the left end of its
    first hat to its last hat, zero-filled, ``n_w`` nodes.  ``drift`` is the
    largest distance of a node's three points from the float points ``x0 +
    w * s`` of its own lattice, so it catches a ratio that is not an integer
    or a hat off its lattice as well as rounding; ``dist`` is ``2 drift
    sum|v|`` with the float grid's own rounding, plus the split weights'
    (`fourier_eval_many`).  Returns ``([], 0.0)`` when ``drift`` is above a
    relative 1e-9, or when the lattices cost the chirp-Z sums more than the
    closed form: ``P S <= _CZT_COST sum_w (n_w + P)``.  Segments of more
    than ``2**32`` units are clipped, so that no count overflows; the drift
    then rejects them.
    """
    bp = f.breakpoints
    q = np.diff(bp) / np.min(np.diff(bp))
    m = np.rint(np.minimum(q, 2.0 ** 32)).astype(np.int64)  # segment lengths in units of u
    N = np.concatenate(([0], np.cumsum(m)))
    u = (float(bp[-1]) - float(bp[0])) / N[-1]
    g = np.minimum(m[:-1], m[1:])  # the width of each interior node's hats
    kl, kr = m[:-1] // g, m[1:] // g
    widths, first, grp = np.unique(g, return_index=True, return_inverse=True)
    last = g.size - 1 - np.unique(g[::-1], return_index=True)[1]
    start, stop = N[:-2][first], N[2:][last] - widths  # per width: first hat's left end, last hat
    x0, w, size = bp[0] + u * start, u * widths, (stop - start) // widths + 1
    s = (N[1:-1] - start[grp]) // g  # the lattice index of each node
    xg, wg = x0[grp], w[grp]  # each node's lattice; its three points against it
    drift = max(float(np.max(np.abs(bp[j : j + g.size] - (xg + wg * t))))
                for j, t in enumerate((s - kl, s, s + kr)))
    if not drift <= 1e-9 * u or P * (bp.size - 1) <= _CZT_COST * np.sum(size + P):
        return [], 0.0
    r = kl + kr - 1  # the larger of the two: hats toward the longer segment
    node = np.repeat(np.arange(g.size), r)
    k = np.arange(node.size) - np.repeat(np.cumsum(r) - kr, r)
    coef = f.values[1:-1][node] * ((r[node] - np.abs(k)) / r[node])
    base = np.cumsum(size) - size
    lat = np.zeros(size.sum(), dtype=complex)
    np.add.at(lat, base[grp[node]] + s[node] + k, coef)
    # with the float grid's own rounding
    dist = 2.0 * (drift + 2.0 * ULP * max(map(abs, f.span()))) * float(np.sum(np.abs(f.values)))
    split = 2.0 * ULP * float(np.sum(np.abs(coef[k != 0]) * wg[node[k != 0]]))
    return list(zip(np.split(lat, base[1:]), x0, w)), dist + split


def fourier_eval_many(f: PLFunction, ps) -> Tuple[np.ndarray, CertUpper]:
    """Transform values at many frequencies, plus a shared error bound.

    Two paths.  The closed-form segment sums cost about one unit per
    (frequency, segment) pair, ``P S`` in all, and take any input (in slices
    of ``_SLICE_PAIRS`` pairs, so memory does not grow with ``P S``).  The
    chirp-Z path costs about ``_CZT_COST`` units per node of ``n_w + P`` for
    each width ``w`` of `_hat_lattices`, and is taken when the frequencies
    are uniform (to a relative 1e-9), the breakpoints nest and ``P S >
    _CZT_COST sum_w (n_w + P)``.

    The function is ``sum_i v_i phi_i``, ``phi_i`` the hat of height 1 on
    node ``i``'s two segments.  A node whose segments are ``w`` and ``r w``,
    ``r`` an integer, has ``phi_i = sum_k (1 - k / r) hat_w(x - x_i - k w)``
    over ``0 <= k < r``, ``k w`` taken toward the longer segment: both sides
    are linear between the points ``x_i + k w``, where they agree.  This is
    the exact refinement relation; on a uniform grid every node is one hat
    of weight 1.  The hats of one width lie on one lattice ``x0 + w t`` and
    ``hat_w`` transforms to ``w sinc(p w / 2)**2``, so the transform is
    ``sum_w w sinc(p w / 2)**2 E_w(p)``, ``E_w(p) = sum_t a_t exp(-1j p (x0
    + w t))``, one zero-filled chirp-Z sum per width (`_grid_sums`).

    The bound is the slack plus the rounding of the formula evaluated: per
    segment ``L (|v| + |dv|)`` (``weight`` in all) times 16 ulps for the
    moments (or ``sinc**2``), 8 for products, phases and lengths, ``4 |p|
    max|x|`` for the phase arguments and ``S`` for the sum, doubled for the
    bound's own rounding.  The split hats of node ``i`` weigh ``w sum_k (1 -
    k / r) = (a_i + b_i) / 2`` for its segments ``a_i``, ``b_i``, and ``sum_i
    |v_i| (a_i + b_i) / 2 <= weight``: the chirp-Z path's roundings are
    those of one width, with at most ``S`` widths in the sum.  It adds:

    - per width, ``w`` times `_grid_sums`'s error;
    - per width, the frequency drift: a frequency within ``drift_p`` of the
      ``q_j`` of `_grid_sums` moves the phase of lattice node ``t`` by ``w t
      drift_p <= w n_w drift_p``, so at most ``weight w n_w drift_p``.  The
      drift is measured from the float grid ``ps[0] + dp * arange`` and
      takes that grid's own rounding, ``2 ULP max|p|``;
    - the lattice drift: a node within ``drift_x`` of its exact lattice
      point moves each edge of its hat by at most that, ``2 drift_x
      sum|v|`` in L1.  `_hat_lattices` measures it from the float lattice
      ``x0 + w * s``, to which that grid's own rounding adds ``u |w s| + u
      |x| <= 3 u max|x|``: with the measurement's rounding, below ``2 ULP
      max|x|``;
    - the split weights: ``(r - k) / r`` rounds once and its product with
      ``v`` once per part, so a coefficient is off by at most ``ULP (1 +
      u)`` of its modulus, ``ULP |a_t| w`` in L1 to first order, doubled for
      the sum.  Weights of 1 are exact.
    """
    ps = np.asarray(ps, dtype=float)
    S = f.breakpoints.size - 1
    pmax = float(np.max(np.abs(ps), initial=0.0))
    out, phase_drift, lattices, extra = 0.0, 0.0, [], 0.0
    if ps.size * S > _CZT_COST * (S + ps.size):  # and so ps.size >= 5
        dp = (float(ps[-1]) - float(ps[0])) / (ps.size - 1)
        drift_p = float(np.max(np.abs(ps - (float(ps[0]) + dp * np.arange(ps.size)))))
        lattices, extra = _hat_lattices(f, ps.size) if drift_p <= 1e-9 * abs(dp) else ([], 0.0)
    for a, x0, w in lattices:
        ev, ev_err = _grid_sums(a, x0, w, ps)
        out = out + w * np.sinc(ps * w / (2.0 * math.pi)) ** 2 * ev
        extra += w * ev_err
        phase_drift += (drift_p + 2.0 * ULP * pmax) * a.size * w
    if not lattices:
        out = _closed_form(f, ps)
    bp, vals = f.breakpoints, f.values
    weight = float(np.sum(np.diff(bp) * (np.abs(vals[:-1]) + np.abs(np.diff(vals)))))
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


def _fejer_rounding(lam: float, bp: np.ndarray, v: np.ndarray) -> CertUpper:
    """Certified L1 norm of the rounding in the node values ``v`` of `_fejer_values`.

    In units of ``u = 2**-53``, ``K = c sinc(z)**2`` with ``c = lam / (2 pi)``
    and ``z = lam x / 2``.  The product ``y = lam x`` moves ``z`` by ``u |z|``,
    and so ``sinc z`` by at most ``u |z sinc'| = u |cos z - sinc z| <= 2u``:
    near the zeros of ``sin`` that is not relative to ``sinc z``.  The rest is
    relative, ``sin`` 8 (4 ulps; libm's is under one) and the division 1, so
    the computed ``q`` is within ``a = 2u + 9u |q|`` of ``sinc z``, and ``c
    q**2`` within ``c a (2 |q| + a)`` of ``K``.  The square, ``2 pi``, the
    division by it and the product by ``lam`` add 4 relative.  So a value
    ``v`` is within ``u (22 v + 4 sqrt(c v) + 4 u c)`` of ``K``, to first
    order in each term; the counts 24 and 5 (on ``sqrt(c v) + u c``) cover the
    rest.  The branch ``|y| < 1e-4`` drops ``y**4 / 360 < 0.003 u`` of ``1 -
    y**2 / 12`` and rounds 4 times (its ``y**2`` term is below ``1e-9``).
    The error is linear between nodes, so its L1 norm is at most the sum of
    the node errors times the trapezoid weights ``(h_(i-1) + h_i) / 2``.  A
    term of that sum rounds at most 12 times (the weight 2, the ``sqrt``
    branch 8, the product 1, with the sum 1 less), and ``np.sum`` adds ``m -
    1`` for ``m`` nodes.
    """
    c, u = lam / (2.0 * math.pi), 2.0 ** -53
    w = 0.5 * np.concatenate(([0.0], np.diff(bp))) + 0.5 * np.concatenate((np.diff(bp), [0.0]))
    total = u * float(np.sum(w * (24.0 * v + 5.0 * (np.sqrt(c * v) + u * c))))
    return cu_from_float_sum(total, v.size + 11)


def _fejer_curvature(lam: float, x_lo: np.ndarray) -> np.ndarray:
    """Upper bound on |second derivative| of the scaled kernel past |x| >= x_lo.

    ``K = (1 / 2 pi) int (1 - |p| / lam) exp(i p x) dp`` over ``|p| <= lam``,
    so ``|K''| <= lam**3 / (12 pi) < 0.05 lam**3`` everywhere; past ``y = lam
    x >= 1`` the bound ``lam**3 (1/y**2 + 4/y**3 + 12/y**4) / pi`` is smaller
    from ``y = 4.1`` on.  Both are nonincreasing in ``|x|``.
    """
    ys = np.maximum(np.abs(lam * x_lo), 1.0)
    far = (1.0 / ys ** 2 + 4.0 / ys ** 3 + 12.0 / ys ** 4) / math.pi
    return lam ** 3 * np.minimum(0.05, far)


def fejer_kernel(lam: float, support_tol: float) -> PLFunction:
    """Truncated, discretized Fejer kernel with certified L1 slack.

    The slack is the sum of four terms.  The discarded tail mass is bounded
    through the envelope ``2 / (pi * lam * x**2)``; the support is cut at
    ``X``, where that term equals ``support_tol`` (for ``support_tol <= 1 /
    pi``).  The interpolation error, ``disc``, is the float sum over the
    grid's segments of ``0.25 h**3`` times a bound on ``|K''|`` past the
    segment's inner end (`_fejer_curvature`, ``lam**3 c(lam x)`` with ``c =
    0.05`` below 1 and ``(1/y**2 + 4/y**3 + 12/y**4) / pi`` above).  The end
    values are set to zero, which costs the edge term, and the node values'
    rounding is `_fejer_rounding`.

    The grid is mirrored from ``[0, X]``, so it is exactly symmetric and the
    edge term ``|v_0| h_0`` covers both ends.  It has one rule.  The bands
    are ``[0, 2**e]``, ``2**e <= 4 / lam < 2**(e + 1)``, and then ``[2**j,
    2**(j + 1)]``, the last cut at ``X``; band ``j`` of length ``L_j`` has
    one step ``h_j``, a power of two.  With ``c_j`` the curvature bound at
    the band's inner end (it is nonincreasing in ``|x|``), the band's
    segments contribute at most ``h_j**2 L_j c_j / 4`` to one side's
    ``disc``.  Splitting the budget as ``b_j`` proportional to ``L_j
    c_j**(1/3)``, with ``sum b_j = support_tol``, minimises the node count
    ``sum L_j / h_j`` for ``h_j**2 L_j c_j / 4 = b_j``, which gives ``h_j <=
    2 sqrt(support_tol / sum_k L_k c_k**(1/3)) / c_j**(1/3)``; ``h_j`` is the
    largest power of two below that.  Both sides together then give ``disc``
    of about ``2 support_tol`` at most (the last band is rounded up by under
    one step), and in practice 0.45-0.65 of ``support_tol``, since a power of
    two loses up to half the step.  Every node ``2**j + k h_j`` is a
    multiple of its band's step (``h_j <= 2**j`` for ``support_tol`` below
    about 1), so it is an exact double, and ``X`` is rounded up to a
    multiple of the last step, which only lowers the tail.  The steps of
    neighbouring bands are powers of two, so the grid nests and the
    transform takes chirp-Z per step (`fourier_eval_many`).  The slack takes
    the float sum over the actual grid, so no bound rests on the budget
    split.

    The slack is about ``1.5 support_tol`` at small tolerances, independent
    of ``lam``: ``support_tol = 1e-3`` gives ``l1_slack`` 0.0016.
    """
    if not (lam > 0.0 and support_tol > 0.0):
        raise InvalidInput("lam and support_tol must be positive")
    X = max(4.0 / (math.pi * lam * support_tol), 4.0 / lam)
    # bands [0, 2**e] with 2**e <= 4 / lam, then [2**j, 2**(j + 1)], cut at X
    edges = np.ldexp(1.0, np.arange(math.frexp(4.0 / lam)[1] - 2, math.frexp(X)[1] + 1))
    edges = np.minimum(edges, X)
    edges[0] = 0.0
    L, c3 = np.diff(edges), np.cbrt(_fejer_curvature(lam, edges[:-1]))
    t = 2.0 * math.sqrt(support_tol / float(np.sum(L * c3))) / c3
    h = np.ldexp(1.0, np.frexp(t)[1] - 1)
    k = np.ceil(L / h).astype(int)
    X = edges[-2] + k[-1] * h[-1]
    tail = _up(4.0 / (math.pi * lam * X))
    pos = np.concatenate([a + s * np.arange(j) for a, s, j in zip(edges, h, k)] + [[X]])
    bp = np.concatenate([-pos[::-1][:-1], pos])
    vals, x_in = _fejer_values(lam, bp), np.minimum(np.abs(bp[:-1]), np.abs(bp[1:]))
    disc_terms = 0.25 * np.diff(bp) ** 3 * _fejer_curvature(lam, x_in)
    rounding = _fejer_rounding(lam, bp, vals)
    edge = _up(float(vals[0]) * float(bp[1] - bp[0]))
    vals = vals.astype(complex)
    vals[0] = 0.0
    vals[-1] = 0.0
    # rounding count per term: h ** 3 5, the curvature 13, two products
    disc_cu = cu_from_float_sum(float(np.sum(disc_terms)), disc_terms.size + 19)
    slack = cu_add(cu_add(cu(tail), disc_cu), cu_add(cu(edge), rounding))
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
) -> Tuple[PLFunction, CertUpper]:
    """Divide ``g`` by ``f`` given a transform bounded below on the band.

    Builds a witness in frequency domain (band-limited by the De la
    Vallee Poussin hat, synthesized by the inversion formula on a
    trapezoid grid, windowed to compact support) and certifies the
    residual ``||f * k - g||`` directly, refining grids on failure
    (``_DIVIDE_ROUNDS`` times at most).
    Expected to fail, with an honest report, when ``g`` carries spectral
    mass outside the band.
    """
    if not (band > 0.0 and eps > 0.0 and tol > 0.0):
        raise InvalidInput("band, eps and tol must be positive")
    certify_transform_lower(f, band, eps)

    sf0, sf1 = f.span()
    sg0, sg1 = g.span()
    half_f = max(abs(sf0), sf1)
    half_g = max(abs(sg0), sg1)
    Xk = max(half_g - half_f, half_g / 4.0, 4.0 / band)
    hx = min(math.pi / (8.0 * band), Xk / 64.0)

    best = math.inf
    best_k = None
    for _ in range(_DIVIDE_ROUNDS):
        dp = math.pi / (4.0 * Xk)
        nneg = int(math.ceil(2.0 * band / dp))
        ps = np.linspace(-2.0 * band, 2.0 * band, 2 * nneg + 1)
        dp = ps[1] - ps[0]
        fh, _ = fourier_eval_many(f, ps)
        gh, _ = fourier_eval_many(g, ps)
        # one trapezoid weight for all: the end samples are dlvp_hat's zeros at +-2 band
        khat = gh * dlvp_hat(band, ps) / fh

        nx = int(math.ceil(Xk / hx))
        xs = hx * np.arange(-nx, nx + 1)
        # both grids are uniform: sum_i w_i khat_i exp(i x_j p_i) by chirp-Z
        kv = _grid_sums(dp / (2.0 * math.pi) * khat, ps[0], dp, -xs)[0]
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
# JSON


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
