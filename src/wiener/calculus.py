"""Algebra-valued calculus with certified error bounds.

Composite midpoint integration whose panel count is driven by a caller
supplied modulus of continuity, the exponential by its power series,
path/loop integrals, and the resolvent loop integral whose value is the
numerical embodiment of "a globally bounded resolvent forces a trivial
algebra": the integral of the resolvent over a circle enclosing the
norm ball equals ``2*pi*i`` times the unit.

A map from the plane into the algebra (:class:`CurveMap`) is a finite
expansion in powers of ``z / radius`` plus a certified remainder, so a loop
integral is summed term by term: one midpoint sum of scalar powers per
term, each term multiplied in once.  The resolvent demo's trace reads the
same terms at the same nodes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import l1z
from .certs import CU_ZERO, ULP, CertUpper, cu, cu_add, cu_from_float_sum, cu_mul, cu_sum, _fsum, _up
from .errors import BoundOverflow, HypothesisFailure, InvalidInput, ToleranceUnreachable
from .l1z import L1ZSeq, delta, norm_upper

_PANEL_CAP = 2 ** 22
_SPEED_SAMPLES = 257  # grid points for a path's certified speed

Modulus = Callable[[float], CertUpper]


@dataclass(frozen=True)
class PathLoop:
    """Parametrized differentiable path in the plane on [0, 1].

    ``point`` and ``derivative`` map an ndarray of parameters to an ndarray of
    values, and a float to a value: a loop integral calls each once on its
    node array, so a closure built on ``math.cos`` cannot serve.
    ``deriv_lipschitz`` bounds ``|gamma'(s) - gamma'(t)| / |s - t|`` and is what
    certifies Riemann sums along the path.
    """

    point: Callable
    derivative: Callable
    deriv_lipschitz: CertUpper

    def __post_init__(self):
        if abs(self.point(0.0) - self.point(1.0)) > 1e-12:
            raise InvalidInput("loop endpoints do not match")

    def speed_upper(self) -> CertUpper:
        """Certified sup of ``|gamma'|``: grid max plus Lipschitz slack.

        Each modulus is Python's ``abs`` (``hypot``, within the ``_up``); numpy's
        complex modulus rounds otherwise in the last bit, which would move the
        certified numbers.
        """
        h = 1.0 / (_SPEED_SAMPLES - 1)
        m = max(map(abs, self.derivative(np.arange(_SPEED_SAMPLES) * h).tolist()))
        return cu_add(cu(_up(m)), cu_mul(self.deriv_lipschitz, cu(h / 2.0)))


def circle_loop(radius: float) -> PathLoop:
    """The circle of given radius about 0, traversed once counterclockwise."""
    if not radius > 0.0:
        raise InvalidInput("radius must be positive")
    w = 2.0 * math.pi

    def point(t):
        return radius * (np.cos(w * t) + 1j * np.sin(w * t))

    def derivative(t):
        return radius * w * (-np.sin(w * t) + 1j * np.cos(w * t))

    return PathLoop(point, derivative, cu(_up(radius * w * w)))


@dataclass(frozen=True)
class BanachCurve:
    """Uniformly continuous algebra-valued curve with an explicit modulus.

    ``modulus(d)`` bounds ``||value(s) - value(t)||`` whenever
    ``|s - t| <= d``; constructively, uniform continuity is this data.
    """

    value: Callable[[float], L1ZSeq]
    modulus: Modulus


def constant_curve(a: L1ZSeq) -> BanachCurve:
    return BanachCurve(lambda t: a, lambda d: CU_ZERO)


def lipschitz_curve(value: Callable[[float], L1ZSeq], lip: float) -> BanachCurve:
    lip_cu = cu(lip)
    return BanachCurve(value, lambda d: cu_mul(lip_cu, cu(_up(abs(d)))))


def integrate(
    curve: BanachCurve,
    a: float,
    b: float,
    tol: float | None = None,
    panels: int | None = None,
) -> Tuple[L1ZSeq, CertUpper]:
    """Composite midpoint integral with a certified error bound.

    The bound is ``(b - a) * modulus(h / 2)`` plus arithmetic slack,
    exactly the subinterval-cutting estimate behind the mean-value
    inequality.  Pass ``tol`` to have the panel count chosen by
    doubling, or ``panels`` to fix it.
    """
    if b < a:
        raise InvalidInput("integration bounds must satisfy a <= b")
    if panels is not None:
        _check_panels(panels)
    if b == a:
        return l1z.zero(), CU_ZERO
    width = b - a
    if panels is None:
        if tol is None:
            raise InvalidInput("need either tol or panels")
        panels = 1
        while _quad_err(curve.modulus, width, panels).value > tol:
            panels *= 2
            if panels > _PANEL_CAP:
                raise ToleranceUnreachable("tolerance unreachable")
    h = width / panels
    mass = 0.0

    def values():
        nonlocal mass
        for i in range(panels):
            v = curve.value(a + (i + 0.5) * h)
            mass += _fsum(map(abs, v.coeffs.values()))
            yield v

    value = l1z.weighted_sum(values(), h)
    # roundoff against h sum f(t_i): h (1), h c (1) and up to panels - 1 sums per
    # index (normwise by Minkowski), in units of u of h sum_i ||f(t_i)||; ULP = 2u
    # covers the second order.  That mass: |c| (2), an fsum (1), panels - 1 sums
    bound = cu_mul(cu_from_float_sum(mass, panels + 2), cu(_up(h * (panels + 1) * ULP)))
    err = cu_add(_quad_err(curve.modulus, width, panels), bound)
    if tol is not None and err.value > tol and panels >= _PANEL_CAP:
        raise ToleranceUnreachable("tolerance unreachable")
    return value, err


def _check_panels(panels: int):
    if panels < 1:
        raise InvalidInput("panels must be at least 1")
    if panels > _PANEL_CAP:
        raise InvalidInput("panels must be at most %d" % _PANEL_CAP)


def _quad_err(modulus: Modulus, width: float, panels: int) -> CertUpper:
    h = width / panels
    return cu_mul(cu(_up(width)), modulus(h / 2.0))


def banach_exp(a: L1ZSeq, tol: float) -> L1ZSeq:
    """Power-series exponential with the remainder certified into the tail."""
    if not tol > 0.0:
        raise InvalidInput("tol must be positive")
    return l1z.power_series(delta(0), a, lambda k: 1.0 / k, tol, 5000)[0]


def exp_flow_check(a: L1ZSeq, x: float, y: float, tol: float) -> CertUpper:
    """Certified ``||exp(a(x+y)) - exp(ax) * exp(ay)||``.

    Small by the flow property; the returned bound reflects only the
    construction tolerances.
    """
    exy = banach_exp(l1z.scale(x + y, a), tol)
    ex = banach_exp(l1z.scale(x, a), tol)
    ey = banach_exp(l1z.scale(y, a), tol)
    return norm_upper(l1z.sub(exy, l1z.convolve(ex, ey)))


@dataclass(frozen=True)
class CurveMap:
    """A map from the plane into the algebra as a finite expansion.

    ``fn(z)`` is ``sum_m terms[m] (z / radius)**m`` plus an element of norm at
    most ``rem``.  On the region of interest ``lip`` bounds ``||fn(z) -
    fn(w)|| / |z - w|`` and ``sup_norm`` bounds ``||fn||``.
    """

    terms: Dict[int, L1ZSeq]
    rem: CertUpper
    lip: CertUpper
    sup_norm: CertUpper
    radius: float

    def modulus(self, d: float) -> CertUpper:
        """Bound on ``||fn(z) - fn(w)||`` for ``|z - w| <= d``."""
        return cu_mul(self.lip, cu(_up(abs(d))))

    def fn(self, z: complex) -> L1ZSeq:
        zeta = complex(z) / self.radius
        parts = (l1z.scale(zeta ** m, t) for m, t in self.terms.items())
        return l1z.weighted_sum(parts, extra=self.rem)


def polynomial_map(coeffs, radius: float) -> CurveMap:
    """Scalar polynomial ``p(z) * unit`` with bounds valid for |z| <= radius.

    ``coeffs[k]`` multiplies ``z**k``; term ``k`` is ``coeffs[k] radius**k``.
    The power is carried as a mantissa in [0.5, 1) and a binary exponent, so
    it cannot underflow before the product.  A nonzero term below the normal
    range is rejected: its rounding would no longer be relative.  The terms'
    rounding is the remainder.
    """
    if not 0.0 < radius < math.inf:
        raise InvalidInput("radius must be positive and finite")
    mant, e = math.frexp(radius)
    p, pe = 1.0, 0  # radius**k = p 2**pe
    terms = {}
    for k, c in enumerate(map(complex, coeffs)):
        if c:
            try:
                t = complex(math.ldexp(c.real, pe) * p, math.ldexp(c.imag, pe) * p)
            except OverflowError:
                raise BoundOverflow("bound overflow") from None
            if not abs(t) >= sys.float_info.min:
                raise InvalidInput("polynomial term below the normal range at this radius")
            terms[k] = delta(0, t)
        p, dp = math.frexp(p * mant)
        pe += dp + e
    # per term: p (k - 1 products), times p (1) and a part's subnormal rounding at
    # either step (2, below u |t| as |t| is normal), so term k is within (k + 2) u
    # of its value and rem at most 2 len(coeffs) u sup; then |t| (2), the fsum (1)
    mags = [(k, abs(t.coeffs[0])) for k, t in terms.items()]
    sup = cu_from_float_sum(_fsum(m for _, m in mags), len(coeffs) + 4)
    # and k |t| (1), the division by radius (1)
    lip = cu_from_float_sum(_fsum(k * m for k, m in mags) / radius, len(coeffs) + 6)
    return CurveMap(terms, cu_mul(sup, cu(len(coeffs) * ULP)), lip, sup, radius)


def _midpoints(steps: int) -> Tuple[float, np.ndarray]:
    """Panel width and midpoints of ``steps`` panels of [0, 1], ``steps`` checked first."""
    _check_panels(steps)
    h = 1.0 / steps
    return h, (np.arange(steps) + 0.5) * h


def _node_powers(f: CurveMap, gamma: PathLoop, ts: np.ndarray, h: float):
    """Yield ``(0, w)``, then ``(m, w * zeta**m)`` for each other term index of ``f``.

    ``zeta_i = gamma(t_i) / radius`` and ``w_i = h gamma'(t_i)``.  Each power
    is the one before it times ``zeta`` or ``1 / zeta``, out from ``m = 0``;
    only the current one is kept.
    """
    zeta = gamma.point(ts) / f.radius
    w = gamma.derivative(ts) * h
    yield 0, w
    inv = np.conj(zeta) / (zeta.real * zeta.real + zeta.imag * zeta.imag)
    up = range(1, max(f.terms, default=0) + 1)
    down = range(-1, min(f.terms, default=0) - 1, -1)
    for factor, ms in ((zeta, up), (inv, down)):
        p = w
        for m in ms:
            p = p * factor
            if m in f.terms:
                yield m, p


def loop_integral(f: CurveMap, gamma: PathLoop, steps: int) -> Tuple[L1ZSeq, CertUpper]:
    """Certified midpoint integral of ``f`` along the path, summed term by term.

    With ``zeta_i`` and ``w_i`` as in ``_node_powers`` at the midpoints of
    ``steps`` panels, the midpoint sum of ``f(z) dz`` is ``sum_m terms[m]
    S_m``, ``S_m = sum_i w_i zeta_i**m``, plus at most ``rem sum_i |w_i|``
    from the remainder.  Each ``S_m`` is one ``fsum`` per part; the tail holds
    the remainder, the terms' tails and the rounding.  The integrand ``t ->
    f(gamma(t)) gamma'(t)`` inherits a modulus from the path's speed and
    derivative-Lipschitz data, so ``err`` is the midpoint bound of ``integrate``.
    """
    h, ts = _midpoints(steps)
    speed = gamma.speed_upper()

    def modulus(d: float) -> CertUpper:
        wobble = cu_mul(f.sup_norm, cu_mul(gamma.deriv_lipschitz, cu(_up(abs(d)))))
        drift = cu_mul(speed, f.modulus(_up(speed.value * abs(d))))
        return cu_add(wobble, drift)

    # In units of u: w_i rounds twice (h, the product) and zeta_i once; each step
    # out from m = 0 is a complex product (3) by zeta (1) or 1 / zeta (4), so
    # w zeta**m is within 2 + 7|m| of its value from the path's doubles.  Then
    # S_m's fsums (1), S_m times a coefficient (3) and up to len(terms) - 1 sums
    # per index (normwise by Minkowski), of sum_i |w_i zeta_i**m| ||terms[m]||;
    # ULP = 2u covers the second order.  |p| (2) and its fsum (1) bound that sum.
    acc: Dict[int, complex] = {}
    bounds = []
    for m, p in _node_powers(f, gamma, ts, h):
        weight = cu_from_float_sum(_fsum(np.abs(p).tolist()), 7 * abs(m) + 5)
        if m == 0:
            bounds.append(cu_mul(f.rem, weight))
        t = f.terms.get(m)
        if t is None:
            continue
        s = complex(_fsum(p.real.tolist()), _fsum(p.imag.tolist()))
        for n, c in t.coeffs.items():
            acc[n] = acc.get(n, 0j) + s * c
        rounding = cu_mul(norm_upper(t), cu((7 * abs(m) + len(f.terms) + 5) * ULP))
        bounds.append(cu_mul(weight, cu_add(t.tail, rounding)))
    return L1ZSeq(acc, cu_sum(bounds)), _quad_err(modulus, 1.0, steps)


def loop_samples(f: CurveMap, gamma: PathLoop, steps: int) -> Tuple[List[float], List[complex]]:
    """Midpoints ``t_i`` and the unit coefficient of ``f(gamma(t_i)) gamma'(t_i)``.

    Read off the same terms and node powers that ``loop_integral`` sums; a
    plotting aid, not certified.
    """
    h, ts = _midpoints(steps)
    unit = np.zeros(steps, dtype=complex)
    for m, p in _node_powers(f, gamma, ts, h):
        if m in f.terms:
            unit += f.terms[m].coeffs.get(0, 0j) * p
    return ts.tolist(), (unit / h).tolist()


def resolvent_eval(u: L1ZSeq, z: complex, tol: float) -> L1ZSeq:
    """Partial geometric resolvent series with the remainder in the tail."""
    if not tol > 0.0:
        raise InvalidInput("tol must be positive")
    z = complex(z)
    nu = norm_upper(u).value
    az = abs(z)
    if az <= nu * (1.0 + 1e-6) or az == 0.0:
        raise HypothesisFailure(
            "outside convergence region",
            report={"abs_z": az, "norm_bound": nu},
        )
    w = 1.0 / z
    return l1z.power_series(delta(0, w), u, lambda k: w, tol, 100_000)[0]


def resolvent_map(u: L1ZSeq, radius: float, tol: float) -> CurveMap:
    """Resolvent ``(z - u)^-1 = sum_k u^k z^-(k+1)`` on the circle of that radius.

    Term ``m = -(k + 1)`` is ``u^k / radius^(k+1)``, the series cut once at
    ``|z| = radius`` by ``l1z._series_cut``, whose remainder is ``rem``.  The
    resolvent identity factors differences through the product of two
    resolvents: a Lipschitz bound ``1 / (R - ||u||)**2`` between circle points.
    """
    if not tol > 0.0:
        raise InvalidInput("tol must be positive")
    if not math.isfinite(radius):
        raise InvalidInput("radius must be finite")
    nu = norm_upper(u).value
    if not radius > nu * (1.0 + 1e-3):
        raise HypothesisFailure(
            "radius inside spectrum bound",
            report={"radius": radius, "norm_bound": nu},
        )
    w = 1.0 / radius
    K, rem = l1z._series_cut(_up(w), nu, lambda k: _up(w), tol, 100_000)
    terms, t = {}, delta(0, w)
    for k in range(K + 1):
        terms[-(k + 1)] = t
        t = l1z.scale(w, l1z.convolve(t, u))
    gap = radius - nu
    return CurveMap(terms, cu(rem), cu(_up(1.0 / (gap * gap))), cu(_up(1.0 / gap)), radius)


def resolvent_loop_integral(
    u: L1ZSeq, radius: float, steps: int, tol: float
) -> Tuple[L1ZSeq, CertUpper]:
    """Loop integral of the resolvent over a circle outside the norm ball.

    Contract: the value is ``2*pi*i`` times the unit, within the
    certified error, witnessing that the algebra is nontrivial.
    """
    return loop_integral(resolvent_map(u, radius, tol), circle_loop(radius), steps)


def mean_value_bound_check(
    curve: BanachCurve, M: CertUpper, a: float, b: float
) -> bool:
    """Check ``||f(b) - f(a)|| <= M (b - a) + 1e-9`` for a bounded derivative."""
    diff = norm_upper(l1z.sub(curve.value(b), curve.value(a)))
    return diff.value <= M.value * (b - a) + 1e-9
