"""Algebra-valued calculus with certified error bounds.

Composite midpoint integration whose panel count is driven by a caller
supplied modulus of continuity, the exponential by its power series,
path/loop integrals, and the resolvent loop integral whose value is the
numerical embodiment of "a globally bounded resolvent forces a trivial
algebra": the integral of the resolvent over a circle enclosing the
norm ball equals ``2*pi*i`` times the unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from . import l1z
from .certs import CU_ZERO, CertUpper, cu, cu_add, cu_from_float_sum, cu_mul, _fsum, _up
from .errors import HypothesisFailure, InvalidInput, ToleranceUnreachable
from .l1z import L1ZSeq, delta, norm_upper

_PANEL_CAP = 2 ** 22
_SPEED_SAMPLES = 257  # grid points for a path's certified speed

Modulus = Callable[[float], CertUpper]


@dataclass(frozen=True)
class PathLoop:
    """Parametrized differentiable path in the plane on [0, 1].

    ``deriv_lipschitz`` bounds ``|gamma'(s) - gamma'(t)| / |s - t|`` and
    is what certifies Riemann sums along the path.
    """

    point: Callable[[float], complex]
    derivative: Callable[[float], complex]
    deriv_lipschitz: CertUpper
    is_loop: bool = True

    def __post_init__(self):
        if self.is_loop and abs(self.point(0.0) - self.point(1.0)) > 1e-12:
            raise InvalidInput("loop endpoints do not match")

    def speed_upper(self) -> CertUpper:
        """Certified sup of ``|gamma'|``: grid max plus Lipschitz slack."""
        h = 1.0 / (_SPEED_SAMPLES - 1)
        m = max(abs(self.derivative(i * h)) for i in range(_SPEED_SAMPLES))
        return cu_add(cu(_up(m)), cu_mul(self.deriv_lipschitz, cu(h / 2.0)))


def circle_loop(radius: float, center: complex = 0j) -> PathLoop:
    """The circle of given radius, traversed once counterclockwise."""
    if not radius > 0.0:
        raise InvalidInput("radius must be positive")
    w = 2.0 * math.pi

    def point(t: float) -> complex:
        return center + radius * complex(math.cos(w * t), math.sin(w * t))

    def derivative(t: float) -> complex:
        return radius * w * complex(-math.sin(w * t), math.cos(w * t))

    return PathLoop(point, derivative, cu(_up(radius * w * w)), True)


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
    if panels is not None and panels < 1:
        raise InvalidInput("panels must be at least 1")
    if panels is not None and panels > _PANEL_CAP:
        raise InvalidInput("panels must be at most %d" % _PANEL_CAP)
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
    value = l1z.weighted_sum((curve.value(a + (i + 0.5) * h) for i in range(panels)), h)
    err = _quad_err(curve.modulus, width, panels)
    # roundoff of the panel accumulation, folded into the bound
    acc = value.coeffs
    coeff_mass = sum(abs(c) for c in acc.values())
    err = cu_add(err, cu(_up((panels + len(acc) + 4) * 2.0 ** -52 * (coeff_mass + 1.0))))
    if tol is not None and err.value > tol and panels >= _PANEL_CAP:
        raise ToleranceUnreachable("tolerance unreachable")
    return value, err


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
    """A map from the plane into the algebra with certified regularity.

    ``modulus(d)`` bounds ``||fn(z) - fn(w)||`` for ``|z - w| <= d`` on
    the region of interest; ``sup_norm`` bounds ``||fn||`` there.
    """

    fn: Callable[[complex], L1ZSeq]
    modulus: Modulus
    sup_norm: CertUpper


def polynomial_map(coeffs, radius: float) -> CurveMap:
    """Scalar polynomial ``p(z) * unit`` with bounds valid for |z| <= radius.

    ``coeffs[k]`` multiplies ``z**k``.
    """
    coeffs = [complex(c) for c in coeffs]
    mags = [abs(c) for c in coeffs]
    # per term: |c| and radius ** k, two roundings each, one per product; the fsum, 1
    sup = cu_from_float_sum(_fsum(m * radius ** k for k, m in enumerate(mags)), 6)
    lip = cu_from_float_sum(_fsum(k * m * radius ** (k - 1) for k, m in enumerate(mags) if k), 7)

    def fn(z: complex) -> L1ZSeq:
        v = 0j
        for c in reversed(coeffs):
            v = v * z + c
        return delta(0, v)

    return CurveMap(fn, lambda d: cu_mul(lip, cu(_up(abs(d)))), sup)


def loop_integral(
    f: CurveMap,
    gamma: PathLoop,
    tol: float | None = None,
    steps: int | None = None,
) -> Tuple[L1ZSeq, CertUpper]:
    """Certified integral of ``f`` along the path.

    The integrand ``t -> f(gamma(t)) gamma'(t)`` inherits a modulus from
    the path's speed and derivative-Lipschitz data, so the midpoint
    certificate applies unchanged.
    """
    speed = gamma.speed_upper()

    def integrand(t: float) -> L1ZSeq:
        return l1z.scale(gamma.derivative(t), f.fn(gamma.point(t)))

    def modulus(d: float) -> CertUpper:
        wobble = cu_mul(f.sup_norm, cu_mul(gamma.deriv_lipschitz, cu(_up(abs(d)))))
        drift = cu_mul(speed, f.modulus(_up(speed.value * abs(d))))
        return cu_add(wobble, drift)

    curve = BanachCurve(integrand, modulus)
    return integrate(curve, 0.0, 1.0, tol=tol, panels=steps)


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
    """Resolvent of ``u`` with bounds valid on the circle of that radius.

    Uses the resolvent identity: differences factor through the product
    of two resolvents, giving a Lipschitz bound ``1 / (R - ||u||)**2``
    directly between circle points.
    """
    nu = norm_upper(u).value
    gap = radius - nu
    if gap <= 0.0:
        raise HypothesisFailure("radius inside spectrum bound")
    sup = cu(_up(1.0 / gap))
    lip = cu(_up(1.0 / (gap * gap)))
    return CurveMap(
        lambda z: resolvent_eval(u, z, tol),
        lambda d: cu_mul(lip, cu(_up(abs(d)))),
        sup,
    )


def resolvent_loop_integral(
    u: L1ZSeq, radius: float, steps: int, tol: float
) -> Tuple[L1ZSeq, CertUpper]:
    """Loop integral of the resolvent over a circle outside the norm ball.

    Contract: the value is ``2*pi*i`` times the unit, within the
    certified error, witnessing that the algebra is nontrivial.
    """
    if not math.isfinite(radius):
        raise InvalidInput("radius must be finite")
    nu = norm_upper(u).value
    if not radius > nu * (1.0 + 1e-3):
        raise HypothesisFailure(
            "radius inside spectrum bound",
            report={"radius": radius, "norm_bound": nu},
        )
    fmap = resolvent_map(u, radius, tol)
    return loop_integral(fmap, circle_loop(radius), steps=steps)


def mean_value_bound_check(
    curve: BanachCurve, M: CertUpper, a: float, b: float
) -> bool:
    """Check ``||f(b) - f(a)|| <= M (b - a) + 1e-9`` for a bounded derivative."""
    diff = norm_upper(l1z.sub(curve.value(b), curve.value(a)))
    return diff.value <= M.value * (b - a) + 1e-9
