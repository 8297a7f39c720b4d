"""Certified upper-bound arithmetic.

Every norm-like quantity in this package is carried as a :class:`CertUpper`,
a single nonnegative double guaranteed to lie at or above the true real
quantity it bounds.  Soundness against floating-point rounding is obtained
by a fixed multiplicative slack policy: the result of every floating
addition, multiplication or division is multiplied by ``1 + 4*2**-52``,
which dominates the worst-case rounding of both the operation and the
slack multiply itself.

A float sum becomes a bound in one place, :func:`cu_from_float_sum`, which
inflates the total by a count of the roundings behind it.  Sums of Python
values are taken with ``math.fsum``, correctly rounded and so independent
of the order of the summands: certificates are bit-reproducible across
runs without sorting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BoundOverflow, InvalidInput

#: one unit in the last place of the double mantissa
ULP = 2.0 ** -52

#: multiplicative rounding slack applied after every floating operation
SLACK = 1.0 + 4.0 * ULP

#: below this, relative slack no longer dominates subnormal rounding
_TINY = 1e-300

#: absolute cushion absorbing the worst-case subnormal rounding error
_GUARD = 1e-307


def _up(x: float) -> float:
    """Inflate a freshly computed float upward by the slack policy."""
    y = x * SLACK
    if math.isinf(y):
        raise BoundOverflow("bound overflow")
    return y


@dataclass(frozen=True)
class CertUpper:
    """A certified upper bound on a nonnegative real quantity.

    Invariant: ``value`` is finite, nonnegative, and at or above the true
    quantity for which it was produced.
    """

    value: float

    def __post_init__(self):
        v = self.value
        if isinstance(v, int):
            v = float(v)
            object.__setattr__(self, "value", v)
        if math.isnan(v):
            raise InvalidInput("NaN is not a valid bound")
        if math.isinf(v):
            raise BoundOverflow("bound overflow")
        if v < 0.0:
            raise InvalidInput("negative value cannot be an upper bound on a norm")


CU_ZERO = CertUpper(0.0)
CU_ONE = CertUpper(1.0)


def cu(value: float) -> CertUpper:
    """Wrap an exactly known nonnegative float as a bound."""
    return CertUpper(float(value))


def _guarded(x: float) -> float:
    """Cushion a nonzero result against subnormal underflow."""
    if x < _TINY:
        x += _GUARD
    return x


def cu_abs(c: complex) -> CertUpper:
    """Upper bound on ``|c|`` for a complex scalar."""
    if _has_nan(c):
        raise InvalidInput("NaN coefficient")
    if c == 0:
        return CU_ZERO
    return CertUpper(_up(_guarded(abs(c))))


def cu_add(a: CertUpper, b: CertUpper) -> CertUpper:
    return CertUpper(_up(a.value + b.value))


def cu_mul(a: CertUpper, b: CertUpper) -> CertUpper:
    if a.value == 0.0 or b.value == 0.0:
        return CU_ZERO
    return CertUpper(_up(_guarded(a.value * b.value)))


def cu_div(a: CertUpper, denom_lower: float) -> CertUpper:
    """Upper bound on ``a / d`` given a positive lower bound on ``d``.

    The caller is responsible for ``denom_lower`` being a true lower
    bound; the slack multiply absorbs the rounding of the division.
    """
    if not denom_lower > 0.0:
        raise InvalidInput("denominator lower bound must be positive")
    if a.value == 0.0:
        return CU_ZERO
    return CertUpper(_up(_guarded(a.value / denom_lower)))


def cu_cross(ta: CertUpper, na: CertUpper, tb: CertUpper, nb: CertUpper) -> CertUpper:
    """Bound ``ta*||b|| + tb*||a|| + ta*tb`` on the slack of a product ``a * b``."""
    return cu_add(cu_add(cu_mul(ta, nb), cu_mul(tb, na)), cu_mul(ta, tb))


def _fsum(values: Iterable[float]) -> float:
    """``math.fsum``, its intermediate overflow reported as a bound overflow."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise BoundOverflow("bound overflow") from None


def cu_sum_abs(xs: Iterable[complex]) -> CertUpper:
    """Upper bound on ``sum(|x|)`` over exact summands, NaN rejected.

    One ``fsum`` of the moduli: a ``hypot`` each (2) and the sum (1).
    """
    xs = list(xs)
    total = _fsum(map(abs, xs))
    if math.isinf(total) and any(_has_nan(x) for x in xs):  # |inf + nan j| is inf
        raise InvalidInput("NaN in summand")
    return cu_from_float_sum(total, 3)


def cu_sum(bounds: Iterable[CertUpper]) -> CertUpper:
    """Certified sum of upper bounds: exact values, one ``fsum`` rounding."""
    return cu_from_float_sum(_fsum(b.value for b in bounds), 1)


def cu_from_float_sum(total: float, count: int) -> CertUpper:
    """Promote a floating sum of nonnegative terms to a certified bound.

    ``count`` covers the roundings from the true sum ``S`` to ``total``, in
    units of ``u = 2**-53``: one per correctly rounded operation, two per
    function faithful to an ulp (``hypot`` in a complex ``|x|``, ``pow``).
    It is the most that any term went through plus the sum's own: one for
    ``math.fsum`` (correctly rounded, so no growth with ``n``), ``n - 1``
    for any other float sum of ``n`` terms.  Then ``S <= total / (1 -
    u)**count <= total (1 + count ULP)``, which the growth ``1 + (count + 4)
    ULP`` covers.  Below ``_TINY``, where a rounding may be off by
    ``2**-1074``, the ``_guarded`` cushion goes once on a nonzero total.
    """
    if math.isnan(total):
        raise InvalidInput("NaN in summand")
    if total < 0.0:
        raise InvalidInput("negative total for a nonnegative sum")
    growth = 1.0 + (count + 4.0) * ULP
    if growth > 1.01:
        # absurdly long sums would need a sharper analysis
        raise InvalidInput("sum too long for the coarse inflation policy")
    if total == 0.0:
        return CU_ZERO
    return CertUpper(_up(_guarded(total) * growth))


def _has_nan(c: complex) -> bool:
    c = complex(c)
    return math.isnan(c.real) or math.isnan(c.imag)


def fft_roundoff(n: int, norm2: float) -> float:
    """Error bound on each output of a length-``n`` FFT of ``x``, ``||x||_2 <= norm2``.

    ``|y'_k - y_k| <= ||y' - y||_2 <= c log2(n) u sqrt(n) ||x||_2`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 24), with two more
    stages for mixed radices; ``_GUARD`` covers underflow for ``n < 2**40``.
    """
    return _up(8.0 * ULP * (math.log2(n) + 2.0) * math.sqrt(n) * norm2 + _GUARD)


def certify_min_modulus(sample, lipschitz: float, eps: float, n: int, cap: int) -> dict:
    """Try to prove ``|F| >= eps`` from samples on grids doubling from ``n``.

    ``sample(n) -> (points, values, err, half_spacing)`` gives ``F`` at
    points within ``half_spacing`` of every point of the domain, up to
    ``err`` (which must cover a few ulps of ``|values|``); with
    ``|F'| <= lipschitz`` each point proves ``|value| - err - lipschitz *
    half_spacing``.  Stops when that proves ``eps`` (``ok``), when some
    ``|value| + err < eps`` (``definitely_fails``: no grid can), or at ``cap``.
    """
    while True:
        points, values, err, half = sample(n)
        mods = np.abs(values)
        fill = _up(lipschitz * half)
        lower = mods - err - fill
        worst = int(np.argmin(lower))
        ok = bool(lower[worst] >= eps)
        fails = bool(np.min(mods) + err < eps)
        if ok or fails or n >= cap:
            return dict(N=n, eps=eps, ok=ok, definitely_fails=fails,
                        min_certified_lower=float(lower[worst]),
                        worst_point=points[worst].item(), lipschitz=lipschitz,
                        fill_slack=fill, err=err)
        n *= 2
