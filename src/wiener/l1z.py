"""The convolution algebra of two-sided absolutely summable sequences.

Elements are represented by a finite-support coefficient map plus a
certified tail bound: an :class:`L1ZSeq` stands for the set of all true
sequence-space elements within ``tail`` of the finite part in the
one-norm.  All operations keep that reading sound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from .certs import (
    CU_ZERO,
    ULP,
    CertUpper,
    _fsum,
    _up,
    cu,
    cu_abs,
    cu_add,
    cu_cross,
    cu_from_float_sum,
    cu_mul,
    cu_sum,
    cu_sum_abs,
)
from .errors import BoundOverflow, InvalidInput, ToleranceUnreachable

# dense numpy convolution pays off once the double loop gets this big, and while
# its span-by-span work stays within the ratio where the two paths time alike
_DENSE_CONV_THRESHOLD = 10_000
_DENSE_SPAN_RATIO = 256

_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class L1ZSeq:
    """Finite-support coefficient map ``n -> a_n`` plus a tail bound."""

    coeffs: Dict[int, complex]
    tail: CertUpper = field(default=CU_ZERO)

    def __post_init__(self):
        clean = {}
        for n, c in self.coeffs.items():
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise InvalidInput("NaN coefficient" if c != c else "non-finite coefficient")
            if c != 0:
                clean[int(n)] = c
        object.__setattr__(self, "coeffs", clean)

    def support(self) -> Tuple[int, int]:
        """(min index, max index); (0, 0) for the zero element."""
        if not self.coeffs:
            return (0, 0)
        ks = self.coeffs.keys()
        return (min(ks), max(ks))

    def __eq__(self, other):
        if not isinstance(other, L1ZSeq):
            return NotImplemented
        return self.coeffs == other.coeffs and self.tail == other.tail


def zero() -> L1ZSeq:
    return L1ZSeq({})


def delta(n: int, c: complex = 1.0) -> L1ZSeq:
    """Single coefficient ``c`` at index ``n``; ``delta(0)`` is the unit."""
    return L1ZSeq({n: complex(c)})


def add(a: L1ZSeq, b: L1ZSeq) -> L1ZSeq:
    out = dict(a.coeffs)
    for n, c in b.coeffs.items():
        out[n] = out.get(n, 0j) + c
    return L1ZSeq(out, cu_add(a.tail, b.tail))


def neg(a: L1ZSeq) -> L1ZSeq:
    return L1ZSeq({n: -c for n, c in a.coeffs.items()}, a.tail)


def sub(a: L1ZSeq, b: L1ZSeq) -> L1ZSeq:
    return add(a, neg(b))


def scale(c: complex, a: L1ZSeq) -> L1ZSeq:
    c = complex(c)
    return L1ZSeq(
        {n: c * v for n, v in a.coeffs.items()},
        cu_mul(cu_abs(c), a.tail),
    )


def shift(a: L1ZSeq, k: int) -> L1ZSeq:
    """Multiply by the degree-``k`` monomial: indices move by ``k``."""
    return L1ZSeq({n + k: c for n, c in a.coeffs.items()}, a.tail)


def convolve(a: L1ZSeq, b: L1ZSeq) -> L1ZSeq:
    """Convolution product; tails combine by the subadditive cross bound."""
    tail = CU_ZERO
    if a.tail.value != 0.0 or b.tail.value != 0.0:
        tail = cu_cross(a.tail, norm_upper(a), b.tail, norm_upper(b))
    if not a.coeffs or not b.coeffs:
        return L1ZSeq({}, tail)
    lo_a, hi_a = a.support()
    lo_b, hi_b = b.support()
    pairs = len(a.coeffs) * len(b.coeffs)
    dense_work = (hi_a - lo_a + 1) * (hi_b - lo_b + 1)
    if pairs <= _DENSE_CONV_THRESHOLD or dense_work > _DENSE_SPAN_RATIO * pairs:
        out: Dict[int, complex] = {}
        for i, ca in sorted(a.coeffs.items()):
            for j, cb in sorted(b.coeffs.items()):
                out[i + j] = out.get(i + j, 0j) + ca * cb
        return L1ZSeq(out, tail)
    va = np.zeros(hi_a - lo_a + 1, dtype=complex)
    vb = np.zeros(hi_b - lo_b + 1, dtype=complex)
    for n, c in a.coeffs.items():
        va[n - lo_a] = c
    for n, c in b.coeffs.items():
        vb[n - lo_b] = c
    vc = np.convolve(va, vb)
    base = lo_a + lo_b
    out = {base + k: complex(v) for k, v in enumerate(vc) if v != 0}
    return L1ZSeq(out, tail)


def weighted_sum(
    parts: Iterable[L1ZSeq], w: float = 1.0, extra: CertUpper = CU_ZERO
) -> L1ZSeq:
    """``w`` times the sum of ``parts``, accumulated into one element.

    The tail is ``|w|`` times the parts' tails plus ``extra``; ``w`` is a
    real double, so ``|w|`` is exact.
    """
    acc: Dict[int, complex] = {}
    tails = []
    for a in parts:
        for n, c in a.coeffs.items():
            acc[n] = acc.get(n, 0j) + w * c
        tails.append(a.tail)
    return L1ZSeq(acc, cu_add(cu_mul(cu(abs(w)), cu_sum(tails)), extra))


def _series_cut(
    t0: float, ny: float, step: Callable[[int], complex], tol: float, cap: int
) -> Tuple[int, float]:
    """Least ``K`` with ``T_(K+1) / (1 - q) <= tol``, and that remainder bound.

    ``T_0 = t0`` and ``T_k = |step(k)| ny T_(k-1)`` bound the term norms;
    ``q = |step(K+2)| ny`` bounds every later ratio when ``|step|`` does
    not increase, so the terms past ``K`` sum to at most ``T_(K+1) / (1 - q)``.
    """
    bound = t0
    for K in range(cap + 1):
        bound = _up(bound * ny * abs(step(K + 1)))  # T_(K+1)
        if bound <= tol:  # else the remainder, at least T_(K+1), is too
            q = _up(ny * abs(step(K + 2)))
            if q < 1.0:
                rem = _up(bound / (1.0 - q))
                if rem <= tol:
                    return K, rem
    raise ToleranceUnreachable("series remainder does not reach tol")


def power_series(
    first: L1ZSeq,
    y: L1ZSeq,
    step: Callable[[int], complex],
    tol: float,
    cap: int,
) -> Tuple[L1ZSeq, int]:
    """Truncated series ``sum t_k``, ``t_0 = first``, ``t_k = step(k) (t_(k-1) * y)``.

    ``|step(k)|`` must not increase with ``k``.  The series is cut at the
    least ``K <= cap`` whose certified remainder is at most ``tol``
    (``_series_cut``); that remainder and the terms' tails go into the
    tail of the result.  Returns the result and the term count ``K + 1``.
    """
    K, rem = _series_cut(norm_upper(first).value, norm_upper(y).value, step, tol, cap)

    def terms():
        t = first
        yield t
        for k in range(1, K + 1):
            t = scale(step(k), convolve(t, y))
            yield t

    return weighted_sum(terms(), extra=cu(rem)), K + 1


def norm_upper(a: L1ZSeq) -> CertUpper:
    """Certified one-norm bound: coefficient mass plus tail."""
    return cu_add(cu_sum_abs(a.coeffs.values()), a.tail)


def eval_circle(a: L1ZSeq, lam: complex) -> Tuple[complex, CertUpper]:
    """Evaluate the series at a point of the unit circle.

    Returns the finite-part value and an error bound covering the
    unrepresented tail (``|r(lam)| <= ||r||_1``).
    """
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= _CIRCLE_TOL:  # written so that NaN fails
        raise InvalidInput("not on circle")
    v = 0j
    for n, c in sorted(a.coeffs.items()):
        v += c * lam ** n
    return v, a.tail


def eval_roundoff_bound(a: L1ZSeq) -> float:
    """Floating-point error envelope for `eval_circle` on the unit circle.

    Power-by-squaring of a unit complex number after ``|n|`` effective
    multiplies plus the accumulation sum stay well inside
    ``8 * (max|n| + m + 2) * ulp * sum|a_n|``; generous by design.
    """
    if not a.coeffs:
        return 0.0
    lo, hi = a.support()
    radius = max(abs(lo), abs(hi))
    mass = sum(abs(c) for c in a.coeffs.values())
    return 8.0 * ULP * (radius + len(a.coeffs) + 2) * mass


def circle_lipschitz_upper(a: L1ZSeq) -> CertUpper:
    """Bound L with ``|a(lam) - a(mu)| <= L |lam - mu|`` on the circle.

    Needs finite support: a nonzero tail has no known index radius, so
    no Lipschitz constant can be certified for it.
    """
    if a.tail.value != 0.0:
        raise InvalidInput("lipschitz unavailable for infinite tail")
    # per term: |n| to a float, |c| (hypot) and the product, 4; the fsum, 1
    return cu_from_float_sum(_fsum(abs(n) * abs(c) for n, c in a.coeffs.items()), 5)


def truncate(a: L1ZSeq, budget: float) -> L1ZSeq:
    """Drop smallest-modulus coefficients within an l1 budget.

    Dropped mass (certified) is added to the tail, so the result still
    represents everything the input did.  Ties break toward smaller
    ``|index|``, then the positive index.
    """
    if not budget > 0.0:
        raise InvalidInput("truncation budget must be positive")
    order = sorted(
        a.coeffs.items(),
        key=lambda item: (abs(item[1]), abs(item[0]), -item[0]),
    )
    kept, dropped, total = dict(a.coeffs), CU_ZERO, 0.0
    for k, (n, c) in enumerate(order, 1):
        total += abs(c)
        step = cu_from_float_sum(total, k + 1)  # k moduli (2 roundings) summed in order (k - 1)
        if step.value > budget:
            break
        dropped = step
        del kept[n]
    return L1ZSeq(kept, cu_add(a.tail, dropped))


# ---------------------------------------------------------------------------
# JSON element format


def to_jsonable(a: L1ZSeq) -> dict:
    return {
        "coeffs": [
            {"n": n, "re": c.real, "im": c.imag}
            for n, c in sorted(a.coeffs.items())
        ],
        "tail": a.tail.value,
    }


def from_jsonable(obj: dict) -> L1ZSeq:
    try:
        coeffs = {}
        for entry in obj["coeffs"]:
            n = int(entry["n"])
            float(n)  # an index beyond a float's range is an OverflowError here
            if n in coeffs:
                raise InvalidInput("duplicate index %d" % n)
            coeffs[n] = complex(float(entry["re"]), float(entry["im"]))
        tail = CertUpper(float(obj.get("tail", 0.0)))
        return L1ZSeq(coeffs, tail)
    except (KeyError, TypeError, ValueError, OverflowError, BoundOverflow) as exc:
        raise InvalidInput("malformed sequence JSON: %s" % exc) from exc


def dumps(a: L1ZSeq) -> str:
    return json.dumps(to_jsonable(a))


def loads(text: str) -> L1ZSeq:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput("invalid JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise InvalidInput("expected a JSON object")
    return from_jsonable(obj)
