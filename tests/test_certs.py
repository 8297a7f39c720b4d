"""Certified upper-bound arithmetic: soundness against 128-bit oracles."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiener.certs import (
    CU_ONE,
    CU_ZERO,
    SLACK,
    ULP,
    CertUpper,
    cu,
    cu_abs,
    cu_add,
    cu_div,
    cu_from_float_sum,
    cu_mul,
    cu_sum,
    cu_sum_abs,
    _up,
)
from wiener.errors import BoundOverflow, InvalidInput

from conftest import mp_abs_sum

finite = st.floats(
    min_value=0.0, max_value=1e100, allow_nan=False, allow_infinity=False
)
small_complex = st.complex_numbers(
    max_magnitude=1e50, allow_nan=False, allow_infinity=False
)


def test_constants():
    assert ULP == 2.0 ** -52
    assert SLACK > 1.0
    assert CU_ZERO.value == 0.0
    assert CU_ONE.value == 1.0


def test_validation():
    with pytest.raises(InvalidInput):
        CertUpper(-1.0)
    with pytest.raises(InvalidInput):
        CertUpper(float("nan"))
    with pytest.raises(BoundOverflow):
        CertUpper(float("inf"))
    assert CertUpper(0).value == 0.0  # int is normalized to float


def test_up_overflow():
    with pytest.raises(BoundOverflow):
        _up(float("inf"))


@given(finite, finite)
@settings(max_examples=200, deadline=None)
def test_add_mul_sound(a, b):
    bound = cu_add(cu(a), cu(b)).value
    assert mpmath.mpf(bound) >= mpmath.mpf(a) + mpmath.mpf(b)
    bound = cu_mul(cu(a), cu(b)).value
    assert mpmath.mpf(bound) >= mpmath.mpf(a) * mpmath.mpf(b)


@given(finite, st.floats(min_value=1e-100, max_value=1e100))
@settings(max_examples=200, deadline=None)
def test_div_sound(a, d):
    bound = cu_div(cu(a), d).value
    assert mpmath.mpf(bound) >= mpmath.mpf(a) / mpmath.mpf(d)


def test_div_rejects_nonpositive_denominator():
    with pytest.raises(InvalidInput):
        cu_div(CU_ONE, 0.0)
    with pytest.raises(InvalidInput):
        cu_div(CU_ONE, -1.0)


@given(small_complex)
@settings(max_examples=200, deadline=None)
def test_abs_sound(c):
    assert mpmath.mpf(cu_abs(c).value) >= abs(mpmath.mpc(c.real, c.imag))


def test_abs_rejects_nan():
    with pytest.raises(InvalidInput):
        cu_abs(complex(float("nan"), 0.0))


@given(st.lists(small_complex, max_size=30))
@settings(max_examples=200, deadline=None)
def test_sum_abs_sound(xs):
    assert mpmath.mpf(cu_sum_abs(xs).value) >= mp_abs_sum(xs)


@given(st.lists(finite, max_size=30))
@settings(max_examples=200, deadline=None)
def test_cu_sum_sound(xs):
    bound = cu_sum(cu(x) for x in xs).value
    assert mpmath.mpf(bound) >= mpmath.fsum(xs)


def _spread(rng, n, lo=-320, hi=300):
    """``n`` complex summands, moduli log-uniform over ``10**lo .. 10**hi``.

    A third are real, a third imaginary and a third have both parts.
    """
    mag = 10.0 ** rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    kind = rng.integers(0, 3, n)
    return [complex(m, 0.0) if k == 0 else complex(0.0, m) if k == 1
            else complex(m * math.cos(t), m * math.sin(t))
            for m, t, k in zip(mag.tolist(), ang.tolist(), kind.tolist())]


def _exact_abs_sum(xs) -> Fraction:
    """``sum |x|`` in exact rationals, each modulus rounded up at ``2**-1300``.

    Every double is an integer multiple of ``2**-1074``, so its parts are
    exact integers in units of ``2**-1300``; a modulus is their ceiled
    integer square root, exact for a real or an imaginary summand.
    """
    total = 0
    for x in xs:
        a, b = (p * (1 << 1300) // q for p, q in (abs(x.real).as_integer_ratio(),
                                                   abs(x.imag).as_integer_ratio()))
        total += a + b if not (a and b) else math.isqrt(a * a + b * b - 1) + 1
    return Fraction(total, 1 << 1300)


@pytest.mark.parametrize("n, lo, hi", [(3, -320, 300), (2001, -320, 300),
                                       (100_000, -320, 300), (2001, -323, -308)],
                         ids=["3", "2001", "100000", "2001-subnormal"])
def test_sum_abs_exact_oracle(rng, n, lo, hi):
    xs = _spread(rng, n, lo, hi)
    exact = _exact_abs_sum(xs)
    bound = cu_sum_abs(xs).value
    assert Fraction(bound) >= exact
    # one correctly rounded sum: the inflation does not grow with n
    assert Fraction(bound) <= exact * (1 + Fraction(16 * ULP)) + Fraction(2e-307)


def test_sum_abs_overflow_and_nan():
    for xs in ([1e308, 1e308], [1.7e308, 1e307], [sys.float_info.max], [complex(1.3e308, -1.3e308)]):
        with pytest.raises(BoundOverflow):
            cu_sum_abs(xs)
    with pytest.raises(BoundOverflow):
        cu_sum([cu(1e308), cu(1e308)])
    for bad in (float("nan"), complex(0.0, float("nan")), complex(float("inf"), float("nan"))):
        with pytest.raises(InvalidInput):
            cu_sum_abs([1.0, bad])


def test_sum_abs_deterministic(rng):
    xs = [complex(0.1 * k, -0.07 * k) for k in range(50)]
    assert cu_sum_abs(xs).value == cu_sum_abs(list(xs)).value
    # the bound does not depend on the order of the summands
    xs = _spread(rng, 2001, -3, 9)
    shuffled = [xs[i] for i in rng.permutation(len(xs))]
    assert cu_sum_abs(shuffled).value == cu_sum_abs(xs).value == cu_sum_abs(xs[::-1]).value


def test_from_float_sum_sound(rng):
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        terms = rng.random(n)
        total = float(np.sum(terms))
        bound = cu_from_float_sum(total, n).value
        assert mpmath.mpf(bound) >= mpmath.fsum(float(t) for t in terms)


def test_from_float_sum_rejects_bad_input():
    with pytest.raises(InvalidInput):
        cu_from_float_sum(-1.0, 5)
    with pytest.raises(InvalidInput):
        cu_from_float_sum(float("nan"), 5)
    with pytest.raises(InvalidInput):
        cu_from_float_sum(1.0, 10 ** 14)  # beyond the coarse policy


def test_monotone_inflation():
    # every op result strictly dominates the float computation
    a, b = 0.1, 0.2
    assert cu_add(cu(a), cu(b)).value > a + b
    assert cu_mul(cu(a), cu(b)).value > a * b
    assert math.isfinite(cu_add(cu(1e308), cu(0.0)).value)
