"""Shared fixtures and high-precision oracle helpers."""

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from wiener.l1z import L1ZSeq

mpmath.mp.prec = 128

# the same examples on every run, and no example database carried between runs
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def mpc(c: complex) -> mpmath.mpc:
    return mpmath.mpc(c.real, c.imag)


def mp_abs_sum(values) -> mpmath.mpf:
    """128-bit sum of moduli."""
    return mpmath.fsum(abs(mpc(complex(v))) for v in values)


def mp_seq_conv(a: dict, b: dict) -> dict:
    """Exact (128-bit) convolution of two finite coefficient maps."""
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, mpmath.mpc(0)) + mpc(complex(ca)) * mpc(
                complex(cb)
            )
    return out


def mp_seq_norm(coeffs: dict) -> mpmath.mpf:
    return mpmath.fsum(abs(v) if isinstance(v, mpmath.mpc) else abs(mpc(complex(v)))
                       for v in coeffs.values())


def mp_residual(f: L1ZSeq, w: L1ZSeq) -> mpmath.mpf:
    """128-bit ||unit - f * w||_1 over the finite parts."""
    prod = mp_seq_conv(f.coeffs, w.coeffs)
    prod[0] = prod.get(0, mpmath.mpc(0)) - 1
    return mp_seq_norm(prod)


def mp_segment_abs(va, vb) -> mpmath.mpf:
    """128-bit closed form of ``int_0^1 |va + (vb - va) t| dt``.

    With ``d = vb - va`` and ``s = t + Re(conj(va) d) / |d|^2`` the
    integrand is ``|d| sqrt(s^2 + k^2)``, ``k = |Im(conj(va) d)| / |d|^2``,
    whose antiderivative is ``(s sqrt(s^2 + k^2) + k^2 asinh(s / k)) / 2``.
    For ``k = 0`` the values are collinear and the integrand is the real
    ``|alpha + beta t|`` (``beta = |d| > 0``), split at its root.
    """
    va, vb = mpc(complex(va)), mpc(complex(vb))
    d = vb - va
    A = d.real ** 2 + d.imag ** 2
    if A == 0:
        return abs(va)
    B = va.real * d.real + va.imag * d.imag
    cross = va.real * d.imag - va.imag * d.real
    if cross == 0:
        beta = mpmath.sqrt(A)
        alpha = B / beta

        def F(t):  # antiderivative of the increasing alpha + beta t, F(0) = 0
            return alpha * t + beta * t * t / 2

        root = min(max(-alpha / beta, mpmath.mpf(0)), mpmath.mpf(1))
        return F(1) - 2 * F(root)
    k = abs(cross) / A

    def H(s):
        return (s * mpmath.sqrt(s * s + k * k) + k * k * mpmath.asinh(s / k)) / 2

    s0 = B / A
    return mpmath.sqrt(A) * (H(s0 + 1) - H(s0))


def mp_fejer(lam, t) -> mpmath.mpf:
    """128-bit Fejer kernel ``K_lam(t) = (1 - cos lam t) / (pi lam t^2)``,
    whose transform is the hat on ``[-lam, lam]``."""
    lam, t = mpmath.mpf(lam), mpmath.mpf(t)
    if t == 0:
        return lam / (2 * mpmath.pi)
    return (1 - mpmath.cos(lam * t)) / (mpmath.pi * lam * t * t)


def _mp_cin(z) -> mpmath.mpf:
    """``Cin(z) = int_0^z (1 - cos u) / u du = gamma + ln z - Ci(z)``, z > 0."""
    return mpmath.euler + mpmath.log(z) - mpmath.ci(z)


def _mp_fejer_psi(lam, t) -> mpmath.mpf:
    """Second antiderivative of ``K_lam``, vanishing with its slope at -oo."""
    if t == 0:
        return 1 / (mpmath.pi * lam)
    y = lam * t
    return t / 2 + (t * mpmath.si(y) + mpmath.cos(y) / lam - _mp_cin(abs(y)) / lam) / mpmath.pi


def _mp_fejer_phi(lam, t) -> mpmath.mpf:
    """Third antiderivative of ``K_lam`` (up to a linear term)."""
    if t == 0:
        return mpmath.mpf(0)
    y = lam * t
    return t * t / 4 + (
        t * t * mpmath.si(y) / 2
        + t * mpmath.cos(y) / (2 * lam)
        - mpmath.sin(y) / (2 * lam * lam)
        - t * (_mp_cin(abs(y)) - 1) / lam
    ) / mpmath.pi


def _second_difference(fn, lam, x) -> mpmath.mpf:
    lam, x = mpmath.mpf(lam), mpmath.mpf(x)
    return fn(lam, x + 1) - 2 * fn(lam, x) + fn(lam, x - 1)


def mp_fejer_triangle(lam, x) -> mpmath.mpf:
    """128-bit closed form of ``(K_lam * tri)(x)`` for the unit triangle."""
    return _second_difference(_mp_fejer_psi, lam, x)


def mp_fejer_triangle_distance(lam) -> mpmath.mpf:
    """Exact ``||K_lam * tri - tri||_1`` at 128 bits.

    ``S = K_lam * tri`` is even, non-negative and of mass one, so the
    distance is ``2 [int_0^1 |S - tri| + 1/2 - int_0^1 S]``.  On ``[0, 1]``
    the difference ``g = S - (1 - x)`` starts negative, ends positive and
    changes sign once, at the root ``r``; with ``G`` an antiderivative of
    ``g`` (second difference of the third antiderivative of ``K_lam``,
    minus ``x - x^2 / 2``) this is ``4 [G(0) - G(r)]``.  For any ``r`` the
    same expression is at most the distance, so a sign change missed by
    the root finder can only make the value smaller, never larger.
    """
    def g(x):
        return mp_fejer_triangle(lam, x) - (1 - x)

    def G(x):
        return _second_difference(_mp_fejer_phi, lam, x) - x + x * x / 2

    r = mpmath.findroot(g, (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")
    return 4 * (G(mpmath.mpf(0)) - G(r))


def random_seq(rng: np.random.Generator, nmax: int = 8, scale: float = 1.0) -> L1ZSeq:
    n = int(rng.integers(1, nmax + 1))
    idx = rng.choice(np.arange(-10, 11), size=n, replace=False)
    coeffs = {
        int(k): complex(rng.normal(0, scale), rng.normal(0, scale)) for k in idx
    }
    return L1ZSeq(coeffs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
