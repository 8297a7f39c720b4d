"""Invertibility machinery for the sequence algebra.

Contains the geometric-series inverse, the perturbation bound for
inverses, grid certification of a minimum modulus on the unit circle,
the full inversion pipeline (reciprocal sampling at a doubling degree
until the certified residual meets the target), and quotient-norm
witnesses.

A returned :class:`InversionCertificate` is self-checking: its residual
is recomputable from the input and the witness alone, and a residual
below one *is* the proof of invertibility via the geometric series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from . import certs, l1z
from .certs import ULP, CertUpper, cu, cu_add, cu_div, cu_mul, _up
from .errors import CertificationFailure, HypothesisFailure, InvalidInput
from .l1z import L1ZSeq, convolve, delta, norm_upper, sub

#: largest grid of roots of unity, for certification and for sampling
_GRID_CAP = 2 ** 20


@dataclass(frozen=True)
class InversionCertificate:
    """Witness plus certified residual one-norm and the parameters used."""

    witness: L1ZSeq
    residual: CertUpper
    params: Dict[str, object] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "witness": l1z.to_jsonable(self.witness),
            "residual": self.residual.value,
            "params": dict(self.params),
        }


def _conv_roundoff(a: L1ZSeq, b: L1ZSeq) -> CertUpper:
    """Envelope for the deviation of floating convolution from the true one.

    Each output coefficient is a sum of at most ``min(m_a, m_b)``
    products; summed over all outputs the error stays below this bound.
    """
    m = min(len(a.coeffs), len(b.coeffs)) + 4
    return cu_mul(cu(4.0 * ULP * m), cu_mul(norm_upper(a), norm_upper(b)))


def residual_norm(f: L1ZSeq, witness: L1ZSeq) -> CertUpper:
    """Certified ``||unit - f * witness||_1``; the certificate's content."""
    return quotient_norm_upper(delta(0), f, witness)


def neumann_invert(x: L1ZSeq, target: float) -> Tuple[L1ZSeq, InversionCertificate]:
    """Inverse by the geometric series in ``1 - x``.

    Requires a certified ``||1 - x|| < 1``; the series is cut once its
    certified remainder drops below ``target`` and the remainder goes
    into the tail of the returned inverse.
    """
    if not target > 0.0:
        raise InvalidInput("target must be positive")
    y = sub(delta(0), x)
    rho = norm_upper(y)
    if rho.value >= 1.0:
        raise HypothesisFailure(
            "Neumann hypothesis fails: ||1 - x|| >= 1",
            report={"rho": rho.value},
        )
    inverse, terms = l1z.power_series(delta(0), y, lambda k: 1.0, target, 10_000)
    cert = InversionCertificate(
        witness=inverse,
        residual=residual_norm(x, inverse),
        params={"method": "neumann", "terms": terms, "target": target},
    )
    return inverse, cert


def perturb_invert_bound(M: CertUpper, u_norm: CertUpper, c: float) -> CertUpper:
    """Inverse bound ``M / (1 - c)`` for a perturbation ``||u|| <= c / M``.

    Valid whenever ``a`` has an inverse bounded by ``M``: then ``a - u``
    is invertible and its inverse is bounded by the returned value.
    """
    if not (0.0 < c < 1.0):
        raise InvalidInput("c must lie in (0, 1)")
    if M.value <= 0.0:
        raise InvalidInput("inverse bound must be positive")
    if u_norm.value * M.value > c:
        raise HypothesisFailure(
            "perturbation too large",
            report={"u_norm": u_norm.value, "allowed": c / M.value},
        )
    return cu_div(M, 1.0 - c)


def _circle_sampler(f: L1ZSeq):
    """``certify_min_modulus`` sampler of ``f`` on the n-th roots of unity.

    One FFT of the coefficients folded mod n (at most ``ceil(span / n)``
    to a bucket); every point of the circle is within an arc ``pi / n``.
    Indices stay Python ints until folded, so any index folds exactly.
    """
    keys = np.array(list(f.coeffs), dtype=object)
    c = np.fromiter(f.coeffs.values(), dtype=complex, count=keys.size)
    mass = float(np.sum(np.abs(c)))
    lo, hi = f.support()

    def sample(n: int):
        j = (keys % n).astype(np.int64)
        x = np.empty(n, dtype=complex)
        x.real = np.bincount(j, weights=c.real, minlength=n)
        x.imag = np.bincount(j, weights=c.imag, minlength=n)
        values = np.fft.ifft(x, norm="forward")  # unscaled: sum_j x_j w^(jk)
        fold = (-((lo - hi - 1) // n) - 1) * ULP * mass  # ceil(span / n) - 1 roundings
        fft = certs.fft_roundoff(n, math.sqrt(np.vdot(x, x).real))
        err = _up(f.tail.value + fold + fft)
        return np.exp((2j * math.pi / n) * np.arange(n)), values, err, math.pi / n

    return sample


def circle_min_modulus_certify(
    f: L1ZSeq, eps: float, N: int
) -> Tuple[bool, Dict[str, object]]:
    """Try to prove ``|f(lam)| >= eps`` on the whole unit circle.

    Grid plus Lipschitz (``certify_min_modulus``) on roots of unity, the
    grid doubling from ``N`` up to ``_GRID_CAP``; a larger ``N`` is invalid
    input.  ``True`` is a proof; ``False`` comes with the last grid's report.
    """
    if not 8 <= N <= _GRID_CAP:
        raise InvalidInput("grid size must lie in [8, %d]" % _GRID_CAP)
    if not eps > 0.0:
        raise InvalidInput("eps must be positive")
    L = l1z.circle_lipschitz_upper(L1ZSeq(f.coeffs)).value
    report = certs.certify_min_modulus(_circle_sampler(f), L, eps, N, _GRID_CAP)
    return report["ok"], report


def wiener_invert(
    f: L1ZSeq,
    eps: float,
    target: float,
    grid: int | None = None,
) -> Tuple[L1ZSeq, InversionCertificate]:
    """Certified inverse of a series bounded away from zero on the circle.

    Pipeline: certify the minimum modulus on a doubling grid, then sample
    the reciprocal of the symbol at ``M`` roots of unity, read the witness
    off the inverse transform and certify its residual, doubling ``M`` up
    to ``_GRID_CAP`` until the residual is at most ``target``.  Once the
    residual is below one, a doubling that does not halve it has reached
    the floating floor and ends the search.

    With ``budget = target / (8 (1 + ||f||))`` the read-off skips the (at
    most ``M``) coefficients below ``budget / M``, then truncates within
    ``budget`` and keeps the finite element that is left: dropping at most
    ``2 budget`` moves the residual by under ``target / 4``.
    """
    if not target > 0.0:
        raise InvalidInput("target must be positive")
    ok, report = circle_min_modulus_certify(f, eps, grid if grid is not None else 64)
    if not ok:
        raise HypothesisFailure(
            "hypothesis fails: no certified minimum modulus on the circle",
            report=report,
        )

    sample = _circle_sampler(f)
    lo, hi = f.support()
    budget = target / (8.0 * (1.0 + norm_upper(f).value))
    M = 64
    while M < 2 * max(abs(lo), abs(hi), 1) + 1:
        M *= 2
    best_rho = math.inf
    while M <= _GRID_CAP:
        coeff = np.fft.fft(1.0 / sample(M)[1]) / M
        j = np.flatnonzero(np.abs(coeff) > budget / M)
        n = np.where(j <= M // 2, j, j - M)
        h = l1z.truncate(L1ZSeq(dict(zip(n.tolist(), coeff[j].tolist()))), budget)
        h = L1ZSeq(h.coeffs)
        rho = residual_norm(f, h)
        if rho.value <= target:
            params = {"grid": report["N"], "degree": M, "target": target, "eps": eps}
            return h, InversionCertificate(h, rho, params)
        floor = best_rho < 1.0 and rho.value > best_rho / 2.0
        best_rho = min(best_rho, rho.value)
        if floor:
            break
        M *= 2
    raise CertificationFailure(
        "inversion not certified",
        report={"best_rho": best_rho, "grid": report["N"], "degree": M},
    )


def quotient_norm_upper(a: L1ZSeq, g: L1ZSeq, k: L1ZSeq) -> CertUpper:
    """Certified quotient-norm bound for ``a`` modulo the ideal of ``g``.

    The witness is the explicit ideal element ``g * k``.
    """
    base = norm_upper(sub(a, convolve(g, k)))
    return cu_add(base, _conv_roundoff(g, k))
