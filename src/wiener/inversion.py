"""Invertibility machinery for the sequence algebra.

Contains the geometric-series inverse, the perturbation bound for
inverses, quadratic residual refinement, grid certification of a minimum
modulus on the unit circle, the full inversion pipeline (reciprocal
sampling + refinement + certificate), and quotient-norm witnesses.

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
    base = norm_upper(sub(delta(0), convolve(f, witness)))
    return cu_add(base, _conv_roundoff(f, witness))


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


def newton_refine(
    f: L1ZSeq,
    x0: L1ZSeq,
    target: float,
    max_iter: int = 40,
) -> Tuple[L1ZSeq, InversionCertificate]:
    """Quadratic refinement ``x <- x * (2 - f*x)`` with certified residual.

    The iterate is a concrete finite element: each step truncates it to
    keep the support bounded and discards the dropped mass (any witness
    is admissible; the certificate is the recomputed residual of the
    finite witness itself).  The truncation budget is scaled by the norm
    of ``f`` and shrinks per step so it never floors the residual above
    ``target``.
    """
    if not target > 0.0:
        raise InvalidInput("target must be positive")
    x0 = L1ZSeq(dict(x0.coeffs))
    rho = residual_norm(f, x0)
    if rho.value >= 1.0:
        raise HypothesisFailure(
            "seed not contracting", report={"rho": rho.value}
        )
    nf = norm_upper(f).value
    x = x0
    for k in range(max_iter):
        if rho.value <= target:
            break
        two = delta(0, 2.0)
        x = convolve(x, sub(two, convolve(f, x)))
        budget = target / (8.0 * (1.0 + nf) * (2.0 ** min(k, 60)))
        x = L1ZSeq(dict(l1z.truncate(x, budget).coeffs))
        rho = residual_norm(f, x)
    else:
        raise CertificationFailure(
            "did not converge", report={"rho": rho.value, "target": target}
        )
    cert = InversionCertificate(
        witness=x,
        residual=rho,
        params={"method": "newton", "target": target, "max_iter": max_iter},
    )
    return x, cert


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

    Pipeline: certify the minimum modulus on a doubling grid, sample the
    reciprocal of the truncated symbol at roots of unity, read a
    candidate off the inverse transform, certify a contracting residual,
    then refine quadratically down to ``target``.
    """
    if not target > 0.0:
        raise InvalidInput("target must be positive")
    ok, report = circle_min_modulus_certify(f, eps, grid if grid is not None else 64)
    if not ok:
        raise HypothesisFailure(
            "hypothesis fails: no certified minimum modulus on the circle",
            report=report,
        )

    g = l1z.truncate(f, eps / 8.0) if len(f.coeffs) > 2048 else f
    sample = _circle_sampler(g)
    lo, hi = g.support()
    deg = max(abs(lo), abs(hi), 1)

    M = 64
    while M < 2 * deg + 1:
        M *= 2
    best_rho = math.inf
    while True:
        if M > _GRID_CAP:
            raise CertificationFailure(
                "inversion not certified",
                report={"best_rho": best_rho, "grid": report["N"], "degree": M},
            )
        coeff = np.fft.fft(1.0 / sample(M)[1]) / M
        j = np.flatnonzero(np.abs(coeff) > 1e-300)
        n = np.where(j <= M // 2, j, j - M)
        h = l1z.truncate(L1ZSeq(dict(zip(n.tolist(), coeff[j].tolist()))), target / 8.0)
        rho = residual_norm(f, h)
        if rho.value < 1.0:
            break
        best_rho = min(best_rho, rho.value)
        M *= 2
    inverse, cert = newton_refine(f, h, target)
    params = dict(cert.params)
    params.update({"grid": report["N"], "degree": M, "target": target, "eps": eps})
    return inverse, InversionCertificate(inverse, cert.residual, params)


def quotient_norm_upper(a: L1ZSeq, g: L1ZSeq, k: L1ZSeq) -> CertUpper:
    """Certified quotient-norm bound for ``a`` modulo the ideal of ``g``.

    The witness is the explicit ideal element ``g * k``.
    """
    base = norm_upper(sub(a, convolve(g, k)))
    return cu_add(base, _conv_roundoff(g, k))
