"""Inversion pipeline: series inverses, certification, sampled inverses."""

import math

import mpmath
import numpy as np
import pytest

from wiener import inversion, l1z
from wiener.certs import cu
from wiener.errors import CertificationFailure, HypothesisFailure, InvalidInput
from wiener.l1z import L1ZSeq, delta

from conftest import mp_residual, mpc, random_seq


def test_residual_norm_unit():
    f = delta(0)
    assert inversion.residual_norm(f, delta(0)).value <= 1e-12


def test_neumann_geometric_oracle():
    # (1 - 0.3 z)^-1 has coefficients 0.3^n
    x = l1z.sub(delta(0), delta(1, 0.3))
    inv, cert = inversion.neumann_invert(x, 1e-10)
    for n in range(20):
        assert abs(inv.coeffs.get(n, 0j) - 0.3 ** n) <= 1e-10
    assert cert.residual.value <= 1e-10
    assert mp_residual(x, inv) <= mpmath.mpf(cert.residual.value)


def test_neumann_hypothesis_failure():
    with pytest.raises(HypothesisFailure) as exc:
        inversion.neumann_invert(l1z.sub(delta(0), delta(1, 1.5)), 1e-6)
    assert exc.value.report["rho"] >= 1.0


def test_neumann_rejects_bad_target():
    with pytest.raises(InvalidInput):
        inversion.neumann_invert(delta(0), 0.0)


def test_perturb_invert_bound():
    M = cu(2.0)
    b = inversion.perturb_invert_bound(M, cu(0.1), 0.5)
    assert b.value >= 4.0
    assert b.value <= 4.0 * 1.001
    with pytest.raises(HypothesisFailure):
        inversion.perturb_invert_bound(M, cu(0.3), 0.5)
    with pytest.raises(InvalidInput):
        inversion.perturb_invert_bound(M, cu(0.1), 1.5)


def test_circle_certify_succeeds_on_margin():
    # |1 + 0.5 cos theta| >= 0.5 on the circle
    f = L1ZSeq({0: 1.0, 1: 0.25, -1: 0.25})
    ok, report = inversion.circle_min_modulus_certify(f, 0.45, 1024)
    assert ok
    assert report["min_certified_lower"] >= 0.45
    assert not report["definitely_fails"]


def test_circle_certify_definite_failure():
    # vanishes at lambda = -1, which an even grid hits exactly
    f = L1ZSeq({0: 1.0, 1: 1.0})
    ok, report = inversion.circle_min_modulus_certify(f, 0.1, 64)
    assert not ok
    assert report["definitely_fails"]


def test_circle_certify_validates_input():
    with pytest.raises(InvalidInput):
        inversion.circle_min_modulus_certify(delta(0), 0.5, 4)
    with pytest.raises(InvalidInput):
        inversion.circle_min_modulus_certify(delta(0), -1.0, 64)
    # a start grid above the cap is not silently sampled in full
    for N in (2 * inversion._GRID_CAP, 2 ** 50):
        with pytest.raises(InvalidInput):
            inversion.circle_min_modulus_certify(delta(0), 0.5, N)


def test_wiener_invert_geometric():
    f = L1ZSeq({0: 1.0, 1: 0.5})
    inv, cert = inversion.wiener_invert(f, 0.45, 1e-9)
    for n in range(10):
        assert abs(inv.coeffs.get(n, 0j) - (-0.5) ** n) <= 1e-9
    assert cert.residual.value <= 1e-9
    assert cert.params["eps"] == 0.45


def test_wiener_invert_randomized_sound(rng):
    for _ in range(20):
        base = random_seq(rng, nmax=4, scale=0.1)
        nb = l1z.norm_upper(base).value
        if nb > 0:
            base = l1z.scale(0.3 / nb, base)
        f = l1z.add(delta(0), base)  # dominated by the unit: invertible
        inv, cert = inversion.wiener_invert(f, 0.5, 1e-8)
        assert cert.residual.value <= 1e-8
        assert mp_residual(f, inv) <= mpmath.mpf(cert.residual.value)


@pytest.mark.parametrize(
    "coeffs", [{0: 1.0, 1: 0.5, -3: 0.125}, {0: 2.0}, {0: 1.0, 40: -0.25j, -7: 0.3}]
)
def test_candidate_readoff_matches_loop(coeffs):
    # the witness is the loop read-off of the samples at the final degree,
    # truncated within the budget, with the dropped mass not carried along
    f, target = L1ZSeq(coeffs), 1e-8
    inv, cert = inversion.wiener_invert(f, 0.2, target)
    M = cert.params["degree"]
    budget = target / (8.0 * (1.0 + l1z.norm_upper(f).value))
    coeff = np.fft.fft(1.0 / inversion._circle_sampler(f)(M)[1]) / M
    loop = {}
    for j in range(M):
        n = j if j <= M // 2 else j - M
        c = complex(coeff[j])
        if abs(c) > budget / M:
            loop[n] = c
    want = L1ZSeq(l1z.truncate(L1ZSeq(loop), budget).coeffs)
    assert l1z.dumps(inv) == l1z.dumps(cert.witness) == l1z.dumps(want)


def _decaying_symbol(n, seed):
    """``1 - sum b_k e^(ik theta) z^k`` over ``|k| <= n // 2``, min modulus 0.45."""
    rng = np.random.default_rng(seed)
    half = (n - 1) // 2
    ks = np.arange(-half, half + 1)
    b = np.exp(-np.abs(ks) / max(1.25, half / 32.0)) * rng.uniform(0.5, 1.0, ks.size)
    b[half] = 0.0
    c = -(0.55 / b.sum()) * b * np.exp(1j * ks * rng.uniform(0.0, 2.0 * math.pi))
    c[half] = 1.0
    return L1ZSeq(dict(zip(ks.tolist(), c.tolist())))


@pytest.mark.parametrize(
    "f, eps, target",
    [
        (L1ZSeq({0: 1.0, 1: 0.5}), 0.45, 1e-15),
        (_decaying_symbol(2001, 2001), 0.4, 1e-12),
    ],
)
def test_wiener_invert_stops_at_floating_floor(f, eps, target):
    # both targets lie below what double sampling reaches: once the residual
    # is below one, a doubling that does not halve it ends the search
    with pytest.raises(CertificationFailure) as exc:
        inversion.wiener_invert(f, eps, target)
    report = exc.value.report
    assert target < report["best_rho"] < 1.0
    assert report["degree"] <= 2 ** 14 < inversion._GRID_CAP


def test_wiener_invert_long_symbol():
    # above 2,048 coefficients the whole symbol is sampled: a truncated
    # copy would floor the residual near its dropped mass times ||1/f||
    f = _decaying_symbol(3001, 3001)
    inv, cert = inversion.wiener_invert(f, 0.4, 1e-9)
    assert cert.residual.value <= 1e-9
    assert inversion.residual_norm(f, inv) == cert.residual


@pytest.mark.parametrize(
    "coeffs, eps, target",
    [
        ({0: 1.0, 500: 0.9j}, 0.05, 1e-10),  # lacunary, slow decay of the inverse
        ({0: 100.0, 1: 45.0, -2: 30.0}, 20.0, 1e-8),  # large norm
        ({0: 1000.0, 3: 400j}, 500.0, 1e-10),
    ],
)
def test_wiener_invert_oracle_residual(coeffs, eps, target):
    f = L1ZSeq(coeffs)
    inv, cert = inversion.wiener_invert(f, eps, target)
    assert cert.residual.value <= target
    assert inv.tail.value == 0.0
    assert mp_residual(f, inv) <= mpmath.mpf(cert.residual.value)


def test_wiener_invert_hypothesis_failure():
    f = L1ZSeq({0: 1.0, 1: 1.0})
    with pytest.raises(HypothesisFailure):
        inversion.wiener_invert(f, 0.25, 1e-6)


def test_grid_cap_env():
    # the grid cap is the fixed 2**20, with no environment knob: 1 + 0.5 z
    # has minimum modulus exactly 0.5, so eps = 0.5 is neither proved nor
    # refuted and the doubling must stop at the cap
    with pytest.raises(HypothesisFailure) as exc:
        inversion.wiener_invert(L1ZSeq({0: 1.0, 1: 0.5}), 0.5, 1e-6)
    assert exc.value.report["N"] == 2 ** 20
    assert not exc.value.report["definitely_fails"]
    inv, cert = inversion.wiener_invert(L1ZSeq({0: 1.0, 1: 0.9}), 0.05, 1e-6)
    assert cert.residual.value <= 1e-6


def _mp_circle_value(coeffs, N, k):
    """128-bit ``sum_n c_n w^(n k)`` with ``w = exp(2 pi i / N)``."""
    return mpmath.fsum(
        mpc(c) * mpmath.expjpi(mpmath.mpf(2 * (n * k % N)) / N) for n, c in coeffs.items()
    )


@pytest.mark.parametrize(
    "nnz, radius, scale, N, checked",
    [
        (600, 5000, 1.0, 16, 16),  # long sums fold: ~40 terms a bucket
        (1023, 511, 1.0, 1024, 16),  # dense, no fold: only the FFT rounds
        (40, 100, 1e-300, 256, 256),  # near the subnormal range
        (40, 100, 1e-318, 64, 64),  # inside it: only the absolute guard holds
        (200, 100_000, 1.0, 2 ** 16, 48),
        (200, 3000, 1.0, 1009, 48),  # prime length
    ],
)
def test_circle_samples_within_fft_envelope(nnz, radius, scale, N, checked):
    rng = np.random.default_rng(nnz + N)
    idx = rng.choice(np.arange(-radius, radius + 1), size=nnz, replace=False)
    vals = scale * (rng.normal(size=nnz) + 1j * rng.normal(size=nnz))
    ks = rng.choice(N, size=checked, replace=False).tolist() if checked < N else range(N)
    _check_circle_samples(dict(zip(idx.tolist(), vals.tolist())), N, ks)


def test_circle_samples_cover_cancelling_folds():
    # each bucket mod 16 sums to almost zero: the FFT sees a tiny input and
    # only the fold's own summation error is left to cover
    rng = np.random.default_rng(16)
    coeffs = {}
    for j in range(16):
        c = rng.normal(size=50) + 1j * rng.normal(size=50)
        coeffs.update(zip(range(j, j + 16 * 50, 16), (c - c.mean()).tolist()))
    _check_circle_samples(coeffs, 16, range(16))


def _check_circle_samples(coeffs, N, ks):
    points, values, err, half = inversion._circle_sampler(L1ZSeq(coeffs))(N)
    assert values.shape == points.shape == (N,) and half == math.pi / N
    worst = max(abs(mpc(values[k]) - _mp_circle_value(coeffs, N, k)) for k in ks)
    assert 0 < worst <= err


def test_quotient_norm_upper():
    a = delta(0)
    g = delta(1)
    k = l1z.zero()
    assert inversion.quotient_norm_upper(a, g, k).value >= 1.0
    # subtracting g * (g-inverse-ish) can only be checked for soundness
    b = inversion.quotient_norm_upper(delta(1), g, delta(0))
    assert b.value <= 1e-12


def test_certificate_jsonable():
    f = L1ZSeq({0: 1.0, 1: 0.5})
    _, cert = inversion.wiener_invert(f, 0.45, 1e-9)
    doc = cert.to_jsonable()
    assert set(doc) == {"witness", "residual", "params"}
    assert doc["residual"] <= 1e-9
