"""Inversion pipeline: series inverses, certification, sampled inverses."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_wiener_invert_folds_each_grid_once(monkeypatch):
    # the certifier samples with the call's own sampler, so the read-off at
    # the certified grid folds nothing again; no sampler outlives the call
    folds = []
    fold = l1z.fold
    monkeypatch.setattr(l1z, "fold", lambda a, n: folds.append(n) or fold(a, n))
    f = L1ZSeq({0: 1.0, 1: 0.2j, -1: -0.2j})
    _, cert = inversion.wiener_invert(f, 0.5, 1e-9)
    assert folds == [64] and cert.params["grid"] == cert.params["degree"] == 64
    assert len(inversion._SAMPLERS) == 0
    ok, report = inversion.circle_min_modulus_certify(f, 0.5, 64)
    assert ok and folds == [64, 64] and len(inversion._SAMPLERS) == 0


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


def _loop_read_off(coeffs, M, budget):
    """The read-off one coefficient at a time, from the window's ``n -> c``.

    Keeps each ``|c| > budget / M``, then drops the smallest in ``(|c|,
    |n|, -n)`` order while their float running sum stays within ``budget``.
    """
    kept = {n: c for n, c in coeffs.items() if abs(c) > budget / M}
    total = 0.0
    for n, c in sorted(kept.items(), key=lambda item: (abs(item[1]), abs(item[0]), -item[0])):
        total += abs(c)
        if total > budget:
            break
        del kept[n]
    return L1ZSeq(kept)


def _window(coeffs, M):
    """The coefficients ``n -> c`` as the array at ``n = 1 - M/2 ... M/2``."""
    x = np.zeros(M, dtype=complex)
    for n, c in coeffs.items():
        x[n + M // 2 - 1] = c
    return x


@pytest.mark.parametrize(
    "coeffs", [{0: 1.0, 1: 0.5, -3: 0.125}, {0: 2.0}, {0: 1.0, 40: -0.25j, -7: 0.3}]
)
def test_candidate_readoff_matches_loop(coeffs):
    # the witness is the loop read-off of the samples at the final degree,
    # with the dropped mass not carried along
    f, target = L1ZSeq(coeffs), 1e-8
    inv, cert = inversion.wiener_invert(f, 0.2, target)
    M = cert.params["degree"]
    budget = target / (8.0 * (1.0 + l1z.norm_upper(f).value))
    coeff = np.fft.fft(1.0 / inversion._circle_sampler(f)(M)[1]) / M
    # circular index j <= M/2 is n = j, a larger one n = j - M
    loop = {j if j <= M // 2 else j - M: complex(c) for j, c in enumerate(coeff.tolist())}
    want = _loop_read_off(loop, M, budget)
    assert l1z.dumps(inv) == l1z.dumps(cert.witness) == l1z.dumps(want)


def test_read_off_tie_break_prefers_small_then_positive_index():
    x = _window({-2: 1.0, -1: 1j, 0: 8.0, 1: -1.0, 2: -1j}, 64)
    # unit moduli sum exactly: a budget of k (and up to k + 1) drops k of the ties
    for budget, dropped in ((1.5, {1}), (2.0, {1, -1}), (2.5, {1, -1}), (3.5, {1, -1, 2})):
        assert set(inversion._read_off(x, budget).coeffs) == {-2, -1, 0, 1, 2} - dropped


_PART = st.floats(-1.0, 1.0)
_TIES = st.sampled_from([0j, 1e-3, -1e-3j, 0.5, 0.25 + 0.25j, -0.25 - 0.25j, 2.0 + 1.0j])


@given(st.dictionaries(st.integers(-31, 32), st.one_of(_TIES, st.builds(complex, _PART, _PART))),
       st.floats(0.0, 1.5))
@settings(max_examples=60, deadline=None)
def test_read_off_keeps_the_sort_and_scan_set(coeffs, frac):
    # repeated moduli, zeros and signed zeros: one numpy pass gives the loop's bits
    x = _window(coeffs, 64)
    budget = max(frac * float(np.sum(np.abs(x))), 1e-300)
    assert l1z.dumps(inversion._read_off(x, budget)) == l1z.dumps(_loop_read_off(coeffs, 64, budget))


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
    # above 2,048 coefficients the whole symbol is sampled: a shortened
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
    point, values, err, half = inversion._circle_sampler(L1ZSeq(coeffs))(N)
    assert values.shape == (N,) and half == math.pi / N
    # in ulps of 1 (2**-52): the argument 2 pi k / N is off by 2 |fl(pi) - pi| < 1.1,
    # and by the division's and the product's roundings, a relative 2**-53 of at most
    # 2 pi each (2 pi in all); the exponential's two parts, each within an ulp of a
    # value below 1, add 0.71
    for k in ks:
        assert abs(mpc(point(k)) - mpmath.expjpi(mpmath.mpf(2 * k) / N)) <= 9 * 2.0 ** -52
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
