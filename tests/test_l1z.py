"""Sequence algebra: laws, norm soundness, evaluation, serialization."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiener import l1z
from wiener.certs import CU_ZERO, CertUpper, cu
from wiener.errors import InvalidInput
from wiener.l1z import L1ZSeq, delta

from conftest import mp_abs_sum, mp_seq_conv, mp_seq_norm, mpc, random_seq

coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
seqs = st.dictionaries(st.integers(-12, 12), coeff, max_size=6).map(L1ZSeq)


def test_construction_drops_zeros_and_rejects_bad():
    a = L1ZSeq({0: 1.0, 3: 0.0})
    assert 3 not in a.coeffs
    with pytest.raises(InvalidInput):
        L1ZSeq({0: complex(float("nan"), 0)})
    with pytest.raises(InvalidInput):
        L1ZSeq({0: complex(float("inf"), 0)})


def test_support():
    assert l1z.zero().support() == (0, 0)
    assert L1ZSeq({-3: 1.0, 5: 2.0}).support() == (-3, 5)


def test_unit_law():
    a = L1ZSeq({-2: 1 + 2j, 0: -0.5, 7: 3j})
    assert l1z.convolve(delta(0), a) == a
    assert l1z.convolve(a, delta(0)) == a


@given(seqs, seqs)
@settings(max_examples=100, deadline=None)
def test_convolve_commutative(a, b):
    ab = l1z.convolve(a, b)
    ba = l1z.convolve(b, a)
    for n in set(ab.coeffs) | set(ba.coeffs):
        assert abs(ab.coeffs.get(n, 0j) - ba.coeffs.get(n, 0j)) <= 1e-9


@given(seqs, seqs)
@settings(max_examples=100, deadline=None)
def test_convolve_matches_oracle(a, b):
    got = l1z.convolve(a, b)
    want = mp_seq_conv(a.coeffs, b.coeffs)
    for n, v in want.items():
        g = mpc(got.coeffs.get(n, 0j))
        assert abs(g - v) <= 1e-9 * (1.0 + abs(v))


def test_dense_path_matches_dict_path(rng):
    # cross the dense-convolution threshold and compare against the oracle
    idx = rng.choice(np.arange(-300, 301), size=120, replace=False)
    a = L1ZSeq({int(k): complex(rng.normal(), rng.normal()) for k in idx})
    idx = rng.choice(np.arange(-300, 301), size=120, replace=False)
    b = L1ZSeq({int(k): complex(rng.normal(), rng.normal()) for k in idx})
    got = l1z.convolve(a, b)  # 120 * 120 > dense threshold
    want = mp_seq_conv(a.coeffs, b.coeffs)
    for n, v in want.items():
        assert abs(mpc(got.coeffs.get(n, 0j)) - v) <= 1e-9 * (1.0 + abs(v))


def test_far_support_convolution_matches_dict_loop():
    # 102 coefficients reaching 10**6 pass the pair-count test for the dense
    # path, whose arrays would span 10**12 products; the dict loop is exact
    a = L1ZSeq({**{n: complex(1.0 / (n + 1), 0.5) for n in range(101)}, 10 ** 6: 0.25j})
    want = {}
    for i, ca in sorted(a.coeffs.items()):
        for j, cb in sorted(a.coeffs.items()):
            want[i + j] = want.get(i + j, 0j) + ca * cb
    assert l1z.convolve(a, a) == L1ZSeq(want)


@given(seqs)
@settings(max_examples=100, deadline=None)
def test_norm_sound(a):
    assert mpmath.mpf(l1z.norm_upper(a).value) >= mp_seq_norm(a.coeffs)


@given(seqs, seqs)
@settings(max_examples=100, deadline=None)
def test_norm_submultiplicative(a, b):
    # the true norm of the product is below the product of the bounds
    true = mp_seq_norm(mp_seq_conv(a.coeffs, b.coeffs))
    bound = mpmath.mpf(l1z.norm_upper(a).value) * mpmath.mpf(l1z.norm_upper(b).value)
    assert true <= bound * (1 + mpmath.mpf(2) ** -40)


@given(seqs, seqs)
@settings(max_examples=100, deadline=None)
def test_norm_triangle(a, b):
    true = mp_seq_norm(l1z.add(a, b).coeffs)
    assert true <= mpmath.mpf(l1z.norm_upper(a).value) + mpmath.mpf(
        l1z.norm_upper(b).value
    )


@given(seqs, st.integers(-20, 20))
@settings(max_examples=100, deadline=None)
def test_shift_isometry(a, k):
    assert l1z.norm_upper(l1z.shift(a, k)).value == l1z.norm_upper(a).value


@given(seqs, coeff)
@settings(max_examples=100, deadline=None)
def test_scale_linear(a, c):
    sc = l1z.scale(c, a)
    for n, v in a.coeffs.items():
        assert sc.coeffs.get(n, 0j) == c * v


def test_linear_ops():
    a = L1ZSeq({0: 1.0, 1: 2j})
    b = L1ZSeq({1: -2j, 4: 1.0})
    s = l1z.add(a, b)
    assert s.coeffs == {0: 1.0, 4: 1.0}
    assert l1z.sub(a, a) == l1z.zero()
    assert l1z.neg(a).coeffs == {0: -1.0, 1: -2j}


def test_tails_combine_subadditively():
    a = L1ZSeq({0: 1.0}, cu(0.125))
    b = L1ZSeq({0: 2.0}, cu(0.25))
    c = l1z.convolve(a, b)
    # cross bound: tail_a*||b|| + tail_b*||a|| + tail_a*tail_b
    want = 0.125 * 2.25 + 0.25 * 1.125 + 0.125 * 0.25
    assert c.tail.value >= want
    assert c.tail.value <= want * 1.001


@given(seqs)
@settings(max_examples=100, deadline=None)
def test_eval_circle_matches_oracle(a, ):
    for theta in (0.0, 0.7, 2.0, -1.3):
        lam = cmath.exp(1j * theta)
        v, err = l1z.eval_circle(a, lam)
        mlam = mpmath.exp(mpmath.mpc(0, theta))
        want = mpmath.fsum(
            (mpc(c) * mlam ** n for n, c in a.coeffs.items()), absolute=False
        )
        assert abs(mpc(v) - want) <= l1z.eval_roundoff_bound(a) + 1e-300
        assert err.value == a.tail.value


def test_eval_circle_rejects_off_circle():
    with pytest.raises(InvalidInput):
        l1z.eval_circle(delta(0), 0.5 + 0.5j)
    # NaN compares false against the circle tolerance and must still fail
    for lam in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(InvalidInput):
            l1z.eval_circle(delta(0), lam)


@given(seqs)
@settings(max_examples=50, deadline=None)
def test_circle_lipschitz(a):
    L = l1z.circle_lipschitz_upper(a).value
    for t1, t2 in ((0.1, 0.3), (1.0, 1.001), (-2.0, 2.5)):
        l1, l2 = cmath.exp(1j * t1), cmath.exp(1j * t2)
        v1, _ = l1z.eval_circle(a, l1)
        v2, _ = l1z.eval_circle(a, l2)
        slack = 2.0 * l1z.eval_roundoff_bound(a) + 1e-12
        assert abs(v1 - v2) <= L * abs(l1 - l2) + slack


def test_circle_lipschitz_needs_finite_support():
    with pytest.raises(InvalidInput):
        l1z.circle_lipschitz_upper(L1ZSeq({0: 1.0}, cu(0.1)))


def test_truncate_is_sound_and_budgeted():
    a = L1ZSeq({0: 1.0, 1: 0.01, 2: 0.02, 3: 0.5})
    t = l1z.truncate(a, 0.05)
    dropped = mp_seq_norm({n: c for n, c in a.coeffs.items() if n not in t.coeffs})
    assert mpmath.mpf(t.tail.value) >= dropped
    assert t.tail.value <= 0.05
    assert 0 in t.coeffs and 3 in t.coeffs


def test_truncate_rejects_nonpositive_budget():
    with pytest.raises(InvalidInput):
        l1z.truncate(delta(0), 0.0)


def test_json_round_trip():
    a = L1ZSeq({-2: 1 + 2j, 0: -0.5, 7: 3j}, cu(0.125))
    assert l1z.loads(l1z.dumps(a)) == a


def test_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        l1z.loads("not json")
    with pytest.raises(InvalidInput):
        l1z.loads("[]")
    with pytest.raises(InvalidInput):
        l1z.loads('{"coeffs": [{"n": 1, "re": 0.5}]}')
    with pytest.raises(InvalidInput):
        l1z.from_jsonable(
            {"coeffs": [{"n": 1, "re": 1.0, "im": 0.0}, {"n": 1, "re": 2.0, "im": 0.0}]}
        )
    # an overflowing tail or index is malformed input, not a bound overflow
    with pytest.raises(InvalidInput):
        l1z.loads('{"coeffs": [{"n": 0, "re": 1.0, "im": 0.0}], "tail": 1e400}')
    with pytest.raises(InvalidInput):
        l1z.loads('{"coeffs": [{"n": 1e400, "re": 1.0, "im": 0.0}]}')


def test_json_deterministic():
    a = L1ZSeq({5: 1.0, -5: 2.0, 0: 3.0})
    assert l1z.dumps(a) == l1z.dumps(L1ZSeq(dict(reversed(list(a.coeffs.items())))))
