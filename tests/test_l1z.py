"""Sequence algebra: laws, norm soundness, evaluation, serialization."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiener import l1z
from wiener.certs import CU_ZERO, CertUpper, cu, cu_add, cu_from_float_sum, cu_mul, cu_sum
from wiener.errors import BoundOverflow, InvalidInput
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


def _assert_product_within_envelope(a, b, got):
    # the one-norm error within the certified rounding envelope of the
    # convolution; returns the oracle's product
    want = mp_seq_conv(a.coeffs, b.coeffs)
    err = mpmath.fsum(abs(mpc(got.coeffs.get(n, 0j)) - v) for n, v in want.items())
    assert err <= l1z.conv_roundoff(a, b).value
    return want


def test_block_convolution_matches_oracle(rng):
    # 120 of 601 indices: blocks with zero runs inside, one np.convolve per pair
    idx = rng.choice(np.arange(-300, 301), size=120, replace=False)
    a = L1ZSeq({int(k): complex(rng.normal(), rng.normal()) for k in idx})
    idx = rng.choice(np.arange(-300, 301), size=120, replace=False)
    b = L1ZSeq({int(k): complex(rng.normal(), rng.normal()) for k in idx})
    got = l1z.convolve(a, b)
    want = _assert_product_within_envelope(a, b, got)
    assert set(got.coeffs) == {n for n, v in want.items() if v != 0}


def test_far_support_convolution_matches_oracle():
    # 101 dense coefficients and one at 10**6: two blocks, no span-sized array
    a = L1ZSeq({**{n: complex(1.0 / (n + 1), 0.5) for n in range(101)}, 10 ** 6: 0.25j})
    assert [o for o, _ in a.blocks] == [0, 10 ** 6]
    got = l1z.convolve(a, a)
    want = _assert_product_within_envelope(a, a, got)
    assert set(got.coeffs) == {n for n, v in want.items() if v != 0}
    assert {10 ** 6, 2 * 10 ** 6} <= set(got.coeffs)


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


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(0.0, math.nan), complex(0.0, -math.inf)])
def test_scale_rejects_non_finite_scalar(c):
    # with or without a tail to scale, and with or without coefficients
    want = InvalidInput if cmath.isnan(c) else BoundOverflow
    for a in (l1z.zero(), delta(3, 0.5)):
        with pytest.raises(want):
            l1z.scale(c, a)


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


def test_truncate_tie_break_prefers_small_then_positive_index():
    a = L1ZSeq({-2: 1.0, -1: 1j, 0: 8.0, 1: -1.0, 2: -1j})
    # k unit moduli certify at k (1 + O(ulp)): each budget drops k of the ties
    for budget, dropped in ((1.5, {1}), (2.5, {1, -1}), (3.5, {1, -1, 2})):
        assert set(l1z.truncate(a, budget).coeffs) == {-2, -1, 0, 1, 2} - dropped


def test_block_boundaries_at_the_gap():
    # at most _GAP zeros stay inside a block and one more starts a new one,
    # whichever operation builds the element
    g = l1z._GAP
    for n, count in ((g + 1, 1), (g + 2, 2)):
        pair = L1ZSeq({0: 1.0, n: 1.0})
        for r in (pair, l1z.add(delta(0), delta(n)), l1z.convolve(delta(0), pair),
                  l1z.truncate(L1ZSeq({0: 1.0, 1: 1e-20, n: 1.0}), 1e-10)):
            assert len(r.blocks) == count and set(r.coeffs) == {0, n}
    # two clusters of two overlapping pieces each, so the pieces are summed (to
    # an exact zero at index 1): _GAP + 1 zeros between the clusters cut them
    # apart, _GAP make one cluster
    rng = np.random.default_rng(23)
    for zeros, count in ((g + 1, 2), (g, 1)):
        x = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4)]
        x[1][0] = -x[0][1]
        pieces = [(0, x[0]), (1, x[1]), (4 + zeros, x[2]), (5 + zeros, x[3])]
        for order in (pieces, pieces[::-1]):
            want = {}
            for o, v in order:  # Python complex sums, in the order of the pieces
                for n, c in enumerate(v.tolist(), o):
                    want[n] = want.get(n, 0j) + c
            blocks = l1z._merge(order)
            assert want.pop(1) == 0
            assert len(blocks) == count and _bits(L1ZSeq(blocks).coeffs) == _bits(want)


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


# ---------------------------------------------------------------------------
# blocks: dense runs, lacunary gaps around the block constant, indices near
# +-2**70; every result is checked against 200-bit mpmath

_POOL = st.sampled_from([1.0, -0.5, 0.5j, 0.5, 0.25 + 0.25j, -2.0 + 1.0j, 0j])


def _coeffs(part):
    # repeated moduli for truncate's ties, zeros for runs inside a block
    return st.one_of(st.builds(complex, part, part), _POOL)


# generic parts, far enough above the subnormals that no product underflows
_GENERIC = _coeffs(st.one_of(st.just(0.0), st.floats(1e-100, 10.0), st.floats(-10.0, -1e-100)))
# dyadic parts k 2**e: every product and sum of these elements is exact
_DYADIC = _coeffs(st.builds(lambda k, e: k * 2.0 ** e, st.integers(-255, 255), st.integers(-4, 4)))
_G = l1z._GAP


@st.composite
def blocky(draw, coeffs=_GENERIC):
    out, n = {}, draw(st.sampled_from([-(2 ** 70) - 3, -20, 0, 2 ** 70 - 7]))
    for _ in range(draw(st.integers(0, 3))):
        for c in draw(st.lists(coeffs, min_size=1, max_size=8)):
            out[n] = c
            n += 1
        n += draw(st.sampled_from([0, 1, _G - 1, _G, _G + 1, _G + 2, 300, 2 ** 70]))
    return L1ZSeq(out, cu(draw(st.sampled_from([0.0, 0.0, 0.125]))))


def _assert_sound_block_element(r):
    # canonical blocks that own their memory (so no small block pins a large
    # buffer), a sound norm and a lossless JSON round trip
    prev = None
    for o, x in r.blocks:
        nz = np.flatnonzero(x)
        assert x.base is None and not x.flags.writeable and x[0] != 0 and x[-1] != 0
        assert np.all(np.diff(nz) <= _G + 1)
        assert prev is None or o - prev > _G + 1
        prev = o + x.size - 1
    with mpmath.workprec(200):
        true = mp_seq_norm(r.coeffs) + mpmath.mpf(r.tail.value)
        assert mpmath.mpf(l1z.norm_upper(r).value) >= true
    assert l1z.loads(l1z.dumps(r)) == r


def _rounded(want):
    """The nonzero 200-bit values, each part rounded to the nearest double."""
    return {n: complex(v) for n, v in want.items() if v != 0}


@given(blocky(_DYADIC), blocky(_DYADIC), blocky(), blocky())
@settings(max_examples=40, deadline=None)
def test_blocks_convolve_add_sub(a, b, c, d):
    with mpmath.workprec(200):
        # exact arithmetic: the product's index set and values are the oracle's
        got = l1z.convolve(a, b)
        assert got.coeffs == _rounded(mp_seq_conv(a.coeffs, b.coeffs))
        _assert_sound_block_element(got)
        # rounded arithmetic: within the certified envelope, on the support's sums
        got = l1z.convolve(c, d)
        assert set(got.coeffs) <= set(_assert_product_within_envelope(c, d, got))
        _assert_sound_block_element(got)
        for sign, got in ((1, l1z.add(c, d)), (-1, l1z.sub(c, d))):
            # one rounding per part: the correctly rounded exact sum
            want = {n: mpc(c.coeffs.get(n, 0j)) + sign * mpc(d.coeffs.get(n, 0j))
                    for n in set(c.coeffs) | set(d.coeffs)}
            assert got.coeffs == _rounded(want)
            _assert_sound_block_element(got)


@given(blocky(), blocky(), _GENERIC,
       st.one_of(st.integers(-200, 200), st.sampled_from([2 ** 70, -(2 ** 71)])),
       st.sampled_from([1.0, 0.5, -4.0]))
@settings(max_examples=40, deadline=None)
def test_blocks_scale_shift_weighted_sum(a, b, c, k, w):
    got = l1z.scale(c, a)
    assert got.coeffs == {n: c * v for n, v in a.coeffs.items() if c * v != 0}
    _assert_sound_block_element(got)
    got = l1z.shift(a, k)
    assert got.coeffs == {n + k: v for n, v in a.coeffs.items()} and got.tail == a.tail
    _assert_sound_block_element(got)
    # a power-of-two weight scales exactly: one rounding per part again
    got = l1z.weighted_sum([a, b], w)
    with mpmath.workprec(200):
        want = {n: w * (mpc(a.coeffs.get(n, 0j)) + mpc(b.coeffs.get(n, 0j)))
                for n in set(a.coeffs) | set(b.coeffs)}
        assert got.coeffs == _rounded(want)
    assert got.tail == cu_add(cu_mul(cu(abs(w)), cu_sum([a.tail, b.tail])), CU_ZERO)
    _assert_sound_block_element(got)


@given(blocky(), st.floats(0.0, 1.5))
@settings(max_examples=60, deadline=None)
def test_blocks_truncate_keeps_the_sort_and_scan_set(a, frac):
    budget = max(frac * l1z.norm_upper(a).value, 1e-300)
    got = l1z.truncate(a, budget)
    # drop in the order (|c|, |n|, -n) while the certified running sum fits
    order = sorted(a.coeffs.items(), key=lambda item: (abs(item[1]), abs(item[0]), -item[0]))
    kept, dropped, total = dict(a.coeffs), CU_ZERO, 0.0
    for k, (n, c) in enumerate(order, 1):
        total += abs(c)
        step = cu_from_float_sum(total, k + 1)
        if step.value > budget:
            break
        dropped = step
        del kept[n]
    assert got.coeffs == kept
    assert got.tail == cu_add(a.tail, dropped)
    _assert_sound_block_element(got)


# ---------------------------------------------------------------------------
# folding mod n, and signed zeros


def _runs_at(rng, runs):
    # dense runs (offset, length) of coefficients spread over eleven decades
    coeffs = {}
    for o, size in runs:
        mag = 10.0 ** rng.uniform(-8.0, 3.0, size)
        vals = mag * (rng.normal(size=size) + 1j * rng.normal(size=size))
        coeffs.update(zip(range(o, o + size), vals.tolist()))
    return L1ZSeq(coeffs)


@pytest.mark.parametrize("n", [8, 64, 1000, 4096, 2 ** 20])
def test_fold_matches_oracle_within_its_bound(n):
    rng = np.random.default_rng(n)
    far = 2 ** 70
    elements = [
        # spans of about 6,000 (above every n but 2**20) near +-2**70
        _runs_at(rng, [(far - 11, 700), (far + 5000, 900)]),
        _runs_at(rng, [(-far - 6000, 1200), (-far + 40, 500)]),
        # a span of 2**71, so indices on both sides of 0 fold together
        _runs_at(rng, [(-far + 5, 300), (-3, 800), (far - 7, 300)]),
    ]
    for a in elements:
        x, bound = l1z.fold(a, n)
        assert x.shape == (n,)
        with mpmath.workprec(200):
            exact = {}
            for k, c in a.coeffs.items():
                exact[k % n] = exact.get(k % n, 0) + mpc(c)
            assert set(np.flatnonzero(x).tolist()) <= set(exact)
            err = mpmath.fsum(abs(mpc(complex(x[j])) - v) for j, v in exact.items())
            assert err <= bound


def _bits(coeffs):
    return {n: (math.copysign(1.0, c.real), c.real, math.copysign(1.0, c.imag), c.imag)
            for n, c in coeffs.items()}


def test_signed_zero_parts_kept():
    # -0.0 parts inside a block, in a far block and in a lone piece
    a = L1ZSeq({0: 1 - 0j, 1: complex(-0.0, 0.5), 200: complex(-0.0, -2.0), 2 ** 70: -3.0})
    assert _bits(a.coeffs) == _bits({0: 1 - 0j, 1: complex(-0.0, 0.5),
                                     200: complex(-0.0, -2.0), 2 ** 70: -3.0})
    assert _bits(l1z.neg(a).coeffs) == _bits({n: -c for n, c in a.coeffs.items()})
    # scale rounds as Python's complex product, whose zeros are signed too,
    # and 1.0 multiplies as any other scalar does
    for c in (1.0, -1.0, 0.5j, -2.0 + 0.25j):
        assert _bits(l1z.scale(c, a).coeffs) == _bits({n: c * v for n, v in a.coeffs.items()})
    assert math.copysign(1.0, l1z.scale(1.0, a).coeffs[200].real) == 1.0


def test_signed_zeros_do_not_depend_on_argument_order():
    # far-apart pieces with -0.0 parts: nothing is summed, so either order keeps them
    a = L1ZSeq({0: complex(-0.0, 1.0), 2 ** 70: complex(3.0, -0.0)})
    b = L1ZSeq({100: complex(2.0, -0.0), -500: complex(-0.0, -0.0)})
    assert l1z.dumps(l1z.add(a, b)) == l1z.dumps(l1z.add(b, a))
    assert '"re": -0.0' in l1z.dumps(l1z.add(b, a))
    assert l1z.dumps(l1z.sub(a, b)) == l1z.dumps(l1z.add(l1z.neg(b), a))
    assert l1z.dumps(l1z.sub(b, a)) == l1z.dumps(l1z.add(l1z.neg(a), b))
