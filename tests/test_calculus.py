"""Algebra-valued calculus: certified integration, exp, resolvents."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from wiener import calculus, inversion, l1z
from wiener.calculus import (
    BanachCurve,
    circle_loop,
    constant_curve,
    lipschitz_curve,
    polynomial_map,
)
from wiener.certs import cu, cu_add, cu_mul
from wiener.errors import HypothesisFailure, InvalidInput, ToleranceUnreachable
from wiener.l1z import L1ZSeq, delta

from conftest import mp_abs_sum, mpc


def scalar_curve(fn, lip):
    """Scalar-valued curve embedded along the unit coefficient."""
    return lipschitz_curve(lambda t: delta(0, fn(t)), lip)


def test_path_loop_rejects_open_loop():
    with pytest.raises(InvalidInput):
        calculus.PathLoop(lambda t: t, lambda t: 1.0, cu(0.0))


def test_circle_loop_geometry():
    loop = circle_loop(2.0)
    assert abs(loop.point(0.25) - 2j) <= 1e-12
    assert abs(loop.derivative(0.0) - 4j * math.pi) <= 1e-12
    speed = loop.speed_upper().value
    assert speed >= 4.0 * math.pi
    assert speed <= 4.0 * math.pi * 1.02


def test_integrate_constant_exact():
    a = L1ZSeq({0: 2.0, 3: -1j})
    value, err = calculus.integrate(constant_curve(a), 0.0, 1.0, panels=4)
    assert abs(value.coeffs[0] - 2.0) <= 1e-12
    assert abs(value.coeffs[3] + 1j) <= 1e-12
    assert err.value <= 1e-9


def test_integrate_oracle():
    # integral of t*exp(it) over [0, 2] against 128-bit quadrature
    fn = lambda t: t * cmath.exp(1j * t)
    curve = scalar_curve(fn, lip=3.5)
    value, err = calculus.integrate(curve, 0.0, 2.0, tol=1e-3)
    want = mpmath.quad(lambda t: t * mpmath.exp(mpmath.mpc(0, 1) * t), [0, 2])
    assert abs(mpc(value.coeffs.get(0, 0j)) - want) <= err.value
    assert err.value <= 1e-3


def test_integrate_err_halves_with_panels():
    curve = scalar_curve(lambda t: cmath.exp(2j * t), lip=2.0)
    _, e1 = calculus.integrate(curve, 0.0, 1.0, panels=256)
    _, e2 = calculus.integrate(curve, 0.0, 1.0, panels=512)
    assert e1.value / e2.value >= 1.9


def test_integrate_validates():
    curve = constant_curve(delta(0))
    with pytest.raises(InvalidInput):
        calculus.integrate(curve, 1.0, 0.0, panels=2)
    with pytest.raises(InvalidInput):
        calculus.integrate(curve, 0.0, 1.0)
    for panels in (0, -3):
        with pytest.raises(InvalidInput):
            calculus.integrate(curve, 0.0, 1.0, panels=panels)
    value, err = calculus.integrate(curve, 1.0, 1.0, panels=2)
    assert value == l1z.zero() and err.value == 0.0


def test_integrate_rejects_panels_above_cap():
    def never(t):
        raise AssertionError("a panel past the cap was evaluated")

    curve = BanachCurve(never, lambda d: cu(0.0))
    for panels in (calculus._PANEL_CAP + 1, 10 ** 10):
        with pytest.raises(InvalidInput):
            calculus.integrate(curve, 0.0, 1.0, panels=panels)


def test_integrate_unreachable_tolerance():
    curve = BanachCurve(lambda t: delta(0), lambda d: cu(1.0))  # modulus never decays
    with pytest.raises(ToleranceUnreachable):
        calculus.integrate(curve, 0.0, 1.0, tol=1e-3)


def test_banach_exp_scalar_oracle():
    for c in (0.3, -1.2, 0.5j, 0.4 - 0.7j):
        e = calculus.banach_exp(delta(0, c), 1e-12)
        want = mpmath.exp(mpc(complex(c)))
        assert abs(mpc(e.coeffs[0]) - want) <= 1e-11
        assert e.tail.value <= 1e-12


def test_banach_exp_shift_coefficients():
    # exp(d1) has coefficients 1/n!
    e = calculus.banach_exp(delta(1), 1e-12)
    for n in range(8):
        assert abs(e.coeffs.get(n, 0j) - 1.0 / math.factorial(n)) <= 1e-11


def test_banach_exp_rejects_bad_tol():
    with pytest.raises(InvalidInput):
        calculus.banach_exp(delta(0), 0.0)


def test_exp_flow_property():
    a = l1z.scale(0.3, L1ZSeq({1: 1.0, -1: 0.5}))
    dev = calculus.exp_flow_check(a, 0.4, 0.7, 1e-10)
    assert dev.value <= 1e-8


def test_polynomial_map_eval_and_bounds():
    pm = polynomial_map([1.0, 0.0, -2.0], radius=2.0)  # 1 - 2 z^2
    v = pm.fn(1.5).coeffs[0]
    assert abs(v - (1.0 - 2.0 * 2.25)) <= 1e-12
    assert pm.sup_norm.value >= 9.0
    assert pm.modulus(0.1).value >= 8.0 * 0.1


# radius ** k underflows before the product: the first certified sup 0 for a
# true sup of 1e-30; the second's only term, 1e-330, is below the normal range.
# The third scales a subnormal coefficient up to 1e-300.
_UNDERFLOW = [
    ([0.0] * 33 + [1e300], 1e-10, False),
    ([0, 0, 0, 1.0], 1e-110, True),
    ([0.0, 1e-320j], 1e20, False),
]


@pytest.mark.parametrize("coeffs, radius, below_normal", _UNDERFLOW,
                         ids=["1e-30", "1e-330", "subnormal-coefficient"])
def test_polynomial_map_bounds_cover_underflowing_powers(coeffs, radius, below_normal):
    r = mpmath.mpf(radius)
    sup = mpmath.fsum(abs(mpc(complex(c))) * r ** k for k, c in enumerate(coeffs))
    lip = mpmath.fsum(k * abs(mpc(complex(c))) * r ** (k - 1) for k, c in enumerate(coeffs) if k)
    assert (sup < sys.float_info.min) == below_normal
    if below_normal:
        with pytest.raises(InvalidInput):
            polynomial_map(coeffs, radius)
        return
    pm = polynomial_map(coeffs, radius)
    # within 1e-12 relative, and the subnormal cushion of 1e-307 below 1e-300
    assert sup <= pm.sup_norm.value <= sup * (1 + 1e-12) + 2e-307
    assert lip <= pm.lip.value <= lip * (1 + 1e-12) + 2e-307


def test_loop_integral_of_polynomial_vanishes():
    pm = polynomial_map([0.5, 1.0, -0.25, 0.125j], radius=1.0)
    value, err = calculus.loop_integral(pm, circle_loop(1.0), steps=4096)
    assert l1z.norm_upper(value).value <= err.value


def test_polynomial_loop_tail_covers_rounding():
    # the exact midpoint sum of z^k dz over 64 nodes of a circle is 0 for k < 63,
    # so the finite part is rounding alone and must sit within the tail
    rng = np.random.default_rng(5)
    for radius in (0.5, 1.0, 3.0):
        coeffs = [complex(*rng.normal(size=2)) for _ in range(12)]
        value, _ = calculus.loop_integral(polynomial_map(coeffs, radius), circle_loop(radius), steps=64)
        assert mp_abs_sum(value.coeffs.values()) <= value.tail.value <= 1e-6


def test_resolvent_eval_scalar_oracle():
    # resolvent of c*unit at z is the scalar 1/(z - c)
    for c, z in ((0.5, 2.0), (0.3j, 1.5 + 1.5j), (-0.7, -3.0)):
        r = calculus.resolvent_eval(delta(0, c), z, 1e-12)
        want = 1.0 / (mpc(complex(z)) - mpc(complex(c)))
        assert abs(mpc(r.coeffs[0]) - want) <= 1e-10 + r.tail.value


def test_resolvent_eval_tail_covers_tail_of_u():
    # u = 0.5 d_1 with tail 0.1 contains u' = 0.5 d_1 + 0.1 d_0, whose
    # resolvent at z = 2 has coefficients 0.5^n / 1.9^(n+1)
    u = L1ZSeq({1: 0.5}, cu(0.1))
    r = calculus.resolvent_eval(u, 2.0, 1e-6)
    w = mpmath.mpf(19) / 10
    exact = {n: mpmath.mpf(0.5) ** n / w ** (n + 1) for n in range(200)}
    assert set(r.coeffs) <= set(exact)
    dist = mpmath.fsum(abs(exact[n] - mpc(r.coeffs.get(n, 0j))) for n in exact)
    assert dist > 0.04
    assert mpmath.mpf(r.tail.value) >= dist


def test_resolvent_eval_outside_region_raises():
    with pytest.raises(HypothesisFailure):
        calculus.resolvent_eval(delta(0, 2.0), 1.0, 1e-6)


def test_resolvent_loop_integral_is_2pii_unit():
    value, err = calculus.resolvent_loop_integral(delta(1), 2.0, 4096, 1e-8)
    dev = l1z.norm_upper(l1z.sub(value, delta(0, 2j * math.pi))).value
    assert dev <= err.value
    assert err.value <= 0.05


def _per_panel_reference(u, radius, tol, panels):
    """The loop integral as ``integrate`` over panels, one resolvent series per node."""
    fmap = calculus.resolvent_map(u, radius, tol)
    loop = circle_loop(radius)
    speed = loop.speed_upper()

    def modulus(d):
        wobble = cu_mul(fmap.sup_norm, cu_mul(loop.deriv_lipschitz, cu(d)))
        return cu_add(wobble, cu_mul(speed, fmap.modulus(speed.value * d)))

    def value(t):
        return l1z.scale(loop.derivative(t), calculus.resolvent_eval(u, loop.point(t), tol))

    return calculus.integrate(BanachCurve(value, modulus), 0.0, 1.0, panels=panels)


@pytest.mark.parametrize("u", [delta(1), L1ZSeq({-1: 0.1, 0: 0.2, 1: 0.3j})], ids=["delta1", "3-term"])
def test_loop_integral_matches_per_panel_reference(u):
    value, err = calculus.resolvent_loop_integral(u, 2.0, 256, 1e-6)
    ref, ref_err = _per_panel_reference(u, 2.0, 1e-6, 256)
    dist = l1z.norm_upper(l1z.sub(L1ZSeq(value.coeffs), L1ZSeq(ref.coeffs))).value
    tails = value.tail.value + ref.tail.value
    assert dist <= tails + err.value + ref_err.value
    # the same midpoint sum at the same nodes: apart by the tails and roundoff only
    assert dist <= tails + 1e-12


def test_resolvent_demo_input_against_exact_midpoint_sum():
    # the golden resolvent-demo input: u = delta(1), radius 2, 256 panels.  With
    # e_i = exp(2 pi i t_i), coefficient n of the exact midpoint sum of
    # (z - u)^-1 dz is (2 pi i / 256) 2^-n sum_i e_i^-n; past `cut` the
    # coefficients sum to at most 4 pi 2^-cut
    value, err = calculus.resolvent_loop_integral(delta(1), 2.0, 256, 1e-6)
    steps, cut = 256, 64
    inv = [mpmath.expjpi(-mpmath.mpf(2 * i + 1) / steps) for i in range(steps)]
    powers, exact = [mpmath.mpc(1)] * steps, []
    for n in range(cut):
        exact.append(2j * mpmath.pi / steps * mpmath.mpf(2) ** -n * mpmath.fsum(powers))
        powers = [p * x for p, x in zip(powers, inv)]
    assert set(value.coeffs) <= set(range(cut))
    dist = mpmath.fsum(abs(exact[n] - mpc(value.coeffs.get(n, 0j))) for n in range(cut))
    dist += 4 * mpmath.pi * mpmath.mpf(2) ** -cut
    assert dist <= value.tail.value
    dev = l1z.norm_upper(l1z.sub(value, delta(0, 2j * math.pi))).value
    assert dev <= err.value


def test_loop_integral_checks_steps_before_any_node():
    calls = []
    loop = calculus.PathLoop(lambda t: calls.append(t) or 1j, lambda t: calls.append(t) or 0j, cu(0.0))
    calls.clear()
    pm = polynomial_map([1.0], 1.0)
    cases = ((0, "panels must be at least 1"), (calculus._PANEL_CAP + 1, "panels must be at most 4194304"))
    for steps, message in cases:
        with pytest.raises(InvalidInput, match=message):
            calculus.loop_integral(pm, loop, steps)
    assert calls == []


def test_loop_integral_calls_its_path_a_fixed_number_of_times():
    # each closure maps the whole node array at once, whatever the step count
    plain = circle_loop(2.0)
    calls = {"point": 0, "derivative": 0}

    def counted(name):
        def fn(t):
            calls[name] += 1
            return getattr(plain, name)(t)
        return fn

    loop = calculus.PathLoop(counted("point"), counted("derivative"), plain.deriv_lipschitz)
    fmap = calculus.resolvent_map(delta(1), 2.0, 1e-6)
    seen = []
    for steps in (64, 4096):
        calls.update(point=0, derivative=0)
        value, err = calculus.loop_integral(fmap, loop, steps)
        seen.append(dict(calls))
        want, want_err = calculus.loop_integral(fmap, plain, steps)
        assert value.coeffs == want.coeffs and value.tail == want.tail and err == want_err
    assert seen[0] == seen[1]
    assert max(seen[0].values()) <= 3


def test_loop_samples_read_the_terms():
    # the trace's samples are the unit coefficient of f(gamma(t)) gamma'(t)
    u = L1ZSeq({-1: 0.1, 0: 0.2, 1: 0.3j})
    fmap, loop = calculus.resolvent_map(u, 2.0, 1e-9), circle_loop(2.0)
    ts, samples = calculus.loop_samples(fmap, loop, 64)
    assert len(ts) == len(samples) == 64
    # Python scalars, which the CLI's trace prints with %r
    assert type(ts) is list and all(type(t) is float for t in ts)
    assert type(samples) is list and all(type(s) is complex for s in samples)
    for t, s in zip(ts[::7], samples[::7]):
        z = loop.point(t)
        want = calculus.resolvent_eval(u, z, 1e-9).coeffs[0] * loop.derivative(t)
        assert abs(s - want) <= 1e-12
        assert abs(fmap.fn(z).coeffs[0] * loop.derivative(t) - want) <= 1e-12


def test_resolvent_loop_integral_rejects_small_radius():
    with pytest.raises(HypothesisFailure):
        calculus.resolvent_loop_integral(delta(1), 0.5, 64, 1e-6)


def test_resolvent_loop_integral_rejects_nonfinite_radius():
    for radius in (math.nan, math.inf):
        with pytest.raises(InvalidInput):
            calculus.resolvent_loop_integral(delta(1), radius, 64, 1e-6)


def test_mean_value_bound_check():
    curve = scalar_curve(lambda t: cmath.exp(1j * t), lip=1.0)
    assert calculus.mean_value_bound_check(curve, cu(1.0), 0.0, 1.0)
    fast = scalar_curve(lambda t: 10.0 * t, lip=10.0)
    assert not calculus.mean_value_bound_check(fast, cu(1.0), 0.0, 1.0)


# ---------------------------------------------------------------------------
# the shared power series: remainder rule at its cutovers
#
# On a shift ``delta(1, c)`` the k-th term sits alone at index k, so the
# top index of the result is the cut ``K`` and the dropped terms' norms
# are known exactly.


def _exp_dropped(c, K):
    c = abs(mpc(complex(c)))
    return mpmath.exp(c) - mpmath.fsum(c ** k / mpmath.factorial(k) for k in range(K + 1))


def _geometric_dropped(c, z, K):
    q = abs(mpc(complex(c))) / abs(mpc(complex(z)))
    return q ** (K + 1) / (1 - q) / abs(mpc(complex(z)))


def _series_cases(c, z, r):
    """Per series: name, run(tol), exact dropped mass past K, ``power_series`` inputs."""

    def neumann(tol):
        inv, cert = inversion.neumann_invert(l1z.sub(delta(0), delta(1, r)), tol)
        assert cert.params["terms"] == max(inv.coeffs) + 1
        return inv

    w = 1.0 / complex(z)
    return [
        ("exp", lambda tol: calculus.banach_exp(delta(1, c), tol),
         lambda K: _exp_dropped(c, K), (delta(0), delta(1, c), lambda k: 1.0 / k, 5000)),
        ("resolvent", lambda tol: calculus.resolvent_eval(delta(1, c), z, tol),
         lambda K: _geometric_dropped(c, z, K), (delta(0, w), delta(1, c), lambda k: w, 100_000)),
        ("neumann", neumann, lambda K: _geometric_dropped(r, 1.0, K),
         (delta(0), delta(1, r), lambda k: 1.0, 10_000)),
    ]


def _check_cut(result, tol, dropped):
    K = max(result.coeffs)
    assert set(result.coeffs) == set(range(K + 1))
    assert mpmath.mpf(result.tail.value) >= dropped(K)
    assert result.tail.value <= tol * (1.0 + 1e-15)
    return K


@pytest.mark.parametrize("c", [2.0, 3.0, -4.5j, 5.5])
def test_exp_remainder_held_open_below_norm(c):
    # q = ||a|| / (K + 2) must drop below one before any cut: at K = 0 and
    # c = 5.5, T_1 = 5.5 is far below tol = 100 but the dropped mass is 243
    for tol in (100.0, 10.0, 1.0, 1e-3, 1e-9):
        K = _check_cut(calculus.banach_exp(delta(1, c), tol), tol, lambda K: _exp_dropped(c, K))
        assert K + 2 > abs(c)


def test_series_remainder_ratio_near_one():
    # |c| / |z| and r within 1e-3 of 1: thousands of terms before the cut
    c, z, r = 0.9991, 1j, 0.9991
    for name, run, dropped, _ in _series_cases(c, z, r):
        if name == "exp":
            continue
        tol = 0.1 if name == "resolvent" else 0.25
        K = _check_cut(run(tol), tol, dropped)
        assert K > 5000


def test_series_remainder_tol_at_computed_bound():
    # tol equal to the certified remainder at some K cuts exactly there;
    # one ulp below it the cut moves on by one term
    for name, run, dropped, (first, y, step, cap) in _series_cases(0.7, 1.5j, 0.6):
        t0, ny = l1z.norm_upper(first).value, l1z.norm_upper(y).value
        for start in (1e-2, 1e-7, 1e-12):
            K, rem = l1z._series_cut(t0, ny, step, start, cap)
            assert _check_cut(run(rem), rem, dropped) == K
            below = math.nextafter(rem, 0.0)
            assert _check_cut(run(below), below, dropped) == K + 1


def test_neumann_cap_raises_tolerance_unreachable():
    # ||1 - x|| = 0.9999 needs about 3e5 terms for 1e-12, past the cap
    with pytest.raises(ToleranceUnreachable):
        inversion.neumann_invert(l1z.sub(delta(0), delta(1, 0.9999)), 1e-12)


# ---------------------------------------------------------------------------
# far-apart supports go through the sparse convolution path

_FAR = [
    (L1ZSeq({0: 1.0, 2 ** 70: 1e-300}), 2 ** 70, 1.0, 1e-300, 2.0),
    (delta(10 ** 6, 0.5), 10 ** 6, 0.0, 0.5, 0.75j),
]


@pytest.mark.parametrize("u, far, alpha, beta, z", _FAR, ids=["2**70", "10**6"])
def test_far_support_series_match_oracle(u, far, alpha, beta, z):
    # u = alpha + beta S with S the shift by `far`: exp(u) has coefficient
    # e^alpha beta^m / m! at m * far, and (z - u)^-1 has beta^m / (z - alpha)^(m+1).
    # Coefficient rounding is not in the tails yet (ROADMAP item 1), so the
    # check is per coefficient rather than in the one-norm.
    a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpc(complex(z))
    oracles = [
        (calculus.banach_exp(u, 1e-9),
         lambda m: mpmath.exp(a) * b ** m / mpmath.factorial(m)),
        (calculus.resolvent_eval(u, z, 1e-9), lambda m: b ** m / (zz - a) ** (m + 1)),
    ]
    for result, exact in oracles:
        assert result.coeffs and all(n % far == 0 and n >= 0 for n in result.coeffs)
        tail = mpmath.mpf(result.tail.value)
        for m in range(200):
            assert abs(mpc(result.coeffs.get(m * far, 0j)) - exact(m)) <= tail
