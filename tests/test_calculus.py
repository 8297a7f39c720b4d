"""Algebra-valued calculus: certified integration, exp, resolvents."""

import cmath
import math

import mpmath
import pytest

from wiener import calculus, inversion, l1z
from wiener.calculus import (
    BanachCurve,
    circle_loop,
    constant_curve,
    lipschitz_curve,
    polynomial_map,
)
from wiener.certs import cu
from wiener.errors import HypothesisFailure, InvalidInput, ToleranceUnreachable
from wiener.l1z import L1ZSeq, delta

from conftest import mpc


def scalar_curve(fn, lip):
    """Scalar-valued curve embedded along the unit coefficient."""
    return lipschitz_curve(lambda t: delta(0, fn(t)), lip)


def test_path_loop_rejects_open_loop():
    with pytest.raises(InvalidInput):
        calculus.PathLoop(lambda t: t, lambda t: 1.0, cu(0.0), True)


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


def test_loop_integral_of_polynomial_vanishes():
    pm = polynomial_map([0.5, 1.0, -0.25, 0.125j], radius=1.0)
    value, err = calculus.loop_integral(pm, circle_loop(1.0), steps=4096)
    assert l1z.norm_upper(value).value <= err.value


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
