"""Line convolution algebra: norms, convolution, transforms, kernels, division."""

import math

import mpmath
import numpy as np
import pytest

from wiener import l1r
from wiener.certs import CU_ZERO, ULP, cu
from wiener.errors import CertificationFailure, HypothesisFailure, InvalidInput
from wiener.l1r import PLFunction, triangle

from conftest import (
    mp_fejer,
    mp_fejer_triangle,
    mp_fejer_triangle_distance,
    mp_segment_abs,
    mpc,
)


def random_pl(rng, nseg=6, span=4.0, scale=1.0):
    bp = np.sort(rng.uniform(-span, span, nseg + 1))
    while np.min(np.diff(bp)) < 1e-3:
        bp = np.sort(rng.uniform(-span, span, nseg + 1))
    vals = rng.normal(0, scale, nseg + 1) + 1j * rng.normal(0, scale, nseg + 1)
    vals[0] = vals[-1] = 0.0
    return PLFunction(bp, vals)


def mp_norm_l1(f: PLFunction) -> mpmath.mpf:
    """128-bit one-norm of the PL part by the exact per-segment integral."""
    total = mpmath.mpf(0)
    for i in range(f.breakpoints.size - 1):
        a, b = mpmath.mpf(f.breakpoints[i]), mpmath.mpf(f.breakpoints[i + 1])
        total += mp_segment_abs(f.values[i], f.values[i + 1]) * (b - a)
    return total


def mp_fourier(f: PLFunction, p: float) -> mpmath.mpc:
    """128-bit transform by exact per-segment integration."""
    total = mpmath.mpc(0)
    for i in range(f.breakpoints.size - 1):
        a = mpmath.mpf(f.breakpoints[i])
        b = mpmath.mpf(f.breakpoints[i + 1])
        va, vb = mpc(complex(f.values[i])), mpc(complex(f.values[i + 1]))
        total += mpmath.quad(
            lambda t: (va + (vb - va) * t)
            * mpmath.exp(mpmath.mpc(0, -p) * (a + (b - a) * t)),
            [0, 1],
        ) * (b - a)
    return total


def test_construction_validation():
    with pytest.raises(InvalidInput):
        PLFunction(np.array([0.0, 1.0, 0.5]), np.zeros(3, dtype=complex))
    with pytest.raises(InvalidInput):
        PLFunction(np.array([0.0, 1.0]), np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(InvalidInput):
        PLFunction(np.array([0.0]), np.zeros(1, dtype=complex))
    with pytest.raises(InvalidInput):
        PLFunction(np.array([0.0, np.inf]), np.zeros(2, dtype=complex))


def test_evaluate_triangle():
    t = triangle(0.0, 1.0, 2.0)
    xs = np.array([-2.0, -0.5, 0.0, 0.75, 2.0])
    want = np.array([0.0, 1.0, 2.0, 0.5, 0.0])
    assert np.allclose(l1r.evaluate(t, xs), want)


def test_norm_triangle_exact():
    # area of the unit triangle is 1
    n = l1r.norm_l1(triangle()).value
    assert 1.0 <= n <= 1.0 + 1e-3


def test_segment_abs_oracle_matches_quadrature():
    # (va, vb, interior points where the integrand has a kink or a dip)
    segments = [
        (0.3 - 1.2j, -0.7 + 0.4j, []),  # generic
        (1e-3 + 2j, 2e-3 - 2j, [0.5]),  # generic, passing 1.5e-3 from zero
        (1.5 - 0.5j, 0.6 - 0.2j, []),  # collinear up to rounding, no zero crossing
        (2 + 1j, -1 - 0.5j, [mpmath.mpf(2) / 3]),  # collinear, zero crossing
        (0.25 - 1j, -0.25 + 1j, [0.5]),  # collinear, zero crossing at the midpoint
        (0.7 - 0.1j, 0.7 - 0.1j, []),  # d = 0
        (0j, 0j, []),
        # passes 8.7e-4 from zero at t = 0.2136; unsplit quadrature reads 1.5e-7 high
        (-0.101 - 0.268j, 0.368 + 0.988j, None),
    ]
    with mpmath.workprec(256):
        for va, vb, kinks in segments:
            a, b = mpc(va), mpc(vb)
            if kinks is None:  # split at the point nearest zero
                kinks = [-(a.real * (b - a).real + a.imag * (b - a).imag) / abs(b - a) ** 2]
            want = mpmath.quad(lambda t: abs(a + (b - a) * t), [0] + kinks + [1])
            assert abs(mp_segment_abs(va, vb) - want) <= mpmath.mpf(10) ** -30 * (1 + want)


def _pair_masses(va, vb):
    """Masses of the unit-length segments from ``va[i]`` to ``vb[i]``."""
    vals = np.zeros(3 * len(va) + 1, dtype=complex)
    vals[1::3], vals[2::3] = va, vb
    return l1r._segment_abs_masses(PLFunction(np.arange(vals.size, dtype=float), vals))[1::3]


def test_segment_masses_within_kappa_of_exact():
    # |mass - exact| <= KAPPA ulps of m0 + m1 (plus one subnormal rounding),
    # so mass * (1 + 4 KAPPA ulps) covers the exact value (a mass is >= (m0 + m1) / 4)
    kappa, sub = 16.0, mpmath.mpf(2) ** -1075
    rng = np.random.default_rng(7)
    n = 40

    def c(scale=1.0):
        return (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale

    a = c()
    angle = 10.0 ** rng.uniform(-14, -2, n) * rng.choice([-1.0, 1.0], n)
    nudge = 10.0 ** rng.uniform(-14, -1, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    tiny = 10.0 ** -rng.uniform(100, 161, n)
    # a real part near 1 and imaginary parts 1e-150 to 1e-320 of it, some turned by 1j
    flat = 10.0 ** -rng.uniform(150, 320, (2, n)) * rng.normal(size=(2, n))
    turn = np.where(rng.uniform(size=n) < 0.5, 1j, 1.0)
    edge = 2.0 ** -rng.uniform(45, 55, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    families = {
        "generic": (a, c()),
        "near-constant": (a, a * (1 + nudge)),
        "near-constant, |d| / |a| near 2^-50": (a, a * (1 + edge)),
        "near-constant perpendicular": ((a.real + 1j * flat[0]) * turn,
                                        (a.real + 1j * flat[1]) * turn),
        "collinear crossing": (a, -a * rng.uniform(0.1, 3.0, n)),
        "nearly collinear crossing": (a, -a * rng.uniform(0.1, 3.0, n) * np.exp(1j * angle)),
        "nearly collinear": (a, a * rng.uniform(0.1, 3.0, n) * np.exp(1j * angle)),
        "crossing at angles 1e-100 to 1e-161": (a.real + 0j, -a.real * (1 + 1j * tiny)),
        "d = 0": (a, a.copy()),
        "all zero": (np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)),
        "near 1e200": (c(1e200), c(1e200)),
        "near 1e-300": (c(1e-300), c(1e-300)),
        "subnormal": (np.array([0j, 0j, 3e-320j, 1e-315 - 2e-318j]),
                      np.array([1e-310, 5e-324, -1e-321, 2e-316j])),
    }
    bad = []
    for name, (va, vb) in families.items():
        for x, y, mass in zip(va, vb, _pair_masses(va, vb)):
            exact, mass = mp_segment_abs(x, y), mpmath.mpf(mass)
            E = mpmath.mpf(abs(complex(x))) + mpmath.mpf(abs(complex(y)))
            if not (abs(mass - exact) <= kappa * ULP * E + sub
                    and mass * (1 + 4 * kappa * ULP) + sub >= exact):
                bad.append((name, complex(x), complex(y)))
    assert not bad, sorted({name for name, _, _ in bad})


def test_norm_sound_oracle(rng):
    for _ in range(20):
        f = random_pl(rng)
        assert mpmath.mpf(l1r.norm_l1(f).value) >= mp_norm_l1(f)
    # masses that round to zero or to a coarse subnormal
    for vals in ([0, 5e-324, 0], [0, 1e-320, -3e-322j, 0], [0, 1e-310, 0]):
        f = PLFunction(np.arange(len(vals), dtype=float), np.array(vals, dtype=complex))
        assert mpmath.mpf(l1r.norm_l1(f).value) >= mp_norm_l1(f)
    # a segment that turns by 1e-200 of its value, and lengths or values far
    # from 1 whose products with each other land in, or near, the subnormal range
    rows = [
        ([0, 1, 2, 3], [0, 1, 1 + 1e-200j, 0]),
        ([0, 1, 2, 3], [0, 0.7 + 1e-320j, 0.7 + 2e-320j, 0]),
        ([0, 1e-310, 3e-310, 4e-310], [0, 1e300, 3e300 - 1e300j, 0]),
        ([0, 1e-318, 2e-318], [0, 1.7e300, 0]),
        ([0, 1e290, 3e290, 7e290], [0, 3e-323, 1e-322j, 0]),
    ]
    for bp, vals in rows:
        f = PLFunction(np.array(bp, dtype=float), np.array(vals, dtype=complex))
        assert mpmath.mpf(l1r.norm_l1(f).value) >= mp_norm_l1(f), vals


def test_norm_is_reasonably_tight(rng):
    for _ in range(10):
        f = random_pl(rng)
        bound = l1r.norm_l1(f).value
        true = float(mp_norm_l1(f))
        assert bound <= true * 1.02 + 1e-9


def test_translate_isometry(rng):
    # breakpoints - 1.7 round, so the segment lengths, and the bounds, may differ
    f = random_pl(rng)
    g = l1r.translate(f, 1.7)
    nf, ng = l1r.norm_l1(f).value, l1r.norm_l1(g).value
    assert mpmath.mpf(nf) >= mp_norm_l1(f) and mpmath.mpf(ng) >= mp_norm_l1(g)
    S = f.breakpoints.size - 1
    assert abs(nf - ng) <= 2 * (l1r._MASS_TERMS * S + 8) * ULP * max(nf, ng)


def test_scale_homogeneous():
    f = triangle()
    n2 = l1r.norm_l1(l1r.scale_fn(2j, f)).value
    n1 = l1r.norm_l1(f).value
    assert abs(n2 - 2.0 * n1) <= 1e-9


def test_add_sub_triangle_inequality(rng):
    f, g = random_pl(rng), random_pl(rng)
    s = l1r.add_fn(f, g)
    assert l1r.norm_l1(s).value <= (
        l1r.norm_l1(f).value + l1r.norm_l1(g).value
    ) * 1.001 + 1e-9
    d = l1r.sub_fn(f, f)
    assert l1r.norm_l1(d).value <= 1e-9


def test_sub_fn_covers_interpolation_roundoff_under_cancellation():
    # g is f with an extra node x in (0, 1) holding the correctly rounded v (1 - x),
    # so f - g is a triangle on [0, 1] of height f(x) - g(x), the interpolation's
    # rounding at x alone: ||f - g||_1 = |v (1 - x) - g(x)| / 2 exactly
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = float(rng.uniform(0.01, 0.99))
        v = complex(*rng.standard_normal(2))
        with mpmath.workprec(200):
            at_x = mpc(v) * (1 - mpmath.mpf(x))
            gx = complex(float(at_x.real), float(at_x.imag))
            exact = abs(at_x - mpc(gx)) / 2
        f = PLFunction([-1.0, 0.0, 1.0], [0, v, 0])
        g = PLFunction([-1.0, 0.0, x, 1.0], [0, v, gx, 0])
        assert exact <= l1r.norm_l1(l1r.sub_fn(f, g)).value, (x, v)


def test_convolve_triangles_against_fine_grid(rng):
    f = triangle(0.0, 1.0, 1.0)
    g = triangle(0.5, 0.7, 1.0)
    c = l1r.convolve(f, g, 1e-4)
    # dense numeric oracle at a much finer grid
    h = 1e-3
    xs = np.arange(-3.0, 3.0, h)
    fv = l1r.evaluate(f, xs)
    gv = l1r.evaluate(g, xs)
    ref = h * np.convolve(fv, gv)
    ref_xs = xs[0] * 2 + h * np.arange(ref.size)
    got = l1r.evaluate(c, ref_xs)
    l1_dist = float(np.sum(np.abs(got - ref)) * h)
    assert l1_dist <= 2e-4 + c.l1_slack.value


def test_convolve_young_inequality(rng):
    for _ in range(5):
        f, g = random_pl(rng, nseg=4), random_pl(rng, nseg=4)
        c = l1r.convolve(f, g, 1e-3)
        assert (
            float(mp_norm_l1(c)) - c.l1_slack.value
            <= l1r.norm_l1(f).value * l1r.norm_l1(g).value + 1e-9
        )


def test_convolve_commutative(rng):
    f, g = random_pl(rng, nseg=3), random_pl(rng, nseg=3)
    c1 = l1r.convolve(f, g, 1e-4)
    c2 = l1r.convolve(g, f, 1e-4)
    d = l1r.sub_fn(c1, c2)
    budget = c1.l1_slack.value + c2.l1_slack.value
    assert l1r.norm_l1(d).value <= budget + 2e-4


def test_convolve_zero_short_circuit():
    z = l1r.zero_fn()
    c = l1r.convolve(z, triangle(), 1e-6)
    assert not np.any(c.values)
    assert c.l1_slack.value == 0.0


def test_convolve_rejects_bad_tol():
    with pytest.raises(InvalidInput):
        l1r.convolve(triangle(), triangle(), 0.0)


def test_fourier_triangle_oracle():
    # transform of the unit triangle: (2 - 2 cos p) / p^2
    f = triangle()
    for p in (0.5, 1.0, 3.0, -2.0):
        v, err = l1r.fourier_eval(f, p)
        want = (2.0 - 2.0 * math.cos(p)) / (p * p)
        assert abs(v - want) <= err.value + 1e-12


def test_fourier_moments_sound_across_series_cutover():
    # |p L| from 1e-6 to 10 on segments of length 1 and 10, across every
    # series/closed-form cutover, against e^{-ipc} w sinc^2(p w / 2) at 200 bits
    bad = []
    with mpmath.workprec(200):
        for c, w in ((1.0, 1.0), (10.0, 10.0)):
            f = triangle(c, w)
            for pl in np.logspace(-6.0, 1.0, 141):
                p = float(pl / w)
                v, err = l1r.fourier_eval(f, p)
                mp_p = mpmath.mpf(p)
                want = mpmath.expj(-mp_p * c) * w * mpmath.sinc(mp_p * w / 2) ** 2
                if abs(mpc(v) - want) > err.value:
                    bad.append((c, w, p, float(abs(mpc(v) - want) / err.value)))
    assert not bad, "%d frequencies break the bound, worst %s" % (
        len(bad), max(bad, key=lambda b: b[3]))
    # the 16-ulp moment error the bound is built on, both signs of t
    ts = np.concatenate([np.logspace(-6.0, 1.0, 141), [0.0, 1.0 - 2.0 ** -53]])
    ts = np.concatenate([ts, -ts])
    with mpmath.workprec(200):
        for t, phi0, phi1 in zip(ts, *l1r._segment_moments(ts)):
            z, ez = mpmath.mpc(0, -t), mpmath.expj(-t)
            want0, want1 = ((ez - 1) / z, (ez * (z - 1) + 1) / z ** 2) if t else (1, 0.5)
            assert max(abs(mpc(phi0) - want0), abs(mpc(phi1) - want1)) <= 16 * 2.0 ** -52


def test_fourier_random_oracle(rng):
    for _ in range(5):
        f = random_pl(rng, nseg=4)
        for p in (0.0, 0.8, -2.5):
            v, err = l1r.fourier_eval(f, p)
            assert abs(mpc(v) - mp_fourier(f, p)) <= err.value + 1e-9


def test_fourier_fast_path_matches_generic():
    n = 4000
    bp = np.linspace(-3.0, 3.0, n)
    vals = (np.sin(bp) * np.exp(-bp ** 2)).astype(complex)
    vals[0] = vals[-1] = 0.0
    smooth = PLFunction(bp, vals)
    kernel = l1r.fejer_kernel(1.0, 2e-3)  # non-uniform breakpoints, resampled
    # the kernel on criterion 09's first frequency grid, linspace(-2 band, 2 band)
    for f, ps in ((smooth, np.linspace(-2.0, 2.0, 3000)), (kernel, np.linspace(-1.0, 1.0, 6491))):
        S = f.breakpoints.size - 1
        assert ps.size * S > l1r._PAIR_CUT
        fast, err_fast = l1r.fourier_eval_many(f, ps)  # chirp-Z, above the cut
        step = l1r._PAIR_CUT // S
        slices = [l1r.fourier_eval_many(f, ps[lo : lo + step]) for lo in range(0, ps.size, step)]
        slow = np.concatenate([v for v, _ in slices])  # closed form, below the cut
        assert float(np.max(np.abs(fast - slow))) <= err_fast.value
        # both approximate the transform of the same piecewise-linear body
        err_slow = max(e.value for _, e in slices)
        gap = (err_fast.value - f.l1_slack.value) + (err_slow - f.l1_slack.value)
        assert float(np.max(np.abs(fast - slow))) <= gap
    # resampling costs at most 2**-9 of the slack beyond the former rounding term
    mid = 0.5 * (np.abs(f.values[:-1]) + np.abs(f.values[1:]))
    body = float(np.sum(mid * np.diff(f.breakpoints)))
    former = 64.0 * 2.0 ** -52 * (S + 8.0) * body
    assert f.l1_slack.value < err_fast.value <= f.l1_slack.value * (1 + 2.0 ** -9) + former
    with pytest.raises(InvalidInput):
        l1r.fourier_eval_many(smooth, np.sort(np.random.default_rng(0).uniform(-2.0, 2.0, 3000)))


def test_transform_bounded_by_norm(rng):
    f = random_pl(rng)
    bound = l1r.norm_l1(f).value
    vals, err = l1r.fourier_eval_many(f, np.linspace(-20, 20, 101))
    assert float(np.max(np.abs(vals))) <= bound + err.value


def test_transform_lipschitz(rng):
    f = random_pl(rng)
    L = l1r.transform_lipschitz_upper(f).value
    ps = np.linspace(-3, 3, 61)
    vals, err = l1r.fourier_eval_many(f, ps)
    dp = ps[1] - ps[0]
    assert float(np.max(np.abs(np.diff(vals)))) <= L * dp + 2 * err.value + 1e-12


def test_transform_lipschitz_sound_oracle(rng):
    def mp_weighted(f):  # 128-bit sum of max|x| times the exact segment mass
        total = mpmath.mpf(0)
        for i in range(f.breakpoints.size - 1):
            a, b = mpmath.mpf(f.breakpoints[i]), mpmath.mpf(f.breakpoints[i + 1])
            total += mp_segment_abs(f.values[i], f.values[i + 1]) * (b - a) * max(abs(a), abs(b))
        return total

    fns = [random_pl(rng) for _ in range(10)]
    # masses in the subnormal range, far from the origin or on tiny lengths
    for bp, vals in (
        ([1e20, 1e20 + 3 * 2.0 ** 14, 1e20 + 7 * 2.0 ** 14], [0, 3e-323, 0]),
        ([0, 1e-310, 3e-310, 4e-310], [0, 1e300, 3e300 - 1e300j, 0]),
        ([-2, 0, 1, 2], [0, 1e-320, 7e-321j, 0]),
    ):
        fns.append(PLFunction(np.array(bp, dtype=float), np.array(vals, dtype=complex)))
    for f in fns:
        assert mpmath.mpf(l1r.transform_lipschitz_upper(f).value) >= mp_weighted(f)


def test_riemann_lebesgue_desk_scale():
    # transform of an integrable function dies off at large frequency
    f = triangle()
    near = abs(l1r.fourier_eval(f, 1.0)[0])
    far = abs(l1r.fourier_eval(f, 200.0)[0])
    assert far <= 1e-3 and far < near


def test_fejer_kernel_mass_and_positivity():
    k = l1r.fejer_kernel(4.0, 1e-3)
    assert np.all(k.values.real >= -1e-12)
    n = l1r.norm_l1(k).value
    assert abs(n - 1.0) <= 2.0 * k.l1_slack.value + 5e-3
    assert k.l1_slack.value <= 5e-3


def test_fejer_hat_tent_shape():
    lam = 2.0
    k = l1r.fejer_kernel(lam, 1e-4)
    for frac, want in ((0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (1.0, 0.0)):
        v, err = l1r.fourier_eval(k, frac * lam)
        assert abs(v - want) <= err.value + 2e-3


def test_fejer_triangle_oracle_matches_quadrature():
    # The closed form behind criterion 10's exact distance, against direct
    # 128-bit quadrature of int tri(y) K_lam(x - y) dy and reference values.
    lam = 32
    want = {
        "0": "0.8996909065852050533",
        "0.3": "0.6771560477890388109",
        "1.7": "0.0042094519219304836",
    }
    for x, ref in want.items():
        x = mpmath.mpf(x)
        cuts = [x + 2 * mpmath.pi * k / lam for k in range(-14, 15)]
        nodes = sorted({mpmath.mpf(-1), mpmath.mpf(0), mpmath.mpf(1)}
                       | {c for c in cuts if -1 < c < 1})
        quad = mpmath.quad(lambda y: (1 - abs(y)) * mp_fejer(lam, x - y), nodes)
        closed = mp_fejer_triangle(lam, x)
        assert abs(closed - quad) <= mpmath.mpf("1e-20")
        assert abs(closed - mpmath.mpf(ref)) <= mpmath.mpf("1e-19")
    # the distance from the third antiderivative, against the value given
    # by 128-bit quadrature of |S - tri| split at its sign change
    dist = mp_fejer_triangle_distance(lam)
    assert abs(dist - mpmath.mpf("0.0701432583218")) <= mpmath.mpf("1e-12")


def test_fejer_rejects_bad_params():
    with pytest.raises(InvalidInput):
        l1r.fejer_kernel(0.0, 1e-3)
    with pytest.raises(InvalidInput):
        l1r.fejer_kernel(1.0, 0.0)


def test_dlvp_hat_ideal_shape():
    lam = 1.5
    ps = np.array([0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    want = np.array([1.0, 1.0, 1.0, 2.0 - 2.0 / 1.5, 2.0 - 2.5 / 1.5, 0.0, 0.0])
    assert np.allclose(l1r.dlvp_hat(lam, ps), want)


def test_dlvp_kernel_hat_is_one_on_band():
    lam = 1.0
    k = l1r.dlvp_kernel(lam, 1e-3)
    for p in (-0.9, 0.0, 0.5, 1.0):
        v, err = l1r.fourier_eval(k, p)
        assert abs(v - 1.0) <= err.value + 2e-2


def test_spectrum_compactify_stays_close():
    t = triangle()
    w = l1r.spectrum_compactify(t, 0.5, 0.05)
    # smoothing with a unit-mass kernel keeps the norm in the same ballpark
    assert abs(l1r.norm_l1(w).value - 1.0) <= 0.2


def test_certify_transform_lower_fejer():
    # fejer hat is >= 0.5 on [-lam/2, lam/2]
    k = l1r.fejer_kernel(1.0, 1e-3)
    report = l1r.certify_transform_lower(k, 0.5, 0.45)
    assert report["ok"]
    assert report["min_certified_lower"] >= 0.45


def test_certify_transform_lower_report():
    # the triangle transform (sin(p/2) / (p/2))**2 is 0.4053 at p = pi and
    # its modulus falls toward the band's ends, where the worst point lies
    t = triangle()
    report = l1r.certify_transform_lower(t, math.pi, 0.4)
    lip = l1r.transform_lipschitz_upper(t).value
    assert report["ok"] and not report["definitely_fails"]
    assert report["N"] >= 256 and report["lipschitz"] == lip
    assert report["fill_slack"] >= lip * math.pi / report["N"]
    assert abs(abs(report["worst_point"]) - math.pi) <= 2 * math.pi / report["N"]
    true_min = (math.sin(math.pi / 2) / (math.pi / 2)) ** 2
    assert 0.4 <= report["min_certified_lower"] <= true_min
    assert report["min_certified_lower"] >= true_min - 2 * report["err"] - report["fill_slack"]
    with pytest.raises(HypothesisFailure) as exc:
        l1r.certify_transform_lower(t, 7.0, 0.1)
    assert exc.value.report["definitely_fails"] and not exc.value.report["ok"]
    assert exc.value.report["N"] == 256


def test_certify_transform_lower_fails_honestly():
    # the triangle transform vanishes at 2 pi
    t = triangle()
    with pytest.raises(HypothesisFailure):
        l1r.certify_transform_lower(t, 7.0, 0.1)


def test_tauberian_zero_numerator():
    f = l1r.fejer_kernel(1.0, 1e-3)
    k, res = l1r.tauberian_divide(f, l1r.zero_fn(), 0.5, 0.45, 0.01)
    assert not np.any(k.values)
    assert res.value == 0.0


def test_tauberian_rejects_bad_params():
    f = l1r.fejer_kernel(1.0, 1e-3)
    with pytest.raises(InvalidInput):
        l1r.tauberian_divide(f, l1r.zero_fn(), -1.0, 0.45, 0.01)


def test_tauberian_out_of_band_fails_honestly():
    # numerator with spectral mass far outside the band cannot be divided
    f = l1r.fejer_kernel(1.0, 2e-3)
    g = triangle(0.0, 0.05, 1.0)  # very narrow: wideband spectrum
    with pytest.raises((CertificationFailure, HypothesisFailure)):
        l1r.tauberian_divide(f, g, 0.5, 0.45, 0.01, max_rounds=1)


def test_json_round_trip():
    f = triangle(0.5, 1.5, 1 - 2j)
    f = PLFunction(f.breakpoints, f.values, cu(0.25))
    assert l1r.loads(l1r.dumps(f)) == f


def test_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        l1r.loads("oops")
    with pytest.raises(InvalidInput):
        l1r.loads("[1, 2]")
    with pytest.raises(InvalidInput):
        l1r.from_jsonable({"breakpoints": [0.0, 1.0]})
    tri = l1r.to_jsonable(triangle())
    with pytest.raises(InvalidInput):
        l1r.from_jsonable(dict(tri, l1_slack=1e400))
    with pytest.raises(InvalidInput):
        l1r.from_jsonable(dict(tri, breakpoints=[-1.0, 0.0, 10 ** 400]))


def test_csv_output():
    text = l1r.to_csv(triangle())
    lines = text.strip().split("\n")
    assert lines[0] == "x,re,im"
    assert len(lines) == 4
