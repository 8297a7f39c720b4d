"""Line convolution algebra: norms, convolution, transforms, kernels, division."""

import bisect
import hashlib
import math
import time
import warnings

import mpmath
import numpy as np
import pytest

from wiener import l1r
from wiener.certs import CU_ZERO, ULP, cu
from wiener.errors import CertificationFailure, HypothesisFailure, InvalidInput, ToleranceUnreachable
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


def test_convolve_cross_term_with_input_slack():
    # F = f + bf and G = g + bg, the bumps nonnegative triangles of mass s_f
    # and s_g: for nonnegative functions ||F * G - f * g|| = s_f ||g|| + s_g
    # ||f|| + s_f s_g exactly, and the slack of f * g must cover it
    f, g = triangle(0.0, 1.0, 1.0), triangle(0.5, 0.7, 1.0)  # masses 1 and 0.7
    h = 1e-3
    xs = np.arange(-3.0, 3.0, h)
    ref_xs = xs[0] * 2 + h * np.arange(2 * xs.size - 1)
    fg = h * np.convolve(l1r.evaluate(f, xs), l1r.evaluate(g, xs))
    for s_f, s_g in ((0.05, 0.2), (0.2, 0.1), (0.12, 0.05)):
        bf, bg = triangle(0.3, 0.5, s_f / 0.5), triangle(-0.2, 0.4, s_g / 0.4)
        F = l1r.evaluate(f, xs) + l1r.evaluate(bf, xs)
        G = l1r.evaluate(g, xs) + l1r.evaluate(bg, xs)
        ref = h * np.convolve(F, G)
        cross = s_f * 0.7 + s_g * 1.0 + s_f * s_g
        assert abs(float(np.sum(np.abs(ref - fg)) * h) - cross) <= 1e-5 * cross
        c = l1r.convolve(PLFunction(f.breakpoints, f.values, cu(s_f)),
                         PLFunction(g.breakpoints, g.values, cu(s_g)), 1e-4)
        l1_dist = float(np.sum(np.abs(l1r.evaluate(c, ref_xs) - ref)) * h)
        assert l1_dist <= c.l1_slack.value, (s_f, s_g)
        # s_f s_g counted once: the cross term plus the resampling and tol
        assert c.l1_slack.value <= cross + 1e-4, (s_f, s_g)


# the cubic B-spline T * T, T the unit triangle: ascending coefficients in x
# on each unit interval of [-2, 2]
_TT_PIECES = (
    (-2, (mpmath.mpf(8) / 6, 2, 1, mpmath.mpf(1) / 6)),
    (-1, (mpmath.mpf(2) / 3, 0, -1, -mpmath.mpf(1) / 2)),
    (0, (mpmath.mpf(2) / 3, 0, -1, mpmath.mpf(1) / 2)),
    (1, (mpmath.mpf(8) / 6, -2, 1, -mpmath.mpf(1) / 6)),
)


def mp_triangle_square_distance(c: float, r: PLFunction) -> mpmath.mpf:
    """128-bit bound at or above ``||c**2 T * T - r||_1``, ``T`` the unit triangle.

    On each piece between the breakpoints of ``r`` and the knots of ``T *
    T``, the real part of the difference is a cubic in the local variable,
    integrated in closed form between its real roots; ``int |Im r|`` is
    added, so the value is at least the exact distance.
    """
    c2 = mpmath.mpf(c) ** 2
    bp = [mpmath.mpf(x) for x in r.breakpoints]
    vals = [mpc(v) for v in r.values]

    def r_at(x):  # exact linear interpolation, zero outside the support
        i = bisect.bisect_right(bp, x) - 1
        if i < 0 or i >= len(bp) - 1:
            return mpmath.mpc(0)
        return vals[i] + (vals[i + 1] - vals[i]) * (x - bp[i]) / (bp[i + 1] - bp[i])

    xs = sorted(set(bp) | {mpmath.mpf(k) for k in range(-2, 3)})
    total = mpmath.mpf(0)
    for a, b in zip(xs, xs[1:]):
        w = b - a
        ra, rb = r_at(a), r_at(b)
        p = next((q for k, q in _TT_PIECES if k <= a < k + 1), (0, 0, 0, 0))
        # c**2 p(a + w u) - Re r(a + w u), ascending in u
        q = [c2 * sum(p[j] * mpmath.binomial(j, k) * a ** (j - k) for j in range(k, 4)) * w ** k
             for k in range(4)]
        q[0] -= ra.real
        q[1] -= rb.real - ra.real
        while len(q) > 1 and q[-1] == 0:
            q.pop()
        cuts = [mpmath.mpf(0), mpmath.mpf(1)]
        if len(q) > 1:
            roots = mpmath.polyroots(q[::-1], maxsteps=200, extraprec=256)
            cuts += [z.real for z in map(mpmath.mpc, roots)
                     if abs(z.imag) <= 1e-30 and 0 < z.real < 1]
        cuts.sort()

        def Q(u):
            return sum(qk * u ** (k + 1) / (k + 1) for k, qk in enumerate(q))

        total += w * mpmath.fsum(abs(Q(v) - Q(u)) for u, v in zip(cuts, cuts[1:]))
        ia, ib = ra.imag, rb.imag  # int_0^1 |ia + (ib - ia) u| du, split at its root
        if ia * ib >= 0:
            total += w * abs(ia + ib) / 2
        else:
            total += w * (ia * ia + ib * ib) / (2 * (abs(ia) + abs(ib)))
    return total


def test_convolve_small_inputs_meet_tol():
    # the spacing rule counts the resampling's second order term and is
    # capped at the shorter span, so small inputs still meet tol
    for c in (0.01, 1e-3, 1e-150, 1e-300):
        t = triangle(0.0, 1.0, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = l1r.convolve(t, t, 1e-3)
        assert r.l1_slack.value <= 1e-3, c
        assert mpmath.mpf(r.l1_slack.value) >= mp_triangle_square_distance(c, r), c


def test_convolve_builds_only_its_result(monkeypatch):
    normed, built = [], []
    mass_upper, post_init = l1r._mass_upper, PLFunction.__post_init__

    def counting_mass(x, *args):
        normed.append(x)
        return mass_upper(x, *args)

    def counting_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(l1r, "_mass_upper", counting_mass)
    monkeypatch.setattr(PLFunction, "__post_init__", counting_init)
    f, g = triangle(0.0, 1.0, 1.0), triangle(0.5, 0.7, 1.0)
    z = PLFunction([0.0, 1.0], [0.0, 0.0], cu(0.1))
    for a, b in ((f, g), (z, g)):
        normed.clear()
        built.clear()
        c = l1r.convolve(a, b, 1e-4)
        assert len(normed) == 2 and normed[0] is a and normed[1] is b
        assert len(built) == 1 and built[0] is c


def test_convolve_zero_short_circuit():
    z = l1r.zero_fn()
    c = l1r.convolve(z, triangle(), 1e-6)
    assert not np.any(c.values)
    assert c.l1_slack.value == 0.0
    # a zero body that carries slack: the product's slack is that slack
    # times the other input's norm, here 1
    zs = PLFunction(z.breakpoints, z.values, cu(0.1))
    c = l1r.convolve(triangle(), zs, 1e-6)
    assert not np.any(c.values)
    assert 0.1 <= c.l1_slack.value <= 0.1 * (1.0 + 1e-12)


def test_convolve_rejects_bad_tol():
    with pytest.raises(InvalidInput):
        l1r.convolve(triangle(), triangle(), 0.0)
    # a subnormal tol whose spacing underflows to 0
    with pytest.raises(ToleranceUnreachable):
        l1r.convolve(triangle(), triangle(), 5e-324)


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


def test_fourier_fast_path_matches_generic(monkeypatch):
    n = 4000
    bp = np.linspace(-3.0, 3.0, n)
    vals = (np.sin(bp) * np.exp(-bp ** 2)).astype(complex)
    vals[0] = vals[-1] = 0.0
    smooth = PLFunction(bp, vals)
    # complex and far from the origin: the phase arguments and the rounding of
    # a node grid taken as uniform are the largest terms of the bound
    far_bp = 500.0 + np.linspace(0.0, 6.0, n)
    far_vals = np.exp(-((far_bp - 503.0) ** 2)) * np.exp(2j * far_bp)
    far_vals[0] = far_vals[-1] = 0.0
    far = PLFunction(far_bp, far_vals)
    grid_sums, chirps = l1r._grid_sums, []
    monkeypatch.setattr(l1r, "_grid_sums", lambda *args: chirps.append(1) or grid_sums(*args))
    # a uniform grid is the one-width case of the nested lattices, bit for bit
    # the values and bound of the former uniform-only path
    pinned = ("fe2e66430424ead40b6a2b34ba8e4d0ba7fc2d7eee363654dba4d04d549d0977",
              "878824aef7e5ddf0a3c83f3cd42a81dec78d3e62dc1b8d705a2b935f64bd070b")
    for f, digest in zip((smooth, far), pinned):
        ps = np.linspace(-2.0, 2.0, 3000)
        chirps.clear()
        fast, err_fast = l1r.fourier_eval_many(f, ps)
        assert len(chirps) == 1  # the cost rule took chirp-Z, one width
        got = hashlib.sha256(fast.tobytes() + np.float64(err_fast.value).tobytes()).hexdigest()
        assert got == digest
        with monkeypatch.context() as m:
            m.setattr(l1r, "_CZT_COST", math.inf)  # the closed form, at any size
            slow, err_slow = l1r.fourier_eval_many(f, ps)
        assert float(np.max(np.abs(fast - slow))) <= err_fast.value
        # both approximate the transform of the same piecewise-linear body
        gap = (err_fast.value - f.l1_slack.value) + (err_slow.value - f.l1_slack.value)
        assert float(np.max(np.abs(fast - slow))) <= gap
    # a bump on a geometric grid, with a slack, on criterion 09's band grid:
    # breakpoints that are not uniform take the closed form, whose error is
    # the slack and the rounding term, with no resampling term
    pos = np.geomspace(1e-2, 30.0, 800)
    bump_bp = np.concatenate((-pos[::-1], [0.0], pos))
    bump_vals = (1.0 / (1.0 + bump_bp ** 2)).astype(complex)
    bump_vals[0] = bump_vals[-1] = 0.0
    bump = PLFunction(bump_bp, bump_vals, cu(4e-3))
    chirps.clear()
    _, err = l1r.fourier_eval_many(bump, np.linspace(-0.5, 0.5, 257))
    assert not chirps
    mid = 0.5 * (np.abs(bump_vals[:-1]) + np.abs(bump_vals[1:]))
    body = float(np.sum(mid * np.diff(bump_bp)))
    former = 64.0 * 2.0 ** -52 * (bump_bp.size - 1 + 8.0) * body
    assert bump.l1_slack.value < err.value <= bump.l1_slack.value + former
    # frequencies off a uniform grid take the closed form at any pair count
    qs = np.sort(np.random.default_rng(0).uniform(-2.0, 2.0, 300))
    assert qs.size * (smooth.breakpoints.size - 1) > 1 << 20
    vals, _ = l1r.fourier_eval_many(smooth, qs)
    assert not chirps
    for j in (0, 150, 299):
        v, err = l1r.fourier_eval(smooth, float(qs[j]))
        assert abs(vals[j] - v) <= err.value


def test_fourier_nested_lattices_match_closed_form(monkeypatch):
    # kernels take chirp-Z on their nested lattices, junctions included: with
    # the closed form switched off, criterion 08's Fejer kernel at 8,151
    # frequencies (under 1 s), a De la Vallee Poussin union of two grids, a
    # coarse one and its translate, whose breakpoints round off the lattice
    closed_form = l1r._closed_form

    def refuse(f, ps):
        raise AssertionError("closed form")

    coarse = l1r.dlvp_kernel(1.0, 0.3)
    cases = [(l1r.fejer_kernel(1.0, 1e-4), np.linspace(-1.0, 1.0, 8151)),
             (l1r.dlvp_kernel(1.0, 1e-3), np.linspace(-2.0, 2.0, 257)),
             (coarse, np.linspace(-2.5, 2.5, 64)),
             (l1r.translate(coarse, 0.3), np.linspace(-2.5, 2.5, 64))]
    for f, ps in cases:
        with monkeypatch.context() as m:
            m.setattr(l1r, "_closed_form", refuse)
            t0 = time.perf_counter()
            vals, err = l1r.fourier_eval_many(f, ps)
            assert time.perf_counter() - t0 < 1.0
        # both approximate the transform of the same piecewise-linear body
        sub = slice(None, None, max(1, ps.size // 32))
        assert np.max(np.abs(vals[sub] - closed_form(f, ps[sub]))) <= err.value - f.l1_slack.value
    # the translate's segments are no longer exact multiples of each other
    assert not np.array_equal(np.diff(f.breakpoints), np.diff(coarse.breakpoints))
    for j in (0, 20, 41):
        assert abs(mpc(vals[j]) - mp_fourier(f, ps[j])) <= err.value - f.l1_slack.value


def test_fourier_rough_input_is_not_resampled_to_the_cap():
    # random values at random breakpoints: breakpoints that are not uniform
    # take the closed form at any size, here 2,000,000 pairs, so the error
    # stays at the slack plus rounding
    rng = np.random.default_rng(9)
    bp = np.sort(rng.uniform(-5.0, 5.0, 2501))
    vals = rng.normal(size=2501) + 1j * rng.normal(size=2501)
    vals[0] = vals[-1] = 0.0
    f = PLFunction(bp, vals, cu(1e-3))
    _, err = l1r.fourier_eval_many(f, np.linspace(-4.0, 4.0, 800))
    assert err.value <= f.l1_slack.value + 1e-9


def test_fast_conv_bound_against_exact_convolutions():
    # integer-valued inputs, so an int64 convolution is the exact product
    rng = np.random.default_rng(7)
    n = 60000
    ones, spike = np.ones(n), np.zeros(9)
    spike[4] = 977.0

    def ints(size, top):
        return rng.integers(-top, top + 1, size).astype(float)

    cases = [
        (ones, spike),  # the cross terms of a flat and a concentrated input,
        (spike, ones),  # in both orders
        (ones, np.ones(2000)),
        (ints(n, 1000) + 1j * ints(n, 1000), ints(300, 1000) + 1j * ints(300, 5)),
        (ints(3000, 1000), ints(3000, 1000) - 1j * ints(3000, 1000)),
        (np.array([3.0]), np.array([-2.0])),
    ]
    cyclic_cases = [
        (ints(3000, 1000), ints(3000, 1000) - 1j * ints(3000, 1000)),
        (ints(12000, 1000), ints(12000, 1000)),  # 7,615 of the 12,000 outputs wrap
        (ints(5000, 1000) + 1j * ints(5000, 1000), ints(7999, 1000)),  # a chirp-Z shape
        (ones, spike),
    ]
    for a, b, cyclic in [c + (False,) for c in cases] + [c + (True,) for c in cyclic_cases]:
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        got, bound = l1r._fast_conv(a, b, cyclic)
        ar, ai, br, bi = (x.astype(np.int64) for x in (a.real, a.imag, b.real, b.imag))
        re = np.convolve(ar, br) - np.convolve(ai, bi)
        im = np.convolve(ar, bi) + np.convolve(ai, br)
        if cyclic:  # fold the linear outputs onto the first power of two above the longer input
            size = max(a.size, b.size)
            idx = np.arange(re.size) % (1 << (size - 1).bit_length())
            re, im = (np.bincount(idx, weights=x)[:size] for x in (re, im))
        assert got.shape == re.shape
        assert float(np.max(np.abs(got - (re + 1j * im)))) <= bound


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


def test_fejer_kernel_grid_rule():
    # one rule: a power-of-two step per dyadic band, every node a multiple of
    # its segments' steps (so exact), mirrored; at the line_divide kernel and
    # its smoothing kernel, criterion 09's, criterion 10's top rung and
    # criterion 08's, each at a slack no larger than the former geometric grid's
    for lam, tol, geometric_slack in ((1.05, 4e-3, 0.008002597204827839),
                                      (1.0, 2e-3, 0.003998672161919863),
                                      (0.5, 2e-3, 0.003998672161919863),
                                      (64.0, 1e-3, 0.0020003525029991804),
                                      (1.0, 1e-4, 0.00019999779878195496)):
        k = l1r.fejer_kernel(lam, tol)
        bp, steps = k.breakpoints, np.diff(k.breakpoints)
        assert np.all(np.frexp(steps)[0] == 0.5)
        assert np.all(bp[:-1] % steps == 0.0) and np.all(bp[1:] % steps == 0.0)
        assert np.array_equal(bp, -bp[::-1])
        right = bp[:-1] > 0.0  # one step on each [2**j, 2**(j + 1)]
        band = np.frexp(bp[:-1][right])[1]
        assert all(np.unique(steps[right][band == j]).size == 1 for j in set(band))
        assert k.l1_slack.value <= geometric_slack
        # the union of two such grids nests: at each node the longer segment is
        # a multiple of the shorter, and the transform's lattices hold it
        v = l1r.dlvp_kernel(lam, tol)
        a, b = np.diff(v.breakpoints)[:-1], np.diff(v.breakpoints)[1:]
        assert np.all(np.maximum(a, b) % np.minimum(a, b) == 0.0)
        assert l1r._hat_lattices(v, 1 << 20)[0]
    assert k.breakpoints.size == 72571
    digest = hashlib.sha256(k.breakpoints.tobytes()).hexdigest()
    assert digest == "d99b20e9767752d68def7db0330d12ff7d8ad58bbca5b568eefcc015ea12a174"


_GAUSS_LEGENDRE = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(3, 128)


def mp_fejer_distance(k: PLFunction, lam: float) -> mpmath.mpf:
    """128-bit ``int |K_lam - k|`` over the line: 12-point Gauss-Legendre on
    each segment of ``[-X, X]``, plus the exact tail ``1 - int_(-X)^X K_lam =
    1 - (2 / pi) (Si(Y) - (1 - cos Y) / Y)``, ``Y = lam X``."""
    total = mpmath.mpf(0)
    for i in range(k.breakpoints.size - 1):
        a, b = mpmath.mpf(k.breakpoints[i]), mpmath.mpf(k.breakpoints[i + 1])
        va, vb = mpmath.mpf(k.values[i].real), mpmath.mpf(k.values[i + 1].real)
        half = (b - a) / 2
        total += half * mpmath.fsum(
            w * abs(mp_fejer(lam, a + half * (1 + x)) - (va + (vb - va) * (1 + x) / 2))
            for x, w in _GAUSS_LEGENDRE)
    Y = mpmath.mpf(lam) * mpmath.mpf(k.breakpoints[-1])
    return total + 1 - 2 / mpmath.pi * (mpmath.si(Y) - (1 - mpmath.cos(Y)) / Y)


def test_fejer_slack_against_128bit_distance():
    # coarse kernels of two shapes, two and four steps: the slack covers the
    # exact distance from K_lam
    for lam, tol in ((1.0, 0.05), (2.5, 0.02)):
        k = l1r.fejer_kernel(lam, tol)
        assert np.unique(np.diff(k.breakpoints)).size >= 2
        assert mp_fejer_distance(k, lam) <= k.l1_slack.value


def test_fejer_curvature_against_128bit_second_derivative():
    # |K''| <= lam**3 / (12 pi) everywhere and the far bound past y = 1, so
    # their minimum; it is nonincreasing, so bounding |K''| at each point
    # bounds it past each point
    for lam in (1.0, 2.5):
        xs = np.linspace(0.0, 60.0, 241) / lam
        bound = l1r._fejer_curvature(lam, xs)
        assert np.all(np.diff(bound) <= 0.0) and bound[0] == 0.05 * lam ** 3
        d2 = [abs(mpmath.diff(lambda t: mp_fejer(lam, t), mpmath.mpf(x), 2)) for x in xs]
        assert all(d <= b for d, b in zip(d2, bound))
        assert max(d / b for d, b in zip(d2, bound)) > 0.5  # not vacuous


def test_fejer_rounding_against_128bit_values():
    # kernel nodes, nodes next to the zeros of sin(lam x / 2), where a value's
    # error is not relative to it, and nodes on the |lam x| < 1e-4 branch
    lam = 1.7
    zeros = 2.0 * math.pi * np.arange(1, 400) / lam
    xs = np.unique(np.concatenate((l1r.fejer_kernel(lam, 0.05).breakpoints, zeros,
                                   zeros * (1.0 + 2.0 ** -40), np.linspace(-1e-4, 1e-4, 41))))
    vals = l1r._fejer_values(lam, xs)
    # each value v within u (24 v + 5 (sqrt(c v) + u c)) of 128-bit K, c = lam / (2 pi)
    errs = [abs(mpmath.mpf(v) - mp_fejer(lam, x)) for x, v in zip(xs, vals)]
    c, u = lam / (2.0 * math.pi), 2.0 ** -53
    per_value = u * (24.0 * vals + 5.0 * (np.sqrt(c * vals) + u * c))
    assert all(e <= b for e, b in zip(errs, per_value))
    assert max(e / b for e, b in zip(errs, per_value) if b > 0) > 0.01  # the bound is not vacuous
    # the L1 norm of their piecewise-linear interpolant, by trapezoid weights
    weights = np.diff(np.concatenate(([xs[0]], 0.5 * (xs[1:] + xs[:-1]), [xs[-1]])))
    l1 = mpmath.fsum(mpmath.mpf(w) * e for w, e in zip(weights, errs))
    assert l1 <= l1r._fejer_rounding(lam, xs, vals).value


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
        l1r.tauberian_divide(f, g, 0.5, 0.45, 0.01)


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
