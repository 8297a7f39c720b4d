"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package at its stated
tolerance and prints a single pass/fail line.  Oracles are either
closed forms, 128-bit recomputation, or independent fine-grid numerics.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

from wiener import calculus, inversion, l1r, l1z
from wiener.certs import cu
from wiener.errors import HypothesisFailure
from wiener.l1z import L1ZSeq, delta

from conftest import (
    mp_abs_sum,
    mp_fejer_triangle_distance,
    mp_residual,
    mp_segment_abs,
    mpc,
    random_seq,
)

mpmath.mp.prec = 128


def _report(num, ok, detail=""):
    print("criterion %02d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cli(args, env_extra=None):
    # the subprocess imports the package from this checkout, like the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "wiener.cli"] + args,
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_01_inversion_geometric_oracle():
    f = L1ZSeq({0: 1.0, 1: 0.5})
    t0 = time.perf_counter()
    inv, cert = inversion.wiener_invert(f, 0.45, 1e-9)
    elapsed = time.perf_counter() - t0
    coeff_err = max(
        abs(inv.coeffs.get(n, 0j) - (-0.5) ** n) for n in range(31)
    )
    ok = coeff_err <= 1e-9 and cert.residual.value <= 1e-9 and elapsed < 1.0
    _report(
        1,
        ok,
        "coeff err %.2e, residual %.2e, %.2fs"
        % (coeff_err, cert.residual.value, elapsed),
    )


def test_criterion_02_inversion_symmetric_symbol():
    f = L1ZSeq({0: 1.0, 1: 0.25, -1: 0.25})
    t0 = time.perf_counter()
    inv, cert = inversion.wiener_invert(f, 0.45, 1e-9)
    elapsed = time.perf_counter() - t0
    oracle = float(mp_residual(f, inv))
    ok = oracle <= 1e-8 and cert.residual.value >= oracle and elapsed < 5.0
    _report(
        2,
        ok,
        "oracle residual %.2e, certified %.2e, %.2fs"
        % (oracle, cert.residual.value, elapsed),
    )


def test_criterion_03_singular_symbol_always_rejected(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(l1z.dumps(L1ZSeq({0: 1.0, 1: 1.0})))
    ok = True
    detail = []
    for eps in (0.01, 0.05, 0.2, 0.45, 0.9):
        res = _cli(
            ["invert", "--input", str(path), "--epsilon", str(eps),
             "--target", "1e-6"]
        )
        doc = json.loads(res.stdout)
        good = (
            res.returncode == 2
            and doc["status"] == "hypothesis-failed"
            and doc["payload"] is None
        )
        ok = ok and good
        detail.append("eps=%g rc=%d" % (eps, res.returncode))
    _report(3, ok, "; ".join(detail))


def test_criterion_04_resolvent_loop_is_2pii():
    t0 = time.perf_counter()
    value, err = calculus.resolvent_loop_integral(delta(1), 2.0, 4096, 1e-6)
    elapsed = time.perf_counter() - t0
    dev = l1z.norm_upper(l1z.sub(value, delta(0, 2j * math.pi))).value
    _, err2 = calculus.resolvent_loop_integral(delta(1), 2.0, 8192, 1e-6)
    ratio = err.value / err2.value
    ok = dev <= 1e-3 and dev <= err.value and ratio >= 1.9 and elapsed < 5.0
    _report(
        4,
        ok,
        "deviation %.2e, err %.2e, doubling ratio %.3f, %.2fs"
        % (dev, err.value, ratio, elapsed),
    )


def test_criterion_05_polynomial_loop_integrals_vanish():
    rng = np.random.default_rng(7)
    worst_val, worst_err = 0.0, 0.0
    ok = True
    for _ in range(50):
        # decaying envelope keeps the certified bound under 1e-4 at radius 2
        coeffs = [
            0.004 * 4.0 ** -k * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for k in range(7)
        ]
        for radius in (1.0, 2.0):
            pm = calculus.polynomial_map(coeffs, radius)
            value, err = calculus.loop_integral(
                pm, calculus.circle_loop(radius), steps=8192
            )
            mag = l1z.norm_upper(value).value
            ok = ok and mag <= err.value and err.value <= 1e-4
            worst_val = max(worst_val, mag)
            worst_err = max(worst_err, err.value)
    _report(5, ok, "worst |integral| %.2e, worst err %.2e" % (worst_val, worst_err))


def test_criterion_06_mean_value_inequalities():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        M = float(rng.uniform(0.1, 5.0))
        w = float(rng.uniform(0.5, 8.0))
        n = int(rng.integers(-3, 4))
        a, b = sorted(rng.uniform(0.0, 2.0, size=2))
        if b - a < 1e-3:
            b = a + 1e-3
        # curve with derivative bounded by M along a fixed basis direction
        fcurve = calculus.lipschitz_curve(
            lambda t, M=M, w=w, n=n: delta(n, (M / w) * np.exp(1j * w * t)), M
        )
        ok = ok and calculus.mean_value_bound_check(fcurve, cu(M), a, b)
        gcurve = calculus.lipschitz_curve(
            lambda t, M=M, w=w, n=n: delta(n, M * np.exp(1j * w * t)), M * w
        )
        value, err = calculus.integrate(gcurve, a, b, panels=64)
        ok = ok and l1z.norm_upper(value).value <= M * (b - a) + err.value
    _report(6, ok, "100 randomized curves")


def test_criterion_07_certified_bounds_dominate_oracles(rng):
    violations = 0
    # scalar bound arithmetic
    for _ in range(1000):
        xs = (rng.normal(size=8) + 1j * rng.normal(size=8)) * 10.0 ** rng.integers(
            -12, 12
        )
        if float(mp_abs_sum(xs)) > l1z.cu_sum_abs(xs).value:
            violations += 1
    # sequence norms
    for _ in range(1000):
        a = random_seq(rng)
        if mp_abs_sum(list(a.coeffs.values())) > l1z.norm_upper(a).value:
            violations += 1
    # inversion residuals
    for _ in range(1000):
        f = random_seq(rng, nmax=4)
        w = random_seq(rng, nmax=4)
        if mp_residual(f, w) > inversion.residual_norm(f, w).value:
            violations += 1
    # quadrature error bounds on curves with exact integrals
    for _ in range(1000):
        c0 = complex(rng.normal(), rng.normal())
        c1 = complex(rng.normal(), rng.normal())
        a, b = sorted(rng.uniform(0.0, 3.0, size=2))
        if b <= a:
            continue
        curve = calculus.lipschitz_curve(
            lambda t, c0=c0, c1=c1: delta(0, c0 + c1 * t), abs(c1)
        )
        value, err = calculus.integrate(curve, a, b, panels=16)
        exact = mpc(c0) * (b - a) + mpc(c1) * (
            mpmath.mpf(b) ** 2 - mpmath.mpf(a) ** 2
        ) / 2
        if abs(mpc(value.coeffs.get(0, 0j)) - exact) > err.value:
            violations += 1
    # line-algebra norms against the exact per-segment integral
    for _ in range(1000):
        bp = np.sort(rng.uniform(-2, 2, 4))
        if np.min(np.diff(bp)) < 1e-3:
            continue
        vals = rng.normal(size=4) + 1j * rng.normal(size=4)
        vals[0] = vals[-1] = 0.0
        f = l1r.PLFunction(bp, vals)
        oracle = mpmath.mpf(0)
        for i in range(3):
            seg = mp_segment_abs(vals[i], vals[i + 1])
            oracle += seg * (mpmath.mpf(bp[i + 1]) - mpmath.mpf(bp[i]))
        if oracle > l1r.norm_l1(f).value:
            violations += 1
    # CLI-reported evaluation errors
    from click.testing import CliRunner
    from wiener.cli import main as cli_main

    runner = CliRunner()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for i in range(1000):
            a = random_seq(rng, nmax=5)
            path = os.path.join(tmp, "a.json")
            with open(path, "w") as fh:
                fh.write(l1z.dumps(a))
            theta = float(rng.uniform(-math.pi, math.pi))
            lam = complex(math.cos(theta), math.sin(theta))
            res = runner.invoke(
                cli_main,
                ["eval", "--input", path, "--re", repr(lam.real),
                 "--im", repr(lam.imag)],
            )
            doc = json.loads(res.output)
            got = mpmath.mpc(doc["payload"]["re"], doc["payload"]["im"])
            mlam = mpc(lam)
            mlam /= abs(mlam)  # project the oracle point onto the circle
            want = mpmath.fsum(
                (mpc(c) * mlam ** n for n, c in a.coeffs.items())
            )
            # CLI evaluates the float lam; circle projection moves the
            # value by at most L * |lam - mlam|
            drift = float(
                l1z.circle_lipschitz_upper(a).value * abs(mlam - mpc(lam))
            )
            if abs(got - want) > doc["payload"]["err"] + drift:
                violations += 1
    ok = violations == 0
    _report(7, ok, "%d violations across 6000 randomized cases" % violations)


def test_criterion_08_kernel_transform_identities():
    lam = 1.0
    k = l1r.fejer_kernel(lam, 1e-4)
    v = l1r.dlvp_kernel(lam, 1e-4)
    ok = k.l1_slack.value <= 1e-3 and v.l1_slack.value <= 1e-3
    half, err_half = l1r.fourier_eval(k, lam / 2.0)
    ok = ok and abs(half - 0.5) <= 2.0 * err_half.value
    worst = 0.0
    for p in np.linspace(-lam, lam, 20):
        hv, err_v = l1r.fourier_eval(v, float(p))
        worst = max(worst, abs(hv - 1.0))
        ok = ok and abs(hv - 1.0) <= 2.0 * err_v.value
    _report(
        8,
        ok,
        "slacks %.2e / %.2e, |K^(l/2)-0.5| = %.2e, worst |V^-1| = %.2e"
        % (k.l1_slack.value, v.l1_slack.value, abs(half - 0.5), worst),
    )


def test_criterion_09_division_round_trip():
    t0 = time.perf_counter()
    f = l1r.fejer_kernel(1.0, 2e-3)
    w = l1r.spectrum_compactify(l1r.triangle(), 0.4, 0.01)
    g = l1r.convolve(f, w, 0.005)
    k, res = l1r.tauberian_divide(f, g, 0.5, 0.45, 0.05)
    elapsed = time.perf_counter() - t0

    # independent fine-grid oracle for ||f * k - g||_1
    h = 0.01
    lo = min(f.span()[0] + k.span()[0], g.span()[0]) - 1.0
    hi = max(f.span()[1] + k.span()[1], g.span()[1]) + 1.0
    xs = np.arange(lo, hi, h)
    fv = l1r.evaluate(f, xs)
    kv = l1r.evaluate(k, xs)
    nfft = 1
    while nfft < 2 * xs.size:
        nfft *= 2
    conv = h * np.fft.ifft(np.fft.fft(fv, nfft) * np.fft.fft(kv, nfft))[
        : 2 * xs.size - 1
    ]
    conv_xs = 2 * lo + h * np.arange(conv.size)
    gv = l1r.evaluate(g, conv_xs)
    oracle = float(np.sum(np.abs(conv - gv)) * h)
    ok = res.value <= 0.05 and oracle <= 0.05 and elapsed < 60.0
    _report(
        9,
        ok,
        "certified residual %.4f, fine-grid %.4f, %.1fs"
        % (res.value, oracle, elapsed),
    )


def test_criterion_10_smoothing_density():
    # ||K_lam * tri - tri||_1 -> 0: each certified distance brackets the
    # exact one from above, within twice the smoothed kernel's slack (the
    # piecewise-linear body is within l1_slack of the true convolution).
    # The exact distance decays like 2.24 / lam, so of this ladder only the
    # rung at 64 can meet 0.05 (the exact value at 32 is 0.0701).
    tri = l1r.triangle()
    dists, rungs = [], []
    ok = True
    for lam in (4.0, 8.0, 16.0, 32.0, 64.0):
        kf = l1r.fejer_kernel(lam, 1e-3)
        smooth = l1r.convolve(kf, tri, 1e-3)
        cert = l1r.norm_l1(l1r.sub_fn(smooth, tri)).value
        exact = float(mp_fejer_triangle_distance(lam))
        upper = exact + 2.0 * smooth.l1_slack.value
        ok = ok and exact <= cert <= upper
        dists.append(cert)
        rungs.append("%g: %.6f <= %.6f <= %.6f" % (lam, exact, cert, upper))
    monotone = all(dists[i + 1] <= dists[i] + 1e-9 for i in range(len(dists) - 1))
    ok = ok and monotone and dists[-1] <= 0.05
    _report(
        10,
        ok,
        "exact <= certified <= exact + 2 slack %s, monotone=%s" % (rungs, monotone),
    )


def test_criterion_11_cli_determinism(tmp_path):
    seq_path = tmp_path / "f.json"
    seq_path.write_text(l1z.dumps(L1ZSeq({0: 1.0, 1: 0.5, -3: 0.125})))
    u_path = tmp_path / "u.json"
    u_path.write_text(l1z.dumps(delta(1)))
    fn_path = tmp_path / "t.json"
    fn_path.write_text(l1r.dumps(l1r.triangle()))
    commands = [
        ["invert", "--input", str(seq_path), "--epsilon", "0.3", "--target", "1e-8"],
        ["eval", "--input", str(seq_path), "--re", "-1", "--im", "0"],
        ["norm", "--input", str(seq_path), "--kind", "seq"],
        ["norm", "--input", str(fn_path), "--kind", "fn"],
        ["exp", "--input", str(seq_path), "--tol", "1e-9"],
        ["resolvent-demo", "--u", str(u_path), "--radius", "2", "--steps", "256"],
    ]
    ok = True
    digests = []
    for args in commands:
        runs = [
            _cli(args).stdout,
            _cli(args).stdout,
            _cli(args, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}).stdout,
            _cli(args, {"OMP_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "4"}).stdout,
        ]
        ok = ok and all(r == runs[0] for r in runs[1:]) and runs[0]
        digests.append("%s %s" % (args[0], hashlib.sha256(runs[0].encode()).hexdigest()[:16]))
    _report(11, bool(ok), "%d golden commands, 4 runs each, stdout sha256 %s"
            % (len(commands), ", ".join(digests)))
