"""Seeded inputs, operations and independent checks for the four workloads.

Every workload is a fixed list of operations (one "pass") built from the
seed alone.  The runner cycles through whole passes, so the mix of a run
is an exact multiple of the pass and its percentiles land inside groups
of ops of similar cost.  Each op returns an :class:`Outcome`; its
``check`` recomputes the answer with plain numpy (never with ``wiener``)
and returns ``None`` when the outcome is right or a reason when it is not.

Input parameters are drawn inside ranges that keep the work of an op
nearly independent of the seed (fixed sizes, grid levels and ratios), so
that the run-to-run spread of the timings reflects the program and not
the draw.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from wiener import calculus, cli, errors, inversion, l1r, l1z
from wiener.l1z import L1ZSeq

ULP = 2.0 ** -52

#: percentile reported as ``latency_tail_ms``: the highest one that keeps at
#: least ten samples beyond it at the op counts a run makes; ``100`` means
#: the slowest op (``line_divide`` makes too few ops for a percentile)
TAIL_PERCENTILE = {
    "seq_invert": 95.0,
    "line_divide": 100.0,
    "resolvent_calculus": 90.0,
    "cli_batch": 75.0,
}

CLI_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    status: str  # "certified" or "rejected"
    bound: Optional[float]  # certified bound the op returned, if any
    value: Any  # raw result, kept for the independent check
    fields: Dict[str, Any] = field(default_factory=dict)  # per-op record extras
    digest: str = ""  # fingerprint of the result, compared across repeats


@dataclass
class Op:
    kind: str
    params: Dict[str, Any]  # JSON-able description of the input
    size: Dict[str, int]  # input size for the per-op record
    run: Callable[[], Outcome]
    check: Callable[[Outcome], Optional[str]]
    run_inproc: Optional[Callable[[], Outcome]] = None  # traced CLI ops only


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:32]


def _cplx(z: complex) -> List[float]:
    return [z.real, z.imag]


def _coeff_list(coeffs: Dict[int, complex]) -> List[List[float]]:
    return [[n, *_cplx(complex(c))] for n, c in sorted(coeffs.items())]


def seq_digest(a: L1ZSeq, *extra) -> str:
    return _sha(_coeff_list(a.coeffs), a.tail.value, *extra)


def input_digest(ops: List[Op]) -> str:
    return _sha(json.dumps([[op.kind, op.params] for op in ops], sort_keys=True))


# ---------------------------------------------------------------------------
# independent numpy checks


def _dense(coeffs: Dict[int, complex]):
    lo = min(coeffs)
    out = np.zeros(max(coeffs) - lo + 1, dtype=complex)
    for n, c in coeffs.items():
        out[n - lo] = c
    return lo, out


def check_inverse(f, h, tail, residual, target, closed_form=None) -> Optional[str]:
    """Dense recomputation of ``||1 - f*h||_1`` for a certified inverse.

    ``f`` and ``h`` are coefficient maps and ``tail`` the witness tail.
    The dense estimate carries its own rounding error ``gamma``; the
    certified residual must dominate it and must meet the target.
    ``closed_form`` is ``(a, m)`` for a symbol ``1 + a z^m``, whose inverse
    has coefficient ``(-a)^k`` at ``m k``.
    """
    flo, fd = _dense(f)
    hlo, hd = _dense(h)
    prod = np.convolve(fd, hd)
    unit = -(flo + hlo)
    nf, nh = float(np.sum(np.abs(fd))), float(np.sum(np.abs(hd)))
    if 0 <= unit < prod.size:
        prod[unit] -= 1.0
        dense = float(np.sum(np.abs(prod)))
    else:
        dense = float(np.sum(np.abs(prod))) + 1.0
    dense += tail * nf
    gamma = 8.0 * (min(fd.size, hd.size) + prod.size + 4) * ULP * (nf * nh + 1.0)
    if not dense <= residual + gamma:
        return "dense residual %.3e above certified %.3e" % (dense, residual)
    if not residual <= target:
        return "certified residual %.3e above target %.3e" % (residual, target)
    if closed_form is not None:
        a, m = closed_form
        idx = set(h)
        k = 0
        while abs(a) ** k > 1e-12:
            idx.add(m * k)
            k += 1
        for n in idx:
            want = (-a) ** (n // m) if n >= 0 and n % m == 0 else 0.0
            if abs(h.get(n, 0j) - want) > 1e-9:
                return "coefficient %d off the closed form by %.3e" % (n, abs(h.get(n, 0j) - want))
    return None


def fft_exp(coeffs: Dict[int, complex], M: int = 512) -> Dict[int, complex]:
    """Coefficients of ``exp(a)`` from samples of ``a`` on M roots of unity."""
    ks = np.arange(M)
    vals = np.zeros(M, dtype=complex)
    for n, c in coeffs.items():
        vals += c * np.exp(2j * math.pi * n * ks / M)
    out = np.fft.fft(np.exp(vals)) / M
    return {(j if j <= M // 2 else j - M): complex(out[j]) for j in range(M)}


def check_exp(a: Dict[int, complex], got: Dict[int, complex], tail: float) -> Optional[str]:
    """``||exp(a) - result||_1 <= tail``, with exp(a) recomputed by FFT."""
    ref = fft_exp(a)
    dev = sum(abs(got.get(n, 0j) - ref.get(n, 0j)) for n in set(ref) | set(got))
    mass = sum(abs(c) for c in a.values())
    gamma = 512 * 9 * ULP * math.exp(mass)
    if not dev <= tail + gamma:
        return "exp off by %.3e, tail %.3e" % (dev, tail)
    return None


def check_loop_value(value: Dict[int, complex], tail: float, err: float, unit: complex) -> Optional[str]:
    """``||value - unit*1|| <= err`` for a loop integral, tail included."""
    dev = sum(abs(c - (unit if n == 0 else 0.0)) for n, c in value.items())
    if 0 not in value:
        dev += abs(unit)
    dev += tail
    if not dev <= err:
        return "loop integral off by %.3e, certified err %.3e" % (dev, err)
    return None


def fine_grid_residual(f, k, g, h: float = 0.01) -> float:
    """Independent FFT estimate of ``||f * k - g||_1`` on a fine grid."""
    lo = min(f.span()[0] + k.span()[0], g.span()[0]) - 1.0
    hi = max(f.span()[1] + k.span()[1], g.span()[1]) + 1.0
    xs = np.arange(lo, hi, h)
    fv = np.interp(xs, f.breakpoints, f.values.real, left=0, right=0)
    kv = np.interp(xs, k.breakpoints, k.values.real, left=0, right=0) + 1j * np.interp(
        xs, k.breakpoints, k.values.imag, left=0, right=0
    )
    nfft = 1
    while nfft < 2 * xs.size:
        nfft *= 2
    conv = h * np.fft.ifft(np.fft.fft(fv, nfft) * np.fft.fft(kv, nfft))[: 2 * xs.size - 1]
    cx = 2 * lo + h * np.arange(conv.size)
    gv = np.interp(cx, g.breakpoints, g.values.real, left=0, right=0) + 1j * np.interp(
        cx, g.breakpoints, g.values.imag, left=0, right=0
    )
    return float(np.sum(np.abs(conv - gv)) * h)


# ---------------------------------------------------------------------------
# seq_invert


def _invert_op(kind, coeffs, eps, target, closed_form=None, reject=False) -> Op:
    f = L1ZSeq(dict(coeffs))

    def run() -> Outcome:
        try:
            inv, cert = inversion.wiener_invert(f, eps, target)
        except errors.HypothesisFailure as exc:
            if not reject:
                raise
            rep = exc.report
            return Outcome("rejected", None, rep, {"N": rep.get("N")},
                           _sha(rep.get("N"), rep.get("min_certified_lower")))
        fields = {"N": cert.params["grid"], "M": cert.params["degree"],
                  "witness_nnz": len(inv.coeffs)}
        return Outcome("certified", cert.residual.value, inv, fields,
                       seq_digest(inv, cert.residual.value))

    def check(out: Outcome) -> Optional[str]:
        if reject:
            return None if out.status == "rejected" else "singular symbol was not rejected"
        if out.status != "certified":
            return "expected a certified inverse"
        return check_inverse(f.coeffs, out.value.coeffs, out.value.tail.value,
                             out.bound, target, closed_form)

    params = {"coeffs": _coeff_list(f.coeffs), "eps": eps, "target": target}
    return Op(kind, params, {"nnz": len(f.coeffs)}, run, check)


def _pow2_at_least(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(x)))


def decaying_symbol(rng, n: int):
    """``1 - sum b_k e^{ik theta} z^k`` over ``|k| <= n//2``, min modulus ``1 - s``.

    Returns the coefficients and the circle bound eps, set so that the
    doubling grid certifies at one fixed level: eps sits 1.4 arc slacks
    (``pi L / N``) below the true minimum.
    """
    half = (n - 1) // 2
    d = max(1.25, half / 32.0)  # decay length
    ks = np.arange(-half, half + 1)
    b = np.exp(-np.abs(ks) / d) * rng.uniform(0.5, 1.0, ks.size)
    b[half] = 0.0
    s = 0.55
    b *= s / b.sum()
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c = -b * np.exp(1j * ks * theta)
    c[half] = 1.0
    lip = float(np.sum(np.abs(ks) * b))
    grid = _pow2_at_least(40.0 * d)
    eps = (1.0 - s) - 1.4 * math.pi * lip / grid
    return dict(zip(ks.tolist(), c.tolist())), float(eps)


def build_seq_invert(seed: int, workdir=None) -> List[Op]:
    rng = np.random.default_rng([seed, 1])
    ops: List[Op] = []
    target = 1e-9
    # short symbols of 2-3 terms (criteria 01, 02 and 11 shapes); the
    # median op falls in the middle of the criterion 02 group
    for shape in [0] * 7 + [1] * 13 + [2]:
        phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if shape == 0:
            a = 0.4 * phase
            ops.append(_invert_op("short", {0: 1.0, 1: a}, 0.9 * 0.6, target,
                                  closed_form=(a, 1)))
        elif shape == 1:
            b = 0.2 * phase
            ops.append(_invert_op("short", {0: 1.0, 1: b, -1: b.conjugate()}, 0.9 * 0.6,
                                  target))
        else:
            c = 0.1 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            ops.append(_invert_op("short", {0: 1.0, 1: 0.4 * phase, -3: c}, 0.9 * 0.5, target))
    # singular and near-singular symbols: rejection is the right outcome
    for m, r in ((1, 1.0), (2, 1.0), (3, 0.98), (5, 0.98)):
        a = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        ops.append(_invert_op("singular", {0: 1.0, m: a}, 0.2, 1e-6, reject=True))
    # decaying symbols of 41, 401 and 2,001 coefficients
    for n in (41, 41, 401, 401):
        coeffs, eps = decaying_symbol(rng, n)
        ops.append(_invert_op("decaying", coeffs, eps, target))
    # lacunary hard-margin symbols 1 + a z^m, eps just below 1 - |a|
    for m in (150, 300):
        r = 0.5
        a = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        grid = _pow2_at_least(32.0 * m)
        eps = (1.0 - r) - 1.4 * math.pi * r * m / grid
        ops.append(_invert_op("lacunary", {0: 1.0, m: a}, eps, target, closed_form=(a, m)))
    # the large class that sets the tail (with the m = 300 symbol)
    for _ in range(5):
        coeffs, eps = decaying_symbol(rng, 2001)
        ops.append(_invert_op("decaying", coeffs, eps, target))
    return _shuffled(rng, ops)


def _shuffled(rng, ops: List[Op]) -> List[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# line_divide

BAND, DIV_EPS, DIV_TOL = 0.5, 0.45, 0.05
MASS = 0.25  # of the triangle; with lam_g it sets the frequency count


def _divide_op(lam_f, tol_f, center, width, lam_g) -> Op:
    def run() -> Outcome:
        f = l1r.fejer_kernel(lam_f, tol_f)
        w = l1r.spectrum_compactify(l1r.triangle(center, width, MASS / width), lam_g, 0.01)
        g = l1r.convolve(f, w, 0.005)
        k, res = l1r.tauberian_divide(f, g, BAND, DIV_EPS, DIV_TOL)
        fields = {"S_f": f.breakpoints.size - 1, "S_g": g.breakpoints.size - 1,
                  "witness_nodes": k.breakpoints.size}
        digest = _sha(k.breakpoints.tobytes(), k.values.tobytes(), res.value)
        return Outcome("certified", res.value, (f, k, g), fields, digest)

    def check(out: Outcome) -> Optional[str]:
        if not out.bound <= DIV_TOL:
            return "certified residual %.4f above tol" % out.bound
        oracle = fine_grid_residual(*out.value)
        if not oracle <= DIV_TOL:
            return "fine-grid residual %.4f above tol" % oracle
        return None

    params = {"lam_f": lam_f, "tol_f": tol_f, "center": center, "width": width,
              "lam_g": lam_g, "band": BAND, "eps": DIV_EPS, "tol": DIV_TOL}
    return Op("divide", params, {}, run, check)


def build_line_divide(seed: int, workdir=None) -> List[Op]:
    # The Fejer kernel's segment count depends only on tol_f, and the
    # frequency count only on lam_g and the triangle's mass, so these
    # ranges keep every op near the same cost; all of them certify.
    rng = np.random.default_rng([seed, 2])
    return [
        _divide_op(float(rng.uniform(1.0, 1.1)), 4e-3, float(rng.uniform(-1.0, 1.0)),
                   float(rng.uniform(0.8, 1.25)), BAND)
        for _ in range(5)
    ]


# ---------------------------------------------------------------------------
# resolvent_calculus

RATIO = 0.5  # ||u|| / R for every resolvent class
RES_STEPS, RES_TOL = 256, 1e-6
POLY_STEPS = 1024


def _exp_op(coeffs) -> Op:
    a = L1ZSeq(dict(coeffs))

    def run() -> Outcome:
        r = calculus.banach_exp(a, 1e-9)
        return Outcome("certified", r.tail.value, r, {"nnz_out": len(r.coeffs)}, seq_digest(r))

    def check(out: Outcome) -> Optional[str]:
        r = out.value
        if list(a.coeffs) == [0]:
            c = a.coeffs[0]
            dev = abs(r.coeffs.get(0, 0j) - cmath.exp(c))
            dev += sum(abs(v) for n, v in r.coeffs.items() if n != 0)
            if not dev <= r.tail.value + 4 * ULP * abs(cmath.exp(c)):
                return "exp(c) off by %.3e, tail %.3e" % (dev, r.tail.value)
            return None
        return check_exp(a.coeffs, r.coeffs, r.tail.value)

    return Op("exp", {"coeffs": _coeff_list(a.coeffs)}, {"nnz": len(a.coeffs)}, run, check)


def _poly_op(coeffs, radius) -> Op:
    def run() -> Outcome:
        pm = calculus.polynomial_map(coeffs, radius)
        value, err = calculus.loop_integral(pm, calculus.circle_loop(radius), steps=POLY_STEPS)
        return Outcome("certified", err.value, value, {}, seq_digest(value, err.value))

    def check(out: Outcome) -> Optional[str]:
        return check_loop_value(out.value.coeffs, out.value.tail.value, out.bound, 0j)

    params = {"coeffs": [_cplx(c) for c in coeffs], "radius": radius, "steps": POLY_STEPS}
    return Op("poly_loop", params, {"N": POLY_STEPS}, run, check)


def _resolvent_op(coeffs) -> Op:
    u = L1ZSeq(dict(coeffs))
    radius = sum(abs(c) for c in coeffs.values()) / RATIO

    def run() -> Outcome:
        value, err = calculus.resolvent_loop_integral(u, radius, RES_STEPS, RES_TOL)
        return Outcome("certified", err.value, value, {"nnz_out": len(value.coeffs)},
                       seq_digest(value, err.value))

    def check(out: Outcome) -> Optional[str]:
        return check_loop_value(out.value.coeffs, out.value.tail.value, out.bound, 2j * math.pi)

    params = {"u": _coeff_list(u.coeffs), "radius": radius, "steps": RES_STEPS, "tol": RES_TOL}
    return Op("resolvent_loop", params, {"nnz": len(u.coeffs), "N": RES_STEPS}, run, check)


def _unit_norm_coeffs(rng, support, norm) -> Dict[int, complex]:
    w = rng.uniform(0.5, 1.0, len(support))
    w *= norm / w.sum()
    return {n: float(x) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for n, x in zip(support, w)}


def build_resolvent_calculus(seed: int, workdir=None) -> List[Op]:
    rng = np.random.default_rng([seed, 3])
    ops: List[Op] = []
    for _ in range(4):
        ops.append(_exp_op({0: 1.5 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))}))
    for support in ((-1, 0, 1), (0, 1), (0, 1, 2), (-1, 1)):
        ops.append(_exp_op(_unit_norm_coeffs(rng, support, 0.75)))
    for i in range(6):
        # criterion 05 shape: decaying envelope keeps the bound small
        coeffs = [0.004 * 4.0 ** -k * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for k in range(7)]
        ops.append(_poly_op(coeffs, 1.0 + (i % 2)))
    # resolvent loops at a fixed ||u|| / R, one support per class
    for support, count in (((1,), 2), ((-1, 1), 2), ((0, 1, 2), 4)):
        for _ in range(count):
            ops.append(_resolvent_op(_unit_norm_coeffs(rng, support, 1.0)))
    return _shuffled(rng, ops)


# ---------------------------------------------------------------------------
# cli_batch


def _cli_env(src: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_cli(args: List[str], workdir: str, env) -> tuple:
    """Run ``python -m wiener.cli`` once; returns (exit code, stdout, maxrss kB).

    ``os.wait4`` gives this child's own resource usage, so the peak RSS
    is the CLI's alone.  A timer kills a child that hangs.
    """
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    argv = [sys.executable, "-m", "wiener.cli", *args]
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    timer = threading.Timer(CLI_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return os.waitstatus_to_exitcode(status), stdout, usage.ru_maxrss


def inproc_cli(args: List[str]) -> tuple:
    """Run the CLI entry point in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["wiener", *args]
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.run()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return code, out.getvalue().encode()


def _cli_op(kind, args, files, nnz, workdir, env, expect_code, expect_status,
            check_payload=None, bound_of=None) -> Op:
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in args]

    def outcome(code, stdout, fields) -> Outcome:
        status, bound = "rejected", None
        if code == 0:
            status = "certified"
            if bound_of is not None:
                bound = bound_of(json.loads(stdout)["payload"])
        fields.update({"exit": code, "bytes": len(stdout)})
        return Outcome(status, bound, (code, stdout), fields, _sha(code, stdout))

    def run() -> Outcome:
        code, stdout, rss_kb = spawn_cli(argv, workdir, env)
        return outcome(code, stdout, {"rss_mb": rss_kb / 1024.0})

    def run_inproc() -> Outcome:
        code, stdout = inproc_cli(argv)
        return outcome(code, stdout, {})

    def check(out: Outcome) -> Optional[str]:
        code, stdout = out.value
        if code != expect_code:
            return "exit code %d, expected %d" % (code, expect_code)
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON envelope"
        if doc.get("status") != expect_status:
            return "status %r, expected %r" % (doc.get("status"), expect_status)
        if expect_code != 0:
            return None if doc.get("payload") is None else "failure envelope carries a payload"
        return check_payload(doc["payload"]) if check_payload else None

    params = {"args": args, "files": files}
    return Op(kind, params, {"nnz": nnz}, run, check, run_inproc)


def _seq_json(coeffs: Dict[int, complex]) -> str:
    return l1z.dumps(L1ZSeq(dict(coeffs)))


def _coeffs_of(obj) -> Dict[int, complex]:
    return {int(e["n"]): complex(e["re"], e["im"]) for e in obj["coeffs"]}


def build_cli_batch(seed: int, workdir: str) -> List[Op]:
    # The symbols whose commands return a certificate are fixed: the
    # criterion 11 golden inputs and one 2,001-term symbol.  With only
    # three certificates in a pass, a seeded symbol would move
    # cert_digits_mean by the step of a Newton iteration.  The seed moves
    # the evaluation point, the triangle and the rejected symbol.
    rng = np.random.default_rng([seed, 4])
    src = os.path.dirname(os.path.dirname(os.path.abspath(l1z.__file__)))
    env = _cli_env(src)
    f3 = {0: 1.0, 1: 0.5, -3: 0.125}
    u = {1: 1.0}
    radius = 2.0
    th = float(rng.uniform(-math.pi, math.pi))
    lam = complex(math.cos(th), math.sin(th))
    tri_c, tri_w, tri_h = (round(float(x), 6) for x in (rng.uniform(-1, 1), rng.uniform(0.5, 2),
                                                        rng.uniform(0.5, 2)))
    big, big_eps = decaying_symbol(np.random.default_rng(2001), 2001)
    sing = {0: 1.0, 1: cmath.exp(1j * rng.uniform(0, 2 * math.pi))}
    sing_eps = [0.01, 0.05, 0.2, 0.45, 0.9][int(rng.integers(5))]
    files = {
        "f3.json": _seq_json(f3),
        "u.json": _seq_json(u),
        "tri.json": l1r.dumps(l1r.triangle(tri_c, tri_w, tri_h)),
        "big.json": _seq_json(big),
        "sing.json": _seq_json(sing),
        "bad.json": '{"coeffs": [{"n": 0, "re": 1.0, "im"',
    }

    def inverse_ok(of, target):
        def chk(p):
            return check_inverse(of, _coeffs_of(p["inverse"]), p["inverse"]["tail"],
                                 p["certificate"]["residual"], target)
        return chk

    def eval_ok(p):
        want = sum(cc * lam ** n for n, cc in f3.items())
        drift = sum(abs(n) * abs(cc) for n, cc in f3.items()) * 4 * ULP
        if not abs(complex(p["re"], p["im"]) - want) <= p["err"] + drift:
            return "eval off by more than its err"
        return None

    def norm_ok(exact):
        def chk(p):
            if not p["norm_upper"] >= exact * (1 - 64 * ULP):
                return "norm bound %.17g below the true norm %.17g" % (p["norm_upper"], exact)
            return None
        return chk

    def exp_ok(p):
        return check_exp(f3, _coeffs_of(p), p["tail"])

    def resolvent_ok(p):
        if not p["deviation_from_2pii"] <= p["err"]:
            return "deviation above err"
        return check_loop_value(_coeffs_of(p["value"]), p["value"]["tail"], p["err"], 2j * math.pi)

    nnz = {"f3.json": 3, "u.json": 1, "tri.json": 2, "big.json": 2001, "sing.json": 2,
           "bad.json": 0}

    def put(name, args, file_name, code, status, chk=None, bound_of=None):
        ops.append(_cli_op(name, args, {file_name: files[file_name]}, nnz[file_name], workdir,
                           env, code, status, chk, bound_of))

    residual = lambda p: p["certificate"]["residual"]  # noqa: E731
    ops: List[Op] = []
    # criterion 11 golden command shapes
    put("invert", ["invert", "--input", "@f3.json", "--epsilon", "0.3", "--target", "1e-8"],
        "f3.json", 0, "ok", inverse_ok(f3, 1e-8), residual)
    put("eval", ["eval", "--input", "@f3.json", "--re", repr(lam.real), "--im", repr(lam.imag)],
        "f3.json", 0, "ok", eval_ok)
    put("norm", ["norm", "--input", "@f3.json", "--kind", "seq"], "f3.json", 0, "ok",
        norm_ok(sum(abs(v) for v in f3.values())))
    put("norm", ["norm", "--input", "@tri.json", "--kind", "fn"], "tri.json", 0, "ok",
        norm_ok(tri_w * tri_h))
    put("exp", ["exp", "--input", "@f3.json", "--tol", "1e-9"], "f3.json", 0, "ok", exp_ok)
    put("resolvent", ["resolvent-demo", "--u", "@u.json", "--radius", repr(radius),
                      "--steps", "256"], "u.json", 0, "ok", resolvent_ok,
        lambda p: p["err"])
    # criterion 03 rejection and a malformed input
    put("reject", ["invert", "--input", "@sing.json", "--epsilon", repr(sing_eps),
                   "--target", "1e-6"], "sing.json", 2, "hypothesis-failed")
    put("malformed", ["norm", "--input", "@bad.json"], "bad.json", 3, "invalid-input")
    # a 2,001-coefficient symbol: witness JSON with thousands of coefficients
    put("invert", ["invert", "--input", "@big.json", "--epsilon", repr(big_eps),
                   "--target", "1e-9"], "big.json", 0, "ok", inverse_ok(big, 1e-9), residual)
    put("norm", ["norm", "--input", "@big.json"], "big.json", 0, "ok",
        norm_ok(sum(abs(v) for v in big.values())))
    return _shuffled(rng, ops)


MAKE_OPS = {
    "seq_invert": build_seq_invert,
    "line_divide": build_line_divide,
    "resolvent_calculus": build_resolvent_calculus,
    "cli_batch": build_cli_batch,
}


# ---------------------------------------------------------------------------
# fixed-size layer probes (traced run): the ROADMAP "Current state" cases


#: fixed-size probes of the traced run, all in seconds
PROBE_METRICS = (
    "inversion.circle_min_modulus_certify.N4096_s",
    "inversion.circle_min_modulus_certify.N16384_s",
    "inversion.circle_min_modulus_certify.N65536_s",
    "calculus.resolvent_loop_integral.delta1_4096_s",
    "l1r.tauberian_divide.criterion09_s",
    "cli.startup_s",
)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def layer_probes(src: str) -> Dict[str, float]:
    rng = np.random.default_rng(2001)
    coeffs = rng.normal(size=2001) + 1j * rng.normal(size=2001)
    coeffs *= 0.5 / np.sum(np.abs(coeffs))
    coeffs[1000] = 1.0
    f = L1ZSeq(dict(zip(range(-1000, 1001), coeffs.tolist())))
    out = {}
    for N in (1 << 12, 1 << 14, 1 << 16):
        out["inversion.circle_min_modulus_certify.N%d_s" % N] = _timed(
            lambda: inversion.circle_min_modulus_certify(f, 0.25, N))
    out["calculus.resolvent_loop_integral.delta1_4096_s"] = _timed(
        lambda: calculus.resolvent_loop_integral(l1z.delta(1), 2.0, 4096, 1e-6))
    fk = l1r.fejer_kernel(1.0, 2e-3)
    g = l1r.convolve(fk, l1r.spectrum_compactify(l1r.triangle(), 0.4, 0.01), 0.005)
    out["l1r.tauberian_divide.criterion09_s"] = _timed(
        lambda: l1r.tauberian_divide(fk, g, 0.5, 0.45, 0.05))
    starts = []
    env = _cli_env(src)
    for _ in range(3):
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "import wiener.cli"], env)
        _, status, _ = os.wait4(pid, 0)
        starts.append(time.perf_counter() - t0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("import wiener.cli failed")
    out["cli.startup_s"] = float(np.median(starts))
    return out
