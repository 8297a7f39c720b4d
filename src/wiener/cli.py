"""Batch command-line front end.

Reads JSON elements, runs certified operations, and emits a
CommandResult envelope ``{"status", "payload", "log"}``.  Exit codes:
0 ok, 2 hypothesis-failed or not-certified, 3 invalid input.  Identical
inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click

from . import calculus, inversion, l1r, l1z
from .errors import HypothesisFailure, InvalidInput, WienerError

_EXIT_FAILED = 2
_EXIT_INVALID = 3

# first match wins: every other library error is a certificate not reached
_FAILURES = (
    (InvalidInput, "invalid-input", _EXIT_INVALID),
    (HypothesisFailure, "hypothesis-failed", _EXIT_FAILED),
    (WienerError, "not-certified", _EXIT_FAILED),
)


def _emit(out, status: str, payload, log):
    doc = {"status": status, "payload": payload, "log": list(log)}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        _write(out, text)


def _write(path, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput("cannot write %s: %s" % (path, exc)) from exc


def _jsonable_report(report) -> dict:
    clean = {}
    for key, val in report.items():
        if isinstance(val, complex):
            clean[key] = {"re": val.real, "im": val.imag}
        elif isinstance(val, (int, float, str, bool, type(None))):
            clean[key] = val
    return clean


def _envelope(body):
    """Wrap a body that returns ``(payload, log)`` as an enveloped command.

    Adds ``--out`` (stdout when it cannot be written); a library error gives
    a payload-less envelope per ``_FAILURES``.
    """

    @click.option("--out", default=None)
    @functools.wraps(body)
    def command(out, **params):
        try:
            payload, log = body(**params)
            return _emit(out, "ok", payload, log)
        except WienerError as exc:
            status, code = next((s, c) for cls, s, c in _FAILURES if isinstance(exc, cls))
            log = [str(exc)]
            report = _jsonable_report(exc.report)
            if report:
                log.append("report: %s" % json.dumps(report, sort_keys=True))
        try:
            _emit(out, status, None, log)
        except InvalidInput as exc:
            status, code = "invalid-input", _EXIT_INVALID
            _emit(None, status, None, [str(exc)])
        raise SystemExit(code)

    return command


def _read(path, loads):
    try:
        with open(path) as fh:
            return loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput("cannot read %s: %s" % (path, exc)) from exc


@click.group()
def main():
    """Certified convolution-algebra computations."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--epsilon", required=True, type=float, help="circle lower bound to certify")
@click.option("--target", required=True, type=float, help="residual target")
@click.option("--grid", type=int, default=None, help="initial certification grid")
@_envelope
def invert(input_path, epsilon, target, grid):
    """Certified inverse of a sequence-algebra element."""
    f = _read(input_path, l1z.loads)
    inverse, cert = inversion.wiener_invert(f, epsilon, target, grid=grid)
    payload = {"inverse": l1z.to_jsonable(inverse), "certificate": cert.to_jsonable()}
    return payload, ["residual %.3e" % cert.residual.value]


@main.command("resolvent-demo")
@click.option("--u", "u_path", required=True, type=click.Path())
@click.option("--radius", required=True, type=float)
@click.option("--steps", default=4096, type=int)
@click.option("--tol", default=1e-6, type=float, help="resolvent series tolerance")
@click.option("--trace", default=None, help="CSV trace of integrand samples")
@_envelope
def resolvent_demo(u_path, radius, steps, tol, trace):
    """Loop integral of the resolvent over a circle: two pi i times the unit."""
    fmap = calculus.resolvent_map(_read(u_path, l1z.loads), radius, tol)
    loop = calculus.circle_loop(radius)
    value, err = calculus.loop_integral(fmap, loop, steps)
    if trace:
        ts, samples = calculus.loop_samples(fmap, loop, steps)
        lines = ["t,re,im"] + ["%r,%r,%r" % (t, s.real, s.imag) for t, s in zip(ts, samples)]
        _write(trace, "\n".join(lines) + "\n")
    target = l1z.delta(0, 2j * math.pi)
    dev = l1z.norm_upper(l1z.sub(value, target)).value
    payload = {
        "value": l1z.to_jsonable(value),
        "err": err.value,
        "deviation_from_2pii": dev,
    }
    return payload, ["certified err %.3e" % err.value]


@main.command()
@click.option("--f", "f_path", required=True, type=click.Path())
@click.option("--g", "g_path", required=True, type=click.Path())
@click.option("--band", required=True, type=float)
@click.option("--epsilon", required=True, type=float)
@click.option("--tol", required=True, type=float)
@_envelope
def tauberian(f_path, g_path, band, epsilon, tol):
    """Certified division in the line algebra."""
    f = _read(f_path, l1r.loads)
    g = _read(g_path, l1r.loads)
    k, residual = l1r.tauberian_divide(f, g, band, epsilon, tol)
    payload = {"witness": l1r.to_jsonable(k), "residual": residual.value}
    return payload, ["residual %.3e" % residual.value]


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--tol", default=1e-9, type=float)
@_envelope
def exp(input_path, tol):
    """Power-series exponential of a sequence-algebra element."""
    result = calculus.banach_exp(_read(input_path, l1z.loads), tol)
    return l1z.to_jsonable(result), []


@main.command("eval")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--re", "lam_re", default=1.0, type=float)
@click.option("--im", "lam_im", default=0.0, type=float)
@_envelope
def eval_cmd(input_path, lam_re, lam_im):
    """Evaluate a sequence-algebra element on the unit circle."""
    a = _read(input_path, l1z.loads)
    value, err = l1z.eval_circle(a, complex(lam_re, lam_im))
    # reported bound covers the tail and the evaluation roundoff
    total_err = err.value + l1z.eval_roundoff_bound(a)
    return {"re": value.real, "im": value.imag, "err": total_err}, []


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--kind", type=click.Choice(["seq", "fn"]), default="seq")
@_envelope
def norm(input_path, kind):
    """Certified one-norm upper bound of an element."""
    if kind == "seq":
        bound = l1z.norm_upper(_read(input_path, l1z.loads))
    else:
        bound = l1r.norm_l1(_read(input_path, l1r.loads))
    return {"norm_upper": bound.value}, []


def run():
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:
        # usage errors: text on stderr, envelope on stdout
        exc.show()
        _emit(None, "invalid-input", None, [exc.format_message()])
        raise SystemExit(_EXIT_INVALID)
    except click.exceptions.Abort:
        raise SystemExit(1)


if __name__ == "__main__":
    run()
