"""Command-line interface: envelopes, exit codes, determinism."""

import json
import math

import pytest
from click.testing import CliRunner

from wiener import cli, l1r, l1z
from wiener.cli import main
from wiener.l1z import L1ZSeq


@pytest.fixture
def runner():
    return CliRunner()


def seq_file(tmp_path, name, coeffs):
    p = tmp_path / name
    p.write_text(l1z.dumps(L1ZSeq(coeffs)))
    return str(p)


def fn_file(tmp_path, name, f):
    p = tmp_path / name
    p.write_text(l1r.dumps(f))
    return str(p)


def parse(result):
    doc = json.loads(result.output)
    assert set(doc) == {"status", "payload", "log"}
    return doc


def test_invert_ok(tmp_path, runner):
    path = seq_file(tmp_path, "f.json", {0: 1.0, 1: 0.5})
    result = runner.invoke(
        main, ["invert", "--input", path, "--epsilon", "0.45", "--target", "1e-9"]
    )
    assert result.exit_code == 0
    doc = parse(result)
    assert doc["status"] == "ok"
    assert doc["payload"]["certificate"]["residual"] <= 1e-9
    inv = l1z.from_jsonable(doc["payload"]["inverse"])
    assert abs(inv.coeffs[0] - 1.0) <= 1e-9


def test_invert_scalar(tmp_path, runner):
    path = seq_file(tmp_path, "f.json", {0: 2.0})
    result = runner.invoke(
        main, ["invert", "--input", path, "--epsilon", "1.0", "--target", "1e-9"]
    )
    assert result.exit_code == 0
    inv = l1z.from_jsonable(parse(result)["payload"]["inverse"])
    assert abs(inv.coeffs[0] - 0.5) <= 1e-9


def test_invert_hypothesis_failure_exit_2(tmp_path, runner):
    path = seq_file(tmp_path, "f.json", {0: 1.0, 1: 1.0})
    result = runner.invoke(
        main, ["invert", "--input", path, "--epsilon", "0.1", "--target", "1e-6"]
    )
    assert result.exit_code == 2
    doc = parse(result)
    assert doc["status"] == "hypothesis-failed"
    assert doc["payload"] is None
    assert any("minimum modulus" in line for line in doc["log"])


def test_invert_invalid_input_exit_3(tmp_path, runner):
    p = tmp_path / "bad.json"
    p.write_text("not json at all")
    result = runner.invoke(
        main, ["invert", "--input", str(p), "--epsilon", "0.5", "--target", "1e-6"]
    )
    assert result.exit_code == 3
    assert parse(result)["status"] == "invalid-input"


def test_invert_missing_file_exit_3(tmp_path, runner):
    result = runner.invoke(
        main,
        ["invert", "--input", str(tmp_path / "nope.json"), "--epsilon", "0.5",
         "--target", "1e-6"],
    )
    assert result.exit_code == 3


def test_eval_command(tmp_path, runner):
    path = seq_file(tmp_path, "f.json", {0: 1.0, 1: 0.5})
    result = runner.invoke(main, ["eval", "--input", path, "--re", "-1", "--im", "0"])
    assert result.exit_code == 0
    doc = parse(result)
    assert abs(doc["payload"]["re"] - 0.5) <= 1e-12


def test_norm_command_seq_and_fn(tmp_path, runner):
    spath = seq_file(tmp_path, "f.json", {0: 3.0, 2: -4.0})
    result = runner.invoke(main, ["norm", "--input", spath, "--kind", "seq"])
    assert result.exit_code == 0
    assert abs(parse(result)["payload"]["norm_upper"] - 7.0) <= 1e-9

    fpath = fn_file(tmp_path, "t.json", l1r.triangle())
    result = runner.invoke(main, ["norm", "--input", fpath, "--kind", "fn"])
    assert result.exit_code == 0
    n = parse(result)["payload"]["norm_upper"]
    assert 1.0 <= n <= 1.001


def test_exp_command(tmp_path, runner):
    path = seq_file(tmp_path, "f.json", {0: 1.0})
    result = runner.invoke(main, ["exp", "--input", path, "--tol", "1e-10"])
    assert result.exit_code == 0
    doc = parse(result)
    e = l1z.from_jsonable(doc["payload"])
    assert abs(e.coeffs[0] - math.e) <= 1e-9


def test_resolvent_demo(tmp_path, runner):
    path = seq_file(tmp_path, "u.json", {1: 1.0})
    trace = tmp_path / "trace.csv"
    result = runner.invoke(
        main,
        ["resolvent-demo", "--u", path, "--radius", "2", "--steps", "512",
         "--tol", "1e-6", "--trace", str(trace)],
    )
    assert result.exit_code == 0
    doc = parse(result)
    assert doc["payload"]["deviation_from_2pii"] <= doc["payload"]["err"]
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "t,re,im"
    assert len(lines) == 513


def test_tauberian_command(tmp_path, runner):
    f = l1r.fejer_kernel(1.0, 2e-3)
    g = l1r.convolve(f, l1r.spectrum_compactify(l1r.triangle(), 0.4, 0.05), 0.01)
    fpath = fn_file(tmp_path, "f.json", f)
    gpath = fn_file(tmp_path, "g.json", l1r.PLFunction(g.breakpoints, g.values))
    result = runner.invoke(
        main,
        ["tauberian", "--f", fpath, "--g", gpath, "--band", "0.5",
         "--epsilon", "0.45", "--tol", "0.1"],
    )
    assert result.exit_code == 0
    doc = parse(result)
    assert doc["payload"]["residual"] <= 0.1


def test_output_deterministic(tmp_path, runner):
    path = seq_file(tmp_path, "f.json", {0: 1.0, 1: 0.5, -3: 0.125})
    args = ["invert", "--input", path, "--epsilon", "0.3", "--target", "1e-8"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, runner):
    path = seq_file(tmp_path, "f.json", {0: 2.0})
    out = tmp_path / "result.json"
    result = runner.invoke(main, ["norm", "--input", path, "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok"


def _strict(token):
    raise ValueError("non-JSON constant %s" % token)


_INPUTS = {
    "f.json": l1z.dumps(L1ZSeq({0: 1.0, 1: 0.5, -3: 0.125})),
    "u.json": l1z.dumps(L1ZSeq({1: 1.0})),
    "tri.json": l1r.dumps(l1r.triangle()),
    "sing.json": l1z.dumps(L1ZSeq({0: 1.0, 1: 1.0})),
    "far.json": l1z.dumps(L1ZSeq({0: 1.0, 2 ** 70: 1e-300})),
    "huge.json": l1z.dumps(L1ZSeq({0: 1e300, 1: 1e300})),
    "max.json": l1z.dumps(L1ZSeq({0: 1e308, 1: 1e308})),
    "cancel.json": l1z.dumps(L1ZSeq({0: 1e308, 1: -1e308})),
    "wide.json": l1z.dumps(L1ZSeq({0: 1.5e308 + 1.5e308j})),
    "tail.json": '{"coeffs": [{"n": 0, "re": 1.0, "im": 0.0}], "tail": 1e400}',
    "bigindex.json": '{"coeffs": [{"n": 0, "re": 1.0, "im": 0.0}, '
                     '{"n": 1%s, "re": 0.5, "im": 0.0}], "tail": 0.0}' % ("0" * 399),
    "slack.json": l1r.dumps(l1r.triangle()).replace('"l1_slack": 0.0', '"l1_slack": 1e400'),
}

# failure cases, each with the exit code and status its envelope must give
_FAILURE_ROWS = [
    (["exp", "--input", "f.json", "--tol", "0"], 3, "invalid-input"),
    (["resolvent-demo", "--u", "u.json", "--radius", "2", "--tol", "0"], 3, "invalid-input"),
    (["invert", "--input", "f.json", "--epsilon", "0.3", "--target", "1e-8", "--grid", "4"],
     3, "invalid-input"),
    (["invert", "--input", "f.json", "--epsilon", "0.3", "--target", "1e-8",
      "--grid", "1125899906842624"], 3, "invalid-input"),
    (["invert", "--input", "f.json", "--epsilon", "nan", "--target", "1e-8"], 3, "invalid-input"),
    (["invert", "--input", "f.json", "--epsilon", "0.3", "--target", "0"], 3, "invalid-input"),
    (["tauberian", "--f", "tri.json", "--g", "tri.json", "--band", "nan", "--epsilon", "0.1",
      "--tol", "0.1"], 3, "invalid-input"),
    (["tauberian", "--f", "tri.json", "--g", "tri.json", "--band", "0.5", "--epsilon", "0.1",
      "--tol", "1e-13"], 2, "not-certified"),
    (["exp", "--input", "huge.json"], 2, "not-certified"),
    (["norm", "--input", "f.json", "--kind", "bogus"], 3, "invalid-input"),
    (["resolvent-demo", "--u", "u.json", "--radius", "2", "--steps", "0"], 3, "invalid-input"),
    (["resolvent-demo", "--u", "u.json", "--radius", "2", "--steps", "-3"], 3, "invalid-input"),
    (["resolvent-demo", "--u", "u.json", "--radius", "2", "--steps", "10000000000"],
     3, "invalid-input"),
    (["resolvent-demo", "--u", "u.json", "--radius", "nan"], 3, "invalid-input"),
    (["resolvent-demo", "--u", "u.json", "--radius", "inf"], 3, "invalid-input"),
    (["eval", "--input", "f.json", "--re", "nan"], 3, "invalid-input"),
    (["norm", "--input", "tail.json"], 3, "invalid-input"),
    (["norm", "--input", "slack.json", "--kind", "fn"], 3, "invalid-input"),
    (["norm", "--input", "binary.bin"], 3, "invalid-input"),
    (["invert", "--input", "sing.json", "--epsilon", "0.1", "--target", "1e-6"],
     2, "hypothesis-failed"),
    (["invert", "--input", "far.json", "--epsilon", "0.5", "--target", "1e-6"],
     2, "not-certified"),
    (["invert", "--input", "bigindex.json", "--epsilon", "0.3", "--target", "1e-8"],
     3, "invalid-input"),
    # a coefficient mass beyond the largest double, folded for the circle samples
    (["invert", "--input", "cancel.json", "--epsilon", "0.3", "--target", "1e-8"],
     2, "not-certified"),
    (["eval", "--input", "bigindex.json", "--re", "-1", "--im", "0"], 3, "invalid-input"),
    # a power, a value, an error bound and a modulus that overflow
    (["eval", "--input", "far.json", "--re", "0.6", "--im", "0.8000000000001"],
     2, "not-certified"),
    (["eval", "--input", "max.json", "--re", "1"], 2, "not-certified"),
    (["eval", "--input", "cancel.json", "--re", "1"], 2, "not-certified"),
    (["eval", "--input", "wide.json", "--re", "1"], 2, "not-certified"),
    (["norm", "--input", "f.json", "--out", "missing/x.json"], 3, "invalid-input"),
    (["resolvent-demo", "--u", "u.json", "--radius", "2", "--steps", "16",
      "--trace", "missing/t.csv"], 3, "invalid-input"),
]


def _run_cli(monkeypatch, capsys, args):
    monkeypatch.setattr("sys.argv", ["wiener", *args])
    code = 0
    try:
        cli.run()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "args, code, status", _FAILURE_ROWS, ids=[" ".join(row[0]) for row in _FAILURE_ROWS]
)
def test_failure_contract(tmp_path, monkeypatch, capsys, args, code, status):
    for name, text in _INPUTS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "binary.bin").write_bytes(b"\xff\xfe\x00\x81")
    monkeypatch.chdir(tmp_path)
    got, out, err = _run_cli(monkeypatch, capsys, args)
    assert "Traceback" not in err
    assert got == code
    doc = json.loads(out, parse_constant=_strict)
    assert doc["status"] == status
    assert doc["payload"] is None
    assert doc["log"]
    for arg in args:
        if arg.startswith("missing/"):
            assert arg in doc["log"][0]


# 101 coefficients at 0..100 and one at 2**70: 102 * 102 pairs would pick the
# dense path by count alone.  exp sums the terms to a**6 / 6!: indices 0..600,
# and 2**70 + 0..500 from one far factor; two far factors (1e-600) underflow.
_FAR_DENSE = L1ZSeq({**{n: 1e-3 for n in range(101)}, 2 ** 70: 1e-300})
_FAR_CASES = (
    (_INPUTS["far.json"], [0, 2 ** 70]),
    (l1z.dumps(_FAR_DENSE), list(range(601)) + [2 ** 70 + j for j in range(501)]),
)


def test_exp_far_apart_support_ok(tmp_path, monkeypatch, capsys):
    # a support reaching 2**70 stays on the sparse path: no span-sized array
    monkeypatch.chdir(tmp_path)
    for text, indices in _FAR_CASES:
        (tmp_path / "far.json").write_text(text)
        got, out, err = _run_cli(monkeypatch, capsys, ["exp", "--input", "far.json"])
        assert (got, err) == (0, "")
        doc = json.loads(out, parse_constant=_strict)
        assert doc["status"] == "ok"
        assert [c["n"] for c in doc["payload"]["coeffs"]] == indices


def test_failure_envelope_goes_to_out(tmp_path, monkeypatch, capsys):
    (tmp_path / "u.json").write_text(_INPUTS["u.json"])
    monkeypatch.chdir(tmp_path)
    got, out, err = _run_cli(
        monkeypatch, capsys,
        ["resolvent-demo", "--u", "u.json", "--radius", "2", "--steps", "0", "--out", "r.json"],
    )
    assert (got, out, err) == (3, "", "")
    doc = json.loads((tmp_path / "r.json").read_text(), parse_constant=_strict)
    assert doc == {"status": "invalid-input", "payload": None,
                   "log": ["panels must be at least 1"]}
