"""Tests of the benchmark itself: inputs, checks, tracing arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wiener import inversion, l1z  # noqa: E402
from wiener.l1z import L1ZSeq  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS + run.EXTRA_WORKLOADS)
def test_same_seed_same_input_digest(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    one = workloads.input_digest(workloads.MAKE_OPS[name](7, str(dirs[0])))
    two = workloads.input_digest(workloads.MAKE_OPS[name](7, str(dirs[1])))
    other = workloads.input_digest(workloads.MAKE_OPS[name](8, str(dirs[2])))
    assert one == two
    assert one != other


def _first_short_op():
    ops = workloads.build_seq_invert(3)
    j = next(i for i, op in enumerate(ops) if op.kind == "short")
    return ops, j


def test_perturbed_witness_counts_as_failed():
    ops, j = _first_short_op()
    records, first = run.run_loop(ops[j:j + 1], 0.0, max_ops=2)
    assert run.apply_checks(ops[j:j + 1], records, first) == {0: None}

    out = first[0]
    coeffs = dict(out.value.coeffs)
    n = max(coeffs, key=lambda k: abs(coeffs[k]))
    coeffs[n] += 1e-6
    out.value = L1ZSeq(coeffs)
    for rec in records:
        rec["error"] = None
    reasons = run.apply_checks(ops[j:j + 1], records, first)
    assert reasons[0] and "residual" in reasons[0]
    _, info = run.end_to_end(workloads, "seq_invert", records, first, [1.0])
    assert info["failed_share"] == 1.0


def test_repeat_with_different_result_is_wrong():
    ops, j = _first_short_op()
    op = ops[j]
    real = op.run
    calls = []

    def flaky():
        out = real()
        calls.append(1)
        if len(calls) == 2:
            out.digest = "different"
        return out

    op.run = flaky
    records, first = run.run_loop([op], 0.0, max_ops=2)
    run.apply_checks([op], records, first)
    assert [r["ok"] for r in records] == [True, False]


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 6] > (b [2, 3], c [3.5, 5]); op > d [7, 9]
    start = np.array([0.0, 1.0, 2.0, 3.5, 7.0])
    end = np.array([10.0, 6.0, 3.0, 5.0, 9.0])
    parent = np.array([-1, 0, 1, 1, 0])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [10 - 5 - 2, 5 - 1 - 1.5, 1.0, 1.5, 2.0]
    assert own.sum() == pytest.approx(10.0)


def test_layer_metrics_from_a_synthetic_tracer():
    t = tracing.Tracer()
    for name, s, e, p in (("op", 0.0, 4.0, -1), ("inversion.wiener_invert", 0.5, 3.5, 0),
                          ("inversion.residual_norm", 1.0, 2.0, 1), ("certs.cu_add", 1.2, 1.4, 2),
                          ("l1z.add", 2.5, 3.0, 1)):
        t.name.append(t.name_id(name))
        t.parent.append(p)
        t.op.append(0)
        t.start.append(s)
        t.end.append(e)
    m = tracing.layer_metrics(t)
    assert m["inversion.wiener_invert.self_s"] == pytest.approx(3.0 - 1.0 - 0.5)
    assert m["inversion.residual_norm.self_s"] == pytest.approx(0.8)
    assert m["certs.self_s"] == pytest.approx(0.2)
    assert m["l1z.linear.self_s"] == pytest.approx(0.5)
    assert m["inversion.self_s"] == pytest.approx(1.5 + 0.8)
    assert m["trace.op_self_s"] == pytest.approx(1.0)
    assert m["certs.calls"] == 1 and m["trace.spans"] == 5


def test_tracing_leaves_nothing_wrapped():
    original = (l1z.convolve, inversion.convolve, L1ZSeq.__post_init__)
    ops, j = _first_short_op()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert inversion.convolve is l1z.convolve is not original[0]
        assert tracing.leftover_wrappers()
        records, first = run.run_loop(ops[j:j + 1], 0.0, tracer=tracer, max_ops=1)
    finally:
        tracing.uninstall(tracer)
    assert tracing.leftover_wrappers() == []
    assert (l1z.convolve, inversion.convolve, L1ZSeq.__post_init__) == original
    m = tracing.layer_metrics(tracer)
    assert m["inversion.circle_min_modulus_certify.calls"] >= 1
    assert m["l1z.seq.constructions"] > 0 and m["l1z.convolve.products"] > 0
    assert m["l1r.self_s"] == 0.0 and m["calculus.resolvent_eval.calls"] == 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [name for name, _ in tracing.LOOP_METRICS + run.TRACE_METRICS]
    per_layer += list(workloads.PROBE_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
