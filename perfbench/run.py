"""Benchmark entry point for the ``wiener`` package.

    python3 perfbench/run.py --workload seq_invert --seed 1 --seconds 30 --trace 0

Runs one seeded workload against the library (or its CLI) from the
sources under ``src/`` of the checkout this file sits in, checks every
answer independently, writes a result file with per-op records and a
machine record under ``perfbench/out/``, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is traced and
the metrics are the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: the workloads of ``BENCHMARK.json``
WORKLOADS = ("seq_invert", "line_divide", "cli_batch")
#: runnable by name but not in ``BENCHMARK.json``: its timings spread past
#: any usable bound on a shared host (see README.md)
EXTRA_WORKLOADS = ("resolvent_calculus",)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: one BLAS thread: the closed loop has one client and the machine is shared
BLAS_THREADS = "1"
#: end-to-end metrics, in report order
END_TO_END = ("setup_s", "solves_per_s", "latency_p50_ms", "latency_tail_ms",
              "cert_digits_mean", "peak_rss_mb")
#: traced-run metrics besides the per-layer ones of ``tracing.LOOP_METRICS``
TRACE_METRICS = [("trace.solves_per_s", "1/s"), ("trace.overhead_x", "x")]
SETUP_REPEATS = 7
CALIBRATION_LOOPS = 2_000_000


class SetupError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the inputs, print their digest and exit (set-up timing)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_library():
    """Import ``wiener`` from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "wiener", "__init__.py")):
        raise SetupError("no wiener sources under %s" % SRC)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import wiener

    if os.path.dirname(os.path.dirname(os.path.abspath(wiener.__file__))) != SRC:
        raise SetupError("wiener imported from %s, not from %s" % (wiener.__file__, SRC))
    import workloads

    return workloads


def build(workloads, name, seed, workdir):
    ops = workloads.MAKE_OPS[name](seed, workdir)
    return ops, workloads.input_digest(ops)


def setup_probe(args) -> int:
    workloads = load_library()
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        _, digest = build(workloads, args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(digest)
    return 0


def timed_setups(args):
    """Wall time of fresh processes that import wiener and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise SetupError("set-up probe failed: %s" % res.stderr.strip()[-500:])
        digests.add(res.stdout.strip())
    return times, digests


# ---------------------------------------------------------------------------
# the closed loop


def run_loop(ops, seconds, tracer=None, inproc=False, max_ops=None):
    """Run whole passes over ``ops``, one at a time, for about ``seconds``.

    Stops after the pass that brings the elapsed time within half a pass
    of ``seconds`` (or after ``max_ops`` ops).  Returns one record per op
    executed and the first outcome of each op of the pass.
    """
    records, first = [], {}
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        for j, op in enumerate(ops):
            if max_ops is not None and len(records) >= max_ops:
                return records, first
            fn = op.run_inproc if inproc and op.run_inproc else op.run
            span = None
            if tracer is not None:
                tracer.op_id = len(records)
                span = tracer.open(tracer.name_id("op"))
            error = None
            ts = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a wrong outcome: recorded and counted
                out, error = None, "%s: %s" % (type(exc).__name__, exc)
            dt = time.perf_counter() - ts
            if span is not None:
                tracer.close(span)
            rec = {"i": len(records), "op": j, "kind": op.kind, "size": op.size, "s": dt}
            if out is not None:
                rec.update({"status": out.status, "bound": out.bound, **out.fields})
                if tracer is not None and "bytes" in out.fields:
                    tracer.counts["cli.output_bytes"] += out.fields["bytes"]
                if j not in first:
                    first[j] = out
                elif out.digest != first[j].digest:
                    error = "result differs from the first run of this op"
            rec["error"] = error
            records.append(rec)
        pass_time = time.perf_counter() - tp
        if max_ops is None and time.perf_counter() - t0 + pass_time / 2 >= seconds:
            return records, first


def apply_checks(ops, records, first):
    """Independent check of each op's first outcome; marks wrong records."""
    reasons = {}
    for j, out in first.items():
        reasons[j] = ops[j].check(out)
    for rec in records:
        if rec["error"] is None and reasons.get(rec["op"]):
            rec["error"] = "check: " + reasons[rec["op"]]
        rec["ok"] = rec["error"] is None
    return reasons


# ---------------------------------------------------------------------------
# metrics and records


def percentile(xs, q):
    import numpy as np

    return float(np.percentile(np.asarray(xs, dtype=float), q))


def cert_digits(first):
    """Mean of -log10 of the certified bound over the distinct ops of a pass."""
    vals = [-math.log10(out.bound) for j, out in sorted(first.items())
            if out.bound is not None and out.bound > 0]
    return sum(vals) / len(vals) if vals else float("nan")


def end_to_end(workloads, name, records, first, setup_times):
    lat = [r["s"] for r in records]
    q = workloads.TAIL_PERCENTILE[name]
    tail = percentile(lat, q)
    if name == "cli_batch":
        rss = max(r.get("rss_mb", 0.0) for r in records)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solves_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000.0 * percentile(lat, 50), "ms"),
        "latency_tail_ms": (1000.0 * tail, "ms"),
        "cert_digits_mean": (cert_digits(first), "digits"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {"tail_percentile": q, "tail_samples_beyond": sum(1 for x in lat if x > tail),
            "ops": len(lat), "failed_share": sum(1 for r in records if not r["ok"]) / len(lat)}
    return metrics, info


def machine_record():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i & 7
    calib = time.perf_counter() - t0
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "loadavg": os.getloadavg(),
        # context only: never divide a metric by it
        "calibration_loop_s": calib,
        "calibration_loops": CALIBRATION_LOOPS,
    }


def write_result(args, doc):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d-%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time()), os.getpid()))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    try:
        workloads = load_library()
        os.makedirs(OUT, exist_ok=True)
        setup_times, probe_digests = timed_setups(args)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        sys.stderr.write("perfbench: set-up failed: %s\n" % exc)
        return 2
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return measure(args, workloads, setup_times, probe_digests, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, workloads, ops, problems):
    """Traced loop, one untraced pass of the same ops, and the layer probes."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        records, first = run_loop(ops, args.seconds, tracer, inproc=True)
    finally:
        tracing.uninstall(tracer)
    if tracing.leftover_wrappers():
        problems.append("wrappers left after tracing")
    # one pass again without tracing: the overhead of tracing
    replay, replay_first = run_loop(ops, 0.0, inproc=True, max_ops=len(ops))
    for j, out in replay_first.items():
        if out.digest != first[j].digest:
            problems.append("traced and untraced results differ for op %d" % j)
    if args.workload == "cli_batch":
        for j, op in enumerate(ops):  # the bytes of a subprocess must match
            if op.run().digest != first[j].digest:
                problems.append("CLI subprocess and in-process bytes differ for op %d" % j)
    tracer.save(os.path.join(OUT, "spans-%s.npz" % args.workload))
    layer = tracing.layer_metrics(tracer)
    traced_s = sum(r["s"] for r in records)
    layer["trace.solves_per_s"] = len(records) / traced_s
    layer["trace.overhead_x"] = (sum(r["s"] for r in records[:len(ops)])
                                 / sum(r["s"] for r in replay))
    layer.update(workloads.layer_probes(SRC))
    names = tracing.LOOP_METRICS + TRACE_METRICS
    names += [(name, "s") for name in workloads.PROBE_METRICS]
    metrics = {name: (layer[name], unit) for name, unit in names}
    return records + replay, first, metrics


def measure(args, workloads, setup_times, probe_digests, workdir) -> int:
    ops, digest = build(workloads, args.workload, args.seed, workdir)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "input_digest": digest, "setup_runs_s": setup_times,
           "own_setup_s": time.perf_counter() - T_START}
    problems = []
    if probe_digests != {digest}:
        problems.append("inputs differ between processes with one seed")
    if args.trace:
        records_all, first, metrics = traced_run(args, workloads, ops, problems)
    else:
        records_all, first = run_loop(ops, args.seconds)

    reasons = apply_checks(ops, records_all, first)
    if not args.trace:
        metrics, info = end_to_end(workloads, args.workload, records_all, first, setup_times)
        doc["summary"] = info
    failed = sum(1 for r in records_all if not r["ok"]) + len(problems)
    doc.update({
        "checks": {str(j): r for j, r in reasons.items()},
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": records_all,
        "machine": machine_record(),
    })
    path = write_result(args, doc)
    sys.stderr.write("perfbench: %d ops, %d failed; result in %s\n"
                     % (len(records_all), failed, os.path.relpath(path, ROOT)))
    for p in problems:
        sys.stderr.write("perfbench: %s\n" % p)
    line = {
        "correct": failed == 0,
        "attempted": len(records_all),
        "failed": failed,
        "metrics": doc["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
