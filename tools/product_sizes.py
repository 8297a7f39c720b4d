"""Print the size and cost of each ``l1r.convolve`` and ``l1r.fejer_kernel``
call in two pipelines.

The pipelines are criterion 09's and one ``line_divide`` op of the
benchmark (``fejer_kernel(1.05, 4e-3)``, ``spectrum_compactify(triangle(0,
1, 0.25), 0.5, 0.01)``, ``convolve(f, ., 0.005)``, ``tauberian_divide(f, g,
0.5, 0.45, 0.05)``).  For each product it prints the input segments, the
bands (the FFT convolutions the call made), the output nodes, the slack and
the time; for each kernel, its ``lam`` and ``support_tol``, its segments
and its slack.  It reads only public names and ``_fast_conv``, so it runs
against any checkout of the library.

Usage: ``python3 tools/product_sizes.py [SRC]`` (default: the ``src`` next
to this directory).
"""

from __future__ import annotations

import pathlib
import sys
import time


def _pipelines(l1r):
    def criterion_09():
        f = l1r.fejer_kernel(1.0, 2e-3)
        w = l1r.spectrum_compactify(l1r.triangle(), 0.4, 0.01)
        l1r.tauberian_divide(f, l1r.convolve(f, w, 0.005), 0.5, 0.45, 0.05)

    def line_divide():
        f = l1r.fejer_kernel(1.05, 4e-3)
        w = l1r.spectrum_compactify(l1r.triangle(0.0, 1.0, 0.25), 0.5, 0.01)
        l1r.tauberian_divide(f, l1r.convolve(f, w, 0.005), 0.5, 0.45, 0.05)

    return {"criterion_09": criterion_09, "line_divide": line_divide}


def run(l1r, out=print):
    """Run both pipelines with ``l1r.convolve`` and ``l1r.fejer_kernel``
    wrapped; per pipeline, one row per product and one per kernel."""
    convolve, fast_conv, fejer_kernel = l1r.convolve, l1r._fast_conv, l1r.fejer_kernel
    rows, kernels, ffts = [], [], []

    def counting_fast_conv(*args):
        ffts.append(1)
        return fast_conv(*args)

    def timed_convolve(f, g, tol):
        ffts.clear()
        t0 = time.perf_counter()
        c = convolve(f, g, tol)
        ms = 1e3 * (time.perf_counter() - t0)
        rows.append((f.breakpoints.size - 1, g.breakpoints.size - 1, len(ffts),
                     c.breakpoints.size, c.l1_slack.value, ms))
        return c

    def sized_fejer_kernel(lam, support_tol):
        k = fejer_kernel(lam, support_tol)
        kernels.append((lam, support_tol, k.breakpoints.size - 1, k.l1_slack.value))
        return k

    l1r.convolve, l1r._fast_conv, l1r.fejer_kernel = timed_convolve, counting_fast_conv, sized_fejer_kernel
    try:
        result = {}
        for name, pipeline in _pipelines(l1r).items():
            rows.clear()
            kernels.clear()
            pipeline()
            result[name] = {"convolve": list(rows), "fejer_kernel": list(kernels)}
            out(name)
            out("  %8s %8s %5s %8s %10s %8s" % ("segs f", "segs g", "bands", "nodes", "slack", "ms"))
            for row in rows:
                out("  %8d %8d %5d %8d %10.3e %8.2f" % row)
            out("  %8s %12s %8s %10s" % ("lam", "support_tol", "segs", "slack"))
            for row in kernels:
                out("  %8.3g %12.3e %8d %10.3e" % row)
        return result
    finally:
        l1r.convolve, l1r._fast_conv, l1r.fejer_kernel = convolve, fast_conv, fejer_kernel


def main(argv):
    src = pathlib.Path(argv[1] if len(argv) > 1 else pathlib.Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, str(src.resolve()))
    from wiener import l1r

    run(l1r)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
