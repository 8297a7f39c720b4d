"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by ``run.py`` (``perfbench/out/``),
or directories holding them; only untraced results are read.  For each
workload and each end-to-end metric of ``BENCHMARK.json`` this prints
both sides' median and quartiles, how many pairs NEW wins, and a verdict:

* ``improved``   NEW wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ, in NEW's favour, by more than
  the distance between BASE's quartiles;
* ``worse``      NEW's median is worse than BASE's by more than the
  metric's bound (a share of BASE's median);
* ``unresolved`` BASE's own spread (quartile distance over median) is
  wider than the bound, and not every NEW run beats every BASE run;
* ``unchanged``  otherwise.

Runs are paired by seed when both sides ran the same seeds, otherwise in
the order they were made.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    """Untraced results under ``path``: {workload: [result, ...]} by run time."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = {}
    for name in files:
        with open(name) as fh:
            doc = json.load(fh)
        if doc.get("trace") == 0 and "metrics" in doc:
            doc["_mtime"] = os.path.getmtime(name)
            out.setdefault(doc["workload"], []).append(doc)
    for runs in out.values():
        runs.sort(key=lambda d: d["_mtime"])
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def pairs(base, new):
    bs = {d["seed"]: d for d in base}
    ns = {d["seed"]: d for d in new}
    common = sorted(set(bs) & set(ns))
    if len(common) == min(len(base), len(new)) and len(bs) == len(base) and len(ns) == len(new):
        return [(bs[s], ns[s]) for s in common]
    return list(zip(base, new))


def verdict(metric, base, new):
    """(verdict, row) for one metric of one workload."""
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]

    def val(d):
        return d["metrics"][name]["value"]

    bv, nv = [val(d) for d in base], [val(d) for d in new]
    bq, nq = quartiles(bv), quartiles(nv)

    def better(x, y):  # x better than y
        return x < y if lower else x > y

    paired = pairs(base, new)
    wins = sum(1 for b, n in paired if better(val(n), val(b)))
    npairs = len(paired)
    spread = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else float("inf")
    change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("inf")
    worse_by = change if lower else -change
    if (npairs and wins >= 0.9 * npairs and better(nq[1], bq[1])
            and abs(nq[1] - bq[1]) > bq[2] - bq[0]):
        v = "improved"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not all(better(n, b) for n in nv for b in bv):
        v = "unresolved"
    else:
        v = "unchanged"
    row = {"metric": name, "base": bq, "new": nq, "wins": wins, "pairs": npairs,
           "change": change, "bound": bound, "base_spread": spread, "verdict": v}
    return v, row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    base, new = load(args.base), load(args.new)
    worst = 0
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print("%s: only on one side, not compared" % workload)
            continue
        print("%s  (%d base runs, %d new runs)" % (workload, len(base[workload]), len(new[workload])))
        print("  %-18s %-30s %-30s %7s %8s %6s  %s" % (
            "metric", "base q1/median/q3", "new q1/median/q3", "wins", "change", "bound", "verdict"))
        for m in metrics:
            v, r = verdict(m, base[workload], new[workload])
            fmt = lambda q: "%.4g / %.4g / %.4g" % q  # noqa: E731
            print("  %-18s %-30s %-30s %3d/%-3d %+7.1f%% %5.0f%%  %s" % (
                r["metric"], fmt(r["base"]), fmt(r["new"]), r["wins"], r["pairs"],
                100 * r["change"], 100 * r["bound"], v))
            worst = max(worst, v == "worse")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
