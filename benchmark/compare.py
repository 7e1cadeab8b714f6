#!/usr/bin/env python3
"""Compare two result sets of the benchmark under the bounds in BENCHMARK.json.

    python3 benchmark/compare.py A/ B/ [--agree]

A and B are directories written by `benchmark/run.sh` (one `<workload>.json`
per workload; copy `benchmark/out/` aside after each run).  A is the base — the
parent commit, or the first of two runs of one commit — and B is judged
against it.  One row per workload x end-to-end metric: both values, B as a
ratio *of A*, and a verdict:

  ok          B is no worse than A by more than the metric's bound
  regressed   it is
  unresolved  a host-time metric whose fastest repetition, in either set, no
              second repetition confirms within the bound: the run cannot tell

With --agree the check is symmetric (neither side may be worse than the other
by more than the bound) and, when both sets ran the same seed, every
virtual-clock metric must be *identical*: this is how "two sets of runs of one
commit agree" is checked.  Exits 1 on any regressed, unresolved or
non-identical row.  Standard library only.
"""

import json
import os
import sys

HOST_CLOCK = {"wall_s", "setup_s", "peak_rss_mb"}
HOST_TIME = {"wall_s", "setup_s"}


def load(directory, workload):
    with open(os.path.join(directory, workload + ".json")) as f:
        return json.load(f)


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv):
    agree = "--agree" in argv
    dirs = [a for a in argv[1:] if not a.startswith("--")]
    if len(dirs) != 2:
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)

    print(f"{'workload':16} {'metric':24} {'A':>16} {'B':>16} {'B of A':>10}  verdict")
    bad = 0
    for w in (w["name"] for w in manifest["workloads"]):
        try:
            a, b = load(dirs[0], w), load(dirs[1], w)
        except FileNotFoundError as e:
            print(f"{w:16} missing: {e.filename}")
            bad += 1
            continue
        spread = max(a["wall_spread_ratio"], b["wall_spread_ratio"])
        same_seed = a["seed"] == b["seed"]
        for m in manifest["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = a["result"]["metrics"][name]["value"]
            vb = b["result"]["metrics"][name]["value"]
            gap = worse_by(va, vb, m["better"])
            if agree:
                gap = max(gap, worse_by(vb, va, m["better"]))
            if name in HOST_TIME and spread > bound:
                verdict = f"unresolved (fastest repetition unconfirmed: {spread:.1%} > bound {bound:.1%})"
            elif agree and same_seed and name not in HOST_CLOCK and va != vb:
                verdict = "differs (same seed: virtual-clock metrics must be identical)"
            elif gap > bound:
                verdict = f"regressed ({gap:+.1%} > bound {bound:.1%})"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            ratio = f"{vb / va:.4f}x" if va else "n/a"
            print(f"{w:16} {name:24} {va:16.6g} {vb:16.6g} {ratio:>10}  {verdict}")
        for side, r in (("A", a), ("B", b)):
            if not r["result"]["correct"] or r["quick"]:
                print(f"{w:16} set {side} is {'a --quick self-test' if r['quick'] else 'INCORRECT'}")
                bad += 1
    print("sets agree" if agree and not bad else f"{bad} rows need attention" if bad else "no regression")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
