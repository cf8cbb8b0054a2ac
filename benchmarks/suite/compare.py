"""Compare two sets of benchmark runs, one verdict per (metric, workload).

    python3 benchmarks/suite/compare.py A.json B.json

``A.json`` and ``B.json`` are the files ``run.py --out`` appends to:
several runs per workload on each side (A = parent or first set, B =
change or second set).  For every end-to-end metric and workload the
verdict comes from the two medians, A's quartiles and the metric's
bound in ``BENCHMARK.json``:

* ``unresolved`` — A's own runs spread (q3 - q1) over a larger share of
  their median than the bound, so the bound cannot be told from noise;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better than A's by more than A's spread
  and, where runs pair up by seed, B wins at least nine pairs in ten;
* ``unchanged`` — otherwise.

Every ratio is printed with its base, one row per workload.  Values
that a seed fixes (ratio, PSNR, failures, layer counts) are compared
exactly between runs of the same workload, seed and mode.  The exit
code is 1 when anything regressed or a fixed value differs.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

import suite_lib as lib

#: end-to-end metrics a seed fixes exactly
FIXED_END_TO_END = ("compression_ratio", "psnr_db")
#: units of per-layer metrics a seed fixes exactly
FIXED_UNITS = ("count", "B", "bit")


def load(path: str) -> List[Dict]:
    with open(path) as fh:
        return json.load(fh)


def by_workload(runs: List[Dict], trace: int) -> Dict[str, List[Dict]]:
    out: Dict[str, List[Dict]] = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            out[run["workload"]].append(run)
    return out


def values(runs: List[Dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (a - b) / a if better == "higher" else (b - a) / a


def verdict(a_runs: List[Dict], b_runs: List[Dict], spec: Dict) -> Tuple[str, str]:
    name, better, bound = spec["name"], spec["better"], spec["bound"]
    a, b = values(a_runs, name), values(b_runs, name)
    if not a or not b:
        return "unresolved", "no runs on one side"
    sa, sb = lib.summarize(a), lib.summarize(b)
    spread = (sa["q3"] - sa["q1"]) / abs(sa["median"])
    worse = worse_by(sa["median"], sb["median"], better)
    b_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in b_runs}
    pairs = [(r["metrics"][name]["value"], b_by_seed[r["seed"]])
             for r in a_runs if r["seed"] in b_by_seed]
    wins = sum(worse_by(x, y, better) < 0 for x, y in pairs)
    ties = sum(x == y for x, y in pairs)
    if spread > bound:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    elif -worse > spread and (not pairs or wins >= 0.9 * (len(pairs) - ties) > 0):
        word = "improved"
    else:
        word = "unchanged"
    row = (
        f"A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}] n={sa['n']}"
        f"  B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] n={sb['n']}"
        f"  B/A {sb['median'] / sa['median']:.4f} of {sa['median']:.6g}"
        f"  A spread {100 * spread:.2f}% of {sa['median']:.6g}"
        f"  B wins {wins}/{len(pairs) - ties}"
    )
    return word, row


def fixed_values(run: Dict) -> Dict[str, float]:
    """The values of one run that its seed fixes."""
    out = {"failed": run["failed"]}
    for name, m in run["metrics"].items():
        if name in FIXED_END_TO_END or (run["trace"] and m["unit"] in FIXED_UNITS):
            out[name] = m["value"]
    out["input_digest"] = run.get("input_digest")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a_all, b_all = load(argv[0]), load(argv[1])
    spec = lib.load_benchmark_json()
    a_runs, b_runs = by_workload(a_all, 0), by_workload(b_all, 0)
    tally: Dict[str, int] = defaultdict(int)

    for m in spec["end_to_end"]:
        print(f"{m['name']}  ({m['unit']}, {m['better']} is better, "
              f"bound {100 * m['bound']:g}% of A's median)")
        for w in spec["workloads"]:
            word, row = verdict(a_runs[w["name"]], b_runs[w["name"]], m)
            tally[word] += 1
            print(f"  {w['name']:15s} {word:10s} {row}")

    # values a seed fixes: exact equality, run against run
    b_index = {(r["workload"], r["seed"], r["trace"]): r for r in b_all}
    compared = differing = 0
    for run in a_all:
        other = b_index.get((run["workload"], run["seed"], run["trace"]))
        if other is None:
            continue
        fa, fb = fixed_values(run), fixed_values(other)
        for name in sorted(fa):
            compared += 1
            if fa[name] != fb.get(name):
                differing += 1
                print(f"DIFFERS {run['workload']} seed {run['seed']} trace "
                      f"{run['trace']} {name}: A {fa[name]!r} B {fb.get(name)!r}")
    print(f"fixed values: {compared} compared between runs of the same "
          f"workload, seed and mode, {differing} differ")
    print("verdicts: " + ", ".join(
        f"{tally[k]} {k}" for k in ("improved", "unchanged", "regressed", "unresolved")))
    return 1 if tally["regressed"] or differing else 0


if __name__ == "__main__":
    sys.exit(main())
