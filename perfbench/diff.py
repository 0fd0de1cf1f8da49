"""Compare two sets of benchmark artifacts, per workload and end-to-end
metric, with the bounds fixed in BENCHMARK.json.

    python3 perfbench/diff.py BASE CHANGE

BASE and CHANGE are artifact files written by ``perfbench/run.py``
(``.perfbench/out/<workload>-s<seed>-t0-*.json``) or directories of
them; untraced artifacts only. Each pairing is labelled:

- improved: the change's median is better by more than the wider of
  the two sides' spreads (quartile distance over median);
- regressed: its median is worse by more than the metric's bound;
- unresolved: a side's spread exceeds the bound, unless every change
  run reads better (improved) or worse (regressed) than every base run;
- unchanged: otherwise.

Artifacts from different hosts are not compared. Exit status: 0, or 1
when any pairing regressed, or 2 when the artifacts cannot be compared.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("nproc", "cpus_available", "logical_cpus", "cpu_model", "python",
             "ray", "pyarrow")


def load(paths: List[str]) -> List[dict]:
    files: List[str] = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    arts = []
    for f in files:
        with open(f) as fh:
            a = json.load(fh)
        if isinstance(a, dict) and a.get("trace") == 0 and "timed" in a:
            arts.append(a)
    return arts


def metric_values(art: dict) -> Dict[str, float]:
    return {"run_s": art["timed"]["run_s"]["median"],
            "setup_s": art["setup"]["setup_s"],
            "peak_rss_mb": art["timed"]["peak_rss_mb"]["median"]}


def spread(v: List[float]) -> float:
    if len(v) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(v, n=4)
    return (q3 - q1) / med


def same_host(arts: List[dict]) -> str:
    """Empty when every artifact comes from one host, else the reason.
    The sha256 stamp and the share of CPU time the hypervisor stole
    during the timed passes are printed, not compared: on a shared host
    both moved by more than half between runs of one set."""
    keys = {tuple(a["host"].get(k) for k in HOST_KEYS) for a in arts}
    if len(keys) > 1:
        return "host facts differ: " + "; ".join(map(str, sorted(keys)))
    return ""


def label(base: List[float], change: List[float], bound: float, lower_better: bool) -> tuple:
    sign = 1 if lower_better else -1
    mb, mc = statistics.median(base), statistics.median(change)
    worse = sign * (mc - mb) / mb
    wide = max(spread(base), spread(change))
    if wide > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "improved", worse, wide
        if all(sign * c > sign * b for c in change for b in base):
            return "regressed", worse, wide
        return "unresolved", worse, wide
    if worse > bound:
        return "regressed", worse, wide
    if -worse > wide:
        return "improved", worse, wide
    return "unchanged", worse, wide


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, change = load([argv[0]]), load([argv[1]])
    if not base or not change:
        print("no untraced artifacts on one side", file=sys.stderr)
        return 2
    why = same_host(base + change)
    if why:
        print(f"refusing to compare artifacts from different hosts: {why}", file=sys.stderr)
        return 2
    for side, arts in (("base", base), ("change", change)):
        ceil = [a["host"]["sha256_mb_s"] for a in arts]
        steal = [a["timed"]["steal_share"]["median"] for a in arts]
        print(f"{side}: {len(arts)} artifacts, sha256 {min(ceil):.0f}..{max(ceil):.0f} MB/s, "
              f"CPU stolen {min(steal):.1%}..{max(steal):.1%}")
    status = 0
    print(f"{'workload':16} {'metric':12} {'base median':>12} {'change median':>14} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  label")
    for wl in sorted({a["workload"] for a in base} & {a["workload"] for a in change}):
        for m in spec["end_to_end"]:
            b = [metric_values(a)[m["name"]] for a in base if a["workload"] == wl]
            c = [metric_values(a)[m["name"]] for a in change if a["workload"] == wl]
            lab, worse, wide = label(b, c, m["bound"], m["better"] == "lower")
            status = max(status, int(lab == "regressed"))
            print(f"{wl:16} {m['name']:12} {statistics.median(b):12.4f} "
                  f"{statistics.median(c):14.4f} {worse:+8.3f} {wide:7.3f} "
                  f"{m['bound']:6.2f}  {lab} (n={len(b)}/{len(c)})")
        bad = [a for a in base + change if a["workload"] == wl
               and (a["mismatches"] or a["failed"])]
        if bad:
            print(f"{wl:16} WARNING: {len(bad)} artifact(s) with mismatches or failures")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
