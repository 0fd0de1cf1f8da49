"""Self-test of the benchmark (a few minutes on one core):

1. a tiny traced run of every workload produces every metric named in
   BENCHMARK.json (end-to-end and per-layer) with its unit, correct;
2. a planted corrupt output is caught: two spans of one doc swapped in a
   committed partition, and one row dropped from a query result, each
   come out as mismatches > 0.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import sys

import run  # perfbench/run.py; this directory is sys.path[0]


def check_metrics(art: dict, spec: dict) -> list:
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(art, trace)
        got = line["metrics"]
        for m in spec[key]:
            v = got.get(m["name"])
            if v is None:
                problems.append(f"{art['workload']}: missing {key} metric {m['name']}")
            elif v["unit"] != m["unit"]:
                problems.append(f"{art['workload']}: {m['name']} unit {v['unit']} != {m['unit']}")
            elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                problems.append(f"{art['workload']}: {m['name']} value {v['value']!r}")
        extra = set(got) - {m["name"] for m in spec[key]}
        if extra:
            problems.append(f"{art['workload']}: {key} metrics not in BENCHMARK.json: {sorted(extra)}")
        if not line["correct"] or line["attempted"] < 1:
            problems.append(f"{art['workload']}: not correct: {line}")
    return problems


def swap_two_spans(out_dir: str) -> str:
    """Swap the (kind, text, media_ref) of the first two spans of one
    doc in a committed partition, keeping their ``order`` fields."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = os.path.join(out_dir, "extracted")
    for f in sorted(os.listdir(d)):
        path = os.path.join(d, f)
        t = pq.read_table(path)
        rows = t.to_pylist()
        for r in rows:
            sp = r["spans"]
            if len(sp) >= 2 and sp[0]["text"] != sp[1]["text"]:
                for k in ("kind", "text", "media_ref"):
                    sp[0][k], sp[1][k] = sp[1][k], sp[0][k]
                pq.write_table(pa.Table.from_pylist(rows, schema=t.schema), path)
                return r["doc_id"]
    raise RuntimeError("no doc with two distinct spans to corrupt")


def planted_corruption(work: str) -> list:
    problems = []
    watch = run.ProcessWatch()
    tmp = run.ray_tmp_dir()
    try:
        run.start_ray(tmp)
        ext = run.make_workload("extract_fixture", small=True)
        ext.prepare(3, os.path.join(work, "ext"))
        out = os.path.join(work, "ext-out")
        res = ext.run_pass(out)
        clean = ext.check(out, res)
        doc = swap_two_spans(out)
        dirty = ext.check(out, res)
        print(f"extract: clean mismatches={clean}, after swapping spans of {doc}: {dirty}")
        if clean != 0 or dirty < 1:
            problems.append("extract check missed the swapped spans")

        ops = run.make_workload("ops_queries")
        ops.prepare(3, os.path.join(work, "ops"))
        res = ops.run_queries(["q10_returned_items"])
        clean = ops.check("", res)
        res["result"]["q10_returned_items"] = res["result"]["q10_returned_items"].iloc[1:]
        dirty = ops.check("", res)
        print(f"ops: clean mismatches={clean}, after dropping a row: {dirty}")
        if clean != 0 or dirty < 1:
            problems.append("query check missed the dropped row")
    finally:
        import ray

        with contextlib.suppress(Exception):
            ray.shutdown()
        watch.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return problems


def main() -> int:
    sys.path.insert(0, run.ROOT)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for wl in run.WORKLOADS:
        art = run.Bench(wl, seed=3, seconds=1, trace=True, small=True).run()
        print(run.summary(art))
        problems += check_metrics(art, spec)
    work = os.path.join(run.STATE, "work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        problems += planted_corruption(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
