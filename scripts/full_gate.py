"""Full-corpus span-sequence gate: verify EVERY document of a tier
against the single-process oracle — the oracle recomputation itself
fans out as Ray tasks (it is a pure function of doc_id), so the bench
tier (600k docs) verifies in ~2 minutes instead of ~45.

Usage: python scripts/full_gate.py [tier] [num_cpus]
Prints one JSON line: {"docs": N, "mismatches": M, ...}; exit 1 if M>0.
"""

import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SUMMARY_KEYS = ("total_units", "processed", "skipped", "errors",
                "error_messages", "master_hits", "status")


def check_part(path: str, seed: int, mkeys) -> dict:
    """Compare one output partition against regenerated oracle rows."""
    import pyarrow.parquet as pq

    from westa_ocr_ray import fixtures, oracle

    t = pq.read_table(path)
    mism = 0
    for row in t.to_pylist():
        idx = int(row["doc_id"].rsplit("_", 1)[1])
        exp = oracle.extract_doc(fixtures.gen_doc(seed, idx), seed, mkeys)
        got_spans = [(s["kind"], s["text"], s["media_ref"], s["order"])
                     for s in row["spans"]]
        exp_spans = [(s["kind"], s["text"], s["media_ref"], s["order"])
                     for s in exp["spans"]]
        if got_spans != exp_spans or any(row[k] != exp[k] for k in SUMMARY_KEYS):
            mism += 1
    idxs = [int(d.rsplit("_", 1)[1]) for d in t.column("doc_id").to_pylist()]
    return {"part": path, "docs": t.num_rows, "mismatches": mism, "idxs": idxs}


def main() -> int:
    tier = sys.argv[1] if len(sys.argv) > 1 else "bench"
    ncpu = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from westa_ocr_ray import fixtures
    from westa_ocr_ray.config import ExtractConfig
    from westa_ocr_ray.pipelines.extract import run_extract

    corpus = fixtures.ensure_corpus(tier)
    out = f"/tmp/westa_full_gate/{tier}"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    nact = max(2, ncpu - max(1, ncpu // 8))
    run_extract(corpus, out, ExtractConfig(extract_concurrency=nact,
                                           read_num_blocks=8 * ncpu))
    extract_sec = time.perf_counter() - t0

    seed = fixtures.DEFAULT_SEED
    mkeys = fixtures.master_keys(seed)
    check = ray.remote(num_cpus=1)(check_part)
    t0 = time.perf_counter()
    parts = sorted(glob.glob(os.path.join(out, "extracted", "*.parquet")))
    results = ray.get([check.remote(p, seed, mkeys) for p in parts])
    verify_sec = time.perf_counter() - t0

    docs = sum(r["docs"] for r in results)
    mism = sum(r["mismatches"] for r in results)

    # Completeness: the emitted doc_id set must EQUAL the expected
    # deduplicated corpus set — a silently dropped doc (lost partition
    # row) is a failure even though every present row matches. Expected:
    # row i contributes content-id k_i = i-1 if it is a duplicate copy of
    # row i-1 else i (fixtures.gen_doc_row rule); dedup keeps one row per
    # distinct k.
    n = fixtures.TIERS[tier]
    expected = {i - 1 if (i > 0 and fixtures._rand(seed, i, "dup") < 0.005)
                else i for i in range(n)}
    emitted = set()
    for r in results:
        emitted.update(r["idxs"])
    missing = len(expected - emitted)
    extra = len(emitted - expected)

    print(json.dumps({"tier": tier, "docs": docs, "mismatches": mism,
                      "match_rate_pct": round(100 * (1 - mism / max(docs, 1)), 4),
                      "missing_docs": missing, "extra_docs": extra,
                      "extract_sec": round(extract_sec, 1),
                      "verify_sec": round(verify_sec, 1)}))
    ray.shutdown()
    return 1 if (mism or missing or extra) else 0


if __name__ == "__main__":
    sys.exit(main())
