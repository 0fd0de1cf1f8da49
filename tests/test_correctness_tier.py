"""Span-sequence equality at the correctness tier (2000 docs): exercises
the error paths (corrupt media payloads exist at this scale), duplicate
doc_ids, heavy multi-page pdfs, and the staged-shuffle write path —
the full gate, vs the single-process oracle."""

from westa_ocr_ray import fixtures, oracle
from westa_ocr_ray.config import ExtractConfig
from westa_ocr_ray.pipelines.extract import read_extracted, run_extract

SUMMARY_KEYS = ("total_units", "processed", "skipped", "errors",
                "error_messages", "master_hits", "status")


def spans_key(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in spans]


def test_correctness_tier_full_gate(tmp_path):
    corpus = fixtures.ensure_corpus("correctness")
    cfg = ExtractConfig(num_parts=16, extract_concurrency=4)
    out = str(tmp_path / "out")
    metrics = run_extract(corpus, out, cfg)
    got = sorted(read_extracted(out).take_all(), key=lambda r: r["doc_id"])
    exp = oracle.extract_corpus(fixtures.DEFAULT_SEED, fixtures.TIERS["correctness"])
    assert len(got) == len(exp)
    assert metrics["errors"] > 0, "correctness tier should exercise error paths"
    n_err_docs = 0
    for g, e in zip(got, exp):
        assert g["doc_id"] == e["doc_id"]
        assert spans_key(g["spans"]) == spans_key(e["spans"]), g["doc_id"]
        for k in SUMMARY_KEYS:
            assert g[k] == e[k], (g["doc_id"], k)
        n_err_docs += g["status"] == "ERROR"
    assert n_err_docs > 0
