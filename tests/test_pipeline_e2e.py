"""The north-rule correctness gate (SURVEY.md §5.2.2): the Ray pipeline's
per-doc (kind, text, media_ref, order) span sequence must be
byte-identical to the single-process oracle on the fixture corpus, and
the per-doc summary counters must match the reference aggregate
semantics (worker.py:453-505)."""

import pytest

from westa_ocr_ray import fixtures, oracle
from westa_ocr_ray.config import ExtractConfig
from westa_ocr_ray.pipelines.extract import extract_dataset, read_documents

SUMMARY_KEYS = ("total_units", "processed", "skipped", "errors",
                "error_messages", "master_hits", "status")


def spans_key(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in spans]


@pytest.fixture(scope="module")
def oracle_rows():
    return oracle.extract_corpus(fixtures.DEFAULT_SEED, fixtures.TIERS["smoke"])


def run_pipeline(cfg):
    d = fixtures.ensure_corpus("smoke")
    ds = extract_dataset(read_documents(d), cfg)
    return sorted(ds.take_all(), key=lambda r: r["doc_id"])


def assert_equal(got, exp):
    assert len(got) == len(exp)
    for g, e in zip(got, exp):
        assert g["doc_id"] == e["doc_id"]
        assert spans_key(g["spans"]) == spans_key(e["spans"]), g["doc_id"]
        for k in SUMMARY_KEYS:
            assert g[k] == e[k], (g["doc_id"], k)


def test_span_sequence_equality(oracle_rows):
    cfg = ExtractConfig(num_parts=8, extract_concurrency=3)
    assert_equal(run_pipeline(cfg), oracle_rows)


def test_equality_invariant_to_partitioning(oracle_rows):
    # different partition count ⇒ identical output
    cfg = ExtractConfig(num_parts=3, extract_concurrency=2)
    assert_equal(run_pipeline(cfg), oracle_rows)


def test_zero_span_docs_still_summarized(oracle_rows):
    empties = [r for r in oracle_rows if r["total_units"] == 0]
    assert empties, "fixture corpus should contain zero-span docs"
    for r in empties:
        assert r["status"] == "DONE" and r["spans"] == []


def test_duplicate_doc_ids_collapse_first_wins():
    # corpus has ~0.5% duplicated rows; pipeline output has unique doc_ids
    cfg = ExtractConfig(num_parts=8, extract_concurrency=2)
    got = run_pipeline(cfg)
    ids = [r["doc_id"] for r in got]
    assert len(ids) == len(set(ids))
    n_rows = sum(1 for _ in range(fixtures.TIERS["smoke"]))
    assert len(ids) <= n_rows
