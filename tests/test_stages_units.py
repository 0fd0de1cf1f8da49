"""Direct unit tests for the explode and prepare stages (the e2e gate
covers them end-to-end; these pin the row-level contracts)."""

import numpy as np
import pyarrow as pa

from westa_ocr_ray import extractors, fixtures
from westa_ocr_ray.schema import DOCUMENTS_SCHEMA
from westa_ocr_ray.stages.explode import make_explode, part_of
from westa_ocr_ray.stages.prepare import make_prepare


def _docs_batch(rows):
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)


DOC = {"doc_id": "d1", "spans": [
    {"kind": "text", "text": "hello", "media_ref": "", "offset": 0},
    {"kind": "pdf", "text": "", "media_ref": "media://pdf/d1/1", "offset": 5},
]}
EMPTY = {"doc_id": "d0", "spans": []}


def test_explode_rows_and_sentinels():
    out = make_explode(8)(_docs_batch([DOC, EMPTY]))
    rows = sorted(out.to_pylist(), key=lambda r: (r["doc_id"], r["span_idx"]))
    assert [(r["doc_id"], r["span_idx"], r["kind"]) for r in rows] == [
        ("d0", -1, ""), ("d1", 0, "text"), ("d1", 1, "pdf")]
    for r in rows:
        assert r["part"] == part_of(r["doc_id"], 8)
    assert rows[1]["text"] == "hello" and rows[2]["media_ref"] == "media://pdf/d1/1"


def test_explode_skip_parts_anti_join():
    skip = {part_of("d1", 8)}
    out = make_explode(8, skip_parts=skip)(_docs_batch([DOC, EMPTY]))
    assert set(out.column("doc_id").to_pylist()) <= {"d0"}


def test_prepare_page_fanout_counts():
    exploded = make_explode(8)(_docs_batch([DOC]))
    out = make_prepare()(exploded)
    rows = out.to_pylist()
    media = [r for r in rows if r["kind"] == "pdf"]
    _, n_pages = fixtures._media_params(fixtures.DEFAULT_SEED, "media://pdf/d1/1")
    assert len(media) == n_pages
    assert sorted(r["page_idx"] for r in media) == list(range(1, n_pages + 1))
    for r in media:
        assert len(extractors.parse_pages(r["payload"])) == 1
    text_rows = [r for r in rows if r["kind"] == "text"]
    assert len(text_rows) == 1 and text_rows[0]["page_idx"] == 0


def test_prepare_corrupt_ref_records_error():
    # find a ref the store corrupts (~0.2%): scan deterministic candidates
    ref = None
    for i in range(5000):
        cand = f"media://pdf/scan/{i}"
        if fixtures._rand(fixtures.DEFAULT_SEED, cand, "corrupt") < 0.002:
            ref = cand
            break
    assert ref is not None
    doc = {"doc_id": "dx", "spans": [
        {"kind": "pdf", "text": "", "media_ref": ref, "offset": 0}]}
    out = make_prepare()(make_explode(4)(_docs_batch([doc])))
    row = out.to_pylist()[0]
    assert row["error"].startswith("media split failed") and row["payload"] is None
    assert row["page_idx"] == 1


def test_part_of_stable():
    assert part_of("doc_42_00000001", 64) == part_of("doc_42_00000001", 64)
    parts = {part_of(f"doc_{i}", 16) for i in range(200)}
    assert len(parts) == 16  # all partitions hit
