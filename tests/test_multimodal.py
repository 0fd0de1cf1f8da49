"""Multimodal plumbing tests: binary columns, actor featurizer, frame
sampling and resize."""

import pyarrow as pa

from westa_ocr_ray import extractors, fixtures, multimodal
from westa_ocr_ray.pipelines.extract import read_documents


def _media():
    docs = read_documents(fixtures.ensure_corpus("smoke"))
    return multimodal.media_table(docs)


def test_media_table_schema_and_payloads():
    t = _media().take_all()
    assert t, "smoke corpus should contain media spans"
    row = t[0]
    assert row["kind"] in ("pdf", "image")
    assert isinstance(row["payload"], bytes) and len(row["payload"]) > 4
    assert row["media_ref"].startswith("media://")


def test_featurizer_deterministic_features():
    out1 = sorted(multimodal.featurize_media(_media()).take_all(),
                  key=lambda r: r["media_ref"])
    out2 = sorted(multimodal.featurize_media(_media()).take_all(),
                  key=lambda r: r["media_ref"])
    assert [r["features"] for r in out1] == [r["features"] for r in out2]
    ok = [r for r in out1 if not r["error"]]
    assert ok and all(len(r["features"]) == 8 for r in ok)
    for r in ok:
        _, n_pages = fixtures._media_params(fixtures.DEFAULT_SEED, r["media_ref"])
        assert r["n_pages"] == n_pages


def test_featurizer_records_decode_errors():
    # feed a corrupt payload through the actor class directly
    feat = multimodal.MediaFeaturizer()
    t = pa.table({"media_ref": ["media://pdf/x/0"], "kind": ["pdf"],
                  "payload": [b"XXXXnot-a-payload"]})
    out = feat(t).to_pylist()[0]
    assert out["error"].startswith("decode failed")
    assert out["n_pages"] == 0


def test_frame_sample_keeps_every_nth_page():
    sampled = multimodal.frame_sample(_media(), every_n=2).take_all()
    assert sampled
    for r in sampled:
        assert (r["page_idx"] - 1) % 2 == 0
        assert len(extractors.parse_pages(r["payload"])) == 1


def test_resize_media_shrinks_and_reparses():
    from westa_ocr_ray import fixtures, multimodal
    from westa_ocr_ray.extractors import parse_pages
    from westa_ocr_ray.pipelines.extract import read_documents

    docs = read_documents(fixtures.ensure_corpus("smoke"))
    media = multimodal.media_table(docs)
    out = multimodal.resize_media(media, factor=2, max_runs=3).to_pandas()
    ok = out[out["error"] == ""]
    assert len(ok) > 0
    assert (ok["resized_bytes"] <= ok["orig_bytes"]).all()
    # resized payloads are valid media: they re-parse, with capped runs
    # and scaled coordinates
    row = ok.iloc[0]
    pages = parse_pages(row["payload"])
    assert all(len(runs) <= 3 for _f, runs in pages)
    orig = dict(zip(out["media_ref"], out["orig_bytes"]))
    assert row["orig_bytes"] == orig[row["media_ref"]]
    bad = out[out["error"] != ""]
    # corrupt payloads surface as error rows, not failures
    assert (bad["resized_bytes"] == 0).all()


def test_payload_dedup_collapses_identical_payloads():
    import ray.data as rd

    rows = [
        {"doc_id": "d1", "media_ref": "m/b", "kind": "image",
         "payload": b"\x01\x02\x03"},
        {"doc_id": "d2", "media_ref": "m/a", "kind": "image",
         "payload": b"\x01\x02\x03"},        # same bytes, other ref
        {"doc_id": "d3", "media_ref": "m/c", "kind": "pdf",
         "payload": b"\x01\x02\x03"},        # same bytes, other KIND
        {"doc_id": "d4", "media_ref": "m/d", "kind": "image",
         "payload": b"\xff"},
    ]
    t = pa.table({
        "doc_id": [r["doc_id"] for r in rows],
        "media_ref": [r["media_ref"] for r in rows],
        "kind": [r["kind"] for r in rows],
        "payload": pa.array([r["payload"] for r in rows], type=pa.binary()),
    })
    out = (multimodal.payload_dedup(rd.from_arrow(t))
           .to_pandas().sort_values(["kind", "keeper_ref"],
                                    ignore_index=True))
    assert len(out) == 3
    img = out[(out["kind"] == "image") & (out["n_copies"] == 2)].iloc[0]
    assert img["keeper_ref"] == "m/a"  # lexicographically smallest ref
    assert img["nbytes"] == 3
    # same payload under a different kind stays a separate group
    assert (out["kind"] == "pdf").sum() == 1


def test_interleaved_pack_greedy_budget():
    import ray.data as rd

    def span(kind, text, ref=""):
        return {"kind": kind, "text": text, "media_ref": ref, "order": 0}

    docs = [
        # 10 + (16+2) = 28 <= 64 -> one sequence
        {"doc_id": "a", "spans": [span("html", "t " * 9 + "t"),
                                  span("image", "x y", "m/1")]},
        # 60 + 60 > 64 -> two sequences
        {"doc_id": "b", "spans": [span("html", " ".join(["w"] * 60)),
                                  span("html", " ".join(["w"] * 60))]},
        # single oversized span (100 > 64) still gets exactly one seq
        {"doc_id": "c", "spans": [span("pdf", " ".join(["w"] * 100), "m/2")]},
        {"doc_id": "d", "spans": []},
    ]
    out = (multimodal.interleaved_pack(rd.from_items(docs))
           .to_pandas().set_index("doc_id"))
    assert out.loc["a", "n_seqs"] == 1 and out.loc["a", "n_media"] == 1
    assert out.loc["a", "n_text_tokens"] == 12
    assert out.loc["b", "n_seqs"] == 2
    assert out.loc["c", "n_seqs"] == 1 and out.loc["c", "n_media"] == 1
    assert out.loc["d", "n_seqs"] == 0 and out.loc["d", "n_spans"] == 0


def test_caption_align_nearest_preceding_text():
    """mm_caption_align pairs each media span with the nearest
    PRECEDING text-kind span, never across documents, and counts
    media-first spans as uncaptioned (westa_ocr_ray/queries.py
    q_mm_caption_align — same rule as _mm_caption_oracle_sql)."""
    import hashlib

    import pyarrow as pa

    from westa_ocr_ray import queries as qmod

    def span(kind, text, ref, order):
        return {"kind": kind, "text": text, "media_ref": ref,
                "order": order}

    t = pa.table({
        "doc_id": ["d1", "d2"],
        "spans": [
            # caption -> image, then a pdf page further on (gap 2)
            [span("html", "cap one", "", 0),
             span("image", "pix", "m/1", 1),
             span("pdf", "pg", "m/2", 3)],
            # media FIRST (uncaptioned), then text, then image
            [span("image", "pix", "m/3", 0),
             span("text", "cap two", "", 1),
             span("image", "pix", "m/4", 2)],
        ]})
    def expected_chk(doc, ref, order, cap):
        return int(hashlib.md5(f"{doc}|{ref}|{order}|{cap}"
                               .encode()).hexdigest()[:8], 16)

    out = qmod._caption_align_kernel(t).set_index("kind")
    assert int(out.loc["image", "n_media"]) == 3
    assert int(out.loc["image", "n_captioned"]) == 2
    assert int(out.loc["pdf", "n_captioned"]) == 1
    assert int(out.loc["pdf", "sum_gap"]) == 3  # order 3 - order 0
    assert int(out.loc["image", "sum_gap"]) == 1 + 1
    assert int(out.loc["image", "sum_chk"]) == (
        expected_chk("d1", "m/1", 1, "cap one")
        + expected_chk("d2", "m/4", 2, "cap two"))
    assert int(out.loc["pdf", "sum_chk"]) == expected_chk(
        "d1", "m/2", 3, "cap one")
