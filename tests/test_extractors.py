"""Unit tests for the pure extraction functions (SURVEY.md §5.2.3)."""

import pytest

from westa_ocr_ray import extractors, fixtures


def test_html_main_text_strips_boilerplate():
    html, expected = fixtures.build_html(("t", 1), 3)
    assert extractors.html_main_text(html) == expected


def test_html_empty_and_garbage():
    assert extractors.html_main_text("") == ""
    # all-boilerplate page → nothing survives
    assert extractors.html_main_text(
        "<div><a href='/x'>one two three</a></div>") == ""


def test_normalize_ws():
    assert extractors.normalize_ws("  a\n b\t c ") == "a b c"


def test_page_roundtrip_and_reading_order():
    ref = "media://pdf/doc_42_00000007/2"
    blob = fixtures.media_store(ref)
    pages = extractors.parse_pages(blob)
    _, n_pages = fixtures._media_params(fixtures.DEFAULT_SEED, ref)
    assert len(pages) == n_pages
    # reading order: stored runs are shuffled, page_text must sort by (y, x)
    flags, runs = pages[0]
    text, is_content = extractors.page_text(flags, runs)
    ordered = sorted(runs, key=lambda r: (r[1], r[0]))
    if is_content:
        assert text == " ".join(t for _, _, t in ordered)


def test_split_payload_one_based_pages():
    # 1-based page indexing semantics (reference pdf_utils.py:29)
    ref = "media://pdf/doc_42_00000019/0"
    blob = fixtures.media_store(ref)
    blobs = extractors.split_payload(blob)
    assert len(blobs) == len(extractors.parse_pages(blob))
    for single in blobs:
        assert len(extractors.parse_pages(single)) == 1


def test_corrupt_payload_raises():
    with pytest.raises(extractors.MediaFormatError):
        extractors.parse_pages(b"XXXXgarbage")
    with pytest.raises(extractors.MediaFormatError):
        extractors.parse_pages(fixtures.MAGIC_PDF + b"\x05\x00" + b"\x00")  # truncated


def test_extract_unit_records_errors():
    text, is_content, err = extractors.extract_unit("pdf", "", b"XXXX")
    assert text == "" and not is_content and err.startswith("extract failed")


def test_sentinel_page_non_content():
    text, is_content = extractors.page_text(1, [(0, 0, fixtures.SENTINEL_TEXT)])
    assert text == "" and not is_content


def test_media_store_file_scheme(tmp_path):
    """file:// and bare-path refs resolve to on-disk bytes (reference
    FileFetcher scheme dispatch, app/file_fetcher.py:106-133)."""
    payload = fixtures.media_store("media://pdf/doc_42_00000001/0")
    p = tmp_path / "page.spdf"
    p.write_bytes(payload)
    assert fixtures.media_store(f"file://{p}") == payload
    assert fixtures.media_store(str(p)) == payload


def test_file_scheme_through_pipeline(tmp_path):
    """A document whose media_ref is a file:// path extracts identically
    via the Ray pipeline and the oracle."""
    import pyarrow as pa
    import ray.data as rd

    from westa_ocr_ray import oracle
    from westa_ocr_ray.config import ExtractConfig
    from westa_ocr_ray.pipelines.extract import extract_dataset
    from westa_ocr_ray.schema import DOCUMENTS_SCHEMA

    payload = fixtures.media_store("media://pdf/doc_42_00000010/1")
    p = tmp_path / "doc.spdf"
    p.write_bytes(payload)
    doc = {"doc_id": "filedoc_0", "spans": [
        {"kind": "pdf", "text": "", "media_ref": f"file://{p}", "offset": 0}]}
    table = pa.Table.from_pylist([doc], schema=DOCUMENTS_SCHEMA)
    cfg = ExtractConfig(num_parts=2, extract_concurrency=1)
    got = extract_dataset(rd.from_arrow(table), cfg).take_all()[0]
    exp = oracle.extract_doc(doc)
    assert [(s["kind"], s["text"], s["order"]) for s in got["spans"]] == \
           [(s["kind"], s["text"], s["order"]) for s in exp["spans"]]
    assert got["total_units"] == exp["total_units"] > 0


def test_missing_file_ref_records_error():
    """A dangling file:// ref is a recorded per-span error, not a task
    crash (reference initial-failure path, worker.py:798-823)."""
    from westa_ocr_ray import oracle

    doc = {"doc_id": "missing_0", "spans": [
        {"kind": "pdf", "text": "", "media_ref": "file:///nope/gone.spdf",
         "offset": 0}]}
    res = oracle.extract_doc(doc)
    assert res["status"] == "ERROR" and res["errors"] == 1
    assert res["error_messages"].startswith("media split failed:")
    assert res["spans"] == []


def test_media_store_deterministic():
    ref = "media://image/doc_42_00000003/1"
    assert fixtures.media_store(ref) == fixtures.media_store(ref)


# --------------------------- structured detail-row parse (M2 twin)

def test_parse_detail_pages_full_semantics():
    from westa_ocr_ray.extractors import parse_detail_pages

    text = (
        "--- PAGE 1 ---\n"
        "[customer]acme \n[order_date]d5\n[order_no]po9\n[details]\n"
        "a,b,c,d,e,f,g,h,i,j,k,l,m,n,o\n"
        " 1 , 2 ,3,4,5,6,7,8,9,10,11,12,13,14,15,extra\n"
        "too,short,row\n"
        "\n"
        "--- PAGE 2 ---\nTHIS PAGE IS NOT AN ORDER.\n"
        "--- PAGE 3 ---\n   \n"          # blank: filtered before parsing
        "--- PAGE 4 ---\nno markers at all here\n"  # no header/rows: dropped
    )
    pages = parse_detail_pages(text)
    assert len(pages) == 2
    p1, p2 = pages
    assert p1["page_idx"] == 1 and not p1["is_non_order"]
    assert p1["h_customer"] == "acme"            # trimmed
    assert p1["h_order_date"] == "d5" and p1["h_order_no"] == "po9"
    rows = p1["detail_rows"]
    assert len(rows) == 2                        # short row dropped
    assert rows[0]["slip_no"] == "a" and rows[0]["order_note"] == "o"
    assert rows[1]["slip_no"] == "1"             # per-column trim
    assert rows[1]["order_note"] == "15"         # 16th column ignored
    assert p2 == {"page_idx": 2, "is_non_order": True}


def test_parse_detail_pages_header_only_and_empty():
    from westa_ocr_ray.extractors import parse_detail_pages

    kept = parse_detail_pages("--- PAGE 1 ---\n[customer]c1\n[details]\n")
    assert kept[0]["detail_rows"] == [] and kept[0]["h_customer"] == "c1"
    assert parse_detail_pages("") == []
    assert parse_detail_pages("--- PAGE 1 ---\n[details]\nshort,row\n") == []


def test_fast_html_tokenizer_matches_htmlparser():
    """The regex fast path and the stdlib HTMLParser path drive the same
    _BlockCollector; block structure must be identical on fixture htmls
    and on html outside the fast subset (which silently falls back)."""
    from westa_ocr_ray import fixtures
    from westa_ocr_ray.extractors import _BlockCollector, _collect_blocks

    def slow(html):
        p = _BlockCollector()
        p.feed(html)
        p.close()
        return p.blocks

    checked = 0
    for i in range(300):
        for s in fixtures.gen_doc(42, i)["spans"]:
            if s["kind"] == "html":
                assert _collect_blocks(s["text"]).blocks == slow(s["text"])
                checked += 1
    assert checked > 50

    for h in ["<p>a &amp; b</p>", "<!-- c --><p>x</p>", "<p>stray < here</p>",
              "<a href='x>y'>t</a><p>zz</p>", "<P CLASS='x'>UP</P>",
              "<br/><p>s</p>", "<div><p>unclosed", "plain text",
              "<script>var x='<p>'</script><p>r</p>", "</div junk><p>a</p>"]:
        assert _collect_blocks(h).blocks == slow(h)


def test_media_store_http_scheme_loopback():
    """http(s):// refs resolve through the fetcher seam (reference
    app/file_fetcher.py:109-114): GET, redirects followed, non-2xx
    raised — against a stdlib loopback server (no external network in
    this sandbox)."""
    import http.server
    import threading
    import urllib.error

    payload = fixtures.media_store("media://pdf/doc_42_00000001/0")

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            if self.path == "/blob":
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
            elif self.path == "/hop":
                self.send_response(302)
                self.send_header("Location", "/blob")
                self.end_headers()
            else:
                self.send_error(404)

        def log_message(self, *a):
            pass

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        assert fixtures.media_store(f"{base}/blob") == payload
        # redirects are followed (reference client semantics)
        assert fixtures.media_store(f"{base}/hop") == payload
        # non-2xx raises (raise_for_status analog)
        with pytest.raises(urllib.error.HTTPError):
            fixtures.media_store(f"{base}/missing")
    finally:
        srv.shutdown()
        srv.server_close()


def test_http_ref_extracts_identically():
    """A document whose media_ref is an http:// URL extracts the same
    spans as the media:// original — the scheme only changes the fetch
    path, not the payload semantics."""
    import http.server
    import threading

    ref = "media://pdf/doc_42_00000010/1"
    payload = fixtures.media_store(ref)

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *a):
            pass

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{srv.server_address[1]}/p"
        doc_media = {"doc_id": "d", "spans": [
            {"kind": "pdf", "text": "", "media_ref": ref, "offset": 0}]}
        doc_http = {"doc_id": "d", "spans": [
            {"kind": "pdf", "text": "", "media_ref": url, "offset": 0}]}
        from westa_ocr_ray.oracle import extract_doc
        got_m = extract_doc(doc_media)
        got_h = extract_doc(doc_http)
        assert [(s["kind"], s["text"], s["order"]) for s in got_m["spans"]] \
            == [(s["kind"], s["text"], s["order"]) for s in got_h["spans"]]
    finally:
        srv.shutdown()
        srv.server_close()
