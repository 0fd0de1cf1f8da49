"""Storage-seam tests: parquet fallback round-trip and text-lines
ingestion into the interleaved schema."""

from westa_ocr_ray import storage
from westa_ocr_ray.config import ExtractConfig
from westa_ocr_ray.pipelines.extract import extract_dataset


def test_roundtrip_documents(tmp_path):
    from westa_ocr_ray import fixtures

    src = fixtures.ensure_corpus("smoke")
    ds = storage.read_table(src)
    out = str(tmp_path / "copy")
    storage.write_table(ds, out)
    back = storage.read_table(out)
    assert back.count() == ds.count()
    assert set(back.schema().names) == {"doc_id", "spans"}


def test_lance_branch_dispatch_and_schema(tmp_path, monkeypatch):
    """The Lance half of the storage seam, exercised behind a fake
    rd.read_lance / Dataset.write_lance (lance is not installed in this
    sandbox — storage.py's HAVE_LANCE branch had otherwise never run):
    read_table/write_table must dispatch to the lance entry points and
    preserve the identical logical schema as the parquet branch."""
    import ray.data as rd

    from westa_ocr_ray import fixtures

    src = fixtures.ensure_corpus("smoke")
    parquet_schema = storage.read_table(src).schema()

    calls = {}

    def fake_read_lance(path, *, columns=None, **kwargs):
        calls["read"] = {"path": path, "columns": columns}
        # a real lance read returns the same logical table; stand in
        # with the parquet reader over the same files
        return (rd.read_parquet(path, columns=columns) if columns
                else rd.read_parquet(path))

    def fake_write_lance(self, path, **kwargs):
        calls["write"] = {"path": path}
        self.write_parquet(path, **kwargs)

    monkeypatch.setattr(storage, "HAVE_LANCE", True)
    monkeypatch.setattr(rd, "read_lance", fake_read_lance, raising=False)
    monkeypatch.setattr(rd.Dataset, "write_lance", fake_write_lance,
                        raising=False)

    ds = storage.read_table(src, columns=["doc_id", "spans"])
    assert calls["read"] == {"path": src, "columns": ["doc_id", "spans"]}
    assert ds.schema().names == parquet_schema.names

    out = str(tmp_path / "lance_out")
    storage.write_table(ds, out)
    assert calls["write"] == {"path": out}
    back = storage.read_table(out, columns=None)
    assert set(back.schema().names) == set(parquet_schema.names)
    assert back.count() == ds.count()


def test_lance_branch_forwards_num_blocks(monkeypatch):
    """The Lance read gets the block count the caller asked for, as
    read_lance's override_num_blocks, so run_extract's phase-1 count
    holds for Lance inputs too; no count leaves Lance's default."""
    import ray.data as rd

    from westa_ocr_ray.pipelines.extract import read_documents

    calls = []

    def fake_read_lance(uri, **kwargs):
        calls.append(kwargs)
        return "lance-dataset"

    monkeypatch.setattr(storage, "HAVE_LANCE", True)
    monkeypatch.setattr(rd, "read_lance", fake_read_lance, raising=False)

    assert read_documents("/data/docs.lance", num_blocks=12) == "lance-dataset"
    assert storage.read_table("/data/docs.lance") == "lance-dataset"
    assert calls == [{"columns": None, "override_num_blocks": 12},
                     {"columns": None}]


def test_read_text_lines_as_documents(tmp_path):
    p = tmp_path / "docs.txt"
    p.write_text("hello   world\nsecond  doc here\nhello   world\n")
    docs = storage.read_text_lines_as_documents(str(p))
    rows = docs.take_all()
    assert len(rows) == 3
    assert all(r["doc_id"].startswith("line_") for r in rows)
    # identical lines get identical ids → first-wins dedup collapses them
    cfg = ExtractConfig(num_parts=2, extract_concurrency=1)
    res = sorted(extract_dataset(docs, cfg).take_all(), key=lambda r: r["doc_id"])
    assert len(res) == 2  # duplicate line deduped
    texts = sorted(s["text"] for r in res for s in r["spans"])
    assert texts == ["hello world", "second doc here"]  # normalized


def test_read_jsonl_as_documents(tmp_path):
    import json

    from westa_ocr_ray import storage
    from westa_ocr_ray.pipelines.extract import extract_dataset

    p = tmp_path / "docs.jsonl"
    recs = [
        {"doc_id": "a", "text": "hello world"},
        {"doc_id": "b", "text": "with media", "media_ref": "media://image/b/0"},
        {"doc_id": "c", "text": "", "media_ref": "media://pdf/c/0"},
        {"doc_id": "d", "text": "no media here"},
    ]
    with open(p, "w") as fh:
        for r in recs:
            fh.write(json.dumps(r) + "\n")

    docs = storage.read_jsonl_as_documents(str(p))
    got = {r["doc_id"]: r["spans"] for r in docs.take_all()}
    assert set(got) == {"a", "b", "c", "d"}
    assert [s["kind"] for s in got["b"]] == ["text", "image"]
    assert got["b"][1]["offset"] == len("with media")
    assert [s["kind"] for s in got["c"]] == ["pdf"]
    assert [s["kind"] for s in got["a"]] == ["text"]

    # the ingested table is a first-class input to the flagship pipeline
    res = extract_dataset(docs).to_pandas()
    assert set(res["doc_id"]) == {"a", "b", "c", "d"}


def test_ensure_corpus_lost_race_waits_for_winner(tmp_path):
    """A builder that loses the directory race must NOT stamp _DONE on
    the winner's possibly mid-write directory: it waits for the
    winner's marker and errors out if it never appears."""
    import pytest

    from westa_ocr_ray import fixtures

    root = str(tmp_path)
    d = fixtures.corpus_dir("smoke", fixtures.DEFAULT_SEED, root)
    import os
    os.makedirs(d)  # simulate a winner mid-write (no _DONE yet)
    with pytest.raises(TimeoutError):
        fixtures.ensure_corpus("smoke", root=root, n_docs=5,
                               lost_race_wait_s=1.0)
    assert not os.path.exists(os.path.join(d, "_DONE"))

    # winner finishes → the loser returns the winner's dir
    with open(os.path.join(d, "_DONE"), "w") as fh:
        fh.write("5\n")
    assert fixtures.ensure_corpus("smoke", root=root, n_docs=5,
                                  lost_race_wait_s=1.0) == d


def test_read_csv_as_documents_and_partitioned_sink(tmp_path):
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray import storage
    from westa_ocr_ray.pipelines.extract import extract_dataset

    p = tmp_path / "docs.csv"
    pd.DataFrame({"doc_id": [1, 2, 3],
                  "text": ["alpha beta", "gamma delta", "epsilon"],
                  "lang": ["en", "en", "de"]}).to_csv(p, index=False)
    docs = storage.read_csv_as_documents(str(p))
    got = {r["doc_id"]: r["spans"] for r in docs.take_all()}
    assert set(got) == {"1", "2", "3"}
    assert got["1"][0]["kind"] == "text" and got["1"][0]["text"] == "alpha beta"
    res = extract_dataset(docs)
    assert res.count() == 3

    out = tmp_path / "parts"
    tbl = rd.from_pandas(pd.DataFrame({
        "k": ["a", "a", "b"], "v": [1, 2, 3]}))
    storage.write_partitioned(tbl, str(out), by=["k"])
    import glob
    dirs = sorted(d.split("/")[-1] for d in glob.glob(str(out / "k=*")))
    assert dirs == ["k=a", "k=b"]
    back = rd.read_parquet(str(out)).to_pandas()
    assert sorted(back["v"]) == [1, 2, 3]


def test_export_jsonl_shards_roundtrip_and_resume(tmp_path):
    import glob
    import os

    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray import storage

    df = pd.DataFrame({"doc_id": range(60),
                       "text": [f"doc {i} body" for i in range(60)]})
    out = str(tmp_path / "jsonl")
    m = (storage.export_jsonl_shards(rd.from_pandas(df).repartition(3),
                                     out, num_shards=4)
         .to_pandas().sort_values("shard", ignore_index=True))
    assert int(m["n_rows"].sum()) == 60
    assert os.path.exists(out + "/_SUCCESS")
    files = glob.glob(out + "/shard=*/*.jsonl")
    assert len(files) == len(m)
    back = storage.read_jsonl_as_documents(files)
    assert back.count() == 60
    # marker short-circuits the rewrite; manifest rebuilt from disk
    before = sorted(files)
    m2 = storage.export_jsonl_shards(rd.from_pandas(df), out,
                                     num_shards=4).to_pandas()
    assert sorted(glob.glob(out + "/shard=*/*.jsonl")) == before
    assert int(m2["n_rows"].sum()) == 60


def test_snapshot_diff_statuses():
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray.storage import snapshot_diff

    base = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                         "text": ["a", "b", "c", "d"]})
    new = pd.DataFrame({"doc_id": [2, 3, 5],
                        "text": ["b", "c2", "e"]})
    out = (snapshot_diff(rd.from_pandas(base).repartition(3),
                         rd.from_pandas(new).repartition(2))
           .to_pandas().sort_values("doc_id", ignore_index=True))
    got = dict(zip(out["doc_id"].astype(int), out["status"]))
    assert got == {1: "removed", 2: "unchanged", 3: "changed",
                   4: "removed", 5: "added"}
