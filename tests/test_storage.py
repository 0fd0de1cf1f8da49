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


def test_lance_branch_forwards_num_blocks(tmp_path, monkeypatch):
    """The Lance read gets its block count as read_lance's
    override_num_blocks: the count the caller asked for, else the byte
    rule's count for the table on disk (one block for a tiny table)."""
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray.pipelines.extract import read_documents

    table = tmp_path / "docs.lance"
    table.mkdir()
    pd.DataFrame({"doc_id": ["a", "b"]}).to_parquet(table / "data.parquet")
    calls = []

    def fake_read_lance(uri, **kwargs):
        calls.append(kwargs)
        return "lance-dataset"

    monkeypatch.setattr(storage, "HAVE_LANCE", True)
    monkeypatch.setattr(rd, "read_lance", fake_read_lance, raising=False)

    assert read_documents(str(table), ExtractConfig(read_num_blocks=12)) == "lance-dataset"
    assert storage.read_table(str(table)) == "lance-dataset"
    assert calls == [{"columns": None, "override_num_blocks": 12},
                     {"columns": None, "override_num_blocks": 1}]


def test_table_num_blocks_is_ray_rule_without_cpu_floor():
    """Ray Data's read-size rule on on-disk bytes, minus its 2 × CPUs
    floor: one block per MiB up to 200 blocks, then 128 MiB blocks."""
    mib = 1 << 20
    assert storage.table_num_blocks(0) == 1
    assert storage.table_num_blocks(225_000) == 1        # sf0.001-sized
    assert storage.table_num_blocks(10_800_000) == 11    # sf0.1 lineitem
    assert storage.table_num_blocks(300_000_000) == 200
    assert storage.table_num_blocks(200 * 128 * mib) == 200
    assert storage.table_num_blocks(200 * 128 * mib + 1) == 201
    tb100 = 100 * 10 ** 12
    assert storage.table_num_blocks(tb100) == -(-tb100 // (128 * mib)) == 745_059


def test_tiny_table_reads_as_one_block_and_count_wins(tmp_path):
    """A table under 1 MiB is one block on a 4-CPU session (Ray Data's
    default gives it 8); an explicit num_blocks still wins; a list of
    files is sized by their summed bytes."""
    import pandas as pd

    df = pd.DataFrame({"k": range(1000), "v": [float(i) for i in range(1000)]})
    paths = []
    for i in range(3):
        paths.append(str(tmp_path / f"part-{i}.parquet"))
        df.to_parquet(paths[-1])
    assert storage.input_files(str(tmp_path)) == storage.input_files(paths)
    assert storage.input_files(paths)[1] == 3
    assert storage.read_table(paths[0]).materialize().num_blocks() == 1
    assert storage.read_table(paths).materialize().num_blocks() == 1
    assert storage.read_table(paths[0], num_blocks=4).materialize().num_blocks() == 4
    back = storage.read_table(str(tmp_path), columns=["k"]).to_pandas()
    assert list(back.columns) == ["k"] and len(back) == 3000


def test_documents_read_is_whole_waves_with_a_session():
    """The documents read feeds the extract chain, so with a session up
    it keeps whole waves of the extract slots (phase1_num_blocks), not
    the table byte rule's one block."""
    import ray

    from westa_ocr_ray import fixtures
    from westa_ocr_ray.pipelines.extract import read_documents

    corpus = fixtures.ensure_corpus("smoke")
    cpus = int(ray.cluster_resources()["CPU"])
    assert storage.read_table(corpus).materialize().num_blocks() == 1
    assert read_documents(corpus).materialize().num_blocks() == cpus
    capped = ExtractConfig(extract_concurrency=3)
    assert read_documents(corpus, capped).materialize().num_blocks() == 3


def test_block_count_does_not_change_query_results(monkeypatch):
    """Registry queries read through read_table; at sf0.001 every table
    is one block. The same queries with every table read as 8 blocks
    (Ray Data's default on 4 CPUs) give identical normalized frames."""
    import pandas as pd
    from pandas.testing import assert_frame_equal

    from test_driver_contract import SF
    from westa_ocr_ray.queries import QUERIES

    names = ["g1_lineitem_agg", "q10_returned_items", "q22_idle_customers",
             "dedup_minhash_planted"]

    def run_all() -> dict:
        out = {}
        for name in names:
            df = QUERIES[name](SF).to_pandas()
            cols = sorted(df.columns)
            out[name] = df[cols].sort_values(cols, ignore_index=True)
        return out

    one = run_all()
    monkeypatch.setattr(storage, "table_num_blocks", lambda input_bytes: 8)
    eight = run_all()
    for name in names:
        assert len(one[name]) > 0, name
        assert_frame_equal(one[name], eight[name], check_dtype=True)


def test_read_parquet_only_in_storage():
    """storage.read_table is the package's one read seam: one rule sizes
    every read and every read holds the construction lock."""
    import pathlib

    pkg = pathlib.Path(storage.__file__).parent
    hits = sorted(str(p.relative_to(pkg)) for p in pkg.rglob("*.py")
                  if "rd.read_parquet(" in p.read_text())
    assert hits == ["storage.py"]


#: the primitives whose output comes back materialized, snapshot set
PRIMITIVES = {"exchange", "partial_aggregate", "grouped_topk", "hash_join",
              "semi_anti_filter_scalable", "global_value_rank",
              "_within_bucket_pairs"}


def test_no_materialize_on_a_primitive():
    """A primitive's output is already materialized, so a
    ``.materialize()`` chained on its call is a no-op that deep-copies
    the plan and asks the cluster for its memory info."""
    import ast
    import pathlib

    pkg = pathlib.Path(storage.__file__).parent
    hits = []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "materialize"
                    and isinstance(node.func.value, ast.Call)):
                continue
            f = node.func.value.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name in PRIMITIVES:
                hits.append(f"{path.relative_to(pkg)}:{node.lineno}")
    assert hits == []


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


def test_read_csv_as_documents(tmp_path):
    import pandas as pd

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
    # marker short-circuits the rewrite and returns the committed
    # manifest from its file, not recounted from the shards: a shard
    # whose line count changed after the commit leaves it as committed
    before = sorted(files)
    with open(before[0], "a") as f:
        f.write('{"doc_id": -1, "text": "appended"}\n')
    m2 = (storage.export_jsonl_shards(rd.from_pandas(df), out,
                                      num_shards=4)
          .to_pandas().sort_values("shard", ignore_index=True))
    assert sorted(glob.glob(out + "/shard=*/*.jsonl")) == before
    pd.testing.assert_frame_equal(m2, m)


def test_json_cache_recomputes_truncated_file(tmp_path):
    import json

    path = tmp_path / "oracle.json"
    path.write_text("{")        # a writer killed mid-dump
    calls = []

    def compute():
        calls.append(1)
        return [[1, "a"]]

    assert storage.json_cache(str(path), compute) == [[1, "a"]]
    assert json.loads(path.read_text()) == [[1, "a"]]
    assert storage.json_cache(str(path), compute) == [[1, "a"]]
    assert len(calls) == 1      # the valid file is read, not recomputed


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
