"""Physical-storage seam (SURVEY.md §7): the logical table is the Lance
table mandated by BASELINE.json.input_hint; this sandbox has no `lance`
module, so the physical format falls back to Parquet with the identical
logical schema. Swapping to Lance is contained to this file.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import ray.data as rd

try:  # pragma: no cover - lance absent in this environment
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def read_table(path: str, columns: Optional[list] = None,
               num_blocks: Optional[int] = None) -> rd.Dataset:
    """Read a logical Lance table (Lance if importable, else Parquet)."""
    kwargs = {}
    if num_blocks:
        kwargs["override_num_blocks"] = num_blocks
    if HAVE_LANCE:
        return rd.read_lance(path, columns=columns, **kwargs)
    if columns:
        kwargs["columns"] = columns
    return rd.read_parquet(path, **kwargs)


def write_table(ds: rd.Dataset, path: str, **kwargs) -> None:
    if HAVE_LANCE:
        ds.write_lance(path, **kwargs)
        return
    ds.write_parquet(path, **kwargs)


def read_text_lines_as_documents(path: str, id_prefix: str = "line") -> rd.Dataset:
    """Ingest plain text (one document per line, `ray.data.read_text`)
    into the engine's interleaved documents schema — deterministic doc
    ids derive from the line content hash, so the ingest is stable
    across block splits and reruns."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    lines = rd.read_text(path)

    def to_docs(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        texts = t.column("text")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = t.num_rows
        ids = pa.array(
            [f"{id_prefix}_{hashlib.md5(s.encode()).hexdigest()[:16]}"
             for s in texts.to_pylist()], type=pa.string())
        structs = pa.StructArray.from_arrays(
            [pa.array(["text"] * n), texts, pa.array([""] * n),
             pa.array(np.zeros(n, dtype=np.int32))],
            names=["kind", "text", "media_ref", "offset"])
        spans = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)), structs)
        return pa.table({"doc_id": ids, "spans": spans})

    return lines.map_batches(to_docs, batch_format="pyarrow")


def read_jsonl_as_documents(path: str,
                            id_field: str = "doc_id",
                            text_field: str = "text",
                            media_field: str = "media_ref") -> rd.Dataset:
    """Ingest JSONL (`ray.data.read_json`, one record per line) into the
    interleaved documents schema — the webhook/API-payload ingestion
    path a reference user would port. Records carry a text field and
    optionally a media ref; each becomes a one- or two-span document
    (text span at offset 0, media span after it)."""
    import numpy as np
    import pyarrow as pa

    rows = rd.read_json(path)

    def to_docs(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        names = set(t.schema.names)
        ids = [str(v) for v in t.column(id_field).to_pylist()]
        texts = [v if v is not None else ""
                 for v in t.column(text_field).to_pylist()]
        media = ([v if v is not None else ""
                  for v in t.column(media_field).to_pylist()]
                 if media_field in names else [""] * t.num_rows)

        kinds, span_texts, refs, offsets, counts = [], [], [], [], []
        for txt, ref in zip(texts, media):
            k = 0
            if txt:
                kinds.append("text")
                span_texts.append(txt)
                refs.append("")
                offsets.append(0)
                k += 1
            if ref:
                kinds.append("pdf" if ref.endswith(".pdf")
                             or "/pdf/" in ref else "image")
                span_texts.append("")
                refs.append(ref)
                offsets.append(len(txt))
                k += 1
            counts.append(k)
        structs = pa.StructArray.from_arrays(
            [pa.array(kinds, type=pa.string()),
             pa.array(span_texts, type=pa.string()),
             pa.array(refs, type=pa.string()),
             pa.array(np.array(offsets, dtype=np.int32))],
            names=["kind", "text", "media_ref", "offset"])
        bounds = np.zeros(t.num_rows + 1, dtype=np.int32)
        np.cumsum(counts, out=bounds[1:])
        spans = pa.ListArray.from_arrays(pa.array(bounds), structs)
        return pa.table({"doc_id": pa.array(ids, type=pa.string()),
                         "spans": spans})

    return rows.map_batches(to_docs, batch_format="pyarrow")


def read_csv_as_documents(path: str,
                          id_field: str = "doc_id",
                          text_field: str = "text") -> rd.Dataset:
    """Ingest CSV (`ray.data.read_csv`) into the interleaved documents
    schema — the masters-CSV-shaped ingestion path (reference
    models.py:21-26 consumes CSV rows); each record becomes a
    single-text-span document."""
    import numpy as np
    import pyarrow as pa

    rows = rd.read_csv(path)

    def to_docs(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        n = t.num_rows
        ids = pa.compute.cast(t.column(id_field), pa.string())
        texts = pa.compute.cast(t.column(text_field), pa.string())
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        structs = pa.StructArray.from_arrays(
            [pa.array(["text"] * n), texts, pa.array([""] * n),
             pa.array(np.zeros(n, dtype=np.int32))],
            names=["kind", "text", "media_ref", "offset"])
        spans = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)), structs)
        return pa.table({"doc_id": ids, "spans": spans})

    return rows.map_batches(to_docs, batch_format="pyarrow")


def write_partitioned(ds: rd.Dataset, path: str, by: list) -> None:
    """Partitioned parquet sink (one directory per key value, hive
    layout via Ray's native partition_cols) — the resumable-output
    shape the brief mandates: a failed run re-lists directories and
    skips finished partitions; never one giant file."""
    ds.write_parquet(path, partition_cols=list(by))


def export_jsonl_shards(ds: rd.Dataset, out_dir: str,
                        num_shards: int = 16,
                        id_col: str = "doc_id") -> "rd.Dataset":
    """JSONL delivery export — the interchange format LM training
    stacks actually consume: deterministic md5 sharding (the same rule
    as the parquet shard export, so the two layouts agree doc-for-doc)
    into ``shard=<k>`` hive directories. Ray's JSON sink has no
    partition_cols, so each shard GROUP writes its own file from
    inside the task (the foreach-partition sink shape — rows stream
    through workers, never the driver) and emits one manifest row;
    a ``_SUCCESS`` marker gives whole-export resume. Round-trips
    through read_jsonl_as_documents. Returns the (shard, n_rows, path)
    manifest Dataset (already written when this returns)."""
    import json
    import os
    import uuid

    import pandas as pd

    from .relops import exchange, per_key
    from .shards import shard_assign

    marker = os.path.join(out_dir, "_SUCCESS")

    def write_shard(df: pd.DataFrame) -> pd.DataFrame:
        shard = int(df["shard"].iloc[0])
        d = os.path.join(out_dir, f"shard={shard}")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"part-{uuid.uuid4().hex[:12]}.jsonl")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            for rec in df.drop(columns="shard").to_dict("records"):
                f.write(json.dumps(rec) + "\n")
        os.replace(tmp, path)
        return pd.DataFrame({"shard": [shard], "n_rows": [len(df)],
                             "path": [path]})

    if os.path.exists(marker):
        import glob as _glob
        rows = []
        for d in sorted(_glob.glob(os.path.join(out_dir, "shard=*"))):
            for p in sorted(_glob.glob(os.path.join(d, "*.jsonl"))):
                rows.append({"shard": int(d.rsplit("=", 1)[1]),
                             "n_rows": sum(1 for _ in open(p)),
                             "path": p})
        return rd.from_pandas(pd.DataFrame(rows))

    if os.path.isdir(out_dir):  # crashed earlier export: start clean
        import shutil
        shutil.rmtree(out_dir)
    manifest = exchange(shard_assign(ds, num_shards, id_col), "shard",
                        per_key("shard", write_shard))
    with open(marker, "w") as f:
        f.write("ok\n")
    return manifest


def snapshot_diff(base: rd.Dataset, new: rd.Dataset,
                  id_col: str = "doc_id", text_col: str = "text") -> rd.Dataset:
    """Corpus-version diff (the dataset-versioning audit between two
    snapshots): per doc, 'added' (new only), 'removed' (base only),
    'changed' (both, text differs) or 'unchanged'. The full-outer-join
    shape without a join: both sides reduce to (id, content-md5) rows
    tagged by side, one bucketed partial aggregate folds the two hashes
    per id, and a streaming map classifies — text never shuffles, only
    (id, 32-byte hash) rows cross the wire, so a 100 TB snapshot pair
    diffs at metadata cost. Exact and SQL-expressible
    (queries.ORACLE_SQL['corpus_diff']). Returns (doc_id, status)."""
    import hashlib

    from .relops import partial_aggregate

    def tagger(side: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            h = [hashlib.md5(t.encode("utf-8")).hexdigest()
                 for t in df[text_col]]
            return pd.DataFrame({
                id_col: df[id_col].to_numpy(),
                "ha": h if side == "a" else [""] * len(df),
                "hb": h if side == "b" else [""] * len(df),
            })
        return fn

    both = (base.map_batches(tagger("a"), batch_format="pandas")
            .union(new.map_batches(tagger("b"), batch_format="pandas")))
    folded = partial_aggregate(both, [id_col],
                               {"ha": ("max", "ha"), "hb": ("max", "hb")})

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        ha, hb = df["ha"].to_numpy(), df["hb"].to_numpy()
        status = np.where(ha == "", "added",
                          np.where(hb == "", "removed",
                                   np.where(ha == hb, "unchanged",
                                            "changed")))
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             "status": status})

    return folded.map_batches(classify, batch_format="pandas")
