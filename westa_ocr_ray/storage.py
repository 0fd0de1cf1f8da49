"""Physical-storage seam (SURVEY.md §7) and the package's one table
read: the logical table is the Lance table mandated by
BASELINE.json.input_hint; where no `lance` module is installed, the
physical format falls back to Parquet with the identical logical
schema. Swapping to Lance is contained to this file.

Every Parquet/Lance read in the package goes through ``read_table``,
so one rule sizes every read (table_num_blocks): Ray Data's own rule
applied to the on-disk bytes, without the floor of 2 × the cluster's
CPUs that Ray Data 2.49 gives every read. A table under 1 MiB is one
read task, not eight on 4 CPUs (SCALE.md §Read sizing). The extract
pipeline's documents read picks its own count for the chain it feeds
(pipelines/extract.read_documents).

It also owns the one commit protocol for derived outputs (exports,
persisted indexes, oracle caches): write everything, then flip a
status. commit_dir stamps a whole directory's ``_SUCCESS`` marker
last and wipes a marker-less directory before rewriting it;
add_generation / generation_files do the same per index generation;
json_cache replaces a cache file atomically; input_cache_dir keys a
cache directory by its input table's stat.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import threading
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np
import pandas as pd
import ray.data as rd
from ray.data import DataContext

try:  # pragma: no cover - lance absent in this environment
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


#: serializes driver-side Dataset CONSTRUCTION across threads: ray's
#: path resolution probes `from fsspec.implementations.http import
#: HTTPFileSystem` on every read_parquet and only catches
#: ModuleNotFoundError — with aiohttp absent the import always fails,
#: and two threads importing the same failing module race Python's
#: partial-module state into a bare ImportError. Callers of the
#: registry (`__ray_entry__.queries()`) may run queries from several
#: driver threads, so read_table holds this lock, and so does every
#: other Dataset read or write built from a path.
DATASET_CONSTRUCTION_LOCK = threading.Lock()


def input_files(path: Union[str, Sequence[str]]) -> tuple:
    """``(on-disk bytes, file count)`` of the files under ``path`` (a
    file, directory or filesystem URI, or a list of them), listed once
    on the driver. Like a Parquet dataset read, it skips names under a
    directory that start with ``.`` or ``_`` (a corpus's ``_DONE``
    marker, a writer's tmp file)."""
    import pyarrow.fs as pafs

    total = count = 0
    for p in [path] if isinstance(path, str) else path:
        fs, root = pafs.FileSystem.from_uri(p if "://" in p else os.path.abspath(p))
        info = fs.get_file_info(root)
        if info.type == pafs.FileType.File:
            sizes = [info.size]
        else:
            sizes = [i.size for i in fs.get_file_info(pafs.FileSelector(root, recursive=True))
                     if i.type == pafs.FileType.File and i.base_name[:1] not in "._"]
        total += sum(sizes)
        count += len(sizes)
    return total, count


def table_num_blocks(input_bytes: int) -> int:
    """Block count of a table read of ``input_bytes`` on disk: Ray Data
    2.49's own rule (``_autodetect_parallelism``) without its
    ``2 × CPUs`` floor, ``max(1, min(read_op_min_num_blocks,
    ceil(b / target_min_block_size)), ceil(b / target_max_block_size))``
    with the values of the current DataContext. One block per 1 MiB up
    to 200 blocks, then blocks of at most 128 MiB: 1 block for 225 KB,
    11 for 10.8 MB, 200 for 300 MB, 745,059 for 100 TB.

    The floor costs a small table its fixed per-task cost many times
    over: in a warm session of 4 logical CPUs (1-vCPU VM, 256 MiB
    object store), draining the 117 KB, one-row-group sf0.001
    ``lineitem`` through one identity map took 0.123 s as 8 blocks,
    0.107 s as 4 and 0.060 s as 1 (median of 7)."""
    ctx = DataContext.get_current()
    n = min(ctx.read_op_min_num_blocks, -(-input_bytes // ctx.target_min_block_size))
    if ctx.target_max_block_size is not None:
        n = max(n, -(-input_bytes // ctx.target_max_block_size))
    return max(1, n)


def read_table(path: Union[str, Sequence[str]], columns: Optional[list] = None,
               num_blocks: Optional[int] = None, filter=None) -> rd.Dataset:
    """Read a logical Lance table (Lance if importable, else Parquet)
    from a file, directory or URI, or a list of files.

    The read has ``num_blocks`` blocks when given, else
    table_num_blocks of the files' on-disk bytes. The rule needs no
    Ray session, so a read built before one starts is sized the same.
    ``filter`` (a pyarrow expression for Parquet) is pushed into the
    reader. Holds DATASET_CONSTRUCTION_LOCK while it lists the files and
    builds the Dataset."""
    with DATASET_CONSTRUCTION_LOCK:
        kwargs = {"override_num_blocks":
                  num_blocks or table_num_blocks(input_files(path)[0])}
        if filter is not None:
            kwargs["filter"] = filter
        if HAVE_LANCE:
            return rd.read_lance(path, columns=columns, **kwargs)
        return rd.read_parquet(path, columns=columns, **kwargs)


def write_table(ds: rd.Dataset, path: str, **kwargs) -> None:
    if HAVE_LANCE:
        ds.write_lance(path, **kwargs)
        return
    ds.write_parquet(path, **kwargs)


# ------------------------------------------------------ commit protocol

#: a derived output is visible to readers once its marker exists:
#: ``_SUCCESS`` commits a directory (and an index's generation 0),
#: ``_SUCCESS.<g>`` commits index generation g
_MARKER = "_SUCCESS"
_ORACLE_CACHE = "/tmp/westa_oracle_cache"
#: where input_cache_dir puts the caches derived from input tables
_CACHE_ROOT = "/tmp"


def _stamp(path: str) -> None:
    with open(path, "w") as f:
        f.write("ok\n")


def commit_dir(out_dir: str, write: Callable[[str], Any]) -> Any:
    """Write ``out_dir`` at most once: skip if ``out_dir/_SUCCESS``
    exists, else wipe any marker-less ``out_dir`` (the leftovers of a
    crashed write, which a rewrite of new uuid-named files would
    otherwise sit next to), call ``write(out_dir)`` and stamp
    ``_SUCCESS`` last. Returns what ``write`` returned, or None when
    the marker was found."""
    if os.path.exists(os.path.join(out_dir, _MARKER)):
        return None
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    result = write(out_dir)
    _stamp(os.path.join(out_dir, _MARKER))
    return result


def committed_generations(index_dir: str) -> list:
    """Sorted committed generations of an index: 0 once commit_dir
    stamped the base build's ``_SUCCESS``, g once add_generation
    stamped ``_SUCCESS.<g>``."""
    gens = [0] if os.path.exists(os.path.join(index_dir, _MARKER)) else []
    for m in glob.glob(os.path.join(index_dir, _MARKER + ".*")):
        s = m.rsplit(".", 1)[1]
        if s.isdigit():
            gens.append(int(s))
    return sorted(gens)


def add_generation(index_dir: str, write: Callable[[int], Any]) -> int:
    """Add one generation to a committed index: wipe every
    ``<sub>/gen=<g>`` subtree of a generation with no marker (a crashed
    add), call ``write(g)`` for the next generation g, which writes
    only under ``<sub>/gen=<g>`` dirs, and stamp ``_SUCCESS.<g>`` last.
    Readers list committed generations only (generation_files), so a
    crashed add is invisible until its re-run commits. Returns g."""
    gens = committed_generations(index_dir)
    if not gens:
        raise FileNotFoundError(f"no committed index at {index_dir}")
    for d in glob.glob(os.path.join(index_dir, "*", "gen=*")):
        s = d.rsplit("=", 1)[1]
        if s.isdigit() and int(s) not in gens:
            shutil.rmtree(d)
    gen = gens[-1] + 1
    write(gen)
    _stamp(os.path.join(index_dir, f"{_MARKER}.{gen}"))
    return gen


def generation_files(index_dir: str, sub: str,
                     parts: Optional[Sequence[str]] = None) -> list:
    """Files under ``index_dir/sub/gen=<g>/`` of the committed
    generations only, or only under the given partition dirs of each
    generation (``parts``, e.g. ``["bucket=3"]``: the pruned listing a
    lookup reads)."""
    return [f for g in committed_generations(index_dir)
            for part in (parts if parts is not None else [""])
            for f in sorted(glob.glob(os.path.join(
                index_dir, sub, f"gen={g}", part, "*")))
            if os.path.isfile(f)]


def json_cache(path: str, compute: Callable[[], Any]) -> Any:
    """JSON value cached at ``path`` (relative paths resolve under the
    oracle-cache root): read it if it holds valid JSON, else
    ``compute()`` it and write it through a tmp file and os.replace,
    so a reader never sees a half-written file; an unreadable or
    truncated file is recomputed."""
    path = os.path.join(_ORACLE_CACHE, path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        pass
    value = compute()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(value, fh)
    os.replace(tmp, path)
    return value


def input_key(table_path: str, *tags) -> str:
    """Cache key of an input table: md5 of its path, size, mtime and
    ``tags`` (the versions of what is derived from it), so a changed
    table or a bumped tag never reads a stale cache."""
    st = os.stat(table_path)
    raw = "|".join(map(str, (table_path, st.st_size, st.st_mtime_ns, *tags)))
    return hashlib.md5(raw.encode("utf-8")).hexdigest()[:12]


def input_cache_dir(name: str, table_path: str, *tags) -> str:
    """``/tmp/westa_<name>/<input_key>``: the cache directory of an
    output derived from ``table_path``."""
    return os.path.join(_CACHE_ROOT, f"westa_{name}",
                        input_key(table_path, *tags))


def read_text_lines_as_documents(path: str, id_prefix: str = "line") -> rd.Dataset:
    """Ingest plain text (one document per line, `ray.data.read_text`)
    into the engine's interleaved documents schema — deterministic doc
    ids derive from the line content hash, so the ingest is stable
    across block splits and reruns.

    Kept as ingestion surface, though no package code calls it: it is
    the flat-text entry MIGRATION.md gives callers porting a
    line-per-document corpus, and the pipeline's own input is never
    plain text."""
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
    (text span at offset 0, media span after it).

    Kept as ingestion surface, though no package code calls it: it is
    the API-payload entry MIGRATION.md names, and the reader for
    export_jsonl_shards' output, so an export can be fed back in."""
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
    single-text-span document.

    Kept as ingestion surface, though no package code calls it: a
    reference user's records arrive as CSV, and this is their one
    documented path into the interleaved schema."""
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


#: on-disk layout version of export_jsonl_shards; callers key their
#: cache dirs on it. v2: the manifest is a file in the export dir.
JSONL_EXPORT_FORMAT = 2


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
    commit_dir gives whole-export resume, and the manifest is written
    to ``_manifest.json`` before the marker, so a resumed call returns
    the committed manifest without reading the shards. Round-trips
    through read_jsonl_as_documents (Ray's readers skip ``_``-prefixed
    files). Returns the (shard, n_rows, path) manifest Dataset (already
    written when this returns)."""
    import uuid

    from .relops import exchange, per_key
    from .shards import shard_assign

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

    manifest_path = os.path.join(out_dir, "_manifest.json")

    def write(_: str) -> None:
        manifest = exchange(shard_assign(ds, num_shards, id_col), "shard",
                            per_key("shard", write_shard)).to_pandas()
        with open(manifest_path, "w") as f:
            json.dump(manifest.to_dict("records"), f)

    commit_dir(out_dir, write)
    with open(manifest_path) as f:
        return rd.from_pandas(pd.DataFrame(json.load(f)))


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
