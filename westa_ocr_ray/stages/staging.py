"""Map-side external-shuffle staging — pandas-free on purpose: this
module is imported inside the extract task workers, and keeping the
import set to numpy+pyarrow keeps a cold worker's start cheap.

Storage seam (VERDICT r4 item 3): every stage-file IO — write, list,
read, wipe — can run through an explicit ``pyarrow.fs.FileSystem``
instead of the local OS. ``resolve_stage_fs`` turns a ``stage_root``
URI into a (filesystem, path) pair ONCE on the driver; the filesystem
object then ships (pickled) into the extract tasks and part reducers,
so multi-node clusters can point ``stage_root`` at shared storage
(``s3://…``, ``hdfs://…``, or any scheme registered via
``register_stage_fs``) without the workers needing local visibility of
the driver's paths. Plain paths keep the zero-overhead os/shutil fast
path (fs=None) for node-local scratch like /dev/shm."""

from __future__ import annotations

import os
import uuid
from typing import Callable, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST_SCHEMA = pa.schema([("part", pa.int32()), ("rows", pa.int64())])

# scheme -> callable(uri) -> (FileSystem, path-within-fs). Consulted by
# resolve_stage_fs before pyarrow's own FileSystem.from_uri — lets
# deployments (and tests) mount custom shared filesystems, e.g. a
# SubTreeFileSystem standing in for a cluster NFS mount.
_FS_FACTORIES: dict = {}


def register_stage_fs(scheme: str, factory: Callable) -> None:
    _FS_FACTORIES[scheme] = factory


def resolve_stage_fs(root: str) -> Tuple[Optional[object], str]:
    """stage_root string → (filesystem, path). Plain paths return
    (None, path): the os fast path. URIs resolve through the registry,
    then pyarrow.fs.FileSystem.from_uri (file://, s3://, hdfs://, …)."""
    if "://" not in root:
        return None, root
    scheme = root.split("://", 1)[0]
    if scheme in _FS_FACTORIES:
        return _FS_FACTORIES[scheme](root)
    import pyarrow.fs as pafs

    return pafs.FileSystem.from_uri(root)


def _stage_codec(stage_dir: str, fs) -> Optional[str]:
    """Codec tradeoff, measured (scripts/stage_codec_sweep.py, 597k docs
    @32cpu): none 32.6 s, snappy 34.4 s, zstd 37.9 s — on RAM-backed
    scratch the encode CPU outweighs the IO saved, while on real
    network storage the bytes moved dominate and zstd wins. Auto:
    uncompressed on /dev/shm, snappy on other local paths, zstd on any
    explicit (shared/remote) filesystem; WESTA_STAGE_CODEC overrides."""
    codec = os.environ.get("WESTA_STAGE_CODEC")
    if codec is None:
        if fs is not None:
            codec = "zstd"
        elif stage_dir.startswith("/dev/shm"):
            codec = "none"
        else:
            codec = "snappy"
    return None if codec == "none" else codec


def stage_write_table(t: pa.Table, stage_dir: str, fs=None) -> pa.Table:
    """Write one stage file for this table: rows sorted by `part`, one
    row group per partition. Exactly one partition per row group is a
    contract, not a hint: the reducer indexes row groups by the `part`
    footer statistics and raises ValueError on a row group that holds
    none or several (stages/reassemble._index_stage_files). A very
    large partition may span several row groups; each still holds that
    one partition. Returns the (part, rows) manifest. ``fs``: optional
    pyarrow.fs.FileSystem for shared/remote staging (stage_dir is then
    a path WITHIN that filesystem)."""
    if t.num_rows == 0:
        return MANIFEST_SCHEMA.empty_table()
    t = t.combine_chunks()
    parts = t.column("part").to_numpy()
    order = np.argsort(parts, kind="stable")
    t = t.take(pa.array(order, type=pa.int64()))
    sorted_parts = parts[order]
    uniq, starts = np.unique(sorted_parts, return_index=True)
    bounds = np.append(starts, len(sorted_parts))
    fname = f"{os.getpid()}-{uuid.uuid4().hex[:12]}.parquet"
    codec = _stage_codec(stage_dir, fs)
    if fs is None:
        os.makedirs(stage_dir, exist_ok=True)
        tmp = os.path.join(stage_dir, "." + fname)
        sink = tmp
    else:
        fs.create_dir(stage_dir, recursive=True)
        tmp = stage_dir.rstrip("/") + "/." + fname
        sink = fs.open_output_stream(tmp)
    # statistics on `part` only: the reducer reads no other (and no
    # dictionary: the columns are mostly unique text and payload refs)
    writer = pq.ParquetWriter(sink, t.schema, compression=codec,
                              use_dictionary=False, write_statistics=["part"])
    for i in range(len(uniq)):
        writer.write_table(t.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i])))
    writer.close()
    if fs is None:
        os.replace(tmp, os.path.join(stage_dir, fname))
    else:
        if hasattr(sink, "close"):
            sink.close()
        # dot-prefixed tmp + move: reducers skip dot-files, so a
        # partially written stage file is never read even on stores
        # where move is copy+delete rather than an atomic rename
        fs.move(tmp, stage_dir.rstrip("/") + "/" + fname)
    return pa.table({"part": pa.array(uniq, type=pa.int32()),
                     "rows": pa.array((bounds[1:] - bounds[:-1]).astype(np.int64),
                                      type=pa.int64())})


def list_stage_files(stage_dir: str, fs=None) -> list:
    """Visible (non-dot) stage parquet files, sorted — through the same
    filesystem seam the writers used."""
    if fs is None:
        if not os.path.isdir(stage_dir):
            return []
        return sorted(os.path.join(stage_dir, f) for f in os.listdir(stage_dir)
                      if f.endswith(".parquet") and not f.startswith("."))
    import pyarrow.fs as pafs

    sel = pafs.FileSelector(stage_dir, allow_not_found=True)
    return sorted(i.path for i in fs.get_file_info(sel)
                  if i.base_name.endswith(".parquet")
                  and not i.base_name.startswith("."))


def wipe_stage_dir(stage_dir: str, fs=None) -> None:
    if fs is None:
        import shutil

        shutil.rmtree(stage_dir, ignore_errors=True)
        return
    try:
        fs.delete_dir(stage_dir)
    except (FileNotFoundError, OSError):
        pass
