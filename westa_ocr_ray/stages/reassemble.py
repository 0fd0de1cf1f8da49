"""Reassembly stage: per-partition merge-by-offset + per-doc summary.

This is the one shuffle the pipeline needs (north rule: groupby-doc_id
shuffle before span reassembly). We group by the output partition
(`part` = crc32(doc_id) % P) rather than doc_id itself: every doc's
units land in exactly one group, groups are few and bounded, and the
group boundary doubles as the resumable-output / lineage boundary.

Within a partition (vectorized: one sort + numpy boundary math — no
per-row python):
- stable sort by (doc_id, offset, span_idx, page_idx) — the ordered
  reassembly contract (reference repository.py:384-394 ORDER BY
  page_index; FIXTURES.md merge rule),
- first-wins dedup on (doc_id, span_idx, page_idx) — duplicate intake
  rows collapse (reference idempotency, app/main.py:157-188,
  repository.py:256-262 upsert),
- content units get order = 0..n-1 per doc; sentinel/empty units are
  skipped; error units recorded and "; "-joined (worker.py:479-494),
- per-doc counters — the JOB_SUMMARY aggregate (worker.py:697-747).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schema import RESULT_SCHEMA

_UNIT_COLS = ["doc_id", "part", "span_idx", "page_idx", "kind", "media_ref",
              "offset", "text", "is_content", "error", "master_hit"]


def _arr(col) -> pa.Array:
    """ChunkedArray → contiguous Array (no-op for Arrays)."""
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 1:
            return col.chunk(0)
        if col.num_chunks == 0:
            return pa.array([], type=col.type)
        return col.combine_chunks()
    return col


def reassemble_partition(t: pa.Table) -> pa.Table:
    """One output partition of extracted units → RESULT_SCHEMA rows.

    Pure Arrow/numpy on purpose: text columns never materialize as
    python objects (a pandas version of this function was the pipeline's
    single most expensive stage — string boxing dominated)."""
    if t.num_rows == 0:
        return RESULT_SCHEMA.empty_table()
    t = t.select(_UNIT_COLS).combine_chunks()

    doc_dict = pc.dictionary_encode(_arr(t.column("doc_id")))
    codes = doc_dict.indices.to_numpy().astype(np.int64)
    doc_names = doc_dict.dictionary  # StringArray, unique doc ids
    span_idx = t.column("span_idx").to_numpy()
    page_idx = t.column("page_idx").to_numpy()
    offset = t.column("offset").to_numpy()

    # stable sort by (doc, offset, span_idx, page_idx) — the reassembly
    # contract (reference repository.py:384-394 ORDER BY page_index)
    order = np.lexsort((page_idx, span_idx, offset, codes))
    codes_s = codes[order]
    span_s = span_idx[order]
    page_s = page_idx[order]

    # first-wins dedup on (doc, span_idx, page_idx): duplicate intake rows
    # are identical in all sort keys, hence adjacent after the sort
    if len(order) > 1:
        dup = ((codes_s[1:] == codes_s[:-1]) & (span_s[1:] == span_s[:-1])
               & (page_s[1:] == page_s[:-1]))
        keep = np.concatenate([[True], ~dup])
    else:
        keep = np.ones(1, dtype=bool)
    order = order[keep]
    codes_s = codes_s[keep]
    span_s = span_s[keep]
    take = pa.array(order, type=pa.int64())

    err = pc.not_equal(pc.take(t.column("error"), take), "").to_numpy(zero_copy_only=False)
    is_content = pc.take(t.column("is_content"), take).to_numpy(zero_copy_only=False)
    has_text = pc.not_equal(pc.take(t.column("text"), take), "").to_numpy(zero_copy_only=False)
    master_hit = pc.take(t.column("master_hit"), take).to_numpy(zero_copy_only=False)
    real_unit = span_s >= 0
    content = (~err) & is_content & has_text & real_unit
    skipped = real_unit & (~err) & (~content)

    # --- per-doc boundaries (codes_s is sorted) --------------------------
    n_docs = len(doc_names)
    starts = np.searchsorted(codes_s, np.arange(n_docs), side="left").astype(np.int64)
    bounds = np.append(starts, len(codes_s))

    def per_doc_sum(mask: np.ndarray) -> np.ndarray:
        cum = np.concatenate([[0], np.cumsum(mask.astype(np.int64))])
        return (cum[bounds[1:]] - cum[bounds[:-1]]).astype(np.int32)

    total_units = per_doc_sum(real_unit)
    processed = per_doc_sum(content)
    skipped_c = per_doc_sum(skipped)
    errors_c = per_doc_sum(err)
    hits_c = per_doc_sum(content & master_hit)

    # error messages: rare rows — python only over the error subset
    error_messages = [""] * n_docs
    if err.any():
        err_idx = np.flatnonzero(err)
        err_texts = pc.take(pc.take(t.column("error"), take),
                            pa.array(err_idx, type=pa.int64())).to_pylist()
        acc: dict = {}
        for i, txt in zip(codes_s[err_idx], err_texts):
            acc.setdefault(int(i), []).append(txt)
        for i, msgs in acc.items():
            error_messages[i] = "; ".join(msgs)

    status = np.where(errors_c > 0, "ERROR", "DONE")
    part_val = int(t.column("part")[0].as_py())

    # --- per-doc span lists (content rows, already in final order) -------
    ct_positions = np.flatnonzero(content)
    ct_take = pa.array(order[ct_positions], type=pa.int64())
    ct_codes = codes_s[ct_positions]
    lo = np.searchsorted(ct_codes, np.arange(n_docs), side="left").astype(np.int64)
    cb = np.append(lo, len(ct_codes))
    counts = cb[1:] - cb[:-1]
    span_offsets = pa.array(cb, type=pa.int32())
    order_arr = (np.arange(len(ct_codes), dtype=np.int64)
                 - np.repeat(lo, counts)).astype(np.int32)

    structs = pa.StructArray.from_arrays(
        [
            _arr(pc.take(t.column("kind"), ct_take)),
            _arr(pc.take(t.column("text"), ct_take)),
            _arr(pc.take(t.column("media_ref"), ct_take)),
            pa.array(order_arr, type=pa.int32()),
        ],
        names=["kind", "text", "media_ref", "order"],
    )
    spans = pa.ListArray.from_arrays(span_offsets, structs)

    return pa.table(
        {
            "doc_id": doc_names,
            "part": pa.array(np.full(n_docs, part_val, dtype=np.int32)),
            "spans": spans,
            "total_units": pa.array(total_units, type=pa.int32()),
            "processed": pa.array(processed, type=pa.int32()),
            "skipped": pa.array(skipped_c, type=pa.int32()),
            "errors": pa.array(errors_c, type=pa.int32()),
            "error_messages": pa.array(error_messages, type=pa.string()),
            "master_hits": pa.array(hits_c, type=pa.int32()),
            "status": pa.array(status, type=pa.string()),
        }
    )


_EMPTY_MARKERS = {
    "part": pa.array([], type=pa.int32()),
    "docs": pa.array([], type=pa.int64()),
    "spans": pa.array([], type=pa.int64()),
    "errors": pa.array([], type=pa.int64()),
    "wall_ms": pa.array([], type=pa.int64()),
}


def _commit_partition(result: pa.Table, part: int, units_in: int, out_dir: str,
                      attempt: int, t0: float) -> dict:
    """Atomically write one output partition + its marker + lineage
    (SURVEY.md §4.4 — the Arrow-world UPSERT-then-status-flip,
    reference repository.py:256-262 + worker.py:487-494). The marker is
    renamed into place only after the data file is durable, so a `.done`
    check is always safe."""
    for d in ("extracted", "_markers", "lineage"):
        os.makedirs(os.path.join(out_dir, d), exist_ok=True)
    final = os.path.join(out_dir, "extracted", f"part-{part:05d}.parquet")
    tmp = final + f".tmp.{os.getpid()}"
    pq.write_table(result, tmp)
    os.replace(tmp, final)  # atomic on POSIX

    n_docs = result.num_rows
    n_spans = int(pa.compute.sum(result.column("processed")).as_py() or 0)
    n_err = int(pa.compute.sum(result.column("errors")).as_py() or 0)
    wall_ms = int((time.perf_counter() - t0) * 1000)

    lineage = {
        "part": part, "attempt": attempt, "docs": n_docs, "spans": n_spans,
        "errors": n_err, "units_in": units_in, "wall_ms": wall_ms,
        "model_version": "sim-ocr-v1",
    }
    with open(os.path.join(out_dir, "lineage", f"part-{part:05d}.jsonl"), "a") as fh:
        fh.write(json.dumps(lineage) + "\n")
    marker_tmp = os.path.join(out_dir, "_markers", f"part-{part:05d}.tmp.{os.getpid()}")
    marker = {"part": part, "rows": n_docs, "spans": n_spans,
              "errors": n_err, "wall_ms": wall_ms, "attempt": attempt}
    with open(marker_tmp, "w") as fh:
        json.dump(marker, fh)
    os.replace(marker_tmp, os.path.join(out_dir, "_markers", f"part-{part:05d}.done"))
    return marker


def _marker_table(markers: list) -> pa.Table:
    if not markers:
        return pa.table(_EMPTY_MARKERS)
    return pa.table({
        "part": pa.array([m["part"] for m in markers], type=pa.int32()),
        "docs": pa.array([m["rows"] for m in markers], type=pa.int64()),
        "spans": pa.array([m["spans"] for m in markers], type=pa.int64()),
        "errors": pa.array([m["errors"] for m in markers], type=pa.int64()),
        "wall_ms": pa.array([m["wall_ms"] for m in markers], type=pa.int64()),
    })


# ------------------------------------------- external (staged) shuffle
#
# Ray Data's sort-based groupby is an all-to-all barrier with a high
# constant factor in local mode (measured: slower at 32 CPUs than 8 on
# this corpus — see BASELINE.md). Since the partition id is already a
# column (`part`), the exchange can be a classic external shuffle
# instead: each map task writes one stage file whose row groups are
# its partitions' fragments (staging.stage_write_table), then one wave
# of embarrassingly parallel reduce tasks — one per reducer slot, each
# owning a contiguous run of partitions — reads each partition's
# fragments, reassembles, and commits it. No barrier beyond the phase
# boundary (which the marker protocol needs anyway), and both phases
# stream/scale.


def _index_stage_files(files: list, stage_fs) -> dict:
    """Open each stage file once and index its row groups by partition:
    part -> [(ParquetFile, row group)], in file then row-group order.

    The stage writer puts exactly one partition in each row group
    (staging.stage_write_table), so the ``part`` column's footer
    statistics name it. A row group without statistics, or whose min
    differs from its max, breaks that contract: raise ValueError
    naming the file and row group rather than commit a wrong split.
    Everything is indexed before any partition commits, so a malformed
    file fails the task with nothing committed."""
    index: dict = {}
    for f in files:
        try:
            pf = pq.ParquetFile(f, filesystem=stage_fs)
        except pa.ArrowInvalid as exc:
            raise ValueError(f"stage file {f}: unreadable ({exc})") from exc
        meta = pf.metadata
        col = [meta.schema.column(i).path
               for i in range(meta.num_columns)].index("part")
        for rg in range(meta.num_row_groups):
            stats = meta.row_group(rg).column(col).statistics
            has = stats is not None and stats.has_min_max
            if has and stats.min == stats.max:
                index.setdefault(int(stats.min), []).append((pf, rg))
                continue
            found = f"parts {stats.min}..{stats.max}" if has else "no part statistics"
            raise ValueError(f"stage file {f}: row group {rg} has {found}, "
                             "not exactly one partition")
    return index


def make_part_reducer(stage_dir: str, out_dir: str, attempt: int = 0,
                      keep_units: bool = False,
                      stop_file: str = None,
                      stage_fs=None) -> Callable[[pa.Table], pa.Table]:
    """Reduce a run of partitions (one batch = one task's run): list
    the stage files and open each ONCE per task, indexing its row
    groups by partition from the ``part`` footer statistics (see
    ``_index_stage_files``); the handles stay open until the task
    ends. Then for each partition read just its row groups through
    those handles, reassemble, commit. Only one partition is held in
    memory at a time, and the drain and marker granularity stay per
    partition, whatever the run length. On a multi-node cluster stage
    files would be bucketed per node-group; the read pattern is
    unchanged.

    Retry-idempotent: a partition whose ``_markers/part-XXXXX.done``
    already exists returns the stored marker without re-reading or
    re-committing. Within one run, such a marker can only come from an
    earlier try of the same task (the run's partitions exclude those
    committed before it started), so a retried task never appends a
    second lineage line for what its failed try committed.

    ``keep_units`` also persists the per-unit rows (the reference's
    PAGE_RESULT event granularity, app/worker.py:633-687: one row per
    page/unit with raw text, error, flags) as units/part-XXXXX.parquet,
    atomically, covered by the same completion marker.

    ``stop_file``: cooperative-cancel seam (ExtractConfig.stop_file,
    reference worker.py:303-310 per-page stop checks) — checked BEFORE
    each partition's reduce; once the file exists, this reducer commits
    nothing further and the unprocessed partitions stay resumable.

    ``stage_fs``: optional pyarrow.fs.FileSystem the stage files were
    written through (shared/remote staging); listing and reads go
    through the same seam."""

    def reduce_parts(batch: pa.Table) -> pa.Table:
        from .staging import list_stage_files

        markers = []
        index = _index_stage_files(list_stage_files(stage_dir, fs=stage_fs),
                                   stage_fs)
        for part in batch.column("part").to_pylist():
            done = os.path.join(out_dir, "_markers", f"part-{part:05d}.done")
            if os.path.exists(done):
                # committed by an earlier try of this task
                with open(done) as fh:
                    markers.append(json.load(fh))
                continue
            if stop_file is not None and os.path.exists(stop_file):
                break  # drain: leave this and later parts uncommitted
            t0 = time.perf_counter()
            # use_threads=False: each reducer is one Ray task on one
            # CPU — per-task arrow threadpools would nest-thrash
            pieces = [pf.read_row_group(rg, use_threads=False)
                      for pf, rg in index.get(part, ())]
            t = pa.concat_tables(pieces) if pieces else None
            if t is None or t.num_rows == 0:
                result = RESULT_SCHEMA.empty_table()
                units_in = 0
            else:
                result = reassemble_partition(t)
                units_in = t.num_rows
            if keep_units and t is not None and t.num_rows:
                udir = os.path.join(out_dir, "units")
                os.makedirs(udir, exist_ok=True)
                ufinal = os.path.join(udir, f"part-{part:05d}.parquet")
                utmp = ufinal + f".tmp.{os.getpid()}"
                pq.write_table(t, utmp)
                os.replace(utmp, ufinal)
            markers.append(_commit_partition(result, part, units_in,
                                             out_dir, attempt, t0))
        return _marker_table(markers)

    return reduce_parts
