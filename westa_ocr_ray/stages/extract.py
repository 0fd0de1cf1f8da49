"""Extraction stage: the model, run as tasks of the fused phase-1 chain.

One instance is built on the driver and passed to ``map_batches``; Ray
Data treats a callable object as a function, so the instance ships
pickled inside each task (read → explode → prepare → ExtractModel →
stage write) and runs on the warm task-worker pool. The operator is
still named ``MapBatches(ExtractModel)``. This is the reference's
one-client-many-calls shape (GeminiClient, app/gemini.py:32-35: a lazily
built client that costs nothing to construct) with the deterministic
simulation branch (gemini.py:62-75) as the semantic anchor: output is a
pure function of (unit payload, config, masters).

Every ``map_batches`` stage in the package runs this way — an instance
or a closure built on the driver, never a class — so the package has
no actor pool. Ray Data puts a map operator's function in the object
store once per stage, so whatever the instance holds (query matrices,
centroids, a join's small side) ships once, never per batch. An actor
pool would be right only for a model whose per-task cost of unpickling
the instance exceeds an actor start: an actor never runs on a warm
task worker and its process exits with its pool, so every run pays a
fresh Python process plus imports per actor — about 2 s on a 4-vCPU
VM. Constructing ExtractModel only sorts ~20 master keys.

Usage:
    model = ExtractModel(masters=master_key_list)   # built once, on the driver
    ds.map_batches(model, batch_format="pyarrow")  # concurrency=N caps tasks
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import pyarrow as pa

from .. import extractors

MODEL_VERSION = "sim-ocr-v1"  # recorded in lineage; analog of meta.model (gemini.py:129-135)


class ExtractModel:
    def __init__(self, masters: Optional[Sequence[str]] = None,
                 stage_dir: Optional[str] = None,
                 chaos_crash_marker: Optional[str] = None,
                 stage_fs=None) -> None:
        # fault-injection seam (ExtractConfig.chaos_crash_marker): when
        # set, the first batch hard-kills its worker process once.
        self.chaos_crash_marker = chaos_crash_marker
        # broadcast small side (J1): tiny, so it ships inside the instance
        self.masters: List[str] = sorted(masters) if masters else []
        # stage_dir: when set, this task also performs the map side of
        # the external shuffle (writes its output as a per-partition
        # row-grouped stage file and returns the tiny manifest instead) —
        # fusing staging here avoids a separate task stage, its extra
        # worker processes, and an object-store round trip.
        # stage_fs: optional pyarrow.fs.FileSystem (resolved once on the
        # driver from a stage_root URI, pickled with this instance)
        # for shared/remote staging — see stages/staging.py.
        self.stage_dir = stage_dir
        self.stage_fs = stage_fs

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.chaos_crash_marker is not None:
            import os as _os
            if not _os.path.exists(self.chaos_crash_marker):
                with open(self.chaos_crash_marker, "w"):
                    pass
                _os._exit(1)  # hard kill: no exception path, no cleanup
        kinds = batch.column("kind").to_pylist()
        texts = batch.column("text").to_pylist()
        payloads = batch.column("payload").to_pylist()
        pre_errors = batch.column("error").to_pylist()
        span_idx = batch.column("span_idx").to_pylist()

        out_text: List[str] = []
        out_content: List[bool] = []
        out_error: List[str] = []
        out_hit: List[bool] = []
        for kind, text, payload, pre_err, sidx in zip(kinds, texts, payloads, pre_errors, span_idx):
            if sidx < 0:  # empty-doc sentinel row: passthrough
                out_text.append("")
                out_content.append(False)
                out_error.append("")
                out_hit.append(False)
                continue
            if pre_err:
                out_text.append("")
                out_content.append(False)
                out_error.append(pre_err)
                out_hit.append(False)
                continue
            t, is_content, err = extractors.extract_unit(kind, text, payload)
            out_text.append(t)
            out_content.append(is_content)
            out_error.append(err)
            out_hit.append(bool(t) and any(k in t for k in self.masters))

        out = pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "part": batch.column("part"),
                "span_idx": batch.column("span_idx"),
                "page_idx": batch.column("page_idx"),
                "kind": batch.column("kind"),
                "media_ref": batch.column("media_ref"),
                "offset": batch.column("offset"),
                "text": pa.array(out_text, type=pa.string()),
                "is_content": pa.array(out_content, type=pa.bool_()),
                "error": pa.array(out_error, type=pa.string()),
                "master_hit": pa.array(out_hit, type=pa.bool_()),
            }
        )
        if self.stage_dir is not None:
            from .staging import stage_write_table

            return stage_write_table(out, self.stage_dir, fs=self.stage_fs)
        return out
