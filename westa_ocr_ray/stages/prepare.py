"""Prepare stage: resolve media refs and split multi-page payloads into
per-page work units (reference FileFetcher.fetch app/file_fetcher.py:106-133
+ split_pdf app/pdf_utils.py:23-36 — 1-based page index, per-page
re-serialization).

Text-ish rows pass through untouched (page_idx stays 0). Media rows
fan out to one row per page — the unit of work for the OCR model,
mirroring the reference's page-task fan-out (app/worker.py:284-286) so
a 40-page pdf never serializes one worker.

Fetch/split failures are recorded in the `error` column, not raised
(initial-failure path, app/worker.py:798-823): the doc still yields a
summary row with the error message.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

from .. import extractors, fixtures


def make_prepare(seed: int = fixtures.DEFAULT_SEED,
                 store: Callable[[str], bytes] | None = None) -> Callable[[pa.Table], pa.Table]:
    fetch = store or (lambda ref: fixtures.media_store(ref, seed))

    def prepare(batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_numpy(zero_copy_only=False)
        is_media = np.isin(kinds, ("pdf", "image"))
        if not is_media.any():
            return batch
        passthrough = batch.filter(pa.array(~is_media))
        media = batch.filter(pa.array(is_media))

        refs = media.column("media_ref").to_pylist()
        # per-row python here is the IO analog (fetch+split), media rows only
        take_idx: list[int] = []
        page_idx: list[int] = []
        payloads: list[bytes | None] = []
        errors: list[str] = []
        for i, ref in enumerate(refs):
            try:
                blobs = extractors.split_payload(fetch(ref))
            except (extractors.MediaFormatError, OSError) as exc:
                take_idx.append(i)
                page_idx.append(1)
                payloads.append(None)
                errors.append(f"media split failed: {exc}")
                continue
            for p, blob in enumerate(blobs, start=1):
                take_idx.append(i)
                page_idx.append(p)
                payloads.append(blob)
                errors.append("")

        exploded = media.take(pa.array(take_idx, type=pa.int64()))
        cols = {name: exploded.column(name) for name in exploded.column_names}
        cols["page_idx"] = pa.array(page_idx, type=pa.int32())
        cols["payload"] = pa.array(payloads, type=pa.binary())
        cols["error"] = pa.array(errors, type=pa.string())
        out = pa.table(cols)
        if passthrough.num_rows == 0:
            return out
        return pa.concat_tables([passthrough, out]).combine_chunks()

    return prepare
