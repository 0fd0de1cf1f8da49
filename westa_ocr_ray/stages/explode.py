"""Explode stage: documents → one row per span (vectorized, zero-copy
Arrow). The flat-map analog of the reference's doc→page fan-out
(app/worker.py:284-286) at span granularity; page fan-out happens in the
prepare stage once payloads are readable.

Zero-span docs emit a sentinel row (span_idx = -1) so the doc still
yields a summary row downstream (reference zero-page short-circuit,
app/worker.py:236-254).
"""

from __future__ import annotations

from typing import Callable, Optional, Set

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_SIZE_CLASS = {"text": 0, "html": 1, "image": 1, "pdf": 2}

#: version of the doc→partition assignment rule. Markers written by a
#: run record this (pipelines/extract.py); a resume against markers
#: from a DIFFERENT version restarts from scratch instead of mixing
#: two partition meanings. v1 = per-row zlib.crc32 (rounds 1-3);
#: v2 = vectorized pd.util.hash_pandas_object (siphash with the fixed
#: pandas key — process- and platform-stable, C-speed per batch).
ASSIGN_VERSION = 2


def part_of_batch(doc_ids, num_parts: int) -> np.ndarray:
    """Vectorized stable output-partition assignment (ASSIGN_VERSION 2):
    one siphash kernel over the whole batch — process-independent
    (resume markers must mean the same thing across runs), no per-row
    Python. Accepts any sequence/Series of doc-id strings."""
    s = doc_ids if isinstance(doc_ids, pd.Series) else pd.Series(
        doc_ids, dtype=object)
    h = pd.util.hash_pandas_object(s, index=False).to_numpy(dtype=np.uint64)
    return (h % np.uint64(num_parts)).astype(np.int32)


def part_of(doc_id: str, num_parts: int) -> int:
    """Scalar convenience twin of part_of_batch (tests, spot checks)."""
    return int(part_of_batch([doc_id], num_parts)[0])


def make_explode(num_parts: int,
                 skip_parts: Optional[Set[int]] = None) -> Callable[[pa.Table], pa.Table]:
    """Build the explode batch fn. ``skip_parts`` is the resume anti-join:
    rows whose partition already has a completion marker are dropped at
    the earliest possible stage (reference list_pending_jobs WHERE status
    filter, app/repository.py:291-306)."""
    skip = frozenset(skip_parts or ())

    def explode(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        doc_ids = batch.column("doc_id")
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        if isinstance(doc_ids, pa.ChunkedArray):
            doc_ids = doc_ids.combine_chunks()

        parts = part_of_batch(doc_ids.to_pandas(), num_parts)

        flat = pc.list_flatten(spans)                      # struct array of all spans
        parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lengths = offsets[1:] - offsets[:-1]
        span_idx = (np.arange(len(flat), dtype=np.int64) - offsets[:-1][parent]).astype(np.int32)

        kind = flat.field("kind")
        out = pa.table(
            {
                "doc_id": pc.take(doc_ids, pa.array(parent)),
                "part": pa.array(parts[parent], type=pa.int32()),
                "span_idx": pa.array(span_idx),
                "page_idx": pa.array(np.zeros(len(flat), dtype=np.int32)),
                "kind": kind,
                "media_ref": flat.field("media_ref"),
                "offset": flat.field("offset"),
                "payload": pa.array([None] * len(flat), type=pa.binary()),
                "text": flat.field("text"),
                "error": pa.array([""] * len(flat), type=pa.string()),
            }
        )

        empty = np.flatnonzero(lengths == 0)
        if len(empty):
            n = len(empty)
            sentinel = pa.table(
                {
                    "doc_id": pc.take(doc_ids, pa.array(empty)),
                    "part": pa.array(parts[empty], type=pa.int32()),
                    "span_idx": pa.array(np.full(n, -1, dtype=np.int32)),
                    "page_idx": pa.array(np.zeros(n, dtype=np.int32)),
                    "kind": pa.array([""] * n),
                    "media_ref": pa.array([""] * n),
                    "offset": pa.array(np.zeros(n, dtype=np.int32)),
                    "payload": pa.array([None] * n, type=pa.binary()),
                    "text": pa.array([""] * n),
                    "error": pa.array([""] * n),
                }
            )
            out = pa.concat_tables([out, sentinel]).combine_chunks()

        if skip:
            mask = np.isin(out.column("part").to_numpy(), np.fromiter(skip, dtype=np.int32),
                           invert=True)
            out = out.filter(pa.array(mask))
        return out

    return explode
