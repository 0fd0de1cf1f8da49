"""Arrow schemas for the engine's logical tables.

The input shape is mandated by BASELINE.json.input_hint: a table of
interleaved text+media documents
(doc_id:string, spans:list<struct<kind,text,media_ref,offset:int32>>).

The reference's fixed Pydantic/SQLite schemas (app/models.py:55-67,
app/repository.py:47-97) become explicit pyarrow schemas; its
JSON-in-TEXT nesting becomes real Arrow struct/list types.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------- input
SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),       # "html" | "text" | "pdf" | "image"
        ("text", pa.string()),       # inline content for html/text; "" for media
        ("media_ref", pa.string()),  # payload locator for pdf/image; "" for text-ish
        ("offset", pa.int32()),      # char offset in the interleaved doc, strictly increasing
    ]
)

DOCUMENTS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# ------------------------------------------------------------ output
EXTRACTED_SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("order", pa.int32()),  # 0-based position in the final merged per-doc sequence
    ]
)

RESULT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("part", pa.int32()),
        ("spans", pa.list_(EXTRACTED_SPAN_STRUCT)),
        # per-doc summary counters (reference worker.py:453-505 / JOB_SUMMARY)
        ("total_units", pa.int32()),
        ("processed", pa.int32()),
        ("skipped", pa.int32()),
        ("errors", pa.int32()),
        ("error_messages", pa.string()),  # "; ".join(...) (worker.py:489)
        ("master_hits", pa.int32()),
        ("status", pa.string()),          # DONE | ERROR (models.py:12-18 subset)
    ]
)
