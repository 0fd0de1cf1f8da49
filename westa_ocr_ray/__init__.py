"""westa_ocr_ray — a Ray-Data-native document-extraction engine.

A from-scratch rebuild of the dataflow computed by the reference
(`ryunosuke0305/westa-ocr`, snapshot at /root/reference): interleaved
text+media documents are exploded into spans, media spans are split into
per-page units (reference app/pdf_utils.py:23-36), a stateful extraction
model turns each unit into text (reference app/gemini.py:46-136 with the
deterministic simulation branch gemini.py:62-75 as the semantic anchor),
and per-document span sequences are reassembled in deterministic order
(reference app/repository.py:384-394 ORDER BY page_index) with per-doc
summary counters (reference app/worker.py:425-505).

Everything is expressed Ray-Data-first: `ray.data.Dataset` pipelines of
`map_batches` over Arrow batches, actor pools for stages with costly
per-worker state, and a
single `groupby` shuffle for reassembly. See SURVEY.md for the full
operator mapping.
"""

__version__ = "0.1.0"
