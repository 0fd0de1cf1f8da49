"""Driver contract for the westa_ocr_ray engine.

The driver calls ray.init() itself before importing this module; nothing
here (or in the library) calls ray.init/ray.shutdown. Only bench.py,
scripts/, and the test fixture own a Ray session.

- entry(): flagship extraction pipeline on the smoke-tier interleaved
  fixture corpus (the input shape mandated by BASELINE.json.input_hint;
  synthesized deterministically — see westa_ocr_ray/fixtures.py).
- queries(): one entry per implemented operator/pipeline (SURVEY.md §2
  coverage map in westa_ocr_ray/queries.py docstring).
- oracle_sql(): DuckDB-runnable oracles for the SQL-expressible subset;
  the extraction pipelines' oracle is the single-process reference
  implementation asserted by `python -m pytest -x -q`
  (tests/test_pipeline_e2e.py span-sequence equality).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship extraction over (a) the smoke-tier interleaved fixture
    corpus and (b) /root/testdata/sf0.001/documents.parquet ingested
    into the same interleaved schema — one streaming pipeline over the
    union."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from westa_ocr_ray import fixtures
    from westa_ocr_ray.config import ExtractConfig
    from westa_ocr_ray.pipelines.extract import extract_dataset, read_documents

    corpus = read_documents(fixtures.ensure_corpus("smoke"))

    flat = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])

    def to_interleaved(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        n = t.num_rows
        texts = t.column("text")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        structs = pa.StructArray.from_arrays(
            [pa.array(["text"] * n), texts, pa.array([""] * n),
             pa.array(np.zeros(n, dtype=np.int32))],
            names=["kind", "text", "media_ref", "offset"])
        spans = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)), structs)
        ids = pa.array(["flat_" + str(i) for i in
                        t.column("doc_id").to_pylist()], type=pa.string())
        return pa.table({"doc_id": ids, "spans": spans})

    docs = corpus.union(flat.map_batches(to_interleaved, batch_format="pyarrow"))
    cfg = ExtractConfig(num_parts=8, extract_concurrency=4)
    return extract_dataset(docs, cfg)


def queries() -> dict[str, Callable[[str], Any]]:
    from westa_ocr_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from westa_ocr_ray.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
