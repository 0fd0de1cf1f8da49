"""Property test (SURVEY.md §5.2.5): for arbitrary corpus seeds, the
distributed pipeline equals the single-process oracle — the
distributed-equals-serial invariant beyond the fixed seed 42."""

import pyarrow as pa
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from westa_ocr_ray import fixtures, oracle
from westa_ocr_ray.config import ExtractConfig
from westa_ocr_ray.pipelines.extract import extract_dataset

N_DOCS = 30


def spans_key(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in spans]


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_pipeline_equals_oracle_for_any_seed(seed):
    table = fixtures.docs_table(seed, 0, N_DOCS)
    cfg = ExtractConfig(seed=seed, num_parts=4, extract_concurrency=2)
    got = sorted(extract_dataset(rd.from_arrow(table), cfg).take_all(),
                 key=lambda r: r["doc_id"])
    # oracle on the same rows (dedup first-wins on doc_id)
    seen, exp = set(), []
    mkeys = fixtures.master_keys(seed, "A")
    for i in range(N_DOCS):
        doc = fixtures.gen_doc_row(seed, i)
        if doc["doc_id"] in seen:
            continue
        seen.add(doc["doc_id"])
        exp.append(oracle.extract_doc(doc, seed, mkeys))
    exp.sort(key=lambda r: r["doc_id"])
    assert len(got) == len(exp)
    for g, e in zip(got, exp):
        assert g["doc_id"] == e["doc_id"]
        assert spans_key(g["spans"]) == spans_key(e["spans"]), g["doc_id"]
        assert g["status"] == e["status"]
        assert g["total_units"] == e["total_units"]


@given(st.text(alphabet="<>/aptdb \"'=x&!-\n0", max_size=300))
@settings(max_examples=300, deadline=None)
def test_fast_tokenizer_equivalent_or_falls_back(s):
    """Invariant: for ANY input string the fast HTML tokenizer either
    falls back to HTMLParser or produces the identical block structure —
    tag-soup must never silently diverge."""
    from westa_ocr_ray.extractors import _BlockCollector, _collect_blocks

    slow = _BlockCollector()
    slow.feed(s)
    slow.close()
    assert _collect_blocks(s).blocks == slow.blocks
