"""Corpus-cleaning pipeline — the canonical training-data preprocessing
chain, composed from the engine's operators:

    quality filter (length / token thresholds)
      → exact dedup (content-hash first-wins)
      → [fuzzy dedup (MinHash-LSH + connected components)]
      → repetition filter (Gopher-style integer rule)
      → [benchmark decontamination (shared-shingle anti-join)]
      → shard manifest / hive-partitioned training-shard export

Each stage streams; the only shuffles are on derived keys (hashes).
"""

from __future__ import annotations

from typing import Optional, Sequence

import pandas as pd
import ray.data as rd

from .. import dedup
from ..relops import compact_blocks, semi_anti_filter_scalable
from ..text_analysis import _WORD_RE, _repetition_batch, repetition_filter


def quality_filter(ds: rd.Dataset, text_col: str = "text",
                   min_words: int = 5, min_chars: int = 30) -> rd.Dataset:
    """Keep docs passing basic quality thresholds (vectorized)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        n_words = df[text_col].str.findall(_WORD_RE).map(len)
        n_chars = df[text_col].str.len()
        return df[(n_words >= min_words) & (n_chars >= min_chars)]

    return ds.map_batches(fn, batch_format="pandas")


def dedup_exact_keep(ds: rd.Dataset, id_col: str = "doc_id",
                     text_col: str = "text",
                     cols: Optional[Sequence[str]] = None) -> rd.Dataset:
    """Drop exact duplicates, keeping the min-id doc per content hash
    (first-wins): an anti-join against the DROPPED-id dataset
    (dedup.exact_dup_ids), so nothing corpus-sized ever reaches the
    driver.

    ``cols`` is the schema hint forwarded to the anti-join so a lazy
    transformed input is not partially executed by a schema probe."""
    dropped = dedup.exact_dup_ids(ds, id_col=id_col, text_col=text_col)
    return semi_anti_filter_scalable(ds, id_col, dropped, key_col=id_col,
                                     anti=True, cols=cols)


def clean_corpus(ds: rd.Dataset, id_col: str = "doc_id", text_col: str = "text",
                 min_words: int = 5, min_chars: int = 30,
                 fuzzy: bool = False, jaccard_threshold: float = 0.8,
                 cols: Optional[Sequence[str]] = None) -> rd.Dataset:
    """The full chain; ``fuzzy=True`` adds MinHash-LSH near-dup removal
    (first-wins per connected component)."""
    out = quality_filter(ds, text_col=text_col, min_words=min_words,
                         min_chars=min_chars)
    out = dedup_exact_keep(out, id_col=id_col, text_col=text_col, cols=cols)
    if fuzzy:
        out = dedup.dedup_by_minhash(out, id_col=id_col, text_col=text_col,
                                     jaccard_threshold=jaccard_threshold)
    return out


def prep_funnel(ds: rd.Dataset, id_col: str = "doc_id",
                text_col: str = "text",
                bench: Optional[rd.Dataset] = None,
                min_words: int = 5, min_chars: int = 30,
                rep_tok_frac4: int = 4, rep_bg_frac8: int = 8,
                decont_n: int = 4) -> rd.Dataset:
    """Drop-reason ATTRIBUTION for the training-prep chain — the audit
    a production pipeline publishes alongside its cleaned corpus: for
    EVERY input doc, the first stage of
    quality → exact dedup → repetition → decontamination
    that drops it, or 'kept'. Same predicates as prepare_training_data
    (bit-compatible: funnel 'kept' ids == the chain's survivors), so a
    surprising survivor set is diagnosable per doc instead of by
    rerunning the chain stage by stage.

    Scale shape mirrors the chain itself: each stage's complement is
    captured as a small (id, reason) stream while survivors flow on —
    per-doc predicates (quality, repetition) are labeled in the same
    streaming pass that filters them, corpus-dependent predicates
    (dup ids, contaminated ids) are computed ONLY on the docs still
    alive at that stage, exactly like the chain. The output is a union
    of id streams; texts never leave the per-stage passes, the driver
    sees nothing.

    Returns (id, drop_reason) with drop_reason in
    {'quality','exact_dup','repetition','contaminated','kept'}.
    SQL twin: queries.ORACLE_SQL['prep_funnel']."""

    def label(reason: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({id_col: df[id_col].to_numpy(),
                                 "drop_reason": reason})
        return fn

    def q_tag(df: pd.DataFrame) -> pd.DataFrame:
        n_words = df[text_col].str.findall(_WORD_RE).map(len)
        n_chars = df[text_col].str.len()
        df = df[[id_col, text_col]].copy()
        df["__q"] = ((n_words >= min_words) & (n_chars >= min_chars)
                     ).to_numpy()
        return df

    rep_stats = _repetition_batch(id_col, text_col,
                                  rep_tok_frac4, rep_bg_frac8)

    def r_tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df[[id_col, text_col]].copy()
        df["__r"] = rep_stats(df)["keep"].to_numpy(dtype=bool)
        return df

    # consumed by the label branch AND the survivor branch
    tagged = compact_blocks(ds.map_batches(q_tag, batch_format="pandas")
                            .materialize())
    q_fail = (tagged.map_batches(lambda df: df[~df["__q"]],
                                 batch_format="pandas")
              .map_batches(label("quality"), batch_format="pandas"))
    s1 = compact_blocks(
        tagged.map_batches(lambda df: df[df["__q"]][[id_col, text_col]],
                           batch_format="pandas").materialize())

    # labeled AND anti-joined
    dup = dedup.exact_dup_ids(s1, id_col=id_col, text_col=text_col) \
        .materialize()
    dup_lab = dup.map_batches(label("exact_dup"), batch_format="pandas")
    s2 = semi_anti_filter_scalable(s1, id_col, dup, key_col=id_col,
                                   anti=True, cols=[id_col, text_col])
    s2 = compact_blocks(s2.map_batches(r_tag, batch_format="pandas")
                        .materialize())
    r_fail = (s2.map_batches(lambda df: df[~df["__r"]],
                             batch_format="pandas")
              .map_batches(label("repetition"), batch_format="pandas"))
    s3 = s2.map_batches(lambda df: df[df["__r"]][[id_col, text_col]],
                        batch_format="pandas")

    if bench is None:
        kept = s3.map_batches(label("kept"), batch_format="pandas")
        return q_fail.union(dup_lab, r_fail, kept)
    s3 = compact_blocks(s3.materialize())
    cont = dedup.contaminated_ids(s3, bench, n=decont_n, id_col=id_col,
                                  text_col=text_col).materialize()
    cont_lab = cont.map_batches(label("contaminated"), batch_format="pandas")
    kept = (semi_anti_filter_scalable(s3.select_columns([id_col]), id_col,
                                      cont, key_col=id_col, anti=True,
                                      cols=[id_col])
            .map_batches(label("kept"), batch_format="pandas"))
    return q_fail.union(dup_lab, r_fail, cont_lab, kept)


def prepare_training_data(ds: rd.Dataset, id_col: str = "doc_id",
                          text_col: str = "text",
                          bench: Optional[rd.Dataset] = None,
                          min_words: int = 5, min_chars: int = 30,
                          rep_tok_frac4: int = 4, rep_bg_frac8: int = 8,
                          decont_n: int = 4, fuzzy: bool = False,
                          jaccard_threshold: float = 0.8,
                          mixture_weights: Optional[dict] = None,
                          mixture_key: str = "lang",
                          epoch_factors: Optional[dict] = None,
                          cols: Optional[Sequence[str]] = None) -> rd.Dataset:
    """The full training-corpus preparation chain: [weighted mixture
    downsampling] → quality filter → exact dedup (scalable anti-join
    form) → [MinHash fuzzy dedup] → Gopher-style repetition filter →
    [benchmark decontamination against ``bench``] → [per-source epoch
    oversampling]. Returns the surviving docs with their input columns
    (plus ``epoch`` when oversampling); terminal layout is
    shards.shard_stats / export_training_shards.

    ``mixture_weights`` (source→ratio on ``mixture_key``) downsamples
    FIRST — the cheapest stage, so it shrinks everything downstream;
    ``epoch_factors`` replicates LAST so dedup/decontamination see each
    doc once. Both default off and are outside the SQL oracle, which
    gates the default chain.

    Every stage is a streaming map or a derived-key shuffle: texts move
    only through the exact-dedup and decontamination anti-joins, and
    the driver never sees a corpus-sized collection. Exactly
    SQL-expressible when ``fuzzy=False`` — the driver gate is
    queries.ORACLE_SQL['training_prep'].

    The chain materializes (and block-compacts) the two intermediates
    each anti-join stage consumes more than once (the quality-filtered
    input and the pre-decontamination survivors). A Ray Dataset is
    lazy, so WITHOUT that checkpoint every downstream
    branch re-executes the whole upstream chain — each dedup stage
    reads its input once for the dropped-id side and once for the
    anti-join, compounding over the chain; with it, each stage runs once
    (measured 138 s → ~25 s at sf0.1/32 cpus with the earlier
    Bloom-prefiltered anti-join, the compaction half of that win
    documented at relops.compact_blocks). The blocks live in
    the object store and spill to disk — the same durability point a
    production pipeline would write intermediate parquet at."""
    from .. import shards as shards_mod
    out = ds
    if mixture_weights is not None:
        out = shards_mod.mixture_sample(out, mixture_weights,
                                        key_col=mixture_key, id_col=id_col)
    out = compact_blocks(quality_filter(
        out, text_col=text_col, min_words=min_words,
        min_chars=min_chars).materialize())
    out = dedup_exact_keep(out, id_col=id_col, text_col=text_col, cols=cols)
    if fuzzy:
        out = dedup.dedup_by_minhash(out, id_col=id_col, text_col=text_col,
                                     jaccard_threshold=jaccard_threshold)
    out = repetition_filter(out, id_col=id_col, text_col=text_col,
                            max_tok_frac4=rep_tok_frac4,
                            max_bg_frac8=rep_bg_frac8)
    if bench is not None:
        out = compact_blocks(out.materialize())
        out = dedup.decontaminate(out, bench, n=decont_n, id_col=id_col,
                                  text_col=text_col, cols=cols)
    if epoch_factors is not None:
        out = shards_mod.epoch_oversample(out, epoch_factors,
                                          key_col=mixture_key)
    return out


def prepare_rag_chunks(ds: rd.Dataset, window: int = 32, stride: int = 24,
                       num_shards: int = 16, id_col: str = "doc_id",
                       text_col: str = "text", min_words: int = 5,
                       min_chars: int = 30,
                       cols: Optional[Sequence[str]] = None) -> rd.Dataset:
    """RAG-corpus preparation — the retrieval counterpart of
    prepare_training_data, composed end-to-end from the engine's own
    operators:

        quality filter → exact dedup (first-wins)
          → sliding-window token chunking (window/stride overlap)
          → deterministic chunk-level shard assignment
          → per-shard manifest aggregate

    Returns the (shard, n_chunks, sum_tokens) manifest a chunk-store
    loader sizes its readers from. The chunk shard key is
    md5(doc_id|chunk_idx) % num_shards — content-addressed like the
    doc-level export, so a chunk keeps its shard on any cluster shape
    and across reruns. Every stage streams; the only shuffles are the
    dedup anti-join machinery and the final num_shards-row aggregate.
    One composed DuckDB oracle covers the whole chain
    (queries.ORACLE_SQL['rag_prep'])."""
    import numpy as np

    from ..dedup import md5_hex
    from ..relops import partial_aggregate
    from ..text_analysis import chunk_tokens

    out = quality_filter(ds, text_col=text_col, min_words=min_words,
                         min_chars=min_chars)
    # the filtered intermediate feeds BOTH the dropped-id build and the
    # anti-join inside dedup_exact_keep — checkpoint it or the lazy
    # chain re-reads and re-filters the corpus per consumer (the same
    # re-execution prepare_training_data checkpoints against)
    out = compact_blocks(out.materialize())
    out = dedup_exact_keep(out, id_col=id_col, text_col=text_col, cols=cols)
    chunks = chunk_tokens(out, window=window, stride=stride,
                          id_col=id_col, text_col=text_col)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        sh = np.fromiter(
            (int(md5_hex(f"{d}|{c}")[:8], 16) % num_shards
             for d, c in zip(df[id_col], df["chunk_idx"])),
            dtype=np.int64, count=len(df))
        return pd.DataFrame({"shard": sh,
                             "n_tokens": df["n_tokens"].to_numpy(np.int64)})

    return partial_aggregate(chunks.map_batches(assign,
                                                batch_format="pandas"),
                             ["shard"],
                             {"n_chunks": ("count", None),
                              "sum_tokens": ("sum", "n_tokens")})
