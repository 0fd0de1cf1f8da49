"""Full-text relevance search over a document corpus: distributed BM25
(Robertson & Sparck Jones' Okapi BM25 — public algorithm, standard
formulation) — the retrieval half of corpus curation (find the docs most
relevant to a probe query, e.g. for targeted decontamination or
eval-set mining).

Scale shape (100 TB framing):
- one vectorized map over the corpus computes per-doc (dl, tf per term,
  hit indicators) — text is read ONCE and never leaves its block; the
  per-doc stats table is ~50 bytes/doc and is checkpointed because it is
  consumed twice (global reduce + scoring), the same
  materialize-the-narrow-side trade as pipelines.prepare_training_data;
- the global reduce (N, Σdl, document frequency per term) moves ONE
  partial row per block through a constant-group bucketed aggregate —
  the driver sees a single row;
- scoring is pure arithmetic per doc (idf constants precomputed on the
  driver with math.log so the only float ops in the distributed pass
  are IEEE +,*,/ — bit-identical to the DuckDB oracle's ln()-based
  derivation, queries.ORACLE_SQL['bm25_search']);
- top-k uses relops.grouped_topk on a constant group: every block emits
  at most k candidates, so ≤ blocks × k rows reach the final task — no
  global sort.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import ray.data as rd

from .relops import exchange, grouped_topk, partial_aggregate
from .storage import (DATASET_CONSTRUCTION_LOCK, add_generation, commit_dir,
                      generation_files, read_table)

BM25_K1 = 1.2
BM25_B = 0.75


def bm25_topk(ds: rd.Dataset, terms: Sequence[str], k: int = 50,
              k1: float = BM25_K1, b: float = BM25_B,
              id_col: str = "doc_id", text_col: str = "text") -> rd.Dataset:
    """Top-k documents by BM25 score for a bag-of-terms query.

    Returns (doc_id, score_micro, rank): score_micro =
    floor(score × 10^6) as int64 (floor, not round — floor is
    half-independent so the SQL oracle reproduces it exactly), rank =
    1-based position by (score_micro desc, doc_id asc)."""
    terms = sorted(terms)
    nt = len(terms)

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        toks = df[text_col].str.split(" ")
        lens = toks.map(len).to_numpy(dtype=np.int64)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        did = np.repeat(np.arange(n, dtype=np.int64), lens)
        out = {id_col: df[id_col].to_numpy(), "dl": lens}
        for i, t in enumerate(terms):
            cnt = np.zeros(n, dtype=np.int64)
            np.add.at(cnt, did[flat == t], 1)
            out[f"tf{i}"] = cnt
            out[f"hit{i}"] = (cnt > 0).astype(np.int64)
        return pd.DataFrame(out)

    # consumed twice (global reduce + scoring): checkpoint the narrow
    # stats table instead of re-tokenizing the corpus
    per_doc = ds.map_batches(stats, batch_format="pandas").materialize()

    aggs = {"n_docs": ("count", None), "sum_dl": ("sum", "dl")}
    for i in range(nt):
        aggs[f"df{i}"] = ("sum", f"hit{i}")
    g = (partial_aggregate(
            per_doc.map_batches(lambda df: df.assign(__g=np.int32(0)),
                                batch_format="pandas"),
            ["__g"], aggs)
         .to_pandas())  # exactly one row
    n_docs = int(g["n_docs"][0])
    avgdl = int(g["sum_dl"][0]) / n_docs
    # idf per term on the DRIVER (math.log = libm log, the same function
    # DuckDB's ln() calls): the distributed pass below is +,*,/ only
    idf = [math.log((n_docs - int(g[f"df{i}"][0]) + 0.5)
                    / (int(g[f"df{i}"][0]) + 0.5)) for i in range(nt)]
    k1p1 = k1 + 1.0

    def score(df: pd.DataFrame) -> pd.DataFrame:
        dl = df["dl"].to_numpy(dtype=np.float64)
        s = np.zeros(len(df), dtype=np.float64)
        # fixed left-to-right accumulation in sorted-term order: the SQL
        # oracle writes the same chain, so the doubles are bit-identical
        for i in range(nt):
            tf = df[f"tf{i}"].to_numpy(dtype=np.float64)
            s = s + idf[i] * (tf * k1p1) / (tf + k1 * (1.0 - b + b * (dl / avgdl)))
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "score_micro": np.floor(s * 1000000.0).astype(np.int64),
            "__g": np.zeros(len(df), dtype=np.int32),
        })

    top = grouped_topk(per_doc.map_batches(score, batch_format="pandas"),
                       ["__g"], ["score_micro", id_col], k,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: df[[id_col, "score_micro", "rk"]]
                     .rename(columns={"rk": "rank"}),
        batch_format="pandas")


def bm25_oracle_sql(terms: Sequence[str], k: int = 50,
                    k1: float = BM25_K1, b: float = BM25_B,
                    table: str = "documents") -> str:
    """DuckDB twin generated from the SAME constants as the engine (the
    mixture_sample / langid oracle-generation pattern: shared constants
    can't drift). Every float expression is written with the same
    shape and association order as the numpy/driver derivation."""
    terms = sorted(terms)
    tfs = ",\n               ".join(
        f"CAST(len(list_filter(toks, x -> x = '{t}')) AS BIGINT) AS tf{i}"
        for i, t in enumerate(terms))
    dfs = ",\n               ".join(
        f"SUM(CASE WHEN tf{i} > 0 THEN 1 ELSE 0 END) AS df{i}"
        for i in range(len(terms)))
    score = "\n             + ".join(
        f"ln((n_docs - df{i} + 0.5)/(df{i} + 0.5)) * (tf{i}*({k1!r}+1.0))"
        f"/(tf{i} + {k1!r}*(1.0 - {b!r} + {b!r}*(dl/avgdl)))"
        for i in range(len(terms)))
    return f"""
        WITH s AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM {table}),
        f AS (SELECT doc_id, CAST(len(toks) AS BIGINT) AS dl,
               {tfs}
              FROM s),
        g AS (SELECT COUNT(*) AS n_docs,
               CAST(SUM(dl) AS DOUBLE)/COUNT(*) AS avgdl,
               {dfs}
              FROM f),
        sc AS (SELECT doc_id,
               CAST(floor(({score}) * 1000000.0) AS BIGINT) AS score_micro
              FROM f CROSS JOIN g),
        r AS (SELECT doc_id, score_micro,
                     row_number() OVER (ORDER BY score_micro DESC, doc_id)
                       AS rank
              FROM sc)
        SELECT doc_id, score_micro, CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= {k}"""


# ------------------------------------------- persisted inverted index

#: bump when the on-disk index layout changes (cache keys include it,
#: so stale /tmp indexes from an older code version are never read)
TEXT_INDEX_FORMAT = 5  # v5: per-gen stats under stats/gen=<g>/


def _bucket_parts(terms: Sequence[str], num_buckets: int) -> list:
    """The ``bucket=<b>`` partition dirs holding ``terms``' postings and
    positions: md5(token) % num_buckets, the rule _write_index_gen
    writes by."""
    import hashlib

    return [f"bucket={b}" for b in sorted(
        {int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16)
         % num_buckets for t in terms})]


def _write_index_gen(ds: rd.Dataset, index_dir: str, gen: int,
                     id_col: str, text_col: str,
                     num_buckets: int) -> None:
    """Write one generation's postings/doclen/stats/positions, each
    under its own ``<sub>/gen=<g>`` subtree: the layout
    storage.commit_dir / add_generation commit and
    storage.generation_files lists."""
    import hashlib
    import json as _json
    import os

    def postings(df: pd.DataFrame) -> pd.DataFrame:
        ex = (df.assign(token=df[text_col].str.split(" "))[[id_col, "token"]]
              .explode("token", ignore_index=True).dropna())
        g = ex.groupby(["token", id_col], sort=False).size().reset_index()
        g.columns = ["token", id_col, "tf"]
        return g.astype({"tf": np.int64})

    table = partial_aggregate(
        ds.map_batches(postings, batch_format="pandas"),
        ["token", id_col], {"tf": ("sum", "tf")})

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        b = np.fromiter(
            (int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16)
             % num_buckets for t in df["token"]),
            dtype=np.int64, count=len(df))
        return df.assign(bucket=b, gen=np.int64(gen))

    sink = table.map_batches(bucketed, batch_format="pandas")
    # the fsspec probe fires at write_parquet's PATH RESOLUTION; the
    # lock is held for the (blocking) write — only the first build per
    # corpus pays it, re-runs short-circuit on the caller's marker
    with DATASET_CONSTRUCTION_LOCK:
        sink.write_parquet(os.path.join(index_dir, "postings"),
                           partition_cols=["gen", "bucket"])

    # index-time corpus statistics for query-time BM25: per-doc length
    # (= Σ tf over the doc's posting rows — whitespace token count) and
    # the per-gen (n_docs, sum_dl) pair. doclen is doc-count-sized and
    # narrow; stats/gen=<g>/stats.json is two integers summed at query
    # time.
    doclen = partial_aggregate(table, [id_col], {"dl": ("sum", "tf")})
    with DATASET_CONSTRUCTION_LOCK:
        (doclen.map_batches(lambda df: df.assign(gen=np.int64(gen)),
                            batch_format="pandas")
               .write_parquet(os.path.join(index_dir, "doclen"),
                              partition_cols=["gen"]))
    tot = partial_aggregate(
        doclen.map_batches(lambda df: df.assign(__g=0),
                           batch_format="pandas"),
        ["__g"], {"n_docs": ("count", None), "sum_dl": ("sum", "dl")}
    ).to_pandas()
    stats_dir = os.path.join(index_dir, "stats", f"gen={gen}")
    os.makedirs(stats_dir)
    with open(os.path.join(stats_dir, "stats.json"), "w") as f:
        _json.dump({"n_docs": int(tot["n_docs"][0]) if len(tot) else 0,
                    "sum_dl": int(tot["sum_dl"][0]) if len(tot) else 0},
                   f)

    # positional sidecar (format v4): raw (token, doc, pos) occurrence
    # rows, token-bucketed like postings, so phrase/proximity queries
    # prune to their terms' buckets the same way. One extra streaming
    # tokenize pass (no corpus-sized materialization); bm25/lookup
    # never read it.
    def occurrences(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.split(" ")
        lens = toks.map(len).to_numpy(dtype=np.int64)
        ex = (df.assign(token=toks)[[id_col, "token"]]
              .explode("token", ignore_index=True))
        ex["pos"] = np.concatenate([np.arange(n) for n in lens])
        b = np.fromiter(
            (int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16)
             % num_buckets for t in ex["token"]),
            dtype=np.int64, count=len(ex))
        return ex.assign(pos=ex["pos"].astype(np.int64), bucket=b,
                         gen=np.int64(gen))

    with DATASET_CONSTRUCTION_LOCK:
        (ds.map_batches(occurrences, batch_format="pandas")
           .write_parquet(os.path.join(index_dir, "positions"),
                          partition_cols=["gen", "bucket"]))


def build_text_index(ds: rd.Dataset, out_dir: str, id_col: str = "doc_id",
                     text_col: str = "text",
                     num_buckets: int = 64) -> str:
    """Persist an inverted index over a text corpus: one vectorized
    explode+combine pass builds the (token, doc, tf) posting table —
    per-batch tf combiner first, so the exchange moves one row per
    distinct (token, doc) per block, never token occurrences — written
    HIVE-PARTITIONED by md5(token) % num_buckets under the base
    generation (``out_dir/postings/gen=0/bucket=<b>/``), committed by
    storage.commit_dir: a re-run that finds the marker skips the build,
    and a build that died mid-write is wiped and rebuilt whole, so
    partial postings can never be double-counted. The build-once /
    query-many twin of similarity.build_ivf_index: a term lookup reads
    ONLY its bucket's files (1/num_buckets of the index). Returns
    out_dir."""
    commit_dir(out_dir, lambda d: _write_index_gen(
        ds, d, 0, id_col, text_col, num_buckets))
    return out_dir


def text_index_lookup(index_dir: str, terms: Sequence[str],
                      num_buckets: int = 64,
                      id_col: str = "doc_id") -> pd.DataFrame:
    """Query the persisted index: list and read ONLY the probed terms'
    bucket partitions (the pruning the hive layout buys — at 100 TB a
    5-term lookup touches 5/num_buckets of the files), filter to the
    terms, return (token, doc_id, tf)."""
    paths = generation_files(index_dir, "postings",
                             _bucket_parts(terms, num_buckets))
    if not paths:
        return pd.DataFrame({"token": pd.Series([], dtype=object),
                             id_col: pd.Series([], dtype=np.int64),
                             "tf": pd.Series([], dtype=np.int64)})
    tset = set(terms)
    out = (read_table(paths)
           .map_batches(lambda df: df[df["token"].isin(tset)]
                        [["token", id_col, "tf"]],
                        batch_format="pandas")
           .to_pandas())
    return (out.astype({"tf": np.int64})
            .sort_values(["token", id_col], ignore_index=True))


def text_index_postings(index_dir: str, terms: Sequence[str],
                        num_buckets: int = 64,
                        id_col: str = "doc_id") -> Optional[rd.Dataset]:
    """Dataset variant of text_index_lookup (postings stay distributed —
    the input shape bm25_from_index's joins need). None when no bucket
    files exist. Reads committed generations only."""
    paths = generation_files(index_dir, "postings",
                             _bucket_parts(terms, num_buckets))
    if not paths:
        return None
    tset = set(terms)
    return read_table(paths).map_batches(
        lambda df: df[df["token"].isin(tset)][["token", id_col, "tf"]],
        batch_format="pandas")


def bm25_from_index(index_dir: str, terms: Sequence[str], k: int = 50,
                    k1: float = BM25_K1, b: float = BM25_B,
                    id_col: str = "doc_id",
                    num_buckets: int = 64) -> rd.Dataset:
    """BM25 top-k answered FROM the persisted index — the build-once /
    query-many retrieval path: term postings come from only their
    bucket partitions, document lengths from the index-time doclen
    table, (n_docs, sum_dl) from stats.json; nothing re-tokenizes the
    corpus. Bit-identical to bm25_topk on the same corpus/terms (same
    sorted-term left-to-right float accumulation, same floor-micro) —
    so it shares bm25_oracle_sql. Scale shape: probed postings pivot
    per doc through one bucketed aggregate, then LEFT-join onto doclen
    (zero-hit docs score 0, preserving full-corpus rank semantics); a
    stop-word-sized posting list never lands on the driver. Reads
    committed generations only (global stats = Σ per-gen stats)."""
    import json

    from .relops import hash_join, partial_aggregate

    terms = sorted(terms)
    nt = len(terms)
    n_docs = sum_dl = 0
    for p in generation_files(index_dir, "stats"):
        with open(p) as f:
            st = json.load(f)
        n_docs += int(st["n_docs"])
        sum_dl += int(st["sum_dl"])
    avgdl = sum_dl / n_docs

    post = text_index_postings(index_dir, terms, num_buckets=num_buckets,
                               id_col=id_col)

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        out = {id_col: df[id_col].to_numpy()}
        tf = df["tf"].to_numpy(dtype=np.int64)
        tok = df["token"].to_numpy()
        for i, t in enumerate(terms):
            out[f"tf{i}"] = np.where(tok == t, tf, 0)
        return pd.DataFrame(out)

    if post is None:
        tfdoc = None
        dfs = [0] * nt
    else:
        aggs = {f"tf{i}": ("sum", f"tf{i}") for i in range(nt)}
        tfdoc = partial_aggregate(post.map_batches(pivot,
                                                   batch_format="pandas"),
                                  [id_col], aggs)
        g = partial_aggregate(
            tfdoc.map_batches(
                lambda df: pd.DataFrame(
                    {"__g": np.zeros(len(df), dtype=np.int32),
                     **{f"h{i}": (df[f"tf{i}"].to_numpy() > 0)
                        .astype(np.int64) for i in range(nt)}}),
                batch_format="pandas"),
            ["__g"], {f"df{i}": ("sum", f"h{i}") for i in range(nt)}
        ).to_pandas()
        dfs = [int(g[f"df{i}"][0]) if len(g) else 0 for i in range(nt)]

    import math as _math
    idf = [_math.log((n_docs - dfs[i] + 0.5) / (dfs[i] + 0.5))
           for i in range(nt)]
    k1p1 = k1 + 1.0

    doclen = read_table(generation_files(index_dir, "doclen"))
    if tfdoc is not None:
        scored_in = hash_join(doclen, tfdoc, id_col, id_col, how="left",
                              left_cols=[id_col, "dl"],
                              right_cols=[id_col] + [f"tf{i}"
                                                     for i in range(nt)])
    else:
        scored_in = doclen.map_batches(
            lambda df: df.assign(**{f"tf{i}": np.int64(0)
                                    for i in range(nt)}),
            batch_format="pandas")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        dl = df["dl"].to_numpy(dtype=np.float64)
        s = np.zeros(len(df), dtype=np.float64)
        for i in range(nt):  # fixed order — bit-identical to bm25_topk
            tf = np.nan_to_num(df[f"tf{i}"].to_numpy(dtype=np.float64))
            s = s + idf[i] * (tf * k1p1) / (tf + k1 * (1.0 - b + b * (dl / avgdl)))
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "score_micro": np.floor(s * 1000000.0).astype(np.int64),
            "__g": np.zeros(len(df), dtype=np.int32),
        })

    top = grouped_topk(scored_in.map_batches(score, batch_format="pandas"),
                       ["__g"], ["score_micro", id_col], k,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: df[[id_col, "score_micro", "rk"]]
                     .rename(columns={"rk": "rank"}),
        batch_format="pandas")


def add_to_text_index(ds: rd.Dataset, index_dir: str,
                      id_col: str = "doc_id", text_col: str = "text",
                      num_buckets: int = 64) -> str:
    """INCREMENTAL index update: write a new snapshot's postings as a
    fresh GENERATION (``postings/gen=<g>/bucket=<b>/`` and its own
    doclen, stats and positions subtrees), committed by
    storage.add_generation. The posting layout is additive — one row
    per (token, doc), so disjoint doc sets union cleanly; lookups and
    BM25 aggregate per (token, doc) across committed generations. After
    the add, every query is IDENTICAL to a full rebuild over the union
    corpus (equality-tested; the planted-increment query
    text_index_incremental hash-checks it against SQL). The caller
    owns doc-id disjointness (re-adding an existing doc double-counts;
    dedup_incremental is the dedup step for that). A crashed add is
    never read and is wiped by the re-run before it redoes the add
    whole."""
    add_generation(index_dir, lambda g: _write_index_gen(
        ds, index_dir, g, id_col, text_col, num_buckets))
    return index_dir


def phrase_search_from_index(index_dir: str, terms: Sequence[str],
                             num_buckets: int = 64,
                             id_col: str = "doc_id") -> rd.Dataset:
    """EXACT-PHRASE retrieval from the persisted index's positional
    sidecar (format v4) — the adjacency query BM25's bag-of-words
    cannot answer (reference analog: none; Lucene PhraseQuery shape).
    Reads ONLY the phrase terms' bucket partitions across committed
    generations (a doc's occurrences live in one generation, so
    in-doc adjacency never crosses gen boundaries), co-locates each
    doc's occurrence rows in one exchange slot, and intersects
    position lists: starts(t0) ∩ (pos(t1) - 1) ∩ ... ∩
    (pos(tm-1) - (m-1)), vectorized with np.isin per doc. Repeated
    phrase terms fall out naturally. Returns (id, n_matches) for docs
    containing the phrase at least once; exact and SQL-expressible
    (queries.ORACLE_SQL['phrase_search'])."""
    terms = list(terms)
    paths = generation_files(index_dir, "positions",
                             _bucket_parts(terms, num_buckets))
    empty = pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                          "n_matches": pd.Series([], dtype=np.int64)})
    if not paths:
        return rd.from_pandas(empty)
    tset = set(terms)
    occ = read_table(paths).map_batches(
        lambda df: df.loc[df["token"].isin(tset), ["token", id_col, "pos"]],
        batch_format="pandas")

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        out_id, out_n = [], []
        for did, g in df.groupby(id_col, sort=False):
            pos = {t: sub["pos"].to_numpy(np.int64)
                   for t, sub in g.groupby("token", sort=False)}
            starts = pos.get(terms[0], np.array([], dtype=np.int64))
            for j, t in enumerate(terms[1:], 1):
                if not len(starts):
                    break
                starts = starts[np.isin(
                    starts, pos.get(t, np.array([], dtype=np.int64)) - j)]
            if len(starts):
                out_id.append(did)
                out_n.append(len(starts))
        return pd.DataFrame({
            id_col: pd.Series(out_id, dtype=df[id_col].dtype),
            "n_matches": pd.Series(out_n, dtype=np.int64)})

    return exchange(occ, id_col, per_doc)


def min_cover_window(pos_lists) -> Optional[int]:
    """Width of the smallest token window containing at least one
    occurrence of EVERY term, given each term's sorted position list —
    the classic sorted-merge two-pointer sweep (O(total occurrences)
    after the merge sort, vs the O(prod tf_i) brute-force cross
    product the SQL oracle writes). None when some term is absent."""
    m = len(pos_lists)
    if any(len(p) == 0 for p in pos_lists):
        return None
    pos = np.concatenate([np.asarray(p, dtype=np.int64)
                          for p in pos_lists])
    lab = np.concatenate([np.full(len(p), i, dtype=np.int64)
                          for i, p in enumerate(pos_lists)])
    o = np.argsort(pos, kind="stable")
    pos, lab = pos[o], lab[o]
    cnt = np.zeros(m, dtype=np.int64)
    have, left, best = 0, 0, None
    for right in range(len(pos)):
        c = lab[right]
        cnt[c] += 1
        if cnt[c] == 1:
            have += 1
        while have == m:
            w = int(pos[right] - pos[left] + 1)
            if best is None or w < best:
                best = w
            cl = lab[left]
            cnt[cl] -= 1
            if cnt[cl] == 0:
                have -= 1
            left += 1
    return best


def proximity_topk_from_index(index_dir: str, terms: Sequence[str],
                              k: int = 20, num_buckets: int = 64,
                              id_col: str = "doc_id") -> rd.Dataset:
    """PROXIMITY retrieval from the positional sidecar: candidates are
    docs containing ALL query terms, ranked by the width of the
    smallest window covering one occurrence of each (then doc_id) —
    the Lucene SpanNearQuery / 'slop' shape that sits between
    bag-of-words BM25 and the exact-phrase query. Same pruned-read
    plan as phrase_search_from_index (only the query terms' bucket
    partitions are listed), per-doc occurrence rows co-locate in an
    exchange slot where the sweep runs, and the final ranking is the
    constant-group bounded top-k (candidates never assemble globally).
    Returns (id, width, rank)."""
    terms = list(terms)
    paths = generation_files(index_dir, "positions",
                             _bucket_parts(terms, num_buckets))
    empty = pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                          "width": pd.Series([], dtype=np.int64),
                          "rank": pd.Series([], dtype=np.int64)})
    if not paths:
        return rd.from_pandas(empty)
    tset = set(terms)
    occ = read_table(paths).map_batches(
        lambda df: df.loc[df["token"].isin(tset), ["token", id_col, "pos"]],
        batch_format="pandas")

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        out_id, out_w = [], []
        for did, g in df.groupby(id_col, sort=False):
            pos = {t: np.sort(sub["pos"].to_numpy(np.int64))
                   for t, sub in g.groupby("token", sort=False)}
            w = min_cover_window([pos.get(t, np.array([], dtype=np.int64))
                                  for t in terms])
            if w is not None:
                out_id.append(did)
                out_w.append(w)
        return pd.DataFrame({
            id_col: pd.Series(out_id, dtype=df[id_col].dtype),
            "width": pd.Series(out_w, dtype=np.int64),
            "__g": pd.Series(np.zeros(len(out_id), dtype=np.int32)),
        })

    cand = exchange(occ, id_col, per_doc)
    top = grouped_topk(cand, ["__g"], ["width", id_col], k,
                       ascending=[True, True])
    return top.map_batches(
        lambda df: df[[id_col, "width", "rk"]]
                     .rename(columns={"rk": "rank"}).astype("int64"),
        batch_format="pandas")
