"""Similarity search over an embedding column (list<float>).

- brute_force_topk: the exact baseline — numpy matmul per batch against
  the query matrix (held by the map function, which Ray Data ships to
  the object store once per stage), per-batch partial top-k, tiny final
  top-k merge.
- lsh_buckets / ann_topk_lsh: the scale path — random-hyperplane
  signatures bucket the corpus; queries probe only their bucket
  (and optional neighbor probes), trading recall for touch-set size.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .storage import add_generation, commit_dir, generation_files, read_table


def _stack(df_col) -> np.ndarray:
    return np.stack(df_col.to_numpy()).astype(np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _quant_away(x: np.ndarray, scale) -> np.ndarray:
    """Quantize to int64 with half-AWAY-FROM-ZERO rounding
    (sign·floor(|x|·s + 0.5)) — DuckDB's ROUND() semantics, unlike
    np.round's banker's rounding. The ONE rounding rule for every
    quantization in this file (VERDICT r4 item 6): a value landing on
    .5 after scaling would otherwise diverge between the engine and a
    SQL oracle replay."""
    p = np.asarray(x, dtype=np.float64) * float(scale)
    return (np.sign(p) * np.floor(np.abs(p) + 0.5)).astype(np.int64)


def load_queries(emb: rd.Dataset, query_ids: Sequence[int],
                 id_col: str = "vec_id", vec_col: str = "embedding"):
    """(ids, matrix) for the query vectors — a small driver-side pull."""
    qset = set(int(q) for q in query_ids)
    qdf = (emb.map_batches(
        lambda df: df[df[id_col].isin(qset)][[id_col, vec_col]],
        batch_format="pandas").to_pandas())
    qdf = qdf.sort_values(id_col, ignore_index=True)
    return qdf[id_col].to_numpy(), _normalize(_stack(qdf[vec_col]))


class BatchTopK:
    """Per-batch candidate generation: cos(batch, queries) → top-k rows
    per query within the batch. Built once on the driver; the instance
    carries the query matrix to every task."""

    def __init__(self, qids, qmat, k: int, id_col: str, vec_col: str) -> None:
        self.qids, self.qmat = qids, qmat
        self.k, self.id_col, self.vec_col = k, id_col, vec_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids = df[self.id_col].to_numpy()
        m = _normalize(_stack(df[self.vec_col]))
        sims = self.qmat @ m.T  # (nq, batch)
        out_q, out_n, out_s = [], [], []
        k = min(self.k + 1, sims.shape[1])  # +1: self may be in-batch
        for qi in range(sims.shape[0]):
            top = np.argpartition(-sims[qi], k - 1)[:k]
            out_q.append(np.full(len(top), self.qids[qi], dtype=np.int64))
            out_n.append(ids[top])
            out_s.append(sims[qi][top])
        return pd.DataFrame({"query_id": np.concatenate(out_q),
                             "neighbor_id": np.concatenate(out_n).astype(np.int64),
                             "sim": np.concatenate(out_s)})


def brute_force_topk(emb: rd.Dataset, query_ids: Sequence[int], k: int = 5,
                     id_col: str = "vec_id", vec_col: str = "embedding") -> pd.DataFrame:
    """Exact cosine top-k: (query_id, neighbor_id, rank), self excluded,
    ties broken by neighbor_id ascending."""
    qids, qmat = load_queries(emb, query_ids, id_col, vec_col)
    cand = emb.map_batches(BatchTopK(qids, qmat, k, id_col, vec_col),
                           batch_format="pandas", batch_size=4096)
    # final merge: candidates are (num_blocks × nq × (k+1)) rows — tiny
    df = cand.to_pandas()
    df = df[df["query_id"] != df["neighbor_id"]]
    df = df.sort_values(["query_id", "sim", "neighbor_id"],
                        ascending=[True, False, True], ignore_index=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    out = df[df["rank"] <= k][["query_id", "neighbor_id", "rank"]]
    out["rank"] = out["rank"].astype(np.int64)
    return out.reset_index(drop=True)


# ------------------------------------------------------------------ LSH


def _planes(dim: int, n_planes: int, seed: int) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((n_planes, dim))


def _bucket_ids(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Random-hyperplane bucket id of each row of ``m``: bit i is set
    when the row lies on the positive side of plane i."""
    return (((m @ planes.T) > 0) @ (1 << np.arange(len(planes)))
            ).astype(np.int32)


def lsh_buckets(emb: rd.Dataset, n_planes: int = 8, seed: int = 42,
                id_col: str = "vec_id", vec_col: str = "embedding") -> rd.Dataset:
    """Random-hyperplane bucket id per vector: (vec_id, bucket:int32),
    the ids ann_topk_lsh probes. Kept as public surface, though no
    package code calls it: the bucket key is what a 100 TB corpus
    would be hash-partitioned on before a bucket-local ANN pass."""

    def bucketer(df: pd.DataFrame) -> pd.DataFrame:
        m = _stack(df[vec_col])
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             "bucket": _bucket_ids(
                                 m, _planes(m.shape[1], n_planes, seed))})

    return emb.map_batches(bucketer, batch_format="pandas")


def ann_topk_lsh(emb: rd.Dataset, query_ids: Sequence[int], k: int = 5,
                 n_planes: int = 8, seed: int = 42,
                 id_col: str = "vec_id", vec_col: str = "embedding") -> pd.DataFrame:
    """Approximate top-k: probe only the query's LSH bucket, brute-force
    within it. Returns (query_id, neighbor_id, rank) — approximate; see
    tests for the recall-vs-brute-force gate."""
    qids, qmat = load_queries(emb, query_ids, id_col, vec_col)
    dim = qmat.shape[1]
    planes = _planes(dim, n_planes, seed)
    wanted = set(int(b) for b in _bucket_ids(qmat, planes))

    class BucketFilterTopK(BatchTopK):
        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            keep = np.isin(_bucket_ids(_stack(df[vec_col]), planes),
                           list(wanted))
            df = df[keep].reset_index(drop=True)
            if df.empty:
                return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                                     "neighbor_id": pd.Series([], dtype=np.int64),
                                     "sim": pd.Series([], dtype=np.float64),
                                     "bucket": pd.Series([], dtype=np.int32)})
            out = super().__call__(df)
            return out

    cand = emb.map_batches(BucketFilterTopK(qids, qmat, k, id_col, vec_col),
                           batch_format="pandas", batch_size=4096)
    df = cand.to_pandas()
    if df.empty:
        return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                             "neighbor_id": pd.Series([], dtype=np.int64),
                             "rank": pd.Series([], dtype=np.int64)})
    # candidates may include vectors from other queries' buckets; restrict
    # each query to its own bucket would need a per-pair check — top-k over
    # the probed union is the standard multi-probe relaxation.
    df = df[df["query_id"] != df["neighbor_id"]]
    df = df.sort_values(["query_id", "sim", "neighbor_id"],
                        ascending=[True, False, True], ignore_index=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    out = df[df["rank"] <= k][["query_id", "neighbor_id", "rank"]]
    out["rank"] = out["rank"].astype(np.int64)
    return out.reset_index(drop=True)


# ------------------------------------------------------------------ IVF


def ivf_train_centroids(emb: rd.Dataset, n_centroids: int = 16,
                        rounds: int = 3, id_col: str = "vec_id",
                        vec_col: str = "embedding") -> np.ndarray:
    """Deterministic mini-Lloyd training for IVF coarse quantization.

    Init = the vectors with the n_centroids LOWEST ids (deterministic,
    cluster-shape-independent). Each round: per-batch assignment against
    the round's centroid matrix + per-centroid partial sums emitted as
    one row per (centroid, batch); the driver merges only the tiny
    (n_centroids × dim) table. Every corpus pass streams — nothing
    corpus-sized leaves the workers. Empty centroids keep their previous
    position (no resample, determinism over quality).

    Determinism is EXACT, not best-effort: both the assignment argmax
    and the partial sums run over int64-quantized vectors
    (round(v * 2^20); the embedding_moments treatment), so the result
    is independent of batch boundaries, block arrival order, and BLAS
    kernel choice — float partial sums would drift with merge order
    (non-associative adds) and flip near-tie argmaxes between runs.
    Scale headroom: |q| ≤ 2^20 per component, products ≤ 2^40, a
    per-cell int64 sum overflows only past ~2^23 vectors per batch per
    cell × dim — far beyond any batch size here."""
    low = (emb.map_batches(
        lambda df: pd.DataFrame({id_col: np.sort(df[id_col].to_numpy())[:n_centroids]}),
        batch_format="pandas").to_pandas())
    init_ids = np.sort(low[id_col].to_numpy())[:n_centroids]
    _, centroids = load_queries(emb, init_ids, id_col, vec_col)
    scale = np.int64(1) << 20

    for _ in range(rounds):
        qc = _quant_away(centroids, scale)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            qm = _quant_away(_normalize(_stack(df[vec_col])), scale)
            a = np.argmax(qm @ qc.T, axis=1)
            rows = []
            for cid in np.unique(a):
                sel = qm[a == cid]
                rows.append({"cid": int(cid), "n": len(sel),
                             "vsum": sel.sum(axis=0)})
            return pd.DataFrame(rows)

        agg = emb.map_batches(partial, batch_format="pandas").to_pandas()
        new = centroids.copy()
        for cid, g in agg.groupby("cid"):
            total = np.sum(np.stack(g["vsum"].to_numpy()), axis=0)
            norm = np.linalg.norm(total.astype(np.float64))
            if norm > 0:
                new[int(cid)] = total / norm
        centroids = new
    return centroids


def ann_topk_ivf(emb: rd.Dataset, query_ids: Sequence[int], k: int = 5,
                 n_centroids: int = 16, n_probe: int = 4, rounds: int = 3,
                 id_col: str = "vec_id", vec_col: str = "embedding") -> pd.DataFrame:
    """IVF approximate top-k — the inverted-file scale path the LSH
    variant trades against: train coarse centroids, probe each query's
    n_probe nearest cells, brute-force only within the probed union.
    At 100 TB the corpus would be written partitioned BY cell id so a
    probe touches only its cells' files; here the cell filter runs
    inside map_batches over the same streaming pass. Approximate:
    recall gated vs brute force in tests/test_similarity.py."""
    centroids = ivf_train_centroids(emb, n_centroids=n_centroids,
                                    rounds=rounds, id_col=id_col, vec_col=vec_col)
    qids, qmat = load_queries(emb, query_ids, id_col, vec_col)
    qsims = qmat @ centroids.T                       # (nq, C)
    probe = np.argsort(-qsims, axis=1)[:, :n_probe]
    wanted = set(int(c) for c in probe.ravel())

    class CellFilterTopK(BatchTopK):
        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            m = _normalize(_stack(df[vec_col]))
            a = np.argmax(m @ centroids.T, axis=1)
            keep = np.isin(a, list(wanted))
            df = df[keep].reset_index(drop=True)
            if df.empty:
                return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                                     "neighbor_id": pd.Series([], dtype=np.int64),
                                     "sim": pd.Series([], dtype=np.float64)})
            return super().__call__(df)

    cand = emb.map_batches(CellFilterTopK(qids, qmat, k, id_col, vec_col),
                           batch_format="pandas", batch_size=4096)
    df = cand.to_pandas()
    if df.empty:
        return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                             "neighbor_id": pd.Series([], dtype=np.int64),
                             "rank": pd.Series([], dtype=np.int64)})
    df = df[df["query_id"] != df["neighbor_id"]]
    df = df.sort_values(["query_id", "sim", "neighbor_id"],
                        ascending=[True, False, True], ignore_index=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    out = df[df["rank"] <= k][["query_id", "neighbor_id", "rank"]]
    out["rank"] = out["rank"].astype(np.int64)
    return out.reset_index(drop=True)


def contrastive_pairs(emb: rd.Dataset, anchor_ids: Sequence[int],
                      k_neg: int = 2, id_col: str = "vec_id",
                      vec_col: str = "embedding",
                      label_col: str = "label") -> pd.DataFrame:
    """Contrastive training-pair mining (the hard-negative mining step
    of embedding-model curation, public method): for each anchor, the
    single most-similar SAME-label vector (the positive) and the
    ``k_neg`` most-similar DIFFERENT-label vectors (the hard
    negatives), self excluded, ties by candidate id ascending.

    Same machinery as brute_force_topk — the map function holds the
    anchor matrix (ids, vecs, labels), every batch contributes its own
    per-anchor per-role top-k, the driver merges blocks × anchors ×
    (k+1) candidate rows. Exact (SQL oracle via
    list_cosine_similarity + a per-(anchor, role) window); the at-scale
    variant swaps the scan for the IVF/LSH candidate generation in
    this module. Returns tall (anchor_id, role, rk, cand_id)."""
    # ONE streaming scan pulls the anchors' ids+vectors+labels together
    # (two separate pulls would read the corpus twice)
    qset = set(int(q) for q in anchor_ids)
    qdf = (emb.map_batches(
        lambda df: df[df[id_col].isin(qset)][[id_col, vec_col, label_col]],
        batch_format="pandas").to_pandas()
        .sort_values(id_col, ignore_index=True))
    qids = qdf[id_col].to_numpy()
    qmat = _normalize(_stack(qdf[vec_col]))
    qlab = qdf[label_col].to_numpy()
    kmax = k_neg + 1

    def cand_fn(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        labs = df[label_col].to_numpy()
        m = _normalize(_stack(df[vec_col]))
        sims = qmat @ m.T  # (nq, batch)
        out_a, out_c, out_s, out_same = [], [], [], []
        for qi in range(sims.shape[0]):
            same = labs == qlab[qi]
            for mask in (same, ~same):
                idx = np.nonzero(mask)[0]
                if not len(idx):
                    continue
                k = min(kmax + 1, len(idx))  # +1: self may be here
                top = idx[np.argpartition(-sims[qi][idx], k - 1)[:k]]
                out_a.append(np.full(len(top), qids[qi], dtype=np.int64))
                out_c.append(ids[top])
                out_s.append(sims[qi][top])
                out_same.append(np.full(len(top), bool(mask is same)))
        if not out_a:
            return pd.DataFrame({"anchor_id": pd.Series([], dtype=np.int64),
                                 "cand_id": pd.Series([], dtype=np.int64),
                                 "sim": pd.Series([], dtype=np.float64),
                                 "same": pd.Series([], dtype=bool)})
        return pd.DataFrame({
            "anchor_id": np.concatenate(out_a),
            "cand_id": np.concatenate(out_c).astype(np.int64),
            "sim": np.concatenate(out_s),
            "same": np.concatenate(out_same)})

    cand = emb.map_batches(cand_fn, batch_format="pandas", batch_size=4096)
    df = cand.to_pandas()
    df = df[df["anchor_id"] != df["cand_id"]]
    df = df.sort_values(["anchor_id", "same", "sim", "cand_id"],
                        ascending=[True, False, False, True],
                        ignore_index=True)
    df["rk"] = df.groupby(["anchor_id", "same"]).cumcount() + 1
    keep = ((df["same"] & (df["rk"] == 1))
            | (~df["same"] & (df["rk"] <= k_neg)))
    out = df[keep].copy()
    out["role"] = np.where(out["same"], "pos", "neg")
    out["rk"] = out["rk"].astype(np.int64)
    return (out[["anchor_id", "role", "rk", "cand_id"]]
            .reset_index(drop=True))


def _write_ivf_gen(emb: rd.Dataset, index_dir: str, gen: int,
                   centroids: np.ndarray, id_col: str,
                   vec_col: str) -> None:
    """Assign every vector of one snapshot to its nearest centroid and
    write the cells under the generation's own ``cells/gen=<g>``
    subtree."""
    import os

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        m = _normalize(_stack(df[vec_col]))
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             vec_col: df[vec_col].to_numpy(),
                             "gen": np.int64(gen),
                             "cell": np.argmax(m @ centroids.T, axis=1
                                               ).astype(np.int64)})

    (emb.map_batches(assign, batch_format="pandas")
        .write_parquet(os.path.join(index_dir, "cells"),
                       partition_cols=["gen", "cell"]))


def build_ivf_index(emb: rd.Dataset, out_dir: str, n_centroids: int = 16,
                    rounds: int = 3, id_col: str = "vec_id",
                    vec_col: str = "embedding",
                    centroids: Optional[np.ndarray] = None) -> str:
    """Persist an IVF index: train coarse centroids (one streaming
    mini-Lloyd) unless ``centroids`` is given, assign every vector, and
    write the corpus CELL-PARTITIONED under the base generation
    (``out_dir/cells/gen=0/cell=<c>/*.parquet``) next to a centroids
    table, committed by storage.commit_dir — the build-once /
    query-many layout ann_topk_ivf's docstring points to: a probe then
    reads ONLY its cells' files instead of streaming the whole corpus.
    Returns out_dir."""
    import os

    import pyarrow.parquet as pq

    def write(d: str) -> None:
        cents = centroids
        if cents is None:
            cents = ivf_train_centroids(emb, n_centroids=n_centroids,
                                        rounds=rounds, id_col=id_col,
                                        vec_col=vec_col)
        _write_ivf_gen(emb, d, 0, cents, id_col, vec_col)
        pq.write_table(
            pa.table({"cell": pa.array(range(len(cents)), type=pa.int64()),
                      "centroid": pa.array([c.tolist() for c in cents],
                                           type=pa.list_(pa.float64()))}),
            os.path.join(d, "centroids.parquet"))

    commit_dir(out_dir, write)
    return out_dir


def ivf_index_centroids(index_dir: str) -> np.ndarray:
    """The index's stored centroid matrix, cell-ordered."""
    import os

    import pyarrow.parquet as pq

    cent_t = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    order = np.argsort(cent_t.column("cell").to_numpy())
    return np.stack(cent_t.column("centroid").to_pandas().to_numpy()[order])


def add_to_ivf_index(emb: rd.Dataset, index_dir: str,
                     id_col: str = "vec_id",
                     vec_col: str = "embedding") -> str:
    """INCREMENTAL IVF maintenance: assign a new snapshot's vectors to
    their nearest EXISTING cell (centroids stay fixed — the standard IVF
    add; retraining is a rebuild) and write them as a fresh generation
    (``cells/gen=<g>/cell=<c>/``) committed by storage.add_generation.
    After the add, queries are IDENTICAL to a rebuild over the union
    corpus at the same fixed centroids (equality-tested in
    tests/test_similarity.py). The caller owns id disjointness."""
    add_generation(index_dir, lambda g: _write_ivf_gen(
        emb, index_dir, g, ivf_index_centroids(index_dir), id_col, vec_col))
    return index_dir


def ann_topk_from_index(index_dir: str, query_vecs: np.ndarray,
                        query_ids: Sequence[int], k: int = 5,
                        n_probe: int = 4, id_col: str = "vec_id",
                        vec_col: str = "embedding") -> pd.DataFrame:
    """Query a persisted IVF index: read ONLY the probed cells'
    partitions across committed generations (pushed down as a parquet
    partition filter — the 100 TB point of the cell layout),
    brute-force within them. Returns (query_id, neighbor_id, rank)
    like the other ANN surfaces."""
    centroids = ivf_index_centroids(index_dir)
    qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qids = np.asarray(list(query_ids), dtype=np.int64)
    probe = np.argsort(-(qmat @ centroids.T), axis=1)[:, :n_probe]
    wanted = sorted(set(int(c) for c in probe.ravel()))

    # explicit partition pruning: only the probed cells' files are
    # ever listed or read
    paths = generation_files(index_dir, "cells",
                             [f"cell={c}" for c in wanted])
    if not paths:
        return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                             "neighbor_id": pd.Series([], dtype=np.int64),
                             "rank": pd.Series([], dtype=np.int64)})
    cand = read_table(paths).map_batches(
        BatchTopK(qids, qmat, k, id_col, vec_col),
        batch_format="pandas", batch_size=4096)
    df = cand.to_pandas()
    if df.empty:
        return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                             "neighbor_id": pd.Series([], dtype=np.int64),
                             "rank": pd.Series([], dtype=np.int64)})
    df = df[df["query_id"] != df["neighbor_id"]]
    df = df.sort_values(["query_id", "sim", "neighbor_id"],
                        ascending=[True, False, True], ignore_index=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    out = df[df["rank"] <= k][["query_id", "neighbor_id", "rank"]]
    out["rank"] = out["rank"].astype(np.int64)
    return out.reset_index(drop=True)


def embedding_moments(emb: rd.Dataset, id_col: str = "vec_id",
                      vec_col: str = "embedding",
                      scale: int = 1000) -> rd.Dataset:
    """Distributed second-moment statistics of an embedding column —
    the one-pass input to PCA / whitening / covariance conditioning:
    per batch, quantize to integer millis (exact: float32 → float64 is
    lossless, then one double multiply+round shared with the SQL
    oracle) and emit the d×d upper-triangle of Qᵀ Q plus per-dim sums
    and the row count; a bucketed partial aggregate folds the per-batch
    moment matrices. The exchange carries d(d+3)/2 + 1 integer rows
    per block — independent of corpus size (the classic "covariance is
    a sum of outer products" factorization). All-integer, so the
    result is block-layout independent and hash-exact
    (queries.ORACLE_SQL['embedding_moments']).

    Returns (i, j, v): j == -1 rows are per-dim sums, (-1, -1) is the
    row count; driver-side, cov = (M/n) - outer(s/n, s/n) in whatever
    float precision the consumer wants."""
    from .relops import partial_aggregate

    def batch_stats(df: pd.DataFrame) -> pd.DataFrame:
        X = _stack(df[vec_col]).astype(np.float64)
        # a value landing on .5 after scaling (e.g. 1/16 → 62.5) would
        # diverge from the SQL oracle under banker's rounding
        Q = _quant_away(X, scale)
        d = Q.shape[1]
        iu, ju = np.triu_indices(d)
        rows_i = np.concatenate([iu, np.arange(d), [-1]]).astype(np.int32)
        rows_j = np.concatenate([ju, np.full(d, -1), [-1]]).astype(np.int32)
        vals = np.concatenate([(Q.T @ Q)[iu, ju], Q.sum(axis=0),
                               [len(df)]]).astype(np.int64)
        return pd.DataFrame({"i": rows_i, "j": rows_j, "v": vals})

    return partial_aggregate(
        emb.map_batches(batch_stats, batch_format="pandas"),
        ["i", "j"], {"v": ("sum", "v")}).map_batches(
            lambda df: df.astype({"i": "int32", "j": "int32",
                                  "v": "int64"}),
            batch_format="pandas")


def kmeans_lloyd_int(emb: rd.Dataset, k: int = 8, n_rounds: int = 2,
                     vec_col: str = "embedding", id_col: str = "vec_id",
                     scale: int = 1000, return_centroids: bool = False):
    """Lloyd's k-means over the embedding column, ALL-INTEGER so a SQL
    oracle can replay every round bit-for-bit
    (queries.ORACLE_SQL['kmeans_embeddings']): vectors quantize to
    integer millis (the embedding_moments away-from-zero convention),
    squared distances are exact int64, ties break to the lowest
    centroid id, and the centroid update is floor(Σq / n) — written as
    FLOOR over a double on BOTH sides because DuckDB's // truncates
    toward zero on negatives while numpy floors.

    Distribution shape per round: the map function holds the centroids
    (k×d ints); ONE fused map assigns every vector and emits per-batch
    (cluster, dim) partial sums, folded by the bucketed combiner into
    a k×d table — the classic "k-means is a sum of assignments"
    factorization, so the exchange is k×d×blocks rows regardless of
    corpus size. Empty clusters die exactly as the SQL GROUP BY drops
    them. Returns the final (id, cluster, dist2) assignment."""
    from .relops import grouped_topk, partial_aggregate

    def quant(df: pd.DataFrame) -> np.ndarray:
        return _quant_away(_stack(df[vec_col]), scale)

    # deterministic seeds: the k lowest ids (SQL: ORDER BY id LIMIT k)
    seed_ids = (grouped_topk(emb.select_columns([id_col]), [], [id_col], k,
                             ascending=True)
        .to_pandas()[id_col].sort_values().to_numpy())
    seed_rows = emb.map_batches(
        lambda df: df[df[id_col].isin(seed_ids)],
        batch_format="pandas").to_pandas().sort_values(id_col)
    C = quant(seed_rows)            # row r = centroid id r
    live = np.arange(len(C))        # original centroid ids, in order

    def dist2_matrix(Q: np.ndarray, C_: np.ndarray) -> np.ndarray:
        return ((Q * Q).sum(axis=1)[:, None] - 2 * (Q @ C_.T)
                + (C_ * C_).sum(axis=1)[None, :])

    for _ in range(n_rounds - 1):
        # runs inside this round: the closure ships this round's C, live
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            Q = quant(df)
            a = np.argmin(dist2_matrix(Q, C), axis=1)
            kk, d = C.shape
            s = np.zeros((kk, d), dtype=np.int64)
            np.add.at(s, a, Q)
            n = np.bincount(a, minlength=kk).astype(np.int64)
            ci, di = np.nonzero(np.ones_like(s))
            return pd.DataFrame({"c": live[ci], "i": di,
                                 "s": s[ci, di], "n": n[ci]})

        agg = (partial_aggregate(
            emb.map_batches(partial, batch_format="pandas"),
            ["c", "i"], {"s": ("sum", "s"), "n": ("sum", "n")})
            .to_pandas())
        agg = agg[agg["n"] > 0].sort_values(["c", "i"])
        live = agg["c"].unique()            # empty clusters die
        C = np.floor(agg["s"].to_numpy(np.float64)
                     / agg["n"].to_numpy(np.float64)) \
            .astype(np.int64).reshape(len(live), -1)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        Q = quant(df)
        D = dist2_matrix(Q, C)
        a = np.argmin(D, axis=1)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cluster": live[a].astype(np.int64),
            "dist2": D[np.arange(len(Q)), a].astype(np.int64)})

    out = emb.map_batches(assign, batch_format="pandas")
    if return_centroids:
        # the (C, live) pair the FINAL assignment used — what an
        # incremental assign-new-data pass needs (kmeans_assign_new)
        return out, C, live
    return out


class FilteredBatchTopK:
    """BatchTopK with a metadata predicate: each query only scores
    batch rows whose ``label`` equals the query's own label (the
    filtered-vector-search serving shape — per-tenant / per-shard ANN).
    The instance carries query ids, matrix AND labels to every task."""

    def __init__(self, qids, qmat, qlab, k: int,
                 id_col: str, vec_col: str, label_col: str) -> None:
        self.qids, self.qmat, self.qlab = qids, qmat, qlab
        self.k, self.id_col = k, id_col
        self.vec_col, self.label_col = vec_col, label_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids = df[self.id_col].to_numpy()
        labs = df[self.label_col].to_numpy()
        m = _normalize(_stack(df[self.vec_col]))
        sims = self.qmat @ m.T
        out_q, out_n, out_s = [], [], []
        for qi in range(sims.shape[0]):
            ok = np.flatnonzero(labs == self.qlab[qi])
            if not len(ok):
                continue
            k = min(self.k + 1, len(ok))
            top = ok[np.argpartition(-sims[qi][ok], k - 1)[:k]]
            out_q.append(np.full(len(top), self.qids[qi], dtype=np.int64))
            out_n.append(ids[top])
            out_s.append(sims[qi][top])
        if not out_q:
            return pd.DataFrame({
                "query_id": pd.Series([], dtype=np.int64),
                "neighbor_id": pd.Series([], dtype=np.int64),
                "sim": pd.Series([], dtype=np.float64)})
        return pd.DataFrame({
            "query_id": np.concatenate(out_q),
            "neighbor_id": np.concatenate(out_n).astype(np.int64),
            "sim": np.concatenate(out_s)})


def filtered_topk(emb: rd.Dataset, query_ids: Sequence[int], k: int = 5,
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  label_col: str = "label") -> pd.DataFrame:
    """Exact FILTERED cosine top-k: neighbors restricted to the query's
    own label partition. Same bounded-candidate shape as
    brute_force_topk (blocks emit per-query partial top-k, the merge
    sees blocks x nq x (k+1) rows); the label predicate applies INSIDE
    the scoring kernel, so non-matching rows cost one mask, not a
    shuffle. Returns (query_id, neighbor_id, rank)."""
    qset = set(int(q) for q in query_ids)
    qdf = (emb.map_batches(
        lambda df: df[df[id_col].isin(qset)][[id_col, vec_col, label_col]],
        batch_format="pandas").to_pandas())
    qdf = qdf.sort_values(id_col, ignore_index=True)
    qids = qdf[id_col].to_numpy()
    qmat = _normalize(_stack(qdf[vec_col]))
    qlab = qdf[label_col].to_numpy()
    cand = emb.map_batches(
        FilteredBatchTopK(qids, qmat, qlab, k, id_col, vec_col, label_col),
        batch_format="pandas", batch_size=4096)
    df = cand.to_pandas()
    df = df[df["query_id"] != df["neighbor_id"]]
    df = df.sort_values(["query_id", "sim", "neighbor_id"],
                        ascending=[True, False, True], ignore_index=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    out = df[df["rank"] <= k][["query_id", "neighbor_id", "rank"]]
    out["rank"] = out["rank"].astype(np.int64)
    return out.reset_index(drop=True)
