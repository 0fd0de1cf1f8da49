"""Distributed graph analytics over derived document graphs.

PageRank here is ALL-INTEGER (milli-unit ranks, floor-division
contributions), which buys two things at once: floating sums over an
unordered edge list would be block-layout-dependent, and integer
arithmetic lets a SQL oracle replay every iteration bit-for-bit
(queries.ORACLE_SQL['pagerank_dups']). The public power-iteration
method; damping 0.85 expressed as integer 85/100 ops."""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import ray.data as rd

from .relops import hash_join, partial_aggregate


def pagerank_int(edges: rd.Dataset, n_iter: int = 3,
                 src_col: str = "src", dst_col: str = "dst") -> rd.Dataset:
    """Integer-milli PageRank over an UNDIRECTED edge list (pass each
    pair once; it is symmetrized here). Per iteration: every node
    sends rank_mu // degree along each edge (one partitioned hash
    join of the rank table onto the edge list, with the per-dst
    reduce fused into the join buckets), then
    rank'_mu = 150 + (85 · Σ contributions) // 100.

    Everything that moves is (node, int) rows — the edge list is
    joined, never broadcast; ranks live in a Dataset between rounds
    (checkpointed per iteration: each round's join consumes the rank
    table once per side, and lazy re-execution would replay all prior
    rounds). Isolated nodes are out of scope (no edges = no rank
    flow). Returns (node, rank_mu)."""

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": np.concatenate([df[src_col].to_numpy(),
                                   df[dst_col].to_numpy()]),
            "dst": np.concatenate([df[dst_col].to_numpy(),
                                   df[src_col].to_numpy()])})

    # symmetrized edges feed BOTH the degree aggregate and the edge
    # join; materialize once so the upstream pair derivation runs once
    e = edges.map_batches(sym, batch_format="pandas").materialize()
    deg = partial_aggregate(e, ["src"], {"deg": ("count", None)})
    # (src, dst, deg(src)) — static across iterations; the join's
    # output is materialized
    ed = hash_join(e, deg, "src", "src",
                   left_cols=["src", "dst"],
                   right_cols=["src", "deg"])

    ranks = deg.map_batches(
        lambda df: pd.DataFrame({"node": df["src"].to_numpy(),
                                 "rank_mu": np.full(len(df), 1000,
                                                    dtype=np.int64)}),
        batch_format="pandas").materialize()

    for _ in range(n_iter):
        def contrib(df: pd.DataFrame) -> pd.DataFrame:
            c = (df["rank_mu"].to_numpy(np.int64)
                 // df["deg"].to_numpy(np.int64))
            out = pd.DataFrame({"node": df["dst"].to_numpy(), "s": c})
            return (out.groupby("node", sort=False, as_index=False)
                    .agg(s=("s", "sum")).infer_objects())

        j = hash_join(ed, ranks, "src", "node",
                      left_cols=["src", "dst", "deg"],
                      right_cols=["node", "rank_mu"],
                      bucket_fn=contrib)
        s = partial_aggregate(j, ["node"], {"s": ("sum", "s")})
        ranks = s.map_batches(
            lambda df: pd.DataFrame(
                {"node": df["node"].to_numpy(),
                 "rank_mu": 150 + (85 * df["s"].to_numpy(np.int64)) // 100}),
            batch_format="pandas").materialize()
    return ranks


def kcore_peel(edges: rd.Dataset, k: int = 2, n_rounds: int = 4,
               src_col: str = "src", dst_col: str = "dst") -> rd.Dataset:
    """k-core peel over an undirected canonical edge list: each round
    recomputes degrees and drops every edge touching a node with
    degree < k — after enough rounds the survivors are exactly the
    k-core (the "mutually supported" dup subgraph that separates a
    dense mirror farm from chains of incidental overlaps).

    A FIXED round count keeps the result replayable: the SQL oracle
    (queries.ORACLE_SQL['kcore_dups'], generated from the same k and
    n_rounds) re-runs each round verbatim, so correctness does not
    depend on detecting a fixpoint. Callers needing certainty of
    convergence compare round R-1 and R survivor counts — each round's
    degree table is sketch-sized (one (node, deg) row per live node)
    and the check is one count. Everything distributed: degrees via the
    bucketed partial aggregate, the peel via two partitioned joins of
    the degree table onto the edge list per round; nothing
    corpus-sized reaches the driver. Returns (node, deg) for nodes
    alive after n_rounds, with deg measured on the surviving edges."""

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].to_numpy()
        b = df[dst_col].to_numpy()
        return pd.DataFrame({"a": np.minimum(a, b),
                             "b": np.maximum(a, b)}).drop_duplicates()

    e = partial_aggregate(
        edges.map_batches(canon, batch_format="pandas"),
        ["a", "b"], {"_c": ("count", None)}).drop_columns(["_c"]).materialize()

    def degrees(ed: rd.Dataset) -> rd.Dataset:
        sym = ed.map_batches(
            lambda df: pd.DataFrame({"node": np.concatenate(
                [df["a"].to_numpy(), df["b"].to_numpy()])}),
            batch_format="pandas")
        return partial_aggregate(sym, ["node"], {"deg": ("count", None)})

    for _ in range(n_rounds):
        # join degrees onto both endpoints; an edge survives iff both
        # ends currently have degree >= k (the degree table feeds two
        # joins; an aggregate's output is materialized, so neither
        # replays a prior round)
        deg = degrees(e)
        ja = hash_join(e, deg, "a", "node", left_cols=["a", "b"],
                       right_cols=["node", "deg"])
        ja = ja.map_batches(
            lambda df: df[df["deg"] >= k][["a", "b"]],
            batch_format="pandas")
        jb = hash_join(ja, deg, "b", "node", left_cols=["a", "b"],
                       right_cols=["node", "deg"])
        e = jb.map_batches(
            lambda df: df[df["deg"] >= k][["a", "b"]],
            batch_format="pandas").materialize()
    return degrees(e)


def triangle_node_counts(edges: rd.Dataset, src_col: str = "src",
                         dst_col: str = "dst") -> rd.Dataset:
    """EXACT per-node triangle participation counts (how many triangles
    each node sits in) — the local-clustering signal that separates a
    template hub from a genuine copy clique in a duplication graph.

    Node-iterator shape on canonical a<b edges, fully as joins:
    wedges (a,b,c with a<b<c) come from ONE partitioned self-join of
    the edge list on its middle node, and are closed by a second
    partitioned join against the edge list on the composite (a,c) key.
    Every triangle is generated exactly once (the a<b<c orientation is
    forced by canonicalization, so no /3 correction and no double
    counts). What moves: edge rows twice and wedge rows once — the
    wedge volume is the Σ deg² bound, the price every exact triangle
    count pays; at 100 TB the standard mitigation is cutting hub nodes
    (degree > cap) first, which this deliberately does NOT do silently
    — filter upstream if a cap is wanted. Returns (node, n_triangles)
    covering nodes in ≥1 triangle."""

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].to_numpy()
        b = df[dst_col].to_numpy()
        return pd.DataFrame({"a": np.minimum(a, b),
                             "b": np.maximum(a, b)}).drop_duplicates()

    # block-local dedup above; cross-block dup edges are removed by the
    # bucketed count (an edge's copies all hash to one bucket)
    e = partial_aggregate(
        edges.map_batches(canon, batch_format="pandas"),
        ["a", "b"], {"_c": ("count", None)}).drop_columns(["_c"]).materialize()

    mid = e.map_batches(
        lambda df: pd.DataFrame({"b2": df["a"].to_numpy(),
                                 "c": df["b"].to_numpy()}),
        batch_format="pandas")
    wedges = hash_join(e, mid, "b", "b2", left_cols=["a", "b"],
                       right_cols=["b2", "c"])

    def ac_key(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["ac"] = (out["a"].astype("int64").astype(str) + ":"
                     + out["c"].astype("int64").astype(str))
        return out

    wk = wedges.map_batches(ac_key, batch_format="pandas")
    ek = e.map_batches(
        lambda df: pd.DataFrame({
            "ac": (df["a"].astype("int64").astype(str) + ":"
                   + df["b"].astype("int64").astype(str))}),
        batch_format="pandas")
    tri = hash_join(wk, ek, "ac", "ac", left_cols=["a", "b", "c", "ac"],
                    right_cols=["ac"])

    def explode_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": np.concatenate(
            [df["a"].to_numpy(), df["b"].to_numpy(), df["c"].to_numpy()])})

    return partial_aggregate(
        tri.map_batches(explode_nodes, batch_format="pandas"),
        ["node"], {"n_triangles": ("count", None)})


def common_neighbor_counts(edges: rd.Dataset, src_col: str = "src",
                           dst_col: str = "dst",
                           weight_unit: Optional[int] = None) -> rd.Dataset:
    """Common-neighbor link prediction over an undirected graph: for
    every NON-adjacent node pair at distance exactly 2, the number of
    shared neighbors — the classic "these two mirrors duplicate the
    same third site but not yet each other" candidate score a dup-graph
    audit ranks before a deeper (fuzzy/manual) comparison.

    Wedge-join shape on canonical a<b edges, fully distributed: the
    symmetrized adjacency self-joins on its middle node (one
    partitioned hash join, a<c forced inside the join bucket with the
    per-pair count pre-reduced there), then the open-wedge filter is a
    LEFT join against the edge list on the composite (a,c) key keeping
    only unmatched rows — an anti-join, not a broadcast. What moves is
    the Σ deg² wedge volume (the exact-triangle price; cap hub degrees
    upstream if that bound is too hot at 100 TB — deliberately not done
    silently here). Returns (a, b, n_common) with a < b, non-edges
    only, n_common >= 1.

    ``weight_unit``: when set, each wedge through middle node m
    contributes ``weight_unit // deg(m)`` instead of 1 — the
    resource-allocation index (Zhou et al. 2009), which discounts
    common neighbors that are promiscuous hubs; purely rational so the
    SQL oracle replays it exactly. Costs one extra bounded aggregate
    (the degree table) and one partitioned join of it onto the
    adjacency."""

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].to_numpy()
        b = df[dst_col].to_numpy()
        return pd.DataFrame({"a": np.minimum(a, b),
                             "b": np.maximum(a, b)}).drop_duplicates()

    e = partial_aggregate(
        edges.map_batches(canon, batch_format="pandas"),
        ["a", "b"], {"_c": ("count", None)}).drop_columns(["_c"]).materialize()

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "m": np.concatenate([df["a"].to_numpy(), df["b"].to_numpy()]),
            "n": np.concatenate([df["b"].to_numpy(), df["a"].to_numpy()])})

    sa = e.map_batches(sym, batch_format="pandas")
    sb = e.map_batches(
        lambda df: sym(df).rename(columns={"m": "m2", "n": "c"}),
        batch_format="pandas")
    left_cols = ["m", "n"]
    if weight_unit is not None:
        deg = partial_aggregate(
            sa.map_batches(lambda df: df[["m"]], batch_format="pandas"),
            ["m"], {"deg": ("count", None)})
        sa = hash_join(
            sa, deg, "m", "m", left_cols=["m", "n"],
            right_cols=["m", "deg"],
            bucket_fn=lambda df: df.assign(
                w=weight_unit // df["deg"].to_numpy(np.int64))
            [["m", "n", "w"]])
        left_cols = ["m", "n", "w"]

    def wedge(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["n"] < df["c"]]
        w = (d["w"].to_numpy(np.int64) if weight_unit is not None
             else np.ones(len(d), dtype=np.int64))
        out = pd.DataFrame({"a": d["n"].to_numpy(),
                            "c": d["c"].to_numpy(),
                            "n_common": w})
        return (out.groupby(["a", "c"], sort=False, as_index=False)
                .agg(n_common=("n_common", "sum")).infer_objects())

    wedges = hash_join(sa, sb, "m", "m2", left_cols=left_cols,
                       right_cols=["m2", "c"],
                       bucket_fn=wedge)
    cn = partial_aggregate(wedges, ["a", "c"],
                           {"n_common": ("sum", "n_common")})

    def ac_key(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["ac"] = (out["a"].astype("int64").astype(str) + ":"
                     + out["c"].astype("int64").astype(str))
        return out

    ek = e.map_batches(
        lambda df: pd.DataFrame({
            "ac": (df["a"].astype("int64").astype(str) + ":"
                   + df["b"].astype("int64").astype(str)),
            "_edge": np.ones(len(df), dtype=np.int8)}),
        batch_format="pandas")

    def open_only(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["_edge"].isna()]
        return pd.DataFrame({
            "a": d["a"].astype(np.int64).to_numpy(),
            "b": d["c"].astype(np.int64).to_numpy(),
            "n_common": d["n_common"].astype(np.int64).to_numpy()})

    return hash_join(cn.map_batches(ac_key, batch_format="pandas"), ek,
                     "ac", "ac", how="left",
                     left_cols=["a", "c", "n_common", "ac"],
                     right_cols=["ac", "_edge"],
                     bucket_fn=open_only)


def weighted_pagerank_int(edges: rd.Dataset, n_iter: int = 3,
                          src_col: str = "src", dst_col: str = "dst",
                          w_col: str = "w") -> rd.Dataset:
    """pagerank_int with EDGE WEIGHTS: each node sends
    (rank_mu * w_edge) // W_node along each edge (W_node = its total
    outgoing weight), so a 5-shared-chunk duplication pulls five times
    the rank of an incidental 1-chunk overlap. Same all-integer /
    Dataset-between-rounds discipline as the unweighted twin; the SQL
    oracle replays the floor-division chain exactly. Returns
    (node, rank_mu)."""

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": np.concatenate([df[src_col].to_numpy(),
                                   df[dst_col].to_numpy()]),
            "dst": np.concatenate([df[dst_col].to_numpy(),
                                   df[src_col].to_numpy()]),
            "w": np.concatenate([df[w_col].to_numpy(np.int64),
                                 df[w_col].to_numpy(np.int64)])})

    e = edges.map_batches(sym, batch_format="pandas").materialize()
    tw = partial_aggregate(e, ["src"], {"tw": ("sum", "w")})
    ed = hash_join(e, tw, "src", "src",
                   left_cols=["src", "dst", "w"],
                   right_cols=["src", "tw"])

    ranks = tw.map_batches(
        lambda df: pd.DataFrame({"node": df["src"].to_numpy(),
                                 "rank_mu": np.full(len(df), 1000,
                                                    dtype=np.int64)}),
        batch_format="pandas").materialize()

    for _ in range(n_iter):
        def contrib(df: pd.DataFrame) -> pd.DataFrame:
            c = ((df["rank_mu"].to_numpy(np.int64)
                  * df["w"].to_numpy(np.int64))
                 // df["tw"].to_numpy(np.int64))
            out = pd.DataFrame({"node": df["dst"].to_numpy(), "s": c})
            return (out.groupby("node", sort=False, as_index=False)
                    .agg(s=("s", "sum")).infer_objects())

        j = hash_join(ed, ranks, "src", "node",
                      left_cols=["src", "dst", "w", "tw"],
                      right_cols=["node", "rank_mu"],
                      bucket_fn=contrib)
        s = partial_aggregate(j, ["node"], {"s": ("sum", "s")})
        ranks = s.map_batches(
            lambda df: pd.DataFrame(
                {"node": df["node"].to_numpy(),
                 "rank_mu": 150 + (85 * df["s"].to_numpy(np.int64)) // 100}),
            batch_format="pandas").materialize()
    return ranks
