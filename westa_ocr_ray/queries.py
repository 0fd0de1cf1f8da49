"""Operator-coverage query suite over the driver's testdata tables plus
the fixture-corpus extraction pipelines.

Each function takes ``sf_dir`` and returns a Dataset / DataFrame /
pyarrow Table. Names of computed columns MATCH the oracle SQL in
ORACLE_SQL exactly (the driver hash-compares values after sorting
columns by name). Aggregates are integer-safe (cents / casts) so value
hashes don't wobble on float summation order.

Coverage map (SURVEY.md §2 op → query):
  G1/G4 g1_lineitem_agg · G3 g3_count_orders · J1 j1_region_revenue ·
  J2 dedup_exact · J4/M11 j4_customer_order_counts · M9 m9_status_filter
  · O1 o1_first_line_partkey · O3 o3_topk_recent_events · M1
  m1_explode_tokens · M2 parse_detail_rows (structured detail-row parse,
  GAS :346-407 twin) · M3 m3_regex_first_word · M4 m4_priority_code ·
  M5 events_daily · M8 m8_mask_props · S1-S6/A1/G1/O1 extract_* +
  ingest_flat_documents (full pipeline, SQL-checkable on the flat
  corpus; fixture oracle = tests/test_pipeline_e2e.py).
Beyond the reference: dedup_* incl. planted-oracle minhash, SQL-exact
  simhash, chunk-level shared-substring pairs, and clean_corpus chains;
  sim_* (brute / LSH / IVF); text_* (quality, langid, BPE-ish token
  counts, LM surprisal scoring, z-score normalization, fingerprints);
  sketches (HLL, histogram quantiles with exact oracle, Misra-Gries
  heavy hitters); mm_* (featurize / frame-sample / resize plumbing);
  events windows/sessions; as-of + range + multi-way joins; grouped
  median; embedding centroids. Full table in README.md.
"""

from __future__ import annotations

import hashlib
import re
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from . import dedup, extractors, fixtures, multimodal, relops, search, similarity, text_analysis
from .config import ExtractConfig
from .pipelines.extract import extract_dataset, read_documents
from .relops import (exchange, grouped_topk, hash_join, partial_aggregate,
                     per_key)
from .storage import (DATASET_CONSTRUCTION_LOCK, commit_dir,
                      committed_generations, input_cache_dir, input_key,
                      json_cache, read_table)


def rp(sf_dir: str, name: str, columns: Optional[List[str]] = None) -> rd.Dataset:
    return read_table(f"{sf_dir}/{name}.parquet", columns)


def _cents(x: pd.Series) -> pd.Series:
    """Money in whole cents, rounded half away from zero as the oracles'
    DuckDB ``round(value * 100)`` rounds (``np.round`` rounds half to
    even)."""
    return pd.Series(similarity._quant_away(x, 100), index=x.index,
                     name=x.name)


# ------------------------------------------------------------ TPC-H-ish

def g1_lineitem_agg(sf_dir: str) -> rd.Dataset:
    """Per-group reduce with a per-batch combiner (G1/G4): only partials
    shuffle."""
    li = rp(sf_dir, "lineitem",
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "l_linestatus": df["l_linestatus"],
            "qty": df["l_quantity"].astype("int64"),
            "price_cents": _cents(df["l_extendedprice"]),
        })

    return partial_aggregate(li.map_batches(prep, batch_format="pandas"),
                             ["l_returnflag", "l_linestatus"],
                             {"sum_qty": ("sum", "qty"),
                              "sum_price_cents": ("sum", "price_cents"),
                              "n_rows": ("count", None)})


def g3_count_orders(sf_dir: str) -> pa.Table:
    n = rp(sf_dir, "orders", ["o_orderkey"]).count()
    return pa.table({"n_orders": pa.array([n], type=pa.int64())})


def j1_region_revenue(sf_dir: str) -> rd.Dataset:
    """Broadcast dimension join (J1): customer→nation→region collapsed to
    one small lookup that the orders map holds (Ray Data puts a map
    stage's function in the object store once); orders stream."""
    cust = rp(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nat = rp(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    reg = rp(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    dim = (cust.merge(nat, left_on="c_nationkey", right_on="n_nationkey")
               .merge(reg, left_on="n_regionkey", right_on="r_regionkey")
               [["c_custkey", "r_name"]]
               .rename(columns={"c_custkey": "o_custkey"}))
    orders = rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df.merge(dim, on="o_custkey")
        return pd.DataFrame({"r_name": df["r_name"],
                             "total_cents": _cents(df["o_totalprice"])})

    return partial_aggregate(orders.map_batches(prep, batch_format="pandas"),
                             ["r_name"],
                             {"n_orders": ("count", None),
                              "total_cents": ("sum", "total_cents")})


def j4_customer_order_counts(sf_dir: str) -> rd.Dataset:
    """Large-large partitioned hash join (J4) + keep-zero-rows semantics
    (M11): every customer gets a row even with no orders."""
    counts = partial_aggregate(rp(sf_dir, "orders", ["o_custkey"]),
                               ["o_custkey"], {"n_orders": ("count", None)})
    cust = rp(sf_dir, "customer", ["c_custkey"])
    joined = hash_join(cust, counts, "c_custkey", "o_custkey", how="left",
                       left_cols=["c_custkey"],
                       right_cols=["o_custkey", "n_orders"])

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c_custkey": df["c_custkey"].astype("int64"),
            "n_orders": df["n_orders"].fillna(0).astype("int64"),
        })

    return joined.map_batches(fill, batch_format="pandas")


def m9_status_filter(sf_dir: str) -> rd.Dataset:
    orders = rp(sf_dir, "orders", ["o_orderstatus"])
    filt = orders.map_batches(
        lambda t: t.filter(pa.compute.is_in(t["o_orderstatus"],
                                            value_set=pa.array(["O", "F"]))),
        batch_format="pyarrow")
    return partial_aggregate(filt, ["o_orderstatus"], {"n": ("count", None)})


def o1_first_line_partkey(sf_dir: str) -> rd.Dataset:
    """Within-group order reassembly (O1): argmin-by-linenumber via an
    encoded min aggregate (fully vectorized, no per-group python)."""
    li = rp(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_partkey"])

    def enc(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"],
            "enc": df["l_linenumber"].astype("int64") * 10**10
                   + df["l_partkey"].astype("int64"),
        })

    agg = partial_aggregate(li.map_batches(enc, batch_format="pandas"),
                            ["l_orderkey"], {"enc_min": ("min", "enc")})

    def dec(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"],
            "first_partkey": (df["enc_min"] % 10**10).astype("int64"),
        })

    return agg.map_batches(dec, batch_format="pandas")


def o3_topk_recent_events(sf_dir: str) -> pd.DataFrame:
    """Top-100 by recency WITHOUT a global sort: per-batch partial
    top-k, then a tiny ≤100×num_blocks driver merge (the
    brute_force_topk pattern — a full all-to-all sort for a top-100 is
    pure shuffle waste)."""
    ev = rp(sf_dir, "events", ["event_id", "ts", "event_type"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["ts", "event_id"], ascending=False).head(100)

    small = ev.map_batches(topk, batch_format="pandas").to_pandas()
    return (small.sort_values(["ts", "event_id"], ascending=False,
                              ignore_index=True).head(100))


def m1_explode_tokens(sf_dir: str) -> rd.Dataset:
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        out = df.assign(token=df["text"].str.split(" "))[["doc_id", "token"]]
        return out.explode("token", ignore_index=True)

    return docs.map_batches(explode, batch_format="pandas")


def m3_regex_first_word(sf_dir: str) -> rd.Dataset:
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    pat = re.compile(r"^([a-z]+)")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "first_word": [m.group(1) if (m := pat.match(t)) else "" for t in df["text"]],
        })

    return docs.map_batches(fn, batch_format="pandas")


def m4_priority_code(sf_dir: str) -> rd.Dataset:
    orders = rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    pat = re.compile(r"^([0-9]+)")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": df["o_orderkey"],
            "prio_code": [m.group(1) if (m := pat.match(p)) else ""
                          for p in df["o_orderpriority"]],
        })

    return orders.map_batches(fn, batch_format="pandas")


def m_props_json(sf_dir: str) -> rd.Dataset:
    """JSON-in-TEXT parsing (the reference stores nested objects as JSON
    strings, repository.py:153-157): extract props.k per event."""
    import json as _json

    ev = rp(sf_dir, "events", ["event_id", "props"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"],
            "k_val": [int(_json.loads(p).get("k", -1)) for p in df["props"]],
        })

    return ev.map_batches(fn, batch_format="pandas")


def top_tokens_per_doc(sf_dir: str) -> rd.Dataset:
    """Top-3 tokens per document by frequency (ties → lexicographic) —
    per-doc TF summarization, fully inside map_batches."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        ids, toks, ranks = [], [], []
        for did, text in zip(df["doc_id"], df["text"]):
            counts = Counter(t for t in text.split(" ") if t)
            best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
            for r, (tok, _n) in enumerate(best, start=1):
                ids.append(did)
                toks.append(tok)
                ranks.append(r)
        return pd.DataFrame({"doc_id": ids, "token": toks,
                             "rk": np.array(ranks, dtype=np.int64)})

    return docs.map_batches(fn, batch_format="pandas")


def part_brand_stats(sf_dir: str) -> rd.Dataset:
    parts = rp(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"p_brand": df["p_brand"],
                             "size": df["p_size"].astype("int64"),
                             "price_cents": _cents(df["p_retailprice"])})

    return partial_aggregate(parts.map_batches(prep, batch_format="pandas"),
                             ["p_brand"],
                             {"n_parts": ("count", None),
                              "sum_size": ("sum", "size"),
                              "max_price_cents": ("max", "price_cents")})


def events_daily(sf_dir: str) -> rd.Dataset:
    ev = rp(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "day": df["ts"].dt.strftime("%Y-%m-%d"),
            "value_cents": _cents(df["value"]),
        })

    return partial_aggregate(ev.map_batches(prep, batch_format="pandas"),
                             ["event_type", "day"],
                             {"n": ("count", None),
                              "sum_value_cents": ("sum", "value_cents")})


def m8_mask_props(sf_dir: str) -> rd.Dataset:
    ev = rp(sf_dir, "events", ["event_id", "props"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"],
            "masked_props": df["props"].str.replace(r"[0-9]", "#", regex=True),
        })

    return ev.map_batches(fn, batch_format="pandas")


def q3_mktsegment_revenue(sf_dir: str) -> rd.Dataset:
    """Three-table large-large join (lineitem ⋈ orders ⋈ customer) via
    two partitioned hash joins, then a bucketed aggregate per market
    segment — the multi-way-join shape."""
    cust = rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    li = rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    ord_seg = hash_join(orders, cust, "o_custkey", "c_custkey",
                        left_cols=["o_orderkey", "o_custkey"],
                        right_cols=["c_custkey", "c_mktsegment"])
    joined = hash_join(li, ord_seg, "l_orderkey", "o_orderkey",
                       left_cols=["l_orderkey", "l_extendedprice", "l_discount"],
                       right_cols=["o_orderkey", "o_custkey", "c_mktsegment"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        # price has 2 decimals, discount 2 → the product has exactly 4:
        # scale by 10^4 so the rounded value is never a .5 tie (numpy
        # rounds half-to-even, DuckDB half-away-from-zero)
        return pd.DataFrame({
            "c_mktsegment": df["c_mktsegment"],
            "rev_e4": np.round(df["l_extendedprice"] * (1 - df["l_discount"])
                               * 10**4).astype("int64"),
        })

    return partial_aggregate(joined.map_batches(prep, batch_format="pandas"),
                             ["c_mktsegment"],
                             {"n_lines": ("count", None),
                              "revenue_e4": ("sum", "rev_e4")})


def median_value_by_type(sf_dir: str) -> pd.DataFrame:
    """EXACT grouped median, fully distributed in two bounded passes (no
    per-key group ever holds a key's full row set — a skewed key cannot
    blow up a worker, VERDICT r2 #3):

    1. histogram: bucketed (type, bin) counts — driver sees only the
       sketch-sized histogram;
    2. the driver locates the bin(s) holding the median rank(s), then a
       second filtered pass aggregates (type, exact_value) counts INSIDE
       those bins only — ≤ bin_width distinct values per type cross the
       wire, independent of row count.

    Even-count medians average the two middle values, matching
    pandas/DuckDB `median` exactly."""
    W = 500  # bin width in cents: caps pass-2 traffic at W values/type
    ev = rp(sf_dir, "events", ["event_type", "value"])

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["value"])
        return pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                             "bin": cents // W})

    hist = partial_aggregate(ev.map_batches(binned, batch_format="pandas"),
                             ["event_type", "bin"],
                             {"cnt": ("count", None)}).to_pandas()

    # per type: 1-based ranks of the two middle values (equal when odd)
    want: dict = {}   # event_type -> {bin: [(rank_within_type, global_rank)]}
    ranks: dict = {}  # event_type -> [(rank, bin, count_below_bin)]
    for etype, g in hist.groupby("event_type"):
        g = g.sort_values("bin", ignore_index=True)
        cum = g["cnt"].cumsum().to_numpy()
        n = int(cum[-1])
        for rank in ((n + 1) // 2, n // 2 + 1):
            i = int(np.searchsorted(cum, rank))
            below = int(cum[i - 1]) if i else 0
            b = int(g["bin"][i])
            want.setdefault(etype, set()).add(b)
            ranks.setdefault(etype, []).append((rank, b, below))

    def in_median_bins(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["value"])
        bins = cents // W
        keep = np.fromiter(
            (b in want.get(t, ()) for t, b in zip(df["event_type"], bins)),
            dtype=bool, count=len(df))
        return pd.DataFrame({"event_type": df["event_type"].to_numpy()[keep],
                             "cents": cents.to_numpy()[keep]})

    vals = partial_aggregate(ev.map_batches(in_median_bins, batch_format="pandas"),
                             ["event_type", "cents"],
                             {"cnt": ("count", None)}).to_pandas()

    out_t, out_m = [], []
    for etype, rs in sorted(ranks.items()):
        g = vals[vals["event_type"] == etype].sort_values("cents",
                                                          ignore_index=True)
        picked = []
        for rank, b, below in rs:
            sub = g[g["cents"] // W == b]
            cum = sub["cnt"].cumsum().to_numpy()
            j = int(np.searchsorted(cum, rank - below))
            picked.append(int(sub["cents"].iloc[j]))
        out_t.append(etype)
        out_m.append((picked[0] + picked[1]) / 2.0)
    return pd.DataFrame({"event_type": out_t,
                         "median_cents": np.array(out_m, dtype=np.float64)})


def heavy_hitter_tokens(sf_dir: str) -> pd.DataFrame:
    """Misra-Gries heavy hitters over the exploded token stream — the
    memory-bounded streaming counterpart of top_bigrams (approximate by
    design: guarantee-gated in tests/test_sketches.py)."""
    from . import sketches

    docs = rp(sf_dir, "documents", ["text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        out = df.assign(token=df["text"].str.split(" "))[["token"]]
        return out.explode("token", ignore_index=True).dropna()

    toks = docs.map_batches(explode, batch_format="pandas")
    return sketches.heavy_hitters(toks, "token", k=20)


def approx_distinct_users(sf_dir: str) -> pa.Table:
    """HLL approximate distinct user count (sketches.py) — approximate,
    so no SQL oracle; tests assert the error bound vs exact. The
    driver-visible VALUE check of the same machinery is
    hll_user_registers below (md5-parity registers, exact SQL)."""
    from .sketches import approx_distinct

    n = approx_distinct(rp(sf_dir, "events", ["user_id"]), "user_id", p=12)
    return pa.table({"n_distinct_users_est": pa.array([n], type=pa.int64())})


HHX_K = 100  # exact-heavy-hitter threshold: tokens with freq > n/100


def heavy_hitters_exact_tokens(sf_dir: str) -> pd.DataFrame:
    """EXACT heavy hitters with exact counts (sketch-then-verify: the
    Misra-Gries candidate sweep, then an exact count of the ≤k-1
    broadcast candidates — sketches.heavy_hitters_exact). Unlike
    heavy_hitter_tokens the output is partition-independent and carries
    a full SQL oracle (GROUP BY HAVING cnt*k > n)."""
    from . import sketches

    docs = rp(sf_dir, "documents", ["text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        out = df.assign(token=df["text"].str.split(" "))[["token"]]
        return out.explode("token", ignore_index=True).dropna()

    toks = docs.map_batches(explode, batch_format="pandas")
    return sketches.heavy_hitters_exact(toks, "token", k=HHX_K)


def length_percentile_filter(sf_dir: str) -> rd.Dataset:
    """Per-language exact-quantile cutoff: drop each language's shortest
    quartile (keep n_chars >= the lang's exact P25 value) — the grouped
    two-bounded-pass order statistic (relops.grouped_percentile_filter),
    no global sort, nothing group-sized on a worker."""
    from .relops import grouped_percentile_filter

    docs = rp(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return grouped_percentile_filter(docs, "lang", "n_chars", 1, 4)


def hll_user_registers(sf_dir: str) -> pd.DataFrame:
    """The HLL register table over events.user_id, md5-parity variant —
    every register value-checked bit-for-bit by DuckDB (the exact twin
    of approx_distinct_users' estimate; sketches.hll_register_table)."""
    from .sketches import hll_register_table

    return hll_register_table(rp(sf_dir, "events", ["user_id"]),
                              "user_id", p=12)


def range_join_balance_band(sf_dir: str) -> rd.Dataset:
    """Range (interval) join: customer–supplier pairs whose account
    balances differ by ≤ 1.0 — banded join: the smaller side replicates
    into adjacent bands (width = the range), the bigger side lands in
    its own band, candidates meet in a band-keyed exchange and the exact
    predicate filters vectorized. No cross product ever materializes."""
    W = 1.0
    cust = rp(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    supp = rp(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])

    def tag_c(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"band": np.floor(df["c_acctbal"] / W).astype("int64"),
                             "c_custkey": df["c_custkey"].astype("int64"),
                             "c_acctbal": df["c_acctbal"]})

    def tag_s(df: pd.DataFrame) -> pd.DataFrame:
        base = np.floor(df["s_acctbal"] / W).astype("int64")
        return pd.concat([  # replicate small side to adjacent bands
            pd.DataFrame({"band": base + shift,
                          "s_suppkey": df["s_suppkey"].astype("int64"),
                          "s_acctbal": df["s_acctbal"]})
            for shift in (-1, 0, 1)], ignore_index=True)

    def band_pairs(c: pd.DataFrame, s: pd.DataFrame) -> pd.DataFrame:
        if c.empty or s.empty:
            return pd.DataFrame({"c_custkey": pd.Series([], dtype="int64"),
                                 "s_suppkey": pd.Series([], dtype="int64")})
        m = c.merge(s, on="band")
        m = m[(m["c_acctbal"] - m["s_acctbal"]).abs() <= W]
        return (m[["c_custkey", "s_suppkey"]]
                .drop_duplicates(ignore_index=True).astype("int64"))

    return exchange((cust, supp), "band", band_pairs, pre=(tag_c, tag_s))


def asof_last_order_before_event(sf_dir: str) -> rd.Dataset:
    """As-of join: for each event, the user's most recent order date at
    or before the event time — exchange both sides on the key, sort
    within the slot, pd.merge_asof backward by key (SCALE.md §joins as-of
    pattern). Events with no prior order drop (inner-asof, matching
    DuckDB ASOF JOIN)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    od = rp(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def tag_e(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_id": df["event_id"],
                             "user_id": df["user_id"].astype("int64"),
                             "ts": df["ts"]})

    def tag_o(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": df["o_custkey"].astype("int64"),
                             "odate": df["o_orderdate"]})

    def bucket_asof(e: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        if e.empty or o.empty:
            return pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                                 "last_order_date": pd.Series([], dtype="object")})
        e = e.sort_values("ts", ignore_index=True)
        o = o.sort_values("odate", ignore_index=True)
        m = pd.merge_asof(e, o, left_on="ts", right_on="odate",
                          by="user_id", direction="backward")
        m = m.dropna(subset=["odate"])
        return pd.DataFrame({"event_id": m["event_id"].astype("int64"),
                             "last_order_date": m["odate"].dt.strftime("%Y-%m-%d")})

    return exchange((ev, od), "user_id", bucket_asof, pre=(tag_e, tag_o))


# ------------------------------------------- streaming-shaped / window

def events_tumbling(sf_dir: str) -> rd.Dataset:
    """Tumbling 5-min windows per event type (the engine's event-time
    window shape: derive the window key in a map, aggregate with the
    bucketed combiner — SCALE.md §windows streaming-shaped workloads)."""
    ev = rp(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        epoch = df["ts"].astype("int64") // 10**6
        return pd.DataFrame({
            "event_type": df["event_type"],
            "window_start": (epoch // 300 * 300).astype("int64"),
            "value_cents": _cents(df["value"]),
        })

    return partial_aggregate(ev.map_batches(prep, batch_format="pandas"),
                             ["event_type", "window_start"],
                             {"n": ("count", None),
                              "sum_value_cents": ("sum", "value_cents")})


def events_value_histogram(sf_dir: str) -> rd.Dataset:
    """Binned histogram of event values per type (bin width 10)."""
    ev = rp(sf_dir, "events", ["event_type", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "bin": (np.floor(df["value"] / 10.0) * 10).astype("int64"),
        })

    return partial_aggregate(ev.map_batches(prep, batch_format="pandas"),
                             ["event_type", "bin"], {"n": ("count", None)})


def events_rolling_sum3(sf_dir: str) -> rd.Dataset:
    """Per-user rolling window: sum of the last 3 events' value-cents
    (including current), ordered by (ts, event_id) — the sliding-window
    aggregate over the per-key ordered log."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["value"])
        roll = (cents.groupby(df["user_id"])
                .rolling(3, min_periods=1).sum()
                .reset_index(drop=True).astype("int64"))
        return pd.DataFrame({"event_id": df["event_id"], "sum3_cents": roll})

    return _bucketed_by_user(ev, fn)


def _bucketed_by_user(ev: rd.Dataset, fn,
                      sort_cols: Optional[List[str]] = None) -> rd.Dataset:
    """Exchange events on user_id and apply fn to each slot's rows
    sorted by ``sort_cols`` (default (user_id, ts, event_id) —
    EVENT-time order; pass (user_id, event_id) for ARRIVAL order, the
    watermark/late-data contract) — the ordered-log pattern for
    per-key windowed/stateful semantics. A slot holds every row of each
    of its users, so fn groups by user_id itself."""
    if sort_cols is None:
        sort_cols = ["user_id", "ts", "event_id"]
    return exchange(ev, "user_id", lambda df: fn(
        df.sort_values(sort_cols, ignore_index=True)))


LATE_WATERMARK_US = 120 * 10**6  # 2-minute allowed lateness


def events_late_flags(sf_dir: str) -> rd.Dataset:
    """Watermark / late-data handling — the out-of-order half of the
    streaming semantics (§2.9): in ARRIVAL order (event_id is the
    ingestion sequence), each event compares its EVENT time against
    the per-user running max seen so far; disorder_us is how far
    behind the frontier it arrived, is_late flags arrivals beyond the
    2-minute watermark (a real stream would route those to a
    correction path instead of the live window). Same ordered-log
    bucket shape as sessionize, just arrival-sorted."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("int64")
        cm = t.groupby(df["user_id"]).cummax()
        prev = cm.groupby(df["user_id"]).shift()
        behind = (prev - t).fillna(0).astype("int64").clip(lower=0)
        late = (behind > LATE_WATERMARK_US).astype("int64")
        return pd.DataFrame({"event_id": df["event_id"],
                             "is_late": late,
                             "disorder_us": behind})

    return _bucketed_by_user(ev, fn, sort_cols=["user_id", "event_id"])


BURST_WINDOW_US = 60 * 10**6  # 60-second sliding burst window


def events_top_burst(sf_dir: str) -> rd.Dataset:
    """Burst detection — the rate-limit / hot-key streaming audit: per
    user, the maximum number of their events inside ANY sliding 60 s
    window ((t-60s, t] per event, peers at the same timestamp
    included — exactly SQL's RANGE frame semantics). Per-user ordered
    buckets + two vectorized searchsorteds per user; exact
    RANGE-window SQL oracle."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("int64").to_numpy()
        u = df["user_id"].to_numpy()
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], len(u)]
        uids, bursts = [], []
        for s, e in zip(starts, ends):
            tu = t[s:e]
            hi = np.searchsorted(tu, tu, side="right")
            lo = np.searchsorted(tu, tu - (BURST_WINDOW_US - 1),
                                 side="left")
            uids.append(int(u[s]))
            bursts.append(int((hi - lo).max()))
        return pd.DataFrame({"user_id": np.array(uids, dtype=np.int64),
                             "max_burst": np.array(bursts, dtype=np.int64)})

    return _bucketed_by_user(ev, fn)


def events_prev_gap(sf_dir: str) -> rd.Dataset:
    """Per-user lag: microseconds since the user's previous event (-1
    for the first) — the as-of/ordered-window primitive."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        prev = df.groupby("user_id")["ts"].shift()
        gap = (df["ts"].astype("int64") - prev.astype("int64"))
        gap = gap.where(prev.notna(), -1).astype("int64")
        return pd.DataFrame({"event_id": df["event_id"], "prev_gap_us": gap})

    return _bucketed_by_user(ev, fn)


def events_sessionize(sf_dir: str) -> rd.Dataset:
    """Per-user session index with a 30-min inactivity gap — session
    windowing over the ordered per-key log."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    GAP_US = 1800 * 10**6

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        prev = df.groupby("user_id")["ts"].shift()
        gap = df["ts"].astype("int64") - prev.astype("int64")
        new_sess = prev.isna() | (gap > GAP_US)
        sess = new_sess.groupby(df["user_id"]).cumsum().astype("int64") - 1
        return pd.DataFrame({"event_id": df["event_id"], "session_idx": sess})

    return _bucketed_by_user(ev, fn)


def events_window_dedup(sf_dir: str) -> rd.Dataset:
    """Debounce dedup over the event stream: drop an event when the
    SAME (user, event_type) fired within the previous 60 s — the
    time-windowed idempotency the reference's exactly-once receive
    (J3) generalizes to under at-least-once delivery. Lag-based rule
    (gap to the previous occurrence, kept or not), so it is exactly
    the SQL LAG window; per-user ordered-log buckets do the work."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    WINDOW_US = 60 * 10**6

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        prev = df.groupby(["user_id", "event_type"])["ts"].shift()
        gap = df["ts"].astype("int64") - prev.astype("int64")
        keep = prev.isna() | (gap > WINDOW_US)
        return pd.DataFrame({"event_id": df["event_id"][keep]})

    return _bucketed_by_user(ev, fn)


def topk_orders_per_customer(sf_dir: str) -> rd.Dataset:
    """Top-2 orders per customer by (price desc, orderkey) — the bounded
    two-stage grouped_topk (no global sort)."""
    orders = rp(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    top = grouped_topk(orders, ["o_custkey"], ["o_totalprice", "o_orderkey"],
                       2, ascending=[False, True])
    return top.map_batches(lambda df: df[["o_custkey", "o_orderkey", "rk"]],
                           batch_format="pandas")


def distinct_event_types(sf_dir: str) -> rd.Dataset:
    ev = rp(sf_dir, "events", ["event_type"])
    agg = partial_aggregate(ev, ["event_type"], {"n": ("count", None)})
    return agg.map_batches(lambda df: df[["event_type"]], batch_format="pandas")


def sample_events_hash(sf_dir: str) -> rd.Dataset:
    """Deterministic hash sampling (scalable alternative to seeded
    random_sample: same rows on any cluster shape)."""
    ev = rp(sf_dir, "events", ["event_id", "event_type"])
    return ev.map_batches(
        lambda t: t.filter(pa.compute.equal(
            pa.compute.bit_wise_and(t["event_id"], pa.scalar(15, pa.int64())),
            pa.scalar(3, pa.int64()))),
        batch_format="pyarrow")


def union_entities(sf_dir: str) -> rd.Dataset:
    """Dataset.union: one id table from two sources (§2.7 set ops)."""
    cust = rp(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda df: pd.DataFrame({"id": df["c_custkey"].astype("int64"),
                                 "src": "c"}), batch_format="pandas")
    supp = rp(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        lambda df: pd.DataFrame({"id": df["s_suppkey"].astype("int64"),
                                 "src": "s"}), batch_format="pandas")
    return cust.union(supp)


# -------------------------------------------------------- dedup suite

def q_dedup_exact(sf_dir: str) -> rd.Dataset:
    return dedup.exact_dedup(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_dedup_prefix(sf_dir: str) -> rd.Dataset:
    return dedup.prefix_dedup_groups(rp(sf_dir, "documents", ["doc_id", "text"]),
                                     n_tokens=4)


def q_dedup_minhash(sf_dir: str) -> rd.Dataset:
    return dedup.minhash_lsh_pairs(rp(sf_dir, "documents", ["doc_id", "text"]),
                                   jaccard_threshold=0.5)


def q_dedup_simhash(sf_dir: str) -> rd.Dataset:
    return dedup.simhash_table(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_dedup_simhash_pairs(sf_dir: str) -> rd.Dataset:
    return dedup.simhash_near_pairs(rp(sf_dir, "documents", ["doc_id", "text"]),
                                    max_hamming=3)


def q_dedup_ngram(sf_dir: str) -> rd.Dataset:
    return dedup.ngram_jaccard_pairs(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_dedup_minhash_planted(sf_dir: str) -> rd.Dataset:
    """The MinHash-LSH machinery with an EXACT oracle: plant duplicate
    copies (doc_id+10M, same text) of every 10th doc and ask for pairs
    at jaccard_threshold=1.0. At J=1 the signature is identical so LSH
    recall is exactly 1 (all bands match), and floor(100*J)=100 iff the
    shingle SETS are equal — so the pair set is deterministic and
    SQL-expressible (group by sorted-distinct-shingle-list hash). This
    gives the full pipeline (signatures, banding, bucket pair expansion,
    distributed verify) a hash-checked CORRECTNESS row; the threshold<1
    variants stay documented-approximate (LSH recall < 1)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        # arrow-in/arrow-out so the union's block types match the
        # parquet-read side (mixed pandas/arrow unions break batching)
        t = t.combine_chunks()
        ids = t.column("doc_id").to_numpy()
        sub = t.filter(pa.array(ids % 10 == 0))
        return sub.set_column(
            sub.schema.get_field_index("doc_id"), "doc_id",
            pa.compute.add(sub.column("doc_id"), 10_000_000))

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return dedup.minhash_lsh_pairs(docs.union(planted), jaccard_threshold=1.0)


def q_dedup_minhash_keep(sf_dir: str) -> rd.Dataset:
    """End-to-end fuzzy dedup: ids surviving MinHash-LSH + connected
    components first-wins removal."""
    kept = dedup.dedup_by_minhash(rp(sf_dir, "documents", ["doc_id", "text"]))
    return kept.select_columns(["doc_id"])


def q_clean_corpus(sf_dir: str) -> rd.Dataset:
    """Quality filter + exact-dedup first-wins survivors (SQL-checkable
    half of the cleaning chain)."""
    from .pipelines.clean import clean_corpus

    kept = clean_corpus(rp(sf_dir, "documents", ["doc_id", "text"]))
    return kept.select_columns(["doc_id"])


def q_clean_corpus_fuzzy(sf_dir: str) -> rd.Dataset:
    """Full cleaning chain incl. MinHash near-dup removal (rows-only;
    fuzzy half verified by tests/test_dedup.py on planted dups)."""
    from .pipelines.clean import clean_corpus

    kept = clean_corpus(rp(sf_dir, "documents", ["doc_id", "text"]),
                        fuzzy=True, jaccard_threshold=0.8)
    return kept.select_columns(["doc_id"])


def q_dedup_shared_chunks(sf_dir: str) -> rd.Dataset:
    return dedup.shared_chunk_pairs(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_pagerank_dups(sf_dir: str) -> rd.Dataset:
    """Integer-milli PageRank over the shared-chunk duplication graph —
    'which documents sit at the center of a copy cluster', the graph
    statistic boilerplate/template triage ranks by. Exact: all-integer
    iteration replayed by a generated K-level SQL CTE chain."""
    from . import graph

    pairs = dedup.shared_chunk_pairs(
        rp(sf_dir, "documents", ["doc_id", "text"]))
    # bucket count sized to the DERIVED pair graph (tiny — pairs of
    # near-dup docs), not the corpus the pairs came from
    ranks = graph.pagerank_int(pairs, n_iter=3,
                               src_col="doc_a", dst_col="doc_b")
    return ranks.map_batches(
        lambda df: df.astype({"node": "int64", "rank_mu": "int64"}),
        batch_format="pandas")


def q_dup_clusters(sf_dir: str) -> rd.Dataset:
    """Connected components over the shared-chunk duplication graph —
    the fully partitioned no-broadcast CC (per-round label joins +
    pointer jumping, dedup.connected_components_partitioned) made
    driver-visible: the SQL oracle replays it as a recursive-CTE
    transitive closure and cluster_id = the component's minimum doc_id
    on both sides. This is the at-scale routing target of
    dedup_by_minhash, previously unit-tested only."""
    pairs = dedup.shared_chunk_pairs(
        rp(sf_dir, "documents", ["doc_id", "text"]))
    labels = dedup.connected_components_partitioned(
        pairs, a_col="doc_a", b_col="doc_b")
    return labels.map_batches(
        lambda df: df.astype({"doc_id": "int64", "cluster_id": "int64"}),
        batch_format="pandas")


def distinct_users_per_type(sf_dir: str) -> rd.Dataset:
    """EXACT grouped COUNT(DISTINCT): two bounded partial-aggregate
    stages — (type, user) pairs dedupe in a per-batch combiner first
    (the all-to-all moves one row per distinct pair per block, never
    events), then the distinct pairs count per type. The exact
    complement of approx_distinct_users' HLL estimate."""
    ev = rp(sf_dir, "events", ["event_type", "user_id"])
    pairs = partial_aggregate(ev, ["event_type", "user_id"],
                              {"n": ("count", None)})
    return partial_aggregate(pairs, ["event_type"],
                             {"n_users": ("count", None)})


def q_dedup_cdc(sf_dir: str) -> rd.Dataset:
    """Content-defined-chunking dedup pairs: Rabin-style token-hash
    boundaries (insertion-robust where fixed-width chunks shift), exact
    SQL oracle replaying the boundary rule with a windowed prefix sum
    (dedup.cdc_chunk_pairs)."""
    return dedup.cdc_chunk_pairs(
        rp(sf_dir, "documents", ["doc_id", "text"]))


def q_dedup_passage(sf_dir: str) -> rd.Dataset:
    """Duplicate-passage REMOVAL with doc reassembly (Lee et al.
    ExactSubstr / CCNet shared-line stripping): passages shared by >=2
    distinct docs are stripped from all of them, survivors
    re-concatenate in order. Exact — the hash gate checks the rebuilt
    text byte-for-byte."""
    return dedup.remove_duplicate_chunks(
        rp(sf_dir, "documents", ["doc_id", "text"]),
        chunk_tokens=10, min_docs=2)


def q_dedup_substring(sf_dir: str) -> rd.Dataset:
    """TRUE sliding-window exact-substring span removal (Lee et al.
    ExactSubstr; dedup_passage's chunk grid has boundary effects this
    one doesn't): every stride-1 8-token window occurring >= 2 times
    anywhere in the corpus is cut, with overlapping windows merged into
    maximal spans per doc first. Exact — the hash gate checks the cut
    text byte-for-byte."""
    return dedup.remove_duplicate_spans(
        rp(sf_dir, "documents", ["doc_id", "text"]),
        window_tokens=8, min_count=2)


def q_dedup_embedding(sf_dir: str) -> rd.Dataset:
    return dedup.embedding_near_dup_pairs(
        rp(sf_dir, "embeddings", ["vec_id", "embedding", "label"]), threshold=0.4)


def q_dedup_embedding_lsh(sf_dir: str) -> rd.Dataset:
    """LSH-bucket-blocked embedding near-dup (the scale path; rows-only
    by design: banding recall < 1, precision exact by construction and
    recall-gated in tests/test_dedup.py)."""
    return dedup.embedding_near_dup_lsh(
        rp(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=0.4)


def q_semantic_dedup(sf_dir: str) -> rd.Dataset:
    """SemDeDup: deterministic-centroid cluster assignment + in-cluster
    cosine near-dup drop; returns the KEPT (vec_id, cluster) rows.
    Exact — the SQL oracle replays the centroid pick, the argmax
    assignment and the smaller-id drop rule with
    list_cosine_similarity (measured cross-engine float margin ≥1e-5
    at every sf vs ~1e-15 drift)."""
    return dedup.semantic_dedup(
        rp(sf_dir, "embeddings", ["vec_id", "embedding"]),
        n_clusters=8, threshold=0.4)


def embedding_centroids(sf_dir: str) -> rd.Dataset:
    """Per-label centroid of the embedding column — vector aggregation
    via per-batch numpy partial sums (one (label, dim) row per batch),
    merged by the bucketed combiner. sum scaled to micro-units so the
    value hash is stable under float summation order."""
    emb = rp(sf_dir, "embeddings", ["label", "embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for label, g in df.groupby("label"):
            m = np.stack(g["embedding"].to_numpy()).astype(np.float64)
            s = m.sum(axis=0)
            for d in range(m.shape[1]):
                rows.append((int(label), d, s[d], len(g)))
        out = pd.DataFrame(rows, columns=["label", "dim", "sum_v", "n"])
        return out

    agg = partial_aggregate(emb.map_batches(partial, batch_format="pandas"),
                            ["label", "dim"],
                            {"sum_v": ("sum", "sum_v"), "n": ("sum", "n")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "label": df["label"].astype("int64"),
            "dim": df["dim"].astype("int64"),
            "sum_v_micro": np.round(df["sum_v"] * 10**6).astype("int64"),
            "n": df["n"].astype("int64"),
        })

    return agg.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------- similarity

QUERY_VEC_IDS = tuple(range(8))


def q_sim_ann_ivf_index(sf_dir: str) -> pd.DataFrame:
    """ANN through a PERSISTED IVF index: build once under /tmp
    (cell-partitioned parquet + centroid table, committed once; re-runs
    skip the build), then answer the probe queries by reading ONLY the
    probed cells' files. Rows-only by design (IVF recall < 1;
    recall-gated in tests/test_similarity.py)."""
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    # v3: layout/trainer version (gen-subtree cells, int64-quantized
    # deterministic centroid trainer) — a stale /tmp
    # index from an older layout must never be read
    out = input_cache_dir("ivf_index", f"{sf_dir}/embeddings.parquet", "v3")
    similarity.build_ivf_index(emb, out, n_centroids=16, rounds=3)
    qids, qmat = similarity.load_queries(emb, QUERY_VEC_IDS)
    return similarity.ann_topk_from_index(out, qmat, qids, k=5, n_probe=4)


def _text_index_dir(sf_dir: str) -> str:
    """Cache dir for the persisted inverted index: keyed by the corpus
    file stat AND the on-disk format version, so a layout change never
    reads a stale /tmp index."""
    return input_cache_dir("text_index", f"{sf_dir}/documents.parquet",
                           f"v{search.TEXT_INDEX_FORMAT}")


def q_text_index_search(sf_dir: str) -> pd.DataFrame:
    """Term lookup through a PERSISTED inverted index (build once under
    /tmp — hive-partitioned postings committed once, the
    build-once/query-many twin of sim_ann_ivf_index for text): the
    probe terms' postings come from ONLY their bucket partitions.
    Exact SQL oracle (tf = whitespace-token occurrences per doc)."""
    from . import search

    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    out = _text_index_dir(sf_dir)
    search.build_text_index(docs, out, num_buckets=64)
    return search.text_index_lookup(out, CMS_QUERY_TOKENS, num_buckets=64)


def q_contrastive_pairs(sf_dir: str) -> pd.DataFrame:
    """Hard-negative contrastive pair mining at the probe anchors:
    per anchor, top same-label positive + top-2 different-label
    negatives. Exact SQL oracle (per-(anchor, role) window over
    list_cosine_similarity)."""
    return similarity.contrastive_pairs(
        rp(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        QUERY_VEC_IDS, k_neg=2)


def q_sim_topk(sf_dir: str) -> pd.DataFrame:
    return similarity.brute_force_topk(
        rp(sf_dir, "embeddings", ["vec_id", "embedding"]), QUERY_VEC_IDS, k=5)


def q_sim_ann_lsh(sf_dir: str) -> pd.DataFrame:
    return similarity.ann_topk_lsh(
        rp(sf_dir, "embeddings", ["vec_id", "embedding"]), QUERY_VEC_IDS, k=5)


def q_sim_ann_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF coarse-quantized ANN (approximate; recall gated vs brute
    force in tests/test_similarity.py — the inverted-file scale path)."""
    return similarity.ann_topk_ivf(
        rp(sf_dir, "embeddings", ["vec_id", "embedding"]), QUERY_VEC_IDS, k=5,
        n_centroids=16, n_probe=4, rounds=2)


#: planted-duplicate constants shared by the ANN value oracles (engine
#: and generated SQL derive from the SAME numbers — the
#: dedup_minhash_planted oracle-generation pattern)
ANN_PLANT_COPIES = 5
ANN_PLANT_BASE = 1_000_000_000


def _planted_copies(sf_dir: str) -> rd.Dataset:
    """ANN_PLANT_COPIES exact duplicates of every probe query vector
    under fresh ids (BASE + qid*100 + j). An exact duplicate shares its
    query's LSH bucket and IVF cell BY IDENTITY, so every approximate
    ANN path achieves recall exactly 1.0 on the planted corpus, and
    the top-5 table is exactly the brute-force SQL derivation (copies
    at cosine 1 strictly dominate — the fixture's max real cosine vs
    the probe queries is ~0.49)."""
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    qlist = list(QUERY_VEC_IDS)

    def plant(t: pa.Table) -> pa.Table:
        # arrow-in/arrow-out so the union's block types match the
        # parquet-read side (the dedup_minhash_planted precedent)
        t = t.combine_chunks()
        ids = t.column("vec_id").to_numpy()
        sub = t.filter(pa.array(np.isin(ids, qlist)))
        idx = sub.schema.get_field_index("vec_id")
        parts = [sub.set_column(
            idx, "vec_id",
            pa.compute.add(pa.compute.multiply(sub.column("vec_id"), 100),
                           ANN_PLANT_BASE + j))
            for j in range(1, ANN_PLANT_COPIES + 1)]
        return pa.concat_tables(parts)

    return emb.map_batches(plant, batch_format="pyarrow")


def _planted_embeddings(sf_dir: str) -> rd.Dataset:
    return (rp(sf_dir, "embeddings", ["vec_id", "embedding"])
            .union(_planted_copies(sf_dir)))


def q_sim_ann_lsh_planted(sf_dir: str) -> pd.DataFrame:
    """The LSH ANN machinery with an EXACT value oracle via the planted
    corpus (see _planted_copies): hyperplane bucketing, bucket-probe
    filtering and the per-batch partial top-k all run for real, and
    recall is provably 1.0, so the (query, neighbor, rank) table
    hash-matches the brute-force SQL. The real-data variant
    (sim_ann_lsh) stays documented-approximate with ann_recall_report
    as its honest-recall gate."""
    return similarity.ann_topk_lsh(_planted_embeddings(sf_dir),
                                   QUERY_VEC_IDS, k=ANN_PLANT_COPIES)


def q_sim_ann_ivf_planted(sf_dir: str) -> pd.DataFrame:
    """IVF ANN (mini-Lloyd training, cell-probe filtering) on the
    planted corpus — recall 1.0 by construction, same SQL oracle."""
    return similarity.ann_topk_ivf(_planted_embeddings(sf_dir),
                                   QUERY_VEC_IDS, k=ANN_PLANT_COPIES,
                                   n_centroids=16, n_probe=4, rounds=2)


def q_sim_ann_ivf_index_planted(sf_dir: str) -> pd.DataFrame:
    """The PERSISTED IVF index (build → cell-partitioned parquet →
    probed-cell-only reads) on the planted corpus — the index
    round-trip itself becomes hash-checked, not just recall-gated."""
    emb = _planted_embeddings(sf_dir)
    out = input_cache_dir("ivf_index", f"{sf_dir}/embeddings.parquet",
                          "planted_v3")
    similarity.build_ivf_index(emb, out, n_centroids=16, rounds=3)
    qids, qmat = similarity.load_queries(emb, QUERY_VEC_IDS)
    return similarity.ann_topk_from_index(out, qmat, qids,
                                          k=ANN_PLANT_COPIES, n_probe=4)


def q_sim_ann_ivf_incremental(sf_dir: str) -> pd.DataFrame:
    """INCREMENTAL IVF maintenance, driver-value-checked: build the
    index over the REAL embeddings, ADD the planted copies as a new
    committed generation (similarity.add_to_ivf_index — fixed stored
    centroids, crash-safe gen subtree), then query. A copy lands in
    its query's argmax cell under the stored centroids = the query's
    top-1 probe, so recall stays 1.0 and the result hash-matches the
    same brute-force oracle — proving the add path end to end."""
    import shutil

    out = input_cache_dir("ivf_index", f"{sf_dir}/embeddings.parquet",
                          "incr_v3")
    if 1 not in committed_generations(out):
        shutil.rmtree(out, ignore_errors=True)  # wipe a half-done add
        similarity.build_ivf_index(
            rp(sf_dir, "embeddings", ["vec_id", "embedding"]), out,
            n_centroids=16, rounds=3)
        similarity.add_to_ivf_index(_planted_copies(sf_dir), out)
    emb = _planted_embeddings(sf_dir)
    qids, qmat = similarity.load_queries(emb, QUERY_VEC_IDS)
    return similarity.ann_topk_from_index(out, qmat, qids,
                                          k=ANN_PLANT_COPIES, n_probe=4)


def q_embedding_moments(sf_dir: str) -> rd.Dataset:
    """One-pass distributed covariance/PCA input statistics over the
    embeddings table (similarity.embedding_moments): integer-milli
    second moments + per-dim sums + count — all-integer, hash-exact,
    d(d+3)/2+1 rows per block on the wire."""
    return similarity.embedding_moments(
        rp(sf_dir, "embeddings", ["vec_id", "embedding"]))


def q_ann_recall_report(sf_dir: str) -> pd.DataFrame:
    """Recall@5 audit of BOTH approximate ANN paths (LSH buckets, IVF
    probes) against the exact brute-force top-k at the probe queries —
    the quantitative health metric the documented-approximate family
    ships with, as a first-class query instead of a test-only gate.
    All three pipelines are deterministic, so the report is stable;
    rows-only by design (the LSH/IVF sides hash with non-SQL kernels).
    Returns (method, query_id, recall_pct)."""
    brute = q_sim_topk(sf_dir)
    rows = []
    for method, ann in (("lsh", q_sim_ann_lsh(sf_dir)),
                        ("ivf", q_sim_ann_ivf(sf_dir))):
        for qid, sub in brute.groupby("query_id"):
            truth = set(sub["neighbor_id"])
            got = set(ann[ann["query_id"] == qid]["neighbor_id"])
            rows.append((method, int(qid),
                         int(100 * len(truth & got) // max(len(truth), 1))))
    return pd.DataFrame({"method": [r[0] for r in rows],
                         "query_id": np.array([r[1] for r in rows],
                                              dtype=np.int64),
                         "recall_pct": np.array([r[2] for r in rows],
                                                dtype=np.int64)})


#: fixed BM25 probe terms (sorted; vocab words so df > 0 at every sf)
BM25_TERMS = ("hash", "merge", "vector", "window")


def q_bm25_search(sf_dir: str) -> rd.Dataset:
    """Distributed BM25 top-50 for a fixed probe query: one vectorized
    corpus pass for (dl, tf, hit) stats, a one-row global reduce for
    (N, avgdl, df), idf on the driver, empty-key top-k — no global
    sort (search.bm25_topk; oracle generated from the same constants)."""
    return search.bm25_topk(rp(sf_dir, "documents", ["doc_id", "text"]),
                            BM25_TERMS, k=50)


def q_text_index_incremental(sf_dir: str) -> pd.DataFrame:
    """Incremental index maintenance: build the index from the base
    snapshot (doc_id %% 3 != 0), ADD the remaining docs in place
    (search.add_to_text_index — a fresh committed generation subtree),
    then look up the probe terms. Hash-matches the SAME
    SQL oracle as text_index_search (the full-corpus derivation) —
    proving incremental == rebuild."""
    import shutil

    out = _text_index_dir(sf_dir) + "_incr"
    if 1 not in committed_generations(out):
        shutil.rmtree(out, ignore_errors=True)  # wipe a half-done add
        docs = rp(sf_dir, "documents", ["doc_id", "text"])
        base = docs.map_batches(lambda df: df[df["doc_id"] % 3 != 0],
                                batch_format="pandas")
        inc = docs.map_batches(lambda df: df[df["doc_id"] % 3 == 0],
                               batch_format="pandas")
        search.build_text_index(base, out, num_buckets=64)
        search.add_to_text_index(inc, out, num_buckets=64)
    return search.text_index_lookup(out, CMS_QUERY_TOKENS, num_buckets=64)


def q_text_index_all_terms(sf_dir: str) -> rd.Dataset:
    """Boolean AND retrieval FROM the persisted inverted index: the
    docs containing EVERY probe term, with their summed tf — the
    conjunctive-query sibling of the single-term lookup. Postings come
    from only the probed bucket partitions; one bucketed aggregate per
    doc counts matched terms ((token, doc) posting rows are unique
    across generations, so the row count IS the distinct-term count)
    and keeps the full-coverage docs. Exact SQL oracle."""
    from . import search

    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    out = _text_index_dir(sf_dir)
    search.build_text_index(docs, out, num_buckets=64)
    post = search.text_index_postings(out, BM25_TERMS, num_buckets=64)
    if post is None:
        return rd.from_pandas(pd.DataFrame(
            {"doc_id": pd.Series([], dtype=np.int64),
             "sum_tf": pd.Series([], dtype=np.int64)}))
    agg = partial_aggregate(post, ["doc_id"],
                            {"n_terms": ("count", None),
                             "sum_tf": ("sum", "tf")})
    nt = len(BM25_TERMS)
    return agg.map_batches(
        lambda df: df[df["n_terms"] == nt][["doc_id", "sum_tf"]]
                     .astype({"sum_tf": "int64"}),
        batch_format="pandas")


def q_bm25_index_search(sf_dir: str) -> rd.Dataset:
    """The SAME BM25 top-50 answered from the PERSISTED inverted index
    (search.bm25_from_index): term postings from only their bucket
    partitions, doc lengths from the index-time doclen table — nothing
    re-tokenizes the corpus at query time. Bit-identical to
    bm25_search, so it shares the generated SQL oracle (the strongest
    possible index-correctness check: the index-served scores hash-
    match a full-corpus-scan derivation)."""
    from . import search

    out = _text_index_dir(sf_dir)
    search.build_text_index(rp(sf_dir, "documents", ["doc_id", "text"]),
                            out, num_buckets=64)
    return search.bm25_from_index(out, BM25_TERMS, k=50, num_buckets=64)


PHRASE_TERMS = ("stream", "table", "hash")  # probe phrase (occurs in-corpus)


def q_phrase_search(sf_dir: str) -> rd.Dataset:
    """EXACT-PHRASE retrieval from the index's positional sidecar
    (format v4, Lucene-PhraseQuery shape): docs where the probe terms
    appear CONSECUTIVELY, with occurrence counts — adjacency that
    BM25's bag-of-words can't see. Reads only the phrase terms' bucket
    partitions; per-doc position-list intersection. Exact SQL oracle
    (sliding-window equality over the token stream)."""
    from . import search

    out = _text_index_dir(sf_dir)
    search.build_text_index(rp(sf_dir, "documents", ["doc_id", "text"]),
                            out, num_buckets=64)
    return search.phrase_search_from_index(out, PHRASE_TERMS,
                                           num_buckets=64)


# ------------------------------------------------------- text analysis

def stratified_sample_by_lang(sf_dir: str, per_lang: int = 20) -> rd.Dataset:
    """Deterministic stratified sampling: first N docs per language by
    content-hash order through grouped_topk — reproducible on any
    cluster shape (the scalable alternative to seeded random
    sampling)."""
    docs = rp(sf_dir, "documents", ["doc_id", "lang"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["doc_id", "lang"]].copy()
        df["__h"] = [dedup.md5_hex(str(i)) for i in df["doc_id"]]
        return df

    top = grouped_topk(docs.map_batches(tag, batch_format="pandas"),
                       ["lang"], ["__h", "doc_id"], per_lang, ascending=True)
    return top.map_batches(lambda df: df[["doc_id", "lang"]],
                           batch_format="pandas")


WEIGHTED_SAMPLE_K = 100


def weighted_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis
    & Spirakis 2006 priority sampling — the one-pass distributed
    weighted-sample primitive): each doc gets priority ln(u)/w with
    u = (md5 top-32 bits of its id + 1)/2^32 and w = token count, and
    the global top-k priorities win — longer docs proportionally more
    likely, reproducible on any cluster shape (no RNG state). The only
    float ops are libm ln and IEEE division, written identically in
    the SQL oracle (the bm25 float-parity treatment). Selection runs
    through grouped_topk's bounded two-stage per-block partial top-k —
    no global sort. Returns (doc_id, n_tok, rank)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def key(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].str.split(" ").map(len).to_numpy(dtype=np.int64)
        h = np.fromiter(
            (int(dedup.md5_hex(str(i))[:8], 16) for i in df["doc_id"]),
            dtype=np.int64, count=len(df))
        u = (h.astype(np.float64) + 1.0) / 4294967296.0
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "n_tok": n,
                             "prio": np.log(u) / n})

    top = grouped_topk(docs.map_batches(key, batch_format="pandas"),
                       [], ["prio", "doc_id"], WEIGHTED_SAMPLE_K,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: df[["doc_id", "n_tok", "rk"]]
                     .rename(columns={"rk": "rank"}),
        batch_format="pandas")


def length_ntile(sf_dir: str, tiles: int = 10) -> rd.Dataset:
    """NTILE(10) decile assignment by global (token count DESC, doc_id)
    order — the percentile-bucketing shape of curriculum/quality tiers,
    derived from relops.global_value_rank (the histogram
    range-partition ORDER BY) plus one empty-key count; exact
    NTILE SQL oracle (first n%B buckets one row larger, SQL semantics
    reproduced from the rank arithmetic)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def ntok(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_tok": df["text"].str.split(" ").map(len)
                       .to_numpy(dtype=np.int64)})

    ranked = relops.global_value_rank(
        docs.map_batches(ntok, batch_format="pandas"), "n_tok", "doc_id")
    cnt = partial_aggregate(docs.select_columns(["doc_id"]), [],
                            {"n": ("count", None)}).to_pandas()
    n = int(cnt["n"][0]) if len(cnt) else 0

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(tile=relops.ntile_from_rank(
            df["rank"].to_numpy(), n, tiles))

    return ranked.map_batches(assign, batch_format="pandas")


SOURCE_CAP_N = 15


def source_cap(sf_dir: str) -> rd.Dataset:
    """Per-source document quota (the RefinedWeb/C4 'cap every domain'
    curation step): at most SOURCE_CAP_N docs per source, chosen by
    content-hash order (deterministic on any cluster shape), through
    grouped_topk's bounded per-block partials — a hot domain never
    concentrates more than blocks x N candidate rows in one task.
    Returns (doc_id, source, rank)."""
    docs = rp(sf_dir, "documents", ["doc_id", "source"])

    def key(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["doc_id", "source"]].copy()
        df["__h"] = [dedup.md5_hex(str(i)) for i in df["doc_id"]]
        return df

    top = grouped_topk(docs.map_batches(key, batch_format="pandas"),
                       ["source"], ["__h", "doc_id"], SOURCE_CAP_N,
                       ascending=True)
    return top.map_batches(
        lambda df: df[["doc_id", "source", "rk"]]
                     .rename(columns={"rk": "rank"}),
        batch_format="pandas")


def top_bigrams(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Corpus-wide top-k token bigrams: per-batch Counter partials →
    bucketed merge → per-block top-k → tiny k×num_blocks driver merge
    (ties → lexicographic). The full bigram vocabulary never reaches
    the driver — after the bucketed merge each count is globally final,
    so any block-local top-k upper-bounds the global one."""
    docs = rp(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        counts: Counter = Counter()
        for text in df["text"]:
            toks = [t for t in text.split(" ") if t]
            counts.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
        return pd.DataFrame({"bg": list(counts.keys()),
                             "n": np.fromiter(counts.values(), dtype=np.int64,
                                              count=len(counts))})

    merged = partial_aggregate(docs.map_batches(partial, batch_format="pandas"),
                               ["bg"], {"n": ("sum", "n")})

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["n", "bg"], ascending=[False, True]).head(k)

    small = merged.map_batches(topk, batch_format="pandas").to_pandas()
    return (small.sort_values(["n", "bg"], ascending=[False, True],
                              ignore_index=True).head(k)[["bg", "n"]])


def top_distinctive_token(sf_dir: str) -> rd.Dataset:
    """Per-doc most distinctive token — TF-IDF shape with integer-only
    ranking (tf desc, document-frequency asc, token asc), fully
    distributed: the (doc, token, tf) table hash-joins the token→DF
    table ON TOKEN (at web scale the vocabulary is billions of tokens —
    neither side is broadcast or pulled to the driver), then grouped_topk
    at k=1 picks each doc's winner. The TF pass runs twice (once to
    derive DF, once into the join) — recompute beats holding the
    corpus-sized token table in memory."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def doc_tf(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        ids, toks, tfs = [], [], []
        for did, text in zip(df["doc_id"], df["text"]):
            c = Counter(t for t in text.split(" ") if t)
            ids.extend([did] * len(c))
            toks.extend(c.keys())
            tfs.extend(c.values())
        return pd.DataFrame({"doc_id": ids, "token": toks,
                             "tf": np.array(tfs, dtype=np.int64)})

    tf = docs.map_batches(doc_tf, batch_format="pandas")
    # (doc, token) rows are distinct, so DF = row count per token
    df_t = partial_aggregate(tf, ["token"], {"df": ("count", None)})
    joined = hash_join(tf, df_t, "token", "token",
                       left_cols=["doc_id", "token", "tf"],
                       right_cols=["token", "df"])

    best = grouped_topk(joined, ["doc_id"], ["tf", "df", "token"], 1,
                        ascending=[False, True, True])

    def pick(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": d["doc_id"].to_numpy(),
                             "top_token": d["token"].to_numpy()})

    return best.map_batches(pick, batch_format="pandas")


def order_priorities_concat(sf_dir: str) -> rd.Dataset:
    """Ordered string aggregation per key (the reference's '; '.join of
    error messages, worker.py:489): priorities concatenated in
    (orderdate, orderkey) order per customer."""
    orders = rp(sf_dir, "orders",
                ["o_custkey", "o_orderkey", "o_orderdate", "o_orderpriority"])

    def concat(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                            ignore_index=True)
        g = df.groupby("o_custkey", sort=True)["o_orderpriority"].agg("|".join)
        return pd.DataFrame({"o_custkey": g.index.to_numpy(),
                             "priorities": g.to_numpy()})

    return exchange(orders, "o_custkey", concat)


def q_text_quality(sf_dir: str) -> rd.Dataset:
    return text_analysis.quality_table(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_tokens_by_lang(sf_dir: str) -> rd.Dataset:
    return text_analysis.tokens_by_lang(rp(sf_dir, "documents", ["doc_id", "text", "lang"]))


def q_text_langid(sf_dir: str) -> rd.Dataset:
    return text_analysis.langid_table(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_text_fingerprint(sf_dir: str) -> rd.Dataset:
    return text_analysis.fingerprint_table(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_quality_classifier(sf_dir: str) -> rd.Dataset:
    """fastText-style hashed-bigram linear quality scoring over the
    documents table; exact (integer milli-unit weights, generated SQL
    oracle from the same QC_BUCKETS/QC_SEED constants)."""
    return text_analysis.quality_classifier(
        rp(sf_dir, "documents", ["doc_id", "text"]))


#: count-min sketch geometry + the fixed probe tokens for the
#: value-checked CMS query (oracle generated from the same constants)
CMS_WIDTH = 2048
CMS_DEPTH = 4
CMS_QUERY_TOKENS = ("the", "a", "data", "value", "row")


def q_cms_token_counts(sf_dir: str) -> pd.DataFrame:
    """Count-min sketch over the corpus token stream, probed at a fixed
    token list. EXACT oracle: the md5 cell function is SQL-expressible,
    so DuckDB recomputes every probe's min-over-rows collision count
    bit-for-bit (_cms_oracle_sql)."""
    from . import sketches

    docs = rp(sf_dir, "documents", ["text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        return pd.DataFrame({"tok": flat[flat != ""]})

    grid = sketches.count_min_build(
        docs.map_batches(explode, batch_format="pandas"), "tok",
        width=CMS_WIDTH, depth=CMS_DEPTH)
    est = sketches.count_min_query(grid, pd.Series(CMS_QUERY_TOKENS))
    return pd.DataFrame({"token": list(CMS_QUERY_TOKENS),
                         "est_count": est.astype(np.int64)})


def q_bpe_train(sf_dir: str) -> pd.DataFrame:
    """Distributed BPE tokenizer training over the documents corpus —
    K merge rounds, each a distributed pair count over the word-freq
    table; the driver sees one row per round. Value-checked against an
    inline-VALUES oracle generated by the independent serial reference
    (_bpe_train_oracle_sql), the extract_summary pattern."""
    return text_analysis.bpe_train(rp(sf_dir, "documents", ["text"]))


def q_bpe_encode(sf_dir: str) -> rd.Dataset:
    """Tokenizer application: encode the corpus with the merge table
    the distributed trainer produces (train once → encode everywhere).
    VALUES oracle = the serial trainer + serial apply
    (_bpe_encode_oracle_sql); trainer/serial equivalence is separately
    test- and oracle-gated by bpe_train."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    mt = text_analysis.bpe_train(rp(sf_dir, "documents", ["text"]))
    merges = list(zip(mt["lhs"], mt["rhs"]))
    return text_analysis.bpe_encode(docs, merges)


def q_token_count_bpe(sf_dir: str) -> rd.Dataset:
    return text_analysis.token_count_table(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_chunk_documents(sf_dir: str) -> rd.Dataset:
    """Sliding-window token chunking (RAG / context-window prep):
    overlapping 32-token chunks every 24 tokens over the documents
    table. Exact; the SQL oracle recomputes the same windows with
    DuckDB list slicing."""
    return text_analysis.chunk_tokens(
        rp(sf_dir, "documents", ["doc_id", "text"]), window=32, stride=24)


def q_pii_scrub(sf_dir: str) -> rd.Dataset:
    """PII redaction over the documents table. The fixture corpus
    carries no real PII, so a deterministic planted tail
    (``<doc_id>@example.org``, an IPv4, a phone) is appended to every
    doc FIRST — identically in the SQL oracle — making every count
    column non-zero and the replacement path non-trivial."""
    import pyarrow as pa
    import pyarrow.compute as pc

    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def plant(t: "pa.Table") -> "pa.Table":
        tail = pc.binary_join_element_wise(
            pc.cast(t.column("doc_id"), pa.string()),
            "@example.org 192.168.0.1 +81-555-0100", "")
        aug = pc.binary_join_element_wise(
            pc.cast(t.column("text"), pa.string()), tail, " ")
        return pa.table({"doc_id": t.column("doc_id"), "text": aug})

    return text_analysis.pii_scrub(
        docs.map_batches(plant, batch_format="pyarrow"))


def q_dedup_soft(sf_dir: str) -> rd.Dataset:
    """Soft dedup: exact-duplicate groups keep every copy but weighted
    1/n (integer milli-units). Exact SQL oracle."""
    return dedup.dedup_soft(rp(sf_dir, "documents", ["doc_id", "text"]))


def q_upsert_compact(sf_dir: str) -> rd.Dataset:
    """Latest-version-wins corpus compaction with planted updates
    (docs with doc_id % 7 == 0 receive a v1 rewrite — the planted-dup
    pattern of dedup_minhash_planted). Exact SQL oracle: a window over
    the same synthesized union."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def base(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["version"] = np.int64(0)
        return df

    def updates(df: pd.DataFrame) -> pd.DataFrame:
        up = df[df["doc_id"] % 7 == 0].copy()
        up["text"] = up["text"] + " updated"
        up["version"] = np.int64(1)
        return up

    union = docs.map_batches(base, batch_format="pandas").union(
        docs.map_batches(updates, batch_format="pandas"))
    out = dedup.upsert_compact(union)
    return out.map_batches(
        lambda df: df[["doc_id", "text", "version"]].astype(
            {"version": "int64"}),
        batch_format="pandas")


def q_dedup_incremental_fuzzy(sf_dir: str) -> rd.Dataset:
    """Fuzzy incremental dedup (near-dup new-vs-base; rows-only by
    design — LSH recall < 1, precision Jaccard-verified; planted-copy
    behavior gated in tests/test_dedup.py). Base = docs with
    doc_id % 3 == 0, new = the whole table."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    base = docs.map_batches(lambda df: df[df["doc_id"] % 3 == 0],
                            batch_format="pandas")
    return dedup.dedup_incremental_fuzzy(docs, base,
                                         jaccard_threshold=0.8)


def q_dedup_incremental(sf_dir: str) -> rd.Dataset:
    """Incremental-snapshot dedup: base corpus = docs with doc_id % 3
    == 0 (already ingested), new snapshot = the whole table — so the
    new-vs-base anti-join, not the within-batch dedup, does the work."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    base = docs.map_batches(lambda df: df[df["doc_id"] % 3 == 0],
                            batch_format="pandas")
    return dedup.dedup_incremental(docs, base)


def _make_next_snapshot(df: pd.DataFrame) -> pd.DataFrame:
    """The planted next corpus snapshot shared by corpus_diff and
    token_drift (and their oracles): doc_id % 17 == 0 dropped,
    % 10 == 0 edited with a ' v2' suffix, % 25 == 0 re-added under
    doc_id + 10^7."""
    kept = df[df["doc_id"] % 17 != 0]
    edited = np.where(kept["doc_id"] % 10 == 0,
                      kept["text"] + " v2", kept["text"])
    out = pd.DataFrame({"doc_id": kept["doc_id"].to_numpy(),
                        "text": edited})
    add = df[df["doc_id"] % 25 == 0]
    return pd.concat(
        [out, pd.DataFrame({"doc_id": add["doc_id"].to_numpy()
                            + 10_000_000,
                            "text": add["text"].to_numpy()})],
        ignore_index=True)


def q_corpus_diff(sf_dir: str) -> rd.Dataset:
    """Snapshot-versioning audit: base = the documents table; new =
    the planted next snapshot (_make_next_snapshot). Per-doc
    added/removed/changed/unchanged status — only (id, md5) rows
    shuffle (storage.snapshot_diff)."""
    from .storage import snapshot_diff

    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    new = docs.map_batches(_make_next_snapshot, batch_format="pandas")
    return snapshot_diff(docs, new)


def q_corpus_rollup(sf_dir: str) -> rd.Dataset:
    """Multi-level aggregate (the GROUPING SETS / ROLLUP shape): docs
    and tokens per (lang, length-bucket), per lang, and the grand
    total, in ONE pass over the corpus — the fine-grained bucketed
    partial aggregate runs once and the coarser levels re-aggregate
    the FINE table (langs × 8 rows), never the corpus. Subtotal
    sentinels: lang='ALL', lb=-1. Exact GROUPING SETS SQL oracle."""
    docs = rp(sf_dir, "documents", ["doc_id", "lang", "text"])

    def base(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].str.split(" ").map(len).to_numpy(dtype=np.int64)
        return pd.DataFrame({"lang": df["lang"].to_numpy(),
                             "lb": np.minimum(n // 32, 7),
                             "n_tok": n})

    # langs × 8 rows, read by the two coarser levels and the union; the
    # aggregate's output is materialized, so the corpus pass runs once
    fine = partial_aggregate(
        docs.map_batches(base, batch_format="pandas"),
        ["lang", "lb"],
        {"n_docs": ("count", None), "n_tokens": ("sum", "n_tok")})

    per_lang = partial_aggregate(
        fine, ["lang"],
        {"n_docs": ("sum", "n_docs"), "n_tokens": ("sum", "n_tokens")}
    ).map_batches(lambda df: df.assign(lb=np.int64(-1)),
                  batch_format="pandas")
    total = partial_aggregate(
        fine, [],
        {"n_docs": ("sum", "n_docs"), "n_tokens": ("sum", "n_tokens")}
    ).map_batches(lambda df: df.assign(lang="ALL", lb=np.int64(-1)),
                  batch_format="pandas")

    cols = ["lang", "lb", "n_docs", "n_tokens"]

    def order(df: pd.DataFrame) -> pd.DataFrame:
        return df[cols].astype({"lb": "int64", "n_docs": "int64",
                                "n_tokens": "int64"})

    return (fine.union(per_lang).union(total)
            .map_batches(order, batch_format="pandas"))


MHP_HASHES = 8  # SQL-parity minhash rows per doc


def q_minhash_md5_signatures(sf_dir: str) -> rd.Dataset:
    """SQL-parity MinHash signature table (the hll_user_registers
    treatment for the minhash KERNEL): sig(doc, h) = min over the
    doc's DISTINCT 3-token shingles g of the top-32-bit value of
    md5('h|' + g). The production signature path uses the faster
    non-SQL pd.util.hash_array kernel (its PIPELINE is proven by
    dedup_minhash_planted); this query proves the minhash math —
    shingling, per-permutation hashing, the min fold — bit-for-bit
    against DuckDB. One md5 per (hash, unique-shingle) per batch;
    output (doc_id, h, sig)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def sigs(df: pd.DataFrame) -> pd.DataFrame:
        import hashlib as _h
        doc_sh = []
        for text in df["text"]:
            toks = text.split(" ")
            doc_sh.append(sorted({" ".join(toks[i:i + 3])
                                  for i in range(max(1, len(toks) - 2))}))
        lens = np.array([len(s) for s in doc_sh], dtype=np.int64)
        flat = np.array([g for s in doc_sh for g in s], dtype=object)
        # md5 once per (hash, UNIQUE shingle) per batch (the simhash /
        # cms kernel pattern), then a per-doc min fold via reduceat
        uniq, inv = np.unique(flat, return_inverse=True)
        bounds = np.r_[0, np.cumsum(lens)[:-1]]
        ids = df["doc_id"].to_numpy()
        parts = []
        for h in range(MHP_HASHES):
            pre = f"{h}|".encode("utf-8")
            hv = np.fromiter(
                (int.from_bytes(_h.md5(pre + g.encode("utf-8"))
                                .digest()[:4], "big") for g in uniq),
                dtype=np.int64, count=len(uniq))
            parts.append(pd.DataFrame({
                "doc_id": ids,
                "h": np.full(len(ids), h, dtype=np.int64),
                "sig": np.minimum.reduceat(hv[inv], bounds)}))
        return pd.concat(parts, ignore_index=True)

    return docs.map_batches(sigs, batch_format="pandas")


def length_rank(sf_dir: str) -> rd.Dataset:
    """Distributed exact global ORDER BY (relops.global_value_rank):
    every document's 1-based global rank by (token count DESC, doc_id)
    — the histogram range-partition sort, NOT ray's sort: ≤ num_bins
    histogram rows reach the driver and each bin sorts locally with a
    precomputed rank offset. All-integer, layout-independent; exact
    window-function SQL oracle."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def ntok(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_tok": df["text"].str.split(" ").map(len)
                       .to_numpy(dtype=np.int64)})

    return relops.global_value_rank(
        docs.map_batches(ntok, batch_format="pandas"), "n_tok", "doc_id")


def q_corpus_report(sf_dir: str) -> rd.Dataset:
    """Per-language corpus datasheet over the documents table."""
    return text_analysis.corpus_report(
        rp(sf_dir, "documents", ["lang", "text"]))


def q_self_overlap(sf_dir: str) -> rd.Dataset:
    """Per-doc memorization / self-overlap audit over the documents
    table (4-token shingles)."""
    return dedup.self_overlap(rp(sf_dir, "documents", ["doc_id", "text"]),
                              n=4)


def q_rag_prep(sf_dir: str) -> rd.Dataset:
    """The END-TO-END RAG-corpus preparation chain as ONE
    driver-checkable query: quality filter → exact dedup →
    sliding-window chunking (32/24) → content-addressed chunk sharding
    → 16-row per-shard manifest, with a single composed SQL oracle."""
    from .pipelines.clean import prepare_rag_chunks
    return prepare_rag_chunks(rp(sf_dir, "documents", ["doc_id", "text"]),
                              cols=["doc_id", "text"])


def q_pack_stream(sf_dir: str) -> rd.Dataset:
    """Cross-document GPT-style stream packing manifest (seq_len=32 so
    sequences genuinely cross doc boundaries at test scale)."""
    from . import shards
    return shards.pack_stream(rp(sf_dir, "documents", ["doc_id", "text"]),
                              seq_len=32)


def q_dsir_weights(sf_dir: str) -> rd.Dataset:
    """DSIR hashed-feature importance weights; target distribution =
    the English subset of the corpus."""
    return text_analysis.dsir_weights(
        rp(sf_dir, "documents", ["doc_id", "lang", "text"]))


def q_pack_sequences(sf_dir: str) -> rd.Dataset:
    """Fixed-length LM sequence packing over the documents table."""
    return text_analysis.pack_sequences(
        rp(sf_dir, "documents", ["doc_id", "text"]), seq_len=32)


def q_pack_greedy(sf_dir: str) -> rd.Dataset:
    """Cross-doc greedy token-budget packing, md5-bucketed so the whole
    sequential fold has an EXACT SQL oracle: DuckDB replays the greedy
    scan with a recursive CTE stepping one doc per bucket per level
    (buckets pinned at 32 — the bucket count changes the packing, so it
    can't auto-size here; the library default still auto-sizes)."""
    return text_analysis.pack_sequences_greedy(
        rp(sf_dir, "documents", ["doc_id", "text"]), budget=256,
        buckets=32, bucket_hash="md5")


def q_semi_anti_bloom(sf_dir: str) -> rd.Dataset:
    """Events by BUILDING-segment customers — the semi-join (and, by
    symmetry, the resume anti-join) shape at unbounded key-side scale:
    both sides hash-bucket on the key in one exchange and each bucket
    keeps its events whose user is among its customer keys. (The name
    is kept from the Bloom-prefiltered form this query first checked.)"""
    from .relops import semi_anti_filter_scalable

    ev = rp(sf_dir, "events", ["event_id", "user_id"])
    cust = rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    keys = cust.map_batches(
        lambda t: t.filter(pa.compute.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow")
    kept = semi_anti_filter_scalable(ev, "user_id", keys,
                                     key_col="c_custkey")

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_id": df["event_id"].astype("int64")})

    return kept.map_batches(fin, batch_format="pandas")


def q_text_repetition(sf_dir: str) -> rd.Dataset:
    """Gopher-style repetition quality metrics + integer-rule keep flag
    (no shuffle — per-doc metrics are batch-local)."""
    return text_analysis.repetition_stats(
        rp(sf_dir, "documents", ["doc_id", "text"]))


def q_decontaminate(sf_dir: str) -> rd.Dataset:
    """Benchmark decontamination: docs with doc_id %% 41 == 0 play the
    eval set; every other doc sharing a 4-token shingle with any of
    them is dropped. Exact (a semi-join on the shingles, then an
    anti-join on the contaminated ids)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    pool = docs.map_batches(lambda df: df[df["doc_id"] % 41 != 0],
                            batch_format="pandas")
    bench = docs.map_batches(
        lambda df: df.loc[df["doc_id"] % 41 == 0, ["doc_id", "text"]],
        batch_format="pandas")
    clean = dedup.decontaminate(pool, bench, n=4,
                                cols=["doc_id", "text", "n_chars"])
    return clean.map_batches(lambda df: df[["doc_id", "n_chars"]],
                             batch_format="pandas")


def q_export_jsonl(sf_dir: str) -> rd.Dataset:
    """JSONL delivery sink exercised under the driver: export the
    documents table as 16 md5 shards of JSONL under /tmp (marker-
    resumed, keyed by the input's stat) and return the (shard, n_rows)
    manifest — which the SQL oracle recomputes from the same shard
    rule, proving the sink wrote everything exactly once."""
    from . import storage

    out = input_cache_dir("jsonl", f"{sf_dir}/documents.parquet",
                          f"v{storage.JSONL_EXPORT_FORMAT}")
    m = storage.export_jsonl_shards(
        rp(sf_dir, "documents", ["doc_id", "text"]), out, num_shards=16)
    return m.map_batches(
        lambda df: df[["shard", "n_rows"]].astype("int64"),
        batch_format="pandas")


def q_shard_stats(sf_dir: str) -> rd.Dataset:
    """Deterministic md5-hash training-shard manifest: 16 shards, per-
    shard doc count + byte sum (shards.export_training_shards writes the
    same assignment as hive-partitioned parquet)."""
    from . import shards
    return shards.shard_stats(rp(sf_dir, "documents", ["doc_id", "n_chars"]),
                              num_shards=16)


def q_shuffle_rank(sf_dir: str) -> rd.Dataset:
    """Deterministic global training shuffle: every doc's 0-based
    position under the md5(seed|id) order, assigned distributively
    (range-partition on the uniform key's prefix + per-bucket offsets)
    with no global sort and nothing corpus-sized on the driver."""
    from . import shards
    ranked = shards.shuffle_rank(rp(sf_dir, "documents", ["doc_id"]), seed=42)
    return ranked.map_batches(lambda df: df[["doc_id", "rank"]],
                              batch_format="pandas")


def q_lang_quota(sf_dir: str) -> rd.Dataset:
    """Per-language quota curation: keep the 50 largest docs per lang
    (grouped top-k via per-block partial top-k + bucketed final — the
    candidate set is bounded by blocks × k, so a 90%%-one-language
    corpus can't overload a task)."""
    from .relops import grouped_topk
    docs = rp(sf_dir, "documents", ["lang", "doc_id", "n_chars"])
    return grouped_topk(docs, ["lang"], ["n_chars", "doc_id"], k=50,
                        ascending=[False, True])


#: training-mixture constants shared by the engine query and the
#: generated SQL oracle (single source of truth — the oracle inlines
#: the same hex thresholds / factors)
MIXTURE_WEIGHTS = {"en": 1.0, "de": 0.5, "fr": 0.25, "es": 0.125,
                   "zh": 0.75}
MIXTURE_SEED = 13
EPOCH_FACTORS = {"en": 1, "de": 2, "fr": 3, "es": 0, "zh": 2}


def q_mixture_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic weighted mixture sampling: keep each doc with its
    language's ratio via a content-addressed md5 coin — a pure
    streaming filter, identical kept set on any cluster shape."""
    from . import shards
    docs = rp(sf_dir, "documents", ["doc_id", "lang"])
    return shards.mixture_sample(docs, MIXTURE_WEIGHTS, key_col="lang",
                                 seed=MIXTURE_SEED)


def q_epoch_oversample(sf_dir: str) -> rd.Dataset:
    """Per-language epoch oversampling: replicate docs by their
    language's integer factor (0 drops the language), tagging the copy
    index — streaming row expansion, no shuffle."""
    from . import shards
    docs = rp(sf_dir, "documents", ["doc_id", "lang"])
    return shards.epoch_oversample(docs, EPOCH_FACTORS, key_col="lang")


def q_contamination_report(sf_dir: str) -> rd.Dataset:
    """Per-benchmark-doc leakage audit: distinct corpus docs sharing a
    4-token shingle with each bench doc (same bench split as the
    decontaminate query: doc_id %% 41 == 0), zeros included."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    corpus = docs.map_batches(lambda df: df[df["doc_id"] % 41 != 0],
                              batch_format="pandas")
    bench = docs.map_batches(lambda df: df[df["doc_id"] % 41 == 0],
                             batch_format="pandas")
    return dedup.contamination_report(corpus, bench, n=4)


def q_dedup_contained_pairs(sf_dir: str) -> rd.Dataset:
    """Exact substring-containment dup pairs: docs whose whole token
    sequence appears contiguously inside another (strictly longer, or
    equal-text with a smaller id) doc."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    return dedup.containment_pairs(docs, n=4)


def q_dedup_contained(sf_dir: str) -> rd.Dataset:
    """Containment dedup keep-set: the corpus minus every doc contained
    in another doc (suffix-array-style exact-substring dedup at doc
    granularity)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    kept = dedup.drop_contained(docs, n=4,
                                cols=["doc_id", "text", "n_chars"])
    return kept.map_batches(lambda df: df[["doc_id", "n_chars"]],
                            batch_format="pandas")


def q_build_vocab(sf_dir: str) -> rd.Dataset:
    """Global training-vocabulary build: top-256 tokens by (count desc,
    token asc) with deterministic rank — distributed counts + the
    bounded two-stage grouped_topk, no global sort."""
    docs = rp(sf_dir, "documents", ["text"])
    return text_analysis.build_vocab(docs, top_v=256)


def q_hash_embed_stats(sf_dir: str) -> rd.Dataset:
    """Hashing-trick featurization check: derive (top bucket, squared
    norm) per doc from the REAL hash_embed vectors so the embedding
    construction itself is value-verified against SQL."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    emb = text_analysis.hash_embed(docs, dim=16)

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["vec"].to_numpy())
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            # argmax takes the FIRST maximum -> smallest bucket on ties,
            # matching the oracle's ORDER BY c DESC, bucket
            "top_bucket": m.argmax(axis=1).astype(np.int64),
            "norm2": (m * m).sum(axis=1).astype(np.int64)})

    return emb.map_batches(stats, batch_format="pandas")


def q_train_val_split(sf_dir: str) -> rd.Dataset:
    """Deterministic held-out split labels (2%% val) via the
    content-addressed md5 coin — stable under corpus growth."""
    from . import shards
    docs = rp(sf_dir, "documents", ["doc_id", "lang"])
    return shards.train_val_split(docs, val_frac=0.02, seed=29)


def q_token_budget_per_lang(sf_dir: str) -> rd.Dataset:
    """Per-language token-budget selection: greedily keep docs in the
    deterministic md5 shuffle order while the language's running token
    count stays under 2000 — distributed prefix sums over range
    buckets, no global sort, driver sees langs × buckets scalars."""
    from . import shards
    docs = rp(sf_dir, "documents", ["doc_id", "lang", "text"])
    return shards.token_budget_sample(docs, budget_tokens=2000, seed=7)


def q_curriculum_rank(sf_dir: str) -> rd.Dataset:
    """Curriculum ordering: global rank by (length stage, seeded
    shuffle) — shortest-docs-first stages, shuffled within each stage,
    via the same no-global-sort range-partition machinery as
    shuffle_rank (stage prefixes the range bucket)."""
    from . import shards

    def add_stage(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["stage"] = np.minimum(df["n_chars"].to_numpy(dtype=np.int64)
                                 // 150, 3)
        return df

    docs = (rp(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(add_stage, batch_format="pandas"))
    ranked = shards.shuffle_rank(docs, seed=7, stage_col="stage")
    return ranked.map_batches(lambda df: df[["doc_id", "stage", "rank"]],
                              batch_format="pandas")


def q_training_prep(sf_dir: str) -> rd.Dataset:
    """The END-TO-END training-data preparation chain as ONE
    driver-checkable query: quality filter → exact dedup (scalable
    dropped-id anti-join) → Gopher repetition filter → benchmark
    decontamination (docs with doc_id % 41 == 0 play the eval set) →
    16-shard manifest. Every stage is exact, so the whole chain has a
    single composed SQL oracle (hash-green = the full pipeline a
    reference user would run end to end is value-verified, not just its
    stages)."""
    from . import shards
    from .pipelines.clean import prepare_training_data
    docs = rp(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    pool = docs.map_batches(lambda df: df[df["doc_id"] % 41 != 0],
                            batch_format="pandas")
    bench = docs.map_batches(
        lambda df: df.loc[df["doc_id"] % 41 == 0, ["doc_id", "text"]],
        batch_format="pandas")
    clean = prepare_training_data(pool, bench=bench,
                                  cols=["doc_id", "text", "n_chars"])
    return shards.shard_stats(clean, num_shards=16)


def q_prep_funnel(sf_dir: str) -> rd.Dataset:
    """Per-doc drop-reason attribution over the training-prep chain
    (same fixture split as training_prep: doc_id % 41 == 0 plays the
    eval set): for every pool doc, the FIRST stage that drops it —
    quality / exact_dup / repetition / contaminated — or 'kept'."""
    from .pipelines.clean import prep_funnel
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    pool = docs.map_batches(lambda df: df[df["doc_id"] % 41 != 0],
                            batch_format="pandas")
    bench = docs.map_batches(lambda df: df[df["doc_id"] % 41 == 0],
                             batch_format="pandas")
    return prep_funnel(pool, bench=bench)


# ----------------------------------------------------- fixture corpus

def _corpus(sf_dir: str) -> rd.Dataset:
    return read_documents(fixtures.ensure_corpus(fixtures.tier_for_sf_dir(sf_dir)))


def _extracted(sf_dir: str) -> rd.Dataset:
    """Run (or resume) the flagship extraction for this tier through the
    real staged-shuffle writer, cached under /tmp — repeated queries
    reuse the completed partitions (marker anti-join makes rerun a
    no-op)."""
    from . import extractors
    from .pipelines.extract import read_extracted, run_extract
    from .stages import explode as _stage_explode
    from .stages import extract as _stage_extract
    from .stages import reassemble as _stage_reassemble

    tier = fixtures.tier_for_sf_dir(sf_dir)
    corpus = fixtures.ensure_corpus(tier)
    # the fingerprint must cover EVERY module that determines the
    # on-disk layout — including the partition-assignment rule
    # (stages/explode's ASSIGN_VERSION) and the writer itself —
    # otherwise a rule change silently reuses a stale cache dir and
    # the in-place version wipe (correct but untuned) runs inside
    # whichever query touches the cache first
    from .pipelines import extract as _pipe_mod
    fp = fixtures.source_fingerprint(fixtures, extractors, _stage_extract,
                                     _stage_reassemble, _stage_explode,
                                     _pipe_mod)
    out = f"/tmp/westa_extract_out/{fp}/{tier}_seed{fixtures.DEFAULT_SEED}"
    run_extract(corpus, out, ExtractConfig())
    return read_extracted(out)


def q_extract_flat(sf_dir: str) -> rd.Dataset:
    """Flattened (doc_id, kind, media_ref, order, text) span rows."""
    res = _extracted(sf_dir)

    def flat(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        spans = t.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        parent = pa.compute.list_parent_indices(spans)
        f = pa.compute.list_flatten(spans)
        return pa.table({
            "doc_id": pa.compute.take(t.column("doc_id"), parent),
            "kind": f.field("kind"),
            "media_ref": f.field("media_ref"),
            "order": f.field("order"),
            "text": f.field("text"),
        })

    return res.map_batches(flat, batch_format="pyarrow")


def extract_span_checksum(sf_dir: str) -> rd.Dataset:
    """EVERY extracted span value-checked by the driver, compactly: the
    flat span rows fold per kind into (n_spans, sum of a per-span
    md5(doc_id|order|kind|text|media_ref) checksum) — a change to any
    span's text, position or ref anywhere in the corpus moves the sum.
    Value oracle = the independent single-process reference extraction
    through the same fold (_extract_span_checksum_oracle_sql VALUES,
    the extract_summary pattern) — this closes the extract_flat family
    to driver-visible VALUE checks beyond the summary counters."""
    flat = q_extract_flat(sf_dir)

    def chk(df: pd.DataFrame) -> pd.DataFrame:
        import hashlib as _h
        c = np.fromiter(
            (int(_h.md5(f"{d}|{o}|{k}|{t}|{m}".encode("utf-8"))
                 .hexdigest()[:8], 16)
             for d, o, k, t, m in zip(df["doc_id"], df["order"],
                                      df["kind"], df["text"],
                                      df["media_ref"])),
            dtype=np.int64, count=len(df))
        return pd.DataFrame({"kind": df["kind"].to_numpy(), "chk": c})

    agg = partial_aggregate(flat.map_batches(chk, batch_format="pandas"),
                            ["kind"], {"n_spans": ("count", None),
                                       "sum_chk": ("sum", "chk")})
    return agg.map_batches(
        lambda df: df.astype({"n_spans": "int64", "sum_chk": "int64"}),
        batch_format="pandas")


def q_extract_summary(sf_dir: str) -> rd.Dataset:
    """Per-status rollup of the per-doc summary (G1→G2 counters). Value
    oracle: the single-process reference extraction's counters, emitted
    as an inline VALUES table by _extract_summary_oracle_sql (the driver
    hash-compares the Ray rollup against them)."""
    res = _extracted(sf_dir)
    agg = partial_aggregate(res.select_columns(
        ["status", "total_units", "processed", "skipped", "errors", "master_hits"]),
        ["status"],
        {"n_docs": ("count", None), "total_units": ("sum", "total_units"),
         "processed": ("sum", "processed"), "skipped": ("sum", "skipped"),
         "errors": ("sum", "errors"), "master_hits": ("sum", "master_hits")})

    def to64(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        for c in df.columns:
            if c != "status":
                df[c] = df[c].astype("int64")
        return df

    return agg.map_batches(to64, batch_format="pandas")


def q_media_usage(sf_dir: str) -> rd.Dataset:
    """Media-asset usage audit over the flagship extraction: per media
    kind (pdf / image), how many extracted spans, how many DISTINCT
    media_refs, and total extracted characters — the dangling-asset /
    dedup-planning report an interleaved text+media corpus ships with.
    Two bounded bucketed exchanges ((kind, ref) distinct → per-kind
    rollup); value oracle = the independent serial extraction
    (_media_usage_oracle_sql VALUES, the extract_summary pattern)."""
    flat = q_extract_flat(sf_dir)

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.is_in(t.column("kind"),
                        value_set=pa.array(["pdf", "image"]))
        t = t.filter(mask)
        return pa.table({
            "kind": t.column("kind"),
            "media_ref": t.column("media_ref"),
            "chars": pc.cast(pc.utf8_length(t.column("text")), pa.int64()),
        })

    per_ref = partial_aggregate(
        flat.map_batches(keep, batch_format="pyarrow"),
        ["kind", "media_ref"],
        {"n_spans": ("count", None), "sum_chars": ("sum", "chars")})
    per_kind = partial_aggregate(
        per_ref, ["kind"],
        {"n_refs": ("count", None), "n_spans": ("sum", "n_spans"),
         "sum_chars": ("sum", "sum_chars")})

    def to64(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        for c in ("n_refs", "n_spans", "sum_chars"):
            df[c] = df[c].astype("int64")
        return df

    return per_kind.map_batches(to64, batch_format="pandas")


def ingest_flat_documents(sf_dir: str) -> rd.Dataset:
    """End-to-end: ingest the driver's FLAT documents table into the
    engine's interleaved input schema (how a reference user would bring
    their corpus over), run the full extraction pipeline, and flatten
    back — giving the extraction pipeline itself a SQL oracle
    (text-kind extraction ≡ whitespace normalization)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def to_interleaved(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        texts = t.column("text")
        n = t.num_rows
        structs = pa.StructArray.from_arrays(
            [pa.array(["text"] * n), texts.combine_chunks()
             if isinstance(texts, pa.ChunkedArray) else texts,
             pa.array([""] * n), pa.array(np.zeros(n, dtype=np.int32))],
            names=["kind", "text", "media_ref", "offset"])
        spans = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)), structs)
        doc_ids = pa.compute.cast(t.column("doc_id"), pa.string())
        return pa.table({"doc_id": doc_ids, "spans": spans})

    inter = docs.map_batches(to_interleaved, batch_format="pyarrow")
    res = extract_dataset(inter, ExtractConfig(num_parts=16))

    def flatten(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        spans = t.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        parent = pa.compute.list_parent_indices(spans)
        f = pa.compute.list_flatten(spans)
        return pa.table({
            "doc_id": pa.compute.take(t.column("doc_id"), parent),
            "extracted_text": f.field("text"),
        })

    return res.map_batches(flatten, batch_format="pyarrow")


def q_extract_then_clean(sf_dir: str) -> rd.Dataset:
    """The end-to-end 100 TB story: extract the interleaved corpus, join
    each doc's spans back into one text, then run the training-data
    curation chain (quality filter + exact dedup) on the extracted text.
    Composability evidence: extraction output is itself a first-class
    input to every other operator."""
    from .pipelines.clean import clean_corpus

    res = _extracted(sf_dir)

    def doc_text(t: pa.Table) -> pa.Table:
        # pure Arrow kernels — no per-row python over span lists: flatten
        # the struct lists, rebuild a list<string> of texts with offsets
        # derived from the list lengths, and join each list with '\n'
        t = t.combine_chunks()
        spans = t.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lens = pa.compute.list_value_length(spans).to_numpy(
            zero_copy_only=False).astype(np.int64)
        offs = np.zeros(len(lens) + 1, dtype=np.int32)
        np.cumsum(lens, out=offs[1:])
        texts = pa.ListArray.from_arrays(
            pa.array(offs, type=pa.int32()),
            pa.compute.list_flatten(spans).field("text"))
        joined = pa.compute.binary_join(texts, "\n")
        return pa.table({"doc_id": t.column("doc_id"), "text": joined})

    docs = res.map_batches(doc_text, batch_format="pyarrow")
    kept = clean_corpus(docs, min_words=10, min_chars=50)
    return kept.select_columns(["doc_id"])


def approx_quantiles_value(sf_dir: str) -> pd.DataFrame:
    """Mergeable-histogram quantiles (p50/p95/p99 of event value per
    type): per-batch (type, fixed-width bin) counts → bucketed merge →
    the driver sees only the SKETCH-SIZED histogram (types × bins), not
    rows. The estimate is the lower bound of the bin holding the
    rank-ceil(q·n/100)-th value — deterministic, so unlike most
    sketches it carries an exact SQL oracle. Integer rank arithmetic
    ((q·n+99)//100) on both sides: no float ceil ties."""
    W = 500  # bin width in cents
    ev = rp(sf_dir, "events", ["event_type", "value"])

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["value"])
        return pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                             "bin": cents // W})

    hist = partial_aggregate(ev.map_batches(binned, batch_format="pandas"),
                             ["event_type", "bin"],
                             {"cnt": ("count", None)}).to_pandas()
    out_t, out_q, out_e = [], [], []
    for etype, g in hist.groupby("event_type"):
        g = g.sort_values("bin", ignore_index=True)
        cum = g["cnt"].cumsum().to_numpy()
        n = int(cum[-1])
        for q_pct in (50, 95, 99):
            rank = (q_pct * n + 99) // 100
            b = int(g["bin"][int(np.searchsorted(cum, rank))])
            out_t.append(etype)
            out_q.append(q_pct)
            out_e.append(b * W)
    return pd.DataFrame({"event_type": out_t,
                         "q_pct": np.array(out_q, dtype=np.int32),
                         "est_cents": np.array(out_e, dtype=np.int64)})


def _lm_doc_scores(docs: rd.Dataset) -> rd.Dataset:
    """Shared unigram-LM scoring pipeline → (doc_id, surprisal_mn,
    n_tok): corpus unigram counts (distributed partial aggregate)
    hash-join back onto the (doc, token, tf) table on `token`
    (vocabulary-scale side never broadcast / never on the driver), then
    per-doc sums of tf·round(1000·ln(N_total/count)) and tf. Integer
    millinats so value hashes are stable. Feeds lm_unigram_score and
    perplexity_filter."""

    def doc_tf(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        ids, toks, tfs = [], [], []
        for did, text in zip(df["doc_id"], df["text"]):
            c = Counter(t for t in text.split(" ") if t)
            ids.extend([did] * len(c))
            toks.extend(c.keys())
            tfs.extend(c.values())
        return pd.DataFrame({"doc_id": ids, "token": toks,
                             "tf": np.array(tfs, dtype=np.int64)})

    tf = docs.map_batches(doc_tf, batch_format="pandas")
    # the unigram table feeds both the total reduce and the join; the
    # aggregate's output is materialized, so the tf pipeline runs once.
    # Blocks stay distributed in the object store — this is the DF
    # table itself, never a driver pull.
    counts = partial_aggregate(tf, ["token"], {"cnt": ("sum", "tf")})
    # total corpus token count: tiny driver-side reduce over the counts
    total = int(counts.map_batches(
        lambda df: pd.DataFrame({"t": [int(df["cnt"].sum())]}),
        batch_format="pandas").to_pandas()["t"].sum())

    def score_bucket(df: pd.DataFrame) -> pd.DataFrame:
        """Fused into the join task (hash_join bucket_fn): score each
        (doc, token) row AND pre-aggregate per doc before anything
        leaves the bucket — the downstream shuffle moves one row per
        (doc, bucket) instead of one per (doc, token)."""
        cnt = df["cnt"].to_numpy(dtype=np.float64)
        surprisal = np.round(1000.0 * np.log(total / cnt)).astype(np.int64)
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "part_mn": df["tf"].to_numpy(dtype=np.int64)
                            * surprisal,
                            "part_n": df["tf"].to_numpy(dtype=np.int64)})
        return (out.groupby("doc_id", sort=False, as_index=False)
                .agg(part_mn=("part_mn", "sum"), part_n=("part_n", "sum")))

    joined = hash_join(tf, counts, "token", "token",
                       left_cols=["doc_id", "token", "tf"],
                       right_cols=["token", "cnt"],
                       bucket_fn=score_bucket)
    return partial_aggregate(joined, ["doc_id"],
                             {"surprisal_mn": ("sum", "part_mn"),
                              "n_tok": ("sum", "part_n")})


def lm_heldout_score(sf_dir: str) -> rd.Dataset:
    """Held-out LM evaluation — the train/eval contract end-to-end:
    unigram counts come from the TRAIN split only (the content-
    addressed md5 coin of shards.train_val_split, so the eval set
    stays stable as the corpus grows), and every VAL doc is scored
    against them with add-1 smoothing (OOV tokens cost
    ln((N+V)/1)). Same distributed shape as lm_unigram_score: the
    count table is materialized once and hash-joined (LEFT — val
    vocabulary includes OOV) onto the val (doc, token, tf) rows with
    the per-doc reduce fused into the join buckets. Integer millinats;
    exact SQL twin in ORACLE_SQL. Returns (doc_id, surprisal_mn,
    n_tok) for val docs."""
    from . import shards

    docs = shards.train_val_split(
        rp(sf_dir, "documents", ["doc_id", "text"]), val_frac=0.02,
        seed=29)

    def doc_tf(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        ids, toks, tfs, spl = [], [], [], []
        for did, text, sp in zip(df["doc_id"], df["text"], df["split"]):
            c = Counter(t for t in text.split(" ") if t)
            ids.extend([did] * len(c))
            toks.extend(c.keys())
            tfs.extend(c.values())
            spl.extend([sp] * len(c))
        return pd.DataFrame({"doc_id": ids, "token": toks,
                             "tf": np.array(tfs, dtype=np.int64),
                             "split": spl})

    # ONE tokenization pass over the corpus, split tag carried through;
    # materialized because both the train-count aggregate and the val
    # scoring join consume it (lazy reuse = two corpus reads)
    tf_all = docs.map_batches(doc_tf, batch_format="pandas").materialize()
    train_tf = tf_all.map_batches(
        lambda df: df[df["split"] == "train"][["doc_id", "token", "tf"]],
        batch_format="pandas")
    val_tf = tf_all.map_batches(
        lambda df: df[df["split"] == "val"][["doc_id", "token", "tf"]],
        batch_format="pandas")

    counts = partial_aggregate(train_tf, ["token"],
                               {"cnt": ("sum", "tf")})
    stats = counts.map_batches(
        lambda df: pd.DataFrame({"n": [int(df["cnt"].sum())],
                                 "v": [len(df)]}),
        batch_format="pandas").to_pandas()
    nv = float(int(stats["n"].sum()) + int(stats["v"].sum()))  # N + V

    def score_bucket(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df["cnt"].fillna(0).to_numpy(dtype=np.float64)
        surprisal = np.round(1000.0 * np.log(nv / (cnt + 1.0))
                             ).astype(np.int64)
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "part_mn": df["tf"].to_numpy(dtype=np.int64)
                            * surprisal,
                            "part_n": df["tf"].to_numpy(dtype=np.int64)})
        out = out[~pd.isna(out["doc_id"])]
        return (out.groupby("doc_id", sort=False, as_index=False)
                .agg(part_mn=("part_mn", "sum"), part_n=("part_n", "sum"))
                .infer_objects())

    joined = hash_join(val_tf, counts, "token", "token", how="left",
                       left_cols=["doc_id", "token", "tf"],
                       right_cols=["token", "cnt"],
                       bucket_fn=score_bucket)
    agg = partial_aggregate(joined, ["doc_id"],
                            {"surprisal_mn": ("sum", "part_mn"),
                             "n_tok": ("sum", "part_n")})
    return agg.map_batches(
        lambda df: df.astype({"doc_id": "int64", "surprisal_mn": "int64",
                              "n_tok": "int64"}),
        batch_format="pandas")


def lm_unigram_score(sf_dir: str) -> rd.Dataset:
    """Unigram language-model scoring — the model-scoring shape with an
    exact integer oracle (see _lm_doc_scores for the distributed
    pipeline)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    return _lm_doc_scores(docs).map_batches(
        lambda df: df[["doc_id", "surprisal_mn"]], batch_format="pandas")


def lm_bigram_score(sf_dir: str) -> rd.Dataset:
    """Bigram conditional LM scoring — the higher-order companion of
    lm_unigram_score: per-doc total conditional surprisal
    sum tf·round(1000·ln(c(w1)/c(w1,w2))) over the doc's bigrams, where
    c(w1,w2) is the corpus bigram count and c(w1) = Σ_w2 c(w1,w2) (the
    bigram-first marginal, the proper P(w2|w1) denominator). Exact
    integer millinats (queries.ORACLE_SQL['lm_bigram_score']).

    Distributed shape: per-doc bigram tf table (Counter per doc, the
    _lm_doc_scores pattern) → bucketed bigram-count aggregate → a
    second tiny aggregate for the w1 marginal → two partitioned hash
    joins (composite bigram key as one string; neither count table is
    ever broadcast or on the driver), with the per-doc aggregate FUSED
    into the second join's buckets so only (doc, bucket) partials leave
    the join. Docs with fewer than two tokens have no bigrams and drop
    — same rule both sides."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def doc_bg(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        ids, bgs, w1s, tfs = [], [], [], []
        for did, text in zip(df["doc_id"], df["text"]):
            toks = [t for t in text.split(" ") if t]
            c = Counter(zip(toks, toks[1:]))
            ids.extend([did] * len(c))
            bgs.extend(a + "\x1f" + b for a, b in c.keys())
            w1s.extend(a for a, _ in c.keys())
            tfs.extend(c.values())
        return pd.DataFrame({"doc_id": ids, "bg": bgs, "w1": w1s,
                             "tf": np.array(tfs, dtype=np.int64)})

    b12 = docs.map_batches(doc_bg, batch_format="pandas")
    c12 = partial_aggregate(b12, ["bg"], {"c12": ("sum", "tf"),
                                          "w1m": ("min", "w1")})
    c1 = partial_aggregate(c12.map_batches(
        lambda df: df[["w1m", "c12"]].rename(columns={"w1m": "w1"}),
        batch_format="pandas"), ["w1"], {"c1": ("sum", "c12")})

    j1 = hash_join(b12, c12, "bg", "bg",
                   left_cols=["doc_id", "bg", "w1", "tf"],
                   right_cols=["bg", "c12"],
                   bucket_fn=lambda df: df[["doc_id", "w1", "tf", "c12"]])

    def score_bucket(df: pd.DataFrame) -> pd.DataFrame:
        c1v = df["c1"].to_numpy(dtype=np.float64)
        c12v = df["c12"].to_numpy(dtype=np.float64)
        s = np.round(1000.0 * np.log(c1v / c12v)).astype(np.int64)
        tf = df["tf"].to_numpy(dtype=np.int64)
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "part_mn": tf * s, "part_n": tf})
        return (out.groupby("doc_id", sort=False, as_index=False)
                .agg(part_mn=("part_mn", "sum"), part_n=("part_n", "sum"))
                .infer_objects())

    j2 = hash_join(j1, c1, "w1", "w1",
                   left_cols=["doc_id", "w1", "tf", "c12"],
                   right_cols=["w1", "c1"], bucket_fn=score_bucket)
    return partial_aggregate(j2, ["doc_id"],
                             {"bigram_mn": ("sum", "part_mn"),
                              "n_bigrams": ("sum", "part_n")})


def q_vocab_encode(sf_dir: str) -> rd.Dataset:
    """Encode the corpus against its own top-256 build_vocab vocabulary
    (tokenizer application with OOV accounting)."""
    return text_analysis.vocab_encode(
        rp(sf_dir, "documents", ["doc_id", "text"]), top_v=256)


def perplexity_filter(sf_dir: str) -> rd.Dataset:
    """Quality-based data pruning — "keep every doc scoring at or below
    the 90%-quantile mean surprisal" (the perplexity-filtering step of
    a training-data pipeline, dropping the weirdest ~10%):

    1. per-doc mean surprisal (millinats/token, exact integer floor
       division) from the distributed unigram-LM pipeline; the small
       (doc_id, score) table is checkpointed once — it feeds the count,
       the threshold passes and the final filter, and lazy reuse would
       re-run the LM join per consumer;
    2. the exact k-th order statistic (k = ⌊9n/10⌋) via
       relops.exact_order_statistic — two bounded histogram passes, no
       global sort, nothing corpus-sized on the driver;
    3. a vectorized threshold filter (ties at the threshold value kept
       on both sides, so the rule is deterministic under any layout).
    """
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def mean_score(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "mean_mn": df["surprisal_mn"].to_numpy(dtype=np.int64)
            // df["n_tok"].to_numpy(dtype=np.int64)})

    scored = (_lm_doc_scores(docs)
              .map_batches(mean_score, batch_format="pandas")
              .materialize())  # blocks stay in the object store
    n = scored.count()
    k = (9 * n) // 10
    thr = relops.exact_order_statistic(scored, "mean_mn", k)
    return scored.map_batches(
        lambda df: df[df["mean_mn"] <= thr], batch_format="pandas")


def zscore_by_lang(sf_dir: str) -> rd.Dataset:
    """Group-wise normalization: per-language z-score of document
    length — two-pass (tiny per-group moments table broadcast into a
    vectorized map), the standard feature-normalization shape. Output
    scaled to integer milli-z so hashes are stable."""
    docs = rp(sf_dir, "documents", ["doc_id", "lang", "text"])

    def lens(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "lang": df["lang"].to_numpy(),
                             "n": df["text"].str.len().astype(np.int64)})

    sized = docs.map_batches(lens, batch_format="pandas")
    # n² stays int64 (doc lengths are small): integer sums are exact and
    # order-independent, so Python and SQL derive identical doubles
    moments = partial_aggregate(
        sized.map_batches(
            lambda df: df.assign(n2=df["n"].astype(np.int64) ** 2),
            batch_format="pandas"),
        ["lang"], {"s1": ("sum", "n"), "s2": ("sum", "n2"),
                   "cnt": ("count", None)}).to_pandas()
    import math

    moments["mean"] = moments["s1"] / moments["cnt"]
    # population variance, same expression tree as the SQL oracle:
    # every op (div, mul, sub, sqrt) is IEEE-754 correctly rounded, so
    # identical inputs give bit-identical doubles on both sides
    moments["var"] = moments["s2"] / moments["cnt"] - moments["mean"] ** 2
    stats_by_lang = {r["lang"]: (r["mean"],
                                 math.sqrt(r["var"]) if r["var"] > 0 else 0.0)
                     for _, r in moments.iterrows()}

    def zscore(df: pd.DataFrame) -> pd.DataFrame:
        mean = df["lang"].map(lambda l: stats_by_lang[l][0]).to_numpy()
        std = df["lang"].map(lambda l: stats_by_lang[l][1]).to_numpy()
        z = np.where(std > 0, (df["n"].to_numpy() - mean) / std, 0.0)
        # FLOOR (not round): no .5-tie semantics to disagree on
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "z_milli": np.floor(z * 1000).astype(np.int64)})

    return sized.map_batches(zscore, batch_format="pandas")


# ------------------------------------------- structured detail parse M2

def _build_structured_text(doc_id: int, text: str) -> str:
    """Deterministic multi-page LLM-response analog built from a
    documents row: an order page (headers + 15-field comma rows from
    consecutive tokens + one malformed <15-col row), a sentinel
    non-order page for every 3rd doc, and a blank page for every 4th —
    so the parse exercises every branch of the reference semantics and
    the oracle can derive the expected output from raw tokens alone."""
    toks = text.split(" ")
    parts = ["--- PAGE 1 ---",
             f"[customer]cust_{doc_id % 7}",
             f"[order_date]d{doc_id % 28}",
             f"[order_no]po{doc_id}",
             "[details]"]
    n_rows = min(3, len(toks) // 15)
    for r in range(n_rows):
        sep = " , " if r % 2 else ","   # parser must trim per column
        parts.append(sep.join(toks[15 * r:15 * r + 15]))
    if len(toks) >= 5:
        parts.append(",".join(toks[:5]))  # <15 columns: parser drops it
    s = "\n".join(parts)
    if doc_id % 3 == 0:
        s += "\n--- PAGE 2 ---\n" + extractors.NON_ORDER_SENTINEL
    if doc_id % 4 == 0:
        s += "\n--- PAGE 3 ---\n   "      # blank block: filtered pre-parse
    return s


def parse_detail_rows(sf_dir: str) -> rd.Dataset:
    """Raw multi-page text → typed flat detail rows (M2: the reference's
    parseMultiPageDataFromLLM, docs/google_apps_script_reference.md:
    346-407): page-block split, sentinel pages, header regexes, 15-field
    comma rows with the <15-column drop, header-or-rows page keep.
    One flat row per detail row; header-only pages and sentinel pages
    emit a row_idx=-1 marker row."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    cols = (["doc_id", "page_idx", "row_idx", "is_non_order",
             "h_customer", "h_order_date", "h_order_no"]
            + extractors.DETAIL_FIELDS)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        out = {c: [] for c in cols}

        def emit(did, page_idx, row_idx, non_order, hdrs, fields):
            out["doc_id"].append(did)
            out["page_idx"].append(page_idx)
            out["row_idx"].append(row_idx)
            out["is_non_order"].append(non_order)
            for k in ("h_customer", "h_order_date", "h_order_no"):
                out[k].append(hdrs.get(k, ""))
            for k in extractors.DETAIL_FIELDS:
                out[k].append(fields.get(k, ""))

        for did, text in zip(df["doc_id"], df["text"]):
            structured = _build_structured_text(int(did), text)
            for page in extractors.parse_detail_pages(structured):
                if page.get("is_non_order"):
                    emit(did, page["page_idx"], -1, True, {}, {})
                elif not page["detail_rows"]:
                    emit(did, page["page_idx"], -1, False, page, {})
                else:
                    for r_idx, row in enumerate(page["detail_rows"]):
                        emit(did, page["page_idx"], r_idx, False, page, row)
        res = pd.DataFrame(out)
        res["doc_id"] = res["doc_id"].astype("int64")
        res["page_idx"] = res["page_idx"].astype("int32")
        res["row_idx"] = res["row_idx"].astype("int32")
        res["is_non_order"] = res["is_non_order"].astype(bool)
        return res

    return docs.map_batches(fn, batch_format="pandas")


def _cms_oracle_sql() -> str:
    """Generated from CMS_WIDTH / CMS_DEPTH / CMS_QUERY_TOKENS — the
    same constants the engine sketch uses, so the cell hashing cannot
    drift. est(q) = min over depth rows of the count of token
    OCCURRENCES whose row-d cell collides with q's."""
    W, D = CMS_WIDTH, CMS_DEPTH
    probe = ", ".join(f"'{t}'" for t in CMS_QUERY_TOKENS)
    cnts = ",\n        ".join(
        f"cnt{d} AS (SELECT CAST(('0x' || substr(md5('{d}|' || tok), 1, 16))"
        f" AS UBIGINT) % {W} AS c, CAST(COUNT(*) AS BIGINT) AS n"
        f" FROM tok GROUP BY 1)"
        for d in range(D))
    joins = "\n        ".join(
        f"LEFT JOIN cnt{d} c{d} ON c{d}.c = CAST(('0x' || substr("
        f"md5('{d}|' || q.token), 1, 16)) AS UBIGINT) % {W}"
        for d in range(D))
    least = ", ".join(f"COALESCE(c{d}.n, 0)" for d in range(D))
    return f"""
        WITH tok AS (
          SELECT tok FROM (SELECT unnest(string_split(text, ' ')) AS tok
                           FROM documents) WHERE tok <> ''),
        {cnts},
        qs AS (SELECT unnest([{probe}]) AS token)
        SELECT q.token, CAST(least({least}) AS BIGINT) AS est_count
        FROM qs q
        {joins}"""


def _bpe_train_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for q_bpe_train, generated by the
    INDEPENDENT serial BPE (text_analysis.bpe_train_serial — Counter +
    incremental segmentations, a different algorithm shape from the
    distributed trainer). Same pattern as _extract_summary_oracle_sql;
    disk-cached keyed by the documents.parquet stat + merge count so a
    corpus or semantics change regenerates it. Tier maps to the
    standard testdata dir (the driver always runs the correctness tier
    = sf0.01)."""
    sf = {"smoke": "sf0.001", "correctness": "sf0.01",
          "bench": "sf0.1"}[tier]
    path = f"/root/testdata/{sf}/documents.parquet"

    def compute() -> list:
        import pyarrow.parquet as pq
        texts = pq.read_table(path, columns=["text"])["text"].to_pylist()
        return [[r, a, b, c] for r, (a, b, c) in
                enumerate(text_analysis.bpe_train_serial(
                    texts, text_analysis.BPE_TRAIN_MERGES))]

    rows = json_cache(
        f"bpe_{input_key(path, text_analysis.BPE_TRAIN_MERGES)}.json",
        compute)

    def q(s: str) -> str:
        return "'" + s.replace("'", "''") + "'"

    vals = ", ".join(f"({r}, {q(a)}, {q(b)}, {c})" for r, a, b, c in rows)
    return f"""
        SELECT CAST(rank AS BIGINT) AS rank, lhs, rhs,
               CAST(pair_count AS BIGINT) AS pair_count
        FROM (VALUES {vals}) AS t(rank, lhs, rhs, pair_count)"""


def _media_usage_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for q_media_usage from the single-process
    reference extraction (same independent implementation the pytest
    span-sequence gate asserts against); disk-cached by source
    fingerprint + tier like _extract_summary_oracle_sql."""
    from . import oracle as oracle_mod

    fp = fixtures.source_fingerprint(fixtures, extractors, oracle_mod)

    def compute() -> list:
        per_doc = oracle_mod.extract_corpus(fixtures.DEFAULT_SEED,
                                            fixtures.TIERS[tier])
        acc: dict = {}
        for r in per_doc:
            for s in r["spans"]:
                if s["kind"] in ("pdf", "image"):
                    a = acc.setdefault(s["kind"], [set(), 0, 0])
                    a[0].add(s["media_ref"])
                    a[1] += 1
                    a[2] += len(s["text"])
        return [[k, len(v[0]), v[1], v[2]] for k, v in sorted(acc.items())]

    rows = json_cache(f"{fp}_{tier}_media_usage.json", compute)
    vals = ", ".join("('{}', {}, {}, {})".format(*r) for r in rows)
    return f"""
        SELECT kind, CAST(n_refs AS BIGINT) AS n_refs,
               CAST(n_spans AS BIGINT) AS n_spans,
               CAST(sum_chars AS BIGINT) AS sum_chars
        FROM (VALUES {vals}) AS t(kind, n_refs, n_spans, sum_chars)"""


def _mm_payload_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for q_mm_payload_dedup: an independent
    serial pass over the SAME fixture corpus rows (including duplicate
    doc_ids — media_table does not doc-dedup), sha1 per payload,
    first-wins keeper per (sha, kind). Disk-cached by fixtures source
    fingerprint + tier."""
    import hashlib

    fp = fixtures.source_fingerprint(fixtures)

    def compute() -> list:
        acc: dict = {}
        for i in range(fixtures.TIERS[tier]):
            d = fixtures.gen_doc_row(fixtures.DEFAULT_SEED, i)
            for s in d["spans"]:
                if s["kind"] in ("pdf", "image"):
                    p = fixtures.media_store(s["media_ref"],
                                             fixtures.DEFAULT_SEED)
                    k = (hashlib.sha1(p).hexdigest(), s["kind"])
                    a = acc.setdefault(k, [s["media_ref"], 0, len(p)])
                    a[0] = min(a[0], s["media_ref"])
                    a[1] += 1
        return [[h, k, v[0], v[1], v[2]] for (h, k), v in sorted(acc.items())]

    rows = json_cache(f"{fp}_{tier}_mm_payload.json", compute)
    vals = ", ".join("('{}', '{}', '{}', {}, {})".format(*r) for r in rows)
    return f"""
        SELECT payload_sha, kind, keeper_ref,
               CAST(n_copies AS BIGINT) AS n_copies,
               CAST(nbytes AS BIGINT) AS nbytes
        FROM (VALUES {vals})
          AS t(payload_sha, kind, keeper_ref, n_copies, nbytes)"""


def _mm_interleaved_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for q_mm_interleaved_pack: the serial
    reference extraction's span lists run through the same greedy
    budget rule in plain python. Cached by source fingerprint + tier
    + packing constants."""
    from . import oracle as oracle_mod

    budget = multimodal.MM_SEQ_BUDGET
    mtok = multimodal.MM_TOKENS_PER_MEDIA
    fp = fixtures.source_fingerprint(fixtures, extractors, oracle_mod)

    def compute() -> list:
        per_doc = oracle_mod.extract_corpus(fixtures.DEFAULT_SEED,
                                            fixtures.TIERS[tier])
        rows = []
        for r in per_doc:
            n_seqs = cur = n_media = n_text = 0
            for s in r["spans"]:
                toks = len(s["text"].split()) if s["text"] else 0
                cost = toks
                if s["kind"] in ("pdf", "image"):
                    cost += mtok
                    n_media += 1
                n_text += toks
                if cur == 0 or cur + cost > budget:
                    n_seqs += 1
                    cur = cost
                else:
                    cur += cost
            rows.append([r["doc_id"], n_seqs, len(r["spans"]), n_media,
                         n_text])
        return rows

    rows = json_cache(f"{fp}_{tier}_mmpack_{budget}_{mtok}.json", compute)
    vals = ", ".join("('{}', {}, {}, {}, {})".format(*r) for r in rows)
    return f"""
        SELECT doc_id, CAST(n_seqs AS BIGINT) AS n_seqs,
               CAST(n_spans AS BIGINT) AS n_spans,
               CAST(n_media AS BIGINT) AS n_media,
               CAST(n_text_tokens AS BIGINT) AS n_text_tokens
        FROM (VALUES {vals})
          AS t(doc_id, n_seqs, n_spans, n_media, n_text_tokens)"""


def _mm_transitions_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for q_mm_span_transitions from the serial
    reference extraction's adjacent-span kind pairs."""
    from . import oracle as oracle_mod

    fp = fixtures.source_fingerprint(fixtures, extractors, oracle_mod)

    def compute() -> list:
        per_doc = oracle_mod.extract_corpus(fixtures.DEFAULT_SEED,
                                            fixtures.TIERS[tier])
        acc: dict = {}
        for r in per_doc:
            ks = [s["kind"] for s in r["spans"]]
            for a, b in zip(ks, ks[1:]):
                acc[(a, b)] = acc.get((a, b), 0) + 1
        return [[a, b, n] for (a, b), n in sorted(acc.items())]

    rows = json_cache(f"{fp}_{tier}_mm_trans.json", compute)
    vals = ", ".join("('{}', '{}', {})".format(*r) for r in rows)
    return f"""
        SELECT kind_from, kind_to, CAST(n AS BIGINT) AS n
        FROM (VALUES {vals}) AS t(kind_from, kind_to, n)"""


def _bpe_encode_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for q_bpe_encode: the serial BPE trainer's
    merges applied per doc by the same greedy rule, independently of
    the distributed path. Cached alongside the bpe_train oracle."""
    sf = {"smoke": "sf0.001", "correctness": "sf0.01",
          "bench": "sf0.1"}[tier]
    path = f"/root/testdata/{sf}/documents.parquet"

    def compute() -> list:
        import pyarrow.parquet as pq
        t = pq.read_table(path, columns=["doc_id", "text"])
        texts = t["text"].to_pylist()
        ids = t["doc_id"].to_pylist()
        merges = [(a, b) for a, b, _c in text_analysis.bpe_train_serial(
            texts, text_analysis.BPE_TRAIN_MERGES)]
        seg_cache: dict = {}

        def seg_len(w: str) -> int:
            n = seg_cache.get(w)
            if n is None:
                n = len(text_analysis.apply_bpe_merges(w, merges))
                seg_cache[w] = n
            return n

        rows = []
        for did, text in zip(ids, texts):
            ws = [w for w in text.split(" ") if w]
            rows.append([did, len(ws), sum(seg_len(w) for w in ws)])
        return rows

    rows = json_cache(
        f"bpeenc_{input_key(path, text_analysis.BPE_TRAIN_MERGES)}.json",
        compute)
    vals = ", ".join(f"({d}, {w}, {b})" for d, w, b in rows)
    return f"""
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(n_words AS BIGINT) AS n_words,
               CAST(n_bpe_tokens AS BIGINT) AS n_bpe_tokens
        FROM (VALUES {vals}) AS t(doc_id, n_words, n_bpe_tokens)"""


def _pagerank_oracle_sql(n_iter: int = 3) -> str:
    """Generated K-level CTE chain replaying graph.pagerank_int's
    all-integer iteration exactly (floor-division contributions, the
    85/100 damping ops) over the shared-chunk pair graph."""
    levels = []
    for i in range(1, n_iter + 1):
        levels.append(f"""r{i} AS (
          SELECT ed.dst AS node,
                 150 + (85 * SUM(r{i - 1}.rank_mu // ed.deg)) // 100
                   AS rank_mu
          FROM ed JOIN r{i - 1} ON r{i - 1}.node = ed.src
          GROUP BY ed.dst)""")
    lv = ",\n        ".join(levels)
    return f"""
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        c AS (
          SELECT doc_id, md5(array_to_string(toks[10*i+1:10*i+10], ' '))
                   AS ch
          FROM (SELECT doc_id, toks,
                       unnest(range(0, len(toks) // 10)) AS i
                FROM t)),
        d AS (SELECT DISTINCT doc_id, ch FROM c),
        p AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
          FROM d a JOIN d b ON a.ch = b.ch AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
        e AS (SELECT doc_a AS src, doc_b AS dst FROM p
              UNION ALL
              SELECT doc_b AS src, doc_a AS dst FROM p),
        deg AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS deg
                FROM e GROUP BY src),
        ed AS (SELECT e.src, e.dst, deg.deg FROM e JOIN deg USING (src)),
        r0 AS (SELECT src AS node, CAST(1000 AS BIGINT) AS rank_mu
               FROM deg),
        {lv}
        SELECT node, CAST(rank_mu AS BIGINT) AS rank_mu FROM r{n_iter}"""


def _mm_prep_oracle_sql(tier: str = "correctness") -> str:
    """Composed inline-VALUES oracle for q_mm_prep: serial reference
    extraction → the same greedy packing rule → the same md5 shard
    rule → per-shard rollup."""
    from . import oracle as oracle_mod

    budget = multimodal.MM_SEQ_BUDGET
    mtok = multimodal.MM_TOKENS_PER_MEDIA
    fp = fixtures.source_fingerprint(fixtures, extractors, oracle_mod)

    def compute() -> list:
        per_doc = oracle_mod.extract_corpus(fixtures.DEFAULT_SEED,
                                            fixtures.TIERS[tier])
        acc: dict = {}
        for r in per_doc:
            n_seqs = cur = n_media = n_text = 0
            for s in r["spans"]:
                toks = len(s["text"].split()) if s["text"] else 0
                cost = toks
                if s["kind"] in ("pdf", "image"):
                    cost += mtok
                    n_media += 1
                n_text += toks
                if cur == 0 or cur + cost > budget:
                    n_seqs += 1
                    cur = cost
                else:
                    cur += cost
            sh = int(dedup.md5_hex(str(r["doc_id"]))[:8], 16) % 16
            a = acc.setdefault(sh, [0, 0, 0, 0])
            a[0] += 1
            a[1] += n_seqs
            a[2] += n_media
            a[3] += n_text
        return [[sh] + v for sh, v in sorted(acc.items())]

    rows = json_cache(f"{fp}_{tier}_mmprep_{budget}_{mtok}.json", compute)
    vals = ", ".join("({}, {}, {}, {}, {})".format(*r) for r in rows)
    return f"""
        SELECT CAST(shard AS BIGINT) AS shard,
               CAST(n_docs AS BIGINT) AS n_docs,
               CAST(n_seqs AS BIGINT) AS n_seqs,
               CAST(n_media AS BIGINT) AS n_media,
               CAST(n_text_tokens AS BIGINT) AS n_text_tokens
        FROM (VALUES {vals})
          AS t(shard, n_docs, n_seqs, n_media, n_text_tokens)"""


# --------------------------------------- extract-summary value oracle

def _extract_summary_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for q_extract_summary: the single-process
    reference extraction (oracle.extract_corpus — the same spec the
    pytest span-sequence gate asserts per doc) rolled up per status and
    embedded as a constant table, giving the fixture-corpus extraction
    family a driver-visible VALUE check (VERDICT r2 missing #1).
    Disk-cached keyed by the source fingerprint of everything the
    expected values depend on, so a semantics change in a later round
    regenerates it (one ~4 s serial pass per fingerprint for the
    2000-doc correctness tier)."""
    from . import oracle as oracle_mod

    fp = fixtures.source_fingerprint(fixtures, extractors, oracle_mod)

    def compute() -> list:
        per_doc = oracle_mod.extract_corpus(fixtures.DEFAULT_SEED,
                                            fixtures.TIERS[tier])
        acc: dict = {}
        for r in per_doc:
            a = acc.setdefault(r["status"], [0] * 6)
            a[0] += 1
            a[1] += r["total_units"]
            a[2] += r["processed"]
            a[3] += r["skipped"]
            a[4] += r["errors"]
            a[5] += r["master_hits"]
        return [[s] + v for s, v in sorted(acc.items())]

    rows = json_cache(f"{fp}_{tier}_summary.json", compute)
    vals = ", ".join("('{}', {}, {}, {}, {}, {}, {})".format(*r) for r in rows)
    return f"""
        SELECT status, CAST(n_docs AS BIGINT) AS n_docs,
               CAST(total_units AS BIGINT) AS total_units,
               CAST(processed AS BIGINT) AS processed,
               CAST(skipped AS BIGINT) AS skipped,
               CAST(errors AS BIGINT) AS errors,
               CAST(master_hits AS BIGINT) AS master_hits
        FROM (VALUES {vals})
          AS t(status, n_docs, total_units, processed, skipped, errors,
               master_hits)"""


def _extract_then_clean_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for extract_then_clean: the serial reference
    extraction joined to doc texts, run through the SAME clean rule
    (word/char thresholds + exact first-wins dedup on content, min-id
    keeper) — the last extract-family query without a driver-visible
    value check. Disk-cached per source fingerprint."""
    from . import oracle as oracle_mod
    from .text_analysis import _WORD_RE

    fp = fixtures.source_fingerprint(fixtures, extractors, oracle_mod)

    def compute() -> list:
        per_doc = oracle_mod.extract_corpus(fixtures.DEFAULT_SEED,
                                            fixtures.TIERS[tier])
        best: dict = {}  # text -> min doc_id (first-wins keeper)
        for r in per_doc:
            text = "\n".join(s["text"] for s in r["spans"])
            if len(_WORD_RE.findall(text)) < 10 or len(text) < 50:
                continue
            if text not in best or r["doc_id"] < best[text]:
                best[text] = r["doc_id"]
        return sorted(best.values())

    kept = json_cache(f"{fp}_{tier}_thenclean.json", compute)
    vals = ", ".join(f"('{d}')" for d in kept)
    return f"""
        SELECT doc_id FROM (VALUES {vals}) AS t(doc_id)"""


def _extract_span_checksum_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for extract_span_checksum: the serial
    reference extraction (oracle.extract_corpus) folded through the
    SAME per-span md5 checksum — disk-cached per source fingerprint
    like _extract_summary_oracle_sql."""
    import hashlib as _h

    from . import oracle as oracle_mod

    fp = fixtures.source_fingerprint(fixtures, extractors, oracle_mod)

    def compute() -> list:
        per_doc = oracle_mod.extract_corpus(fixtures.DEFAULT_SEED,
                                            fixtures.TIERS[tier])
        acc: dict = {}
        for r in per_doc:
            for s in r["spans"]:
                a = acc.setdefault(s["kind"], [0, 0])
                a[0] += 1
                a[1] += int(_h.md5(
                    f"{r['doc_id']}|{s['order']}|{s['kind']}|{s['text']}|"
                    f"{s['media_ref']}".encode("utf-8")).hexdigest()[:8], 16)
        return [[k] + v for k, v in sorted(acc.items())]

    rows = json_cache(f"{fp}_{tier}_spanchk.json", compute)
    vals = ", ".join("('{}', {}, {})".format(*r) for r in rows)
    return f"""
        SELECT kind, CAST(n_spans AS BIGINT) AS n_spans,
               CAST(sum_chk AS BIGINT) AS sum_chk
        FROM (VALUES {vals}) AS t(kind, n_spans, sum_chk)"""


# ----------------------------------------------------------- multimodal

def q_mm_payload_dedup(sf_dir: str) -> rd.Dataset:
    """Exact media-payload dedup over the interleaved corpus's binary
    column — hashes stay inside the map stage, the exchange carries
    only (sha, kind, ref) rows. Value oracle = an independent serial
    pass over the same fixture corpus (_mm_payload_oracle_sql)."""
    media = multimodal.media_table(_corpus(sf_dir))
    return multimodal.payload_dedup(media)


def q_mm_interleaved_pack(sf_dir: str) -> rd.Dataset:
    """MMC4/Flamingo-style interleaved text+media sequence packing over
    the flagship extraction's reading-order span lists; per-doc rollup,
    VALUES oracle from the independent serial extraction + the same
    greedy rule (_mm_interleaved_oracle_sql)."""
    return multimodal.interleaved_pack(
        _extracted(sf_dir).select_columns(["doc_id", "spans"]))


def q_mm_span_transitions(sf_dir: str) -> rd.Dataset:
    """Interleaving-structure audit: corpus-wide counts of
    (kind_from → kind_to) transitions between ADJACENT spans in each
    document's reading order — the layout statistic an interleaved
    text+media training mix is tuned against. Arrow list kernels +
    one tiny bucketed aggregate; VALUES oracle from the serial
    extraction (_mm_transitions_oracle_sql)."""
    res = _extracted(sf_dir).select_columns(["spans"])

    def trans(t: pa.Table) -> pd.DataFrame:
        import pyarrow.compute as pc

        t = t.combine_chunks()
        spans = t.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = pc.list_flatten(spans)
        if len(flat) == 0:
            return pd.DataFrame({"kind_from": pd.Series([], dtype=object),
                                 "kind_to": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        parent = pc.list_parent_indices(spans).to_numpy(
            zero_copy_only=False)
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        adj = parent[:-1] == parent[1:]
        a, b = kinds[:-1][adj], kinds[1:][adj]
        if not len(a):
            return pd.DataFrame({"kind_from": pd.Series([], dtype=object),
                                 "kind_to": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        pairs = pd.DataFrame({"kind_from": a, "kind_to": b})
        g = pairs.groupby(["kind_from", "kind_to"], sort=False,
                          as_index=False).size()
        return g.rename(columns={"size": "n"}).astype({"n": "int64"})

    return partial_aggregate(
        res.map_batches(trans, batch_format="pyarrow"),
        ["kind_from", "kind_to"], {"n": ("sum", "n")})


def q_mm_prep(sf_dir: str) -> rd.Dataset:
    """END-TO-END multimodal training-data prep as one query — the
    interleaved counterpart of training_prep / rag_prep: flagship
    extraction (reading-order spans) → MMC4-style greedy sequence
    packing (per-doc rollup) → deterministic md5 sharding → 16-row
    per-shard manifest (docs, sequences, media spans, text tokens).
    Composed VALUES oracle runs the serial reference extraction
    through the same packing + shard rules (_mm_prep_oracle_sql)."""
    from . import shards

    packed = multimodal.interleaved_pack(
        _extracted(sf_dir).select_columns(["doc_id", "spans"]))
    assigned = shards.shard_assign(packed, num_shards=16)
    agg = partial_aggregate(
        assigned.select_columns(
            ["shard", "n_seqs", "n_media", "n_text_tokens"]),
        ["shard"],
        {"n_docs": ("count", None), "n_seqs": ("sum", "n_seqs"),
         "n_media": ("sum", "n_media"),
         "n_text_tokens": ("sum", "n_text_tokens")})
    return agg.map_batches(
        lambda df: df.astype({c: "int64" for c in df.columns}),
        batch_format="pandas")


def q_mm_featurize(sf_dir: str) -> rd.Dataset:
    media = multimodal.media_table(_corpus(sf_dir))
    return multimodal.featurize_media(media)


def q_mm_frame_sample(sf_dir: str) -> rd.Dataset:
    media = multimodal.media_table(_corpus(sf_dir))
    sampled = multimodal.frame_sample(media, every_n=2)
    return sampled.select_columns(["media_ref", "kind", "page_idx"])


def q_mm_resize(sf_dir: str) -> rd.Dataset:
    media = multimodal.media_table(_corpus(sf_dir))
    resized = multimodal.resize_media(media, factor=2, max_runs=4)
    return resized.select_columns(["media_ref", "kind", "orig_bytes",
                                   "resized_bytes"])


# ------------------------------------------------------------ registry

# Shared SQL fragments ------------------------------------------------

# md5-based 64-bit SimHash recomputed in SQL, bit-for-bit equal to
# dedup.SimHasher: first 8 md5 bytes big-endian, ±1 per bit per token
# occurrence (whitespace split, empties kept), bit set iff acc > 0,
# two's-complement int64.
_SIMHASH_CORE_SQL = """
    toks AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents),
    h AS (
      SELECT doc_id, CAST(('0x' || substr(md5(tok),1,16)) AS UBIGINT) AS h
      FROM toks),
    bits AS (
      SELECT doc_id, i,
             SUM(CASE WHEN (h >> i) & 1 = 1 THEN 1 ELSE -1 END) AS acc
      FROM h CROSS JOIN (SELECT unnest(range(64)) AS i) idx
      GROUP BY doc_id, i),
    u AS (
      SELECT doc_id,
             SUM(CASE WHEN acc > 0
                 THEN CAST(CAST(1 AS UBIGINT) << i AS HUGEINT) ELSE 0 END) AS uval
      FROM bits GROUP BY doc_id),
    simhashes AS (
      SELECT doc_id,
             CAST(CASE WHEN uval >= 9223372036854775808
                  THEN uval - 18446744073709551616::HUGEINT
                  ELSE uval END AS BIGINT) AS simhash
      FROM u)"""

# 3-token shingle list per doc (1-based inclusive DuckDB slices mirror
# python's toks[i:i+3] incl. the short-tail case for <3-token docs),
# plus the leading-2-token block key.
_SHINGLES_CORE_SQL = """
    t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM {src}),
    sh AS (SELECT doc_id, array_to_string(toks[1:2], ' ') AS block,
           list_distinct(list_transform(
               range(1, greatest(2, len(toks)-1)),
               i -> array_to_string(toks[i:i+2], ' '))) AS shingles
           FROM t)"""


def _langid_oracle_sql() -> str:
    """Profile-overlap argmax in SQL, generated from the SAME profile
    table the engine uses (text_analysis._LANG_PROFILES) so the two can
    never drift. Tie semantics: first language in sorted order achieving
    the (strictly positive) max; otherwise 'unknown'."""
    profs = sorted(text_analysis._LANG_PROFILES.items())
    langs = [lang for lang, _ in profs]
    overlaps = ",\n               ".join(
        "len(list_intersect(words, [{}])) AS o_{}".format(
            ", ".join(repr(w) for w in sorted(prof)), lang)
        for lang, prof in profs)
    mx = "greatest(" + ", ".join(f"o_{l}" for l in langs) + ")"
    cases = " ".join(f"WHEN o_{l} = {mx} THEN '{l}'" for l in langs)
    return f"""
        WITH w AS (
          SELECT doc_id,
                 list_distinct(list_transform(
                     regexp_extract_all(text, '[A-Za-z0-9_]+'),
                     x -> lower(x))) AS words
          FROM documents),
        o AS (SELECT doc_id,
               {overlaps}
              FROM w)
        SELECT doc_id,
               CASE WHEN {mx} = 0 THEN 'unknown' {cases} END AS pred_lang
        FROM o"""


# ----------------------------------------------- round-4 continuation

EDIT1_TITLE_TOKENS = 4


def q_dedup_edit1(sf_dir: str) -> rd.Dataset:
    """Edit-distance<=1 near-duplicate TITLE pairs via FastSS deletion
    neighborhoods (dedup.editk_pairs, k=1) — the short-key
    spelling-variant dedup family (titles/URLs/product names). Titles
    are the first EDIT1_TITLE_TOKENS tokens, with a planted
    one-character append on every doc_id % 29 == 0 so substitution/
    indel variants provably exist in the fixture corpus; the SQL oracle
    recomputes the same titles and takes exact DuckDB levenshtein <= 1
    over the |len diff| <= 1 band. Candidate generation is provably
    complete for distance 1 (property-fuzzed in tests), so engine and
    oracle must agree pair-for-pair."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def title(df: pd.DataFrame) -> pd.DataFrame:
        t = (df["text"].str.split(" ").str[:EDIT1_TITLE_TOKENS]
             .str.join(" "))
        t = t.where(df["doc_id"] % 29 != 0, t + "x")
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "title": t})

    return dedup.editk_pairs(docs.map_batches(title, batch_format="pandas"),
                             id_col="doc_id", key_col="title", k=1)


def q_dedup_edit2(sf_dir: str) -> rd.Dataset:
    """Depth-2 FastSS: edit-distance<=2 title pairs (dedup.editk_pairs,
    banded-DP verify). Planting: doc_id % 31 == 0 appends 'qq'
    (distance exactly 2 from its base title), else % 29 == 0 appends
    'x' (distance 1) — so both distances occur and the k=1 pairs are a
    strict subset. Exact DuckDB levenshtein oracle over the
    |len diff| <= 2 band."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def title(df: pd.DataFrame) -> pd.DataFrame:
        t = (df["text"].str.split(" ").str[:EDIT1_TITLE_TOKENS]
             .str.join(" "))
        t = t.where(df["doc_id"] % 31 != 0, t + "qq")
        t = t.where((df["doc_id"] % 31 == 0) | (df["doc_id"] % 29 != 0),
                    t + "x")
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "title": t})

    return dedup.editk_pairs(docs.map_batches(title, batch_format="pandas"),
                             id_col="doc_id", key_col="title", k=2)


def mad_outliers(sf_dir: str) -> rd.Dataset:
    """Robust outlier detection on the event-value stream: flag events
    whose |value - median| exceeds 3x the median absolute deviation —
    both medians computed EXACTLY in two bounded distributed passes
    each (relops.exact_order_statistic histogram shape; lower-median
    rule k=(n+1)//2, stated identically in the SQL oracle's
    ORDER BY/OFFSET arithmetic so there is no interpolation to drift).
    Values are cents (two-decimal fixture amounts -> exact int64).
    The projection is consumed by the bounded passes + the final
    filter, so it is materialized once (two int64 columns); each
    median is relops.exact_median (n comes from the histogram — no
    separate count pass)."""
    ev = rp(sf_dir, "events", ["event_id", "value"])
    cents = ev.map_batches(
        lambda df: pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                                 "v": _cents(df["value"])}),
        batch_format="pandas").materialize()
    med, _ = relops.exact_median(cents, "v")

    def devs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "dev": np.abs(df["v"].to_numpy(dtype=np.int64) - med)})

    dev = cents.map_batches(devs, batch_format="pandas").materialize()
    mad, _ = relops.exact_median(dev, "dev")
    return dev.map_batches(
        lambda df: df[df["dev"] > 3 * mad][["event_id", "dev"]],
        batch_format="pandas")


MAVG_ROWS = 3  # current row + 2 preceding


def events_moving_avg(sf_dir: str) -> rd.Dataset:
    """Per-user moving window over the ordered event log: count and
    cent-sum of the last MAVG_ROWS values (ROWS BETWEEN 2 PRECEDING
    AND CURRENT ROW) — the rolling-statistics window shape, via the
    same per-user hash-bucket ordered-log pattern as sessionize
    (sort inside the bucket, vectorized cumsum difference)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        u = _cents(df["value"]).to_numpy(dtype=np.int64)
        # windows never cross users: compute cumsums per user segment
        out_n = np.empty(len(df), dtype=np.int64)
        out_s = np.empty(len(df), dtype=np.int64)
        start = df["user_id"].ne(df["user_id"].shift()).to_numpy()
        seg_first = np.flatnonzero(start)
        bounds = np.append(seg_first, len(df))
        for a, b in zip(bounds[:-1], bounds[1:]):
            c = np.concatenate(([0], np.cumsum(u[a:b])))
            k = len(c) - 1
            idx = np.arange(1, k + 1)
            lo = np.maximum(idx - MAVG_ROWS, 0)
            out_n[a:b] = idx - lo
            out_s[a:b] = c[idx] - c[lo]
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                             "w_n": out_n, "w_sum": out_s})

    return _bucketed_by_user(ev, fn)


COOC_CAP = 12       # per-doc distinct-token cap (alphabetical order)
COOC_MIN_COUNT = 3  # min pair support


def token_cooccurrence(sf_dir: str) -> rd.Dataset:
    """Corpus-wide token co-occurrence counts (the word2vec/PMI/
    phrase-mining prep step): per document, the first COOC_CAP
    distinct tokens in byte order pair off (tok_a < tok_b); pair
    counts aggregate through bucketed partials and pairs below
    COOC_MIN_COUNT support are dropped. The cap is the standard
    guard that keeps the per-doc pair expansion O(cap^2) instead of
    O(vocab^2) on pathological documents, and it is stated
    identically in the SQL oracle (row_number over the per-doc
    distinct tokens)."""
    docs = rp(sf_dir, "documents", ["text"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        a_parts, b_parts = [], []
        for text in df["text"]:
            toks = sorted({t for t in text.split(" ") if t})[:COOC_CAP]
            if len(toks) < 2:
                continue
            arr = np.array(toks, dtype=object)
            iu, ju = np.triu_indices(len(arr), k=1)
            a_parts.append(arr[iu])
            b_parts.append(arr[ju])
        if not a_parts:
            return pd.DataFrame({"tok_a": pd.Series([], dtype=str),
                                 "tok_b": pd.Series([], dtype=str)})
        return pd.DataFrame({"tok_a": np.concatenate(a_parts),
                             "tok_b": np.concatenate(b_parts)})

    agg = partial_aggregate(docs.map_batches(pairs, batch_format="pandas"),
                            ["tok_a", "tok_b"], {"n": ("count", None)})
    return agg.map_batches(
        lambda df: df[df["n"] >= COOC_MIN_COUNT], batch_format="pandas")


def jsonl_roundtrip(sf_dir: str) -> rd.Dataset:
    """VALUE-level JSONL sink+source round trip: export the documents
    table as md5-sharded JSONL (storage.export_jsonl_shards, marker-
    resumed), read it back through ray.data.read_json, and fold per
    language into (count, doc_id sum, text md5 fold) — which the SQL
    oracle computes from the ORIGINAL parquet table, so any loss or
    mangling in either direction of the JSON hop breaks the hash.
    Strengthens export_jsonl's count-only manifest check to content
    equality (the interchange-format guarantee an LM training stack
    needs)."""
    import glob as _glob
    import os

    from . import storage

    out = input_cache_dir("jsonl_rt", f"{sf_dir}/documents.parquet",
                          f"v{storage.JSONL_EXPORT_FORMAT}")
    storage.export_jsonl_shards(
        rp(sf_dir, "documents", ["doc_id", "text", "lang"]), out,
        num_shards=16)
    files = sorted(_glob.glob(os.path.join(out, "shard=*", "*.jsonl")))
    with DATASET_CONSTRUCTION_LOCK:
        back = rd.read_json(files)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        h = np.fromiter((int(dedup.md5_hex(t)[:8], 16) for t in df["text"]),
                        dtype=np.int64, count=len(df))
        return pd.DataFrame({"lang": df["lang"].to_numpy(),
                             "n": np.ones(len(df), dtype=np.int64),
                             "id_sum": df["doc_id"].to_numpy(dtype=np.int64),
                             "fold": h})

    return partial_aggregate(back.map_batches(fold, batch_format="pandas"),
                             ["lang"], {"n": ("sum", "n"),
                                        "id_sum": ("sum", "id_sum"),
                                        "fold": ("sum", "fold")})


TOPK_TIES_K = 10


def topk_with_ties(sf_dir: str) -> rd.Dataset:
    """Per-group top-k WITH TIES (SQL RANK() <= k semantics, distinct
    from grouped_topk's row_number): all events whose cent-value ranks
    in each event_type's top TOPK_TIES_K, ties kept. rank(x) <= k iff
    x >= the group's k-th largest value, so the engine computes that
    threshold exactly in two bounded passes
    (relops.grouped_kth_from_top) and the selection is one broadcast-
    filter map — no per-group sort, group sizes never matter."""
    ev = rp(sf_dir, "events", ["event_id", "event_type", "value"])
    cents = ev.map_batches(
        lambda df: pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                                 "event_type": df["event_type"].to_numpy(),
                                 "v": _cents(df["value"])}),
        batch_format="pandas").materialize()
    thr = relops.grouped_kth_from_top(cents, "event_type", "v",
                                      TOPK_TIES_K)

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        cut = np.fromiter((thr[x] for x in df["event_type"]),
                          dtype=np.int64, count=len(df))
        return df[df["v"].to_numpy(dtype=np.int64) >= cut]

    return cents.map_batches(flt, batch_format="pandas")


def session_stats(sf_dir: str) -> rd.Dataset:
    """Per-session aggregate over the sessionized event log: event
    count and wall duration (us) of every (user, session) — the
    session-analytics companion of events_sessionize, computed inside
    the same per-user ordered-log buckets (sessions never span
    buckets, so the aggregate is bucket-local)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    GAP_US = 1800 * 10**6

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        prev = df.groupby("user_id")["ts"].shift()
        gap = df["ts"].astype("int64") - prev.astype("int64")
        new_sess = prev.isna() | (gap > GAP_US)
        sess = new_sess.groupby(df["user_id"]).cumsum().astype("int64") - 1
        t = df["ts"].astype("int64")
        g = pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                          "session_idx": sess.to_numpy(), "t": t.to_numpy()})
        agg = (g.groupby(["user_id", "session_idx"], sort=False)["t"]
               .agg(n_events="size", lo="min", hi="max").reset_index())
        return pd.DataFrame({
            "user_id": agg["user_id"].to_numpy(),
            "session_idx": agg["session_idx"].to_numpy(),
            "n_events": agg["n_events"].to_numpy(dtype=np.int64),
            "dur_us": (agg["hi"] - agg["lo"]).to_numpy(dtype=np.int64)})

    return _bucketed_by_user(ev, fn)


HOP_US = 300 * 10**6            # 5-minute hop
HOPPING_SIZE_US = 600 * 10**6   # 10-minute windows -> 2 windows/event


def events_hopping(sf_dir: str) -> rd.Dataset:
    """Per-user HOPPING (overlapping) windows — the sliding-aggregate
    streaming shape tumbling windows can't express: 10-minute windows
    advancing every 5 minutes, so each event lands in exactly
    size/hop = 2 windows. The window-membership explode is a
    vectorized map (each event emits its size/hop window starts), the
    aggregate is bucketed partials on (user, window_start); nothing
    per-window materializes beyond the partial rows."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    reps = HOPPING_SIZE_US // HOP_US

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("int64").to_numpy()
        v = _cents(df["value"]).to_numpy(dtype=np.int64)
        uid = df["user_id"].to_numpy(dtype=np.int64)
        base = (t // HOP_US) * HOP_US
        parts = []
        for i in range(reps):
            ws = base - i * HOP_US
            m = ws >= 0
            parts.append(pd.DataFrame({"user_id": uid[m], "ws": ws[m],
                                       "v": v[m]}))
        return pd.concat(parts, ignore_index=True)

    return partial_aggregate(
        ev.map_batches(explode, batch_format="pandas"),
        ["user_id", "ws"], {"n": ("count", None), "sum_v": ("sum", "v")})


def dup_degree_hist(sf_dir: str) -> rd.Dataset:
    """Degree distribution of the (exact) edit-distance duplication
    graph: explode the dedup_edit1 pair table into endpoints, count
    per-node degree, histogram the degrees — the graph-shape audit
    (how clustered is the near-dup structure?) in two bucketed
    aggregates over the pair Dataset; no adjacency ever materializes."""
    pairs = q_dedup_edit1(sf_dir)

    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": np.concatenate(
            [df["doc_a"].to_numpy(dtype=np.int64),
             df["doc_b"].to_numpy(dtype=np.int64)])})

    deg = partial_aggregate(
        pairs.map_batches(endpoints, batch_format="pandas"),
        ["id"], {"deg": ("count", None)})
    return partial_aggregate(
        deg.map_batches(lambda df: pd.DataFrame(
            {"deg": df["deg"].to_numpy(dtype=np.int64)}),
            batch_format="pandas"),
        ["deg"], {"n_nodes": ("count", None)})


FUNNEL_WINDOW_US = 600 * 10**6  # 10-minute conversion window
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def funnel_conversions(sf_dir: str) -> rd.Dataset:
    """Per-user funnel analysis: how many 'click' events were followed
    by a 'purchase' by the SAME user within FUNNEL_WINDOW_US — the
    sequential-pattern / conversion-rate shape (event A then event B
    within T). Inside each per-user ordered-log bucket the check is
    two vectorized searchsorted probes of the user's purchase-time
    array per click array (no pairwise join, no per-event Python);
    across users it is the usual hash-bucket partition. Returns
    (user_id, n_clicks, n_converted)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("int64").to_numpy()
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        users, n_clicks, n_conv = [], [], []
        start = np.flatnonzero(df["user_id"].ne(df["user_id"].shift())
                               .to_numpy())
        bounds = np.append(start, len(df))
        for a, b in zip(bounds[:-1], bounds[1:]):
            ct = t[a:b][et[a:b] == "click"]
            pt = t[a:b][et[a:b] == "purchase"]  # sorted (log is sorted)
            lo = np.searchsorted(pt, ct, side="right")
            hi = np.searchsorted(pt, ct + FUNNEL_WINDOW_US, side="right")
            users.append(uid[a])
            n_clicks.append(len(ct))
            n_conv.append(int((hi > lo).sum()))
        return pd.DataFrame({
            "user_id": pd.Series(users, dtype=df["user_id"].dtype),
            "n_clicks": pd.Series(n_clicks, dtype="int64"),
            "n_converted": pd.Series(n_conv, dtype="int64")})

    return _bucketed_by_user(ev, fn)


def events_pivot(sf_dir: str) -> rd.Dataset:
    """Per-user pivot (long -> wide reshape): one count column per
    event type plus the purchase cent-sum, all built as masked integer
    columns INSIDE the read map so only the already-wide partial rows
    shuffle — the map-side pivot that replaces a (user, type) groupby
    + driver reshape. Type list is the fixed EVENT_TYPES vocabulary,
    shared with the generated SQL oracle."""
    ev = rp(sf_dir, "events", ["user_id", "event_type", "value"])

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        et = df["event_type"].to_numpy()
        out = {"user_id": df["user_id"].to_numpy()}
        for ty in EVENT_TYPES:
            out[f"n_{ty}"] = (et == ty).astype(np.int64)
        out["purchase_cents"] = np.where(
            et == "purchase", _cents(df["value"]).to_numpy(), 0)
        return pd.DataFrame(out)

    aggs = {f"n_{ty}": ("sum", f"n_{ty}") for ty in EVENT_TYPES}
    aggs["purchase_cents"] = ("sum", "purchase_cents")
    return partial_aggregate(ev.map_batches(widen, batch_format="pandas"),
                             ["user_id"], aggs)


def top_event_type_per_user(sf_dir: str) -> rd.Dataset:
    """Grouped MODE: each user's most frequent event type (ties ->
    lexicographically smallest type) — one bucketed (user, type) count
    pass, then grouped_topk's bounded per-block partial top-1; the
    per-user type histogram never assembles anywhere."""
    ev = rp(sf_dir, "events", ["user_id", "event_type"])
    counts = partial_aggregate(ev, ["user_id", "event_type"],
                               {"n": ("count", None)})
    top = grouped_topk(counts, ["user_id"], ["n", "event_type"], 1,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: df[["user_id", "event_type", "n"]],
        batch_format="pandas")


def token_drift(sf_dir: str) -> rd.Dataset:
    """Token-distribution drift between corpus snapshots — the
    data-quality monitor that catches a bad ingest batch before it
    trains: per-token counts in the base snapshot vs the planted next
    snapshot (same edit rule as corpus_diff: %17 dropped, %10 edited
    with a ' v2' suffix, %25 re-added under doc_id+10^7), emitted for
    every token whose count moved. Both snapshots' token counts fold
    through ONE bucketed aggregate (tag-masked n_base/n_new columns,
    no join): at 100 TB this moves one (token, 2×int64) row per
    distinct token per block and nothing else."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    new = docs.map_batches(_make_next_snapshot, batch_format="pandas")

    def counts(base: int):
        nb, nn = (1, 0) if base else (0, 1)

        def fn(df: pd.DataFrame) -> pd.DataFrame:
            from collections import Counter
            c: Counter = Counter()
            for text in df["text"]:
                c.update(t for t in text.split(" ") if t)
            toks = list(c.keys())
            n = np.fromiter(c.values(), dtype=np.int64, count=len(c))
            return pd.DataFrame({"tok": pd.Series(toks, dtype=str),
                                 "n_base": n * nb, "n_new": n * nn})
        return fn

    both = (docs.map_batches(counts(1), batch_format="pandas")
            .union(new.map_batches(counts(0), batch_format="pandas")))
    agg = partial_aggregate(both, ["tok"], {"n_base": ("sum", "n_base"),
                                            "n_new": ("sum", "n_new")})

    def drift(df: pd.DataFrame) -> pd.DataFrame:
        d = df["n_new"].to_numpy(np.int64) - df["n_base"].to_numpy(np.int64)
        out = df.assign(delta=d)
        return out[out["delta"] != 0][["tok", "n_base", "n_new", "delta"]]

    return agg.map_batches(drift, batch_format="pandas")


WINSOR_Q = (5, 100)  # clip at the exact p5 / p95 order statistics


def winsorize_values(sf_dir: str) -> rd.Dataset:
    """Winsorized (clipped) event values — the robust-normalization
    prep step: cent-values clipped at the EXACT p5 and p95 order
    statistics (rank ceil(q*n), the grouped-quantile rule), both
    computed in two bounded histogram passes; the clip itself is one
    streaming map. Returns (event_id, v, v_clip)."""
    ev = rp(sf_dir, "events", ["event_id", "value"])
    cents = ev.map_batches(
        lambda df: pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                                 "v": _cents(df["value"])}),
        batch_format="pandas").materialize()
    n = cents.count()
    q_num, q_den = WINSOR_Q
    lo_k = max((n * q_num + q_den - 1) // q_den, 1)          # ceil(.05n)
    hi_k = max((n * (q_den - q_num) + q_den - 1) // q_den, 1)  # ceil(.95n)
    lo = relops.exact_order_statistic(cents, "v", lo_k)
    hi = relops.exact_order_statistic(cents, "v", hi_k)

    def clip(df: pd.DataFrame) -> pd.DataFrame:
        v = df["v"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                             "v": v, "v_clip": np.clip(v, lo, hi)})

    return cents.map_batches(clip, batch_format="pandas")


def self_join_size_by_user(sf_dir: str) -> rd.Dataset:
    """EXACT self-join cardinality WITHOUT running the join — the
    shuffle-size predictor a planner (or a skew audit) needs before
    committing to a user-keyed exchange: |events ⋈ events on user| =
    Σ_u c_u². One bucketed per-key count, squares summed in the same
    fold; the join itself never materializes. Also reports the
    heaviest key's share (the skew headline). Oracle runs the real
    join's COUNT(*) — the engine must predict it exactly."""
    ev = rp(sf_dir, "events", ["user_id"])
    counts = partial_aggregate(ev, ["user_id"], {"c": ("count", None)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        c = df["c"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"n_pairs": [int((c * c).sum())],
                             "max_key_sq": [int((c * c).max())]})

    return partial_aggregate(counts.map_batches(fold, batch_format="pandas"),
                             [], {"n_pairs": ("sum", "n_pairs"),
                                  "max_key_sq": ("max", "max_key_sq")})


def _skyline_block(df: pd.DataFrame) -> pd.DataFrame:
    """2-D Pareto frontier of (nt, nd), maximizing both — vectorized:
    sort by nt desc, take each nt-group's nd max, and keep the rows
    whose nd equals their group max AND strictly beats every
    higher-nt group's max (shifted cummax). Duplicate (nt, nd)
    frontier points all survive (neither strictly dominates)."""
    df = df.sort_values(["nt", "nd"], ascending=False,
                        ignore_index=True)
    nt = df["nt"].to_numpy(np.int64)
    nd = df["nd"].to_numpy(np.int64)
    grp_start = np.flatnonzero(np.r_[True, nt[1:] != nt[:-1]])
    gmax = np.maximum.reduceat(nd, grp_start)
    best_higher = np.r_[np.int64(-1), np.maximum.accumulate(gmax)[:-1]]
    gidx = np.cumsum(np.r_[False, nt[1:] != nt[:-1]])
    keep = (nd == gmax[gidx]) & (gmax[gidx] > best_higher[gidx])
    return df[keep]


def skyline(points: rd.Dataset) -> rd.Dataset:
    """Skyline of a Dataset of (nt, nd, ...) rows, local then merged:
    each block reduces to its own frontier (skyline is idempotent under
    union — skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B))), and the
    local frontiers fold in one exchange on the empty key."""
    return exchange(points, [], _skyline_block, pre=_skyline_block)


def doc_skyline(sf_dir: str) -> rd.Dataset:
    """Pareto frontier (skyline) of the corpus over (token count,
    distinct-token count), maximizing both — the multi-criteria
    selection shape ("longest AND most lexically diverse" exemplars),
    distributed as ``skyline``'s local-then-merge. Exact NOT EXISTS
    dominance oracle; token rule (split on ' ', empties included) is
    identical on both sides."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def measures(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "nt": toks.map(len).to_numpy(dtype=np.int64),
            "nd": toks.map(lambda t: len(set(t)))
                       .to_numpy(dtype=np.int64)})

    return skyline(docs.map_batches(measures, batch_format="pandas"))


def grouped_mad(sf_dir: str) -> rd.Dataset:
    """Per-group robust location/scale: each event_type's exact lower
    median and median absolute deviation — the grouped twin of
    mad_outliers, built from grouped_quantile_thresholds at q=1/2
    (ceil(n/2) IS the lower-median rank) run twice: once on the
    cent-values, once on |v - median(group)| with the tiny per-group
    median map broadcast into the deviation pass. Four bounded
    exchanges total; no group ever assembles."""
    ev = rp(sf_dir, "events", ["event_type", "value"])
    cents = ev.map_batches(
        lambda df: pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                                 "v": _cents(df["value"])}),
        batch_format="pandas").materialize()
    med = relops.grouped_quantile_thresholds(cents, "event_type", "v", 1, 2)

    def devs(df: pd.DataFrame) -> pd.DataFrame:
        cut = np.fromiter((med[g] for g in df["event_type"]),
                          dtype=np.int64, count=len(df))
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "v": np.abs(df["v"].to_numpy(dtype=np.int64) - cut)})

    dev = cents.map_batches(devs, batch_format="pandas")
    mad = relops.grouped_quantile_thresholds(dev, "event_type", "v", 1, 2)
    rows = sorted(med)
    return rd.from_pandas(pd.DataFrame({
        "event_type": rows,
        "med": pd.Series([med[g] for g in rows], dtype="int64"),
        "mad": pd.Series([mad[g] for g in rows], dtype="int64")}))


def _feat_fold(feats) -> int:
    """Position-weighted integer fold of one feature vector (micro-unit
    quantization) — shared by the engine fold and the serial oracle."""
    return int(sum(int(round(float(f) * 1e6)) * (j + 1)
                   for j, f in enumerate(feats)))


def mm_featurize_checksum(sf_dir: str) -> rd.Dataset:
    """VALUE check for the featurize map stage (upgrades
    mm_featurize from rows-only): per kind, fold every output row —
    count, page/run/text-byte sums, the position-weighted micro-unit
    fold of each feature vector, and the decode-error count — and
    hash-match a serial direct-call replay of the SAME kernel over the
    fixture corpus (VALUES oracle). What this proves is that the
    distributed execution (batching, tasks, exchange) preserves
    the kernel's semantics row-for-row."""
    feats = multimodal.featurize_media(
        multimodal.media_table(_corpus(sf_dir)))

    def fold(t: pa.Table) -> pd.DataFrame:
        ff = [_feat_fold(f) for f in t.column("features").to_pylist()]
        errs = [e != "" for e in t.column("error").to_pylist()]
        return pd.DataFrame({
            "kind": t.column("kind").to_pylist(),
            "n": np.ones(t.num_rows, dtype=np.int64),
            "pages": t.column("n_pages").to_numpy().astype(np.int64),
            "runs": t.column("n_runs").to_numpy().astype(np.int64),
            "tbytes": t.column("text_bytes").to_numpy().astype(np.int64),
            "ffold": pd.Series(ff, dtype="int64"),
            "errs": np.asarray(errs, dtype=np.int64)})

    return partial_aggregate(
        feats.map_batches(fold, batch_format="pyarrow"),
        ["kind"], {"n": ("sum", "n"), "pages": ("sum", "pages"),
                   "runs": ("sum", "runs"), "tbytes": ("sum", "tbytes"),
                   "ffold": ("sum", "ffold"), "errs": ("sum", "errs")})


def mm_frame_sample_checksum(sf_dir: str) -> rd.Dataset:
    """VALUE check for the frame/page-sampling stage (upgrades
    mm_frame_sample from rows-only): per kind — sampled-row count,
    page-index sum, and an md5 fold of every re-serialized per-page
    blob — vs the serial replay VALUES oracle."""
    sampled = multimodal.frame_sample(
        multimodal.media_table(_corpus(sf_dir)), every_n=2)

    def fold(t: pa.Table) -> pd.DataFrame:
        bf = [int(hashlib.md5(b).hexdigest()[:8], 16)
              for b in t.column("payload").to_pylist()]
        return pd.DataFrame({
            "kind": t.column("kind").to_pylist(),
            "n": np.ones(t.num_rows, dtype=np.int64),
            "pidx": t.column("page_idx").to_numpy().astype(np.int64),
            "bfold": pd.Series(bf, dtype="int64")})

    return partial_aggregate(
        sampled.map_batches(fold, batch_format="pyarrow"),
        ["kind"], {"n": ("sum", "n"), "pidx": ("sum", "pidx"),
                   "bfold": ("sum", "bfold")})


def mm_resize_checksum(sf_dir: str) -> rd.Dataset:
    """VALUE check for the resize map stage (upgrades mm_resize
    from rows-only): per kind — row count, original/resized byte sums,
    md5 fold of every re-serialized payload, decode-error count — vs
    the serial replay VALUES oracle."""
    resized = multimodal.resize_media(
        multimodal.media_table(_corpus(sf_dir)), factor=2, max_runs=4)

    def fold(t: pa.Table) -> pd.DataFrame:
        pf = [int(hashlib.md5(b).hexdigest()[:8], 16)
              for b in t.column("payload").to_pylist()]
        errs = [e != "" for e in t.column("error").to_pylist()]
        return pd.DataFrame({
            "kind": t.column("kind").to_pylist(),
            "n": np.ones(t.num_rows, dtype=np.int64),
            "ob": t.column("orig_bytes").to_numpy().astype(np.int64),
            "rb": t.column("resized_bytes").to_numpy().astype(np.int64),
            "pfold": pd.Series(pf, dtype="int64"),
            "errs": np.asarray(errs, dtype=np.int64)})

    return partial_aggregate(
        resized.map_batches(fold, batch_format="pyarrow"),
        ["kind"], {"n": ("sum", "n"), "ob": ("sum", "ob"),
                   "rb": ("sum", "rb"), "pfold": ("sum", "pfold"),
                   "errs": ("sum", "errs")})


DAY_US = 86_400_000_000


def retention_cohorts(sf_dir: str) -> rd.Dataset:
    """Cohort retention matrix — the product-analytics staple: users
    cohorted by their first-event day, counted once per (cohort day,
    day offset) they were active. Each per-user ordered-log bucket
    derives the user's first day and its distinct day offsets locally
    (one tiny frame per user), then one bucketed aggregate on
    (cohort, off) builds the matrix. Days are integer epoch-days
    (epoch_us // 86400e6) on BOTH sides — no date-type parity risk."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].astype("int64") // DAY_US).to_numpy()
        uid = df["user_id"].to_numpy()
        cohorts, offs = [], []
        start = np.flatnonzero(df["user_id"].ne(df["user_id"].shift())
                               .to_numpy())
        bounds = np.append(start, len(df))
        for a, b in zip(bounds[:-1], bounds[1:]):
            d = day[a:b]
            c = d.min()
            for off in np.unique(d - c):
                cohorts.append(c)
                offs.append(off)
        return pd.DataFrame({"cohort": pd.Series(cohorts, dtype="int64"),
                             "off": pd.Series(offs, dtype="int64")})

    return partial_aggregate(_bucketed_by_user(ev, fn),
                             ["cohort", "off"],
                             {"n_users": ("count", None)})


INTERVAL_JOIN_US = 60 * 10**6  # 60-second pairing window


def events_interval_join_count(sf_dir: str) -> rd.Dataset:
    """Stream-stream interval join, counted: per user, how many ORDERED
    event pairs fall within INTERVAL_JOIN_US of each other (the
    double-fire/correlation audit; funnel checks existence, this
    counts the join's cardinality). Inside each per-user ordered-log
    bucket the count is one vectorized searchsorted sweep per segment
    (O(n log n), no pair ever materializes); the SQL oracle runs the
    real self join's COUNT."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("int64").to_numpy()
        uid = df["user_id"].to_numpy()
        users, counts = [], []
        start = np.flatnonzero(df["user_id"].ne(df["user_id"].shift())
                               .to_numpy())
        bounds = np.append(start, len(df))
        for a, b in zip(bounds[:-1], bounds[1:]):
            ts = t[a:b]
            hi = np.searchsorted(ts, ts + INTERVAL_JOIN_US, side="right")
            users.append(uid[a])
            counts.append(int((hi - np.arange(1, len(ts) + 1)).sum()))
        return pd.DataFrame({
            "user_id": pd.Series(users, dtype=df["user_id"].dtype),
            "n_pairs": pd.Series(counts, dtype="int64")})

    return _bucketed_by_user(ev, fn)


def events_unpivot(sf_dir: str) -> rd.Dataset:
    """UNPIVOT (wide -> long melt, the inverse reshape of
    events_pivot): the per-user pivot table melts back to
    (user_id, metric, value) rows inside one map — each wide row
    explodes to its fixed column list, so the reshape is pure
    map-side and the only exchange is the pivot's own. Round-trips
    the reshape pair; exact UNPIVOT-shaped oracle (UNION ALL)."""
    wide = events_pivot(sf_dir)
    metrics = [f"n_{ty}" for ty in EVENT_TYPES] + ["purchase_cents"]

    def melt(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "user_id": np.tile(df["user_id"].to_numpy(), len(metrics)),
            "metric": np.repeat(np.array(metrics, dtype=object), n),
            "value": np.concatenate(
                [df[m].to_numpy(dtype=np.int64) for m in metrics])})

    return wide.map_batches(melt, batch_format="pandas")


# events_profile: (engine canonicalizer, SQL canonical expr) per
# column — ONE shared table so the two sides cannot drift. Canonical
# form avoids float/timestamp stringification parity issues (ints and
# raw strings only).
_EVENTS_PROFILE_COLS = [
    ("event_id",
     lambda df: df["event_id"].map(str),
     "CAST(event_id AS VARCHAR)"),
    ("ts",
     lambda df: df["ts"].astype("int64").map(str),
     "CAST(epoch_us(ts) AS VARCHAR)"),
    ("user_id",
     lambda df: df["user_id"].map(str),
     "CAST(user_id AS VARCHAR)"),
    ("event_type",
     lambda df: df["event_type"],
     "event_type"),
    ("value",
     lambda df: _cents(df["value"]).map(str),
     "CAST(CAST(round(value * 100) AS BIGINT) AS VARCHAR)"),
    ("props",
     lambda df: df["props"],
     "props"),
]


def events_profile(sf_dir: str) -> rd.Dataset:
    """Table profiler (the data-validation datasheet a pipeline runs
    before training on an ingest batch): per column — row count, null
    count, EXACT distinct count, and an md5 value fold — over a
    canonical per-column encoding shared with the generated SQL
    oracle. Counts/folds are one pass keyed by column name; the exact
    distinct count is the standard two-bucketed-pass shape (one
    (col, value-hash) row per distinct value crosses the wire — the
    documented cost of exactness at scale; swap in the HLL sketch
    family when ±2% suffices). Returns
    (col, n_rows, n_null, n_distinct, vfold)."""
    ev = rp(sf_dir, "events")

    def fold_counts(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for col, canon, _sql in _EVENTS_PROFILE_COLS:
            null = df[col].isna()
            cs = canon(df[~null])
            vf = int(np.fromiter(
                (int(dedup.md5_hex(s)[:8], 16) for s in cs),
                dtype=np.int64, count=len(cs)).sum()) if len(cs) else 0
            rows.append((col, len(df), int(null.sum()), vf))
        return pd.DataFrame(rows, columns=["col", "n_rows", "n_null",
                                           "vfold"])

    counts = partial_aggregate(
        ev.map_batches(fold_counts, batch_format="pandas"),
        ["col"], {"n_rows": ("sum", "n_rows"), "n_null": ("sum", "n_null"),
                  "vfold": ("sum", "vfold")}).to_pandas()

    def hashes(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for col, canon, _sql in _EVENTS_PROFILE_COLS:
            cs = canon(df[~df[col].isna()])
            frames.append(pd.DataFrame({
                "col": col,
                "h": [dedup.md5_hex(s) for s in cs]}))
        return pd.concat(frames, ignore_index=True)

    dist = partial_aggregate(
        partial_aggregate(ev.map_batches(hashes, batch_format="pandas"),
                          ["col", "h"], {"c": ("count", None)})
        .map_batches(lambda df: df[["col"]], batch_format="pandas"),
        ["col"], {"n_distinct": ("count", None)}).to_pandas()

    out = counts.merge(dist, on="col")
    return rd.from_pandas(
        out[["col", "n_rows", "n_null", "n_distinct", "vfold"]]
        .astype({"n_rows": "int64", "n_null": "int64",
                 "n_distinct": "int64", "vfold": "int64"})
        .sort_values("col", ignore_index=True))


def _events_profile_oracle_sql() -> str:
    parts = []
    for col, _canon, sql in _EVENTS_PROFILE_COLS:
        parts.append(f"""
        SELECT '{col}' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN {col} IS NULL THEN 1 ELSE 0 END)
                 AS BIGINT) AS n_null,
               CAST(COUNT(DISTINCT {sql}) AS BIGINT) AS n_distinct,
               CAST(COALESCE(SUM(CAST(('0x' || substr(md5({sql}), 1, 8))
                                      AS UBIGINT)), 0) AS BIGINT) AS vfold
        FROM events""")
        # NULLs drop out of both the md5 SUM and COUNT DISTINCT, same
        # as the engine's isna mask
    return " UNION ALL ".join(parts)


def events_regression(sf_dir: str) -> rd.Dataset:
    """Per-event-type OLS of value-cents on second-of-day — the
    drift/trend screen a pipeline runs over an ingest batch ("is this
    metric sliding within the day?"). Distribution shape: ONE
    partial-aggregate pass folds the six sufficient statistics
    (n, Σx, Σy, Σx², Σxy, Σy²) as exact int64 sums — the classic
    "regression is a sum of moments" factorization, so the exchange
    carries 6 integers per (type, block) regardless of corpus size and
    the result is block-layout independent. Slope/intercept/corr are
    then derived per group from the integer sums through a float
    expression tree mirrored term-for-term by the SQL oracle (every op
    IEEE-754 correctly rounded on identical inputs → identical
    doubles), quantized with FLOOR so there is no tie semantics to
    disagree on. x ≤ 86399 and y is cents, so the int64 sums hold to
    ~10^9 rows per type; past that, widen the partials to two-limb
    sums (the documented cost of exactness at this width)."""
    ev = rp(sf_dir, "events", ["ts", "event_type", "value"])

    def suffstats(df: pd.DataFrame) -> pd.DataFrame:
        x = (df["ts"].astype("int64") // 1_000_000) % 86400
        y = _cents(df["value"])
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "x": x.to_numpy(), "y": y.to_numpy(),
            "xx": (x * x).to_numpy(), "xy": (x * y).to_numpy(),
            "yy": (y * y).to_numpy()})

    s = partial_aggregate(
        ev.map_batches(suffstats, batch_format="pandas"),
        ["event_type"],
        {"n": ("count", None), "sx": ("sum", "x"), "sy": ("sum", "y"),
         "sxx": ("sum", "xx"), "sxy": ("sum", "xy"),
         "syy": ("sum", "yy")})

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        # doubles from exact integer sums; expression trees below are
        # copied verbatim into ORACLE_SQL["events_regression"]
        n = df["n"].astype(np.float64)
        sx = df["sx"].astype(np.float64)
        sy = df["sy"].astype(np.float64)
        covn = n * df["sxy"].astype(np.float64) - sx * sy
        varx = n * df["sxx"].astype(np.float64) - sx * sx
        vary = n * df["syy"].astype(np.float64) - sy * sy
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(varx > 0,
                             np.floor(1000000.0 * covn / varx), 0.0)
            icept = np.where(
                varx > 0,
                np.floor(1000000.0
                         * (sy * df["sxx"].astype(np.float64)
                            - sx * df["sxy"].astype(np.float64)) / varx),
                0.0)
            corr = np.where(varx * vary > 0,
                            np.floor(1000000.0 * covn
                                     / np.sqrt(varx * vary)), 0.0)
        out = df[["event_type", "n", "sx", "sy", "sxx", "sxy", "syy"]].copy()
        out["slope_micro"] = slope.astype(np.int64)
        out["icept_micro"] = icept.astype(np.int64)
        out["corr_micro"] = corr.astype(np.int64)
        return out.astype({c: "int64" for c in
                           ("n", "sx", "sy", "sxx", "sxy", "syy")})

    # one output row per event_type: derive runs distributed in the
    # merge tasks, nothing regression-sized touches the driver
    return s.map_batches(derive, batch_format="pandas")


def user_diversity(sf_dir: str) -> rd.Dataset:
    """Per-user Gini-Simpson diversity of event types (1 - Σpᵢ², the
    collision-probability complement) — the behavioral-breadth feature
    a curation pipeline computes per source/user, chosen over Shannon
    entropy because it is PURELY RATIONAL: with integer counts the
    whole statistic reduces to one integer floor-division, so the
    engine and the SQL oracle agree bit-for-bit with no transcendental
    (ln) library parity risk. Two bucketed partial-aggregate passes —
    (user, type) counts, then per-user Σc / Σc² / k — both
    combiner-first; the ppm derivation is vectorized inside the merge
    tasks, so output stays a Dataset (one row per user, never on the
    driver)."""
    ev = rp(sf_dir, "events", ["user_id", "event_type"])
    c = partial_aggregate(ev, ["user_id", "event_type"],
                          {"c": ("count", None)})
    u = partial_aggregate(
        c.map_batches(lambda df: df.assign(c2=df["c"] * df["c"]),
                      batch_format="pandas"),
        ["user_id"],
        {"n_events": ("sum", "c"), "sc2": ("sum", "c2"),
         "n_types": ("count", None)})

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_events"].astype(np.int64)
        nn = n * n
        ppm = (1_000_000 * (nn - df["sc2"].astype(np.int64))) // nn
        return pd.DataFrame({
            "user_id": df["user_id"].astype(np.int64),
            "n_events": n,
            "n_types": df["n_types"].astype(np.int64),
            "simpson_ppm": ppm.astype(np.int64)})

    return u.map_batches(derive, batch_format="pandas")


def triangle_degree(sf_dir: str) -> rd.Dataset:
    """Per-document triangle participation over the shared-chunk
    duplication graph (graph.triangle_node_counts): a doc in many
    triangles sits in a mutually-duplicating CLIQUE (template/mirror
    cluster), where plain degree can't tell a hub from a clique.
    Completes the dup-graph triad with pagerank_dups / dup_clusters on
    the same oracle-derivable edge list. Exact — the SQL oracle replays
    the chunking, pairing, wedge join and closure join verbatim."""
    from . import graph

    pairs = dedup.shared_chunk_pairs(
        rp(sf_dir, "documents", ["doc_id", "text"]))
    # bucket count sized to the derived pair graph, as pagerank_dups
    tri = graph.triangle_node_counts(pairs.select_columns(
        ["doc_a", "doc_b"]), "doc_a", "doc_b")
    return tri.map_batches(
        lambda df: df.astype({"node": "int64", "n_triangles": "int64"})
        .rename(columns={"node": "doc_id"}),
        batch_format="pandas")


#: second probe query for rank fusion — disjoint from BM25_TERMS so
#: the two rankings genuinely disagree; shared by engine and oracle
RRF_TERMS_B = ("batch", "filter", "scan", "stream")
RRF_LIST_K = 100     # per-list depth entering the fusion
RRF_C = 60           # the standard RRF smoothing constant
RRF_OUT_K = 50


def rrf_fusion(sf_dir: str) -> rd.Dataset:
    """Reciprocal-rank fusion of two BM25 rankings (the standard
    hybrid-retrieval combiner: score = Σ_lists 1/(c + rank)) — how a
    RAG stack merges rankings from different retrievers without score
    calibration. Exact and integer: each list contributes
    10^9 // (c + rank) parts-per-billion, so the fused score is a sum
    of integers (layout-independent, no float parity risk) and the SQL
    oracle replays both BM25 rankings verbatim
    (search.bm25_oracle_sql, the shared-constants pattern) plus the
    same integer fusion. Distribution shape: the two rankings are
    already top-k (≤ 2k candidate rows total), fused by one bucketed
    partial aggregate; final ordering via the empty-key grouped_topk,
    never a global sort. Returns
    (doc_id, rrf_ppb, n_lists, rank), top RRF_OUT_K."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    ranked = []
    for terms in (BM25_TERMS, RRF_TERMS_B):
        ranked.append(search.bm25_topk(docs, terms, k=RRF_LIST_K))

    def contrib(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "c": 1_000_000_000
            // (RRF_C + df["rank"].to_numpy(np.int64))})

    fused = partial_aggregate(
        ranked[0].union(ranked[1]).map_batches(contrib,
                                               batch_format="pandas"),
        ["doc_id"], {"rrf_ppb": ("sum", "c"), "n_lists": ("count", None)})
    top = grouped_topk(fused, [], ["rrf_ppb", "doc_id"], RRF_OUT_K,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: df[["doc_id", "rrf_ppb", "n_lists", "rk"]]
        .rename(columns={"rk": "rank"})
        .astype({"doc_id": "int64", "rrf_ppb": "int64",
                 "n_lists": "int64", "rank": "int64"}),
        batch_format="pandas")


def _rrf_fusion_oracle_sql() -> str:
    ra = search.bm25_oracle_sql(BM25_TERMS, k=RRF_LIST_K)
    rb = search.bm25_oracle_sql(RRF_TERMS_B, k=RRF_LIST_K)
    return f"""
    WITH u AS (
      SELECT doc_id, 1000000000 // ({RRF_C} + rank) AS c
      FROM ({ra})
      UNION ALL
      SELECT doc_id, 1000000000 // ({RRF_C} + rank) AS c
      FROM ({rb})),
    f AS (SELECT doc_id, SUM(c) AS rrf_ppb, COUNT(*) AS n_lists
          FROM u GROUP BY doc_id),
    r AS (SELECT doc_id, rrf_ppb, n_lists,
                 row_number() OVER (ORDER BY rrf_ppb DESC, doc_id)
                   AS rank
          FROM f)
    SELECT doc_id, CAST(rrf_ppb AS BIGINT) AS rrf_ppb,
           CAST(n_lists AS BIGINT) AS n_lists,
           CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= {RRF_OUT_K}"""


def lang_source_chi2(sf_dir: str) -> rd.Dataset:
    """Chi-square independence screen over the (lang, source)
    contingency table — the distribution-drift check a curation
    pipeline runs to catch a source whose language mix shifted
    ("is lang ⊥ source still?"). ONE bucketed partial-aggregate pass
    builds the exact integer cell counts (the only corpus-sized work);
    the contingency table itself is bounded by |langs| × |sources|, so
    marginals and the per-cell statistic derive on the driver like
    embedding_moments' factor table. Per-cell contributions are
    quantized independently (floor micro) and the grand total is their
    INTEGER sum — order-independent, no float-accumulation parity risk
    with the SQL oracle, which mirrors the (o-e)²/e expression tree
    term for term. Returns one row per observed cell:
    (lang, source, o, r_tot, c_tot, cell_chi2_micro)."""
    cells = partial_aggregate(
        rp(sf_dir, "documents", ["lang", "source"]),
        ["lang", "source"], {"o": ("count", None)}).to_pandas()

    n = float(cells["o"].sum())
    r = cells.groupby("lang")["o"].transform("sum")
    c = cells.groupby("source")["o"].transform("sum")
    od = cells["o"].astype(np.float64)
    e = r.astype(np.float64) * c.astype(np.float64) / n
    dev = od - e
    out = pd.DataFrame({
        "lang": cells["lang"], "source": cells["source"],
        "o": cells["o"].astype(np.int64),
        "r_tot": r.astype(np.int64), "c_tot": c.astype(np.int64),
        "cell_chi2_micro": np.floor(
            1000000.0 * ((dev * dev) / e)).astype(np.int64)})
    return rd.from_pandas(out.sort_values(["lang", "source"],
                                          ignore_index=True))


KCORE_K = 2
KCORE_ROUNDS = 4


def kcore_dups(sf_dir: str) -> rd.Dataset:
    """k-core of the shared-chunk duplication graph
    (graph.kcore_peel): surviving nodes after KCORE_ROUNDS peel rounds
    with their in-core degree — the dense-mirror-farm detector that
    degree alone can't provide (a chain of incidental overlaps has
    degree 2 everywhere but no 2-core). Oracle generated from the SAME
    k / round constants, replaying every peel round verbatim."""
    from . import graph

    pairs = dedup.shared_chunk_pairs(
        rp(sf_dir, "documents", ["doc_id", "text"]))
    core = graph.kcore_peel(pairs.select_columns(["doc_a", "doc_b"]),
                            k=KCORE_K, n_rounds=KCORE_ROUNDS,
                            src_col="doc_a", dst_col="doc_b")
    return core.map_batches(
        lambda df: df.astype({"node": "int64", "deg": "int64"})
        .rename(columns={"node": "doc_id"}),
        batch_format="pandas")


def _kcore_oracle_sql(k: int = KCORE_K,
                      n_rounds: int = KCORE_ROUNDS) -> str:
    parts = ["""t AS (SELECT doc_id, string_split(text, ' ') AS toks
               FROM documents)""",
             """c AS (SELECT doc_id,
                   md5(array_to_string(toks[10*i+1:10*i+10], ' ')) AS ch
              FROM (SELECT doc_id, toks,
                           unnest(range(0, len(toks) // 10)) AS i
                    FROM t))""",
             "d AS (SELECT DISTINCT doc_id, ch FROM c)",
             # each peel round references the prior round's edge set
             # three times — MATERIALIZED, or DuckDB re-inlines the
             # whole chain per reference (245 s -> <1 s at sf0.001;
             # the mmr_diversify lesson)
             """e0 AS MATERIALIZED (
               SELECT DISTINCT a.doc_id AS a, b.doc_id AS b
               FROM d a JOIN d b
                 ON a.ch = b.ch AND a.doc_id < b.doc_id)"""]
    for r in range(n_rounds):
        parts.append(
            f"""d{r} AS MATERIALIZED (SELECT node, COUNT(*) AS deg
               FROM (SELECT a AS node FROM e{r}
                     UNION ALL SELECT b FROM e{r})
               GROUP BY node)""")
        parts.append(
            f"""e{r + 1} AS MATERIALIZED (SELECT e.a, e.b FROM e{r} e
               JOIN d{r} da ON da.node = e.a
               JOIN d{r} db ON db.node = e.b
               WHERE da.deg >= {k} AND db.deg >= {k})""")
    return f"""
    WITH {', '.join(parts)}
    SELECT node AS doc_id, CAST(COUNT(*) AS BIGINT) AS deg
    FROM (SELECT a AS node FROM e{n_rounds}
          UNION ALL SELECT b FROM e{n_rounds})
    GROUP BY node"""


def lexical_stats_by_source(sf_dir: str) -> rd.Dataset:
    """Per-source lexical richness — token count, type (distinct-token)
    count, hapax count (tokens seen exactly once in the source), and
    the derived type-token / hapax ratios in exact ppm — the classic
    template-vs-natural-text discriminator (template farms have
    crashing TTR and hapax rates). All-integer: ratios are floor
    divisions, so both sides agree bit-for-bit. Shape: one tokenize
    pass combines per-batch (source, token) partials; the per-type
    table (the only token-cardinality exchange) folds straight into
    per-source counters inside its merge buckets, so the second
    exchange is sources × buckets rows."""
    docs = rp(sf_dir, "documents", ["source", "text"])

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split(" ")
        lens = s.map(len).to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "source": np.repeat(df["source"].to_numpy(), lens),
            "token": np.concatenate(s.to_numpy())})

    per_type = partial_aggregate(
        docs.map_batches(toks, batch_format="pandas"),
        ["source", "token"], {"c": ("count", None)})
    per_source = partial_aggregate(
        per_type.map_batches(
            lambda df: pd.DataFrame({
                "source": df["source"].to_numpy(),
                "n_tokens": df["c"].to_numpy(np.int64),
                "is_hapax": (df["c"].to_numpy(np.int64) == 1)
                .astype(np.int64)}),
            batch_format="pandas"),
        ["source"], {"n_tokens": ("sum", "n_tokens"),
                     "n_types": ("count", None),
                     "n_hapax": ("sum", "is_hapax")})

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        nt = df["n_tokens"].astype(np.int64)
        ty = df["n_types"].astype(np.int64)
        hp = df["n_hapax"].astype(np.int64)
        return pd.DataFrame({
            "source": df["source"], "n_tokens": nt, "n_types": ty,
            "n_hapax": hp,
            "ttr_ppm": (1_000_000 * ty) // nt,
            "hapax_ppm": (1_000_000 * hp) // ty})

    return per_source.map_batches(derive, batch_format="pandas")


def source_overlap_jaccard(sf_dir: str) -> rd.Dataset:
    """Pairwise vocabulary Jaccard between sources — the cross-source
    contamination screen ("are these two crawls the same site?") run
    before mixing sources into a training blend. Distribution shape:
    the corpus-sized work is ONE tokenize pass into distinct
    (source, token) rows (bucketed combiner); per-token source pairs
    expand through the coarse-bucketed pair path (≤ |sources| per
    token, so no cap ever truncates), fold to one row per source pair,
    and the |sources|-row vocabulary-size table broadcasts into the
    final vectorized map. Ratios are floor divisions — all-integer,
    bit-exact vs the oracle. Returns
    (source_a, source_b, inter, n_a, n_b, jaccard_ppm)."""
    docs = rp(sf_dir, "documents", ["source", "text"])

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split(" ")
        lens = s.map(len).to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "source": np.repeat(df["source"].to_numpy(), lens),
            "token": np.concatenate(s.to_numpy())})

    st = partial_aggregate(
        docs.map_batches(toks, batch_format="pandas"),
        ["source", "token"], {"_c": ("count", None)}) \
        .drop_columns(["_c"]).materialize()  # feeds sizes AND pairs

    sizes = partial_aggregate(
        st, ["source"], {"n": ("count", None)}).to_pandas()
    sz = dict(zip(sizes["source"], sizes["n"]))

    pairs = dedup._within_bucket_pairs(
        st, ["token"], "source")
    inter = partial_aggregate(pairs, ["doc_a", "doc_b"],
                              {"inter": ("count", None)})

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        na = df["doc_a"].map(sz).astype(np.int64)
        nb = df["doc_b"].map(sz).astype(np.int64)
        it = df["inter"].astype(np.int64)
        return pd.DataFrame({
            "source_a": df["doc_a"], "source_b": df["doc_b"],
            "inter": it, "n_a": na, "n_b": nb,
            "jaccard_ppm": (1_000_000 * it) // (na + nb - it)})

    return inter.map_batches(derive, batch_format="pandas")


KMEANS_K = 8
KMEANS_ROUNDS = 2


def kmeans_embeddings(sf_dir: str) -> rd.Dataset:
    """Lloyd's k-means over the embedding table
    (similarity.kmeans_lloyd_int) — the clustering primitive under
    SemDeDup / IVF partitioning, here as a first-class verified op:
    all-integer quantized geometry, deterministic lowest-id seeds,
    ties to the lowest centroid, floor-of-mean updates — so the
    generated SQL oracle replays every assignment and update round
    exactly. Returns (vec_id, cluster, dist2) after KMEANS_ROUNDS
    assignment rounds."""
    out = similarity.kmeans_lloyd_int(
        rp(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=KMEANS_K, n_rounds=KMEANS_ROUNDS)
    return out.map_batches(
        lambda df: df.astype({"vec_id": "int64", "cluster": "int64",
                              "dist2": "int64"}),
        batch_format="pandas")


def _kmeans_cte_parts(k: int = KMEANS_K,
                      n_rounds: int = KMEANS_ROUNDS) -> list:
    """The integer-k-means round-replay CTE chain, shared by the
    kmeans_embeddings oracle and the kmeans_assign_new extension."""
    parts = ["""e AS (
      SELECT vec_id, CAST(i - 1 AS BIGINT) AS i,
             CAST(ROUND(CAST(x AS DOUBLE) * 1000) AS BIGINT) AS q
      FROM (SELECT vec_id, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings))""",
             f"""seeds AS (
      SELECT vec_id,
             CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
               AS c
      FROM (SELECT DISTINCT vec_id FROM embeddings
            ORDER BY vec_id LIMIT {k}))""",
             """c0 AS (SELECT s.c, e.i, e.q AS v
               FROM e JOIN seeds s USING (vec_id))"""]
    for r in range(1, n_rounds + 1):
        parts.append(
            f"""d{r} AS (
      SELECT e.vec_id, c{r - 1}.c,
             SUM((e.q - c{r - 1}.v) * (e.q - c{r - 1}.v)) AS dist2
      FROM e JOIN c{r - 1} ON e.i = c{r - 1}.i
      GROUP BY e.vec_id, c{r - 1}.c)""")
        parts.append(
            f"""a{r} AS (
      SELECT vec_id, c, dist2
      FROM (SELECT *, row_number() OVER (PARTITION BY vec_id
                                         ORDER BY dist2, c) AS rn
            FROM d{r})
      WHERE rn = 1)""")
        if r < n_rounds:
            # floor-of-mean update: FLOOR over DOUBLE on both sides
            # (DuckDB's // truncates toward zero on negatives)
            parts.append(
                f"""c{r} AS (
      SELECT a{r}.c, e.i,
             CAST(FLOOR(CAST(SUM(e.q) AS DOUBLE) / COUNT(*)) AS BIGINT)
               AS v
      FROM e JOIN a{r} USING (vec_id)
      GROUP BY a{r}.c, e.i)""")
    return parts


def _kmeans_oracle_sql(k: int = KMEANS_K,
                       n_rounds: int = KMEANS_ROUNDS) -> str:
    parts = _kmeans_cte_parts(k, n_rounds)
    return f"""
    WITH {', '.join(parts)}
    SELECT vec_id, CAST(c AS BIGINT) AS cluster,
           CAST(dist2 AS BIGINT) AS dist2
    FROM a{n_rounds}"""


def length_gini_by_lang(sf_dir: str) -> rd.Dataset:
    """Per-language Gini concentration of document token counts — the
    inequality screen that flags a language whose corpus is a few huge
    documents plus boilerplate stubs (bad mixture fodder) even when the
    mean looks fine. EXACT and all-integer without any per-row
    ranking: Gini = Σ(2i-n-1)·x₍ᵢ₎ / (n·Σx) is tie-invariant, so it
    derives entirely from the (lang, length, count) table — for a tied
    value with count c and F predecessors, Σ(2i-n-1) over its rank
    block is 2(cF + c(c+1)/2) - c(n+1), a pure integer. Distribution
    shape: ONE bucketed pass builds the counts table (bounded by
    |langs| × length domain, the exact_median histogram argument);
    the per-lang fold runs in one exchange over that sketch-sized table.
    Ratio is a floor division of non-negative integers (safe for
    DuckDB //). Returns (lang, n_docs, sum_len, gini_ppm)."""
    docs = rp(sf_dir, "documents", ["lang", "text"])

    def lens(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": df["lang"].to_numpy(),
            "v": df["text"].str.split(" ").map(len)
            .to_numpy(dtype=np.int64)})

    counts = partial_aggregate(
        docs.map_batches(lens, batch_format="pandas"),
        ["lang", "v"], {"c": ("count", None)})

    def gini(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("v", ignore_index=True)
        v = df["v"].to_numpy(dtype=object)   # python ints: no overflow
        c = df["c"].to_numpy(dtype=object)
        n = int(sum(c))
        s = int(sum(cv * vv for cv, vv in zip(c, v)))
        f, num = 0, 0
        for cv, vv in zip(c, v):
            cv, vv = int(cv), int(vv)
            num += vv * (2 * (cv * f + cv * (cv + 1) // 2)
                         - cv * (n + 1))
            f += cv
        return pd.DataFrame({
            "lang": [df["lang"].iloc[0]],
            "n_docs": np.array([n], dtype=np.int64),
            "sum_len": np.array([s], dtype=np.int64),
            "gini_ppm": np.array([(1_000_000 * num) // (n * s)],
                                 dtype=np.int64)})

    return exchange(counts, "lang", per_key("lang", gini))


def event_transitions(sf_dir: str) -> rd.Dataset:
    """First-order Markov transition matrix of event types: counts of
    (prev_type, event_type) over each user's event-time-ordered log,
    plus the exact floor-division transition probability in ppm — the
    behavioral-sequence statistic (what follows what) that sessionized
    funnels don't capture. Shape: the per-user lag runs in the
    user-bucketed ordered-log pattern (_bucketed_by_user, no global
    sort); pair rows fold through the bucketed combiner into the
    ≤ |types|² matrix, and row totals derive inside the final
    sketch-sized fold. Oracle: window LAG + the same integer ratio.
    Returns (prev_type, event_type, n, row_total, p_ppm)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts",
                               "event_type"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        prev = df.groupby("user_id")["event_type"].shift()
        keep = prev.notna()
        return pd.DataFrame({
            "prev_type": prev[keep].to_numpy(),
            "event_type": df["event_type"][keep].to_numpy()})

    counts = partial_aggregate(
        _bucketed_by_user(ev, pairs), ["prev_type", "event_type"],
        {"n": ("count", None)}).to_pandas()

    tot = counts.groupby("prev_type")["n"].transform("sum")
    out = pd.DataFrame({
        "prev_type": counts["prev_type"],
        "event_type": counts["event_type"],
        "n": counts["n"].astype(np.int64),
        "row_total": tot.astype(np.int64),
        "p_ppm": ((1_000_000 * counts["n"].astype(np.int64)) // tot)
        .astype(np.int64)})
    return rd.from_pandas(out.sort_values(["prev_type", "event_type"],
                                          ignore_index=True))


PMI_MIN_COUNT = 5
PMI_TOP_K = 50


def token_pmi(sf_dir: str) -> rd.Dataset:
    """Collocation mining: top-PMI adjacent token pairs — which
    bigrams co-occur far above chance, the phrase/entity-discovery
    primitive of corpus analysis. Exactness trick: rank by the INSIDE
    of the log, ratio = B·c_xy / (c_x·c_y) in ppm (log is monotone, so
    the ordering is the PMI ordering and there is no transcendental
    parity risk); the product B·c_xy overflows int64 at corpus scale,
    so the per-candidate ratio is computed with python ints inside the
    distributed map (candidates only — pairs with c_xy ≥ PMI_MIN_COUNT
    after the bucketed fold). Shape: bigram + unigram counts via
    combiner-first aggregates; the two unigram joins run partitioned
    (hash_join); final order via empty-key grouped_topk. Returns
    (tok_a, tok_b, c_xy, c_x, c_y, ratio_ppm, rank), top PMI_TOP_K by
    (ratio_ppm desc, tok_a, tok_b)."""
    docs = rp(sf_dir, "documents", ["text"])

    def bigrams(df: pd.DataFrame) -> pd.DataFrame:
        a_parts, b_parts = [], []
        for text in df["text"]:
            toks = text.split(" ")
            if len(toks) >= 2:
                a_parts.append(toks[:-1])
                b_parts.append(toks[1:])
        if not a_parts:
            return pd.DataFrame({"tok_a": pd.Series([], dtype=object),
                                 "tok_b": pd.Series([], dtype=object)})
        return pd.DataFrame({
            "tok_a": np.concatenate(a_parts),
            "tok_b": np.concatenate(b_parts)})

    bg_rows = docs.map_batches(bigrams, batch_format="pandas") \
        .materialize()  # feeds pair counts AND the bigram total
    pair = partial_aggregate(bg_rows, ["tok_a", "tok_b"],
                             {"c_xy": ("count", None)})
    # B and the unigram table both count bigram SLOTS (first/second
    # position), which is the PMI normalization over the pair sample
    btot = int(partial_aggregate(bg_rows.select_columns(["tok_a"]), [],
                                 {"b": ("count", None)}).to_pandas()["b"][0])
    uni = partial_aggregate(
        bg_rows.map_batches(
            lambda df: pd.DataFrame({"tok": np.concatenate(
                [df["tok_a"].to_numpy(), df["tok_b"].to_numpy()])}),
            batch_format="pandas"),
        ["tok"], {"c": ("count", None)})

    cand = pair.map_batches(
        lambda df: df[df["c_xy"] >= PMI_MIN_COUNT],
        batch_format="pandas")
    j = hash_join(cand, uni, "tok_a", "tok",
                  left_cols=["tok_a", "tok_b", "c_xy"],
                  right_cols=["tok", "c"])
    j = j.map_batches(lambda df: df[["tok_a", "tok_b", "c_xy", "c"]]
                      .rename(columns={"c": "c_x"}),
                      batch_format="pandas")
    j = hash_join(j, uni, "tok_b", "tok",
                  left_cols=["tok_a", "tok_b", "c_xy", "c_x"],
                  right_cols=["tok", "c"])

    def ratio(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["tok_a", "tok_b", "c_xy", "c_x"]].copy()
        out["c_y"] = df["c"]
        # python ints: B * c_xy exceeds int64 at corpus scale
        out["ratio_ppm"] = np.fromiter(
            ((1_000_000 * btot * int(cxy)) // (int(cx) * int(cy))
             for cxy, cx, cy in zip(df["c_xy"], df["c_x"], df["c"])),
            dtype=np.int64, count=len(df))
        return out

    top = grouped_topk(j.map_batches(ratio, batch_format="pandas"),
                       [], ["ratio_ppm", "tok_a", "tok_b"],
                       PMI_TOP_K, ascending=[False, True, True])
    return top.map_batches(
        lambda df: df[["tok_a", "tok_b", "c_xy", "c_x", "c_y",
                       "ratio_ppm", "rk"]]
        .rename(columns={"rk": "rank"})
        .astype({"c_xy": "int64", "c_x": "int64", "c_y": "int64",
                 "ratio_ppm": "int64", "rank": "int64"}),
        batch_format="pandas")


def csv_roundtrip(sf_dir: str) -> rd.Dataset:
    """VALUE-level CSV sink+source round trip (the jsonl_roundtrip
    twin for the other interchange format): export the documents table
    with ray.data's write_csv (Arrow CSV writer handles quoting),
    read it back through read_csv, and fold per language into
    (count, doc_id sum, text md5 fold) — the SQL oracle computes the
    same fold from the ORIGINAL parquet, so any quoting/parse mangling
    in either direction breaks the hash. The export is committed by
    storage.commit_dir (the ADVICE atomic-sink rule)."""
    import glob as _glob
    import os

    out = input_cache_dir("csv_rt", f"{sf_dir}/documents.parquet")
    commit_dir(out, lambda d: rp(sf_dir, "documents",
                                 ["doc_id", "text", "lang"]).write_csv(d))
    files = sorted(_glob.glob(os.path.join(out, "*.csv")))
    with DATASET_CONSTRUCTION_LOCK:
        back = rd.read_csv(files)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        h = np.fromiter((int(dedup.md5_hex(t)[:8], 16) for t in df["text"]),
                        dtype=np.int64, count=len(df))
        return pd.DataFrame({"lang": df["lang"].to_numpy(),
                             "n": np.ones(len(df), dtype=np.int64),
                             "id_sum": df["doc_id"].to_numpy(dtype=np.int64),
                             "fold": h})

    return partial_aggregate(back.map_batches(fold, batch_format="pandas"),
                             ["lang"], {"n": ("sum", "n"),
                                        "id_sum": ("sum", "id_sum"),
                                        "fold": ("sum", "fold")})


def dup_source_matrix(sf_dir: str) -> rd.Dataset:
    """Cross-source duplication matrix: for every unordered source
    pair, how many near-duplicate DOC pairs span it — the
    mirror-detection statistic that tells a curation pipeline which
    crawls are re-serving each other's content (including the
    diagonal: within-source duplication). Dup key = the 4-token prefix
    hash (the dedup_prefix rule, the duplication actually planted in
    the fixture corpus; swap in full-text md5 for exact dups — the
    shape is identical). Only (doc_id, source, hash) rows shuffle;
    per-hash pairs expand through the coarse-bucketed pair path
    carrying source as a payload column (same cap discipline as the
    other pair generators — a hash shared by more docs than the cap
    truncates with the counted-drop option), then fold to the
    ≤ |sources|² matrix. Returns (source_a, source_b, n_pairs) with
    source_a <= source_b."""
    docs = rp(sf_dir, "documents", ["doc_id", "source", "text"])

    def hashed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "source": df["source"].to_numpy(),
            "h": [dedup.md5_hex(" ".join(t.split(" ")[:4]))
                  for t in df["text"]]})

    pairs = dedup._within_bucket_pairs(
        docs.map_batches(hashed, batch_format="pandas"), ["h"], "doc_id",
        payload_cols=["source"])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        sa = df["source_a"].to_numpy()
        sb = df["source_b"].to_numpy()
        lo = np.where(sa <= sb, sa, sb)
        hi = np.where(sa <= sb, sb, sa)
        return pd.DataFrame({"source_a": lo, "source_b": hi})

    return partial_aggregate(
        pairs.map_batches(canon, batch_format="pandas"),
        ["source_a", "source_b"], {"n_pairs": ("count", None)})


def kmeans_cluster_stats(sf_dir: str) -> rd.Dataset:
    """Per-cluster size and exact integer inertia (Σ dist²) of the
    kmeans_embeddings assignment — the convergence/balance report read
    after every k-means run (a dominant cluster or exploding inertia
    means re-seed). One bucketed fold over the assignment Dataset; the
    oracle wraps the round-replaying k-means oracle in a GROUP BY."""
    return partial_aggregate(
        kmeans_embeddings(sf_dir), ["cluster"],
        {"n_members": ("count", None), "inertia": ("sum", "dist2")})


RFM_TILES = 5


def user_rfm(sf_dir: str) -> rd.Dataset:
    """RFM segmentation (recency / frequency / monetary quintiles) —
    the classic behavioral-cohort composite, here as three exact
    distributed NTILEs with no global sort: per-user aggregates fold
    in one bucketed pass, then each metric gets a
    relops.global_value_rank (histogram range-partition ORDER BY) +
    ntile_from_rank (SQL NTILE arithmetic), and the three tile tables
    join back partitioned on user_id. Ordering is (metric DESC,
    user_id) on both sides, so tile 1 = best. Returns
    (user_id, recency_us, frequency, monetary_cents, r_tile, f_tile,
    m_tile, segment) with segment = 100r + 10f + m."""
    ev = rp(sf_dir, "events", ["user_id", "ts", "value"])

    def base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "t": df["ts"].astype("int64").to_numpy(),
            "cents": _cents(df["value"]).to_numpy()})

    rfm = partial_aggregate(
        ev.map_batches(base, batch_format="pandas"), ["user_id"],
        {"recency_us": ("max", "t"), "frequency": ("count", None),
         "monetary_cents": ("sum", "cents")})
    n_users = int(partial_aggregate(
        rfm.select_columns(["user_id"]), [],
        {"n": ("count", None)}).to_pandas()["n"][0])

    def tiles(metric: str, out_col: str) -> rd.Dataset:
        ranked = relops.global_value_rank(rfm, metric, "user_id")
        return ranked.map_batches(
            lambda df: pd.DataFrame({
                "user_id": df["user_id"].to_numpy(),
                out_col: relops.ntile_from_rank(
                    df["rank"].to_numpy(), n_users, RFM_TILES)}),
            batch_format="pandas")

    j = hash_join(rfm, tiles("recency_us", "r_tile"),
                  "user_id", "user_id",
                  left_cols=["user_id", "recency_us", "frequency",
                             "monetary_cents"],
                  right_cols=["user_id", "r_tile"])
    j = hash_join(j, tiles("frequency", "f_tile"), "user_id", "user_id",
                  left_cols=["user_id", "recency_us", "frequency",
                             "monetary_cents", "r_tile"],
                  right_cols=["user_id", "f_tile"])
    j = hash_join(j, tiles("monetary_cents", "m_tile"),
                  "user_id", "user_id",
                  left_cols=["user_id", "recency_us", "frequency",
                             "monetary_cents", "r_tile", "f_tile"],
                  right_cols=["user_id", "m_tile"])

    def seg(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["user_id", "recency_us", "frequency",
                  "monetary_cents", "r_tile", "f_tile", "m_tile"]].copy()
        out["segment"] = (100 * df["r_tile"] + 10 * df["f_tile"]
                          + df["m_tile"])
        return out.astype({c: "int64" for c in out.columns})

    return j.map_batches(seg, batch_format="pandas")


def events_ks_drift(sf_dir: str) -> rd.Dataset:
    """EXACT two-sample Kolmogorov-Smirnov drift statistic between the
    first and second half of the event stream (split at the integer
    midpoint of the ts range) over value-cents — the
    distribution-drift gate a pipeline runs before trusting a new
    ingest window. Exactness: KS = max |F₁-F₂| evaluates on the
    BOUNDED (half, cents, count) histogram (the exact_median
    argument), and the comparison cross-multiplies instead of
    dividing — |c₁·n₂ - c₂·n₁| in python ints — so there is no float
    anywhere; ks_ppm = 1e6·max_diff // (n₁·n₂), argmax ties to the
    lowest value. Shape: one bounds pass + one bucketed histogram
    pass; the fold is sketch-sized. Returns one row
    (n_first, n_second, ks_ppm, at_cents)."""
    ev = rp(sf_dir, "events", ["ts", "value"])

    def base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "t": df["ts"].astype("int64").to_numpy(),
            "cents": _cents(df["value"]).to_numpy()})

    b = ev.map_batches(base, batch_format="pandas").materialize()
    bounds = partial_aggregate(
        b, [], {"mn": ("min", "t"), "mx": ("max", "t")}).to_pandas()
    mid = (int(bounds["mn"][0]) + int(bounds["mx"][0])) // 2

    hist = partial_aggregate(
        b.map_batches(
            lambda df: pd.DataFrame({
                "half": (df["t"].to_numpy() > mid).astype(np.int64),
                "cents": df["cents"].to_numpy()}),
            batch_format="pandas"),
        ["half", "cents"], {"c": ("count", None)}).to_pandas()

    piv = (hist.pivot_table(index="cents", columns="half", values="c",
                            aggfunc="sum", fill_value=0)
           .reindex(columns=[0, 1], fill_value=0).sort_index())
    c1 = piv[0].to_numpy(dtype=np.int64)
    c2 = piv[1].to_numpy(dtype=np.int64)
    n1, n2 = int(c1.sum()), int(c2.sum())
    f1, f2 = np.cumsum(c1), np.cumsum(c2)
    # python ints: c·n products exceed int64 at corpus scale
    diffs = [abs(int(a) * n2 - int(bb) * n1)
             for a, bb in zip(f1, f2)]
    best = max(range(len(diffs)), key=lambda i: (diffs[i], -i))
    return rd.from_pandas(pd.DataFrame({
        "n_first": np.array([n1], dtype=np.int64),
        "n_second": np.array([n2], dtype=np.int64),
        "ks_ppm": np.array([(1_000_000 * diffs[best]) // (n1 * n2)],
                           dtype=np.int64),
        "at_cents": np.array([int(piv.index[best])], dtype=np.int64)}))


# The registry, grouped by family. Order carries no meaning:
# scripts/check_queries.py compares every ORACLE_SQL entry on full rows,
# and entries without an oracle are rows-only by design. Later sections
# of this module register more queries with `QUERIES[name] = fn`.
QUERIES = {
    # flagship extraction family: ingest_flat_documents = full pipeline
    # on the flat corpus; extract_summary = reference-counter VALUES
    # oracle
    "ingest_flat_documents": ingest_flat_documents,
    "parse_detail_rows": parse_detail_rows,
    # extract_span_checksum value-checks EVERY span of the flagship
    # extraction (per-kind md5 fold vs the serial reference VALUES); it
    # runs the same marker-cached extraction extract_flat returns raw
    "extract_span_checksum": extract_span_checksum,
    "extract_summary": q_extract_summary,
    # dedup / cleaning
    "dedup_exact": q_dedup_exact,
    "dedup_prefix": q_dedup_prefix,
    "dedup_minhash_planted": q_dedup_minhash_planted,
    "dedup_simhash": q_dedup_simhash,
    "dedup_contained": q_dedup_contained,
    "dedup_passage": q_dedup_passage,
    "dedup_substring": q_dedup_substring,
    "semantic_dedup": q_semantic_dedup,
    # mm_prep = the composed multimodal end-to-end (extraction →
    # interleaved packing → shard manifest)
    "mm_prep": q_mm_prep,
    "dedup_embedding": q_dedup_embedding,
    "clean_corpus": q_clean_corpus,
    # text / similarity
    "text_quality": q_text_quality,
    "text_langid": q_text_langid,
    "quality_classifier": q_quality_classifier,
    "perplexity_filter": perplexity_filter,
    "pii_scrub": q_pii_scrub,
    "lm_unigram_score": lm_unigram_score,
    "bpe_train": q_bpe_train,
    "approx_quantiles_value": approx_quantiles_value,
    "top_distinctive_token": top_distinctive_token,
    "contamination_report": q_contamination_report,
    "embedding_centroids": embedding_centroids,
    "sim_topk": q_sim_topk,
    # multimodal payload-exact dedup
    "mm_payload_dedup": q_mm_payload_dedup,
    # relational core
    "g1_lineitem_agg": g1_lineitem_agg,
    "j1_region_revenue": j1_region_revenue,
    "j4_customer_order_counts": j4_customer_order_counts,
    "q3_mktsegment_revenue": q3_mktsegment_revenue,
    "o1_first_line_partkey": o1_first_line_partkey,
    "lm_bigram_score": lm_bigram_score,
    "build_vocab": q_build_vocab,
    "vocab_encode": q_vocab_encode,
    "pack_stream": q_pack_stream,
    "dedup_incremental": q_dedup_incremental,
    "dsir_weights": q_dsir_weights,
    "corpus_report": q_corpus_report,
    # training-data operators
    "mm_interleaved_pack": q_mm_interleaved_pack,
    "token_budget_per_lang": q_token_budget_per_lang,
    "text_repetition": q_text_repetition,
    "decontaminate": q_decontaminate,
    "self_overlap": q_self_overlap,
    "training_prep": q_training_prep,
    "rag_prep": q_rag_prep,
    "semi_anti_bloom": q_semi_anti_bloom,
    "shuffle_rank": q_shuffle_rank,
    "lang_quota": q_lang_quota,
    # the ANN family's planted value oracles (recall provably 1.0 on the
    # planted corpus — LSH bucketing, IVF training/probing, the
    # persisted index round-trip and the incremental index ADD all
    # hash-match one brute-force SQL oracle)
    "sim_ann_lsh_planted": q_sim_ann_lsh_planted,
    "sim_ann_ivf_planted": q_sim_ann_ivf_planted,
    "sim_ann_ivf_index_planted": q_sim_ann_ivf_index_planted,
    "sim_ann_ivf_incremental": q_sim_ann_ivf_incremental,
    # distributed exact ORDER BY (histogram range-partition rank),
    # GROUPING SETS rollup, boolean-AND index retrieval, burst-window
    # streaming max, SQL-parity minhash kernel
    "length_rank": length_rank,
    "weighted_sample": weighted_sample,
    "length_ntile": length_ntile,
    "source_cap": source_cap,
    "corpus_rollup": q_corpus_rollup,
    "text_index_all_terms": q_text_index_all_terms,
    "events_top_burst": events_top_burst,
    "minhash_md5_signatures": q_minhash_md5_signatures,
    # simple relational / scalar-function / windowing shapes
    "m3_regex_first_word": m3_regex_first_word,
    "m9_status_filter": m9_status_filter,
    "o3_topk_recent_events": o3_topk_recent_events,
    "dedup_simhash_pairs": q_dedup_simhash_pairs,
    "tokens_by_lang": q_tokens_by_lang,
    "top_bigrams": top_bigrams,
    "events_daily": events_daily,
    "m4_priority_code": m4_priority_code,
    "m8_mask_props": m8_mask_props,
    "m_props_json": m_props_json,
    "events_tumbling": events_tumbling,
    "events_prev_gap": events_prev_gap,
    "order_priorities_concat": order_priorities_concat,
    "events_value_histogram": events_value_histogram,
    "topk_orders_per_customer": topk_orders_per_customer,
    "events_rolling_sum3": events_rolling_sum3,
    "part_brand_stats": part_brand_stats,
    "g3_count_orders": g3_count_orders,
    "distinct_event_types": distinct_event_types,
    "sample_events_hash": sample_events_hash,
    "union_entities": union_entities,
    # training-data sampling and splits
    "mixture_sample": q_mixture_sample,
    "epoch_oversample": q_epoch_oversample,
    "curriculum_rank": q_curriculum_rank,
    "train_val_split": q_train_val_split,
    "dedup_contained_pairs": q_dedup_contained_pairs,
    "dedup_ngram": q_dedup_ngram,
    "text_fingerprint": q_text_fingerprint,
    "zscore_by_lang": zscore_by_lang,
    "hash_embed_stats": q_hash_embed_stats,
    "bm25_search": q_bm25_search,
    "cms_token_counts": q_cms_token_counts,
    "media_usage": q_media_usage,
    "contrastive_pairs": q_contrastive_pairs,
    "upsert_compact": q_upsert_compact,
    "lm_heldout_score": lm_heldout_score,
    "dedup_soft": q_dedup_soft,
    "mm_span_transitions": q_mm_span_transitions,
    "events_window_dedup": events_window_dedup,
    "pagerank_dups": q_pagerank_dups,
    "bpe_encode": q_bpe_encode,
    "export_jsonl": q_export_jsonl,
    "dedup_shared_chunks": q_dedup_shared_chunks,
    # sketch-family exact twins: exact two-pass heavy hitters,
    # md5-parity HLL registers, and the md5-bucketed greedy packer with
    # its recursive-CTE oracle
    "heavy_hitters_exact": heavy_hitters_exact_tokens,
    "hll_user_registers": hll_user_registers,
    "pack_greedy": q_pack_greedy,
    # grouped exact order statistic
    "length_percentile_filter": length_percentile_filter,
    # partitioned connected components + exact grouped count-distinct
    "dup_clusters": q_dup_clusters,
    "distinct_users_per_type": distinct_users_per_type,
    # persisted inverted index (pruned-bucket lookup)
    "text_index_search": q_text_index_search,
    # BM25 served FROM the index, hash-matched against the full-scan
    # oracle
    "bm25_index_search": q_bm25_index_search,
    "phrase_search": q_phrase_search,
    # incremental index add == full rebuild (same oracle as
    # text_index_search)
    "text_index_incremental": q_text_index_incremental,
    # watermark / late-data flags (the out-of-order streaming shape)
    "events_late_flags": events_late_flags,
    # one-pass covariance/PCA statistics (integer-exact)
    "embedding_moments": q_embedding_moments,
    # content-defined chunking dedup
    "dedup_cdc": q_dedup_cdc,
    # snapshot-versioning diff
    "corpus_diff": q_corpus_diff,
    # `extract_flat` is a LIBRARY VIEW, not a registered query: the raw
    # span rows it exposes are value-checked strictly harder by the
    # registered twins — extract_span_checksum folds EVERY span,
    # extract_summary/ingest_flat_documents check the aggregates, and
    # tests/test_pipeline_e2e.py asserts span-sequence equality per
    # doc_id. Call q_extract_flat directly for the raw rows.
    "chunk_documents": q_chunk_documents,
    "prep_funnel": q_prep_funnel,
    "token_count_bpe": q_token_count_bpe,
    "stratified_sample_by_lang": stratified_sample_by_lang,
    "asof_last_order_before_event": asof_last_order_before_event,
    "median_value_by_type": median_value_by_type,
    "range_join_balance_band": range_join_balance_band,
    "events_sessionize": events_sessionize,
    "m1_explode_tokens": m1_explode_tokens,
    "top_tokens_per_doc": top_tokens_per_doc,
    "pack_sequences": q_pack_sequences,
    "shard_stats": q_shard_stats,
    # extract → clean composition, value-checked by a serial-reference
    # VALUES oracle (same clean rule replayed single-process)
    "extract_then_clean": q_extract_then_clean,
    # documented-approximate / stub (rows-only by design): LSH recall<1
    # (dedup_minhash* at threshold<1, clean_corpus_fuzzy), sketches
    # (approx_distinct_users — its exact twin is hll_user_registers
    # above), codec stubs. `sim_ann_lsh` / `sim_ann_ivf` are LIBRARY
    # VIEWS, not registered queries: the same kernels are value-checked
    # by the planted oracles (sim_ann_lsh_planted / sim_ann_ivf_planted
    # / sim_ann_ivf_index_planted) and recall-gated vs brute force
    # inside ann_recall_report + tests/test_similarity.py.
    "dedup_minhash": q_dedup_minhash,
    "dedup_minhash_keep": q_dedup_minhash_keep,
    "dedup_incremental_fuzzy": q_dedup_incremental_fuzzy,
    "dedup_embedding_lsh": q_dedup_embedding_lsh,
    "clean_corpus_fuzzy": q_clean_corpus_fuzzy,
    "approx_distinct_users": approx_distinct_users,
    "heavy_hitter_tokens": heavy_hitter_tokens,
    "ann_recall_report": q_ann_recall_report,
    "sim_ann_ivf_index": q_sim_ann_ivf_index,
    "mm_featurize": q_mm_featurize,
    "mm_frame_sample": q_mm_frame_sample,
    "mm_resize": q_mm_resize,
    # edit-distance dedup, robust statistics, streaming windows, graph
    # and embedding analytics
    "dedup_edit1": q_dedup_edit1,
    "mad_outliers": mad_outliers,
    "events_moving_avg": events_moving_avg,
    "token_cooccurrence": token_cooccurrence,
    "jsonl_roundtrip": jsonl_roundtrip,
    "topk_with_ties": topk_with_ties,
    "session_stats": session_stats,
    "events_hopping": events_hopping,
    "dup_degree_hist": dup_degree_hist,
    "funnel_conversions": funnel_conversions,
    "events_pivot": events_pivot,
    "top_event_type_per_user": top_event_type_per_user,
    "token_drift": token_drift,
    "dedup_edit2": q_dedup_edit2,
    "winsorize_values": winsorize_values,
    "self_join_size_by_user": self_join_size_by_user,
    "doc_skyline": doc_skyline,
    "grouped_mad": grouped_mad,
    "retention_cohorts": retention_cohorts,
    "events_interval_join_count": events_interval_join_count,
    "events_unpivot": events_unpivot,
    "events_profile": events_profile,
    "events_regression": events_regression,
    "user_diversity": user_diversity,
    "triangle_degree": triangle_degree,
    "rrf_fusion": rrf_fusion,
    "lang_source_chi2": lang_source_chi2,
    "kcore_dups": kcore_dups,
    "lexical_stats_by_source": lexical_stats_by_source,
    "source_overlap_jaccard": source_overlap_jaccard,
    "kmeans_embeddings": kmeans_embeddings,
    "length_gini_by_lang": length_gini_by_lang,
    "event_transitions": event_transitions,
    "token_pmi": token_pmi,
    "csv_roundtrip": csv_roundtrip,
    "dup_source_matrix": dup_source_matrix,
    "kmeans_cluster_stats": kmeans_cluster_stats,
    "user_rfm": user_rfm,
    "events_ks_drift": events_ks_drift,
}


def _mixture_sample_oracle_sql() -> str:
    """Generated from the SAME constants the engine query uses
    (MIXTURE_WEIGHTS / MIXTURE_SEED via shards.mixture_threshold_hex),
    so the keep rule can't drift between the two sides."""
    from .shards import mixture_threshold_hex
    cases = []
    for lang, w in sorted(MIXTURE_WEIGHTS.items()):
        t = mixture_threshold_hex(w)
        cond = ("TRUE" if t is None else
                f"substr(md5('{MIXTURE_SEED}|' || CAST(doc_id AS VARCHAR)),"
                f" 1, 8) < '{t}'")
        cases.append(f"WHEN '{lang}' THEN {cond}")
    return ("SELECT doc_id, lang FROM documents WHERE CASE lang "
            + " ".join(cases) + " ELSE TRUE END")


def _pii_scrub_oracle_sql() -> str:
    """Generated from text_analysis.PII_PATTERNS — same patterns, same
    rule ORDER (each count runs on the previous rule's replaced text),
    same planted tail as q_pii_scrub — so the two sides cannot drift.
    DuckDB single-quoted literals keep backslashes verbatim and both
    regex engines are RE2, so the patterns match byte-for-byte."""
    from .text_analysis import PII_PATTERNS
    cur = ("text || ' ' || CAST(doc_id AS VARCHAR) || "
           "'@example.org 192.168.0.1 +81-555-0100'")
    counts = []
    for name, pat, repl in PII_PATTERNS:
        counts.append(f"CAST(LEN(regexp_extract_all({cur}, '{pat}')) "
                      f"AS BIGINT) AS {name}")
        cur = f"regexp_replace({cur}, '{pat}', '{repl}', 'g')"
    return ("SELECT doc_id, " + ",\n               ".join(counts)
            + f",\n               {cur} AS clean_text FROM documents")


def _dsir_oracle_sql() -> str:
    """Generated from text_analysis.DSIR_BUCKETS (same feature space
    as the engine) and the same target rule (lang='en'). The weight
    formula keeps the engine's exact double-arithmetic shape:
    (x+1.0)*(total+B) each rounded to double, one divide, one ln, one
    round-to-millinats."""
    B = text_analysis.DSIR_BUCKETS
    return f"""
        WITH tk AS (
          SELECT doc_id, lang,
                 CAST(('0x' || substr(md5(tok), 1, 8)) AS UBIGINT) % {B} AS b
          FROM (SELECT doc_id, lang, unnest(string_split(text, ' ')) AS tok
                FROM documents)
          WHERE tok <> ''),
        agg AS (
          SELECT b, CAST(COUNT(*) AS BIGINT) AS r,
                 CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT)
                   AS tg
          FROM tk GROUP BY b),
        tot AS (SELECT CAST(SUM(r) AS BIGINT) AS rtot,
                       CAST(SUM(tg) AS BIGINT) AS ttot FROM agg),
        w AS (
          SELECT b, CAST(ROUND(1000 * ln(((tg + 1.0) * (rtot + {B}))
                                       / ((r + 1.0) * (ttot + {B}))))
                         AS BIGINT) AS w
          FROM agg, tot),
        s AS (SELECT tk.doc_id, CAST(SUM(w.w) AS BIGINT) AS s
              FROM tk JOIN w USING (b) GROUP BY tk.doc_id)
        SELECT d.doc_id, CAST(COALESCE(s.s, 0) AS BIGINT) AS dsir_w_mn
        FROM documents d LEFT JOIN s USING (doc_id)"""


def _quality_classifier_oracle_sql() -> str:
    """Generated from text_analysis.QC_BUCKETS / QC_SEED — the same
    constants the engine's classifier_weights uses, so the scorer
    cannot drift between the two sides. All-integer arithmetic
    (milli-unit weights summed as BIGINT) keeps the hash gate exact."""
    B = text_analysis.QC_BUCKETS
    seed = text_analysis.QC_SEED
    return f"""
        WITH tt AS (
          SELECT doc_id, tok, i
          FROM (SELECT doc_id,
                       unnest(string_split(text, ' ')) AS tok,
                       generate_subscripts(string_split(text, ' '), 1) AS i
                FROM documents)
          WHERE tok <> ''),
        bg AS (
          SELECT doc_id,
                 tok || ' ' || lead(tok) OVER (PARTITION BY doc_id
                                               ORDER BY i) AS bg
          FROM tt),
        hb AS (
          SELECT doc_id,
                 CAST(CAST(('0x' || substr(md5(bg), 1, 8)) AS UBIGINT)
                      % {B} AS BIGINT) AS b
          FROM bg WHERE bg IS NOT NULL),
        s AS (
          SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
                 CAST(SUM(CAST(CAST(('0x' || substr(md5('{seed}|' ||
                      CAST(b AS VARCHAR)), 1, 8)) AS UBIGINT) % 2001
                      AS BIGINT) - 1000) AS BIGINT) AS score_mu
          FROM hb GROUP BY doc_id)
        SELECT d.doc_id,
               CAST(COALESCE(s.n_bigrams, 0) AS BIGINT) AS n_bigrams,
               CAST(COALESCE(s.score_mu, 0) AS BIGINT) AS score_mu,
               CAST(CASE WHEN COALESCE(s.score_mu, 0) > 0
                    THEN 1 ELSE 0 END AS BIGINT) AS keep
        FROM documents d LEFT JOIN s USING (doc_id)"""


def _epoch_oversample_oracle_sql() -> str:
    """Generated from EPOCH_FACTORS (same constants as the engine)."""
    mx = max(EPOCH_FACTORS.values())
    cases = " ".join(f"WHEN '{k}' THEN {v}"
                     for k, v in sorted(EPOCH_FACTORS.items()))
    return f"""
        SELECT doc_id, lang, CAST(s.ep AS BIGINT) AS epoch
        FROM documents CROSS JOIN
             (SELECT unnest(range({mx})) AS ep) s
        WHERE s.ep < CASE lang {cases} ELSE 1 END"""


_STOP_SQL = "('" + "','".join(text_analysis.STOPWORDS) + "')"

def _ann_planted_oracle_sql() -> str:
    """Brute-force cosine top-k over the PLANTED embedding corpus
    (real table ∪ ANN_PLANT_COPIES exact duplicates of each probe
    query under BASE + qid*100 + j ids — generated from the SAME
    constants as _planted_copies, the dedup_minhash_planted pattern).
    All four ANN surfaces (LSH, IVF, persisted index, incremental add)
    hash-match this ONE derivation because planted recall is exactly
    1.0 and copies at cosine 1 strictly dominate (fixture max real
    cosine vs the probes ≈ 0.49; ties among copies break by id on
    both sides)."""
    ids = ", ".join(str(i) for i in QUERY_VEC_IDS)
    return f"""
        WITH planted AS (
          SELECT vec_id, embedding FROM embeddings
          UNION ALL
          SELECT CAST({ANN_PLANT_BASE} + vec_id * 100 + j AS BIGINT)
                   AS vec_id, embedding
          FROM embeddings, UNNEST(range(1, {ANN_PLANT_COPIES + 1})) AS t(j)
          WHERE vec_id IN ({ids})
        ),
        q AS (SELECT vec_id AS query_id, embedding AS qe FROM planted
              WHERE vec_id IN ({ids})),
        s AS (SELECT q.query_id, p.vec_id AS neighbor_id,
                     list_cosine_similarity(q.qe, p.embedding) AS sim
              FROM q, planted p WHERE p.vec_id <> q.query_id),
        r AS (SELECT query_id, neighbor_id,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY sim DESC, neighbor_id)
                       AS rank
              FROM s)
        SELECT CAST(query_id AS BIGINT) AS query_id,
               CAST(neighbor_id AS BIGINT) AS neighbor_id,
               CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= {ANN_PLANT_COPIES}"""


_ANN_PLANTED_SQL = _ann_planted_oracle_sql()

ORACLE_SQL = {
    "length_rank": """
        SELECT doc_id,
               CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tok,
               CAST(row_number() OVER (
                   ORDER BY len(string_split(text, ' ')) DESC, doc_id)
                 AS BIGINT) AS rank
        FROM documents""",
    "weighted_sample": f"""
        WITH d AS (SELECT doc_id,
                          len(string_split(text, ' ')) AS n_tok
                   FROM documents),
        k AS (SELECT doc_id, n_tok,
                     ln((CAST(('0x' || substr(
                             md5(CAST(doc_id AS VARCHAR)), 1, 8))
                           AS UBIGINT) + 1) / 4294967296.0) / n_tok
                       AS prio
              FROM d),
        r AS (SELECT doc_id, n_tok,
                     row_number() OVER (ORDER BY prio DESC, doc_id)
                       AS rank
              FROM k)
        SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
               CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= {WEIGHTED_SAMPLE_K}""",
    "length_ntile": """
        SELECT doc_id,
               CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tok,
               CAST(row_number() OVER w AS BIGINT) AS rank,
               CAST(ntile(10) OVER w AS BIGINT) AS tile
        FROM documents
        WINDOW w AS (ORDER BY len(string_split(text, ' ')) DESC, doc_id)""",
    "source_cap": f"""
        WITH r AS (SELECT doc_id, source,
                          row_number() OVER (
                              PARTITION BY source
                              ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                       doc_id) AS rank
                   FROM documents)
        SELECT doc_id, source, CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= {SOURCE_CAP_N}""",
    "corpus_rollup": """
        WITH d AS (SELECT lang,
                          least(len(string_split(text, ' ')) // 32, 7)
                            AS lb,
                          len(string_split(text, ' ')) AS n
                   FROM documents)
        SELECT CASE WHEN GROUPING(lang) = 1 THEN 'ALL' ELSE lang END
                 AS lang,
               CAST(CASE WHEN GROUPING(lb) = 1 THEN -1 ELSE lb END
                 AS BIGINT) AS lb,
               COUNT(*) AS n_docs,
               CAST(SUM(n) AS BIGINT) AS n_tokens
        FROM d GROUP BY GROUPING SETS ((lang, lb), (lang), ())""",
    "text_index_all_terms": f"""
        WITH tf AS (SELECT doc_id, token, COUNT(*) AS tf
                    FROM (SELECT doc_id,
                                 unnest(string_split(text, ' ')) AS token
                          FROM documents)
                    WHERE token IN ({', '.join(repr(t) for t in BM25_TERMS)})
                    GROUP BY doc_id, token)
        SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS sum_tf
        FROM tf GROUP BY doc_id HAVING COUNT(*) = {len(BM25_TERMS)}""",
    "events_top_burst": f"""
        WITH o AS (SELECT user_id, epoch_us(ts) AS t FROM events),
        w AS (SELECT user_id,
                     COUNT(*) OVER (PARTITION BY user_id ORDER BY t
                                    RANGE BETWEEN {BURST_WINDOW_US - 1}
                                    PRECEDING AND CURRENT ROW) AS c
              FROM o)
        SELECT user_id, CAST(MAX(c) AS BIGINT) AS max_burst
        FROM w GROUP BY user_id""",
    "minhash_md5_signatures": f"""
        WITH {{shcore}},
        u AS (SELECT doc_id, unnest(shingles) AS g FROM sh),
        x AS (SELECT doc_id, h.range AS h,
                     CAST(('0x' || substr(md5(CAST(h.range AS VARCHAR)
                                              || '|' || g), 1, 8))
                       AS UBIGINT) AS v
              FROM u CROSS JOIN range(0, {MHP_HASHES}) h)
        SELECT doc_id, CAST(h AS BIGINT) AS h,
               CAST(MIN(v) AS BIGINT) AS sig
        FROM x GROUP BY doc_id, h""",
    "sim_ann_lsh_planted": _ANN_PLANTED_SQL,
    "sim_ann_ivf_planted": _ANN_PLANTED_SQL,
    "sim_ann_ivf_index_planted": _ANN_PLANTED_SQL,
    "sim_ann_ivf_incremental": _ANN_PLANTED_SQL,
    "g1_lineitem_agg": """
        SELECT l_returnflag, l_linestatus,
               CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
               CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
               COUNT(*) AS n_rows
        FROM lineitem GROUP BY l_returnflag, l_linestatus""",
    "g3_count_orders": "SELECT COUNT(*) AS n_orders FROM orders",
    "j1_region_revenue": """
        SELECT r_name, COUNT(*) AS n_orders,
               CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS total_cents
        FROM orders
        JOIN customer ON o_custkey = c_custkey
        JOIN nation ON c_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        GROUP BY r_name""",
    "j4_customer_order_counts": """
        SELECT c_custkey, CAST(COUNT(o_orderkey) AS BIGINT) AS n_orders
        FROM customer LEFT JOIN orders ON c_custkey = o_custkey
        GROUP BY c_custkey""",
    "m9_status_filter": """
        SELECT o_orderstatus, COUNT(*) AS n FROM orders
        WHERE o_orderstatus IN ('O','F') GROUP BY o_orderstatus""",
    "o1_first_line_partkey": """
        SELECT l_orderkey,
               CAST(MIN(l_linenumber * 10000000000 + l_partkey) % 10000000000 AS BIGINT)
                 AS first_partkey
        FROM lineitem GROUP BY l_orderkey""",
    "o3_topk_recent_events": """
        SELECT event_id, ts, event_type FROM events
        ORDER BY ts DESC, event_id DESC LIMIT 100""",
    "m1_explode_tokens": """
        SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents""",
    "m3_regex_first_word": """
        SELECT doc_id, regexp_extract(text, '^([a-z]+)', 1) AS first_word FROM documents""",
    "m4_priority_code": """
        SELECT o_orderkey, regexp_extract(o_orderpriority, '^([0-9]+)', 1) AS prio_code
        FROM orders""",
    "events_daily": """
        SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, COUNT(*) AS n,
               CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sum_value_cents
        FROM events GROUP BY event_type, day""",
    "m8_mask_props": """
        SELECT event_id, regexp_replace(props, '[0-9]', '#', 'g') AS masked_props
        FROM events""",
    "asof_last_order_before_event": """
        SELECT e.event_id, strftime(o.o_orderdate, '%Y-%m-%d') AS last_order_date
        FROM events e ASOF JOIN orders o
          ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate""",
    "range_join_balance_band": """
        SELECT c_custkey, s_suppkey FROM customer, supplier
        WHERE abs(c_acctbal - s_acctbal) <= 1.0""",
    "q3_mktsegment_revenue": """
        SELECT c_mktsegment, COUNT(*) AS n_lines,
               CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000)
                        AS BIGINT)) AS BIGINT) AS revenue_e4
        FROM lineitem
        JOIN orders ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment""",
    "median_value_by_type": """
        SELECT event_type,
               CAST(median(CAST(ROUND(value*100) AS BIGINT)) AS DOUBLE) AS median_cents
        FROM events GROUP BY event_type""",
    "m_props_json": """
        SELECT event_id,
               CAST(COALESCE(json_extract(props, '$.k'), -1) AS BIGINT) AS k_val
        FROM events""",
    "top_tokens_per_doc": """
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents),
        counted AS (
          SELECT doc_id, token, COUNT(*) AS n FROM toks
          WHERE token <> '' GROUP BY doc_id, token),
        ranked AS (
          SELECT doc_id, token,
                 row_number() OVER (PARTITION BY doc_id
                                    ORDER BY n DESC, token) AS rk
          FROM counted)
        SELECT doc_id, token, CAST(rk AS BIGINT) AS rk FROM ranked WHERE rk <= 3""",
    "part_brand_stats": """
        SELECT p_brand, COUNT(*) AS n_parts,
               CAST(SUM(CAST(p_size AS BIGINT)) AS BIGINT) AS sum_size,
               CAST(MAX(CAST(ROUND(p_retailprice*100) AS BIGINT)) AS BIGINT)
                 AS max_price_cents
        FROM part GROUP BY p_brand""",
    "events_tumbling": """
        SELECT event_type,
               CAST(floor(epoch(ts)/300)*300 AS BIGINT) AS window_start,
               COUNT(*) AS n,
               CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sum_value_cents
        FROM events GROUP BY event_type, window_start""",
    "events_value_histogram": """
        SELECT event_type,
               CAST(floor(value / 10.0) * 10 AS BIGINT) AS bin, COUNT(*) AS n
        FROM events GROUP BY event_type, bin""",
    "events_rolling_sum3": """
        SELECT event_id,
               CAST(SUM(CAST(ROUND(value*100) AS BIGINT))
                    OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT)
                 AS sum3_cents
        FROM events""",
    "events_prev_gap": """
        SELECT event_id,
               CAST(COALESCE(date_diff('microsecond',
                     lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts),
                     -1) AS BIGINT) AS prev_gap_us
        FROM events""",
    "events_sessionize": """
        WITH g AS (
          SELECT event_id, user_id, ts,
                 date_diff('microsecond',
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                   ts) AS gap_us
          FROM events)
        SELECT event_id,
               CAST(SUM(CASE WHEN gap_us IS NULL OR gap_us > 1800000000
                             THEN 1 ELSE 0 END)
                    OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_idx
        FROM g""",
    "topk_orders_per_customer": """
        WITH r AS (
          SELECT o_custkey, o_orderkey,
                 row_number() OVER (PARTITION BY o_custkey
                                    ORDER BY o_totalprice DESC, o_orderkey) AS rk
          FROM orders)
        SELECT o_custkey, o_orderkey, CAST(rk AS BIGINT) AS rk FROM r WHERE rk <= 2""",
    "distinct_event_types": "SELECT DISTINCT event_type FROM events",
    "sample_events_hash": """
        SELECT event_id, event_type FROM events WHERE event_id % 16 = 3""",
    "union_entities": """
        SELECT c_custkey AS id, 'c' AS src FROM customer
        UNION ALL SELECT s_suppkey AS id, 's' AS src FROM supplier""",
    "dedup_exact": """
        SELECT md5(text) AS text_hash, CAST(MIN(doc_id) AS BIGINT) AS keeper_doc_id,
               COUNT(*) AS n_dups
        FROM documents GROUP BY md5(text)""",
    "dedup_prefix": """
        SELECT md5(array_to_string(string_split(text, ' ')[1:4], ' ')) AS prefix_hash,
               CAST(MIN(doc_id) AS BIGINT) AS keeper_doc_id, COUNT(*) AS n_docs
        FROM documents GROUP BY 1""",
    "dedup_simhash": f"""
        WITH {_SIMHASH_CORE_SQL}
        SELECT doc_id, simhash FROM simhashes""",
    "dedup_simhash_pairs": f"""
        WITH {_SIMHASH_CORE_SQL}
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(bit_count(xor(a.simhash, b.simhash)) AS INTEGER) AS hamming
        FROM simhashes a JOIN simhashes b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.simhash, b.simhash)) <= 3""",
    "dedup_ngram": f"""
        WITH {_SHINGLES_CORE_SQL.format(src='documents')},
        p AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                 len(list_intersect(a.shingles, b.shingles)) AS inter,
                 len(a.shingles) + len(b.shingles)
                   - len(list_intersect(a.shingles, b.shingles)) AS un
          FROM sh a JOIN sh b ON a.block = b.block AND a.doc_id < b.doc_id)
        SELECT doc_a, doc_b, CAST((100 * inter) // un AS INTEGER) AS jaccard_pct
        FROM p WHERE inter > 0 AND (100 * inter) // un >= 50""",
    "dedup_shared_chunks": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        c AS (
          SELECT doc_id, md5(array_to_string(toks[10*i+1:10*i+10], ' ')) AS ch
          FROM (SELECT doc_id, toks,
                       unnest(range(0, len(toks) // 10)) AS i
                FROM t)),
        d AS (SELECT DISTINCT doc_id, ch FROM c)
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               COUNT(*) AS n_shared_chunks
        FROM d a JOIN d b ON a.ch = b.ch AND a.doc_id < b.doc_id
        GROUP BY doc_a, doc_b""",
    "dedup_passage": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        c AS (
          SELECT doc_id, i AS pos,
                 array_to_string(toks[10*i+1:10*i+10], ' ') AS ctext
          FROM (SELECT doc_id, toks,
                       unnest(range(0, (len(toks) + 9) // 10)) AS i
                FROM t)),
        dup AS (
          SELECT ctext FROM (SELECT DISTINCT doc_id, ctext FROM c)
          GROUP BY ctext HAVING COUNT(*) >= 2),
        k AS (SELECT doc_id, pos, ctext FROM c
              WHERE ctext NOT IN (SELECT ctext FROM dup))
        SELECT doc_id, string_agg(ctext, ' ' ORDER BY pos) AS text,
               CAST(COUNT(*) AS BIGINT) AS n_chunks_kept
        FROM k GROUP BY doc_id""",
    "dedup_substring": """
        WITH d AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents),
        w AS (SELECT doc_id, CAST(t.p AS BIGINT) AS pos,
                     md5(array_to_string(l[t.p+1:t.p+8], ' ')) AS wh
              FROM d, unnest(range(0, greatest(len(l) - 7, 0))) AS t(p)),
        dup AS (SELECT wh FROM w GROUP BY wh HAVING COUNT(*) >= 2),
        cov AS (SELECT DISTINCT doc_id, pos + t.u AS cp
                FROM (SELECT doc_id, pos FROM w
                      WHERE wh IN (SELECT wh FROM dup)),
                     unnest(range(0, 8)) AS t(u)),
        toks AS (SELECT doc_id, unnest(l) AS tok,
                        unnest(range(0, len(l))) AS pos,
                        len(l) AS n FROM d)
        SELECT t.doc_id,
               string_agg(t.tok, ' ' ORDER BY t.pos) AS text,
               CAST(MAX(t.n) - COUNT(*) AS BIGINT) AS n_removed
        FROM toks t LEFT JOIN cov c
          ON t.doc_id = c.doc_id AND t.pos = c.cp
        WHERE c.doc_id IS NULL
        GROUP BY t.doc_id""",
    "dedup_minhash_planted": f"""
        WITH d AS (
          SELECT doc_id, text FROM documents
          UNION ALL
          SELECT doc_id + 10000000 AS doc_id, text FROM documents
          WHERE doc_id % 10 = 0),
        {_SHINGLES_CORE_SQL.format(src='d')},
        keyed AS (
          SELECT doc_id,
                 md5(array_to_string(list_sort(shingles), chr(31))) AS shash
          FROM sh)
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(100 AS INTEGER) AS jaccard_pct
        FROM keyed a JOIN keyed b ON a.shash = b.shash AND a.doc_id < b.doc_id""",
    "text_langid": _langid_oracle_sql(),
    "text_fingerprint": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        w AS (
          SELECT doc_id,
                 CAST(('0x' || substr(md5(array_to_string(toks[i:i+7], ' ')),
                                      1, 16)) AS UBIGINT) AS h
          FROM (SELECT doc_id, toks,
                       unnest(range(1, greatest(2, len(toks) - 6))) AS i
                FROM t))
        SELECT doc_id, CAST(MIN(h) >> 1 AS BIGINT) AS fingerprint
        FROM w GROUP BY doc_id""",
    "quality_classifier": _quality_classifier_oracle_sql(),
    "cms_token_counts": _cms_oracle_sql(),
    "bpe_train": _bpe_train_oracle_sql("correctness"),
    "bpe_encode": _bpe_encode_oracle_sql("correctness"),
    "media_usage": _media_usage_oracle_sql("correctness"),
    "mm_payload_dedup": _mm_payload_oracle_sql("correctness"),
    "mm_interleaved_pack": _mm_interleaved_oracle_sql("correctness"),
    "mm_span_transitions": _mm_transitions_oracle_sql("correctness"),
    "mm_prep": _mm_prep_oracle_sql("correctness"),
    "pagerank_dups": _pagerank_oracle_sql(3),
    "extract_summary": _extract_summary_oracle_sql("correctness"),
    "extract_span_checksum": _extract_span_checksum_oracle_sql("correctness"),
    "extract_then_clean": _extract_then_clean_oracle_sql("correctness"),
    "pack_sequences": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
        SELECT doc_id, CAST(i AS INTEGER) AS seq_idx,
               CAST(least(32, len(toks) - 32*i) AS INTEGER) AS n_tokens,
               toks[32*i + 1] AS first_token
        FROM (SELECT doc_id, toks,
                     unnest(range(0, (len(toks) + 31) // 32)) AS i
              FROM t)""",
    "semi_anti_bloom": """
        SELECT event_id FROM events e
        WHERE EXISTS (SELECT 1 FROM customer c
                      WHERE c.c_custkey = e.user_id
                        AND c.c_mktsegment = 'BUILDING')""",
    "pack_stream": """
        WITH n AS (
          SELECT doc_id, md5('42|' || CAST(doc_id AS VARCHAR)) AS k,
                 CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tok
          FROM documents),
        o AS (
          SELECT doc_id, n_tok,
                 COALESCE(SUM(n_tok) OVER (ORDER BY k, doc_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                   AS st
          FROM n)
        SELECT doc_id, n_tok, CAST(st AS BIGINT) AS start_tok,
               CAST(st // 32 AS BIGINT) AS first_seq,
               CAST((st + n_tok - 1) // 32 AS BIGINT) AS last_seq
        FROM o""",
    "dsir_weights": _dsir_oracle_sql(),
    "self_overlap": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        sh AS (SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g FROM t,
               unnest(range(1, greatest(2, len(toks) - 2))) AS u(i)),
        dsh AS (SELECT doc_id, g, CAST(COUNT(*) AS BIGINT) AS occ
                FROM sh GROUP BY doc_id, g),
        dfq AS (SELECT g, CAST(SUM(occ) AS BIGINT) AS df
                FROM dsh GROUP BY g)
        SELECT dsh.doc_id, CAST(COUNT(*) AS BIGINT) AS n_shingles,
               CAST(SUM(CASE WHEN dfq.df >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                 AS n_shared
        FROM dsh JOIN dfq USING (g) GROUP BY dsh.doc_id""",
    "rag_prep": """
        WITH q AS (
          SELECT doc_id, text FROM documents
          WHERE LEN(regexp_extract_all(text, '[A-Za-z0-9_]+')) >= 5
            AND LENGTH(text) >= 30),
        k AS (SELECT MIN(doc_id) AS doc_id FROM q GROUP BY md5(text)),
        d AS (SELECT doc_id, string_split(text, ' ') AS toks
              FROM documents WHERE doc_id IN (SELECT doc_id FROM k)),
        c AS (SELECT doc_id, toks, len(toks) AS n,
                     unnest(range(CASE WHEN len(toks) <= 32 THEN 1
                                  ELSE (len(toks) - 32 + 23) // 24 + 1 END))
                       AS ci
              FROM d),
        ch AS (SELECT doc_id, ci, least(32, n - 24*ci) AS nt FROM c)
        SELECT CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '|'
                    || CAST(ci AS VARCHAR)), 1, 8)) AS UBIGINT) % 16
                    AS BIGINT) AS shard,
               CAST(COUNT(*) AS BIGINT) AS n_chunks,
               CAST(SUM(nt) AS BIGINT) AS sum_tokens
        FROM ch GROUP BY 1""",
    "lm_bigram_score": """
        WITH t AS (
          SELECT doc_id, list_filter(string_split(text, ' '),
                                     x -> x <> '') AS tk
          FROM documents),
        bg AS (
          SELECT doc_id, tk[i] AS w1, tk[i + 1] AS w2
          FROM (SELECT doc_id, tk, unnest(range(1, len(tk))) AS i FROM t)),
        b12 AS (SELECT doc_id, w1, w2, CAST(COUNT(*) AS BIGINT) AS tf
                FROM bg GROUP BY doc_id, w1, w2),
        c12 AS (SELECT w1, w2, CAST(SUM(tf) AS BIGINT) AS c12
                FROM b12 GROUP BY w1, w2),
        c1 AS (SELECT w1, CAST(SUM(c12) AS BIGINT) AS c1
               FROM c12 GROUP BY w1)
        SELECT b12.doc_id,
               CAST(SUM(b12.tf * CAST(ROUND(1000 * ln(CAST(c1.c1 AS DOUBLE)
                        / c12.c12)) AS BIGINT)) AS BIGINT) AS bigram_mn,
               CAST(SUM(b12.tf) AS BIGINT) AS n_bigrams
        FROM b12 JOIN c12 USING (w1, w2) JOIN c1 USING (w1)
        GROUP BY b12.doc_id""",
    "vocab_encode": """
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS token
          FROM documents),
        tf AS (SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
               FROM toks WHERE token <> '' GROUP BY doc_id, token),
        c AS (SELECT token, CAST(SUM(tf) AS BIGINT) AS cnt
              FROM tf GROUP BY token),
        v AS (SELECT token,
                     CAST(row_number() OVER (ORDER BY cnt DESC, token)
                          AS BIGINT) AS rk
              FROM c QUALIFY rk <= 256)
        SELECT tf.doc_id, CAST(SUM(tf.tf) AS BIGINT) AS n_tok,
               CAST(SUM(CASE WHEN v.rk IS NULL THEN tf.tf ELSE 0 END)
                    AS BIGINT) AS n_oov,
               CAST(SUM(CASE WHEN v.rk IS NULL THEN 0
                             ELSE tf.tf * v.rk END) AS BIGINT) AS id_sum
        FROM tf LEFT JOIN v USING (token) GROUP BY tf.doc_id""",
    "dedup_incremental": """
        WITH base AS (
          SELECT md5(text) AS h FROM documents WHERE doc_id % 3 = 0),
        fresh AS (
          SELECT doc_id, md5(text) AS text_hash FROM documents
          WHERE md5(text) NOT IN (SELECT h FROM base))
        SELECT text_hash, CAST(MIN(doc_id) AS BIGINT) AS doc_id
        FROM fresh GROUP BY text_hash""",
    "corpus_report": """
        WITH g AS (
          SELECT lang, md5(text) AS h, COUNT(*) AS n,
                 SUM(len(string_split(text, ' '))) AS tok,
                 SUM(length(text)) AS ch,
                 MAX(len(string_split(text, ' '))) AS mt
          FROM documents GROUP BY lang, h)
        SELECT lang, CAST(SUM(n) AS BIGINT) AS n_docs,
               CAST(SUM(n) - COUNT(*) AS BIGINT) AS n_dup_docs,
               CAST(SUM(tok) AS BIGINT) AS n_tokens,
               CAST(SUM(ch) AS BIGINT) AS n_chars,
               CAST(MAX(mt) AS BIGINT) AS max_tokens
        FROM g GROUP BY lang""",
    "chunk_documents": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        c AS (SELECT doc_id, toks, len(toks) AS n,
                     unnest(range(CASE WHEN len(toks) <= 32 THEN 1
                                  ELSE (len(toks) - 32 + 23) // 24 + 1 END))
                       AS ci
              FROM t)
        SELECT doc_id, CAST(ci AS BIGINT) AS chunk_idx,
               CAST(least(32, n - 24*ci) AS BIGINT) AS n_tokens,
               array_to_string(toks[24*ci + 1 : 24*ci + least(32, n - 24*ci)],
                               ' ') AS chunk_text
        FROM c""",
    "pii_scrub": _pii_scrub_oracle_sql(),
    "text_repetition": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        tok AS (SELECT doc_id, unnest(toks) AS tok FROM t),
        tc0 AS (SELECT doc_id, tok, COUNT(*) AS c FROM tok GROUP BY doc_id, tok),
        tc AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens,
                      CAST(COUNT(*) AS BIGINT) AS n_distinct,
                      CAST(MAX(c) AS BIGINT) AS max_tok_count
               FROM tc0 GROUP BY doc_id),
        bg0 AS (SELECT doc_id, toks[i] || ' ' || toks[i+1] AS g
                FROM t, unnest(range(1, len(toks))) AS u(i)),
        bc0 AS (SELECT doc_id, g, COUNT(*) AS c FROM bg0 GROUP BY doc_id, g),
        bc AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_bigrams,
                      CAST(MAX(c) AS BIGINT) AS max_bigram_count
               FROM bc0 GROUP BY doc_id)
        SELECT tc.doc_id, n_tokens, n_distinct, max_tok_count,
               COALESCE(n_bigrams, 0) AS n_bigrams,
               COALESCE(max_bigram_count, 0) AS max_bigram_count,
               CAST(CASE WHEN max_tok_count * 4 <= n_tokens
                          AND COALESCE(max_bigram_count, 0) * 8
                              <= COALESCE(n_bigrams, 0)
                    THEN 1 ELSE 0 END AS BIGINT) AS keep
        FROM tc LEFT JOIN bc ON tc.doc_id = bc.doc_id""",
    "decontaminate": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        sh AS (SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g FROM t,
               unnest(range(1, greatest(2, len(toks) - 2))) AS u(i)),
        bench AS (SELECT DISTINCT g FROM sh WHERE doc_id % 41 = 0),
        cont AS (SELECT DISTINCT s.doc_id FROM sh s JOIN bench USING(g)
                 WHERE s.doc_id % 41 <> 0)
        SELECT d.doc_id, d.n_chars FROM documents d
        WHERE d.doc_id % 41 <> 0
          AND d.doc_id NOT IN (SELECT doc_id FROM cont)""",
    "contamination_report": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        sh AS (SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g FROM t,
               unnest(range(1, greatest(2, len(toks) - 2))) AS u(i)),
        pairs AS (SELECT DISTINCT b.doc_id AS bench_doc_id, c.doc_id
                  FROM sh b JOIN sh c USING (g)
                  WHERE b.doc_id % 41 = 0 AND c.doc_id % 41 <> 0),
        cnt AS (SELECT bench_doc_id, CAST(COUNT(*) AS BIGINT) AS n_contaminated
                FROM pairs GROUP BY bench_doc_id)
        SELECT d.doc_id AS bench_doc_id,
               CAST(COALESCE(cnt.n_contaminated, 0) AS BIGINT) AS n_contaminated
        FROM documents d LEFT JOIN cnt ON d.doc_id = cnt.bench_doc_id
        WHERE d.doc_id % 41 = 0""",
    "dedup_contained_pairs": """
        WITH d AS (SELECT doc_id, text, LENGTH(text) AS nc,
                          len(string_split(text, ' ')) AS nt FROM documents)
        SELECT a.doc_id AS contained_doc_id, b.doc_id AS container_doc_id
        FROM d a JOIN d b ON a.doc_id <> b.doc_id
        WHERE a.nt >= 4
          AND contains(' ' || b.text || ' ', ' ' || a.text || ' ')
          AND (b.nc > a.nc OR (b.nc = a.nc AND b.doc_id < a.doc_id))""",
    "dedup_contained": """
        WITH d AS (SELECT doc_id, text, LENGTH(text) AS nc,
                          len(string_split(text, ' ')) AS nt FROM documents),
        dropped AS (
          SELECT DISTINCT a.doc_id FROM d a JOIN d b ON a.doc_id <> b.doc_id
          WHERE a.nt >= 4
            AND contains(' ' || b.text || ' ', ' ' || a.text || ' ')
            AND (b.nc > a.nc OR (b.nc = a.nc AND b.doc_id < a.doc_id)))
        SELECT doc_id, n_chars FROM documents
        WHERE doc_id NOT IN (SELECT doc_id FROM dropped)""",
    "shard_stats": """
        SELECT CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                         AS UBIGINT) % 16 AS BIGINT) AS shard,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars
        FROM documents GROUP BY 1""",
    "shuffle_rank": """
        SELECT doc_id,
               CAST(row_number() OVER (
                    ORDER BY md5('42|' || CAST(doc_id AS VARCHAR)), doc_id)
                    - 1 AS BIGINT) AS rank
        FROM documents""",
    "lang_quota": """
        SELECT lang, doc_id, n_chars, rk FROM (
          SELECT lang, doc_id, n_chars,
                 CAST(row_number() OVER (
                      PARTITION BY lang
                      ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rk
          FROM documents) WHERE rk <= 50""",
    "token_budget_per_lang": """
        WITH t AS (
          SELECT doc_id, lang,
                 CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tok,
                 md5('7|' || CAST(doc_id AS VARCHAR)) AS sk
          FROM documents)
        SELECT doc_id, lang, n_tok FROM (
          SELECT doc_id, lang, n_tok,
                 SUM(n_tok) OVER (PARTITION BY lang ORDER BY sk, doc_id
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS cum
          FROM t) WHERE cum - n_tok < 2000""",
    "mixture_sample": _mixture_sample_oracle_sql(),
    "lm_heldout_score": f"""
        WITH sp AS (
          SELECT doc_id, text,
                 CASE WHEN substr(md5('29|' || CAST(doc_id AS VARCHAR)),
                                  1, 8)
                           < '{format(int(0.02 * (1 << 32)), "08x")}'
                      THEN 'val' ELSE 'train' END AS split
          FROM documents),
        ttf AS (
          SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt
          FROM (SELECT unnest(string_split(text, ' ')) AS token
                FROM sp WHERE split = 'train')
          WHERE token <> '' GROUP BY token),
        stats AS (SELECT CAST(SUM(cnt) AS BIGINT) AS n,
                         CAST(COUNT(*) AS BIGINT) AS v FROM ttf),
        vtf AS (
          SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
          FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
                FROM sp WHERE split = 'val')
          WHERE token <> '' GROUP BY doc_id, token),
        sc AS (
          SELECT v.doc_id,
                 v.tf * CAST(ROUND(1000 * ln(CAST(s.n + s.v AS DOUBLE)
                             / (COALESCE(t.cnt, 0) + 1.0))) AS BIGINT)
                   AS part_mn,
                 v.tf AS part_n
          FROM vtf v LEFT JOIN ttf t USING (token), stats s)
        SELECT doc_id, CAST(SUM(part_mn) AS BIGINT) AS surprisal_mn,
               CAST(SUM(part_n) AS BIGINT) AS n_tok
        FROM sc GROUP BY doc_id""",
    "train_val_split": f"""
        SELECT doc_id, lang,
               CASE WHEN substr(md5('29|' || CAST(doc_id AS VARCHAR)), 1, 8)
                         < '{format(int(0.02 * (1 << 32)), "08x")}'
                    THEN 'val' ELSE 'train' END AS split
        FROM documents""",
    "epoch_oversample": _epoch_oversample_oracle_sql(),
    "curriculum_rank": """
        SELECT doc_id, CAST(least(n_chars // 150, 3) AS BIGINT) AS stage,
               CAST(row_number() OVER (
                    ORDER BY least(n_chars // 150, 3),
                             md5('7|' || CAST(doc_id AS VARCHAR)), doc_id)
                    - 1 AS BIGINT) AS rank
        FROM documents""",
    # drop-reason attribution: same stage fragments as training_prep,
    # resolved to the FIRST failing stage per doc via a CASE ladder
    "prep_funnel": """
        WITH pool AS (SELECT doc_id, text FROM documents
                      WHERE doc_id % 41 <> 0),
        q AS (SELECT * FROM pool
              WHERE LEN(regexp_extract_all(text, '[A-Za-z0-9_]+')) >= 5
                AND LENGTH(text) >= 30),
        kp AS (SELECT MIN(doc_id) AS doc_id FROM q GROUP BY md5(text)),
        dupd AS (SELECT doc_id FROM q
                 WHERE doc_id NOT IN (SELECT doc_id FROM kp)),
        d AS (SELECT q.* FROM q JOIN kp USING (doc_id)),
        t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM d),
        tc AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens,
                      CAST(MAX(c) AS BIGINT) AS max_tok_count
               FROM (SELECT doc_id, tok, COUNT(*) AS c
                     FROM (SELECT doc_id, unnest(toks) AS tok FROM t)
                     GROUP BY doc_id, tok)
               GROUP BY doc_id),
        bc AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_bigrams,
                      CAST(MAX(c) AS BIGINT) AS max_bigram_count
               FROM (SELECT doc_id, g, COUNT(*) AS c
                     FROM (SELECT doc_id, toks[i] || ' ' || toks[i+1] AS g
                           FROM t, unnest(range(1, len(toks))) AS u(i))
                     GROUP BY doc_id, g)
               GROUP BY doc_id),
        repfail AS (SELECT d.doc_id FROM d
                    JOIN tc ON d.doc_id = tc.doc_id
                    LEFT JOIN bc ON d.doc_id = bc.doc_id
                    WHERE NOT (tc.max_tok_count * 4 <= tc.n_tokens
                               AND COALESCE(bc.max_bigram_count, 0) * 8
                                   <= COALESCE(bc.n_bigrams, 0))),
        r AS (SELECT d.* FROM d
              WHERE d.doc_id NOT IN (SELECT doc_id FROM repfail)),
        rt AS (SELECT doc_id, string_split(text, ' ') AS toks FROM r),
        sh AS (SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g
               FROM rt, unnest(range(1, greatest(2, len(toks) - 2))) AS u(i)),
        bsh AS (SELECT DISTINCT array_to_string(toks[i:i+3], ' ') AS g
                FROM (SELECT string_split(text, ' ') AS toks
                      FROM documents WHERE doc_id % 41 = 0) bt,
                unnest(range(1, greatest(2, len(toks) - 2))) AS u(i)),
        cont AS (SELECT DISTINCT s.doc_id FROM sh s JOIN bsh USING (g))
        SELECT p.doc_id,
               CASE WHEN p.doc_id NOT IN (SELECT doc_id FROM q)
                      THEN 'quality'
                    WHEN p.doc_id IN (SELECT doc_id FROM dupd)
                      THEN 'exact_dup'
                    WHEN p.doc_id IN (SELECT doc_id FROM repfail)
                      THEN 'repetition'
                    WHEN p.doc_id IN (SELECT doc_id FROM cont)
                      THEN 'contaminated'
                    ELSE 'kept' END AS drop_reason
        FROM pool p""",
    # the end-to-end training-prep chain, composed from the per-stage
    # oracles (clean_corpus ∘ text_repetition keep rule ∘ decontaminate
    # shingles ∘ shard_stats assignment) — each fragment is identical to
    # its stage oracle so a divergence pinpoints the stage
    "training_prep": """
        WITH q AS (
          SELECT doc_id, text, n_chars FROM documents
          WHERE doc_id % 41 <> 0
            AND LEN(regexp_extract_all(text, '[A-Za-z0-9_]+')) >= 5
            AND LENGTH(text) >= 30),
        kp AS (SELECT MIN(doc_id) AS doc_id FROM q GROUP BY md5(text)),
        d AS (SELECT q.* FROM q JOIN kp USING (doc_id)),
        t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM d),
        tc0 AS (SELECT doc_id, tok, COUNT(*) AS c
                FROM (SELECT doc_id, unnest(toks) AS tok FROM t)
                GROUP BY doc_id, tok),
        tc AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens,
                      CAST(MAX(c) AS BIGINT) AS max_tok_count
               FROM tc0 GROUP BY doc_id),
        bc0 AS (SELECT doc_id, g, COUNT(*) AS c
                FROM (SELECT doc_id, toks[i] || ' ' || toks[i+1] AS g
                      FROM t, unnest(range(1, len(toks))) AS u(i))
                GROUP BY doc_id, g),
        bc AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_bigrams,
                      CAST(MAX(c) AS BIGINT) AS max_bigram_count
               FROM bc0 GROUP BY doc_id),
        r AS (SELECT d.* FROM d
              JOIN tc ON d.doc_id = tc.doc_id
              LEFT JOIN bc ON d.doc_id = bc.doc_id
              WHERE tc.max_tok_count * 4 <= tc.n_tokens
                AND COALESCE(bc.max_bigram_count, 0) * 8
                    <= COALESCE(bc.n_bigrams, 0)),
        rt AS (SELECT doc_id, string_split(text, ' ') AS toks FROM r),
        sh AS (SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g
               FROM rt, unnest(range(1, greatest(2, len(toks) - 2))) AS u(i)),
        bsh AS (SELECT DISTINCT array_to_string(toks[i:i+3], ' ') AS g
                FROM (SELECT string_split(text, ' ') AS toks
                      FROM documents WHERE doc_id % 41 = 0) bt,
                unnest(range(1, greatest(2, len(toks) - 2))) AS u(i)),
        cont AS (SELECT DISTINCT s.doc_id FROM sh s JOIN bsh USING (g)),
        f AS (SELECT * FROM r
              WHERE doc_id NOT IN (SELECT doc_id FROM cont))
        SELECT CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                         AS UBIGINT) % 16 AS BIGINT) AS shard,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars
        FROM f GROUP BY 1""",
    # exact two-pass heavy hitters: the MG candidate sweep only
    # determines WHICH values get exact-counted; the final filter is
    # the pure frequency rule, so the oracle is a plain GROUP BY HAVING
    "heavy_hitters_exact": f"""
        WITH tok AS (SELECT unnest(string_split(text, ' ')) AS token
                     FROM documents),
        n AS (SELECT COUNT(*) AS c FROM tok)
        SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt
        FROM tok GROUP BY token
        HAVING COUNT(*) * {HHX_K} > (SELECT c FROM n)""",
    # md5-parity HLL registers: idx = top 12 bits of the first 8 md5
    # bytes, rho = 1 + leading zeros of the remaining 52 (bin() gives
    # the exact bit length — no float log2), zeros included via the
    # LEFT JOIN against range(4096)
    "hll_user_registers": """
        WITH h AS (SELECT CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)),
                                1, 16)) AS UBIGINT) AS hv FROM events),
        r AS (SELECT CAST(hv >> 52 AS INTEGER) AS idx,
                     hv & ((CAST(1 AS UBIGINT) << 52) - 1) AS tail FROM h),
        mx AS (SELECT idx,
                      MAX(CASE WHEN tail = 0 THEN 53
                               ELSE CAST(53 - length(bin(tail)) AS INTEGER)
                          END) AS reg
               FROM r GROUP BY idx)
        SELECT CAST(g.range AS INTEGER) AS idx,
               CAST(COALESCE(mx.reg, 0) AS INTEGER) AS register
        FROM range(0, 4096) g LEFT JOIN mx ON g.range = mx.idx""",
    # connected components replayed as a recursive-CTE transitive
    # closure (exact for the pair graph the engine builds; cluster_id =
    # min doc_id in the component on both sides)
    "dup_clusters": """
        WITH RECURSIVE t AS (SELECT doc_id, string_split(text, ' ') AS toks
                             FROM documents),
        c AS (
          SELECT doc_id, md5(array_to_string(toks[10*i+1:10*i+10], ' ')) AS ch
          FROM (SELECT doc_id, toks,
                       unnest(range(0, len(toks) // 10)) AS i
                FROM t)),
        d AS (SELECT DISTINCT doc_id, ch FROM c),
        p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM d a JOIN d b ON a.ch = b.ch AND a.doc_id < b.doc_id
              GROUP BY 1, 2),
        e AS (SELECT doc_a AS a, doc_b AS b FROM p
              UNION SELECT doc_b, doc_a FROM p),
        reach AS (
          SELECT a, b FROM e
          UNION
          SELECT r.a, e.b FROM reach r JOIN e ON r.b = e.a
          WHERE e.b <> r.a),
        nodes AS (SELECT DISTINCT a FROM e)
        SELECT n.a AS doc_id,
               CAST(LEAST(n.a, MIN(r.b)) AS BIGINT) AS cluster_id
        FROM nodes n LEFT JOIN reach r ON r.a = n.a
        GROUP BY n.a""",
    "distinct_users_per_type": """
        SELECT event_type,
               CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
        FROM events GROUP BY event_type""",
    # snapshot diff: FULL OUTER JOIN replay of the planted next
    # snapshot; the engine compares md5s, equal iff the texts are equal
    "corpus_diff": """
        WITH newt AS (
          SELECT doc_id,
                 CASE WHEN doc_id % 10 = 0 THEN text || ' v2'
                      ELSE text END AS text
          FROM documents WHERE doc_id % 17 <> 0
          UNION ALL
          SELECT doc_id + 10000000 AS doc_id, text
          FROM documents WHERE doc_id % 25 = 0)
        SELECT COALESCE(b.doc_id, n.doc_id) AS doc_id,
               CASE WHEN b.text IS NULL THEN 'added'
                    WHEN n.text IS NULL THEN 'removed'
                    WHEN b.text = n.text THEN 'unchanged'
                    ELSE 'changed' END AS status
        FROM documents b FULL OUTER JOIN newt n ON b.doc_id = n.doc_id""",
    # content-defined chunk boundaries: flag tokens by md5 % modulus,
    # chunk id = windowed prefix sum of flags over PRECEDING tokens,
    # chunks shorter than 8 tokens are not hashed (same rule engine-side)
    "dedup_cdc": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        tok AS (SELECT doc_id, unnest(toks) AS tk,
                       generate_subscripts(toks, 1) AS i
                FROM t),
        fl AS (SELECT doc_id, tk, i,
                      CASE WHEN CAST(('0x' || substr(md5(tk), 1, 8))
                                     AS UBIGINT) % 16 = 0
                           THEN 1 ELSE 0 END AS f
               FROM tok),
        cid AS (SELECT doc_id, tk, i,
                       COALESCE(SUM(f) OVER (PARTITION BY doc_id ORDER BY i
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING), 0) AS c
                FROM fl),
        ch AS (SELECT doc_id, md5(string_agg(tk, ' ' ORDER BY i)) AS h
               FROM cid GROUP BY doc_id, c HAVING COUNT(*) >= 8),
        d AS (SELECT DISTINCT doc_id, h FROM ch)
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(COUNT(*) AS BIGINT) AS n_shared_chunks
        FROM d a JOIN d b ON a.h = b.h AND a.doc_id < b.doc_id
        GROUP BY 1, 2""",
    "text_index_search": f"""
        SELECT token, doc_id, CAST(COUNT(*) AS BIGINT) AS tf
        FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
              FROM documents)
        WHERE token IN ({', '.join(repr(t) for t in CMS_QUERY_TOKENS)})
        GROUP BY token, doc_id""",
    # per-group exact quantile: the threshold is the VALUE at ascending
    # rank ceil(n/4) within the group, so any tie-break order gives the
    # same threshold; engine keeps value >= threshold
    "length_percentile_filter": """
        WITH cnt AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang),
        rk AS (SELECT lang, n_chars,
                      ROW_NUMBER() OVER (PARTITION BY lang
                                         ORDER BY n_chars, doc_id) AS rn
               FROM documents),
        thr AS (SELECT rk.lang, rk.n_chars AS t
                FROM rk JOIN cnt USING (lang)
                WHERE rk.rn = (cnt.n + 3) // 4)
        SELECT d.doc_id, d.lang, d.n_chars
        FROM documents d JOIN thr ON d.lang = thr.lang
        WHERE d.n_chars >= thr.t""",
    # greedy packing fold replayed exactly: one recursive-CTE level
    # consumes the next doc of EVERY bucket, carrying (pack_idx, filled)
    "pack_greedy": """
        WITH RECURSIVE nt AS (
          SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT)
                   AS n_tokens,
                 CAST(CAST(('0x' || substr(md5('pg|' ||
                      CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) % 32
                   AS INTEGER) AS bucket
          FROM documents),
        rn AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY bucket
                                            ORDER BY doc_id) AS r
               FROM nt),
        s AS (
          SELECT bucket, r, doc_id, n_tokens,
                 0 AS pack_idx, n_tokens AS filled
          FROM rn WHERE r = 1
          UNION ALL
          SELECT rn.bucket, rn.r, rn.doc_id, rn.n_tokens,
                 CASE WHEN s.filled + rn.n_tokens > 256 THEN s.pack_idx + 1
                      ELSE s.pack_idx END,
                 CASE WHEN s.filled + rn.n_tokens > 256 THEN rn.n_tokens
                      ELSE s.filled + rn.n_tokens END
          FROM s JOIN rn ON rn.bucket = s.bucket AND rn.r = s.r + 1)
        SELECT bucket, doc_id, CAST(pack_idx AS INTEGER) AS pack_idx,
               n_tokens
        FROM s""",
    "parse_detail_rows": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
        base AS (SELECT doc_id, toks,
                        least(3, len(toks) // 15) AS n_rows FROM t),
        details AS (
          SELECT b.doc_id, CAST(1 AS INTEGER) AS page_idx,
                 CAST(r.r AS INTEGER) AS row_idx, false AS is_non_order,
                 'cust_' || (b.doc_id % 7) AS h_customer,
                 'd' || (b.doc_id % 28) AS h_order_date,
                 'po' || b.doc_id AS h_order_no,
                 toks[15*r.r+1] AS slip_no, toks[15*r.r+2] AS delivery_loc,
                 toks[15*r.r+3] AS customer_name, toks[15*r.r+4] AS cust_order_no,
                 toks[15*r.r+5] AS order_date_f, toks[15*r.r+6] AS ship_date,
                 toks[15*r.r+7] AS due_date, toks[15*r.r+8] AS cust_item_code,
                 toks[15*r.r+9] AS item_code, toks[15*r.r+10] AS item_name,
                 toks[15*r.r+11] AS qty, toks[15*r.r+12] AS unit,
                 toks[15*r.r+13] AS unit_price, toks[15*r.r+14] AS delivery_note,
                 toks[15*r.r+15] AS order_note
          FROM base b CROSS JOIN (SELECT unnest(range(3)) AS r) r
          WHERE r.r < b.n_rows),
        headers_only AS (
          SELECT doc_id, CAST(1 AS INTEGER), CAST(-1 AS INTEGER), false,
                 'cust_' || (doc_id % 7), 'd' || (doc_id % 28), 'po' || doc_id,
                 '', '', '', '', '', '', '', '', '', '', '', '', '', '', ''
          FROM base WHERE n_rows = 0),
        sentinels AS (
          SELECT doc_id, CAST(2 AS INTEGER), CAST(-1 AS INTEGER), true,
                 '', '', '',
                 '', '', '', '', '', '', '', '', '', '', '', '', '', '', ''
          FROM base WHERE doc_id % 3 = 0)
        SELECT * FROM details
        UNION ALL SELECT * FROM headers_only
        UNION ALL SELECT * FROM sentinels""",
    "clean_corpus": """
        WITH q AS (
          SELECT doc_id, text FROM documents
          WHERE LEN(regexp_extract_all(text, '[A-Za-z0-9_]+')) >= 5
            AND LENGTH(text) >= 30)
        SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id FROM q GROUP BY md5(text)""",
    "dedup_embedding": """
        SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b
        FROM embeddings a JOIN embeddings b
          ON a.label = b.label AND a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) > 0.4""",
    "events_window_dedup": """
        SELECT event_id FROM (
          SELECT event_id,
                 epoch_us(ts) - LAG(epoch_us(ts)) OVER (
                     PARTITION BY user_id, event_type
                     ORDER BY ts, event_id) AS gap
          FROM events)
        WHERE gap IS NULL OR gap > 60000000""",
    "export_jsonl": """
        SELECT CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                     1, 8)) AS UBIGINT) % 16 AS BIGINT) AS shard,
               CAST(COUNT(*) AS BIGINT) AS n_rows
        FROM documents GROUP BY 1""",
    "dedup_soft": """
        WITH h AS (SELECT doc_id, md5(text) AS h FROM documents),
        c AS (SELECT h, CAST(COUNT(*) AS BIGINT) AS n FROM h GROUP BY h)
        SELECT doc_id, n AS n_copies,
               CAST(1000 // n AS BIGINT) AS weight_mu
        FROM h JOIN c USING (h)""",
    "upsert_compact": """
        WITH snap AS (
          SELECT doc_id, text, CAST(0 AS BIGINT) AS version FROM documents
          UNION ALL
          SELECT doc_id, text || ' updated', CAST(1 AS BIGINT)
          FROM documents WHERE doc_id % 7 = 0)
        SELECT doc_id, text, version FROM (
          SELECT doc_id, text, version,
                 ROW_NUMBER() OVER (PARTITION BY doc_id
                                    ORDER BY version DESC) AS rn
          FROM snap) WHERE rn = 1""",
    "contrastive_pairs": """
        WITH a AS (
          SELECT vec_id, embedding, label FROM embeddings
          WHERE vec_id IN (0, 1, 2, 3, 4, 5, 6, 7)),
        s AS (
          SELECT a.vec_id AS anchor_id, e.vec_id AS cand_id,
                 CASE WHEN e.label = a.label THEN 1 ELSE 0 END AS same,
                 list_cosine_similarity(a.embedding, e.embedding) AS sim
          FROM a JOIN embeddings e ON e.vec_id <> a.vec_id),
        r AS (
          SELECT anchor_id, cand_id, same,
                 ROW_NUMBER() OVER (PARTITION BY anchor_id, same
                                    ORDER BY sim DESC, cand_id) AS rk
          FROM s)
        SELECT anchor_id,
               CASE WHEN same = 1 THEN 'pos' ELSE 'neg' END AS role,
               CAST(rk AS BIGINT) AS rk, cand_id
        FROM r WHERE (same = 1 AND rk = 1) OR (same = 0 AND rk <= 2)""",
    "semantic_dedup": """
        WITH cent AS (
          SELECT embedding AS cemb,
                 CAST(ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS BIGINT)
                   AS cluster
          FROM (SELECT vec_id, embedding FROM embeddings
                ORDER BY vec_id LIMIT 8)),
        sims AS (
          SELECT e.vec_id, c.cluster,
                 list_cosine_similarity(e.embedding, c.cemb) AS s
          FROM embeddings e CROSS JOIN cent c),
        assign AS (
          SELECT vec_id, cluster FROM (
            SELECT vec_id, cluster,
                   ROW_NUMBER() OVER (PARTITION BY vec_id
                                      ORDER BY s DESC, cluster) AS rn
            FROM sims) WHERE rn = 1),
        dup AS (
          SELECT a.vec_id FROM assign a
          JOIN assign b ON b.cluster = a.cluster AND b.vec_id < a.vec_id
          JOIN embeddings ea ON ea.vec_id = a.vec_id
          JOIN embeddings eb ON eb.vec_id = b.vec_id
          WHERE list_cosine_similarity(ea.embedding, eb.embedding) > 0.4
          GROUP BY a.vec_id)
        SELECT a.vec_id, a.cluster FROM assign a
        ANTI JOIN dup d ON d.vec_id = a.vec_id""",
    "embedding_centroids": """
        WITH e AS (
          SELECT label, unnest(embedding) AS v,
                 generate_subscripts(embedding, 1) - 1 AS dim
          FROM embeddings)
        SELECT CAST(label AS BIGINT) AS label, CAST(dim AS BIGINT) AS dim,
               CAST(ROUND(SUM(CAST(v AS DOUBLE)) * 1000000) AS BIGINT) AS sum_v_micro,
               COUNT(*) AS n
        FROM e GROUP BY label, dim""",
    "sim_topk": """
        WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 8),
        scored AS (
          SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
                 row_number() OVER (
                   PARTITION BY q.qid
                   ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id
                 ) AS rank
          FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qid)
        SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
        FROM scored WHERE rank <= 5""",
    "top_distinctive_token": """
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents),
        tf AS (
          SELECT doc_id, token, COUNT(*) AS tf FROM toks
          WHERE token <> '' GROUP BY doc_id, token),
        dfreq AS (
          SELECT token, COUNT(DISTINCT doc_id) AS df FROM toks
          WHERE token <> '' GROUP BY token),
        ranked AS (
          SELECT tf.doc_id, tf.token,
                 row_number() OVER (PARTITION BY tf.doc_id
                                    ORDER BY tf.tf DESC, dfreq.df ASC, tf.token)
                   AS rk
          FROM tf JOIN dfreq USING (token))
        SELECT doc_id, token AS top_token FROM ranked WHERE rk = 1""",
    "order_priorities_concat": """
        SELECT o_custkey,
               string_agg(o_orderpriority, '|'
                          ORDER BY o_orderdate, o_orderkey) AS priorities
        FROM orders GROUP BY o_custkey""",
    "stratified_sample_by_lang": """
        WITH r AS (
          SELECT doc_id, lang,
                 row_number() OVER (PARTITION BY lang
                                    ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
                   AS rk
          FROM documents)
        SELECT doc_id, lang FROM r WHERE rk <= 20""",
    "top_bigrams": """
        WITH t AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
                 generate_subscripts(string_split(text, ' '), 1) AS i
          FROM documents),
        b AS (
          SELECT tok || ' ' || lead(tok) OVER (PARTITION BY doc_id ORDER BY i)
                   AS bg, tok, lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS nxt
          FROM t WHERE tok <> '')
        SELECT bg, COUNT(*) AS n FROM b
        WHERE nxt IS NOT NULL AND nxt <> ''
        GROUP BY bg ORDER BY n DESC, bg LIMIT 20""",
    "text_quality": f"""
        SELECT doc_id, CAST(LENGTH(text) AS BIGINT) AS n_chars_norm,
               CAST(LEN(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_words,
               CAST(LEN(list_filter(string_split(text, ' '),
                                    x -> x IN {_STOP_SQL})) AS BIGINT) AS n_stopwords
        FROM documents""",
    "ingest_flat_documents": """
        SELECT CAST(doc_id AS VARCHAR) AS doc_id,
               trim(regexp_replace(text, '\\s+', ' ', 'g')) AS extracted_text
        FROM documents
        WHERE length(trim(regexp_replace(text, '\\s+', ' ', 'g'))) > 0""",
    "tokens_by_lang": """
        SELECT lang, COUNT(*) AS n_docs,
               CAST(SUM(LEN(string_split(text, ' '))) AS BIGINT) AS n_tokens
        FROM documents GROUP BY lang""",
    "token_count_bpe": """
        SELECT doc_id,
               CAST(LEN(string_split(text, ' ')) AS BIGINT) AS n_ws_tokens,
               CAST(LEN(regexp_extract_all(text,
                    '[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \\t\\n\\r]+')) AS BIGINT)
                 AS n_bpe_tokens
        FROM documents""",
    "lm_unigram_score": """
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents),
        tf AS (
          SELECT doc_id, token, COUNT(*) AS tf FROM toks
          WHERE token <> '' GROUP BY doc_id, token),
        cnts AS (
          SELECT token, CAST(SUM(tf) AS BIGINT) AS cnt FROM tf GROUP BY token),
        tot AS (SELECT CAST(SUM(cnt) AS BIGINT) AS total FROM cnts)
        SELECT tf.doc_id,
               CAST(SUM(tf.tf * CAST(ROUND(1000 * ln(CAST(tot.total AS DOUBLE)
                        / cnts.cnt)) AS BIGINT)) AS BIGINT) AS surprisal_mn
        FROM tf JOIN cnts USING (token) CROSS JOIN tot
        GROUP BY tf.doc_id""",
    # same LM fragment as lm_unigram_score, then the exact integer
    # 90%-quantile threshold (k-th order statistic; ties kept) — the
    # engine side computes the identical k via exact_order_statistic
    "perplexity_filter": """
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents),
        tf AS (
          SELECT doc_id, token, COUNT(*) AS tf FROM toks
          WHERE token <> '' GROUP BY doc_id, token),
        cnts AS (
          SELECT token, CAST(SUM(tf) AS BIGINT) AS cnt FROM tf GROUP BY token),
        tot AS (SELECT CAST(SUM(cnt) AS BIGINT) AS total FROM cnts),
        sc AS (
          SELECT tf.doc_id,
                 CAST(SUM(tf.tf * CAST(ROUND(1000 * ln(CAST(tot.total AS DOUBLE)
                          / cnts.cnt)) AS BIGINT)) AS BIGINT)
                 // CAST(SUM(tf.tf) AS BIGINT) AS mean_mn
          FROM tf JOIN cnts USING (token) CROSS JOIN tot
          GROUP BY tf.doc_id),
        n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM sc),
        thr AS (SELECT mean_mn AS t FROM sc CROSS JOIN n
                QUALIFY row_number() OVER (ORDER BY mean_mn) = (9 * n.n) // 10)
        SELECT doc_id, CAST(mean_mn AS BIGINT) AS mean_mn FROM sc
        WHERE mean_mn <= (SELECT t FROM thr)""",
    "build_vocab": """
        WITH toks AS (
          SELECT unnest(string_split(text, ' ')) AS token FROM documents),
        c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt FROM toks
              WHERE token <> '' GROUP BY token)
        SELECT token, cnt,
               CAST(row_number() OVER (ORDER BY cnt DESC, token) AS BIGINT)
                 AS rk
        FROM c QUALIFY rk <= 256""",
    # recomputes the hashing-trick embedding: token bucket =
    # first-8-md5-bytes % 16 (the established UBIGINT trick), then the
    # per-doc argmax bucket (ties -> smallest) and squared norm
    "hash_embed_stats": """
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS token
          FROM documents),
        b AS (SELECT doc_id,
                     CAST(CAST(('0x' || substr(md5(token), 1, 16)) AS UBIGINT)
                          % 16 AS BIGINT) AS bucket,
                     COUNT(*) AS c
              FROM toks WHERE token <> '' GROUP BY doc_id, bucket),
        sel AS (SELECT doc_id, bucket,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY c DESC, bucket) AS r
                FROM b),
        n2 AS (SELECT doc_id, CAST(SUM(c * c) AS BIGINT) AS norm2
               FROM b GROUP BY doc_id)
        SELECT s.doc_id, CAST(s.bucket AS BIGINT) AS top_bucket, n2.norm2
        FROM sel s JOIN n2 USING (doc_id) WHERE s.r = 1""",
    "approx_quantiles_value": """
        WITH c AS (
          SELECT event_type,
                 CAST(FLOOR(ROUND(value*100) / 500) AS BIGINT) AS bin,
                 COUNT(*) AS cnt
          FROM events GROUP BY event_type, bin),
        n AS (SELECT event_type, CAST(SUM(cnt) AS BIGINT) AS n
              FROM c GROUP BY event_type),
        cum AS (SELECT event_type, bin,
                       SUM(cnt) OVER (PARTITION BY event_type ORDER BY bin)
                         AS cum
                FROM c),
        ranks AS (SELECT event_type, n, unnest([50, 95, 99]) AS q_pct FROM n),
        sel AS (SELECT r.event_type, r.q_pct, MIN(cum.bin) AS bin
                FROM ranks r JOIN cum ON cum.event_type = r.event_type
                  AND cum.cum >= (r.q_pct * r.n + 99) // 100
                GROUP BY r.event_type, r.q_pct)
        SELECT event_type, CAST(q_pct AS INTEGER) AS q_pct,
               CAST(bin * 500 AS BIGINT) AS est_cents
        FROM sel""",
    "zscore_by_lang": """
        WITH sized AS (
          SELECT doc_id, lang, CAST(LENGTH(text) AS BIGINT) AS n FROM documents),
        m AS (
          SELECT lang,
                 CAST(SUM(n) AS DOUBLE) / COUNT(*) AS mean,
                 CAST(SUM(n*n) AS DOUBLE) / COUNT(*)
                   - (CAST(SUM(n) AS DOUBLE) / COUNT(*))
                     * (CAST(SUM(n) AS DOUBLE) / COUNT(*)) AS var
          FROM sized GROUP BY lang)
        SELECT s.doc_id,
               CAST(CASE WHEN m.var > 0
                    THEN FLOOR(1000 * (s.n - m.mean) / sqrt(m.var))
                    ELSE 0 END AS BIGINT) AS z_milli
        FROM sized s JOIN m USING (lang)""",
    "bm25_search": search.bm25_oracle_sql(BM25_TERMS, k=50),
    "bm25_index_search": search.bm25_oracle_sql(BM25_TERMS, k=50),
    "phrase_search": f"""
        WITH d AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents),
        w AS (SELECT doc_id,
                     array_to_string(l[t.p+1:t.p+{len(PHRASE_TERMS)}], ' ')
                       AS g
              FROM d, unnest(range(0, greatest(
                       len(l) - {len(PHRASE_TERMS) - 1}, 0))) AS t(p))
        SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_matches
        FROM w WHERE g = '{' '.join(PHRASE_TERMS)}'
        GROUP BY doc_id""",
    "text_index_incremental": f"""
        SELECT token, doc_id, CAST(COUNT(*) AS BIGINT) AS tf
        FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
              FROM documents)
        WHERE token IN ({', '.join(repr(t) for t in CMS_QUERY_TOKENS)})
        GROUP BY token, doc_id""",
    "embedding_moments": """
        WITH e AS (SELECT vec_id,
                          CAST(ROUND(CAST(x AS DOUBLE) * 1000) AS BIGINT)
                            AS xi,
                          CAST(i - 1 AS INTEGER) AS i
                   FROM (SELECT vec_id, unnest(embedding) AS x,
                                generate_subscripts(embedding, 1) AS i
                         FROM embeddings)),
        m AS (SELECT a.i AS i, b.i AS j,
                     CAST(SUM(a.xi * b.xi) AS BIGINT) AS v
              FROM e a JOIN e b ON a.vec_id = b.vec_id AND a.i <= b.i
              GROUP BY 1, 2),
        s AS (SELECT i, CAST(-1 AS INTEGER) AS j,
                     CAST(SUM(xi) AS BIGINT) AS v
              FROM e GROUP BY 1),
        n AS (SELECT CAST(-1 AS INTEGER) AS i, CAST(-1 AS INTEGER) AS j,
                     COUNT(*) AS v
              FROM embeddings)
        SELECT * FROM m UNION ALL SELECT * FROM s
        UNION ALL SELECT * FROM n""",
    "events_late_flags": f"""
        WITH o AS (SELECT event_id, user_id, epoch_us(ts) AS t
                   FROM events),
        w AS (SELECT event_id, t,
                     MAX(t) OVER (PARTITION BY user_id ORDER BY event_id
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS pm
              FROM o)
        SELECT event_id,
               CAST(CASE WHEN pm IS NOT NULL
                          AND pm - t > {LATE_WATERMARK_US}
                         THEN 1 ELSE 0 END AS BIGINT) AS is_late,
               CAST(CASE WHEN pm IS NOT NULL AND pm - t > 0
                         THEN pm - t ELSE 0 END AS BIGINT) AS disorder_us
        FROM w""",
}

# the minhash-parity oracle shares the 3-shingle CTE with the other
# shingle oracles (one builder, no drift)
ORACLE_SQL["minhash_md5_signatures"] = (
    ORACLE_SQL["minhash_md5_signatures"].format(
        shcore=_SHINGLES_CORE_SQL.format(src="documents")))

# Oracles whose expected values depend on the fixture-corpus TIER. The
# driver always runs at sf0.01 (the "correctness" tier baked into
# ORACLE_SQL above); scripts/check_queries.py regenerates these per-tier
# through this hook when checking other sf dirs.
TIER_ORACLE_BUILDERS = {
    "extract_summary": _extract_summary_oracle_sql,
    "extract_span_checksum": _extract_span_checksum_oracle_sql,
    "extract_then_clean": _extract_then_clean_oracle_sql,
    "bpe_train": _bpe_train_oracle_sql,
    "bpe_encode": _bpe_encode_oracle_sql,
    "media_usage": _media_usage_oracle_sql,
    "mm_payload_dedup": _mm_payload_oracle_sql,
    "mm_interleaved_pack": _mm_interleaved_oracle_sql,
    "mm_span_transitions": _mm_transitions_oracle_sql,
    "mm_prep": _mm_prep_oracle_sql,
}

# round-4 continuation oracles
ORACLE_SQL["dedup_edit1"] = f"""
    WITH t AS (SELECT doc_id,
                      array_to_string(list_slice(string_split(text, ' '),
                                                 1, {EDIT1_TITLE_TOKENS}),
                                      ' ')
                      || CASE WHEN doc_id % 29 = 0 THEN 'x' ELSE '' END
                        AS title
               FROM documents)
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(levenshtein(a.title, b.title) AS BIGINT) AS dist
    FROM t a JOIN t b
      ON a.doc_id < b.doc_id
     AND abs(len(a.title) - len(b.title)) <= 1
     AND levenshtein(a.title, b.title) <= 1"""

# lower-median rule k=(n+1)//2 stated as ORDER BY/OFFSET — no
# interpolation, so the engine's exact_order_statistic is bit-equal
ORACLE_SQL["mad_outliers"] = """
    WITH v AS (SELECT event_id,
                      CAST(round(value * 100) AS BIGINT) AS u FROM events),
    m AS (SELECT u AS med FROM v ORDER BY u
          LIMIT 1 OFFSET (SELECT (COUNT(*) + 1) // 2 - 1 FROM v)),
    d AS (SELECT event_id, abs(u - (SELECT med FROM m)) AS dev FROM v),
    md AS (SELECT dev AS mad FROM d ORDER BY dev
           LIMIT 1 OFFSET (SELECT (COUNT(*) + 1) // 2 - 1 FROM d))
    SELECT event_id, CAST(dev AS BIGINT) AS dev
    FROM d WHERE dev > 3 * (SELECT mad FROM md)"""

ORACLE_SQL["events_moving_avg"] = f"""
    WITH e AS (SELECT event_id, user_id, ts,
                      CAST(round(value * 100) AS BIGINT) AS u FROM events)
    SELECT event_id,
           CAST(COUNT(*) OVER w AS BIGINT) AS w_n,
           CAST(SUM(u) OVER w AS BIGINT) AS w_sum
    FROM e
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN {MAVG_ROWS - 1} PRECEDING AND CURRENT ROW)"""

ORACLE_SQL["token_cooccurrence"] = f"""
    WITH tok AS (SELECT DISTINCT doc_id, tok
                 FROM (SELECT doc_id,
                              unnest(string_split(text, ' ')) AS tok
                       FROM documents)
                 WHERE tok <> ''),
    r AS (SELECT doc_id, tok,
                 row_number() OVER (PARTITION BY doc_id ORDER BY tok)
                   AS rk
          FROM tok),
    t AS (SELECT doc_id, tok FROM r WHERE rk <= {COOC_CAP}),
    p AS (SELECT a.tok AS tok_a, b.tok AS tok_b
          FROM t a JOIN t b
            ON a.doc_id = b.doc_id AND a.tok < b.tok)
    SELECT tok_a, tok_b, CAST(COUNT(*) AS BIGINT) AS n
    FROM p GROUP BY tok_a, tok_b HAVING COUNT(*) >= {COOC_MIN_COUNT}"""

ORACLE_SQL["jsonl_roundtrip"] = """
    SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(doc_id) AS BIGINT) AS id_sum,
           CAST(SUM(CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT))
             AS BIGINT) AS fold
    FROM documents GROUP BY lang"""

ORACLE_SQL["topk_with_ties"] = f"""
    WITH e AS (SELECT event_id, event_type,
                      CAST(round(value * 100) AS BIGINT) AS v FROM events),
    r AS (SELECT event_id, event_type, v,
                 rank() OVER (PARTITION BY event_type ORDER BY v DESC)
                   AS rk
          FROM e)
    SELECT event_id, event_type, v FROM r WHERE rk <= {TOPK_TIES_K}"""

ORACLE_SQL["session_stats"] = """
    WITH g AS (
      SELECT event_id, user_id, ts,
             date_diff('microsecond',
               lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
               ts) AS gap_us
      FROM events),
    s AS (
      SELECT user_id, ts,
             SUM(CASE WHEN gap_us IS NULL OR gap_us > 1800000000
                      THEN 1 ELSE 0 END)
               OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS UNBOUNDED PRECEDING) - 1 AS session_idx
      FROM g)
    SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(date_diff('microsecond', MIN(ts), MAX(ts)) AS BIGINT)
             AS dur_us
    FROM s GROUP BY user_id, session_idx"""

ORACLE_SQL["events_hopping"] = f"""
    WITH e AS (SELECT user_id, epoch_us(ts) AS t,
                      CAST(round(value * 100) AS BIGINT) AS v FROM events),
    x AS (SELECT user_id,
                 (t // {HOP_US}) * {HOP_US} - i.range * {HOP_US} AS ws,
                 v
          FROM e CROSS JOIN range(0, {HOPPING_SIZE_US // HOP_US}) i)
    SELECT user_id, CAST(ws AS BIGINT) AS ws,
           CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(v) AS BIGINT) AS sum_v
    FROM x WHERE ws >= 0 GROUP BY user_id, ws"""

ORACLE_SQL["dup_degree_hist"] = f"""
    WITH t AS (SELECT doc_id,
                      array_to_string(list_slice(string_split(text, ' '),
                                                 1, {EDIT1_TITLE_TOKENS}),
                                      ' ')
                      || CASE WHEN doc_id % 29 = 0 THEN 'x' ELSE '' END
                        AS title
               FROM documents),
    p AS (SELECT a.doc_id AS da, b.doc_id AS db
          FROM t a JOIN t b
            ON a.doc_id < b.doc_id
           AND abs(len(a.title) - len(b.title)) <= 1
           AND levenshtein(a.title, b.title) <= 1),
    ep AS (SELECT da AS id FROM p UNION ALL SELECT db AS id FROM p),
    d AS (SELECT id, COUNT(*) AS deg FROM ep GROUP BY id)
    SELECT CAST(deg AS BIGINT) AS deg,
           CAST(COUNT(*) AS BIGINT) AS n_nodes
    FROM d GROUP BY deg"""

ORACLE_SQL["funnel_conversions"] = f"""
    WITH c AS (SELECT event_id, user_id, epoch_us(ts) AS t
               FROM events WHERE event_type = 'click'),
    p AS (SELECT user_id, epoch_us(ts) AS t
          FROM events WHERE event_type = 'purchase'),
    f AS (SELECT c.user_id, c.event_id,
                 MAX(CASE WHEN p.t > c.t
                           AND p.t <= c.t + {FUNNEL_WINDOW_US}
                          THEN 1 ELSE 0 END) AS conv
          FROM c LEFT JOIN p ON c.user_id = p.user_id
          GROUP BY c.user_id, c.event_id),
    agg AS (SELECT user_id, COUNT(*) AS n_clicks,
                   SUM(conv) AS n_converted
            FROM f GROUP BY user_id)
    SELECT u.user_id,
           CAST(COALESCE(a.n_clicks, 0) AS BIGINT) AS n_clicks,
           CAST(COALESCE(a.n_converted, 0) AS BIGINT) AS n_converted
    FROM (SELECT DISTINCT user_id FROM events) u
    LEFT JOIN agg a ON u.user_id = a.user_id"""

ORACLE_SQL["events_pivot"] = f"""
    SELECT user_id,
           {", ".join(f'''CAST(SUM(CASE WHEN event_type = '{ty}'
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_{ty}''' for ty in EVENT_TYPES)},
           CAST(SUM(CASE WHEN event_type = 'purchase'
                    THEN CAST(round(value * 100) AS BIGINT)
                    ELSE 0 END) AS BIGINT) AS purchase_cents
    FROM events GROUP BY user_id"""

ORACLE_SQL["top_event_type_per_user"] = """
    WITH c AS (SELECT user_id, event_type, COUNT(*) AS n
               FROM events GROUP BY user_id, event_type),
    r AS (SELECT user_id, event_type, n,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY n DESC, event_type) AS rk
          FROM c)
    SELECT user_id, event_type, CAST(n AS BIGINT) AS n
    FROM r WHERE rk = 1"""

ORACLE_SQL["token_drift"] = """
    WITH newsnap AS (
      SELECT doc_id,
             text || CASE WHEN doc_id % 10 = 0 THEN ' v2' ELSE '' END
               AS text
      FROM documents WHERE doc_id % 17 <> 0
      UNION ALL
      SELECT doc_id + 10000000, text FROM documents
      WHERE doc_id % 25 = 0),
    b AS (SELECT tok, COUNT(*) AS n
          FROM (SELECT unnest(string_split(text, ' ')) AS tok
                FROM documents)
          WHERE tok <> '' GROUP BY tok),
    nn AS (SELECT tok, COUNT(*) AS n
           FROM (SELECT unnest(string_split(text, ' ')) AS tok
                 FROM newsnap)
           WHERE tok <> '' GROUP BY tok)
    SELECT COALESCE(b.tok, nn.tok) AS tok,
           CAST(COALESCE(b.n, 0) AS BIGINT) AS n_base,
           CAST(COALESCE(nn.n, 0) AS BIGINT) AS n_new,
           CAST(COALESCE(nn.n, 0) - COALESCE(b.n, 0) AS BIGINT) AS delta
    FROM b FULL OUTER JOIN nn ON b.tok = nn.tok
    WHERE COALESCE(b.n, 0) <> COALESCE(nn.n, 0)"""

ORACLE_SQL["dedup_edit2"] = f"""
    WITH t AS (SELECT doc_id,
                      array_to_string(list_slice(string_split(text, ' '),
                                                 1, {EDIT1_TITLE_TOKENS}),
                                      ' ')
                      || CASE WHEN doc_id % 31 = 0 THEN 'qq'
                              WHEN doc_id % 29 = 0 THEN 'x'
                              ELSE '' END AS title
               FROM documents)
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(levenshtein(a.title, b.title) AS BIGINT) AS dist
    FROM t a JOIN t b
      ON a.doc_id < b.doc_id
     AND abs(len(a.title) - len(b.title)) <= 2
     AND levenshtein(a.title, b.title) <= 2"""

# rank rule ceil(q*n) stated as ORDER BY/OFFSET, matching
# exact_order_statistic's 1-based k exactly
ORACLE_SQL["winsorize_values"] = f"""
    WITH v AS (SELECT event_id,
                      CAST(round(value * 100) AS BIGINT) AS u FROM events),
    n AS (SELECT COUNT(*) AS n FROM v),
    lo AS (SELECT u AS lo FROM v ORDER BY u LIMIT 1 OFFSET
           (SELECT greatest((n * {WINSOR_Q[0]} + {WINSOR_Q[1]} - 1)
                            // {WINSOR_Q[1]}, 1) - 1 FROM n)),
    hi AS (SELECT u AS hi FROM v ORDER BY u LIMIT 1 OFFSET
           (SELECT greatest((n * {WINSOR_Q[1] - WINSOR_Q[0]}
                             + {WINSOR_Q[1]} - 1)
                            // {WINSOR_Q[1]}, 1) - 1 FROM n))
    SELECT event_id, u AS v,
           CAST(least(greatest(u, (SELECT lo FROM lo)),
                      (SELECT hi FROM hi)) AS BIGINT) AS v_clip
    FROM v"""

ORACLE_SQL["self_join_size_by_user"] = """
    WITH j AS (SELECT COUNT(*) AS n_pairs
               FROM events a JOIN events b ON a.user_id = b.user_id),
    m AS (SELECT MAX(c * c) AS max_key_sq
          FROM (SELECT COUNT(*) AS c FROM events GROUP BY user_id))
    SELECT CAST(j.n_pairs AS BIGINT) AS n_pairs,
           CAST(m.max_key_sq AS BIGINT) AS max_key_sq
    FROM j, m"""

ORACLE_SQL["doc_skyline"] = """
    WITH d AS (SELECT doc_id,
                      CAST(len(string_split(text, ' ')) AS BIGINT) AS nt,
                      CAST(len(list_distinct(string_split(text, ' ')))
                        AS BIGINT) AS nd
               FROM documents)
    SELECT doc_id, nt, nd FROM d a
    WHERE NOT EXISTS (
        SELECT 1 FROM d b
        WHERE b.nt >= a.nt AND b.nd >= a.nd
          AND (b.nt > a.nt OR b.nd > a.nd))"""

ORACLE_SQL["grouped_mad"] = """
    WITH v AS (SELECT event_type,
                      CAST(round(value * 100) AS BIGINT) AS u FROM events),
    r AS (SELECT event_type, u,
                 row_number() OVER (PARTITION BY event_type ORDER BY u)
                   AS rk,
                 COUNT(*) OVER (PARTITION BY event_type) AS n
          FROM v),
    m AS (SELECT event_type, u AS med FROM r WHERE rk = (n + 1) // 2),
    d AS (SELECT v.event_type, abs(v.u - m.med) AS dv
          FROM v JOIN m USING (event_type)),
    r2 AS (SELECT event_type, dv,
                  row_number() OVER (PARTITION BY event_type ORDER BY dv)
                    AS rk,
                  COUNT(*) OVER (PARTITION BY event_type) AS n
           FROM d),
    md AS (SELECT event_type, dv AS mad FROM r2 WHERE rk = (n + 1) // 2)
    SELECT m.event_type, CAST(m.med AS BIGINT) AS med,
           CAST(md.mad AS BIGINT) AS mad
    FROM m JOIN md USING (event_type)"""

# serial direct-call replay of the three multimodal kernels, cached by
# source fingerprint + tier (the _mm_payload_oracle_sql mechanism)
def _mm_kernel_checksums(tier: str = "correctness") -> dict:
    fp = fixtures.source_fingerprint(fixtures, multimodal, extractors)
    return json_cache(f"{fp}_{tier}_mm_kernels.json",
                      lambda: _mm_kernel_rows(tier))


def _mm_kernel_rows(tier: str) -> dict:
    refs, kinds, payloads = [], [], []
    for i in range(fixtures.TIERS[tier]):
        d = fixtures.gen_doc_row(fixtures.DEFAULT_SEED, i)
        for s in d["spans"]:
            if s["kind"] in ("pdf", "image"):
                refs.append(s["media_ref"])
                kinds.append(s["kind"])
                payloads.append(fixtures.media_store(s["media_ref"],
                                                     fixtures.DEFAULT_SEED))
    t = pa.table({"media_ref": pa.array(refs, type=pa.string()),
                  "kind": pa.array(kinds, type=pa.string()),
                  "payload": pa.array(payloads, type=pa.binary())})

    def by_kind(rows):
        acc: dict = {}
        for r in rows:
            k = r.pop("kind")
            a = acc.setdefault(k, {c: 0 for c in r})
            for c, v in r.items():
                a[c] += v
        return [{"kind": k, **v} for k, v in sorted(acc.items())]

    ft = multimodal.MediaFeaturizer(feature_dim=8)(t)
    feat_rows = by_kind([
        {"kind": k, "n": 1, "pages": int(p), "runs": int(r),
         "tbytes": int(tb), "ffold": _feat_fold(f),
         "errs": int(e != "")}
        for k, p, r, tb, f, e in zip(
            ft.column("kind").to_pylist(), ft.column("n_pages").to_pylist(),
            ft.column("n_runs").to_pylist(),
            ft.column("text_bytes").to_pylist(),
            ft.column("features").to_pylist(),
            ft.column("error").to_pylist())])

    st = multimodal.frame_sample_table(t, 2)
    frame_rows = by_kind([
        {"kind": k, "n": 1, "pidx": int(p),
         "bfold": int(hashlib.md5(b).hexdigest()[:8], 16)}
        for k, p, b in zip(st.column("kind").to_pylist(),
                           st.column("page_idx").to_pylist(),
                           st.column("payload").to_pylist())])

    rt = multimodal.MediaResizer(factor=2, max_runs=4)(t)
    rz_rows = by_kind([
        {"kind": k, "n": 1, "ob": int(ob), "rb": int(rb),
         "pfold": int(hashlib.md5(b).hexdigest()[:8], 16),
         "errs": int(e != "")}
        for k, ob, rb, b, e in zip(
            rt.column("kind").to_pylist(),
            rt.column("orig_bytes").to_pylist(),
            rt.column("resized_bytes").to_pylist(),
            rt.column("payload").to_pylist(),
            rt.column("error").to_pylist())])

    return {"featurize": feat_rows, "frame": frame_rows, "resize": rz_rows}


def _values_sql(rows: list, cols: list) -> str:
    def lit(v):
        return f"'{v}'" if isinstance(v, str) else str(v)
    vals = ", ".join(
        "(" + ", ".join(lit(r[c]) for c in cols) + ")" for r in rows)
    casts = ", ".join(
        c if c == "kind" else f"CAST({c} AS BIGINT) AS {c}" for c in cols)
    return (f"SELECT {casts} FROM (VALUES {vals}) "
            f"AS t({', '.join(cols)})")


def _mm_featurize_checksum_oracle_sql(tier: str = "correctness") -> str:
    return _values_sql(_mm_kernel_checksums(tier)["featurize"],
                       ["kind", "n", "pages", "runs", "tbytes", "ffold",
                        "errs"])


def _mm_frame_sample_checksum_oracle_sql(tier: str = "correctness") -> str:
    return _values_sql(_mm_kernel_checksums(tier)["frame"],
                       ["kind", "n", "pidx", "bfold"])


def _mm_resize_checksum_oracle_sql(tier: str = "correctness") -> str:
    return _values_sql(_mm_kernel_checksums(tier)["resize"],
                       ["kind", "n", "ob", "rb", "pfold", "errs"])


QUERIES["mm_featurize_checksum"] = mm_featurize_checksum
QUERIES["mm_frame_sample_checksum"] = mm_frame_sample_checksum
QUERIES["mm_resize_checksum"] = mm_resize_checksum
ORACLE_SQL["mm_featurize_checksum"] = \
    _mm_featurize_checksum_oracle_sql("correctness")
ORACLE_SQL["mm_frame_sample_checksum"] = \
    _mm_frame_sample_checksum_oracle_sql("correctness")
ORACLE_SQL["mm_resize_checksum"] = \
    _mm_resize_checksum_oracle_sql("correctness")
TIER_ORACLE_BUILDERS["mm_featurize_checksum"] = \
    _mm_featurize_checksum_oracle_sql
TIER_ORACLE_BUILDERS["mm_frame_sample_checksum"] = \
    _mm_frame_sample_checksum_oracle_sql
TIER_ORACLE_BUILDERS["mm_resize_checksum"] = \
    _mm_resize_checksum_oracle_sql

ORACLE_SQL["retention_cohorts"] = f"""
    WITH d AS (SELECT user_id, epoch_us(ts) // {DAY_US} AS day
               FROM events),
    f AS (SELECT user_id, MIN(day) AS cohort FROM d GROUP BY user_id),
    a AS (SELECT DISTINCT d.user_id, f.cohort, d.day - f.cohort AS off
          FROM d JOIN f USING (user_id))
    SELECT CAST(cohort AS BIGINT) AS cohort, CAST(off AS BIGINT) AS off,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM a GROUP BY cohort, off"""

ORACLE_SQL["events_interval_join_count"] = f"""
    WITH p AS (
      SELECT a.user_id, COUNT(*) AS n
      FROM events a JOIN events b
        ON a.user_id = b.user_id
       AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
       AND epoch_us(b.ts) <= epoch_us(a.ts) + {INTERVAL_JOIN_US}
      GROUP BY a.user_id)
    SELECT u.user_id, CAST(COALESCE(p.n, 0) AS BIGINT) AS n_pairs
    FROM (SELECT DISTINCT user_id FROM events) u
    LEFT JOIN p ON u.user_id = p.user_id"""

ORACLE_SQL["events_unpivot"] = """
    WITH w AS (SELECT user_id,
""" + ",\n".join(
    f"""               CAST(SUM(CASE WHEN event_type = '{ty}'
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_{ty}"""
    for ty in EVENT_TYPES) + """,
               CAST(SUM(CASE WHEN event_type = 'purchase'
                        THEN CAST(round(value * 100) AS BIGINT)
                        ELSE 0 END) AS BIGINT) AS purchase_cents
        FROM events GROUP BY user_id)
    """ + "\n    UNION ALL\n    ".join(
    f"SELECT user_id, '{m}' AS metric, {m} AS value FROM w"
    for m in [f"n_{ty}" for ty in EVENT_TYPES] + ["purchase_cents"])

ORACLE_SQL["events_profile"] = _events_profile_oracle_sql()

# derived-column expression trees below mirror events_regression's
# derive() term for term (double casts first, then the identical
# mul/sub/div/sqrt order) so both sides produce bit-identical doubles
# from the same exact integer sums
ORACLE_SQL["events_regression"] = """
    WITH b AS (
      SELECT event_type,
             CAST(epoch_us(ts) AS BIGINT) // 1000000 % 86400 AS x,
             CAST(round(value * 100) AS BIGINT) AS y
      FROM events),
    s AS (
      SELECT event_type,
             CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
             CAST(SUM(x * x) AS BIGINT) AS sxx,
             CAST(SUM(x * y) AS BIGINT) AS sxy,
             CAST(SUM(y * y) AS BIGINT) AS syy
      FROM b GROUP BY event_type),
    d AS (
      SELECT *,
             CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
               - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE) AS covn,
             CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
               - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE) AS varx,
             CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
               - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE) AS vary
      FROM s)
    SELECT event_type, n, sx, sy, sxx, sxy, syy,
           CAST(CASE WHEN varx > 0
                THEN FLOOR(1000000.0 * covn / varx) ELSE 0 END
             AS BIGINT) AS slope_micro,
           CAST(CASE WHEN varx > 0
                THEN FLOOR(1000000.0
                           * (CAST(sy AS DOUBLE) * CAST(sxx AS DOUBLE)
                              - CAST(sx AS DOUBLE) * CAST(sxy AS DOUBLE))
                           / varx)
                ELSE 0 END AS BIGINT) AS icept_micro,
           CAST(CASE WHEN varx * vary > 0
                THEN FLOOR(1000000.0 * covn / sqrt(varx * vary))
                ELSE 0 END AS BIGINT) AS corr_micro
    FROM d"""

ORACLE_SQL["rrf_fusion"] = _rrf_fusion_oracle_sql()
ORACLE_SQL["kcore_dups"] = _kcore_oracle_sql()
ORACLE_SQL["kmeans_embeddings"] = _kmeans_oracle_sql()
ORACLE_SQL["kmeans_cluster_stats"] = f"""
    SELECT cluster, CAST(COUNT(*) AS BIGINT) AS n_members,
           CAST(SUM(dist2) AS BIGINT) AS inertia
    FROM ({_kmeans_oracle_sql()})
    GROUP BY cluster"""

ORACLE_SQL["events_ks_drift"] = """
    WITH b AS (
      SELECT epoch_us(ts) AS t,
             CAST(round(value * 100) AS BIGINT) AS cents
      FROM events),
    m AS (SELECT (MIN(t) + MAX(t)) // 2 AS mid FROM b),
    h AS (
      SELECT CASE WHEN t > (SELECT mid FROM m) THEN 1 ELSE 0 END
               AS half,
             cents, CAST(COUNT(*) AS BIGINT) AS c
      FROM b GROUP BY 1, 2),
    g AS (
      SELECT cents,
             SUM(CASE WHEN half = 0 THEN c ELSE 0 END) AS c1,
             SUM(CASE WHEN half = 1 THEN c ELSE 0 END) AS c2
      FROM h GROUP BY cents),
    w AS (
      SELECT cents,
             SUM(c1) OVER (ORDER BY cents) AS f1,
             SUM(c2) OVER (ORDER BY cents) AS f2,
             SUM(c1) OVER () AS n1, SUM(c2) OVER () AS n2
      FROM g),
    d AS (SELECT cents, ABS(f1 * n2 - f2 * n1) AS diff, n1, n2 FROM w),
    k AS (SELECT *, row_number() OVER (ORDER BY diff DESC, cents) AS rn
          FROM d)
    SELECT CAST(n1 AS BIGINT) AS n_first,
           CAST(n2 AS BIGINT) AS n_second,
           CAST((1000000 * diff) // (n1 * n2) AS BIGINT) AS ks_ppm,
           CAST(cents AS BIGINT) AS at_cents
    FROM k WHERE rn = 1"""

ORACLE_SQL["user_rfm"] = f"""
    WITH b AS (
      SELECT user_id, epoch_us(ts) AS t,
             CAST(round(value * 100) AS BIGINT) AS cents
      FROM events),
    rfm AS (
      SELECT user_id, CAST(MAX(t) AS BIGINT) AS recency_us,
             CAST(COUNT(*) AS BIGINT) AS frequency,
             CAST(SUM(cents) AS BIGINT) AS monetary_cents
      FROM b GROUP BY user_id),
    t AS (
      SELECT *,
             CAST(NTILE({RFM_TILES}) OVER (ORDER BY recency_us DESC,
                                           user_id) AS BIGINT) AS r_tile,
             CAST(NTILE({RFM_TILES}) OVER (ORDER BY frequency DESC,
                                           user_id) AS BIGINT) AS f_tile,
             CAST(NTILE({RFM_TILES}) OVER (ORDER BY monetary_cents DESC,
                                           user_id) AS BIGINT) AS m_tile
      FROM rfm)
    SELECT user_id, recency_us, frequency, monetary_cents,
           r_tile, f_tile, m_tile,
           CAST(100 * r_tile + 10 * f_tile + m_tile AS BIGINT)
             AS segment
    FROM t"""

ORACLE_SQL["dup_source_matrix"] = """
    WITH d AS (SELECT doc_id, source,
                      md5(array_to_string(
                        string_split(text, ' ')[1:4], ' ')) AS h
               FROM documents),
    p AS (SELECT a.source AS sa, b.source AS sb
          FROM d a JOIN d b ON a.h = b.h AND a.doc_id < b.doc_id)
    SELECT LEAST(sa, sb) AS source_a, GREATEST(sa, sb) AS source_b,
           CAST(COUNT(*) AS BIGINT) AS n_pairs
    FROM p GROUP BY 1, 2"""

ORACLE_SQL["csv_roundtrip"] = """
    SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(doc_id) AS BIGINT) AS id_sum,
           CAST(SUM(CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT))
             AS BIGINT) AS fold
    FROM documents GROUP BY lang"""

ORACLE_SQL["token_pmi"] = f"""
    WITH t AS (SELECT string_split(text, ' ') AS toks FROM documents),
    bg AS (
      SELECT toks[i + 1] AS tok_a, toks[i + 2] AS tok_b
      FROM (SELECT toks, unnest(range(0, len(toks) - 1)) AS i
            FROM t WHERE len(toks) >= 2)),
    pair AS (SELECT tok_a, tok_b, CAST(COUNT(*) AS BIGINT) AS c_xy
             FROM bg GROUP BY tok_a, tok_b),
    b AS (SELECT COUNT(*) AS btot FROM bg),
    uni AS (
      SELECT tok, CAST(COUNT(*) AS BIGINT) AS c
      FROM (SELECT tok_a AS tok FROM bg
            UNION ALL SELECT tok_b FROM bg)
      GROUP BY tok),
    r AS (
      SELECT p.tok_a, p.tok_b, p.c_xy, ua.c AS c_x, ub.c AS c_y,
             CAST((1000000 * b.btot * p.c_xy) // (ua.c * ub.c)
               AS BIGINT) AS ratio_ppm
      FROM pair p
      CROSS JOIN b
      JOIN uni ua ON ua.tok = p.tok_a
      JOIN uni ub ON ub.tok = p.tok_b
      WHERE p.c_xy >= {PMI_MIN_COUNT}),
    k AS (SELECT *, row_number() OVER (ORDER BY ratio_ppm DESC,
                                       tok_a, tok_b) AS rank
          FROM r)
    SELECT tok_a, tok_b, c_xy, c_x, c_y, ratio_ppm,
           CAST(rank AS BIGINT) AS rank
    FROM k WHERE rank <= {PMI_TOP_K}"""

# LAG over (user, event-time) order; ratio is a floor division of
# non-negative integers, safe for DuckDB //
ORACLE_SQL["event_transitions"] = """
    WITH o AS (
      SELECT user_id, event_type,
             LAG(event_type) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS prev_type
      FROM events),
    c AS (
      SELECT prev_type, event_type, CAST(COUNT(*) AS BIGINT) AS n
      FROM o WHERE prev_type IS NOT NULL
      GROUP BY prev_type, event_type),
    w AS (
      SELECT prev_type, event_type, n,
             SUM(n) OVER (PARTITION BY prev_type) AS row_total
      FROM c)
    SELECT prev_type, event_type, n,
           CAST(row_total AS BIGINT) AS row_total,
           CAST((1000000 * n) // row_total AS BIGINT) AS p_ppm
    FROM w"""

# num is non-negative (ascending-sorted formulation), so the final //
# agrees between DuckDB (truncating) and python (floor); the per-term
# c*(c+1)//2 is an exact division
ORACLE_SQL["length_gini_by_lang"] = """
    WITH lens AS (
      SELECT lang, CAST(len(string_split(text, ' ')) AS BIGINT) AS v
      FROM documents),
    cnt AS (SELECT lang, v, CAST(COUNT(*) AS BIGINT) AS c
            FROM lens GROUP BY lang, v),
    w AS (
      SELECT lang, v, c,
             COALESCE(SUM(c) OVER (
               PARTITION BY lang ORDER BY v
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS f,
             SUM(c) OVER (PARTITION BY lang) AS n,
             SUM(c * v) OVER (PARTITION BY lang) AS s
      FROM cnt),
    g AS (
      SELECT lang, MAX(n) AS n, MAX(s) AS s,
             SUM(v * (2 * (c * f + c * (c + 1) // 2) - c * (n + 1)))
               AS num
      FROM w GROUP BY lang)
    SELECT lang, CAST(n AS BIGINT) AS n_docs,
           CAST(s AS BIGINT) AS sum_len,
           CAST((1000000 * num) // (n * s) AS BIGINT) AS gini_ppm
    FROM g"""

ORACLE_SQL["source_overlap_jaccard"] = """
    WITH tok AS (
      SELECT DISTINCT source, token
      FROM (SELECT source, unnest(string_split(text, ' ')) AS token
            FROM documents)),
    sz AS (SELECT source, COUNT(*) AS n FROM tok GROUP BY source),
    i AS (
      SELECT a.source AS source_a, b.source AS source_b,
             CAST(COUNT(*) AS BIGINT) AS inter
      FROM tok a JOIN tok b
        ON a.token = b.token AND a.source < b.source
      GROUP BY 1, 2)
    SELECT source_a, source_b, inter,
           CAST(sa.n AS BIGINT) AS n_a, CAST(sb.n AS BIGINT) AS n_b,
           CAST((1000000 * inter) // (sa.n + sb.n - inter) AS BIGINT)
             AS jaccard_ppm
    FROM i
    JOIN sz sa ON sa.source = i.source_a
    JOIN sz sb ON sb.source = i.source_b"""

ORACLE_SQL["lexical_stats_by_source"] = """
    WITH tok AS (
      SELECT source, unnest(string_split(text, ' ')) AS token
      FROM documents),
    per_type AS (
      SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c
      FROM tok GROUP BY source, token),
    s AS (
      SELECT source, SUM(c) AS n_tokens, COUNT(*) AS n_types,
             SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS n_hapax
      FROM per_type GROUP BY source)
    SELECT source, CAST(n_tokens AS BIGINT) AS n_tokens,
           CAST(n_types AS BIGINT) AS n_types,
           CAST(n_hapax AS BIGINT) AS n_hapax,
           CAST((1000000 * n_types) // n_tokens AS BIGINT) AS ttr_ppm,
           CAST((1000000 * n_hapax) // n_types AS BIGINT) AS hapax_ppm
    FROM s"""

# expression tree mirrors lang_source_chi2: e = (r*c)/n then
# floor(1e6 * ((dev*dev)/e)), association order identical
ORACLE_SQL["lang_source_chi2"] = """
    WITH cells AS (
      SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS o
      FROM documents GROUP BY lang, source),
    m AS (
      SELECT lang, source, o,
             SUM(o) OVER (PARTITION BY lang) AS r_tot,
             SUM(o) OVER (PARTITION BY source) AS c_tot,
             SUM(o) OVER () AS n
      FROM cells),
    d AS (
      SELECT lang, source, o, r_tot, c_tot,
             CAST(o AS DOUBLE)
               - CAST(r_tot AS DOUBLE) * CAST(c_tot AS DOUBLE)
                 / CAST(n AS DOUBLE) AS dev,
             CAST(r_tot AS DOUBLE) * CAST(c_tot AS DOUBLE)
               / CAST(n AS DOUBLE) AS e
      FROM m)
    SELECT lang, source, o, CAST(r_tot AS BIGINT) AS r_tot,
           CAST(c_tot AS BIGINT) AS c_tot,
           CAST(FLOOR(1000000.0 * ((dev * dev) / e)) AS BIGINT)
             AS cell_chi2_micro
    FROM d"""

ORACLE_SQL["triangle_degree"] = """
    WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks
               FROM documents),
    c AS (SELECT doc_id, md5(array_to_string(toks[10*i+1:10*i+10], ' '))
                   AS ch
          FROM (SELECT doc_id, toks,
                       unnest(range(0, len(toks) // 10)) AS i
                FROM t)),
    d AS (SELECT DISTINCT doc_id, ch FROM c),
    e AS (SELECT DISTINCT a.doc_id AS a, b.doc_id AS b
          FROM d a JOIN d b ON a.ch = b.ch AND a.doc_id < b.doc_id),
    tri AS (SELECT e1.a, e1.b, e2.b AS c FROM e e1
            JOIN e e2 ON e1.b = e2.a
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b),
    n AS (SELECT a AS doc_id FROM tri
          UNION ALL SELECT b FROM tri
          UNION ALL SELECT c FROM tri)
    SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_triangles
    FROM n GROUP BY doc_id"""

ORACLE_SQL["user_diversity"] = """
    WITH c AS (
      SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS c
      FROM events GROUP BY user_id, event_type),
    u AS (
      SELECT user_id, SUM(c) AS n, SUM(c * c) AS sc2, COUNT(*) AS k
      FROM c GROUP BY user_id)
    SELECT user_id, CAST(n AS BIGINT) AS n_events,
           CAST(k AS BIGINT) AS n_types,
           CAST((1000000 * (n * n - sc2)) // (n * n) AS BIGINT)
             AS simpson_ppm
    FROM u"""


# --------------------------------------------------- round-4 third batch
# (continuation session: embedding compression, vocabulary coverage,
# inter-arrival burstiness, bipartite HITS — each exact-oracle)

#: shared by engine and oracle: the embedding milli-quantization used by
#: embedding_moments / kmeans_embeddings (np.round vs SQL ROUND with the
#: documented no-.5-ties fixture assumption) and the int8 code range
EQ_SCALE = 1000
EQ_LEVELS = 127


def embedding_quantize(sf_dir: str) -> rd.Dataset:
    """Scalar int8 quantization of the embedding table — the 4x
    compression step a 100 TB vector corpus applies before ANN serving
    (store codes + one per-dimension scale, not float32). Per-dimension
    symmetric max-abs codes: code = sign(q) * (|q| * 127 // qmax_dim)
    over the shared milli-quantized q (EQ_SCALE, the embedding_moments
    treatment), reconstruction recon = sign(code) * (|code| * qmax_dim
    // 127). EXACT: after the one shared ROUND, everything is integer
    floor-division on NON-NEGATIVE magnitudes (sign split keeps DuckDB's
    truncating // identical to numpy's floor //). Distribution shape:
    pass 1 tree-merges the per-dimension |q| max as a (dim, m) partial
    (one 64-row table per block, combiner-first); the d-entry scale
    table broadcasts once, held by the codes map; pass 2 streams codes
    and emits
    per-vector audit sums — at production scale it would write the int8
    code column itself, same plumbing. Returns
    (vec_id, code_sum, code_l1, sse_q)."""
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    def qstack(df: pd.DataFrame) -> np.ndarray:
        # away-from-zero rounding = DuckDB ROUND exactly (the
        # embedding_moments convention; np.round's banker's rounding
        # would diverge on values landing on .5 after scaling)
        p = (np.stack(df["embedding"].to_numpy()).astype(np.float64)
             * EQ_SCALE)
        return (np.sign(p) * np.floor(np.abs(p) + 0.5)).astype(np.int64)

    def dim_max(df: pd.DataFrame) -> pd.DataFrame:
        q = qstack(df)
        return pd.DataFrame({
            "i": np.arange(q.shape[1], dtype=np.int64),
            "m": np.abs(q).max(axis=0).astype(np.int64)})

    mx = partial_aggregate(
        emb.map_batches(dim_max, batch_format="pandas"),
        ["i"], {"m": ("max", "m")}).to_pandas()
    m = np.zeros(int(mx["i"].max()) + 1, dtype=np.int64)
    m[mx["i"].to_numpy()] = mx["m"].to_numpy()

    def codes(df: pd.DataFrame) -> pd.DataFrame:
        q = qstack(df)
        sgn = np.sign(q)
        aq = np.abs(q)
        safe = np.where(m == 0, 1, m)
        code = np.where(m == 0, 0, sgn * ((aq * EQ_LEVELS) // safe))
        recon = np.sign(code) * ((np.abs(code) * m) // EQ_LEVELS)
        err = q - recon
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64).to_numpy(),
            "code_sum": code.sum(axis=1).astype(np.int64),
            "code_l1": np.abs(code).sum(axis=1).astype(np.int64),
            "sse_q": (err * err).sum(axis=1).astype(np.int64)})

    return emb.map_batches(codes, batch_format="pandas")


QUERIES["embedding_quantize"] = embedding_quantize
ORACLE_SQL["embedding_quantize"] = f"""
    WITH e AS (
      SELECT vec_id, CAST(i - 1 AS BIGINT) AS i,
             CAST(ROUND(CAST(x AS DOUBLE) * {EQ_SCALE}) AS BIGINT) AS q
      FROM (SELECT vec_id, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings)),
    mx AS (SELECT i, MAX(ABS(q)) AS m FROM e GROUP BY i),
    c AS (SELECT vec_id, q, m,
                 CASE WHEN m = 0 THEN 0
                      WHEN q >= 0 THEN (q * {EQ_LEVELS}) // m
                      ELSE -((-q * {EQ_LEVELS}) // m) END AS code
          FROM e JOIN mx USING (i)),
    r AS (SELECT vec_id, code, q,
                 CASE WHEN code >= 0 THEN (code * m) // {EQ_LEVELS}
                      ELSE -((-code * m) // {EQ_LEVELS}) END AS recon
          FROM c)
    SELECT vec_id, CAST(SUM(code) AS BIGINT) AS code_sum,
           CAST(SUM(ABS(code)) AS BIGINT) AS code_l1,
           CAST(SUM((q - recon) * (q - recon)) AS BIGINT) AS sse_q
    FROM r GROUP BY vec_id"""


#: coverage target shared with the oracle: the smallest head vocabulary
#: whose cumulative token mass reaches 90% of each language's corpus
VC_NUM, VC_DEN = 9, 10


def vocab_coverage_by_lang(sf_dir: str) -> rd.Dataset:
    """Per-language head-vocabulary size covering 90% of token mass —
    the Zipf-head statistic that sizes a tokenizer / vocabulary per
    language before BPE training. EXACT without ranking token
    identities: order tokens by count desc and the k-th token's
    contribution depends only on the (count value, #tokens-at-count)
    histogram, so n_tokens_90 = full-count-classes + a ceil division at
    the boundary class — tie-invariant, all-integer. Distribution
    shape: (lang, token) counts via the bucketed combiner; the count
    HISTOGRAM (lang, c, m) collapses that to |langs| x |distinct count
    values| rows (the exact_median boundedness argument) and the fold
    runs per-lang in one exchange over the sketch-sized table. Returns
    (lang, total_tokens, vocab_size, n_tokens_90, boundary_count)."""
    docs = rp(sf_dir, "documents", ["lang", "text"])

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split(" ")
        n = s.map(len).to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "lang": np.repeat(df["lang"].to_numpy(), n),
            "token": np.concatenate(s.to_numpy())})

    tf = partial_aggregate(
        docs.map_batches(toks, batch_format="pandas")
        .map_batches(lambda df: df[df["token"] != ""],
                     batch_format="pandas"),
        ["lang", "token"], {"c": ("count", None)})
    hist = partial_aggregate(
        tf.map_batches(lambda df: df[["lang", "c"]],
                       batch_format="pandas"),
        ["lang", "c"], {"m": ("count", None)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("c", ascending=False, ignore_index=True)
        c = df["c"].to_numpy(dtype=np.int64)
        m = df["m"].to_numpy(dtype=np.int64)
        total = int((c * m).sum())
        vocab = int(m.sum())
        s = (VC_NUM * total + VC_DEN - 1) // VC_DEN
        cum = np.cumsum(c * m)
        ntok = np.cumsum(m)
        b = int(np.argmax(cum >= s))     # first class reaching s
        before = int(cum[b]) - int(c[b]) * int(m[b])
        n90 = int(ntok[b]) - int(m[b]) \
            + (s - before + int(c[b]) - 1) // int(c[b])
        return pd.DataFrame({
            "lang": [df["lang"].iloc[0]],
            "total_tokens": np.array([total], dtype=np.int64),
            "vocab_size": np.array([vocab], dtype=np.int64),
            "n_tokens_90": np.array([n90], dtype=np.int64),
            "boundary_count": np.array([int(c[b])], dtype=np.int64)})

    return exchange(hist, "lang", per_key("lang", fold))


QUERIES["vocab_coverage_by_lang"] = vocab_coverage_by_lang
ORACLE_SQL["vocab_coverage_by_lang"] = f"""
    WITH toks AS (
      SELECT lang, unnest(string_split(text, ' ')) AS token
      FROM documents),
    tf AS (SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS c
           FROM toks WHERE token <> '' GROUP BY lang, token),
    hist AS (SELECT lang, c, CAST(COUNT(*) AS BIGINT) AS m
             FROM tf GROUP BY lang, c),
    tot AS (SELECT lang, SUM(c * m) AS total, SUM(m) AS vocab
            FROM hist GROUP BY lang),
    w AS (SELECT h.lang, h.c, h.m, t.total, t.vocab,
                 SUM(h.c * h.m) OVER (PARTITION BY h.lang
                                      ORDER BY h.c DESC) AS cum,
                 SUM(h.m) OVER (PARTITION BY h.lang
                                ORDER BY h.c DESC) AS ntok,
                 ({VC_NUM} * t.total + {VC_DEN} - 1) // {VC_DEN} AS s
          FROM hist h JOIN tot t USING (lang)),
    bnd AS (SELECT *, row_number() OVER (PARTITION BY lang
                                         ORDER BY c DESC) AS rn
            FROM w WHERE cum >= s)
    SELECT lang, CAST(total AS BIGINT) AS total_tokens,
           CAST(vocab AS BIGINT) AS vocab_size,
           CAST(ntok - m + (s - (cum - c * m) + c - 1) // c AS BIGINT)
             AS n_tokens_90,
           CAST(c AS BIGINT) AS boundary_count
    FROM bnd WHERE rn = 1"""


def user_burstiness(sf_dir: str) -> rd.Dataset:
    """Per-user burstiness B = (sigma - mu) / (sigma + mu) of
    inter-event gaps (Goh & Barabasi's measure: -1 = periodic, 0 =
    Poisson, +1 = maximally bursty) — the temporal-pattern feature that
    separates bots (periodic) from humans (bursty) in a training-data
    user filter. Exactness: gaps are integer seconds (floor of the
    microsecond delta); the per-user sufficient statistics
    (n, sum g, sum g^2) are exact int64; sigma and mu share the
    denominator n so B = (sqrt(D) - s1) / (sqrt(D) + s1) with
    D = n*s2 - s1^2 — IEEE sqrt of an integer is correctly rounded, and
    the engine mirrors the oracle's double-op sequence token for token,
    so the floored ppm agrees bit-for-bit. Degenerate branch pinned in
    tests: D = 0 and s1 = 0 (all gaps zero) emits 0. Shape: per-user
    ordered-log buckets (_bucketed_by_user) emit only the three
    sufficient statistics per user. Returns users with >= 2 events:
    (user_id, n_gaps, sum_gap_s, burst_ppm)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        # gaps subtract in int64: epoch-µs values exceed float64's
        # exact-integer range, so a float path would corrupt the gap
        prev = df.groupby("user_id")["ts"].shift()
        mask = prev.notna().to_numpy()
        gap_us = (df["ts"].astype("int64").to_numpy()[mask]
                  - prev[mask].astype("int64").to_numpy())
        g64 = gap_us // 1_000_000
        agg = (pd.DataFrame({"user_id": df["user_id"].to_numpy()[mask],
                             "g": g64, "g2": g64 * g64})
               .groupby("user_id", as_index=False)
               .agg(n_gaps=("g", "size"), s1=("g", "sum"),
                    s2=("g2", "sum")))
        if agg.empty:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "n_gaps": pd.Series(dtype=np.int64),
                                 "sum_gap_s": pd.Series(dtype=np.int64),
                                 "burst_ppm": pd.Series(dtype=np.int64)})
        n = agg["n_gaps"].to_numpy(dtype=np.int64)
        s1 = agg["s1"].to_numpy(dtype=np.int64)
        s2 = agg["s2"].to_numpy(dtype=np.int64)
        d = (n * s2 - s1 * s1).astype(np.float64)
        sd = np.sqrt(d)
        s1f = s1.astype(np.float64)
        denom = sd + s1f
        ppm = np.where(denom == 0.0, 0.0,
                       np.floor(1_000_000 * (sd - s1f) / denom))
        return pd.DataFrame({
            "user_id": agg["user_id"].astype(np.int64),
            "n_gaps": n, "sum_gap_s": s1,
            "burst_ppm": ppm.astype(np.int64)})

    return _bucketed_by_user(ev, fn)


QUERIES["user_burstiness"] = user_burstiness
ORACLE_SQL["user_burstiness"] = """
    WITH g AS (
      SELECT user_id,
             (epoch_us(ts) - lag(epoch_us(ts)) OVER (
                PARTITION BY user_id ORDER BY ts, event_id))
               // 1000000 AS gs
      FROM events),
    a AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
                 CAST(SUM(gs) AS BIGINT) AS s1,
                 CAST(SUM(gs * gs) AS BIGINT) AS s2
          FROM g WHERE gs IS NOT NULL GROUP BY user_id)
    SELECT user_id, n AS n_gaps, s1 AS sum_gap_s,
           CAST(CASE WHEN sqrt(n * s2 - s1 * s1) + s1 = 0 THEN 0
                ELSE FLOOR(1000000 * (sqrt(n * s2 - s1 * s1) - s1)
                           / (sqrt(n * s2 - s1 * s1) + s1))
                END AS BIGINT) AS burst_ppm
    FROM a"""


#: HITS fixed-point geometry shared with the generated oracle
HITS_ROUNDS = 3
HITS_UNIT = 1_000_000


def hits_user_event(sf_dir: str) -> rd.Dataset:
    """HITS hubs-and-authorities over the user -> event_type bipartite
    graph (Kleinberg's algorithm, the directed-graph companion to
    pagerank_dups): a hub is a user touching many authoritative event
    types, an authority a type touched by many strong hubs. All-integer
    fixed point: scores start at HITS_UNIT, each half-round sums the
    opposite side's scores over the DISTINCT edge list and renormalizes
    by floor-dividing by the side's max (values stay positive, so
    DuckDB's truncating // equals floor). The oracle replays every
    round verbatim (generated CTE chain, the kmeans/pagerank pattern).
    Distribution shape: hubs stay a Dataset keyed by user (partitioned
    hash_join edge<-hub each round); authorities are |event types| rows
    — the classic small side — broadcast back in the hub map's closure
    for the hub update; per-round maxima are single-row folds. Returns
    (kind, node, score_ppm) for both sides after HITS_ROUNDS rounds."""
    ev = rp(sf_dir, "events", ["user_id", "event_type"])
    edges = partial_aggregate(ev, ["user_id", "event_type"],
                              {"c": ("count", None)}) \
        .map_batches(lambda df: df[["user_id", "event_type"]],
                     batch_format="pandas").materialize()

    # h0 = HITS_UNIT per distinct user, as a Dataset
    h = partial_aggregate(edges, ["user_id"], {"d": ("count", None)}) \
        .map_batches(lambda df: pd.DataFrame({
            "user_id": df["user_id"].astype(np.int64),
            "h": np.full(len(df), HITS_UNIT, dtype=np.int64)}),
        batch_format="pandas")

    auth = None
    for _ in range(HITS_ROUNDS):
        # authority update: a(t) = sum_{(u,t)} h(u)  (partitioned join)
        ar = partial_aggregate(
            hash_join(edges, h, "user_id", "user_id",
                      left_cols=["user_id", "event_type"],
                      right_cols=["user_id", "h"]),
            ["event_type"], {"a": ("sum", "h")}).to_pandas()
        amax = int(ar["a"].max())
        ar["a"] = (ar["a"].astype(np.int64) * HITS_UNIT) // amax
        amap = dict(zip(ar["event_type"], ar["a"]))

        # hub update: h(u) = sum_{(u,t)} a(t)  (small side broadcast)
        def with_a(df: pd.DataFrame, amap=amap) -> pd.DataFrame:
            return pd.DataFrame({
                "user_id": df["user_id"].astype(np.int64),
                "h": df["event_type"].map(amap).astype(np.int64)})

        hr = partial_aggregate(
            edges.map_batches(with_a, batch_format="pandas"),
            ["user_id"], {"h": ("sum", "h")})
        hmax = int(partial_aggregate(
            hr, [], {"mx": ("max", "h")}).to_pandas()["mx"][0])
        h = hr.map_batches(
            lambda df, hm=hmax: pd.DataFrame({
                "user_id": df["user_id"].astype(np.int64),
                "h": (df["h"].astype(np.int64) * HITS_UNIT) // hm}),
            batch_format="pandas")
        auth = ar

    hubs = h.map_batches(
        lambda df: pd.DataFrame({
            "kind": np.full(len(df), "hub"),
            "node": df["user_id"].astype(str),
            "score_ppm": df["h"].astype(np.int64)}),
        batch_format="pandas").to_pandas()
    auths = pd.DataFrame({
        "kind": np.full(len(auth), "auth"),
        "node": auth["event_type"].astype(str),
        "score_ppm": auth["a"].astype(np.int64)})
    return rd.from_pandas(pd.concat([hubs, auths], ignore_index=True))


def _hits_oracle_sql(n_rounds: int = HITS_ROUNDS,
                     unit: int = HITS_UNIT) -> str:
    # round-chained CTEs MATERIALIZED (the embedding_top_pc /
    # mmr_diversify lesson: DuckDB inlines the prior-round chain into
    # every scalar-subquery re-reference — 14 s → <1 s at sf0.001)
    parts = ["""edges AS MATERIALIZED (
      SELECT DISTINCT user_id, event_type FROM events)""",
             f"""h0 AS (
      SELECT user_id, CAST({unit} AS BIGINT) AS h
      FROM (SELECT DISTINCT user_id FROM edges))"""]
    for r in range(1, n_rounds + 1):
        parts.append(f"""a{r}r AS MATERIALIZED (
      SELECT event_type, CAST(SUM(h) AS BIGINT) AS a
      FROM edges JOIN h{r - 1} USING (user_id) GROUP BY event_type)""")
        parts.append(f"""a{r} AS MATERIALIZED (
      SELECT event_type,
             (a * {unit}) // (SELECT MAX(a) FROM a{r}r) AS a
      FROM a{r}r)""")
        parts.append(f"""h{r}r AS MATERIALIZED (
      SELECT user_id, CAST(SUM(a) AS BIGINT) AS h
      FROM edges JOIN a{r} USING (event_type) GROUP BY user_id)""")
        parts.append(f"""h{r} AS MATERIALIZED (
      SELECT user_id,
             (h * {unit}) // (SELECT MAX(h) FROM h{r}r) AS h
      FROM h{r}r)""")
    return f"""
    WITH {', '.join(parts)}
    SELECT 'hub' AS kind, CAST(user_id AS VARCHAR) AS node,
           CAST(h AS BIGINT) AS score_ppm
    FROM h{n_rounds}
    UNION ALL
    SELECT 'auth', event_type, CAST(a AS BIGINT) FROM a{n_rounds}"""


QUERIES["hits_user_event"] = hits_user_event
ORACLE_SQL["hits_user_event"] = _hits_oracle_sql()


def next_token_top1(sf_dir: str) -> rd.Dataset:
    """Per-token most-likely successor over the corpus bigram stream —
    the greedy next-token table of a count-based LM (the eval a
    tokenizer/LM pipeline sanity-checks corpus statistics with). Exact:
    counts are integers, the winner per token is (count desc, successor
    asc), and the conditional probability is a floor-division ppm.
    Shape: per-batch Counter partials fold through the bucketed
    combiner (the top_bigrams exchange); the per-token argmax runs in
    grouped_topk (block-local candidates, never a global sort); the
    per-token totals join back PARTITIONED (hash_join), so nothing
    vocabulary-sized hits the driver. Returns
    (token, next_token, n_pair, n_total, p_ppm)."""
    docs = rp(sf_dir, "documents", ["text"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        counts: Counter = Counter()
        for text in df["text"]:
            toks = [t for t in text.split(" ") if t]
            counts.update(zip(toks, toks[1:]))
        ks = list(counts.keys())
        return pd.DataFrame({
            "token": [a for a, _ in ks],
            "next_token": [b for _, b in ks],
            "n_pair": np.fromiter(counts.values(), dtype=np.int64,
                                  count=len(counts))})

    bg = partial_aggregate(
        docs.map_batches(pairs, batch_format="pandas"),
        ["token", "next_token"], {"n_pair": ("sum", "n_pair")})
    best = grouped_topk(bg, ["token"], ["n_pair", "next_token"], k=1,
                        ascending=[False, True]) \
        .map_batches(lambda df: df.drop(columns="rk"),
                     batch_format="pandas")
    totals = partial_aggregate(
        bg.map_batches(lambda df: df[["token", "n_pair"]]
                       .rename(columns={"n_pair": "n_total"}),
                       batch_format="pandas"),
        ["token"], {"n_total": ("sum", "n_total")})
    joined = hash_join(best, totals, "token", "token",
                       left_cols=["token", "next_token", "n_pair"],
                       right_cols=["token", "n_total"])
    return joined.map_batches(
        lambda df: df.assign(
            n_pair=df["n_pair"].astype(np.int64),
            n_total=df["n_total"].astype(np.int64),
            p_ppm=(1_000_000 * df["n_pair"].astype(np.int64))
            // df["n_total"].astype(np.int64)),
        batch_format="pandas")


QUERIES["next_token_top1"] = next_token_top1
ORACLE_SQL["next_token_top1"] = """
    WITH toks AS (
      SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
    bg AS (
      SELECT a AS token, b AS next_token,
             CAST(COUNT(*) AS BIGINT) AS n_pair
      FROM (SELECT unnest(ts[1:len(ts)-1]) AS a,
                   unnest(ts[2:len(ts)]) AS b
            FROM toks)
      WHERE a <> '' AND b <> '' GROUP BY a, b),
    tot AS (SELECT token, CAST(SUM(n_pair) AS BIGINT) AS n_total
            FROM bg GROUP BY token),
    best AS (
      SELECT token, next_token, n_pair,
             row_number() OVER (PARTITION BY token
                                ORDER BY n_pair DESC, next_token) AS rn
      FROM bg)
    SELECT b.token, b.next_token, b.n_pair, t.n_total,
           (1000000 * b.n_pair) // t.n_total AS p_ppm
    FROM best b JOIN tot t USING (token) WHERE rn = 1"""


def events_cusum(sf_dir: str) -> rd.Dataset:
    """Exact CUSUM change-point over the globally (ts, event_id)-ordered
    value stream: the k maximizing |n*P_k - k*T| (cross-multiplied
    deviation of the running sum from the global mean line — the KS
    companion that reports WHERE the level shifted, not just whether).
    Ties break to the lowest k. Shape: NO global sort — order-preserving
    ts-range buckets (one bounds pass), per-bucket local prefix sums
    shifted by driver-prefix-summed bucket totals (the pack_stream
    machinery: the driver folds NB scalars, then one row per
    bucket). int64 envelope: n * max|P| must stay < 2^63 — asserted,
    holds to ~1e9 events x 1e9 summed cents; past that the per-bucket
    fold switches to python ints (same rule as events_ks_drift).
    Returns one row (n_events, at_k, at_ts_us, cusum_abs)."""
    ev = rp(sf_dir, "events", ["event_id", "ts", "value"])
    NB = 64

    def base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "t": df["ts"].astype("int64").to_numpy(),
            "eid": df["event_id"].astype("int64").to_numpy(),
            "cents": _cents(df["value"]).to_numpy()})

    b = ev.map_batches(base, batch_format="pandas").materialize()
    bounds = partial_aggregate(
        b, [], {"mn": ("min", "t"), "mx": ("max", "t")}).to_pandas()
    mn, mx = int(bounds["mn"][0]), int(bounds["mx"][0])
    span = max(mx - mn + 1, 1)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(__rb=((df["t"].to_numpy() - mn) * NB
                               // span).astype(np.int64))

    sums = partial_aggregate(
        b.map_batches(lambda df: tag(df)[["__rb", "cents"]]
                      .assign(one=np.int64(1)),
                      batch_format="pandas"),
        ["__rb"], {"s": ("sum", "cents"), "c": ("sum", "one")}
    ).to_pandas().sort_values("__rb")
    csum = np.zeros(NB, dtype=np.int64)
    ccnt = np.zeros(NB, dtype=np.int64)
    csum[sums["__rb"].to_numpy()] = sums["s"].to_numpy()
    ccnt[sums["__rb"].to_numpy()] = sums["c"].to_numpy()
    total = int(csum.sum())
    n = int(ccnt.sum())
    off_s = np.concatenate([[0], np.cumsum(csum)[:-1]])
    off_c = np.concatenate([[0], np.cumsum(ccnt)[:-1]])

    def local_best(df: pd.DataFrame) -> pd.DataFrame:
        rb = int(df["__rb"].iloc[0])
        df = df.sort_values(["t", "eid"], ignore_index=True)
        p = off_s[rb] + np.cumsum(df["cents"].to_numpy())
        k = off_c[rb] + np.arange(1, len(df) + 1, dtype=np.int64)
        assert abs(n) * max(1, int(np.abs(p).max())) < (1 << 62), \
            "int64 CUSUM envelope exceeded; switch to python ints"
        dev = np.abs(n * p - k * total)
        i = int(np.lexsort((k, -dev))[0])     # max dev, tie lowest k
        return pd.DataFrame({
            "at_k": np.array([k[i]], dtype=np.int64),
            "at_ts_us": np.array([df["t"].iloc[i]], dtype=np.int64),
            "cusum_abs": np.array([dev[i]], dtype=np.int64)})

    cand = exchange(b, "__rb", per_key("__rb", local_best),
                    pre=tag).to_pandas()
    best = cand.sort_values(["cusum_abs", "at_k"],
                            ascending=[False, True]).iloc[0]
    return rd.from_pandas(pd.DataFrame({
        "n_events": np.array([n], dtype=np.int64),
        "at_k": np.array([best["at_k"]], dtype=np.int64),
        "at_ts_us": np.array([best["at_ts_us"]], dtype=np.int64),
        "cusum_abs": np.array([best["cusum_abs"]], dtype=np.int64)}))


QUERIES["events_cusum"] = events_cusum
ORACLE_SQL["events_cusum"] = """
    WITH o AS (SELECT epoch_us(ts) AS t, event_id,
                      CAST(ROUND(value * 100) AS BIGINT) AS c
               FROM events),
    tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(c) AS BIGINT) AS s FROM o),
    w AS (SELECT t,
                 CAST(SUM(c) OVER (ORDER BY t, event_id
                                   ROWS UNBOUNDED PRECEDING) AS BIGINT)
                   AS p,
                 CAST(row_number() OVER (ORDER BY t, event_id)
                      AS BIGINT) AS k
          FROM o)
    SELECT tot.n AS n_events, w.k AS at_k, w.t AS at_ts_us,
           ABS(tot.n * w.p - w.k * tot.s) AS cusum_abs
    FROM w, tot
    ORDER BY ABS(tot.n * w.p - w.k * tot.s) DESC, w.k LIMIT 1"""


#: power-iteration geometry shared with the generated oracle
PC_ROUNDS = 4
PC_UNIT = 1_000_000


def embedding_top_pc(sf_dir: str) -> rd.Dataset:
    """Dominant principal direction of the embedding table by
    ALL-INTEGER power iteration on the centered scatter matrix — the
    PCA step a whitening / semantic-dedup pipeline runs, made
    hash-exact: the centered scatter C = n*M - s*s^T derives from
    embedding_moments' integer rows (the ONLY corpus pass — everything
    after is d x d, sketch-sized), C normalizes to ppm by its max |cell|
    (sign-split floor division), and PC_ROUNDS rounds of v <- C v
    renormalize the same way from the all-ones start. Driver math runs
    in python ints (no overflow at any n); the generated oracle replays
    every round with HUGEINT intermediates. Zero-matrix guard: all-equal
    embeddings emit pc_ppm = 0. Returns (dim, pc_ppm)."""
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    mom = similarity.embedding_moments(emb).to_pandas()
    n = int(mom.loc[(mom["i"] == -1) & (mom["j"] == -1), "v"].iloc[0])
    srows = mom[(mom["j"] == -1) & (mom["i"] >= 0)]
    s = {int(r): int(v) for r, v in zip(srows["i"], srows["v"])}
    d = max(s) + 1
    mrows = mom[mom["j"] >= 0]
    C = [[0] * d for _ in range(d)]
    for i, j, v in zip(mrows["i"], mrows["j"], mrows["v"]):
        i, j, v = int(i), int(j), int(v)
        cij = n * v - s[i] * s[j]
        C[i][j] = cij
        C[j][i] = cij

    def norm(vec):
        mxa = max(abs(x) for x in vec)
        if mxa == 0:
            return [0] * len(vec)
        return [(1 if x >= 0 else -1) * (abs(x) * PC_UNIT // mxa)
                for x in vec]

    # normalize by the GLOBAL max cell (one shared scale)
    mx = max(abs(x) for row in C for x in row)
    A = [[(1 if x >= 0 else -1) * (abs(x) * PC_UNIT // mx)
          if mx else 0 for x in row] for row in C]
    v = [PC_UNIT] * d
    for _ in range(PC_ROUNDS):
        w = [sum(A[i][j] * v[j] for j in range(d)) for i in range(d)]
        v = norm(w)
    return rd.from_pandas(pd.DataFrame({
        "dim": np.arange(d, dtype=np.int64),
        "pc_ppm": np.array(v, dtype=np.int64)}))


def _top_pc_oracle_sql(n_rounds: int = PC_ROUNDS,
                       unit: int = PC_UNIT) -> str:
    # round-chained CTEs MATERIALIZED and the per-round MAX(ABS(..))
    # hoisted into its own materialized one-row CTE — DuckDB otherwise
    # inlines the whole prior-round chain into every scalar-subquery
    # re-reference and the plan goes super-linear in rounds (>20 min at
    # 500 vectors vs ~1 s materialized; the mmr_diversify lesson)
    parts = ["""e AS MATERIALIZED (
      SELECT vec_id, CAST(i - 1 AS BIGINT) AS i,
             CAST(ROUND(CAST(x AS DOUBLE) * 1000) AS BIGINT) AS q
      FROM (SELECT vec_id, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings))""",
             """m AS (SELECT a.i, b.i AS j,
                    CAST(SUM(a.q * b.q) AS BIGINT) AS v
             FROM e a JOIN e b ON a.vec_id = b.vec_id
             GROUP BY a.i, b.i)""",
             """s AS (SELECT i, CAST(SUM(q) AS BIGINT) AS v
             FROM e GROUP BY i)""",
             """nn AS (SELECT CAST(COUNT(DISTINCT vec_id) AS BIGINT)
                       AS n FROM e)""",
             """cm AS MATERIALIZED (SELECT m.i, m.j,
                     CAST(nn.n AS HUGEINT) * m.v
                     - CAST(si.v AS HUGEINT) * sj.v AS v
              FROM m CROSS JOIN nn
              JOIN s si ON si.i = m.i JOIN s sj ON sj.i = m.j)""",
             """cmx AS MATERIALIZED (SELECT MAX(ABS(v)) AS x FROM cm)""",
             f"""a AS MATERIALIZED (SELECT i, j,
                     CASE WHEN cmx.x = 0 THEN 0
                          WHEN v >= 0
                          THEN CAST((v * {unit}) // cmx.x AS BIGINT)
                          ELSE -CAST(((-v) * {unit}) // cmx.x
                               AS BIGINT) END AS v
              FROM cm CROSS JOIN cmx)""",
             f"""v0 AS (SELECT DISTINCT i, CAST({unit} AS BIGINT) AS v
               FROM a)"""]
    for r in range(1, n_rounds + 1):
        parts.append(f"""w{r} AS MATERIALIZED (
      SELECT a.i, CAST(SUM(a.v * v{r - 1}.v) AS HUGEINT) AS w
      FROM a JOIN v{r - 1} ON a.j = v{r - 1}.i GROUP BY a.i)""")
        parts.append(f"""wx{r} AS MATERIALIZED (
      SELECT MAX(ABS(w)) AS x FROM w{r})""")
        parts.append(f"""v{r} AS MATERIALIZED (
      SELECT i,
             CASE WHEN wx{r}.x = 0 THEN 0
                  WHEN w >= 0
                  THEN CAST((w * {unit}) // wx{r}.x AS BIGINT)
                  ELSE -CAST(((-w) * {unit}) // wx{r}.x AS BIGINT)
             END AS v
      FROM w{r} CROSS JOIN wx{r})""")
    return f"""
    WITH {', '.join(parts)}
    SELECT i AS dim, CAST(v AS BIGINT) AS pc_ppm FROM v{n_rounds}"""


QUERIES["embedding_top_pc"] = embedding_top_pc
ORACLE_SQL["embedding_top_pc"] = _top_pc_oracle_sql()


# --------------------------------------------------- round-4 fourth batch
# (novelty audit, dup-graph link prediction, blocklist screen,
# source-priority dedup — each exact-oracle)

def ngram_novelty(sf_dir: str) -> rd.Dataset:
    """Per-document content novelty (dedup.ngram_novelty): of each
    doc's distinct 4-token shingles, how many occur FIRST here (global
    min doc_id) — the 'how much new content does this doc add' curation
    score; self_overlap's forward-looking twin on the same shingle
    tables. Exact: ties award novelty to the smaller id only."""
    return dedup.ngram_novelty(
        rp(sf_dir, "documents", ["doc_id", "text"]))


QUERIES["ngram_novelty"] = ngram_novelty
ORACLE_SQL["ngram_novelty"] = """
    WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks
               FROM documents),
    sh AS (SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g FROM t,
           unnest(range(1, greatest(2, len(toks) - 2))) AS u(i)),
    dsh AS (SELECT DISTINCT doc_id, g FROM sh),
    f AS (SELECT g, MIN(doc_id) AS first_id FROM dsh GROUP BY g)
    SELECT dsh.doc_id, CAST(COUNT(*) AS BIGINT) AS n_shingles,
           CAST(SUM(CASE WHEN f.first_id = dsh.doc_id THEN 1 ELSE 0 END)
                AS BIGINT) AS n_novel
    FROM dsh JOIN f USING (g) GROUP BY dsh.doc_id"""


def linkpred_dups(sf_dir: str) -> rd.Dataset:
    """Common-neighbor link prediction over the STAR-encoded
    duplication graph (dedup.chunk_star_edges +
    graph.common_neighbor_counts). The star form is the O(n)-edge
    encoding a 100 TB dup graph must take (cliques are O(n²) per
    group), and it leaves every leaf-leaf duplication implicit —
    link prediction recovers exactly those pairs, scored by shared
    hubs. (Over the clique-encoded graph the open-wedge set is empty
    by construction — every witnessed pair is already an edge — which
    is why this op pairs with the sparse encoding.) Completes the
    dup-graph family (pagerank / CC / triangles / k-core); the SQL
    replays chunking, hub pick, star edges, wedge count and the
    open-wedge anti-join verbatim."""
    from . import graph

    edges = dedup.chunk_star_edges(
        rp(sf_dir, "documents", ["doc_id", "text"]))
    cn = graph.common_neighbor_counts(edges, "doc_a", "doc_b")
    return cn.map_batches(
        lambda df: df.rename(columns={"a": "doc_a", "b": "doc_b"}),
        batch_format="pandas")


#: star-edge CTE shared by the two link-prediction oracles
_STAR_EDGE_CTE = """t AS (SELECT doc_id, string_split(text, ' ') AS toks
               FROM documents),
    c AS (SELECT doc_id, md5(array_to_string(toks[10*i+1:10*i+10], ' '))
                   AS ch
          FROM (SELECT doc_id, toks,
                       unnest(range(0, len(toks) // 10)) AS i
                FROM t)),
    d AS (SELECT DISTINCT doc_id, ch FROM c),
    h AS (SELECT ch, MIN(doc_id) AS hub FROM d GROUP BY ch),
    e AS (SELECT DISTINCT h.hub AS a, d.doc_id AS b
          FROM d JOIN h USING (ch) WHERE d.doc_id > h.hub)"""

QUERIES["linkpred_dups"] = linkpred_dups
ORACLE_SQL["linkpred_dups"] = f"""
    WITH {_STAR_EDGE_CTE},
    sym AS (SELECT a AS m, b AS n FROM e
            UNION ALL SELECT b, a FROM e),
    w AS (SELECT l.n AS a, r.n AS c,
                 CAST(COUNT(*) AS BIGINT) AS n_common
          FROM sym l JOIN sym r ON l.m = r.m AND l.n < r.n
          GROUP BY l.n, r.n)
    SELECT w.a AS doc_a, w.c AS doc_b, w.n_common
    FROM w WHERE NOT EXISTS (SELECT 1 FROM e
                             WHERE e.a = w.a AND e.b = w.c)"""


#: shared by engine and oracle — drawn from the fixture vocabulary so
#: hits are dense; a real deployment swaps in its unsafe-term list
BLOCK_TERMS = ("scan", "window", "merge", "key")


def blocklist_filter(sf_dir: str) -> rd.Dataset:
    """Multi-term blocklist screen — the unsafe-content gate every
    training-data pipeline runs (toxic/PII/spam term lists): per doc,
    total blocklist-token occurrences, distinct terms hit, and the
    keep flag (zero hits). Pure map — ONE pass, no shuffle, nothing on
    the driver: token explode + np.isin against the tiny constant term
    array inside map_batches (an Aho-Corasick automaton replaces isin
    for thousand-term lists; same stage shape). Exact token-boundary
    matching (substring matching would also flag 'scanner'), mirrored
    by the oracle's list_filter. Returns
    (doc_id, n_hits, n_terms, keep)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    terms = np.array(BLOCK_TERMS, dtype=object)

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split(" ")
        n = s.map(len).to_numpy(dtype=np.int64)
        flat = np.concatenate(s.to_numpy())
        doc_idx = np.repeat(np.arange(len(df), dtype=np.int64), n)
        hits = np.isin(flat, terms)
        n_hits = np.bincount(doc_idx, weights=hits,
                             minlength=len(df)).astype(np.int64)
        n_terms = np.zeros(len(df), dtype=np.int64)
        for t in BLOCK_TERMS:       # |terms| passes, each vectorized
            m = np.bincount(doc_idx, weights=(flat == t),
                            minlength=len(df))
            n_terms += (m > 0)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64).to_numpy(),
            "n_hits": n_hits, "n_terms": n_terms,
            "keep": (n_hits == 0).astype(np.int64)})

    return docs.map_batches(scan, batch_format="pandas")


QUERIES["blocklist_filter"] = blocklist_filter
ORACLE_SQL["blocklist_filter"] = f"""
    WITH t AS (
      SELECT doc_id,
             list_filter(string_split(text, ' '),
                         x -> list_contains(
                           {list(BLOCK_TERMS)!r}, x)) AS hits
      FROM documents)
    SELECT doc_id, CAST(len(hits) AS BIGINT) AS n_hits,
           CAST(len(list_distinct(hits)) AS BIGINT) AS n_terms,
           CAST(CASE WHEN len(hits) = 0 THEN 1 ELSE 0 END AS BIGINT)
             AS keep
    FROM t"""


#: doc_id packs under the priority in one int64: prio * PRIO_BASE + id
PRIO_BASE = 10 ** 12


def dedup_priority(sf_dir: str) -> rd.Dataset:
    """Source-priority exact dedup — dedup where the KEPT copy is not
    the smallest id but the one from the most-trusted source (curated
    beats crawl), the rule real corpus merges use. Dup key = the
    4-token-prefix hash (the duplication actually planted in the
    fixture corpus, the dup_source_matrix rule; swap in full-text md5
    for byte-exact groups — identical shape). Priority = the source's
    numeric suffix (src3 → 3, lower wins). ONE bucketed aggregate:
    each group's argmin over (priority, doc_id) rides a packed int64
    (prio * PRIO_BASE + doc_id, valid to 10^12 docs and 9.2M sources)
    through the same combiner as any min — no join-back, no second
    pass. Returns one row per group:
    (doc_id, prio, n_copies) for the keeper."""
    docs = rp(sf_dir, "documents", ["doc_id", "source", "text"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        prio = df["source"].str.slice(3).astype(np.int64).to_numpy()
        comb = prio * PRIO_BASE + df["doc_id"].astype(np.int64).to_numpy()
        return pd.DataFrame({
            "h": [dedup.md5_hex(" ".join(t.split(" ")[:4]))
                  for t in df["text"]],
            "comb": comb})

    g = partial_aggregate(
        docs.map_batches(keyed, batch_format="pandas"),
        ["h"], {"n_copies": ("count", None), "mn": ("min", "comb")})
    return g.map_batches(
        lambda df: pd.DataFrame({
            "doc_id": (df["mn"].to_numpy(np.int64) % PRIO_BASE),
            "prio": (df["mn"].to_numpy(np.int64) // PRIO_BASE),
            "n_copies": df["n_copies"].astype(np.int64).to_numpy()}),
        batch_format="pandas")


QUERIES["dedup_priority"] = dedup_priority
ORACLE_SQL["dedup_priority"] = f"""
    WITH k AS (
      SELECT doc_id,
             CAST(substr(source, 4) AS BIGINT) AS prio,
             md5(array_to_string((string_split(text, ' '))[1:4], ' '))
               AS h
      FROM documents),
    g AS (SELECT h, CAST(COUNT(*) AS BIGINT) AS n_copies,
                 MIN(prio * {PRIO_BASE} + doc_id) AS mn
          FROM k GROUP BY h)
    SELECT CAST(mn % {PRIO_BASE} AS BIGINT) AS doc_id,
           CAST(mn // {PRIO_BASE} AS BIGINT) AS prio,
           n_copies
    FROM g"""


# --------------------------------------------------- round-4 fifth batch
# (MMR diversified retrieval, session path mining, product quantization)

MMR_K = 6          # picks; oracle CTE chain replays each round
MMR_REL_W = 2      # score = 2·rel − maxsim (λ = 2/3 in MMR's λ form)


def mmr_diversify(sf_dir: str) -> rd.Dataset:
    """Maximal Marginal Relevance (Carbonell & Goldstein 1998) — the
    diversified top-k a RAG stack runs after retrieval so the k
    passages aren't six copies of the same paragraph. Greedy: each
    round picks argmax of MMR_REL_W·rel(c) − max_{s∈S} sim(c, s),
    ties to the lowest vec_id. EXACT and all-integer: vectors are the
    shared milli-quantization, rel/sim are int64 dot products, so the
    generated oracle (_mmr_oracle_sql) replays every pick verbatim.
    Query = the embedding of the smallest vec_id (the semantic_dedup
    seed trick), excluded from candidates.

    Shape: candidates stay a Dataset throughout — rel computes once
    in one map (the query vector held by its closure), each round is a
    empty-key partial top-1 (the driver sees ONE row per round)
    plus a broadcast maxsim update; K materializes of a (id, rel, ms,
    q) table. Returns (vec_id, pick_round, rel, maxsim, score)."""
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    def quant(df: pd.DataFrame) -> np.ndarray:
        P = (np.stack(df["embedding"].to_numpy()).astype(np.float64)
             * 1000.0)
        return (np.sign(P) * np.floor(np.abs(P) + 0.5)).astype(np.int64)

    mn = partial_aggregate(
        emb.map_batches(
            lambda df: pd.DataFrame({
                "v": df["vec_id"].astype(np.int64).to_numpy()}),
            batch_format="pandas"),
        [], {"mn": ("min", "v")}).to_pandas()
    qid = int(mn["mn"].iloc[0])
    qrow = emb.map_batches(lambda df: df[df["vec_id"] == qid],
                           batch_format="pandas").to_pandas()
    qvec = quant(qrow)[0]

    def base(df: pd.DataFrame) -> pd.DataFrame:
        m = df["vec_id"].to_numpy() != qid
        if not m.any():
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "rel": pd.Series([], dtype="int64"),
                                 "ms": pd.Series([], dtype="int64"),
                                 "q": pd.Series([], dtype=object)})
        Q = quant(df[m])
        rel = Q @ qvec
        return pd.DataFrame({
            "vec_id": df["vec_id"].to_numpy()[m].astype(np.int64),
            "rel": rel.astype(np.int64),
            "ms": np.zeros(int(m.sum()), dtype=np.int64),
            "q": list(Q)})

    cand = emb.map_batches(base, batch_format="pandas").materialize()
    picks = []
    for r in range(1, MMR_K + 1):
        scored = cand.map_batches(
            lambda df: df.assign(
                score=MMR_REL_W * df["rel"].to_numpy(np.int64)
                - df["ms"].to_numpy(np.int64)),
            batch_format="pandas")
        top = grouped_topk(scored, [], ["score", "vec_id"], 1,
                           ascending=[False, True]).to_pandas()
        if not len(top):     # fewer candidates than MMR_K: stop early,
            break            # exactly as the oracle's empty p{r} rounds
        pid = int(top["vec_id"].iloc[0])
        picks.append((pid, r, int(top["rel"].iloc[0]),
                      int(top["ms"].iloc[0]), int(top["score"].iloc[0])))
        if r == MMR_K:
            break
        pvec = np.asarray(top["q"].iloc[0], dtype=np.int64)

        # round 1's update REPLACES ms (the 0 init is only the oracle's
        # m0 placeholder; a max against it would clamp an all-negative
        # dot row to 0 and diverge — caught by the sf0.001 gate);
        # later rounds take the running max over the selected set
        def upd(df: pd.DataFrame, _pid=pid, _pvec=pvec,
                _first=(r == 1)) -> pd.DataFrame:
            d = df[df["vec_id"].to_numpy() != _pid]
            if not len(d):
                return d
            dots = (np.stack(d["q"].to_numpy())
                    @ _pvec).astype(np.int64)
            if not _first:
                dots = np.maximum(d["ms"].to_numpy(np.int64), dots)
            return d.assign(ms=dots)

        cand = cand.map_batches(upd, batch_format="pandas").materialize()
    out = pd.DataFrame(picks, columns=["vec_id", "pick_round", "rel",
                                       "maxsim", "score"])
    return rd.from_pandas(out.astype("int64"))


def _mmr_oracle_sql(k: int = MMR_K) -> str:
    # every CTE referenced across rounds is MATERIALIZED — DuckDB
    # otherwise inlines the whole prior-round chain into each NOT IN /
    # join re-reference and the plan goes super-linear in k (measured:
    # minutes at 500 vectors vs seconds materialized)
    parts = ["""e AS MATERIALIZED (
      SELECT vec_id, CAST(i - 1 AS BIGINT) AS i,
             CAST(ROUND(CAST(x AS DOUBLE) * 1000) AS BIGINT) AS q
      FROM (SELECT vec_id, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings))""",
             "qid AS MATERIALIZED (SELECT MIN(vec_id) AS id FROM embeddings)",
             """rel AS MATERIALIZED (
      SELECT c.vec_id, CAST(SUM(c.q * s.q) AS BIGINT) AS rel
      FROM e c JOIN e s ON c.i = s.i
      WHERE s.vec_id = (SELECT id FROM qid)
        AND c.vec_id <> (SELECT id FROM qid)
      GROUP BY c.vec_id)""",
             "m0 AS (SELECT vec_id, CAST(0 AS BIGINT) AS ms FROM rel)"]
    for r in range(1, k + 1):
        excl = (f" WHERE rel.vec_id NOT IN (SELECT vec_id FROM sel{r - 1})"
                if r > 1 else "")
        parts.append(f"""p{r} AS MATERIALIZED (
      SELECT rel.vec_id, rel.rel, m{r - 1}.ms,
             {MMR_REL_W} * rel.rel - m{r - 1}.ms AS score
      FROM rel JOIN m{r - 1} USING (vec_id){excl}
      ORDER BY score DESC, rel.vec_id LIMIT 1)""")
        prev = (f" UNION ALL SELECT vec_id FROM sel{r - 1}"
                if r > 1 else "")
        parts.append(f"sel{r} AS MATERIALIZED "
                     f"(SELECT vec_id FROM p{r}{prev})")
        if r < k:
            parts.append(f"""d{r} AS (
      SELECT c.vec_id, s.vec_id AS sv, CAST(SUM(c.q * s.q) AS BIGINT)
               AS d
      FROM e c JOIN e s ON c.i = s.i
      WHERE s.vec_id IN (SELECT vec_id FROM sel{r})
        AND c.vec_id <> (SELECT id FROM qid)
        AND c.vec_id NOT IN (SELECT vec_id FROM sel{r})
      GROUP BY c.vec_id, s.vec_id)""")
            parts.append(f"""m{r} AS MATERIALIZED (
      SELECT vec_id, MAX(d) AS ms FROM d{r} GROUP BY vec_id)""")
    finals = "\n    UNION ALL ".join(
        f"""SELECT vec_id, CAST({r} AS BIGINT) AS pick_round,
           CAST(rel AS BIGINT) AS rel, CAST(ms AS BIGINT) AS maxsim,
           CAST(score AS BIGINT) AS score FROM p{r}"""
        for r in range(1, k + 1))
    return f"""
    WITH {', '.join(parts)}
    {finals}"""


QUERIES["mmr_diversify"] = mmr_diversify
ORACLE_SQL["mmr_diversify"] = _mmr_oracle_sql()


SP_GAP_US = 1800 * 10**6   # the events_sessionize inactivity gap
SP_MAXLEN = 5              # path truncation length
SP_K = 20                  # top paths reported


def session_paths(sf_dir: str) -> rd.Dataset:
    """Top session paths — frequency mining of the event-type sequence
    each session opens with (truncated at SP_MAXLEN), the
    behavioral-funnel mining step after sessionization ("what do the
    most common first five actions look like"). Exact: sessions follow
    the events_sessionize 30-min gap rule; paths are '|'-joined in
    (ts, event_id) order; ranking is (count desc, path asc). Shape:
    sessionize + path build run per user-bucket in the ordered-log
    pattern (one row per SESSION leaves the bucket), counts fold
    through the bucketed combiner, the top-k is the empty-key partial
    top-k — never a global sort. Returns (path, n, rank)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts",
                               "event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        prev = df.groupby("user_id")["ts"].shift()
        gap = df["ts"].astype("int64") - prev.astype("int64")
        new_sess = prev.isna() | (gap > SP_GAP_US)
        sess = (new_sess.groupby(df["user_id"]).cumsum()
                .astype("int64") - 1)
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                          "sess": sess.to_numpy(),
                          "et": df["event_type"].to_numpy()})
        d["rn"] = d.groupby(["user_id", "sess"]).cumcount()
        d = d[d["rn"] < SP_MAXLEN]
        p = d.groupby(["user_id", "sess"], sort=False)["et"] \
            .agg("|".join)
        return pd.DataFrame({"path": p.to_numpy(),
                             "n": np.ones(len(p), dtype=np.int64)})

    counts = partial_aggregate(_bucketed_by_user(ev, fn),
                               ["path"], {"n": ("sum", "n")})
    top = grouped_topk(counts, [], ["n", "path"], SP_K,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: pd.DataFrame({"path": df["path"].to_numpy(),
                                 "n": df["n"].astype(np.int64),
                                 "rank": df["rk"].astype(np.int64)}),
        batch_format="pandas")


QUERIES["session_paths"] = session_paths
ORACLE_SQL["session_paths"] = f"""
    WITH o AS (SELECT user_id, event_id, event_type, epoch_us(ts) AS t
               FROM events),
    w AS (SELECT *, LAG(t) OVER (PARTITION BY user_id
                                 ORDER BY t, event_id) AS pt FROM o),
    s AS (SELECT *,
                 SUM(CASE WHEN pt IS NULL OR t - pt > {SP_GAP_US}
                          THEN 1 ELSE 0 END)
                   OVER (PARTITION BY user_id ORDER BY t, event_id
                         ROWS UNBOUNDED PRECEDING) - 1 AS sess
          FROM w),
    r AS (SELECT *, row_number() OVER (PARTITION BY user_id, sess
                                       ORDER BY t, event_id) AS rn
          FROM s),
    p AS (SELECT user_id, sess,
                 string_agg(event_type, '|' ORDER BY t, event_id)
                   AS path
          FROM r WHERE rn <= {SP_MAXLEN} GROUP BY user_id, sess),
    c AS (SELECT path, CAST(COUNT(*) AS BIGINT) AS n
          FROM p GROUP BY path),
    k AS (SELECT path, n, row_number() OVER (ORDER BY n DESC, path)
                   AS rank
          FROM c)
    SELECT path, n, CAST(rank AS BIGINT) AS rank
    FROM k WHERE rank <= {SP_K}"""


PQ_K = 4       # centroids per subspace
PQ_SPLIT = 32  # dims per subspace (two subspaces over the 64-dim table)


def embedding_pq(sf_dir: str) -> rd.Dataset:
    """Product quantization (Jégou et al. 2011) of the embedding table
    — the ANN compression standard: split each vector into two
    subspaces and k-means each independently, so a vector stores as
    two small codes and distances come from code-book lookups. Both
    subspace clusterings are the existing all-integer Lloyd machinery
    (similarity.kmeans_lloyd_int: deterministic lowest-id seeds, ties
    to the lowest centroid, floor-of-mean updates), so the generated
    oracle replays both round sequences exactly. The two assignment
    tables join back PARTITIONED on vec_id. Returns
    (vec_id, code_a, code_b, dist2_a, dist2_b, dist2_total)."""

    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    def half(lo: int, hi: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            M = np.stack(df["embedding"].to_numpy())[:, lo:hi]
            return pd.DataFrame({
                "vec_id": df["vec_id"].astype(np.int64).to_numpy(),
                "embedding": list(M)})
        return f

    a = similarity.kmeans_lloyd_int(
        emb.map_batches(half(0, PQ_SPLIT), batch_format="pandas"),
        k=PQ_K, n_rounds=KMEANS_ROUNDS)
    b = similarity.kmeans_lloyd_int(
        emb.map_batches(half(PQ_SPLIT, 2 * PQ_SPLIT),
                        batch_format="pandas"),
        k=PQ_K, n_rounds=KMEANS_ROUNDS)
    j = hash_join(a, b, "vec_id", "vec_id",
                  left_cols=["vec_id", "cluster", "dist2"],
                  right_cols=["vec_id", "cluster", "dist2"])
    return j.map_batches(
        lambda df: pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64),
            "code_a": df["cluster"].astype(np.int64),
            "code_b": df["cluster_r"].astype(np.int64),
            "dist2_a": df["dist2"].astype(np.int64),
            "dist2_b": df["dist2_r"].astype(np.int64),
            "dist2_total": (df["dist2"].astype(np.int64)
                            + df["dist2_r"].astype(np.int64))}),
        batch_format="pandas")


def _pq_half_sql(p: str, lo: int, hi: int, k: int = PQ_K,
                 n_rounds: int = KMEANS_ROUNDS) -> list:
    """CTE parts replaying one subspace's integer k-means (the
    _kmeans_oracle_sql rounds, name-prefixed and dimension-windowed:
    1-based parquet dims (lo, hi])."""
    parts = [f"""{p}e AS (
      SELECT vec_id, CAST(i - {lo + 1} AS BIGINT) AS i,
             CAST(ROUND(CAST(x AS DOUBLE) * 1000) AS BIGINT) AS q
      FROM (SELECT vec_id, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings)
      WHERE i > {lo} AND i <= {hi})""",
             f"""{p}c0 AS (SELECT s.c, {p}e.i, {p}e.q AS v
               FROM {p}e JOIN seeds s USING (vec_id))"""]
    for r in range(1, n_rounds + 1):
        parts.append(f"""{p}d{r} AS (
      SELECT {p}e.vec_id, {p}c{r - 1}.c,
             SUM(({p}e.q - {p}c{r - 1}.v) * ({p}e.q - {p}c{r - 1}.v))
               AS dist2
      FROM {p}e JOIN {p}c{r - 1} ON {p}e.i = {p}c{r - 1}.i
      GROUP BY {p}e.vec_id, {p}c{r - 1}.c)""")
        parts.append(f"""{p}a{r} AS (
      SELECT vec_id, c, dist2
      FROM (SELECT *, row_number() OVER (PARTITION BY vec_id
                                         ORDER BY dist2, c) AS rn
            FROM {p}d{r})
      WHERE rn = 1)""")
        if r < n_rounds:
            parts.append(f"""{p}c{r} AS (
      SELECT {p}a{r}.c, {p}e.i,
             CAST(FLOOR(CAST(SUM({p}e.q) AS DOUBLE) / COUNT(*))
                  AS BIGINT) AS v
      FROM {p}e JOIN {p}a{r} USING (vec_id)
      GROUP BY {p}a{r}.c, {p}e.i)""")
    return parts


def _pq_oracle_sql(k: int = PQ_K, n_rounds: int = KMEANS_ROUNDS) -> str:
    parts = [f"""seeds AS (
      SELECT vec_id,
             CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
               AS c
      FROM (SELECT DISTINCT vec_id FROM embeddings
            ORDER BY vec_id LIMIT {k}))"""]
    parts += _pq_half_sql("xa", 0, PQ_SPLIT, k, n_rounds)
    parts += _pq_half_sql("xb", PQ_SPLIT, 2 * PQ_SPLIT, k, n_rounds)
    return f"""
    WITH {', '.join(parts)}
    SELECT a.vec_id, CAST(a.c AS BIGINT) AS code_a,
           CAST(b.c AS BIGINT) AS code_b,
           CAST(a.dist2 AS BIGINT) AS dist2_a,
           CAST(b.dist2 AS BIGINT) AS dist2_b,
           CAST(a.dist2 + b.dist2 AS BIGINT) AS dist2_total
    FROM xaa{n_rounds} a JOIN xba{n_rounds} b USING (vec_id)"""


QUERIES["embedding_pq"] = embedding_pq
ORACLE_SQL["embedding_pq"] = _pq_oracle_sql()


# --------------------------------------------------- round-4 sixth batch
# (multi-way snowflake join, dup-cluster census, weighted link
# prediction)

Q5_REGION = "ASIA"
Q5_FROM, Q5_TO = "1996-01-01", "1997-01-01"


def q5_local_supplier_volume(sf_dir: str) -> rd.Dataset:
    """TPC-H Q5 (local supplier volume): revenue per nation where the
    ordering customer and the line's supplier share the nation, within
    one region and order-date year — the hardest classic join shape in
    the suite (two large-large equi-joins PLUS a cross-table equality
    that is not a join key). Ray-Data-first plan: the date filter
    prunes orders AT THE READ side of the first join; lineitem ⋈
    orders and ⋈ customer run PARTITIONED (hash_join) with the
    region's nation-key set (25 rows max) applied INSIDE the customer
    join's bucket; the supplier join's bucket applies the
    c_nationkey = s_nationkey locality predicate and pre-reduces to
    per-nation partials, so the final exchange is ≤ 25 rows per
    bucket. Dimension names broadcast as a dict (J1). Revenue uses
    the q3 e4 integer-cents rule (no .5 ties at 4 decimals). Returns
    (n_name, n_lines, revenue_e4)."""
    nat = rp(sf_dir, "nation",
             ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = rp(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nat = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    nat = nat[nat["r_name"] == Q5_REGION]
    region_keys = frozenset(int(k) for k in nat["n_nationkey"])
    names = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    lo, hi = pd.Timestamp(Q5_FROM), pd.Timestamp(Q5_TO)
    orders_f = rp(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(
            lambda df: df[(df["o_orderdate"] >= lo)
                          & (df["o_orderdate"] < hi)]
            [["o_orderkey", "o_custkey"]],
            batch_format="pandas")
    li = rp(sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    j1 = hash_join(li, orders_f, "l_orderkey", "o_orderkey",
                   left_cols=["l_orderkey", "l_suppkey",
                              "l_extendedprice", "l_discount"],
                   right_cols=["o_orderkey", "o_custkey"])

    cust = rp(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def keep_region(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["c_nationkey"].isin(region_keys)] \
            [["l_suppkey", "l_extendedprice", "l_discount",
              "c_nationkey"]]

    j2 = hash_join(j1, cust, "o_custkey", "c_custkey",
                   left_cols=["l_suppkey", "l_extendedprice",
                              "l_discount", "o_custkey"],
                   right_cols=["c_custkey", "c_nationkey"],
                   bucket_fn=keep_region)
    supp = rp(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def local_only(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["c_nationkey"].to_numpy()
               == df["s_nationkey"].to_numpy()]
        out = pd.DataFrame({
            "n_nationkey": d["c_nationkey"].astype("int64").to_numpy(),
            "n_lines": np.ones(len(d), dtype=np.int64),
            "revenue_e4": np.round(
                d["l_extendedprice"].to_numpy()
                * (1 - d["l_discount"].to_numpy()) * 10**4)
            .astype(np.int64)})
        return (out.groupby("n_nationkey", sort=False, as_index=False)
                .agg(n_lines=("n_lines", "sum"),
                     revenue_e4=("revenue_e4", "sum")).infer_objects())

    j3 = hash_join(j2, supp, "l_suppkey", "s_suppkey",
                   left_cols=["l_suppkey", "l_extendedprice",
                              "l_discount", "c_nationkey"],
                   right_cols=["s_suppkey", "s_nationkey"],
                   bucket_fn=local_only)
    agg = partial_aggregate(j3, ["n_nationkey"],
                            {"n_lines": ("sum", "n_lines"),
                             "revenue_e4": ("sum", "revenue_e4")})
    return agg.map_batches(
        lambda df: pd.DataFrame({
            "n_name": df["n_nationkey"].map(names),
            "n_lines": df["n_lines"].astype(np.int64),
            "revenue_e4": df["revenue_e4"].astype(np.int64)}),
        batch_format="pandas")


QUERIES["q5_local_supplier_volume"] = q5_local_supplier_volume
ORACLE_SQL["q5_local_supplier_volume"] = f"""
    SELECT n.n_name, CAST(COUNT(*) AS BIGINT) AS n_lines,
           CAST(SUM(CAST(ROUND(l.l_extendedprice * (1 - l.l_discount)
                               * 10000) AS BIGINT)) AS BIGINT)
             AS revenue_e4
    FROM lineitem l
    JOIN orders o ON l.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN supplier s ON l.l_suppkey = s.s_suppkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
                 AND s.s_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    WHERE r.r_name = '{Q5_REGION}'
      AND o.o_orderdate >= TIMESTAMP '{Q5_FROM}'
      AND o.o_orderdate < TIMESTAMP '{Q5_TO}'
    GROUP BY n.n_name"""


def dup_cluster_stats(sf_dir: str) -> rd.Dataset:
    """Cluster-size census of the duplication graph's connected
    components — the one-line answer to 'is the dup structure a few
    giant mirror farms or a long tail of pairs', read before choosing
    a dedup keep rule. Two bounded aggregates on top of dup_clusters'
    fully partitioned CC labels (sizes per cluster, then clusters per
    size); the histogram is at most |distinct sizes| rows. Oracle =
    the dup_clusters recursive-CTE closure wrapped in the same two
    GROUP BYs. Returns (cluster_size, n_clusters)."""
    sizes = partial_aggregate(q_dup_clusters(sf_dir), ["cluster_id"],
                              {"sz": ("count", None)})
    hist = partial_aggregate(
        sizes.map_batches(lambda df: df[["sz"]], batch_format="pandas"),
        ["sz"], {"n_clusters": ("count", None)})
    return hist.map_batches(
        lambda df: df.astype({"sz": "int64", "n_clusters": "int64"})
        .rename(columns={"sz": "cluster_size"}),
        batch_format="pandas")


QUERIES["dup_cluster_stats"] = dup_cluster_stats
ORACLE_SQL["dup_cluster_stats"] = f"""
    SELECT sz AS cluster_size, CAST(COUNT(*) AS BIGINT) AS n_clusters
    FROM (SELECT cluster_id, CAST(COUNT(*) AS BIGINT) AS sz
          FROM ({ORACLE_SQL["dup_clusters"]})
          GROUP BY cluster_id)
    GROUP BY sz"""


RA_UNIT = 10**6


def ra_linkpred(sf_dir: str) -> rd.Dataset:
    """Resource-allocation link prediction (Zhou et al. 2009) over the
    star-encoded duplication graph: linkpred_dups' hub-discounted twin
    — each witness hub z contributes RA_UNIT // deg(z), so a leaf pair
    under a small tight group outranks one under a giant template hub
    (exactly the confidence ordering a dedup reviewer wants). Purely
    rational (floor division of the unit by an integer degree), so the
    oracle replays it exactly; one extra bounded degree aggregate +
    partitioned join vs the unweighted count. Returns
    (doc_a, doc_b, ra_score) for non-adjacent pairs."""
    from . import graph

    edges = dedup.chunk_star_edges(
        rp(sf_dir, "documents", ["doc_id", "text"]))
    cn = graph.common_neighbor_counts(edges, "doc_a", "doc_b",
                                      weight_unit=RA_UNIT)
    return cn.map_batches(
        lambda df: df.rename(columns={"a": "doc_a", "b": "doc_b",
                                      "n_common": "ra_score"}),
        batch_format="pandas")


QUERIES["ra_linkpred"] = ra_linkpred
ORACLE_SQL["ra_linkpred"] = f"""
    WITH {_STAR_EDGE_CTE},
    sym AS (SELECT a AS m, b AS n FROM e
            UNION ALL SELECT b, a FROM e),
    deg AS (SELECT m, CAST(COUNT(*) AS BIGINT) AS deg
            FROM sym GROUP BY m),
    w AS (SELECT l.n AS a, r.n AS c,
                 CAST(SUM({RA_UNIT} // dg.deg) AS BIGINT) AS ra_score
          FROM sym l JOIN sym r ON l.m = r.m AND l.n < r.n
          JOIN deg dg ON dg.m = l.m
          GROUP BY l.n, r.n)
    SELECT w.a AS doc_a, w.c AS doc_b, w.ra_score
    FROM w WHERE NOT EXISTS (SELECT 1 FROM e
                             WHERE e.a = w.a AND e.b = w.c)"""


# -------------------------------------------------- round-4 seventh batch
# (incremental k-means assignment, tokenizer fertility report)

def kmeans_assign_new(sf_dir: str) -> rd.Dataset:
    """Incremental k-means: assign a NEW snapshot's vectors to the
    EXISTING centroids without re-clustering — the daily-ingest path of
    a clustered 100 TB embedding store (re-running Lloyd on the union
    every day is the anti-pattern; assign first, re-cluster on drift).
    Completes the incremental family (dedup_incremental,
    text_index_incremental, sim_ann_ivf_incremental) for the k-means
    side. New snapshot = the planted negated vectors (vec_id % 3 == 0,
    x → -x, id + 10^7 — negation quantizes to exactly -q on both
    sides, the corpus_diff planting pattern). The base clustering's
    final centroid table comes straight out of
    similarity.kmeans_lloyd_int(return_centroids=True) and broadcasts
    once; assignment is ONE streaming map over the new vectors. The
    oracle re-derives the same centroids via the shared
    _kmeans_cte_parts chain and assigns the negated vectors in SQL.
    Returns (vec_id, cluster, dist2) for the new rows."""
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    _, C, live = similarity.kmeans_lloyd_int(
        emb, k=KMEANS_K, n_rounds=KMEANS_ROUNDS, return_centroids=True)

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["vec_id"].to_numpy() % 3) == 0
        if not m.any():
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "embedding": pd.Series([], dtype=object)})
        d = df[m]
        M = np.stack(d["embedding"].to_numpy()).astype(np.float64) * -1.0
        return pd.DataFrame({
            "vec_id": d["vec_id"].astype(np.int64).to_numpy()
            + 10_000_000,
            "embedding": list(M)})

    new = emb.map_batches(plant, batch_format="pandas")

    def assign_new(df: pd.DataFrame) -> pd.DataFrame:
        P = np.stack(df["embedding"].to_numpy()).astype(np.float64) * 1000.0
        Q = (np.sign(P) * np.floor(np.abs(P) + 0.5)).astype(np.int64)
        D = ((Q * Q).sum(axis=1)[:, None] - 2 * (Q @ C.T)
             + (C * C).sum(axis=1)[None, :])
        a = np.argmin(D, axis=1)
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64).to_numpy(),
            "cluster": live[a].astype(np.int64),
            "dist2": D[np.arange(len(Q)), a].astype(np.int64)})

    return new.map_batches(assign_new, batch_format="pandas")


def _kmeans_assign_new_oracle_sql(k: int = KMEANS_K,
                                  n_rounds: int = KMEANS_ROUNDS) -> str:
    parts = _kmeans_cte_parts(k, n_rounds)
    cN = f"c{n_rounds - 1}"
    parts.append("""nv AS (
      SELECT vec_id + 10000000 AS vec_id, i, -q AS q
      FROM e WHERE vec_id % 3 = 0)""")
    parts.append(f"""dn AS (
      SELECT nv.vec_id, {cN}.c,
             SUM((nv.q - {cN}.v) * (nv.q - {cN}.v)) AS dist2
      FROM nv JOIN {cN} ON nv.i = {cN}.i
      GROUP BY nv.vec_id, {cN}.c)""")
    parts.append("""an AS (
      SELECT vec_id, c, dist2
      FROM (SELECT *, row_number() OVER (PARTITION BY vec_id
                                         ORDER BY dist2, c) AS rn
            FROM dn)
      WHERE rn = 1)""")
    return f"""
    WITH {', '.join(parts)}
    SELECT vec_id, CAST(c AS BIGINT) AS cluster,
           CAST(dist2 AS BIGINT) AS dist2
    FROM an"""


QUERIES["kmeans_assign_new"] = kmeans_assign_new
ORACLE_SQL["kmeans_assign_new"] = _kmeans_assign_new_oracle_sql()


def tokenizer_fertility(sf_dir: str) -> rd.Dataset:
    """Per-language tokenizer fertility (BPE tokens per whitespace
    word) under the distributed-trained merge table — the
    multilingual-tokenizer health metric (a language with fertility 3×
    another is under-served by the shared vocabulary and will eat 3×
    the context window). One partitioned join of the bpe_encode
    per-doc counts onto the documents' lang column with the per-lang
    reduce fused into the join buckets, then a bounded aggregate;
    fertility is an exact floor-ppm ratio. Oracle = the serial
    trainer+apply VALUES table (the bpe_encode oracle) joined to
    documents and aggregated in SQL. Returns
    (lang, n_words, n_bpe_tokens, fertility_ppm)."""
    enc = q_bpe_encode(sf_dir)
    langs = rp(sf_dir, "documents", ["doc_id", "lang"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["lang", "n_words", "n_bpe_tokens"]]
        return (out.groupby("lang", sort=False, as_index=False)
                .agg(n_words=("n_words", "sum"),
                     n_bpe_tokens=("n_bpe_tokens", "sum"))
                .infer_objects())

    j = hash_join(enc, langs, "doc_id", "doc_id",
                  left_cols=["doc_id", "n_words", "n_bpe_tokens"],
                  right_cols=["doc_id", "lang"],
                  bucket_fn=pre)
    agg = partial_aggregate(j, ["lang"],
                            {"n_words": ("sum", "n_words"),
                             "n_bpe_tokens": ("sum", "n_bpe_tokens")})

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        w = df["n_words"].to_numpy(np.int64)
        b = df["n_bpe_tokens"].to_numpy(np.int64)
        return pd.DataFrame({
            "lang": df["lang"].to_numpy(),
            "n_words": w, "n_bpe_tokens": b,
            "fertility_ppm": np.where(w > 0, (1_000_000 * b)
                                      // np.where(w > 0, w, 1), 0)
            .astype(np.int64)})

    return agg.map_batches(fin, batch_format="pandas")


def _tokenizer_fertility_oracle_sql(tier: str = "correctness") -> str:
    return f"""
    SELECT d.lang, CAST(SUM(v.n_words) AS BIGINT) AS n_words,
           CAST(SUM(v.n_bpe_tokens) AS BIGINT) AS n_bpe_tokens,
           CAST(CASE WHEN SUM(v.n_words) = 0 THEN 0
                ELSE (1000000 * SUM(v.n_bpe_tokens)) // SUM(v.n_words)
                END AS BIGINT) AS fertility_ppm
    FROM ({_bpe_encode_oracle_sql(tier)}) v
    JOIN documents d USING (doc_id)
    GROUP BY d.lang"""


QUERIES["tokenizer_fertility"] = tokenizer_fertility
ORACLE_SQL["tokenizer_fertility"] = _tokenizer_fertility_oracle_sql()
TIER_ORACLE_BUILDERS["tokenizer_fertility"] = _tokenizer_fertility_oracle_sql


# -------------------------------------------------- round-4 eighth batch
# (HAVING-filtered join chain, language-ID confusion matrix)

Q18_QTY = 300


def q18_large_orders(sf_dir: str) -> rd.Dataset:
    """TPC-H Q18 (large-volume customers): orders whose total line
    quantity exceeds Q18_QTY, joined back to orders and customers —
    the HAVING-then-join shape (aggregate first, and only the tiny
    qualifying key set flows into the joins; the wrong plan joins
    first and aggregates a corpus-sized intermediate). Quantities are
    integral in the fixture (round → int64, exact). Both joins run
    partitioned; the HAVING filter is applied right on the bucketed
    aggregate's output, so join input is |qualifying orders| rows.
    Returns (c_name, o_custkey, o_orderkey, sum_qty, total_cents)."""
    li = rp(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def q(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].astype(np.int64).to_numpy(),
            "sum_qty": np.round(df["l_quantity"].to_numpy())
            .astype(np.int64)})

    agg = partial_aggregate(li.map_batches(q, batch_format="pandas"),
                            ["l_orderkey"], {"sum_qty": ("sum", "sum_qty")})
    big = agg.map_batches(lambda df: df[df["sum_qty"] > Q18_QTY],
                          batch_format="pandas")
    orders = rp(sf_dir, "orders",
                ["o_orderkey", "o_custkey", "o_totalprice"])
    j1 = hash_join(big, orders, "l_orderkey", "o_orderkey",
                   left_cols=["l_orderkey", "sum_qty"],
                   right_cols=["o_orderkey", "o_custkey",
                               "o_totalprice"])
    cust = rp(sf_dir, "customer", ["c_custkey", "c_name"])
    j2 = hash_join(j1, cust, "o_custkey", "c_custkey",
                   left_cols=["l_orderkey", "sum_qty", "o_custkey",
                              "o_totalprice"],
                   right_cols=["c_custkey", "c_name"])
    return j2.map_batches(
        lambda df: pd.DataFrame({
            "c_name": df["c_name"].to_numpy(),
            "o_custkey": df["o_custkey"].astype(np.int64).to_numpy(),
            "o_orderkey": df["l_orderkey"].astype(np.int64).to_numpy(),
            "sum_qty": df["sum_qty"].astype(np.int64).to_numpy(),
            "total_cents": _cents(df["o_totalprice"]).to_numpy()}),
        batch_format="pandas")


QUERIES["q18_large_orders"] = q18_large_orders
ORACLE_SQL["q18_large_orders"] = f"""
    WITH s AS (
      SELECT l_orderkey,
             CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT)
               AS sum_qty
      FROM lineitem GROUP BY l_orderkey
      HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT)) > {Q18_QTY})
    SELECT c.c_name, o.o_custkey, o.o_orderkey, s.sum_qty,
           CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS total_cents
    FROM s JOIN orders o ON s.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey"""


def langid_confusion(sf_dir: str) -> rd.Dataset:
    """Language-ID confusion matrix: predicted (text_langid's
    profile-overlap argmax) vs labeled lang, with counts — the
    classifier-health report a multilingual curation pipeline reads
    before trusting langid-based routing (which languages bleed into
    which). One partitioned join of predictions onto labels with the
    per-cell reduce fused into the join buckets; the matrix is bounded
    by |langs|². Oracle composes the generated langid replay with the
    same GROUP BY. Returns (lang, pred_lang, n)."""
    pred = q_text_langid(sf_dir)
    actual = rp(sf_dir, "documents", ["doc_id", "lang"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["lang", "pred_lang"]].assign(n=np.int64(1))
        return (out.groupby(["lang", "pred_lang"], sort=False,
                            as_index=False).agg(n=("n", "sum"))
                .infer_objects())

    j = hash_join(pred, actual, "doc_id", "doc_id",
                  left_cols=["doc_id", "pred_lang"],
                  right_cols=["doc_id", "lang"],
                  bucket_fn=pre)
    out = partial_aggregate(j, ["lang", "pred_lang"],
                            {"n": ("sum", "n")})
    return out.map_batches(lambda df: df.astype({"n": "int64"}),
                           batch_format="pandas")


QUERIES["langid_confusion"] = langid_confusion
ORACLE_SQL["langid_confusion"] = f"""
    SELECT d.lang, p.pred_lang, CAST(COUNT(*) AS BIGINT) AS n
    FROM ({_langid_oracle_sql()}) p
    JOIN documents d USING (doc_id)
    GROUP BY d.lang, p.pred_lang"""


# --------------------------------------------------- round-4 ninth batch
# (PQ asymmetric-distance search — the serving path over the codes)

PQ_SEARCH_K = 10


def ann_pq_search(sf_dir: str) -> rd.Dataset:
    """ANN search over PQ codes by asymmetric distance computation
    (ADC, Jégou et al. 2011) — the serving path embedding_pq's codes
    exist for: the query stays full-precision, each subspace
    pre-computes its |centroids| query→centroid distances ONCE (the
    distance table), and every database vector costs two table lookups
    + one add instead of a d-dim dot product. Query = the smallest
    vec_id's vector (the MMR convention), excluded from candidates.
    Exact-integer end to end: quantized geometry, integer squared
    distances, ties (adc, then vec_id). Shape: the two centroid sets
    + distance tables broadcast once (k × d ints); codes assign and
    ADC sums in ONE streaming map (no join — the fused serving form);
    top-k via the empty-key partial top-k. The oracle extends the
    PQ round-replay chain with the query's distance tables and the
    same ranking. Returns (vec_id, rank, adc_dist2)."""
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    def half(lo: int, hi: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            M = np.stack(df["embedding"].to_numpy())[:, lo:hi]
            return pd.DataFrame({
                "vec_id": df["vec_id"].astype(np.int64).to_numpy(),
                "embedding": list(M)})
        return f

    mn = partial_aggregate(
        emb.map_batches(
            lambda df: pd.DataFrame({
                "v": df["vec_id"].astype(np.int64).to_numpy()}),
            batch_format="pandas"),
        [], {"mn": ("min", "v")}).to_pandas()
    qid = int(mn["mn"].iloc[0])
    qrow = emb.map_batches(lambda df: df[df["vec_id"] == qid],
                           batch_format="pandas").to_pandas()
    qfull = np.asarray(qrow["embedding"].iloc[0], dtype=np.float64)

    tables = []
    for lo, hi in ((0, PQ_SPLIT), (PQ_SPLIT, 2 * PQ_SPLIT)):
        _, C, live = similarity.kmeans_lloyd_int(
            emb.map_batches(half(lo, hi), batch_format="pandas"),
            k=PQ_K, n_rounds=KMEANS_ROUNDS, return_centroids=True)
        qh = qfull[lo:hi] * 1000.0
        qq = (np.sign(qh) * np.floor(np.abs(qh) + 0.5)).astype(np.int64)
        dq = ((C - qq[None, :]) ** 2).sum(axis=1).astype(np.int64)
        tables.append((lo, hi, C, dq))

    def adc_score(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["vec_id"].to_numpy() != qid]
        if not len(d):
            return pd.DataFrame({
                "vec_id": pd.Series([], dtype="int64"),
                "adc_dist2": pd.Series([], dtype="int64")})
        M = np.stack(d["embedding"].to_numpy()).astype(np.float64)
        adc = np.zeros(len(d), dtype=np.int64)
        for lo, hi, C, dq in tables:
            P = M[:, lo:hi] * 1000.0
            Q = (np.sign(P) * np.floor(np.abs(P) + 0.5)).astype(np.int64)
            D = ((Q * Q).sum(axis=1)[:, None] - 2 * (Q @ C.T)
                 + (C * C).sum(axis=1)[None, :])
            adc += dq[np.argmin(D, axis=1)]
        return pd.DataFrame({
            "vec_id": d["vec_id"].astype(np.int64).to_numpy(),
            "adc_dist2": adc})

    scored = emb.map_batches(adc_score, batch_format="pandas")
    top = grouped_topk(scored, [], ["adc_dist2", "vec_id"], PQ_SEARCH_K,
                       ascending=[True, True])
    return top.map_batches(
        lambda df: pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64).to_numpy(),
            "rank": df["rk"].astype(np.int64).to_numpy(),
            "adc_dist2": df["adc_dist2"].astype(np.int64).to_numpy()}),
        batch_format="pandas")


def _ann_pq_oracle_sql(k: int = PQ_K,
                       n_rounds: int = KMEANS_ROUNDS) -> str:
    parts = [f"""seeds AS (
      SELECT vec_id,
             CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
               AS c
      FROM (SELECT DISTINCT vec_id FROM embeddings
            ORDER BY vec_id LIMIT {k}))""",
             "qid AS (SELECT MIN(vec_id) AS id FROM embeddings)"]
    parts += _pq_half_sql("xa", 0, PQ_SPLIT, k, n_rounds)
    parts += _pq_half_sql("xb", PQ_SPLIT, 2 * PQ_SPLIT, k, n_rounds)
    cN = f"c{n_rounds - 1}"
    for p in ("xa", "xb"):
        parts.append(f"""{p}dq AS (
      SELECT {p}{cN}.c,
             CAST(SUM(({p}{cN}.v - q.q) * ({p}{cN}.v - q.q)) AS BIGINT)
               AS d
      FROM {p}{cN}
      JOIN (SELECT i, q FROM {p}e
            WHERE vec_id = (SELECT id FROM qid)) q
        ON {p}{cN}.i = q.i
      GROUP BY {p}{cN}.c)""")
    parts.append(f"""adc AS (
      SELECT a.vec_id, da.d + db.d AS adc_dist2
      FROM xaa{n_rounds} a JOIN xba{n_rounds} b USING (vec_id)
      JOIN xadq da ON da.c = a.c
      JOIN xbdq db ON db.c = b.c
      WHERE a.vec_id <> (SELECT id FROM qid))""")
    return f"""
    WITH {', '.join(parts)}
    SELECT vec_id, CAST(rank AS BIGINT) AS rank,
           CAST(adc_dist2 AS BIGINT) AS adc_dist2
    FROM (SELECT vec_id, adc_dist2,
                 row_number() OVER (ORDER BY adc_dist2, vec_id) AS rank
          FROM adc)
    WHERE rank <= {PQ_SEARCH_K}"""


QUERIES["ann_pq_search"] = ann_pq_search
ORACLE_SQL["ann_pq_search"] = _ann_pq_oracle_sql()


# --------------------------------------------------- round-4 tenth batch
# (the embedding-side composed end-to-end chain)

EP_SHARDS = 8


def embedding_prep(sf_dir: str) -> rd.Dataset:
    """The composed EMBEDDING-corpus preparation chain — the vector
    counterpart of training_prep / rag_prep / mm_prep, gated end to end
    by ONE composed DuckDB oracle: SemDeDup near-dup drop → per-dim
    int8 max-abs quantization of the KEPT set (scales derive from the
    kept vectors only — dropping dups before fitting the scale is the
    point of ordering the chain this way) → content-addressed shard
    manifest (md5(vec_id) % EP_SHARDS, the rag_prep shard rule).
    Shapes all audited upstream: the kept set joins partitioned, the
    (dim, m) scale table tree-merges and broadcasts once, codes stream
    in one map, and the manifest is a bounded aggregate — the driver
    sees EP_SHARDS rows. Returns
    (shard, n_vecs, sum_code_l1, sum_sse_q)."""
    from .relops import semi_anti_filter_scalable

    kept = q_semantic_dedup(sf_dir)
    # the embedding column must cross a groupby shuffle here, and
    # ray's TensorArray pandas extension cannot concat its blocks
    # (object-ndarray-of-ndarrays TypeError) — re-type it to plain
    # object lists first; qstack's np.stack accepts both forms
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "vec_id": df["vec_id"].astype("int64").to_numpy(),
                "embedding": [np.asarray(v, dtype=np.float64).tolist()
                              for v in df["embedding"]]}),
            batch_format="pandas")
    ke = semi_anti_filter_scalable(
        emb, "vec_id", kept.map_batches(
            lambda df: df[["vec_id"]], batch_format="pandas"),
        cols=["vec_id", "embedding"])

    def qstack(df: pd.DataFrame) -> np.ndarray:
        # the embedding_quantize kernel (away-from-zero ROUND parity)
        p = (np.stack(df["embedding"].to_numpy()).astype(np.float64)
             * EQ_SCALE)
        return (np.sign(p) * np.floor(np.abs(p) + 0.5)).astype(np.int64)

    def dim_max(df: pd.DataFrame) -> pd.DataFrame:
        q = qstack(df)
        return pd.DataFrame({
            "i": np.arange(q.shape[1], dtype=np.int64),
            "m": np.abs(q).max(axis=0).astype(np.int64)})

    mx = partial_aggregate(
        ke.map_batches(dim_max, batch_format="pandas"),
        ["i"], {"m": ("max", "m")}).to_pandas()
    m = np.zeros(int(mx["i"].max()) + 1, dtype=np.int64)
    m[mx["i"].to_numpy()] = mx["m"].to_numpy()

    def audit(df: pd.DataFrame) -> pd.DataFrame:
        q = qstack(df)
        sgn, aq = np.sign(q), np.abs(q)
        safe = np.where(m == 0, 1, m)
        code = np.where(m == 0, 0, sgn * ((aq * EQ_LEVELS) // safe))
        recon = np.sign(code) * ((np.abs(code) * m) // EQ_LEVELS)
        err = q - recon
        shard = np.fromiter(
            (int(dedup.md5_hex(str(int(v)))[:8], 16) % EP_SHARDS
             for v in df["vec_id"]), dtype=np.int64, count=len(df))
        out = pd.DataFrame({
            "shard": shard,
            "n_vecs": np.ones(len(df), dtype=np.int64),
            "sum_code_l1": np.abs(code).sum(axis=1).astype(np.int64),
            "sum_sse_q": (err * err).sum(axis=1).astype(np.int64)})
        return (out.groupby("shard", sort=False, as_index=False)
                .agg(n_vecs=("n_vecs", "sum"),
                     sum_code_l1=("sum_code_l1", "sum"),
                     sum_sse_q=("sum_sse_q", "sum")).infer_objects())

    return partial_aggregate(
        ke.map_batches(audit, batch_format="pandas"),
        ["shard"], {"n_vecs": ("sum", "n_vecs"),
                    "sum_code_l1": ("sum", "sum_code_l1"),
                    "sum_sse_q": ("sum", "sum_sse_q")})


QUERIES["embedding_prep"] = embedding_prep
ORACLE_SQL["embedding_prep"] = f"""
    WITH k AS MATERIALIZED ({ORACLE_SQL["semantic_dedup"]}),
    e AS MATERIALIZED (
      SELECT s.vec_id, CAST(i - 1 AS BIGINT) AS i,
             CAST(ROUND(CAST(x AS DOUBLE) * {EQ_SCALE}) AS BIGINT) AS q
      FROM (SELECT vec_id, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings) s
      WHERE s.vec_id IN (SELECT vec_id FROM k)),
    mx AS (SELECT i, MAX(ABS(q)) AS m FROM e GROUP BY i),
    c AS (SELECT vec_id, q, m,
                 CASE WHEN m = 0 THEN 0
                      WHEN q >= 0 THEN (q * {EQ_LEVELS}) // m
                      ELSE -((-q * {EQ_LEVELS}) // m) END AS code
          FROM e JOIN mx USING (i)),
    r AS (SELECT vec_id, code, q, m,
                 CASE WHEN code >= 0 THEN (code * m) // {EQ_LEVELS}
                      ELSE -((-code * m) // {EQ_LEVELS}) END AS recon
          FROM c),
    a AS (SELECT vec_id,
                 CAST(SUM(ABS(code)) AS BIGINT) AS code_l1,
                 CAST(SUM((q - recon) * (q - recon)) AS BIGINT) AS sse_q
          FROM r GROUP BY vec_id)
    SELECT CAST(CAST(('0x' || substr(md5(CAST(vec_id AS VARCHAR)), 1, 8))
                AS UBIGINT) % {EP_SHARDS} AS BIGINT) AS shard,
           CAST(COUNT(*) AS BIGINT) AS n_vecs,
           CAST(SUM(code_l1) AS BIGINT) AS sum_code_l1,
           CAST(SUM(sse_q) AS BIGINT) AS sum_sse_q
    FROM a GROUP BY 1"""


# ------------------------------------------------- round-4 eleventh batch

#: boolean retrieval probe: (hash AND window AND NOT vector) OR
#: (stream AND merge) — clause terms chosen from the corpus vocabulary
BOOL_AND1 = ("hash", "window")
BOOL_NOT1 = "vector"
BOOL_AND2 = ("stream", "merge")
_BOOL_TERMS = tuple(sorted({*BOOL_AND1, BOOL_NOT1, *BOOL_AND2}))


def boolean_search(sf_dir: str) -> rd.Dataset:
    """Boolean retrieval (AND / OR / NOT) through the PERSISTED inverted
    index: the probe terms' postings come from ONLY their hash-bucket
    partitions (5 terms touch <=5/64 of the index files at any corpus
    size), per-doc term membership folds to one bitmask row per
    candidate doc in a bucketed aggregate, and the clause logic is a
    pure bit test on that mask — the corpus text is never re-read.
    NOT is evaluated within a conjunctive clause (candidates all come
    from positive-term postings, so the negative term only ever REMOVES
    docs — the classic safe-NOT rule of boolean IR). Returns
    (doc_id, clause1, clause2) for matching docs."""
    from . import search

    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    out = _text_index_dir(sf_dir)
    search.build_text_index(docs, out, num_buckets=64)
    post = search.text_index_postings(out, _BOOL_TERMS, num_buckets=64)
    bit = {t: 1 << i for i, t in enumerate(_BOOL_TERMS)}

    def to_bits(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "mask": df["token"].map(bit).astype("int64")})

    masks = partial_aggregate(post.map_batches(to_bits, batch_format="pandas"),
                              ["doc_id"], {"mask": ("sum", "mask")})
    m1 = bit[BOOL_AND1[0]] | bit[BOOL_AND1[1]]
    mn = bit[BOOL_NOT1]
    m2 = bit[BOOL_AND2[0]] | bit[BOOL_AND2[1]]

    def clauses(df: pd.DataFrame) -> pd.DataFrame:
        mk = df["mask"].to_numpy(dtype=np.int64)
        c1 = ((mk & m1) == m1) & ((mk & mn) == 0)
        c2 = (mk & m2) == m2
        keep = c1 | c2
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(dtype=np.int64)[keep],
            "clause1": c1[keep].astype(np.int64),
            "clause2": c2[keep].astype(np.int64)})

    return masks.map_batches(clauses, batch_format="pandas")


QUERIES["boolean_search"] = boolean_search
ORACLE_SQL["boolean_search"] = f"""
    WITH tok AS (
      SELECT DISTINCT doc_id, token
      FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
            FROM documents)
      WHERE token IN ({', '.join(repr(t) for t in _BOOL_TERMS)})),
    m AS (SELECT doc_id,
                 MAX(CASE WHEN token = '{BOOL_AND1[0]}' THEN 1 ELSE 0 END) AS a1,
                 MAX(CASE WHEN token = '{BOOL_AND1[1]}' THEN 1 ELSE 0 END) AS a2,
                 MAX(CASE WHEN token = '{BOOL_NOT1}' THEN 1 ELSE 0 END) AS nt,
                 MAX(CASE WHEN token = '{BOOL_AND2[0]}' THEN 1 ELSE 0 END) AS b1,
                 MAX(CASE WHEN token = '{BOOL_AND2[1]}' THEN 1 ELSE 0 END) AS b2
          FROM tok GROUP BY doc_id)
    SELECT doc_id,
           CAST(CASE WHEN a1 = 1 AND a2 = 1 AND nt = 0 THEN 1 ELSE 0 END
                AS BIGINT) AS clause1,
           CAST(CASE WHEN b1 = 1 AND b2 = 1 THEN 1 ELSE 0 END
                AS BIGINT) AS clause2
    FROM m
    WHERE (a1 = 1 AND a2 = 1 AND nt = 0) OR (b1 = 1 AND b2 = 1)"""


#: eval probe includes the one genuinely RARE corpus token ('dup',
#: ~5% df) so BM25's idf is positive for it and the ranking actually
#: surfaces the relevant set (the 75%-df tokens all carry negative idf
#: and would push relevant docs to the bottom — a degenerate all-zero
#: eval)
RANK_TERMS = ("dup", "line", "hash")
REL_MIN_TERMS = 2   # a doc is "relevant" iff it has >= 2 of the 3 probe terms
RANK_EVAL_KS = (5, 10, 25, 50)


def ranking_eval(sf_dir: str) -> pd.DataFrame:
    """Retrieval-quality evaluation of the BM25 ranking against a
    corpus-derived relevance set (rel = doc carries >= REL_MIN_TERMS of
    the probe terms): hits@k, precision@k and average-precision@k for
    each cutoff, all exact integers. Scale shape: the ranking is the
    bounded BM25 top-50, relevance flags come from the probe terms'
    bucket-pruned index postings (one row per candidate doc through a
    bucketed aggregate — the corpus never moves), R folds to one row,
    and only the <=50 (rank, rel) rows ever reach the driver. The
    quantization (micro-floor per position, then floor by min(R, k))
    is replayed verbatim by the SQL oracle."""
    from . import search

    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    out = _text_index_dir(sf_dir)
    search.build_text_index(docs, out, num_buckets=64)
    post = search.text_index_postings(out, RANK_TERMS, num_buckets=64)
    nt = partial_aggregate(
        post.map_batches(lambda df: df[["doc_id"]].astype("int64"),
                         batch_format="pandas"),
        ["doc_id"], {"nt": ("count", None)})
    rel = nt.map_batches(
        lambda df: df[df["nt"] >= REL_MIN_TERMS][["doc_id"]],
        batch_format="pandas")
    r_total = int(partial_aggregate(
        rel, [], {"r": ("count", None)}).to_pandas()["r"][0])

    top = search.bm25_topk(docs, RANK_TERMS, k=50).to_pandas()
    top_ids = set(top["doc_id"].astype("int64"))
    rt = rel.map_batches(
        lambda df: df[df["doc_id"].isin(top_ids)],
        batch_format="pandas").to_pandas()
    # an all-empty result loses its schema on the way to pandas
    rel_top = (set(rt["doc_id"].astype("int64"))
               if "doc_id" in rt.columns else set())

    top = top.sort_values("rank", ignore_index=True)
    is_rel = top["doc_id"].astype("int64").isin(rel_top).to_numpy()
    ranks = top["rank"].to_numpy(dtype=np.int64)
    cum = np.cumsum(is_rel.astype(np.int64))
    p_micro = cum * 1_000_000 // ranks          # precision@i, micro-floored
    rows = []
    for k in RANK_EVAL_KS:
        at = ranks <= k
        hits = int(cum[at][-1]) if at.any() else 0
        ap = int(p_micro[at & is_rel].sum()) // max(1, min(r_total, k))
        rows.append((k, hits, hits * 1_000_000 // k, ap))
    return pd.DataFrame(rows, columns=["k", "hits", "prec_micro",
                                       "ap_micro"]).astype("int64")


QUERIES["ranking_eval"] = ranking_eval
ORACLE_SQL["ranking_eval"] = f"""
    WITH top AS MATERIALIZED ({search.bm25_oracle_sql(RANK_TERMS, k=50)}),
    nt AS (
      SELECT doc_id, COUNT(DISTINCT token) AS nt
      FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
            FROM documents)
      WHERE token IN ({', '.join(repr(t) for t in sorted(RANK_TERMS))})
      GROUP BY doc_id),
    rel AS MATERIALIZED (
      SELECT doc_id FROM nt WHERE nt >= {REL_MIN_TERMS}),
    rtot AS MATERIALIZED (SELECT COUNT(*) AS r FROM rel),
    rr AS MATERIALIZED (
      SELECT t.rank,
             CASE WHEN r.doc_id IS NULL THEN 0 ELSE 1 END AS is_rel,
             SUM(CASE WHEN r.doc_id IS NULL THEN 0 ELSE 1 END)
               OVER (ORDER BY t.rank) AS cum
      FROM top t LEFT JOIN rel r USING (doc_id)),
    pm AS MATERIALIZED (
      SELECT rank, is_rel, cum, (cum * 1000000) // rank AS p_micro
      FROM rr),
    ks(k) AS (VALUES (5), (10), (25), (50))
    SELECT CAST(k AS BIGINT) AS k,
           CAST(COALESCE((SELECT MAX(cum) FROM pm WHERE rank <= k), 0)
                AS BIGINT) AS hits,
           CAST(COALESCE((SELECT MAX(cum) FROM pm WHERE rank <= k), 0)
                * 1000000 // k AS BIGINT) AS prec_micro,
           CAST(COALESCE((SELECT SUM(p_micro) FROM pm
                          WHERE rank <= k AND is_rel = 1), 0)
                // GREATEST(1, LEAST((SELECT r FROM rtot), k))
                AS BIGINT) AS ap_micro
    FROM ks"""


def canonical_docs(sf_dir: str) -> rd.Dataset:
    """Dedup SURVIVORSHIP — the step a real pipeline runs after
    connected components: per duplicate cluster pick the canonical
    representative by (longest n_chars, then smallest doc_id) and
    report the cluster census. Scale shape: the CC label table (dup
    nodes only — orders of magnitude smaller than the corpus) joins
    the doc metadata partitioned, the per-cluster arg-max rides
    grouped_topk's two bounded stages, and the member count is a
    bucketed aggregate; both outputs are one row per CLUSTER and join
    partitioned. Returns (cluster_id, canonical_id, max_chars,
    n_members)."""
    labels = q_dup_clusters(sf_dir)
    meta = rp(sf_dir, "documents", ["doc_id", "n_chars"])
    j = hash_join(labels, meta, left_on="doc_id", right_on="doc_id",
                  right_cols=["doc_id", "n_chars"])
    top1 = grouped_topk(j, ["cluster_id"], ["n_chars", "doc_id"], k=1,
                        ascending=[False, True])
    top1 = top1.map_batches(
        lambda df: pd.DataFrame({
            "cluster_id": df["cluster_id"].astype("int64"),
            "canonical_id": df["doc_id"].astype("int64"),
            "max_chars": df["n_chars"].astype("int64")}),
        batch_format="pandas")
    census = partial_aggregate(labels, ["cluster_id"],
                               {"n_members": ("count", None)})
    out = hash_join(top1, census, left_on="cluster_id",
                    right_on="cluster_id")
    cols = ["cluster_id", "canonical_id", "max_chars", "n_members"]
    return out.map_batches(lambda df: df[cols].astype("int64"),
                           batch_format="pandas")


QUERIES["canonical_docs"] = canonical_docs
ORACLE_SQL["canonical_docs"] = f"""
    WITH cc AS MATERIALIZED ({ORACLE_SQL["dup_clusters"]}),
    j AS (SELECT cc.cluster_id, cc.doc_id, d.n_chars
          FROM cc JOIN documents d USING (doc_id)),
    r AS (SELECT cluster_id, doc_id, n_chars,
                 ROW_NUMBER() OVER (PARTITION BY cluster_id
                                    ORDER BY n_chars DESC, doc_id) AS rn
          FROM j)
    SELECT r.cluster_id,
           CAST(r.doc_id AS BIGINT) AS canonical_id,
           CAST(r.n_chars AS BIGINT) AS max_chars,
           CAST(c.n_members AS BIGINT) AS n_members
    FROM r JOIN (SELECT cluster_id, COUNT(*) AS n_members
                 FROM cc GROUP BY cluster_id) c USING (cluster_id)
    WHERE r.rn = 1"""


def q6_forecast_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q6 (forecast revenue change): a pure filter-then-global-sum
    over lineitem — prune to four columns at the read, filter and
    partial-sum inside one map stage in exact cents x centi-discount
    integers, tree-merge one row. Reference analog: the G3-style global
    counters (SURVEY §2 G-ops); the simplest possible scan shape at
    100 TB (no shuffle at all)."""
    li = rp(sf_dir, "lineitem",
            ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        disc = np.round(df["l_discount"].to_numpy(dtype=np.float64)
                        * 100).astype(np.int64)
        keep = ((df["l_shipdate"] >= pd.Timestamp("1996-01-01"))
                & (df["l_shipdate"] < pd.Timestamp("1997-01-01"))
                & (disc >= 5) & (disc <= 7)
                & (df["l_quantity"].to_numpy(dtype=np.float64) < 24))
        price = _cents(df["l_extendedprice"][keep]).to_numpy()
        return pd.DataFrame({
            "rev": price * disc[keep.to_numpy()],
            "n": np.ones(int(keep.sum()), dtype=np.int64)})

    out = partial_aggregate(li.map_batches(prep, batch_format="pandas"),
                            [], {"revenue_e4": ("sum", "rev"),
                                 "n_lines": ("sum", "n")})
    return out.map_batches(lambda df: df.astype("int64"),
                           batch_format="pandas")


QUERIES["q6_forecast_revenue"] = q6_forecast_revenue
ORACLE_SQL["q6_forecast_revenue"] = """
    SELECT CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                    * CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT)
             AS revenue_e4,
           CAST(COUNT(*) AS BIGINT) AS n_lines
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate < TIMESTAMP '1997-01-01'
      AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
      AND l_quantity < 24"""


# -------------------------------------------------- round-4 twelfth batch

PROX_K = 20


def proximity_rerank(sf_dir: str) -> rd.Dataset:
    """Proximity retrieval (smallest window covering all probe terms)
    from the positional index sidecar — the slop/SpanNear tier between
    BM25 and exact phrase. Engine runs the O(occurrences) two-pointer
    sweep per candidate doc; the oracle writes the O(prod tf) position
    cross product, mathematically the same minimum. Probe = RANK_TERMS
    (the rare-token query the eval family shares)."""
    from . import search

    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    out = _text_index_dir(sf_dir)
    search.build_text_index(docs, out, num_buckets=64)
    return search.proximity_topk_from_index(out, RANK_TERMS, k=PROX_K,
                                            num_buckets=64)


QUERIES["proximity_rerank"] = proximity_rerank
ORACLE_SQL["proximity_rerank"] = f"""
    WITH tok AS (
      SELECT doc_id, token, CAST(i - 1 AS BIGINT) AS pos
      FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token,
                   generate_subscripts(string_split(text, ' '), 1) AS i
            FROM documents)),
    p0 AS (SELECT doc_id, pos FROM tok WHERE token = '{RANK_TERMS[0]}'),
    p1 AS (SELECT doc_id, pos FROM tok WHERE token = '{RANK_TERMS[1]}'),
    p2 AS (SELECT doc_id, pos FROM tok WHERE token = '{RANK_TERMS[2]}'),
    w AS (SELECT a.doc_id,
                 MIN(GREATEST(a.pos, b.pos, c.pos)
                     - LEAST(a.pos, b.pos, c.pos) + 1) AS width
          FROM p0 a
          JOIN p1 b ON a.doc_id = b.doc_id
          JOIN p2 c ON a.doc_id = c.doc_id
          GROUP BY a.doc_id),
    r AS (SELECT doc_id, width,
                 ROW_NUMBER() OVER (ORDER BY width, doc_id) AS rank
          FROM w)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(width AS BIGINT) AS width,
           CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= {PROX_K}"""


SPARSE_PROBE_IDS = (3, 57, 101)
SPARSE_K = 5


def sparse_dot_topk(sf_dir: str) -> rd.Dataset:
    """Sparse lexical retrieval: integer idf-weighted dot product
    between probe documents' tf vectors and every corpus doc (weight =
    10^6 // df per token — the SPLADE/tf-idf sparse-vector serving
    shape with an exact integer oracle). Scale: the (token -> weight)
    table is vocabulary-sized and broadcast; the probe tf vectors are
    k rows and broadcast; the corpus pass is ONE vectorized explode +
    per-(doc, probe) partial sums; the final per-probe ranking is
    grouped_topk's bounded two stages. Returns
    (probe_id, doc_id, score, rank)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        lens = toks.map(len).to_numpy(dtype=np.int64)
        did = np.repeat(df["doc_id"].to_numpy(dtype=np.int64), lens)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        out = pd.DataFrame({"doc_id": did, "token": flat})
        return (out.groupby(["doc_id", "token"], sort=False,
                            as_index=False).size()
                .rename(columns={"size": "tf"}))

    tf = docs.map_batches(tok_counts, batch_format="pandas").materialize()
    dfreq = partial_aggregate(tf, ["token"],
                              {"df": ("count", None)}).to_pandas()
    weight = {t: 1_000_000 // int(n)
              for t, n in zip(dfreq["token"], dfreq["df"])}
    probes = tf.map_batches(
        lambda df: df[df["doc_id"].isin(SPARSE_PROBE_IDS)],
        batch_format="pandas").to_pandas()
    pvec = {int(p): dict(zip(g["token"], g["tf"].astype(int)))
            for p, g in probes.groupby("doc_id")}

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tfv = df["tf"].to_numpy(dtype=np.int64)
        wv = df["token"].map(weight).to_numpy(dtype=np.int64)
        frames = []
        for p, vec in pvec.items():
            ptf = df["token"].map(vec).fillna(0).to_numpy(dtype=np.int64)
            s = tfv * wv * ptf
            frames.append(pd.DataFrame({
                "probe_id": np.full(len(df), p, dtype=np.int64),
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "score": s}))
        out = pd.concat(frames, ignore_index=True)
        out = out[(out["score"] > 0) & (out["doc_id"] != out["probe_id"])]
        return (out.groupby(["probe_id", "doc_id"], sort=False,
                            as_index=False).agg(score=("score", "sum")))

    scores = partial_aggregate(
        tf.map_batches(score, batch_format="pandas"),
        ["probe_id", "doc_id"], {"score": ("sum", "score")})
    top = grouped_topk(scores, ["probe_id"], ["score", "doc_id"],
                       SPARSE_K, ascending=[False, True])
    return top.map_batches(
        lambda df: df[["probe_id", "doc_id", "score", "rk"]]
                     .rename(columns={"rk": "rank"}).astype("int64"),
        batch_format="pandas")


QUERIES["sparse_dot_topk"] = sparse_dot_topk
ORACLE_SQL["sparse_dot_topk"] = f"""
    WITH tok AS MATERIALIZED (
      SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
      FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
            FROM documents)
      GROUP BY doc_id, token),
    w AS (SELECT token, 1000000 // COUNT(*) AS w FROM tok GROUP BY token),
    probe AS (SELECT doc_id AS probe_id, token, tf FROM tok
              WHERE doc_id IN ({', '.join(str(i) for i in SPARSE_PROBE_IDS)})),
    sc AS (SELECT p.probe_id, t.doc_id,
                  CAST(SUM(p.tf * t.tf * w.w) AS BIGINT) AS score
           FROM probe p
           JOIN tok t ON t.token = p.token AND t.doc_id <> p.probe_id
           JOIN w ON w.token = p.token
           GROUP BY 1, 2
           HAVING SUM(p.tf * t.tf * w.w) > 0),
    r AS (SELECT probe_id, doc_id, score,
                 ROW_NUMBER() OVER (PARTITION BY probe_id
                                    ORDER BY score DESC, doc_id) AS rank
          FROM sc)
    SELECT CAST(probe_id AS BIGINT) AS probe_id,
           CAST(doc_id AS BIGINT) AS doc_id, score,
           CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= {SPARSE_K}"""


def last_touch_attribution(sf_dir: str) -> rd.Dataset:
    """Last-touch conversion attribution: each purchase attributes to
    the user's most recent STRICTLY earlier click. Inside the per-user
    ordered-log bucket it is one searchsorted probe per purchase array
    (the funnel_conversions shape, pointed backward); no pairwise
    join. Returns per-user (n_purch, n_attr, sum_gap_s) with the gap
    floored to whole seconds."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("int64").to_numpy()
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        users, n_p, n_a, gap = [], [], [], []
        start = np.flatnonzero(df["user_id"].ne(df["user_id"].shift())
                               .to_numpy())
        bounds = np.append(start, len(df))
        for a, b in zip(bounds[:-1], bounds[1:]):
            ct = np.sort(t[a:b][et[a:b] == "click"])
            pt = t[a:b][et[a:b] == "purchase"]
            idx = np.searchsorted(ct, pt, side="left") - 1
            ok = idx >= 0
            users.append(uid[a])
            n_p.append(len(pt))
            n_a.append(int(ok.sum()))
            gap.append(int(((pt[ok] - ct[idx[ok]]) // 1_000_000).sum()))
        return pd.DataFrame({
            "user_id": pd.Series(users, dtype=df["user_id"].dtype),
            "n_purch": pd.Series(n_p, dtype="int64"),
            "n_attr": pd.Series(n_a, dtype="int64"),
            "sum_gap_s": pd.Series(gap, dtype="int64")})

    out = _bucketed_by_user(ev, fn)
    return out.map_batches(
        lambda df: df[df["n_purch"] > 0], batch_format="pandas")


QUERIES["last_touch_attribution"] = last_touch_attribution
ORACLE_SQL["last_touch_attribution"] = """
    WITH p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
    c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
    a AS (SELECT p.user_id, p.ts,
                 (SELECT MAX(c.ts) FROM c
                  WHERE c.user_id = p.user_id AND c.ts < p.ts) AS lc
          FROM p)
    SELECT user_id,
           CAST(COUNT(*) AS BIGINT) AS n_purch,
           CAST(COUNT(lc) AS BIGINT) AS n_attr,
           CAST(COALESCE(SUM((epoch_us(ts) - epoch_us(lc)) // 1000000), 0)
                AS BIGINT) AS sum_gap_s
    FROM a GROUP BY user_id"""


INC_AGG_GROUPS = 7


def incremental_agg(sf_dir: str) -> rd.Dataset:
    """Incremental MAINTENANCE of a materialized aggregate: the
    per-group (doc_id % 7) doc-count/token-sum table is updated to the
    next corpus snapshot using ONLY the diff — removed docs subtract,
    changed docs subtract their old text and add their new, added docs
    add — while the oracle recomputes the same table from scratch on
    the new snapshot; equality proves the delta path. Scale shape: the
    base aggregate is one bucketed pass (already-materialized in the
    story), the diff moves (id, md5) rows (storage.snapshot_diff), the
    affected texts come through semi-joins on the changed ids, and the
    signed partials tree-merge.
    Returns (g, n_docs, sum_tokens)."""
    from .relops import semi_anti_filter_scalable
    from .storage import snapshot_diff

    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    new = docs.map_batches(_make_next_snapshot, batch_format="pandas")
    diff = snapshot_diff(docs, new).materialize()

    def parts(sign: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            ids = df["doc_id"].to_numpy(dtype=np.int64)
            ntok = df["text"].str.count(" ").to_numpy(dtype=np.int64) + 1
            return pd.DataFrame({
                "g": ids % INC_AGG_GROUPS,
                "n_docs": np.full(len(df), sign, dtype=np.int64),
                "sum_tokens": sign * ntok})
        return fn

    def status_ids(*statuses):
        sset = set(statuses)
        return diff.map_batches(
            lambda df: df[df["status"].isin(sset)][["doc_id"]],
            batch_format="pandas")

    minus = semi_anti_filter_scalable(
        docs, "doc_id", status_ids("removed", "changed"),
        cols=["doc_id", "text"])
    plus = semi_anti_filter_scalable(
        new, "doc_id", status_ids("added", "changed"),
        cols=["doc_id", "text"])

    base_agg = docs.map_batches(parts(1), batch_format="pandas")
    deltas = (minus.map_batches(parts(-1), batch_format="pandas")
              .union(plus.map_batches(parts(1), batch_format="pandas")))
    out = partial_aggregate(base_agg.union(deltas), ["g"],
                            {"n_docs": ("sum", "n_docs"),
                             "sum_tokens": ("sum", "sum_tokens")})
    return out.map_batches(
        lambda df: df[df["n_docs"] > 0].astype("int64"),
        batch_format="pandas")


QUERIES["incremental_agg"] = incremental_agg
ORACLE_SQL["incremental_agg"] = f"""
    WITH newt AS (
      SELECT doc_id,
             CASE WHEN doc_id % 10 = 0 THEN text || ' v2'
                  ELSE text END AS text
      FROM documents WHERE doc_id % 17 <> 0
      UNION ALL
      SELECT doc_id + 10000000 AS doc_id, text
      FROM documents WHERE doc_id % 25 = 0)
    SELECT CAST(doc_id % {INC_AGG_GROUPS} AS BIGINT) AS g,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS sum_tokens
    FROM newt GROUP BY 1"""


# ------------------------------------------------ round-4 thirteenth batch

ZBITS = 8          # bits per dimension interleaved into the Z-value
ZRANGE_DIV = 64    # Z-values group into ranges of 64 consecutive codes


def _z_interleave_sql(xcol: str, ycol: str) -> str:
    terms = []
    for i in range(ZBITS):
        terms.append(f"(({xcol} >> {i}) & 1) * {1 << (2 * i)}")
        terms.append(f"(({ycol} >> {i}) & 1) * {1 << (2 * i + 1)}")
    return " + ".join(terms)


def zorder_stats(sf_dir: str) -> rd.Dataset:
    """Z-ORDER layout audit — the multi-dimensional clustering key a
    100 TB table would be rewritten under so that range predicates on
    EITHER dimension prune files: interleave (user_id, day-of-month)
    bit-by-bit into a Z-value, group into ranges of ZRANGE_DIV codes,
    and report each range's row count and per-dimension min/max (the
    file-skipping statistics a lakehouse manifest would store — tight
    spans per range are exactly what makes the pruning work). One
    vectorized map + one bounded aggregate; no shuffle of the events
    themselves beyond the range partials."""
    ev = rp(sf_dir, "events", ["user_id", "ts"])

    def z(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(dtype=np.int64)
        d = df["ts"].dt.day.to_numpy(dtype=np.int64)
        zv = np.zeros(len(df), dtype=np.int64)
        for i in range(ZBITS):
            zv |= ((u >> i) & 1) << (2 * i)
            zv |= ((d >> i) & 1) << (2 * i + 1)
        return pd.DataFrame({
            "zr": zv // ZRANGE_DIV, "n": np.ones(len(df), dtype=np.int64),
            "min_u": u, "max_u": u, "min_d": d, "max_d": d})

    return partial_aggregate(
        ev.map_batches(z, batch_format="pandas"), ["zr"],
        {"n": ("sum", "n"),
         "min_u": ("min", "min_u"), "max_u": ("max", "max_u"),
         "min_d": ("min", "min_d"), "max_d": ("max", "max_d")})


QUERIES["zorder_stats"] = zorder_stats
ORACLE_SQL["zorder_stats"] = f"""
    WITH b AS (SELECT user_id AS u, EXTRACT(day FROM ts) AS d FROM events),
    z AS (SELECT u, d, ({_z_interleave_sql('u', 'd')}) // {ZRANGE_DIV} AS zr
          FROM b)
    SELECT CAST(zr AS BIGINT) AS zr, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(MIN(u) AS BIGINT) AS min_u, CAST(MAX(u) AS BIGINT) AS max_u,
           CAST(MIN(d) AS BIGINT) AS min_d, CAST(MAX(d) AS BIGINT) AS max_d
    FROM z GROUP BY zr"""


def q4_order_priority(sf_dir: str) -> rd.Dataset:
    """TPC-H Q4 shape (order-priority checking): orders in one quarter
    that HAVE at least one returned lineitem, counted per priority —
    the EXISTS semi-join (only the returned lineitems' orderkeys move
    from lineitem) followed by a bounded priority aggregate."""
    from .relops import semi_anti_filter_scalable

    orders = rp(sf_dir, "orders",
                ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = rp(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def o_window(df: pd.DataFrame) -> pd.DataFrame:
        keep = ((df["o_orderdate"] >= pd.Timestamp("1996-01-01"))
                & (df["o_orderdate"] < pd.Timestamp("1996-07-01")))
        return df[keep][["o_orderkey", "o_orderpriority"]]

    def ret_keys(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["l_returnflag"] == "R"][["l_orderkey"]]
        return out.rename(columns={"l_orderkey": "o_orderkey"})

    ow = orders.map_batches(o_window, batch_format="pandas")
    rk = li.map_batches(ret_keys, batch_format="pandas")
    sem = semi_anti_filter_scalable(ow, "o_orderkey", rk,
                                    cols=["o_orderkey", "o_orderpriority"])
    return partial_aggregate(sem, ["o_orderpriority"],
                             {"order_count": ("count", None)})


QUERIES["q4_order_priority"] = q4_order_priority
ORACLE_SQL["q4_order_priority"] = """
    SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
    FROM orders o
    WHERE o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate < TIMESTAMP '1996-07-01'
      AND EXISTS (SELECT 1 FROM lineitem l
                  WHERE l.l_orderkey = o.o_orderkey
                    AND l.l_returnflag = 'R')
    GROUP BY o_orderpriority"""


EWMA_K = 16   # decay window: newest event weighs 2^15, 16th-newest 2^0


def ewma_activity(sf_dir: str) -> rd.Dataset:
    """Exponentially-decayed activity score per user (the half-life
    feature a ranking/ML pipeline derives from an event log), kept
    EXACT in integers: over each user's EWMA_K most recent events,
    score = sum(cents_j * 2^(K-j)) with j = 1 for the newest — i.e.
    alpha = 1/2 decay with the irrational normalizer factored out.
    Runs in the per-user ordered-log buckets (one tail slice + dot
    product per user, vectorized); recency ties break by event_id,
    same as the oracle's window ORDER BY."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["value"]).to_numpy()
        uid = df["user_id"].to_numpy()
        users, score = [], []
        start = np.flatnonzero(df["user_id"].ne(df["user_id"].shift())
                               .to_numpy())
        bounds = np.append(start, len(df))
        for a, b in zip(bounds[:-1], bounds[1:]):
            tail = cents[max(a, b - EWMA_K):b]   # oldest..newest
            n = len(tail)
            # recency rank j (newest j=1) weighs 2^(K-j) regardless of
            # how many events the user actually has
            w = (np.int64(1)
                 << (np.arange(n, dtype=np.int64) + EWMA_K - n))
            users.append(uid[a])
            score.append(int((tail * w).sum()))
        return pd.DataFrame({
            "user_id": pd.Series(users, dtype=df["user_id"].dtype),
            "ew_score": pd.Series(score, dtype="int64")})

    return _bucketed_by_user(ev, fn)


QUERIES["ewma_activity"] = ewma_activity
ORACLE_SQL["ewma_activity"] = f"""
    WITH r AS (
      SELECT user_id, CAST(ROUND(value * 100) AS BIGINT) AS cents,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts DESC, event_id DESC) AS rn
      FROM events)
    SELECT user_id,
           CAST(SUM(cents * (CAST(1 AS BIGINT) << ({EWMA_K} - rn)))
                AS BIGINT) AS ew_score
    FROM r WHERE rn <= {EWMA_K}
    GROUP BY user_id"""


def time_travel(sf_dir: str) -> rd.Dataset:
    """Lakehouse TIME TRAVEL: reconstruct the table AS OF version 2
    from an upsert/delete log (planted deterministically from the
    documents table: v1 = full base, v2 upserts doc_id%10==0 and
    deletes doc_id%17==0, v3 upserts doc_id%25==0 — v3 must be
    invisible). Last-write-wins per key via grouped_topk over
    (version desc) restricted to version <= 2, then delete rows drop
    out. The log rows (id, version, op, val-md5) are narrow; the
    replay is two bounded stages regardless of how many versions the
    log accumulates. Returns (doc_id, val)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def log_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        v1 = pd.DataFrame({
            "doc_id": ids, "version": np.int64(1), "op": "upsert",
            "val": [dedup.md5_hex(t) for t in df["text"]]})
        up2 = df[df["doc_id"] % 10 == 0]
        v2u = pd.DataFrame({
            "doc_id": up2["doc_id"].to_numpy(dtype=np.int64),
            "version": np.int64(2), "op": "upsert",
            "val": [dedup.md5_hex(t + " v2") for t in up2["text"]]})
        del2 = df[df["doc_id"] % 17 == 0]
        v2d = pd.DataFrame({
            "doc_id": del2["doc_id"].to_numpy(dtype=np.int64),
            "version": np.int64(2), "op": "delete", "val": ""})
        up3 = df[df["doc_id"] % 25 == 0]
        v3 = pd.DataFrame({
            "doc_id": up3["doc_id"].to_numpy(dtype=np.int64),
            "version": np.int64(3), "op": "upsert",
            "val": [dedup.md5_hex(t + " v3") for t in up3["text"]]})
        return pd.concat([v1, v2u, v2d, v3], ignore_index=True)

    log = docs.map_batches(log_rows, batch_format="pandas")
    upto = log.map_batches(lambda df: df[df["version"] <= 2],
                           batch_format="pandas")
    # within one version a delete outranks an upsert ('delete' <
    # 'upsert' lexically, op ASC): doc_ids divisible by both 10 and 17
    # get both ops at v2 and must come out deleted
    last = grouped_topk(upto, ["doc_id"], ["version", "op"], 1,
                        ascending=[False, True])
    return last.map_batches(
        lambda df: df[df["op"] == "upsert"][["doc_id", "val"]]
                     .astype({"doc_id": "int64"}),
        batch_format="pandas")


QUERIES["time_travel"] = time_travel
ORACLE_SQL["time_travel"] = """
    WITH log AS (
      SELECT doc_id, 1 AS version, 'upsert' AS op, md5(text) AS val
      FROM documents
      UNION ALL
      SELECT doc_id, 2, 'upsert', md5(text || ' v2')
      FROM documents WHERE doc_id % 10 = 0
      UNION ALL
      SELECT doc_id, 2, 'delete', '' FROM documents WHERE doc_id % 17 = 0
      UNION ALL
      SELECT doc_id, 3, 'upsert', md5(text || ' v3')
      FROM documents WHERE doc_id % 25 = 0),
    last AS (
      SELECT doc_id, op, val,
             ROW_NUMBER() OVER (PARTITION BY doc_id
                                ORDER BY version DESC, op) AS rn
      FROM log WHERE version <= 2)
    SELECT doc_id, val FROM last WHERE rn = 1 AND op = 'upsert'"""


# ------------------------------------------------ round-4 fourteenth batch

SCD_CURRENT = 9999   # open-interval sentinel for the current version


def scd2_intervals(sf_dir: str) -> rd.Dataset:
    """SCD TYPE-2 dimension history: turn an upsert/delete log into
    validity intervals — each upsert opens [version, next-op-version)
    and the newest open interval carries the SCD_CURRENT sentinel; a
    delete closes the preceding interval without opening one (the
    LEAD() formulation, so engine and oracle share one rule with no
    special cases). Planted log: v1 = full base, v2 upserts %10==0 and
    deletes %17==0 (minus the %10 overlap — SCD history wants
    single-op versions), v3 upserts %25==0, so deletes, re-opens after
    delete and multi-interval docs all occur. Per-doc ordering runs in
    the exchange slots with a vectorized groupby-shift; no per-row Python.
    Returns (doc_id, val, v_from, v_to, is_current)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def log_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        v1 = pd.DataFrame({
            "doc_id": ids, "version": np.int64(1), "op": "upsert",
            "val": [dedup.md5_hex(t) for t in df["text"]]})
        up2 = df[df["doc_id"] % 10 == 0]
        v2u = pd.DataFrame({
            "doc_id": up2["doc_id"].to_numpy(dtype=np.int64),
            "version": np.int64(2), "op": "upsert",
            "val": [dedup.md5_hex(t + " v2") for t in up2["text"]]})
        del2 = df[(df["doc_id"] % 17 == 0) & (df["doc_id"] % 10 != 0)]
        v2d = pd.DataFrame({
            "doc_id": del2["doc_id"].to_numpy(dtype=np.int64),
            "version": np.int64(2), "op": "delete", "val": ""})
        up3 = df[df["doc_id"] % 25 == 0]
        v3 = pd.DataFrame({
            "doc_id": up3["doc_id"].to_numpy(dtype=np.int64),
            "version": np.int64(3), "op": "upsert",
            "val": [dedup.md5_hex(t + " v3") for t in up3["text"]]})
        return pd.concat([v1, v2u, v2d, v3], ignore_index=True)

    def intervals(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "version"], ignore_index=True)
        nxt = df.groupby("doc_id")["version"].shift(-1)
        v_to = nxt.fillna(SCD_CURRENT).astype("int64")
        out = pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "val": df["val"],
            "v_from": df["version"].astype("int64"),
            "v_to": v_to,
            "is_current": (v_to == SCD_CURRENT).astype("int64")})
        return out[df["op"].to_numpy() == "upsert"]

    return exchange(docs, "doc_id", intervals, pre=log_rows)


QUERIES["scd2_intervals"] = scd2_intervals
ORACLE_SQL["scd2_intervals"] = f"""
    WITH log AS (
      SELECT doc_id, 1 AS version, 'upsert' AS op, md5(text) AS val
      FROM documents
      UNION ALL
      SELECT doc_id, 2, 'upsert', md5(text || ' v2')
      FROM documents WHERE doc_id % 10 = 0
      UNION ALL
      SELECT doc_id, 2, 'delete', ''
      FROM documents WHERE doc_id % 17 = 0 AND doc_id % 10 <> 0
      UNION ALL
      SELECT doc_id, 3, 'upsert', md5(text || ' v3')
      FROM documents WHERE doc_id % 25 = 0),
    iv AS (
      SELECT doc_id, op, val, CAST(version AS BIGINT) AS v_from,
             CAST(COALESCE(LEAD(version) OVER (PARTITION BY doc_id
                                               ORDER BY version),
                           {SCD_CURRENT}) AS BIGINT) AS v_to
      FROM log)
    SELECT doc_id, val, v_from, v_to,
           CAST(CASE WHEN v_to = {SCD_CURRENT} THEN 1 ELSE 0 END
                AS BIGINT) AS is_current
    FROM iv WHERE op = 'upsert'"""


def fk_integrity(sf_dir: str) -> rd.Dataset:
    """Referential/data-quality audit — the expectation checks a
    production pipeline gates loads on: orphan lineitems (orderkey
    missing from orders), orphan orders (custkey missing from
    customer), non-positive lineitem quantities and negative order
    totals, each as ONE violation-count row. The orphan checks run as
    ANTI joins against the projected key columns; the range checks
    fold map-side.
    Returns (chk, n_violations) for every check, zeros included."""
    from .relops import semi_anti_filter_scalable

    li = rp(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    orders = rp(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                   "o_totalprice"])
    cust = rp(sf_dir, "customer", ["c_custkey"])

    def count_of(ds: rd.Dataset, chk: str) -> int:
        return int(ds.count())

    orphan_li = semi_anti_filter_scalable(
        li, "l_orderkey",
        orders.map_batches(lambda df: df[["o_orderkey"]],
                           batch_format="pandas"),
        key_col="o_orderkey", anti=True, cols=["l_orderkey"])
    orphan_ord = semi_anti_filter_scalable(
        orders, "o_custkey",
        cust.map_batches(lambda df: df[["c_custkey"]],
                         batch_format="pandas"),
        key_col="c_custkey", anti=True, cols=["o_custkey"])

    def bad_qty(df: pd.DataFrame) -> pd.DataFrame:
        n = int((df["l_quantity"].to_numpy(dtype=np.float64) <= 0).sum())
        return pd.DataFrame({"n": pd.Series([n], dtype="int64")})

    def bad_total(df: pd.DataFrame) -> pd.DataFrame:
        n = int((df["o_totalprice"].to_numpy(dtype=np.float64) < 0).sum())
        return pd.DataFrame({"n": pd.Series([n], dtype="int64")})

    nq = partial_aggregate(li.map_batches(bad_qty, batch_format="pandas"),
                           [], {"n": ("sum", "n")}).to_pandas()
    nt = partial_aggregate(
        orders.map_batches(bad_total, batch_format="pandas"),
        [], {"n": ("sum", "n")}).to_pandas()
    rows = [("orphan_lineitem", count_of(orphan_li, "orphan_lineitem")),
            ("orphan_order", count_of(orphan_ord, "orphan_order")),
            ("nonpositive_qty", int(nq["n"][0])),
            ("negative_total", int(nt["n"][0]))]
    out = pd.DataFrame(rows, columns=["chk", "n_violations"])
    out["n_violations"] = out["n_violations"].astype("int64")
    return out


QUERIES["fk_integrity"] = fk_integrity
ORACLE_SQL["fk_integrity"] = """
    SELECT 'orphan_lineitem' AS chk,
           CAST(COUNT(*) AS BIGINT) AS n_violations
    FROM lineitem l
    WHERE NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_orderkey = l.l_orderkey)
    UNION ALL
    SELECT 'orphan_order',
           CAST(COUNT(*) AS BIGINT)
    FROM orders o
    WHERE NOT EXISTS (SELECT 1 FROM customer c
                      WHERE c.c_custkey = o.o_custkey)
    UNION ALL
    SELECT 'nonpositive_qty', CAST(COUNT(*) AS BIGINT)
    FROM lineitem WHERE l_quantity <= 0
    UNION ALL
    SELECT 'negative_total', CAST(COUNT(*) AS BIGINT)
    FROM orders WHERE o_totalprice < 0"""


QC_CAL_BIN = 500   # score-bin width (milli-units) for the bias audit


def score_bias_audit(sf_dir: str) -> rd.Dataset:
    """Fairness audit of the quality classifier ACROSS LANGUAGES — the
    check a pretraining pipeline runs before trusting a learned filter
    (quality classifiers systematically down-score some languages):
    per (lang, score bin of width QC_CAL_BIN milli-units, floored
    toward -inf) document counts and keep counts. One extra map over
    the classifier's streaming output joined map-side with the lang
    column (the classifier already carries no shuffle); the histogram
    is a bounded aggregate."""
    from . import text_analysis

    docs = rp(sf_dir, "documents", ["doc_id", "text", "lang"])
    scored = text_analysis.quality_classifier(docs)
    langs = docs.map_batches(lambda df: df[["doc_id", "lang"]],
                             batch_format="pandas")
    j = hash_join(scored, langs, "doc_id", "doc_id",
                  left_cols=["doc_id", "score_mu", "keep"],
                  right_cols=["doc_id", "lang"])

    def binify(df: pd.DataFrame) -> pd.DataFrame:
        s = df["score_mu"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "lang": df["lang"],
            "bin": np.floor_divide(s, QC_CAL_BIN),
            "n": np.ones(len(df), dtype=np.int64),
            "n_keep": df["keep"].to_numpy(dtype=np.int64)})

    return partial_aggregate(
        j.map_batches(binify, batch_format="pandas"), ["lang", "bin"],
        {"n": ("sum", "n"), "n_keep": ("sum", "n_keep")})


QUERIES["score_bias_audit"] = score_bias_audit
ORACLE_SQL["score_bias_audit"] = f"""
    WITH qc AS MATERIALIZED ({{QC_ORACLE}}),
    j AS (SELECT d.lang, qc.score_mu, qc.keep
          FROM qc JOIN documents d USING (doc_id))
    SELECT lang,
           CAST(CASE WHEN score_mu >= 0 THEN score_mu // {QC_CAL_BIN}
                     ELSE -((-score_mu + {QC_CAL_BIN} - 1) // {QC_CAL_BIN})
                END AS BIGINT) AS bin,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(keep) AS BIGINT) AS n_keep
    FROM j GROUP BY 1, 2"""
ORACLE_SQL["score_bias_audit"] = ORACLE_SQL["score_bias_audit"].replace(
    "{QC_ORACLE}", ORACLE_SQL["quality_classifier"])


# ------------------------------------------------- round-4 fifteenth batch

def sim_topk_filtered(sf_dir: str) -> pd.DataFrame:
    """Filtered vector search: exact cosine top-5 where each query only
    matches vectors sharing its label — the per-tenant / metadata-
    predicate ANN serving shape (the filter applies inside the scoring
    kernel as a mask; candidates stay blocks x nq x (k+1))."""
    return similarity.filtered_topk(
        rp(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        QUERY_VEC_IDS, k=5)


QUERIES["sim_topk_filtered"] = sim_topk_filtered
ORACLE_SQL["sim_topk_filtered"] = """
    WITH q AS (SELECT vec_id AS qid, embedding AS qe, label AS ql
               FROM embeddings WHERE vec_id < 8),
    scored AS (
      SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
             row_number() OVER (
               PARTITION BY q.qid
               ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                        e.vec_id) AS rank
      FROM q JOIN embeddings e
        ON e.label = q.ql AND e.vec_id <> q.qid)
    SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
    FROM scored WHERE rank <= 5"""


COVER_WINDOW_US = 60 * 10**6   # each event covers [ts, ts + 60 s)


def interval_coverage(sf_dir: str) -> rd.Dataset:
    """Per-user UNION length of overlapping activity windows (each
    event covers 60 s): merge-overlapping-intervals — the islands-and-
    gaps classic that rate limiting, billing and uptime all reduce to.
    Inside the per-user ordered-log bucket the sweep is pure numpy
    (running max of window ends, island ids by cumsum of gaps); exact
    microsecond integers end to end. Returns
    (user_id, coverage_us, n_islands)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("int64").to_numpy()
        uid = df["user_id"].to_numpy()
        users, cov, nisl = [], [], []
        start = np.flatnonzero(df["user_id"].ne(df["user_id"].shift())
                               .to_numpy())
        bounds = np.append(start, len(df))
        for a, b in zip(bounds[:-1], bounds[1:]):
            ts = t[a:b]                      # sorted (log order)
            end = ts + COVER_WINDOW_US       # nondecreasing
            cme = np.maximum.accumulate(end)
            gap = np.ones(len(ts), dtype=bool)
            gap[1:] = ts[1:] > cme[:-1]
            isl = np.cumsum(gap) - 1
            # per island: last cummax end - first start
            first = np.flatnonzero(gap)
            last = np.append(first[1:], len(ts)) - 1
            users.append(uid[a])
            cov.append(int((cme[last] - ts[first]).sum()))
            nisl.append(len(first))
        return pd.DataFrame({
            "user_id": pd.Series(users, dtype=df["user_id"].dtype),
            "coverage_us": pd.Series(cov, dtype="int64"),
            "n_islands": pd.Series(nisl, dtype="int64")})

    return _bucketed_by_user(ev, fn)


QUERIES["interval_coverage"] = interval_coverage
ORACLE_SQL["interval_coverage"] = f"""
    WITH e AS (
      SELECT user_id, epoch_us(ts) AS t,
             epoch_us(ts) + {COVER_WINDOW_US} AS e
      FROM events),
    w AS (
      SELECT user_id, t, e,
             MAX(e) OVER (PARTITION BY user_id ORDER BY t
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING) AS prev_cme
      FROM e),
    g AS (
      SELECT user_id, t, e,
             CASE WHEN prev_cme IS NULL OR t > prev_cme
                  THEN 1 ELSE 0 END AS new_island
      FROM w),
    isl AS (
      SELECT user_id, t, e,
             SUM(new_island) OVER (PARTITION BY user_id ORDER BY t
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND CURRENT ROW) AS island
      FROM g),
    per AS (
      SELECT user_id, island,
             MAX(e) - MIN(t) AS cov
      FROM isl GROUP BY user_id, island)
    SELECT user_id,
           CAST(SUM(cov) AS BIGINT) AS coverage_us,
           CAST(COUNT(*) AS BIGINT) AS n_islands
    FROM per GROUP BY user_id"""


# ------------------------------------------------- round-4 sixteenth batch

def events_cube(sf_dir: str) -> rd.Dataset:
    """CUBE(event_type, day) counts and cent-sums — all four grouping
    sets from ONE corpus pass: the (type, day) base aggregate is
    bounded (types x 31 rows), so the three coarser sets derive from
    IT, not from the events again (the rollup-from-partials rule of
    corpus_rollup extended to a full cube). Sentinels: 'ALL' for the
    type dimension, -1 for the day. Returns (event_type, d, n, cents)."""
    ev = rp(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "d": df["ts"].dt.day.to_numpy(dtype=np.int64),
            "n": np.ones(len(df), dtype=np.int64),
            "cents": _cents(df["value"]).to_numpy()})

    base = partial_aggregate(
        ev.map_batches(prep, batch_format="pandas"),
        ["event_type", "d"],
        {"n": ("sum", "n"), "cents": ("sum", "cents")})

    def relabel(ty: Optional[str], dy: Optional[int]):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            if ty is not None:
                out["event_type"] = ty
            if dy is not None:
                out["d"] = np.int64(dy)
            return out
        return f

    by_type = partial_aggregate(
        base.map_batches(relabel(None, -1), batch_format="pandas"),
        ["event_type", "d"], {"n": ("sum", "n"), "cents": ("sum", "cents")})
    by_day = partial_aggregate(
        base.map_batches(relabel("ALL", None), batch_format="pandas"),
        ["event_type", "d"], {"n": ("sum", "n"), "cents": ("sum", "cents")})
    total = partial_aggregate(
        base.map_batches(relabel("ALL", -1), batch_format="pandas"),
        ["event_type", "d"], {"n": ("sum", "n"), "cents": ("sum", "cents")})
    return base.union(by_type).union(by_day).union(total)


QUERIES["events_cube"] = events_cube
ORACLE_SQL["events_cube"] = """
    SELECT COALESCE(event_type, 'ALL') AS event_type,
           CAST(COALESCE(d, -1) AS BIGINT) AS d,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(cents) AS BIGINT) AS cents
    FROM (SELECT event_type, EXTRACT(day FROM ts) AS d,
                 CAST(ROUND(value * 100) AS BIGINT) AS cents
          FROM events)
    GROUP BY CUBE (event_type, d)"""


def type_corr_matrix(sf_dir: str) -> pd.DataFrame:
    """Pairwise Pearson correlation of the event types' DAILY count
    series (zero-filled over the observed day universe) — the
    cross-metric co-movement screen. The per-(type, day) counts are a
    bounded aggregate (types x 31 rows at any corpus size), so the
    matrix derives driver-side from exact int64 sufficient statistics;
    corr quantizes through the events_regression double tree (floored
    micro, 0 when either variance is 0). Returns
    (type_a, type_b, corr_micro) for a < b."""
    ev = rp(sf_dir, "events", ["event_type", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "d": df["ts"].dt.day.to_numpy(dtype=np.int64),
            "n": np.ones(len(df), dtype=np.int64)})

    dc = partial_aggregate(
        ev.map_batches(prep, batch_format="pandas"),
        ["event_type", "d"], {"n": ("sum", "n")}).to_pandas()
    days = np.sort(dc["d"].unique())
    types = np.sort(dc["event_type"].unique())
    grid = (dc.set_index(["event_type", "d"])["n"]
            .reindex(pd.MultiIndex.from_product([types, days]),
                     fill_value=0)
            .to_numpy(dtype=np.int64).reshape(len(types), len(days)))
    rows = []
    n = np.float64(len(days))
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            a, b = grid[i], grid[j]
            sx, sy = np.float64(a.sum()), np.float64(b.sum())
            sxx = np.float64((a * a).sum())
            syy = np.float64((b * b).sum())
            sxy = np.float64((a * b).sum())
            covn = n * sxy - sx * sy
            varx = n * sxx - sx * sx
            vary = n * syy - sy * sy
            c = (int(np.floor(1000000.0 * covn / np.sqrt(varx * vary)))
                 if varx * vary > 0 else 0)
            rows.append((types[i], types[j], c))
    out = pd.DataFrame(rows, columns=["type_a", "type_b", "corr_micro"])
    out["corr_micro"] = out["corr_micro"].astype("int64")
    return out


QUERIES["type_corr_matrix"] = type_corr_matrix
ORACLE_SQL["type_corr_matrix"] = """
    WITH dc AS (SELECT event_type AS ty, EXTRACT(day FROM ts) AS d,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM events GROUP BY 1, 2),
    days AS (SELECT DISTINCT d FROM dc),
    types AS (SELECT DISTINCT ty FROM dc),
    grid AS (SELECT t.ty, dy.d, COALESCE(dc.c, 0) AS c
             FROM types t CROSS JOIN days dy
             LEFT JOIN dc ON dc.ty = t.ty AND dc.d = dy.d),
    p AS (SELECT a.ty AS type_a, b.ty AS type_b,
                 CAST(COUNT(*) AS BIGINT) AS n,
                 CAST(SUM(a.c) AS BIGINT) AS sx,
                 CAST(SUM(b.c) AS BIGINT) AS sy,
                 CAST(SUM(a.c * a.c) AS BIGINT) AS sxx,
                 CAST(SUM(a.c * b.c) AS BIGINT) AS sxy,
                 CAST(SUM(b.c * b.c) AS BIGINT) AS syy
          FROM grid a JOIN grid b ON a.d = b.d AND a.ty < b.ty
          GROUP BY 1, 2)
    SELECT type_a, type_b,
           CAST(CASE WHEN CAST(n*sxx - sx*sx AS DOUBLE)
                          * CAST(n*syy - sy*sy AS DOUBLE) > 0
                     THEN FLOOR(1000000.0 * CAST(n*sxy - sx*sy AS DOUBLE)
                                / SQRT(CAST(n*sxx - sx*sx AS DOUBLE)
                                       * CAST(n*syy - sy*sy AS DOUBLE)))
                     ELSE 0 END AS BIGINT) AS corr_micro
    FROM p"""


# ----------------------------------------------- round-4 seventeenth batch

KANON_K = 5
KANON_LEN_BUCKET = 100


def k_anonymity(sf_dir: str) -> rd.Dataset:
    """K-ANONYMITY audit over the quasi-identifier tuple (lang, source,
    length-bucket) — the privacy-governance gate run before releasing
    a dataset: every equivalence class with fewer than KANON_K members
    is a re-identification risk and is reported with its size. One
    bounded aggregate (class count <= langs x sources x buckets);
    documents never shuffle. Returns (lang, source, len_bucket, n)
    for the violating classes only."""
    docs = rp(sf_dir, "documents", ["lang", "source", "n_chars"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": df["lang"], "source": df["source"],
            "len_bucket": (df["n_chars"].to_numpy(dtype=np.int64)
                           // KANON_LEN_BUCKET),
            "n": np.ones(len(df), dtype=np.int64)})

    classes = partial_aggregate(
        docs.map_batches(prep, batch_format="pandas"),
        ["lang", "source", "len_bucket"], {"n": ("sum", "n")})
    return classes.map_batches(
        lambda df: df[df["n"] < KANON_K], batch_format="pandas")


QUERIES["k_anonymity"] = k_anonymity
ORACLE_SQL["k_anonymity"] = f"""
    SELECT lang, source,
           CAST(n_chars // {KANON_LEN_BUCKET} AS BIGINT) AS len_bucket,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM documents
    GROUP BY 1, 2, 3
    HAVING COUNT(*) < {KANON_K}"""


#: multi-token patterns scanned as raw substrings (with overlaps), the
#: Aho-Corasick / content-policy scan shape
SCAN_PATTERNS = ("hash scan", "table scan", "scan merge")


def multi_pattern_counts(sf_dir: str) -> pd.DataFrame:
    """Multi-pattern SUBSTRING scan over the corpus (policy/compliance
    content scan): total occurrence count and matching-doc count per
    pattern, left-to-right non-overlapping (regex count and the
    oracle's replace-length arithmetic share that rule) — one
    streaming map with a vectorized str.count per pattern (swap in one
    Aho-Corasick automaton, built on the driver, for thousands of
    patterns; the fold does not change), then a
    constant-size aggregate. Regex metacharacters are escaped: these
    are literal substrings."""
    docs = rp(sf_dir, "documents", ["text"])

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        rows = {}
        for i, p in enumerate(SCAN_PATTERNS):
            c = df["text"].str.count(re.escape(p)).to_numpy(dtype=np.int64)
            rows[f"n{i}"] = c
            rows[f"d{i}"] = (c > 0).astype(np.int64)
        return pd.DataFrame(rows)

    aggs = {}
    for i in range(len(SCAN_PATTERNS)):
        aggs[f"n{i}"] = ("sum", f"n{i}")
        aggs[f"d{i}"] = ("sum", f"d{i}")
    tot = partial_aggregate(
        docs.map_batches(scan, batch_format="pandas"), [], aggs).to_pandas()
    rows = [(p, int(tot[f"n{i}"][0]), int(tot[f"d{i}"][0]))
            for i, p in enumerate(SCAN_PATTERNS)]
    out = pd.DataFrame(rows, columns=["pattern", "n_occurrences",
                                      "n_docs"])
    return out.astype({"n_occurrences": "int64", "n_docs": "int64"})


QUERIES["multi_pattern_counts"] = multi_pattern_counts
ORACLE_SQL["multi_pattern_counts"] = "\nUNION ALL\n".join(f"""
    SELECT '{p}' AS pattern,
           CAST(SUM((len(text) - len(replace(text, '{p}', '')))
                    // {len(p)}) AS BIGINT) AS n_occurrences,
           CAST(SUM(CASE WHEN contains(text, '{p}') THEN 1 ELSE 0 END)
                AS BIGINT) AS n_docs
    FROM documents""" for p in SCAN_PATTERNS)


def hive_roundtrip(sf_dir: str) -> rd.Dataset:
    """Hive-partitioned parquet sink + PARTITION-PRUNED read back: the
    documents table writes partitioned by lang (the layout a 100 TB
    corpus would live in), then ONLY the lang=es directory is listed
    and read — the pruning is in the file listing, not a post-read
    filter — and folded to (n, id_sum, text md5 fold). The oracle
    computes the same fold from the original parquet WHERE lang='es',
    so a partition mix-up or value mangling in either direction breaks
    the hash. Committed by storage.commit_dir like csv_roundtrip."""
    import glob as _glob
    import os

    out = input_cache_dir("hive_rt", f"{sf_dir}/documents.parquet")
    commit_dir(out, lambda d: rp(sf_dir, "documents",
                                 ["doc_id", "text", "lang"])
               .write_parquet(d, partition_cols=["lang"]))
    files = sorted(_glob.glob(os.path.join(out, "lang=es", "*.parquet")))
    if not files:   # corpus has no lang=es rows: the fold is all-zero
        return rd.from_pandas(pd.DataFrame(
            {"n": [0], "id_sum": [0], "fold": [0]}).astype("int64"))
    back = read_table(files)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        h = np.fromiter((int(dedup.md5_hex(t)[:8], 16) for t in df["text"]),
                        dtype=np.int64, count=len(df))
        return pd.DataFrame({
            "n": np.ones(len(df), dtype=np.int64),
            "id_sum": df["doc_id"].to_numpy(dtype=np.int64),
            "fold": h})

    res = partial_aggregate(
        back.map_batches(fold, batch_format="pandas"),
        [], {"n": ("sum", "n"), "id_sum": ("sum", "id_sum"),
             "fold": ("sum", "fold")})
    return res.map_batches(lambda df: df.astype("int64"),
                           batch_format="pandas")


QUERIES["hive_roundtrip"] = hive_roundtrip
ORACLE_SQL["hive_roundtrip"] = """
    SELECT CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(doc_id) AS BIGINT) AS id_sum,
           CAST(SUM(CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT))
                AS BIGINT) AS fold
    FROM documents WHERE lang = 'es'"""


RPE_PARTS = 8


def _rpe_dir(sf_dir: str) -> str:
    """Cache dir of range_partitioned_export, which pruned_range_read
    lists back."""
    return input_cache_dir("rpe", f"{sf_dir}/documents.parquet",
                           f"p{RPE_PARTS}")


def range_partitioned_export(sf_dir: str) -> rd.Dataset:
    """RANGE-PARTITIONED export with a data-skipping manifest — the
    distributed ORDER-BY-layout writer: split points are EXACT order
    statistics of the key (deterministic, no sampling — the
    global_value_rank histogram machinery, so engine and oracle derive
    identical splits from the same rank rule k_i = max(1, i*n//P)),
    every row routes to part = #{splits < key}, parts write
    hive-partitioned, and the manifest read BACK from the files
    reports per-part (n, min_key, max_key, id_sum, content fold).
    Disjoint [min,max] spans across parts are what make key-range
    predicates prune whole directories at 100 TB; the fold proves the
    written bytes. Returns (part, n, min_key, max_key, id_sum, fold)."""
    import glob as _glob
    import os

    from .relops import exact_order_statistic

    docs = rp(sf_dir, "documents", ["doc_id", "n_chars"])
    out = _rpe_dir(sf_dir)

    def write(d: str) -> None:
        n = docs.count()
        splits = np.array(
            [exact_order_statistic(docs, "n_chars",
                                   max(1, (i * n) // RPE_PARTS))
             for i in range(1, RPE_PARTS)], dtype=np.int64)

        def assign(df: pd.DataFrame) -> pd.DataFrame:
            v = df["n_chars"].to_numpy(dtype=np.int64)
            return pd.DataFrame({
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_chars": v,
                "part": np.searchsorted(splits, v, side="left")
                          .astype(np.int64)})

        (docs.map_batches(assign, batch_format="pandas")
             .write_parquet(d, partition_cols=["part"]))

    commit_dir(out, write)
    files = sorted(_glob.glob(os.path.join(out, "part=*", "*.parquet")))
    back = read_table(files)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        v = df["n_chars"].to_numpy(dtype=np.int64)
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        h = np.fromiter(
            (int(dedup.md5_hex(f"{a}:{b}")[:8], 16)
             for a, b in zip(v, ids)), dtype=np.int64, count=len(df))
        return pd.DataFrame({
            "part": df["part"].to_numpy(dtype=np.int64),
            "n": np.ones(len(df), dtype=np.int64),
            "min_key": v, "max_key": v, "id_sum": ids, "fold": h})

    return partial_aggregate(
        back.map_batches(fold, batch_format="pandas"), ["part"],
        {"n": ("sum", "n"), "min_key": ("min", "min_key"),
         "max_key": ("max", "max_key"), "id_sum": ("sum", "id_sum"),
         "fold": ("sum", "fold")})


QUERIES["range_partitioned_export"] = range_partitioned_export
ORACLE_SQL["range_partitioned_export"] = f"""
    WITH c AS (SELECT COUNT(*) AS n FROM documents),
    r AS (SELECT n_chars,
                 ROW_NUMBER() OVER (ORDER BY n_chars) AS rn
          FROM documents),
    s AS MATERIALIZED (
      SELECT i.i,
             (SELECT n_chars FROM r
              WHERE rn = GREATEST(1, (i.i * (SELECT n FROM c))
                                     // {RPE_PARTS})) AS v
      FROM (SELECT unnest(range(1, {RPE_PARTS})) AS i) i),
    a AS (SELECT d.doc_id, d.n_chars,
                 (SELECT COUNT(*) FROM s WHERE s.v < d.n_chars) AS part
          FROM documents d)
    SELECT CAST(part AS BIGINT) AS part,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(MIN(n_chars) AS BIGINT) AS min_key,
           CAST(MAX(n_chars) AS BIGINT) AS max_key,
           CAST(SUM(doc_id) AS BIGINT) AS id_sum,
           CAST(SUM(CAST(('0x' || substr(md5(CAST(n_chars AS VARCHAR)
                    || ':' || CAST(doc_id AS VARCHAR)), 1, 8))
                    AS UBIGINT)) AS BIGINT) AS fold
    FROM a GROUP BY part"""


# ------------------------------------------------ round-4 nineteenth batch

Q10_K = 20


def q10_returned_items(sf_dir: str) -> rd.Dataset:
    """TPC-H Q10 shape (returned-item reporting): top customers by
    revenue lost to returned lineitems in a quarter. Plan: returned
    lineitems pre-aggregate to (orderkey, cents) partials map-side,
    join PARTITIONED to the quarter's orders (the small filtered
    side), fold per customer, join customer names, then the bounded
    empty-key top-k. Revenue in exact cents x (100 - centidisc)
    integers. Returns (c_custkey, c_name, revenue_e4, rank)."""
    li = rp(sf_dir, "lineitem",
            ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"])
    orders = rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = rp(sf_dir, "customer", ["c_custkey", "c_name"])

    def li_prep(df: pd.DataFrame) -> pd.DataFrame:
        r = df[df["l_returnflag"] == "R"]
        disc = np.round(r["l_discount"].to_numpy(dtype=np.float64)
                        * 100).astype(np.int64)
        return (pd.DataFrame({
            "o_orderkey": r["l_orderkey"].to_numpy(dtype=np.int64),
            "rev": _cents(r["l_extendedprice"]).to_numpy() * (100 - disc)})
            .groupby("o_orderkey", sort=False, as_index=False)
            .agg(rev=("rev", "sum")))

    def o_prep(df: pd.DataFrame) -> pd.DataFrame:
        keep = ((df["o_orderdate"] >= pd.Timestamp("1996-01-01"))
                & (df["o_orderdate"] < pd.Timestamp("1996-04-01")))
        return df[keep][["o_orderkey", "o_custkey"]]

    lrev = partial_aggregate(
        li.map_batches(li_prep, batch_format="pandas"),
        ["o_orderkey"], {"rev": ("sum", "rev")})
    j = hash_join(lrev, orders.map_batches(o_prep, batch_format="pandas"),
                  "o_orderkey", "o_orderkey",
                  left_cols=["o_orderkey", "rev"],
                  right_cols=["o_orderkey", "o_custkey"])
    per_cust = partial_aggregate(j, ["o_custkey"],
                                 {"revenue_e4": ("sum", "rev")})
    named = hash_join(per_cust, cust, "o_custkey", "c_custkey",
                      left_cols=["o_custkey", "revenue_e4"],
                      right_cols=["c_custkey", "c_name"])
    # hash_join renames the right key to the LEFT key's name
    named = named.map_batches(
        lambda df: pd.DataFrame({
            "c_custkey": df["o_custkey"].astype("int64"),
            "c_name": df["c_name"],
            "revenue_e4": df["revenue_e4"].astype("int64")}),
        batch_format="pandas")
    top = grouped_topk(named, [], ["revenue_e4", "c_custkey"], Q10_K,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: (df[["c_custkey", "c_name", "revenue_e4", "rk"]]
                    .rename(columns={"rk": "rank"})
                    .astype({"c_custkey": "int64", "revenue_e4": "int64",
                             "rank": "int64"})),
        batch_format="pandas")


QUERIES["q10_returned_items"] = q10_returned_items
ORACLE_SQL["q10_returned_items"] = f"""
    WITH rev AS (
      SELECT o.o_custkey,
             SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
               AS revenue_e4
      FROM lineitem l
      JOIN orders o ON o.o_orderkey = l.l_orderkey
      WHERE l.l_returnflag = 'R'
        AND o.o_orderdate >= TIMESTAMP '1996-01-01'
        AND o.o_orderdate < TIMESTAMP '1996-04-01'
      GROUP BY o.o_custkey),
    r AS (SELECT c.c_custkey, c.c_name,
                 CAST(rev.revenue_e4 AS BIGINT) AS revenue_e4,
                 ROW_NUMBER() OVER (ORDER BY rev.revenue_e4 DESC,
                                    c.c_custkey) AS rank
          FROM rev JOIN customer c ON c.c_custkey = rev.o_custkey)
    SELECT c_custkey, c_name, revenue_e4, CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= {Q10_K}"""


def q13_order_distribution(sf_dir: str) -> rd.Dataset:
    """TPC-H Q13 shape (customer distribution): histogram of customers
    by their order count INCLUDING zero-order customers — the
    distribution-of-a-distribution double aggregate: per-customer
    counts fold bucketed, zero-count customers come from an ANTI join
    against the orders' customer keys, and the second aggregate is
    bounded by the count domain. Returns
    (c_count, custdist)."""
    from .relops import semi_anti_filter_scalable

    orders = rp(sf_dir, "orders", ["o_custkey"])
    cust = rp(sf_dir, "customer", ["c_custkey"])
    per_cust = partial_aggregate(orders, ["o_custkey"],
                                 {"c_count": ("count", None)})
    zeros = semi_anti_filter_scalable(
        cust, "c_custkey",
        orders.map_batches(lambda df: df[["o_custkey"]],
                           batch_format="pandas"),
        key_col="o_custkey", anti=True, cols=["c_custkey"])
    zero_rows = zeros.map_batches(
        lambda df: pd.DataFrame({
            "c_count": np.zeros(len(df), dtype=np.int64)}),
        batch_format="pandas")
    nonzero = per_cust.map_batches(
        lambda df: df[["c_count"]].astype("int64"), batch_format="pandas")
    return partial_aggregate(nonzero.union(zero_rows), ["c_count"],
                             {"custdist": ("count", None)})


QUERIES["q13_order_distribution"] = q13_order_distribution
ORACLE_SQL["q13_order_distribution"] = """
    WITH pc AS (
      SELECT c.c_custkey, CAST(COUNT(o.o_orderkey) AS BIGINT) AS c_count
      FROM customer c
      LEFT JOIN orders o ON o.o_custkey = c.c_custkey
      GROUP BY c.c_custkey)
    SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
    FROM pc GROUP BY c_count"""


# ------------------------------------------------- round-4 twentieth batch

EVAL_POOL_MOD = 13   # doc_id % 13 == 0 -> the held-out eval pool


def eval_prep(sf_dir: str) -> rd.Dataset:
    """The composed EVAL-set preparation chain — the fifth end-to-end
    pipeline (training_prep / rag_prep / mm_prep / embedding_prep are
    the others), gated by ONE composed DuckDB oracle: carve the
    held-out pool (doc_id % 13 == 0) → LEAKAGE SCRUB: drop any pool
    doc whose 4-token-prefix key (the duplication actually planted in
    the corpus) also appears in the TRAIN split — the reverse
    direction of `decontaminate`, protecting the eval set from train
    overlap → exact first-wins dedup inside the pool → prompt /
    continuation split (first half / rest of the tokens) → per-lang
    manifest with an id fold. Scale shape: the train side contributes
    only prefix-HASH keys to the anti join (the train texts never
    shuffle), the dedup keeper set moves ids only,
    and the manifest is a bounded aggregate."""
    from .relops import semi_anti_filter_scalable

    docs = rp(sf_dir, "documents", ["doc_id", "text", "lang"])

    def prefix_hash(df: pd.DataFrame, keep_cols) -> pd.DataFrame:
        out = {c: df[c].to_numpy() for c in keep_cols}
        out["h"] = [dedup.md5_hex(" ".join(t.split(" ")[:4]))
                    for t in df["text"]]
        return pd.DataFrame(out)

    pool = docs.map_batches(
        lambda df: prefix_hash(df[df["doc_id"] % EVAL_POOL_MOD == 0],
                               ["doc_id", "text", "lang"]),
        batch_format="pandas")
    train_keys = docs.map_batches(
        lambda df: prefix_hash(df[df["doc_id"] % EVAL_POOL_MOD != 0], [])
                   [["h"]],
        batch_format="pandas")
    scrubbed = semi_anti_filter_scalable(
        pool, "h", train_keys, anti=True,
        cols=["doc_id", "text", "lang", "h"])

    def text_hash(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "th": [dedup.md5_hex(t) for t in df["text"]],
            "doc_id": df["doc_id"].to_numpy(dtype=np.int64)})

    keepers = partial_aggregate(
        scrubbed.map_batches(text_hash, batch_format="pandas"),
        ["th"], {"doc_id": ("min", "doc_id")}).map_batches(
        lambda df: df[["doc_id"]].astype("int64"),
        batch_format="pandas")
    kept = semi_anti_filter_scalable(
        scrubbed, "doc_id", keepers,
        cols=["doc_id", "text", "lang"])

    def split(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].str.count(" ").to_numpy(dtype=np.int64) + 1
        p = n // 2
        fold = np.fromiter(
            (int(dedup.md5_hex(str(int(i)))[:8], 16)
             for i in df["doc_id"]), dtype=np.int64, count=len(df))
        return pd.DataFrame({
            "lang": df["lang"].to_numpy(),
            "n_examples": np.ones(len(df), dtype=np.int64),
            "sum_prompt_toks": p, "sum_cont_toks": n - p,
            "id_fold": fold})

    return partial_aggregate(
        kept.map_batches(split, batch_format="pandas"), ["lang"],
        {"n_examples": ("sum", "n_examples"),
         "sum_prompt_toks": ("sum", "sum_prompt_toks"),
         "sum_cont_toks": ("sum", "sum_cont_toks"),
         "id_fold": ("sum", "id_fold")})


QUERIES["eval_prep"] = eval_prep
ORACLE_SQL["eval_prep"] = f"""
    WITH ph AS (
      SELECT doc_id, text, lang,
             md5(array_to_string(string_split(text, ' ')[1:4], ' ')) AS h
      FROM documents),
    train AS MATERIALIZED (
      SELECT DISTINCT h FROM ph WHERE doc_id % {EVAL_POOL_MOD} <> 0),
    pool AS (
      SELECT * FROM ph WHERE doc_id % {EVAL_POOL_MOD} = 0),
    scrub AS MATERIALIZED (
      SELECT p.* FROM pool p
      WHERE NOT EXISTS (SELECT 1 FROM train t WHERE t.h = p.h)),
    keep AS (
      SELECT MIN(doc_id) AS doc_id FROM scrub GROUP BY md5(text)),
    kept AS (
      SELECT s.doc_id, s.text, s.lang FROM scrub s
      WHERE s.doc_id IN (SELECT doc_id FROM keep)),
    m AS (
      SELECT lang, doc_id,
             CAST(len(string_split(text, ' ')) AS BIGINT) AS n
      FROM kept)
    SELECT lang,
           CAST(COUNT(*) AS BIGINT) AS n_examples,
           CAST(SUM(n // 2) AS BIGINT) AS sum_prompt_toks,
           CAST(SUM(n - n // 2) AS BIGINT) AS sum_cont_toks,
           CAST(SUM(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                AS UBIGINT)) AS BIGINT) AS id_fold
    FROM m GROUP BY lang"""


# ---------------------------------------------- round-4 twenty-first batch

def _weighted_pagerank_oracle_sql(n_iter: int = 3) -> str:
    """Generated CTE chain replaying graph.weighted_pagerank_int over
    the shared-chunk pair graph with n_shared_chunks edge weights."""
    levels = []
    for i in range(1, n_iter + 1):
        levels.append(f"""r{i} AS MATERIALIZED (
          SELECT ed.dst AS node,
                 150 + (85 * SUM((r{i - 1}.rank_mu * ed.w) // ed.tw)) // 100
                   AS rank_mu
          FROM ed JOIN r{i - 1} ON r{i - 1}.node = ed.src
          GROUP BY ed.dst)""")
    lv = ",\n        ".join(levels)
    return f"""
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        c AS (
          SELECT doc_id, md5(array_to_string(toks[10*i+1:10*i+10], ' '))
                   AS ch
          FROM (SELECT doc_id, toks,
                       unnest(range(0, len(toks) // 10)) AS i
                FROM t)),
        d AS (SELECT DISTINCT doc_id, ch FROM c),
        p AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                 CAST(COUNT(*) AS BIGINT) AS w
          FROM d a JOIN d b ON a.ch = b.ch AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
        e AS MATERIALIZED (
          SELECT doc_a AS src, doc_b AS dst, w FROM p
          UNION ALL
          SELECT doc_b AS src, doc_a AS dst, w FROM p),
        tw AS (SELECT src, CAST(SUM(w) AS BIGINT) AS tw
               FROM e GROUP BY src),
        ed AS MATERIALIZED (
          SELECT e.src, e.dst, e.w, tw.tw FROM e JOIN tw USING (src)),
        r0 AS (SELECT src AS node, CAST(1000 AS BIGINT) AS rank_mu
               FROM tw),
        {lv}
        SELECT node, CAST(rank_mu AS BIGINT) AS rank_mu FROM r{n_iter}"""


def weighted_pagerank_dups(sf_dir: str) -> rd.Dataset:
    """Weighted PageRank over the shared-chunk duplication graph (edge
    weight = shared-chunk count): the mirror-farm centrality ranking
    where heavily-duplicated pairs pull proportionally more rank.
    Same edge-Dataset shape as pagerank_dups; one extra (src, total
    weight) join feeds the floor-division contributions."""
    from . import graph

    pairs = dedup.shared_chunk_pairs(
        rp(sf_dir, "documents", ["doc_id", "text"]))
    out = graph.weighted_pagerank_int(
        pairs, n_iter=3, src_col="doc_a", dst_col="doc_b",
        w_col="n_shared_chunks")
    return out.map_batches(
        lambda df: df.astype({"node": "int64", "rank_mu": "int64"}),
        batch_format="pandas")


QUERIES["weighted_pagerank_dups"] = weighted_pagerank_dups
ORACLE_SQL["weighted_pagerank_dups"] = _weighted_pagerank_oracle_sql(3)


TOKV_SIZE = 256


def tokenized_export(sf_dir: str) -> rd.Dataset:
    """TOKENIZED-dataset sink + read-back fold — the artifact LLM
    training actually consumes: encode every doc as an id sequence
    under the top-TOKV_SIZE frequency vocabulary (the vocab_encode
    rank rule: count desc, token asc; OOV -> id 0), write the id
    arrays as parquet, read them BACK and fold per lang into
    (n_docs, n_tokens, id_sum, n_oov). The vocabulary is bounded and
    broadcast; the corpus makes exactly two streaming passes (count,
    encode); the oracle derives the same fold from the raw text, so
    any encode/write/read mangling breaks the hash. Committed by
    storage.commit_dir like the other sinks."""
    import glob as _glob
    import os

    docs = rp(sf_dir, "documents", ["doc_id", "text", "lang"])

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        out = pd.DataFrame({"token": flat})
        return (out.groupby("token", sort=False, as_index=False).size()
                .rename(columns={"size": "cnt"}))

    cnt = partial_aggregate(
        docs.map_batches(tok_counts, batch_format="pandas"),
        ["token"], {"cnt": ("sum", "cnt")}).to_pandas()
    cnt = cnt.sort_values(["cnt", "token"], ascending=[False, True],
                          ignore_index=True).head(TOKV_SIZE)
    vocab = {t: i + 1 for i, t in enumerate(cnt["token"])}

    out_dir = input_cache_dir("tok_export", f"{sf_dir}/documents.parquet",
                              f"v{TOKV_SIZE}")

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        ids = [[vocab.get(t, 0) for t in s.split(" ")]
               for s in df["text"]]
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
            "lang": df["lang"].to_numpy(),
            "ids": ids})

    commit_dir(out_dir, lambda d: docs.map_batches(
        encode, batch_format="pandas").write_parquet(d))
    files = sorted(_glob.glob(os.path.join(out_dir, "*.parquet")))
    back = read_table(files)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        seqs = [np.asarray(x, dtype=np.int64) for x in df["ids"]]
        return pd.DataFrame({
            "lang": df["lang"].to_numpy(),
            "n_docs": np.ones(len(df), dtype=np.int64),
            "n_tokens": np.array([len(s) for s in seqs], dtype=np.int64),
            "id_sum": np.array([int(s.sum()) for s in seqs],
                               dtype=np.int64),
            "n_oov": np.array([int((s == 0).sum()) for s in seqs],
                              dtype=np.int64)})

    return partial_aggregate(
        back.map_batches(fold, batch_format="pandas"), ["lang"],
        {"n_docs": ("sum", "n_docs"), "n_tokens": ("sum", "n_tokens"),
         "id_sum": ("sum", "id_sum"), "n_oov": ("sum", "n_oov")})


QUERIES["tokenized_export"] = tokenized_export
ORACLE_SQL["tokenized_export"] = f"""
    WITH toks AS (
      SELECT doc_id, lang, unnest(string_split(text, ' ')) AS token
      FROM documents),
    c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt
          FROM toks GROUP BY token),
    v AS (SELECT token,
                 CAST(row_number() OVER (ORDER BY cnt DESC, token)
                      AS BIGINT) AS rk
          FROM c QUALIFY rk <= {TOKV_SIZE})
    SELECT t.lang,
           CAST(COUNT(DISTINCT t.doc_id) AS BIGINT) AS n_docs,
           CAST(COUNT(*) AS BIGINT) AS n_tokens,
           CAST(SUM(COALESCE(v.rk, 0)) AS BIGINT) AS id_sum,
           CAST(SUM(CASE WHEN v.rk IS NULL THEN 1 ELSE 0 END) AS BIGINT)
             AS n_oov
    FROM toks t LEFT JOIN v USING (token)
    GROUP BY t.lang"""


# --------------------------------------------- round-4 twenty-second batch

def daily_interpolate(sf_dir: str) -> pd.DataFrame:
    """Time-series GAP FILL: the per-(type, day) count series with
    interior missing days filled by integer floor linear interpolation
    between the nearest observed neighbors (leading/trailing gaps stay
    absent — there is nothing to anchor them to). The (type, day)
    aggregate is bounded (types x 31), so the fill itself is
    driver-side vectorized numpy over the bounded table — the
    type_corr_matrix discipline. Returns
    (event_type, d, n, interpolated)."""
    ev = rp(sf_dir, "events", ["event_type", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "d": df["ts"].dt.day.to_numpy(dtype=np.int64),
            "n": np.ones(len(df), dtype=np.int64)})

    dc = partial_aggregate(
        ev.map_batches(prep, batch_format="pandas"),
        ["event_type", "d"], {"n": ("sum", "n")}).to_pandas()
    rows = []
    for ty, g in dc.groupby("event_type"):
        g = g.sort_values("d", ignore_index=True)
        ds_ = g["d"].to_numpy(dtype=np.int64)
        ns = g["n"].to_numpy(dtype=np.int64)
        for i in range(len(ds_)):
            rows.append((ty, int(ds_[i]), int(ns[i]), 0))
            if i + 1 < len(ds_) and ds_[i + 1] > ds_[i] + 1:
                dp, dn_ = ds_[i], ds_[i + 1]
                vp, vn = ns[i], ns[i + 1]
                for d in range(dp + 1, dn_):
                    # sign-split so a DECREASING gap rounds toward vp
                    # exactly like the oracle's CASE (numpy's plain //
                    # would floor the negative product instead)
                    if vn >= vp:
                        v = vp + (vn - vp) * (d - dp) // (dn_ - dp)
                    else:
                        v = vp - (vp - vn) * (d - dp) // (dn_ - dp)
                    rows.append((ty, d, int(v), 1))
    out = pd.DataFrame(rows, columns=["event_type", "d", "n",
                                      "interpolated"])
    return out.astype({"d": "int64", "n": "int64",
                       "interpolated": "int64"})


QUERIES["daily_interpolate"] = daily_interpolate
ORACLE_SQL["daily_interpolate"] = """
    WITH dc AS (SELECT event_type AS ty, EXTRACT(day FROM ts) AS d,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2),
    bounds AS (SELECT ty, MIN(d) AS lo, MAX(d) AS hi FROM dc GROUP BY ty),
    grid AS (SELECT b.ty, b.lo + g.i AS d
             FROM bounds b,
                  LATERAL (SELECT unnest(range(0, b.hi - b.lo + 1)) AS i)
                    AS g),
    j AS (SELECT grid.ty, grid.d, dc.n FROM grid
          LEFT JOIN dc ON dc.ty = grid.ty AND dc.d = grid.d),
    anch AS (
      SELECT ty, d, n,
             LAST_VALUE(CASE WHEN n IS NOT NULL THEN d END IGNORE NULLS)
               OVER (PARTITION BY ty ORDER BY d
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS dp,
             LAST_VALUE(CASE WHEN n IS NOT NULL THEN n END IGNORE NULLS)
               OVER (PARTITION BY ty ORDER BY d
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS vp,
             FIRST_VALUE(CASE WHEN n IS NOT NULL THEN d END IGNORE NULLS)
               OVER (PARTITION BY ty ORDER BY d
                     ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)
               AS dn,
             FIRST_VALUE(CASE WHEN n IS NOT NULL THEN n END IGNORE NULLS)
               OVER (PARTITION BY ty ORDER BY d
                     ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)
               AS vn
      FROM j)
    SELECT ty AS event_type, CAST(d AS BIGINT) AS d,
           CAST(CASE WHEN n IS NOT NULL THEN n
                     WHEN vn >= vp THEN vp + (vn - vp) * (d - dp) // (dn - dp)
                     ELSE vp - (vp - vn) * (d - dp) // (dn - dp)
                END AS BIGINT) AS n,
           CAST(CASE WHEN n IS NULL THEN 1 ELSE 0 END AS BIGINT)
             AS interpolated
    FROM anch"""


def funnel_strict(sf_dir: str) -> rd.Dataset:
    """STRICT funnel: a click converts only if the user's FIRST
    purchase within the window arrives with NO intervening 'error'
    event — the branch-sensitive sequence pattern (A then B within T,
    unless C interrupts) that plain funnel counting misses. Per
    ordered-log bucket it is three searchsorted probes per click
    array (first purchase in window; error count in the open interval
    (click, purchase)); no pairwise join. Returns
    (user_id, n_clicks, n_strict)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("int64").to_numpy()
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        users, n_c, n_s = [], [], []
        start = np.flatnonzero(df["user_id"].ne(df["user_id"].shift())
                               .to_numpy())
        bounds = np.append(start, len(df))
        for a, b in zip(bounds[:-1], bounds[1:]):
            ct = t[a:b][et[a:b] == "click"]
            pt = t[a:b][et[a:b] == "purchase"]
            er = t[a:b][et[a:b] == "error"]
            lo = np.searchsorted(pt, ct, side="right")
            hi = np.searchsorted(pt, ct + FUNNEL_WINDOW_US, side="right")
            conv = hi > lo
            strict = np.zeros(len(ct), dtype=bool)
            if conv.any():
                p1 = pt[np.minimum(lo, len(pt) - 1)]
                e_lo = np.searchsorted(er, ct, side="right")
                e_hi = np.searchsorted(er, p1, side="left")
                strict = conv & (e_hi <= e_lo)
            users.append(uid[a])
            n_c.append(len(ct))
            n_s.append(int(strict.sum()))
        return pd.DataFrame({
            "user_id": pd.Series(users, dtype=df["user_id"].dtype),
            "n_clicks": pd.Series(n_c, dtype="int64"),
            "n_strict": pd.Series(n_s, dtype="int64")})

    return _bucketed_by_user(ev, fn)


QUERIES["funnel_strict"] = funnel_strict
ORACLE_SQL["funnel_strict"] = f"""
    WITH c AS (SELECT user_id, epoch_us(ts) AS t FROM events
               WHERE event_type = 'click'),
    p AS (SELECT user_id, epoch_us(ts) AS t FROM events
          WHERE event_type = 'purchase'),
    er AS (SELECT user_id, epoch_us(ts) AS t FROM events
           WHERE event_type = 'error'),
    fp AS (SELECT c.user_id, c.t,
                  (SELECT MIN(p.t) FROM p
                   WHERE p.user_id = c.user_id AND p.t > c.t
                     AND p.t <= c.t + {FUNNEL_WINDOW_US}) AS p1
           FROM c),
    s AS (SELECT user_id, t, p1,
                 CASE WHEN p1 IS NOT NULL AND NOT EXISTS (
                        SELECT 1 FROM er
                        WHERE er.user_id = fp.user_id
                          AND er.t > fp.t AND er.t < fp.p1)
                      THEN 1 ELSE 0 END AS strict
          FROM fp)
    SELECT user_id,
           CAST(COUNT(*) AS BIGINT) AS n_clicks,
           CAST(SUM(strict) AS BIGINT) AS n_strict
    FROM s GROUP BY user_id"""


# --------------------------------------------- round-4 twenty-third batch

Q7_FROM, Q7_TO = "1996-01-01", "1997-01-01"


def q7_nation_trade(sf_dir: str) -> rd.Dataset:
    """TPC-H Q7 shape (volume shipping): the CROSS-NATION trade matrix
    — revenue per (supplier nation, customer nation) pair, different
    nations only, within one ship-date year. Plan: the date filter
    prunes lineitem AT THE READ; lineitem ⋈ orders ⋈ customer ⋈
    supplier all run PARTITIONED; the last join's buckets map the two
    nationkeys to names through the broadcast 25-row dimension and
    PRE-REDUCE to (supp_nation, cust_nation) partials, so the final
    exchange is ≤ |nations|² rows. Revenue in exact e4 integers.
    Returns (supp_nation, cust_nation, revenue_e4, n_lines)."""
    nat = rp(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    names = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    lo, hi = pd.Timestamp(Q7_FROM), pd.Timestamp(Q7_TO)
    li = rp(sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
             "l_shipdate"]).map_batches(
        lambda df: (lambda k: pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(dtype=np.int64)[k],
            "l_suppkey": df["l_suppkey"].to_numpy(dtype=np.int64)[k],
            "rev": (_cents(df["l_extendedprice"]).to_numpy()
                    * (100 - np.round(df["l_discount"].to_numpy(
                        dtype=np.float64) * 100).astype(np.int64)))[k]}))
        (((df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)).to_numpy()),
        batch_format="pandas")
    orders = rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j1 = hash_join(li, orders, "l_orderkey", "o_orderkey",
                   left_cols=["l_orderkey", "l_suppkey", "rev"],
                   right_cols=["o_orderkey", "o_custkey"])
    cust = rp(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j2 = hash_join(j1, cust, "o_custkey", "c_custkey",
                   left_cols=["l_suppkey", "rev", "o_custkey"],
                   right_cols=["c_custkey", "c_nationkey"])
    supp = rp(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        sn = df["s_nationkey"].to_numpy(dtype=np.int64)
        cn = df["c_nationkey"].to_numpy(dtype=np.int64)
        keep = sn != cn
        out = pd.DataFrame({
            "supp_nation": pd.Series(sn[keep]).map(names),
            "cust_nation": pd.Series(cn[keep]).map(names),
            "revenue_e4": df["rev"].to_numpy(dtype=np.int64)[keep],
            "n_lines": np.ones(int(keep.sum()), dtype=np.int64)})
        return (out.groupby(["supp_nation", "cust_nation"], sort=False,
                            as_index=False)
                .agg(revenue_e4=("revenue_e4", "sum"),
                     n_lines=("n_lines", "sum")).infer_objects())

    j3 = hash_join(j2, supp, "l_suppkey", "s_suppkey",
                   left_cols=["l_suppkey", "rev", "c_nationkey"],
                   right_cols=["s_suppkey", "s_nationkey"],
                   bucket_fn=fold)
    return partial_aggregate(j3, ["supp_nation", "cust_nation"],
                             {"revenue_e4": ("sum", "revenue_e4"),
                              "n_lines": ("sum", "n_lines")})


QUERIES["q7_nation_trade"] = q7_nation_trade
ORACLE_SQL["q7_nation_trade"] = f"""
    SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
           CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
                AS BIGINT) AS revenue_e4,
           CAST(COUNT(*) AS BIGINT) AS n_lines
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
    JOIN nation nc ON nc.n_nationkey = c.c_nationkey
    JOIN nation ns ON ns.n_nationkey = s.s_nationkey
    WHERE l.l_shipdate >= TIMESTAMP '{Q7_FROM}'
      AND l.l_shipdate < TIMESTAMP '{Q7_TO}'
      AND c.c_nationkey <> s.s_nationkey
    GROUP BY 1, 2"""


def daily_new_users(sf_dir: str) -> rd.Dataset:
    """Daily NEW-user counts (the first-seen product metric): min event
    time per user folds bucketed, then the first-seen days aggregate —
    two bounded passes, one row per user then one per day. Returns
    (d, n_new)."""
    ev = rp(sf_dir, "events", ["user_id", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(dtype=np.int64),
            "first_us": df["ts"].astype("int64").to_numpy()})

    first = partial_aggregate(
        ev.map_batches(prep, batch_format="pandas"),
        ["user_id"], {"first_us": ("min", "first_us")})

    def to_day(df: pd.DataFrame) -> pd.DataFrame:
        d = (pd.to_datetime(df["first_us"].astype("int64"), unit="us")
             .dt.day.to_numpy(dtype=np.int64))
        return pd.DataFrame({"d": d,
                             "n_new": np.ones(len(df), dtype=np.int64)})

    return partial_aggregate(
        first.map_batches(to_day, batch_format="pandas"),
        ["d"], {"n_new": ("sum", "n_new")})


QUERIES["daily_new_users"] = daily_new_users
ORACLE_SQL["daily_new_users"] = """
    WITH f AS (SELECT user_id, MIN(ts) AS first_ts
               FROM events GROUP BY user_id)
    SELECT CAST(EXTRACT(day FROM first_ts) AS BIGINT) AS d,
           CAST(COUNT(*) AS BIGINT) AS n_new
    FROM f GROUP BY 1"""


# -------------------------------------------- round-4 twenty-fourth batch

def pushdown_filter_agg(sf_dir: str) -> rd.Dataset:
    """PREDICATE + PROJECTION PUSHDOWN at the parquet read — the
    'prune at the read' rule as a value-checked query: the quantity
    predicate goes into the Parquet reader's Arrow filter (evaluated inside
    the reader against row-group statistics and pages — at 100 TB the
    skipped row groups never leave storage) and only two columns are
    projected; everything after is one empty-key fold. The
    oracle computes the same aggregate with a WHERE clause, so a
    pushdown that dropped or double-read rows would break the hash.
    Returns (n_rows, qty_sum, price_cents_sum)."""
    import pyarrow.compute as pc

    ds = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_quantity", "l_extendedprice"],
                    filter=(pc.field("l_quantity") < 10))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        q = df["l_quantity"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "n_rows": pd.Series([len(df)], dtype="int64"),
            "qty_sum": pd.Series([int(np.round(q).astype(np.int64).sum())],
                                 dtype="int64"),
            "price_cents_sum": pd.Series(
                [int(_cents(df["l_extendedprice"]).sum())], dtype="int64")})

    out = partial_aggregate(
        ds.map_batches(fold, batch_format="pandas"), [],
        {"n_rows": ("sum", "n_rows"), "qty_sum": ("sum", "qty_sum"),
         "price_cents_sum": ("sum", "price_cents_sum")})
    return out.map_batches(lambda df: df.astype("int64"),
                           batch_format="pandas")


QUERIES["pushdown_filter_agg"] = pushdown_filter_agg
ORACLE_SQL["pushdown_filter_agg"] = """
    SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
           CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT)
             AS qty_sum,
           CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                AS BIGINT) AS price_cents_sum
    FROM lineitem WHERE l_quantity < 10"""


# --------------------------------------------- round-4 twenty-fifth batch

RUN_TOP_K = 20


def longest_token_run(sf_dir: str) -> rd.Dataset:
    """Longest consecutive SAME-TOKEN run per doc, global top-20 — the
    degenerate-repetition detector (looping generations, boilerplate
    stutter) that complements the n-gram repetition ratio. Per batch
    the run lengths come from one vectorized change-point pass over
    the flattened token stream (doc boundaries count as changes);
    ranking is the bounded empty-key top-k. Returns
    (doc_id, run_len, rank)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def runs(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        lens = toks.map(len).to_numpy(dtype=np.int64)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        did = np.repeat(df["doc_id"].to_numpy(dtype=np.int64), lens)
        # change points: token differs from predecessor OR doc changes
        chg = np.ones(len(flat), dtype=bool)
        if len(flat) > 1:
            chg[1:] = (flat[1:] != flat[:-1]) | (did[1:] != did[:-1])
        starts = np.flatnonzero(chg)
        run_len = np.diff(np.append(starts, len(flat)))
        run_doc = did[starts]
        return (pd.DataFrame({"doc_id": run_doc, "run_len": run_len})
                .groupby("doc_id", sort=False, as_index=False)
                .agg(run_len=("run_len", "max")))

    top = grouped_topk(docs.map_batches(runs, batch_format="pandas"),
                       [], ["run_len", "doc_id"], RUN_TOP_K,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: df[["doc_id", "run_len", "rk"]]
                     .rename(columns={"rk": "rank"}).astype("int64"),
        batch_format="pandas")


QUERIES["longest_token_run"] = longest_token_run
ORACLE_SQL["longest_token_run"] = f"""
    WITH tok AS (
      SELECT doc_id, token, i,
             i - ROW_NUMBER() OVER (PARTITION BY doc_id, token
                                    ORDER BY i) AS grp
      FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token,
                   generate_subscripts(string_split(text, ' '), 1) AS i
            FROM documents)),
    runs AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS run_len
             FROM tok GROUP BY doc_id, token, grp),
    best AS (SELECT doc_id, MAX(run_len) AS run_len
             FROM runs GROUP BY doc_id),
    r AS (SELECT doc_id, run_len,
                 ROW_NUMBER() OVER (ORDER BY run_len DESC, doc_id)
                   AS rank
          FROM best)
    SELECT CAST(doc_id AS BIGINT) AS doc_id, run_len,
           CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= {RUN_TOP_K}"""


def dataset_card(sf_dir: str) -> pd.DataFrame:
    """The DATASET CARD / datasheet capstone: one (metric, key, value)
    table a release pipeline would publish — total docs, per-lang and
    per-source counts, exact duplicate count (docs minus distinct
    texts), total tokens, and the exact lower-median doc length. Every
    number derives from bounded aggregates already audited elsewhere
    (one corpus pass for the counts fold, one md5 aggregate for the
    dup rate, the two-pass exact median); the card itself is a
    constant-size driver-side assembly."""
    from .relops import exact_median

    docs = rp(sf_dir, "documents", ["doc_id", "text", "lang", "source",
                                    "n_chars"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": df["lang"], "source": df["source"],
            "n": np.ones(len(df), dtype=np.int64),
            "tok": df["text"].str.count(" ").to_numpy(dtype=np.int64) + 1})

    per_ls = partial_aggregate(
        docs.map_batches(prep, batch_format="pandas"),
        ["lang", "source"], {"n": ("sum", "n"),
                             "tok": ("sum", "tok")}).to_pandas()

    def th(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"h": [dedup.md5_hex(t) for t in df["text"]],
                             "n": np.ones(len(df), dtype=np.int64)})

    per_hash = partial_aggregate(
        docs.map_batches(th, batch_format="pandas"),
        ["h"], {"n": ("sum", "n")})
    distinct = int(per_hash.count())
    total = int(per_ls["n"].sum())
    med, _ = exact_median(docs, "n_chars")
    rows = [("n_docs", "", total),
            ("n_dup_docs", "", total - distinct),
            ("n_tokens", "", int(per_ls["tok"].sum())),
            ("median_chars", "", int(med))]
    for lang, g in per_ls.groupby("lang"):
        rows.append(("docs_per_lang", lang, int(g["n"].sum())))
    for src, g in per_ls.groupby("source"):
        rows.append(("docs_per_source", src, int(g["n"].sum())))
    out = pd.DataFrame(rows, columns=["metric", "key", "value"])
    return out.astype({"value": "int64"})


QUERIES["dataset_card"] = dataset_card
ORACLE_SQL["dataset_card"] = """
    WITH med AS (
      SELECT n_chars AS v
      FROM (SELECT n_chars,
                   ROW_NUMBER() OVER (ORDER BY n_chars) AS rn,
                   COUNT(*) OVER () AS n
            FROM documents)
      WHERE rn = (n + 1) // 2)
    SELECT 'n_docs' AS metric, '' AS key,
           CAST(COUNT(*) AS BIGINT) AS value FROM documents
    UNION ALL
    SELECT 'n_dup_docs', '',
           CAST(COUNT(*) - COUNT(DISTINCT md5(text)) AS BIGINT)
    FROM documents
    UNION ALL
    SELECT 'n_tokens', '',
           CAST(SUM(len(string_split(text, ' '))) AS BIGINT)
    FROM documents
    UNION ALL
    SELECT 'median_chars', '', CAST((SELECT v FROM med) AS BIGINT)
    UNION ALL
    SELECT 'docs_per_lang', lang, CAST(COUNT(*) AS BIGINT)
    FROM documents GROUP BY lang
    UNION ALL
    SELECT 'docs_per_source', source, CAST(COUNT(*) AS BIGINT)
    FROM documents GROUP BY source"""


# --------------------------------------------- round-4 twenty-sixth batch

IVFPQ_NPROBE = 2


def ivfpq_search(sf_dir: str) -> rd.Dataset:
    """IVF-PQ — the composed production ANN serving path (Jégou et al.
    2011; the FAISS IVFADC layout): a COARSE k-means partitions the
    vectors into cells, the query probes only its IVFPQ_NPROBE nearest
    cells, and the surviving candidates are ranked by PQ asymmetric
    distance (two table lookups + one add per vector). Everything is
    the existing exact-integer machinery composed: the coarse pass is
    kmeans_lloyd_int over the full dimension, the candidate filter is
    the semi join on vec_id, and the ADC stage is
    ann_pq_search's fused scoring map. The generated oracle chains a
    prefixed coarse k-means replay, the probe-cell selection, both PQ
    subspace replays and the ADC ranking — one SQL statement replays
    the whole index + search. Returns (vec_id, rank, adc_dist2)."""
    from .relops import semi_anti_filter_scalable

    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    mn = partial_aggregate(
        emb.map_batches(
            lambda df: pd.DataFrame({
                "v": df["vec_id"].astype(np.int64).to_numpy()}),
            batch_format="pandas"),
        [], {"mn": ("min", "v")}).to_pandas()
    qid = int(mn["mn"].iloc[0])
    qrow = emb.map_batches(lambda df: df[df["vec_id"] == qid],
                           batch_format="pandas").to_pandas()
    qfull = np.asarray(qrow["embedding"].iloc[0], dtype=np.float64)
    qq_full = (np.sign(qfull * 1000.0)
               * np.floor(np.abs(qfull * 1000.0) + 0.5)).astype(np.int64)

    # coarse quantizer: full-dim integer k-means; probe the query's
    # IVFPQ_NPROBE nearest cells (ties to the lower cell id)
    asg, Cg, _ = similarity.kmeans_lloyd_int(
        emb, k=KMEANS_K, n_rounds=KMEANS_ROUNDS, return_centroids=True)
    dq_c = ((Cg - qq_full[None, :]) ** 2).sum(axis=1).astype(np.int64)
    order = np.lexsort((np.arange(len(dq_c)), dq_c))
    probe = set(int(c) for c in order[:IVFPQ_NPROBE])
    cand_ids = asg.map_batches(
        lambda df: (df[df["cluster"].isin(probe)
                       & (df["vec_id"] != qid)][["vec_id"]]
                    .astype("int64")),
        batch_format="pandas")
    # the embedding column must survive the semi filter's groupby
    # shuffle: re-type Ray's TensorArray extension to plain object
    # lists first (the embedding_prep rule — TensorArray blocks can't
    # concat through an exchange)
    emb_l = emb.map_batches(
        lambda df: pd.DataFrame({
            "vec_id": df["vec_id"].astype("int64").to_numpy(),
            "embedding": [np.asarray(v, dtype=np.float64).tolist()
                          for v in df["embedding"]]}),
        batch_format="pandas")
    cand = semi_anti_filter_scalable(emb_l, "vec_id", cand_ids,
                                     cols=["vec_id", "embedding"])

    def half(lo: int, hi: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            M = np.stack(df["embedding"].to_numpy())[:, lo:hi]
            return pd.DataFrame({
                "vec_id": df["vec_id"].astype(np.int64).to_numpy(),
                "embedding": list(M)})
        return f

    tables = []
    for lo, hi in ((0, PQ_SPLIT), (PQ_SPLIT, 2 * PQ_SPLIT)):
        _, C, _ = similarity.kmeans_lloyd_int(
            emb.map_batches(half(lo, hi), batch_format="pandas"),
            k=PQ_K, n_rounds=KMEANS_ROUNDS, return_centroids=True)
        dq = ((C - qq_full[lo:hi][None, :]) ** 2).sum(axis=1) \
            .astype(np.int64)
        tables.append((lo, hi, C, dq))

    def adc_score(df: pd.DataFrame) -> pd.DataFrame:
        M = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        adc = np.zeros(len(df), dtype=np.int64)
        for lo, hi, C, dq in tables:
            P = M[:, lo:hi] * 1000.0
            Q = (np.sign(P) * np.floor(np.abs(P) + 0.5)).astype(np.int64)
            D = ((Q * Q).sum(axis=1)[:, None] - 2 * (Q @ C.T)
                 + (C * C).sum(axis=1)[None, :])
            adc += dq[np.argmin(D, axis=1)]
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64).to_numpy(),
            "adc_dist2": adc})

    scored = cand.map_batches(adc_score, batch_format="pandas")
    top = grouped_topk(scored, [], ["adc_dist2", "vec_id"], PQ_SEARCH_K,
                       ascending=[True, True])
    return top.map_batches(
        lambda df: pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64).to_numpy(),
            "rank": df["rk"].astype(np.int64).to_numpy(),
            "adc_dist2": df["adc_dist2"].astype(np.int64).to_numpy()}),
        batch_format="pandas")


def _coarse_cte_parts(k: int, n_rounds: int) -> list:
    """_kmeans_cte_parts with a 'cg' prefix so the coarse chain can
    coexist with the PQ chain's (differently-seeded) CTEs."""
    parts = ["""cge AS (
      SELECT vec_id, CAST(i - 1 AS BIGINT) AS i,
             CAST(ROUND(CAST(x AS DOUBLE) * 1000) AS BIGINT) AS q
      FROM (SELECT vec_id, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings))""",
             f"""cgseeds AS (
      SELECT vec_id,
             CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
               AS c
      FROM (SELECT DISTINCT vec_id FROM embeddings
            ORDER BY vec_id LIMIT {k}))""",
             """cgc0 AS (SELECT s.c, cge.i, cge.q AS v
               FROM cge JOIN cgseeds s USING (vec_id))"""]
    for r in range(1, n_rounds + 1):
        parts.append(f"""cgd{r} AS (
      SELECT cge.vec_id, cgc{r - 1}.c,
             SUM((cge.q - cgc{r - 1}.v) * (cge.q - cgc{r - 1}.v))
               AS dist2
      FROM cge JOIN cgc{r - 1} ON cge.i = cgc{r - 1}.i
      GROUP BY cge.vec_id, cgc{r - 1}.c)""")
        parts.append(f"""cga{r} AS MATERIALIZED (
      SELECT vec_id, c, dist2
      FROM (SELECT *, row_number() OVER (PARTITION BY vec_id
                                         ORDER BY dist2, c) AS rn
            FROM cgd{r})
      WHERE rn = 1)""")
        if r < n_rounds:
            parts.append(f"""cgc{r} AS (
      SELECT cga{r}.c, cge.i,
             CAST(FLOOR(CAST(SUM(cge.q) AS DOUBLE) / COUNT(*))
                  AS BIGINT) AS v
      FROM cge JOIN cga{r} USING (vec_id)
      GROUP BY cga{r}.c, cge.i)""")
    return parts


def _ivfpq_oracle_sql(kc: int = KMEANS_K, kp: int = PQ_K,
                      n_rounds: int = KMEANS_ROUNDS,
                      n_probe: int = IVFPQ_NPROBE) -> str:
    parts = ["qid AS (SELECT MIN(vec_id) AS id FROM embeddings)"]
    parts += _coarse_cte_parts(kc, n_rounds)
    cN = f"cgc{n_rounds - 1}"
    parts.append(f"""cgdq AS (
      SELECT {cN}.c,
             CAST(SUM(({cN}.v - q.q) * ({cN}.v - q.q)) AS BIGINT) AS d
      FROM {cN}
      JOIN (SELECT i, q FROM cge
            WHERE vec_id = (SELECT id FROM qid)) q
        ON {cN}.i = q.i
      GROUP BY {cN}.c)""")
    parts.append(f"""probe AS MATERIALIZED (
      SELECT c FROM (SELECT c, row_number() OVER (ORDER BY d, c) AS rn
                     FROM cgdq)
      WHERE rn <= {n_probe})""")
    parts.append(f"""cand AS MATERIALIZED (
      SELECT vec_id FROM cga{n_rounds}
      WHERE c IN (SELECT c FROM probe)
        AND vec_id <> (SELECT id FROM qid))""")
    parts.append(f"""seeds AS (
      SELECT vec_id,
             CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
               AS c
      FROM (SELECT DISTINCT vec_id FROM embeddings
            ORDER BY vec_id LIMIT {kp}))""")
    parts += _pq_half_sql("xa", 0, PQ_SPLIT, kp, n_rounds)
    parts += _pq_half_sql("xb", PQ_SPLIT, 2 * PQ_SPLIT, kp, n_rounds)
    pN = f"c{n_rounds - 1}"
    for p in ("xa", "xb"):
        parts.append(f"""{p}dq AS (
      SELECT {p}{pN}.c,
             CAST(SUM(({p}{pN}.v - q.q) * ({p}{pN}.v - q.q)) AS BIGINT)
               AS d
      FROM {p}{pN}
      JOIN (SELECT i, q FROM {p}e
            WHERE vec_id = (SELECT id FROM qid)) q
        ON {p}{pN}.i = q.i
      GROUP BY {p}{pN}.c)""")
    parts.append(f"""adc AS (
      SELECT a.vec_id, da.d + db.d AS adc_dist2
      FROM xaa{n_rounds} a JOIN xba{n_rounds} b USING (vec_id)
      JOIN xadq da ON da.c = a.c
      JOIN xbdq db ON db.c = b.c
      JOIN cand ON cand.vec_id = a.vec_id)""")
    return f"""
    WITH {', '.join(parts)}
    SELECT vec_id, CAST(rank AS BIGINT) AS rank,
           CAST(adc_dist2 AS BIGINT) AS adc_dist2
    FROM (SELECT vec_id, adc_dist2,
                 row_number() OVER (ORDER BY adc_dist2, vec_id) AS rank
          FROM adc)
    WHERE rank <= {PQ_SEARCH_K}"""


QUERIES["ivfpq_search"] = ivfpq_search
ORACLE_SQL["ivfpq_search"] = _ivfpq_oracle_sql()


# -------------------------------------------- round-4 twenty-seventh batch

PRUNE_LO, PRUNE_HI = 150, 260   # key-range predicate for the pruned read


def pruned_range_read(sf_dir: str) -> rd.Dataset:
    """MANIFEST-DRIVEN pruned read over the range-partitioned export —
    the payoff of range_partitioned_export value-checked end to end:
    the per-part [min,max] spans decide which part directories are
    even LISTED for a key-range predicate (everything else never
    leaves storage), the residual predicate applies inside the read,
    and the fold must equal the oracle's plain WHERE over the original
    table. Returns one row (n_rows, id_sum, key_sum, n_parts_read,
    n_parts_total) — the parts-read count is itself value-checked, so
    a pruning bug that read everything (or skipped a span) breaks the
    hash."""
    import glob as _glob
    import os

    # build (or reuse) the export + its manifest
    manifest = range_partitioned_export(sf_dir).to_pandas()
    out = _rpe_dir(sf_dir)
    hit = manifest[(manifest["max_key"] >= PRUNE_LO)
                   & (manifest["min_key"] <= PRUNE_HI)]
    parts = sorted(int(p) for p in hit["part"])
    files = []
    for p in parts:
        files += sorted(_glob.glob(os.path.join(out, f"part={p}",
                                                "*.parquet")))
    if files:
        back = read_table(files)

        def fold(df: pd.DataFrame) -> pd.DataFrame:
            v = df["n_chars"].to_numpy(dtype=np.int64)
            keep = (v >= PRUNE_LO) & (v <= PRUNE_HI)   # residual filter
            return pd.DataFrame({
                "n_rows": pd.Series([int(keep.sum())], dtype="int64"),
                "id_sum": pd.Series(
                    [int(df["doc_id"].to_numpy(dtype=np.int64)[keep]
                         .sum())], dtype="int64"),
                "key_sum": pd.Series([int(v[keep].sum())],
                                     dtype="int64")})

        agg = partial_aggregate(
            back.map_batches(fold, batch_format="pandas"), [],
            {"n_rows": ("sum", "n_rows"), "id_sum": ("sum", "id_sum"),
             "key_sum": ("sum", "key_sum")}).to_pandas()
    else:
        agg = pd.DataFrame({"n_rows": [0], "id_sum": [0], "key_sum": [0]})
    res = pd.DataFrame({
        "n_rows": [int(agg["n_rows"][0])],
        "id_sum": [int(agg["id_sum"][0])],
        "key_sum": [int(agg["key_sum"][0])],
        "n_parts_read": [len(parts)],
        "n_parts_total": [int(len(manifest))]}).astype("int64")
    return res


QUERIES["pruned_range_read"] = pruned_range_read
ORACLE_SQL["pruned_range_read"] = f"""
    WITH c AS (SELECT COUNT(*) AS n FROM documents),
    r AS (SELECT n_chars, ROW_NUMBER() OVER (ORDER BY n_chars) AS rn
          FROM documents),
    s AS MATERIALIZED (
      SELECT i.i,
             (SELECT n_chars FROM r
              WHERE rn = GREATEST(1, (i.i * (SELECT n FROM c))
                                     // {RPE_PARTS})) AS v
      FROM (SELECT unnest(range(1, {RPE_PARTS})) AS i) i),
    a AS MATERIALIZED (
      SELECT d.doc_id, d.n_chars,
             (SELECT COUNT(*) FROM s WHERE s.v < d.n_chars) AS part
      FROM documents d),
    spans AS (SELECT part, MIN(n_chars) AS mn, MAX(n_chars) AS mx
              FROM a GROUP BY part),
    hit AS (SELECT part FROM spans
            WHERE mx >= {PRUNE_LO} AND mn <= {PRUNE_HI})
    SELECT CAST(COUNT(*) FILTER (WHERE n_chars BETWEEN {PRUNE_LO}
                                 AND {PRUNE_HI}) AS BIGINT) AS n_rows,
           CAST(COALESCE(SUM(doc_id) FILTER (WHERE n_chars BETWEEN
                {PRUNE_LO} AND {PRUNE_HI}), 0) AS BIGINT) AS id_sum,
           CAST(COALESCE(SUM(n_chars) FILTER (WHERE n_chars BETWEEN
                {PRUNE_LO} AND {PRUNE_HI}), 0) AS BIGINT) AS key_sum,
           CAST((SELECT COUNT(*) FROM hit) AS BIGINT) AS n_parts_read,
           CAST((SELECT COUNT(DISTINCT part) FROM a) AS BIGINT)
             AS n_parts_total
    FROM a WHERE part IN (SELECT part FROM hit)"""


def ivf_cell_stats(sf_dir: str) -> rd.Dataset:
    """IVF index HEALTH introspection: per coarse cell the member
    count and total quantized distortion — the balance report that
    tells an ANN operator when cells are skewed enough to re-train
    (one hot cell = one hot probe). Derives from the coarse k-means
    assignment in one bounded aggregate; the oracle replays the
    k-means rounds. Returns (cluster, n_vecs, sum_dist2)."""
    emb = rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    asg = similarity.kmeans_lloyd_int(emb, k=KMEANS_K,
                                      n_rounds=KMEANS_ROUNDS)
    return partial_aggregate(
        asg.map_batches(
            lambda df: pd.DataFrame({
                "cluster": df["cluster"].astype("int64"),
                "n_vecs": np.ones(len(df), dtype=np.int64),
                "sum_dist2": df["dist2"].astype("int64")}),
            batch_format="pandas"),
        ["cluster"], {"n_vecs": ("sum", "n_vecs"),
                      "sum_dist2": ("sum", "sum_dist2")})


QUERIES["ivf_cell_stats"] = ivf_cell_stats
ORACLE_SQL["ivf_cell_stats"] = f"""
    SELECT CAST(cluster AS BIGINT) AS cluster,
           CAST(COUNT(*) AS BIGINT) AS n_vecs,
           CAST(SUM(dist2) AS BIGINT) AS sum_dist2
    FROM ({_kmeans_oracle_sql()})
    GROUP BY cluster"""


# -------------------------------------------- round-4 twenty-eighth batch

PRF_FEEDBACK_DOCS = 5   # stage-1 BM25 docs feeding expansion
PRF_EXPAND = 3          # expansion terms added to the query
PRF_K = 10              # final ranking depth


def bm25_prf_search(sf_dir: str) -> rd.Dataset:
    """Pseudo-relevance-feedback retrieval (RM3 shape): stage 1 runs
    the exact BM25 top-PRF_FEEDBACK_DOCS; the feedback docs' top
    PRF_EXPAND tokens by total tf (original terms excluded, ties by
    token) expand the query; stage 2 re-ranks the corpus under the
    expanded term set with the integer idf-weight rule
    (10^6 // df per term — sparse_dot_topk's order-free scoring, so
    the dynamic term set needs no fixed float association). Scale:
    stage 1 is the audited bm25_topk; the expansion derives from <=
    PRF_FEEDBACK_DOCS docs' token counts; stage 2 is one tokenize
    pass + the bounded top-k. Returns (doc_id, score, rank)."""
    from . import search

    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    top1 = search.bm25_topk(docs, RANK_TERMS,
                            k=PRF_FEEDBACK_DOCS).to_pandas()
    fb_ids = set(int(i) for i in top1["doc_id"])

    def fb_tf(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["doc_id"].isin(fb_ids)]
        if not len(d):
            return pd.DataFrame({"token": pd.Series([], dtype=object),
                                 "tf": pd.Series([], dtype="int64")})
        toks = d["text"].str.split(" ")
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        out = pd.DataFrame({"token": flat})
        return (out.groupby("token", sort=False, as_index=False).size()
                .rename(columns={"size": "tf"}))

    fb = partial_aggregate(
        docs.map_batches(fb_tf, batch_format="pandas"),
        ["token"], {"tf": ("sum", "tf")}).to_pandas()
    fb = fb[~fb["token"].isin(set(RANK_TERMS))]
    fb = fb.sort_values(["tf", "token"], ascending=[False, True],
                        ignore_index=True).head(PRF_EXPAND)
    qterms = sorted(set(RANK_TERMS) | set(fb["token"]))

    def tok_tf(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        lens = toks.map(len).to_numpy(dtype=np.int64)
        did = np.repeat(df["doc_id"].to_numpy(dtype=np.int64), lens)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        out = pd.DataFrame({"doc_id": did, "token": flat})
        out = out[out["token"].isin(set(qterms))]
        return (out.groupby(["doc_id", "token"], sort=False,
                            as_index=False).size()
                .rename(columns={"size": "tf"}))

    tf = docs.map_batches(tok_tf, batch_format="pandas").materialize()
    dfreq = partial_aggregate(tf, ["token"],
                              {"df": ("count", None)}).to_pandas()
    w = {t: 1_000_000 // int(n)
         for t, n in zip(dfreq["token"], dfreq["df"])}

    def score(df: pd.DataFrame) -> pd.DataFrame:
        s = (df["token"].map(w).to_numpy(dtype=np.int64)
             * df["tf"].to_numpy(dtype=np.int64))
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                            "score": s})
        return (out.groupby("doc_id", sort=False, as_index=False)
                .agg(score=("score", "sum")))

    scored = partial_aggregate(
        tf.map_batches(score, batch_format="pandas"),
        ["doc_id"], {"score": ("sum", "score")})
    top = grouped_topk(scored, [], ["score", "doc_id"], PRF_K,
                       ascending=[False, True])
    return top.map_batches(
        lambda df: df[["doc_id", "score", "rk"]]
                     .rename(columns={"rk": "rank"}).astype("int64"),
        batch_format="pandas")


QUERIES["bm25_prf_search"] = bm25_prf_search
ORACLE_SQL["bm25_prf_search"] = f"""
    WITH top1 AS MATERIALIZED (
      {search.bm25_oracle_sql(RANK_TERMS, k=PRF_FEEDBACK_DOCS)}),
    tok AS MATERIALIZED (
      SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
      FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
            FROM documents)
      GROUP BY doc_id, token),
    fb AS (
      SELECT t.token, SUM(t.tf) AS tf
      FROM tok t JOIN top1 ON top1.doc_id = t.doc_id
      WHERE t.token NOT IN ({', '.join(repr(t) for t in sorted(RANK_TERMS))})
      GROUP BY t.token),
    expd AS (
      SELECT token FROM (
        SELECT token, row_number() OVER (ORDER BY tf DESC, token) AS rn
        FROM fb)
      WHERE rn <= {PRF_EXPAND}),
    qterms AS MATERIALIZED (
      SELECT token FROM expd
      UNION
      SELECT unnest(ARRAY[{', '.join(repr(t) for t in sorted(RANK_TERMS))}])),
    w AS (SELECT t.token, 1000000 // COUNT(*) AS w
          FROM tok t JOIN qterms q USING (token)
          GROUP BY t.token),
    sc AS (SELECT t.doc_id,
                  CAST(SUM(t.tf * w.w) AS BIGINT) AS score
           FROM tok t JOIN w USING (token)
           GROUP BY t.doc_id),
    r AS (SELECT doc_id, score,
                 row_number() OVER (ORDER BY score DESC, doc_id) AS rank
          FROM sc)
    SELECT doc_id, score, CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= {PRF_K}"""


def monthly_revenue_growth(sf_dir: str) -> pd.DataFrame:
    """Month-over-month revenue growth: per-month cent totals fold
    bucketed (bounded by the date domain), the growth rate derives
    driver-side as a sign-split floored ppm ratio — exactly the
    oracle's CASE arithmetic. Returns
    (ym, revenue_cents, growth_ppm)."""
    orders = rp(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        ym = (df["o_orderdate"].dt.year * 100
              + df["o_orderdate"].dt.month).to_numpy(dtype=np.int64)
        return pd.DataFrame({"ym": ym,
                             "cents": _cents(df["o_totalprice"]).to_numpy()})

    m = partial_aggregate(
        orders.map_batches(prep, batch_format="pandas"),
        ["ym"], {"revenue_cents": ("sum", "cents")}).to_pandas()
    m = m.sort_values("ym", ignore_index=True)
    rev = m["revenue_cents"].to_numpy(dtype=np.int64)
    growth = np.zeros(len(m), dtype=np.int64)
    for i in range(1, len(m)):
        d = int(rev[i]) - int(rev[i - 1])
        p = int(rev[i - 1])
        growth[i] = (d * 1_000_000 // p if d >= 0
                     else -((-d) * 1_000_000 // p))
    out = pd.DataFrame({"ym": m["ym"].astype("int64"),
                        "revenue_cents": m["revenue_cents"].astype("int64"),
                        "growth_ppm": growth})
    return out


QUERIES["monthly_revenue_growth"] = monthly_revenue_growth
ORACLE_SQL["monthly_revenue_growth"] = """
    WITH m AS (
      SELECT CAST(EXTRACT(year FROM o_orderdate) * 100
                  + EXTRACT(month FROM o_orderdate) AS BIGINT) AS ym,
             CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                  AS BIGINT) AS revenue_cents
      FROM orders GROUP BY 1),
    g AS (SELECT ym, revenue_cents,
                 LAG(revenue_cents) OVER (ORDER BY ym) AS prev
          FROM m)
    SELECT ym, revenue_cents,
           CAST(CASE WHEN prev IS NULL THEN 0
                     WHEN revenue_cents >= prev
                       THEN (revenue_cents - prev) * 1000000 // prev
                     ELSE -((prev - revenue_cents) * 1000000 // prev)
                END AS BIGINT) AS growth_ppm
    FROM g"""


# --------------------------------------------- round-4 twenty-ninth batch

STP_K = 15


def session_type_pairs(sf_dir: str) -> rd.Dataset:
    """Top co-occurring EVENT-TYPE pairs within a session (market-
    basket association over the 30-min sessionize rule): per session
    the distinct types expand to unordered pairs INSIDE the per-user
    ordered-log bucket (<= C(|types|,2) = 10 pairs per session — the
    type vocabulary bounds the blowup, not the session length), pair
    counts fold bucketed, ranking is the bounded empty-key top-k.
    Returns (type_a, type_b, n_sessions, rank)."""
    ev = rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    GAP_US = 1800 * 10**6

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        prev = df.groupby("user_id")["ts"].shift()
        gap = df["ts"].astype("int64") - prev.astype("int64")
        new_sess = prev.isna() | (gap > GAP_US)
        sess = new_sess.groupby(df["user_id"]).cumsum().astype("int64")
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                          "sess": sess.to_numpy(),
                          "ty": df["event_type"].to_numpy()})
        d = d.drop_duplicates(["user_id", "sess", "ty"])
        rows_a, rows_b = [], []
        for (_, _), g in d.groupby(["user_id", "sess"], sort=False):
            tys = sorted(g["ty"])
            for i in range(len(tys)):
                for j in range(i + 1, len(tys)):
                    rows_a.append(tys[i])
                    rows_b.append(tys[j])
        return pd.DataFrame({
            "type_a": pd.Series(rows_a, dtype=object),
            "type_b": pd.Series(rows_b, dtype=object),
            "n_sessions": np.ones(len(rows_a), dtype=np.int64)})

    pairs = _bucketed_by_user(ev, fn)
    counts = partial_aggregate(pairs, ["type_a", "type_b"],
                               {"n_sessions": ("sum", "n_sessions")})
    top = grouped_topk(counts, [], ["n_sessions", "type_a", "type_b"],
                       STP_K, ascending=[False, True, True])
    return top.map_batches(
        lambda df: df[["type_a", "type_b", "n_sessions", "rk"]]
                     .rename(columns={"rk": "rank"})
                     .astype({"n_sessions": "int64", "rank": "int64"}),
        batch_format="pandas")


QUERIES["session_type_pairs"] = session_type_pairs
ORACLE_SQL["session_type_pairs"] = f"""
    WITH g AS (
      SELECT user_id, event_type, ts,
             date_diff('microsecond',
               lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
               ts) AS gap_us,
             event_id
      FROM events),
    s AS (
      SELECT user_id, event_type,
             SUM(CASE WHEN gap_us IS NULL OR gap_us > 1800000000
                      THEN 1 ELSE 0 END)
               OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS UNBOUNDED PRECEDING) AS sess
      FROM g),
    d AS (SELECT DISTINCT user_id, sess, event_type FROM s),
    p AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
                 CAST(COUNT(*) AS BIGINT) AS n_sessions
          FROM d a JOIN d b
            ON a.user_id = b.user_id AND a.sess = b.sess
           AND a.event_type < b.event_type
          GROUP BY 1, 2),
    r AS (SELECT type_a, type_b, n_sessions,
                 row_number() OVER (ORDER BY n_sessions DESC,
                                    type_a, type_b) AS rank
          FROM p)
    SELECT type_a, type_b, n_sessions, CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= {STP_K}"""


# ------------------------------------------------ round-4 thirtieth batch

def q14_promo_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q14 shape (promotion effect): the PROMO-type share of one
    month's discounted revenue, as the exact integer pair
    (promo_revenue_e4, total_revenue_e4) plus the floored ppm share —
    conditional aggregation through ONE partitioned lineitem ⋈ part
    join whose buckets pre-reduce to two partial sums (the exchange is
    one row per bucket). Date filter prunes lineitem at the read
    side."""
    lo, hi = pd.Timestamp("1996-03-01"), pd.Timestamp("1996-04-01")
    li = rp(sf_dir, "lineitem",
            ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]) \
        .map_batches(
            lambda df: (lambda k: pd.DataFrame({
                "l_partkey": df["l_partkey"].to_numpy(dtype=np.int64)[k],
                "rev": (_cents(df["l_extendedprice"]).to_numpy()
                        * (100 - np.round(df["l_discount"].to_numpy(
                            dtype=np.float64) * 100).astype(np.int64)))[k]}))
            (((df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi))
             .to_numpy()),
            batch_format="pandas")
    part = rp(sf_dir, "part", ["p_partkey", "p_type"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        rev = df["rev"].to_numpy(dtype=np.int64)
        promo = df["p_type"].to_numpy() == "PROMO"
        return pd.DataFrame({
            "promo_revenue_e4": pd.Series([int(rev[promo].sum())],
                                          dtype="int64"),
            "total_revenue_e4": pd.Series([int(rev.sum())],
                                          dtype="int64")})

    j = hash_join(li, part, "l_partkey", "p_partkey",
                  left_cols=["l_partkey", "rev"],
                  right_cols=["p_partkey", "p_type"], bucket_fn=fold)
    agg = partial_aggregate(j, [],
                            {"promo_revenue_e4": ("sum", "promo_revenue_e4"),
                             "total_revenue_e4": ("sum", "total_revenue_e4")}
                            ).to_pandas()
    p = int(agg["promo_revenue_e4"][0])
    t = int(agg["total_revenue_e4"][0])
    return rd.from_pandas(pd.DataFrame({
        "promo_revenue_e4": [p], "total_revenue_e4": [t],
        "promo_share_ppm": [p * 1_000_000 // t if t else 0]})
        .astype("int64"))


QUERIES["q14_promo_revenue"] = q14_promo_revenue
ORACLE_SQL["q14_promo_revenue"] = """
    WITH j AS (
      SELECT CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev,
             p.p_type
      FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
      WHERE l.l_shipdate >= TIMESTAMP '1996-03-01'
        AND l.l_shipdate < TIMESTAMP '1996-04-01')
    SELECT CAST(COALESCE(SUM(rev) FILTER (WHERE p_type = 'PROMO'), 0)
                AS BIGINT) AS promo_revenue_e4,
           CAST(SUM(rev) AS BIGINT) AS total_revenue_e4,
           CAST(COALESCE(SUM(rev) FILTER (WHERE p_type = 'PROMO'), 0)
                * 1000000 // SUM(rev) AS BIGINT) AS promo_share_ppm
    FROM j"""


#: Q19-style OR-of-ANDs brackets: (brand, size range, quantity range)
Q19_BRACKETS = (("Brand#12", 1, 15, 1, 11),
                ("Brand#23", 10, 30, 10, 20),
                ("Brand#34", 20, 50, 20, 30))


def q19_bracket_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q19 shape (discounted revenue, OR-of-ANDs predicate):
    three (brand, size-band, quantity-band) brackets evaluated INSIDE
    the lineitem ⋈ part join buckets — the disjunctive multi-table
    predicate that defeats naive pushdown; here the join co-locates
    the columns and the bracket mask is pure numpy, with per-bucket
    pre-reduction to one revenue row. Returns
    (revenue_e4, n_lines)."""
    li = rp(sf_dir, "lineitem",
            ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        disc = np.round(df["l_discount"].to_numpy(dtype=np.float64)
                        * 100).astype(np.int64)
        return pd.DataFrame({
            "l_partkey": df["l_partkey"].to_numpy(dtype=np.int64),
            "qty": np.round(df["l_quantity"].to_numpy(dtype=np.float64))
                     .astype(np.int64),
            "rev": _cents(df["l_extendedprice"]).to_numpy() * (100 - disc)})

    part = rp(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        qty = df["qty"].to_numpy(dtype=np.int64)
        size = df["p_size"].to_numpy(dtype=np.int64)
        brand = df["p_brand"].to_numpy()
        keep = np.zeros(len(df), dtype=bool)
        for b, s_lo, s_hi, q_lo, q_hi in Q19_BRACKETS:
            keep |= ((brand == b) & (size >= s_lo) & (size <= s_hi)
                     & (qty >= q_lo) & (qty <= q_hi))
        rev = df["rev"].to_numpy(dtype=np.int64)[keep]
        return pd.DataFrame({
            "revenue_e4": pd.Series([int(rev.sum())], dtype="int64"),
            "n_lines": pd.Series([int(keep.sum())], dtype="int64")})

    j = hash_join(li.map_batches(prep, batch_format="pandas"), part,
                  "l_partkey", "p_partkey",
                  left_cols=["l_partkey", "qty", "rev"],
                  right_cols=["p_partkey", "p_brand", "p_size"],
                  bucket_fn=fold)
    out = partial_aggregate(j, [],
                            {"revenue_e4": ("sum", "revenue_e4"),
                             "n_lines": ("sum", "n_lines")})
    return out.map_batches(lambda df: df.astype("int64"),
                           batch_format="pandas")


QUERIES["q19_bracket_revenue"] = q19_bracket_revenue
ORACLE_SQL["q19_bracket_revenue"] = f"""
    SELECT CAST(COALESCE(SUM(
             CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))), 0)
             AS BIGINT) AS revenue_e4,
           CAST(COUNT(*) AS BIGINT) AS n_lines
    FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
    WHERE {" OR ".join(
        f"(p.p_brand = '{b}' AND p.p_size BETWEEN {slo} AND {shi} "
        f"AND CAST(ROUND(l.l_quantity) AS BIGINT) BETWEEN {qlo} AND {qhi})"
        for b, slo, shi, qlo, qhi in Q19_BRACKETS)}"""


def user_entropy(sf_dir: str) -> rd.Dataset:
    """Per-user Shannon entropy of the event-type mix, exact-integer
    quantized: each type's term round(1e6 * (n_t/n) * ln(n/n_t))
    quantizes BEFORE the sum, so the summation order can't wobble the
    doubles (the unordered-SUM trap of dynamic term sets); ln is libm
    on both sides (the bm25 idf parity rule). Per-(user, type) counts
    fold bucketed, terms derive in one bounded map. Returns
    (user_id, n_events, entropy_micro)."""
    ev = rp(sf_dir, "events", ["user_id", "event_type"])
    counts = partial_aggregate(ev, ["user_id", "event_type"],
                               {"c": ("count", None)})
    totals = partial_aggregate(counts, ["user_id"], {"n": ("sum", "c")})
    j = hash_join(counts, totals, "user_id", "user_id",
                  left_cols=["user_id", "event_type", "c"],
                  right_cols=["user_id", "n"])

    def term(df: pd.DataFrame) -> pd.DataFrame:
        c = df["c"].to_numpy(dtype=np.float64)
        n = df["n"].to_numpy(dtype=np.float64)
        t = np.round(1_000_000.0 * (c / n) * np.log(n / c)) \
            .astype(np.int64)
        return pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "n_events": df["n"].astype("int64"),
            "t": t})

    out = partial_aggregate(
        j.map_batches(term, batch_format="pandas"), ["user_id"],
        {"n_events": ("max", "n_events"), "entropy_micro": ("sum", "t")})
    return out.map_batches(lambda df: df.astype("int64"),
                           batch_format="pandas")


QUERIES["user_entropy"] = user_entropy
ORACLE_SQL["user_entropy"] = """
    WITH c AS (SELECT user_id, event_type, COUNT(*) AS c
               FROM events GROUP BY 1, 2),
    t AS (SELECT user_id, SUM(c) OVER (PARTITION BY user_id) AS n, c
          FROM c)
    SELECT user_id,
           CAST(MAX(n) AS BIGINT) AS n_events,
           CAST(SUM(CAST(ROUND(1000000.0 * (CAST(c AS DOUBLE) / n)
                * ln(CAST(n AS DOUBLE) / c)) AS BIGINT)) AS BIGINT)
             AS entropy_micro
    FROM t GROUP BY user_id"""


# ---------------------------------------------- round-4 thirty-first batch

SIMHASH_RADIUS = 2


def dedup_simhash_radius(sf_dir: str) -> rd.Dataset:
    """Near-duplicate pairs at SimHash Hamming distance <= 2 — the
    radius tier between exact-signature dedup (distance 0) and
    MinHash: by pigeonhole, two 64-bit signatures differing in <= 2
    bits agree on at least 2 of 4 16-bit bands, so candidates come
    from the 6 band-PAIR bucket tables (each doc emits 6 keys; a pair
    at radius <= 2 collides in at least one), then one vectorized
    popcount-of-xor verify and a (doc_a, doc_b) dedup across combos.
    EXACT for the radius (pigeonhole guarantees recall 1.0, unlike
    the probabilistic LSH tiers) with a direct bit_count(xor) oracle.
    Returns (doc_a, doc_b, hamming)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])
    sims = dedup.simhash_table(docs)

    def bands(df: pd.DataFrame) -> pd.DataFrame:
        sig = df["simhash"].to_numpy(np.int64).view(np.uint64)
        b = [(sig >> np.uint64(16 * i)) & np.uint64(0xFFFF)
             for i in range(4)]
        frames = []
        combos = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for ci, (i, j) in enumerate(combos):
            frames.append(pd.DataFrame({
                "combo": np.full(len(df), ci, dtype=np.int64),
                "k1": b[i].astype(np.int64),
                "k2": b[j].astype(np.int64),
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "simhash": df["simhash"].to_numpy(np.int64)}))
        return pd.concat(frames, ignore_index=True)

    banded = sims.map_batches(bands, batch_format="pandas")
    pairs = dedup._within_bucket_pairs(
        banded, ["combo", "k1", "k2"], "doc_id",
        payload_cols=["simhash"])

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        x = (df["simhash_a"].to_numpy(np.int64).view(np.uint64)
             ^ df["simhash_b"].to_numpy(np.int64).view(np.uint64))
        ham = np.unpackbits(x.view(np.uint8).reshape(len(df), 8),
                            axis=1).sum(axis=1).astype(np.int64)
        keep = ham <= SIMHASH_RADIUS
        return pd.DataFrame({
            "doc_a": df["doc_a"].to_numpy(np.int64)[keep],
            "doc_b": df["doc_b"].to_numpy(np.int64)[keep],
            "hamming": ham[keep]})

    cand = pairs.map_batches(verify, batch_format="pandas")
    return partial_aggregate(cand, ["doc_a", "doc_b"],
                             {"hamming": ("min", "hamming")})


QUERIES["dedup_simhash_radius"] = dedup_simhash_radius
ORACLE_SQL["dedup_simhash_radius"] = f"""
    WITH {_SIMHASH_CORE_SQL}
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT)
             AS hamming
    FROM simhashes a JOIN simhashes b ON a.doc_id < b.doc_id
    WHERE bit_count(xor(a.simhash, b.simhash)) <= {SIMHASH_RADIUS}"""


# --------------------------------------------- round-4 thirty-second batch

VOCAB_GROWTH_PREFIXES = (100, 250, 500)


def vocab_growth(sf_dir: str) -> rd.Dataset:
    """Heaps-law vocabulary growth curve: distinct token count within
    the first N docs (by doc_id) for each prefix size — the
    corpus-statistics curve that predicts tokenizer vocab headroom as
    a crawl grows. One explode pass emits (prefix, token) pairs for
    the prefixes each doc belongs to; two bounded aggregates dedup and
    count (the exchange is |prefixes| x vocab rows, domain-bounded).
    Returns (n_docs_prefix, n_distinct_tokens)."""
    docs = rp(sf_dir, "documents", ["doc_id", "text"])

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        lens = toks.map(len).to_numpy(dtype=np.int64)
        did = np.repeat(df["doc_id"].to_numpy(dtype=np.int64), lens)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        frames = []
        for p in VOCAB_GROWTH_PREFIXES:
            keep = did < p
            frames.append(pd.DataFrame({
                "p": np.full(int(keep.sum()), p, dtype=np.int64),
                "token": flat[keep]}))
        out = pd.concat(frames, ignore_index=True)
        return out.drop_duplicates(["p", "token"])

    distinct = partial_aggregate(
        docs.map_batches(emit, batch_format="pandas"),
        ["p", "token"], {"n": ("count", None)})
    out = partial_aggregate(distinct, ["p"],
                            {"n_distinct_tokens": ("count", None)})
    return out.map_batches(
        lambda df: df.rename(columns={"p": "n_docs_prefix"})
                     [["n_docs_prefix", "n_distinct_tokens"]]
                     .astype("int64"),
        batch_format="pandas")


QUERIES["vocab_growth"] = vocab_growth
ORACLE_SQL["vocab_growth"] = f"""
    SELECT CAST(p AS BIGINT) AS n_docs_prefix,
           CAST(COUNT(DISTINCT token) AS BIGINT) AS n_distinct_tokens
    FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
          FROM documents) t
    CROSS JOIN (SELECT unnest(ARRAY[{', '.join(
        str(p) for p in VOCAB_GROWTH_PREFIXES)}]) AS p)
    WHERE doc_id < p
    GROUP BY p"""


# ===================================================================
# TPC-H q3/q8/q12/q15/q17/q21/q22, caption alignment, label centroids
# ===================================================================

Q3_DATE = pd.Timestamp("1997-06-15")


def q3_shipping_priority(sf_dir: str) -> rd.Dataset:
    """TPC-H Q3 shape (shipping priority): top-10 unshipped BUILDING
    orders by discounted revenue. Ray-Data-first plan: both joins
    PARTITIONED (customer and orders are unbounded at corpus scale —
    no broadcast); the segment filter runs INSIDE the customer join's
    buckets, the revenue pre-reduces per order INSIDE the lineitem
    join's buckets, so the final exchange carries one partial row per
    (order, date, priority) per bucket; the global top-10 is per-block
    top-k + a tiny k x blocks driver merge (o3 pattern — a full sort
    for a top-10 is shuffle waste). Ties break (revenue desc, date
    asc, orderkey asc) in engine and SQL alike."""
    orders = rp(sf_dir, "orders",
                ["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"]) \
        .map_batches(lambda df: df[df["o_orderdate"] < Q3_DATE],
                     batch_format="pandas")
    cust = rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def keep_building(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["c_mktsegment"] == "BUILDING"] \
            [["o_orderkey", "o_orderdate", "o_orderpriority"]]

    j1 = hash_join(orders, cust, "o_custkey", "c_custkey",
                   left_cols=["o_orderkey", "o_custkey", "o_orderdate",
                              "o_orderpriority"],
                   right_cols=["c_custkey", "c_mktsegment"],
                   bucket_fn=keep_building)

    li = rp(sf_dir, "lineitem",
            ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]) \
        .map_batches(
            lambda df: (lambda k: pd.DataFrame({
                "l_orderkey": df["l_orderkey"].to_numpy(dtype=np.int64)[k],
                "rev": (_cents(df["l_extendedprice"]).to_numpy()
                        * (100 - np.round(df["l_discount"].to_numpy(
                            dtype=np.float64) * 100).astype(np.int64)))[k]}))
            ((df["l_shipdate"] > Q3_DATE).to_numpy()),
            batch_format="pandas")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"],
                          sort=False, as_index=False).agg(
            revenue_e4=("rev", "sum"))

    j2 = hash_join(li, j1, "l_orderkey", "o_orderkey",
                   left_cols=["l_orderkey", "rev"],
                   right_cols=["o_orderkey", "o_orderdate",
                               "o_orderpriority"],
                   bucket_fn=fold)
    agg = partial_aggregate(j2,
                            ["l_orderkey", "o_orderdate", "o_orderpriority"],
                            {"revenue_e4": ("sum", "revenue_e4")})

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_e4", "o_orderdate", "l_orderkey"],
            ascending=[False, True, True]).head(10)

    small = agg.map_batches(topk, batch_format="pandas").to_pandas()
    out = (small.sort_values(["revenue_e4", "o_orderdate", "l_orderkey"],
                             ascending=[False, True, True],
                             ignore_index=True).head(10))
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    out["revenue_e4"] = out["revenue_e4"].astype("int64")
    return rd.from_pandas(out)


QUERIES["q3_shipping_priority"] = q3_shipping_priority
ORACLE_SQL["q3_shipping_priority"] = """
    WITH j AS (
      SELECT l.l_orderkey, o.o_orderdate, o.o_orderpriority,
             CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev
      FROM lineitem l
      JOIN orders o ON o.o_orderkey = l.l_orderkey
      JOIN customer c ON c.c_custkey = o.o_custkey
      WHERE c.c_mktsegment = 'BUILDING'
        AND o.o_orderdate < TIMESTAMP '1997-06-15'
        AND l.l_shipdate > TIMESTAMP '1997-06-15')
    SELECT l_orderkey, o_orderdate, o_orderpriority,
           CAST(SUM(rev) AS BIGINT) AS revenue_e4
    FROM j GROUP BY 1, 2, 3
    ORDER BY revenue_e4 DESC, o_orderdate, l_orderkey LIMIT 10"""


def q12_ship_delay(sf_dir: str) -> rd.Dataset:
    """TPC-H Q12 shape (shipping-mode / late-lines): lines per
    ship-delay band (shipdate - orderdate: <30, 30-89, >=90 days)
    split into high-priority (1-URGENT / 2-HIGH) vs low-priority
    counts — the schema has no l_shipmode/commitdate, so the band
    plays the mode role with identical join/conditional-aggregation
    structure. The priority split and band bucketing run INSIDE the
    lineitem x orders join buckets, pre-reduced to <=3 partial rows
    per bucket."""
    li = rp(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = rp(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                   "o_orderpriority"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        days = ((df["l_shipdate"].to_numpy("datetime64[D]")
                 - df["o_orderdate"].to_numpy("datetime64[D]"))
                .astype("timedelta64[D]").astype(np.int64))
        band = np.where(days < 30, "short",
                        np.where(days < 90, "mid", "long"))
        high = df["o_orderpriority"].isin(["1-URGENT", "2-HIGH"]).to_numpy()
        g = pd.DataFrame({"delay_band": band,
                          "high_line_count": high.astype(np.int64),
                          "low_line_count": (~high).astype(np.int64)})
        return g.groupby("delay_band", sort=False, as_index=False).agg(
            high_line_count=("high_line_count", "sum"),
            low_line_count=("low_line_count", "sum"))

    j = hash_join(li, orders, "l_orderkey", "o_orderkey",
                  left_cols=["l_orderkey", "l_shipdate"],
                  right_cols=["o_orderkey", "o_orderdate",
                              "o_orderpriority"],
                  bucket_fn=fold)
    return partial_aggregate(j, ["delay_band"],
                             {"high_line_count": ("sum", "high_line_count"),
                              "low_line_count": ("sum", "low_line_count")})


QUERIES["q12_ship_delay"] = q12_ship_delay
ORACLE_SQL["q12_ship_delay"] = """
    SELECT CASE WHEN date_diff('day', o.o_orderdate, l.l_shipdate) < 30
                THEN 'short'
                WHEN date_diff('day', o.o_orderdate, l.l_shipdate) < 90
                THEN 'mid' ELSE 'long' END AS delay_band,
           CAST(COALESCE(SUM(CASE WHEN o.o_orderpriority IN
                ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END), 0) AS BIGINT)
               AS high_line_count,
           CAST(COALESCE(SUM(CASE WHEN o.o_orderpriority IN
                ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END), 0) AS BIGINT)
               AS low_line_count
    FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
    GROUP BY 1"""


Q15_FROM, Q15_TO = pd.Timestamp("1997-01-01"), pd.Timestamp("1997-04-01")


def q15_top_supplier(sf_dir: str) -> rd.Dataset:
    """TPC-H Q15 shape (top supplier): the supplier(s) with the maximum
    3-month discounted revenue, ties included. The revenue view is one
    partial_aggregate over the date-pruned lineitem (per-batch combine;
    only per-supplier partials shuffle); the MAX is a distributed
    Dataset.max over that small view (never a driver materialization
    of the view itself), and the name lookup fetches only the winners'
    suppliers, filtered before the fetch."""
    lo, hi = Q15_FROM, Q15_TO
    li = rp(sf_dir, "lineitem",
            ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"]) \
        .map_batches(
            lambda df: (lambda k: pd.DataFrame({
                "l_suppkey": df["l_suppkey"].to_numpy(dtype=np.int64)[k],
                "rev": (_cents(df["l_extendedprice"]).to_numpy()
                        * (100 - np.round(df["l_discount"].to_numpy(
                            dtype=np.float64) * 100).astype(np.int64)))[k]}))
            (((df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi))
             .to_numpy()),
            batch_format="pandas")
    rev = partial_aggregate(li, ["l_suppkey"],
                            {"total_revenue_e4": ("sum", "rev")})
    rev = rev.materialize()  # consumed twice (max + filter); supplier-sized
    best = rev.max("total_revenue_e4")
    top = rev.map_batches(
        lambda df: df[df["total_revenue_e4"] == best],
        batch_format="pandas").to_pandas()  # tiny: the tied winners
    winners = pa.array(top["l_suppkey"], type=pa.int64())
    supp = rp(sf_dir, "supplier", ["s_suppkey", "s_name"]).map_batches(
        lambda t: t.filter(pa.compute.is_in(t["s_suppkey"], winners)),
        batch_format="pyarrow").to_pandas()
    out = top.merge(supp, left_on="l_suppkey", right_on="s_suppkey") \
        [["s_suppkey", "s_name", "total_revenue_e4"]] \
        .sort_values("s_suppkey", ignore_index=True)
    out["s_suppkey"] = out["s_suppkey"].astype("int64")
    out["total_revenue_e4"] = out["total_revenue_e4"].astype("int64")
    return rd.from_pandas(out)


QUERIES["q15_top_supplier"] = q15_top_supplier
ORACLE_SQL["q15_top_supplier"] = """
    WITH r AS (
      SELECT l_suppkey,
             CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                  AS BIGINT) AS total_revenue_e4
      FROM lineitem
      WHERE l_shipdate >= TIMESTAMP '1997-01-01'
        AND l_shipdate < TIMESTAMP '1997-04-01'
      GROUP BY 1)
    SELECT s.s_suppkey, s.s_name, r.total_revenue_e4
    FROM r JOIN supplier s ON s.s_suppkey = r.l_suppkey
    WHERE r.total_revenue_e4 = (SELECT MAX(total_revenue_e4) FROM r)"""


def q17_small_qty_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q17 shape (small-quantity revenue): revenue from lines of
    Brand#23 parts whose quantity is below 20% of that part's average
    quantity — the classic correlated-subquery-to-preagg-join rewrite.
    The brand filter runs INSIDE the lineitem x part join buckets; the
    per-part average joins BACK to the same rows; the 0.2 x avg
    comparison cross-multiplies to integers (5 * qty * n < sum_qty) so
    engine and SQL agree exactly. The brand-pruned line table is
    materialized once (consumed by both the average and the probe —
    bounded: one brand's lines)."""
    li = rp(sf_dir, "lineitem",
            ["l_partkey", "l_quantity", "l_extendedprice"])
    part = rp(sf_dir, "part", ["p_partkey", "p_brand"])

    def keep_brand(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["p_brand"] == "Brand#23"]
        return pd.DataFrame({
            "l_partkey": d["l_partkey"].to_numpy(dtype=np.int64),
            "qty": np.round(d["l_quantity"].to_numpy(dtype=np.float64))
                     .astype(np.int64),
            "cents": _cents(d["l_extendedprice"]).to_numpy()})

    lp = hash_join(li, part, "l_partkey", "p_partkey",
                   left_cols=["l_partkey", "l_quantity", "l_extendedprice"],
                   right_cols=["p_partkey", "p_brand"],
                   bucket_fn=keep_brand)
    avg = partial_aggregate(lp, ["l_partkey"],
                            {"sq": ("sum", "qty"), "n": ("count", None)})

    def small_only(df: pd.DataFrame) -> pd.DataFrame:
        k = df["qty"].to_numpy(np.int64) * 5 * df["n"].to_numpy(np.int64) \
            < df["sq"].to_numpy(np.int64)
        return pd.DataFrame({
            "small_qty_cents": pd.Series([int(df["cents"].to_numpy(
                np.int64)[k].sum())], dtype="int64"),
            "n_lines": pd.Series([int(k.sum())], dtype="int64")})

    j = hash_join(lp, avg, "l_partkey", "l_partkey",
                  left_cols=["l_partkey", "qty", "cents"],
                  right_cols=["l_partkey", "sq", "n"],
                  bucket_fn=small_only)
    return partial_aggregate(j, [],
                             {"small_qty_cents": ("sum", "small_qty_cents"),
                              "n_lines": ("sum", "n_lines")})


QUERIES["q17_small_qty_revenue"] = q17_small_qty_revenue
ORACLE_SQL["q17_small_qty_revenue"] = """
    WITH lp AS (
      SELECT l.l_partkey, CAST(ROUND(l.l_quantity) AS BIGINT) AS qty,
             CAST(ROUND(l.l_extendedprice * 100) AS BIGINT) AS cents
      FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
      WHERE p.p_brand = 'Brand#23'),
    a AS (SELECT l_partkey, SUM(qty) AS sq, COUNT(*) AS n
          FROM lp GROUP BY 1)
    SELECT CAST(COALESCE(SUM(lp.cents), 0) AS BIGINT) AS small_qty_cents,
           CAST(COUNT(*) AS BIGINT) AS n_lines
    FROM lp JOIN a USING (l_partkey)
    WHERE lp.qty * 5 * a.n < a.sq"""


def q21_waiting_suppliers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q21 shape (suppliers who kept orders waiting): for
    finished ('F') multi-supplier orders, the supplier who ALONE
    shipped last (their per-order max shipdate is the order's max and
    unique) held the order up; count such orders per supplier. The
    schema has no commit/receipt dates, so last-to-ship plays the
    late-delivery role with the same exists/not-exists structure. Plan:
    one partial_aggregate to per-(order, supplier) max shipdates, then
    ONE partitioned join with the F-orders — the whole per-order
    window logic (order max, supplier count, uniqueness) runs INSIDE
    the join bucket, where all of an order's supplier rows are
    co-located by the bucket hash; per-supplier numwait partials are
    the only exchange after that."""
    li = rp(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    sm = partial_aggregate(li, ["l_orderkey", "l_suppkey"],
                           {"ms": ("max", "l_shipdate")})
    orders_f = rp(sf_dir, "orders", ["o_orderkey", "o_orderstatus"]) \
        .map_batches(lambda df: df[df["o_orderstatus"] == "F"]
                     [["o_orderkey"]], batch_format="pandas")

    def laggards(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", sort=False)
        omax = g["ms"].transform("max")
        nsupp = g["ms"].transform("size")
        at_max = df["ms"].to_numpy() == omax.to_numpy()
        natmax = g["ms"].transform(
            lambda s: int((s == s.max()).sum())).to_numpy()
        k = at_max & (natmax == 1) & (nsupp.to_numpy() >= 2)
        out = df.loc[k, ["l_suppkey"]].copy()
        out["numwait"] = np.int64(1)
        return out.groupby("l_suppkey", sort=False, as_index=False).agg(
            numwait=("numwait", "sum"))

    j = hash_join(sm, orders_f, "l_orderkey", "o_orderkey",
                  left_cols=["l_orderkey", "l_suppkey", "ms"],
                  right_cols=["o_orderkey"], bucket_fn=laggards)
    agg = partial_aggregate(j, ["l_suppkey"], {"numwait": ("sum", "numwait")})
    supp = rp(sf_dir, "supplier", ["s_suppkey", "s_name"])
    out = hash_join(agg, supp, "l_suppkey", "s_suppkey",
                    left_cols=["l_suppkey", "numwait"],
                    right_cols=["s_suppkey", "s_name"])
    # hash_join keeps ONE copy of the (equal) key columns, under the
    # left name — re-expose it as s_suppkey for the output schema
    return out.map_batches(
        lambda df: pd.DataFrame({
            "s_suppkey": df["l_suppkey"].astype("int64"),
            "s_name": df["s_name"],
            "numwait": df["numwait"].astype("int64")}),
        batch_format="pandas")


QUERIES["q21_waiting_suppliers"] = q21_waiting_suppliers
ORACLE_SQL["q21_waiting_suppliers"] = """
    WITH sm AS (
      SELECT l_orderkey, l_suppkey, MAX(l_shipdate) AS ms
      FROM lineitem GROUP BY 1, 2),
    agg AS (SELECT l_orderkey, MAX(ms) AS omax, COUNT(*) AS nsupp
            FROM sm GROUP BY 1),
    atm AS (SELECT sm.l_orderkey, COUNT(*) AS natmax
            FROM sm JOIN agg USING (l_orderkey)
            WHERE sm.ms = agg.omax GROUP BY 1)
    SELECT s.s_suppkey, s.s_name, CAST(COUNT(*) AS BIGINT) AS numwait
    FROM sm
    JOIN agg USING (l_orderkey)
    JOIN atm USING (l_orderkey)
    JOIN orders o ON o.o_orderkey = sm.l_orderkey
    JOIN supplier s ON s.s_suppkey = sm.l_suppkey
    WHERE sm.ms = agg.omax AND atm.natmax = 1 AND agg.nsupp >= 2
      AND o.o_orderstatus = 'F'
    GROUP BY 1, 2"""


Q22_CUTOFF = pd.Timestamp("2000-01-01")


def q22_idle_customers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q22 shape (global sales opportunity): per nation, the
    count and total balance of customers with above-average positive
    balance with no RECENT order (none on/after Q22_CUTOFF — this
    testdata has no never-ordered customers, so recency stands in for
    the not-exists). The average is a two-number global scalar
    (sum_cents, n over positive balances) broadcast into the filter;
    above-average compares by integer cross-multiply
    (cents * n > sum_cents) so engine and SQL agree exactly; the
    no-recent-order test is an anti-join (NOT EXISTS) against the
    date-pruned orders' customer keys. The oracle's NOT IN agrees with
    it only because neither side holds a null key."""
    cust = rp(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    stats = cust.map_batches(
        lambda df: (lambda c: pd.DataFrame({
            "sc": pd.Series([int(c[c > 0].sum())], dtype="int64"),
            "n": pd.Series([int((c > 0).sum())], dtype="int64")}))
        (_cents(df["c_acctbal"]).to_numpy()), batch_format="pandas")
    stats = partial_aggregate(stats, [],
                              {"sc": ("sum", "sc"), "n": ("sum", "n")}) \
        .to_pandas()
    sc, n = int(stats["sc"][0]), int(stats["n"][0])

    rich = cust.map_batches(
        lambda df: (lambda c, k: pd.DataFrame({
            "c_custkey": df["c_custkey"].to_numpy(np.int64)[k],
            "c_nationkey": df["c_nationkey"].to_numpy(np.int64)[k],
            "bal_cents": c[k]}))
        (_cents(df["c_acctbal"]).to_numpy(),
         _cents(df["c_acctbal"]).to_numpy() * n > sc),
        batch_format="pandas")
    ordered = rp(sf_dir, "orders", ["o_custkey", "o_orderdate"]) \
        .map_batches(
            lambda df: df[df["o_orderdate"] >= Q22_CUTOFF]
            [["o_custkey"]].rename(columns={"o_custkey": "c_custkey"}),
            batch_format="pandas")
    idle = relops.semi_anti_filter_scalable(
        rich, "c_custkey", ordered, anti=True,
        cols=["c_custkey", "c_nationkey", "bal_cents"])
    return partial_aggregate(idle, ["c_nationkey"],
                             {"numcust": ("count", None),
                              "totacctbal_cents": ("sum", "bal_cents")})


QUERIES["q22_idle_customers"] = q22_idle_customers
ORACLE_SQL["q22_idle_customers"] = """
    WITH p AS (
      SELECT CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS BIGINT)
                 AS sc,
             COUNT(*) AS n
      FROM customer WHERE c_acctbal > 0),
    sel AS (
      SELECT c_custkey, c_nationkey,
             CAST(ROUND(c_acctbal * 100) AS BIGINT) AS bal
      FROM customer, p
      WHERE CAST(ROUND(c_acctbal * 100) AS BIGINT) * p.n > p.sc)
    SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
           CAST(COUNT(*) AS BIGINT) AS numcust,
           CAST(SUM(bal) AS BIGINT) AS totacctbal_cents
    FROM sel
    WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                            WHERE o_orderdate >= TIMESTAMP '2000-01-01')
    GROUP BY 1"""


Q8_TARGET_NATION = 5          # supplier nation whose share is measured
Q8_FROM, Q8_TO = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")


def q8_market_share(sf_dir: str) -> rd.Dataset:
    """TPC-H Q8 shape (national market share): of the PROMO-part
    revenue sold to ASIA-region customers over two years, the yearly
    ppm share supplied by nation 5 — the longest join chain in the
    suite (lineitem x part x orders x customer x supplier + two
    dimension filters). Ray-Data-first plan: nation/region are
    schema-bounded (25/5 rows) and broadcast as a frozenset; the four
    big joins run PARTITIONED in sequence, each with its filter or
    fold INSIDE the join bucket so only surviving columns move:
    part-type prune -> date prune + year extract -> region prune ->
    per-(year, is-target) pre-reduce. The final exchange is <=2 rows
    per bucket; share compares exactly in integer ppm."""
    nat = rp(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    reg = rp(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    asia = frozenset(
        int(k) for k in nat.merge(
            reg[reg["r_name"] == "ASIA"],
            left_on="n_regionkey", right_on="r_regionkey")["n_nationkey"])

    li = rp(sf_dir, "lineitem",
            ["l_partkey", "l_orderkey", "l_suppkey",
             "l_extendedprice", "l_discount"]) \
        .map_batches(
            lambda df: pd.DataFrame({
                "l_partkey": df["l_partkey"].to_numpy(np.int64),
                "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
                "rev": _cents(df["l_extendedprice"]).to_numpy()
                * (100 - np.round(df["l_discount"].to_numpy(np.float64)
                                  * 100).astype(np.int64))}),
            batch_format="pandas")
    part = rp(sf_dir, "part", ["p_partkey", "p_type"])
    j1 = hash_join(li, part, "l_partkey", "p_partkey",
                   left_cols=["l_partkey", "l_orderkey", "l_suppkey", "rev"],
                   right_cols=["p_partkey", "p_type"],
                   bucket_fn=lambda df: df[df["p_type"] == "PROMO"]
                   [["l_orderkey", "l_suppkey", "rev"]])

    orders_f = rp(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(
            lambda df: (lambda k: pd.DataFrame({
                "o_orderkey": df["o_orderkey"].to_numpy(np.int64)[k],
                "o_custkey": df["o_custkey"].to_numpy(np.int64)[k],
                "o_year": df["o_orderdate"].dt.year.to_numpy(np.int64)[k]}))
            (((df["o_orderdate"] >= Q8_FROM)
              & (df["o_orderdate"] < Q8_TO)).to_numpy()),
            batch_format="pandas")
    j2 = hash_join(j1, orders_f, "l_orderkey", "o_orderkey",
                   left_cols=["l_orderkey", "l_suppkey", "rev"],
                   right_cols=["o_orderkey", "o_custkey", "o_year"])

    cust = rp(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j3 = hash_join(j2, cust, "o_custkey", "c_custkey",
                   left_cols=["o_custkey", "l_suppkey", "rev", "o_year"],
                   right_cols=["c_custkey", "c_nationkey"],
                   bucket_fn=lambda df: df[df["c_nationkey"].isin(asia)]
                   [["l_suppkey", "rev", "o_year"]])

    supp = rp(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        tgt = df["s_nationkey"].to_numpy(np.int64) == Q8_TARGET_NATION
        rev = df["rev"].to_numpy(np.int64)
        g = pd.DataFrame({"o_year": df["o_year"].to_numpy(np.int64),
                          "total_e4": rev,
                          "nation_e4": np.where(tgt, rev, 0)})
        return g.groupby("o_year", sort=False, as_index=False).agg(
            total_e4=("total_e4", "sum"), nation_e4=("nation_e4", "sum"))

    j4 = hash_join(j3, supp, "l_suppkey", "s_suppkey",
                   left_cols=["l_suppkey", "rev", "o_year"],
                   right_cols=["s_suppkey", "s_nationkey"], bucket_fn=fold)
    agg = partial_aggregate(j4, ["o_year"],
                            {"total_e4": ("sum", "total_e4"),
                             "nation_e4": ("sum", "nation_e4")})
    return agg.map_batches(
        lambda df: df.assign(
            share_ppm=(df["nation_e4"].to_numpy(np.int64) * 1_000_000
                       // df["total_e4"].to_numpy(np.int64)).astype("int64")),
        batch_format="pandas")


QUERIES["q8_market_share"] = q8_market_share
ORACLE_SQL["q8_market_share"] = """
    WITH j AS (
      SELECT EXTRACT(year FROM o.o_orderdate)::BIGINT AS o_year,
             CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev,
             s.s_nationkey
      FROM lineitem l
      JOIN part p ON p.p_partkey = l.l_partkey
      JOIN orders o ON o.o_orderkey = l.l_orderkey
      JOIN customer c ON c.c_custkey = o.o_custkey
      JOIN nation n ON n.n_nationkey = c.c_nationkey
      JOIN region r ON r.r_regionkey = n.n_regionkey
      JOIN supplier s ON s.s_suppkey = l.l_suppkey
      WHERE p.p_type = 'PROMO' AND r.r_name = 'ASIA'
        AND o.o_orderdate >= TIMESTAMP '1996-01-01'
        AND o.o_orderdate < TIMESTAMP '1998-01-01')
    SELECT o_year, CAST(SUM(rev) AS BIGINT) AS total_e4,
           CAST(COALESCE(SUM(rev) FILTER (WHERE s_nationkey = 5), 0)
                AS BIGINT) AS nation_e4,
           CAST(COALESCE(SUM(rev) FILTER (WHERE s_nationkey = 5), 0)
                * 1000000 // SUM(rev) AS BIGINT) AS share_ppm
    FROM j GROUP BY 1"""


def q_mm_caption_align(sf_dir: str) -> rd.Dataset:
    """Caption pairing for interleaved media: every media-derived span
    (pdf/image page) pairs with the NEAREST PRECEDING text-kind span
    in its document's reading order — the image-caption alignment step
    a multimodal training mix is built from (MMC4-style). Vectorized:
    one forward-fill (np.maximum.accumulate) of last-text-span indices
    over the flattened span rows, reset at document boundaries via the
    per-parent first index; folds per kind to (n_media, n_captioned,
    sum_gap, sum_chk) where chk = md5(doc|ref|order|caption) — any
    mispairing anywhere in the corpus moves the sum. VALUES oracle
    from the serial reference extraction through the same rule."""
    res = _extracted(sf_dir).select_columns(["doc_id", "spans"])
    return partial_aggregate(
        res.map_batches(_caption_align_kernel, batch_format="pyarrow"),
        ["kind"], {"n_media": ("sum", "n_media"),
                   "n_captioned": ("sum", "n_captioned"),
                   "sum_gap": ("sum", "sum_gap"),
                   "sum_chk": ("sum", "sum_chk")})


def _caption_align_kernel(t: pa.Table) -> pd.DataFrame:
    """Per-batch caption pairing + per-kind fold (unit-tested directly
    in tests/test_multimodal.py)."""
    import hashlib as _h

    import pyarrow.compute as pc

    empty = pd.DataFrame({
        "kind": pd.Series([], dtype=object),
        "n_media": pd.Series([], dtype=np.int64),
        "n_captioned": pd.Series([], dtype=np.int64),
        "sum_gap": pd.Series([], dtype=np.int64),
        "sum_chk": pd.Series([], dtype=np.int64)})
    t = t.combine_chunks()
    spans = t.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    if len(flat) == 0:
        return empty
    parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    kinds = flat.field("kind").to_numpy(zero_copy_only=False)
    orders = flat.field("order").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    texts = flat.field("text").to_numpy(zero_copy_only=False)
    refs = flat.field("media_ref").to_numpy(zero_copy_only=False)
    docs = t.column("doc_id").to_numpy(zero_copy_only=False)

    is_text = (kinds == "html") | (kinds == "text")
    is_media = (kinds == "pdf") | (kinds == "image")
    if not is_media.any():
        return empty
    idx = np.arange(len(flat), dtype=np.int64)
    last_text = np.maximum.accumulate(np.where(is_text, idx, -1))
    # parent is non-decreasing: first flat index of each document
    parent_first = np.searchsorted(parent, parent, side="left")
    cap_idx = last_text[is_media]
    valid = cap_idx >= parent_first[is_media]
    m_idx = idx[is_media]
    chk = np.zeros(len(m_idx), dtype=np.int64)
    gap = np.zeros(len(m_idx), dtype=np.int64)
    vi = np.flatnonzero(valid)
    chk[vi] = np.fromiter(
        (int(_h.md5(
            f"{docs[parent[m]]}|{refs[m]}|{orders[m]}|{texts[c]}"
            .encode("utf-8")).hexdigest()[:8], 16)
         for m, c in zip(m_idx[vi], cap_idx[vi])),
        dtype=np.int64, count=len(vi))
    gap[vi] = orders[m_idx[vi]] - orders[cap_idx[vi]]
    g = pd.DataFrame({"kind": kinds[is_media],
                      "n_media": np.ones(len(m_idx), dtype=np.int64),
                      "n_captioned": valid.astype(np.int64),
                      "sum_gap": gap, "sum_chk": chk})
    return g.groupby("kind", sort=False, as_index=False).agg(
        n_media=("n_media", "sum"), n_captioned=("n_captioned", "sum"),
        sum_gap=("sum_gap", "sum"), sum_chk=("sum_chk", "sum"))


def _mm_caption_oracle_sql(tier: str = "correctness") -> str:
    """Inline-VALUES oracle for q_mm_caption_align: the serial
    reference extraction through the same nearest-preceding-text
    pairing + per-kind fold."""
    import hashlib as _h

    from . import oracle as oracle_mod

    fp = fixtures.source_fingerprint(fixtures, extractors, oracle_mod)

    def compute() -> list:
        per_doc = oracle_mod.extract_corpus(fixtures.DEFAULT_SEED,
                                            fixtures.TIERS[tier])
        acc: dict = {}
        for r in per_doc:
            last_text = None
            for s in r["spans"]:
                if s["kind"] in ("html", "text"):
                    last_text = s
                elif s["kind"] in ("pdf", "image"):
                    a = acc.setdefault(s["kind"], [0, 0, 0, 0])
                    a[0] += 1
                    if last_text is not None:
                        a[1] += 1
                        a[2] += s["order"] - last_text["order"]
                        a[3] += int(_h.md5(
                            f"{r['doc_id']}|{s['media_ref']}|{s['order']}|"
                            f"{last_text['text']}".encode("utf-8"))
                            .hexdigest()[:8], 16)
        return [[k] + v for k, v in sorted(acc.items())]

    rows = json_cache(f"{fp}_{tier}_mm_capt.json", compute)
    vals = ", ".join("('{}', {}, {}, {}, {})".format(*r) for r in rows)
    return f"""
        SELECT kind, CAST(n_media AS BIGINT) AS n_media,
               CAST(n_captioned AS BIGINT) AS n_captioned,
               CAST(sum_gap AS BIGINT) AS sum_gap,
               CAST(sum_chk AS BIGINT) AS sum_chk
        FROM (VALUES {vals}) AS t(kind, n_media, n_captioned,
                                  sum_gap, sum_chk)"""


QUERIES["mm_caption_align"] = q_mm_caption_align
TIER_ORACLE_BUILDERS["mm_caption_align"] = _mm_caption_oracle_sql
# the driver's oracle_sql() snapshot runs at its sf0.01 = correctness
# tier (check_queries re-builds per tier)
ORACLE_SQL["mm_caption_align"] = _mm_caption_oracle_sql("correctness")


def label_centroid_distances(sf_dir: str) -> rd.Dataset:
    """Inter-class separation audit for an embedding table: the exact
    pairwise squared L2 distance between per-label centroids,
    integer-quantized so engine and SQL agree bit-for-bit — the
    class-geometry report a contrastive/classifier training set is
    vetted with. Elements quantize to int micro BEFORE any sum (the
    unordered-float-SUM trap), per-(label, dim) integer partials are
    the only exchange (|labels| x dim rows), and the centroid rounding
    is the sign-split half-away-from-zero rule stated in pure integer
    arithmetic ((2s + n) // (2n)) on both sides. The pairwise step
    runs on the driver over the |labels| x dim summary — bounded by
    the label domain, never by the corpus."""
    from .similarity import _quant_away

    emb = rp(sf_dir, "embeddings", ["label", "embedding"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        lab = df["label"].to_numpy(np.int64)
        mat = np.stack(df["embedding"].to_numpy())
        micro = _quant_away(mat, 10**6)
        uniq, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), micro.shape[1]), dtype=np.int64)
        np.add.at(sums, inv, micro)
        counts = np.bincount(inv).astype(np.int64)
        dim = micro.shape[1]
        return pd.DataFrame({
            "label": np.repeat(uniq, dim),
            "d": np.tile(np.arange(1, dim + 1, dtype=np.int64), len(uniq)),
            "s": sums.ravel(),
            "n": np.repeat(counts, dim)})

    parts = partial_aggregate(emb.map_batches(fold, batch_format="pandas"),
                              ["label", "d"],
                              {"s": ("sum", "s"), "n": ("sum", "n")})
    t = parts.to_pandas()  # |labels| x dim rows — label-domain bounded
    s = t["s"].to_numpy(np.int64)
    n = t["n"].to_numpy(np.int64)
    cm = np.where(s >= 0, (2 * s + n) // (2 * n), -((-2 * s + n) // (2 * n)))
    t = t.assign(cm=cm).sort_values(["label", "d"])
    labels = np.sort(t["label"].unique())
    c = t.pivot(index="label", columns="d", values="cm") \
        .loc[labels].to_numpy(np.int64)
    ia, ib = np.triu_indices(len(labels), k=1)
    diff = c[ia] - c[ib]
    return rd.from_pandas(pd.DataFrame({
        "label_a": labels[ia].astype("int64"),
        "label_b": labels[ib].astype("int64"),
        "dist2": (diff * diff).sum(axis=1).astype("int64")}))


QUERIES["label_centroid_distances"] = label_centroid_distances
ORACLE_SQL["label_centroid_distances"] = """
    WITH e AS (
      SELECT label, unnest(embedding) AS v,
             generate_subscripts(embedding, 1) AS d
      FROM embeddings),
    s AS (SELECT label, d,
                 CAST(SUM(CAST(ROUND(CAST(v AS DOUBLE) * 1000000)
                               AS BIGINT)) AS BIGINT) AS s,
                 COUNT(*) AS n
          FROM e GROUP BY 1, 2),
    c AS (SELECT label, d,
                 CASE WHEN s >= 0 THEN (2 * s + n) // (2 * n)
                      ELSE -((-2 * s + n) // (2 * n)) END AS cm
          FROM s)
    SELECT CAST(a.label AS BIGINT) AS label_a,
           CAST(b.label AS BIGINT) AS label_b,
           CAST(SUM((a.cm - b.cm) * (a.cm - b.cm)) AS BIGINT) AS dist2
    FROM c a JOIN c b ON a.d = b.d AND a.label < b.label
    GROUP BY 1, 2"""
