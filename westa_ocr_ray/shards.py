"""Training-shard export: the terminal re-layout step of a training-data
pipeline — deterministic hash sharding of a cleaned corpus into S
equal-expectation shards, written as hive-partitioned Parquet (one
directory per shard) so a downstream trainer streams shard-parallel and
a failed export re-runs without clobbering finished output.

Shard assignment is content-independent and seedless: md5 of the
string-form doc id, so the same doc lands in the same shard on any
cluster shape / block layout, and DuckDB can recompute the assignment
bit-for-bit (queries.ORACLE_SQL['shard_stats'])."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import ray.data as rd

from .dedup import md5_hex
from .relops import exchange, partial_aggregate, per_key
from .storage import commit_dir

#: order-preserving md5 range buckets of the prefix-sum passes below
#: (shuffle_rank, token_budget_sample, pack_stream): the driver
#: prefix-sums this many counts per group, and the exchange sorts each
#: bucket in its own call. The count does not change any output.
RANGE_BUCKETS = 64


def shard_assign(ds: rd.Dataset, num_shards: int = 64,
                 id_col: str = "doc_id") -> rd.Dataset:
    """Adds ``shard`` = first-8-hex-digits(md5(str(id))) % num_shards.
    Per-id md5 is a short-string hash per row (same accepted pattern as
    the stratified sampler); everything downstream is vectorized."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["shard"] = np.fromiter(
            (int(md5_hex(str(i))[:8], 16) % num_shards for i in df[id_col]),
            dtype=np.int64, count=len(df))
        return df

    return ds.map_batches(fn, batch_format="pandas")


def shard_stats(ds: rd.Dataset, num_shards: int = 64,
                id_col: str = "doc_id",
                sum_cols: Sequence[str] = ("n_chars",)) -> rd.Dataset:
    """Per-shard (shard, n_docs, sum_<c>...) — the manifest a trainer
    uses to size its readers. One bucketed partial aggregate; only
    num_shards rows ever reach the driver."""
    aggs = {"n_docs": ("count", None)}
    for c in sum_cols:
        aggs["sum_" + c] = ("sum", c)
    return partial_aggregate(shard_assign(ds, num_shards, id_col)
                             .select_columns(["shard", *sum_cols]),
                             ["shard"], aggs)


def shuffle_rank(ds: rd.Dataset, id_col: str = "doc_id", seed: int = 42,
                 stage_col: Optional[str] = None) -> rd.Dataset:
    """Deterministic global training shuffle: adds ``rank`` — the row's
    0-based position in the corpus ordered by md5(seed|id) — the
    shuffle-before-sharding step of training-data layout, reproducible
    bit-for-bit on any cluster shape / block count (and in SQL:
    queries.ORACLE_SQL['shuffle_rank']).

    Distributed order statistics with NO global sort: the md5 key is
    uniform, so its leading 16 bits are an order-preserving range
    partition. Pass 1 counts rows per range bucket (driver prefix-sums
    RANGE_BUCKETS integers — nothing corpus-sized); pass 2 sorts each
    bucket locally and adds its offset. Payload rows move through
    exactly one keyed exchange.

    ``stage_col`` names a SMALL non-negative integer column and turns
    this into curriculum ordering: rows ranked by (stage, md5-shuffle)
    — each curriculum stage in order, shuffled within the stage. The
    driver's count vector grows to (max_stage+1) × RANGE_BUCKETS, so the
    documented bound is stage values in the tens, not thousands."""
    def key_bucket(df: pd.DataFrame) -> "tuple[list, np.ndarray]":
        keys = [md5_hex(f"{seed}|{i}") for i in df[id_col]]
        b = np.fromiter((int(kk[:4], 16) * RANGE_BUCKETS >> 16 for kk in keys),
                        dtype=np.int64, count=len(keys))
        if stage_col is not None:
            b = df[stage_col].to_numpy(dtype=np.int64) * RANGE_BUCKETS + b
        return keys, b

    def count_batch(df: pd.DataFrame) -> pd.DataFrame:
        _, b = key_bucket(df)
        u, c = np.unique(b, return_counts=True)
        return pd.DataFrame({"__rb": u, "n": c.astype(np.int64)})

    counts = partial_aggregate(
        ds.map_batches(count_batch, batch_format="pandas"),
        ["__rb"], {"n": ("sum", "n")}).to_pandas()
    counts = counts.sort_values("__rb")
    size = max(RANGE_BUCKETS,
               int(counts["__rb"].max()) + 1 if len(counts) else 0)
    offsets = np.zeros(size, dtype=np.int64)
    offsets[counts["__rb"].to_numpy()] = counts["n"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(offsets)[:-1]])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        keys, b = key_bucket(df)
        df["__sk"] = keys
        df["__rb"] = b
        return df

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        off = offsets[int(df["__rb"].iloc[0])]
        df = df.sort_values(["__sk", id_col], ignore_index=True)
        df["rank"] = off + np.arange(len(df), dtype=np.int64)
        return df.drop(columns=["__sk", "__rb"])

    return exchange(ds, "__rb", per_key("__rb", assign), pre=tag)


def token_budget_sample(ds: rd.Dataset, budget_tokens: int,
                        group_col: str = "lang", id_col: str = "doc_id",
                        text_col: str = "text", tok_col: Optional[str] = None,
                        seed: int = 7) -> rd.Dataset:
    """Per-group TOKEN-budget selection: walk each group (language /
    source) in the deterministic md5 shuffle order and keep docs while
    the group's running token count is under ``budget_tokens`` — the
    "take the first N tokens per source" step of assembling a
    fixed-size training mix (a count quota ignores doc length; a token
    budget is what the trainer actually consumes). Greedy prefix rule:
    a doc is kept iff the tokens BEFORE it in its group are < budget,
    so the selection overshoots by at most one doc and is independent
    of cluster shape. SQL twin: queries.ORACLE_SQL['token_budget_per_lang']
    (a windowed running sum).

    Distributed prefix sums with NO global sort (the shuffle_rank
    machinery): the md5 key's leading 16 bits are an order-preserving
    range partition. Pass 1 sums tokens per (group, range-bucket) —
    the driver prefix-sums groups × RANGE_BUCKETS SCALARS (the same
    documented bound as shuffle_rank's stage variant); pass 2 drops
    every bucket past its group's budget BEFORE the exchange (work is
    bounded by the budget, not the corpus), locally sorts the rest and
    applies offset + cumsum < budget. Only the (id, group, n_tok, key)
    projection — never the text — moves through the exchange or the
    checkpoint.

    Returns (id, group, n_tok) for the kept docs; callers join texts
    back by id (semi_anti_filter_scalable) when needed."""
    def tag(df: pd.DataFrame) -> pd.DataFrame:
        if tok_col is not None:
            n_tok = df[tok_col].to_numpy(dtype=np.int64)
        else:
            # len(split(' ')) == spaces + 1, fully vectorized
            n_tok = (df[text_col].str.count(" ") + 1).to_numpy(dtype=np.int64)
        keys = [md5_hex(f"{seed}|{i}") for i in df[id_col]]
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            group_col: df[group_col].to_numpy(),
            "n_tok": n_tok,
            "__sk": pd.Series(keys, dtype=object),
            "__rb": np.fromiter(
                (int(k[:4], 16) * RANGE_BUCKETS >> 16 for k in keys),
                dtype=np.int64, count=len(keys))})

    # small projection, consumed by both passes -> checkpoint it
    tagged = ds.map_batches(tag, batch_format="pandas").materialize()

    sums = partial_aggregate(
        tagged.select_columns([group_col, "__rb", "n_tok"]),
        [group_col, "__rb"], {"tok": ("sum", "n_tok")}).to_pandas()
    sums = sums.sort_values([group_col, "__rb"])
    cum = sums.groupby(group_col, sort=False)["tok"].cumsum() - sums["tok"]
    offsets = {(g, int(b)): int(o) for g, b, o in
               zip(sums[group_col], sums["__rb"], cum)}

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        # buckets whose group offset already exceeds the budget can't
        # contribute a kept row — drop them before the exchange
        keep = np.fromiter(
            (offsets.get((g, int(b)), 0) < budget_tokens
             for g, b in zip(df[group_col], df["__rb"])),
            dtype=bool, count=len(df))
        return df[keep]

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        off = offsets.get((df[group_col].iloc[0], int(df["__rb"].iloc[0])), 0)
        df = df.sort_values(["__sk", id_col], ignore_index=True)
        before = off + df["n_tok"].cumsum().to_numpy() - df["n_tok"].to_numpy()
        return df.loc[before < budget_tokens, [id_col, group_col, "n_tok"]]

    return exchange(tagged, [group_col, "__rb"],
                    per_key([group_col, "__rb"], assign), pre=prune)


def pack_stream(ds: rd.Dataset, seq_len: int = 1024,
                id_col: str = "doc_id", text_col: str = "text",
                seed: int = 42) -> rd.Dataset:
    """Cross-document LM stream packing: every document's tokens are
    concatenated — in the deterministic md5 shuffle order — into ONE
    global token stream, which is cut into fixed ``seq_len`` training
    sequences (the GPT-style packing layout: sequences cross document
    boundaries, zero padding except the final tail). Returns per doc
    ``(id, n_tok, start_tok, first_seq, last_seq)`` — the doc's global
    token offset and the training-sequence range it lands in, which is
    exactly the manifest a packed-dataset writer needs.

    Distributed prefix sums with NO global sort (the shuffle_rank
    machinery): pass 1 sums tokens per order-preserving md5 range
    bucket — the driver prefix-sums RANGE_BUCKETS SCALARS — pass 2
    sorts each bucket locally and applies offset + cumsum. Only the
    (id, n_tok, key) projection moves; text never leaves the first
    map. SQL twin: queries.ORACLE_SQL['pack_stream'] (one windowed
    running sum)."""
    def tag(df: pd.DataFrame) -> pd.DataFrame:
        # len(split(' ')) == spaces + 1, fully vectorized
        n_tok = (df[text_col].str.count(" ") + 1).to_numpy(dtype=np.int64)
        keys = [md5_hex(f"{seed}|{i}") for i in df[id_col]]
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "n_tok": n_tok,
            "__sk": pd.Series(keys, dtype=object),
            "__rb": np.fromiter(
                (int(k[:4], 16) * RANGE_BUCKETS >> 16 for k in keys),
                dtype=np.int64, count=len(keys))})

    # the projection feeds both the bucket-sum pass and the assign pass
    tagged = ds.map_batches(tag, batch_format="pandas").materialize()

    sums = partial_aggregate(
        tagged.select_columns(["__rb", "n_tok"]),
        ["__rb"], {"tok": ("sum", "n_tok")}).to_pandas().sort_values("__rb")
    size = max(RANGE_BUCKETS, int(sums["__rb"].max()) + 1 if len(sums) else 0)
    offsets = np.zeros(size, dtype=np.int64)
    offsets[sums["__rb"].to_numpy()] = sums["tok"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(offsets)[:-1]])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        off = offsets[int(df["__rb"].iloc[0])]
        df = df.sort_values(["__sk", id_col], ignore_index=True)
        n = df["n_tok"].to_numpy()
        start = off + np.cumsum(n) - n
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             "n_tok": n,
                             "start_tok": start,
                             "first_seq": start // seq_len,
                             "last_seq": (start + n - 1) // seq_len})

    return exchange(tagged, "__rb", per_key("__rb", assign))


def mixture_threshold_hex(weight: float) -> Optional[str]:
    """The 8-hex-digit keep threshold for a sampling weight in [0,1):
    keep a row iff md5(seed|id)[:8] < this string (equal-length hex
    strings compare lexicographically == numerically, so DuckDB can
    apply the identical rule with substr(md5(..),1,8) < '<hex>').
    Returns None for weight >= 1 (keep everything)."""
    if weight >= 1.0:
        return None
    return format(max(int(weight * (1 << 32)), 0), "08x")


def mixture_sample(ds: rd.Dataset, weights: dict, key_col: str = "lang",
                   id_col: str = "doc_id", seed: int = 13,
                   default: float = 1.0) -> rd.Dataset:
    """Training-mixture downsampling: keep each row with its source's /
    language's sampling weight, decided by a deterministic per-doc coin
    (md5(seed|id) as a uniform in [0,1)) — the "mix sources at given
    ratios" step of corpus assembly. Content-addressed, so the kept set
    is identical on any cluster shape, across reruns, and in SQL
    (queries.ORACLE_SQL['mixture_sample']); a pure streaming filter —
    no shuffle, nothing on the driver."""
    # 'g' sorts after every hex char, so a weight>=1 source gets a
    # threshold every 8-hex-digit key is below — the keep compare stays
    # one vectorized string comparison with no per-row branching
    thresholds = {k: mixture_threshold_hex(w) or "g"
                  for k, w in weights.items()}
    default_thr = mixture_threshold_hex(default) or "g"

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        key8 = np.array([md5_hex(f"{seed}|{i}")[:8] for i in df[id_col]],
                        dtype="U8")
        thr = (df[key_col].map(lambda k: thresholds.get(k, default_thr))
               .to_numpy(dtype="U8"))
        return df[key8 < thr]

    return ds.map_batches(fn, batch_format="pandas")


def train_val_split(ds: rd.Dataset, val_frac: float = 0.02,
                    id_col: str = "doc_id", seed: int = 29,
                    col: str = "split") -> rd.Dataset:
    """Deterministic held-out split labeling: adds ``split`` ∈
    {'train','val'} by the same content-addressed md5 coin as
    mixture_sample — a doc keeps its split on any cluster shape, across
    reruns, and when the corpus grows (new docs never flip old ones,
    the property that keeps a long-lived eval set uncontaminated).
    Streaming, no shuffle; SQL twin queries.ORACLE_SQL['train_val_split']."""
    thr = mixture_threshold_hex(val_frac)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        if thr is None:
            df[col] = "val"
            return df
        key8 = np.array([md5_hex(f"{seed}|{i}")[:8] for i in df[id_col]])
        df[col] = np.where(key8 < thr, "val", "train")
        return df

    return ds.map_batches(fn, batch_format="pandas")


def epoch_oversample(ds: rd.Dataset, factors: dict, key_col: str = "lang",
                     default: int = 1) -> rd.Dataset:
    """Training-mixture UPsampling: replicate each row its source's
    integer epoch factor times, tagging the copy index as ``epoch`` —
    the "see high-quality sources N times per epoch" step of corpus
    assembly (factor 0 drops the source). A pure streaming row
    expansion inside map_batches (np.repeat on the batch — no Python
    per-row loop, no shuffle); downstream layout is the usual
    shuffle_rank / shard_assign."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        reps = (df[key_col].map(lambda k: factors.get(k, default))
                .to_numpy(dtype=np.int64))
        reps = np.maximum(reps, 0)
        idx = np.repeat(np.arange(len(df)), reps)
        out = df.iloc[idx].reset_index(drop=True)
        starts = np.concatenate([[0], np.cumsum(reps)[:-1]])
        out["epoch"] = (np.arange(len(out), dtype=np.int64)
                        - np.repeat(starts, reps))
        return out

    return ds.map_batches(fn, batch_format="pandas")


def export_training_shards(ds: rd.Dataset, out_dir: str,
                           num_shards: int = 64,
                           id_col: str = "doc_id") -> str:
    """Writes ``out_dir/shard=<k>/*.parquet`` (hive partitioning via
    write_parquet(partition_cols), streaming — no per-shard
    materialization): the on-disk layout whose per-shard counts
    shard_stats reports, and the training stack's input. Committed by
    storage.commit_dir, so a re-run that finds the marker skips the
    export and a crashed export is wiped before its rewrite
    (whole-export granularity: this is the terminal re-layout;
    mid-run resumability of the expensive upstream work is the
    extraction sink's marker system, stages/reassemble.py). Returns
    out_dir."""
    commit_dir(out_dir, lambda d: shard_assign(ds, num_shards, id_col)
               .write_parquet(d, partition_cols=["shard"]))
    return out_dir
