"""Mergeable sketches for approximate aggregates at scale.

The scale shape (SCALE.md §Sketches): one serialized sketch row per
block, computed in ``relops.exchange``'s split task and merged by
``_tree_merge`` in two levels — per bucket of PREMERGE_BUCKETS on the
exchange, then once on the driver — so the all-to-all moves
registers, never rows, and the driver folds at most PREMERGE_BUCKETS
rows whatever the block count. Each sketch is a per-block kernel plus
a merge. The reference has no
sketches (SURVEY.md §2.5); this is part of the training-data toolkit.

HyperLogLog per Flajolet et al. 2007, with the standard small-range
(linear counting) correction. Hashing is pandas' 64-bit siphash
(deterministic within a pandas version), vectorized.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import ray.data as rd

from .relops import exchange, partial_aggregate, per_key

#: bucket count of the tree-merge's middle level: the driver merges at
#: most this many sketch rows (VERDICT r2 #2: not one per input block)
PREMERGE_BUCKETS = 64


class HyperLogLog:
    def __init__(self, p: int = 12) -> None:
        assert 4 <= p <= 18
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)
        if self.m >= 128:
            self.alpha = 0.7213 / (1 + 1.079 / self.m)
        else:
            self.alpha = {16: 0.673, 32: 0.697, 64: 0.709}[self.m]

    def add_hashes(self, h: np.ndarray) -> None:
        """Add pre-hashed uint64 values (vectorized)."""
        h = h.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = h & np.uint64((1 << (64 - self.p)) - 1)
        # rank = leading-zero count of the low 64-p bits + 1
        #      = (64-p) - bit_length(w) + 1. bit_length is computed
        # integer-exactly by splitting w into 32-bit halves (each half
        # fits a float64 mantissa, so frexp's exponent IS bit_length —
        # no rounding near powers of two even at small p).
        hi = (w >> np.uint64(32)).astype(np.float64)
        lo = (w & np.uint64(0xFFFFFFFF)).astype(np.float64)
        _, ehi = np.frexp(hi)
        _, elo = np.frexp(lo)
        bl = np.where(hi > 0, ehi + 32, elo)  # exact bit_length(w)
        rank = ((64 - self.p) - bl + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> int:
        est = self.alpha * self.m**2 / np.sum(2.0 ** -self.registers.astype(np.float64))
        zeros = int(np.count_nonzero(self.registers == 0))
        if est <= 2.5 * self.m and zeros:
            est = self.m * np.log(self.m / zeros)  # linear counting
        return int(round(est))


def _premerge_buckets(payload_col: str, n_buckets: int):
    """Deterministic bucket tag for sketch rows (md5 of the payload
    bytes — sketch batches are 1-row, so a within-batch round-robin
    would put every sketch in bucket 0; the content hash spreads them.
    Payloads may be raw non-utf8 bytes, hence md5 over bytes rather
    than a pandas string hash)."""
    import hashlib

    def _h(v) -> int:
        b = v if isinstance(v, (bytes, bytearray)) else str(v).encode("utf-8")
        return int.from_bytes(hashlib.md5(b).digest()[:4], "big")

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b"] = (df[payload_col].map(_h).to_numpy().astype(np.int64)
                     % n_buckets).astype("int32")
        return df
    return tag


def _tree_merge(ds: rd.Dataset, col: str, sketch, merge,
                payload_col: str) -> pd.Series:
    """The one tree-merge under every sketch, one ``relops.exchange``
    call: its split task turns each non-empty block of ``ds`` into a
    one-row frame with ``sketch`` and buckets it by a hash of
    ``payload_col``, ``merge`` folds each bucket's rows into one row,
    and the driver folds those ≤ PREMERGE_BUCKETS rows with ``merge``
    once more. ``merge`` takes any non-empty set of sketch rows and
    returns one. Returns the merged row; an input with no rows (the
    exchange then returns one column-less block) merges the sketch of
    an empty ``col`` frame."""
    n = PREMERGE_BUCKETS  # read on the driver: the tag runs on workers
    tag = _premerge_buckets(payload_col, n)
    parts = exchange(ds, "__b", per_key("__b", merge),
                     pre=lambda df: tag(sketch(df))).to_pandas()
    if parts.columns.empty:
        parts = sketch(pd.DataFrame({col: []}))
    return merge(parts).iloc[0]


def _fold(raws, dtype, op) -> bytes:
    """Element-wise ``op`` (max, or, add) over equal-size sketch buffers."""
    raws = iter(raws)
    acc = np.frombuffer(next(raws), dtype=dtype).copy()
    for raw in raws:
        op(acc, np.frombuffer(raw, dtype=dtype), out=acc)
    return acc.tobytes()


def _max_registers(df: pd.DataFrame) -> pd.DataFrame:
    """HLL merge: register-wise max (associative and commutative, so the
    tree-merged registers equal a flat merge's)."""
    return pd.DataFrame({"registers": [_fold(df["registers"], np.uint8,
                                             np.maximum)]})


def approx_distinct(ds: rd.Dataset, col: str, p: int = 12) -> int:
    """Approximate COUNT(DISTINCT col): per-batch HLL registers (one
    m-byte row per batch crosses the wire), tree-merged. At 100 TB the
    driver merges ≤ PREMERGE_BUCKETS rows instead of one per input
    block (VERDICT r2 #2)."""

    def sketch(df: pd.DataFrame) -> pd.DataFrame:
        hll = HyperLogLog(p)
        hll.add_hashes(pd.util.hash_pandas_object(df[col].astype(str),
                                                  index=False).to_numpy())
        return pd.DataFrame({"registers": [hll.registers.tobytes()]})

    merged = HyperLogLog(p)
    merged.registers = np.frombuffer(
        _tree_merge(ds, col, sketch, _max_registers, "registers")["registers"],
        dtype=np.uint8)
    return merged.estimate()


def misra_gries_merge(summaries, k: int):
    """Merge Misra-Gries summaries (dicts) with capacity k-1: pairwise
    merge = add counts, then subtract the (k)th-largest count from all
    and drop non-positives — preserves the standard guarantee: every
    item with true frequency > n/k survives, counts underestimate by
    at most n/k."""
    from collections import Counter

    total: Counter = Counter()
    for s in summaries:
        total.update(s)
    if len(total) < k:
        return dict(total)
    cut = sorted(total.values(), reverse=True)[k - 1]
    return {key: c - cut for key, c in total.items() if c - cut > 0}


def _mg_batch(values: pd.Series, k: int) -> dict:
    """One batch's Misra-Gries summary (JSON, keys stringified after
    counting) and row count, as sketch-row columns."""
    vc = values.value_counts()  # vectorized per-batch count, descending
    if len(vc) >= k:
        cut = int(vc.iloc[k - 1])
        vc = (vc - cut)[vc - cut > 0]
    summary = {str(key): int(c) for key, c in vc.items()}
    return {"summary": [json.dumps(summary)], "n_rows": [len(values)]}


def _mg_fold(df: pd.DataFrame, k: int) -> dict:
    """Merge of ``_mg_batch`` rows (MG summaries are mergeable with the
    n/k bound intact — Agarwal et al. 2012, "Mergeable Summaries" — so
    the guarantee survives the tree)."""
    merged = misra_gries_merge([json.loads(s) for s in df["summary"]], k)
    return {"summary": [json.dumps(merged)],
            "n_rows": [int(df["n_rows"].sum())]}


def _mg_candidates(ds: rd.Dataset, col: str, k: int) -> tuple:
    """Tree-merged Misra-Gries summary of ``col`` and the exact row
    count, from one scan: (dict of stringified value -> lower-bound
    count, n)."""
    row = _tree_merge(ds, col,
                      lambda df: pd.DataFrame(_mg_batch(df[col], k)),
                      lambda df: pd.DataFrame(_mg_fold(df, k)), "summary")
    return json.loads(row["summary"]), int(row["n_rows"])


def heavy_hitters(ds: rd.Dataset, col: str, k: int = 20) -> pd.DataFrame:
    """Approximate heavy hitters over a column: one (k-1)-entry
    Misra-Gries summary per batch crosses the wire (never rows),
    tree-merged. Guarantee: any value with frequency > n/k appears in
    the output; returned counts are lower bounds within n/k of truth.
    Candidate set depends on block partitioning (the MG decrement
    order) — approximate by design, gated by tests/test_sketches.py."""
    merged, _ = _mg_candidates(ds, col, k)
    out = pd.DataFrame({col: pd.Series(list(merged.keys()), dtype=object),
                        "min_count": np.array(list(merged.values()),
                                              dtype=np.int64)})
    return out.sort_values(["min_count", col], ascending=[False, True],
                           ignore_index=True)


# --------------------------------------------------- count-min sketch

def _cms_cells(values: pd.Series, width: int, depth: int) -> np.ndarray:
    """(depth, len) array of cell indices — row d uses md5('{d}|' + v),
    so the rows are independent hash functions. md5 runs once per
    UNIQUE value per batch (the simhash pattern); DuckDB recomputes the
    same cells via ('0x' || substr(md5(...), 1, 16))::UBIGINT % width."""
    import hashlib

    svals = values.astype(str).to_numpy()
    uniq, inv = np.unique(svals, return_inverse=True)
    out = np.empty((depth, len(uniq)), dtype=np.int64)
    for d in range(depth):
        pre = f"{d}|".encode("utf-8")
        out[d] = np.fromiter(
            (int.from_bytes(hashlib.md5(pre + v.encode("utf-8"))
                            .digest()[:8], "big") % width for v in uniq),
            dtype=np.int64, count=len(uniq))
    return out[:, inv]


def _cms_grid(values: pd.Series, width: int, depth: int) -> dict:
    """One batch's (depth, width) int64 count-min grid, as sketch-row
    columns."""
    grid = np.zeros((depth, width), dtype=np.int64)
    if len(values):
        cells = _cms_cells(values, width, depth)
        for d in range(depth):
            np.add.at(grid[d], cells[d], 1)
    return {"grid": [grid.tobytes()]}


def _sum_grids(df: pd.DataFrame) -> dict:
    """Merge of ``_cms_grid`` columns: cell-wise add (associative and
    commutative, so the tree-merged grid is exact)."""
    return {"grid": [_fold(df["grid"], np.int64, np.add)]}


def count_min_build(ds: rd.Dataset, col: str, width: int = 2048,
                    depth: int = 4) -> np.ndarray:
    """Count-min sketch of value frequencies (Cormode & Muthukrishnan
    2005): per-batch (depth, width) int64 grids, tree-merged, so the
    driver sums ≤ PREMERGE_BUCKETS grids. Point query = min over rows;
    estimate is NEVER below the true count and exceeds it by ≤ e·N/width
    with prob ≥ 1-e^-depth (guarantee-gated in tests). Returns the
    merged (depth, width) grid."""

    def sketch(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(_cms_grid(df[col], width, depth))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(_sum_grids(df))

    grid = np.frombuffer(_tree_merge(ds, col, sketch, merge, "grid")["grid"],
                         dtype=np.int64)
    return grid.reshape(depth, width).copy()  # writable for the caller


def count_min_query(grid: np.ndarray, values: pd.Series) -> np.ndarray:
    """Point-estimate each value's frequency: min over the depth rows."""
    depth, width = grid.shape
    cells = _cms_cells(values, width, depth)
    return np.min(np.stack([grid[d][cells[d]] for d in range(depth)]),
                  axis=0)


# ------------------------------------------- exact two-pass heavy hitters

def heavy_hitters_exact(ds: rd.Dataset, col: str, k: int = 20) -> pd.DataFrame:
    """EXACT heavy hitters (every value with frequency strictly greater
    than n/k, with its exact count) in two bounded passes — the classic
    sketch-then-verify upgrade of ``heavy_hitters``:

    1. ``heavy_hitters``' Misra-Gries candidate sweep (one ≤(k-1)-entry
       summary per batch crosses the wire; the MG guarantee says every
       true heavy hitter survives the tree merge), which also yields the
       exact total row count n from the same sketch rows;
    2. an exact count restricted to the ≤k-1 broadcast candidates — a
       per-batch combiner emits ≤k-1 partial rows per block, so the
       second pass is another sketch-sized exchange, never a full
       token-frequency shuffle.

    Unlike ``heavy_hitters`` the output is partition-layout independent
    and SQL-exact (GROUP BY HAVING cnt*k > n): the MG decrement order
    only affects which NON-hitters appear as candidates, and those are
    removed by the exact filter. Returns (col, cnt) sorted by
    (-cnt, col)."""
    merged, n_total = _mg_candidates(ds, col, k)  # pass 1
    cand = set(merged)
    if not cand:
        return pd.DataFrame({col: pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype=np.int64)})

    # pass 2: exact counts of the candidates only (broadcast set — ≤k-1
    # entries, held by the map's closure)
    def count_cands(df: pd.DataFrame) -> pd.DataFrame:
        # candidates are STRINGIFIED (MG summaries are JSON keys), so
        # membership compares on the stringified column — a non-string
        # col (int ids) would otherwise silently match nothing
        sub = df[df[col].astype(str).isin(cand)]
        g = sub.groupby(col, sort=False).size()
        return pd.DataFrame({col: g.index.to_numpy(),
                             "cnt": g.to_numpy(dtype=np.int64)})

    exact = partial_aggregate(
        ds.map_batches(count_cands, batch_format="pandas"),
        [col], {"cnt": ("sum", "cnt")}).to_pandas()
    out = exact[exact["cnt"].to_numpy(dtype=np.int64) * k > n_total]
    return (out.astype({"cnt": np.int64})
            .sort_values(["cnt", col], ascending=[False, True],
                         ignore_index=True))


# ------------------------------------------- SQL-parity HLL registers

HLL_MD5_TAIL_BITS = 64  # first 16 md5 hex chars = big-endian 64-bit hash


def _md5_hll_parts(values, p: int) -> tuple:
    """(idx, rho) arrays for the md5-variant HLL: h = first 8 md5 bytes
    of str(v) (big-endian — identical to SQL's
    CAST('0x'||substr(md5(v),1,16) AS UBIGINT)); idx = top p bits,
    rho = 1 + leading zeros of the remaining (64-p) bits (tail=0 → 65-p).
    Exact integer math: tails < 2^52 are exactly representable, and
    np.frexp's exponent IS the bit length (no log2 rounding risk)."""
    import hashlib

    h = np.fromiter(
        (int.from_bytes(hashlib.md5(str(v).encode("utf-8")).digest()[:8],
                        "big") for v in values),
        dtype=np.uint64, count=len(values))
    idx = (h >> np.uint64(64 - p)).astype(np.int32)
    tail = h & np.uint64((1 << (64 - p)) - 1)
    # bit length via frexp on exact float64 (tail < 2^52 when p >= 12)
    assert p >= 12, "tail must stay under 2^52 for exact float64 bit length"
    _, exp = np.frexp(tail.astype(np.float64))
    rho = np.where(tail == 0, 64 - p + 1, 64 - p + 1 - exp).astype(np.int32)
    return idx, rho


def hll_register_table(ds: rd.Dataset, col: str, p: int = 12) -> pd.DataFrame:
    """The HLL register table itself, made driver-visible and SQL-exact:
    same distributed shape and merge as ``approx_distinct`` (one m-byte
    register row per batch, tree-merged) but with an md5-derived hash so
    DuckDB can recompute every register bit-for-bit
    (queries.ORACLE_SQL['hll_user_registers']) — the value check the
    estimate-only query can't have. Returns all 2^p rows (idx,
    register), zeros included."""

    def sketch(df: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(1 << p, dtype=np.uint8)
        if len(df):
            idx, rho = _md5_hll_parts(df[col].astype(str).to_numpy(), p)
            np.maximum.at(regs, idx, rho.astype(np.uint8))
        return pd.DataFrame({"registers": [regs.tobytes()]})

    regs = np.frombuffer(
        _tree_merge(ds, col, sketch, _max_registers, "registers")["registers"],
        dtype=np.uint8)
    return pd.DataFrame({"idx": np.arange(1 << p, dtype=np.int32),
                         "register": regs.astype(np.int32)})
