"""relops (joins / partial aggregation) vs pandas oracles, and the
scalar function library."""

import pandas as pd
import pytest
import ray.data as rd

from westa_ocr_ray import relops
from westa_ocr_ray.functions import (build_masters_csv, csv_quote,
                                     extract_drive_id, mask_token, preview,
                                     regex_extract_first, substitute_template)


def test_partial_aggregate_matches_pandas():
    # a null key is one more group, as in SQL GROUP BY; the empty key is
    # one group, an aggregate without GROUP BY
    import numpy as np
    df = pd.DataFrame({"k": ["a", "b", "a", "c", "b", "a", None, None],
                       "v": [1, 2, 3, 4, 5, 6, 7, 8],
                       "f": [0.5, None, 2.0, None, 1.5, 3.0, None, 4.0]})
    for keys in (["k"], []):
        got = (relops.partial_aggregate(
                   rd.from_pandas(df).repartition(3), keys,
                   {"s": ("sum", "v"), "n": ("count", None),
                    "mn": ("min", "v"), "mx": ("max", "v"),
                    "fs": ("sum", "f"), "fmn": ("min", "f")})
               .to_pandas().sort_values(keys, ignore_index=True))
        exp = (df.groupby(keys or np.zeros(len(df), int), dropna=False)
                 .agg(s=("v", "sum"), n=("v", "size"), mn=("v", "min"),
                      mx=("v", "max"), fs=("f", "sum"), fmn=("f", "min"))
                 .reset_index(drop=not keys)
                 .sort_values(keys, ignore_index=True))
        cols = keys + ["s", "n", "mn", "mx", "fs", "fmn"]
        pd.testing.assert_frame_equal(got[cols], exp[cols], check_dtype=False)


def test_hash_join_matches_pandas_merge():
    import numpy as np

    small = (pd.DataFrame({"id": [1, 2, 3, 4], "x": list("abcd")}),
             pd.DataFrame({"rid": [2, 3, 3, 5], "y": [20, 30, 31, 50]}))
    # a hot key: 120 left rows share key 7, split over three blocks
    hot = (pd.DataFrame({"id": [7] * 120 + list(range(30)),
                         "x": [f"x{i}" for i in range(150)]}),
           pd.DataFrame({"rid": [7, 7, 7, 4, 29], "y": [70, 71, 72, 40, 290]}))
    for (left, right), parts in ((small, 1), (hot, 3)):
        got = (relops.hash_join(rd.from_pandas(left).repartition(parts),
                                rd.from_pandas(right), "id", "rid")
               .to_pandas().sort_values(["id", "x", "y"], ignore_index=True))
        exp = (left.merge(right.rename(columns={"rid": "id"}), on="id")
                   .sort_values(["id", "x", "y"], ignore_index=True))
        assert len(got) == len(exp) == {1: 3, 3: 365}[parts]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_hash_join_string_keys():
    left = pd.DataFrame({"tok": ["apple", "pear", "plum", "fig"],
                         "x": [1, 2, 3, 4]})
    right = pd.DataFrame({"t": ["pear", "fig", "fig", "kiwi"],
                          "y": [20, 40, 41, 90]})
    got = (relops.hash_join(rd.from_pandas(left), rd.from_pandas(right),
                            "tok", "t")
           .to_pandas().sort_values(["tok", "y"], ignore_index=True))
    exp = (left.merge(right.rename(columns={"t": "tok"}), on="tok")
               .sort_values(["tok", "y"], ignore_index=True))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_hash_join_left_keeps_unmatched():
    left = pd.DataFrame({"id": [1, 2], "x": ["a", "b"]})
    right = pd.DataFrame({"rid": [2], "y": [9]})
    got = (relops.hash_join(rd.from_pandas(left), rd.from_pandas(right),
                            "id", "rid", how="left")
           .to_pandas().sort_values("id", ignore_index=True))
    assert len(got) == 2
    assert pd.isna(got.loc[got["id"] == 1, "y"]).all()


def test_broadcast_join_and_semi_anti():
    big = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]}))
    keys = rd.from_pandas(pd.DataFrame({"k": [1, 3]}))
    semi = relops.semi_anti_filter_scalable(big, "k", keys).to_pandas()
    assert sorted(semi["k"]) == [1, 3]
    anti = relops.semi_anti_filter_scalable(big, "k", keys,
                                            anti=True).to_pandas()
    assert sorted(anti["k"]) == [2, 4]


#: SQL for each join shape; ``l(k, v)`` and ``r(k, w)``
_NULL_JOIN_SQL = {
    "inner": "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k",
    "left": "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k",
    "semi": "SELECT v FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
    "anti": ("SELECT v FROM l WHERE NOT EXISTS "
             "(SELECT 1 FROM r WHERE r.k = l.k)"),
}


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_join_null_keys_match_nothing_as_in_duckdb(how):
    # a null key equals nothing, itself included: JOIN drops it, LEFT
    # JOIN keeps its left row unmatched, EXISTS is false and NOT EXISTS
    # true for it (anti is NOT EXISTS, not NOT IN)
    import duckdb
    import pyarrow as pa

    sides = [([1, None, 3, 4], [None, 3]),   # a null on each side
             ([1, 2, 3, 4], [None, 3]),      # right only
             ([1, None, 3, 4], [2, 3])]      # left only
    for lk, rk in sides:
        l = pd.DataFrame({"k": pd.array(lk, dtype="Int64"),
                          "v": [10, 20, 30, 40]})
        r = pd.DataFrame({"k": pd.array(rk, dtype="Int64"), "w": [7, 8]})
        con = duckdb.connect()
        con.register("l", l)
        con.register("r", r)
        exp = sorted(con.execute(_NULL_JOIN_SQL[how]).fetchall())
        # Int64 pandas blocks, Arrow blocks, and numpy pandas blocks, in
        # which a column holding a null is float64 (3.0 must match 3)
        for make in (rd.from_pandas,
                     lambda df: rd.from_arrow(
                         pa.Table.from_pandas(df, preserve_index=False)),
                     lambda df: rd.from_pandas(df.assign(k=pd.Series(
                         [None if pd.isna(x) else int(x) for x in df["k"]])))):
            left, right = make(l), make(r)
            if how in ("semi", "anti"):
                got = relops.semi_anti_filter_scalable(
                    left, "k", right, anti=how == "anti").to_pandas()
                got = sorted((int(v),) for v in got["v"])
            else:
                got = relops.hash_join(left, right, "k", "k", how=how).to_pandas()
                got = sorted((int(v), None if pd.isna(w) else int(w))
                             for v, w in zip(got["v"], got["w"]))
            assert got == exp, (lk, rk, make)


# ----------------------------- scalar functions (SURVEY.md §2.8) -------

def test_regex_extract_first():
    assert regex_extract_first("abc 123", r"(\d+)") == "123"
    assert regex_extract_first("abc", r"(\d+)") == ""
    assert regex_extract_first("  x  ", r"x") == "x"


def test_extract_drive_id():
    url = "https://example.com/file/d/ABCDEFGHIJKLMNOPQRSTUVWXY12/view"
    assert extract_drive_id(url) == "ABCDEFGHIJKLMNOPQRSTUVWXY12"
    with pytest.raises(ValueError):
        extract_drive_id("https://example.com/short")


def test_mask_token():
    assert mask_token(None) == ""
    assert mask_token("short") == "*****"
    assert mask_token("abcdefghijklmnop") == "abcd…mnop"


def test_preview_and_template():
    assert preview("a\nb\nc", limit=3) == "a b"
    assert substitute_template("day={current_date}!", {"current_date": "2026-08-17"}) \
        == "day=2026-08-17!"


def test_csv_quote_and_masters_csv():
    assert csv_quote("plain") == "plain"
    assert csv_quote('a,"b"') == '"a,""b"""'
    rows = [{"key": "k1", "pattern": "A", "value": "v,1"},
            {"key": "k2", "pattern": "B", "value": "v2"}]
    csv = build_masters_csv(rows, "A")
    assert csv == 'key,value\nk1,"v,1"'


def test_global_value_rank_exact_and_layout_independent():
    """global_value_rank == row_number() OVER (ORDER BY v DESC, id) on
    any block layout, including heavy ties and a degenerate all-equal
    column (everything lands in one bin — unbalanced but correct)."""
    import numpy as np

    rng = np.random.RandomState(3)
    vals = rng.randint(0, 40, size=1000)  # heavy ties
    df = pd.DataFrame({"id": np.arange(1000, dtype=np.int64),
                       "v": vals.astype(np.int64)})
    exp = df.sort_values(["v", "id"], ascending=[False, True],
                         ignore_index=True)
    exp["rank"] = np.arange(1, len(exp) + 1, dtype=np.int64)

    for parts in (1, 7):
        got = (relops.global_value_rank(
            rd.from_pandas(df).repartition(parts), "v", "id",
            num_bins=16)
            .to_pandas().sort_values("rank", ignore_index=True))
        pd.testing.assert_frame_equal(
            got[["id", "v", "rank"]], exp[["id", "v", "rank"]],
            check_dtype=False)

    # ascending + degenerate single-value column
    one = pd.DataFrame({"id": np.arange(50, dtype=np.int64),
                        "v": np.full(50, 9, dtype=np.int64)})
    got = (relops.global_value_rank(rd.from_pandas(one).repartition(4),
                                    "v", "id", descending=False)
           .to_pandas().sort_values("rank", ignore_index=True))
    assert list(got["id"]) == list(range(50))
    assert list(got["rank"]) == list(range(1, 51))


def test_hash_join_bucket_fn_fusion():
    # bucket_fn aggregates inside the join task; result must equal the
    # unfused join + groupby
    left = pd.DataFrame({"id": [1, 1, 2, 2, 3], "v": [1, 2, 3, 4, 5]})
    right = pd.DataFrame({"rid": [1, 2, 3], "w": [10, 20, 30]})

    def agg(df):
        df = df.assign(p=df["v"] * df["w"])
        return df.groupby("id", as_index=False).agg(p=("p", "sum"))

    got = (relops.hash_join(rd.from_pandas(left), rd.from_pandas(right),
                            "id", "rid", bucket_fn=agg)
           .to_pandas().sort_values("id", ignore_index=True))
    exp = agg(left.merge(right.rename(columns={"rid": "id"}), on="id")) \
        .sort_values("id", ignore_index=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_semi_anti_filter_scalable_matches_broadcast():
    import numpy as np

    df = pd.DataFrame({"k": list(range(200)), "v": np.arange(200) * 10})
    big = rd.from_pandas(df)
    keys = rd.from_pandas(pd.DataFrame(
        {"kk": [3, 7, 7, 42, 99, 150]}))  # dup key: must not multiply rows
    hit = df["k"].isin([3, 7, 42, 99, 150])

    for anti in (False, True):
        exp = df[~hit if anti else hit].reset_index(drop=True)
        got = (relops.semi_anti_filter_scalable(big, "k", keys,
                                                key_col="kk", anti=anti)
               .to_pandas().sort_values("k", ignore_index=True))
        pd.testing.assert_frame_equal(got[["k", "v"]].astype("int64"),
                                      exp[["k", "v"]].astype("int64"))


def test_grouped_topk_matches_pandas():
    # the empty group key is one group: a global ORDER BY ... LIMIT k
    import numpy as np
    from westa_ocr_ray.relops import grouped_topk
    rng = np.random.RandomState(3)
    df = pd.DataFrame({"g": rng.randint(0, 5, 400),      # skewed small groups
                       "v": rng.randint(0, 50, 400),
                       "uid": np.arange(400)})
    df.loc[df.index[:200], "g"] = 0                      # hot group
    df.loc[df.index[-30:], "g"] = None                   # null group
    for group, k in ((["g"], 3), ([], 7)):
        out = (grouped_topk(rd.from_pandas(df).repartition(6), group,
                            ["v", "uid"], k=k, ascending=[False, True])
               .to_pandas().sort_values(group + ["rk"], ignore_index=True))
        order = group + ["v", "uid"]
        asc = [True] * len(group) + [False, True]
        exp = (df.sort_values(order, ascending=asc)
                 .groupby(group or np.zeros(len(df), int), dropna=False)
                 .head(k)
                 .sort_values(order, ascending=asc, ignore_index=True))
        exp["rk"] = exp.groupby(group or np.zeros(len(exp), int),
                                dropna=False).cumcount() + 1
        assert exp["g"].isna().sum() == (3 if group else 0)
        pd.testing.assert_frame_equal(out[["g", "v", "uid", "rk"]],
                                      exp[["g", "v", "uid", "rk"]],
                                      check_dtype=False)


def test_grouped_topk_k_exceeds_group_size():
    from westa_ocr_ray.relops import grouped_topk
    df = pd.DataFrame({"g": ["a", "a", "b"], "v": [1, 2, 9],
                       "uid": [1, 2, 3]})
    out = grouped_topk(rd.from_pandas(df), ["g"], ["v", "uid"], k=5,
                       ascending=[False, True]).to_pandas()
    assert len(out) == 3 and set(out["rk"]) <= {1, 2}


def test_compact_blocks_collapses_fragmentation():
    from westa_ocr_ray.relops import compact_blocks
    frag = rd.from_pandas(pd.DataFrame({"x": range(500)})).repartition(200)
    frag = frag.materialize()
    assert frag.num_blocks() == 200
    out = compact_blocks(frag)
    assert out.num_blocks() < 200
    assert sorted(r["x"] for r in out.take_all()) == list(range(500))


def test_exact_order_statistic_matches_sort():
    import numpy as np
    rng = np.random.default_rng(3)
    vals = rng.integers(-500, 5000, size=4000)
    ds = rd.from_pandas(pd.DataFrame({"v": vals}))
    s = np.sort(vals)
    for k in (1, 7, 2000, 3999, 4000):
        assert relops.exact_order_statistic(ds, "v", k, bin_width=64) == s[k - 1]
    with pytest.raises(ValueError):
        relops.exact_order_statistic(ds, "v", 0)
    with pytest.raises(ValueError):
        relops.exact_order_statistic(ds, "v", 4001)


def test_pagerank_int_matches_serial_iteration():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray import graph

    # two triangles bridged by one edge (undirected, pass each once)
    pairs = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
    edges = pd.DataFrame(pairs, columns=["src", "dst"])
    got = (graph.pagerank_int(rd.from_pandas(edges), n_iter=3)
           .to_pandas().sort_values("node", ignore_index=True))

    # independent serial integer iteration
    adj: dict = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    rank = {v: 1000 for v in adj}
    for _ in range(3):
        s = {v: 0 for v in adj}
        for u, nbrs in adj.items():
            c = rank[u] // len(nbrs)
            for v in nbrs:
                s[v] += c
        rank = {v: 150 + (85 * sv) // 100 for v, sv in s.items()}
    exp = pd.DataFrame(sorted(rank.items()), columns=["node", "rank_mu"])
    assert list(got["node"]) == list(exp["node"])
    assert list(got["rank_mu"]) == list(exp["rank_mu"])
    # bridge endpoints (3, 4) carry the most rank
    top2 = set(got.nlargest(2, "rank_mu")["node"])
    assert top2 == {3, 4}


def test_grouped_quantile_thresholds_match_sort():
    """Grouped two-pass order statistic == per-group sorted-rank value,
    for several quantiles, bin widths and block layouts."""
    import numpy as np

    from westa_ocr_ray.relops import (grouped_percentile_filter,
                                      grouped_quantile_thresholds)

    rng = np.random.RandomState(11)
    df = pd.DataFrame({
        "lang": rng.choice(["en", "fr", "de"], size=2000,
                           p=[0.7, 0.2, 0.1]),  # skewed group sizes
        "v": rng.randint(0, 5000, size=2000).astype(np.int64),
    })

    for q_num, q_den in ((1, 4), (1, 2), (9, 10)):
        for bw in (1, 64, 1000):
            ds = rd.from_pandas(df).repartition(7)
            thr = grouped_quantile_thresholds(ds, "lang", "v", q_num,
                                              q_den, bin_width=bw)
            for g, sub in df.groupby("lang"):
                k = (len(sub) * q_num + q_den - 1) // q_den
                exp = int(np.sort(sub["v"].to_numpy())[k - 1])
                assert thr[g] == exp, (q_num, q_den, bw, g)

    kept = (grouped_percentile_filter(rd.from_pandas(df).repartition(5),
                                      "lang", "v", 1, 4).to_pandas())
    for g, sub in df.groupby("lang"):
        k = (len(sub) + 3) // 4
        t = int(np.sort(sub["v"].to_numpy())[k - 1])
        exp_ids = set(sub[sub["v"] >= t].index)
        assert len(kept[kept["lang"] == g]) == len(exp_ids)


def test_events_late_flags_invariants():
    """In-order users carry all zeros; a planted out-of-order arrival
    gets the exact disorder distance and the watermark flag."""
    base = 1_700_000_000_000_000  # µs epoch
    rows = [
        # user 1: strictly in order
        {"event_id": 1, "user_id": 1, "ts": base + 0},
        {"event_id": 2, "user_id": 1, "ts": base + 10**6},
        # user 2: event 12 arrives 3 minutes behind the frontier
        {"event_id": 11, "user_id": 2, "ts": base + 300 * 10**6},
        {"event_id": 12, "user_id": 2, "ts": base + 120 * 10**6},
        # user 2: event 13 only 1s behind -> disordered but NOT late
        {"event_id": 13, "user_id": 2, "ts": base + 299 * 10**6},
    ]
    df = pd.DataFrame(rows)
    # the events table schema is timestamp[us] (TESTDATA.md); the
    # ordered-log ops derive integer MICROseconds from it
    df["ts"] = pd.to_datetime(df["ts"], unit="us").astype("datetime64[us]")

    import westa_ocr_ray.queries as q
    # drive through the real query against a temp parquet dir
    import tempfile, os
    with tempfile.TemporaryDirectory() as td:
        df.to_parquet(os.path.join(td, "events.parquet"))
        got = (q.events_late_flags(td).to_pandas()
               .set_index("event_id").sort_index())
    assert list(got.loc[[1, 2], "disorder_us"]) == [0, 0]
    assert int(got.loc[12, "disorder_us"]) == 180 * 10**6
    assert int(got.loc[12, "is_late"]) == 1
    assert int(got.loc[13, "disorder_us"]) == 1 * 10**6
    assert int(got.loc[13, "is_late"]) == 0


def test_ntile_from_rank_matches_duckdb():
    """relops.ntile_from_rank reproduces ANSI NTILE for ragged n
    (n % tiles != 0), tiny n < tiles, and the uniform case."""
    import duckdb
    import numpy as np

    for n, tiles in ((13, 5), (500, 10), (3, 7), (1, 4), (29, 4)):
        ranks = np.arange(1, n + 1, dtype=np.int64)
        exp = duckdb.sql(
            f"SELECT ntile({tiles}) OVER (ORDER BY r) AS t "
            f"FROM range(1, {n + 1}) AS x(r) ORDER BY r"
        ).df()["t"].to_numpy()
        got = relops.ntile_from_rank(ranks, n, tiles)
        assert np.array_equal(got, exp), (n, tiles)


def test_grouped_kth_from_top_matches_rank_semantics(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray import relops

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], size=300),
        "v": rng.integers(0, 40, size=300).astype("int64"),  # many ties
    })
    # a tiny group with fewer rows than k
    df = pd.concat([df, pd.DataFrame({"g": ["tiny"] * 2,
                                      "v": [7, 9]})], ignore_index=True)
    k = 10
    thr = relops.grouped_kth_from_top(
        rd.from_pandas(df).repartition(7), "g", "v", k)
    got = df[df["v"] >= df["g"].map(thr)]
    df2 = df.copy()
    df2["rk"] = df2.groupby("g")["v"].rank(method="min", ascending=False)
    want = df2[df2["rk"] <= k]
    assert sorted(map(tuple, got[["g", "v"]].to_numpy())) == \
        sorted(map(tuple, want[["g", "v"]].to_numpy()))
    assert thr["tiny"] == 7  # < k rows -> group minimum (keep all)


def test_exact_median_matches_order_statistic(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray import relops

    rng = np.random.default_rng(9)
    for size in (1, 2, 7, 500):
        v = rng.integers(-1000, 1000, size=size).astype("int64")
        ds = rd.from_pandas(pd.DataFrame({"v": v})).repartition(3)
        med, n = relops.exact_median(ds, "v")
        assert n == size
        assert med == int(np.sort(v)[(size + 1) // 2 - 1])
    import pytest as _pt
    with _pt.raises(ValueError):
        relops.exact_median(
            rd.from_pandas(pd.DataFrame({"v": pd.Series([], dtype="int64")})),
            "v")


def test_skyline_block_matches_bruteforce():
    import numpy as np
    import pandas as pd

    from westa_ocr_ray.queries import _skyline_block

    rng = np.random.default_rng(31)
    for trial in range(50):
        n = int(rng.integers(1, 60))
        df = pd.DataFrame({
            "doc_id": np.arange(n),
            "nt": rng.integers(0, 12, size=n).astype("int64"),
            "nd": rng.integers(0, 12, size=n).astype("int64")})
        got = set(map(tuple,
                      _skyline_block(df)[["doc_id", "nt", "nd"]]
                      .to_numpy()))
        want = set()
        pts = df.to_numpy()
        for i in range(n):
            dominated = any(
                pts[j][1] >= pts[i][1] and pts[j][2] >= pts[i][2]
                and (pts[j][1] > pts[i][1] or pts[j][2] > pts[i][2])
                for j in range(n))
            if not dominated:
                want.add(tuple(pts[i]))
        assert got == want, trial


def test_skyline_merge_layout_independent(ray_session):
    """skyline(A ∪ B) == skyline(skyline(A) ∪ skyline(B)) — the
    distributed merge relies on this; check the engine's local-then-
    merge step is block-layout independent and equals the one-frame
    frontier."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray.queries import _skyline_block, skyline

    rng = np.random.default_rng(33)
    df = pd.DataFrame({
        "doc_id": np.arange(200),
        "nt": rng.integers(0, 30, size=200).astype("int64"),
        "nd": rng.integers(0, 30, size=200).astype("int64")})

    def points(frame):
        return set(map(tuple, frame[["doc_id", "nt", "nd"]].to_numpy()))

    def run(nblocks):
        return points(skyline(rd.from_pandas(df).repartition(nblocks))
                      .to_pandas())

    assert run(1) == run(7) == run(31) == points(_skyline_block(df))


# ------------------------- exchange (plain-task bucketed reduce) -------

def _sorted(df, cols):
    return df[cols].sort_values(cols, ignore_index=True)


def test_exchange_skips_schema_less_empty_blocks():
    import numpy as np
    import ray
    from ray.data.block import BlockAccessor

    df = pd.DataFrame({"k": np.arange(80) % 7, "v": np.arange(80)})
    # the filter empties whole blocks; a map stage over an empty block
    # emits Ray Data's column-less empty block
    ds = (rd.from_pandas(df).repartition(8)
          .filter(lambda r: not 10 <= r["v"] < 50)
          .map_batches(lambda d: d.assign(b=d["k"] % 4), batch_format="pandas")
          .materialize())
    blocks = [ray.get(r) for b in ds.iter_internal_ref_bundles()
              for r in b.block_refs]
    assert any("b" not in BlockAccessor.for_block(b).to_pandas().columns
               for b in blocks)
    got = relops.exchange(ds, "b", lambda g: g).to_pandas()
    kept = df[~df["v"].between(10, 49)].assign(b=lambda d: d["k"] % 4)
    pd.testing.assert_frame_equal(_sorted(got, ["k", "v", "b"]),
                                  _sorted(kept, ["k", "v", "b"]))

    agg = (relops.partial_aggregate(rd.from_pandas(df).repartition(8)
                                    .filter(lambda r: not 10 <= r["v"] < 50),
                                    ["k"], {"s": ("sum", "v")})
           .to_pandas())
    exp = kept.groupby("k", as_index=False).agg(s=("v", "sum"))
    pd.testing.assert_frame_equal(_sorted(agg, ["k", "s"]), exp,
                                  check_dtype=False)


KEY_COLUMNS = {
    "int_in_range": [3, 0, 1, 2, 3, 0, 1, 1] * 10,
    "int_negative_out_of_range": [-7, 9, 100, -1, 9, 2, -7, 4] * 10,
    "string": ["en", "de", "fr", "en", "ja", "de", "en", "zh"] * 10,
    "string_with_none": ["en", None, "fr", "en", None, "de", "en", "fr"] * 10,
    # blocks without a null arrive as int64, the others as float64
    "int_with_none": pd.array([3, 9, -2, 5] * 15 + [None, 3, 9, None] * 5,
                              dtype="Int64"),
}


@pytest.mark.parametrize("kind", sorted(KEY_COLUMNS))
def test_exchange_matches_groupby_map_groups(kind):
    """exchange(ds, key, per_key(key, fn)) is
    ds.groupby(key).map_groups(fn) for any single key column: fn runs
    once per distinct key, nulls included."""
    import numpy as np
    import pyarrow as pa

    df = pd.DataFrame({"k": KEY_COLUMNS[kind], "v": np.arange(80)})
    one_block = rd.from_arrow(pa.Table.from_pandas(df))
    src = one_block.repartition(5)

    def fn(g):
        return pd.DataFrame({"k": g["k"].iloc[:1], "n": [len(g)],
                             "s": [int(g["v"].sum())]})

    got = relops.exchange(src, "k", relops.per_key("k", fn)).to_pandas()
    # the reference runs on one Arrow block: Ray Data's sort cannot place
    # a None key between the sampled string boundaries of several blocks
    exp = (one_block.groupby("k").map_groups(fn, batch_format="pandas")
           .to_pandas())
    assert len(got) == df["k"].nunique(dropna=False)
    pd.testing.assert_frame_equal(_sorted(got, ["k", "n", "s"]),
                                  _sorted(exp, ["k", "n", "s"]))


def test_only_extract_dataset_calls_map_groups():
    """Every keyed reduce in the package runs on relops.exchange; the one
    Ray Data groupby/map_groups left is extract_dataset's pyarrow-format,
    RESULT_SCHEMA-typed reassembly."""
    import ast
    import pathlib

    import westa_ocr_ray

    root = pathlib.Path(westa_ocr_ray.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            sites += [(path.relative_to(root).as_posix(),
                       getattr(top, "name", "<module>"))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "map_groups"]
    assert sites == [("pipelines/extract.py", "extract_dataset")]


def test_no_constant_group_column():
    """A global aggregate or top-k passes the empty key ``[]``; no module
    builds a constant ``__g`` column to group on."""
    import pathlib

    import westa_ocr_ray

    pkg = pathlib.Path(westa_ocr_ray.__file__).parent
    hits = sorted(str(p.relative_to(pkg)) for p in pkg.rglob("*.py")
                  if "__g" in p.read_text())
    assert hits == []


def test_commit_protocol_only_in_storage():
    """storage owns the commit protocol of derived outputs: no other
    package module names the commit marker or the oracle-cache root in
    code, or keys a cache by a file's mtime."""
    import ast
    import pathlib

    import westa_ocr_ray

    root = pathlib.Path(westa_ocr_ray.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "storage.py" and path.parent == root:
            continue
        tree = ast.parse(path.read_text())
        docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                      if isinstance(n, (ast.Module, ast.ClassDef,
                                        ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                      and n.body and isinstance(n.body[0], ast.Expr)
                      and isinstance(n.body[0].value, ast.Constant)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and ("_SUCCESS" in node.value
                         or "westa_oracle_cache" in node.value)) or (
                    isinstance(node, ast.Attribute)
                    and node.attr == "st_mtime_ns"):
                sites.append(f"{path.relative_to(root)}:{node.lineno}")
    assert sites == []


def test_map_batches_stages_run_as_tasks():
    """Every map_batches stage in the package is a function or an
    instance built on the driver, so it runs as tasks on the warm
    task-worker pool: no class as the UDF (an actor pool, a fresh worker
    process per actor per run), no fn_constructor_kwargs, no (lo, hi)
    pool bounds. A stage that needs an actor must measure why, and the
    measurement belongs next to it and in this test."""
    import ast
    import pathlib

    import westa_ocr_ray

    root = pathlib.Path(westa_ocr_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            kw = {k.arg: k.value for k in node.keywords}
            if ((node.args and isinstance(node.args[0], ast.Name)
                 and node.args[0].id in classes)
                    or "fn_constructor_kwargs" in kw
                    or isinstance(kw.get("concurrency"), ast.Tuple)):
                bad.append(f"{path.relative_to(root)}:{node.lineno}")
    assert bad == []


def test_minhash_and_topk_create_no_actor():
    """MinHash LSH (directly and through the dedup_minhash_planted query)
    and brute-force top-k start no map actor: their stages are instances
    built on the driver and run as tasks."""
    from ray._private import state

    from westa_ocr_ray import dedup, similarity
    from westa_ocr_ray.queries import QUERIES, rp

    sf = "/root/testdata/sf0.001"
    before = set(state.actors())
    docs = rp(sf, "documents", ["doc_id", "text"])
    dedup.minhash_lsh_pairs(docs).materialize()
    QUERIES["dedup_minhash_planted"](sf).materialize()
    emb = rp(sf, "embeddings", ["vec_id", "embedding"])
    assert len(similarity.brute_force_topk(emb, [0, 1], k=3)) == 6
    new = [a["ActorClassName"] for aid, a in state.actors().items()
           if aid not in before]
    assert not [c for c in new if "MapWorker" in c], new


def test_exchange_all_empty_input_is_one_empty_block():
    # the empty key too: a global aggregate over no rows has no row
    df = pd.DataFrame({"k": [1, 2, 3, 4], "v": [1, 2, 3, 4]})
    empty = rd.from_pandas(df).repartition(4).filter(lambda r: r["k"] > 9)
    outs = [relops.hash_join(empty, rd.from_pandas(df), "k", "k",
                             left_cols=["k", "v"], right_cols=["k", "v"])]
    for key in (["k"], []):
        outs += [relops.partial_aggregate(empty, key, {"s": ("sum", "v"),
                                                       "n": ("count", None)}),
                 relops.grouped_topk(empty, key, ["v"], 2)]
    for out in outs:
        out = out.materialize()
        assert out.count() == 0
        assert out.num_blocks() <= 1


def test_exchange_single_bucket(monkeypatch):
    """On a one-CPU cluster the exchange opens one slot: each split task
    returns its block whole and one reduce task sees every key."""
    import numpy as np
    import ray

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1})
    rng = np.random.RandomState(5)
    df = pd.DataFrame({"k": rng.randint(0, 9, 300), "v": rng.randint(0, 99, 300),
                       "uid": np.arange(300)})
    src = rd.from_pandas(df).repartition(5)
    agg = relops.partial_aggregate(src, ["k"], {"s": ("sum", "v"),
                                                "n": ("count", None)})
    assert agg.num_blocks() == 1
    agg = agg.to_pandas()
    exp = df.groupby("k", as_index=False).agg(s=("v", "sum"), n=("v", "size"))
    pd.testing.assert_frame_equal(_sorted(agg, ["k", "s", "n"]), exp,
                                  check_dtype=False)

    top = relops.grouped_topk(src, ["k"], ["v", "uid"], 2,
                              ascending=[False, True]).to_pandas()
    exp_top = (df.sort_values(["k", "v", "uid"], ascending=[True, False, True])
                 .groupby("k").head(2))
    pd.testing.assert_frame_equal(_sorted(top, ["k", "v", "uid"]),
                                  _sorted(exp_top, ["k", "v", "uid"]))

    right = pd.DataFrame({"rk": [0, 3, 3, 8], "w": [1, 2, 3, 4]})
    j = relops.hash_join(src, rd.from_pandas(right), "k", "rk").to_pandas()
    exp_j = df.merge(right.rename(columns={"rk": "k"}), on="k")
    pd.testing.assert_frame_equal(_sorted(j, ["k", "uid", "w"]),
                                  _sorted(exp_j, ["k", "uid", "w"]),
                                  check_dtype=False)


def test_exchange_empty_key_starts_one_reduce_task(monkeypatch):
    """The empty key is one group, so a global aggregate or top-k opens
    one slot and starts one reduce task, however many CPUs the cluster
    has; a keyed reduce on the same cluster opens one per CPU."""
    import ray

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 4})
    real, calls = relops._exchange_reduce, []

    class Counting:
        def remote(self, *args):
            calls.append(1)
            return real.remote(*args)

    monkeypatch.setattr(relops, "_exchange_reduce", Counting())
    df = pd.DataFrame({"k": [1, 2, 3, 4, 5], "v": [5, 4, 3, 2, 1]})
    src = rd.from_pandas(df).repartition(3)
    got = relops.partial_aggregate(src, [], {"s": ("sum", "v"),
                                             "n": ("count", None)})
    assert calls == [1]
    assert got.to_pandas()[["s", "n"]].values.tolist() == [[15, 5]]
    calls.clear()
    top = relops.grouped_topk(src, [], ["v"], 2).to_pandas()
    assert calls == [1] and top["v"].tolist() == [5, 4]
    calls.clear()
    relops.partial_aggregate(src, ["k"], {"s": ("sum", "v")})
    assert len(calls) == 4


def _schema_less(df: pd.DataFrame, parts: int) -> rd.Dataset:
    """``df`` in ``parts`` blocks, every one of them Ray Data's
    column-less empty block (a map stage over a block filtered to
    nothing emits one)."""
    import ray
    from ray.data.block import BlockAccessor

    ds = (rd.from_pandas(df).repartition(parts)
          .filter(lambda r: False)
          .map_batches(lambda d: d, batch_format="pandas")
          .materialize())
    blocks = [ray.get(r) for b in ds.iter_internal_ref_bundles()
              for r in b.block_refs]
    assert blocks and all(BlockAccessor.for_block(b).to_pandas().columns.empty
                          for b in blocks)
    return ds


def test_exchange_two_inputs_matches_pandas_merge():
    """exchange((a, b), key, per_key(key, fn), pre=(ta, tb)) calls
    fn(a_rows, b_rows) once per key present in either input, each input
    with its own columns, and an empty frame for the input that lacks
    the key (a column-less one when none of that input's blocks held a
    row)."""
    import numpy as np

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5, 8, 8], "x": np.arange(7)})
    right = pd.DataFrame({"rk": [2, 3, 3, 4, 6, 8], "y": list("abcdef")})

    def pair(lhs, rhs):  # runs in the reduce task: one key per call
        assert len(set(lhs["k"]) | set(rhs.get("k", ()))) == 1
        return lhs.merge(rhs.reindex(columns=["k", "y"]), on="k", how="outer")

    def exp_of(r):
        return left.merge(r, on="k", how="outer")

    def sort(df):
        return _sorted(df.astype({"k": "int64", "x": "float64"}),
                       ["k", "x", "y"])

    lhs = rd.from_pandas(left).repartition(3)
    rhs = rd.from_pandas(right).repartition(2)
    rename = lambda d: d.rename(columns={"rk": "k"})  # noqa: E731
    got = relops.exchange((lhs, rhs), "k", relops.per_key("k", pair),
                          pre=(None, rename)).to_pandas()
    exp = exp_of(right.rename(columns={"rk": "k"}))
    # 1 and 5 are left only, 4 and 6 right only
    assert len(got) == len(exp) == 10
    pd.testing.assert_frame_equal(sort(got), sort(exp), check_dtype=False)

    got = relops.exchange((lhs, _schema_less(right, 2)), "k",
                          relops.per_key("k", pair),
                          pre=(None, rename)).to_pandas()
    exp = exp_of(pd.DataFrame({"k": pd.Series([], dtype="int64"),
                               "y": pd.Series([], dtype=object)}))
    pd.testing.assert_frame_equal(sort(got), sort(exp), check_dtype=False)


@pytest.mark.parametrize("materialized", [False, True])
def test_exchange_pre_matches_map_batches_stage(materialized):
    """pre=f runs f on each block inside the split task and gives what a
    map_batches(f) stage in front of the exchange gives, on a lazy input
    and on a materialized one (f filters three of the six blocks to
    nothing)."""
    import numpy as np

    df = pd.DataFrame({"k": np.arange(200) % 13, "v": np.arange(200)})
    src = rd.from_pandas(df).repartition(6)
    src = (src.materialize() if materialized
           else src.map_batches(lambda d: d, batch_format="pandas"))

    def pre(d):
        d = d[~d["v"].between(30, 140)]
        return d.assign(b=d["k"] % 5)

    def fn(g):
        return pd.DataFrame({"b": g["b"].iloc[:1], "n": [len(g)],
                             "s": [int(g["v"].sum())]})

    fn = relops.per_key("b", fn)
    got = relops.exchange(src, "b", fn, pre=pre).to_pandas()
    exp = relops.exchange(src.map_batches(pre, batch_format="pandas"),
                          "b", fn).to_pandas()
    assert len(got) == 5
    pd.testing.assert_frame_equal(_sorted(got, ["b", "n", "s"]),
                                  _sorted(exp, ["b", "n", "s"]))


def test_each_keyed_primitive_is_one_exchange_call():
    """No package exchange call feeds it a map_batches or union stage:
    a per-block step is the exchange's ``pre``, and a join's sides are
    separate inputs. No call passes a bucket count either: the exchange
    sizes its own slots, so a call is (ds, key, fn) plus ``pre``."""
    import ast
    import pathlib

    import westa_ocr_ray

    root = pathlib.Path(westa_ocr_ray.__file__).parent
    calls, bad = 0, []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if not (isinstance(node, ast.Call) and node.args and "exchange"
                    == getattr(func, "id", getattr(func, "attr", None))):
                continue
            calls += 1
            if len(node.args) > 3 or any(k.arg != "pre" for k in node.keywords):
                bad.append(f"{path.relative_to(root)}:{node.lineno}")
            first = node.args[0]
            for arg in first.elts if isinstance(first, ast.Tuple) else [first]:
                if (isinstance(arg, ast.Call)
                        and isinstance(arg.func, ast.Attribute)
                        and arg.func.attr in ("map_batches", "union")):
                    bad.append(f"{path.relative_to(root)}:{node.lineno}")
    assert calls >= 25 and bad == []


def test_exchange_emits_no_block_for_empty_slots():
    import numpy as np

    df = pd.DataFrame({"v": np.arange(50), "b": 2})  # one key, one slot
    out = relops.exchange(rd.from_pandas(df).repartition(5), "b",
                          lambda g: g)
    assert out.num_blocks() == 1
    pd.testing.assert_frame_equal(_sorted(out.to_pandas(), ["v", "b"]), df)


def _call_tagger():
    """An exchange fn that tags each row of its call with one call id
    and each row's input index (nested, so Ray pickles it by value)."""
    def calls(*frames):
        import uuid

        cid = uuid.uuid4().hex
        return pd.concat([f.assign(call=cid, side=j)
                          for j, f in enumerate(frames) if len(f)],
                         ignore_index=True)
    return calls


def test_exchange_fn_call_holds_whole_keys():
    """fn runs once per slot with several keys, and every row of a key
    is in that one call, whichever of the nine blocks it came from."""
    import numpy as np

    df = pd.DataFrame({"k": np.arange(900) % 37, "v": np.arange(900)})
    out = relops.exchange(rd.from_pandas(df).repartition(9), "k",
                          _call_tagger()).to_pandas()
    assert 1 < out["call"].nunique() < df["k"].nunique()
    assert (out.groupby("k")["call"].nunique() == 1).all()
    pd.testing.assert_frame_equal(_sorted(out, ["k", "v"]),
                                  _sorted(df, ["k", "v"]))


def _key_blocks():
    """(s, i) rows in six Arrow blocks; only the last holds a null i, so
    i reaches the exchange as int64 from five blocks and as float64
    from the sixth, which also holds keys the others hold."""
    import numpy as np
    import pyarrow as pa

    n = 120
    i = [None if 100 <= r < 110 else r % 4 for r in range(n)]
    t = pa.table({"s": np.array(["en", "de", "fr"])[np.arange(n) % 3],
                  "i": pa.array(i, type=pa.int64()), "v": np.arange(n)})
    return rd.from_arrow(t).repartition(6), n


def test_exchange_two_column_key_meets_across_int_and_float_blocks():
    from ray.data.block import BlockAccessor
    import ray

    ds, n = _key_blocks()
    kinds = {BlockAccessor.for_block(ray.get(r)).to_pandas()["i"].dtype.kind
             for b in ds.iter_internal_ref_bundles() for r in b.block_refs}
    assert kinds == {"i", "f"}
    out = relops.exchange(ds, ["s", "i"], _call_tagger()).to_pandas()
    assert len(out) == n and out["i"].isna().sum() == 10
    assert (out.groupby(["s", "i"], dropna=False)["call"].nunique() == 1).all()

    # the same key split over two inputs: int64 rows on one side, the
    # float64 block on the other
    rows = ds.to_pandas()
    lhs = rd.from_pandas(rows[rows["v"] < 100].astype({"i": "int64"}))
    rhs = rd.from_pandas(rows[rows["v"] >= 100].astype({"i": "float64"}))
    out = relops.exchange((lhs, rhs), ["s", "i"], _call_tagger()).to_pandas()
    assert len(out) == n and set(out["side"]) == {0, 1}
    assert (out.groupby(["s", "i"], dropna=False)["call"].nunique() == 1).all()
    assert out.loc[out["side"] == 1, "i"].notna().sum() == 10


def test_exchange_data_axis_opens_more_slots_than_cpus(monkeypatch):
    import numpy as np
    import ray

    df = pd.DataFrame({"v": np.arange(320), "b": np.arange(320) % 16})
    src = rd.from_pandas(df).repartition(4).materialize()
    cpus = int(ray.cluster_resources()["CPU"])
    base = relops.exchange(src, "b", lambda g: g)
    # a slot per twelfth of the input's bytes: 12 or 13 slots, each
    # holding one key or more of the 16
    monkeypatch.setattr(relops, "TARGET_BUCKET_BYTES", src.size_bytes() // 12)
    small = relops.exchange(src, "b", lambda g: g)
    assert cpus < small.num_blocks() <= 13
    assert base.num_blocks() <= cpus
    pd.testing.assert_frame_equal(_sorted(small.to_pandas(), ["v", "b"]),
                                  _sorted(base.to_pandas(), ["v", "b"]))
    agg = relops.partial_aggregate(src, ["b"], {"s": ("sum", "v")}).to_pandas()
    exp = df.groupby("b", as_index=False).agg(s=("v", "sum"))
    pd.testing.assert_frame_equal(_sorted(agg, ["b", "s"]), exp,
                                  check_dtype=False)


def test_hash_join_runs_no_sort_operator():
    left = pd.DataFrame({"id": [1, 2, 3, 4], "x": list("abcd")})
    right = pd.DataFrame({"rid": [2, 3, 3, 5], "y": [20, 30, 31, 50]})
    stats = relops.hash_join(rd.from_pandas(left), rd.from_pandas(right),
                             "id", "rid").materialize().stats()
    assert "Sort" not in stats


def test_exchange_interrupted_by_signal_cancels_reduce_tasks():
    import signal
    import time

    import numpy as np
    import ray

    class Alarm(Exception):
        pass

    def on_alarm(signum, frame):
        raise Alarm()

    def slow(g):
        time.sleep(30)
        return g

    ds = rd.from_pandas(pd.DataFrame({"b": np.arange(8) % 4})).materialize()
    prev = signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(Alarm):
            relops.exchange(ds, "b", slow)
        assert time.monotonic() - t0 < 5
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, prev)
    deadline = time.monotonic() + 10
    while (ray.available_resources().get("CPU", 0) < 4
           and time.monotonic() < deadline):
        time.sleep(0.1)
    assert ray.available_resources().get("CPU", 0) == 4


def test_exchange_error_in_every_slot_is_raised_once(monkeypatch):
    """``fn`` raising in every slot: the exchange raises that error, and
    no failed slot's output is left for Ray to report as one more
    "Unhandled error"."""
    import gc
    import time

    import numpy as np
    import ray._private.worker as ray_worker

    def fails(g):
        raise ValueError("fn fails in its slot")

    unhandled = []
    monkeypatch.setattr(ray_worker, "_unhandled_error_handler",
                        unhandled.append)
    ds = rd.from_pandas(pd.DataFrame({"b": np.arange(40) % 8})).repartition(4)
    with pytest.raises(ValueError, match="fn fails in its slot"):
        relops.exchange(ds, "b", fails)
    gc.collect()  # Ray reports an unread error when its ref is freed
    deadline = time.monotonic() + 1
    while not unhandled and time.monotonic() < deadline:
        time.sleep(0.05)
    assert unhandled == []


# ---------------- no step sees an empty frame (the relops contract) ----

def _strict():
    """A step that raises when called on an empty pandas frame or
    pyarrow table, and otherwise returns its input (built in a function
    so Ray pickles it by value: workers cannot import this module)."""
    def strict(batch):
        rows = batch.num_rows if hasattr(batch, "num_rows") else len(batch)
        if not rows:
            raise RuntimeError("step called on an empty batch")
        return batch
    return strict


def _empty_batch_shapes():
    """name -> (dataset, the rows it holds): plans whose map steps meet
    empty blocks, each step the raising ``_strict()``."""
    import numpy as np

    strict = _strict()
    df = pd.DataFrame({"k": np.arange(30) % 3, "v": np.arange(30)})
    typed = df.iloc[:0]
    nothing = lambda d: d[d["v"] < 0]  # noqa: E731
    # three blocks, the middle one typed and empty
    gappy = rd.from_pandas([df.iloc[:13], typed, df.iloc[13:]])
    return {
        "typed_empty_from_pandas": (
            rd.from_pandas(typed).map_batches(strict, batch_format="pandas"),
            typed),
        "two_blocks_filtered_to_nothing": (
            rd.from_pandas([df.iloc[:15], df.iloc[15:]])
            .map_batches(nothing, batch_format="pandas")
            .map_batches(strict, batch_format="pandas"), typed),
        "all_empty_exchange_output": (
            relops.exchange(rd.from_pandas(typed), "k", strict, pre=strict)
            .map_batches(strict, batch_format="pandas"), typed),
        "pre_and_fn": (gappy, df),
        "pyarrow": (gappy.map_batches(strict, batch_format="pyarrow"), df),
        "batch_size_2": (gappy.map_batches(strict, batch_format="pandas",
                                           batch_size=2), df),
    }


@pytest.mark.parametrize("peel", [True, False], ids=["peeled", "executed"])
@pytest.mark.parametrize("shape", [
    "typed_empty_from_pandas", "two_blocks_filtered_to_nothing",
    "all_empty_exchange_output", "pre_and_fn", "pyarrow", "batch_size_2"])
def test_no_step_sees_an_empty_batch(shape, peel):
    """A map_batches step, a peeled step, a ``pre`` and a single-input
    ``fn`` are never called on an empty frame, whether the exchange runs
    its input's steps in its split tasks (peeled) or Ray Data executes
    them first: every step here raises on one, and the exchange's
    ``pre`` and ``fn`` do too, over empty blocks and empty slots."""
    import unittest.mock

    ds, exp = _empty_batch_shapes()[shape]
    strict = _strict()
    with unittest.mock.patch.object(
            relops, "_peel", relops._peel if peel else lambda d: None):
        got = relops.exchange(ds, "k", strict, pre=strict).to_pandas()
    assert len(got) == len(exp)
    if len(exp):
        pd.testing.assert_frame_equal(_sorted(got, ["k", "v"]),
                                      _sorted(exp, ["k", "v"]),
                                      check_dtype=False)


# ------------- exchange runs peeled reads and map steps in its tasks ---

def _write_table(path, lo: int, hi: int, files: int = 3) -> str:
    """Rows ``lo``..``hi`` as ``files`` Parquet files under ``path``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    path.mkdir()
    v = np.arange(lo, hi)
    t = pa.table({"k": v % 7, "v": v, "f": v * files // (hi - lo + 1),
                  "text": [f"w{i % 5} w{i % 3} w{i % 11} w{i % 2}" for i in v]})
    per = -(-len(v) // files)
    for f in range(files):
        pq.write_table(t.slice(f * per, per), str(path / f"part-{f}.parquet"))
    return str(path)


def _exchanged(ds, key, peel=True):
    """``ds`` through an identity exchange on ``key``, sorted; with
    ``peel=False`` the exchange runs ``ds`` through Ray Data first."""
    import unittest.mock

    identity = lambda g: g  # noqa: E731  (nested: pickled by value)
    if peel:
        out = relops.exchange(ds, key, identity).to_pandas()
    else:
        with unittest.mock.patch.object(relops, "_peel", lambda d: None):
            out = relops.exchange(ds, key, identity).to_pandas()
    return _sorted(out, sorted(out.columns))


def _peel_shapes(tmp_path):
    """Every plan shape ``_peel`` accepts, as name -> (dataset, key)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from westa_ocr_ray.dedup import MinHasher
    from westa_ocr_ray.storage import read_table

    class Halve:  # a callable-instance step built on the driver
        def __init__(self, col):
            self.col = col

        def __call__(self, df):
            return df.assign(half=df[self.col] // 2)

    a = _write_table(tmp_path / "a", 0, 300)
    b = _write_table(tmp_path / "b", 300, 420, files=2)
    twice = lambda d: d.assign(w=d["v"] * 2)  # noqa: E731
    exchanged = relops.exchange(read_table(a), "k", lambda g: g)
    empty = pd.DataFrame({"k": np.arange(40) % 7, "v": np.arange(40)})
    return {
        "read_map": (read_table(a).map_batches(twice, batch_format="pandas"),
                     "k"),
        "read_select": (read_table(a).select_columns(["k", "v"]), "k"),
        "union_of_reads": (read_table(a).union(read_table(b)), "k"),
        "map_over_exchange": (exchanged.map_batches(twice,
                                                    batch_format="pandas"),
                              "k"),
        "pyarrow_dict": (read_table(a).map_batches(
            lambda t: {"k": t["k"].to_numpy(),
                       "v3": pc.multiply(t["v"], 3).to_numpy()},
            batch_format="pyarrow"), "k"),
        "pyarrow_frame": (read_table(a).map_batches(
            lambda t: t.to_pandas().assign(s=lambda d: d["v"].astype(str)),
            batch_format="pyarrow"), "k"),
        "callable_instance": (read_table(a).map_batches(
            Halve("v"), batch_format="pandas", batch_size=16)
            .map_batches(MinHasher(num_perm=8, bands=4, id_col="v"),
                         batch_format="pandas", batch_size=50), "band_id"),
        # the step empties the first file's block; the next one skips it
        "filtered_to_nothing": (read_table(a)
                                .map_batches(lambda d: d[d["f"] != 0],
                                             batch_format="pandas")
                                .map_batches(twice, batch_format="pandas"),
                                "k"),
        "schema_less_empty": (rd.from_arrow(pa.table({"k": [1, 2],
                                                      "v": [5, 6]}))
                              .union(_schema_less(empty, 2))
                              .map_batches(twice, batch_format="pandas"),
                              "k"),
    }


def test_peel_matches_executed_plan_for_every_shape(tmp_path):
    """For every plan shape the peel accepts, the exchange that runs the
    reads and map steps in its own split tasks returns what it returns
    on the plan Ray Data executed."""
    for name, (ds, key) in _peel_shapes(tmp_path).items():
        assert relops._peel(ds) is not None, name
        got, exp = _exchanged(ds, key), _exchanged(ds, key, peel=False)
        assert len(exp), name
        pd.testing.assert_frame_equal(got, exp, obj=name)


def test_unrecognized_plan_is_executed_by_ray_data(tmp_path):
    """A plan the peel does not accept takes Ray Data's path, whole."""
    from westa_ocr_ray.storage import read_table

    class AddOne:
        def __call__(self, df):
            return df.assign(w=df["v"] + 1)

    src = read_table(_write_table(tmp_path / "a", 0, 200))
    plans = {
        "actor_class": src.map_batches(AddOne, batch_format="pandas",
                                       concurrency=1),
        "fn_args": src.map_batches(lambda d, c: d.assign(w=c),
                                   fn_args=(3,), batch_format="pandas"),
        "filter": src.filter(lambda r: r["v"] % 3 == 0),
        "limit": src.limit(50),
        "sort": src.sort("v"),
    }
    for name, ds in plans.items():
        assert relops._peel(ds) is None, name
        exp = ds.to_pandas()
        pd.testing.assert_frame_equal(_exchanged(ds, "k"),
                                      _sorted(exp, sorted(exp.columns)),
                                      obj=name)


def test_chained_primitive_starts_no_executor(tmp_path, monkeypatch):
    """An aggregate over a read and a map step, and a count, a to_pandas
    and a second exchange over its output, start no Ray Data executor:
    the split tasks read the files and run the step, and the output
    comes back with its snapshot set."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from westa_ocr_ray.storage import read_table

    p = _write_table(tmp_path / "a", 0, 300)
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(self)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    agg = relops.partial_aggregate(
        read_table(p).map_batches(lambda d: d.assign(w=d["v"] % 4),
                                  batch_format="pandas"),
        ["w"], {"s": ("sum", "v"), "n": ("count", None)})
    top = relops.grouped_topk(agg.map_batches(lambda d: d.assign(g=0),
                                              batch_format="pandas"),
                              ["g"], ["s"], 2)
    assert agg.count() == 4 and len(top.to_pandas()) == 2
    assert runs == []
    assert sorted(agg.to_pandas()["n"]) == [75] * 4


def test_peel_recognizes_read_and_map_plan(tmp_path):
    """Fails when Ray Data renames or reshapes a plan class the peel
    reads: the exchange would then execute every input through Ray Data
    again and lose the gain, silently."""
    from ray.data.datasource import ReadTask

    from westa_ocr_ray.storage import read_table

    p = _write_table(tmp_path / "a", 0, 60)
    peeled = relops._peel(read_table(p).map_batches(lambda d: d,
                                                    batch_format="pandas"))
    assert peeled
    assert all(isinstance(src, ReadTask) and size > 0 and len(steps) == 1
               for src, size, steps in peeled)


def test_private_plan_api_only_in_relops():
    """Ray Data's private plan classes are read in one place,
    relops._peel, so a Ray upgrade that renames them breaks one
    function (and test_peel_recognizes_read_and_map_plan)."""
    import pathlib

    import westa_ocr_ray

    pkg = pathlib.Path(westa_ocr_ray.__file__).parent
    hits = sorted(str(p.relative_to(pkg)) for p in pkg.rglob("*.py")
                  if any(name in p.read_text() for name in
                         ("_logical_plan", "_snapshot_bundle",
                          "get_read_tasks")))
    assert hits == ["relops.py"]


def test_partial_aggregate_sum_outside_int64_raises():
    """An int64 sum that leaves int64 raises, in the combine (one block)
    and in the merge (one row per block), where it used to wrap to
    -2**62, with a key or without one. A sum whose terms cancel stays
    exact."""
    big = pd.DataFrame({"k": [1, 1, 1, 2], "v": [2 ** 62] * 3 + [5]})
    ok = pd.DataFrame({"k": [1, 1, 1], "v": [2 ** 62, -2 ** 62, 2 ** 62]})
    for keys in (["k"], []):
        for parts in (1, 4):
            with pytest.raises(OverflowError):
                relops.partial_aggregate(
                    rd.from_pandas(big).repartition(parts), keys,
                    {"s": ("sum", "v")}).to_pandas()
        got = relops.partial_aggregate(rd.from_pandas(ok).repartition(3),
                                       keys, {"s": ("sum", "v")}).to_pandas()
        assert got["s"].tolist() == [2 ** 62]
