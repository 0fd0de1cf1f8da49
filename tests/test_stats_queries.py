"""Edge semantics of the exact statistical queries (events_regression /
user_diversity / triangle counts): the DuckDB oracle parity is covered
by scripts/check_queries.py; these pin the degenerate-input branches a
fixture-scale oracle run may never exercise."""

import numpy as np
import pandas as pd
import pytest

from westa_ocr_ray import queries, storage


@pytest.fixture(autouse=True)
def _caches_in_tmp_path(tmp_path, monkeypatch):
    # the sinks' and indexes' input-keyed cache dirs (csv_rt, hive_rt,
    # rpe, tok_export, text_index) live under this test's tmp_path and
    # go with it, instead of piling up under /tmp
    monkeypatch.setattr(storage, "_CACHE_ROOT", str(tmp_path / "cache"))


def _write_events(tmp_path, df: pd.DataFrame) -> str:
    df = df.copy()
    df["ts"] = pd.to_datetime(df["ts_us"], unit="us").astype(
        "datetime64[us]")
    df = df.drop(columns="ts_us")
    for c, dt in [("event_id", "int64"), ("user_id", "int64")]:
        df[c] = df[c].astype(dt)
    df.to_parquet(tmp_path / "events.parquet", index=False)
    return str(tmp_path)


def test_events_regression_recovers_planted_line(tmp_path):
    # y = 2.5 * x + 100 cents exactly: slope_micro = 2_500_000,
    # icept_micro = 100_000_000, corr_micro = 1_000_000 - ulp floor
    xs = np.array([10, 20, 30, 40, 50], dtype=np.int64)
    df = pd.DataFrame({
        "event_id": np.arange(5), "user_id": 1, "event_type": "buy",
        "ts_us": xs * 1_000_000,       # second-of-day == xs
        "value": (2.5 * xs + 100) / 100.0,  # dollars; *100 → cents
        "props": ""})
    sf = _write_events(tmp_path, df)
    out = queries.events_regression(sf).to_pandas()
    row = out[out["event_type"] == "buy"].iloc[0]
    assert row["n"] == 5 and row["sx"] == xs.sum()
    assert row["slope_micro"] == 2_500_000
    assert row["icept_micro"] == 100 * 100 * 10_000  # 100 cents * 1e6
    # perfect fit: corr = 1.0 up to one floor ulp
    assert row["corr_micro"] in (999_999, 1_000_000)


def test_events_regression_zero_variance_x_yields_zero(tmp_path):
    # all events at the same second-of-day: varx == 0 branch
    df = pd.DataFrame({
        "event_id": np.arange(3), "user_id": 1, "event_type": "t",
        "ts_us": [7_000_000] * 3, "value": [1.0, 2.0, 3.0], "props": ""})
    sf = _write_events(tmp_path, df)
    row = queries.events_regression(sf).to_pandas().iloc[0]
    assert (row["slope_micro"], row["icept_micro"], row["corr_micro"]) \
        == (0, 0, 0)


def test_user_diversity_bounds(tmp_path):
    # user 1: single type → simpson 0; user 2: 2 types × 1 event each →
    # 1 - 2*(1/2)² = 0.5 exactly; user 3: one event → 0
    df = pd.DataFrame({
        "event_id": np.arange(6), "user_id": [1, 1, 1, 2, 2, 3],
        "event_type": ["a", "a", "a", "a", "b", "c"],
        "ts_us": np.arange(6) * 1_000_000, "value": 1.0, "props": ""})
    sf = _write_events(tmp_path, df)
    out = (queries.user_diversity(sf).to_pandas()
           .set_index("user_id").sort_index())
    assert out.loc[1, "simpson_ppm"] == 0 and out.loc[1, "n_types"] == 1
    assert out.loc[2, "simpson_ppm"] == 500_000
    assert out.loc[3, "simpson_ppm"] == 0 and out.loc[3, "n_events"] == 1


def test_triangle_node_counts_known_graph():
    # K4 on {1,2,3,4} (4 triangles, each node in 3) plus a pendant
    # edge (4,5) and an isolated edge (6,7): pendant/isolated nodes
    # must not appear
    import itertools
    import ray.data as rd
    from westa_ocr_ray import graph

    e = pd.DataFrame(list(itertools.combinations([1, 2, 3, 4], 2))
                     + [(4, 5), (6, 7)], columns=["src", "dst"])
    # feed reversed + duplicate rows: canonicalization must absorb both
    rev = e.rename(columns={"src": "dst", "dst": "src"})
    got = (graph.triangle_node_counts(
        rd.from_pandas(pd.concat([e, rev, e], ignore_index=True)))
        .to_pandas().sort_values("node", ignore_index=True))
    exp = pd.DataFrame({"node": [1, 2, 3, 4], "n_triangles": [3, 3, 3, 3]})
    pd.testing.assert_frame_equal(
        got.astype({"node": "int64", "n_triangles": "int64"}), exp)


def test_rrf_fusion_prefers_doc_in_both_lists(tmp_path):
    # doc 1 matches both probe queries and must fuse to rank 1 with
    # contribution 2 * (1e9 // (60 + 1)); the no-term doc must fuse
    # last. (At 4 docs every doc enters both top-100 lists, so
    # n_lists == 2 throughout — the n_lists < 2 branch is covered by
    # the corpus-scale oracle runs where k truncates the lists.)
    both = "hash merge vector window batch filter scan stream"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [both,
                 "hash merge vector window x y",
                 "batch filter scan stream x y",
                 "unrelated words only here"],
        "lang": "en", "source": "s", "n_chars": 10})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.rrf_fusion(str(tmp_path)).to_pandas()
           .sort_values("rank", ignore_index=True))
    top = out.iloc[0]
    assert top["doc_id"] == 1 and top["n_lists"] == 2
    assert top["rrf_ppb"] == 2 * (1_000_000_000 // 61)
    assert len(out) == 4 and out.iloc[-1]["doc_id"] == 4


def test_lang_source_chi2_independent_table_is_zero(tmp_path):
    # counts exactly proportional across (lang, source) → every cell's
    # chi2 contribution is 0; a planted dependent corpus is positive
    rows = []
    did = 0
    for lang, mult in (("en", 1), ("de", 2)):
        for source, c in (("a", 10), ("b", 20)):
            for _ in range(c * mult):
                rows.append((did, "t", lang, source, 1))
                did += 1
    docs = pd.DataFrame(rows, columns=["doc_id", "text", "lang",
                                       "source", "n_chars"])
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = queries.lang_source_chi2(str(tmp_path)).to_pandas()
    assert len(out) == 4 and (out["cell_chi2_micro"] == 0).all()
    assert out["o"].sum() == 90

    skew = docs.copy()
    skew.loc[(skew["lang"] == "de") & (skew["source"] == "b"),
             "source"] = "a"
    skew.to_parquet(tmp_path / "documents.parquet", index=False)
    out2 = queries.lang_source_chi2(str(tmp_path)).to_pandas()
    assert (out2["cell_chi2_micro"] > 0).any()


def test_kcore_peel_chain_vs_clique():
    # a 6-node path has NO 2-core (peels from both ends to nothing);
    # K4 survives with in-core degree 3; a triangle dangling off a
    # pendant keeps exactly its 3 members at degree 2
    import ray.data as rd
    from westa_ocr_ray import graph

    path = [(i, i + 1) for i in range(1, 6)]
    k4 = [(a, b) for a in (10, 11, 12, 13) for b in (10, 11, 12, 13)
          if a < b]
    tri_pendant = [(20, 21), (21, 22), (20, 22), (22, 23)]
    e = pd.DataFrame(path + k4 + tri_pendant, columns=["src", "dst"])
    got = (graph.kcore_peel(rd.from_pandas(e), k=2, n_rounds=4)
           .to_pandas().sort_values("node", ignore_index=True))
    exp = pd.DataFrame({"node": [10, 11, 12, 13, 20, 21, 22],
                        "deg": [3, 3, 3, 3, 2, 2, 2]})
    pd.testing.assert_frame_equal(
        got.astype({"node": "int64", "deg": "int64"}), exp)


def test_lexical_stats_by_source_known_counts(tmp_path):
    # source s1: tokens [a a b c] → 4 tokens, 3 types, 2 hapax (b, c);
    # source s2: [x x x] → 3 tokens, 1 type, 0 hapax
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a a b", "c", "x x x"],
        "lang": "en", "source": ["s1", "s1", "s2"], "n_chars": 5})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.lexical_stats_by_source(str(tmp_path)).to_pandas()
           .set_index("source").sort_index())
    assert tuple(out.loc["s1", ["n_tokens", "n_types", "n_hapax"]]) \
        == (4, 3, 2)
    assert out.loc["s1", "ttr_ppm"] == (1_000_000 * 3) // 4
    assert out.loc["s1", "hapax_ppm"] == (1_000_000 * 2) // 3
    assert tuple(out.loc["s2", ["n_tokens", "n_types", "n_hapax"]]) \
        == (3, 1, 0)


def test_source_overlap_jaccard_known_vocab(tmp_path):
    # s1 vocab {a,b,c}, s2 vocab {b,c,d}: inter 2, union 4 → 500000 ppm;
    # s3 shares nothing → pairs with s3 have inter 0 and must be absent
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a b c a", "b c d", "z z q"],
        "lang": "en", "source": ["s1", "s2", "s3"], "n_chars": 5})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = queries.source_overlap_jaccard(str(tmp_path)).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert (row["source_a"], row["source_b"]) == ("s1", "s2")
    assert (row["inter"], row["n_a"], row["n_b"]) == (2, 3, 3)
    assert row["jaccard_ppm"] == 500_000


def test_kmeans_lloyd_int_recovers_planted_clusters(tmp_path):
    # two tight, far-apart clusters with one seed landing in each
    # (seeds = lowest ids): every point must assign to its cluster
    import ray.data as rd
    from westa_ocr_ray import similarity

    a = [0.4, 0.4, 0.4, 0.0]
    b = [-0.4, -0.4, -0.4, 0.0]
    jit = [0.0, 0.001, -0.001, 0.002]

    def near(c, j):
        return [x + j for x in c]

    emb = pd.DataFrame({
        "vec_id": [1, 2, 3, 4, 5, 6],
        "embedding": [near(a, jit[0]), near(b, jit[0]),
                      near(a, jit[1]), near(b, jit[1]),
                      near(a, jit[2]), near(b, jit[3])]})
    out = (similarity.kmeans_lloyd_int(rd.from_pandas(emb), k=2,
                                       n_rounds=2)
           .to_pandas().sort_values("vec_id", ignore_index=True))
    # seed 0 = vec 1 (cluster a side), seed 1 = vec 2 (b side)
    assert list(out["cluster"]) == [0, 1, 0, 1, 0, 1]
    assert (out["dist2"] >= 0).all()


def test_length_gini_known_values(tmp_path):
    # equal lengths → gini 0; [1,1,1,1,16] → gini = sum(2i-n-1)x/(n*s)
    # = (-4*1 -2*1 +0*1 +2*1 +4*16)/(5*20) = 60/100 → 600000 ppm
    docs = pd.DataFrame({
        "doc_id": range(10),
        "text": (["t " * 3 + "t"] * 5                 # en: five 4-token docs
                 + ["x", "x", "x", "x",               # de: four 1-token docs
                    "x " * 15 + "x"]),                # and one 16-token doc
        "lang": ["en"] * 5 + ["de"] * 5,
        "source": "s", "n_chars": 5})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.length_gini_by_lang(str(tmp_path)).to_pandas()
           .set_index("lang"))
    assert out.loc["en", "gini_ppm"] == 0
    assert (out.loc["de", "n_docs"], out.loc["de", "sum_len"]) == (5, 20)
    assert out.loc["de", "gini_ppm"] == 600_000


def test_event_transitions_known_chain(tmp_path):
    # user 1: a->b->a->b ; user 2: b->b ; matrix: a->b:2, b->a:1, b->b:1
    df = pd.DataFrame({
        "event_id": range(6), "user_id": [1, 1, 1, 1, 2, 2],
        "event_type": ["a", "b", "a", "b", "b", "b"],
        "ts_us": [1, 2, 3, 4, 1, 2], "value": 1.0, "props": ""})
    df["ts_us"] = df["ts_us"] * 1_000_000
    sf = _write_events(tmp_path, df)
    out = (queries.event_transitions(sf).to_pandas()
           .set_index(["prev_type", "event_type"]))
    assert out.loc[("a", "b"), "n"] == 2
    assert out.loc[("b", "a"), "n"] == 1
    assert out.loc[("b", "b"), "n"] == 1
    assert out.loc[("a", "b"), "p_ppm"] == 1_000_000
    assert out.loc[("b", "a"), "p_ppm"] == 500_000


def test_token_pmi_planted_collocation(tmp_path):
    # "foo bar" always co-occurs (5 times, meeting the min count) in a
    # sea of shuffled filler: it must rank first with c_xy == c_x == c_y
    filler = " ".join(f"w{i % 7} w{(i * 3) % 11}" for i in range(40))
    docs = pd.DataFrame({
        "doc_id": range(5),
        "text": [f"foo bar {filler}" for _ in range(5)],
        "lang": "en", "source": "s", "n_chars": 9})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.token_pmi(str(tmp_path)).to_pandas()
           .sort_values("rank", ignore_index=True))
    top = out.iloc[0]
    assert (top["tok_a"], top["tok_b"]) == ("foo", "bar")
    # foo opens only foo-bar (c_x=5); bar also opens bar-w0 (c_y=10)
    assert top["c_xy"] == 5 and top["c_x"] == 5 and top["c_y"] == 10
    # 82 tokens/doc → 81 bigram slots/doc → B = 405
    assert top["ratio_ppm"] == (1_000_000 * 405 * 5) // (5 * 10)


def test_csv_roundtrip_resume_and_quoting(tmp_path):
    # quoting-hostile text (commas, quotes, newline-free) must survive
    # the CSV hop; a second call hits the marker and skips the export
    import glob
    import os

    docs = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ['a,b "quoted" c', "plain text"],
        "lang": ["en", "de"], "source": "s", "n_chars": 5})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.csv_roundtrip(str(tmp_path)).to_pandas()
           .set_index("lang").sort_index())
    from westa_ocr_ray import dedup
    assert out.loc["en", "fold"] == int(
        dedup.md5_hex('a,b "quoted" c')[:8], 16)
    assert out.loc["de", "id_sum"] == 2

    out_dir = storage.input_cache_dir("csv_rt",
                                      f"{tmp_path}/documents.parquet")
    assert out_dir.startswith(str(tmp_path))
    files = glob.glob(f"{out_dir}/*.csv")
    mtime = max(os.path.getmtime(f) for f in files)
    out2 = queries.csv_roundtrip(str(tmp_path)).to_pandas()
    assert max(os.path.getmtime(f)
               for f in glob.glob(f"{out_dir}/*.csv")) \
        == mtime  # marker hit: no rewrite
    assert len(out2) == 2


def test_dup_source_matrix_counts_cross_and_within(tmp_path):
    # docs 1/2 share a prefix across sources s1/s2; docs 3/4/5 share a
    # prefix inside s1 (3 within-pairs); doc 6 is unique
    pre = "p q r s"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": [f"{pre} one", f"{pre} two x",
                 "a b c d 1", "a b c d 2", "a b c d 3",
                 "u v w z"],
        "lang": "en",
        "source": ["s1", "s2", "s1", "s1", "s1", "s3"], "n_chars": 5})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.dup_source_matrix(str(tmp_path)).to_pandas()
           .set_index(["source_a", "source_b"]))
    assert out.loc[("s1", "s2"), "n_pairs"] == 1
    assert out.loc[("s1", "s1"), "n_pairs"] == 3
    assert len(out) == 2


def test_cents_rounds_half_away_from_zero():
    """A half cent rounds away from zero, as the oracles' DuckDB
    ``round(value * 100)`` does (np.round gives [12, -12, 62])."""
    got = queries._cents(pd.Series([0.125, -0.125, 0.625], index=[4, 5, 6]))
    assert got.tolist() == [13, -13, 63]
    assert got.index.tolist() == [4, 5, 6] and got.dtype == np.int64


def test_user_rfm_quintile_assignment(tmp_path):
    # 5 users with strictly ordered metrics: user i has i events of
    # value i at time i → every tile is the user's rank (tile k = one
    # user per quintile), best (user 5) gets segment 111
    rows = []
    eid = 0
    for u in range(1, 6):
        for _ in range(u):
            rows.append((eid, u, "t", u * 1_000_000, float(u), ""))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "event_type",
                                     "ts_us", "value", "props"])
    sf = _write_events(tmp_path, df)
    out = (queries.user_rfm(sf).to_pandas()
           .set_index("user_id").sort_index())
    assert list(out["segment"]) == [555, 444, 333, 222, 111]
    assert out.loc[5, "frequency"] == 5
    assert out.loc[5, "monetary_cents"] == 5 * 500


def test_events_ks_drift_detects_planted_shift(tmp_path):
    # first half all value 1.00, second half all 2.00: F diverges
    # maximally at 100 cents → ks_ppm = 1e6, at_cents = 100
    df = pd.DataFrame({
        "event_id": range(8), "user_id": 1, "event_type": "t",
        "ts_us": [1, 2, 3, 4, 101, 102, 103, 104],
        "value": [1.0] * 4 + [2.0] * 4, "props": ""})
    df["ts_us"] = df["ts_us"] * 1_000_000
    sf = _write_events(tmp_path, df)
    row = queries.events_ks_drift(sf).to_pandas().iloc[0]
    assert (row["n_first"], row["n_second"]) == (4, 4)
    assert row["ks_ppm"] == 1_000_000 and row["at_cents"] == 100

    # identical halves → ks 0
    df2 = df.copy()
    df2["value"] = 1.0
    sf2 = _write_events(tmp_path, df2)
    assert queries.events_ks_drift(sf2).to_pandas().iloc[0]["ks_ppm"] == 0


def test_embedding_quantize_zero_dim_and_sign_split(tmp_path):
    # dim 2 is all-zero (qmax = 0 → code 0); dims 0/1 carry planted
    # values where max-abs scaling and the sign-split floor division
    # are hand-checkable: q = [1000, -500, 0] in dim 0 (qmax 1000) →
    # codes [127, -63, 0]; dim 1 = [-2000, 2000, 1000] (qmax 2000) →
    # codes [-127, 127, 63]
    emb = pd.DataFrame({
        "vec_id": [1, 2, 3],
        "embedding": [[1.0, -2.0, 0.0], [-0.5, 2.0, 0.0],
                      [0.0, 1.0, 0.0]],
        "label": np.int32(0)})
    emb.to_parquet(tmp_path / "embeddings.parquet", index=False)
    out = (queries.embedding_quantize(str(tmp_path)).to_pandas()
           .set_index("vec_id").sort_index())
    assert out.loc[1, "code_sum"] == 127 - 127
    assert out.loc[1, "code_l1"] == 127 + 127
    assert out.loc[2, "code_sum"] == -63 + 127
    assert out.loc[3, "code_sum"] == 0 + 63
    # exact scaling (qmax divides q exactly): recon error only where
    # 127 doesn't divide — vec 3 dim 1: code 63, recon 63*2000//127 =
    # 992, err 8 → sse 64
    assert out.loc[1, "sse_q"] == 0
    assert out.loc[3, "sse_q"] == 64


def test_vocab_coverage_boundary_exact_hit(tmp_path):
    # lang en: counts [6, 3, 1] over tokens (a×6, b×3, c×1), total 10,
    # s = ceil(9*10/10) = 9 == 6+3 exactly → n_tokens_90 = 2,
    # boundary class count = 3
    docs = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["a a a a a a b", "b b c"],
        "lang": "en", "source": "s", "n_chars": 5})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    row = queries.vocab_coverage_by_lang(str(tmp_path)).to_pandas().iloc[0]
    assert (row["total_tokens"], row["vocab_size"]) == (10, 3)
    assert (row["n_tokens_90"], row["boundary_count"]) == (2, 3)


def test_vocab_coverage_single_token_lang(tmp_path):
    docs = pd.DataFrame({
        "doc_id": [1], "text": ["x x x x"], "lang": "zz",
        "source": "s", "n_chars": 4})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    row = queries.vocab_coverage_by_lang(str(tmp_path)).to_pandas().iloc[0]
    assert (row["total_tokens"], row["vocab_size"],
            row["n_tokens_90"]) == (4, 1, 1)


def test_user_burstiness_periodic_and_degenerate(tmp_path):
    # user 1: perfectly periodic (gaps 10,10,10 s) → sigma=0 →
    # B = -1 exactly → -1_000_000; user 2: all gaps zero → 0/0 branch
    # → 0; user 3: single event → no gaps, absent from output
    df = pd.DataFrame({
        "event_id": np.arange(8),
        "user_id": [1, 1, 1, 1, 2, 2, 2, 3],
        "event_type": "t",
        "ts_us": [0, 10_000_000, 20_000_000, 30_000_000,
                  5_000_000, 5_000_000, 5_000_000, 9_000_000],
        "value": 1.0, "props": ""})
    sf = _write_events(tmp_path, df)
    out = (queries.user_burstiness(sf).to_pandas()
           .set_index("user_id").sort_index())
    assert list(out.index) == [1, 2]
    assert out.loc[1, "n_gaps"] == 3 and out.loc[1, "sum_gap_s"] == 30
    assert out.loc[1, "burst_ppm"] == -1_000_000
    assert out.loc[2, "burst_ppm"] == 0 and out.loc[2, "sum_gap_s"] == 0


def test_hits_star_graph_hub_and_authority(tmp_path):
    # user 1 touches types a,b,c (the hub); users 2,3 touch only a
    # (making a the authority). After round 1: a(a)=3M, a(b)=a(c)=1M →
    # normalized a=[1M, 333333, 333333]; h(1)=1M+333k+333k, h(2)=h(3)
    # =1M → hub 1 normalizes to 1M, others to 600000 =
    # 1M*1M//1666666. Round 3 preserves the ordering (fixed point).
    df = pd.DataFrame({
        "event_id": np.arange(5),
        "user_id": [1, 1, 1, 2, 3],
        "event_type": ["a", "b", "c", "a", "a"],
        "ts_us": np.arange(5) * 1_000_000, "value": 1.0, "props": ""})
    sf = _write_events(tmp_path, df)
    out = queries.hits_user_event(sf).to_pandas()
    hubs = out[out["kind"] == "hub"].set_index("node")["score_ppm"]
    auths = out[out["kind"] == "auth"].set_index("node")["score_ppm"]
    assert hubs["1"] == 1_000_000 and hubs["2"] == hubs["3"]
    assert hubs["2"] < 1_000_000
    assert auths["a"] == 1_000_000
    assert auths["b"] == auths["c"] and auths["b"] < 1_000_000


def test_next_token_top1_tie_breaks_to_lowest_successor(tmp_path):
    # token a: (a,b)x2 beats (a,c)x1 → p_ppm = 2_000_000 // 3;
    # token x: (x,y) and (x,z) tie at 1 → successor asc picks y
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["a b a c", "a b", "x y", "x z"],
        "lang": "en", "source": "s", "n_chars": 7})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.next_token_top1(str(tmp_path)).to_pandas()
           .set_index("token"))
    assert out.loc["a", "next_token"] == "b"
    assert (out.loc["a", "n_pair"], out.loc["a", "n_total"]) == (2, 3)
    assert out.loc["a", "p_ppm"] == 666_666
    assert out.loc["x", "next_token"] == "y"
    assert out.loc["x", "p_ppm"] == 500_000


def test_events_cusum_finds_planted_level_shift(tmp_path):
    # 10 events: cents 0 for the first five, 1000 after → T = 5000,
    # dev_k = |10*P_k - 5000k| peaks at k=5 (25000) exactly where the
    # level shifts
    df = pd.DataFrame({
        "event_id": np.arange(10), "user_id": 1, "event_type": "t",
        "ts_us": np.arange(10) * 1_000_000,
        "value": [0.0] * 5 + [10.0] * 5, "props": ""})
    sf = _write_events(tmp_path, df)
    row = queries.events_cusum(sf).to_pandas().iloc[0]
    assert (row["n_events"], row["at_k"]) == (10, 5)
    assert row["at_ts_us"] == 4_000_000
    assert row["cusum_abs"] == 25_000


def test_embedding_top_pc_zero_matrix_and_planted_axis(tmp_path):
    # all-equal embeddings → centered scatter is the zero matrix →
    # every dim emits 0
    emb = pd.DataFrame({
        "vec_id": [1, 2, 3],
        "embedding": [[1.0, 2.0]] * 3, "label": np.int32(0)})
    emb.to_parquet(tmp_path / "embeddings.parquet", index=False)
    out = (queries.embedding_top_pc(str(tmp_path)).to_pandas()
           .set_index("dim").sort_index())
    assert list(out["pc_ppm"]) == [0, 0]
    # variance confined to dim 1 → the dominant direction is the unit
    # vector on dim 1 (positive by the all-ones start)
    emb2 = pd.DataFrame({
        "vec_id": [1, 2, 3],
        "embedding": [[0.5, -1.0], [0.5, 0.0], [0.5, 1.0]],
        "label": np.int32(0)})
    emb2.to_parquet(tmp_path / "embeddings.parquet", index=False)
    out2 = (queries.embedding_top_pc(str(tmp_path)).to_pandas()
            .set_index("dim").sort_index())
    assert out2.loc[0, "pc_ppm"] == 0
    assert out2.loc[1, "pc_ppm"] == 1_000_000


def test_common_neighbor_counts_open_wedges_only():
    import ray.data as rd

    from westa_ocr_ray import graph

    # path 3-2-1-4 plus the closed triangle 5-6-7: open pairs are
    # (1,3) via 2 and (2,4) via 1; triangle pairs are all adjacent and
    # must not appear
    edges = rd.from_pandas(pd.DataFrame({
        "src": [1, 2, 1, 5, 6, 5],
        "dst": [2, 3, 4, 6, 7, 7]}))
    out = (graph.common_neighbor_counts(edges)
           .to_pandas().sort_values(["a", "b"], ignore_index=True))
    assert list(map(tuple, out.to_numpy())) == [(1, 3, 1), (2, 4, 1)]


def test_ngram_novelty_ties_award_smaller_id(tmp_path):
    # doc 1: shingles {"a b c d", "b c d e"} — both first here;
    # doc 2: {"a b c d", "b c d x"} — one stolen by doc 1, one novel
    docs = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["a b c d e", "a b c d x"],
        "lang": "en", "source": "s", "n_chars": 9})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.ngram_novelty(str(tmp_path)).to_pandas()
           .set_index("doc_id").sort_index())
    assert (out.loc[1, "n_shingles"], out.loc[1, "n_novel"]) == (2, 2)
    assert (out.loc[2, "n_shingles"], out.loc[2, "n_novel"]) == (2, 1)


def test_blocklist_filter_counts_and_keep(tmp_path):
    # doc 1 hits 'scan' twice + 'key' once (3 hits, 2 terms); doc 2 is
    # clean (keep); 'scanner' must NOT count (token-boundary matching)
    docs = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["scan the key then scan again", "scanner keys only"],
        "lang": "en", "source": "s", "n_chars": 10})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.blocklist_filter(str(tmp_path)).to_pandas()
           .set_index("doc_id").sort_index())
    assert (out.loc[1, "n_hits"], out.loc[1, "n_terms"],
            out.loc[1, "keep"]) == (3, 2, 0)
    assert (out.loc[2, "n_hits"], out.loc[2, "keep"]) == (0, 1)


def test_dedup_priority_prefers_trusted_source(tmp_path):
    # three copies of one prefix group: src9/doc 1, src2/doc 5,
    # src2/doc 7 → keeper is (prio 2, doc 5) even though doc 1 has the
    # smallest id; a singleton group keeps itself
    docs = pd.DataFrame({
        "doc_id": [1, 5, 7, 9],
        "text": ["p q r s tail1", "p q r s tail2", "p q r s tail3",
                 "unique w x y"],
        "lang": "en",
        "source": ["src9", "src2", "src2", "src4"],
        "n_chars": 12})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.dedup_priority(str(tmp_path)).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert list(map(tuple, out.to_numpy())) == [(5, 2, 3), (9, 4, 1)]


def _write_emb(tmp_path, ids, vecs):
    pd.DataFrame({"vec_id": ids,
                  "embedding": [list(map(float, v)) for v in vecs],
                  "label": np.int32(0)}) \
        .to_parquet(tmp_path / "embeddings.parquet", index=False)
    return str(tmp_path)


def test_mmr_diversify_flips_on_redundancy(tmp_path):
    # query = vec 0 = [1,0,0]. c1/c2 share the query-plus-side-axis
    # direction (redundant with each other); c3 is less relevant but
    # diverse. Round 2 must pick c3 over the higher-rel c2:
    # score(c2) = 2*900000 - 1055000 = 745000 <
    # score(c3) = 2*800000 - 720000 = 880000. With only 3 candidates
    # and MMR_K = 6, the early-stop emits exactly 3 picks.
    sf = _write_emb(tmp_path, [0, 1, 2, 3],
                    [[1.0, 0.0, 0.0], [0.9, 0.5, 0.0],
                     [0.9, 0.49, 0.0], [0.8, 0.0, 0.5]])
    out = queries.mmr_diversify(sf).to_pandas()
    assert list(out["vec_id"]) == [1, 3, 2]
    assert list(out["pick_round"]) == [1, 2, 3]
    r2 = out[out["pick_round"] == 2].iloc[0]
    assert (r2["rel"], r2["maxsim"], r2["score"]) \
        == (800_000, 720_000, 880_000)


def test_session_paths_gap_split_and_truncation(tmp_path):
    # users 1,2 both open with a|b (user 1's later c is its own
    # session); user 3 fires 7 events inside one session → path
    # truncates at 5
    m = 60_000_000
    df = pd.DataFrame({
        "event_id": np.arange(11),
        "user_id": [1, 1, 1, 2, 2] + [3] * 6,
        "event_type": ["a", "b", "c", "a", "b"] + ["x"] * 6,
        "ts_us": [0, m, 40 * m, 0, m] + list(np.arange(6) * m),
        "value": 1.0, "props": ""})
    sf = _write_events(tmp_path, df)
    out = (queries.session_paths(sf).to_pandas()
           .set_index("path").sort_index())
    assert out.loc["a|b", "n"] == 2 and out.loc["a|b", "rank"] == 1
    assert out.loc["c", "n"] == 1
    assert out.loc["x|x|x|x|x", "n"] == 1


def test_embedding_pq_identical_vectors_collapse(tmp_path):
    # five identical 64-dim vectors: the four seed centroids coincide,
    # ties go to the lowest centroid, empty clusters die → every
    # vector gets code (0, 0) with zero error
    v = np.zeros(64)
    v[3], v[40] = 1.0, -2.0
    sf = _write_emb(tmp_path, [1, 2, 3, 4, 5], [v] * 5)
    out = queries.embedding_pq(sf).to_pandas()
    assert len(out) == 5
    assert set(out["code_a"]) == {0} and set(out["code_b"]) == {0}
    assert out["dist2_total"].sum() == 0


def test_embedding_pq_error_adds_across_subspaces(tmp_path):
    # 4 distinct seed vectors quantize error-free onto themselves; a
    # 5th sits 0.002 off seed 2 in one dim of EACH half → after the
    # floor-of-mean update the cluster centre lands between the two
    # members (q 999) and both members sit at dist2 1 per subspace
    def mk(a_dim_val, b_dim_val):
        v = np.zeros(64)
        v[0], v[32] = a_dim_val, b_dim_val
        return v

    vecs = [mk(1.0, 1.0), mk(-1.0, -1.0), mk(5.0, 5.0), mk(-5.0, -5.0),
            mk(0.998, 0.998)]
    sf = _write_emb(tmp_path, [1, 2, 3, 4, 5], vecs)
    out = (queries.embedding_pq(sf).to_pandas()
           .set_index("vec_id").sort_index())
    # vec 5 joins vec 1's cluster (code 0) in both halves
    assert (out.loc[5, "code_a"], out.loc[5, "code_b"]) == (0, 0)
    assert out.loc[5, "dist2_a"] == 1 and out.loc[5, "dist2_b"] == 1
    assert out.loc[1, "dist2_total"] == 2          # pulled centre
    assert out.loc[3, "dist2_total"] == 0          # untouched seed
    assert (out["dist2_total"]
            == out["dist2_a"] + out["dist2_b"]).all()


def test_q5_locality_and_date_window(tmp_path):
    # one region nation (n1/ASIA-like), one outside (n2). Line A:
    # customer and supplier both n1, in-window → counted. Line B:
    # supplier n2 → locality predicate drops it. Order C: out of the
    # date window → dropped at the read.
    pd.DataFrame({"r_regionkey": [0, 1],
                  "r_name": ["ASIA", "EUROPE"]}) \
        .to_parquet(tmp_path / "region.parquet", index=False)
    pd.DataFrame({"n_nationkey": np.int32([10, 20]),
                  "n_name": ["JAPAN", "FRANCE"],
                  "n_regionkey": np.int32([0, 1])}) \
        .to_parquet(tmp_path / "nation.parquet", index=False)
    pd.DataFrame({"c_custkey": [1], "c_name": ["c"],
                  "c_nationkey": np.int32(10), "c_acctbal": 0.0,
                  "c_mktsegment": ["X"]}) \
        .to_parquet(tmp_path / "customer.parquet", index=False)
    pd.DataFrame({"s_suppkey": [7, 8], "s_name": ["s", "s"],
                  "s_nationkey": np.int32([10, 20]),
                  "s_acctbal": 0.0}) \
        .to_parquet(tmp_path / "supplier.parquet", index=False)
    pd.DataFrame({"o_orderkey": [100, 101], "o_custkey": 1,
                  "o_orderstatus": "F", "o_totalprice": 1.0,
                  "o_orderdate": pd.to_datetime(
                      ["1996-06-01", "1995-06-01"]),
                  "o_orderpriority": "1"}) \
        .to_parquet(tmp_path / "orders.parquet", index=False)
    pd.DataFrame({"l_orderkey": [100, 100, 101],
                  "l_partkey": 1, "l_suppkey": [7, 8, 7],
                  "l_linenumber": np.int32(1), "l_quantity": 1.0,
                  "l_extendedprice": [100.0, 100.0, 100.0],
                  "l_discount": [0.25, 0.0, 0.0], "l_tax": 0.0,
                  "l_returnflag": "N", "l_linestatus": "O",
                  "l_shipdate": pd.Timestamp("1996-07-01")}) \
        .to_parquet(tmp_path / "lineitem.parquet", index=False)
    out = queries.q5_local_supplier_volume(str(tmp_path)).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert row["n_name"] == "JAPAN" and row["n_lines"] == 1
    assert row["revenue_e4"] == 750_000   # 100 * 0.75 * 1e4


def test_resource_allocation_discounts_hubs():
    import ray.data as rd

    from westa_ocr_ray import graph

    # path 1-2-3 plus hub 4 (edges 1-4, 3-4, 4-5): deg(2)=2, deg(4)=3
    # → (1,3) = 1e6//2 + 1e6//3; (2,4) shares {1,3} both deg 2 → 1e6;
    # (1,5)/(3,5) via the hub only → 333333
    edges = rd.from_pandas(pd.DataFrame({
        "src": [1, 2, 1, 3, 4], "dst": [2, 3, 4, 4, 5]}))
    out = (graph.common_neighbor_counts(edges,
                                        weight_unit=10**6)
           .to_pandas().sort_values(["a", "b"], ignore_index=True))
    assert list(map(tuple, out.to_numpy())) == [
        (1, 3, 833_333), (1, 5, 333_333), (2, 4, 1_000_000),
        (3, 5, 333_333)]


def test_dup_cluster_stats_histogram(tmp_path):
    # docs 1,2 share their first 10-token chunk (one size-2 cluster);
    # doc 3 shares a chunk with nobody → absent from the census
    shared = " ".join(f"w{i}" for i in range(10))
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [shared + " " + " ".join(f"a{i}" for i in range(10)),
                 shared + " " + " ".join(f"b{i}" for i in range(10)),
                 " ".join(f"c{i}" for i in range(20))],
        "lang": "en", "source": "s", "n_chars": 100})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = queries.dup_cluster_stats(str(tmp_path)).to_pandas()
    assert list(map(tuple, out.to_numpy())) == [(2, 1)]


def test_linkpred_recovers_star_leaf_pairs(tmp_path):
    # four docs share one 10-token chunk → star edges 1-2, 1-3, 1-4 →
    # leaf pairs (2,3), (2,4), (3,4) each witnessed by hub 1 (deg 3):
    # n_common = 1 and ra = 1e6 // 3
    shared = " ".join(f"w{i}" for i in range(10))
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [shared + " " + " ".join(f"x{d}{i}" for i in range(10))
                 for d in range(4)],
        "lang": "en", "source": "s", "n_chars": 100})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    cn = (queries.linkpred_dups(str(tmp_path)).to_pandas()
          .sort_values(["doc_a", "doc_b"], ignore_index=True))
    assert list(map(tuple, cn.to_numpy())) == [
        (2, 3, 1), (2, 4, 1), (3, 4, 1)]
    ra = (queries.ra_linkpred(str(tmp_path)).to_pandas()
          .sort_values(["doc_a", "doc_b"], ignore_index=True))
    assert list(ra["ra_score"]) == [333_333] * 3


def test_kmeans_assign_new_routes_to_nearest_centroid(tmp_path):
    # base: 4 identical-dim-count vectors so each seed is its own
    # centroid (64 dims, distinctive dim 0); planted new vectors are
    # the negations of ids 3 and 6... with ids 3,6 % 3 == 0: vec 3 =
    # [5,...] → new [-5,...] lands on vec 2's centroid [-1] or vec 4's
    # [-5]: exactly vec 4 (dist 0); vec 6 = copy of vec 1 → new = -1 →
    # vec 2's centroid, dist 0
    def mk(x):
        v = np.zeros(64)
        v[0] = x
        return v

    sf = _write_emb(tmp_path, [1, 2, 3, 4, 6],
                    [mk(1.0), mk(-1.0), mk(5.0), mk(-5.0), mk(1.0)])
    out = (queries.kmeans_assign_new(sf).to_pandas()
           .set_index("vec_id").sort_index())
    # new ids are base + 10^7
    assert list(out.index) == [10_000_003, 10_000_006]
    assert out.loc[10_000_003, "dist2"] == 0
    assert out.loc[10_000_006, "dist2"] == 0
    # -5 routes to the centroid at -5 (cluster of seed id 4 = index 3);
    # -1 routes to -1 (seed id 2 = index 1)
    assert out.loc[10_000_003, "cluster"] == 3
    assert out.loc[10_000_006, "cluster"] == 1


def test_tokenizer_fertility_ratio(tmp_path):
    # single lang, known segmentation: with zero trained merges every
    # word splits into its characters... the trained table depends on
    # the corpus; assert the invariant instead: fertility_ppm ==
    # (1e6 * n_bpe_tokens) // n_words and tokens >= words
    docs = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["aa bb aa bb", "aa aa cc"],
        "lang": ["en", "en"], "source": "s", "n_chars": 10})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    row = queries.tokenizer_fertility(str(tmp_path)).to_pandas().iloc[0]
    assert row["n_words"] == 7
    assert row["n_bpe_tokens"] >= row["n_words"]
    assert row["fertility_ppm"] == (1_000_000 * row["n_bpe_tokens"]
                                    ) // row["n_words"]


def test_q18_having_threshold(tmp_path):
    # order 100 sums to 301 (qualifies), order 101 to exactly 300
    # (strict > drops it)
    pd.DataFrame({"l_orderkey": [100, 100, 101, 101],
                  "l_partkey": 1, "l_suppkey": 1,
                  "l_linenumber": np.int32(1),
                  "l_quantity": [150.0, 151.0, 150.0, 150.0],
                  "l_extendedprice": 1.0, "l_discount": 0.0,
                  "l_tax": 0.0, "l_returnflag": "N",
                  "l_linestatus": "O",
                  "l_shipdate": pd.Timestamp("1996-07-01")}) \
        .to_parquet(tmp_path / "lineitem.parquet", index=False)
    pd.DataFrame({"o_orderkey": [100, 101], "o_custkey": [5, 5],
                  "o_orderstatus": "F", "o_totalprice": [12.34, 1.0],
                  "o_orderdate": pd.Timestamp("1996-06-01"),
                  "o_orderpriority": "1"}) \
        .to_parquet(tmp_path / "orders.parquet", index=False)
    pd.DataFrame({"c_custkey": [5], "c_name": ["Customer#5"],
                  "c_nationkey": np.int32(0), "c_acctbal": 0.0,
                  "c_mktsegment": ["X"]}) \
        .to_parquet(tmp_path / "customer.parquet", index=False)
    out = queries.q18_large_orders(str(tmp_path)).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert (row["o_orderkey"], row["sum_qty"], row["total_cents"],
            row["c_name"]) == (100, 301, 1234, "Customer#5")


def test_langid_confusion_diagonal(tmp_path):
    # unmistakably-English text labeled 'en' lands on the diagonal; a
    # numbers-only doc has zero profile overlap → pred 'unknown'
    docs = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["the quick brown fox and the lazy dog with a the",
                 "12345 67890 13579"],
        "lang": ["en", "en"], "source": "s", "n_chars": 20})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = (queries.langid_confusion(str(tmp_path)).to_pandas()
           .set_index("pred_lang"))
    assert out.loc["en", "n"] == 1 and out.loc["en", "lang"] == "en"
    assert out.loc["unknown", "n"] == 1


def test_mmr_reports_negative_maxsim(tmp_path):
    # after pick 1 (c1), candidate c2's only selected-set dot is
    # NEGATIVE (-40000) — the reported maxsim must be that value, not
    # a zero clamp from the m0 placeholder (the sf0.001 gate
    # regression): score = 2*(-100000) - (-40000) = -160000
    sf = _write_emb(tmp_path, [0, 1, 2],
                    [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0],
                     [-0.1, 0.5, 0.8]])
    out = queries.mmr_diversify(sf).to_pandas()
    r2 = out[out["pick_round"] == 2].iloc[0]
    assert (r2["vec_id"], r2["rel"], r2["maxsim"], r2["score"]) \
        == (2, -100_000, -40_000, -160_000)


def test_ann_pq_search_adc_ranking(tmp_path):
    # seeds 1..4 with ±1/±5 on dim 0 of each half; vec 5 sits 0.002
    # off seed 1, pulling cluster 0's centre to q=999 per half. Query =
    # vec 1 (excluded). ADC per candidate = its code's centre distance
    # to the query, per half: vec 5 → (1000-999)²·2 = 2; vec 2 →
    # (1000+1000)²·2 = 8e6; vec 3 → (4000)²·2; vec 4 → (6000)²·2
    def mk(a, b):
        v = np.zeros(64)
        v[0], v[32] = a, b
        return v

    sf = _write_emb(tmp_path, [1, 2, 3, 4, 5],
                    [mk(1.0, 1.0), mk(-1.0, -1.0), mk(5.0, 5.0),
                     mk(-5.0, -5.0), mk(0.998, 0.998)])
    out = (queries.ann_pq_search(sf).to_pandas()
           .sort_values("rank", ignore_index=True))
    assert list(out["vec_id"]) == [5, 2, 3, 4]
    assert list(out["adc_dist2"]) == [2, 8_000_000, 32_000_000,
                                      72_000_000]


def test_embedding_prep_scales_fit_on_kept_set(tmp_path):
    # vecs 1 and 2 are near-identical (cosine 1 > 0.4 threshold, same
    # cluster) → SemDeDup drops 2; the OUTLIER magnitude lives only in
    # the dropped vector's dim 1 value... keep it observable the other
    # way: vec 3 is orthogonal and kept. The per-dim scale must then
    # fit the KEPT set {1, 3}: dim 0 qmax = 1000 (not 2000, which only
    # vec 2 had), so vec 1 dim 0 codes exactly to 127 with zero error.
    emb = pd.DataFrame({
        "vec_id": [1, 2, 3],
        "embedding": [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]],
        "label": np.int32(0)})
    emb.to_parquet(tmp_path / "embeddings.parquet", index=False)
    out = queries.embedding_prep(str(tmp_path)).to_pandas()
    assert out["n_vecs"].sum() == 2          # vec 2 dropped
    assert out["sum_sse_q"].sum() == 0       # exact codes at qmax
    assert out["sum_code_l1"].sum() == 254   # 127 per kept vector


def _write_docs(tmp_path, texts, ids=None) -> str:
    ids = list(range(len(texts))) if ids is None else ids
    pd.DataFrame({
        "doc_id": np.asarray(ids, dtype=np.int64),
        "text": texts,
        "lang": "en", "source": "s0",
        "n_chars": np.asarray([len(t) for t in texts], dtype=np.int64),
    }).to_parquet(tmp_path / "documents.parquet", index=False)
    return str(tmp_path)


def test_boolean_search_clause_logic(tmp_path):
    # doc 0: hash+window (clause1), doc 1: hash+window+vector (the NOT
    # kills clause1), doc 2: stream+merge (clause2), doc 3: hash only
    # (neither), doc 4: hash+window AND stream+merge (both clauses)
    sf = _write_docs(tmp_path, [
        "hash window x", "hash window vector", "stream merge y",
        "hash z", "hash window stream merge"])
    out = (queries.boolean_search(sf).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert list(out["doc_id"]) == [0, 2, 4]
    assert list(out["clause1"]) == [1, 0, 1]
    assert list(out["clause2"]) == [0, 1, 1]


def test_ranking_eval_perfect_prefix(tmp_path):
    # 3 relevant docs (dup+line => rel, and 'dup' df=3/10 keeps every
    # probe idf positive) rank 1-3; 7 irrelevant docs carry none of the
    # probe terms. AP is 1.0 at every cutoff; hits cap at R=3.
    sf = _write_docs(tmp_path,
                     ["dup line a", "dup line b", "dup line hash"]
                     + ["scan table join"] * 7)
    out = queries.ranking_eval(sf).sort_values("k", ignore_index=True)
    assert list(out["k"]) == [5, 10, 25, 50]
    assert list(out["hits"]) == [3, 3, 3, 3]
    assert list(out["ap_micro"]) == [1_000_000] * 4
    assert out["prec_micro"].iloc[0] == 3 * 1_000_000 // 5


def test_canonical_docs_survivor_rule(tmp_path):
    # docs 1 and 2 share their first 10-token chunk => one cluster;
    # doc 2 is longer so it is canonical; doc 7 has no dup partner and
    # must NOT appear.
    chunk = "a b c d e f g h i j"
    sf = _write_docs(
        tmp_path,
        [chunk + " tail", chunk + " much longer tail here",
         "lone wolf document with no duplicate chunk at all"],
        ids=[1, 2, 7])
    out = queries.canonical_docs(sf).to_pandas()
    assert len(out) == 1
    assert int(out["cluster_id"][0]) == 1
    assert int(out["canonical_id"][0]) == 2   # longest wins
    assert int(out["n_members"][0]) == 2
    assert int(out["max_chars"][0]) == len(chunk + " much longer tail here")


def test_q6_filter_edges(tmp_path):
    # rows: inside every bound / discount too low / qty at the open
    # bound (24 excluded) / shipdate one day past the year end
    df = pd.DataFrame({
        "l_shipdate": pd.to_datetime(["1996-06-01", "1996-06-01",
                                      "1996-06-01", "1997-01-01"]),
        "l_discount": [0.06, 0.04, 0.07, 0.06],
        "l_quantity": [10.0, 10.0, 24.0, 10.0],
        "l_extendedprice": [100.0, 100.0, 100.0, 100.0]})
    df.to_parquet(tmp_path / "lineitem.parquet", index=False)
    out = queries.q6_forecast_revenue(str(tmp_path)).to_pandas()
    assert int(out["n_lines"][0]) == 1
    assert int(out["revenue_e4"][0]) == 10000 * 6   # cents * centi-disc


def test_min_cover_window_fuzz_vs_bruteforce():
    from itertools import product

    from westa_ocr_ray.search import min_cover_window
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        lists = [np.sort(rng.choice(40, size=int(rng.integers(0, 5)),
                                    replace=False))
                 for _ in range(m)]
        got = min_cover_window(lists)
        if any(len(p) == 0 for p in lists):
            assert got is None
            continue
        brute = min(max(c) - min(c) + 1 for c in product(*lists))
        assert got == brute


def test_last_touch_strict_before(tmp_path):
    # purchase at t=100s: the click AT the same microsecond must NOT
    # attribute (strict <); the click at t=40s does (gap 60s). The
    # second purchase has no earlier click at all.
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4],
        "user_id": [5, 5, 5, 9],
        "event_type": ["click", "click", "purchase", "purchase"],
        "ts_us": [40_000_000, 100_000_000, 100_000_000, 10_000_000],
        "value": 1.0, "props": "{}"})
    sf = _write_events(tmp_path, df)
    out = (queries.last_touch_attribution(sf).to_pandas()
           .sort_values("user_id", ignore_index=True))
    assert list(out["user_id"]) == [5, 9]
    assert list(out["n_purch"]) == [1, 1]
    assert list(out["n_attr"]) == [1, 0]
    assert list(out["sum_gap_s"]) == [60, 0]


def test_incremental_agg_matches_direct(tmp_path):
    # ids hit every diff branch: 17 (removed), 10 (changed), 25/50
    # (re-added), plus untouched ids; the delta-maintained table must
    # equal a from-scratch aggregate of the new snapshot.
    ids = [1, 2, 10, 17, 25, 34, 50, 99]
    sf = _write_docs(tmp_path, [f"w{'x ' * (i % 5)}doc {i}" for i in ids],
                     ids=ids)
    out = (queries.incremental_agg(sf).to_pandas()
           .sort_values("g", ignore_index=True))
    base = pd.read_parquet(tmp_path / "documents.parquet")
    new = queries._make_next_snapshot(base)
    direct = (pd.DataFrame({
        "g": new["doc_id"].to_numpy() % queries.INC_AGG_GROUPS,
        "n_docs": 1,
        "sum_tokens": new["text"].str.count(" ").to_numpy() + 1})
        .groupby("g", as_index=False).sum()
        .sort_values("g", ignore_index=True))
    assert list(out["g"]) == list(direct["g"])
    assert list(out["n_docs"]) == list(direct["n_docs"])
    assert list(out["sum_tokens"]) == list(direct["sum_tokens"])


def test_time_travel_version_semantics(tmp_path):
    # id 170 gets upsert AND delete at v2 (divisible by 10 and 17):
    # delete must win. id 10 shows v2 text, id 25's v3 upsert is
    # invisible at as-of 2, id 17 is deleted, id 1 stays v1.
    from westa_ocr_ray.dedup import md5_hex
    ids = [1, 10, 17, 25, 170]
    sf = _write_docs(tmp_path, [f"text {i}" for i in ids], ids=ids)
    out = (queries.time_travel(sf).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert list(out["doc_id"]) == [1, 10, 25]
    assert out["val"][0] == md5_hex("text 1")
    assert out["val"][1] == md5_hex("text 10 v2")
    assert out["val"][2] == md5_hex("text 25")     # not the v3 value


def test_ewma_weights_anchor_to_recency_rank(tmp_path):
    # 2 events: newest weighs 2^(K-1), previous 2^(K-2) — NOT 2^1/2^0
    df = pd.DataFrame({
        "event_id": [1, 2], "user_id": 3, "event_type": "view",
        "ts_us": [1_000_000, 2_000_000],
        "value": [1.00, 2.00], "props": "{}"})
    sf = _write_events(tmp_path, df)
    out = queries.ewma_activity(sf).to_pandas()
    K = queries.EWMA_K
    assert int(out["ew_score"][0]) == 200 * (1 << (K - 1)) + 100 * (1 << (K - 2))


def test_zorder_ranges_bound_both_dims(tmp_path):
    # points on one z-range must report tight per-dim spans; build a
    # tiny grid and verify counts and min/max against a direct replay
    ts = pd.to_datetime([f"2024-01-{d:02d} 01:00:00"
                         for d in (1, 2, 3, 17, 18)] * 3)
    df = pd.DataFrame({
        "event_id": range(15),
        "user_id": np.repeat([0, 1, 7], 5),
        "event_type": "view", "ts_us": ts.astype("int64") // 1000 * 0 + 1,
        "value": 1.0, "props": "{}"})
    df = df.drop(columns="ts_us")
    df["ts"] = ts.astype("datetime64[us]")
    df["event_id"] = df["event_id"].astype("int64")
    df["user_id"] = df["user_id"].astype("int64")
    df.to_parquet(tmp_path / "events.parquet", index=False)
    out = queries.zorder_stats(str(tmp_path)).to_pandas()
    u = df["user_id"].to_numpy()
    d = df["ts"].dt.day.to_numpy()
    z = np.zeros(len(df), dtype=np.int64)
    for i in range(queries.ZBITS):
        z |= ((u >> i) & 1) << (2 * i)
        z |= ((d >> i) & 1) << (2 * i + 1)
    direct = (pd.DataFrame({"zr": z // queries.ZRANGE_DIV, "u": u, "d": d})
              .groupby("zr").agg(n=("u", "size"), min_u=("u", "min"),
                                 max_u=("u", "max"), min_d=("d", "min"),
                                 max_d=("d", "max")).reset_index())
    got = out.sort_values("zr", ignore_index=True)
    assert got[["zr", "n", "min_u", "max_u", "min_d", "max_d"]].astype(
        "int64").equals(direct.astype("int64"))


def test_scd2_intervals_delete_and_reopen(tmp_path):
    # id 425 (%17 and %25, not %10): v1 interval closes at the v2
    # delete, a NEW current interval opens at v3. id 17: closed, never
    # current. id 10: two intervals, the v2 one current. id 1: single
    # current interval.
    from westa_ocr_ray.dedup import md5_hex
    ids = [1, 10, 17, 425]
    sf = _write_docs(tmp_path, [f"text {i}" for i in ids], ids=ids)
    out = (queries.scd2_intervals(sf).to_pandas()
           .sort_values(["doc_id", "v_from"], ignore_index=True))
    got = list(zip(out["doc_id"], out["v_from"], out["v_to"],
                   out["is_current"]))
    C = queries.SCD_CURRENT
    assert got == [(1, 1, C, 1),
                   (10, 1, 2, 0), (10, 2, C, 1),
                   (17, 1, 2, 0),
                   (425, 1, 2, 0), (425, 3, C, 1)]
    assert out["val"][5] == md5_hex("text 425 v3")


def test_fk_integrity_detects_planted_violations(tmp_path):
    pd.DataFrame({
        "l_orderkey": np.array([1, 1, 99], dtype=np.int64),  # 99 orphan
        "l_quantity": [5.0, 0.0, -2.0],                      # two bad
    }).to_parquet(tmp_path / "lineitem.parquet", index=False)
    pd.DataFrame({
        "o_orderkey": np.array([1], dtype=np.int64),
        "o_custkey": np.array([77], dtype=np.int64),         # orphan
        "o_totalprice": [-1.0],                              # negative
    }).to_parquet(tmp_path / "orders.parquet", index=False)
    pd.DataFrame({
        "c_custkey": np.array([5], dtype=np.int64),
    }).to_parquet(tmp_path / "customer.parquet", index=False)
    out = queries.fk_integrity(str(tmp_path))
    got = dict(zip(out["chk"], out["n_violations"]))
    assert got == {"orphan_lineitem": 1, "orphan_order": 1,
                   "nonpositive_qty": 2, "negative_total": 1}


def test_interval_coverage_islands(tmp_path):
    # user 1: events at 0s and 30s overlap (one island, 90s coverage);
    # the 200s event is its own island (60s). user 2: single event.
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4],
        "user_id": [1, 1, 1, 2],
        "event_type": "view",
        "ts_us": [0, 30_000_000, 200_000_000, 5_000_000],
        "value": 1.0, "props": "{}"})
    sf = _write_events(tmp_path, df)
    out = (queries.interval_coverage(sf).to_pandas()
           .sort_values("user_id", ignore_index=True))
    assert list(out["user_id"]) == [1, 2]
    assert list(out["coverage_us"]) == [150_000_000, 60_000_000]
    assert list(out["n_islands"]) == [2, 1]


def test_sim_topk_filtered_respects_label(tmp_path):
    # query 0 (label 0): its best cosine match overall is vec 9
    # (label 1) but the filter restricts to label 0, so vec 2 wins.
    def v(x, y):
        return [float(x), float(y)]
    emb = pd.DataFrame({
        "vec_id": np.arange(10, dtype=np.int64),
        "embedding": [v(1, 0), v(0, 1), v(0.9, 0.1), v(-1, 0), v(0.5, 0.5),
                      v(0, -1), v(-0.5, 0.5), v(0.2, 0.8), v(-0.9, 0.1),
                      v(1, 0.01)],
        "label": np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int32)})
    emb.to_parquet(tmp_path / "embeddings.parquet", index=False)
    out = queries.sim_topk_filtered(str(tmp_path))
    q0 = out[out["query_id"] == 0].sort_values("rank")
    assert list(q0["neighbor_id"])[0] == 2          # not 9 (label 1)
    assert set(q0["neighbor_id"]) <= {1, 2, 3, 4}   # label-0 only


def test_events_cube_grouping_sets(tmp_path):
    df = pd.DataFrame({
        "event_id": [1, 2, 3],
        "user_id": [1, 1, 2],
        "event_type": ["click", "click", "view"],
        "ts_us": [0, 86_400_000_000, 0],   # days 1, 2, 1
        "value": [1.00, 2.00, 4.00], "props": "{}"})
    sf = _write_events(tmp_path, df)
    out = queries.events_cube(sf).to_pandas()
    m = {(r.event_type, r.d): (r.n, r.cents) for r in out.itertuples()}
    assert m[("click", 1)] == (1, 100)
    assert m[("click", -1)] == (2, 300)       # per-type rollup
    assert m[("ALL", 1)] == (2, 500)          # per-day rollup
    assert m[("ALL", -1)] == (3, 700)         # grand total
    assert len(out) == 3 + 2 + 2 + 1


def test_type_corr_matrix_perfect_and_anti(tmp_path):
    # click counts by day: [2, 1]; view: [4, 2] (perfectly correlated
    # -> 1e6 - ulp floor = 999999 or 1000000? covn/sqrt==exact 1.0
    # when series are proportional: floor(1e6 * 1.0) = 1000000);
    # error counts [1, 2] anti-correlated with click -> -1000000.
    rows = []
    eid = 0
    for day, counts in [(1, {"click": 2, "view": 4, "error": 1}),
                        (2, {"click": 1, "view": 2, "error": 2})]:
        for ty, c in counts.items():
            for _ in range(c):
                rows.append((eid, 1, ty, (day - 1) * 86_400_000_000 + eid))
                eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "user_id",
                                     "event_type", "ts_us"])
    df["value"] = 1.0
    df["props"] = "{}"
    sf = _write_events(tmp_path, df)
    out = queries.type_corr_matrix(sf)
    m = {(r.type_a, r.type_b): r.corr_micro for r in out.itertuples()}
    assert m[("click", "view")] == 1_000_000
    assert m[("click", "error")] == -1_000_000


def test_k_anonymity_flags_small_classes(tmp_path):
    # 6 docs in one (en, s0, bucket 0) class -> safe; a lone (fr, s1)
    # doc -> violating class of size 1
    texts = ["short doc"] * 6 + ["lonely one"]
    df = pd.DataFrame({
        "doc_id": np.arange(7, dtype=np.int64),
        "text": texts,
        "lang": ["en"] * 6 + ["fr"],
        "source": ["s0"] * 6 + ["s1"],
        "n_chars": np.array([10] * 6 + [10], dtype=np.int64)})
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    out = queries.k_anonymity(str(tmp_path)).to_pandas()
    assert len(out) == 1
    assert out["lang"][0] == "fr" and int(out["n"][0]) == 1


def test_multi_pattern_counts_nonoverlapping(tmp_path):
    sf = _write_docs(tmp_path, [
        "hash scan hash scan merge",   # 2x 'hash scan', 1x 'scan merge'
        "table scan only here",        # 1x 'table scan'
        "nothing at all"])
    out = queries.multi_pattern_counts(sf)
    m = {r.pattern: (r.n_occurrences, r.n_docs) for r in out.itertuples()}
    assert m["hash scan"] == (2, 1)
    assert m["table scan"] == (1, 1)
    assert m["scan merge"] == (1, 1)


def test_hive_roundtrip_prunes_to_one_partition(tmp_path):
    df = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": ["a", "b", "c", "d"],
        "lang": ["es", "en", "es", "fr"],
        "source": "s0",
        "n_chars": np.int64(1)})
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    out = queries.hive_roundtrip(str(tmp_path)).to_pandas()
    assert int(out["n"][0]) == 2            # only the lang=es rows
    assert int(out["id_sum"][0]) == 0 + 2


def test_range_partitioned_export_disjoint_spans(tmp_path):
    # 64 docs with heavy key ties: every equal key must land in ONE
    # part, spans must be disjoint and globally ordered, counts must
    # sum to the corpus.
    lens = np.repeat([10, 10, 10, 20, 30, 40, 50, 60], 8)
    sf = _write_docs(tmp_path, ["x" * int(n) for n in lens])
    out = (queries.range_partitioned_export(sf).to_pandas()
           .sort_values("part", ignore_index=True))
    assert int(out["n"].sum()) == 64
    assert (out["min_key"] <= out["max_key"]).all()
    # cross-part monotonic, strictly: ties never straddle parts
    assert (out["max_key"].to_numpy()[:-1]
            < out["min_key"].to_numpy()[1:]).all()


def test_q13_counts_zero_order_customers(tmp_path):
    pd.DataFrame({
        "o_orderkey": np.array([1, 2, 3], dtype=np.int64),
        "o_custkey": np.array([7, 7, 8], dtype=np.int64),
    }).to_parquet(tmp_path / "orders.parquet", index=False)
    pd.DataFrame({
        "c_custkey": np.array([7, 8, 9, 10], dtype=np.int64),
    }).to_parquet(tmp_path / "customer.parquet", index=False)
    out = (queries.q13_order_distribution(str(tmp_path)).to_pandas()
           .sort_values("c_count", ignore_index=True))
    got = dict(zip(out["c_count"], out["custdist"]))
    assert got == {0: 2, 1: 1, 2: 1}


def test_eval_prep_scrubs_train_overlap(tmp_path):
    # ids 13 and 26 are pool docs; 13 shares its 4-token prefix with
    # train doc 1 -> scrubbed; 26 is clean -> kept (4 prompt + 4 cont
    # tokens of its 8). ids 39/52 are exact dups -> first wins.
    base = "alpha beta gamma delta"
    sf = _write_docs(tmp_path, [
        base + " train tail",             # id 1 (train)
        base + " eval leak here",         # id 13 (pool, leaked prefix)
        "clean eval doc with eight total tokens x",  # id 26 (kept)
        "twin doc", "twin doc"],          # ids 39, 52 (pool dups)
        ids=[1, 13, 26, 39, 52])
    out = queries.eval_prep(sf).to_pandas()
    assert int(out["n_examples"].sum()) == 2     # 26 and one twin
    assert int(out["sum_prompt_toks"].sum()) == 4 + 1   # 8//2 + 2//2
    assert int(out["sum_cont_toks"].sum()) == 4 + 1


def test_weighted_pagerank_weights_pull_rank(tmp_path):
    # star: doc 0 shares TWO 10-token chunks with doc 1 but only one
    # with doc 2 -> after one round doc 1 must out-rank doc 2.
    import ray.data as rd

    from westa_ocr_ray import graph
    edges = rd.from_pandas(pd.DataFrame({
        "doc_a": np.array([0, 0], dtype=np.int64),
        "doc_b": np.array([1, 2], dtype=np.int64),
        "n_shared_chunks": np.array([2, 1], dtype=np.int64)}))
    out = (graph.weighted_pagerank_int(
        edges, n_iter=1, src_col="doc_a", dst_col="doc_b",
        w_col="n_shared_chunks").to_pandas()
        .set_index("node")["rank_mu"])
    # node 0 (tw=3) sends 666 to 1 and 333 to 2; nodes 1 and 2 send
    # their whole 1000 back to 0
    assert out[0] == 150 + (85 * 2000) // 100      # 1850
    assert out[1] == 150 + (85 * 666) // 100       # 716
    assert out[2] == 150 + (85 * 333) // 100       # 433


def test_tokenized_export_oov_and_fold(tmp_path):
    sf = _write_docs(tmp_path, ["a a b", "b c"],
                     ids=[1, 2])
    out = (queries.tokenized_export(sf).to_pandas()
           .sort_values("lang", ignore_index=True))
    # vocab by count desc, token asc: a(2) -> 1, b(2) -> 2, c(1) -> 3
    assert int(out["n_docs"].sum()) == 2
    assert int(out["n_tokens"].sum()) == 5
    assert int(out["id_sum"].sum()) == (1 + 1 + 2) + (2 + 3)
    assert int(out["n_oov"].sum()) == 0


def test_daily_interpolate_fills_interior_gap(tmp_path):
    # view: day 1 count 4, day 4 count 1 -> days 2, 3 interpolate
    # toward vp (3, 2); leading/trailing days stay absent.
    rows = []
    eid = 0
    for day, c in [(1, 4), (4, 1)]:
        for _ in range(c):
            rows.append((eid, 1, "view",
                         (day - 1) * 86_400_000_000 + eid))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "user_id",
                                     "event_type", "ts_us"])
    df["value"] = 1.0
    df["props"] = "{}"
    sf = _write_events(tmp_path, df)
    out = (queries.daily_interpolate(sf)
           .sort_values("d", ignore_index=True))
    got = list(zip(out["d"], out["n"], out["interpolated"]))
    assert got == [(1, 4, 0), (2, 3, 1), (3, 2, 1), (4, 1, 0)]


def test_funnel_strict_error_interrupts(tmp_path):
    # user 1: click -> error -> purchase (inside window): NOT strict.
    # user 2: click -> purchase, error AFTER the purchase: strict.
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5, 6],
        "user_id": [1, 1, 1, 2, 2, 2],
        "event_type": ["click", "error", "purchase",
                       "click", "purchase", "error"],
        "ts_us": [0, 1_000_000, 2_000_000,
                  0, 2_000_000, 3_000_000],
        "value": 1.0, "props": "{}"})
    sf = _write_events(tmp_path, df)
    out = (queries.funnel_strict(sf).to_pandas()
           .sort_values("user_id", ignore_index=True))
    assert list(out["n_clicks"]) == [1, 1]
    assert list(out["n_strict"]) == [0, 1]


def test_longest_token_run_crosses_blocks_not_docs(tmp_path):
    # doc 0 ends with 'x x' and doc 1 starts with 'x x x': the doc
    # boundary must break the run (max 2 vs 3, not 5)
    sf = _write_docs(tmp_path, ["a b x x", "x x x b a"], ids=[0, 1])
    out = (queries.longest_token_run(sf).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    got = dict(zip(out["doc_id"], out["run_len"]))
    assert got == {0: 2, 1: 3}


def test_dataset_card_dup_and_median(tmp_path):
    sf = _write_docs(tmp_path, ["same text", "same text", "other a b"],
                     ids=[1, 2, 3])
    out = queries.dataset_card(sf)
    m = {(r.metric, r.key): r.value for r in out.itertuples()}
    assert m[("n_docs", "")] == 3
    assert m[("n_dup_docs", "")] == 1
    assert m[("n_tokens", "")] == 2 + 2 + 3
    assert m[("median_chars", "")] == 9   # lower median of (9, 9, 9)


def test_ivfpq_prunes_to_probed_cells(tmp_path):
    # 12 vectors in two tight far-apart groups (positive vs negative
    # orthant): with KMEANS_K=8 seeds the coarse cells separate them;
    # query = vec 0 (positive group). The probed cells must contain
    # the positive group, so every returned neighbor is positive-side.
    rng = np.random.default_rng(3)
    pos = 1000.0 + rng.normal(0, 1, (6, 64))
    neg = -1000.0 + rng.normal(0, 1, (6, 64))
    emb = pd.DataFrame({
        "vec_id": np.arange(12, dtype=np.int64),
        "embedding": [v.tolist() for v in np.vstack([pos, neg])],
        "label": np.int32(0)})
    emb.to_parquet(tmp_path / "embeddings.parquet", index=False)
    out = queries.ivfpq_search(str(tmp_path)).to_pandas()
    assert len(out) > 0
    assert set(out["vec_id"]) <= set(range(1, 6))   # positive side only


def _check_sink_crash_safety(tmp_path, query, cache, tags, part):
    # simulate a crashed export: a marker-less output dir with a bogus
    # leftover file must be wiped and rewritten whole (ADVICE atomic-
    # sink rule, applied to every query-side sink)
    import os

    df = pd.DataFrame({
        "doc_id": np.array([1, 2], dtype=np.int64),
        "text": ["a b", "c d"], "lang": ["es", "es"],
        "source": "s0", "n_chars": np.int64(3)})
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    sf = str(tmp_path)
    fn = queries.QUERIES[query]
    # first run creates the cache; then sabotage it
    out1 = fn(sf).to_pandas()
    target = storage.input_cache_dir(cache, f"{sf}/documents.parquet",
                                     *tags)
    assert target.startswith(str(tmp_path))
    os.remove(os.path.join(target, "_SUCCESS"))
    ext = ".csv" if query == "csv_roundtrip" else ".parquet"
    junk = os.path.join(target, part, "junk" + ext)
    with open(junk, "w") as f:
        f.write("not " + ext)
    out2 = fn(sf).to_pandas()
    assert not os.path.exists(junk)     # junk wiped, clean rebuild
    pd.testing.assert_frame_equal(out1, out2)
    assert os.path.exists(os.path.join(target, "_SUCCESS"))


def test_sink_crash_safety_wipes_markerless_dir(tmp_path):
    _check_sink_crash_safety(tmp_path, "hive_roundtrip", "hive_rt", (),
                             "lang=es")


@pytest.mark.parametrize("query,cache,tags,part", [
    ("csv_roundtrip", "csv_rt", (), ""),
    ("tokenized_export", "tok_export", (f"v{queries.TOKV_SIZE}",), ""),
    ("range_partitioned_export", "rpe", (f"p{queries.RPE_PARTS}",),
     "part=0"),
])
def test_every_sink_crash_safety_wipes_markerless_dir(tmp_path, query,
                                                      cache, tags, part):
    _check_sink_crash_safety(tmp_path, query, cache, tags, part)


def test_user_entropy_uniform_and_pure(tmp_path):
    # user 1: two types 50/50 -> entropy = ln 2 = 693147 micro;
    # user 2: one type -> 0.
    df = pd.DataFrame({
        "event_id": [1, 2, 3],
        "user_id": [1, 1, 2],
        "event_type": ["click", "view", "click"],
        "ts_us": [0, 1, 2], "value": 1.0, "props": "{}"})
    sf = _write_events(tmp_path, df)
    out = (queries.user_entropy(sf).to_pandas()
           .sort_values("user_id", ignore_index=True))
    assert list(out["entropy_micro"]) == [
        2 * int(np.round(1_000_000.0 * 0.5 * np.log(2.0))), 0]
    assert list(out["n_events"]) == [2, 1]


def test_simhash_radius_pigeonhole_recall(tmp_path):
    # brute-force ALL pairs at radius <= 2 on a small corpus and check
    # the banded candidate path returns exactly that set
    from itertools import combinations

    from westa_ocr_ray.dedup import SimHasher
    texts = [f"doc {i} shared body tokens common words here" for i in
             range(6)] + ["totally different content entirely"] * 2
    sf = _write_docs(tmp_path, texts)
    out = queries.dedup_simhash_radius(sf).to_pandas()
    got = {(int(a), int(b)): int(h) for a, b, h in
           zip(out["doc_a"], out["doc_b"], out["hamming"])}
    hasher = SimHasher()
    sigs = [hasher.simhash(t) for t in texts]
    want = {}
    for i, j in combinations(range(len(texts)), 2):
        h = bin((sigs[i] ^ sigs[j]) & ((1 << 64) - 1)).count("1")
        if h <= queries.SIMHASH_RADIUS:
            want[(i, j)] = h
    assert got == want
