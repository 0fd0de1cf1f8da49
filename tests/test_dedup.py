"""Dedup operator tests against planted ground truth and pure-python
oracles (the SQL-expressible variants are additionally checked against
DuckDB by the driver via __ray_entry__.oracle_sql)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from westa_ocr_ray import dedup


def _docs_with_near_dups():
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lam mu nu xi omicron pi rho sigma tau upsilon")
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base},                              # exact dup
        {"doc_id": 3, "text": base.replace("theta", "THETA")},    # near dup
        {"doc_id": 4, "text": "completely different words entirely unrelated "
                              "content nothing shared here at all friends"},
        {"doc_id": 5, "text": base + " extra trailing tokens appended here"},  # near dup
    ]
    return rd.from_pandas(pd.DataFrame(rows))


def test_exact_dedup_first_wins():
    out = dedup.exact_dedup(_docs_with_near_dups()).to_pandas()
    dup_group = out[out["n_dups"] == 2]
    assert len(dup_group) == 1
    assert dup_group.iloc[0]["keeper_doc_id"] == 1  # first-wins = min id
    assert out["n_dups"].sum() == 5


def test_minhash_lsh_finds_planted_near_dups():
    pairs = dedup.minhash_lsh_pairs(_docs_with_near_dups(),
                                    jaccard_threshold=0.5).to_pandas()
    found = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (1, 2) in found          # exact dup → jaccard 100
    assert (1, 5) in found or (2, 5) in found   # appended-tokens near dup
    assert not any(4 in p for p in found)       # unrelated doc never pairs
    exact = pairs[(pairs["doc_a"] == 1) & (pairs["doc_b"] == 2)]
    assert int(exact["jaccard_pct"].iloc[0]) == 100


def test_minhash_signature_deterministic_and_similarity_correlates():
    mh = dedup.MinHasher(seed=42)
    base = "a b c d e f g h i j k l m n o p"
    sig1 = mh.signature(base)
    sig2 = dedup.MinHasher(seed=42).signature(base)
    assert (sig1 == sig2).all()
    near = mh.signature(base + " q")
    far = mh.signature("z y x w v u t s r q p o n m l k")
    agree_near = (sig1 == near).mean()
    agree_far = (sig1 == far).mean()
    assert agree_near > agree_far


def test_simhash_hamming_tracks_similarity():
    sh = dedup.SimHasher()
    base = "alpha beta gamma delta epsilon zeta eta theta"
    h1 = sh.simhash(base)
    h2 = sh.simhash(base.replace("eta", "ETA"))
    h3 = sh.simhash("totally different content with other words")

    def ham(a, b):
        return bin((a ^ b) & ((1 << 64) - 1)).count("1")

    assert ham(h1, h2) < ham(h1, h3)
    assert sh.simhash(base) == h1  # deterministic


def test_simhash_near_pairs_finds_planted():
    out = dedup.simhash_near_pairs(_docs_with_near_dups(),
                                   max_hamming=6).to_pandas()
    pairs = {(a, b) for a, b in zip(out["doc_a"], out["doc_b"])}
    assert (1, 2) in pairs  # exact dup → hamming 0
    ham = out.set_index(["doc_a", "doc_b"])["hamming"]
    assert ham.loc[(1, 2)] == 0
    assert not any(4 in p for p in pairs)


def test_ngram_jaccard_pairs_blocked():
    # docs 1,2,3,5 share the 2-token block "alpha beta"; 4 doesn't
    out = dedup.ngram_jaccard_pairs(_docs_with_near_dups(),
                                    threshold_pct=50).to_pandas()
    found = {(a, b) for a, b in zip(out["doc_a"], out["doc_b"])}
    assert (1, 2) in found
    assert not any(4 in p for p in found)


def test_dropped_pair_counter_on_pathological_bucket():
    # 250 identical docs blow past the 200-doc bucket cap: the counter
    # must report the skipped slots instead of truncating silently.
    n = 250
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": ["same exact content for every single doc here"] * n,
    }))
    pairs, stats = dedup.ngram_jaccard_pairs(ds, with_stats=True)
    per_block = n * (n - 1) // 2 - 200 * 199 // 2
    assert stats["dropped_candidate_pairs"] == per_block
    assert pairs.count() == 200 * 199 // 2

    _, mh_stats = dedup.minhash_lsh_pairs(ds, with_stats=True)
    # identical docs share every band: 16 bands × one capped bucket each
    assert mh_stats["dropped_candidate_pairs"] == 16 * per_block


def test_cluster_pairs_transitive():
    pairs = pd.DataFrame({"doc_a": [1, 2, 7], "doc_b": [2, 3, 9]})
    out = dedup.cluster_pairs(pairs)
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {1: 1, 2: 1, 3: 1, 7: 7, 9: 7}


def test_dedup_by_minhash_end_to_end():
    kept = dedup.dedup_by_minhash(_docs_with_near_dups()).to_pandas()
    ids = set(kept["doc_id"])
    assert 1 in ids and 4 in ids            # cluster min + unrelated doc kept
    assert 2 not in ids                     # exact dup of 1 removed
    # near dups (3, 5) cluster with 1 when verified jaccard >= 50
    assert len(ids) < 5
    assert set(kept.columns) == {"doc_id", "text"}


def test_embedding_near_dup_pairs():
    rng = np.random.RandomState(0)
    v = rng.standard_normal(16)
    rows = [
        {"vec_id": 1, "embedding": v.tolist(), "label": 0},
        {"vec_id": 2, "embedding": (v + 0.01 * rng.standard_normal(16)).tolist(),
         "label": 0},
        {"vec_id": 3, "embedding": rng.standard_normal(16).tolist(), "label": 0},
        {"vec_id": 4, "embedding": v.tolist(), "label": 1},  # other partition
    ]
    out = dedup.embedding_near_dup_pairs(
        rd.from_pandas(pd.DataFrame(rows)), threshold=0.95).to_pandas()
    pairs = {(a, b) for a, b in zip(out["vec_id_a"], out["vec_id_b"])}
    assert pairs == {(1, 2)}


def _assert_partitioned_cc_matches_union_find(edges: pd.DataFrame) -> None:
    exp = dedup.cluster_pairs(edges).sort_values("doc_id", ignore_index=True)
    got = (dedup.connected_components_partitioned(rd.from_pandas(edges))
           .to_pandas().sort_values("doc_id", ignore_index=True))
    pd.testing.assert_frame_equal(
        got[["doc_id", "cluster_id"]].astype("int64"),
        exp[["doc_id", "cluster_id"]].astype("int64"))


def test_connected_components_partitioned_matches_union_find():
    # chains of length 4 plus cross-links: converges in a few pointer-
    # jumping rounds
    rows = []
    for k in range(0, 30, 3):
        rows += [(k, k + 1), (k + 1, k + 2)]
    rows += [(2, 15), (8, 27)]  # merge some chains transitively
    _assert_partitioned_cc_matches_union_find(
        pd.DataFrame(rows, columns=["doc_a", "doc_b"]))


def test_connected_components_partitioned_random_graph_matches_union_find():
    rng = np.random.RandomState(3)
    edges = pd.DataFrame({
        "doc_a": rng.randint(0, 120, size=150),
        "doc_b": rng.randint(0, 120, size=150),
    })
    _assert_partitioned_cc_matches_union_find(
        edges[edges["doc_a"] != edges["doc_b"]].reset_index(drop=True))


def test_dedup_by_minhash_large_path_matches_small_path():
    # force the no-driver branch (partitioned CC + join-based drop) and
    # require identical survivors to the union-find branch
    small = dedup.dedup_by_minhash(_docs_with_near_dups()).to_pandas()
    large = dedup.dedup_by_minhash(_docs_with_near_dups(),
                                   small_pairs_threshold=0).to_pandas()
    assert sorted(large["doc_id"]) == sorted(small["doc_id"])
    assert set(large.columns) == {"doc_id", "text"}


def test_connected_components_partitioned_string_ids():
    # the flagship corpus produces STRING doc_ids; the partitioned CC
    # hashes them to int64 internally and joins the originals back
    edges = pd.DataFrame(
        [("doc_a1", "doc_a2"), ("doc_a2", "doc_a3"), ("doc_b1", "doc_b2")],
        columns=["doc_a", "doc_b"])
    got = (dedup.connected_components_partitioned(rd.from_pandas(edges))
           .to_pandas())
    by = got.set_index("doc_id")["cluster_id"]
    assert len(got) == 5
    assert by["doc_a1"] == by["doc_a2"] == by["doc_a3"]
    assert by["doc_b1"] == by["doc_b2"]
    assert by["doc_a1"] != by["doc_b1"]
    # the representative is a member of its own cluster
    assert set(got["cluster_id"]).issubset(set(got["doc_id"]))


def test_dedup_by_minhash_large_path_string_ids():
    # the at-scale route (partitioned CC + join drop filter) must work on
    # string doc_ids end-to-end (ADVICE r2: it used to crash here)
    def stringify(df):
        df = df.copy()
        df["doc_id"] = "doc_" + df["doc_id"].astype(str)
        return df

    docs = _docs_with_near_dups().map_batches(stringify, batch_format="pandas")
    small = dedup.dedup_by_minhash(docs).to_pandas()
    large = dedup.dedup_by_minhash(docs, small_pairs_threshold=0).to_pandas()
    assert sorted(large["doc_id"]) == sorted(small["doc_id"])
    assert len(small) < 5  # some near-dups actually dropped


def test_shingle_table_matches_python_and_sql_convention():
    rows = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a b c d e f", "x y", "p q r s"]})
    got = (dedup.shingle_table(rd.from_pandas(rows), n=4).to_pandas()
           .sort_values(["doc_id", "g"], ignore_index=True))
    exp = []
    for _, r in rows.iterrows():
        toks = r["text"].split(" ")
        for i in range(max(1, len(toks) - 3)):
            exp.append((r["doc_id"], " ".join(toks[i:i + 4])))
    exp = sorted(exp)
    assert list(map(tuple, got.to_numpy())) == exp
    # a doc shorter than n contributes its whole text once
    assert list(got[got["doc_id"] == 2]["g"]) == ["x y"]


def test_decontaminate_drops_overlapping_docs():
    bench = pd.DataFrame({"doc_id": [100],
                          "text": ["alpha beta gamma delta epsilon"]})
    pool = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["zz alpha beta gamma delta yy",   # shares a 4-gram -> drop
                 "alpha beta zeta gamma delta",    # no shared 4-gram -> keep
                 "one two three four five six"]})  # disjoint -> keep
    got = dedup.decontaminate(rd.from_pandas(pool), rd.from_pandas(bench),
                              n=4, cols=["doc_id", "text"]).to_pandas()
    assert sorted(got["doc_id"]) == [2, 3]


def test_containment_pairs_and_drop():
    rows = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6, 7],
        "text": [
            "a b c d e f g h",          # container of 2 and 3
            "c d e f",                  # contained mid-sequence in 1
            "a b c d e f g h",          # exact dup of 1 -> first wins: drop 3
            "b c d",                    # < 4 tokens: never considered
            "q r s t",                  # contained in no one
            "x c d e f z",              # contains 2's tokens -> also a container of 2
            "bc d e f g",               # token seq NOT contiguous in 1 ("bc" != "b c")
        ]})
    ds = rd.from_pandas(rows)
    pairs = (dedup.containment_pairs(ds, n=4).to_pandas()
             .sort_values(["contained_doc_id", "container_doc_id"],
                          ignore_index=True))
    assert list(map(tuple, pairs.to_numpy())) == [
        (2, 1), (2, 3), (2, 6), (3, 1)]
    kept = dedup.drop_contained(ds, n=4, cols=["doc_id", "text"]).to_pandas()
    assert sorted(kept["doc_id"]) == [1, 4, 5, 6, 7]


def test_contamination_report_counts_and_zeros():
    bench = pd.DataFrame({"doc_id": [100, 101],
                          "text": ["alpha beta gamma delta epsilon",
                                   "nine ten eleven twelve"]})
    corpus = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["zz alpha beta gamma delta yy",   # overlaps bench 100
                 "xx alpha beta gamma delta",      # overlaps bench 100
                 "one two three four five six"]})  # overlaps nothing
    got = (dedup.contamination_report(rd.from_pandas(corpus),
                                      rd.from_pandas(bench), n=4)
           .to_pandas().sort_values("bench_doc_id", ignore_index=True))
    assert list(map(tuple, got.to_numpy())) == [(100, 2), (101, 0)]


def test_remove_duplicate_chunks_strips_shared_passages():
    shared = " ".join(f"s{i}" for i in range(10))       # one full chunk
    rows = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [shared + " a b c",        # shared chunk + 3-token tail
                 shared + " d e",          # same shared chunk elsewhere
                 "u v w x y z"]})          # untouched
    got = (dedup.remove_duplicate_chunks(rd.from_pandas(rows),
                                         chunk_tokens=10, min_docs=2)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert list(map(tuple, got[["doc_id", "text"]].to_numpy())) == [
        (1, "a b c"), (2, "d e"), (3, "u v w x y z")]
    assert list(got["n_chunks_kept"]) == [1, 1, 1]


def test_remove_duplicate_chunks_fully_duplicated_doc_disappears():
    shared = " ".join(f"s{i}" for i in range(10))
    rows = pd.DataFrame({
        "doc_id": [1, 2],
        "text": [shared,                   # every chunk duplicated -> gone
                 shared + " tail"]})
    got = dedup.remove_duplicate_chunks(rd.from_pandas(rows),
                                        chunk_tokens=10,
                                        min_docs=2).to_pandas()
    assert list(got["doc_id"]) == [2] and list(got["text"]) == ["tail"]


def test_remove_duplicate_chunks_in_doc_repeat_is_not_cross_doc():
    chunk = " ".join(f"r{i}" for i in range(5))
    rows = pd.DataFrame({
        "doc_id": [1, 2],
        "text": [chunk + " " + chunk,      # repeated within ONE doc only
                 "p q r s t"]})
    got = (dedup.remove_duplicate_chunks(rd.from_pandas(rows),
                                         chunk_tokens=5, min_docs=2)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    # both in-doc copies survive, order preserved
    assert list(got["text"]) == [chunk + " " + chunk, "p q r s t"]


def test_dedup_incremental_drops_base_and_within_batch():
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray import dedup

    base = pd.DataFrame({"doc_id": [100, 101],
                         "text": ["already ingested", "old news"]})
    new = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["already ingested",   # exact dup of base -> dropped
                 "fresh doc one",
                 "fresh doc two",
                 "fresh doc one",      # dup within the new batch -> first wins
                 "old news"]})         # dup of base -> dropped
    out = (dedup.dedup_incremental(rd.from_pandas(new), rd.from_pandas(base))
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert list(out["doc_id"]) == [2, 3]
    # union base+result is exactly deduplicated: rerunning with the
    # merged base drops everything
    merged = pd.concat([base, new[new["doc_id"].isin([2, 3])]])
    again = dedup.dedup_incremental(rd.from_pandas(new),
                                    rd.from_pandas(merged)).to_pandas()
    assert len(again) == 0


def test_embedding_near_dup_lsh_recall_and_precision():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray import dedup

    rng = np.random.RandomState(7)
    rows = []
    vid = 0
    # 12 clusters of 3 near-identical vectors + 40 background vectors
    for c in range(12):
        base = rng.randn(16)
        for _ in range(3):
            rows.append({"vec_id": vid, "label": c,
                         "embedding": (base + 0.05 * rng.randn(16)).tolist()})
            vid += 1
    for _ in range(40):
        rows.append({"vec_id": vid, "label": -1,
                     "embedding": rng.randn(16).tolist()})
        vid += 1
    emb = rd.from_pandas(pd.DataFrame(rows))

    # exact truth: all-pairs cosine over the tiny fixture
    m = np.stack([r["embedding"] for r in rows]).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    iu = np.triu_indices(len(rows), k=1)
    truth = {(int(min(a, b)), int(max(a, b)))
             for a, b in zip(iu[0][sims[iu] > 0.8], iu[1][sims[iu] > 0.8])}
    assert len(truth) >= 12 * 3  # the planted clusters

    got_df = dedup.embedding_near_dup_lsh(emb, threshold=0.8, n_tables=6,
                                          n_planes=4).to_pandas()
    got = {(int(a), int(b))
           for a, b in zip(got_df["vec_id_a"], got_df["vec_id_b"])}
    assert got <= truth                      # precision exact
    assert len(got & truth) / len(truth) >= 0.8   # banding recall
    # no duplicate pairs across tables
    assert len(got_df) == len(got)


def test_self_overlap_matches_python_oracle():
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray import dedup

    rows = [{"doc_id": 1, "text": "a b c d e f"},       # shares a-b-c-d w/ 2
            {"doc_id": 2, "text": "a b c d x y"},
            {"doc_id": 3, "text": "p q r s p q r s"},   # self-repeated shingle
            {"doc_id": 4, "text": "u v"}]               # short doc: 1 shingle
    out = (dedup.self_overlap(rd.from_pandas(pd.DataFrame(rows)), n=4)
           .to_pandas().sort_values("doc_id", ignore_index=True))

    def shingles(t):
        toks = t.split(" ")
        if len(toks) < 4:
            return [t]
        return [" ".join(toks[i:i + 4]) for i in range(len(toks) - 3)]

    from collections import Counter
    corpus = Counter(g for r in rows for g in shingles(r["text"]))
    for _, r in out.iterrows():
        mine = set(shingles([x["text"] for x in rows
                             if x["doc_id"] == r["doc_id"]][0]))
        assert r["n_shingles"] == len(mine)
        assert r["n_shared"] == sum(1 for g in mine if corpus[g] >= 2)
    # doc 3's 'p q r s' occurs twice within itself -> counted as shared
    d3 = out[out["doc_id"] == 3].iloc[0]
    assert d3["n_shared"] >= 1
    # doc 4 is unique boilerplate-free -> nothing shared
    assert out[out["doc_id"] == 4].iloc[0]["n_shared"] == 0


def test_semantic_dedup_planted_clusters():
    # two tight clusters + one singleton; centroids = 3 smallest ids.
    # Near-identical vectors inside a cluster dedup down to the
    # smallest id; the pairwise (not greedy-chain) drop rule keeps a
    # vector only if NO smaller-id same-cluster vector is near it.
    rng = np.random.RandomState(7)
    a = rng.standard_normal(16)
    b = rng.standard_normal(16)
    c = rng.standard_normal(16)
    rows = [
        {"vec_id": 1, "embedding": a.tolist()},
        {"vec_id": 2, "embedding": b.tolist()},
        {"vec_id": 3, "embedding": c.tolist()},
        {"vec_id": 4, "embedding": (a + 0.01 * rng.standard_normal(16)).tolist()},
        {"vec_id": 5, "embedding": (a + 0.01 * rng.standard_normal(16)).tolist()},
        {"vec_id": 6, "embedding": (b + 0.01 * rng.standard_normal(16)).tolist()},
    ]
    out = dedup.semantic_dedup(rd.from_pandas(pd.DataFrame(rows)),
                               n_clusters=3, threshold=0.95).to_pandas()
    kept = dict(zip(out["vec_id"], out["cluster"]))
    # 4 and 5 collapse into 1 (cluster 0); 6 collapses into 2 (cluster 1)
    assert kept == {1: 0, 2: 1, 3: 2}


def test_upsert_compact_latest_version_wins():
    rows = [
        {"doc_id": 1, "text": "v0", "version": 0},
        {"doc_id": 1, "text": "v2", "version": 2},
        {"doc_id": 1, "text": "v1", "version": 1},
        {"doc_id": 2, "text": "only", "version": 5},
        {"doc_id": 3, "text": "a", "version": 0},
        {"doc_id": 3, "text": "b", "version": 1},
    ]
    out = (dedup.upsert_compact(rd.from_pandas(pd.DataFrame(rows))
                                .repartition(3))
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert list(out["doc_id"]) == [1, 2, 3]
    assert list(out["text"]) == ["v2", "only", "b"]
    assert list(out["version"]) == [2, 5, 1]


def test_dedup_incremental_fuzzy_drops_near_copies_of_base():
    base_rows = [
        {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog today"},
        {"doc_id": 2, "text": "completely different base content about engines"},
    ]
    new_rows = [
        # near-copy of base doc 1 (one token changed)
        {"doc_id": 10, "text": "the quick brown fox jumps over the lazy cat today"},
        # genuinely new
        {"doc_id": 11, "text": "unrelated fresh document with novel words entirely"},
        # exact copy of base doc 2
        {"doc_id": 12, "text": "completely different base content about engines"},
    ]
    kept = dedup.dedup_incremental_fuzzy(
        rd.from_pandas(pd.DataFrame(new_rows)),
        rd.from_pandas(pd.DataFrame(base_rows)),
        jaccard_threshold=0.5).to_pandas()
    assert sorted(kept["doc_id"]) == [11]


def test_cdc_chunk_pairs_resynchronize_after_insertion():
    """The CDC property the op exists for: inserting one token near the
    start of a copied doc still leaves most chunks shared (boundaries
    re-synchronize), where fixed-width chunks would all shift."""
    import numpy as np

    from westa_ocr_ray import dedup

    rng = np.random.RandomState(5)
    base = " ".join(f"w{rng.randint(0, 5000)}" for _ in range(400))
    edited = "INSERTED " + base
    ds = rd.from_items([
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": edited},
        {"doc_id": 3, "text": " ".join(
            f"q{rng.randint(0, 5000)}" for _ in range(400))},
    ]).repartition(3)

    pairs = dedup.cdc_chunk_pairs(ds).to_pandas()
    assert set(zip(pairs["doc_a"], pairs["doc_b"])) == {(1, 2)}
    n_shared = int(pairs["n_shared_chunks"].iloc[0])

    # fixed-width chunks on the same edit share (almost) nothing
    fixed = dedup.shared_chunk_pairs(ds).to_pandas()
    n_fixed = (int(fixed["n_shared_chunks"].iloc[0])
               if len(fixed) else 0)
    assert n_shared >= 5
    assert n_shared > n_fixed


def test_cdc_chunk_pairs_layout_independent():
    from westa_ocr_ray import dedup

    rows = [{"doc_id": i,
             "text": " ".join(f"t{(i * 7 + j) % 40}" for j in range(120))}
            for i in range(30)]
    a = (dedup.cdc_chunk_pairs(rd.from_items(rows).repartition(1))
         .to_pandas().sort_values(["doc_a", "doc_b"], ignore_index=True))
    b = (dedup.cdc_chunk_pairs(rd.from_items(rows).repartition(9))
         .to_pandas().sort_values(["doc_a", "doc_b"], ignore_index=True))
    pd.testing.assert_frame_equal(a, b)


def test_remove_duplicate_spans_planted():
    """Sliding-window span removal: a >=W-token region shared by two
    docs is cut WHOLE from both (overlapping windows merge into one
    maximal span, no chunk-grid boundary effects); an in-doc self-repeat
    counts toward min_count; short/unique docs pass untouched with
    n_removed=0; a fully-duplicated doc disappears."""
    shared = " ".join(f"s{i}" for i in range(12))  # 12-token dup region
    rep = " ".join(f"r{i}" for i in range(8))      # 8-token self-repeat
    rows = [
        {"doc_id": 1, "text": f"a0 a1 a2 {shared} a3 a4"},
        {"doc_id": 2, "text": f"b0 {shared} b1 b2 b3"},
        {"doc_id": 3, "text": f"c0 c1 {rep} c2 {rep} c3"},
        {"doc_id": 4, "text": "short unique doc"},
        {"doc_id": 5, "text": shared},  # fully covered -> disappears
    ]
    got = (dedup.remove_duplicate_spans(
        rd.from_items(rows).repartition(3), window_tokens=8, min_count=2)
        .to_pandas().sort_values("doc_id", ignore_index=True))

    by = {int(r.doc_id): r for r in got.itertuples()}
    assert set(by) == {1, 2, 3, 4}
    assert by[1].text == "a0 a1 a2 a3 a4" and by[1].n_removed == 12
    assert by[2].text == "b0 b1 b2 b3" and by[2].n_removed == 12
    assert by[3].text == "c0 c1 c2 c3" and by[3].n_removed == 16
    assert by[4].text == "short unique doc" and by[4].n_removed == 0

    # no window repeats anywhere: every doc passes through untouched
    unique = [{"doc_id": i, "text": " ".join(f"u{i}w{j}" for j in range(10))}
              for i in range(3)]
    got = (dedup.remove_duplicate_spans(
        rd.from_items(unique).repartition(3), window_tokens=8, min_count=2)
        .to_pandas().sort_values("doc_id", ignore_index=True))
    assert got["text"].tolist() == [r["text"] for r in unique]
    assert got["n_removed"].tolist() == [0, 0, 0]


def test_remove_duplicate_spans_layout_independent():
    shared = " ".join(f"z{i}" for i in range(10))
    rows = [{"doc_id": i,
             "text": " ".join(f"d{i}w{j}" for j in range(30))
             + (f" {shared}" if i % 3 == 0 else "")}
            for i in range(20)]
    a = (dedup.remove_duplicate_spans(rd.from_items(rows).repartition(1))
         .to_pandas().sort_values("doc_id", ignore_index=True))
    b = (dedup.remove_duplicate_spans(rd.from_items(rows).repartition(7))
         .to_pandas().sort_values("doc_id", ignore_index=True))
    pd.testing.assert_frame_equal(a, b)


# ------------------------------------------------------------- edit1

def _ref_lev(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1,
                                     prev + (ca != cb))
    return dp[len(b)]


def test_ed_le1_matches_dp_reference():
    import random
    rng = random.Random(7)
    for _ in range(3000):
        a = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 7)))
        b = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 7)))
        d = _ref_lev(a, b)
        e = dedup._ed_le1(a, b)
        assert e == (d if d <= 1 else -1), (a, b, d, e)


def test_fastss_deletion_neighborhood_complete():
    """ed(a,b)<=1 implies D(a) and D(b) share a member, where
    D(x) = {x} union single-deletion variants — the completeness
    property editk_pairs(k=1)'s candidate generation rests on."""
    import random
    rng = random.Random(11)

    def D(x):
        return {x} | {x[:j] + x[j + 1:] for j in range(len(x))}

    for _ in range(8000):
        a = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        if _ref_lev(a, b) <= 1:
            assert D(a) & D(b), (a, b)


def test_fastss_depth2_closure_complete():
    """ed(a,b)<=2 implies the depth-2 deletion closures intersect —
    editk_pairs(k=2)'s candidate-completeness property."""
    import random
    rng = random.Random(13)

    for _ in range(4000):
        a = "".join(rng.choice("ab") for _ in range(rng.randint(0, 7)))
        b = "".join(rng.choice("ab") for _ in range(rng.randint(0, 7)))
        if _ref_lev(a, b) <= 2:
            assert (dedup._deletion_closure(a, 2)
                    & dedup._deletion_closure(b, 2)), (a, b)


def test_ed_banded_matches_dp_reference():
    import random
    rng = random.Random(23)
    for _ in range(2000):
        a = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 8)))
        d = _ref_lev(a, b)
        for k in (1, 2, 3):
            e = dedup._ed_banded(a, b, k)
            assert e == (d if d <= k else -1), (a, b, k, d, e)


def _assert_editk_pairs_match_bruteforce(rows, k):
    df = pd.DataFrame(rows, columns=["doc_id", "title"])
    out = (dedup.editk_pairs(rd.from_pandas(df), id_col="doc_id",
                             key_col="title", k=k)
           .to_pandas().sort_values(["doc_a", "doc_b"],
                                    ignore_index=True))
    want = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = _ref_lev(rows[i][1], rows[j][1])
            if d <= k:
                want.append((rows[i][0], rows[j][0], d))
    want_df = (pd.DataFrame(want, columns=["doc_a", "doc_b", "dist"])
               .sort_values(["doc_a", "doc_b"], ignore_index=True))
    assert out.astype("int64").equals(want_df.astype("int64"))


def test_edit1_pairs_vs_bruteforce(ray_session):
    """editk_pairs(k=1), the path q_dedup_edit1 runs."""
    _assert_editk_pairs_match_bruteforce([
        (1, "red apple pie"),
        (2, "red apple pie"),     # dist 0
        (3, "red apple pies"),    # dist 1 (insert) vs 1/2
        (4, "red apgle pie"),     # dist 1 (substitution) vs 1/2
        (5, "red aple pie"),      # dist 1 (delete) vs 1/2; vs 4 dist 2
        (6, "green apple pie"),   # dist > 1 vs everything
        (7, "x"),
        (8, ""),                  # empty vs "x" -> dist 1
    ], k=1)


def test_editk_pairs_vs_bruteforce(ray_session):
    _assert_editk_pairs_match_bruteforce([
        (1, "red apple pie"),
        (2, "red apple pie"),
        (3, "red apple pies"),
        (4, "red apgle pie"),
        (5, "rad apgle pie"),     # dist 2 from 1/2 (two subs)
        (6, "red pie"),           # far from all
        (7, "red apple"),         # dist 4 from 1 ("_pie")
        (8, ""),
        (9, "ab"),                # dist 2 from ""
    ], k=2)


def _jaccard_pct(a: str, b: str, shingle: int) -> int:
    """Scalar reference for dedup._jaccard_pct_batch: integer Jaccard
    percent of the two texts' shingle sets, 100*inter // union."""
    ta, tb = a.split(" "), b.split(" ")
    sa = {" ".join(ta[i:i + shingle]) for i in range(max(1, len(ta) - shingle + 1))}
    sb = {" ".join(tb[i:i + shingle]) for i in range(max(1, len(tb) - shingle + 1))}
    inter = len(sa & sb)
    return (100 * inter) // (len(sa) + len(sb) - inter) if inter else 0


def test_jaccard_pct_batch_matches_scalar_fuzz():
    """The vectorized verify kernel (VERDICT r4 item 4) must reproduce
    the scalar _jaccard_pct reference exactly — including the inter==0
    short-circuit, the floor division, repeated-text pairs, and
    single-token texts."""
    rng = np.random.default_rng(7)
    vocab = np.array([f"w{i}" for i in range(30)])
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 25)))
             for _ in range(40)]
    texts += ["solo", "solo", "a b c", ""]
    a = [texts[i] for i in rng.integers(0, len(texts), 200)]
    b = [texts[i] for i in rng.integers(0, len(texts), 200)]
    for shingle in (1, 2, 3):
        got = dedup._jaccard_pct_batch(a, b, shingle)
        exp = np.array([_jaccard_pct(x, y, shingle)
                        for x, y in zip(a, b)], dtype=np.int32)
        assert np.array_equal(got, exp)
    assert dedup._jaccard_pct_batch([], [], 3).size == 0
