"""Training-shard export: deterministic md5 assignment, partitioned
layout, _SUCCESS resume skip, and stats-vs-direct equality."""

import glob
import os

import pandas as pd
import ray.data as rd

from westa_ocr_ray import shards
from westa_ocr_ray.dedup import md5_hex


def _docs(n=200):
    return pd.DataFrame({"doc_id": range(n),
                         "n_chars": [10 + (i % 7) for i in range(n)]})


def test_shard_assign_deterministic_and_layout(tmp_path):
    df = _docs()
    out = str(tmp_path / "shards")
    shards.export_training_shards(rd.from_pandas(df), out, num_shards=8)
    assert os.path.exists(os.path.join(out, "_SUCCESS"))
    dirs = sorted(glob.glob(os.path.join(out, "shard=*")))
    assert 1 < len(dirs) <= 8
    back = pd.read_parquet(out).sort_values("doc_id", ignore_index=True)
    assert len(back) == len(df)
    # hive partition column round-trips; assignment matches the md5 rule
    exp = [int(md5_hex(str(i))[:8], 16) % 8 for i in df["doc_id"]]
    assert list(back["shard"].astype(int)) == exp


def test_export_resume_skips_on_marker(tmp_path):
    out = str(tmp_path / "s2")
    shards.export_training_shards(rd.from_pandas(_docs(50)), out, num_shards=4)
    before = sorted(glob.glob(os.path.join(out, "**", "*.parquet"),
                              recursive=True))
    mtimes = [os.path.getmtime(p) for p in before]
    shards.export_training_shards(rd.from_pandas(_docs(50)), out, num_shards=4)
    after = sorted(glob.glob(os.path.join(out, "**", "*.parquet"),
                             recursive=True))
    assert before == after
    assert mtimes == [os.path.getmtime(p) for p in after]


def test_export_wipes_markerless_dir(tmp_path):
    # a crashed export leaves uuid-named files and no marker; the re-run
    # must not read them back next to its own
    df = _docs(50)
    out = str(tmp_path / "s3")
    os.makedirs(os.path.join(out, "shard=0"))
    planted = os.path.join(out, "shard=0", "part-crashed.parquet")
    df.head(5).to_parquet(planted, index=False)
    shards.export_training_shards(rd.from_pandas(df), out, num_shards=4)
    assert not os.path.exists(planted)
    back = pd.read_parquet(out)
    assert len(back) == len(df)
    assert sorted(back["doc_id"]) == list(df["doc_id"])


def test_shard_stats_matches_direct():
    df = _docs(300)
    stats = (shards.shard_stats(rd.from_pandas(df), num_shards=8)
             .to_pandas().sort_values("shard", ignore_index=True))
    df = df.copy()
    df["shard"] = [int(md5_hex(str(i))[:8], 16) % 8 for i in df["doc_id"]]
    exp = (df.groupby("shard").agg(n_docs=("doc_id", "size"),
                                   sum_n_chars=("n_chars", "sum"))
           .reset_index())
    assert list(stats["shard"]) == list(exp["shard"])
    assert list(stats["n_docs"]) == list(exp["n_docs"])
    assert list(stats["sum_n_chars"]) == list(exp["sum_n_chars"])


def test_shuffle_rank_matches_md5_order_any_layout():
    df = _docs(300)
    exp = df.copy()
    exp["k"] = [md5_hex(f"7|{i}") for i in exp["doc_id"]]
    exp = exp.sort_values(["k", "doc_id"], ignore_index=True)
    expected = {d: r for r, d in enumerate(exp["doc_id"])}
    for nblocks in (1, 7):
        ds = rd.from_pandas(df).repartition(nblocks)
        out = shards.shuffle_rank(ds, seed=7).to_pandas()
        got = dict(zip(out["doc_id"], out["rank"]))
        assert got == expected  # a 0..n-1 permutation, layout-independent
        assert sorted(out.columns) == ["doc_id", "n_chars", "rank"]


def test_shuffle_rank_seed_changes_order():
    ds = rd.from_pandas(_docs(100))
    a = shards.shuffle_rank(ds, seed=1).to_pandas()
    b = shards.shuffle_rank(ds, seed=2).to_pandas()
    pa = dict(zip(a["doc_id"], a["rank"]))
    pb = dict(zip(b["doc_id"], b["rank"]))
    assert sorted(pa.values()) == list(range(100))
    assert pa != pb


def test_curriculum_rank_stage_then_shuffle():
    import numpy as np
    df = _docs(240)
    df["stage"] = (df["doc_id"] % 3).astype("int64")
    exp = df.copy()
    exp["k"] = [md5_hex(f"5|{i}") for i in exp["doc_id"]]
    exp = exp.sort_values(["stage", "k", "doc_id"], ignore_index=True)
    expected = {d: r for r, d in enumerate(exp["doc_id"])}
    out = shards.shuffle_rank(rd.from_pandas(df).repartition(5), seed=5,
                              stage_col="stage").to_pandas()
    assert dict(zip(out["doc_id"], out["rank"])) == expected
    # every stage-0 rank precedes every stage-1 rank, etc.
    by_stage = out.groupby("stage")["rank"]
    assert by_stage.max()[0] < by_stage.min()[1] < by_stage.max()[1] \
        < by_stage.min()[2]


def test_mixture_sample_deterministic_and_weighted():
    df = _docs(2000)
    df["lang"] = [["a", "b", "c"][i % 3] for i in range(len(df))]
    w = {"a": 1.0, "b": 0.5, "c": 0.0}
    kept_sets = []
    for nblocks in (1, 9):
        ds = rd.from_pandas(df).repartition(nblocks)
        out = shards.mixture_sample(ds, w, key_col="lang", seed=3).to_pandas()
        kept_sets.append(set(out["doc_id"]))
    assert kept_sets[0] == kept_sets[1]          # layout-independent
    out = df[df["doc_id"].isin(kept_sets[0])]
    by = out.groupby("lang").size()
    assert by.get("a", 0) == (df["lang"] == "a").sum()   # weight 1 keeps all
    assert "c" not in by.index                            # weight 0 drops all
    frac_b = by.get("b", 0) / (df["lang"] == "b").sum()
    assert 0.4 < frac_b < 0.6                             # ~half kept
    # the coin is the documented md5 rule
    for i in kept_sets[0]:
        lang = ["a", "b", "c"][i % 3]
        thr = shards.mixture_threshold_hex(w[lang])
        assert thr is None or md5_hex(f"3|{i}")[:8] < thr


def test_epoch_oversample_factors_and_epochs():
    df = _docs(90)
    df["lang"] = [["a", "b", "c"][i % 3] for i in range(len(df))]
    out = shards.epoch_oversample(rd.from_pandas(df).repartition(4),
                                  {"a": 2, "b": 0, "c": 3},
                                  key_col="lang").to_pandas()
    by = out.groupby("lang").size()
    assert by.get("a", 0) == 60 and "b" not in by.index and by["c"] == 90
    per_doc = out.groupby("doc_id")["epoch"].apply(sorted)
    for did, eps in per_doc.items():
        want = {"a": [0, 1], "c": [0, 1, 2]}[["a", "b", "c"][did % 3]]
        assert eps == want


def test_train_val_split_deterministic_and_stable_under_growth():
    import numpy as np
    small = _docs(400)
    big = _docs(800)                      # superset: first 400 ids shared
    a = shards.train_val_split(rd.from_pandas(small), val_frac=0.1,
                               seed=9).to_pandas()
    b = shards.train_val_split(rd.from_pandas(big).repartition(5),
                               val_frac=0.1, seed=9).to_pandas()
    ma = dict(zip(a["doc_id"], a["split"]))
    mb = dict(zip(b["doc_id"], b["split"]))
    assert all(mb[d] == s for d, s in ma.items())   # growth never flips
    frac = (a["split"] == "val").mean()
    assert 0.04 < frac < 0.2
    thr = shards.mixture_threshold_hex(0.1)
    for d, s in ma.items():
        assert (md5_hex(f"9|{d}")[:8] < thr) == (s == "val")


def _budget_reference(df, budget, seed=7):
    """Serial reference: greedy per-group prefix in (md5 key, id) order."""
    df = df.copy()
    df["n_tok"] = df["text"].str.count(" ") + 1
    df["sk"] = [md5_hex(f"{seed}|{i}") for i in df["doc_id"]]
    keep = []
    for _, g in df.groupby("lang"):
        g = g.sort_values(["sk", "doc_id"])
        cum = 0
        for _, r in g.iterrows():
            if cum < budget:
                keep.append((r["doc_id"], r["lang"], r["n_tok"]))
            cum += r["n_tok"]
    return sorted(keep)


def test_token_budget_sample_matches_serial_reference():
    df = pd.DataFrame({
        "doc_id": range(60),
        "lang": [["en", "de", "fr"][i % 3] for i in range(60)],
        "text": [" ".join(f"w{j}" for j in range(3 + i % 9))
                 for i in range(60)]})
    got = (shards.token_budget_sample(rd.from_pandas(df), budget_tokens=40)
           .to_pandas())
    assert sorted(map(tuple, got.to_numpy())) == _budget_reference(df, 40)
    # greedy rule: each lang's kept tokens overshoot by at most one doc
    per = got.groupby("lang")["n_tok"].sum()
    assert (per < 40 + got["n_tok"].max()).all() and (per > 0).all()


def test_token_budget_sample_block_layout_invariant(monkeypatch):
    df = pd.DataFrame({
        "doc_id": range(50),
        "lang": ["en" if i % 2 else "de" for i in range(50)],
        "text": ["a b c d e"] * 50})
    a = shards.token_budget_sample(rd.from_pandas(df), budget_tokens=30)
    monkeypatch.setattr(shards, "RANGE_BUCKETS", 5)
    b = shards.token_budget_sample(
        rd.from_pandas(df).repartition(11), budget_tokens=30)
    key = lambda d: sorted(map(tuple, d.to_pandas().to_numpy()))
    assert key(a) == key(b)


def test_token_budget_sample_tok_col_and_huge_budget():
    df = pd.DataFrame({"doc_id": range(10), "lang": ["en"] * 10,
                       "text": ["x"] * 10, "nt": [5] * 10})
    got = shards.token_budget_sample(rd.from_pandas(df), budget_tokens=10**9,
                                     tok_col="nt").to_pandas()
    assert len(got) == 10 and set(got["n_tok"]) == {5}


def test_pack_stream_matches_python_oracle():
    import numpy as np

    df = pd.DataFrame({
        "doc_id": range(40),
        "text": [" ".join(f"w{i}_{j}" for j in range(1 + (i * 13) % 9))
                 for i in range(40)]})
    out = (shards.pack_stream(rd.from_pandas(df), seq_len=8, seed=42)
           .to_pandas().sort_values("doc_id", ignore_index=True))

    order = sorted(range(40), key=lambda i: (md5_hex(f"42|{i}"), i))
    ntok = {i: df.loc[i, "text"].count(" ") + 1 for i in range(40)}
    start, expect = 0, {}
    for i in order:
        expect[i] = (ntok[i], start, start // 8, (start + ntok[i] - 1) // 8)
        start += ntok[i]

    for _, r in out.iterrows():
        e = expect[int(r["doc_id"])]
        assert (int(r["n_tok"]), int(r["start_tok"]),
                int(r["first_seq"]), int(r["last_seq"])) == e
    # the stream is gapless: offsets tile [0, total)
    total = sum(ntok.values())
    assert sorted(int(r) for r in out["start_tok"]) != []
    covered = np.zeros(total, dtype=bool)
    for _, r in out.iterrows():
        covered[int(r["start_tok"]):int(r["start_tok"]) + int(r["n_tok"])] = True
    assert covered.all()


def test_pack_stream_independent_of_bucket_count(monkeypatch):
    df = pd.DataFrame({"doc_id": [f"d{i}" for i in range(30)],
                       "text": ["a b c"] * 30})
    monkeypatch.setattr(shards, "RANGE_BUCKETS", 2)
    a = (shards.pack_stream(rd.from_pandas(df), seq_len=4)
         .to_pandas().sort_values("doc_id", ignore_index=True))
    monkeypatch.setattr(shards, "RANGE_BUCKETS", 64)
    b = (shards.pack_stream(rd.from_pandas(df), seq_len=4)
         .to_pandas().sort_values("doc_id", ignore_index=True))
    pd.testing.assert_frame_equal(a, b)
