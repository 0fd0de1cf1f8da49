"""Corpus-cleaning chain tests (pipelines/clean.py)."""

import pandas as pd
import ray.data as rd

from westa_ocr_ray.pipelines.clean import (clean_corpus, dedup_exact_keep,
                                           prepare_training_data,
                                           quality_filter)
from westa_ocr_ray.relops import semi_anti_filter_scalable
from westa_ocr_ray.text_analysis import repetition_filter, repetition_stats

LONG = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
        "lam mu nu xi omicron pi rho sigma tau upsilon")


def _ds(rows):
    return rd.from_pandas(pd.DataFrame(rows))


def test_quality_filter_thresholds():
    rows = [{"doc_id": 1, "text": LONG},
            {"doc_id": 2, "text": "too short"},
            {"doc_id": 3, "text": "a b c d e f"}]  # 6 words but < 30 chars
    out = quality_filter(_ds(rows), min_words=5, min_chars=30).to_pandas()
    assert list(out["doc_id"]) == [1]


def test_dedup_exact_keep_first_wins():
    rows = [{"doc_id": 2, "text": LONG}, {"doc_id": 1, "text": LONG},
            {"doc_id": 3, "text": "different " + LONG}]
    out = dedup_exact_keep(_ds(rows)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 3]


def test_clean_corpus_full_chain():
    rows = [{"doc_id": 1, "text": LONG},
            {"doc_id": 2, "text": LONG},                       # exact dup
            {"doc_id": 3, "text": LONG + " extra tail words"}, # near dup
            {"doc_id": 4, "text": "short"},                    # fails quality
            {"doc_id": 5, "text": "completely different words entirely "
                                  "unrelated content nothing shared here pals"}]
    kept = clean_corpus(_ds(rows), fuzzy=True, jaccard_threshold=0.5).to_pandas()
    ids = set(kept["doc_id"])
    assert 1 in ids and 5 in ids
    assert 2 not in ids and 4 not in ids
    assert 3 not in ids  # fuzzy near-dup removed


def test_dedup_exact_keep_scalable_matches_broadcast():
    # planted dup pair + dup triple among uniques; the anti-join must
    # emit the first-wins survivor set with columns intact, with and
    # without the schema hint
    rows = ([{"doc_id": i, "text": LONG} for i in (7, 2)]
            + [{"doc_id": i, "text": "triple " + LONG} for i in (9, 4, 6)]
            + [{"doc_id": 10 + i, "text": f"unique number {i} " + LONG}
               for i in range(5)])
    a = dedup_exact_keep(_ds(rows), cols=["doc_id", "text"]).to_pandas()
    b = dedup_exact_keep(_ds(rows)).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"]) == [2, 4] + list(range(10, 15))
    assert sorted(a.columns) == sorted(b.columns) == ["doc_id", "text"]


def test_semi_anti_scalable_empty_key_side():
    ds = _ds([{"doc_id": i, "text": LONG} for i in range(4)])
    none = _ds([{"doc_id": 1}]).filter(lambda r: False)
    kept = semi_anti_filter_scalable(ds, "doc_id", none, anti=True,
                                     cols=["doc_id", "text"]).to_pandas()
    assert sorted(kept["doc_id"]) == [0, 1, 2, 3]
    semi = semi_anti_filter_scalable(ds, "doc_id", none, anti=False,
                                     cols=["doc_id", "text"]).to_pandas()
    assert len(semi) == 0


def test_repetition_filter_matches_stats_keep():
    rows = [{"doc_id": 1, "text": LONG},
            {"doc_id": 2, "text": "spam " * 40},
            {"doc_id": 3, "text": "go stop " * 30},
            {"doc_id": 4, "text": "varied words every time nothing repeats "
                                  "in this sentence at all okay done"}]
    kept = repetition_filter(_ds(rows)).to_pandas()
    stats = repetition_stats(_ds(rows)).to_pandas()
    expect = sorted(stats.loc[stats["keep"] == 1, "doc_id"])
    assert sorted(kept["doc_id"]) == expect
    assert 2 not in set(kept["doc_id"])  # max-token rule
    assert 3 not in set(kept["doc_id"])  # max-bigram rule


def test_prepare_training_data_end_to_end():
    uniq = [{"doc_id": i,
             "text": f"document {i} keeps plenty of distinct vocabulary "
                     f"tokens varied {i} content body",
             "n_chars": 80} for i in range(10, 20)]
    rows = ([{"doc_id": 1, "text": LONG, "n_chars": len(LONG)},
             {"doc_id": 2, "text": LONG, "n_chars": len(LONG)},    # exact dup
             {"doc_id": 3, "text": "tiny", "n_chars": 4},          # quality fail
             {"doc_id": 4, "text": "spam " * 40, "n_chars": 200}]  # repetition
            + uniq)
    # bench shares a 4-token shingle with doc 15 only
    bench = _ds([{"doc_id": 99,
                  "text": "document 15 keeps plenty of nothing else"}])
    out = prepare_training_data(_ds(rows), bench=bench,
                                cols=["doc_id", "text", "n_chars"]).to_pandas()
    ids = set(out["doc_id"])
    assert 1 in ids and 2 not in ids          # first-wins exact dedup
    assert 3 not in ids and 4 not in ids      # quality / repetition
    assert 15 not in ids                      # decontaminated
    assert ids >= {10, 11, 12, 13, 14, 16, 17, 18, 19}
    assert sorted(out.columns) == ["doc_id", "n_chars", "text"]


def test_prepare_training_data_mixture_and_epochs():
    import ray.data as rd
    from westa_ocr_ray.pipelines.clean import prepare_training_data
    df = pd.DataFrame({
        "doc_id": range(300),
        "lang": [["a", "b"][i % 2] for i in range(300)],
        "text": [f"alpha beta gamma delta epsilon zeta eta theta "
                 f"iota kappa u{i}" for i in range(300)],
    })
    out = prepare_training_data(
        rd.from_pandas(df).repartition(4),
        mixture_weights={"a": 1.0, "b": 0.0},
        epoch_factors={"a": 2}).to_pandas()
    assert set(out["lang"]) == {"a"}                 # weight-0 source dropped
    assert sorted(out["epoch"].unique()) == [0, 1]   # each kept doc twice
    n_a = (df["lang"] == "a").sum()
    assert len(out) == 2 * n_a


def test_prep_funnel_reasons_and_chain_consistency():
    from westa_ocr_ray.pipelines.clean import prep_funnel
    rep = "loop " * 40  # one token dominates -> repetition fail
    rows = [
        {"doc_id": 1, "text": LONG},                      # kept
        {"doc_id": 2, "text": "tiny"},                    # quality
        {"doc_id": 3, "text": LONG},                      # exact dup of 1
        {"doc_id": 4, "text": rep.strip()},               # repetition
        {"doc_id": 5, "text": "zz one two three four yy "
                              "padpad padpad2 padpad3 padpad4"},  # contaminated
        {"doc_id": 6, "text": "six seven eight nine ten eleven "
                              "twelve thirteen fourteen fifteen"}]  # kept
    bench = _ds([{"doc_id": 100, "text": "one two three four"}])
    got = (prep_funnel(_ds(rows), bench=bench)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert list(map(tuple, got.to_numpy())) == [
        (1, "kept"), (2, "quality"), (3, "exact_dup"),
        (4, "repetition"), (5, "contaminated"), (6, "kept")]
    # funnel 'kept' == the chain's actual survivor set, by construction
    chain = prepare_training_data(_ds(rows), bench=bench,
                                  cols=["doc_id", "text"]).to_pandas()
    assert sorted(chain["doc_id"]) == sorted(
        got.loc[got["drop_reason"] == "kept", "doc_id"])


def test_prep_funnel_no_bench_labels_every_doc():
    from westa_ocr_ray.pipelines.clean import prep_funnel
    rows = [{"doc_id": i, "text": LONG + f" tail{i}"} for i in range(8)]
    rows.append({"doc_id": 99, "text": "short"})
    got = prep_funnel(_ds(rows)).to_pandas()
    assert len(got) == 9
    assert set(got["drop_reason"]) == {"kept", "quality"}


def test_prepare_rag_chunks_manifest_matches_direct():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from westa_ocr_ray.dedup import md5_hex
    from westa_ocr_ray.pipelines.clean import prepare_rag_chunks

    rows = []
    for i in range(30):
        # doc 7 is a short low-quality doc; docs 10/11 are exact dups
        if i == 7:
            text = "tiny"
        elif i == 11:
            text = " ".join(f"w10_{j}" for j in range(10 + (10 * 9) % 50))
        else:
            text = " ".join(f"w{i}_{j}" for j in range(10 + (i * 9) % 50))
    # (doc 10's text == doc 11's text by the branch above)
        rows.append({"doc_id": i, "text": text})
    out = (prepare_rag_chunks(rd.from_pandas(pd.DataFrame(rows)),
                              window=8, stride=5, num_shards=4)
           .to_pandas().sort_values("shard", ignore_index=True))

    # direct python oracle
    kept = {}
    seen = {}
    for r in rows:
        toks = r["text"].split(" ")
        if len([t for t in toks if t]) < 5 or len(r["text"]) < 30:
            continue
        if r["text"] in seen:
            continue
        seen[r["text"]] = r["doc_id"]
        kept[r["doc_id"]] = toks
    man = {}
    for did, toks in kept.items():
        n = len(toks)
        nc = 1 if n <= 8 else -(-(n - 8) // 5) + 1
        for ci in range(nc):
            sh = int(md5_hex(f"{did}|{ci}")[:8], 16) % 4
            nt = min(8, n - 5 * ci)
            a = man.setdefault(sh, [0, 0])
            a[0] += 1
            a[1] += nt
    got = {int(r["shard"]): [int(r["n_chunks"]), int(r["sum_tokens"])]
           for _, r in out.iterrows()}
    assert got == man
    # the dup (11) and the low-quality doc (7) contributed nothing
    assert 7 not in kept and 11 not in kept and 10 in kept
