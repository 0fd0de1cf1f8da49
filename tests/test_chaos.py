"""Fault-injection tests: the task-failure boundary (Ray retries) vs the
record-and-continue boundary (error rows in output).

The reference treats a fetch/model failure as a per-unit error recorded
on the job (worker.py error paths) while process death is retried by the
infrastructure; the engine mirrors that split — corrupt payloads become
error rows (tests/test_correctness_tier.py), crashed workers are
retried by Ray and the output is still complete, and a bounded number
of poisoned BLOCKS can be dropped explicitly via
DataContext.max_errored_blocks (an operator-level choice, never a
silent default)."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd
from ray.data import DataContext


def test_actor_crash_mid_run_output_complete(tmp_path):
    """Kill one actor process mid-run (os._exit, no cleanup): Ray
    restarts the actor / retries the task and every row still comes
    out exactly once."""
    marker = str(tmp_path / "crashed_once")
    df = pd.DataFrame({"x": np.arange(2000, dtype=np.int64)})

    class FlakyOnce:
        def __init__(self, marker: str) -> None:
            self.marker = marker

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if not os.path.exists(self.marker):
                with open(self.marker, "w"):
                    pass
                os._exit(1)  # hard kill: no exception, no atexit
            return b

    out = (rd.from_pandas(df).repartition(8)
           .map_batches(FlakyOnce, fn_constructor_kwargs=dict(marker=marker),
                        batch_format="pandas", batch_size=256,
                        concurrency=(2, 2),
                        max_restarts=4, max_task_retries=4)
           .to_pandas())
    assert os.path.exists(marker)  # the crash really happened
    assert sorted(out["x"]) == list(range(2000))


def test_errored_block_budget_drops_only_poisoned_block():
    """DataContext.max_errored_blocks: a poisoned block is dropped and
    counted instead of failing the run — but only when the operator
    opts in; the default (0) fails fast."""
    ctx = DataContext.get_current()
    before = ctx.max_errored_blocks

    def poison(b: pd.DataFrame) -> pd.DataFrame:
        if (b["x"] == 0).any():
            raise ValueError("poisoned block")
        return b

    df = pd.DataFrame({"x": np.arange(1000, dtype=np.int64)})
    try:
        # the DataContext is captured when the Dataset is CREATED — the
        # budget must be set before from_pandas, not before execution
        ctx.max_errored_blocks = 2
        out = (rd.from_pandas(df).repartition(10)
               .map_batches(poison, batch_format="pandas").to_pandas())
        assert 0 not in set(out["x"])      # poisoned block dropped
        assert len(out) == 900             # everything else survived
    finally:
        ctx.max_errored_blocks = before

    with pytest.raises(Exception):
        (rd.from_pandas(df).repartition(10)
         .map_batches(poison, batch_format="pandas").materialize())


def test_extract_actor_crash_end_to_end(tmp_path):
    """The flagship pipeline itself survives an extract worker's death
    mid-run: the killed task is retried as a task on another worker,
    and the output matches the single-process oracle doc-for-doc."""
    from westa_ocr_ray import fixtures, oracle
    from westa_ocr_ray.config import ExtractConfig
    from westa_ocr_ray.pipelines.extract import read_extracted, run_extract
    from westa_ocr_ray.stages import extract as stage_extract

    del stage_extract  # the crash hook ships via config, not a monkeypatch
    corpus = fixtures.ensure_corpus("smoke")
    marker = str(tmp_path / "extract_crashed_once")
    out_dir = str(tmp_path / "out")

    run_extract(corpus, out_dir,
                ExtractConfig(num_parts=4, extract_concurrency=2,
                              chaos_crash_marker=marker))

    assert os.path.exists(marker)
    rows = read_extracted(out_dir).to_pandas()
    seed = fixtures.DEFAULT_SEED
    mkeys = fixtures.master_keys(seed)
    assert len(rows) > 0
    for _, row in rows.iterrows():
        idx = int(row["doc_id"].rsplit("_", 1)[1])
        exp = oracle.extract_doc(fixtures.gen_doc(seed, idx), seed, mkeys)
        got = [(s["kind"], s["text"], s["media_ref"], s["order"])
               for s in row["spans"]]
        want = [(s["kind"], s["text"], s["media_ref"], s["order"])
                for s in exp["spans"]]
        assert got == want


def test_quality_classifier_actor_death_oracle_identical(tmp_path):
    """An actor death upstream of the model-scoring stage: the killed
    batch is retried and flows through the classifier's tasks, and the
    scores match a clean run exactly — the scoring stage inherits the
    same exactly-once guarantee the extract stage is chaos-tested for.
    The flaky shim is a one-actor pool with num_cpus=0, so the killed
    process is a real actor; the classifier runs as tasks and takes
    whatever CPUs are free, so no pool sizing has to co-fit with it."""
    from westa_ocr_ray import text_analysis

    rows = [{"doc_id": i, "text": f"alpha beta w{i} gamma delta"}
            for i in range(800)]
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(8).materialize()
    clean = (text_analysis.quality_classifier(ds)
             .to_pandas().sort_values("doc_id", ignore_index=True))

    marker = str(tmp_path / "qc_crashed")

    class FlakyOnce:
        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os._exit(1)
            return b

    flaky = ds.map_batches(FlakyOnce, batch_format="pandas",
                           batch_size=128, concurrency=(1, 1), num_cpus=0,
                           max_restarts=4, max_task_retries=4)
    crashed = (text_analysis.quality_classifier(flaky)
               .to_pandas().sort_values("doc_id", ignore_index=True))
    assert os.path.exists(marker)
    pd.testing.assert_frame_equal(clean, crashed)


@pytest.mark.parametrize("where", ["pre", "fn"])
def test_exchange_worker_death_result_identical(tmp_path, where):
    """A split task's ``pre`` (or a reduce task's ``fn``) kills its
    worker process on the first call; Ray retries the task and the
    exchange returns what a crash-free run returns."""
    from westa_ocr_ray import relops

    marker = str(tmp_path / "exchange_crashed")

    def crash_once(df: pd.DataFrame) -> pd.DataFrame:
        try:  # exactly one call, over every task, creates the marker
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return df
        os._exit(1)  # hard kill: no exception, no atexit

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False).agg(s=("v", "sum"))

    df = pd.DataFrame({"k": np.arange(600) % 23, "v": np.arange(600)})
    ds = rd.from_pandas(df).repartition(6).materialize()
    clean = relops.exchange(ds, "k", total).to_pandas()
    if where == "pre":
        out = relops.exchange(ds, "k", total, pre=crash_once)
    else:
        out = relops.exchange(ds, "k", lambda g: total(crash_once(g)))
    assert os.path.exists(marker)  # the crash really happened
    pd.testing.assert_frame_equal(
        out.to_pandas().sort_values("k", ignore_index=True),
        clean.sort_values("k", ignore_index=True))
