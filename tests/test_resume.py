"""Resume semantics (SURVEY.md §5.2.4): a run that completed only K of P
partitions resumes without reprocessing them, and the resumed output
equals an uninterrupted run."""

import glob
import json
import os
import shutil

import pyarrow.compute as pc
import pytest

from westa_ocr_ray import fixtures
from westa_ocr_ray.config import ExtractConfig
from westa_ocr_ray.pipelines.extract import (
    done_parts, read_extracted, run_extract)

CFG = ExtractConfig(num_parts=8, extract_concurrency=3)


def _result_key(ds):
    rows = sorted(ds.take_all(), key=lambda r: r["doc_id"])
    return [(r["doc_id"], [(s["kind"], s["text"], s["media_ref"], s["order"])
                           for s in r["spans"]], r["status"]) for r in rows]


def _lineage_line_counts(out_dir):
    counts = []
    for path in sorted(glob.glob(os.path.join(out_dir, "lineage", "*.jsonl"))):
        with open(path) as fh:
            counts.append(len(fh.readlines()))
    return counts


def test_resume_skips_completed_partitions(tmp_path):
    corpus = fixtures.ensure_corpus("smoke")
    full_dir = str(tmp_path / "full")
    m_full = run_extract(corpus, full_dir, CFG)
    assert m_full["parts_written"] >= 1 and m_full["parts_skipped"] == 0
    full = _result_key(read_extracted(full_dir))

    # simulate a killed run: keep only K completed partitions
    killed_dir = str(tmp_path / "killed")
    shutil.copytree(full_dir, killed_dir)
    markers = sorted(glob.glob(os.path.join(killed_dir, "_markers", "*.done")))
    keep = 3
    for m in markers[keep:]:
        part = os.path.basename(m)[len("part-"):-len(".done")]
        os.remove(m)
        os.remove(os.path.join(killed_dir, "extracted", f"part-{part}.parquet"))
    assert len(done_parts(killed_dir)) == keep

    m_resume = run_extract(corpus, killed_dir, CFG)
    assert m_resume["parts_skipped"] == keep
    # resumed output identical to the uninterrupted run
    assert _result_key(read_extracted(killed_dir)) == full
    # lineage records the resumed partitions with attempt > 0
    attempts = set()
    for path in glob.glob(os.path.join(killed_dir, "lineage", "*.jsonl")):
        with open(path) as fh:
            for line in fh:
                attempts.add(json.loads(line)["attempt"])
    assert 1 in attempts and 0 in attempts


def test_resume_sweeps_tmp_files_of_killed_writer(tmp_path):
    """A writer killed between write and rename leaves a truncated
    ``.tmp.<pid>`` file next to the committed parts; the resume must
    remove it so reading the output directory still works."""
    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "killed")
    run_extract(corpus, out, CFG)
    full = _result_key(read_extracted(out))

    m = sorted(glob.glob(os.path.join(out, "_markers", "*.done")))[0]
    part = os.path.basename(m)[len("part-"):-len(".done")]
    os.remove(m)
    final = os.path.join(out, "extracted", f"part-{part}.parquet")
    with open(final, "rb") as fh:
        head = fh.read(64)
    os.remove(final)
    stale = [final + ".tmp.99999",
             os.path.join(out, "_markers", f"part-{part}.tmp.99999")]
    for path in stale:
        with open(path, "wb") as fh:
            fh.write(head)

    metrics = run_extract(corpus, out, CFG)
    assert metrics["parts_skipped"] == CFG.num_parts - 1
    assert not any(os.path.exists(p) for p in stale)
    assert _result_key(read_extracted(out)) == full


def test_assign_version_mismatch_restarts(tmp_path):
    """Markers written under a DIFFERENT doc→partition assignment
    version must not be trusted: the resume wipes the stale outputs
    and recomputes everything (mixing two partition meanings would
    silently drop or double docs)."""
    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "v")
    run_extract(corpus, out, CFG)
    full = _result_key(read_extracted(out))

    # forge an older-version partial run: rewrite the stamp and drop one
    # partition's marker + parquet
    with open(os.path.join(out, "_markers", "ASSIGN_VERSION"), "w") as fh:
        fh.write("1")
    m = sorted(glob.glob(os.path.join(out, "_markers", "*.done")))[0]
    part = os.path.basename(m)[len("part-"):-len(".done")]
    os.remove(m)
    os.remove(os.path.join(out, "extracted", f"part-{part}.parquet"))

    metrics = run_extract(corpus, out, CFG)
    assert metrics["parts_skipped"] == 0  # nothing trusted
    assert metrics["parts_written"] == CFG.num_parts
    assert _result_key(read_extracted(out)) == full
    with open(os.path.join(out, "_markers", "ASSIGN_VERSION")) as fh:
        from westa_ocr_ray.stages.explode import ASSIGN_VERSION
        assert fh.read().strip() == str(ASSIGN_VERSION)


def test_real_sigkill_resume(tmp_path):
    """Kill -9 an actual run mid-flight (its own Ray cluster, own process
    group), then resume in this session: the final output must equal an
    uninterrupted run — whatever partial state the kill left behind."""
    import signal
    import subprocess
    import sys
    import time as _time

    corpus = fixtures.ensure_corpus("correctness")
    out = str(tmp_path / "killed")
    script = (
        "import ray\n"
        "ray.init(address='local', num_cpus=4, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from westa_ocr_ray.config import ExtractConfig\n"
        "from westa_ocr_ray.pipelines.extract import run_extract\n"
        f"cfg = ExtractConfig(num_parts=16, extract_concurrency=2,"
        f" stage_root=None)\n"
        f"run_extract({corpus!r}, {out!r}, cfg)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script],
                            cwd="/root/repo", start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # mid-flight: phase 1 has written its first stage file. A fixed
    # sleep would race the run, which can finish in ~12 s.
    deadline = _time.monotonic() + 120
    while (not glob.glob(os.path.join(out, "_stage", "*.parquet"))
           and proc.poll() is None and _time.monotonic() < deadline):
        _time.sleep(0.05)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the run exited before writing a stage file
        pass
    proc.wait()

    done_before = len(done_parts(out))
    cfg = ExtractConfig(num_parts=16, extract_concurrency=3, stage_root=None)
    m = run_extract(corpus, out, cfg)
    assert m["parts_skipped"] == done_before
    assert len(done_parts(out)) == 16

    clean = str(tmp_path / "clean")
    run_extract(corpus, clean, cfg)
    assert _result_key(read_extracted(out)) == _result_key(read_extracted(clean))


def test_on_partition_commit_fires_exactly_once_across_resume(tmp_path):
    """The push-notification seam (reference per-page webhook analog):
    on_partition_commit fires exactly once per partition across a
    killed run + resume + redundant re-run — unnotified partitions
    from the crashed run are delivered first, .notified stamps stop
    re-delivery, and every delivery carries the marker + lineage path."""
    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "out")

    # a run that committed 3 partitions and died before any hook fired
    run_extract(corpus, out, CFG)
    markers = sorted(glob.glob(os.path.join(out, "_markers", "*.done")))
    for m in markers[3:]:
        part = os.path.basename(m)[len("part-"):-len(".done")]
        os.remove(m)
        os.remove(os.path.join(out, "extracted", f"part-{part}.parquet"))

    fired = []
    hook = fired.append
    m = run_extract(corpus, out, CFG, on_partition_commit=hook)
    assert m["parts_skipped"] == 3
    parts = [r["part"] for r in fired]
    assert sorted(parts) == list(range(CFG.num_parts))  # every part once
    assert all("lineage_path" in r and os.path.exists(r["lineage_path"])
               and r["rows"] >= 0 for r in fired)

    # redundant re-run: everything already notified → zero deliveries
    m2 = run_extract(corpus, out, CFG, on_partition_commit=hook)
    assert m2["parts_written"] == 0
    assert len(fired) == CFG.num_parts


def test_noop_resume_when_all_done(tmp_path):
    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "out")
    run_extract(corpus, out, CFG)
    m = run_extract(corpus, out, CFG)
    assert m["parts_written"] == 0
    assert m["parts_skipped"] == len(done_parts(out))


def test_keep_units_writes_page_granularity(tmp_path):
    """--keep-units persists the per-unit rows (PAGE_RESULT analog)."""
    import pyarrow.dataset as pads

    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "out")
    cfg = ExtractConfig(num_parts=8, extract_concurrency=3, keep_units=True)
    m = run_extract(corpus, out, cfg)
    units = pads.dataset(os.path.join(out, "units")).to_table()
    assert {"doc_id", "span_idx", "page_idx", "kind", "text",
            "is_content", "error"} <= set(units.schema.names)
    # every unit the reducers consumed is persisted
    lineage_units = 0
    for p in glob.glob(os.path.join(out, "lineage", "*.jsonl")):
        with open(p) as fh:
            for line in fh:
                lineage_units += json.loads(line)["units_in"]
    assert units.num_rows == lineage_units
    assert m["docs"] == len(set(units.column("doc_id").to_pylist()))


def test_resume_ignores_stale_stage_files(tmp_path):
    """A run killed mid-phase-1 leaves partial stage files; the resume
    must wipe them and recompute unfinished partitions from the input."""
    corpus = fixtures.ensure_corpus("smoke")
    full_dir = str(tmp_path / "full")
    run_extract(corpus, full_dir, CFG)
    full = _result_key(read_extracted(full_dir))

    crashed = str(tmp_path / "crashed")
    os.makedirs(os.path.join(crashed, "_stage"), exist_ok=True)
    # garbage from a dead phase-1 (wrong schema, partial write)
    with open(os.path.join(crashed, "_stage", "dead.parquet"), "wb") as fh:
        fh.write(b"PAR1 garbage not a real file")
    cfg = ExtractConfig(num_parts=8, extract_concurrency=3, stage_root=None)
    m = run_extract(corpus, crashed, cfg)
    assert m["parts_written"] == 8
    assert _result_key(read_extracted(crashed)) == full


def test_standalone_stage_writer_roundtrip(tmp_path):
    """stage_write_table: rows sorted by part into per-partition row
    groups; statistics-pruned read returns exactly one partition."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    from westa_ocr_ray.stages.staging import stage_write_table

    t = pa.table({"part": pa.array([2, 0, 1, 0, 2], type=pa.int32()),
                  "v": pa.array([20, 0, 10, 1, 21], type=pa.int64())})
    stage = str(tmp_path / "stage")
    manifest = stage_write_table(t, stage)
    assert manifest.column("part").to_pylist() == [0, 1, 2]
    assert manifest.column("rows").to_pylist() == [2, 1, 2]
    got = pads.dataset(stage).to_table(filter=pads.field("part") == 0,
                                       use_threads=False)
    assert sorted(got.column("v").to_pylist()) == [0, 1]


def test_markers_match_partition_files(tmp_path):
    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "out")
    run_extract(corpus, out, CFG)
    ds = read_extracted(out)
    total_docs = ds.count()
    marker_docs = 0
    for m in glob.glob(os.path.join(out, "_markers", "*.done")):
        with open(m) as fh:
            marker_docs += json.load(fh)["rows"]
    assert marker_docs == total_docs


def test_part_reducer_retry_commits_each_partition_once(tmp_path):
    """A reduce task retried after committing some of its partitions
    must not commit them again: calling the reducer twice on the same
    batch in-process leaves one lineage line per partition and returns
    equal marker tables."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from westa_ocr_ray.stages import (
        ExtractModel, make_explode, make_part_reducer, make_prepare)

    docs = pq.read_table(os.path.join(fixtures.ensure_corpus("smoke"),
                                      "documents_0000.parquet"))
    stage = str(tmp_path / "stage")
    units = make_prepare(CFG.seed)(make_explode(CFG.num_parts)(docs))
    ExtractModel(masters=fixtures.master_keys(CFG.seed, CFG.pattern),
                 stage_dir=stage)(units)

    out = str(tmp_path / "out")
    reduce_parts = make_part_reducer(stage, out)
    batch = pa.table({"part": pa.array(range(CFG.num_parts), type=pa.int32())})
    first = reduce_parts(batch)
    again = reduce_parts(batch)
    assert first.num_rows == CFG.num_parts
    assert again.equals(first)
    assert _lineage_line_counts(out) == [1] * CFG.num_parts


def test_reduce_concurrency_does_not_change_output(tmp_path):
    """Phase 2 splits the partitions into one contiguous run per
    reduce task; the number of tasks must not change what is
    committed."""
    import ray

    corpus = fixtures.ensure_corpus("smoke")
    cpus = int(ray.cluster_resources()["CPU"])
    keys = []
    for rc in (1, 3, 8):
        out = str(tmp_path / f"rc{rc}")
        cfg = ExtractConfig(num_parts=8, extract_concurrency=3,
                            reduce_concurrency=rc)
        m = run_extract(corpus, out, cfg)
        assert m["parts_written"] == 8
        with open(os.path.join(out, "metrics", "run-attempt0.json")) as fh:
            recorded = json.load(fh)
        assert recorded["reduce_tasks"] == m["reduce_tasks"] == min(8, rc, cpus)
        assert done_parts(out) == set(range(8))
        assert _lineage_line_counts(out) == [1] * 8
        keys.append(_result_key(read_extracted(out)))
    assert keys[0] == keys[1] == keys[2]


def test_phase1_actor_pool_released_before_phase2(tmp_path, monkeypatch):
    """Phase 2 starts with every CPU free. Phase 1 runs as tasks, which
    return their CPUs when they finish; an extract actor pool would hold
    them until its handles, which sit in reference cycles, were
    garbage-collected, starving phase 2's few reducer tasks. Automatic
    collection is off here, so nothing but the phase-1 design can free
    them."""
    import gc
    import time

    import ray

    from westa_ocr_ray.pipelines import extract

    free_at_phase2 = []
    task_count = extract._reduce_task_count

    def spy(n_parts, reduce_concurrency):
        total = ray.cluster_resources()["CPU"]
        deadline = time.monotonic() + 5
        while (ray.available_resources().get("CPU", 0) < total
               and time.monotonic() < deadline):
            time.sleep(0.05)
        free_at_phase2.append(ray.available_resources().get("CPU", 0) == total)
        return task_count(n_parts, reduce_concurrency)

    monkeypatch.setattr(extract, "_reduce_task_count", spy)
    gc.disable()
    try:
        run_extract(fixtures.ensure_corpus("smoke"), str(tmp_path / "out"), CFG)
    finally:
        gc.enable()
    assert free_at_phase2 == [True]


def test_extract_runs_without_actor_pool(tmp_path):
    """The fused extract stage runs as tasks on the warm task-worker
    pool: a run creates no ``MapWorker(...ExtractModel)`` actor, whose
    fresh worker process would cost about 2 s of fixed start-up."""
    from ray._private import state

    before = set(state.actors())
    m = run_extract(fixtures.ensure_corpus("smoke"), str(tmp_path / "out"), CFG)
    assert m["parts_written"] == CFG.num_parts
    new = [a["ActorClassName"] for aid, a in state.actors().items()
           if aid not in before]
    assert not [c for c in new if "ExtractModel" in c], new


# One warm run_extract, then a measured one, in a session sized like the
# benchmark's (4 CPUs, 256 MiB object store). Prints the measured run's
# extract tasks as [start_us, dur_us] pairs from ray.timeline().
_PHASE1_TIMELINE_SCRIPT = """
import json, sys, time
import ray
ray.init(num_cpus=4, object_store_memory=256 << 20, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from westa_ocr_ray.config import ExtractConfig
from westa_ocr_ray.pipelines.extract import run_extract
corpus, out = sys.argv[1], sys.argv[2]
cfg = ExtractConfig(num_parts=8, stage_root=None)
run_extract(corpus, out + "/warm", cfg)
t0 = time.time() * 1e6
m = run_extract(corpus, out + "/measured", cfg)
tasks, deadline = [], time.monotonic() + 30
while len(tasks) < m["stage_files"] and time.monotonic() < deadline:
    time.sleep(0.5)  # task events reach the GCS about once a second
    tasks = sorted([e["ts"], e["dur"]] for e in ray.timeline()
                   if e.get("ph") == "X" and e["ts"] >= t0
                   and e["name"].endswith("_map_task")
                   and "MapBatches(ExtractModel)" in e.get("cat", ""))
print(json.dumps(tasks))
"""


def test_phase1_extract_tasks_start_together(tmp_path):
    """Phase 1 is one wave: on the 8-file corpus the staged extract
    stage runs as many tasks as the session's 4 CPUs, and every one
    starts before the first returns. Ray Data's default estimate for an
    unsampled task's pending output, 256 MiB, would let one task run
    alone on a 256 MiB object store; one block per file would leave a
    second wave that starts on Ray Data's next 100 ms poll tick."""
    import subprocess
    import sys

    corpus = fixtures.ensure_corpus("correctness")  # 8 files, ~1.1 MB
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _PHASE1_TIMELINE_SCRIPT, corpus, str(tmp_path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    tasks = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(tasks) == 4, tasks
    first_end = min(start + dur for start, dur in tasks)
    assert all(start < first_end for start, _ in tasks), tasks


def test_staged_chain_drops_pending_output_estimate(tmp_path):
    """Guard on the private Ray Data setting the staged chain relies on
    (pinned Ray 2.49): with ``_max_num_blocks_in_streaming_gen_buffer``
    None on an op's context, an op with no output samples has no
    pending-output estimate; with the default it has one. Only the
    staged chain's own context carries the setting."""
    from types import SimpleNamespace

    from ray.data import DataContext
    from ray.data._internal.execution.interfaces.op_runtime_metrics import (
        OpRuntimeMetrics)

    from westa_ocr_ray.pipelines.extract import (
        build_extracted_units, extract_dataset, read_documents)

    def pending_estimate(ctx):
        metrics = OpRuntimeMetrics(SimpleNamespace(data_context=ctx))
        return metrics.obj_store_mem_max_pending_output_per_task

    ctx = DataContext.get_current().copy()
    assert ctx._max_num_blocks_in_streaming_gen_buffer is not None
    assert pending_estimate(ctx) is not None
    ctx._max_num_blocks_in_streaming_gen_buffer = None
    assert pending_estimate(ctx) is None

    corpus = fixtures.ensure_corpus("smoke")
    staged = build_extracted_units(read_documents(corpus), CFG,
                                   stage_dir=str(tmp_path / "stage"))
    assert staged.context._max_num_blocks_in_streaming_gen_buffer is None
    assert DataContext.get_current()._max_num_blocks_in_streaming_gen_buffer is not None
    in_memory = extract_dataset(read_documents(corpus), CFG)
    assert in_memory.context._max_num_blocks_in_streaming_gen_buffer is not None


def test_graceful_drain_stop_file_mid_phase1(tmp_path):
    """A stop request landing while the extract tasks run: phase 1
    finishes, nothing commits, the stage files are wiped, and a re-run
    without the stop file equals an uninterrupted run."""
    import threading
    import time

    corpus = fixtures.ensure_corpus("smoke")
    full_dir = str(tmp_path / "full")
    run_extract(corpus, full_dir, CFG)
    full = _result_key(read_extracted(full_dir))

    out = str(tmp_path / "stopped")
    stop = str(tmp_path / "STOP")
    # default extract_concurrency: every extract task is in flight
    cfg = ExtractConfig(num_parts=8, stop_file=stop, stage_root=None)
    stage = os.path.join(out, "_stage")

    def watch():
        deadline = time.monotonic() + 120
        while (not glob.glob(os.path.join(stage, "*.parquet"))
               and time.monotonic() < deadline):
            time.sleep(0.001)
        with open(stop, "w") as fh:
            fh.write("stop")

    w = threading.Thread(target=watch, daemon=True)
    w.start()
    m1 = run_extract(corpus, out, cfg)
    w.join(timeout=120)
    assert not w.is_alive()
    assert m1["stopped"] is True
    assert m1["parts_written"] == 0 and m1["parts_drained"] == 8
    assert m1["reduce_tasks"] == 0
    assert not glob.glob(os.path.join(out, "extracted", "part-*"))
    assert not glob.glob(os.path.join(out, "_markers", "part-*.done"))
    assert not os.path.exists(stage)

    os.remove(stop)
    m2 = run_extract(corpus, out, cfg)
    assert m2["stopped"] is False
    assert m2["parts_skipped"] == 0 and m2["parts_written"] == 8
    assert _result_key(read_extracted(out)) == full


def test_graceful_drain_stop_file_mid_phase2(tmp_path):
    """Cooperative cancellation (VERDICT r4 item 2): the stop file
    appears mid-phase-2; the run commits the partitions it finished,
    exits normally with stopped=True, and a plain re-run completes the
    drained rest — final output identical to an uninterrupted run,
    attempt counts proving no committed partition was recomputed."""
    import threading

    corpus = fixtures.ensure_corpus("smoke")
    full_dir = str(tmp_path / "full")
    run_extract(corpus, full_dir, CFG)
    full = _result_key(read_extracted(full_dir))

    out = str(tmp_path / "drained")
    stop = str(tmp_path / "STOP")
    # serialize phase 2 so the marker watcher can interleave a stop
    cfg = ExtractConfig(num_parts=8,
                        extract_concurrency=3, reduce_concurrency=1,
                        stop_file=stop)

    def watch():
        while len(done_parts(out)) < 2:
            pass
        with open(stop, "w") as fh:
            fh.write("drain")

    w = threading.Thread(target=watch, daemon=True)
    w.start()
    m1 = run_extract(corpus, out, cfg)
    w.join(timeout=60)
    assert m1["stopped"] is True
    committed = len(done_parts(out))
    assert m1["parts_written"] == committed
    assert m1["parts_drained"] == 8 - committed
    assert 0 < committed < 8  # really drained mid-phase-2
    # markers exist ONLY for committed partitions; data files match
    assert committed == len(
        glob.glob(os.path.join(out, "extracted", "part-*.parquet")))

    # resume without the stop file: only the drained parts recompute
    os.remove(stop)
    m2 = run_extract(corpus, out, cfg)
    assert m2["stopped"] is False
    assert m2["parts_skipped"] == committed
    assert m2["parts_written"] == 8 - committed
    assert _result_key(read_extracted(out)) == full
    # attempt counts: committed parts carry attempt 0 only; drained
    # parts carry exactly one lineage line (attempt 1)
    for path in glob.glob(os.path.join(out, "lineage", "*.jsonl")):
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == 1
        assert lines[0]["attempt"] in (0, 1)


def test_graceful_drain_sigterm(tmp_path):
    """SIGTERM during phase 2 is trapped into the stop file: the run
    drains (commits finished partitions, returns stopped=True) instead
    of dying — then resumes to the identical full output."""
    import signal
    import threading

    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "term")
    stop = str(tmp_path / "STOP_TERM")
    cfg = ExtractConfig(num_parts=8,
                        extract_concurrency=3, reduce_concurrency=1,
                        stop_file=stop)

    def watch():
        while len(done_parts(out)) < 2:
            pass
        signal.raise_signal(signal.SIGTERM)  # handler runs in main thread

    before = signal.getsignal(signal.SIGTERM)  # ray's own handler
    w = threading.Thread(target=watch, daemon=True)
    w.start()
    m1 = run_extract(corpus, out, cfg)  # main thread: handler fires here
    w.join(timeout=60)
    assert m1["stopped"] is True and os.path.exists(stop)
    assert 0 < m1["parts_written"] < 8
    # the pre-run handler was restored after the run
    assert signal.getsignal(signal.SIGTERM) is before

    os.remove(stop)
    m2 = run_extract(corpus, out, cfg)
    assert m2["parts_skipped"] == m1["parts_written"]
    full_dir = str(tmp_path / "full2")
    run_extract(corpus, full_dir, CFG)
    assert _result_key(read_extracted(out)) == _result_key(
        read_extracted(full_dir))


def test_stop_file_at_entry_noop(tmp_path):
    """A pre-existing stop file means the run does nothing at all —
    and a marker resume later picks up the whole job."""
    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "pre")
    stop = str(tmp_path / "PRE_STOP")
    with open(stop, "w") as fh:
        fh.write("stop")
    cfg = ExtractConfig(num_parts=8, extract_concurrency=3, stop_file=stop)
    m = run_extract(corpus, out, cfg)
    assert m["stopped"] is True and m["parts_written"] == 0
    assert m["parts_drained"] == 8
    assert not os.path.exists(os.path.join(out, "extracted"))
    os.remove(stop)
    m2 = run_extract(corpus, out, cfg)
    assert m2["parts_written"] == 8 and m2["stopped"] is False


def test_run_extract_stage_root_file_uri(tmp_path):
    """stage_root as a pyarrow.fs URI (VERDICT r4 item 3): the whole
    external shuffle — write, list, pruned read, wipe — runs through
    FileSystem.from_uri, standing in for shared cluster storage. Output
    must be identical to default (/dev/shm) staging, and the stage base
    dir must actually have been used (created under the URI root, tag
    subdir wiped after the run)."""
    corpus = fixtures.ensure_corpus("smoke")
    base = str(tmp_path / "shared_stage")
    cfg = ExtractConfig(num_parts=8, extract_concurrency=3,
                        stage_root=f"file://{base}")
    out = str(tmp_path / "uri_out")
    m = run_extract(corpus, out, cfg)
    assert m["parts_written"] == 8 and m["errors"] >= 0

    ref_out = str(tmp_path / "ref_out")
    run_extract(corpus, ref_out, CFG)
    assert _result_key(read_extracted(out)) == _result_key(
        read_extracted(ref_out))
    # the URI root was really the staging target: base dir created by
    # the stage writers, per-run tag subdir wiped on completion
    assert os.path.isdir(base) and os.listdir(base) == []


def test_run_extract_stage_on_rooted_filesystem(tmp_path):
    """stage_root through a REGISTERED scheme resolving to a
    SubTreeFileSystem (a rooted fs standing in for a shared mount):
    stage paths are subtree-relative, so any stage IO that bypassed the
    pyarrow.fs seam (raw os/shutil calls) would miss the root and
    corrupt or fail the run. Full run_extract + resume parity."""
    import pyarrow.fs as pafs

    from westa_ocr_ray.stages import staging

    corpus = fixtures.ensure_corpus("smoke")
    root = tmp_path / "mnt"
    root.mkdir()
    staging.register_stage_fs(
        "sharedtest",
        lambda uri: (pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem()),
                     uri.split("://", 1)[1]))
    try:
        cfg = ExtractConfig(num_parts=8, extract_concurrency=3,
                            stage_root="sharedtest://stage")
        out = str(tmp_path / "subtree_out")
        m = run_extract(corpus, out, cfg)
        assert m["parts_written"] == 8
        # staging really landed under the subtree root
        assert os.path.isdir(root / "stage")

        ref_out = str(tmp_path / "ref_out2")
        run_extract(corpus, ref_out, CFG)
        assert _result_key(read_extracted(out)) == _result_key(
            read_extracted(ref_out))
    finally:
        staging._FS_FACTORIES.pop("sharedtest", None)


def test_stage_write_list_read_roundtrip_on_fs(tmp_path):
    """Unit-level seam check: stage_write_table / list_stage_files /
    wipe_stage_dir through an explicit filesystem give byte-identical
    tables to the os fast path, dot-tmp files stay invisible, and the
    URI default codec is zstd."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.fs as pafs

    from westa_ocr_ray.stages import staging

    t = pa.table({"part": pa.array([1, 0, 1, 2], type=pa.int32()),
                  "doc_id": ["a", "b", "c", "d"],
                  "payload": [b"x" * 10, b"y", b"z", b"w"]})
    local_dir = str(tmp_path / "local")
    man_local = staging.stage_write_table(t, local_dir)

    fs = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    man_fs = staging.stage_write_table(t, "fsstage", fs=fs)
    assert man_local.equals(man_fs)

    files = staging.list_stage_files("fsstage", fs=fs)
    assert len(files) == 1 and not os.path.basename(files[0]).startswith(".")
    got = pads.dataset(files, format="parquet", filesystem=fs).to_table()
    exp = pads.dataset(staging.list_stage_files(local_dir)).to_table()
    # same rows (both part-sorted by the stable stage sort)
    assert got.equals(exp)
    # URI/fs staging defaults to zstd (network codec)
    import pyarrow.parquet as pq_
    meta = pq_.ParquetFile(str(tmp_path / "fsstage" / os.path.basename(files[0]))).metadata
    assert meta.row_group(0).column(0).compression.lower() == "zstd"
    # one row group per partition for statistics pruning
    assert meta.num_row_groups == 3

    staging.wipe_stage_dir("fsstage", fs=fs)
    assert staging.list_stage_files("fsstage", fs=fs) == []
    staging.wipe_stage_dir("fsstage", fs=fs)  # idempotent on missing


def _smoke_unit_slices(n):
    """The smoke corpus's extracted unit rows for CFG.num_parts
    partitions, cut into ``n`` contiguous slices (one per stage file)."""
    import pyarrow.parquet as pq

    from westa_ocr_ray.stages import ExtractModel, make_explode, make_prepare

    docs = pq.read_table(fixtures.ensure_corpus("smoke"))
    units = ExtractModel(masters=fixtures.master_keys(CFG.seed, CFG.pattern))(
        make_prepare(CFG.seed)(make_explode(CFG.num_parts)(docs)))
    step = -(-units.num_rows // n)
    return [units.slice(i * step, step) for i in range(n)]


def _all_parts_batch():
    import pyarrow as pa

    return pa.table({"part": pa.array(range(CFG.num_parts), type=pa.int32())})


def _committed(out_dir):
    """extracted/ partition files by name, rows in doc_id order (the
    row order within a partition follows the stage files' names)."""
    import pyarrow.parquet as pq

    return {os.path.basename(f): pq.read_table(f).sort_by("doc_id")
            for f in sorted(glob.glob(os.path.join(out_dir, "extracted",
                                                   "part-*.parquet")))}


def test_part_reducer_opens_each_stage_file_once(tmp_path):
    """A reduce task opens every stage file exactly once for its whole
    run of partitions (not once per partition), through the stage
    filesystem seam, and commits the same output as the OS path."""
    from collections import Counter

    import pyarrow.fs as pafs

    from westa_ocr_ray.stages import make_part_reducer, staging

    local = pafs.LocalFileSystem()
    opens = Counter()

    class CountingHandler(pafs.FileSystemHandler):
        def open_input_file(self, path):
            opens[os.path.basename(path)] += 1
            return local.open_input_file(path)

        def get_type_name(self):
            return "counting"

        def normalize_path(self, path):
            return local.normalize_path(path)

        def get_file_info(self, paths):
            return local.get_file_info(paths)

        def get_file_info_selector(self, selector):
            return local.get_file_info(selector)

        def create_dir(self, path, recursive):
            local.create_dir(path, recursive=recursive)

        def delete_dir(self, path):
            local.delete_dir(path)

        def delete_dir_contents(self, path, missing_dir_ok=False):
            local.delete_dir_contents(path, missing_dir_ok=missing_dir_ok)

        def delete_root_dir_contents(self):
            raise NotImplementedError

        def delete_file(self, path):
            local.delete_file(path)

        def move(self, src, dest):
            local.move(src, dest)

        def copy_file(self, src, dest):
            local.copy_file(src, dest)

        def open_input_stream(self, path):
            return local.open_input_stream(path)

        def open_output_stream(self, path, metadata):
            return local.open_output_stream(path, metadata=metadata)

        def open_append_stream(self, path, metadata):
            return local.open_append_stream(path, metadata=metadata)

    staging.register_stage_fs(
        "countingtest",
        lambda uri: (pafs.PyFileSystem(CountingHandler()),
                     uri.split("://", 1)[1]))
    try:
        fs, stage = staging.resolve_stage_fs(f"countingtest://{tmp_path}/stage")
    finally:
        staging._FS_FACTORIES.pop("countingtest", None)
    os_stage = str(tmp_path / "os_stage")
    covered = set()
    for t in _smoke_unit_slices(3):
        covered |= set(staging.stage_write_table(t, stage, fs=fs)
                       .column("part").to_pylist())
        staging.stage_write_table(t, os_stage)
    assert covered == set(range(CFG.num_parts))
    files = staging.list_stage_files(stage, fs=fs)
    assert len(files) == 3

    out = str(tmp_path / "out_fs")
    make_part_reducer(stage, out, stage_fs=fs)(_all_parts_batch())
    assert opens == Counter({os.path.basename(f): 1 for f in files})

    os_out = str(tmp_path / "out_os")
    make_part_reducer(os_stage, os_out)(_all_parts_batch())
    got, want = _committed(out), _committed(os_out)
    assert len(want) == CFG.num_parts
    assert got.keys() == want.keys()
    assert all(got[k].equals(want[k]) for k in want)


@pytest.mark.parametrize("fault", ["two_parts_one_row_group",
                                   "truncated_footer"])
def test_part_reducer_rejects_malformed_stage_file(tmp_path, fault):
    """A stage file that breaks the one-partition-per-row-group contract,
    or whose footer is cut short, fails the reduce task loudly before
    it commits any partition of its run."""
    import pyarrow.parquet as pq

    from westa_ocr_ray.stages import make_part_reducer
    from westa_ocr_ray.stages.staging import list_stage_files, stage_write_table

    stage = str(tmp_path / "stage")
    good, other = _smoke_unit_slices(2)
    stage_write_table(good, stage)
    bad = os.path.join(stage, "bad.parquet")
    if fault == "two_parts_one_row_group":
        two = other.filter(pc.is_in(other.column("part"),
                                    value_set=pc.unique(other.column("part"))[:2]))
        assert len(pc.unique(two.column("part"))) == 2
        pq.write_table(two, bad)
        assert pq.ParquetFile(bad).metadata.num_row_groups == 1
    else:
        whole = str(tmp_path / "whole")
        stage_write_table(other, whole)
        (written,) = list_stage_files(whole)
        with open(written, "rb") as fh:
            data = fh.read()
        footer_len = int.from_bytes(data[-8:-4], "little")
        with open(bad, "wb") as fh:
            fh.write(data[:len(data) - 8 - footer_len // 2])

    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="bad.parquet"):
        make_part_reducer(stage, out)(_all_parts_batch())
    assert glob.glob(os.path.join(out, "_markers", "*.done")) == []
    assert glob.glob(os.path.join(out, "extracted", "part-*.parquet")) == []


def test_run_metrics_count_stage_files(tmp_path):
    """metrics["stage_files"] is the number of stage files phase 2
    indexed — one per non-empty extract block — and 0 when phase 2
    does not run."""
    corpus = fixtures.ensure_corpus("smoke")
    out = str(tmp_path / "out")
    cfg = ExtractConfig(num_parts=8, extract_concurrency=3, read_num_blocks=4)
    m = run_extract(corpus, out, cfg)
    assert m["parts_written"] == 8
    with open(os.path.join(out, "metrics", "run-attempt0.json")) as fh:
        assert json.load(fh)["stage_files"] == m["stage_files"] == 4

    again = run_extract(corpus, out, cfg)
    assert again["parts_skipped"] == 8
    with open(os.path.join(out, "metrics", "run-attempt1.json")) as fh:
        assert json.load(fh)["stage_files"] == again["stage_files"] == 0


def test_phase1_num_blocks_is_whole_waves():
    """The staged read's block count is a whole multiple of the extract
    slots W = min(CPUs, extract_concurrency): W for a tiny input, k·W
    for k·W·PHASE1_TASK_BYTES, never more waves than the input's files
    fill, and an explicit read_num_blocks wins."""
    from westa_ocr_ray.pipelines.extract import (PHASE1_TASK_BYTES,
                                                 phase1_num_blocks)

    many = 10 ** 6  # files: the byte rule alone decides
    cfg = ExtractConfig()
    assert phase1_num_blocks(0, 0, 4, cfg) == 4
    assert phase1_num_blocks(300_000, 8, 4, cfg) == 4
    for k in (1, 2, 5):
        assert phase1_num_blocks(k * 4 * PHASE1_TASK_BYTES, many, 4, cfg) == 4 * k
        assert phase1_num_blocks(k * 4 * PHASE1_TASK_BYTES + 1, many, 4, cfg) == 4 * (k + 1)

    # the file count caps the waves: 8 files on 4 CPUs read in at most
    # 2 waves, one file in one wave, 400k fragments of 256 MB in
    # fragment-sized waves rather than 8 MiB ones
    huge = 100 * PHASE1_TASK_BYTES
    assert phase1_num_blocks(huge, 8, 4, cfg) == 8
    assert phase1_num_blocks(huge, 9, 4, cfg) == 12
    assert phase1_num_blocks(huge, 1, 4, cfg) == 4
    assert phase1_num_blocks(400_000 * (256 << 20), 400_000, 3200, cfg) == 400_000
    assert phase1_num_blocks(2 * 32 * PHASE1_TASK_BYTES, 64, 32, cfg) == 64

    capped = ExtractConfig(extract_concurrency=3)
    counts = {phase1_num_blocks(b, n, 4, capped)
              for b in (0, 1, PHASE1_TASK_BYTES, 7 * PHASE1_TASK_BYTES,
                        40 * PHASE1_TASK_BYTES)
              for n in (1, 8, many)}
    assert counts == {3, 9, 42}
    # a cap above the CPU count does not widen the wave
    assert phase1_num_blocks(1, 8, 4, ExtractConfig(extract_concurrency=16)) == 4

    for b, n in ((0, 0), (40 * PHASE1_TASK_BYTES, many)):
        assert phase1_num_blocks(b, n, 4, ExtractConfig(read_num_blocks=7)) == 7


def test_phase1_default_count_needs_a_session(tmp_path, monkeypatch):
    """With no Ray session up, run_extract's documents read gets no
    whole-wave count (read_table then sizes it by bytes); with one, it
    gets the whole-wave count for the session's CPUs."""
    import westa_ocr_ray.pipelines.extract as ex

    corpus = fixtures.ensure_corpus("smoke")
    seen = []

    def fake_read(path, columns=None, num_blocks=None):
        seen.append(num_blocks)
        raise RuntimeError("stop after the read")

    monkeypatch.setattr(ex, "read_table", fake_read)
    cfg = ExtractConfig(num_parts=2)
    with pytest.raises(RuntimeError, match="stop after the read"):
        run_extract(corpus, str(tmp_path / "up"), cfg)
    monkeypatch.setattr(ex.ray, "is_initialized", lambda: False)
    with pytest.raises(RuntimeError, match="stop after the read"):
        run_extract(corpus, str(tmp_path / "down"), cfg)
    assert seen == [4, None]


def test_phase1_block_count_does_not_change_output(tmp_path):
    """The same corpus through the default block count, 3 blocks and 8
    blocks gives identical rows and identical marker totals."""
    corpus = fixtures.ensure_corpus("correctness")
    keys, totals = [], []
    for n in (None, 3, 8):
        out = str(tmp_path / f"blocks{n}")
        m = run_extract(corpus, out, ExtractConfig(num_parts=8, read_num_blocks=n))
        assert m["parts_written"] == 8
        keys.append(_result_key(read_extracted(out)))
        tot = {"rows": 0, "spans": 0, "errors": 0}
        for path in glob.glob(os.path.join(out, "_markers", "part-*.done")):
            with open(path) as fh:
                marker = json.load(fh)
            for k in tot:
                tot[k] += marker[k]
        totals.append(tot)
    assert keys[0] == keys[1] == keys[2]
    assert totals[0] == totals[1] == totals[2]
    assert totals[0]["rows"] == len(keys[0])
