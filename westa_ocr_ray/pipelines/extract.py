"""The flagship pipeline — the reference's whole dataflow
(app/worker.py:170-505) as one streaming Ray Data program:

    read(documents)
      → map_batches(explode_spans)            # doc → span rows (M1 fan-out)
      → map_batches(prepare)                  # fetch + page split (S1/M1)
      → map_batches(ExtractModel instance)    # model (A1) + masters (J1), as tasks
      → exchange on `part`                    # the one shuffle (O1 + G1):
          run_extract:     external staged shuffle + per-partition reduce
          extract_dataset: groupby(part).map_groups(reassemble)
      → [atomic per-partition write + markers + lineage]   # S3-S6, §4.4

Everything streams with backpressure; nothing materializes the corpus.
Both entry points run the same fused chain, one task and one batch per
read block (see build_extracted_units). Skew is handled by the fan-out
itself: a heavy document becomes many page units before the model runs
(SURVEY.md §4.2).
In run_extract both phases start one task per free CPU at once. Phase 1 is
one fused Ray Data stage whose only output is the tiny staging
manifest, so it drops Ray Data's output reserve for unsampled tasks
(see build_extracted_units). Its input block count is a whole multiple
of the extract slots (see phase1_num_blocks): Ray Data starts a task
beyond the first wave only once all running ones end or on a 100 ms
poll tick, so a partial wave idles CPUs. Phase 2 is one wave of plain
Ray tasks, each opening every stage file once and committing a
contiguous run of partitions: its input is a short list of partition
ids, so Ray Data's streaming and block sizing buy nothing there (see
_run_reduce_wave).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
from typing import Optional, Set

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from .. import fixtures
from ..config import ExtractConfig
from ..relops import gather
from ..stages import ExtractModel, make_explode, make_part_reducer, make_prepare
from ..stages.reassemble import reassemble_partition
from ..storage import input_files, read_table


#: input bytes (on disk) per phase-1 extract task when run_extract picks
#: the read's block count (phase1_num_blocks). It only decides inputs
#: with fewer files than ~bytes / PHASE1_TASK_BYTES; any other input
#: reads in whole waves of its file count. Fewer, larger tasks mean
#: fewer stage files for every reducer to open; smaller ones less
#: fetched payload in one task's memory (SCALE.md §Memory and
#: backpressure).
PHASE1_TASK_BYTES = 8 << 20


def phase1_num_blocks(input_bytes: int, n_files: int, cpus: int,
                      cfg: ExtractConfig) -> int:
    """Block count of run_extract's staged read: ``cfg.read_num_blocks``
    when set, else whole waves of the extract slots
    ``W = min(cpus, cfg.extract_concurrency or cpus)``: one wave per
    ``W × PHASE1_TASK_BYTES`` of input, but no more waves than the
    input has files for, ``W × min(ceil(input_bytes / (W ×
    PHASE1_TASK_BYTES)), ceil(n_files / W))``, at least one wave.

    Whole waves because Ray Data 2.49's executor waits for every running
    task or a 100 ms timeout before it starts more
    (streaming_executor_state.process_completed_tasks): a block beyond
    a whole wave starts on a later poll tick while CPUs sit idle."""
    if cfg.read_num_blocks is not None:
        return cfg.read_num_blocks
    w = max(1, min(cpus, cfg.extract_concurrency or cpus))
    waves = min(-(-input_bytes // (w * PHASE1_TASK_BYTES)), -(-n_files // w))
    return w * max(1, waves)


def read_documents(path: str, cfg: ExtractConfig = ExtractConfig()) -> rd.Dataset:
    """Input source: the interleaved documents table
    (BASELINE.json.input_hint schema) through the Lance/Parquet storage
    seam (storage.py; SURVEY.md §7).

    The read is sized for the extract chain it feeds, whose cost is per
    byte (fetch, page split, model): with a Ray session up, its block
    count is phase1_num_blocks for ``cfg`` and the session's CPUs,
    whole waves of the extract slots. With no session there are no
    slots to fill, so the read gets ``cfg.read_num_blocks`` when set,
    else storage.read_table's byte rule (one block per MiB on disk)."""
    num_blocks = cfg.read_num_blocks
    if ray.is_initialized():
        num_blocks = phase1_num_blocks(*input_files(path),
                                       int(ray.cluster_resources().get("CPU", 1)), cfg)
    return read_table(path, num_blocks=num_blocks)


def build_extracted_units(docs: rd.Dataset, cfg: ExtractConfig,
                          skip_parts: Optional[Set[int]] = None,
                          stage_dir: Optional[str] = None,
                          stage_fs=None) -> rd.Dataset:
    """documents → extracted unit rows (pre-reassembly).

    Every stage takes whole blocks (Ray Data's default
    ``batch_size=None``), so the fused chain runs one task per read
    block. Ray Data merges small blocks into one task but never splits
    one, so reordering or slicing rows inside a block could not move
    work between tasks. With ``stage_dir`` set, the extract tasks also
    write the map side of the external shuffle and the returned dataset
    is the tiny manifest (see stages/staging.py), one stage file per
    block."""
    ds = docs.map_batches(make_explode(cfg.num_parts, skip_parts),
                          batch_format="pyarrow")
    ds = ds.map_batches(make_prepare(cfg.seed), batch_format="pyarrow")
    # A callable instance, not the class: the fused chain (read → ... →
    # ExtractModel → stage write) then runs as tasks on the warm
    # task-worker pool instead of a fresh actor pool per run (see
    # stages/extract.py). Ray Data names the operator after the class,
    # MapBatches(ExtractModel), which the stats parsing keys on.
    # Broadcast small side (J1): the masters table ships inside the
    # pickled instance, which Ray Data puts in the object store once
    # per stage.
    model = ExtractModel(masters=fixtures.master_keys(cfg.seed, cfg.pattern),
                         stage_dir=stage_dir,
                         chaos_crash_marker=cfg.chaos_crash_marker,
                         stage_fs=stage_fs)
    ds = ds.map_batches(
        model,
        batch_format="pyarrow",
        concurrency=cfg.extract_concurrency,  # None: as many as CPUs allow
    )
    if stage_dir is not None:
        # Until an op's first task returns, Ray Data prices each task's
        # output at target_max_block_size × this buffer (256 MiB), which
        # fills a small object store's op budget so one task runs alone.
        # The manifest needs no such reserve. This is the context the
        # read made for this chain; the global one keeps the default.
        ds.context._max_num_blocks_in_streaming_gen_buffer = None
    return ds


def extract_dataset(docs: rd.Dataset, cfg: ExtractConfig = ExtractConfig()) -> rd.Dataset:
    """In-memory variant: returns the RESULT_SCHEMA dataset (no files)."""
    units = build_extracted_units(docs, cfg)
    # not relops.exchange: this reduce is pyarrow-format and RESULT_SCHEMA-typed
    return units.groupby("part").map_groups(reassemble_partition, batch_format="pyarrow")


def done_parts(out_dir: str) -> Set[int]:
    return {int(os.path.basename(p)[len("part-"):-len(".done")])
            for p in glob.glob(os.path.join(out_dir, "_markers", "part-*.done"))}


def _check_assign_version(out_dir: str, skip: Set[int]) -> Set[int]:
    """Markers are only meaningful under the doc→partition assignment
    rule that wrote them (stages/explode.ASSIGN_VERSION). A resume
    against markers from a DIFFERENT version would mix two partition
    meanings (docs silently dropped or doubled) — instead, wipe the
    stale outputs and restart from scratch. The version stamp is
    written next to the markers at first run."""
    from ..stages.explode import ASSIGN_VERSION

    vfile = os.path.join(out_dir, "_markers", "ASSIGN_VERSION")
    cur = str(ASSIGN_VERSION)
    stamped = None
    if os.path.exists(vfile):
        with open(vfile) as fh:
            stamped = fh.read().strip()
    if skip and stamped != cur:
        for sub in ("extracted", "units", "_markers", "lineage"):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
        skip = set()
    os.makedirs(os.path.join(out_dir, "_markers"), exist_ok=True)
    if stamped != cur:
        with open(vfile, "w") as fh:
            fh.write(cur)
    return skip


def _fire_commit_hooks(out_dir: str, hook) -> int:
    """Deliver ``on_partition_commit`` callbacks: for every partition
    with a completion marker but no ``.notified`` stamp, call the hook
    with the marker dict (+ its lineage path), then stamp. The stamp is
    written AFTER the hook returns, so delivery is exactly-once per
    partition in normal operation and at-least-once across a crash
    inside the hook itself — the same semantics as the reference's
    per-page webhook push (app/worker.py:633-687), at the engine's
    partition-commit granularity."""
    fired = 0
    for p in sorted(glob.glob(os.path.join(out_dir, "_markers",
                                           "part-*.done"))):
        nfile = p[:-len(".done")] + ".notified"
        if os.path.exists(nfile):
            continue
        with open(p) as fh:
            marker = json.load(fh)
        marker["lineage_path"] = os.path.join(
            out_dir, "lineage", f"part-{int(marker['part']):05d}.jsonl")
        hook(marker)
        with open(nfile, "w") as fh:
            fh.write("ok")
        fired += 1
    return fired


def _reduce_task_count(n_parts: int, reduce_concurrency: int) -> int:
    """Phase-2 task count: one task per reducer slot. Each task opens
    every stage file once (stages/reassemble.make_part_reducer), so the
    wave opens every stage file once per slot rather than once per
    partition. Capped by the partitions left, ``reduce_concurrency``
    and the cluster's CPUs (``reduce_concurrency`` alone when Ray
    reports no CPU count)."""
    cpus = int(ray.cluster_resources().get("CPU", reduce_concurrency))
    return max(1, min(n_parts, reduce_concurrency, cpus))


@ray.remote(max_retries=-1)
def _reduce_run(reducer, parts: list) -> pa.Table:
    """One phase-2 task: reduce one contiguous run of partitions.
    Retried without limit on worker death (Ray Data's own default);
    the reducer's markers make a retry skip what its failed try
    committed."""
    return reducer(pa.table({"part": pa.array(parts, type=pa.int32())}))


def _run_reduce_wave(reducer, remaining: list, n_tasks: int) -> list:
    """Submit one task per contiguous run of ``remaining``, all at once,
    and return the committed partitions' marker rows.

    Plain tasks, not a Ray Data dataset: Ray Data starts a task whose
    output it has not sampled yet alone, sized at the target block size
    against the object store, so the other reducers only started after
    the first returned. The driver waits through ``relops.gather``, so
    the main-thread SIGTERM handler (run_extract) can touch the stop
    file while the reducers run, and on any error the tasks still
    running are cancelled."""
    tables = gather([_reduce_run.remote(reducer, run.tolist())
                     for run in np.array_split(np.asarray(remaining), n_tasks)])
    return pa.concat_tables(tables).to_pylist()


def run_extract(input_path: str, out_dir: str,
                cfg: ExtractConfig = ExtractConfig(),
                on_partition_commit=None) -> dict:
    """Resumable run: skips partitions that already have completion
    markers (anti-join at the read — reference startup requeue,
    app/main.py:402-406, at output-partition granularity instead of
    whole-job), writes the rest atomically, and records run metrics.

    ``on_partition_commit``: optional callable fired once per committed
    partition with the marker dict (part, rows, spans, errors, wall_ms,
    attempt, lineage_path) — the push-notification seam (reference
    webhook analog). Unnotified partitions from a previous crashed run
    are delivered first; delivery state persists in
    ``_markers/part-*.notified`` so a re-run never re-fires.

    The doc_id exchange before reassembly is an external staged shuffle
    (see stages/reassemble.py): phase 1 streams extracted units into
    per-partition parquet fragments, all CPUs busy from the first task
    on; phase 2 reduces each partition independently and commits it with
    its marker + lineage, in one wave of plain Ray tasks. Stage files
    from a crashed run are wiped — unfinished partitions recompute from
    the input (completed ones are skipped by their markers). Unless
    ``cfg.read_num_blocks`` is set (or Ray is not started yet), phase 1
    reads the input in whole waves of one block per extract slot,
    ~``PHASE1_TASK_BYTES`` of input per task, and no more waves than
    it takes to give every input file a block (see read_documents and
    phase1_num_blocks).

    Cooperative cancellation (``cfg.stop_file``, reference
    app/worker.py:188,256,303-310 + admin stop app/admin.py:727-782):
    when the stop file appears — touched externally, or by this
    function's own SIGTERM handler — the run DRAINS: the phase-1→2
    boundary and every phase-2 reducer check it, already-finished
    partitions commit normally with markers/lineage/hooks, nothing new
    starts, and the function returns metrics with ``stopped=True`` and
    ``parts_drained`` (exit 0). A later run without the stop file is a
    plain marker resume over exactly the drained partitions.

    Returns the run-metrics dict (also written to out_dir/metrics/)."""
    import signal
    import threading

    t0 = time.perf_counter()

    def stop_requested() -> bool:
        return cfg.stop_file is not None and os.path.exists(cfg.stop_file)

    prev_handler = None
    if cfg.stop_file is not None and threading.current_thread() is threading.main_thread():
        def _drain_on_term(signum, frame):
            with open(cfg.stop_file, "w") as fh:
                fh.write(f"SIGTERM pid={os.getpid()}\n")
        prev_handler = signal.signal(signal.SIGTERM, _drain_on_term)
    try:
        return _run_extract_inner(input_path, out_dir, cfg,
                                  on_partition_commit, t0, stop_requested)
    finally:
        if prev_handler is not None:
            signal.signal(signal.SIGTERM, prev_handler)


def _run_extract_inner(input_path: str, out_dir: str, cfg: ExtractConfig,
                       on_partition_commit, t0: float,
                       stop_requested) -> dict:
    skip = _check_assign_version(out_dir, done_parts(out_dir))
    attempt = 1 if skip else 0
    if on_partition_commit is not None and skip:
        # partitions committed by a crashed earlier run whose hooks
        # never fired (or that ran without a hook)
        _fire_commit_hooks(out_dir, on_partition_commit)
    from ..stages.staging import (list_stage_files, resolve_stage_fs,
                                  wipe_stage_dir)

    tag = hashlib.md5(os.path.abspath(out_dir).encode()).hexdigest()[:12]
    stage_fs = None
    if cfg.stage_root and "://" in cfg.stage_root:
        # shared/remote staging: resolve the filesystem ONCE here; the
        # fs object ships (pickled) into extract tasks and reducers.
        # Multi-node REQUIRES this form (or a stage_root path mounted
        # identically on every node): phase 2 reads every stage file.
        stage_fs, stage_base = resolve_stage_fs(cfg.stage_root)
        stage_dir = stage_base.rstrip("/") + "/" + tag
    elif cfg.stage_root and os.path.isdir(os.path.dirname(cfg.stage_root.rstrip("/")) or "/"):
        stage_dir = os.path.join(cfg.stage_root, tag)
    else:
        stage_dir = os.path.join(out_dir, "_stage")
    wipe_stage_dir(stage_dir, fs=stage_fs)
    # a writer killed between write and rename leaves its tmp file in
    # extracted/ or _markers/, where a directory read would trip on it
    for sub in ("extracted", "_markers"):
        for stale in glob.glob(os.path.join(out_dir, sub, "*.tmp.*")):
            os.remove(stale)
    summary_rows = []
    reduce_tasks = stage_files = 0
    phase1_sec = phase2_sec = 0.0
    n_remaining = cfg.num_parts - len(skip)
    if n_remaining and not stop_requested():
        docs = read_documents(input_path, cfg)
        # phase 1: map-side shuffle files, written by the extract tasks
        # themselves (streams; no barrier, no extra worker pool)
        manifest = build_extracted_units(docs, cfg, skip_parts=skip,
                                         stage_dir=stage_dir,
                                         stage_fs=stage_fs)
        manifest = manifest.materialize()  # manifest is tiny (part, rows)
        phase1_sec = time.perf_counter() - t0
        os.makedirs(os.path.join(out_dir, "metrics"), exist_ok=True)
        with open(os.path.join(out_dir, "metrics",
                               f"stats-attempt{attempt}.txt"), "w") as fh:
            fh.write(manifest.stats())  # per-stage wall/cpu/memory breakdown
        # phase 2: one wave of plain Ray tasks (not Ray Data, which
        # started the reducers one after another; see
        # _run_reduce_wave), one per reducer slot, each opening every
        # stage file once and reducing a contiguous run of
        # partitions. stage_files, the other side of that tasks × files
        # open matrix, is counted before the wipe. A stop request
        # landing between the phases drains here — the stage files are
        # transient either way, so nothing is lost that a marker resume
        # would not recompute.
        remaining = sorted(set(range(cfg.num_parts)) - skip)
        if not stop_requested():
            stage_files = len(list_stage_files(stage_dir, fs=stage_fs))
            reduce_tasks = _reduce_task_count(len(remaining),
                                              cfg.reduce_concurrency)
            reducer = make_part_reducer(stage_dir, out_dir, attempt=attempt,
                                        keep_units=cfg.keep_units,
                                        stop_file=cfg.stop_file,
                                        stage_fs=stage_fs)
            summary_rows = _run_reduce_wave(reducer, remaining, reduce_tasks)
        phase2_sec = time.perf_counter() - t0 - phase1_sec
        wipe_stage_dir(stage_dir, fs=stage_fs)
        if on_partition_commit is not None:
            _fire_commit_hooks(out_dir, on_partition_commit)
    wall = time.perf_counter() - t0
    metrics = {
        "stopped": stop_requested(),
        "parts_drained": n_remaining - len(summary_rows),
        "input": input_path,
        "out_dir": out_dir,
        "attempt": attempt,
        "parts_skipped": len(skip),
        "parts_written": len(summary_rows),
        "docs": int(sum(r["docs"] for r in summary_rows)),
        "spans": int(sum(r["spans"] for r in summary_rows)),
        "errors": int(sum(r["errors"] for r in summary_rows)),
        "wall_sec": round(wall, 3),
        "phase1_sec": round(phase1_sec, 3),
        "phase2_sec": round(phase2_sec, 3),
        "num_parts": cfg.num_parts,
        "reduce_tasks": reduce_tasks,
        "stage_files": stage_files,
    }
    os.makedirs(os.path.join(out_dir, "metrics"), exist_ok=True)
    with open(os.path.join(out_dir, "metrics", f"run-attempt{attempt}.json"), "w") as fh:
        json.dump(metrics, fh, indent=2)
    return metrics


def read_extracted(out_dir: str) -> rd.Dataset:
    return read_table(os.path.join(out_dir, "extracted"))
