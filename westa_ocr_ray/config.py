"""Per-run configuration — the engine analog of the reference's per-job
knobs (app/models.py:34-52) and env surface (app/settings.py:131-170),
collapsed to an immutable dataclass (no hot reload; a run's tasks read
the config it started with, SURVEY.md §2.3 A3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fixtures import DEFAULT_SEED


@dataclass(frozen=True)
class ExtractConfig:
    seed: int = DEFAULT_SEED
    pattern: str = "A"              # masters pre-filter (GAS doc :57-70)
    num_parts: int = 64             # output partitions (resume granularity)
    # cap on concurrent extract tasks (the reference's WORKER_COUNT);
    # None = as many as the cluster's CPUs allow, all started at once in
    # run_extract whatever the object store size (build_extracted_units).
    # A cap above the input block count buys nothing: one task per block.
    extract_concurrency: Optional[int] = None
    # staged-shuffle knobs: read_num_blocks is run_extract's input block
    # count, one phase-1 extract task and at most one stage file per
    # block. None runs phase 1 in whole waves of the extract slots
    # W = min(CPUs, extract_concurrency): one wave per W ×
    # PHASE1_TASK_BYTES of input on disk, no more than ceil(input files
    # / W) waves (pipelines/extract.phase1_num_blocks); with no Ray
    # session up yet, storage.read_table's byte rule. The same count
    # sizes every documents read (pipelines/extract.read_documents).
    # reduce_concurrency caps the concurrent reducers: phase 2 runs as
    # ONE wave of min(parts left, reduce_concurrency, cluster CPUs)
    # plain Ray tasks, all submitted at once, each opening every stage
    # file once and reducing a
    # contiguous run of partitions through those handles, so the open
    # matrix is reducers × stage files, not partitions × stage files
    # (the run metrics' reduce_tasks × stage_files). 16 beat 8 at the
    # 6M-doc rehearsal (phase2 15.2s -> 9.7s, BASELINE.md §10x,
    # measured with one task per partition); 256 parts with 16
    # reducers regressed there (32.3s — per-task stage-file open cost
    # dominated), so num_parts stays 64.
    read_num_blocks: Optional[int] = None
    reduce_concurrency: int = 16
    # stage files are transient (wiped on resume): put them on fast local
    # scratch — /dev/shm when available, the cluster-node SSD otherwise.
    # MULTI-NODE: phase 2 requires every reducer to see every stage
    # file, so stage_root must then be EITHER a path mounted identically
    # on all nodes OR a filesystem URI ("file:///mnt/shared/stage",
    # "s3://bucket/stage", any staging.register_stage_fs scheme) — the
    # URI resolves once on the driver to a pyarrow.fs.FileSystem that
    # ships into the extract tasks/reducers (stages/staging.py). Codec
    # auto-switches to zstd on URI staging (network bytes dominate;
    # scripts/stage_codec_sweep.py).
    stage_root: Optional[str] = "/dev/shm/westa_stage"
    # also persist per-unit rows (units/part-*.parquet) — the reference's
    # per-page PAGE_RESULT event granularity (app/worker.py:633-687)
    keep_units: bool = False
    # cooperative cancellation (reference worker.py:188,256,303-310:
    # stop-signal checks between pages/jobs; admin stop app/admin.py:
    # 727-782). When this file exists the run DRAINS instead of dying:
    # phase boundaries and each phase-2 reducer check it, finished
    # partitions commit with their markers, the rest are left for a
    # normal marker resume, and run_extract returns (exit 0) with
    # metrics["stopped"]=True. run_extract also traps SIGTERM into
    # touching this file, so `ray job stop` style termination drains
    # too. Multi-node: the path must be on storage every reducer sees
    # (same requirement as stage_root).
    stop_file: Optional[str] = None
    # fault-injection seam (tests/test_chaos.py): when set, the FIRST
    # extract task to process a batch hard-kills its worker (os._exit)
    # after creating this marker file — proving Ray's task-retry
    # boundary leaves output byte-identical. None in production.
    chaos_crash_marker: Optional[str] = None
