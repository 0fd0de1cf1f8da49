"""10x-bench-tier scale rehearsal of the flagship extraction pipeline:
~6M docs (vs bench's 600k) through run_extract on the local host,
recording the phase-1/phase-2 split, the external-shuffle stage-file
count and peak volume, and whether the ExtractConfig defaults
(num_parts=64, reduce_concurrency=16) hold at 10x. One JSON line per
config. Configs: default, parts256 (256 partitions), reduce8 (the
previous reduce_concurrency default), blocks512 (512 read blocks).

    python scripts/scale_rehearsal.py            # default config
    GRAFT_REHEARSAL_DOCS=6000000 GRAFT_REHEARSAL_CONFIGS=default,reduce8 \
        python scripts/scale_rehearsal.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_DOCS = int(os.environ.get("GRAFT_REHEARSAL_DOCS", "6000000"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
STAGE_ROOT = "/dev/shm/westa_stage"


class StageSampler(threading.Thread):
    """Samples the stage dir while phase 1/2 run: peak bytes + peak file
    count (the stage files are wiped at the end of the run, so the
    volume must be observed live)."""

    def __init__(self, root: str, interval: float = 1.0):
        super().__init__(daemon=True)
        self.root, self.interval = root, interval
        self.peak_bytes = 0
        self.peak_files = 0
        self._stop_evt = threading.Event()

    def run(self):
        while not self._stop_evt.is_set():
            total = files = 0
            for dirpath, _dirnames, filenames in os.walk(self.root):
                for f in filenames:
                    try:
                        total += os.path.getsize(os.path.join(dirpath, f))
                        files += 1
                    except OSError:
                        pass
            self.peak_bytes = max(self.peak_bytes, total)
            self.peak_files = max(self.peak_files, files)
            self._stop_evt.wait(self.interval)

    def stop(self):
        self._stop_evt.set()
        self.join()


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from westa_ocr_ray import fixtures
    from westa_ocr_ray.config import ExtractConfig
    from westa_ocr_ray.pipelines.extract import run_extract

    t0 = time.perf_counter()
    # tier name carries n_docs: ensure_corpus caches per tier NAME, so a
    # differently-sized rehearsal must not reuse a smaller cached corpus
    corpus = fixtures.ensure_corpus(f"rehearsal{N_DOCS}", n_docs=N_DOCS,
                                    files=64)
    gen_sec = time.perf_counter() - t0

    frac = float(os.environ.get("GRAFT_ACTOR_FRACTION", "0.875"))
    nact = max(2, int(NUM_CPUS * frac))
    rb = 8 * NUM_CPUS if NUM_CPUS < 16 else max(256, 4 * NUM_CPUS)

    configs = {
        # the bench-tier defaults, unchanged — the question under test
        "default": ExtractConfig(extract_concurrency=nact,
                                 read_num_blocks=rb),
        # alternatives to compare at 10x (opt-in via
        # GRAFT_REHEARSAL_CONFIGS)
        "parts256": ExtractConfig(extract_concurrency=nact,
                                  read_num_blocks=rb, num_parts=256),
        "reduce8": ExtractConfig(extract_concurrency=nact,
                                 read_num_blocks=rb, reduce_concurrency=8),
        "blocks512": ExtractConfig(extract_concurrency=nact,
                                   read_num_blocks=512),
    }
    wanted = os.environ.get("GRAFT_REHEARSAL_CONFIGS", "default").split(",")

    for name in wanted:
        cfg = configs[name]
        out = f"/tmp/westa_rehearsal_out/{name}"
        shutil.rmtree(out, ignore_errors=True)
        sampler = StageSampler(STAGE_ROOT)
        sampler.start()
        metrics = run_extract(corpus, out, cfg)
        sampler.stop()
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps({
            "rehearsal": name,
            "n_docs": N_DOCS,
            "corpus_gen_sec": round(gen_sec, 2),
            "wall_sec": metrics["wall_sec"],
            "phase1_sec": metrics["phase1_sec"],
            "phase2_sec": metrics["phase2_sec"],
            "docs_per_sec": round(metrics["docs"] / metrics["wall_sec"], 1),
            "docs": metrics["docs"],
            "spans": metrics["spans"],
            "num_parts": cfg.num_parts,
            "reduce_concurrency": cfg.reduce_concurrency,
            "read_num_blocks": cfg.read_num_blocks,
            "stage_peak_bytes": sampler.peak_bytes,
            "stage_peak_files": sampler.peak_files,
            "num_cpus": NUM_CPUS,
        }))
    ray.shutdown()


if __name__ == "__main__":
    main()
