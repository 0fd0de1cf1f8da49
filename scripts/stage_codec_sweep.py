"""Sweep the staged-shuffle file codec (NOTES round-3 item): time the
flagship extraction at sf-bench with different stage-file compression
settings. Stage files live on /dev/shm (RAM-backed) in the sandbox, so
lighter codecs may win locally even though zstd wins on real network
storage at 100 TB — this records the tradeoff instead of guessing.

Usage: python scripts/stage_codec_sweep.py [ncpu] [reps]
"""

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ncpu = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    import ray
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from westa_ocr_ray import fixtures
    from westa_ocr_ray.config import ExtractConfig
    from westa_ocr_ray.pipelines.extract import run_extract
    from westa_ocr_ray.stages import staging

    corpus = fixtures.ensure_corpus("bench")
    import pyarrow.dataset as pads
    pads.dataset(corpus).to_table()

    nact = max(2, ncpu - max(1, ncpu // 8))
    cfg = ExtractConfig(extract_concurrency=nact,
                        read_num_blocks=8 * ncpu)
    out = {}
    for codec in ("snappy", "none", "zstd"):
        best = None
        for rep in range(reps):
            os.environ["WESTA_STAGE_CODEC"] = codec
            out_dir = f"/tmp/westa_codec_sweep/{codec}_{rep}"
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            m = run_extract(corpus, out_dir, cfg)
            dt = time.perf_counter() - t0
            shutil.rmtree(out_dir, ignore_errors=True)
            best = dt if best is None else min(best, dt)
        out[codec] = {"best_sec": round(best, 2),
                      "docs_per_sec": round(m["docs"] / best)}
    print(json.dumps({"ncpu": ncpu, "sweep": out}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
