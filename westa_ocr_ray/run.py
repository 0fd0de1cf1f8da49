"""CLI driver — `python -m westa_ocr_ray.run` — the engine analog of the
reference's service entry point (app/main.py startup → worker loop),
suitable for `ray job submit -- python -m westa_ocr_ray.run ...`.

Resumable by construction: rerunning with the same --output skips
partitions whose completion markers exist (reference startup requeue,
app/main.py:402-406, at partition granularity).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="westa_ocr_ray extraction driver")
    p.add_argument("--input", required=True,
                   help="documents table dir (parquet/lance, interleaved schema)")
    p.add_argument("--output", required=True, help="output dir (resumable layout)")
    p.add_argument("--num-parts", type=int, default=64)
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init num_cpus (omit to auto/join existing)")
    p.add_argument("--read-blocks", type=int, default=None,
                   help="input block count = phase-1 extract tasks (default: "
                        "whole waves of the cluster's CPUs, one wave per "
                        "8 MiB of input per CPU, no more waves than the "
                        "input files fill)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pattern", default="A", help="masters pre-filter pattern")
    p.add_argument("--keep-units", action="store_true",
                   help="also write per-unit rows (PAGE_RESULT granularity)")
    p.add_argument("--stop-file", default=None,
                   help="cooperative-cancel seam: touch this file (or send "
                        "SIGTERM to this process) to drain — finished "
                        "partitions commit, the rest resume on the next run")
    args = p.parse_args(argv)

    if not os.path.exists(args.input):
        print(f"error: input not found: {args.input}", file=sys.stderr)
        return 1

    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False,
                      ignore_reinit_error=True, logging_level="ERROR")
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .config import ExtractConfig
    from .pipelines.extract import run_extract

    cfg = ExtractConfig(
        seed=args.seed, pattern=args.pattern, num_parts=args.num_parts,
        read_num_blocks=args.read_blocks,
        keep_units=args.keep_units,
        stop_file=args.stop_file,
    )
    metrics = run_extract(args.input, args.output, cfg)
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
