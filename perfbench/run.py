"""The repository benchmark: end-to-end and per-layer numbers for the
flagship extraction pipeline and the shared query primitives, every
output checked against a reference.

Usage (from the repository root)::

    python3 perfbench/run.py --workload extract_fixture --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload ops_queries --seed 1 --seconds 30 --trace 1

Workloads (inputs are generated from ``--seed``; the engine only sees
the written files):

- ``extract_fixture``: ``run_extract`` with the default ExtractConfig
  (64 parts) over the package's fixture corpus: short/medium/heavy docs,
  ~70% media pages, zero-span, duplicate and corrupt-payload rows.
  Prepare's fetch/split and phase 2's fixed per-task cost dominate.
- ``extract_html``: ``run_extract`` over an html+text-only corpus (no
  media refs), so prepare is a passthrough and ExtractModel's HTML path
  is the largest layer.
- ``ops_queries``: one pass over registry queries that run the shared
  primitives (partial_aggregate, hash_join, grouped_topk,
  semi_anti_filter_scalable, MinHash LSH) over TPC-H-ish tables.

A run sets up once (Ray session, imports, inputs and reference, one
untimed warm-up pass), then runs timed passes for ``--seconds`` (at
least two; one in a traced run), checking each pass's output outside
the timed interval.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``). The
line before it is a human summary; the full artifact (quartiles,
samples, host facts, spans, per-operator stats) is written under
``.perfbench/out/``.

A ``--trace 1`` run makes the same untraced timed passes, then a traced
pass of the workload (span wrappers around the shared primitives; for
extract workloads the in-process extract-layer ledger on the workload's
own corpus), then the other family's traced pass on probe-size inputs,
so every per-layer metric is measured on every workload. Tracing
overhead is the traced pass's wall minus the untraced ``run_s``.

Check the benchmark itself with ``python3 perfbench/selftest.py``;
compare two sets of artifacts with ``python3 perfbench/diff.py A B``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

#: logical CPUs given to ray.init. The benchmark host may have fewer
#: cores; this fixes the actor-pool and reducer concurrency the engine
#: resolves, so numbers are comparable across hosts with the same value.
LOGICAL_CPUS = 4
OBJECT_STORE_BYTES = 256 << 20
#: set-up rounds (input generation + reference); setup_s takes the median
SETUP_ROUNDS = 3
MIN_PASSES = 2
#: a pass running longer than this counts as a failed operation (for an
#: ops pass, each query not finished in it) and ends the run's timed
#: section
PASS_TIMEOUT_S = 60.0
RSS_SAMPLE_S = 0.2
#: Unix socket paths are limited to 107 bytes; Ray's session sockets add
#: about 64 to the temp dir
MAX_RAY_TMP_LEN = 40

OPS_QUERIES = ["g1_lineitem_agg", "q10_returned_items", "q22_idle_customers",
               "dedup_minhash_planted"]
#: size of the extract corpus an ops_queries traced run probes (units)
PROBE_UNITS = 1500


class PassTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise PassTimeout in the main thread after ``seconds``."""
    def on_alarm(signum, frame):
        raise PassTimeout(f"exceeded {seconds:.0f} s")

    prev = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, prev)


# ------------------------------------------------------------ processes

def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, start time) for every visible process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[int(d)] = (int(fields[1]), fields[19])
    return out


def _descendants(table: Dict[int, tuple], pid: int) -> List[int]:
    kids: Dict[int, List[int]] = {}
    for p, (pp, _) in table.items():
        kids.setdefault(pp, []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class ProcessWatch:
    """Samples the summed resident memory of this process and all its
    descendants (the Ray daemons and workers) from /proc, and remembers
    every descendant seen so the run can make sure each has ended."""

    def __init__(self) -> None:
        self.seen: Dict[int, str] = {}
        self._peak = 0
        self._on = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _sample(self) -> int:
        table = _proc_table()
        me = os.getpid()
        total = _rss_bytes(me)
        for p in _descendants(table, me):
            self.seen.setdefault(p, table[p][1])
            total += _rss_bytes(p)
        return total

    def _loop(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            if self._on.is_set():
                self._peak = max(self._peak, self._sample())
            else:
                self._sample()

    def begin(self) -> None:
        self._peak = self._sample()
        self._cpu0 = _cpu_times()
        self._on.set()

    def end(self) -> tuple:
        """(peak summed RSS in MB, host CPU-busy seconds, share of host
        CPU time stolen by the hypervisor) since begin()."""
        self._on.clear()
        busy, steal, total = (b - a for a, b in zip(self._cpu0, _cpu_times()))
        return max(self._peak, self._sample()) / 2**20, busy, steal / max(total, 1e-9)

    def close(self, grace_s: float = 15.0) -> List[int]:
        """Stop sampling; terminate any descendant still alive and wait
        for it. Returns the pids that had to be signalled."""
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()

        def alive() -> List[int]:
            table = _proc_table()
            return [p for p, st in self.seen.items()
                    if p in table and table[p][1] == st
                    and _state(p) not in ("Z", "X")]

        deadline = time.monotonic() + grace_s
        while alive() and time.monotonic() < deadline:
            time.sleep(0.2)
        left = alive()
        for sig in (signal.SIGTERM, signal.SIGKILL):
            for p in alive():
                with contextlib.suppress(OSError):
                    os.kill(p, sig)
            end = time.monotonic() + 5
            while alive() and time.monotonic() < end:
                time.sleep(0.1)
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        return left


def _cpu_times() -> tuple:
    """Host-wide (busy, stolen, total) CPU seconds so far, from
    /proc/stat. Busy excludes idle, iowait and steal."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:9]]
    tick = os.sysconf("SC_CLK_TCK")
    return ((sum(f) - f[3] - f[4] - f[7]) / tick, f[7] / tick, sum(f) / tick)


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "X"


# ------------------------------------------------------------ host facts

def sha256_ceiling_mb_s() -> float:
    """Single-core sha256 throughput, best of 3 over 32 MiB: a host
    speed stamp so artifact pairs from different hosts can be told
    apart."""
    buf = b"\x5a" * (1 << 20)
    best = 0.0
    for _ in range(3):
        h = hashlib.sha256()
        t0 = time.perf_counter()
        for _ in range(32):
            h.update(buf)
        best = max(best, 32 / (time.perf_counter() - t0))
    return best


def host_facts() -> dict:
    import numpy
    import pyarrow
    import ray

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), "")
    commit = None
    # only the checkout's own repository: git would otherwise walk up
    # into whatever repository encloses a plain source tree
    if os.path.exists(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            commit = r.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted(glob.glob(os.path.join(ROOT, "westa_ocr_ray", "**", "*.py"),
                              recursive=True)):
        with open(f, "rb") as fh:
            src.update(os.path.relpath(f, ROOT).encode() + b"\0" + fh.read())
    nproc = None
    with contextlib.suppress(OSError, subprocess.SubprocessError, ValueError):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout)
    return {
        # `nproc` honours OMP_NUM_THREADS; cpus_available is what the
        # scheduler lets this process use
        "nproc": nproc,
        "cpus_available": len(os.sched_getaffinity(0)),
        "logical_cpus": LOGICAL_CPUS,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "sha256_mb_s": sha256_ceiling_mb_s(),
    }


# ------------------------------------------------------------ Ray session

def ray_tmp_dir() -> str:
    """Ray's session directory: inside the checkout unless that path is
    too long for Ray's Unix sockets."""
    d = os.path.join(STATE, f"ray{os.getpid()}")
    if len(d) <= MAX_RAY_TMP_LEN:
        os.makedirs(d, exist_ok=True)
        return d
    import tempfile

    return tempfile.mkdtemp(prefix="perfbench-ray-")


def start_ray(tmp: str) -> None:
    import logging

    import ray

    # workers inherit the raylet's environment: the repo (and this
    # directory) must be importable there, whatever the caller's cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    ray.init(num_cpus=LOGICAL_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=tmp,
             object_store_memory=OBJECT_STORE_BYTES)
    from ray.data import DataContext
    from ray.data.context import AutoscalingConfig

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # actor pools hold their minimum size: whether a pool grows depends
    # on scheduling timing, and each extra actor is a process start and
    # package import, which made pass times bimodal on a small host
    ctx.autoscaling_config = AutoscalingConfig(
        actor_pool_util_upscaling_threshold=float("inf"))
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)


def warm_task_workers() -> None:
    """Start the task-worker pool and import the package in it."""
    import ray.data as rd

    def touch(batch):
        import westa_ocr_ray.queries  # noqa: F401
        return batch

    rd.range(4 * LOGICAL_CPUS, override_num_blocks=2 * LOGICAL_CPUS) \
        .map_batches(touch, batch_size=None).materialize()


# ------------------------------------------------------------ workloads

class ExtractWorkload:
    """One pass = one ``run_extract`` call on a fresh out_dir."""

    family = "extract"

    def __init__(self, corpus_fn: Callable, size: int) -> None:
        self.corpus_fn = corpus_fn
        self.size = size

    def prepare(self, seed: int, d: str) -> None:
        from westa_ocr_ray.config import ExtractConfig

        from inputs import doc_key

        self.seed = seed
        self.corpus = os.path.join(d, "corpus")
        rows = self.corpus_fn(seed, self.size, self.corpus)
        self.reference = {r["doc_id"]: doc_key(r) for r in rows}
        # stage_root=None stages under the pass's out_dir, so the run
        # writes nothing outside its own directory
        self.cfg = ExtractConfig(seed=seed, stage_root=None)

    def ops_per_pass(self) -> int:
        return 1

    def warm_up(self, d: str) -> dict:
        return self.run_pass(d)

    def run_pass(self, out_dir: str) -> dict:
        """Returns {"failed": n, "result": run metrics or None}."""
        from westa_ocr_ray.pipelines.extract import run_extract

        try:
            with time_limit(PASS_TIMEOUT_S):
                return {"failed": 0, "result": run_extract(self.corpus, out_dir, self.cfg)}
        except Exception as exc:  # a failed pass is counted, not fatal
            return {"failed": 1, "result": None, "error": repr(exc)}

    def check(self, out_dir: str, res: dict) -> int:
        from inputs import extract_mismatches

        if res["result"] is None:
            return 0
        return extract_mismatches(out_dir, self.reference)

    def items(self, res: dict) -> int:
        return res["result"]["docs"] if res["result"] else 0


class OpsWorkload:
    """One pass = each query of OPS_QUERIES, result fully consumed."""

    family = "ops"

    queries = OPS_QUERIES

    def prepare(self, seed: int, d: str) -> None:
        from inputs import QueryReference, ops_tables

        self.sf_dir = os.path.join(d, "tables")
        ops_tables(seed, self.sf_dir)
        self.reference = QueryReference(self.sf_dir, self.queries)

    def ops_per_pass(self) -> int:
        return len(self.queries)

    def warm_up(self, d: str) -> dict:
        warm_task_workers()
        return self.run_queries(self.queries[:1])

    def run_pass(self, out_dir: str) -> dict:
        return self.run_queries(self.queries)

    def run_queries(self, names: List[str]) -> dict:
        from westa_ocr_ray.queries import QUERIES

        out = {"failed": 0, "result": {}, "walls": {}}
        # the time limit is for the whole list; once it is spent, each
        # query left fails at once
        deadline = time.monotonic() + PASS_TIMEOUT_S
        for name in names:
            t0 = time.perf_counter()
            try:
                with time_limit(max(deadline - time.monotonic(), 0.01)):
                    out["result"][name] = self.reference.to_pandas(QUERIES[name](self.sf_dir))
            except Exception as exc:  # a failed query is counted, not fatal
                out["failed"] += 1
                out.setdefault("errors", {})[name] = repr(exc)
            out["walls"][name] = time.perf_counter() - t0
        return out

    def check(self, out_dir: str, res: dict) -> int:
        return sum(self.reference.mismatches(n, df) for n, df in res["result"].items())

    def items(self, res: dict) -> int:
        return len(res["result"])


def make_workload(name: str, small: bool = False):
    from inputs import FIXTURE_UNITS, HTML_DOCS, fixture_corpus, html_corpus

    if name == "extract_fixture":
        return ExtractWorkload(fixture_corpus, 300 if small else FIXTURE_UNITS)
    if name == "extract_html":
        return ExtractWorkload(html_corpus, 60 if small else HTML_DOCS)
    if name == "ops_queries":
        return OpsWorkload()
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("extract_fixture", "extract_html", "ops_queries")


# ------------------------------------------------------------ statistics

def summarize(values: List[float]) -> dict:
    v = sorted(values)
    if len(v) >= 2:
        q1, med, q3 = statistics.quantiles(v, n=4)
    else:
        q1 = med = q3 = v[0]
    return {"median": statistics.median(v), "q1": q1, "q3": q3,
            "n": len(v), "values": values}


# ------------------------------------------------------------ the run

class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> None:
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.small = small
        self.wl = make_workload(workload, small)
        self.work = os.path.join(STATE, "work", f"{workload}-{seed}-{os.getpid()}")
        self.attempted = self.failed = self.mismatches = 0
        self.errors: List[str] = []

    def _tally(self, res: dict, count: bool, out_dir: str, wl=None) -> None:
        wl = wl or self.wl
        self.mismatches += wl.check(out_dir, res)
        if count:
            self.attempted += wl.ops_per_pass()
            self.failed += res["failed"]
        if res.get("error"):
            self.errors.append(res["error"])
        self.errors.extend(res.get("errors", {}).values())

    def setup(self) -> dict:
        t0 = time.perf_counter()
        import westa_ocr_ray.pipelines.extract  # noqa: F401
        import westa_ocr_ray.queries  # noqa: F401
        session_s = self.session_s + time.perf_counter() - t0
        prep = []
        for r in range(SETUP_ROUNDS):
            d = os.path.join(self.work, f"inputs{r}")
            shutil.rmtree(os.path.join(self.work, f"inputs{r - 1}"), ignore_errors=True)
            t0 = time.perf_counter()
            self.wl.prepare(self.seed, d)
            prep.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        out = os.path.join(self.work, "warmup")
        res = self.wl.warm_up(out)
        warm_s = time.perf_counter() - t0
        if res["failed"]:
            raise RuntimeError(f"warm-up failed: {res.get('error') or res.get('errors')}")
        self._tally(res, False, out)
        shutil.rmtree(out, ignore_errors=True)
        return {"session_s": session_s, "prepare_s": prep, "warmup_s": warm_s,
                "setup_s": session_s + statistics.median(prep) + warm_s}

    def timed(self, watch: ProcessWatch) -> dict:
        # parts_s: per query of an ops pass, per phase of a run_extract pass
        walls, rss, cpu, steal, rates, parts = [], [], [], [], [], {}
        start = time.perf_counter()
        while True:
            out = os.path.join(self.work, f"pass{len(walls)}")
            watch.begin()
            t0 = time.perf_counter()
            res = self.wl.run_pass(out)
            wall = time.perf_counter() - t0
            peak, busy, stolen = watch.end()
            self._tally(res, True, out)
            shutil.rmtree(out, ignore_errors=True)
            if res["failed"]:
                break  # the session may be wedged; report what failed
            walls.append(wall)
            rss.append(peak)
            cpu.append(busy)
            steal.append(stolen)
            rates.append(self.wl.items(res) / wall)
            for q, w in res.get("walls", {}).items():
                parts.setdefault(q, []).append(w)
            for k in ("phase1_sec", "phase2_sec"):
                if k in res["result"]:
                    parts.setdefault(k, []).append(res["result"][k])
            # a traced run's untraced passes only give the baseline for
            # the tracing overhead, so one is enough there
            min_passes = 1 if self.trace else MIN_PASSES
            if len(walls) >= min_passes and time.perf_counter() - start + wall > self.seconds:
                break
        if not walls:
            raise RuntimeError(f"every timed pass failed: {self.errors[:3]}")
        return {"run_s": summarize(walls), "peak_rss_mb": summarize(rss),
                "cpu_s": summarize(cpu), "steal_share": summarize(steal),
                "items_per_s": summarize(rates),
                "parts_s": {q: summarize(v) for q, v in parts.items()}}

    # ---------------------------------------------------------- tracing

    def traced_extract(self, tracer, wl: ExtractWorkload, run_s: float,
                       tag: str) -> dict:
        """Traced run_extract pass plus the in-process layer ledger on
        the same corpus."""
        from spans import LEDGER_LAYERS, extract_ledger, find_operator, operator_json

        out = os.path.join(self.work, f"traced-{tag}")
        with tracer.trace("pass"):
            with tracer.span("pipeline.run_extract") as sp:
                res = wl.run_pass(out)
        self._tally(res, False, out, wl)
        if res["result"] is None:
            raise RuntimeError(f"traced pass failed: {res.get('error')}")
        m = res["result"]
        tracer.add("pipeline.phase1", sp["start"], sp["start"] + m["phase1_sec"], sp)
        tracer.add("pipeline.phase2", sp["start"] + m["phase1_sec"],
                   sp["start"] + m["phase1_sec"] + m["phase2_sec"], sp)
        opjson = operator_json(out)
        with open(self.art_prefix + f"-operators-{tag}.json", "w") as fh:
            json.dump(opjson, fh, indent=1)
        shutil.rmtree(out, ignore_errors=True)

        stage = os.path.join(self.work, f"ledger-stage-{tag}")
        counts = extract_ledger(tracer, wl.corpus, wl.seed, wl.cfg.num_parts,
                                stage, n_blocks=8)
        shutil.rmtree(stage, ignore_errors=True)
        st = tracer.self_times(tracer.trace_id)
        layers = {k: st.get(k, 0.0) for k in LEDGER_LAYERS}
        ext = find_operator(next(iter(opjson.values())).get("operators", []),
                            "ExtractModel") or {}
        met = {
            "storage.read_s": layers["storage.read"],
            "explode.s": layers["explode"],
            "prepare.fetch_s": layers["prepare.fetch"],
            "prepare.split_s": layers["prepare.split"],
            "extract.s": layers["extract"],
            "extract.rows_per_s": counts["extract.rows"] / max(layers["extract"], 1e-9),
            "extract.html_s": st.get("extract.html", 0.0),
            "extract.page_s": st.get("extract.page", 0.0),
            "staging.write_s": layers["staging.write"],
            "reassemble.read_s": layers["reassemble.read"],
            "reassemble.s": layers["reassemble"],
            "pipeline.phase1_s": m["phase1_sec"],
            "pipeline.phase2_s": m["phase2_sec"],
            "pipeline.orchestration_s": run_s - sum(layers.values()),
            "op.ExtractModel.wall_s": ext.get("wall_s", 0.0),
            "op.ExtractModel.udf_s": ext.get("udf_s", 0.0),
        }
        met.update({k: v for k, v in counts.items() if k != "extract.rows"})
        met["_pass_s"] = sp["end"] - sp["start"]
        return met

    def traced_ops(self, tracer, wl: OpsWorkload) -> dict:
        from spans import PRIMITIVES, traced_primitives

        with tracer.trace("pass") as root, traced_primitives(tracer):
            res = {"failed": 0, "result": {}}
            for q in wl.queries:
                with tracer.span(f"query.{q}"):
                    r = wl.run_queries([q])
                res["failed"] += r["failed"]
                res["result"].update(r["result"])
        self._tally(res, False, "", wl)
        if res["failed"]:
            raise RuntimeError("traced ops pass failed")
        st = tracer.self_times(tracer.trace_id)
        q_wall = {s["name"]: s["end"] - s["start"] for s in tracer.spans
                  if s["trace"] == tracer.trace_id and s["name"].startswith("query.")}
        met = {f"{p}_s": st.get(p, 0.0) for p in PRIMITIVES}
        met.update({f"{k}_s": v for k, v in q_wall.items()})
        met["_pass_s"] = root["end"] - root["start"]
        return met

    def traced(self, run_s: float) -> dict:
        from inputs import fixture_corpus
        from spans import Tracer

        tracer = Tracer()
        if self.wl.family == "extract":
            met = self.traced_extract(tracer, self.wl, run_s, "own")
            probe = OpsWorkload()
            probe.prepare(self.seed, os.path.join(self.work, "probe"))
            pm = self.traced_ops(tracer, probe)
        else:
            met = self.traced_ops(tracer, self.wl)
            probe = ExtractWorkload(fixture_corpus, 300 if self.small else PROBE_UNITS)
            probe.prepare(self.seed, os.path.join(self.work, "probe"))
            t0 = time.perf_counter()
            r = probe.run_pass(os.path.join(self.work, "probe-untraced"))
            probe_run_s = time.perf_counter() - t0
            self._tally(r, False, os.path.join(self.work, "probe-untraced"), probe)
            pm = self.traced_extract(tracer, probe, probe_run_s, "probe")
        met["trace.overhead_s"] = met.pop("_pass_s") - run_s
        pm.pop("_pass_s")
        met.update(pm)
        met["trace.spans"] = len(tracer.spans)
        tracer.write(self.art_prefix + "-spans.jsonl")
        return met

    # ---------------------------------------------------------- the run

    def run(self) -> dict:
        os.makedirs(os.path.join(STATE, "out"), exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        self.art_prefix = os.path.join(
            STATE, "out", f"{self.name}-s{self.seed}-t{int(self.trace)}-{stamp}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        watch = ProcessWatch()
        tmp = ray_tmp_dir()
        leaked: List[int] = []
        try:
            import ray

            t0 = time.perf_counter()
            start_ray(tmp)
            self.session_s = time.perf_counter() - t0
            host = host_facts()
            setup = self.setup()
            timed = self.timed(watch)
            layers = self.traced(timed["run_s"]["median"]) if self.trace else None
        finally:
            with contextlib.suppress(Exception):
                ray.shutdown()
            leaked = watch.close()
            shutil.rmtree(self.work, ignore_errors=True)
            shutil.rmtree(tmp, ignore_errors=True)
        artifact = {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "host": host,
            "settings": {"logical_cpus": LOGICAL_CPUS, "setup_rounds": SETUP_ROUNDS,
                         "min_passes": MIN_PASSES, "pass_timeout_s": PASS_TIMEOUT_S,
                         "ray_tmp_in_checkout": tmp.startswith(STATE)},
            "setup": setup, "timed": timed, "layers": layers,
            "attempted": self.attempted, "failed": self.failed,
            "mismatches": self.mismatches, "errors": self.errors[:20],
            "leaked_pids": leaked,
        }
        with open(self.art_prefix + ".json", "w") as fh:
            json.dump(artifact, fh, indent=1)
        return artifact


def result_line(art: dict, trace: bool) -> dict:
    """The last stdout line: end-to-end metrics, or per-layer ones
    for a traced run."""
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in art["layers"].items()}
    else:
        t = art["timed"]
        metrics = {
            "run_s": {"value": t["run_s"]["median"], "unit": "s"},
            "setup_s": {"value": art["setup"]["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": t["peak_rss_mb"]["median"], "unit": "MB"},
        }
    return {"correct": art["mismatches"] == 0 and art["failed"] == 0,
            "attempted": art["attempted"], "failed": art["failed"],
            "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("max_over_median"):
        return "ratio"
    return "count"


def summary(art: dict) -> str:
    t = art["timed"]
    rs = t["run_s"]
    parts = [f"workload={art['workload']} seed={art['seed']}",
             f"run_s={rs['median']:.4f}s [q1 {rs['q1']:.4f}, q3 {rs['q3']:.4f}, n={rs['n']}]",
             f"setup_s={art['setup']['setup_s']:.4f}s",
             f"peak_rss_mb={t['peak_rss_mb']['median']:.1f}MB",
             f"fail_ratio={art['failed'] / max(art['attempted'], 1):.4f}",
             f"mismatches={art['mismatches']}",
             f"cpu_stolen={t['steal_share']['median']:.1%}"]
    if art["workload"].startswith("extract"):
        parts.insert(2, f"docs_per_s={t['items_per_s']['median']:.2f}docs/s")
    return "  ".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "westa_ocr_ray", "__init__.py")):
        print(f"perfbench: no westa_ocr_ray package under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    art = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    print(summary(art))
    print(json.dumps(result_line(art, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
