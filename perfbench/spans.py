"""Tracing for the benchmark's traced runs: in-memory spans, the
in-process extract-layer ledger, span wrappers around the shared
primitives, and a parser for the Ray Data stats text ``run_extract``
writes. Everything here times calls INTO the package from outside it;
nothing in the package is edited or instrumented.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import statistics
import time
from typing import Dict, Iterator, List, Optional

#: shared primitives timed in the ops traced pass: span name -> function
#: name in its module (``relops`` or ``dedup``). Every package module that
#: imported one of them by name gets the wrapper too, so nested calls are
#: traced as child spans.
PRIMITIVES = {
    "relops.partial_aggregate": "partial_aggregate",
    "relops.hash_join": "hash_join",
    "relops.grouped_topk": "grouped_topk",
    "relops.semi_anti_filter": "semi_anti_filter_scalable",
    "dedup.minhash_lsh": "minhash_lsh_pairs",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent, trace id. A
    layer's self time is its span's duration minus its direct children's
    (spans nest; they are recorded from one thread)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.trace_id = 0

    @contextlib.contextmanager
    def trace(self, name: str) -> Iterator[dict]:
        """One pass: a fresh trace id and its root span."""
        self.trace_id += 1
        with self.span(name) as root:
            yield root

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {"trace": self.trace_id, "id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: dict) -> None:
        """A span measured elsewhere (e.g. the phase split run_extract
        reports), attached under ``parent``."""
        self.spans.append({"trace": parent["trace"], "id": len(self.spans),
                           "parent": parent["id"], "name": name,
                           "start": start, "end": end})

    def self_times(self, trace: int) -> Dict[str, float]:
        """Summed self time per span name within one trace."""
        spans = [s for s in self.spans if s["trace"] == trace]
        child = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] in child:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in spans:
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + (s["end"] - s["start"]) - child[s["id"]])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ------------------------------------------------------ extract ledger

def extract_ledger(tracer: Tracer, corpus_dir: str, seed: int,
                   num_parts: int, stage_dir: str, n_blocks: int) -> dict:
    """Run each flagship layer's public function in-process over the
    whole corpus, in pipeline order, one span per layer. Returns the
    layer counters; times come from the tracer."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray

    from westa_ocr_ray import extractors, fixtures, storage
    from westa_ocr_ray.stages import ExtractModel, make_explode, make_prepare
    from westa_ocr_ray.stages.reassemble import reassemble_partition
    from westa_ocr_ray.stages.staging import list_stage_files, stage_write_table

    c: dict = {}
    with tracer.trace("ledger"):
        with tracer.span("storage.read"):
            ds = storage.read_table(corpus_dir)
            docs = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        c["storage.rows"] = docs.num_rows
        with tracer.span("explode"):
            units = make_explode(num_parts)(docs)
        c["explode.rows_out"] = units.num_rows

        kinds = units.column("kind").to_pylist()
        refs = [r for r, k in zip(units.column("media_ref").to_pylist(), kinds)
                if k in ("pdf", "image")]
        with tracer.span("prepare.fetch"):
            payloads = {r: fixtures.media_store(r, seed) for r in refs}
        with tracer.span("prepare.split"):
            prepared = make_prepare(seed, store=payloads.__getitem__)(units)
        c["prepare.units_out"] = prepared.num_rows
        c["prepare.errors"] = sum(1 for e in prepared.column("error").to_pylist() if e)

        model = ExtractModel(masters=fixtures.master_keys(seed))
        with tracer.span("extract"):
            extracted = model(prepared)
        c["extract.errors"] = sum(1 for e in extracted.column("error").to_pylist() if e)
        c["extract.master_hits"] = sum(extracted.column("master_hit").to_pylist())
        c["extract.rows"] = extracted.num_rows

        # extract_unit by kind, re-run on the same rows: where the
        # model's time goes between HTML parsing and page layout
        rows = zip(prepared.column("kind").to_pylist(),
                   prepared.column("text").to_pylist(),
                   prepared.column("payload").to_pylist(),
                   prepared.column("error").to_pylist(),
                   prepared.column("span_idx").to_pylist())
        html, pages = [], []
        for kind, text, payload, err, sidx in rows:
            if sidx >= 0 and not err:
                (pages if payload is not None else html).append((kind, text, payload))
        with tracer.span("extract.html"):
            for u in html:
                extractors.extract_unit(*u)
        with tracer.span("extract.page"):
            for u in pages:
                extractors.extract_unit(*u)

        per = -(-extracted.num_rows // n_blocks)
        with tracer.span("staging.write"):
            for b in range(n_blocks):
                stage_write_table(extracted.slice(b * per, per), stage_dir)
        files = list_stage_files(stage_dir)
        c["staging.files"] = len(files)
        c["staging.bytes"] = sum(os.path.getsize(f) for f in files)

        dset = pads.dataset(files, format="parquet")
        part_units = []
        for part in range(num_parts):
            with tracer.span("reassemble.read"):
                t = dset.to_table(filter=pads.field("part") == part,
                                  use_threads=False)
            part_units.append(t.num_rows)
            if t.num_rows:
                with tracer.span("reassemble"):
                    reassemble_partition(t)
        med = statistics.median(part_units) or 1
        c["reassemble.part_units_max_over_median"] = max(part_units) / med
    return c


#: ledger spans whose self times sum to the in-process layer work of a
#: pass (extract.html / extract.page re-run the model's kernels and are
#: not part of it)
LEDGER_LAYERS = ("storage.read", "explode", "prepare.fetch", "prepare.split",
                 "extract", "staging.write", "reassemble.read", "reassemble")


# ------------------------------------------------ primitive span wrappers

@contextlib.contextmanager
def traced_primitives(tracer: Tracer) -> Iterator[None]:
    """Wrap each shared primitive in a span for the duration of the
    block. A wrapped call materializes its output, so the span covers
    the primitive's execution, not just its lazy plan construction; the
    traced pass is slower by that, and the difference is reported as
    tracing overhead."""
    import sys

    import ray.data as rd

    from westa_ocr_ray import dedup, relops

    owners = {"relops": relops, "dedup": dedup}
    patched = []
    for span_name, attr in PRIMITIVES.items():
        orig = getattr(owners[span_name.split(".")[0]], attr)

        def wrapper(*a, __orig=orig, __name=span_name, **kw):
            with tracer.span(__name):
                out = __orig(*a, **kw)
                if isinstance(out, rd.Dataset):
                    out = out.materialize()
                return out

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("westa_ocr_ray")
                    and getattr(mod, attr, None) is orig):
                patched.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, orig in patched:
            setattr(mod, attr, orig)


# --------------------------------------------------- Ray Data stats text

_OP_HEAD = re.compile(r"^Operator \d+ (?P<name>.+?): (?P<tasks>\d+) tasks executed, "
                      r"(?P<blocks>\d+) blocks produced in (?P<wall>[\d.]+)s")
_TOTAL = re.compile(r"^\* (?P<what>Remote wall time|Remote cpu time|UDF time): "
                    r".*?, (?P<total>[\d.]+)(?P<unit>us|ms|s) total")
_ROWS = re.compile(r"^\* Output num rows per block: .*?, (?P<total>\d+) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_KEYS = {"Remote wall time": "remote_wall_s", "Remote cpu time": "remote_cpu_s",
         "UDF time": "udf_s"}


def parse_stats(text: str) -> List[dict]:
    """Ray Data ``Dataset.stats()`` text -> one dict per operator:
    name, tasks, blocks, wall_s, remote_wall_s, remote_cpu_s, udf_s,
    rows_out."""
    ops: List[dict] = []
    for line in text.splitlines():
        line = line.strip()
        m = _OP_HEAD.match(line)
        if m:
            ops.append({"name": m["name"], "tasks": int(m["tasks"]),
                        "blocks": int(m["blocks"]), "wall_s": float(m["wall"])})
            continue
        if not ops:
            continue
        m = _TOTAL.match(line)
        if m:
            ops[-1][_KEYS[m["what"]]] = float(m["total"]) * _UNIT[m["unit"]]
            continue
        m = _ROWS.match(line)
        if m:
            ops[-1]["rows_out"] = int(m["total"])
    return ops


def operator_json(out_dir: str) -> Dict[str, dict]:
    """run_extract's own outputs as JSON: per attempt, the parsed
    operators of ``metrics/stats-attempt*.txt`` and the phase split of
    ``metrics/run-attempt*.json``."""
    mdir = os.path.join(out_dir, "metrics")
    out: Dict[str, dict] = {}
    for f in sorted(os.listdir(mdir)):
        m = re.match(r"(stats|run)-attempt(\d+)\.(txt|json)$", f)
        if not m:
            continue
        rec = out.setdefault(f"attempt{m[2]}", {})
        with open(os.path.join(mdir, f)) as fh:
            if m[1] == "stats":
                rec["operators"] = parse_stats(fh.read())
            else:
                rec["run"] = json.load(fh)
    return out


def find_operator(ops: List[dict], udf: str) -> Optional[dict]:
    """The (possibly fused) operator whose chain contains ``udf``."""
    for op in ops:
        if f"({udf})" in op["name"]:
            return op
    return None
