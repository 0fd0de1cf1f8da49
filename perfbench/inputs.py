"""Seeded workload inputs and their references.

Every input is a pure function of the benchmark seed, generated into a
directory the caller owns; the engine under test only ever sees the
written files. References are computed outside the engine: the
single-process extraction oracle (``westa_ocr_ray.oracle``) for the
extract workloads, DuckDB over the registry's ``ORACLE_SQL`` for the
query workload.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: work units (text spans + media pages) in the extract_fixture corpus,
#: ~600 docs. The corpus is the fixture stream for the seed cut where
#: this many units are reached, so every seed carries the same work (a
#: fixed doc count varied it by ±10% across seeds). The generator's skew
#: profile (short/medium/heavy docs, zero-span, duplicate and corrupt
#: rows) is the same at any size; this size keeps one run_extract pass
#: near 5 s so a run holds several timed passes.
FIXTURE_UNITS = 5000
#: docs in the html+text-only corpus (extract_html).
HTML_DOCS = 1500
#: files each corpus is written as (read parallelism).
CORPUS_FILES = 8
#: TPC-H-ish table sizes for ops_queries (rows). At this size the
#: primitives it drives are dominated by their per-exchange task cost,
#: and one pass of the query list takes 14-19 s on a 4-vCPU VM.
OPS_ROWS = {"customer": 300, "orders": 3000, "lineitem": 12000,
            "documents": 200}

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_WORDS = ("a the key agg row scan slow fast table value part hash merge "
          "batch line sort window order data column join small customer "
          "query stream spark filter group big").split()
_DAY0 = np.datetime64("1995-01-01", "D")
_DAYS = int((np.datetime64("2001-08-01", "D") - _DAY0).astype(int))


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------ extract

def _write_corpus(table: pa.Table, out_dir: str) -> None:
    os.makedirs(out_dir)
    per = -(-table.num_rows // CORPUS_FILES)
    for f in range(CORPUS_FILES):
        pq.write_table(table.slice(f * per, per),
                       os.path.join(out_dir, f"documents_{f:04d}.parquet"))


def fixture_corpus(seed: int, n_units: int, out_dir: str) -> List[dict]:
    """Write the shortest prefix of the package's fixture corpus for
    ``seed`` holding ``n_units`` units and return its reference rows
    (duplicate doc_ids collapsed first-wins, as the engine does)."""
    from westa_ocr_ray import fixtures, oracle

    masters = fixtures.master_keys(seed)
    rows, seen, units, n = [], set(), 0, 0
    while units < n_units:
        doc = fixtures.gen_doc_row(seed, n)
        n += 1
        if doc["doc_id"] not in seen:
            seen.add(doc["doc_id"])
            rows.append(oracle.extract_doc(doc, seed, masters))
            units += rows[-1]["total_units"]
    _write_corpus(fixtures.docs_table(seed, 0, n), out_dir)
    return rows


def html_docs(seed: int, n_docs: int) -> List[dict]:
    """html+text-only documents in DOCUMENTS_SCHEMA (no media refs):
    1-4 spans each, ~70% html pages built by ``fixtures.build_html``."""
    from westa_ocr_ray import fixtures

    rng = np.random.default_rng([seed, 7])
    docs = []
    for i in range(n_docs):
        spans, offset = [], 0
        for k in range(int(rng.integers(1, 5))):
            tag = ("h", seed, i, k)
            if rng.random() < 0.7:
                text, _ = fixtures.build_html(tag, int(rng.integers(2, 7)))
                kind = "html"
            else:
                text = fixtures.sentence(tag, int(rng.integers(8, 40)))
                kind = "text"
            spans.append({"kind": kind, "text": text, "media_ref": "",
                          "offset": offset})
            offset += len(text)
        docs.append({"doc_id": f"html_{seed}_{i:08d}", "spans": spans})
    return docs


def html_corpus(seed: int, n_docs: int, out_dir: str) -> List[dict]:
    from westa_ocr_ray import fixtures, oracle
    from westa_ocr_ray.schema import DOCUMENTS_SCHEMA

    docs = html_docs(seed, n_docs)
    _write_corpus(pa.Table.from_pylist(docs, schema=DOCUMENTS_SCHEMA), out_dir)
    masters = fixtures.master_keys(seed)
    return sorted((oracle.extract_doc(d, seed, masters) for d in docs),
                  key=lambda r: r["doc_id"])


_COUNTERS = ("total_units", "processed", "skipped", "errors",
             "error_messages", "master_hits", "status")


def doc_key(row: dict) -> tuple:
    """What the extract check compares per doc: the span sequence
    (kind, text, media_ref, order) plus the summary counters."""
    spans = tuple((s["kind"], s["text"], s["media_ref"], int(s["order"]))
                  for s in row["spans"])
    return (spans,) + tuple(row[c] for c in _COUNTERS)


def extract_mismatches(out_dir: str, reference: Dict[str, tuple]) -> int:
    """Docs whose committed ``extracted/`` row differs from the
    reference, plus docs missing from or extra to the output."""
    d = os.path.join(out_dir, "extracted")
    files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    got: Dict[str, tuple] = {}
    dup = 0
    for f in files:
        for row in pq.read_table(os.path.join(d, f)).to_pylist():
            if row["doc_id"] in got:
                dup += 1
            got[row["doc_id"]] = doc_key(row)
    bad = sum(1 for k, v in reference.items() if got.get(k) != v)
    return bad + dup + len(set(got) - set(reference))


# ---------------------------------------------------------------- ops

def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _dates(rng: np.random.Generator, n: int) -> pa.Array:
    days = _DAY0 + rng.integers(0, _DAYS, n).astype("timedelta64[D]")
    return pa.array(days.astype("datetime64[us]"), type=pa.timestamp("us"))


def ops_tables(seed: int, out_dir: str, rows: Dict[str, int] = OPS_ROWS) -> None:
    """TPC-H-ish star tables in the column layout the query registry
    reads (the subset the ops_queries list touches)."""
    rng = np.random.default_rng([seed, 11])
    os.makedirs(out_dir)
    nc, no, nl, nd = (rows[k] for k in ("customer", "orders", "lineitem",
                                        "documents"))
    tables = {
        "customer": pa.table({
            "c_custkey": pa.array(np.arange(nc), type=pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(nc)]),
            "c_nationkey": pa.array(rng.integers(0, 25, nc), type=pa.int32()),
            "c_acctbal": _money(rng, -999.99, 9999.99, nc),
            "c_mktsegment": pa.array(rng.choice(_SEGMENTS, nc)),
        }),
        "orders": pa.table({
            "o_orderkey": pa.array(np.arange(no), type=pa.int64()),
            "o_custkey": pa.array(rng.integers(0, nc, no), type=pa.int64()),
            "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], no)),
            "o_totalprice": _money(rng, 1000, 500000, no),
            "o_orderdate": _dates(rng, no),
            "o_orderpriority": pa.array(rng.choice(_PRIORITIES, no)),
        }),
    }
    qty = rng.integers(1, 51, nl).astype(np.float64)
    tables["lineitem"] = pa.table({
        "l_orderkey": pa.array(rng.integers(0, no, nl), type=pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 2000, nl), type=pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, nl), type=pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, nl), type=pa.int32()),
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * _money(rng, 900, 2100, nl), 2),
        "l_discount": rng.integers(0, 11, nl) / 100.0,
        "l_tax": rng.integers(0, 9, nl) / 100.0,
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], nl)),
        "l_linestatus": pa.array(rng.choice(["F", "O"], nl)),
        "l_shipdate": _dates(rng, nl),
    })
    texts = [" ".join(rng.choice(_WORDS, int(rng.integers(8, 90))))
             for _ in range(nd)]
    tables["documents"] = pa.table({
        "doc_id": pa.array(np.arange(nd), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(rng.choice(["de", "en", "es", "fr", "zh"], nd)),
        "source": pa.array([f"src{i}" for i in rng.integers(0, 20, nd)]),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))


def _check_queries_module():
    """scripts/check_queries.py: its normalize() is the comparison rule
    the registry's oracles are held to."""
    path = os.path.join(repo_root(), "scripts", "check_queries.py")
    spec = importlib.util.spec_from_file_location("_check_queries", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class QueryReference:
    """DuckDB results of ``ORACLE_SQL[name]`` over one table directory,
    normalised as scripts/check_queries.py does."""

    def __init__(self, sf_dir: str, names: List[str]) -> None:
        import duckdb

        from westa_ocr_ray.queries import ORACLE_SQL

        self._cq = _check_queries_module()
        con = duckdb.connect()
        try:
            for t in OPS_ROWS:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                            f"read_parquet('{sf_dir}/{t}.parquet')")
            self.expected = {n: self._cq.normalize(con.execute(ORACLE_SQL[n]).fetchdf())
                             for n in names}
        finally:
            con.close()

    def to_pandas(self, result):
        return self._cq.to_pandas(result)

    def mismatches(self, name: str, result_df) -> int:
        """Rows of the engine result that differ from the reference (a
        row-count or schema difference counts every row of the larger
        side)."""
        exp = self.expected[name]
        got = self._cq.normalize(result_df)
        if (len(got) != len(exp) or sorted(got.columns) != sorted(exp.columns)
                or any(str(got[c].dtype) != str(exp[c].dtype) for c in exp.columns)):
            return max(len(got), len(exp), 1)
        same = np.ones(len(exp), dtype=bool)
        for c in exp.columns:
            a, b = got[c].to_numpy(), exp[c].to_numpy()
            if a.dtype.kind == "f":
                same &= np.isclose(a, b, rtol=1e-9, atol=0.0, equal_nan=True)
            else:
                same &= (a == b)
        return int((~same).sum())

