"""The registry's correctness gate: run each query and its oracle SQL
side-by-side, compare row count + order-insensitive values. Usage:

    python scripts/check_queries.py [sf_dir...] [names...]
    python scripts/check_queries.py [sf_dir...] --json OUT.json [names...]

Leading arguments that are directories are sf dirs (default: the
sf0.001 tables); every sf dir is checked in turn in one Ray session,
and the rest are query names to restrict the run to.

With --json, one artifact covers every sf dir: {"failures": total,
"tiers": {sf_dir: {"sf_dir", "failures", "queries"}}}, where
"queries" holds one row per registered query with rows_match /
schema_match / hash_match (hash_match = the order-insensitive value
compare; null for rows-only entries), so full-registry verification
can be diffed without re-running all oracles."""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd
    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    df = df.sort_values(list(df.columns), ignore_index=True)
    return df


def check_tier(sf_dir: str, only: set) -> tuple[int, dict]:
    """Check every registered query (or only `only`) against its oracle
    over the tables in `sf_dir`; returns (failures, per-query records)."""
    from westa_ocr_ray import fixtures
    from westa_ocr_ray.queries import (ORACLE_SQL, QUERIES,
                                       TIER_ORACLE_BUILDERS)

    # tier-dependent oracles (inline VALUES from the serial reference)
    # must match THIS sf dir's fixture tier
    ORACLE_SQL = dict(ORACLE_SQL)
    tier = fixtures.tier_for_sf_dir(sf_dir)
    for name, builder in TIER_ORACLE_BUILDERS.items():
        ORACLE_SQL[name] = builder(tier)

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    records: dict[str, dict] = {}

    def record(name, *, rows=None, oracle_rows=None, rows_match=None,
               schema_match=None, hash_match=None, err=None, wall=None):
        records[name] = {
            "rows_match": rows_match, "schema_match": schema_match,
            "hash_match": hash_match, "engine_rows": rows,
            "oracle_rows": oracle_rows, "err": err,
            "wall_sec": round(wall, 3) if wall is not None else None,
        }

    for name, fn in QUERIES.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            raw = to_pandas(fn(sf_dir))
            wall = time.perf_counter() - t0
            sql = ORACLE_SQL.get(name)
            if sql is None:
                print(f"  {name:28s} rows-only  rows={len(raw):8d}  {wall:6.2f}s")
                record(name, rows=len(raw), err="rows-only (no oracle)",
                       wall=wall)
                continue
            got = normalize(raw)
            exp = normalize(con.execute(sql).fetchdf())
            if len(got) == 0 and len(exp) == 0:
                # an all-empty Dataset loses its schema (0-column frame);
                # values trivially match
                print(f"  {name:28s} OK (empty) rows=       0  {wall:6.2f}s")
                record(name, rows=0, oracle_rows=0, rows_match=True,
                       schema_match=True, hash_match=True, wall=wall)
                continue
            if len(got) != len(exp):
                print(f"X {name:28s} ROWCOUNT got={len(got)} exp={len(exp)}")
                record(name, rows=len(got), oracle_rows=len(exp),
                       rows_match=False, wall=wall)
                failures += 1
                continue
            if sorted(got.columns) != sorted(exp.columns):
                print(f"X {name:28s} SCHEMA got={sorted(got.columns)}"
                      f" exp={sorted(exp.columns)}")
                record(name, rows=len(got), oracle_rows=len(exp),
                       rows_match=True, schema_match=False, wall=wall)
                failures += 1
                continue
            # the driver's value hash is TYPE-sensitive: an int64 column
            # silently upcast to object (join None-filling) passes a
            # value-only compare locally and then fails the driver
            dtype_bad = [c for c in exp.columns
                         if str(got[c].dtype) != str(exp[c].dtype)]
            if dtype_bad:
                print(f"X {name:28s} DTYPES: " + ", ".join(
                    f"{c}({got[c].dtype}!={exp[c].dtype})" for c in dtype_bad))
                record(name, rows=len(got), oracle_rows=len(exp),
                       rows_match=True, schema_match=False,
                       err="dtype mismatch: " + ",".join(dtype_bad),
                       wall=wall)
                failures += 1
                continue
            try:
                pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                              check_exact=False, rtol=1e-9)
                print(f"  {name:28s} OK         rows={len(got):8d}  {wall:6.2f}s")
                record(name, rows=len(got), oracle_rows=len(exp),
                       rows_match=True, schema_match=True, hash_match=True,
                       wall=wall)
            except AssertionError as exc:
                print(f"X {name:28s} VALUES: {str(exc).splitlines()[-1][:120]}")
                record(name, rows=len(got), oracle_rows=len(exp),
                       rows_match=True, schema_match=True, hash_match=False,
                       wall=wall)
                failures += 1
        except Exception as exc:
            print(f"X {name:28s} EXCEPTION")
            traceback.print_exc(limit=4)
            record(name, err=f"{type(exc).__name__}: {exc}"[:300],
                   wall=time.perf_counter() - t0)
            failures += 1
    con.close()
    print(f"{sf_dir} failures: {failures}")
    return failures, records


def main() -> int:
    argv = list(sys.argv[1:])
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        del argv[i:i + 2]
    sf_dirs = []
    while argv and os.path.isdir(argv[0]):
        sf_dirs.append(argv.pop(0))
    sf_dirs = sf_dirs or ["/root/testdata/sf0.001"]
    only = set(argv)

    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    tiers = {}
    for sf_dir in sf_dirs:
        n_fail, records = check_tier(sf_dir, only)
        tiers[sf_dir] = {"sf_dir": sf_dir, "failures": n_fail,
                         "queries": records}
    ray.shutdown()
    failures = sum(t["failures"] for t in tiers.values())
    print(f"failures: {failures}")
    if json_out:
        with open(json_out, "w") as f:
            json.dump({"failures": failures, "tiers": tiers}, f, indent=1)
        print(f"wrote {json_out} ({len(tiers)} tiers)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
