"""Local stand-in for the driver's correctness gate.

Runs every REGISTRY query at a given sf dir, runs its DuckDB oracle SQL,
and compares: row count, column names, and an order-insensitive value hash
(rows sorted by all columns, columns sorted by name — mirroring the
driver's comparison). Usage:

    python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

# the checkout this file belongs to
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    # No float_format masking: dtype drift (e.g. DuckDB HUGEINT->float64 vs
    # engine int64) must fail here exactly as it fails in the driver's gate.
    csv = canonical(df).to_csv(index=False)
    return hashlib.md5(csv.encode()).hexdigest()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ssb_sgis_ray.queries import REGISTRY

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    n_pass = n_fail = n_rows_only = 0
    for name, (fn, sql) in REGISTRY.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: engine raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if sql is None:
            print(f"rows  {name}: {len(got)} rows ({dt:.1f}s) [no oracle]")
            n_rows_only += 1
            continue
        try:
            exp = con.execute(sql).fetchdf()
        except Exception as e:
            print(f"FAIL  {name}: oracle SQL raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if sorted(got.columns) != sorted(exp.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(exp.columns)}")
        if not problems and value_hash(got) != value_hash(exp):
            problems.append("value hash mismatch")
            g, e = canonical(got), canonical(exp)
            diff = g.compare(e) if g.shape == e.shape else None
            if diff is not None and len(diff):
                print(diff.head(5))
        if problems:
            print(f"FAIL  {name}: {'; '.join(problems)} ({dt:.1f}s)")
            n_fail += 1
        else:
            print(f"PASS  {name}: {len(got)} rows ({dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_rows_only} rows-only")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
