"""Plan-differential consistency check at sf1 for the families whose
DuckDB oracles are resource-infeasible at 50k docs (minhash/ngram SQL
shingle chains exhaust temp disk — see BASELINE.md round-5 notes).

Instead of engine-vs-SQL, this pins engine-vs-engine: the SAME query
run through two different physical plans (driver fast path vs forced
distributed path) must produce identical results at sf1. This is the
check that caught the r4 triangle cross-batch dedup bug — different
block layouts are a genuinely different test than pytest.

Usage: python tools/sf1_plan_consistency.py [sf_dir]
"""

from __future__ import annotations

import os
import sys

# the checkout this file belongs to
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/tmp/sf1"

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pandas as pd

    from ssb_sgis_ray import queries as Q
    from ssb_sgis_ray.ops import dedup as dedup_ops

    fails = 0

    # minhash chain: driver-merge distinct vs forced distributed distinct
    docs = Q.documents(sf_dir)
    pairs = dedup_ops.minhash_candidate_pairs(docs).materialize()
    small = canon(dedup_ops.verify_pairs_jaccard(
        pairs, docs, threshold=0.5).to_pandas())
    saved = dedup_ops.SMALL_VERIFY_PAIRS
    dedup_ops.SMALL_VERIFY_PAIRS = 0
    try:
        pairs2 = dedup_ops.minhash_candidate_pairs(docs).materialize()
        large = canon(dedup_ops.verify_pairs_jaccard(
            pairs2, docs, threshold=0.5).to_pandas())
    finally:
        dedup_ops.SMALL_VERIFY_PAIRS = saved
    same = small.shape == large.shape and small.equals(large[small.columns])
    print(f"minhash_pairs plans: small={len(small)} forced-dist={len(large)} "
          f"equal={same}")
    fails += 0 if same else 1

    # ngram jaccard: default dispatcher vs forced hash-join fallback
    a = canon(dedup_ops.ngram_jaccard_pairs(
        Q.documents(sf_dir), threshold=0.5, k=5)
        .select_columns(["id_a", "id_b"]).to_pandas())
    b = canon(dedup_ops.ngram_jaccard_pairs(
        Q.documents(sf_dir), threshold=0.5, k=5,
        df_broadcast_limit=0)  # force the distributed df-join leg
        .select_columns(["id_a", "id_b"]).to_pandas())
    same = a.shape == b.shape and a.equals(b[a.columns])
    print(f"ngram_jaccard plans: default={len(a)} forced-fallback={len(b)} "
          f"equal={same}")
    fails += 0 if same else 1

    ray.shutdown()
    print("OK" if fails == 0 else f"{fails} FAILURES")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
