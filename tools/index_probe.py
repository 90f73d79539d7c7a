"""Time the broadcast spatial index at several right-side sizes.

For each size, builds ``ops.spatial._BroadcastIndex`` (ray.get of the
broadcast table, WKB decode, bounds, STRtree build) from a ``ray.put``
table of synthetic order boxes, then times one ``STRtree.query_bbox`` with
3k part boxes as the queries (the ``poly_predicates`` left side). Order
and part keys are drawn as the benchmark generator draws them (distinct
keys from ``[0, 20 n)``); geometry is the key's synthetic box. Each time
is the min over ``--repeat`` runs, after one untimed warm-up.

    python tools/index_probe.py [--sizes 25,3000,30000,300000] [--repeat 5]

Prints one line per size and a final JSON object with the same numbers.
Use it to size per-process index caching: an init that costs little
next to a block's work can be rebuilt per block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa

# the checkout this file belongs to
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _distinct(rng, n, space):
    return np.sort(rng.choice(space, size=n, replace=False)).astype(np.int64)


def _min_time(fn, repeat):
    fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="25,3000,30000,300000")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    import ray

    from ssb_sgis_ray import synth
    from ssb_sgis_ray.ops.spatial import _BroadcastIndex

    rng = np.random.default_rng(args.seed)
    queries = np.stack(synth.part_boxes(_distinct(rng, 3000, 60_000)),
                       axis=1).astype(np.float64)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    rows = []
    try:
        for n in (int(s) for s in args.sizes.split(",")):
            keys = _distinct(rng, n, 20 * n)
            ref = ray.put(synth.add_orders_boxes(
                pa.table({"o_orderkey": pa.array(keys, pa.int64())})))
            init_s = _min_time(lambda: _BroadcastIndex(ref), args.repeat)
            tree = _BroadcastIndex(ref).tree
            query_s = _min_time(lambda: tree.query_bbox(queries), args.repeat)
            pairs = len(tree.query_bbox(queries)[0])
            rows.append({"right_rows": n, "init_ms": round(init_s * 1e3, 2),
                         "query_ms": round(query_s * 1e3, 2),
                         "candidates": pairs})
            print(f"# right_rows {n:>7}  init {init_s * 1e3:8.2f} ms  "
                  f"query_bbox(3k) {query_s * 1e3:8.2f} ms  "
                  f"candidates {pairs}", flush=True)
            del ref
    finally:
        ray.shutdown()
    print(json.dumps({"cpus": len(os.sched_getaffinity(0)),
                      "repeat": args.repeat, "sizes": rows}))


if __name__ == "__main__":
    main()
