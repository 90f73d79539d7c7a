"""Time the broadcast spatial index at several right-side sizes.

For each size, over a table of synthetic order boxes:

- ``init_ms``: ``ops.spatial._BroadcastIndex(ref)`` in this process, the
  build itself (``ray.get`` of the ``ray.put`` table, WKB decode,
  bounds, axis-rect flags, STRtree);
- ``build_task_ms``: ``ray.get(spatial.broadcast_index(table))``, the
  once-per-query path: ``ray.put`` of the table, the build task, and
  the built index stored and fetched;
- ``get_ms``: one ``ray.get`` of the built index, which is what each
  batch of a broadcast join pays;
- ``query_ms``: one ``STRtree.query_bbox`` with 3k part boxes as the
  queries (the ``poly_predicates`` left side).

Order and part keys are drawn as the benchmark generator draws them
(distinct keys from ``[0, 20 n)``); geometry is the key's synthetic box.
Each time is the min over ``--repeat`` runs, after one untimed warm-up.

    python tools/index_probe.py [--sizes 25,3000,30000,300000] [--repeat 5]

Prints one line per size and a final JSON object with the same numbers.
Set against a block's work, ``get_ms`` is the per-batch cost of a
broadcast stage run as tasks, and ``build_task_ms`` its once-per-query
cost.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa

# the checkout this file belongs to, for this process and the Ray workers
# the session starts (the build task imports the engine)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


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
    from ssb_sgis_ray.ops.spatial import _BroadcastIndex, broadcast_index

    rng = np.random.default_rng(args.seed)
    queries = np.stack(synth.part_boxes(_distinct(rng, 3000, 60_000)),
                       axis=1).astype(np.float64)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    rows = []
    try:
        for n in (int(s) for s in args.sizes.split(",")):
            keys = _distinct(rng, n, 20 * n)
            table = synth.add_orders_boxes(
                pa.table({"o_orderkey": pa.array(keys, pa.int64())}))
            ref = ray.put(table)
            init_s = _min_time(lambda: _BroadcastIndex(ref), args.repeat)
            task_s = _min_time(lambda: ray.get(broadcast_index(table)), args.repeat)
            index_ref = broadcast_index(table)
            ray.wait([index_ref])
            get_s = _min_time(lambda: ray.get(index_ref), args.repeat)
            tree = ray.get(index_ref).tree
            query_s = _min_time(lambda: tree.query_bbox(queries), args.repeat)
            pairs = len(tree.query_bbox(queries)[0])
            rows.append({"right_rows": n, "init_ms": round(init_s * 1e3, 2),
                         "build_task_ms": round(task_s * 1e3, 2),
                         "get_ms": round(get_s * 1e3, 3),
                         "query_ms": round(query_s * 1e3, 2),
                         "candidates": pairs})
            print(f"# right_rows {n:>7}  init {init_s * 1e3:8.2f} ms  "
                  f"build task {task_s * 1e3:8.2f} ms  get {get_s * 1e3:7.3f} ms  "
                  f"query_bbox(3k) {query_s * 1e3:8.2f} ms  "
                  f"candidates {pairs}", flush=True)
            del ref, index_ref, tree
    finally:
        ray.shutdown()
    print(json.dumps({"cpus": len(os.sched_getaffinity(0)),
                      "repeat": args.repeat, "sizes": rows}))


if __name__ == "__main__":
    main()
