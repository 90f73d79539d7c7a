"""Time the salted cell join's per-key kernel loop: the Arrow-filter +
STRtree kernel against the lean one.

Generates the ``skew_join`` benchmark's input (``--lineitems`` skewed
lineitem points and the 25 nation diamonds, ``perfbench/gen.py``, seed
``--seed``), runs the salted plan of ``ops.spatial.sjoin_cell_partitioned``
(res 9, salt_threshold 5000, n_salts 8) in a ``--cpus`` Ray session up to
its sort, and keeps the sorted reducer blocks. Then, in this process, it
times ``ops.spatial._per_key`` over those blocks (one kernel call per
shuffle key, one concatenated table per block) with

* ``filter_tree``: the former kernel, kept here (two Arrow filters split
  the sides, an STRtree is built and queried for every group), and
* ``lean``: ``ops.spatial._per_cell_pip`` (one numpy mask, only polygon
  rows decoded, one dense bbox compare when the group's polygons fit one
  STRtree node).

Each time is the min over ``--repeat`` passes after one untimed warm-up.
The two pair multisets must be equal.

    python tools/cell_kernel_probe.py [--seed 1] [--lineitems 100000] [--repeat 5]

Prints one line per side and a final JSON object with the same numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# the checkout this file belongs to
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gen  # noqa: E402
from ssb_sgis_ray.geo import kernels, wkb  # noqa: E402
from ssb_sgis_ray.geo.strtree import STRtree  # noqa: E402
from ssb_sgis_ray.ops import spatial  # noqa: E402


def filter_tree_pip(group: pa.Table) -> pa.Table:
    """The per-cell kernel before the lean one: Arrow filters per side and
    an STRtree per group."""
    is_pt = pc.equal(group["side"], 0)
    pts = group.select(["left_id", "px", "py"]).filter(is_pt)
    pls = group.select(["right_id", "geometry_wkb"]).filter(pc.invert(is_pt))
    if pts.num_rows == 0 or pls.num_rows == 0:
        return spatial._PAIRS_SCHEMA.empty_table()
    pg = wkb.decode_polygons(pls["geometry_wkb"])
    tree = STRtree(kernels.polygon_bounds(pg))
    px = pts["px"].to_numpy().astype(np.float64)
    py = pts["py"].to_numpy().astype(np.float64)
    qi, pi = tree.query_bbox(np.stack([px, py, px, py], axis=1))
    if len(qi):
        keep = kernels.points_in_polygon_pairs(px, py, pg, qi, pi)
        qi, pi = qi[keep], pi[keep]
    return pa.table({
        "left_id": pa.array(pts["left_id"].to_numpy()[qi], pa.int64()),
        "right_id": pa.array(pls["right_id"].to_numpy()[pi], pa.int64()),
    })


SIDES = {"filter_tree": filter_tree_pip, "lean": spatial._per_cell_pip}


def reducer_blocks(in_dir: str, cpus: int) -> list[pa.Table]:
    """The sorted blocks the salted plan's reducers hand to its kernel."""
    import ray

    from ssb_sgis_ray import queries

    def sort_only(ds, key, kernel, boundaries=None):
        return ds.sort(key, boundaries=[int(b) for b in boundaries] or [spatial._INT64_MAX])

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    co_group, spatial._co_group = spatial._co_group, sort_only
    try:
        ds = spatial.sjoin_cell_partitioned(
            queries.lineitems(in_dir), queries.nations_ds(in_dir), res=9,
            left_id="l_key", right_id="n_nationkey", salt_threshold=5000, n_salts=8)
        return [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    finally:
        spatial._co_group = co_group
        ray.shutdown()


def run(blocks: list[pa.Table], kernel) -> list[pa.Table]:
    return [t for b in blocks for t in spatial._per_key(b, "cell", kernel)]


def pair_multiset(tables: list[pa.Table]) -> np.ndarray:
    t = pa.concat_tables(tables)
    pairs = np.stack([t["left_id"].to_numpy(), t["right_id"].to_numpy()], axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _min_time(blocks, kernel, repeat):
    run(blocks, kernel)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run(blocks, kernel)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--lineitems", type=int, default=100_000)
    ap.add_argument("--cpus", type=int, default=2)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as in_dir:
        gen.generate(in_dir, args.seed, gen.Sizes(lineitem=args.lineitems))
        blocks = reducer_blocks(in_dir, args.cpus)
    groups = sum(len(np.unique(b["cell"].to_numpy())) for b in blocks)
    want = pair_multiset(run(blocks, filter_tree_pip))
    if not np.array_equal(pair_multiset(run(blocks, spatial._per_cell_pip)), want):
        raise SystemExit("the lean kernel's pairs differ from the former kernel's")
    rows = []
    for name, kernel in SIDES.items():
        s = _min_time(blocks, kernel, args.repeat)
        rows.append({"side": name, "ms": round(s * 1e3, 1)})
        print(f"# {name:<12} {s * 1e3:8.1f} ms  ({len(blocks)} blocks, {groups} groups, "
              f"{len(want)} pairs)", flush=True)
    print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "blocks": len(blocks),
                      "groups": groups, "pairs": len(want), "repeat": args.repeat,
                      "sides": rows}))


if __name__ == "__main__":
    main()
