"""Straggler-telemetry report for the cell co-partitioned plans
(r4 verdict next-round #10): runs pip_pairs_cell and overlay_pairs_cell
at a given sf dir with skew metrics enabled and prints the per-cell
histogram summaries recorded in skew_metrics.jsonl, then the exchange
sizing rows of the salted plans recorded in plan_metrics.jsonl.

Usage: python tools/skew_report.py [sf_dir] [out_dir]
"""

from __future__ import annotations

import json
import os
import sys

# the checkout this file belongs to
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "/tmp/skew_report"

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ssb_sgis_ray import queries as Q
    from ssb_sgis_ray.ops import overlay as overlay_ops
    from ssb_sgis_ray.ops import spatial
    from ssb_sgis_ray.state import skew

    # pip_pairs_cell fixture (customers x supplier diamonds) at the
    # query's resolution, unsalted and salted
    for thresh in (None, 2000):
        n = spatial.sjoin_cell_partitioned(
            Q.customers(sf_dir), Q.suppliers_ds(sf_dir), res=9,
            left_id="c_custkey", right_id="s_suppkey",
            salt_threshold=thresh, skew_report_dir=out_dir,
        ).count()
        print(f"pip_pairs_cell salt_threshold={thresh}: {n} pairs")

    # the genuinely skewed fixture: lineitem points (half the rows in a
    # 2,000^2-unit hotspot) vs nation diamonds — the urban-hotspot case
    # the salting exists for
    for thresh in (None, 5000):
        n = spatial.sjoin_cell_partitioned(
            Q.lineitems(sf_dir), Q.nations_ds(sf_dir), res=9,
            left_id="l_key", right_id="n_nationkey",
            salt_threshold=thresh, n_salts=8, skew_report_dir=out_dir,
        ).count()
        print(f"pip_pairs_salted(lineitem hotspot) salt_threshold={thresh}: "
              f"{n} pairs")

    # overlay intersection cell plan (parts x orders boxes)
    n = overlay_ops.overlay_pairs_cell(
        Q.parts(sf_dir), Q.orders_ds(sf_dir), "p_partkey", "o_orderkey",
        res=10, emit="area", skew_report_dir=out_dir,
    ).count()
    print(f"overlay_pairs_cell: {n} pairs")

    for row in skew.load_cell_skew(out_dir):
        print(json.dumps(row))
    for row in skew.load_plans(out_dir):
        print(json.dumps(row))
    ray.shutdown()


if __name__ == "__main__":
    main()
