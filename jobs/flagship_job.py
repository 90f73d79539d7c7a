"""`ray job submit` entrypoint for the flagship spatial-join + tiling job.

The north rule runs the whole pipeline via ``ray job submit`` on fixed
N-node and 4N-node clusters. This driver is that submission target:

    ray job submit --address http://<head>:8265 \
        --working-dir /root/repo -- \
        python jobs/flagship_job.py --sf-dir /data/sf1 --out-dir /data/out \
        --copies 4 --max-actors 120

Inside a submitted job the runtime sets RAY_ADDRESS, so the guarded
``ray.init()`` below attaches to the hosting cluster; run standalone it
starts a local session. The job is RESUMABLE: the partitioned sink skips
partitions whose manifest rows already exist (state/manifest.py), so
re-submitting after a mid-run failure completes only the missing work.
Exit code 0 iff the manifest verifies (per-partition lineage rows match
the files on disk).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# `python jobs/flagship_job.py` puts jobs/ (not the repo root) on sys.path;
# under `ray job submit --working-dir` the root is the cwd. Cover both.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--copies", type=int, default=1,
                   help="images per document (scale knob)")
    p.add_argument("--min-actors", type=int, default=1,
                   help="floor of the default --max-actors (the stage runs "
                        "as tasks, so there is no pool minimum)")
    p.add_argument("--max-actors", type=int, default=0,
                   help="cap on concurrent per-image stage tasks; "
                        "0 = cluster CPUs - 4 (leave room for read/write tasks)")
    p.add_argument("--subparts", type=int, default=2,
                   help="sink sub-partitions per tile axis (writers = 25*subparts^2)")
    p.add_argument("--source-path", default=None,
                   help="materialized Lance/parquet image table (Lance-first input)")
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False, logging_level="ERROR")

    from ssb_sgis_ray.pipelines import flagship as fl
    from ssb_sgis_ray.state import manifest as mf

    cpus = int(ray.cluster_resources().get("CPU", 8))
    max_actors = args.max_actors or max(args.min_actors, cpus - 4)

    t0 = time.time()
    summary = fl.flagship(
        args.sf_dir, args.out_dir,
        concurrency=(args.min_actors, max_actors),
        copies=args.copies, subparts=args.subparts,
        source_path=args.source_path,
    )
    wall = time.time() - t0

    check = mf.verify_manifest(args.out_dir)  # {partition: 'ok' | reason}
    bad = {k: v for k, v in check.items() if v != "ok"}
    summary.update(
        wall_s=round(wall, 2),
        images_per_sec=round(summary["rows_written"] / wall, 1) if wall else None,
        cluster_cpus=cpus,
        manifest_ok=not bad,
        manifest_partitions=len(check),
        manifest_bad=bad,
    )
    print(json.dumps(summary))
    ray.shutdown()
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
