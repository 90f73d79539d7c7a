"""Registry-wide timing sweep: run every registry query (or only the
named ones) at a given sf dir and print per-query wall time, slowest
first. `bench.py` covers ~40 queries; this catches outliers its list
can't see (DEVNOTES r4: overlay_union_cell sat at 439 s, invisible,
until the first full sweep).

    python tools/time_registry.py [sf_dir] [num_cpus] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

# the checkout this file belongs to
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    ncpu = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    only = set(sys.argv[3:])

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ssb_sgis_ray.queries import REGISTRY

    times: dict[str, float] = {}
    for name, (fn, _) in REGISTRY.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = fn(sf_dir)
            n = res.count() if hasattr(res, "count") and not hasattr(res, "num_rows") \
                else (res.num_rows if hasattr(res, "num_rows") else len(res))
            dt = time.time() - t0
            times[name] = dt
            print(f"{dt:8.2f}s  {name}  ({n} rows)", flush=True)
        except Exception as e:  # noqa: BLE001 - sweep must finish
            print(f"   ERROR  {name}: {type(e).__name__}: {e}", flush=True)
    print("\n=== slowest 15 ===")
    for name, dt in sorted(times.items(), key=lambda kv: -kv[1])[:15]:
        print(f"{dt:8.2f}s  {name}")
    ray.shutdown()


if __name__ == "__main__":
    main()
