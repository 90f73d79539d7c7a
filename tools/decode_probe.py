"""Time image decode+validate: the per-row loop against the block kernel.

Builds the flagship's image table in memory (``--docs`` documents x
``--copies`` images each, ``sources.images.BuildImages``; 500 x 2 = 1000
images of 32-64 px by default), then times one call over the whole table
of

* ``loop``: ``sources.images._validate_row`` once per row (each image
  decoded, its source rendered, PSNR, equality and aHash computed on
  its own), and
* ``kernel``: ``sources.images.DecodeValidate`` (only the codec per
  image; render, SSE/PSNR and aHash over flat chunk buffers).

Each time is the min over ``--repeat`` calls after one untimed warm-up.
The two outputs must agree row for row. Memory: each side also runs once
in a fresh (spawned) process, which builds the table, runs the side on
its first 20 rows so the library pages the call touches are mapped,
reads its ``VmHWM``, runs the side on the whole table and reads
``VmHWM`` again; the probe prints the growth, the call's own peak extra
memory.

    python tools/decode_probe.py [--docs 500] [--copies 2] [--repeat 5]

Prints one line per side and a final JSON object with the same numbers.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

import numpy as np
import pyarrow as pa

# the checkout this file belongs to
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from ssb_sgis_ray.sources import images  # noqa: E402


def per_row_loop(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    fmts = batch["fmt"].to_pylist()
    blobs = batch["bytes"].to_pylist()
    cols = [batch[c].to_numpy(zero_copy_only=False).astype(np.int64)
            for c in ("w", "h", "phash", "ckey")]
    out = [images._validate_row(fmts[i], blobs[i], *(int(c[i]) for c in cols))
           for i in range(len(blobs))]
    ok, psnr_c = zip(*out) if out else ((), ())
    return np.array(ok, dtype=bool), np.array(psnr_c, dtype=np.int64)


def block_kernel(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    out = images.DecodeValidate()(batch)
    return (out["decode_ok"].to_numpy(zero_copy_only=False),
            out["psnr_c"].to_numpy())


SIDES = {"loop": per_row_loop, "kernel": block_kernel}


def _vm_hwm_kb() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _image_table(docs: int, copies: int) -> pa.Table:
    t = pa.table({"doc_id": pa.array(np.arange(docs), pa.int64()),
                  "text": pa.array(["caption"] * docs, pa.string())})
    return images.BuildImages(copies=copies)(t)


def _growth_kb(side: str, docs: int, copies: int) -> int:
    fn = SIDES[side]
    batch = _image_table(docs, copies)
    fn(batch.slice(0, 20))
    before = _vm_hwm_kb()
    fn(batch)
    return _vm_hwm_kb() - before


def hwm_growth_mb(side: str, docs: int, copies: int) -> float:
    """Peak memory one call of ``side`` adds, measured in a new process."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_growth_kb, (side, docs, copies)) / 1024


def _min_time(fn, batch, repeat):
    fn(batch)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(batch)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=500)
    ap.add_argument("--copies", type=int, default=2)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    batch = _image_table(args.docs, args.copies)
    growth = {side: hwm_growth_mb(side, args.docs, args.copies) for side in SIDES}
    want = per_row_loop(batch)
    got = block_kernel(batch)
    if not all(np.array_equal(a, b) for a, b in zip(want, got)):
        raise SystemExit("the block kernel disagrees with the per-row loop")
    rows = []
    for name, fn in SIDES.items():
        s = _min_time(fn, batch, args.repeat)
        mb = growth[name]
        rows.append({"side": name, "ms": round(s * 1e3, 1),
                     "vm_hwm_growth_mb": round(mb, 1)})
        print(f"# {name:<6}  {s * 1e3:8.1f} ms  VmHWM growth {mb:6.1f} MB  "
              f"({batch.num_rows} images, ok {int(got[0].sum())})", flush=True)
    print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "images": batch.num_rows,
                      "repeat": args.repeat, "sides": rows}))


if __name__ == "__main__":
    main()
