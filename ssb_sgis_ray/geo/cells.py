"""Hierarchical spatial cell index + SSB-style grid ids.

The north rule calls for H3 cell ids (S2 fallback) as the global partition
key. Neither the `h3` nor `s2sphere` C libraries exist in this
environment, so the same *interface* is provided by a deterministic
Z-order (Morton) quadtree over the projected plane:

* a cell id is an int64 packing ``(resolution, morton_code)``;
* resolution r cells are squares of size ``BASE_SIZE / 2**r`` meters;
* ``cell_to_parent`` strips 2 bits; ``k_ring`` enumerates the (2k+1)^2
  neighborhood at the same resolution; ``cover_bbox`` returns the exact
  covering cell set of a rectangle.

This preserves every property the engine needs from H3 — hierarchical
containment, constant-time parent/child, k-ring expansion for kNN, and a
uniform int64 shuffle key — with fully vectorized numpy math. Swapping in
real H3/S2 later only touches this module (same function signatures).

The SSB national-grid id reproduces the deterministic recipe of the
reference's ``make_ssb_grid``/``add_grid_id`` (/root/reference/src/sgis/
geopandas_tools/bounds.py:262-372): cell id is a string concatenation of
zero-padded floored x/y coordinates of the cell's lower-left corner.
"""

from __future__ import annotations

import numpy as np

# Domain: projected meters, EPSG:25833-style. The synthetic world spans
# [0, BASE_SIZE) on both axes. 2**21 leaf cells per axis at max res.
BASE_SIZE = np.float64(2**21)  # ≈ 2.1e6 m — covers a national extent
MAX_RES = 21


def _interleave_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of v so there is a 0 bit between each."""
    v = v.astype(np.uint64) & np.uint64(0x1FFFFF)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def _deinterleave_bits(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0x1249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def cell_size(res: int) -> float:
    return float(BASE_SIZE) / (1 << res)


def xy_to_cell(x: np.ndarray, y: np.ndarray, res: int) -> np.ndarray:
    """Vectorized point -> int64 cell id at resolution ``res``."""
    size = cell_size(res)
    cx = np.clip(np.floor(np.asarray(x, dtype=np.float64) / size), 0, (1 << res) - 1).astype(np.uint64)
    cy = np.clip(np.floor(np.asarray(y, dtype=np.float64) / size), 0, (1 << res) - 1).astype(np.uint64)
    morton = _interleave_bits(cx) | (_interleave_bits(cy) << np.uint64(1))
    return ((np.uint64(res) << np.uint64(58)) | morton).astype(np.int64)


def cell_res(cell: np.ndarray) -> np.ndarray:
    return (np.asarray(cell).astype(np.uint64) >> np.uint64(58)).astype(np.int64)


def cell_to_xy(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cell id -> (cx, cy, res) integer cell coordinates."""
    c = np.asarray(cell).astype(np.uint64)
    res = (c >> np.uint64(58)).astype(np.int64)
    morton = c & np.uint64((1 << 58) - 1)
    cx = _deinterleave_bits(morton).astype(np.int64)
    cy = _deinterleave_bits(morton >> np.uint64(1)).astype(np.int64)
    return cx, cy, res


def cell_from_xy_res(cx: np.ndarray, cy: np.ndarray, res: int) -> np.ndarray:
    cx = np.asarray(cx, dtype=np.uint64)
    cy = np.asarray(cy, dtype=np.uint64)
    morton = _interleave_bits(cx) | (_interleave_bits(cy) << np.uint64(1))
    return ((np.uint64(res) << np.uint64(58)) | morton).astype(np.int64)


def cell_to_parent(cell: np.ndarray, parent_res: int) -> np.ndarray:
    cx, cy, res = cell_to_xy(cell)
    shift = res - parent_res
    return cell_from_xy_res(cx >> shift, cy >> shift, parent_res)


def cell_bounds(cell: np.ndarray) -> np.ndarray:
    """(n,4) (minx,miny,maxx,maxy) of each cell."""
    cx, cy, res = cell_to_xy(cell)
    size = BASE_SIZE / (1 << res[0]) if len(np.atleast_1d(res)) else 0
    sizes = BASE_SIZE / (1 << res).astype(np.float64)
    minx = cx * sizes
    miny = cy * sizes
    return np.stack([minx, miny, minx + sizes, miny + sizes], axis=1)


def k_ring(cell: int, k: int) -> np.ndarray:
    """All cells within Chebyshev distance k of ``cell`` (incl. itself)."""
    cx, cy, res = cell_to_xy(np.array([cell]))
    res = int(res[0])
    lim = (1 << res) - 1
    xs = np.arange(max(0, int(cx[0]) - k), min(lim, int(cx[0]) + k) + 1)
    ys = np.arange(max(0, int(cy[0]) - k), min(lim, int(cy[0]) + k) + 1)
    gx, gy = np.meshgrid(xs, ys)
    return cell_from_xy_res(gx.ravel(), gy.ravel(), res)


def ring_only(cell: int, k: int) -> np.ndarray:
    """Cells at exactly Chebyshev distance k (the ring boundary)."""
    if k == 0:
        return np.array([cell], dtype=np.int64)
    cx, cy, res = cell_to_xy(np.array([cell]))
    res = int(res[0])
    lim = (1 << res) - 1
    x0, y0 = int(cx[0]), int(cy[0])
    pts = []
    for x in range(x0 - k, x0 + k + 1):
        for y in (y0 - k, y0 + k):
            if 0 <= x <= lim and 0 <= y <= lim:
                pts.append((x, y))
    for y in range(y0 - k + 1, y0 + k):
        for x in (x0 - k, x0 + k):
            if 0 <= x <= lim and 0 <= y <= lim:
                pts.append((x, y))
    if not pts:
        return np.empty(0, dtype=np.int64)
    arr = np.array(pts, dtype=np.int64)
    return cell_from_xy_res(arr[:, 0], arr[:, 1], res)


def cover_bbox(
    minx: np.ndarray,
    miny: np.ndarray,
    maxx: np.ndarray,
    maxy: np.ndarray,
    res: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Covering cell set of each bbox (half-open [min, max) semantics).

    Returns (row_index, cell_id) exploded pairs — the flat-map the engine
    uses to assign a footprint to every cell it overlaps. A bbox whose max
    edge lies exactly on a cell boundary does NOT enter the next cell.
    """
    size = cell_size(res)
    lim = (1 << res) - 1
    x0 = np.clip(np.floor(np.asarray(minx, np.float64) / size).astype(np.int64), 0, lim)
    y0 = np.clip(np.floor(np.asarray(miny, np.float64) / size).astype(np.int64), 0, lim)
    # half-open: subtract one ulp-ish step by using ceil(max/size)-1
    x1 = np.clip(np.ceil(np.asarray(maxx, np.float64) / size).astype(np.int64) - 1, 0, lim)
    y1 = np.clip(np.ceil(np.asarray(maxy, np.float64) / size).astype(np.int64) - 1, 0, lim)
    x1 = np.maximum(x1, x0)
    y1 = np.maximum(y1, y0)
    nx = x1 - x0 + 1
    ny = y1 - y0 + 1
    counts = nx * ny
    total = int(counts.sum())
    row_idx = np.repeat(np.arange(len(counts)), counts)
    base = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(base, counts)
    wx = within % np.repeat(nx, counts)
    wy = within // np.repeat(nx, counts)
    cx = np.repeat(x0, counts) + wx
    cy = np.repeat(y0, counts) + wy
    return row_idx, cell_from_xy_res(cx, cy, res)


def clip_rect(cell: int, res: int) -> np.ndarray:
    """(minx, miny, maxx, maxy) that ``cell`` clips its cover rows to: the
    cell's bounds, with each side on the domain's edge pushed out to
    ±1e12.

    ``cover_bbox`` clamps geometry outside the domain to the edge cells,
    so an edge cell's rect must reach the exterior or that area vanishes
    from the partition. Large-finite, not inf: Sutherland-Hodgman
    intersections with inf produce NaN."""
    cid = np.asarray([cell], dtype=np.int64)
    rect = cell_bounds(cid)[0]
    cx, cy, _ = cell_to_xy(cid)
    lim = (1 << res) - 1
    if cx[0] == 0:
        rect[0] = -1e12
    if cy[0] == 0:
        rect[1] = -1e12
    if cx[0] == lim:
        rect[2] = 1e12
    if cy[0] == lim:
        rect[3] = 1e12
    return rect


def anchored(minx_a, miny_a, minx_b, miny_b, cell: int, res: int) -> np.ndarray:
    """Mask of the candidate pairs ``cell`` emits by the anchor-cell rule.

    Every pair of cover rows is found in each cell both bboxes cover; only
    the cell holding the min corner of the two bboxes' intersection emits
    it, and exactly one cell of both covers holds it, so a cell plan needs
    no second exchange to dedup its pairs. The anchor depends on the
    bboxes alone, so unrefined candidates dedup the same way."""
    ax = np.maximum(minx_a, minx_b)
    ay = np.maximum(miny_a, miny_b)
    return xy_to_cell(ax, ay, res) == cell


# ---------------------------------------------------------------------------
# SSB-style grid (reference parity: bounds.py:262-372)
# ---------------------------------------------------------------------------


def ssb_grid_id(x: np.ndarray, y: np.ndarray, gridsize: int) -> np.ndarray:
    """Deterministic SSB grid cell id for points.

    Matches the reference's ``add_grid_id`` recipe exactly
    (/root/reference/src/sgis/geopandas_tools/bounds.py:357-371):
    east component = floor((x + 2_000_000) / gridsize) * gridsize,
    north component = floor(y / gridsize) * gridsize, both rendered as
    unpadded int strings and concatenated (Statistics-Norway SSBID).
    """
    gx = (
        np.floor((np.asarray(x, np.float64) + 2_000_000) / gridsize) * gridsize
    ).astype(np.int64)
    gy = (np.floor(np.asarray(y, np.float64) / gridsize) * gridsize).astype(np.int64)
    return np.array([f"{a}{b}" for a, b in zip(gx, gy)], dtype=object)


def tile_xy(x: np.ndarray, y: np.ndarray, gridsize: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer tile coordinates (floor division)."""
    tx = np.floor(np.asarray(x, np.float64) / gridsize).astype(np.int64)
    ty = np.floor(np.asarray(y, np.float64) / gridsize).astype(np.int64)
    return tx, ty
