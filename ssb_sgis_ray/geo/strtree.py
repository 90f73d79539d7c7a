"""STR-packed R-tree (numpy, bulk-loaded) for per-partition spatial joins.

A from-scratch implementation of the Sort-Tile-Recursive packing of
Leutenegger et al. (1997) — the same bulk-load strategy GEOS's STRtree
(used pervasively in the reference, e.g. sgis geopandas_tools/
sfilter.py:51-59, overlay.py:210-211) uses. Built once per stage / per
partition group; queried per batch.

Packing: items are sorted by box-centre x (stable), cut into
``ceil(sqrt(ceil(n / NODE_CAP)))`` vertical slices of equal size, and
sorted by centre y inside each slice (stable). The result is the leaf
order ``perm``; consecutive runs of ``NODE_CAP`` leaf-order items form the
leaf groups, and each level above groups ``NODE_CAP`` consecutive nodes of
the level below, up to a single root. The whole build is array code: one
lexsort for the slices and one min/max reduce per level.

Padded blocks: every level stores its children's box columns padded with
NaN to whole ``NODE_CAP`` rows and reshaped to ``(parents, NODE_CAP)``.
A query descends level by level from the root: each frontier
``(query, node)`` pair gathers its node's row of children and compares
all of them at once; ``np.nonzero`` of the ``(frontier, NODE_CAP)`` mask
gives the next frontier.

Pair order: ``query_bbox`` returns pairs sorted by query index, then by
the item's leaf rank (its position in ``perm``) — ``np.nonzero`` is
row-major, so every level keeps that order.

NaN rule: boxes are closed, and a comparison with NaN is false, so an
item or query with a NaN coordinate (the bounds of an empty geometry)
never matches. Node boxes are built with ``fmin``/``fmax``, which skip
NaN, so such an item does not hide its siblings.

Query returns candidate pairs by bbox overlap; callers refine with the
exact predicate kernels (PIP winding / polygon intersects).
"""

from __future__ import annotations

import math

import numpy as np

NODE_CAP = 16


def _blocks(cols: tuple) -> tuple:
    """Box columns padded with NaN to whole NODE_CAP rows, as
    (parents, NODE_CAP) arrays."""
    n = len(cols[0])
    n_nodes = -(-n // NODE_CAP)
    out = []
    for c in cols:
        b = np.full(n_nodes * NODE_CAP, np.nan)
        b[:n] = c
        out.append(b.reshape(n_nodes, NODE_CAP))
    return tuple(out)


class STRtree:
    """Bulk-loaded static R-tree over item bboxes.

    boxes: (n, 4) float64 (minx, miny, maxx, maxy).
    """

    def __init__(self, boxes: np.ndarray):
        boxes = np.asarray(boxes, dtype=np.float64)
        self.n = len(boxes)
        # levels[0] holds the items in leaf groups, levels[-1] the root's
        # children; each is (x0, y0, x1, y1) blocks of (parents, NODE_CAP)
        self.levels: list[tuple] = []
        if self.n == 0:
            self.perm = np.empty(0, dtype=np.int64)
            return
        cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
        cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
        n_leaves = math.ceil(self.n / NODE_CAP)
        n_slices = math.ceil(math.sqrt(n_leaves))
        slice_size = math.ceil(self.n / n_slices)
        order = np.argsort(cx, kind="stable")
        # stable sort by (slice, cy) == a stable cy sort inside each slice
        self.perm = order[np.lexsort((cy[order],
                                      np.arange(self.n) // slice_size))]
        sorted_boxes = boxes[self.perm]
        cols = tuple(sorted_boxes[:, k] for k in range(4))
        while True:
            blocks = _blocks(cols)
            self.levels.append(blocks)
            if len(blocks[0]) == 1:
                break
            x0, y0, x1, y1 = blocks
            cols = (np.fmin.reduce(x0, axis=1), np.fmin.reduce(y0, axis=1),
                    np.fmax.reduce(x1, axis=1), np.fmax.reduce(y1, axis=1))

    def query_bbox(self, qboxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate (query_idx, item_idx) pairs whose bboxes overlap,
        ordered by query, then by the item's leaf rank.

        Vectorized breadth-first descent from the root: per level one row
        gather per frontier (query, node) pair and one
        (frontier, NODE_CAP) compare.
        """
        qboxes = np.asarray(qboxes, dtype=np.float64)
        nq = len(qboxes)
        if self.n == 0 or nq == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        qx0, qy0, qx1, qy1 = (np.ascontiguousarray(qboxes[:, k])
                              for k in range(4))
        q_idx = np.arange(nq)
        n_idx = np.zeros(nq, dtype=np.int64)
        for cx0, cy0, cx1, cy1 in reversed(self.levels):
            mask = qx0[q_idx, None] <= cx1[n_idx]
            mask &= qx1[q_idx, None] >= cx0[n_idx]
            mask &= qy0[q_idx, None] <= cy1[n_idx]
            mask &= qy1[q_idx, None] >= cy0[n_idx]
            r, c = np.nonzero(mask)
            q_idx = q_idx[r]
            n_idx = n_idx[r] * NODE_CAP + c
        # n_idx are leaf-order item positions -> original indices
        return q_idx, self.perm[n_idx]
