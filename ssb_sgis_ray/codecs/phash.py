"""Perceptual hash (average hash, 8x8) over decoded pixels.

aHash: grayscale -> 8x8 block-mean downsample -> bit i = (cell > mean).
Fully deterministic and close to invariant under the engine's lossy
quantization: over content keys 0-499 at their synthetic dims, the hash
of the lossy copy equals the source's for 484 keys and is one bit apart
for the other 16 (never further). The stored ``phash`` of a lossy row is
therefore the hash of its DECODED pixels, not of the source.

Implementation note: grayscale uses the channel SUM rather than the mean
— the bit predicate (cell mean > global mean) is invariant under positive
scaling, and integer sums stay exact in float64, so the integral-image
block sums below are exact in any summation order. Block means come from
one 2-D cumsum (integral image) + 64 vectorized corner lookups instead of
64 per-block ``.mean()`` calls — the per-image Python loop dominated the
flagship decode stage (19.9 s of a 30 s profile window).

``ahash64_flat`` hashes many images at once from one flat pixel buffer:
block sums are two ``np.add.reduceat`` passes (column blocks per
scanline, then row blocks per image) over the raw bytes, and the
threshold and bit packing are the same code as ``ahash64``.
"""

from __future__ import annotations

import numpy as np

_BIT_WEIGHTS = (np.uint64(1) << np.arange(63, dtype=np.uint64))


def ahash64(img: np.ndarray) -> np.int64:
    """(h, w, 3) uint8 -> 64-bit average hash (int64, top bit clear)."""
    gray = img.astype(np.float64).sum(axis=2)
    h, w = gray.shape
    ys = (np.arange(9) * h) // 8
    xs = (np.arange(9) * w) // 8
    # same block bounds as the scalar version: end = max(next, start+1)
    y0 = ys[:8]
    y1 = np.maximum(ys[1:], y0 + 1)
    x0 = xs[:8]
    x1 = np.maximum(xs[1:], x0 + 1)
    S = np.zeros((h + 1, w + 1))
    np.cumsum(gray, axis=0, out=S[1:, 1:])
    np.cumsum(S[1:, 1:], axis=1, out=S[1:, 1:])
    # 8x8 corner gathers, fully vectorized
    sums = (
        S[y1[:, None], x1[None, :]]
        - S[y0[:, None], x1[None, :]]
        - S[y1[:, None], x0[None, :]]
        + S[y0[:, None], x0[None, :]]
    )
    areas = (y1 - y0)[:, None] * (x1 - x0)[None, :]
    return _pack(sums / areas)[0]


def _pack(cells: np.ndarray) -> np.ndarray:
    """(..., 8, 8) block means -> int64 hash per image (top bit clear)."""
    cells = cells.reshape(-1, 64)
    # strict '>' with a tie margin: cell == mean EXACTLY (rational tie)
    # occurs for some content classes (first seen at sf1), and float
    # summation order would break the tie differently here vs the SQL
    # oracle. No nonzero |cell-mean| can be below 1/(64*lcm(areas))
    # ~ 2.5e-9, so a 1e-9 margin maps exact ties to bit 0 on BOTH sides
    # while never flipping a real bit.
    bits = cells > cells.mean(axis=1, keepdims=True) + 1e-9
    v = (bits[:, :63].astype(np.uint64) * _BIT_WEIGHTS).sum(axis=1, dtype=np.uint64)
    return v.astype(np.int64)


def ahash64_flat(pix: np.ndarray, ws: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """aHash of many images stored back to back in one flat uint8 buffer
    (image i is ``hs[i] * ws[i] * 3`` bytes in (h, w, 3) order) -> int64
    per image, equal to ``ahash64`` of each. Every image must be at
    least 8 px in both dimensions: then the 8 blocks along each axis
    partition it, which is what ``reduceat`` sums."""
    ws = np.asarray(ws, dtype=np.int64)
    hs = np.asarray(hs, dtype=np.int64)
    n = len(ws)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if (ws < 8).any() or (hs < 8).any():
        raise ValueError("ahash64_flat needs images of at least 8x8 px")
    k = np.arange(9, dtype=np.int64)
    xs = (k * ws[:, None]) // 8  # (n, 9) column block bounds
    ys = (k * hs[:, None]) // 8
    # pass 1: per scanline, the channel sum of each column block
    row_img = np.repeat(np.arange(n), hs)
    row_bytes = 3 * ws[row_img]
    row_start = np.cumsum(row_bytes) - row_bytes
    cols = np.add.reduceat(
        pix, (row_start[:, None] + 3 * xs[row_img, :8]).ravel(), dtype=np.int32
    ).reshape(-1, 8)
    # pass 2: per image, the scanline sums of each row block
    img_row0 = np.cumsum(hs) - hs
    sums = np.add.reduceat(cols, (img_row0[:, None] + ys[:, :8]).ravel(), axis=0,
                           dtype=np.int64)
    dy = np.diff(ys, axis=1)
    dx = np.diff(xs, axis=1)
    areas = dy[:, :, None] * dx[:, None, :]
    return _pack(sums.reshape(n, 8, 8) / areas)
