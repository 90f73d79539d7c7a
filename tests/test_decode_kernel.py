"""The block decode+validate kernel equals the per-row loop it replaced.

``_reference`` is that loop, kept here verbatim (with the literal source
formula), so every fixture compares the kernel's ``decode_ok`` and
``psnr_c`` row for row against the per-image checks: dims, PNG exact
equality, PSNR >= 40 dB for jpeg, recomputed aHash == stored phash.
"""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from ssb_sgis_ray.codecs import lossy, phash, png
from ssb_sgis_ray.sources import images as img_src


def _old_render(key: int, w: int, h: int) -> np.ndarray:
    y, x = np.mgrid[0:h, 0:w]
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:, :, 0] = (x * 3 + y * 5 + key * 13) % 256
    img[:, :, 1] = (x * 7 + y * 2 + key * 29) % 256
    img[:, :, 2] = ((x + y) * 4 + key * 53) % 256
    return img


def _reference(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    fmts = batch["fmt"].to_pylist()
    blobs = batch["bytes"].to_pylist()
    ws = batch["w"].to_numpy(zero_copy_only=False)
    hs = batch["h"].to_numpy(zero_copy_only=False)
    phs = batch["phash"].to_numpy(zero_copy_only=False)
    keys = batch["ckey"].to_numpy(zero_copy_only=False)
    ok = np.zeros(len(blobs), dtype=bool)
    psnr_c = np.zeros(len(blobs), dtype=np.int64)
    for i, (fmt, blob) in enumerate(zip(fmts, blobs)):
        img = png.decode_png(blob) if fmt == "png" else lossy.decode_lossy(blob)
        if img.shape[0] != hs[i] or img.shape[1] != ws[i]:
            continue
        src = _old_render(int(keys[i]), int(ws[i]), int(hs[i]))
        p = lossy.psnr(img, src)
        psnr_c[i] = np.int64(min(p, 99.0) * 100)
        if fmt == "png" and not np.array_equal(img, src):
            continue
        if fmt == "jpeg" and p < 40.0:
            continue
        if int(phash.ahash64(img)) != int(phs[i]):
            continue
        ok[i] = True
    return ok, psnr_c


def _row(key, w, h, fmt, img=None, blob=None, ph=None, stored_wh=None):
    """One image-table row; by default a valid image of ``key``."""
    img = _old_render(key, w, h) if img is None else img
    if blob is None:
        blob = png.encode_png(img) if fmt == "png" else lossy.encode_lossy(img)
    if ph is None:
        ph = int(phash.ahash64(png.decode_png(blob) if fmt == "png"
                               else lossy.decode_lossy(blob)))
    sw, sh = (w, h) if stored_wh is None else stored_wh
    return {"ckey": key, "bytes": blob, "w": sw, "h": sh, "fmt": fmt, "phash": ph}


def _table(rows) -> pa.Table:
    return pa.table({
        "image_id": pa.array([f"i{j}" for j in range(len(rows))], pa.string()),
        "ckey": pa.array([r["ckey"] for r in rows], pa.int64()),
        "bytes": pa.array([r["bytes"] for r in rows], pa.binary()),
        "w": pa.array([r["w"] for r in rows], pa.int32()),
        "h": pa.array([r["h"] for r in rows], pa.int32()),
        "fmt": pa.array([r["fmt"] for r in rows], pa.string()),
        "phash": pa.array([r["phash"] for r in rows], pa.int64()),
    })


def _assert_same(t: pa.Table) -> pa.Table:
    out = img_src.DecodeValidate()(t)
    ok, psnr_c = _reference(t)
    assert out.column_names == t.column_names + ["decode_ok", "psnr_c"]
    assert out["decode_ok"].to_pylist() == ok.tolist()
    assert out["psnr_c"].to_pylist() == psnr_c.tolist()
    assert out.select(t.column_names).equals(t)
    return out


def _filtered_png(img: np.ndarray) -> bytes:
    """PNG whose every scanline uses filter 2 (Up)."""
    h, w = img.shape[:2]
    lines = img.reshape(h, 3 * w).astype(np.int16)
    up = (lines - np.vstack([np.zeros((1, 3 * w), np.int16), lines[:-1]])) & 0xFF
    raw = np.hstack([np.full((h, 1), 2), up]).astype(np.uint8).tobytes()

    def chunk(tag, data):
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


KEYS = [0, 7, 98, -5, -(2**31) - 7, 2**31 + 3, 2**40 + 1, 123_456_789_012]


def test_render_flat_equals_formula_for_extreme_keys():
    rng = np.random.default_rng(3)
    ws = rng.integers(1, 91, len(KEYS))
    hs = rng.integers(1, 91, len(KEYS))
    want = np.concatenate([_old_render(k, int(w), int(h)).ravel()
                           for k, w, h in zip(KEYS, ws, hs)])
    assert np.array_equal(img_src.render_flat(KEYS, ws, hs), want)
    for k, w, h in zip(KEYS, ws, hs):
        assert np.array_equal(img_src.render_pixels(k, int(w), int(h)),
                              _old_render(k, int(w), int(h)))
    assert img_src.render_flat([], [], []).size == 0


def test_ahash64_flat_equals_ahash64():
    rng = np.random.default_rng(4)
    imgs = []
    for j in range(60):
        h, w = (int(v) for v in rng.integers(8, 91, 2))
        if j % 4 == 0:  # constant: every cell ties with the mean
            imgs.append(np.full((h, w, 3), j * 9 % 256, np.uint8))
        elif j % 4 == 1:  # two levels: exact ties on some cells
            img = np.zeros((h, w, 3), np.uint8)
            img[: h // 2] = 200
            imgs.append(img)
        else:
            imgs.append(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    pix = np.concatenate([im.ravel() for im in imgs])
    ws = [im.shape[1] for im in imgs]
    hs = [im.shape[0] for im in imgs]
    got = phash.ahash64_flat(pix, ws, hs)
    assert got.dtype == np.int64
    assert got.tolist() == [int(phash.ahash64(im)) for im in imgs]
    with pytest.raises(ValueError):
        phash.ahash64_flat(np.zeros(7 * 8 * 3, np.uint8), [7], [8])


def test_random_shapes_and_keys():
    """Shapes 1-90 px (under 8 takes the per-row path), both codecs,
    negative and > 2^31 keys. Every kernel row is valid; a lossy image of
    a few pixels can fall under 40 dB (the bound holds on average)."""
    rng = np.random.default_rng(5)
    rows = []
    for j in range(160):
        key = int(KEYS[j % len(KEYS)] + j)
        w, h = (int(v) for v in rng.integers(1, 91, 2))
        rows.append(_row(key, w, h, "png" if j % 2 else "jpeg"))
    out = _assert_same(_table(rows))
    big = [min(r["w"], r["h"]) >= 8 for r in rows]
    assert sum(big) > 120
    assert all(ok for ok, b in zip(out["decode_ok"].to_pylist(), big) if b)


def test_each_failure_kind():
    w, h = 40, 36
    flipped = _old_render(11, w, h)
    flipped[5, 7, 1] ^= 1
    rows = [
        _row(10, w, h, "png"),
        _row(10, w, h, "png", stored_wh=(w + 1, h)),  # wrong dims
        _row(10, w, h, "jpeg", stored_wh=(w, h - 3)),
        _row(11, w, h, "png", img=flipped),  # one flipped pixel byte
        # a lossy blob of another key: PSNR far below 40 dB
        _row(12, w, h, "jpeg", blob=lossy.encode_lossy(_old_render(13, w, h))),
        _row(14, w, h, "png", ph=int(phash.ahash64(_old_render(14, w, h))) ^ 4),
        _row(15, w, h, "jpeg", ph=int(phash.ahash64(lossy.decode_lossy(
            lossy.encode_lossy(_old_render(15, w, h))))) ^ 1),
        _row(16, w, h, "png", blob=_filtered_png(_old_render(16, w, h))),  # valid
        _row(17, w, h, "png", blob=_filtered_png(flipped)),
        # neither png nor jpeg: lossy-decoded, hash check only
        _row(18, w, h, "webp", img=np.full((h, w, 3), 77, np.uint8),
             blob=lossy.encode_lossy(np.full((h, w, 3), 77, np.uint8))),
        _row(19, 5, 6, "png", stored_wh=(6, 6)),  # under 8 px: per-row path
        _row(20, 5, 6, "jpeg", ph=1),
    ]
    out = _assert_same(_table(rows))
    assert out["decode_ok"].to_pylist() == [
        True, False, False, False, False, False, False, True, False, True,
        False, False]
    psnr = out["psnr_c"].to_pylist()
    assert psnr[0] == 9900 and psnr[1] == 0 and psnr[4] < 4000


def test_empty_and_all_dims_failures():
    t = _table([_row(1, 20, 20, "png")]).slice(0, 0)
    assert _assert_same(t).num_rows == 0
    rows = [_row(k, 30, 20, "png" if k % 2 else "jpeg", stored_wh=(20, 30))
            for k in range(6)]
    out = _assert_same(_table(rows))
    assert not any(out["decode_ok"].to_pylist())
    assert set(out["psnr_c"].to_pylist()) == {0}


def test_corrupt_stream_raises_like_the_loop():
    blob = bytearray(png.encode_png(_old_render(3, 20, 20)))
    blob[45] ^= 0xFF  # inside the zlib stream
    t = _table([_row(3, 20, 20, "png", blob=bytes(blob), ph=0)])
    with pytest.raises(Exception) as want:
        _reference(t)
    with pytest.raises(type(want.value)):
        img_src.DecodeValidate()(t)


def test_multi_chunk_columns_and_kernel_chunks(monkeypatch):
    """Arrow columns of several chunks, and a pixel budget small enough
    that the kernel runs many chunks per codec."""
    docs = pa.table({"doc_id": pa.array(np.arange(90, 130), pa.int64()),
                     "text": pa.array(["c"] * 40, pa.string())})
    built = img_src.BuildImages(copies=2)(docs)
    t = pa.concat_tables([built.slice(0, 13), built.slice(13, 40), built.slice(53)])
    assert t["bytes"].num_chunks == 3
    full = _assert_same(t)
    monkeypatch.setattr(img_src.DecodeValidate, "PIXEL_BUDGET", 3000)
    assert _assert_same(t).equals(full)
    assert all(full["decode_ok"].to_pylist())
