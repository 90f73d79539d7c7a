"""Minimal real PNG codec (pure python + stdlib zlib + numpy).

Implements the PNG spec (RFC 2083) for 8-bit RGB images: signature,
IHDR/IDAT/IEND chunks, zlib-compressed scanlines with filter types 0-4.
The encoder always writes filter 0 (None); the decoder reconstructs all
five standard filters so externally produced PNGs of this shape decode
too. Lossless: decode(encode(img)) == img exactly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> PNG bytes (filter 0, zlib level 6)."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("encode_png expects (h, w, 3) uint8")
    h, w = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit, truecolor
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type None per scanline
    raw[:, 1:] = img.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def inflate(data: bytes) -> tuple[int, int, bytes]:
    """PNG bytes -> (w, h, scanlines): the inflated IDAT stream, ``h``
    rows of one filter-type byte followed by ``3 * w`` sample bytes.
    Supports 8-bit RGB, non-interlaced."""
    if not data.startswith(_SIG):
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bit_depth, color_type, _, _, interlace = struct.unpack(
                ">IIBBBBB", body
            )
            if bit_depth != 8 or color_type != 2 or interlace != 0:
                raise NotImplementedError("only 8-bit RGB non-interlaced")
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            break
    raw = zlib.decompress(bytes(idat))
    if len(raw) != h * (1 + w * 3):
        raise ValueError(f"IDAT holds {len(raw)} bytes, IHDR says {w}x{h}")
    return w, h, raw


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes -> (h, w, 3) uint8. Supports 8-bit RGB, filters 0-4."""
    return unfilter(*inflate(data))


def unfilter(w: int, h: int, raw: bytes) -> np.ndarray:
    """Inflated scanlines (see ``inflate``) -> (h, w, 3) uint8."""
    stride = 1 + w * 3
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride)
    if not rows[:, 0].any():  # every scanline filter 0 (what encode_png writes)
        return rows[:, 1:].reshape(h, w, 3).copy()
    out = np.zeros((h, w * 3), dtype=np.uint8)
    bpp = 3
    for y in range(h):
        f = rows[y, 0]
        line = rows[y, 1:].astype(np.int32)
        if f == 0:
            rec = line
        elif f == 1:  # Sub
            rec = line.copy()
            for x in range(bpp, len(rec)):
                rec[x] = (rec[x] + rec[x - bpp]) & 0xFF
        elif f == 2:  # Up
            prev = out[y - 1].astype(np.int32) if y else np.zeros_like(line)
            rec = (line + prev) & 0xFF
        elif f == 3:  # Average
            prev = out[y - 1].astype(np.int32) if y else np.zeros_like(line)
            rec = line.copy()
            for x in range(len(rec)):
                left = rec[x - bpp] if x >= bpp else 0
                rec[x] = (rec[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif f == 4:  # Paeth
            prev = out[y - 1].astype(np.int32) if y else np.zeros_like(line)
            rec = line.copy()
            for x in range(len(rec)):
                a = rec[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                rec[x] = (rec[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad filter {f}")
        out[y] = rec.astype(np.uint8)
    return out.reshape(h, w, 3)
