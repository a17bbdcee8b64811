"""GIF87a/89a decode + encode in pure numpy + stdlib.

No imaging library: LSB-first variable-width LZW, global/local color
tables, Adam-style 4-pass interlacing, extension skipping. ``decode_gif``
returns the FIRST image frame as (h, w, 3) uint8 RGB (animated GIFs:
later frames are composition state the multimodal fixtures don't model
— a frame-sampling stage would loop the same machinery). ``encode_gif``
is the lossless round-trip twin: palette-indexed pixels + palette →
GIF89a bytes with real LZW compression.

Same honest-boundary convention as ``stages/multimodal.py``: malformed
or unsupported payloads raise ``NotImplementedError``, never a raw
struct/index error out of an actor pool.
"""

from __future__ import annotations

import struct

import numpy as np


class _LsbBitReader:
    """LSB-first bit reader (GIF packs codes little-endian-bitwise)."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.bit = 0

    def read(self, n: int) -> int:
        v = 0
        for i in range(n):
            if self.pos >= len(self.data):
                raise NotImplementedError("truncated GIF LZW stream")
            v |= ((self.data[self.pos] >> self.bit) & 1) << i
            self.bit += 1
            if self.bit == 8:
                self.bit = 0
                self.pos += 1
        return v


def _lzw_decode(min_code_size: int, data: bytes, expected: int) -> bytes:
    clear = 1 << min_code_size
    eoi = clear + 1
    rdr = _LsbBitReader(data)
    out = bytearray()

    def reset():
        return {i: bytes([i]) for i in range(clear)}, min_code_size + 1

    table, width = reset()
    prev: bytes | None = None
    next_code = eoi + 1
    while len(out) < expected:
        code = rdr.read(width)
        if code == clear:
            table, width = reset()
            next_code = eoi + 1
            prev = None
            continue
        if code == eoi:
            break
        if code in table:
            entry = table[code]
        elif code == next_code and prev is not None:
            entry = prev + prev[:1]
        else:
            raise NotImplementedError("corrupt GIF LZW code")
        out += entry
        if prev is not None and next_code < 4096:
            table[next_code] = prev + entry[:1]
            next_code += 1
            if next_code == (1 << width) and width < 12:
                width += 1
        prev = entry
    if len(out) < expected:
        raise NotImplementedError("GIF LZW stream ended early")
    return bytes(out[:expected])


_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _color_table(b: bytes, pos: int, flags: int) -> np.ndarray:
    n = 2 << (flags & 7)
    if pos + 3 * n > len(b):
        raise NotImplementedError("truncated GIF color table")
    return np.frombuffer(b, np.uint8, count=3 * n, offset=pos).reshape(n, 3)


def decode_gif(b: bytes) -> np.ndarray:
    """First frame of a GIF87a/89a → (h, w, 3) uint8 RGB."""
    if not (b.startswith(b"GIF87a") or b.startswith(b"GIF89a")):
        raise ValueError("not a GIF payload")
    if len(b) < 13:
        raise NotImplementedError("truncated GIF header")
    _, _, packed, bg, _ = struct.unpack_from("<HHBBB", b, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        gct = _color_table(b, pos, packed)
        pos += gct.nbytes
    while pos < len(b):
        block = b[pos]
        if block == 0x21:                       # extension: skip
            pos += 2
            while pos < len(b) and b[pos] != 0:
                pos += 1 + b[pos]
            pos += 1
        elif block == 0x2C:                     # image descriptor
            if pos + 10 > len(b):
                raise NotImplementedError("truncated GIF descriptor")
            _, _, w, h, ip = struct.unpack_from("<HHHHB", b, pos + 1)
            pos += 10
            ct = gct
            if ip & 0x80:                       # local color table
                ct = _color_table(b, pos, ip)
                pos += ct.nbytes
            if ct is None:
                raise NotImplementedError("GIF frame without color table")
            if w == 0 or h == 0:
                raise NotImplementedError("empty GIF dimensions")
            if pos >= len(b):
                raise NotImplementedError("truncated GIF image data")
            min_code = b[pos]
            pos += 1
            if not 2 <= min_code <= 8:
                raise NotImplementedError(
                    f"GIF LZW min code size {min_code}")
            sub = bytearray()
            while pos < len(b) and b[pos] != 0:
                ln = b[pos]
                sub += b[pos + 1:pos + 1 + ln]
                pos += 1 + ln
            idx = np.frombuffer(
                _lzw_decode(min_code, bytes(sub), w * h), np.uint8)
            if int(idx.max()) >= len(ct):
                raise NotImplementedError("GIF index out of palette range")
            grid = idx.reshape(h, w)
            if ip & 0x40:                       # interlaced: 4 passes
                de = np.empty((h, w), np.uint8)
                src = 0
                for start, step in _INTERLACE_PASSES:
                    rows = range(start, h, step)
                    de[list(rows)] = grid[src:src + len(rows)]
                    src += len(rows)
                grid = de
            return ct[grid]
        elif block == 0x3B:                     # trailer before any image
            break
        else:
            raise NotImplementedError(f"GIF block 0x{block:02X}")
    raise NotImplementedError("GIF carries no image frame")


class _LsbBitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, width: int) -> None:
        self.acc |= code << self.nbits
        self.nbits += width
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def flush(self) -> bytes:
        if self.nbits:
            self.out.append(self.acc & 0xFF)
        return bytes(self.out)


def _lzw_encode(min_code_size: int, idx: bytes) -> bytes:
    clear = 1 << min_code_size
    eoi = clear + 1
    bw = _LsbBitWriter()
    table = {bytes([i]): i for i in range(clear)}
    width = min_code_size + 1
    next_code = eoi + 1
    bw.write(clear, width)
    cur = b""
    for byte in idx:
        nxt = cur + bytes([byte])
        if nxt in table:
            cur = nxt
            continue
        bw.write(table[cur], width)
        if next_code < 4096:
            table[nxt] = next_code
            # GIF width bump happens when next_code EXCEEDS the width
            if next_code == (1 << width):
                width += 1
            next_code += 1
        else:                                   # table full: clear
            bw.write(clear, width)
            table = {bytes([i]): i for i in range(clear)}
            width = min_code_size + 1
            next_code = eoi + 1
        cur = bytes([byte])
    if cur:
        bw.write(table[cur], width)
    bw.write(eoi, width)
    return bw.flush()


def encode_gif(idx: np.ndarray, palette: np.ndarray,
               interlace: bool = False) -> bytes:
    """(h, w) uint8 palette indices + (n≤256, 3) uint8 palette →
    GIF89a bytes. Lossless: ``decode_gif(encode_gif(i, p)) == p[i]``."""
    idx = np.ascontiguousarray(idx, dtype=np.uint8)
    palette = np.ascontiguousarray(palette, dtype=np.uint8)
    if idx.ndim != 2 or palette.ndim != 2 or palette.shape[1] != 3:
        raise ValueError("encode_gif wants (h,w) indices and (n,3) palette")
    if len(palette) > 256 or int(idx.max(initial=0)) >= len(palette):
        raise ValueError("palette too large or index out of range")
    h, w = idx.shape
    depth = max(2, int(len(palette) - 1).bit_length())
    n_ct = 1 << depth
    pal = np.zeros((n_ct, 3), np.uint8)
    pal[:len(palette)] = palette
    grid = idx
    if interlace:
        parts = [idx[start::step] for start, step in _INTERLACE_PASSES]
        grid = np.concatenate(parts, axis=0)
    lzw = _lzw_encode(depth, grid.tobytes())
    out = [b"GIF89a",
           struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0),
           pal.tobytes(),
           struct.pack("<BHHHHB", 0x2C, 0, 0, w, h,
                       0x40 if interlace else 0),
           bytes([depth])]
    for i in range(0, len(lzw), 255):
        chunk = lzw[i:i + 255]
        out.append(bytes([len(chunk)]) + chunk)
    out.append(b"\x00\x3b")
    return b"".join(out)
