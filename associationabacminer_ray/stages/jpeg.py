"""Baseline JPEG (ITU-T T.81) decode/encode in pure numpy + stdlib.

No imaging library: marker walk, canonical Huffman entropy coding,
float64 orthonormal 8×8 DCT/IDCT matrices, JFIF YCbCr↔RGB. Supported:
baseline sequential DCT (SOF0), 8-bit, 1 or 3 components, arbitrary
Hi/Vi chroma subsampling (4:4:4 / 4:2:2 / 4:2:0 …), restart markers,
0xFF00 byte stuffing. Progressive (SOF2), arithmetic coding, 12-bit
and hierarchical modes raise ``NotImplementedError`` — the same honest
boundary convention as ``stages/multimodal.py``.

Bit-exactness caveat (stated, not hidden): T.81 does not mandate an
IDCT implementation, so decoded pixels may differ by ±1 from libjpeg's
integer IDCT on the same stream; all tests here therefore assert
either EXACT cases that are quantization-error-free by construction
(solid R=G=B images, hand-built single-block streams with unit quant)
or PSNR bounds for lossy round-trips.

The entropy decode loop is per-symbol Python — fine for the small
payloads the multimodal fixtures carry; a 100 TB image corpus would
front a native decoder behind the same ``Decode`` stage interface.
"""

from __future__ import annotations

import struct

import numpy as np

# ------------------------------------------------------------- tables
# ITU-T T.81 Annex K.1 — luminance/chrominance quantization (Q50)
_QY = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], np.int32)
_QC = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], np.int32)

# zigzag: _ZIG[i] = natural index of the i-th zigzag coefficient
_ZIG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    np.int32)

# Annex K.3 — typical Huffman tables: (bits[1..16], huffval)
_HT_DC_LUM = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
              list(range(12)))
_HT_DC_CHR = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
              list(range(12)))
_HT_AC_LUM = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
     0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
     0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
     0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
     0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
     0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
     0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
     0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
     0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
     0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
     0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
     0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
     0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
     0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
     0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
_HT_AC_CHR = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
     0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
     0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
     0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
     0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
     0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
     0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
     0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
     0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
     0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
     0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
     0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
     0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
     0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
     0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])

# orthonormal 8×8 DCT-II matrix: block_dct = M @ block @ M.T
_M = np.array([[np.sqrt((1 if u == 0 else 2) / 8)
                * np.cos((2 * x + 1) * u * np.pi / 16)
                for x in range(8)] for u in range(8)], np.float64)


def _dct2(block: np.ndarray) -> np.ndarray:
    return _M @ block @ _M.T


def _idct2(coef: np.ndarray) -> np.ndarray:
    return _M.T @ coef @ _M


# --------------------------------------------------------- Huffman
def _build_decode_table(bits: list[int], vals: list[int]) -> dict:
    """Canonical Huffman → {(length, code): symbol} (T.81 Annex C)."""
    table, code, k = {}, 0, 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            table[(length, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return table


def _build_encode_table(bits: list[int], vals: list[int]) -> dict:
    """symbol → (code, length)."""
    out, code, k = {}, 0, 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


class _BitReader:
    """MSB-first reader over entropy-coded data with 0xFF00 unstuffing
    and RSTn awareness (the caller strips markers via ``sync_rst``)."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0          # byte position
        self.bit = 0          # bits consumed in current byte

    def read_bit(self) -> int:
        while True:
            if self.pos >= len(self.data):
                raise NotImplementedError("truncated JPEG entropy stream")
            byte = self.data[self.pos]
            if byte == 0xFF:
                nxt = self.data[self.pos + 1] if self.pos + 1 < len(
                    self.data) else None
                if nxt == 0x00:          # stuffed 0xFF data byte
                    pass                  # consume bits of 0xFF below
                elif nxt is not None and 0xD0 <= nxt <= 0xD7:
                    raise NotImplementedError(
                        "hit restart marker mid-symbol (corrupt stream)")
                else:
                    raise NotImplementedError(
                        f"unexpected marker 0xFF{nxt:02X} in scan"
                        if nxt is not None else "truncated JPEG scan")
            b = (byte >> (7 - self.bit)) & 1
            self.bit += 1
            if self.bit == 8:
                self.bit = 0
                self.pos += 1 + (1 if byte == 0xFF else 0)  # skip stuffed 00
            return b

    def receive(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def decode_huff(self, table: dict) -> int:
        length, code = 0, 0
        while length < 16:
            code = (code << 1) | self.read_bit()
            length += 1
            sym = table.get((length, code))
            if sym is not None:
                return sym
        raise NotImplementedError("invalid Huffman code in JPEG stream")

    def sync_rst(self, n: int) -> None:
        """Byte-align and consume the expected RSTn marker."""
        if self.bit:
            self.bit = 0
            self.pos += 1 + (1 if self.data[self.pos] == 0xFF else 0)
        if not (self.pos + 1 < len(self.data)
                and self.data[self.pos] == 0xFF
                and self.data[self.pos + 1] == 0xD0 + (n & 7)):
            raise NotImplementedError("missing/mis-sequenced JPEG restart "
                                      "marker")
        self.pos += 2


def _extend(v: int, n: int) -> int:
    """T.81 F.2.2.1 EXTEND: map the n-bit magnitude to a signed diff."""
    return v if n == 0 or v >= (1 << (n - 1)) else v - (1 << n) + 1


def _need(seg: bytes, n: int) -> None:
    """A header segment shorter than the ``n`` bytes its fields (or its
    declared length) call for is truncated."""
    if len(seg) < n:
        raise NotImplementedError("truncated JPEG segment")


# ------------------------------------------------------------- decode
def decode_jpeg(b: bytes) -> np.ndarray:
    """Baseline JPEG → (h, w, 3) uint8 RGB, or (h, w) for 1-component
    grayscale streams."""
    if not b.startswith(b"\xff\xd8"):
        raise ValueError("not a JPEG payload")
    qt: dict[int, np.ndarray] = {}
    huff_dc: dict[int, dict] = {}
    huff_ac: dict[int, dict] = {}
    sof = None
    restart = 0
    pos = 2
    scan_comps = None
    scan_start = None
    while pos + 4 <= len(b):
        if b[pos] != 0xFF:
            raise NotImplementedError("JPEG marker desync")
        marker = b[pos + 1]
        if marker == 0xD8:
            pos += 2
            continue
        (seglen,) = struct.unpack_from(">H", b, pos + 2)
        seg = b[pos + 4:pos + 2 + seglen]
        if marker in (0xC4, 0xDB, 0xC0, 0xDD, 0xDA):
            _need(seg, seglen - 2)
        if marker == 0xC4:                      # DHT (may hold several)
            p = 0
            while p < len(seg):
                _need(seg, p + 17)
                tc_th = seg[p]
                bits = list(seg[p + 1:p + 17])
                nv = sum(bits)
                _need(seg, p + 17 + nv)
                vals = list(seg[p + 17:p + 17 + nv])
                tbl = _build_decode_table(bits, vals)
                (huff_dc if tc_th >> 4 == 0 else huff_ac)[tc_th & 15] = tbl
                p += 17 + nv
        elif marker == 0xDB:                    # DQT
            p = 0
            while p < len(seg):
                _need(seg, p + 65)
                pq_tq = seg[p]
                if pq_tq >> 4 != 0:
                    raise NotImplementedError("16-bit JPEG quant table")
                q = np.frombuffer(seg[p + 1:p + 65], np.uint8).astype(
                    np.int32)
                qt[pq_tq & 15] = q
                p += 65
        elif marker == 0xC0:                    # SOF0 baseline
            _need(seg, 6)
            prec, h, w, nc = seg[0], struct.unpack_from(">H", seg, 1)[0], \
                struct.unpack_from(">H", seg, 3)[0], seg[5]
            if prec != 8:
                raise NotImplementedError(f"JPEG precision {prec}")
            _need(seg, 6 + 3 * nc)
            comps = []
            for i in range(nc):
                cid, hv, tq = seg[6 + 3 * i], seg[7 + 3 * i], seg[8 + 3 * i]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 15,
                              "tq": tq})
            sof = {"h": h, "w": w, "comps": comps}
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"JPEG SOF{marker - 0xC0} (only baseline SOF0 supported)")
        elif marker == 0xDD:                    # DRI
            _need(seg, 2)
            restart = struct.unpack_from(">H", seg, 0)[0]
        elif marker == 0xDA:                    # SOS
            _need(seg, 1)
            ns = seg[0]
            _need(seg, 1 + 2 * ns)
            scan_comps = [(seg[1 + 2 * i], seg[2 + 2 * i])
                          for i in range(ns)]  # (comp id, Td<<4|Ta)
            scan_start = pos + 2 + seglen
            break
        # APPn / COM / others: skip
        pos += 2 + seglen
    if sof is None or scan_comps is None:
        raise NotImplementedError("truncated JPEG (missing SOF/SOS)")

    h, w, comps = sof["h"], sof["w"], sof["comps"]
    if h == 0 or w == 0:
        raise NotImplementedError("empty JPEG dimensions")
    if len(comps) == 1:
        # a one-component scan is non-interleaved (T.81 A.2.2): its MCU
        # is one 8×8 block, whatever Hi/Vi the frame declares
        comps[0]["h"] = comps[0]["v"] = 1
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    for c in comps:
        c["bw"] = -(-w * c["h"] // (hmax * 8))   # blocks spanning width
        c["bh"] = -(-h * c["v"] // (vmax * 8))
        c["plane"] = np.zeros((mcuy * c["v"] * 8, mcux * c["h"] * 8),
                              np.float64)
        sc = next((s for s in scan_comps if s[0] == c["id"]), None)
        if sc is None:
            raise NotImplementedError("JPEG scan/frame component mismatch")
        c["td"], c["ta"] = sc[1] >> 4, sc[1] & 15
        if c["td"] not in huff_dc or c["ta"] not in huff_ac:
            raise NotImplementedError("JPEG scan references missing "
                                      "Huffman table")
        if c["tq"] not in qt:
            raise NotImplementedError("JPEG frame references missing "
                                      "quant table")

    rdr = _BitReader(b[scan_start:])
    pred = {c["id"]: 0 for c in comps}
    rst_n = 0
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart and mcu_count and mcu_count % restart == 0:
                rdr.sync_rst(rst_n)
                rst_n = (rst_n + 1) & 7
                for c in comps:
                    pred[c["id"]] = 0
            for c in comps:
                q = qt[c["tq"]]
                for by in range(c["v"]):
                    for bx in range(c["h"]):
                        zz = np.zeros(64, np.int32)
                        s = rdr.decode_huff(huff_dc[c["td"]])
                        diff = _extend(rdr.receive(s), s)
                        pred[c["id"]] += diff
                        zz[0] = pred[c["id"]]
                        k = 1
                        while k < 64:
                            rs = rdr.decode_huff(huff_ac[c["ta"]])
                            r, size = rs >> 4, rs & 15
                            if size == 0:
                                if r == 15:      # ZRL: 16 zeros
                                    k += 16
                                    continue
                                break            # EOB
                            k += r
                            if k > 63:
                                raise NotImplementedError(
                                    "JPEG AC coefficient overrun")
                            zz[k] = _extend(rdr.receive(size), size)
                            k += 1
                        coef = np.zeros(64, np.float64)
                        coef[_ZIG] = zz * q
                        blk = _idct2(coef.reshape(8, 8)) + 128.0
                        y0 = (my * c["v"] + by) * 8
                        x0 = (mx * c["h"] + bx) * 8
                        c["plane"][y0:y0 + 8, x0:x0 + 8] = blk
            mcu_count += 1

    # upsample each component to full size (pixel replication), crop
    planes = []
    for c in comps:
        p = c["plane"]
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            p = np.repeat(np.repeat(p, ry, axis=0), rx, axis=1)
        planes.append(p[:h, :w])
    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    if len(planes) != 3:
        raise NotImplementedError(f"{len(planes)}-component JPEG")
    y, cb, cr = planes
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    bl = y + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, bl], axis=-1)), 0,
                   255).astype(np.uint8)


# ------------------------------------------------------------- encode
class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)            # byte stuffing
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def pad_align(self) -> None:
        if self.nbits:
            self.write(0x7F, 8 - self.nbits)     # 1-fill per T.81


def _scale_q(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (base * s + 50) // 100
    return np.clip(q, 1, 255)


def _encode_block(bw: _BitWriter, zz: np.ndarray, pred: int,
                  dc_tbl: dict, ac_tbl: dict) -> int:
    diff = int(zz[0]) - pred
    mag, n = abs(diff), 0
    while mag:
        mag >>= 1
        n += 1
    code, ln = dc_tbl[n]
    bw.write(code, ln)
    if n:
        bw.write(diff if diff >= 0 else diff + (1 << n) - 1, n)
    run = 0
    last_nz = int(np.nonzero(zz)[0].max()) if np.any(zz[1:]) else 0
    for k in range(1, 64):
        v = int(zz[k])
        if v == 0:
            if k > last_nz:
                break
            run += 1
            if run == 16:
                code, ln = ac_tbl[0xF0]          # ZRL
                bw.write(code, ln)
                run = 0
            continue
        mag, n = abs(v), 0
        while mag:
            mag >>= 1
            n += 1
        code, ln = ac_tbl[(run << 4) | n]
        bw.write(code, ln)
        bw.write(v if v >= 0 else v + (1 << n) - 1, n)
        run = 0
    if last_nz < 63:
        code, ln = ac_tbl[0x00]                  # EOB
        bw.write(code, ln)
    return int(zz[0])


def encode_jpeg(arr: np.ndarray, quality: int = 90,
                subsample: bool = False,
                restart_interval: int = 0) -> bytes:
    """(h, w, 3) RGB / (h, w) gray uint8 → baseline JFIF JPEG bytes.
    ``subsample=True`` emits 4:2:0 chroma (exercises the decoder's
    multi-block MCU + upsampling path); ``restart_interval`` emits DRI
    + RSTn markers every N MCUs."""
    a = np.ascontiguousarray(arr, dtype=np.uint8).astype(np.float64)
    gray = a.ndim == 2
    if not gray and (a.ndim != 3 or a.shape[2] != 3):
        raise ValueError(f"JPEG encodes (h,w) or (h,w,3) uint8, got "
                         f"{arr.shape}")
    h, w = a.shape[:2]
    qy = _scale_q(_QY, quality)
    qc = _scale_q(_QC, quality)
    if gray:
        planes = [a]
        samp = [(1, 1)]
        qtabs = [qy]
        tids = [(0, 0)]
    else:
        r, g, bl = a[..., 0], a[..., 1], a[..., 2]
        y = 0.299 * r + 0.587 * g + 0.114 * bl
        cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * bl
        cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * bl
        if subsample:
            # pad to even, 2×2 mean, h2v2 MCUs
            ph, pw = -(-h // 2) * 2, -(-w // 2) * 2
            cbp = np.pad(cb, ((0, ph - h), (0, pw - w)), mode="edge")
            crp = np.pad(cr, ((0, ph - h), (0, pw - w)), mode="edge")
            cb = cbp.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
            cr = crp.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            samp = [(1, 1), (1, 1), (1, 1)]
        planes = [y, cb, cr]
        qtabs = [qy, qc, qc]
        tids = [(0, 0), (1, 1), (1, 1)]

    # quantize in ZIGZAG order — the same order the DQT segment carries
    # and the decoder applies (a natural-order divide here would be
    # self-consistent only with a matching decoder bug)
    qtabs = [q[_ZIG] for q in qtabs]

    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    padded = []
    for p, (sh, sv) in zip(planes, samp):
        th, tw = mcuy * sv * 8, mcux * sh * 8
        padded.append(np.pad(p, ((0, th - p.shape[0]), (0, tw - p.shape[1])),
                             mode="edge"))

    enc_dc = [_build_encode_table(*_HT_DC_LUM),
              _build_encode_table(*_HT_DC_CHR)]
    enc_ac = [_build_encode_table(*_HT_AC_LUM),
              _build_encode_table(*_HT_AC_CHR)]

    bw = _BitWriter()
    pred = [0] * len(planes)
    rst_n = 0
    mcu_count = 0
    chunks = []
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count \
                    and mcu_count % restart_interval == 0:
                bw.pad_align()
                chunks.append(bytes(bw.out))
                chunks.append(bytes([0xFF, 0xD0 + (rst_n & 7)]))
                bw = _BitWriter()
                rst_n += 1
                pred = [0] * len(planes)
            for ci, (p, (sh, sv), q, (td, ta)) in enumerate(
                    zip(padded, samp, qtabs, tids)):
                for by in range(sv):
                    for bx in range(sh):
                        y0 = (my * sv + by) * 8
                        x0 = (mx * sh + bx) * 8
                        blk = p[y0:y0 + 8, x0:x0 + 8] - 128.0
                        coef = _dct2(blk)
                        zz = np.round(coef.reshape(64)[_ZIG]
                                      / q).astype(np.int32)
                        pred[ci] = _encode_block(bw, zz, pred[ci],
                                                 enc_dc[td], enc_ac[ta])
            mcu_count += 1
    bw.pad_align()
    chunks.append(bytes(bw.out))
    scan = b"".join(chunks)

    def seg(marker: int, payload: bytes) -> bytes:
        return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload

    out = [b"\xff\xd8",
           seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")]
    out.append(seg(0xDB, bytes([0]) + bytes(qy[_ZIG].astype(np.uint8))))
    if not gray:
        out.append(seg(0xDB, bytes([1]) + bytes(qc[_ZIG].astype(np.uint8))))
    ncomp = len(planes)
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([ncomp])
    for i, ((sh, sv), (td, _)) in enumerate(zip(samp, tids)):
        sof += bytes([i + 1, (sh << 4) | sv, 0 if i == 0 else 1])
    out.append(seg(0xC0, sof))
    for tc_th, (bits, vals) in ((0x00, _HT_DC_LUM), (0x10, _HT_AC_LUM),
                                (0x01, _HT_DC_CHR), (0x11, _HT_AC_CHR)):
        if gray and tc_th & 1:
            continue
        out.append(seg(0xC4, bytes([tc_th]) + bytes(bits) + bytes(vals)))
    if restart_interval:
        out.append(seg(0xDD, struct.pack(">H", restart_interval)))
    sos = bytes([ncomp])
    for i, (td, ta) in enumerate(tids):
        sos += bytes([i + 1, (td << 4) | ta])
    sos += bytes([0, 63, 0])
    out.append(seg(0xDA, sos))
    out.append(scan)
    out.append(b"\xff\xd9")
    return b"".join(out)
