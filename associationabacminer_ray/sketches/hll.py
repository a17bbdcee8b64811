"""HyperLogLog — mergeable distinct counting.

Replaces the reference's exact SHA-hash set unions for unique-event /
allowed-universe counting (``src/model/EnvLogUniverseGenerator.py:91-94``,
``src/eval/EnvPolicyEvaluator.py:192-199``) with O(2^p)-byte state:
relative standard error ≈ 1.04/√m with m = 2^p registers (Flajolet et
al. 2007). Merge = element-wise register max → exactly associative and
commutative.

Uses 64-bit hashes (no large-range correction needed) and linear
counting for the small range, per the HyperLogLog++ recommendation.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .base import Sketch

U64 = np.uint64


def _clz64(x: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros for uint64 (exact, integer-only)."""
    x = np.asarray(x, dtype=np.uint64)
    n = np.zeros(x.shape, dtype=np.int64)
    shift_acc = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        mask = shift_acc >> U64(64 - s) == U64(0)
        n[mask] += s
        shift_acc[mask] <<= U64(s)
    n[x == U64(0)] = 64
    return n


class HyperLogLog(Sketch):
    MAGIC = b"HLL1"
    WRITABLE_ARRAYS = ("registers",)

    def __init__(self, p: int = 14, registers: np.ndarray | None = None):
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = int(p)
        self.m = 1 << self.p
        if registers is None:
            registers = np.zeros(self.m, dtype=np.uint8)
        self.registers = registers

    @property
    def relative_error(self) -> float:
        return 1.04 / np.sqrt(self.m)

    def update_hashed(self, hashes: np.ndarray) -> "HyperLogLog":
        h = np.asarray(hashes, dtype=np.uint64)
        if h.size == 0:
            return self
        self._writable()
        idx = (h >> U64(64 - self.p)).astype(np.int64)
        rest = h << U64(self.p)  # remaining 64-p bits, left-aligned
        rho = np.minimum(_clz64(rest) + 1, 64 - self.p + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rho)
        return self

    def estimate(self) -> float:
        m = self.m
        if m == 16:
            alpha = 0.673
        elif m == 32:
            alpha = 0.697
        elif m == 64:
            alpha = 0.709
        else:
            alpha = 0.7213 / (1.0 + 1.079 / m)
        # Harmonic sum as an EXACT integer: Σⱼ 2^(−Mⱼ) = S · 2⁻⁶⁴ with
        # S = Σⱼ 2^(64−Mⱼ) (register values ≤ 64−p+1 ≤ 61, so every
        # term and the ≤ m·2⁶⁴ total are exact Python ints). This makes
        # the estimate independent of summation order (the float
        # np.exp2/np.sum path was pairwise-summation-order dependent)
        # and lets a DuckDB oracle rebuild S in HUGEINT and reproduce
        # the estimate bit-for-bit. S→float must avoid the whole-value
        # cast: DuckDB's HUGEINT→DOUBLE is double-rounded (±1 ulp vs
        # round-to-nearest), so both sides convert the 32-bit-aligned
        # halves instead — S>>32 < 2⁵³ for p ≤ 21 and S&(2³²−1) < 2³²
        # convert EXACTLY, the power-of-two scalings are exact, and the
        # single final addition is correctly rounded identically
        # everywhere. The remaining ops (alpha, the division,
        # m·ln(m/zeros)) are correctly-rounded IEEE / shared-libm on
        # both sides (math.log ≡ DuckDB ln; numpy's SIMD log differs
        # by 1 ulp on ~21% of inputs, so the linear-counting branch
        # deliberately uses math.log).
        cnt = np.bincount(self.registers)
        S = 0
        for r, c in enumerate(cnt.tolist()):
            if c:
                S += c << (64 - r)
        ssum = (float(S >> 32) * 2.0 ** -32
                + float(S & 0xFFFFFFFF) * 2.0 ** -64)
        raw = alpha * m * m / ssum
        zeros = int(cnt[0]) if cnt.size else 0
        if raw <= 2.5 * m and zeros > 0:
            return float(m * math.log(m / zeros))  # linear counting
        return float(raw)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        self._check_mergeable(other, "p")
        self._writable()
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def copy(self) -> "HyperLogLog":
        return HyperLogLog(p=self.p, registers=self.registers.copy())

    def _payload(self) -> bytes:
        return struct.pack("<I", self.p) + np.ascontiguousarray(self.registers).tobytes()

    @classmethod
    def _from_payload(cls, payload: bytes) -> "HyperLogLog":
        (p,) = struct.unpack_from("<I", payload)
        regs = np.frombuffer(payload, dtype=np.uint8, offset=4, count=1 << p).copy()
        return cls(p=p, registers=regs)
