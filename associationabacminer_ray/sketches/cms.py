"""Count-min sketch — approximate point counts for itemset support.

Replaces the reference's exact FP-growth support counting
(``src/EnvAbacRuleMiner.py:161-168``) at scales where the itemset →
count dict no longer fits: point-query error ≤ ε·N with probability
1-δ, where ε = e/width and δ = e^-depth (Cormode & Muthukrishnan 2005).

Counters are int64; merge is element-wise addition, hence exactly
associative/commutative — estimates are invariant to partition splits.
"""

from __future__ import annotations

import struct

import numpy as np

from ..functions.hashing import splitmix64
from .base import Sketch

U64 = np.uint64


class CountMinSketch(Sketch):
    MAGIC = b"CMS1"
    WRITABLE_ARRAYS = ("table",)

    def __init__(self, width: int = 1 << 15, depth: int = 4, seed: int = 7,
                 table: np.ndarray | None = None):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        # row i hashes with mix_with_seed(h, seed·1315423911 + i); the
        # splitmix of each row's seed is derived once here
        self._row_seeds = splitmix64(np.array(
            [(self.seed * 1315423911 + i) & 0xFFFFFFFFFFFFFFFF for i in range(self.depth)],
            dtype=np.uint64))
        self.total = 0  # total weight added (for ε·N bounds)
        if table is None:
            table = np.zeros((self.depth, self.width), dtype=np.int64)
        self.table = table

    # -- error bounds --------------------------------------------------
    @property
    def epsilon(self) -> float:
        return float(np.e / self.width)

    @property
    def delta(self) -> float:
        return float(np.exp(-self.depth))

    @classmethod
    def for_error(cls, epsilon: float, delta: float) -> "CountMinSketch":
        width = int(np.ceil(np.e / epsilon))
        depth = int(np.ceil(np.log(1.0 / delta)))
        return cls(width=width, depth=depth)

    # -- updates -------------------------------------------------------
    def _indices(self, h: np.ndarray) -> np.ndarray:
        """``(depth, len(h))`` column indices of the 1-D uint64 hashes
        ``h``: row i maps a hash to ``splitmix64(h ^ row_seed_i) % width``,
        all rows in one broadcast call (a per-row loop of ``splitmix64``
        calls is mostly NumPy call overhead for a few keys)."""
        return (splitmix64(h[None, :] ^ self._row_seeds[:, None])
                % U64(self.width)).astype(np.int64)

    def update_hashed(self, hashes: np.ndarray, counts: np.ndarray | None = None) -> "CountMinSketch":
        self._writable()
        h = np.atleast_1d(np.asarray(hashes, dtype=np.uint64))
        if counts is None:
            counts = np.ones(h.shape, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        for row, idx in zip(self.table, self._indices(h)):
            np.add.at(row, idx, counts)
        self.total += int(counts.sum())
        return self

    def estimate_hashed(self, hashes: np.ndarray) -> np.ndarray:
        h = np.atleast_1d(np.asarray(hashes, dtype=np.uint64))
        rows = np.arange(self.depth)[:, None]
        return self.table[rows, self._indices(h)].min(axis=0)

    def estimate_one(self, hashed_key: int) -> int:
        return int(self.estimate_hashed(np.array([hashed_key], dtype=np.uint64))[0])

    def inner_product(self, other: "CountMinSketch") -> int:
        """Join-size estimate (Cormode & Muthukrishnan §4.2): for two
        multisets A, B sketched with IDENTICAL (width, depth, seed),
        ``min_d Σ_w A_d[w]·B_d[w]`` estimates ``Σ_key a(key)·b(key)``
        = |A ⋈ B|. Always an OVERestimate; with probability 1−δ the
        error is ≤ ε·|A|·|B| (ε = e/width, δ = e^−depth). Sums run in
        exact Python-int arithmetic — a row dot can exceed int64 at
        10¹²-row scale."""
        self._check_mergeable(other, "width", "depth", "seed")
        best: int | None = None
        for d in range(self.depth):
            row = int(np.sum(self.table[d].astype(object)
                             * other.table[d].astype(object)))
            best = row if best is None else min(best, row)
        return int(best or 0)

    # -- merge / serialize --------------------------------------------
    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self._check_mergeable(other, "width", "depth", "seed")
        self._writable()
        self.table += other.table
        self.total += other.total
        return self

    def copy(self) -> "CountMinSketch":
        out = CountMinSketch(width=self.width, depth=self.depth, seed=self.seed,
                             table=self.table.copy())
        out.total = self.total
        return out

    def _payload(self) -> bytes:
        head = struct.pack("<IIqq", self.width, self.depth, self.seed, self.total)
        return head + np.ascontiguousarray(self.table).tobytes()

    @classmethod
    def _from_payload(cls, payload: bytes) -> "CountMinSketch":
        width, depth, seed, total = struct.unpack_from("<IIqq", payload)
        off = struct.calcsize("<IIqq")
        table = np.frombuffer(payload, dtype=np.int64, offset=off,
                              count=width * depth).reshape(depth, width).copy()
        out = cls(width=width, depth=depth, seed=seed, table=table)
        out.total = total
        return out
