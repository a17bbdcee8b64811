"""Sketch base interface + binary serialization registry.

Every sketch is a *mergeable summary*:

- ``update_hashed(hashes[, counts])`` / ``update(values)`` — absorb data
- ``merge(other) -> self`` — in-place merge of a same-parameter sketch
  (addition for CMS, register-max for HLL, bitwise-or for Bloom,
  centroid/compactor merge for t-digest/KLL, counter merge for top-k)
- ``Sketch.fold(sketches)`` — a NEW sketch equal, byte for byte, to the
  left fold ``copy(s1).merge(s2).merge(s3)…``; no argument is changed
  or shares an array with the result (Space-Saving folds every operand
  in one pass, see ``sketches.topk``)
- ``estimate(...)`` — the query (point count, cardinality, membership,
  quantile, heavy hitters)
- ``to_bytes() / from_bytes()`` — fixed-layout binary so sketch state is
  an Arrow ``binary()`` cell and rides through groupby/aggregate
  shuffles and parquet checkpoints.

CMS/HLL/Bloom merges are exactly associative and commutative, so
estimates are bit-identical across arbitrary partition splits and merge
orders (property-tested). t-digest/KLL merges are *boundedly*
order-sensitive: estimates across merge orders agree within the
sketch's quantile-error bound (also property-tested) but are not
bit-identical — this is inherent to compacting quantile summaries.
"""

from __future__ import annotations

import struct
from typing import ClassVar, Iterable, Iterator

import numpy as np

_HEADER = struct.Struct("<4sB")  # magic, version

_REGISTRY: dict[bytes, type["Sketch"]] = {}


class Sketch:
    MAGIC: ClassVar[bytes] = b"????"
    VERSION: ClassVar[int] = 1
    # numpy-array attributes that in-place ops mutate; deserialized
    # object-store buffers are read-only, so guard before mutating
    WRITABLE_ARRAYS: ClassVar[tuple[str, ...]] = ()

    def _writable(self) -> None:
        for name in self.WRITABLE_ARRAYS:
            arr = getattr(self, name)
            if not arr.flags.writeable:
                setattr(self, name, arr.copy())

    # --- subclass API -------------------------------------------------
    def merge(self, other: "Sketch") -> "Sketch":  # pragma: no cover
        raise NotImplementedError

    def _payload(self) -> bytes:  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def _from_payload(cls, payload: bytes) -> "Sketch":  # pragma: no cover
        raise NotImplementedError

    # --- shared ------------------------------------------------------
    @classmethod
    def fold(cls, sketches: Iterable["Sketch"]) -> "Sketch":
        """A new sketch equal, byte for byte, to the left fold
        ``copy(s1).merge(s2).merge(s3)…`` of ``sketches`` (one or more of
        one type; ``Sketch.fold`` takes any type, ``T.fold`` only ``T``).
        No argument is changed and none shares an array with the result,
        so read-only decoded sketches fold as they are. The operands are
        taken one at a time where the type's fold allows it (all but
        Space-Saving), so a generator of decodes holds one at a time."""
        it = iter(sketches)
        first = next(it, None)
        if first is None:
            raise ValueError("fold needs at least one sketch")
        if not isinstance(first, cls):
            raise TypeError(f"expected {cls.__name__}, found {type(first).__name__}")
        return type(first)._fold(first, it)

    @classmethod
    def _fold(cls, first: "Sketch", rest: Iterator["Sketch"]) -> "Sketch":
        out = first.copy()
        for other in rest:
            out.merge(other)
        return out

    def copy(self) -> "Sketch":
        """An independent copy: a decode of ``to_bytes``."""
        return Sketch.from_bytes(self.to_bytes())

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        if getattr(cls, "MAGIC", b"????") != b"????":
            _REGISTRY[cls.MAGIC] = cls

    def to_bytes(self) -> bytes:
        return _HEADER.pack(self.MAGIC, self.VERSION) + self._payload()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        magic, version = _HEADER.unpack_from(data)
        target = _REGISTRY.get(magic)
        if target is None:
            raise ValueError(f"unknown sketch magic {magic!r}")
        if cls is not Sketch and target is not cls:
            raise TypeError(f"expected {cls.__name__}, found {target.__name__}")
        if version != target.VERSION:
            raise ValueError(f"{target.__name__} version mismatch: {version}")
        return target._from_payload(data[_HEADER.size:])

    def _check_mergeable(self, other: "Sketch", *params: str) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot merge {type(other).__name__} into {type(self).__name__}")
        for p in params:
            if getattr(self, p) != getattr(other, p):
                raise ValueError(
                    f"merge parameter mismatch on {p}: {getattr(self, p)} != {getattr(other, p)}"
                )


def sketch_from_bytes(data: bytes) -> Sketch:
    """Deserialize any registered sketch (dispatch on magic)."""
    return Sketch.from_bytes(data)


def unpack_array(data: bytes, offset: int, dtype) -> tuple[np.ndarray, int]:
    (n,) = struct.unpack_from("<I", data, offset)
    offset += 4
    itemsize = np.dtype(dtype).itemsize
    arr = np.frombuffer(data, dtype=dtype, count=n, offset=offset).copy()
    return arr, offset + n * itemsize
