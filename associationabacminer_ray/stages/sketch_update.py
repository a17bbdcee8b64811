"""Actor-pool sketch-update stage + two-phase partial merge.

``SketchUpdater`` is the canonical stateful ``map_batches`` stage
(SURVEY.md §7.2): sketch constructors / hash seeds are compiled once per
actor in ``__init__``; each ``__call__`` absorbs one zero-copy Arrow
batch and emits fixed-size serialized partials — the batch's rows never
leave the task. The all-to-all exchange that follows moves only O(KB)
register blobs per (sketch, salt) key, which is what makes 100 TB of
turns shuffle-cheap.

Salting (north rule: "explicit salting for skewed high-frequency
(role,tool) pairs"): partials carry ``salt = partial_seq % S`` so the
merge runs in two phases — ``groupby([name, salt])`` merges S-way in
parallel, then a tiny ``groupby(name)`` folds the S survivors. Sketch
merges are lossless (add/max/or), so salting cannot change estimates
(property-tested in tests/test_ray_sketch_pipeline.py).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import hash_any
from ..sketches import (
    BloomFilter,
    CountMinSketch,
    HyperLogLog,
    KLL,
    Sketch,
    SpaceSaving,
    TDigest,
)
from ..udaf import SketchMergeAgg
from .transactionize import dictionary_codes

_KINDS = {
    "cms": CountMinSketch,
    "hll": HyperLogLog,
    "bloom": BloomFilter,
    "topk": SpaceSaving,
    "tdigest": TDigest,
    "kll": KLL,
}


class SketchSpec:
    """Declarative description of one sketch over one column.

    kind: cms | hll | bloom | topk | tdigest | kll
    col:  input column. For cms/hll/bloom the column is hashed with
          ``hash_any`` (uint64 columns pass through a mix; strings get
          SipHash). topk keeps raw values (keys must survive into the
          answer); tdigest/kll expect numerics.
    """

    def __init__(self, name: str, kind: str, col: str, weight_col: str | None = None,
                 **params: Any):
        if kind not in _KINDS:
            raise ValueError(f"unknown sketch kind {kind!r}")
        self.name = name
        self.kind = kind
        self.col = col
        self.weight_col = weight_col
        self.params = params

    def build(self) -> Sketch:
        return _KINDS[self.kind](**self.params)


class SketchUpdater:
    """map_batches(SketchUpdater(specs), batch_format="pyarrow",
    concurrency=N) — emits (name, salt, blob, rows) partial rows."""

    def __init__(self, specs: Sequence[SketchSpec], num_salts: int = 1):
        # once-per-actor setup: resolve constructors, no per-batch rebuild
        self.specs = list(specs)
        self.num_salts = max(1, int(num_salts))
        self._seq = 0

    def _absorb(self, spec: SketchSpec, batch: pa.Table) -> Sketch:
        sk = spec.build()
        col = batch.column(spec.col)
        if spec.kind in ("cms", "hll", "bloom"):
            hashes = hash_any(col)
            if spec.kind == "hll":
                sk.update_hashed(hashes)
            elif spec.kind == "bloom":
                sk.add_hashed(hashes)
            elif spec.weight_col:
                sk.update_hashed(
                    hashes,
                    batch.column(spec.weight_col).to_numpy(zero_copy_only=False))
            else:
                # pre-aggregate: CMS work scales with DISTINCT keys per batch
                uh, uc = np.unique(hashes, return_counts=True)
                sk.update_hashed(uh, uc)
        elif spec.kind == "topk":
            vals = col.to_numpy(zero_copy_only=False)
            if spec.weight_col:
                sk.update(vals.tolist(),
                          batch.column(spec.weight_col).to_numpy(zero_copy_only=False))
            else:
                # hash-based value_counts beats sort-based np.unique on strings
                vc = pd.Series(vals).value_counts()
                sk.update(vc.index.tolist(), vc.to_numpy())
        else:  # tdigest / kll
            sk.update(col.to_numpy(zero_copy_only=False))
        return sk

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        salt = self._seq % self.num_salts
        self._seq += 1
        rows = {"name": [], "salt": [], "blob": [], "rows": []}
        for spec in self.specs:
            sk = self._absorb(spec, batch)
            rows["name"].append(spec.name)
            rows["salt"].append(salt)
            rows["blob"].append(sk.to_bytes())
            rows["rows"].append(batch.num_rows)
        return pd.DataFrame(rows)


class CategoricalItemSketchUpdater:
    """Fast-path updater for low-cardinality categorical item streams:
    CMS + space-saving over ``item = role '=' tool`` and HLL over
    ``conv_id``, computed from Arrow DICTIONARY codes — only the few
    hundred vocab strings are ever hashed, counting is one ``bincount``
    over int codes (no per-row string work at all). Emits the same
    (name, salt, blob, rows) partial rows as ``SketchUpdater``.
    """

    def __init__(self, cms_width: int = 1 << 15, cms_depth: int = 4,
                 topk_capacity: int = 4096, hll_p: int = 14, num_salts: int = 1,
                 names: tuple[str, str, str] = ("item_cms", "item_topk", "conv_hll")):
        self.cms_params = dict(width=cms_width, depth=cms_depth)
        self.topk_capacity = topk_capacity
        self.hll_p = hll_p
        self.num_salts = max(1, num_salts)
        self.names = names
        self._seq = 0

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        from ..sketches import CountMinSketch, HyperLogLog, SpaceSaving

        salt = self._seq % self.num_salts
        self._seq += 1
        r_codes, r_vocab = dictionary_codes(batch.column("role"))
        t_codes, t_vocab = dictionary_codes(batch.column("tool"))
        # vocab-level normalization, matching make_items/read_shard_codes
        r_vocab = np.where(r_vocab == "", "NONE", r_vocab)
        t_vocab = np.where(t_vocab == "", "NONE", t_vocab)
        T = len(t_vocab)
        grid = r_codes.astype(np.int64) * T + t_codes
        counts = np.bincount(grid, minlength=len(r_vocab) * T)
        present = np.flatnonzero(counts)
        items = np.array([f"{r_vocab[c // T]}={t_vocab[c % T]}" for c in present],
                         dtype=object)
        item_counts = counts[present].astype(np.int64)
        cms = CountMinSketch(**self.cms_params)
        cms.update_hashed(hash_any(items), item_counts)
        topk = SpaceSaving(capacity=self.topk_capacity)
        topk.update(items.tolist(), item_counts)
        hll = HyperLogLog(p=self.hll_p)
        _, conv_vocab = dictionary_codes(batch.column("conv_id"))
        hll.update_hashed(hash_any(conv_vocab))
        return pd.DataFrame(
            {
                "name": list(self.names),
                "salt": np.int32(salt),
                "blob": [cms.to_bytes(), topk.to_bytes(), hll.to_bytes()],
                "rows": batch.num_rows,
            }
        )


def merge_sketch_partials(partials_ds, two_phase: bool = False) -> dict[str, Sketch]:
    """Merge a Dataset of (name, salt, blob) partials into one sketch per
    name. ``two_phase=True`` first merges per ``(name, salt)``, then per
    name; merges are lossless, so both give the same sketches."""
    if two_phase:
        partials_ds = (
            partials_ds.groupby(["name", "salt"])
            .aggregate(SketchMergeAgg("blob", alias="blob"))
        )
    merged = partials_ds.groupby("name").aggregate(SketchMergeAgg("blob", alias="blob"))
    out: dict[str, Sketch] = {}
    for row in merged.take_all():
        if row["blob"] is not None:
            out[row["name"]] = Sketch.from_bytes(bytes(row["blob"]))
    return out
