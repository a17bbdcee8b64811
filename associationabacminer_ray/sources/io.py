"""Sinks and flatteners.

- ``write_small_result``: atomic single-file sink for small results
  (policies, scores — the Mongo upsert analog, S5).
- ``flatten_struct_columns`` (M1, ``event_flattner.py:20-82``): nested
  struct columns → flat ``parent_child`` columns (lists dropped, like
  the reference).
- ``pivot_list_of_struct`` (M4, ``ResourceFlattner.py:10-30``): a
  ``list<struct{key,value}>`` column pivoted into fixed
  ``prefix_<key>`` columns with a default fill.

Parquet reads go straight through ``ray.data.read_parquet``; the CLI's
partitioned write is Ray's ``write_parquet(partition_cols=…)``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa


def write_small_result(df: pd.DataFrame, path: str) -> str:
    """Atomic single-file sink for small results (policies, scores —
    the Mongo upsert analog, S5)."""
    tmp = path + ".tmp"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if path.endswith(".json"):
        df.to_json(tmp, orient="records")
    elif path.endswith(".csv"):
        df.to_csv(tmp, index=False)
    else:
        df.to_parquet(tmp, index=False)
    os.replace(tmp, path)
    return path


def flatten_struct_columns(t: pa.Table, sep: str = "_",
                           drop_lists: bool = True) -> pa.Table:
    """Recursively flatten struct columns to ``parent{sep}child``;
    list/map columns dropped (the reference drops lists)."""
    changed = True
    while changed:
        changed = False
        cols, names = [], []
        for name, col in zip(t.column_names, t.columns):
            typ = col.type
            if pa.types.is_struct(typ):
                flat = col.combine_chunks().flatten()
                for field, sub in zip(typ, flat):
                    names.append(f"{name}{sep}{field.name}")
                    cols.append(sub)
                changed = True
            elif drop_lists and (pa.types.is_list(typ) or pa.types.is_large_list(typ)
                                 or pa.types.is_map(typ)):
                continue
            else:
                names.append(name)
                cols.append(col)
        t = pa.table(dict(zip(names, cols)))
    return t


def pivot_list_of_struct(batch: pd.DataFrame, col: str, key_field: str = "key",
                         value_field: str = "value", prefix: str | None = None,
                         default: str = "None") -> pd.DataFrame:
    """list<struct{key,value}> → fixed ``prefix_<key>`` columns
    (ResourceFlattner semantics: last value wins, missing → default)."""
    prefix = prefix if prefix is not None else col
    keys: set[str] = set()
    rows = []
    for entry in batch[col]:
        d = {}
        # Arrow list<struct> cells arrive as numpy arrays in pandas
        # batches; `entry or []` would raise on len >= 2 — test length
        if entry is None or (np.isscalar(entry) and pd.isna(entry)):
            items = []
        else:
            items = list(entry)
        for item in items:
            d[item[key_field]] = item[value_field]
        keys.update(d)
        rows.append(d)
    out = batch.drop(columns=[col]).copy()
    for k in sorted(keys):
        out[f"{prefix}_{k}"] = [r.get(k, default) for r in rows]
    return out
