"""Sinks.

- ``write_small_result``: atomic single-file sink for small results
  (policies, scores — the Mongo upsert analog, S5).

Parquet reads go straight through ``ray.data.read_parquet``; the CLI's
partitioned write is Ray's ``write_parquet(partition_cols=…)``.
"""

from __future__ import annotations

import os

import pandas as pd


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
