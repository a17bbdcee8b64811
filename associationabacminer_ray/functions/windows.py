"""Sliding / tumbling window machinery.

Transplant of ``src/job/WindowGenerator.py:13-24`` (+ window→query
bounds :33-49): an observation window of ``obs_days`` followed by an
operation window of ``opr_days``, stepped by ``step_days``; each window
is one batch mining job. The reference materializes these as Mongo
range queries; here a window is either

- a parquet **predicate pushdown** on ``ts`` (one Dataset per window —
  only the window's row groups leave storage), or
- a derived ``window_id`` column for tumbling windows, used as an extra
  groupby key so all windows aggregate in one pass.

There are no watermarks / late data — mirroring the reference's
batch-recompute-per-window semantics (SURVEY.md §2.9).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


@dataclass(frozen=True)
class WindowSpec:
    """One job's window pair (obs = mine on, opr = score on)."""

    obs_start: datetime
    obs_end: datetime
    opr_start: datetime
    opr_end: datetime

    @property
    def window_id(self) -> str:
        return f"obs-{self.obs_start:%Y%m%d}-{self.obs_end:%Y%m%d}"


def generate_windows(start: datetime, end: datetime, obs_days: int = 30,
                     opr_days: int = 7, step_days: int = 1) -> list[WindowSpec]:
    """Slide (obs, opr) pairs across [start, end) by step_days —
    WindowGenerator.py:13-24 semantics: opr begins where obs ends."""
    out: list[WindowSpec] = []
    cur = start
    while cur + timedelta(days=obs_days + opr_days) <= end:
        obs_end = cur + timedelta(days=obs_days)
        out.append(WindowSpec(cur, obs_end, obs_end, obs_end + timedelta(days=opr_days)))
        cur += timedelta(days=step_days)
    return out


def ts_range(lo: datetime, hi: datetime) -> pc.Expression:
    """The parquet pushdown predicate ``lo <= ts < hi``."""
    field = pc.field("ts")
    return (field >= pa.scalar(np.datetime64(lo, "us"))) & (
        field < pa.scalar(np.datetime64(hi, "us")))


def read_window(path: str, spec: WindowSpec, which: str = "obs",
                columns: list[str] | None = None):
    """One window's rows with parquet predicate pushdown on ts (the Mongo
    range-query analog, src/job/job_utls.py:5-14)."""
    import ray.data as rd

    if which == "obs":
        expr = ts_range(spec.obs_start, spec.obs_end)
    elif which == "opr":
        expr = ts_range(spec.opr_start, spec.opr_end)
    elif which == "obs_opr":
        # the scoring-universe read: UNION of the two ranges — a spec
        # with a gap between obs_end and opr_start must not leak gap
        # rows into the observed domains
        expr = (ts_range(spec.obs_start, spec.obs_end)
                | ts_range(spec.opr_start, spec.opr_end))
    else:
        raise ValueError(f"unknown window part {which!r}")
    return rd.read_parquet(path, columns=columns, filter=expr)
