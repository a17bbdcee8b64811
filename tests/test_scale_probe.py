"""The scale probe's replica layout (scripts/scale_probe_r4.py)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq


def test_replicate_drops_replicas_beyond_a_smaller_rerun(tmp_path):
    from scripts.scale_probe_r4 import _replicate

    src = str(tmp_path / "events.parquet")
    pq.write_table(pa.table({"user_id": [1, 2], "event_id": [10, 11]}), src)
    dest = str(tmp_path / "out")
    offsets = {"user_id": 100, "event_id": 1000}
    _replicate(src, dest, 5, offsets)
    _replicate(src, dest, 2, offsets)
    assert sorted(os.listdir(dest)) == ["replica_0000.parquet",
                                        "replica_0001.parquet"]
    rows = pq.read_table(dest).num_rows
    assert rows == 4
