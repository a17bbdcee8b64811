#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in ``workloads.WORKLOADS`` (the gated ones in
``BENCHMARK.json`` and the ungated ``window_job``) on a tiny corpus,
untraced and traced, and checks that each run exits 0, reports every
operation correct, emits exactly the metrics ``BENCHMARK.json`` names
with their units, reports every end-to-end figure (gated or not) with
its unit and sample count in the detail record, and stamps the host
context. Then checks that the benchmark
refuses to run, without printing a result, in a directory that holds
only ``BENCHMARK.json`` and the benchmark's files. Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
SECONDS = "2"
# end-to-end figures every detail record reports besides the gated ones
REPORTED = {"query_ms_p90", "distinct_err_ppm", "failed_ops_frac"}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{tag}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        raise SystemExit(f"{tag}: not correct: {result}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        raise SystemExit(f"{tag}: metrics differ: missing {sorted(set(wanted) - set(got))}, "
                         f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise SystemExit(f"{tag}: bad metric {name}: {got[name]}")
        if not trace and value <= 0:
            raise SystemExit(f"{tag}: end-to-end metric {name} is not positive: {value}")
    reported = detail["end_to_end"]
    missing = ({m["name"] for m in spec["end_to_end"]} | REPORTED) - set(reported)
    if missing or any("unit" not in m or "samples" not in m for m in reported.values()):
        raise SystemExit(f"{tag}: detail record incomplete: missing {sorted(missing)}")
    host = detail["host"]
    if not (host["granted_cpus"] >= 2 and host["ray_num_cpus"] >= 2
            and "git_sha" in host and host["source_sha1"]):
        raise SystemExit(f"{tag}: host stamp incomplete: {host}")
    print(f"ok  {tag}: {result['attempted']} operations, {len(got)} metrics")


def check_refuses_without_program(spec: dict) -> None:
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    bare = os.path.join(ROOT, ".pbw", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare checkout refused (exit {proc.returncode})")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_refuses_without_program(spec)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, name, trace)
    print("smoke ok")


if __name__ == "__main__":
    main()
