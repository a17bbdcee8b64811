"""Cluster-aware runtime sizing helpers.

Round-1 hardcoded ``concurrency=2`` on every text/ANN actor-pool stage,
which starves a 32-CPU node (and a cluster far worse). Stages now size
their pools from the live cluster: an autoscaling ``(1, n_cpus)`` range
so small inputs don't pay 32 actor startups but large inputs fan out to
every core.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import os


def cluster_cpus() -> int:
    """Total CPUs in the connected Ray cluster (fallback: local cores,
    else 4)."""
    try:
        import ray

        if ray.is_initialized():
            n = int(ray.cluster_resources().get("CPU", 0))
            if n > 0:
                return n
    except Exception:
        pass
    return os.cpu_count() or 4


@functools.lru_cache(maxsize=1)
def _malloc_trim():
    """glibc's ``malloc_trim``, looked up once; None where the C library
    cannot be found or has no such symbol (musl, macOS, Windows)."""
    name = ctypes.util.find_library("c")
    try:
        return ctypes.CDLL(name).malloc_trim if name else None
    except (OSError, AttributeError):
        return None


def release_freed_heap() -> None:
    """Hand the heap this process has freed back to the OS
    (``malloc_trim(0)``; a no-op without glibc). glibc keeps freed
    blocks in per-thread arenas, so a driver that decodes and merges
    sketches on short-lived threads keeps growing its resident memory
    though nothing holds the blocks; the sketch-partial merge calls this
    once at its end."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def sf_tag(sf_dir: str) -> str:
    """The scale-factor tag ('sf0.01', …) from a corpus dir path —
    parsed from the basename, not a substring match ('0.1' appearing
    elsewhere in the path must not change fixture sizing)."""
    return os.path.basename(os.path.normpath(sf_dir))


def auto_concurrency() -> tuple[int, int]:
    """Autoscaling actor-pool size for ``map_batches(Cls, concurrency=…)``:
    ``(1, cluster CPUs)``. Ray grows the pool only while the stage has
    queued blocks, so tiny inputs stay at one actor while a 100 TB read
    saturates the cluster."""
    return (1, max(1, cluster_cpus()))


def quiet_ray_empty_schema_warnings() -> None:
    """Suppress ONLY the known-benign ``Operator produced a RefBundle
    with a different schema … new schema: <empty>`` executor warning.

    Root cause (Ray 2.49, traced in PERF.md #30): all-to-all operators
    (sort / repartition) emit schema-less EMPTY blocks when range
    boundaries duplicate (e.g. 32 post-coalesce blocks over 16 bucket
    keys), Ray's own map wrapper passes raw empty blocks through
    without calling the UDF (``plan_udf_map_op.py`` — the in-tree
    ``TODO(hchen)`` comment documents this), and a map task whose
    batches were all skipped builds its output from an empty
    ``ArrowBlockBuilder`` (``output_buffer.py`` always emits one block
    per task). Library kernels here all return TYPED empties — the
    artifact is Ray-internal, and schema-strict execution
    (``DataContext.enforce_schemas=True``) unifies the empty schema
    without error. Real schema drift (typed → DIFFERENT typed) still
    warns: the filter matches only an empty new schema."""
    import logging

    class _EmptyNewSchemaFilter(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            if "Operator produced a RefBundle with a different schema" \
                    not in msg:
                return True
            return not ("new schema: . " in msg
                        or "new schema: PandasBlockSchema(names=[]" in msg)

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptyNewSchemaFilter())
