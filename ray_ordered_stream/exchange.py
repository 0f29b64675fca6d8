"""Shared hash-exchange primitives.

Every wide operator in this repo that cannot ride Ray Data's built-in
shuffles uses the same two-step exchange: SPLIT each input block into P
compact per-partition sub-tables (deterministic hash of a key column), then
feed partition p of every split to one per-partition task/actor. The split
discipline (compact takes — never slices, which pickle their parent
buffers; empty-shard passthrough; stable order within a partition) is
easy to get subtly wrong, so it lives here once instead of per operator.

Used by: functions/dedup (LSH pair buckets, text join-back),
pipelines/transcripts (per-user rank), windows (session merge). Their
shards are ``pa.Table``s. The ordered engine keeps its own fused read+split
task (ordered.py) because it decodes Parquet in the same step, and ships
each shard as one compact ``pa.RecordBatch`` so its state actors never
deserialize through Ray's ``pa.Table`` reducer (which imports ``ray.data``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .partitioning import key_partition_codes


def default_partitions() -> int:
    """Default partition count for an exchange: half the cluster CPUs
    (leaves headroom for the stateless split/read tasks), min 2 (shard_refs
    requires P >= 2). Shared so every wide operator sizes identically."""
    return max(2, int(ray.cluster_resources().get("CPU", 4)) // 2)


def int_partition_codes(ids: np.ndarray, P: int) -> np.ndarray:
    """Deterministic partition of int64 ids (Fibonacci-hash mix)."""
    with np.errstate(over="ignore"):
        return (
            (ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
            % np.uint64(P)
        ).astype(np.int64)


def split_compact(tbl: pa.Table, parts: np.ndarray, P: int) -> list[pa.Table]:
    """Split one block by precomputed partition codes into P COMPACT
    sub-tables (stable within each partition)."""
    order = np.argsort(parts, kind="stable")
    bounds = np.searchsorted(parts[order], np.arange(P + 1))
    return [
        tbl.take(pa.array(order[bounds[p] : bounds[p + 1]]))
        for p in range(P)
    ]


@ray.remote
def _split_task(col: str, P: int, by_int: bool, *tbls: pa.Table) -> list[pa.Table]:
    real = [t for t in tbls if t.num_rows and col in t.column_names]
    if not real:
        e = tbls[0].slice(0, 0) if tbls else pa.table({})
        return [e] * P
    tbl = pa.concat_tables(real, promote_options="none") if len(real) > 1 else real[0]
    if by_int:
        ids = tbl[col].to_numpy(zero_copy_only=False).astype(np.int64)
        parts = int_partition_codes(ids, P)
    else:
        parts = key_partition_codes(tbl[col], P)
    return split_compact(tbl, parts, P)


def shard_refs(
    block_refs: list,
    col: str,
    P: int,
    by_int: bool = False,
    n_map: int | None = None,
) -> list[list]:
    """Split a list of Arrow block refs into per-partition shard refs:
    returns one group per split task, each a P-list of table refs. Feed
    partition p as ``fn(*[g[p] for g in groups])``. P must be >= 2
    (num_returns=1 would return the shard list itself)."""
    if P < 2:
        raise ValueError("shard_refs requires P >= 2")
    if not block_refs:
        return []
    if n_map is None:
        n_map = max(1, min(len(block_refs), 2 * P))
    groups = [
        list(g)
        for g in np.array_split(np.array(block_refs, dtype=object), n_map)
        if len(g)
    ]
    return [
        _split_task.options(num_returns=P).remote(col, P, by_int, *g)
        for g in groups
    ]


def ensure_min_blocks(ds, min_blocks: int | None = None):
    """Split a Dataset into enough blocks that a per-block compute kernel
    downstream can use the whole machine. At scale the input arrives as
    many files -> many blocks and this is a metadata no-op (`input_files`
    is lazy); only when the plan is rooted in fewer files than cores —
    the single-file test/bench shape — does it pay one repartition pass,
    which is cheap next to the O(bytes x num_perm) signature kernels it
    unblocks. Plans whose file lineage is opaque (unions, from_arrow)
    report 0 files and are LEFT ALONE: their blocks come from upstream
    map_batches output splitting, which already fans out (measured: a
    10k-row union arrives as 128 blocks, while Ray Data's repartition
    carries ~3 s of fixed all-to-all overhead)."""
    if min_blocks is None:
        min_blocks = max(2, int(ray.cluster_resources().get("CPU", 4)))
    try:
        n_files = len(ds.input_files())
    except Exception:
        n_files = 0
    if n_files == 0 or n_files >= min_blocks:
        return ds
    return ds.repartition(min_blocks)
