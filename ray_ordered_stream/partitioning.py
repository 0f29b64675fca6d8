"""Deterministic hash partitioning + skew handling for the ordered engine.

≙ the keyed shuffle in front of the reference's stateful ParDo
(docs/pipeline-design.md:13-17: events hash-partitioned by SessionContractKey
across workers). Routing must be deterministic across processes and across
resume (SURVEY.md §7.4.1), so we hash with crc32 over the key bytes — never
Python's ``hash`` (randomized per process).

Skew: hash already spreads *distinct* hot keys uniformly; the residual risk is
several hot keys colliding into one partition (reference stresses this with
power-law key activity, Simulator.java:61-70). ``compute_hot_key_overrides``
samples key frequencies and pins the heaviest keys round-robin across
partitions, overriding their hash route — the "skew-salted" assignment of the
north star. A single hot key remains inherently serial (same as the
reference: per-key order forces serial processing per key).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# 64-bit FNV-1a constants — the vectorized string hash below must be
# deterministic across processes and across resume (never Python's ``hash``,
# randomized per process), and must avoid per-key Python (zlib.crc32 over
# .to_pylist() uniques measured 0.5 s per 470k-key block — the exchange's
# hottest stage at 32 cores).
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def hash_string_array(arr: pa.Array) -> np.ndarray:
    """Deterministic vectorized FNV-1a over a string/large_string array's raw
    buffers: one pass of byte-column mixing per character position of the
    LONGEST key (keys are short identifiers, so max_len passes over fully
    vectorized uint64 ops beat per-row hashing by ~50x). Nulls and empty
    strings hash to the offset basis."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    arr = arr.cast(pa.large_string()) if arr.type == pa.string() else arr
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=np.int64)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.empty(0, np.uint8)
    starts = offsets[:-1]
    lengths = offsets[1:] - starts
    n = len(arr)
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    max_len = int(lengths.max()) if n else 0
    with np.errstate(over="ignore"):
        for j in range(max_len):
            live = lengths > j
            idx = starts[live] + j
            hj = h[live]
            hj ^= data[idx].astype(np.uint64)
            hj *= _FNV_PRIME
            h[live] = hj
    return h


def key_partition_codes(
    keys: pa.ChunkedArray | pa.Array,
    num_partitions: int,
    overrides: dict[str, int] | None = None,
) -> np.ndarray:
    """Vectorized partition assignment: fnv1a64(key) % P with optional
    per-key overrides. No per-row (or per-unique) Python anywhere."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    h = hash_string_array(keys)
    parts = (h % np.uint64(num_partitions)).astype(np.int64)
    if keys.null_count:
        nulls = np.asarray(pc.is_null(keys))
        parts[nulls] = 0  # null keys -> partition 0 (quarantined at worker)
    if overrides:
        ov_keys = pa.array(list(overrides.keys()), type=pa.string())
        hit = np.asarray(pc.is_in(keys, value_set=ov_keys))
        if hit.any():
            ov_parts = np.array(
                [v % num_partitions for v in overrides.values()], dtype=np.int64
            )
            pos = np.asarray(
                pc.index_in(keys, value_set=ov_keys).fill_null(0)
            ).astype(np.int64)
            parts[hit] = ov_parts[pos[hit]]
    return parts


def split_table(
    tbl: pa.Table,
    key: str,
    num_partitions: int,
    overrides: dict[str, int] | None = None,
    range_bounds: list[str] | None = None,
    only: list[int] | None = None,
) -> list[pa.Table]:
    """Split one block into P per-partition sub-tables (map side of the
    exchange). Row order within each sub-table preserves the block's arrival
    order.

    Each sub-table MUST be a compact copy, not a zero-copy slice. The
    ordered engine's exchange tasks ship every sub-table as one
    ``pa.RecordBatch``, which pickles natively, and a sliced batch ships its
    entire parent buffers (ARROW-10739; string data buffers are not
    truncated), which turns the exchange into O(P * block) bytes — measured
    6 MB per 1000-row slice vs 81 KiB compact. One stable argsort + P
    contiguous-range takes keeps the copy at O(n) total.

    ``only`` restricts the output (and the take copies) to the listed
    partition ids, in that order — the locality_split path, where each node
    materializes just the shards its own state actors consume."""
    if range_bounds is not None:
        parts = range_partition_codes(tbl[key], range_bounds)
    else:
        parts = key_partition_codes(tbl[key], num_partitions, overrides)
    order = np.argsort(parts, kind="stable")
    bounds = np.searchsorted(parts[order], np.arange(num_partitions + 1))
    wanted = range(num_partitions) if only is None else only
    return [
        tbl.take(pa.array(order[bounds[p] : bounds[p + 1]]))
        for p in wanted
    ]


def compute_range_bounds(
    sample: pa.Table, key: str, num_partitions: int
) -> list[str]:
    """P-1 quantile cut points of the key from a sample — range partitioning
    keeps each partition a contiguous key range (co-locates lexicographic
    neighbours; the north-star 'range-partitioned' mode). Deterministic given
    the sample."""
    ks = sorted(set(sample[key].to_pylist()))
    if len(ks) <= num_partitions:
        return ks[1:]
    idx = [int(i * len(ks) / num_partitions) for i in range(1, num_partitions)]
    return [ks[i] for i in idx]


def range_partition_codes(
    keys: pa.ChunkedArray | pa.Array, bounds: list[str]
) -> np.ndarray:
    """Vectorized-by-unique range assignment: partition = number of bounds
    <= key (np.searchsorted over the unique values)."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    enc = pc.dictionary_encode(keys)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = np.asarray(enc.indices.fill_null(-1)).astype(np.int64)
    uniques = np.array(enc.dictionary.to_pylist(), dtype=object)
    part_of_unique = np.append(
        np.searchsorted(np.array(bounds, dtype=object), uniques, side="right"),
        0,  # null keys -> partition 0
    ).astype(np.int64)
    return part_of_unique[codes]


def composite_key(ds, cols: list[str], out: str, sep: str = "\x1f"):
    """Concatenate columns into one ordering-key column (≙ the reference's
    composite SessionContractKey = sessionId + contractId,
    SessionContractKey.java:32-40). Vectorized Arrow kernel; the unit
    separator keeps ('a','bc') distinct from ('ab','c')."""
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        parts = [pc.cast(t[c], pa.string()) for c in cols]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, sep)
        return t.append_column(out, joined)

    return ds.map_batches(f, batch_format="pyarrow")


def compute_hot_key_overrides(
    sample: pa.Table, key: str, num_partitions: int, top_n: int = 0
) -> dict[str, int]:
    """Pin the heaviest keys (from a sample) round-robin across partitions,
    heaviest first, so no partition accumulates several hot keys.
    ``top_n`` defaults to 2 × partitions."""
    if top_n <= 0:
        top_n = 2 * num_partitions
    # null keys are quarantined to the DLQ, never routed by pin — and a
    # None pin would silently round-trip to the string "null" through the
    # JSON lineage meta, hijacking a real "null" key after resume
    vc = pc.value_counts(pc.drop_null(sample[key]))
    values = vc.field("values").to_pylist()
    counts = np.asarray(vc.field("counts").to_pylist())
    order = np.argsort(-counts, kind="stable")[:top_n]
    return {values[i]: int(r % num_partitions) for r, i in enumerate(order)}
