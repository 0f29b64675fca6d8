"""Streaming sequence packing of an unbounded document feed.

The continuous-training-loader counterpart of
``functions/pack.materialize_packs``: documents arrive epoch by epoch
(micro-batch landing-dir convention of epochs.py / stream_dedup.py), each
state partition appends its routed documents' token ids to a CARRY buffer
(< budget tokens — the only state), emits every completed fixed-``budget``
pack to an exactly-once ManifestSink, and keeps the remainder for the next
epoch. Pack identity is (partition, pack_seq): per-shard packing, the
layout real loaders consume (a global sequential pack id on an unbounded
stream would serialize the world).

Exactly-once: routing (doc-id hash) and within-partition order (arrival
index) are deterministic, and the epoch loop and checkpoint layout are the
dedup streams' (stream_dedup._run_marker_stream): each epoch's delta is
the partition's whole carry + pack_seq after it, committed after the sink
manifest, so a crashed epoch re-runs against the pre-epoch carry and
overwrites its parts byte-identically. Every ``COMPACT_EVERY`` epochs the
carry is also written as the full snapshot and the older deltas go.
Continuous mode is one such session over ``source.LandingSource``: the
partitions keep their carry in memory from one landing to the next.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .checkpoint import write_json_atomic
from .sink import write_part_atomic
from .source import LandingSource
from .stream_dedup import (
    COMPACT_EVERY,
    _committed_epochs,
    _part,
    _process_step,
    _read_with_arrival,
    _restore_plan,
    _returns,
    _run_continuous,
    _run_marker_stream,
)


def _carry_table(carry: np.ndarray, pack_seq: int) -> pa.Table:
    """A partition's checkpoint: its carry, with the next pack_seq in the
    schema metadata."""
    return pa.table({"carry": pa.array(carry, pa.int64())}).replace_schema_metadata(
        {"pack_seq": str(pack_seq)}
    )


@ray.remote(num_cpus=0)
class PackPartition:
    """Carry buffer + pack counter for one shard of the packed stream."""

    def __init__(self, partition: int, budget: int):
        self.partition = partition
        self.budget = budget
        self.carry = np.empty(0, dtype=np.int64)
        self.pack_seq = 0

    def restore(self, files: list[str]) -> int:
        """Every checkpoint file holds the whole carry, so the newest (the
        last of the restore plan) is the state."""
        t = pq.read_table(files[-1])
        self.carry = t["carry"].to_numpy(zero_copy_only=False).astype(np.int64)
        self.pack_seq = int(t.schema.metadata[b"pack_seq"].decode())
        return len(self.carry)

    def write_full(self, path: str) -> dict:
        write_part_atomic(_carry_table(self.carry, self.pack_seq), path)
        return {"carry": len(self.carry)}

    def process_epoch(
        self, epoch: int, part_path: str, ckpt_path: str, *shards: pa.Table
    ) -> dict:
        real = [t for t in shards if t.num_rows]
        if real:
            tbl = (
                pa.concat_tables(real, promote_options="none")
                if len(real) > 1
                else real[0]
            )
            arr = tbl["arrival"].to_numpy(zero_copy_only=False)
            tbl = tbl.take(pa.array(np.argsort(arr, kind="stable")))
            tk = tbl["token_ids"]
            if isinstance(tk, pa.ChunkedArray):
                tk = tk.combine_chunks()
            new = np.asarray(tk.values).astype(np.int64)
        else:
            new = np.empty(0, dtype=np.int64)
        buf = np.concatenate([self.carry, new])
        B = self.budget
        n_full = len(buf) // B
        full = buf[: n_full * B]
        offsets = np.arange(n_full + 1, dtype=np.int64) * B
        out = pa.table(
            {
                "partition": pa.array(
                    np.full(n_full, self.partition, np.int64)
                ),
                "pack_seq": pa.array(
                    self.pack_seq + np.arange(n_full, dtype=np.int64)
                ),
                "n_tokens": pa.array(np.full(n_full, B, np.int64)),
                "token_ids": pa.LargeListArray.from_arrays(
                    pa.array(offsets, pa.int64()), pa.array(full, pa.int64())
                ),
            }
        )
        write_part_atomic(out, part_path)
        carry = buf[n_full * B :]
        write_part_atomic(_carry_table(carry, self.pack_seq + n_full), ckpt_path)
        # mutate only after both files are durable (re-run safe)
        self.carry = carry
        self.pack_seq += n_full
        return {"packs": n_full, "carry": int(len(carry))}


@ray.remote
def _read_tokenize_split(
    path: str, id_col: str, text_col: str, P: int,
    vocab_size: int, arrival_base: int, columns: list[str] | None,
) -> list[pa.Table]:
    """Fused read + tokenize + route of one file: only (arrival, token_ids)
    rows cross the exchange, routed by the doc-id hash."""
    from .exchange import split_compact
    from .functions.chunk import _tokenize_flat
    from .functions.pack import _token_ids

    tbl = _read_with_arrival(path, columns, arrival_base)
    flat, offsets = _tokenize_flat(tbl[text_col])
    tk = _token_ids(flat, vocab_size) if len(flat) else np.empty(0, np.int64)
    ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
    proj = pa.table(
        {
            "arrival": tbl["arrival"],
            "token_ids": pa.LargeListArray.from_arrays(
                pa.array(offsets.astype(np.int64), pa.int64()),
                pa.array(tk, pa.int64()),
            ),
        }
    )
    with np.errstate(over="ignore"):
        code = ((ids * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(P)).astype(np.int64)
    return _returns(split_compact(proj, code, P))


def run_pack_stream(
    files: list[str] | LandingSource,
    out_root: str,
    budget: int = 512,
    vocab_size: int = 65536,
    id_col: str = "doc_id",
    text_col: str = "text",
    columns: list[str] | None = None,
    num_partitions: int = 4,
    files_per_epoch: int = 2,
    resume: bool = False,
    fail_after_epoch: int | None = None,
):
    """Drive the feed (``files``, or a ``LandingSource`` whose groups run
    as they land) through the pack partitions epoch by epoch; returns
    (sink, epochs_run, epochs_skipped, total_packs). A resume must use the
    same ``budget``: committed epochs' packs were cut at it."""
    P = num_partitions
    if columns is None:
        columns = [id_col, text_col]
    sink, run, skipped, totals = _run_marker_stream(
        files, out_root, "packed", {"budget": budget},
        make_actors=lambda: [PackPartition.remote(p, budget) for p in range(P)],
        read=lambda f, base: _read_tokenize_split.options(num_returns=P).remote(
            f, id_col, text_col, P, vocab_size, base, columns
        ),
        step=_process_step,
        num_partitions=P, files_per_epoch=files_per_epoch, resume=resume,
        fail_after_epoch=fail_after_epoch, compact_every=COMPACT_EVERY,
    )
    return sink, run, skipped, totals["packs"]


def run_pack_stream_continuous(
    landing_dir: str,
    out_root: str,
    poll_interval_s: float = 1.0,
    idle_timeout_s: float = 60.0,
    stop_file: str = "_STOP",
    **kwargs,
):
    """Continuous (unbounded) packing: one ``run_pack_stream`` session over
    the ``source.LandingSource`` of ``landing_dir``, as the dedup streams'
    continuous mode: the partitions keep their carry in memory across
    landings, and ``_STOP`` (or ``idle_timeout_s`` without a new file) runs
    the trailing partial group and ends the run."""
    return _run_continuous(run_pack_stream, landing_dir, out_root,
                           poll_interval_s, idle_timeout_s, stop_file, kwargs)


def rescale_pack_checkpoint(out_root: str, new_partitions: int) -> None:
    """Grow a pack-stream checkpoint to more partitions (parity with the
    dedup/ordered rescale helpers). Per-shard packing has no cross-shard
    invariant: existing shards keep their carry + pack_seq, new shards
    start empty, and future documents route under the new partition
    count. SHRINKING is refused — it would strand in-progress carries
    (their partial packs have no legal owner under the new routing).

    Crash-safe by write order: the new shards' empty carry files land in
    the restore plan's newest directory FIRST, meta.json flips LAST (a
    crash in between leaves the old meta and harmless extra files)."""
    ck = Path(out_root) / "ckpt"
    meta_path = ck / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no checkpoint under {out_root}")
    meta = json.loads(meta_path.read_text())
    old_P = meta["partitions"]
    if new_partitions < old_P:
        raise ValueError(
            f"pack-stream rescale cannot shrink ({old_P} -> {new_partitions}): "
            "in-progress carries would be stranded"
        )
    if new_partitions == old_P:
        return
    plan = _restore_plan(ck, _committed_epochs(ck))
    if plan:
        empty = _carry_table(np.empty(0, np.int64), 0)
        for p in range(old_P, new_partitions):
            write_part_atomic(empty, _part(plan[-1], p))
    meta["partitions"] = new_partitions
    write_json_atomic(meta_path, meta)
