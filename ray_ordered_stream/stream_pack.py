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
index) are deterministic, the carry + pack_seq checkpoint per epoch with
staged atomic writes, commit order sink-manifest -> epoch marker, so a
crashed epoch re-runs against the pre-epoch carry and overwrites its parts
byte-identically.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .sink import ManifestSink, write_part_atomic
from .source import run_landing_batches


@ray.remote(num_cpus=0)
class PackPartition:
    """Carry buffer + pack counter for one shard of the packed stream."""

    def __init__(self, partition: int, budget: int):
        self.partition = partition
        self.budget = budget
        self.carry = np.empty(0, dtype=np.int64)
        self.pack_seq = 0

    def restore(self, ckpt_file: str) -> int:
        t = pq.read_table(ckpt_file)
        self.carry = t["carry"].to_numpy(zero_copy_only=False).astype(np.int64)
        self.pack_seq = int(t.schema.metadata[b"pack_seq"].decode())
        return len(self.carry)

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
        ck = pa.table({"carry": pa.array(carry, pa.int64())}).replace_schema_metadata(
            {"pack_seq": str(self.pack_seq + n_full)}
        )
        write_part_atomic(ck, ckpt_path)
        # mutate only after both files are durable (re-run safe)
        self.carry = carry
        self.pack_seq += n_full
        return {"packs": n_full, "carry": int(len(carry))}


@ray.remote
def _read_tokenize_split(
    files: list[str], id_col: str, text_col: str, P: int,
    vocab_size: int, arrival_base: int, columns: list[str] | None,
) -> list[pa.Table]:
    """Fused read + tokenize + route for one epoch: only (doc_id, arrival,
    token_ids) rows cross the exchange, routed by the doc-id hash."""
    from .exchange import split_compact
    from .functions.chunk import _tokenize_flat
    from .functions.pack import _token_ids

    tbls = []
    off = arrival_base
    for f in files:
        t = pq.read_table(f, columns=columns)
        t = t.append_column(
            "arrival", pa.array(off + np.arange(t.num_rows), pa.int64())
        )
        off += t.num_rows
        tbls.append(t)
    tbl = pa.concat_tables(tbls, promote_options="none") if len(tbls) > 1 else tbls[0]
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
    return split_compact(proj, code, P)


def run_pack_stream(
    files: list[str],
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
    """Drive the feed through the pack partitions epoch by epoch; returns
    (sink, epochs_run, epochs_skipped, total_packs)."""
    root = Path(out_root)
    ck = root / "ckpt"
    ck.mkdir(parents=True, exist_ok=True)
    sink = ManifestSink(out_root, "packed")
    if columns is None:
        columns = [id_col, text_col]

    meta_path = ck / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if meta["partitions"] != num_partitions:
            if resume:
                raise ValueError(
                    f"checkpoint has {meta['partitions']} partitions, "
                    f"got {num_partitions}"
                )
        if resume and meta.get("budget", budget) != budget:
            # A committed epoch's packs were cut at the old budget; a
            # different budget would break byte-identical re-runs.
            raise ValueError(
                f"checkpoint was written with budget={meta['budget']}, "
                f"got budget={budget}; resume requires the same pack budget"
            )
    if not resume:
        import shutil

        for f in ck.glob("epoch-*.json"):
            f.unlink()
        for d in ck.glob("carry-*"):
            shutil.rmtree(d, ignore_errors=True)
        sink.reset()
    meta_path.write_text(json.dumps({"partitions": num_partitions,
                                     "budget": budget}))

    P = num_partitions
    workers = [PackPartition.remote(p, budget) for p in range(P)]

    def carry_dir(epoch: int) -> Path:
        return ck / f"carry-{epoch:05d}"

    def marker(epoch: int) -> Path:
        return ck / f"epoch-{epoch:05d}.json"

    groups = [
        files[i : i + files_per_epoch]
        for i in range(0, len(files), files_per_epoch)
    ]
    bases, acc = [], 0
    for g in groups:
        bases.append(acc)
        acc += sum(pq.read_metadata(f).num_rows for f in g)

    done = {
        int(f.stem.split("-")[1]) for f in ck.glob("epoch-*.json")
    } if resume else set()
    if done:
        last = max(done)
        ray.get(
            [
                w.restore.remote(
                    str(carry_dir(last) / f"part-{p:05d}.parquet")
                )
                for p, w in enumerate(workers)
            ]
        )

    epochs_run = epochs_skipped = packs_total = 0
    for e, g in enumerate(groups):
        if e in done:
            epochs_skipped += 1
            continue
        f_bases, fb = [], bases[e]
        for f in g:
            f_bases.append(fb)
            fb += pq.read_metadata(f).num_rows
        shard_groups = [
            _read_tokenize_split.options(num_returns=P).remote(
                [f], id_col, text_col, P, vocab_size, f_bases[i], columns
            )
            for i, f in enumerate(g)
        ]
        cd = carry_dir(e)
        cd.mkdir(parents=True, exist_ok=True)
        stats = ray.get(
            [
                workers[p].process_epoch.remote(
                    e,
                    sink.part_path(e, p),
                    str(cd / f"part-{p:05d}.parquet"),
                    *[sg[p] for sg in shard_groups],
                )
                for p in range(P)
            ]
        )
        sink.commit_epoch(e, {p: s["packs"] for p, s in enumerate(stats)})
        marker(e).write_text(
            json.dumps(
                {
                    "epoch": e,
                    "packs": sum(s["packs"] for s in stats),
                    "carry": sum(s["carry"] for s in stats),
                    "committed_at": time.time(),
                }
            )
        )
        packs_total += sum(s["packs"] for s in stats)
        epochs_run += 1
        if fail_after_epoch is not None and e >= fail_after_epoch:
            raise RuntimeError(f"injected failure after epoch {e}")
    return sink, epochs_run, epochs_skipped, packs_total


def run_pack_stream_continuous(
    landing_dir: str,
    out_root: str,
    poll_interval_s: float = 1.0,
    idle_timeout_s: float = 60.0,
    stop_file: str = "_STOP",
    **kwargs,
):
    """Continuous (unbounded) packing: poll an arrival-ordered landing
    directory and feed each batch of newly complete epochs through
    ``run_pack_stream`` with ``resume=True`` — the carry checkpoint makes
    every poll pick up exactly where the last one stopped (same protocol
    as the dedup streams' continuous mode; a ``_STOP`` sentinel flushes
    the trailing partial epoch and exits)."""
    return run_landing_batches(
        landing_dir, out_root, run_pack_stream, poll_interval_s,
        idle_timeout_s, stop_file, **kwargs,
    )


def rescale_pack_checkpoint(out_root: str, new_partitions: int) -> None:
    """Grow a pack-stream checkpoint to more partitions (parity with the
    dedup/ordered rescale helpers). Per-shard packing has no cross-shard
    invariant: existing shards keep their carry + pack_seq, new shards
    start empty, and future documents route under the new partition
    count. SHRINKING is refused — it would strand in-progress carries
    (their partial packs have no legal owner under the new routing).

    Crash-safe by write order: the new shards' empty carry files land in
    the latest committed carry dir FIRST, meta.json flips LAST (a crash
    in between leaves the old meta and harmless extra files)."""
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
    done = sorted(int(f.stem.split("-")[1]) for f in ck.glob("epoch-*.json"))
    if done:
        last_dir = ck / f"carry-{done[-1]:05d}"
        empty = pa.table(
            {"carry": pa.array([], pa.int64())}
        ).replace_schema_metadata({"pack_seq": "0"})
        for p in range(old_P, new_partitions):
            write_part_atomic(empty, str(last_dir / f"part-{p:05d}.parquet"))
    meta["partitions"] = new_partitions
    tmp = meta_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(meta))
    import os

    os.replace(tmp, meta_path)
