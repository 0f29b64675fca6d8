"""Per-partition checkpoint lineage (SURVEY.md §4 'Checkpoint / resume').

Layout::

    <root>/ckpt/meta.json                       # lineage: partitions, pins
    <root>/ckpt/p=<partition>/epoch-<n>/state.arrow

``state.arrow`` is an Arrow IPC file holding one record batch of one row,
with one ``list<struct>`` column per snapshot table: ``counters`` (always
first: the per-key counters, a delta or full), ``buffer`` (the buffered
out-of-order rows, absent when empty) and ``<op>.<part>`` per operator
table (windows.keys, join.pending, cep.carry, ...). Each column's field
metadata keeps its table's schema metadata. The schema metadata
``checkpoint`` is a JSON object: the format version, ``full`` (the
counters are complete, not a delta), ``last_status_us``, and per operator
(stream_ops.OPERATOR_KINDS) its non-table parts: scalars such as the
watermark and the operator's config fields, and per-key maps such as the
order book's or a user state's. The file is written as ``state.arrow.tmp``
and renamed; the rename is the commit, so an epoch without ``state.arrow``
never committed.

Restore reads the target epoch in full. Delta epochs back to the newest
full one contribute only their ``counters`` column, read alone
(``IpcReadOptions.included_fields``), so their other columns are never
decompressed.

Commit order per epoch is: the checkpoint FIRST, then the sink manifests.
Each partition writes its sink parts and then this checkpoint before it
returns, and the driver commits the epoch's manifests only after all
partitions have returned (epochs._EpochDriver). A visible manifest thus
always has a checkpoint cut at its epoch behind it. After a crash the engine
resumes from the newest epoch with both a checkpoint on every partition and
a contiguous manifest prefix; any later epoch is re-produced
deterministically and overwritten idempotently.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.ipc as ipc

# version of the layout above, recorded in every state.arrow
FORMAT = 4
STATE_FILE = "state.arrow"
# lz4 over zstd: half the write time of format 3's Parquet files for ~1.6x
# their bytes; uncompressed was faster still at 5-6x the bytes (NOTES.md)
_WRITE = ipc.IpcWriteOptions(compression="lz4")
# the ordered core's snapshot entries; every other entry is an operator's
_ORDERED = ("counters", "buffer", "last_status_us")


def _dir(root: str, partition: int, epoch: int) -> Path:
    return Path(root) / "ckpt" / f"p={partition:05d}" / f"epoch-{epoch:05d}"


def write_json_atomic(path: Path, obj: dict) -> None:
    """Write ``obj`` as JSON to ``path`` through a rename, so a reader sees
    the old file or the new one, never a torn one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)


def _pack(name: str, t: pa.Table) -> tuple[pa.Field, pa.Array]:
    """``t`` as a one-row ``list<struct>`` column named ``name``."""
    rows = pa.StructArray.from_arrays(
        [c.combine_chunks() for c in t.columns], fields=list(t.schema)
    )
    col = pa.ListArray.from_arrays(pa.array([0, len(rows)], pa.int32()), rows)
    return pa.field(name, col.type, metadata=t.schema.metadata), col


def _unpack(batch: pa.RecordBatch, i: int) -> pa.Table:
    """Inverse of ``_pack`` for column ``i`` of ``batch``."""
    t = pa.Table.from_struct_array(batch.column(i).flatten())
    return t.replace_schema_metadata(batch.schema.field(i).metadata)


def write_partition_checkpoint(
    root: str, partition: int, epoch: int, snap: dict, full: bool = False
) -> str:
    """Write ``snap`` as this partition-epoch's ``state.arrow`` and return
    the epoch directory. ``full=True`` marks the counters as a complete
    snapshot (not a delta): restore then merges deltas only from the newest
    full epoch, which bounds resume cost on long streams (compaction)."""
    return write_checkpoint_batch(root, partition, epoch, encode_checkpoint(snap, full))


def encode_checkpoint(snap: dict, full: bool = False) -> pa.RecordBatch:
    """``snap`` as the one-row record batch ``state.arrow`` holds. The
    non-table parts are JSON from here on, so a caller that writes the
    batch later only needs ``snap``'s tables to stay unchanged."""
    # a COUNTERS_SCHEMA table in key order (OrderedPartitionState.snapshot)
    tables = {"counters": snap["counters"]}
    if snap["buffer"] is not None and snap["buffer"].num_rows:
        tables["buffer"] = snap["buffer"]
    meta: dict = {"format": FORMAT, "full": full,
                  "last_status_us": snap.get("last_status_us"),
                  "operators": {}}
    for name, parts in operator_entries(snap).items():
        values = meta["operators"][name] = {}
        for part, v in parts.items():
            if isinstance(v, pa.Table):
                tables[f"{name}.{part}"] = v
            else:
                values[part] = v
    fields, cols = zip(*(_pack(n, t) for n, t in tables.items()))
    schema = pa.schema(fields, metadata={"checkpoint": json.dumps(meta)})
    return pa.record_batch(list(cols), schema=schema)


def write_checkpoint_batch(root: str, partition: int, epoch: int,
                           batch: pa.RecordBatch) -> str:
    """Commit an ``encode_checkpoint`` batch as the partition-epoch's
    ``state.arrow`` (temp file + rename); returns the epoch directory."""
    d = _dir(root, partition, epoch)
    d.mkdir(parents=True, exist_ok=True)
    tmp = d / (STATE_FILE + ".tmp")
    with ipc.new_file(tmp, batch.schema, options=_WRITE) as w:
        w.write_batch(batch)
    os.replace(tmp, d / STATE_FILE)
    return str(d)


def operator_entries(snap: dict) -> dict:
    """The operator entries of a partition snapshot, by name."""
    return {k: v for k, v in snap.items() if k not in _ORDERED}


def _wrong_format(d: Path, found: str) -> ValueError:
    return ValueError(
        f"checkpoint at {d} has {found}; expected checkpoint format {FORMAT} "
        f"(one {STATE_FILE} per partition-epoch). It was written by another "
        "engine version and cannot be restored: restart with resume=False."
    )


def _committed(d: Path) -> bool:
    """Whether epoch dir ``d`` holds a committed checkpoint. A format-3
    dir (a ``_COMMIT`` marker, no ``state.arrow``) raises instead of
    reading as uncommitted, which would restart the stream from scratch."""
    if (d / STATE_FILE).exists():
        return True
    if (d / "_COMMIT").exists():
        raise _wrong_format(d, "format 3 (_COMMIT and per-table Parquet files)")
    return False


def _open(d: Path, counters_only: bool = False) -> tuple[dict, pa.RecordBatch]:
    """The metadata and the batch of ``d``'s state.arrow, checked against
    ``FORMAT``; with ``counters_only`` the batch holds just ``counters``."""
    opts = ipc.IpcReadOptions(included_fields=[0]) if counters_only else None
    with ipc.open_file(d / STATE_FILE, options=opts) as r:
        raw = (r.schema.metadata or {}).get(b"checkpoint")
        meta = json.loads(raw) if raw else None
        version = meta.get("format") if isinstance(meta, dict) else None
        if version != FORMAT:
            raise _wrong_format(
                d, "no format version" if version is None else f"format {version!r}"
            )
        return meta, r.get_batch(0)


def read_merged_checkpoint(root: str, partition: int, epoch: int) -> dict | None:
    """Reconstruct partition state at ``epoch`` from incremental counter
    deltas: merge counters of committed epochs in ascending order (last write
    per key wins, keys in first-seen order) starting from the newest FULL
    snapshot <= epoch (compaction bound — restore cost is O(epochs since last
    full), not O(all epochs)). Delta epochs are read for their counters
    only; buffer and operator state are written in full each epoch, so only
    the target epoch's are read. None if ``epoch`` never committed."""
    d = _dir(root, partition, epoch)
    if not _committed(d):
        return None
    meta, batch = _open(d)
    tables, full = [_unpack(batch, 0)], meta["full"]
    # partitions may skip epochs only if never committed
    for e in range(epoch - 1, -1, -1):
        if full:
            break
        if _committed(de := _dir(root, partition, e)):
            m, b = _open(de, counters_only=True)
            tables.append(_unpack(b, 0))
            full = m["full"]
    merged = pa.concat_tables(tables[::-1])
    if len(tables) > 1 and merged.num_rows:
        enc = pc.dictionary_encode(merged["key"].combine_chunks())
        codes = np.asarray(enc.indices)
        # codes number keys in first-seen order; the first hit of each code
        # in the reversed codes is that key's last write
        _u, first_rev = np.unique(codes[::-1], return_index=True)
        merged = merged.take(pa.array(len(codes) - 1 - first_rev))

    snap: dict = {"counters": merged, "buffer": None,
                  "last_status_us": meta["last_status_us"], **meta["operators"]}
    for i, col in enumerate(batch.schema.names[1:], 1):
        if col == "buffer":
            snap["buffer"] = _unpack(batch, i)
        else:
            name, part = col.split(".", 1)
            snap[name][part] = _unpack(batch, i)
    return snap


def committed_epoch(root: str, partition: int) -> int | None:
    """Newest committed checkpoint epoch for a partition, or None."""
    base = Path(root) / "ckpt" / f"p={partition:05d}"
    epochs = sorted((int(d.name.split("-")[1]) for d in base.glob("epoch-*")), reverse=True)
    return next((e for e in epochs if _committed(_dir(root, partition, e))), None)


def write_lineage_meta(
    root: str, partitions: int, overrides: dict[str, int] | None = None,
) -> None:
    """Record the partition count the checkpoint lineage was written with
    (SURVEY.md §7.4.1: P is part of the lineage). The stream drivers call
    it only over a fresh lineage (resume=False deletes the old one first)
    or one ``resume_epoch`` accepted, so it never overwrites the meta of
    another P; ``rescale_checkpoint`` instead updates the meta in place
    after migrating the partition state.

    ``overrides`` (hot-key partition pins from skew salting) are part of the
    routing and therefore of the lineage: a resumed run MUST route with the
    recorded overrides or keys would miss their checkpointed state."""
    m: dict = {"partitions": partitions}
    if overrides:
        m["overrides"] = overrides
    write_json_atomic(Path(root) / "ckpt" / "meta.json", m)


def read_lineage_meta(root: str) -> dict | None:
    """The lineage meta dict ({"partitions": P, optional "migrating_to": Q})
    or None for a pre-meta / fresh lineage."""
    f = Path(root) / "ckpt" / "meta.json"
    if not f.exists():
        return None
    return json.loads(f.read_text())


def resume_epoch(root: str, partitions: int) -> int | None:
    """Newest epoch committed by ALL partitions (the consistent cut).

    Raises if the lineage records a different partition count: resuming
    with fewer partitions would silently drop the extra partitions' keyed
    state (counters, buffers, open windows/sessions); resuming with more
    would re-run with partial state. Rescaling is an explicit operation
    (``rescale.rescale_checkpoint``). Also raises while a rescale is
    in flight (``migrating_to`` marker): the lineage is mixed-routing until
    the rescale completes, and re-running the rescale is the only safe move.
    """
    meta = read_lineage_meta(root)
    if meta is not None and meta.get("migrating_to") is not None:
        raise ValueError(
            f"checkpoint lineage at {root} has an interrupted rescale "
            f"({meta['partitions']} -> {meta['migrating_to']} partitions); "
            "re-run rescale.rescale_checkpoint(...) to complete it (the "
            "migration is idempotent), or pass resume=False to restart."
        )
    recorded = None if meta is None else meta.get("partitions")
    if recorded is not None and recorded != partitions:
        raise ValueError(
            f"checkpoint lineage at {root} was written with {recorded} "
            f"partitions but this run uses {partitions}; resuming would "
            "silently lose keyed state. Migrate with "
            "rescale.rescale_checkpoint(...), rerun with the recorded "
            "partition count, or pass resume=False to restart from scratch."
        )
    per = [committed_epoch(root, p) for p in range(partitions)]
    if any(e is None for e in per):
        return None
    return min(per)
