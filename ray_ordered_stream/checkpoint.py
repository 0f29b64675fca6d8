"""Per-partition checkpoint lineage (SURVEY.md §4 'Checkpoint / resume').

Layout::

    <root>/ckpt/p=<partition>/epoch-<n>/
        buffer.parquet       # buffered out-of-order rows (may be absent)
        counters.parquet     # per-key counters incl. next_seq (delta or full)
        <op>.<part>.parquet  # operator state tables (windows.keys,
                             # join.pending, cep.carry, ...); none on the
                             # ordered-only path
        extras.json          # format version, ordered scalars, and per
                             # operator its JSON parts + table list
        _FULL                # counters are complete, not a delta (may be absent)
        _COMMIT              # marker written last (atomic rename)

Every snapshot entry besides the ordered core's is an operator's
(stream_ops.OPERATOR_KINDS): a flat dict of parts. An Arrow table part goes
to Parquet; every other part (scalars such as the watermark and the
operator's config fields, per-key maps such as the order book's or a user
state's) goes to extras.json under ``operators``.
Restore reads a full epoch's payload only at the target epoch: delta epochs
contribute just their counters.

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
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# version of the epoch-directory layout above, recorded in extras.json
FORMAT = 3
# the ordered core's snapshot entries; every other entry is an operator's
_ORDERED = ("counters", "buffer", "last_status_us")


def _dir(root: str, partition: int, epoch: int) -> Path:
    return Path(root) / "ckpt" / f"p={partition:05d}" / f"epoch-{epoch:05d}"


def _write_atomic(table: pa.Table, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def write_partition_checkpoint(
    root: str, partition: int, epoch: int, snap: dict, full: bool = False
) -> str:
    """``full=True`` marks this epoch's counters as a complete snapshot (not a
    delta): restore then merges deltas only from the newest full epoch, which
    bounds resume cost on long streams (compaction)."""
    d = _dir(root, partition, epoch)
    d.mkdir(parents=True, exist_ok=True)

    if snap["buffer"] is not None and snap["buffer"].num_rows:
        _write_atomic(snap["buffer"], d / "buffer.parquet")
    else:
        # A re-run may overwrite an epoch dir that previously committed with
        # a non-empty buffer (crash recovery / changed config reusing the
        # out_root). A committed checkpoint must contain only files from the
        # current write, else resume restores phantom buffered rows.
        (d / "buffer.parquet").unlink(missing_ok=True)

    # a COUNTERS_SCHEMA table in key order (OrderedPartitionState.snapshot)
    _write_atomic(snap["counters"], d / "counters.parquet")

    extras: dict = {"format": FORMAT,
                    "last_status_us": snap.get("last_status_us"),
                    "operators": {}}
    for name, parts in operator_entries(snap).items():
        values, tables = {}, []
        for part, v in parts.items():
            if isinstance(v, pa.Table):
                _write_atomic(v, d / f"{name}.{part}.parquet")
                tables.append(part)
            else:
                values[part] = v
        extras["operators"][name] = {"json": values, "tables": tables}
    tmp = d / "extras.json.tmp"
    tmp.write_text(json.dumps(extras))
    os.replace(tmp, d / "extras.json")

    full_marker = d / "_FULL"
    if full:
        tmp = d / "_FULL.tmp"
        tmp.write_text("ok")
        os.replace(tmp, full_marker)
    else:
        full_marker.unlink(missing_ok=True)  # re-run may change the cadence

    tmp = d / "_COMMIT.tmp"
    tmp.write_text("ok")
    os.replace(tmp, d / "_COMMIT")
    return str(d)


def operator_entries(snap: dict) -> dict:
    """The operator entries of a partition snapshot, by name."""
    return {k: v for k, v in snap.items() if k not in _ORDERED}


def _read_extras(d: Path) -> dict:
    """extras.json of a committed epoch dir, checked against ``FORMAT``. An
    older layout (operator state inline in extras.json) or an unknown
    version fails here, naming the directory, instead of restoring empty or
    half-read operator state."""
    try:
        extras = json.loads((d / "extras.json").read_text())
    except (OSError, ValueError) as e:
        found = f"an unreadable extras.json ({e})"
    else:
        version = extras.get("format") if isinstance(extras, dict) else None
        if version == FORMAT:
            return extras
        found = (
            "no format version (the older layout with operator state "
            "inline in extras.json)" if version is None
            else f"format {version!r}"
        )
    raise ValueError(
        f"checkpoint at {d} has {found}; expected checkpoint format {FORMAT} "
        "(operator state and config under operators). It was written by "
        "another engine version and cannot be restored: restart with "
        "resume=False."
    )


def _read_epoch(d: Path, counters: pa.Table) -> dict:
    """Full payload of one committed epoch dir around ``counters``."""
    extras = _read_extras(d)
    buffer = None
    if (d / "buffer.parquet").exists():
        buffer = pq.read_table(d / "buffer.parquet")
    snap: dict = {"counters": counters, "buffer": buffer,
                  "last_status_us": extras["last_status_us"]}
    for name, op in extras["operators"].items():
        snap[name] = dict(op["json"])
        for part in op["tables"]:
            snap[name][part] = pq.read_table(d / f"{name}.{part}.parquet")
    return snap


def read_partition_checkpoint(root: str, partition: int, epoch: int) -> dict | None:
    d = _dir(root, partition, epoch)
    if not (d / "_COMMIT").exists():
        return None
    return _read_epoch(d, pq.read_table(d / "counters.parquet"))


def read_merged_checkpoint(root: str, partition: int, epoch: int) -> dict | None:
    """Reconstruct partition state at ``epoch`` from incremental counter
    deltas: merge counters of committed epochs in ascending order (last write
    per key wins, keys in first-seen order) starting from the newest FULL
    snapshot <= epoch (compaction bound — restore cost is O(epochs since last
    full), not O(all epochs)). Delta epochs are read for their counters
    only; buffer, operator state and extras are written in full each epoch,
    so only the target epoch's are read."""
    d = _dir(root, partition, epoch)
    if not (d / "_COMMIT").exists():
        return None
    base = 0
    for e in range(epoch, -1, -1):
        de = _dir(root, partition, e)
        if (de / "_FULL").exists() and (de / "_COMMIT").exists():
            base = e
            break
    tables = [
        pq.read_table(_dir(root, partition, e) / "counters.parquet")
        for e in range(base, epoch + 1)
        # partitions may skip epochs only if never committed
        if (_dir(root, partition, e) / "_COMMIT").exists()
    ]
    merged = pa.concat_tables(tables)
    if len(tables) > 1 and merged.num_rows:
        enc = pc.dictionary_encode(merged["key"].combine_chunks())
        codes = np.asarray(enc.indices)
        # codes number keys in first-seen order; the first hit of each code
        # in the reversed codes is that key's last write
        _u, first_rev = np.unique(codes[::-1], return_index=True)
        merged = merged.take(pa.array(len(codes) - 1 - first_rev))
    return _read_epoch(d, merged)


def committed_epoch(root: str, partition: int) -> int | None:
    """Newest committed checkpoint epoch for a partition, or None."""
    base = Path(root) / "ckpt" / f"p={partition:05d}"
    if not base.exists():
        return None
    epochs = [
        int(d.name.split("-")[1])
        for d in base.glob("epoch-*")
        if (d / "_COMMIT").exists()
    ]
    return max(epochs) if epochs else None


def write_lineage_meta(
    root: str, partitions: int, clear_mismatched: bool = False,
    overrides: dict[str, int] | None = None,
) -> None:
    """Record the partition count the checkpoint lineage was written with
    (SURVEY.md §7.4.1: P is part of the lineage). ``clear_mismatched`` is
    for the stream drivers: if an existing lineage was written with a
    DIFFERENT P it is invalid for the new run and is cleared — that path is
    only reachable with resume=False (resume raises first), so the caller
    already opted into a from-scratch rerun. ``rescale_checkpoint`` instead
    updates the meta in place after migrating the partition state.

    ``overrides`` (hot-key partition pins from skew salting) are part of the
    routing and therefore of the lineage: a resumed run MUST route with the
    recorded overrides or keys would miss their checkpointed state. For the
    same reason ``clear_mismatched`` compares the pins too — a resume=False
    rerun with a different salt setting must not leave stale checkpoints
    routed under the old pins for a later crash-resume to silently adopt."""
    ck = Path(root) / "ckpt"
    meta = read_lineage_meta(root)
    if (
        meta is not None
        and clear_mismatched
        and (
            meta.get("partitions") != partitions
            or (meta.get("overrides") or None) != (overrides or None)
        )
    ):
        shutil.rmtree(ck)
    ck.mkdir(parents=True, exist_ok=True)
    m: dict = {"partitions": partitions}
    if overrides:
        m["overrides"] = overrides
    write_lineage_meta_raw(root, m)


def write_lineage_meta_raw(root: str, meta: dict) -> None:
    ck = Path(root) / "ckpt"
    ck.mkdir(parents=True, exist_ok=True)
    tmp = ck / "meta.json.tmp"
    tmp.write_text(json.dumps(meta))
    os.replace(tmp, ck / "meta.json")


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
