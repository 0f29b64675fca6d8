"""Checkpoint rescaling: migrate the sharded state store from P_old to
P_new partitions at a consistent cut.

Real streaming engines must rescale keyed state without replaying the
stream (Flink's savepoint rescaling is the canonical example); without this
a changed partition count invalidates the checkpoint lineage by design
(the lineage records its partition count in ``ckpt/meta.json``;
``resume_epoch`` raises on a mismatch rather than silently resuming from a
partial cut, and ``resume=False`` restarts from scratch).

``rescale_checkpoint`` reads every old partition's merged state at the cut
epoch, re-routes every keyed piece with the SAME deterministic hash the
exchange uses (partitioning.key_partition_codes — mandatory, or routed keys
would not meet their state), and writes one FULL checkpoint per new
partition at the same epoch:

- the ordered counters and the out-of-order buffer (tables, split by their
  key columns);
- every part of every operator entry, by its shape: a table is split by
  its key column (an intern table, ``keys``, is then sorted by key, so
  codes are rebuilt in key order), a per-key map (order book, user state)
  re-routes each key's entry, a ``watermark`` merges with MIN over the
  contributing partitions — a key inheriting a FARTHER frontier than its
  old partition's would release its windows/sessions early and split them
  vs an uninterrupted run; min only delays release, which is
  content-invariant under bounded lateness — and any other scalar (the
  operator's config fields among them) is copied.

Epochs AFTER the cut and partitions >= P_new are deleted so the new
lineage is unambiguous; a subsequent ``run_stream(..., num_partitions=
P_new)`` resumes from the cut and produces output content-equal to an
uninterrupted run (part-file layout differs — content, counts and per-key
results do not). Post-rescale emission order within a partition file may
differ from the pre-rescale run's (different key co-location), which is why
the rescaled checkpoint is a new deterministic BASE, not a byte-identical
continuation.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa

from .checkpoint import (
    operator_entries,
    read_lineage_meta,
    read_merged_checkpoint,
    write_json_atomic,
    write_partition_checkpoint,
)
from .partitioning import key_partition_codes, split_table


def _route(
    keys: list[str], new_P: int, overrides: dict[str, int] | None = None
) -> np.ndarray:
    if not keys:
        return np.zeros(0, dtype=np.int64)
    return key_partition_codes(pa.array(keys, pa.string()), new_P, overrides)


def _derive_old_P(root: str) -> int | None:
    """The lineage's actual partition count: the recorded meta if present,
    else the number of ``p=*`` directories (pre-meta lineages)."""
    meta = read_lineage_meta(root)
    if meta is not None and meta.get("partitions") is not None:
        return meta["partitions"]
    dirs = sorted((Path(root) / "ckpt").glob("p=*"))
    return len(dirs) or None


def rescale_checkpoint(
    root: str, epoch: int, old_P: int, new_P: int, key: str = "conv_id"
) -> None:
    """Rewrite the checkpoint lineage at ``epoch`` from ``old_P`` to
    ``new_P`` partitions. ``key`` is the ordering-key column of the buffered
    rows. Raises if any old partition lacks a committed checkpoint at the
    cut (no consistent state to migrate), or if ``old_P`` does not match the
    lineage's actual partition count (an understated old_P would leave
    un-migrated partitions behind as silent mixed-lineage corruption)."""
    actual = _derive_old_P(root)
    if actual is not None and actual != old_P:
        raise ValueError(
            f"old_P={old_P} but the checkpoint lineage at {root} was written "
            f"with {actual} partitions; rescaling a subset would corrupt the "
            "lineage"
        )
    meta = read_lineage_meta(root)
    resuming_migration = (
        meta is not None and meta.get("migrating_to") is not None
    )
    if resuming_migration and meta["migrating_to"] != new_P:
        raise ValueError(
            f"an interrupted rescale targets {meta['migrating_to']} "
            f"partitions; finish it (same new_P) before rescaling to {new_P}"
        )
    # hot-key pins (skew salting) are routing and routing is lineage: remap
    # the recorded pins round-robin over new_P (order preserved = heaviest
    # first), route the migrated state with the NEW pins, and record them in
    # the new meta so the resumed run routes identically. Deterministic, so
    # re-running after a crash rebuilds the same stage.
    old_overrides = (meta or {}).get("overrides") or None
    new_overrides = (
        {k: i % new_P for i, k in enumerate(old_overrides)}
        if old_overrides
        else None
    )

    # Two-phase crash-safe protocol. Phase boundaries on disk:
    #   meta "migrating_to"  — set before anything is modified; resume_epoch
    #                          raises while present
    #   _rescale/stage.json  — written after ALL migrated checkpoints are
    #                          staged (old lineage still untouched)
    #   swap                 — replace cut-epoch dirs from the stage, drop
    #                          stale lineage; every step derivable from the
    #                          stage alone, so re-running the swap after a
    #                          crash is idempotent
    # A crash before stage.json re-runs the (pure) rebuild; a crash after it
    # re-runs only the swap; old state is never modified before the stage is
    # complete, so no key is ever without a durable home.
    ck = Path(root) / "ckpt"
    stage_root = ck / "_rescale"
    stage_marker = stage_root / "stage.json"
    stage_ready = False
    if resuming_migration and stage_marker.exists():
        sm = json.loads(stage_marker.read_text())
        stage_ready = sm.get("epoch") == epoch and sm.get("new_P") == new_P

    if not stage_ready:
        snaps = []
        for p in range(old_P):
            s = read_merged_checkpoint(root, p, epoch)
            if s is None:
                raise ValueError(
                    f"partition {p} has no committed checkpoint at epoch "
                    f"{epoch}; rescale needs a consistent cut"
                )
            snaps.append(s)
        new = _migrate_snapshots(snaps, new_P, key, new_overrides)
        mig_meta: dict = {"partitions": old_P, "migrating_to": new_P}
        if old_overrides:
            mig_meta["overrides"] = old_overrides
        write_json_atomic(ck / "meta.json", mig_meta)
        if stage_root.exists():  # stale stage from an older aborted attempt
            shutil.rmtree(stage_root)
        for q in range(new_P):
            write_partition_checkpoint(str(stage_root), q, epoch, new[q],
                                       full=True)
        write_json_atomic(stage_marker, {"epoch": epoch, "new_P": new_P})

    _swap_stage(ck, stage_root, epoch, new_P)
    final_meta: dict = {"partitions": new_P}
    if new_overrides:
        final_meta["overrides"] = new_overrides
    write_json_atomic(ck / "meta.json", final_meta)
    shutil.rmtree(stage_root, ignore_errors=True)


def _migrate_snapshots(
    snaps: list[dict], new_P: int, key: str,
    overrides: dict[str, int] | None = None,
) -> list[dict]:
    """Pure re-route of ``old_P`` merged snapshots into ``new_P`` migrated
    snapshots (no disk I/O — re-runnable after any crash). ``overrides`` are
    the NEW lineage's hot-key pins; every routed piece must use them."""
    new: list[dict] = [
        {
            "buffer": None,
            # NB: 0 is a legitimate value (status_ts epoch ladder starts at
            # 1970-01-01) and must not collapse to None, or the interval-
            # suppression phase is lost on resume.
            "last_status_us": max(
                (s["last_status_us"] for s in snaps
                 if s.get("last_status_us") is not None),
                default=None,
            ),
        }
        for _ in range(new_P)
    ]

    def split_maps(maps: list[dict]) -> list[dict]:
        keys = [k for m in maps for k in m]
        vals = [v for m in maps for v in m.values()]
        out: list[dict] = [dict() for _ in range(new_P)]
        for k, v, q in zip(keys, vals, _route(keys, new_P, overrides)):
            out[q][k] = v
        return out

    def split_tables(tables: list[pa.Table], col: str = key) -> list[pa.Table]:
        tbl = pa.concat_tables(tables, promote_options="none")
        return split_table(tbl, col, new_P, overrides)

    for q, t in enumerate(split_tables([s["counters"] for s in snaps], "key")):
        new[q]["counters"] = t.sort_by("key")
    bufs = [s["buffer"] for s in snaps if s["buffer"] is not None and s["buffer"].num_rows]
    if bufs:
        for q, part in enumerate(split_tables(bufs)):
            new[q]["buffer"] = part if part.num_rows else None
    for name in operator_entries(snaps[0]):
        ops = [s[name] for s in snaps if name in s]
        for q in range(new_P):
            new[q][name] = {}
        for part, v in ops[0].items():
            vals = [o[part] for o in ops]
            if isinstance(v, pa.Table):
                routed = split_tables(vals)
                if part == "keys":
                    routed = [t.sort_by(key) for t in routed]
            elif isinstance(v, dict):
                routed = split_maps(vals)
            elif part == "watermark":
                wm = min((w for w in vals if w is not None), default=None)
                routed = [wm] * new_P
            else:
                routed = [v] * new_P
            for q, r in enumerate(routed):
                new[q][name][part] = r
    return new


def _swap_stage(ck: Path, stage_root: Path, epoch: int, new_P: int) -> None:
    """Install the staged migrated checkpoints over the live lineage. Every
    step is derivable from the stage alone and idempotent: stale lineage
    deletion re-runs harmlessly, and a staged dir already moved by a
    previous (crashed) swap is skipped (its dest holds the committed
    state.arrow)."""
    for pdir in sorted(ck.glob("p=*")):
        pnum = int(pdir.name.split("=")[1])
        if pnum >= new_P:
            shutil.rmtree(pdir)
            continue
        for edir in sorted(pdir.glob("epoch-*")):
            if int(edir.name.split("-")[1]) > epoch:
                shutil.rmtree(edir)
    for q in range(new_P):
        src = stage_root / "ckpt" / f"p={q:05d}" / f"epoch-{epoch:05d}"
        dst = ck / f"p={q:05d}" / f"epoch-{epoch:05d}"
        if not src.exists():
            continue  # moved by a previous (crashed) swap
        if dst.exists():
            shutil.rmtree(dst)  # replace old cut-epoch state wholesale
        dst.parent.mkdir(parents=True, exist_ok=True)
        os.replace(src, dst)
