"""Streaming driver: epochs, watermark, exactly-once sinks, checkpoint +
resume (SURVEY.md §7.0 — the micro-batch streaming shape).

The stream source is a landing directory / list of Parquet files in arrival
order; each epoch consumes a contiguous group of files (bounded
``run_stream`` below, unbounded directory-polling ``run_stream_continuous``):

    for each epoch:
        fused read+split tasks (whole blocks never enter the object store)
          -> feed through the long-lived state actors (ordered drain,
             in-actor windows/join gated by the event-time watermark)
          -> stage every partition's outputs, then commit sink manifests
          -> checkpoint every partition (commit order: sinks first,
             checkpoint second — SURVEY.md §7.4.3)

Resume: the newest epoch whose checkpoint committed on ALL partitions is the
consistent cut; earlier epochs' sink output is kept (their manifests are
committed), later epochs are re-run deterministically and overwrite their
files idempotently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .checkpoint import resume_epoch, write_lineage_meta
from .ordered import OrderedProcessor
from .sink import ManifestSink
from .state import OrderedConfig



def _resume_point(out_root: str, P: int, sinks: dict) -> int | None:
    """Newest epoch e such that (a) every partition has a committed
    checkpoint >= e (consistent state cut) and (b) every sink's manifest
    prefix covers 0..e (output visible). Actor checkpoints can run ahead of
    manifest commits in the pipelined protocol, so e is the min of the two
    frontiers."""
    ck = resume_epoch(out_root, P)
    if ck is None:
        return None
    frontier = ck
    for s in sinks.values():
        committed = s.committed_epochs()
        prefix = -1
        for e in committed:
            if e == prefix + 1:
                prefix = e
            else:
                break
        frontier = min(frontier, prefix)
    return frontier if frontier >= 0 else None


def _lineage_overrides(
    out_root: str, P: int, salt_hot_keys: bool, sample_files: list[str],
    key: str, resume: bool = True,
) -> dict[str, int] | None:
    """Hot-key partition pins for this run (the north rule's 'skew-salted
    shuffles on hot conv_ids'). Pins are ROUTING, and routing is lineage: an
    existing meta written with the same P is authoritative — its overrides
    (or their absence) are what the checkpoints were routed with, so a
    resumed run reuses them regardless of the flag. A fresh lineage (or a
    resume=False restart) with ``salt_hot_keys`` samples the head of the
    arrival stream — key column only, <=4 files and ~500k rows, so the
    driver-side cost is bounded at any data scale — and pins the heaviest
    keys round-robin (partitioning.compute_hot_key_overrides)."""
    from .checkpoint import read_lineage_meta

    if resume:
        meta = read_lineage_meta(out_root)
        if meta is not None and meta.get("partitions") == P:
            return meta.get("overrides") or None
    if not salt_hot_keys or not sample_files:
        return None
    from .partitioning import compute_hot_key_overrides

    cap = 500_000
    tbls, rows = [], 0
    for f in sample_files[:4]:
        # batch-wise read so a single huge arrival file cannot pull its
        # whole key column onto the driver — stop at the cap mid-file
        for b in pq.ParquetFile(f).iter_batches(columns=[key], batch_size=65536):
            tbls.append(pa.Table.from_batches([b]))
            rows += b.num_rows
            if rows >= cap:
                break
        if rows >= cap:
            break
    if not tbls:
        return None
    sample = pa.concat_tables(tbls) if len(tbls) > 1 else tbls[0]
    return compute_hot_key_overrides(sample.slice(0, cap), key, P) or None


@dataclass
class StreamResult:
    out_root: str
    epochs_run: int
    epochs_skipped: int
    total_emitted: int
    # Per-key final status: one row per key EVER SEEN — a driver-side
    # materialization at 10^9 keys, so it is OPT-IN
    # (run_stream(collect_final_status=True)); the scale path is `summary`
    # (O(P) counters, the reference perf protocol) and the committed
    # 'status' sink (per-epoch per-key rows, readable as a Dataset).
    final_status: pd.DataFrame | None = None
    sinks: dict = field(default_factory=dict)
    # O(1) perf-protocol completion summary (always populated)
    summary: dict = field(default_factory=dict)
    # per-epoch throughput/latency surface (metrics.StatsTracker summaries,
    # ≙ the reference StatsTracker's ops/s + latency percentiles)
    metrics: dict = field(default_factory=dict)


def run_stream(
    files: list[str],
    out_root: str,
    cfg: OrderedConfig | None = None,
    num_partitions: int = 4,
    files_per_epoch: int = 2,
    resume: bool = True,
    fail_after_epoch: int | None = None,
    checkpoint_full_every: int = 16,
    max_inflight: int = 3,
    salt_hot_keys: bool = False,
    collect_final_status: bool = False,
) -> StreamResult:
    """Run the full streaming pipeline over an arrival-ordered file list.

    ``fail_after_epoch`` injects a crash after committing that epoch (tests
    the kill-and-resume path: a subsequent call with resume=True must
    produce output identical to an uninterrupted run).
    """
    cfg = cfg or OrderedConfig()
    out = Path(out_root)
    out.mkdir(parents=True, exist_ok=True)

    sinks = {"ordered": ManifestSink(out_root, "ordered"),
             "status": ManifestSink(out_root, "status"),
             "dlq": ManifestSink(out_root, "dlq")}
    if cfg.window_size_s > 0:
        sinks["windows"] = ManifestSink(out_root, "windows")
    if cfg.session_gap_s > 0:
        sinks["sessions"] = ManifestSink(out_root, "sessions")
    if cfg.stream_join:
        sinks["joined"] = ManifestSink(out_root, "joined")
    if cfg.pattern:
        sinks["matches"] = ManifestSink(out_root, "matches")
    if cfg.with_book:
        sinks["depth"] = ManifestSink(out_root, "depth")
    if cfg.state_factory is not None:
        sinks["user"] = ManifestSink(out_root, "user")
    if cfg.late_data == "drop" and (cfg.window_size_s > 0 or cfg.session_gap_s > 0):
        sinks["late"] = ManifestSink(out_root, "late")

    groups = [
        files[i : i + files_per_epoch] for i in range(0, len(files), files_per_epoch)
    ]

    overrides = _lineage_overrides(
        out_root, num_partitions, salt_hot_keys, files, cfg.key, resume
    )
    e_star = _resume_point(out_root, num_partitions, sinks) if resume else None
    start = 0 if e_star is None else e_star + 1
    proc = OrderedProcessor(cfg, num_partitions, overrides)
    P = proc.P
    # the first epoch's read+split tasks have no side effects: submit them
    # while the actors start and restore
    first = proc.exchange(groups[start]) if start < len(groups) else None
    # readiness marker: actors constructed and restored, before any
    # checkpoint write and before the first epoch call
    proc.wait_ready(out_root, e_star)
    write_lineage_meta(out_root, P, clear_mismatched=True, overrides=overrides)

    # Pipelined execution, NO per-epoch barrier: each partition's actor call
    # queue serializes drain(k) -> checkpoint(k) -> drain(k+1); the driver
    # trails behind committing sink manifests strictly in epoch order.
    # Crash-consistency: an actor checkpoint may exist for an epoch whose
    # manifests never committed; _resume_point therefore takes the newest
    # epoch with BOTH a full checkpoint cut AND a contiguous manifest prefix,
    # and later epochs re-run deterministically (overwriting their files and
    # stale checkpoints byte-identically).
    import time as _t

    from .metrics import StatsTracker

    stats = StatsTracker()
    epoch_stage = stats.stage("epoch_commit")
    total_emitted = 0
    epochs_run = 0
    pending: list[tuple[int, list, float]] = []

    def commit_oldest():
        nonlocal total_emitted, epochs_run
        epoch, refs, t_submit = pending.pop(0)
        rows_per_part = ray.get(refs)
        e_rows = 0
        for name, s in sinks.items():
            rows = {p: r.get(name, 0) for p, r in enumerate(rows_per_part)}
            s.commit_epoch(epoch, rows)
            if name == "ordered":
                e_rows = sum(rows.values())
                total_emitted += e_rows
        # submit->commit latency + emitted rows, per epoch (pipelined, so
        # concurrent-epoch latencies overlap; rates() gives the true rate)
        epoch_stage.record(e_rows, _t.monotonic() - t_submit)
        stats.record(e_rows)
        epochs_run += 1
        if fail_after_epoch is not None and epoch == fail_after_epoch:
            proc.shutdown()
            raise RuntimeError(f"injected failure after epoch {epoch}")

    for epoch, group in enumerate(groups):
        final = epoch == len(groups) - 1
        if epoch < start:
            continue
        while len(pending) >= max_inflight:
            commit_oldest()
        status_ts = pd.Timestamp("1970-01-01") + pd.Timedelta(seconds=epoch)
        paths = [
            {name: s.part_path(epoch, p) for name, s in sinks.items()}
            for p in range(P)
        ]
        # compaction cadence: every k-th epoch writes a FULL counter snapshot
        # (restore merges deltas only from the newest full epoch)
        full_ckpt = checkpoint_full_every > 0 and epoch % checkpoint_full_every == 0
        # file paths go straight in: the fused read+split task decodes and
        # shards each file in one step (whole blocks never enter plasma)
        exchange = first if epoch == start else proc.exchange(group)
        out_refs = proc.feed_epoch_to_sinks(
            exchange, status_ts, paths, final=final, ckpt=(out_root, epoch, full_ckpt)
        )
        pending.append((epoch, out_refs, _t.monotonic()))
    while pending:
        commit_oldest()
    # snapshot the sliding-window rate NOW: final-status collection and
    # actor teardown below can outlast the window and trim it to zero
    rates = stats.rates()

    fin = None
    if collect_final_status:
        fin = proc.final_status_table(
            pd.Timestamp("1970-01-01") + pd.Timedelta(seconds=len(groups))
        ).to_pandas()
    summary = proc.completion_summary()
    proc.shutdown()
    return StreamResult(
        out_root=out_root,
        epochs_run=epochs_run,
        epochs_skipped=start,
        total_emitted=total_emitted,
        final_status=fin,
        sinks=sinks,
        summary=summary,
        metrics={"rates": rates, "stages": stats.summaries()},
    )


# ---------------------------------------------------------------------------
# continuous (unbounded) mode
# ---------------------------------------------------------------------------


def _epoch_record_dir(out_root: str) -> Path:
    return Path(out_root) / "epochs"


def _record_epoch(out_root: str, epoch: int, files: list[str]) -> None:
    """Durably pin an epoch's file group BEFORE feeding it, so a resumed run
    re-forms identical epochs regardless of what has landed since."""
    import json
    import os

    d = _epoch_record_dir(out_root)
    d.mkdir(parents=True, exist_ok=True)
    tmp = d / f"epoch-{epoch:05d}.json.tmp"
    tmp.write_text(json.dumps({"epoch": epoch, "files": files}))
    os.replace(tmp, d / f"epoch-{epoch:05d}.json")


def _load_epoch_records(out_root: str) -> list[list[str]]:
    import json

    d = _epoch_record_dir(out_root)
    if not d.exists():
        return []
    groups = []
    for f in sorted(d.glob("epoch-*.json")):
        rec = json.loads(f.read_text())
        assert rec["epoch"] == len(groups), "epoch records must be contiguous"
        groups.append(rec["files"])
    return groups


def _complete_autoscale(out_root: str, key: str) -> None:
    """Finish an autoscale rescale a crash interrupted. The durable marker
    (written BEFORE rescale_checkpoint starts) carries (epoch, from, to);
    rescale_checkpoint is idempotent for the same arguments, so re-running
    it completes whatever phase the crash cut short."""
    import json as _json

    marker = Path(out_root) / "ckpt" / "_autoscale.json"
    if not marker.exists():
        return
    info = _json.loads(marker.read_text())
    from .checkpoint import read_lineage_meta

    meta = read_lineage_meta(out_root)
    done = (
        meta is not None
        and meta.get("partitions") == info["to"]
        and not meta.get("migrating_to")
    )
    if not done:
        from .rescale import rescale_checkpoint

        rescale_checkpoint(
            out_root, info["epoch"], info["from"], info["to"], key=key
        )
    marker.unlink()


def run_stream_continuous(
    landing_dir: str,
    out_root: str,
    cfg: OrderedConfig | None = None,
    num_partitions: int = 4,
    files_per_epoch: int = 2,
    poll_interval_s: float = 0.2,
    idle_timeout_s: float = 30.0,
    stop_file: str = "_STOP",
    resume: bool = True,
    fail_after_epoch: int | None = None,
    checkpoint_full_every: int = 16,
    salt_hot_keys: bool = False,
    autoscale_backlog_epochs: int | None = None,
    autoscale_factor: int = 2,
    autoscale_max_partitions: int = 64,
    autoscale_shrink_idle_s: float | None = None,
    autoscale_min_partitions: int = 1,
    probe_state_every_epochs: int = 0,
    collect_final_status: bool = False,
) -> StreamResult:
    """Unbounded micro-batch streaming over a LANDING DIRECTORY (≙ the
    reference's Pub/Sub subscription, OrderBookProcessingPipeline.java:103-105
    — the honest file-based equivalent of an unbounded source).

    The directory is polled; newly landed Parquet files (producers must
    write-then-rename, never write in place) are grouped into epochs of
    ``files_per_epoch`` in name order. Each epoch's file group is durably
    recorded under ``out_root/epochs/`` BEFORE it is fed, so crash + resume
    re-forms byte-identical epochs and the run_stream exactly-once protocol
    (sink manifests -> checkpoint, idempotent re-run) carries over unchanged.
    The loop ends when ``<landing_dir>/<stop_file>`` exists and every landed
    file has been processed, or after ``idle_timeout_s`` without new files.

    ``autoscale_backlog_epochs`` enables backlog-driven AUTO-RESCALE (the
    micro-batch analogue of Dataflow autoscaling, reference
    start-pipeline.sh:34-46): whenever more than that many epochs' worth of
    landed files are waiting unassigned and P < ``autoscale_max_partitions``,
    the driver drains in-flight epochs to a consistent cut, migrates every
    partition's keyed state with ``rescale.rescale_checkpoint`` (crash-safe
    two-phase swap) to P * ``autoscale_factor`` partitions, rebuilds the
    actor pool, and continues. The rescale is recorded in the lineage meta,
    so a crash-resume re-enters at the migrated P; epochs committed before
    the cut keep their old-P sink parts (manifests are authoritative).

    ``autoscale_shrink_idle_s`` enables the matching SCALE-DOWN: when the
    unassigned backlog stays below one epoch's worth of files for that many
    continuous seconds (and at least one epoch has been processed), P drops
    to max(``autoscale_min_partitions``, P // ``autoscale_factor``) through
    the same two-phase checkpoint migration — Dataflow's scale-to-idle,
    micro-batched. Both directions share the durable ``_autoscale.json``
    intent marker, so a crash mid-shrink is finished on resume too.
    """
    import time as _time

    cfg = cfg or OrderedConfig()
    out = Path(out_root)
    out.mkdir(parents=True, exist_ok=True)
    land = Path(landing_dir)
    # NOTE on the stop marker: a PRE-EXISTING <landing>/<stop_file> is a
    # supported finite-replay pattern (callers land files then write the
    # marker), so it is NOT cleared here. Queue-mode runs instead clear a
    # stale marker on the producer side (run_pump_loop / the job CLI)
    # before the first delivery, so a reused --out cannot exit early on a
    # previous run's leftover marker (ADVICE r4).

    if resume and (
        autoscale_backlog_epochs is not None
        or autoscale_shrink_idle_s is not None
    ):
        # finish any rescale a crash interrupted (idempotent two-phase
        # protocol in rescale.rescale_checkpoint), then adopt the lineage
        # meta's P — authoritative over the caller's num_partitions
        from .checkpoint import read_lineage_meta

        _complete_autoscale(out_root, cfg.key)
        meta0 = read_lineage_meta(out_root)
        if meta0 is not None and meta0.get("partitions"):
            num_partitions = int(meta0["partitions"])

    sinks = {"ordered": ManifestSink(out_root, "ordered"),
             "status": ManifestSink(out_root, "status"),
             "dlq": ManifestSink(out_root, "dlq")}
    if cfg.window_size_s > 0:
        sinks["windows"] = ManifestSink(out_root, "windows")
    if cfg.session_gap_s > 0:
        sinks["sessions"] = ManifestSink(out_root, "sessions")
    if cfg.stream_join:
        sinks["joined"] = ManifestSink(out_root, "joined")
    if cfg.pattern:
        sinks["matches"] = ManifestSink(out_root, "matches")
    if cfg.with_book:
        sinks["depth"] = ManifestSink(out_root, "depth")
    if cfg.state_factory is not None:
        sinks["user"] = ManifestSink(out_root, "user")
    if cfg.late_data == "drop" and (cfg.window_size_s > 0 or cfg.session_gap_s > 0):
        sinks["late"] = ManifestSink(out_root, "late")

    groups = _load_epoch_records(out_root)
    # salting samples the head of the stream: recorded epochs first (their
    # composition is durable), else whatever has already landed
    sample_files = (
        [f for g in groups[:2] for f in g]
        or [str(f) for f in sorted(land.glob("*.parquet"))[:4]]
    )
    if salt_hot_keys and not sample_files:
        from .checkpoint import read_lineage_meta

        if read_lineage_meta(out_root) is None:
            # consumer started before any producer wrote: wait (bounded by
            # the idle timeout) for the first files — salting against an
            # empty dir would permanently record a pin-free lineage
            t_wait = _time.monotonic()
            while (
                not sample_files
                and not (land / stop_file).exists()
                and _time.monotonic() - t_wait < idle_timeout_s
            ):
                _time.sleep(poll_interval_s)
                sample_files = [
                    str(f) for f in sorted(land.glob("*.parquet"))[:4]
                ]
    overrides = _lineage_overrides(
        out_root, num_partitions, salt_hot_keys, sample_files, cfg.key, resume
    )
    e_star = (
        _resume_point(out_root, num_partitions, sinks) if resume and groups else None
    )
    start = 0 if e_star is None else e_star + 1
    proc = OrderedProcessor(cfg, num_partitions, overrides)
    P = proc.P
    proc.wait_ready(out_root, e_star)
    write_lineage_meta(out_root, P, clear_mismatched=True, overrides=overrides)

    from .metrics import StatsTracker

    stats = StatsTracker()
    epoch_stage = stats.stage("epoch_commit")
    total_emitted = 0
    epochs_run = 0
    pending: list[tuple[int, list, float]] = []
    max_inflight = 3
    rescales: list[dict] = []  # autoscale events (observability)
    last_rescale_epoch = -(10**9)  # cooldown anchor (no rescale yet)

    def rescale_to(new_P: int, kind: str) -> None:
        """Shared grow/shrink body: drain in-flight epochs to a consistent
        cut, write the durable intent marker, migrate every partition's
        keyed state (crash-safe two-phase rescale_checkpoint), rebuild the
        actor pool at new_P, restore from the cut."""
        nonlocal proc, P, last_rescale_epoch
        import json as _js
        import os as _os

        from .checkpoint import read_lineage_meta
        from .rescale import rescale_checkpoint

        while pending:
            commit_oldest()
        cut = next_epoch - 1
        proc.shutdown()
        # durable intent marker: a crash mid-rescale is finished by
        # _complete_autoscale on the next resume
        marker = Path(out_root) / "ckpt" / "_autoscale.json"
        marker.parent.mkdir(parents=True, exist_ok=True)
        tmpm = marker.with_suffix(".tmp")
        tmpm.write_text(_js.dumps({"epoch": cut, "from": P, "to": new_P}))
        _os.replace(tmpm, marker)
        rescale_checkpoint(out_root, cut, P, new_P, key=cfg.key)
        marker.unlink()
        meta_r = read_lineage_meta(out_root)
        overrides_r = (meta_r or {}).get("overrides") or None
        proc = OrderedProcessor(cfg, new_P, overrides_r)
        old_P, P = P, proc.P
        proc.wait_ready(out_root, cut)
        rescales.append({"epoch": cut, "from": old_P, "to": P, "kind": kind})
        last_rescale_epoch = next_epoch

    def commit_oldest():
        nonlocal total_emitted, epochs_run
        epoch, refs, t_submit = pending.pop(0)
        rows_per_part = ray.get(refs)
        e_rows = 0
        for name, s in sinks.items():
            rows = {p: r.get(name, 0) for p, r in enumerate(rows_per_part)}
            s.commit_epoch(epoch, rows)
            if name == "ordered":
                e_rows = sum(rows.values())
                total_emitted += e_rows
        epoch_stage.record(e_rows, _time.monotonic() - t_submit)
        stats.record(e_rows)
        epochs_run += 1
        if fail_after_epoch is not None and epoch == fail_after_epoch:
            proc.shutdown()
            raise RuntimeError(f"injected failure after epoch {epoch}")

    def probe_state(epoch: int) -> None:
        """Append per-operator keyed-state sizes + driver RSS to
        out_root/state_probe.jsonl (soak observability; cheap O(P) poll)."""
        import json as _json
        import resource

        sizes = ray.get([w.state_sizes.remote() for w in proc.workers])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec = {
            "t": _time.time(),
            "epoch": epoch,
            "P": P,
            "driver_maxrss_kb": int(rss_kb),
            "state": {
                op: {
                    k: int(sum(s.get(op, {}).get(k, 0) for s in sizes))
                    for k in (sizes[0].get(op, {}) if sizes else {})
                }
                for op in (sizes[0] if sizes else {})
            },
        }
        with open(Path(out_root) / "state_probe.jsonl", "a") as f:
            f.write(_json.dumps(rec) + "\n")

    def feed(epoch: int, group: list[str], final: bool):
        while len(pending) >= max_inflight:
            commit_oldest()
        status_ts = pd.Timestamp("1970-01-01") + pd.Timedelta(seconds=epoch)
        paths = [
            {name: s.part_path(epoch, p) for name, s in sinks.items()}
            for p in range(P)
        ]
        full_ckpt = checkpoint_full_every > 0 and epoch % checkpoint_full_every == 0
        pending.append((epoch, proc.feed_epoch_to_sinks(
            proc.exchange(group), status_ts, paths, final=final,
            ckpt=(out_root, epoch, full_ckpt),
        ), _time.monotonic()))
        if probe_state_every_epochs and epoch % probe_state_every_epochs == 0:
            probe_state(epoch)

    def feed_flush(epoch: int):
        """Re-emit the open-window/join flush as a first-class epoch."""
        while len(pending) >= max_inflight:
            commit_oldest()
        paths = [
            {name: s.part_path(epoch, p) for name, s in sinks.items()}
            for p in range(P)
        ]
        pending.append(
            (epoch, [w.flush_final_to_sink.remote(paths[p])
                     for p, w in enumerate(proc.workers)], _time.monotonic())
        )

    # 1. replay already-recorded epochs (deterministic composition); an
    # empty recorded group is a flush epoch from a previous run
    for epoch, group in enumerate(groups):
        if epoch < start:
            continue
        if group:
            feed(epoch, group, final=False)
        else:
            feed_flush(epoch)

    assigned = {f for g in groups for f in g}
    known = set(assigned)  # every file ever OBSERVED (for the idle clock)
    next_epoch = len(groups)
    last_was_flush = bool(groups) and not groups[-1]
    last_new = _time.monotonic()
    low_since = None  # continuous low-backlog clock (shrink trigger)

    # 2. poll for newly landed files
    while True:
        stop = (land / stop_file).exists()
        files_now = [str(f) for f in sorted(land.glob("*.parquet"))]
        # the idle clock resets only on files NEWLY LANDED, not on files
        # that merely remain unassigned (a partial trailing group would
        # otherwise reset it every poll and the timeout could never fire)
        fresh = [f for f in files_now if f not in known]
        if fresh:
            known.update(fresh)
            last_new = _time.monotonic()
        new = [f for f in files_now if f not in assigned]
        exiting = stop or (_time.monotonic() - last_new > idle_timeout_s)
        assigned_this_poll = 0
        # full groups always; the partial remainder only when exiting
        while len(new) >= files_per_epoch or (exiting and new):
            group = new[:files_per_epoch]
            new = new[files_per_epoch:]
            _record_epoch(out_root, next_epoch, group)
            assigned.update(group)
            feed(next_epoch, group, final=False)
            next_epoch += 1
            assigned_this_poll += 1
            last_was_flush = False
            if (
                autoscale_backlog_epochs is not None
                and P < autoscale_max_partitions
                and len(new) >= autoscale_backlog_epochs * files_per_epoch
                # cooldown: let the grown pool chew through at least one
                # backlog window before growing again (no flapping straight
                # to max on one pre-landed burst)
                and next_epoch - last_rescale_epoch > autoscale_backlog_epochs
            ):
                # backlog-driven grow: drain to a consistent cut, migrate
                # state, rebuild the pool at the larger P
                rescale_to(
                    min(autoscale_max_partitions, P * autoscale_factor),
                    "grow",
                )
                low_since = None
        # keep the commit frontier CURRENT when no new work arrived: the
        # pipelined protocol only forces a commit when pending hits
        # max_inflight, so an idle stream would otherwise sit on finished
        # epochs whose manifests never commit until exit — stalling every
        # frontier consumer (status/stream_topk readers, the lease-queue
        # pump's acks in source.py) and inflating apparent latency. One
        # commit per idle poll bounds driver work while load resumes
        # pipelined behavior immediately. Only commit when the oldest
        # epoch's refs are all READY — commit_oldest() blocks in ray.get(),
        # and under trickle arrival an unconditional call would serialize
        # the driver on the in-flight epoch every poll, stalling _STOP /
        # new-file polling for the epoch's full duration (ADVICE r4).
        if not assigned_this_poll and pending:
            oldest_refs = list(pending[0][1])
            ready, _ = ray.wait(
                oldest_refs, num_returns=len(oldest_refs), timeout=0
            )
            if len(ready) == len(oldest_refs):
                commit_oldest()
        # idle-driven shrink: backlog has stayed under one epoch's worth
        # of files continuously for autoscale_shrink_idle_s
        if (
            autoscale_shrink_idle_s is not None
            and next_epoch > 0
            and not exiting
        ):
            if assigned_this_poll:
                # work flowed this poll — the stream is NOT idle. (The old
                # `len(new) >= files_per_epoch` test was unreachable: the
                # assignment loop above always drains `new` below one
                # epoch's worth, so a fully busy stream would have been
                # shrunk as if idle.)
                low_since = None
            elif low_since is None:
                low_since = _time.monotonic()
            elif (
                _time.monotonic() - low_since >= autoscale_shrink_idle_s
                and P > autoscale_min_partitions
            ):
                new_P = max(
                    autoscale_min_partitions, max(1, P // autoscale_factor)
                )
                if new_P < P:
                    rescale_to(new_P, "shrink")
                low_since = None
        if exiting:
            break
        _time.sleep(poll_interval_s)

    # 3. final flush: open windows (and any terminal operator output) are
    # released by run_stream's final=True epoch; here the exit usually races
    # the stop sentinel past the last data epoch, so flush explicitly as one
    # more recorded epoch (idempotent on re-run like any other epoch).
    if (("windows" in sinks or "sessions" in sinks or "joined" in sinks
         or "matches" in sinks)
            and next_epoch and not last_was_flush):
        _record_epoch(out_root, next_epoch, [])
        feed_flush(next_epoch)
        next_epoch += 1

    while pending:
        commit_oldest()
    # snapshot the sliding-window rate NOW: final-status collection and
    # actor teardown below can outlast the window and trim it to zero
    rates = stats.rates()

    fin = None
    if collect_final_status:
        fin = proc.final_status_table(
            pd.Timestamp("1970-01-01") + pd.Timedelta(seconds=next_epoch)
        ).to_pandas()
    summary = proc.completion_summary()
    proc.shutdown()
    return StreamResult(
        out_root=out_root,
        epochs_run=epochs_run,
        epochs_skipped=start,
        total_emitted=total_emitted,
        final_status=fin,
        sinks=sinks,
        summary=summary,
        metrics={"rates": rates, "stages": stats.summaries(),
                 "rescales": rescales},
    )
