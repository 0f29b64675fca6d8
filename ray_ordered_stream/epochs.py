"""Streaming driver: epochs, watermark, exactly-once sinks, checkpoint +
resume (SURVEY.md §7.0 — the micro-batch streaming shape).

One epoch driver (``_EpochDriver``), two feeds of Parquet file groups in
arrival order: bounded ``run_stream`` cuts a fixed file list, unbounded
``run_stream_continuous`` takes ``source.LandingSource``'s recorded groups
and ends with a flush epoch (an empty group). Per epoch:

    fused read+split tasks (whole blocks never enter the object store)
      -> feed through the P state actors (ordered drain,
         in-actor windows/join gated by the event-time watermark)
      -> each partition writes its sink parts, then its checkpoint of the
         epoch, and returns
      -> once all P have returned, the driver commits the epoch's sink
         manifests (strictly in epoch order), which makes its parts visible

So the commit order is checkpoint first, manifests second (the reverse of
the plan in SURVEY.md §7.4.3). A committed manifest of a data epoch has a
checkpoint of that epoch on every partition behind it, so the driver may
commit an epoch as soon as its partitions return, and a consumer that acks
input on the manifest frontier (``source.Pump``) never acks a file a resume
would read again.

Resume: the newest epoch with both a checkpoint on ALL partitions and a
contiguous manifest prefix is the consistent cut (``_resume_point`` takes
the min of the two frontiers). Earlier epochs' sink output is kept, later
epochs are re-run deterministically and overwrite their files idempotently.
``resume=False`` deletes every sink, the checkpoint lineage and the epoch
records first (``_reset_outputs``).
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .checkpoint import read_lineage_meta, resume_epoch, write_json_atomic, write_lineage_meta
from .metrics import StatsTracker
from .ordered import OrderedProcessor
from .rescale import rescale_checkpoint
from .sink import ManifestSink
from .source import LandingSource
from .state import OrderedConfig
from .stream_ops import LATE_SINK, OPERATOR_KINDS, operator_kinds, operator_sinks


def _resume_point(out_root: str, P: int, sinks: dict) -> int | None:
    """Newest epoch e such that (a) every partition has a committed
    checkpoint >= e (consistent state cut) and (b) every sink's manifest
    prefix covers 0..e (output visible). Actor checkpoints can run ahead of
    manifest commits in the pipelined protocol, so e is the min of the two
    frontiers."""
    ck = resume_epoch(out_root, P)
    if ck is None:
        return None
    frontier = min([ck] + [_committed_prefix(s) for s in sinks.values()])
    return frontier if frontier >= 0 else None


def _committed_prefix(sink: ManifestSink) -> int:
    """Last epoch of the sink's contiguous committed prefix 0..e (-1 if
    epoch 0 is not committed)."""
    prefix = -1
    for e in sink.committed_epochs():
        if e != prefix + 1:
            break
        prefix = e
    return prefix


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


def _epoch_ts(epoch: int) -> pd.Timestamp:
    """The deterministic status tick of an epoch (one second per epoch)."""
    return pd.Timestamp("1970-01-01") + pd.Timedelta(seconds=epoch)


def _reset_outputs(out_root: str) -> None:
    """``resume=False``: before anything reads them, delete every sink the
    engine writes and the checkpoint lineage under ``out_root``. An
    earlier, longer run's later manifests would otherwise stay committed
    and its later checkpoints would pass for the resume cut."""
    sinks = ("ordered", "status", "dlq", *(k.sink for k in OPERATOR_KINDS), LATE_SINK)
    for d in (*sinks, "ckpt"):
        shutil.rmtree(Path(out_root) / d, ignore_errors=True)


def _open_sinks(out_root: str, cfg: OrderedConfig) -> dict[str, ManifestSink]:
    """Every sink the config writes, in manifest commit order."""
    names = ("ordered", "status", "dlq", *operator_sinks(cfg))
    return {n: ManifestSink(out_root, n) for n in names}


class _EpochDriver:
    """The exactly-once epoch protocol behind both feeds.

    Construction opens the sinks, fixes the lineage's hot-key pins and the
    resume point, submits the exchange of the first epoch ``groups`` already
    knows (its read+split tasks have no side effects, so they run while the
    actors are leased, reset or started, and restored), waits for the
    actors, then writes the lineage meta: the readiness marker, before any
    checkpoint write or epoch call.

    Pipelined execution, NO per-epoch barrier: each partition's actor call
    queue serializes drain(k) -> checkpoint(k) -> drain(k+1); the driver
    trails behind committing sink manifests strictly in epoch order, with at
    most ``max_inflight`` epochs submitted and not yet committed. ``feed``
    commits (blocking) only to stay under that bound; the bounded feed
    commits the rest in ``finish``, the continuous feed commits the ready
    prefix (``commit_ready``) after every poll and waits on the oldest
    epoch (``wait_oldest``) between polls.
    Crash-consistency: an actor checkpoint may exist for an epoch whose
    manifests never committed; _resume_point therefore takes the newest
    epoch with BOTH a full checkpoint cut AND a contiguous manifest prefix,
    and later epochs re-run deterministically (overwriting their files and
    stale checkpoints byte-identically).

    ``proc`` holds the P partition actors, leased from the driver's pool
    (ordered._ActorPool) and returned to it by ``finish``; an autoscale
    step replaces it at a drained cut."""

    def __init__(
        self, out_root: str, cfg: OrderedConfig, num_partitions: int,
        groups: list[list[str]], resume: bool, salt_hot_keys: bool,
        sample_files: list[str], checkpoint_full_every: int,
        max_inflight: int, fail_after_epoch: int | None,
    ):
        Path(out_root).mkdir(parents=True, exist_ok=True)
        self.out_root = out_root
        self.sinks = _open_sinks(out_root, cfg)
        self.checkpoint_full_every = checkpoint_full_every
        self.max_inflight = max_inflight
        self.fail_after_epoch = fail_after_epoch
        overrides = _lineage_overrides(
            out_root, num_partitions, salt_hot_keys, sample_files, cfg.key, resume
        )
        e_star = (
            _resume_point(out_root, num_partitions, self.sinks) if resume else None
        )
        if not groups:
            # nothing recorded yet: start at epoch 0. The resume point was
            # still taken, so a lineage of another P or an unfinished
            # rescale raises here too.
            e_star = None
        self.start = 0 if e_star is None else e_star + 1
        self.proc = OrderedProcessor(cfg, num_partitions, overrides)
        self._first = (
            self.proc.exchange(groups[self.start])
            if self.start < len(groups) and groups[self.start] else None
        )
        self.proc.wait_ready(out_root, e_star)
        write_lineage_meta(out_root, self.proc.P, overrides=overrides)
        self.stats = StatsTracker()
        self._epoch_stage = self.stats.stage("epoch_commit")
        self.pending: list[tuple[int, list, float]] = []
        self.total_emitted = 0
        self.epochs_run = 0

    def feed(self, epoch: int, group: list[str], final: bool = False) -> None:
        """Submit one epoch. An empty ``group`` is the flush epoch: the
        operators release what they hold open (final=True) and the ordered,
        status and dlq sinks commit it with zero rows."""
        while len(self.pending) >= self.max_inflight:
            self.commit_oldest()
        proc = self.proc
        paths = [
            {name: s.part_path(epoch, p) for name, s in self.sinks.items()}
            for p in range(proc.P)
        ]
        if not group:
            refs = [w.flush_final_to_sink.remote(paths[p])
                    for p, w in enumerate(proc.workers)]
        else:
            # compaction cadence: every k-th epoch writes a FULL counter
            # snapshot (restore merges deltas only from the newest full epoch)
            full_ckpt = (
                self.checkpoint_full_every > 0
                and epoch % self.checkpoint_full_every == 0
            )
            exchange = (
                self._first if epoch == self.start and self._first is not None
                else proc.exchange(group)
            )
            self._first = None
            refs = proc.feed_epoch_to_sinks(
                exchange, _epoch_ts(epoch), paths, final=final,
                ckpt=(self.out_root, epoch, full_ckpt),
            )
        self.pending.append((epoch, refs, time.monotonic()))

    def commit_oldest(self) -> None:
        """Commit the oldest in-flight epoch's manifests (blocks until its
        partitions finish); the injected failure fires right after, and a
        failed epoch ends the run the same way."""
        epoch, refs, t_submit = self.pending.pop(0)
        try:
            rows_per_part = ray.get(refs)
        except ray.exceptions.RayError:
            self.proc.broken = True
            self.proc.shutdown()
            raise
        e_rows = 0
        for name, s in self.sinks.items():
            rows = {p: r.get(name, 0) for p, r in enumerate(rows_per_part)}
            s.commit_epoch(epoch, rows)
            if name == "ordered":
                e_rows = sum(rows.values())
                self.total_emitted += e_rows
        # submit->commit latency + emitted rows, per epoch (pipelined, so
        # concurrent-epoch latencies overlap; rates() gives the true rate)
        self._epoch_stage.record(e_rows, time.monotonic() - t_submit)
        self.stats.record(e_rows)
        self.epochs_run += 1
        if self.fail_after_epoch is not None and epoch == self.fail_after_epoch:
            # a crash leaves no partition actor behind, pooled or not
            self.proc.broken = True
            self.proc.shutdown()
            raise RuntimeError(f"injected failure after epoch {epoch}")

    def commit_ready(self) -> None:
        """Commit the ready prefix of the in-flight epochs: oldest first,
        every epoch whose partitions have all finished, stopping at the
        first that has not. Never blocks on running work."""
        while self.pending:
            refs = self.pending[0][1]
            ready, _ = ray.wait(refs, num_returns=len(refs), timeout=0)
            if len(ready) < len(refs):
                return
            self.commit_oldest()

    def wait_oldest(self, timeout_s: float, source: LandingSource) -> None:
        """Return once the oldest in-flight epoch has finished, or after
        ``timeout_s``; with nothing in flight, once a file lands in the
        ``source``'s directory, or after ``timeout_s``."""
        if self.pending:
            refs = self.pending[0][1]
            ray.wait(refs, num_returns=len(refs), timeout=timeout_s)
        else:
            source.wait(timeout_s)

    def drain(self) -> None:
        """Commit every in-flight epoch: a consistent cut."""
        while self.pending:
            self.commit_oldest()

    def finish(self, n_epochs: int, collect_final_status: bool, **metrics) -> StreamResult:
        """Drain, collect the completion summary (and, if asked, the per-key
        final status at epoch ``n_epochs``'s tick), stop the actors."""
        self.drain()
        # snapshot the sliding-window rate NOW: final-status collection and
        # actor teardown below can outlast the window and trim it to zero
        rates = self.stats.rates()
        fin = None
        if collect_final_status:
            fin = self.proc.final_status_table(_epoch_ts(n_epochs)).to_pandas()
        summary = self.proc.completion_summary()
        self.proc.shutdown()
        return StreamResult(
            out_root=self.out_root,
            epochs_run=self.epochs_run,
            epochs_skipped=self.start,
            total_emitted=self.total_emitted,
            final_status=fin,
            sinks=self.sinks,
            summary=summary,
            metrics={"rates": rates, "stages": self.stats.summaries(), **metrics},
        )


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
    if not resume:
        _reset_outputs(out_root)
    groups = [
        files[i : i + files_per_epoch] for i in range(0, len(files), files_per_epoch)
    ]
    drv = _EpochDriver(
        out_root, cfg or OrderedConfig(), num_partitions, groups, resume,
        salt_hot_keys, files, checkpoint_full_every, max_inflight,
        fail_after_epoch,
    )
    for epoch in range(drv.start, len(groups)):
        drv.feed(epoch, groups[epoch], final=epoch == len(groups) - 1)
    return drv.finish(len(groups), collect_final_status)


# ---------------------------------------------------------------------------
# continuous (unbounded) feed
# ---------------------------------------------------------------------------


def _complete_autoscale(out_root: str, key: str) -> None:
    """Finish an autoscale rescale a crash interrupted. The durable marker
    (written BEFORE rescale_checkpoint starts) carries (epoch, from, to);
    rescale_checkpoint is idempotent for the same arguments, so re-running
    it completes whatever phase the crash cut short."""
    marker = Path(out_root) / "ckpt" / "_autoscale.json"
    if not marker.exists():
        return
    info = json.loads(marker.read_text())
    meta = read_lineage_meta(out_root)
    done = (
        meta is not None
        and meta.get("partitions") == info["to"]
        and not meta.get("migrating_to")
    )
    if not done:
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

    The files come from ``source.LandingSource``: newly landed Parquet
    files (producers must write-then-rename, never write in place) are
    grouped into epochs of ``files_per_epoch`` in name order, and each
    group is durably recorded under ``out_root/epochs/`` BEFORE it is fed,
    so crash + resume re-forms byte-identical epochs and the run_stream
    exactly-once protocol (checkpoint -> sink manifests, idempotent re-run)
    carries over unchanged. Every finished epoch commits at the next poll.
    A poll comes as soon as the oldest in-flight epoch finishes, or, with
    none in flight, as soon as a file lands (Linux inotify), and at the
    latest after ``poll_interval_s``. Where the directory cannot be watched
    every wait lasts ``poll_interval_s``; ``metrics["landing_wake"]`` of
    the result says which (``"inotify"`` or ``"poll"``). The loop ends when
    ``<landing_dir>/<stop_file>`` exists and every landed file has been
    processed, or after ``idle_timeout_s`` without new files; the trailing
    partial group runs then.

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
    cfg = cfg or OrderedConfig()
    if not resume:
        _reset_outputs(out_root)
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
        _complete_autoscale(out_root, cfg.key)
        meta0 = read_lineage_meta(out_root)
        if meta0 is not None and meta0.get("partitions"):
            num_partitions = int(meta0["partitions"])

    with LandingSource(
        landing_dir, out_root, files_per_epoch, poll_interval_s,
        idle_timeout_s, stop_file, resume,
    ) as src:
        groups = src.recorded
        # salting samples the head of the stream: recorded epochs first (their
        # composition is durable), else whatever has already landed
        sample_files = [f for g in groups[:2] for f in g] or src.listing()[:4]
        if salt_hot_keys and not sample_files and read_lineage_meta(out_root) is None:
            # consumer started before any producer wrote: wait (bounded by the
            # idle timeout) for the first files — salting against an empty dir
            # would permanently record a pin-free lineage
            t_wait = time.monotonic()
            while (
                not sample_files
                and not src.stopped()
                and time.monotonic() - t_wait < idle_timeout_s
            ):
                src.wait(poll_interval_s)
                sample_files = src.listing()[:4]
        if not groups and read_lineage_meta(out_root) is None:
            # a fresh run over files already landed: record the first full group
            # now, so the driver reads and splits it while the actors boot
            head = src.listing()[:files_per_epoch]
            if len(head) == files_per_epoch:
                src.record(head)
        drv = _EpochDriver(
            out_root, cfg, num_partitions, groups, resume, salt_hot_keys,
            sample_files, checkpoint_full_every, max_inflight=3,
            fail_after_epoch=fail_after_epoch,
        )
        rescales: list[dict] = []  # autoscale events (observability)
        last_rescale_epoch = -(10**9)  # cooldown anchor (no rescale yet)

        def rescale_to(new_P: int, kind: str) -> None:
            """Shared grow/shrink body: drain in-flight epochs to a consistent
            cut, write the durable intent marker, migrate every partition's
            keyed state (crash-safe two-phase rescale_checkpoint), lease new_P
            actors (the old ones go back to the pool first, so a grow reuses
            them), restore from the cut."""
            nonlocal last_rescale_epoch
            drv.drain()
            cut = src.next_epoch - 1
            old_P = drv.proc.P
            drv.proc.shutdown()
            # durable intent marker: a crash mid-rescale is finished by
            # _complete_autoscale on the next resume
            marker = Path(out_root) / "ckpt" / "_autoscale.json"
            write_json_atomic(marker, {"epoch": cut, "from": old_P, "to": new_P})
            rescale_checkpoint(out_root, cut, old_P, new_P, key=cfg.key)
            marker.unlink()
            overrides_r = (read_lineage_meta(out_root) or {}).get("overrides") or None
            drv.proc = OrderedProcessor(cfg, new_P, overrides_r)
            drv.proc.wait_ready(out_root, cut)
            rescales.append({"epoch": cut, "from": old_P, "to": drv.proc.P, "kind": kind})
            last_rescale_epoch = src.next_epoch

        def probe_state(epoch: int) -> None:
            """Append per-operator keyed-state sizes + driver RSS to
            out_root/state_probe.jsonl (soak observability; cheap O(P) poll)."""
            import resource

            sizes = ray.get([w.state_sizes.remote() for w in drv.proc.workers])
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rec = {
                "t": time.time(),
                "epoch": epoch,
                "P": drv.proc.P,
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
                f.write(json.dumps(rec) + "\n")

        def feed(epoch: int, group: list[str]) -> None:
            drv.feed(epoch, group)
            if group and probe_state_every_epochs and epoch % probe_state_every_epochs == 0:
                probe_state(epoch)

        # 1. replay already-recorded epochs (deterministic composition); an
        # empty recorded group is a flush epoch from a previous run
        for epoch in range(drv.start, len(groups)):
            feed(epoch, groups[epoch])
        low_since = None  # continuous low-backlog clock (shrink trigger)

        # 2. feed each group as the source cuts it
        while True:
            assigned_this_poll = 0
            for epoch, group in src.poll():
                feed(epoch, group)
                assigned_this_poll += 1
                if (
                    autoscale_backlog_epochs is not None
                    and drv.proc.P < autoscale_max_partitions
                    and src.backlog >= autoscale_backlog_epochs * files_per_epoch
                    # cooldown: let the grown pool chew through at least one
                    # backlog window before growing again (no flapping straight
                    # to max on one pre-landed burst)
                    and src.next_epoch - last_rescale_epoch > autoscale_backlog_epochs
                ):
                    # backlog-driven grow: drain to a consistent cut, migrate
                    # state, rebuild the pool at the larger P
                    rescale_to(
                        min(autoscale_max_partitions, drv.proc.P * autoscale_factor),
                        "grow",
                    )
                    low_since = None
            # commit every finished epoch now, not when max_inflight forces it:
            # the commit frontier is what freshness, frontier readers and the
            # lease-queue pump's acks (source.py) see. Non-blocking, so _STOP
            # and new files are still seen every poll.
            drv.commit_ready()
            # idle-driven shrink: backlog has stayed under one epoch's worth
            # of files continuously for autoscale_shrink_idle_s
            if (
                autoscale_shrink_idle_s is not None
                and src.next_epoch > 0
                and not src.exiting
            ):
                if assigned_this_poll:
                    # work flowed this poll — the stream is NOT idle (the
                    # source always cuts the backlog below one epoch's worth
                    # of files, so its length cannot tell)
                    low_since = None
                elif low_since is None:
                    low_since = time.monotonic()
                elif (
                    time.monotonic() - low_since >= autoscale_shrink_idle_s
                    and drv.proc.P > autoscale_min_partitions
                ):
                    new_P = max(
                        autoscale_min_partitions, max(1, drv.proc.P // autoscale_factor)
                    )
                    if new_P < drv.proc.P:
                        rescale_to(new_P, "shrink")
                    low_since = None
            if src.exiting:
                break
            # wake as soon as the oldest epoch finishes, so it commits at
            # once, or, with none in flight, as soon as a file lands
            drv.wait_oldest(poll_interval_s, src)

        # 3. final flush: open windows (and any terminal operator output) are
        # released by run_stream's final=True epoch; here the exit usually races
        # the stop sentinel past the last data epoch, so flush explicitly as one
        # more recorded epoch (idempotent on re-run like any other epoch).
        if any(k.holds_open for k in operator_kinds(cfg)) and src.recorded and src.recorded[-1]:
            feed(src.record([]), [])
        return drv.finish(
            src.next_epoch, collect_final_status, rescales=rescales,
            landing_wake=src.wake,
        )
