"""``ray job submit`` entrypoint for the streaming engine.

The north rule's deployment shape is ``ray job submit`` onto a fixed-size
multi-node cluster; this module is that job script:

    ray job submit --working-dir . -- \\
        python -m ray_ordered_stream.job \\
        --input /data/landing --out /data/out \\
        --partitions 256 --files-per-epoch 16 \\
        --window-size 3600 --session-gap 900 --stream-join \\
        --pattern view,click,purchase

Inside a submitted job ``ray.init(address="auto")`` attaches to the
cluster; standalone it starts a local session (guarded — never re-inits).
The state actors are always SPREAD across the cluster's nodes
(ordered.OrderedWorker); size ``--partitions`` ~ total cores. Exactly-once
resume is the default: re-submitting the same job after a failure skips
committed epochs and continues from the consistent checkpoint cut
(epochs.run_stream protocol).
"""

from __future__ import annotations

import argparse
import json
import sys


def build_config(args) -> "OrderedConfig":
    from .state import OrderedConfig

    return OrderedConfig(
        window_size_s=args.window_size,
        window_step_s=args.window_step,
        window_lateness_s=args.window_lateness,
        session_gap_s=args.session_gap,
        session_lateness_s=args.session_lateness,
        late_data=args.late_data,
        stream_join=args.stream_join,
        join_within_s=args.join_within,
        pattern=tuple(args.pattern.split(",")) if args.pattern else (),
        pattern_within_s=args.pattern_within,
        absent_role=args.absent_role,
        absent_within_s=args.absent_within,
        pattern_lateness_s=args.pattern_lateness,
        with_book=args.with_book,
        status_interval_s=args.status_interval,
        state_ttl_s=args.state_ttl,
        warmup_rows=args.warmup_rows,
        state_factory=(
            _resolve_user_state(args.user_state) if args.user_state else None
        ),
    )


def _resolve_user_state(spec: str):
    from .userstate import resolve_factory

    return resolve_factory(spec)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--input", required=True,
                    help="landing directory of arrival-ordered Parquet files")
    ap.add_argument("--out", required=True, help="output root (sinks + checkpoints)")
    ap.add_argument("--partitions", type=int, default=4)
    ap.add_argument("--files-per-epoch", type=int, default=16)
    ap.add_argument("--max-inflight", type=int, default=3)
    ap.add_argument("--checkpoint-full-every", type=int, default=16)
    ap.add_argument("--continuous", action="store_true",
                    help="poll --input for newly landed files (unbounded mode)")
    ap.add_argument("--idle-timeout", type=float, default=30.0)
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--window-size", type=float, default=0.0)
    ap.add_argument("--window-step", type=float, default=0.0)
    ap.add_argument("--window-lateness", type=float, default=0.0)
    ap.add_argument("--session-gap", type=float, default=0.0)
    ap.add_argument("--session-lateness", type=float, default=0.0)
    ap.add_argument("--late-data", choices=("merge", "drop"), default="merge",
                    help="window/session late-data policy: 'drop' diverts "
                         "expired contributions to a 'late' side-output sink")
    ap.add_argument("--stream-join", action="store_true")
    ap.add_argument("--join-within", type=float, default=0.0)
    ap.add_argument("--pattern", default="",
                    help="comma-separated roles for CEP matching")
    ap.add_argument("--pattern-within", type=float, default=0.0)
    ap.add_argument("--absent-role", default="",
                    help="with --pattern: CEP negation — match only when no "
                         "same-key turn with this role follows the pattern")
    ap.add_argument("--absent-within", type=float, default=0.0,
                    help="event-time window (s) for --absent-role "
                         "(0 = never followed by)")
    ap.add_argument("--pattern-lateness", type=float, default=0.0,
                    help="watermark margin (s) before firing absence matches")
    ap.add_argument("--with-book", action="store_true")
    ap.add_argument("--user-state", default="",
                    help="pluggable MutableState factory as "
                         "'package.module:callable' (userstate.py recipe); "
                         "its results flow to the 'user' sink")
    ap.add_argument("--status-interval", type=float, default=0.0)
    ap.add_argument("--autoscale-backlog-epochs", type=int, default=None,
                    help="continuous mode: grow partitions when this many "
                         "epochs of files are backlogged (None disables)")
    ap.add_argument("--autoscale-factor", type=int, default=2)
    ap.add_argument("--autoscale-max-partitions", type=int, default=64)
    ap.add_argument("--autoscale-shrink-idle", type=float, default=None,
                    help="continuous mode: shrink partitions by the factor "
                         "after this many seconds of sustained low backlog "
                         "(None disables scale-down)")
    ap.add_argument("--autoscale-min-partitions", type=int, default=1)
    ap.add_argument("--state-ttl", type=float, default=0.0,
                    help="event-time TTL (seconds) for keyed window/session/"
                         "join/CEP state; 0 disables eviction")
    ap.add_argument("--salt-hot-keys", action="store_true",
                    help="sample the stream head and pin the heaviest keys "
                         "round-robin across partitions (pins persist in the "
                         "checkpoint lineage; resume reuses them)")
    ap.add_argument("--warmup-rows", type=int, default=8192)
    ap.add_argument(
        "--pipeline",
        choices=("ordered", "dedup", "neardup", "embdedup", "curate", "pack",
                 "publish"),
        default="ordered",
        help="which pipeline to run: the ordered engine (default), the "
             "content-dedup streams (stream_dedup.py; --input is then a "
             "documents feed with doc_id/text), the streaming sequence "
             "packer (stream_pack.py: fixed-budget training sequences "
             "with exactly-once carry state), the BATCH curation "
             "pipeline (exact dedup -> percentile quality filter -> "
             "overlapping chunking -> resumable export), or the producer "
             "side of the push-source shim (publish --input's parquet "
             "files as messages onto the lease queue at --out; no Ray)")
    ap.add_argument("--pack-budget", type=int, default=512,
                    help="pack: tokens per training sequence")
    ap.add_argument("--pack-vocab", type=int, default=65536,
                    help="pack: vocabulary size for the stable token ids")
    ap.add_argument(
        "--rescale", type=int, default=None, metavar="NEW_P",
        help="dedup/neardup/pack: migrate the existing checkpoint under "
             "--out to NEW_P partitions before running (set --partitions "
             "to the same value); the ordered engine rescales via "
             "rescale.rescale_checkpoint (library API)")
    ap.add_argument("--chunk-size", type=int, default=256,
                    help="curate: tokens per chunk window")
    ap.add_argument("--chunk-stride", type=int, default=192,
                    help="curate: tokens the window advances per chunk")
    ap.add_argument("--quality-q", type=float, default=0.1,
                    help="curate: drop docs below this word-count quantile")
    ap.add_argument("--dedup-id-col", default="doc_id")
    ap.add_argument("--dedup-text-col", default="text")
    ap.add_argument(
        "--dedup-ttl-epochs", type=int, default=None,
        help="dedup/neardup: evict fingerprints (or band hashes) kept "
             "more than this many epochs ago (bounded state on unbounded "
             "streams; default: dedup forever)",
    )
    ap.add_argument("--address", default="auto",
                    help="Ray address ('auto' in a submitted job, 'local' standalone)")
    ap.add_argument("--source", choices=("landing", "queue"),
                    default="landing",
                    help="'queue' (--continuous only): --input is a "
                         "FileLeaseQueue root (see --pipeline publish); an "
                         "in-job pump leases messages, delivers them into "
                         "<out>/landing, and acks once the committed "
                         "manifest frontier covers them — at-least-once "
                         "delivery with redelivery on lease expiry, "
                         "exactly-once output")
    ap.add_argument("--lease-s", type=float, default=30.0,
                    help="queue source: lease (ack deadline) seconds")
    ap.add_argument("--close", action="store_true",
                    help="publish: mark the queue closed after publishing "
                         "(consumers drain and terminate; omit to keep the "
                         "topic open for more publishes)")
    args = ap.parse_args(argv)

    if args.pipeline == "publish":
        from pathlib import Path

        from .source import FileLeaseQueue

        files = [str(f) for f in sorted(Path(args.input).glob("*.parquet"))]
        q = FileLeaseQueue(args.out)
        ids = q.publish(files) if files else []
        if args.close:
            q.close()
        print(json.dumps({"pipeline": "publish", "published": len(ids),
                          "closed": q.is_closed(), **q.counts()}))
        return 0

    import ray

    if not ray.is_initialized():
        try:
            ray.init(address=args.address, logging_level="ERROR")
        except ConnectionError:
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR")

    from pathlib import Path

    from .epochs import run_stream, run_stream_continuous

    if args.pipeline == "curate":
        import ray.data

        from .functions.chunk import chunk_documents
        from .functions.dedup import exact_dedup
        from .functions.sketch import quantile_threshold_filter
        from .functions.textstats import quality_score
        from .sink import export_dataset

        docs = ray.data.read_parquet(
            args.input, columns=[args.dedup_id_col, args.dedup_text_col]
        )
        unique = exact_dedup(
            docs, id_col=args.dedup_id_col, text_col=args.dedup_text_col
        )
        scored = quality_score(unique)
        kept, thr = quantile_threshold_filter(scored, "n_words", args.quality_q)
        chunks = chunk_documents(
            kept.select_columns([args.dedup_id_col, args.dedup_text_col]),
            size=args.chunk_size,
            stride=args.chunk_stride,
            id_col=args.dedup_id_col,
            text_col=args.dedup_text_col,
        )
        summary = export_dataset(chunks, args.out, name="curated")
        print(json.dumps({"pipeline": "curate",
                          "quality_threshold_words": int(thr), **summary}))
        return 0

    if args.rescale is not None:
        if args.pipeline not in ("dedup", "neardup", "pack"):
            print(json.dumps(
                {"error": "--rescale supports dedup|neardup|pack"}
            ))
            return 2
        if args.rescale != args.partitions:
            print(json.dumps(
                {"error": "--rescale must equal --partitions "
                          "(the run after migration uses --partitions)"}
            ))
            return 2
        if args.pipeline == "pack":
            from .stream_pack import rescale_pack_checkpoint

            rescale_pack_checkpoint(args.out, args.rescale)
        else:
            from .stream_dedup import rescale_dedup_checkpoint

            rescale_dedup_checkpoint(
                args.out, args.rescale, near=(args.pipeline == "neardup")
            )

    if args.pipeline == "pack":
        from .stream_pack import run_pack_stream

        files = [str(f) for f in sorted(Path(args.input).glob("*.parquet"))]
        if not files:
            print(json.dumps({"error": f"no parquet files in {args.input}"}))
            return 2
        sink, epochs_run, epochs_skipped, packs = run_pack_stream(
            files, args.out,
            budget=args.pack_budget,
            vocab_size=args.pack_vocab,
            id_col=args.dedup_id_col,
            text_col=args.dedup_text_col,
            num_partitions=args.partitions,
            files_per_epoch=args.files_per_epoch,
            resume=not args.no_resume,
        )
        print(json.dumps({
            "pipeline": "pack", "epochs_run": epochs_run,
            "epochs_skipped": epochs_skipped, "packs": packs,
            "committed_rows": sink.total_committed_rows(),
        }))
        return 0

    if args.pipeline in ("dedup", "neardup", "embdedup"):
        from .stream_dedup import (
            run_dedup_stream,
            run_dedup_stream_continuous,
            run_neardup_stream,
        )

        common = dict(
            id_col=args.dedup_id_col,
            text_col=args.dedup_text_col,
            num_partitions=args.partitions,
            files_per_epoch=args.files_per_epoch,
            compact_every=args.checkpoint_full_every,
        )
        if args.pipeline == "embdedup":
            # the hyperplane stream rides the shared neardup machinery
            common.update(sig="hyperplane", k=0, bands=4, num_perm=192,
                          seed=13,
                          columns=[args.dedup_id_col, args.dedup_text_col])
        if args.dedup_ttl_epochs is not None:
            common["ttl_epochs"] = args.dedup_ttl_epochs
        if args.continuous:
            res = run_dedup_stream_continuous(
                args.input, args.out, idle_timeout_s=args.idle_timeout,
                near=(args.pipeline in ("neardup", "embdedup")), **common,
            )
        else:
            files = [str(f) for f in sorted(Path(args.input).glob("*.parquet"))]
            if not files:
                print(json.dumps({"error": f"no parquet files in {args.input}"}))
                return 2
            if args.pipeline == "neardup":
                runner = run_neardup_stream
            elif args.pipeline == "embdedup":
                runner = run_neardup_stream  # common carries sig/planes
            else:
                runner = run_dedup_stream
            res = runner(
                files, args.out, resume=not args.no_resume, **common,
            )
        print(
            json.dumps(
                {
                    "pipeline": args.pipeline,
                    "epochs_run": res.epochs_run,
                    "epochs_skipped": res.epochs_skipped,
                    "total_kept": res.total_kept,
                    "total_dropped": res.total_dropped,
                    "committed_rows": res.sink.total_committed_rows(),
                }
            )
        )
        return 0

    cfg = build_config(args)
    if args.source == "queue":
        if not args.continuous:
            print(json.dumps({"error": "--source queue requires --continuous"}))
            return 2
        import threading

        from .source import run_pump_loop

        land = str(Path(args.out) / "landing")
        Path(land).mkdir(parents=True, exist_ok=True)
        # clear a stale stop marker from a previous drained run BEFORE the
        # pump thread starts (run_pump_loop also does this, but doing it
        # here makes it deterministic w.r.t. the consumer's first poll)
        try:
            (Path(land) / "_STOP").unlink()
        except OSError:
            pass
        pump_stop = threading.Event()
        pump_finish = threading.Event()
        pump_stats: dict = {}

        def _pump():
            pump_stats.update(run_pump_loop(
                args.input, land, args.out,
                max_n=args.files_per_epoch * 2, lease_s=args.lease_s,
                stop=pump_stop, finish=pump_finish,
            ))

        pump_th = threading.Thread(target=_pump, daemon=True)
        pump_th.start()
        try:
            res = run_stream_continuous(
                land, args.out, cfg,
                num_partitions=args.partitions,
                files_per_epoch=args.files_per_epoch,
                idle_timeout_s=args.idle_timeout,
                resume=not args.no_resume,
                checkpoint_full_every=args.checkpoint_full_every,
                salt_hot_keys=args.salt_hot_keys,
                autoscale_backlog_epochs=args.autoscale_backlog_epochs,
                autoscale_factor=args.autoscale_factor,
                autoscale_max_partitions=args.autoscale_max_partitions,
                autoscale_shrink_idle_s=args.autoscale_shrink_idle,
                autoscale_min_partitions=args.autoscale_min_partitions,
            )
        finally:
            # drain-aware shutdown: signal the pump FIRST that the commit
            # frontier is final — it then steps without sleeping until a
            # step acks/delivers nothing and exits by itself, so an
            # unclosed queue no longer burns a fixed 30 s grace (the old
            # join-before-signal ordering). The hard stop is only the
            # backstop for a wedged pump.
            pump_finish.set()
            pump_th.join(timeout=30)
            pump_stop.set()
        pump_th.join(timeout=60)
        print(json.dumps({
            "out_root": res.out_root,
            "epochs_run": res.epochs_run,
            "epochs_skipped": res.epochs_skipped,
            "total_emitted": res.total_emitted,
            "summary": res.summary,
            "source": {"kind": "queue", **pump_stats},
            "sinks": {k: "committed" for k in res.sinks},
        }))
        return 0
    if args.continuous:
        res = run_stream_continuous(
            args.input, args.out, cfg,
            num_partitions=args.partitions,
            files_per_epoch=args.files_per_epoch,
            idle_timeout_s=args.idle_timeout,
            resume=not args.no_resume,
            checkpoint_full_every=args.checkpoint_full_every,
            salt_hot_keys=args.salt_hot_keys,
            autoscale_backlog_epochs=args.autoscale_backlog_epochs,
            autoscale_factor=args.autoscale_factor,
            autoscale_max_partitions=args.autoscale_max_partitions,
            autoscale_shrink_idle_s=args.autoscale_shrink_idle,
            autoscale_min_partitions=args.autoscale_min_partitions,
        )
    else:
        files = [str(f) for f in sorted(Path(args.input).glob("*.parquet"))]
        if not files:
            print(json.dumps({"error": f"no parquet files in {args.input}"}))
            return 2
        res = run_stream(
            files, args.out, cfg,
            num_partitions=args.partitions,
            files_per_epoch=args.files_per_epoch,
            resume=not args.no_resume,
            checkpoint_full_every=args.checkpoint_full_every,
            max_inflight=args.max_inflight,
            salt_hot_keys=args.salt_hot_keys,
        )
    print(
        json.dumps(
            {
                "out_root": res.out_root,
                "epochs_run": res.epochs_run,
                "epochs_skipped": res.epochs_skipped,
                "total_emitted": res.total_emitted,
                "summary": res.summary,
                "rates": res.metrics.get("rates", {}),
                "sinks": {k: "committed" for k in res.sinks},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
