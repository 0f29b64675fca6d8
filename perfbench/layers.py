"""Per-layer tracing for the benchmark: an in-memory span recorder and an
in-process, single-threaded replay of one engine job.

The replay drives the same public functions the engine's Ray tasks and
partition actors call, in the same order and on the same inputs:

    per epoch, per map group   pq.read_table -> hash_string_array -> split_table
    per epoch, per partition   concat -> OrderedPartitionState.process
                               -> one key encode shared by the operators
                               -> window / session / join / CEP operators
                               -> write_part_atomic per sink
                               -> snapshot -> write_partition_checkpoint
    per epoch                  ManifestSink.commit_epoch per sink

so the sum of its layer self times is the engine's work without Ray, and
its sink parts must be byte-identical to the engine's for the same epochs.
No span is recorded inside ``ray_ordered_stream``; every span wraps a call
from here.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ray_ordered_stream.cep import PatternMatcher
from ray_ordered_stream.checkpoint import read_merged_checkpoint, write_partition_checkpoint
from ray_ordered_stream.partitioning import hash_string_array, split_table
from ray_ordered_stream.sink import ManifestSink, write_part_atomic
from ray_ordered_stream.state import OrderedConfig, OrderedPartitionState
from ray_ordered_stream.stream_ops import SessionAccumulator, StreamJoiner, WindowAccumulator, _dict_codes

CHECKPOINT_FULL_EVERY = 16  # run_stream's default compaction cadence


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.rec = [name, 0.0, 0.0, stack[-1] if stack else None, len(tracer.spans)]

    def __enter__(self):
        self.tracer.spans.append(self.rec)
        self.tracer._stack.append(self.rec[4])
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans held in memory as [name, start, end, parent id, span id] and
    written out once, at the end. A disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else contextlib.nullcontext()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the part covered by child
        spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, t0, t1, _, sid) in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[sid]
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, sid in self.spans:
                f.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                    "name": name, "start": t0, "end": t1}) + "\n")


def sink_names(cfg: OrderedConfig) -> list[str]:
    """The sinks epochs.run_stream opens for this config."""
    names = ["ordered", "status", "dlq"]
    if cfg.window_size_s > 0:
        names.append("windows")
    if cfg.session_gap_s > 0:
        names.append("sessions")
    if cfg.stream_join:
        names.append("joined")
    if cfg.pattern:
        names.append("matches")
    return names


def map_groups(files: list[str], P: int, cpus: int) -> list[list[str]]:
    """The engine's grouping of one epoch's files into read+split tasks."""
    n_map = max(1, min(len(files), max(P, cpus)))
    return [list(g) for g in np.array_split(np.array(files, dtype=object), n_map) if len(g)]


@dataclass
class _Partition:
    state: OrderedPartitionState
    ops: dict = field(default_factory=dict)


def _new_partition(cfg: OrderedConfig) -> _Partition:
    part = _Partition(OrderedPartitionState(cfg))
    if cfg.window_size_s > 0:
        part.ops["windows"] = WindowAccumulator(
            cfg.window_size_s, cfg.key, "ts", cfg.window_lateness_s,
            step_s=cfg.window_step_s or None, late_data=cfg.late_data)
    if cfg.session_gap_s > 0:
        part.ops["sessions"] = SessionAccumulator(
            cfg.session_gap_s, cfg.key, "ts", cfg.session_lateness_s, late_data=cfg.late_data)
    if cfg.stream_join:
        part.ops["join"] = StreamJoiner(
            cfg.key, cfg.seq, within_us=int(cfg.join_within_s * 1_000_000) or None)
    if cfg.pattern:
        part.ops["cep"] = PatternMatcher(
            list(cfg.pattern), cfg.key, cfg.seq,
            within_us=int(cfg.pattern_within_s * 1_000_000) or None,
            end_role=cfg.last_value if cfg.last_col == "role" else None)
    return part


_OP_SPAN = {"windows": "stream_ops.window", "sessions": "stream_ops.session",
            "join": "stream_ops.join", "cep": "cep.match"}
_OP_SINK = {"windows": "windows", "sessions": "sessions", "join": "joined", "cep": "matches"}


def _dir_bytes(d: Path) -> int:
    return sum(e.stat().st_size for e in os.scandir(d) if e.is_file())


def replay(groups: list[list[str]], cfg: OrderedConfig, P: int, out_root: str,
           tracer: Tracer, cpus: int, start: int = 0,
           restore_root: str | None = None) -> dict:
    """Run epochs ``start..`` of a run_stream job over ``groups`` in this
    process. With ``start > 0`` the partitions are first restored from the
    checkpoint of epoch ``start - 1`` under ``restore_root``. Returns the
    layer counters; times are in ``tracer``."""
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    key = cfg.key
    sinks = {n: ManifestSink(out_root, n) for n in sink_names(cfg)}
    parts = [_new_partition(cfg) for _ in range(P)]
    c = {"rows_in": 0, "rows_emitted": 0, "shard_bytes": 0, "sink_bytes": 0,
         "ckpt_bytes": 0, "buffered_max": 0, "part_rows": np.zeros(P, dtype=np.int64),
         "hash_calls_s": 0.0}
    if start > 0:
        for p, part in enumerate(parts):
            with tracer.span("checkpoint.restore"):
                snap = read_merged_checkpoint(restore_root, p, start - 1)
            with tracer.span("state.restore"):
                part.state = OrderedPartitionState.restore(cfg, snap)
                for name, op in part.ops.items():
                    if name in snap:
                        op.restore(snap[name])
    for epoch in range(start, len(groups)):
        final = epoch == len(groups) - 1
        full = epoch % CHECKPOINT_FULL_EVERY == 0
        status_ts = pd.Timestamp("1970-01-01") + pd.Timedelta(seconds=epoch)
        shards: list[list[pa.Table]] = [[] for _ in range(P)]
        for g in map_groups(groups[epoch], P, cpus):
            with tracer.span("ordered.decode"):
                tbls = [pq.read_table(f) for f in g]
                tbl = pa.concat_tables(tbls) if len(tbls) > 1 else tbls[0]
            if tracer.enabled:
                # split_table hashes internally; this extra call only
                # separates hash time from split time
                t0 = time.perf_counter()
                with tracer.span("partitioning.hash"):
                    hash_string_array(tbl[key])
                c["hash_calls_s"] += time.perf_counter() - t0
            with tracer.span("partitioning.split"):
                split = split_table(tbl, key, P)
            c["rows_in"] += tbl.num_rows
            for p, s in enumerate(split):
                shards[p].append(s)
                c["shard_bytes"] += s.nbytes
                c["part_rows"][p] += s.num_rows
        rows: dict[str, dict[int, int]] = {n: {} for n in sinks}
        for p, part in enumerate(parts):
            with tracer.span("ordered.concat"):
                real = [t for t in shards[p] if t.num_rows]
                batch = pa.concat_tables(real) if len(real) > 1 else real[0]
            with tracer.span("state.process"):
                emitted, status = part.state.process(batch, status_ts)
            c["rows_emitted"] += emitted.num_rows
            c["buffered_max"] = max(c["buffered_max"], part.state.buffered_row_count())
            # the engine encodes the emitted keys once for windows, sessions
            # and join (CEP re-encodes over its carry) and passes the codes
            codes_kv = None
            if emitted.num_rows and part.ops.keys() & {"windows", "sessions", "join"}:
                with tracer.span("stream_ops.encode"):
                    codes_kv = _dict_codes(emitted[key])
            side: dict[str, pa.Table | None] = {}
            for name, op in part.ops.items():
                with tracer.span(_OP_SPAN[name]):
                    got = op.update(emitted, codes_kv)
                    if name in ("windows", "sessions"):
                        side[name] = op.take_closed(final=final)
                    else:
                        side[name] = got if got.num_rows else None
            paths = {n: s.part_path(epoch, p) for n, s in sinks.items()}
            with tracer.span("sink.write"):
                out = {"ordered": write_part_atomic(emitted, paths["ordered"]),
                       "status": write_part_atomic(status, paths["status"]), "dlq": 0}
                for name, t in side.items():
                    out[_OP_SINK[name]] = write_part_atomic(t, paths[_OP_SINK[name]]) if t is not None else 0
            for n, r in out.items():
                rows[n][p] = r
                f = Path(paths[n])
                if f.exists():
                    c["sink_bytes"] += f.stat().st_size
            with tracer.span("state.snapshot"):
                snap = part.state.snapshot(dirty_only=not full)
                for name, op in part.ops.items():
                    snap[name] = op.snapshot()
            with tracer.span("checkpoint.write"):
                d = write_partition_checkpoint(out_root, p, epoch, snap, full=full)
                part.state.mark_clean()
            c["ckpt_bytes"] += _dir_bytes(Path(d))
        with tracer.span("sink.commit"):
            for n, s in sinks.items():
                s.commit_epoch(epoch, rows[n])
    c["state_size"] = sum(
        v for part in parts for op in part.ops.values()
        for k, v in op.state_size().items() if k != "keys")
    return c
