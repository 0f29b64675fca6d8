"""Streaming exact content-dedup of an unbounded document feed.

A second streaming pipeline on the engine's conventions (epochs.py style:
micro-batch epochs over an arrival-ordered file list, per-partition state
actors, ManifestSink exactly-once commit, per-epoch checkpoint deltas with
crash-resume): each document routes by its md5(text) fingerprint to a
state partition; the partition keeps the FIRST arrival of each fingerprint
and drops every later copy. This generalizes the ordered core's
duplicate-sequence discard (C1, docs/pipeline-design.md:117-122 in the
reference) from (key, seq) re-delivery to content identity — the streaming
half of ``functions/dedup.exact_dedup``, the shape a crawl-feed dedup runs
at 100 TB (the seen-state is ~16 bytes per distinct document and never
leaves its partition; full re-runs are never needed to extend the corpus).

Exactly-once: deterministic keep decision (first by arrival index) + the
sink's staged-part/manifest commit + per-epoch fingerprint DELTA
checkpoints. Commit order is sink manifest -> epoch checkpoint marker, so
a crash between them re-runs the epoch against the pre-epoch seen-state
and overwrites parts byte-identically.

Fingerprints are the full 128-bit md5 carried as two uint64 columns;
membership tests are vectorized (searchsorted on the high word, low-word
confirmation only on the rare high-word run) — no per-row Python in the
actor hot path.

``_run_marker_stream`` is the one epoch loop and checkpoint layout of the
marker streams: this one, the near-dedup streams below and stream_pack.py's
packer, over a file list or ``source.LandingSource`` (continuous: one
session, actors started once, groups recorded under ``<out_root>/epochs/``).
Layout under ``<out_root>/ckpt``::

    meta.json                    # partitions + the stream's parameters
    epoch-<e>.json               # the commit marker of epoch e
    delta-<e>/part-<p>.parquet   # partition p's checkpoint of epoch e (the
                                 # dedup streams: what it kept; the pack
                                 # stream: its whole carry)
    full-<e>.json                # commit marker of the snapshot below
    full-<e>/part-<p>.parquet    # partition p's whole state after epoch e
"""

from __future__ import annotations

import json
import shutil
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .checkpoint import write_json_atomic
from .sink import ManifestSink, write_part_atomic
from .source import LandingSource


_MD5_CON = None


def _md5_connection():
    """Process-cached single-threaded DuckDB connection for the vectorized
    md5 kernel (connecting per batch costs more than small batches' hash)."""
    global _MD5_CON
    if _MD5_CON is None:
        import duckdb

        _MD5_CON = duckdb.connect()
        _MD5_CON.execute("SET threads=1")
    return _MD5_CON


def _duckdb_md5(texts: pa.Array, select: str) -> pa.Table | None:
    """The one md5 routing: ``select`` (DuckDB md5 expressions over the
    column ``t``) over ``texts``, or None where hashlib is the faster
    kernel or DuckDB fails. DuckDB's vectorized C++ md5 runs
    single-threaded inside the already file-parallel read task (measured
    ~2.2x over the hashlib loop, which was the dedup streams' dominant
    ingest cost — VERDICT r2 #6). Measured crossover (BASELINE.md): DuckDB
    wins on SHORT rows (1.6x at 128 B, where per-call Python overhead
    dominates); OpenSSL via hashlib wins on LONG rows (1.3-1.5x at >= 1 KB,
    raw digest throughput). Routed by mean row length."""
    if texts.nbytes / max(1, len(texts)) >= 640:
        return None
    try:
        tbl = pa.table({"t": texts})  # zero-copy view
        return _md5_connection().execute(f"SELECT {select} FROM tbl").arrow()
    except Exception:
        return None


def _hashlib_md5(texts: pa.Array) -> list:
    """hashlib md5 objects per row (nulls hash as ''), over raw UTF-8
    buffer slices when there is no null (no per-row string decode)."""
    import hashlib

    md5 = hashlib.md5
    if texts.null_count == 0 and isinstance(texts, pa.StringArray):
        bufs = texts.buffers()
        off = np.frombuffer(bufs[1], dtype=np.int32)[
            texts.offset : texts.offset + len(texts) + 1
        ]
        data = memoryview(bufs[2])
        return [md5(data[off[i] : off[i + 1]]) for i in range(len(texts))]
    return [md5((s or "").encode()) for s in texts.to_pylist()]


def _fingerprints(texts: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 pairs of md5(text) per row: the digest split
    big-endian, the same from either kernel, so checkpoints stay compatible
    across paths. Nulls hash as ''."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if len(texts) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    res = _duckdb_md5(
        texts,
        "md5_number_upper(coalesce(t,'')) AS hi,"
        " md5_number_lower(coalesce(t,'')) AS lo",
    )
    if res is not None:
        # DuckDB returns each half little-endian; byteswap restores the
        # big-endian ints the hashlib path (and old checkpoints) use
        return (
            res["hi"].to_numpy().astype(np.uint64).byteswap(),
            res["lo"].to_numpy().astype(np.uint64).byteswap(),
        )
    d = b"".join(h.digest() for h in _hashlib_md5(texts))
    words = np.frombuffer(d, dtype=">u8").astype(np.uint64).reshape(-1, 2)
    return words[:, 0].copy(), words[:, 1].copy()


def md5_hex(texts: pa.Array) -> pa.Array:
    """Hex md5 per row, through the same routing as ``_fingerprints``
    (shared by the batch Fingerprinter in functions/textstats.py — one md5
    kernel for the whole repo). Nulls hash as ''."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if len(texts) == 0:
        return pa.array([], pa.string())
    res = _duckdb_md5(texts, "md5(coalesce(t,'')) AS h")
    if res is not None:
        return res["h"].combine_chunks()
    return pa.array([h.hexdigest() for h in _hashlib_md5(texts)], pa.string())


def _member(
    seen_hi: np.ndarray, seen_lo: np.ndarray, hi: np.ndarray, lo: np.ndarray
) -> np.ndarray:
    """Vectorized membership of (hi, lo) pairs in the sorted seen arrays."""
    if not len(seen_hi) or not len(hi):
        return np.zeros(len(hi), dtype=bool)
    left = np.searchsorted(seen_hi, hi, side="left")
    right = np.searchsorted(seen_hi, hi, side="right")
    out = np.zeros(len(hi), dtype=bool)
    span = right - left
    one = span == 1  # the overwhelmingly common case: unique high word
    out[one] = seen_lo[left[one]] == lo[one]
    for j in np.flatnonzero(span > 1):  # hash-collision runs: ~never
        out[j] = lo[j] in seen_lo[left[j] : right[j]]
    return out


# ---------------------------------------------------------------------------
# The marker streams' epoch loop (exact dedup, near-dedup, pack)
# ---------------------------------------------------------------------------

# epochs between full snapshots: the pack stream's cadence and the dedup
# streams' default
COMPACT_EVERY = 8


def _read_with_arrival(path: str, columns: list[str] | None, base: int) -> pa.Table:
    """One feed file with an ``arrival`` column: each row's index in the
    whole feed (``base`` is the row count of every earlier file)."""
    t = pq.read_table(path, columns=columns)
    return t.append_column(
        "arrival", pa.array(base + np.arange(t.num_rows), pa.int64())
    )


def _ep(f: Path) -> int:
    """The epoch in a checkpoint name: ``epoch-<e>.json``, ``delta-<e>``,
    ``full-<e>`` or ``full-<e>.json``."""
    return int(f.stem.split("-")[1])


def _part(d: Path, p: int) -> str:
    return str(d / f"part-{p:05d}.parquet")


def _committed_epochs(ck: Path) -> set[int]:
    return {_ep(f) for f in ck.glob("epoch-*.json")}


def _restore_plan(ck: Path, done: set[int]) -> list[Path]:
    """The checkpoint directories that rebuild every partition's state as of
    the newest committed epoch, oldest first: the newest ``full-<e>``
    snapshot of a committed epoch, then the ``delta-<e>`` of every later
    committed epoch. Partition p's file in each is ``_part(d, p)``."""
    base = max((_ep(f) for f in ck.glob("full-*.json") if _ep(f) in done), default=-1)
    return ([ck / f"full-{base:05d}"] if base >= 0 else []) + [
        ck / f"delta-{e:05d}" for e in sorted(done) if e > base
    ]


def _prune(ck: Path, epoch: int) -> None:
    """Delete what the full snapshot of ``epoch`` supersedes: the older
    snapshots (markers first) and every delta up to ``epoch``."""
    stale = [f for f in ck.glob("full-*.json") if _ep(f) < epoch]
    stale += [d for d in ck.glob("full-*") if d.is_dir() and _ep(d) < epoch]
    stale += [d for d in ck.glob("delta-*") if _ep(d) <= epoch]
    for f in stale:
        if f.is_dir():
            shutil.rmtree(f)
        else:
            f.unlink()


def _refs(refs) -> list:
    """The refs of a call with ``num_returns=n`` as a list of n. Ray
    returns one bare ``ObjectRef`` when n is 1; the callee then returns its
    one value bare too (``_returns``)."""
    return [refs] if isinstance(refs, ray.ObjectRef) else refs


def _returns(values: list):
    """What a callee submitted with ``num_returns=len(values)`` returns:
    Ray stores a one-value return as one object, so that is the value."""
    return values[0] if len(values) == 1 else values


def _summed(stats: list[dict]) -> dict:
    return {k: int(sum(s[k] for s in stats)) for k in stats[0]}


def _process_step(actors, epoch: int, shards, part, delta) -> list[dict]:
    """The epoch step of a stream with one actor per partition: partition
    p's ``process_epoch`` takes shard p of every file."""
    return ray.get([
        w.process_epoch.remote(epoch, part(p), delta(p), *[s[p] for s in shards])
        for p, w in enumerate(actors)
    ])


def _run_marker_stream(
    feed,
    out_root: str,
    sink_name: str,
    params: dict,
    make_actors,
    read,
    step,
    num_partitions: int,
    files_per_epoch: int,
    resume: bool,
    fail_after_epoch: int | None,
    compact_every: int,
) -> tuple[ManifestSink, int, int, Counter]:
    """Drive an arrival-ordered feed epoch by epoch through a marker stream.

    ``feed`` is a file list, cut into epochs of ``files_per_epoch``, or a
    ``source.LandingSource``, whose groups are fed as they land. Per stream
    it is given the sink's name; ``params``, the meta entries a
    resume must match; ``make_actors()``, the P state partitions (with
    ``restore(files)`` and ``write_full(path)``) followed by any helper
    actors the step uses; ``read(path, base)``, which submits one file's
    read+split task (``base``: the arrival index of its first row) and
    returns its shard refs; and ``step(actors, epoch, shards, part,
    delta)``, which runs one epoch over the per-file shard lists, writes
    partition p's sink part to ``part(p)`` and its checkpoint delta to
    ``delta(p)``, and returns one stats dict per partition whose first
    entry is the partition's sink rows.

    A file's ``base`` counts the rows of every earlier file of the feed
    (skipped epochs' too), read as each file arrives.
    ``resume=True`` skips the committed epochs and restores the state
    partitions from ``_restore_plan``; ``resume=False`` first deletes the
    sink and the checkpoint. Per epoch the sink manifest commits first, then
    the marker (the partitions' stats summed), so a crash between them
    re-runs the epoch against the pre-epoch state and overwrites its parts
    byte-identically. Every ``compact_every`` epochs each state partition
    writes its whole state to ``full-<e>``, and the snapshots and deltas it
    supersedes are deleted, so the checkpoint stays bounded on an unbounded
    stream. Returns (sink, epochs run, epochs skipped, the run epochs'
    stats summed)."""
    P = num_partitions
    ck = Path(out_root) / "ckpt"
    ck.mkdir(parents=True, exist_ok=True)
    _complete_dedup_rescale(ck)  # finish any half-swapped rescale first
    sink = ManifestSink(out_root, sink_name)
    meta_path = ck / "meta.json"
    if not resume:
        # a fresh run inherits neither checkpoints nor committed epochs
        # (phantom epochs of an earlier, longer run)
        shutil.rmtree(ck)
        ck.mkdir()
        sink.reset()
    elif meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if meta["partitions"] != P:
            raise ValueError(
                f"checkpoint has {meta['partitions']} partitions, got {P}"
            )
        for name, val in params.items():
            # the restored state was built under these (band hashes, pack
            # cuts): resuming under others would silently mix the two
            if meta.get(name) != val:
                raise ValueError(
                    f"checkpoint was written with {name}={meta.get(name)}, "
                    f"got {name}={val}; resume requires identical stream "
                    "parameters"
                )
    old = sorted(ck.glob("carry-*"))
    if old:
        raise ValueError(
            f"{old[0]} is a pack checkpoint of an older layout, which "
            "cannot be resumed; pass resume=False to restart"
        )
    write_json_atomic(meta_path, {"partitions": P, **params})

    groups = (
        feed.groups() if isinstance(feed, LandingSource)
        else [feed[i : i + files_per_epoch] for i in range(0, len(feed), files_per_epoch)]
    )
    base = 0  # the arrival index of the next file's first row
    done = _committed_epochs(ck)
    actors = make_actors()
    epochs_run = epochs_skipped = 0
    totals: Counter = Counter()
    try:
        if done:
            plan = _restore_plan(ck, done)
            ray.get([
                w.restore.remote([_part(d, p) for d in plan])
                for p, w in enumerate(actors[:P])
            ])
        for e, group in enumerate(groups):
            bases = []
            for f in group:
                bases.append(base)
                base += pq.read_metadata(f).num_rows
            if e in done:
                epochs_skipped += 1
                continue
            # one read+split task PER FILE: the hash or signature kernel is
            # the epoch's dominant cost and must run file-parallel (measured
            # 3x the whole wall when serialized)
            shards = [_refs(read(f, b)) for f, b in zip(group, bases)]
            delta = ck / f"delta-{e:05d}"
            stats = step(
                actors, e, shards,
                lambda p: sink.part_path(e, p), lambda p: _part(delta, p),
            )
            sink.commit_epoch(
                e, {p: next(iter(s.values())) for p, s in enumerate(stats)}
            )
            summed = _summed(stats)
            write_json_atomic(
                ck / f"epoch-{e:05d}.json",
                {"epoch": e, **summed, "committed_at": time.time()},
            )
            totals.update(summed)
            epochs_run += 1
            if compact_every and (e + 1) % compact_every == 0:
                full = ck / f"full-{e:05d}"
                counts = ray.get([
                    w.write_full.remote(_part(full, p))
                    for p, w in enumerate(actors[:P])
                ])
                write_json_atomic(
                    ck / f"full-{e:05d}.json", {"epoch": e, **_summed(counts)}
                )
                _prune(ck, e)
            if fail_after_epoch is not None and e >= fail_after_epoch:
                raise RuntimeError(f"injected failure after epoch {e}")
    finally:
        for w in actors:
            ray.kill(w)
    return sink, epochs_run, epochs_skipped, totals


def _read_seen(path: str) -> pa.Table:
    """One delta or full file of a dedup partition's seen-state. Each row
    carries the epoch it was kept in (``ep``); a file without that column
    is of an older layout whose epochs are unknown, so it raises."""
    t = pq.read_table(path)
    if "ep" not in t.column_names:
        raise ValueError(
            f"{path} has no 'ep' column: a dedup checkpoint of an older "
            "layout, which cannot be resumed or rescaled; pass resume=False "
            "to restart"
        )
    return t


@ray.remote(num_cpus=0)
class DedupPartition:
    """Per-partition seen-fingerprint state + actor-direct sink writes.

    ``ttl_epochs`` bounds state on an unbounded stream: a fingerprint
    KEPT more than that many epochs ago is EVICTED and a later copy is
    treated as new — dedup within a horizon, the practical semantics when
    exact forever-dedup state would outgrow the cluster. Duplicates do
    NOT extend the horizon (a refresh would need extra checkpoint-delta
    records; anchoring on the kept occurrence keeps resume deterministic
    from the existing deltas). ``None`` keeps exact forever semantics."""

    def __init__(self, partition: int, ttl_epochs: int | None = None):
        self.partition = partition
        self.ttl = ttl_epochs
        # sorted by (hi, lo); ep = last epoch each fingerprint was seen
        self.seen_hi = np.empty(0, dtype=np.uint64)
        self.seen_lo = np.empty(0, dtype=np.uint64)
        self.seen_ep = np.empty(0, dtype=np.int64)
        self.dropped = 0

    def restore(self, files: list[str]) -> int:
        ts = [_read_seen(f) for f in files]

        def col(name, own):
            return np.concatenate([own] + [
                t[name].to_numpy(zero_copy_only=False).astype(own.dtype) for t in ts
            ])

        self._set_sorted_dedup(
            col("fp_hi", self.seen_hi),
            col("fp_lo", self.seen_lo),
            col("ep", self.seen_ep),
        )
        return len(self.seen_hi)

    def _set_sorted_dedup(self, hi, lo, ep) -> None:
        """Sort by (hi, lo) keeping the LATEST epoch per fingerprint."""
        order = np.lexsort((ep, lo, hi))
        hi, lo, ep = hi[order], lo[order], ep[order]
        if len(hi):
            last = np.empty(len(hi), dtype=bool)
            last[-1] = True
            last[:-1] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
            hi, lo, ep = hi[last], lo[last], ep[last]
        self.seen_hi, self.seen_lo, self.seen_ep = hi, lo, ep

    def write_full(self, path: str) -> dict:
        """Compaction: the whole seen-set as one file (same schema as the
        deltas, so restore treats it as just another input)."""
        write_part_atomic(
            pa.table(
                {"fp_hi": pa.array(self.seen_hi, pa.uint64()),
                 "fp_lo": pa.array(self.seen_lo, pa.uint64()),
                 "ep": pa.array(self.seen_ep, pa.int64())}
            ),
            path,
        )
        return {"fingerprints": len(self.seen_hi)}

    def process_epoch(
        self, epoch: int, part_path: str, delta_path: str, *shards: pa.Table
    ) -> dict:
        if self.ttl is not None and len(self.seen_ep):
            live = epoch - self.seen_ep <= self.ttl
            if not live.all():
                self.seen_hi = self.seen_hi[live]
                self.seen_lo = self.seen_lo[live]
                self.seen_ep = self.seen_ep[live]
        real = [t for t in shards if t.num_rows]
        if not real:
            empty = shards[0].slice(0, 0) if shards else pa.table({})
            write_part_atomic(empty.drop_columns(
                [c for c in ("fp_hi", "fp_lo", "arrival") if c in empty.column_names]
            ), part_path)
            write_part_atomic(
                pa.table(
                    {"fp_hi": pa.array([], pa.uint64()),
                     "fp_lo": pa.array([], pa.uint64()),
                     "ep": pa.array([], pa.int64())}
                ),
                delta_path,
            )
            return {"kept": 0, "dropped": 0}
        tbl = (
            pa.concat_tables(real, promote_options="none")
            if len(real) > 1
            else real[0]
        )
        hi = tbl["fp_hi"].to_numpy(zero_copy_only=False).astype(np.uint64)
        lo = tbl["fp_lo"].to_numpy(zero_copy_only=False).astype(np.uint64)
        arr = tbl["arrival"].to_numpy(zero_copy_only=False).astype(np.int64)
        # first-per-fingerprint within the epoch (by arrival), vectorized
        order = np.lexsort((arr, lo, hi))
        h_s, l_s = hi[order], lo[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = (h_s[1:] != h_s[:-1]) | (l_s[1:] != l_s[:-1])
        keep = np.zeros(len(order), dtype=bool)
        keep[order[first]] = True
        # drop epoch-firsts already seen in earlier epochs
        cand = np.flatnonzero(keep)
        dup = _member(self.seen_hi, self.seen_lo, hi[cand], lo[cand])
        keep[cand[dup]] = False
        kept_rows = np.flatnonzero(keep)
        kept_rows = kept_rows[np.argsort(arr[kept_rows], kind="stable")]
        out = tbl.take(pa.array(kept_rows)).drop_columns(
            ["fp_hi", "fp_lo", "arrival"]
        )
        write_part_atomic(out, part_path)
        new_hi, new_lo = hi[kept_rows], lo[kept_rows]
        new_ep = np.full(len(kept_rows), epoch, dtype=np.int64)
        write_part_atomic(
            pa.table(
                {"fp_hi": pa.array(new_hi, pa.uint64()),
                 "fp_lo": pa.array(new_lo, pa.uint64()),
                 "ep": pa.array(new_ep, pa.int64())}
            ),
            delta_path,
        )
        # merge into the sorted seen arrays (latest epoch wins per print)
        self._set_sorted_dedup(
            np.concatenate([self.seen_hi, new_hi]),
            np.concatenate([self.seen_lo, new_lo]),
            np.concatenate([self.seen_ep, new_ep]),
        )
        dropped = int(tbl.num_rows - len(kept_rows))
        self.dropped += dropped
        return {"kept": int(len(kept_rows)), "dropped": dropped}


@ray.remote
def _read_split(
    path: str, text_col: str, P: int, arrival_base: int,
    columns: list[str] | None,
) -> list[pa.Table]:
    """Fused read + fingerprint + split of one file (one full-data plasma
    crossing, same discipline as the ordered engine's fused exchange)."""
    from .exchange import split_compact

    tbl = _read_with_arrival(path, columns, arrival_base)
    col = tbl[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    hi, lo = _fingerprints(col)
    tbl = tbl.append_column("fp_hi", pa.array(hi, pa.uint64()))
    tbl = tbl.append_column("fp_lo", pa.array(lo, pa.uint64()))
    parts = (hi % np.uint64(P)).astype(np.int64)
    return _returns(split_compact(tbl, parts, P))


class DedupStreamResult:
    def __init__(self, sink: ManifestSink, epochs_run: int, epochs_skipped: int,
                 kept: int, dropped: int):
        self.sink = sink
        self.epochs_run = epochs_run
        self.epochs_skipped = epochs_skipped
        self.total_kept = kept
        self.total_dropped = dropped


def run_dedup_stream(
    files: list[str] | LandingSource,
    out_root: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    columns: list[str] | None = None,
    num_partitions: int = 4,
    files_per_epoch: int = 2,
    resume: bool = False,
    fail_after_epoch: int | None = None,
    compact_every: int = COMPACT_EVERY,
    ttl_epochs: int | None = None,
) -> DedupStreamResult:
    """Drive the document feed through the dedup partitions epoch by epoch.

    ``files`` is the arrival-ordered feed (or a ``LandingSource`` whose
    groups run as they land); re-running with ``resume=True`` skips
    committed epochs and restores each partition's seen-state from its
    checkpoint deltas (exactly-once output across crashes). Every
    ``compact_every`` epochs each partition also writes its FULL seen-set
    (``full-<e>``) and the snapshots and deltas it folds are deleted, so
    restore cost and checkpoint size are bounded by one full file plus the
    trailing deltas, not by stream length."""
    P = num_partitions
    if columns is None:
        columns = [id_col, text_col]
    sink, run, skipped, totals = _run_marker_stream(
        files, out_root, "deduped", {},
        make_actors=lambda: [DedupPartition.remote(p, ttl_epochs) for p in range(P)],
        read=lambda f, base: _read_split.options(num_returns=P).remote(
            f, text_col, P, base, columns
        ),
        step=_process_step,
        num_partitions=P, files_per_epoch=files_per_epoch, resume=resume,
        fail_after_epoch=fail_after_epoch, compact_every=compact_every,
    )
    return DedupStreamResult(sink, run, skipped, totals["kept"], totals["dropped"])


# ---------------------------------------------------------------------------
# Streaming NEAR-dedup (banded MinHash-LSH seen-state)
# ---------------------------------------------------------------------------


@ray.remote(num_cpus=0)
class BandPartition:
    """Per-partition seen BAND-HASH state for the streaming near-dedup.

    check() is read-only (re-runnable after a crash); record() mutates and
    is only fed band hashes of KEPT documents, so dropped docs never
    pollute the index."""

    def __init__(self, partition: int, doc_P: int,
                 ttl_epochs: int | None = None):
        self.partition = partition
        self.doc_P = doc_P
        self.ttl = ttl_epochs
        self.seen = np.empty(0, dtype=np.int64)  # sorted band hashes
        self.seen_ep = np.empty(0, dtype=np.int64)  # epoch each was recorded

    def _set_sorted_dedup(self, bh: np.ndarray, ep: np.ndarray) -> None:
        order = np.lexsort((ep, bh))
        bh, ep = bh[order], ep[order]
        if len(bh):
            last = np.empty(len(bh), dtype=bool)
            last[-1] = True
            last[:-1] = bh[1:] != bh[:-1]
            bh, ep = bh[last], ep[last]
        self.seen, self.seen_ep = bh, ep

    def restore(self, files: list[str]) -> int:
        ts = [_read_seen(f) for f in files]
        self._set_sorted_dedup(
            np.concatenate([self.seen] + [
                t["band_hash"].to_numpy(zero_copy_only=False) for t in ts
            ]).astype(np.int64),
            np.concatenate([self.seen_ep] + [
                t["ep"].to_numpy(zero_copy_only=False).astype(np.int64) for t in ts
            ]),
        )
        return len(self.seen)

    def check(self, epoch: int, *shards: pa.Table):
        """Matched doc_ids of this epoch, split by doc-partition code
        (num_returns=doc_P refs go straight to the payload actors — the
        verdicts never touch the driver)."""
        real = [t for t in shards if t.num_rows]
        if not real:
            return _returns([np.empty(0, dtype=np.int64)] * self.doc_P)
        tbl = (
            pa.concat_tables(real, promote_options="none")
            if len(real) > 1
            else real[0]
        )
        bh = tbl["band_hash"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        arr = tbl["arrival"].to_numpy(zero_copy_only=False).astype(np.int64)
        # matched against earlier epochs
        idx = np.searchsorted(self.seen, bh)
        idx[idx == len(self.seen)] = max(0, len(self.seen) - 1)
        matched = (
            self.seen[idx] == bh if len(self.seen) else np.zeros(len(bh), bool)
        )
        if self.ttl is not None and matched.any():
            # expired band hashes no longer block (ttl horizon semantics);
            # ep-aware matching keeps check() read-only and re-runnable
            matched &= epoch - self.seen_ep[idx] <= self.ttl
        # within-epoch collisions: every member of a band group except the
        # earliest arrival (conservative cluster-head semantics)
        order = np.lexsort((arr, bh))
        b_s, a_s = bh[order], arr[order]
        first = np.empty(len(order), dtype=bool)
        if len(order):
            first[0] = True
            first[1:] = b_s[1:] != b_s[:-1]
        intra = np.zeros(len(bh), dtype=bool)
        intra[order[~first]] = True
        bad_ids = np.unique(ids[matched | intra])
        code = (bad_ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(self.doc_P)
        return _returns([bad_ids[code == p] for p in range(self.doc_P)])

    def record(self, epoch: int, delta_path: str,
               *kept_band_shards: pa.Table) -> int:
        if self.ttl is not None and len(self.seen_ep):
            live = epoch - self.seen_ep <= self.ttl
            if not live.all():
                self.seen, self.seen_ep = self.seen[live], self.seen_ep[live]
        real = [t for t in kept_band_shards if t.num_rows]
        new = (
            np.unique(
                np.concatenate(
                    [
                        t["band_hash"].to_numpy(zero_copy_only=False)
                        for t in real
                    ]
                ).astype(np.int64)
            )
            if real
            else np.empty(0, dtype=np.int64)
        )
        write_part_atomic(
            pa.table({"band_hash": pa.array(new, pa.int64()),
                      "ep": pa.array(np.full(len(new), epoch, np.int64))}),
            delta_path,
        )
        # merge, keeping the LATEST epoch per band hash (a re-recorded
        # expired hash re-anchors its horizon)
        self._set_sorted_dedup(
            np.concatenate([self.seen, new]),
            np.concatenate([self.seen_ep,
                            np.full(len(new), epoch, np.int64)]),
        )
        return len(new)

    def write_full(self, path: str) -> dict:
        write_part_atomic(
            pa.table({"band_hash": pa.array(self.seen, pa.int64()),
                      "ep": pa.array(self.seen_ep, pa.int64())}), path
        )
        return {"band_hashes": len(self.seen)}


@ray.remote(num_cpus=0)
class NearDupPayloadPartition:
    """Holds one epoch's payload rows (routed by doc id), applies the band
    verdicts, writes kept rows actor-direct to the sink, and emits the kept
    docs' (band_hash) rows split by band partition for record()."""

    def __init__(self, partition: int, band_P: int, bands: int,
                 id_col: str = "doc_id"):
        self.partition = partition
        self.band_P = band_P
        self.bands = bands
        self.id_col = id_col

    def decide(self, part_path: str, n_payload: int, *args):
        shards, matched = args[:n_payload], args[n_payload:]
        real = [t for t in shards if t.num_rows]
        if real:
            payload = (
                pa.concat_tables(real, promote_options="none")
                if len(real) > 1
                else real[0]
            )
        else:
            payload = shards[0].slice(0, 0)
        bad = (
            np.unique(np.concatenate([m for m in matched if len(m)]))
            if any(len(m) for m in matched)
            else np.empty(0, dtype=np.int64)
        )
        ids = payload[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        drop = np.isin(ids, bad)
        keep_idx = np.flatnonzero(~drop)
        arr = payload["arrival"].to_numpy(zero_copy_only=False)[keep_idx]
        keep_idx = keep_idx[np.argsort(arr, kind="stable")]
        band_cols = [f"bh_{b}" for b in range(self.bands)]
        kept = payload.take(pa.array(keep_idx))
        out = kept.drop_columns(band_cols + ["arrival"])
        write_part_atomic(out, part_path)
        # kept band hashes, split by band partition for record()
        bh = np.concatenate(
            [
                kept[c].to_numpy(zero_copy_only=False).astype(np.int64)
                for c in band_cols
            ]
        ) if kept.num_rows else np.empty(0, dtype=np.int64)
        code = (bh.astype(np.uint64)) % np.uint64(self.band_P)
        res = [
            pa.table({"band_hash": pa.array(bh[code == p], pa.int64())})
            for p in range(self.band_P)
        ]
        return (int(kept.num_rows), int(drop.sum()), *res)


@ray.remote
def _read_split_neardup(
    path: str,
    id_col: str,
    text_col: str,
    P: int,
    bands: int,
    num_perm: int,
    k: int,
    seed: int,
    arrival_base: int,
    columns: list[str] | None,
    sig: str = "minhash",
):
    """Fused read + banded signature + double split of one file: P payload
    shards by doc id (with the doc's band hashes as columns), then P
    band-pair shards by band hash. One full-data read; only (band_hash,
    doc_id, arrival) triples go to the band partitions.

    ``sig``: "minhash" hashes ``text_col`` text (banded MinHash);
    "hyperplane" treats ``text_col`` as an embedding list column and
    bands hyperplane sign patterns (``num_perm`` total planes split over
    ``bands``; ``k`` unused) — everything downstream is signature-agnostic."""
    from .exchange import split_compact
    from .functions.dedup import band_hashes, embedding_band_hashes

    tbl = _read_with_arrival(path, columns, arrival_base)
    col = tbl[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if sig == "hyperplane":
        bh = embedding_band_hashes(
            col, bands=bands, planes_per_band=num_perm // bands, seed=seed
        )
    else:
        bh = band_hashes(col, num_perm=num_perm, bands=bands, k=k, seed=seed)
    for b in range(bands):
        tbl = tbl.append_column(f"bh_{b}", pa.array(bh[:, b], pa.int64()))
    ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    with np.errstate(over="ignore"):
        doc_code = (
            ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ) % np.uint64(P)
    payload_shards = split_compact(tbl, doc_code.astype(np.int64), P)
    pairs = pa.table(
        {
            "band_hash": pa.array(bh.T.reshape(-1), pa.int64()),
            "doc_id": pa.array(np.tile(ids, bands), pa.int64()),
            "arrival": pa.array(
                np.tile(
                    tbl["arrival"].to_numpy(zero_copy_only=False), bands
                ),
                pa.int64(),
            ),
        }
    )
    band_code = (
        pairs["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        % np.uint64(P)
    ).astype(np.int64)
    band_shards = split_compact(pairs, band_code, P)
    return payload_shards + band_shards


def _neardup_step(actors, epoch: int, shards, part, delta) -> list[dict]:
    """One near-dedup epoch over the P band partitions (``actors[:P]``) and
    the P payload partitions (``actors[P:]``): the band partitions' check()
    verdicts go straight to the payload partitions, which write the kept
    rows and send the kept docs' band hashes back for record()."""
    P = len(actors) // 2
    band, payload = actors[:P], actors[P:]
    verdicts = [
        _refs(band[p].check.options(num_returns=P).remote(
            epoch, *[s[P + p] for s in shards]
        ))
        for p in range(P)
    ]
    decisions = [
        payload[p].decide.options(num_returns=2 + P).remote(
            part(p),
            len(shards),
            *[s[p] for s in shards],
            *[verdicts[bp][p] for bp in range(P)],
        )
        for p in range(P)
    ]
    kept = ray.get([d[0] for d in decisions])
    dropped = ray.get([d[1] for d in decisions])
    ray.get([
        band[bp].record.remote(
            epoch, delta(bp), *[decisions[p][2 + bp] for p in range(P)]
        )
        for bp in range(P)
    ])
    return [{"kept": k, "dropped": d} for k, d in zip(kept, dropped)]


def run_neardup_stream(
    files: list[str] | LandingSource,
    out_root: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    columns: list[str] | None = None,
    num_partitions: int = 4,
    files_per_epoch: int = 2,
    bands: int = 8,
    num_perm: int = 64,
    k: int = 7,
    seed: int = 7,
    resume: bool = False,
    fail_after_epoch: int | None = None,
    compact_every: int = COMPACT_EVERY,
    ttl_epochs: int | None = None,
    sig: str = "minhash",
) -> DedupStreamResult:
    """Streaming APPROXIMATE near-dedup: drop any document one of whose
    MinHash band hashes collides with a previously KEPT document (or with
    an earlier arrival in the same epoch) — the crawl-feed near-dedup
    shape: conservative cluster-head-keeps semantics, no pairwise verify.

    Per epoch: one fused read+band+double-split task per file; band
    partitions answer check() (read-only — crash-re-runnable) with matched
    doc ids split straight to the payload partitions; payload partitions
    write kept rows actor-direct and return the kept docs' band hashes
    split back to the band partitions for record(). Nothing but ids/hashes
    ever reaches the driver. Exactly-once exactly as run_dedup_stream
    (manifest sink -> epoch marker; band-state deltas + periodic full
    snapshots); a resume must use the same signature parameters."""
    P = num_partitions
    if columns is None:
        columns = [id_col, text_col]
    sink, run, skipped, totals = _run_marker_stream(
        files, out_root, "neardeduped",
        {"bands": bands, "num_perm": num_perm, "k": k, "seed": seed, "sig": sig},
        make_actors=lambda: (
            [BandPartition.remote(p, P, ttl_epochs) for p in range(P)]
            + [NearDupPayloadPartition.remote(p, P, bands, id_col) for p in range(P)]
        ),
        read=lambda f, base: _read_split_neardup.options(num_returns=2 * P).remote(
            f, id_col, text_col, P, bands, num_perm, k, seed, base, columns, sig
        ),
        step=_neardup_step,
        num_partitions=P, files_per_epoch=files_per_epoch, resume=resume,
        fail_after_epoch=fail_after_epoch, compact_every=compact_every,
    )
    return DedupStreamResult(sink, run, skipped, totals["kept"], totals["dropped"])


def run_embdedup_stream(
    files: list[str] | LandingSource,
    out_root: str,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    columns: list[str] | None = None,
    num_partitions: int = 4,
    files_per_epoch: int = 2,
    bands: int = 4,
    total_planes: int = 192,
    seed: int = 13,
    resume: bool = False,
    fail_after_epoch: int | None = None,
    compact_every: int = 8,
    ttl_epochs: int | None = None,
) -> DedupStreamResult:
    """Streaming EMBEDDING near-dedup: hyperplane-LSH band hashes
    (``total_planes`` seeded Gaussian planes split over ``bands``; a
    collision in ANY band drops the arrival — cluster-head-keep, the
    semantic-dedup analogue of ``run_neardup_stream``). Identical vectors
    collide in every band; at 48 planes/band two random vectors below
    ~0.7 cosine collide with p < 1e-7 per band. All exactly-once /
    checkpoint / TTL / rescale machinery is shared with the MinHash
    stream — only the fused signature kernel differs
    (``functions.dedup.embedding_band_hashes``)."""
    return run_neardup_stream(
        files,
        out_root,
        id_col=id_col,
        text_col=vec_col,
        columns=columns or [id_col, vec_col],
        num_partitions=num_partitions,
        files_per_epoch=files_per_epoch,
        bands=bands,
        num_perm=total_planes,
        k=0,
        seed=seed,
        resume=resume,
        fail_after_epoch=fail_after_epoch,
        compact_every=compact_every,
        ttl_epochs=ttl_epochs,
        sig="hyperplane",
    )


def run_dedup_stream_continuous(
    landing_dir: str,
    out_root: str,
    poll_interval_s: float = 1.0,
    idle_timeout_s: float = 60.0,
    stop_file: str = "_STOP",
    near: bool = False,
    **kwargs,
) -> DedupStreamResult:
    """Continuous mode for the dedup streams: one ``run_dedup_stream`` /
    ``run_neardup_stream`` session (``kwargs``) over the
    ``source.LandingSource`` of ``landing_dir``, whose partitions take each
    group as it lands. A resume (the default) replays the recorded groups;
    a root without records (an older version's) is cut by name from epoch
    0. ``<landing_dir>/<stop_file>``, or ``idle_timeout_s`` without a new
    file, runs the trailing partial group and ends the run."""
    runner = run_neardup_stream if near else run_dedup_stream
    return _run_continuous(runner, landing_dir, out_root, poll_interval_s,
                           idle_timeout_s, stop_file, kwargs)


def _run_continuous(runner, landing_dir, out_root, poll_interval_s,
                    idle_timeout_s, stop_file, kwargs):
    """``runner`` over a ``LandingSource``: resume is the default, and both
    take the runner's ``files_per_epoch`` (default 2)."""
    kwargs.setdefault("resume", True)
    with LandingSource(
        landing_dir, out_root, kwargs.get("files_per_epoch", 2),
        poll_interval_s, idle_timeout_s, stop_file, kwargs["resume"],
    ) as src:
        return runner(src, out_root, **kwargs)


def rescale_dedup_checkpoint(out_root: str, new_partitions: int, near: bool = False):
    """Migrate a dedup-stream checkpoint to a new partition count at a
    consistent cut (parity with rescale.rescale_checkpoint for the ordered
    engine): fold every partition's current seen-state (the restore plan:
    latest full snapshot + trailing deltas), re-route it under the new
    partition count (fp_hi % P for the exact stream, band_hash % P for the
    near stream), and write it as a compacted full snapshot at the last
    committed epoch. A subsequent resume with
    ``num_partitions=new_partitions`` restores from that snapshot; the old
    layout is removed."""
    from .exchange import split_compact

    ck = Path(out_root) / "ckpt"
    meta_path = ck / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no checkpoint under {out_root}")
    meta = json.loads(meta_path.read_text())
    old_P = meta["partitions"]
    done = _committed_epochs(ck)
    if not done:
        meta["partitions"] = new_partitions
        write_json_atomic(meta_path, meta)
        return
    plan = _restore_plan(ck, done)
    merged = pa.concat_tables(
        [_read_seen(_part(d, p)) for p in range(old_P) for d in plan],
        promote_options="none",
    )
    key = merged["band_hash" if near else "fp_hi"]
    codes = (
        key.to_numpy(zero_copy_only=False).astype(np.uint64) % np.uint64(new_partitions)
    ).astype(np.int64)
    new_parts = split_compact(merged, codes, new_partitions)

    # two-phase staged swap (same pattern as rescale.rescale_checkpoint):
    # stage the complete new snapshot + a sentinel, THEN swap; the runners
    # complete a half-finished swap on startup, so no crash window leaves
    # the checkpoint readable-but-wrong
    stage = ck / "_rescale_stage"
    shutil.rmtree(stage, ignore_errors=True)
    for p, t in enumerate(new_parts):
        write_part_atomic(t, _part(stage, p))
    # sentinel commit: the stage is complete
    write_json_atomic(
        ck / "_RESCALE.json",
        {"epoch": max(done), "new_partitions": new_partitions,
         "old_partitions": old_P, "rows": int(merged.num_rows)},
    )
    _complete_dedup_rescale(ck)


def _complete_dedup_rescale(ck: Path) -> None:
    """Finish (or re-finish, idempotently) a staged dedup rescale: called
    by rescale_dedup_checkpoint and by the stream runners on startup."""
    sentinel = ck / "_RESCALE.json"
    if not sentinel.exists():
        return
    info = json.loads(sentinel.read_text())
    stage = ck / "_rescale_stage"
    last = info["epoch"]
    if stage.exists():
        # destroy the OLD layout (it routes under the old partition count)
        for old in list(ck.glob("delta-*")) + [
            d for d in ck.glob("full-*") if d.is_dir()
        ]:
            shutil.rmtree(old, ignore_errors=True)
        for f in ck.glob("full-*.json"):
            f.unlink()
        stage.replace(ck / f"full-{last:05d}")
    # stage already swapped (crash after replace): just finish the markers
    write_json_atomic(
        ck / f"full-{last:05d}.json",
        {"epoch": last, "rescaled_from": info["old_partitions"],
         "rows": info["rows"]},
    )
    meta_path = ck / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["partitions"] = info["new_partitions"]
    write_json_atomic(meta_path, meta)
    sentinel.unlink()
