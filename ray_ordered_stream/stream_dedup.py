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


def _fingerprints(texts: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 pairs of md5(text) per row — bit-identical to
    hashlib's digest split big-endian, so checkpoints stay compatible
    across paths. Primary path: DuckDB's vectorized C++ md5 over the Arrow
    column (single-threaded inside the already-file-parallel read task;
    measured ~2.2x over the Python loop, which was the dedup streams'
    dominant ingest cost — VERDICT r2 #6). Fallback: raw UTF-8 buffer
    slices through hashlib (no per-row string decode)."""
    import hashlib

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    hi = np.empty(n, dtype=np.uint64)
    lo = np.empty(n, dtype=np.uint64)
    if n == 0:
        return hi, lo
    try:
        import os

        if os.environ.get("ROS_NO_DUCKDB_MD5"):  # A/B + safety valve
            raise ImportError
        # Measured crossover (BASELINE.md): DuckDB's vectorized md5 wins on
        # SHORT rows (1.6x at 128 B, where per-call Python overhead
        # dominates); OpenSSL via hashlib wins on LONG rows (1.3-1.5x at
        # >= 1 KB, raw digest throughput). Route by mean row length.
        if texts.nbytes / max(1, n) >= 640:
            raise ImportError
        con = _md5_connection()
        tbl = pa.table({"t": texts})  # zero-copy view
        res = con.execute(
            "SELECT md5_number_upper(coalesce(t,'')) AS hi,"
            "       md5_number_lower(coalesce(t,'')) AS lo FROM tbl"
        ).arrow()
        # DuckDB returns each half little-endian; byteswap restores the
        # big-endian ints the hashlib path (and old checkpoints) use
        return (
            res["hi"].to_numpy().astype(np.uint64).byteswap(),
            res["lo"].to_numpy().astype(np.uint64).byteswap(),
        )
    except Exception:
        pass
    if texts.null_count == 0 and isinstance(texts, pa.StringArray):
        bufs = texts.buffers()
        off = np.frombuffer(bufs[1], dtype=np.int32)[
            texts.offset : texts.offset + n + 1
        ]
        data = memoryview(bufs[2])
        md5 = hashlib.md5
        for i in range(n):
            d = md5(data[off[i] : off[i + 1]]).digest()
            hi[i] = int.from_bytes(d[:8], "big")
            lo[i] = int.from_bytes(d[8:], "big")
        return hi, lo
    for i, s in enumerate(texts.to_pylist()):  # nulls / large_string
        d = hashlib.md5((s or "").encode()).digest()
        hi[i] = int.from_bytes(d[:8], "big")
        lo[i] = int.from_bytes(d[8:], "big")
    return hi, lo


def md5_hex(texts: pa.Array) -> pa.Array:
    """Hex md5 per row, same DuckDB-vs-hashlib routing as _fingerprints
    (shared by the batch Fingerprinter in functions/textstats.py — one md5
    kernel for the whole repo). Nulls hash as ''."""
    import hashlib

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        return pa.array([], pa.string())
    try:
        import os

        if os.environ.get("ROS_NO_DUCKDB_MD5"):
            raise ImportError
        if texts.nbytes / max(1, n) >= 640:
            raise ImportError
        con = _md5_connection()
        tbl = pa.table({"t": texts})  # zero-copy view
        res = con.execute("SELECT md5(coalesce(t,'')) AS h FROM tbl").arrow()
        return res["h"].combine_chunks()
    except Exception:
        pass
    md5 = hashlib.md5
    if texts.null_count == 0 and isinstance(texts, pa.StringArray):
        bufs = texts.buffers()
        off = np.frombuffer(bufs[1], dtype=np.int32)[
            texts.offset : texts.offset + n + 1
        ]
        data = memoryview(bufs[2])
        return pa.array(
            [md5(data[off[i] : off[i + 1]]).hexdigest() for i in range(n)],
            pa.string(),
        )
    return pa.array(
        [md5((s or "").encode()).hexdigest() for s in texts.to_pylist()],
        pa.string(),
    )


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

    def restore(self, delta_files: list[str]) -> int:
        his, los, eps = [self.seen_hi], [self.seen_lo], [self.seen_ep]
        for i, f in enumerate(delta_files):
            t = pq.read_table(f)
            his.append(t["fp_hi"].to_numpy(zero_copy_only=False).astype(np.uint64))
            los.append(t["fp_lo"].to_numpy(zero_copy_only=False).astype(np.uint64))
            if "ep" in t.column_names:
                eps.append(t["ep"].to_numpy(zero_copy_only=False).astype(np.int64))
            else:  # legacy delta without epochs: file order is epoch order
                eps.append(np.full(t.num_rows, i, dtype=np.int64))
        hi = np.concatenate(his)
        lo = np.concatenate(los)
        ep = np.concatenate(eps)
        self._set_sorted_dedup(hi, lo, ep)
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

    def write_full(self, path: str) -> int:
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
        return len(self.seen_hi)

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
    files: list[str],
    id_col: str,
    text_col: str,
    P: int,
    arrival_base: int,
    *,
    columns: list[str] | None,
) -> list[pa.Table]:
    """Fused read + fingerprint + split for one epoch (one full-data plasma
    crossing, same discipline as the ordered engine's fused exchange)."""
    from .exchange import split_compact

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
    col = tbl[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    hi, lo = _fingerprints(col)
    tbl = tbl.append_column("fp_hi", pa.array(hi, pa.uint64()))
    tbl = tbl.append_column("fp_lo", pa.array(lo, pa.uint64()))
    parts = (hi % np.uint64(P)).astype(np.int64)
    return split_compact(tbl, parts, P)


class DedupStreamResult:
    def __init__(self, sink: ManifestSink, epochs_run: int, epochs_skipped: int,
                 kept: int, dropped: int):
        self.sink = sink
        self.epochs_run = epochs_run
        self.epochs_skipped = epochs_skipped
        self.total_kept = kept
        self.total_dropped = dropped


def run_dedup_stream(
    files: list[str],
    out_root: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    columns: list[str] | None = None,
    num_partitions: int = 4,
    files_per_epoch: int = 2,
    resume: bool = False,
    fail_after_epoch: int | None = None,
    compact_every: int = 8,
    ttl_epochs: int | None = None,
) -> DedupStreamResult:
    """Drive the document feed through the dedup partitions epoch by epoch.

    ``files`` is the arrival-ordered feed; re-running with ``resume=True``
    skips committed epochs and restores each partition's seen-state from
    its checkpoint deltas (exactly-once output across crashes). Every
    ``compact_every`` epochs each partition also writes its FULL seen-set
    (``full-<e>``), so restore cost is bounded by one full file plus the
    trailing deltas, not by stream length."""
    root = Path(out_root)
    ck = root / "ckpt"
    ck.mkdir(parents=True, exist_ok=True)
    _complete_dedup_rescale(ck)  # finish any half-swapped rescale first
    sink = ManifestSink(out_root, "deduped")
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
            import shutil

            shutil.rmtree(ck)
            ck.mkdir(parents=True, exist_ok=True)
    if not resume:
        # a fresh (non-resume) run must not inherit stale checkpoints —
        # nor stale sink manifests (phantom committed epochs from a
        # previous, longer run would survive into read()/totals).
        import shutil

        for f in ck.glob("epoch-*.json"):
            f.unlink()
        for f in ck.glob("full-*.json"):
            f.unlink()
        for f in list(ck.glob("delta-*")) + list(ck.glob("full-*")):
            shutil.rmtree(f, ignore_errors=True)
        sink.reset()
    meta_path.write_text(json.dumps({"partitions": num_partitions}))

    P = num_partitions
    workers = [DedupPartition.remote(p, ttl_epochs) for p in range(P)]

    def delta_dir(epoch: int) -> Path:
        return ck / f"delta-{epoch:05d}"

    def marker(epoch: int) -> Path:
        return ck / f"epoch-{epoch:05d}.json"

    groups = [
        files[i : i + files_per_epoch]
        for i in range(0, len(files), files_per_epoch)
    ]
    # arrival index base per epoch (row counts from parquet metadata only)
    bases, acc = [], 0
    for g in groups:
        bases.append(acc)
        acc += sum(pq.read_metadata(f).num_rows for f in g)

    def full_dir(epoch: int) -> Path:
        return ck / f"full-{epoch:05d}"

    def full_marker(epoch: int) -> Path:
        return ck / f"full-{epoch:05d}.json"

    done = {
        int(f.stem.split("-")[1]) for f in ck.glob("epoch-*.json")
    } if resume else set()
    if done:
        fulls = sorted(
            e for f in ck.glob("full-*.json")
            for e in [int(f.stem.split("-")[1])]
            if e in done
        )
        base_full = fulls[-1] if fulls else None
        tail = sorted(e for e in done if base_full is None or e > base_full)
        restore_files = [
            ([str(full_dir(base_full) / f"part-{p:05d}.parquet")]
             if base_full is not None else [])
            + [str(delta_dir(e) / f"part-{p:05d}.parquet") for e in tail]
            for p in range(P)
        ]
        ray.get(
            [w.restore.remote(restore_files[p]) for p, w in enumerate(workers)]
        )

    epochs_run = epochs_skipped = 0
    kept_total = dropped_total = 0
    for e, g in enumerate(groups):
        if e in done:
            epochs_skipped += 1
            continue
        # one read+fingerprint+split task PER FILE: the md5 loop is the
        # epoch's dominant cost and must run file-parallel, not once per
        # epoch (measured 3x the whole wall when serialized)
        f_bases, fb = [], bases[e]
        for f in g:
            f_bases.append(fb)
            fb += pq.read_metadata(f).num_rows
        shard_groups = [
            _read_split.options(num_returns=P).remote(
                [f], id_col, text_col, P, f_bases[i], columns=columns
            )
            for i, f in enumerate(g)
        ]
        dd = delta_dir(e)
        dd.mkdir(parents=True, exist_ok=True)
        stats = ray.get(
            [
                workers[p].process_epoch.remote(
                    e,
                    sink.part_path(e, p),
                    str(dd / f"part-{p:05d}.parquet"),
                    *[sg[p] for sg in shard_groups],
                )
                for p in range(P)
            ]
        )
        sink.commit_epoch(e, {p: s["kept"] for p, s in enumerate(stats)})
        marker(e).write_text(
            json.dumps(
                {
                    "epoch": e,
                    "kept": sum(s["kept"] for s in stats),
                    "dropped": sum(s["dropped"] for s in stats),
                    "committed_at": time.time(),
                }
            )
        )
        kept_total += sum(s["kept"] for s in stats)
        dropped_total += sum(s["dropped"] for s in stats)
        epochs_run += 1
        if compact_every and (e + 1) % compact_every == 0:
            fd = full_dir(e)
            fd.mkdir(parents=True, exist_ok=True)
            sizes = ray.get(
                [
                    workers[p].write_full.remote(
                        str(fd / f"part-{p:05d}.parquet")
                    )
                    for p in range(P)
                ]
            )
            full_marker(e).write_text(
                json.dumps({"epoch": e, "fingerprints": int(sum(sizes))})
            )
            # deltas folded into the full snapshot are no longer needed
            import shutil as _sh

            for old in sorted(ck.glob("delta-*")):
                if int(old.name.split("-")[1]) <= e:
                    _sh.rmtree(old, ignore_errors=True)
        if fail_after_epoch is not None and e >= fail_after_epoch:
            raise RuntimeError("injected failure (dedup stream)")
    for w in workers:
        ray.kill(w)
    return DedupStreamResult(
        sink, epochs_run, epochs_skipped, kept_total, dropped_total
    )


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

    def restore(self, delta_files: list[str]) -> int:
        parts, eps = [self.seen], [self.seen_ep]
        for i, f in enumerate(delta_files):
            t = pq.read_table(f)
            parts.append(t["band_hash"].to_numpy(zero_copy_only=False))
            if "ep" in t.column_names:
                eps.append(t["ep"].to_numpy(zero_copy_only=False).astype(np.int64))
            else:  # legacy delta without epochs: file order is epoch order
                eps.append(np.full(t.num_rows, i, dtype=np.int64))
        self._set_sorted_dedup(
            np.concatenate(parts).astype(np.int64), np.concatenate(eps)
        )
        return len(self.seen)

    def check(self, epoch: int, *shards: pa.Table):
        """Matched doc_ids of this epoch, split by doc-partition code
        (num_returns=doc_P refs go straight to the payload actors — the
        verdicts never touch the driver)."""
        real = [t for t in shards if t.num_rows]
        if not real:
            return [np.empty(0, dtype=np.int64)] * self.doc_P
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
        return [bad_ids[code == p] for p in range(self.doc_P)]

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

    def write_full(self, path: str) -> int:
        write_part_atomic(
            pa.table({"band_hash": pa.array(self.seen, pa.int64()),
                      "ep": pa.array(self.seen_ep, pa.int64())}), path
        )
        return len(self.seen)


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
    files: list[str],
    id_col: str,
    text_col: str,
    doc_P: int,
    band_P: int,
    bands: int,
    num_perm: int,
    k: int,
    seed: int,
    arrival_base: int,
    columns: list[str] | None,
    sig: str = "minhash",
):
    """Fused read + banded signature + double split for one epoch: payload
    shards by doc id (with the doc's band hashes as columns) AND band-pair
    shards by band hash. One full-data read; only (band_hash, doc_id,
    arrival) triples go to the band partitions.

    ``sig``: "minhash" hashes ``text_col`` text (banded MinHash);
    "hyperplane" treats ``text_col`` as an embedding list column and
    bands hyperplane sign patterns (``num_perm`` total planes split over
    ``bands``; ``k`` unused) — everything downstream is signature-agnostic."""
    from .exchange import split_compact
    from .functions.dedup import band_hashes, embedding_band_hashes

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
        ) % np.uint64(doc_P)
    payload_shards = split_compact(tbl, doc_code.astype(np.int64), doc_P)
    n = tbl.num_rows
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
        % np.uint64(band_P)
    ).astype(np.int64)
    band_shards = split_compact(pairs, band_code, band_P)
    return payload_shards + band_shards


def run_neardup_stream(
    files: list[str],
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
    compact_every: int = 8,
    ttl_epochs: int | None = None,
    sig: str = "minhash",
) -> DedupStreamResult:
    """Streaming APPROXIMATE near-dedup: drop any document one of whose
    MinHash band hashes collides with a previously KEPT document (or with
    an earlier arrival in the same epoch) — the crawl-feed near-dedup
    shape: conservative cluster-head-keeps semantics, no pairwise verify.

    Per epoch: one fused read+band+double-split task; band partitions
    answer check() (read-only — crash-re-runnable) with matched doc ids
    split straight to the payload partitions; payload partitions write kept
    rows actor-direct and return the kept docs' band hashes split back to
    the band partitions for record(). Nothing but ids/hashes ever reaches
    the driver. Exactly-once exactly as run_dedup_stream (manifest sink ->
    epoch marker; band-state deltas + periodic full snapshots)."""
    root = Path(out_root)
    ck = root / "ckpt"
    ck.mkdir(parents=True, exist_ok=True)
    _complete_dedup_rescale(ck)  # finish any half-swapped rescale first
    sink = ManifestSink(out_root, "neardeduped")
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
        if resume:
            # The restored seen-state is band hashes computed under these
            # parameters; resuming with different MinHash params would
            # silently compare incompatible hashes.
            for name, val in (("bands", bands), ("num_perm", num_perm),
                              ("k", k), ("seed", seed), ("sig", sig)):
                # a pre-"sig" checkpoint is implicitly minhash — a missing
                # key must NOT skip the check (resuming minhash state under
                # sig="hyperplane" would silently compare garbage hashes)
                mval = meta.get(name, "minhash" if name == "sig" else None)
                if mval != val:
                    raise ValueError(
                        f"checkpoint was written with {name}={mval}, "
                        f"got {name}={val}; resume requires identical "
                        f"signature parameters"
                    )
    if not resume:
        import shutil

        for f in ck.glob("epoch-*.json"):
            f.unlink()
        for f in ck.glob("full-*.json"):
            f.unlink()
        for f in list(ck.glob("delta-*")) + list(ck.glob("full-*")):
            shutil.rmtree(f, ignore_errors=True)
        sink.reset()
    meta_path.write_text(
        json.dumps({"partitions": num_partitions, "bands": bands,
                    "num_perm": num_perm, "k": k, "seed": seed, "sig": sig})
    )

    P = num_partitions
    band_workers = [BandPartition.remote(p, P, ttl_epochs) for p in range(P)]
    payload_workers = [
        NearDupPayloadPartition.remote(p, P, bands, id_col) for p in range(P)
    ]

    def delta_dir(epoch: int) -> Path:
        return ck / f"delta-{epoch:05d}"

    def full_dir(epoch: int) -> Path:
        return ck / f"full-{epoch:05d}"

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
        fulls = sorted(
            e for f in ck.glob("full-*.json")
            for e in [int(f.stem.split("-")[1])]
            if e in done
        )
        base_full = fulls[-1] if fulls else None
        tail = sorted(e for e in done if base_full is None or e > base_full)
        restore_files = [
            ([str(full_dir(base_full) / f"part-{p:05d}.parquet")]
             if base_full is not None else [])
            + [str(delta_dir(e) / f"part-{p:05d}.parquet") for e in tail]
            for p in range(P)
        ]
        ray.get(
            [
                w.restore.remote(restore_files[p])
                for p, w in enumerate(band_workers)
            ]
        )

    epochs_run = epochs_skipped = 0
    kept_total = dropped_total = 0
    for e, g in enumerate(groups):
        if e in done:
            epochs_skipped += 1
            continue
        # file-parallel read+band+split: the MinHash signature loop is the
        # dominant epoch cost and must not serialize into one task
        f_bases, fb = [], bases[e]
        for f in g:
            f_bases.append(fb)
            fb += pq.read_metadata(f).num_rows
        shard_groups = [
            _read_split_neardup.options(num_returns=2 * P).remote(
                [f], id_col, text_col, P, P, bands, num_perm, k, seed,
                f_bases[i], columns, sig,
            )
            for i, f in enumerate(g)
        ]
        verdicts = [
            band_workers[p].check.options(num_returns=P).remote(
                e, *[sg[P + p] for sg in shard_groups]
            )
            for p in range(P)
        ]
        dd = delta_dir(e)
        dd.mkdir(parents=True, exist_ok=True)
        decisions = [
            payload_workers[p].decide.options(num_returns=2 + P).remote(
                sink.part_path(e, p),
                len(shard_groups),
                *[sg[p] for sg in shard_groups],
                *[verdicts[bp][p] for bp in range(P)],
            )
            for p in range(P)
        ]
        kept = ray.get([d[0] for d in decisions])
        dropped = ray.get([d[1] for d in decisions])
        ray.get(
            [
                band_workers[bp].record.remote(
                    e,
                    str(dd / f"part-{bp:05d}.parquet"),
                    *[decisions[p][2 + bp] for p in range(P)],
                )
                for bp in range(P)
            ]
        )
        sink.commit_epoch(e, {p: kp for p, kp in enumerate(kept)})
        marker(e).write_text(
            json.dumps(
                {"epoch": e, "kept": int(sum(kept)),
                 "dropped": int(sum(dropped)), "committed_at": time.time()}
            )
        )
        kept_total += sum(kept)
        dropped_total += sum(dropped)
        epochs_run += 1
        if compact_every and (e + 1) % compact_every == 0:
            fd = full_dir(e)
            fd.mkdir(parents=True, exist_ok=True)
            sizes = ray.get(
                [
                    band_workers[p].write_full.remote(
                        str(fd / f"part-{p:05d}.parquet")
                    )
                    for p in range(P)
                ]
            )
            (ck / f"full-{e:05d}.json").write_text(
                json.dumps({"epoch": e, "band_hashes": int(sum(sizes))})
            )
            import shutil as _sh

            for old in sorted(ck.glob("delta-*")):
                if int(old.name.split("-")[1]) <= e:
                    _sh.rmtree(old, ignore_errors=True)
        if fail_after_epoch is not None and e >= fail_after_epoch:
            raise RuntimeError("injected failure (neardup stream)")
    for w in band_workers + payload_workers:
        ray.kill(w)
    return DedupStreamResult(
        sink, epochs_run, epochs_skipped, kept_total, dropped_total
    )


def run_embdedup_stream(
    files: list[str],
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
    """Continuous (unbounded) mode for the dedup streams: poll an
    arrival-ordered landing directory and feed each batch of newly complete
    epochs through ``run_dedup_stream`` / ``run_neardup_stream`` with
    ``resume=True`` — committed epochs are durable (markers + deltas), so
    every poll restores the seen-state and processes only new files,
    exactly-once across polls AND crashes.

    Producers must write files whose names sort after all earlier files
    (the landing-dir convention shared with epochs.run_stream_continuous);
    the poll loop is ``source.run_landing_batches``.

    Trade-off (documented, not hidden): state actors are re-created and
    restored once per poll that has work — bounded by snapshot compaction,
    and the right shape for a sandbox driver; a long-lived deployment would
    keep the actors resident between polls."""
    return run_landing_batches(
        landing_dir, out_root, run_neardup_stream if near else run_dedup_stream,
        poll_interval_s, idle_timeout_s, stop_file, **kwargs,
    )


def rescale_dedup_checkpoint(out_root: str, new_partitions: int, near: bool = False):
    """Migrate a dedup-stream checkpoint to a new partition count at a
    consistent cut (parity with rescale.rescale_checkpoint for the ordered
    engine): fold every partition's current seen-state (latest full
    snapshot + trailing deltas), re-route it under the new partition count
    (fp_hi % P for the exact stream, band_hash % P for the near stream),
    and write it as a compacted full snapshot at the last committed epoch.
    A subsequent resume with ``num_partitions=new_partitions`` restores
    from that snapshot; the old layout is removed."""
    import shutil

    ck = Path(out_root) / "ckpt"
    meta_path = ck / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no checkpoint under {out_root}")
    meta = json.loads(meta_path.read_text())
    old_P = meta["partitions"]
    done = sorted(int(f.stem.split("-")[1]) for f in ck.glob("epoch-*.json"))
    if not done:
        meta["partitions"] = new_partitions
        meta_path.write_text(json.dumps(meta))
        return
    last = done[-1]
    fulls = sorted(
        int(f.stem.split("-")[1])
        for f in ck.glob("full-*.json")
        if int(f.stem.split("-")[1]) in set(done)
    )
    base_full = fulls[-1] if fulls else None
    tail = [e for e in done if base_full is None or e > base_full]
    cols = ["band_hash"] if near else ["fp_hi", "fp_lo"]

    def part_files(p_old: int) -> list[str]:
        out = []
        if base_full is not None:
            out.append(str(ck / f"full-{base_full:05d}" / f"part-{p_old:05d}.parquet"))
        out += [
            str(ck / f"delta-{e:05d}" / f"part-{p_old:05d}.parquet")
            for e in tail
        ]
        return out

    tbls = []
    for p in range(old_P):
        for f in part_files(p):
            sch = pq.read_schema(f)
            use = cols + (["ep"] if "ep" in sch.names else [])
            t = pq.read_table(f, columns=use)
            if "ep" not in t.column_names:  # legacy files: epoch unknown
                t = t.append_column(
                    "ep", pa.array(np.zeros(t.num_rows, np.int64))
                )
            tbls.append(t)
    merged = pa.concat_tables(tbls, promote_options="none")
    if near:
        key = merged["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        key = merged["fp_hi"].to_numpy(zero_copy_only=False).astype(np.uint64)
    codes = (key % np.uint64(new_partitions)).astype(np.int64)
    from .exchange import split_compact

    new_parts = split_compact(merged, codes, new_partitions)

    # two-phase staged swap (same pattern as rescale.rescale_checkpoint):
    # stage the complete new snapshot + a sentinel, THEN swap; the runners
    # complete a half-finished swap on startup, so no crash window leaves
    # the checkpoint readable-but-wrong
    fd = ck / "_rescale_stage"
    shutil.rmtree(fd, ignore_errors=True)
    fd.mkdir(parents=True)
    for p, t in enumerate(new_parts):
        write_part_atomic(t, str(fd / f"part-{p:05d}.parquet"))
    sentinel = ck / "_RESCALE.json"
    tmp = sentinel.with_suffix(".tmp")
    tmp.write_text(
        json.dumps({"epoch": last, "new_partitions": new_partitions,
                    "old_partitions": old_P, "rows": int(merged.num_rows)})
    )
    import os as _os

    _os.replace(tmp, sentinel)  # sentinel commit: stage is complete
    _complete_dedup_rescale(ck)


def _complete_dedup_rescale(ck: Path) -> None:
    """Finish (or re-finish, idempotently) a staged dedup rescale: called
    by rescale_dedup_checkpoint and by the stream runners on startup."""
    import shutil

    sentinel = ck / "_RESCALE.json"
    if not sentinel.exists():
        return
    info = json.loads(sentinel.read_text())
    stage = ck / "_rescale_stage"
    last = info["epoch"]
    final = ck / f"full-{last:05d}"
    if stage.exists():
        # destroy the OLD layout (it routes under the old partition count)
        for old in list(ck.glob("delta-*")) + [
            d for d in ck.glob("full-*") if d.is_dir() and d != stage
        ]:
            shutil.rmtree(old, ignore_errors=True)
        for f in ck.glob("full-*.json"):
            f.unlink()
        stage.replace(final)
    # stage already swapped (crash after replace): just finish the markers
    (ck / f"full-{last:05d}.json").write_text(
        json.dumps({"epoch": last,
                    "rescaled_from": info["old_partitions"],
                    "rows": info["rows"]})
    )
    meta_path = ck / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["partitions"] = info["new_partitions"]
    tmp = meta_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(meta))
    import os as _os

    _os.replace(tmp, meta_path)
    sentinel.unlink()
