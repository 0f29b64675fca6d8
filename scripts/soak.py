"""Long-soak harness for the continuous stream (VERDICT r2 #8): a producer
lands rotating-keyspace transcript files for N minutes while the consumer
(run_stream_continuous with state TTL, checkpoint compaction, trailing
manifests) runs as a SUBPROCESS; the harness SIGKILLs it mid-soak and
resumes it, samples the consumer tree's RSS and the per-operator keyed
state sizes throughout, and verifies exactly-once content at the end.

Usage: python scripts/soak.py [--minutes 25] [--kill-at 8] [--root /tmp/soak]
Writes <root>/summary.json and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = str(Path(__file__).resolve().parent.parent)
US = 1_000_000

CONSUMER = """
import sys, ray
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
         logging_level="ERROR")
from ray_ordered_stream.epochs import run_stream_continuous
from ray_ordered_stream.state import OrderedConfig
from ray_ordered_stream.userstate import ChainedDigestState
cfg = OrderedConfig(window_size_s=60.0, session_gap_s=10.0, stream_join=True,
                    pattern=("user", "assistant"), state_ttl_s={ttl},
                    warmup_rows=0{userstate})
res = run_stream_continuous({land!r}, {out!r}, cfg, num_partitions=4,
                            files_per_epoch=4, poll_interval_s=0.2,
                            idle_timeout_s=60.0, resume=True,
                            checkpoint_full_every=8,
                            probe_state_every_epochs=4{autoscale})
print("CONSUMER_DONE", res.epochs_run, res.total_emitted, flush=True)
ray.shutdown()
"""


def band_table(epoch: int, n_keys: int, turns: int) -> pa.Table:
    """Rotating keyspace: fresh conv_ids each band, event time advances one
    hour per band (so the TTL horizon sweeps past old keys)."""
    base = epoch * 3600 * US
    k = np.repeat(np.arange(n_keys), turns)
    j = np.tile(np.arange(turns), n_keys)
    keys = np.char.add(f"s{epoch}c", k.astype("U8"))
    roles = np.where(j % 2 == 0, "user", "assistant").astype(object)
    texts = np.char.add(
        np.char.add(f"e{epoch}.", k.astype("U8")),
        np.char.add(".", j.astype("U8")),
    )
    ts = base + k * 10 * US + j * US
    return pa.table(
        {
            "conv_id": pa.array(keys, pa.string()),
            "turn_idx": pa.array(j.astype(np.int32), pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array(texts.astype(object), pa.string()),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        }
    )


def tree_rss_kb(pid: int) -> int:
    """RSS of a process tree via /proc (no psutil in the sandbox)."""
    total, stack = 0, [pid]
    seen = set()
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            children = Path(f"/proc/{p}/task")
            for t in children.iterdir():
                ch = (t / "children").read_text().split()
                stack.extend(int(c) for c in ch)
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--minutes", type=float, default=25.0)
    ap.add_argument("--kill-at", default="8.0",
                    help="minutes into the soak to SIGKILL the consumer; "
                         "comma-separated for multiple kills (e.g. 5,15)")
    ap.add_argument("--root", default="/tmp/ros_soak")
    ap.add_argument("--file-interval", type=float, default=0.5)
    ap.add_argument("--keys-per-band", type=int, default=400)
    ap.add_argument("--turns", type=int, default=8)
    ap.add_argument("--cpus", type=int, default=8)
    ap.add_argument("--ttl", type=float, default=7200.0)
    ap.add_argument("--autoscale", action="store_true",
                    help="enable backlog-driven scale-up + idle scale-down "
                         "in the consumer (P may change mid-soak)")
    ap.add_argument("--source", choices=("landing", "queue"),
                    default="landing",
                    help="'queue' routes the producer through the lease/ack "
                         "push-source shim (source.FileLeaseQueue + Pump): "
                         "the SIGKILL then also exercises lease expiry -> "
                         "redelivery while output stays exactly-once")
    ap.add_argument("--lease-s", type=float, default=20.0)
    ap.add_argument("--user-state", action="store_true",
                    help="run the pluggable MutableState hook "
                         "(ChainedDigestState) through the soak and verify "
                         "every emitted digest against a serial chain "
                         "replay — an order + exactly-once proof for the "
                         "user-state path under kills")
    args = ap.parse_args()

    root = Path(args.root)
    if root.exists():
        import shutil

        shutil.rmtree(root)
    land = root / "land"
    out = root / "out"
    land.mkdir(parents=True)

    stop_producing = threading.Event()
    n_files = [0]
    queue = None
    pump_stats = {"redelivered": 0, "acked": 0}
    src = land  # landing mode: verify directly against the landed files
    if args.source == "queue":
        sys.path.insert(0, REPO)
        from ray_ordered_stream.source import FileLeaseQueue

        src = root / "src"
        src.mkdir()
        queue = FileLeaseQueue(str(root / "queue"))

    def producer():
        e = 0
        while not stop_producing.is_set():
            tbl = band_table(e, args.keys_per_band, args.turns)
            dst_dir = src if queue is not None else land
            tmp = dst_dir / f".tmp-{e:06d}"
            pq.write_table(tbl, tmp, compression="zstd")
            os.replace(tmp, dst_dir / f"f{e:06d}.parquet")
            if queue is not None:
                queue.publish([str(dst_dir / f"f{e:06d}.parquet")])
            n_files[0] = e + 1
            e += 1
            time.sleep(args.file_interval)

    prod = threading.Thread(target=producer, daemon=True)
    prod.start()

    stop_pumping = threading.Event()

    def pumper():
        from ray_ordered_stream.source import Pump

        p = Pump(queue, str(land), str(out), max_n=8, lease_s=args.lease_s)
        while not stop_pumping.is_set():
            st = p.step()
            pump_stats["redelivered"] += st["redelivered"]
            pump_stats["acked"] += st["acked_now"]
            if (stop_producing.is_set() and st["available"] == 0
                    and st["leased"] == 0):
                (land / "_STOP").write_text("")
                return
            time.sleep(0.5)

    pump_th = None
    if queue is not None:
        pump_th = threading.Thread(target=pumper, daemon=True)
        pump_th.start()

    autoscale = (
        ",\n                            autoscale_backlog_epochs=3,"
        "\n                            autoscale_factor=2,"
        "\n                            autoscale_max_partitions=8,"
        "\n                            autoscale_shrink_idle_s=20.0,"
        "\n                            autoscale_min_partitions=2"
        if args.autoscale else ""
    )
    userstate = (
        ",\n                    state_factory=ChainedDigestState"
        if args.user_state else ""
    )
    code = CONSUMER.format(repo=REPO, cpus=args.cpus, ttl=args.ttl,
                           land=str(land), out=str(out), autoscale=autoscale,
                           userstate=userstate)

    def start_consumer():
        return subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=open(root / "consumer.log", "a"),
            stderr=subprocess.STDOUT,
            start_new_session=True,  # own process group (ray children too)
            env={**os.environ, "RAY_ADDRESS": ""},
        )

    rss_log = open(root / "rss.jsonl", "a")
    t0 = time.time()
    consumer = start_consumer()
    kill_plan = sorted(float(x) for x in str(args.kill_at).split(",") if x)
    kills = []
    while time.time() - t0 < args.minutes * 60:
        time.sleep(10)
        rss = tree_rss_kb(consumer.pid)
        rss_log.write(json.dumps({
            "t": time.time() - t0, "rss_kb": rss, "files": n_files[0],
        }) + "\n")
        rss_log.flush()
        if kill_plan and time.time() - t0 > kill_plan[0] * 60:
            kill_plan.pop(0)
            os.killpg(os.getpgid(consumer.pid), signal.SIGKILL)
            consumer.wait()
            kills.append(round(time.time() - t0, 1))
            time.sleep(2)
            consumer = start_consumer()  # resume=True path
        if consumer.poll() is not None and consumer.returncode != 0:
            print(json.dumps({"error": "consumer died",
                              "rc": consumer.returncode}))
            return 1

    stop_producing.set()
    prod.join()
    if pump_th is not None:
        pump_th.join(timeout=600)  # pump writes _STOP once fully acked
        stop_pumping.set()
    else:
        (land / "_STOP").write_text("")
    rc = consumer.wait(timeout=600)
    if rc != 0:
        print(json.dumps({"error": "consumer exit", "rc": rc}))
        return 1

    # ---- verification: exactly-once content vs the landed input ----------
    import duckdb

    con = duckdb.connect()
    got = con.execute(
        f"""SELECT conv_id, turn_idx, text
            FROM read_parquet('{out}/ordered/epoch=*/*.parquet')
            ORDER BY conv_id, turn_idx"""
    ).df()
    exp = con.execute(
        f"""SELECT DISTINCT conv_id, turn_idx, text
            FROM read_parquet('{src}/f*.parquet')
            ORDER BY conv_id, turn_idx"""
    ).df()
    content_ok = got.equals(exp)

    user_ok = None
    if args.user_state:
        # order + exactly-once proof for the user-state hook: every row of
        # the user sink must carry EXACTLY the digest a serial chain replay
        # of the deduplicated landed input produces — any dropped, doubled,
        # or out-of-order turn anywhere (incl. across the kills) changes
        # every subsequent digest of that key
        import hashlib

        udf = con.execute(
            f"""SELECT conv_id, turn_idx, digest
                FROM read_parquet('{out}/user/epoch=*/*.parquet')
                ORDER BY conv_id, turn_idx"""
        ).df()
        chain, prev_key, d = [], None, ""
        for k, _t, x in exp.itertuples(index=False):
            if k != prev_key:
                prev_key, d = k, ""
            d = hashlib.md5(f"{d}|{x}".encode()).hexdigest()
            chain.append(d)
        user_ok = bool(
            len(udf) == len(exp)
            and (udf["conv_id"].to_numpy() == exp["conv_id"].to_numpy()).all()
            and (udf["turn_idx"].to_numpy() == exp["turn_idx"].to_numpy()).all()
            and (udf["digest"].to_numpy() == np.array(chain, dtype=object)).all()
        )
        content_ok = content_ok and user_ok

    probes = [json.loads(l) for l in
              (out / "state_probe.jsonl").read_text().splitlines()]
    rss = [json.loads(l) for l in
           (root / "rss.jsonl").read_text().splitlines()]
    half = len(rss) // 2
    rss_first = max(r["rss_kb"] for r in rss[:half]) if half else 0
    rss_second = max(r["rss_kb"] for r in rss[half:]) if half else 0
    key_series = [p["state"].get("windows", {}).get("keys", 0) for p in probes]
    summary = {
        "minutes": args.minutes,
        "files_landed": n_files[0],
        "rows_landed": int(len(exp)),
        "rows_emitted": int(len(got)),
        "content_exactly_once": bool(content_ok),
        "kills": kills,
        "rss_kb_first_half_max": rss_first,
        "rss_kb_second_half_max": rss_second,
        "rss_growth_ratio": round(rss_second / max(1, rss_first), 3),
        "window_keys_max": max(key_series) if key_series else 0,
        "window_keys_last": key_series[-1] if key_series else 0,
        "probes": len(probes),
    }
    if user_ok is not None:
        summary["user_digest_chain_ok"] = user_ok
    if queue is not None:
        qc = queue.counts()
        summary["source"] = "queue"
        summary["queue_counts"] = qc
        summary["queue_redelivered"] = pump_stats["redelivered"]
        summary["queue_fully_acked"] = (
            qc["available"] == 0 and qc["leased"] == 0
            and qc["acked"] == n_files[0]
        )
        content_ok = content_ok and summary["queue_fully_acked"]
    (root / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary))
    return 0 if content_ok else 1


if __name__ == "__main__":
    sys.exit(main())
