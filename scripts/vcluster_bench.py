"""Multi-raylet virtual-cluster scaling evidence (BASELINE.md "second
evidence path"): build 1x8 and 4x8 Ray clusters ON THIS MACHINE with `ray
start` — each virtual node pinned to its own 8 physical cores with its own
raylet and plasma store — and run the identical headline job on both.

This is the closest sandbox substitute for the north rule's N-node vs
4N-node criterion that still exercises real multi-node mechanics (object
transfer between stores, per-node raylets, SPREAD actor placement). It
remains bounded by one machine's memory bandwidth; the affinity method in
bench.py --scaling is the mandated measurement, this one is corroboration
(VERDICT r3 next-step #6: re-run per round so the per-node-store analysis
tracks the current code).

Usage: python scripts/vcluster_bench.py [--convs 500000] [--reps 2]
Writes one JSON line; run with nothing else on the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

HEAD_PORT = 6411


def sh(cmd: list[str], env=None) -> None:
    r = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if r.returncode != 0:
        raise RuntimeError(f"{cmd}: {r.stderr[-800:]}")


def _node_ports(i: int) -> list[str]:
    """Disjoint per-node port assignments. All virtual nodes share one
    host's port space; ray's defaults collide (observed: a worker node's
    gRPC server dying at startup with EADDRINUSE on a worker port, which
    silently invalidates the 4x8 measurement)."""
    return [
        "--node-manager-port", str(6480 + i),
        "--object-manager-port", str(6520 + i),
        "--dashboard-agent-listen-port", str(52400 + i),
        "--dashboard-agent-grpc-port", str(52500 + i),
        "--runtime-env-agent-port", str(52600 + i),
        "--metrics-export-port", str(62000 + i),
        "--min-worker-port", str(11000 + i * 1000),
        "--max-worker-port", str(11999 + i * 1000),
    ]


def start_cluster(nodes: int, cores_per: int, store_gb: int) -> None:
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    base = [
        "--num-cpus", str(cores_per),
        "--object-store-memory", str(store_gb << 30),
        "--disable-usage-stats",
    ]
    sh(
        ["taskset", "-c", f"0-{cores_per - 1}", "ray", "start", "--head",
         "--port", str(HEAD_PORT), "--include-dashboard=false",
         *_node_ports(0), *base],
        env,
    )
    for i in range(1, nodes):
        lo, hi = i * cores_per, (i + 1) * cores_per - 1
        sh(
            ["taskset", "-c", f"{lo}-{hi}", "ray", "start",
             "--address", f"127.0.0.1:{HEAD_PORT}", *_node_ports(i), *base],
            env,
        )
    _wait_nodes(nodes, cores_per)


def _wait_nodes(nodes: int, cores_per: int, timeout_s: float = 60.0) -> None:
    """Block until every virtual node is ALIVE with its full CPU count —
    a crashed raylet must fail the run, not skew it."""
    import ray

    ray.init(address=f"127.0.0.1:{HEAD_PORT}", include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    deadline = time.time() + timeout_s
    while True:
        alive = [n for n in ray.nodes() if n["Alive"]]
        cpus = sum(int(n["Resources"].get("CPU", 0)) for n in alive)
        if len(alive) == nodes and cpus == nodes * cores_per:
            ray.shutdown()
            return
        if time.time() > deadline:
            ray.shutdown()
            raise RuntimeError(
                f"cluster degraded: {len(alive)}/{nodes} nodes, "
                f"{cpus}/{nodes * cores_per} CPUs"
            )
        time.sleep(1.0)


def stop_cluster() -> None:
    subprocess.run(["ray", "stop", "--force"], capture_output=True)
    time.sleep(2)


def run_job(files: list[str], P: int, out_root: str,
            files_per_epoch: int) -> tuple[float, int]:
    """Connect to the running cluster and run the headline stream job."""
    import ray

    ray.init(
        address=f"127.0.0.1:{HEAD_PORT}",
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray_ordered_stream.epochs import run_stream
    from ray_ordered_stream.state import OrderedConfig

    cfg = OrderedConfig(warmup_rows=65536)
    import shutil

    shutil.rmtree(out_root, ignore_errors=True)
    os.sync()
    t0 = time.time()
    res = run_stream(files, out_root, cfg, num_partitions=P,
                     files_per_epoch=files_per_epoch, resume=False)
    wall = time.time() - t0
    n = res.summary["results"]
    assert res.summary["buffered"] == 0
    ray.shutdown()
    return wall, n


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--convs", type=int, default=500_000)
    ap.add_argument("--reps", type=int, default=2)
    args = ap.parse_args()

    os.environ["ROS_BENCH_CONVS"] = str(args.convs)
    import bench

    path = bench.ensure_bench_input()
    files = sorted(str(p) for p in Path(path).glob("*.parquet"))
    fpe = max(1, len(files) // max(1, bench.BENCH_EPOCHS))
    for f in files:
        open(f, "rb").read()  # page-cache warm

    results = {}
    for name, nodes, P, store_gb in (
        ("1x8", 1, 8, 24),
        ("4x8", 4, 32, 10),
    ):
        stop_cluster()
        start_cluster(nodes, 8, store_gb)
        try:
            # warm: one epoch (worker import, kernels)
            run_job(files[:fpe], P, f"/tmp/ros_vc/warm_{name}", fpe)
            best, n = None, 0
            for _ in range(args.reps):
                w, n = run_job(files, P, f"/tmp/ros_vc/run_{name}", fpe)
                best = w if best is None or w < best else best
            results[name] = {
                "wall_sec": round(best, 2),
                "turns": n,
                "turns_per_sec": round(n / best),
                "nodes": nodes,
                "P": P,
                "store_gb_per_node": store_gb,
            }
        finally:
            stop_cluster()
    out = {
        "topologies": results,
        "efficiency_1x8_to_4x8": round(
            (results["1x8"]["wall_sec"] / results["4x8"]["wall_sec"]) / 4, 3
        ),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
