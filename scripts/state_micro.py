"""Micro-benchmark of the ordered core on one core: µs per input row of
``OrderedPartitionState.process``, of ``snapshot(dirty_only=True)``, of
the checkpoint write (``write_partition_checkpoint``) and of the restore of
the last epoch (``read_merged_checkpoint``), and the checkpoint bytes per
call, at the three call sizes of the benchmark's workloads.

    python scripts/state_micro.py [--seed 101] [--repeat 3]

Each shape feeds partition 0 (of 2, as the benchmark runs) of one
``fixtures.gen_transcripts`` table to a fresh state in calls of the shape's
row count, snapshots and checkpoints after every call (as a partition actor
does after every epoch), restores the last call's epoch once, and prints
the median over ``--repeat`` passes.
Arrow runs on one thread, as in a partition actor (``pa.set_cpu_count(1)``).
No Ray, no benchmark harness: run it from the repository root to time the
engine in the checkout.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import pyarrow as pa

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ray_ordered_stream.checkpoint import (  # noqa: E402
    read_merged_checkpoint,
    write_partition_checkpoint,
)
from ray_ordered_stream.fixtures import gen_transcripts  # noqa: E402
from ray_ordered_stream.partitioning import split_table  # noqa: E402
from ray_ordered_stream.schema import KEY  # noqa: E402
from ray_ordered_stream.state import OrderedConfig, OrderedPartitionState  # noqa: E402

# name: (conversations, lateness, rows per call) — the per-partition call
# sizes of paced_landing, crash_resume and ooo_replay at P = 2
SHAPES = {
    "1.5k": (4_700, 50, 1_500),
    "4.7k": (2_500, 200, 4_700),
    "120k": (10_000, 40_000, 120_000),
}
CALLS = 8  # calls per pass (fewer when the partition runs out of rows)


def one_pass(t: pa.Table, rows: int, root: str) -> dict[str, float]:
    """Seconds spent in each layer over the calls of one pass, and the
    checkpoint bytes per call."""
    st = OrderedPartitionState(OrderedConfig())
    spent = {"process": 0.0, "snapshot": 0.0, "checkpoint": 0.0, "restore": 0.0,
             "bytes": 0.0}
    ts = pa.scalar(0, pa.timestamp("us")).as_py()
    calls = min(CALLS, -(-t.num_rows // rows))
    for epoch in range(calls):
        batch = t.slice(epoch * rows, rows)
        t0 = time.perf_counter()
        st.process(batch, ts)
        t1 = time.perf_counter()
        snap = st.snapshot(dirty_only=True)
        t2 = time.perf_counter()
        d = write_partition_checkpoint(root, 0, epoch, snap)
        st.mark_clean()
        t3 = time.perf_counter()
        spent["process"] += t1 - t0
        spent["snapshot"] += t2 - t1
        spent["checkpoint"] += t3 - t2
        spent["bytes"] += sum(f.stat().st_size for f in Path(d).iterdir()) / calls
    t0 = time.perf_counter()
    read_merged_checkpoint(root, 0, calls - 1)
    spent["restore"] = time.perf_counter() - t0
    return spent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    print(f"{'rows/call':>9} {'rows':>8} {'process':>10} {'snapshot':>10} {'checkpoint':>10} "
          f"{'restore':>10}  (µs/row) {'bytes/call':>11}")
    for name, (n_convs, lateness, rows) in SHAPES.items():
        t = gen_transcripts(n_convs=n_convs, min_turns=40, max_turns=160,
                            seed=args.seed, lateness=lateness, dup_rate=0.01)
        t = split_table(t, KEY, 2)[0]
        fed = min(t.num_rows, CALLS * rows)
        passes = []
        for _ in range(args.repeat):
            with tempfile.TemporaryDirectory() as root:
                passes.append(one_pass(t, rows, root))
        med = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        us = {k: v * 1e6 / fed for k, v in med.items()}
        print(f"{name:>9} {fed:>8} {us['process']:>10.3f} {us['snapshot']:>10.3f} "
              f"{us['checkpoint']:>10.3f} {us['restore']:>10.3f}  {med['bytes']:>19.0f}")


if __name__ == "__main__":
    main()
