"""Where one bounded job's actor and task time goes, from ``ray.timeline()``.

Usage: python scripts/actor_timeline.py [--workload crash_resume|ooo_replay]
                                        [--seed 101] [--runs 3] [--cpus 4]

Builds the input of a perfbench workload (its ``SPECS`` entry and engine
config, from ``perfbench/harness.py``) in a temporary directory, starts a
local Ray session, warms the partition actors up with one untimed job, and
then runs the job ``--runs`` times in that session, as the benchmark's
timed calls do: ``ooo_replay`` is one fresh ``run_stream``;
``crash_resume`` crashes once after the spec's epoch (untimed) and times
the resumed leg from a copy of the crashed output.

For the timed calls it prints, from the task events Ray records, the
count, sum and p50 of every actor method and task in milliseconds, and per
partition actor its epoch calls' summed time against the time at least
one of them was running (their union): the part of the sum past the union
is the overlap of one call's writes with the next call's drain. The
perfbench replay runs its stages one after another, so it cannot show that
overlap; this script does. Prints the calls' wall time last.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "perfbench"))

# the actor methods that run one epoch each
EPOCH_CALLS = ("OrderedWorker.process_epoch_to_sink", "OrderedWorker.flush_final_to_sink")


def make_input(work: Path, workload: str, seed: int):
    """The workload's input files, its engine config and its spec."""
    import pyarrow.parquet as pq

    from harness import MAX_TURNS, MIN_TURNS, RATE, SPECS, _engine_config
    from ray_ordered_stream.fixtures import gen_transcripts

    spec = SPECS[workload]
    t = gen_transcripts(n_convs=spec.n_convs, min_turns=MIN_TURNS, max_turns=MAX_TURNS,
                        seed=seed, rate=RATE, lateness=spec.lateness, dup_rate=spec.dup_rate)
    step = -(-t.num_rows // spec.n_files)
    files = []
    for i in range(spec.n_files):
        f = work / "input" / f"part-{i:05d}.parquet"
        f.parent.mkdir(parents=True, exist_ok=True)
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))
    return files, _engine_config(spec), spec


def timed_calls(work: Path, files: list[str], cfg, spec, runs: int) -> list[tuple[float, float]]:
    """Run the warm-up job and the ``runs`` timed ones; returns each timed
    call's (start, end) wall-clock time in seconds."""
    from ray_ordered_stream.epochs import run_stream

    P = 2  # as every perfbench workload
    fpe = spec.files_per_epoch
    out = work / "out"
    crashed = work / "crashed"
    if spec.fail_after_epoch is not None:
        try:
            run_stream(files, str(crashed), cfg, num_partitions=P, files_per_epoch=fpe,
                       resume=False, fail_after_epoch=spec.fail_after_epoch)
        except RuntimeError as e:
            if "injected failure" not in str(e):
                raise
    # the warm-up: it boots the pooled actors the timed calls lease
    run_stream(files, str(work / "warm"), cfg, num_partitions=P, files_per_epoch=fpe,
               resume=False)
    spans = []
    for _ in range(runs):
        shutil.rmtree(out, ignore_errors=True)
        if spec.fail_after_epoch is not None:
            shutil.copytree(crashed, out)
        t0 = time.time()
        run_stream(files, str(out), cfg, num_partitions=P, files_per_epoch=fpe,
                   resume=spec.fail_after_epoch is not None)
        spans.append((t0, time.time()))
    return spans


def task_events(spans: list[tuple[float, float]]) -> list[dict]:
    """The timeline's actor-method and task events that start inside one of
    ``spans``."""
    import ray

    # task events reach the GCS about once a second
    time.sleep(3.0)
    out = []
    for e in ray.timeline():
        cat = e.get("cat", "")
        if e.get("ph") != "X" or not cat.startswith("task::"):
            continue
        ts = e["ts"] / 1e6
        if any(a <= ts <= b for a, b in spans):
            out.append({"name": cat[len("task::"):], "tid": e["tid"],
                        "start": ts, "dur": e["dur"] / 1e6})
    return out


def union_s(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def report(events: list[dict], spans: list[tuple[float, float]]) -> None:
    by_name = defaultdict(list)
    for e in events:
        by_name[e["name"]].append(e["dur"])
    print(f"{'method / task':48s} {'count':>6s} {'sum ms':>9s} {'p50 ms':>8s}")
    for name, durs in sorted(by_name.items(), key=lambda kv: -sum(kv[1])):
        print(f"{name:48s} {len(durs):6d} {1e3 * sum(durs):9.1f} "
              f"{1e3 * float(np.median(durs)):8.2f}")
    per_actor = defaultdict(list)
    for e in events:
        if e["name"] in EPOCH_CALLS:
            per_actor[e["tid"]].append((e["start"], e["start"] + e["dur"]))
    print(f"\n{'partition actor (epoch calls)':48s} {'calls':>6s} {'sum ms':>9s} "
          f"{'union ms':>9s} {'overlap':>8s}")
    for i, (_tid, iv) in enumerate(sorted(per_actor.items())):
        s = sum(b - a for a, b in iv)
        u = union_s(iv)
        print(f"{'actor ' + str(i):48s} {len(iv):6d} {1e3 * s:9.1f} {1e3 * u:9.1f} "
              f"{(s - u) / s if s else 0.0:8.1%}")
    walls = [b - a for a, b in spans]
    print(f"\ntimed calls: {len(walls)}, wall p50 {1e3 * float(np.median(walls)):.1f} ms, "
          f"sum {1e3 * sum(walls):.1f} ms")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="crash_resume", choices=("crash_resume", "ooo_replay"))
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--cpus", type=int, default=4)
    args = ap.parse_args(argv)

    import ray

    work = Path(tempfile.mkdtemp(prefix="actor_timeline-"))
    try:
        files, cfg, spec = make_input(work, args.workload, args.seed)
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
        try:
            spans = timed_calls(work, files, cfg, spec, args.runs)
            report(task_events(spans), spans)
        finally:
            ray.shutdown()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
