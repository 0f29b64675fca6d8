"""The traced run (``--trace 1``): the workload's job once through the
engine, untraced, then through the in-process replay of ``layers.py``,
first without spans (the single-threaded baseline), then with them.
Per-layer numbers come from the traced replay's self times and counters.
``ray_overhead_s`` is the CPU time the engine's process tree spent on the
job minus the replay's layer self times on the same input: on one core
that equals the wall-time difference; on several cores the layers overlap
in wall time, so only CPU time separates Ray's own cost (worker start,
scheduling, object transfer, IPC) from the layers' work.
"""

from __future__ import annotations

import json
import time

from harness import (WORK, Ctx, P, Samples, _fail, _fresh, _groups, _prepare, check_outputs,
                     metric_units, run_bounded, run_crash_resume, run_paced, setup, sink_digests)
from layers import Tracer, replay
from procs import CpuMeter

def _engine_job(ctx: Ctx, s: Samples) -> dict:
    """Run the workload's job through the engine once; return the wall time
    to compare the replay with, the output to compare its bytes with, and
    the engine-side counters."""
    from ray_ordered_stream.epochs import run_stream

    if ctx.name == "crash_resume":
        s.attempted += 1
        info = run_crash_resume(ctx, s)
        return {**info, "out": WORK / "out", "start": info["restart_epoch"] + 1}
    if ctx.name != "paced_landing":
        s.attempted += 1
        info = run_bounded(ctx, s)
        return {**info, "out": WORK / "out", "start": 0}
    s.attempted += len(ctx.fx.files)
    info = run_paced(ctx, s)
    # the paced wall time is set by the schedule; time the same epochs
    # unpaced for the comparison with the replay
    out = _fresh(WORK / "unpaced")
    with CpuMeter() as cpu:
        t0 = time.perf_counter()
        run_stream(ctx.fx.files, str(out), ctx.cfg, num_partitions=P, files_per_epoch=1, resume=False)
        wall = time.perf_counter() - t0
    s.attempted += 1
    errors = check_outputs(out, ctx.fx)
    if errors:
        _fail(s, errors)
    return {"wall": wall, "cpu": cpu.seconds, "out": out, "start": 0, "result": info["result"],
            "late_max_s": info["late_max_s"], "backlog_max_files": info["backlog_max_files"]}


def trace_workload(ctx: Ctx) -> int:
    s = Samples()
    ctx.measure_cpu = True
    setup(ctx.cfg, ctx.cpus)
    _prepare(ctx)
    job = _engine_job(ctx, s)
    engine_cpu = job["cpu"]
    groups = _groups(ctx)
    start = job["start"]
    restore_root = str(job["out"]) if start else None

    def run_replay(tracer: Tracer) -> tuple[float, dict]:
        out = _fresh(WORK / "replay")
        t0 = time.perf_counter()
        with tracer.span("job"):
            c = replay(groups, ctx.cfg, P, str(out), tracer, ctx.cpus, start, restore_root)
        return time.perf_counter() - t0, c

    wall_u, _ = run_replay(Tracer("untraced", enabled=False))
    tracer = Tracer(f"{ctx.name}-trace")
    wall_t, c = run_replay(tracer)
    # the extra hash calls only separate hash from split time
    wall_t -= c["hash_calls_s"]
    epochs = set(range(start, len(groups)))
    s.attempted += 1
    if sink_digests(WORK / "replay", epochs) != sink_digests(job["out"], epochs):
        _fail(s, ["in-process replay sinks differ from the engine's"])
    spans_path = WORK / f"spans-{ctx.name}.jsonl"
    tracer.dump(spans_path)

    st = tracer.self_times()
    hash_s = st.get("partitioning.hash", 0.0)
    # "job" is the replay loop itself; the separate hash call repeats work
    # split_table does inside
    layer_sum = sum(v for k, v in st.items() if k != "job") - hash_s
    stages = job["result"].metrics.get("stages") or [{}]
    m = {
        "ordered.decode_s": st.get("ordered.decode", 0.0),
        "partitioning.hash_s": hash_s,
        "partitioning.split_s": st.get("partitioning.split", 0.0) - hash_s,
        "partitioning.bytes_per_turn": c["shard_bytes"] / c["rows_in"],
        "partitioning.skew": float(c["part_rows"].max() / c["part_rows"].mean()),
        "state.process_s": st.get("state.process", 0.0),
        "state.buffered_rows_max": c["buffered_max"],
        "state.emit_frac": c["rows_emitted"] / c["rows_in"],
        "state.snapshot_s": st.get("state.snapshot", 0.0),
        "stream_ops.window_s": st.get("stream_ops.window", 0.0),
        "stream_ops.session_s": st.get("stream_ops.session", 0.0),
        "stream_ops.join_s": st.get("stream_ops.join", 0.0),
        "cep.match_s": st.get("cep.match", 0.0),
        "stream_ops.encode_s": st.get("stream_ops.encode", 0.0),
        "stream_ops.state_size": c["state_size"],
        "sink.write_s": st.get("sink.write", 0.0),
        "sink.bytes": c["sink_bytes"],
        "sink.commit_s": st.get("sink.commit", 0.0),
        "epochs.epoch_commit_p50_s": stages[0].get("lat_p50", 0.0),
        "checkpoint.write_s": st.get("checkpoint.write", 0.0),
        "checkpoint.bytes": c["ckpt_bytes"],
        "checkpoint.restore_s": st.get("checkpoint.restore", 0.0),
        "ray_overhead_s": engine_cpu - layer_sum,
        "replay.wall_s": wall_u,
        "trace.overhead_frac": wall_t / wall_u - 1.0,
        "loadgen.late_max_s": job.get("late_max_s", 0.0),
        "paced.backlog_max_files": job.get("backlog_max_files", 0),
    }
    units = metric_units("per_layer")
    for e in s.errors:
        print(f"  error: {e}")
    print(f"  engine job wall={job['wall']:.4f} s cpu={engine_cpu:.4f} s  replay untraced={wall_u:.4f} s "
          f"traced={wall_t:.4f} s  layer self-time sum={layer_sum:.4f} s  "
          f"spans={len(tracer.spans)} -> {spans_path.name}")
    for k, v in m.items():
        print(f"  {k:<30} {v:.6g} {units[k]}")
    result = {"correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in m.items()}}
    print(json.dumps(result))
    import ray

    ray.shutdown()
    return 0 if s.failed == 0 else 1
