"""One benchmark run of one workload against the ray_ordered_stream engine.

Started by ``run.py`` (which adds a hard timeout and stops every process
left behind); it can also be run directly from the repository root:

    python3 perfbench/harness.py --workload ooo_replay --seed 1 --seconds 15 --trace 0

The engine is driven only through ``epochs.run_stream`` and
``epochs.run_stream_continuous``; results are read back from the durable
outputs (sink manifests, epoch records, checkpoints). ``--trace 0`` times
the workload's driver calls for ``--seconds`` seconds and reports the
end-to-end metrics; ``--trace 1`` runs the job once untraced and then
replays it in-process with spans (``layers.py``) to report per-layer
metrics. Every timed call's outputs are checked against the serial-replay
oracle; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from procs import CpuMeter, descendants, rss_bytes, wait_until_gone

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

P = 2                        # partitions (state actors) in every workload
STORE_BYTES = 512 * 1024**2  # plasma store, not preallocated
CALL_TIMEOUT_S = 60.0        # a driver call running longer counts as failed
RATE = 10.0                  # gen_transcripts clock: turns per second of event time
# paced_landing's open-loop schedule: files landed per second
PACED_FILES_PER_S = 12.5
# its polling period: under 1/rate, so some polls find no new file and
# commit the finished epochs (the commit frontier) instead of waiting for
# three to pend
PACED_POLL_S = 0.05
MIN_TURNS, MAX_TURNS = 40, 160  # turns per conversation (power law between)
RSS_PERIOD_S = 0.25             # peak-RSS sampling period


@dataclass(frozen=True)
class Spec:
    """Input shape and engine settings of one workload."""
    n_convs: int
    lateness: int               # max arrival displacement, in stream positions
    dup_rate: float
    n_files: int
    files_per_epoch: int
    operators: tuple = ()       # side operators enabled on top of the ordered drain
    fail_after_epoch: int | None = None


SPECS = {
    # few large epochs, heavy disorder: decode, hash+split exchange and the
    # out-of-order buffer drain carry the work; no side operator runs. Turns
    # of one conversation are about n_convs stream positions apart, so the
    # lateness is 4x that: about 30 % of turns arrive before their
    # predecessor and thousands wait in the buffer across epoch boundaries.
    # An odd number of equal epochs puts freshness_p50_s inside the middle
    # epoch's commit, not on the step between two commits
    "ooo_replay": Spec(n_convs=10000, lateness=40000, dup_rate=0.01, n_files=60, files_per_epoch=12),
    # one small file per epoch landed on a fixed schedule; n_files comes
    # from --seconds so the schedule spans the run
    "paced_landing": Spec(n_convs=0, lateness=50, dup_rate=0.01, n_files=0, files_per_epoch=1),
    # small, nearly in-order epochs holding the state of all four side
    # operators; crash, then resume
    "crash_resume": Spec(n_convs=2500, lateness=200, dup_rate=0.01, n_files=32, files_per_epoch=1,
                         operators=("windows", "sessions", "join", "cep"), fail_after_epoch=15),
}
PACED_CONVS_PER_FILE = 25

def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics, in their order there."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _engine_config(spec: Spec):
    """Windows and gaps sized against the generator clock: turns of one
    conversation are n_convs / RATE seconds apart, so a window of 8 such
    gaps sliding by one gap holds 8 turns per key and explodes each row
    into 8 hops; a session gap of 1.5 turn gaps keeps a conversation in one
    session."""
    from ray_ordered_stream.state import OrderedConfig

    turn_gap_s = spec.n_convs / RATE
    kw: dict = {}
    if "windows" in spec.operators:
        kw.update(window_size_s=8 * turn_gap_s, window_step_s=turn_gap_s)
    if "sessions" in spec.operators:
        kw["session_gap_s"] = 1.5 * turn_gap_s
    if "join" in spec.operators:
        kw["stream_join"] = True
    if "cep" in spec.operators:
        kw["pattern"] = ("assistant", "tool", "assistant")
    return OrderedConfig(**kw)


def _resolve(spec: Spec, seconds: int) -> Spec:
    """paced_landing's file count follows --seconds at the fixed rate, so
    its schedule spans the run."""
    if spec.n_files:
        return spec
    n_files = max(20, round(seconds * PACED_FILES_PER_S))
    return Spec(**{**spec.__dict__, "n_files": n_files,
                   "n_convs": n_files * PACED_CONVS_PER_FILE})


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _engine_hash() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "ray_ordered_stream").rglob("*.py")):
        h.update(f.read_bytes())
    return h.hexdigest()[:12]


@dataclass
class Fixture:
    dir: Path
    files: list[str]
    oracle: object              # pa.Table (conv_id, turn_idx, text, emit_seq) sorted
    n_turns: int
    n_dups: int
    early_frac: float           # share of turns arriving before their predecessor
    cached: bool
    gen_s: float


ORACLE_COLS = ["conv_id", "turn_idx", "text", "emit_seq"]


def early_frac(t) -> float:
    """Share of turns (first deliveries, turn_idx > 0) that arrive before
    the previous turn of their conversation: the input's measured disorder."""
    import numpy as np

    df = t.select(["conv_id", "turn_idx"]).to_pandas()
    df["pos"] = np.arange(len(df))
    df = df.drop_duplicates(["conv_id", "turn_idx"]).sort_values(["conv_id", "turn_idx"])
    conv, pos = df["conv_id"].to_numpy(), df["pos"].to_numpy()
    same = conv[1:] == conv[:-1]
    return float(((pos[1:] < pos[:-1]) & same).sum() / max(1, same.sum()))


def ensure_fixture(name: str, spec: Spec, seed: int) -> Fixture:
    """Input files + oracle for (workload, seed), generated once and cached
    under .perfbench/cache before anything is timed."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ray_ordered_stream.fixtures import gen_transcripts, oracle_ordered

    # the checkout path is in the key because crash_resume's cached crashed
    # output holds absolute paths in its manifests
    key = hashlib.sha256(f"{spec!r}{MIN_TURNS},{MAX_TURNS},{RATE}{_engine_hash()}{ROOT}".encode()).hexdigest()[:12]
    d = WORK / "cache" / f"{name}-s{seed}-{key}"
    cached = (d / "meta.json").exists()
    t0 = time.perf_counter()
    if not cached:
        tmp = d.with_name(d.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t = gen_transcripts(n_convs=spec.n_convs, min_turns=MIN_TURNS, max_turns=MAX_TURNS,
                            seed=seed, rate=RATE, lateness=spec.lateness, dup_rate=spec.dup_rate)
        step = -(-t.num_rows // spec.n_files)
        for i in range(spec.n_files):
            pq.write_table(t.slice(i * step, step), tmp / f"part-{i:05d}.parquet")
        o = oracle_ordered(t)
        pq.write_table(pa.Table.from_pandas(o[ORACLE_COLS], preserve_index=False),
                       tmp / "oracle.parquet")
        meta = {"n_turns": len(o), "n_dups": t.num_rows - len(o), "early_frac": early_frac(t)}
        (tmp / "meta.json").write_text(json.dumps(meta))
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)
    meta = json.loads((d / "meta.json").read_text())
    return Fixture(d, sorted(str(f) for f in d.glob("part-*.parquet")),
                   pq.read_table(d / "oracle.parquet"), meta["n_turns"], meta["n_dups"],
                   meta["early_frac"], cached, time.perf_counter() - t0)


def ensure_warmup_files(n: int) -> list[str]:
    """``n`` small input files for the warm-up epoch."""
    import pyarrow.parquet as pq

    from ray_ordered_stream.fixtures import gen_transcripts

    d = WORK / "cache" / f"warmup-{n}-{_engine_hash()}"
    if not d.exists():
        tmp = d.with_name(d.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t = gen_transcripts(n_convs=50 * n, min_turns=4, max_turns=40, seed=0, lateness=20, dup_rate=0.01)
        step = -(-t.num_rows // n)
        for i in range(n):
            pq.write_table(t.slice(i * step, step), tmp / f"part-{i:05d}.parquet")
        os.replace(tmp, d)
    return sorted(str(f) for f in d.glob("part-*.parquet"))


# ---------------------------------------------------------------------------
# Ray session, memory sampler, call timeout
# ---------------------------------------------------------------------------


def _ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout, unless its path would
    push Ray's unix sockets past the 107-byte limit."""
    d = WORK / "ray"
    return str(d) if len(str(d)) + 70 < 107 else None


def start_ray(cpus: int) -> None:
    import ray

    tmp = _ray_temp_dir()
    if tmp:
        shutil.rmtree(tmp, ignore_errors=True)  # earlier runs' sessions
    ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=STORE_BYTES, _temp_dir=tmp)


class RssSampler:
    """Peak summed RSS of this process's descendants (the Ray session),
    sampled from a thread; the load generator is excluded."""

    def __init__(self):
        self.exclude: set[int] = set()
        self.peak = 0
        self._stop = threading.Event()
        self._th = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            total = sum(rss_bytes(p) for p in descendants(me) if p not in self.exclude)
            self.peak = max(self.peak, total)
            self._stop.wait(RSS_PERIOD_S)

    def __enter__(self):
        self._th.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._th.join()
        return False


class CallTimeout(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    """Run ``fn`` on a thread; raise CallTimeout if it is still running after
    ``timeout`` seconds (the thread is then abandoned)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the calling thread
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise CallTimeout(f"driver call still running after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# ---------------------------------------------------------------------------
# correctness checks on the durable outputs
# ---------------------------------------------------------------------------


def _read_sink(out: Path, name: str):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ray_ordered_stream.sink import ManifestSink

    files = ManifestSink(str(out), name).committed_files()
    return pa.concat_tables([pq.read_table(f) for f in files]) if files else None


def check_outputs(out: Path, fx: Fixture) -> list[str]:
    """Ordered sink == oracle (text under (conv_id, turn_idx), emit_seq);
    final status per key: result_count sums to the ordered rows, nothing
    buffered, duplicates == the injected duplicates."""
    errors = []
    got = _read_sink(out, "ordered")
    if got is None:
        return ["ordered sink has no committed rows"]
    got = got.select(ORACLE_COLS).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    if got.num_rows != fx.oracle.num_rows:
        errors.append(f"ordered rows {got.num_rows} != oracle {fx.oracle.num_rows}")
    elif not all(got[c].equals(fx.oracle[c]) for c in ORACLE_COLS):
        errors.append("ordered sink differs from the oracle")
    st = _read_sink(out, "status")
    if st is None:
        return errors + ["status sink has no committed rows"]
    df = st.select(["conv_id", "status_ts", "result_count", "buffered_count", "duplicate_count"]).to_pandas()
    last = df.sort_values("status_ts", kind="stable").drop_duplicates("conv_id", keep="last")
    if int(last["result_count"].sum()) != got.num_rows:
        errors.append(f"status result_count {int(last['result_count'].sum())} != ordered rows {got.num_rows}")
    if int(last["buffered_count"].sum()) != 0:
        errors.append(f"{int(last['buffered_count'].sum())} rows still buffered")
    if int(last["duplicate_count"].sum()) != fx.n_dups:
        errors.append(f"duplicates {int(last['duplicate_count'].sum())} != injected {fx.n_dups}")
    return errors


def sink_digests(out: Path, epochs: set[int] | None = None) -> dict[str, list]:
    """sink/epoch/partition -> [rows, sha256 of the part file] over the
    committed manifests (optionally only ``epochs``)."""
    res = {}
    for man in sorted(out.glob("*/_manifests/epoch-*.json")):
        m = json.loads(man.read_text())
        if epochs is not None and m["epoch"] not in epochs:
            continue
        for p, v in m["parts"].items():
            f = Path(v["file"])
            sha = hashlib.sha256(f.read_bytes()).hexdigest() if v["rows"] else None
            res[f"{m['sink']}/{m['epoch']}/{p}"] = [v["rows"], sha]
    return res


def manifest_mtimes(out: Path) -> dict[int, float]:
    """Ordered-sink epoch -> wall-clock time its manifest was committed."""
    return {int(f.stem.split("-")[1]): f.stat().st_mtime
            for f in (out / "ordered" / "_manifests").glob("epoch-*.json")}


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------


def tail_level(n: int) -> int | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def describe(name: str, unit: str, values: list[float]) -> str:
    n = len(values)
    q = tail_level(n)
    tail = f"p{q}={percentile(values, q):.6g}" if q else f"max={max(values):.6g} (n<20: no tail)"
    each = f"  each={[float(f'{v:.4g}') for v in values]}" if n <= 10 else ""
    return f"  {name:<22} median={statistics.median(values):.6g} {unit:<6} {tail}  n={n}{each}"


@dataclass
class Samples:
    setup_s: float = 0.0
    turns_per_s: list[float] = field(default_factory=list)
    freshness: list[float] = field(default_factory=list)
    recovery: list[float] = field(default_factory=list)
    resume: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# workload calls: each returns after checking its outputs
# ---------------------------------------------------------------------------


@dataclass
class Ctx:
    name: str
    spec: Spec
    fx: Fixture
    cfg: object
    cpus: int
    sampler: RssSampler | None = None
    measure_cpu: bool = False       # CPU time of the driver calls (traced runs)
    reference: dict | None = None   # crash_resume: uninterrupted run's sink digests


def _fresh(d: Path) -> Path:
    shutil.rmtree(d, ignore_errors=True)
    return d


def _groups(ctx: Ctx) -> list[list[str]]:
    k = ctx.spec.files_per_epoch
    return [ctx.fx.files[i:i + k] for i in range(0, len(ctx.fx.files), k)]


def _ready_time(out: Path) -> float:
    """When the driver call had its partition actors up (and, on resume,
    restored): run_stream writes the checkpoint lineage meta right then."""
    return (out / "ckpt" / "meta.json").stat().st_mtime


def _record(s: Samples, wall: float, emitted: int, t_start: float, ready: float,
            epoch_due: dict[int, list[float]], mt: dict[int, float]) -> None:
    """Samples of one correct driver call. Freshness runs from the later of
    a file's due time and the engine being ready to the commit of the
    ordered manifest of the epoch holding it; recovery runs from the call
    to its first commit."""
    s.turns_per_s.append(emitted / wall)
    s.resume.append(wall)
    s.recovery.append(min(mt[e] for e in epoch_due) - t_start)
    for e, dues in epoch_due.items():
        s.freshness += [mt[e] - max(d, ready) for d in dues]


def _fail(s: Samples, errors: list[str], ops: int = 1) -> None:
    s.failed += ops
    s.errors += errors


def run_bounded(ctx: Ctx, s: Samples) -> dict:
    from ray_ordered_stream.epochs import run_stream

    out = _fresh(WORK / "out")
    groups = _groups(ctx)
    with CpuMeter(ctx.measure_cpu) as cpu:
        t_start = time.time()
        t0 = time.perf_counter()
        res = call_with_timeout(lambda: run_stream(
            ctx.fx.files, str(out), ctx.cfg, num_partitions=P,
            files_per_epoch=ctx.spec.files_per_epoch, resume=False), CALL_TIMEOUT_S)
        wall = time.perf_counter() - t0
    errors = check_outputs(out, ctx.fx)
    if errors:
        _fail(s, errors)
    else:
        _record(s, wall, res.total_emitted, t_start, _ready_time(out),
                {e: [t_start] * len(g) for e, g in enumerate(groups)}, manifest_mtimes(out))
    return {"wall": wall, "cpu": cpu.seconds, "result": res}


def crash(ctx: Ctx) -> None:
    """Run the job until the injected failure after fail_after_epoch and
    keep the crashed output directory with the fixture; every timed resume
    starts from a copy of it."""
    from ray_ordered_stream.epochs import run_stream

    if (ctx.fx.dir / "crashed").exists():
        return
    out = _fresh(WORK / "out")
    try:
        run_stream(ctx.fx.files, str(out), ctx.cfg, num_partitions=P, files_per_epoch=1,
                   resume=False, fail_after_epoch=ctx.spec.fail_after_epoch)
    except RuntimeError as e:
        if "injected failure" not in str(e):
            raise
    else:
        raise RuntimeError("the run did not stop at the injected failure")
    # the driver kills the partition actors without waiting; one still
    # writing its in-flight epoch would write into the moved directory
    if not wait_until_gone(b"ray::OrderedWorker", 30.0):
        raise RuntimeError("partition actors still running 30 s after the injected failure")
    os.replace(out, ctx.fx.dir / "crashed")


def run_crash_resume(ctx: Ctx, s: Samples) -> dict:
    """Resume the crashed job; the resumed leg is timed."""
    from ray_ordered_stream.epochs import run_stream

    out = _fresh(WORK / "out")
    shutil.copytree(ctx.fx.dir / "crashed", out)
    k = ctx.spec.fail_after_epoch
    groups = _groups(ctx)
    with CpuMeter(ctx.measure_cpu) as cpu:
        t_start = time.time()
        t0 = time.perf_counter()
        res = call_with_timeout(lambda: run_stream(
            ctx.fx.files, str(out), ctx.cfg, num_partitions=P, files_per_epoch=1, resume=True),
            CALL_TIMEOUT_S)
        wall = time.perf_counter() - t0
    errors = []
    if res.epochs_skipped != k + 1:
        errors.append(f"resumed after {res.epochs_skipped} epochs, expected {k + 1}")
    errors += check_outputs(out, ctx.fx)
    if sink_digests(out) != ctx.reference:
        errors.append("resumed sinks are not byte-identical to the uninterrupted run")
    if errors:
        _fail(s, errors)
    else:
        _record(s, wall, res.total_emitted, t_start, _ready_time(out),
                {e: [t_start] * len(groups[e]) for e in range(k + 1, len(groups))}, manifest_mtimes(out))
    return {"wall": wall, "cpu": cpu.seconds, "result": res, "restart_epoch": k}


def run_paced(ctx: Ctx, s: Samples) -> dict:
    """One open-loop schedule: the publisher lands ctx.fx.files at
    PACED_FILES_PER_S while run_stream_continuous consumes them."""
    from ray_ordered_stream.epochs import run_stream_continuous

    out = _fresh(WORK / "out")
    landing = _fresh(WORK / "landing")
    log = WORK / "publisher.json"
    log.unlink(missing_ok=True)
    pub = subprocess.Popen(
        [sys.executable, str(HERE / "publisher.py"), "--src", str(ctx.fx.dir), "--dst", str(landing),
         "--interval", str(1.0 / PACED_FILES_PER_S), "--ready", str(out / "ckpt" / "meta.json"),
         "--log", str(log)])
    if ctx.sampler is not None:
        ctx.sampler.exclude.add(pub.pid)
    try:
        t_start = time.time()
        t0 = time.perf_counter()
        res = call_with_timeout(lambda: run_stream_continuous(
            str(landing), str(out), ctx.cfg, num_partitions=P, files_per_epoch=1,
            poll_interval_s=PACED_POLL_S, idle_timeout_s=30.0, resume=False), CALL_TIMEOUT_S)
        wall = time.perf_counter() - t0
    finally:
        try:
            pub.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pub.kill()
            pub.wait()
    if pub.returncode != 0 or not log.exists():
        raise RuntimeError(f"publisher exited with {pub.returncode}")
    landed = {f["file"]: f for f in json.loads(log.read_text())["files"]}
    errors = check_outputs(out, ctx.fx)
    mt = manifest_mtimes(out)
    epoch_of: dict[str, list[int]] = {f: [] for f in landed}
    for rec in sorted((out / "epochs").glob("epoch-*.json")):
        r = json.loads(rec.read_text())
        for f in r["files"]:
            epoch_of.setdefault(f, []).append(r["epoch"])
    missed = [f for f, es in epoch_of.items() if len(es) != 1 or es[0] not in mt or f not in landed]
    if errors or missed:
        # a wrong sink fails every file; otherwise each misplaced file fails
        ops = len(ctx.fx.files) if errors else len(missed)
        if missed:
            errors.append(f"{len(missed)} landed files not in exactly one committed epoch")
        _fail(s, errors, ops)
    else:
        epoch_due: dict[int, list[float]] = {}
        for f, v in landed.items():
            epoch_due.setdefault(epoch_of[f][0], []).append(v["due"])
        _record(s, wall, res.total_emitted, t_start, _ready_time(out), epoch_due, mt)
    # backlog: files landed but not yet in a committed epoch, at each landing
    commit_t = sorted(mt[epoch_of[f][0]] for f in landed if f not in missed)
    land_t = sorted(v["landed"] for v in landed.values())
    backlog = max((i + 1 - bisect.bisect_right(commit_t, t) for i, t in enumerate(land_t)), default=0)
    return {"wall": wall, "result": res, "late_max_s": max(v["landed"] - v["due"] for v in landed.values()),
            "backlog_max_files": backlog}


RUNNERS = {"ooo_replay": run_bounded, "paced_landing": run_paced, "crash_resume": run_crash_resume}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def setup(cfg, cpus: int) -> float:
    """Ray session start plus the warm-up; the session stays up for the
    measurement. The warm-up is two one-epoch run_stream calls over as many
    small files as the engine runs read tasks at once: the first starts
    every task worker the workload will use, the second takes the spare
    workers Ray pre-started after the first, so the first timed call finds
    the worker pool as every later call does."""
    from ray_ordered_stream.epochs import run_stream

    warm = ensure_warmup_files(max(P, cpus))
    t0 = time.perf_counter()
    start_ray(cpus)
    for _ in range(2):
        run_stream(warm, str(_fresh(WORK / "warm")), cfg, num_partitions=P,
                   files_per_epoch=len(warm), resume=False)
    return time.perf_counter() - t0


def _prepare(ctx: Ctx) -> None:
    """Work a workload needs before timing: crash_resume's uninterrupted
    reference run and its crashed run, both cached with the fixture."""
    if ctx.name != "crash_resume":
        return
    ref = ctx.fx.dir / "reference.json"
    if not ref.exists():
        from ray_ordered_stream.epochs import run_stream

        out = _fresh(WORK / "reference")
        run_stream(ctx.fx.files, str(out), ctx.cfg, num_partitions=P, files_per_epoch=1, resume=False)
        errors = check_outputs(out, ctx.fx)
        if errors:
            raise RuntimeError(f"uninterrupted reference run is wrong: {errors}")
        ref.write_text(json.dumps(sink_digests(out)))
    ctx.reference = json.loads(ref.read_text())
    crash(ctx)


def measure(ctx: Ctx, seconds: float, s: Samples) -> None:
    runner = RUNNERS[ctx.name]
    # an operation is one driver call, or one landed file when paced
    ops = len(ctx.fx.files) if ctx.name == "paced_landing" else 1
    t_end = time.perf_counter() + seconds
    while True:
        s.attempted += ops
        try:
            runner(ctx, s)
        except CallTimeout as e:
            s.failed += ops
            s.errors.append(str(e))
            raise
        except Exception as e:  # a failed call is counted, the run goes on
            s.failed += ops
            s.errors.append(f"{type(e).__name__}: {e}")
        if ctx.name == "paced_landing" or time.perf_counter() >= t_end:
            break


def end_to_end(s: Samples, peak_rss: int) -> dict[str, float]:
    # a fixed tail level, so runs with more or fewer calls stay comparable
    n = len(s.freshness)
    return {
        "setup_s": s.setup_s,
        "turns_per_s": statistics.median(s.turns_per_s),
        "freshness_p50_s": statistics.median(s.freshness),
        "freshness_tail_s": percentile(s.freshness, 90) if n >= 100 else max(s.freshness),
        "recovery_s": statistics.median(s.recovery),
        "resume_s": statistics.median(s.resume),
        "peak_rss_mb": peak_rss / 1024**2,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    cpus = len(os.sched_getaffinity(0))
    sys.path.insert(0, str(ROOT))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT), os.environ.get("PYTHONPATH")]))
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ["RAY_preallocate_plasma_memory"] = "0"
    WORK.mkdir(exist_ok=True)

    spec = _resolve(SPECS[a.workload], a.seconds)
    fx = ensure_fixture(a.workload, spec, a.seed)
    print(f"{a.workload} seed={a.seed} cpus={cpus} P={P} turns={fx.n_turns} files={spec.n_files} "
          f"epochs={-(-spec.n_files // spec.files_per_epoch)}")
    print(f"  fixture_s={fx.gen_s:.3f} ({'cached' if fx.cached else 'generated'}; not timed) "
          f"dups={fx.n_dups} early_frac={fx.early_frac:.4f}")
    ctx = Ctx(a.workload, spec, fx, _engine_config(spec), cpus)
    if a.trace:
        from trace_run import trace_workload

        return trace_workload(ctx)

    s = Samples()
    s.setup_s = setup(ctx.cfg, cpus)
    _prepare(ctx)
    hung = False
    with RssSampler() as sampler:
        ctx.sampler = sampler
        try:
            measure(ctx, a.seconds, s)
        except CallTimeout:
            hung = True
    for e in s.errors:
        print(f"  error: {e}")
    print(f"  attempted={s.attempted} failed={s.failed} error_rate={s.failed / max(1, s.attempted):.4g}")
    if not s.turns_per_s:
        print("  no driver call completed", file=sys.stderr)
        sys.stdout.flush()
        os._exit(1)
    metrics = end_to_end(s, sampler.peak)
    units = metric_units("end_to_end")
    print(f"  setup_s={s.setup_s:.4f} s (one Ray session start + warm-up)")
    lists = {"turns_per_s": s.turns_per_s, "freshness_p50_s": s.freshness,
             "recovery_s": s.recovery, "resume_s": s.resume}
    for name, values in lists.items():
        print(describe(name, units[name], values))
    print(f"  freshness_tail_s = {'p90' if len(s.freshness) >= 100 else 'max'} of n={len(s.freshness)} files")
    print(f"  peak_rss_mb={metrics['peak_rss_mb']:.1f} (peak of the run)")
    # a call that was wrong, raised or hung fails the run
    result = {"correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    sys.stdout.flush()
    if hung:
        os._exit(1)
    import ray

    ray.shutdown()
    return 0 if s.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
