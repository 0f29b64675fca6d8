"""Benchmark entry point for the ray_ordered_stream engine.

    python3 perfbench/run.py --workload ooo_replay --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, one table

Runs ``harness.py`` for the workload in a child process with a hard time
limit, relays its output (the last line is the JSON result), and then stops
and waits for every process the run left behind: this process registers as
a child subreaper, so Ray daemons orphaned by the child are re-parented here
and killed. Workloads, metrics and the layer-to-metric mapping are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import SPECS
from procs import descendants

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = list(SPECS)
RUN_TIMEOUT_S = 170.0   # the whole child run; a hung run fails, the others go on
PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_all() -> None:
    """Terminate, then kill, every remaining descendant; wait for each."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        procs = descendants(os.getpid())
        for pid in procs:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while procs and time.monotonic() < deadline:
            _collect_zombies()
            procs = [p for p in procs if _alive(p)]
            time.sleep(0.05)
        if not procs:
            return


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            return f.read().split(b")")[-1].split()[0] != b"Z"
    except OSError:
        return False


def _collect_zombies() -> None:
    """Reap exited children, including orphans re-parented to us."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, str | None]:
    """Run one workload; returns (exit code, last stdout line)."""
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, bufsize=1)
    last = None
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        sel = selectors.DefaultSelector()
        sel.register(child.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                print(f"{workload}: run exceeded {RUN_TIMEOUT_S:.0f} s, stopped", file=sys.stderr)
                child.kill()
                child.wait()
                return 124, None
            if not sel.select(timeout=min(left, 1.0)):
                continue
            line = child.stdout.readline()
            if not line:
                break
            line = line.rstrip("\n")
            if last is not None:
                print(last, flush=True)
            last = line
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_all()
    return code, last


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not (ROOT / "ray_ordered_stream" / "__init__.py").exists():
        print(f"engine package ray_ordered_stream not found under {ROOT}", file=sys.stderr)
        return 2
    _become_subreaper()

    if a.workload != "all":
        code, last = run_one(a.workload, a.seed, a.seconds, a.trace)
        if code != 0:
            # a wrong output still prints its (correct=false) result
            if last and last.startswith("{"):
                print(last, flush=True)
            return code or 1
        print(last, flush=True)
        return 0

    results, worst = {}, 0
    for w in WORKLOADS:
        code, last = run_one(w, a.seed, a.seconds, a.trace)
        worst = worst or code
        try:
            results[w] = json.loads(last) if last else None
        except json.JSONDecodeError:
            results[w] = None
        print(last or f"{w}: no result (exit {code})", flush=True)
    print("\nworkload          metric                      value        unit")
    for w, r in results.items():
        if r is None:
            print(f"{w:<17} FAILED")
            continue
        err = r["failed"] / r["attempted"]
        print(f"{w:<17} {'error_rate':<27} {err:<12.4g} ratio  "
              f"(attempted={r['attempted']} correct={r['correct']})")
        for k, v in r["metrics"].items():
            print(f"{w:<17} {k:<27} {v['value']:<12.6g} {v['unit']}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
