"""Process-tree helpers read straight from /proc (Linux), so the
supervisor needs nothing beyond the standard library."""

from __future__ import annotations

import os
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _ppids() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces or parentheses: split after the last ')'
        out[int(d)] = int(stat[stat.rindex(b")") + 2:].split()[1])
    return out


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``."""
    children: dict[int, list[int]] = {}
    for p, pp in _ppids().items():
        children.setdefault(pp, []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def rss_bytes(pid: int) -> int:
    """Resident set size of ``pid``; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0



_TICK = os.sysconf("SC_CLK_TCK")
CPU_PERIOD_S = 0.02  # CpuMeter's sampling period


def cpu_seconds(pid: int) -> float | None:
    """User + system CPU time of ``pid`` (all its threads); None once gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return None
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


class CpuMeter:
    """CPU seconds spent by this process and its descendants while the
    meter is open. Descendants are sampled from a thread, and every process
    seen is followed until it is gone, so workers that start and exit (or
    are re-parented) inside the window are counted up to their last sample.
    The sampling thread's own CPU is left out."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.seconds: float | None = None
        self._first: dict[int, float] = {}
        self._last: dict[int, float] = {}
        self._stop = threading.Event()
        self._own = 0.0
        self._th = threading.Thread(target=self._loop, daemon=True)

    def _sample(self, initial: bool = False) -> None:
        for pid in set(descendants(os.getpid())) | set(self._last):
            v = cpu_seconds(pid)
            if v is None:
                continue
            # a process first seen after the start was born inside the window
            self._first.setdefault(pid, v if initial else 0.0)
            self._last[pid] = v

    def _loop(self) -> None:
        t0 = time.thread_time()
        while not self._stop.wait(CPU_PERIOD_S):
            self._sample()
        self._own = time.thread_time() - t0

    def __enter__(self):
        if self.enabled:
            self._self0 = cpu_seconds(os.getpid())
            self._sample(initial=True)
            self._th.start()
        return self

    def __exit__(self, *exc):
        if self.enabled:
            self._stop.set()
            self._th.join()
            self._sample()
            mine = cpu_seconds(os.getpid()) - self._self0 - self._own
            self.seconds = mine + sum(self._last[p] - self._first[p] for p in self._last)
        return False


def wait_until_gone(title: bytes, timeout_s: float) -> bool:
    """Wait until no descendant's command line starts with ``title`` (Ray
    sets a worker's title to ``ray::<ActorClass>``); False on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        alive = False
        for pid in descendants(os.getpid()):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    alive = f.read().startswith(title)
            except OSError:
                continue
            if alive:
                break
        if not alive:
            return True
        time.sleep(0.05)
    return False
