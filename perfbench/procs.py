"""Process-table helpers: children, process groups, CPU time and memory.

Everything here reads ``/proc`` of the benchmark's own processes.  Pool
workers stay alive between jobs, so ``RUSAGE_CHILDREN`` cannot see their
CPU; their run time comes from ``/proc/<pid>/task/*/schedstat``
(nanoseconds on CPU) and their peak RSS from ``VmHWM``.
"""

from __future__ import annotations

import os
import resource
import signal
import time
from pathlib import Path

PROC = Path("/proc")


def children(pid: int) -> list[int]:
    """Live child pids of ``pid`` (all of its threads' children)."""
    found: list[int] = []
    try:
        tasks = list((PROC / str(pid) / "task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        found.extend(int(p) for p in text.split())
    return [p for p in found if _alive(p)]


def group_members(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid`` (zombies excluded)."""
    members = []
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_bytes()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rindex(b")") + 2:].split()
        if fields[0] != b"Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


def _alive(pid: int) -> bool:
    try:
        stat = (PROC / str(pid) / "stat").read_bytes()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:].split()[0] != b"Z"


def reap_group(pgid: int, timeout_s: float = 10.0) -> list[int]:
    """Kill what is left of process group ``pgid`` and wait until it is
    gone; returns the pids that were left."""
    left = group_members(pgid)
    if not left:
        return []
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + timeout_s
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return left


def cpu_ns(pid: int) -> int:
    """Nanoseconds ``pid`` has spent on a CPU, over all its threads."""
    total = 0
    try:
        tasks = list((PROC / str(pid) / "task").iterdir())
    except OSError:
        return 0
    for task in tasks:
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB (0.0 if it is gone)."""
    try:
        for line in (PROC / str(pid) / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


class CpuMeter:
    """CPU seconds of this process plus its live children, between marks.

    A job's CPU is the driver's user+system time (all threads) plus each
    worker's on-CPU time over the same interval; workers idle between
    jobs, so per-job deltas add up to the run's total.
    """

    def __init__(self) -> None:
        self._driver = 0.0
        self._workers: dict[int, int] = {}

    def start(self) -> None:
        self._driver = self_cpu_s()
        self._workers = {p: cpu_ns(p) for p in children(os.getpid())}

    def stop(self) -> float:
        driver = self_cpu_s() - self._driver
        workers = sum(
            cpu_ns(p) - self._workers.get(p, 0)
            for p in children(os.getpid())
        )
        return driver + workers / 1e9
