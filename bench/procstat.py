"""CPU time and peak memory of this process and its descendants.

``os.times()`` and ``getrusage(RUSAGE_CHILDREN)`` only count children
that have already been reaped; replicas and shard workers are alive
for the whole timed window, so their counters are read from ``/proc``.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    # The command name may hold spaces and parentheses; the fields
    # after its closing parenthesis start at field 3 (state).
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2:].split()


def descendants(root: int = None) -> List[int]:
    """Live pids whose ancestry leads to ``root`` (default: this one)."""
    root = os.getpid() if root is None else root
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue                  # exited while we were looking
        children.setdefault(parent, []).append(int(entry))
    found: List[int] = []
    frontier = [root]
    while frontier:
        frontier = [child for pid in frontier
                    for child in children.get(pid, [])]
        found.extend(frontier)
    return found


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds of this process plus ``pids``."""
    total = time.process_time()
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def peak_rss_mb(pids: List[int]) -> float:
    """Max RSS of this process plus the sum of ``pids``' high-water
    marks, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0
