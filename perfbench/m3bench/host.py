"""Host facts recorded with every result, and resident-memory probes."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np


def _meminfo() -> Dict[str, int]:
    """``/proc/meminfo`` in bytes (empty off Linux)."""
    info: Dict[str, int] = {}
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                key, _, rest = line.partition(":")
                parts = rest.split()
                if parts:
                    info[key] = int(parts[0]) * (1024 if parts[1:] == ["kB"] else 1)
    except OSError:
        pass
    return info


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path`` (longest prefix)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process), MiB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{status} has no VmHWM line")


def reset_peak_rss(pid: Optional[int] = None) -> None:
    """Restart ``VmHWM`` from the current resident set (Linux 4.0+)."""
    with open(f"/proc/{pid if pid is not None else 'self'}/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def thread_bytes_written() -> int:
    """Bytes this thread has passed to write-like syscalls (``wchar``)."""
    with open("/proc/thread-self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/thread-self/io has no wchar line")


def host_facts(data_dir: Path, seed: int, rates: Dict[str, Any]) -> Dict[str, Any]:
    """What a reader needs to judge a result: machine, versions, data placement."""
    mem = _meminfo()
    return {
        "nproc": os.cpu_count(),
        "ram_bytes": mem.get("MemTotal"),
        "mem_available_bytes": mem.get("MemAvailable"),
        "page_cache_bytes": mem.get("Cached"),
        # Every workload reads data it wrote moments earlier in the same run,
        # and scans make one untimed pass first: the timed reads are warm.
        "page_cache_state": "warm",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "data_dir_fs": filesystem_of(data_dir),
        "seed": seed,
        "rates": rates,
    }
