"""The environment block written with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path
from typing import Optional

NOTE = "timings from a shared 2-core sandbox"


def _read(path: Path) -> Optional[str]:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(index / "size")
    return out


def _openblas() -> list:
    """Version and thread count of each OpenBLAS loaded (numpy and scipy
    may each bundle their own)."""
    out = []
    libs = {line.split()[-1] for line in (_read(Path("/proc/self/maps")) or "").splitlines()
            if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    out.append({"config": config().decode(), "threads": threads()})
    return out


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref} unresolved)"


def environment(root: Path, polyrad_threads: str) -> dict:
    import numpy
    import scipy

    return {
        "note": NOTE,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "POLYRAD_THREADS": polyrad_threads,
        "git_commit": _git_commit(root),
    }
