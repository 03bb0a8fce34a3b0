"""Where a result was measured: machine, libraries and source version."""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")


def single_threaded():
    """Default every BLAS/OpenMP pool to one thread; call before numpy loads.

    padmm runs as one single-threaded process.  A threaded BLAS makes its
    few dot products no faster here but keeps a second core spinning, and
    a different thread count changes the order of their reductions.
    """
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return os.uname().machine


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def git_commit():
    """Commit of the checkout's HEAD, or None outside a git work tree."""
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        ref = head[5:]
        loose = _read(ROOT / ".git" / ref)
        if loose:
            return loose
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return None
    return head


def source_sha256():
    """Digest of the package sources, which identifies them without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "padmm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "kernel": os.uname().release,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }
