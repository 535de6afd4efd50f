"""The settings a result was measured under, recorded with every result.

Results taken with a different core count, interpreter, numpy, BLAS or
BLAS thread count are not comparable; `env_id` changes when any of them
does, so a comparison across settings cannot happen silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> dict:
    import numpy as np  # not at import time: thread settings must come first

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    return {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}


def _git_describe(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unavailable"


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    threads = {v: os.environ[v] for v in THREAD_VARS if v in os.environ}
    blas = _blas()
    settings = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        # unset means OpenBLAS starts one thread per allowed core
        "blas_threads": threads or "default (one per core)",
        "machine": platform.machine(),
    }
    env_id = hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()[:12]
    return {**settings, "env_id": env_id, "git_describe": _git_describe(root), "seed": seed}
