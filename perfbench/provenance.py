"""Provenance stamped on every benchmark result.

Ties a result to the code (git SHA and dirty flag, when the tree is a
git checkout), the machine (CPU model, usable CPUs) and the numerical
stack (Python, numpy, scipy, OpenBLAS) that produced it, plus the
thread environment the measured process ran with.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

#: Thread-count variables pinned to 1 in every measured process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(environ=os.environ) -> dict:
    """Pin BLAS/OpenMP threads to 1; returns the inherited values.

    Must run before numpy is first imported: OpenBLAS sizes its thread
    pool when the library loads.
    """
    inherited = {name: environ.get(name) for name in THREAD_VARS}
    for name in THREAD_VARS:
        environ[name] = "1"
    return inherited


def _git(root: Path, *args: str) -> str | None:
    # The ceiling keeps git from adopting a repository above the tree
    # (a checkout without its own .git has no SHA).
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=20, check=False, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version(module) -> str:
    try:
        config = module.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["version"])
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def collect(root: Path, inherited: dict) -> dict:
    """The provenance record of one benchmark process."""
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas_version(numpy),
        "openblas_scipy": _openblas_version(scipy),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "thread_env_inherited": inherited,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }
