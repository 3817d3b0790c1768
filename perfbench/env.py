"""The process environment every measurement runs in.

BLAS/OpenMP pools are pinned to one thread *before* NumPy loads and the
setting is inherited by every child (benchmark subprocesses and the
rank workers the program forks).  Unpinned, OpenBLAS starts one thread
per core in every process, and the 4-process LeNet step on this 2-core
host measures 84 +/- 52 ms instead of 9.7 +/- 1.5 ms — that is the
scheduler, not the program (see README, "Noise").
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

#: Repository (or checkout) root: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class NoProgramError(RuntimeError):
    """``src/repro`` is not next to ``perfbench/``: nothing to measure."""


def prepare() -> None:
    """Pin BLAS threads and make the program importable.

    Call before the first ``import numpy``.  The program is taken from
    ``<root>/src`` only — never from an installed copy — so a checkout
    without it fails instead of measuring something else.
    """
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise NoProgramError(f"no program to measure: {src}/repro is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def describe() -> Dict:
    """Static facts about this host and toolchain for a record's ``meta``."""
    import numpy as np

    from repro.comm.transport import default_start_method

    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "start_method": default_start_method(),
        "platform": platform.platform(),
    }
