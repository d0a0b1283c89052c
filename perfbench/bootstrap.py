"""Process set-up shared by the benchmark's entry points.

`prepare()` must run before numpy is imported: it pins the BLAS thread
pools to one thread and puts the checkout's `src/` first on the import
path, then makes sure `ordsel` really comes from that checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """Raised when the checkout holds no `src/ordsel` to benchmark."""


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "ordsel" / "__init__.py").is_file():
        raise MissingProgram(f"no ordsel package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ordsel

    if Path(ordsel.__file__).resolve().parent != SRC / "ordsel":
        raise MissingProgram(f"imported ordsel from {ordsel.__file__}, not from {SRC}")
