"""Import sparsecut from the source tree of the checkout this file sits in."""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_sparsecut():
    """Return the checkout's sparsecut package; exit with status 2 without it.

    The benchmark must measure the code next to it, never an installed copy,
    so a missing ``src/sparsecut`` is an error.
    """
    # "single-threaded": keep numpy's BLAS from starting worker threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    init = SRC / "sparsecut" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("sparsecut")
    if Path(module.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported sparsecut from {module.__file__}, not {init}")
    return module
