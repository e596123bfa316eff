"""Process environment shared by the benchmark entry points.

Kept free of numpy/scipy imports: thread pinning only takes effect when it
happens before the first BLAS library is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# glibc malloc settings for the benchmark process and its children: freed
# memory stays in the heap instead of going back to the kernel, so arrays
# allocated again and again on every pass do not page-fault each time. The
# kernel time of those faults was the noisiest share of a pass.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=1073741824")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process, inherited by child processes."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def reexec_with_malloc_tunables(argv: list[str]) -> None:
    """Restart this script with ``MALLOC_TUNABLES`` set, unless it already is.

    glibc reads its tunables only at process start. ``exec`` replaces the
    process, so no extra process is left to wait for.
    """
    if os.environ.get("GLIBC_TUNABLES") == MALLOC_TUNABLES:
        return
    os.environ["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *argv])


def add_source() -> None:
    """Put the checkout's own ``src`` first on the import path.

    Raises SystemExit(2) when the checkout holds no package source, so the
    benchmark never measures an installed copy by accident.
    """
    if not (SRC / "hjbranch" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/hjbranch; "
              "run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hjbranch
    if Path(hjbranch.__file__).resolve().parent != SRC / "hjbranch":
        print(f"error: imported hjbranch from {hjbranch.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
