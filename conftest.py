"""Pin BLAS to one thread for the whole test suite, as ``perfbench/run.py``
does: OpenBLAS may sum a GEMM in another order at another thread count, and
the pinned checkpoint digests are recorded at one thread. The variables only
take effect if they are set before numpy is first imported."""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could pin BLAS to one thread")
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
