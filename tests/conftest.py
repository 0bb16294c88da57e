"""Pin the BLAS to one thread before numpy loads.

benchmarks/run.py starts every request with these pins, and the golden
manifest (tests/golden) holds what those requests print.  A multithreaded
BLAS sums some products in another order and moves the last bits of a few
outputs (the ht_eig column of ``spectrum``), so the tests run pinned too;
the children they start inherit the pins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
