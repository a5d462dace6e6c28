"""Load the package before any test module imports numpy.

Importing ``dispersal`` sets ``OPENBLAS_NUM_THREADS=1`` (unless the caller
set a count) before numpy loads, as it does in every CLI process.  The test
modules import numpy first, so without this import the suite's LAPACK and
BLAS calls would run on OpenBLAS's default worker threads, unlike the
program they test.
"""

import dispersal  # noqa: F401
