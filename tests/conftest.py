"""Pin BLAS to one thread before numpy is imported by any test module.

The timings in README and the time gates of the acceptance tests assume a
single BLAS thread; a value already set in the environment is kept."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
