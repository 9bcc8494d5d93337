"""cqmlab: a numerical laboratory for finite-dimensional compact quantum
metric spaces and their order-unit quantum Gromov-Hausdorff geometry."""

import os

__version__ = "0.1.0"

# QGH_THREADS caps the BLAS thread pools, which are sized when numpy is
# first imported: so here, before any cqmlab module imports numpy.  Without
# it the pools default to one thread, unless set explicitly: the support
# solves are loops of tiny eigensolves that idle pool threads only slow down
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    if os.environ.get("QGH_THREADS"):
        os.environ[_var] = os.environ["QGH_THREADS"]
    else:
        os.environ.setdefault(_var, "1")
