"""`python -m spherewave` and the `spherewave` console script.

--threads owns the parallelism of a command: BLAS runs single-threaded, so
every product rounds alike on every machine and no command pays for starting
BLAS threads.  The thread counts are set before numpy is imported, unless the
environment already sets them.
"""

import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
