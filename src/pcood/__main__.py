"""Entry point of ``python -m pcood`` and of the ``pcood`` console script."""

import os
import sys


def main(argv=None) -> int:
    """Run the command line without BLAS thread pools.

    pcood calls no BLAS routine, yet the OpenBLAS that numpy and scipy
    each load starts a spinning thread unless this is set before numpy is
    imported. A value already in the environment wins. ``--help`` and
    usage errors exit without importing numpy at all.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from ._args import main as args_main
    return args_main(argv)


if __name__ == "__main__":
    sys.exit(main())
