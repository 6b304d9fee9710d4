"""The command line: ``python -m fracdim`` and the installed ``fracdim`` script.

Both start in run(), which sets the BLAS thread variables to 1 unless they
are already set, and only then imports the CLI and with it numpy.  numpy's
OpenBLAS otherwise starts a pool of worker threads that spin on every
process start, yet fracdim calls no BLAS routine; a future path that leans on
BLAS must revisit this default.  The package root imports nothing eagerly, so
numpy is not loaded before run() is reached.
"""
import os


def run() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import entry
    entry()


if __name__ == "__main__":
    run()
