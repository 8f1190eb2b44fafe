"""Suite-wide test settings.

Hypothesis runs a fixed, derandomized example sequence and keeps no example
database, so the suite repeats exactly.  Its remaining on-disk cache (the
literal constants it collects from the package source) goes to a temporary
directory removed when the session ends, so no ``.hypothesis/`` is left in
the checkout.  Per-test ``@settings`` still apply on top of this profile.

BLAS and OpenMP default to one thread, as in the benchmark, so that the
suite times and runs the kernels as the benchmark does.  OpenBLAS reads the
variables when numpy loads it, so they are set before anything here imports
numpy; a value set in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tempfile  # noqa: E402

from hypothesis import settings  # noqa: E402

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="ultragrid-hypothesis-")
    config.add_cleanup(storage.cleanup)
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", storage.name)
