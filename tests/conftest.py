"""Suite-wide test settings.

Hypothesis runs a fixed, derandomized example sequence and keeps no example
database, so the suite repeats exactly.  Its remaining on-disk cache (the
literal constants it collects from the package source) goes to a temporary
directory removed when the session ends, so no ``.hypothesis/`` is left in
the checkout.  Per-test ``@settings`` still apply on top of this profile.
"""

import os
import tempfile

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="ultragrid-hypothesis-")
    config.add_cleanup(storage.cleanup)
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", storage.name)
