"""pytest loads this file before any test module, and nothing has loaded numpy
by then: importing ``ckom`` here sets its one-OpenBLAS-thread default, so the
suite runs its solvers as the ``ckom`` command does."""

import ckom  # noqa: F401
