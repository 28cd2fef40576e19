from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis imports this module only when a test fails, and through libcst it
# raises a DeprecationWarning; under -W error that turns the report of the
# failing example into a pytest INTERNALERROR.  Importing it here, once, with
# the warning ignored keeps failures reportable.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # Hypothesis or libcst not installed
        pass

from helpers import three_user_problem, two_user_problem


@pytest.fixture
def two_user():
    return two_user_problem()


@pytest.fixture
def three_user():
    return three_user_problem()


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set how many usable CPUs the forked workers see, each one this process may use."""
    from streamshare import _workers

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]

    def use(count):
        monkeypatch.setattr(_workers, "usable_cpus", lambda: (cpus * count)[:count])

    return use
