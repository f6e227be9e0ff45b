import os
import sys

# Tier-1 leaves no bytecode cache under src/: a cache left there makes the
# benchmark's setup_s time a cached import, not a compile from source.  The
# environment variable reaches the subprocesses that tests start.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from fractions import Fraction

import pytest

from qscheme import catalog


@pytest.fixture(scope="session")
def q_half() -> Fraction:
    return Fraction(1, 2)


@pytest.fixture(scope="session")
def pv_3a():
    """Al-Salam-Chihara instance used across the suite: q=1/2, a=2, b=1/4."""
    return catalog.instantiate("3a")


@pytest.fixture(scope="session")
def pv_5b():
    return catalog.instantiate("5b")


@pytest.fixture(scope="session")
def pv_1a_top():
    """The four-parameter top-level instance (q=1/2, a=2, b=1/3, c=1/5, d=1/7)."""
    return catalog.instantiate("1a")
