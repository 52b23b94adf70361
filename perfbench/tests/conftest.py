import gc
import os
import sys

import pytest

# the benchmark's modules import each other as top-level modules, as they do
# when run as scripts from perfbench/
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def _unfreeze_gc():
    """``run_setup`` freezes the heap for timing; give later tests a normal one."""
    yield
    gc.unfreeze()
