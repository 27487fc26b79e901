import tracemalloc

import pytest


def _traced_peak(fn):
    """``(fn(), peak)``: what ``fn()`` returns, and the ``tracemalloc`` peak in bytes of the allocations made while it ran.

    numpy reports its buffers to ``tracemalloc``, so the peak counts arrays as well as Python objects.
    """
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
