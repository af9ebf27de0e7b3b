import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """Fail a test after which a child process of this one is still alive."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(10)
    assert not left, f"processes still running after the test: {left}"
