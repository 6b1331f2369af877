import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process, running or exited and unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "a running child" if pid == 0 else f"child {pid}, exited but unreaped"
    pytest.fail(f"the test left {state}")
