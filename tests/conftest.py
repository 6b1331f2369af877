import os

import numpy as np
import pytest

from kweave.frames import Frame
from kweave.kframe import KOperator
from kweave.perturbation import PerturbationParams


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


@pytest.fixture
def unresolved_triple():
    """A seeded (F1, F2, K, params) whose premise is neither proved nor refuted.

    D^*D - Sigma has a positive eigenvalue (about 0.66), so the premise
    cannot be proved, yet the largest ratio ||Da|| / (lam||a|| +
    mu||T1 a|| + nu||T2 a||) over 2e5 random unit vectors is about 0.96.
    """
    rng = np.random.default_rng(1)
    t1 = 2.0 * np.eye(3, dtype=complex)
    e = 0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    params = PerturbationParams(0.4 * float(np.linalg.norm(e, 2)), 0.2, 0.1)
    return Frame(t1), Frame(t1 + e), KOperator(np.eye(3)), params
