import numpy as np
import pytest

from kweave.frames import Frame
from kweave.kframe import KOperator
from kweave.perturbation import PerturbationParams


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
    params = PerturbationParams(0.4 * float(np.linalg.norm(e, 2)), 0.2, 0.1, 4.0)
    return Frame(t1), Frame(t1 + e), KOperator(np.eye(3)), params
