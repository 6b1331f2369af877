"""Metamorphic properties that the weaving theory guarantees.

Each test compares the library with itself under a transformation
whose effect on the bounds is known exactly, so no second copy of the
algorithm is needed as an oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kweave.frames import Frame
from kweave.kframe import BISECT_REL_WIDTH, NOISE_FLOOR_SCALE, KOperator
from kweave.weaving import weaving_bound_table


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(derandomize=True, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 6), rank=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_swapping_the_frames_complements_every_digit_row(d, n, rank, seed):
    rng = np.random.default_rng(seed)
    f1, f2 = Frame(_complex(rng, d, n)), Frame(_complex(rng, d, n))
    r = min(rank, d)
    k = KOperator(_complex(rng, d, r) @ _complex(rng, r, d))
    base = weaving_bound_table([f1, f2], k)
    swapped = weaving_bound_table([f2, f1], k)
    # Row i of (F2, F1) picks the same columns as the complemented row
    # of (F1, F2); exhaustive rows count in binary, column 0 slowest.
    rows = (1 - swapped.digits.astype(np.int64)) @ (2 ** np.arange(n - 1, -1, -1))
    np.testing.assert_allclose(swapped.uppers, base.uppers[rows], rtol=1e-12, atol=1e-12)
    # Both bisections bracket the same supremum to BISECT_REL_WIDTH;
    # bounds at the noise floor are reported as exactly 0.
    tol = (2 * BISECT_REL_WIDTH * np.maximum(swapped.lowers, base.lowers[rows])
           + NOISE_FLOOR_SCALE * (1.0 + base.uppers[rows]))
    assert np.all(np.abs(swapped.lowers - base.lowers[rows]) <= tol)
