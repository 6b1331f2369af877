"""Metamorphic properties that the weaving and Douglas theory guarantees.

Each test compares the library with itself under a transformation
whose effect on the bounds is known exactly.  The pencil's own property
test also checks every row against the independent closed form in
``oracles``.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kweave.errors import NearSingularWarning
from kweave.frames import Frame, frame_bounds
from kweave.kframe import (PSD_TOL_SCALE, KOperator, douglas_check, is_kframe,
                           kframe_lower_bound, pencil_lower_bounds)
from kweave.weaving import (CHUNK, Partition, report_from_table, weaving_bound_table,
                            weaving_family)

from oracles import pencil_supremum_closed_form

derandomized = settings(derandomize=True, deadline=None)
families = given(d=st.integers(1, 3), n=st.integers(1, 6), rank=st.integers(1, 3),
                 seed=st.integers(0, 2 ** 32 - 1))
#: Tables of 2^10 to 2^12 distinct weavings, past one chunk, so each is pruned.
wide_families = given(d=st.integers(1, 3), n=st.integers(10, 12), rank=st.integers(1, 3),
                      seed=st.integers(0, 2 ** 32 - 1))
#: Two computations of the same bound may differ by this share of it ...
BOUND_REL_TOL = 2e-9
#: ... plus this share of 1 + the weaving's upper bound.
BOUND_ABS_SCALE = 1e-13


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _family(rng, d, n, rank):
    """Two random frames and a random K of rank min(rank, d), as matrices."""
    r = min(rank, d)
    return _complex(rng, d, n), _complex(rng, d, n), _complex(rng, d, r) @ _complex(rng, r, d)


def _unitary(rng, d):
    q, _ = np.linalg.qr(_complex(rng, d, d))
    return q


def _scalar(rng):
    """A complex scalar of modulus in [1/4, 4] and any phase."""
    return 4.0 ** rng.uniform(-1.0, 1.0) * np.exp(2j * np.pi * rng.uniform())


def _table(f1, f2, k):
    return weaving_bound_table([Frame(f1), Frame(f2)], KOperator(k))


def _assert_bounds_agree(actual, expected, uppers):
    tol = (BOUND_REL_TOL * np.maximum(actual, expected)
           + BOUND_ABS_SCALE * (1.0 + uppers))
    assert np.all(np.abs(actual - expected) <= tol)


def _assert_universal_bounds_agree(moved, base, lower_scale=1.0, upper_scale=1.0):
    """The verdicts of two tables, read before any other row, agree on the universal bounds.

    ``base``'s bounds are multiplied by ``lower_scale`` and ``upper_scale``.
    """
    after, before = report_from_table(moved), report_from_table(base)
    upper = after.universal_upper
    _assert_bounds_agree(upper, upper_scale * before.universal_upper, upper)
    _assert_bounds_agree(after.universal_lower, lower_scale * before.universal_lower, upper)


def _check_swap(rng, d, n, rank):
    f1, f2, k = _family(rng, d, n, rank)
    base = _table(f1, f2, k)
    swapped = _table(f2, f1, k)
    _assert_universal_bounds_agree(swapped, base)
    # Row i of (F2, F1) picks the same columns as the complemented row
    # of (F1, F2); exhaustive rows count in binary, column 0 slowest.
    rows = (1 - swapped.digits.astype(np.int64)) @ (2 ** np.arange(n - 1, -1, -1))
    np.testing.assert_allclose(swapped.uppers, base.uppers[rows], rtol=1e-12, atol=1e-12)
    _assert_bounds_agree(swapped.lowers, base.lowers[rows], base.uppers[rows])


@derandomized
@families
def test_swapping_the_frames_complements_every_digit_row(d, n, rank, seed):
    _check_swap(np.random.default_rng(seed), d, n, rank)


def _check_unitary(rng, d, n, rank):
    f1, f2, k = _family(rng, d, n, rank)
    u = _unitary(rng, d)
    base = _table(f1, f2, k)
    moved = _table(u @ f1, u @ f2, u @ k)
    _assert_universal_bounds_agree(moved, base)
    _assert_bounds_agree(moved.uppers, base.uppers, base.uppers)
    _assert_bounds_agree(moved.lowers, base.lowers, base.uppers)


@derandomized
@families
def test_unitary_image_keeps_every_bound(d, n, rank, seed):
    _check_unitary(np.random.default_rng(seed), d, n, rank)


def _check_permutation(rng, d, n, rank):
    f1, f2, k = _family(rng, d, n, rank)
    perm = rng.permutation(n)
    k = KOperator(k)
    frames = [Frame(f1), Frame(f2)]
    moved_frames = [Frame(f1[:, perm]), Frame(f2[:, perm])]
    base = weaving_bound_table(frames, k)
    moved = weaving_bound_table(moved_frames, k)
    # Moved column j is base column perm[j], so base row r picks the
    # same vectors as the moved row whose digits are its digits[perm].
    rows = base.digits[:, perm].astype(np.int64) @ (2 ** np.arange(n - 1, -1, -1))
    _assert_universal_bounds_agree(moved, base)
    _assert_bounds_agree(moved.uppers[rows], base.uppers, base.uppers)
    _assert_bounds_agree(moved.lowers[rows], base.lowers, base.uppers)


@derandomized
@families
def test_permuting_the_columns_permutes_the_rows(d, n, rank, seed):
    _check_permutation(np.random.default_rng(seed), d, n, rank)


@derandomized
@given(d=st.integers(1, 3), n=st.integers(1, 6), m=st.integers(2, 3), rank=st.integers(1, 3),
       shared=st.integers(0, 2 ** 6 - 1), zero=st.integers(0, 2 ** 6 - 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_an_agreeing_column_leaves_every_bound_bitwise_equal(d, n, m, rank, shared, zero, seed):
    rng = np.random.default_rng(seed)
    agree = [j for j in range(n) if shared >> j & 1]
    mats = [_complex(rng, d, n) for _ in range(m)]
    for j in agree:
        for mat in mats:
            mat[:, j] = 0.0 if zero >> j & 1 else mats[0][:, j]
    r = min(rank, d)
    frames, k = [Frame(mat) for mat in mats], KOperator(_complex(rng, d, r) @ _complex(rng, r, d))
    table = weaving_bound_table(frames, k)
    # Flipping an agreeing column's digit picks the same vectors.
    lowers, uppers = table.lowers.reshape((m,) * n), table.uppers.reshape((m,) * n)
    for j in agree:
        for digit in range(1, m):
            np.testing.assert_array_equal(lowers.take(digit, axis=j), lowers.take(0, axis=j))
            np.testing.assert_array_equal(uppers.take(digit, axis=j), uppers.take(0, axis=j))
    # So the first row in enumeration order of any tie holds 0 on every agreeing column.
    median = float(np.median(table.lowers))
    report = report_from_table(table, median if median > 0 else 1.0)
    worst = np.flatnonzero(table.lowers == table.lowers.min())[0]
    assert report.worst_partition.digits == tuple(table.digits[worst].tolist())
    assert not any(report.worst_partition.digits[j] for j in agree)
    if report.failing_partition is not None:
        first = np.flatnonzero(table.lowers < report.threshold)[0]
        assert report.failing_partition.digits == tuple(table.digits[first].tolist())
        assert not any(report.failing_partition.digits[j] for j in agree)


@derandomized
@given(d=st.integers(1, 4), n=st.integers(1, 6), m=st.integers(2, 3), rank=st.integers(1, 4),
       shared=st.integers(0, 2 ** 6 - 1), budget=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_row_equals_the_check_of_its_weaving_bitwise(d, n, m, rank, shared, budget, seed):
    # A table row and a single-frame check are two routes to one number:
    # the weaving's S, formed one way, and the pencil bound on it.
    rng = np.random.default_rng(seed)
    mats = [_complex(rng, d, n) for _ in range(m)]
    for j in range(n):
        if shared >> j & 1:
            for mat in mats:
                mat[:, j] = mats[0][:, j]
    r = min(rank, d)
    frames, k = [Frame(mat) for mat in mats], KOperator(_complex(rng, d, r) @ _complex(rng, r, d))
    for table in (weaving_bound_table(frames, k),
                  weaving_bound_table(frames, k, "sampled", budget=budget, seed=seed)):
        for row in range(table.digits.shape[0]):
            weaving = weaving_family(frames, Partition(tuple(table.digits[row].tolist()), m))
            assert table.lowers[row] == kframe_lower_bound(weaving, k)
            assert table.uppers[row] == is_kframe(weaving, k).upper
            assert table.uppers[row] == frame_bounds(weaving).upper


def _check_scaling(rng, d, n, rank):
    f1, f2, k = _family(rng, d, n, rank)
    c = _scalar(rng)
    s = abs(c) ** 2
    base = _table(f1, f2, k)
    # c*F scales every frame operator, so both bounds, by |c|^2.
    scaled_frames = _table(c * f1, c * f2, k)
    _assert_universal_bounds_agree(scaled_frames, base, s, s)
    _assert_bounds_agree(scaled_frames.uppers, s * base.uppers, scaled_frames.uppers)
    _assert_bounds_agree(scaled_frames.lowers, s * base.lowers, scaled_frames.uppers)
    # c*K scales KK^* by |c|^2: the lowers by 1/|c|^2, the uppers not at all.
    scaled_k = _table(f1, f2, c * k)
    _assert_universal_bounds_agree(scaled_k, base, 1.0 / s)
    np.testing.assert_array_equal(scaled_k.uppers, base.uppers)
    _assert_bounds_agree(scaled_k.lowers, base.lowers / s, base.uppers)


@derandomized
@families
def test_scaling_rescales_the_bounds(d, n, rank, seed):
    _check_scaling(np.random.default_rng(seed), d, n, rank)


@settings(derandomize=True, deadline=None, max_examples=12)
@pytest.mark.parametrize("check", [_check_swap, _check_unitary, _check_permutation,
                                   _check_scaling], ids=["swap", "unitary", "permutation",
                                                         "scaling"])
@wide_families
def test_invariances_hold_on_pruned_tables(check, d, n, rank, seed):
    # Each check reads both verdicts before any full row, so the prune
    # decides them, then compares every row.
    assert 2 ** n > CHUNK
    check(np.random.default_rng(seed), d, n, rank)


def test_scaling_k_keeps_a_zero_lower_bound_zero():
    # Two columns in C^3 never span, and range(K) leaks into the gap, so
    # every weaving's optimal lower bound is exactly 0.
    rng = np.random.default_rng(0)
    f1, f2, k = _family(rng, 3, 2, 2)
    c = _scalar(rng)
    base = _table(f1, f2, k)
    scaled_k = _table(f1, f2, c * k)
    _assert_bounds_agree(scaled_k.lowers, base.lowers / abs(c) ** 2, base.uppers)


@derandomized
@given(d=st.integers(1, 4), n=st.integers(1, 6), rows=st.integers(1, 6), rank=st.integers(1, 4),
       log_scale=st.integers(-12, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_pencil_makes_at_most_four_eigensolver_calls_and_returns_feasible_rows(
        d, n, rows, rank, log_scale, seed):
    rng = np.random.default_rng(seed)
    # Rows of every rank up to d, spread over 24 orders of magnitude.
    frames = [_complex(rng, d, int(rng.integers(0, n + 1))) * 10.0 ** log_scale
              for _ in range(rows)]
    s_stack = np.stack([f @ f.conj().T for f in frames])
    _, _, k = _family(rng, d, 1, rank)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearSingularWarning)
        k = KOperator(k)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    solvers = ("eig", "eigh", "eigvals", "eigvalsh", "svd")
    with mock.patch.multiple(np.linalg, **{name: counted(getattr(np.linalg, name))
                                           for name in solvers}):
        lowers, lam_max = pencil_lower_bounds(s_stack, k)
    assert len(calls) <= 4
    assert np.all(np.isfinite(lowers)) and np.all(lowers >= 0.0)
    # Every bound scales with S, so the oracle (whose tolerances are
    # absolute) sees each row at unit scale.
    unit = 10.0 ** (2 * log_scale)
    for s, a, top in zip(s_stack, lowers, lam_max):
        assert top == pytest.approx(max(float(np.linalg.eigvalsh(s)[-1]), 0.0), rel=1e-12)
        assert np.linalg.eigvalsh(s - a * k.gram)[0] >= -PSD_TOL_SCALE * (1.0 + top)
        _assert_bounds_agree(a / unit, pencil_supremum_closed_form(s / unit, k.gram),
                             top / unit)


def _pencil_row(rng, kind, d, k):
    """A frame operator of the given kind, at a random scale."""
    if kind == "spanning":
        f = _complex(rng, d, d + 2)
    elif kind == "singular":  # R(S) = R(K)
        f = k @ _complex(rng, d, d)
    elif kind == "leaking":  # d - 1 vectors: R(K) leaks out of R(S) unless K is small
        f = _complex(rng, d, d - 1)
    else:  # ill-conditioned: cond(S) from 1e4 to 1e16, on both sides of the route switch
        f = _unitary(rng, d) @ np.diag(np.logspace(0.0, -rng.uniform(2.0, 8.0), d))
    return 10.0 ** rng.integers(-6, 7) * (f @ f.conj().T)


@derandomized
@given(d=st.integers(1, 4), rank=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(["spanning", "singular", "leaking", "ill-conditioned"]),
                      min_size=1, max_size=8))
def test_every_pencil_row_is_bitwise_independent_of_its_stack(d, rank, seed, kinds):
    # Each row picks its route and passes or fails its Cholesky check on
    # its own, so its bounds cannot depend on the rows around it.
    rng = np.random.default_rng(seed)
    _, _, k = _family(rng, d, 1, rank)
    s_stack = np.stack([_pencil_row(rng, kind, d, k) for kind in kinds])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearSingularWarning)
        k = KOperator(k)
    lowers, uppers = pencil_lower_bounds(s_stack, k)
    for row in range(len(kinds)):
        alone = pencil_lower_bounds(s_stack[row:row + 1], k)
        assert (alone[0][0], alone[1][0]) == (lowers[row], uppers[row])
    order = rng.permutation(len(kinds))
    moved = pencil_lower_bounds(s_stack[order], k)
    np.testing.assert_array_equal(moved[0], lowers[order])
    np.testing.assert_array_equal(moved[1], uppers[order])


douglas_pairs = given(d=st.integers(1, 4), r=st.integers(1, 4), q=st.integers(1, 3),
                      seed=st.integers(0, 2 ** 32 - 1))


def _included_pair(rng, d, r, q):
    l2 = _complex(rng, d, r)
    return l2 @ _complex(rng, r, q), l2


@derandomized
@douglas_pairs
def test_douglas_lambda_sq_scales_with_either_side(d, r, q, seed):
    rng = np.random.default_rng(seed)
    l1, l2 = _included_pair(rng, d, r, q)
    c = _scalar(rng)
    lam = douglas_check(l1, l2).lambda_sq
    assert douglas_check(c * l1, l2).lambda_sq == pytest.approx(abs(c) ** 2 * lam, rel=1e-9)
    assert douglas_check(l1, c * l2).lambda_sq == pytest.approx(lam / abs(c) ** 2, rel=1e-9)


@derandomized
@douglas_pairs
def test_douglas_lambda_sq_is_unitarily_invariant(d, r, q, seed):
    rng = np.random.default_rng(seed)
    l1, l2 = _included_pair(rng, d, r, q)
    u = _unitary(rng, d)
    lam = douglas_check(l1, l2).lambda_sq
    assert douglas_check(u @ l1, u @ l2).lambda_sq == pytest.approx(lam, rel=1e-9)
