"""Unit and property tests for the dense tensor kernels."""

import tracemalloc

import numpy as np
import pytest

from flowcast.tensor_ops import (
    _error_from_statistics,
    _SweepTrace,
    as_mask,
    as_tensor,
    as_whole,
    cp_reconstruct,
    fold,
    khatri_rao,
    khatri_rao_all,
    relative_residual,
    residual_or_nan,
    unfold,
)


class Model:
    def __init__(self, weights, factors):
        self.weights = weights
        self.factors = factors


def unfold_by_enumeration(t, mode):
    """Independent oracle: place every element by the Kolda-Bader column formula."""
    shape = t.shape
    other = [k for k in range(t.ndim) if k != mode]
    strides = {}
    acc = 1
    for k in other:
        strides[k] = acc
        acc *= shape[k]
    out = np.zeros((shape[mode], acc))
    for idx in np.ndindex(*shape):
        col = sum(idx[k] * strides[k] for k in other)
        out[idx[mode], col] = t[idx]
    return out


def cp_by_loops(weights, factors):
    """Independent oracle: naive summation over components and index tuples."""
    shape = tuple(f.shape[0] for f in factors)
    out = np.zeros(shape)
    for idx in np.ndindex(*shape):
        for r in range(len(weights)):
            term = weights[r]
            for k, f in enumerate(factors):
                term *= f[idx[k], r]
            out[idx] += term
    return out


def test_unfold_2x2x2_matches_enumeration():
    t = np.arange(8, dtype=float).reshape(2, 2, 2)
    for mode in range(3):
        np.testing.assert_array_equal(unfold(t, mode), unfold_by_enumeration(t, mode))
    # row 0 of the mode-0 unfolding is the first frontal-slice in column order
    np.testing.assert_array_equal(unfold(t, 0)[0], [0.0, 2.0, 1.0, 3.0])


def test_unfold_fold_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 4, 2))
    for mode in range(3):
        back = fold(unfold(t, mode), mode, t.shape)
        np.testing.assert_array_equal(back, t)


@pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2), 2.0, np.float32(2.0)])
def test_whole_number_of_any_numeric_type_is_an_int(value):
    got = as_whole(value, "setting")
    assert got == 2 and type(got) is int


@pytest.mark.parametrize("value", [2.5, np.float64(1.5), np.inf, -np.inf, np.nan, "2", None,
                                   [2]])
def test_a_fraction_or_non_number_names_the_setting(value):
    with pytest.raises(ValueError, match="^setting must be a whole number, got "):
        as_whole(value, "setting")


def test_whole_number_below_its_minimum_names_the_setting():
    for value in (0, 0.0, -3):
        with pytest.raises(ValueError, match="^setting must be >= 1$"):
            as_whole(value, "setting")
    with pytest.raises(ValueError, match="^setting must be >= 0$"):
        as_whole(-1, "setting", minimum=0)
    assert as_whole(-4.0, "setting", minimum=None) == -4


def test_tensor_and_mask_validation():
    with pytest.raises(ValueError, match="extents must all be >= 1"):
        as_tensor(np.zeros((2, 0, 3)))
    m = as_mask(np.array([[1, 0], [0, 2]]), (2, 2))
    assert m.dtype == bool and np.array_equal(m, [[True, False], [False, True]])
    with pytest.raises(ValueError, match="does not match tensor shape"):
        as_mask(np.ones((2, 3), dtype=bool), (3, 2))


def test_unfold_degenerate_1x1x1():
    t = np.array([[[7.5]]])
    for mode in range(3):
        np.testing.assert_array_equal(unfold(t, mode), [[7.5]])


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError):
        unfold(np.zeros((2, 2)), 2)
    with pytest.raises(ValueError, match="^mode must be a whole number, got 1.5"):
        unfold(np.zeros((2, 2)), 1.5)
    t = np.arange(8.0).reshape(2, 2, 2)
    np.testing.assert_array_equal(unfold(t, 1.0), unfold(t, 1))


def test_fold_row_vector_mode0():
    m = np.array([[1.0, 2.0, 3.0]])
    t = fold(m, 0, (1, 3, 1))
    np.testing.assert_array_equal(t.ravel(), [1.0, 2.0, 3.0])
    assert t.shape == (1, 3, 1)


def test_fold_dimension_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((2, 5)), 0, (2, 2, 2))
    with pytest.raises(ValueError, match="mode 3 out of range"):
        fold(np.zeros((2, 4)), 3, (2, 2, 2))


def test_fold_reads_whole_extents_only():
    with pytest.raises(ValueError, match=r"shape\[0\] must be a whole number, got 2.7"):
        fold(np.zeros((2, 4)), 0, (2.7, 2, 2))
    m = np.arange(8.0).reshape(2, 4)
    np.testing.assert_array_equal(fold(m, 0, (2.0, np.int64(2), 2)), fold(m, 0, (2, 2, 2)))
    with pytest.raises(ValueError, match="^mode must be a whole number, got 1.5"):
        fold(m, 1.5, (2, 2, 2))
    np.testing.assert_array_equal(fold(m, 1.0, (2, 2, 2)), fold(m, 1, (2, 2, 2)))


def test_khatri_rao_hand_expansion():
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [4.0]])
    np.testing.assert_array_equal(khatri_rao(a, b), [[3.0], [4.0], [6.0], [8.0]])


def test_khatri_rao_ones_row_is_neutral():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(4, 3))
    np.testing.assert_array_equal(khatri_rao(np.ones((1, 3)), b), b)


@pytest.mark.parametrize("rank", [1, 3, 6, 64])
@pytest.mark.parametrize("rows", [(5, 4), (1, 4), (5, 1), (1, 1)])
def test_khatri_rao_is_the_broadcast_product_bit_for_bit(rows, rank):
    # every entry is one product, however the kernel lays out its loops
    rng = np.random.default_rng(rank)
    a, b = rng.normal(size=(rows[0], rank)), rng.normal(size=(rows[1], rank))
    want = (a[:, None, :] * b[None, :, :]).reshape(-1, rank)
    got = khatri_rao(a, b)
    assert np.array_equal(got, want) and got.flags.c_contiguous
    # a transposed, strided operand too
    a_view = rng.normal(size=(rank, 2 * rows[0]))[:, ::2].T
    want = (a_view[:, None, :] * b[None, :, :]).reshape(-1, rank)
    assert np.array_equal(khatri_rao(a_view, b), want)


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="two matrices"):
        khatri_rao(np.ones(2), np.ones((2, 2)))
    with pytest.raises(ValueError, match="at least one factor"):
        khatri_rao_all([])
    # a skip that names no factor would skip none
    factors = list(np.random.default_rng(4).normal(size=(3, 2, 2)))
    for skip in (1.5, 7, 3, -1):
        with pytest.raises(ValueError, match="^skip "):
            khatri_rao_all(factors, skip)
    np.testing.assert_array_equal(khatri_rao_all(factors, 1.0), khatri_rao_all(factors, 1))


def test_khatri_rao_row_count_law():
    rng = np.random.default_rng(2)
    for _ in range(100):
        i, j, r = rng.integers(1, 7, size=3)
        a = rng.normal(size=(i, r))
        b = rng.normal(size=(j, r))
        assert khatri_rao(a, b).shape == (i * j, r)


def test_khatri_rao_all_pairs_with_unfold():
    # unfold(t, m) @ khatri_rao_all(factors, m) must equal the convention-free
    # einsum contraction for every mode
    rng = np.random.default_rng(3)
    shape, r = (3, 4, 2), 3
    t = rng.normal(size=shape)
    factors = [rng.normal(size=(n, r)) for n in shape]
    letters = "abc"
    for mode in range(3):
        others = [factors[k] for k in range(3) if k != mode]
        spec = (
            letters
            + ","
            + ",".join(letters[k] + "z" for k in range(3) if k != mode)
            + "->"
            + letters[mode]
            + "z"
        )
        expected = np.einsum(spec, t, *others)
        got = unfold(t, mode) @ khatri_rao_all(factors, mode)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_cp_reconstruct_rank_one_unit_vectors():
    factors = [np.eye(n, 1) for n in (2, 3, 2)]
    t = cp_reconstruct(Model(np.array([1.0]), factors))
    expected = np.zeros((2, 3, 2))
    expected[0, 0, 0] = 1.0
    np.testing.assert_array_equal(t, expected)


def test_cp_reconstruct_zero_weights():
    rng = np.random.default_rng(4)
    factors = [rng.normal(size=(n, 3)) for n in (2, 2, 2)]
    t = cp_reconstruct(Model(np.zeros(3), factors))
    np.testing.assert_array_equal(t, np.zeros((2, 2, 2)))


def test_cp_reconstruct_matches_loop_oracle():
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.5, 2.0, size=2)
    factors = [rng.normal(size=(n, 2)) for n in (3, 2, 4)]
    fast = cp_reconstruct(Model(weights, factors))
    slow = cp_by_loops(weights, factors)
    assert np.linalg.norm(fast - slow) <= 1e-12 * np.linalg.norm(slow)


def test_cp_reconstruct_oracle_property():
    rng = np.random.default_rng(6)
    for _ in range(5):
        shape = tuple(rng.integers(2, 7, size=3))
        weights = rng.uniform(0.1, 3.0, size=4)
        factors = [rng.normal(size=(n, 4)) for n in shape]
        fast = cp_reconstruct(Model(weights, factors))
        slow = cp_by_loops(weights, factors)
        assert np.linalg.norm(fast - slow) <= 1e-10 * np.linalg.norm(slow)


def test_cp_reconstruct_rank_mismatch():
    with pytest.raises(ValueError):
        cp_reconstruct(Model(np.ones(2), [np.ones((2, 2)), np.ones((2, 3))]))


def test_relative_residual_exact_match_is_zero():
    t = np.array([1.0, 2.0, 3.0])
    assert relative_residual(t, t) == 0.0


def test_relative_residual_doubled_estimate():
    rng = np.random.default_rng(7)
    t = rng.normal(size=(3, 3))
    assert relative_residual(2 * t, t) == pytest.approx(1.0)


def test_relative_residual_three_four_five():
    truth = np.array([3.0, 4.0])
    assert relative_residual(np.zeros(2), truth) == pytest.approx(1.0)


def test_relative_residual_zero_truth_on_mask():
    with pytest.raises(ValueError):
        relative_residual(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match="shape mismatch"):
        relative_residual(np.ones(3), np.ones(4))


def test_relative_residual_scale_invariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        shape = tuple(rng.integers(1, 5, size=2))
        truth = rng.normal(size=shape) + 0.1
        est = rng.normal(size=shape)
        c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        a = relative_residual(est, truth)
        b = relative_residual(c * est, c * truth)
        assert a == pytest.approx(b, rel=1e-12)


def test_relative_residual_masked():
    truth = np.array([[1.0, 5.0], [2.0, 9.0]])
    est = np.array([[1.0, -1.0], [4.0, -1.0]])
    mask = np.array([[True, False], [True, False]])
    got = relative_residual(est, truth, mask)
    assert got == pytest.approx(2.0 / np.sqrt(5.0))


@pytest.mark.parametrize("mask", [None, np.ones(3, dtype=bool)], ids=["unmasked", "masked"])
def test_residual_or_nan_checks_shapes_before_the_truth(mask):
    # a zero truth is nan only once the shapes agree
    with pytest.raises(ValueError, match=r"shape mismatch: \(5,\) vs \(3,\)"):
        residual_or_nan(np.zeros(5), np.zeros(3), mask)
    assert np.isnan(residual_or_nan(np.zeros(3), np.zeros(3), mask))


@pytest.mark.parametrize("residual", [relative_residual, residual_or_nan])
@pytest.mark.parametrize("mask", [None, np.array([True, True, False])], ids=["unmasked", "masked"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_cell_is_named_not_scored(residual, mask, bad):
    # a nan score reads as a block with no flow, which reports drop: a bad cell raises
    with pytest.raises(ValueError, match="^estimate has a NaN or inf"):
        residual(np.array([bad, 1.0, 1.0]), np.ones(3), mask)
    with pytest.raises(ValueError, match="^truth has a NaN or inf"):
        residual(np.ones(3), np.array([1.0, bad, 1.0]), mask)
    with pytest.raises(ValueError, match="^truth has a NaN or inf"):  # both: the truth is named
        residual(np.array([bad, 1.0, 1.0]), np.array([bad, 1.0, 1.0]), mask)
    if mask is not None:  # a cell off the mask is not read
        got = residual(np.array([1.0, 0.0, bad]), np.array([1.0, 1.0, bad]), mask)
        assert got == pytest.approx(0.5 ** 0.5)


@pytest.mark.parametrize("residual", [relative_residual, residual_or_nan])
def test_masked_residual_reads_only_the_masked_cells(residual):
    # today's suffix of a 60 x 56 x 48 tensor: no copy the size of the tensor is made
    rng = np.random.default_rng(32)
    truth = rng.uniform(size=(60, 56, 48))
    estimate = truth + 0.1 * rng.normal(size=truth.shape)
    mask = np.zeros(truth.shape, dtype=bool)
    mask[:, -1, 15:] = True
    residual(estimate, truth, mask)  # first-call allocations are not the residual's own
    tracemalloc.start()
    try:
        residual(estimate, truth, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * truth.nbytes


# --- the stop rule and the error both CP fits share -------------------------


def test_one_value_never_settles():
    trace = _SweepTrace([0.5])
    trace.converged = True
    assert not trace.settled(1e9) and trace.converged  # a query leaves the flag as it was


@pytest.mark.parametrize("prev", [0.5, -1.0, 0.0, 0.05])
def test_tolerance_is_relative_and_floored_at_eps(prev):
    # below a previous value of one the tolerance is relative too, tol * |prev|, and
    # never below eps: a previous value of 0 settles on a change under eps alone
    eps = np.finfo(float).eps
    bound = max(1e-3 * abs(prev), eps)
    assert _SweepTrace([prev, prev + 0.9 * bound]).settled(1e-3)
    assert not _SweepTrace([prev, prev + 1.1 * bound]).settled(1e-3)


@pytest.mark.parametrize("prev", [-1000.0, 1000.0])
def test_tolerance_scales_with_a_previous_value_above_one(prev):
    # tol * |prev| = 1: a change of 0.5 settles, one of 1.5 does not
    assert _SweepTrace([prev, prev - 0.5]).settled(1e-3)
    assert not _SweepTrace([prev, prev + 1.5]).settled(1e-3)
    # the bound is strict and scales with the previous value, not the last one
    assert not _SweepTrace([prev, prev + 1.0]).settled(1e-3)


@pytest.mark.parametrize("value", [0.0, 3.0, -250.0])
def test_two_equal_values_settle(value):
    trace = _SweepTrace([1.0, value, value])
    assert trace.settled(1e-300) and not trace.converged  # a query leaves the flag as it was


def test_only_the_last_two_values_count():
    trace = _SweepTrace([1.0, 1.0, 0.5])
    trace.converged = True
    assert not trace.settled(1e-3) and trace.converged  # a query leaves the flag as it was


def test_error_from_statistics_is_the_squared_residual():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(4, 3, 5))
    factors = [rng.normal(size=(n, 2)) for n in t.shape]
    residual = t - cp_reconstruct(Model(np.ones(2), factors))
    last = factors[-1]
    gram = (factors[0].T @ factors[0]) * (factors[1].T @ factors[1])
    mttkrp = unfold(t, 2) @ khatri_rao_all(factors, 2)
    err = _error_from_statistics(np.sum(t**2), gram, mttkrp, last, last.T @ last)
    assert err == pytest.approx(np.sum(residual**2), rel=1e-12)
    # cancellation below zero is clipped
    assert _error_from_statistics(1.0, np.zeros((2, 2)), np.ones((1, 2)), np.ones((1, 2)),
                                  np.zeros((2, 2))) == 0.0
