"""Transition matrices and label corruption: exact rows, empirical frequencies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslearn.noise import check_transition, corrupt, noise_from_selector

SELECTOR = {"symmetric": "sym", "asymmetric": "asym"}


def empirical_row(transition, true_class, n, seed):
    """Frequency oracle: corrupt n copies of one class, count outcomes."""
    labels = np.full(n, true_class, dtype=np.int64)
    new, _ = corrupt(labels, transition, seed)
    return np.bincount(new, minlength=transition.shape[0]) / n


def test_symmetric_matrix_values():
    t = noise_from_selector("sym:0.4", 6)
    assert t.shape == (6, 6)
    np.testing.assert_allclose(np.diag(t), 0.6, atol=1e-15)
    off = t[~np.eye(6, dtype=bool)]
    np.testing.assert_allclose(off, 0.08, atol=1e-15)


def test_zero_ratio_is_identity():
    for kind in ("sym", "asym"):
        t = noise_from_selector(f"{kind}:0.0", 5)
        np.testing.assert_array_equal(t, np.eye(5))


def test_asymmetric_cyclic_rows():
    t = noise_from_selector("asym:0.4", 3)
    expected = np.array(
        [
            [0.6, 0.4, 0.0],
            [0.0, 0.6, 0.4],
            [0.4, 0.0, 0.6],
        ]
    )
    np.testing.assert_allclose(t, expected, atol=1e-15)


def write_matrix(path, rows):
    """rows as a CSV file, one comma-separated row per line; the matrix:<path> selector."""
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    return f"matrix:{path}"


def test_custom_pairing(tmp_path):
    # any pairing is a matrix file: here classes 0 <-> 1 and 2 <-> 3 at 0.2
    rows = [[0.8, 0.2, 0, 0], [0.2, 0.8, 0, 0], [0, 0, 0.8, 0.2], [0, 0, 0.2, 0.8]]
    t = noise_from_selector(write_matrix(tmp_path / "t.csv", rows), 4)
    np.testing.assert_array_equal(t, rows)


def test_matrix_file_is_never_renormalized(tmp_path):
    # a row sum within ROW_SUM_TOL of 1 is accepted and kept as written
    rows = [[0.7, 0.3 + 5e-10], [0.25, 0.75]]
    t = noise_from_selector(write_matrix(tmp_path / "t.csv", rows), 2)
    assert t.tolist() == rows


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_transition_is_rejected(bad):
    # NaN passed the row-sum check (nan - 1 > tol is False), and corrupt then
    # returned the labels unflipped
    t = np.array([[bad, 1.0], [0.0, 1.0]])
    message = "^transition matrix entries must be finite and nonnegative$"
    with pytest.raises(ValueError, match=message):
        check_transition(t)
    with pytest.raises(ValueError, match=message):
        corrupt(np.zeros(10, dtype=np.int64), t, seed=0)


def test_spec_validation():
    with pytest.raises(ValueError, match="bad noise selector"):
        noise_from_selector("salt:0.1", 3)
    with pytest.raises(ValueError, match="ratio"):
        noise_from_selector("sym:1.0", 3)
    with pytest.raises(ValueError, match="ratio"):
        noise_from_selector("sym:-0.1", 3)
    with pytest.raises(ValueError, match="classes"):
        noise_from_selector("sym:0.1", 1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["symmetric", "asymmetric"]),
    st.floats(0.0, 0.95),
    st.integers(2, 12),
)
def test_rows_are_stochastic(kind, ratio, num_classes):
    t = noise_from_selector(f"{SELECTOR[kind]}:{ratio}", num_classes)
    assert np.all(t >= 0)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.diag(t), 1.0 - ratio, atol=1e-12)


def test_identity_corruption_is_noop():
    labels = np.array([0, 1, 2, 1, 0, 2, 2], dtype=np.int64)
    new, flipped = corrupt(labels, np.eye(3), seed=42)
    np.testing.assert_array_equal(new, labels)
    assert not flipped.any()


def test_corrupt_leaves_input_untouched():
    labels = np.zeros(100, dtype=np.int64)
    t = noise_from_selector("sym:0.9", 4)
    backup = labels.copy()
    corrupt(labels, t, seed=1)
    np.testing.assert_array_equal(labels, backup)


def test_corrupt_deterministic():
    labels = np.arange(1000) % 6
    t = noise_from_selector("sym:0.4", 6)
    a, fa = corrupt(labels, t, seed=77)
    b, fb = corrupt(labels, t, seed=77)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(fa, fb)
    c, _ = corrupt(labels, t, seed=78)
    assert not np.array_equal(a, c)


def test_empirical_row_symmetric():
    t = noise_from_selector("sym:0.4", 6)
    freq = empirical_row(t, true_class=0, n=100_000, seed=5)
    expected = np.array([0.6, 0.08, 0.08, 0.08, 0.08, 0.08])
    assert np.max(np.abs(freq - expected)) < 0.01


@pytest.mark.parametrize(
    "kind,ratio,num_classes",
    [
        ("symmetric", 0.2, 4),
        ("symmetric", 0.8, 10),
        ("asymmetric", 0.4, 5),
        ("asymmetric", 0.1, 2),
    ],
)
def test_empirical_matrix_converges(kind, ratio, num_classes):
    n = 40_000
    t = noise_from_selector(f"{SELECTOR[kind]}:{ratio}", num_classes)
    tol = 5 * np.sqrt(0.25 / n)
    for i in range(num_classes):
        freq = empirical_row(t, i, n, seed=1000 + i)
        assert np.max(np.abs(freq - t[i])) < tol


def test_flip_fraction_matches_ratio():
    n = 50_000
    ratio = 0.4
    t = noise_from_selector(f"sym:{ratio}", 6)
    labels = np.arange(n) % 6
    _, flipped = corrupt(labels, t, seed=9)
    std = np.sqrt(ratio * (1 - ratio) / n)
    assert abs(flipped.mean() - ratio) < 3 * std


def test_label_range_checked():
    t = np.eye(3)
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        corrupt(np.array([0, 3]), t, seed=0)
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        corrupt(np.array([-1]), t, seed=0)


def test_transition_matrix_checked():
    bad = np.array([[0.5, 0.4], [0.0, 1.0]])
    with pytest.raises(ValueError, match="sum to 1"):
        corrupt(np.array([0]), bad, seed=0)
    with pytest.raises(ValueError, match="negative"):
        check_transition(np.array([[1.1, -0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        check_transition(np.ones((2, 3)) / 3)
