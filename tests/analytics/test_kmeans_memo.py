"""The K-Means payload memo and the in-place distance kernel.

The memo must be invisible in every output: a hit returns exactly the
bits a fresh computation returns, callers cannot corrupt stored
results, failures are never stored, and memory stays bounded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analytics import generate_points, kmeans_reference
from repro.analytics.kmeans import _MEMO, _assign, _memoized, _partial_sums
from repro.experiments.sweeps import run_sweep


@pytest.fixture(autouse=True)
def empty_memo():
    _MEMO.clear()
    yield
    _MEMO.clear()


def _inputs(n=400, k=7, dim=3, seed=5):
    points = generate_points(n, k, dim=dim, seed=seed)
    return points, np.array(points[:k])


def _same_bits(left, right):
    return all(a.dtype == b.dtype and a.shape == b.shape
               and a.tobytes() == b.tobytes()
               for a, b in zip(left, right, strict=True))


def test_hit_equals_unmemoized_bit_for_bit():
    points, centroids = _inputs()
    first = _partial_sums(points, centroids)
    hit = _partial_sums(points, centroids)
    assert (_MEMO.misses, _MEMO.hits) == (1, 1)
    assert _same_bits(hit, _partial_sums.__wrapped__(points, centroids))
    assert _same_bits(hit, first)


def test_equal_content_in_new_arrays_hits():
    """The key is the content, not the object: copies hit."""
    points, centroids = _inputs()
    _partial_sums(points, centroids)
    _partial_sums(points.copy(), centroids.copy())
    assert _MEMO.hits == 1


def test_mutating_a_result_does_not_change_the_next_hit():
    points, centroids = _inputs()
    expected = _partial_sums.__wrapped__(points, centroids)
    miss = _partial_sums(points, centroids)
    for array in miss:
        array[...] = -1.0
    hit = _partial_sums(points, centroids)
    assert _same_bits(hit, expected)
    for array in hit:
        array += 7.0
    assert _same_bits(_partial_sums(points, centroids), expected)
    assert _MEMO.hits == 2


def test_same_bytes_other_shape_or_dtype_get_other_keys():
    fn = _partial_sums.__wrapped__
    base = np.arange(12, dtype=np.float64)
    keys = {
        _MEMO.key(fn, (base.reshape(4, 3),)),
        _MEMO.key(fn, (base.reshape(3, 4),)),
        _MEMO.key(fn, (base.reshape(12, 1),)),
        _MEMO.key(fn, (base.view(np.int64).reshape(4, 3),)),
        _MEMO.key(fn, (base.view(np.uint8).reshape(4, 24),)),
        _MEMO.key(fn, (base[:6].reshape(2, 3), base[6:].reshape(2, 3))),
    }
    assert len(keys) == 6
    # ... and through the public path, a reshape computes afresh.
    points = np.linspace(-1.0, 1.0, 24)
    centroids_a = points[:4].reshape(2, 2)
    centroids_b = points[:4].reshape(4, 1)
    got_a = _partial_sums(points.reshape(12, 2), centroids_a)
    got_b = _partial_sums(points.reshape(24, 1), centroids_b)
    assert _MEMO.hits == 0
    assert _same_bits(got_a, _partial_sums.__wrapped__(
        points.reshape(12, 2), centroids_a))
    assert _same_bits(got_b, _partial_sums.__wrapped__(
        points.reshape(24, 1), centroids_b))


def test_the_key_does_not_depend_on_memory_layout():
    """A strided view keys on its logical content, like its copy."""
    fn = _partial_sums.__wrapped__
    wide = np.arange(24, dtype=np.float64).reshape(4, 6)
    view = wide[:, ::2]
    assert not view.flags.c_contiguous
    assert _MEMO.key(fn, (view,)) == _MEMO.key(fn, (view.copy(),))


def test_a_raising_call_is_not_stored():
    calls = []

    def flaky(points):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return (points * 2.0,)

    memoized = _memoized(flaky)
    points = np.ones((3, 2))
    with pytest.raises(RuntimeError):
        memoized(points)
    assert _MEMO.nbytes == 0
    (doubled,) = memoized(points)
    assert len(calls) == 2
    np.testing.assert_array_equal(doubled, points * 2.0)
    memoized(points)
    assert len(calls) == 2


def test_shape_errors_propagate_and_are_not_stored():
    points = np.ones((5, 3))
    with pytest.raises(ValueError):
        _partial_sums(points, np.ones((2, 2)))
    assert len(_MEMO) == 0 and _MEMO.nbytes == 0


def test_eviction_keeps_held_bytes_under_the_bound(monkeypatch):
    entry = sum(a.nbytes for a in _partial_sums.__wrapped__(*_inputs()))
    bound = 3 * entry + entry // 2
    monkeypatch.setattr(_MEMO, "max_bytes", bound)
    inputs = [_inputs(seed=seed) for seed in range(10)]
    for points, centroids in inputs:
        _partial_sums(points, centroids)
        assert _MEMO.nbytes <= bound
    assert len(_MEMO) == 3
    # Least recently used goes first: the last three are still held.
    _partial_sums(*inputs[-1])
    _partial_sums(*inputs[-3])
    assert _MEMO.hits == 2
    _partial_sums(*inputs[0])
    assert _MEMO.hits == 2 and len(_MEMO) == 3
    _partial_sums(*inputs[-3])
    assert _MEMO.hits == 3


def test_a_result_larger_than_the_bound_is_not_stored(monkeypatch):
    monkeypatch.setattr(_MEMO, "max_bytes", 16)
    points, centroids = _inputs()
    expected = _partial_sums.__wrapped__(points, centroids)
    assert _same_bits(_partial_sums(points, centroids), expected)
    assert len(_MEMO) == 0 and _MEMO.nbytes == 0


def test_reference_shares_the_memo():
    points, _ = _inputs(n=600, k=5)
    first = kmeans_reference(points, 5, iterations=3)
    assert (_MEMO.misses, _MEMO.hits) == (3, 0)
    again = kmeans_reference(points, 5, iterations=3)
    assert _MEMO.hits == 3
    assert first.tobytes() == again.tobytes()


def test_figure6_quick_sweep_jobs2_matches_jobs1():
    """Each pool worker has its own memo; the digest must not care."""
    sequential = run_sweep("figure6", root_seed=42, jobs=1, quick=True)
    parallel = run_sweep("figure6", root_seed=42, jobs=2, quick=True)
    assert parallel.digest() == sequential.digest()
    assert all(row["centroids_ok"] for result in sequential.results
               for row in result["rows"])


# -------------------------------------------------- in-place kernel
def _assign_before(points, centroids):
    """The kernel as it was before the in-place rewrite."""
    cross = points @ centroids.T
    c_norm = (centroids * centroids).sum(axis=1)
    return np.argmin(c_norm[None, :] - 2.0 * cross, axis=1)


_coordinates = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300]))


@st.composite
def _problems(draw):
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    points = draw(hnp.arrays(np.float64, (n, dim), elements=_coordinates))
    distinct = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), dim),
                               elements=_coordinates))
    # Centroids drawn with repetition from a small pool, some copied
    # from the points, so exact ties between clusters are common.
    pool = np.concatenate([distinct, points[:2]])
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=1, max_size=8))
    return points, pool[picks]


@given(_problems())
@settings(max_examples=300, deadline=None)
def test_inplace_assign_matches_the_old_expression(problem):
    points, centroids = problem
    assert np.array_equal(_assign(points, centroids),
                          _assign_before(points, centroids))


@given(dim=st.integers(1, 5), n=st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_single_centroid_assigns_everything_to_it(dim, n):
    points = np.random.default_rng(n * 7 + dim).normal(size=(n, dim))
    centroids = points[:1] * -3.0
    assert np.array_equal(_assign(points, centroids), np.zeros(n, int))
    assert np.array_equal(_assign(points, centroids),
                          _assign_before(points, centroids))
