"""Minimum time span (Definition 1): 3-pointer and batch vs cross-product reference."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.triangles import mts as mts_mod
from repro.triangles.mts import mts3, mts3_brute, mts_batch


@pytest.mark.parametrize(
    "a,b,c,expected",
    [
        ([0], [0], [0], 0),
        ([0], [5], [10], 10),
        ([1, 100], [2, 99], [3, 98], 2),
        ([0, 50], [25], [50], 25),
        ([7], [7], [7], 0),
        ([0, 10, 20], [5, 15], [9], 5),
        ([1], [2], [3], 2),
        ([10, 20, 30], [10, 20, 30], [10, 20, 30], 0),
        ([0, 1000], [500], [499, 501], 500),
        ([3, 8], [1, 9], [2, 7], 2),
    ],
)
def test_handcrafted(a, b, c, expected):
    assert mts3(a, b, c) == expected
    assert mts3_brute(a, b, c) == expected


def test_single_elements():
    assert mts3([4], [9], [2]) == 7


def test_symmetry():
    a, b, c = [1, 5], [2, 9], [0, 4]
    vals = {
        mts3(a, b, c), mts3(a, c, b), mts3(b, a, c),
        mts3(b, c, a), mts3(c, a, b), mts3(c, b, a),
    }
    assert len(vals) == 1


def test_early_exit_zero():
    # identical timestamp in all three lists → 0 immediately
    assert mts3([0, 7, 9], [7, 11], [5, 7]) == 0


sorted_list = st.lists(st.integers(0, 200), min_size=1, max_size=8).map(
    lambda xs: sorted(set(xs))
)


@settings(max_examples=300, deadline=None)
@given(sorted_list, sorted_list, sorted_list)
def test_matches_brute(a, b, c):
    assert mts3(a, b, c) == mts3_brute(a, b, c)


def test_numpy_inputs():
    a = np.array([0, 9], dtype=np.int64)
    b = np.array([4], dtype=np.int64)
    c = np.array([5, 6], dtype=np.int64)
    assert mts3(a, b, c) == mts3_brute(a, b, c) == 5


BIG = 2**40
# values drawn from a small pool repeat across lists; the pool spans ±2**40
stamp = st.one_of(st.integers(-6, 6), st.sampled_from([-BIG, -BIG + 1, BIG - 1, BIG]))
stamp_list = st.lists(stamp, min_size=1, max_size=6).map(lambda xs: np.array(sorted(set(xs)), dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(
    times=st.lists(st.one_of(stamp_list, stamp.map(lambda x: np.array([x], dtype=np.int64))),
                   min_size=1, max_size=8),
    picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)), max_size=12),
    block=st.integers(1, 12),
)
def test_batch_matches_brute(times, picks, block):
    """Every row of mts_batch equals the cross product over its three lists,
    for singleton-only and mixed rows, with blocks small enough to split the
    rows."""
    tri = np.array([[i % len(times) for i in row] for row in picks], dtype=np.int64).reshape(-1, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mts_mod, "_BLOCK", block)
        got = mts_batch(times, tri)
    assert got.dtype == np.int64 and got.shape == (len(tri),)
    assert got.tolist() == [mts3_brute(times[a], times[b], times[c]) for a, b, c in tri]
