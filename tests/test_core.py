from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlqground.core import (
    OutOfRangeError,
    index_to_sec,
    iou_batch,
    require_number,
    sec_to_index,
)
from helpers import scalar_index_to_sec, scalar_iou, scalar_sec_to_index

# multiples of 1/64 are exactly representable, so interval arithmetic before
# the final division is exact and the algebraic invariants hold bit-for-bit
grid64 = st.integers(0, 64000).map(lambda n: n / 64.0)
spans = st.tuples(grid64, grid64).map(lambda p: (min(p), max(p)))


def iou(a, b):
    """`iou_batch` of one span against one reference."""
    return iou_batch(np.array([a]), b)[0]


@pytest.mark.parametrize("interval, inside, outside", [
    ("[0, 1]", [0, 0.5, 1.0], [-0.1, 1.1, np.nan, True, "0.5", [0.5], None]),
    ("[0, 1)", [0.0, 0.99], [1.0, -1e-9]),
    ("(0, inf)", [1e-300, 5, 1e300], [0.0, -1, np.inf, np.nan, False]),
])
def test_require_number_bounds(interval, inside, outside):
    """A bracket admits its bound and a parenthesis does not; NaN, bools
    and non-numbers lie inside no interval."""
    for value in inside:
        require_number(SimpleNamespace(x=value), "x", interval)
    for value in outside:
        with pytest.raises(ValueError, match=r"'x' must be a number in"):
            require_number(SimpleNamespace(x=value), "x", interval)


def test_sec_to_index_span_invariants():
    with pytest.raises(OutOfRangeError):
        sec_to_index([(5.0, 3.0)], 10, [10.0])
    with pytest.raises(OutOfRangeError):
        sec_to_index([(-1.0, 3.0)], 10, [10.0])
    assert sec_to_index([(2.0, 2.0)], 10, [10.0]).tolist() == [[2.0, 2.0]]


class TestIou:
    def test_identity(self):
        assert iou((0, 10), (0, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 10), (20, 30)) == 0.0

    def test_partial_overlap(self):
        # intersection 5, union 15
        assert iou((0, 10), (5, 15)) == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_union_is_zero(self):
        assert iou((4.0, 4.0), (4.0, 4.0)) == 0.0

    @given(a=spans, b=spans)
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(a=spans)
    def test_self_iou(self, a):
        if a[1] > a[0]:
            assert iou(a, a) == 1.0

    @given(a=spans, b=spans, c=grid64)
    def test_translation_invariant(self, a, b, c):
        assert iou((a[0] + c, a[1] + c), (b[0] + c, b[1] + c)) == iou(a, b)

    @given(a=spans, b=spans, k=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    def test_scale_invariant(self, a, b, k):
        assert iou((a[0] * k, a[1] * k), (b[0] * k, b[1] * k)) == iou(a, b)

    @given(ends=st.lists(st.floats(0, 1e6), min_size=4, max_size=4),
           ulps=st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_never_exceeds_one(self, ends, ulps):
        """No IoU of finite spans exceeds 1, against a span a few ulps from
        either endpoint too; that is why `nms` at threshold 1 is top-k."""
        base = np.sort(np.reshape(ends, (2, 2)), axis=1)
        near = base.reshape(-1).copy()
        for i, n in enumerate(ulps):
            for _ in range(abs(n)):
                near[i] = np.nextafter(near[i], np.inf if n > 0 else -np.inf)
        spans = np.clip(np.sort(np.concatenate([base, near.reshape(2, 2)]), axis=1), 0.0, 1e6)
        assert iou_batch(spans[:, None, :], spans[None, :, :]).max() <= 1.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        arr = np.sort(rng.uniform(0, 100, size=(64, 2)), axis=1)
        got = iou_batch(arr, (20.0, 45.0))
        assert got.tolist() == [scalar_iou(row, (20.0, 45.0)) for row in arr.tolist()]

    def test_per_row_references_match_scalar(self):
        rng = np.random.default_rng(1)
        arr = np.sort(rng.uniform(0, 100, size=(64, 2)), axis=1)
        refs = np.sort(rng.uniform(0, 100, size=(64, 2)), axis=1)
        refs[:4] = arr[:4]  # identical pairs
        got = iou_batch(arr, refs)
        assert got.tolist() == [scalar_iou(a, b) for a, b in zip(arr.tolist(), refs.tolist())]

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(2)
        arr = np.sort(rng.uniform(0, 100, size=(7, 2)), axis=1)
        refs = np.sort(rng.uniform(0, 100, size=(3, 2)), axis=1)
        got = iou_batch(arr, refs[:, None, :])
        assert got.shape == (3, 7)
        assert got.tolist() == [[scalar_iou(a, b) for a in arr.tolist()] for b in refs.tolist()]


class TestCoordinateMaps:

    def test_linear_map(self):
        assert sec_to_index([(30, 60)], 100, [600.0]).tolist() == [[5.0, 10.0]]

    def test_full_video(self):
        assert sec_to_index([(0, 600)], 100, [600.0]).tolist() == [[0.0, 100.0]]

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError, match=r"\[600.0, 601.0\]"):
            sec_to_index([(0, 10), (600, 601)], 100, [600.0, 600.0])

    def test_inverse_map(self):
        assert index_to_sec(np.array([[5.0, 10.0]]), 100, [600.0]).tolist() == [[30.0, 60.0]]

    def test_inverse_full(self):
        assert index_to_sec(np.array([[0.0, 100.0]]), 100, [600.0]).tolist() == [[0.0, 600.0]]

    def test_index_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            index_to_sec(np.array([[90.0, 101.0]]), 100, [600.0])
        with pytest.raises(OutOfRangeError, match="finite"):
            index_to_sec(np.array([[np.nan, 1.0]]), 100, [600.0])

    def test_round_trip_1000_random_spans(self):
        rng = np.random.default_rng(7)
        duration = 487.3
        secs = np.sort(rng.uniform(0, duration, size=(1000, 2)), axis=1)
        back = index_to_sec(sec_to_index(secs, 600, np.full(1000, duration)), 600, duration)
        assert np.abs(back - secs).max() < 1e-9 * duration

    @given(rows=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1),
                                   st.floats(0.5, 5000, allow_subnormal=False)),
                         min_size=1, max_size=8),
           num_frames=st.integers(2, 1000))
    @settings(max_examples=100)
    def test_array_maps_match_scalar_oracles_bitwise(self, rows, num_frames):
        secs = [(min(a, b) * d, max(a, b) * d) for a, b, d in rows]
        durations = [d for _, _, d in rows]
        index = sec_to_index(secs, num_frames, durations)
        assert index.tolist() == [list(scalar_sec_to_index(s, e, num_frames, d))
                                  for (s, e), d in zip(secs, durations)]
        assert index_to_sec(index, num_frames, durations).tolist() == [
            list(scalar_index_to_sec(*row, num_frames, d)) for row, d in zip(index, durations)]
        # pushing one end past its video's duration is refused by both
        bad = [list(s) for s in secs]
        bad[-1][1] = np.nextafter(durations[-1], np.inf)
        with pytest.raises(OutOfRangeError):
            sec_to_index(bad, num_frames, durations)
        with pytest.raises(OutOfRangeError):
            scalar_sec_to_index(*bad[-1], num_frames, durations[-1])
