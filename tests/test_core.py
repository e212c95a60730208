import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlqground.core import (
    FrameGrid,
    OutOfRangeError,
    TimeSpan,
    UnitMismatchError,
    Units,
    index_to_sec,
    iou,
    iou_batch,
    sec_to_index,
)

# multiples of 1/64 are exactly representable, so interval arithmetic before
# the final division is exact and the algebraic invariants hold bit-for-bit
grid64 = st.integers(0, 64000).map(lambda n: n / 64.0)
spans = st.tuples(grid64, grid64).map(lambda p: TimeSpan(min(p), max(p), Units.SECONDS))


def test_timespan_invariants():
    with pytest.raises(ValueError):
        TimeSpan(5.0, 3.0)
    with pytest.raises(ValueError):
        TimeSpan(-1.0, 3.0)
    assert TimeSpan(2.0, 2.0).length == 0.0


class TestIou:
    def test_identity(self):
        assert iou(TimeSpan(0, 10), TimeSpan(0, 10)) == 1.0

    def test_disjoint(self):
        assert iou(TimeSpan(0, 10), TimeSpan(20, 30)) == 0.0

    def test_partial_overlap(self):
        # intersection 5, union 15
        assert iou(TimeSpan(0, 10), TimeSpan(5, 15)) == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_union_is_zero(self):
        z = TimeSpan(4.0, 4.0)
        assert iou(z, z) == 0.0

    def test_unit_mismatch(self):
        with pytest.raises(UnitMismatchError):
            iou(TimeSpan(0, 1, Units.SECONDS), TimeSpan(0, 1, Units.INDEX))

    @given(a=spans, b=spans)
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(a=spans)
    def test_self_iou(self, a):
        if a.end > a.start:
            assert iou(a, a) == 1.0

    @given(a=spans, b=spans, c=grid64)
    def test_translation_invariant(self, a, b, c):
        a2 = TimeSpan(a.start + c, a.end + c, a.units)
        b2 = TimeSpan(b.start + c, b.end + c, b.units)
        assert iou(a2, b2) == iou(a, b)

    @given(a=spans, b=spans, k=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    def test_scale_invariant(self, a, b, k):
        a2 = TimeSpan(a.start * k, a.end * k, a.units)
        b2 = TimeSpan(b.start * k, b.end * k, b.units)
        assert iou(a2, b2) == iou(a, b)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        arr = np.sort(rng.uniform(0, 100, size=(64, 2)), axis=1)
        ref = TimeSpan(20.0, 45.0)
        got = iou_batch(arr, ref.start, ref.end)
        for i in range(len(arr)):
            want = iou(TimeSpan(arr[i, 0], arr[i, 1]), ref)
            assert got[i] == pytest.approx(want, abs=1e-15)


class TestCoordinateMaps:
    grid = FrameGrid(num_frames=100, duration_sec=600.0)

    def test_linear_map(self):
        out = sec_to_index(TimeSpan(30, 60), self.grid)
        assert (out.start, out.end) == (5.0, 10.0)
        assert out.units == Units.INDEX

    def test_full_video(self):
        out = sec_to_index(TimeSpan(0, 600), self.grid)
        assert (out.start, out.end) == (0.0, 100.0)

    def test_out_of_range(self):
        grid = FrameGrid(num_frames=100, duration_sec=600.0)
        with pytest.raises(OutOfRangeError):
            sec_to_index(TimeSpan(600, 601), grid)

    def test_inverse_map(self):
        out = index_to_sec(TimeSpan(5, 10, Units.INDEX), self.grid)
        assert (out.start, out.end) == (30.0, 60.0)
        assert out.units == Units.SECONDS

    def test_inverse_full(self):
        out = index_to_sec(TimeSpan(0, 100, Units.INDEX), self.grid)
        assert (out.start, out.end) == (0.0, 600.0)

    def test_index_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            index_to_sec(TimeSpan(90, 101, Units.INDEX), self.grid)

    def test_round_trip_1000_random_spans(self):
        rng = np.random.default_rng(7)
        grid = FrameGrid(num_frames=600, duration_sec=487.3)
        worst = 0.0
        for _ in range(1000):
            a, b = np.sort(rng.uniform(0, grid.duration_sec, size=2))
            back = index_to_sec(sec_to_index(TimeSpan(a, b), grid), grid)
            worst = max(worst, abs(back.start - a), abs(back.end - b))
        assert worst < 1e-9 * grid.duration_sec

    def test_wrong_units_rejected(self):
        with pytest.raises(UnitMismatchError):
            sec_to_index(TimeSpan(1, 2, Units.INDEX), self.grid)
        with pytest.raises(UnitMismatchError):
            index_to_sec(TimeSpan(1, 2, Units.SECONDS), self.grid)


def test_frame_grid_invariants():
    with pytest.raises(ValueError):
        FrameGrid(num_frames=1, duration_sec=10.0)
    with pytest.raises(ValueError):
        FrameGrid(num_frames=10, duration_sec=0.0)
