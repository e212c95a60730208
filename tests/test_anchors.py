import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlqground.anchors import AnchorConfig, build_lattice, label_anchors
from nlqground.core import OutOfRangeError
from nlqground.trainer import TrainConfig
from helpers import flat_index, scalar_iou


class TestAnchorConfig:
    def test_rejects_empty_scales(self):
        with pytest.raises(ValueError):
            AnchorConfig(scales=(), num_frames=10)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            AnchorConfig(scales=(0.3, 0.1), num_frames=10)

    def test_rejects_out_of_range_scale(self):
        with pytest.raises(ValueError):
            AnchorConfig(scales=(0.0, 0.5), num_frames=10)
        with pytest.raises(ValueError):
            AnchorConfig(scales=(0.5, 1.5), num_frames=10)


class TestBuildLattice:
    def test_hand_computed_windows(self):
        aset = build_lattice(AnchorConfig(scales=(0.2, 0.4), num_frames=10))
        assert aset.window_sizes == (2.0, 4.0)
        i0 = flat_index(aset, 5, 0)
        i1 = flat_index(aset, 5, 1)
        np.testing.assert_allclose(aset.spans[i0], [4.5, 6.5])
        np.testing.assert_allclose(aset.spans[i1], [3.5, 7.5])

    def test_left_boundary_clipping(self):
        aset = build_lattice(AnchorConfig(scales=(0.2,), num_frames=10))
        # raw [-0.5, 1.5] at t=0 clips to [0, 1.5]
        np.testing.assert_allclose(aset.spans[0], [0.0, 1.5])

    def test_reference_configuration(self):
        # best-performing published configuration: T=600, scales 0.01/0.03
        aset = build_lattice(AnchorConfig(scales=(0.01, 0.03), num_frames=600))
        assert len(aset) == 1200
        assert aset.window_sizes == (6.0, 18.0)
        assert (aset.spans >= 0.0).all() and (aset.spans <= 600.0).all()

    def test_layout_is_t_major(self):
        aset = build_lattice(AnchorConfig(scales=(0.1, 0.5), num_frames=4))
        for t in range(4):
            for k in range(2):
                i = flat_index(aset, t, k)
                center = (aset.spans[i, 0] + aset.spans[i, 1]) / 2
                # unclipped anchors sit at the frame midpoint
                if aset.spans[i, 0] > 0 and aset.spans[i, 1] < 4:
                    assert center == pytest.approx(t + 0.5)

    @given(
        num_frames=st.integers(2, 200),
        scales=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=50)
    def test_spans_inside_video_and_widths_exact(self, num_frames, scales):
        config = AnchorConfig(scales=tuple(sorted(scales)), num_frames=num_frames)
        aset = build_lattice(config)
        assert len(aset) == len(scales) * num_frames
        assert (aset.spans >= 0.0).all() and (aset.spans <= num_frames).all()
        widths = np.asarray(aset.spans[:, 1] - aset.spans[:, 0])
        expected = np.tile(np.asarray(config.scales) * num_frames, num_frames)
        unclipped = (aset.spans[:, 0] > 0) & (aset.spans[:, 1] < num_frames)
        np.testing.assert_allclose(widths[unclipped], expected[unclipped], rtol=1e-12)


def label_one(anchors, gt_start, gt_end, threshold=0.5):
    """Labels of a batch of one ground truth: (targets, positive, forced)
    of that item."""
    targets, positive, forced = label_anchors(anchors, [[gt_start, gt_end]], threshold)
    return targets[0], positive[0], bool(forced[0])


class TestLabelAnchors:
    aset = build_lattice(AnchorConfig(scales=(0.2,), num_frames=10))

    def test_exact_match_anchor(self):
        targets, positive, _ = label_one(self.aset, 4.5, 6.5, threshold=0.5)
        i = flat_index(self.aset, 5, 0)
        assert targets[i] == 1.0
        assert positive[i]

    def test_neighbor_anchor_is_negative(self):
        targets, positive, _ = label_one(self.aset, 4.5, 6.5, threshold=0.5)
        i = flat_index(self.aset, 4, 0)  # [3.5, 5.5]: intersection 1, union 3
        assert targets[i] == pytest.approx(1 / 3)
        assert not positive[i]

    def test_disjoint_anchor(self):
        targets, positive, _ = label_one(self.aset, 0.0, 1.0, threshold=0.5)
        i = flat_index(self.aset, 9, 0)
        assert targets[i] == 0.0
        assert not positive[i]

    def test_matches_brute_force_oracle_exactly(self):
        aset = build_lattice(AnchorConfig(scales=(0.05, 0.2, 0.6), num_frames=37))
        gts = [(10.2, 19.7), (0.0, 0.0), (36.5, 37.0), (0.0, 37.0)]
        targets, positive, forced = label_anchors(aset, gts, threshold=0.4)
        assert targets.shape == positive.shape == (len(gts), len(aset))
        for j, gt in enumerate(gts):
            expect = [scalar_iou(a, gt) for a in aset.spans.tolist()]
            assert targets[j].tolist() == expect
            best = int(np.argmax(expect))
            assert positive[j].tolist() == [o > 0.4 or (forced[j] and i == best)
                                            for i, o in enumerate(expect)]
        assert forced.tolist() == [False, True, True, False]

    def test_force_positive_keeps_n_pos_nonzero(self):
        # a sliver at the very edge clears no anchor at threshold 0.9; the
        # second row is an exact anchor and is not promoted
        targets, positive, forced = label_anchors(self.aset, [[0.0, 0.05], [4.5, 6.5]], 0.9)
        assert forced.tolist() == [True, False]
        assert positive.sum(axis=1).tolist() == [1, 1]
        assert positive[0, int(np.argmax(targets[0]))]

    def test_gt_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            label_anchors(self.aset, [[1.0, 2.0], [5.0, 11.0]], 0.5)
        with pytest.raises(OutOfRangeError):
            label_one(self.aset, 6.0, 5.0)
        with pytest.raises(OutOfRangeError):
            label_one(self.aset, -1.0, 5.0)

    def test_bad_threshold(self):
        # the threshold is checked once, where it is configured
        for bad in (1.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="positive_threshold"):
                TrainConfig(positive_threshold=bad)

    @given(
        start=st.floats(0, 8, allow_nan=False),
        width=st.floats(0.1, 2, allow_nan=False),
        t1=st.floats(0.05, 0.9),
        t2=st.floats(0.05, 0.9),
    )
    @settings(max_examples=60)
    def test_threshold_monotonicity(self, start, width, t1, t2):
        end = min(start + width, 10.0)
        lo, hi = sorted((t1, t2))
        n_hi = label_one(self.aset, start, end, threshold=hi)[1].sum()
        n_lo = label_one(self.aset, start, end, threshold=lo)[1].sum()
        assert n_lo >= n_hi
        assert n_hi <= len(self.aset)
