import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlqground.anchors import AnchorConfig, build_lattice, label_anchors
from nlqground.core import OutOfRangeError, TimeSpan, Units, iou
from helpers import anchor_span, flat_index


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


class TestLabelAnchors:
    aset = build_lattice(AnchorConfig(scales=(0.2,), num_frames=10))

    def test_exact_match_anchor(self):
        labels = label_anchors(self.aset, TimeSpan(4.5, 6.5, Units.INDEX), threshold=0.5)
        i = flat_index(self.aset, 5, 0)
        assert labels.iou_targets[i] == 1.0
        assert labels.positive_mask[i]

    def test_neighbor_anchor_is_negative(self):
        labels = label_anchors(self.aset, TimeSpan(4.5, 6.5, Units.INDEX), threshold=0.5)
        i = flat_index(self.aset, 4, 0)  # [3.5, 5.5]: intersection 1, union 3
        assert labels.iou_targets[i] == pytest.approx(1 / 3)
        assert not labels.positive_mask[i]

    def test_disjoint_anchor(self):
        labels = label_anchors(self.aset, TimeSpan(0.0, 1.0, Units.INDEX),
                               threshold=0.5, force_positive=False)
        i = flat_index(self.aset, 9, 0)
        assert labels.iou_targets[i] == 0.0
        assert not labels.positive_mask[i]

    def test_matches_brute_force_oracle_exactly(self):
        aset = build_lattice(AnchorConfig(scales=(0.05, 0.2, 0.6), num_frames=37))
        gt = TimeSpan(10.2, 19.7, Units.INDEX)
        labels = label_anchors(aset, gt, threshold=0.4)
        for i in range(len(aset)):
            assert labels.iou_targets[i] == iou(anchor_span(aset, i), gt)

    def test_force_positive_keeps_n_pos_nonzero(self):
        # a sliver at the very edge clears no anchor at threshold 0.9
        labels = label_anchors(self.aset, TimeSpan(0.0, 0.05, Units.INDEX), threshold=0.9)
        assert labels.forced_positive
        assert labels.num_positives == 1
        best = int(np.argmax(labels.iou_targets))
        assert labels.positive_mask[best]

    def test_without_forcing_zero_positives_allowed(self):
        labels = label_anchors(self.aset, TimeSpan(0.0, 0.05, Units.INDEX),
                               threshold=0.9, force_positive=False)
        assert labels.num_positives == 0
        assert not labels.positive_mask.any()

    def test_gt_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            label_anchors(self.aset, TimeSpan(5.0, 11.0, Units.INDEX))

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            label_anchors(self.aset, TimeSpan(1.0, 2.0, Units.INDEX), threshold=1.0)

    @given(
        start=st.floats(0, 8, allow_nan=False),
        width=st.floats(0.1, 2, allow_nan=False),
        t1=st.floats(0.05, 0.9),
        t2=st.floats(0.05, 0.9),
    )
    @settings(max_examples=60)
    def test_threshold_monotonicity(self, start, width, t1, t2):
        gt = TimeSpan(start, min(start + width, 10.0), Units.INDEX)
        lo, hi = sorted((t1, t2))
        n_hi = label_anchors(self.aset, gt, threshold=hi, force_positive=False).num_positives
        n_lo = label_anchors(self.aset, gt, threshold=lo, force_positive=False).num_positives
        assert n_lo >= n_hi
        assert n_hi <= len(self.aset)
