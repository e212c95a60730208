import numpy as np
import pytest

from nlqground.anchors import AnchorConfig, build_lattice
from nlqground.losses import alignment_loss, boundary_loss, smooth_l1
from nlqground.nn import EncoderConfig, init_model
from nlqground.trainer import TrainConfig, batch_loss_and_grads
from helpers import flat_index, tiny_training_batch


def align(targets, confidences):
    """The value of one item's alignment loss."""
    return alignment_loss(np.atleast_2d(targets), np.atleast_2d(confidences))[0][0]


def box(spans, gt_start, gt_end, mask, beta=1.0, norm=1.0):
    """The value of one item's boundary loss."""
    return boundary_loss(np.asarray(spans)[None], np.array([[gt_start, gt_end]]),
                         np.asarray(mask)[None], beta, norm)[0][0]


class TestAlignmentLoss:
    def test_perfect_confident_match(self):
        assert align([1.0], [1.0 - 1e-7]) < 1e-6

    def test_hand_value(self):
        # (-log(1 - 1e-7) - log(0.5)) / 2 = 0.346574...
        got = align([1.0, 0.0], [1.0 - 1e-7, 0.5])
        assert got == pytest.approx(0.346574, abs=1e-6)

    def test_minimized_at_target(self):
        grid = np.linspace(0.01, 0.99, 197)
        values = alignment_loss(np.full((197, 1), 0.37), grid[:, None])[0]
        assert grid[int(np.argmin(values))] == pytest.approx(0.37, abs=0.01)

    def test_soft_targets_not_binarized(self):
        # optimum sits at the raw IoU value, not at 0 or 1
        assert align([0.5], [0.5]) < align([0.5], [0.99])
        assert align([0.5], [0.5]) < align([0.5], [0.01])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            alignment_loss(np.zeros((1, 0)), np.zeros((1, 0)))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        o = rng.uniform(0, 1, size=(50, 17))
        s = rng.uniform(0.01, 0.99, size=(50, 17))
        assert (alignment_loss(o, s)[0] >= 0.0).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        o = rng.uniform(0, 1, size=(2, 9))
        s = rng.uniform(0.05, 0.95, size=(2, 9))
        values, grad = alignment_loss(o, s)
        h = 1e-7
        for j in range(2):
            for i in range(9):
                sp, sm = s.copy(), s.copy()
                sp[j, i] += h
                sm[j, i] -= h
                numeric = (alignment_loss(o, sp)[0][j] - alignment_loss(o, sm)[0][j]) / (2 * h)
                assert abs(grad[j, i] - numeric) / max(abs(numeric), 1e-8) < 1e-6


class TestSmoothL1:
    def test_zero(self):
        assert smooth_l1(0.0, 1.0)[0] == 0.0

    def test_quadratic_region(self):
        assert smooth_l1(0.05, 1.0)[0] == pytest.approx(0.00125, abs=1e-12)

    def test_linear_region(self):
        assert smooth_l1(2.0, 1.0)[0] == pytest.approx(1.5, abs=1e-12)

    def test_continuous_and_c1_at_beta(self):
        for beta in (0.5, 1.0, 2.0):
            eps = 1e-9
            (below, above), (g_below, g_above) = smooth_l1([beta - eps, beta + eps], beta)
            assert abs(below - above) < 1e-8
            assert abs(g_below - g_above) < 1e-8


class TestBoundaryLoss:
    def test_perfect_predictions(self):
        spans = np.array([[20.0, 50.0], [10.0, 30.0]])
        assert box(spans, 20.0, 50.0, [True, False]) == 0.0

    def test_hand_value(self):
        # one positive, errors 0.05 after /100: two smooth-l1 terms of 0.00125
        got = box([[20.0, 50.0]], 25.0, 45.0, [True], beta=1.0, norm=100.0)
        assert got == pytest.approx(0.0025, abs=1e-9)

    def test_negatives_ignored(self):
        spans = np.array([[20.0, 50.0], [999.0, 1999.0]])
        mask = [True, False]
        a = box(spans, 25.0, 45.0, mask, norm=100.0)
        spans[1] = [-5.0, 77777.0]
        b = box(spans, 25.0, 45.0, mask, norm=100.0)
        assert a == b

    def test_error_scaling_monotonicity(self):
        gt_s, gt_e = 30.0, 60.0
        prev = -1.0
        for c in (1.0, 1.5, 2.0, 4.0, 8.0):
            val = box([[gt_s - 3.0 * c, gt_e + 5.0 * c]], gt_s, gt_e, [True], norm=100.0)
            assert val >= prev
            prev = val

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        spans = np.sort(rng.uniform(0, 100, size=(2, 6, 2)), axis=-1)
        gt = np.array([[40.0, 60.0], [10.0, 35.0]])
        mask = np.array([[True, False, True, True, False, True],
                         [False, False, True, False, False, False]])
        values, grad = boundary_loss(spans, gt, mask, 1.0, 100.0)
        assert (grad[~mask] == 0.0).all()
        h = 1e-6
        for j in range(2):
            for i in range(6):
                for c in range(2):
                    sp, sm = spans.copy(), spans.copy()
                    sp[j, i, c] += h
                    sm[j, i, c] -= h
                    numeric = (boundary_loss(sp, gt, mask, 1.0, 100.0)[0][j]
                               - boundary_loss(sm, gt, mask, 1.0, 100.0)[0][j]) / (2 * h)
                    assert grad[j, i, c] == pytest.approx(numeric, abs=1e-8)


class TestTotalLoss:
    """The trainer's step record: loss = align + mu * box over batch means."""

    enc = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=1,
                        video_input_dim=5, text_input_dim=3, dropout_rate=0.0,
                        anchors=AnchorConfig(scales=(0.25, 0.75), num_frames=8))

    def record(self, mu, zero_offsets=False, batch=None):
        model = init_model(self.enc, seed=3)
        if zero_offsets:  # decoded spans are then the anchors themselves
            model.params["reg_head.w2"][:] = 0.0
            model.params["reg_head.b2"][:] = 0.0
        batch = batch or tiny_training_batch(T=8, L=4)
        config = TrainConfig(mu=mu, seed=0)
        return batch_loss_and_grads(model, batch, config)

    def test_composition_of_hand_values(self):
        rec, _ = self.record(mu=2.5)
        assert rec["box"] > 0.0
        assert rec["loss"] == rec["align"] + 2.5 * rec["box"]  # exact

    def test_mu_zero(self):
        rec, grads = self.record(mu=0.0)
        assert rec["box"] > 0.0 and rec["loss"] == rec["align"]
        assert not grads["reg_head.w2"].any() and not grads["reg_head.b2"].any()

    def test_box_zero(self):
        # each ground truth is exactly one anchor (scale 0.25, width 2) and
        # no other anchor clears 0.5, so with zero offsets the box term is 0
        batch = tiny_training_batch(T=8, L=4)
        anchors = build_lattice(self.enc.anchors)
        batch.gt_index = np.array([anchors[flat_index(self.enc.anchors, t, 0)] for t in (3, 4)])
        for mu in (0.0, 0.5, 10.0):
            rec, _ = self.record(mu, zero_offsets=True, batch=batch)
            assert rec["box"] == 0.0 and rec["loss"] == rec["align"]

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            TrainConfig(mu=-1.0)
