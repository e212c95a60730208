import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlqground.anchors import AnchorConfig, build_lattice
from nlqground.inference import (
    ChannelAlignmentError,
    RerankChannel,
    decode_index_spans,
    decode_proposals,
    json_record,
    nms,
    read_predictions,
    rerank,
    select_proposals,
    top_k,
    write_predictions,
)
from helpers import (
    brute_force_decode,
    brute_force_selection,
    flat_index,
    per_item_decode,
    scalar_iou,
)


def props(*rows):
    """(start, end, conf) rows as (spans (N, 2), scores (N,)) arrays."""
    arr = np.array(rows, dtype=np.float64).reshape(-1, 3)
    return arr[:, :2], arr[:, 2]


def decode_one(offsets, anchors):
    """Index spans and backward of a batch of one item."""
    spans, back = decode_index_spans(offsets[None], anchors)
    return spans[0], lambda d: back(d[None])[0]


class TestDecode:
    aset = build_lattice(AnchorConfig(scales=(0.2,), num_frames=10))
    durations = np.array([10.0])

    def _output(self, offsets, conf=None):
        if conf is None:
            conf = np.full((10, 1), 0.5)
        return conf[None], offsets[None]

    def test_zero_offsets_reproduce_anchors(self):
        spans, _ = decode_proposals(*self._output(np.zeros((10, 2))), self.aset, self.durations)
        assert spans.shape == (1, 10, 2)
        for i in range(10):
            # duration == T so seconds equal index units here
            assert spans[0, i, 0] == pytest.approx(self.aset.spans[i, 0])
            assert spans[0, i, 1] == pytest.approx(self.aset.spans[i, 1])

    def test_window_scaled_offsets(self):
        # anchor (t=4) is [4-1+0.5, ...] => [3.5, 5.5], w=2; shift by (-0.5, +0.5)*w
        offsets = np.zeros((10, 2))
        offsets[4] = [-0.5, 0.5]
        spans, _ = decode_one(offsets, self.aset)
        np.testing.assert_allclose(spans[4], [3.5 - 1.0, 5.5 + 1.0])

    @staticmethod
    def _anchor_4_6():
        # a hand-built set holding the literal anchor [4, 6] with w=2
        from nlqground.anchors import AnchorSet
        config = AnchorConfig(scales=(0.2,), num_frames=10)
        spans = np.tile(np.array([[4.0, 6.0]]), (10, 1))
        return AnchorSet(spans=spans, window_sizes=(2.0,), config=config)

    def test_hand_example_anchor_4_6(self):
        # anchor [4, 6] with w=2: offsets (-0.5, 0.5) -> [3, 7]
        aset = self._anchor_4_6()
        offsets = np.zeros((10, 2))
        offsets[4] = [-0.5, 0.5]
        spans, _ = decode_one(offsets, aset)
        np.testing.assert_allclose(spans[4], [3.0, 7.0])

    def test_inverted_spans_swapped(self):
        aset = self._anchor_4_6()
        offsets = np.zeros((10, 2))
        offsets[4] = [1.5, -1.5]  # raw [7, 3]
        spans, _ = decode_one(offsets, aset)
        np.testing.assert_allclose(spans[4], [3.0, 7.0])

    def test_decoded_spans_inside_video(self):
        rng = np.random.default_rng(0)
        offsets = rng.normal(scale=3.0, size=(10, 2))
        spans, _ = decode_proposals(*self._output(offsets), self.aset, self.durations)
        for start, end in spans[0]:
            assert 0.0 <= start <= end <= 10.0

    def test_seconds_bitwise_equal_to_scalar_map(self):
        aset = build_lattice(AnchorConfig(scales=(0.2, 0.5), num_frames=10))
        durations = [37.3, 10.0, 1e-3]
        offsets = np.random.default_rng(5).normal(scale=2.0, size=(3, 10, 4))
        spans, scores = decode_proposals(np.full((3, 10, 2), 0.5), offsets, aset, durations)
        assert spans.shape == (3, 20, 2) and scores.shape == (3, 20)
        for j, d in enumerate(durations):
            index_spans = per_item_decode(offsets[j], aset)[0]
            assert spans[j].tolist() == [list(p) for p in brute_force_decode(index_spans, 10, d)]

    def test_non_finite_offsets_rejected(self):
        offsets = np.zeros((10, 2))
        offsets[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            decode_proposals(*self._output(offsets), self.aset, self.durations)

    def test_backward_routes_through_swap_and_clamp(self):
        aset = build_lattice(AnchorConfig(scales=(0.25,), num_frames=8))
        offsets = np.zeros((8, 2))
        offsets[4] = [1.5, -1.5]  # swapped
        offsets[0] = [-9.0, 0.0]  # start clamped at 0
        spans, back = decode_one(offsets, aset)
        d = np.zeros((8, 2))
        i = flat_index(aset, 4, 0)
        d[i] = [1.0, 2.0]
        g = back(d)
        # swapped: gradient on reported start flows to the end-offset slot
        assert g[4, 0] == pytest.approx(2.0 * 2.0)  # w=2
        assert g[4, 1] == pytest.approx(1.0 * 2.0)
        d2 = np.zeros((8, 2))
        d2[0] = [1.0, 0.0]
        g2 = back(d2)
        assert g2[0, 0] == 0.0  # clamped coordinate has zero gradient

    def test_gradient_matches_finite_differences(self):
        aset = build_lattice(AnchorConfig(scales=(0.2, 0.5), num_frames=10))
        rng = np.random.default_rng(4)
        offsets = rng.normal(scale=0.4, size=(2, 10, 4))
        spans, back = decode_index_spans(offsets, aset)
        w = rng.normal(size=spans.shape)
        grad = back(w)
        assert grad.shape == offsets.shape
        h = 1e-6
        for j in range(2):
            for t in range(10):
                for c in range(4):
                    op, om = offsets.copy(), offsets.copy()
                    op[j, t, c] += h
                    om[j, t, c] -= h
                    fp = float((decode_index_spans(op, aset)[0] * w).sum())
                    fm = float((decode_index_spans(om, aset)[0] * w).sum())
                    assert grad[j, t, c] == pytest.approx((fp - fm) / (2 * h), abs=1e-5)


class TestNms:
    def test_hand_example(self):
        spans, scores = props((0, 10, 0.9), (1, 11, 0.8), (20, 30, 0.7))
        kept = nms(spans, scores, 0.5, 3)
        assert [tuple(spans[i]) for i in kept] == [(0, 10), (20, 30)]

    def test_disjoint_all_kept(self):
        spans, scores = props(*[(i * 10, i * 10 + 5, 0.5 + i * 0.01) for i in range(5)])
        assert len(nms(spans, scores, 0.3, 5)) == 5

    def test_threshold_one_keeps_everything(self):
        spans, scores = props((0, 10, 0.9), (0, 10, 0.8), (1, 9, 0.7))
        assert len(nms(spans, scores, 1.0, 3)) == 3

    def test_kept_in_confidence_order(self):
        rng = np.random.default_rng(0)
        spans, scores = props(*zip(rng.uniform(0, 80, 30), rng.uniform(1, 20, 30), rng.uniform(0, 1, 30)))
        spans[:, 1] += spans[:, 0]
        kept = nms(spans, scores, 0.5, 30)
        confs = scores[kept].tolist()
        assert confs == sorted(confs, reverse=True)

    def test_no_kept_pair_exceeds_threshold(self):
        rng = np.random.default_rng(1)
        spans, scores = props(*zip(rng.uniform(0, 50, 40), rng.uniform(1, 30, 40), rng.uniform(0, 1, 40)))
        spans[:, 1] += spans[:, 0]
        kept = nms(spans, scores, 0.4, 40)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert scalar_iou(spans[a], spans[b]) <= 0.4

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            nms(np.empty((0, 2)), np.empty(0), 0.0, 5)

    @given(st.lists(
        st.tuples(st.floats(0, 50), st.floats(0.5, 20), st.floats(0, 1)),
        min_size=0, max_size=20))
    @settings(max_examples=60)
    def test_matches_brute_force_greedy(self, raw):
        spans, scores = props(*[(s, s + w, c) for s, w, c in raw])
        kept = nms(spans, scores, 0.5, max(1, len(raw)))
        # independent re-derivation: sort, then scan keeping non-conflicting
        proposals = [((s, s + w), c, i) for i, (s, w, c) in enumerate(raw)]
        order = sorted(proposals, key=lambda p: (-p[1], p[0][0], p[2]))
        expect = []
        for p in order:
            if all(scalar_iou(p[0], q[0]) <= 0.5 for q in expect):
                expect.append(p)
        assert kept.tolist() == [p[2] for p in expect]

    @given(st.lists(st.tuples(st.floats(0, 50), st.floats(0.5, 20), st.floats(0, 1)),
                    min_size=1, max_size=20),
           st.integers(1, 6))
    @settings(max_examples=60)
    def test_early_stop_is_prefix_of_full_nms(self, raw, k):
        spans, scores = props(*[(s, s + w, c) for s, w, c in raw])
        full = nms(spans, scores, 0.5, len(raw))
        assert nms(spans, scores, 0.5, k).tolist() == full[:k].tolist()


# Few distinct values force ties in score and in start, and zero widths give
# zero-length spans; k reaches past N.
_TIED = st.tuples(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 20),
                  st.sampled_from([0.0, 1.5]) | st.floats(0, 8),
                  st.sampled_from([0.2, 0.7]) | st.floats(0, 1))


class TestSelectionIdentity:
    @given(st.lists(_TIED, max_size=25), st.integers(1, 30),
           st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    @settings(max_examples=200)
    def test_matches_object_path(self, raw, k, nms_iou):
        spans, scores = props(*[(s, s + w, c) for s, w, c in raw])
        picked = select_proposals(spans, scores, k, nms_iou)
        assert picked.tolist() == brute_force_selection(spans.tolist(), scores.tolist(), k, nms_iou)


class TestTopK:
    def test_exactly_k_sorted(self):
        rng = np.random.default_rng(0)
        spans, scores = props(*[(i, i + 1, c) for i, c in enumerate(rng.uniform(0, 1, 1200))])
        out = top_k(spans, scores, 5)
        assert len(out) == 5
        assert scores[out].tolist() == sorted(scores.tolist(), reverse=True)[:5]

    def test_short_input_returned_whole(self):
        spans, scores = props((0, 1, 0.5))
        assert len(top_k(spans, scores, 5)) == 1

    def test_ordering(self):
        spans, scores = props((0, 1, 0.3), (1, 2, 0.9), (2, 3, 0.5))
        assert scores[top_k(spans, scores, 2)].tolist() == [0.9, 0.5]


class TestRerank:
    def test_empty_channels_identity(self):
        order, _ = rerank([0.9, 0.8], [])
        assert order == [0, 1]

    def test_additive_fusion_swaps_order(self):
        order, fused = rerank([0.5, 0.4], [RerankChannel("sim", [0.0, 0.3], weight=1.0)])
        assert order == [1, 0]
        assert fused[0] == pytest.approx(0.7)

    def test_all_tie_preserves_order(self):
        channel = RerankChannel("neg", [-0.5, -0.4, -0.3], weight=1.0)
        order, fused = rerank([0.5, 0.4, 0.3], [channel])
        assert order == [0, 1, 2]
        assert all(f == pytest.approx(0.0) for f in fused)

    def test_constant_shift_leaves_ordering(self):
        rng = np.random.default_rng(2)
        confs = rng.uniform(0, 1, 10)
        scores = rng.uniform(-1, 1, 10)
        a, _ = rerank(confs.tolist(), [RerankChannel("c", list(scores))])
        b, _ = rerank(confs.tolist(), [RerankChannel("c", list(scores + 42.0))])
        assert a == b

    def test_weighted_channels(self):
        _, fused = rerank([0.5], [RerankChannel("a", [1.0], weight=0.25),
                                  RerankChannel("b", [2.0], weight=0.5)])
        assert fused[0] == pytest.approx(0.5 + 0.25 + 1.0)

    def test_misaligned_channel_names_offender(self):
        with pytest.raises(ChannelAlignmentError, match="short"):
            rerank([0.5, 0.4], [RerankChannel("short", [0.1])])


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        records = [json_record("q1", "v1", *props((0, 1, 0.9), (2, 3, 0.8))),
                   json_record("q2", "v2", *props((5, 6, 0.7)))]
        write_predictions(path, records)
        back = read_predictions(path)
        assert [r["query_id"] for r in back] == ["q1", "q2"]
        assert back[0]["proposals"][0] == {"start_sec": 0.0, "end_sec": 1.0, "score": 0.9}

    def test_rank_order_preserved(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions(path, [json_record("q", "v", *props((0, 1, 0.9), (2, 3, 0.5)))])
        back = read_predictions(path)
        scores = [p["score"] for p in back[0]["proposals"]]
        assert scores == sorted(scores, reverse=True)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"video_id": "v"}\n')
        with pytest.raises(ValueError):
            read_predictions(path)

    @pytest.mark.parametrize("line, problem", [
        ('[1, 2]', "expected a JSON object"),
        ('{"query_id": "q", "proposals": 5}', "'proposals' must be a list"),
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, line, problem):
        path = tmp_path / "p.jsonl"
        path.write_text('{"query_id": "q0", "proposals": []}\n' + line + "\n")
        with pytest.raises(ValueError, match=f"p.jsonl:2: {problem}"):
            read_predictions(path)
