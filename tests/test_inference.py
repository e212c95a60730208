import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlqground.anchors import AnchorConfig, build_lattice
from nlqground.data import SyntheticSpec, generate_synthetic
from nlqground.nn import layers
from nlqground.nn import model as model_module
from nlqground.inference import (
    InferenceOptions,
    decode_index_spans,
    decode_proposals,
    nms,
    predict_dataset,
    read_channel_file,
    read_predictions,
    rerank,
    write_predictions,
)
from nlqground.nn import EncoderConfig, GroundingModel, init_model
from helpers import (
    brute_force_decode,
    brute_force_selection,
    flat_index,
    per_item_decode,
    reference_read_channel_file,
    reference_read_predictions,
    scalar_iou,
)


def props(*rows):
    """(start, end, conf) rows as (spans (N, 2), scores (N,)) arrays."""
    arr = np.array(rows, dtype=np.float64).reshape(-1, 3)
    return arr[:, :2], arr[:, 2]


def decode_one(offsets, lattice):
    """Index spans and backward of a batch of one item."""
    spans, back = decode_index_spans(offsets[None], lattice)
    return spans[0], lambda d: back(d[None])[0]


class TestDecode:
    lattice = AnchorConfig(scales=(0.2,), num_frames=10)
    durations = np.array([10.0])

    def _output(self, offsets, conf=None):
        if conf is None:
            conf = np.full((10, 1), 0.5)
        return conf[None], offsets[None]

    def test_zero_offsets_reproduce_anchors(self):
        spans, _ = decode_proposals(*self._output(np.zeros((10, 2))), self.lattice, self.durations)
        assert spans.shape == (1, 10, 2)
        anchors = build_lattice(self.lattice)
        for i in range(10):
            # duration == T so seconds equal index units here
            assert spans[0, i, 0] == pytest.approx(anchors[i, 0])
            assert spans[0, i, 1] == pytest.approx(anchors[i, 1])

    def test_window_scaled_offsets(self):
        # anchor (t=4) is [4-1+0.5, ...] => [3.5, 5.5], w=2; shift by (-0.5, +0.5)*w
        offsets = np.zeros((10, 2))
        offsets[4] = [-0.5, 0.5]
        spans, _ = decode_one(offsets, self.lattice)
        np.testing.assert_allclose(spans[4], [3.5 - 1.0, 5.5 + 1.0])

    def test_hand_example_anchor_t4(self):
        # anchor t=4 is [3.5, 5.5] with w=2: offsets (-0.25, 0.75) -> [3.5 - 0.5, 5.5 + 1.5]
        offsets = np.zeros((10, 2))
        offsets[4] = [-0.25, 0.75]
        spans, _ = decode_one(offsets, self.lattice)
        np.testing.assert_allclose(spans[4], [3.0, 7.0])

    def test_inverted_spans_swapped(self):
        offsets = np.zeros((10, 2))
        offsets[4] = [1.75, -1.25]  # raw [3.5 + 3.5, 5.5 - 2.5] = [7, 3]
        spans, _ = decode_one(offsets, self.lattice)
        np.testing.assert_allclose(spans[4], [3.0, 7.0])

    def test_decoded_spans_inside_video(self):
        rng = np.random.default_rng(0)
        offsets = rng.normal(scale=3.0, size=(10, 2))
        spans, _ = decode_proposals(*self._output(offsets), self.lattice, self.durations)
        for start, end in spans[0]:
            assert 0.0 <= start <= end <= 10.0

    def test_seconds_bitwise_equal_to_scalar_map(self):
        lattice = AnchorConfig(scales=(0.2, 0.5), num_frames=10)
        durations = [37.3, 10.0, 1e-3]
        offsets = np.random.default_rng(5).normal(scale=2.0, size=(3, 10, 4))
        spans, scores = decode_proposals(np.full((3, 10, 2), 0.5), offsets, lattice, durations)
        assert spans.shape == (3, 20, 2) and scores.shape == (3, 20)
        for j, d in enumerate(durations):
            index_spans = per_item_decode(offsets[j], lattice)[0]
            assert spans[j].tolist() == [list(p) for p in brute_force_decode(index_spans, 10, d)]

    def test_non_finite_offsets_rejected(self):
        offsets = np.zeros((10, 2))
        offsets[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            decode_proposals(*self._output(offsets), self.lattice, self.durations)

    def test_backward_routes_through_swap_and_clamp(self):
        lattice = AnchorConfig(scales=(0.25,), num_frames=8)
        offsets = np.zeros((8, 2))
        offsets[4] = [1.5, -1.5]  # swapped
        offsets[0] = [-9.0, 0.0]  # start clamped at 0
        spans, back = decode_one(offsets, lattice)
        d = np.zeros((8, 2))
        i = flat_index(lattice, 4, 0)
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
        lattice = AnchorConfig(scales=(0.2, 0.5), num_frames=10)
        rng = np.random.default_rng(4)
        offsets = rng.normal(scale=0.4, size=(2, 10, 4))
        spans, back = decode_index_spans(offsets, lattice)
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
                    fp = float((decode_index_spans(op, lattice)[0] * w).sum())
                    fm = float((decode_index_spans(om, lattice)[0] * w).sum())
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
        """A threshold outside (0, 1], NaN included, and k < 1 are refused:
        the one guard in front of selection."""
        spans, scores = props((0, 10, 0.9), (20, 30, 0.5))
        for threshold in (-0.5, 0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="NMS threshold must lie in"):
                nms(spans, scores, threshold, 5)
        with pytest.raises(ValueError, match="k must be >= 1"):
            nms(spans, scores, 0.5, 0)

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
        picked = nms(spans, scores, nms_iou or 1.0, k)
        assert picked.tolist() == brute_force_selection(spans.tolist(), scores.tolist(), k, nms_iou)


class TestTopK:
    def test_exactly_k_sorted(self):
        rng = np.random.default_rng(0)
        spans, scores = props(*[(i, i + 1, c) for i, c in enumerate(rng.uniform(0, 1, 1200))])
        out = nms(spans, scores, 1.0, 5)
        assert len(out) == 5
        assert scores[out].tolist() == sorted(scores.tolist(), reverse=True)[:5]

    def test_short_input_returned_whole(self):
        spans, scores = props((0, 1, 0.5))
        assert len(nms(spans, scores, 1.0, 5)) == 1

    def test_ordering(self):
        spans, scores = props((0, 1, 0.3), (1, 2, 0.9), (2, 3, 0.5))
        assert scores[nms(spans, scores, 1.0, 2)].tolist() == [0.9, 0.5]


def loop_rerank(scores, channels):
    """The fusion rule one proposal at a time in Python floats: each
    channel's weighted score added in channel order, then a stable sort by
    descending fused score."""
    fused = []
    for i, score in enumerate(scores):
        final = float(score)
        for channel, weight in channels:
            final += weight * float(channel[i])
        fused.append(final)
    order = sorted(range(len(fused)), key=lambda i: -fused[i])
    return order, [fused[i] for i in order]


class TestRerank:
    def test_empty_channels_identity(self):
        order, _ = rerank(np.array([0.9, 0.8]), [])
        assert order.tolist() == [0, 1]

    def test_additive_fusion_swaps_order(self):
        order, fused = rerank(np.array([0.5, 0.4]), [(np.array([0.0, 0.3]), 1.0)])
        assert order.tolist() == [1, 0]
        assert fused[0] == pytest.approx(0.7)

    def test_all_tie_preserves_order(self):
        order, fused = rerank(np.array([0.5, 0.4, 0.3]), [(np.array([-0.5, -0.4, -0.3]), 1.0)])
        assert order.tolist() == [0, 1, 2]
        assert all(f == pytest.approx(0.0) for f in fused)

    def test_constant_shift_leaves_ordering(self):
        rng = np.random.default_rng(2)
        confs = rng.uniform(0, 1, 10)
        scores = rng.uniform(-1, 1, 10)
        a, _ = rerank(confs, [(scores, 1.0)])
        b, _ = rerank(confs, [(scores + 42.0, 1.0)])
        assert a.tolist() == b.tolist()

    def test_weighted_channels(self):
        _, fused = rerank(np.array([0.5]), [(np.array([1.0]), 0.25), (np.array([2.0]), 0.5)])
        assert fused[0] == pytest.approx(0.5 + 0.25 + 1.0)

    @given(st.lists(st.sampled_from([0.0, 0.5, -0.25]) | st.floats(-2, 2), max_size=12),
           st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(-3, 3), max_size=3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_matches_python_loop_bitwise(self, scores, weights, seed):
        """Same fused bits and same stable order as the per-proposal loop,
        ties included."""
        rng = np.random.default_rng(seed)
        channels = [(rng.choice([0.0, 0.25, rng.uniform(-1, 1)], size=len(scores)), w)
                    for w in weights]
        order, fused = rerank(np.array(scores, dtype=np.float64), channels)
        want_order, want_fused = loop_rerank(scores, channels)
        assert order.tolist() == want_order
        assert fused.tolist() == want_fused


SHARED_ENC = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=1,
                           video_input_dim=6, text_input_dim=4,
                           anchors=AnchorConfig(scales=(0.1, 0.3), num_frames=16))
SHARED_DATA = generate_synthetic(SyntheticSpec(
    num_videos=4, frames_per_video=64, feature_dim=6, text_dim=4, tokens_per_query=3,
    queries_per_video=4, span_fraction_range=(0.1, 0.25), noise_sigma=0.3, seed=5))


class TestEachVideoEncodedOnce:
    """predict_dataset encodes each distinct video of a batch once, and its
    first cross layer's attention block too; its records must be those of
    a forward that gives every query a video row of its own, bit for bit
    (the per-row forward's direct attention is matched within 16 eps in
    test_nn)."""

    @staticmethod
    def dataset(counts, rnd):
        """SHARED_DATA with counts[i] queries of video i, shuffled by `rnd`."""
        by_video = {}
        for a in SHARED_DATA.annotations:
            by_video.setdefault(a.video_id, []).append(a)
        anns = [a for n, group in zip(counts, by_video.values()) for a in group[:n]]
        rnd.shuffle(anns)
        return dataclasses.replace(SHARED_DATA, annotations=anns)

    # a short lattice and the paper-scale one
    @pytest.mark.parametrize("T", [16, 600])
    @given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           rnd=st.randoms(use_true_random=False), batch_size=st.sampled_from([1, 2, 3, 32]))
    @settings(max_examples=15, deadline=None)
    def test_records_match_the_per_row_oracle_bitwise(self, T, counts, rnd, batch_size):
        ds = self.dataset(counts, rnd)
        enc = dataclasses.replace(SHARED_ENC, anchors=AnchorConfig(scales=(0.1, 0.3), num_frames=T))
        model, oracle = init_model(enc, seed=1), init_model(enc, seed=1)
        oracle.forward_batch = lambda videos, rows, text, mask, train: GroundingModel.forward_batch(
            oracle, videos[rows], np.arange(len(rows)), text, mask, train)
        got = predict_dataset(model, ds, batch_size=batch_size)
        want = predict_dataset(oracle, ds, batch_size=batch_size)
        assert [r[:2] for r in got] == [r[:2] for r in want] == [
            (a.query_id, a.video_id) for a in ds.annotations]
        for (_, _, spans, scores), (_, _, want_spans, want_scores) in zip(got, want):
            assert spans.tobytes() == want_spans.tobytes()
            assert scores.tobytes() == want_scores.tobytes()

    def test_intra_video_stack_sees_each_batch_video_once(self, monkeypatch):
        sizes = []

        def spy(x, key_mask, p, *args):
            if x.shape[1] == 16:  # the intra-video stack: T rows, not L or T + L
                sizes.append(len(x))
            return layers.encoder_layer_forward(x, key_mask, p, *args)

        monkeypatch.setattr(model_module, "encoder_layer_forward", spy)
        predict_dataset(init_model(SHARED_ENC, seed=1), SHARED_DATA, batch_size=6)
        # 16 queries in annotation order, 4 per video: batches of 6, 6 and 4
        assert sizes == [2, 2, 1]


def tiny_records():
    """predict_dataset's records for an untrained model on a tiny dataset."""
    ds = generate_synthetic(SyntheticSpec(
        num_videos=3, frames_per_video=40, feature_dim=8, text_dim=4, tokens_per_query=3,
        queries_per_video=2, span_fraction_range=(0.1, 0.25), noise_sigma=0.3, seed=0))
    enc = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=1,
                        video_input_dim=8, text_input_dim=4,
                        anchors=AnchorConfig(scales=(0.15, 0.4), num_frames=20))
    return predict_dataset(init_model(enc, seed=0), ds, InferenceOptions(top_k=5, nms_iou=0.5))


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions(path, [("q1", "v1", *props((0, 1, 0.9), (2, 3, 0.8))),
                                 ("q2", "v2", *props((5, 6, 0.7)))])
        back = read_predictions(path)
        assert [(qid, vid) for qid, vid, _, _ in back] == [("q1", "v1"), ("q2", "v2")]
        assert back[0][2].tolist() == [[0.0, 1.0], [2.0, 3.0]] and back[0][3].tolist() == [0.9, 0.8]

    def test_predict_dataset_records_survive_bit_for_bit(self, tmp_path):
        records = tiny_records()
        path = tmp_path / "p.jsonl"
        write_predictions(path, records)
        back = read_predictions(path)
        assert len(back) == len(records) == 6
        for (qid, vid, spans, scores), (bqid, bvid, bspans, bscores) in zip(records, back):
            assert (bqid, bvid) == (qid, vid)
            assert bspans.dtype == bscores.dtype == np.float64
            assert bspans.shape == spans.shape and bscores.shape == scores.shape
            assert bspans.tobytes() == spans.tobytes() and bscores.tobytes() == scores.tobytes()

    def test_rank_order_preserved(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions(path, [("q", "v", *props((0, 1, 0.9), (2, 3, 0.5)))])
        scores = read_predictions(path)[0][3].tolist()
        assert scores == sorted(scores, reverse=True)

    def test_integers_and_empty_lists_read_as_float64(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"query_id": "q", "proposals": [{"start_sec": 3, "end_sec": 7, "score": 1}]}\n'
                        '{"query_id": "r", "video_id": "w", "proposals": []}\n')
        (q, vq, sq, cq), (r, vr, sr, cr) = read_predictions(path)
        assert (q, vq, r, vr) == ("q", "", "r", "w")
        assert sq.tolist() == [[3.0, 7.0]] and cq.tolist() == [1.0]
        assert sr.shape == (0, 2) and cr.shape == (0,) and sr.dtype == cr.dtype == np.float64
        floats = tmp_path / "f.jsonl"
        floats.write_text(path.read_text().replace("3,", "3.0,").replace("7,", "7.0,").replace("1}", "1.0}"))
        for a, b in zip(read_predictions(path), read_predictions(floats)):
            assert a[:2] == b[:2] and a[2].tobytes() == b[2].tobytes() and a[3].tobytes() == b[3].tobytes()

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

    @pytest.mark.parametrize("fields, key", [
        ({"query_id": ["q"]}, "query_id"),
        ({"query_id": None}, "query_id"),
        ({"query_id": 3}, "query_id"),
        ({"query_id": "q", "video_id": {"v": 1}}, "video_id"),
    ])
    def test_non_string_id_names_path_line_and_key(self, tmp_path, fields, key):
        path = tmp_path / "p.jsonl"
        path.write_text('{"query_id": "q0", "proposals": []}\n'
                        + json.dumps({**fields, "proposals": []}) + "\n")
        with pytest.raises(ValueError, match=f"p.jsonl:2: '{key}' must be a string"):
            read_predictions(path)
        channel = tmp_path / "c.jsonl"
        channel.write_text('{"query_id": "q0", "channel": "c", "scores": []}\n'
                           + json.dumps({**fields, "channel": "c", "scores": []}) + "\n")
        with pytest.raises(ValueError, match=f"c.jsonl:2: '{key}' must be a string"):
            read_channel_file(channel)

    @pytest.mark.parametrize("proposal, key", [
        ({"start_sec": 1.0, "end_sec": 2.0}, "score"),
        ({"start_sec": True, "end_sec": 2.0, "score": 0.5}, "start_sec"),
        ({"start_sec": 1.0, "end_sec": 1e400, "score": 0.5}, "end_sec"),
        ({"start_sec": 1.0, "end_sec": 2.0, "score": 10**400}, "score"),
        ({"start_sec": 1.0, "end_sec": 2.0, "score": float("nan")}, "score"),
        ({"start_sec": 3.0, "end_sec": 2.0, "score": 0.5}, "start_sec"),
        ({"start_sec": -1.0, "end_sec": 2.0, "score": 0.5}, "start_sec"),
        ("not a proposal", "start_sec"),
    ])
    def test_bad_proposal_names_path_line_query_rank_and_key(self, tmp_path, proposal, key):
        path = tmp_path / "p.jsonl"
        good = {"start_sec": 0.0, "end_sec": 1.0, "score": 0.9}
        path.write_text('{"query_id": "q0", "proposals": []}\n\n'
                        + json.dumps({"query_id": "q7", "proposals": [good, proposal]}) + "\n")
        with pytest.raises(ValueError, match=f"p.jsonl:3: query 'q7' rank 2: .*'{key}'"):
            read_predictions(path)

    def test_offender_after_an_all_integer_line_is_named(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"query_id": "q0", "proposals": [{"start_sec": 0, "end_sec": 2, "score": 1}]}\n'
                        + json.dumps({"query_id": "q1", "proposals": [
                            {"start_sec": 1.0, "end_sec": 2.0, "score": 0.5},
                            {"start_sec": 3.0, "end_sec": 2.0, "score": 0.5}]}) + "\n")
        with pytest.raises(ValueError, match=r"p.jsonl:2: query 'q1' rank 2: span \[3.0, 2.0\] breaks"):
            read_predictions(path)
        channel = tmp_path / "c.jsonl"
        channel.write_text('{"query_id": "q0", "channel": "c", "scores": [1, -2]}\n'
                           '{"query_id": "q1", "channel": "c", "scores": [0.5, null]}\n')
        with pytest.raises(ValueError, match=r"c.jsonl:2: scores\[1\] is None, not a finite number"):
            read_channel_file(channel)

    def test_integers_of_any_length_read_as_floats(self, tmp_path):
        """An integer literal of 5,000 digits, past the interpreter's limit for
        converting an integer from text, reads as inf and is named; `-0`
        reads as -0.0 and a 20-digit integer as its nearest float."""
        path = tmp_path / "p.jsonl"
        path.write_text('{"query_id": "q", "proposals": [{"start_sec": -0, "end_sec": 1, '
                        '"score": 12345678901234567891}, {"start_sec": 0, "end_sec": 1, '
                        f'"score": {"9" * 5000}}}]}}\n')
        with pytest.raises(ValueError, match="p.jsonl:1: query 'q' rank 2: 'score' is missing or not a finite"):
            read_predictions(path)
        path.write_text(path.read_text().replace("9" * 5000, "0.5"))
        [(_, _, spans, scores)] = read_predictions(path)
        assert spans.tobytes() == np.array([[-0.0, 1.0], [0.0, 1.0]]).tobytes()
        assert scores.tolist() == [float(12345678901234567891), 0.5]
        channel = tmp_path / "c.jsonl"
        channel.write_text(f'{{"query_id": "q", "channel": "c", "scores": [1, {"9" * 5000}]}}\n')
        with pytest.raises(ValueError, match=r"c.jsonl:1: scores\[1\] is inf, not a finite number"):
            read_channel_file(channel)

    def test_repeated_query_id_names_both_lines(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"query_id": "q0", "proposals": []}\n\n{"query_id": "q1", "proposals": []}\n'
                        '{"query_id": "q0", "proposals": []}\n')
        with pytest.raises(ValueError, match="p.jsonl:4: query_id 'q0' repeats line 1"):
            read_predictions(path)
        channel = tmp_path / "c.jsonl"
        channel.write_text('{"query_id": "q0", "channel": "c", "scores": [0.5]}\n'
                           '{"query_id": "q0", "channel": "c", "scores": [0.25]}\n')
        with pytest.raises(ValueError, match="c.jsonl:2: query_id 'q0' repeats line 1"):
            read_channel_file(channel)


_BAD_VALUES = [True, False, "0.5", None, float("nan"), float("inf"), float("-inf"), 10**400]
_NUMBER = st.one_of(st.floats(0, 100), st.integers(0, 100))


@st.composite
def mutated_jsonl(draw, list_key):
    """(lines, blank-line flags) of a predictions ("proposals") or channel
    ("scores") file: valid lines of floats and integers, then up to three
    mutations (a dropped key; a bool, string, None, NaN, +-Inf or 10**400
    value; swapped span ends; a negative start; a non-object proposal; a
    repeated query id)."""
    lines = []
    for q in range(draw(st.integers(1, 4))):
        if list_key == "proposals":
            items = []
            for _ in range(draw(st.integers(0, 3))):
                start = draw(_NUMBER)
                items.append({"start_sec": start, "end_sec": start + draw(_NUMBER),
                              "score": draw(st.one_of(st.floats(-5, 5), st.integers(-5, 5)))})
            lines.append({"query_id": f"q{q}", "video_id": f"v{q}", "proposals": items})
        else:
            lines.append({"query_id": f"q{q}", "channel": "c",
                          "scores": draw(st.lists(st.one_of(st.floats(-5, 5), st.integers(-5, 5)),
                                                  max_size=3))})
    mutations = ["drop", "value", "repeat"] + (["swap", "negative", "non_object"]
                                               if list_key == "proposals" else [])
    for _ in range(draw(st.integers(0, 3))):
        rec = draw(st.sampled_from(lines))
        mutation = draw(st.sampled_from(mutations))
        items = rec.get(list_key) or []
        proposals = [p for p in items if isinstance(p, dict)] if list_key == "proposals" else []
        if mutation == "drop":
            if proposals and draw(st.booleans()):
                p = draw(st.sampled_from(proposals))
                if p:
                    p.pop(draw(st.sampled_from(sorted(p))))
            else:
                rec.pop(draw(st.sampled_from(sorted(rec))), None)
        elif mutation == "value" and items:
            bad = draw(st.sampled_from(_BAD_VALUES))
            if list_key == "scores":
                items[draw(st.integers(0, len(items) - 1))] = bad
            elif proposals:
                draw(st.sampled_from(proposals))[draw(st.sampled_from(("start_sec", "end_sec", "score")))] = bad
        elif mutation == "repeat":
            rec["query_id"] = draw(st.sampled_from(lines)).get("query_id", "q0")
        elif mutation == "swap" and proposals:
            p = draw(st.sampled_from(proposals))
            if "start_sec" in p and "end_sec" in p:
                p["start_sec"], p["end_sec"] = p["end_sec"], p["start_sec"]
        elif mutation == "negative" and proposals:
            draw(st.sampled_from(proposals))["start_sec"] = -draw(st.floats(1e-9, 100))
        elif mutation == "non_object" and items:
            items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(["p", 3, None, [0.0, 1.0]]))
    return lines, draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))


class TestReadersMatchTheReference:
    """Each reader against its one-value-at-a-time reference: a mutant the
    reference accepts reads bitwise-equal arrays; one it refuses raises a
    ValueError with the reference's message; nothing else is raised."""

    @staticmethod
    def _check(lines, blanks, name, read, reference):
        """(what `read` returns, what `reference` returns) for the mutant
        file, or None once both have refused it with the same message."""
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / name
            path.write_text("".join(("\n" if blank else "") + json.dumps(rec) + "\n"
                                    for rec, blank in zip(lines, blanks)))
            try:
                expect = reference(path)
            except ValueError as refused:
                with pytest.raises(ValueError) as e:
                    read(path)
                assert str(e.value) == str(refused)
                return None
            return read(path), expect

    @given(mutated_jsonl("proposals"))
    @settings(max_examples=300, deadline=None)
    def test_predictions(self, mutant):
        got = self._check(*mutant, "p.jsonl", read_predictions, reference_read_predictions)
        if got is not None:
            records, expect = got
            assert [r[:2] for r in records] == [r[:2] for r in expect]
            for (_, _, spans, scores), (_, _, espans, escores) in zip(records, expect):
                assert spans.dtype == scores.dtype == np.float64
                assert spans.tobytes() == espans.tobytes() and scores.tobytes() == escores.tobytes()

    @given(mutated_jsonl("scores"))
    @settings(max_examples=300, deadline=None)
    def test_channel_files(self, mutant):
        got = self._check(*mutant, "c.jsonl", read_channel_file, reference_read_channel_file)
        if got is not None:
            scores_by_query, expect = got
            assert list(scores_by_query) == list(expect)
            for qid, scores in scores_by_query.items():
                assert scores.dtype == np.float64 and scores.tobytes() == expect[qid].tobytes()
