import json

import numpy as np
import pytest

from nlqground.data import (
    AnnotationError,
    FeatureFormatError,
    QueryAnnotation,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    make_batches,
    read_annotations,
    read_features,
    sample_frames,
    save_dataset,
    write_annotations,
    write_features,
)


class TestFeatureCodec:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = {"a": rng.normal(size=(7, 3)).astype(np.float32),
                "b": rng.normal(size=(1, 9)).astype(np.float32)}
        write_features(tmp_path / "f", mats)
        back = read_features(tmp_path / "f")
        assert back.keys() == mats.keys()
        for k in mats:
            np.testing.assert_array_equal(back[k], mats[k])

    def test_file_size_arithmetic(self, tmp_path):
        write_features(tmp_path / "f", {"m": np.zeros((2, 3), dtype=np.float32)})
        # magic + rows + cols + 6 floats = 4 + 4 + 4 + 24
        assert (tmp_path / "f" / "m.egf").stat().st_size == 36

    def test_bad_magic_rejected(self, tmp_path):
        write_features(tmp_path / "f", {"m": np.zeros((2, 3), dtype=np.float32)})
        p = tmp_path / "f" / "m.egf"
        blob = bytearray(p.read_bytes())
        blob[3] = ord("2")  # EGF1 -> EGF2
        p.write_bytes(bytes(blob))
        with pytest.raises(FeatureFormatError, match="m"):
            read_features(tmp_path / "f")

    def test_truncated_payload_rejected(self, tmp_path):
        write_features(tmp_path / "f", {"m": np.zeros((2, 3), dtype=np.float32)})
        p = tmp_path / "f" / "m.egf"
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FeatureFormatError):
            read_features(tmp_path / "f")

    def test_manifest_mismatch_rejected(self, tmp_path):
        write_features(tmp_path / "f", {"m": np.zeros((2, 3), dtype=np.float32)})
        (tmp_path / "f" / "m.egf").unlink()
        with pytest.raises(FeatureFormatError, match="m"):
            read_features(tmp_path / "f")

    def test_nan_rejected_at_write(self, tmp_path):
        bad = np.full((2, 2), np.nan, dtype=np.float32)
        with pytest.raises(ValueError):
            write_features(tmp_path / "f", {"m": bad})


class TestAnnotations:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({
            "version": "1.0",
            "videos": [{"video_id": "v1", "duration_sec": 60.0,
                        "queries": [{"query_id": "q1", "text": "x",
                                     "start_sec": 5.0, "end_sec": 9.0}]}],
        }))
        anns, durations = read_annotations(path)
        assert len(anns) == 1
        assert anns[0] == QueryAnnotation("v1", "q1", "x", 5.0, 9.0)
        assert durations == {"v1": 60.0}

    def test_inverted_span_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({
            "version": "1.0",
            "videos": [{"video_id": "v1", "duration_sec": 60.0,
                        "queries": [{"query_id": "q1", "text": "",
                                     "start_sec": 9.0, "end_sec": 5.0}]}],
        }))
        with pytest.raises(AnnotationError, match="q1"):
            read_annotations(path)

    def test_span_beyond_duration_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({
            "version": "1.0",
            "videos": [{"video_id": "v1", "duration_sec": 60.0,
                        "queries": [{"query_id": "q1", "text": "",
                                     "start_sec": 5.0, "end_sec": 61.0}]}],
        }))
        with pytest.raises(AnnotationError):
            read_annotations(path)

    @pytest.mark.parametrize("duration", [0.0, -1.0, "Infinity", float("inf"), float("nan")])
    def test_duration_not_positive_and_finite_rejected(self, tmp_path, duration):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({  # json writes inf and nan as Infinity and NaN
            "version": "1.0",
            "videos": [{"video_id": "v0", "duration_sec": 60.0, "queries": []},
                       {"video_id": "v1", "duration_sec": duration,
                        "queries": [{"query_id": "q1", "text": "",
                                     "start_sec": 1.0, "end_sec": 2.0}]}],
        }))
        with pytest.raises(AnnotationError, match=r"videos\[1\] \(v1\): duration_sec"):
            read_annotations(path)

    def test_missing_key_names_json_path(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"version": "1.0",
                                    "videos": [{"video_id": "v1", "duration_sec": 1.0}]}))
        with pytest.raises(AnnotationError, match=r"videos\[0\]"):
            read_annotations(path)

    def test_round_trip(self, tmp_path):
        videos = [{"video_id": "v1", "duration_sec": 30.0,
                   "queries": [{"query_id": "q1", "text": "find it",
                                "start_sec": 1.5, "end_sec": 4.25}]}]
        path = tmp_path / "a.json"
        write_annotations(path, videos)
        anns, durations = read_annotations(path)
        assert anns == [QueryAnnotation("v1", "q1", "find it", 1.5, 4.25)]
        assert durations["v1"] == 30.0


class TestSampleFrames:
    def test_identity_when_equal(self):
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        np.testing.assert_array_equal(sample_frames(x, 4), x)

    def test_downsampling_stride(self):
        x = np.arange(10, dtype=np.float32)[:, None]
        out = sample_frames(x, 5)
        np.testing.assert_array_equal(out[:, 0], [0, 2, 4, 6, 8])

    def test_upsampling_repeats(self):
        x = np.arange(3, dtype=np.float32)[:, None]
        out = sample_frames(x, 6)
        np.testing.assert_array_equal(out[:, 0], [0, 0, 1, 1, 2, 2])

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        for raw_t, target in ((100, 17), (17, 100), (64, 64)):
            x = np.arange(raw_t, dtype=np.float32)[:, None]
            out = sample_frames(x, target)
            assert (np.diff(out[:, 0]) >= 0).all()

    def test_needs_two_frames_and_a_row(self):
        x = np.zeros((4, 3), dtype=np.float32)
        for bad in (1, 0):
            with pytest.raises(ValueError, match="target_t"):
                sample_frames(x, bad)
        with pytest.raises(ValueError, match="empty"):
            sample_frames(x[:0], 4)


class TestSyntheticGeneration:
    spec = SyntheticSpec(num_videos=6, frames_per_video=40, feature_dim=8, text_dim=4,
                         tokens_per_query=3, queries_per_video=2,
                         span_fraction_range=(0.05, 0.2), noise_sigma=0.5, seed=11)

    def test_deterministic_in_seed(self):
        a = generate_synthetic(self.spec)
        b = generate_synthetic(self.spec)
        assert a.annotations == b.annotations
        for k in a.video_features:
            np.testing.assert_array_equal(a.video_features[k], b.video_features[k])
        for k in a.text_features:
            np.testing.assert_array_equal(a.text_features[k], b.text_features[k])

    def test_zero_noise_plants_exact_signature(self):
        spec = SyntheticSpec(num_videos=2, frames_per_video=30, feature_dim=8, text_dim=4,
                             tokens_per_query=2, queries_per_video=1,
                             span_fraction_range=(0.2, 0.3), noise_sigma=0.0, seed=5)
        ds = generate_synthetic(spec)
        for a in ds.annotations:
            frames = ds.video_features[a.video_id]
            lo, hi = int(np.floor(a.start_sec)), int(np.ceil(a.end_sec))
            inside = frames[lo:hi]
            # with sigma=0 every in-span row equals the same projected signature
            np.testing.assert_allclose(inside, np.broadcast_to(inside[0], inside.shape), atol=1e-6)
            tokens = ds.text_features[a.query_id]
            np.testing.assert_allclose(tokens, np.broadcast_to(tokens[0], tokens.shape), atol=1e-6)

    def test_span_fractions_within_range_over_1000_queries(self):
        spec = SyntheticSpec(num_videos=250, frames_per_video=50, feature_dim=4, text_dim=2,
                             tokens_per_query=1, queries_per_video=4,
                             span_fraction_range=(0.02, 0.09), noise_sigma=0.1, seed=3)
        ds = generate_synthetic(spec)
        assert len(ds) == 1000
        for a in ds.annotations:
            frac = (a.end_sec - a.start_sec) / ds.durations[a.video_id]
            assert 0.02 <= frac <= 0.09 + 1e-12

    def test_bad_span_range_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(span_fraction_range=(0.5, 0.2))

    def test_disk_round_trip(self, tmp_path):
        ds = generate_synthetic(self.spec)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.annotations == ds.annotations
        for k in ds.video_features:
            np.testing.assert_array_equal(back.video_features[k], ds.video_features[k])


class TestMakeBatches:
    ds = generate_synthetic(SyntheticSpec(
        num_videos=10, frames_per_video=30, feature_dim=6, text_dim=3,
        tokens_per_query=4, queries_per_video=1,
        span_fraction_range=(0.1, 0.3), noise_sigma=0.2, seed=2))

    def test_partition_sizes(self):
        sizes = [len(b.query_ids) for b in make_batches(self.ds, 4, 15, shuffle_seed=0)]
        assert sizes == [4, 4, 2]

    def test_deterministic_order(self):
        a = [b.query_ids for b in make_batches(self.ds, 4, 15, shuffle_seed=7, epoch=3)]
        b = [b.query_ids for b in make_batches(self.ds, 4, 15, shuffle_seed=7, epoch=3)]
        assert a == b

    def test_epoch_changes_order(self):
        a = [b.query_ids for b in make_batches(self.ds, 4, 15, shuffle_seed=7, epoch=1)]
        b = [b.query_ids for b in make_batches(self.ds, 4, 15, shuffle_seed=7, epoch=2)]
        assert a != b

    def test_text_masks_mark_original_lengths(self):
        for batch in make_batches(self.ds, 4, 15, shuffle_seed=0):
            for j, qid in enumerate(batch.query_ids):
                true_len = self.ds.text_features[qid].shape[0]
                assert batch.text_mask[j, :true_len].all()
                assert not batch.text_mask[j, true_len:].any()

    def test_gt_spans_inside_index_range(self):
        for batch in make_batches(self.ds, 3, 15, shuffle_seed=1):
            assert (batch.gt_index >= 0).all()
            assert (batch.gt_index <= 15).all()
            assert batch.video.shape[1] == 15

    def test_durations_are_each_items_video_length(self):
        for batch in make_batches(self.ds, 3, 15, shuffle_seed=1):
            assert batch.durations.dtype == np.float64
            assert batch.durations.tolist() == [self.ds.durations[v] for v in batch.video_ids]

    def test_empty_dataset_rejected(self):
        import dataclasses
        empty = dataclasses.replace(self.ds, annotations=[])
        with pytest.raises(ValueError):
            next(make_batches(empty, 4, 15, shuffle_seed=0))
