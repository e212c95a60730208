import json
import re

import numpy as np
import pytest
from helpers import edit_matrix_header, matrix_file_bytes

from nlqground.data import (
    AnnotationError,
    MatrixFileError,
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
from nlqground.nn import EncoderConfig, init_model, save_checkpoint


def nan_model(value):
    """A tiny model whose first parameter holds `value` at [0, 0]."""
    model = init_model(EncoderConfig(hidden_dim=4, num_heads=1, cross_layers=1,
                                     video_input_dim=2, text_input_dim=2), seed=0)
    model.params["video_proj.w"][0, 0] = value
    return model


def two_matrices(path, m_shape=(2, 3)):
    """Write 'a' (1x3 ones) then 'm' (zeros) as a feature file; return its path."""
    write_features(path, {"a": np.ones((1, 3), dtype=np.float32),
                          "m": np.zeros(m_shape, dtype=np.float32)})
    return path


class TestFeatureCodec:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = {"a": rng.normal(size=(7, 3)).astype(np.float32),
                "b": rng.normal(size=(1, 9)).astype(np.float32)}
        write_features(tmp_path / "f.nlqc", mats)
        back = read_features(tmp_path / "f.nlqc")
        assert back.keys() == mats.keys()
        for k in mats:
            np.testing.assert_array_equal(back[k], mats[k])

    def test_file_size_arithmetic(self, tmp_path):
        path = tmp_path / "f.nlqc"
        write_features(path, {"m": np.zeros((2, 3), dtype=np.float32)})
        header = b'{"manifest": [{"name": "m", "rows": 2, "cols": 3, "offset": 0}]}'
        assert path.read_bytes()[16:16 + len(header)] == header
        # magic + version + header length + header + 6 floats
        assert path.stat().st_size == 4 + 4 + 8 + len(header) + 24

    def test_bad_magic_rejected(self, tmp_path):
        path = two_matrices(tmp_path / "f.nlqc")
        blob = bytearray(path.read_bytes())
        blob[3] = ord("X")  # NLQC -> NLQX
        path.write_bytes(bytes(blob))
        with pytest.raises(MatrixFileError, match=f"{re.escape(str(path))}: bad magic"):
            read_features(path)

    @pytest.mark.parametrize("mutate, named", [
        (lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:], "unsupported format version 2"),
        (lambda b: b[:10], "truncated header"),
        (lambda b: b[:30], "truncated JSON header"),
    ], ids=["version", "short_file", "short_header"])
    def test_foreign_or_truncated_header_names_file(self, tmp_path, mutate, named):
        path = two_matrices(tmp_path / "f.nlqc")
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(MatrixFileError, match=f"{re.escape(str(path))}: {named}"):
            read_features(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = two_matrices(tmp_path / "f.nlqc")
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(MatrixFileError) as info:
            read_features(path)
        assert f"{path} (id 'm'): payload truncated" in str(info.value)

    def test_manifest_mismatch_rejected(self, tmp_path):
        # an entry that reaches past the end of the payload
        path = two_matrices(tmp_path / "f.nlqc")
        edit_matrix_header(path, lambda h: h["manifest"][1].update(rows=3))
        with pytest.raises(MatrixFileError) as info:
            read_features(path)
        assert f"{path} (id 'm'): payload truncated" in str(info.value)

    @pytest.mark.parametrize("write, name", [
        (lambda path, value: write_features(path, {"m": np.full((2, 2), value)}), "m"),
        (lambda path, value: save_checkpoint(nan_model(value), path), "video_proj.w"),
    ], ids=["write_features", "save_checkpoint"])
    def test_nan_rejected_at_write(self, tmp_path, write, name):
        """A NaN payload is refused before the file is touched: the previous
        file stays, and no temporary file is left."""
        path = tmp_path / "f.nlqc"
        write(path, 1.0)
        before = path.read_bytes()
        with pytest.raises(ValueError) as info:
            write(path, np.nan)
        assert f"{path} (id {name!r}): payload holds NaN or Inf" in str(info.value)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("raw, named", [
        (b'{"version": "1.0"}', "manifest list"),  # no manifest
        (b'{"manifest": {"m": {"rows": 2}}}', "manifest list"),  # not a list
        (b'{"manifest": [', "line 1"),  # not JSON
    ], ids=["no_files", "list_files", "not_json"])
    def test_bad_manifest_names_manifest(self, tmp_path, raw, named):
        path = tmp_path / "f.nlqc"
        path.write_bytes(matrix_file_bytes(raw, bytes(24)))
        with pytest.raises(MatrixFileError) as info:
            read_features(path)
        assert str(path) in str(info.value)
        assert named in str(info.value)

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m[1].pop("offset"), "malformed manifest entry 1"),
        (lambda m: m[1].update(name="a"), "manifest entry 1 has a bad or repeated name 'a'"),
        (lambda m: m[1].update(name=7), "manifest entry 1 has a bad or repeated name 7"),
        (lambda m: m[1].update(cols=3.0), "(id 'm'): size 2x3.0"),
        (lambda m: m[1].update(offset=-4), "(id 'm'): offset -4 is not an integer >= 0"),
        (lambda m: m[1].update(offset=16), "(id 'm'): payload truncated"),
    ], ids=["no_offset", "repeated_name", "int_name", "float_cols", "negative_offset",
            "past_payload"])
    def test_bad_manifest_entry_names_file_and_entry(self, tmp_path, edit, named):
        path = two_matrices(tmp_path / "f.nlqc")
        edit_matrix_header(path, lambda h: edit(h["manifest"]))
        with pytest.raises(MatrixFileError) as info:
            read_features(path)
        assert f"{path}" in str(info.value) and named in str(info.value)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_zero_size_matrix_refused_on_write_and_read(self, tmp_path, shape):
        path = tmp_path / "f.nlqc"
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: matrix 'm' must be 2-D"):
            two_matrices(path, shape)
        assert not path.exists()
        two_matrices(path)
        edit_matrix_header(path, lambda h: h["manifest"][1].update(rows=shape[0], cols=shape[1]))
        path.write_bytes(path.read_bytes()[:-24])
        with pytest.raises(MatrixFileError) as info:
            read_features(path)
        assert f"{path} (id 'm'): size {shape[0]}x{shape[1]} is not at least 1x1" in str(info.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_names_file_and_id(self, tmp_path, value):
        path = two_matrices(tmp_path / "f.nlqc")
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(MatrixFileError, match="NaN or Inf") as info:
            read_features(path)
        assert f"{path} (id 'm')" in str(info.value)

    def test_dataset_column_count_differs_names_container_and_both_ids(self, tmp_path):
        # a feature file may mix widths; a dataset's batches need one
        ds = generate_synthetic(SyntheticSpec(num_videos=2, frames_per_video=8, feature_dim=3,
                                              text_dim=2, tokens_per_query=2, seed=0))
        save_dataset(ds, tmp_path / "d")
        feats = tmp_path / "d" / "text_features.nlqc"
        mats = read_features(feats)
        first, *_, qid = mats
        write_features(feats, {**mats, qid: np.zeros((2, 3), dtype=np.float32)})
        with pytest.raises(MatrixFileError) as info:
            load_dataset(tmp_path / "d")
        assert str(info.value) == f"{feats}: id {qid!r} has 3 columns, but id {first!r} has 2"


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

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("inf"), float("nan")])
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

    @staticmethod
    def _read(tmp_path, videos):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"version": "1.0", "videos": videos}))
        return read_annotations(path)

    @staticmethod
    def _video(vid="v1", duration=60.0, *queries):
        return {"video_id": vid, "duration_sec": duration, "queries": list(queries)}

    @staticmethod
    def _query(qid="q1", start=1.0, end=2.0):
        return {"query_id": qid, "text": "", "start_sec": start, "end_sec": end}

    @pytest.mark.parametrize("duration", [None, "abc", [60], 10**400, True, "30.5", "Infinity"])
    def test_non_numeric_duration_names_video_and_key(self, tmp_path, duration):
        videos = [self._video("v0"), self._video("v1", duration, self._query())]
        with pytest.raises(AnnotationError, match=r"videos\[1\] \(v1\): 'duration_sec'"):
            self._read(tmp_path, videos)

    @pytest.mark.parametrize("key", ["start_sec", "end_sec"])
    @pytest.mark.parametrize("value", [None, "abc", {}, True, "1.25"])
    def test_non_numeric_endpoint_names_query_position_and_key(self, tmp_path, key, value):
        bad = dict(self._query("q2"), **{key: value})
        videos = [self._video("v0", 60.0, self._query("q0"), self._query("q1"), bad)]
        with pytest.raises(AnnotationError, match=rf"videos\[0\]\.queries\[2\]: '{key}'"):
            self._read(tmp_path, videos)

    @pytest.mark.parametrize("videos, where", [
        ({"v1": {}}, r"videos must be a list"),
        ([5], r"videos\[0\] must be an object"),
        ([{"video_id": "v1", "duration_sec": 60.0, "queries": "q1"}],
         r"videos\[0\]\.queries must be a list"),
        ([{"video_id": "v1", "duration_sec": 60.0, "queries": [None]}],
         r"videos\[0\]\.queries\[0\] must be an object"),
        ([{"video_id": 7, "duration_sec": 60.0, "queries": []}], r"videos\[0\]: 'video_id'"),
        ([{"video_id": "v1", "duration_sec": 60.0,
           "queries": [{"query_id": ["q"], "start_sec": 1.0, "end_sec": 2.0}]}],
         r"videos\[0\]\.queries\[0\]: 'query_id'"),
    ])
    def test_wrong_shape_names_position(self, tmp_path, videos, where):
        with pytest.raises(AnnotationError, match=where):
            self._read(tmp_path, videos)

    def test_repeated_query_id_names_both_positions(self, tmp_path):
        across = [self._video("v0", 60.0, self._query("a"), self._query("q1")),
                  self._video("v1", 60.0, self._query("b"), self._query("q1"))]
        with pytest.raises(AnnotationError,
                           match=r"videos\[1\]\.queries\[1\]: query_id 'q1' repeats videos\[0\]\.queries\[1\]"):
            self._read(tmp_path, across)
        within = [self._video("v0", 60.0, self._query("q1"), self._query("q1"))]
        with pytest.raises(AnnotationError, match=r"videos\[0\]\.queries\[1\].*videos\[0\]\.queries\[0\]"):
            self._read(tmp_path, within)

    def test_repeated_video_id_names_both_positions(self, tmp_path):
        # a second entry would otherwise replace the first one's duration
        videos = [self._video("v0", 100.0, self._query("a", 80.0, 90.0)),
                  self._video("v1"), self._video("v0", 10.0, self._query("b"))]
        with pytest.raises(AnnotationError, match=r"videos\[2\]: video_id 'v0' repeats videos\[0\]"):
            self._read(tmp_path, videos)
        # ids are per kind: a query may share its id with a video
        anns, _ = self._read(tmp_path, [self._video("x", 60.0, self._query("x"))])
        assert [(a.video_id, a.query_id) for a in anns] == [("x", "x")]

    def test_numbers_in_every_accepted_form_still_load(self, tmp_path):
        anns, durations = self._read(tmp_path, [
            self._video("v1", 60, self._query("q1", 1, 2)),
            self._video("v2", 30.5, self._query("q2", 1.25, 3.5))])
        assert durations == {"v1": 60.0, "v2": 30.5}
        assert [(a.start_sec, a.end_sec) for a in anns] == [(1.0, 2.0), (1.25, 3.5)]

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

    @pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf"), True, "0.5"])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="'noise_sigma' must be a number in"):
            SyntheticSpec(noise_sigma=noise)

    def test_disk_round_trip(self, tmp_path):
        ds = generate_synthetic(self.spec)
        save_dataset(ds, tmp_path / "d")
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "annotations.json", "text_features.nlqc", "video_features.nlqc"]
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
            assert batch.videos.shape[1] == 15

    def test_durations_are_each_items_video_length(self):
        for batch in make_batches(self.ds, 3, 15, shuffle_seed=1):
            assert batch.durations.dtype == np.float64
            assert batch.durations.tolist() == [self.ds.durations[v] for v in batch.video_ids]

    def test_each_distinct_video_once_in_first_seen_order(self):
        ds = generate_synthetic(SyntheticSpec(
            num_videos=3, frames_per_video=30, feature_dim=6, text_dim=3, tokens_per_query=2,
            queries_per_video=3, seed=2))
        for batch in make_batches(ds, 4, 15, shuffle_seed=5):
            distinct = list(dict.fromkeys(batch.video_ids))
            assert batch.videos.shape == (len(distinct), 15, 6)
            assert batch.videos.dtype == np.float32
            assert batch.video_rows.tolist() == [distinct.index(v) for v in batch.video_ids]
            for row, vid in zip(batch.video_rows, batch.video_ids):
                np.testing.assert_array_equal(batch.videos[row],
                                              sample_frames(ds.video_features[vid], 15))

    def test_empty_dataset_rejected(self):
        import dataclasses
        empty = dataclasses.replace(self.ds, annotations=[])
        with pytest.raises(ValueError):
            next(make_batches(empty, 4, 15, shuffle_seed=0))
