import json
from pathlib import Path

import pytest

from nlqground.anchors import AnchorConfig, build_lattice
from nlqground.cli import run
from nlqground.data import load_dataset, make_batches, read_annotations
from nlqground.inference import decode_index_spans, decode_proposals, select_proposals
from nlqground.nn import load_checkpoint
from helpers import brute_force_decode, brute_force_selection


def files_snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


GEN = ["gen-data", "--num-videos", "3", "--frames", "40", "--dim", "8",
       "--text-dim", "4", "--tokens", "3", "--span-min", "0.1", "--span-max", "0.25",
       "--noise", "0.3", "--seed", "7"]


def test_gen_data_deterministic(tmp_path):
    assert run(GEN + ["--out", str(tmp_path / "a")]) == 0
    assert run(GEN + ["--out", str(tmp_path / "b")]) == 0
    assert files_snapshot(tmp_path / "a") == files_snapshot(tmp_path / "b")


def test_gen_data_split(tmp_path):
    assert run(GEN + ["--out", str(tmp_path / "d"), "--val-videos", "1"]) == 0
    _, train_durs = read_annotations(tmp_path / "d" / "train" / "annotations.json")
    _, val_durs = read_annotations(tmp_path / "d" / "val" / "annotations.json")
    assert len(train_durs) == 2 and len(val_durs) == 1
    assert not set(train_durs) & set(val_durs)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train -> predict, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run(GEN + ["--out", str(data)]) == 0
    config = {
        "encoder": {"hidden_dim": 16, "num_heads": 2, "cross_layers": 2, "dropout_rate": 0.1},
        "train": {"epochs": 1, "batch_size": 2, "base_lr": 1e-3, "warmup_steps": 5, "seed": 3},
        "anchors": {"scales": [0.15, 0.4], "num_frames": 20},
        "inference": {"top_k": 5, "nms_iou": 0.5},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = root / "run"
    assert run(["train", "--config", str(cfg_path), "--data", str(data),
                "--val", str(data), "--out", str(out)]) == 0
    preds = root / "preds.jsonl"
    assert run(["predict", "--ckpt", str(out / "checkpoint_best.nlqc"),
                "--data", str(data), "--out", str(preds),
                "--frames", "20", "--scales", "0.15,0.4"]) == 0
    return {"root": root, "data": data, "cfg": cfg_path, "out": out, "preds": preds}


class TestTrainCommand:
    def test_artifacts_exist(self, pipeline):
        out = pipeline["out"]
        assert (out / "checkpoint_best.nlqc").exists()
        assert (out / "checkpoint_last.nlqc").exists()
        assert (out / "metrics.jsonl").exists()
        record = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
        assert {"epoch", "loss_align", "loss_box", "R1@0.3", "R1@0.5",
                "R5@0.3", "R5@0.5"} == set(record)

    def test_unknown_config_key_rejected(self, pipeline, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"epochs": 1, "bogus_key": 2}}))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1

    def test_removed_prediction_mode_key_rejected(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"inference": {"top_k": 5, "prediction_mode": "anchor"}}))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "'prediction_mode'" in capsys.readouterr().err

    def test_no_val_message(self, pipeline, tmp_path, capsys):
        assert run(["train", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "no validation split given" in out
        assert "-inf" not in out

    def test_missing_data_dir_rejected(self, pipeline, tmp_path):
        code = run(["train", "--config", str(pipeline["cfg"]),
                    "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 1


class TestPredictCommand:
    def test_predictions_schema(self, pipeline):
        lines = pipeline["preds"].read_text().splitlines()
        anns, _ = read_annotations(pipeline["data"] / "annotations.json")
        assert len(lines) == len(anns)
        rec = json.loads(lines[0])
        assert set(rec) == {"query_id", "video_id", "proposals"}
        assert len(rec["proposals"]) <= 5
        scores = [p["score"] for p in rec["proposals"]]
        assert scores == sorted(scores, reverse=True)

    def test_scale_count_mismatch_rejected(self, pipeline, tmp_path):
        code = run(["predict", "--ckpt", str(pipeline["out"] / "checkpoint_best.nlqc"),
                    "--data", str(pipeline["data"]), "--out", str(tmp_path / "p.jsonl"),
                    "--frames", "20", "--scales", "0.15"])
        assert code == 1


class TestSelectionIdentity:
    def test_trained_model_matches_object_path(self, pipeline):
        """Decode and selection of the trained model pick the same proposals,
        bitwise, as the scalar TimeSpan / core.iou path; so does the file
        `predict` wrote."""
        model = load_checkpoint(pipeline["out"] / "checkpoint_best.nlqc")
        anchors = build_lattice(AnchorConfig(scales=(0.15, 0.4), num_frames=20))
        written = {r["query_id"]: r for r in map(json.loads, pipeline["preds"].read_text().splitlines())}
        checked = 0
        for batch in make_batches(load_dataset(pipeline["data"]), 32, 20, shuffle_seed=0, shuffle=False):
            conf, offs, _ = model.forward_batch(batch.video, batch.text, batch.text_mask, train=False)
            for j, qid in enumerate(batch.query_ids):
                spans, scores = decode_proposals(conf[j], offs[j], anchors, batch.grids[j])
                expect_spans = brute_force_decode(decode_index_spans(offs[j], anchors)[0], batch.grids[j])
                assert spans.tolist() == [list(p) for p in expect_spans]
                for k, nms_iou in ((5, 0.5), (5, 0.0), (len(scores) + 3, 0.5), (1, 0.3)):
                    expect = brute_force_selection(expect_spans, scores.tolist(), k, nms_iou)
                    assert select_proposals(spans, scores, k, nms_iou).tolist() == expect
                expect = brute_force_selection(expect_spans, scores.tolist(), 5, 0.5)
                assert written[qid]["proposals"] == [
                    {"start_sec": expect_spans[i][0], "end_sec": expect_spans[i][1],
                     "score": float(scores[i])} for i in expect]
                checked += 1
        assert checked == len(written) > 0


class TestEvalCommand:
    def test_perfect_predictions_score_one(self, pipeline, tmp_path, capsys):
        anns, _ = read_annotations(pipeline["data"] / "annotations.json")
        preds = tmp_path / "perfect.jsonl"
        with open(preds, "w") as f:
            for a in anns:
                f.write(json.dumps({
                    "query_id": a.query_id, "video_id": a.video_id,
                    "proposals": [{"start_sec": a.start_sec, "end_sec": a.end_sec, "score": 1.0}],
                }) + "\n")
        assert run(["eval", "--preds", str(preds),
                    "--annotations", str(pipeline["data"] / "annotations.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(v == 1.0 for v in report["cells"].values())
        assert report["total_queries"] == len(anns)

    def test_table_format(self, pipeline, capsys):
        assert run(["eval", "--preds", str(pipeline["preds"]),
                    "--annotations", str(pipeline["data"] / "annotations.json"),
                    "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "R@1" in out and "R@5" in out

    def test_strict_mode_missing_prediction(self, pipeline, tmp_path):
        partial = tmp_path / "partial.jsonl"
        first = pipeline["preds"].read_text().splitlines()[0]
        partial.write_text(first + "\n")
        code = run(["eval", "--preds", str(partial),
                    "--annotations", str(pipeline["data"] / "annotations.json"),
                    "--strict"])
        assert code == 1

    def test_missing_end_sec_names_query_rank_and_key(self, pipeline, tmp_path, capsys):
        anns, _ = read_annotations(pipeline["data"] / "annotations.json")
        qid = anns[0].query_id
        preds = tmp_path / "bad.jsonl"
        preds.write_text(json.dumps({"query_id": qid, "video_id": anns[0].video_id, "proposals": [
            {"start_sec": 0.0, "end_sec": 1.0, "score": 0.9},
            {"start_sec": 1.0, "score": 0.5}]}) + "\n")
        code = run(["eval", "--preds", str(preds),
                    "--annotations", str(pipeline["data"] / "annotations.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert repr(qid) in err and "rank 2" in err and "'end_sec'" in err


class TestRerankCommand:
    def test_rerank_round_trip(self, pipeline, tmp_path, capsys):
        preds = pipeline["preds"]
        records = [json.loads(l) for l in preds.read_text().splitlines()]
        channel = tmp_path / "chan.jsonl"
        with open(channel, "w") as f:
            for rec in records:
                f.write(json.dumps({
                    "query_id": rec["query_id"], "channel": "flat",
                    "scores": [0.0] * len(rec["proposals"]),
                }) + "\n")
        out = tmp_path / "reranked.jsonl"
        assert run(["rerank", "--preds", str(preds),
                    "--channel", f"{channel}:1.0", "--out", str(out)]) == 0
        before = [json.loads(l) for l in preds.read_text().splitlines()]
        after = [json.loads(l) for l in out.read_text().splitlines()]
        # all-zero channel leaves spans and ordering unchanged
        for b, a in zip(before, after):
            assert [p["start_sec"] for p in b["proposals"]] == \
                   [p["start_sec"] for p in a["proposals"]]

    def _rerank_one(self, tmp_path, proposals):
        preds = tmp_path / "bad.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": proposals}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"query_id": "q7", "channel": "c",
                                       "scores": [0.0] * len(proposals)}) + "\n")
        return run(["rerank", "--preds", str(preds), "--channel", str(channel),
                    "--out", str(tmp_path / "o.jsonl")])

    def test_missing_score_names_query_rank_and_key(self, tmp_path, capsys):
        code = self._rerank_one(tmp_path, [{"start_sec": 0.0, "end_sec": 1.0, "score": 0.5},
                                           {"start_sec": 1.0, "end_sec": 2.0}])
        err = capsys.readouterr().err
        assert code == 1
        assert "'q7'" in err and "rank 2" in err and "'score'" in err

    def test_inverted_span_names_query_rank_and_key(self, tmp_path, capsys):
        code = self._rerank_one(tmp_path, [{"start_sec": 5.0, "end_sec": 3.0, "score": 0.5}])
        err = capsys.readouterr().err
        assert code == 1
        assert "'q7'" in err and "rank 1" in err and "'start_sec'" in err

    def test_non_finite_endpoint_rejected(self, tmp_path, capsys):
        code = self._rerank_one(tmp_path, [{"start_sec": 0.0, "end_sec": float("inf"), "score": 0.5}])
        err = capsys.readouterr().err
        assert code == 1
        assert "'q7'" in err and "rank 1" in err and "'end_sec'" in err

    def test_non_list_proposals_names_path_and_line(self, tmp_path, capsys):
        preds = tmp_path / "bad.jsonl"
        preds.write_text("\n" + json.dumps({"query_id": "q7", "video_id": "v", "proposals": 5}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"query_id": "q7", "channel": "c", "scores": []}) + "\n")
        code = run(["rerank", "--preds", str(preds), "--channel", str(channel),
                    "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{preds}:2" in err and "'proposals'" in err

    def test_bad_channel_json_names_path_and_line(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": []}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"query_id": "q7", "channel": "c", "scores": []}) + "\nnot json\n")
        code = run(["rerank", "--preds", str(preds), "--channel", str(channel),
                    "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{channel}:2" in err and "invalid JSON" in err

    @pytest.mark.parametrize("bad", [None, "0.5", True, float("nan")])
    def test_bad_channel_score_names_path_line_and_index(self, tmp_path, capsys, bad):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": [
            {"start_sec": 0.0, "end_sec": 1.0, "score": 0.5},
            {"start_sec": 1.0, "end_sec": 2.0, "score": 0.4}]}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text("\n" + json.dumps({"query_id": "q7", "channel": "c",
                                              "scores": [0.1, bad]}) + "\n")
        out = tmp_path / "o.jsonl"
        code = run(["rerank", "--preds", str(preds), "--channel", str(channel), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{channel}:2" in err and "scores[1]" in err
        assert not out.exists()

    def test_missing_channel_file(self, pipeline, tmp_path):
        code = run(["rerank", "--preds", str(pipeline["preds"]),
                    "--channel", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["eval", "--preds", "x", "--annotations", "y", "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out
