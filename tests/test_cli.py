import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from nlqground.anchors import AnchorConfig
from nlqground.cli import build_parser, load_run_config, run
from nlqground.data import (
    Dataset,
    load_dataset,
    make_batches,
    read_annotations,
    read_features,
    save_dataset,
    write_matrices,
)
from nlqground.inference import InferenceOptions, decode_proposals, nms
from nlqground.nn import EncoderConfig, load_checkpoint
from nlqground.trainer import TrainConfig
from helpers import (
    brute_force_decode,
    brute_force_selection,
    edit_matrix_header,
    matrix_file_bytes,
    per_item_decode,
)


def files_snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Every `nlqground ...` command in README's bash blocks, continuation
    lines joined."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("nlqground ")]


def test_readme_commands_parse():
    """A README example cannot drift from the real flags."""
    commands = readme_commands()
    for command in commands:
        build_parser().parse_args(shlex.split(command, comments=True)[1:])
    assert sorted(c.split()[1] for c in commands) == ["eval", "gen-data", "predict",
                                                       "rerank", "train"]


def test_readme_run_config_loads(tmp_path):
    """README's run config reads as written: every key it sets reaches the
    configs `load_run_config` builds, and `{}` builds the defaults.  It sets
    every key a run config can set, so a new field needs its README line."""
    section = README.read_text(encoding="utf-8").split("### Run config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "run.json"
    path.write_text(block, encoding="utf-8")
    encoder, train, inference = load_run_config(path, 32, 16)
    built = {"encoder": encoder, "train": train, "anchors": encoder.anchors,
             "inference": inference}
    doc = json.loads(block)
    assert doc.keys() == built.keys()
    set_elsewhere = {"video_input_dim", "text_input_dim", "anchors"}  # the data; `anchors`
    for name, config in built.items():
        assert set(doc[name]) == {f.name for f in dataclasses.fields(config)} - set_elsewhere, name
    for name, keys in doc.items():
        for key, value in keys.items():
            assert getattr(built[name], key) == (tuple(value) if isinstance(value, list)
                                                 else value), (name, key)
    path.write_text("{}", encoding="utf-8")
    assert load_run_config(path, 32, 16) == (
        EncoderConfig(video_input_dim=32, text_input_dim=16), TrainConfig(), InferenceOptions())


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


@pytest.mark.parametrize("flag, value, named", [
    ("--noise", "nan", "noise_sigma"), ("--noise", "inf", "noise_sigma"),
    ("--val-videos", "-1", "--val-videos"), ("--val-videos", "3", "--val-videos")])
def test_gen_data_bad_value_names_it_and_writes_nothing(tmp_path, capsys, flag, value, named):
    assert run(GEN + ["--out", str(tmp_path / "d"), flag, value]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


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
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_dataset_without_queries_names_its_annotations(self, pipeline, tmp_path, capsys, command):
        empty = tmp_path / "empty"
        save_dataset(Dataset(video_features={}, text_features={}, annotations=[], durations={}), empty)
        args = {"train": ["train", "--config", str(pipeline["cfg"]), "--out", str(tmp_path / "run")],
                "predict": ["predict", "--ckpt", str(pipeline["out"] / "checkpoint_best.nlqc"),
                            "--out", str(tmp_path / "p.jsonl")]}[command]
        assert run(args + ["--data", str(empty)]) == 1
        assert f"{empty / 'annotations.json'} holds no queries" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty"]

    def test_artifacts_exist(self, pipeline):
        out = pipeline["out"]
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint_best.nlqc", "checkpoint_last.nlqc", "metrics.jsonl", "run.json", "steps.jsonl"]
        # the resolved config: what the run config set, and every default
        run_record = json.loads((out / "run.json").read_text())
        assert run_record["encoder"]["anchors"] == {"scales": [0.15, 0.4], "num_frames": 20}
        assert run_record["train"]["batch_size"] == 2 and run_record["train"]["mu"] == TrainConfig().mu
        assert run_record["inference"] == {"top_k": 5, "nms_iou": 0.5}
        assert run_record.keys() == {"encoder", "train", "inference", "seed", "numpy", "blas",
                                     "blas_threads", "workers"}
        assert run_record["blas"].keys() == {"name", "version", "openblas configuration"}
        record = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
        assert {"epoch", "loss_align", "loss_box", "R1@0.3", "R1@0.5",
                "R5@0.3", "R5@0.5", "short_R1@0.5", "short_R5@0.5"} == set(record)

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

    @pytest.mark.parametrize("section, key, value", [
        ("encoder", "num_scales", 2),
        ("encoder", "anchors", {"scales": [0.15, 0.4], "num_frames": 20}),
        ("encoder", "video_input_dim", 8), ("encoder", "text_input_dim", 4),
        ("encoder", "feedforward_dim", 64), ("train", "adam_beta1", 0.9),
        ("train", "adam_beta2", 0.999), ("train", "adam_eps", 1e-8),
        ("train", "grad_clip_norm", 1.0), ("train", "positive_threshold", 0.5),
        ("train", "smooth_l1_beta", 1.0),
    ], ids=["num_scales-2", "anchors-value1", "video_input_dim-8", "text_input_dim-4",
            "feedforward_dim-64", "adam_beta1-0.9", "adam_beta2-0.999", "adam_eps-1e-08",
            "grad_clip_norm-1.0", "positive_threshold-0.5", "smooth_l1_beta-1.0"])
    def test_lattice_in_encoder_section_is_an_unknown_key(self, pipeline, tmp_path, capsys,
                                                          section, key, value):
        """The lattice is set by the `anchors` section alone, and the input
        dims by the data alone; the FFN width, Adam's moments and epsilon,
        the clip norm, the positive threshold and the smooth-L1 beta are
        constants, set by no section."""
        doc = json.loads(pipeline["cfg"].read_text())
        doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"config section {section!r}: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_no_val_message(self, pipeline, tmp_path, capsys):
        assert run(["train", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "no validation split given" in out
        assert "-inf" not in out

    @pytest.mark.parametrize("field, value", [("base_lr", 0.0), ("base_lr", float("inf")),
                                              ("warmup_steps", 0), ("mu", -1.0)])
    def test_bad_train_field_names_section_and_field(self, pipeline, tmp_path, capsys,
                                                     field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"epochs": 1, field: value}}))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'train'" in err and field in err

    def test_infinite_duration_names_video(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        for name, blob in files_snapshot(pipeline["data"]).items():
            (data / name).parent.mkdir(parents=True, exist_ok=True)
            (data / name).write_bytes(blob)
        doc = json.loads((data / "annotations.json").read_text())
        doc["videos"][1]["duration_sec"] = "Infinity"
        (data / "annotations.json").write_text(json.dumps(doc))
        code = run(["train", "--config", str(pipeline["cfg"]), "--data", str(data),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "videos[1]" in capsys.readouterr().err

    def test_odd_hidden_dim_names_section_before_training(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"encoder": {"hidden_dim": 9, "num_heads": 3},
                                   "train": {"epochs": 1}}))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'encoder'" in err and "hidden_dim must be even" in err
        assert not (tmp_path / "o").exists()

    # gen-data writes video features 8 wide and text features 4 wide
    @pytest.mark.parametrize("flag, name, got, want", [
        ("--dim", "video_features.nlqc", 6, 8), ("--text-dim", "text_features.nlqc", 5, 4)])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_other_feature_width_names_file_and_widths_before_running(
            self, pipeline, tmp_path, capsys, command, flag, name, got, want):
        other = tmp_path / "other"
        assert run(GEN + ["--out", str(other), flag, str(got)]) == 0
        capsys.readouterr()
        if command == "train":
            out = tmp_path / "o"
            code = run(["train", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                        "--val", str(other), "--out", str(out)])
            expected = f"those of {pipeline['data']}"
        else:
            out = tmp_path / "p.jsonl"
            ckpt = pipeline["out"] / "checkpoint_best.nlqc"
            code = run(["predict", "--ckpt", str(ckpt), "--data", str(other), "--out", str(out)])
            expected = f"{ckpt}'s"
        assert code == 1
        assert (f"{other / name}: features are {got} wide, but {expected} are {want} wide"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("inference", [{"top_k": 0}, {"top_k": 2.5}, {"nms_iou": -0.5},
                                           {"nms_iou": 1.5}, {"nms_iou": float("nan")}])
    def test_bad_inference_option_rejected_before_training(self, pipeline, tmp_path, capsys,
                                                           inference):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"epochs": 1}, "inference": inference}))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'inference'" in err and next(iter(inference)) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc, named", [
        ({"encoder": 5}, ["'encoder'"]),
        ({"train": [1]}, ["'train'"]),
        ({"data": "dir"}, ["'data'"]),
        ({"anchors": {"scales": 5}}, ["'anchors'", "'scales'"]),
        ([1, 2], ["JSON object"]),
    ])
    def test_non_object_section_names_section_and_key(self, pipeline, tmp_path, capsys,
                                                      doc, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert all(name in err for name in named)

    @pytest.mark.parametrize("section, key, value", [
        ("train", "epochs", 1.5), ("train", "batch_size", 2.5), ("train", "seed", 1.5),
        ("encoder", "hidden_dim", 8.0), ("encoder", "cross_layers", 1.0),
        ("anchors", "num_frames", 16.0), ("anchors", "num_frames", 1), ("train", "epochs", True),
        ("train", "seed", True), ("inference", "top_k", True), ("train", "warmup_steps", 2.5)])
    def test_non_integer_for_integer_field_names_section_and_key(self, pipeline, tmp_path,
                                                                capsys, section, key, value):
        doc = json.loads(pipeline["cfg"].read_text())
        doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"config section {section!r}: {key!r} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("train", "mu", "1.0"), ("train", "mu", [1.0]), ("train", "mu", False),
        ("train", "base_lr", True), ("encoder", "dropout_rate", "0.1"),
        ("encoder", "dropout_rate", False), ("inference", "nms_iou", [0.5]),
        ("inference", "nms_iou", True)])
    def test_non_number_for_float_field_names_section_and_key(self, pipeline, tmp_path,
                                                             capsys, section, key, value):
        doc = json.loads(pipeline["cfg"].read_text())
        doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"config section {section!r}: {key!r} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integer_past_the_conversion_limit_names_config_path(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"train": {{"epochs": {"9" * 5000}}}}}')
        code = run(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{bad}: invalid JSON" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value, field", [
        ("--nms-iou", "-0.5", "nms_iou"), ("--nms-iou", "nan", "nms_iou"),
        ("--nms-iou", "1.5", "nms_iou"), ("--topk", "0", "top_k")])
    def test_bad_inference_option_rejected(self, pipeline, tmp_path, capsys, flag, value, field):
        out = tmp_path / "p.jsonl"
        code = run(["predict", "--ckpt", str(pipeline["out"] / "checkpoint_best.nlqc"),
                    "--data", str(pipeline["data"]), "--out", str(out),
                    "--frames", "20", "--scales", "0.15,0.4", flag, value])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_scale_count_mismatch_rejected(self, pipeline, tmp_path):
        code = run(["predict", "--ckpt", str(pipeline["out"] / "checkpoint_best.nlqc"),
                    "--data", str(pipeline["data"]), "--out", str(tmp_path / "p.jsonl"),
                    "--frames", "20", "--scales", "0.15"])
        assert code == 1

    def test_lattice_comes_from_the_checkpoint(self, pipeline, tmp_path):
        out = tmp_path / "p.jsonl"
        assert run(["predict", "--ckpt", str(pipeline["out"] / "checkpoint_best.nlqc"),
                    "--data", str(pipeline["data"]), "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline["preds"].read_bytes()

    @pytest.mark.parametrize("flag, value, trained", [
        ("--frames", "24", "num_frames 20"), ("--scales", "0.15,0.5", "scales 0.15,0.4")])
    def test_lattice_flag_unlike_checkpoint_names_both_values(self, pipeline, tmp_path, capsys,
                                                              flag, value, trained):
        out = tmp_path / "p.jsonl"
        code = run(["predict", "--ckpt", str(pipeline["out"] / "checkpoint_best.nlqc"),
                    "--data", str(pipeline["data"]), "--out", str(out), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{flag} {value}" in err and trained in err
        assert not out.exists()

    def test_checkpoint_missing_parameter_names_path_and_parameter(self, pipeline, tmp_path,
                                                                   capsys):
        ckpt = tmp_path / "m.nlqc"
        ckpt.write_bytes((pipeline["out"] / "checkpoint_best.nlqc").read_bytes())
        edit_matrix_header(ckpt, lambda h: h["manifest"].pop(0))
        code = run(["predict", "--ckpt", str(ckpt), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "p.jsonl"), "--frames", "20", "--scales", "0.15,0.4"])
        assert code == 1
        assert f"{ckpt}: parameter 'video_proj.w' missing" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda c: c.update(hidden_dim=16.0), "config: 'hidden_dim' must be an integer >= 1, got 16.0"),
        (lambda c: c.update(num_heads=2.0), "config: 'num_heads' must be an integer >= 1, got 2.0"),
        (lambda c: c["anchors"].update(num_frames=20.0),
         "config.anchors: 'num_frames' must be an integer >= 2, got 20.0"),
        (lambda c: c.update(cross_layers=True),
         "config: 'cross_layers' must be an integer >= 1, got True"),
    ], ids=["hidden_dim", "num_heads", "num_frames", "cross_layers"])
    def test_checkpoint_non_integer_names_path_and_key(self, pipeline, tmp_path, capsys,
                                                       edit, named):
        """An integer field of the header that is 2.0 or true is refused
        by the same rule as in the run config."""
        ckpt = tmp_path / "m.nlqc"
        ckpt.write_bytes((pipeline["out"] / "checkpoint_best.nlqc").read_bytes())
        edit_matrix_header(ckpt, lambda h: edit(h["config"]))
        out = tmp_path / "p.jsonl"
        code = run(["predict", "--ckpt", str(ckpt), "--data", str(pipeline["data"]),
                    "--out", str(out)])
        assert code == 1
        assert f"{ckpt}: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_names_path_and_parameter(self, pipeline, tmp_path, capsys,
                                                           value):
        blob = bytearray((pipeline["out"] / "checkpoint_best.nlqc").read_bytes())
        n = int.from_bytes(blob[8:16], "little")
        entry = next(e for e in json.loads(blob[16:16 + n])["manifest"]
                     if e["name"] == "video_proj.w")
        at = 16 + n + entry["offset"]
        blob[at:at + 4] = np.array(value, dtype="<f4").tobytes()
        ckpt = tmp_path / "m.nlqc"
        ckpt.write_bytes(blob)
        code = run(["predict", "--ckpt", str(ckpt), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "p.jsonl"), "--frames", "20", "--scales", "0.15,0.4"])
        assert code == 1
        assert f"{ckpt} (id 'video_proj.w'): payload holds NaN or Inf" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()


    @staticmethod
    def copy_data(pipeline, tmp_path) -> Path:
        data = tmp_path / "data"
        for name, blob in files_snapshot(pipeline["data"]).items():
            (data / name).parent.mkdir(parents=True, exist_ok=True)
            (data / name).write_bytes(blob)
        return data

    @staticmethod
    def predict(pipeline, data, tmp_path) -> int:
        return run(["predict", "--ckpt", str(pipeline["out"] / "checkpoint_best.nlqc"),
                    "--data", str(data), "--out", str(tmp_path / "p.jsonl"),
                    "--frames", "20", "--scales", "0.15,0.4"])

    @pytest.mark.parametrize("mutation", [
        "no_files",  # the header has no manifest
        "list_files",  # the manifest is not a list
        "not_json",  # the header is not JSON
        "outside_dir",  # the last entry reaches past the end of the file
        "nan_payload", "wider_matrix"])
    def test_bad_feature_container_names_file_and_id(self, pipeline, tmp_path, capsys,
                                                     mutation):
        data = self.copy_data(pipeline, tmp_path)
        path = data / "text_features.nlqc"
        mats = read_features(path)
        *_, qid = mats
        rows, cols = mats[qid].shape
        named = [str(path)]
        if mutation == "no_files":
            edit_matrix_header(path, lambda h: h.pop("manifest"))
        elif mutation == "list_files":
            edit_matrix_header(path, lambda h: h.update(manifest={qid: h["manifest"][-1]}))
        elif mutation == "not_json":
            path.write_bytes(matrix_file_bytes(b'{"manifest": [', bytes(4 * rows * cols)))
            named.append("line 1")
        elif mutation == "outside_dir":
            edit_matrix_header(path, lambda h: h["manifest"][-1].update(rows=rows + 1))
            named.append(f"(id {qid!r}): payload truncated")
        else:
            bad = np.zeros((rows, cols + (mutation == "wider_matrix")), dtype="<f4")
            write_matrices(path, {**mats, qid: bad}, {})
            named = [str(path), repr(qid)]
            if mutation == "nan_payload":  # the writer refuses NaN: plant it in the bytes
                blob = bytearray(path.read_bytes())
                at = len(blob) - bad.nbytes
                blob[at:at + 4] = np.array(np.nan, dtype="<f4").tobytes()
                path.write_bytes(blob)
                named = [f"{path} (id {qid!r})"]
        assert self.predict(pipeline, data, tmp_path) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in named), err

    @pytest.mark.parametrize("name", ["text_features.nlqc", "video_features.nlqc"])
    def test_zero_row_matrix_names_file_and_id(self, pipeline, tmp_path, capsys, name):
        data = self.copy_data(pipeline, tmp_path)
        path = data / name
        mats = read_features(path)
        *_, mid = mats
        edit_matrix_header(path, lambda h: h["manifest"][-1].update(rows=0))
        path.write_bytes(path.read_bytes()[:-mats[mid].nbytes])
        assert self.predict(pipeline, data, tmp_path) == 1
        assert f"{path} (id {mid!r}): size 0x{mats[mid].shape[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["annotations.json", "video_features.nlqc",
                                         "text_features.nlqc"])
    def test_missing_dataset_file_names_path(self, pipeline, tmp_path, capsys, missing):
        data = self.copy_data(pipeline, tmp_path)
        (data / missing).unlink()
        assert self.predict(pipeline, data, tmp_path) == 1
        assert str(data / missing) in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()


class TestSelectionIdentity:
    def test_trained_model_matches_object_path(self, pipeline):
        """Decode and selection of the trained model pick the same proposals,
        bitwise, as the scalar oracles in `helpers` (one span pair at a
        time); so does the file `predict` wrote."""
        model = load_checkpoint(pipeline["out"] / "checkpoint_best.nlqc")
        lattice = AnchorConfig(scales=(0.15, 0.4), num_frames=20)
        written = {r["query_id"]: r for r in map(json.loads, pipeline["preds"].read_text().splitlines())}
        checked = 0
        for batch in make_batches(load_dataset(pipeline["data"]), 32, 20, shuffle_seed=None):
            conf, offs, _ = model.forward_batch(batch.videos, batch.video_rows, batch.text,
                                                batch.text_mask, train=False)
            batch_spans, batch_scores = decode_proposals(conf, offs, lattice, batch.durations)
            for j, qid in enumerate(batch.query_ids):
                spans, scores = batch_spans[j], batch_scores[j]
                index_spans = per_item_decode(offs[j], lattice)[0]
                expect_spans = brute_force_decode(index_spans, 20, batch.durations[j])
                assert spans.tolist() == [list(p) for p in expect_spans]
                for k, nms_iou in ((5, 0.5), (5, 0.0), (len(scores) + 3, 0.5), (1, 0.3)):
                    expect = brute_force_selection(expect_spans, scores.tolist(), k, nms_iou)
                    assert nms(spans, scores, nms_iou or 1.0, k).tolist() == expect
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

    # a repeated value, then no value at all (None)
    @pytest.mark.parametrize("flag, value, repeated", [
        ("--ranks", "5,1,5", "5"), ("--ious", "0.5,0.3,0.50", "0.5"),
        ("--ranks", "", None), ("--ranks", ",", None), ("--ious", "", None), ("--ious", ",", None)])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_repeated_rank_or_threshold_names_the_flag(self, pipeline, capsys, flag, value,
                                                       repeated, fmt):
        code = run(["eval", "--preds", str(pipeline["preds"]),
                    "--annotations", str(pipeline["data"] / "annotations.json"),
                    flag, value, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        problem = "expects at least one" if repeated is None else f"repeats the value {repeated}"
        assert f"{flag} {problem}" in captured.err

    def test_strict_mode_missing_prediction(self, pipeline, tmp_path):
        partial = tmp_path / "partial.jsonl"
        first = pipeline["preds"].read_text().splitlines()[0]
        partial.write_text(first + "\n")
        code = run(["eval", "--preds", str(partial),
                    "--annotations", str(pipeline["data"] / "annotations.json"),
                    "--strict"])
        assert code == 1

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d["videos"][1].update(duration_sec=None), ["videos[1]", "'duration_sec'"]),
        (lambda d: d["videos"][1].update(duration_sec="abc"), ["videos[1]", "'duration_sec'"]),
        (lambda d: d["videos"][1].update(duration_sec="10"), ["videos[1]", "'duration_sec'"]),
        (lambda d: d["videos"][0]["queries"][0].update(start_sec="1.0"),
         ["videos[0].queries[0]", "'start_sec'"]),
        (lambda d: d["videos"][0]["queries"][0].update(start_sec=None),
         ["videos[0].queries[0]", "'start_sec'"]),
        (lambda d: d["videos"][2]["queries"][0].update(end_sec=None),
         ["videos[2].queries[0]", "'end_sec'"]),
        (lambda d: d.update(videos={"v": 1}), ["videos must be a list"]),
        (lambda d: d["videos"][1].update(queries=5), ["videos[1].queries must be a list"]),
        (lambda d: d["videos"][2]["queries"][0].update(query_id=d["videos"][0]["queries"][0]["query_id"]),
         ["videos[2].queries[0]", "videos[0].queries[0]"]),
        (lambda d: d["videos"][2].update(video_id=d["videos"][1]["video_id"]),
         ["videos[2]", "repeats videos[1]"]),
    ], ids=["null_duration", "text_duration", "string_duration", "string_start", "null_start",
            "null_end", "videos_not_list", "queries_not_list", "repeated_query_id",
            "repeated_video_id"])
    def test_bad_annotations_name_position_and_key(self, pipeline, tmp_path, capsys, edit, named):
        doc = json.loads((pipeline["data"] / "annotations.json").read_text())
        edit(doc)
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps(doc))
        code = run(["eval", "--preds", str(pipeline["preds"]), "--annotations", str(annotations)])
        err = capsys.readouterr().err
        assert code == 1
        assert all(name in err for name in named)

    def test_integer_past_the_conversion_limit_names_annotations_path(self, pipeline, tmp_path,
                                                                      capsys):
        text = (pipeline["data"] / "annotations.json").read_text()
        annotations = tmp_path / "annotations.json"
        annotations.write_text(text.replace('"version"', f'"extra": {"9" * 5000}, "version"', 1))
        code = run(["eval", "--preds", str(pipeline["preds"]), "--annotations", str(annotations)])
        assert code == 1
        assert f"{annotations}: not valid JSON" in capsys.readouterr().err

    def test_repeated_query_id_names_path_and_both_lines(self, pipeline, tmp_path, capsys):
        lines = pipeline["preds"].read_text().splitlines()
        preds = tmp_path / "repeated.jsonl"
        preds.write_text("\n".join(lines + [lines[1]]) + "\n")
        code = run(["eval", "--preds", str(preds),
                    "--annotations", str(pipeline["data"] / "annotations.json")])
        qid = json.loads(lines[1])["query_id"]
        assert code == 1
        assert f"{preds}:{len(lines) + 1}: query_id {qid!r} repeats line 2" in capsys.readouterr().err

    def test_bad_proposal_names_path_and_line(self, pipeline, tmp_path, capsys):
        lines = pipeline["preds"].read_text().splitlines()
        bad = json.loads(lines[1])
        bad["proposals"][0]["score"] = "high"
        preds = tmp_path / "bad.jsonl"
        preds.write_text("\n".join([lines[0], json.dumps(bad)] + lines[2:]) + "\n")
        code = run(["eval", "--preds", str(preds),
                    "--annotations", str(pipeline["data"] / "annotations.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{preds}:2: query {bad['query_id']!r} rank 1: 'score'" in err

    @pytest.mark.parametrize("key, value", [("query_id", ["q"]), ("query_id", 7), ("video_id", 5)])
    def test_non_string_id_names_path_line_and_key(self, pipeline, tmp_path, capsys, key, value):
        lines = pipeline["preds"].read_text().splitlines()
        bad = dict(json.loads(lines[1]), **{key: value})
        preds = tmp_path / "bad.jsonl"
        preds.write_text("\n".join([lines[0], json.dumps(bad)] + lines[2:]) + "\n")
        code = run(["eval", "--preds", str(preds),
                    "--annotations", str(pipeline["data"] / "annotations.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{preds}:2: {key!r} must be a string" in err

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

    @pytest.mark.parametrize("bad, key", [
        ({"start_sec": True, "end_sec": 5.0, "score": 0.5}, "start_sec"),
        ({"start_sec": 1.0, "end_sec": 5.0}, "score"),
        ({"start_sec": 1.0, "end_sec": 5.0, "score": None}, "score"),
    ], ids=["bool_start_sec", "missing_score", "null_score"])
    def test_bad_proposal_rejected_as_rerank_rejects_it(self, pipeline, tmp_path, capsys,
                                                         bad, key):
        anns, _ = read_annotations(pipeline["data"] / "annotations.json")
        qid = anns[0].query_id
        preds = tmp_path / "bad.jsonl"
        preds.write_text(json.dumps({"query_id": qid, "video_id": anns[0].video_id, "proposals": [
            {"start_sec": 0.0, "end_sec": 1.0, "score": 0.9}, bad]}) + "\n")
        code = run(["eval", "--preds", str(preds),
                    "--annotations", str(pipeline["data"] / "annotations.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert repr(qid) in err and "rank 2" in err and f"'{key}'" in err


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

    def _rerank_one(self, tmp_path, proposals, scores=None, weight=""):
        preds = tmp_path / "bad.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": proposals}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"query_id": "q7", "channel": "c",
                                       "scores": [0.0] * len(proposals) if scores is None
                                       else scores}) + "\n")
        return run(["rerank", "--preds", str(preds), "--channel", f"{channel}{weight}",
                    "--out", str(tmp_path / "o.jsonl")])

    def test_output_matches_per_proposal_fusion(self, pipeline, tmp_path):
        """Two weighted channels: the output file is, byte for byte, the one
        the fusion rule gives when applied proposal by proposal to the
        parsed input (Python floats, channels in order, stable sort)."""
        records = [json.loads(l) for l in pipeline["preds"].read_text().splitlines()]
        specs = []
        for name, weight, value in (("a", 0.75, lambda i, r: 0.1 * i), ("b", -1.5, lambda i, r: r / 7)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(json.dumps({
                "query_id": rec["query_id"], "channel": name,
                "scores": [value(i, r) for r in range(len(rec["proposals"]))]}) + "\n"
                for i, rec in enumerate(records)))
            specs.append((path, weight, value))
        out = tmp_path / "o.jsonl"
        argv = ["rerank", "--preds", str(pipeline["preds"]), "--out", str(out)]
        for path, weight, _ in specs:
            argv += ["--channel", f"{path}:{weight}"]
        assert run(argv) == 0
        expect = []
        for i, rec in enumerate(records):
            fused = []
            for r, p in enumerate(rec["proposals"]):
                final = p["score"]
                for _, weight, value in specs:
                    final += weight * value(i, r)
                fused.append(final)
            order = sorted(range(len(fused)), key=lambda j: -fused[j])
            expect.append(json.dumps({"query_id": rec["query_id"], "video_id": rec["video_id"],
                                      "proposals": [dict(rec["proposals"][j], score=fused[j])
                                                    for j in order]}) + "\n")
        assert out.read_text() == "".join(expect)

    def test_integer_values_written_as_floats(self, tmp_path):
        assert self._rerank_one(tmp_path, [{"start_sec": 3, "end_sec": 7, "score": 1}],
                                scores=[2]) == 0
        assert json.loads((tmp_path / "o.jsonl").read_text())["proposals"] == [
            {"start_sec": 3.0, "end_sec": 7.0, "score": 3.0}]
        assert '"start_sec": 3.0, "end_sec": 7.0, "score": 3.0' in (tmp_path / "o.jsonl").read_text()

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_weight_names_spec(self, tmp_path, capsys, weight):
        code = self._rerank_one(tmp_path, [{"start_sec": 0.0, "end_sec": 1.0, "score": 0.5}],
                                weight=f":{weight}")
        assert code == 1
        assert repr(f"{tmp_path / 'chan.jsonl'}:{weight}") in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("score", [10.0, -10.0])
    def test_overflowing_fused_score_names_query_and_channel(self, tmp_path, capsys, score):
        code = self._rerank_one(tmp_path, [{"start_sec": 0.0, "end_sec": 1.0, "score": 0.5}],
                                scores=[score], weight=":1e308")
        err = capsys.readouterr().err
        assert code == 1
        assert "'q7'" in err and repr(f"{tmp_path / 'chan.jsonl'}:1e308") in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_opposite_overflows_name_query_and_both_channels(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": [
            {"start_sec": 0.0, "end_sec": 1.0, "score": 0.5}]}) + "\n")
        specs = []
        for name, weight in (("up", "1e308"), ("down", "-1e308")):
            path = tmp_path / f"{name}.jsonl"
            path.write_text(json.dumps({"query_id": "q7", "channel": name, "scores": [10.0]}) + "\n")
            specs.append(f"{path}:{weight}")
        out = tmp_path / "o.jsonl"
        code = run(["rerank", "--preds", str(preds), "--channel", specs[0], "--channel", specs[1],
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "'q7'" in err and repr(specs[0]) in err and repr(specs[1]) in err
        assert not out.exists()

    def test_non_string_channel_query_id_names_path_line_and_key(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": []}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"query_id": "q7", "channel": "c", "scores": []}) + "\n"
                           + json.dumps({"query_id": ["q8"], "channel": "c", "scores": []}) + "\n")
        code = run(["rerank", "--preds", str(preds), "--channel", str(channel),
                    "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{channel}:2: 'query_id' must be a string" in err

    def test_repeated_channel_query_id_names_path_and_both_lines(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": []}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"query_id": "q7", "channel": "c", "scores": []}) + "\n"
                           + json.dumps({"query_id": "q7", "channel": "c", "scores": []}) + "\n")
        out = tmp_path / "o.jsonl"
        code = run(["rerank", "--preds", str(preds), "--channel", str(channel), "--out", str(out)])
        assert code == 1
        assert f"{channel}:2: query_id 'q7' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_misaligned_channel_names_channel_and_query(self, tmp_path, capsys):
        code = self._rerank_one(tmp_path, [{"start_sec": 0.0, "end_sec": 1.0, "score": 0.5},
                                           {"start_sec": 1.0, "end_sec": 2.0, "score": 0.4}],
                                scores=[0.1])
        err = capsys.readouterr().err
        assert code == 1
        assert "'chan'" in err and "'q7'" in err and "1 scores for 2 proposals" in err

    def test_channel_without_query_names_channel_and_query(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"query_id": "q8", "video_id": "v", "proposals": []}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"query_id": "q7", "channel": "c", "scores": []}) + "\n")
        code = run(["rerank", "--preds", str(preds), "--channel", str(channel),
                    "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert "'chan'" in err and "'q8'" in err

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
    @pytest.mark.parametrize("command, flag", [
        ("eval", "--preds"), ("eval", "--annotations"), ("rerank", "--preds"),
        ("rerank", "--channel"), ("predict", "--ckpt"), ("train", "--config"),
        ("train", "--data")])
    def test_missing_input_file_names_path(self, pipeline, tmp_path, capsys, command, flag):
        out = str(tmp_path / "o")
        given = {
            "eval": {"--preds": pipeline["preds"],
                     "--annotations": pipeline["data"] / "annotations.json"},
            "rerank": {"--preds": pipeline["preds"], "--channel": pipeline["preds"],
                       "--out": out},
            "predict": {"--ckpt": pipeline["out"] / "checkpoint_best.nlqc",
                        "--data": pipeline["data"], "--out": out},
            "train": {"--config": pipeline["cfg"], "--data": pipeline["data"], "--out": out},
        }[command]
        nope = tmp_path / "nope"
        argv = [command] + [str(x) for f, v in given.items() for x in (f, nope if f == flag else v)]
        assert run(argv) == 1
        assert str(nope) in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_existing_file_as_out_names_it(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_bytes(b"kept")
        argv = GEN if command == "gen-data" else [
            "train", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"])]
        assert run(argv + ["--out", str(out)]) == 1
        assert f"error: File exists: {out}" in capsys.readouterr().err
        assert out.read_bytes() == b"kept"

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["eval", "--preds", "x", "--annotations", "y", "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [
        ("rerank", "--preds"), ("rerank", "--channel"), ("eval", "--preds")])
    def test_non_utf8_input_names_path(self, pipeline, tmp_path, capsys, command, flag):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": []}) + "\n")
        channel = tmp_path / "chan.jsonl"
        channel.write_text(json.dumps({"query_id": "q7", "channel": "c", "scores": []}) + "\n")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"query_id": "q7"}\n\xff\n')
        out = tmp_path / "o.jsonl"
        given = {
            "rerank": {"--preds": preds, "--channel": channel, "--out": out},
            "eval": {"--preds": preds, "--annotations": pipeline["data"] / "annotations.json"},
        }[command]
        argv = [command] + [str(x) for f, v in given.items() for x in (f, bad if f == flag else v)]
        assert run(argv) == 1
        assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedCalls:
    """`run` may be called many times in one process: only the parser, built
    once, is shared between calls."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_channel_list_does_not_leak_between_calls(self, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"query_id": "q7", "video_id": "v", "proposals": [
            {"start_sec": 0.0, "end_sec": 1.0, "score": 0.5},
            {"start_sec": 1.0, "end_sec": 2.0, "score": 0.4}]}) + "\n")
        specs = []
        for name, scores in (("a", [0.0, 0.3]), ("b", [0.9, 0.0])):
            path = tmp_path / f"{name}.jsonl"
            path.write_text(json.dumps({"query_id": "q7", "channel": name, "scores": scores}) + "\n")
            specs.append(str(path))

        def rerank(out, *channels):
            argv = ["rerank", "--preds", str(preds), "--out", str(tmp_path / out)]
            for spec in channels:
                argv += ["--channel", spec]
            assert run(argv) == 0
            return (tmp_path / out).read_bytes()

        build_parser.cache_clear()
        alone = rerank("alone.jsonl", specs[0])
        both = rerank("both.jsonl", specs[0], specs[1])
        assert both != alone
        assert rerank("again.jsonl", specs[0]) == alone

    def test_usage_error_and_help_between_calls_change_nothing(self, pipeline, capsys):
        argv = ["eval", "--preds", str(pipeline["preds"]),
                "--annotations", str(pipeline["data"] / "annotations.json"), "--ranks", "1,3"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv[:5] + ["--format", "xml"]) == 1
        assert run(["eval", "--help"]) == 0
        assert "--annotations" in capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
