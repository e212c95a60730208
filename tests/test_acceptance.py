"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The end-to-end learning check (criterion 6) trains a real model and takes a
few minutes; everything else is fast.
"""

import json
import time

import numpy as np
import pytest

from nlqground.anchors import AnchorConfig, build_lattice
from nlqground.cli import run as cli_run
from nlqground.core import iou_batch
from nlqground.data import (
    QueryAnnotation,
    SyntheticSpec,
    generate_synthetic,
    read_annotations,
    read_features,
    split_dataset,
    write_annotations,
    write_features,
)
from nlqground.evaluation import evaluate
from nlqground.inference import InferenceOptions, predict_dataset, rerank
from nlqground.losses import alignment_loss, boundary_loss
from nlqground.nn import EncoderConfig, init_model, load_checkpoint, save_checkpoint
from nlqground.trainer import TrainConfig, batch_loss_and_grads, train
from helpers import gradcheck, scalar_iou, tiny_training_batch, training_loss_fn


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 6/7 configuration (shared fixture trains once) ---------------

E2E_DATA = SyntheticSpec(
    num_videos=250,  # split 200 train / 50 val below
    frames_per_video=256,
    feature_dim=32,
    text_dim=16,
    tokens_per_query=16,
    queries_per_video=3,
    span_fraction_range=(0.03, 0.08),
    noise_sigma=0.5,
    seed=42,
)
E2E_ENCODER = EncoderConfig(
    hidden_dim=64, num_heads=4, intra_layers=1, cross_layers=2,
    video_input_dim=32, text_input_dim=16, dropout_rate=0.1,
    anchors=AnchorConfig(scales=(0.02, 0.06), num_frames=128),
)
E2E_TRAIN = TrainConfig(
    epochs=35, batch_size=8, base_lr=2e-3, warmup_steps=300,
    mu=10.0, seed=42,
)


def test_criterion_1_iou_oracle():
    rng = np.random.default_rng(123)
    t0 = time.time()
    a = np.sort(rng.uniform(0, 500, (10_000, 2)), axis=1)
    b = np.sort(rng.uniform(0, 500, (10_000, 2)), axis=1)
    got = iou_batch(a, b)
    worst = 0.0
    for g, (a0, a1), (b0, b1) in zip(got.tolist(), a.tolist(), b.tolist()):
        # independent direct-arithmetic oracle
        inter = max(0.0, min(a1, b1) - max(a0, b0))
        union = (a1 - a0) + (b1 - b0) - inter
        want = inter / union if union > 0 else 0.0
        worst = max(worst, abs(g - want))
    elapsed = time.time() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"10,000 span pairs, max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_anchor_lattice():
    t0 = time.time()
    spans = build_lattice(AnchorConfig(scales=(0.01, 0.03), num_frames=600))
    widths = spans[:, 1] - spans[:, 0]
    unclipped = (spans[:, 0] > 0) & (spans[:, 1] < 600)
    expected = np.tile([6.0, 18.0], 600)
    ok = (
        spans.shape == (1200, 2)
        and bool((spans >= 0).all() and (spans <= 600).all())
        and bool((widths[unclipped] == expected[unclipped]).all())
    )
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0,
           f"1200 anchors in [0,600], widths 6/18 exact, {elapsed:.3f}s")


def test_criterion_3_loss_hand_values():
    align = alignment_loss(np.array([[1.0, 0.0]]), np.array([[1.0 - 1e-7, 0.5]]))[0][0]
    box = boundary_loss(np.array([[[20.0, 50.0]]]), np.array([[25.0, 45.0]]),
                        np.array([[True]]), beta=1.0, norm=100.0)[0][0]
    # the trainer's composition: loss = align + mu * box over batch means
    enc = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=1,
                        video_input_dim=5, text_input_dim=3, dropout_rate=0.0,
                        anchors=AnchorConfig(scales=(0.25, 0.75), num_frames=8))
    record, _ = batch_loss_and_grads(init_model(enc, seed=0), tiny_training_batch(T=8, L=4),
                                     TrainConfig(mu=1.0, seed=0))
    ok = (
        abs(align - 0.346574) < 1e-6
        and abs(box - 0.0025) < 1e-9
        and record["loss"] == record["align"] + 1.0 * record["box"]
    )
    report(3, ok, f"align {align:.6f}, box {box:.7f}, total exact composition")


def test_criterion_4_gradient_check():
    t0 = time.time()
    enc = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=2,
                        video_input_dim=5, text_input_dim=3, dropout_rate=0.0,
                        anchors=AnchorConfig(scales=(0.25, 0.75), num_frames=8))
    model = init_model(enc, seed=42, dtype=np.float64)
    loss_fn = training_loss_fn(tiny_training_batch(T=8, L=4), TrainConfig(seed=0))
    result = gradcheck(loss_fn, model, step=1e-5, tolerance=1e-4, num_samples=200, seed=0)
    elapsed = time.time() - t0
    report(4, result.max_rel_error < 1e-4 and elapsed < 120.0,
           f"{result.num_checked} params, max rel err {result.max_rel_error:.2e} "
           f"(worst {result.worst_parameter}), {elapsed:.1f}s")


def test_criterion_5_metric_oracle():
    rng = np.random.default_rng(50)
    ranks, ths = (1, 5), (0.3, 0.5)
    mismatches = 0
    monotone = True
    for _ in range(500):
        n_queries = int(rng.integers(1, 10))
        anns, records = [], []
        for q in range(n_queries):
            s = rng.uniform(0, 80)
            anns.append(QueryAnnotation("v", f"q{q}", "", s, s + rng.uniform(0.5, 15)))
            spans = []
            for _ in range(int(rng.integers(0, 7))):
                a = rng.uniform(0, 90)
                spans.append((a, a + rng.uniform(0.5, 12)))
            records.append((f"q{q}", "v", np.array(spans).reshape(-1, 2), np.zeros(len(spans))))
        got = evaluate(records, anns, ranks=ranks, thresholds=ths)
        by_qid = {qid: spans.tolist() for qid, _, spans, _ in records}
        for n in ranks:
            for m in ths:
                hits = 0
                for a in anns:
                    gt = (a.start_sec, a.end_sec)
                    hits += any(scalar_iou(span, gt) > m for span in by_qid[a.query_id][:n])
                if got.recalls[(n, m)] != hits / len(anns):
                    mismatches += 1
        monotone &= got.recalls[(5, 0.3)] >= got.recalls[(1, 0.3)]
        monotone &= got.recalls[(5, 0.5)] >= got.recalls[(1, 0.5)]
        monotone &= got.recalls[(1, 0.3)] >= got.recalls[(1, 0.5)]
        monotone &= got.recalls[(5, 0.3)] >= got.recalls[(5, 0.5)]
    report(5, mismatches == 0 and monotone,
           f"500 random instances, {mismatches} mismatches, monotonicity holds")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Train the criterion-6 model once; criteria 6 and 7 both read it."""
    out = tmp_path_factory.mktemp("e2e")
    t0 = time.time()
    dataset = generate_synthetic(E2E_DATA)
    train_ds, val_ds = split_dataset(dataset, 200)
    result = train(train_ds, val_ds, E2E_ENCODER, E2E_TRAIN, out)
    elapsed = time.time() - t0
    model = load_checkpoint(result.best_checkpoint)
    records = predict_dataset(model, val_ds, InferenceOptions(top_k=5, nms_iou=0.5))
    return {"val": val_ds, "records": records, "elapsed": elapsed, "result": result}


@pytest.mark.slow
def test_criterion_6_end_to_end_learning(e2e):
    rep = evaluate(e2e["records"], e2e["val"].annotations)
    r1 = rep.recalls[(1, 0.5)]
    r5 = rep.recalls[(5, 0.5)]
    ok = r1 >= 0.60 and r5 >= 0.90 and e2e["elapsed"] < 900.0
    report(6, ok, f"val R@1 IoU0.5 = {r1:.3f} (>= 0.60), R@5 IoU0.5 = {r5:.3f} "
                  f"(>= 0.90), trained in {e2e['elapsed']:.0f}s (< 900s)")


@pytest.mark.slow
def test_criterion_7_rerank_with_iou_channel(e2e):
    baseline = evaluate(e2e["records"], e2e["val"].annotations)
    gt_by_query = {a.query_id: (a.start_sec, a.end_sec) for a in e2e["val"].annotations}
    reranked_records = []
    for qid, vid, spans, scores in e2e["records"]:
        true_iou = iou_batch(spans, gt_by_query[qid])
        order, fused = rerank(scores, [(true_iou, 1.0)])
        reranked_records.append((qid, vid, spans[order], fused))
    fused = evaluate(reranked_records, e2e["val"].annotations)
    ok = (fused.recalls[(1, 0.3)] >= baseline.recalls[(1, 0.3)]
          and fused.recalls[(1, 0.5)] >= baseline.recalls[(1, 0.5)])
    report(7, ok,
           f"reranked R@1: IoU0.3 {fused.recalls[(1, 0.3)]:.3f} >= {baseline.recalls[(1, 0.3)]:.3f}, "
           f"IoU0.5 {fused.recalls[(1, 0.5)]:.3f} >= {baseline.recalls[(1, 0.5)]:.3f}")


def test_criterion_8_train_determinism(tmp_path):
    data_dir = tmp_path / "data"
    code = cli_run(["gen-data", "--out", str(data_dir), "--num-videos", "4",
                    "--frames", "48", "--dim", "8", "--text-dim", "4", "--tokens", "3",
                    "--span-min", "0.1", "--span-max", "0.25", "--noise", "0.3",
                    "--seed", "11"])
    assert code == 0
    cfg = {
        "encoder": {"hidden_dim": 16, "num_heads": 2, "cross_layers": 2, "dropout_rate": 0.1},
        "train": {"epochs": 6, "batch_size": 2, "base_lr": 1e-3, "warmup_steps": 10, "seed": 5},
        "anchors": {"scales": [0.1, 0.3], "num_frames": 24},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for sub in ("a", "b"):
        code = cli_run(["train", "--config", str(cfg_path), "--data", str(data_dir),
                        "--out", str(tmp_path / sub)])
        assert code == 0
    steps_a = (tmp_path / "a" / "steps.jsonl").read_text().splitlines()
    steps_b = (tmp_path / "b" / "steps.jsonl").read_text().splitlines()
    ckpt_a = (tmp_path / "a" / "checkpoint_last.nlqc").read_bytes()
    ckpt_b = (tmp_path / "b" / "checkpoint_last.nlqc").read_bytes()
    ok = (len(steps_a) >= 10 and steps_a[:10] == steps_b[:10] and ckpt_a == ckpt_b)
    report(8, ok, "two identical train runs: first-10-step logs and final "
                  "checkpoints are bitwise identical")


def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(77)
    mats = {f"m{i}": rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 24))))
            .astype(np.float32) for i in range(5)}
    write_features(tmp_path / "feat.nlqc", mats)
    feats_ok = all(np.array_equal(read_features(tmp_path / "feat.nlqc")[k], mats[k]) for k in mats)

    enc = EncoderConfig(hidden_dim=8, num_heads=2, intra_layers=1, cross_layers=2,
                        video_input_dim=5, text_input_dim=3)
    model = init_model(enc, seed=3)
    save_checkpoint(model, tmp_path / "m.nlqc")
    loaded = load_checkpoint(tmp_path / "m.nlqc")
    ckpt_ok = all(np.array_equal(loaded.params[k], model.params[k]) for k in model.params)

    videos = [{"video_id": "v1", "duration_sec": 120.5,
               "queries": [{"query_id": "q1", "text": "where is it",
                            "start_sec": 3.25, "end_sec": 9.75}]}]
    write_annotations(tmp_path / "a.json", videos)
    anns, durations = read_annotations(tmp_path / "a.json")
    ann_ok = (anns == [QueryAnnotation("v1", "q1", "where is it", 3.25, 9.75)]
              and durations == {"v1": 120.5})
    report(9, feats_ok and ckpt_ok and ann_ok,
           "feature container bitwise, checkpoint bitwise, annotations field-exact")
