"""The benchmark's own tests: its oracles catch planted faults, self-time
arithmetic is right, traced runs repeat their counts exactly, and
BENCHMARK.json matches the code.

Run from the repository root:  python -m pytest -q nlqbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import layer_metrics  # noqa: E402
import oracles  # noqa: E402
import record  # noqa: E402
from hostspeed import REF_S, HostSpeed  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Tally, Took, Workload  # noqa: E402


# -- oracles ------------------------------------------------------------------

ANNOTATIONS = {
    "q0": {"video_id": "v0", "duration": 100.0, "start": 10.0, "end": 20.0},
    "q1": {"video_id": "v1", "duration": 100.0, "start": 50.0, "end": 60.0},
}
PREDICTIONS = [
    {"query_id": "q0", "video_id": "v0", "proposals": [
        {"start_sec": 10.0, "end_sec": 20.0, "score": 0.9},
        {"start_sec": 30.0, "end_sec": 40.0, "score": 0.5},
        {"start_sec": 0.0, "end_sec": 5.0, "score": 0.1}]},
    {"query_id": "q1", "video_id": "v1", "proposals": [
        {"start_sec": 70.0, "end_sec": 80.0, "score": 0.8},
        {"start_sec": 52.0, "end_sec": 61.0, "score": 0.7},
        {"start_sec": 20.0, "end_sec": 30.0, "score": 0.2}]},
]


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_predict_oracle_accepts_valid_output(tmp_path):
    preds = write_jsonl(tmp_path / "p.jsonl", PREDICTIONS)
    assert oracles.check_predict(preds, ANNOTATIONS, topk=3, nms_iou=0.5) == []


def test_predict_oracle_catches_overlap_above_nms_threshold(tmp_path):
    bad = copy.deepcopy(PREDICTIONS)
    bad[1]["proposals"][2] = {"start_sec": 71.0, "end_sec": 80.0, "score": 0.2}  # IoU 0.9 with rank 0
    failures = oracles.check_predict(write_jsonl(tmp_path / "p.jsonl", bad), ANNOTATIONS, 3, 0.5)
    assert len(failures) == 1 and "q1" in failures[0] and "NMS" in failures[0]


@pytest.mark.parametrize("fault", ["scores", "range", "count", "missing"])
def test_predict_oracle_catches_other_faults(tmp_path, fault):
    bad = copy.deepcopy(PREDICTIONS)
    if fault == "scores":
        bad[0]["proposals"][2]["score"] = 0.95
    elif fault == "range":
        bad[0]["proposals"][1]["end_sec"] = 101.0
    elif fault == "count":
        bad[0]["proposals"].pop()
    else:
        bad.pop()
    failures = oracles.check_predict(write_jsonl(tmp_path / "p.jsonl", bad), ANNOTATIONS, 3, 0.5)
    assert len(failures) == 1


def rerank_fixture(tmp_path):
    preds = write_jsonl(tmp_path / "p.jsonl", PREDICTIONS)
    ch_a = write_jsonl(tmp_path / "a.jsonl", [
        {"query_id": "q0", "channel": "a", "scores": [0.0, 1.0, 0.0]},
        {"query_id": "q1", "channel": "a", "scores": [0.0, 0.3, 0.9]}])
    ch_b = write_jsonl(tmp_path / "b.jsonl", [
        {"query_id": "q0", "channel": "b", "scores": [0.2, 0.2, 0.2]},
        {"query_id": "q1", "channel": "b", "scores": [0.5, 0.0, 0.0]}])
    specs = [(str(ch_a), 1.0), (str(ch_b), 0.5)]
    channels = [({r["query_id"]: r["scores"] for r in oracles.read_jsonl(p)}, w) for p, w in specs]
    out = []
    for rec in PREDICTIONS:
        fused = oracles.fused_scores(rec, channels)
        order = sorted(range(len(fused)), key=lambda i: -fused[i])
        out.append({"query_id": rec["query_id"], "video_id": rec["video_id"], "proposals": [
            dict(rec["proposals"][i], score=fused[i]) for i in order]})
    return preds, specs, out


def test_rerank_oracle_accepts_recomputed_order(tmp_path):
    preds, specs, out = rerank_fixture(tmp_path)
    assert out[0]["proposals"][0]["start_sec"] == 30.0  # the channel changed the order
    assert oracles.check_rerank(preds, specs, write_jsonl(tmp_path / "o.jsonl", out)) == []


def test_rerank_oracle_catches_swapped_ranks(tmp_path):
    preds, specs, out = rerank_fixture(tmp_path)
    props = out[1]["proposals"]
    props[0], props[1] = props[1], props[0]
    failures = oracles.check_rerank(preds, specs, write_jsonl(tmp_path / "o.jsonl", out))
    assert len(failures) == 1 and "q1" in failures[0]


def test_rerank_oracle_catches_wrong_fused_score(tmp_path):
    preds, specs, out = rerank_fixture(tmp_path)
    out[0]["proposals"][0]["score"] += 1e-3
    assert len(oracles.check_rerank(preds, specs, write_jsonl(tmp_path / "o.jsonl", out))) == 1


def eval_report(recalls: dict) -> str:
    return json.dumps({"cells": recalls, "total_queries": 2})


def test_eval_oracle_accepts_recount_and_catches_wrong_recall(tmp_path):
    preds = write_jsonl(tmp_path / "p.jsonl", PREDICTIONS)
    # q0 hits at rank 1 (IoU 1); q1's rank-2 span has IoU 8/11 ~ 0.727
    right = {"R@1,IoU=0.3": 0.5, "R@1,IoU=0.5": 0.5, "R@5,IoU=0.3": 1.0, "R@5,IoU=0.5": 1.0}
    assert oracles.check_eval(eval_report(right), preds, ANNOTATIONS, (1, 5), (0.3, 0.5)) == []
    wrong = dict(right, **{"R@5,IoU=0.5": 0.5})
    failures = oracles.check_eval(eval_report(wrong), preds, ANNOTATIONS, (1, 5), (0.3, 0.5))
    assert len(failures) == 1 and "R@5,IoU=0.5" in failures[0]


def test_recount_treats_iou_equal_to_threshold_as_a_miss(tmp_path):
    ann = {"q": {"video_id": "v", "duration": 10.0, "start": 1.0, "end": 2.0}}
    preds = write_jsonl(tmp_path / "p.jsonl", [{"query_id": "q", "proposals": [
        {"start_sec": 0.0, "end_sec": 2.0, "score": 1.0}]}])  # IoU exactly 0.5
    cells = oracles.recount(preds, ann, (1,), (0.3, 0.5))["cells"]
    assert cells == {"R@1,IoU=0.3": 1.0, "R@1,IoU=0.5": 0.0}


def write_checkpoint(path: Path, rows: int, payload_floats: int) -> None:
    header = json.dumps({"manifest": [{"name": "w", "rows": rows, "cols": 1, "offset": 0}]}).encode()
    path.write_bytes(b"NLQC" + (1).to_bytes(4, "little") + len(header).to_bytes(8, "little")
                     + header + bytes(4 * payload_floats))


def test_train_oracle_requires_falling_loss(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    write_checkpoint(run / "checkpoint_best.nlqc", rows=3, payload_floats=3)
    write_jsonl(run / "steps.jsonl", [{"step": 1, "epoch": 1, "loss": 0.5},
                                      {"step": 2, "epoch": 2, "loss": 0.4}])
    assert oracles.check_train(run, expected_steps=2) == []
    write_jsonl(run / "steps.jsonl", [{"step": 1, "epoch": 1, "loss": 0.5},
                                      {"step": 2, "epoch": 2, "loss": 0.6}])
    failures = oracles.check_train(run, expected_steps=2)
    assert len(failures) == 1 and "not below" in failures[0]


def test_checkpoint_oracle_catches_truncated_payload(tmp_path):
    write_checkpoint(tmp_path / "c.nlqc", rows=3, payload_floats=2)
    assert "truncated" in oracles.check_checkpoint(tmp_path / "c.nlqc")[0]


# -- self time ----------------------------------------------------------------

def make_span(name, start, end, parent):
    s = Span(name, start, parent, None)
    s.end = end
    return s


def test_self_time_on_hand_built_tree():
    spans = [
        make_span("root", 0.0, 10.0, -1),   # children cover [1,4] and [5,9]
        make_span("a", 1.0, 4.0, 0),         # child covers [2,3]
        make_span("a.x", 2.0, 3.0, 1),
        make_span("b", 5.0, 9.0, 0),         # children overlap: [5,7] u [6,8] = [5,8]
        make_span("b.x", 5.0, 7.0, 3),
        make_span("b.y", 6.0, 8.0, 3),
        make_span("leaf", 9.5, 10.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 1.0, 1.0, 2.0, 2.0, 0.5])


def test_tracer_wraps_every_binding_and_restores_them():
    import nlqground.inference as inference
    import nlqground.trainer as trainer

    original = inference.decode_index_spans
    assert trainer.decode_index_spans is original
    tracer = Tracer()
    tracer.install()
    try:
        assert inference.decode_index_spans is not original
        assert trainer.decode_index_spans is inference.decode_index_spans
        assert "inference.decode_index_spans" in tracer.wrapped
    finally:
        tracer.uninstall()
    assert inference.decode_index_spans is original and trainer.decode_index_spans is original


def test_missing_functions_are_reported_absent():
    tracer = Tracer()  # nothing installed: every source function is missing
    ctx = {"model": WORKLOADS["train-t128"].model_shape()}
    metrics, absent = layer_metrics.derive(tracer, ctx)
    assert set(metrics) == {name for name, _ in layer_metrics.CATALOG}
    assert "inference.nms.ms_per_query" in absent and "nn.backward.ms_p50" in absent
    assert metrics["inference.nms.ms_per_query"]["value"] == 0.0


# -- traced runs repeat ------------------------------------------------------

TINY = Workload(name="tiny", why="test", video_seconds=48, train_videos=4, val_videos=4,
                num_frames=24, scales=(0.1, 0.3), epochs=2, warmup_steps=5,
                setup_reps=1, cycles=2, passes=2)


def traced_counts(tmp_path, tag):
    from nlqground.cli import run as cli_run

    root = tmp_path / tag
    root.mkdir()
    result, rec = record.run(TINY, 3, 1.0, True, root, ROOT / "src", cli_run)
    assert result["correct"], rec["failures"]
    assert rec["absent"] == []
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = traced_counts(tmp_path, "a")
    second = traced_counts(tmp_path, "b")
    assert first == second
    assert first["trainer.steps"] == TINY.train_steps
    assert first["inference.nms.calls"] == first["inference.queries"] == TINY.val_queries * TINY.cycles
    assert first["inference.rerank.calls"] == TINY.val_queries * TINY.cycles * TINY.passes
    assert first["core.iou.calls_per_query.predict"] > 0


def test_rerank_that_leaves_its_output_unwritten_fails(tmp_path):
    """A rerank that exits 0 without writing must not pass on the file an
    earlier pass left behind."""
    from nlqground.cli import run as cli_run

    reranks = []

    def lazy_rerank(argv):
        if argv[0] == "rerank":
            reranks.append(argv)
            if len(reranks) > 1:
                return 0
        return cli_run(argv)

    result, rec = record.run(TINY, 3, 0.0, False, tmp_path, ROOT / "src", lazy_rerank)
    assert len(reranks) == TINY.cycles * TINY.passes
    assert result["failed"] == TINY.val_queries * (len(reranks) - 1), rec["failures"]
    assert all("rerank" in m for m in rec["failures"])


# -- host speed ---------------------------------------------------------------

def test_host_speed_scales_a_call_by_the_samples_around_it():
    host = HostSpeed()
    host.times = [0.0, 1.0, 2.0, 3.0]
    host.loops = [REF_S, 2 * REF_S, 2 * REF_S, 4 * REF_S]
    assert host.scale(2.0, 2.5) == 0.5  # samples at 1.0 and 2.0
    assert host.scale(5.0, 6.0) == 0.25  # none in the window: the last one


def test_rates_pool_scaled_or_unscaled_seconds():
    tally = Tally()
    tally.sample("m", 10, Took(seconds=1.0, scaled=0.5))
    tally.sample("m", 30, Took(seconds=3.0, scaled=1.5))
    assert tally.rate("m") == 20.0
    assert tally.rate("m", scaled=False) == 10.0


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == record.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer_metrics.CATALOG
