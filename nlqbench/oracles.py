"""Output checks for every CLI phase, written against the documented file
formats only (no nlqground imports), so a refactor of the program's
internals cannot change what the benchmark accepts.

Each check returns a list of failure messages; one message per failed
operation (a train run, a predicted query, a reranked query, an eval run).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

# Slack for float comparisons between the program's arithmetic and the
# oracle's; far below any difference a real fault produces.
TOL = 1e-9


def span_iou(a0: float, a1: float, b0: float, b1: float) -> float:
    """IoU of two closed intervals; 0 when the union has zero length."""
    inter = min(a1, b1) - max(a0, b0)
    if inter <= 0.0:
        return 0.0
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union if union > 0.0 else 0.0


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_annotations(path) -> dict[str, dict]:
    """query_id -> {"video_id", "duration", "start", "end"}, in file order."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    out = {}
    for video in doc["videos"]:
        for q in video["queries"]:
            out[q["query_id"]] = {
                "video_id": video["video_id"], "duration": float(video["duration_sec"]),
                "start": float(q["start_sec"]), "end": float(q["end_sec"]),
            }
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def check_checkpoint(path) -> list[str]:
    """The README checkpoint layout: magic NLQC, u32 version, u64 header
    length, JSON header, then float32 payloads covering the manifest."""
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        return [f"checkpoint unreadable: {e}"]
    if blob[:4] != b"NLQC" or len(blob) < 16:
        return [f"{path}: not an NLQC checkpoint"]
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    try:
        header = json.loads(blob[16:16 + header_len])
    except ValueError as e:
        return [f"{path}: bad JSON header: {e}"]
    payload = len(blob) - 16 - header_len
    try:
        for entry in header["manifest"]:
            if entry["offset"] + entry["rows"] * entry["cols"] * 4 > payload:
                return [f"{path}: payload truncated at {entry['name']!r}"]
    except (KeyError, TypeError) as e:
        return [f"{path}: malformed manifest: {e!r}"]
    return []


def check_train(run_dir, expected_steps: int) -> list[str]:
    """Step count, finite losses, last-epoch mean loss below the first, and
    a best checkpoint that parses.  At most one message: one train run."""
    run_dir = Path(run_dir)
    try:
        steps = read_jsonl(run_dir / "steps.jsonl")
    except (OSError, ValueError) as e:
        return [f"train: steps.jsonl unreadable: {e}"]
    problems = []
    if len(steps) != expected_steps:
        problems.append(f"{len(steps)} steps logged, expected {expected_steps}")
    losses = [s.get("loss") for s in steps]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in losses):
        problems.append("missing or non-finite loss in steps.jsonl")
    elif not all("epoch" in s for s in steps):
        problems.append("steps.jsonl lines lack an epoch")
    elif steps:
        by_epoch: dict[int, list[float]] = {}
        for s in steps:
            by_epoch.setdefault(s["epoch"], []).append(s["loss"])
        first, last = min(by_epoch), max(by_epoch)
        mean = {e: sum(v) / len(v) for e, v in by_epoch.items()}
        if not mean[last] < mean[first]:
            problems.append(f"last-epoch mean loss {mean[last]:.5f} not below first {mean[first]:.5f}")
    problems += check_checkpoint(run_dir / "checkpoint_best.nlqc")
    return ["train: " + "; ".join(problems)] if problems else []


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def check_prediction_record(rec: dict, ann: dict, topk: int, nms_iou: float) -> str | None:
    props = rec.get("proposals")
    if not isinstance(props, list) or len(props) != topk:
        return f"{len(props) if isinstance(props, list) else 'no'} proposals, expected {topk}"
    spans = []
    for p in props:
        s, e = float(p["start_sec"]), float(p["end_sec"])
        if not (0.0 <= s <= e <= ann["duration"]):
            return f"span [{s}, {e}] outside [0, {ann['duration']}]"
        spans.append((s, e))
    scores = [float(p["score"]) for p in props]
    if any(b > a for a, b in zip(scores, scores[1:])):
        return "scores increase down the ranking"
    if nms_iou > 0:
        for i in range(len(spans)):
            for j in range(i):
                if span_iou(*spans[i], *spans[j]) > nms_iou + TOL:
                    return f"ranks {j} and {i} overlap above the NMS threshold {nms_iou}"
    if rec.get("video_id", ann["video_id"]) != ann["video_id"]:
        return f"video_id {rec['video_id']!r} != annotated {ann['video_id']!r}"
    return None


def check_predict(preds_path, annotations: dict[str, dict], topk: int, nms_iou: float) -> list[str]:
    """One record per annotated query, each with `topk` ranked, in-range,
    NMS-separated proposals.  One message per failed query."""
    try:
        records = read_jsonl(preds_path)
    except (OSError, ValueError) as e:
        return [f"predict: unreadable output: {e}"] * max(1, len(annotations))
    seen: dict[str, dict] = {}
    failures = []
    for rec in records:
        qid = rec.get("query_id")
        if qid not in annotations or qid in seen:
            failures.append(f"predict: unexpected or duplicate record {qid!r}")
            continue
        seen[qid] = rec
        problem = check_prediction_record(rec, annotations[qid], topk, nms_iou)
        if problem:
            failures.append(f"predict {qid}: {problem}")
    failures += [f"predict {qid}: missing" for qid in annotations if qid not in seen]
    return failures


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------


def fused_scores(rec: dict, channels: list[tuple[dict[str, list[float]], float]]) -> list[float]:
    """confidence + sum_c weight_c * score_c, added in channel order."""
    out = []
    for i, p in enumerate(rec["proposals"]):
        total = float(p["score"])
        for scores, weight in channels:
            total += weight * float(scores[rec["query_id"]][i])
        out.append(total)
    return out


def check_rerank(preds_path, channel_specs: list[tuple[str, float]], out_path) -> list[str]:
    """The output order and scores equal an independent recomputation of the
    fused score, stably sorted.  One message per failed query."""
    source = read_jsonl(preds_path)
    channels = [({r["query_id"]: r["scores"] for r in read_jsonl(path)}, weight)
                for path, weight in channel_specs]
    try:
        output = read_jsonl(out_path)
    except (OSError, ValueError) as e:
        return [f"rerank: unreadable output: {e}"] * max(1, len(source))
    if len(output) != len(source):
        return [f"rerank: {len(output)} records for {len(source)} queries"] * max(1, len(source))
    failures = []
    for rec, got in zip(source, output):
        qid = rec["query_id"]
        fused = fused_scores(rec, channels)
        order = sorted(range(len(fused)), key=lambda i: -fused[i])
        props = got.get("proposals", [])
        if got.get("query_id") != qid or len(props) != len(order):
            failures.append(f"rerank {qid}: record mismatch")
            continue
        spans = [(p["start_sec"], p["end_sec"]) for p in rec["proposals"]]
        for rank, (i, p) in enumerate(zip(order, props)):
            tol = TOL * max(1.0, abs(fused[i]))
            got_span = (p["start_sec"], p["end_sec"])
            # proposals tied on the fused score may come out in either order
            tied = any(spans[k] == got_span and abs(fused[k] - fused[i]) <= tol
                       for k in range(len(spans)))
            if abs(float(p["score"]) - fused[i]) > tol or not tied:
                failures.append(f"rerank {qid}: rank {rank} differs from the recomputed order")
                break
        else:
            if sorted(spans) != sorted((p["start_sec"], p["end_sec"]) for p in props):
                failures.append(f"rerank {qid}: proposals are not a permutation of the input")
    return failures


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def recount(preds_path, annotations: dict[str, dict], ranks, ious) -> dict:
    """Brute-force R@n/IoU@m: a query hits (n, m) when one of its first n
    proposals has IoU strictly above m; missing queries miss."""
    by_query = {r["query_id"]: [(float(p["start_sec"]), float(p["end_sec"])) for p in r["proposals"]]
                for r in read_jsonl(preds_path)}
    cells = {}
    for n in ranks:
        for m in ious:
            hits = 0
            for qid, ann in annotations.items():
                spans = by_query.get(qid, [])[:n]
                if any(span_iou(s, e, ann["start"], ann["end"]) > m for s, e in spans):
                    hits += 1
            cells[f"R@{n},IoU={m:g}"] = hits / len(annotations)
    return {"cells": cells, "total_queries": len(annotations)}


def check_eval(stdout: str, preds_path, annotations: dict[str, dict], ranks, ious) -> list[str]:
    """The printed JSON report equals the recount.  One eval run."""
    try:
        report = json.loads(stdout)
    except ValueError as e:
        return [f"eval: output is not JSON: {e}"]
    want = recount(preds_path, annotations, ranks, ious)
    if report.get("total_queries") != want["total_queries"]:
        return [f"eval: total_queries {report.get('total_queries')} != {want['total_queries']}"]
    got = report.get("cells", {})
    for name, value in want["cells"].items():
        if name not in got or abs(float(got[name]) - value) > TOL:
            return [f"eval: {name} = {got.get(name)}, recount gives {value}"]
    return []
