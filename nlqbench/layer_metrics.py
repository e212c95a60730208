"""Per-layer metrics derived from one traced run.

Every metric is listed in `CATALOG` with its unit; `BENCHMARK.json` lists
the same names.  A metric whose source function no longer exists is
reported as 0 and named in the `absent` list; a function that exists but
the workload never calls also reads 0 and is not absent.
"""

from __future__ import annotations

import math

from tracer import self_times

# forward / backward block kinds and the span names behind them
FWD_BLOCKS = {
    "nn.layers.mha_forward": "mha", "nn.layers.masked_softmax": "softmax",
    "nn.layers.dropout_forward": "dropout", "nn.layers.gelu_forward": "gelu",
    "nn.layers.layer_norm_forward": "layer_norm", "nn.layers.linear_forward": "linear",
}
BWD_BLOCKS = {
    "nn.layers.mha_backward": "mha", "nn.layers.softmax_backward": "softmax",
    "nn.layers.dropout_backward": "dropout", "nn.layers.gelu_backward": "gelu",
    "nn.layers.layer_norm_backward": "layer_norm", "nn.layers.linear_backward": "linear",
}
# a linear call is attributed by its parent span: attention, FFN, or (when
# called straight from the model) the input projections and heads
LINEAR_PARENTS = {
    "nn.layers.mha_forward": "linear_attn", "nn.layers.mha_backward": "linear_attn",
    "nn.layers.encoder_layer_forward": "linear_ffn", "nn.layers.encoder_layer_backward": "linear_ffn",
}
BLOCK_KINDS = ("mha", "softmax", "dropout", "gelu", "layer_norm",
               "linear_proj", "linear_attn", "linear_ffn", "rest")
PHASES = ("fwd_train", "fwd_eval", "bwd")
FORWARD = "nn.model.GroundingModel.forward_batch"
BACKWARD = "nn.model.GroundingModel.backward"
CLI_COMMANDS = ("gen-data", "train", "predict", "rerank", "eval")


def _catalog():
    c = [
        ("data.load_dataset.ms_p50", "ms"), ("data.load_dataset.ms_p90", "ms"),
        ("data.load_dataset.calls", "count"),
        ("data.batch_wait.train_ms_p50", "ms"), ("data.batch_wait.train_ms_p90", "ms"),
        ("data.batch_wait.train_calls", "count"),
        ("data.batch_wait.predict_ms_p50", "ms"), ("data.batch_wait.predict_ms_p90", "ms"),
        ("data.batch_wait.predict_calls", "count"),
        ("data.sample_frames.calls", "count"),
        ("nn.forward_batch.train_ms_p50", "ms"), ("nn.forward_batch.train_ms_p90", "ms"),
        ("nn.forward_batch.train_calls", "count"),
        ("nn.forward_batch.eval_ms_p50", "ms"), ("nn.forward_batch.eval_ms_p90", "ms"),
        ("nn.forward_batch.eval_calls", "count"),
        ("nn.backward.ms_p50", "ms"), ("nn.backward.ms_p90", "ms"), ("nn.backward.calls", "count"),
    ]
    c += [(f"nn.{phase}.{kind}.self_ms_p50", "ms") for phase in PHASES for kind in BLOCK_KINDS]
    c += [
        ("nn.train_step.gflop", "GFLOP"), ("nn.train_step.gflop_per_s", "GFLOP/s"),
        ("nn.checkpoint.save_ms_p50", "ms"), ("nn.checkpoint.save_calls", "count"),
        ("nn.checkpoint.load_ms_p50", "ms"), ("nn.checkpoint.load_calls", "count"),
        ("anchors.label_anchors.ms_per_step", "ms"), ("anchors.label_anchors.calls_per_step", "count"),
        ("losses.ms_per_step", "ms"), ("losses.calls_per_step", "count"),
        ("trainer.step_ms_p50", "ms"), ("trainer.step_ms_p90", "ms"), ("trainer.steps", "count"),
        ("trainer.adam_step.ms_p50", "ms"), ("trainer.adam_step.ms_p90", "ms"),
        ("trainer.loss_assembly_self_ms_p50", "ms"),
        ("trainer.epoch_overhead_ms_p50", "ms"), ("trainer.epochs", "count"),
        ("trainer.loss_first", "loss"), ("trainer.loss_last", "loss"),
        ("inference.queries", "count"),
    ]
    for stage in ("decode", "nms", "top_k", "rerank"):
        c += [(f"inference.{stage}.ms_per_query", "ms"), (f"inference.{stage}.call_ms_p50", "ms"),
              (f"inference.{stage}.call_ms_p90", "ms"), (f"inference.{stage}.calls", "count")]
    c += [
        ("inference.nms.kept_per_query", "count"), ("inference.nms.useful_ratio", "ratio"),
        ("inference.jsonl_read_ms", "ms"), ("inference.jsonl_write_ms", "ms"),
        ("core.iou.calls_per_query.predict", "count"), ("core.iou.calls_per_query.eval", "count"),
        ("core.TimeSpan.constructions_per_query.predict", "count"),
        ("core.TimeSpan.constructions_per_query.eval", "count"),
        ("evaluation.evaluate.ms_p50", "ms"), ("evaluation.evaluate.calls", "count"),
        ("evaluation.query_hit.calls", "count"),
        ("evaluation.r1_iou0.3", "ratio"), ("evaluation.r1_iou0.5", "ratio"),
        ("evaluation.r5_iou0.3", "ratio"), ("evaluation.r5_iou0.5", "ratio"),
    ]
    c += [(f"cli.{cmd}.self_ms_p50", "ms") for cmd in CLI_COMMANDS]
    c += [("trace.overhead_s", "s"), ("trace.overhead_pct", "%"), ("trace.spans", "count"),
          ("src.lines", "lines")]
    return c


CATALOG = _catalog()


# metric-name prefix -> span/counter names it needs; missing ones make it absent
SOURCES = {
    "data.load_dataset": ["data.load_dataset"],
    "data.batch_wait": ["data.make_batches", "trainer.train", "inference.predict_dataset"],
    "data.sample_frames": ["data.sample_frames"],
    "nn.forward_batch": [FORWARD],
    "nn.backward": [BACKWARD],
    "nn.fwd_": [FORWARD, *FWD_BLOCKS, *LINEAR_PARENTS],
    "nn.bwd": [BACKWARD, *BWD_BLOCKS, *LINEAR_PARENTS],
    "nn.train_step.gflop_per_s": ["data.make_batches", "trainer.train"],
    "nn.checkpoint.save": ["nn.checkpoint.save_checkpoint"],
    "nn.checkpoint.load": ["nn.checkpoint.load_checkpoint"],
    "anchors.label_anchors": ["anchors.label_anchors", "data.make_batches", "trainer.train"],
    "losses.": ["data.make_batches", "trainer.train"],
    "trainer.step_ms": ["data.make_batches", "trainer.train"],
    "trainer.steps": ["data.make_batches", "trainer.train"],
    "trainer.adam_step": ["trainer.adam_step"],
    "trainer.loss_assembly": ["trainer.batch_loss_and_grads"],
    "trainer.epoch": ["data.make_batches", "trainer.train"],
    "inference.decode": ["inference.decode_proposals"],
    "inference.nms": ["inference.nms"],
    "inference.top_k": ["inference.top_k"],
    "inference.rerank": ["inference.rerank"],
    "inference.jsonl_read": ["inference.read_predictions", "inference.read_channel_file"],
    "inference.jsonl_write": ["inference.write_predictions"],
    "core.iou": ["core.iou"],
    "core.TimeSpan": ["core.TimeSpan"],
    "evaluation.evaluate": ["evaluation.evaluate"],
    "evaluation.query_hit": ["evaluation.query_hit"],
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def train_step_gflop(cfg: dict) -> float:
    """Matmul FLOPs of one optimizer step, from shapes: forward per item,
    times 3 for forward plus the two backward products, times the batch."""
    B, T, L = cfg["batch_size"], cfg["num_frames"], cfg["tokens"]
    H, K = cfg["hidden_dim"], cfg["num_scales"]
    F = 4 * H

    def layer(S):
        return 2 * S * H * H * 4 + 2 * S * S * H * 2 + 2 * S * H * F * 2

    fwd = 2 * T * cfg["video_dim"] * H + 2 * L * cfg["text_dim"] * H
    fwd += cfg["intra_layers"] * (layer(T) + layer(L)) + cfg["cross_layers"] * layer(T + L)
    fwd += 2 * T * H * H * 2 + 2 * T * H * K + 2 * T * H * 2 * K
    return 3 * fwd * B / 1e9


def derive(tracer, ctx: dict) -> tuple[dict, list[str]]:
    """(metrics {name: {"value", "unit"}}, absent metric names).

    ctx: queries (predicted while traced), rerank_queries and eval_queries
    (re-ranked and scored, all passes), model (shape dict for
    `train_step_gflop`), loss_first, loss_last, recalls {(n, m): value},
    overhead_s, overhead_pct, src_lines.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    v: dict[str, float] = {}

    def ms(name, where=None):
        return [spans[i].ms for i in by_name.get(name, ()) if where is None or where(spans[i])]

    def put_timing(prefix, values, calls_name=None):
        v[f"{prefix}_p50"] = percentile(values, 0.5)
        v[f"{prefix}_p90"] = percentile(values, 0.9)
        if calls_name:
            v[calls_name] = len(values)

    put_timing("data.load_dataset.ms", ms("data.load_dataset"), "data.load_dataset.calls")
    for kind, parent in (("train", "trainer.train"), ("predict", "inference.predict_dataset")):
        waits = ms("data.make_batches", lambda s, p=parent: s.info["parent"] == p)
        put_timing(f"data.batch_wait.{kind}_ms", waits, f"data.batch_wait.{kind}_calls")
    v["data.sample_frames.calls"] = len(by_name.get("data.sample_frames", ()))

    fwd_train = [i for i in by_name.get(FORWARD, ()) if (spans[i].info or {}).get("train")]
    fwd_eval = [i for i in by_name.get(FORWARD, ()) if not (spans[i].info or {}).get("train")]
    bwd = list(by_name.get(BACKWARD, ()))
    put_timing("nn.forward_batch.train_ms", [spans[i].ms for i in fwd_train],
               "nn.forward_batch.train_calls")
    put_timing("nn.forward_batch.eval_ms", [spans[i].ms for i in fwd_eval],
               "nn.forward_batch.eval_calls")
    put_timing("nn.backward.ms", [spans[i].ms for i in bwd], "nn.backward.calls")

    root = _nearest(spans, lambda name: name in (FORWARD, BACKWARD))
    per_root: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        kind = FWD_BLOCKS.get(s.name) or BWD_BLOCKS.get(s.name)
        if kind is None or root[i] < 0:
            continue
        if kind == "linear":
            kind = LINEAR_PARENTS.get(spans[s.parent].name, "linear_proj")
        acc = per_root.setdefault(root[i], {})
        acc[kind] = acc.get(kind, 0.0) + selfs[i] * 1e3
    for phase, roots in (("fwd_train", fwd_train), ("fwd_eval", fwd_eval), ("bwd", bwd)):
        for kind in BLOCK_KINDS:
            vals = []
            for r in roots:
                acc = per_root.get(r, {})
                vals.append(spans[r].ms - sum(acc.values()) if kind == "rest" else acc.get(kind, 0.0))
            v[f"nn.{phase}.{kind}.self_ms_p50"] = percentile(vals, 0.5)

    # training steps: from one batch request to the next, per epoch generator
    train_waits = [i for i in by_name.get("data.make_batches", ())
                   if spans[i].info["parent"] == "trainer.train"]
    step_ms, epoch_gaps = [], []
    for k, i in enumerate(train_waits):
        s = spans[i]
        if s.info.get("last"):
            nxt = next((j for j in train_waits[k + 1:] if spans[j].parent == s.parent), None)
            boundary = spans[nxt].start if nxt is not None else spans[s.parent].end
            epoch_gaps.append((boundary - s.end) * 1e3)
        else:
            step_ms.append((spans[train_waits[k + 1]].start - s.start) * 1e3)
    steps = len(step_ms)
    put_timing("trainer.step_ms", step_ms, "trainer.steps")
    v["trainer.epoch_overhead_ms_p50"] = percentile(epoch_gaps, 0.5)
    v["trainer.epochs"] = len(epoch_gaps)
    put_timing("trainer.adam_step.ms", ms("trainer.adam_step"))
    v["trainer.loss_assembly_self_ms_p50"] = percentile(
        [selfs[i] * 1e3 for i in by_name.get("trainer.batch_loss_and_grads", ())], 0.5)
    v["trainer.loss_first"] = ctx.get("loss_first", 0.0)
    v["trainer.loss_last"] = ctx.get("loss_last", 0.0)

    v["nn.train_step.gflop"] = train_step_gflop(ctx["model"])
    step_p50 = v["trainer.step_ms_p50"]
    v["nn.train_step.gflop_per_s"] = v["nn.train_step.gflop"] / (step_p50 / 1e3) if step_p50 else 0.0
    v["nn.checkpoint.save_ms_p50"] = percentile(ms("nn.checkpoint.save_checkpoint"), 0.5)
    v["nn.checkpoint.save_calls"] = len(ms("nn.checkpoint.save_checkpoint"))
    v["nn.checkpoint.load_ms_p50"] = percentile(ms("nn.checkpoint.load_checkpoint"), 0.5)
    v["nn.checkpoint.load_calls"] = len(ms("nn.checkpoint.load_checkpoint"))

    label = ms("anchors.label_anchors")
    v["anchors.label_anchors.ms_per_step"] = sum(label) / steps if steps else 0.0
    v["anchors.label_anchors.calls_per_step"] = len(label) / steps if steps else 0.0
    loss_idx = [i for i, s in enumerate(spans) if s.name.startswith("losses.")]
    outer = [spans[i].ms for i in loss_idx
             if spans[i].parent < 0 or not spans[spans[i].parent].name.startswith("losses.")]
    v["losses.ms_per_step"] = sum(outer) / steps if steps else 0.0
    v["losses.calls_per_step"] = len(loss_idx) / steps if steps else 0.0

    queries = ctx.get("queries", 0)
    v["inference.queries"] = queries
    for stage, name in (("decode", "inference.decode_proposals"), ("nms", "inference.nms"),
                        ("top_k", "inference.top_k"), ("rerank", "inference.rerank")):
        calls = ms(name)
        n = ctx.get("rerank_queries", 0) if stage == "rerank" else queries
        v[f"inference.{stage}.ms_per_query"] = sum(calls) / n if n else 0.0
        put_timing(f"inference.{stage}.call_ms", calls, f"inference.{stage}.calls")
    nms_info = [spans[i].info or {} for i in by_name.get("inference.nms", ())]
    kept = sum(x.get("kept") or 0 for x in nms_info)
    topk_out = sum((spans[i].info or {}).get("k_out") or 0 for i in by_name.get("inference.top_k", ()))
    v["inference.nms.kept_per_query"] = kept / len(nms_info) if nms_info else 0.0
    v["inference.nms.useful_ratio"] = topk_out / kept if kept else 0.0

    command = _nearest(spans, lambda name: name.startswith("cli."))

    def per_rerank_command(names):
        totals = {c: 0.0 for c in by_name.get("cli.rerank", ())}
        for n in names:
            for i in by_name.get(n, ()):
                if command[i] in totals:
                    totals[command[i]] += spans[i].ms
        return percentile(list(totals.values()), 0.5)

    v["inference.jsonl_read_ms"] = per_rerank_command(
        ("inference.read_predictions", "inference.read_channel_file"))
    v["inference.jsonl_write_ms"] = per_rerank_command(("inference.write_predictions",))

    eval_queries = ctx.get("eval_queries", 0)
    for counter, label_ in (("core.iou", "core.iou.calls_per_query"),
                            ("core.TimeSpan", "core.TimeSpan.constructions_per_query")):
        v[f"{label_}.predict"] = tracer.count("predict", counter) / queries if queries else 0.0
        v[f"{label_}.eval"] = tracer.count("eval", counter) / eval_queries if eval_queries else 0.0
    evals = ms("evaluation.evaluate")
    v["evaluation.evaluate.ms_p50"] = percentile(evals, 0.5)
    v["evaluation.evaluate.calls"] = len(evals)
    v["evaluation.query_hit.calls"] = (tracer.count("eval", "evaluation.query_hit") / len(evals)
                                       if evals else 0.0)
    for (n, m), value in ctx.get("recalls", {}).items():
        v[f"evaluation.r{n}_iou{m:g}"] = value

    for cmd in CLI_COMMANDS:
        v[f"cli.{cmd}.self_ms_p50"] = percentile(
            [selfs[i] * 1e3 for i in by_name.get(f"cli.{cmd}", ())], 0.5)
    v["trace.overhead_s"] = ctx.get("overhead_s", 0.0)
    v["trace.overhead_pct"] = ctx.get("overhead_pct", 0.0)
    v["trace.spans"] = len(spans)
    v["src.lines"] = ctx.get("src_lines", 0)

    absent = []
    have = set(tracer.wrapped)
    for name, _ in CATALOG:
        for prefix, needs in SOURCES.items():
            if name.startswith(prefix) and not all(n in have for n in needs):
                absent.append(name)
                v[name] = 0.0
                break
    metrics = {name: {"value": float(v.get(name, 0.0)), "unit": unit} for name, unit in CATALOG}
    return metrics, absent


def _nearest(spans, match) -> list[int]:
    """Index of each span's nearest ancestor-or-self whose name matches, or
    -1; one pass, since a parent is recorded before its children."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        if match(s.name):
            out[i] = i
        elif s.parent >= 0:
            out[i] = out[s.parent]
    return out
