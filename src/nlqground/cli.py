"""Command-line pipeline: gen-data, train, predict, rerank, eval.

One process per invocation; every subcommand is deterministic given its
inputs, flags and seed.  Exit codes: 0 success, 1 validation error (bad
flags, bad config, bad file contents), 2 runtime error (divergence, I/O
failure mid-run).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .anchors import AnchorConfig
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    read_annotations,
    save_dataset,
    split_dataset,
)
from .evaluation import evaluate, report_to_json
from .inference import (
    RerankChannel,
    _checked_proposal,
    json_record,
    predict_dataset,
    read_channel_file,
    read_predictions,
    rerank,
    write_predictions,
)
from .nn import EncoderConfig, load_checkpoint
from .trainer import TrainConfig, train


class CliError(ValueError):
    """User-facing validation failure (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # runtime failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class InferenceOptions:
    top_k: int = 5
    nms_iou: float = 0.5


_SECTIONS = {
    "encoder": EncoderConfig,
    "train": TrainConfig,
    "anchors": AnchorConfig,
    "inference": InferenceOptions,
}


def _build_section(cls, payload: dict, section: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise CliError(f"config section {section!r} has unknown keys: {sorted(unknown)}")
    if "scales" in payload:
        payload = dict(payload, scales=tuple(payload["scales"]))
    try:
        return cls(**payload)
    except (TypeError, ValueError) as e:
        raise CliError(f"config section {section!r}: {e}") from e


def load_run_config(path) -> dict:
    """Parse the unified run-config JSON; unknown keys anywhere are an error."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as e:
        raise CliError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: invalid JSON: {e}") from e
    unknown = set(doc) - set(_SECTIONS) - {"data"}
    if unknown:
        raise CliError(f"config has unknown top-level keys: {sorted(unknown)}")
    sections = {name: dict(doc.get(name, {})) for name in _SECTIONS}
    data_paths = dict(doc.get("data", {}))
    if set(data_paths) - {"train_dir", "val_dir"}:
        raise CliError(f"config section 'data' has unknown keys: "
                       f"{sorted(set(data_paths) - {'train_dir', 'val_dir'})}")
    return {"sections": sections, "data": data_paths}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        num_videos=args.num_videos,
        frames_per_video=args.frames,
        feature_dim=args.dim,
        text_dim=args.text_dim,
        tokens_per_query=args.tokens,
        queries_per_video=args.queries_per_video,
        span_fraction_range=(args.span_min, args.span_max),
        noise_sigma=args.noise,
        seed=args.seed,
    )
    dataset = generate_synthetic(spec)
    if args.val_videos:
        # split one generation so train/val share the signal projection
        train_ds, val_ds = split_dataset(dataset, args.num_videos - args.val_videos)
        save_dataset(train_ds, Path(args.out) / "train")
        save_dataset(val_ds, Path(args.out) / "val")
        print(f"wrote {len(train_ds.video_features)} train / "
              f"{len(val_ds.video_features)} val videos to {args.out}")
    else:
        save_dataset(dataset, args.out)
        print(f"wrote {len(dataset.video_features)} videos / {len(dataset)} queries to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config) if args.config else {"sections": {n: {} for n in _SECTIONS}, "data": {}}
    train_dir = args.data or cfg["data"].get("train_dir")
    val_dir = args.val or cfg["data"].get("val_dir")
    if not train_dir:
        raise CliError("no training data: pass --data or set data.train_dir in the config")
    if not Path(train_dir).is_dir():
        raise CliError(f"training data directory does not exist: {train_dir}")
    if val_dir and not Path(val_dir).is_dir():
        raise CliError(f"validation data directory does not exist: {val_dir}")

    train_data = load_dataset(train_dir)
    val_data = load_dataset(val_dir) if val_dir else None

    enc_payload = cfg["sections"]["encoder"]
    # Input dims default to what the data actually carries.
    enc_payload.setdefault("video_input_dim", next(iter(train_data.video_features.values())).shape[1])
    enc_payload.setdefault("text_input_dim", next(iter(train_data.text_features.values())).shape[1])
    anchor_config = _build_section(AnchorConfig, cfg["sections"]["anchors"], "anchors")
    enc_payload.setdefault("num_scales", len(anchor_config.scales))
    encoder_config = _build_section(EncoderConfig, enc_payload, "encoder")

    train_payload = cfg["sections"]["train"]
    if args.seed is not None:
        train_payload["seed"] = args.seed
    train_config = _build_section(TrainConfig, train_payload, "train")
    infer_opts = _build_section(InferenceOptions, cfg["sections"]["inference"], "inference")

    result = train(train_data, val_data, encoder_config, train_config, anchor_config,
                   args.out, topk=infer_opts.top_k, nms_iou=infer_opts.nms_iou)
    score = (f"val R@1 IoU=0.5: {result.best_r1_iou50:.4f}" if val_data is not None
             else "no validation split given; last epoch kept")
    print(f"best checkpoint: {result.best_checkpoint} ({score})")
    return 0


def _cmd_predict(args) -> int:
    if not Path(args.ckpt).is_file():
        raise CliError(f"checkpoint not found: {args.ckpt}")
    if not Path(args.data).is_dir():
        raise CliError(f"data directory not found: {args.data}")
    model = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    target_t = args.frames
    anchor_config = AnchorConfig(scales=tuple(_parse_floats(args.scales, "--scales")),
                                 num_frames=target_t)
    if len(anchor_config.scales) != model.config.num_scales:
        raise CliError(
            f"--scales gives {len(anchor_config.scales)} scales but the checkpoint "
            f"predicts {model.config.num_scales}")
    records = predict_dataset(model, dataset, anchor_config, topk=args.topk, nms_iou=args.nms_iou)
    write_predictions(args.out, [json_record(*r) for r in records])
    print(f"wrote predictions for {len(records)} queries to {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    records = read_predictions(args.preds)
    channels = []
    for spec in args.channel:
        path, _, weight = spec.partition(":")
        if not Path(path).is_file():
            raise CliError(f"channel file not found: {path}")
        try:
            w = float(weight) if weight else 1.0
        except ValueError:
            raise CliError(f"bad channel weight in {spec!r}") from None
        channels.append((Path(path).stem, read_channel_file(path), w))

    out_records = []
    for rec in records:
        qid = rec["query_id"]
        proposals = [_checked_proposal(qid, rank, p) for rank, p in enumerate(rec["proposals"], 1)]
        per_query = []
        for name, scores_by_query, w in channels:
            if qid not in scores_by_query:
                raise CliError(f"channel {name!r} has no scores for query {qid!r}")
            per_query.append(RerankChannel(name=name, scores=scores_by_query[qid], weight=w))
        order, fused = rerank([score for _, _, score in proposals], per_query)
        out_records.append({"query_id": qid, "video_id": rec.get("video_id", ""), "proposals": [
            {"start_sec": proposals[i][0], "end_sec": proposals[i][1], "score": score}
            for i, score in zip(order, fused)]})
    write_predictions(args.out, out_records)
    print(f"reranked {len(out_records)} queries into {args.out}")
    return 0


def _cmd_eval(args) -> int:
    predictions = read_predictions(args.preds)
    annotations, _ = read_annotations(args.annotations)
    report = evaluate(
        predictions, annotations,
        ranks=_parse_ints(args.ranks, "--ranks"),
        thresholds=_parse_floats(args.ious, "--ious"),
        strict=args.strict,
    )
    print(report.to_table() if args.format == "table" else report_to_json(report))
    return 0


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise CliError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise CliError(f"{flag} expects comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlqground", description=__doc__,
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic planted-signal dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--num-videos", type=int, default=4)
    p.add_argument("--frames", type=int, default=256, help="raw frames per video (1 s each)")
    p.add_argument("--dim", type=int, default=32, help="frame feature dimension")
    p.add_argument("--text-dim", type=int, default=16, help="token embedding dimension")
    p.add_argument("--tokens", type=int, default=4, help="tokens per query")
    p.add_argument("--queries-per-video", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.5, help="signal noise sigma")
    p.add_argument("--span-min", type=float, default=0.01, help="min span fraction")
    p.add_argument("--span-max", type=float, default=0.08, help="max span fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-videos", type=int, default=0,
                   help="split off this many videos into OUT/val (rest in OUT/train)")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train a grounding model",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--config", help="unified run-config JSON (flags win on conflict)")
    p.add_argument("--data", help="training dataset directory")
    p.add_argument("--val", help="validation dataset directory")
    p.add_argument("--out", required=True, help="output directory (checkpoints + logs)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="emit ranked proposals for a dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output predictions JSONL")
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--nms-iou", type=float, default=0.5, help="NMS IoU threshold; 0 disables NMS")
    p.add_argument("--frames", type=int, default=600, help="sampled frame count T")
    p.add_argument("--scales", default="0.01,0.03", help="anchor scales (proportions of T)")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("rerank", help="fuse external score channels into a predictions file",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--preds", required=True, help="input predictions JSONL")
    p.add_argument("--channel", action="append", required=True, metavar="FILE[:WEIGHT]",
                   help="channel JSONL with optional weight (repeatable)")
    p.add_argument("--out", required=True, help="output predictions JSONL")
    p.set_defaults(fn=_cmd_rerank)

    p = sub.add_parser("eval", help="score predictions with R@n, IoU@m",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--preds", required=True, help="predictions JSONL")
    p.add_argument("--annotations", required=True, help="annotations JSON")
    p.add_argument("--ranks", default="1,5", help="comma-separated n values")
    p.add_argument("--ious", default="0.3,0.5", help="comma-separated m values")
    p.add_argument("--strict", action="store_true", help="error on missing predictions")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_eval)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help path
        return int(e.code or 0)
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
