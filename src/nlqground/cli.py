"""Command-line pipeline: gen-data, train, predict, rerank, eval.

One process per invocation, or `run(argv)` called repeatedly in one
process: the parser is built once and reused, and no other state carries
over between calls.  Every subcommand is deterministic given its inputs,
flags and seed.  Exit codes: 0 success, 1 validation error (bad
flags, bad config, a missing input file, bad file contents), 2 runtime error
(divergence, I/O failure mid-run).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .anchors import AnchorConfig
from .core import config_from_json
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    read_annotations,
    save_dataset,
    split_dataset,
)
from .evaluation import evaluate
from .inference import (
    InferenceOptions,
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


def load_run_config(path, video_dim: int, text_dim: int):
    """The (EncoderConfig, TrainConfig, InferenceOptions) of a run-config
    JSON file, whose sections `encoder`, `train`, `anchors` and `inference`
    may each leave keys to their defaults; unknown keys anywhere are an
    error.  The encoder's input dims are the data's, `video_dim` and
    `text_dim`, and its lattice is the `anchors` section."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # undecodable bytes, bad JSON or an integer too long to convert
        raise CliError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise CliError(f"{path}: the config must be a JSON object")
    unknown = set(doc) - {"encoder", "train", "anchors", "inference"}
    if unknown:
        raise CliError(f"config has unknown top-level keys: {sorted(unknown)}")

    def section(cls, name, **fixed):
        return config_from_json(cls, doc.get(name, {}), f"config section {name!r}", **fixed)

    encoder = section(EncoderConfig, "encoder", anchors=section(AnchorConfig, "anchors"),
                      video_input_dim=video_dim, text_input_dim=text_dim)
    return encoder, section(TrainConfig, "train"), section(InferenceOptions, "inference")


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
    if not 0 <= args.val_videos < args.num_videos:
        raise CliError(f"--val-videos must be in [0, {args.num_videos}), got {args.val_videos}")
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


def _check_widths(data_dir, dataset, widths, source: str) -> None:
    """Exit 1 unless `dataset`'s (video, text) feature widths are `widths`."""
    for name, got, want in zip(("video", "text"), dataset.widths, widths):
        if got != want:
            raise CliError(f"{Path(data_dir) / name}_features.nlqc: features are {got} wide, "
                           f"but {source} are {want} wide")


def _cmd_train(args) -> int:
    train_data = load_dataset(args.data)
    val_data = load_dataset(args.val) if args.val else None
    if val_data is not None:
        _check_widths(args.val, val_data, train_data.widths, f"those of {args.data}")
    encoder_config, train_config, infer_opts = load_run_config(args.config, *train_data.widths)

    result = train(train_data, val_data, encoder_config, train_config, args.out, infer_opts)
    score = (f"val R@1 IoU=0.5: {result.best_r1_iou50:.4f}" if val_data is not None
             else "no validation split given; last epoch kept")
    print(f"best checkpoint: {result.best_checkpoint} ({score})")
    return 0


def _cmd_predict(args) -> int:
    opts = InferenceOptions(top_k=args.topk, nms_iou=args.nms_iou)
    model = load_checkpoint(args.ckpt)
    lattice = model.config.anchors
    if args.frames is not None and args.frames != lattice.num_frames:
        raise CliError(f"--frames {args.frames} but {args.ckpt} was trained at "
                       f"num_frames {lattice.num_frames}")
    scales = None if args.scales is None else tuple(_parse_list(args.scales, "--scales", float))
    if scales is not None and scales != lattice.scales:
        raise CliError(f"--scales {args.scales} but {args.ckpt} was trained with scales "
                       f"{','.join(map(str, lattice.scales))}")
    dataset = load_dataset(args.data)
    cfg = model.config
    _check_widths(args.data, dataset, (cfg.video_input_dim, cfg.text_input_dim), f"{args.ckpt}'s")
    records = predict_dataset(model, dataset, opts)
    write_predictions(args.out, records)
    print(f"wrote predictions for {len(records)} queries to {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    records = read_predictions(args.preds)
    channels = []
    for spec in args.channel:
        path, _, weight = spec.partition(":")
        try:
            w = float(weight) if weight else 1.0
        except ValueError:
            raise CliError(f"bad channel weight in {spec!r}") from None
        if not math.isfinite(w):
            raise CliError(f"channel weight in {spec!r} is not a finite number")
        channels.append((Path(path).stem, read_channel_file(path), w))

    out_records = []
    # every weight and score is finite, so a fused score is not finite
    # exactly when its arithmetic overflows (inf) or then cancels (inf - inf)
    with np.errstate(over="raise", invalid="raise"):
        for qid, vid, spans, scores in records:
            per_query = []
            for name, scores_by_query, w in channels:
                if qid not in scores_by_query:
                    raise CliError(f"channel {name!r} has no scores for query {qid!r}")
                if len(scores_by_query[qid]) != len(scores):
                    raise CliError(f"channel {name!r} has {len(scores_by_query[qid])} scores "
                                   f"for {len(scores)} proposals of query {qid!r}")
                per_query.append((scores_by_query[qid], w))
            try:
                order, fused = rerank(scores, per_query)
            except FloatingPointError:
                raise CliError(f"fused scores of query {qid!r} are not finite under "
                               f"--channel {', '.join(map(repr, args.channel))}") from None
            out_records.append((qid, vid, spans[order], fused))
    write_predictions(args.out, out_records)
    print(f"reranked {len(out_records)} queries into {args.out}")
    return 0


def _cmd_eval(args) -> int:
    records = read_predictions(args.preds)
    annotations, _ = read_annotations(args.annotations)
    report = evaluate(
        records, annotations,
        ranks=_parse_list(args.ranks, "--ranks", int),
        thresholds=_parse_list(args.ious, "--ious", float),
        strict=args.strict,
    )
    print(report.to_table() if args.format == "table"
          else json.dumps(report.to_json_dict(), indent=2))
    return 0


def _parse_list(text: str, flag: str, kind: type) -> list:
    """At least one comma-separated value of `kind` (int or float), each
    given once, or a CliError naming `flag`: a repeated rank or threshold
    would print its row twice in the table report and once in the JSON one,
    and none would print an empty report."""
    what = "integers" if kind is int else "numbers"
    try:
        values = [kind(x) for x in text.split(",") if x]
    except ValueError:
        raise CliError(f"{flag} expects comma-separated {what}, got {text!r}") from None
    if not values:
        raise CliError(f"{flag} expects at least one of its comma-separated {what}, got {text!r}")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise CliError(f"{flag} repeats the value {repeated[0]!r}, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlqground", description=__doc__,
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    spec = SyntheticSpec()
    p = sub.add_parser("gen-data", help="generate a synthetic planted-signal dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--num-videos", type=int, default=spec.num_videos)
    p.add_argument("--frames", type=int, default=spec.frames_per_video,
                   help="raw frames per video (1 s each)")
    p.add_argument("--dim", type=int, default=spec.feature_dim, help="frame feature dimension")
    p.add_argument("--text-dim", type=int, default=spec.text_dim, help="token embedding dimension")
    p.add_argument("--tokens", type=int, default=spec.tokens_per_query, help="tokens per query")
    p.add_argument("--queries-per-video", type=int, default=spec.queries_per_video)
    p.add_argument("--noise", type=float, default=spec.noise_sigma, help="signal noise sigma")
    p.add_argument("--span-min", type=float, default=spec.span_fraction_range[0],
                   help="min span fraction")
    p.add_argument("--span-max", type=float, default=spec.span_fraction_range[1],
                   help="max span fraction")
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--val-videos", type=int, default=0,
                   help="split off this many videos into OUT/val (rest in OUT/train)")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train a grounding model",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--config", required=True, help="run-config JSON ({} for all defaults)")
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--val", help="validation dataset directory")
    p.add_argument("--out", required=True, help="output directory (checkpoints + logs)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="emit ranked proposals for a dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output predictions JSONL")
    p.add_argument("--topk", type=int, default=InferenceOptions().top_k)
    p.add_argument("--nms-iou", type=float, default=InferenceOptions().nms_iou,
                   help="NMS IoU threshold; 0 disables NMS")
    p.add_argument("--frames", type=int, help="sampled frame count T; if given, must equal "
                   "the checkpoint's")
    p.add_argument("--scales", help="anchor scales (proportions of T); if given, must equal "
                   "the checkpoint's")
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
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError) as e:  # a bad path
        print(f"error: {e.strerror}: {e.filename}", file=sys.stderr)
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
