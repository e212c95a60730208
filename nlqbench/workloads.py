"""The benchmark's workloads and the CLI phases each one times.

Everything goes through `nlqground.cli.run(argv)` with the README's
subcommands, flags and file formats; outputs are checked by `oracles`.
The load is a closed loop: one caller, each phase on the previous phase's
files, queries back to back.
"""

from __future__ import annotations

import gc
import io
import json
import random
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracles

# The acceptance encoder (criterion 6) for every workload.
ENCODER = {"hidden_dim": 64, "num_heads": 4, "intra_layers": 1, "cross_layers": 2,
           "dropout_rate": 0.1}
FEATURE_DIM, TEXT_DIM, TOKENS, QUERIES_PER_VIDEO = 32, 16, 16, 3
BATCH_SIZE, BASE_LR, MU = 8, 2e-3, 10.0
TOPK, NMS_IOU = 5, 0.5
RANKS, IOUS = (1, 5), (0.3, 0.5)
# How many proposals greedy NMS keeps, and so what it costs, depends on the
# trained model far more than on the queries.  The data and the training
# seed are therefore fixed, so every workload seed predicts with the same
# model on the same videos; the workload seed draws the re-rank prior
# channel.
DATA_SEED = TRAIN_SEED = 2022
CHANNEL_WEIGHTS = (("iou", 1.0), ("prior", 0.5))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    video_seconds: int  # raw frames per generated video, one per second
    train_videos: int
    val_videos: int
    num_frames: int  # sampled length T
    scales: tuple[float, float]
    epochs: int
    warmup_steps: int
    setup_reps: int  # timed set-ups after the training and after each cycle
    cycles: int  # predict-rerank-eval cycles per round, after its training
    passes: int  # rerank and eval repeat over the same files this often per cycle

    @property
    def train_steps(self) -> int:
        return self.epochs * -(-self.train_videos * QUERIES_PER_VIDEO // BATCH_SIZE)

    @property
    def val_queries(self) -> int:
        return self.val_videos * QUERIES_PER_VIDEO

    def model_shape(self) -> dict:
        return {"batch_size": BATCH_SIZE, "num_frames": self.num_frames, "tokens": TOKENS,
                "video_dim": FEATURE_DIM, "text_dim": TEXT_DIM, "num_scales": len(self.scales),
                **{k: ENCODER[k] for k in ("hidden_dim", "intra_layers", "cross_layers")}}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-t128",
        why="criterion-6 shapes at T=128: 600-query training (forward, hand backward, loss "
            "assembly, Adam), then predict, rerank and eval of 150 val queries",
        video_seconds=256, train_videos=200, val_videos=50, num_frames=128,
        scales=(0.02, 0.06), epochs=2, warmup_steps=300, setup_reps=1, cycles=6, passes=80),
    Workload(
        name="pipeline-t600",
        why="paper-scale lattice (T=600, 1200 anchors, 616-token joint sequence): "
            "quadratic attention and NMS over 1200 proposals dominate",
        video_seconds=1200, train_videos=8, val_videos=8, num_frames=600,
        scales=(0.01, 0.03), epochs=3, warmup_steps=20, setup_reps=3, cycles=2, passes=900),
)}


@dataclass(frozen=True)
class Took:
    """A timed call: its seconds, and the same at the reference host speed."""
    seconds: float
    scaled: float


class Tally:
    """Operations attempted and failed, and per metric the work done and the
    seconds it took, call by call."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.samples: dict[str, list[tuple[float, float, float]]] = {}

    def ops(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.messages += failures[: max(0, 20 - len(self.messages))]

    def sample(self, metric: str, work: float, took: Took) -> None:
        self.samples.setdefault(metric, []).append((work, took.seconds, took.scaled))

    def rate(self, metric: str, scaled: bool = True) -> float:
        """Pooled throughput: total work over total seconds, at the
        reference host speed unless `scaled` is false.

        On a shared 2-core host, speed can shift in phases lasting seconds,
        by up to 1.9x for the same work.  A median of per-call samples then
        flips between the fast and the slow phase; the pooled rate moves
        smoothly with the share of time spent in each.
        """
        samples = self.samples.get(metric, [])
        seconds = sum(s[2] if scaled else s[1] for s in samples)
        return sum(s[0] for s in samples) / seconds if seconds else 0.0


@dataclass
class DataSet:
    train_dir: Path
    val_dir: Path
    annotations: dict
    checkpoint: Path | None = None
    steps_log: Path | None = None


class Runner:
    """Runs one workload's set-up and rounds in `workdir`."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, cli_run, tally: Tally):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.cli_run = cli_run
        self.tally = tally
        self.tracer = None  # a Tracer while a traced pass runs
        self.host = None  # a HostSpeed while a timed run runs
        self.last_outputs: dict[str, Path] = {}
        self.last_eval: dict = {}

    def call(self, argv: list[str]) -> tuple[Took, int, str]:
        """Time one in-process CLI call; returns (time, exit code, stdout).
        Time spent sampling host speed during the call is left out."""
        out, err = io.StringIO(), io.StringIO()
        scope = self.tracer.command(argv[0]) if self.tracer else nullcontext()
        host = self.host
        with scope, redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            spent = host.spent if host else 0.0
            code = self.cli_run(argv)
            spent = host.spent - spent if host else 0.0
            t1 = time.perf_counter()
        seconds = t1 - t0 - spent
        took = Took(seconds, seconds * host.scale(t0, t1) if host else seconds)
        if code != 0:
            self.tally.messages.append(f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return took, code, out.getvalue()

    # -- phases -------------------------------------------------------------

    def _train(self, data: DataSet, run_dir: Path) -> None:
        """Timed `train`.  One train run attempted."""
        cfg = {
            "encoder": ENCODER,
            "train": {"epochs": self.w.epochs, "batch_size": BATCH_SIZE, "base_lr": BASE_LR,
                      "warmup_steps": self.w.warmup_steps, "mu": MU, "seed": TRAIN_SEED},
            "anchors": {"scales": list(self.w.scales), "num_frames": self.w.num_frames},
            "inference": {"top_k": TOPK, "nms_iou": NMS_IOU},
        }
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = run_dir.parent / f"{run_dir.name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        gc.collect()
        took, code, _ = self.call(["train", "--config", str(cfg_path), "--data", str(data.train_dir),
                                      "--out", str(run_dir)])
        failures = ["train: nonzero exit"] if code else oracles.check_train(run_dir, self.w.train_steps)
        self.tally.ops(1, failures)
        data.checkpoint = data.steps_log = None
        if not failures:
            self.tally.sample("train_steps_per_s", self.w.train_steps, took)
            data.checkpoint = run_dir / "checkpoint_best.nlqc"
            data.steps_log = run_dir / "steps.jsonl"
            self.last_outputs["checkpoint"] = data.checkpoint

    def setup(self, index: int) -> tuple[DataSet, float]:
        """Generate the train and val splits; returns the data set and the
        seconds of the `gen-data` call."""
        root = self.workdir / f"setup{index}"
        w = self.w
        took, code, _ = self.call([
            "gen-data", "--out", str(root),
            "--num-videos", str(w.train_videos + w.val_videos),
            "--val-videos", str(w.val_videos), "--frames", str(w.video_seconds),
            "--dim", str(FEATURE_DIM), "--text-dim", str(TEXT_DIM), "--tokens", str(TOKENS),
            "--queries-per-video", str(QUERIES_PER_VIDEO), "--span-min", "0.03",
            "--span-max", "0.08", "--noise", "0.5", "--seed", str(DATA_SEED)])
        if code:
            raise RuntimeError("gen-data failed: " + self.tally.messages[-1])
        data = DataSet(root / "train", root / "val",
                       oracles.read_annotations(root / "val" / "annotations.json"))
        return data, took.seconds

    def round(self, index: int, data: DataSet, between=None) -> None:
        """One pass of the workload's timed phases: training, then `cycles`
        of predict, rerank and eval; `between()`, if given, runs after each
        phase."""
        rd = self.workdir / f"round{index}"
        self._train(data, rd / "run")
        for cycle in range(self.w.cycles):
            if between:
                between()
            self._infer(data, rd / f"cycle{cycle}", index * self.w.cycles + cycle)
        if between:
            between()

    def _infer(self, data: DataSet, cd: Path, index: int) -> None:
        cd.mkdir(parents=True)
        n = len(data.annotations)
        passes = self.w.passes
        preds = cd / "preds.jsonl"
        code = 1
        if data.checkpoint is not None:
            gc.collect()
            took, code, _ = self.call([
                "predict", "--ckpt", str(data.checkpoint), "--data", str(data.val_dir),
                "--out", str(preds), "--topk", str(TOPK), "--nms-iou", str(NMS_IOU),
                "--frames", str(self.w.num_frames),
                "--scales", ",".join(f"{s:g}" for s in self.w.scales)])
        if code:  # the queries, their reranks and the eval runs all fail
            ops = n + passes * (n + 1)
            self.tally.ops(ops, ["predict: no checkpoint or nonzero exit"] * ops)
            return
        self.tally.ops(n, oracles.check_predict(preds, data.annotations, TOPK, NMS_IOU))
        self.tally.sample("predict_queries_per_s", n, took)
        self.last_outputs["predictions"] = preds

        specs = self._write_channels(preds, data.annotations, cd, index)
        reranked = cd / "reranked.jsonl"
        rerank = ["rerank", "--preds", str(preds), "--out", str(reranked)]
        for path, weight in specs:
            rerank += ["--channel", f"{path}:{weight:g}"]
        evaluate = ["eval", "--preds", str(preds), "--annotations", str(data.val_dir / "annotations.json"),
                    "--ranks", ",".join(map(str, RANKS)), "--ious", ",".join(f"{m:g}" for m in IOUS)]
        self._alternate(passes, n, [
            ("rerank_queries_per_s", rerank, n, reranked,
             lambda _: oracles.check_rerank(preds, specs, reranked),
             lambda _: reranked.read_bytes() if reranked.is_file() else None),
            ("eval_queries_per_s", evaluate, 1, None,
             lambda out: oracles.check_eval(out, preds, data.annotations, RANKS, IOUS),
             lambda out: out),
        ])

    def _alternate(self, passes: int, queries: int, calls: list[tuple]) -> None:
        """Repeat CLI calls over the same files, in turn, so the timings of
        each spread over the whole stretch.  A call is (metric, argv, ops,
        out_file, check, output): every pass counts `ops` operations.
        `out_file`, if any, is removed before each pass, so each pass's
        output comes from that pass.  The output (`output(stdout)`) either
        equals one that already passed `check(stdout)` or is checked itself."""
        gc.collect()
        passed = {}
        for _ in range(passes):
            for metric, argv, ops, out_file, check, output in calls:
                if out_file is not None:
                    out_file.unlink(missing_ok=True)
                took, code, stdout = self.call(argv)
                if code:
                    failures = [f"{argv[0]}: nonzero exit"] * ops
                else:
                    result = output(stdout)
                    known = result is not None and result == passed.get(metric)
                    failures = [] if known else check(stdout)
                    if not failures:
                        passed[metric] = result
                self.tally.ops(ops, failures)
                self.tally.sample(metric, queries, took)
                if argv[0] == "eval" and not failures:
                    self.last_eval = json.loads(stdout)

    def _write_channels(self, preds: Path, annotations: dict, rd: Path, index: int):
        """Two rank-aligned score channels: each proposal's true IoU, and a
        seeded prior in [0, 1)."""
        rng = random.Random(self.seed * 1000 + index)
        records = oracles.read_jsonl(preds)
        specs = []
        for name, weight in CHANNEL_WEIGHTS:
            path = rd / f"channel_{name}.jsonl"
            with open(path, "w", encoding="utf-8") as f:
                for rec in records:
                    ann = annotations[rec["query_id"]]
                    if name == "iou":
                        scores = [oracles.span_iou(p["start_sec"], p["end_sec"], ann["start"], ann["end"])
                                  for p in rec["proposals"]]
                    else:
                        scores = [rng.random() for _ in rec["proposals"]]
                    f.write(json.dumps({"query_id": rec["query_id"], "channel": name,
                                        "scores": scores}) + "\n")
            specs.append((str(path), weight))
        return specs
