"""Runs one workload timed or traced, and builds the run record."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import layer_metrics
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import IOUS, RANKS, Runner, Tally

WORK_DIR = ".nlqbench-work"
OUT_DIR = ".nlqbench-out"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "predict_queries_per_s": "1/s",
    "rerank_queries_per_s": "1/s",
    "eval_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def run(workload, seed: int, seconds: float, traced: bool, root: Path, src: Path, cli_run):
    """Returns (result dict for the last stdout line, run record)."""
    workdir = root / WORK_DIR / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    runner = Runner(workload, seed, workdir, cli_run, tally)
    extra: dict = {}
    try:
        if traced:
            metrics, extra = _traced(runner, workload, root, seed, src)
        else:
            metrics, extra = _timed(runner, workload, seconds)
        hashes = {f"{name}_sha256": _sha256(path) for name, path in runner.last_outputs.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    run_record = {"result": result, "samples": tally.samples, "failures": tally.messages,
                  **hashes, **extra}
    return result, run_record


def _timed(runner: Runner, workload, seconds: float):
    """Set-ups and rounds, with host speed sampled throughout; returns the
    end-to-end metrics and extra run-record fields."""
    setup_s = []

    def set_up():
        data, s = runner.setup(len(setup_s))
        setup_s.append(s)
        return data

    def sample_set_up():
        """More timed set-ups between phases.  Set-up speed drifts over
        tens of seconds on a shared host, apart from CPU speed; sampling it
        across the run, like the phases, makes its median steadier.  Their
        files stay until the run ends: on a 2-core Xeon VM with ext4,
        removing files made the next writes up to 3x slower."""
        for _ in range(workload.setup_reps):
            set_up()

    with HostSpeed() as host:
        runner.host = host
        data = set_up()
        start = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            runner.round(index, data, between=sample_set_up)
            index += 1
            took = time.perf_counter() - t0
            # start another round only if it is expected to end within budget
            if time.perf_counter() - start + took > seconds:
                break
        runner.host = None
    tally = runner.tally
    rates = ("train_steps_per_s", "predict_queries_per_s", "rerank_queries_per_s",
             "eval_queries_per_s")
    values = {
        "setup_s": statistics.median(setup_s),
        **{name: tally.rate(name) for name in rates},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tally.samples["setup_s"] = [(1, s, s) for s in setup_s]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, {"rounds": index, "host_speed": host.summary(),
                     "unscaled_rates": {name: tally.rate(name, scaled=False) for name in rates}}


def _traced(runner: Runner, workload, root: Path, seed: int, src: Path):
    """One untraced set-up + round, then the same traced; the difference in
    wall time is the tracing overhead."""
    t0 = time.perf_counter()
    data, _ = runner.setup(0)
    runner.round(0, data)
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        runner.tracer = tracer
        t0 = time.perf_counter()
        data, _ = runner.setup(1)
        runner.round(1, data)
        traced = time.perf_counter() - t0
    finally:
        runner.tracer = None
        tracer.uninstall()

    losses = []
    if data.steps_log and data.steps_log.is_file():
        losses = [json.loads(line)["loss"] for line in data.steps_log.read_text().splitlines()]
    cells = runner.last_eval.get("cells", {})
    predicted = workload.val_queries * workload.cycles
    passed = predicted * workload.passes  # queries re-ranked, and scored
    ctx = {
        "queries": predicted, "rerank_queries": passed, "eval_queries": passed,
        "model": workload.model_shape(),
        "loss_first": losses[0] if losses else 0.0, "loss_last": losses[-1] if losses else 0.0,
        "recalls": {(r, m): cells.get(f"R@{r},IoU={m:g}", 0.0) for r in RANKS for m in IOUS},
        "overhead_s": traced - untraced, "overhead_pct": 100.0 * (traced - untraced) / untraced,
        "src_lines": src_lines(src),
    }
    metrics, absent = layer_metrics.derive(tracer, ctx)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.dump(spans_path)
    return metrics, {"absent": absent, "spans_file": str(spans_path.relative_to(root)),
                     "untraced_s": untraced, "traced_s": traced}


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((src / "nlqground").rglob("*.py")))


def fingerprint(blas_cap: int, nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpu": cpu, "nproc": nproc, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": _blas_threads(numpy) or blas_cap, "blas_thread_cap": blas_cap,
    }


def _blas_threads(numpy) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def save(root: Path, run_record: dict) -> Path:
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / (f"record-{run_record['workload']}-seed{run_record['seed']}"
                  f"-trace{run_record['trace']}.json")
    path.write_text(json.dumps(run_record, indent=1, default=str), encoding="utf-8")
    return path
