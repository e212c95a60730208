"""nlqground benchmark: one workload, one seed, timed or traced.

Usage, from the root of a checkout:

    python3 nlqbench/run.py --workload train-t128 --seed 1 --seconds 20 --trace 0

The program is imported from ./src of the working directory and driven
through `nlqground.cli.run`.  The last line of stdout is a JSON result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a separate
traced pass.  A run record (machine fingerprint, seed, output hashes, raw
samples) and, when traced, the span file go to .nlqbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc before numpy loads; returns the cap."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs from /proc/stat, where readable."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _interrupt(signum, frame):
    """SIGTERM unwinds like Ctrl-C, so the work directory is still removed;
    the CLI catches SystemExit but not KeyboardInterrupt."""
    raise KeyboardInterrupt


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring budget; rounds repeat while the next one is expected to fit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _interrupt)
    root = Path.cwd()
    src = root / "src"
    if not (src / "nlqground" / "cli.py").is_file():
        print(f"error: no nlqground sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    sys.path[:0] = [str(src), str(BENCH_DIR)]

    import nlqground.cli
    if not Path(nlqground.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: nlqground was imported from {nlqground.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import record
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    load1 = os.getloadavg()[0]
    if load1 > 0.5 * nproc():
        print(f"warning: 1-minute load average is {load1:.2f} on {nproc()} cores; "
              "timings will be inflated", file=sys.stderr)
    started, jiffies = time.perf_counter(), cpu_jiffies()
    result, run_record = record.run(workload, args.seed, args.seconds, bool(args.trace),
                                    root, src, nlqground.cli.run)
    after = cpu_jiffies()
    # CPU time the hypervisor gave to other guests: a cause of run-to-run noise
    steal = (after[0] - jiffies[0]) / max(1, after[1] - jiffies[1]) if jiffies and after else None
    run_record.update(record.fingerprint(blas_cap, nproc()), load_avg_1min=load1, seed=args.seed,
                      workload=workload.name, trace=args.trace, seconds_budget=args.seconds,
                      wall_s=time.perf_counter() - started, cpu_steal_share=steal,
                      src_lines=record.src_lines(src))
    path = record.save(root, run_record)
    print(f"run record: {path.relative_to(root)}")
    if result["failed"]:
        print("failures:\n  " + "\n  ".join(run_record["failures"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
