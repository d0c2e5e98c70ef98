"""Benchmark of the rfst package, built from the checkout's src/ directory.

    python3 rfstbench/run.py --workload blocks_small --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one caller; see bench.WORKLOADS):
cli_roundtrip, blocks_small and blocks_large; `--workload all` runs the
three one after the other, each in its own process so that its peak RSS is
its own.  `--trace 0` prints every end-to-end metric; `--trace 1` runs the
traced variant and prints every per-layer metric.  Inputs are generated
from `--seed`.  BLAS is pinned to one thread through environment variables
set before numpy loads.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; `--out` also writes the
full record (environment, sample counts, tail percentiles, checks).
Working files go to .rfstbench_work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".rfstbench_work"
WORKLOAD_NAMES = ("cli_roundtrip", "blocks_small", "blocks_large")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the full record here")
    return parser.parse_args(argv)


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']:g}  "
          f"trace {record['trace']}  (closed loop, one caller)")
    print(f"  why: {record['why']}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {_format(m['value']):>14s} {m['unit']}")
    details = record["details"]
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"error_rate {record['failed'] / record['attempted']:g}")
    for key in ("samples", "tail_percentile", "shares", "errors"):
        if details.get(key):
            print(f"  {key}: {json.dumps(details[key])}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def _summary(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def _run_one(args) -> dict:
    import bench
    import layers

    w = bench.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        if args.trace:
            trace_path = WORK / f"trace-{w.name}-seed{args.seed}.json"
            record = layers.traced(w, args.seed, args.seconds, workdir, trace_path)
        else:
            record = bench.end_to_end(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(workload=w.name, why=w.why, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=bench.environment(args.seed))
    record["details"]["computed_sizes"] = bench.computed_sizes(w, record["env"]["l2_bytes_per_core"])
    return record


def _run_all(args) -> dict:
    """Each workload in a child process; metrics are prefixed with the workload name."""
    records = {}
    WORK.mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        out = WORK / f"all-{name}.json"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        print("\n".join(done.stdout.splitlines()[:-1]))
        records[name] = json.loads(out.read_text())
        out.unlink()
    return {
        "workload": "all",
        "records": records,
        "failed": sum(r["failed"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "metrics": {f"{name}.{k}": m for name, r in records.items() for k, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an exception, so children are killed and reaped and working files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # before anything imports numpy, so the BLAS pools start with one thread
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    if not (ROOT / "src" / "rfst" / "__init__.py").is_file():
        print(f"rfstbench: no rfst package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        record = _run_all(args)
    else:
        record = _run_one(args)
        _report(record)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(_summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
