"""fsmcap benchmark entry point.

    python3 perfbench/run.py --workload {search,channel,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in its own process
(so peak memory is per workload); untraced runs start SETUP_PROBES
set-up-only processes first, and `setup_s` is the median set-up time over
all of them.  With --trace 0 the
last line holds the end-to-end metrics, with --trace 1 the per-layer ones
from a separate traced pass.  Every metric is printed by name with its
unit on the lines before.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import layer_metric_specs  # noqa: E402

SETUP_PROBES = 4
TIMEOUT_S = 170.0
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_s.p50": "s", "job_s.tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


def thread_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The benchmark's own process environment: numpy/BLAS threads capped at
    the cores this process may use; FSMCAP_THREADS is not passed."""
    env = dict(os.environ)
    env.pop("FSMCAP_THREADS", None)
    cap = str(thread_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def worker(args, *extra) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, jobs: int) -> dict:
    import numpy
    return {
        "commit": commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "usable_cpus": thread_cap(),
        "blas_threads_cap": thread_cap(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "size": args.size, "jobs": jobs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("search", "channel", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the benchmark's own tests only")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fsmcap" / "__init__.py").is_file():
        print(f"error: no fsmcap sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    setups = [] if args.trace else [worker(args, "--setup-only")["setup_s"]
                                    for _ in range(SETUP_PROBES)]
    res = worker(args)
    setups.append(res["setup_s"])
    failures = res["failures"]
    attempted = res["attempted"]
    if args.trace:
        units = {name: unit for name, unit, _ in layer_metric_specs()}
        values = res["metrics"]
    else:
        units = END_TO_END_UNITS
        values = dict(res["metrics"], setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {"environment": environment(args, attempted), "setup_samples_s": setups,
              "failed_ratio": len(failures) / attempted, "failures": failures[:20],
              **{k: res[k] for k in ("tail", "by_kind", "trace", "spans", "inputs",
                                     "jobs_in_cycle") if k in res}}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {record['failed_ratio']:.6g} failed/attempted ({len(failures)}/{attempted})")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
