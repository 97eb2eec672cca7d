"""One workload in one process: set up, compute references, run jobs.

    python3 -m perfbench.worker --workload search --seed 1 --seconds 25 --trace 0

Prints one JSON object.  `--setup-only` stops once the first job could run
and reports the set-up time alone; `run.py` starts several such processes
and takes the median.  The clock for set-up starts before fsmcap is
imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing, workloads  # noqa: E402  (imports fsmcap)

SPANS_DIR = ROOT / ".bench_out"
SCRATCH_DIR = ROOT / ".bench_tmp"


def build(name: str, seed: int, size: str) -> workloads.Workload:
    if name != "cli":
        return workloads.WORKLOADS[name](seed, size)
    scratch = SCRATCH_DIR / f"cli-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.chdir(scratch)
    return workloads.cli_workload(seed, size, scratch)


def run_jobs(jobs, refs, seconds: float, single_pass: bool = False) -> dict:
    """Closed loop over the job list: at least one full pass, then on until
    `seconds` have gone by (or stop after one pass).  Only `job.run` is
    timed; checks run between jobs, outside the job clock."""
    latencies, kinds, failures = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        job, ref = jobs[i % len(jobs)], refs[i % len(jobs)]
        t = time.perf_counter()
        try:
            result = job.run()
            problem = None
        except Exception as exc:  # a failed job is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if problem is None:
            try:
                problem = job.check(result, ref)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        latencies.append(dt)
        kinds.append(job.kind)
        if problem is not None:
            failures.append(f"{job.kind} on {job.label}: {problem}"[:300])
        i += 1
        if i >= len(jobs) and (single_pass or time.perf_counter() - start >= seconds):
            break
    return {"latencies": latencies, "kinds": kinds, "failures": failures}


def run_pairs(plain_jobs, traced_jobs, refs, tracer) -> tuple[dict, dict]:
    """One pass over both job lists, job by job: untraced and traced in a
    row, alternating which goes first."""
    plain = {"latencies": [], "kinds": [], "failures": []}
    traced = {"latencies": [], "kinds": [], "failures": []}
    for i, ref in enumerate(refs):
        pair = ((False, plain_jobs, plain), (True, traced_jobs, traced))
        for on, jobs, out in pair if i % 2 == 0 else pair[::-1]:
            tracer.enable(on)
            one = run_jobs([jobs[i]], [ref], 0, single_pass=True)
            for key in out:
                out[key] += one[key]
    return plain, traced


def tail_sample(n: int) -> dict:
    """Position (ascending) of the highest sample with at least ten samples
    beyond it, and the percentile that is; the lowest sample when there are
    fewer than eleven."""
    index = max(0, n - 11)
    return {"index": index, "samples": n, "beyond": n - 1 - index,
            "percentile": round(100.0 * (index + 1) / n, 2)}


def end_to_end(out: dict) -> dict:
    lat = out["latencies"]
    completed = len(lat) - len(out["failures"])
    ordered = sorted(lat)
    tail = tail_sample(len(lat))
    by_kind = {}
    for kind in dict.fromkeys(out["kinds"]):
        xs = [t for t, k in zip(lat, out["kinds"]) if k == kind]
        by_kind[kind] = {"n": len(xs), "median_s": statistics.median(xs)}
    return {
        "metrics": {
            "jobs_per_s": completed / sum(lat),
            "job_s.p50": statistics.median(lat),
            "job_s.tail": ordered[tail["index"]],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "tail": tail,
        "by_kind": by_kind,
    }


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = build(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - T0
    try:
        if args.setup_only:
            return {"setup_s": setup_s}
        refs = [job.reference() for job in wl.jobs]
        result = {"setup_s": setup_s, "jobs_in_cycle": len(wl.jobs), "inputs": wl.inputs}
        if not args.trace:
            out = run_jobs(wl.jobs, refs, args.seconds)
            result.update(end_to_end(out))
            result.update(attempted=len(out["latencies"]), failures=out["failures"])
            return result
        # traced run: set-up again under the tracer, then every job twice
        # in a row, untraced and traced, so both see the same machine state
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wl = build(args.workload, args.seed, args.size)
            plain, traced = run_pairs(wl.jobs, traced_wl.jobs, refs, tracer)
        finally:
            tracer.enable(False)
        # the machine's speed drifts within seconds, so a plain difference of
        # the two sums can come out negative; scale the median per-job ratio
        ratios = [t / p for t, p in zip(traced["latencies"], plain["latencies"])]
        overhead = (statistics.median(ratios) - 1.0) * sum(plain["latencies"])
        values, detail = tracing.layer_metrics(tracer, overhead, args.workload)
        spans_path = SPANS_DIR / f"spans-{args.workload}.jsonl.gz"
        tracer.write_spans(spans_path)
        result.update(metrics=values, trace=detail, spans=str(spans_path.relative_to(ROOT)),
                      attempted=len(plain["latencies"]) + len(traced["latencies"]),
                      failures=plain["failures"] + traced["failures"])
        return result
    finally:
        os.chdir(ROOT)
        wl.close()


if __name__ == "__main__":
    print(json.dumps(main()))
