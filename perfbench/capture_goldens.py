"""Re-capture the cli workload's goldens from the current sources.

    python3 -m perfbench.capture_goldens

Only for a change that alters the output of a README command on purpose;
the goldens are what the cli workload's jobs are checked against.
"""

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def main() -> None:
    scratch = ROOT / ".bench_tmp" / f"goldens-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        os.chdir(scratch)
        goldens = workloads.capture_goldens(scratch)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch)
    workloads.GOLDENS.parent.mkdir(exist_ok=True)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"{len(goldens)} commands -> {workloads.GOLDENS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
