"""One timed set-up sample: import lapsig, warm up, generate a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR SRC_DIR

Prints ``{"setup_s": seconds}``, measured from before the import.  run.py
starts this several times per run, each in a fresh process so that every
sample pays for the import, and reports the median.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, work, src = argv
    sys.path.insert(0, src)
    import workloads

    workloads.prepare(workload, int(seed), Path(work))
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
