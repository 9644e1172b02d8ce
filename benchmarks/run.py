"""Run one benchmark workload against the depq sources of this checkout.

    python3 benchmarks/run.py --workload deep-list --seed 1 --seconds 20 --trace 0

Workloads: deep-list, burst-list, deep-heap, verify.  See README.md here.
Exits 2 without a result when the checkout has no ``src/depq``.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main() -> int:
    if not (SOURCE / "depq" / "__init__.py").is_file():
        print(f"no depq sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # With the interpreter lock, two threads on two CPUs spend much of each
    # call handing the lock across CPUs, at a cost that changes with thread
    # placement from run to run.  On one CPU the run measures the library.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from depqbench import runner
    return runner.main(sys.argv[1:], root=ROOT, out_dir=ROOT / ".bench_out")


if __name__ == "__main__":
    code = main()
    if threading.active_count() > 1:
        # A hung worker cannot be joined: leave without waiting for it.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code or 1)
    sys.exit(code)
