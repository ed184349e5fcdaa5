"""CPU speed probe that runs beside the benchmark on the same CPU.

    python3 benchmarks/e2e/probe.py OUT.json

Every ``PERIOD_S`` seconds it times one pass of a fixed kernel (Python
bytecode, dict updates and small NumPy reductions, the benchmark's own
mix).  It prints ``ready`` once SIGTERM stops it cleanly; on SIGTERM it
writes ``[[end_monotonic, seconds], ...]`` to OUT.json.

The benchmark pins itself, its children and this probe to one
CPU, so a sample taken while that CPU runs slow (a busy hyper-thread
sibling or neighbour on a shared host) is slow by the same factor as the
benchmark code around it.  The probe sleeps between samples, so it takes
about 2% of the CPU.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.025
_ARRAY = np.arange(4096, dtype=np.int64)


def kernel() -> int:
    """A fixed amount of work (about 0.5 ms on a 2020s server core)."""
    total = 0
    table: dict[int, tuple[int, int]] = {}
    for i in range(2000):
        total += i * i % 7
        table[i & 63] = (i, total)
        if i % 64 == 0:
            total += int((_ARRAY * i).sum() & 7)
    return total


def main(out: str) -> int:
    stopping = False

    def stop(_signum, _frame) -> None:
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    print("ready", flush=True)
    parent = os.getppid()
    samples = []
    # A parent that dies without stopping the probe re-parents it.
    while not stopping and os.getppid() == parent:
        time.sleep(PERIOD_S)
        start = time.perf_counter()
        kernel()
        samples.append((time.monotonic(), time.perf_counter() - start))
    with open(out, "w") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
