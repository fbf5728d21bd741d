"""Calibration sampler: times a small fixed CPU kernel, over and over, on
the CPU that does the benchmarked work.

Usage: ``python3 perfbench/kernel.py``, started pinned to that CPU.  Every
:data:`PERIOD_S` it runs the kernel twice and records the time of the
second run with its end time.  The kernel mixes what the workloads do and
what the host's slow spells hurt most: random reads over an array larger
than the caches, a small sort and count, an interpreter loop and string
formatting.  It runs in its own process so the measured program's heap,
collector and threads cannot reach it; on the shared CPU it briefly
preempts the program, the same small share of every op.

Each line on standard input holds two ``time.perf_counter()`` instants
``t0 t1`` (the clock is shared between processes); the reply line holds the
mean of ``1 / seconds`` over the samples that ended between them and their
number, falling back to the two samples nearest ``t1`` when none did.  The
process ends when standard input closes.
"""

import gc
import select
import sys
import time

import numpy as np

#: Time between the starts of two samples.
PERIOD_S = 0.03


def main() -> None:
    rng = np.random.default_rng(0)
    table = rng.standard_normal(1_000_000)
    lookups = rng.integers(0, table.size, 20_000)
    values = rng.standard_normal(4_000)
    scratch = np.empty_like(values)
    keys = rng.integers(0, 200, 4_000)
    labels = values[:100].tolist()

    def kernel() -> None:
        table.take(lookups).sum()
        scratch[:] = values
        scratch.sort()
        np.bincount(keys)
        total = 0
        for i in range(3_000):
            total += i % 7
        ",".join(f"{x:.6g}" for x in labels)

    gc.disable()
    ends: list[float] = []
    speeds: list[float] = []
    next_at = time.perf_counter()
    while True:
        wait = max(0.0, next_at - time.perf_counter())
        if select.select([sys.stdin], [], [], wait)[0]:
            line = sys.stdin.readline()
            if not line:
                return
            t0, t1 = map(float, line.split())
            inside = [s for e, s in zip(ends, speeds) if t0 <= e <= t1]
            if not inside:
                nearest = sorted(
                    zip(ends, speeds), key=lambda es: abs(es[0] - t1)
                )[:2]
                inside = [s for _, s in nearest]
            print(f"{sum(inside) / len(inside)!r} {len(inside)}", flush=True)
            continue
        next_at = time.perf_counter() + PERIOD_S
        kernel()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        ends.append(end)
        speeds.append(1.0 / (end - start))


if __name__ == "__main__":
    main()
