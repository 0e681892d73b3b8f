"""Host-speed sampler: times a fixed slice of small numpy work, often.

``run.py`` starts one sampler per run, pinned to the CPU the measured
processes are pinned to, and stops it when the run ends::

    python3 perfbench/sampler.py --out samples.txt

Every ``PERIOD_S`` it times ``UNIT_ROUNDS`` rounds of small numpy
operations shaped like a search step (a softmax over a 21x7 array and a
1x147 by 147x64 product), which touch nothing of the program, and appends
``<monotonic time> <seconds>`` to ``--out``.  The unit is timed in the
sampler's own CPU time, so that a unit the scheduler interrupts to run
the measured process is not counted as slow.  The unit takes about
0.4 ms, so the sampler costs the measured process under 1% of its CPU,
the same share on every process.  When the host runs the CPU slower (a
neighbour on the shared machine), the unit takes longer; ``run.py`` reads
the units that ran inside each measured interval (README.md, "Host
speed").
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

UNIT_ROUNDS = 25
PERIOD_S = 0.05


def unit(logits: np.ndarray, weights: np.ndarray) -> float:
    start = time.thread_time()
    for _ in range(UNIT_ROUNDS):
        x = np.exp(logits - logits.max(axis=1, keepdims=True))
        x = (x / x.sum(axis=1, keepdims=True)).reshape(1, -1) @ weights
    return time.thread_time() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    logits, weights = rng.random((21, 7)), rng.random((147, 64))
    parent = os.getppid()
    with open(args.out, "w", encoding="utf-8") as out:
        while os.getppid() == parent:   # never outlive the run
            took = unit(logits, weights)
            out.write(f"{time.monotonic():.6f} {took:.9f}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
