"""How fast the host is running right now, from a fixed reference job.

The host's speed drifts by up to ~40% over tens of seconds, because
other tenants share its cores, and one state often lasts a whole run.
The benchmark therefore times a fixed job just before each timed step
and scales the step to the speed at which the job takes
``REFERENCE_S``.  The job runs in a helper process that imports nothing
from the program, so no change to the program can change the job.  The
benchmark waits while it runs, so the two never compete for a core.

Run as a script, this file is the helper: for each line on standard
input it runs the job once and prints the seconds it took.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# a round figure near the job's time on a 2-CPU host (6.4-9.8 ms in the
# recorded steadiness sets); a factor above 1 means the host runs slower
REFERENCE_S = 0.010
SAMPLES = 3  # jobs per factor; the factor uses their median


def job() -> float:
    """Small matrix products and dictionary updates, like the program's
    per-batch work."""
    rng = np.random.default_rng(0)
    x, w, v = rng.random((256, 12)), rng.random((12, 48)), rng.random((48, 1))
    acc = 0.0
    for _ in range(130):
        acc += float((np.maximum(x @ w, 0.0) @ v).sum())
        d: dict[int, float] = {}
        for j in range(300):
            d[j & 31] = d.get(j & 31, 0.0) + j * 0.5
        acc += d[3]
    return acc


class HostSpeed:
    """A running helper; :meth:`factor` is the host's current slowness."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.factors: list[float] = []

    def factor(self) -> float:
        """Median job time over ``SAMPLES`` jobs, over ``REFERENCE_S``."""
        times = []
        for _ in range(SAMPLES):
            self._helper.stdin.write("\n")
            self._helper.stdin.flush()
            line = self._helper.stdout.readline()
            if not line:
                raise RuntimeError("the host-speed helper exited")
            times.append(float(line))
        self.factors.append(statistics.median(times) / REFERENCE_S)
        return self.factors[-1]

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()


if __name__ == "__main__":
    for _line in sys.stdin:
        start = time.perf_counter()
        job()
        print(time.perf_counter() - start, flush=True)
