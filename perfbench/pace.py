"""The host's pace: a fixed kernel, timed next to every measurement.

On a shared 2-vCPU virtual machine the processor runs up to 2x slower
for stretches of seconds to minutes.  Process CPU time slows with wall
time, so this is not time stolen from the process that a CPU clock
would leave out.  A fixed kernel of interpreter and numpy work, timed
right before and right after each measurement, slows with it, and the
quotient of the two times is steady: over ten 25-second windows of
spectrum-1d the median operation time spread by 18% (quartile spread
over median) and its 10th percentile by 36%, the median quotient by 5.5%.

`scaled` turns a time into seconds on a host where the kernel takes
REF_S, about what it takes on that machine (4.9-7.1 ms).

Starting a process does not follow the kernel: scaled by it, the
median wall time of eight starts still spread by 24% over five runs of
verify-suite.  A start's pace is taken from a reference start instead,
a process that imports only what the environment provides
(`reference_start_cpu_s`); `scaled_start` turns a start's CPU time into
seconds on a host where the reference start takes REF_START_S.  Over
ten runs of each workload the median of six scaled starts spread by
3-4%, the unscaled CPU time by 6-17%.
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter

import numpy as np

#: the kernel's time on the reference host
REF_S = 0.005
#: the reference start's CPU time on the reference host
REF_START_S = 0.5
REFERENCE_START = (
    "import json, resource, numpy, scipy.sparse, scipy.linalg\n"
    "u = resource.getrusage(resource.RUSAGE_SELF)\n"
    "print(json.dumps({'cpu_s': u.ru_utime + u.ru_stime}))\n"
)


def kernel_s() -> float:
    """Time one run of the fixed kernel."""
    t0 = perf_counter()
    d: dict[int, float] = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 1.5
    x = np.arange(200.0)
    for _ in range(300):
        x = np.sqrt(x * x + 1.0)
    return perf_counter() - t0


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` at the reference pace, from the kernel times around it."""
    return seconds * REF_S / (0.5 * (kernel_before + kernel_after))


def reference_start_cpu_s(env: dict[str, str], timeout: float) -> float:
    """CPU seconds of one reference start: numpy and scipy imported."""
    out = subprocess.run(
        [sys.executable, "-c", REFERENCE_START],
        env=env, capture_output=True, text=True, timeout=timeout, check=True,
    )
    return json.loads(out.stdout)["cpu_s"]


def scaled_start(cpu_s: float, reference_cpu_s: float) -> float:
    """A start's CPU seconds at the pace of the reference host."""
    return cpu_s * REF_START_S / reference_cpu_s
