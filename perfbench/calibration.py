"""How fast the machine runs right now, from two fixed kernels.

A shared 2-core machine runs the same code up to 1.5x slower for tens of
seconds at a time, for interpreter-bound and memory-bound work alike, so the
median wall time of a benchmark run moves by more than the regressions it
should catch. The benchmark measures the machine's speed just before and just
after every timed step and reports the step's wall seconds scaled by that
speed: calibrated seconds, the time the step would take on the reference
machine. The kernels use no `mexp` code, so a change to the program cannot
move them.
"""

import math
from time import perf_counter

SECONDS_PER_KERNEL = 0.25

# Seconds one unit of each kernel takes on the reference machine: a 2-core
# Xeon VM (numpy on OpenBLAS, one thread) in its fast phase.
REFERENCE_UNIT_S = {"interpreter": 0.0005, "streaming": 0.0028}


def machine_speed(seconds=SECONDS_PER_KERNEL):
    """Speed relative to the reference machine: the geometric mean of the
    speeds of an interpreter kernel (a Python loop, small numpy reductions
    and a small matrix product, like SMO and the encoders) and a streaming
    kernel (one pass over 16 MB arrays, like the Laplacian graph and the
    distance tensor), each run for about `seconds`."""
    import numpy as np

    rng = np.random.default_rng(1)
    v = rng.random(200)
    m = rng.random((120, 120))
    x = np.ones(2_000_000)
    z = np.ones(2_000_000)

    def interpreter():
        nonlocal v
        for _ in range(50):
            i = int(np.argmax(np.where(v > 0.5, v, -np.inf)))
            v = v * 0.999 + m[i % 120, 0] * 0.001
            acc = 0
            for k in range(40):
                acc += k * k
        m @ m

    def streaming():
        x * 1.0001 + z

    log_speed = 0.0
    for name, unit in (("interpreter", interpreter), ("streaming", streaming)):
        units = 0
        started = perf_counter()
        while (elapsed := perf_counter() - started) < seconds:
            unit()
            units += 1
        log_speed += math.log(REFERENCE_UNIT_S[name] * units / elapsed)
    return math.exp(log_speed / len(REFERENCE_UNIT_S))
