"""Noise-normalised timing: the canary, the host factor and the p10 estimator.

On this shared microVM the *same* kernel runs at 3.4 ms or 4.4-5.0 ms
for stretches of seconds to minutes with no steal time reported, so a
plain median of step times moves by ~9 % between two halves of one run.
Work is therefore timed in homogeneous **blocks**, every block is
bracketed by a fixed single-thread **canary**, the block's wall time is
divided by the canary's slowdown (the *host factor*), and the timing
metrics are the **best decile** of the normalised values — the
program's cost when the host is quiet.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

#: Canary reading on this repository's reference host when it is quiet
#: (2-core microVM, BLAS pinned to 1 thread, one CPU: p10 of 200
#: readings is 4.33 ms back to back and 4.48 ms between blocks).  A
#: block's host factor is ``canary / CANARY_REF_MS``; changing this
#: constant rescales every normalised time, so it never changes.
CANARY_REF_MS = 4.40

#: Canary p90/p10 above which a record is flagged ``host_noisy``.
NOISY_RATIO = 1.25


class Canary:
    """A fixed ~4 ms single-thread probe of the host's current speed.

    Five parts, one per kind of work the program does, because no single
    one tracks every workload (a lone sgemm over-corrects LeNet by 25 %
    in some slow stretches, a lone Python loop misses memory pressure):
    a 96x96 sgemm (BLAS), a fused elementwise pass over 32k floats
    (ufuncs in cache), a pass over 1M floats (memory), 200 small
    allocate-fill-add rounds (allocator churn, which autograd is full
    of) and a 20k-iteration Python loop (the interpreter).
    """

    GEMM_REPS = 64
    ELEM_REPS = 40
    ALLOC_REPS = 200
    LOOP_ITERS = 20_000

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((96, 96)).astype(np.float32)
        self._b = rng.standard_normal((96, 96)).astype(np.float32)
        self._c = np.empty_like(self._a)
        self._v = rng.standard_normal(32_768).astype(np.float32)
        self._w = np.empty_like(self._v)
        self._big = rng.standard_normal(1 << 20).astype(np.float32)
        self._big_out = np.empty_like(self._big)
        self.readings_ms: List[float] = []

    def _once(self) -> float:
        np, a, b, c, v, w = self._np, self._a, self._b, self._c, self._v, self._w
        t0 = time.perf_counter()
        for _ in range(self.GEMM_REPS):
            np.matmul(a, b, out=c)
        for _ in range(self.ELEM_REPS):
            np.multiply(v, 1.0001, out=w)
            np.add(w, v, out=w)
            np.tanh(w, out=w)
        np.multiply(self._big, 1.0001, out=self._big_out)
        np.add(self._big_out, self._big, out=self._big_out)
        for _ in range(self.ALLOC_REPS):
            x = np.empty((64, 256), dtype=np.float32)
            x.fill(1.0)
            x = x + 1.0
        acc = 0
        for i in range(self.LOOP_ITERS):
            acc += i & 7
        return (time.perf_counter() - t0) * 1e3

    def read(self) -> float:
        """Milliseconds for one probe: the smaller of two back-to-back runs."""
        ms = min(self._once(), self._once())
        self.readings_ms.append(ms)
        return ms


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of ``values``."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("percentile of no values")
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def host_factor(canary_before_ms: float, canary_after_ms: float) -> float:
    """How much slower than the reference host the bracketing canaries ran."""
    return 0.5 * (canary_before_ms + canary_after_ms) / CANARY_REF_MS


def quiet_cost(unit_seconds: Sequence[float], factors: Sequence[float]) -> float:
    """Best-decile normalised cost of one unit of work.

    ``unit_seconds[i]`` is block *i*'s wall time divided by the units of
    work it did (steps, samples, one episode); ``factors[i]`` is its
    host factor.  Returns p10 of ``unit_seconds / factor``.
    """
    if len(unit_seconds) != len(factors):
        raise ValueError("one host factor per block")
    return percentile([s / f for s, f in zip(unit_seconds, factors)], 10)


def half_gap(unit_seconds: Sequence[float], factors: Sequence[float]) -> float:
    """Relative gap between the estimator on the two halves of a run.

    The run-to-run spread a single record can report about itself;
    ``compare`` calls a metric *unresolved* when this exceeds its bound.
    """
    n = len(unit_seconds)
    if n < 4:
        return 0.0
    a = quiet_cost(unit_seconds[: n // 2], factors[: n // 2])
    b = quiet_cost(unit_seconds[n // 2:], factors[n // 2:])
    return abs(a - b) / min(a, b)


def canary_summary(readings_ms: Sequence[float]) -> Dict:
    """The canary's own distribution for a record's ``meta``."""
    p10, p50, p90 = (percentile(readings_ms, q) for q in (10, 50, 90))
    return {
        "ref_ms": CANARY_REF_MS,
        "p10_ms": p10,
        "p50_ms": p50,
        "p90_ms": p90,
        "readings": len(readings_ms),
        "host_noisy": p90 / p10 > NOISY_RATIO,
    }
