"""Calibration kernel: converts measured seconds into seconds at a
reference machine speed.

The speed of a shared machine drifts by 20% and more within seconds,
and CPU time drifts with it. The kernel below is a fixed piece of the
kind of work ihskit's solves do, written apart from the program: Philox
normal draws, a power-iteration loop of matrix-vector products, and the
butterfly passes of a Walsh-Hadamard transform. It is timed right
before and right after every timed operation. An operation's calibrated
time is ``raw * REFERENCE_S / kernel``, with ``kernel`` the mean time of
the kernel passes around it: the time the operation would have taken
had the kernel run at its reference time.

On the reference machine a kernel of BLAS matmuls and Philox draws
followed the solves worse than no correction at all: other tenants slow
compute-bound matmuls by other amounts than they slow ihskit's
memory-bound, loop-heavy work. This mix cut the spread of 3-second
windows of the solves by a third to a half.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

_NORMALS = 800_000
_MATVEC_SHAPE = (1536, 256)
_MATVEC_ITERS = 80
_TRANSFORM_SHAPE = (4096, 128)

# Median kernel time on the reference machine (2 cores, numpy 2.4.6
# with OpenBLAS on one thread).
REFERENCE_S = 0.062


class Kernel:
    """The fixed calibration workload; inputs are built once."""

    def __init__(self):
        rng = np.random.default_rng(20140904)
        self._mat = rng.standard_normal(_MATVEC_SHAPE)
        self._vec = rng.standard_normal(_MATVEC_SHAPE[1])
        self._block = rng.standard_normal(_TRANSFORM_SHAPE)

    def run(self) -> float:
        """Seconds taken by one pass of the kernel."""
        tic = time.perf_counter()
        draws = np.random.Generator(np.random.Philox(12)).standard_normal(_NORMALS)
        v = self._vec
        for _ in range(_MATVEC_ITERS):
            v = self._mat.T @ (self._mat @ v)
            v /= np.linalg.norm(v)
        out = self._block.copy()
        n, h = out.shape[0], 1
        while h < n:
            pairs = out.reshape(n // (2 * h), 2, h, -1)
            top = pairs[:, 0] + pairs[:, 1]
            pairs[:, 1] = pairs[:, 0] - pairs[:, 1]
            pairs[:, 0] = top
            h *= 2
        toc = time.perf_counter()
        if not (np.isfinite(draws[-1]) and np.isfinite(v[0]) and np.isfinite(out[0, 0])):
            raise RuntimeError("calibration kernel produced a non-finite value")
        return toc - tic


@dataclass
class Timing:
    """One timed operation: its raw seconds and where it sits among the
    kernel passes (pass ``index`` ran right before it, ``index + 1``
    right after)."""

    raw_s: float
    index: int
    clock: "CalibratedClock"

    @property
    def kernel_s(self) -> float:
        """Kernel time around the operation: the mean of the passes right
        before and after it and of their neighbours. One 60 ms pass is
        a noisy gauge (about 10% from pass to pass); four passes over a
        few seconds still follow the slower drift of the machine."""
        times = self.clock.kernel_times
        window = times[max(0, self.index - 1): self.index + 3]
        return sum(window) / len(window)

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.kernel_s

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.scale


@dataclass
class CalibratedClock:
    """Times operations between kernel passes.

    The pass after one operation serves as the pass before the next one
    when nothing slow ran in between; ``fresh()`` forces a new pass
    before the next operation. Read a Timing's calibrated value once
    the passes after it have run.
    """

    kernel: Kernel = field(default_factory=Kernel)
    kernel_times: List[float] = field(default_factory=list)
    _stale: bool = True

    def fresh(self) -> None:
        self.kernel_times.append(self.kernel.run())
        self._stale = False

    def time(self, fn: Callable[[], object]) -> Tuple[object, Timing]:
        if self._stale:
            self.fresh()
        index = len(self.kernel_times) - 1
        self._stale = True
        tic = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - tic
        self.fresh()
        return out, Timing(raw, index, self)
