"""Machine-speed calibration for the end-to-end times.

The benchmark shares its cores with other work on the host, and the speed
of a core drifts by up to a factor of 1.7 over seconds to minutes. Process
CPU time drifts with wall time, so the core itself runs slower. A run of
15-30 s therefore reads the speed of the moment, and ten runs in a row can
differ by more than any useful bound.

A calibration slice is a fixed amount of the kind of work the program does:
small-batch MLP steps with an Adam update in numpy and, for the command
pass, a fixed-width parse into frozen records written out as CSV in plain
Python. It is the benchmark's own code and never calls the package, so a
change to the program cannot move it. For a workload that is calibrated,
slices are timed between units of work and between trials of a sweep, and
an end-to-end time is scaled by (reference slice time) / (median slice time
around it), which expresses it in seconds of the machine in its usual state.
"""

from __future__ import annotations

import csv
import gc
import io
import statistics
import time
from dataclasses import dataclass

import numpy as np

# the parts' times on the machine the benchmark was defined on (2-core Xeon
# sandbox, numpy 2.4.6, OpenBLAS 0.3.31 pinned to one thread) in its usual,
# slower state
REFERENCE_NUMPY_S = 0.025
REFERENCE_PYTHON_S = 0.0155

STEPS = 100
NETS = (((2, 128), (128, 1)), ((2, 32), (32, 16), (16, 8), (8, 1)))
BATCH = 32
LINES = 3000


@dataclass(frozen=True)
class _Record:
    z: int
    a: int
    energy: float


class Calibrator:
    """Times calibration slices and scales measured times by them.

    A slice trains the two small MLPs in NETS for STEPS steps each; with
    `python` it also parses LINES fixed-width lines into records and writes
    them as CSV. A sweep is scaled by the numpy part alone and the command
    pass by both, so that a slice does the kind of work of the unit it
    scales."""

    def __init__(self, python: bool):
        rng = np.random.default_rng(0)
        self._nets = [[rng.normal(0.0, np.sqrt(2.0 / (i + o)), size=(i, o)) for i, o in net]
                      for net in NETS]
        self._x = rng.normal(size=(BATCH, 2))
        self._y = rng.normal(size=BATCH)
        self._lines = [f"{i % 118 + 8:5d}{i % 290 + 16:5d}{(i * 7919) % 100000 / 7.0:14.6f}"
                       f"{i % 13:4d}#" for i in range(LINES)] if python else []
        self.reference_s = REFERENCE_NUMPY_S + (REFERENCE_PYTHON_S if python else 0.0)
        self.samples: list[float] = []

    def _numpy_part(self) -> None:
        for net in self._nets:
            self._train(net)

    def _train(self, initial: list[np.ndarray]) -> None:
        weights = [w.copy() for w in initial]
        biases = [np.zeros(w.shape[1]) for w in weights]
        m = [np.zeros_like(w) for w in weights]
        v = [np.zeros_like(w) for w in weights]
        last = len(weights) - 1
        for t in range(1, STEPS + 1):
            h = self._x
            hs = [h]
            for i, (w, b) in enumerate(zip(weights, biases)):
                h = h @ w + b
                if i < last:
                    h = np.maximum(h, 0.0)
                hs.append(h)
            delta = (2.0 / BATCH) * (hs[-1][:, 0] - self._y)[:, None]
            for i in range(last, -1, -1):
                g = hs[i].T @ delta
                biases[i] -= 1e-3 * delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * (hs[i] > 0.0).astype(np.float64)
                m[i] *= 0.9
                m[i] += 0.1 * g
                v[i] *= 0.99
                v[i] += 0.01 * g * g
                denom = np.sqrt(v[i] / (1 - 0.99 ** t)) + 1e-8
                weights[i] -= 1e-3 * (m[i] / (1 - 0.9 ** t)) / denom

    def _python_part(self) -> int:
        records = []
        for line in self._lines:
            z = int(line[0:5])
            a = int(line[5:10])
            energy = float(line[10:24].strip().replace("#", "."))
            records.append(_Record(z, a, energy * a / 1000.0))
        buf = io.StringIO()
        writer = csv.writer(buf)
        for r in records:
            writer.writerow([r.z, r.a, repr(r.energy)])
        return len(buf.getvalue())

    def sample(self) -> float:
        """Time one slice; remember and return its duration.

        The garbage collector is off during the slice: a collection would
        cost time in proportion to the objects the program holds, and the
        slice must not depend on the program's state."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._numpy_part()
            if self._lines:
                self._python_part()
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def scale(self, samples: list[float]) -> float:
        """Factor that turns seconds measured among `samples` into reference seconds."""
        return self.reference_s / statistics.median(samples)
