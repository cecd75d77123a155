"""Host-speed samples for normalizing times on a shared machine.

The host's speed drifts by tens of percent between processes started
minutes apart, and the workload's times drift with it.  A fixed kernel is
timed many times during a run; a time multiplied by
:meth:`HostSpeed.scale` reads as it would on a host where the kernel takes
``NOMINAL_S``.  The kernel is a frozen numpy replica of the hot loop of a
phase-objective evaluation: three delayed carriers, the response spectrum
and one derivative, positive-lag autocorrelations through complex FFTs of
length 8192, and the unwrapped argument.  It shares the workload's array
sizes and temporaries, so cache and core contention slow both alike, and it
lives here, so no change to waveinv moves it.
"""

from __future__ import annotations

import statistics
from time import perf_counter, thread_time

import numpy as np

#: Kernel seconds that leave a time unchanged (about its median on a 2-vCPU
#: x86-64 host with Python 3.11 and numpy 2.4.6 with OpenBLAS).
NOMINAL_S = 0.0025
#: Least time between two samples taken by :meth:`HostSpeed.tick`.
INTERVAL_S = 0.1


class HostSpeed:
    """Kernel samples since the last :meth:`reset`, and the time they took.

    Samples are CPU time of the calling thread, like the iteration times they
    scale, so time the host gives to other work does not count."""

    def __init__(self) -> None:
        n = 4096
        t = np.arange(n) / 48.0e6
        pulse = np.sin(2 * np.pi * 3.0e6 * t) * np.exp(-((t - 3.0e-6) ** 2) / (2 * (1 / (np.pi * 1.95e6)) ** 2))
        self._pulse = np.fft.rfft(pulse)
        self._omega = 2 * np.pi * np.arange(n // 2 + 1) * 48.0e6 / n
        self._tau = np.array([8.0e-6, 1.1e-5, 1.4e-5])
        self._amplitudes = np.array([1.0, 0.4, 0.2])
        self.reset()

    def reset(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # thread CPU seconds
        self.spent_wall = 0.0
        self._last = perf_counter()

    def _kernel(self) -> None:
        carriers = np.exp(-1j * np.outer(self._tau, self._omega))
        y = self._pulse * (self._amplitudes @ carriers)
        dy = self._pulse * ((self._amplitudes * self._tau) @ (-1j * self._omega * carriers))
        v, dv = y[1:], dy[1:]
        fv, fdv = np.fft.fft(v, 8192), np.fft.fft(dv, 8192)
        e = np.fft.ifft(fv * np.conj(fv))[: v.size]
        de = np.fft.ifft(fdv * np.conj(fv))[: v.size] + np.fft.ifft(fv * np.conj(fdv))[: v.size]
        phase = np.unwrap(np.arctan2(e.imag, e.real))
        mag2 = np.abs(e) ** 2
        np.where(mag2 == 0.0, 0.0, (np.conj(e) * de).imag / np.where(mag2 == 0.0, 1.0, mag2)) + phase

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            w0, t0 = perf_counter(), thread_time()
            self._kernel()
            self.samples.append(thread_time() - t0)
            self.spent += self.samples[-1]
            self._last = perf_counter()
            self.spent_wall += self._last - w0

    def tick(self) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """``NOMINAL_S`` over the median sample: above 1 on a fast host."""
        return NOMINAL_S / statistics.median(self.samples)
