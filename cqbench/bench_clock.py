"""Speed-scaled task times.

On a shared virtual machine a core's speed changes while a run measures: on
the 2-vCPU x86 machine this benchmark was built on, each vCPU switches
independently between a fast and a slow state, about 1.6 times apart, in
phases of 5 to 30 seconds. The share of a 30-second run spent in the slow
state varies so much that the mean of identical tasks differs by up to a
quarter between runs (quartile spread 0.17 to 0.25 over 30-second windows).

So the benchmark times a fixed probe between tasks and scales each task's
time by how fast the probe ran around it: ``scaled = raw * PROBE_REF_S /
probe``, where ``probe`` is the mean of the probes just before and just after
the task. The probe is small NumPy calls plus keyed BLAKE2b hashing, the mix
whose slowdown tracked best that of a bound solve, a greedy simulator run, a
brute-force matching scan and an alternating-cycle DFS (tried against
interpreted integer loops, mid-size NumPy math and tuple-keyed dicts). Over
15-second windows of one repeated task, scaled times had a quartile spread of
0.02 to 0.04 where raw times had 0.13 to 0.29. Scaled times read as seconds on
a core where the probe takes PROBE_REF_S, about its time on a fast-state core
of that machine. The probe calls no cqlab code, so a change to cqlab moves
scaled times as it moves raw ones. Raw times are reported next to the scaled
ones.
"""
from __future__ import annotations

import hashlib
import struct
import time

import numpy as np

PROBE_REF_S = 0.8e-3
_KEY = b"cqbench!"


def _probe_work():
    a = np.arange(64.0)
    for _ in range(100):
        a = np.where(a > 3, a * 0.5, a + 1.0)
    for i in range(400):
        hashlib.blake2b(struct.pack("<II", i, i + 1), key=_KEY, digest_size=8).digest()
    return a


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


class ScaledClock:
    """Times calls and scales each by the probes on either side of it."""

    def __init__(self):
        self.last = probe()

    def time(self, fn, *args):
        """Run fn(*args); return (result, raw seconds, scaled seconds)."""
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        after = probe()
        scaled = raw * PROBE_REF_S / ((self.last + after) / 2)
        self.last = after
        return out, raw, scaled
