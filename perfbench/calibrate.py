"""Host-speed calibration: timings scaled to a reference host speed.

The benchmark shares a few cores of a host with other work, and the
host's speed drifts: it flips between levels up to 1.8 times apart that
hold from about a second to minutes, so the same call of the same seed
runs up to 1.8 times as long in a slow period, and an invocation that
falls in one reads slow throughout.  That drift is not the program's.

So the benchmark times a fixed pure-Python routine (:func:`sample`: dict,
list, tuple and string work, the kind the program does) right before
every call it times, as a *probe* of the host's speed at that moment.
The *speed factor* of a call is the median of the probes around it over
:data:`REFERENCE_S` (:func:`factor_at`).  The probe is more sensitive to
the host's slow periods than the program is, so the call's CPU-bound
time is divided by the factor to the power :data:`SENSITIVITY`; time the
process spends waiting (real sleeps, such as the DHT store's wire
latency) does not depend on host speed and is kept as measured
(:func:`scaled`).  Probe time itself is never part of a timed
interval.  The routine is the benchmark's own and never changes, so a
change to the program moves the scaled times exactly as it moves the
wall times on an undisturbed host.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence

#: Seconds :func:`sample` takes on the reference host (2 cores, Python
#: 3.11.7) at its fast level; a factor below 1 means a faster host.  A
#: fixed constant: changing it rescales every timing.
REFERENCE_S = 0.00026

#: How the program's CPU time grows with the probe's: measured on the
#: reference host by timing the same call of the same seed at different
#: speed factors, the program's time grew as the factor to the power
#: 0.86 (``fig12-memory``), 0.7-0.8 (``durable-history``) and 0.75-0.83
#: (``dht-async``).
SENSITIVITY = 0.8

#: Probes on each side of a call that set its speed factor.
WINDOW = 4

#: Samples taken before each repetition's set-up calls.
SAMPLES = 9


def _routine() -> int:
    table = {}
    for i in range(1000):
        key = (i * 7919) % 251
        table.setdefault(key, []).append((i, str(key)))
    total = 0
    for key, rows in sorted(table.items()):
        total += len(rows) + len(rows[0][1]) + key % 3
    return total


def sample() -> float:
    """Seconds one run of the calibration routine takes now, without
    garbage collection (whose cost depends on the program's heap)."""
    gc.disable()
    try:
        started = time.perf_counter()
        _routine()
        return time.perf_counter() - started
    finally:
        gc.enable()


def samples() -> List[float]:
    """:data:`SAMPLES` consecutive calibration samples, after collecting
    the garbage the measured program left."""
    gc.collect()
    return [sample() for _ in range(SAMPLES)]


def speed_factor(taken: Sequence[float]) -> float:
    """How much slower than the reference host the host ran while
    ``taken`` was sampled (1.0: as fast)."""
    return statistics.median(taken) / REFERENCE_S


def factor_at(probes: Sequence[float], index: int) -> float:
    """The speed factor of the call probed by ``probes[index]``: the
    median over the :data:`WINDOW` probes on each side of it."""
    return speed_factor(probes[max(0, index - WINDOW):index + WINDOW + 1])


def scaled(wall_s: float, cpu_s: float, factor: float) -> float:
    """``wall_s`` at reference speed: its CPU-bound part ``cpu_s`` (at
    most ``wall_s``) divided by ``factor`` to the power
    :data:`SENSITIVITY`, the rest kept as waited."""
    cpu_s = min(cpu_s, wall_s)
    return wall_s - cpu_s + cpu_s / factor**SENSITIVITY
