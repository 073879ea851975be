"""Scale timings to a fixed machine speed with an interleaved probe.

The shared VMs this benchmark runs on change speed by up to 1.7x for seconds
to minutes at a time, and the whole pipeline slows with them. ``SpeedProbe``
times a small fixed piece of work that does not touch geotrack (small-matrix
numpy and allocating small Python objects, the mix the pipeline runs) every
``EVERY_S`` seconds, from a SIGALRM handler, so readings land inside long
calls too. A timed item excludes the time its readings took, and at the end
of the run it is scaled by how much slower than nominal the probe ran while
the item ran:

    scaled = raw * NOMINAL_S / mean(probe readings within SPAN_S of the item)

The mean, not the median: the speed flips between a fast and a slow state
several times a second, and an item's time is the average over the states
it ran in.

A scaled figure therefore reads as the time on a machine where the probe
takes ``NOMINAL_S``. A change to geotrack cannot move the probe, so it moves
the scaled figures as much as the raw ones.
"""

import gc
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.0025  # one probe chunk on the baseline VM at typical speed
CHUNKS = 4  # a reading is the median of this many chunks
EVERY_S = 0.15  # seconds between readings
SPAN_S = 0.3  # readings this close to an item set its scale


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


class SpeedProbe:
    """Call ``start`` to begin reading, ``stop`` before leaving the run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._weights = rng.normal(0.0, 0.3, (24, 24))
        self._inputs = rng.normal(0.0, 1.0, (24, 8))
        self._items = []  # (sink list, index in it, start, end)
        self._reading = False
        self._previous_handler = None
        self.spent = 0.0  # seconds spent in readings so far
        self.readings = []  # (perf_counter at the reading, seconds per chunk)

    def _chunk(self):
        x = self._inputs
        for _ in range(120):
            x = np.tanh(self._weights @ x) + self._inputs
            x = np.maximum(x, 0.0) / (1.0 + x.sum(axis=0))
        items = [_Item(str(i), i) for i in range(3000)]
        return {item.key: item for item in items}

    def read(self, *_signal):
        """Take one reading of the machine's speed now. The first chunk only
        warms the caches the timed work left cold. The garbage collector is
        off meanwhile: its cost grows with the program's heap."""
        if self._reading:
            return
        self._reading = True
        began = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._chunk()
            times = []
            for _ in range(CHUNKS):
                started = time.perf_counter()
                self._chunk()
                times.append(time.perf_counter() - started)
            self.readings.append((time.perf_counter(), statistics.median(times)))
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - began
            self._reading = False

    def start(self):
        self.read()
        self._previous_handler = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def clock(self):
        """Token for ``add``, taken where a timed item starts."""
        return time.perf_counter(), self.spent

    def add(self, sink, token, count=1):
        """Append to ``sink`` the time since ``token``, less readings, over
        ``count``; ``scale`` rescales it."""
        started, spent_before = token
        while True:  # a reading may land between the two clocks
            spent, end = self.spent, time.perf_counter()
            if spent == self.spent:
                break
        sink.append((end - started - (spent - spent_before)) / count)
        self._items.append((sink, len(sink) - 1, started, end))

    def scale(self):
        """Rescale every time added so far by the readings around it."""
        self.read()
        at = np.array([t for t, _ in self.readings])
        chunk_s = np.array([s for _, s in self.readings])
        for sink, index, start, end in self._items:
            near = chunk_s[(at >= start - SPAN_S) & (at <= end + SPAN_S)]
            if not len(near):
                near = chunk_s[np.argmin(np.abs(at - end))]
            sink[index] *= NOMINAL_S / float(np.mean(near))
        self._items = []

    def summary(self):
        """Probe readings in ms: median, min, max, count."""
        ms = [s * 1e3 for _, s in self.readings]
        return {"median_ms": statistics.median(ms), "min_ms": min(ms), "max_ms": max(ms),
                "nominal_ms": NOMINAL_S * 1e3, "readings": len(ms)}
