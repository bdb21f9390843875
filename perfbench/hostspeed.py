"""Host speed probe: a fixed standard-library workload timed beside the checks.

The shared host the benchmark runs on slows the library's code by up to 2x,
for seconds to many minutes at a time, with CPU time tracking wall time, so
no run is long enough to average it out.  Every check is therefore timed
together with this probe, which a timer runs in the same process every
EVERY_S seconds, inside checks too, and the benchmark reports the check's
time scaled to the probe's speed on an idle host:

    normalized seconds = seconds * REFERENCE_S / probe seconds

The probe multiplies two dict polynomials with Fraction coefficients, the
kind of work refleq.field does, so the host slows it as it slows the
library.  A tight integer loop follows the host less closely: over 100 s of
a repeated 50 ms exchange check on the reference machine, the check's time
spread 34 % (quartiles over median), its ratio to a tight loop 16 % and its
ratio to this probe (then three products long instead of one) 7 %.  The probe uses no refleq code, so a change to the
library moves normalized times exactly as much as raw ones.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# the probe's time on an idle host of the reference machine (a shared 2-core
# Intel Xeon VM at 2.0 GHz, CPython 3.11.7).  It sets the scale of the
# normalized seconds, so that they read as times on that idle host.
REFERENCE_S = 0.0047

# the host's speed changes in steps that last half a second or more; a probe
# every quarter of a second follows them and costs about 2 % of the time of
# a pass on an idle host
EVERY_S = 0.25


def probe():
    """Seconds the fixed probe workload takes now (about REFERENCE_S when idle)."""
    start = perf_counter()
    a = {i: Fraction(i + 1, i + 2) for i in range(40)}
    b = {i: Fraction(2 * i + 1, 3 * i + 7) for i in range(40)}
    product = {}
    for i, x in a.items():
        for j, y in b.items():
            product[i + j] = product.get(i + j, 0) + x * y
    return perf_counter() - start


def normalized(seconds, probe_s):
    """A time measured while the probe took probe_s, scaled to the idle host."""
    return seconds * REFERENCE_S / probe_s


class Probes:
    """Probes on a timer while a pass runs: one at entry, one every EVERY_S, one at exit.

    With timer=False only the entry and exit probes run, so nothing runs
    inside a check (a traced pass, whose spans must hold only the check's
    own time).  mark() before and after each check gives the probes around
    it and the probe time to take off its measured time.
    """

    def __init__(self, timer=True):
        self.timer = timer
        self.samples = []
        self.spent = 0.0

    def _probe(self, *_):
        s = probe()
        self.samples.append(s)
        self.spent += s

    def __enter__(self):
        self._probe()
        if self.timer:
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def mark(self):
        """(probes so far, probe seconds so far)."""
        return len(self.samples), self.spent

    def around(self, start, end):
        """Mean of the probes from the last before mark start to the first after mark end."""
        window = self.samples[start[0] - 1:end[0] + 1]
        return sum(window) / len(window)
