"""The clock every timing of the benchmark reads, and the host-speed
calibration that scales it.

cpu_seconds() is CPU seconds of this process plus those of its finished
children. On a shared virtual machine the hypervisor takes the CPU away
for spells of seconds ("steal" in /proc/stat); wall time then grows by a
third or more for the same work, while CPU time does not count the
stolen time. Every workload is a single-threaded closed loop that never
waits on a queue, a disk or a network, so its CPU time is its latency
less steal. A child (a cli-calls command, a set-up interpreter) counts
once it has been waited for, which subprocess.run does before returning.

CPU time still moves with the host: in spells from under a second to
minutes, neighbours on the same machine make identical work take 1.3 to
1.5 times as long.
calibrate() times a fixed piece of pure-Python work that shares nothing
with defifix; the benchmark runs it between items and scales each item's
CPU time by REFERENCE_S over the calibration around it. Times are thus
CPU times at the speed the host had when REFERENCE_S was measured. A
change to defifix moves them in full; a change of host or interpreter
moves the calibration too.
"""

from __future__ import annotations

import resource
from time import process_time

# median of calibrate() on a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7
REFERENCE_S = 0.0150


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _loop() -> int:
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


def _alloc() -> list:
    d = {}
    for i in range(4000):
        t = (i, i + 1, (i * 7) % 13)
        d[t] = [t, str(i)]
    return sorted(d, key=lambda t: t[2])[:3]


def _table() -> list:
    """The multiplication table of F_25 = F_5[t]/(t^2 + 4t + 2), by
    schoolbook products of coefficient lists."""
    p, modulus = 5, (2, 4, 1)
    vecs = [[n % p, n // p] for n in range(p * p)]
    table = []
    for u in vecs:
        row = []
        for v in vecs:
            prod = [0, 0, 0]
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    prod[i + j] = (prod[i + j] + a * b) % p
            for i, c in enumerate(modulus):
                prod[i] = (prod[i] - prod[2] * c) % p
            row.append(prod[0] + p * prod[1])
        table.append(row)
    return table


def _poly() -> dict:
    """Repeated products of a polynomial in two variables held as a dict
    from exponent tuples to coefficients mod 7."""
    a = {((0, i), (1, j)): i + j + 1 for i in range(4) for j in range(4)}
    for _ in range(4):
        b = {}
        for ma, ca in a.items():
            for mb, cb in list(a.items())[:8]:
                m = tuple(sorted((v, ea + eb) for (v, ea), (_, eb) in zip(ma, mb)))
                b[m] = (b.get(m, 0) + ca * cb) % 7
        a = {m: c for m, c in b.items() if c}
    return a


def calibrate() -> float:
    """CPU seconds of a fixed mix of pure-Python work of the kinds defifix
    does: an integer loop, building and sorting a dict of tuples, a
    finite-field multiplication table and dict-polynomial products."""
    t0 = cpu_seconds()
    _loop()
    _alloc()
    for _ in range(4):
        _table()
    _poly()
    return cpu_seconds() - t0
